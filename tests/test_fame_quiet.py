"""The quiet-segment FAME loop (Endpoint.quiet / skip, RTLSimulator.step).

Stretches of target cycles in which every endpoint is quiet run as one
multi-cycle simulator call.  These tests hold the endpoints to their
promises and the loop to the per-cycle reference: the same endpoints
with ``quiet`` returning None, which makes every cycle a
``step_target`` call.
"""

import copy
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import run_strober
from repro.core.flow import get_circuits
from repro.dram.timing import MemoryEndpoint, make_memory_endpoint
from repro.fame.simulator import Endpoint
from repro.hdl import Module, elaborate
from repro.isa.programs.microbench import towers
from repro.isa.programs.workloads import gcc_phases
from repro.obs import Tracer, get_registry, set_tracer
from repro.sim import RTLSimulator
from repro.targets.soc import (
    FROMHOST_ADDR, PERF_ADDR, PUTCHAR_ADDR, TOHOST_ADDR, HtifEndpoint,
    run_workload,
)

try:
    from repro.native import find_compiler
    find_compiler()
    BACKENDS = ("c", "python")
except Exception:  # pragma: no cover - no C compiler on this host
    BACKENDS = ("python",)


@contextmanager
def per_cycle_endpoints():
    """The reference loop: no endpoint promises a quiet stretch."""
    saved = {cls: vars(cls)["quiet"]
             for cls in (MemoryEndpoint, HtifEndpoint)}
    for cls in saved:
        cls.quiet = Endpoint.quiet
    try:
        yield
    finally:
        for cls, quiet in saved.items():
            cls.quiet = quiet


# -- the endpoint contract --------------------------------------------------

MEM_OUTPUTS = st.fixed_dictionaries({
    "mem_req_valid": st.integers(0, 1),
    "mem_req_rw": st.integers(0, 1),
    "mem_req_addr": st.integers(0, 63),
    "mem_req_len": st.integers(0, 4),
    "mem_wdata_valid": st.integers(0, 1),
    "mem_wdata": st.integers(0, 2**32 - 1),
})

HTIF_OUTPUTS = st.fixed_dictionaries({
    "mmio_req_valid": st.integers(0, 1),
    "mmio_req_rw": st.integers(0, 1),
    "mmio_req_addr": st.sampled_from(
        [TOHOST_ADDR, FROMHOST_ADDR, PUTCHAR_ADDR, PERF_ADDR, 0x1234]),
    "mmio_req_wdata": st.integers(0, 255),
})


def check_promises(endpoint, outputs, data, steps=30):
    """Drive ``endpoint`` with random outputs; wherever it promises a
    quiet stretch, tick ``j <= max_cycles`` times on outputs with every
    wake port zero and require ``token`` each time and the state of a
    twin given ``skip(j)``."""
    promises = 0
    for _ in range(steps):
        out = data.draw(outputs)
        promise = endpoint.quiet(out)
        if promise is not None:
            token, wake, bound = promise
            assert not any(out.get(name) for name in wake)
            assert bound is None or bound >= 1
            j = data.draw(st.integers(0, min(bound or 12, 12)))
            twin = copy.deepcopy(endpoint)
            for _ in range(j):
                assert endpoint.tick(out) == token
                out = dict(data.draw(outputs), **dict.fromkeys(wake, 0))
            twin.skip(j)
            assert vars(endpoint) == vars(twin)
            promises += 1
        endpoint.tick(out)
    return promises


class TestEndpointContract:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), latency=st.integers(0, 6),
           with_counters=st.booleans())
    def test_memory_endpoint_keeps_its_promises(self, data, latency,
                                                with_counters):
        endpoint = make_memory_endpoint(latency=latency,
                                        with_counters=with_counters,
                                        line_words=4)
        endpoint.load_words(0, range(64))
        check_promises(endpoint, MEM_OUTPUTS, data)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_htif_endpoint_keeps_its_promises(self, data):
        check_promises(HtifEndpoint(), HTIF_OUTPUTS, data)

    def test_every_memory_state_is_reached(self):
        """Idle, latency wait and write-beat absorption each promise."""
        endpoint = make_memory_endpoint(latency=3, line_words=2)
        idle = endpoint.quiet({})
        assert idle[1] == ("mem_req_valid",) and idle[2] is None
        endpoint.tick({"mem_req_valid": 1, "mem_req_rw": 1,
                       "mem_req_addr": 8, "mem_req_len": 2})
        assert endpoint.quiet({})[1] == ("mem_wdata_valid",)
        for beat in (5, 6):
            endpoint.tick({"mem_wdata_valid": 1, "mem_wdata": beat})
        token, wake, bound = endpoint.quiet({})
        assert (wake, bound) == ((), 3)
        assert not any(token.values())
        endpoint.skip(3)
        assert endpoint.quiet({}) is None            # the write ack
        assert endpoint.tick({})["mem_resp_valid"] == 1
        assert endpoint.store == {8: 5, 9: 6}

    def test_default_endpoint_is_ticked_every_cycle(self):
        assert Endpoint().quiet({}) is None


# -- the simulator's multi-cycle step ----------------------------------------

class _Ticker(Module):
    """Counts while enabled; ``hit`` is high on every seventh count."""

    def build(self):
        en = self.input("en", 1)
        count = self.reg("count", 8)
        with self.when(en):
            count <<= (count + 1).trunc(8)
        self.output("count", 8, count)
        self.output("hit", 1, count.eq(6))


@pytest.mark.parametrize("backend", BACKENDS)
def test_step_stops_on_wake_and_writes_rows(backend):
    """``step(n, wake, rows)`` matches single steps, stopping before the
    first cycle after one that raised a wake output."""
    bulk, single = (RTLSimulator(elaborate(_Ticker()), backend=backend)
                    for _ in range(2))
    for sim in (bulk, single):
        sim.poke("en", 1)
    rows = np.zeros((20, 2), dtype=np.uint64)
    assert bulk.step(20, [1], rows) == 7
    expected = []
    for _ in range(7):
        single.step()
        expected.append(list(single.output_values()))
    assert rows[:7].tolist() == expected == [[c, c == 6] for c in range(7)]
    assert bulk.cycle == single.cycle == 7
    assert bulk.step(5, [1], rows) == 0              # still awake
    assert bulk.step(5, (), rows) == 5               # no wake: all n
    assert bulk.peek("count") == 11                 # pre-edge value
    with pytest.raises(ValueError):
        bulk.step(30, (), rows)                      # rows too short


# -- the FAME loop against the per-cycle reference ----------------------------

PROGRAMS = {"towers": towers, "gcc_phases": lambda: gcc_phases(rounds=1)}
CASES = [("rocket_mini", "towers"), ("rocket_mini", "gcc_phases"),
         ("boom-1w_mini", "gcc_phases")]


@pytest.fixture(scope="module")
def soc_run():
    """One SoC run per case (memoized): sampling, full I/O trace."""
    runs = {}

    def run(design, program, backend, reference=False):
        key = (design, program, backend, reference)
        if key not in runs:
            circuit = get_circuits(design).simulator_circuit
            with per_cycle_endpoints() if reference else nullcontext():
                runs[key] = run_workload(
                    circuit, PROGRAMS[program](), backend=backend,
                    sample_size=8, replay_length=32, seed=3,
                    record_full_io=True)
        return runs[key]
    return run


def _trace_key(trace):
    layout, inputs, outputs = trace
    return (layout.inputs.fingerprint, layout.outputs.fingerprint,
            inputs.dtype.str, inputs.tolist(),
            outputs.dtype.str, outputs.tolist())


def outcome(result):
    stats = {k: v for k, v in result.stats.as_dict().items()
             if "wall" not in k}
    return {
        "stats": stats,
        "snapshots": [(s.cycle, s.checksum, s.perf_counters)
                      for s in result.snapshots],
        "full_io_trace": _trace_key(result.fame.full_io_trace),
        "requests": (result.memory.requests, result.memory.read_requests,
                     result.memory.write_requests),
        "dram": result.memory.counters,
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("design,program", CASES)
class TestBitIdentity:
    def test_matches_per_cycle_reference(self, soc_run, design, program,
                                         backend):
        quiet = soc_run(design, program, backend)
        ref = soc_run(design, program, backend, reference=True)
        assert ref.fame.quiet_cycles == 0
        assert quiet.fame.quiet_cycles > 0
        assert len(quiet.snapshots) == len(ref.snapshots) > 0
        got, want = outcome(quiet), outcome(ref)
        for field in want:
            assert got[field] == want[field], field

    def test_halts_where_the_reference_halts(self, soc_run, design,
                                             program, backend):
        """``stop_fn`` (``htif.halted``) sees the same cycle."""
        quiet = soc_run(design, program, backend)
        ref = soc_run(design, program, backend, reference=True)
        assert quiet.passed
        assert quiet.cycles == ref.cycles
        assert quiet.htif.stdout == ref.htif.stdout
        assert quiet.exit_code == ref.exit_code


@pytest.mark.parametrize("backend", BACKENDS)
def test_loop_path_counters(backend):
    """The run says which loop path each target cycle took: on the
    ``fame.simulate`` span and as ``fame.*`` registry counters."""
    registry = get_registry()
    before = {name: registry.value(f"fame.{name}")
              for name in ("python_cycles", "quiet_segments",
                           "quiet_cycles")}
    tracer = Tracer()
    prev = set_tracer(tracer)
    try:
        result = run_workload(
            get_circuits("rocket_mini").simulator_circuit, towers(),
            backend=backend, sample_size=4, replay_length=32, seed=1)
    finally:
        set_tracer(prev)
    fame = result.fame
    assert fame.python_cycles + fame.quiet_cycles == result.cycles
    assert fame.quiet_cycles > 0 and fame.quiet_segments > 0
    (span,) = tracer.find("fame.simulate")
    assert span.args["cycles"] == result.cycles
    for name in before:
        assert span.args[name] == getattr(fame, name)
        assert registry.value(f"fame.{name}") - before[name] == \
            getattr(fame, name)


def test_energy_matches_per_cycle_reference():
    kwargs = dict(sample_size=6, replay_length=32, backend="auto", seed=5,
                  batch_lanes=None, gl_backend="c")
    quiet = run_strober("rocket_mini", "towers", **kwargs)
    with per_cycle_endpoints():
        ref = run_strober("rocket_mini", "towers", **kwargs)
    assert quiet.energy.power.mean == ref.energy.power.mean
    assert quiet.energy.power.half_width == ref.energy.power.half_width
    assert quiet.energy.dram_power_mw == ref.energy.dram_power_mw
