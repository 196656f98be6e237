"""Power emulation in the replay kernel: every lane's PowerReport from
the batched C reduction (repro.gatelevel.analyze_power_lanes) equals the
per-lane reference analyze_power(netlist, sim.activity(lane), ...) with
``==`` on every field, ``by_group`` key order included."""

import random

import numpy as np
import pytest

from repro.core import run_strober
from repro.gatelevel import (
    BatchedGateLevelSimulator, MAX_LANES, analyze_power,
    analyze_power_lanes, synthesize,
)
from repro.gatelevel.power import _ordered_sum
from repro.hdl import Module, elaborate
from repro.obs import get_registry

_FIELDS = ("total_w", "switching_w", "clock_w", "sram_dynamic_w",
           "leakage_w", "cycles", "freq_hz")


def _assert_same_report(got, ref):
    for name in _FIELDS:
        assert getattr(got, name) == getattr(ref, name), name
    assert list(got.by_group.items()) == list(ref.by_group.items())


@pytest.fixture(scope="module", params=["rocket_mini", "boom-1w_mini"])
def design_run(request):
    run = run_strober(request.param, "towers", sample_size=8,
                      replay_length=32, seed=3)
    if run.engine.backend_used != "c":
        pytest.skip("no C compiler: the batch reduction needs the kernel")
    return run


@pytest.mark.parametrize("lanes", [1, 7, MAX_LANES])
def test_batch_reports_equal_the_reference(design_run, lanes):
    engine = design_run.engine
    snaps = list(design_run.snapshots)
    batch = [snaps[i % len(snaps)] for i in range(lanes)]
    registry = get_registry()
    before = registry.value("replay.toggles")
    results = engine.replay_batch(batch)
    noted = registry.value("replay.toggles") - before

    gl = engine._sim(lanes)
    toggles = 0
    for lane, result in enumerate(results):
        act = gl.activity(lane)
        toggles += int(act["toggles"].sum())
        ref = analyze_power(engine.flow.netlist, act, engine.flow.placement,
                            freq_hz=engine.freq_hz, grouping=engine.grouping)
        _assert_same_report(result.power, ref)
    # replay.toggles counts what the per-lane activity export counted
    assert noted == toggles


class _IoDesign(Module):
    """An accumulator with a memory: inputs reach registers and SRAM."""

    def build(self):
        d = self.input("d", 8)
        we = self.input("we", 1)
        acc = self.reg("acc", 12)
        acc <<= (acc + d).trunc(12)
        scratch = self.mem("scratch", 16, 8)
        ptr = self.reg("ptr", 4)
        with self.when(we):
            self.mem_write(scratch, ptr, d)
            ptr <<= ptr + 1
        self.output("acc", 12, acc)
        self.output("peek", 8, scratch.read(ptr))


# 600 cycles need 10 toggle-counter planes: two 8-plane chunks
@pytest.mark.parametrize("cycles", [20, 600])
def test_io_group_appears_only_where_an_input_switched(cycles):
    netlist, _hints = synthesize(elaborate(_IoDesign()))
    sim = BatchedGateLevelSimulator(netlist, lanes=4, backend="c")
    if sim.backend != "c":
        pytest.skip("no C compiler: the batch reduction needs the kernel")
    rng = random.Random(5)
    for _cycle in range(cycles):
        # lanes 0 and 1 hold every input at 0; lanes 2 and 3 switch them
        sim.poke_lanes("d", [0, 0, rng.randrange(256), rng.randrange(256)])
        sim.poke_lanes("we", [0, 0, 1, rng.randrange(2)])
        sim.step()
    reports, toggles = analyze_power_lanes(netlist, sim)
    refs = [analyze_power(netlist, sim.activity(lane)) for lane in range(4)]
    for got, ref in zip(reports, refs):
        _assert_same_report(got, ref)
    assert toggles == sum(int(sim.activity(lane)["toggles"].sum())
                          for lane in range(4))
    assert [("(io)" in r.by_group) for r in reports] == \
        [False, False, True, True]
    assert reports[2].sram_dynamic_w > 0.0
    assert sim._plane_count == cycles.bit_length()
    if cycles > 255:
        # counts past one 8-plane chunk reach the reduction
        assert sim.lane_toggles(2).max() >= 256


def test_batch_path_needs_the_kernel():
    netlist, _hints = synthesize(elaborate(_IoDesign()))
    sim = BatchedGateLevelSimulator(netlist, lanes=2, backend="interp")
    sim.step()
    with pytest.raises(ValueError, match="native kernel"):
        analyze_power_lanes(netlist, sim)


def test_ordered_sum_is_the_sequential_sum():
    rng = np.random.default_rng(3)
    values = rng.random(10_000) * 10.0 ** rng.integers(-20, 0, 10_000)
    total = 0.0
    for v in values.tolist():
        total += v
    assert _ordered_sum(values) == total
    assert _ordered_sum(np.zeros(0)) == 0.0
