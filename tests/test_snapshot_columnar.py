"""Columnar v3 snapshots: integrity over raw buffers, v1/v2 pickles
rejected and their journals rerun fresh, one port layout per replay
batch, nothing held after a run, and the C RTL simulator's bulk state
exports and cache key (repro.scan.snapshot, repro.sim.state,
repro.sim.cbackend)."""

import copyreg
import gc
import os
import pickle
import weakref

import numpy as np
import pytest

from repro.core import StroberCompiler, run_strober
from repro.core.replay import ReplayEngine, plan_replay_batches
from repro.fame import Endpoint, Fame1Simulator
from repro.gatelevel import lane_ops, pack_lane_words
from repro import native
from repro.hdl import Module, circuit_fingerprint, elaborate
from repro.robust.journal import (
    TYPE_RESULT, TYPE_SNAPSHOT, RunJournal, read_journal,
)
from repro.parallel.cache import get_cache
from repro.scan.snapshot import (
    ReplayableSnapshot, SnapshotError, TraceLayout,
)
from repro.sim import RTLSimulator, cbackend
from repro.sim.state import SimState

TOWERS = dict(design="rocket_mini", workload="towers", sample_size=8,
              replay_length=32, backend="auto", seed=3, batch_lanes=4)


@pytest.fixture(scope="module")
def towers_run():
    return run_strober(**TOWERS)


def _power_key(result):
    return (result.snapshot_cycle, result.cycles, result.mismatches,
            result.load_commands, result.power.total_w,
            tuple(sorted(result.power.by_group.items())))


# -- the pre-columnar wire format, rebuilt from a v3 snapshot ----------------

class _Legacy:
    """Pickles as ``cls.__new__(cls).__setstate__(state)``: the exact
    byte form the dict-layout classes produced."""

    def __init__(self, cls, state):
        self.cls, self.state = cls, state

    @property
    def __class__(self):         # what pickle checks __newobj__ against
        return self.cls

    def __reduce__(self):
        return copyreg.__newobj__, (self.cls,), self.state


def _old_fields(snapshot, version):
    """A v1/v2 ``__setstate__`` tuple of the same window: per-cycle
    dict traces, a ``(regs, mems, cycle)`` state and, for v2, a
    checksum slot."""
    state = _Legacy(SimState, (
        snapshot.state.reg_dict(),
        {path: words.tolist()
         for path, words in snapshot.state.mems.items()},
        snapshot.state.cycle))
    inputs, outputs = zip(*(snapshot.cycle_io(t)
                            for t in range(snapshot.recorded)))
    fields = (version, snapshot.cycle, state, snapshot.replay_length,
              list(inputs), list(outputs), dict(snapshot.perf_counters))
    return fields + ((0,) if version == "v2" else ())


def _old_pickle(snapshot, version):
    return pickle.dumps(_Legacy(ReplayableSnapshot,
                                _old_fields(snapshot, version)))


def _rewrite_as_v2(path, drop_results):
    """Rewrite a run journal with its snapshots in the v2 layout, and
    with the results of odd-indexed snapshots dropped if asked."""
    records = read_journal(path)
    journal = RunJournal(path)
    journal.reset()
    for rtype, obj in records:
        if rtype == TYPE_SNAPSHOT:
            obj = {"index": obj["index"],
                   "snapshot": _Legacy(ReplayableSnapshot, _old_fields(
                       obj["snapshot"], "v2"))}
        elif rtype == TYPE_RESULT and drop_results and obj["index"] % 2:
            continue
        journal.append(rtype, obj)
    journal.close()


def _reordered(snapshot):
    """The same sealed window with both port orders reversed."""
    layout = TraceLayout(
        [(name, 32) for name in reversed(snapshot.input_names)],
        [(name, 32) for name in reversed(snapshot.output_names)])
    clone = ReplayableSnapshot(snapshot.cycle, snapshot.state,
                               snapshot.replay_length, layout,
                               snapshot.perf_counters)
    clone.inputs[:] = snapshot.inputs[:, ::-1]
    clone.outputs[:] = snapshot.outputs[:, ::-1]
    clone.recorded = snapshot.recorded
    clone.seal()
    return clone


class TestIntegrity:
    def test_any_flipped_byte_fails_validation(self, towers_run):
        snap = pickle.loads(pickle.dumps(towers_run.snapshots[0]))
        assert snap.validate()
        buffers = [snap.state.reg_values, snap.inputs, snap.outputs,
                   *snap.state.mems.values()]
        for buf in buffers:
            raw = buf.reshape(-1).view(np.uint8)
            for i in range(raw.size):
                raw[i] ^= 0x5A
                with pytest.raises(SnapshotError, match="integrity"):
                    snap.validate()
                raw[i] ^= 0x5A
        for owner, attr in ((snap.state, "reg_order"),
                            (snap, "input_order"), (snap, "output_order")):
            for byte in range(8):
                flip = 0xA5 << 8 * byte
                setattr(owner, attr, getattr(owner, attr) ^ flip)
                with pytest.raises(SnapshotError, match="integrity"):
                    snap.validate()
                setattr(owner, attr, getattr(owner, attr) ^ flip)
        assert snap.validate()

    def test_buffers_use_narrow_dtypes(self, towers_run):
        snap = towers_run.snapshots[0]
        assert snap.state.reg_values.dtype == np.uint64
        # every rocket_mini memory and port is at most 32 bits wide
        assert {w.dtype for w in snap.state.mems.values()} == \
            {np.dtype(np.uint32)}
        assert snap.inputs.dtype == snap.outputs.dtype == np.uint32
        assert snap.inputs.shape == (snap.replay_length,
                                     len(snap.input_names))


class TestOldFormats:
    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_old_pickle_is_rejected(self, towers_run, version):
        with pytest.raises(SnapshotError, match="pre-v3"):
            pickle.loads(_old_pickle(towers_run.snapshots[0], version))

    def test_converted_v3_tuple_is_rejected(self, towers_run):
        """A v3 tuple whose last slot carries name orders came from a
        converted v1/v2 snapshot."""
        snapshot = towers_run.snapshots[0]
        state = snapshot.__getstate__()
        assert state[-1] is None
        orders = (snapshot.state.reg_paths, snapshot.input_names,
                  snapshot.output_names)
        clone = ReplayableSnapshot.__new__(ReplayableSnapshot)
        with pytest.raises(SnapshotError, match="pre-v3"):
            clone.__setstate__(state[:-1] + (orders,))

    @pytest.mark.parametrize("drop_results", [False, True])
    def test_journal_of_v2_snapshots_reruns_fresh(self, towers_run,
                                                  tmp_path, drop_results):
        path = str(tmp_path / "run.rpj")
        run_strober(**TOWERS, journal=path)
        _rewrite_as_v2(path, drop_results)
        with pytest.warns(RuntimeWarning, match="undecodable record"):
            again = run_strober(**TOWERS, journal=path)
        assert again.timings["resumed_replays"] == 0
        assert not getattr(again.result, "resumed", False)
        assert again.energy == towers_run.energy
        assert [_power_key(r) for r in again.replays] == \
            [_power_key(r) for r in towers_run.replays]
        resumed = run_strober(**TOWERS, journal=path)
        assert resumed.timings["resumed_replays"] == len(again.snapshots)
        assert resumed.energy == towers_run.energy


class TestMixedLayouts:
    def test_two_layouts_replay_in_separate_batches(self, towers_run):
        engine = towers_run.engine
        originals = towers_run.snapshots[:4]
        mixed = [originals[0], originals[1], _reordered(originals[2]),
                 _reordered(originals[3])]
        assert plan_replay_batches(mixed, 64) == [[0, 1], [2, 3]]
        want = [_power_key(engine.replay(s)) for s in originals]
        assert [_power_key(engine.replay(s)) for s in mixed] == want
        assert [_power_key(r) for r in engine.replay_all(mixed)] == want

    def test_mixed_batch_is_refused(self, towers_run):
        snapshots = towers_run.snapshots
        with pytest.raises(ValueError, match="port orders"):
            towers_run.engine.replay_batch(
                [snapshots[0], _reordered(snapshots[1])])


def test_lane_ops_match_the_per_lane_packing_loop():
    rng = np.random.default_rng(1)
    lanes, cycles = 37, 6
    widths = [3, 20, 1]
    values = rng.integers(0, 2 ** 20, size=(lanes, cycles, len(widths)),
                          dtype=np.uint64)
    words = lane_ops(values, widths)
    assert words.shape == (cycles, sum(widths))
    for t in range(cycles):
        at = 0
        for p, width in enumerate(widths):
            assert np.array_equal(words[t, at:at + width], pack_lane_words(
                [int(values[lane, t, p]) for lane in range(lanes)], width))
            at += width


class _Accumulate(Module):
    def build(self):
        en = self.input("en", 1)
        d = self.input("d", 8)
        acc = self.reg("acc", 12)
        with self.when(en):
            acc <<= (acc + d.pad(12)).trunc(12)
        self.output("acc", 12, acc)


class _SparseDriver(Endpoint):
    """Drives ``d`` only on enabled cycles; otherwise the RTL holds it."""

    def reset(self):
        self.t = 0

    def tick(self, outputs):
        self.t += 1
        if self.t % 3:
            return {"en": 1, "d": (self.t * 37) & 0xFF}
        return {"en": 0}


@pytest.fixture(scope="module")
def sparse_snaps():
    output = StroberCompiler(lambda: elaborate(_Accumulate())).compile()
    fame = Fame1Simulator(output.simulator_circuit, [_SparseDriver()],
                          replay_length=16, sample_size=6, seed=1,
                          backend="python")
    fame.run(max_cycles=400)
    return fame.snapshots


class TestUndrivenPorts:
    def test_held_inputs_replay_like_the_scalar_loop(self, sparse_snaps):
        engine = ReplayEngine(elaborate(_Accumulate()))
        scalar = engine.replay_all(sparse_snaps)
        assert not any(r.mismatches for r in scalar)
        for backend in ("interp", "c"):
            engine = ReplayEngine(elaborate(_Accumulate()),
                                  gl_backend=backend)
            batched = engine.replay_all(sparse_snaps,
                                        batch_lanes=len(sparse_snaps))
            assert [_power_key(r) for r in batched] == \
                [_power_key(r) for r in scalar]


class TestNothingHeld:
    def test_snapshots_die_with_the_run(self):
        run = run_strober(**TOWERS)
        refs = [weakref.ref(s) for s in run.snapshots]
        assert refs
        del run
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_warm_calls_do_not_grow_rss(self):
        kwargs = dict(design="rocket_mini", workload="gcc_phases",
                      sample_size=256, seed=0, batch_lanes=None,
                      gl_backend="c")
        run_strober(**kwargs)
        gc.collect()
        before = _rss_mb()
        for _ in range(3):
            run_strober(**kwargs)
        gc.collect()
        assert _rss_mb() - before < 8.0


def _rss_mb():
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


# -- the C RTL simulator ------------------------------------------------------

class _RegMem(Module):
    def build(self):
        d = self.input("d", 12)
        acc = self.reg("acc", 12)
        acc <<= (acc + d).trunc(12)
        mem = self.mem("m", 16, 12)
        ptr = self.reg("ptr", 4)
        ptr <<= ptr + 1
        self.mem_write(mem, ptr, acc)
        self.output("old", 12, mem.read(ptr))


@pytest.fixture
def c_circuit():
    try:
        compiler = native.find_compiler()
    except native.ToolchainUnavailable:
        pytest.skip("no C compiler")
    return elaborate(_RegMem()), compiler


class TestCSimulator:
    def test_key_covers_runtime_text(self, c_circuit, tmp_path,
                                     monkeypatch):
        circuit, _ = c_circuit
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cbackend.compile_circuit_c(circuit)
        assert cbackend.compile_circuit_c(circuit)[0].from_cache
        monkeypatch.setattr(cbackend, "RUNTIME_C",
                            cbackend.RUNTIME_C + "\n/* next version */\n")
        assert not cbackend.compile_circuit_c(circuit)[0].from_cache

    def test_key_covers_lowering_rules(self, c_circuit, tmp_path,
                                       monkeypatch):
        circuit, _ = c_circuit
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cbackend.compile_circuit_c(circuit)
        assert cbackend.compile_circuit_c(circuit)[0].from_cache
        lower = cbackend._lower_c

        def add_plus_zero(node, ref, mem_index):
            expr = lower(node, ref, mem_index)
            return f"({expr} + 0ULL)" if node.op == "add" else expr

        monkeypatch.setattr(cbackend, "_lower_c", add_plus_zero)
        assert not cbackend.compile_circuit_c(circuit)[0].from_cache

    def test_planted_old_entry_is_never_loaded(self, c_circuit, tmp_path,
                                               monkeypatch):
        circuit, _ = c_circuit
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        old_key = circuit_fingerprint(circuit)
        get_cache().put("csim", old_key, {
            "source": "", "so": b"an object without mem_read",
            "layout": {}})
        asked = []
        real_get = type(get_cache()).get
        monkeypatch.setattr(type(get_cache()), "get", lambda self, kind,
                            key: asked.append((kind, key))
                            or real_get(self, kind, key))
        sim = RTLSimulator(circuit, backend="c")
        assert ("csim", old_key) not in asked
        sim.poke("d", 5)
        sim.step(3)
        assert sim.snapshot().reg_dict() == {"acc": 15, "ptr": 3}

    def test_bulk_state_round_trip(self, c_circuit):
        circuit, _ = c_circuit
        sim = RTLSimulator(circuit, backend="c")
        sim.load_mem("m", range(100, 116))
        sim.poke_reg("acc", 7)
        assert sim.peek_reg("acc") == 7
        snap = sim.snapshot()
        assert snap.mems["m"].dtype == np.uint16
        assert snap.mems["m"].tolist() == list(range(100, 116))
        sim.reset(clear_mems=True)
        assert sim.snapshot().mems["m"].tolist() == [0] * 16
        assert sim.peek_reg("acc") == 0
        sim.load_snapshot(snap)
        assert sim.read_mem("m", 3) == 103 and sim.peek_reg("acc") == 7
        assert list(sim._mems[0]) == list(range(100, 116))
        with pytest.raises(IndexError):
            sim.read_mem("m", 16)
        with pytest.raises(IndexError):
            sim.write_mem("m", -1, 0)
        with pytest.raises(IndexError):
            sim._regs[len(circuit.regs)]
