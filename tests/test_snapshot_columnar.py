"""Columnar v3 snapshots: integrity over raw buffers, v1/v2 conversion,
journal resume from old snapshots, nothing held after a run, and the
C RTL simulator's bulk state exports and cache key
(repro.scan.snapshot, repro.sim.state, repro.sim.cbackend)."""

import copyreg
import gc
import os
import pickle
import weakref
import zlib

import numpy as np
import pytest

from repro.core import run_strober
from repro.core.replay import ReplayEngine
from repro.fame import Endpoint, Fame1Simulator
from repro.gatelevel import lane_ops, pack_lane_words
from repro import native
from repro.hdl import Module, circuit_fingerprint, elaborate
from repro.robust.journal import (
    TYPE_RESULT, TYPE_SNAPSHOT, RunJournal, read_journal,
)
from repro.parallel.cache import get_cache
from repro.scan.snapshot import ReplayableSnapshot, SnapshotError
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


def _dict_layout(snapshot, reverse=False, sparse=False):
    """(state, input_trace, output_trace) in the v1/v2 dict layout.

    ``reverse`` writes every dict in reverse key order (orders no
    simulator declares); ``sparse`` leaves out an input whose value did
    not change since the previous cycle (0 before its first entry), as
    an endpoint that did not drive it produced.
    """
    def keyed(row):
        return dict(reversed(row.items())) if reverse else row

    state = _Legacy(SimState, (
        keyed(snapshot.state.reg_dict()),
        {path: words.tolist()
         for path, words in snapshot.state.mems.items()},
        snapshot.state.cycle))
    inputs, outputs = zip(*(snapshot.cycle_io(t)
                            for t in range(snapshot.recorded)))
    if sparse:
        held, changed = {}, []
        for row in inputs:
            changed.append({name: value for name, value in row.items()
                            if held.get(name, 0) != value})
            held.update(row)
        inputs = changed
    return (state, [keyed(row) for row in inputs],
            [keyed(row) for row in outputs])


def _old_checksum(snapshot, input_trace, output_trace):
    """The v2 checksum: CRC over ``repr`` of the sorted dicts."""
    mems = {path: words.tolist()
            for path, words in snapshot.state.mems.items()}
    h = zlib.crc32(repr((snapshot.cycle, snapshot.replay_length)).encode())
    h = zlib.crc32(repr(sorted(snapshot.state.reg_dict().items())).encode(),
                   h)
    h = zlib.crc32(repr(sorted(mems.items())).encode(), h)
    h = zlib.crc32(repr([sorted(d.items()) for d in input_trace]).encode(),
                   h)
    return zlib.crc32(
        repr([sorted(d.items()) for d in output_trace]).encode(), h)


def _old_fields(snapshot, version, checksum_delta=0, **layout):
    """A v1/v2 ``__setstate__`` tuple of the same window."""
    state, inputs, outputs = _dict_layout(snapshot, **layout)
    fields = (version, snapshot.cycle, state, snapshot.replay_length,
              inputs, outputs, dict(snapshot.perf_counters))
    if version == "v2":
        fields += (_old_checksum(snapshot, inputs, outputs)
                   + checksum_delta,)
    return fields


def _old_pickle(snapshot, version, checksum_delta=0, **layout):
    return pickle.dumps(_Legacy(ReplayableSnapshot, _old_fields(
        snapshot, version, checksum_delta, **layout)))


def _rewrite_as_v2(path, drop_results, reverse=False):
    """Rewrite a run journal with its snapshots in the v2 layout, and
    with the results of odd-indexed snapshots dropped if asked."""
    records = read_journal(path)
    journal = RunJournal(path)
    journal.reset()
    for rtype, obj in records:
        if rtype == TYPE_SNAPSHOT:
            obj = {"index": obj["index"],
                   "snapshot": _Legacy(ReplayableSnapshot, _old_fields(
                       obj["snapshot"], "v2", reverse=reverse))}
        elif rtype == TYPE_RESULT and drop_results and obj["index"] % 2:
            continue
        journal.append(rtype, obj)
    journal.close()


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
    def test_old_pickle_replays_bit_identically(self, towers_run, version):
        engine = towers_run.engine
        originals = towers_run.snapshots[:3]
        clones = [pickle.loads(_old_pickle(s, version)) for s in originals]
        for clone, snap in zip(clones, originals):
            assert clone.validate()
            assert (clone.checksum is None) == (version == "v1")
            assert clone.state.reg_dict() == snap.state.reg_dict()
            assert np.array_equal(clone.output_trace, snap.output_trace)
        want = [_power_key(r)
                for r in engine.replay_all(originals, batch_lanes=3)]
        assert [_power_key(r) for r in engine.replay_all(
            clones, batch_lanes=3)] == want
        assert [_power_key(engine.replay(c)) for c in clones] == want

    def test_corrupt_v2_stays_corrupt(self, towers_run):
        clone = pickle.loads(_old_pickle(towers_run.snapshots[0], "v2",
                                         checksum_delta=1))
        with pytest.raises(SnapshotError, match="integrity"):
            clone.validate()

    @pytest.mark.parametrize("drop_results", [False, True])
    def test_journal_of_v2_snapshots_resumes(self, towers_run, tmp_path,
                                             drop_results):
        path = str(tmp_path / "run.rpj")
        first = run_strober(**TOWERS, journal=path)
        _rewrite_as_v2(path, drop_results)
        again = run_strober(**TOWERS, journal=path)
        expected = len(first.snapshots) // 2 if drop_results \
            else len(first.snapshots)
        assert again.timings["resumed_replays"] == expected
        assert again.result.resumed
        assert again.energy.epi_nj == first.energy.epi_nj
        assert [_power_key(r) for r in again.replays] == \
            [_power_key(r) for r in first.replays]

    def test_reordered_v2_journal_resumes_in_spawned_workers(
            self, tmp_path, monkeypatch):
        """Orders taken from dict key order are known only where the
        snapshot was converted; its pickle carries them to a worker
        that shares no memory with the parent."""
        path = str(tmp_path / "run.rpj")
        first = run_strober(**TOWERS, journal=path)
        _rewrite_as_v2(path, drop_results=True, reverse=True)
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        again = run_strober(**TOWERS, journal=path, workers=2)
        assert again.health.healthy, again.health.summary()
        assert again.timings["resumed_replays"] == len(first.snapshots) // 2
        converted = again.snapshots[0]
        assert converted.orders is not None
        assert converted.input_names == \
            tuple(reversed(first.snapshots[0].input_names))
        assert again.energy.epi_nj == first.energy.epi_nj
        assert [_power_key(r) for r in again.replays] == \
            [_power_key(r) for r in first.replays]


def test_lane_ops_match_the_per_lane_packing_loop():
    rng = np.random.default_rng(1)
    lanes, cycles = 37, 6
    nets = [[1, 2, 3], list(range(40, 60)), [7]]
    values = rng.integers(0, 2 ** 20, size=(lanes, cycles, len(nets)),
                          dtype=np.uint64)
    present = rng.random(values.shape) < 0.7
    present[:, 2, 1] = False                  # one op with an empty mask
    flat, cycle, port = lane_ops(values, present, nets)
    op = 0
    for t in range(cycles):
        for p, port_nets in enumerate(nets):
            mask = sum(1 << lane for lane in range(lanes)
                       if present[lane, t, p])
            if not mask:
                continue
            width = len(port_nets)
            at = slice(flat["off"][op], flat["off"][op] + width)
            assert (cycle[op], port[op]) == (t, p)
            assert flat["masks"][op] == mask and flat["cnt"][op] == width
            assert flat["nets"][at].tolist() == port_nets
            assert np.array_equal(flat["words"][at], pack_lane_words(
                [int(values[lane, t, p]) for lane in range(lanes)], width))
            op += 1
    assert op == len(flat["masks"]) == flat["counts"].sum()
    assert flat["counts"][2] == len(nets) - 1


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
    fame = Fame1Simulator(elaborate(_Accumulate()), [_SparseDriver()],
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

    def test_sparse_v2_trace_is_forward_filled(self, sparse_snaps):
        engine = ReplayEngine(elaborate(_Accumulate()))
        for snap in sparse_snaps:
            fields = _old_fields(snap, "v2", sparse=True)
            assert any(len(row) < 2 for row in fields[4])
            clone = pickle.loads(pickle.dumps(
                _Legacy(ReplayableSnapshot, fields)))
            assert clone.validate()
            for t in range(snap.recorded):
                assert clone.cycle_io(t) == snap.cycle_io(t)
            assert _power_key(engine.replay(clone)) == \
                _power_key(engine.replay(snap))


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
