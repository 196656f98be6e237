"""Tests for the FAME1 transform, channels, scan chains, and snapshots."""

import pytest

from repro.core import StroberCompiler
from repro.hdl import Module, elaborate
from repro.sim import RTLSimulator
from repro.fame import (
    fame1_transform, is_fame1, Fame1Error, HOST_ENABLE,
    Channel, TraceBuffer, ChannelError,
    Fame1Simulator, Endpoint, ConstantEndpoint,
)
from repro.scan import (
    build_scan_chain_spec, insert_scan_chains, ReplayableSnapshot,
    SnapshotError, TraceLayout,
)


class PipelinedAccumulator(Module):
    """Small sequential design with a memory, used across these tests."""

    def build(self):
        d = self.input("d", 8)
        stage1 = self.reg("stage1", 8)
        stage1 <<= d
        acc = self.reg("acc", 16)
        acc <<= (acc + stage1).trunc(16)
        log = self.mem("log", 16, 16)
        wptr = self.reg("wptr", 4)
        wptr <<= wptr + 1
        self.mem_write(log, wptr, acc)
        self.output("acc", 16, acc)


class TestFame1Transform:
    def test_host_enable_gates_registers(self):
        circuit = elaborate(PipelinedAccumulator())
        fame1_transform(circuit)
        sim = RTLSimulator(circuit)
        sim.poke("d", 3)
        sim.poke(HOST_ENABLE, 1)
        sim.step(4)
        acc_running = sim.peek_reg("acc")
        assert acc_running > 0
        sim.poke(HOST_ENABLE, 0)
        sim.step(10)
        assert sim.peek_reg("acc") == acc_running  # fully stalled

    def test_host_enable_gates_memory_writes(self):
        circuit = elaborate(PipelinedAccumulator())
        fame1_transform(circuit)
        sim = RTLSimulator(circuit)
        sim.poke("d", 1)
        sim.poke(HOST_ENABLE, 0)
        sim.step(8)
        assert all(sim.read_mem("log", i) == 0 for i in range(16))

    def test_double_transform_rejected(self):
        circuit = elaborate(PipelinedAccumulator())
        fame1_transform(circuit)
        assert is_fame1(circuit)
        with pytest.raises(Fame1Error):
            fame1_transform(circuit)

    def test_transform_preserves_behaviour_when_enabled(self):
        plain = elaborate(PipelinedAccumulator())
        famed = elaborate(PipelinedAccumulator())
        fame1_transform(famed)
        s1 = RTLSimulator(plain)
        s2 = RTLSimulator(famed)
        s2.poke(HOST_ENABLE, 1)
        for d in [1, 2, 3, 5, 8, 13]:
            s1.poke("d", d)
            s2.poke("d", d)
            s1.step()
            s2.step()
            assert s1.peek("acc") == s2.peek("acc")


class TestChannels:
    def test_fifo_order(self):
        ch = Channel("c", 8, "input")
        ch.push(1)
        ch.push(2)
        assert ch.pop() == 1
        assert ch.pop() == 2

    def test_overflow_underflow(self):
        ch = Channel("c", 8, "output", depth=1)
        ch.push(5)
        with pytest.raises(ChannelError):
            ch.push(6)
        ch.pop()
        with pytest.raises(ChannelError):
            ch.pop()

    def test_trace_buffer_keeps_last_n(self):
        buf = TraceBuffer(3)
        for i in range(10):
            buf.record(i)
        assert buf.contents() == [7, 8, 9]

    def test_trace_buffer_validation(self):
        with pytest.raises(ValueError):
            TraceBuffer(0)


class TestScanChainSpec:
    def test_pack_unpack_roundtrip(self):
        circuit = elaborate(PipelinedAccumulator())
        spec = build_scan_chain_spec(circuit, scan_width=8)
        values = {"stage1": 0xAB, "acc": 0x1234, "wptr": 0x9}
        assert spec.unpack_registers(spec.pack_registers(values)) == values

    def test_readout_cost_scales_with_state(self):
        circuit = elaborate(PipelinedAccumulator())
        spec8 = build_scan_chain_spec(circuit, scan_width=8)
        spec32 = build_scan_chain_spec(circuit, scan_width=32)
        assert spec8.readout_cycles() > spec32.readout_cycles()
        assert spec8.readout_cycles(include_rams=False) < \
            spec8.readout_cycles(include_rams=True)

    def test_reg_bits(self):
        circuit = elaborate(PipelinedAccumulator())
        spec = build_scan_chain_spec(circuit)
        assert spec.reg_bits == 8 + 16 + 4


class TestHardwareScanChains:
    def _scan_out_registers(self, sim, spec):
        sim.poke("scan_capture", 1)
        sim.poke("scan_shift", 0)
        sim.step()
        sim.poke("scan_capture", 0)
        words = []
        for _ in range(spec.chain_words):
            sim.eval()
            words.append(sim.peek("scan_out"))
            sim.poke("scan_shift", 1)
            sim.step()
        sim.poke("scan_shift", 0)
        return words

    def test_hardware_chain_matches_metadata_packing(self):
        circuit = elaborate(PipelinedAccumulator())
        fame1_transform(circuit)
        spec = insert_scan_chains(circuit, scan_width=8)
        sim = RTLSimulator(circuit)
        sim.poke_all({"d": 7, HOST_ENABLE: 1, "scan_capture": 0,
                      "scan_shift": 0, "scan_ram_0_shift": 0})
        sim.step(5)
        sim.poke(HOST_ENABLE, 0)  # stall target, then scan
        expected = {path: sim.peek_reg(path) for path, _ in spec.reg_chain}
        words = self._scan_out_registers(sim, spec)
        assert spec.unpack_registers(words) == expected

    def test_hardware_ram_chain_reads_all_entries(self):
        circuit = elaborate(PipelinedAccumulator())
        fame1_transform(circuit)
        insert_scan_chains(circuit, scan_width=8)
        sim = RTLSimulator(circuit)
        sim.poke_all({"d": 1, HOST_ENABLE: 1, "scan_capture": 0,
                      "scan_shift": 0, "scan_ram_0_shift": 0})
        sim.step(20)  # fill the log memory
        sim.poke(HOST_ENABLE, 0)
        expected = [sim.read_mem("log", i) for i in range(16)]
        sim.poke("scan_capture", 1)
        sim.step()
        sim.poke("scan_capture", 0)
        sim.poke("scan_ram_0_shift", 1)
        got = []
        for _ in range(16):
            sim.step()
            sim.eval()  # sample the shadow register post-edge
            got.append(sim.peek("scan_ram_0_out"))
        assert got == expected


class _Stim(Endpoint):
    """Drives `d` with an incrementing pattern."""

    def __init__(self):
        self.value = 0

    def reset(self):
        self.value = 0

    def tick(self, outputs):
        self.value += 1
        return {"d": self.value & 0xFF}


class TestFame1Simulator:
    def _build(self, **kwargs):
        output = StroberCompiler(
            lambda: elaborate(PipelinedAccumulator())).compile()
        return Fame1Simulator(output.simulator_circuit, [_Stim()],
                              backend="python", **kwargs)

    def test_plain_circuit_raises(self):
        """The FAME1 transform and scan spec are the compiler's work:
        neither a plain nor a transformed-only circuit is accepted."""
        circuit = elaborate(PipelinedAccumulator())
        with pytest.raises(ValueError, match="StroberCompiler"):
            Fame1Simulator(circuit, [_Stim()], backend="python")
        fame1_transform(circuit)
        with pytest.raises(ValueError, match="StroberCompiler"):
            Fame1Simulator(circuit, [_Stim()], backend="python")

    def test_scan_spec_is_the_compilers(self):
        output = StroberCompiler(
            lambda: elaborate(PipelinedAccumulator())).compile()
        fame = Fame1Simulator(output.simulator_circuit, [_Stim()],
                              backend="python")
        assert fame.scan_spec is output.scan_spec

    def test_runs_and_counts_cycles(self):
        fame = self._build()
        fame.run(max_cycles=100)
        assert fame.stats.target_cycles == 100
        assert fame.stats.host_cycles >= 100

    def test_io_stall_overhead_accounted(self):
        fame = self._build(io_stall_period=10, io_stall_cycles=3)
        fame.run(max_cycles=100)
        assert fame.stats.io_stall_host_cycles == 10 * 3

    def test_stop_fn(self):
        fame = self._build()
        fame.run(max_cycles=10000,
                 stop_fn=lambda outs: outs["acc"] > 50)
        stopped = fame.stats.target_cycles
        assert stopped < 10000
        # _Stim promises no quiet stretch, so every cycle is checked and
        # the run stops at the first one with acc > 50
        twin = self._build()
        accs = [twin.run(max_cycles=1)["acc"] for _ in range(stopped)]
        assert [acc > 50 for acc in accs].index(True) == stopped - 1
        assert fame.python_cycles == stopped and fame.quiet_cycles == 0

    def test_sampling_produces_complete_snapshots(self):
        fame = self._build(replay_length=8, sample_size=5, seed=1)
        fame.run(max_cycles=400)
        snaps = fame.snapshots
        assert 1 <= len(snaps) <= 5
        for snap in snaps:
            snap.validate()
            assert len(snap.input_trace) == 8
            assert snap.cycle % 8 == 0

    def test_record_count_grows_sublinearly(self):
        fame_short = self._build(replay_length=4, sample_size=5, seed=2)
        fame_short.run(max_cycles=200)
        fame_long = self._build(replay_length=4, sample_size=5, seed=2)
        fame_long.run(max_cycles=2000)
        assert fame_long.stats.record_count < \
            10 * fame_short.stats.record_count

    def test_snapshot_replay_on_rtl_matches_original(self):
        """The core Strober property at RTL level: loading a snapshot and
        replaying its input trace reproduces the recorded output trace."""
        fame = self._build(replay_length=16, sample_size=4, seed=3)
        fame.run(max_cycles=600)
        # Replays run on the *plain* design (the gate-level netlist is of
        # the original RTL, not the FAME1-transformed simulator).
        replay_circuit = elaborate(PipelinedAccumulator())
        rtl = RTLSimulator(replay_circuit)
        for snap in fame.snapshots:
            rtl.load_snapshot(snap.state)
            for t in range(snap.recorded):
                inputs, expected = snap.cycle_io(t)
                rtl.poke_all(inputs)
                rtl.step()
                for name, value in expected.items():
                    assert rtl.peek(name) == value, snap.cycle

    def test_modeled_time(self):
        fame = self._build(host_freq_hz=1000.0)
        fame.run(max_cycles=500)
        assert fame.modeled_sim_seconds() >= 0.5

    @pytest.mark.parametrize("design, seed, sample_size, golden", [
        ("rocket_mini", 3, 16, (42, 198072)),
        ("boom-1w_mini", 5, 8, (32, 155680)),
    ])
    def test_snapshot_host_cycles_golden(self, design, seed, sample_size,
                                         golden):
        """Each capture charges the circuit's full scan readout (Trec)."""
        from repro.core import run_strober
        run = run_strober(design, "towers", sample_size=sample_size,
                          replay_length=32, seed=seed)
        fame = run.result.fame
        stats = fame.stats
        assert (stats.record_count, stats.snapshot_host_cycles) == golden
        assert stats.snapshot_host_cycles == \
            stats.record_count * fame.scan_spec.readout_cycles()


class TestSnapshotObject:
    LAYOUT = TraceLayout([("a", 8)], [("b", 8)])

    def test_incomplete_snapshot_fails_validation(self):
        snap = ReplayableSnapshot(cycle=0, state=None, replay_length=4,
                                  layout=self.LAYOUT)
        snap.record_cycle([1], [2])
        with pytest.raises(SnapshotError):
            snap.validate()

    def test_window_is_bounded(self):
        snap = ReplayableSnapshot(cycle=0, state=None, replay_length=2,
                                  layout=self.LAYOUT)
        for i in range(5):
            snap.record_cycle([i], [i])
        assert len(snap.input_trace) == 2
        assert snap.cycle_io(1)[0] == {"a": 1}


def test_constant_endpoint():
    ep = ConstantEndpoint({"x": 3})
    assert ep.tick({}) == {"x": 3}
