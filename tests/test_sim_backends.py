"""Cross-backend tests: the C backend must match the Python backend."""

import random
import re

import numpy as np
import pytest

from repro.core.flow import get_circuits
from repro.hdl import Module, elaborate, mux, cat
from repro.hdl.ir import Node
from repro.sim import RTLSimulator, cbackend, make_simulator

try:
    from repro.sim.cbackend import compile_circuit_c
    _probe = None
    HAVE_C = True
except Exception:  # pragma: no cover
    HAVE_C = False

pytestmark = pytest.mark.skipif(not HAVE_C, reason="no C backend")


class AluLike(Module):
    """Exercises every IR op in one module."""

    def build(self):
        a = self.input("a", 32)
        b = self.input("b", 32)
        sh = self.input("sh", 5)
        self.output("add", 33, a + b)
        self.output("sub", 33, a - b)
        self.output("mul", 64, a * b)
        self.output("divu", 32, Node("divu", 32, (a, b)))
        self.output("modu", 32, Node("modu", 32, (a, b)))
        self.output("and_", 32, a & b)
        self.output("or_", 32, a | b)
        self.output("xor_", 32, a ^ b)
        self.output("not_", 32, ~a)
        self.output("shl", 32, (a << sh).trunc(32))
        self.output("shr", 32, a >> sh)
        self.output("sra", 32, a.sra(sh))
        self.output("eq", 1, a.eq(b))
        self.output("ltu", 1, a.ult(b))
        self.output("lts", 1, a.slt(b))
        self.output("les", 1, a.sle(b))
        self.output("mux_", 32, mux(a[0], b, a))
        self.output("cat_", 40, cat(a[7:0], b))
        self.output("orr", 1, a.orr())
        self.output("andr", 1, a.andr())
        self.output("xorr", 1, a.xorr())


class WideShifts(Module):
    """Shifts by 64 or more and a cat with a 64-bit low part.  In C such
    shifts are undefined (x86 shifts by the count mod 64); the Python
    backend gives 0 and, for the cat, the low part."""

    def build(self):
        a = self.input("a", 32)
        b = self.input("b", 64)
        self.output("shl64", 64, a << 64)
        self.output("shl70", 64, b << 70)
        self.output("shr64", 64, b >> 64)
        self.output("shr99", 32, a >> 99)
        self.output("cat_lo64", 64, cat(a, b))


class StatefulDesign(Module):
    """A register + memory design for sequential cross-checks."""

    def build(self):
        d = self.input("d", 16)
        acc = self.reg("acc", 16)
        acc <<= (acc + d).trunc(16)
        mem = self.mem("scratch", 32, 16)
        ptr = self.reg("ptr", 5)
        ptr <<= ptr + 1
        self.mem_write(mem, ptr, acc)
        self.output("acc", 16, acc)
        self.output("old", 16, mem.read(ptr))


def _random_stimulus(n, seed):
    rng = random.Random(seed)
    return [
        {"a": rng.getrandbits(32), "b": rng.getrandbits(32),
         "sh": rng.getrandbits(5)}
        for _ in range(n)
    ]


class TestCBackendMatchesPython:
    def test_combinational_ops_match(self):
        circuit = elaborate(AluLike())
        py = RTLSimulator(circuit, backend="python")
        cc = RTLSimulator(circuit, backend="c")
        for stim in _random_stimulus(200, seed=7):
            for sim in (py, cc):
                sim.poke_all(stim)
                sim.eval()
            assert py.peek_all() == cc.peek_all(), stim

    def test_divide_by_zero_matches(self):
        circuit = elaborate(AluLike())
        py = RTLSimulator(circuit, backend="python")
        cc = RTLSimulator(circuit, backend="c")
        for sim in (py, cc):
            sim.poke_all({"a": 1234, "b": 0, "sh": 0})
            sim.eval()
        assert py.peek_all() == cc.peek_all()

    def test_wide_shifts_and_cat_match(self):
        circuit = elaborate(WideShifts())
        py = RTLSimulator(circuit, backend="python")
        cc = RTLSimulator(circuit, backend="c")
        rng = random.Random(11)
        for _ in range(50):
            stim = {"a": rng.getrandbits(32), "b": rng.getrandbits(64)}
            for sim in (py, cc):
                sim.poke_all(stim)
                sim.eval()
            assert py.peek_all() == cc.peek_all(), stim
        assert cc.peek("shl64") == cc.peek("shr64") == 0
        assert cc.peek("cat_lo64") == stim["b"]

    def test_sequential_state_matches(self):
        circuit = elaborate(StatefulDesign())
        py = RTLSimulator(circuit, backend="python")
        cc = RTLSimulator(circuit, backend="c")
        rng = random.Random(3)
        for _ in range(100):
            d = rng.getrandbits(16)
            py.poke("d", d)
            cc.poke("d", d)
            py.step()
            cc.step()
            assert py.peek_all() == cc.peek_all()
        assert py.snapshot().reg_dict() == cc.snapshot().reg_dict()
        assert _mem_lists(py.snapshot()) == _mem_lists(cc.snapshot())

    def test_snapshot_roundtrip_across_backends(self):
        circuit = elaborate(StatefulDesign())
        py = RTLSimulator(circuit, backend="python")
        py.poke("d", 5)
        py.step(17)
        snap = py.snapshot()

        cc = RTLSimulator(circuit, backend="c")
        cc.load_snapshot(snap)
        py.poke("d", 9)
        cc.poke("d", 9)
        py.step(10)
        cc.step(10)
        assert py.snapshot().reg_dict() == cc.snapshot().reg_dict()


def test_make_simulator_auto_prefers_c():
    circuit = elaborate(StatefulDesign())
    sim = make_simulator(circuit, backend="auto")
    assert sim.backend in ("c", "python")


def _mem_lists(state):
    return {path: words.tolist() for path, words in state.mems.items()}


@pytest.mark.parametrize("design", ["rocket_mini", "boom-1w_mini"])
def test_chunk_boundaries_match_python(design, monkeypatch):
    """With three nodes per eval_k function nearly every value is read
    in a later chunk (through V[]) as well as in its own (as a local);
    both must agree with the Python backend on every cycle."""
    monkeypatch.setattr(cbackend, "_CHUNK", 3)
    circuit = get_circuits(design).simulator_circuit
    py = RTLSimulator(circuit, backend="python")
    cc = RTLSimulator(circuit, backend="c")
    slots = int(re.search(r"static uint64_t V\[(\d+)\]",
                          cc.generated_source()).group(1))
    assert slots < len(circuit.comb_order)
    rng = random.Random(5)
    for cycle in range(150):
        stim = {node.name: rng.getrandbits(node.width)
                for node in circuit.inputs}
        for sim in (py, cc):
            sim.poke_all(stim)
            sim.step()
        assert py.peek_all() == cc.peek_all(), cycle
        want, got = py.snapshot(), cc.snapshot()
        assert np.array_equal(want.reg_values, got.reg_values), cycle
        assert _mem_lists(want) == _mem_lists(got), cycle
        assert [(path, w.dtype) for path, w in want.mems.items()] == \
            [(path, w.dtype) for path, w in got.mems.items()]
