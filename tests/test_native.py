"""The one native build path (repro.native): the RTL simulator's stale
cache policy and the RTL fallback ladder ``c -> python``."""

from pathlib import Path

import pytest

from repro import native
from repro.hdl import Module, elaborate
from repro.obs import get_registry
from repro.parallel import cache_stats
from repro.parallel.cache import get_cache
from repro.sim import cbackend, make_simulator

try:
    native.find_compiler()
    HAVE_CC = True
except native.ToolchainUnavailable:
    HAVE_CC = False
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")


class _Counter(Module):
    def build(self):
        d = self.input("d", 8)
        acc = self.reg("acc", 8)
        acc <<= (acc + d).trunc(8)
        self.output("acc", 8, acc)


def _stale_count():
    return get_registry().value("cache.csim.stale") or 0


@needs_cc
def test_stale_csim_entry_is_replaced(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    circuit = elaborate(_Counter())
    cbackend.compile_circuit_c(circuit)
    (entry,) = Path(get_cache().root, "csim").rglob("*.pkl")
    get_cache().put("csim", entry.stem, {
        "so": b"\x7fELF not actually a shared object",
        "source": "", "layout": {}})
    native.reset_warnings()
    before = _stale_count()
    with pytest.warns(RuntimeWarning, match="failed to load"):
        rebuilt, _ = cbackend.compile_circuit_c(circuit)
    assert not rebuilt.from_cache
    assert _stale_count() == before + 1
    assert cache_stats()["csim.stale"] >= 1
    # the rebuild replaced the poisoned entry: the next build loads it
    again, layout = cbackend.compile_circuit_c(circuit)
    assert again.from_cache and layout["source"]
    assert _stale_count() == before + 1


@needs_cc
def test_codegen_errors_propagate_through_auto(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def broken(circuit):
        raise RuntimeError("codegen bug")

    monkeypatch.setattr(cbackend, "generate_c_source", broken)
    with pytest.raises(RuntimeError, match="codegen bug"):
        make_simulator(elaborate(_Counter()), backend="auto")


@pytest.mark.parametrize("requested", ["auto", "c"])
def test_no_compiler_falls_back_to_python(requested, monkeypatch,
                                          recwarn):
    monkeypatch.setenv("REPRO_CC", "/nonexistent/cc")
    native.reset_warnings()
    before = get_registry().value("sim.c_fallbacks") or 0
    sim = make_simulator(elaborate(_Counter()), backend=requested)
    assert sim.backend == "python"
    assert get_registry().value("sim.c_fallbacks") == before + 1
    warned = [w for w in recwarn if "unavailable" in str(w.message)]
    assert len(warned) == (1 if requested == "c" else 0)
    sim.poke("d", 3)
    sim.step(2)
    assert sim.peek_reg("acc") == 6
