"""SoC wrapper: core + L1 caches + uncore + MMIO, plus host endpoints.

The SoC's top-level I/O is the FAME1 boundary: a burst memory channel
(serviced by :class:`repro.dram.MemoryEndpoint`), an MMIO channel
(serviced by :class:`HtifEndpoint`), and performance-counter outputs.
This mirrors the paper's setup where target main memory and I/O devices
live on the host platform (Section V-B).
"""

from __future__ import annotations

from ..hdl import Module, mux, cat, const, elaborate
from ..fame.simulator import Endpoint, Fame1Simulator, compiled_scan_spec
from ..dram import make_memory_endpoint
from ..isa import (
    assemble, MMIO_BASE, TOHOST_ADDR, PUTCHAR_ADDR, PERF_ADDR,
    FROMHOST_ADDR,
)
from .cache import Cache

# MMIO addresses are distinguished by bit 30 (0x40000000)
MMIO_BIT = 30


class SoC(Module):
    """Core + caches + uncore; see module docstring for the I/O map."""

    def __init__(self, core_factory, icache_kib=16, dcache_kib=16,
                 line_words=8, fetch_width=1, name=None):
        self.core_factory = core_factory
        self.icache_kib = icache_kib
        self.dcache_kib = dcache_kib
        self.line_words = line_words
        self.fetch_width = fetch_width
        super().__init__(name)

    def build(self):
        mem_req_ready = self.input("mem_req_ready", 1)
        mem_resp_valid = self.input("mem_resp_valid", 1)
        mem_resp_data = self.input("mem_resp_data", 32)
        mmio_resp_valid = self.input("mmio_resp_valid", 1)
        mmio_resp_data = self.input("mmio_resp_data", 32)

        core = self.instance(self.core_factory(), "core")
        icache = self.instance(
            Cache(self.icache_kib * 1024, self.line_words,
                  read_words=self.fetch_width), "icache")
        dcache = self.instance(
            Cache(self.dcache_kib * 1024, self.line_words), "dcache")

        # ---- core <-> I$ ----------------------------------------------------
        icache["req_valid"] <<= core["imem_req_valid"]
        icache["req_rw"] <<= 0
        icache["req_addr"] <<= core["imem_req_addr"]
        icache["req_wdata"] <<= 0
        icache["req_funct3"] <<= 0b010
        core["imem_req_ready"] <<= icache["req_ready"]
        core["imem_resp_valid"] <<= icache["resp_valid"]
        core["imem_resp_data"] <<= icache["resp_data"]
        if self.fetch_width == 2:
            core["imem_resp_nwords"] <<= icache["resp_nwords"]

        # ---- core <-> D$ / MMIO routing -----------------------------------
        dmem_req_valid = core["dmem_req_valid"]
        dmem_addr = core["dmem_req_addr"]
        is_mmio = dmem_addr[MMIO_BIT]

        dcache["req_valid"] <<= dmem_req_valid & ~is_mmio
        dcache["req_rw"] <<= core["dmem_req_rw"]
        dcache["req_addr"] <<= dmem_addr
        dcache["req_wdata"] <<= core["dmem_req_wdata"]
        dcache["req_funct3"] <<= core["dmem_req_funct3"]

        self.output("mmio_req_valid", 1, dmem_req_valid & is_mmio)
        self.output("mmio_req_rw", 1, core["dmem_req_rw"])
        self.output("mmio_req_addr", 32, dmem_addr)
        self.output("mmio_req_wdata", 32, core["dmem_req_wdata"])

        core["dmem_req_ready"] <<= mux(is_mmio, const(1, 1),
                                       dcache["req_ready"])
        core["dmem_resp_valid"] <<= dcache["resp_valid"] | mmio_resp_valid
        core["dmem_resp_data"] <<= mux(mmio_resp_valid, mmio_resp_data,
                                       dcache["resp_data"])

        # ---- uncore: arbitrate I$/D$ line channels onto one port ------------
        # owner: 0 = none, 1 = icache, 2 = dcache (D$ has priority)
        owner = self.reg("uncore_owner", 2)
        rd_beats = self.reg("uncore_rd_beats", 6)

        i_req = icache["mem_req_valid"]
        d_req = dcache["mem_req_valid"]
        grant_d = owner.eq(0) & d_req
        grant_i = owner.eq(0) & ~d_req & i_req

        sel_d = grant_d | owner.eq(2)
        active_req_valid = mux(owner.eq(0), i_req | d_req, const(0, 1))
        req_rw = mux(sel_d, dcache["mem_req_rw"], icache["mem_req_rw"])
        req_addr = mux(sel_d, dcache["mem_req_addr"],
                       icache["mem_req_addr"])
        req_len = mux(sel_d, dcache["mem_req_len"], icache["mem_req_len"])

        accept = active_req_valid & mem_req_ready
        with self.when(accept):
            owner <<= mux(sel_d, const(2, 2), const(1, 2))
            rd_beats <<= mux(req_rw, const(1, 6),
                             req_len.pad(6))

        with self.when(owner.ne(0) & mem_resp_valid):
            rd_beats <<= rd_beats - 1
            with self.when(rd_beats.eq(1)):
                owner <<= 0

        self.output("mem_req_valid", 1, active_req_valid)
        self.output("mem_req_rw", 1, req_rw)
        self.output("mem_req_addr", 30, req_addr)
        self.output("mem_req_len", 5, req_len)
        self.output("mem_wdata_valid", 1,
                    mux(owner.eq(2), dcache["mem_wdata_valid"],
                        icache["mem_wdata_valid"]))
        self.output("mem_wdata", 32,
                    mux(owner.eq(2), dcache["mem_wdata"],
                        icache["mem_wdata"]))

        owner_is_i = owner.eq(1)
        icache["mem_req_ready"] <<= grant_i & mem_req_ready
        dcache["mem_req_ready"] <<= grant_d & mem_req_ready
        icache["mem_resp_valid"] <<= mem_resp_valid & owner_is_i
        icache["mem_resp_data"] <<= mem_resp_data
        dcache["mem_resp_valid"] <<= mem_resp_valid & owner.eq(2)
        dcache["mem_resp_data"] <<= mem_resp_data

        # ---- status ---------------------------------------------------------
        self.output("perf_instret", 32, core["perf_instret"])
        self.output("perf_cycles", 32, core["perf_cycles"])
        # forward any core debug ports
        for out_name, node in core.module._outputs.items():
            if out_name.startswith("dbg_"):
                self.output(out_name, node.width, core[out_name])


class HtifEndpoint(Endpoint):
    """Host side of the MMIO channel: tohost/putchar/perf ports."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.tohost = 0
        self.halted = False
        self.stdout = []
        self.perf_log = []          # (value, None) cycle filled by caller
        self._resp = None

    @property
    def exit_code(self):
        if self.tohost == 0:
            return None
        return self.tohost >> 1

    def stdout_text(self):
        return "".join(self.stdout)

    def tick(self, outputs):
        inputs = {"mmio_resp_valid": 0, "mmio_resp_data": 0}
        if self._resp is not None:
            inputs["mmio_resp_valid"] = 1
            inputs["mmio_resp_data"] = self._resp
            self._resp = None
        if outputs.get("mmio_req_valid"):
            addr = outputs["mmio_req_addr"]
            if outputs["mmio_req_rw"]:
                value = outputs["mmio_req_wdata"]
                if addr == TOHOST_ADDR:
                    self.tohost = value
                    if value != 0:
                        self.halted = True
                elif addr == PUTCHAR_ADDR:
                    self.stdout.append(chr(value & 0xFF))
                elif addr == PERF_ADDR:
                    self.perf_log.append(value)
                self._resp = 0      # write ack
            else:
                if addr == TOHOST_ADDR:
                    self._resp = self.tohost
                elif addr == FROMHOST_ADDR:
                    self._resp = 0
                else:
                    self._resp = 0
        return inputs

    def quiet(self, outputs):
        """Quiet until an MMIO request, unless a response is due."""
        if self._resp is not None or outputs.get("mmio_req_valid"):
            return None
        return ({"mmio_resp_valid": 0, "mmio_resp_data": 0},
                ("mmio_req_valid",), None)


def build_soc_circuit(core_factory, icache_kib=16, dcache_kib=16,
                      line_words=8, fetch_width=1, name=None):
    """Elaborate a SoC around the given core constructor."""
    soc = SoC(core_factory, icache_kib=icache_kib, dcache_kib=dcache_kib,
              line_words=line_words, fetch_width=fetch_width)
    return elaborate(soc, name=name)


class WorkloadResult:
    """Outcome of running one program on a FAME1-simulated SoC."""

    def __init__(self, fame, htif, memory):
        self.fame = fame
        self.htif = htif
        self.memory = memory
        self.stats = fame.stats

    @property
    def exit_code(self):
        return self.htif.exit_code

    @property
    def passed(self):
        return self.htif.exit_code == 0

    @property
    def cycles(self):
        return self.stats.target_cycles

    @property
    def instret(self):
        return self.fame.sim.peek("perf_instret")

    @property
    def cpi(self):
        retired = self.instret
        return self.cycles / retired if retired else float("inf")

    @property
    def snapshots(self):
        return self.fame.snapshots


_SIM_CACHE = {}


def _cached_sim(circuit, backend):
    """Compiled simulators are expensive (especially the C backend);
    reuse them across workload runs on the same circuit."""
    key = (id(circuit), backend)
    sim = _SIM_CACHE.get(key)
    if sim is None:
        from ..sim import make_simulator
        sim = make_simulator(circuit, backend=backend)
        _SIM_CACHE[key] = sim
    return sim


def run_workload(circuit, source, max_cycles=2_000_000, mem_latency=20,
                 backend="auto", sample_size=None, replay_length=128,
                 seed=0, line_words=8, progress_fn=None,
                 progress_interval=None, record_full_io=False):
    """Assemble ``source``, run it on the SoC circuit, return results.

    ``circuit`` is a compiled ``simulator_circuit`` (``get_circuits``);
    the memory endpoint is preloaded with the program image.
    """
    compiled_scan_spec(circuit)     # before a simulator is built for it
    from ..obs import get_registry, get_tracer
    tracer = get_tracer()
    with tracer.span("fame.assemble", cat="fame"):
        program = assemble(source) if isinstance(source, str) else source
    memory = make_memory_endpoint(latency=mem_latency,
                                  line_words=line_words)
    memory.load_words(0, program.as_word_list())
    htif = HtifEndpoint()
    fame = Fame1Simulator(circuit, [memory, htif], backend=backend,
                          sample_size=sample_size,
                          replay_length=replay_length, seed=seed,
                          sim=_cached_sim(circuit, backend))
    fame.record_full_io = record_full_io
    with tracer.span("fame.simulate", cat="fame",
                     backend=str(backend),
                     max_cycles=max_cycles) as span:
        fame.run(max_cycles=max_cycles,
                 stop_fn=lambda outs: htif.halted,
                 progress_fn=progress_fn,
                 progress_interval=progress_interval)
        loop = {"python_cycles": fame.python_cycles,
                "quiet_segments": fame.quiet_segments,
                "quiet_cycles": fame.quiet_cycles}
        span.set(cycles=fame.stats.target_cycles,
                 snapshots=len(fame.snapshots), **loop)
    registry = get_registry()
    for name, count in loop.items():
        registry.counter(f"fame.{name}").inc(count)
    return WorkloadResult(fame, htif, memory)
