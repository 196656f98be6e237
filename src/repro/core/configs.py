"""Design descriptions: everything ``run_strober`` needs of a design.

A description has a ``name``, ``freq_hz``, power ``grouping``, a
fresh-circuit ``build_circuit()``, its ``asic_pipeline()`` (named after
its artifact-cache kind), ``workload(workload, workload_kwargs)`` ->
``(name, source, source_crc)``, and ``simulate(circuit, source, ...)``,
whose result has ``cycles``, ``snapshots``, ``instret``, ``exit_code``,
``passed``, ``dram_counters`` and ``fame``.  :class:`DesignConfig` is
the SoC's (the :data:`CONFIGS` are its instances); :class:`Design`
describes any other RTL.

The SoC configurations follow the paper's Table II:

    |                    | Rocket  | BOOM-1w | BOOM-2w |
    | fetch width        | 1       | 1       | 2       |
    | issue width        | 1       | 1       | 2       |
    | issue slots        | -       | 12      | 16      |
    | ROB size           | -       | 24      | 32      |
    | Ld/St entries      | -       | 8/8     | 8/8     |
    | physical registers | 32/32   | 100     | 110     |
    | L1 I$ / D$         | 16 KiB  | 16 KiB  | 16 KiB  |
    | DRAM latency       | 100     | 100     | 100     |

This reproduction keeps every parameter except:

* physical registers scaled to 48/64 — the rename path is identical,
  and 32 architectural + a full ROB of in-flight destinations still fit
  (the paper's 100/110 sizing targets RV64's FP registers, absent here);
* a unified 8-entry load/store queue instead of split 8/8 queues;
* ``*_mini`` configurations with 4 KiB caches and shallower structures
  for fast unit tests and the power-validation study.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from ..fame import Fame1Simulator
from ..gatelevel import default_grouping
from ..isa.programs import ALL_PROGRAMS
from ..targets import build_soc_circuit, RocketCore
from ..targets.boom import BoomCore
from ..targets.soc import run_workload, _cached_sim
from .attribution import refine_attribution, soc_grouping
from .replay import asic_pipeline


@dataclass(frozen=True)
class DesignConfig:
    """A Table II SoC: a core, L1 caches and uncore, run on programs
    that stop through the HTIF ``tohost`` write."""

    name: str
    core: str                     # "rocket" | "boom"
    fetch_width: int = 1
    issue_width: int = 1
    issue_slots: int = 0          # 0 for in-order
    rob_entries: int = 0
    n_phys: int = 32
    lsq_entries: int = 8
    icache_kib: int = 16
    dcache_kib: int = 16
    line_words: int = 8
    dram_latency: int = 100
    freq_hz: float = 1.0e9

    # functional-unit report groups (Figure 9a)
    grouping = staticmethod(soc_grouping)

    def build_circuit(self):
        """Elaborate a fresh SoC circuit for this configuration."""
        if self.core == "rocket":
            factory = RocketCore
        else:
            factory = lambda: BoomCore(            # noqa: E731
                fetch_width=self.fetch_width,
                issue_slots=self.issue_slots,
                rob_entries=self.rob_entries,
                n_phys=self.n_phys,
                lsq_entries=self.lsq_entries,
            )
        return build_soc_circuit(
            factory,
            icache_kib=self.icache_kib,
            dcache_kib=self.dcache_kib,
            line_words=self.line_words,
            fetch_width=self.fetch_width,
            name=self.name,
        )

    def asic_pipeline(self):
        """Synthesis with functional-unit attribution refinement,
        unit-level floorplanning and formal matching, cached on disk
        under its own artifact kind, ``asicflow-soc``."""
        return asic_pipeline(refine_fn=refine_attribution,
                             cluster_fn=soc_grouping, name="asicflow-soc")

    def workload(self, workload, workload_kwargs=None):
        """``(name, source, source_crc)``: a benchmark name from
        :data:`ALL_PROGRAMS` (built with ``workload_kwargs``), or a
        literal assembly source string, named ``(custom)``."""
        if workload in ALL_PROGRAMS:
            name = workload
            source = ALL_PROGRAMS[workload](**(workload_kwargs or {}))
        else:
            name, source = "(custom)", workload
        crc = (zlib.crc32(source.encode()) if isinstance(source, str)
               else None)
        return name, source, crc

    def simulate(self, circuit, source, **knobs):
        """:func:`~repro.targets.soc.run_workload` on this SoC's memory:
        ``source`` runs until it halts through the HTIF stop (or
        ``max_cycles``)."""
        return run_workload(circuit, source, mem_latency=self.dram_latency,
                            line_words=self.line_words, **knobs)

    def table2_row(self):
        """Render the Table II parameters for this design."""
        dash = "-"
        return {
            "Fetch-width": self.fetch_width,
            "Issue-width": self.issue_width,
            "Issue slots": self.issue_slots or dash,
            "ROB size": self.rob_entries or dash,
            "Ld/St entries": (f"{self.lsq_entries}"
                              if self.core == "boom" else dash),
            "Physical registers": (f"{self.n_phys}" if self.core == "boom"
                                   else "32(int)"),
            "L1 I$ and D$": f"{self.icache_kib}KiB/{self.dcache_kib}KiB",
            "DRAM latency": f"{self.dram_latency} cycles",
        }


CONFIGS = {
    "rocket": DesignConfig(name="rocket", core="rocket"),
    "boom-1w": DesignConfig(name="boom-1w", core="boom", fetch_width=1,
                            issue_width=1, issue_slots=12, rob_entries=24,
                            n_phys=48),
    "boom-2w": DesignConfig(name="boom-2w", core="boom", fetch_width=2,
                            issue_width=2, issue_slots=16, rob_entries=32,
                            n_phys=64),
    # fast variants for tests and validation studies
    "rocket_mini": DesignConfig(name="rocket_mini", core="rocket",
                                icache_kib=4, dcache_kib=4,
                                dram_latency=20),
    "boom-1w_mini": DesignConfig(name="boom-1w_mini", core="boom",
                                 fetch_width=1, issue_width=1,
                                 issue_slots=12, rob_entries=24,
                                 n_phys=48, icache_kib=4, dcache_kib=4,
                                 dram_latency=20),
    "boom-2w_mini": DesignConfig(name="boom-2w_mini", core="boom",
                                 fetch_width=2, issue_width=2,
                                 issue_slots=16, rob_entries=32,
                                 n_phys=64, icache_kib=4, dcache_kib=4,
                                 dram_latency=20),
}


def get_config(name):
    return CONFIGS[name]


class Design:
    """Any RTL as a ``run_strober`` description.

    ``build_fn`` elaborates a fresh plain circuit per call.
    ``workloads`` maps each workload name to a factory that returns the
    list of host :class:`~repro.fame.Endpoint` objects driving the
    design (called with ``workload_kwargs``).  A workload runs the FAME1
    simulator for exactly ``max_cycles`` target cycles.  Replay uses the
    generic ASIC pipeline and groups power by top-level hierarchy.

    The design has no core and no DRAM model, so a run retires no
    instructions (CPI and EPI read ``inf``), has no DRAM power and
    always passes.  Descriptions are compared by identity: each one
    keys its own compiled circuits and replay engines.
    """

    freq_hz = 1.0e9
    grouping = staticmethod(default_grouping)

    def __init__(self, name, build_fn, workloads):
        self.name = name
        self.build_circuit = build_fn
        self.workloads = dict(workloads)

    def asic_pipeline(self):
        return asic_pipeline()

    def workload(self, workload, workload_kwargs=None):
        """``(name, endpoints, None)`` for a workload name."""
        if workload not in self.workloads:
            raise ValueError(
                f"design {self.name!r} has no workload {workload!r}; "
                f"known: {sorted(self.workloads)}")
        endpoints = self.workloads[workload](**(workload_kwargs or {}))
        return workload, endpoints, None

    def simulate(self, circuit, endpoints, *, max_cycles, record_full_io,
                 **knobs):
        fame = Fame1Simulator(circuit, endpoints, **knobs,
                              sim=_cached_sim(circuit, knobs["backend"]))
        fame.record_full_io = record_full_io
        fame.run(max_cycles=max_cycles)
        return DesignResult(fame)


class DesignResult:
    """The outcome of one :class:`Design` workload."""

    instret = exit_code = 0
    passed = True
    dram_counters = None

    def __init__(self, fame):
        self.fame = fame
        self.stats = fame.stats
        self.cycles = fame.stats.target_cycles
        self.snapshots = fame.snapshots
