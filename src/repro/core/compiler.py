"""StroberCompiler: the Figure 4 tool flow as one object.

Takes any elaborated design and produces (a) the FAME1 FPGA-simulator
circuit with scan-chain instrumentation metadata and (b) the untouched
"tapeout" circuit for the ASIC flow, keeping the two in sync (the paper
builds both from the same Chisel source).

:meth:`StroberCompiler.compile` is the one place a simulator circuit is
FAME1-transformed and given its ``circuit.scan_spec``.

The transform sequence runs through a
:class:`~repro.passes.manager.PassManager`: FAME1 decoupling followed
by scan-chain instrumentation (hardware insertion or metadata-only),
with inter-pass structural verification in debug mode and a per-pass
:class:`~repro.passes.manager.PipelineReport` on the output.  The
pipeline's deterministic fingerprint — which covers ``scan_width`` and
``hardware_scan_chains`` — composes into artifact-cache keys via
:meth:`StroberCompiler.artifact_cache_key`, so differently-instrumented
builds of the same design can never collide in the on-disk cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fame.transform import Fame1TransformPass, is_fame1
from ..scan.chains import ScanChainSpecPass, InsertScanChainsPass
from ..passes import PassManager, compose_cache_key


class StroberCompileError(TypeError):
    """``build_fn`` violated the fresh-circuit-per-call contract."""


@dataclass
class StroberOutput:
    """Everything Figure 4 emits for one design."""

    simulator_circuit: object    # FAME1-transformed, carries scan_spec
    target_circuit: object       # plain RTL, for the gate-level side
    scan_spec: object            # chain layout + Trec cost model
    channels: dict               # FAME1 I/O channel metadata
    report: object = None        # PipelineReport of the simulator build
    fingerprint: str = ""        # pipeline fingerprint (cache-key part)


class StroberCompiler:
    """Drive the custom-transform pipeline of Figure 4.

    ``build_fn`` must construct a *fresh* elaborated circuit on each
    call (module objects are single-use, like Chisel module instances);
    returning the same object — or two circuits sharing IR nodes —
    raises :class:`StroberCompileError`, because the FAME1 transform
    would then also rewrite the "untouched" tapeout circuit.

    ``debug=True`` runs the structural IR verifier between passes.
    """

    def __init__(self, build_fn, scan_width=32,
                 hardware_scan_chains=False, debug=False):
        self.build_fn = build_fn
        self.scan_width = scan_width
        self.hardware_scan_chains = hardware_scan_chains
        self.debug = debug

    def pipeline(self):
        """The simulator-side transform pipeline (fresh manager)."""
        if self.hardware_scan_chains:
            scan_pass = InsertScanChainsPass(scan_width=self.scan_width)
        else:
            scan_pass = ScanChainSpecPass(scan_width=self.scan_width)
        return PassManager([Fame1TransformPass(), scan_pass],
                           name="strober-compile")

    def pipeline_fingerprint(self):
        """Deterministic fingerprint of the instrumentation pipeline."""
        return self.pipeline().fingerprint()

    def artifact_cache_key(self, circuit_fingerprint):
        """Cache key for artifacts of this instrumented build.

        Combines the design's structural fingerprint with the pipeline
        fingerprint (which already covers ``scan_width`` and
        ``hardware_scan_chains``), so two compilers with different
        instrumentation parameters key different cache slots for the
        same source design.
        """
        return compose_cache_key(circuit_fingerprint,
                                 self.pipeline_fingerprint(),
                                 scan_width=self.scan_width,
                                 hardware_scan_chains=bool(
                                     self.hardware_scan_chains))

    def _build_pair(self):
        """Two independent elaborations, with aliasing detection."""
        simulator = self.build_fn()
        target = self.build_fn()
        if simulator is target:
            raise StroberCompileError(
                "build_fn returned the same circuit object twice; "
                "elaborated circuits are single-use (the FAME1 transform "
                "mutates the graph in place, so the 'untouched' tapeout "
                "circuit would be silently instrumented too). Make "
                "build_fn elaborate a fresh Module per call, e.g. "
                "lambda: elaborate(MyTop()).")
        shared = _shared_nodes(simulator, target)
        if shared:
            raise StroberCompileError(
                f"build_fn returned circuits sharing {shared} IR "
                "node(s) (same registers/inputs in both); transforms on "
                "the simulator circuit would corrupt the tapeout "
                "circuit. build_fn must construct fresh Module objects "
                "on every call instead of reusing elaborated pieces.")
        return simulator, target

    def compile(self):
        simulator, target = self._build_pair()
        if is_fame1(simulator):
            raise ValueError("build_fn must return a plain circuit")
        manager = self.pipeline()
        ctx = manager.run(simulator, debug=self.debug)
        return StroberOutput(
            simulator_circuit=simulator,
            target_circuit=target,
            scan_spec=ctx["scan_spec"],
            channels=ctx["channels"],
            report=ctx.report,
            fingerprint=ctx.report.fingerprint,
        )


def _shared_nodes(a, b):
    """Count IR state/port objects two circuits have in common."""
    ids_a = {id(n) for n in a.inputs}
    ids_a.update(id(r) for r in a.regs)
    ids_a.update(id(m) for m in a.mems)
    shared = sum(1 for n in b.inputs if id(n) in ids_a)
    shared += sum(1 for r in b.regs if id(r) in ids_a)
    shared += sum(1 for m in b.mems if id(m) in ids_a)
    return shared
