"""Gate-level CAD substrate: synthesis, placement, simulation, power.

The stand-in for the commercial tool chain of Figure 5:
Design Compiler -> :mod:`synthesis`, IC Compiler -> :mod:`placement`,
VCS -> :mod:`gl_sim`, Formality -> :mod:`formal`,
PrimeTime PX -> :mod:`power`.
"""

from .library import CELLS, TECH_45NM, TechParams, SramSpec, CellSpec
from .netlist import GateNetlist, Gate, Dff, SramMacro, CONST0, CONST1
from .synthesis import (
    synthesize, SynthesisError, SynthesisHints, DffHint, RetimedHint,
    mangle, SynthesisPass,
)
from .placement import place, Placement, ClusterBox, PlacementPass
from .gl_sim import (
    GateLevelSimulator, BatchedGateLevelSimulator, GateSimError,
    StimulusMismatch, PackedStimulus, LevelizedSchedule, build_schedule,
    pack_lane_words, pack_lane_bits, lane_ops, MAX_LANES, SCHEDULE_VERSION,
    STEP_PHASES,
)
from .glcodegen import (
    build_kernel, resolve_backend, kernel_cache_key, GLCodegenError,
)
from .formal import (
    match_netlist, verify_equivalence, NameMap, MatchPoint, MatchError,
    EquivalenceResult, FormalMatchPass, GatherPlan, DffLoad,
)
from .power import (
    analyze_power, analyze_power_lanes, PowerReport, default_grouping,
)

__all__ = [
    "CELLS", "TECH_45NM", "TechParams", "SramSpec", "CellSpec",
    "GateNetlist", "Gate", "Dff", "SramMacro", "CONST0", "CONST1",
    "synthesize", "SynthesisError", "SynthesisHints", "DffHint",
    "RetimedHint", "mangle", "SynthesisPass",
    "place", "Placement", "ClusterBox", "PlacementPass",
    "GateLevelSimulator", "BatchedGateLevelSimulator", "GateSimError",
    "StimulusMismatch", "PackedStimulus",
    "LevelizedSchedule", "build_schedule", "pack_lane_words",
    "pack_lane_bits", "lane_ops",
    "MAX_LANES", "SCHEDULE_VERSION", "STEP_PHASES",
    "build_kernel", "resolve_backend",
    "kernel_cache_key", "GLCodegenError",
    "match_netlist", "verify_equivalence", "NameMap", "MatchPoint",
    "MatchError", "EquivalenceResult", "FormalMatchPass", "GatherPlan",
    "DffLoad",
    "analyze_power", "analyze_power_lanes", "PowerReport",
    "default_grouping",
]
