"""Strober core: the paper's primary contribution, end to end."""

from .compiler import StroberCompiler, StroberOutput, StroberCompileError
from .configs import DesignConfig, CONFIGS, get_config, Design
from .replay import (
    ReplayEngine, ReplayResult, ReplayError, AsicFlow, asic_pipeline,
    build_asic_flow, plan_replay_batches,
)
from .controller import (
    AdaptiveSamplingController, confidence_order,
    STOP_TARGET_MET, STOP_EXHAUSTED, STOP_MAX_SAMPLE,
)
from .energy import EnergyEstimate, estimate_energy
from .attribution import soc_grouping, refine_attribution
from .perf_model import (
    StroberPerfParams, PAPER_PARAMS, PerfBreakdown, strober_time,
    uarch_sim_time, gate_sim_time, speedup_over_uarch,
    speedup_over_gate_sim, measured_params,
)
from .flow import (
    run_strober, StroberRun, get_circuits, get_replay_engine, clear_caches,
)

__all__ = [
    "StroberCompiler", "StroberOutput", "StroberCompileError",
    "DesignConfig", "CONFIGS", "get_config", "Design",
    "ReplayEngine", "ReplayResult", "ReplayError", "AsicFlow",
    "asic_pipeline", "build_asic_flow", "plan_replay_batches",
    "AdaptiveSamplingController", "confidence_order",
    "STOP_TARGET_MET", "STOP_EXHAUSTED", "STOP_MAX_SAMPLE",
    "EnergyEstimate", "estimate_energy",
    "soc_grouping", "refine_attribution",
    "StroberPerfParams", "PAPER_PARAMS", "PerfBreakdown", "strober_time",
    "uarch_sim_time", "gate_sim_time", "speedup_over_uarch",
    "speedup_over_gate_sim", "measured_params",
    "run_strober", "StroberRun", "get_circuits", "get_replay_engine",
    "clear_caches",
]
