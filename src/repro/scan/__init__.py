"""Scan-chain instrumentation and replayable snapshots."""

from .chains import (
    ScanChainSpec, RamChain, build_scan_chain_spec, insert_scan_chains,
    ScanChainSpecPass, InsertScanChainsPass,
)
from .snapshot import ReplayableSnapshot, SnapshotError, TraceLayout

__all__ = [
    "ScanChainSpec", "RamChain", "build_scan_chain_spec",
    "insert_scan_chains", "ReplayableSnapshot", "SnapshotError",
    "TraceLayout",
    "ScanChainSpecPass", "InsertScanChainsPass",
]
