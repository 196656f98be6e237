"""The four end-to-end workloads: exact ``run_strober`` arguments and why.

Each workload is one design x program x knob setting.  ``--seed`` sets
both the reservoir seed and, for ``gcc_phases``, the data seed of the
generated program; the program receives only the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Fast-path knobs: 64-lane batched replay on the gcc-built C kernel.
FAST = {"batch_lanes": None, "gl_backend": "c"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    design: str
    program: str
    program_kwargs: dict = field(default_factory=dict)
    knobs: dict = field(default_factory=dict)
    # each call writes a fresh journal and is followed by a resume call
    journaled: bool = False
    # a second configuration whose result must be bit-identical
    same_as: str = None

    def kwargs(self, seed):
        """``run_strober`` keyword arguments for one seed."""
        program_kwargs = dict(self.program_kwargs)
        if self.program == "gcc_phases":
            program_kwargs["seed"] = seed
        kwargs = dict(design=self.design, workload=self.program, seed=seed,
                      **self.knobs)
        if program_kwargs:
            kwargs["workload_kwargs"] = program_kwargs
        return kwargs

    def reference_kwargs(self, seed):
        """Arguments of the configuration this one must equal, or None."""
        if self.same_as is None:
            return None
        if self.same_as == "fast-path":
            return dict(self.kwargs(seed), **FAST)
        return WORKLOADS[self.same_as].kwargs(seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sim-heavy",
        why="FAME target loop is ~85% of a warm call: boom-1w_mini, "
            "87k cycles, 30 snapshots on the C kernel",
        design="boom-1w_mini", program="gcc_phases",
        program_kwargs={"rounds": 6},
        knobs=dict(sample_size=30, workers=1, **FAST)),
    Workload(
        name="replay-heavy",
        why="255 snapshots in 4 x 64-lane batches: capture, seal, "
            "validate and stimulus packing dominate, the C kernel is ~4%",
        design="rocket_mini", program="gcc_phases",
        knobs=dict(sample_size=256, workers=1, **FAST)),
    Workload(
        name="default-config",
        why="run_strober(design, workload) with no knobs, what a user "
            "gets: scalar interpreted replay is ~90% of the call",
        design="rocket_mini", program="towers", same_as="fast-path"),
    Workload(
        name="journaled-2w",
        why="replay-heavy inputs through the 2-worker supervisor and a "
            "fresh run journal, each call followed by a resume",
        design="rocket_mini", program="gcc_phases",
        knobs=dict(sample_size=256, workers=2, **FAST),
        journaled=True, same_as="replay-heavy"),
)}
