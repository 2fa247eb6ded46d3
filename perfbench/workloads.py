"""Workload definitions: the pipelines each workload runs, made from a seed.

A workload is an ordered list of pipelines, one "pass". Noise parameters
(where the workload varies them) and simulator seeds come from the workload
seed; the program only ever sees the resulting command lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALL_STEPS = ("simulate", "reconstruct", "analyze", "report")
TOMOGRAPHY_STEPS = ("simulate", "reconstruct")

# The typical session of each noise family: (family, p, w).
FAMILIES = (
    ("local_flip", 0.05, 0.0),
    ("classical_corr", 0.05, 0.3),
    ("entangled", 0.4, 0.0),
)

# sweep-n2 draws one point per cell, so every seed covers the same ranges.
SWEEP_CELLS = {
    "local_flip": [((0.01, 0.04), (0.0, 0.0)), ((0.04, 0.07), (0.0, 0.0)),
                   ((0.07, 0.10), (0.0, 0.0)), ((0.10, 0.13), (0.0, 0.0))],
    "classical_corr": [((0.01, 0.03), (0.1, 0.2)), ((0.03, 0.05), (0.2, 0.3)),
                       ((0.05, 0.07), (0.3, 0.4)), ((0.07, 0.09), (0.4, 0.5))],
    "entangled": [((0.2, 0.3), (0.0, 0.0)), ((0.3, 0.4), (0.0, 0.0)),
                  ((0.4, 0.5), (0.0, 0.0)), ((0.5, 0.6), (0.0, 0.0))],
}

WORKLOADS = ("full-n3", "tomography-n4", "sweep-n2")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class PipelineSpec:
    """One simulate -> ... -> report run through the command line."""

    n: int
    noise: str
    p: float
    w: float
    shots: int
    seed: int
    steps: tuple[str, ...]

    @property
    def name(self) -> str:
        w = f"-w{self.w:g}" if self.noise == "classical_corr" else ""
        return f"n{self.n}-{self.noise}-p{self.p:g}{w}-s{self.seed}"


def _sim_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def build(workload: str, seed: int, size: str = "full") -> list[PipelineSpec]:
    """The pipelines of one pass of the workload, in run order.

    size "tiny" shrinks every workload to two qubits and fewer shots, for
    the smoke test; it keeps each workload's steps and families.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}, expected one of {SIZES}")
    tiny = size == "tiny"
    shots = 4096 if tiny else 8192
    rng = random.Random(f"{workload}:{seed}")

    if workload == "full-n3":
        n = 2 if tiny else 3
        return [PipelineSpec(n, fam, p, w, shots, _sim_seed(rng), ALL_STEPS) for fam, p, w in FAMILIES]

    if workload == "tomography-n4":
        n = 2 if tiny else 4
        return [
            PipelineSpec(n, fam, p, w, shots, _sim_seed(rng), TOMOGRAPHY_STEPS)
            for fam, p, w in FAMILIES
            if fam != "entangled"
        ]

    specs = []
    for fam, cells in SWEEP_CELLS.items():
        for (p_lo, p_hi), (w_lo, w_hi) in cells[:1] if tiny else cells:
            p = round(rng.uniform(p_lo, p_hi), 3)
            w = round(rng.uniform(w_lo, w_hi), 3)
            specs.append(PipelineSpec(2, fam, p, w, shots, _sim_seed(rng), ALL_STEPS))
    return specs


def warmup_spec(workload: str) -> PipelineSpec:
    """A small pipeline over the workload's steps, run once before timing.

    It pays the first-call costs (lazy imports, BLAS thread start-up) that
    every fresh process pays once, so they land in set-up, not in wall_s.
    """
    steps = TOMOGRAPHY_STEPS if workload == "tomography-n4" else ALL_STEPS
    return PipelineSpec(2, "entangled", 0.4, 0.0, 1024, 1, steps)
