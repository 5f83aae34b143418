"""The benchmark's workloads: which generated scenario files one batch holds.

Every file is written by `generate_scenario(kind, seed, dim)`, exactly as
`ssf-lab generate` writes it; the only edit is the `determinant` block
(defaults: radius 1 + 1e-4, grid 4096) on the circle workload's unitary
pairs. File seeds derive from the run seed, so one run seed fixes the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

# File seeds are run_seed * SEED_STRIDE + j; the last slot seeds the warm-up files.
SEED_STRIDE = 100
WARMUP_SLOT = SEED_STRIDE - 1
# Warm-up files are this small: they pay first-call costs, not the batch's work.
WARMUP_DIM = 4


@dataclass(frozen=True)
class FileSpec:
    """One scenario file of a batch."""

    kind: str
    seed: int
    dim: int
    determinant: bool = False

    @property
    def variant(self) -> str:
        return f"{self.kind}+determinant" if self.determinant else self.kind

    @property
    def reference_key(self) -> str:
        """Key of the file's entry in reference.json (the seed does not enter)."""
        return f"{self.variant}@{self.dim}"


@dataclass(frozen=True)
class Group:
    """Files of one kind: `seeds` files at each of `dims`."""

    kind: str
    dims: tuple[int, ...]
    seeds: int
    determinant: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, ...]
    # Wall time of one pass over the batch on the reference machine (2 cores,
    # OpenBLAS on one thread). It turns --seconds into a fixed pass count, so
    # a run does the same work on every commit and its percentiles compare.
    pass_s: float

    def batch(self, run_seed: int) -> list[FileSpec]:
        out = []
        for g in self.groups:
            for dim in g.dims:
                out += [
                    FileSpec(g.kind, run_seed * SEED_STRIDE + j, dim, g.determinant)
                    for j in range(g.seeds)
                ]
        return out

    def warmups(self, run_seed: int) -> list[FileSpec]:
        """One small file per kind, with the batch's determinant blocks."""
        seed = run_seed * SEED_STRIDE + WARMUP_SLOT
        return [FileSpec(g.kind, seed, WARMUP_DIM, g.determinant) for g in self.groups]

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))


KINDS = (
    "unitary_pair",
    "contraction_pair",
    "dissipative_pair",
    "fractional",
    "schrodinger",
    "kernel_trace",
)

WORKLOADS = {
    w.name: w
    for w in (
        # Dense eigvals on the 24n-square dilation dominates; no determinant
        # route, no fractional work.
        Workload(
            "line_dilation",
            (
                Group("dissipative_pair", (8, 16, 24), 1),
                Group("schrodinger", (8, 16, 24), 1),
            ),
            pass_s=6.0,
        ),
        # The batched determinant solve dominates; the contraction pairs use
        # the dilation the other way round (m = 6, large n) and carry no
        # determinant block, which fails by design on strict contractions.
        Workload(
            "circle_determinant",
            (
                Group("unitary_pair", (32, 48, 64), 1, determinant=True),
                Group("contraction_pair", (32, 48, 64), 1),
            ),
            pass_s=6.0,
        ),
        # Every kind at tiny dimension: per-file fixed cost sets the time.
        Workload(
            "small_mixed",
            tuple(Group(k, (2, 3, 4), 10) for k in KINDS),
            pass_s=3.0,
        ),
    )
}
