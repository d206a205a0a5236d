"""Workload definitions: which configs a workload runs and in what order.

A workload is a list of suite configs plus a pool of per-report config
seeds.  The workload seed passed to the benchmark only chooses the order
in which pool seeds are visited, so every report the benchmark can ever
produce has a reference pinned under ``perfbench/references``.  This
module imports nothing from the engine and nothing outside the standard
library, so the orchestrator can use it without loading numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

ALL_GROUPS = ("axioms", "two_form", "gauss_weingarten", "structure", "algebraic",
              "differential", "theorems", "models")

R3_CONFIGS = ("configs/plane_r3.cfg", "configs/quadric_r3.cfg",
              "configs/quadric_r3_scaled.cfg")

# The configs whose JSON report is pinned in the engine's own test suite.
GOLDEN_DIR = "tests/golden"
GOLDEN_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: Tuple[str, ...]  # paths relative to the checkout root
    groups: Tuple[str, ...]
    count: Optional[int]  # sample count override; None keeps the config's
    # Per-report config seeds with a pinned reference.  Drawn once as
    # sorted(random.Random("perfbench-pool-" + name).sample(range(1, 100000), k))
    # and kept as drawn: a seed whose verdicts look odd stays in.
    pool: Tuple[int, ...]
    golden_first: bool  # visit every config at GOLDEN_SEED before the pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="battery_r3",
            why="golden traffic: all 8 groups on the shipped R^3 surfaces, where per-point "
                "bundles and Gauss-Weingarten data are rebuilt 5 times (ROADMAP item 2)",
            configs=R3_CONFIGS,
            groups=ALL_GROUPS,
            count=None,
            pool=(12395, 34339, 36985, 42866, 49699, 51095, 62620, 90493, 95473),
            golden_first=True,
        ),
        Workload(
            name="battery_r5",
            why="all 8 groups on a curved n = 2 hypersurface in R^5, where dual and linalg "
                "arithmetic grows steeply with chart dimension (ROADMAP item 3)",
            configs=("perfbench/configs/quadric_r5.cfg",),
            groups=ALL_GROUPS,
            count=None,
            pool=(6112, 15319, 23027, 38264, 58971, 73061, 76164, 77402, 79723, 82279),
            golden_first=False,
        ),
        Workload(
            name="derivative_free_r3",
            why="control: 5 groups at 400 points that never build bundles or Gauss-Weingarten "
                "data, so bundle reuse should not move it; exercises float extraction",
            configs=R3_CONFIGS,
            groups=("axioms", "two_form", "structure", "algebraic", "models"),
            count=400,
            pool=(8974, 24094, 62838, 67682, 69479, 74094, 79490, 82387, 94896, 95728),
            golden_first=False,
        ),
    )
}


def config_name(path: str) -> str:
    """The engine names a config after its file stem."""
    return path.rsplit("/", 1)[-1].rsplit(".", 1)[0]


def report_sequence(workload: Workload, seed: int) -> Iterator[Tuple[str, int]]:
    """Endless (config path, config seed) stream for one workload seed.

    Configs alternate round-robin.  Each config walks its own shuffle of
    the pool, reshuffled when exhausted; for ``golden_first`` workloads
    the first round uses GOLDEN_SEED for every config.
    """
    rng = random.Random(seed)
    if workload.golden_first:
        for path in workload.configs:
            yield path, GOLDEN_SEED
    while True:
        orders = [rng.sample(workload.pool, len(workload.pool)) for _ in workload.configs]
        for i in range(len(workload.pool)):
            for path, order in zip(workload.configs, orders):
                yield path, order[i]


def reference_key(path: str, seed: int) -> str:
    return f"{config_name(path)}@{seed}"
