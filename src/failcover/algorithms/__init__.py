"""Test-generation algorithms sharing the evaluation-budget contract.

Four algorithms produce :class:`~failcover.core.RunHistory` logs: random
search (``rs``), NSGA-II (``nsga2``), diversified NSGA-II with a novelty
archive and repopulation (``nsga2d``), and the swarm-based ``omopso``.
"""

from __future__ import annotations

from ..core import ProblemDefinition, RunHistory
from .nsga2 import (
    NoveltyArchive,
    Nsga2Config,
    NsgaDConfig,
    archive_insert,
    binary_tournament,
    crowding_distance,
    environmental_selection,
    fast_nondominated_sort,
    novelty_distance,
    novelty_distances,
    polynomial_mutation,
    run_nsga2,
    run_nsga2d,
    sbx_crossover,
)
from .omopso import (
    LeaderArchive,
    OmopsoConfig,
    inertia_at,
    reflect_boundary,
    run_omopso,
)
from .random_search import run_random_search

ALGORITHM_NAMES = ("rs", "nsga2", "nsga2d", "omopso")


def run_algorithm(
    name: str, problem: ProblemDefinition, budget: int, seed: int, params: dict | None = None
) -> RunHistory:
    """Dispatch one seeded run by config name; ``params`` override the defaults."""
    params = dict(params or {})
    if name == "rs":
        batch_size = params.pop("batch_size", 40)
        if params:
            raise ValueError(f"unknown rs parameters: {sorted(params)}")
        return run_random_search(problem, budget, batch_size, seed)
    if name == "nsga2":
        return run_nsga2(problem, Nsga2Config(budget=budget, **params), seed)
    if name == "nsga2d":
        base_keys = {"population_size", "crossover_rate", "mutation_rate", "sbx_eta", "pm_eta"}
        base = Nsga2Config(budget=budget, **{k: v for k, v in params.items() if k in base_keys})
        rest = {k: v for k, v in params.items() if k not in base_keys}
        return run_nsga2d(problem, NsgaDConfig(base=base, **rest), seed)
    if name == "omopso":
        return run_omopso(problem, OmopsoConfig(budget=budget, **params), seed)
    raise ValueError(f"unknown algorithm {name!r}, expected one of {ALGORITHM_NAMES}")


__all__ = [
    "ALGORITHM_NAMES",
    "LeaderArchive",
    "NoveltyArchive",
    "Nsga2Config",
    "NsgaDConfig",
    "OmopsoConfig",
    "archive_insert",
    "binary_tournament",
    "crowding_distance",
    "environmental_selection",
    "fast_nondominated_sort",
    "inertia_at",
    "novelty_distance",
    "novelty_distances",
    "polynomial_mutation",
    "reflect_boundary",
    "run_algorithm",
    "run_nsga2",
    "run_nsga2d",
    "run_omopso",
    "run_random_search",
    "sbx_crossover",
]
