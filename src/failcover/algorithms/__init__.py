"""Test-generation algorithms sharing the evaluation-budget contract.

Four algorithms produce :class:`~failcover.core.RunHistory` logs: random
search (``rs``), NSGA-II (``nsga2``), diversified NSGA-II with a novelty
archive and repopulation (``nsga2d``), and the swarm-based ``omopso``.
:data:`REGISTRY` is the one table of what each accepts, keyed by config name.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import Any

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
from .random_search import RandomSearchConfig, run_random_search


@dataclass(frozen=True)
class Algorithm:
    """A registered algorithm: its config dataclass, runner, batch field and presets."""

    config: type
    run: Callable[[ProblemDefinition, Any, int], RunHistory]
    #: Config field holding the generation size: population, swarm or rs batch.
    batch_field: str
    #: Named hyperparameter presets at the two studied scales.
    presets: dict[str, dict]

    @property
    def param_keys(self) -> set[str]:
        """Parameters a config may set: every config field except the shared budget."""
        return {f.name for f in fields(self.config)} - {"budget"}


REGISTRY: dict[str, Algorithm] = {
    "rs": Algorithm(RandomSearchConfig, run_random_search, "batch_size",
                    {"avp": {"batch_size": 40}, "mnist": {"batch_size": 20}}),
    "nsga2": Algorithm(Nsga2Config, run_nsga2, "population_size",
                       {"avp": {"population_size": 40}, "mnist": {"population_size": 20}}),
    "nsga2d": Algorithm(NsgaDConfig, run_nsga2d, "population_size", {
        "avp": {"population_size": 40, "archive_threshold": 0.29},
        "mnist": {"population_size": 20, "archive_threshold": 1.77},
    }),
    "omopso": Algorithm(OmopsoConfig, run_omopso, "swarm_size",
                        {"avp": {"swarm_size": 40}, "mnist": {"swarm_size": 20}}),
}
ALGORITHM_NAMES = tuple(REGISTRY)


def make_config(name: str, budget: int, params: dict | None = None) -> Any:
    """The named algorithm's config; ``ValueError`` for an unknown name, key or value."""
    if name not in REGISTRY:
        raise ValueError(f"unknown algorithm {name!r}, expected one of {ALGORITHM_NAMES}")
    algorithm = REGISTRY[name]
    params = params or {}
    unknown = set(params) - algorithm.param_keys
    if unknown:
        raise ValueError(f"unknown {name} parameters: {sorted(unknown)}")
    return algorithm.config(budget=budget, **params)


def run_algorithm(
    name: str, problem: ProblemDefinition, budget: int, seed: int, params: dict | None = None
) -> RunHistory:
    """Dispatch one seeded run by config name; ``params`` override the defaults."""
    config = make_config(name, budget, params)
    return REGISTRY[name].run(problem, config, seed)


__all__ = [
    "ALGORITHM_NAMES",
    "REGISTRY",
    "Algorithm",
    "LeaderArchive",
    "NoveltyArchive",
    "Nsga2Config",
    "NsgaDConfig",
    "OmopsoConfig",
    "RandomSearchConfig",
    "archive_insert",
    "binary_tournament",
    "crowding_distance",
    "environmental_selection",
    "fast_nondominated_sort",
    "inertia_at",
    "make_config",
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
