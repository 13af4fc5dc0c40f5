"""Test-generation algorithms sharing the evaluation-budget contract.

Four algorithms each return the :class:`~failcover.core.RunLog` of a run:
random search (``rs``), NSGA-II (``nsga2``), diversified NSGA-II with a
novelty archive and repopulation (``nsga2d``), and the swarm-based
``omopso``.
``nsga2`` and ``nsga2d`` share one runner, :func:`run_nsga2`, which
diversifies when its config is an :class:`NsgaDConfig`. :data:`REGISTRY` is
the one table of what each accepts, keyed by config name. This package exports
the registry, the configs and the runners; the operators and archives are
imported from :mod:`.nsga2` and :mod:`.omopso`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import Any

from ..core import ProblemDefinition, RunLog
from .nsga2 import Nsga2Config, NsgaDConfig, run_nsga2
from .omopso import OmopsoConfig, run_omopso
from .random_search import RandomSearchConfig, run_random_search


@dataclass(frozen=True)
class Algorithm:
    """A registered algorithm: its config dataclass, runner and presets."""

    config: type
    run: Callable[[ProblemDefinition, Any, int], RunLog]
    #: Named hyperparameter presets at the two studied scales.
    presets: dict[str, dict]

    @property
    def param_keys(self) -> set[str]:
        """Parameters a config may set: every config field except the shared budget."""
        return {f.name for f in fields(self.config)} - {"budget"}


REGISTRY: dict[str, Algorithm] = {
    "rs": Algorithm(RandomSearchConfig, run_random_search,
                    {"avp": {"batch_size": 40}, "mnist": {"batch_size": 20}}),
    "nsga2": Algorithm(Nsga2Config, run_nsga2,
                       {"avp": {"population_size": 40}, "mnist": {"population_size": 20}}),
    "nsga2d": Algorithm(NsgaDConfig, run_nsga2, {
        "avp": {"population_size": 40, "archive_threshold": 0.29},
        "mnist": {"population_size": 20, "archive_threshold": 1.77},
    }),
    "omopso": Algorithm(OmopsoConfig, run_omopso,
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
) -> RunLog:
    """Dispatch one seeded run by config name; ``params`` override the defaults."""
    config = make_config(name, budget, params)
    return REGISTRY[name].run(problem, config, seed)


__all__ = [
    "ALGORITHM_NAMES",
    "REGISTRY",
    "Algorithm",
    "Nsga2Config",
    "NsgaDConfig",
    "OmopsoConfig",
    "RandomSearchConfig",
    "make_config",
    "run_algorithm",
    "run_nsga2",
    "run_omopso",
    "run_random_search",
]
