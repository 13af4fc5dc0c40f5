"""Naive random testing: i.i.d. uniform inputs under the shared budget contract."""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ProblemDefinition, RunLog, check_integer
from ..samplers import make_rng


@dataclass(frozen=True)
class RandomSearchConfig:
    batch_size: int = 40
    budget: int = 2000

    def __post_init__(self) -> None:
        check_integer("batch_size", self.batch_size)
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")


def run_random_search(
    problem: ProblemDefinition, config: RandomSearchConfig, seed: int
) -> RunLog:
    """Uniform random search; ``batch_size`` groups evaluations into pseudo-generations.

    The generation index floor(index / batch_size) makes iteration counts
    comparable with population-based algorithms run at that population size.
    """
    rng = make_rng(seed)
    log = RunLog(problem, config.budget)
    space = problem.space
    while log.remaining > 0:
        log.generation = log.used // config.batch_size
        log.evaluate(rng.uniform(space.lows, space.highs))
    return log
