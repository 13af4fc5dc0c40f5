"""Naive random testing: i.i.d. uniform inputs under the shared budget contract."""

from __future__ import annotations

from dataclasses import dataclass

from ..core import ProblemDefinition, RunLog, check_integer
from ..samplers import make_rng, uniform_sample


@dataclass(frozen=True)
class RandomSearchConfig:
    batch_size: int = 40
    budget: int = 2000

    def __post_init__(self) -> None:
        check_integer("batch_size", self.batch_size, 1)


def run_random_search(
    problem: ProblemDefinition, config: RandomSearchConfig, seed: int
) -> RunLog:
    """Uniform random search; ``batch_size`` groups evaluations into pseudo-generations.

    The generation index floor(index / batch_size) makes iteration counts
    comparable with population-based algorithms run at that population size.
    Each pseudo-generation is one ``(k, dims)`` draw, the same doubles as k one-row draws.
    """
    rng = make_rng(seed)
    log = RunLog(problem, config.budget)
    space = problem.space
    while log.remaining > 0:
        log.generation = log.used // config.batch_size
        k = min(config.batch_size, log.remaining)
        for x in uniform_sample(space, k, rng):
            log.evaluate(x)
    return log
