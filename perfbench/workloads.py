"""The benchmark's three workloads, each a list of failcover experiment configs.

Every workload is closed-loop: one process runs its configs one after another,
then starts again. The workload seed is the only input; it fixes ``base_seed``
and every sampler ``seed``, so the program receives nothing but the generated
configs. Repetitions are scaled down from the studies they mirror so that one
iteration of a workload takes a few seconds.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

DEFAULT_SEED = 1

#: Statistical test used by every ``compare`` step; it pairs runs by seed.
COMPARE_TEST = "signedrank"


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: which layer this workload loads and why.
    why: str
    #: Longer rationale, kept in the recorded benchmark description.
    rationale: str
    #: The study's repetitions and the repetitions one iteration runs.
    study_repetitions: int
    repetitions: int
    make: Callable[[int, int, int], list[dict]]

    def configs(self, seed: int) -> list[dict]:
        base_seed, sampler_seed = derive_seeds(seed)
        return self.make(base_seed, sampler_seed, self.repetitions)

    def evaluations(self, seed: int = DEFAULT_SEED) -> int:
        """Fitness evaluations one iteration performs (budget x runs)."""
        return sum(
            c["budget"] * c["repetitions"] * len(c["algorithms"]) for c in self.configs(seed)
        )


def derive_seeds(seed: int) -> tuple[int, int]:
    """Map the workload seed to (base_seed, sampler seed), both non-negative."""
    rng = random.Random(seed)
    return rng.randrange(1, 1_000_000), rng.randrange(1, 1_000_000)


def _suite_2d(base_seed: int, sampler_seed: int, repetitions: int) -> list[dict]:
    return [
        {
            "problem": {"name": "two_ball", "variant": "Large"},
            "algorithms": [
                {"name": "rs", "preset": "avp"},
                {"name": "nsga2", "preset": "avp"},
                {"name": "nsga2d", "preset": "avp", "params": {"archive_threshold": 0.1}},
                {"name": "omopso", "preset": "avp"},
            ],
            "budget": 2000,
            "repetitions": repetitions,
            "base_seed": base_seed,
            "refset": {"strategy": "grid", "params": {"k": 64}},
            "cid": {"p": 2, "q": 1, "interval": 100},
        }
    ]


def _refset_3d(base_seed: int, sampler_seed: int, repetitions: int) -> list[dict]:
    samplers = [
        {"strategy": "poisson", "params": {"r": 0.08, "seed": sampler_seed}},
        {"strategy": "fps", "params": {"n": 400, "seed": sampler_seed}},
        {"strategy": "grid", "params": {"k": 40}},
    ]
    return [
        {
            "problem": {"name": "avp_analog", "variant": "Medium"},
            "algorithms": [{"name": "rs", "preset": "avp"}, {"name": "nsga2", "preset": "avp"}],
            "budget": 2000,
            "repetitions": repetitions,
            "base_seed": base_seed,
            "refset": sampler,
            "cid": {"p": 2, "q": 1, "interval": 10},
        }
        for sampler in samplers
    ]


def _bigpop_3d(base_seed: int, sampler_seed: int, repetitions: int) -> list[dict]:
    return [
        {
            "problem": {"name": "avp_analog", "variant": "Large"},
            "algorithms": [
                {"name": "nsga2", "preset": "avp", "params": {"population_size": 200}},
                {"name": "nsga2d", "preset": "avp", "params": {"population_size": 200}},
                {"name": "omopso", "preset": "avp",
                 "params": {"swarm_size": 200, "archive_size": 200}},
            ],
            "budget": 10000,
            "repetitions": repetitions,
            "base_seed": base_seed,
            "refset": {"strategy": "grid", "params": {"k": 32}},
            "cid": {"p": 2, "q": 1, "interval": 100},
        }
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="suite-2d",
            why="README comparison of four algorithms on two_ball: per-evaluation Python "
            "overhead, run log and CSV writing dominate",
            rationale="The README and paper comparison. The cost is the per-evaluation "
            "Python overhead: RunLog.evaluate, omopso's dominance checks, nsga2d's novelty "
            "distance and the CSV writers. A columnar run log or parallel repetitions "
            "should show here; sampler changes should not, since its grid refset is tiny.",
            study_repetitions=10,
            repetitions=4,
            make=_suite_2d,
        ),
        Workload(
            name="refset-3d",
            why="reference-set robustness study on avp_analog: poisson, fps and grid "
            "refsets built fresh each iteration, dense CID series",
            rationale="The reference-set robustness study. The poisson and fps samplers "
            "take most of the time, the dense (interval 10) CID series some, the search "
            "little. Every iteration writes to a fresh directory, so the reference set "
            "is built every time, as on a user's first run. Sampler vectorisation shows "
            "here; on suite-2d the prediction for it is no change.",
            study_repetitions=3,
            repetitions=3,
            make=_refset_3d,
        ),
        Workload(
            name="bigpop-3d",
            why="population and swarm of 200 on avp_analog: the O(N^2) sort, crowding, "
            "dominance and novelty kernels dominate",
            rationale="The algorithm layer with a large working set. The cost moves from "
            "per-evaluation overhead to the population kernels: dominance checks in "
            "omopso's leader archive, the non-dominated sort, crowding and novelty. A "
            "change that helps suite-2d but slows the O(N^2) paths, or the reverse, "
            "shows as a difference between the two workloads. avp_analog is used because "
            "two_region's Pareto front is one point, which collapses omopso's archive.",
            study_repetitions=2,
            repetitions=1,
            make=_bigpop_3d,
        ),
    )
}
