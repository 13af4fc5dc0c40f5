"""Multi-objective particle swarm search (OMOPSO family).

Particles follow personal bests and leaders drawn from a bounded archive of
non-dominated solutions; the archive is truncated by crowding distance. The
inertia weight decays linearly over the evaluation budget and out-of-bounds
particles are reflected back with inverted velocity. The swarm is split into
thirds by particle index: uniform turbulence, non-uniform turbulence, none.

This is not the published OMOPSO of Sierra and Coello Coello (EMO 2005, LNCS
3410) line for line. No reference implementation is in this repository; the
known deviations from the published description are:

* inertia: ``w`` decays linearly from ``w_max`` 0.9 to ``w_min`` 0.1 over the
  budget (:func:`inertia_at`), where the published algorithm, as widely
  implemented, draws ``w`` uniformly in [0.1, 0.5] for each particle;
* boundary rule: an out-of-bounds variable is mirrored back into the box with
  its velocity inverted (:func:`reflect_boundary`), not clamped to the bound;
* personal best: the new position replaces the old best when it dominates it,
  and by a coin flip when neither dominates the other;
* archive: there is no epsilon-dominance archive; it would affect only the
  reported front, not the search, and the run log is what gets scored.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..core import (
    ProblemDefinition,
    RunLog,
    SearchSpace,
    check_finite_real,
    check_integer,
    dominates,
)
from ..samplers import make_rng
from .nsga2 import crowding_distance


@dataclass(frozen=True)
class OmopsoConfig:
    swarm_size: int = 40
    archive_size: int | None = None  # defaults to the swarm size
    w_min: float = 0.1
    w_max: float = 0.9
    mutation_rate: float = 1.0 / 3.0  # per variable
    c_min: float = 1.5
    c_max: float = 2.0
    budget: int = 2000

    def __post_init__(self) -> None:
        check_integer("swarm_size", self.swarm_size)
        if self.archive_size is not None:
            check_integer("archive_size", self.archive_size)
        for name in ("w_min", "w_max", "mutation_rate", "c_min", "c_max"):
            check_finite_real(name, getattr(self, name))
        if self.swarm_size < 1:
            raise ValueError(f"swarm_size must be positive, got {self.swarm_size}")
        if not 0.0 < self.w_min < self.w_max < 1.0:
            raise ValueError(
                f"need 0 < w_min < w_max < 1, got ({self.w_min}, {self.w_max})"
            )
        if self.archive_size is not None and self.archive_size < 1:
            raise ValueError(f"archive_size must be positive, got {self.archive_size}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {self.mutation_rate}")
        if not 0.0 < self.c_min <= self.c_max:
            raise ValueError(f"need 0 < c_min <= c_max, got ({self.c_min}, {self.c_max})")
        if self.budget < self.swarm_size:
            raise ValueError(
                f"budget ({self.budget}) must cover one swarm pass ({self.swarm_size})"
            )

    @property
    def effective_archive_size(self) -> int:
        return self.swarm_size if self.archive_size is None else self.archive_size


def inertia_at(t: int, budget: int, w_min: float = 0.1, w_max: float = 0.9) -> float:
    """Linear inertia schedule: w_max at t=0 decaying to w_min at t=budget."""
    if not 0 <= t <= budget:
        raise ValueError(f"evaluation count {t} outside [0, {budget}]")
    return w_max - (w_max - w_min) * t / budget


def reflect_boundary(
    position: float, velocity: float, lo: float, hi: float
) -> tuple[float, float]:
    """Mirror the position across the violated bound and invert the velocity.

    Repeats until the position is inside [lo, hi], which handles overshoots
    larger than the box width. Raises ``ValueError`` where that never ends: an
    infinite position, or one that two reflections bring no closer to the box
    in floating point (reflection is monotone, so it would never get inside).
    A NaN position passes through. Each pass moves the position by about one
    box width, so the time is linear in the overshoot counted in box widths:
    an overshoot of 1e7 widths takes some 1e7 passes. OMOPSO's own
    velocities stay within a few dozen widths.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    while position < lo or position > hi:
        if position > hi:
            mirrored = 2.0 * hi - position
            stuck = 2.0 * lo - mirrored >= position
        else:
            mirrored = 2.0 * lo - position
            stuck = 2.0 * hi - mirrored <= position
        if stuck:
            raise ValueError(f"cannot reflect position {position!r} into [{lo}, {hi}]")
        position, velocity = mirrored, -velocity
    return position, velocity


class LeaderArchive:
    """Bounded archive of mutually non-dominated solutions.

    Members are the entries of ``positions`` and ``fitness``, lists of Python
    float lists, in insertion order. Insertion scans the members with the
    ``<=`` and ``<`` of :func:`core.dominates` and stops at the first member
    that dominates the candidate; overflow evicts the most crowded member
    (lowest crowding distance, first index on ties). Crowding distance is the
    only matrix operation: eviction and leader selection build the fitness
    matrix from the same doubles when they need it. The distances that leader
    selection reads are cached until the next accepted insert; a rejected
    insert changes nothing.
    """

    def __init__(self, capacity: int):
        check_integer("archive capacity", capacity)
        if capacity < 1:
            raise ValueError(f"archive capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.positions: list[list[float]] = []
        self.fitness: list[list[float]] = []
        self._crowding: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.positions)

    def add(self, position: Sequence[float], fitness: Sequence[float]) -> bool:
        """Insert unless dominated; evict members the candidate dominates."""
        position = [float(v) for v in position]
        fitness = [float(v) for v in fitness]
        if self.fitness and (len(position), len(fitness)) != (
            len(self.positions[0]), len(self.fitness[0])
        ):
            raise ValueError(
                f"candidate has {len(position)} variables and {len(fitness)} objectives, "
                f"members have {len(self.positions[0])} and {len(self.fitness[0])}"
            )
        dominated = []
        for k, member in enumerate(self.fitness):
            # The member is no worse than the candidate everywhere, or strictly
            # better somewhere: both when it dominates the candidate, neither
            # when the candidate dominates it (fitness is finite).
            no_worse, better = True, False
            for a, b in zip(member, fitness):
                if a < b:
                    better = True
                elif not a <= b:
                    no_worse = False
            if no_worse and better:
                return False
            if not (no_worse or better):
                dominated.append(k)
        for k in reversed(dominated):
            del self.positions[k]
            del self.fitness[k]
        self.positions.append(position)
        self.fitness.append(fitness)
        if len(self.fitness) > self.capacity:
            evict = int(np.argmin(crowding_distance(self._fitness_matrix())))
            del self.positions[evict]
            del self.fitness[evict]
        self._crowding = None
        return True

    def select_leader(self, rng: np.random.Generator) -> list[float]:
        """Binary tournament on crowding distance (less crowded member wins).

        Returns the member's own position list; the caller must not change it.
        """
        if not len(self):
            raise ValueError("cannot select a leader from an empty archive")
        if len(self) == 1:
            return self.positions[0]
        i, j = int(rng.integers(len(self))), int(rng.integers(len(self)))
        if self._crowding is None:
            self._crowding = crowding_distance(self._fitness_matrix())
        crowd = self._crowding
        if crowd[i] == crowd[j]:
            return self.positions[i]
        return self.positions[i] if crowd[i] > crowd[j] else self.positions[j]

    def _fitness_matrix(self) -> np.ndarray:
        """The members' fitness as one (n, m) array; ``fromiter`` over the flattened
        lists takes half the time of ``np.array`` over the nested ones."""
        n, m = len(self.fitness), len(self.fitness[0])
        return np.fromiter(chain.from_iterable(self.fitness), float, n * m).reshape(n, m)


def _uniform_turbulence(
    space: SearchSpace,
    x: Sequence[float],
    rate: float,
    rng: np.random.Generator,
    perturbation: float = 0.5,
) -> list[float]:
    """Constant-width jitter: +/- perturbation/2 of the axis width per mutated variable."""
    y = list(x)
    for j, (lo, hi) in enumerate(space.bounds):
        if rng.random() < rate:
            y[j] += (rng.random() - 0.5) * perturbation * (hi - lo)
    return space.clip(y)


def _nonuniform_turbulence(
    space: SearchSpace,
    x: Sequence[float],
    rate: float,
    rng: np.random.Generator,
    progress: float,
    shape: float = 5.0,
) -> list[float]:
    """Time-decaying jitter: perturbations shrink as the budget is consumed."""
    y = list(x)
    for j, (lo, hi) in enumerate(space.bounds):
        if rng.random() >= rate:
            continue
        step = 1.0 - rng.random() ** ((1.0 - progress) ** shape)
        if rng.random() < 0.5:
            y[j] += (hi - y[j]) * step
        else:
            y[j] -= (y[j] - lo) * step
    return space.clip(y)


def run_omopso(problem: ProblemDefinition, config: OmopsoConfig, seed: int) -> RunLog:
    """Swarm search with a crowding-distance leader archive; particles step on Python floats."""
    rng = make_rng(seed)
    log = RunLog(problem, config.budget)
    space = problem.space
    swarm = config.swarm_size
    # c_min + c_span * rng.random() is rng.uniform(c_min, c_max), at a third of the cost.
    c_min, c_span = float(config.c_min), float(config.c_max) - float(config.c_min)

    positions = rng.uniform(space.lows, space.highs, size=(swarm, space.dims)).tolist()
    pbest_fit = [log.evaluate(x).tolist() for x in positions]
    archive = LeaderArchive(config.effective_archive_size)
    for x, f in zip(positions, pbest_fit):
        archive.add(x, f)
    velocities = [[0.0] * space.dims for _ in range(swarm)]
    pbest_pos = list(positions)  # rows are replaced, never changed in place

    while log.remaining > 0:
        log.generation += 1
        w = inertia_at(log.used, config.budget, config.w_min, config.w_max)
        progress = log.used / config.budget
        for i in range(min(swarm, log.remaining)):
            leader = archive.select_leader(rng)
            c1 = c_min + c_span * rng.random()
            c2 = c_min + c_span * rng.random()
            r1 = rng.random()
            r2 = rng.random()
            position, velocity = [], []
            for x, v, best, lead, (lo, hi) in zip(
                positions[i], velocities[i], pbest_pos[i], leader, space.bounds
            ):
                v = w * v + c1 * r1 * (best - x) + c2 * r2 * (lead - x)
                x, v = reflect_boundary(x + v, v, lo, hi)
                position.append(x)
                velocity.append(v)
            velocities[i] = velocity
            if i % 3 == 0:
                position = _uniform_turbulence(space, position, config.mutation_rate, rng)
            elif i % 3 == 1:
                position = _nonuniform_turbulence(
                    space, position, config.mutation_rate, rng, progress
                )
            positions[i] = position
            f = log.evaluate(position).tolist()
            if dominates(f, pbest_fit[i]) or (
                not dominates(pbest_fit[i], f) and rng.random() < 0.5
            ):
                pbest_pos[i] = position
                pbest_fit[i] = f
            archive.add(position, f)

    return log
