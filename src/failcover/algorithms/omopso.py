"""Multi-objective particle swarm search (OMOPSO family).

Particles follow personal bests and leaders drawn from a bounded archive of
non-dominated solutions; the archive is truncated by crowding distance. The
inertia weight decays linearly over the evaluation budget and out-of-bounds
particles are reflected back with inverted velocity. The swarm is split into
thirds by particle index: uniform turbulence, non-uniform turbulence, none.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    larger than the box width.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi})")
    while position < lo or position > hi:
        if position > hi:
            position = 2.0 * hi - position
        else:
            position = 2.0 * lo - position
        velocity = -velocity
    return position, velocity


class LeaderArchive:
    """Bounded archive of mutually non-dominated solutions.

    Members are the rows of ``positions`` (n, d) and ``fitness`` (n, m), in
    insertion order. Insertion filters by dominance with one mask over the
    fitness matrix per direction; overflow evicts the most crowded member
    (lowest crowding distance, first index on ties). The crowding distances
    that leader selection reads are computed on first use and cached until
    the next accepted insert; a rejected insert changes nothing.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"archive capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.positions = np.empty((0, 0))
        self.fitness = np.empty((0, 0))
        self._crowding: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.positions)

    def add(self, position: np.ndarray, fitness: np.ndarray) -> bool:
        """Insert unless dominated; evict members the candidate dominates."""
        position = np.array(position, dtype=float)
        fitness = np.array(fitness, dtype=float)
        if len(self):
            # Row i of these masks compares member i with the candidate, with the
            # <= and < of core.dominates. Fitness is finite, so the candidate
            # dominates member i exactly when neither mask holds for that row.
            no_worse = (self.fitness <= fitness).all(axis=1)
            better = (self.fitness < fitness).any(axis=1)
            if (no_worse & better).any():
                return False
            keep = no_worse | better
            self.positions = np.vstack([self.positions[keep], position])
            self.fitness = np.vstack([self.fitness[keep], fitness])
        else:
            self.positions = position[None, :]
            self.fitness = fitness[None, :]
        if len(self) > self.capacity:
            evict = int(np.argmin(crowding_distance(self.fitness)))
            self.positions = np.delete(self.positions, evict, axis=0)
            self.fitness = np.delete(self.fitness, evict, axis=0)
        self._crowding = None
        return True

    def select_leader(self, rng: np.random.Generator) -> np.ndarray:
        """Binary tournament on crowding distance (less crowded member wins)."""
        if not len(self):
            raise ValueError("cannot select a leader from an empty archive")
        if len(self) == 1:
            return self.positions[0]
        i, j = (int(v) for v in rng.integers(len(self), size=2))
        if self._crowding is None:
            self._crowding = crowding_distance(self.fitness)
        crowd = self._crowding
        if crowd[i] == crowd[j]:
            return self.positions[i]
        return self.positions[i] if crowd[i] > crowd[j] else self.positions[j]


def _uniform_turbulence(
    space: SearchSpace,
    x: np.ndarray,
    rate: float,
    rng: np.random.Generator,
    perturbation: float = 0.5,
) -> np.ndarray:
    """Constant-width jitter: +/- perturbation/2 of the axis width per mutated variable."""
    y = np.array(x, dtype=float)
    widths = space.widths
    for j in range(len(y)):
        if rng.random() < rate:
            y[j] += (rng.random() - 0.5) * perturbation * widths[j]
    return space.clip(y)


def _nonuniform_turbulence(
    space: SearchSpace,
    x: np.ndarray,
    rate: float,
    rng: np.random.Generator,
    progress: float,
    shape: float = 5.0,
) -> np.ndarray:
    """Time-decaying jitter: perturbations shrink as the budget is consumed."""
    y = np.array(x, dtype=float)
    lows, highs = space.lows, space.highs
    for j in range(len(y)):
        if rng.random() >= rate:
            continue
        step = 1.0 - rng.random() ** ((1.0 - progress) ** shape)
        if rng.random() < 0.5:
            y[j] += (highs[j] - y[j]) * step
        else:
            y[j] -= (y[j] - lows[j]) * step
    return space.clip(y)


def run_omopso(problem: ProblemDefinition, config: OmopsoConfig, seed: int) -> RunLog:
    """Swarm search with a crowding-distance leader archive."""
    rng = make_rng(seed)
    log = RunLog(problem, config.budget)
    space = problem.space
    swarm = config.swarm_size

    positions = rng.uniform(space.lows, space.highs, size=(swarm, space.dims))
    velocities = np.zeros_like(positions)
    fitness = np.array([log.evaluate(x) for x in positions])
    pbest_pos = positions.copy()
    pbest_fit = fitness.copy()

    archive = LeaderArchive(config.effective_archive_size)
    for i in range(swarm):
        archive.add(positions[i], fitness[i])

    while log.remaining > 0:
        log.generation += 1
        w = inertia_at(log.used, config.budget, config.w_min, config.w_max)
        progress = log.used / config.budget
        for i in range(swarm):
            if log.remaining <= 0:
                break
            leader = archive.select_leader(rng)
            c1 = rng.uniform(config.c_min, config.c_max)
            c2 = rng.uniform(config.c_min, config.c_max)
            r1 = rng.random()
            r2 = rng.random()
            velocities[i] = (
                w * velocities[i]
                + c1 * r1 * (pbest_pos[i] - positions[i])
                + c2 * r2 * (leader - positions[i])
            )
            positions[i] = positions[i] + velocities[i]
            for j, (lo, hi) in enumerate(space.bounds):
                positions[i, j], velocities[i, j] = reflect_boundary(
                    positions[i, j], velocities[i, j], lo, hi
                )
            if i % 3 == 0:
                positions[i] = _uniform_turbulence(
                    space, positions[i], config.mutation_rate, rng
                )
            elif i % 3 == 1:
                positions[i] = _nonuniform_turbulence(
                    space, positions[i], config.mutation_rate, rng, progress
                )
            f = log.evaluate(positions[i])
            fitness[i] = f
            if dominates(f, pbest_fit[i]):
                replace = True
            elif dominates(pbest_fit[i], f):
                replace = False
            else:
                replace = rng.random() < 0.5
            if replace:
                pbest_pos[i] = positions[i].copy()
                pbest_fit[i] = f.copy()
            archive.add(positions[i], f)

    return log
