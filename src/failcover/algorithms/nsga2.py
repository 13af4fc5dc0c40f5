"""NSGA-II, plain and diversified, in one generation loop.

:func:`run_nsga2` runs both. An :class:`NsgaDConfig` makes it the diversified
variant (``nsga2d``): plain NSGA-II plus an archive of previously found
failures, a novelty objective (distance to the nearest archived failure,
maximized), and a repopulation step that swaps the most dominated survivors
for fresh uniform samples each generation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core import (
    ProblemDefinition,
    RunLog,
    SearchSpace,
    check_finite_real,
    check_integer,
    row_norms,
)
from ..samplers import lhs_sample, make_rng, uniform_sample


@dataclass(frozen=True)
class Nsga2Config:
    population_size: int = 40
    crossover_rate: float = 0.6
    mutation_rate: float = 1.0 / 3.0  # per variable
    sbx_eta: float = 15.0
    pm_eta: float = 20.0
    budget: int = 2000

    def __post_init__(self) -> None:
        check_integer("population_size", self.population_size)
        if self.population_size < 4 or self.population_size % 2 != 0:
            raise ValueError(f"population_size must be even and >= 4, got {self.population_size}")
        for name in ("crossover_rate", "mutation_rate", "sbx_eta", "pm_eta"):
            check_finite_real(name, getattr(self, name))
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for name in ("sbx_eta", "pm_eta"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.budget < self.population_size:
            raise ValueError(
                f"budget ({self.budget}) must cover one population ({self.population_size})"
            )


@dataclass(frozen=True)
class NsgaDConfig(Nsga2Config):
    #: Euclidean admission threshold of the novelty archive, in search-space
    #: units. 0.1 suits unit boxes; see the avp/mnist presets for other scales.
    archive_threshold: float = 0.1
    repopulation_fraction: float = 0.1

    def __post_init__(self) -> None:
        super().__post_init__()
        check_finite_real("archive_threshold", self.archive_threshold)
        check_finite_real("repopulation_fraction", self.repopulation_fraction)
        if self.archive_threshold <= 0:
            raise ValueError(f"archive_threshold must be positive, got {self.archive_threshold}")
        if not 0.0 < self.repopulation_fraction <= 0.5:
            raise ValueError(
                f"repopulation_fraction must be in (0, 0.5], got {self.repopulation_fraction}"
            )


def fast_nondominated_sort(fitness: np.ndarray) -> list[list[int]]:
    """Deb's fast non-dominated sort; returns fronts as lists of row indices."""
    f = np.asarray(fitness, dtype=float)
    if f.ndim != 2 or len(f) == 0:
        raise ValueError("fitness must be a non-empty (N, m) array")
    # le[i, j]: i is no worse than j on every objective; lt[i, j]: strictly
    # better on at least one. Built one objective at a time, in place.
    col = f[:, 0, None]
    le = col <= col.T
    lt = col < col.T
    scratch = np.empty_like(le)
    for k in range(1, f.shape[1]):
        col = f[:, k, None]
        le &= np.less_equal(col, col.T, out=scratch)
        lt |= np.less(col, col.T, out=scratch)
    dom = np.logical_and(le, lt, out=le)  # dom[i, j]: i dominates j

    n_dominators = dom.sum(axis=0)
    fronts: list[list[int]] = []
    current = np.flatnonzero(n_dominators == 0)
    while len(current):
        fronts.append([int(i) for i in current])
        n_dominators[current] = -1  # assigned
        freed = dom[current].sum(axis=0)
        n_dominators = n_dominators - freed
        current = np.flatnonzero(n_dominators == 0)
    return fronts


def crowding_distance(front_fitness: np.ndarray) -> np.ndarray:
    """Crowding distance of one front; boundary points get +inf per objective.

    Objectives with zero (or non-finite) spread contribute nothing. Fronts of
    one or two members are entirely boundary, hence all +inf.
    """
    f = np.asarray(front_fitness, dtype=float)
    if f.ndim != 2 or len(f) == 0:
        raise ValueError("front must be a non-empty (N, m) array")
    n = len(f)
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for m in range(f.shape[1]):
        order = np.argsort(f[:, m], kind="stable")
        values = f[order, m]
        # Python floats: an all -inf column (empty nsga2d archive) gives nan unwarned.
        spread = float(values[-1]) - float(values[0])
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if spread == 0 or not math.isfinite(spread):
            continue
        gaps = (values[2:] - values[:-2]) / spread
        dist[order[1:-1]] += gaps
    return dist


def rank_and_crowd(fitness: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Front rank and crowding distance per individual."""
    fronts = fast_nondominated_sort(fitness)
    ranks = np.empty(len(fitness), dtype=int)
    crowd = np.empty(len(fitness))
    for rank, front in enumerate(fronts):
        ranks[front] = rank
        crowd[front] = crowding_distance(fitness[front])
    return ranks, crowd


def environmental_selection(
    fitness: np.ndarray, mu: int
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Standard NSGA-II truncation: whole fronts, then crowding inside the split front.

    Returns the survivors with their ranks and crowding distances, equal bit
    for bit to ``rank_and_crowd(fitness[survivors])``: the fronts kept whole
    keep their ranks, and each kept front's crowding is measured in survivor
    order.
    """
    chosen: list[int] = []
    ranks: list[int] = []
    crowding: list[np.ndarray] = []
    for rank, front in enumerate(fast_nondominated_sort(fitness)):
        room = mu - len(chosen)
        if len(front) > room:
            order = np.argsort(-crowding_distance(fitness[front]), kind="stable")
            front = [front[i] for i in order[:room]]
        chosen.extend(front)
        ranks.extend([rank] * len(front))
        crowding.append(crowding_distance(fitness[front]))
        if len(chosen) == mu:
            break
    return chosen, np.array(ranks), np.concatenate(crowding)


def binary_tournament(
    rng: np.random.Generator, ranks: Sequence[int], crowding: Sequence[float]
) -> int:
    """Pick the better of two random individuals: lower rank, then higher crowding."""
    # Two scalar draws: the values and state of one integers(n, size=2), at half the cost.
    i, j = int(rng.integers(len(ranks))), int(rng.integers(len(ranks)))
    if ranks[i] != ranks[j]:
        return i if ranks[i] < ranks[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i


def sbx_crossover(
    space: SearchSpace,
    p1: Sequence[float],
    p2: Sequence[float],
    rate: float,
    eta: float,
    rng: np.random.Generator,
) -> tuple[list[float], list[float]]:
    """Simulated binary crossover into two float lists; with probability 1 - rate
    the parents pass through as copies."""
    if len(p1) != len(p2):
        raise ValueError("parents must share a dimensionality")
    if rng.random() >= rate:
        return list(p1), list(p2)
    exponent = 1.0 / (eta + 1.0)
    c1, c2 = [], []
    for a, b in zip(p1, p2):
        u = rng.random()
        beta = (2.0 * u) ** exponent if u <= 0.5 else (1.0 / (2.0 * (1.0 - u))) ** exponent
        c1.append(0.5 * ((1.0 + beta) * a + (1.0 - beta) * b))
        c2.append(0.5 * ((1.0 - beta) * a + (1.0 + beta) * b))
    return space.clip(c1), space.clip(c2)


def polynomial_mutation(
    space: SearchSpace,
    x: Sequence[float],
    rate: float,
    eta: float,
    rng: np.random.Generator,
) -> list[float]:
    """Deb's polynomial mutation of a point in the box, applied per variable with
    probability ``rate``; returns a float list."""
    power = eta + 1.0
    exponent = 1.0 / power
    y = list(x)
    for j, (lo, hi) in enumerate(space.bounds):
        if rng.random() >= rate:
            continue
        width = hi - lo
        u = rng.random()
        if u < 0.5:
            rel = (y[j] - lo) / width
            delta = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - rel) ** power) ** exponent - 1.0
        else:
            rel = (hi - y[j]) / width
            delta = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - rel) ** power) ** exponent
        y[j] += delta * width
    return space.clip(y)


# --- novelty archive ---------------------------------------------------------


@dataclass(eq=False)
class NoveltyArchive:
    """Failure archive with a minimum-distance admission gate.

    Candidates are processed sequentially: each accepted member immediately
    affects the admission of later candidates in the same generation. The
    members are one ``(n, d)`` matrix, so a whole population is measured in
    one query.
    """

    threshold: float
    members: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __len__(self) -> int:
        return len(self.members)


def novelty_distance(archive: NoveltyArchive, x: np.ndarray) -> float | np.ndarray:
    """Distance to the nearest archive member, +inf when the archive is empty.

    One candidate ``(d,)`` gives a float; a batch ``(n, d)`` gives one distance
    per row, each bit-identical to ``np.min(np.linalg.norm(members - row, axis=1))``.
    """
    X = np.asarray(x, dtype=float)
    one = X.ndim == 1
    if one:
        X = X[None, :]
    if len(archive):
        d = row_norms(archive.members[None, :, :] - X[:, None, :]).min(axis=1)
    else:
        d = np.full(len(X), math.inf)
    return float(d[0]) if one else d


def archive_insert(archive: NoveltyArchive, candidate: np.ndarray) -> bool:
    """Append the candidate iff it is farther than the threshold from all members."""
    candidate = np.asarray(candidate, dtype=float)
    if len(archive) and novelty_distance(archive, candidate) <= archive.threshold:
        return False
    archive.members = np.vstack([archive.members.reshape(-1, candidate.size), candidate])
    return True


# --- run loops ----------------------------------------------------------------


def _make_offspring(
    space: SearchSpace,
    population: np.ndarray,
    ranks: np.ndarray,
    crowding: np.ndarray,
    config: Nsga2Config,
    rng: np.random.Generator,
) -> np.ndarray:
    """One generation of children, made on float lists and returned as one array."""
    parents, ranks, crowding = population.tolist(), ranks.tolist(), crowding.tolist()
    offspring: list[list[float]] = []
    while len(offspring) < config.population_size:
        a = binary_tournament(rng, ranks, crowding)
        b = binary_tournament(rng, ranks, crowding)
        c1, c2 = sbx_crossover(
            space, parents[a], parents[b], config.crossover_rate, config.sbx_eta, rng
        )
        room = config.population_size - len(offspring)
        offspring.extend(
            polynomial_mutation(space, child, config.mutation_rate, config.pm_eta, rng)
            for child in (c1, c2)[:room]
        )
    return np.array(offspring)


def run_nsga2(problem: ProblemDefinition, config: Nsga2Config, seed: int) -> RunLog:
    """NSGA-II with LHS initialization, binary tournaments, SBX and polynomial mutation.

    Emits exactly ``config.budget`` evaluations; a final partial generation is
    truncated once the budget runs out.

    An :class:`NsgaDConfig` turns on diversification (``nsga2d``). Selection
    and sorting then see an extra minimized objective, minus the distance to
    the nearest archived failure, which each evaluation logs as its
    ``novelty``. The archive holds failures from *previous* generations only:
    each generation's failures are offered at its end, in evaluation order, so
    a fresh failure is never measured against itself. After each selection the
    most dominated survivors (worst front first, lowest crowding first) are
    replaced by fresh uniform samples.
    """
    rng = make_rng(seed)
    log = RunLog(problem, config.budget)
    space = problem.space
    mu = config.population_size
    diversified = isinstance(config, NsgaDConfig)
    if diversified:
        archive = NoveltyArchive(threshold=config.archive_threshold)
        n_replace = math.ceil(config.repopulation_fraction * mu)
    pending_failures: list[np.ndarray] = []

    def evaluate(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the rows of ``X`` the budget still covers; return them and their fitness."""
        X = X[: log.remaining]
        start = len(log)
        for x in X:
            log.evaluate(x)
        rows = log.evaluations[start:]
        if diversified:
            # The archive changes only in commit_failures, so one query serves the batch.
            rows.novelty = novelty_distance(archive, X)
            pending_failures.extend(rows.input[rows.failed])
        return X, rows.fitness.copy()

    def commit_failures() -> None:
        for failure in pending_failures:
            archive_insert(archive, failure)
        pending_failures.clear()

    def objectives(X: np.ndarray, F: np.ndarray) -> np.ndarray:
        return np.column_stack([F, -novelty_distance(archive, X)]) if diversified else F

    population, fitness = evaluate(lhs_sample(space, mu, rng))
    commit_failures()
    ranks, crowding = rank_and_crowd(objectives(population, fitness))

    while log.remaining > 0:
        log.generation += 1
        offspring = _make_offspring(space, population, ranks, crowding, config, rng)
        offspring, child_fitness = evaluate(offspring)
        combined = np.concatenate([population, offspring])
        combined_fitness = np.concatenate([fitness, child_fitness])
        survivors, ranks, crowding = environmental_selection(
            objectives(combined, combined_fitness), mu
        )
        population = combined[survivors]
        fitness = combined_fitness[survivors]

        if diversified and log.remaining > 0:
            # Repopulation: victims ordered worst front first, least crowded first,
            # by the selection's ranks (the archive has not changed since).
            victims = np.lexsort((crowding, -ranks))[: min(n_replace, log.remaining)]
            fresh = uniform_sample(space, len(victims), rng)
            population[victims], fitness[victims] = evaluate(fresh)
            commit_failures()
            ranks, crowding = rank_and_crowd(objectives(population, fitness))

    return log
