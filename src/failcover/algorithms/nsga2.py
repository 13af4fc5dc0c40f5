"""NSGA-II and its diversified variant.

The diversified variant (``nsga2d``) extends plain NSGA-II with an archive of
previously found failures, a novelty objective (distance to the nearest
archived failure, maximized), and a repopulation step that swaps the most
dominated survivors for fresh uniform samples each generation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core import ProblemDefinition, RunHistory, RunLog, SearchSpace, check_integer
from ..samplers import lhs_sample, make_rng


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
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
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


def environmental_selection(fitness: np.ndarray, mu: int) -> list[int]:
    """Standard NSGA-II truncation: whole fronts, then crowding inside the split front."""
    chosen: list[int] = []
    for front in fast_nondominated_sort(fitness):
        if len(chosen) + len(front) <= mu:
            chosen.extend(front)
            if len(chosen) == mu:
                break
            continue
        crowd = crowding_distance(fitness[front])
        order = np.argsort(-crowd, kind="stable")
        chosen.extend(front[i] for i in order[: mu - len(chosen)])
        break
    return chosen


def binary_tournament(
    rng: np.random.Generator, ranks: np.ndarray, crowding: np.ndarray
) -> int:
    """Pick the better of two random individuals: lower rank, then higher crowding."""
    i, j = (int(v) for v in rng.integers(len(ranks), size=2))
    if ranks[i] != ranks[j]:
        return i if ranks[i] < ranks[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i


def sbx_crossover(
    space: SearchSpace,
    p1: np.ndarray,
    p2: np.ndarray,
    rate: float,
    eta: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover; with probability 1 - rate the parents pass through."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise ValueError("parents must share a dimensionality")
    if rng.random() >= rate:
        return p1.copy(), p2.copy()
    c1 = np.empty_like(p1)
    c2 = np.empty_like(p2)
    for j in range(len(p1)):
        u = rng.random()
        if u <= 0.5:
            beta = (2.0 * u) ** (1.0 / (eta + 1.0))
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (eta + 1.0))
        c1[j] = 0.5 * ((1.0 + beta) * p1[j] + (1.0 - beta) * p2[j])
        c2[j] = 0.5 * ((1.0 - beta) * p1[j] + (1.0 + beta) * p2[j])
    return space.clip(c1), space.clip(c2)


def polynomial_mutation(
    space: SearchSpace,
    x: np.ndarray,
    rate: float,
    eta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Deb's polynomial mutation, applied per variable with probability ``rate``."""
    y = np.array(x, dtype=float)
    lows, highs = space.lows, space.highs
    for j in range(len(y)):
        if rng.random() >= rate:
            continue
        width = highs[j] - lows[j]
        u = rng.random()
        if u < 0.5:
            rel = (y[j] - lows[j]) / width
            delta = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - rel) ** (eta + 1.0)) ** (
                1.0 / (eta + 1.0)
            ) - 1.0
        else:
            rel = (highs[j] - y[j]) / width
            delta = 1.0 - (
                2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - rel) ** (eta + 1.0)
            ) ** (1.0 / (eta + 1.0))
        y[j] += delta * width
    return space.clip(y)


# --- novelty archive ---------------------------------------------------------


@dataclass
class NoveltyArchive:
    """Failure archive with a minimum-distance admission gate.

    Candidates are processed sequentially: each accepted member immediately
    affects the admission of later candidates in the same generation. The
    members are also held as one ``(n, d)`` matrix, built on first use and
    dropped by each insert, so a whole population is measured in one query.
    """

    threshold: float
    members: list[np.ndarray] = field(default_factory=list)
    _matrix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.members)

    def member_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.array(self.members)
        return self._matrix


def novelty_distances(archive: NoveltyArchive, candidates: np.ndarray) -> np.ndarray:
    """Distance from each candidate row to its nearest archive member; +inf when empty.

    Each row is bit-identical to ``np.min(np.linalg.norm(members - x, axis=1))``:
    the same differences, squares, sums over the last axis and square roots.
    """
    X = np.asarray(candidates, dtype=float)
    if not archive.members:
        return np.full(len(X), math.inf)
    diff = archive.member_matrix()[None, :, :] - X[:, None, :]
    return np.sqrt(np.add.reduce(diff * diff, axis=-1)).min(axis=1)


def novelty_distance(archive: NoveltyArchive, candidate: np.ndarray) -> float:
    """Euclidean distance to the nearest archive member; +inf for an empty archive."""
    return float(novelty_distances(archive, np.asarray(candidate, float)[None, :])[0])


def archive_insert(archive: NoveltyArchive, candidate: np.ndarray) -> bool:
    """Append the candidate iff it is farther than the threshold from all members."""
    candidate = np.array(candidate, dtype=float)
    if archive.members and novelty_distance(archive, candidate) <= archive.threshold:
        return False
    archive.members.append(candidate)
    archive._matrix = None
    return True


# --- run loops ----------------------------------------------------------------


def _make_offspring(
    space: SearchSpace,
    population: np.ndarray,
    ranks: np.ndarray,
    crowding: np.ndarray,
    config: Nsga2Config,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    offspring: list[np.ndarray] = []
    while len(offspring) < config.population_size:
        a = binary_tournament(rng, ranks, crowding)
        b = binary_tournament(rng, ranks, crowding)
        c1, c2 = sbx_crossover(
            space, population[a], population[b], config.crossover_rate, config.sbx_eta, rng
        )
        for child in (c1, c2):
            if len(offspring) >= config.population_size:
                break
            offspring.append(
                polynomial_mutation(space, child, config.mutation_rate, config.pm_eta, rng)
            )
    return offspring


def run_nsga2(problem: ProblemDefinition, config: Nsga2Config, seed: int) -> RunHistory:
    """NSGA-II with LHS initialization, binary tournaments, SBX and polynomial mutation.

    Emits exactly ``config.budget`` evaluations; a final partial generation is
    truncated once the budget runs out.
    """
    rng = make_rng(seed)
    log = RunLog(problem, config.budget)
    space = problem.space

    population = lhs_sample(space, config.population_size, rng)
    fitness = np.array([log.evaluate(x).fitness for x in population])
    ranks, crowding = rank_and_crowd(fitness)

    while log.remaining > 0:
        log.generation += 1
        offspring = _make_offspring(space, population, ranks, crowding, config, rng)
        evaluated: list[np.ndarray] = []
        child_fitness: list[np.ndarray] = []
        for child in offspring:
            if log.remaining <= 0:
                break
            evaluated.append(child)
            child_fitness.append(log.evaluate(child).fitness)
        combined = np.concatenate([population, np.array(evaluated)])
        combined_fitness = np.concatenate([fitness, np.array(child_fitness)])
        survivors = environmental_selection(combined_fitness, config.population_size)
        population = combined[survivors]
        fitness = combined_fitness[survivors]
        ranks, crowding = rank_and_crowd(fitness)

    return log.history("nsga2", seed)


def run_nsga2d(problem: ProblemDefinition, config: NsgaDConfig, seed: int) -> RunHistory:
    """Diversified NSGA-II: novelty objective, failure archive, repopulation.

    Selection and sorting see an extra minimized objective, minus the distance
    to the nearest archived failure. The archive holds failures from *previous*
    generations only: each generation's failures are offered at its end, in
    evaluation order, so a fresh failure is never measured against itself.
    After each selection the most dominated survivors (worst front first,
    lowest crowding first) are replaced by fresh uniform samples.
    """
    rng = make_rng(seed)
    log = RunLog(problem, config.budget)
    space = problem.space
    archive = NoveltyArchive(threshold=config.archive_threshold)
    n_replace = math.ceil(config.repopulation_fraction * config.population_size)
    pending_failures: list[np.ndarray] = []

    def record(x: np.ndarray, novelty: float) -> np.ndarray:
        ev = log.evaluate(x)
        ev.novelty = float(novelty)
        if ev.failed:
            pending_failures.append(ev.input)
        return ev.fitness

    def commit_failures() -> None:
        for failure in pending_failures:
            archive_insert(archive, failure)
        pending_failures.clear()

    def augmented(pop: np.ndarray, fit: np.ndarray) -> np.ndarray:
        return np.column_stack([fit, -novelty_distances(archive, pop)])

    population = lhs_sample(space, config.population_size, rng)
    fitness = np.array([record(x, math.inf) for x in population])  # the archive is empty
    commit_failures()
    ranks, crowding = rank_and_crowd(augmented(population, fitness))

    while log.remaining > 0:
        log.generation += 1
        offspring = _make_offspring(space, population, ranks, crowding, config, rng)
        # The archive changes only in commit_failures, so one query serves the batch.
        offspring_novelty = novelty_distances(archive, np.array(offspring))
        evaluated: list[np.ndarray] = []
        child_fitness: list[np.ndarray] = []
        for child, novelty in zip(offspring, offspring_novelty):
            if log.remaining <= 0:
                break
            evaluated.append(child)
            child_fitness.append(record(child, novelty))
        combined = np.concatenate([population, np.array(evaluated)])
        combined_fitness = np.concatenate([fitness, np.array(child_fitness)])
        survivors = environmental_selection(augmented(combined, combined_fitness),
                                            config.population_size)
        population = combined[survivors]
        fitness = combined_fitness[survivors]

        # Repopulation: victims ordered worst front first, least crowded first.
        if log.remaining > 0:
            ranks, crowding = rank_and_crowd(augmented(population, fitness))
            victim_order = sorted(
                range(len(population)), key=lambda i: (-ranks[i], crowding[i], i)
            )
            for i in victim_order[:n_replace]:
                if log.remaining <= 0:
                    break
                fresh = rng.uniform(space.lows, space.highs)
                population[i] = fresh
                fitness[i] = record(fresh, novelty_distance(archive, fresh))

        commit_failures()
        ranks, crowding = rank_and_crowd(augmented(population, fitness))

    return log.history("nsga2d", seed)
