"""Core problem model: search spaces, vector fitness, failure oracles, Pareto
dominance, and the run log, one table of evaluations, shared by every search
algorithm.

A problem is one :class:`ProblemDefinition`: a box, a batch fitness mapping
``(N, dims)`` inputs to ``(N, objective_count)`` values, and an oracle.
:meth:`ProblemDefinition.fitness` is the one caller of that batch fitness: it
takes one input or a batch and checks the shape and finiteness of what comes
back, so the run log, reference sets and ``doi_volume_estimate`` apply the
same check.

Conventions used throughout the package:

* all fitness values are minimized,
* a test input is a plain 1-D ``numpy`` array of floats,
* a fitness vector is a plain 1-D ``numpy`` array of floats,
* an oracle flags *failure* when every one of its strict upper bounds holds.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TextIO

import numpy as np


@contextmanager
def atomic_open(path: Path) -> Iterator[TextIO]:
    """Write a temporary sibling of ``path`` and move it into place only on success."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def check_integer(name: str, value: object) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer (``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_finite_real(name: str, value: object) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a non-bool real in float range."""
    finite = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


class BudgetExhausted(Exception):
    """Raised by ``RunLog.evaluate`` past the budget.

    No runner catches it: each one stops on ``RunLog.remaining`` before
    asking for an evaluation the budget does not hold.
    """


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box of search variables, one (lo, hi) pair per dimension."""

    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        if len(bounds) < 1:
            raise ValueError("search space needs at least one dimension")
        for i, (lo, hi) in enumerate(bounds):
            if not lo < hi:
                raise ValueError(f"bounds[{i}]: lower bound must be below upper, got ({lo}, {hi})")
        object.__setattr__(self, "bounds", bounds)

    @property
    def dims(self) -> int:
        return len(self.bounds)

    @cached_property
    def lows(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.bounds])

    @cached_property
    def highs(self) -> np.ndarray:
        return np.array([hi for _, hi in self.bounds])

    @property
    def widths(self) -> np.ndarray:
        return self.highs - self.lows

    @property
    def center(self) -> np.ndarray:
        return (self.lows + self.highs) / 2.0

    def contains(self, x: np.ndarray) -> bool:
        """True when ``x`` has the right dimensionality and lies inside the box."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dims,):
            return False
        # Python comparisons on the same doubles: NaN fails both, as in numpy.
        return all(lo <= v <= hi for v, (lo, hi) in zip(x.tolist(), self.bounds))

    def clip(self, x: Sequence[float]) -> list[float]:
        """The values of ``np.clip(x, lows, highs)`` as a float list, ties and NaN included."""
        bounds = zip(x, self.bounds, strict=True)
        return [lo if v <= lo else hi if v >= hi else v for v, (lo, hi) in bounds]


def unit_box(dims: int) -> SearchSpace:
    """The [0, 1]^dims search space."""
    return SearchSpace(tuple((0.0, 1.0) for _ in range(dims)))


def dominates(a: Sequence[float] | np.ndarray, b: Sequence[float] | np.ndarray) -> bool:
    """Pareto dominance under minimization.

    ``a`` dominates ``b`` when it is nowhere worse and strictly better in at
    least one component. The components are compared one pair at a time with
    ``<=`` and ``<``, so a NaN on either side rules dominance out.
    """
    if len(a) != len(b):
        raise ValueError(f"fitness vectors differ in length: ({len(a)},) vs ({len(b)},)")
    better = False
    for x, y in zip(a, b):
        if x < y:
            better = True
        elif not x <= y:
            return False
    return better


@dataclass(frozen=True)
class OracleSpec:
    """Failure predicate: a conjunction of strict upper bounds on fitness values.

    Each clause is an ``(objective_index, threshold)`` pair; a fitness vector
    reveals a failure when every clause's strict ``<`` comparison holds.
    Variant labels (Large/Medium/Small) tag the graded oracle families whose
    failure regions are nested from loosest to strictest.
    """

    clauses: tuple[tuple[int, float], ...]
    variant_label: str = "Custom"

    def __post_init__(self) -> None:
        clauses = tuple((int(i), float(t)) for i, t in self.clauses)
        if not clauses:
            raise ValueError("oracle needs at least one clause")
        for i, _ in clauses:
            if i < 0:
                raise ValueError(f"objective index must be non-negative, got {i}")
        object.__setattr__(self, "clauses", clauses)

    @cached_property
    def max_index(self) -> int:
        return max(i for i, _ in self.clauses)

    def mask(self, fitness: Sequence[float] | np.ndarray) -> np.ndarray | np.bool_:
        """Failure verdict of one fitness vector, or of each row of an (n, m) matrix."""
        f = np.asarray(fitness, dtype=float)
        if self.max_index >= f.shape[-1]:
            raise ValueError(
                f"oracle refers to objective {self.max_index} but fitness has {f.shape[-1]} values"
            )
        objectives = f.T  # objectives[i] is f[..., i] for a vector or a matrix
        (i, threshold), *rest = self.clauses
        failed = objectives[i] < threshold
        for i, threshold in rest:
            failed = failed & (objectives[i] < threshold)
        return failed


@dataclass(frozen=True)
class ProblemDefinition:
    """A testing problem: box search space, pure batch fitness, failure oracle."""

    name: str
    space: SearchSpace
    objective_count: int
    #: Vectorized fitness: (N, dims) -> (N, objective_count).
    fitness_batch: Callable[[np.ndarray], np.ndarray]
    oracle: OracleSpec

    def __post_init__(self) -> None:
        if self.objective_count < 1:
            raise ValueError("problem needs at least one objective")
        if self.oracle.max_index >= self.objective_count:
            raise ValueError(
                f"oracle refers to objective {self.oracle.max_index} "
                f"but problem has {self.objective_count}"
            )

    def fitness(self, x: np.ndarray) -> np.ndarray:
        """Fitness of one input ``(dims,)`` or of each row of a batch ``(n, dims)``.

        One input is a one-row batch and gets its ``(objective_count,)`` row
        back; a batch gets ``(n, objective_count)``. Raises ``ValueError``
        unless ``fitness_batch`` returns that many rows of that many finite
        values; a non-finite batch names its first offending row.
        """
        X = np.asarray(x, dtype=float)
        one = X.ndim == 1
        if one:
            X = X[None, :]
        f = np.asarray(self.fitness_batch(X), dtype=float)
        if f.shape != (len(X), self.objective_count):
            raise ValueError(
                f"{self.name}: fitness_batch returned shape {f.shape} for {len(X)} input(s), "
                f"expected ({len(X)}, {self.objective_count})"
            )
        if not all(map(math.isfinite, f.ravel().tolist())):
            row = int(np.argmin(np.isfinite(f).all(axis=1)))
            raise ValueError(
                f"{self.name}: fitness is not finite for row {row}, input {X[row]!r}: {f[row]!r}"
            )
        return f[0] if one else f


class RunLog:
    """Budget counter and evaluation table of one run.

    The table is one ``np.recarray`` of ``budget`` rows, preallocated, with the
    columns ``input (dims,)``, ``fitness (objective_count,)``, ``failed``,
    ``generation`` and ``novelty``. Algorithms set ``generation`` before each
    batch and call :meth:`evaluate` once per candidate; the log enforces
    bounds, counts the budget, applies the oracle and fills the next row.
    ``generation`` is ``row // batch_size`` for rs; 0 for NSGA-II's initial
    population, then g for generation g's offspring and repopulated victims;
    and for OMOPSO 0 for the initial swarm, then one more per swarm pass.
    ``novelty`` stays NaN unless the algorithm writes it (nsga2d logs each
    input's distance to its novelty archive). :attr:`evaluations` is the
    filled part of the table, and ``len(log)`` its row count.
    """

    def __init__(self, problem: ProblemDefinition, budget: int):
        check_integer("budget", budget)
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        self.problem = problem
        self.budget = int(budget)
        self.generation = 0
        self.used = 0
        self.table = np.zeros(self.budget, dtype=[
            ("input", float, (problem.space.dims,)),
            ("fitness", float, (problem.objective_count,)),
            ("failed", bool),
            ("generation", np.int64),
            ("novelty", float),
        ]).view(np.recarray)
        self.table.novelty = np.nan
        # Plain ndarray views of the columns, for the per-evaluation writes.
        self._input = self.table.input
        self._fitness = self.table.fitness
        self._failed = self.table.failed
        self._generation = self.table.generation

    def __len__(self) -> int:
        return self.used

    @property
    def remaining(self) -> int:
        return self.budget - self.used

    @property
    def evaluations(self) -> np.recarray:
        """The filled rows, in evaluation order; a view of the table."""
        return self.table[: self.used]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Spend one budget unit on ``x``, log it in the next row, return its fitness."""
        i = self.used
        if i >= self.budget:
            raise BudgetExhausted(f"budget of {self.budget} evaluations is spent")
        x = np.array(x, dtype=float)
        if not self.problem.space.contains(x):
            raise ValueError(f"input {x!r} is outside the search space")
        f = self.problem.fitness(x)
        self._input[i] = x
        self._fitness[i] = f
        self._failed[i] = self.problem.oracle.mask(f)
        self._generation[i] = self.generation
        self.used = i + 1
        return f
