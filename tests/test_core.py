"""Core model: dominance, oracles, search spaces, and the evaluation log."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failcover.core import (
    BudgetExhausted,
    OracleSpec,
    ProblemDefinition,
    RunLog,
    SearchSpace,
    dominates,
    unit_box,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vectors(dim: int):
    return st.lists(finite_floats, min_size=dim, max_size=dim)


# --- dominance ---------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((1, 2), (2, 3), True),  # strict improvement in both
        ((1, 2), (1, 2), False),  # equal vectors never dominate
        ((1, 3), (2, 2), False),  # trade-off, mutually non-dominated
        ((1, 2), (1, 3), True),  # equal in one, better in the other
    ],
)
def test_dominates_examples(a, b, expected):
    assert dominates(a, b) is expected


def test_dominates_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        dominates([1, 2], [1, 2, 3])


@given(vectors(3), vectors(3))
@settings(max_examples=200, deadline=None)
def test_dominates_antisymmetry(a, b):
    if dominates(a, b):
        assert not dominates(b, a)


@given(vectors(3))
@settings(max_examples=100, deadline=None)
def test_dominates_irreflexive(a):
    assert not dominates(a, a)


@given(vectors(2), vectors(2), vectors(2))
@settings(max_examples=300, deadline=None)
def test_dominates_transitivity(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


# --- oracles -----------------------------------------------------------------


def test_oracle_single_clause_strict():
    oracle = OracleSpec(clauses=((0, -0.5),))
    assert oracle.mask([-0.6]) is np.True_
    assert oracle.mask([-0.5]) is np.False_  # strict inequality at the boundary


def test_oracle_conjunction():
    oracle = OracleSpec(clauses=((0, -0.7), (1, -1.0)))
    assert oracle.mask([-0.75, -1.5]) is np.True_
    assert oracle.mask([-0.75, -0.5]) is np.False_
    assert oracle.mask([-0.6, -1.5]) is np.False_


def test_oracle_invalid_index():
    oracle = OracleSpec(clauses=((2, 0.0),))
    with pytest.raises(ValueError, match="objective 2"):
        oracle.mask([1.0, 2.0])
    with pytest.raises(ValueError, match="objective 2"):
        oracle.mask(np.zeros((4, 2)))


def test_oracle_needs_clauses():
    with pytest.raises(ValueError, match="clause"):
        OracleSpec(clauses=())


def test_oracle_variant_monotonicity():
    # Nested thresholds: failure under Small implies Medium implies Large.
    large = OracleSpec(clauses=((0, -0.5),), variant_label="Large")
    medium = OracleSpec(clauses=((0, -0.7),), variant_label="Medium")
    small = OracleSpec(clauses=((0, -0.95),), variant_label="Small")
    rng = np.random.default_rng(42)
    for f in rng.uniform(-1.2, 0.2, size=(500, 1)):
        if small.mask(f):
            assert medium.mask(f)
        if medium.mask(f):
            assert large.mask(f)


# --- search space -------------------------------------------------------------


def test_search_space_validation():
    with pytest.raises(ValueError, match="dimension"):
        SearchSpace(())
    with pytest.raises(ValueError, match="bounds\\[1\\]"):
        SearchSpace(((0.0, 1.0), (2.0, 2.0)))


def test_search_space_contains_and_clip():
    space = SearchSpace(((0.0, 1.0), (-1.0, 2.0)))
    assert space.dims == 2
    assert space.contains(np.array([0.0, 2.0]))
    assert not space.contains(np.array([1.1, 0.0]))
    assert not space.contains(np.array([0.5]))
    np.testing.assert_allclose(space.clip(np.array([1.5, -3.0])), [1.0, -1.0])
    np.testing.assert_allclose(space.center, [0.5, 0.5])


# --- evaluation log -----------------------------------------------------------


def _toy_fitness(X: np.ndarray) -> np.ndarray:
    return np.stack([X[:, 0], X[:, 1] - 1.0], axis=1)


def _toy_problem(fitness_batch=_toy_fitness) -> ProblemDefinition:
    return ProblemDefinition(
        name="toy",
        space=unit_box(2),
        objective_count=2,
        fitness_batch=fitness_batch,
        oracle=OracleSpec(clauses=((1, -0.5),)),
    )


def test_runlog_indices_and_verdicts():
    log = RunLog(_toy_problem(), budget=3)
    e0 = log.evaluate([0.2, 0.1])  # f2 = -0.9 -> failure
    log.generation = 1
    e1 = log.evaluate([0.2, 0.9])  # f2 = -0.1 -> pass
    assert (e0.index, e1.index) == (0, 1)
    assert e0.failed and not e1.failed
    assert (e0.generation, e1.generation) == (0, 1)
    assert log.remaining == 1


def test_runlog_budget_exhausted():
    log = RunLog(_toy_problem(), budget=1)
    log.evaluate([0.5, 0.5])
    with pytest.raises(BudgetExhausted):
        log.evaluate([0.5, 0.5])


def test_runlog_rejects_out_of_bounds():
    log = RunLog(_toy_problem(), budget=1)
    with pytest.raises(ValueError, match="outside"):
        log.evaluate([1.5, 0.5])


def test_runlog_deterministic_fitness():
    log = RunLog(_toy_problem(), budget=2)
    a = log.evaluate([0.3, 0.7])
    b = log.evaluate([0.3, 0.7])
    np.testing.assert_array_equal(a.fitness, b.fitness)


def test_problem_rejects_bad_oracle_index():
    with pytest.raises(ValueError, match="objective"):
        ProblemDefinition(
            name="bad",
            space=unit_box(1),
            objective_count=1,
            fitness_batch=lambda X: X,
            oracle=OracleSpec(clauses=((3, 0.0),)),
        )


def test_history_records_run_identity():
    log = RunLog(_toy_problem(), budget=3)
    log.evaluate([0.2, 0.1])
    log.evaluate([0.2, 0.9])
    log.evaluate([0.7, 0.2])
    hist = log.history("toy-algo", seed=5)
    assert [ev.failed for ev in hist.evaluations] == [True, False, True]
    assert hist.seed == 5 and hist.algorithm_name == "toy-algo"


def test_fitness_is_row_zero_of_a_one_row_batch():
    seen = []

    def fitness_batch(X):
        seen.append(X.copy())
        return _toy_fitness(X)

    f = _toy_problem(fitness_batch).fitness([0.25, 0.5])
    assert len(seen) == 1 and seen[0].shape == (1, 2) and seen[0].dtype == float
    assert f.shape == (2,) and f.tolist() == [0.25, -0.5]


@pytest.mark.parametrize(
    "fitness_batch, shape",
    [
        (lambda X: X[0], r"\(2,\)"),  # one fitness vector instead of a one-row batch
        (lambda X: np.concatenate([X, X]), r"\(2, 2\)"),  # two rows for one input
        (lambda X: X[:, :1], r"\(1, 1\)"),  # too few objectives
    ],
)
def test_fitness_rejects_a_batch_of_the_wrong_shape(fitness_batch, shape):
    with pytest.raises(ValueError, match=rf"toy: fitness_batch returned shape {shape}"):
        _toy_problem(fitness_batch).fitness(np.array([0.25, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fitness_rejects_non_finite_values(bad):
    problem = _toy_problem(lambda X: np.stack([X[:, 0], np.full(len(X), bad)], axis=1))
    with pytest.raises(ValueError, match="not finite"):
        problem.fitness(np.array([0.25, 0.5]))
