"""Core model: dominance, oracles, search spaces, and the run log."""

import math

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


#: Values on, inside and outside the bounds below, both zeros, infinities and NaN.
CLIP_VALUES = [-math.inf, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0, math.inf, math.nan]


@pytest.mark.parametrize(
    "lo, hi", [(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0), (-2.0, 2.0)]
)
def test_clip_equals_np_clip_on_ties_signed_zeros_and_nan(lo, hi):
    # The reference is the earlier array clip, np.clip against the bound arrays:
    # it returns the bound on a tie (-0.0 at a lower bound of 0.0 becomes 0.0)
    # and keeps NaN, which the bounds check in RunLog.evaluate then rejects.
    # np.clip with scalar bounds keeps the value on a tie instead.
    space = SearchSpace(((lo, hi),) * len(CLIP_VALUES))
    got = space.clip(CLIP_VALUES)
    assert all(type(v) is float for v in got)
    want = np.clip(np.array(CLIP_VALUES), space.lows, space.highs)
    assert np.array(got).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        space.clip(CLIP_VALUES[:-1])


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
    f0 = log.evaluate([0.2, 0.1])  # f2 = -0.9 -> failure
    log.generation = 1
    f1 = log.evaluate([0.2, 0.9])  # f2 = -0.1 -> pass
    e0, e1 = log.evaluations
    assert f0.tolist() == e0.fitness.tolist() and f1.tolist() == e1.fitness.tolist()
    assert e0.input.tolist() == [0.2, 0.1] and e1.input.tolist() == [0.2, 0.9]
    assert e0.failed and not e1.failed
    assert (e0.generation, e1.generation) == (0, 1)
    assert log.remaining == 1 and len(log) == 2


def test_runlog_with_budget_left_counts_only_the_filled_rows():
    log = RunLog(_toy_problem(), budget=5)
    log.evaluate([0.2, 0.1])
    log.evaluate([0.7, 0.8])
    assert len(log) == 2 and len(log.evaluations) == 2 and log.remaining == 3
    assert len(log.table) == 5
    ev = log.evaluations
    assert ev.input.shape == (2, 2) and ev.fitness.shape == (2, 2)
    assert ev.failed.tolist() == [True, False]
    assert ev.generation.dtype == np.int64 and ev.generation.tolist() == [0, 0]
    assert np.isnan(log.table.novelty).all()  # nothing logged a novelty
    assert [bool(row.failed) for row in ev] == [True, False]  # rows read as records


def test_runlog_evaluations_is_a_view_of_the_table():
    log = RunLog(_toy_problem(), budget=3)
    log.evaluate([0.2, 0.1])
    log.evaluations.novelty[0] = 0.5
    assert log.table.novelty[0] == 0.5 and np.isnan(log.table.novelty[1:]).all()


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
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(*log.evaluations.fitness)


def test_problem_rejects_bad_oracle_index():
    with pytest.raises(ValueError, match="objective"):
        ProblemDefinition(
            name="bad",
            space=unit_box(1),
            objective_count=1,
            fitness_batch=lambda X: X,
            oracle=OracleSpec(clauses=((3, 0.0),)),
        )


def test_runlog_records_verdicts_in_order():
    log = RunLog(_toy_problem(), budget=3)
    log.evaluate([0.2, 0.1])
    log.evaluate([0.2, 0.9])
    log.evaluate([0.7, 0.2])
    assert log.evaluations.failed.tolist() == [True, False, True]
    assert log.remaining == 0


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
