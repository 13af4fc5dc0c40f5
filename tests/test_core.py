"""Core model: dominance, oracles, search spaces, and the run log."""

import itertools
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
    check_integer,
    dominates,
    row_norms,
    unit_box,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vectors(dim: int):
    return st.lists(finite_floats, min_size=dim, max_size=dim)


def test_check_integer_takes_an_optional_minimum():
    check_integer("k", 3, 3)
    check_integer("k", np.int64(-2))
    with pytest.raises(ValueError, match="^k must be at least 3, got 2$"):
        check_integer("k", 2, 3)
    with pytest.raises(ValueError, match="^k must be at least 0, got -1$"):
        check_integer("k", np.int64(-1), 0)
    for value in (True, False, 2.0, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            check_integer("k", value, 0)


#: Signed zeros, magnitudes whose squares underflow or overflow, and plain values.
NORM_VALUES = [0.0, -0.0, 1e-200, -1e-200, 1e200, -1e200, 0.3, -2.5, 7.0]


@pytest.mark.parametrize("shape", [(81, 2), (9, 9, 2), (18, 9)])
def test_row_norms_equal_linalg_norm_as_bytes(shape):
    d = np.array(list(itertools.product(NORM_VALUES, repeat=2))).reshape(shape)
    with np.errstate(over="ignore"):
        got, want = row_norms(d), np.linalg.norm(d, axis=-1)
    assert got.shape == want.shape == shape[:-1]
    assert got.tobytes() == want.tobytes()


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


def mask_dominates(a, b) -> bool:
    """Dominance as array masks, the form the float comparisons replaced."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"fitness vectors differ in length: {a.shape} vs {b.shape}")
    return bool((a <= b).all() and (a < b).any())


SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])


@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(SPECIAL | finite_floats, min_size=m, max_size=m),
    st.lists(SPECIAL | finite_floats, min_size=m, max_size=m))), st.booleans())
@settings(max_examples=500, deadline=None)
def test_dominates_equals_the_array_masks_on_signed_zeros_infinities_and_nan(pair, as_array):
    a, b = (np.array(v) for v in pair) if as_array else pair
    assert dominates(a, b) is mask_dominates(a, b)
    assert dominates(b, a) is mask_dominates(b, a)


@pytest.mark.parametrize("a, b", [([1.0, 2.0], [1.0, 2.0, 3.0]), ([math.nan], []),
                                  (np.zeros(3), np.zeros(2)), ([], [0.0])])
def test_dominates_raises_the_array_error_on_mismatched_lengths(a, b):
    with pytest.raises(ValueError) as want:
        mask_dominates(a, b)
    with pytest.raises(ValueError) as got:
        dominates(a, b)
    assert str(got.value) == str(want.value)


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


@pytest.mark.parametrize("clause, message", [
    ((1.7, 0.0), "objective index must be an integer, got 1.7"),
    ((True, 0.0), "objective index must be an integer, got True"),
    ((-1, 0.0), "objective index must be at least 0, got -1"),
    ((0, math.nan), "oracle threshold must be a finite real number, got nan"),
    ((0, -math.inf), "oracle threshold must be a finite real number, got -inf"),
    ((0, "0.5"), "oracle threshold must be a finite real number, got '0.5'"),
])
def test_oracle_refuses_a_bad_clause(clause, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        OracleSpec(clauses=((0, 1.0), clause))


def test_oracle_takes_numpy_scalars_as_plain_numbers():
    oracle = OracleSpec(clauses=((np.int64(1), np.float64(0.5)),))
    assert oracle.clauses == ((1, 0.5),)
    assert [type(v) for v in oracle.clauses[0]] == [int, float]


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


@pytest.mark.parametrize("bounds", [
    ((0.0, math.inf),), ((-math.inf, 0.0),), ((-1e308, 1e308),), ((0.0, 1.0), (-1e308, 1e308)),
])
def test_search_space_refuses_a_box_of_infinite_width(bounds):
    # Such a box made uniform draws overflow, lhs return inf and grid return NaN.
    with pytest.raises(ValueError, match=rf"bounds\[{len(bounds) - 1}\]: width must be finite"):
        SearchSpace(bounds)


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


def array_contains(space, x):
    """The earlier bounds check, numpy comparisons and reductions over the vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (space.dims,):
        return False
    return bool(((x >= space.lows) & (x <= space.highs)).all())


# A box of infinite width is refused, so the widest bounds here are finite.
@pytest.mark.parametrize(
    "lo, hi", [(0.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (-1e308, 0.5), (-1.0, 1e308)]
)
def test_contains_equals_the_array_expression_on_edge_values(lo, hi):
    space = SearchSpace(((lo, hi), (-1.0, 1.0)))
    beside = [math.nextafter(b, to) for b in (lo, hi) for to in (-math.inf, math.inf)]
    for v in CLIP_VALUES + beside:
        for w in (0.0, -1.0, 1.0, math.nan):
            for x in ([v, w], [w, v], [v], [v, w, 0.0], [[v, w]]):
                assert space.contains(x) is array_contains(space, x)
                assert space.contains(np.array(x)) is array_contains(space, x)


@given(
    data=st.data(),
    dims=st.integers(1, 4),
    shape=st.sampled_from(["vector", "short", "long", "row", "scalar"]),
)
@settings(max_examples=400, deadline=None)
def test_contains_equals_the_array_expression(data, dims, shape):
    bound = st.sampled_from(CLIP_VALUES[:-1]) | st.floats(-10.0, 10.0)
    # An infinite bound is still drawn as a coordinate, but a box must have finite width.
    pair = st.tuples(bound, bound).filter(lambda b: b[0] < b[1] and math.isfinite(b[1] - b[0]))
    space = SearchSpace(tuple(data.draw(st.lists(pair, min_size=dims, max_size=dims))))
    # Coordinates on the bounds, just beside them, or anywhere, NaN and inf included.
    coord = (st.sampled_from([v for lo_hi in space.bounds for v in lo_hi] + CLIP_VALUES)
             | st.sampled_from([math.nextafter(v, d) for lo_hi in space.bounds for v in lo_hi
                                for d in (-math.inf, math.inf)])
             | st.floats())
    size = {"vector": dims, "short": dims - 1, "long": dims + 1, "row": dims,
            "scalar": 1}[shape]
    x = data.draw(st.lists(coord, min_size=size, max_size=size))
    if shape == "row":
        x = [x]
    elif shape == "scalar":
        x = x[0]
    if data.draw(st.booleans()):
        x = np.array(x)
    assert space.contains(x) is array_contains(space, x)


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


BATCH = np.array([[0.1, 0.2], [0.3, 0.7], [0.9, 0.4]])


def test_fitness_of_a_batch_is_one_checked_batch_call():
    seen = []

    def fitness_batch(X):
        seen.append(X.copy())
        return _toy_fitness(X)

    problem = _toy_problem(fitness_batch)
    f = problem.fitness(BATCH)
    assert len(seen) == 1 and seen[0].tolist() == BATCH.tolist()
    assert f.shape == (3, 2) and f.tolist() == _toy_fitness(BATCH).tolist()
    for x, row in zip(BATCH, f):
        assert problem.fitness(x).tolist() == row.tolist()


@pytest.mark.parametrize(
    "fitness_batch, shape",
    [
        (lambda X: X[:2], r"\(2, 2\)"),  # a row short
        (lambda X: X[:, :1], r"\(3, 1\)"),  # too few objectives
        (lambda X: np.column_stack([X, X[:, 0]]), r"\(3, 3\)"),  # too many objectives
    ],
)
def test_fitness_rejects_a_batch_result_of_the_wrong_shape(fitness_batch, shape):
    with pytest.raises(ValueError, match=rf"toy: fitness_batch returned shape {shape}"):
        _toy_problem(fitness_batch).fitness(BATCH)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fitness_of_a_batch_names_the_first_non_finite_row(bad):
    problem = _toy_problem(lambda X: np.where(X > 0.6, bad, X))
    with pytest.raises(ValueError) as raised:
        problem.fitness(BATCH)
    message = str(raised.value)
    assert message.startswith("toy: fitness is not finite for row 1, input array([0.3, 0.7])")
    assert "0.9" not in message  # the offending row, not the whole batch
