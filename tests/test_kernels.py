"""The Poisson-disc, furthest-point, non-dominated-sort and problem-fitness
kernels against the implementations they replaced.

``dict_grid_poisson``, ``loop_fps``, ``broadcast_sort`` and the ``stack_*``
fitness functions are the earlier versions, copied verbatim, kept here as
references: the kernels must return exactly the same points, fronts and
fitness, compared with ``==``, and the samplers must leave their generator in
the same state (same draws, same order).
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failcover.algorithms import fast_nondominated_sort
from failcover.core import SearchSpace, unit_box
from failcover.coverage import _cache_key
from failcover.problems import _AVP_TARGET, TWO_REGION_BOXES, VARIANTS, get_problem
from failcover.samplers import (
    DEFAULT_POISSON_ATTEMPTS,
    FPS_POOL_CAP,
    FPS_POOL_PER_POINT,
    _sum_rows_pairwise,
    fps_sample,
    grid_sample,
    make_rng,
    poisson_disc_sample,
)


def dict_grid_poisson(space, r, rng, attempts_per_point=DEFAULT_POISSON_ATTEMPTS):
    """Reference: dict-of-lists cell grid, one ``np.linalg.norm`` per neighbour."""
    dims = space.dims
    cell = r / math.sqrt(dims)
    # Neighbors within r span at most ceil(sqrt(dims)) cells along each axis.
    reach = math.ceil(math.sqrt(dims))
    offsets = list(product(range(-reach, reach + 1), repeat=dims))

    def cell_index(point: np.ndarray) -> tuple[int, ...]:
        return tuple(((point - space.lows) // cell).astype(int))

    points: list[np.ndarray] = []
    grid: dict[tuple[int, ...], list[int]] = {}

    def too_close(candidate: np.ndarray) -> bool:
        base = cell_index(candidate)
        for off in offsets:
            bucket = grid.get(tuple(b + o for b, o in zip(base, off)))
            if bucket is None:
                continue
            for idx in bucket:
                if np.linalg.norm(candidate - points[idx]) < r:
                    return True
        return False

    def accept(point: np.ndarray) -> None:
        grid.setdefault(cell_index(point), []).append(len(points))
        points.append(point)
        active.append(len(points) - 1)

    active: list[int] = []
    accept(rng.uniform(space.lows, space.highs))

    while active:
        slot = int(rng.integers(len(active)))
        base_point = points[active[slot]]
        for _ in range(attempts_per_point):
            direction = rng.normal(size=dims)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                continue
            # Radius density uniform over the annulus volume [r, 2r].
            radius = r * (rng.random() * (2.0**dims - 1.0) + 1.0) ** (1.0 / dims)
            candidate = base_point + direction / norm * radius
            if np.any(candidate < space.lows) or np.any(candidate > space.highs):
                continue
            if too_close(candidate):
                continue
            accept(candidate)
            break
        else:
            active[slot] = active[-1]
            active.pop()

    return np.array(points)


def loop_fps(space, n, rng, candidate_pool_size=None, pool=None):
    """Reference: one ``np.linalg.norm(pool - p, axis=1)`` per selected point."""
    if pool is None:
        if candidate_pool_size is None:
            candidate_pool_size = max(n, min(FPS_POOL_PER_POINT * space.dims * n, FPS_POOL_CAP))
        pool = rng.uniform(space.lows, space.highs, size=(candidate_pool_size, space.dims))
    else:
        pool = np.asarray(pool, dtype=float)

    first = int(np.argmin(np.linalg.norm(pool - space.center, axis=1)))
    selected = [first]
    min_dist = np.linalg.norm(pool - pool[first], axis=1)
    for _ in range(n - 1):
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(pool - pool[nxt], axis=1))
    return pool[selected]


def broadcast_sort(fitness):
    """Reference: dominance from (N, N, m) broadcasts."""
    f = np.asarray(fitness, dtype=float)
    le = np.all(f[:, None, :] <= f[None, :, :], axis=2)
    lt = np.any(f[:, None, :] < f[None, :, :], axis=2)
    dom = le & lt  # dom[i, j]: i dominates j

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


def assert_same_points_and_draws(got, rng_got, want, rng_want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


# --- poisson disc -------------------------------------------------------------------


SKEWED_BOX = SearchSpace(((-2.0, 3.0), (0.25, 0.75), (10.0, 11.5)))


@pytest.mark.parametrize(
    "space, radii",
    [
        (unit_box(2), [0.05, 0.12, 0.35, 1.5]),
        (unit_box(3), [0.15, 0.3, 2.0]),
        (unit_box(4), [0.35, 0.6, 3.0]),
        (SKEWED_BOX, [0.25, 0.5]),
    ],
    ids=["2d", "3d", "4d", "3d-skewed"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_poisson_matches_dict_grid_reference(space, radii, seed):
    for r in radii:
        rng_new, rng_ref = make_rng(seed, 7), make_rng(seed, 7)
        got = poisson_disc_sample(space, r, rng_new)
        want = dict_grid_poisson(space, r, rng_ref)
        assert_same_points_and_draws(got, rng_new, want, rng_ref)


def test_poisson_radius_beyond_box_gives_one_point_like_reference():
    rng_new, rng_ref = make_rng(4), make_rng(4)
    got = poisson_disc_sample(unit_box(3), 2.5, rng_new)
    assert len(got) == 1
    assert_same_points_and_draws(got, rng_new, dict_grid_poisson(unit_box(3), 2.5, rng_ref),
                                 rng_ref)


def test_poisson_few_attempts_matches_reference():
    rng_new, rng_ref = make_rng(8), make_rng(8)
    got = poisson_disc_sample(unit_box(2), 0.05, rng_new, attempts_per_point=2)
    want = dict_grid_poisson(unit_box(2), 0.05, rng_ref, attempts_per_point=2)
    assert_same_points_and_draws(got, rng_new, want, rng_ref)


# --- furthest point sampling --------------------------------------------------------


# Dimensions 8 and up reach numpy's blocked pairwise summation, and 129 up its
# recursive halving. Selections rarely hinge on the last bit of a distance, so
# the distances themselves are compared too.
@pytest.mark.parametrize("dims", [1, 2, 3, 7, 8, 9, 15, 16, 17, 64, 128, 129, 136, 300])
def test_column_sums_equal_numpy_row_norm_exactly(dims):
    pool = make_rng(dims).uniform(-3.0, 7.0, size=(400, dims))
    squares = np.ascontiguousarray(pool.T) - pool[17][:, None]
    squares *= squares
    got = np.sqrt(_sum_rows_pairwise(squares))
    assert np.array_equal(got, np.linalg.norm(pool - pool[17], axis=1))


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 8, 9, 17, 130])
@pytest.mark.parametrize("n", [1, 2, 25])
def test_fps_random_pool_matches_loop_reference(dims, n):
    space = SearchSpace(tuple((-1.0 - j, 2.0 + 0.5 * j) for j in range(dims)))
    rng_new, rng_ref = make_rng(dims, n), make_rng(dims, n)
    got = fps_sample(space, n, rng_new, candidate_pool_size=600)
    want = loop_fps(space, n, rng_ref, candidate_pool_size=600)
    assert_same_points_and_draws(got, rng_new, want, rng_ref)


def test_fps_default_pool_matches_loop_reference():
    rng_new, rng_ref = make_rng(12), make_rng(12)
    got = fps_sample(unit_box(3), 40, rng_new)
    assert_same_points_and_draws(got, rng_new, loop_fps(unit_box(3), 40, rng_ref), rng_ref)


@pytest.mark.parametrize("dims", [2, 3, 9])
def test_fps_explicit_pool_with_ties_matches_loop_reference(dims):
    # An integer lattice with repeated nodes: many equal distances, so argmax
    # and argmin ties decide the picks.
    rng = make_rng(30 + dims)
    pool = rng.integers(0, 4, size=(300, dims)).astype(float)
    space = SearchSpace(tuple((0.0, 3.0) for _ in range(dims)))
    for n in (1, 5, 60):
        got = fps_sample(space, n, make_rng(0), pool=pool)
        assert np.array_equal(got, loop_fps(space, n, make_rng(0), pool=pool))


def test_fps_explicit_pool_of_n_points_matches_loop_reference():
    pool = make_rng(3).uniform(0, 1, size=(7, 2))
    got = fps_sample(unit_box(2), 7, make_rng(0), pool=pool)
    assert np.array_equal(got, loop_fps(unit_box(2), 7, make_rng(0), pool=pool))


# --- non-dominated sort -------------------------------------------------------------


@st.composite
def tie_heavy_fitness(draw):
    """Integer fitness on a 0..3 grid with duplicated rows, m in 1..4, N in 1..60."""
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                         min_size=1, max_size=40))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=20))
    return np.array(rows + [rows[i] for i in repeats], dtype=float)


@given(tie_heavy_fitness())
@settings(max_examples=300, deadline=None)
def test_sort_matches_broadcast_reference(fitness):
    assert fast_nondominated_sort(fitness) == broadcast_sort(fitness)


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (5, 1), (40, 1), (400, 4)])
def test_sort_edge_shapes_match_broadcast_reference(shape):
    fitness = make_rng(sum(shape)).integers(0, 5, size=shape).astype(float)
    assert fast_nondominated_sort(fitness) == broadcast_sort(fitness)


# --- problem fitness ------------------------------------------------------------------


def stack_two_ball(c1, c2):
    """Reference: two_ball's fitness_batch with ``np.linalg.norm`` and ``np.stack``."""
    a = np.asarray(c1, dtype=float)
    b = np.asarray(c2, dtype=float)

    def fitness_batch(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return np.stack(
            [np.linalg.norm(pts - a, axis=1), np.linalg.norm(pts - b, axis=1)], axis=1
        )

    return fitness_batch


def stack_box_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    excess = np.maximum(np.maximum(lo - points, points - hi), 0.0)
    return np.linalg.norm(excess, axis=1)


def stack_two_region(boxes):
    """Reference: two_region's fitness_batch with ``np.linalg.norm`` and ``np.stack``."""
    (a_lo, a_hi), (b_lo, b_hi) = (
        (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)) for lo, hi in boxes
    )
    center_a = (a_lo + a_hi) / 2.0

    def fitness_batch(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        f1 = np.minimum(stack_box_distance(pts, a_lo, a_hi), stack_box_distance(pts, b_lo, b_hi))
        f2 = np.linalg.norm(pts - center_a, axis=1)
        return np.stack([f1, f2], axis=1)

    return fitness_batch


def stack_avp_analog():
    """Reference: avp_analog's fitness_batch with ``np.linalg.norm`` and ``np.stack``."""

    def fitness_batch(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        f1 = np.linalg.norm(pts[:, :2] - _AVP_TARGET, axis=1) - 0.2 * np.sin(
            3.0 * np.pi * pts[:, 2]
        )
        f2 = -pts[:, 0] * (1.0 - 0.5 * pts[:, 2])
        return np.stack([f1, f2], axis=1)

    return fitness_batch


CUSTOM_BALL = {"c1": (0.2, 0.3), "c2": (0.7, 0.65), "t1": 0.4, "t2": 0.35}
CUSTOM_BOXES = (((0.05, 0.1), (0.3, 0.45)), ((0.5, 0.6), (0.95, 0.9)))

#: (problem, params, reference fitness_batch, fitness_probe digest of the cache key)
FITNESS_CASES = [
    pytest.param("two_ball", {}, stack_two_ball((0.45, 0.5), (0.55, 0.5)),
                 "bb4e7a4652e277d42ace01fa2af20409011488475c0609d62aae174054058496",
                 id="two_ball"),
    pytest.param("two_ball", CUSTOM_BALL, stack_two_ball(CUSTOM_BALL["c1"], CUSTOM_BALL["c2"]),
                 "c09430adc7a80289e97750fc0a3d6c59f4f3c8ec48f8edc7851642fc8ecf1dbf",
                 id="two_ball-custom"),
    pytest.param("two_region", {}, stack_two_region(TWO_REGION_BOXES),
                 "3e84fb74554914f9ddcc4435412aa5b4001bc3026deba3d66a407274a9c02486",
                 id="two_region"),
    pytest.param("two_region", {"margin": 0.07}, stack_two_region(TWO_REGION_BOXES),
                 "3e84fb74554914f9ddcc4435412aa5b4001bc3026deba3d66a407274a9c02486",
                 id="two_region-margin"),
    pytest.param("two_region", {"boxes": CUSTOM_BOXES, "margin": 0.07},
                 stack_two_region(CUSTOM_BOXES),
                 "28ff117cd386665e9fcb7d9710f8234dd6e9b2aca1fd712a07812e7e6409b10f",
                 id="two_region-boxes"),
    pytest.param("avp_analog", {}, stack_avp_analog(),
                 "7d431a09deaf68bbb4e60342089ad71ecb176b9d3dad35cbb5b5d30189f83e27",
                 id="avp_analog"),
]


def fitness_probe_points(space: SearchSpace) -> np.ndarray:
    """Random points, every box corner and every node of a 33-per-axis grid."""
    random = make_rng(11).uniform(space.lows, space.highs, size=(20_000, space.dims))
    corners = np.array(list(product(*space.bounds)))
    return np.concatenate([random, corners, grid_sample(space, 33)])


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name, params, reference, probe_digest", FITNESS_CASES)
def test_fitness_batch_matches_stack_reference(name, params, reference, probe_digest, variant):
    problem = get_problem(name, variant, **params)
    points = fitness_probe_points(problem.space)
    got, want = problem.fitness_batch(points), reference(points)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert (got == want).all()
    assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 compare equal, bytes do not
    for x in points[::97]:
        got_one = problem.fitness(x)
        assert got_one.tobytes() == np.asarray(reference(x[None, :])[0], dtype=float).tobytes()
    assert _cache_key(problem, "grid", {"k": 8})["fitness_probe"] == probe_digest
