"""The Poisson-disc, furthest-point, non-dominated-sort and problem-fitness
kernels, environmental selection, the NSGA-II variation and OMOPSO swarm
operators, and the NSGA-II, random-search and OMOPSO run loops against the
implementations they replaced.

``dict_grid_poisson``, ``loop_fps``, ``broadcast_sort``, the ``stack_*``
fitness functions, the ``two_loop_*`` NSGA-II functions, the ``array_*``
operators and run loop, ``SizeTwoDrawArchive``, ``loop_reflect_boundary`` and
``one_row_run_random_search`` are the earlier versions, copied verbatim, kept
here as references: the kernels must return exactly the same points, fronts,
fitness, children and run histories, compared with ``==`` (and byte for byte
where -0.0 can arise), and must leave their generator in the same state (same
draws, same order).
The copies differ from the originals only in the names they call each other
by.
"""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failcover.algorithms import (
    Nsga2Config,
    NsgaDConfig,
    OmopsoConfig,
    RandomSearchConfig,
    run_nsga2,
    run_omopso,
    run_random_search,
)
from failcover.algorithms.nsga2 import (
    NoveltyArchive,
    _make_offspring,
    archive_insert,
    binary_tournament,
    crowding_distance,
    environmental_selection,
    fast_nondominated_sort,
    novelty_distance,
    polynomial_mutation,
    rank_and_crowd,
    sbx_crossover,
)
from failcover.algorithms.omopso import (
    LeaderArchive,
    _nonuniform_turbulence,
    _uniform_turbulence,
    inertia_at,
    reflect_boundary,
)
from failcover.core import ProblemDefinition, RunLog, SearchSpace, dominates, unit_box
from failcover.coverage import _cache_key
from failcover.problems import _AVP_TARGET, TWO_REGION_BOXES, VARIANTS, get_problem
from failcover.samplers import (
    DEFAULT_POISSON_ATTEMPTS,
    FPS_POOL_CAP,
    FPS_POOL_PER_POINT,
    _closer_than,
    _sum_rows_pairwise,
    fps_sample,
    grid_sample,
    lhs_sample,
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


def test_poisson_benchmark_case_matches_reference():
    # The refset-3d benchmark's sampler: avp_analog's unit cube, r=0.08, and the
    # sampler seed its workload seed 1 derives.
    rng_new, rng_ref = make_rng(596854), make_rng(596854)
    got = poisson_disc_sample(unit_box(3), 0.08, rng_new)
    want = dict_grid_poisson(unit_box(3), 0.08, rng_ref)
    assert len(got) > 1000
    assert_same_points_and_draws(got, rng_new, want, rng_ref)


@pytest.mark.parametrize("space", [unit_box(1), SearchSpace(((-3.5, 4.25),))], ids=["unit", "wide"])
@pytest.mark.parametrize("r", [0.01, 0.3, 7.0])
def test_poisson_1d_matches_reference(space, r):
    rng_new, rng_ref = make_rng(11), make_rng(11)
    got = poisson_disc_sample(space, r, rng_new)
    assert_same_points_and_draws(got, rng_new, dict_grid_poisson(space, r, rng_ref), rng_ref)


@pytest.mark.parametrize("space, r", [(unit_box(2), 0.03), (unit_box(3), 0.1), (SKEWED_BOX, 0.3)])
def test_poisson_one_attempt_per_point_matches_reference(space, r):
    rng_new, rng_ref = make_rng(12), make_rng(12)
    got = poisson_disc_sample(space, r, rng_new, attempts_per_point=1)
    want = dict_grid_poisson(space, r, rng_ref, attempts_per_point=1)
    assert_same_points_and_draws(got, rng_new, want, rng_ref)


# r**2 is subnormal: the squares in ddot keep a few bits, so only ddot itself
# may decide which neighbours are too close.
@pytest.mark.parametrize("space, r", [
    (SearchSpace(((0.0, 2e-160), (0.0, 2e-160))), 1e-161),
    (SearchSpace(((0.0, 4e-161),)), 1e-162),
], ids=["2d", "1d"])
def test_poisson_with_a_subnormal_r_squared_matches_reference(space, r):
    rng_new, rng_ref = make_rng(13), make_rng(13)
    got = poisson_disc_sample(space, r, rng_new)
    want = dict_grid_poisson(space, r, rng_ref)
    assert len(got) > 10
    assert_same_points_and_draws(got, rng_new, want, rng_ref)


def offsets_near(r, dims, seed, step):
    """Pairs (a, b) whose offset b - a has a length within 6 ``step`` of ``r``."""
    rng = make_rng(seed)
    for _ in range(40):
        a = rng.uniform(-2.0, 2.0, size=dims) * r
        u = rng.normal(size=dims)
        u /= np.linalg.norm(u)
        for k in range(-6, 7):
            b = a + u * (r + k * step)
            yield a.tolist(), b.tolist()


@pytest.mark.parametrize("dims", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("r", [0.08, 0.3, 1.0, 7.5, 1e-3])
def test_closer_than_on_lengths_within_ulps_of_r_equals_norm(dims, r):
    closer = _closer_than(r)
    verdicts = set()
    for a, b in offsets_near(r, dims, seed=dims, step=math.ulp(r)):
        want = bool(np.linalg.norm(np.subtract(a, b)) < r)
        assert closer(a, b) == want
        # math.dist lands in the band where ddot decides.
        assert abs(math.dist(a, b) - r) <= 1e-9 * r
        verdicts.add(want)
    assert verdicts == {True, False}


# Subnormal squares carry a few significant bits, so ddot's verdict can differ
# from the exact one a thousandth from r; _closer_than must still return
# ddot's. Squares that overflow make ddot infinite, in the reference as well.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("r", [1e-160, 3e-158, 1e155, 1e160])
@pytest.mark.parametrize("dims", [2, 3])
def test_closer_than_at_the_ends_of_the_double_range_equals_norm(r, dims):
    closer = _closer_than(r)
    for a, b in offsets_near(r, dims, seed=dims, step=1e-4 * r):
        assert closer(a, b) == bool(np.linalg.norm(np.subtract(a, b)) < r)


@given(
    a=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
    b=st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
    r=st.floats(1e-6, 10.0),
)
@settings(max_examples=300, deadline=None)
def test_closer_than_equals_norm(a, b, r):
    assert _closer_than(r)(a, b) == bool(np.linalg.norm(np.subtract(a, b)) < r)


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


def two_norm_two_ball(c1, c2):
    """Reference: two_ball's fitness_batch as one ``_row_norms`` expression per centre."""
    a = np.asarray(c1, dtype=float)
    b = np.asarray(c2, dtype=float)

    def fitness_batch(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.empty((len(pts), 2))
        out[:, 0] = np.sqrt(np.add.reduce((pts - a) * (pts - a), axis=1))
        out[:, 1] = np.sqrt(np.add.reduce((pts - b) * (pts - b), axis=1))
        return out

    return fitness_batch


#: Unit-square rows on the bounds, at the corners and with each sign of zero.
EDGE_ROWS = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1.0, 1.0],
                      [0.0, 1.0], [1.0, -0.0], [-0.0, 0.5], [0.45, 0.5], [0.55, 0.5],
                      [0.5, 0.5], [1.0, 0.25]])


@pytest.mark.parametrize("centres", [{}, {"c1": (0.0, 0.0), "c2": (1.0, 1.0)},
                                     {"c1": (-0.0, 0.5), "c2": (0.5, -0.0)},
                                     {"c1": (0.2, 0.3), "c2": (0.7, 0.65)}])
def test_two_ball_broadcast_kernel_equals_two_row_norms(centres):
    problem = get_problem("two_ball", "Large", **centres)
    reference = two_norm_two_ball(centres.get("c1", (0.45, 0.5)), centres.get("c2", (0.55, 0.5)))
    rng = make_rng(7)
    batches = [EDGE_ROWS, rng.uniform(0.0, 1.0, size=(5_000, 2)), np.empty((0, 2))]
    for batch in batches:
        got, want = problem.fitness_batch(batch), reference(batch)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
    # One row gives the doubles of the same row inside a batch.
    batch = np.concatenate([EDGE_ROWS, batches[1][:100]])
    whole = problem.fitness_batch(batch)
    for k, x in enumerate(batch):
        assert problem.fitness_batch(x[None, :]).tobytes() == whole[k : k + 1].tobytes()
        assert problem.fitness(x).tobytes() == whole[k].tobytes()


# --- NSGA-II: environmental selection and the generation loop ----------------------


def two_loop_environmental_selection(fitness: np.ndarray, mu: int) -> list[int]:
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


def two_loop_run_nsga2(problem: ProblemDefinition, config: Nsga2Config, seed: int) -> RunLog:
    """NSGA-II with LHS initialization, binary tournaments, SBX and polynomial mutation.

    Emits exactly ``config.budget`` evaluations; a final partial generation is
    truncated once the budget runs out.
    """
    rng = make_rng(seed)
    log = RunLog(problem, config.budget)
    space = problem.space

    population = lhs_sample(space, config.population_size, rng)
    fitness = np.array([log.evaluate(x) for x in population])
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
            child_fitness.append(log.evaluate(child))
        combined = np.concatenate([population, np.array(evaluated)])
        combined_fitness = np.concatenate([fitness, np.array(child_fitness)])
        survivors = two_loop_environmental_selection(combined_fitness, config.population_size)
        population = combined[survivors]
        fitness = combined_fitness[survivors]
        ranks, crowding = rank_and_crowd(fitness)

    return log


def two_loop_run_nsga2d(problem: ProblemDefinition, config: NsgaDConfig, seed: int) -> RunLog:
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
        f = log.evaluate(x)
        ev = log.evaluations[-1]
        ev.novelty = float(novelty)
        if ev.failed:
            pending_failures.append(ev.input)
        return f

    def commit_failures() -> None:
        for failure in pending_failures:
            archive_insert(archive, failure)
        pending_failures.clear()

    def augmented(pop: np.ndarray, fit: np.ndarray) -> np.ndarray:
        return np.column_stack([fit, -novelty_distance(archive, pop)])

    population = lhs_sample(space, config.population_size, rng)
    fitness = np.array([record(x, math.inf) for x in population])  # the archive is empty
    commit_failures()
    ranks, crowding = rank_and_crowd(augmented(population, fitness))

    while log.remaining > 0:
        log.generation += 1
        offspring = _make_offspring(space, population, ranks, crowding, config, rng)
        # The archive changes only in commit_failures, so one query serves the batch.
        offspring_novelty = novelty_distance(archive, np.array(offspring))
        evaluated: list[np.ndarray] = []
        child_fitness: list[np.ndarray] = []
        for child, novelty in zip(offspring, offspring_novelty):
            if log.remaining <= 0:
                break
            evaluated.append(child)
            child_fitness.append(record(child, novelty))
        combined = np.concatenate([population, np.array(evaluated)])
        combined_fitness = np.concatenate([fitness, np.array(child_fitness)])
        survivors = two_loop_environmental_selection(augmented(combined, combined_fitness),
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

    return log


def assert_same_history(got: RunLog, want: RunLog) -> None:
    assert got.problem is want.problem and len(got) == len(want)
    for column in ("input", "fitness", "failed", "generation", "novelty"):
        a, b = got.evaluations[column], want.evaluations[column]
        assert a.dtype == b.dtype and a.shape == b.shape
        same = (a == b) | (np.isnan(a) & np.isnan(b)) if column == "novelty" else a == b
        assert same.all()
        assert a.tobytes() == b.tobytes()  # -0.0 and 0.0 compare equal, bytes do not


#: (population, budget): the budgets end between generations (nsga2 at 20,
#: 600), in the middle of the offspring, or in the middle of nsga2d's
#: repopulation (20, 481 at the default fraction; 6, 437 at 0.5).
NSGA2_RUNS = [(6, 437), (20, 481), (20, 600), (40, 437), (40, 1013)]


@pytest.mark.parametrize("population, budget", NSGA2_RUNS)
@pytest.mark.parametrize("variant", ["Large", "Small"])
@pytest.mark.parametrize("problem_name", ["two_ball", "two_region", "avp_analog"])
def test_run_nsga2_matches_two_loop_reference(problem_name, variant, population, budget):
    problem = get_problem(problem_name, variant)
    seed = population + budget
    configs = [
        (Nsga2Config(population_size=population, budget=budget), two_loop_run_nsga2),
        (NsgaDConfig(population_size=population, budget=budget), two_loop_run_nsga2d),
        (NsgaDConfig(population_size=population, budget=budget, repopulation_fraction=0.5,
                     archive_threshold=0.05), two_loop_run_nsga2d),
    ]
    for config, reference in configs:
        assert_same_history(run_nsga2(problem, config, seed), reference(problem, config, seed))


@given(tie_heavy_fitness())
@settings(max_examples=200, deadline=None)
def test_environmental_selection_returns_the_survivors_ranks_and_crowding(fitness):
    fronts = fast_nondominated_sort(fitness)
    # Every mu: the exact fits end on a whole front, every other mu splits one.
    exact_fits = {sum(len(f) for f in fronts[: j + 1]) for j in range(len(fronts))}
    for mu in range(1, len(fitness) + 1):
        survivors, ranks, crowding = environmental_selection(fitness, mu)
        assert list(survivors) == two_loop_environmental_selection(fitness, mu)
        want_ranks, want_crowding = rank_and_crowd(fitness[survivors])
        assert ranks.dtype == want_ranks.dtype and (ranks == want_ranks).all()
        assert crowding.tobytes() == want_crowding.tobytes()
        if mu in exact_fits:
            assert sorted(survivors) == sorted(i for f in fronts[: ranks.max() + 1] for i in f)


# --- variation and swarm operators on float lists -----------------------------------
#
# The ``array_*`` functions, ``SizeTwoDrawArchive.select_leader``,
# ``loop_reflect_boundary`` and the two run loops below are the array-based
# versions the float-list operators replaced, copied verbatim; they differ only
# in the names they call each other by, and ``array_clip`` is the array
# ``SearchSpace.clip`` they called.


def array_clip(space: SearchSpace, x: np.ndarray) -> np.ndarray:
    return np.clip(np.asarray(x, dtype=float), space.lows, space.highs)


def array_binary_tournament(
    rng: np.random.Generator, ranks: np.ndarray, crowding: np.ndarray
) -> int:
    """Pick the better of two random individuals: lower rank, then higher crowding."""
    i, j = (int(v) for v in rng.integers(len(ranks), size=2))
    if ranks[i] != ranks[j]:
        return i if ranks[i] < ranks[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i


def array_sbx_crossover(
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
    return array_clip(space, c1), array_clip(space, c2)


def array_polynomial_mutation(
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
    return array_clip(space, y)


def array_uniform_turbulence(
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
    return array_clip(space, y)


def array_nonuniform_turbulence(
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
    return array_clip(space, y)


class SizeTwoDrawArchive(LeaderArchive):
    def select_leader(self, rng: np.random.Generator) -> list[float]:
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


def loop_reflect_boundary(
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


def one_row_run_random_search(
    problem: ProblemDefinition, config: RandomSearchConfig, seed: int
) -> RunLog:
    """Uniform random search; ``batch_size`` groups evaluations into pseudo-generations.

    The generation index floor(index / batch_size) makes iteration counts
    comparable with population-based algorithms run at that population size.
    """
    rng = make_rng(seed)
    log = RunLog(problem, config.budget)
    space = problem.space
    while log.remaining > 0:
        log.generation = log.used // config.batch_size
        log.evaluate(rng.uniform(space.lows, space.highs))
    return log


def array_run_omopso(problem: ProblemDefinition, config: OmopsoConfig, seed: int) -> RunLog:
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

    archive = SizeTwoDrawArchive(config.effective_archive_size)
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
                positions[i, j], velocities[i, j] = loop_reflect_boundary(
                    positions[i, j], velocities[i, j], lo, hi
                )
            if i % 3 == 0:
                positions[i] = array_uniform_turbulence(
                    space, positions[i], config.mutation_rate, rng
                )
            elif i % 3 == 1:
                positions[i] = array_nonuniform_turbulence(
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


def assert_same_floats(got, want) -> None:
    """Equal with ``==`` and byte for byte, so -0.0 and 0.0 count as different."""
    assert all(type(v) is float for v in got)
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert (got == want).all()
    assert got.tobytes() == want.tobytes()


def assert_same_draws(rng_got: np.random.Generator, rng_want: np.random.Generator) -> None:
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


#: Axes whose bounds include 0.0 and -0.0, so ±0.0 values sit on a bound.
AXES = [(0.0, 1.0), (-1.0, 0.0), (-0.0, 1.0), (-2.0, 3.0), (0.25, 0.75), (10.0, 11.5)]


@st.composite
def box_and_points(draw, count: int):
    """A box of 1 to 8 axes and ``count`` float lists inside it, with values on the
    bounds, ±0.0 where the box holds zero, and arbitrary values in between."""
    bounds = draw(st.lists(st.sampled_from(AXES), min_size=1, max_size=8))
    points = []
    for _ in range(count):
        point = []
        for lo, hi in bounds:
            special = [v for v in (lo, hi, 0.0, -0.0) if lo <= v <= hi]
            point.append(draw(st.sampled_from(special) | st.floats(lo, hi)))
        points.append(point)
    return SearchSpace(tuple(bounds)), points


RATES = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
ETAS = st.sampled_from([0.0, 0, 15, 20.0]) | st.floats(0.0, 60.0)
SEEDS = st.integers(0, 2**32 - 1)


@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0.0, 0.5, 2.0, math.inf])),
                min_size=1, max_size=40), SEEDS)
@settings(max_examples=200, deadline=None)
def test_binary_tournament_matches_size_two_draw_reference(members, seed):
    ranks = [rank for rank, _ in members]
    crowding = [crowd for _, crowd in members]
    rng_got, rng_want = make_rng(seed), make_rng(seed)
    for _ in range(20):
        assert binary_tournament(rng_got, ranks, crowding) == array_binary_tournament(
            rng_want, np.array(ranks), np.array(crowding)
        )
        assert rng_got.random() == rng_want.random()
    assert_same_draws(rng_got, rng_want)


@given(st.integers(1, 10**6), SEEDS)
@settings(max_examples=200, deadline=None)
def test_scalar_integer_draws_match_size_two_draw(n, seed):
    # All ranks and crowding equal: each tournament returns its first draw.
    ranks, crowding = [0] * n, [1.0] * n
    rng_got, rng_want = make_rng(seed), make_rng(seed)
    for _ in range(10):
        got = binary_tournament(rng_got, ranks, crowding)
        assert type(got) is int
        assert got == array_binary_tournament(rng_want, ranks, crowding)
        assert rng_got.random() == rng_want.random()
    assert_same_draws(rng_got, rng_want)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30),
       st.integers(1, 12), SEEDS)
@settings(max_examples=200, deadline=None)
def test_select_leader_matches_size_two_draw_reference(fitness, capacity, seed):
    got, want = LeaderArchive(capacity), SizeTwoDrawArchive(capacity)
    for k, f in enumerate(fitness):
        assert got.add([k, -k], f) == want.add([k, -k], f)
    rng_got, rng_want = make_rng(seed), make_rng(seed)
    for _ in range(20):
        assert_same_floats(got.select_leader(rng_got), want.select_leader(rng_want))
        assert rng_got.random() == rng_want.random()
    assert_same_draws(rng_got, rng_want)


@given(box_and_points(2), RATES, ETAS, SEEDS)
@settings(max_examples=300, deadline=None)
def test_sbx_crossover_matches_array_reference(box, rate, eta, seed):
    space, (p1, p2) = box
    rng_got, rng_want = make_rng(seed), make_rng(seed)
    got = sbx_crossover(space, p1, p2, rate, eta, rng_got)
    want = array_sbx_crossover(space, np.array(p1), np.array(p2), rate, eta, rng_want)
    for child, reference in zip(got, want, strict=True):
        assert_same_floats(child, reference)
    assert_same_draws(rng_got, rng_want)


@given(box_and_points(1), RATES, ETAS, SEEDS)
@settings(max_examples=300, deadline=None)
def test_polynomial_mutation_matches_array_reference(box, rate, eta, seed):
    space, (x,) = box
    rng_got, rng_want = make_rng(seed), make_rng(seed)
    got = polynomial_mutation(space, x, rate, eta, rng_got)
    assert_same_floats(got, array_polynomial_mutation(space, np.array(x), rate, eta, rng_want))
    assert_same_draws(rng_got, rng_want)


@given(box_and_points(1), RATES, st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.999), SEEDS)
@settings(max_examples=300, deadline=None)
def test_turbulences_match_array_reference(box, rate, progress, seed):
    space, (x,) = box
    rng_got, rng_want = make_rng(seed), make_rng(seed)
    assert_same_floats(_uniform_turbulence(space, x, rate, rng_got),
                       array_uniform_turbulence(space, np.array(x), rate, rng_want))
    assert_same_floats(_nonuniform_turbulence(space, x, rate, rng_got, progress),
                       array_nonuniform_turbulence(space, np.array(x), rate, rng_want, progress))
    assert_same_draws(rng_got, rng_want)


@given(st.sampled_from(AXES), st.floats(-6.0, 6.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
       st.floats(-5.0, 5.0) | st.sampled_from([0.0, -0.0]))
@settings(max_examples=300, deadline=None)
def test_reflect_boundary_matches_loop_reference(axis, offset, velocity):
    # Positions up to six box widths outside either bound: the reference ends on all.
    lo, hi = axis
    position = (lo if offset < 0 else hi) + offset * (hi - lo)
    got = reflect_boundary(position, velocity, lo, hi)
    assert_same_floats(list(got), loop_reflect_boundary(position, velocity, lo, hi))


#: (batch size, budget): the budgets end mid-batch except at (40, 2000).
RS_RUNS = [(40, 437), (7, 430), (1, 25), (3, 100), (40, 2000)]


@pytest.mark.parametrize("batch_size, budget", RS_RUNS)
@pytest.mark.parametrize("problem_name", ["two_ball", "two_region", "avp_analog"])
def test_run_random_search_matches_one_row_reference(problem_name, batch_size, budget):
    problem = get_problem(problem_name, "Large")
    config = RandomSearchConfig(batch_size=batch_size, budget=budget)
    seed = batch_size + budget
    assert_same_history(run_random_search(problem, config, seed),
                        one_row_run_random_search(problem, config, seed))


#: Swarm, budget and other parameters: the budgets end mid-swarm, except at
#: (40, 400); the archive of 3 evicts on most inserts, and the equal
#: coefficients make each draw ``c_min + 0.0 * r``.
OMOPSO_RUNS = [
    {"swarm_size": 7, "budget": 400},
    {"swarm_size": 40, "budget": 437},
    {"swarm_size": 40, "budget": 400, "archive_size": 3},
    {"swarm_size": 1, "budget": 30},
    {"swarm_size": 11, "budget": 300, "c_min": 1.7, "c_max": 1.7, "mutation_rate": 1.0},
]


@pytest.mark.parametrize("params", OMOPSO_RUNS, ids=lambda p: "-".join(map(str, p.values())))
@pytest.mark.parametrize("variant", ["Large", "Small"])
@pytest.mark.parametrize("problem_name", ["two_ball", "two_region", "avp_analog"])
def test_run_omopso_matches_array_reference(problem_name, variant, params):
    problem = get_problem(problem_name, variant)
    config = OmopsoConfig(**params)
    seed = params["swarm_size"] + params["budget"]
    assert_same_history(run_omopso(problem, config, seed), array_run_omopso(problem, config, seed))
