"""Sampler strategies: lattice structure, stratification, maximin greed,
minimum-distance guarantees, and seed determinism."""

import numpy as np
import pytest

from failcover.core import SearchSpace, unit_box
from failcover.samplers import (
    fps_sample,
    grid_sample,
    grid_step_diagonal,
    lhs_sample,
    make_rng,
    poisson_disc_sample,
    sample_by_name,
    uniform_sample,
    validate_sampler_params,
)


def brute_force_fps(pool: np.ndarray, n: int, center: np.ndarray) -> np.ndarray:
    """Exhaustive greedy maximin, the oracle fps_sample must reproduce."""
    first = min(range(len(pool)), key=lambda i: (np.linalg.norm(pool[i] - center), i))
    chosen = [first]
    for _ in range(n - 1):
        best, best_d = None, -1.0
        for i in range(len(pool)):
            d = min(np.linalg.norm(pool[i] - pool[j]) for j in chosen)
            if d > best_d:
                best, best_d = i, d
        chosen.append(best)
    return pool[chosen]


# --- grid ---------------------------------------------------------------------


def test_grid_1d_endpoints():
    np.testing.assert_allclose(grid_sample(unit_box(1), k=3).ravel(), [0.0, 0.5, 1.0])


def test_grid_count_is_k_pow_n():
    assert len(grid_sample(unit_box(3), k=25)) == 15_625
    assert len(grid_sample(unit_box(2), k=10)) == 100


def test_grid_min_axis_step():
    pts = grid_sample(unit_box(2), k=10)
    xs = np.unique(pts[:, 0])
    np.testing.assert_allclose(np.diff(xs).min(), 1.0 / 9.0)


def test_grid_row_major_order():
    pts = grid_sample(unit_box(2), k=2)
    np.testing.assert_allclose(pts, [[0, 0], [0, 1], [1, 0], [1, 1]])


def test_grid_rejects_small_k():
    with pytest.raises(ValueError, match="at least 2"):
        grid_sample(unit_box(2), k=1)


def test_grid_step_diagonal():
    space = SearchSpace(((0.0, 1.0), (0.0, 2.0)))
    expected = np.hypot(1.0 / 9.0, 2.0 / 9.0)
    assert grid_step_diagonal(space, 10) == pytest.approx(expected)


# --- latin hypercube ------------------------------------------------------------


def test_lhs_single_point_in_box():
    space = SearchSpace(((2.0, 3.0), (-1.0, 0.0)))
    pts = lhs_sample(space, 1, make_rng(1))
    assert pts.shape == (1, 2)
    assert space.contains(pts[0])


def test_lhs_1d_stratification():
    pts = lhs_sample(unit_box(1), 4, make_rng(2)).ravel()
    occupied = sorted(int(v * 4) for v in pts)
    assert occupied == [0, 1, 2, 3]


def test_lhs_per_axis_occupancy_exactly_one():
    n = 40
    pts = lhs_sample(unit_box(3), n, make_rng(3))
    for axis in range(3):
        counts = np.histogram(pts[:, axis], bins=n, range=(0.0, 1.0))[0]
        assert np.all(counts == 1)


def test_lhs_determinism():
    a = lhs_sample(unit_box(2), 16, make_rng(7))
    b = lhs_sample(unit_box(2), 16, make_rng(7))
    np.testing.assert_array_equal(a, b)


# --- furthest point sampling -----------------------------------------------------


def test_fps_first_point_nearest_center():
    space = unit_box(2)
    pool = make_rng(11).uniform(0, 1, size=(200, 2))
    pts = fps_sample(space, 1, make_rng(0), pool=pool)
    expected = pool[np.argmin(np.linalg.norm(pool - 0.5, axis=1))]
    np.testing.assert_array_equal(pts[0], expected)


def test_fps_second_point_is_corner_on_grid_pool():
    space = unit_box(2)
    pool = grid_sample(space, 11)
    pts = fps_sample(space, 2, make_rng(0), pool=pool)
    np.testing.assert_allclose(pts[0], [0.5, 0.5])
    corners = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    assert tuple(pts[1]) in corners


@pytest.mark.parametrize("dims, pool_size, n", [(1, 50, 6), (2, 200, 12), (3, 400, 9)])
def test_fps_matches_brute_force_oracle(dims, pool_size, n):
    space = unit_box(dims)
    pool = make_rng(100 + dims).uniform(0, 1, size=(pool_size, dims))
    got = fps_sample(space, n, make_rng(0), pool=pool)
    want = brute_force_fps(pool, n, space.center)
    np.testing.assert_array_equal(got, want)


def test_fps_random_pool_determinism_and_bounds():
    space = SearchSpace(((0.0, 2.0), (1.0, 4.0)))
    a = fps_sample(space, 20, make_rng(5), candidate_pool_size=500)
    b = fps_sample(space, 20, make_rng(5), candidate_pool_size=500)
    np.testing.assert_array_equal(a, b)
    assert all(space.contains(p) for p in a)


def test_fps_pool_must_cover_n():
    with pytest.raises(ValueError, match="pool"):
        fps_sample(unit_box(2), 10, make_rng(0), candidate_pool_size=5)


# --- poisson disc -----------------------------------------------------------------


def test_poisson_oversized_radius_single_point():
    assert len(poisson_disc_sample(unit_box(2), r=5.0, rng=make_rng(1))) == 1


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_poisson_min_distance_invariant(dims):
    pts = poisson_disc_sample(unit_box(dims), r=0.25, rng=make_rng(dims))
    for i in range(len(pts)):
        d = np.linalg.norm(pts[i + 1 :] - pts[i], axis=1)
        assert np.all(d >= 0.25)


def test_poisson_count_envelope_2d():
    # Envelope measured once for r=0.1 on the unit square, then frozen.
    counts = [len(poisson_disc_sample(unit_box(2), r=0.1, rng=make_rng(s))) for s in range(20)]
    assert min(counts) >= 30 and max(counts) <= 120


def test_poisson_determinism():
    a = poisson_disc_sample(unit_box(2), r=0.2, rng=make_rng(9))
    b = poisson_disc_sample(unit_box(2), r=0.2, rng=make_rng(9))
    np.testing.assert_array_equal(a, b)


def test_poisson_rejects_bad_params():
    with pytest.raises(ValueError, match="positive"):
        poisson_disc_sample(unit_box(2), r=0.0, rng=make_rng(0))
    with pytest.raises(ValueError, match="attempts"):
        poisson_disc_sample(unit_box(2), r=0.1, rng=make_rng(0), attempts_per_point=0)


# --- uniform ------------------------------------------------------------------------


def test_uniform_thin_axis():
    space = SearchSpace(((0.0, 1e-12), (0.0, 1.0)))
    pts = uniform_sample(space, 50, make_rng(4))
    assert np.all(np.abs(pts[:, 0]) <= 1e-12)


def test_uniform_mean_near_center():
    pts = uniform_sample(unit_box(1), 1000, make_rng(8))
    assert abs(pts.mean() - 0.5) < 0.05  # 3 sigma of U[0,1] sample mean


def test_uniform_determinism():
    a = uniform_sample(unit_box(3), 64, make_rng(12))
    b = uniform_sample(unit_box(3), 64, make_rng(12))
    np.testing.assert_array_equal(a, b)


# --- shared properties ----------------------------------------------------------------


@pytest.mark.parametrize(
    "strategy, params",
    [
        ("grid", {"k": 4}),
        ("lhs", {"n": 25, "seed": 3}),
        ("uniform", {"n": 25, "seed": 3}),
        ("fps", {"n": 10, "candidate_pool_size": 300, "seed": 3}),
        ("poisson", {"r": 0.4, "seed": 3}),
    ],
)
def test_all_strategies_in_bounds(strategy, params):
    space = SearchSpace(((-1.0, 2.0), (0.5, 0.75)))
    pts = sample_by_name(space, strategy, params)
    assert len(pts) >= 1
    assert all(space.contains(p) for p in pts)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown sampling strategy"):
        sample_by_name(unit_box(2), "sobol", {})
    with pytest.raises(ValueError, match="unknown sampling strategy"):
        sample_by_name(unit_box(2), ["grid"], {"k": 8})


@pytest.mark.parametrize(
    "strategy, params, key",
    [
        ("grid", {"k": 16.5}, "k"),
        ("uniform", {"n": 25, "seed": "3"}, "seed"),
        ("fps", {"n": 10.0}, "n"),
        ("poisson", {"r": "0.1"}, "r"),
        ("poisson", {"r": 0.4, "attempts_per_point": 30.0}, "attempts_per_point"),
    ],
)
def test_sample_by_name_checks_parameter_types(strategy, params, key):
    with pytest.raises(ValueError, match=f"{strategy} sampler parameter {key} must be"):
        sample_by_name(unit_box(2), strategy, params)


def test_sample_by_name_accepts_numpy_integers_and_integral_r():
    assert len(sample_by_name(unit_box(2), "grid", {"k": np.int64(3)})) == 9
    assert len(sample_by_name(unit_box(2), "poisson", {"r": 1, "seed": np.uint8(2)})) == 1


def test_size_guard_refuses_before_allocating():
    # Sizes computed, never allocated: 16**8 intp cells (32 GiB) for Poisson
    # at d=8 and r=0.3, and 1001**2 grid points just above the limit.
    with pytest.raises(ValueError, match=r"would hold 4,294,967,296 entries, above MAX_SAMPLER_CELLS"):
        poisson_disc_sample(unit_box(8), r=0.3, rng=make_rng(0))
    with pytest.raises(ValueError, match="4,294,967,296"):
        validate_sampler_params("poisson", {"r": 0.3}, unit_box(8))
    with pytest.raises(ValueError, match=r"grid sampler: k\*\*2 would hold 10,004,569 entries"):
        validate_sampler_params("grid", {"k": 3163}, unit_box(2))
    validate_sampler_params("grid", {"k": 3162}, unit_box(2))


def test_poisson_refuses_a_box_whose_squared_widths_overflow():
    # Every neighbour offset here squares past the double range, so each length
    # would be inf, no candidate ever too close, and the sampler would never
    # return. The validator refuses first, so a regression fails, not hangs.
    space = SearchSpace(((-2e160, 0.0), (0.0, 1.5e160)))
    with pytest.raises(ValueError, match="squared widths"):
        validate_sampler_params("poisson", {"r": 3e159}, space)
    with pytest.raises(ValueError, match="squared widths"):
        poisson_disc_sample(space, r=3e159, rng=make_rng(0))


@pytest.mark.parametrize(
    "strategy, params, what, size",
    [
        ("uniform", {"n": 10**12}, "uniform sampler: n", "1,000,000,000,000"),
        ("lhs", {"n": 10**12}, "lhs sampler: n", "1,000,000,000,000"),
        ("uniform", {"n": 10_000_001}, "uniform sampler: n", "10,000,001"),
        ("fps", {"n": 20, "candidate_pool_size": 10**12}, "fps sampler: candidate pool",
         "1,000,000,000,000"),
        # The default pool of n above FPS_POOL_CAP is n itself.
        ("fps", {"n": 10**9}, "fps sampler: candidate pool", "1,000,000,000"),
    ],
)
def test_size_guard_bounds_point_counts_and_the_fps_pool(strategy, params, what, size):
    # Every size here raises before anything is allocated.
    with pytest.raises(ValueError, match=rf"{what} would hold {size} entries, above MAX_SAMPLER"):
        validate_sampler_params(strategy, params, unit_box(3))
    sampler = {"uniform": uniform_sample, "lhs": lhs_sample, "fps": fps_sample}[strategy]
    with pytest.raises(ValueError, match=rf"{what} would hold {size} entries"):
        sampler(unit_box(3), **params, rng=make_rng(0))


def test_size_guard_keeps_the_largest_allowed_counts():
    validate_sampler_params("uniform", {"n": 10_000_000}, unit_box(3))
    validate_sampler_params("fps", {"n": 20, "candidate_pool_size": 10_000_000}, unit_box(3))
    validate_sampler_params("fps", {"n": 400}, unit_box(3))  # a default pool of 60,000


def test_make_rng_substreams_differ():
    a = make_rng(1).random(4)
    b = make_rng(1, 1).random(4)
    assert not np.array_equal(a, b)
