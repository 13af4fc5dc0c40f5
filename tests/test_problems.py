"""Synthetic problems: closed-form fitness values, failure-region membership,
variant nesting, and analytic area cross-checks."""

import math

import numpy as np
import pytest

from failcover.core import dominates
from failcover.problems import (
    CATALOG,
    TWO_REGION_MARGINS,
    VARIANTS,
    build_avp_analog,
    build_two_ball,
    build_two_region,
    doi_volume_estimate,
    get_problem,
    two_ball_lens_area,
    two_region_failing_area,
)
from failcover.samplers import make_rng


# --- two_ball -------------------------------------------------------------------


def test_two_ball_fitness_at_first_center():
    sp = build_two_ball("Large", c1=(0.4, 0.5), c2=(0.6, 0.5))
    f = sp.fitness(np.array([0.4, 0.5]))
    np.testing.assert_allclose(f, [0.0, 0.2], atol=1e-15)


def test_two_ball_midpoint_symmetry():
    sp = build_two_ball("Large", c1=(0.0, 0.5), c2=(1.0, 0.5), t1=0.4, t2=0.4)
    f = sp.fitness(np.array([0.5, 0.5]))
    np.testing.assert_allclose(f, [0.5, 0.5])


def test_two_ball_lens_area_against_grid():
    # Two-circle intersection formula vs a 512-per-axis grid count.
    sp = build_two_ball("Large", c1=(0.4, 0.5), c2=(0.6, 0.5), t1=0.3, t2=0.3)
    exact = two_ball_lens_area(0.3, 0.3, 0.2)
    estimate = doi_volume_estimate(sp, k=512)
    assert abs(estimate - exact) / exact < 0.02


def test_two_ball_rejects_bad_params():
    with pytest.raises(ValueError, match="centers"):
        build_two_ball(c1=(0.5, 0.5), c2=(0.5, 0.5))
    with pytest.raises(ValueError, match="positive"):
        build_two_ball(t1=-0.1, t2=0.3)


@pytest.mark.parametrize(
    "name, params",
    [
        ("two_ball", {"t1": math.nan}),
        ("two_ball", {"t2": math.nan}),
        ("two_ball", {"t1": math.inf}),
        ("two_ball", {"t1": 0.3, "t2": True}),
        ("two_region", {"margin": math.nan}),
        ("two_region", {"margin": math.inf}),
    ],
)
def test_problem_thresholds_must_be_finite(name, params):
    with pytest.raises(ValueError, match="must be a finite real number"):
        get_problem(name, "Large", **params)


def test_two_ball_pareto_segment_witness():
    # Every point on the segment between the centers is non-dominated within
    # a large uniform sample of the domain.
    sp = build_two_ball("Large")
    c1, c2 = np.array([0.45, 0.5]), np.array([0.55, 0.5])
    segment = c1 + np.linspace(0, 1, 100)[:, None] * (c2 - c1)
    sample = make_rng(123).uniform(0, 1, size=(10_000, 2))
    seg_fit = sp.fitness_batch(segment)
    sample_fit = sp.fitness_batch(sample)
    for sf in seg_fit:
        le = np.all(sample_fit <= sf, axis=1)
        lt = np.any(sample_fit < sf, axis=1)
        assert not np.any(le & lt)


# --- two_region -----------------------------------------------------------------


def test_two_region_inside_box_fails_all_variants():
    x = np.array([0.2, 0.6])  # inside box A
    for variant in ("Large", "Medium", "Small"):
        sp = build_two_region(variant)
        f = sp.fitness(x)
        assert f[0] == 0.0
        assert sp.oracle.mask(f)


def test_two_region_margin_grading():
    x = np.array([0.15 - 0.03, 0.6])  # 0.03 left of box A
    large = build_two_region("Large")
    medium = build_two_region("Medium")
    assert large.oracle.mask(large.fitness(x))  # margin 0.05
    assert not medium.oracle.mask(medium.fitness(x))  # margin 0.02


def test_two_region_failing_fraction_matches_area():
    for variant in ("Large", "Medium"):
        sp = build_two_region(variant)
        exact = two_region_failing_area(TWO_REGION_MARGINS[variant])
        estimate = doi_volume_estimate(sp, k=100)
        assert abs(estimate - exact) / exact < 0.02


def test_two_region_rejects_overlapping_boxes():
    with pytest.raises(ValueError, match="overlap"):
        build_two_region(boxes=(((0.1, 0.1), (0.5, 0.5)), ((0.4, 0.4), (0.9, 0.9))))


# --- avp_analog ------------------------------------------------------------------


def test_avp_analog_target_point_fails_all():
    for variant in ("Large", "Medium", "Small"):
        sp = build_avp_analog(variant)
        f = sp.fitness(np.array([0.7, 0.3, 0.0]))
        np.testing.assert_allclose(f, [0.0, -0.7], atol=1e-15)
        assert sp.oracle.mask(f)


def test_avp_analog_origin_passes_all():
    sp = build_avp_analog("Large")
    f = sp.fitness(np.zeros(3))
    np.testing.assert_allclose(f, [np.sqrt(0.58), 0.0])
    assert not sp.oracle.mask(f)


def test_avp_analog_variant_fractions_monotone():
    fractions = [
        doi_volume_estimate(build_avp_analog(v), k=25) for v in ("Small", "Medium", "Large")
    ]
    assert fractions[0] < fractions[2]
    assert fractions[0] <= fractions[1] <= fractions[2]


# --- catalog-wide properties --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_membership_equals_oracle_of_fitness(name):
    sp = get_problem(name, "Medium")
    space = sp.space
    points = make_rng(77).uniform(space.lows, space.highs, size=(10_000, space.dims))
    member = sp.oracle.mask(sp.fitness_batch(points))
    for i in range(0, 10_000, 997):  # spot-check the one-vector path too
        assert member[i] == sp.oracle.mask(sp.fitness(points[i]))
    fitness = sp.fitness_batch(points)
    expected = np.ones(len(points), dtype=bool)
    for idx, threshold in sp.oracle.clauses:
        expected &= fitness[:, idx] < threshold
    np.testing.assert_array_equal(member, expected)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_variant_nesting_on_random_points(name):
    small = get_problem(name, "Small")
    medium = get_problem(name, "Medium")
    large = get_problem(name, "Large")
    space = small.space
    points = make_rng(88).uniform(space.lows, space.highs, size=(5_000, space.dims))
    in_small, in_medium, in_large = (
        sp.oracle.mask(sp.fitness_batch(points)) for sp in (small, medium, large)
    )
    assert np.all(~in_small | in_medium)  # Small subset of Medium
    assert np.all(~in_medium | in_large)  # Medium subset of Large


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_fitness_finite_and_deterministic(name):
    sp = get_problem(name)
    space = sp.space
    points = make_rng(99).uniform(space.lows, space.highs, size=(100, space.dims))
    f1 = sp.fitness_batch(points)
    f2 = sp.fitness_batch(points)
    assert np.all(np.isfinite(f1))
    np.testing.assert_array_equal(f1, f2)


def test_doi_volume_empty_region():
    # Discs too far apart to intersect: the failure region is empty.
    sp = build_two_ball(c1=(0.2, 0.5), c2=(0.8, 0.5), t1=0.1, t2=0.1)
    assert doi_volume_estimate(sp, k=64) == 0.0


@pytest.mark.parametrize(
    "name, variant, params, label",
    [
        ("two_ball", "Large", {}, "Large"),
        ("two_ball", "Large", {"t1": 0.3, "t2": 0.3}, "Large"),
        ("two_ball", "Large", {"t1": 0.2, "t2": 0.25}, "Custom"),
        ("two_region", "Medium", {"margin": 0.02}, "Medium"),
        ("two_region", "Medium", {"margin": 0.03}, "Custom"),
    ],
)
def test_oracle_label_is_custom_for_custom_thresholds(name, variant, params, label):
    assert get_problem(name, variant, **params).oracle.variant_label == label


def test_get_problem_unknown_name():
    with pytest.raises(ValueError, match="unknown problem"):
        get_problem("rosenbrock")


def test_dominates_consistency_with_batch():
    # fitness() of single inputs agrees with fitness_batch rows.
    sp = get_problem("avp_analog")
    pts = make_rng(5).uniform(0, 1, size=(20, 3))
    batch = sp.fitness_batch(pts)
    for i, p in enumerate(pts):
        assert (sp.fitness(p) == batch[i]).all()
    assert dominates(batch[0] - 1.0, batch[0])


@pytest.mark.parametrize(
    "name, params",
    [
        ("two_ball", {}),
        ("two_ball", {"c1": (0.3, 0.4), "c2": (0.7, 0.65), "t1": 0.35, "t2": 0.3}),
        ("two_region", {}),
        ("two_region", {"boxes": (((0.1, 0.1), (0.3, 0.4)), ((0.5, 0.6), (0.9, 0.8))),
                        "margin": 0.03}),
        ("avp_analog", {}),
    ],
)
@pytest.mark.parametrize("variant", VARIANTS)
def test_one_point_fitness_equals_batch_row(name, params, variant):
    problem = get_problem(name, variant, **params)
    space = problem.space
    points = np.concatenate([
        make_rng(21).uniform(space.lows, space.highs, size=(200, space.dims)),
        space.lows[None, :], space.highs[None, :], space.center[None, :],
    ])
    batch = problem.fitness_batch(points)
    assert batch.shape == (len(points), problem.objective_count)
    for i, x in enumerate(points):
        f = problem.fitness(x)
        assert f.shape == (problem.objective_count,)
        assert (f == batch[i]).all()
