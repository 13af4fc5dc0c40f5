"""Algorithm machinery: sorting, crowding, variation operators, novelty archive,
swarm mechanics, budget exactness, and seeded determinism."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import failcover

from failcover.algorithms import (
    Nsga2Config,
    NsgaDConfig,
    OmopsoConfig,
    RandomSearchConfig,
    omopso,
    run_algorithm,
    run_nsga2,
    run_omopso,
    run_random_search,
)
from failcover.algorithms.nsga2 import (
    NoveltyArchive,
    archive_insert,
    crowding_distance,
    fast_nondominated_sort,
    novelty_distance,
    polynomial_mutation,
    sbx_crossover,
)
from failcover.algorithms.omopso import LeaderArchive, inertia_at, reflect_boundary
from failcover.core import RunLog, dominates, unit_box
from failcover.coverage import first_failure_iteration
from failcover.problems import doi_volume_estimate, get_problem
from failcover.samplers import make_rng

TWO_BALL = get_problem("two_ball", "Large")


def brute_force_fronts(fitness: np.ndarray) -> list[list[int]]:
    remaining = list(range(len(fitness)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates(fitness[j], fitness[i]) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def assert_histories_identical(a: RunLog, b: RunLog) -> None:
    assert len(a) == len(b)
    for column in ("input", "fitness", "failed", "generation", "novelty"):
        np.testing.assert_array_equal(a.evaluations[column], b.evaluations[column])


# --- non-dominated sorting -------------------------------------------------------


def test_sort_total_chain():
    fronts = fast_nondominated_sort(np.array([[1, 1], [2, 2], [3, 3]]))
    assert fronts == [[0], [1], [2]]


def test_sort_mutually_nondominated():
    fronts = fast_nondominated_sort(np.array([[1, 3], [2, 2], [3, 1]]))
    assert fronts == [[0, 1, 2]]


def test_sort_matches_brute_force_oracle():
    rng = make_rng(2024)
    for trial in range(50):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(2, 5))
        fitness = np.round(rng.uniform(0, 1, size=(n, m)), 2)  # rounding forces ties
        got = fast_nondominated_sort(fitness)
        want = brute_force_fronts(fitness)
        assert [sorted(f) for f in got] == [sorted(f) for f in want]
        assert sorted(i for f in got for i in f) == list(range(n))


# --- crowding distance -----------------------------------------------------------


def test_crowding_hand_example():
    got = crowding_distance(np.array([[1, 3], [2, 2], [3, 1]]))
    assert got[0] == np.inf and got[2] == np.inf
    assert got[1] == pytest.approx(2.0)


def test_crowding_small_fronts_all_infinite():
    assert np.all(np.isinf(crowding_distance(np.array([[1.0, 2.0]]))))
    assert np.all(np.isinf(crowding_distance(np.array([[1, 2], [2, 1]]))))


def test_crowding_interior_duplicates_finite_and_equal():
    got = crowding_distance(np.array([[1, 1], [2, 2], [2, 2], [3, 3]]))
    assert got[1] == got[2] == pytest.approx(1.0)
    assert np.isfinite(got[1])


def test_crowding_zero_range_objective_contributes_nothing():
    got = crowding_distance(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
    assert got[1] == pytest.approx(2.0 / 2.0)


# --- variation operators -----------------------------------------------------------


def test_sbx_rate_zero_returns_parents():
    space = unit_box(3)
    p1, p2 = np.array([0.1, 0.2, 0.3]), np.array([0.9, 0.8, 0.7])
    c1, c2 = sbx_crossover(space, p1, p2, rate=0.0, eta=15, rng=make_rng(1))
    np.testing.assert_array_equal(c1, p1)
    np.testing.assert_array_equal(c2, p2)


def test_sbx_identical_parents_identical_children():
    space = unit_box(2)
    p = np.array([0.4, 0.6])
    c1, c2 = sbx_crossover(space, p, p, rate=1.0, eta=15, rng=make_rng(2))
    np.testing.assert_allclose(c1, p)
    np.testing.assert_allclose(c2, p)


def test_sbx_children_in_bounds():
    space = unit_box(2)
    rng = make_rng(3)
    for _ in range(1000):
        p1 = rng.uniform(0, 1, 2)
        p2 = rng.uniform(0, 1, 2)
        c1, c2 = sbx_crossover(space, p1, p2, rate=1.0, eta=15, rng=rng)
        assert space.contains(c1) and space.contains(c2)


def test_polynomial_mutation_rate_zero_is_identity():
    space = unit_box(4)
    x = np.array([0.1, 0.4, 0.6, 0.9])
    np.testing.assert_array_equal(
        polynomial_mutation(space, x, rate=0.0, eta=20, rng=make_rng(4)), x
    )


def test_polynomial_mutation_shrinks_with_eta():
    space = unit_box(1)
    x = np.array([0.5])
    deltas = {}
    for eta in (20, 200):
        rng = make_rng(5)
        moved = [
            abs(polynomial_mutation(space, x, rate=1.0, eta=eta, rng=rng)[0] - 0.5)
            for _ in range(2000)
        ]
        deltas[eta] = np.mean(moved)
    assert deltas[200] < deltas[20]


def test_polynomial_mutation_in_bounds():
    space = unit_box(2)
    rng = make_rng(6)
    for _ in range(10_000):
        y = polynomial_mutation(space, rng.uniform(0, 1, 2), rate=1.0, eta=20, rng=rng)
        assert space.contains(y)


# --- novelty archive -----------------------------------------------------------------


def test_archive_accepts_first_candidate():
    archive = NoveltyArchive(threshold=0.29)
    assert archive_insert(archive, np.array([0.5, 0.5]))
    assert len(archive) == 1


def test_archive_threshold_is_strict():
    archive = NoveltyArchive(threshold=0.29)
    archive_insert(archive, np.array([0.0, 0.0]))
    assert not archive_insert(archive, np.array([0.28, 0.0]))  # nearest at 0.28
    assert archive_insert(archive, np.array([0.30, 0.0]))  # nearest at 0.30


def test_novelty_distance_examples():
    archive = NoveltyArchive(threshold=0.1)
    assert novelty_distance(archive, np.array([1.0, 1.0])) == np.inf
    archive_insert(archive, np.array([0.0, 0.0]))
    assert novelty_distance(archive, np.array([3.0, 4.0])) == pytest.approx(5.0)
    archive_insert(archive, np.array([1.0, 0.0]))
    assert novelty_distance(archive, np.array([0.6, 0.0])) == pytest.approx(0.4)


def test_archive_pairwise_invariant_after_random_insertions():
    rng = make_rng(7)
    archive = NoveltyArchive(threshold=0.2)
    for _ in range(300):
        archive_insert(archive, rng.uniform(0, 1, 2))
    members = np.array(archive.members)
    for i in range(len(members)):
        d = np.linalg.norm(members[i + 1 :] - members[i], axis=1)
        assert np.all(d >= 0.2)


# --- random search ---------------------------------------------------------------------


def test_rs_generation_pattern():
    hist = run_random_search(TWO_BALL, RandomSearchConfig(batch_size=5, budget=10), seed=1)
    assert hist.evaluations.generation.tolist() == [0] * 5 + [1] * 5


def test_rs_determinism():
    config = RandomSearchConfig(batch_size=10, budget=100)
    a = run_random_search(TWO_BALL, config, seed=3)
    b = run_random_search(TWO_BALL, config, seed=3)
    assert_histories_identical(a, b)


def test_rs_failure_count_binomial_bound():
    fraction = doi_volume_estimate(TWO_BALL, k=256)
    config = RandomSearchConfig(batch_size=40, budget=2000)
    hist = run_random_search(TWO_BALL, config, seed=11)
    failures = hist.evaluations.failed.sum()
    sigma = np.sqrt(2000 * fraction * (1 - fraction))
    assert abs(failures - 2000 * fraction) <= 3 * sigma


# --- NSGA-II -----------------------------------------------------------------------------


def test_nsga2_budget_equals_population_is_init_only():
    config = Nsga2Config(population_size=20, budget=20)
    hist = run_nsga2(TWO_BALL, config, seed=4)
    assert len(hist) == 20
    assert (hist.evaluations.generation == 0).all()
    assert np.isnan(hist.evaluations.novelty).all()  # only nsga2d logs a novelty


def test_nsga2_determinism():
    config = Nsga2Config(population_size=20, budget=150)
    a = run_nsga2(TWO_BALL, config, seed=5)
    b = run_nsga2(TWO_BALL, config, seed=5)
    assert_histories_identical(a, b)


def test_nsga2_converges_toward_pareto_segment():
    config = Nsga2Config(population_size=40, budget=2000)
    hist = run_nsga2(TWO_BALL, config, seed=6)
    c1, c2 = np.array([0.45, 0.5]), np.array([0.55, 0.5])

    def dist_to_segment(pts):
        d = c2 - c1
        t = np.clip((pts - c1) @ d / (d @ d), 0.0, 1.0)
        return np.linalg.norm(pts - (c1 + t[:, None] * d), axis=1)

    first = hist.evaluations.input[:40]
    last = hist.evaluations.input[-40:]
    assert dist_to_segment(last).mean() < dist_to_segment(first).mean()


def test_nsga2_config_validation():
    with pytest.raises(ValueError, match="even"):
        Nsga2Config(population_size=5)
    with pytest.raises(ValueError, match="budget"):
        Nsga2Config(population_size=40, budget=30)
    with pytest.raises(ValueError, match="crossover_rate"):
        Nsga2Config(crossover_rate=1.5)


# --- diversified NSGA-II ------------------------------------------------------------------


def test_nsga2d_replacement_counts_per_generation():
    config = NsgaDConfig(population_size=40, budget=172)
    hist = run_nsga2(TWO_BALL, config, seed=7)
    per_gen = np.bincount(hist.evaluations.generation)
    assert per_gen[0] == 40
    assert per_gen[1] == 44  # 40 offspring + ceil(0.1 * 40) = 4 replacements
    assert per_gen[2] == 44
    assert len(hist) == 172


def test_nsga2d_first_failure_iteration_is_the_logged_generation():
    # Generation 1 holds rows 20-41: 20 offspring and 2 repopulated victims.
    # The first failure, row 40, is its first victim, so it is in logged
    # generation 1, though 40 // 20 + 1 is 3.
    hist = run_algorithm("nsga2d", get_problem("two_region", "Small"), 2000, 19,
                         {"population_size": 20})
    assert np.flatnonzero(hist.evaluations.failed)[0] == 40
    assert first_failure_iteration(hist) == 2


SIZE_FIELDS = {"rs": "batch_size", "nsga2": "population_size", "omopso": "swarm_size"}


@given(
    name=st.sampled_from(sorted(SIZE_FIELDS)),
    problem_name=st.sampled_from(["two_ball", "avp_analog"]),
    size=st.integers(4, 24),
    extra=st.integers(0, 150),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_first_failure_iteration_matches_the_row_count(name, problem_name, size, extra, seed):
    # rs, nsga2 and omopso log generations of ``size`` rows each, so the
    # logged generation of row i is i // size, also when the budget ends
    # mid-generation.
    size += size % 2 if name == "nsga2" else 0  # a population is even
    hist = run_algorithm(name, get_problem(problem_name, "Small"), size + extra, seed,
                         {SIZE_FIELDS[name]: size})
    hits = np.flatnonzero(hist.evaluations.failed)
    assert first_failure_iteration(hist) == (int(hits[0]) // size + 1 if len(hits) else None)


def test_nsga2d_huge_threshold_archive_holds_one():
    config = NsgaDConfig(population_size=20, budget=200, archive_threshold=1e9)
    hist = run_nsga2(TWO_BALL, config, seed=8)
    # With an unreachable threshold only the first failure is archived, so the
    # recorded novelty of later evaluations is its distance to that one point.
    ev = hist.evaluations
    failing = np.flatnonzero(ev.failed)
    assert len(failing), "run should find failures on the Large lens"
    anchor = ev.input[failing[0]]
    first_gen_end = 20
    for i in range(len(ev)):
        if i < first_gen_end or ev.generation[i] <= ev.generation[failing[0]]:
            continue
        assert ev.novelty[i] == pytest.approx(float(np.linalg.norm(ev.input[i] - anchor)))


def test_nsga2d_novelty_recorded():
    config = NsgaDConfig(population_size=20, budget=100)
    hist = run_nsga2(TWO_BALL, config, seed=9)
    assert not np.isnan(hist.evaluations.novelty).any()
    assert hist.evaluations.novelty[0] == np.inf  # archive empty at first evaluation


def test_nsga2d_empty_archive_crowding_emits_no_warning():
    # The first generation's novelty column is all -inf; its crowding spread
    # once raised numpy's "invalid value encountered in scalar subtract".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_algorithm("nsga2d", get_problem("two_ball", "Small"), 400, 0)
    front = np.array([[0.0, -np.inf], [1.0, -np.inf], [2.0, -np.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(crowding_distance(front), [np.inf, 1.0, np.inf])


def test_nsga2d_determinism():
    config = NsgaDConfig(population_size=20, budget=150)
    a = run_nsga2(TWO_BALL, config, seed=10)
    b = run_nsga2(TWO_BALL, config, seed=10)
    assert_histories_identical(a, b)


def test_nsgad_config_validation():
    with pytest.raises(ValueError, match="threshold"):
        NsgaDConfig(archive_threshold=0.0)
    with pytest.raises(ValueError, match="fraction"):
        NsgaDConfig(repopulation_fraction=0.6)


# --- OMOPSO machinery ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "x, v, expected",
    [
        ((1.2, 0.4), None, (0.8, -0.4)),
        ((-0.3, -0.2), None, (0.3, 0.2)),
        ((2.5, 1.0), None, (0.5, 1.0)),  # mirrored twice
    ],
)
def test_reflect_boundary_examples(x, v, expected):
    pos, vel = reflect_boundary(x[0], x[1], 0.0, 1.0)
    assert pos == pytest.approx(expected[0])
    assert vel == pytest.approx(expected[1])


def test_reflect_inside_untouched():
    assert reflect_boundary(0.4, -0.2, 0.0, 1.0) == (0.4, -0.2)


def test_reflect_boundary_raises_where_reflection_never_ends():
    # Run in a child process: a reflection loop that never ends cannot be
    # interrupted from inside the test process.
    code = """
from failcover.algorithms.omopso import reflect_boundary
for position in ("inf", "-inf", "1e17", "-1e17", "1e300"):
    try:
        reflect_boundary(float(position), 0.0, 0.0, 1.0)
    except ValueError as err:
        print(err)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(failcover.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"cannot reflect position {p} into [0.0, 1.0]"
        for p in ("inf", "-inf", "1e+17", "-1e+17", "1e+300")
    ]


def test_inertia_schedule():
    assert inertia_at(0, 1000) == pytest.approx(0.9)
    assert inertia_at(1000, 1000) == pytest.approx(0.1)
    assert inertia_at(500, 1000) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="outside"):
        inertia_at(2000, 1000)


def test_leader_archive_dominance_filtering():
    archive = LeaderArchive(capacity=10)
    assert archive.add(np.array([0.1]), np.array([1.0, 1.0]))
    assert not archive.add(np.array([0.2]), np.array([2.0, 2.0]))  # dominated
    assert archive.add(np.array([0.3]), np.array([0.5, 0.5]))  # dominates the first
    assert len(archive) == 1
    np.testing.assert_array_equal(archive.fitness[0], [0.5, 0.5])


def test_leader_archive_truncates_to_capacity():
    archive = LeaderArchive(capacity=5)
    rng = make_rng(11)
    for _ in range(50):
        f1 = rng.uniform(0, 1)
        archive.add(rng.uniform(0, 1, 2), np.array([f1, 1.0 - f1]))
        assert len(archive) <= 5
        fits = archive.fitness
        for i in range(len(fits)):
            for j in range(len(fits)):
                if i != j:
                    assert not dominates(fits[i], fits[j])


def test_omopso_budget_equals_swarm_is_init_only():
    config = OmopsoConfig(swarm_size=20, budget=20)
    hist = run_omopso(TWO_BALL, config, seed=12)
    assert len(hist) == 20
    assert (hist.evaluations.generation == 0).all()


def test_omopso_determinism():
    config = OmopsoConfig(swarm_size=20, budget=150)
    a = run_omopso(TWO_BALL, config, seed=13)
    b = run_omopso(TWO_BALL, config, seed=13)
    assert_histories_identical(a, b)


def test_omopso_archive_nondominated_every_step(monkeypatch):
    inserts = []
    add = omopso.LeaderArchive.add

    def checked_add(archive, position, fitness):
        accepted = add(archive, position, fitness)
        fits = archive.fitness
        for i in range(len(fits)):
            for j in range(len(fits)):
                if i != j:
                    assert not dominates(fits[i], fits[j])
        inserts.append(accepted)
        return accepted

    monkeypatch.setattr(omopso.LeaderArchive, "add", checked_add)
    run_omopso(TWO_BALL, OmopsoConfig(swarm_size=20, budget=300), seed=14)
    assert len(inserts) == 300  # one insert per evaluation
    assert any(inserts) and not all(inserts)


def test_omopso_config_validation():
    with pytest.raises(ValueError, match="w_min"):
        OmopsoConfig(w_min=0.9, w_max=0.1)
    with pytest.raises(ValueError, match="budget"):
        OmopsoConfig(swarm_size=40, budget=30)


# --- shared contracts ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["rs", "nsga2", "nsga2d", "omopso"])
@pytest.mark.parametrize("problem_name", ["two_ball", "two_region", "avp_analog"])
def test_budget_exactness_and_bounds(name, problem_name):
    sp = get_problem(problem_name, "Large")
    small = {"rs": {"batch_size": 20}, "nsga2": {"population_size": 20},
             "nsga2d": {"population_size": 20}, "omopso": {"swarm_size": 20}}[name]
    for seed in range(10):
        hist = run_algorithm(name, sp, budget=60, seed=seed, params=small)
        assert len(hist) == 60
        assert len(hist.evaluations) == 60 and hist.remaining == 0
        for x in hist.evaluations.input:
            assert sp.space.contains(x)


def test_run_algorithm_unknown_name():
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_algorithm("nsga3", TWO_BALL, 100, 0)


def test_run_algorithm_rejects_unknown_rs_params():
    with pytest.raises(ValueError, match="rs parameters"):
        run_algorithm("rs", TWO_BALL, 100, 0, {"population_size": 4})


@pytest.mark.parametrize("name", ["nsga2", "nsga2d", "omopso"])
def test_run_algorithm_rejects_unknown_params(name):
    with pytest.raises(ValueError, match=f"unknown {name} parameters.*'batch'"):
        run_algorithm(name, TWO_BALL, 100, 0, {"batch": 4})


@pytest.mark.parametrize(
    "name, params",
    [
        ("rs", {"batch_size": 2.5}),
        ("nsga2", {"population_size": 40.0}),
        ("nsga2d", {"population_size": "20"}),
        ("omopso", {"swarm_size": 10.0}),
        ("omopso", {"archive_size": 5.5}),
    ],
)
def test_run_algorithm_rejects_non_integer_sizes(name, params):
    (field,) = params
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        run_algorithm(name, TWO_BALL, 100, 0, params)


@pytest.mark.parametrize("budget", [150.7, True])
def test_run_algorithm_rejects_non_integer_budget(budget):
    with pytest.raises(ValueError, match="budget must be an integer"):
        run_algorithm("rs", TWO_BALL, budget, 0)
