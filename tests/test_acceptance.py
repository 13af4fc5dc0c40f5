"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
desk-scale experiments (criteria 8-10) are seeded and deterministic: base
seed 20240, repetitions with seeds 20240..20249.
"""

import json
import time
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import rankdata

import failcover as fc
from failcover.algorithms import crowding_distance, fast_nondominated_sort
from failcover.coverage import CidParams
from failcover.harness import parse_config, run_experiment, compare
from failcover.samplers import make_rng

BASE_SEED = 20240
REPETITIONS = 10


def check(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


# --- independent oracles -------------------------------------------------------


def brute_force_cid(A, Z, p, q):
    total = 0.0
    for z in Z:
        nearest = min(np.sum(np.abs(z - a) ** p) ** (1.0 / p) for a in A)
        total += nearest**q
    return total ** (1.0 / q) / len(Z)


def brute_force_fronts(fitness):
    remaining = list(range(len(fitness)))
    fronts = []
    while remaining:
        front = [
            i
            for i in remaining
            if not any(fc.dominates(fitness[j], fitness[i]) for j in remaining if j != i)
        ]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def brute_force_greedy_maximin(pool, n, center):
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


def enumeration_rank_sum_p(x, y):
    pooled = np.concatenate([x, y])
    ranks = rankdata(pooled)
    observed = ranks[: len(x)].sum()
    sums = [sum(c) for c in combinations(sorted(ranks), len(x))]
    at_most = sum(1 for s in sums if s <= observed + 1e-12)
    at_least = sum(1 for s in sums if s >= observed - 1e-12)
    return min(1.0, 2.0 * min(at_most, at_least) / len(sums))


# --- criteria 1-2: the CID indicator ----------------------------------------------


def test_criterion_1_cid_oracle_equivalence():
    # Only the fc.cid calls are timed: the pure-Python reference loop is the
    # oracle, not the code under test.
    elapsed = 0.0
    rng = make_rng(777)
    worst = 0.0
    for _ in range(500):
        dims = int(rng.integers(1, 4))
        A = rng.uniform(-2, 2, size=(int(rng.integers(1, 101)), dims))
        Z = rng.uniform(-2, 2, size=(int(rng.integers(1, 101)), dims))
        p = float(rng.choice([1.0, 2.0]))
        q = float(rng.choice([1.0, 2.0]))
        start = time.perf_counter()
        got = fc.cid(A, Z, CidParams(p=p, q=q))
        elapsed += time.perf_counter() - start
        want = brute_force_cid(A, Z, p, q)
        worst = max(worst, abs(got - want))
    check(
        1,
        "CID equals brute-force double loop on 500 random instances",
        worst <= 1e-9 and elapsed < 10.0,
        f"max abs diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_cid_properties():
    rng = make_rng(778)
    Z = rng.uniform(0, 1, size=(25, 2))
    superset = np.vstack([Z, rng.uniform(0, 1, size=(5, 2))])
    zero_when_covered = fc.cid(superset, Z) == 0.0

    perturbed = Z.copy()
    perturbed[7] += 1e-7
    positive_when_perturbed = fc.cid(perturbed, Z) > 0.0

    A = rng.uniform(0, 1, size=(12, 2))
    duplication_exact = fc.cid(np.vstack([A, A[2:8], A]), Z) == fc.cid(A, Z)

    monotone = True
    for _ in range(200):
        A = rng.uniform(0, 1, size=(int(rng.integers(1, 25)), 2))
        Zr = rng.uniform(0, 1, size=(int(rng.integers(1, 25)), 2))
        extra = rng.uniform(0, 1, size=2)
        if fc.cid(np.vstack([A, extra]), Zr) > fc.cid(A, Zr):
            monotone = False
            break

    check(
        2,
        "CID zero-iff-covered, duplication-invariant, monotone under additions",
        zero_when_covered and positive_when_perturbed and duplication_exact and monotone,
    )


# --- criteria 3-4: reference-set accuracy and robustness ------------------------------


def test_criterion_3_refset_resolution_error_decay():
    start = time.time()
    sp = fc.get_problem("two_ball", "Large")
    refs = {
        k: fc.build_reference_set(sp, {"strategy": "grid", "params": {"k": k}})
        for k in (16, 32, 64, 128, 256, 512)
    }
    # Fixed 20-point test set: a cluster above the lens, so the reference-set
    # discretization error dominates the CID difference.
    rng = make_rng(3)
    A = np.column_stack([rng.uniform(0.4, 0.6, 20), rng.uniform(0.8, 1.0, 20)])
    baseline = fc.cid(A, refs[512])
    ks = [16, 32, 64, 128, 256]
    errors = [abs(fc.cid(A, refs[k]) - baseline) for k in ks]
    elapsed = time.time() - start
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    factor_ok = errors[2] <= 0.6 * errors[0]
    tail_ok = errors[4] < 0.02
    check(
        3,
        "CID error shrinks with reference-grid resolution",
        monotone and factor_ok and tail_ok and elapsed < 30.0,
        f"errors {['%.1e' % e for e in errors]}, {elapsed:.1f}s",
    )


def test_criterion_4_refset_sampler_robustness():
    sp = fc.get_problem("two_ball", "Large")
    gs = fc.build_reference_set(sp, {"strategy": "grid", "params": {"k": 32}})  # 1024 samples
    worst = 0.0
    for s in range(10):
        fps = fc.build_reference_set(
            sp,
            {"strategy": "fps",
             "params": {"n": 1024, "candidate_pool_size": 20_000, "seed": 1000 + s}},
        )
        A = make_rng(2000 + s).uniform(0, 1, size=(20, 2))
        a, b = fc.cid(A, gs), fc.cid(A, fps)
        worst = max(worst, abs(a - b) / ((a + b) / 2.0))
    check(
        4,
        "CID agrees across grid and furthest-point reference sets (<= 20%)",
        worst <= 0.20,
        f"max relative difference {worst:.3f}",
    )


# --- criteria 5-7: component oracles ------------------------------------------------------


def test_criterion_5_sorting_oracle():
    rng = make_rng(779)
    all_match = True
    for _ in range(200):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(2, 5))
        fitness = np.round(rng.uniform(0, 1, size=(n, m)), 2)
        got = [sorted(f) for f in fast_nondominated_sort(fitness)]
        want = [sorted(f) for f in brute_force_fronts(fitness)]
        if got != want:
            all_match = False
            break
    crowd = crowding_distance(np.array([[1, 3], [2, 2], [3, 1]]))
    crowd_ok = crowd[0] == np.inf and crowd[2] == np.inf and abs(crowd[1] - 2.0) < 1e-12
    check(
        5,
        "non-dominated sort matches brute force; crowding hand value (inf, 2, inf)",
        all_match and crowd_ok,
    )


def test_criterion_6_sampler_invariants():
    grid_ok = len(fc.grid_sample(fc.unit_box(3), 25)) == 15_625

    poisson_ok = True
    for s in range(20):
        pts = fc.poisson_disc_sample(fc.unit_box(2), r=0.15, rng=make_rng(s))
        for i in range(len(pts)):
            if np.any(np.linalg.norm(pts[i + 1 :] - pts[i], axis=1) < 0.15):
                poisson_ok = False

    fps_ok = True
    for dims, pool_size, n in ((2, 500, 16), (3, 300, 10)):
        space = fc.unit_box(dims)
        pool = make_rng(50 + dims).uniform(0, 1, size=(pool_size, dims))
        got = fc.fps_sample(space, n, make_rng(0), pool=pool)
        want = brute_force_greedy_maximin(pool, n, space.center)
        if not np.array_equal(got, want):
            fps_ok = False

    pts = fc.lhs_sample(fc.unit_box(3), 40, make_rng(4))
    lhs_ok = all(
        np.all(np.histogram(pts[:, axis], bins=40, range=(0, 1))[0] == 1) for axis in range(3)
    )

    check(
        6,
        "grid count 25^3, Poisson spacing, FPS maximin oracle, LHS occupancy",
        grid_ok and poisson_ok and fps_ok and lhs_ok,
    )


def test_criterion_7_statistics_oracles():
    rng = make_rng(780)
    exact_ok = True
    for _ in range(30):
        x = rng.normal(size=int(rng.integers(1, 9)))
        y = rng.normal(size=int(rng.integers(1, 9)))
        if abs(fc.wilcoxon_rank_sum(x, y) - enumeration_rank_sum_p(x, y)) > 1e-12:
            exact_ok = False
            break

    x = np.arange(10, dtype=float)
    signed_ok = abs(fc.wilcoxon_signed_rank(x, x + 1.0) - 2.0 / 1024.0) < 1e-15

    a12_ok = (
        fc.a12([5.0, 5.0], [5.0, 5.0]) == 0.5
        and fc.a12([1.0, 2.0], [3.0, 4.0]) == 0.0
        and fc.a12([1.0, 2.0], [2.0, 3.0]) == 0.125
    )
    bands_ok = (
        fc.classify_effect(0.50) == "negligible"
        and fc.classify_effect(0.60) == "small"
        and fc.classify_effect(0.00) == "large"
    )
    check(
        7,
        "Wilcoxon exact paths match enumeration; A12 and magnitude band examples",
        exact_ok and signed_ok and a12_ok and bands_ok,
    )


# --- criteria 8-10: desk-scale reproduction of the study's findings ------------------------


@pytest.fixture(scope="module")
def two_ball_final_cids():
    start = time.time()
    sp = fc.get_problem("two_ball", "Large")
    refset = fc.build_reference_set(sp, {"strategy": "grid", "params": {"k": 64}})
    finals = {}
    for name, params in (
        ("rs", {"batch_size": 40}),
        ("nsga2", {"population_size": 40}),
        ("nsga2d", {"population_size": 40}),
    ):
        values = []
        for rep in range(REPETITIONS):
            history = fc.run_algorithm(name, sp, 2000, BASE_SEED + rep, params)
            series = fc.convergence_series(history, refset, CidParams(), interval=100)
            values.append(series.final().cid)
        finals[name] = np.array(values)
    return finals, time.time() - start


def test_criterion_8_random_search_beats_pareto_search(two_ball_final_cids):
    finals, elapsed = two_ball_final_cids
    rs, nsga2 = finals["rs"], finals["nsga2"]
    median_ok = np.median(rs) < np.median(nsga2)
    p = fc.wilcoxon_signed_rank(rs, nsga2)
    effect = fc.a12(rs, nsga2)
    magnitude = fc.classify_effect(effect)
    check(
        8,
        "random search covers failures better than NSGA-II (two_ball Large)",
        median_ok and p < 0.05 and magnitude == "large" and elapsed < 120.0,
        f"medians {np.median(rs):.4f} vs {np.median(nsga2):.4f}, "
        f"p={p:.4g}, A12={effect:.2f} ({magnitude}), {elapsed:.0f}s",
    )


def test_criterion_9_diversification_helps_but_does_not_win(two_ball_final_cids):
    finals, _ = two_ball_final_cids
    rs, nsga2, nsga2d = finals["rs"], finals["nsga2"], finals["nsga2d"]
    improves = np.mean(nsga2d) < np.mean(nsga2)
    still_behind_rs = np.median(rs) <= np.median(nsga2d)
    check(
        9,
        "diversified NSGA-II improves coverage yet stays behind random search",
        improves and still_behind_rs,
        f"means nsga2d {np.mean(nsga2d):.4f} vs nsga2 {np.mean(nsga2):.4f}; "
        f"medians rs {np.median(rs):.4f} vs nsga2d {np.median(nsga2d):.4f}",
    )


def test_criterion_10_pareto_search_finds_first_failure_sooner():
    sp = fc.get_problem("avp_analog", "Small")
    means = {}
    for name, params in (("nsga2", {"population_size": 40}), ("rs", {"batch_size": 40})):
        iterations = []
        for rep in range(REPETITIONS):
            history = fc.run_algorithm(name, sp, 2000, BASE_SEED + rep, params)
            first = fc.first_failure_iteration(history)
            assert first is not None, f"{name} found no failure with seed {BASE_SEED + rep}"
            iterations.append(first)
        means[name] = float(np.mean(iterations))
    check(
        10,
        "NSGA-II reaches its first failure at least as fast as random search",
        means["nsga2"] <= means["rs"],
        f"mean first-failure iteration {means['nsga2']:.2f} vs {means['rs']:.2f}",
    )


# --- criterion 11: end-to-end determinism ---------------------------------------------------


def test_criterion_11_end_to_end_determinism(tmp_path):
    raw = {
        "problem": {"name": "two_ball", "variant": "Large"},
        "algorithms": [
            {"name": "rs", "params": {"batch_size": 20}},
            {"name": "nsga2", "params": {"population_size": 20}},
        ],
        "budget": 200,
        "repetitions": 3,
        "base_seed": BASE_SEED,
        "refset": {"strategy": "grid", "params": {"k": 32}},
        "cid": {"interval": 50},
    }
    config = parse_config(json.loads(json.dumps(raw)))
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        run_experiment(config, d)
        compare(d, test="signedrank")
    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("runs.csv", "cid_series.csv", "summary.csv", "stats.csv")
    )
    check(11, "identical configs produce byte-identical result files", identical)
