"""Coverage metrics: the CID formula and its properties, convergence series,
failure metrics, and reference-set construction with persistence."""

import hashlib
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from failcover import coverage
from failcover.core import OracleSpec, ProblemDefinition, RunLog, unit_box
from failcover.coverage import (
    CidParams,
    ConvergenceCheckpoint,
    ConvergenceSeries,
    EmptyReferenceSetError,
    ReferenceSetIntegrityError,
    build_reference_set,
    cid,
    convergence_series,
    failure_count,
    first_failure_iteration,
    load_reference_set,
    max_nearest_neighbor_distance,
    read_points,
    save_reference_set,
)
from failcover.problems import (
    TWO_REGION_MARGINS,
    build_two_ball,
    build_two_region,
    doi_volume_estimate,
    get_problem,
    two_region_failing_area,
)
from failcover.samplers import grid_sample, make_rng


def brute_force_cid(A, Z, p=2.0, q=1.0):
    """Literal double-loop evaluation of the defining formula."""
    total = 0.0
    for z in Z:
        nearest = min(np.sum(np.abs(z - a) ** p) ** (1.0 / p) for a in A)
        total += nearest**q
    return total ** (1.0 / q) / len(Z)


def fake_history(inputs, failed, dims=2, generation=0) -> RunLog:
    """A two_ball run log whose inputs, verdicts and generations are given, not evaluated.

    For ``dims`` other than 2 the problem's box becomes the unit box of ``dims``.
    """
    n = len(failed)
    problem = replace(get_problem("two_ball", "Large"), space=unit_box(dims))
    log = RunLog(problem, budget=max(n, 1))
    rows = log.table[:n]
    rows.input = np.asarray(inputs, dtype=float).reshape(n, dims)
    rows.failed = failed
    rows.generation = generation
    log.used = n
    return log


# --- cid formula -------------------------------------------------------------------


def test_cid_zero_when_test_set_covers_reference():
    Z = np.array([[0.0, 0.0], [1.0, 1.0], [0.3, 0.7]])
    A = np.vstack([Z, [[0.5, 0.5]]])
    assert cid(A, Z) == 0.0


def test_cid_hand_example_q1():
    value = cid(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert value == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)


def test_cid_hand_example_q1_and_q2():
    A = np.array([[1.0, 0.0]])
    Z = np.array([[0.0, 0.0], [3.0, 4.0]])
    got_q1 = cid(A, Z, CidParams(p=2, q=1))
    got_q2 = cid(A, Z, CidParams(p=2, q=2))
    assert got_q1 == pytest.approx((1.0 + np.sqrt(20.0)) / 2.0, abs=1e-12)
    assert got_q2 == pytest.approx(np.sqrt(21.0) / 2.0, abs=1e-12)


def test_cid_empty_inputs_distinct_errors():
    Z = np.array([[0.0, 0.0]])
    with pytest.raises(ValueError, match="test set is empty"):
        cid(np.empty((0, 2)), Z)
    with pytest.raises(ValueError, match="reference set is empty"):
        cid(Z, np.empty((0, 2)))


def test_cid_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensionality"):
        cid(np.zeros((2, 2)), np.zeros((2, 3)))


def test_cid_matches_brute_force_oracle():
    rng = make_rng(314)
    for _ in range(60):
        n_a = int(rng.integers(1, 101))
        n_z = int(rng.integers(1, 101))
        dims = int(rng.integers(1, 4))
        A = rng.uniform(-2, 2, size=(n_a, dims))
        Z = rng.uniform(-2, 2, size=(n_z, dims))
        p = float(rng.choice([1.0, 2.0]))
        q = float(rng.choice([1.0, 2.0]))
        got = cid(A, Z, CidParams(p=p, q=q))
        want = brute_force_cid(A, Z, p, q)
        assert got == pytest.approx(want, abs=1e-9)


def test_cid_size_independence_under_duplication():
    rng = make_rng(42)
    A = rng.uniform(0, 1, size=(17, 2))
    Z = rng.uniform(0, 1, size=(23, 2))
    base = cid(A, Z)
    duplicated = np.vstack([A, A[3:9], A[:1]])
    assert cid(duplicated, Z) == base


def test_cid_monotone_under_point_addition():
    rng = make_rng(43)
    for _ in range(200):
        A = rng.uniform(0, 1, size=(int(rng.integers(1, 20)), 2))
        Z = rng.uniform(0, 1, size=(int(rng.integers(1, 20)), 2))
        extra = rng.uniform(0, 1, size=2)
        assert cid(np.vstack([A, extra]), Z) <= cid(A, Z)


def test_cid_translation_invariance():
    rng = make_rng(44)
    A = rng.uniform(0, 1, size=(15, 3))
    Z = rng.uniform(0, 1, size=(20, 3))
    shift = np.array([10.0, -3.0, 0.5])
    assert cid(A + shift, Z + shift) == pytest.approx(cid(A, Z), abs=1e-9)


def test_cid_perturbing_covered_point_raises_above_zero():
    Z = make_rng(45).uniform(0, 1, size=(10, 2))
    A = Z.copy()
    A[4] += 1e-6
    assert cid(A, Z) > 0.0


def test_cid_params_validation():
    with pytest.raises(ValueError, match="norm order"):
        CidParams(p=0.5)
    with pytest.raises(ValueError, match="aggregation"):
        CidParams(q=0.0)
    for bad in (float("nan"), float("inf"), True, "2"):
        with pytest.raises(ValueError, match="norm order must be a finite real number"):
            CidParams(p=bad)
        with pytest.raises(ValueError, match="aggregation order must be a finite real number"):
            CidParams(q=bad)
    integral = CidParams(p=2, q=3)
    assert (integral.p, integral.q) == (2.0, 3.0) and type(integral.p) is float


def test_cid_accepts_reference_set_object(tmp_path):
    sp = build_two_ball("Large")
    refset = build_reference_set(sp, {"strategy": "grid", "params": {"k": 16}})
    value = cid(np.array([[0.5, 0.5]]), refset)
    assert value == pytest.approx(cid(np.array([[0.5, 0.5]]), refset.points))


# --- convergence series ----------------------------------------------------------------


def test_series_no_failures_all_undefined():
    hist = fake_history([[0.1, 0.1]] * 10, [False] * 10)
    series = convergence_series(hist, np.array([[0.5, 0.5]]), interval=3)
    assert [cp.evaluations_used for cp in series.checkpoints] == [3, 6, 9, 10]
    assert all(cp.cid is None for cp in series.checkpoints)
    assert all(cp.failures_so_far == 0 for cp in series.checkpoints)


def test_series_constant_after_last_failure():
    inputs = [[0.1, 0.1], [0.2, 0.2]] + [[0.9, 0.9]] * 8
    failed = [True, True] + [False] * 8
    hist = fake_history(inputs, failed)
    series = convergence_series(hist, np.array([[0.0, 0.0], [1.0, 1.0]]), interval=2)
    values = [cp.cid for cp in series.checkpoints]
    assert values[0] is not None
    assert all(v == values[0] for v in values)


def test_series_nonincreasing_when_failures_accumulate():
    rng = make_rng(46)
    inputs = rng.uniform(0, 1, size=(60, 2))
    failed = rng.random(60) < 0.4
    failed[0] = True
    hist = fake_history(list(inputs), list(failed))
    Z = rng.uniform(0, 1, size=(30, 2))
    series = convergence_series(hist, Z, interval=5)
    values = [cp.cid for cp in series.checkpoints]
    for prev, cur in zip(values, values[1:]):
        assert cur <= prev


def test_series_matches_direct_cid_at_checkpoints():
    rng = make_rng(47)
    inputs = rng.uniform(0, 1, size=(40, 2))
    failed = rng.random(40) < 0.5
    hist = fake_history(list(inputs), list(failed))
    Z = rng.uniform(0, 1, size=(12, 2))
    series = convergence_series(hist, Z, interval=10)
    for cp in series.checkpoints:
        A = inputs[: cp.evaluations_used][failed[: cp.evaluations_used]]
        if len(A) == 0:
            assert cp.cid is None
        else:
            assert cp.cid == pytest.approx(cid(A, Z), abs=1e-12)
        assert cp.failures_so_far == int(failed[: cp.evaluations_used].sum())


def test_series_interval_validation():
    hist = fake_history([[0.1, 0.1]], [True])
    with pytest.raises(ValueError, match="interval"):
        convergence_series(hist, np.array([[0.0, 0.0]]), interval=0)
    for interval in (2.5, True):  # a TypeError from range and a silent interval of 1 before
        with pytest.raises(ValueError, match="checkpoint interval must be an integer"):
            convergence_series(hist, np.array([[0.0, 0.0]]), interval=interval)


@pytest.mark.parametrize("failed", [[True, False], [False, False]])
def test_series_rejects_a_reference_set_of_another_dimensionality(failed):
    hist = fake_history([[0.1, 0.1], [0.2, 0.2]], failed)
    with pytest.raises(ValueError, match="reference set is 3-D, the run's inputs are 2-D"):
        convergence_series(hist, np.zeros((4, 3)))


# --- failure metrics -----------------------------------------------------------------------


def test_first_failure_iteration_examples():
    blocks = np.arange(50) // 40
    hist = fake_history([[0.1, 0.1]] * 50, [True] + [False] * 49, generation=blocks)
    assert first_failure_iteration(hist) == 1
    hist2 = fake_history([[0.1, 0.1]] * 50, [False] * 41 + [True] + [False] * 8, generation=blocks)
    assert first_failure_iteration(hist2) == 2
    hist3 = fake_history([[0.1, 0.1]] * 50, [False] * 50, generation=blocks)
    assert first_failure_iteration(hist3) is None
    # A generation of 20 offspring and 10 repopulated victims: row 45 is in
    # logged generation 1, though 45 // 20 + 1 would say 3.
    nsga2d = np.repeat([0, 1], [20, 30])
    hist4 = fake_history([[0.1, 0.1]] * 50, [False] * 45 + [True] * 5, generation=nsga2d)
    assert first_failure_iteration(hist4) == 2


def test_failure_count_examples():
    assert failure_count(fake_history([], [])) == 0
    assert failure_count(fake_history([[0.0, 0.0]] * 10, [True] * 10)) == 10
    flags = [True, False, True, False, True]
    assert failure_count(fake_history([[0.0, 0.0]] * 5, flags)) == sum(flags) == 3


# The list-based metrics that read one Python object per evaluation, verbatim
# but for their names (the first-failure one reads each record's logged
# generation); the column operations must give the same values.


def list_convergence_series(
    history,
    reference,
    params: CidParams = CidParams(),
    interval: int = 100,
) -> ConvergenceSeries:
    if interval < 1:
        raise ValueError(f"checkpoint interval must be positive, got {interval}")
    Z = coverage._as_points(reference, "reference set")
    if len(Z) == 0:
        raise ValueError("reference set is empty; CID needs at least one reference point")
    n = len(history.evaluations)
    marks = list(range(interval, n + 1, interval))
    if not marks or marks[-1] != n:
        marks.append(n)

    best = np.full(len(Z), np.inf)
    failures = 0
    cursor = 0
    checkpoints = []
    for mark in marks:
        fresh = [ev.input for ev in history.evaluations[cursor:mark] if ev.failed]
        cursor = mark
        if fresh:
            failures += len(fresh)
            d = cdist(Z, np.array(fresh), metric="minkowski", p=params.p).min(axis=1)
            best = np.minimum(best, d)
        value = coverage._aggregate(best, params.q, len(Z)) if failures else None
        checkpoints.append(
            ConvergenceCheckpoint(evaluations_used=mark, cid=value, failures_so_far=failures)
        )
    return ConvergenceSeries(checkpoints=tuple(checkpoints))


def list_failure_count(history) -> int:
    return sum(1 for ev in history.evaluations if ev.failed)


def list_first_failure_iteration(history) -> int | None:
    for ev in history.evaluations:
        if ev.failed:
            return ev.generation + 1
    return None


def assert_metrics_match_the_list_versions(inputs, failed, Z, params, interval, generation):
    columns = fake_history(inputs, failed, dims=Z.shape[1], generation=generation)
    objects = SimpleNamespace(evaluations=[
        SimpleNamespace(input=np.asarray(x, dtype=float), failed=bool(f), generation=int(g))
        for x, f, g in zip(inputs, failed, generation)
    ])
    got = convergence_series(columns, Z, params, interval)
    want = list_convergence_series(objects, Z, params, interval)
    assert got == want
    assert failure_count(columns) == list_failure_count(objects)
    assert first_failure_iteration(columns) == list_first_failure_iteration(objects)


@pytest.mark.parametrize("failed, interval", [
    ([False] * 12, 5),  # no failures
    ([False] * 11 + [True], 5),  # a failure only in the last row
    ([True, False, True, True, False], 9),  # an interval larger than n
    ([], 3),  # an empty log
])
def test_metrics_match_the_list_versions_on_edge_cases(failed, interval):
    rng = make_rng(48)
    inputs = rng.uniform(0, 1, size=(len(failed), 2))
    Z = rng.uniform(0, 1, size=(7, 2))
    generation = np.arange(len(failed)) // 4
    assert_metrics_match_the_list_versions(inputs, failed, Z, CidParams(), interval, generation)


@given(
    data=st.data(),
    n=st.integers(0, 60),
    dims=st.sampled_from([1, 2, 3, 5]),
    interval=st.integers(1, 80),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.5]),
    q=st.sampled_from([1.0, 2.0]),
    extra=st.integers(0, 150),
)
@settings(max_examples=200, deadline=None)
def test_metrics_match_the_list_versions(data, n, dims, interval, p, q, extra):
    unit = st.floats(0.0, 1.0, allow_nan=False)
    point = st.lists(unit, min_size=dims, max_size=dims)
    inputs = np.array(data.draw(st.lists(point, min_size=n, max_size=n))).reshape(n, dims)
    failed = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # Logged generations never decrease; a step of 0 keeps a row in its
    # predecessor's generation, a step above 1 skips a generation.
    steps = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    generation = np.cumsum(steps, dtype=np.int64)
    # Drawn reference points, and up to 150 more: mostly more than one
    # checkpoint's fresh failures, as reference sets are. Some repeat inputs.
    Z = np.array(data.draw(st.lists(point, min_size=1, max_size=9)))
    more = make_rng(extra, dims).uniform(0.0, 1.0, size=(extra, dims))
    Z = np.concatenate([Z, more, inputs[: extra // 10]])
    assert_metrics_match_the_list_versions(inputs, failed, Z, CidParams(p=p, q=q), interval,
                                           generation)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_series_matches_the_list_version_on_a_benchmark_sized_reference_set(p):
    # The refset-3d shape: thousands of reference points, a checkpoint every
    # 10 evaluations, a few fresh failures at each.
    rng = make_rng(49)
    inputs = rng.uniform(0.0, 1.0, size=(400, 3))
    failed = rng.random(400) < 0.3
    Z = grid_sample(unit_box(3), 18)
    assert_metrics_match_the_list_versions(inputs, failed, Z, CidParams(p=p), 10,
                                           np.arange(400) // 40)


# --- reference sets -----------------------------------------------------------------------


def test_refset_two_region_matches_analytic_area():
    sp = build_two_region("Large")
    refset = build_reference_set(sp, {"strategy": "grid", "params": {"k": 100}})
    fraction = len(refset) / refset.total_sampled
    exact = two_region_failing_area(TWO_REGION_MARGINS["Large"])
    assert abs(fraction - exact) / exact < 0.02


def test_refset_empty_failure_region_raises_with_count():
    sp = build_two_ball(c1=(0.2, 0.5), c2=(0.8, 0.5), t1=0.1, t2=0.1)
    with pytest.raises(EmptyReferenceSetError, match="1024") as err:
        build_reference_set(sp, {"strategy": "grid", "params": {"k": 32}})
    assert err.value.total_sampled == 1024


def test_refset_grid_r_star_is_cell_diagonal():
    sp = build_two_ball("Large")
    refset = build_reference_set(sp, {"strategy": "grid", "params": {"k": 11}})
    assert refset.max_adjacent_distance == pytest.approx(np.sqrt(2) / 10.0)


def test_refset_nongrid_r_star_is_max_nn_distance():
    sp = build_two_ball("Large")
    refset = build_reference_set(
        sp, {"strategy": "uniform", "params": {"n": 400, "seed": 5}}
    )
    assert refset.max_adjacent_distance == pytest.approx(
        max_nearest_neighbor_distance(refset.points)
    )


def test_refset_points_are_failing_and_unique():
    sp = get_problem("avp_analog", "Medium")
    refset = build_reference_set(sp, {"strategy": "grid", "params": {"k": 12}})
    assert np.all(sp.oracle.mask(sp.fitness_batch(refset.points)))
    assert len(np.unique(refset.points, axis=0)) == len(refset.points)


def test_refset_cache_round_trip_byte_identical(tmp_path):
    sp = build_two_ball("Large")
    spec = {"strategy": "grid", "params": {"k": 24}}
    first = build_reference_set(sp, spec, cache_dir=tmp_path)
    files = sorted(tmp_path.glob("refset-*.csv"))
    assert len(files) == 1
    blob = files[0].read_bytes()
    second = build_reference_set(sp, spec, cache_dir=tmp_path)
    assert files[0].read_bytes() == blob
    np.testing.assert_array_equal(first.points, second.points)
    assert second.total_sampled == first.total_sampled
    assert second.max_adjacent_distance == first.max_adjacent_distance


def test_refset_cache_keyed_on_oracle_thresholds(tmp_path):
    spec = {"strategy": "grid", "params": {"k": 64}}
    build_reference_set(get_problem("two_ball", "Large"), spec, cache_dir=tmp_path)
    # Same name, label and sampler, but discs too small to hold a grid node.
    tight = get_problem("two_ball", "Large", t1=0.05, t2=0.05)
    with pytest.raises(EmptyReferenceSetError):
        build_reference_set(tight, spec, cache_dir=tmp_path)


def test_refset_cache_keyed_on_fitness_parameters(tmp_path):
    spec = {"strategy": "grid", "params": {"k": 32}}
    near = build_reference_set(get_problem("two_ball", "Large"), spec, cache_dir=tmp_path)
    apart = get_problem("two_ball", "Large", c1=[0.3, 0.5], c2=[0.7, 0.5])
    cached = build_reference_set(apart, spec, cache_dir=tmp_path)
    np.testing.assert_array_equal(cached.points, build_reference_set(apart, spec).points)
    assert len(cached) != len(near)
    assert len(list(tmp_path.glob("refset-*.csv"))) == 2


def test_refset_cache_sidecar_records_key(tmp_path):
    sp = get_problem("two_ball", "Large", t1=0.2, t2=0.25)
    build_reference_set(sp, {"strategy": "grid", "params": {"k": 16}}, cache_dir=tmp_path)
    (sidecar,) = tmp_path.glob("refset-*.json")
    key = json.loads(sidecar.read_text())["cache_key"]
    assert key["clauses"] == [[0, 0.2], [1, 0.25]]
    assert key["problem"] == "two_ball" and key["variant"] == "Custom"
    assert key["strategy"] == "grid" and key["params"] == {"k": 16}


def assert_same_refset(got, want):
    np.testing.assert_array_equal(got.points, want.points)
    assert (got.problem_name, got.oracle_label, got.sampler_label, got.sampler_params) == (
        want.problem_name, want.oracle_label, want.sampler_label, want.sampler_params
    )
    assert (got.total_sampled, got.max_adjacent_distance) == (
        want.total_sampled, want.max_adjacent_distance
    )


GRID_16 = {"strategy": "grid", "params": {"k": 16}}


def test_refset_cache_rebuilds_when_sidecar_is_missing(tmp_path):
    sp = get_problem("two_ball", "Large")
    build_reference_set(sp, GRID_16, cache_dir=tmp_path)
    (sidecar,) = tmp_path.glob("refset-*.json")
    sidecar.unlink()
    rebuilt = build_reference_set(sp, GRID_16, cache_dir=tmp_path)
    assert rebuilt.total_sampled == 256
    assert_same_refset(rebuilt, build_reference_set(sp, GRID_16))
    assert sidecar.exists()


def test_refset_cache_rebuilds_when_sidecar_key_differs(tmp_path):
    # Another set's CSV and sidecar under this key's file name, as a clash of
    # the 12 hex digits in the name would leave them.
    sp = get_problem("two_ball", "Large")
    build_reference_set(sp, {"strategy": "grid", "params": {"k": 12}}, cache_dir=tmp_path / "a")
    build_reference_set(sp, GRID_16, cache_dir=tmp_path / "b")
    (csv_a,), (csv_b,) = (sorted((tmp_path / d).glob("refset-*.csv")) for d in "ab")
    csv_b.write_bytes(csv_a.read_bytes())
    csv_b.with_suffix(".json").write_bytes(csv_a.with_suffix(".json").read_bytes())
    served = build_reference_set(sp, GRID_16, cache_dir=tmp_path / "b")
    assert_same_refset(served, build_reference_set(sp, GRID_16))
    assert json.loads(csv_b.with_suffix(".json").read_text())["cache_key"]["params"] == {"k": 16}


def test_refset_cache_interrupted_sidecar_write_leaves_no_hit(tmp_path, monkeypatch):
    sp = get_problem("two_ball", "Large")
    dumps = json.dumps

    def interrupted(obj, **kwargs):
        if "indent" in kwargs:  # the sidecar; the cache-key digest passes
            raise KeyboardInterrupt
        return dumps(obj, **kwargs)

    monkeypatch.setattr(coverage.json, "dumps", interrupted)
    with pytest.raises(KeyboardInterrupt):
        build_reference_set(sp, GRID_16, cache_dir=tmp_path)
    monkeypatch.undo()
    assert not list(tmp_path.glob("*.json")) and not list(tmp_path.glob("*.tmp"))
    rebuilt = build_reference_set(sp, GRID_16, cache_dir=tmp_path)
    assert_same_refset(rebuilt, build_reference_set(sp, GRID_16))


#: Cache-key digests of grid k=16 reference sets. The file name of a cached
#: set holds the first 12 hex digits, so any change here orphans every cache.
CACHE_KEY_DIGESTS = [
    ("two_ball", "Large", "73d486c2d333e5646e008762b0d9dded18d10a4a603d54b6e8ad59a3502db1a2"),
    ("avp_analog", "Medium", "6eea162647d0fd45aff111be261e1f346b3f92d752fd18ef09f8d43198e10fa2"),
    ("two_region", "Small", "aab4ef93f192c2855d6055541115a91868231d3527ceb671ced68be85c1eecb0"),
]


@pytest.mark.parametrize("name, variant, digest", CACHE_KEY_DIGESTS)
def test_refset_cache_key_digest_is_pinned(name, variant, digest):
    key = coverage._cache_key(get_problem(name, variant), "grid", {"k": 16})
    assert coverage._digest(key) == digest


# --- the fitness contract on reference sets and the failure-region estimate ---------


def _nan_where_x1_below_a_tenth(X: np.ndarray) -> np.ndarray:
    """Fitness (x1, x2), NaN in f1 where x1 < 0.1: 11 rows of a k=11 grid."""
    F = X.copy()
    F[X[:, 0] < 0.1, 0] = np.nan
    return F


BROKEN_FITNESS = [
    pytest.param(_nan_where_x1_below_a_tenth, r"broken: fitness is not finite for row \d+, input",
                 id="nan"),
    pytest.param(lambda X: np.column_stack([X, X[:, 0]]),
                 r"broken: fitness_batch returned shape \(\d+, 3\)", id="wrong-shape"),
]


def _broken_problem(fitness_batch) -> ProblemDefinition:
    return ProblemDefinition(
        name="broken",
        space=unit_box(2),
        objective_count=2,
        fitness_batch=fitness_batch,
        oracle=OracleSpec(clauses=((0, 0.5), (1, 0.5))),
    )


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("fitness_batch, message", BROKEN_FITNESS)
def test_refset_rejects_a_broken_fitness(fitness_batch, message, cached, tmp_path):
    problem = _broken_problem(fitness_batch)
    with pytest.raises(ValueError, match=message):
        build_reference_set(problem, {"strategy": "grid", "params": {"k": 11}},
                            cache_dir=tmp_path if cached else None)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fitness_batch, message", BROKEN_FITNESS)
def test_doi_volume_estimate_rejects_a_broken_fitness(fitness_batch, message):
    with pytest.raises(ValueError, match=message):
        doi_volume_estimate(_broken_problem(fitness_batch), k=11)


def test_refset_load_rejects_tampered_points(tmp_path):
    sp = build_two_ball("Large")
    refset = build_reference_set(sp, {"strategy": "grid", "params": {"k": 16}})
    path = save_reference_set(refset, tmp_path / "ref.csv")
    text = path.read_text()
    digit = next(i for i, ch in enumerate(text) if ch in "123456789" and i > text.index("\n"))
    path.write_text(text[:digit] + str(int(text[digit]) % 9 + 1) + text[digit + 1 :])
    with pytest.raises(ReferenceSetIntegrityError, match="content_hash"):
        load_reference_set(path)


@pytest.mark.parametrize("body, line", [
    pytest.param("1,2,3\n4,5,6\n", 2, id="wide-rows"),
    pytest.param("1,2\n3\n", 3, id="short-row"),
    pytest.param("1,2\n\n3,4\n", 3, id="blank-line"),
])
def test_point_rows_must_match_the_header(tmp_path, body, line):
    path = tmp_path / "points.csv"
    path.write_text("x1,x2\n" + body)
    for read in (read_points, load_reference_set):
        with pytest.raises(ValueError, match=f"points.csv: line {line} holds"):
            read(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_point_files_refuse_a_value_that_is_not_finite(tmp_path, value):
    path = tmp_path / "points.csv"
    payload = f"x1,x2\n0.5,0.5\n{value},0.5\n"
    path.write_text(payload)
    # A sidecar that vouches for the bytes does not make them usable points.
    path.with_suffix(".json").write_text(json.dumps({
        "content_hash": hashlib.sha256(payload.encode()).hexdigest(),
        "max_adjacent_distance": 0.1,
    }))
    for read in (read_points, load_reference_set):
        with pytest.raises(ValueError, match="points.csv: line 3 holds a value that is not finite"):
            read(path)


def test_a_header_only_point_file_holds_no_points_of_the_header_width(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("x1,x2,x3\n")
    assert read_points(path).shape == (0, 3)


def test_refset_load_reads_r_star_from_the_sidecar_without_a_neighbour_search(
    tmp_path, monkeypatch
):
    refset = build_reference_set(build_two_ball("Large"), GRID_16)
    path = save_reference_set(refset, tmp_path / "ref.csv")
    want = max_nearest_neighbor_distance(refset.points)

    def no_search(points):
        raise AssertionError("searched for nearest neighbours")

    monkeypatch.setattr(coverage, "max_nearest_neighbor_distance", no_search)
    assert load_reference_set(path).max_adjacent_distance == refset.max_adjacent_distance
    monkeypatch.undo()
    (tmp_path / "ref.json").unlink()
    assert load_reference_set(path).max_adjacent_distance == want


def test_refset_save_load_round_trip(tmp_path):
    sp = build_two_region("Medium")
    refset = build_reference_set(sp, {"strategy": "grid", "params": {"k": 40}})
    path = save_reference_set(refset, tmp_path / "ref.csv")
    loaded = load_reference_set(path)
    np.testing.assert_array_equal(loaded.points, refset.points)
    assert loaded.problem_name == "two_region"
    assert loaded.oracle_label == "Medium"
    assert loaded.total_sampled == refset.total_sampled
    sidecar = json.loads((tmp_path / "ref.json").read_text())
    assert sidecar["content_hash"] == refset.content_hash()
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2"
