"""Statistics: exact Wilcoxon p-values against enumeration oracles, the
in-house midranks against ``scipy.stats.rankdata``, the Vargha-Delaney effect
size, and its magnitude bands."""

import math
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import rankdata

import failcover
from failcover.samplers import make_rng
from failcover.stats import (
    _midranks,
    a12,
    classify_effect,
    compare_samples,
    wilcoxon_rank_sum,
    wilcoxon_signed_rank,
)


def enumeration_rank_sum_p(x, y) -> float:
    """Oracle: enumerate every assignment of ranks to the first sample."""
    pooled = np.concatenate([x, y])
    n, total = len(x), len(pooled)
    ranks = rankdata(pooled)
    observed = ranks[:n].sum()
    sums = [sum(combo) for combo in combinations(sorted(ranks), n)]
    at_most = sum(1 for s in sums if s <= observed + 1e-12)
    at_least = sum(1 for s in sums if s >= observed - 1e-12)
    return min(1.0, 2.0 * min(at_most, at_least) / len(sums))


def enumeration_signed_rank_p(x, y) -> float:
    """Oracle: enumerate every sign assignment of the non-zero differences."""
    diff = np.asarray(x, float) - np.asarray(y, float)
    diff = diff[diff != 0]
    n = len(diff)
    if n == 0:
        return 1.0
    ranks = rankdata(np.abs(diff))
    observed = ranks[diff > 0].sum()
    sums = [sum(r for r, s in zip(ranks, signs) if s) for signs in product([0, 1], repeat=n)]
    at_most = sum(1 for s in sums if s <= observed + 1e-12)
    at_least = sum(1 for s in sums if s >= observed - 1e-12)
    return min(1.0, 2.0 * min(at_most, at_least) / len(sums))


# --- rank sum ---------------------------------------------------------------


def test_rank_sum_identical_samples():
    assert wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


def test_rank_sum_full_separation_small():
    assert wilcoxon_rank_sum([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1, abs=1e-12)


def test_rank_sum_matches_enumeration_oracle():
    rng = make_rng(101)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        x = rng.normal(size=n)
        y = rng.normal(size=m)
        got = wilcoxon_rank_sum(x, y)
        want = enumeration_rank_sum_p(x, y)
        assert got == pytest.approx(want, abs=1e-12)


def test_rank_sum_symmetry():
    rng = make_rng(102)
    for _ in range(10):
        x = rng.normal(size=6)
        y = rng.normal(size=7)
        assert wilcoxon_rank_sum(x, y) == pytest.approx(wilcoxon_rank_sum(y, x), abs=1e-12)


def test_rank_sum_ties_take_approximation_path():
    # With ties the midrank normal approximation applies and stays in [0, 1].
    p = wilcoxon_rank_sum([1, 1, 2, 2], [1, 2, 2, 3])
    assert 0.0 <= p <= 1.0


def test_rank_sum_large_samples_approximation():
    rng = make_rng(103)
    x = rng.normal(size=30)
    y = rng.normal(loc=2.0, size=30)
    p = wilcoxon_rank_sum(x, y)
    assert p < 0.001


def test_rank_sum_empty_sample_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        wilcoxon_rank_sum([], [1.0])


# --- signed rank -------------------------------------------------------------


def test_signed_rank_complete_separation_n10():
    x = np.arange(10, dtype=float)
    y = x + 1.0
    assert wilcoxon_signed_rank(x, y) == pytest.approx(2.0 / 1024.0, abs=1e-15)


def test_signed_rank_identical_pairs():
    x = np.array([1.0, 2.0, 3.0])
    assert wilcoxon_signed_rank(x, x) == 1.0


def test_signed_rank_matches_enumeration_oracle():
    rng = make_rng(104)
    for _ in range(20):
        n = int(rng.integers(1, 13))
        x = rng.normal(size=n)
        y = x + rng.normal(scale=0.8, size=n)
        got = wilcoxon_signed_rank(x, y)
        want = enumeration_signed_rank_p(x, y)
        assert got == pytest.approx(want, abs=1e-12)


def test_signed_rank_with_tied_magnitudes_matches_oracle():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([2.0, 1.0, 5.0, 2.0])  # |d| = 1, 1, 2, 2 -> midranks
    got = wilcoxon_signed_rank(x, y)
    want = enumeration_signed_rank_p(x, y)
    assert got == pytest.approx(want, abs=1e-12)


def test_signed_rank_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        wilcoxon_signed_rank([1.0], [1.0, 2.0])


def test_signed_rank_large_n_approximation():
    rng = make_rng(105)
    x = rng.normal(size=40)
    y = x + np.abs(rng.normal(size=40)) + 0.1
    assert wilcoxon_signed_rank(x, y) < 1e-6


# --- effect size ----------------------------------------------------------------


def test_a12_all_ties():
    assert a12([5.0, 5.0], [5.0, 5.0]) == 0.5


def test_a12_complete_separation():
    assert a12([1.0, 2.0], [3.0, 4.0]) == 0.0
    assert a12([3.0, 4.0], [1.0, 2.0]) == 1.0


def test_a12_mixed_example():
    assert a12([1.0, 2.0], [2.0, 3.0]) == pytest.approx(0.125)


def test_a12_complementarity():
    rng = make_rng(106)
    for _ in range(20):
        x = rng.normal(size=8)
        y = rng.normal(size=11)
        assert a12(x, y) + a12(y, x) == pytest.approx(1.0, abs=1e-12)


def test_a12_monotone_transform_invariance():
    rng = make_rng(107)
    x = rng.normal(size=9)
    y = rng.normal(size=9)
    transform = lambda v: np.exp(3.0 * v) + 1.0  # strictly increasing
    assert a12(transform(x), transform(y)) == pytest.approx(a12(x, y), abs=1e-12)


# --- magnitude bands --------------------------------------------------------------


@pytest.mark.parametrize(
    "e, expected",
    [
        (0.50, "negligible"),
        (0.60, "small"),
        (0.00, "large"),
        (1.00, "large"),
        (0.28, "large"),
        (0.29, "medium"),
        (0.33, "medium"),
        (0.34, "small"),
        (0.44, "small"),
        (0.45, "negligible"),
        (0.56, "small"),
        (0.64, "small"),
        (0.65, "medium"),
        (0.71, "medium"),
        (0.72, "large"),
    ],
)
def test_classify_effect_bands(e, expected):
    assert classify_effect(e) == expected


def test_classify_effect_symmetry_where_bands_are_symmetric():
    for e in np.linspace(0.0, 0.289, 50):
        assert classify_effect(e) == classify_effect(1.0 - e) == "large"
    for e in np.linspace(0.36, 0.44, 50):
        assert classify_effect(e) == classify_effect(1.0 - e) == "small"


def test_classify_effect_domain():
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        classify_effect(1.2)


# --- combined result ------------------------------------------------------------------


def test_compare_samples_identical():
    result = compare_samples("a vs b", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.p_value == 1.0
    assert result.a12 == 0.5
    assert result.magnitude == "negligible"
    assert not result.significant


def test_compare_samples_separated_signed_rank():
    x = np.arange(10, dtype=float)
    result = compare_samples("a vs b", x, x + 100.0, test="signedrank")
    assert result.p_value == pytest.approx(2.0 / 1024.0)
    assert result.a12 == 0.0
    assert result.magnitude == "large"
    assert result.significant


def test_compare_samples_unknown_test():
    with pytest.raises(ValueError, match="unknown test"):
        compare_samples("a vs b", [1.0], [2.0], test="ttest")


# --- midranks ------------------------------------------------------------------


rank_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(st.lists(rank_values, min_size=1, max_size=40))
@example([5.0])
@example([math.nan])
@example([0.0, -0.0, 0.0, -0.0])
@example([math.inf, -math.inf, math.inf, 1.0, -math.inf])
@example([2.0, 1.0, 2.0, math.nan, 1.0])
def test_midranks_equal_scipy_rankdata(values):
    v = np.array(values, dtype=float)
    got, want = _midranks(v), rankdata(v)
    assert got.dtype == want.dtype and got.shape == want.shape
    if np.isnan(v).any():
        assert np.isnan(got).all() and np.isnan(want).all()
    else:
        assert (got == want).all()


# --- p-values pinned at the commit that still ranked with scipy ----------------

X_SMALL = [0.31, 0.12, 0.55, 0.47, 0.09, 0.73, 0.28]
Y_SMALL = [0.61, 0.44, 0.83, 0.39, 0.92, 0.58, 0.77, 0.66]
X_TIED = [1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 5.0]
Y_TIED = [2.0, 3.0, 4.0, 4.0, 5.0, 5.0, 6.0]
X_LARGE = [0.1 * ((7 * i) % 23) for i in range(25)]
Y_LARGE = [0.1 * ((5 * i) % 19) + 0.35 for i in range(22)]
PAIRED_X = [0.50, 0.42, 0.61, 0.38, 0.47, 0.55, 0.44, 0.58, 0.40, 0.52, 0.49, 0.63]
PAIRED_Y = [0.45, 0.44, 0.52, 0.30, 0.47, 0.49, 0.36, 0.51, 0.41, 0.43, 0.40, 0.57]
PAIRED_LARGE_X = [0.05 * ((3 * i) % 17) for i in range(30)]
PAIRED_LARGE_Y = [0.05 * ((3 * i) % 17) - 0.05 * ((i % 5) - 1) for i in range(30)]


@pytest.mark.parametrize(
    "test, x, y, p_value, effect",
    [
        # exact: 15 tie-free values
        ("ranksum", X_SMALL, Y_SMALL, 0.028904428904428906, 0.16071428571428573),
        # normal approximation: ties
        ("ranksum", X_TIED, Y_TIED, 0.09833498775850144, 0.24107142857142858),
        # normal approximation: 47 values
        ("ranksum", X_LARGE, Y_LARGE, 0.4239319970026, 0.4309090909090909),
        # exact: 11 non-zero differences
        ("signedrank", PAIRED_X, PAIRED_Y, 0.0048828125, 0.6701388888888888),
        # normal approximation: 24 non-zero differences
        ("signedrank", PAIRED_LARGE_X, PAIRED_LARGE_Y, 0.00185968832326524, 0.56),
    ],
)
def test_p_values_pinned(test, x, y, p_value, effect):
    rank = wilcoxon_rank_sum if test == "ranksum" else wilcoxon_signed_rank
    assert rank(x, y) == p_value
    result = compare_samples("a vs b", x, y, test=test)
    assert (result.p_value, result.a12) == (p_value, effect)


def test_import_and_parse_config_leave_scipy_stats_unloaded():
    src = Path(failcover.__file__).resolve().parent.parent
    child = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import failcover\n"
        "failcover.parse_config({'problem': {'name': 'two_ball'}, 'budget': 100,"
        " 'algorithms': [{'name': 'rs'}], 'base_seed': 0,"
        " 'refset': {'strategy': 'grid', 'params': {'k': 8}}})\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cli_work_without_distances_leaves_scipy_unloaded(tmp_path):
    # A tiny result directory, written here, for the child's compare and report.
    raw = {"problem": {"name": "two_ball"}, "budget": 40, "repetitions": 2,
           "algorithms": [{"name": "rs"}, {"name": "nsga2", "params": {"population_size": 10}}],
           "base_seed": 0, "refset": {"strategy": "grid", "params": {"k": 8}}}
    out = tmp_path / "out"
    failcover.run_experiment(failcover.parse_config(raw), out)
    test_set, reference = [[0.1, 0.2], [0.5, 0.5]], [[0.4, 0.5], [0.6, 0.45], [0.9, 0.1]]
    src = Path(failcover.__file__).resolve().parent.parent
    child = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import failcover\n"
        "from failcover.cli import main\n"
        f"failcover.parse_config({raw!r})\n"
        f"for argv in (['problems', 'list'], ['compare', '--in', {str(out)!r}],"
        f" ['report', '--in', {str(out)!r}]):\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        f"value = failcover.cid({test_set!r}, {reference!r})\n"
        "assert 'scipy.spatial' in sys.modules\n"
        "print(repr(value))\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(failcover.cid(test_set, reference))
