"""Nonparametric comparison of result samples.

Two-sided Wilcoxon tests (rank sum for independent samples, signed rank for
paired samples) with exact small-sample distributions, plus the Vargha-Delaney
A12 effect size and its magnitude bands:

    large       e > 0.71 or e < 0.29
    medium      0.64 < e <= 0.71 or 0.29 <= e < 0.34
    small       0.56 <= e <= 0.64 or 0.34 <= e <= 0.44
    negligible  otherwise

Exact p-values are computed by dynamic programming over the null distribution
whenever the sample sizes allow (combined size <= 20 for the rank sum test
without ties, n <= 20 pairs for the signed rank test); otherwise the normal
approximation with tie and continuity corrections is used.

Both tests rank with in-house midranks: tied values share the mean of the
1-based positions they occupy in sorted order. Each such rank is an exact
half-integer, so the ranks equal ``scipy.stats.rankdata``'s default
(``method="average"``, ``nan_policy="propagate"``) bit for bit, and this
module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RANK_SUM_EXACT_LIMIT = 20
SIGNED_RANK_EXACT_LIMIT = 20


def _exact_two_sided(counts: np.ndarray, statistic: int) -> float:
    """Two-sided exact p of ``statistic``: twice its smaller tail under the null ``counts``."""
    at_most = int(counts[: statistic + 1].sum())
    at_least = int(counts[statistic:].sum())
    return min(1.0, 2.0 * min(at_most, at_least) / int(counts.sum()))


def _normal_two_sided(offset: float, variance: float) -> float:
    if variance <= 0:
        return 1.0
    z = max(0.0, abs(offset) - 0.5) / math.sqrt(variance)  # continuity correction
    return math.erfc(z / math.sqrt(2.0))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged; all NaN when any value is NaN."""
    if np.isnan(values).any():
        return np.full(len(values), np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _tie_term(values: np.ndarray) -> float:
    _, counts = np.unique(values, return_counts=True)
    return float(np.sum(counts.astype(float) ** 3 - counts))


def wilcoxon_rank_sum(x, y) -> float:
    """Two-sided Wilcoxon rank sum (Mann-Whitney) p-value.

    Exact by enumeration of the null distribution when the combined sample has
    at most 20 tie-free values; otherwise normal approximation with midranks,
    tie correction, and continuity correction.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) == 0 or len(y) == 0:
        raise ValueError("both samples must be non-empty")
    pooled = np.concatenate([x, y])
    n, m = len(x), len(y)
    total = n + m
    ranks = _midranks(pooled)
    w = float(ranks[:n].sum())

    tie_free = len(np.unique(pooled)) == total
    if tie_free and total <= RANK_SUM_EXACT_LIMIT:
        return _exact_two_sided(_rank_sum_null_counts(total, n), int(round(w)))

    mean = n * (total + 1) / 2.0
    variance = n * m * (total + 1) / 12.0 - n * m * _tie_term(pooled) / (
        12.0 * total * (total - 1)
    )
    return _normal_two_sided(w - mean, variance)


def _rank_sum_null_counts(total: int, n: int) -> np.ndarray:
    """counts[s] = number of n-subsets of ranks {1..total} with sum s."""
    max_sum = total * (total + 1) // 2
    table = np.zeros((n + 1, max_sum + 1), dtype=np.int64)
    table[0, 0] = 1
    for rank in range(1, total + 1):
        for k in range(min(n, rank), 0, -1):
            table[k, rank:] += table[k - 1, : max_sum - rank + 1]
    return table[n]


def wilcoxon_signed_rank(x, y) -> float:
    """Two-sided Wilcoxon signed rank p-value for paired samples.

    Zero differences are dropped; if all differences are zero the p-value is
    1.0. Exact by enumeration of sign assignments for up to 20 non-zero pairs
    (midranks handled by rank doubling); otherwise normal approximation.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise ValueError(f"paired samples must have equal length: {len(x)} vs {len(y)}")
    if len(x) == 0:
        raise ValueError("both samples must be non-empty")
    diff = x - y
    diff = diff[diff != 0.0]
    n = len(diff)
    if n == 0:
        return 1.0
    ranks = _midranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())

    if n <= SIGNED_RANK_EXACT_LIMIT:
        doubled = np.rint(2.0 * ranks).astype(np.int64)
        return _exact_two_sided(_signed_rank_null_counts(doubled), int(round(2.0 * w_plus)))

    mean = n * (n + 1) / 4.0
    variance = n * (n + 1) * (2 * n + 1) / 24.0 - _tie_term(np.abs(diff)) / 48.0
    return _normal_two_sided(w_plus - mean, variance)


def _signed_rank_null_counts(doubled_ranks: np.ndarray) -> np.ndarray:
    """counts[s] = number of sign assignments whose positive part sums to s (doubled)."""
    counts = np.zeros(int(doubled_ranks.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    upto = 0
    for r in doubled_ranks:
        r = int(r)
        upto += r
        counts[r : upto + 1] += counts[: upto - r + 1].copy()
    return counts


def a12(x, y) -> float:
    """Vargha-Delaney effect size: P(X > Y) with ties counted half."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) == 0 or len(y) == 0:
        raise ValueError("both samples must be non-empty")
    wins = np.sum(x[:, None] > y[None, :])
    ties = np.sum(x[:, None] == y[None, :])
    return float((wins + 0.5 * ties) / (len(x) * len(y)))


def classify_effect(e: float) -> str:
    """Magnitude band of an A12 effect size, checked large -> medium -> small."""
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"effect size must be in [0, 1], got {e}")
    if e > 0.71 or e < 0.29:
        return "large"
    if 0.64 < e <= 0.71 or 0.29 <= e < 0.34:
        return "medium"
    if 0.56 <= e <= 0.64 or 0.34 <= e <= 0.44:
        return "small"
    return "negligible"


@dataclass(frozen=True)
class StatResult:
    """Outcome of one pairwise comparison."""

    pair_label: str
    p_value: float
    a12: float
    magnitude: str
    significant: bool


def compare_samples(
    pair_label: str, x, y, test: str = "ranksum", alpha: float = 0.05
) -> StatResult:
    """Wilcoxon p-value plus effect size and magnitude for one sample pair."""
    if test == "ranksum":
        p = wilcoxon_rank_sum(x, y)
    elif test == "signedrank":
        p = wilcoxon_signed_rank(x, y)
    else:
        raise ValueError(f"unknown test {test!r}, expected 'ranksum' or 'signedrank'")
    effect = a12(x, y)
    return StatResult(
        pair_label=pair_label,
        p_value=p,
        a12=effect,
        magnitude=classify_effect(effect),
        significant=p < alpha,
    )
