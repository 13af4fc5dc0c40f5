"""Catalog of closed-form test problems with analytically known failure regions.

Each builder returns a :class:`~failcover.core.ProblemDefinition` whose
``fitness_batch`` is closed-form, so failure-region membership (the oracle's
mask of that fitness), reference sets and coverage results can be validated
without any search. Three problems ship:

``two_ball``
    Two distance objectives in the unit square. The failure region is the
    lens where two discs overlap (full-dimensional), while the Pareto set is
    only the segment between the two centers.

``two_region``
    Failure region split into two disjoint axis-aligned boxes; the graded
    oracle variants admit a distance margin around the boxes.

``avp_analog``
    A 3-D, two-objective problem shaped like a driving-scenario search
    (position error modulated by a timing variable, plus a speed objective),
    with failures concentrated near the fitness optimum.

Oracle variants are nested: every Small failure is a Medium failure and every
Medium failure is a Large failure.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import OracleSpec, ProblemDefinition, check_finite_real, unit_box
from .samplers import grid_sample

VARIANTS = ("Large", "Medium", "Small")


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit for bit what numpy's ``linalg.norm`` gives along axis 1."""
    return np.sqrt(np.add.reduce(d * d, axis=1))


@dataclass(frozen=True)
class ProblemCatalogEntry:
    build: Callable[..., ProblemDefinition]
    variant_summary: dict[str, str]


# --- two_ball ---------------------------------------------------------------

#: Default geometry: centers 0.1 apart, so the Pareto segment is a short
#: sliver inside a fat lens (failure fractions roughly 22%, 11%, and 4%).
TWO_BALL_RADII = {"Large": (0.3, 0.3), "Medium": (0.22, 0.22), "Small": (0.15, 0.15)}


def build_two_ball(
    variant: str = "Large",
    c1: tuple[float, float] = (0.45, 0.5),
    c2: tuple[float, float] = (0.55, 0.5),
    t1: float | None = None,
    t2: float | None = None,
) -> ProblemDefinition:
    """Distance-to-two-centers problem whose failure region is a disc lens.

    f1 and f2 are the Euclidean distances to ``c1`` and ``c2``; a failure
    needs f1 < t1 and f2 < t2 simultaneously, so the failure region is the
    open intersection of the two discs while the Pareto set is the segment
    between the centers.
    """
    space = unit_box(2)
    a = np.asarray(c1, dtype=float)
    b = np.asarray(c2, dtype=float)
    if np.array_equal(a, b):
        raise ValueError("the two centers must differ")
    if not (space.contains(a) and space.contains(b)):
        raise ValueError("both centers must lie inside the unit square")
    if t1 is None or t2 is None:
        if variant not in TWO_BALL_RADII:
            raise ValueError(f"unknown two_ball variant {variant!r}")
        dt1, dt2 = TWO_BALL_RADII[variant]
        t1 = dt1 if t1 is None else t1
        t2 = dt2 if t2 is None else t2
    check_finite_real("disc radius t1", t1)
    check_finite_real("disc radius t2", t2)
    if t1 <= 0 or t2 <= 0:
        raise ValueError(f"disc radii must be positive, got ({t1}, {t2})")

    centres = np.stack([a, b])

    def fitness_batch(points: np.ndarray) -> np.ndarray:
        # Both distances in one broadcast: row i, column k is |points[i] - centres[k]|,
        # each sum of squares one 2-term add, the doubles of _row_norms per centre.
        d = np.asarray(points, dtype=float)[:, None, :] - centres
        return np.sqrt(np.add.reduce(d * d, axis=2))

    label = variant if (t1, t2) == TWO_BALL_RADII.get(variant) else "Custom"
    oracle = OracleSpec(clauses=((0, float(t1)), (1, float(t2))), variant_label=label)
    return ProblemDefinition(name="two_ball", space=space, objective_count=2,
                             fitness_batch=fitness_batch, oracle=oracle)


def two_ball_lens_area(r1: float, r2: float, d: float) -> float:
    """Exact area of the intersection of two discs with radii r1, r2 at distance d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        r = min(r1, r2)
        return float(np.pi * r * r)
    d1 = (d * d - r2 * r2 + r1 * r1) / (2 * d)
    d2 = d - d1
    a1 = r1 * r1 * np.arccos(d1 / r1) - d1 * np.sqrt(r1 * r1 - d1 * d1)
    a2 = r2 * r2 * np.arccos(d2 / r2) - d2 * np.sqrt(r2 * r2 - d2 * d2)
    return float(a1 + a2)


# --- two_region -------------------------------------------------------------

TWO_REGION_BOXES = (((0.15, 0.55), (0.35, 0.80)), ((0.60, 0.15), (0.85, 0.35)))
#: Margin around the boxes per variant. The Small margin is numerically zero:
#: the oracle keeps its strict < form, so "inside a box" (distance 0) fails.
TWO_REGION_MARGINS = {"Large": 0.05, "Medium": 0.02, "Small": 1e-9}


def _box_distance(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    excess = np.maximum(np.maximum(lo - points, points - hi), 0.0)
    return _row_norms(excess)


def build_two_region(
    variant: str = "Large",
    boxes: tuple = TWO_REGION_BOXES,
    margin: float | None = None,
) -> ProblemDefinition:
    """Two disjoint failure boxes in the unit square.

    f1 is the Euclidean distance to the nearest box (zero inside), f2 the
    distance to the first box's center. Variants grade strictness by the
    allowed distance margin, because pure insideness is a binary predicate.
    """
    space = unit_box(2)
    (a_lo, a_hi), (b_lo, b_hi) = (
        (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)) for lo, hi in boxes
    )
    for lo, hi in ((a_lo, a_hi), (b_lo, b_hi)):
        if not np.all(lo < hi):
            raise ValueError("each region must have positive extent")
        if not (space.contains(lo) and space.contains(hi)):
            raise ValueError("regions must lie inside the unit square")
    if np.all(a_lo < b_hi) and np.all(b_lo < a_hi):
        raise ValueError("the two regions must not overlap")
    if margin is None:
        if variant not in TWO_REGION_MARGINS:
            raise ValueError(f"unknown two_region variant {variant!r}")
        margin = TWO_REGION_MARGINS[variant]
    check_finite_real("margin", margin)
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    center_a = (a_lo + a_hi) / 2.0

    def fitness_batch(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.empty((len(pts), 2))
        out[:, 0] = np.minimum(_box_distance(pts, a_lo, a_hi), _box_distance(pts, b_lo, b_hi))
        out[:, 1] = _row_norms(pts - center_a)
        return out

    label = variant if margin == TWO_REGION_MARGINS.get(variant) else "Custom"
    oracle = OracleSpec(clauses=((0, float(margin)),), variant_label=label)
    return ProblemDefinition(name="two_region", space=space, objective_count=2,
                             fitness_batch=fitness_batch, oracle=oracle)


def two_region_failing_area(margin: float, boxes: tuple = TWO_REGION_BOXES) -> float:
    """Exact area of the margin-inflated regions (boxes grown by an open disc)."""
    total = 0.0
    for lo, hi in boxes:
        w = hi[0] - lo[0]
        h = hi[1] - lo[1]
        total += w * h + 2 * margin * (w + h) + np.pi * margin * margin
    return float(total)


# --- avp_analog -------------------------------------------------------------

AVP_ANALOG_THRESHOLDS = {
    "Large": (0.25, -0.40),
    "Medium": (0.18, -0.50),
    "Small": (0.12, -0.55),
}
_AVP_TARGET = np.array([0.7, 0.3])


def build_avp_analog(variant: str = "Large") -> ProblemDefinition:
    """Desk-scale stand-in for a 3-variable driving-scenario search.

    f1 is the planar distance of (x1, x2) to a target point, modulated by a
    sinusoidal timing term in x3; f2 rewards high x1 damped by x3. Failures
    need both objectives below their variant thresholds, which confines them
    near the fitness optimum.
    """
    if variant not in AVP_ANALOG_THRESHOLDS:
        raise ValueError(f"unknown avp_analog variant {variant!r}")
    t1, t2 = AVP_ANALOG_THRESHOLDS[variant]
    space = unit_box(3)

    def fitness_batch(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.empty((len(pts), 2))
        out[:, 0] = _row_norms(pts[:, :2] - _AVP_TARGET) - 0.2 * np.sin(3.0 * np.pi * pts[:, 2])
        out[:, 1] = -pts[:, 0] * (1.0 - 0.5 * pts[:, 2])
        return out

    oracle = OracleSpec(clauses=((0, t1), (1, t2)), variant_label=variant)
    return ProblemDefinition(name="avp_analog", space=space, objective_count=2,
                             fitness_batch=fitness_batch, oracle=oracle)


# --- catalog ----------------------------------------------------------------

CATALOG: dict[str, ProblemCatalogEntry] = {
    "two_ball": ProblemCatalogEntry(
        build=build_two_ball,
        variant_summary={v: f"disc radii {TWO_BALL_RADII[v]}" for v in VARIANTS},
    ),
    "two_region": ProblemCatalogEntry(
        build=build_two_region,
        variant_summary={v: f"distance margin {TWO_REGION_MARGINS[v]}" for v in VARIANTS},
    ),
    "avp_analog": ProblemCatalogEntry(
        build=build_avp_analog,
        variant_summary={
            v: f"f1 < {AVP_ANALOG_THRESHOLDS[v][0]}, f2 < {AVP_ANALOG_THRESHOLDS[v][1]}"
            for v in VARIANTS
        },
    ),
}


def get_problem(name: str, variant: str = "Large", **params) -> ProblemDefinition:
    """Build a catalog problem by name and oracle variant."""
    if name not in CATALOG:
        raise ValueError(f"unknown problem {name!r}, expected one of {sorted(CATALOG)}")
    return CATALOG[name].build(variant=variant, **params)


def doi_volume_estimate(problem: ProblemDefinition, k: int) -> float:
    """Fraction of the k-per-axis grid whose nodes fall in the failure region."""
    points = grid_sample(problem.space, k)
    return float(np.mean(problem.oracle.mask(problem.fitness(points))))
