"""Seeded point-generation strategies, each returning an ``(n, dims)`` array.

``grid``, ``fps`` and ``poisson`` build reference sets, ``lhs`` seeds
evolutionary populations, and ``uniform`` drives random search. Each one's
parameter check in :data:`STRATEGIES` runs in its sampler and, when a config
is parsed, in :func:`validate_sampler_params`. Randomized strategies consume a
PCG64 generator derived from an explicit integer seed, so identical seeds
reproduce identical batches on the same numpy/BLAS build. Across builds the
draws stay the same, but ``poisson`` (the length of each dart direction) and
the grid step measure lengths with ``np.linalg.norm``, which goes through BLAS
``ddot``; a kernel that uses fused multiply-adds can round a length
differently in the last bit. ``poisson`` screens each neighbour with
``math.dist`` on Python floats, which is not ``ddot`` either, so a length
within 1e-9 of ``r`` (relative) is decided by ``ddot`` again; outside that
band both agree on any build (see :func:`_closer_than`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from .core import SearchSpace, check_finite_real, check_integer

#: Default number of dart throws per active point in Poisson disc sampling.
DEFAULT_POISSON_ATTEMPTS = 30

#: Candidate pool sizing for furthest point sampling: 50 * dims per requested
#: point, capped to keep the greedy scan affordable.
FPS_POOL_PER_POINT = 50
FPS_POOL_CAP = 100_000

#: Most points a sample or an fps candidate pool, or cells a Poisson
#: background grid, may hold. Larger requests are refused before anything is
#: allocated.
MAX_SAMPLER_CELLS = 10_000_000


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """PCG64 generator for ``seed``; extra integers select independent substreams."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(s) & 0xFFFFFFFFFFFFFFFF for s in stream]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _check_count(strategy: str, key: str, value: object, low: int) -> None:
    name = f"{strategy} sampler parameter {key}"
    check_integer(name, value)
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _check_size(what: str, size: float) -> None:
    if size > MAX_SAMPLER_CELLS:
        raise ValueError(f"{what} would hold {size:,.0f} entries, above {MAX_SAMPLER_CELLS=:,}")


def _check_grid(space: SearchSpace, k: int) -> None:
    _check_count("grid", "k", k, 2)
    _check_size(f"grid sampler: k**{space.dims}", int(k) ** space.dims)


def grid_sample(space: SearchSpace, k: int) -> np.ndarray:
    """Axis-aligned lattice with ``k`` points per axis, endpoints included.

    Emits all ``k**dims`` nodes in row-major order (last axis varies fastest).
    """
    _check_grid(space, k)
    axes = [np.linspace(lo, hi, k) for lo, hi in space.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def grid_step_diagonal(space: SearchSpace, k: int) -> float:
    """Distance between diagonally adjacent nodes of the ``k``-per-axis grid."""
    steps = space.widths / (k - 1)
    return float(np.linalg.norm(steps))


def _check_n(strategy: str) -> Callable[..., None]:
    """The check of a strategy whose one parameter is its sample count ``n``."""

    def check(space: SearchSpace, n: int) -> None:
        _check_count(strategy, "n", n, 1)
        _check_size(f"{strategy} sampler: n", n)

    return check


_check_lhs, _check_uniform = _check_n("lhs"), _check_n("uniform")


def lhs_sample(space: SearchSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """Latin hypercube sample: one point per stratum on every axis.

    Each axis is cut into ``n`` equal strata; strata are permuted independently
    per axis and the point sits uniformly inside its stratum.
    """
    _check_lhs(space, n)
    dims = space.dims
    coords = np.empty((n, dims))
    for j in range(dims):
        strata = rng.permutation(n)
        offsets = rng.random(n)
        coords[:, j] = (strata + offsets) / n
    return space.lows + coords * space.widths


def uniform_sample(space: SearchSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` i.i.d. uniform points in the box."""
    _check_uniform(space, n)
    return rng.uniform(space.lows, space.highs, size=(n, space.dims))


def _sum_rows_pairwise(rows: np.ndarray) -> np.ndarray:
    """Sum the rows of ``rows`` (d, n) into ``rows[0]`` in numpy's pairwise order.

    ``np.add.reduce(x, axis=1)`` on the transposed (n, d) array adds each row's
    d values one by one below 8, with eight interleaved partial sums up to 128,
    and by recursive halving above; this repeats that order column-wise, so
    the sums are equal bit for bit. ``rows`` is overwritten.
    """
    d = len(rows)
    if d > 128:
        half = d // 2 - (d // 2) % 8
        total = _sum_rows_pairwise(rows[:half])
        total += _sum_rows_pairwise(rows[half:])
        return total
    if d < 8:
        rest = range(1, d)
    else:
        partial = rows[:8]
        for i in range(8, d - d % 8, 8):
            partial += rows[i:i + 8]
        partial[::2] += partial[1::2]
        rows[0] += rows[2]
        rows[4] += rows[6]
        rows[0] += rows[4]
        rest = range(d - d % 8, d)
    for j in rest:
        rows[0] += rows[j]
    return rows[0]


def _fps_pool_size(space: SearchSpace, n: int, candidate_pool_size: int | None) -> int:
    if candidate_pool_size is None:
        return max(n, min(FPS_POOL_PER_POINT * space.dims * n, FPS_POOL_CAP))
    return candidate_pool_size


def _check_fps(space: SearchSpace, n: int, candidate_pool_size: int | None = None) -> None:
    _check_count("fps", "n", n, 1)
    if candidate_pool_size is not None:
        _check_count("fps", "candidate_pool_size", candidate_pool_size, n)
    _check_size("fps sampler: candidate pool", _fps_pool_size(space, n, candidate_pool_size))


def fps_sample(
    space: SearchSpace,
    n: int,
    rng: np.random.Generator,
    candidate_pool_size: int | None = None,
    pool: np.ndarray | None = None,
) -> np.ndarray:
    """Furthest point sampling: greedy maximin over a dense uniform candidate pool.

    The first point is the pool point closest to the box center (lowest pool
    index on ties); every later point maximizes the minimum Euclidean distance
    to the points already selected. An explicit ``pool`` overrides the random
    pool, which is what reference-set experiments on structured pools use.
    """
    _check_fps(space, n, candidate_pool_size if pool is None else len(pool))
    if pool is None:
        size = _fps_pool_size(space, n, candidate_pool_size)
        pool = rng.uniform(space.lows, space.highs, size=(size, space.dims))
    else:
        pool = np.asarray(pool, dtype=float)

    # The pool as contiguous columns: each distance pass runs d long
    # vectorised operations instead of n short row reductions.
    cols = np.ascontiguousarray(pool.T)
    scratch = np.empty_like(cols)

    def distances_to(point: np.ndarray) -> np.ndarray:
        """``np.linalg.norm(pool - point, axis=1)`` bit for bit, written into scratch[0]."""
        np.subtract(cols, point[:, None], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        return np.sqrt(_sum_rows_pairwise(scratch), out=scratch[0])

    first = int(np.argmin(distances_to(space.center)))
    selected = [first]
    min_dist = distances_to(pool[first]).copy()
    for _ in range(n - 1):
        nxt = int(np.argmax(min_dist))
        selected.append(nxt)
        np.minimum(min_dist, distances_to(pool[nxt]), out=min_dist)
    return pool[selected]


def _poisson_grid(space: SearchSpace, r: float) -> tuple[float, int, np.ndarray]:
    """Cell size, neighbour reach in cells, and padded shape of the background grid."""
    cell = r / math.sqrt(space.dims)
    # Neighbors within r span at most ceil(sqrt(dims)) cells along each axis.
    reach = math.ceil(math.sqrt(space.dims))
    # Points lie in [lows, highs], so no cell index exceeds that of highs;
    # the padding keeps every neighbourhood slice inside the grid.
    shape = (space.highs - space.lows) // cell + 1 + 2 * reach
    return cell, reach, shape


def _check_poisson(space: SearchSpace, r: float,
                   attempts_per_point: int = DEFAULT_POISSON_ATTEMPTS) -> None:
    check_finite_real("poisson sampler parameter r", r)
    if r <= 0:
        raise ValueError(f"poisson sampler parameter r must be positive, got {r}")
    _check_count("poisson", "attempts_per_point", attempts_per_point, 1)
    # No neighbour offset is longer than the box diagonal, so where its square
    # is finite no ddot neighbour length overflows to inf.
    widths = [hi - lo for lo, hi in space.bounds]
    if not math.isfinite(sum(w * w for w in widths)):
        raise ValueError(
            f"poisson sampler: the squared widths of {space.bounds} sum past the double "
            "range, so neighbour distances would overflow"
        )
    cells = math.prod(_poisson_grid(space, r)[2].tolist())
    _check_size(f"poisson sampler: the background grid for r={r} in {space.dims}-D", cells)


def _closer_than(r: float) -> Callable[[list[float], list[float]], bool]:
    """``np.linalg.norm(np.subtract(a, b)) < r`` for float lists, on the same verdicts.

    ``math.dist`` and ``np.linalg.norm``'s ``sqrt(ddot)`` each lie within a
    few ulps of the exact length, far inside a 1e-9 relative margin, so a
    ``math.dist`` outside ``r * (1 -/+ 1e-9)`` gives the verdict by itself;
    inside that band ``ddot`` decides. Where ``r**2`` nears the end of the
    double range, a square in ``ddot`` can underflow or overflow, so ``ddot``
    decides every length.
    """
    near, far = r * (1.0 - 1e-9), r * (1.0 + 1e-9)
    if not 1e-290 < r * r < 1e290:
        near, far = -math.inf, math.inf

    def closer(a: list[float], b: list[float]) -> bool:
        dist = math.dist(a, b)
        if dist < near:
            return True
        if dist > far:
            return False
        diff = np.subtract(a, b)
        return math.sqrt(diff.dot(diff)) < r

    return closer


def poisson_disc_sample(
    space: SearchSpace,
    r: float,
    rng: np.random.Generator,
    attempts_per_point: int = DEFAULT_POISSON_ATTEMPTS,
) -> np.ndarray:
    """Bridson dart-throwing in ``dims`` dimensions with minimum distance ``r``.

    A dense background grid with cell size r/sqrt(dims) accelerates neighbor
    checks: the cell diagonal is r, so each cell holds at most one point, and
    the grid stores that point's index (-1 when empty). It is padded by
    ``reach = ceil(sqrt(dims))`` cells on each side, so every neighbourhood is
    one slice of ``2*reach+1`` cells per axis. It holds
    ``(floor(w/cell) + 1 + 2*reach)**dims`` entries for axis widths ``w``:
    within a constant that depends only on ``dims`` of the largest sample that
    fits the box. Candidates, bounds tests and cell indices are Python float
    arithmetic with the values of the array expressions, and
    :func:`_closer_than` gives each neighbour the verdict of
    ``np.linalg.norm(candidate - neighbour) < r``. The sampler stops once the
    active list empties, which guarantees every pairwise distance is at least
    ``r``.
    """
    _check_poisson(space, r, attempts_per_point)
    dims = space.dims
    bounds = space.bounds
    lows = [lo for lo, _ in bounds]
    cell, reach, shape = _poisson_grid(space, r)
    span = 2 * reach + 1
    grid = np.full(tuple(shape.astype(np.intp)), -1, dtype=np.intp)
    points: list[list[float]] = []
    active: list[int] = []
    closer = _closer_than(r)

    def accept(point: list[float], base: list[int]) -> None:
        grid[tuple([b + reach for b in base])] = len(points)
        active.append(len(points))
        points.append(point)

    first = rng.uniform(space.lows, space.highs).tolist()
    accept(first, [int((c - lo) // cell) for c, lo in zip(first, lows)])

    while active:
        slot = int(rng.integers(len(active)))
        base_point = points[active[slot]]
        for _ in range(attempts_per_point):
            direction = rng.normal(size=dims)
            # np.linalg.norm's own arithmetic, without its dispatch.
            norm = math.sqrt(direction.dot(direction))
            if norm == 0.0:
                continue
            # Radius density uniform over the annulus volume [r, 2r].
            radius = r * (rng.random() * (2.0**dims - 1.0) + 1.0) ** (1.0 / dims)
            candidate = [p + x / norm * radius for p, x in zip(base_point, direction.tolist())]
            if any(c < lo or c > hi for c, (lo, hi) in zip(candidate, bounds)):
                continue
            base = [int((c - lo) // cell) for c, lo in zip(candidate, lows)]
            block = grid[tuple([slice(b, b + span) for b in base])]
            if any(closer(candidate, points[j]) for j in block[block >= 0].tolist()):
                continue
            accept(candidate, base)
            break
        else:
            active[slot] = active[-1]
            active.pop()

    return np.array(points)


@dataclass(frozen=True)
class Strategy:
    """A sampler, its required and optional config parameters, and its check."""

    sample: Callable[..., np.ndarray]
    required: tuple[str, ...]
    optional: tuple[str, ...]
    seeded: bool  # the sampler takes ``rng``, so a config may give ``seed``
    check: Callable[..., None]  # check(space, **params): ValueError on type, range or size


#: Strategy name -> everything known about it, as selectable from experiment configs.
STRATEGIES = {
    "grid": Strategy(grid_sample, ("k",), (), False, _check_grid),
    "lhs": Strategy(lhs_sample, ("n",), (), True, _check_lhs),
    "uniform": Strategy(uniform_sample, ("n",), (), True, _check_uniform),
    "fps": Strategy(fps_sample, ("n",), ("candidate_pool_size",), True, _check_fps),
    "poisson": Strategy(poisson_disc_sample, ("r",), ("attempts_per_point",), True,
                        _check_poisson),
}


def validate_sampler_params(strategy: str, params: Mapping, space: SearchSpace) -> None:
    """Raise ``ValueError`` unless ``params`` (with ``seed``) suit ``strategy`` on ``space``.

    ``params`` must be a mapping; a list of pairs is refused, not converted.
    """
    if not isinstance(strategy, str) or strategy not in STRATEGIES:
        raise ValueError(
            f"unknown sampling strategy {strategy!r}, expected one of {sorted(STRATEGIES)}"
        )
    if not isinstance(params, Mapping):
        raise ValueError(f"{strategy} sampler: params must be a mapping, got {params!r}")
    spec = STRATEGIES[strategy]
    params = dict(params)
    unknown = set(params).difference(spec.required, spec.optional, ["seed"] if spec.seeded else [])
    if unknown:
        raise ValueError(f"{strategy} sampler: unknown parameters {sorted(unknown)}")
    missing = set(spec.required).difference(params)
    if missing:
        raise ValueError(f"{strategy} sampler: missing required parameters {sorted(missing)}")
    check_integer(f"{strategy} sampler parameter seed", params.pop("seed", 0))
    spec.check(space, **params)


def sample_by_name(space: SearchSpace, strategy: str, params: dict) -> np.ndarray:
    """Dispatch a sampler by config name. Seeded strategies read ``seed`` (default 0)."""
    validate_sampler_params(strategy, params, space)
    spec = STRATEGIES[strategy]
    params = dict(params)
    if spec.seeded:
        params["rng"] = make_rng(params.pop("seed", 0))
    return spec.sample(space, **params)
