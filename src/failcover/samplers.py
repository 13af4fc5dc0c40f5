"""Seeded point-generation strategies.

Five strategies cover every sampling need in the package: ``grid`` and ``fps``
and ``poisson`` build reference sets, ``lhs`` seeds evolutionary populations,
and ``uniform`` drives random search. All randomized strategies consume a
PCG64 generator derived from an explicit integer seed, so identical seeds
reproduce identical batches on the same numpy/BLAS build. Across builds the
draws stay the same, but ``poisson`` and the grid step measure lengths with
``np.linalg.norm`` and ``matmul``, which go through BLAS ``ddot``; a kernel
that uses fused multiply-adds can round a length differently in the last bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import SearchSpace, check_integer

#: Default number of dart throws per active point in Poisson disc sampling.
DEFAULT_POISSON_ATTEMPTS = 30

#: Candidate pool sizing for furthest point sampling: 50 * dims per requested
#: point, capped to keep the greedy scan affordable.
FPS_POOL_PER_POINT = 50
FPS_POOL_CAP = 100_000


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """PCG64 generator for ``seed``; extra integers select independent substreams."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [int(s) & 0xFFFFFFFFFFFFFFFF for s in stream]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class SampleBatch:
    """Points emitted by one sampler call, tagged with strategy provenance."""

    points: np.ndarray
    strategy_label: str
    parameters: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)


def grid_sample(space: SearchSpace, k: int) -> SampleBatch:
    """Axis-aligned lattice with ``k`` points per axis, endpoints included.

    Emits all ``k**dims`` nodes in row-major order (last axis varies fastest).
    """
    if k < 2:
        raise ValueError(f"grid needs at least 2 samples per axis, got {k}")
    axes = [np.linspace(lo, hi, k) for lo, hi in space.bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    return SampleBatch(points=points, strategy_label="grid", parameters={"k": int(k)})


def grid_step_diagonal(space: SearchSpace, k: int) -> float:
    """Distance between diagonally adjacent nodes of the ``k``-per-axis grid."""
    steps = space.widths / (k - 1)
    return float(np.linalg.norm(steps))


def lhs_sample(space: SearchSpace, n: int, rng: np.random.Generator) -> SampleBatch:
    """Latin hypercube sample: one point per stratum on every axis.

    Each axis is cut into ``n`` equal strata; strata are permuted independently
    per axis and the point sits uniformly inside its stratum.
    """
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    dims = space.dims
    coords = np.empty((n, dims))
    for j in range(dims):
        strata = rng.permutation(n)
        offsets = rng.random(n)
        coords[:, j] = (strata + offsets) / n
    points = space.lows + coords * space.widths
    return SampleBatch(points=points, strategy_label="lhs", parameters={"n": int(n)})


def uniform_sample(space: SearchSpace, n: int, rng: np.random.Generator) -> SampleBatch:
    """``n`` i.i.d. uniform points in the box."""
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    points = rng.uniform(space.lows, space.highs, size=(n, space.dims))
    return SampleBatch(points=points, strategy_label="uniform", parameters={"n": int(n)})


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


def fps_sample(
    space: SearchSpace,
    n: int,
    rng: np.random.Generator,
    candidate_pool_size: int | None = None,
    pool: np.ndarray | None = None,
) -> SampleBatch:
    """Furthest point sampling: greedy maximin over a dense uniform candidate pool.

    The first point is the pool point closest to the box center (lowest pool
    index on ties); every later point maximizes the minimum Euclidean distance
    to the points already selected. An explicit ``pool`` overrides the random
    pool, which is what reference-set experiments on structured pools use.
    """
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    if pool is None:
        if candidate_pool_size is None:
            candidate_pool_size = max(n, min(FPS_POOL_PER_POINT * space.dims * n, FPS_POOL_CAP))
        if candidate_pool_size < n:
            raise ValueError(
                f"candidate pool ({candidate_pool_size}) must hold at least n={n} points"
            )
        pool = rng.uniform(space.lows, space.highs, size=(candidate_pool_size, space.dims))
    else:
        pool = np.asarray(pool, dtype=float)
        if len(pool) < n:
            raise ValueError(f"explicit pool ({len(pool)}) must hold at least n={n} points")

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
    return SampleBatch(
        points=pool[selected],
        strategy_label="fps",
        parameters={"n": int(n), "pool_size": int(len(pool))},
    )


def poisson_disc_sample(
    space: SearchSpace,
    r: float,
    rng: np.random.Generator,
    attempts_per_point: int = DEFAULT_POISSON_ATTEMPTS,
) -> SampleBatch:
    """Bridson dart-throwing in ``dims`` dimensions with minimum distance ``r``.

    A dense background grid with cell size r/sqrt(dims) accelerates neighbor
    checks: the cell diagonal is r, so each cell holds at most one point, and
    the grid stores that point's index (-1 when empty). It is padded by
    ``reach = ceil(sqrt(dims))`` cells on each side, so every neighbourhood is
    one slice of ``2*reach+1`` cells per axis. It holds
    ``(floor(w/cell) + 1 + 2*reach)**dims`` entries for axis widths ``w``:
    within a constant that depends only on ``dims`` of the largest sample that
    fits the box. The sampler stops once the active list empties, which
    guarantees every pairwise distance is at least ``r``.
    """
    if r <= 0:
        raise ValueError(f"minimum distance must be positive, got {r}")
    if attempts_per_point < 1:
        raise ValueError(f"attempts per point must be positive, got {attempts_per_point}")

    dims = space.dims
    lows, highs = space.lows, space.highs
    cell = r / math.sqrt(dims)
    # Neighbors within r span at most ceil(sqrt(dims)) cells along each axis.
    reach = math.ceil(math.sqrt(dims))

    def cell_of(point: np.ndarray) -> np.ndarray:
        return ((point - lows) // cell).astype(np.intp)

    span = 2 * reach + 1
    # Points lie in [lows, highs], so no cell index exceeds cell_of(highs);
    # the padding keeps every neighbourhood slice inside the grid.
    grid = np.full(tuple(cell_of(highs) + 1 + 2 * reach), -1, dtype=np.intp)
    points = np.empty((64, dims))
    count = 0
    active: list[int] = []

    def accept(point: np.ndarray, base: np.ndarray) -> None:
        nonlocal points, count
        if count == len(points):
            points = np.concatenate([points, np.empty_like(points)])
        points[count] = point
        grid[tuple(base + reach)] = count
        active.append(count)
        count += 1

    first = rng.uniform(lows, highs)
    accept(first, cell_of(first))

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
            candidate = base_point + direction / norm * radius
            if (candidate < lows).any() or (candidate > highs).any():
                continue
            base = cell_of(candidate)
            block = grid[tuple(slice(b, b + span) for b in base.tolist())]
            diff = candidate - points[block[block >= 0]]
            # Row-wise matmul computes each x.dot(x) as np.linalg.norm does,
            # so the comparisons with r match a per-neighbour norm exactly.
            if (np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])) < r).any():
                continue
            accept(candidate, base)
            break
        else:
            active[slot] = active[-1]
            active.pop()

    return SampleBatch(
        points=points[:count].copy(),
        strategy_label="poisson",
        parameters={"r": float(r), "attempts_per_point": int(attempts_per_point)},
    )


#: Strategy name -> sampler, as selectable from experiment configs.
STRATEGIES = {
    "grid": grid_sample,
    "lhs": lhs_sample,
    "uniform": uniform_sample,
    "fps": fps_sample,
    "poisson": poisson_disc_sample,
}

_STRATEGY_KEYS = {
    "grid": ({"k"}, {"k"}),
    "lhs": ({"n"}, {"n", "seed"}),
    "uniform": ({"n"}, {"n", "seed"}),
    "fps": ({"n"}, {"n", "candidate_pool_size", "seed"}),
    "poisson": ({"r"}, {"r", "attempts_per_point", "seed"}),
}


def validate_sampler_params(strategy: str, params: dict) -> None:
    """Reject unknown, missing or mistyped sampler parameters for a config-named strategy."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown sampling strategy {strategy!r}, expected one of {sorted(STRATEGIES)}"
        )
    required, allowed = _STRATEGY_KEYS[strategy]
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"{strategy} sampler: unknown parameters {sorted(unknown)}")
    missing = required - set(params)
    if missing:
        raise ValueError(f"{strategy} sampler: missing required parameters {sorted(missing)}")
    for key, value in params.items():
        name = f"{strategy} sampler parameter {key}"
        if key != "r":
            check_integer(name, value)
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def sample_by_name(
    space: SearchSpace, strategy: str, params: dict, seed: int | None = None
) -> SampleBatch:
    """Dispatch a sampler by config name. Seeded strategies read ``seed`` (default 0)."""
    params = dict(params)
    validate_sampler_params(strategy, params)
    if strategy == "grid":
        return grid_sample(space, **params)
    seed = params.pop("seed", seed)
    rng = make_rng(0 if seed is None else seed)
    return STRATEGIES[strategy](space, rng=rng, **params)
