"""Reference sets and the coverage inverted distance (CID) quality indicator.

CID scores how well a test set A covers a reference set Z of failing inputs:

    CID(A, Z) = (1 / |Z|) * (sum_z d_z**q) ** (1/q)

where d_z is the p-norm distance from reference point z to its nearest point
in A. Lower is better; zero means every reference point coincides with a test
point. With the default q = 1 this is the mean nearest distance. The 1/|Z|
factor sits outside the q-th root, exactly as in the defining formula.

Reference sets are the failing points among a space-filling sample of the
search domain, persisted as CSV plus a JSON provenance sidecar and cached by
their construction key.

``import failcover`` loads numpy only; ``scipy.spatial`` is loaded at the first
distance computation (``cid``, ``convergence_series`` or
``max_nearest_neighbor_distance``), so parsing configs, comparing and
reporting never pay for it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ProblemDefinition, RunLog, atomic_open, check_finite_real, check_integer
from .samplers import grid_step_diagonal, make_rng, sample_by_name, uniform_sample


class ReferenceSetIntegrityError(RuntimeError):
    """A persisted reference set's points no longer match its sidecar's content hash."""


class EmptyReferenceSetError(RuntimeError):
    """No sampled point failed, so the reference set (and CID) is undefined."""

    def __init__(self, problem_name: str, oracle_label: str, total_sampled: int):
        self.total_sampled = total_sampled
        super().__init__(
            f"no failures among {total_sampled} sampled points for "
            f"{problem_name} ({oracle_label}); CID is undefined"
        )


@dataclass(frozen=True)
class CidParams:
    """Distance norm order ``p`` and aggregation order ``q``, finite reals >= 1."""

    p: float = 2.0
    q: float = 1.0

    def __post_init__(self) -> None:
        for name, label in (("p", "distance norm order"), ("q", "aggregation order")):
            value = getattr(self, name)
            check_finite_real(label, value)
            if value < 1:
                raise ValueError(f"{label} must be >= 1, got {value}")
            object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class ReferenceSet:
    """Failing sample points approximating the failure region, with provenance."""

    points: np.ndarray
    problem_name: str
    oracle_label: str
    sampler_label: str
    sampler_params: dict
    total_sampled: int
    #: Maximal distance between adjacent reference points (R*). For grids this
    #: is the cell diagonal; otherwise the largest nearest-neighbor distance.
    max_adjacent_distance: float

    def __len__(self) -> int:
        return len(self.points)

    def content_hash(self) -> str:
        return hashlib.sha256(_points_csv_bytes(self.points)).hexdigest()


def _as_points(value, name: str) -> np.ndarray:
    if isinstance(value, ReferenceSet):
        value = value.points
    pts = np.asarray(value, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :] if pts.size else pts.reshape(0, 0)
    if pts.ndim != 2:
        raise ValueError(f"{name} must be a list of points")
    return pts


def _aggregate(distances: np.ndarray, q: float, m: int) -> float:
    return float(np.sum(distances**q) ** (1.0 / q) / m)


def cid(test_set, reference, params: CidParams = CidParams()) -> float:
    """Coverage inverted distance of ``test_set`` against ``reference``.

    Distances are taken in raw search-space coordinates.
    """
    A = _as_points(test_set, "test set")
    Z = _as_points(reference, "reference set")
    if len(A) == 0:
        raise ValueError("test set is empty; CID needs at least one test point")
    if len(Z) == 0:
        raise ValueError("reference set is empty; CID needs at least one reference point")
    if A.shape[1] != Z.shape[1]:
        raise ValueError(
            f"dimensionality mismatch: test points are {A.shape[1]}-D, "
            f"reference points are {Z.shape[1]}-D"
        )
    from scipy.spatial import cKDTree

    nearest, _ = cKDTree(A).query(Z, p=params.p)
    return _aggregate(np.atleast_1d(nearest), params.q, len(Z))


@dataclass(frozen=True)
class ConvergenceCheckpoint:
    evaluations_used: int
    cid: float | None  # None while no failure has been found
    failures_so_far: int


@dataclass(frozen=True)
class ConvergenceSeries:
    checkpoints: tuple[ConvergenceCheckpoint, ...]

    def final(self) -> ConvergenceCheckpoint:
        return self.checkpoints[-1]


def convergence_series(
    history: RunLog,
    reference,
    params: CidParams = CidParams(),
    interval: int = 100,
) -> ConvergenceSeries:
    """CID of all failures found so far, sampled every ``interval`` evaluations.

    Checkpoints sit at each multiple of the interval and at the final
    evaluation; the CID entry is None until the first failure appears.
    """
    check_integer("checkpoint interval", interval, 1)
    Z = _as_points(reference, "reference set")
    if len(Z) == 0:
        raise ValueError("reference set is empty; CID needs at least one reference point")
    inputs, failed = history.evaluations.input, history.evaluations.failed
    if Z.shape[1] != inputs.shape[1]:
        raise ValueError(
            f"reference set is {Z.shape[1]}-D, the run's inputs are {inputs.shape[1]}-D"
        )
    n = len(failed)
    marks = list(range(interval, n + 1, interval))
    if not marks or marks[-1] != n:
        marks.append(n)

    from scipy.spatial.distance import cdist

    best = np.full(len(Z), np.inf)
    failures = 0
    cursor = 0
    checkpoints = []
    for mark in marks:
        fresh = inputs[cursor:mark][failed[cursor:mark]]
        cursor = mark
        if len(fresh):
            failures += len(fresh)
            # Reduce along the long axis: ``(len(fresh), len(Z))`` rows hold the
            # same doubles as ``cdist(Z, fresh).T``, so the minima are equal too.
            d = cdist(fresh, Z, metric="minkowski", p=params.p).min(axis=0)
            best = np.minimum(best, d)
        value = _aggregate(best, params.q, len(Z)) if failures else None
        checkpoints.append(
            ConvergenceCheckpoint(evaluations_used=mark, cid=value, failures_so_far=failures)
        )
    return ConvergenceSeries(checkpoints=tuple(checkpoints))


def failure_count(history: RunLog) -> int:
    """Number of failing evaluations in the run."""
    return int(history.evaluations.failed.sum())


def first_failure_iteration(history: RunLog) -> int | None:
    """1-based ``generation`` the run log records for its first failure; None if none failed."""
    hits = np.flatnonzero(history.evaluations.failed)
    return int(history.evaluations.generation[hits[0]]) + 1 if len(hits) else None


# --- reference-set construction and persistence ------------------------------


def _dedupe_preserving_order(points: np.ndarray) -> np.ndarray:
    _, first_idx = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first_idx)]


def max_nearest_neighbor_distance(points: np.ndarray) -> float:
    """Largest nearest-neighbor distance; 0 for fewer than two points."""
    if len(points) < 2:
        return 0.0
    from scipy.spatial import cKDTree

    d, _ = cKDTree(points).query(points, k=2)
    return float(np.max(d[:, 1]))


def build_reference_set(
    problem: ProblemDefinition,
    sampler: dict,
    cache_dir: str | Path | None = None,
) -> ReferenceSet:
    """Sample the search space, keep the failing points, record provenance.

    ``sampler`` is a config-shaped spec: {"strategy": ..., "params": {...}}.
    With ``cache_dir`` set, the result is persisted as CSV + JSON sidecar and
    later calls with the same construction key are served from disk untouched.
    A CSV whose sidecar is missing or records another key is rebuilt.
    """
    strategy = sampler.get("strategy")
    params = sampler.get("params", {})  # not dict(): sample_by_name must see and refuse a list

    if cache_dir is not None:
        key = _cache_key(problem, strategy, params)
        digest = _digest(key)
        csv_path = Path(cache_dir) / f"refset-{digest[:12]}.csv"
        if _sidecar_key(csv_path) == digest:
            return load_reference_set(csv_path)

    sample = sample_by_name(problem.space, strategy, params)
    failing = problem.oracle.mask(problem.fitness(sample))
    points = _dedupe_preserving_order(sample[failing])
    if len(points) == 0:
        raise EmptyReferenceSetError(problem.name, problem.oracle.variant_label, len(sample))

    if strategy == "grid":
        r_star = grid_step_diagonal(problem.space, params["k"])
    else:
        r_star = max_nearest_neighbor_distance(points)

    refset = ReferenceSet(
        points=points,
        problem_name=problem.name,
        oracle_label=problem.oracle.variant_label,
        sampler_label=strategy,
        sampler_params=dict(params),
        total_sampled=len(sample),
        max_adjacent_distance=r_star,
    )
    if cache_dir is not None:
        save_reference_set(refset, csv_path, cache_key=key)
    return refset


#: Bumped whenever the cache key or the persisted format changes meaning.
_CACHE_FORMAT = 2


def _cache_key(problem: ProblemDefinition, strategy: str, params: dict) -> dict:
    """Everything that decides a cached reference set's points.

    The oracle clauses carry the thresholds. Problem parameters that move the
    fitness itself (two_ball's centers, two_region's boxes) show in the fitness
    at a fixed set of probe points.
    """
    probe = uniform_sample(problem.space, 16, make_rng(0))
    return {
        "format": _CACHE_FORMAT,
        "problem": problem.name,
        "variant": problem.oracle.variant_label,
        "clauses": [list(clause) for clause in problem.oracle.clauses],
        "bounds": [list(bound) for bound in problem.space.bounds],
        "fitness_probe": hashlib.sha256(problem.fitness(probe).tobytes()).hexdigest(),
        "strategy": strategy,
        "params": params,
    }


def _sidecar_key(csv_path: Path) -> str | None:
    """Digest of the ``cache_key`` in ``csv_path``'s sidecar; None if either file is missing.

    The file name holds only 12 hex digits of the digest, so a cache hit
    needs the full key, and a CSV whose sidecar was never written is a miss.
    """
    sidecar = csv_path.with_suffix(".json")
    if not (csv_path.exists() and sidecar.exists()):
        return None
    return _digest(json.loads(sidecar.read_text()).get("cache_key"))


def _digest(key: dict | None) -> str:
    blob = json.dumps(key, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _points_csv_bytes(points: np.ndarray) -> bytes:
    lines = [",".join(f"x{j + 1}" for j in range(points.shape[1]))]
    lines.extend(",".join(repr(float(v)) for v in row) for row in points)
    return ("\n".join(lines) + "\n").encode()


def _parse_points_csv(payload: bytes, source: Path) -> np.ndarray:
    header, *rows = list(csv.reader(payload.decode().splitlines())) or [[]]
    if not header or not header[0].startswith("x"):
        raise ValueError(f"{source}: expected a header row x1,...,xn")
    points = []
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{source}: line {line} holds {len(row)} values, not {len(header)}")
        point = [float(v) for v in row]
        if not all(map(math.isfinite, point)):
            raise ValueError(f"{source}: line {line} holds a value that is not finite: {row}")
        points.append(point)
    return np.array(points).reshape(len(rows), len(header))


def read_points(csv_path: str | Path) -> np.ndarray:
    """Read a point CSV with header x1,...,xn, as written by :func:`save_reference_set`."""
    csv_path = Path(csv_path)
    return _parse_points_csv(csv_path.read_bytes(), csv_path)


def save_reference_set(
    refset: ReferenceSet, csv_path: str | Path, cache_key: dict | None = None
) -> Path:
    """Write the points CSV (header x1..xn) and the JSON provenance sidecar.

    ``cache_key``, when given, is recorded in the sidecar so a cached file
    states what it was built for. Each file is written atomically, the
    sidecar last: a cache hit needs the sidecar, so a save interrupted
    before it is rebuilt on the next lookup.
    """
    csv_path = Path(csv_path)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    payload = _points_csv_bytes(refset.points)
    with atomic_open(csv_path) as fh:
        fh.write(payload.decode())
    sidecar = {
        "problem": refset.problem_name,
        "variant": refset.oracle_label,
        "sampler": refset.sampler_label,
        "params": refset.sampler_params,
        "total_sampled": refset.total_sampled,
        "max_adjacent_distance": refset.max_adjacent_distance,
        "content_hash": hashlib.sha256(payload).hexdigest(),
    }
    if cache_key is not None:
        sidecar["cache_key"] = cache_key
    with atomic_open(csv_path.with_suffix(".json")) as fh:
        fh.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return csv_path


def load_reference_set(csv_path: str | Path) -> ReferenceSet:
    """Read a persisted reference set; the sidecar is optional but preferred.

    When the sidecar records a ``content_hash``, the CSV bytes must match it,
    or :class:`ReferenceSetIntegrityError` is raised.
    """
    csv_path = Path(csv_path)
    payload = csv_path.read_bytes()
    points = _parse_points_csv(payload, csv_path)
    sidecar_path = csv_path.with_suffix(".json")
    meta = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else {}
    expected = meta.get("content_hash")
    if expected is not None and hashlib.sha256(payload).hexdigest() != expected:
        raise ReferenceSetIntegrityError(
            f"{csv_path}: content does not match the sidecar's content_hash; "
            "the file was modified after it was written"
        )
    return ReferenceSet(
        points=points,
        problem_name=meta.get("problem", "unknown"),
        oracle_label=meta.get("variant", "unknown"),
        sampler_label=meta.get("sampler", "unknown"),
        sampler_params=meta.get("params", {}),
        total_sampled=int(meta.get("total_sampled", len(points))),
        max_adjacent_distance=float(
            meta["max_adjacent_distance"] if "max_adjacent_distance" in meta
            else max_nearest_neighbor_distance(points)
        ),
    )
