"""Experiment orchestration: JSON configs, seeded repetition runs, CSV results,
statistical comparison, and markdown reports.

An experiment is one problem/oracle-variant, a shared evaluation budget, and a
list of algorithms, each executed for ``repetitions`` seeded runs (seed of
repetition i is ``base_seed + i``). Outputs land in one directory:

* ``runs.csv``        one row per evaluation of every run
* ``cid_series.csv``  CID at every checkpoint of every run
* ``summary.csv``     per-algorithm aggregate row
* ``stats.csv``       pairwise comparison rows (written by :func:`compare`)
* ``manifest.json``   config hash, reference-set hash, per-run seeds
* ``report.md``       tables for reading or external plotting (:func:`emit_report`)

Identical configs produce byte-identical CSV outputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any

import numpy as np

from .algorithms import ALGORITHM_NAMES, REGISTRY, make_config, run_algorithm
from .core import ProblemDefinition, RunLog, atomic_open, check_integer
from .coverage import (
    CidParams,
    ConvergenceSeries,
    ReferenceSet,
    build_reference_set,
    convergence_series,
    failure_count,
    first_failure_iteration,
    load_reference_set,
)
from .problems import CATALOG, VARIANTS, get_problem
from .samplers import validate_sampler_params
from .stats import compare_samples


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


DEFAULT_REPETITIONS = 10
DEFAULT_CID_INTERVAL = 100


@dataclass(frozen=True)
class AlgorithmSpec:
    name: str
    #: Preset values merged with the config's overrides, as written in the config.
    params: dict
    #: The algorithm's config dataclass built from ``params`` and the budget.
    config: Any

    @property
    def batch_size(self) -> int:
        """Generation batch size: population, swarm, or the rs batch parameter."""
        return getattr(self.config, REGISTRY[self.name].batch_field)


@dataclass(frozen=True)
class ExperimentConfig:
    problem_name: str
    variant: str
    problem_params: dict
    algorithms: tuple[AlgorithmSpec, ...]
    budget: int
    repetitions: int
    base_seed: int
    refset_spec: dict
    cid_params: CidParams
    cid_interval: int
    output_dir: str | None = None

    def canonical_dict(self) -> dict:
        return {
            "problem": {
                "name": self.problem_name,
                "variant": self.variant,
                "params": self.problem_params,
            },
            "algorithms": [{"name": a.name, "params": a.params} for a in self.algorithms],
            "budget": self.budget,
            "repetitions": self.repetitions,
            "base_seed": self.base_seed,
            "refset": self.refset_spec,
            "cid": {
                "p": self.cid_params.p,
                "q": self.cid_params.q,
                "interval": self.cid_interval,
            },
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: required field is missing")
    return mapping[key]


def _integer(mapping: dict, key: str, path: str, default: int | None = None) -> int:
    """``mapping[key]`` (or ``default``) as an int; ``ConfigError`` unless it is an integer."""
    value = _require(mapping, key, path) if default is None else mapping.get(key, default)
    try:
        check_integer(f"{path}.{key}", value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return int(value)


def _mapping(value: object, path: str) -> dict:
    """``value`` itself; ``ConfigError`` naming ``path`` unless it is a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {value!r}")
    return value


def _reject_unknown(mapping: dict, allowed: set[str], path: str) -> None:
    unknown = set(_mapping(mapping, path)) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a config mapping, fill defaults, reject unknown keys."""
    _reject_unknown(
        raw,
        {"problem", "algorithms", "budget", "repetitions", "base_seed", "refset", "cid",
         "output_dir"},
        "config",
    )

    problem = _require(raw, "problem", "config")
    _reject_unknown(problem, {"name", "variant", "params"}, "config.problem")
    problem_name = _require(problem, "name", "config.problem")
    if problem_name not in CATALOG:
        raise ConfigError(
            f"config.problem.name: unknown problem {problem_name!r}, "
            f"expected one of {sorted(CATALOG)}"
        )
    variant = problem.get("variant", "Large")
    if variant not in VARIANTS:
        raise ConfigError(
            f"config.problem.variant: unknown variant {variant!r}, expected one of {VARIANTS}"
        )
    problem_params = dict(_mapping(problem.get("params", {}), "config.problem.params"))
    try:
        space = get_problem(problem_name, variant, **problem_params).space
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.problem.params: {exc}") from exc

    budget = _integer(raw, "budget", "config")
    if budget < 1:
        raise ConfigError(f"config.budget: must be positive, got {budget}")

    raw_algorithms = _require(raw, "algorithms", "config")
    if not isinstance(raw_algorithms, list) or not raw_algorithms:
        raise ConfigError("config.algorithms: expected a non-empty list")
    algorithms: list[AlgorithmSpec] = []
    for idx, entry in enumerate(raw_algorithms):
        path = f"config.algorithms[{idx}]"
        _reject_unknown(entry, {"name", "preset", "params"}, path)
        name = _require(entry, "name", path)
        if name not in REGISTRY:
            raise ConfigError(
                f"{path}.name: unknown algorithm {name!r}, expected one of {ALGORITHM_NAMES}"
            )
        presets = REGISTRY[name].presets
        params: dict = {}
        if "preset" in entry:
            preset = entry["preset"]
            if not isinstance(preset, str) or preset not in presets:
                raise ConfigError(
                    f"{path}.preset: unknown preset {preset!r}, expected one of {sorted(presets)}"
                )
            params.update(presets[preset])
        params.update(_mapping(entry.get("params", {}), f"{path}.params"))
        try:
            config = make_config(name, budget, params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.params: {exc}") from exc
        algorithms.append(AlgorithmSpec(name=name, params=params, config=config))
    if len({a.name for a in algorithms}) != len(algorithms):
        raise ConfigError("config.algorithms: each algorithm may appear only once")

    repetitions = _integer(raw, "repetitions", "config", DEFAULT_REPETITIONS)
    if repetitions < 1:
        raise ConfigError(f"config.repetitions: must be positive, got {repetitions}")
    base_seed = _integer(raw, "base_seed", "config")
    if base_seed < 0:
        raise ConfigError(f"config.base_seed: must be non-negative, got {base_seed}")

    refset = _require(raw, "refset", "config")
    _reject_unknown(refset, {"strategy", "params", "path"}, "config.refset")
    if "path" in refset:
        if "strategy" in refset or "params" in refset:
            raise ConfigError("config.refset: give either a path or a strategy, not both")
        refset_spec = {"path": str(refset["path"])}
    else:
        strategy = _require(refset, "strategy", "config.refset")
        try:
            refset_params = refset.get("params", {})
            validate_sampler_params(strategy, refset_params, space)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config.refset: {exc}") from exc
        refset_spec = {"strategy": strategy, "params": dict(refset_params)}

    cid_raw = raw.get("cid", {})
    _reject_unknown(cid_raw, {"p", "q", "interval"}, "config.cid")
    try:
        cid_params = CidParams(p=cid_raw.get("p", 2.0), q=cid_raw.get("q", 1.0))
    except ValueError as exc:
        raise ConfigError(f"config.cid: {exc}") from exc
    cid_interval = _integer(cid_raw, "interval", "config.cid", DEFAULT_CID_INTERVAL)
    if cid_interval < 1:
        raise ConfigError(f"config.cid.interval: must be positive, got {cid_interval}")

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("config.output_dir: expected a string path")

    return ExperimentConfig(
        problem_name=problem_name,
        variant=variant,
        problem_params=problem_params,
        algorithms=tuple(algorithms),
        budget=budget,
        repetitions=repetitions,
        base_seed=base_seed,
        refset_spec=refset_spec,
        cid_params=cid_params,
        cid_interval=cid_interval,
        output_dir=output_dir,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(raw)


# --- experiment execution -----------------------------------------------------


@dataclass
class RunRecord:
    run_id: str
    algorithm: str
    repetition: int
    seed: int
    batch_size: int
    history: RunLog
    series: ConvergenceSeries

    @property
    def final_cid(self) -> float | None:
        return self.series.final().cid


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    refset: ReferenceSet
    runs: list[RunRecord]
    out_dir: Path


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(v) for v in row])


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> ExperimentResult:
    """Execute every (algorithm, repetition) run and write all result files.

    Runs execute sequentially in config order; repetition ``i`` uses seed
    ``base_seed + i``. Aborts (for example on an empty reference set, a write
    error or an interrupt) leave no partial result files behind.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = get_problem(config.problem_name, config.variant, **config.problem_params)
    refset = (load_reference_set(config.refset_spec["path"]) if "path" in config.refset_spec
              else build_reference_set(problem, config.refset_spec, cache_dir=out_dir / "refsets"))

    runs: list[RunRecord] = []
    for spec in config.algorithms:
        for rep in range(config.repetitions):
            seed = config.base_seed + rep
            history = run_algorithm(spec.name, problem, config.budget, seed, spec.params)
            series = convergence_series(
                history, refset, config.cid_params, config.cid_interval
            )
            runs.append(
                RunRecord(
                    run_id=f"{spec.name}-{rep:02d}",
                    algorithm=spec.name,
                    repetition=rep,
                    seed=seed,
                    batch_size=spec.batch_size,
                    history=history,
                    series=series,
                )
            )

    written: list[Path] = []
    try:
        written.append(_write_runs_csv(out_dir, config, problem, runs))
        written.append(_write_series_csv(out_dir, runs))
        written.append(_write_summary_csv(out_dir, config, runs))
        written.append(_write_manifest(out_dir, config, refset, runs))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return ExperimentResult(config=config, refset=refset, runs=runs, out_dir=out_dir)


def _write_runs_csv(
    out_dir: Path, config: ExperimentConfig, problem: ProblemDefinition, runs: list[RunRecord]
) -> Path:
    """One line per evaluation, in the text ``_write_rows`` would give each value.

    The novelty column appears when any run logged a novelty; the other runs
    leave it empty.
    """
    with_novelty = any(not np.isnan(r.history.evaluations.novelty).all() for r in runs)
    header = ["run_id", "algorithm", "problem", "variant", "seed", "eval_index", "generation"]
    header += [f"x{j + 1}" for j in range(problem.space.dims)]
    header += [f"f{j + 1}" for j in range(problem.objective_count)]
    if with_novelty:
        header.append("novelty")
    header.append("failed")
    path = out_dir / "runs.csv"
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for r in runs:
            prefix = f"{r.run_id},{r.algorithm},{config.problem_name},{config.variant},{r.seed},"
            ev = r.history.evaluations
            values = np.hstack([ev.input, ev.fitness]).tolist()
            cells = [",".join(map(repr, row)) for row in values]
            if with_novelty:
                cells = [f"{c},{'' if math.isnan(v) else repr(v)}"
                         for c, v in zip(cells, ev.novelty.tolist())]
            rows = zip(ev.generation.tolist(), cells, ev.failed.tolist())
            fh.write("".join(f"{prefix}{i},{g},{c},{int(failed)}\n"
                             for i, (g, c, failed) in enumerate(rows)))
    return path


def _write_series_csv(out_dir: Path, runs: list[RunRecord]) -> Path:
    rows = []
    for r in runs:
        for cp in r.series.checkpoints:
            rows.append([r.run_id, cp.evaluations_used, cp.failures_so_far,
                         None if cp.cid is None else cp.cid])
    path = out_dir / "cid_series.csv"
    _write_rows(path, ["run_id", "evaluations", "failures_so_far", "cid"], rows)
    return path


def _mean_or_none(values: list[float]) -> float | None:
    return float(np.mean(values)) if values else None


def _std_or_none(values: list[float]) -> float | None:
    return float(np.std(values, ddof=1)) if len(values) >= 2 else None


def summarize(config: ExperimentConfig, runs: list[RunRecord]) -> list[dict]:
    """Per-algorithm aggregates over repetitions (undefined values excluded)."""
    out = []
    for spec in config.algorithms:
        mine = [r for r in runs if r.algorithm == spec.name]
        finals = [r.final_cid for r in mine if r.final_cid is not None]
        fails = [failure_count(r.history) for r in mine]
        firsts = [
            f
            for r in mine
            if (f := first_failure_iteration(r.history, r.batch_size)) is not None
        ]
        out.append(
            {
                "algorithm": spec.name,
                "variant": config.variant,
                "cid_mean": _mean_or_none(finals),
                "cid_std": _std_or_none(finals),
                "failures_mean": _mean_or_none([float(v) for v in fails]),
                "first_fail_mean": _mean_or_none([float(v) for v in firsts]),
            }
        )
    return out


def _write_summary_csv(out_dir: Path, config: ExperimentConfig, runs: list[RunRecord]) -> Path:
    header = ["algorithm", "variant", "cid_mean", "cid_std", "failures_mean", "first_fail_mean"]
    rows = [[s[k] for k in header] for s in summarize(config, runs)]
    path = out_dir / "summary.csv"
    _write_rows(path, header, rows)
    return path


def _write_manifest(
    out_dir: Path, config: ExperimentConfig, refset: ReferenceSet, runs: list[RunRecord]
) -> Path:
    manifest = {
        "config": config.canonical_dict(),
        "config_hash": config.config_hash(),
        "refset_hash": refset.content_hash(),
        "refset_size": len(refset),
        "refset_total_sampled": refset.total_sampled,
        "runs": [
            {
                "run_id": r.run_id,
                "algorithm": r.algorithm,
                "repetition": r.repetition,
                "seed": r.seed,
                "batch_size": r.batch_size,
            }
            for r in runs
        ],
    }
    path = out_dir / "manifest.json"
    with atomic_open(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# --- comparison ----------------------------------------------------------------


def _read_final_cids(in_dir: Path) -> tuple[dict, dict[str, list[float | None]]]:
    manifest = json.loads((in_dir / "manifest.json").read_text())
    finals_by_run: dict[str, float | None] = {}
    with open(in_dir / "cid_series.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            finals_by_run[row["run_id"]] = float(row["cid"]) if row["cid"] else None
    by_algorithm: dict[str, list[float | None]] = {}
    for run in sorted(manifest["runs"], key=lambda r: (r["algorithm"], r["repetition"])):
        by_algorithm.setdefault(run["algorithm"], []).append(finals_by_run[run["run_id"]])
    return manifest, by_algorithm


def compare(in_dir: str | Path, test: str = "ranksum", alpha: float = 0.05) -> list[dict]:
    """Pairwise comparison of final CID samples; writes ``stats.csv``.

    Samples are ordered by repetition, so the signed rank test pairs runs of
    equal seed. Pairs with an undefined CID in either sample are flagged
    (empty statistic cells) and skipped, with the reason in the returned rows.
    """
    if test not in ("ranksum", "signedrank"):
        raise ConfigError(f"test: unknown test {test!r}, expected 'ranksum' or 'signedrank'")
    if not 0 < alpha < 1:
        raise ConfigError(f"alpha: must be in (0, 1), got {alpha!r}")
    in_dir = Path(in_dir)
    manifest, by_algorithm = _read_final_cids(in_dir)
    if len(by_algorithm) < 2:
        raise ConfigError("compare needs results from at least two algorithms")
    variant = manifest["config"]["problem"]["variant"]
    ordered = [a["name"] for a in manifest["config"]["algorithms"]]

    rows = []
    for left, right in combinations(ordered, 2):
        pair = f"{left} vs {right}"
        x, y = by_algorithm[left], by_algorithm[right]
        if any(v is None for v in x + y):
            rows.append(
                {
                    "pair": pair,
                    "variant": variant,
                    "test": test,
                    "p_value": None,
                    "a12": None,
                    "magnitude": None,
                    "significant": None,
                    "skipped_reason": "undefined CID (a run found no failures)",
                }
            )
            continue
        result = compare_samples(pair, x, y, test=test, alpha=alpha)
        rows.append(
            {
                "pair": pair,
                "variant": variant,
                "test": test,
                "p_value": result.p_value,
                "a12": result.a12,
                "magnitude": result.magnitude,
                "significant": result.significant,
                "skipped_reason": None,
            }
        )

    header = ["pair", "variant", "test", "p_value", "a12", "magnitude", "significant"]
    _write_rows(in_dir / "stats.csv", header, [[r[k] for k in header] for r in rows])
    return rows


# --- reporting -------------------------------------------------------------------


def _fmt(value: float | None, bold: bool = False) -> str:
    if value is None:
        return "undef"
    text = f"{value:.6g}"
    return f"**{text}**" if bold else text


def emit_report(in_dir: str | Path, out_path: str | Path | None = None) -> Path:
    """Render the result tables as markdown; returns the report path."""
    in_dir = Path(in_dir)
    for required in ("summary.csv", "cid_series.csv", "manifest.json"):
        if not (in_dir / required).exists():
            raise FileNotFoundError(f"{in_dir / required}: missing experiment output")
    manifest = json.loads((in_dir / "manifest.json").read_text())
    with open(in_dir / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))

    cfg = manifest["config"]
    buf = io.StringIO()
    buf.write("# Experiment report\n\n")
    buf.write(
        f"Problem `{cfg['problem']['name']}` (variant {cfg['problem']['variant']}), "
        f"budget {cfg['budget']} evaluations, {cfg['repetitions']} repetitions, "
        f"base seed {cfg['base_seed']}.\n\n"
    )
    buf.write(
        f"Reference set: {manifest['refset_size']} failing points out of "
        f"{manifest['refset_total_sampled']} sampled (hash `{manifest['refset_hash'][:12]}`).\n\n"
    )

    buf.write("## Coverage summary\n\n")
    buf.write("| algorithm | CID mean | CID std | failures mean | first-failure iter. mean |\n")
    buf.write("|---|---|---|---|---|\n")
    defined = [float(s["cid_mean"]) for s in summary if s["cid_mean"]]
    best = min(defined) if defined else None
    for s in summary:
        cid_mean = float(s["cid_mean"]) if s["cid_mean"] else None
        bold = best is not None and cid_mean is not None and cid_mean == best
        cid_std = float(s["cid_std"]) if s["cid_std"] else None
        failures = float(s["failures_mean"]) if s["failures_mean"] else None
        first = f"{float(s['first_fail_mean']):.6g}" if s["first_fail_mean"] else "—"
        buf.write(
            f"| {s['algorithm']} | {_fmt(cid_mean, bold)} | {_fmt(cid_std)} "
            f"| {_fmt(failures)} | {first} |\n"
        )
    buf.write("\n")

    buf.write("## Statistical comparison\n\n")
    stats_path = in_dir / "stats.csv"
    if len(summary) < 2:
        buf.write("Only one algorithm was run; there is nothing to compare.\n\n")
    elif not stats_path.exists():
        buf.write("No stats.csv found; run the compare step to fill this section.\n\n")
    else:
        with open(stats_path, newline="") as fh:
            stat_rows = list(csv.DictReader(fh))
        buf.write("| pair | test | p-value | A12 | magnitude | significant |\n")
        buf.write("|---|---|---|---|---|---|\n")
        for row in stat_rows:
            if row["p_value"]:
                buf.write(
                    f"| {row['pair']} | {row['test']} | {float(row['p_value']):.6g} "
                    f"| {float(row['a12']):.6g} | {row['magnitude']} "
                    f"| {'yes' if row['significant'] == '1' else 'no'} |\n"
                )
            else:
                buf.write(f"| {row['pair']} | {row['test']} | skipped | | | |\n")
        buf.write("\n")

    buf.write("## CID convergence (mean and std across repetitions)\n\n")
    series: dict[str, dict[int, list[float | None]]] = {}
    run_algo = {r["run_id"]: r["algorithm"] for r in manifest["runs"]}
    with open(in_dir / "cid_series.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            algo = run_algo[row["run_id"]]
            mark = int(row["evaluations"])
            series.setdefault(algo, {}).setdefault(mark, []).append(
                float(row["cid"]) if row["cid"] else None
            )
    for algo, marks in series.items():
        buf.write(f"### {algo}\n\n")
        buf.write("| evaluations | CID mean | CID std |\n")
        buf.write("|---|---|---|\n")
        for mark in sorted(marks):
            defined = [v for v in marks[mark] if v is not None]
            mean = _mean_or_none(defined)
            std = _std_or_none(defined)
            buf.write(f"| {mark} | {_fmt(mean)} | {_fmt(std)} |\n")
        buf.write("\n")

    out_path = Path(out_path) if out_path else in_dir / "report.md"
    with atomic_open(out_path) as fh:
        fh.write(buf.getvalue())
    return out_path
