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
import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

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


def _string(mapping: dict, key: str, path: str) -> str:
    """``mapping[key]``; ``ConfigError`` unless it is present and a string."""
    value = _require(mapping, key, path)
    if not isinstance(value, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {value!r}")
    return value


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
    problem_name = _string(problem, "name", "config.problem")
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
        name = _string(entry, "name", path)
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
            make_config(name, budget, params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}.params: {exc}") from exc
        algorithms.append(AlgorithmSpec(name=name, params=params))
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
        refset_spec = {"path": _string(refset, "path", "config.refset")}
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
    error or an interrupt) leave no partial result files behind. A ``stats.csv``
    and ``report.md`` already in ``out_dir`` describe earlier results, so they
    are deleted before the new results are written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = get_problem(config.problem_name, config.variant, **config.problem_params)
    refset = (load_reference_set(config.refset_spec["path"]) if "path" in config.refset_spec
              else build_reference_set(problem, config.refset_spec, cache_dir=out_dir / "refsets"))
    if len(refset) == 0:
        raise ConfigError(f"config.refset.path: {config.refset_spec['path']} holds no points")
    if refset.points.shape[1] != problem.space.dims:
        raise ConfigError(f"config.refset.path: the reference set is {refset.points.shape[1]}-D, "
                          f"{config.problem_name}'s inputs are {problem.space.dims}-D")

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
                    history=history,
                    series=series,
                )
            )

    for derived in ("stats.csv", "report.md"):
        (out_dir / derived).unlink(missing_ok=True)
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
        firsts = [f for r in mine if (f := first_failure_iteration(r.history)) is not None]
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
            }
            for r in runs
        ],
    }
    path = out_dir / "manifest.json"
    with atomic_open(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# --- reading results ---------------------------------------------------------------


def _cell(text: str) -> float | None:
    """A numeric CSV cell; an empty cell is undefined."""
    return float(text) if text else None


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_results(in_dir: Path) -> tuple[dict, dict[str, list[list[tuple[int, float | None]]]]]:
    """The manifest, and each algorithm's runs as ``(evaluations, cid)`` checkpoints.

    Algorithms come in config order, each one's runs in repetition order.
    """
    manifest = json.loads((in_dir / "manifest.json").read_text())
    checkpoints: dict[str, list[tuple[int, float | None]]] = {}
    for row in _read_rows(in_dir / "cid_series.csv"):
        checkpoint = (int(row["evaluations"]), _cell(row["cid"]))
        checkpoints.setdefault(row["run_id"], []).append(checkpoint)
    series: dict[str, list] = {a["name"]: [] for a in manifest["config"]["algorithms"]}
    for run in sorted(manifest["runs"], key=lambda r: r["repetition"]):
        series[run["algorithm"]].append(checkpoints[run["run_id"]])
    return manifest, series


# --- comparison ----------------------------------------------------------------


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
    manifest, series = _read_results(in_dir)
    if len(series) < 2:
        raise ConfigError("compare needs results from at least two algorithms")
    variant = manifest["config"]["problem"]["variant"]
    finals = {algo: [run[-1][1] for run in runs] for algo, runs in series.items()}

    rows = []
    for left, right in combinations(finals, 2):
        pair = f"{left} vs {right}"
        x, y = finals[left], finals[right]
        row = {"pair": pair, "variant": variant, "test": test,
               "p_value": None, "a12": None, "magnitude": None, "significant": None,
               "skipped_reason": "undefined CID (a run found no failures)"}
        if None not in x + y:
            result = compare_samples(pair, x, y, test=test, alpha=alpha)
            row.update(p_value=result.p_value, a12=result.a12, magnitude=result.magnitude,
                       significant=result.significant, skipped_reason=None)
        rows.append(row)

    header = ["pair", "variant", "test", "p_value", "a12", "magnitude", "significant"]
    _write_rows(in_dir / "stats.csv", header, [[r[k] for k in header] for r in rows])
    return rows


# --- reporting -------------------------------------------------------------------


def _fmt(value: float | None, bold: bool = False) -> str:
    if value is None:
        return "undef"
    text = f"{value:.6g}"
    return f"**{text}**" if bold else text


def _table(header: list[str], rows: list[list[str]]) -> str:
    """A markdown table and the blank line after it; an empty cell is drawn as ``| |``."""
    def line(cells: list[str]) -> str:
        return "|" + "".join(f" {c} |" if c else " |" for c in cells) + "\n"

    return line(header) + "|" + "---|" * len(header) + "\n" + "".join(map(line, rows)) + "\n"


def emit_report(in_dir: str | Path, out_path: str | Path | None = None) -> Path:
    """Render the result tables as markdown; returns the report path."""
    in_dir = Path(in_dir)
    summary = _read_rows(in_dir / "summary.csv")
    manifest, series = _read_results(in_dir)
    cfg = manifest["config"]
    parts = [
        "# Experiment report\n\n",
        f"Problem `{cfg['problem']['name']}` (variant {cfg['problem']['variant']}), "
        f"budget {cfg['budget']} evaluations, {cfg['repetitions']} repetitions, "
        f"base seed {cfg['base_seed']}.\n\n",
        f"Reference set: {manifest['refset_size']} failing points out of "
        f"{manifest['refset_total_sampled']} sampled (hash `{manifest['refset_hash'][:12]}`).\n\n",
        "## Coverage summary\n\n",
    ]
    cid_means = [_cell(s["cid_mean"]) for s in summary]
    best = min((m for m in cid_means if m is not None), default=None)
    rows = []
    for s, mean in zip(summary, cid_means):
        first = _cell(s["first_fail_mean"])
        rows.append([s["algorithm"], _fmt(mean, mean is not None and mean == best),
                     _fmt(_cell(s["cid_std"])), _fmt(_cell(s["failures_mean"])),
                     "—" if first is None else _fmt(first)])
    parts.append(_table(["algorithm", "CID mean", "CID std", "failures mean",
                         "first-failure iter. mean"], rows))

    parts.append("## Statistical comparison\n\n")
    stats_path = in_dir / "stats.csv"
    if len(summary) < 2:
        parts.append("Only one algorithm was run; there is nothing to compare.\n\n")
    elif not stats_path.exists():
        parts.append("No stats.csv found; run the compare step to fill this section.\n\n")
    else:
        rows = [
            [r["pair"], r["test"], _fmt(float(r["p_value"])), _fmt(float(r["a12"])),
             r["magnitude"], "yes" if r["significant"] == "1" else "no"]
            if r["p_value"] else [r["pair"], r["test"], "skipped", "", "", ""]
            for r in _read_rows(stats_path)
        ]
        parts.append(_table(["pair", "test", "p-value", "A12", "magnitude", "significant"], rows))

    parts.append("## CID convergence (mean and std across repetitions)\n\n")
    for algo, runs in series.items():
        by_mark: dict[int, list[float]] = {}
        for run in runs:
            for mark, cid in run:
                defined = by_mark.setdefault(mark, [])
                if cid is not None:
                    defined.append(cid)
        rows = [[str(mark), _fmt(_mean_or_none(cids)), _fmt(_std_or_none(cids))]
                for mark, cids in sorted(by_mark.items())]
        parts.append(f"### {algo}\n\n" + _table(["evaluations", "CID mean", "CID std"], rows))

    out_path = Path(out_path) if out_path else in_dir / "report.md"
    with atomic_open(out_path) as fh:
        fh.write("".join(parts))
    return out_path
