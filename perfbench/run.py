"""Run one failcover benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite-2d --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a failcover source checkout: the package is
imported from the checkout's ``src/`` directory, never from an installed copy.
One iteration parses, runs, compares and reports every config of the workload
into a fresh directory, then reads the result files back and checks them.
Iterations repeat until ``--seconds`` have passed, and at least three run, so
every reported time is a median over three or more.

``--trace 0`` reports the end-to-end metrics, with no tracing installed:

* ``setup_s``      median wall time of a fresh interpreter that imports
                   failcover and parses the workload's configs;
* ``experiment_s`` median wall time of run_experiment + compare + emit_report
                   over all configs of one iteration;
* ``evals_per_s``  fitness evaluations of one iteration per ``experiment_s``;
* ``peak_rss_mb``  peak resident memory of this process.

``--trace 1`` alternates traced and untraced iterations, traced first, and
reports the per-layer metrics of the traced ones (medians for times; counts must repeat
exactly), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is one
(algorithm, repetition) run or one reference-set build; ``failed / attempted``
is the error rate. A summary and any failed checks go to standard error, and
the full detail (spans included, when traced) to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import check_outputs, operation_count
from tracing import Tracer, instrument, patched
from workloads import COMPARE_TEST, DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

ALGORITHMS = ("rs", "nsga2", "nsga2d", "omopso")
MIN_ITERATIONS = 3
#: Fresh interpreters started per run to measure set-up; the median is reported.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
#: Allowed gap between the sum of all self times and the traced total.
SELF_TIME_RTOL = 1e-6

SETUP_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import failcover
if Path(failcover.__file__).resolve().parent != Path(sys.argv[1], "failcover").resolve():
    sys.exit("imported failcover from outside the checkout: " + failcover.__file__)
for path in sys.argv[2:]:
    failcover.parse_config(json.loads(Path(path).read_text()))
"""


def import_failcover():
    package = SRC / "failcover"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run inside a failcover source checkout")
    sys.path.insert(0, str(SRC))
    import failcover

    if Path(failcover.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported failcover from {failcover.__file__}, not from {package}")
    return failcover


@dataclass
class Iteration:
    traced: bool
    tracer: Tracer
    experiment_s: float = 0.0
    evaluations: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: list[dict] = field(default_factory=list)
    rows_written: int = 0
    bytes_written: int = 0
    #: algorithm -> [failing evaluations, evaluations]
    outcomes: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0]))


def run_iteration(fc, configs: list[dict], work: Path, traced: bool) -> Iteration:
    """One pass over the workload's configs into fresh directories, then the checks."""
    it = Iteration(traced=traced, tracer=Tracer())
    tracer = it.tracer
    results = []
    gc.collect()
    with patched(instrument(tracer) if traced else []), tracer.span("iteration"):
        for j, raw in enumerate(configs):
            with tracer.span("config", index=j):
                try:
                    with tracer.span("parse_config"):
                        config = fc.parse_config(raw)
                    with tracer.span("run_experiment"):
                        result = fc.run_experiment(config, work / f"config-{j}")
                    with tracer.span("compare"):
                        fc.compare(work / f"config-{j}", test=COMPARE_TEST)
                    with tracer.span("emit_report"):
                        fc.emit_report(work / f"config-{j}")
                except Exception:
                    traceback.print_exc()
                    result = None
            results.append(result)
    it.experiment_s = sum(
        s.duration for s in tracer.spans if s.name in ("run_experiment", "compare", "emit_report")
    )

    for j, (raw, result) in enumerate(zip(configs, results)):
        try:
            if result is None:
                raise RuntimeError(f"config {j} raised")
            check = check_outputs(fc, work / f"config-{j}", raw)
        except Exception as exc:
            it.attempted += operation_count(raw)
            it.failed += operation_count(raw)
            it.problems.append(f"config {j}: {exc}")
            it.digests.append({})
            continue
        it.attempted += check.attempted
        it.failed += check.failed
        it.problems += [f"config {j}: {p}" for p in check.problems]
        it.digests.append(check.digests)
        it.rows_written += check.rows_written
        it.bytes_written += check.bytes_written
        for run in result.runs:
            counts = it.outcomes[run.algorithm]
            counts[0] += sum(1 for ev in run.history.evaluations if ev.failed)
            counts[1] += len(run.history)
            it.evaluations += len(run.history)
    shutil.rmtree(work, ignore_errors=True)
    return it


def measure_setup(config_paths: list[Path]) -> list[float]:
    """Wall time of fresh interpreters that import failcover and parse the configs."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, config_paths)],
            check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(perf_counter() - t0)
    return times


def layer_metrics(it: Iteration) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration, as name -> (value, unit)."""
    t = it.tracer

    def total(name: str) -> float:
        return sum(s.duration for s in t.find(name))

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in t.find(name))

    def calls(name: str) -> int:
        return t.leaves.get(name, [0, 0.0, 0.0])[0]

    def busy(name: str) -> float:
        return t.leaves.get(name, [0, 0.0, 0.0])[1]

    refset_points = attr_sum("build_reference_set", "points")
    refset_sampled = attr_sum("build_reference_set", "sampled")
    m = {
        "samplers.sample_s": (total("sample_by_name"), "s"),
        "samplers.points": (attr_sum("sample_by_name", "points"), "count"),
        "coverage.refset_build_s": (total("build_reference_set"), "s"),
        "coverage.refset_points": (refset_points, "count"),
        "coverage.refset_yield": (refset_points / refset_sampled if refset_sampled else 0.0,
                                  "ratio"),
        "coverage.series_s": (total("convergence_series"), "s"),
        "coverage.series_calls": (len(t.find("convergence_series")), "count"),
        "coverage.distance_evals": (attr_sum("convergence_series", "distance_evals"), "count"),
        "core.evaluations": (calls("evaluate"), "count"),
        "core.evaluate_s": (busy("evaluate"), "s"),
        "core.evaluate_us": (1e6 * busy("evaluate") / max(calls("evaluate"), 1), "us"),
        "problems.fitness_calls": (calls("fitness"), "count"),
        "problems.fitness_s": (busy("fitness"), "s"),
        "core.dominates_calls": (calls("dominates"), "count"),
        "core.dominates_s": (busy("dominates"), "s"),
    }
    for name in ALGORITHMS:
        runs = [s for s in t.find("run_algorithm") if s.attrs["algorithm"] == name]
        run_s = sum(s.duration for s in runs)
        failing, evaluated = it.outcomes.get(name, (0, 0))
        m[f"algorithms.{name}.run_s"] = (run_s, "s")
        m[f"algorithms.{name}.self_s"] = (
            run_s - sum(s.leaf_s.get("evaluate", 0.0) for s in runs), "s")
        m[f"algorithms.{name}.failure_yield"] = (
            failing / evaluated if evaluated else 0.0, "ratio")
    for kernel in ("sort", "novelty", "crowding"):
        m[f"algorithms.{kernel}_calls"] = (calls(kernel), "count")
        m[f"algorithms.{kernel}_s"] = (busy(kernel), "s")
    m.update({
        "harness.write_s": (sum(s.self_s for s in t.find("run_experiment")), "s"),
        "harness.rows_written": (it.rows_written, "count"),
        "harness.bytes_written": (it.bytes_written, "bytes"),
        "harness.compare_s": (total("compare"), "s"),
        "harness.report_s": (total("emit_report"), "s"),
        "harness.parse_s": (total("parse_config"), "s"),
        "stats.compare_calls": (len(t.find("compare_samples")), "count"),
        "stats.compare_s": (total("compare_samples"), "s"),
    })
    return m


#: Self time of each span or leaf name, grouped by the layer it belongs to.
SHARE_GROUPS = {
    "samplers": ["sample_by_name"],
    "coverage.refset": ["build_reference_set"],
    "coverage.series": ["convergence_series"],
    "core.evaluate": ["evaluate"],
    "problems.fitness": ["fitness"],
    "core.dominates": ["dominates"],
    "algorithms.kernels": ["sort", "novelty", "crowding"],
    "algorithms.search": ["run_algorithm"],
    "harness.write": ["run_experiment"],
    "harness.compare": ["compare"],
    "stats.compare": ["compare_samples"],
    "harness.report": ["emit_report"],
    "harness.parse": ["parse_config"],
    "benchmark": ["iteration", "config"],
}


def layer_shares(t: Tracer) -> dict[str, float]:
    """Share of the traced iteration's wall time spent in each layer's own code."""
    self_s: dict[str, float] = defaultdict(float)
    for s in t.spans:
        self_s[s.name] += s.self_s
    for name, stat in t.leaves.items():
        self_s[name] += stat[2]
    root = t.find("iteration")[0].duration
    return {group: sum(self_s[n] for n in names) / root for group, names in SHARE_GROUPS.items()}


def self_time_problem(t: Tracer) -> str | None:
    root = t.find("iteration")[0].duration
    gap = abs(t.total_self_s() - root)
    if gap > SELF_TIME_RTOL * root:
        return f"self times sum to {t.total_self_s()!r} s, traced total is {root!r} s"
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    return {
        "machine": platform.machine(),
        "cpu": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fc = import_failcover()
    workload = WORKLOADS[args.workload]
    configs = workload.configs(args.seed)
    expected_evaluations = workload.evaluations(args.seed)
    work = OUT / f"work-{os.getpid()}"
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        work.mkdir()
        config_paths = []
        for j, raw in enumerate(configs):
            config_paths.append(work / f"config-{j}.json")
            config_paths[-1].write_text(json.dumps(raw))
        setup = [] if args.trace else measure_setup(config_paths)

        iterations: list[Iteration] = []
        t0 = perf_counter()
        while len(iterations) < MIN_ITERATIONS or perf_counter() - t0 < args.seconds:
            traced = bool(args.trace) and len(iterations) % 2 == 0
            iterations.append(run_iteration(fc, configs, work / f"iter-{len(iterations)}",
                                            traced))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for it in iterations for p in it.problems]
    for i, it in enumerate(iterations):
        if it.digests != iterations[0].digests:
            problems.append(f"iteration {i} wrote different result bytes than iteration 0")
        if it.failed == 0 and it.evaluations != expected_evaluations:
            problems.append(f"iteration {i}: {it.evaluations} evaluations, "
                            f"expected {expected_evaluations}")

    untraced = [it.experiment_s for it in iterations if not it.traced]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "configs": configs,
        "evaluations": expected_evaluations,
        "environment": environment(),
        "result_sha256": hashlib.sha256(
            json.dumps(iterations[0].digests, sort_keys=True).encode()).hexdigest(),
        "experiment_s": [it.experiment_s for it in iterations],
        "traced": [it.traced for it in iterations],
    }
    if args.trace:
        traced_its = [it for it in iterations if it.traced]
        per_iteration = [layer_metrics(it) for it in traced_its]
        metrics = {}
        for name, (value, unit) in per_iteration[0].items():
            values = [m[name][0] for m in per_iteration]
            if unit == "s" or unit == "us":
                value = statistics.median(values)
            elif any(v != value for v in values):
                problems.append(f"{name} did not repeat across traced iterations: {values}")
            metrics[name] = (value, unit)
        for it in traced_its:
            if (p := self_time_problem(it.tracer)) is not None:
                problems.append(p)
            if it.tracer.leaves["evaluate"][0] != expected_evaluations:
                problems.append(f"traced {it.tracer.leaves['evaluate'][0]} evaluations, "
                                f"expected {expected_evaluations}")
        traced_s = statistics.median(it.experiment_s for it in traced_its)
        metrics["trace.experiment_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - statistics.median(untraced), "s")
        detail["layer_shares"] = layer_shares(traced_its[-1].tracer)
        detail["leaves"] = traced_its[-1].tracer.leaves
        detail["spans"] = [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
             "self_s": s.self_s, **s.attrs}
            for s in traced_its[-1].tracer.spans
        ]
    else:
        experiment_s = statistics.median(untraced)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "experiment_s": (experiment_s, "s"),
            "evals_per_s": (expected_evaluations / experiment_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail["setup_s"] = setup

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail["problems"] = problems
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    print(f"{workload.name} seed {args.seed} trace {args.trace}: {len(iterations)} iterations, "
          f"error_rate {failed}/{attempted} = {failed / attempted:.4g}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}", file=sys.stderr)
    for p in problems:
        print(f"  CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
