"""Command line entry points.

Subcommands mirror the experiment workflow: inspect the problem catalog,
build a reference set, run a configured experiment, score a point set,
compare algorithms, and render the report.

Exit codes: 0 success, 1 validation error, 2 runtime error (including an
empty reference set or one modified after it was saved).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coverage import (
    CidParams,
    EmptyReferenceSetError,
    build_reference_set,
    cid,
    load_reference_set,
    read_points,
    save_reference_set,
)
from .harness import ConfigError, compare, emit_report, load_config, run_experiment
from .problems import CATALOG, VARIANTS, get_problem
from .samplers import STRATEGIES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="failcover",
        description="Failure-coverage benchmarking of search-based testing algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    problems = sub.add_parser("problems", help="inspect the synthetic problem catalog")
    problems_sub = problems.add_subparsers(dest="problems_command", required=True)
    listing = problems_sub.add_parser("list", help="list catalog problems and oracle variants")
    listing.set_defaults(func=_cmd_problems_list)

    refset = sub.add_parser("refset", help="build and persist a reference set")
    refset.add_argument("--problem", required=True, help="catalog problem name")
    refset.add_argument("--variant", default="Large", choices=VARIANTS)
    refset.add_argument("--strategy", required=True, choices=sorted(STRATEGIES))
    refset.add_argument("--params", default="{}",
                        help='sampler parameters as JSON, e.g. \'{"k": 64}\'')
    refset.add_argument("--out", required=True, help="output CSV path")
    refset.set_defaults(func=_cmd_refset)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("--config", required=True, help="JSON experiment config")
    run.add_argument("--out", default=None, help="output directory (overrides config)")
    run.set_defaults(func=_cmd_run)

    cid_cmd = sub.add_parser("cid", help="score a point set against a reference set")
    cid_cmd.add_argument("--refset", required=True, help="reference-set CSV")
    cid_cmd.add_argument("--points", required=True, help="test-point CSV with header x1..xn")
    cid_cmd.add_argument("--p", type=float, default=2.0, help="distance norm order")
    cid_cmd.add_argument("--q", type=float, default=1.0, help="aggregation order")
    cid_cmd.set_defaults(func=_cmd_cid)

    cmp_cmd = sub.add_parser("compare", help="pairwise statistics over final CID values")
    cmp_cmd.add_argument("--in", dest="in_dir", required=True, help="experiment output directory")
    cmp_cmd.add_argument("--test", default="ranksum", choices=("ranksum", "signedrank"))
    cmp_cmd.add_argument("--alpha", type=float, default=0.05)
    cmp_cmd.set_defaults(func=_cmd_compare)

    report = sub.add_parser("report", help="render the markdown report")
    report.add_argument("--in", dest="in_dir", required=True, help="experiment output directory")
    report.add_argument("--out", default=None, help="report path (default <in>/report.md)")
    report.set_defaults(func=_cmd_report)

    return parser


def _cmd_problems_list(args: argparse.Namespace) -> int:
    for name, entry in sorted(CATALOG.items()):
        problem = entry.build()
        print(f"{name}: {problem.space.dims}-D input, {problem.objective_count} objectives")
        for variant in VARIANTS:
            print(f"  {variant}: {entry.variant_summary[variant]}")
    return 0


def _cmd_refset(args: argparse.Namespace) -> int:
    params = json.loads(args.params)
    problem = get_problem(args.problem, args.variant)
    refset = build_reference_set(problem, {"strategy": args.strategy, "params": params})
    path = save_reference_set(refset, args.out)
    print(
        f"wrote {len(refset)} failing points (of {refset.total_sampled} sampled, "
        f"R*={refset.max_adjacent_distance:.6g}) to {path}"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out_dir = args.out or config.output_dir
    if out_dir is None:
        raise ConfigError("config.output_dir: missing and no --out given")
    result = run_experiment(config, out_dir)
    print(f"{len(result.runs)} runs written to {result.out_dir}")
    return 0


def _cmd_cid(args: argparse.Namespace) -> int:
    refset = load_reference_set(args.refset)
    points = read_points(args.points)
    value = cid(points, refset, CidParams(p=args.p, q=args.q))
    print(repr(value))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = compare(args.in_dir, test=args.test, alpha=args.alpha)
    for row in rows:
        if row["p_value"] is None:
            print(f"{row['pair']}: skipped ({row['skipped_reason']})", file=sys.stderr)
        else:
            flag = "significant" if row["significant"] else "not significant"
            print(
                f"{row['pair']}: p={row['p_value']:.6g} a12={row['a12']:.6g} "
                f"{row['magnitude']} ({flag})"
            )
    print(f"stats written to {Path(args.in_dir) / 'stats.csv'}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = emit_report(args.in_dir, args.out)
    print(f"report written to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EmptyReferenceSetError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
