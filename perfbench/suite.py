"""Run every workload untraced and traced, and print all metrics with units.

    python3 perfbench/suite.py [--seed 1] [--seconds 15] [--record]

Each workload runs in its own ``run.py`` process, so no two share a memory
high-water mark: once with ``--trace 0`` for the end-to-end metrics and once
with ``--trace 1`` for the per-layer metrics. ``--record`` also writes
``perfbench/record.json``: each workload's configs, the reason it was chosen,
its evaluations per iteration, its traced layer shares, the sha256 of its
result files (informational: a change that alters result bytes shows there),
the measured metrics and the environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
#: A workload run may take this long before the suite gives up on it.
RUN_TIMEOUT_S = 900


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The result line and the detail file of one ``run.py`` process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"{name}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    record = {"default_seed": DEFAULT_SEED, "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    all_correct = True
    for workload in WORKLOADS.values():
        entry = {
            "why": workload.why,
            "rationale": workload.rationale,
            "study_repetitions": workload.study_repetitions,
            "repetitions": workload.repetitions,
        }
        print(f"== {workload.name}: {workload.why}")
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, detail = run_workload(workload.name, args.seed, args.seconds, trace)
            all_correct &= result["correct"]
            error_rate = result["failed"] / result["attempted"]
            print(f"  [trace {trace}] correct {result['correct']}, "
                  f"error_rate {error_rate:.4g} ({result['failed']}/{result['attempted']})")
            for name, m in result["metrics"].items():
                print(f"    {name:36s} {m['value']:14.6g} {m['unit']}")
            entry[key] = {name: m["value"] for name, m in result["metrics"].items()}
            entry["error_rate"] = max(entry.get("error_rate", 0.0), error_rate)
            if trace:
                entry["layer_shares"] = detail["layer_shares"]
                print("    layer shares of traced time: " + ", ".join(
                    f"{k} {v:.1%}" for k, v in detail["layer_shares"].items() if v >= 0.005))
            else:
                entry.update(evaluations=detail["evaluations"], configs=detail["configs"],
                             result_sha256=detail["result_sha256"])
                record["environment"] = detail["environment"]
        record["workloads"][workload.name] = entry

    if args.record:
        (HERE / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
