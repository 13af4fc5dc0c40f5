"""Read one experiment's result files back and check them independently.

An operation is one (algorithm, repetition) run or one reference-set build. A
run fails the check when its ``runs.csv`` row count differs from the budget,
when its final ``failures_so_far`` differs from its failing rows, or when its
final CID differs from ``failcover.cid`` (the KD-tree path) over those rows by
more than ``CID_RTOL``. A reference-set build fails when the persisted set is
empty or its content hash differs from the manifest's.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

#: Files whose bytes must repeat from one iteration to the next.
GATED_FILES = ("runs.csv", "cid_series.csv", "summary.csv", "stats.csv")

CID_RTOL = 1e-12


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: sha256 of each gated file.
    digests: dict[str, str] = field(default_factory=dict)
    rows_written: int = 0
    bytes_written: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def operation_count(config: dict) -> int:
    """Runs plus the one reference-set build of a config."""
    return len(config["algorithms"]) * config["repetitions"] + 1


def check_outputs(fc, out_dir: Path, config: dict) -> CheckResult:
    result = CheckResult(attempted=operation_count(config))
    manifest = json.loads((out_dir / "manifest.json").read_text())

    refset_files = sorted((out_dir / "refsets").glob("refset-*.csv"))
    refset = fc.load_reference_set(refset_files[0]) if len(refset_files) == 1 else None
    if refset is None or len(refset) == 0 or refset.content_hash() != manifest["refset_hash"]:
        result.fail(f"{out_dir.name}: reference set missing, empty or not the manifest's")

    rows: dict[str, int] = {}
    failing: dict[str, list[list[float]]] = {}
    with open(out_dir / "runs.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        x_cols = [i for i, name in enumerate(header) if name.startswith("x")]
        failed_col = header.index("failed")
        for row in reader:
            run_id = row[0]
            rows[run_id] = rows.get(run_id, 0) + 1
            if row[failed_col] == "1":
                failing.setdefault(run_id, []).append([float(row[i]) for i in x_cols])

    finals: dict[str, dict] = {}
    with open(out_dir / "cid_series.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            finals[row["run_id"]] = row

    missing = len(config["algorithms"]) * config["repetitions"] - len(manifest["runs"])
    for _ in range(missing):
        result.fail(f"{out_dir.name}: a run is missing from the manifest")

    cid_params = fc.CidParams(p=config["cid"]["p"], q=config["cid"]["q"])
    for run in manifest["runs"]:
        run_id = run["run_id"]
        found = failing.get(run_id, [])
        final = finals.get(run_id)
        if rows.get(run_id, 0) != config["budget"]:
            result.fail(f"{run_id}: {rows.get(run_id, 0)} rows, budget {config['budget']}")
        elif final is None or int(final["failures_so_far"]) != len(found):
            result.fail(f"{run_id}: final failures_so_far disagrees with {len(found)} failing rows")
        elif not found:
            if final["cid"] != "":
                result.fail(f"{run_id}: CID {final['cid']} reported without failures")
        elif refset is not None:
            expected = fc.cid(found, refset, cid_params)
            if abs(float(final["cid"]) - expected) > CID_RTOL * abs(expected):
                result.fail(f"{run_id}: CID {final['cid']} differs from {expected!r}")

    for name in GATED_FILES:
        result.digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    for path in out_dir.rglob("*"):
        if path.is_file():
            result.bytes_written += path.stat().st_size
            if path.suffix == ".csv" and path.parent == out_dir:
                with open(path, "rb") as fh:
                    result.rows_written += sum(1 for _ in fh) - 1
    return result
