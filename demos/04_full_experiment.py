"""The config-driven pipeline end to end.

One JSON config describes the whole experiment: problem and oracle variant,
algorithms with presets or overrides, budget, repetitions, seeding, the
reference-set recipe, and CID parameters. Running it produces runs.csv,
cid_series.csv, summary.csv, and a manifest; compare() adds stats.csv and
emit_report() renders everything as markdown. Identical configs reproduce
identical bytes.

The same pipeline is scriptable from the shell:

    failcover run --config config.json --out results/
    failcover compare --in results/ --test signedrank
    failcover report --in results/
"""

import tempfile
from pathlib import Path

from failcover import compare, emit_report, parse_config, run_experiment

config = parse_config({
    "problem": {"name": "two_ball", "variant": "Large"},
    "algorithms": [
        {"name": "rs", "params": {"batch_size": 40}},
        {"name": "nsga2", "preset": "avp"},
        {"name": "nsga2d", "preset": "avp", "params": {"archive_threshold": 0.1}},
    ],
    "budget": 1000,
    "repetitions": 5,
    "base_seed": 20240,
    "refset": {"strategy": "grid", "params": {"k": 64}},
    "cid": {"p": 2, "q": 1, "interval": 250},
})

with tempfile.TemporaryDirectory(prefix="failcover-demo-") as tmp:
    out_dir = Path(tmp)
    result = run_experiment(config, out_dir)
    print(f"executed {len(result.runs)} runs into {out_dir}\n")

    rows = compare(out_dir, test="signedrank", alpha=0.05)
    for row in rows:
        print(f"{row['pair']:18s} p={row['p_value']:.4g}  A12={row['a12']:.2f}  "
              f"{row['magnitude']}{' *' if row['significant'] else ''}")

    report_path = emit_report(out_dir)
    print(f"\nreport written to {report_path}:\n")
    print(report_path.read_text())
