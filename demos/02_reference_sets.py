"""Reference-set construction and its accuracy knobs.

A reference set approximates the failure region by keeping the failing points
of a space-filling sample. Two things matter: the resolution (finer grids
shrink the CID error roughly linearly in the adjacent-point distance R*) and
the sampling strategy (grid, furthest-point, and Poisson disc sets agree
closely once dense enough).
"""

import numpy as np

from failcover import build_reference_set, cid, get_problem
from failcover.samplers import make_rng

problem = get_problem("two_ball", "Large")

print("resolution study: CID of a fixed 20-point test set against finer grids")
rng = make_rng(3)
test_set = np.column_stack([rng.uniform(0.4, 0.6, 20), rng.uniform(0.8, 1.0, 20)])
refsets = {
    k: build_reference_set(problem, {"strategy": "grid", "params": {"k": k}})
    for k in (16, 32, 64, 128, 256, 512)
}
baseline = cid(test_set, refsets[512])
print(f"{'k':>4} {'|Z|':>6} {'R*':>8} {'CID':>10} {'error vs k=512':>15}")
for k, refset in refsets.items():
    value = cid(test_set, refset)
    print(f"{k:>4} {len(refset):>6} {refset.max_adjacent_distance:>8.4f} "
          f"{value:>10.6f} {abs(value - baseline):>15.2e}")

print("\nstrategy study: the same test set scored against different samplers")
strategies = {
    "grid (32x32)": {"strategy": "grid", "params": {"k": 32}},
    "fps (1024 of 20k pool)": {
        "strategy": "fps",
        "params": {"n": 1024, "candidate_pool_size": 20_000, "seed": 1},
    },
    "poisson (r=0.02)": {"strategy": "poisson", "params": {"r": 0.02, "seed": 1}},
    "uniform (1024)": {"strategy": "uniform", "params": {"n": 1024, "seed": 1}},
}
for label, spec in strategies.items():
    refset = build_reference_set(problem, spec)
    print(f"{label:26s} |Z|={len(refset):>4}  CID={cid(test_set, refset):.4f}")

print("\nReference sets persist as CSV plus a JSON sidecar; repeated builds with")
print("the same key are served from the cache byte-identically (pass cache_dir).")
