"""How the coverage inverted distance behaves.

Three test sets of very different sizes try to cover the same failure region
(two disjoint boxes). CID rewards spread, not volume: a handful of
well-placed failures scores far better than a big cluster stuck in one
region.
"""

import numpy as np

from failcover import CidParams, build_reference_set, cid, get_problem
from failcover.samplers import make_rng

problem = get_problem("two_region", "Small")
refset = build_reference_set(problem, {"strategy": "grid", "params": {"k": 60}})
print(f"reference set: {len(refset)} failing points out of {refset.total_sampled} sampled")
print(f"max adjacent distance (R*): {refset.max_adjacent_distance:.4f}\n")

rng = make_rng(7)

# (a) a few points scattered over both regions
both_sparse = np.vstack([
    rng.uniform([0.17, 0.57], [0.33, 0.78], size=(4, 2)),   # inside box A
    rng.uniform([0.62, 0.17], [0.83, 0.33], size=(4, 2)),   # inside box B
])
# (b) many points, but all in the first region
one_region = rng.uniform([0.17, 0.57], [0.33, 0.78], size=(40, 2))
# (c) a moderate number well spread over both regions
both_dense = np.vstack([
    rng.uniform([0.17, 0.57], [0.33, 0.78], size=(12, 2)),
    rng.uniform([0.62, 0.17], [0.83, 0.33], size=(12, 2)),
])

for label, points in (
    ("8 points, both regions", both_sparse),
    ("40 points, one region only", one_region),
    ("24 points, both regions", both_dense),
):
    print(f"{label:32s} CID = {cid(points, refset):.4f}")

print("\nThe one-region cluster loses despite having five times more points:")
print("every uncovered reference point contributes its full distance.")

print("\nCID is size-independent: duplicating points changes nothing.")
duplicated = np.vstack([both_dense] * 10)
print(f"24 points         CID = {cid(both_dense, refset):.6f}")
print(f"duplicated x10    CID = {cid(duplicated, refset):.6f}")

print("\nDistance and aggregation orders are configurable (p-norm, q-mean):")
for p, q in ((2, 1), (1, 1), (2, 2)):
    value = cid(both_dense, refset, CidParams(p=p, q=q))
    print(f"p={p} q={q}  CID = {value:.4f}")
