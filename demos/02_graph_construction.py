"""Build an extended Jaccard graph step by step on a toy point set.

Two tight clusters: within a cluster every neighbor is corroborated by
its own neighborhood, so edges carry the maximal confirmation count; a
bridging point sitting between the clusters earns weaker edges.
"""

import numpy as np

from fgfusion import build_ejg, build_index
from fgfusion.knn import topk_arrays

points = np.array([
    [0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0],   # cluster 1
    [10.0, 0.0], [10.0, 1.0], [11.0, 0.0], [11.0, 1.0],  # cluster 2
    [5.5, 0.5],                                       # bridge
])
index = build_index(points, "euclidean")

ids, dists = topk_arrays(index, 3)
print("3 nearest neighbors of every point:")
for q in range(len(points)):
    print(f"  {q}: {ids[q].tolist()}  distances {np.round(dists[q], 2)}")

print("\nJaccard similarity of the neighbor sets of points 0 and 1:")
set0, set1 = set(ids[0].tolist()), set(ids[1].tolist())
jaccard = len(set0 & set1) / len(set0 | set1)
print(f"  N(0)={sorted(set0)}  N(1)={sorted(set1)}  J={jaccard:.3f}")

for mode in ("literal", "jaccard-scaled"):
    graph = build_ejg(index, k=3, mode=mode)
    print(f"\nedge weights, {mode} mode:")
    for q in range(graph.n):
        row = ", ".join(
            f"{j}:{w:.2f}" for j, w in zip(graph.neighbor_ids[q], graph.weights[q])
        )
        print(f"  {q} -> {row}")
