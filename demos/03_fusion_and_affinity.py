"""Fuse two modality graphs and turn the union into sampling distributions.

Edges present in both graphs accumulate weight (sum rule), edges seen by
only one modality pass through. The Gaussian-kernel normalization then
makes each row a probability distribution over its fused neighborhood,
and alias tables realize those distributions for O(1) draws.
"""

import numpy as np

from fgfusion import (
    build_ejg,
    build_index,
    build_samplers,
    fuse_graphs,
    normalize_affinity,
    synth_multimodal,
)
from fgfusion.randomness import rng_stream

mat_a, mat_b, labels = synth_multimodal(4, 10, noise=0.2, complementarity=1.0, seed=5)
graph_a = build_ejg(build_index(mat_a), k=5, modality_name="a")
graph_b = build_ejg(build_index(mat_b), k=5, modality_name="b")
fused = fuse_graphs([graph_a, graph_b], combine="sum")

q = 0
print(f"row {q} of graph a: ", dict(zip(graph_a.neighbor_ids[q].tolist(),
                                        np.round(graph_a.weights[q], 2))))
print(f"row {q} of graph b: ", dict(zip(graph_b.neighbor_ids[q].tolist(),
                                        np.round(graph_b.weights[q], 2))))
print(f"row {q} fused:      ", dict(zip(fused.neighbor_ids[q].tolist(),
                                        np.round(fused.weights[q], 2))))

affinity = normalize_affinity(fused, kernel_input="dissimilarity")
print(f"\nrow {q} probabilities (sum={affinity.probs[q].sum():.12f}):")
print("  ", dict(zip(affinity.neighbor_ids[q].tolist(), np.round(affinity.probs[q], 3))))
print(f"row {q} kernel bandwidth (variance of inputs): {affinity.sigma_sq[q]:.4f}")

samplers = build_samplers(affinity, noise_power=0.75)
draws = samplers.draw_row(q, 100_000, rng_stream(0, "sampler", 0))
print(f"\nempirical frequencies of 1e5 draws from row {q}:")
ids, counts = np.unique(draws, return_counts=True)
print("  ", dict(zip(ids.tolist(), np.round(counts / draws.size, 3))))

noise_draws = samplers.draw_noise(100_000, rng_stream(0, "sampler", 1))
top = np.argsort(-samplers.noise_probs)[:5]
print("\nnoise distribution, five heaviest nodes (expected vs empirical):")
for v in top:
    print(f"  node {v}: {samplers.noise_probs[v]:.4f} vs {(noise_draws == v).mean():.4f}")
