"""Train fused features on a hand-built affinity and watch the structure.

The affinity has two disconnected 5-node blocks with uniform rows. After
training with negative sampling, vectors inside a block align while the
blocks drift apart: cosine similarity shows a clean 2x2 structure and the
mean pair loss of the last epoch is well below that of the first.
"""

import numpy as np

from fgfusion import AffinityMatrix, TrainConfig, build_samplers, train

# CSR arrays: row i holds indices[indptr[i]:indptr[i + 1]], its 4 block mates
indptr = np.arange(11) * 4
indices = np.array([j for i in range(10) for j in range(i // 5 * 5, i // 5 * 5 + 5) if j != i])
affinity = AffinityMatrix(indptr, indices, np.full(40, 0.25), sigma_sq=np.ones(10))

samplers = build_samplers(affinity)
cfg = TrainConfig(d=4, samples_per_node=50, epochs=20, seed=0)

emb, report = train(samplers, cfg)
print(f"mean pair loss, epoch 1:   {report.epoch_loss[0]:.4f}")
print(f"mean pair loss, epoch {cfg.epochs}:  {report.epoch_loss[-1]:.4f}")
print(f"epoch losses: {[round(v, 3) for v in report.epoch_loss[:8]]} ...")
print(f"positive pairs processed:  {report.positive_pairs}")

unit = emb.vectors / np.linalg.norm(emb.vectors, axis=1, keepdims=True)
sims = unit @ unit.T
print("\nmean cosine similarity, block x block:")
for a in (slice(0, 5), slice(5, 10)):
    row = []
    for b in (slice(0, 5), slice(5, 10)):
        block = sims[a, b]
        if a == b:
            block = block[~np.eye(5, dtype=bool)]
        row.append(f"{block.mean():+.3f}")
    print("  ", "  ".join(row))
