"""End-to-end run: fixture files -> pipeline -> result table -> sweep report.

Writes a small two-modality dataset to a temp directory, runs the whole
fusion pipeline over a (k, d) sweep, removes the directory, and prints the
same CSVs the CLI would emit. The fused rows should sit above both single-modality
baselines and track the concatenation baseline.
"""

import tempfile
from pathlib import Path

from fgfusion import (
    PipelineConfig,
    run_pipeline,
    save_features,
    save_labels,
    sweep_report,
    synth_multimodal,
)

with tempfile.TemporaryDirectory(prefix="fgfusion_demo_") as tmp:
    work = Path(tmp)
    mat_a, mat_b, labels = synth_multimodal(10, 20, noise=0.25, complementarity=1.0, seed=4)
    save_features(mat_a, work / "modality_a.csv", "csv")
    save_features(mat_b, work / "modality_b.csv", "csv")
    save_labels(labels, work / "labels.txt")
    print(f"fixture written to {work}")

    config = PipelineConfig(
        features=[
            {"path": str(work / "modality_a.csv"), "name": "modality_a"},
            {"path": str(work / "modality_b.csv"), "name": "modality_b"},
        ],
        labels=str(work / "labels.txt"),
        k=[10, 20],
        d=[16, 32],
        samples_per_node=50,
        epochs=20,
        lr_start=0.05,
        protocol="per_class_train_m",
        m_or_fraction=8,
        repeats=5,
        seed=0,
    )
    result = run_pipeline(config)

print("\nresults.csv:")
print(result.table.to_csv())

print("sensitivity along k:")
print(sweep_report(result.table, "k"))
print("sensitivity along d:")
print(sweep_report(result.table, "d"))

best = max(result.table.fgf_rows(), key=lambda r: r.mean)
print(f"best fused cell: k={best.k}, d={best.d}, mean accuracy {best.mean:.3f}")
