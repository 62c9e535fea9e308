"""The benchmark's workloads: their inputs and the user-facing calls of one iteration.

Every workload drives fgfusion only through ``fgfusion.cli.main``, the entry
point a user runs. Inputs come from ``synth_multimodal`` (noise 0.25,
complementarity 1.0) under the benchmark seed and are written to files
before any timing starts; the program's own ``--seed`` stays at 0, so the
benchmark seed changes only the data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

NOISE = 0.25
COMPLEMENTARITY = 1.0


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each was chosen."""

    name: str
    classes: int
    per_class: int
    # "pipeline": one `fgfusion pipeline` call; "staged": the stage-wise CLI chain
    kind: str
    config: dict = field(default_factory=dict)
    # each fgf row must beat the best single modality by checks.GAIN_MARGIN
    gain_check: bool = False
    # spans that must fire in a traced iteration of this workload
    expected_spans: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return self.classes * self.per_class


_PIPELINE_SPANS = (
    "cli.pipeline", "evalharness.pipeline", "dataset.load", "dataset.save",
    "evalharness.splits", "evalharness.classify", "knn.pairwise", "knn.build_index",
    "knn.topk", "ejgraph.build", "fusion.fuse", "fusion.normalize", "fusion.samplers",
    "embed.train",
)

# Sizes keep one iteration near 3 s on a 2-core machine, so a run holds many and
# its medians ride out the machine's speed swings between iterations.

# Staged-io parameters, shared by the steps below and by the output checks.
STAGED_K = 50
STAGED_DIM = 16
STAGED_REPEATS = 10

WORKLOADS = {
    w.name: w
    for w in (
        # Not listed in BENCHMARK.json: a single-threaded loop whose timing follows
        # one core's speed, too unsteady on a shared 2-core machine. Run it by hand
        # to judge trainer changes.
        Workload(
            name="train-bound",
            classes=10,
            per_class=20,
            kind="pipeline",
            config={
                "k": [20], "d": [32], "samples_per_node": 50, "epochs": 8,
                "lr_start": 0.05, "protocol": "per_class_train_m", "m_or_fraction": 8,
                "repeats": 10,
            },
            gain_check=True,
            expected_spans=_PIPELINE_SPANS,
        ),
        Workload(
            name="graph-bound",
            classes=40,
            per_class=50,
            kind="pipeline",
            config={
                "k": [20], "d": [16], "samples_per_node": 1, "epochs": 1,
                "protocol": "per_class_train_m", "m_or_fraction": 8, "repeats": 10,
            },
            expected_spans=_PIPELINE_SPANS,
        ),
        Workload(
            name="staged-io",
            classes=30,
            per_class=60,
            kind="staged",
            expected_spans=(
                "cli.build_graph", "cli.fuse", "cli.embed", "cli.eval", "knn.build_index",
                "knn.topk", "ejgraph.build", "ejgraph.save", "ejgraph.load", "fusion.fuse",
                "fusion.normalize", "fusion.affinity_save", "fusion.affinity_load",
                "fusion.samplers", "embed.train", "dataset.load", "dataset.save",
                "evalharness.splits", "evalharness.classify", "knn.pairwise",
            ),
        ),
    )
}


def stage_inputs(workload: Workload, seed: int, inputs: Path) -> None:
    """Write the workload's feature, label and config files for ``seed``."""
    from fgfusion.dataset import save_features, save_labels, synth_multimodal

    inputs.mkdir(parents=True, exist_ok=True)
    mat_a, mat_b, labels = synth_multimodal(
        workload.classes, workload.per_class, NOISE, COMPLEMENTARITY, seed
    )
    save_features(mat_a, inputs / "modality_a.csv", "csv")
    save_features(mat_b, inputs / "modality_b.csv", "csv")
    save_labels(labels, inputs / "labels.txt")
    if workload.kind == "pipeline":
        config = {
            "features": [
                {"path": "modality_a.csv", "format": "csv", "name": "modality_a"},
                {"path": "modality_b.csv", "format": "csv", "name": "modality_b"},
            ],
            "labels": "labels.txt",
            **workload.config,
        }
        (inputs / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")


def steps(workload: Workload, inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The (operation name, ``cli.main`` argv) calls of one iteration, in order."""
    if workload.kind == "pipeline":
        return [("pipeline", ["pipeline", "--config", str(inputs / "config.json"),
                              "--out-dir", str(out)])]
    labels = str(inputs / "labels.txt")
    split = ["--labels", labels, "--protocol", "random_fraction", "--fraction", "0.5",
             "--repeats", str(STAGED_REPEATS)]
    graph_args = ["--metric", "cosine", "--weight-mode", "literal", "--k", str(STAGED_K)]
    return [
        ("build-graph-a", ["build-graph", "--features", str(inputs / "modality_a.csv"),
                           *graph_args, "--out", str(out / "graph_a.csv")]),
        ("build-graph-b", ["build-graph", "--features", str(inputs / "modality_b.csv"),
                           *graph_args, "--out", str(out / "graph_b.csv")]),
        ("fuse", ["fuse", "--graphs", str(out / "graph_a.csv"), str(out / "graph_b.csv"),
                  "--combine", "max", "--out", str(out / "affinity.bin")]),
        ("embed", ["embed", "--affinity", str(out / "affinity.bin"), "--dim", str(STAGED_DIM),
                   "--samples-per-node", "2", "--epochs", "1", "--out", str(out / "fused.bin")]),
        ("eval-features", ["eval", "--features", str(inputs / "modality_a.csv"), *split,
                           "--out", str(out / "eval_features.csv")]),
        ("eval-fused", ["eval", "--embeddings", str(out / "fused.bin"), "--format", "binary",
                        *split, "--classify-metric", "cosine",
                        "--out", str(out / "eval_fused.csv")]),
    ]
