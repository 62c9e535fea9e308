"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s`` or in the
captured output section on failure). Runtime budgets are asserted.

The complementary-modality fixture used by criteria 6 and 7 is pinned to
noise 0.25, which puts every single-modality mean in the required
[60%, 85%] window (roughly 79% / 71%) while leaving the fused features
room to beat both the singles and the concatenation baseline.
"""

import contextlib
import json
import math
import subprocess
import sys
import time

import numpy as np

from fgfusion import (
    SplitSpec,
    TrainConfig,
    build_ejg,
    build_index,
    build_samplers,
    fuse_graphs,
    knn_classify,
    make_splits,
    normalize_affinity,
    save_features,
    save_labels,
    sgd_step,
    synth_multimodal,
    train,
)
from fgfusion.ejgraph import SparseGraph
from fgfusion.knn import topk_arrays

from bruteforce import brute_ejg_weights, brute_knn, csr


@contextlib.contextmanager
def criterion(number, title, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {title}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {title}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"budget {budget_seconds}s exceeded: {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Shared pipeline helper for the complementary-gain fixture (criteria 6, 7)
# ---------------------------------------------------------------------------

FIXTURE_NOISE = 0.25


def complementary_run(run_seed, k, with_baselines=True):
    """One seeded end-to-end run on the 10-class complementary fixture.

    Returns mean split accuracies: (modality_a, modality_b, joint, fgf);
    the baseline entries are None when with_baselines is False.
    """
    mat_a, mat_b, labels = synth_multimodal(
        10, 20, noise=FIXTURE_NOISE, complementarity=1.0, seed=run_seed
    )
    splits = make_splits(
        labels, SplitSpec("per_class_train_m", 8, repeats=5, seed=run_seed + 1000)
    )
    acc_a = acc_b = acc_joint = None
    if with_baselines:
        acc_a = np.mean([knn_classify(mat_a, labels, tr, te, "euclidean") for tr, te in splits])
        acc_b = np.mean([knn_classify(mat_b, labels, tr, te, "euclidean") for tr, te in splits])
        mu = [m.data.mean(axis=0) for m in (mat_a, mat_b)]
        sd = [np.where(m.data.std(axis=0) == 0, 1, m.data.std(axis=0)) for m in (mat_a, mat_b)]
        joint = np.hstack([(mat_a.data - mu[0]) / sd[0], (mat_b.data - mu[1]) / sd[1]])
        acc_joint = np.mean([knn_classify(joint, labels, tr, te, "euclidean") for tr, te in splits])

    graphs = [build_ejg(build_index(m), k) for m in (mat_a, mat_b)]
    affinity = normalize_affinity(fuse_graphs(graphs))
    samplers = build_samplers(affinity)
    cfg = TrainConfig(d=32, samples_per_node=50, epochs=30, lr_start=0.05, seed=run_seed + 13)
    emb, _ = train(affinity, samplers, cfg)
    acc_fgf = np.mean([knn_classify(emb, labels, tr, te, "cosine") for tr, te in splits])
    return acc_a, acc_b, acc_joint, acc_fgf


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_graph_oracle_equivalence():
    """Literal-mode graphs match a naive set-arithmetic transcription
    exactly on 20 random fixtures (n <= 30, k, k1, k2 <= 5)."""
    with criterion(1, "jaccard-graph-oracle", 10):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(7, 31))
            matrix = rng.normal(size=(n, int(rng.integers(2, 6))))
            k, k1, k2 = (int(rng.integers(1, 6)) for _ in range(3))
            graph = build_ejg(build_index(matrix), k, k1, k2, mode="literal")
            oracle = brute_ejg_weights(matrix, k, k1, k2, mode="literal")
            for q in range(n):
                for j, w in zip(graph.neighbor_ids[q], graph.weights[q]):
                    assert w == oracle[(q, int(j))]


def test_criterion_2_knn_exactness():
    """topk_arrays equals the full O(n^2) sort oracle on 20 random matrices."""
    with criterion(2, "knn-exactness", 10):
        rng = np.random.default_rng(202)
        for _ in range(20):
            n = int(rng.integers(10, 101))
            matrix = rng.normal(size=(n, int(rng.integers(2, 9))))
            k = int(rng.integers(1, min(11, n)))
            ids, _ = topk_arrays(build_index(matrix), k)
            for q in range(n):
                expected_ids, _ = brute_knn(matrix, q, k)
                assert ids[q].tolist() == expected_ids


def test_criterion_3_affinity_contract():
    """1000 random affinity rows: sums within 1e-9 of 1, dissimilarity mode
    preserves within-row weight order, single-neighbor rows are certain."""
    with criterion(3, "affinity-contract", 5):
        rng = np.random.default_rng(303)
        n = 1000
        neighbor_ids, weights = [], []
        for q in range(n):
            size = int(rng.integers(1, 16))
            others = rng.permutation(n - 1)[:size]
            ids = np.where(others >= q, others + 1, others).astype(np.int64)
            neighbor_ids.append(ids)
            weights.append(np.round(rng.random(size) * 4, 1))  # ties and zeros
        graph = SparseGraph(*csr(zip(neighbor_ids, weights)))
        affinity = normalize_affinity(graph, "dissimilarity")
        for q in range(n):
            p = affinity.probs[q]
            w = weights[q]
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            if w.size == 1:
                assert p[0] == 1.0
            for a in range(w.size):
                for b in range(w.size):
                    if w[a] > w[b]:
                        assert p[a] > p[b]


def test_criterion_4_gradient_check():
    """sgd_step matches central finite differences of the per-pair
    log-likelihood within 1e-6 relative over 100 random probes."""
    with criterion(4, "gradient-check", 5):
        def loglik(f, g, label):
            x = float(np.dot(f, g))
            return math.log(1.0 / (1.0 + math.exp(-x if label else x)))

        rng = np.random.default_rng(404)
        h = 1e-5
        for probe in range(100):
            label = probe % 2
            d = int(rng.integers(2, 17))
            f = rng.normal(size=d) / math.sqrt(d)
            g = rng.normal(size=d) / math.sqrt(d)
            fs, gs = f.copy(), g.copy()
            sgd_step(fs, gs, label, lr=1.0)
            for moved, fixed_grad in ((fs - f, "df"), (gs - g, "dg")):
                numeric = np.empty(d)
                for j in range(d):
                    e = np.zeros(d)
                    e[j] = h
                    if fixed_grad == "df":
                        numeric[j] = (loglik(f + e, g, label) - loglik(f - e, g, label)) / (2 * h)
                    else:
                        numeric[j] = (loglik(f, g + e, label) - loglik(f, g - e, label)) / (2 * h)
                rel = np.linalg.norm(moved - numeric) / max(np.linalg.norm(numeric), 1e-300)
                assert rel < 1e-6


def test_criterion_5_descent_and_structure_recovery(two_block_affinity, block_labels):
    """Two-block fixture, 5 seeds: epoch-5 loss < epoch-1 loss and perfect
    leave-one-out 1-NN block classification of the trained features."""
    with criterion(5, "descent-and-recovery", 30):
        for seed in range(5):
            samplers = build_samplers(two_block_affinity)
            cfg = TrainConfig(d=4, samples_per_node=50, epochs=20, seed=seed)
            emb, report = train(two_block_affinity, samplers, cfg)
            assert report.epoch_loss[4] < report.epoch_loss[0]
            unit = emb.vectors / np.linalg.norm(emb.vectors, axis=1, keepdims=True)
            sims = unit @ unit.T
            np.fill_diagonal(sims, -2.0)
            assert np.array_equal(block_labels[sims.argmax(axis=1)], block_labels)


def test_criterion_6_complementary_gain():
    """Fused features beat the best single modality by >= 2 points and stay
    within 1 point of the concatenation baseline, means over 10 runs."""
    with criterion(6, "complementary-gain", 300):
        rows = np.array([complementary_run(run_seed, k=20) for run_seed in range(10)],
                        dtype=np.float64)
        mean_a, mean_b, mean_joint, mean_fgf = rows.mean(axis=0)
        assert 0.60 <= mean_a <= 0.85, f"modality_a mean {mean_a:.3f} outside [0.60, 0.85]"
        assert 0.60 <= mean_b <= 0.85, f"modality_b mean {mean_b:.3f} outside [0.60, 0.85]"
        assert mean_fgf >= max(mean_a, mean_b) + 0.02, (
            f"fgf {mean_fgf:.3f} vs singles {mean_a:.3f}/{mean_b:.3f}"
        )
        assert mean_fgf >= mean_joint - 0.01, f"fgf {mean_fgf:.3f} vs joint {mean_joint:.3f}"


def test_criterion_7_parameter_insensitivity():
    """Sweeping k over {10, 20, 30} moves the fused mean accuracy by at
    most 5 percentage points (5 seeded runs per k)."""
    with criterion(7, "k-insensitivity", 300):
        means = []
        for k in (10, 20, 30):
            accs = [complementary_run(run_seed, k, with_baselines=False)[3]
                    for run_seed in range(5)]
            means.append(float(np.mean(accs)))
        assert max(means) - min(means) <= 0.05, f"fgf means by k: {means}"


def _write_pipeline_fixture(tmp_path, n_classes, per_class, seed):
    mat_a, mat_b, labels = synth_multimodal(n_classes, per_class, FIXTURE_NOISE, 1.0, seed)
    save_features(mat_a, tmp_path / "modality_a.csv", "csv")
    save_features(mat_b, tmp_path / "modality_b.csv", "csv")
    save_labels(labels, tmp_path / "labels.txt")


def test_criterion_8_pipeline_determinism(tmp_path):
    """The pipeline subcommand run twice on one manifest produces
    bitwise-identical results.csv files."""
    with criterion(8, "pipeline-determinism", 60):
        _write_pipeline_fixture(tmp_path, n_classes=4, per_class=10, seed=21)
        config = {
            "features": [
                {"path": "modality_a.csv", "name": "a"},
                {"path": "modality_b.csv", "name": "b"},
            ],
            "labels": "labels.txt",
            "k": [5],
            "d": [8],
            "samples_per_node": 10,
            "epochs": 4,
            "m_or_fraction": 3,
            "repeats": 3,
            "seed": 17,
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        outputs = []
        for run in ("first", "second"):
            proc = subprocess.run(
                [sys.executable, "-m", "fgfusion.cli", "pipeline",
                 "--config", str(tmp_path / "config.json"),
                 "--out-dir", str(tmp_path / run)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((tmp_path / run / "results.csv").read_bytes())
        assert outputs[0] == outputs[1]


def test_criterion_9_sweep_shape_fidelity(tmp_path):
    """A 3x3 (k, d) sweep over a 500-sample fixture emits exactly 9 fused
    rows plus 2 single-modality and 1 concatenation baseline rows over 10
    splits, with mean/std recomputable from the per-split entries to 1e-9."""
    with criterion(9, "sweep-shape", 600):
        _write_pipeline_fixture(tmp_path, n_classes=10, per_class=50, seed=33)
        config = {
            "features": [
                {"path": "modality_a.csv", "name": "rgb"},
                {"path": "modality_b.csv", "name": "depth"},
            ],
            "labels": "labels.txt",
            "k": [50, 100, 150],
            "d": [50, 100, 200],
            "samples_per_node": 20,
            "epochs": 8,
            "lr_start": 0.05,
            "m_or_fraction": 5,
            "repeats": 10,
            "seed": 29,
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fgfusion.cli", "pipeline",
             "--config", str(tmp_path / "config.json"), "--out-dir", str(out_dir)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

        lines = (out_dir / "results.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["method", "k", "d"] + [f"s-{i}" for i in range(1, 11)] + ["mean", "std"]
        body = [line.split(",") for line in lines[1:]]
        methods = [cells[0] for cells in body]
        assert methods.count("fgf") == 9
        assert methods.count("joint") == 1
        assert len(methods) == 12  # 9 fgf + 2 single-modality + 1 joint
        fgf_cells = {(cells[1], cells[2]) for cells in body if cells[0] == "fgf"}
        assert fgf_cells == {(str(k), str(d)) for k in (50, 100, 150) for d in (50, 100, 200)}

        for cells in body:
            accs = np.array([float(v) for v in cells[3:13]])
            mean = float(cells[13])
            std = float(cells[14])
            assert abs(mean - accs.mean()) <= 1e-9
            assert abs(std - accs.std(ddof=1)) <= 1e-9
