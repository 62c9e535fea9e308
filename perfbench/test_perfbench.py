"""Tests of the benchmark's own arithmetic and output checks.

Run from the repository root: python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _table(rows, repeats=3):
    header = ["method", "k", "d"] + [f"s-{i + 1}" for i in range(repeats)] + ["mean", "std"]
    lines = [",".join(header)]
    for method, k, d, accs in rows:
        accs = np.asarray(accs, dtype=np.float64)
        cells = [method, k, d] + [repr(float(a)) for a in accs]
        cells += [repr(float(np.mean(accs))), repr(float(np.std(accs, ddof=1)))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


GOOD_ROWS = [
    ("modality_a", "", "8", [0.7, 0.75, 0.8]),
    ("modality_b", "", "8", [0.6, 0.65, 0.7]),
    ("joint", "", "16", [0.9, 0.85, 0.95]),
    ("fgf", "20", "32", [0.9, 0.95, 1.0]),
]
METHODS = ["modality_a", "modality_b", "joint", "fgf"]


def _affinity_blob(n, rows):
    """Binary affinity in the documented EJGA layout from {src: [(dst, p)]}."""
    records = [(s, d, p) for s in range(n) for d, p in rows[s]]
    body = np.array(records, dtype=[("src", "<u8"), ("dst", "<u8"), ("w", "<f8")])
    header = (b"EJGA" + np.asarray([1], "<u4").tobytes()
              + np.asarray([n, len(records)], "<u8").tobytes())
    return header + body.tobytes() + np.ones(n, "<f8").tobytes()


# -- self-time arithmetic -----------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("worker.iteration", 0.0, 10.0),
        Span("cli.pipeline", 1.0, 9.0, parent=0),
        Span("ejgraph.build", 2.0, 6.0, parent=1),
        Span("knn.topk", 2.5, 4.5, parent=2),
        Span("embed.train", 6.5, 8.5, parent=1),
    ]
    assert self_times(spans) == [2.0, 2.0, 2.0, 2.0, 2.0]


def test_layer_self_times_and_worker_account_for_the_wall():
    spans = [
        Span("worker.iteration", 0.0, 10.0),
        Span("cli.pipeline", 1.0, 9.0, parent=0),
        Span("ejgraph.build", 2.0, 6.0, parent=1),
        Span("knn.topk", 2.5, 4.5, parent=2),
        Span("knn.topk", 4.5, 5.0, parent=2),
        Span("embed.train", 6.5, 8.5, parent=1),
    ]
    m = layer_metrics(spans, {"embed.pair_updates": 4.0}, {}, 10.0)
    assert m["knn.topk_s"] == 2.5 and m["knn.topk_calls"] == 2
    assert m["ejgraph.build_self_s"] == 1.5
    assert m["cli.self_s"] == 2.0 and m["worker.self_s"] == 2.0
    assert m["embed.updates_per_s"] == 2.0
    layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layers == pytest.approx(10.0)
    assert m["trace.accounted_frac"] == pytest.approx(1.0)


def test_tracer_nests_spans_and_flags_failures():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap(inner, "knn.topk")
    traced_outer = tracer.wrap(lambda x: traced_inner(x), "ejgraph.build")
    root = tracer.open("worker.iteration")
    assert traced_outer(1) == 1
    with pytest.raises(ValueError):
        traced_outer(-1)
    tracer.close(root)
    names = [(s.name, s.parent, s.failed) for s in tracer.spans]
    assert names == [
        ("worker.iteration", -1, False),
        ("ejgraph.build", 0, False),
        ("knn.topk", 1, False),
        ("ejgraph.build", 0, True),
        ("knn.topk", 3, True),
    ]
    assert sum(self_times(tracer.spans)) == tracer.spans[0].end - tracer.spans[0].start


def test_tracer_memory_peak_is_charged_to_enclosing_spans():
    tracer = Tracer(mem=True)

    def allocate():
        block = np.ones(4_000_000 // 8)  # 4 MB held only inside the call
        return float(block[0])

    traced_inner = tracer.wrap(allocate, "knn.topk", mem=True)
    traced_outer = tracer.wrap(lambda: traced_inner(), "ejgraph.build", mem=True)
    traced_outer()
    outer, inner = tracer.spans
    assert inner.peak_alloc >= 4_000_000
    assert outer.peak_alloc >= inner.peak_alloc


# -- output checks ----------------------------------------------------------------


def test_good_table_passes():
    assert checks.check_table(_table(GOOD_ROWS), METHODS, 3) == []
    assert checks.check_gain(_table(GOOD_ROWS)) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text.replace("0.95", "0.96", 1),  # a split no longer matches the mean
        lambda text: text.replace("1.0", "1.5", 1),  # accuracy outside [0, 1]
        lambda text: "\n".join(text.splitlines()[:-1]) + "\n",  # fgf row missing
        lambda text: text.replace("modality_b", "modality_c"),  # wrong method
        lambda text: text.replace(",", ";"),  # unparsable
    ],
)
def test_corrupted_table_is_a_problem(corrupt):
    assert checks.check_table(corrupt(_table(GOOD_ROWS)), METHODS, 3)


def test_gain_below_two_points_is_a_problem():
    rows = GOOD_ROWS[:3] + [("fgf", "20", "32", [0.74, 0.76, 0.75])]
    assert checks.check_gain(_table(rows))


def test_affinity_rows_must_be_stochastic():
    rows = {0: [(1, 0.25), (2, 0.75)], 1: [(0, 1.0)], 2: [(0, 0.5), (1, 0.5)]}
    assert checks.check_affinity(_affinity_blob(3, rows), 3) == []
    rows[2] = [(0, 0.5), (1, 0.5 + 1e-6)]
    assert checks.check_affinity(_affinity_blob(3, rows), 3)
    rows[2] = []
    assert checks.check_affinity(_affinity_blob(3, rows), 3)


def test_graph_csv_needs_k_edges_on_every_row(tmp_path):
    path = tmp_path / "graph.csv"
    edges = [f"{q},{(q + j) % 4},0.5" for q in range(4) for j in (1, 2)]
    path.write_text("\n".join(edges) + "\n")
    assert checks.check_graph_csv(path, 4, 2) == []
    path.write_text("\n".join(edges[:-1]) + "\n")
    assert checks.check_graph_csv(path, 4, 2)
    path.write_text("0,1\n")
    assert checks.check_graph_csv(path, 4, 2)
    path.write_text("0,1,x\n")
    assert checks.check_graph_csv(path, 4, 2)


def test_ejg_oracle_agrees_with_build_ejg_and_catches_a_wrong_weight():
    from fgfusion import build_ejg, build_index, synth_multimodal

    mat, _, _ = synth_multimodal(4, 8, 0.25, 1.0, 3)
    for mode in ("literal", "jaccard-scaled"):
        graph = build_ejg(build_index(mat, "cosine"), 4, 5, 3, mode=mode)
        oracle = checks.oracle_ejg(mat.data, 4, 5, 3, "cosine", mode)
        assert checks.check_ejg_against_oracle(graph, oracle) == []
        graph.weights[7] = graph.weights[7] + 0.5
        assert checks.check_ejg_against_oracle(graph, oracle)


# -- failures are counted per operation ---------------------------------------------


def test_corrupted_results_table_fails_the_pipeline_operation(tmp_path):
    rows = [(m, k, d, accs * 3 + accs[:1]) for m, k, d, accs in GOOD_ROWS]  # 10 splits
    result = {"ops": [{"name": "pipeline", "exit": 0, "error": None}]}
    text = _table(rows, repeats=10)
    (tmp_path / "results.csv").write_text(text)
    problems, _, acc = run.check_outputs(WORKLOADS["train-bound"], tmp_path, result)
    assert problems["pipeline"] == [] and acc == pytest.approx(0.945)
    (tmp_path / "results.csv").write_text(text.replace("0.95", "0.96", 1))
    problems, _, acc = run.check_outputs(WORKLOADS["train-bound"], tmp_path, result)
    assert problems["pipeline"] and acc is None


def test_non_stochastic_affinity_fails_the_fuse_operation(tmp_path):
    n = WORKLOADS["staged-io"].n
    rows = {i: [((i + 1) % n, 0.5), ((i + 2) % n, 0.5)] for i in range(n)}
    ops = ["build-graph-a", "build-graph-b", "fuse", "embed", "eval-features", "eval-fused"]
    result = {"ops": [{"name": op, "exit": 0 if op == "fuse" else 3, "error": "skipped"}
                      for op in ops]}
    (tmp_path / "affinity.bin").write_bytes(_affinity_blob(n, rows))
    problems, _, _ = run.check_outputs(WORKLOADS["staged-io"], tmp_path, result)
    assert problems["fuse"] == []
    rows[5] = [(6, 0.5), (7, 0.4)]
    (tmp_path / "affinity.bin").write_bytes(_affinity_blob(n, rows))
    problems, _, _ = run.check_outputs(WORKLOADS["staged-io"], tmp_path, result)
    assert problems["fuse"] and all(problems[op] for op in ops)
