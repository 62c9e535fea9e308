"""Span tracing of fgfusion's public functions, installed from outside the library.

A :class:`Tracer` replaces every binding of each traced function across the
loaded ``fgfusion`` modules with a wrapper that records a span (name, layer,
start, end, parent). Functions flagged ``mem`` also record their peak
``tracemalloc`` allocation; tracemalloc runs only while such a span is
open, so the pure-Python trainer loop is not slowed by allocation tracing.
Counters are collected by per-function observers after the span closes.

A layer is an fgfusion module. A span's self time is its duration minus
the durations of its direct children; the self times of all spans plus the
root's self time add up to the root's duration.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "evalharness", "dataset", "knn", "ejgraph", "fusion", "embed")


@dataclass
class Span:
    name: str  # "<layer>.<operation>"
    start: float
    end: float = 0.0
    parent: int = -1  # index into the span list; -1 for the root
    failed: bool = False
    peak_alloc: float = 0.0  # bytes above the allocation level at span entry

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _graph_edges(graph) -> int:
    return int(sum(ids.size for ids in graph.neighbor_ids))


# --- observers: (tracer, args, kwargs, result) -> None -------------------


def _obs_topk(t, args, kwargs, result):
    index = args[0]
    t.counters["knn.topk_distance_evals"] += index.n * index.n


def _obs_build_ejg(t, args, kwargs, result):
    t.counters["ejgraph.edges"] += _graph_edges(result)
    t.counters["ejgraph.zero_weights"] += sum(
        int(np.count_nonzero(w == 0.0)) for w in result.weights
    )


def _obs_fuse(t, args, kwargs, result):
    graphs = args[0] if args else kwargs["graphs"]
    t.counters["fusion.input_edges"] += sum(_graph_edges(g) for g in graphs)
    t.counters["fusion.fused_edges"] += _graph_edges(result)


def _obs_train(t, args, kwargs, result):
    affinity, cfg = args[0], args[2] if len(args) > 2 else kwargs["cfg"]
    pairs = cfg.epochs * affinity.n * cfg.samples_per_node
    t.counters["embed.pair_updates"] += pairs * (1 + cfg.negatives)
    t.counters["embed.noise_kept"] += pairs * cfg.negatives
    losses = result[1].epoch_loss
    if losses:
        t.values["embed.final_loss"] = losses[-1]


def _obs_draw_noise(t, args, kwargs, result):
    t.counters["embed.noise_draws"] += result.size


def _obs_classify(t, args, kwargs, result):
    test_idx = args[3] if len(args) > 3 else kwargs["test_idx"]
    t.counters["evalharness.test_rows"] += len(test_idx)


def _bytes_counter(key, path_arg):
    def observe(t, args, kwargs, result):
        t.counters[key] += os.path.getsize(args[path_arg])

    return observe


# (module, attribute, span name or None for a counter-only wrapper, mem, observer);
# the span name "cli." is completed with the subcommand of each call
TARGETS = (
    ("cli", "main", "cli.", False, None),
    ("evalharness", "run_pipeline", "evalharness.pipeline", False, None),
    ("evalharness", "make_splits", "evalharness.splits", False, None),
    ("evalharness", "knn_classify", "evalharness.classify", False, _obs_classify),
    ("evalharness", "zscore_concat", "evalharness.zscore", False, None),
    ("dataset", "load_features", "dataset.load", False, _bytes_counter("dataset.bytes_read", 0)),
    ("dataset", "load_embeddings", "dataset.load", False, _bytes_counter("dataset.bytes_read", 0)),
    ("dataset", "load_labels", "dataset.load", False, _bytes_counter("dataset.bytes_read", 0)),
    ("dataset", "save_embeddings", "dataset.save", False,
     _bytes_counter("dataset.bytes_written", 1)),
    ("dataset", "validate_alignment", "dataset.validate", False, None),
    ("knn", "build_index", "knn.build_index", False, None),
    ("knn", "topk_arrays", "knn.topk", True, _obs_topk),
    ("knn", "pairwise_distances", "knn.pairwise", True, None),
    ("ejgraph", "build_ejg", "ejgraph.build", True, _obs_build_ejg),
    ("ejgraph", "save_graph", "ejgraph.save", False, _bytes_counter("ejgraph.bytes_written", 1)),
    ("ejgraph", "load_graph", "ejgraph.load", False, _bytes_counter("ejgraph.bytes_read", 0)),
    ("fusion", "fuse_graphs", "fusion.fuse", True, _obs_fuse),
    ("fusion", "normalize_affinity", "fusion.normalize", True, None),
    ("fusion", "build_samplers", "fusion.samplers", True, None),
    ("fusion", "save_affinity", "fusion.affinity_save", False,
     _bytes_counter("fusion.affinity_bytes", 1)),
    ("fusion", "load_affinity", "fusion.affinity_load", False, None),
    ("embed", "train", "embed.train", False, _obs_train),
    ("fusion", "SamplerTable.draw_noise", None, False, _obs_draw_noise),
)


class Tracer:
    """Records spans and counters for the wrapped fgfusion functions."""

    def __init__(self, mem: bool = False, clock=time.perf_counter):
        self.mem = mem  # record tracemalloc peaks of spans flagged mem
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = {}
        self._stack: list[int] = []
        self._mem_depth = 0
        # open mem span -> traced bytes at its start, and the highest seen since
        self._mem_base: dict[int, int] = {}
        self._mem_seen: dict[int, int] = {}

    # -- span bookkeeping ------------------------------------------------

    def open(self, name: str, mem: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        mem = mem and self.mem
        if mem:
            if self._mem_depth == 0:
                tracemalloc.start()
            else:
                self._note_peak()
            self._mem_depth += 1
            tracemalloc.reset_peak()
        idx = len(self.spans)
        self.spans.append(Span(name=name, start=self.clock(), parent=parent))
        if mem:
            self._mem_base[idx] = self._mem_seen[idx] = tracemalloc.get_traced_memory()[0]
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.failed = failed
        self._stack.pop()
        if idx in self._mem_seen:
            self._note_peak()
            span.peak_alloc = float(self._mem_seen.pop(idx) - self._mem_base.pop(idx))
            self._mem_depth -= 1
            if self._mem_depth == 0:
                tracemalloc.stop()
            else:
                # enclosing mem spans already hold this peak via _note_peak
                tracemalloc.reset_peak()

    def _note_peak(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        for open_idx in self._mem_seen:
            self._mem_seen[open_idx] = max(self._mem_seen[open_idx], peak)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name, mem=False, observe=None):
        tracer = self

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                observe(tracer, args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "cli.":
                argv = args[0] if args else kwargs.get("argv")
                span_name = "cli." + argv[0].replace("-", "_")
            idx = tracer.open(span_name, mem)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            failed = span_name.startswith("cli.") and result != 0
            tracer.close(idx, failed=failed)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> dict[str, int]:
        """Wrap every binding of each target; returns bindings replaced per target."""
        import fgfusion  # noqa: F401  (loads every submodule)

        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "fgfusion"]
        replaced: dict[str, int] = {}
        for mod_name, attr, name, mem, observe in TARGETS:
            owner = sys.modules[f"fgfusion.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, mem, observe))
                replaced[attr] = 1
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, mem, observe)
            count = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        count += 1
            replaced[f"{mod_name}.{attr}"] = count
        return replaced


def layer_metrics(spans: list[Span], counters: dict, values: dict, wall: float) -> dict:
    """Per-layer metrics of one traced iteration whose root span is ``spans[0]``."""
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    peak: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    failed: dict[str, int] = {layer: 0 for layer in LAYERS}
    for span, own_time in zip(spans[1:], selfs[1:]):
        total[span.name] += span.end - span.start
        own[span.name] += own_time
        calls[span.name] += 1
        layer_self[span.layer] += own_time
        failed[span.layer] += span.failed
        peak[span.layer] = max(peak[span.layer], span.peak_alloc)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    mb = 1024.0 * 1024.0
    c = defaultdict(float, counters)
    m = {
        "embed.train_s": total["embed.train"],
        "embed.pair_updates": c["embed.pair_updates"],
        "embed.updates_per_s": rate(c["embed.pair_updates"], total["embed.train"]),
        "embed.noise_draws": c["embed.noise_draws"],
        "embed.noise_accept_ratio": rate(c["embed.noise_kept"], c["embed.noise_draws"]),
        "embed.final_loss": values.get("embed.final_loss", 0.0),
        "knn.topk_s": total["knn.topk"],
        "knn.topk_calls": calls["knn.topk"],
        "knn.topk_distance_evals": c["knn.topk_distance_evals"],
        "knn.pairwise_s": total["knn.pairwise"],
        "knn.pairwise_calls": calls["knn.pairwise"],
        "knn.peak_alloc_mb": peak["knn"] / mb,
        "ejgraph.build_self_s": own["ejgraph.build"],
        "ejgraph.edges": c["ejgraph.edges"],
        "ejgraph.edges_per_s": rate(c["ejgraph.edges"], total["ejgraph.build"]),
        "ejgraph.zero_weight_frac": rate(c["ejgraph.zero_weights"], c["ejgraph.edges"]),
        "ejgraph.peak_alloc_mb": peak["ejgraph"] / mb,
        "ejgraph.save_s": total["ejgraph.save"],
        "ejgraph.load_s": total["ejgraph.load"],
        "ejgraph.bytes_written": c["ejgraph.bytes_written"],
        "ejgraph.bytes_read": c["ejgraph.bytes_read"],
        "fusion.fuse_s": total["fusion.fuse"],
        "fusion.fused_edges": c["fusion.fused_edges"],
        "fusion.overlap_frac": 1.0 - rate(c["fusion.fused_edges"], c["fusion.input_edges"])
        if c["fusion.input_edges"] else 0.0,
        "fusion.normalize_s": total["fusion.normalize"],
        "fusion.samplers_s": total["fusion.samplers"],
        "fusion.peak_alloc_mb": peak["fusion"] / mb,
        "fusion.affinity_save_s": total["fusion.affinity_save"],
        "fusion.affinity_load_s": total["fusion.affinity_load"],
        "fusion.affinity_bytes": c["fusion.affinity_bytes"],
        "evalharness.classify_self_s": own["evalharness.classify"],
        "evalharness.classify_calls": calls["evalharness.classify"],
        "evalharness.test_rows_per_s": rate(
            c["evalharness.test_rows"], total["evalharness.classify"]
        ),
        "evalharness.splits_s": total["evalharness.splits"],
        "evalharness.pipeline_self_s": own["evalharness.pipeline"],
        "dataset.load_s": total["dataset.load"],
        "dataset.save_s": total["dataset.save"],
        "dataset.bytes_read": c["dataset.bytes_read"],
        "dataset.bytes_written": c["dataset.bytes_written"],
        "cli.pipeline_s": total["cli.pipeline"],
        "cli.build_graph_s": total["cli.build_graph"],
        "cli.fuse_s": total["cli.fuse"],
        "cli.embed_s": total["cli.embed"],
        "cli.eval_s": total["cli.eval"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.failed"] = failed[layer]
    m["worker.self_s"] = selfs[0]
    m["trace.wall_s"] = wall
    m["trace.accounted_frac"] = rate(sum(layer_self.values()) + selfs[0], wall)
    return m


# every metric layer_metrics reports, in order
LAYER_METRICS = tuple(layer_metrics([Span("worker.iteration", 0.0)], {}, {}, 0.0))
