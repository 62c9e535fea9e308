"""Graph fusion, affinity normalization, and sampling tables.

Per-modality graphs are merged by edge union (overlapping edges combined
by sum or max), then each fused row is turned into a probability
distribution with a Gaussian kernel whose bandwidth is the variance of
that row's kernel inputs. Alias tables make row draws and noise draws for
negative sampling O(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ejgraph import (
    SparseGraph,
    _edges,
    _first_bad_row,
    _flat,
    _read_edges,
    _row_lengths,
    _split_rows,
    _validated,
    _write_edges,
)
from .errors import EmptyRowError, InvalidConfigError, NodeCountMismatchError
from .randomness import rng_stream

COMBINE_RULES = ("sum", "max")
KERNEL_INPUTS = ("dissimilarity", "literal")

SIGMA_FLOOR = 1e-8

AFFINITY_MAGIC = b"EJGA"


def fuse_graphs(graphs: list[SparseGraph], combine: str = "sum") -> SparseGraph:
    """Union the edge sets of aligned graphs.

    An edge present in one input keeps its weight; an edge present in
    several has its weights combined by ``combine``. Fused rows list
    neighbor ids in ascending order, so the result is invariant to the
    order of the inputs.
    """
    if combine not in COMBINE_RULES:
        raise InvalidConfigError(f"unknown combine rule {combine!r}")
    if len(graphs) < 2:
        raise InvalidConfigError("need at least two graphs to fuse")
    n = graphs[0].n
    for g in graphs[1:]:
        if g.n != n:
            raise NodeCountMismatchError(f"graph {g.modality_name!r} has {g.n} nodes, expected {n}")

    id_rows = [row for g in graphs for row in g.neighbor_ids]
    # one key per edge, row * n + id, laid out in graph order; the stable sort
    # orders the edges by (row, id) and keeps equal edges in graph order
    key = np.repeat(np.tile(np.arange(n) * n, len(graphs)), _row_lengths(id_rows))
    key += _flat(id_rows, np.int64)
    order = np.argsort(key, kind="stable")
    key = key[order]
    ws = _flat([row for g in graphs for row in g.weights], np.float64)[order]
    del order  # permuted copies are made one at a time, which bounds the peak
    first = np.flatnonzero(np.diff(key, prepend=-1))
    key = key[first]
    sizes = np.diff(first, append=ws.size)
    # fold each edge's weights in graph order, as a sequential scan would
    op = np.add if combine == "sum" else np.maximum
    merged = op(0.0 if combine == "sum" else -np.inf, ws[first])
    for r in range(1, sizes.max(initial=0)):
        live = sizes > r
        merged[live] = op(merged[live], ws[first[live] + r])
    counts = np.bincount(key // n, minlength=n)
    name = "+".join(g.modality_name for g in graphs if g.modality_name)
    return SparseGraph(n, _split_rows(key % n, counts), _split_rows(merged, counts), name)


@dataclass
class AffinityMatrix:
    """Row-stochastic affinity over the fused KNN support.

    ``sigma_sq`` holds the per-row Gaussian bandwidth: the variance of the
    row's kernel inputs, floored at SIGMA_FLOOR.
    """

    n: int
    neighbor_ids: list[np.ndarray]
    probs: list[np.ndarray]
    sigma_sq: np.ndarray | None = None

    def validate(self) -> None:
        if len(self.neighbor_ids) != self.n or len(self.probs) != self.n:
            raise InvalidConfigError("row count does not match n")
        counts = _row_lengths(self.neighbor_ids)
        src, ids = _edges(self.neighbor_ids, np.int64)
        p_src, p = _edges(self.probs, np.float64)
        sums = np.bincount(p_src, weights=p, minlength=self.n)
        bad = _first_bad_row(
            np.flatnonzero(counts == 0),
            np.flatnonzero(counts != _row_lengths(self.probs)),
            src[(ids < 0) | (ids >= self.n)],
            p_src[~((p >= 0.0) & (p <= 1.0))],
            np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-9)),
        )
        if bad is not None:
            i, check = bad
            if check == 0:
                raise EmptyRowError(f"row {i} is empty")
            problem = ("ids and probabilities differ in length", "neighbor id out of range",
                       "probability outside [0, 1]", f"probabilities sum to {self.probs[i].sum()}")
            raise InvalidConfigError(f"row {i}: {problem[check - 1]}")
        if self.sigma_sq is not None and not np.all(self.sigma_sq >= SIGMA_FLOOR):
            raise InvalidConfigError("bandwidth below floor or not a number")


def normalize_affinity(graph: SparseGraph, kernel_input: str = "dissimilarity") -> AffinityMatrix:
    """Turn fused edge weights into per-row probabilities via a Gaussian kernel.

    In ``dissimilarity`` mode (default) each row is first recentered to
    d_ij = max(row) - w_ij, so a larger fused weight yields a larger
    probability. ``literal`` mode feeds the raw weights to the kernel,
    which reverses that ordering. Either way the kernel is
    exp(-x / (2 * var)) with var the variance of the row's kernel inputs,
    floored at SIGMA_FLOOR, and the row is normalized to sum to 1.
    """
    if kernel_input not in KERNEL_INPUTS:
        raise InvalidConfigError(f"unknown kernel input mode {kernel_input!r}")
    counts = _row_lengths(graph.weights)
    if not counts.all():
        raise EmptyRowError(f"row {int(np.argmin(counts))} has no edges")
    w = _flat(graph.weights, np.float64)
    starts = np.cumsum(counts) - counts
    probs = np.empty_like(w)
    sigma_sq = np.empty(graph.n, dtype=np.float64)
    # Rows of one support size form a dense block whose per-row reductions
    # run over the contiguous last axis: the same sums as one row at a time.
    for size in np.unique(counts):
        rows = np.flatnonzero(counts == size)
        at = starts[rows, None] + np.arange(size)
        x = w[at]
        if kernel_input == "dissimilarity":
            x = x.max(axis=1, keepdims=True) - x
        var = np.maximum(x.var(axis=1), SIGMA_FLOOR)
        sigma_sq[rows] = var
        e = np.exp(-(x - x.min(axis=1, keepdims=True)) / (2.0 * var[:, None]))
        probs[at] = e / e.sum(axis=1, keepdims=True)
    ids = _split_rows(_flat(graph.neighbor_ids, np.int64), counts)
    return AffinityMatrix(graph.n, ids, _split_rows(probs, counts), sigma_sq)


# ---------------------------------------------------------------------------
# Alias sampling
# ---------------------------------------------------------------------------


def _build_alias(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias construction for one distribution (need not be normalized)."""
    p = np.asarray(probs, dtype=np.float64)
    total = p.sum()
    if total <= 0:
        raise InvalidConfigError("cannot build sampler over an all-zero distribution")
    # Python floats: the same IEEE arithmetic as numpy scalars, several times faster
    scaled = (p * (p.size / total)).tolist()
    accept = [1.0] * p.size
    alias = list(range(p.size))
    small = [i for i, v in enumerate(scaled) if v < 1.0]
    large = [i for i, v in enumerate(scaled) if v >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    return np.array(accept, dtype=np.float64), np.array(alias, dtype=np.int64)


def _alias_pick(
    accept: np.ndarray, alias: np.ndarray, lo, size, u: np.ndarray
) -> np.ndarray:
    """Positions in flat alias tables picked by uniforms u in [0, 1).

    The table of each draw holds ``size`` entries from position ``lo``;
    ``alias`` holds positions within that table.
    """
    r = u * size
    idx = r.astype(np.int64)
    at = lo + idx
    return np.where(r - idx < accept[at], at, lo + alias[at])


class SamplerTable:
    """Per-row context samplers plus the global noise distribution.

    Immutable after construction. Concurrent consumers should each obtain
    an independent generator via :meth:`stream`.
    """

    def __init__(self, affinity: AffinityMatrix, noise_power: float = 0.75, seed: int = 0):
        if not (math.isfinite(noise_power) and noise_power >= 0):
            raise InvalidConfigError(f"noise_power must be finite and >= 0, got {noise_power!r}")
        self.n = affinity.n
        self.seed = int(seed)
        self.noise_power = float(noise_power)
        # the per-row alias tables laid end to end, row i at indptr[i]:indptr[i + 1]
        self._indptr = np.concatenate(([0], np.cumsum(_row_lengths(affinity.neighbor_ids))))
        self._ids = _flat(affinity.neighbor_ids, np.int64)
        tables = [_build_alias(p) for p in affinity.probs]
        self._accept = _flat([t[0] for t in tables], np.float64)
        self._alias = _flat([t[1] for t in tables], np.int64)

        strength = np.bincount(
            self._ids, weights=_flat(affinity.probs, np.float64), minlength=self.n
        )
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            noise = strength**self.noise_power
            self.noise_probs = noise / noise.sum()
        if not np.isfinite(self.noise_probs).all():
            raise InvalidConfigError(
                f"noise_power={self.noise_power:g} overflows the noise distribution"
            )
        self._noise_accept, self._noise_alias = _build_alias(self.noise_probs)

    def stream(self, stream_id: int | str = 0) -> np.random.Generator:
        """Independent generator derived from (table seed, stream id)."""
        return rng_stream(self.seed, "sampler", stream_id)

    def draw_row(self, i: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` context nodes from the distribution of row i."""
        lo, hi = self._indptr[i], self._indptr[i + 1]
        return self._ids[_alias_pick(self._accept, self._alias, lo, hi - lo, rng.random(size))]

    def draw_rows(self, nodes: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` context nodes from each listed row, one row per node.

        Bit for bit the rows that consecutive ``draw_row`` calls return.
        """
        lo = self._indptr[nodes][:, None]
        sizes = self._indptr[nodes + 1][:, None] - lo
        u = rng.random(nodes.size * size).reshape(nodes.size, size)
        return self._ids[_alias_pick(self._accept, self._alias, lo, sizes, u)]

    def draw_noise(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` nodes from the in-strength^power noise distribution."""
        return _alias_pick(self._noise_accept, self._noise_alias, 0, self.n, rng.random(size))


def build_samplers(
    affinity: AffinityMatrix, noise_power: float = 0.75, seed: int = 0
) -> SamplerTable:
    return SamplerTable(affinity, noise_power=noise_power, seed=seed)


# ---------------------------------------------------------------------------
# Affinity persistence (mirrors the graph formats, with probabilities)
# ---------------------------------------------------------------------------


def save_affinity(aff: AffinityMatrix, path: str | Path, fmt: str = "csv") -> None:
    """CSV carries edges only; the binary format also stores the bandwidths."""
    sigma = aff.sigma_sq if aff.sigma_sq is not None else np.full(aff.n, np.nan)
    _write_edges(path, fmt, aff.n, aff.neighbor_ids, aff.probs, AFFINITY_MAGIC, sigma)


def load_affinity(path: str | Path, fmt: str = "csv") -> AffinityMatrix:
    n, ids, probs, sigma = _read_edges(path, fmt, AFFINITY_MAGIC, "prob", with_node_values=True)
    if sigma is not None and np.isnan(sigma).all():
        sigma = None
    return _validated(AffinityMatrix(n=n, neighbor_ids=ids, probs=probs, sigma_sq=sigma), path)
