"""Graph fusion, affinity normalization, and sampling tables.

Per-modality graphs are merged by edge union (overlapping edges combined
by sum or max), then each fused row is turned into a probability
distribution with a Gaussian kernel whose bandwidth is the variance of
that row's kernel inputs. Alias tables make row draws and noise draws for
negative sampling O(1); the row tables are built for all rows in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ejgraph import RowView, SparseGraph, _Csr, _first_bad_row, _read_edges, _validated
from .ejgraph import _write_edges
from .errors import EmptyRowError, InvalidConfigError, NodeCountMismatchError

COMBINE_RULES = ("sum", "max")
KERNEL_INPUTS = ("dissimilarity", "literal")
NOISE_POWER = 0.75  # noise distribution exponent: in-strength ** NOISE_POWER

SIGMA_FLOOR = 1e-8

AFFINITY_MAGIC = b"EJGA"

_FUSE_CHUNK = 1 << 15  # input edges per chunk of fuse_graphs


def fuse_graphs(graphs: list[SparseGraph], combine: str = "sum") -> SparseGraph:
    """Union the edge sets of aligned graphs.

    An edge present in one input keeps its weight; an edge present in
    several has its weights combined by ``combine``. Fused rows list
    neighbor ids in ascending order, so the result is invariant to the
    order of the inputs.

    Rows are fused one chunk of contiguous rows at a time, each holding at
    most ``_FUSE_CHUNK`` input edges of all graphs together (a longer row
    is a chunk of its own), so the work arrays stay chunk-sized. A first
    pass counts each row's distinct neighbor ids, so the output arrays are
    allocated once, at their final size. Rows are independent, so the
    result is the same bits whatever the chunks.
    """
    if combine not in COMBINE_RULES:
        raise InvalidConfigError(f"unknown combine rule {combine!r}")
    if len(graphs) < 2:
        raise InvalidConfigError("need at least two graphs to fuse")
    n = graphs[0].n
    for g in graphs[1:]:
        if g.n != n:
            raise NodeCountMismatchError(f"graph {g.modality_name!r} has {g.n} nodes, expected {n}")

    edges = sum(g._row_counts() for g in graphs)
    chunks = list(_row_chunks(np.concatenate(([0], np.cumsum(edges))), _FUSE_CHUNK))
    sizes = np.zeros(n, dtype=np.int64)
    for first, last in chunks:
        key = np.sort(_chunk_keys(graphs, first, last, n))
        distinct = key[np.flatnonzero(np.diff(key, prepend=-1))]
        sizes[first:last] = np.bincount(distinct // n, minlength=last - first)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1], dtype=np.float64)
    for first, last in chunks:
        at = slice(indptr[first], indptr[last])
        _fuse_chunk(graphs, first, last, n, combine, indices[at], data[at])
    name = "+".join(g.modality_name for g in graphs if g.modality_name)
    return SparseGraph(indptr, indices, data, name)


def _row_chunks(indptr: np.ndarray, budget: int):
    """(first, last) row bounds of consecutive chunks of contiguous CSR rows,
    each holding at most ``budget`` entries in all; a longer row is a chunk
    of its own."""
    first = 0
    while first < indptr.size - 1:
        last = max(first + 1, int(np.searchsorted(indptr, indptr[first] + budget, "right")) - 1)
        yield first, last
        first = last


def _chunk_keys(graphs: list[SparseGraph], first: int, last: int, n: int) -> np.ndarray:
    """One key, (row - first) * n + id, per edge of rows first..last - 1, laid
    out in graph order."""
    keys = []
    for g in graphs:
        rows = np.repeat(np.arange(last - first), np.diff(g.indptr[first : last + 1]))
        keys.append(rows * n + g.indices[g.indptr[first] : g.indptr[last]])
    return np.concatenate(keys, dtype=np.int64)


def _fuse_chunk(graphs, first, last, n, combine, ids, weights) -> None:
    """Fuse rows first..last - 1 into ``ids`` and ``weights``, the output's
    slices of those rows."""
    # the stable sort orders the edges by (row, id) and keeps equal edges in
    # graph order
    key = _chunk_keys(graphs, first, last, n)
    order = np.argsort(key, kind="stable")
    key = key[order]
    ws = np.concatenate(
        [g.data[g.indptr[first] : g.indptr[last]] for g in graphs], dtype=np.float64
    )[order]
    del order  # permuted copies are made one at a time, which bounds the peak
    heads = np.flatnonzero(np.diff(key, prepend=-1))
    np.remainder(key[heads], n, out=ids)
    sizes = np.diff(heads, append=ws.size)
    # fold each edge's weights in graph order, as a sequential scan would
    op = np.add if combine == "sum" else np.maximum
    op(0.0 if combine == "sum" else -np.inf, ws[heads], out=weights)
    for r in range(1, sizes.max(initial=0)):
        live = sizes > r
        weights[live] = op(weights[live], ws[heads[live] + r])


@dataclass
class AffinityMatrix(_Csr):
    """Row-stochastic affinity over the fused KNN support.

    ``sigma_sq`` holds the per-row Gaussian bandwidth: the variance of the
    row's kernel inputs, floored at SIGMA_FLOOR.
    """

    sigma_sq: np.ndarray | None = None
    _passed = ()  # the arrays load_affinity validated and made read-only

    def _check(self) -> None:
        """validate(), unless it passed on these very arrays, read-only since."""
        arrays = (self.indptr, self.indices, self.data, self.sigma_sq)
        if len(self._passed) != 4 or any(
            a is not b or (a is not None and a.flags.writeable)
            for a, b in zip(arrays, self._passed)
        ):
            self.validate()

    @property
    def probs(self) -> RowView:
        return RowView(self.indptr, self.data)

    def validate(self) -> None:
        src, ids, p = self._entry_rows(), self.indices, self.data
        sums = np.bincount(src, weights=p, minlength=self.n)
        bad = _first_bad_row(
            np.flatnonzero(np.diff(self.indptr) == 0),
            src[(ids < 0) | (ids >= self.n)],
            src[~((p >= 0.0) & (p <= 1.0))],
            np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-9)),
        )
        if bad is not None:
            i, check = bad
            if check == 0:
                raise EmptyRowError(f"row {i} is empty")
            problem = ("neighbor id out of range", "probability outside [0, 1]",
                       f"probabilities sum to {self.probs[i].sum()}")
            raise InvalidConfigError(f"row {i}: {problem[check - 1]}")
        if self.sigma_sq is not None and not np.all(self.sigma_sq >= SIGMA_FLOOR):
            raise InvalidConfigError("bandwidth below floor or not a number")


def _row_blocks(indptr: np.ndarray):
    """(size, rows, at) for each row length: the rows of that length and the
    (rows, size) positions of their entries. Per-row reductions of such a
    dense block run over the contiguous last axis, so they give the same
    sums as one row at a time."""
    counts = np.diff(indptr)
    for size in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == size)
        yield size, rows, indptr[rows, None] + np.arange(size)


def normalize_affinity(graph: SparseGraph, kernel_input: str = "dissimilarity") -> AffinityMatrix:
    """Turn fused edge weights into per-row probabilities via a Gaussian kernel.

    In ``dissimilarity`` mode (default) each row is first recentered to
    d_ij = max(row) - w_ij, so a larger fused weight yields a larger
    probability. ``literal`` mode feeds the raw weights to the kernel,
    which reverses that ordering. Either way the kernel is
    exp(-x / (2 * var)) with var the variance of the row's kernel inputs,
    floored at SIGMA_FLOOR, and the row is normalized to sum to 1. The
    affinity shares the graph's ``indptr`` and ``indices``.
    """
    if kernel_input not in KERNEL_INPUTS:
        raise InvalidConfigError(f"unknown kernel input mode {kernel_input!r}")
    counts = np.diff(graph.indptr)
    if not counts.all():
        raise EmptyRowError(f"row {int(np.argmin(counts))} has no edges")
    w = graph.data
    probs = np.empty(w.size)
    sigma_sq = np.empty(graph.n, dtype=np.float64)
    for _, rows, at in _row_blocks(graph.indptr):
        x = w[at]
        if kernel_input == "dissimilarity":
            x = x.max(axis=1, keepdims=True) - x
        var = np.maximum(x.var(axis=1), SIGMA_FLOOR)
        sigma_sq[rows] = var
        e = np.exp(-(x - x.min(axis=1, keepdims=True)) / (2.0 * var[:, None]))
        probs[at] = e / e.sum(axis=1, keepdims=True)
    return AffinityMatrix(graph.indptr, graph.indices, probs, sigma_sq)


# ---------------------------------------------------------------------------
# Alias sampling
# ---------------------------------------------------------------------------


def _build_alias(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias construction for one distribution (need not be normalized).

    Builds the noise table, and defines the row tables of
    :func:`_build_alias_rows`.
    """
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


_ALIAS_CHUNK = 1 << 18  # entries per chunk of _build_alias_rows


def _build_alias_rows(indptr: np.ndarray, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias tables of every CSR row, laid end to end like ``data``.

    Bit for bit the tables :func:`_build_alias` builds one row at a time:
    every row takes the same pops, writes and pushes in the same order,
    but the rows of a chunk take each step together. Chunks are contiguous
    rows of at most ``_ALIAS_CHUNK`` entries in all (a longer row makes a
    chunk of its own), so the work arrays stay chunk-sized. ``alias`` holds
    positions within the row.
    """
    data = np.asarray(data, dtype=np.float64)
    accept = np.empty(data.size)
    alias = np.empty(data.size, dtype=np.int64)
    for first, last in _row_chunks(indptr, _ALIAS_CHUNK):
        at = slice(indptr[first], indptr[last])
        _alias_chunk(indptr[first : last + 1] - indptr[first], data[at], accept[at], alias[at])
    return accept, alias


def _alias_chunk(indptr, data, scaled, alias) -> None:
    """The alias tables of one chunk of rows, written into ``scaled`` (then
    holding the accept probabilities) and ``alias``."""
    lo, hi = indptr[:-1], indptr[1:]
    # Row q's small stack grows up from lo[q] and its large stack down from
    # hi[q] - 1; together they never hold more than the row's entries.
    stacks = np.empty(data.size, dtype=np.int64)
    n_small = np.empty(lo.size, dtype=np.int64)
    n_large = np.empty(lo.size, dtype=np.int64)
    for size, rows, at in _row_blocks(indptr):  # row totals as p.sum() on each slice
        p = data[at]
        total = p.sum(axis=1)
        if (total <= 0).any():  # an empty row sums to 0; a NaN total passes, as per row
            raise InvalidConfigError("cannot build sampler over an all-zero distribution")
        block = p * (size / total)[:, None]
        scaled[at] = block
        alias[at] = np.arange(size)
        small, large = block < 1.0, block >= 1.0
        n_small[rows], n_large[rows] = small.sum(axis=1), large.sum(axis=1)
        # both stacks start out holding the row's positions in ascending order
        slot = np.where(small, np.cumsum(small, axis=1) - 1, size - np.cumsum(large, axis=1))
        r, c = np.nonzero(small | large)
        stacks[lo[rows[r]] + slot[r, c]] = c
    done = np.zeros(data.size, dtype=bool)
    while True:
        live = (n_small > 0) & (n_large > 0)
        if not live.all():
            lo, hi, n_small, n_large = lo[live], hi[live], n_small[live], n_large[live]
        if not lo.size:
            scaled[~done] = 1.0  # an entry never popped as small keeps accept 1.0
            return
        n_small -= 1
        s = lo + stacks[lo + n_small]
        l_pos = stacks[hi - n_large]
        l = lo + l_pos
        done[s] = True  # scaled[s] is final: s is never pushed again
        alias[s] = l_pos
        scaled[l] -= 1.0 - scaled[s]
        to_small = scaled[l] < 1.0
        n_small += to_small
        n_large -= to_small
        stacks[np.where(to_small, lo + n_small - 1, hi - n_large)] = l_pos


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


def check_noise_power(noise_power: float) -> float:
    if not (math.isfinite(noise_power) and noise_power >= 0):
        raise InvalidConfigError(f"noise_power must be finite and >= 0, got {noise_power!r}")
    return float(noise_power)


class SamplerTable:
    """Per-row context samplers plus the global noise distribution.

    Immutable after construction; every draw takes its generator from the
    caller.
    """

    def __init__(self, affinity: AffinityMatrix, noise_power: float = NOISE_POWER):
        affinity._check()  # row-stochastic, or an error that names the row
        self.noise_power = check_noise_power(noise_power)
        self.n = affinity.n
        # own copies keep the table immutable; the per-row alias tables are
        # laid end to end beside them, row i at indptr[i]:indptr[i + 1]
        self._indptr = np.array(affinity.indptr, dtype=np.int64)
        self._ids = np.array(affinity.indices, dtype=np.int64)
        self._accept, self._alias = _build_alias_rows(self._indptr, affinity.data)

        strength = np.bincount(self._ids, weights=affinity.data, minlength=self.n)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            noise = strength**self.noise_power
            self.noise_probs = noise / noise.sum()
        if not np.isfinite(self.noise_probs).all():
            raise InvalidConfigError(
                f"noise_power={self.noise_power:g} overflows the noise distribution"
            )
        self._noise_accept, self._noise_alias = _build_alias(self.noise_probs)

    def draw_row(self, i: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` context nodes from the distribution of row i."""
        return self.draw_rows(np.array([i]), size, rng)[0]

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


def build_samplers(affinity: AffinityMatrix, noise_power: float = NOISE_POWER) -> SamplerTable:
    return SamplerTable(affinity, noise_power=noise_power)


# ---------------------------------------------------------------------------
# Affinity persistence (mirrors the graph formats, with probabilities)
# ---------------------------------------------------------------------------


def save_affinity(aff: AffinityMatrix, path: str | Path, fmt: str = "csv") -> None:
    """CSV carries edges only; the binary format also stores the bandwidths."""
    sigma = aff.sigma_sq if aff.sigma_sq is not None else np.full(aff.n, np.nan)
    _write_edges(path, fmt, aff, AFFINITY_MAGIC, sigma)


def load_affinity(path: str | Path, fmt: str = "csv") -> AffinityMatrix:
    indptr, ids, probs, sigma = _read_edges(path, fmt, AFFINITY_MAGIC, "prob", affinity=True)
    if sigma is not None and np.isnan(sigma).all():
        sigma = None
    aff = _validated(AffinityMatrix(indptr, ids, probs, sigma), path)
    aff._passed = (indptr, ids, probs, sigma)
    for array in aff._passed:  # read-only, so the affinity stays valid
        if array is not None:
            array.flags.writeable = False
    return aff
