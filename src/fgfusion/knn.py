"""Exact brute-force k-nearest-neighbor search.

Queries are answered from full pairwise distances: one matrix product per
call or per block of query rows, finished into distances in place, one
cache-sized slice of rows at a time. A top-k block holds about 4 MiB of
distances, and never fewer than 128 rows, so the search's working set stays
bounded as n grows. A distance's last bits can depend on which matrix
product produced it: where the gallery width is not a multiple of the BLAS
kernel's (8 columns), another partition of the query rows can round the last
columns differently. The row blocks are therefore a function of n alone,
and the slicing of the finish never changes a bit. The top k are selected,
not sorted, but ties are broken by ascending sample index exactly as a
stable sort would, and a sample is never its own neighbor.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .dataset import FeatureMatrix
from .errors import InvalidMetricError, KOutOfRangeError, ZeroVectorError

METRICS = ("euclidean", "cosine")

_BLOCK_BYTES = 1 << 22  # bytes of distances per matrix product in topk_arrays
# rows per product at least: fewer would repack the whole gallery for too few
# rows (at n = 50k, D = 100, on two OpenBLAS threads, a 32-row gemm costs a
# third more per row than 64 to 1 024 rows)
_MIN_BLOCK_ROWS = 128
_SLICE_BYTES = 1 << 20  # bytes of distances finished per slice, so each stays in cache


class KnnIndex:
    """Index over one feature matrix under a fixed metric; it keeps the
    neighbor ids of its widest top-k search (see :meth:`topk`)."""

    def __init__(self, matrix: np.ndarray, metric: str):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        self._rows, self._sq_norms = _prepare(matrix, metric)
        self.n = self._rows.shape[0]
        self._ids = None  # read-only neighbor ids of the widest search so far

    def topk(self, k: int) -> np.ndarray:
        """A read-only view of the ids of ``topk_arrays(self, k)``.

        Searches only for a k wider than every earlier one: stable_topk
        makes a smaller k's result the first k columns of a wider one, bit
        for bit, so every k up to the widest takes a prefix of one search.
        """
        _check_k(self.n, k)
        if self._ids is None or self._ids.shape[1] < k:
            self._ids, _ = topk_arrays(self, k)
            self._ids.flags.writeable = False
        return self._ids[:, :k]

    def _topk_block(self, rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        sq = self._sq_norms
        dots = self._rows[rows] @ self._rows.T
        ids = np.empty((rows.size, k), dtype=np.int64)
        top = np.empty((rows.size, k), dtype=np.float64)
        # each slice's top k is selected while its distances are still in cache
        for part, dists in _finish(dots, None if sq is None else sq[rows], sq):
            dists[np.arange(len(dists)), rows[part]] = np.inf  # exclude self
            ids[part] = stable_topk(dists, k)
            top[part] = np.take_along_axis(dists, ids[part], axis=1)
        return ids, top


def stable_topk(dists: np.ndarray, k: int) -> np.ndarray:
    """Column ids of the k smallest entries of each row, ordered by (value, id).

    Returns exactly ``np.argsort(dists, axis=1, kind="stable")[:, :k]``, so
    equal values resolve to the lower column id, but selects in linear time
    per row. Only rows whose k-th value ties an entry outside the selected
    candidates (or that hold a NaN) fall back to the full stable sort.
    """
    m = dists.shape[1]
    if k >= m:
        return np.argsort(dists, axis=1, kind="stable")[:, :k]
    if k == 1:
        first = np.argmin(dists, axis=1)[:, None]
        # argmin returns the first minimum, as the stable sort does, unless
        # the row holds a NaN: argmin picks that, the sort puts it last
        if not np.isnan(np.take_along_axis(dists, first, axis=1)).any():
            return first
    part = np.argpartition(dists, k, axis=1)[:, : k + 1]
    vals = np.take_along_axis(dists, part, axis=1)
    cand, cand_vals = part[:, :k], vals[:, :k]
    top = np.take_along_axis(cand, np.lexsort((cand, cand_vals), axis=1), axis=1)
    # where the (k+1)-th smallest is not above the k-th (a tie, or a NaN),
    # the partition may have kept a higher id of that value over a lower one
    tied = np.flatnonzero(~(vals[:, k] > cand_vals.max(axis=1)))
    if tied.size:
        top[tied] = np.argsort(dists[tied], axis=1, kind="stable")[:, :k]
    return top


def build_index(features: FeatureMatrix | np.ndarray, metric: str = "euclidean") -> KnnIndex:
    """Index over a feature matrix; a raw array must pass as a FeatureMatrix."""
    if not isinstance(features, FeatureMatrix):
        features = FeatureMatrix(features)
    return KnnIndex(features.data, metric)


def topk_arrays(index: KnnIndex, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, k) neighbor ids and distances of every sample, nearest first.

    Row q holds the k samples nearest to q, excluding q itself.
    """
    _check_k(index.n, k)
    ids = np.empty((index.n, k), dtype=np.int64)
    dists = np.empty((index.n, k), dtype=np.float64)
    for block in _query_blocks(index.n, index.n):
        ids[block], dists[block] = index._topk_block(np.arange(block.start, block.stop), k)
    return ids, dists


def _query_blocks(n_queries: int, width: int) -> list[slice]:
    """The row blocks in which n_queries queries meet a gallery of ``width``
    samples, one matrix product each: ``_block_rows(width)`` rows per block,
    a function of the sizes alone."""
    starts = list(range(0, n_queries, _block_rows(width)))
    if len(starts) > 1 and n_queries - starts[-1] == 1:
        # a one-row block would go through BLAS gemv, which rounds unlike
        # gemm; the row joins the block before it
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [n_queries])]


def _check_k(n: int, k: int, name: str = "k") -> None:
    if not (isinstance(k, Integral) and 1 <= k <= n - 1):
        raise KOutOfRangeError(f"{name}={k} is not an integer in [1, {n - 1}] for n={n}")


def _block_rows(n: int) -> int:
    """Query rows per matrix product of a search over n samples."""
    return max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * n))


def _prepare(matrix: np.ndarray, metric: str, what: str = "vector"):
    """The rows ``_distances`` takes: the rows and their squared norms for
    euclidean, unit-length rows and None for cosine."""
    if metric not in METRICS:
        raise InvalidMetricError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if metric == "euclidean":
        return matrix, np.einsum("ij,ij->i", matrix, matrix)
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVectorError(f"cosine metric undefined for zero {what} at row {zero[0]}")
    return matrix / norms[:, None], None


def _finish(dots: np.ndarray, q_sq=None, g_sq=None):
    """Turn the (queries, gallery) dot products into distances in place, one
    slice of rows at a time, and yield each finished slice with its rows.

    Euclidean from the rows' squared norms q_sq and g_sq, else cosine from
    unit-length rows. The operations and their order are those of the plain
    expressions |a|^2 + |b|^2 - 2 a.b and 1 - cos, so results are bit for bit
    the same whatever the slice height.
    """
    step = max(1, _SLICE_BYTES // (8 * max(1, dots.shape[1])))
    if q_sq is not None:
        sq = np.empty((min(step, dots.shape[0]), dots.shape[1]))
    for start in range(0, dots.shape[0], step):
        part = slice(start, start + step)
        dists = dots[part]
        if q_sq is not None:
            dists *= 2.0
            # |b|^2 + |a|^2 as a broadcast copy and one in-place add, a third
            # faster than np.add broadcasting both; IEEE addition commutes,
            # so the bits are those of |a|^2 + |b|^2
            rows_sq = sq[: len(dists)]
            np.copyto(rows_sq, g_sq)
            rows_sq += q_sq[part, None]
            np.subtract(rows_sq, dists, out=dists)
            np.maximum(dists, 0.0, out=dists)
            np.sqrt(dists, out=dists)
        else:
            np.subtract(1.0, dists, out=dists)
            np.maximum(dists, 0.0, out=dists)
        yield part, dists


def pairwise_distances(
    queries: np.ndarray, gallery: np.ndarray, metric: str = "euclidean"
) -> np.ndarray:
    """Dense (len(queries), len(gallery)) distance matrix.

    When queries and gallery are the same object the diagonal is exactly 0,
    which the quadratic-expansion trick alone does not guarantee.
    """
    same = queries is gallery
    queries = np.asarray(queries, dtype=np.float64)
    gallery = queries if same else np.asarray(gallery, dtype=np.float64)
    # the gallery is prepared apart even when same, so cosine multiplies two
    # unit arrays: a matrix times its own transpose takes another BLAS
    # routine, which may round differently
    q, q_sq = _prepare(queries, metric, "query vector")
    g, g_sq = _prepare(gallery, metric, "gallery vector")
    out = q @ g.T
    for _ in _finish(out, q_sq, g_sq):
        pass
    if same:
        np.fill_diagonal(out, 0.0)
    return out
