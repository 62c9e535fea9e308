"""Exact brute-force k-nearest-neighbor search, and the classifier's votes.

Every nearest-neighbor selection of the package is made here: the (n, k)
neighbor lists of a search over all samples, and each test row's votes
among the train rows, which an index serves from its lists where it can
and which are otherwise compared with the train rows. Queries are answered
from full pairwise comparisons: one matrix product per call or per block
of query rows, which the kernel turns in place, one cache-sized slice of
rows at a time, into ranking keys (|a|^2 + |b|^2 - 2 a.b, or 1 - cos) and
nothing more. A distance is its key finished elementwise by the metric's
finish, ``finisher(metric)``: clamped at 0 and, for euclidean, rooted. The
finish never ranks a larger key below a smaller one, so every selection
ranks on the keys and takes the finish, which it applies only to what it
selects, to the bits a fully finished matrix holds there; a returned
distance matrix takes it whole. A nonzero row needs a normal squared norm
of at most max / 4: a subnormal one has lost bits, and a larger one could
overflow a key. Any other nonzero row is rejected (NormRangeError). A
top-k block holds about 4 MiB of keys, and never fewer than 128 rows, so
the search's working set stays bounded as n grows. A key's last bits can
depend on which matrix product produced it: where the gallery width is not
a multiple of the BLAS kernel's (8 columns), another partition of the
query rows can round the last columns differently. The row blocks are
therefore a function of n alone, and the slicing never changes a bit. The
top k are selected, not sorted, but ties are broken by ascending sample
index exactly as a stable sort of the distances would, and a sample is
never its own neighbor.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from .dataset import FeatureMatrix
from .errors import InvalidMetricError, KOutOfRangeError, NormRangeError, ZeroVectorError

METRICS = ("euclidean", "cosine")

_BLOCK_BYTES = 1 << 22  # bytes of keys per matrix product in topk_arrays
# rows per product at least: fewer would repack the whole gallery for too few
# rows (at n = 50k, D = 100, on two OpenBLAS threads, a 32-row gemm costs a
# third more per row than 64 to 1 024 rows)
_MIN_BLOCK_ROWS = 128
_SLICE_BYTES = 1 << 20  # bytes of keys made per slice, so each stays in cache
# squared norms up to this keep |a|^2 + |b|^2, and so every key, finite
_MAX_SQ_NORM = np.finfo(np.float64).max / 4
# a nonzero row's squared norm below this is subnormal and has lost bits
_MIN_SQ_NORM = np.finfo(np.float64).tiny


class KnnIndex:
    """Index over one feature matrix under ``metric``, which it records; it
    keeps the neighbor ids of its widest top-k search (see :meth:`topk`)."""

    def __init__(self, matrix: np.ndarray, metric: str):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        self._rows, self._sq_norms = _prepare(matrix, metric)
        self.metric = metric
        self.n = self._rows.shape[0]
        self._ids = None  # read-only neighbor ids of the widest search so far

    def __len__(self) -> int:
        return self.n

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

    def _topk_block(self, block: slice, k: int) -> tuple[np.ndarray, np.ndarray]:
        finish, sq = finisher(self.metric), self._sq_norms
        # a copy: the matrix itself times its transpose would take BLAS syrk,
        # which rounds unlike the gemm of a part of the rows
        dots = self._rows[block].copy() @ self._rows.T
        ids = np.empty((len(dots), k), dtype=np.int64)
        top = np.empty((len(dots), k), dtype=np.float64)
        # each slice's top k is selected while its keys are still in cache,
        # and only the k selected are finished into distances
        for part, keys in _keys(dots, None if sq is None else sq[block], sq):
            np.fill_diagonal(keys[:, block.start + part.start:], np.inf)  # exclude self
            ids[part] = stable_topk(keys, k, finish)
            finish(np.take_along_axis(keys, ids[part], axis=1), out=top[part])
        return ids, top


def stable_topk(keys: np.ndarray, k: int, finish) -> np.ndarray:
    """Column ids of the k smallest distances of each row, ordered by (distance, id).

    The distances are ``finish(keys)``, an elementwise and non-decreasing map
    (see :func:`finisher`).
    Returns exactly ``np.argsort(finish(keys), axis=1, kind="stable")[:, :k]``,
    so equal distances resolve to the lower column id, but ranks on the keys
    in linear time per row and finishes only the k + 1 candidates it keeps.
    The k are sorted by distance alone, and again by (distance, id) only in
    rows where two of them share a distance.
    Only rows where the finish may tie the k-th distance with one outside
    the candidates (or that hold a NaN) are finished whole and fully sorted.
    At k = 1 under the euclidean finish, each row's minimum is masked in
    ``keys`` for a moment and then restored.
    """
    m = keys.shape[1]
    if k >= m:
        return np.argsort(finish(keys), axis=1, kind="stable")[:, :k]
    if k == 1:
        # argmin returns the first smallest key, as the stable sort does; it
        # is the first smallest distance unless the finish gives a larger key
        # the same distance, or the row holds a NaN (argmin picks that, the
        # sort puts it last)
        first = np.argmin(keys, axis=1)
        rows = np.arange(len(keys))
        low = keys[rows, first]
        if finish is _clamp:
            # the clamp never equates two keys above 0
            unsure = ~(low > 0.0)
        else:
            # no other key may finish to the minimum's distance (an argmin
            # and a gather take less time than np.min's row reduction)
            keys[rows, first] = np.inf
            second = keys[rows, np.argmin(keys, axis=1)]
            keys[rows, first] = low
            unsure = ~(finish(second) > finish(low))
        top = first[:, None]
    else:
        part = np.argpartition(keys, k, axis=1)[:, : k + 1]
        vals = np.take_along_axis(keys, part, axis=1)
        vals = finish(vals, out=vals)
        cand, cand_vals = part[:, :k], vals[:, :k]
        # where the (k+1)-th smallest distance is not above the k-th (a tie,
        # also of two keys the finish equates, or a NaN), the partition may
        # have kept a higher id of that distance over a lower one
        unsure = ~(vals[:, k] > cand_vals.max(axis=1))
        order = np.argsort(cand_vals, axis=1)
        sorted_vals = np.take_along_axis(cand_vals, order, axis=1)
        top = np.take_along_axis(cand, order, axis=1)
        # one sort by distance is the (distance, id) order unless two
        # candidates share a distance (-0.0 and 0.0 included): only those
        # rows are sorted again with their ids as the tie-break
        tied = np.flatnonzero((sorted_vals[:, 1:] == sorted_vals[:, :-1]).any(axis=1) & ~unsure)
        if tied.size:
            cand, cand_vals = cand[tied], cand_vals[tied]
            top[tied] = np.take_along_axis(cand, np.lexsort((cand, cand_vals), axis=1), axis=1)
    unsure = np.flatnonzero(unsure)
    if unsure.size:
        top[unsure] = np.argsort(finish(keys[unsure]), axis=1, kind="stable")[:, :k]
    return top


def finisher(metric: str):
    """The finish of ``metric``: ``finish(keys, out=None)`` turns its ranking
    keys into distances elementwise, so any subset of the keys finishes to
    the bits the whole finished matrix holds there."""
    if metric not in METRICS:
        raise InvalidMetricError(f"unknown metric {metric!r}, expected one of {METRICS}")
    return _clamp_root if metric == "euclidean" else _clamp


def _clamp(keys: np.ndarray, out=None) -> np.ndarray:
    """Cosine distances from 1 - cos, which rounding can take below 0."""
    return np.maximum(keys, 0.0, out=out)


def _clamp_root(keys: np.ndarray, out=None) -> np.ndarray:
    """Euclidean distances from squared ones, which rounding can take below 0."""
    out = np.maximum(keys, 0.0, out=out)
    return np.sqrt(out, out=out)


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
        ids[block], dists[block] = index._topk_block(block, k)
    return ids, dists


def vote_ids(data, member, test_idx, metric: str, votes: int) -> np.ndarray:
    """The sample ids of each test row's ``votes`` nearest train rows, nearest
    first, in (distance, id) order; ``member`` marks the train rows.

    ``data`` is a matrix, or a euclidean KnnIndex when ``metric`` is
    euclidean: its rows are then the features. Once such an index has
    searched, it serves each test row's votes: the first ``votes`` train
    members of the row's neighbor list. Rows whose list holds fewer are
    compared with the train rows, as every row of a matrix is.
    """
    listed = None
    if isinstance(data, KnnIndex):
        if data.metric != metric:
            raise InvalidMetricError(f"the index was not built under the {metric!r} metric")
        if metric != "euclidean":
            raise InvalidMetricError(
                "a cosine index holds unit-length rows, not the features: pass the features"
            )
        data, listed = data._rows, data._ids
    train_idx = np.flatnonzero(member)
    nearest = np.empty((test_idx.size, votes), dtype=np.int64)
    rest = np.arange(test_idx.size)  # the test rows compared with the train rows
    if listed is not None:
        # each list is in (distance, id) order over every other sample, so its
        # first train members are the train rows' own (distance, id) order
        listed = listed[test_idx]
        hits = member[listed]
        seen = np.cumsum(hits, axis=1)
        served = seen[:, -1] >= votes
        # a boolean mask reads in row-major order: each row's votes in list order
        nearest[served] = listed[hits & (seen <= votes) & served[:, None]].reshape(-1, votes)
        rest = np.flatnonzero(~served)
    # the votes are selected one block of test rows at a time, as topk_arrays
    # selects its neighbours, so no (test, train) key matrix is held whole;
    # only the selected keys are finished into distances
    finish = finisher(metric)
    gallery = data[train_idx]
    for block in _query_blocks(rest.size, train_idx.size):
        rows = rest[block]
        keys = pairwise_distances(data[test_idx[rows]], gallery, metric, keys=True)
        nearest[rows] = train_idx[stable_topk(keys, votes, finish)]
    return nearest


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
    """The rows ``_keys`` takes: the rows and their squared norms for
    euclidean, unit-length rows and None for cosine.

    Raises NormRangeError naming the first row whose squared norm is above
    _MAX_SQ_NORM (or NaN), or is below _MIN_SQ_NORM in a nonzero row, where
    the squares underflowed: its keys would be NaN or wrong, and its ids too.
    """
    finisher(metric)  # rejects an unknown metric
    if metric == "euclidean":
        sq = np.einsum("ij,ij->i", matrix, matrix)
    else:
        with np.errstate(over="ignore"):  # an overflow is reported below
            sq = np.add.reduce(matrix * matrix, axis=1)  # as np.linalg.norm squares
    small = sq < _MIN_SQ_NORM
    bad = ~(sq <= _MAX_SQ_NORM)
    bad[small] = matrix[small].any(axis=1)  # only a zero row may be that small
    if bad.any():
        row = int(np.argmax(bad))
        raise NormRangeError(
            f"{what} at row {row} has squared norm {float(sq[row]):g}: distances need it "
            f"at least {_MIN_SQ_NORM:g} and at most {_MAX_SQ_NORM:g}; rescale the features"
        )
    if metric == "euclidean":
        return matrix, sq
    if small.any():  # zero rows alone
        raise ZeroVectorError(f"cosine metric undefined for zero {what} at row {np.argmax(small)}")
    return matrix / np.sqrt(sq)[:, None], None


def _keys(dots: np.ndarray, q_sq=None, g_sq=None):
    """Turn the (queries, gallery) dot products into ranking keys in place,
    one slice of rows at a time, and yield each slice with its rows.

    Euclidean from the rows' squared norms q_sq and g_sq, else cosine from
    unit-length rows. The operations and their order are those of the plain
    expressions |a|^2 + |b|^2 - 2 a.b and 1 - cos, so the keys are bit for
    bit the same whatever the slice height; the caller finishes them.
    """
    step = max(1, _SLICE_BYTES // (8 * max(1, dots.shape[1])))
    if q_sq is not None:
        sq = np.empty((min(step, dots.shape[0]), dots.shape[1]))
    for start in range(0, dots.shape[0], step):
        part = slice(start, start + step)
        keys = dots[part]
        if q_sq is not None:
            keys *= 2.0
            # |b|^2 + |a|^2 as a broadcast copy and one in-place add, a third
            # faster than np.add broadcasting both; IEEE addition commutes,
            # so the bits are those of |a|^2 + |b|^2
            rows_sq = sq[: len(keys)]
            np.copyto(rows_sq, g_sq)
            rows_sq += q_sq[part, None]
            np.subtract(rows_sq, keys, out=keys)
        else:
            np.subtract(1.0, keys, out=keys)
        yield part, keys


def pairwise_distances(
    queries: np.ndarray, gallery: np.ndarray, metric: str = "euclidean", *,
    keys: bool = False,
) -> np.ndarray:
    """Dense (len(queries), len(gallery)) distance matrix; with ``keys``, the
    ranking keys that ``finisher(metric)`` turns into those distances.

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
    for _ in _keys(out, q_sq, g_sq):
        pass
    if not keys:
        finisher(metric)(out, out=out)
    if same:
        np.fill_diagonal(out, 0.0)
    return out
