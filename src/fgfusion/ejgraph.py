"""Extended Jaccard graph construction.

For each sample q and each first-level neighbor c in N_k(q), an edge
q -> c is weighted by how strongly c's own neighborhood corroborates it:
every second-level neighbor i in N_k1(c) whose neighborhood N_k2(i)
overlaps N_k1(c) confirms c, and the confirmations are summed. Two weight
modes are provided:

``literal``
    the raw confirmation count, an integer in [0, k1].
``jaccard-scaled`` (default)
    the Jaccard similarity of N_k1(c) and N_k(q) times the confirmation
    count normalized by k1, a value in [0, 1].

Zero-weight edges are kept so the downstream affinity normalization sees
the full KNN support of every row.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import _check_format, _open_binary, _open_text, _read_csv_table, _read_into
from .dataset import _records, _replacing, _write_binary
from .errors import InvalidConfigError, ParseError
from .knn import KnnIndex, _check_k

WEIGHT_MODES = ("literal", "jaccard-scaled")

GRAPH_MAGIC = b"EJGG"

# members of N_k2(i) that every confirmation probe reads before the rest; 4
# was the fastest head on the benchmark's graphs (k = 20 and 50), where
# 95-99% of the pairs confirm within it
_PROBE_HEAD = 4


class RowView(Sequence):
    """Rows of a CSR array: item q is the numpy view ``values[indptr[q]:indptr[q + 1]]``.

    Assigning to an item writes that row's values in place.
    """

    def __init__(self, indptr: np.ndarray, values: np.ndarray):
        self._indptr = indptr
        self._values = values

    def __len__(self) -> int:
        return self._indptr.size - 1

    def __getitem__(self, q) -> np.ndarray:
        q = range(len(self))[operator.index(q)]
        return self._values[self._indptr[q] : self._indptr[q + 1]]

    def __setitem__(self, q, row) -> None:
        view, row = self[q], np.asarray(row)
        if row.shape != view.shape:
            raise ValueError(f"row {q} holds {view.size} values, got shape {row.shape}")
        view[...] = row


@dataclass
class _Csr:
    """A sparse matrix as CSR arrays: row q holds the neighbor ids
    ``indices[indptr[q]:indptr[q + 1]]`` and their values in ``data``."""

    indptr: np.ndarray  # int64, n + 1 nondecreasing offsets from 0
    indices: np.ndarray  # int64
    data: np.ndarray  # float64

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def neighbor_ids(self) -> RowView:
        return RowView(self.indptr, self.indices)

    def _row_counts(self) -> np.ndarray:
        """The entry count of every row, once the arrays are checked to form CSR."""
        counts = np.diff(self.indptr)
        if not (self.indptr[0] == 0 and counts.min(initial=0) >= 0
                and self.indptr[-1] == self.indices.size == self.data.size):
            raise InvalidConfigError("indptr, indices and data do not form a CSR matrix")
        return counts

    def _entry_rows(self) -> np.ndarray:
        """The row of every entry."""
        return np.repeat(np.arange(self.n), self._row_counts())


@dataclass
class SparseGraph(_Csr):
    """Weighted directed adjacency: per row distinct neighbor ids, no
    self-loops, and finite weights >= 0."""

    modality_name: str = ""

    @property
    def weights(self) -> RowView:
        return RowView(self.indptr, self.data)

    def validate(self) -> None:
        src, ids, w = self._entry_rows(), self.indices, self.data
        in_range = (ids >= 0) & (ids < self.n)
        keys = np.sort((src * self.n + ids)[in_range])
        bad = _first_bad_row(
            src[~in_range],
            src[ids == src],
            keys[1:][keys[1:] == keys[:-1]] // self.n,
            src[w < 0],
            src[~np.isfinite(w)],
        )
        if bad is not None:
            q, check = bad
            problem = ("neighbor id out of range", "self-loop", "duplicate neighbor ids",
                       "negative weight", "non-finite weight")
            raise InvalidConfigError(f"row {q}: {problem[check]}")


def _membership(sets: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, base): row r's set of ids in [0, n) scattered into entries
    base[r] + id of one flat boolean table, so each probe is one lookup."""
    base = np.arange(len(sets))[:, None] * n
    table = np.zeros(len(sets) * n, dtype=bool)
    table[base + sets] = True
    return table, base


def _probe(table: np.ndarray, base: np.ndarray, sets: np.ndarray, lists_t: np.ndarray):
    """Whether lists_t[b, sets[r, a]] is a member of set r, for every b, r, a.

    ``lists_t`` holds neighbor lists as columns, so the answers come out
    column by column and reduce over their first axis as whole slabs.
    """
    probes = lists_t[:, sets]
    probes += base  # in place: the probes are the block's largest array
    return table.take(probes)


def _overlapping(sets: np.ndarray, head_t: np.ndarray, tail: np.ndarray, n: int) -> np.ndarray:
    """Whether the neighbor list of sets[r, a] shares a member with sets[r],
    for every r, a; each list is ``head_t[:, id]`` then ``tail[id]``.

    One shared member decides, so every pair probes its list's head and only
    the pairs without a hit there probe the tail.
    """
    table, base = _membership(sets, n)
    hit = _probe(table, base, sets, head_t).any(axis=0)
    miss = np.flatnonzero(~hit)
    if miss.size and tail.shape[1]:
        probes = tail[sets.take(miss)]
        probes += (miss // sets.shape[1] * n)[:, None]
        np.put(hit, miss, table.take(probes).any(axis=1))
    return hit


def build_ejg(
    index: KnnIndex,
    k: int,
    k1: int | None = None,
    k2: int | None = None,
    mode: str = "jaccard-scaled",
    modality_name: str = "",
) -> SparseGraph:
    """Build the extended Jaccard graph over all samples of an index.

    k1 and k2 default to k. Row q holds exactly k edges, one per member
    of N_k(q), in nearest-first order. The neighbor lists come from
    ``index.topk``, so graphs built from one index share its widest search.
    """
    if mode not in WEIGHT_MODES:
        raise InvalidConfigError(f"unknown weight mode {mode!r}")
    k1 = k if k1 is None else k1
    k2 = k if k2 is None else k2
    n = index.n
    for name, value in (("k", k), ("k1", k1), ("k2", k2)):
        _check_k(n, value, name)

    kmax = max(k, k1, k2)
    ids_max = index.topk(kmax)
    nbrs_k = ids_max[:, :k].copy()  # the graph's own ids: its rows are writable
    nbrs_k1 = ids_max[:, :k1]

    # Blocks of kmax rows keep every membership table at most kmax x n
    # booleans, smaller than the (n, kmax) neighbor ids themselves; the
    # probes of a block are at most kmax x k1 x kmax ids.
    blocks = [slice(start, start + kmax) for start in range(0, n, kmax)]

    # confirmations[c] = |{i in N_k1(c) : N_k1(c) ∩ N_k2(i) != ∅}|; the
    # membership condition of the indicator holds for every summand, so
    # only the overlap test remains, and one shared member passes it.
    head = min(k2, _PROBE_HEAD)
    head_t = ids_max[:, :head].T.copy()
    confirmations = np.empty(n, dtype=np.int64)
    for rows in blocks:
        hit = _overlapping(nbrs_k1[rows], head_t, ids_max[:, head:k2], n)
        confirmations[rows] = hit.sum(axis=1)

    if mode == "literal":
        weights = confirmations[nbrs_k].astype(np.float64)
    else:
        weights = np.empty((n, k), dtype=np.float64)
        nbrs_k1_t = nbrs_k1.T.copy()
        for rows in blocks:
            cs = nbrs_k[rows]
            # |N_k1(c) ∩ N_k(q)| for every edge q -> c of the block
            ic = _probe(*_membership(cs, n), cs, nbrs_k1_t).sum(axis=0)
            jac = ic / (k1 + k - ic)
            weights[rows] = jac * confirmations[cs] / k1
    indptr = np.arange(n + 1, dtype=np.int64) * k
    return SparseGraph(indptr, nbrs_k.reshape(-1), weights.reshape(-1), modality_name)


# ---------------------------------------------------------------------------
# Row checks and the edge-list codec shared with affinity files
# ---------------------------------------------------------------------------


def _first_bad_row(*failing_rows) -> tuple[int, int] | None:
    """(row, check) of the first failure a row-by-row scan would report.

    Each argument lists the rows failing one check, possibly repeated;
    within a row the checks are tried in argument order.
    """
    found = [(int(rows.min()), check) for check, rows in enumerate(failing_rows) if rows.size]
    return min(found) if found else None


_EDGE_RECORD = np.dtype([("src", "<u8"), ("dst", "<u8"), ("value", "<f8")])
_CSV_EDGE = np.dtype([("src", "<i8"), ("dst", "<i8"), ("value", "<f8")])
_EDGE_CHUNK = 1 << 13  # edges formatted, packed or unpacked at a time


def _write_edges(path, fmt, matrix: _Csr, magic, node_values=None) -> None:
    """Write a CSR matrix's entries as `src,dst,value` lines, or as the binary
    edge table: the header (n, edge count), one record per edge, then n f64
    ``node_values`` if given.

    CSV ids are looked up in one table of the n ids' texts, made once per
    file; a chunk whose dst ids leave [0, n) (only unvalidated arrays hold
    such ids) formats each distinct one of them instead. Each distinct value
    of a chunk is formatted once, keyed by its bits so that -0.0 and 0.0
    stay apart. A chunk's texts fill one reused object array, (src, dst,
    value) at strides of 3, and are written as one joined string.
    """
    _check_format(fmt)
    matrix._row_counts()  # the arrays must form CSR
    n_edges, chunks = matrix.indices.size, _edge_chunks(matrix)
    if fmt == "binary":
        _write_binary(path, magic, matrix.n, n_edges, _binary_parts(chunks, n_edges, node_values))
        return
    ids = np.array([f"{i}," for i in range(matrix.n)], dtype=object)
    text = np.empty(3 * min(n_edges, _EDGE_CHUNK), dtype=object)
    with _replacing(path) as fh:
        for src, dst, val in chunks:
            lines = text[: 3 * src.size]
            lines[0::3] = ids[src]
            if dst.min() >= 0 and dst.max() < matrix.n:
                lines[1::3] = ids[dst]
            else:
                lines[1::3] = _distinct_texts(dst, np.int64, ",")
            lines[2::3] = _distinct_texts(val.view(np.int64), np.float64, "\n")
            fh.write("".join(lines.tolist()))


def _edge_chunks(matrix: _Csr):
    """(src, dst, value) arrays of the entries of CSR arrays, _EDGE_CHUNK
    entries at a time; each chunk's src ids come from the rows holding its
    entries alone."""
    indptr, val = matrix.indptr, np.asarray(matrix.data, dtype=np.float64)
    for start in range(0, matrix.indices.size, _EDGE_CHUNK):
        stop = min(start + _EDGE_CHUNK, matrix.indices.size)
        # rows lo to hi - 1 hold the entries start to stop - 1
        lo = np.searchsorted(indptr, start, side="right") - 1
        hi = np.searchsorted(indptr, stop, side="left")
        counts = np.diff(np.clip(indptr[lo : hi + 1], start, stop))
        yield np.repeat(np.arange(lo, hi), counts), matrix.indices[start:stop], val[start:stop]


def _distinct_texts(keys: np.ndarray, dtype, end: str) -> np.ndarray:
    """``repr(x) + end`` of each key read as ``dtype``, as an object array;
    each distinct key is formatted once."""
    distinct, at = np.unique(keys, return_inverse=True)
    return np.array([f"{x!r}{end}" for x in distinct.view(dtype).tolist()], dtype=object)[at]


def _binary_parts(chunks, n_edges: int, node_values):
    """The binary edge table's payload, packed one chunk of records at a time
    into a single reused buffer."""
    records = np.empty(min(n_edges, _EDGE_CHUNK), dtype=_EDGE_RECORD)
    for src, dst, val in chunks:
        chunk = records[: src.size]
        chunk["src"], chunk["dst"], chunk["value"] = src, dst, val
        yield chunk
    if node_values is not None:
        yield np.ascontiguousarray(node_values, dtype="<f8")


def _parse_edge_lines(lines, value_name: str):
    """(src, dst, value) arrays of CSV edge lines, parsed one record at a
    time: the format's definition, raising at its first bad line. Ids are
    read by ``int()`` and values by ``float()``."""
    src, dst, val = [], [], []
    for lineno, parts in _records(lines, ","):
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected src,dst,{value_name}", line=lineno)
        try:
            s, d, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: bad edge record", line=lineno) from None
        if not (0 <= s < 2**63 and 0 <= d < 2**63):
            raise ParseError(f"line {lineno}: node id negative or too large", line=lineno)
        src.append(s)
        dst.append(d)
        val.append(v)
    return np.array(src, np.int64), np.array(dst, np.int64), np.array(val, np.float64)


def _read_csv_edges(path: Path, value_name: str):
    """(src, dst, value) columns of a CSV edge file."""
    edges = _read_csv_table(path, _CSV_EDGE, ndmin=1)
    if edges is None or min(edges["src"].min(), edges["dst"].min()) < 0:
        with _open_text(path) as fh:
            return _parse_edge_lines(fh, value_name)
    return edges["src"], edges["dst"], edges["value"]


def _read_edges(path, fmt, magic, value_name, affinity=False):
    """Read a file written by :func:`_write_edges`.

    Returns CSR arrays (indptr, indices, data) and the node values or None;
    each row keeps its edges in file order. CSV infers n as the largest id
    + 1, at most the file's size in bytes. An ``affinity`` file has no empty
    row, and its binary form ends in n f64 node values.
    """
    _check_format(fmt)
    path = Path(path)
    node_values = None
    if fmt == "csv":
        src, dst, val = _read_csv_edges(path, value_name)
        n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    else:
        with _open_binary(path, magic, lambda n, e: 24 * e + 8 * n * affinity) as (n, n_edges, fh):
            if n > 2 * n_edges:  # some node would be the end of no edge
                raise ParseError(f"{path}: {n} nodes but only {n_edges} edges", line=0)
            src, dst, val = _read_binary_edges(fh, n_edges)
            for col, ids in (("src", src), ("dst", dst)):
                if n_edges and ids.view(np.uint64).max() >= n:
                    raise ParseError(f"{path}: {col} node id outside [0, {n})", line=0)
            if affinity:
                node_values = _read_into(fh, np.empty(n, dtype="<f8"))
    if not src.size:
        raise ParseError(f"{path}: no edges", line=0)
    if affinity and n > src.size:
        raise ParseError(f"{path}: {n} rows but {src.size} edges: some row is empty", line=0)
    # CSV graph rows may be empty, so the file's size bounds the n rows allocated
    if fmt == "csv" and n > path.stat().st_size:
        raise ParseError(f"{path}: {n} nodes but only {path.stat().st_size} bytes", line=0)
    if (src[1:] < src[:-1]).any():
        # a stable sort by src groups the rows and keeps each row in file order
        order = np.argsort(src, kind="stable")
        dst, val = dst[order], val[order]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    # CSV columns are strided views of the parsed records until copied
    return indptr, np.ascontiguousarray(dst), np.ascontiguousarray(val), node_values


def _read_binary_edges(fh, n_edges: int):
    """(src, dst, value) columns of the binary edge table's records, unpacked
    one chunk at a time. Ids keep their u64 bits in the int64 columns."""
    src = np.empty(n_edges, dtype=np.int64)
    dst = np.empty(n_edges, dtype=np.int64)
    val = np.empty(n_edges, dtype=np.float64)
    records = np.empty(min(n_edges, _EDGE_CHUNK), dtype=_EDGE_RECORD)
    for at in range(0, n_edges, _EDGE_CHUNK):
        part = slice(at, at + _EDGE_CHUNK)
        chunk = _read_into(fh, records[: src[part].size])
        src[part], dst[part], val[part] = chunk["src"], chunk["dst"], chunk["value"]
    return src, dst, val


# ---------------------------------------------------------------------------
# Graph persistence: CSV edge list `src,dst,weight` and a binary twin
# ---------------------------------------------------------------------------


def save_graph(graph: SparseGraph, path: str | Path, fmt: str = "csv") -> None:
    _write_edges(path, fmt, graph, GRAPH_MAGIC)


def load_graph(path: str | Path, fmt: str = "csv", modality_name: str = "") -> SparseGraph:
    """Load a graph. CSV infers n as max node id + 1 (EJG rows are never empty)."""
    indptr, ids, weights, _ = _read_edges(path, fmt, GRAPH_MAGIC, "weight")
    return _validated(SparseGraph(indptr, ids, weights, modality_name), path)


def _validated(graph, path):
    try:
        graph.validate()
    except InvalidConfigError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return graph
