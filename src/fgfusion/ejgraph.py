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

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BothEmptyError,
    ContextIncompleteError,
    InvalidConfigError,
    ParseError,
)
from .knn import KnnIndex, topk_arrays

WEIGHT_MODES = ("literal", "jaccard-scaled")

GRAPH_MAGIC = b"EJGG"
GRAPH_VERSION = 1


@dataclass
class SparseGraph:
    """Weighted directed adjacency with per-row neighbor lists."""

    n: int
    neighbor_ids: list[np.ndarray]  # per row, int64, distinct, no self
    weights: list[np.ndarray]  # per row, float64, >= 0
    modality_name: str = ""

    def validate(self) -> None:
        if len(self.neighbor_ids) != self.n or len(self.weights) != self.n:
            raise InvalidConfigError("row count does not match n")
        for q, (ids, w) in enumerate(zip(self.neighbor_ids, self.weights)):
            if ids.shape != w.shape:
                raise InvalidConfigError(f"row {q}: ids and weights differ in length")
            if ids.size and (ids.min() < 0 or ids.max() >= self.n):
                raise InvalidConfigError(f"row {q}: neighbor id out of range")
            if np.any(ids == q):
                raise InvalidConfigError(f"row {q}: self-loop")
            if np.unique(ids).size != ids.size:
                raise InvalidConfigError(f"row {q}: duplicate neighbor ids")
            if np.any(w < 0):
                raise InvalidConfigError(f"row {q}: negative weight")

    @property
    def edge_count(self) -> int:
        return int(sum(ids.size for ids in self.neighbor_ids))

    def row(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        return self.neighbor_ids[q], self.weights[q]


def jaccard_sets(a, b) -> float:
    """|A ∩ B| / |A ∪ B| for finite id sets."""
    a = set(a)
    b = set(b)
    if not a and not b:
        raise BothEmptyError("Jaccard of two empty sets is undefined")
    return len(a & b) / len(a | b)


def outlier_indicator(h_qc: int, h_qc_i: int, n_k1_of_qc, n_k2_of_qc_i) -> int:
    """1 iff the second-level neighbor corroborates the first-level one.

    Both conditions must hold: the neighborhoods overlap (positive Jaccard)
    and h_qc_i actually lies in N_k1(h_qc).
    """
    if h_qc_i == h_qc:
        raise InvalidConfigError("second-level neighbor equals the first-level one")
    n_k1_of_qc = set(n_k1_of_qc)
    if h_qc_i not in n_k1_of_qc:
        return 0
    return 1 if jaccard_sets(n_k1_of_qc, n_k2_of_qc_i) > 0.0 else 0


@dataclass
class EdgeContext:
    """Neighbor structures needed to weight the edges of one query.

    ``n_k_of_q`` is N_k of the query, ``n_k1``/``n_k2`` map sample ids to
    their first-/second-level neighbor sets.
    """

    k1: int
    n_k_of_q: frozenset
    n_k1: dict = field(default_factory=dict)
    n_k2: dict = field(default_factory=dict)


def edge_weight(h_qc: int, q: int, ctx: EdgeContext, mode: str = "jaccard-scaled") -> float:
    """Weight of the edge q -> h_qc under the given mode."""
    if mode not in WEIGHT_MODES:
        raise InvalidConfigError(f"unknown weight mode {mode!r}")
    if h_qc not in ctx.n_k1:
        raise ContextIncompleteError(f"missing N_k1 of sample {h_qc}")
    n_k1_of_c = ctx.n_k1[h_qc]
    confirmations = 0
    for i in n_k1_of_c:
        if i not in ctx.n_k2:
            raise ContextIncompleteError(f"missing N_k2 of sample {i}")
        confirmations += outlier_indicator(h_qc, i, n_k1_of_c, ctx.n_k2[i])
    if mode == "literal":
        return float(confirmations)
    return jaccard_sets(n_k1_of_c, ctx.n_k_of_q) * confirmations / ctx.k1


def _isin_rows(sets: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Whether vals[r, a, b] is a member of sets[r], for every r, a, b.

    Ids lie in [0, n). The rows' sets are scattered into a (rows, n)
    boolean table, so each probe is one lookup.
    """
    rows = np.arange(len(sets))
    table = np.zeros((len(sets), n), dtype=bool)
    table[rows[:, None], sets] = True
    return table[rows[:, None, None], vals]


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
    of N_k(q), in nearest-first order.
    """
    if mode not in WEIGHT_MODES:
        raise InvalidConfigError(f"unknown weight mode {mode!r}")
    k1 = k if k1 is None else k1
    k2 = k if k2 is None else k2
    n = index.n

    kmax = max(k, k1, k2)
    ids_max, _ = topk_arrays(index, kmax)
    nbrs_k = np.ascontiguousarray(ids_max[:, :k])
    nbrs_k1 = ids_max[:, :k1]
    nbrs_k2 = ids_max[:, :k2]

    # Blocks of kmax rows keep every membership table at most kmax x n
    # booleans, smaller than the (n, kmax) neighbor ids themselves.
    blocks = [slice(start, start + kmax) for start in range(0, n, kmax)]

    # confirmations[c] = |{i in N_k1(c) : N_k1(c) ∩ N_k2(i) != ∅}|; the
    # membership condition of the indicator holds for every summand, so
    # only the overlap test remains.
    confirmations = np.empty(n, dtype=np.int64)
    for rows in blocks:
        sets = nbrs_k1[rows]
        confirmations[rows] = _isin_rows(sets, nbrs_k2[sets], n).any(axis=2).sum(axis=1)

    if mode == "literal":
        weights = confirmations[nbrs_k].astype(np.float64)
    else:
        weights = np.empty((n, k), dtype=np.float64)
        for rows in blocks:
            cs = nbrs_k[rows]
            # |N_k1(c) ∩ N_k(q)| for every edge q -> c of the block
            ic = _isin_rows(cs, nbrs_k1[cs], n).sum(axis=2)
            jac = ic / (k1 + k - ic)
            weights[rows] = jac * confirmations[cs] / k1
    return SparseGraph(
        n=n, neighbor_ids=list(nbrs_k), weights=list(weights), modality_name=modality_name
    )


# ---------------------------------------------------------------------------
# Graph persistence: CSV edge list `src,dst,weight` and a binary twin
# ---------------------------------------------------------------------------


def save_graph(graph: SparseGraph, path: str | Path, fmt: str = "csv") -> None:
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            for q in range(graph.n):
                for j, w in zip(graph.neighbor_ids[q], graph.weights[q]):
                    fh.write(f"{q},{j},{repr(float(w))}\n")
    elif fmt == "binary":
        srcs = np.concatenate(
            [np.full(ids.size, q, dtype="<u8") for q, ids in enumerate(graph.neighbor_ids)]
        ) if graph.edge_count else np.empty(0, dtype="<u8")
        dsts = np.concatenate(graph.neighbor_ids).astype("<u8") if graph.edge_count else np.empty(0, dtype="<u8")
        ws = np.concatenate(graph.weights).astype("<f8") if graph.edge_count else np.empty(0, dtype="<f8")
        header = (
            GRAPH_MAGIC
            + np.asarray([GRAPH_VERSION], dtype="<u4").tobytes()
            + np.asarray([graph.n, srcs.size], dtype="<u8").tobytes()
        )
        body = np.empty(srcs.size, dtype=[("src", "<u8"), ("dst", "<u8"), ("w", "<f8")])
        body["src"], body["dst"], body["w"] = srcs, dsts, ws
        Path(path).write_bytes(header + body.tobytes())
    else:
        raise InvalidConfigError(f"unknown format {fmt!r}")


def _rows_from_edges(n: int, srcs, dsts, ws, name: str) -> SparseGraph:
    neighbor_ids: list[list[int]] = [[] for _ in range(n)]
    weights: list[list[float]] = [[] for _ in range(n)]
    for s, d, w in zip(srcs, dsts, ws):
        neighbor_ids[s].append(d)
        weights[s].append(w)
    return SparseGraph(
        n=n,
        neighbor_ids=[np.asarray(ids, dtype=np.int64) for ids in neighbor_ids],
        weights=[np.asarray(w, dtype=np.float64) for w in weights],
        modality_name=name,
    )


def load_graph(path: str | Path, fmt: str = "csv", modality_name: str = "") -> SparseGraph:
    """Load a graph. CSV infers n as max node id + 1 (EJG rows are never empty)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if fmt == "csv":
        srcs: list[int] = []
        dsts: list[int] = []
        ws: list[float] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh):
                stripped = line.strip()
                if not stripped:
                    continue
                parts = stripped.split(",")
                if len(parts) != 3:
                    raise ParseError(f"line {lineno}: expected src,dst,weight", line=lineno)
                try:
                    src, dst, w = int(parts[0]), int(parts[1]), float(parts[2])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad edge record", line=lineno) from None
                if src < 0 or dst < 0:
                    raise ParseError(f"line {lineno}: negative node id", line=lineno)
                srcs.append(src)
                dsts.append(dst)
                ws.append(w)
        if not srcs:
            raise ParseError(f"{path}: no edges", line=0)
        n = max(max(srcs), max(dsts)) + 1
        return _validated(_rows_from_edges(n, srcs, dsts, ws, modality_name), path)
    if fmt == "binary":
        blob = path.read_bytes()
        if len(blob) < 24 or blob[:4] != GRAPH_MAGIC:
            raise ParseError(f"{path}: not a graph file", line=0)
        version = int(np.frombuffer(blob, dtype="<u4", count=1, offset=4)[0])
        if version != GRAPH_VERSION:
            raise ParseError(f"{path}: unsupported version {version}", line=0)
        n, n_edges = (int(v) for v in np.frombuffer(blob, dtype="<u8", count=2, offset=8))
        if len(blob) != 24 + 24 * n_edges:
            raise ParseError(f"{path}: payload length does not match edge count", line=0)
        body = np.frombuffer(
            blob, dtype=[("src", "<u8"), ("dst", "<u8"), ("w", "<f8")], count=n_edges, offset=24
        )
        return _validated(
            _rows_from_edges(
                n, body["src"].astype(int), body["dst"].astype(int), body["w"], modality_name
            ),
            path,
        )
    raise InvalidConfigError(f"unknown format {fmt!r}")


def _validated(graph: SparseGraph, path) -> SparseGraph:
    try:
        graph.validate()
    except InvalidConfigError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return graph
