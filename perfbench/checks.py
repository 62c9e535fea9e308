"""Output checks for benchmark runs, and the EJG oracle cross-check.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed. The file parsers here are written from the documented
file formats, independently of fgfusion's loaders, so a loader bug cannot
hide an output bug.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9
GAIN_MARGIN = 0.02  # fused mean must beat the best single modality by 2 points


def parse_table(text: str) -> list[dict]:
    """Rows of a results CSV: method, k, d, accuracies, mean, std."""
    lines = text.splitlines()
    header = lines[0].split(",")
    repeats = len(header) - 5
    if header[:3] != ["method", "k", "d"] or header[-2:] != ["mean", "std"] or repeats < 1:
        raise ValueError(f"bad header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header {len(header)}")
        rows.append({
            "method": cells[0],
            "k": cells[1],
            "d": cells[2],
            "accuracies": [float(v) for v in cells[3:-2]],
            "mean": float(cells[-2]),
            "std": float(cells[-1]),
        })
    return rows


def check_table(text: str, methods: list[str], repeats: int) -> list[str]:
    """Rows name exactly ``methods`` in order, with ``repeats`` accuracies in
    [0, 1] whose mean and sample std match the printed ones to 1e-9."""
    try:
        rows = parse_table(text)
    except (ValueError, IndexError) as exc:
        return [f"unparsable table: {exc}"]
    problems = []
    got = [r["method"] for r in rows]
    if got != methods:
        problems.append(f"methods {got}, expected {methods}")
    for r in rows:
        accs = r["accuracies"]
        if len(accs) != repeats:
            problems.append(f"{r['method']}: {len(accs)} splits, expected {repeats}")
            continue
        if not all(0.0 <= a <= 1.0 for a in accs):
            problems.append(f"{r['method']}: accuracy outside [0, 1]")
        if not abs(statistics.fmean(accs) - r["mean"]) <= TOLERANCE:
            problems.append(f"{r['method']}: mean {r['mean']} does not match its splits")
        std = statistics.stdev(accs) if len(accs) > 1 else 0.0
        if not abs(std - r["std"]) <= TOLERANCE:
            problems.append(f"{r['method']}: std {r['std']} does not match its splits")
    return problems


def fused_mean(text: str, method: str = "fgf") -> float:
    """Mean of the printed means of the rows named ``method``."""
    means = [r["mean"] for r in parse_table(text) if r["method"] == method]
    return statistics.fmean(means)


def check_gain(text: str) -> list[str]:
    """Every fgf row beats the best single modality by GAIN_MARGIN."""
    rows = parse_table(text)
    singles = [r["mean"] for r in rows if r["method"] not in ("joint", "fgf")]
    best = max(singles)
    return [
        f"fgf k={r['k']} d={r['d']} mean {r['mean']:.4f} < best single {best:.4f} + "
        f"{GAIN_MARGIN}"
        for r in rows
        if r["method"] == "fgf" and not r["mean"] >= best + GAIN_MARGIN
    ]


def check_graph_csv(path: Path, n: int, k: int) -> list[str]:
    """A graph CSV holds exactly k edges out of each of n nodes."""
    try:
        edges = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        return [f"{path.name}: unparsable ({exc})"]
    if edges.shape[0] == 0 or edges.shape[1] != 3:
        return [f"{path.name}: not an edge list, shape {edges.shape}"]
    src = edges[:, 0].astype(np.int64)
    problems = []
    if edges.shape[0] != n * k:
        problems.append(f"{path.name}: {edges.shape[0]} edges, expected n*k = {n * k}")
    if src.min() < 0 or src.max() >= n or np.any(np.bincount(src, minlength=n) != k):
        problems.append(f"{path.name}: not {k} edges on every one of {n} rows")
    return problems


def check_affinity(blob: bytes, n: int) -> list[str]:
    """A binary affinity has n non-empty rows of probabilities summing to 1."""
    if len(blob) < 24 or blob[:4] != b"EJGA":
        return ["affinity: bad magic"]
    got_n, n_edges = (int(v) for v in np.frombuffer(blob, dtype="<u8", count=2, offset=8))
    if got_n != n or len(blob) != 24 + 24 * n_edges + 8 * n:
        return [f"affinity: n={got_n} or its length does not match, expected n={n}"]
    body = np.frombuffer(
        blob, dtype=[("src", "<u8"), ("dst", "<u8"), ("w", "<f8")], count=n_edges, offset=24
    )
    src = body["src"].astype(np.int64)
    if src.size and (src.max() >= n or body["dst"].max() >= n):
        return ["affinity: node id out of range"]
    p = body["w"]
    problems = []
    if not np.all((p >= 0.0) & (p <= 1.0)):
        problems.append("affinity: probability outside [0, 1]")
    if np.any(np.bincount(src, minlength=n) == 0):
        problems.append("affinity: empty row")
    sums = np.bincount(src, weights=p, minlength=n)
    worst = float(np.max(np.abs(sums - 1.0)))
    if not worst <= TOLERANCE:
        problems.append(f"affinity: a row sums to 1 {worst:+.3g}")
    return problems


def check_embeddings(blob: bytes, n: int, d: int) -> list[str]:
    """A binary embedding file holds a finite n x d matrix."""
    if len(blob) < 24 or blob[:4] != b"EJGE":
        return ["embeddings: bad magic"]
    rows, dim = (int(v) for v in np.frombuffer(blob, dtype="<u8", count=2, offset=8))
    if (rows, dim) != (n, d) or len(blob) != 24 + 8 * n * d:
        return [f"embeddings: {rows} x {dim}, expected {n} x {d}"]
    if not np.isfinite(np.frombuffer(blob, dtype="<f8", offset=24)).all():
        return ["embeddings: non-finite values"]
    return []


# ---------------------------------------------------------------------------
# Oracle: the extended Jaccard graph from plain set arithmetic
# ---------------------------------------------------------------------------


def _distance(x, y, metric: str) -> float:
    if metric == "euclidean":
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
    dot = sum(a * b for a, b in zip(x, y))
    nx = math.sqrt(sum(a * a for a in x))
    ny = math.sqrt(sum(b * b for b in y))
    return max(1.0 - dot / (nx * ny), 0.0)


def _neighbors(rows: list, q: int, k: int, metric: str) -> list[int]:
    ranked = sorted((_distance(rows[q], rows[j], metric), j) for j in range(len(rows)) if j != q)
    return [j for _, j in ranked[:k]]


def oracle_ejg(matrix, k: int, k1: int, k2: int, metric: str, mode: str) -> dict:
    """{(q, c): weight} for every q and c in N_k(q), straight from the definition."""
    rows = [list(map(float, r)) for r in matrix]
    n = len(rows)
    n_k = [_neighbors(rows, q, k, metric) for q in range(n)]
    n_k1 = [set(_neighbors(rows, q, k1, metric)) for q in range(n)]
    n_k2 = [set(_neighbors(rows, q, k2, metric)) for q in range(n)]
    weights = {}
    for q in range(n):
        for c in n_k[q]:
            confirmations = sum(1 for i in n_k1[c] if n_k1[c] & n_k2[i])
            if mode == "literal":
                weights[(q, c)] = float(confirmations)
            else:
                a, b = n_k1[c], set(n_k[q])
                weights[(q, c)] = len(a & b) / len(a | b) * confirmations / k1
    return weights


def check_ejg_against_oracle(graph, oracle: dict) -> list[str]:
    """The graph has exactly the oracle's edges, with weights within 1e-12."""
    got = {
        (q, int(c)): float(w)
        for q in range(graph.n)
        for c, w in zip(graph.neighbor_ids[q], graph.weights[q])
    }
    if got.keys() != oracle.keys():
        return [f"edge sets differ on {len(got.keys() ^ oracle.keys())} edges"]
    bad = [e for e, w in oracle.items() if not abs(got[e] - w) <= 1e-12]
    return [f"{len(bad)} edge weights differ from the oracle, e.g. {bad[0]}"] if bad else []
