"""Naive reference implementations used as oracles.

Everything here is deliberately written with per-pair arithmetic, Python
sets, and full sorts, independent of the library's vectorized paths.
"""

from __future__ import annotations

import math

import numpy as np


def as_is(values: np.ndarray, out=None) -> np.ndarray:
    """The finish, for ``stable_topk``, of keys that are already distances."""
    return values


def brute_distance(x, y, metric: str) -> float:
    if metric == "euclidean":
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))
    nx = math.sqrt(sum(a * a for a in x))
    ny = math.sqrt(sum(b * b for b in y))
    dot = sum(a * b for a, b in zip(x, y))
    return max(1.0 - dot / (nx * ny), 0.0)


def brute_knn(matrix: np.ndarray, q: int, k: int, metric: str = "euclidean"):
    """Top-k by full sort of (distance, index); self excluded."""
    ranked = sorted(
        (brute_distance(matrix[q], matrix[j], metric), j)
        for j in range(len(matrix))
        if j != q
    )[:k]
    ids = [j for _, j in ranked]
    dists = [d for d, _ in ranked]
    return ids, dists


def brute_jaccard(a, b) -> float:
    a, b = set(a), set(b)
    return len(a & b) / len(a | b)


def brute_edge_weight(n_k_of_q, n_k1_of_c, n_k2, k1: int, mode: str = "literal") -> float:
    """Weight of the edge q -> c from N_k(q), N_k1(c) and a map from each
    i in N_k1(c) to N_k2(i): every i whose N_k2(i) overlaps N_k1(c)
    confirms c."""
    count = 0
    for i in n_k1_of_c:
        confirms = brute_jaccard(n_k1_of_c, n_k2[i]) > 0.0 and i in n_k1_of_c
        count += 1 if confirms else 0
    if mode == "literal":
        return float(count)
    return brute_jaccard(n_k1_of_c, n_k_of_q) * count / k1


def brute_ejg_weights(
    matrix: np.ndarray,
    k: int,
    k1: int,
    k2: int,
    metric: str = "euclidean",
    mode: str = "literal",
):
    """Direct transcription of the staged neighbor-set formulas.

    Returns {(q, c): weight} over every q and c in N_k(q).
    """
    n = len(matrix)
    n_k = {q: brute_knn(matrix, q, k, metric)[0] for q in range(n)}
    n_k1 = {q: brute_knn(matrix, q, k1, metric)[0] for q in range(n)}
    n_k2 = {q: brute_knn(matrix, q, k2, metric)[0] for q in range(n)}

    return {
        (q, c): brute_edge_weight(n_k[q], n_k1[c], n_k2, k1, mode)
        for q in range(n)
        for c in n_k[q]
    }


def brute_pairwise_distances(queries, gallery, metric: str = "euclidean") -> np.ndarray:
    """Pairwise distances as plain expressions, in the operations and order the
    library's in-place kernel must match bit for bit."""
    same = queries is gallery
    queries = np.asarray(queries, dtype=np.float64)
    gallery = queries if same else np.asarray(gallery, dtype=np.float64)
    if metric == "euclidean":
        sq = (
            np.einsum("ij,ij->i", queries, queries)[:, None]
            + np.einsum("ij,ij->i", gallery, gallery)[None, :]
            - 2.0 * (queries @ gallery.T)
        )
        out = np.sqrt(np.maximum(sq, 0.0))
    else:
        qn = np.linalg.norm(queries, axis=1)
        gn = qn if same else np.linalg.norm(gallery, axis=1)
        sims = (queries / qn[:, None]) @ (gallery / gn[:, None]).T
        out = np.maximum(1.0 - sims, 0.0)
    if same:
        np.fill_diagonal(out, 0.0)
    return out


def loo_nn_accuracy(matrix: np.ndarray, labels, metric: str = "euclidean", subset=None):
    """Leave-one-out 1-NN accuracy; ties resolve to the lowest index."""
    n = len(matrix)
    queries = range(n) if subset is None else subset
    correct = 0
    total = 0
    for q in queries:
        best = min(
            (brute_distance(matrix[q], matrix[j], metric), j)
            for j in range(n)
            if j != q
        )
        correct += labels[best[1]] == labels[q]
        total += 1
    return correct / total


def brute_vote_accuracy(vote_labels, truth) -> float:
    """Majority-vote accuracy from each row's vote labels, nearest first; a
    tie goes to the tied label seen earliest in the row."""
    correct = 0
    for row_labels, true_label in zip(vote_labels, truth):
        counts: dict = {}
        for lab in row_labels:
            counts[lab] = counts.get(lab, 0) + 1
        best = max(counts.values())
        winner = next(lab for lab in row_labels if counts[lab] == best)
        correct += winner == true_label
    return correct / len(truth)


def csr(rows):
    """(indptr, indices, data) CSR arrays of rows given as (neighbor ids, values) pairs."""
    rows = list(rows)
    indptr = np.cumsum([0] + [len(ids) for ids, _ in rows], dtype=np.int64)
    indices = np.array([j for ids, _ in rows for j in ids], dtype=np.int64)
    data = np.array([v for _, values in rows for v in values], dtype=np.float64)
    return indptr, indices, data


# ---------------------------------------------------------------------------
# Per-row fusion, normalization and alias construction: the library's
# row-at-a-time versions from before they worked on flat edge arrays.
# ---------------------------------------------------------------------------


def brute_fuse(graphs, combine: str):
    """Edge union of aligned graphs: (neighbor ids, weights) rows, ids ascending."""
    neighbor_ids, weights = [], []
    for q in range(graphs[0].n):
        ids = np.concatenate([g.neighbor_ids[q] for g in graphs])
        ws = np.concatenate([g.weights[q] for g in graphs])
        if ids.size == 0:
            neighbor_ids.append(ids.astype(np.int64))
            weights.append(ws.astype(np.float64))
            continue
        uniq, inverse = np.unique(ids, return_inverse=True)
        if combine == "sum":
            merged = np.zeros(uniq.size, dtype=np.float64)
            np.add.at(merged, inverse, ws)
        else:
            merged = np.full(uniq.size, -np.inf)
            np.maximum.at(merged, inverse, ws)
        neighbor_ids.append(uniq.astype(np.int64))
        weights.append(merged)
    return neighbor_ids, weights


def brute_normalize(weight_rows, kernel_input: str, floor: float):
    """Gaussian-kernel rows: (probability rows, per-row bandwidths)."""
    probs = []
    sigma_sq = np.empty(len(weight_rows), dtype=np.float64)
    for i, w in enumerate(weight_rows):
        x = (w.max() - w) if kernel_input == "dissimilarity" else w.astype(np.float64)
        var = max(float(np.var(x)), floor)
        sigma_sq[i] = var
        e = np.exp(-(x - x.min()) / (2.0 * var))
        probs.append(e / e.sum())
    return probs, sigma_sq


def brute_alias(probs):
    """Vose alias tables (accept, alias) for one distribution, on numpy scalars."""
    p = np.asarray(probs, dtype=np.float64)
    scaled = p * (p.size / p.sum())
    accept = np.ones(p.size, dtype=np.float64)
    alias = np.arange(p.size, dtype=np.int64)
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
    return accept, alias


def brute_csv_edges(matrix) -> str:
    """`src,dst,value` CSV text of a CSR matrix, one f-string per edge: the
    edge writer's text from before it formatted each id and value once."""
    src = np.repeat(np.arange(len(matrix.indptr) - 1), np.diff(matrix.indptr))
    return "".join(
        f"{s},{d},{v!r}\n"
        for s, d, v in zip(src.tolist(), matrix.indices.tolist(), matrix.data.tolist())
    )


def oneshot_binary(magic: bytes, a: int, b: int, payload: bytes) -> bytes:
    """A binary file's bytes: the 24-byte header, then ``payload``."""
    header = np.array([(magic, 1, a, b)],
                      dtype=[("magic", "S4"), ("version", "<u4"), ("a", "<u8"), ("b", "<u8")])
    return header.tobytes() + payload


def oneshot_binary_edges(matrix, magic: bytes, node_values=None) -> bytes:
    """The binary edge table of a CSR matrix, built whole in memory: the
    writer's bytes from before it streamed one chunk of records at a time."""
    src = np.repeat(np.arange(len(matrix.indptr) - 1), np.diff(matrix.indptr))
    body = np.empty(src.size, dtype=[("src", "<u8"), ("dst", "<u8"), ("value", "<f8")])
    body["src"], body["dst"], body["value"] = src, matrix.indices, matrix.data
    trailer = b"" if node_values is None else np.asarray(node_values, dtype="<f8").tobytes()
    return oneshot_binary(magic, len(matrix.indptr) - 1, src.size, body.tobytes() + trailer)


# ---------------------------------------------------------------------------
# Split protocols: the library's loop from before it grouped the classes once.
# ---------------------------------------------------------------------------


def brute_splits(labels, spec):
    """Train/test index pairs of ``spec``, one class mask per class and repeat."""
    from fgfusion.errors import ClassTooSmallError, InvalidSpecError
    from fgfusion.randomness import rng_stream

    spec.validate()
    if labels.n_classes < 2:
        raise InvalidSpecError("evaluation needs at least 2 distinct classes")
    n = labels.n
    classes = labels.classes
    out = []
    for r in range(spec.repeats):
        rng = rng_stream(spec.seed, "splits", r)
        if spec.protocol == "per_class_train_m":
            m = int(spec.m_or_fraction)
            train_parts = []
            for c in classes:
                idx = np.flatnonzero(labels.labels == c)
                if m >= idx.size:
                    raise ClassTooSmallError(
                        f"class {c!r} has {idx.size} samples, cannot hold out m={m}"
                    )
                train_parts.append(rng.choice(idx, size=m, replace=False))
            train_idx = np.sort(np.concatenate(train_parts))
        elif spec.protocol == "leave_instance_out":
            if labels.instance_ids is None:
                raise InvalidSpecError("leave_instance_out requires instance ids")
            test_parts = []
            for c in classes:
                idx = np.flatnonzero(labels.labels == c)
                instances = sorted(set(labels.instance_ids[idx].tolist()))
                if len(instances) < 2:
                    raise ClassTooSmallError(
                        f"class {c!r} has {len(instances)} instance(s); need >= 2"
                    )
                held_out = instances[int(rng.integers(len(instances)))]
                test_parts.append(idx[labels.instance_ids[idx] == held_out])
            test_idx = np.sort(np.concatenate(test_parts))
            train_idx = np.setdiff1d(np.arange(n), test_idx)
            out.append((train_idx, test_idx))
            continue
        else:
            n_train = int(round(spec.m_or_fraction * n))
            n_train = min(max(n_train, 1), n - 1)
            train_idx = np.sort(rng.choice(n, size=n_train, replace=False))
        test_idx = np.setdiff1d(np.arange(n), train_idx)
        out.append((train_idx, test_idx))
    return out
