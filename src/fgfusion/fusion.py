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

from .ejgraph import SparseGraph
from .errors import (
    EmptyRowError,
    InvalidConfigError,
    NodeCountMismatchError,
    ParseError,
)
from .randomness import rng_stream

COMBINE_RULES = ("sum", "max")
KERNEL_INPUTS = ("dissimilarity", "literal")

SIGMA_FLOOR = 1e-8

AFFINITY_MAGIC = b"EJGA"
AFFINITY_VERSION = 1


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

    neighbor_ids: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for q in range(n):
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
    name = "+".join(g.modality_name for g in graphs if g.modality_name)
    return SparseGraph(n=n, neighbor_ids=neighbor_ids, weights=weights, modality_name=name)


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
        for i, (ids, p) in enumerate(zip(self.neighbor_ids, self.probs)):
            if ids.size == 0:
                raise EmptyRowError(f"row {i} is empty")
            if np.any(p < 0.0) or np.any(p > 1.0):
                raise InvalidConfigError(f"row {i}: probability outside [0, 1]")
            if abs(p.sum() - 1.0) > 1e-9:
                raise InvalidConfigError(f"row {i}: probabilities sum to {p.sum()}")
        if self.sigma_sq is not None and np.any(self.sigma_sq < SIGMA_FLOOR):
            raise InvalidConfigError("bandwidth below floor")

    @property
    def support_k(self) -> np.ndarray:
        return np.array([ids.size for ids in self.neighbor_ids], dtype=np.int64)


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
    probs: list[np.ndarray] = []
    sigma_sq = np.empty(graph.n, dtype=np.float64)
    for i in range(graph.n):
        w = graph.weights[i]
        if w.size == 0:
            raise EmptyRowError(f"row {i} has no edges")
        x = (w.max() - w) if kernel_input == "dissimilarity" else w.astype(np.float64)
        var = max(float(np.var(x)), SIGMA_FLOOR)
        sigma_sq[i] = var
        logits = -(x - x.min()) / (2.0 * var)
        e = np.exp(logits)
        probs.append(e / e.sum())
    return AffinityMatrix(
        n=graph.n,
        neighbor_ids=[ids.copy() for ids in graph.neighbor_ids],
        probs=probs,
        sigma_sq=sigma_sq,
    )


# ---------------------------------------------------------------------------
# Alias sampling
# ---------------------------------------------------------------------------


def _build_alias(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias construction for one distribution (need not be normalized)."""
    p = np.asarray(probs, dtype=np.float64)
    total = p.sum()
    if total <= 0:
        raise InvalidConfigError("cannot build sampler over an all-zero distribution")
    scaled = p * (p.size / total)
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


def _alias_draw(
    accept: np.ndarray, alias: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    r = rng.random(size) * accept.size
    idx = r.astype(np.int64)
    frac = r - idx
    return np.where(frac < accept[idx], idx, alias[idx])


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
        self._row_ids = [ids.copy() for ids in affinity.neighbor_ids]
        tables = [_build_alias(p) for p in affinity.probs]
        self._row_accept = [t[0] for t in tables]
        self._row_alias = [t[1] for t in tables]

        strength = np.zeros(self.n, dtype=np.float64)
        for ids, p in zip(affinity.neighbor_ids, affinity.probs):
            np.add.at(strength, ids, p)
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
        picks = _alias_draw(self._row_accept[i], self._row_alias[i], size, rng)
        return self._row_ids[i][picks]

    def draw_noise(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` nodes from the in-strength^power noise distribution."""
        return _alias_draw(self._noise_accept, self._noise_alias, size, rng)


def build_samplers(
    affinity: AffinityMatrix, noise_power: float = 0.75, seed: int = 0
) -> SamplerTable:
    return SamplerTable(affinity, noise_power=noise_power, seed=seed)


# ---------------------------------------------------------------------------
# Affinity persistence (mirrors the graph formats, with probabilities)
# ---------------------------------------------------------------------------


def save_affinity(aff: AffinityMatrix, path: str | Path, fmt: str = "csv") -> None:
    path = Path(path)
    if fmt == "csv":
        # CSV carries edges only; bandwidths live in the binary format.
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(aff.n):
                for j, p in zip(aff.neighbor_ids[i], aff.probs[i]):
                    fh.write(f"{i},{j},{repr(float(p))}\n")
    elif fmt == "binary":
        n_edges = int(sum(ids.size for ids in aff.neighbor_ids))
        body = np.empty(n_edges, dtype=[("src", "<u8"), ("dst", "<u8"), ("p", "<f8")])
        pos = 0
        for i in range(aff.n):
            size = aff.neighbor_ids[i].size
            body["src"][pos : pos + size] = i
            body["dst"][pos : pos + size] = aff.neighbor_ids[i]
            body["p"][pos : pos + size] = aff.probs[i]
            pos += size
        sigma = (
            aff.sigma_sq if aff.sigma_sq is not None else np.full(aff.n, np.nan)
        ).astype("<f8")
        header = (
            AFFINITY_MAGIC
            + np.asarray([AFFINITY_VERSION], dtype="<u4").tobytes()
            + np.asarray([aff.n, n_edges], dtype="<u8").tobytes()
        )
        path.write_bytes(header + body.tobytes() + sigma.tobytes())
    else:
        raise InvalidConfigError(f"unknown format {fmt!r}")


def load_affinity(path: str | Path, fmt: str = "csv") -> AffinityMatrix:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if fmt == "csv":
        rows: dict[int, list[tuple[int, float]]] = {}
        max_node = -1
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh):
                stripped = line.strip()
                if not stripped:
                    continue
                parts = stripped.split(",")
                if len(parts) != 3:
                    raise ParseError(f"line {lineno}: expected src,dst,prob", line=lineno)
                try:
                    src, dst, p = int(parts[0]), int(parts[1]), float(parts[2])
                except ValueError:
                    raise ParseError(f"line {lineno}: bad record", line=lineno) from None
                if src < 0 or dst < 0:
                    raise ParseError(f"line {lineno}: negative node id", line=lineno)
                rows.setdefault(src, []).append((dst, p))
                max_node = max(max_node, src, dst)
        if max_node < 0:
            raise ParseError(f"{path}: no edges", line=0)
        n = max_node + 1
        ids = [np.array([d for d, _ in rows.get(i, [])], dtype=np.int64) for i in range(n)]
        ps = [np.array([p for _, p in rows.get(i, [])], dtype=np.float64) for i in range(n)]
        return _validated_affinity(
            AffinityMatrix(n=n, neighbor_ids=ids, probs=ps, sigma_sq=None), path
        )
    if fmt == "binary":
        blob = path.read_bytes()
        if len(blob) < 24 or blob[:4] != AFFINITY_MAGIC:
            raise ParseError(f"{path}: not an affinity file", line=0)
        version = int(np.frombuffer(blob, dtype="<u4", count=1, offset=4)[0])
        if version != AFFINITY_VERSION:
            raise ParseError(f"{path}: unsupported version {version}", line=0)
        n, n_edges = (int(v) for v in np.frombuffer(blob, dtype="<u8", count=2, offset=8))
        if len(blob) != 24 + 24 * n_edges + 8 * n:
            raise ParseError(f"{path}: payload length does not match header", line=0)
        body = np.frombuffer(
            blob, dtype=[("src", "<u8"), ("dst", "<u8"), ("p", "<f8")], count=n_edges, offset=24
        )
        sigma = np.frombuffer(blob, dtype="<f8", count=n, offset=24 + 24 * n_edges).copy()
        for col in ("src", "dst"):
            if n_edges and body[col].max() >= n:
                raise ParseError(f"{path}: {col} node id outside [0, {n})", line=0)
        # stable grouping by src keeps each row's edges in file order
        order = np.argsort(body["src"], kind="stable")
        bounds = np.cumsum(np.bincount(body["src"], minlength=n))[:-1]
        ids = np.split(body["dst"][order].astype(np.int64), bounds)
        ps = np.split(body["p"][order].astype(np.float64), bounds)
        return _validated_affinity(
            AffinityMatrix(
                n=n, neighbor_ids=ids, probs=ps,
                sigma_sq=None if np.isnan(sigma).all() else sigma,
            ),
            path,
        )
    raise InvalidConfigError(f"unknown format {fmt!r}")


def _validated_affinity(aff: AffinityMatrix, path) -> AffinityMatrix:
    try:
        aff.validate()
    except InvalidConfigError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return aff
