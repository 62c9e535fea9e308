"""Fused-feature learning with negative-sampling SGD.

Each node's affinity row is treated as a context distribution. Training
reads only the sampler table built from the affinity: it draws context
nodes from a node's row, pulls the (target, context) vector pair together
through a logistic objective, and pushes sampled noise pairs apart. The
returned fused features are the target matrix; the context
matrix is an auxiliary parameter set, as in the standard two-matrix
word-embedding setup, and dies inside :func:`train`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import EmbeddingMatrix
from .errors import DivergenceError, InvalidConfigError, check_types
from .fusion import SamplerTable
from .randomness import rng_stream

DIVERGENCE_LIMIT = 1e3
# Resample rounds for noise draws that equal the positive context. Only a
# noise distribution concentrated on that one node needs this many.
MAX_RESAMPLE_ROUNDS = 1000


@dataclass(frozen=True)
class TrainConfig:
    d: int
    samples_per_node: int = 100  # context draws per node per epoch
    negatives: int = 5
    epochs: int = 50
    lr_start: float = 0.025
    lr_end: float = 1e-4
    init_scale: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        check_types(vars(self), TrainConfig.__annotations__)
        if self.d < 1:
            raise InvalidConfigError("d must be >= 1")
        if self.samples_per_node < 1:
            raise InvalidConfigError("samples_per_node must be >= 1")
        if self.negatives < 1:
            raise InvalidConfigError("negatives must be >= 1")
        if self.epochs < 0:
            raise InvalidConfigError("epochs must be >= 0")
        if not (math.isfinite(self.lr_start) and self.lr_start >= self.lr_end > 0):
            raise InvalidConfigError("need finite lr_start >= lr_end > 0")
        if not (math.isfinite(self.init_scale) and self.init_scale > 0):
            raise InvalidConfigError("init_scale must be finite and > 0")


@dataclass
class TrainReport:
    epoch_loss: list[float] = field(default_factory=list)
    positive_pairs: int = 0


def init_embeddings(
    n: int, d: int, init_scale: float = TrainConfig.init_scale, seed: int = TrainConfig.seed
) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
    """Target rows uniform in [-init_scale/d, +init_scale/d]; context zeros."""
    check_types({"n": n, "d": d, "seed": seed}, init_embeddings.__annotations__)
    if n < 1 or d < 1:
        raise InvalidConfigError("need n >= 1 and d >= 1")
    if not (math.isfinite(init_scale) and init_scale > 0):
        raise InvalidConfigError(f"init_scale must be finite and > 0, got {init_scale!r}")
    bound = init_scale / d
    target = rng_stream(seed, "init").uniform(-bound, bound, size=(n, d))
    return EmbeddingMatrix(target), EmbeddingMatrix(np.zeros((n, d), dtype=np.float64))


def _step(
    f: np.ndarray, context: np.ndarray, pairs: np.ndarray, rates: np.ndarray, signs: np.ndarray
) -> np.ndarray:
    """One step of target rows f (b, d) against the context rows pairs (b, K) names,
    in place, at rates lr * sign. Each row moves by the sum of its pairs' gradients
    at the pre-step rows. Returns the signed scores."""
    g = context[pairs]
    y = np.einsum("bd,bkd->bk", f, g)
    y *= signs
    # lr * (label - sigmoid(x)) for score x is lr * sign * sigmoid(-y)
    delta = rates / (1.0 + np.exp(y))
    # context entry (row, j) sits at row * d + j of the flat view; ufunc.at adds
    # repeated entries one at a time in pair order, so sums repeat bit for bit
    d = f.shape[1]
    idx = (pairs[..., None] * d + np.arange(d)).ravel()
    np.add.at(context.reshape(-1), idx, (delta[:, :, None] * f[:, None, :]).ravel())
    f += np.einsum("bk,bkd->bd", delta, g)
    return y


def sgd_step(f_i: np.ndarray, g_j: np.ndarray, label: int, lr: float) -> tuple[np.ndarray, np.ndarray]:
    """One logistic gradient-ascent step on a (target, context) pair, in place.

    label 1 marks an observed pair, label 0 a noise pair. This is the
    trainer's block step for one node and one pair, so both rows are
    updated from each other's pre-step values.
    """
    if label not in (0, 1) or not (math.isfinite(lr) and lr >= 0):
        raise InvalidConfigError(f"need label 0 or 1 and finite lr >= 0, got {label!r}, {lr!r}")
    signs = np.array([1.0 if label else -1.0])
    # contiguous (1, d) copies: a flat context view, and one rounding for any strides
    f, g = f_i[None].copy(), g_j[None].copy()
    with np.errstate(over="ignore"):  # exp(y) = inf gives a zero step
        _step(f, g, np.zeros((1, 1), dtype=np.int64), lr * signs[None], signs)
    f_i[:], g_j[:] = f[0], g[0]
    return f_i, g_j


def _draw_pairs(
    samplers: SamplerTable, nodes: np.ndarray, m: int, negatives: int, rng: np.random.Generator
) -> np.ndarray:
    """pairs[t, b] lists node b's t-th context, then its noise nodes.

    Noise draws equal to their context are resampled, at most
    MAX_RESAMPLE_ROUNDS times.
    """
    ctx = samplers.draw_rows(nodes, m, rng)
    negs = samplers.draw_noise(ctx.size * negatives, rng).reshape(*ctx.shape, negatives)
    clash = negs == ctx[..., None]
    rounds = 0
    while clash.any():
        if rounds == MAX_RESAMPLE_ROUNDS:
            raise InvalidConfigError(
                f"noise draws still equal the positive context after "
                f"{rounds} resample rounds; lower noise_power"
            )
        rounds += 1
        negs[clash] = samplers.draw_noise(int(clash.sum()), rng)
        clash = negs == ctx[..., None]
    return np.concatenate((ctx.T[:, :, None], negs.transpose(1, 0, 2)), axis=2)


def train(samplers: SamplerTable, cfg: TrainConfig) -> tuple[EmbeddingMatrix, TrainReport]:
    """Learn fused features from the context distributions of ``samplers``,
    one per node, and its noise distribution.

    Per epoch, nodes are visited in a random order, in blocks of
    ``min(32, max(1, n // 8))``. Each node draws ``samples_per_node``
    contexts from its row and ``negatives`` noise nodes per context (noise
    draws equal to the context are resampled). The block then takes one
    synchronous step per draw, the step :func:`sgd_step` takes for a single
    pair: the target rows move by the sum of their pair gradients and the
    context rows by the sum over every pair that names them, all taken at
    the block's pre-step rows. The learning rate decays linearly from
    lr_start to lr_end over all positive draws. Runs are bitwise
    deterministic in cfg.seed.
    """
    cfg.validate()
    n = samplers.n
    # the matrices' arrays are trained in place
    target, context = (m.vectors for m in init_embeddings(n, cfg.d, cfg.init_scale, cfg.seed))
    order_rng = rng_stream(cfg.seed, "order")
    draw_rng = rng_stream(cfg.seed, "draws")

    m = cfg.samples_per_node
    total_draws = cfg.epochs * n * m
    lr_span = cfg.lr_end - cfg.lr_start
    denom = max(total_draws - 1, 1)
    # Reads within a block are stale by at most one block's updates; keep
    # the block a small share of the nodes.
    block = min(32, max(1, n // 8))
    # +1 scores a draw's observed pair, -1 each of its noise pairs
    signs = np.concatenate(([1.0], np.full(cfg.negatives, -1.0)))

    report = TrainReport(positive_pairs=total_draws)
    step = 0
    # overflow inside an epoch is handled by the end-of-epoch divergence
    # check; don't let numpy warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            epoch_loss = 0.0
            order = order_rng.permutation(n)
            for lo in range(0, n, block):
                nodes = order[lo : lo + block]
                pairs = _draw_pairs(samplers, nodes, m, cfg.negatives, draw_rng)
                # node b's t-th positive draw is draw number step + b * m + t
                draw_no = step + np.arange(m)[:, None, None] + m * np.arange(nodes.size)[:, None]
                rates = (cfg.lr_start + lr_span * (draw_no / denom)) * signs
                step += nodes.size * m
                scores = np.empty(pairs.shape)
                # only this block moves its own target rows
                f = target[nodes]
                for t in range(m):
                    scores[t] = _step(f, context, pairs[t], rates[t], signs)
                target[nodes] = f
                # a pair's loss is -log sigmoid(its signed score)
                epoch_loss += float(np.logaddexp(0.0, -scores).sum())
            report.epoch_loss.append(epoch_loss / (n * m))
            if not np.isfinite(target).all() or not np.isfinite(context).all():
                raise DivergenceError("non-finite embedding values during training")
            if np.abs(target).max() > DIVERGENCE_LIMIT:
                raise DivergenceError(
                    f"embedding magnitude exceeded {DIVERGENCE_LIMIT:g}; lower the learning rate"
                )
    return EmbeddingMatrix(target), report
