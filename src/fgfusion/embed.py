"""Fused-feature learning with negative-sampling SGD.

Each node's affinity row is treated as a context distribution. Training
draws context nodes from it, pulls the (target, context) vector pair
together through a logistic objective, and pushes sampled noise pairs
apart. The returned fused features are the target matrix; the context
matrix is an auxiliary parameter set, as in the standard two-matrix
word-embedding setup.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import EmbeddingMatrix
from .errors import DivergenceError, InvalidConfigError
from .fusion import AffinityMatrix, SamplerTable
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
        if self.d < 1:
            raise InvalidConfigError("d must be >= 1")
        if self.samples_per_node < 1:
            raise InvalidConfigError("samples_per_node must be >= 1")
        if self.negatives < 1:
            raise InvalidConfigError("negatives must be >= 1")
        if self.epochs < 0:
            raise InvalidConfigError("epochs must be >= 0")
        if not (self.lr_start >= self.lr_end > 0):
            raise InvalidConfigError("need lr_start >= lr_end > 0")
        if self.init_scale <= 0:
            raise InvalidConfigError("init_scale must be > 0")


@dataclass
class TrainReport:
    epoch_loss: list[float] = field(default_factory=list)
    positive_pairs: int = 0
    wall_seconds: float = 0.0
    # auxiliary context parameters, kept so the surrogate loss of a trained
    # model can be evaluated after the fact
    context: "EmbeddingMatrix | None" = None


def _sigmoid(x: float) -> float:
    if x > 60.0:
        return 1.0
    if x < -60.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(-x))


def _log_sigmoid(x: float) -> float:
    if x >= 0.0:
        return -math.log1p(math.exp(-x)) if x < 60.0 else 0.0
    return x - math.log1p(math.exp(x)) if x > -60.0 else x


def init_embeddings(
    n: int, d: int, init_scale: float = 1.0, seed: int = 0
) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
    """Target rows uniform in [-init_scale/d, +init_scale/d]; context zeros."""
    if n < 1 or d < 1:
        raise InvalidConfigError("need n >= 1 and d >= 1")
    if init_scale <= 0:
        raise InvalidConfigError("init_scale must be > 0")
    target, context = _init_arrays(n, d, init_scale, seed)
    return EmbeddingMatrix(target), EmbeddingMatrix(context)


def _init_arrays(n: int, d: int, init_scale: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = rng_stream(seed, "init")
    bound = init_scale / d
    target = rng.uniform(-bound, bound, size=(n, d))
    context = np.zeros((n, d), dtype=np.float64)
    return target, context


def sgd_step(f_i: np.ndarray, g_j: np.ndarray, label: int, lr: float) -> tuple[np.ndarray, np.ndarray]:
    """One logistic gradient-ascent step on a (target, context) pair, in place.

    label 1 marks an observed pair, label 0 a noise pair. Both rows are
    updated from each other's pre-step values.
    """
    x = float(np.dot(f_i, g_j))
    err = float(label) - _sigmoid(x)
    delta = lr * err
    df = delta * g_j
    g_j += delta * f_i
    f_i += df
    return f_i, g_j


def train(
    affinity: AffinityMatrix,
    samplers: SamplerTable,
    cfg: TrainConfig,
) -> tuple[EmbeddingMatrix, TrainReport]:
    """Learn fused features from the affinity's context distributions.

    Per epoch and node i: draw ``samples_per_node`` contexts from row i,
    apply one positive step per draw plus ``negatives`` noise steps (noise
    draws equal to the positive context are resampled). The learning rate
    decays linearly from lr_start to lr_end over all positive draws.
    Runs are bitwise deterministic in cfg.seed.
    """
    cfg.validate()
    n = affinity.n
    if samplers.n != n:
        raise InvalidConfigError(f"sampler covers {samplers.n} nodes, affinity {n}")

    started = time.perf_counter()
    target, context = _init_arrays(n, cfg.d, cfg.init_scale, cfg.seed)
    order_rng = rng_stream(cfg.seed, "order")
    draw_rng = rng_stream(cfg.seed, "draws")

    m = cfg.samples_per_node
    negatives = cfg.negatives
    total_draws = cfg.epochs * n * m
    lr_span = cfg.lr_end - cfg.lr_start
    denom = max(total_draws - 1, 1)

    report = TrainReport(positive_pairs=total_draws)
    step = 0
    # overflow inside an epoch is handled by the end-of-epoch divergence
    # check; don't let numpy warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            epoch_loss = 0.0
            for i in order_rng.permutation(n):
                js = samplers.draw_row(i, m, draw_rng)
                negs = samplers.draw_noise(m * negatives, draw_rng).reshape(m, negatives)
                clash = negs == js[:, None]
                rounds = 0
                while clash.any():
                    if rounds == MAX_RESAMPLE_ROUNDS:
                        raise InvalidConfigError(
                            f"noise draws still equal the positive context after "
                            f"{rounds} resample rounds; lower noise_power"
                        )
                    rounds += 1
                    negs[clash] = samplers.draw_noise(int(clash.sum()), draw_rng)
                    clash = negs == js[:, None]
                f_i = target[i]
                for t in range(m):
                    lr = cfg.lr_start + lr_span * (step / denom)
                    step += 1
                    g = context[js[t]]
                    x = float(np.dot(f_i, g))
                    epoch_loss -= _log_sigmoid(x)
                    delta = lr * (1.0 - _sigmoid(x))
                    df = delta * g
                    g += delta * f_i
                    f_i += df
                    for v in negs[t]:
                        g = context[v]
                        x = float(np.dot(f_i, g))
                        epoch_loss -= _log_sigmoid(-x)
                        delta = lr * -_sigmoid(x)
                        df = delta * g
                        g += delta * f_i
                        f_i += df
            report.epoch_loss.append(epoch_loss / (n * m))
            if not np.isfinite(target).all() or not np.isfinite(context).all():
                raise DivergenceError("non-finite embedding values during training")
            if np.abs(target).max() > DIVERGENCE_LIMIT:
                raise DivergenceError(
                    f"embedding magnitude exceeded {DIVERGENCE_LIMIT:g}; lower the learning rate"
                )
    report.wall_seconds = time.perf_counter() - started
    report.context = EmbeddingMatrix(context)
    return EmbeddingMatrix(target), report


def surrogate_loss(
    affinity: AffinityMatrix,
    target: EmbeddingMatrix | np.ndarray,
    context: EmbeddingMatrix | np.ndarray,
    samplers: SamplerTable,
    sample_count: int,
    seed: int = 0,
    negatives: int = 5,
) -> float:
    """Monte Carlo estimate of the mean per-pair training loss.

    Each probe draws a uniform node, one context from its row, and
    ``negatives`` noise nodes (resampled on collision with the context);
    the probe's loss is the negative log-likelihood of that group.
    """
    f = target.vectors if isinstance(target, EmbeddingMatrix) else np.asarray(target)
    g = context.vectors if isinstance(context, EmbeddingMatrix) else np.asarray(context)
    if f.shape != g.shape or f.shape[0] != affinity.n:
        raise InvalidConfigError("target/context shapes do not match the affinity")
    if sample_count < 1:
        raise InvalidConfigError("sample_count must be >= 1")
    rng = rng_stream(seed, "loss")
    total = 0.0
    for _ in range(sample_count):
        i = int(rng.integers(affinity.n))
        j = int(samplers.draw_row(i, 1, rng)[0])
        total -= _log_sigmoid(float(np.dot(f[i], g[j])))
        for _ in range(negatives):
            v = int(samplers.draw_noise(1, rng)[0])
            while v == j:
                v = int(samplers.draw_noise(1, rng)[0])
            total -= _log_sigmoid(-float(np.dot(f[i], g[v])))
    return total / sample_count
