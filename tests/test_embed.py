import contextlib
import math
import signal
from dataclasses import asdict

import numpy as np
import pytest

from fgfusion import (
    AffinityMatrix,
    TrainConfig,
    build_samplers,
    init_embeddings,
    sgd_step,
    train,
)
from fgfusion.embed import _step
from fgfusion.errors import DivergenceError, InvalidConfigError

from bruteforce import csr


def norm_rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def test_init_deterministic():
    t1, c1 = init_embeddings(20, 8, seed=4)
    t2, c2 = init_embeddings(20, 8, seed=4)
    assert t1.vectors.tobytes() == t2.vectors.tobytes()
    assert c1.vectors.tobytes() == c2.vectors.tobytes()


def test_init_context_is_zero():
    _, context = init_embeddings(10, 5, seed=0)
    assert not context.vectors.any()


def test_init_bound_scales_inversely_with_d():
    target, _ = init_embeddings(100, 50, init_scale=1.0, seed=1)
    assert np.abs(target.vectors).max() <= 0.02


def test_init_rejects_bad_args():
    with pytest.raises(InvalidConfigError):
        init_embeddings(0, 4)
    for args in ((2.5, 3), (4, 2.5), (4, 3, 1.0, 1.5)):
        with pytest.raises(InvalidConfigError):
            init_embeddings(*args)
    for init_scale in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError, match="init_scale"):
            init_embeddings(4, 4, init_scale=init_scale)


# ---------------------------------------------------------------------------
# Single update step
# ---------------------------------------------------------------------------


def test_step_with_zero_context_moves_only_context():
    f = np.array([1.0, -2.0, 0.5])
    g = np.zeros(3)
    f_before = f.copy()
    sgd_step(f, g, 1, lr=0.1)
    np.testing.assert_array_equal(f, f_before)
    np.testing.assert_allclose(g, 0.1 * 0.5 * f_before)


def test_zero_learning_rate_changes_nothing():
    rng = np.random.default_rng(0)
    f, g = rng.normal(size=4), rng.normal(size=4)
    fb, gb = f.copy(), g.copy()
    sgd_step(f, g, 0, lr=0.0)
    np.testing.assert_array_equal(f, fb)
    np.testing.assert_array_equal(g, gb)


@pytest.mark.parametrize("label", [1, 0])
def test_gradients_match_central_finite_differences(label):
    """The step must ascend the exact per-pair log-likelihood gradient."""

    def loglik(f, g):
        x = float(np.dot(f, g))
        return math.log(1.0 / (1.0 + math.exp(-x))) if label else math.log(
            1.0 / (1.0 + math.exp(x))
        )

    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(60):
        d = int(rng.integers(2, 9))
        f = rng.normal(size=d) / math.sqrt(d)
        g = rng.normal(size=d) / math.sqrt(d)
        fs, gs = f.copy(), g.copy()
        sgd_step(fs, gs, label, lr=1.0)
        analytic_df, analytic_dg = fs - f, gs - g
        numeric_df = np.empty(d)
        numeric_dg = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            numeric_df[j] = (loglik(f + e, g) - loglik(f - e, g)) / (2 * h)
            numeric_dg[j] = (loglik(f, g + e) - loglik(f, g - e)) / (2 * h)
        assert norm_rel_err(analytic_df, numeric_df) < 1e-6
        assert norm_rel_err(analytic_dg, numeric_dg) < 1e-6


def test_step_uses_prestep_values_of_both_rows():
    rng = np.random.default_rng(7)
    f, g = rng.normal(size=5), rng.normal(size=5)
    fb, gb = f.copy(), g.copy()
    sgd_step(f, g, 1, lr=0.3)
    err = 1.0 - 1.0 / (1.0 + math.exp(-float(np.dot(fb, gb))))
    np.testing.assert_allclose(f, fb + 0.3 * err * gb, rtol=1e-12)
    np.testing.assert_allclose(g, gb + 0.3 * err * fb, rtol=1e-12)


def test_step_updates_strided_views_in_place():
    rng = np.random.default_rng(5)
    F, G = rng.normal(size=(6, 3)), rng.normal(size=(6, 4))
    F_before, G_before = F.copy(), G.copy()
    f, g = F[:, 1].copy(), G[:, 2].copy()
    sgd_step(F[:, 1], G[:, 2], 0, lr=0.7)
    sgd_step(f, g, 0, lr=0.7)
    assert F[:, 1].tobytes() == f.tobytes() and G[:, 2].tobytes() == g.tobytes()
    assert G[:, [0, 1, 3]].tobytes() == G_before[:, [0, 1, 3]].tobytes()
    assert F[:, [0, 2]].tobytes() == F_before[:, [0, 2]].tobytes()


@pytest.mark.parametrize(
    "label, lr", [(2, 0.1), (-1, 0.1), (0.5, 0.1), (1, -0.1), (1, math.nan), (0, math.inf)]
)
def test_step_rejects_a_bad_label_or_rate(label, lr):
    f, g = np.ones(3), np.ones(3)
    with pytest.raises(InvalidConfigError, match="label 0 or 1"):
        sgd_step(f, g, label, lr)
    assert (f == 1.0).all() and (g == 1.0).all()


def test_block_step_sums_the_per_pair_steps_at_the_prestep_rows():
    """The trainer's step for a block equals the sum of sgd_step's deltas
    over its pairs, each taken at the block's pre-step rows."""
    rng = np.random.default_rng(12)
    f = rng.normal(size=(3, 5))
    context = rng.normal(size=(7, 5))
    # row 4: node 0's noise pair, twice node 1's, node 2's observed pair;
    # row 6 is named by no pair and must not move
    pairs = np.array([[1, 4, 5], [2, 4, 4], [4, 0, 3]])
    signs = np.array([1.0, -1.0, -1.0])
    lrs = np.array([0.3, 0.2, 0.1])  # one rate per node, as the decaying schedule gives
    want_f, want_context = f.copy(), context.copy()
    want_y = np.empty(pairs.shape)
    for b in range(3):
        for k in range(3):
            fs, gs = f[b].copy(), context[pairs[b, k]].copy()
            sgd_step(fs, gs, int(signs[k] > 0), lrs[b])
            want_f[b] += fs - f[b]
            want_context[pairs[b, k]] += gs - context[pairs[b, k]]
            want_y[b, k] = signs[k] * float(np.dot(f[b], context[pairs[b, k]]))
    y = _step(f, context, pairs, lrs[:, None] * signs, signs)
    np.testing.assert_allclose(y, want_y, rtol=1e-12)
    np.testing.assert_allclose(f, want_f, rtol=1e-12)
    np.testing.assert_allclose(context, want_context, rtol=1e-12)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_initialization(two_block_affinity):
    samplers = build_samplers(two_block_affinity)
    cfg = TrainConfig(d=4, samples_per_node=10, epochs=0, seed=12)
    emb, report = train(samplers, cfg)
    init_target, _ = init_embeddings(10, 4, cfg.init_scale, cfg.seed)
    assert emb.vectors.tobytes() == init_target.vectors.tobytes()
    assert report.epoch_loss == [] and report.positive_pairs == 0


def ring_affinity(n):
    """Each node's context is its two ring neighbors (one when n = 2)."""
    ids = [np.unique([(i - 1) % n, (i + 1) % n]) for i in range(n)]
    probs = [np.full(row.size, 1.0 / row.size) for row in ids]
    return AffinityMatrix(*csr(zip(ids, probs)), sigma_sq=np.ones(n))


# 50 nodes train in blocks of 6, the last block holding 2
@pytest.mark.parametrize("n", [2, 3, 10, 50])
def test_training_repeats_bit_for_bit_at_any_node_count(n):
    aff = ring_affinity(n)
    samplers = build_samplers(aff)
    cfg = TrainConfig(d=3, samples_per_node=4, negatives=2, epochs=3, seed=n)
    emb1, rep1 = train(samplers, cfg)
    emb2, rep2 = train(samplers, cfg)
    assert emb1.vectors.shape == (n, 3)
    assert np.isfinite(emb1.vectors).all() and len(rep1.epoch_loss) == 3
    assert emb1.vectors.tobytes() == emb2.vectors.tobytes()
    assert rep1.epoch_loss == rep2.epoch_loss


def test_training_is_bitwise_deterministic(two_block_affinity):
    samplers = build_samplers(two_block_affinity)
    cfg = TrainConfig(d=4, samples_per_node=20, epochs=5, seed=9)
    emb1, rep1 = train(samplers, cfg)
    emb2, rep2 = train(samplers, cfg)
    assert emb1.vectors.tobytes() == emb2.vectors.tobytes()
    # the whole report depends only on (samplers, cfg): it holds no timing
    assert asdict(rep1) == asdict(rep2)


def test_two_block_recovery_and_descent(two_block_affinity, block_labels):
    """Across seeds: epoch-5 loss beats epoch-1 loss, blocks separate in
    cosine similarity, and leave-one-out 1-NN on blocks is perfect."""
    for seed in range(5):
        samplers = build_samplers(two_block_affinity)
        cfg = TrainConfig(d=4, samples_per_node=50, epochs=20, seed=seed)
        emb, report = train(samplers, cfg)
        assert report.epoch_loss[4] < report.epoch_loss[0]

        unit = emb.vectors / np.linalg.norm(emb.vectors, axis=1, keepdims=True)
        sims = unit @ unit.T
        same = block_labels[:, None] == block_labels[None, :]
        off_diag = ~np.eye(10, dtype=bool)
        assert sims[same & off_diag].mean() > sims[~same].mean()

        np.fill_diagonal(sims, -2.0)
        assert np.array_equal(block_labels[sims.argmax(axis=1)], block_labels)


def test_three_block_recovery():
    from fgfusion import AffinityMatrix

    blocks = [range(0, 4), range(4, 8), range(8, 12)]
    labels = np.repeat([0, 1, 2], 4)
    neighbor_ids, probs = [], []
    for i in range(12):
        block = next(b for b in blocks if i in b)
        ids = np.array([j for j in block if j != i], dtype=np.int64)
        neighbor_ids.append(ids)
        probs.append(np.full(ids.size, 1 / 3))
    aff = AffinityMatrix(*csr(zip(neighbor_ids, probs)), sigma_sq=np.ones(12))
    for seed in range(3):
        samplers = build_samplers(aff)
        emb, _ = train(samplers, TrainConfig(d=4, samples_per_node=50, epochs=20, seed=seed))
        unit = emb.vectors / np.linalg.norm(emb.vectors, axis=1, keepdims=True)
        sims = unit @ unit.T
        np.fill_diagonal(sims, -2.0)
        assert np.array_equal(labels[sims.argmax(axis=1)], labels)


def test_embeddings_stay_bounded_with_default_lr(two_block_affinity):
    samplers = build_samplers(two_block_affinity)
    cfg = TrainConfig(d=8, samples_per_node=50, epochs=30, seed=1)
    emb, _ = train(samplers, cfg)
    assert np.abs(emb.vectors).max() <= 1e3


def test_divergence_detector_trips_on_huge_learning_rate(two_block_affinity):
    samplers = build_samplers(two_block_affinity)
    cfg = TrainConfig(d=4, samples_per_node=50, epochs=10, lr_start=200.0, lr_end=0.1, seed=1)
    with pytest.raises(DivergenceError):
        train(samplers, cfg)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test instead of hanging when the body runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_concentrated_noise_distribution_raises_instead_of_hanging():
    # a hub with in-strength 4 against 0.25 elsewhere: power 200 puts all
    # noise mass on the hub, so every draw of it as context clashes forever
    n = 5
    ids = [np.array([1, 2, 3, 4])] + [np.array([0]) for _ in range(1, n)]
    probs = [np.full(4, 0.25)] + [np.ones(1) for _ in range(1, n)]
    aff = AffinityMatrix(*csr(zip(ids, probs)), sigma_sq=np.ones(n))
    samplers = build_samplers(aff, noise_power=200.0)
    assert samplers.noise_probs[0] > 1 - 1e-12
    with time_limit(20), pytest.raises(InvalidConfigError, match="noise_power"):
        train(samplers, TrainConfig(d=4, samples_per_node=5, epochs=1, seed=0))


def test_train_rejects_a_threads_argument(two_block_affinity):
    samplers = build_samplers(two_block_affinity)
    cfg = TrainConfig(d=4, samples_per_node=10, epochs=2, seed=2)
    with pytest.raises(TypeError):
        train(samplers, cfg, threads=2)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        TrainConfig(d=0).validate()
    with pytest.raises(InvalidConfigError):
        TrainConfig(d=4, negatives=0).validate()
    with pytest.raises(InvalidConfigError):
        TrainConfig(d=4, lr_start=0.01, lr_end=0.02).validate()
    with pytest.raises(InvalidConfigError):
        TrainConfig(d=4, lr_start=0.01, lr_end=0.0).validate()
    for field in ("d", "samples_per_node", "negatives", "epochs", "seed"):
        with pytest.raises(InvalidConfigError, match=field):
            TrainConfig(**{"d": 4, field: 1.5}).validate()
    for field, value in [("init_scale", math.nan), ("init_scale", math.inf),
                         ("lr_start", math.inf), ("lr_start", math.nan), ("lr_end", math.nan)]:
        with pytest.raises(InvalidConfigError, match=field.split("_")[0]):
            TrainConfig(d=4, **{field: value}).validate()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda samplers: TrainConfig(d=4, samples_per_node=0).validate(), InvalidConfigError,
         "samples_per_node must be >= 1"),
        # finite, but past DIVERGENCE_LIMIT after the first epoch
        (lambda samplers: train(samplers, TrainConfig(
            d=4, samples_per_node=10, epochs=1, lr_start=20.0, lr_end=0.1, seed=1)),
         DivergenceError, "magnitude exceeded"),
    ],
    ids=["samples-per-node", "magnitude"],
)
def test_invalid_training_raises_its_typed_error(two_block_affinity, call, error, message):
    with pytest.raises(error, match=message):
        call(build_samplers(two_block_affinity))
