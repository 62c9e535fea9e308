import inspect
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fgfusion import (
    FeatureMatrix,
    LabelVector,
    PipelineConfig,
    ResultRow,
    ResultTable,
    SplitSpec,
    build_ejg,
    build_index,
    build_samplers,
    fuse_graphs,
    knn_classify,
    make_splits,
    normalize_affinity,
    pairwise_distances,
    run_pipeline,
    save_features,
    save_labels,
    sweep_report,
    synth_multimodal,
    zscore_concat,
)
from fgfusion import evalharness, knn
from fgfusion.dataset import EmbeddingMatrix
from fgfusion.errors import (
    ClassTooSmallError,
    EmptyTrainSetError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidSpecError,
    KOutOfRangeError,
    LengthMismatchError,
    PipelineStageError,
)
from fgfusion.knn import stable_topk, topk_arrays

from bruteforce import brute_splits, brute_vote_accuracy


def labels_of(seq, instances=None):
    return LabelVector(np.array(list(seq), dtype=object),
                       None if instances is None else np.array(instances, dtype=object))


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def test_per_class_train_m_sizes():
    labels = labels_of(["a"] * 10 + ["b"] * 10 + ["c"] * 10)
    (train, test), = make_splits(labels, SplitSpec("per_class_train_m", 3, repeats=1, seed=0))
    assert train.size == 9 and test.size == 21
    for c in ("a", "b", "c"):
        assert (labels.labels[train] == c).sum() == 3


def test_splits_partition_the_indices():
    labels = labels_of(["a"] * 10 + ["b"] * 10)
    for train, test in make_splits(labels, SplitSpec("per_class_train_m", 4, repeats=10, seed=1)):
        assert np.intersect1d(train, test).size == 0
        assert np.array_equal(np.union1d(train, test), np.arange(20))


def test_ten_repeats_are_distinct_and_reproducible():
    labels = labels_of(["a"] * 12 + ["b"] * 12)
    spec = SplitSpec("per_class_train_m", 3, repeats=10, seed=5)
    first = make_splits(labels, spec)
    second = make_splits(labels, spec)
    assert len(first) == 10
    for (t1, _), (t2, _) in zip(first, second):
        np.testing.assert_array_equal(t1, t2)
    assert len({tuple(t.tolist()) for t, _ in first}) > 1


def test_class_too_small():
    labels = labels_of(["a"] * 3 + ["b"] * 10)
    with pytest.raises(ClassTooSmallError):
        make_splits(labels, SplitSpec("per_class_train_m", 3, repeats=1, seed=0))


def test_leave_instance_out():
    labels = labels_of(
        ["a"] * 6 + ["b"] * 6,
        instances=["a1"] * 2 + ["a2"] * 2 + ["a3"] * 2 + ["b1"] * 3 + ["b2"] * 3,
    )
    splits = make_splits(labels, SplitSpec("leave_instance_out", 0, repeats=5, seed=2))
    for train, test in splits:
        held = set(labels.instance_ids[test].tolist())
        assert len(held) == 2  # one instance per class
        assert held & {"a1", "a2", "a3"} and held & {"b1", "b2"}
        assert not set(labels.instance_ids[train].tolist()) & held


def shuffled_labels(seed, n_classes, per_class, instances_per_class):
    """Unsorted labels with unevenly sized classes and instance ids."""
    rng = np.random.default_rng(seed)
    sizes = per_class + rng.integers(0, 4, size=n_classes)
    labels = np.repeat([f"c{c:02d}" for c in range(n_classes)], sizes)
    order = rng.permutation(labels.size)
    instances = [f"{lab}-i{rng.integers(instances_per_class)}" for lab in labels]
    return labels_of(labels[order], [instances[i] for i in order])


@pytest.mark.parametrize(
    "protocol, m_or_fraction",
    [("per_class_train_m", 3), ("leave_instance_out", 0), ("random_fraction", 0.4)],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_splits_match_the_per_class_mask_loop(protocol, m_or_fraction, seed):
    labels = shuffled_labels(seed, n_classes=7, per_class=6, instances_per_class=3)
    spec = SplitSpec(protocol, m_or_fraction, repeats=6, seed=seed)
    got = make_splits(labels, spec)
    want = brute_splits(labels, spec)
    assert len(got) == len(want)
    for (train, test), (want_train, want_test) in zip(got, want):
        np.testing.assert_array_equal(train, want_train)
        np.testing.assert_array_equal(test, want_test)


@pytest.mark.parametrize(
    "protocol, labels",
    [
        ("per_class_train_m", labels_of("bbbbaaacc", list("xyzxyzxyz"))),
        ("leave_instance_out", labels_of("bbbbaaacc", list("xxyyzzzvv"))),
    ],
)
def test_splits_report_the_same_small_class(protocol, labels):
    spec = SplitSpec(protocol, 3, repeats=2, seed=0)
    with pytest.raises(ClassTooSmallError) as got:
        make_splits(labels, spec)
    with pytest.raises(ClassTooSmallError) as want:
        brute_splits(labels, spec)
    assert str(got.value) == str(want.value)


def test_leave_instance_out_requires_ids():
    labels = labels_of(["a"] * 4 + ["b"] * 4)
    with pytest.raises(InvalidSpecError):
        make_splits(labels, SplitSpec("leave_instance_out", 0, repeats=1, seed=0))


def test_leave_instance_out_needs_two_instances():
    labels = labels_of(["a"] * 4 + ["b"] * 4,
                       instances=["a1"] * 4 + ["b1", "b1", "b2", "b2"])
    with pytest.raises(ClassTooSmallError):
        make_splits(labels, SplitSpec("leave_instance_out", 0, repeats=1, seed=0))


def test_random_fraction():
    labels = labels_of(["a"] * 20 + ["b"] * 20)
    (train, test), = make_splits(labels, SplitSpec("random_fraction", 0.3, repeats=1, seed=3))
    assert train.size == 12 and test.size == 28


def test_bad_specs():
    labels = labels_of(["a", "a", "b", "b"])
    with pytest.raises(InvalidSpecError):
        make_splits(labels, SplitSpec("bogus", 1, repeats=1, seed=0))
    with pytest.raises(InvalidSpecError):
        make_splits(labels, SplitSpec("random_fraction", 1.5, repeats=1, seed=0))
    with pytest.raises(InvalidSpecError):
        make_splits(labels, SplitSpec("per_class_train_m", 2.5, repeats=1, seed=0))
    with pytest.raises(InvalidSpecError):
        make_splits(labels_of("aaaa"), SplitSpec("per_class_train_m", 1, repeats=1, seed=0))
    for repeats, seed in ((2.5, 0), (1, 1.5)):
        with pytest.raises(InvalidSpecError):
            make_splits(labels, SplitSpec("per_class_train_m", 1, repeats=repeats, seed=seed))


@pytest.mark.parametrize("value", [None, float("nan"), float("inf")])
@pytest.mark.parametrize("protocol", ["per_class_train_m", "random_fraction"])
def test_a_spec_without_a_finite_m_or_fraction_names_its_protocol(protocol, value):
    with pytest.raises(InvalidSpecError, match=protocol):
        SplitSpec(protocol, value).validate()


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


def test_duplicate_of_train_point_is_classified():
    data = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 0.0], [9.0, 9.0]])
    labels = labels_of(["x", "y", "x", "y"])
    acc = knn_classify(data, labels, np.array([0, 1]), np.array([2, 3]), votes=1)
    assert acc == 1.0


def test_chance_level_on_permuted_labels():
    rng_global = np.random.default_rng(0)
    accs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        data = rng_global.normal(size=(200, 4))
        labels = labels_of(rng.permutation(["u"] * 100 + ["v"] * 100))
        train = np.arange(0, 200, 2)
        test = np.arange(1, 200, 2)
        accs.append(knn_classify(data, labels, train, test))
    assert 0.4 <= np.mean(accs) <= 0.6


def test_perfect_on_separable_concatenation():
    mat_a, mat_b, labels = synth_multimodal(4, 10, noise=0.0, complementarity=1.0, seed=1)
    concat = np.hstack([mat_a.data, mat_b.data])
    train = np.concatenate([np.arange(c * 10, c * 10 + 5) for c in range(4)])
    test = np.setdiff1d(np.arange(40), train)
    assert knn_classify(concat, labels, train, test) == 1.0


def test_empty_train_set():
    labels = labels_of(["a", "b", "a", "b"])
    with pytest.raises(EmptyTrainSetError):
        knn_classify(np.eye(4), labels, np.array([], dtype=int), np.array([0, 1]))


def test_overlapping_indices_rejected():
    labels = labels_of(["a", "b", "a", "b"])
    with pytest.raises(InvalidSpecError):
        knn_classify(np.eye(4), labels, np.array([0, 1]), np.array([1, 2]))


@pytest.mark.parametrize("train, test", [([0, -1], [2]), ([0, 1], [4]), ([0, 4], [2])])
def test_indices_outside_the_rows_rejected(train, test):
    # a negative index would otherwise wrap to the last row
    labels = labels_of(["a", "b", "a", "b"])
    with pytest.raises(InvalidSpecError):
        knn_classify(np.eye(4), labels, np.array(train), np.array(test))


def test_empty_test_set_rejected():
    # it would otherwise score nan, with a "Mean of empty slice" warning
    labels = labels_of(["a", "b", "a", "b"])
    for empty in (np.array([], dtype=int), []):
        with pytest.raises(InvalidSpecError, match="empty test set"):
            knn_classify(np.eye(4), labels, np.array([0, 1]), empty)


@pytest.mark.parametrize("bad", [[5.7, 6.2], [5.0, 6.0], [True, False]])
@pytest.mark.parametrize("side", ["train", "test"])
def test_non_integer_indices_rejected(side, bad):
    # float indices would be truncated: test [5.7, 6.2] would classify rows 5 and 6
    labels = labels_of(["a", "b"] * 4)
    train, test = np.array([0, 1, 2]), np.array([5, 6])
    if side == "train":
        train, test = np.array(bad), np.array([3, 4])
    else:
        test = np.array(bad)
    with pytest.raises(InvalidSpecError, match=f"{side} indices must be integers"):
        knn_classify(np.eye(8), labels, train, test)


def test_unsigned_indices_classify_as_signed_ones():
    labels = labels_of(["a", "b"] * 4)
    data = np.random.default_rng(0).normal(size=(8, 3))
    train, test = np.array([0, 1, 2, 3]), np.array([4, 5, 6, 7])
    assert knn_classify(data, labels, train.astype(np.uint32), test.astype(np.uint64)) == \
        knn_classify(data, labels, train, test)


@pytest.mark.parametrize("label_count", [3, 5])
def test_label_count_must_match_the_rows(label_count):
    labels = labels_of(("ab" * 4)[:label_count])
    with pytest.raises(LengthMismatchError):
        knn_classify(np.eye(4), labels, np.array([0, 1]), np.array([2]))


def test_majority_vote_with_tie_falls_back_to_nearest():
    # query at origin: neighbors at distance 1 ("x"), 2 ("y"), 3 ("y"), 4 ("x")
    data = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    labels = labels_of(["?", "x", "y", "y", "x"])
    acc = knn_classify(data, labels, np.arange(1, 5), np.array([0]), votes=4)
    # 2-2 tie between x and y; nearest vote is "x", but truth is "?": accuracy 0
    assert acc == 0.0
    labels2 = labels_of(["x", "x", "y", "y", "x"])
    assert knn_classify(data, labels2, np.arange(1, 5), np.array([0]), votes=4) == 1.0
    # clear majority (2 of 3) overrides the nearest single neighbor
    labels3 = labels_of(["y", "x", "y", "y", "x"])
    assert knn_classify(data, labels3, np.arange(1, 5), np.array([0]), votes=3) == 1.0
    assert knn_classify(data, labels3, np.arange(1, 5), np.array([0]), votes=np.int64(3)) == 1.0
    for votes in (0, 2.5, float("nan")):
        with pytest.raises(InvalidConfigError, match="votes"):
            knn_classify(data, labels3, np.arange(1, 5), np.array([0]), votes=votes)


def sorted_vote_accuracy(data, labels, train_idx, test_idx, votes):
    """knn_classify by a full (distance, train position) sort of every row."""
    dists = pairwise_distances(data[test_idx], data[train_idx])
    correct = 0
    for row, q in zip(dists, test_idx):
        ranked = [labels.labels[train_idx[j]] for _, j in sorted(zip(row, range(len(row))))]
        counts = {lab: ranked[:votes].count(lab) for lab in ranked[:votes]}
        winner = next(lab for lab in ranked if counts.get(lab) == max(counts.values()))
        correct += winner == labels.labels[q]
    return correct / len(test_idx)


@pytest.mark.parametrize("votes", [1, 3])
def test_duplicate_train_points_resolve_like_a_full_sort(votes):
    # every train point has exact duplicates with different labels, so the
    # nearest neighbors tie and the lower train position must win
    rng = np.random.default_rng(votes)
    base = np.round(rng.normal(size=(6, 3)), 1)
    data = np.vstack([base[rng.integers(6, size=60)], np.round(rng.normal(size=(30, 3)), 1)])
    labels = labels_of(rng.choice(["a", "b", "c"], size=90))
    for seed in range(5):
        order = np.random.default_rng(seed).permutation(90)
        train, test = np.sort(order[:50]), np.sort(order[50:])
        got = knn_classify(data, labels, train, test, votes=votes)
        assert got == sorted_vote_accuracy(data, labels, train, test, votes)


# integer points on a 4 x 4 grid make distance ties common, and two or three
# labels make vote ties common
vote_cases = st.tuples(st.integers(1, 7), st.integers(2, 3)).flatmap(
    lambda case: st.tuples(
        st.just(case[0]),
        arrays(np.float64, (24, 2), elements=st.integers(0, 3).map(float)),
        st.lists(st.sampled_from("xyz"[: case[1]]), min_size=24, max_size=24),
        st.lists(st.booleans(), min_size=24, max_size=24),
    )
)


@settings(max_examples=200, deadline=None)
@given(vote_cases)
def test_majority_vote_matches_a_per_row_count(case):
    votes, data, names, in_train = case
    train, test = np.flatnonzero(in_train), np.flatnonzero(~np.array(in_train))
    assume(train.size and test.size)
    labels = labels_of(names)
    order = stable_topk(pairwise_distances(data[test], data[train]), min(votes, train.size))
    expected = brute_vote_accuracy(labels.labels[train[order]], labels.labels[test])
    assert knn_classify(data, labels, train, test, votes=votes) == expected


# ---------------------------------------------------------------------------
# Result table and sweep report
# ---------------------------------------------------------------------------


def test_mean_std_recomputable():
    rng = np.random.default_rng(9)
    accs = tuple(rng.random(10).tolist())
    row = ResultRow("fgf", 50, 100, accs)
    assert abs(row.mean - sum(accs) / 10) < 1e-9
    manual = (sum((a - row.mean) ** 2 for a in accs) / 9) ** 0.5
    assert abs(row.std - manual) < 1e-9


def test_single_split_std_is_zero():
    assert ResultRow("fgf", 10, 10, (0.5,)).std == 0.0


def test_csv_layout():
    table = ResultTable([
        ResultRow("rgb", None, 4, (0.5, 0.6)),
        ResultRow("fgf", 10, 8, (0.7, 0.8)),
    ])
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "method,k,d,s-1,s-2,mean,std"
    assert lines[1].startswith("rgb,,4,0.5,0.6,")
    assert lines[2].startswith("fgf,10,8,0.7,0.8,")


def test_sweep_report_zero_spread_when_flat():
    table = ResultTable([
        ResultRow("fgf", k, d, (0.5, 0.5)) for k in (10, 20) for d in (4, 8)
    ])
    text = sweep_report(table, "k")
    for line in text.strip().split("\n")[1:]:
        assert line.endswith(",0.0")


def test_sweep_report_three_by_three_layout_and_recompute():
    rng = np.random.default_rng(10)
    rows = [
        ResultRow("fgf", k, d, tuple(rng.random(10).tolist()))
        for k in (50, 100, 150)
        for d in (50, 100, 200)
    ]
    table = ResultTable(rows)
    for axis, idx in (("k", 0), ("d", 1)):
        text = sweep_report(table, axis)
        lines = text.strip().split("\n")
        assert lines[0] == f"{axis},mean_accuracy,spread"
        assert len(lines) == 4
        # recompute independently from the row means
        for line in lines[1:]:
            value, mean_s, spread_s = line.split(",")
            group = [r.mean for r in rows if getattr(r, axis) == int(value)]
            assert float(mean_s) == pytest.approx(sum(group) / len(group), abs=1e-12)
            assert float(spread_s) == pytest.approx(max(group) - min(group), abs=1e-12)


def test_sweep_report_needs_two_axis_values():
    table = ResultTable([ResultRow("fgf", 10, 4, (0.5,)), ResultRow("fgf", 10, 8, (0.5,))])
    with pytest.raises(InsufficientDataError):
        sweep_report(table, "k")


# ---------------------------------------------------------------------------
# z-scored concatenation
# ---------------------------------------------------------------------------


def test_zscore_concat_standardizes_each_dimension():
    rng = np.random.default_rng(12)
    a = FeatureMatrix(rng.normal(loc=5.0, scale=3.0, size=(40, 2)), "a")
    b = FeatureMatrix(rng.normal(loc=-2.0, scale=0.1, size=(40, 3)), "b")
    joint = zscore_concat([a, b])
    assert joint.shape == (40, 5)
    np.testing.assert_allclose(joint.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(joint.std(axis=0), 1.0, atol=1e-12)


def test_zscore_concat_constant_dimension_stays_finite():
    a = FeatureMatrix(np.ones((4, 2)), "a")
    b = FeatureMatrix(np.arange(8.0).reshape(4, 2), "b")
    joint = zscore_concat([a, b])
    assert np.isfinite(joint).all()


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def write_fixture(tmp_path, n_classes=4, per_class=12, noise=0.25, seed=0):
    mat_a, mat_b, labels = synth_multimodal(n_classes, per_class, noise, 1.0, seed)
    save_features(mat_a, tmp_path / "a.csv", "csv")
    save_features(mat_b, tmp_path / "b.csv", "csv")
    save_labels(labels, tmp_path / "labels.txt")
    return {
        "features": [
            {"path": str(tmp_path / "a.csv"), "format": "csv", "name": "modality_a"},
            {"path": str(tmp_path / "b.csv"), "format": "csv", "name": "modality_b"},
        ],
        "labels": str(tmp_path / "labels.txt"),
        "k": [6],
        "d": [8],
        "samples_per_node": 15,
        "epochs": 6,
        "lr_start": 0.05,
        "protocol": "per_class_train_m",
        "m_or_fraction": 4,
        "repeats": 3,
        "seed": 7,
    }


def test_pipeline_row_inventory(tmp_path):
    config = PipelineConfig(**write_fixture(tmp_path))
    result = run_pipeline(config)
    methods = [r.method for r in result.table.rows]
    assert methods == ["modality_a", "modality_b", "joint", "fgf"]
    assert result.table.repeats == 3
    assert (6, 8) in result.embeddings


def test_pipeline_sweep_emits_all_cells(tmp_path):
    params = write_fixture(tmp_path)
    params["k"] = [5, 8]
    params["d"] = [4, 8]
    params["epochs"] = 3
    result = run_pipeline(PipelineConfig(**params))
    fgf = result.table.fgf_rows()
    assert [(r.k, r.d) for r in fgf] == [(5, 4), (5, 8), (8, 4), (8, 8)]
    assert len(result.table.rows) == 3 + 4


def test_pipeline_sweep_searches_once_per_modality(tmp_path, monkeypatch):
    """Each k of a sweep takes a prefix of one search at the widest k, and
    scores exactly as a run of that k alone."""
    params = write_fixture(tmp_path)
    params.update(k=[3, 7, 5], k2=6, epochs=2)
    searches = []

    def search(index, k):
        searches.append(k)
        return topk_arrays(index, k)

    monkeypatch.setattr(knn, "topk_arrays", search)
    sweep = run_pipeline(PipelineConfig(**params)).table.fgf_rows()
    assert searches == [7, 7]
    for k in (3, 7, 5):
        alone = run_pipeline(PipelineConfig(**{**params, "k": [k]})).table.fgf_rows()
        assert alone == [r for r in sweep if r.k == k]


@pytest.mark.parametrize(
    "field, value",
    [("k", [48]), ("k", [5, 48]), ("k1", 48), ("k2", 60), ("k1", 0), ("k2", -3)],
)
def test_pipeline_checks_k_k1_and_k2_against_n_before_scoring(tmp_path, monkeypatch, field, value):
    """The fixture has 48 samples: each of k, k1 and k2 must lie in [1, 47]."""
    params = write_fixture(tmp_path)
    params[field] = value

    def no_scoring(*args, **kwargs):
        raise AssertionError("a baseline was scored")

    monkeypatch.setattr(evalharness, "knn_classify", no_scoring)
    with pytest.raises(KOutOfRangeError, match=f"^{field}="):
        run_pipeline(PipelineConfig(**params))


@pytest.mark.parametrize("field, value", [("k", [47]), ("k1", 47), ("k2", 1)])
def test_pipeline_accepts_k_k1_and_k2_up_to_n_minus_1(tmp_path, monkeypatch, field, value):
    params = write_fixture(tmp_path)
    params[field] = value

    class Scored(Exception):
        pass

    def scored(*args, **kwargs):
        raise Scored

    monkeypatch.setattr(evalharness, "knn_classify", scored)
    with pytest.raises(Scored):
        run_pipeline(PipelineConfig(**params))


def test_pipeline_is_deterministic(tmp_path):
    params = write_fixture(tmp_path)
    first = run_pipeline(PipelineConfig(**params)).table.to_csv()
    second = run_pipeline(PipelineConfig(**params)).table.to_csv()
    assert first == second


def test_pipeline_fused_beats_single_modalities(tmp_path):
    params = write_fixture(tmp_path, n_classes=6, per_class=16, noise=0.25, seed=3)
    params.update(k=[10], d=[16], samples_per_node=30, epochs=15, m_or_fraction=6)
    result = run_pipeline(PipelineConfig(**params))
    rows = {r.method: r for r in result.table.rows}
    assert rows["fgf"].mean >= max(rows["modality_a"].mean, rows["modality_b"].mean)


def test_pipeline_stage_annotation_on_missing_file(tmp_path):
    params = write_fixture(tmp_path)
    params["features"][0]["path"] = str(tmp_path / "gone.csv")
    with pytest.raises(PipelineStageError) as exc:
        run_pipeline(PipelineConfig(**params))
    assert exc.value.stage == "load"
    assert isinstance(exc.value.__cause__, FileNotFoundError)


def test_pipeline_defaults_are_the_library_defaults():
    def default(func, name):
        return inspect.signature(func).parameters[name].default

    assert PipelineConfig.metric == default(build_index, "metric")
    assert PipelineConfig.weight_mode == default(build_ejg, "mode")
    assert PipelineConfig.combine == default(fuse_graphs, "combine")
    assert PipelineConfig.kernel == default(normalize_affinity, "kernel_input")
    assert PipelineConfig.votes == default(knn_classify, "votes")
    assert PipelineConfig.noise_power == default(build_samplers, "noise_power")


def test_pipeline_config_validation(tmp_path):
    params = write_fixture(tmp_path)
    params["features"] = params["features"][:1]
    with pytest.raises(InvalidConfigError):
        PipelineConfig(**params).validate()


@pytest.mark.parametrize("power", [float("nan"), -1.0])
def test_pipeline_config_rejects_bad_noise_power(tmp_path, power):
    params = write_fixture(tmp_path)
    params["noise_power"] = power
    with pytest.raises(InvalidConfigError, match="noise_power"):
        PipelineConfig(**params).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("noise_power", "0.75"),
        ("votes", "3"),
        ("k", ["6"]),
        ("d", [8, "8"]),
        ("k1", "6"),
        ("epochs", 2.5),
        ("lr_start", None),
        ("m_or_fraction", "4"),
        ("repeats", "3"),
        ("epochs", True),
        ("k", [True]),
        ("noise_power", False),
        ("header", "false"),
        ("header", 0),
        # the shape checks from_json applies, on a config built in Python
        ("features", [{"path": 1}, {"path": 2}]),
        ("features", [{"name": "a"}, {"name": "b"}]),
        ("features", ["a.csv", "b.csv"]),
        ("features", None),
        ("features", [{"path": "a.csv", "name": 5}, {"path": "b.csv"}]),
        ("labels", None),
        ("labels", 5),
        # a misspelt spec key or an unknown format, caught before any file is read
        ("features", [{"path": "a.bin", "format": "binary", "nmae": "rgb"}, {"path": "b.csv"}]),
        ("features", [{"path": "a.bin", "fromat": "binary"}, {"path": "b.csv"}]),
        ("features", [{"path": "a.bin", "format": "bin"}, {"path": "b.csv"}]),
        ("features", [{"path": "a.csv", "format": None}, {"path": "b.csv"}]),
    ],
)
def test_pipeline_config_rejects_wrongly_typed_fields(tmp_path, field, value):
    params = write_fixture(tmp_path)
    params[field] = value
    with pytest.raises(InvalidConfigError, match=field):
        PipelineConfig(**params).validate()


@pytest.mark.parametrize(
    "field, value",
    [
        ("metric", "manhattan"),
        ("weight_mode", "jaccard"),
        ("combine", "mean"),
        ("kernel", ["literal"]),
        ("protocol", "leave_one_out"),
        ("init_scale", float("nan")),
        ("init_scale", float("inf")),
        ("lr_start", float("inf")),
        ("epochs", -1),
    ],
)
def test_pipeline_config_rejects_bad_values_before_any_stage(tmp_path, field, value):
    params = write_fixture(tmp_path)
    params[field] = value
    with pytest.raises(InvalidConfigError, match=field.split("_")[0]):
        PipelineConfig(**params).validate()


@pytest.mark.parametrize("field, values", [("k", [5, 5]), ("d", [4, 8, 4])])
def test_pipeline_config_rejects_a_repeated_sweep_value(tmp_path, field, values):
    params = write_fixture(tmp_path)
    params[field] = values
    with pytest.raises(InvalidConfigError, match=f"{field} sweep repeats a value"):
        PipelineConfig(**params).validate()


def test_pipeline_config_rejects_a_string_from_json(tmp_path):
    params = write_fixture(tmp_path)
    params["noise_power"] = "0.75"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(params))
    with pytest.raises(InvalidConfigError, match="noise_power"):
        PipelineConfig.from_json(config_path).validate()


def test_pipeline_config_from_json_skips_a_leading_byte_order_mark(tmp_path):
    text = json.dumps(write_fixture(tmp_path))
    (tmp_path / "config.json").write_text(text, encoding="utf-8")
    (tmp_path / "bom.json").write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "bom.json").read_bytes().startswith(b"\xef\xbb\xbf")
    plain, bom = (PipelineConfig.from_json(tmp_path / name) for name in ("config.json", "bom.json"))
    assert bom == plain


def test_pipeline_config_from_json(tmp_path):
    params = write_fixture(tmp_path)
    # make paths relative to exercise resolution against the config location
    params["features"][0]["path"] = "a.csv"
    params["features"][1]["path"] = "b.csv"
    params["labels"] = "labels.txt"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(params))
    config = PipelineConfig.from_json(config_path)
    assert config.labels == str(tmp_path / "labels.txt")
    config.validate()

    params["mystery_knob"] = 3
    config_path.write_text(json.dumps(params))
    with pytest.raises(InvalidConfigError):
        PipelineConfig.from_json(config_path)


@pytest.mark.parametrize(
    "text, problem",
    [
        ("5", "must be a JSON object"),
        ('["a.csv", "b.csv"]', "must be a JSON object"),
        ('{"features": ["a.csv", "b.csv"], "labels": "labels.txt"}', "'features' must list"),
        ('{"features": [{"name": "a"}, {"name": "b"}], "labels": "l.txt"}', "'features' must list"),
        ('{"features": {"path": "a.csv"}, "labels": "labels.txt"}', "'features' must list"),
        ('{"features": [{"path": "a.csv", "name": 5}, {"path": "b.csv"}], "labels": "l.txt"}',
         "'features' must list"),
        ('{"features": [{"path": "a.csv"}, {"path": "b.csv"}], "labels": 5}', "'labels' must"),
        ('{"features": [{"path": "a.bin", "nmae": "rgb"}, {"path": "b.csv"}], "labels": "l.txt"}',
         "unknown keys \\['nmae'\\]"),
        ('{"features": [{"path": "a.bin", "fromat": "binary"}, {"path": "b.csv"}], '
         '"labels": "l.txt"}', "unknown keys \\['fromat'\\]"),
        ('{"features": [{"path": "a.bin", "format": "bin"}, {"path": "b.csv"}], '
         '"labels": "l.txt"}', "format 'bin' not in"),
    ],
    ids=["number", "list", "feature-strings", "no-path", "features-object", "name-number",
         "labels-number", "misspelt-name", "misspelt-format", "unknown-format"],
)
def test_pipeline_config_from_json_rejects_a_malformed_shape(tmp_path, text, problem):
    config_path = tmp_path / "config.json"
    config_path.write_text(text)
    with pytest.raises(InvalidConfigError, match=problem):
        PipelineConfig.from_json(config_path)


def test_pipeline_manifest_names_the_metric_each_classifier_used(tmp_path, monkeypatch):
    used = {"baseline": [], "fgf": []}

    def recording(data, labels, train_idx, test_idx, metric, votes):
        used["fgf" if isinstance(data, EmbeddingMatrix) else "baseline"].append(metric)
        return knn_classify(data, labels, train_idx, test_idx, metric, votes)

    monkeypatch.setattr(evalharness, "knn_classify", recording)
    classifier = run_pipeline(PipelineConfig(**write_fixture(tmp_path))).manifest["classifier"]
    assert used["baseline"] == [classifier["baseline_metric"]] * 9  # 3 baselines x 3 splits
    assert used["fgf"] == [classifier["fgf_metric"]] * 3


def test_pipeline_manifest_contents(tmp_path):
    result = run_pipeline(PipelineConfig(**write_fixture(tmp_path)))
    manifest = result.manifest
    assert manifest["config"]["k"] == [6]
    assert manifest["classifier"]["fgf_metric"] == "cosine"
    assert "k6_d8" in manifest["train_reports"]
    assert len(manifest["train_reports"]["k6_d8"]["epoch_loss"]) == 6
    # a report depends only on its inputs; each cell's time is its embed stage's record
    assert list(manifest["train_reports"]["k6_d8"]) == ["epoch_loss", "positive_pairs"]
    assert "timings" not in manifest


def _sweep_config(tmp_path) -> PipelineConfig:
    return PipelineConfig(**{**write_fixture(tmp_path), "k": [6, 4], "d": [8, 3], "epochs": 2})


def test_pipeline_manifest_lists_every_stage_in_run_order(tmp_path):
    stages = run_pipeline(_sweep_config(tmp_path)).manifest["stages"]
    expected = ["load", "splits", "baselines", "knn"]
    for k in (6, 4):
        expected += [f"graphs[k={k}]"]
        expected += [f"embed[k={k},d={d}]" for d in (8, 3)]
        expected += [f"classify[k={k},d={d}]" for d in (8, 3)]
    assert [record["stage"] for record in stages] == expected
    for record in stages:
        assert list(record) == ["stage", "seconds"]
        assert np.isfinite(record["seconds"]) and record["seconds"] >= 0


def test_pipeline_manifests_differ_only_in_stage_seconds(tmp_path):
    config = _sweep_config(tmp_path)
    manifests = [run_pipeline(config).manifest for _ in range(2)]
    for manifest in manifests:
        for record in manifest["stages"]:
            del record["seconds"]
    assert manifests[0] == manifests[1]
