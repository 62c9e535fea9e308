import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fgfusion import (
    SparseGraph,
    build_ejg,
    build_index,
    fuse_graphs,
    load_graph,
    save_graph,
    synth_multimodal,
)
from fgfusion import ejgraph, knn
from fgfusion.ejgraph import WEIGHT_MODES
from fgfusion.errors import InvalidConfigError, KOutOfRangeError

from bruteforce import brute_edge_weight, brute_ejg_weights, brute_jaccard, csr


# ---------------------------------------------------------------------------
# The oracle's formulas, evaluated by hand
# ---------------------------------------------------------------------------


def test_jaccard_identical_sets():
    assert brute_jaccard({1, 2, 3}, {1, 2, 3}) == 1.0


def test_jaccard_disjoint_sets():
    assert brute_jaccard({1, 2}, {3, 4}) == 0.0


def test_jaccard_partial_overlap():
    assert brute_jaccard({1, 2, 3, 4}, {3, 4, 5, 6}) == pytest.approx(2 / 6)


def test_jaccard_range_and_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(200):
        a = set(rng.integers(0, 20, size=rng.integers(1, 10)).tolist())
        b = set(rng.integers(0, 20, size=rng.integers(1, 10)).tolist())
        j = brute_jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == brute_jaccard(b, a)
        assert brute_jaccard(a, a) == 1.0


def test_indicator_confirms_when_overlapping_member():
    # of N_k1(c) = {2, 3}, only 2's second-level neighborhood overlaps it
    assert brute_edge_weight({1, 2}, {2, 3}, {2: {3, 9}, 3: {8, 9}}, k1=2) == 1.0


def test_indicator_zero_when_not_a_neighbor():
    # 7 lies outside N_k1(c), so its overlapping neighborhood confirms nothing
    n_k2 = {2: {8, 9}, 3: {8, 9}, 7: {2, 3}}
    assert brute_edge_weight({1, 2}, {2, 3}, n_k2, k1=2) == 0.0


def test_indicator_zero_when_sets_disjoint():
    assert brute_edge_weight({1, 2}, {2, 3}, {2: {8}, 3: {9}}, k1=2) == 0.0


def test_edge_weight_all_confirmed_hits_upper_bound():
    n_k2 = {2: {3, 9}, 3: {2, 9}, 4: {2, 3}}
    assert brute_edge_weight({1, 2, 3}, {2, 3, 4}, n_k2, k1=3, mode="literal") == 3.0


def test_edge_weight_nothing_confirmed_is_zero_in_both_modes():
    n_k2 = {2: {8, 9}, 3: {8, 9}}
    assert brute_edge_weight({1, 2}, {2, 3}, n_k2, k1=2, mode="literal") == 0.0
    assert brute_edge_weight({1, 2}, {2, 3}, n_k2, k1=2, mode="jaccard-scaled") == 0.0


def test_edge_weight_monotone_in_confirmations():
    """Turning one disjoint second-level neighborhood into an overlapping
    one never lowers the weight, in either mode."""
    base_n_k2 = {2: {8, 9}, 3: {8, 9}, 4: {8, 9}}
    richer_n_k2 = {2: {3, 9}, 3: {8, 9}, 4: {8, 9}}
    for mode in ("literal", "jaccard-scaled"):
        lo = brute_edge_weight({1, 2, 3}, {2, 3, 4}, base_n_k2, 3, mode)
        hi = brute_edge_weight({1, 2, 3}, {2, 3, 4}, richer_n_k2, 3, mode)
        assert hi >= lo


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def test_two_point_graph_weights_are_zero():
    # Each point's sole neighbor is the other: N_k1 of the neighbor and
    # N_k2 of its own second-level neighbor never intersect, so no edge
    # is ever confirmed.
    index = build_index(np.array([[0.0], [1.0]]))
    for mode in ("literal", "jaccard-scaled"):
        graph = build_ejg(index, k=1, mode=mode)
        assert [len(ids) for ids in graph.neighbor_ids] == [1, 1]
        assert graph.weights[0][0] == 0.0 and graph.weights[1][0] == 0.0


def test_two_cluster_fixture_matches_hand_evaluation():
    """Two tight 4-point squares: every in-cluster neighbor is confirmed by
    all k1 second-level neighbors, so every literal weight is exactly k1."""
    cluster = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    matrix = np.vstack([cluster, cluster + [10.0, 0.0]])
    index = build_index(matrix)
    graph = build_ejg(index, k=3, k1=3, k2=3, mode="literal")
    oracle = brute_ejg_weights(matrix, 3, 3, 3, mode="literal")
    for q in range(8):
        for j, w in zip(graph.neighbor_ids[q], graph.weights[q]):
            assert w == oracle[(q, int(j))]
            assert w == 3.0


@pytest.mark.parametrize(
    "kwargs, name",
    [({"k2": -3}, "k2"), ({"k2": 0}, "k2"), ({"k1": 0}, "k1"), ({"k1": 15}, "k1"),
     ({"k2": 15}, "k2"), ({"k": 0}, "k")],
)
def test_build_ejg_checks_k_k1_and_k2(kwargs, name):
    # a negative k2 used to slice ids[:, :-3], a zero k2 gave all-zero weights
    # and a zero k1 NaN weights
    index = build_index(np.random.default_rng(0).normal(size=(15, 3)))
    with pytest.raises(KOutOfRangeError, match=f"^{name}="):
        build_ejg(index, **{"k": 5, **kwargs})


def test_rows_have_exactly_k_entries():
    rng = np.random.default_rng(0)
    index = build_index(rng.normal(size=(15, 3)))
    graph = build_ejg(index, k=4)
    graph.validate()
    assert all(ids.size == 4 for ids in graph.neighbor_ids)


def test_build_is_deterministic():
    rng = np.random.default_rng(21)
    matrix = rng.normal(size=(20, 4))
    first = build_ejg(build_index(matrix), 5)
    second = build_ejg(build_index(matrix), 5)
    for q in range(20):
        np.testing.assert_array_equal(first.neighbor_ids[q], second.neighbor_ids[q])
        np.testing.assert_array_equal(first.weights[q], second.weights[q])


@pytest.mark.parametrize("mode", ["literal", "jaccard-scaled"])
def test_matches_naive_transcription_on_random_fixtures(mode):
    rng = np.random.default_rng(17)
    for _ in range(8):
        n = int(rng.integers(6, 31))
        matrix = rng.normal(size=(n, int(rng.integers(2, 6))))
        k = int(rng.integers(1, 6))
        k1 = int(rng.integers(1, 6))
        k2 = int(rng.integers(1, 6))
        graph = build_ejg(build_index(matrix), k, k1, k2, mode=mode)
        oracle = brute_ejg_weights(matrix, k, k1, k2, mode=mode)
        for q in range(n):
            for j, w in zip(graph.neighbor_ids[q], graph.weights[q]):
                if mode == "literal":
                    assert w == oracle[(q, int(j))]
                else:
                    assert w == pytest.approx(oracle[(q, int(j))], rel=1e-12, abs=1e-15)


# Small exact-arithmetic fixtures: integer points (euclidean) and scaled
# {-1, 1}^4 points (cosine) make every distance exact in both the library
# and the oracle, so duplicates and distance ties resolve identically.
def tie_fixture(metric):
    if metric == "euclidean":
        rows = arrays(np.float64, st.tuples(st.integers(4, 14), st.just(3)),
                      elements=st.integers(-2, 2).map(float))
    else:
        rows = st.integers(4, 14).flatmap(lambda n: st.tuples(
            arrays(np.float64, (n, 4), elements=st.sampled_from([-1.0, 1.0])),
            arrays(np.float64, (n, 1), elements=st.sampled_from([1.0, 2.0, 4.0])),
        )).map(lambda pair: pair[0] * pair[1])
    return rows.flatmap(lambda m: st.tuples(
        st.just(m), *(st.integers(1, len(m) - 1) for _ in range(3))
    ))


def assert_matches_oracle(matrix, k, k1, k2, metric, mode):
    graph = build_ejg(build_index(matrix, metric), k, k1, k2, mode=mode)
    oracle = brute_ejg_weights(matrix, k, k1, k2, metric=metric, mode=mode)
    for q in range(len(matrix)):
        assert graph.neighbor_ids[q].size == k
        for j, w in zip(graph.neighbor_ids[q], graph.weights[q]):
            assert w == oracle[(q, int(j))]


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("mode", ["literal", "jaccard-scaled"])
def test_matches_oracle_with_duplicates_and_distance_ties(metric, mode):
    @settings(max_examples=60, deadline=None)
    @given(tie_fixture(metric))
    def check(case):
        matrix, k, k1, k2 = case
        assert_matches_oracle(matrix, k, k1, k2, metric, mode)

    check()


def duplicated_fixture():
    """13 exact points: scaled copies of four sign vectors, some repeated."""
    signs = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [-1, -1, 1, 1], [1, 1, -1, 1]], float)
    return np.vstack([signs, 2 * signs, signs[:2], 4 * signs[1:]])


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("mode", ["literal", "jaccard-scaled"])
def test_distinct_k_k1_k2_on_a_duplicated_fixture(metric, mode):
    for k, k1, k2 in [(3, 5, 7), (7, 2, 4), (4, 9, 1), (12, 6, 3)]:
        assert_matches_oracle(duplicated_fixture(), k, k1, k2, metric, mode)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("mode", WEIGHT_MODES)
def test_confirmations_when_k2_is_within_the_probe_head(metric, mode):
    assert ejgraph._PROBE_HEAD > 3  # so each N_k2(i) below is probed whole at once
    for k, k1, k2 in [(3, 5, 1), (6, 2, 2), (2, 7, 3), (9, 4, 3)]:
        assert_matches_oracle(duplicated_fixture(), k, k1, k2, metric, mode)


class ListIndex:
    """Stands in for a KnnIndex: its searches return hand-built neighbor lists."""

    def __init__(self, lists: np.ndarray):
        self.lists, self.n = lists, len(lists)

    def topk(self, k: int) -> np.ndarray:
        return self.lists[:, :k]


@pytest.mark.parametrize("mode", WEIGHT_MODES)
@pytest.mark.parametrize("k, k1, k2, seed", [(2, 4, 7, 0), (6, 3, 11, 1), (5, 9, 8, 2)])
def test_confirmations_found_only_past_the_probe_head(mode, k, k1, k2, seed):
    """Lists where some pair (c, i) shares no member of N_k1(c) with the head of
    N_k2(i) but shares one further on, and some pair shares none at all."""
    n, head = 20, ejgraph._PROBE_HEAD
    rng = np.random.default_rng(seed)
    lists = np.array([rng.permutation(np.delete(np.arange(n), q)) for q in range(n)])
    n_k, n_k1, n_k2 = ({q: lists[q, :width].tolist() for q in range(n)} for width in (k, k1, k2))
    # where each pair's first shared member lies in N_k2(i), k2 for none
    first = [next((at for at, j in enumerate(n_k2[i]) if j in n_k1[c]), k2)
             for c in range(n) for i in n_k1[c]]
    assert min(first) < head and head <= max(f for f in first if f < k2) and max(first) == k2
    graph = build_ejg(ListIndex(lists), k, k1, k2, mode=mode)
    for q in range(n):
        assert graph.neighbor_ids[q].tolist() == n_k[q]
        for c, w in zip(n_k[q], graph.weights[q].tolist()):
            assert w == brute_edge_weight(n_k[q], n_k1[c], n_k2, k1, mode)


def test_build_allocates_nothing_quadratic(monkeypatch):
    """Past the knn search, building the graph needs O(n*k) memory: its
    peak stays below a single n x n boolean matrix."""
    n, k = 2000, 10
    index = build_index(np.random.default_rng(3).normal(size=(n, 5)))
    index.topk(k)  # the search runs here; build_ejg takes its result from the index
    monkeypatch.setattr(knn, "topk_arrays", None)
    for mode in ("literal", "jaccard-scaled"):
        tracemalloc.start()
        try:
            build_ejg(index, k, mode=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n, f"{mode}: peak {peak} bytes"


@pytest.mark.parametrize("k", [4, 6])
def test_writing_a_graph_row_leaves_the_index_search_unchanged(k):
    index = build_index(np.random.default_rng(14).normal(size=(40, 3)))
    ids = index.topk(6).copy()
    graph = build_ejg(index, k)
    graph.neighbor_ids[0] = graph.neighbor_ids[0][::-1].copy()
    assert np.array_equal(index.topk(6), ids)
    assert graph.neighbor_ids[0].tolist() == ids[0, :k][::-1].tolist()


def test_weight_ranges():
    rng = np.random.default_rng(8)
    matrix = rng.normal(size=(25, 4))
    index = build_index(matrix)
    literal = build_ejg(index, 5, mode="literal")
    scaled = build_ejg(index, 5, mode="jaccard-scaled")
    for q in range(25):
        lw = literal.weights[q]
        assert np.all(lw == np.round(lw)) and np.all(lw >= 0) and np.all(lw <= 5)
        assert np.all(scaled.weights[q] >= 0) and np.all(scaled.weights[q] <= 1)


def test_cluster_separation_on_fused_synthetic_graphs():
    """Fused intra-class edges outweigh inter-class edges on the noise-free
    complementary fixture (each modality alone cannot separate its weak
    half, the union can)."""
    mat_a, mat_b, labels = synth_multimodal(4, 10, noise=0.0, complementarity=1.0, seed=3)
    graph = fuse_graphs(
        [build_ejg(build_index(mat_a), 5), build_ejg(build_index(mat_b), 5)]
    )
    lab = labels.labels
    intra, inter = [], []
    for q in range(graph.n):
        for j, w in zip(graph.neighbor_ids[q], graph.weights[q]):
            (intra if lab[q] == lab[j] else inter).append(w)
    assert np.mean(intra) > np.mean(inter)


# ---------------------------------------------------------------------------
# CSR arrays and their row views
# ---------------------------------------------------------------------------


def three_row_graph():
    return SparseGraph(*csr([([1, 2], [0.5, 0.25]), ([], []), ([0], [1.0])]))


def test_row_view_items_are_views_of_the_csr_rows():
    graph = three_row_graph()
    weights, ids = graph.weights, graph.neighbor_ids
    assert graph.n == len(weights) == len(ids) == 3
    assert weights[0].tolist() == [0.5, 0.25] and weights[1].size == 0
    assert weights[-1].tolist() == [1.0] and ids[-3].tolist() == [1, 2]
    assert ids[np.int64(2)].tolist() == [0]
    assert np.shares_memory(weights[0], graph.data)
    for q in (3, -4):
        with pytest.raises(IndexError):
            weights[q]
    assert [row.tolist() for row in ids] == [[1, 2], [], [0]]
    assert [row.tolist() for row in weights] == [[0.5, 0.25], [], [1.0]]


def test_row_view_assignment_writes_the_row_in_place():
    graph = three_row_graph()
    graph.weights[0] = graph.weights[0] + 0.5
    graph.neighbor_ids[-1] = [1]
    assert graph.data.tolist() == [1.0, 0.75, 1.0]
    assert graph.indices.tolist() == [1, 2, 1]
    for q, row in [(0, [1.0]), (0, 2.0), (1, [0.5]), (2, [[1.0]])]:
        with pytest.raises(ValueError):
            graph.weights[q] = row
    assert graph.data.tolist() == [1.0, 0.75, 1.0]


@pytest.mark.parametrize(
    "indptr, indices, data",
    [([0, 2, 1, 3], [1, 2, 0], [1.0] * 3), ([1, 2, 3], [1, 2], [1.0] * 2),
     ([0, 1, 2], [1, 2, 0], [1.0] * 3), ([0, 1, 3], [1, 2, 0], [1.0] * 2)],
    ids=["decreasing", "not-from-0", "short-indptr", "short-data"],
)
def test_validate_rejects_arrays_that_are_not_csr(indptr, indices, data):
    graph = SparseGraph(np.array(indptr), np.array(indices), np.array(data))
    with pytest.raises(InvalidConfigError, match="CSR"):
        graph.validate()


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_graph_roundtrip(tmp_path, fmt):
    rng = np.random.default_rng(30)
    graph = build_ejg(build_index(rng.normal(size=(12, 3))), 4, modality_name="rgb")
    path = tmp_path / f"g.{fmt}"
    save_graph(graph, path, fmt)
    back = load_graph(path, fmt, modality_name="rgb")
    assert back.n == graph.n
    for q in range(graph.n):
        np.testing.assert_array_equal(back.neighbor_ids[q], graph.neighbor_ids[q])
        np.testing.assert_array_equal(back.weights[q], graph.weights[q])


@pytest.mark.parametrize("mode", ["jaccard", "LITERAL"])
def test_an_unknown_weight_mode_is_rejected(mode):
    index = build_index(np.random.default_rng(0).normal(size=(6, 2)))
    with pytest.raises(InvalidConfigError, match=f"unknown weight mode '{mode}'"):
        build_ejg(index, 2, mode=mode)
