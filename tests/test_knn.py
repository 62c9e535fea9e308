import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fgfusion import FeatureMatrix, all_knns, build_index, knns, pairwise_distances
from fgfusion.knn import stable_topk, topk_arrays
from fgfusion.errors import InvalidMetricError, KOutOfRangeError, ZeroVectorError

from bruteforce import brute_knn


def test_index_covers_all_samples():
    rng = np.random.default_rng(0)
    index = build_index(rng.normal(size=(5, 2)), "euclidean")
    assert index.n == 5


def test_points_on_a_line():
    matrix = np.array([[0.0], [1.0], [2.0], [3.0]])
    index = build_index(matrix)
    result = knns(index, 0, 2)
    assert list(result.neighbor_ids) == [1, 2]
    np.testing.assert_allclose(result.distances, [1.0, 2.0])


def test_equidistant_tie_goes_to_lower_index():
    matrix = np.array([[0.0], [-1.0], [1.0]])
    index = build_index(matrix)
    result = knns(index, 0, 1)
    assert list(result.neighbor_ids) == [1]


def test_distances_nondecreasing_and_no_self():
    rng = np.random.default_rng(11)
    index = build_index(rng.normal(size=(30, 4)))
    for q in range(30):
        res = knns(index, q, 10)
        assert q not in res.neighbor_ids
        assert np.all(np.diff(res.distances) >= 0)
        assert np.unique(res.neighbor_ids).size == 10


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_matches_brute_force_sort(metric):
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(20, 5))
    index = build_index(matrix, metric)
    for q in range(20):
        expected_ids, expected_d = brute_knn(matrix, q, 5, metric)
        got = knns(index, q, 5)
        assert list(got.neighbor_ids) == expected_ids
        np.testing.assert_allclose(got.distances, expected_d, atol=1e-9)


def test_all_knns_agrees_with_per_query():
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(50, 8))
    index = build_index(matrix)
    batch = all_knns(index, 10)
    assert len(batch) == 50
    for q in range(50):
        single = knns(index, q, 10)
        assert list(batch[q].neighbor_ids) == list(single.neighbor_ids)
        expected_ids, _ = brute_knn(matrix, q, 10)
        assert list(batch[q].neighbor_ids) == expected_ids


def test_k3_lists_never_contain_query():
    rng = np.random.default_rng(1)
    index = build_index(rng.normal(size=(4, 2)))
    lists = all_knns(index, 3)
    assert all(len(nl.neighbor_ids) == 3 and nl.query_id not in nl.neighbor_ids for nl in lists)


def test_build_is_deterministic():
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(25, 3))
    first = all_knns(build_index(matrix), 6)
    second = all_knns(build_index(matrix), 6)
    for a, b in zip(first, second):
        assert list(a.neighbor_ids) == list(b.neighbor_ids)


def test_cosine_rejects_zero_vector():
    matrix = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ZeroVectorError):
        build_index(matrix, "cosine")


def test_unknown_metric():
    with pytest.raises(InvalidMetricError):
        build_index(np.eye(3), "manhattan")


def test_k_out_of_range():
    index = build_index(np.eye(4))
    with pytest.raises(KOutOfRangeError):
        knns(index, 0, 4)
    with pytest.raises(KOutOfRangeError):
        knns(index, 0, 0)
    with pytest.raises(KOutOfRangeError):
        knns(index, 7, 1)


def test_accepts_feature_matrix():
    rng = np.random.default_rng(2)
    features = FeatureMatrix(rng.normal(size=(8, 3)), "rgb")
    assert build_index(features).n == 8


def test_euclidean_metric_contract():
    """d(a, a) = 0 and triangle inequality on sampled triples."""
    rng = np.random.default_rng(13)
    matrix = rng.normal(size=(40, 6))
    dists = pairwise_distances(matrix, matrix)
    np.testing.assert_allclose(np.diag(dists), 0.0, atol=1e-12)
    for _ in range(200):
        a, b, c = rng.integers(40, size=3)
        assert dists[a, c] <= dists[a, b] + dists[b, c] + 1e-7


def test_pairwise_cosine_zero_vector():
    with pytest.raises(ZeroVectorError):
        pairwise_distances(np.zeros((2, 2)), np.eye(2), "cosine")


# ---------------------------------------------------------------------------
# Selection: stable_topk must equal the full stable sort, ties included
# ---------------------------------------------------------------------------

def stable_sort_topk(dists, k):
    return np.argsort(dists, axis=1, kind="stable")[:, :k]


# few distinct values, so most rows tie across the k-th slot
tie_heavy = st.integers(1, 12).flatmap(
    lambda m: st.tuples(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.just(m)),
               elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, np.inf, np.nan])),
        st.integers(1, m),
    )
)


@settings(max_examples=300, deadline=None)
@given(tie_heavy)
def test_stable_topk_equals_stable_argsort_on_ties(case):
    dists, k = case
    np.testing.assert_array_equal(stable_topk(dists, k), stable_sort_topk(dists, k))


@pytest.mark.parametrize("decimals", [0, 1, 3])
def test_stable_topk_on_rounded_random_rows(decimals):
    rng = np.random.default_rng(decimals)
    dists = np.round(rng.random((40, 60)) * 4, decimals)
    for k in (1, 2, 7, 20, 59, 60):
        np.testing.assert_array_equal(stable_topk(dists, k), stable_sort_topk(dists, k))


def test_stable_topk_tie_straddling_the_kth_slot():
    # the 2nd and 3rd smallest are equal: the lower id must win slot 2
    dists = np.array([[5.0, 1.0, 3.0, 0.0, 1.0, 9.0, 1.0]])
    for k in (1, 2, 3, 4, 6, 7):
        np.testing.assert_array_equal(stable_topk(dists, k), stable_sort_topk(dists, k))
    assert stable_topk(dists, 3).tolist() == [[3, 1, 4]]


def test_knn_ties_with_duplicate_points_follow_lower_index():
    matrix = np.array([[0.0], [1.0], [-1.0], [1.0], [0.0], [-1.0], [2.0]])
    ids, dists = topk_arrays(build_index(matrix), 5)
    for q in range(len(matrix)):
        expected_ids, expected_d = brute_knn(matrix, q, 5)
        assert ids[q].tolist() == expected_ids
        np.testing.assert_array_equal(dists[q], expected_d)
