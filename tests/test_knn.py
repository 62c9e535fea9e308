import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fgfusion import FeatureMatrix, LabelVector, build_ejg, build_index, knn, knn_classify
from fgfusion import cli, pairwise_distances
from fgfusion.dataset import save_features, save_labels, synth_multimodal
from fgfusion.knn import stable_topk, topk_arrays
from fgfusion.errors import (
    DimensionMismatchError,
    InvalidMetricError,
    KOutOfRangeError,
    NonFiniteValueError,
    NormRangeError,
    ZeroVectorError,
)

from bruteforce import as_is, brute_knn, brute_pairwise_distances


def test_build_index_validates_a_raw_array_as_a_feature_matrix():
    matrix = np.random.default_rng(0).normal(size=(6, 2))
    matrix[3, 1] = np.nan
    with pytest.raises(NonFiniteValueError):
        build_index(matrix)
    with pytest.raises(DimensionMismatchError):
        build_index(np.arange(5.0))


def test_index_covers_all_samples():
    rng = np.random.default_rng(0)
    index = build_index(rng.normal(size=(5, 2)), "euclidean")
    assert index.n == 5


def test_points_on_a_line():
    matrix = np.array([[0.0], [1.0], [2.0], [3.0]])
    ids, dists = topk_arrays(build_index(matrix), 2)
    assert ids[0].tolist() == [1, 2]
    np.testing.assert_allclose(dists[0], [1.0, 2.0])


def test_equidistant_tie_goes_to_lower_index():
    matrix = np.array([[0.0], [-1.0], [1.0]])
    ids, _ = topk_arrays(build_index(matrix), 1)
    assert ids[0].tolist() == [1]


def test_distances_nondecreasing_and_no_self():
    rng = np.random.default_rng(11)
    ids, dists = topk_arrays(build_index(rng.normal(size=(30, 4))), 10)
    for q in range(30):
        assert q not in ids[q]
        assert np.all(np.diff(dists[q]) >= 0)
        assert np.unique(ids[q]).size == 10


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_matches_brute_force_sort(metric):
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(20, 5))
    ids, dists = topk_arrays(build_index(matrix, metric), 5)
    for q in range(20):
        expected_ids, expected_d = brute_knn(matrix, q, 5, metric)
        assert ids[q].tolist() == expected_ids
        np.testing.assert_allclose(dists[q], expected_d, atol=1e-9)


def test_topk_arrays_agrees_with_per_query_blocks(monkeypatch):
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(50, 8))
    index = build_index(matrix)
    ids, dists = topk_arrays(index, 10)
    assert ids.shape == dists.shape == (50, 10)
    monkeypatch.setattr(knn, "_block_rows", lambda n: 1)  # one query per distance block
    single_ids, single_dists = topk_arrays(index, 10)
    assert single_ids.tolist() == ids.tolist()
    np.testing.assert_allclose(single_dists, dists, rtol=1e-12)
    for q in range(50):
        expected_ids, _ = brute_knn(matrix, q, 10)
        assert ids[q].tolist() == expected_ids


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_a_one_row_tail_block_matches_a_single_block(monkeypatch, metric):
    # a 1 024-row floor leaves n = 1 025 one row after the first block; a
    # one-row distance block goes through BLAS gemv, which rounds unlike gemm
    monkeypatch.setattr(knn, "_MIN_BLOCK_ROWS", 1024)
    assert knn._block_rows(1025) == 1024
    matrix = np.random.default_rng(12).normal(size=(1025, 30))
    index = build_index(matrix, metric)
    ids, dists = topk_arrays(index, 5)
    monkeypatch.setattr(knn, "_MIN_BLOCK_ROWS", 2048)
    single_ids, single_dists = topk_arrays(index, 5)
    assert np.array_equal(ids, single_ids)
    assert dists.tobytes() == single_dists.tobytes()


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("width", [900, 1700])
def test_the_slice_height_never_changes_a_bit(monkeypatch, metric, width):
    # widths that are not a multiple of 8 are where the gemm's row partition
    # shows in the last bits; the in-place finish must not add to that
    matrix = np.random.default_rng(width).normal(size=(width, 30))
    index = build_index(matrix, metric)
    outputs = []
    for slice_bytes in (1, 1 << 40):  # one row per slice, one slice per call
        monkeypatch.setattr(knn, "_SLICE_BYTES", slice_bytes)
        ids, dists = topk_arrays(index, 10)
        pairs = pairwise_distances(matrix[:300], matrix, metric)
        outputs.append((ids.tobytes(), dists.tobytes(), pairs.tobytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("slice_bytes", [1 << 20, 8 * 257 * 7])
@pytest.mark.parametrize("data", ["normal", "integer"])
def test_the_finish_adds_squared_norms_as_the_broadcast_add(monkeypatch, data, slice_bytes):
    # the finish copies |b|^2 and adds |a|^2 in place; IEEE addition commutes,
    # so this gives the bits of the broadcast |a|^2 + |b|^2 it replaces. Small
    # integers make equal norms and equal distances common.
    rng = np.random.default_rng(4)
    if data == "normal":
        queries, gallery = rng.normal(size=(300, 7)), rng.normal(size=(257, 7)) * 1e3
    else:
        queries, gallery = (rng.integers(-2, 3, size=(m, 7)).astype(np.float64)
                            for m in (300, 257))
    q_sq, g_sq = (np.einsum("ij,ij->i", m, m) for m in (queries, gallery))
    broadcast = np.add(q_sq[:, None], g_sq[None, :])
    in_place = np.empty_like(broadcast)
    np.copyto(in_place, g_sq)
    in_place += q_sq[:, None]
    assert in_place.tobytes() == broadcast.tobytes()
    dots = queries @ gallery.T
    expected = np.sqrt(np.maximum(broadcast - 2.0 * dots, 0.0))
    monkeypatch.setattr(knn, "_SLICE_BYTES", slice_bytes)  # one slice, or 43 with a ragged last
    for _ in knn._keys(dots, q_sq, g_sq):
        pass
    knn.finisher("euclidean")(dots, out=dots)
    assert dots.tobytes() == expected.tobytes()


def test_block_rows_follow_the_byte_bound_above_the_floor():
    assert knn._block_rows(2000) * 2000 * 8 <= knn._BLOCK_BYTES
    assert knn._block_rows(2000) > knn._MIN_BLOCK_ROWS
    assert knn._block_rows(50_000) == knn._MIN_BLOCK_ROWS


def test_search_memory_is_bounded_by_the_block_bytes():
    """At n = 2 000 the search's peak stays near one 4 MiB distance block;
    a 1 024-row block alone would take 16 MB."""
    n, k = 2000, 10
    index = build_index(np.random.default_rng(4).normal(size=(n, 5)))
    tracemalloc.start()
    try:
        topk_arrays(index, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"peak {peak} bytes"


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_a_wide_search_serves_every_smaller_k_bit_for_bit(monkeypatch, metric):
    # small integer coordinates tie many distances, so order by id matters
    matrix = np.random.default_rng(13).integers(1, 4, size=(300, 4)).astype(float)
    index = build_index(matrix, metric)
    searches = []

    def search(index, k):
        searches.append(k)
        return topk_arrays(index, k)

    monkeypatch.setattr(knn, "topk_arrays", search)
    index.topk(40)
    wide_ids, wide_dists = topk_arrays(index, 40)
    for k in range(1, 41):
        ids = index.topk(k)
        fresh_ids, fresh_dists = topk_arrays(index, k)
        assert np.array_equal(ids, fresh_ids)
        assert np.array_equal(wide_ids[:, :k], fresh_ids)
        assert wide_dists[:, :k].tobytes() == fresh_dists.tobytes()
        assert not ids.flags.writeable
    assert searches == [40]
    index.topk(41)
    assert searches == [40, 41]
    with pytest.raises(KOutOfRangeError):
        index.topk(0)


def test_k3_lists_never_contain_query():
    rng = np.random.default_rng(1)
    ids, _ = topk_arrays(build_index(rng.normal(size=(4, 2))), 3)
    assert ids.shape == (4, 3)
    assert all(q not in row for q, row in enumerate(ids))


def test_build_is_deterministic():
    rng = np.random.default_rng(9)
    matrix = rng.normal(size=(25, 3))
    first, _ = topk_arrays(build_index(matrix), 6)
    second, _ = topk_arrays(build_index(matrix), 6)
    assert first.tolist() == second.tolist()


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
        topk_arrays(index, 4)
    with pytest.raises(KOutOfRangeError):
        topk_arrays(index, 0)
    for search in (topk_arrays, build_ejg, lambda index, k: index.topk(k)):
        with pytest.raises(KOutOfRangeError):
            search(index, 2.5)
    assert topk_arrays(index, np.int64(2))[0].shape == (4, 2)


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


# integer-valued rows make exact distance ties and zero distances common
small_rows = st.integers(0, 7).flatmap(
    lambda d: st.tuples(
        *(arrays(np.float64, st.tuples(st.integers(1, 9), st.just(d + 1)),
                 elements=st.one_of(st.integers(-3, 3).map(float),
                                    st.floats(-1e3, 1e3, allow_nan=False)))
          for _ in range(2))
    )
)


@settings(max_examples=300, deadline=None)
@given(small_rows, st.sampled_from(["euclidean", "cosine"]), st.booleans())
def test_pairwise_distances_bit_equal_to_the_plain_expressions(rows, metric, same):
    queries, gallery = rows
    if same:
        gallery = queries
    if metric == "cosine":
        # the library rejects rows of norm 0 under cosine; the reference divides by 0
        queries[np.linalg.norm(queries, axis=1) == 0.0, 0] = 1.0
        gallery[np.linalg.norm(gallery, axis=1) == 0.0, 0] = 1.0
    tiny = np.finfo(np.float64).tiny
    if any(((side * side).sum(axis=1) < tiny)[side.any(axis=1)].any()
           for side in (queries, gallery)):
        # a nonzero row whose squares underflow has no full squared norm to rank by
        with pytest.raises(NormRangeError):
            pairwise_distances(queries, gallery, metric)
        return
    got = pairwise_distances(queries, gallery, metric)
    assert got.tobytes() == brute_pairwise_distances(queries, gallery, metric).tobytes()
    # the index's blocks share the kernel: a block's top k is the selection
    # from those rows' pairwise distances against the whole matrix
    if len(gallery) > 1:
        block = slice(len(gallery) // 2, len(gallery))  # the search's blocks are contiguous
        rows = np.arange(len(gallery))[block]
        dists = pairwise_distances(gallery[rows], gallery, metric)
        dists[np.arange(rows.size), rows] = np.inf
        ids, top = build_index(gallery, metric)._topk_block(block, len(gallery) - 1)
        assert np.array_equal(ids, stable_topk(dists, len(gallery) - 1, as_is))
        assert top.tobytes() == np.take_along_axis(dists, ids, axis=1).tobytes()


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("shape", [(50, 30), (300, 100)])
def test_pairwise_distances_bit_equal_at_blas_sizes(metric, shape):
    # at these sizes a matrix times its own transpose (BLAS syrk) and times
    # another array's transpose (gemm) can round differently
    matrix = np.random.default_rng(shape[0]).normal(size=shape)
    for gallery in (matrix, matrix.copy(), matrix[::3].copy()):
        got = pairwise_distances(matrix, gallery, metric)
        assert got.tobytes() == brute_pairwise_distances(matrix, gallery, metric).tobytes()


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
    np.testing.assert_array_equal(stable_topk(dists, k, as_is), stable_sort_topk(dists, k))


@pytest.mark.parametrize("decimals", [0, 1, 3])
def test_stable_topk_on_rounded_random_rows(decimals):
    rng = np.random.default_rng(decimals)
    dists = np.round(rng.random((40, 60)) * 4, decimals)
    for k in (1, 2, 7, 20, 59, 60):
        np.testing.assert_array_equal(stable_topk(dists, k, as_is), stable_sort_topk(dists, k))


def test_stable_topk_tie_straddling_the_kth_slot():
    # the 2nd and 3rd smallest are equal: the lower id must win slot 2
    dists = np.array([[5.0, 1.0, 3.0, 0.0, 1.0, 9.0, 1.0]])
    for k in (1, 2, 3, 4, 6, 7):
        np.testing.assert_array_equal(stable_topk(dists, k, as_is), stable_sort_topk(dists, k))
    assert stable_topk(dists, 3, as_is).tolist() == [[3, 1, 4]]


# keys that a finish equates: both sides of 0 clamp to 0, and 1 and the next
# two doubles above it all root to 1
finish_heavy = st.integers(1, 12).flatmap(
    lambda m: st.tuples(
        arrays(np.float64, st.tuples(st.integers(1, 6), st.just(m)),
               elements=st.sampled_from([-1e-17, -5e-324, 0.0, 5e-324, 1.0,
                                         np.nextafter(1.0, 2.0), 1.0 + 4.5e-16, 4.0,
                                         np.inf, np.nan])),
        st.integers(1, m),
    )
)


@settings(max_examples=300, deadline=None)
@given(finish_heavy, st.sampled_from(["euclidean", "cosine"]))
def test_stable_topk_on_keys_equals_stable_argsort_of_the_finished(case, metric):
    keys, k = case
    given_keys = keys.tobytes()
    finish = knn.finisher(metric)
    expected = stable_sort_topk(finish(keys), k)
    np.testing.assert_array_equal(stable_topk(keys, k, finish), expected)
    assert keys.tobytes() == given_keys


# equal distances inside the top k, not only across the k-th slot
TIED_INSIDE = {
    # -0.0 beside two 0.0s: three equal distances lead the row
    "signed zeros": (np.array([[3.0, -0.0, 5.0, 0.0, 1.0, 7.0, 0.0, 9.0]]), None),
    # 1.0 and the next double above it root to 1; -1e-17 and 0.0 clamp to 0
    "finish-equated": (
        np.array([[4.0, 1.0, 9.0, np.nextafter(1.0, 2.0), 16.0, -1e-17, 0.0, 25.0]]),
        "euclidean",
    ),
}


def finished(keys, metric):
    """The finish of ``metric``, or the identity for keys that are distances,
    and the stable sort of the distances."""
    finish = knn.finisher(metric) if metric else as_is
    return finish, stable_sort_topk(finish(keys.copy()), keys.shape[1])


@pytest.mark.parametrize("case", TIED_INSIDE)
def test_stable_topk_orders_ties_inside_the_top_k_by_id(case):
    keys, metric = TIED_INSIDE[case]
    finish, expected = finished(keys, metric)
    for k in range(1, keys.shape[1]):
        np.testing.assert_array_equal(stable_topk(keys, k, finish), expected[:, :k])


def duplicated_keys():
    """Exact euclidean keys between integer points, each present three
    times, with rows that tie inside their top k."""
    points = np.repeat(np.random.default_rng(8).integers(0, 4, size=(15, 3)), 3, axis=0) * 1.0
    keys = pairwise_distances(points, points.copy(), keys=True)
    np.fill_diagonal(keys, np.inf)
    return keys


def lexsort_recorder(monkeypatch):
    """The sorted primary keys of the rows each np.lexsort call receives."""
    seen, lexsort = [], np.lexsort

    def recorded(keys, axis=-1):
        seen.append(np.sort(keys[-1], axis=axis))
        return lexsort(keys, axis=axis)

    monkeypatch.setattr(np, "lexsort", recorded)
    return seen


def assert_every_sorted_row_ties(seen):
    for rows in seen:
        assert (rows[:, 1:] == rows[:, :-1]).any(axis=1).all()


@pytest.mark.parametrize("metric", [None, "euclidean", "cosine"])
def test_stable_topk_on_rows_of_duplicated_points(monkeypatch, metric):
    keys = duplicated_keys()
    finish, expected = finished(keys, metric)
    seen = lexsort_recorder(monkeypatch)
    for k in (2, 3, 5, 9, 20, 44):
        np.testing.assert_array_equal(stable_topk(keys, k, finish), expected[:, :k])
    assert seen  # the duplicates tie inside the top k
    assert_every_sorted_row_ties(seen)


def test_stable_topk_sorts_again_only_rows_that_tie(monkeypatch):
    rng = np.random.default_rng(12)
    keys = rng.random((60, 40))
    seen = lexsort_recorder(monkeypatch)
    for k in (2, 10, 39):
        np.testing.assert_array_equal(stable_topk(keys, k, as_is), stable_sort_topk(keys, k))
    assert seen == []  # no two distances of a row are equal
    # every third row gets a copy of one of its five smallest distances; every
    # fourth row's smallest becomes 0.0, and every eighth row's next one -0.0
    ranks = np.argsort(keys, axis=1)
    for r in range(0, 60, 3):
        keys[r, ranks[r, 30 + r % 10]] = keys[r, ranks[r, r % 5]]
    rows = np.arange(0, 60, 4)
    keys[rows, ranks[rows, 0]] = 0.0
    keys[rows[::2], ranks[rows[::2], 1]] = -0.0
    for k in (2, 6, 10, 39):
        seen.clear()
        np.testing.assert_array_equal(stable_topk(keys, k, as_is), stable_sort_topk(keys, k))
        assert_every_sorted_row_ties(seen)
    assert seen


KEYED_N = 40


def keyed_data(kind: str) -> np.ndarray:
    """KEYED_N rows whose ranking keys the finish changes the order of."""
    rng = np.random.default_rng(3)
    if kind == "grid":  # small integers tie many distances; no zero row, for cosine
        return rng.integers(1, 4, size=(KEYED_N, 3)).astype(np.float64)
    if kind == "duplicated":
        # four copies of each row, all but the first nudged an ulp per entry:
        # the keys between copies differ, fall either side of 0 and clamp to 0
        rows = np.repeat(rng.normal(size=(KEYED_N // 4, 5)), 4, axis=0)
        nudged = np.nextafter(rows, np.where(rng.random(rows.shape) < 0.5, np.inf, -np.inf))
        nudged[::4] = rows[::4]
        return nudged
    # tiny and huge rows' squared norms come within a factor of 3 of the
    # smallest and the largest that knn accepts (else NormRangeError)
    scale = {"normal": 1.0, "tiny": 2e-154, "huge": 1e153}[kind]
    return rng.normal(size=(KEYED_N, 6)) * scale


KEYED_KINDS = ["normal", "grid", "duplicated", "tiny", "huge"]


@pytest.mark.parametrize("k", [1, 17, KEYED_N - 1])
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("kind", KEYED_KINDS)
def test_the_search_finishes_only_what_it_selects(kind, metric, k):
    data = keyed_data(kind)
    ids, dists = topk_arrays(build_index(data, metric), k)
    # the gallery is a copy, so both take the same matrix product
    expected = brute_pairwise_distances(data, data.copy(), metric)
    np.fill_diagonal(expected, np.inf)  # a sample is never its own neighbor
    expected_ids = stable_sort_topk(expected, k)
    assert np.array_equal(ids, expected_ids)
    assert dists.tobytes() == np.take_along_axis(expected, expected_ids, axis=1).tobytes()


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_a_one_block_search_multiplies_a_copy_of_its_rows(metric):
    # n = 300 is one block. The block's rows must not be the matrix itself:
    # a matrix times its own transpose takes BLAS syrk, which rounds unlike
    # the gemm of every other block (here in 12 to 24 of the 3 000 distances)
    data = np.random.default_rng(300).normal(size=(300, 100))
    assert knn._block_rows(len(data)) >= len(data)
    ids, dists = topk_arrays(build_index(data, metric), 10)
    expected = pairwise_distances(data, data.copy(), metric)
    np.fill_diagonal(expected, np.inf)
    assert np.array_equal(ids, stable_sort_topk(expected, 10))
    assert dists.tobytes() == np.take_along_axis(expected, ids, axis=1).tobytes()


@pytest.mark.parametrize("k", [1, 17, KEYED_N - 1])
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("kind", KEYED_KINDS)
def test_the_classifier_finishes_only_the_votes_it_selects(monkeypatch, kind, metric, k):
    data = keyed_data(kind)
    labels = LabelVector(np.array([str(i % 3) for i in range(KEYED_N)], dtype=object))
    # each test row sits between two train rows, its copies when duplicated
    train, test = np.arange(0, KEYED_N, 2), np.arange(1, KEYED_N, 2)
    votes = []

    def recorded_topk(keys, k, finish):
        votes.append(stable_topk(keys, k, finish))
        return votes[-1]

    monkeypatch.setattr(knn, "stable_topk", recorded_topk)
    knn_classify(data, labels, train, test, metric, votes=k)
    dists = pairwise_distances(data[test], data[train], metric)
    assert np.array_equal(np.vstack(votes), stable_topk(dists, min(k, train.size), as_is))


def test_knn_ties_with_duplicate_points_follow_lower_index():
    matrix = np.array([[0.0], [1.0], [-1.0], [1.0], [0.0], [-1.0], [2.0]])
    ids, dists = topk_arrays(build_index(matrix), 5)
    for q in range(len(matrix)):
        expected_ids, expected_d = brute_knn(matrix, q, 5)
        assert ids[q].tolist() == expected_ids
        np.testing.assert_array_equal(dists[q], expected_d)


# ---------------------------------------------------------------------------
# Features outside float64's range: the unscaled result, or a NormRangeError
# ---------------------------------------------------------------------------


def scaled_outcomes(tmp_path, capsys, scale, metric):
    """Per knn call and subcommand, on synthetic features times ``scale``: its
    result, or "NormRangeError" where it raised one (exit 3 naming it)."""
    mat_a, mat_b, labels = synth_multimodal(4, 10, 0.25, 1.0, 5)
    data = mat_a.data * scale
    out = tmp_path / f"{scale:g}-{metric}"
    out.mkdir()
    save_features(FeatureMatrix(data), out / "a.csv", "csv")
    save_features(FeatureMatrix(mat_b.data * scale), out / "b.csv", "csv")
    save_labels(labels, out / "labels.txt")
    config = {"features": [{"path": "a.csv"}, {"path": "b.csv"}], "labels": "labels.txt",
              "metric": metric, "k": [5], "d": [4], "samples_per_node": 5, "epochs": 2,
              "m_or_fraction": 4, "repeats": 3, "seed": 1}
    (out / "config.json").write_text(json.dumps(config))
    train, test = np.arange(0, labels.n, 2), np.arange(1, labels.n, 2)
    calls = {
        "topk_arrays": lambda: topk_arrays(build_index(data, metric), 5)[0],
        "pairwise_distances": lambda: np.argsort(
            pairwise_distances(data, data, metric), axis=1, kind="stable"),
        "knn_classify": lambda: knn_classify(data, labels, train, test, metric, votes=3),
    }
    commands = {
        "build-graph": (["build-graph", "--features", out / "a.csv", "--k", 5,
                         "--metric", metric, "--out", out / "g.csv"], out / "g.csv"),
        "eval": (["eval", "--features", out / "a.csv", "--labels", out / "labels.txt",
                  "--m", 4, "--repeats", 3, "--classify-metric", metric,
                  "--out", out / "eval.csv"], out / "eval.csv"),
        "pipeline": (["pipeline", "--config", out / "config.json", "--out-dir", out / "run"],
                     out / "run" / "results.csv"),
    }
    outcomes = {}
    for name, call in calls.items():
        try:
            outcomes[name] = call()
        except NormRangeError:
            outcomes[name] = "NormRangeError"
    for name, (argv, output) in commands.items():
        code = cli.main(list(map(str, argv)))
        err = capsys.readouterr().err
        if code == 3 and "squared norm" in err:
            outcomes[name] = "NormRangeError"
        else:
            assert code == 0, err
            outcomes[name] = output.read_bytes()
    return outcomes


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_a_subnormal_squared_norm_is_rejected(metric):
    # 2^-511 squares to 2^-1022, the smallest normal double; half of it
    # squares to a subnormal, which has lost bits: scaled so, a 2 000 x 40
    # normal matrix had other ids than the unscaled one in up to 99.8% of rows
    data = np.random.default_rng(0).normal(size=(20, 3))
    data[4] = [2.0 ** -511, 0.0, 0.0]
    labels = LabelVector(np.array([str(i % 2) for i in range(20)], dtype=object))
    train, test = np.arange(0, 20, 2), np.arange(1, 20, 2)
    assert topk_arrays(build_index(data, metric), 3)[0].shape == (20, 3)
    data[4, 0] /= 2
    for call in (lambda: build_index(data, metric),
                 lambda: pairwise_distances(data, data[:2], metric),
                 lambda: knn_classify(data, labels, train, test, metric)):
        with pytest.raises(NormRangeError, match="has squared norm 5.56268e-309"):
            call()


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("scale", [1e150, 1e-150, 1e155, 1e-155, 1e170, 1e-170, 1e200, 1e-200])
def test_features_outside_float64s_range_give_the_unscaled_result_or_a_typed_error(
        tmp_path, capsys, scale, metric):
    # the rows' squared norms stay normal and below max / 4 at these scales
    # alone; at the others they overflow, or underflow to subnormals or 0
    in_range = scale in (1e150, 1e-150)
    unscaled = scaled_outcomes(tmp_path, capsys, 1.0, metric)
    for name, got in scaled_outcomes(tmp_path, capsys, scale, metric).items():
        if in_range:
            assert np.array_equal(got, unscaled[name]), name
        else:
            assert isinstance(got, str), name  # "NormRangeError"
