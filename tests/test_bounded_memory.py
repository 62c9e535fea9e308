"""Bounded memory in the stage-wise chain and the pipeline: binary files
written and read in chunks, the classifier's query blocks, the row-chunked
fuse and alias build, each against its one-shot form, and the pipeline's
live set, which holds only what later stages read."""

import struct
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgfusion import (
    AffinityMatrix,
    FeatureMatrix,
    PipelineConfig,
    SparseGraph,
    fuse_graphs,
    knn_classify,
    load_affinity,
    load_embeddings,
    load_features,
    load_graph,
    save_affinity,
    save_embeddings,
    save_features,
    save_graph,
)
from fgfusion import cli, dataset, ejgraph, evalharness, fusion, knn
from fgfusion.dataset import EmbeddingMatrix
from fgfusion.errors import InvalidConfigError, ParseError
from fgfusion.knn import stable_topk

from bruteforce import brute_csv_edges, brute_fuse, csr, oneshot_binary, oneshot_binary_edges
from test_edgelist import rows_of
from test_eval import labels_of, write_fixture
from test_fusion import (
    ALIAS_ROWS,
    assert_alias_rows_match_per_row_builds,
    random_graph,
    same_bits,
)


def traced_peak(call):
    """(result, peak bytes tracemalloc saw allocated during ``call()``)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# Binary files: the header is checked before the payload is read
# ---------------------------------------------------------------------------

BINARY_LOADERS = {
    b"EJGF": lambda p: load_features(p, "binary"),
    b"EJGE": lambda p: load_embeddings(p, "binary"),
    b"EJGG": lambda p: load_graph(p, "binary"),
    b"EJGA": lambda p: load_affinity(p, "binary"),
}


@pytest.mark.parametrize("magic", BINARY_LOADERS)
@pytest.mark.parametrize("flaw", ["bad magic", "wrong length"])
def test_a_large_file_is_rejected_from_its_header_alone(tmp_path, magic, flaw):
    # a 256 MiB sparse file: reading it whole would allocate all of it
    path = tmp_path / "big.bin"
    with open(path, "wb") as fh:
        fh.write((b"XXXX" if flaw == "bad magic" else magic) + struct.pack("<IQQ", 1, 2, 3))
        fh.truncate(1 << 28)

    def load():
        with pytest.raises(ParseError, match="bad magic" if flaw == "bad magic" else "payload is"):
            BINARY_LOADERS[magic](path)

    _, peak = traced_peak(load)
    path.unlink()
    assert peak < 1 << 20, f"{peak} bytes allocated to reject the file"


# ---------------------------------------------------------------------------
# Binary files: the streamed writers give the one-shot writer's bytes
# ---------------------------------------------------------------------------


def test_matrix_writers_give_the_one_shot_bytes(tmp_path):
    rng = np.random.default_rng(0)
    features = FeatureMatrix(rng.normal(size=(7, 3)))
    save_features(features, tmp_path / "f.bin", "binary")
    assert (tmp_path / "f.bin").read_bytes() == oneshot_binary(
        b"EJGF", 7, 3, features.data.tobytes())
    vectors = rng.normal(size=(5, 4))
    save_embeddings(EmbeddingMatrix(vectors), tmp_path / "e.bin", "binary")
    assert (tmp_path / "e.bin").read_bytes() == oneshot_binary(b"EJGE", 5, 4, vectors.tobytes())
    # a transposed view is written row-major, as its contiguous copy is
    dataset._save_matrix(vectors.T, tmp_path / "t.bin", "binary", b"EJGE")
    assert (tmp_path / "t.bin").read_bytes() == oneshot_binary(
        b"EJGE", 4, 5, np.ascontiguousarray(vectors.T).tobytes())
    assert same_bits(load_embeddings(tmp_path / "t.bin", "binary").vectors,
                     np.ascontiguousarray(vectors.T))


def random_rows(rng, n, edges):
    """CSR arrays of n rows holding ``edges`` distinct, non-self neighbor ids
    in all, spread as evenly as the count allows."""
    sizes = np.full(n, edges // n)
    sizes[: edges % n] += 1
    ids = [rng.permutation(np.delete(np.arange(n), q))[:size] for q, size in enumerate(sizes)]
    return np.cumsum(np.concatenate(([0], sizes))), np.concatenate(ids)


def assert_edge_files_match_the_one_shot_writer(tmp_path, n, edges):
    rng = np.random.default_rng(edges)
    indptr, ids = random_rows(rng, n, edges)
    graph = SparseGraph(indptr, ids, rng.random(edges))
    save_graph(graph, tmp_path / "g.bin", "binary")
    assert (tmp_path / "g.bin").read_bytes() == oneshot_binary_edges(graph, b"EJGG")
    back = load_graph(tmp_path / "g.bin", "binary")
    assert all(same_bits(a, b) for a, b in zip(
        (back.indptr, back.indices, back.data), (graph.indptr, graph.indices, graph.data)))

    probs = np.repeat(1.0 / np.diff(indptr), np.diff(indptr))
    for sigma_sq in (rng.random(n) + 1.0, None):
        aff = AffinityMatrix(indptr, ids, probs, sigma_sq)
        save_affinity(aff, tmp_path / "a.bin", "binary")
        trailer = np.full(n, np.nan) if sigma_sq is None else sigma_sq
        assert (tmp_path / "a.bin").read_bytes() == oneshot_binary_edges(aff, b"EJGA", trailer)
        back = load_affinity(tmp_path / "a.bin", "binary")
        assert same_bits(back.indices, ids) and same_bits(back.data, probs)
        assert back.sigma_sq is None if sigma_sq is None else same_bits(back.sigma_sq, sigma_sq)


@pytest.mark.parametrize("edges", [12, 13, 14, 20, 21, 71])
def test_edge_writers_give_the_one_shot_bytes_across_small_chunks(tmp_path, edges):
    # 7 edges per chunk: one edge over, under and on a whole number of chunks
    with mock.patch.object(ejgraph, "_EDGE_CHUNK", 7):
        assert_edge_files_match_the_one_shot_writer(tmp_path, 12, edges)


def test_edge_writers_give_the_one_shot_bytes_across_real_chunks(tmp_path):
    assert_edge_files_match_the_one_shot_writer(tmp_path, 500, 3 * ejgraph._EDGE_CHUNK + 17)


def test_binary_affinity_of_a_million_edges_is_written_and_read_in_bounded_memory(tmp_path):
    n, per_row = 10_000, 100
    indptr = np.arange(n + 1, dtype=np.int64) * per_row
    ids = np.random.default_rng(0).integers(0, n, n * per_row)
    aff = AffinityMatrix(indptr, ids, np.full(n * per_row, 1.0 / per_row), np.ones(n))
    path = tmp_path / "a.bin"
    # the record table alone is 24 MB; the one-shot writer held four copies of
    # it (77 MB peak) and the whole-file reader two (61 MB)
    _, peak = traced_peak(lambda: save_affinity(aff, path, "binary"))
    assert peak < 16 << 20, f"save_affinity allocated {peak} bytes"
    assert path.stat().st_size == 24 + 24 * n * per_row + 8 * n
    back, peak = traced_peak(lambda: load_affinity(path, "binary"))
    assert peak < 32 << 20, f"load_affinity allocated {peak} bytes"  # 24 MB of it is the result
    assert same_bits(back.indices, ids)
    path.unlink()


def test_csv_graph_writer_holds_one_id_table_and_one_chunk_of_texts(tmp_path):
    n, k = 20_000, 20
    rng = np.random.default_rng(0)
    ids = (np.arange(n)[:, None] + rng.integers(1, n, size=(n, k))) % n
    graph = SparseGraph(np.arange(n + 1) * k, ids.reshape(-1), rng.random(n * k))
    path = tmp_path / "g.csv"
    # the writer before the id table peaked at 6.3 MB here (numpy 2.4), 3.2 MB
    # of it the src id of every edge; the table of n id texts is about 1.3 MB,
    # and one chunk's texts and their temporaries about 1.8 MB
    _, peak = traced_peak(lambda: save_graph(graph, path, "csv"))
    assert peak < 4 << 20, f"save_graph allocated {peak} bytes"
    assert path.read_bytes() == brute_csv_edges(graph).encode("utf-8")


def test_csv_matrix_is_read_one_line_at_a_time(tmp_path):
    data = np.random.default_rng(0).normal(size=(5_000, 20))
    path = tmp_path / "f.csv"
    save_features(FeatureMatrix(data), path)
    path.write_text(path.read_text().replace(",", "\t"))  # the reader's tab replacement runs
    # the whole-file reader held the lines and their tab-replaced copies beside
    # the result, a peak of 6.8x the 0.8 MB array; read line by line it is 1.2x
    loaded, peak = traced_peak(lambda: load_features(path))
    assert peak < 2 * data.nbytes, f"load_features allocated {peak} bytes"
    assert same_bits(loaded.data, data)


def write_binary_graph(path, n, records):
    body = np.array(records, dtype=[("src", "<u8"), ("dst", "<u8"), ("w", "<f8")])
    path.write_bytes(b"EJGG" + struct.pack("<IQQ", 1, n, len(records)) + body.tobytes())


@pytest.mark.parametrize("chunk", [3, ejgraph._EDGE_CHUNK])
def test_binary_graph_with_unsorted_rows_groups_them_in_file_order(tmp_path, chunk):
    rng = np.random.default_rng(1)
    n = 6
    pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
    records = [(*pairs[i], float(w)) for i, w in zip(rng.permutation(len(pairs))[:20], range(20))]
    expected = [[(d, w) for s, d, w in records if s == q] for q in range(n)]
    write_binary_graph(tmp_path / "unsorted.bin", n, records)
    # already grouped, the same records load to the same rows without a sort
    write_binary_graph(tmp_path / "sorted.bin", n, sorted(records, key=lambda r: r[0]))
    for name, sorts in (("unsorted.bin", 1), ("sorted.bin", 0)):
        with mock.patch.object(ejgraph, "_EDGE_CHUNK", chunk), \
                mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            assert rows_of(load_graph(tmp_path / name, "binary")) == expected
        assert argsort.call_count == sorts


# ---------------------------------------------------------------------------
# The classifier selects its votes one block of test rows at a time
# ---------------------------------------------------------------------------


def classify_in_blocks(monkeypatch, rows, data, labels, train, test, votes):
    """(accuracy, vote ids, blocks) of knn_classify with ``rows`` test rows per block."""
    picked = []

    def recorded_topk(dists, k, finish):
        picked.append(stable_topk(dists, k, finish))
        return picked[-1]

    monkeypatch.setattr(knn, "_block_rows", lambda width: rows)
    monkeypatch.setattr(knn, "stable_topk", recorded_topk)
    acc = knn_classify(data, labels, train, test, votes=votes)
    return acc, np.vstack(picked), len(picked)


@pytest.mark.parametrize("votes", [1, 3])
@pytest.mark.parametrize("data_kind", ["normal", "grid"])
def test_blocked_classifier_matches_one_block(monkeypatch, votes, data_kind):
    rng = np.random.default_rng(votes)
    n = 75
    # normal data tests the distances' bits at a gallery width of 40, a
    # multiple of BLAS's 8; integer points on a 3 x 3 grid make distance ties
    # common, and three labels make vote ties common
    if data_kind == "normal":
        data = rng.normal(size=(n, 5))
    else:
        data = rng.integers(0, 3, size=(n, 2)).astype(np.float64)
    labels = labels_of(rng.choice(["a", "b", "c"], size=n))
    order = rng.permutation(n)
    train, test = np.sort(order[:40]), np.sort(order[40:])
    whole = classify_in_blocks(monkeypatch, 10**6, data, labels, train, test, votes)
    blocked = classify_in_blocks(monkeypatch, 2, data, labels, train, test, votes)
    assert whole[2] == 1 and blocked[2] == 17  # 35 rows: 16 blocks of 2, then one of 3
    assert blocked[0] == whole[0]
    assert np.array_equal(blocked[1], whole[1])


# ---------------------------------------------------------------------------
# The row alias tables are built one chunk of contiguous rows at a time
# ---------------------------------------------------------------------------


def test_row_chunked_alias_tables_equal_per_row_builds(monkeypatch):
    rng = np.random.default_rng(5)
    # under a 10-entry budget: 3 + 4 + 2 + 1 fill one chunk; 25 and 11 are
    # longer than the budget and make chunks of their own
    sizes = [3, 4, 2, 1, 9, 25, 6, 10, 11, 2, 3]
    rows = [rng.random(size) for size in sizes]
    rows[6] = np.full(6, 0.5)  # uniform: every entry scales to exactly 1.0
    chunks = []
    build_chunk = fusion._alias_chunk

    def recorded_chunk(indptr, *arrays):
        chunks.append(indptr[-1])  # the chunk's entry count
        build_chunk(indptr, *arrays)

    monkeypatch.setattr(fusion, "_ALIAS_CHUNK", 10)
    monkeypatch.setattr(fusion, "_alias_chunk", recorded_chunk)
    assert_alias_rows_match_per_row_builds(rows)
    assert chunks == [10, 9, 25, 6, 10, 11, 5]


@settings(max_examples=100, deadline=None)
@given(st.lists(ALIAS_ROWS, min_size=1, max_size=8), st.integers(1, 12))
def test_row_chunked_alias_tables_equal_per_row_builds_at_any_budget(rows, budget):
    with mock.patch.object(fusion, "_ALIAS_CHUNK", budget):
        assert_alias_rows_match_per_row_builds(rows)


# ---------------------------------------------------------------------------
# Graphs are fused one chunk of contiguous rows at a time
# ---------------------------------------------------------------------------


def assert_fuse_matches_per_row_oracle(graphs, combine):
    fused = fuse_graphs(graphs, combine)
    ids, weights = brute_fuse(graphs, combine)
    assert fused.indptr.dtype == np.int64 and fused.n == graphs[0].n
    for q in range(fused.n):
        assert same_bits(fused.neighbor_ids[q], ids[q])
        assert same_bits(fused.weights[q], weights[q])
    return fused


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(random_graph(n), min_size=2, max_size=3)),
       st.sampled_from(["sum", "max"]), st.integers(1, 12))
def test_row_chunked_fuse_equals_the_per_row_oracle_at_any_budget(graphs, combine, budget):
    """Two or three graphs, rows of up to 24 edges (longer than most
    budgets), empty rows, and ties between 0.0 and -0.0."""
    with mock.patch.object(fusion, "_FUSE_CHUNK", budget):
        assert_fuse_matches_per_row_oracle(graphs, combine)


def chunk_test_graphs(row_edges, n_graphs, seed):
    """Graphs on n = 30 nodes whose rows hold ``row_edges`` edges of all graphs
    together, dealt out in turn, with overlapping ids and tied weights."""
    rng = np.random.default_rng(seed)
    n = 30
    rows = [[[] for _ in row_edges] for _ in range(n_graphs)]
    for q, edges in enumerate(row_edges):
        for e in range(edges):
            taken = rows[e % n_graphs][q]
            free = [j for j in range(n) if j != q and j not in taken]
            taken.append(int(rng.choice(free)))
    graphs = []
    for g_rows in rows:
        ids = [np.array(r, dtype=np.int64) for r in g_rows + [[]] * (n - len(row_edges))]
        ws = [rng.choice([0.0, -0.0, 0.5, 1.0], size=r.size) for r in ids]
        graphs.append(SparseGraph(*csr(zip(ids, ws))))
    return graphs


def test_row_chunked_fuse_follows_its_pinned_schedule(monkeypatch):
    # under a 10-edge budget: rows 0-4 hold 10 edges; rows of 25 and 11 edges
    # make chunks of their own; empty rows join the chunk they fall in
    row_edges = [3, 0, 4, 2, 1, 9, 25, 0, 6, 10, 11, 2, 3, 0]
    chunks = []
    fuse_chunk = fusion._fuse_chunk

    def recorded_chunk(graphs, first, last, *rest):
        chunks.append((first, last))
        fuse_chunk(graphs, first, last, *rest)

    graphs = chunk_test_graphs(row_edges, 3, seed=2)
    whole = {combine: fuse_graphs(graphs, combine) for combine in ("sum", "max")}
    monkeypatch.setattr(fusion, "_FUSE_CHUNK", 10)
    monkeypatch.setattr(fusion, "_fuse_chunk", recorded_chunk)
    for combine in ("sum", "max"):
        chunks.clear()
        fused = assert_fuse_matches_per_row_oracle(graphs, combine)
        # the rows past the listed ones are empty and close the last chunk
        assert chunks == [(0, 5), (5, 6), (6, 7), (7, 9), (9, 10), (10, 11), (11, 30)]
        assert all(same_bits(getattr(fused, a), getattr(whole[combine], a))
                   for a in ("indptr", "indices", "data"))


def test_fuse_of_a_million_edges_runs_in_bounded_memory():
    n, per_row = 10_000, 50
    rng = np.random.default_rng(0)
    indptr = np.arange(n + 1, dtype=np.int64) * per_row
    # ids q + 1 + 3a and q + 1 + 2b: the graphs share every id 6 apart
    graphs = [
        SparseGraph(indptr, ((np.arange(n)[:, None] + 1 + step * np.arange(per_row)) % n).ravel(),
                    rng.random(n * per_row))
        for step in (3, 2)
    ]
    fused, peak = traced_peak(lambda: fuse_graphs(graphs, "sum"))
    out_bytes = fused.indptr.nbytes + fused.indices.nbytes + fused.data.nbytes
    assert fused.indices.size == n * (2 * per_row - 17)
    # the result is 13.4 MB (1.5 MB more at the peak); the one-shot fuse held
    # several input-sized arrays besides it (42 MB peak in all)
    assert peak < out_bytes + (8 << 20), f"fuse_graphs allocated {peak} bytes"
    for q in (0, 4_321, n - 1):
        ids, weights = brute_fuse([SparseGraph(g.indptr[q : q + 2] - g.indptr[q],
                                               g.neighbor_ids[q], g.weights[q]) for g in graphs],
                                  "sum")
        assert same_bits(fused.neighbor_ids[q], ids[0])
        assert same_bits(fused.weights[q], weights[0])


@pytest.mark.parametrize("flaw", ["short indptr end", "data too long"])
def test_fuse_rejects_arrays_that_do_not_form_csr(flaw):
    good = SparseGraph(np.array([0, 1, 2]), np.array([1, 0]), np.array([1.0, 2.0]))
    if flaw == "short indptr end":
        bad = SparseGraph(np.array([0, 1, 1]), np.array([1, 0]), np.array([1.0, 2.0]))
    else:
        bad = SparseGraph(np.array([0, 1, 2]), np.array([1, 0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InvalidConfigError, match="do not form a CSR matrix"):
        fuse_graphs([good, bad])


# ---------------------------------------------------------------------------
# The pipeline holds only what later stages read
# ---------------------------------------------------------------------------


def test_pipeline_releases_each_stage_once_consumed(tmp_path, monkeypatch):
    """In a k sweep, each k's graphs, fused graph, affinity and samplers are
    dead when the next k's first graph is built, its affinity is dead at each
    of its training calls, and the knn indexes, their searches and the
    features are dead once the last k's graphs exist."""
    params = write_fixture(tmp_path)
    params.update(k=[3, 5, 4], d=[2, 3], epochs=1, samples_per_node=2)
    ks = params["k"]
    made = {k: [] for k in ks}  # weakrefs to each k's graphs, fused graph, affinity, samplers
    features, memos = [], []  # weakrefs to the feature arrays, the indexes and their searches
    seen = {"k": None, "classify": [], "trained": 0}

    def dead(refs):
        return all(ref() is None for ref in refs)

    def record(module, name, check=None):
        real = getattr(module, name)

        def recorded(*args, **kwargs):
            if check is not None:
                check(*args, **kwargs)
            result = real(*args, **kwargs)
            if name == "build_index":
                memos.append(weakref.ref(result))
            elif name == "load_features":
                features.append(weakref.ref(result.data))
            elif name not in ("knn_classify", "train"):
                made[seen["k"]].append(weakref.ref(result))
            return result

        monkeypatch.setattr(module, name, recorded)

    def before_build(index, k, **kwargs):
        if seen["k"] is None:  # every index has run its one search
            memos.extend([weakref.ref(ref()._ids) for ref in memos])
        if k != seen["k"]:  # the first graph of the next k
            for earlier in ks[: ks.index(k)]:
                assert dead(made[earlier]), f"k={earlier} still alive at k={k}"
            seen["k"] = k

    def before_fuse(graphs, **kwargs):
        last = seen["k"] == ks[-1]
        assert dead(memos + features) == last

    def before_normalize(graph, **kwargs):
        assert dead(made[seen["k"]][:-1]), "the graphs outlive their fuse"

    def before_samplers(affinity, **kwargs):
        assert dead(made[seen["k"]][-2:-1]), "the fused graph outlives its normalization"

    def before_train(*args, **kwargs):
        assert dead(made[seen["k"]][-2:-1]), "the affinity outlives its sampler build"
        seen["trained"] += 1

    def before_classify(*args):
        seen["classify"].append(dead(memos + features))

    record(evalharness, "load_features")
    record(knn, "build_index")
    record(ejgraph, "build_ejg", before_build)
    record(fusion, "fuse_graphs", before_fuse)
    record(fusion, "normalize_affinity", before_normalize)
    record(fusion, "build_samplers", before_samplers)
    record(evalharness, "train", before_train)
    record(evalharness, "knn_classify", before_classify)
    result = evalharness.run_pipeline(PipelineConfig(**params))
    assert [len(made[k]) for k in ks] == [5, 5, 5]  # two graphs, fused, affinity, samplers
    assert len(memos) == 2 + 2 and len(features) == 2  # two indexes and their ids
    assert seen["trained"] == len(ks) * 2
    assert seen["classify"][-1]  # the last classify runs with every index dead
    assert [(r.k, r.d) for r in result.table.fgf_rows()] == [(k, d) for k in ks for d in (2, 3)]


def test_fuse_command_frees_the_loaded_graphs_once_fused(tmp_path, monkeypatch):
    n = 8
    ring = np.arange(n)[:, None] + np.array([1, 2])
    for name, weights in (("a", [1.0, 2.0]), ("b", [3.0, 0.5])):
        graph = SparseGraph(np.arange(n + 1) * 2, (ring % n).ravel(), np.tile(weights, n))
        save_graph(graph, tmp_path / f"{name}.csv")
    loaded = []
    load, normalize = cli.load_graph, cli.normalize_affinity

    def recorded_load(*args, **kwargs):
        graph = load(*args, **kwargs)
        loaded.append(weakref.ref(graph))
        return graph

    def checked_normalize(fused, **kwargs):
        assert [ref() for ref in loaded] == [None, None], "a loaded graph outlives its fuse"
        return normalize(fused, **kwargs)

    monkeypatch.setattr(cli, "load_graph", recorded_load)
    monkeypatch.setattr(cli, "normalize_affinity", checked_normalize)
    argv = ["fuse", "--graphs", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
            "--out", str(tmp_path / "affinity.bin")]
    assert cli.main(argv) == 0
    assert len(loaded) == 2 and load_affinity(tmp_path / "affinity.bin", "binary").n == n
