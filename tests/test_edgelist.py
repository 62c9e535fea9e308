"""Edge-list files shared by graphs and affinities: CSV parsing, binary id
checks and non-finite values."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgfusion import (
    AffinityMatrix,
    SparseGraph,
    load_affinity,
    load_graph,
    normalize_affinity,
    save_affinity,
    save_graph,
)
from fgfusion import ejgraph
from fgfusion.errors import ParseError

from bruteforce import brute_csv_edges, csr
from test_dataset import FLOAT_TOKENS, ODD_FLOAT_TOKENS, csv_texts, outcome
from test_fusion import graph_from_rows

LOADERS = {"graph": load_graph, "affinity": load_affinity}

# every row sums to 1, so the same text is a valid graph and a valid affinity
GOOD_LINES = ["0,1,0.25", "0,2,0.75", "1,0,1.0", "2,1,1.0"]


def load_text(tmp_path, kind, text, newline="\n"):
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(text.encode("utf-8").replace(b"\n", newline.encode("ascii")))
    return LOADERS[kind](path, "csv")


def rows_of(obj):
    values = obj.weights if hasattr(obj, "weights") else obj.probs
    return [list(zip(ids.tolist(), v.tolist())) for ids, v in zip(obj.neighbor_ids, values)]


EXPECTED_ROWS = [[(1, 0.25), (2, 0.75)], [(0, 1.0)], [(1, 1.0)]]


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", LOADERS)
@pytest.mark.parametrize(
    "bad_line",
    ["0,2", "0,2,0.5,1", "0,x,0.5", "0,2,abc", "1.5,2,0.5", "-1,2,0.5", "0,-2,0.5"],
)
def test_csv_error_names_the_zero_based_line(tmp_path, kind, bad_line):
    # a blank line counts toward the line number
    lines = GOOD_LINES[:2] + [""] + [bad_line] + GOOD_LINES[2:]
    with pytest.raises(ParseError) as exc:
        load_text(tmp_path, kind, "\n".join(lines) + "\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("kind", LOADERS)
def test_csv_error_line_past_a_large_prefix(tmp_path, kind):
    """The line number stays exact deep into a file read in pieces."""
    lines = [f"{q},{q + 1},1.0" for q in range(60_000)] + ["60000,0,1.0"]
    lines[54_321] = "54321,oops,1.0"
    with pytest.raises(ParseError) as exc:
        load_text(tmp_path, kind, "\n".join(lines) + "\n")
    assert exc.value.line == 54_321


@pytest.mark.parametrize("kind", LOADERS)
def test_csv_skips_blank_and_whitespace_lines(tmp_path, kind):
    lines = ["", GOOD_LINES[0], "   ", GOOD_LINES[1], "\t", GOOD_LINES[2], "", GOOD_LINES[3], ""]
    assert rows_of(load_text(tmp_path, kind, "\n".join(lines))) == EXPECTED_ROWS


@pytest.mark.parametrize("kind", LOADERS)
def test_csv_accepts_crlf_line_endings(tmp_path, kind):
    text = "\n".join(GOOD_LINES) + "\n"
    assert rows_of(load_text(tmp_path, kind, text, newline="\r\n")) == EXPECTED_ROWS


@pytest.mark.parametrize("kind", LOADERS)
def test_csv_without_final_newline(tmp_path, kind):
    assert rows_of(load_text(tmp_path, kind, "\n".join(GOOD_LINES))) == EXPECTED_ROWS


@pytest.mark.parametrize("kind", LOADERS)
def test_csv_rows_keep_file_order(tmp_path, kind):
    lines = ["2,1,1.0", "0,2,0.75", "1,0,1.0", "0,1,0.25"]
    loaded = load_text(tmp_path, kind, "\n".join(lines))
    assert rows_of(loaded) == [[(2, 0.75), (1, 0.25)], [(0, 1.0)], [(1, 1.0)]]


def ring_lines(n):
    return [f"{q},{(q + 1) % n},1.0" for q in range(n)]


@pytest.mark.parametrize("kind", LOADERS)
@pytest.mark.parametrize(
    "spelling, node", [("+5", 5), (" 5 ", 5), ("5_0", 50), ("\u0665", 5), ("005", 5)]
)
def test_csv_ids_read_as_python_ints(tmp_path, kind, spelling, node):
    lines = ring_lines(51)
    lines[node] = f"{spelling},{(node + 1) % 51},1.0"
    lines[node - 1] = f"{node - 1},{spelling},1.0"
    loaded = load_text(tmp_path, kind, "\n".join(lines) + "\n")
    assert loaded.n == 51
    assert rows_of(loaded) == [[((q + 1) % 51, 1.0)] for q in range(51)]


@pytest.mark.parametrize("kind", LOADERS)
@pytest.mark.parametrize("bad_line", ["5.0,1,1.0", "1e3,1,1.0", "1,5.0,1.0", "1,1e3,1.0"])
def test_csv_ids_that_python_int_rejects(tmp_path, kind, bad_line):
    lines = ring_lines(8)
    lines[5] = bad_line
    with pytest.raises(ParseError) as exc:
        load_text(tmp_path, kind, "\n".join(lines) + "\n")
    assert exc.value.line == 5


@pytest.mark.parametrize("kind", LOADERS)
def test_csv_loadtxt_warning_is_not_trusted(tmp_path, kind, monkeypatch):
    """numpy 1.23-1.26 read the id "5.0" as 5 and only warn; the loaders must
    then parse the file themselves and reject it."""
    lenient = np.loadtxt

    def warning_loadtxt(fname, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return lenient(ring_lines(8), **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    lines = ring_lines(8)
    lines[5] = "5.0,6,1.0"
    with pytest.raises(ParseError) as exc:
        load_text(tmp_path, kind, "\n".join(lines) + "\n")
    assert exc.value.line == 5


@pytest.mark.parametrize("kind", LOADERS)
@pytest.mark.parametrize("fast", [True, False])
def test_csv_fields_padded_with_separator_bytes_load(tmp_path, kind, fast):
    """Every field is stripped as str.strip() does, so the per-line parser
    reads the separator bytes \x1c-\x1f around a field as numpy's reader does."""
    lines = ring_lines(8)
    lines[3] = "3\x1c,\x1f4,\x1e1.0\x1d"
    lines[5] = "\x1c5\x1c,6,1.0"
    fast_read = ejgraph._read_csv_table if fast else (lambda *args, **kwargs: None)
    with mock.patch.object(ejgraph, "_read_csv_table", fast_read):
        loaded = load_text(tmp_path, kind, "\n".join(lines) + "\n")
    assert rows_of(loaded) == [[((q + 1) % 8, 1.0)] for q in range(8)]


@pytest.mark.parametrize("kind", LOADERS)
@pytest.mark.parametrize("fast", [True, False])
def test_csv_leading_byte_order_mark_is_skipped(tmp_path, kind, fast):
    fast_read = ejgraph._read_csv_table if fast else (lambda *args, **kwargs: None)
    with mock.patch.object(ejgraph, "_read_csv_table", fast_read):
        loaded = load_text(tmp_path, kind, "\ufeff" + "\n".join(GOOD_LINES) + "\n")
    assert rows_of(loaded) == EXPECTED_ROWS


ID_TOKENS = ["0", "1", "2", "3", "+1", " 2 ", "00", "\x0c1", "\xa02"]
ODD_ID_TOKENS = ["-1", "5.0", "1e3", "0_1", "\u0665", str(2**63), "", "x", "1 2", "-0", "\x1f1"]


@settings(max_examples=400, deadline=None)
@given(csv_texts([(ID_TOKENS, ODD_ID_TOKENS)] * 2 + [(FLOAT_TOKENS, ODD_FLOAT_TOKENS)]))
def test_fast_edge_read_matches_the_per_line_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("edges") / "e.csv"
    path.write_text(text, encoding="utf-8", newline="")

    def read():
        indptr, ids, values, _ = ejgraph._read_edges(path, "csv", b"EJGG", "weight")
        return np.concatenate([indptr, ids, values])

    got = outcome(read)
    with mock.patch.object(ejgraph, "_read_csv_table", return_value=None):
        want = outcome(read)
    assert got == want


def test_graph_csv_infers_n_from_the_largest_id(tmp_path):
    graph = load_text(tmp_path, "graph", "0,4,0.5\n2,0,1.0\n")
    assert graph.n == 5
    assert rows_of(graph) == [[(4, 0.5)], [], [(0, 1.0)], [], []]


def test_graph_csv_holds_no_more_nodes_than_bytes(tmp_path):
    # an 8-byte file may name nodes 0 to 7, so a short file cannot make the
    # loader allocate many rows
    assert load_text(tmp_path, "graph", "0,7,1.0\n").n == 8
    with pytest.raises(ParseError, match="9 nodes but only 8 bytes"):
        load_text(tmp_path, "graph", "0,8,1.0\n")
    with pytest.raises(ParseError):
        load_text(tmp_path, "graph", "0,1099511627776,1.0\n")


def test_affinity_csv_infers_n_from_the_largest_id(tmp_path):
    affinity = load_text(tmp_path, "affinity", "0,1,1.0\n3,0,1.0\n1,3,1.0\n2,3,1.0\n")
    assert affinity.n == 4


@pytest.mark.parametrize("kind", LOADERS)
def test_csv_without_edges_is_rejected(tmp_path, kind):
    with pytest.raises(ParseError):
        load_text(tmp_path, kind, "\n  \n")


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_graph_csv_rejects_non_finite_weights(tmp_path, weight):
    with pytest.raises(ParseError):
        load_text(tmp_path, "graph", f"0,1,1.0\n1,2,{weight}\n2,0,1.0\n")


def test_affinity_csv_rejects_nan_probabilities(tmp_path):
    with pytest.raises(ParseError):
        load_text(tmp_path, "affinity", "0,1,nan\n1,0,1.0\n")


@pytest.mark.parametrize("kind", LOADERS)
def test_csv_write_is_one_repr_line_per_edge(tmp_path, kind):
    g = graph_from_rows(3, {0: [(2, 0.1), (1, 0.9)], 1: [(0, 1.0)], 2: [(1, 1.0)]})
    path = tmp_path / "out.csv"
    if kind == "graph":
        save_graph(g, path, "csv")
    else:
        save_affinity(AffinityMatrix(g.indptr, g.indices, g.data), path, "csv")
    assert path.read_text() == "0,2,0.1\n0,1,0.9\n1,0,1.0\n2,1,1.0\n"


# signed zeros, NaN, infinities, subnormals and values whose repr is long or exponential
EDGE_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e-310,
                     1e16, 1e-5, 0.1 + 0.2]),
)


@st.composite
def hand_built_csr(draw):
    """Unvalidated CSR arrays: empty rows, and ids that are negative or >= n."""
    n = draw(st.integers(1, 6))
    ids = st.one_of(st.integers(-3, n + 3), st.integers(-(2**63), 2**63 - 1))
    rows = draw(st.lists(st.lists(st.tuples(ids, EDGE_VALUES), max_size=6), min_size=n, max_size=n))
    return ejgraph._Csr(*csr(([j for j, _ in row], [v for _, v in row]) for row in rows))


@settings(max_examples=300, deadline=None)
@given(hand_built_csr(), st.sampled_from([1, 3, ejgraph._EDGE_CHUNK]))
def test_csv_write_matches_the_per_edge_oracle(tmp_path_factory, matrix, chunk):
    path = tmp_path_factory.mktemp("write") / "edges.csv"
    with mock.patch.object(ejgraph, "_EDGE_CHUNK", chunk):
        ejgraph._write_edges(path, "csv", matrix, b"EJGA")
    assert path.read_bytes() == brute_csv_edges(matrix).encode("utf-8")


def test_csv_write_over_several_chunks_matches_the_per_edge_oracle(tmp_path):
    rng = np.random.default_rng(3)
    n, edges = 500, 3 * ejgraph._EDGE_CHUNK + 17
    indptr = np.concatenate(([0], np.sort(rng.integers(0, edges + 1, n - 1)), [edges]))
    values = rng.normal(size=edges)
    values[::2] = rng.integers(0, 4, values[::2].size) / 2  # few distinct values, as in EJG weights
    matrix = ejgraph._Csr(indptr, rng.integers(-2, n + 2, edges), values)
    ejgraph._write_edges(tmp_path / "edges.csv", "csv", matrix, b"EJGG")
    assert (tmp_path / "edges.csv").read_bytes() == brute_csv_edges(matrix).encode("utf-8")


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7])
def test_csv_write_of_chunks_mixing_in_and_out_of_range_ids(tmp_path, chunk):
    # row 1 holds -1 and 3 beside the in-range 0, outside the table of [0, 3)
    matrix = ejgraph._Csr(*csr([
        ([1, 2, 0], [0.5, -0.0, 0.0]),
        ([0, -1, 3], [1.0, 2.0, 1.0]),
        ([2, 2**63 - 1, 1], [0.1 + 0.2, 1e16, 0.5]),
    ]))
    with mock.patch.object(ejgraph, "_EDGE_CHUNK", chunk):
        ejgraph._write_edges(tmp_path / "edges.csv", "csv", matrix, b"EJGG")
    assert (tmp_path / "edges.csv").read_bytes() == brute_csv_edges(matrix).encode("utf-8")


@pytest.mark.parametrize("chunk", [1, 2, ejgraph._EDGE_CHUNK])
def test_csv_write_of_a_graph_with_more_nodes_than_ids_present(tmp_path, chunk):
    # rows 3 to 9 are empty, and no edge names a node above 2
    g = graph_from_rows(10, {0: [(1, 0.5), (2, 0.25)], 1: [(2, 1.0)], 2: [(0, 0.0)]})
    with mock.patch.object(ejgraph, "_EDGE_CHUNK", chunk):
        save_graph(g, tmp_path / "g.csv", "csv")
    assert (tmp_path / "g.csv").read_bytes() == brute_csv_edges(g).encode("utf-8")


def test_csv_write_of_an_affinity_over_several_chunks(tmp_path):
    rng = np.random.default_rng(6)
    n, k = 700, 13  # 9 100 edges: one chunk and part of another
    ids = (np.arange(n)[:, None] + rng.permutation(np.arange(1, n))[:k]) % n
    g = SparseGraph(np.arange(n + 1) * k, ids.reshape(-1), rng.integers(0, 5, n * k) / 4.0)
    aff = normalize_affinity(g)
    save_affinity(aff, tmp_path / "a.csv", "csv")
    assert (tmp_path / "a.csv").read_bytes() == brute_csv_edges(aff).encode("utf-8")


# ---------------------------------------------------------------------------
# Binary
# ---------------------------------------------------------------------------


def binary_graph(tmp_path, records, n=3):
    body = np.array(records, dtype=[("src", "<u8"), ("dst", "<u8"), ("w", "<f8")])
    header = b"EJGG" + np.asarray([1], "<u4").tobytes() + np.asarray([n, len(records)], "<u8").tobytes()
    path = tmp_path / "g.bin"
    path.write_bytes(header + body.tobytes())
    return path


@pytest.mark.parametrize(
    "record",
    [(3, 0, 1.0), (0, 3, 1.0), (2**64 - 1, 0, 1.0), (0, 2**64 - 1, 1.0)],
    ids=["src>=n", "dst>=n", "src=2^64-1", "dst=2^64-1"],
)
def test_binary_graph_rejects_out_of_range_ids(tmp_path, record):
    path = binary_graph(tmp_path, [(0, 1, 1.0), (1, 2, 1.0), record, (2, 1, 1.0)])
    with pytest.raises(ParseError):
        load_graph(path, "binary")


@pytest.mark.parametrize("weight", [np.nan, np.inf])
def test_binary_graph_rejects_non_finite_weights(tmp_path, weight):
    path = binary_graph(tmp_path, [(0, 1, 1.0), (1, 2, weight), (2, 0, 1.0)])
    with pytest.raises(ParseError):
        load_graph(path, "binary")


def test_binary_graph_rows_keep_file_order(tmp_path):
    path = binary_graph(tmp_path, [(2, 0, 0.5), (0, 1, 1.0), (2, 1, 0.25), (0, 2, 2.0)])
    assert rows_of(load_graph(path, "binary")) == [[(1, 1.0), (2, 2.0)], [], [(0, 0.5), (1, 0.25)]]


def test_binary_affinity_rejects_nan_probabilities(tmp_path):
    g = graph_from_rows(3, {0: [(1, 0.5), (2, 0.5)], 1: [(0, 1.0)], 2: [(1, 1.0)]})
    path = tmp_path / "a.bin"
    save_affinity(normalize_affinity(g), path, "binary")
    blob = bytearray(path.read_bytes())
    blob[24 + 16 : 24 + 24] = np.asarray([np.nan], dtype="<f8").tobytes()  # first edge's p
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError):
        load_affinity(path, "binary")


@pytest.mark.parametrize("kind, magic", [("graph", b"EJGG"), ("affinity", b"EJGA")])
@pytest.mark.parametrize("n", [0, 2, 2**62])
def test_binary_edge_file_without_edges_is_rejected(tmp_path, kind, magic, n):
    # an affinity's bandwidths follow its edges; at n = 2^62 the length check rejects the file
    trailer = np.ones(n, "<f8").tobytes() if kind == "affinity" and n < 2**62 else b""
    path = tmp_path / "e.bin"
    path.write_bytes(magic + np.asarray([1], "<u4").tobytes() + np.asarray([n, 0], "<u8").tobytes()
                     + trailer)
    with pytest.raises(ParseError):
        LOADERS[kind](path, "binary")


def test_binary_graph_rejects_more_nodes_than_edge_ends(tmp_path):
    assert load_graph(binary_graph(tmp_path, [(0, 1, 1.0)], n=2), "binary").n == 2
    with pytest.raises(ParseError, match="3 nodes but only 1 edges"):
        load_graph(binary_graph(tmp_path, [(0, 1, 1.0)], n=3), "binary")


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_affinity_with_more_rows_than_edges_is_rejected(tmp_path, fmt):
    """Rows 1 and 2 are empty: caught before the rows are grouped."""
    g = graph_from_rows(3, {0: [(1, 0.5), (2, 0.5)]})
    path = tmp_path / "a.bin"
    save_affinity(AffinityMatrix(g.indptr, g.indices, g.data), path, fmt)
    with pytest.raises(ParseError, match="3 rows but 2 edges"):
        load_affinity(path, fmt)
