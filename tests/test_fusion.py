import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgfusion import (
    AffinityMatrix,
    SparseGraph,
    build_samplers,
    fuse_graphs,
    load_affinity,
    normalize_affinity,
    save_affinity,
)
from fgfusion.errors import (
    EmptyRowError,
    InvalidConfigError,
    NodeCountMismatchError,
    ParseError,
)
from fgfusion.fusion import SIGMA_FLOOR, _build_alias, _build_alias_rows
from fgfusion.randomness import rng_stream

from bruteforce import brute_alias, brute_fuse, brute_normalize, csr

# chi-square critical values at alpha = 0.01 by degrees of freedom
CHI2_CRIT = {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086}


def graph_from_rows(n, rows, name=""):
    ids = [np.array([j for j, _ in rows.get(q, [])], dtype=np.int64) for q in range(n)]
    ws = [np.array([w for _, w in rows.get(q, [])], dtype=np.float64) for q in range(n)]
    return SparseGraph(*csr(zip(ids, ws)), modality_name=name)


def row_dict(graph, q):
    return dict(zip(graph.neighbor_ids[q].tolist(), graph.weights[q].tolist()))


# ---------------------------------------------------------------------------
# Graph fusion
# ---------------------------------------------------------------------------


def test_disjoint_edges_union():
    a = graph_from_rows(3, {0: [(1, 2.0)]})
    b = graph_from_rows(3, {0: [(2, 3.0)]})
    fused = fuse_graphs([a, b])
    assert row_dict(fused, 0) == {1: 2.0, 2: 3.0}


def test_overlapping_edge_combined_by_rule():
    a = graph_from_rows(2, {0: [(1, 2.0)]})
    b = graph_from_rows(2, {0: [(1, 3.0)]})
    assert row_dict(fuse_graphs([a, b], "sum"), 0) == {1: 5.0}
    assert row_dict(fuse_graphs([a, b], "max"), 0) == {1: 3.0}


def test_empty_graph_is_identity_element():
    rng = np.random.default_rng(1)
    g = graph_from_rows(4, {q: [(int(j), float(rng.random())) for j in rng.choice(
        [x for x in range(4) if x != q], size=2, replace=False)] for q in range(4)})
    empty = graph_from_rows(4, {})
    for rule in ("sum", "max"):
        fused = fuse_graphs([g, empty], rule)
        for q in range(4):
            assert row_dict(fused, q) == row_dict(g, q)


def test_node_count_mismatch():
    with pytest.raises(NodeCountMismatchError):
        fuse_graphs([graph_from_rows(3, {}), graph_from_rows(4, {})])


def test_fewer_than_two_graphs():
    with pytest.raises(InvalidConfigError):
        fuse_graphs([graph_from_rows(3, {})])


def test_fusion_order_invariance():
    rng = np.random.default_rng(2)
    graphs = []
    for _ in range(3):
        rows = {}
        for q in range(6):
            others = [x for x in range(6) if x != q]
            picks = rng.choice(others, size=3, replace=False)
            rows[q] = [(int(j), float(rng.integers(0, 5))) for j in picks]
        graphs.append(graph_from_rows(6, rows))
    for rule in ("sum", "max"):
        forward = fuse_graphs(graphs, rule)
        backward = fuse_graphs(graphs[::-1], rule)
        nested = fuse_graphs([fuse_graphs(graphs[:2], rule), graphs[2]], rule)
        for q in range(6):
            assert row_dict(forward, q) == row_dict(backward, q)
            assert row_dict(forward, q) == row_dict(nested, q)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ties, zeros and -0.0 next to arbitrary finite weights
WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0]),
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def random_graph(draw, n, min_support=0):
    rows = {}
    for q in range(n):
        others = [j for j in range(n) if j != q]
        ids = draw(st.lists(st.sampled_from(others), min_size=min_support, unique=True)
                   if others else st.just([]))
        rows[q] = [(j, draw(WEIGHTS)) for j in ids]
    return graph_from_rows(n, rows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.lists(random_graph(n), min_size=2, max_size=3)
), st.sampled_from(["sum", "max"]))
def test_fusion_is_bit_equal_to_the_per_row_oracle(graphs, combine):
    """Empty input rows, two or three graphs, both rules."""
    fused = fuse_graphs(graphs, combine)
    ids, weights = brute_fuse(graphs, combine)
    assert len(fused.neighbor_ids) == len(fused.weights) == graphs[0].n
    for q in range(graphs[0].n):
        assert same_bits(fused.neighbor_ids[q], ids[q])
        assert same_bits(fused.weights[q], weights[q])


def test_three_graph_sum_adds_in_graph_order():
    """(a + b) + c, not a + (b + c): the two differ in the last bit here."""
    a, b, c = 0.1, 0.2, 0.3
    assert (a + b) + c != a + (b + c)
    graphs = [graph_from_rows(2, {0: [(1, w)]}) for w in (a, b, c)]
    assert fuse_graphs(graphs, "sum").weights[0][0] == (a + b) + c


def assert_normalization_matches_oracle(graph, kernel_input):
    aff = normalize_affinity(graph, kernel_input)
    probs, sigma_sq = brute_normalize(graph.weights, kernel_input, SIGMA_FLOOR)
    assert same_bits(aff.sigma_sq, sigma_sq)
    for q in range(graph.n):
        assert same_bits(aff.neighbor_ids[q], graph.neighbor_ids[q])
        assert same_bits(aff.probs[q], probs[q])


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 14).flatmap(lambda n: random_graph(n, min_support=1)),
       st.sampled_from(["dissimilarity", "literal"]))
def test_normalization_is_bit_equal_to_the_per_row_oracle(graph, kernel_input):
    """Rows of mixed support size, both kernel inputs."""
    assert_normalization_matches_oracle(graph, kernel_input)


@pytest.mark.parametrize("kernel_input", ["dissimilarity", "literal"])
def test_normalization_matches_the_oracle_on_long_rows(kernel_input):
    """Rows past numpy's pairwise-summation block of 128 values."""
    rng = np.random.default_rng(40)
    n = 400
    rows = {q: [(int(j), float(rng.random() * 5)) for j in rng.choice(
        [x for x in range(n) if x != q], size=int(rng.integers(1, 300)), replace=False)]
        for q in range(n)}
    assert_normalization_matches_oracle(graph_from_rows(n, rows), kernel_input)


# ---------------------------------------------------------------------------
# Affinity normalization
# ---------------------------------------------------------------------------


def test_single_neighbor_row_is_certain():
    g = graph_from_rows(2, {0: [(1, 7.0)], 1: [(0, 0.0)]})
    for mode in ("dissimilarity", "literal"):
        aff = normalize_affinity(g, mode)
        assert aff.probs[0][0] == 1.0
        assert aff.probs[1][0] == 1.0


def test_equal_weights_give_uniform_row():
    g = graph_from_rows(4, {0: [(1, 5.0), (2, 5.0), (3, 5.0)],
                            1: [(0, 0.0)], 2: [(0, 0.0)], 3: [(0, 0.0)]})
    for mode in ("dissimilarity", "literal"):
        aff = normalize_affinity(g, mode)
        np.testing.assert_allclose(aff.probs[0], 1 / 3)


def test_hand_evaluated_row():
    """Row weights {4, 2, 0}: recentered inputs {0, 2, 4}, variance 8/3."""
    g = graph_from_rows(4, {0: [(1, 4.0), (2, 2.0), (3, 0.0)],
                            1: [(0, 0.0)], 2: [(0, 0.0)], 3: [(0, 0.0)]})
    aff = normalize_affinity(g, "dissimilarity")
    var = 8.0 / 3.0
    e = [math.exp(0.0), math.exp(-2.0 / (2 * var)), math.exp(-4.0 / (2 * var))]
    expected = np.array(e) / sum(e)
    np.testing.assert_allclose(aff.probs[0], expected, rtol=1e-12)
    assert aff.sigma_sq[0] == pytest.approx(var)


def test_rows_are_stochastic_over_random_graphs():
    rng = np.random.default_rng(3)
    rows = {}
    for q in range(50):
        others = [x for x in range(50) if x != q]
        size = int(rng.integers(1, 8))
        picks = rng.choice(others, size=size, replace=False)
        rows[q] = [(int(j), float(rng.integers(0, 4))) for j in picks]
    g = graph_from_rows(50, rows)
    for mode in ("dissimilarity", "literal"):
        aff = normalize_affinity(g, mode)
        aff.validate()
        for q in range(50):
            assert abs(aff.probs[q].sum() - 1.0) <= 1e-9
            np.testing.assert_array_equal(aff.neighbor_ids[q], g.neighbor_ids[q])


def test_dissimilarity_mode_preserves_weight_order():
    g = graph_from_rows(4, {0: [(1, 3.0), (2, 1.0), (3, 2.0)],
                            1: [(0, 0.0)], 2: [(0, 0.0)], 3: [(0, 0.0)]})
    aff = normalize_affinity(g, "dissimilarity")
    p = dict(zip(aff.neighbor_ids[0].tolist(), aff.probs[0]))
    assert p[1] > p[3] > p[2]


def test_literal_mode_reverses_weight_order():
    g = graph_from_rows(4, {0: [(1, 3.0), (2, 1.0), (3, 2.0)],
                            1: [(0, 0.0)], 2: [(0, 0.0)], 3: [(0, 0.0)]})
    aff = normalize_affinity(g, "literal")
    p = dict(zip(aff.neighbor_ids[0].tolist(), aff.probs[0]))
    assert p[2] > p[3] > p[1]


def test_empty_row_rejected():
    g = graph_from_rows(3, {0: [(1, 1.0)], 1: [(0, 1.0)]})  # node 2 isolated
    with pytest.raises(EmptyRowError):
        normalize_affinity(g)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def make_affinity(rows, n):
    ids = [np.array([j for j, _ in rows[i]], dtype=np.int64) for i in range(n)]
    ps = [np.array([p for _, p in rows[i]], dtype=np.float64) for i in range(n)]
    return AffinityMatrix(*csr(zip(ids, ps)), sigma_sq=np.ones(n))


def test_even_row_frequencies():
    aff = make_affinity({0: [(1, 0.5), (2, 0.5)], 1: [(0, 1.0)], 2: [(0, 1.0)]}, 3)
    table = build_samplers(aff)
    draws = table.draw_row(0, 100_000, rng_stream(123, "sampler", 0))
    freq1 = np.mean(draws == 1)
    assert 0.49 <= freq1 <= 0.51


def test_degenerate_row_always_returns_the_neighbor():
    aff = make_affinity({0: [(2, 1.0)], 1: [(0, 1.0)], 2: [(0, 1.0)]}, 3)
    table = build_samplers(aff)
    draws = table.draw_row(0, 1000, rng_stream(5, "sampler", 0))
    assert np.all(draws == 2)


def test_same_seed_emits_identical_sequences():
    aff = make_affinity({0: [(1, 0.3), (2, 0.7)], 1: [(0, 1.0)], 2: [(0, 1.0)]}, 3)
    t1 = build_samplers(aff)
    t2 = build_samplers(aff)
    np.testing.assert_array_equal(
        t1.draw_row(0, 500, rng_stream(99, "sampler", 0)),
        t2.draw_row(0, 500, rng_stream(99, "sampler", 0)),
    )
    np.testing.assert_array_equal(
        t1.draw_noise(500, rng_stream(99, "sampler", 1)),
        t2.draw_noise(500, rng_stream(99, "sampler", 1)),
    )


def test_row_sampler_chi_square():
    """Empirical frequencies match the row distribution (alpha = 0.01)."""
    rng = np.random.default_rng(31)
    for trial in range(5):
        size = int(rng.integers(2, 7))
        raw = rng.random(size) + 0.05
        p = raw / raw.sum()
        rows = {0: [(j + 1, float(p[j])) for j in range(size)]}
        for i in range(1, size + 1):
            rows[i] = [(0, 1.0)]
        aff = make_affinity(rows, size + 1)
        table = build_samplers(aff)
        draws = table.draw_row(0, 100_000, rng_stream(trial, "sampler", trial))
        observed = np.array([(draws == j + 1).sum() for j in range(size)])
        expected = p * 100_000
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_CRIT[size - 1], f"trial {trial}: chi2={chi2:.2f}"


def test_noise_distribution_follows_in_strength_power():
    aff = make_affinity({0: [(1, 0.7), (2, 0.3)], 1: [(0, 1.0)], 2: [(0, 0.5), (1, 0.5)]}, 3)
    table = build_samplers(aff, noise_power=0.75)
    strength = np.array([1.0 + 0.5, 0.7 + 0.5, 0.3])
    expected = strength**0.75 / (strength**0.75).sum()
    np.testing.assert_allclose(table.noise_probs, expected, rtol=1e-12)


def test_noise_draw_frequencies():
    aff = make_affinity({0: [(1, 1.0)], 1: [(0, 1.0)]}, 2)
    table = build_samplers(aff, noise_power=1.0)
    draws = table.draw_noise(100_000, rng_stream(11, "sampler", 0))
    assert abs(np.mean(draws == 0) - 0.5) < 0.01


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: random_graph(n, min_support=1)))
def test_sampler_tables_are_bit_equal_to_the_oracle(graph):
    aff = normalize_affinity(graph)
    table = build_samplers(aff)
    for q in range(aff.n):
        accept, alias = brute_alias(aff.probs[q])
        row = slice(table._indptr[q], table._indptr[q + 1])
        assert same_bits(table._accept[row], accept)
        assert same_bits(table._alias[row], alias)
    strength = np.zeros(aff.n)
    for ids, p in zip(aff.neighbor_ids, aff.probs):
        np.add.at(strength, ids, p)
    noise = strength**0.75
    assert same_bits(table.noise_probs, noise / noise.sum())
    accept, alias = brute_alias(table.noise_probs)
    assert same_bits(table._noise_accept, accept) and same_bits(table._noise_alias, alias)


# tiny, zero, NaN and negative entries beside values whose scaled form lands on 1.0
ALIAS_VALUES = st.one_of(
    st.sampled_from([0.0, 1e-300, 3e-300, 5e-324, 0.5, 1.0, 2.0, 3.0, float("nan"), -1.0]),
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False),
)
ALIAS_ROWS = st.one_of(
    st.lists(ALIAS_VALUES, min_size=1, max_size=8),
    # uniform rows: every scaled entry is 1.0 or a rounding away from it
    st.tuples(st.integers(1, 300), ALIAS_VALUES).map(lambda t: [t[1]] * t[0]),
    # m, m - d, m + d, ... in any order, m a power of two: the m entries scale to exactly 1.0
    st.tuples(st.sampled_from([1, 2, 4, 8]), st.lists(st.integers(0, 8), max_size=4)).flatmap(
        lambda t: st.permutations([float(t[0])] + [
            float(t[0] + sign * min(d, t[0])) for d in t[1] for sign in (1, -1)])),
    # rows past numpy's pairwise-summation block of 128 values
    st.tuples(st.integers(129, 400), st.lists(ALIAS_VALUES, min_size=1, max_size=4),
              st.integers(0, 2**32 - 1)).map(
        lambda t: np.random.default_rng(t[2]).choice(t[1], t[0]).tolist()),
)


def assert_alias_rows_match_per_row_builds(rows):
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    data = np.array([v for r in rows for v in r], dtype=np.float64)
    with np.errstate(all="ignore"):  # 5e-324 entries overflow size / total in both builds
        try:
            per_row = [_build_alias(np.array(r, dtype=np.float64)) for r in rows]
        except InvalidConfigError as exc:
            with pytest.raises(InvalidConfigError, match=str(exc)):
                _build_alias_rows(indptr, data)
            return
        accept, alias = _build_alias_rows(indptr, data)
    assert same_bits(accept, np.concatenate([a for a, _ in per_row]))
    assert same_bits(alias, np.concatenate([a for _, a in per_row]))


@settings(max_examples=200, deadline=None)
@given(st.lists(ALIAS_ROWS, min_size=1, max_size=6))
def test_lockstep_alias_rows_are_bit_equal_to_per_row_builds(rows):
    assert_alias_rows_match_per_row_builds(rows)


@pytest.mark.parametrize(
    "rows", [[[0.5, 0.5], []], [[], [1.0]], [[0.0, 0.0], [1.0]], [[1.0], [-0.0]]]
)
def test_lockstep_alias_rows_reject_empty_and_all_zero_rows(rows):
    assert_alias_rows_match_per_row_builds(rows)  # the per-row build raises here
    with pytest.raises(InvalidConfigError, match="all-zero distribution"):
        _build_alias_rows(np.cumsum([0] + [len(r) for r in rows]), np.array(sum(rows, [])))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 9).flatmap(lambda n: st.tuples(
        random_graph(n, min_support=1),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=12),
    )),
    st.sampled_from([1, 2, 7]),
    st.integers(0, 2**32 - 1),
)
def test_draw_rows_is_bit_equal_to_consecutive_draw_row_calls(graph_nodes, size, seed):
    graph, nodes = graph_nodes
    table = build_samplers(normalize_affinity(graph))
    rows = table.draw_rows(np.array(nodes), size, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    expected = np.array([table.draw_row(i, size, rng) for i in nodes])
    assert rows.shape == (len(nodes), size)
    assert same_bits(rows, expected)


@pytest.mark.parametrize("power", [float("nan"), -1.0, float("inf")])
def test_noise_power_must_be_finite_and_nonnegative(power):
    aff = make_affinity({0: [(1, 1.0)], 1: [(0, 1.0)]}, 2)
    with pytest.raises(InvalidConfigError):
        build_samplers(aff, noise_power=power)


@pytest.mark.parametrize(
    "probs, problem",
    [
        # size / total overflows to inf: drawn 1:1 instead of 1:2
        ([5e-324, 1e-323], "sum to"),
        # used to get a uniform table, then be reported as a noise_power overflow
        ([math.nan, 1.0], "outside"),
        ([-0.5, 1.5], "outside"),
    ],
)
def test_sampler_rejects_a_row_that_is_not_a_distribution(probs, problem):
    aff = make_affinity({0: [(1, 1.0)], 1: [(0, probs[0]), (2, probs[1])], 2: [(0, 1.0)]}, 3)
    with pytest.raises(InvalidConfigError, match=f"row 1: .*{problem}"):
        build_samplers(aff)


def test_sampler_rejects_an_empty_row():
    aff = make_affinity({0: [(1, 1.0)], 1: [], 2: [(0, 1.0)]}, 3)
    with pytest.raises(EmptyRowError, match="row 1"):
        build_samplers(aff)


def test_sampler_keeps_its_own_copy_of_the_affinity():
    aff = make_affinity({0: [(1, 0.25), (2, 0.75)], 1: [(0, 0.5), (2, 0.5)], 2: [(1, 1.0)]}, 3)
    table = build_samplers(aff)

    def draws():
        rng = rng_stream(5, "sampler", 0)
        return np.concatenate([table.draw_rows(np.arange(3), 40, rng).ravel(),
                               table.draw_row(0, 40, rng), table.draw_noise(40, rng)])

    before = draws()
    aff.indptr[1:] = aff.indptr[-1]
    aff.indices[:] = 0
    aff.data[:] = 1.0
    assert same_bits(draws(), before)


def test_samplers_take_no_seed():
    # the table never drew with its seed: every draw takes the caller's generator
    aff = make_affinity({0: [(1, 1.0)], 1: [(0, 1.0)]}, 2)
    with pytest.raises(TypeError):
        build_samplers(aff, seed=0)
    assert not hasattr(build_samplers(aff), "stream")


def test_noise_power_that_overflows_is_rejected():
    # in-strength 2 at node 0: 2**2000 overflows to inf, and inf/inf is NaN
    aff = make_affinity({0: [(1, 0.5), (2, 0.5)], 1: [(0, 1.0)], 2: [(0, 1.0)]}, 3)
    with pytest.raises(InvalidConfigError, match="overflows"):
        build_samplers(aff, noise_power=2000.0)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_affinity_roundtrip(tmp_path, fmt):
    g = graph_from_rows(3, {0: [(1, 2.0), (2, 1.0)], 1: [(0, 1.0)], 2: [(1, 4.0)]})
    aff = normalize_affinity(g)
    path = tmp_path / f"a.{fmt}"
    save_affinity(aff, path, fmt)
    back = load_affinity(path, fmt)
    assert back.n == aff.n
    for i in range(3):
        np.testing.assert_array_equal(back.neighbor_ids[i], aff.neighbor_ids[i])
        np.testing.assert_array_equal(back.probs[i], aff.probs[i])
    if fmt == "binary":
        np.testing.assert_array_equal(back.sigma_sq, aff.sigma_sq)


@pytest.mark.parametrize("field", ["src", "dst"])
def test_binary_affinity_rejects_out_of_range_node_ids(tmp_path, field):
    g = graph_from_rows(3, {0: [(1, 2.0), (2, 1.0)], 1: [(0, 1.0)], 2: [(1, 4.0)]})
    path = tmp_path / "a.bin"
    save_affinity(normalize_affinity(g), path, "binary")
    blob = bytearray(path.read_bytes())
    record = 24 + 24 * 3  # the fourth edge, 2 -> 1
    offset = record if field == "src" else record + 8
    blob[offset : offset + 8] = np.asarray([3], dtype="<u8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError, match=field):
        load_affinity(path, "binary")


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_a_loaded_affinity_edited_in_place_is_rejected_by_the_sampler_build(tmp_path, fmt):
    g = graph_from_rows(3, {0: [(1, 2.0), (2, 1.0)], 1: [(0, 1.0)], 2: [(1, 4.0)]})
    path = tmp_path / f"a.{fmt}"
    save_affinity(normalize_affinity(g), path, fmt)
    aff = load_affinity(path, fmt)
    build_samplers(aff)
    aff.probs[1] = [0.5]  # a loaded affinity is an ordinary, writable one
    with pytest.raises(InvalidConfigError, match="row 1: probabilities sum to 0.5"):
        build_samplers(aff)


def test_binary_affinity_rows_keep_file_order(tmp_path):
    """Edges stored out of row order load into their rows in file order."""
    body = np.array(
        [(2, 0, 0.25), (0, 1, 1.0), (2, 1, 0.75), (1, 2, 0.5), (1, 0, 0.5)],
        dtype=[("src", "<u8"), ("dst", "<u8"), ("p", "<f8")],
    )
    header = b"EJGA" + np.asarray([1], "<u4").tobytes() + np.asarray([3, 5], "<u8").tobytes()
    path = tmp_path / "a.bin"
    path.write_bytes(header + body.tobytes() + np.ones(3, "<f8").tobytes())
    aff = load_affinity(path, "binary")
    assert [ids.tolist() for ids in aff.neighbor_ids] == [[1], [2, 0], [0, 1]]
    assert [p.tolist() for p in aff.probs] == [[1.0], [0.5, 0.5], [0.25, 0.75]]
