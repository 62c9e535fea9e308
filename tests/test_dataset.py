import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgfusion import (
    FeatureMatrix,
    LabelVector,
    load_affinity,
    load_embeddings,
    load_features,
    load_graph,
    load_labels,
    save_embeddings,
    save_features,
    synth_multimodal,
    validate_alignment,
)
from fgfusion import dataset
from fgfusion.dataset import EmbeddingMatrix
from fgfusion.errors import (
    DataError,
    DimensionMismatchError,
    InvalidConfigError,
    LengthMismatchError,
    NonFiniteValueError,
    ParseError,
)

from bruteforce import loo_nn_accuracy


# ---------------------------------------------------------------------------
# CSV / binary persistence
# ---------------------------------------------------------------------------


def test_csv_read_back(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,2,3,4\n5,6,7,8\n9,10,11,12\n")
    mat = load_features(path)
    assert mat.n == 3 and mat.dim == 4
    np.testing.assert_array_equal(mat.data, np.arange(1, 13).reshape(3, 4))


def test_csv_accepts_tabs_and_header(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("colA\tcolB\n1.5\t2.5\n3.5\t-4.5\n")
    mat = load_features(path, header=True)
    np.testing.assert_array_equal(mat.data, [[1.5, 2.5], [3.5, -4.5]])


def test_csv_nan_rejected_with_position(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,2\n3,4\nnan,6\n")
    with pytest.raises(NonFiniteValueError) as exc:
        load_features(path)
    assert exc.value.row == 2 and exc.value.col == 0


def test_csv_garbage_field_reports_line_and_offset(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,2\n3,four\n")
    with pytest.raises(ParseError) as exc:
        load_features(path)
    assert exc.value.line == 1 and exc.value.offset == 1


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(DimensionMismatchError):
        load_features(path)


def write_csv(tmp_path, text, newline="\n"):
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8").replace(b"\n", newline.encode("ascii")))
    return path


def test_csv_skips_blank_and_whitespace_lines(tmp_path):
    path = write_csv(tmp_path, "\n1,2\n\n   \n3,4\n\t\n \t \n5,6\n\n")
    np.testing.assert_array_equal(load_features(path).data, [[1, 2], [3, 4], [5, 6]])


def test_csv_accepts_crlf_line_endings(tmp_path):
    path = write_csv(tmp_path, "1,2\n3,4\n", newline="\r\n")
    np.testing.assert_array_equal(load_features(path).data, [[1, 2], [3, 4]])


def test_csv_without_final_newline(tmp_path):
    path = write_csv(tmp_path, "1,2\n3,4")
    np.testing.assert_array_equal(load_features(path).data, [[1, 2], [3, 4]])


def test_csv_header_followed_by_a_blank_line(tmp_path):
    path = write_csv(tmp_path, "a,b\n\n1,2\n3,4\n")
    np.testing.assert_array_equal(load_features(path, header=True).data, [[1, 2], [3, 4]])


def test_csv_single_column(tmp_path):
    mat = load_features(write_csv(tmp_path, "1\n2\n3\n"))
    assert mat.data.shape == (3, 1)
    np.testing.assert_array_equal(mat.data[:, 0], [1, 2, 3])


def test_csv_single_row_embedding(tmp_path):
    emb = load_embeddings(write_csv(tmp_path, "1.5,2.5,3.5\n"), "csv")
    assert emb.vectors.shape == (1, 3)
    np.testing.assert_array_equal(emb.vectors[0], [1.5, 2.5, 3.5])


@pytest.mark.parametrize("text, header", [("", False), ("\n \n\t\n", False), ("a,b\n", True)])
def test_csv_without_data_rows_is_a_parse_error(tmp_path, text, header):
    with pytest.raises(ParseError) as exc:
        load_features(write_csv(tmp_path, text), header=header)
    assert exc.value.line == 0


def test_csv_fields_read_as_python_floats(tmp_path):
    fields = ["+1.5", "1_0.5", " 2.0 ", "1e-5", "-0.0", ".5", "7."]
    path = write_csv(tmp_path, ",".join(fields) + "\n" + ",".join(["0"] * len(fields)) + "\n")
    got = load_features(path).data[0]
    assert got.tobytes() == np.array([float(f) for f in fields]).tobytes()


def test_csv_parse_error_line_and_offset_deep_in_a_file(tmp_path):
    lines = [f"{q}.5,{q + 1}.25,-{q}" for q in range(60_000)]
    lines[50_001] = "1.0,2.0,x3"
    with pytest.raises(ParseError) as exc:
        load_features(write_csv(tmp_path, "\n".join(lines) + "\n"))
    assert (exc.value.line, exc.value.offset) == (50_001, 2)


def test_csv_non_finite_row_counts_data_rows_only(tmp_path):
    # line 5, but data row 2: blank lines and the header are not rows
    path = write_csv(tmp_path, "h1,h2\n1,2\n\n3,4\n  \n5,inf\n6,nan\n")
    with pytest.raises(NonFiniteValueError) as exc:
        load_features(path, header=True)
    assert (exc.value.row, exc.value.col) == (2, 1)


@pytest.mark.parametrize("after", ["7,8,9", "x,8", "8"], ids=["ragged", "garbage", "short"])
def test_csv_non_finite_value_wins_over_a_later_bad_row(tmp_path, after):
    path = write_csv(tmp_path, f"1,2\n3,-inf\nnan,5\n{after}\n")
    with pytest.raises(NonFiniteValueError) as exc:
        load_features(path)
    assert (exc.value.row, exc.value.col) == (1, 1)


def test_csv_mixed_comma_and_tab_rows(tmp_path):
    path = write_csv(tmp_path, "1,2\t3\n4\t5,6\n\t7\t8,9\t\n")
    np.testing.assert_array_equal(load_features(path).data, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])


@pytest.mark.parametrize("line", ["1\t,2", "1,\t2", "1,,2"])
def test_csv_empty_field_between_separators(tmp_path, line):
    with pytest.raises(ParseError) as exc:
        load_features(write_csv(tmp_path, f"1,2,3\n{line}\n"))
    assert (exc.value.line, exc.value.offset) == (1, 1)


def test_csv_loadtxt_warning_is_not_trusted(tmp_path, monkeypatch):
    """A warning from numpy's reader means its result is not used."""
    lenient = np.loadtxt

    def warning_loadtxt(fname, **kwargs):
        warnings.warn("loadtxt(): stand-in for an old numpy's lenient parse", DeprecationWarning)
        return lenient(["9,9", "9,9"], **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path = write_csv(tmp_path, "1,2\n3,4\n")
    np.testing.assert_array_equal(load_features(path).data, [[1, 2], [3, 4]])


# Fields and separators around the edges of what float() and numpy's reader
# accept; the odd ones are drawn rarely, so that many texts read fast.
FLOAT_TOKENS = ["1", "-2.5", "+1.5", " 2.0 ", "1e-5", "1e500", "5.", ".5", "-0.0", "nan", "-inf",
                "Infinity", "\x0b3\x0c", "\x1c4", "\xa06"]
ODD_FLOAT_TOKENS = ["1_0", "0x10", "", " ", "\u0665", "1\x00", "1 2", "1e", "--1"]
SEPARATORS = ["\t", " ,", ",\t", "\t,", ",,", ";"]
EDGES = ["", " ", "\t", "\x0c"]


def rarely(draw, common, odd, one_in=8):
    return draw(st.sampled_from(odd if draw(st.integers(1, one_in)) == 1 else common))


@st.composite
def csv_texts(draw, columns):
    """Text of rows with one field per entry of ``columns``, a (common, odd)
    pair of token lists, plus blank lines, rare ragged rows and odd fields."""
    width = len(columns)
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(1, 6)) == 1:
            lines.append(draw(st.sampled_from(EDGES)))
            continue
        size = width if draw(st.integers(1, 8)) > 1 else draw(st.integers(0, 4))
        fields = [rarely(draw, *columns[min(i, width - 1)]) for i in range(size)]
        text = fields[0] if fields else ""
        for f in fields[1:]:
            text += rarely(draw, [","], SEPARATORS) + f
        lines.append(rarely(draw, [""], EDGES, 4) + text + rarely(draw, [""], EDGES, 4))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def outcome(call):
    """A call's result bits, or its error with everything the error reports."""
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc), vars(exc)
    return result.shape, result.tobytes()


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3).flatmap(lambda w: csv_texts([(FLOAT_TOKENS, ODD_FLOAT_TOKENS)] * w)),
       st.booleans())
def test_fast_csv_read_matches_the_per_line_parser(tmp_path_factory, text, header):
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got = outcome(lambda: dataset._parse_numeric_csv(path, header))
    with mock.patch.object(dataset, "_read_csv_table", return_value=None):
        want = outcome(lambda: dataset._parse_numeric_csv(path, header))
    assert got == want


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_features(tmp_path / "absent.csv")


def test_binary_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(42)
    mat = FeatureMatrix(rng.normal(size=(10, 6)), modality_name="m")
    path = tmp_path / "f.bin"
    save_features(mat, path, "binary")
    back = load_features(path, "binary")
    assert back.data.tobytes() == mat.data.tobytes()


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"XXXX" + b"\0" * 40)
    with pytest.raises(ParseError):
        load_features(path, "binary")


def test_binary_truncated_payload(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "f.bin"
    save_features(FeatureMatrix(rng.normal(size=(4, 3))), path, "binary")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ParseError):
        load_features(path, "binary")


def test_binary_without_values_is_a_parse_error(tmp_path):
    path = tmp_path / "e.bin"
    for shape in [(0, 2**62), (2**62, 0), (0, 3)]:
        path.write_bytes(b"EJGE" + struct.pack("<IQQ", 1, *shape))
        with pytest.raises(ParseError, match="no values"):
            load_embeddings(path, "binary")


# u64 header fields and ids, mostly small; payload words are these or f64 values
HEADER_FIELDS = st.one_of(st.integers(0, 6), st.integers(0, 2**64 - 1))
PAYLOAD_WORDS = st.one_of(
    HEADER_FIELDS.map(lambda v: struct.pack("<Q", v)),
    st.floats().map(lambda v: struct.pack("<d", v)),
)
# magic -> (loader, payload words the header (a, b) implies)
BINARY_LOADERS = {
    b"EJGF": (lambda p: load_features(p, "binary"), lambda n, d: n * d),
    b"EJGE": (lambda p: load_embeddings(p, "binary"), lambda n, d: n * d),
    b"EJGG": (lambda p: load_graph(p, "binary"), lambda n, edges: 3 * edges),
    b"EJGA": (lambda p: load_affinity(p, "binary"), lambda n, edges: 3 * edges + n),
}


@st.composite
def binary_files(draw, magic):
    """A valid magic and version, arbitrary header fields, then payload words,
    often as many as the header implies, and a few stray bytes."""
    a, b = draw(HEADER_FIELDS), draw(HEADER_FIELDS)
    implied = BINARY_LOADERS[magic][1](a, b)
    count = implied if implied <= 40 and draw(st.booleans()) else draw(st.integers(0, 40))
    words = draw(st.lists(PAYLOAD_WORDS, min_size=count, max_size=count))
    stray = draw(st.binary(max_size=7))
    return magic + struct.pack("<IQQ", 1, a, b) + b"".join(words) + stray


@pytest.mark.parametrize("magic", BINARY_LOADERS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_binary_loaders_give_an_object_or_a_data_error(tmp_path_factory, magic, data):
    blob = data.draw(binary_files(magic))
    path = tmp_path_factory.mktemp("bin") / "f.bin"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        BINARY_LOADERS[magic][0](path)
    except DataError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak} bytes allocated for a {len(blob)}-byte file"


def test_embedding_csv_roundtrip_exact(tmp_path):
    emb = EmbeddingMatrix(np.array([[0.5, -1.25], [3.0, 0.0]]))
    path = tmp_path / "e.csv"
    save_embeddings(emb, path, "csv")
    back = load_embeddings(path, "csv")
    np.testing.assert_allclose(back.vectors, emb.vectors, rtol=1e-12, atol=0)


def test_embedding_binary_roundtrip_identity(tmp_path):
    emb = EmbeddingMatrix(np.eye(3))
    path = tmp_path / "e.bin"
    save_embeddings(emb, path, "binary")
    back = load_embeddings(path, "binary")
    assert back.vectors.tobytes() == emb.vectors.tobytes()


def test_embedding_random_csv_roundtrip_is_value_exact(tmp_path):
    rng = np.random.default_rng(7)
    emb = EmbeddingMatrix(rng.normal(size=(12, 5)))
    path = tmp_path / "e.csv"
    save_embeddings(emb, path, "csv")
    back = load_embeddings(path, "csv")
    assert back.vectors.tobytes() == emb.vectors.tobytes()


def test_save_to_unwritable_path(tmp_path):
    emb = EmbeddingMatrix(np.eye(3))
    with pytest.raises(OSError):
        save_embeddings(emb, tmp_path / "no_such_dir" / "e.bin", "binary")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(InvalidConfigError):
        load_features(tmp_path / "f.xyz", fmt="xml")


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------


def test_labels_one_per_line(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("a\na\nb\nb\nc\n")
    labels = load_labels(path)
    assert labels.n == 5 and labels.n_classes == 3
    assert labels.instance_ids is None


def test_labels_with_instance_ids(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("mug,m1\nmug,m2\nbowl,b1\nbowl,b2\n")
    labels = load_labels(path)
    assert labels.n_classes == 2
    assert list(labels.instance_ids) == ["m1", "m2", "b1", "b2"]


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    """A BOM-prefixed copy loads equal to the original: it neither adds a
    class to a labels file nor makes a feature CSV's first field non-numeric."""
    texts = {"labels.txt": "c00,i0\nc01,i1\nc02,i2\nc03,i3\nc00,i4\n",
             "features.csv": "4.02,1\n-2,3.5\n0.25,7\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        (tmp_path / f"bom_{name}").write_text(text, encoding="utf-8-sig")
    plain, bom = (load_labels(tmp_path / f"{prefix}labels.txt") for prefix in ("", "bom_"))
    assert bom.n_classes == plain.n_classes == 4
    assert list(bom.labels) == list(plain.labels)
    assert list(bom.instance_ids) == list(plain.instance_ids)
    for header in (False, True):
        plain, bom = (load_features(tmp_path / f"{prefix}features.csv", header=header)
                      for prefix in ("", "bom_"))
        assert bom.data.tobytes() == plain.data.tobytes()


def test_labels_skip_blank_lines_and_report_physical_line_numbers(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("\nmug\t m1\n   \n\t\n bowl ,b1\n")
    labels = load_labels(path)
    assert list(labels.labels) == ["mug", "bowl"]
    assert list(labels.instance_ids) == ["m1", "b1"]
    path.write_text("mug,m1\n\n \t\nbowl,b1,x\nbowl,b2\n")
    with pytest.raises(ParseError) as exc:
        load_labels(path)
    assert exc.value.line == 3


def test_labels_empty_file(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("")
    with pytest.raises(ParseError):
        load_labels(path)


def test_labels_length_mismatch_against_features():
    features = FeatureMatrix(np.zeros((5, 2)) + np.arange(5)[:, None])
    labels = LabelVector(np.array(list("aabb"), dtype=object))
    with pytest.raises(LengthMismatchError):
        validate_alignment([features], labels)


def test_modalities_must_share_n():
    rng = np.random.default_rng(3)
    a = FeatureMatrix(rng.normal(size=(5, 2)), "a")
    b = FeatureMatrix(rng.normal(size=(6, 2)), "b")
    with pytest.raises(DimensionMismatchError):
        validate_alignment([a, b])


# ---------------------------------------------------------------------------
# Synthetic fixture
# ---------------------------------------------------------------------------


def test_synth_deterministic():
    first = synth_multimodal(4, 10, noise=0.3, complementarity=0.5, seed=7)
    second = synth_multimodal(4, 10, noise=0.3, complementarity=0.5, seed=7)
    assert first[0].data.tobytes() == second[0].data.tobytes()
    assert first[1].data.tobytes() == second[1].data.tobytes()
    assert list(first[2].labels) == list(second[2].labels)


def test_synth_rejects_bad_args():
    for noise in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidConfigError):
            synth_multimodal(4, 10, noise=noise)
    with pytest.raises(InvalidConfigError):
        synth_multimodal(1, 10)
    with pytest.raises(InvalidConfigError):
        synth_multimodal(4, 10, complementarity=1.5)
    for args in ((2.5, 10), (4, 10.0), (4, 10, 0.0, 1.0, 1.5)):
        with pytest.raises(InvalidConfigError):
            synth_multimodal(*args)


def test_synth_complementary_separation_structure():
    """Noise-free, fully complementary: modality A resolves the first two
    classes perfectly and is at within-pair chance (50%) on the last two."""
    mat_a, _, labels = synth_multimodal(4, 10, noise=0.0, complementarity=1.0, seed=7)
    lab = list(labels.labels)
    a_half = [i for i, l in enumerate(lab) if l in ("c00", "c01")]
    b_half = [i for i, l in enumerate(lab) if l in ("c02", "c03")]
    acc_on_a = loo_nn_accuracy(mat_a.data, lab, subset=a_half)
    acc_on_b = loo_nn_accuracy(mat_a.data, lab, subset=b_half)
    assert acc_on_a == 1.0
    assert abs(acc_on_b - 0.5) <= 0.15


def test_synth_concatenation_beats_single_modalities():
    """Complementarity contract: the concatenation is perfectly separable,
    each single modality strictly less so."""
    mat_a, mat_b, labels = synth_multimodal(4, 10, noise=0.0, complementarity=1.0, seed=7)
    lab = list(labels.labels)
    concat = np.hstack([mat_a.data, mat_b.data])
    assert loo_nn_accuracy(concat, lab) == 1.0
    assert loo_nn_accuracy(mat_a.data, lab) < 1.0
    assert loo_nn_accuracy(mat_b.data, lab) < 1.0


def test_synth_zero_complementarity_makes_both_modalities_complete():
    mat_a, mat_b, labels = synth_multimodal(4, 10, noise=0.0, complementarity=0.0, seed=3)
    lab = list(labels.labels)
    assert loo_nn_accuracy(mat_a.data, lab) == 1.0
    assert loo_nn_accuracy(mat_b.data, lab) == 1.0


def test_feature_matrix_rejects_nonfinite():
    data = np.ones((3, 2))
    data[1, 1] = np.inf
    with pytest.raises(NonFiniteValueError) as exc:
        FeatureMatrix(data)
    assert (exc.value.row, exc.value.col) == (1, 1)
