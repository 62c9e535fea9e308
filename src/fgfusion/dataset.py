"""Feature matrices, labels, embeddings, and their persistence.

File formats
------------
CSV features/embeddings: one sample per row, numeric fields separated by
commas or tabs, ``.`` decimal, no header unless explicitly skipped.

Binary files share one little-endian 24-byte header: a 4-byte magic
(``EJGF`` features, ``EJGE`` embeddings, ``EJGG`` graphs, ``EJGA``
affinities), u32 version (currently 1), then u64 n and u64 D here (n and
the edge count for graphs and affinities). n * D IEEE-754 float64 values
follow, row-major.

Labels: one record per line, ``label[,instance_id]``. Instance ids are
all-or-none across the file.

Containers are frozen dataclasses that keep the caller's array, not a copy,
wherever it already has their dtype and layout, so a later write to that
array shows in the container.
"""

from __future__ import annotations

import math
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    LengthMismatchError,
    NonFiniteValueError,
    ParseError,
    check_types,
)
from .randomness import rng_stream

FORMATS = ("csv", "binary")  # of every file holding a matrix, a graph or an affinity

FEATURE_MAGIC = b"EJGF"
EMBEDDING_MAGIC = b"EJGE"
BINARY_VERSION = 1

_FIELD_SEPARATORS = "[,\t]"  # of a matrix or label record


@dataclass(frozen=True)
class FeatureMatrix:
    """n samples by D dimensions of one modality, all entries finite."""

    data: np.ndarray
    modality_name: str = ""

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", arr)
        if arr.ndim != 2:
            raise DimensionMismatchError(
                f"feature matrix must be 2-D, got shape {arr.shape}"
            )
        if arr.shape[0] < 2 or arr.shape[1] < 1:
            raise DimensionMismatchError(
                f"need n >= 2 and D >= 1, got n={arr.shape[0]}, D={arr.shape[1]}"
            )
        _check_finite(arr, f" in {self.modality_name or 'features'}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class EmbeddingMatrix:
    """n fused feature vectors of dimensionality d."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vectors", arr)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise DimensionMismatchError(
                f"embedding matrix must be 2-D with d >= 1, got shape {arr.shape}"
            )
        _check_finite(arr, " in embeddings")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class LabelVector:
    """Per-sample class labels, optionally with instance identifiers."""

    labels: np.ndarray
    instance_ids: np.ndarray | None = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=object)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise DimensionMismatchError("labels must be a nonempty 1-D sequence")
        if self.instance_ids is not None:
            inst = np.asarray(self.instance_ids, dtype=object)
            if inst.shape != labels.shape:
                raise LengthMismatchError(
                    f"{inst.size} instance ids for {labels.size} labels"
                )
            object.__setattr__(self, "instance_ids", inst)

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def classes(self) -> list:
        return sorted(set(self.labels.tolist()))

    @property
    def n_classes(self) -> int:
        return len(set(self.labels.tolist()))


def _check_finite(arr: np.ndarray, where: str = "") -> None:
    """Raise for the first NaN or infinity in row-major order."""
    finite = np.isfinite(arr)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise NonFiniteValueError(
            f"non-finite value{where} at row {row}, col {col}",
            row=int(row),
            col=int(col),
        )


# ---------------------------------------------------------------------------
# CSV / binary matrix IO
# ---------------------------------------------------------------------------


@contextmanager
def _open_text(path: Path):
    """``path`` opened as UTF-8 text, one leading byte-order mark skipped;
    bytes that are not UTF-8 raise ParseError wherever the reader meets them."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def _replacing(path, binary: bool = False):
    """A new file, opened for writing beside ``path``, that replaces ``path``
    only once the block completes. A writer that raises, or a process killed
    mid-write, leaves ``path`` as it was; on an exception the new file is
    removed."""
    path = Path(path)
    mode, encoding = ("b", None) if binary else ("", "utf-8")
    if path.exists() and not path.is_file():
        # a device or a pipe (os.devnull, /dev/stdout) holds no file to keep
        with open(path, "w" + mode, encoding=encoding) as fh:
            yield fh
        return
    path = Path(os.path.realpath(path))  # through a symlink, as open() writes
    new = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(new, "x" + mode, encoding=encoding) as fh:
            yield fh
        os.replace(new, path)
    except BaseException:
        new.unlink(missing_ok=True)
        raise


def _records(lines, separators: str):
    """(line number, fields) of each non-blank line: the line stripped, split
    where the regex ``separators`` matches, and each field stripped by
    ``str.strip()``, as numpy's reader does. The one tokenizer of every text
    format."""
    split = re.compile(separators).split
    for lineno, line in enumerate(lines):
        if stripped := line.strip():
            yield lineno, [field.strip() for field in split(stripped)]


def _read_csv_table(source, dtype, ndmin: int, skiprows: int = 0) -> np.ndarray | None:
    """Comma-separated ``source`` (a path or its lines) read by numpy's C
    reader, whose float parser is the one ``float()`` uses. None where it
    raises or warns (on empty input, and numpy 1.23-1.26 read the int ``5.0``
    with only a DeprecationWarning): the caller's per-line parser decides."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(
                source, dtype=dtype, delimiter=",", comments=None, quotechar=None,
                encoding="utf-8-sig", ndmin=ndmin, skiprows=skiprows,
            )
    except (ValueError, OverflowError, Warning):
        return None


def _parse_numeric_csv(path: Path, skip_header: bool) -> np.ndarray:
    with _open_text(path) as fh:
        # Read one line at a time. Tabs become commas, so an empty field beside
        # a tab fails the fast read.
        lines = (line.replace("\t", ",") for line in fh)
        data = _read_csv_table(lines, np.float64, ndmin=2, skiprows=int(skip_header))
    if data is None:  # the file is read again, only for its error
        with _open_text(path) as fh:
            return _parse_csv_lines(fh, skip_header, path)
    _check_finite(data)  # the only error a successful read leaves
    return data


def _parse_csv_lines(lines, skip_header: bool, path: Path) -> np.ndarray:
    """Per-line parser: the CSV format's definition, raising its first error."""
    rows: list[list[float]] = []
    width = None
    for lineno, fields in _records(lines, _FIELD_SEPARATORS):
        if lineno < skip_header:  # the header is line 0
            continue
        parsed = []
        for col, tok in enumerate(fields):
            try:
                value = float(tok)
            except ValueError:
                raise ParseError(
                    f"line {lineno}: field {col} ({tok!r}) is not numeric",
                    line=lineno,
                    offset=col,
                ) from None
            if not math.isfinite(value):
                raise NonFiniteValueError(
                    f"non-finite value at row {len(rows)}, col {col}",
                    row=len(rows),
                    col=col,
                )
            parsed.append(value)
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise DimensionMismatchError(
                f"line {lineno}: {len(parsed)} fields, expected {width}"
            )
        rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows", line=0)
    return np.array(rows, dtype=np.float64)


def _write_numeric_csv(arr: np.ndarray, path: Path) -> None:
    # repr() of a Python float is the shortest round-tripping decimal form,
    # so CSV persistence is value-exact.
    with _replacing(path) as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


_HEADER = np.dtype([("magic", "S4"), ("version", "<u4"), ("a", "<u8"), ("b", "<u8")])


def _write_binary(path, magic: bytes, a: int, b: int, parts) -> None:
    """Write the 24-byte header (magic, u32 version, u64 a, u64 b), then the
    bytes of each C-contiguous array in ``parts``, straight from the array."""
    header = np.array([(magic, BINARY_VERSION, a, b)], dtype=_HEADER)
    with _replacing(path, binary=True) as fh:
        fh.write(header)
        for part in parts:
            fh.write(part)


@contextmanager
def _open_binary(path, magic: bytes, payload_size):
    """(a, b, file) of a file written by :func:`_write_binary`, the file
    positioned at the payload.

    The magic, the version and the file's length, 24 + ``payload_size(a, b)``
    bytes, are checked from the header alone, before anything is allocated.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.itemsize)
        if len(head) < _HEADER.itemsize:
            raise ParseError(f"{path}: truncated header", line=0)
        if head[:4] != magic:
            raise ParseError(f"{path}: bad magic {head[:4]!r}, expected {magic!r}", line=0)
        _, version, a, b = np.frombuffer(head, dtype=_HEADER)[0].item()
        if version != BINARY_VERSION:
            raise ParseError(f"{path}: unsupported version {version}", line=0)
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.itemsize + payload_size(a, b)
        if size != expected:
            raise ParseError(f"{path}: payload is {size} bytes, expected {expected}", line=0)
        yield a, b, fh


def _read_into(fh, out: np.ndarray) -> np.ndarray:
    """``out`` filled with the file's next ``out.nbytes`` bytes."""
    if fh.readinto(out) != out.nbytes:
        raise ParseError(f"{fh.name}: file shorter than its header says", line=0)
    return out


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        expected = " or ".join(map(repr, FORMATS))
        raise InvalidConfigError(f"unknown format {fmt!r}, expected {expected}")


def _load_matrix(path: Path, fmt: str, magic: bytes, header: bool = False) -> np.ndarray:
    _check_format(fmt)
    if fmt == "csv":
        return _parse_numeric_csv(path, skip_header=header)
    with _open_binary(path, magic, lambda n, d: 8 * n * d) as (n, d, fh):
        if not n * d:
            raise ParseError(f"{path}: no values", line=0)
        return _read_into(fh, np.empty((n, d), dtype="<f8"))


def _save_matrix(arr: np.ndarray, path: Path, fmt: str, magic: bytes) -> None:
    _check_format(fmt)
    if fmt == "csv":
        _write_numeric_csv(arr, path)
    else:
        _write_binary(path, magic, *arr.shape, [np.ascontiguousarray(arr, dtype="<f8")])


def load_features(path: str | Path, fmt: str = "csv", header: bool = False,
                  modality_name: str | None = None) -> FeatureMatrix:
    """Load a feature matrix from ``path`` in the declared format."""
    path = Path(path)
    data = _load_matrix(path, fmt, FEATURE_MAGIC, header)
    name = modality_name if modality_name is not None else path.stem
    return FeatureMatrix(data, modality_name=name)


def save_features(features: FeatureMatrix, path: str | Path, fmt: str = "csv") -> None:
    _save_matrix(features.data, Path(path), fmt, FEATURE_MAGIC)


def load_embeddings(path: str | Path, fmt: str = "csv", header: bool = False) -> EmbeddingMatrix:
    return EmbeddingMatrix(_load_matrix(Path(path), fmt, EMBEDDING_MAGIC, header))


def save_embeddings(embeddings: EmbeddingMatrix, path: str | Path, fmt: str = "csv") -> None:
    """Persist embeddings; binary round-trips bitwise, CSV value-exact."""
    _save_matrix(embeddings.vectors, Path(path), fmt, EMBEDDING_MAGIC)


def load_labels(path: str | Path) -> LabelVector:
    """Load ``label[,instance_id]`` records, one per line."""
    labels: list[str] = []
    instances: list[str] = []
    with _open_text(path) as fh:
        for lineno, parts in _records(fh, _FIELD_SEPARATORS):
            if len(parts) > 2 or not parts[0]:
                raise ParseError(
                    f"line {lineno}: expected 'label[,instance_id]'", line=lineno
                )
            labels.append(parts[0])
            if len(parts) == 2:
                instances.append(parts[1])
    if not labels:
        raise ParseError(f"{path}: no label records", line=0)
    if instances and len(instances) != len(labels):
        raise ParseError("instance ids must be given for all records or none")
    return LabelVector(
        np.array(labels, dtype=object),
        np.array(instances, dtype=object) if instances else None,
    )


def save_labels(labels: LabelVector, path: str | Path) -> None:
    with _replacing(path) as fh:
        for i in range(labels.n):
            if labels.instance_ids is not None:
                fh.write(f"{labels.labels[i]},{labels.instance_ids[i]}\n")
            else:
                fh.write(f"{labels.labels[i]}\n")


def validate_alignment(
    modalities: list[FeatureMatrix], labels: LabelVector | None = None
) -> None:
    """Check that all modalities (and labels) describe the same n samples.

    Ordering is positional: row i everywhere refers to the same sample.
    """
    if not modalities:
        raise InvalidConfigError("at least one modality required")
    n = modalities[0].n
    for m in modalities[1:]:
        if m.n != n:
            raise DimensionMismatchError(
                f"modality {m.modality_name!r} has {m.n} samples, expected {n}"
            )
    if labels is not None:
        _check_label_count(labels, n)


def _check_label_count(labels: LabelVector, n: int) -> None:
    if labels.n != n:
        raise LengthMismatchError(f"{labels.n} labels for {n} samples")


# ---------------------------------------------------------------------------
# Synthetic complementary-modality fixture
# ---------------------------------------------------------------------------


def synth_multimodal(
    n_classes: int,
    per_class: int,
    noise: float = 0.0,
    complementarity: float = 1.0,
    seed: int = 0,
) -> tuple[FeatureMatrix, FeatureMatrix, LabelVector]:
    """Generate two modalities whose discriminative directions are complementary.

    Classes are grouped into pairs. Both modalities carry the pair identity
    on a one-hot coordinate block; the within-pair distinction lives on a
    second block whose amplitude depends on the modality: modality A keeps
    it at full strength for the first half of the pairs and scales it by
    ``1 - complementarity`` for the rest, modality B mirrors that. At
    ``complementarity=1`` each modality can therefore tell the two classes
    of a pair apart only for its own half of the pairs; concatenating both
    modalities separates everything. i.i.d. Gaussian noise of standard
    deviation ``noise`` is added to every coordinate. The output is a pure
    function of the arguments.
    """
    check_types(
        {"n_classes": n_classes, "per_class": per_class, "seed": seed},
        synth_multimodal.__annotations__,
    )
    if n_classes < 2 or per_class < 2:
        raise InvalidConfigError("need n_classes >= 2 and per_class >= 2")
    if not (math.isfinite(noise) and noise >= 0):
        raise InvalidConfigError("noise must be finite and >= 0")
    if not 0.0 <= complementarity <= 1.0:
        raise InvalidConfigError("complementarity must be in [0, 1]")

    pair_scale = 4.0
    bit_scale = 1.0
    n_pairs = (n_classes + 1) // 2
    a_pairs = (n_pairs + 1) // 2  # pairs [0, a_pairs) are separated by modality A
    dim = 2 * n_pairs
    weak = 1.0 - complementarity

    means_a = np.zeros((n_classes, dim))
    means_b = np.zeros((n_classes, dim))
    for cls in range(n_classes):
        pair = cls // 2
        sign = 1.0 if cls % 2 == 0 else -1.0
        means_a[cls, pair] = pair_scale
        means_b[cls, pair] = pair_scale
        gain_a = 1.0 if pair < a_pairs else weak
        gain_b = weak if pair < a_pairs else 1.0
        means_a[cls, n_pairs + pair] = sign * bit_scale * gain_a
        means_b[cls, n_pairs + pair] = sign * bit_scale * gain_b

    class_idx = np.repeat(np.arange(n_classes), per_class)
    rng = rng_stream(seed, "synth")
    n = n_classes * per_class
    mat_a = means_a[class_idx] + rng.normal(0.0, noise, size=(n, dim))
    mat_b = means_b[class_idx] + rng.normal(0.0, noise, size=(n, dim))
    labels = np.array([f"c{j:02d}" for j in class_idx], dtype=object)
    return (
        FeatureMatrix(mat_a, modality_name="modality_a"),
        FeatureMatrix(mat_b, modality_name="modality_b"),
        LabelVector(labels),
    )
