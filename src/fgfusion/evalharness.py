"""Split protocols, nearest-neighbor classification, and the pipeline driver.

The driver runs load -> splits -> knn -> baselines (raw single modalities,
their votes served by the knn search, and a z-scored concatenation) -> per
k: graphs -> fusion -> affinity -> samplers -> embedding training -> fused
scores, all on identical train/test splits. Results are collected in a
table of per-split accuracies with mean and sample standard deviation.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral
from pathlib import Path

import numpy as np

from . import ejgraph, fusion, knn
from .dataset import (
    FORMATS,
    EmbeddingMatrix,
    FeatureMatrix,
    LabelVector,
    _check_label_count,
    _replacing,
    load_features,
    load_labels,
    validate_alignment,
)
from .embed import TrainConfig, train
from .errors import (
    ClassTooSmallError,
    EmptyTrainSetError,
    FgfError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidSpecError,
    PipelineStageError,
    check_types,
)
from .randomness import rng_stream

PROTOCOLS = ("per_class_train_m", "leave_instance_out", "random_fraction")

# PipelineConfig's string fields and the values each accepts
_CHOICES = {
    "metric": knn.METRICS,
    "weight_mode": ejgraph.WEIGHT_MODES,
    "combine": fusion.COMBINE_RULES,
    "kernel": fusion.KERNEL_INPUTS,
    "protocol": PROTOCOLS,
}

FGF_METHOD = "fgf"
JOINT_METHOD = "joint"

# the classifier metric of the raw-feature baselines and of the fused embeddings
BASELINE_METRIC = "euclidean"
FGF_METRIC = "cosine"


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """A split protocol and its parameter: m training samples per class for
    ``per_class_train_m``, the training fraction for ``random_fraction``;
    ``leave_instance_out`` takes none and ignores ``m_or_fraction``."""

    protocol: str
    m_or_fraction: float | None
    repeats: int = 10
    seed: int = 0

    def validate(self) -> None:
        check_types(vars(self), SplitSpec.__annotations__, InvalidSpecError)
        if self.protocol not in PROTOCOLS:
            raise InvalidSpecError(f"unknown protocol {self.protocol!r}")
        if self.repeats < 1:
            raise InvalidSpecError("repeats must be >= 1")
        value = self.m_or_fraction
        if self.protocol == "per_class_train_m":
            if value is None or not float(value).is_integer() or value < 1:
                raise InvalidSpecError(
                    f"per_class_train_m needs a positive integer m, got {value!r}"
                )
        elif self.protocol == "random_fraction":
            if value is None or not 0.0 < value < 1.0:
                raise InvalidSpecError(
                    f"random_fraction needs a fraction in (0, 1), got {value!r}"
                )


def make_splits(labels: LabelVector, spec: SplitSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Generate ``spec.repeats`` train/test partitions of the sample indices."""
    spec.validate()
    if labels.n_classes < 2:
        raise InvalidSpecError("evaluation needs at least 2 distinct classes")
    n = labels.n
    if spec.protocol != "random_fraction":
        # each class's sample indices, ascending, classes in sorted order
        classes, inverse, counts = np.unique(labels.labels, return_inverse=True, return_counts=True)
        members = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    if spec.protocol == "per_class_train_m":
        m = int(spec.m_or_fraction)
        for c, idx in zip(classes, members):
            if m >= idx.size:
                raise ClassTooSmallError(f"class {c!r} has {idx.size} samples, cannot hold out m={m}")
    elif spec.protocol == "leave_instance_out":
        if labels.instance_ids is None:
            raise InvalidSpecError("leave_instance_out requires instance ids")
        class_instances = [labels.instance_ids[idx] for idx in members]
        instance_names = [sorted(set(inst.tolist())) for inst in class_instances]
        for c, names in zip(classes, instance_names):
            if len(names) < 2:
                raise ClassTooSmallError(f"class {c!r} has {len(names)} instance(s); need >= 2")
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for r in range(spec.repeats):
        rng = rng_stream(spec.seed, "splits", r)
        if spec.protocol == "per_class_train_m":
            train_idx = np.sort(np.concatenate(
                [rng.choice(idx, size=m, replace=False) for idx in members]
            ))
        elif spec.protocol == "leave_instance_out":
            test_parts = []
            for idx, inst, names in zip(members, class_instances, instance_names):
                held_out = names[int(rng.integers(len(names)))]
                test_parts.append(idx[inst == held_out])
            test_idx = np.sort(np.concatenate(test_parts))
            out.append((np.flatnonzero(~_mask(test_idx, n)), test_idx))
            continue
        else:  # random_fraction: fraction of all samples used for training
            n_train = int(round(spec.m_or_fraction * n))
            n_train = min(max(n_train, 1), n - 1)
            train_idx = np.sort(rng.choice(n, size=n_train, replace=False))
        out.append((train_idx, np.flatnonzero(~_mask(train_idx, n))))
    return out


def _mask(idx: np.ndarray, n: int) -> np.ndarray:
    """Boolean membership of [0, n) in idx."""
    member = np.zeros(n, dtype=bool)
    member[idx] = True
    return member


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _as_matrix(data) -> np.ndarray:
    if isinstance(data, FeatureMatrix):
        return data.data
    if isinstance(data, EmbeddingMatrix):
        return data.vectors
    return np.asarray(data, dtype=np.float64)


def knn_classify(
    data,
    labels: LabelVector,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    metric: str = "euclidean",
    votes: int = 1,
) -> float:
    """Majority-vote nearest-neighbor accuracy of test against train.

    ``data`` may be a euclidean KnnIndex when ``metric`` is euclidean: its
    search then serves the votes (see :func:`knn.vote_ids`).

    Vote ties are resolved in favor of the tied label whose representative
    appears earliest in the distance-ordered vote list.
    """
    if not isinstance(data, knn.KnnIndex):
        data = _as_matrix(data)
    n = len(data)
    _check_label_count(labels, n)
    train_idx, test_idx = np.asarray(train_idx), np.asarray(test_idx)
    if train_idx.size == 0:
        raise EmptyTrainSetError("empty train set")
    if test_idx.size == 0:
        raise InvalidSpecError("empty test set")
    for name, idx in (("train", train_idx), ("test", test_idx)):
        # a float index would be truncated to the row below it
        if idx.dtype.kind not in "iu":
            raise InvalidSpecError(f"{name} indices must be integers, got {idx.dtype}")
        if not (0 <= idx.min() and idx.max() < n):
            raise InvalidSpecError(f"{name} indices outside [0, {n})")
    member = _mask(train_idx, n)
    if np.count_nonzero(member) < train_idx.size:
        raise InvalidSpecError("train indices repeat a sample")
    if member[test_idx].any():
        raise InvalidSpecError("train and test indices overlap")
    if not isinstance(votes, Integral) or votes < 1:
        raise InvalidConfigError(f"votes must be an integer >= 1, got {votes!r}")
    votes = min(votes, train_idx.size)

    vote_labels = labels.labels[knn.vote_ids(data, member, test_idx, metric, votes)]
    # counts[r, i]: how many of row r's votes share vote i's label; the first
    # vote, in distance order, whose label reaches the row's maximum wins
    counts = (vote_labels[:, :, None] == vote_labels[:, None, :]).sum(axis=2)
    first = np.argmax(counts == counts.max(axis=1, keepdims=True), axis=1)
    winners = vote_labels[np.arange(len(vote_labels)), first]
    return float(np.mean(winners == labels.labels[test_idx]))


def _score(method: str, k: int | None, d: int, data, labels: LabelVector, splits,
           metric: str, votes: int) -> ResultRow:
    """The table row of ``method``, ``d`` features wide: its nearest-neighbor
    accuracy on each split, classifying ``data`` as knn_classify does."""
    accs = tuple(knn_classify(data, labels, tr, te, metric, votes) for tr, te in splits)
    return ResultRow(method=method, k=k, d=d, accuracies=accs)


def zscore_concat(modalities: list[FeatureMatrix]) -> np.ndarray:
    """Concatenate modalities after per-dimension standardization."""
    out = np.empty((modalities[0].n, sum(m.dim for m in modalities)))
    start = 0
    for m in modalities:
        mean = m.data.mean(axis=0)
        std = m.data.std(axis=0)
        std[std == 0.0] = 1.0
        cols = out[:, start:start + m.dim]
        np.subtract(m.data, mean, out=cols)
        cols /= std
        start += m.dim
    return out


# ---------------------------------------------------------------------------
# Result table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResultRow:
    method: str
    k: int | None
    d: int | None
    accuracies: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def std(self) -> float:
        if len(self.accuracies) < 2:
            return 0.0
        return float(np.std(self.accuracies, ddof=1))


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)

    @property
    def repeats(self) -> int:
        return len(self.rows[0].accuracies) if self.rows else 0

    def fgf_rows(self) -> list[ResultRow]:
        return [r for r in self.rows if r.method == FGF_METHOD]

    def to_csv(self) -> str:
        reps = self.repeats
        for row in self.rows:
            if len(row.accuracies) != reps:
                raise InvalidConfigError("rows have differing split counts")
        header = ["method", "k", "d"] + [f"s-{i + 1}" for i in range(reps)] + ["mean", "std"]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [
                row.method,
                "" if row.k is None else str(row.k),
                "" if row.d is None else str(row.d),
            ]
            cells += [repr(float(a)) for a in row.accuracies]
            cells += [repr(row.mean), repr(row.std)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def save_csv(self, path: str | Path) -> None:
        with _replacing(path) as fh:
            fh.write(self.to_csv())


def sweep_report(table: ResultTable, axis: str) -> str:
    """CSV sensitivity summary of the fused-embedding rows along k or d.

    One line per distinct axis value: the mean of the row means sharing
    that value and their max - min spread.
    """
    if axis not in ("k", "d"):
        raise InvalidConfigError(f"axis must be 'k' or 'd', got {axis!r}")
    rows = table.fgf_rows()
    values = sorted({getattr(r, axis) for r in rows})
    if len(values) < 2:
        raise InsufficientDataError(
            f"need >= 2 distinct values on axis {axis!r}, found {len(values)}"
        )
    lines = [f"{axis},mean_accuracy,spread"]
    for v in values:
        means = [r.mean for r in rows if getattr(r, axis) == v]
        lines.append(f"{v},{repr(float(np.mean(means)))},{repr(float(max(means) - min(means)))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pipeline configuration and driver
# ---------------------------------------------------------------------------


def _default(func, name: str):
    """The default of ``func``'s parameter ``name``: the library signatures
    hold the one definition of each setting's default."""
    return inspect.signature(func).parameters[name].default


@dataclass
class PipelineConfig:
    """Everything a pipeline run needs; the JSON config's keys are the field names,
    and each ``pipeline`` override flag sets the field its dest names."""

    features: list[dict]  # [{"path": ..., "format": "csv"|"binary", "name": ...}]
    labels: str
    header: bool = False
    metric: str = _default(knn.build_index, "metric")
    k: list[int] = field(default_factory=lambda: [20])
    k1: int | None = None
    k2: int | None = None
    weight_mode: str = _default(ejgraph.build_ejg, "mode")
    combine: str = _default(fusion.fuse_graphs, "combine")
    kernel: str = _default(fusion.normalize_affinity, "kernel_input")
    noise_power: float = fusion.NOISE_POWER
    d: list[int] = field(default_factory=lambda: [16])
    samples_per_node: int = TrainConfig.samples_per_node
    negatives: int = TrainConfig.negatives
    epochs: int = TrainConfig.epochs
    lr_start: float = TrainConfig.lr_start
    lr_end: float = TrainConfig.lr_end
    init_scale: float = TrainConfig.init_scale
    protocol: str = "per_class_train_m"
    m_or_fraction: float = 3
    repeats: int = SplitSpec.repeats
    votes: int = _default(knn_classify, "votes")
    seed: int = 0

    def validate(self) -> None:
        check_types(vars(self), PipelineConfig.__annotations__)
        _check_sources(self.features, self.labels)
        if len(self.features) < 2:
            raise InvalidConfigError("pipeline needs at least two modalities")
        for axis in ("k", "d"):
            values = getattr(self, axis)
            if not values or any(v < 1 for v in values):
                raise InvalidConfigError(f"{axis} sweep must be a nonempty list of positive ints")
            # a repeated value would train and score the same cells again
            if len(set(values)) < len(values):
                raise InvalidConfigError(f"{axis} sweep repeats a value: {values}")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise InvalidConfigError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}"
                )
        SplitSpec(self.protocol, self.m_or_fraction, self.repeats, self.seed).validate()
        self.train_config(int(self.d[0]), self.seed).validate()
        if self.votes < 1:
            raise InvalidConfigError("votes must be >= 1")
        fusion.check_noise_power(self.noise_power)

    def train_config(self, d: int, seed: int) -> TrainConfig:
        """The training settings of a cell of the sweep with dimension d."""
        shared = {f.name: getattr(self, f.name) for f in fields(TrainConfig)}
        return TrainConfig(**{**shared, "d": d, "seed": seed})

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8-sig"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise InvalidConfigError(f"{path}: the config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise InvalidConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        if "features" not in raw or "labels" not in raw:
            raise InvalidConfigError(f"{path}: 'features' and 'labels' are required")
        _check_sources(raw["features"], raw["labels"], f"{path}: ")
        cfg = cls(**raw)
        base = path.parent
        for spec in cfg.features:
            spec["path"] = str((base / spec["path"]).resolve())
        cfg.labels = str((base / cfg.labels).resolve())
        return cfg


def _check_sources(features, labels, where: str = "") -> None:
    """Raise InvalidConfigError, its message led by ``where``, unless ``features``
    lists objects with a 'path' string, an optional 'format' in FORMATS and an
    optional 'name' string, and no other key, and ``labels`` is a path string."""
    if not isinstance(features, list) or not all(
        isinstance(spec, dict) and isinstance(spec.get("path"), str)
        and isinstance(spec.get("name", ""), str) for spec in features
    ):
        raise InvalidConfigError(
            f"{where}'features' must list objects with a 'path' and an optional 'name' string"
        )
    for spec in features:
        # a misspelt key or format would otherwise fall back to its default unseen
        if unknown := sorted(set(spec) - {"path", "format", "name"}):
            raise InvalidConfigError(f"{where}'features' entry has unknown keys {unknown}")
        if (fmt := spec.get("format", "csv")) not in FORMATS:
            raise InvalidConfigError(f"{where}'features' format {fmt!r} not in {FORMATS}")
    if not isinstance(labels, str):
        raise InvalidConfigError(f"{where}'labels' must be a path string")


def derive_seed(root: int, *keys) -> int:
    """Stable 63-bit child seed for a named stream."""
    return int(rng_stream(root, *keys).integers(0, 2**63))


@dataclass
class PipelineResult:
    table: ResultTable
    manifest: dict
    embeddings: dict[tuple[int, int], EmbeddingMatrix]


@contextmanager
def _stage(name: str, stages: list):
    """Run one pipeline stage. An FgfError or OSError it raises becomes a
    PipelineStageError naming it; a clean exit appends its record,
    ``{"stage": name, "seconds": wall time}``, to ``stages``."""
    started = time.perf_counter()
    try:
        yield
    except (FgfError, OSError) as exc:
        raise PipelineStageError(name, exc) from exc
    stages.append({"stage": name, "seconds": time.perf_counter() - started})


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the full fusion pipeline and score all methods per split.

    Each stage holds only what later stages read. The knn indexes, their
    searches and the features they share die once the last k's graphs
    exist; each k's graphs die once fused, its fused graph once normalized
    (the affinity keeps its ``indptr`` and ``indices``), its affinity once
    its sampler table is built, and the table once its embeddings are
    trained, before the next k's graphs are built. Each training report
    dies on return; only its summary is kept, for the manifest, whose
    ``stages`` timings are all that differ between runs of one config.
    """
    config.validate()
    stages: list[dict] = []
    labels, splits, table, indexes = _index_and_score_baselines(config, stages)
    embeddings: dict[tuple[int, int], EmbeddingMatrix] = {}
    summaries: dict[str, dict] = {}
    ks = [int(v) for v in config.k]
    for position, k_val in enumerate(ks):
        trained = _train_at_k(config, k_val, indexes, position == len(ks) - 1, stages)
        for d_val, emb, summary in trained:
            embeddings[(k_val, d_val)] = emb
            summaries[f"k{k_val}_d{d_val}"] = summary
            with _stage(f"classify[k={k_val},d={d_val}]", stages):
                table.rows.append(_score(
                    FGF_METHOD, k_val, d_val, emb, labels, splits, FGF_METRIC, config.votes
                ))

    manifest = {
        "config": asdict(config),
        "n_samples": labels.n,
        "n_classes": labels.n_classes,
        "classifier": {
            "family": "k-nearest-neighbor majority vote",
            "votes": config.votes,
            "baseline_metric": BASELINE_METRIC,
            "fgf_metric": FGF_METRIC,
        },
        "joint_baseline": "per-dimension z-score within each modality, then concatenation",
        "std_convention": "sample standard deviation (ddof=1); 0.0 for a single split",
        "train_reports": summaries,
        "stages": stages,
    }
    return PipelineResult(table=table, manifest=manifest, embeddings=embeddings)


def _index_and_score_baselines(config: PipelineConfig, stages: list):
    """Load and split, index every modality and run its one search at the
    sweep's widest k, then score the baselines: (labels, splits, table,
    indexes), where ``indexes`` lists each modality's (name, index)."""
    with _stage("load", stages):
        modalities = [
            load_features(
                spec["path"],
                fmt=spec.get("format", "csv"),
                header=config.header,
                modality_name=spec.get("name"),
            )
            for spec in config.features
        ]
        labels = load_labels(config.labels)
        validate_alignment(modalities, labels)
    n = modalities[0].n
    for name, value in (("k", max(config.k)), ("k1", config.k1), ("k2", config.k2)):
        if value is not None:
            knn._check_k(n, value, name)

    with _stage("splits", stages):
        splits = make_splits(
            labels,
            SplitSpec(config.protocol, config.m_or_fraction, config.repeats, config.seed),
        )

    with _stage("knn", stages):
        indexes = [(m.modality_name, knn.build_index(m, config.metric)) for m in modalities]
        # one search per modality at the sweep's widest k: every graph of the
        # sweep takes a prefix of it
        widest = max(v for v in (*config.k, config.k1, config.k2) if v is not None)
        for _, index in indexes:
            index.topk(int(widest))

    table = ResultTable()
    with _stage("baselines", stages):
        # an index built under the baseline metric serves its modality's votes
        served = config.metric == BASELINE_METRIC
        for modality, (name, index) in zip(modalities, indexes):
            table.rows.append(_score(name, None, modality.dim, index if served else modality,
                                     labels, splits, BASELINE_METRIC, config.votes))
        joint = zscore_concat(modalities)
        table.rows.append(_score(JOINT_METHOD, None, joint.shape[1], joint, labels, splits,
                                 BASELINE_METRIC, config.votes))
    return labels, splits, table, indexes


def _train_at_k(config: PipelineConfig, k_val: int, indexes: list, last: bool, stages: list):
    """The (d, embeddings, report summary) of every d of the sweep at k_val. The
    graphs, the fused graph and the affinity are call arguments alone, so each
    dies once consumed; each report dies once summarized."""
    with _stage(f"graphs[k={k_val}]", stages):
        samplers = fusion.build_samplers(
            fusion.normalize_affinity(
                fusion.fuse_graphs(_graphs(config, k_val, indexes, last), combine=config.combine),
                kernel_input=config.kernel,
            ),
            noise_power=config.noise_power,
        )
    trained = []
    for d_val in map(int, config.d):
        with _stage(f"embed[k={k_val},d={d_val}]", stages):
            cfg = config.train_config(d_val, derive_seed(config.seed, "train", k_val, d_val))
            # cfg by keyword: perfbench's tracer finds it only as args[2] or kwargs["cfg"]
            embeddings, report = train(samplers, cfg=cfg)
        trained.append((d_val, embeddings, asdict(report)))
    return trained


def _graphs(config: PipelineConfig, k_val: int, indexes: list, last: bool) -> list:
    """Each modality's graph at k_val; on the ``last`` k, ``indexes`` is emptied."""
    graphs = [
        ejgraph.build_ejg(
            index, k_val, k1=config.k1, k2=config.k2, mode=config.weight_mode, modality_name=name
        )
        for name, index in indexes
    ]
    if last:
        indexes.clear()
    return graphs
