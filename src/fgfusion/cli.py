"""Command-line interface.

Subcommands: synth, build-graph, fuse, embed, eval, pipeline.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure (divergence detector).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .dataset import (
    FORMATS,
    _check_label_count,
    load_embeddings,
    load_features,
    load_labels,
    save_embeddings,
    save_features,
    save_labels,
    synth_multimodal,
)
from .ejgraph import build_ejg, load_graph, save_graph
from .embed import TrainConfig, train
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    PipelineStageError,
)
from .evalharness import (
    PipelineConfig,
    ResultTable,
    SplitSpec,
    _CHOICES,
    _default,
    _score,
    knn_classify,
    make_splits,
    run_pipeline,
    sweep_report,
)
from .fusion import build_samplers, check_noise_power, fuse_graphs, load_affinity
from .fusion import normalize_affinity, save_affinity
from .knn import build_index

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# the one setting whose flag is not named after its PipelineConfig field
_FLAG_NAMES = {"lr_start": "lr"}
_TYPES = {"int": int, "float": float, "str": str}


def _settings(parser: argparse.ArgumentParser, *names: str, override: bool = False) -> None:
    """Add a flag for each named PipelineConfig field, with the field's type,
    choices and default; with override, the default is None, so a flag that
    was not given leaves the config's value."""
    config = {f.name: f for f in fields(PipelineConfig)}
    for name in names:
        annotation = config[name].type  # "int", "int | None", "list[int]", ...
        flag = _FLAG_NAMES.get(name, name)
        parser.add_argument(
            "--" + flag.replace("_", "-"),
            dest=name,
            metavar=flag.upper() if flag != name else None,
            type=_TYPES[annotation.removeprefix("list[").rstrip("]").removesuffix(" | None")],
            nargs="+" if annotation.startswith("list") else None,
            choices=_CHOICES.get(name),
            default=None if override else config[name].default,
            help=f"overrides the pipeline config's {name}" if override
            else f"as the pipeline config's {name} (default: %(default)s)",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgfusion",
        description="Multi-modal feature fusion via extended Jaccard graphs "
        "and negative-sampling graph embeddings.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic two-modality fixture")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--complementarity", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--format", choices=FORMATS, default="csv")

    p = sub.add_parser("build-graph", help="build one modality's extended Jaccard graph")
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--header", action="store_true", help="skip the first CSV line")
    p.add_argument("--k", type=int, required=True)
    _settings(p, "metric", "k1", "k2", "weight_mode")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--graph-format", choices=FORMATS, default="csv")

    p = sub.add_parser("fuse", help="fuse modality graphs and emit the affinity matrix")
    p.add_argument("--graphs", type=Path, nargs="+", required=True)
    p.add_argument("--graph-format", choices=FORMATS, default="csv")
    _settings(p, "combine", "kernel")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--affinity-format", choices=FORMATS, default="binary")

    p = sub.add_parser("embed", help="train fused embeddings from an affinity matrix")
    p.add_argument("--affinity", type=Path, required=True)
    p.add_argument("--affinity-format", choices=FORMATS, default="binary")
    p.add_argument("--dim", dest="d", metavar="DIM", type=int, required=True)
    # the flags _cmd_embed reads back: TrainConfig's fields and the noise power
    _settings(p, *(f.name for f in fields(TrainConfig) if f.name != "d"), "noise_power")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--format", choices=FORMATS, default="binary")
    p.add_argument("--report", type=Path, default=None, help="write a JSON training report")

    p = sub.add_parser("eval", help="split-and-classify a feature or embedding file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--features", type=Path)
    src.add_argument("--embeddings", type=Path)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--header", action="store_true")
    p.add_argument("--labels", type=Path, required=True)
    _settings(p, "protocol", "repeats", "votes", "seed")
    p.add_argument("--m", type=int, default=None, help="training samples per class")
    p.add_argument("--fraction", type=float, default=None, help="training fraction")
    p.add_argument("--classify-metric", choices=_CHOICES["metric"],
                   default=_default(knn_classify, "metric"))
    p.add_argument("--out", type=Path, default=None, help="write results CSV here")

    p = sub.add_parser("pipeline", help="run the full fusion + evaluation pipeline")
    p.add_argument("--config", type=Path, required=True, help="pipeline JSON config")
    p.add_argument("--out-dir", type=Path, required=True)
    _settings(
        p, "k", "d", "k1", "k2", "metric", "seed", "epochs", "samples_per_node", "negatives",
        "lr_start", "lr_end", "repeats", "votes", "weight_mode", "combine", "kernel",
        "noise_power", override=True,
    )
    p.add_argument(
        "--embeddings-format", choices=FORMATS, default="binary",
        help="format of the emitted embedding files",
    )
    return parser


def _cmd_synth(args) -> int:
    mat_a, mat_b, labels = synth_multimodal(
        args.classes, args.per_class, args.noise, args.complementarity, args.seed
    )
    args.out_dir.mkdir(parents=True, exist_ok=True)
    ext = "csv" if args.format == "csv" else "bin"
    path_a = args.out_dir / f"modality_a.{ext}"
    path_b = args.out_dir / f"modality_b.{ext}"
    path_labels = args.out_dir / "labels.txt"
    save_features(mat_a, path_a, args.format)
    save_features(mat_b, path_b, args.format)
    save_labels(labels, path_labels)
    print(path_a)
    print(path_b)
    print(path_labels)
    return EXIT_OK


def _cmd_build_graph(args) -> int:
    features = load_features(args.features, args.format, args.header)
    graph = build_ejg(
        build_index(features, args.metric), args.k, k1=args.k1, k2=args.k2, mode=args.weight_mode
    )
    save_graph(graph, args.out, args.graph_format)
    print(f"{args.out}: {graph.n} nodes, {graph.indices.size} edges")
    return EXIT_OK


def _cmd_fuse(args) -> int:
    # the loaded graphs are arguments of the fuse alone and the fused graph of
    # the normalization alone, so each is freed once consumed
    affinity = normalize_affinity(
        fuse_graphs(
            [load_graph(path, args.graph_format, modality_name=path.stem) for path in args.graphs],
            combine=args.combine,
        ),
        kernel_input=args.kernel,
    )
    save_affinity(affinity, args.out, args.affinity_format)
    print(f"{args.out}: {affinity.n} rows")
    return EXIT_OK


def _cmd_embed(args) -> int:
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    cfg.validate()
    check_noise_power(args.noise_power)
    # the loaded affinity is an argument of the sampler build alone, so it is
    # freed once its table exists
    samplers = build_samplers(
        load_affinity(args.affinity, args.affinity_format), noise_power=args.noise_power
    )
    started = time.perf_counter()
    # cfg by keyword: perfbench's tracer finds it only as args[2] or kwargs["cfg"]
    embeddings, report = train(samplers, cfg=cfg)
    # the library's report depends only on its inputs; the entry point times the call
    summary = {**asdict(report), "wall_seconds": time.perf_counter() - started}
    save_embeddings(embeddings, args.out, args.format)
    if args.report is not None:
        args.report.write_text(json.dumps(summary, indent=2), encoding="utf-8")
    print(f"{args.out}: {embeddings.n} x {embeddings.dim}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.features is not None:
        data = load_features(args.features, args.format, args.header)
        source = args.features
    else:
        data = load_embeddings(args.embeddings, args.format)
        source = args.embeddings
    labels = load_labels(args.labels)
    _check_label_count(labels, data.n)
    # SplitSpec decides which protocol needs which of the two
    m_or_fraction = args.fraction if args.protocol == "random_fraction" else args.m
    splits = make_splits(labels, SplitSpec(args.protocol, m_or_fraction, args.repeats, args.seed))
    table = ResultTable([_score(
        Path(source).stem, None, data, labels, splits, args.classify_metric, args.votes
    )])
    if args.out is not None:
        table.save_csv(args.out)
    sys.stdout.write(table.to_csv())
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    config = PipelineConfig.from_json(args.config)
    # the override flags' dests are the fields they set; None means not given
    for f in fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)

    result = run_pipeline(config)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    results_path = args.out_dir / "results.csv"
    result.table.save_csv(results_path)

    ext = "csv" if args.embeddings_format == "csv" else "bin"
    emb_paths = {}
    for (k_val, d_val), emb in result.embeddings.items():
        path = args.out_dir / f"embeddings_k{k_val}_d{d_val}.{ext}"
        save_embeddings(emb, path, args.embeddings_format)
        emb_paths[f"k{k_val}_d{d_val}"] = str(path)
    result.manifest["outputs"] = {
        "results": str(results_path),
        "embeddings": emb_paths,
    }
    for axis in ("k", "d"):
        if len(getattr(config, axis)) >= 2:  # validate() rejects a repeated value
            sweep_path = args.out_dir / f"sweep_{axis}.csv"
            sweep_path.write_text(sweep_report(result.table, axis), encoding="utf-8")
            result.manifest["outputs"][f"sweep_{axis}"] = str(sweep_path)
    (args.out_dir / "manifest.json").write_text(
        json.dumps(result.manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    sys.stdout.write(result.table.to_csv())
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "build-graph": _cmd_build_graph,
    "fuse": _cmd_fuse,
    "embed": _cmd_embed,
    "eval": _cmd_eval,
    "pipeline": _cmd_pipeline,
}


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, PipelineStageError):
        cause = exc.__cause__
        if isinstance(cause, Exception):
            return _exit_code(cause)
        return EXIT_DATA
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG
    if isinstance(exc, DivergenceError):
        return EXIT_NUMERIC
    if isinstance(exc, (DataError, FileNotFoundError, OSError)):
        return EXIT_DATA
    raise exc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        code = _exit_code(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
