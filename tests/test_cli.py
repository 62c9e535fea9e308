import argparse
import inspect
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from fgfusion import (
    LabelVector,
    ResultRow,
    ResultTable,
    SplitSpec,
    TrainConfig,
    TrainReport,
    build_ejg,
    build_index,
    cli,
    evalharness,
    fuse_graphs,
    knn_classify,
    load_affinity,
    load_embeddings,
    load_features,
    load_graph,
    make_splits,
    normalize_affinity,
    save_affinity,
    save_embeddings,
    save_features,
    save_labels,
    synth_multimodal,
)
from fgfusion.dataset import EmbeddingMatrix
from fgfusion.fusion import NOISE_POWER


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "fgfusion.cli", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def fixture_dir(tmp_path):
    proc = run_cli(
        "synth", "--classes", 4, "--per-class", 8, "--noise", 0.2,
        "--complementarity", 1.0, "--seed", 3, "--out-dir", tmp_path / "data",
    )
    assert proc.returncode == 0, proc.stderr
    return tmp_path / "data"


def test_synth_outputs_are_loadable_and_deterministic(tmp_path):
    for name in ("one", "two"):
        proc = run_cli(
            "synth", "--classes", 3, "--per-class", 5, "--seed", 11,
            "--out-dir", tmp_path / name, "--format", "binary",
        )
        assert proc.returncode == 0, proc.stderr
    a1 = load_features(tmp_path / "one" / "modality_a.bin", "binary")
    a2 = load_features(tmp_path / "two" / "modality_a.bin", "binary")
    assert a1.data.tobytes() == a2.data.tobytes()
    assert (tmp_path / "one" / "labels.txt").read_text().splitlines()[0] == "c00"


def test_stagewise_chain(fixture_dir, tmp_path):
    """build-graph -> fuse -> embed -> eval, all via files."""
    for name in ("a", "b"):
        proc = run_cli(
            "build-graph", "--features", fixture_dir / f"modality_{name}.csv",
            "--k", 5, "--out", tmp_path / f"g_{name}.csv",
        )
        assert proc.returncode == 0, proc.stderr
    graph = load_graph(tmp_path / "g_a.csv")
    assert graph.n == 32 and all(ids.size == 5 for ids in graph.neighbor_ids)

    proc = run_cli(
        "fuse", "--graphs", tmp_path / "g_a.csv", tmp_path / "g_b.csv",
        "--out", tmp_path / "aff.bin",
    )
    assert proc.returncode == 0, proc.stderr
    affinity = load_affinity(tmp_path / "aff.bin", "binary")
    assert affinity.n == 32

    proc = run_cli(
        "embed", "--affinity", tmp_path / "aff.bin", "--dim", 8,
        "--samples-per-node", 10, "--epochs", 4, "--seed", 1,
        "--out", tmp_path / "emb.bin", "--report", tmp_path / "report.json",
    )
    assert proc.returncode == 0, proc.stderr
    emb = load_embeddings(tmp_path / "emb.bin", "binary")
    assert emb.vectors.shape == (32, 8)
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report["epoch_loss"]) == 4
    assert list(report) == ["epoch_loss", "positive_pairs", "wall_seconds"]

    proc = run_cli(
        "eval", "--embeddings", tmp_path / "emb.bin", "--format", "binary",
        "--labels", fixture_dir / "labels.txt", "--m", 3, "--repeats", 4,
        "--classify-metric", "cosine", "--out", tmp_path / "results.csv",
    )
    assert proc.returncode == 0, proc.stderr
    header = (tmp_path / "results.csv").read_text().splitlines()[0]
    assert header == "method,k,d,s-1,s-2,s-3,s-4,mean,std"


def test_pipeline_outputs(fixture_dir, tmp_path):
    config = {
        "features": [
            {"path": "data/modality_a.csv", "name": "rgb"},
            {"path": "data/modality_b.csv", "name": "depth"},
        ],
        "labels": "data/labels.txt",
        "k": [4, 6],
        "d": [4],
        "samples_per_node": 10,
        "epochs": 3,
        "m_or_fraction": 3,
        "repeats": 3,
        "seed": 5,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    proc = run_cli("pipeline", "--config", tmp_path / "config.json", "--out-dir", out_dir)
    assert proc.returncode == 0, proc.stderr

    lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3 + 2  # header, three baselines, two fgf cells
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 5
    assert (out_dir / "embeddings_k4_d4.bin").exists()
    assert (out_dir / "embeddings_k6_d4.bin").exists()
    assert (out_dir / "sweep_k.csv").exists()
    assert not (out_dir / "sweep_d.csv").exists()  # single d value


def test_pipeline_cli_overrides(fixture_dir, tmp_path):
    config = {
        "features": [
            {"path": "data/modality_a.csv"},
            {"path": "data/modality_b.csv"},
        ],
        "labels": "data/labels.txt",
        "k": [4],
        "d": [4],
        "samples_per_node": 10,
        "epochs": 3,
        "m_or_fraction": 3,
        "repeats": 2,
        "seed": 5,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    proc = run_cli(
        "pipeline", "--config", tmp_path / "config.json",
        "--out-dir", tmp_path / "out", "--k", 5, "--seed", 9,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["k"] == [5] and manifest["config"]["seed"] == 9


def _subparser(command, parser=None):
    parser = cli._build_parser() if parser is None else parser
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _flags(command):
    """Option strings of one subcommand's parser, help excluded."""
    return {
        opt for action in _subparser(command)._actions
        if not isinstance(action, argparse._HelpAction) for opt in action.option_strings
    }


# flag -> (command-line values, PipelineConfig field, value in the manifest);
# every value differs from the config below and from the default
PIPELINE_OVERRIDES = {
    "--k": (["5"], "k", [5]),
    "--d": (["3"], "d", [3]),
    "--k1": (["3"], "k1", 3),
    "--k2": (["2"], "k2", 2),
    "--metric": (["cosine"], "metric", "cosine"),
    "--seed": (["9"], "seed", 9),
    "--epochs": (["2"], "epochs", 2),
    "--samples-per-node": (["7"], "samples_per_node", 7),
    "--negatives": (["3"], "negatives", 3),
    "--lr": (["0.03"], "lr_start", 0.03),
    "--lr-end": (["0.001"], "lr_end", 0.001),
    "--repeats": (["3"], "repeats", 3),
    "--votes": (["2"], "votes", 2),
    "--weight-mode": (["literal"], "weight_mode", "literal"),
    "--combine": (["max"], "combine", "max"),
    "--kernel": (["literal"], "kernel", "literal"),
    "--noise-power": (["0.5"], "noise_power", 0.5),
}


# the arguments each subcommand needs before it parses
REQUIRED_ARGS = {
    "synth": ["--classes", "2", "--per-class", "2", "--out-dir", "d"],
    "build-graph": ["--features", "f.csv", "--k", "3", "--out", "g.csv"],
    "fuse": ["--graphs", "g.csv", "--out", "a.bin"],
    "embed": ["--affinity", "a.bin", "--dim", "4", "--out", "e.bin"],
    "eval": ["--features", "f.csv", "--labels", "l.txt"],
    "pipeline": ["--config", "c.json", "--out-dir", "o"],
}


def _default(func, name):
    return inspect.signature(func).parameters[name].default


def test_eval_classifies_with_the_library_defaults(capsys):
    """Every stage subcommand's setting flags default to the library's own
    defaults, every pipeline override to None, and every help renders."""
    def parse(command):
        return cli._build_parser().parse_args([command, *REQUIRED_ARGS[command]])

    args = parse("eval")
    assert args.classify_metric == _default(knn_classify, "metric")
    assert args.votes == _default(knn_classify, "votes")
    assert (args.repeats, args.seed) == (SplitSpec.repeats, SplitSpec.seed)
    args = parse("build-graph")
    assert args.metric == _default(build_index, "metric")
    assert (args.k1, args.k2) == (_default(build_ejg, "k1"), _default(build_ejg, "k2"))
    assert args.weight_mode == _default(build_ejg, "mode")
    args = parse("fuse")
    assert args.combine == _default(fuse_graphs, "combine")
    assert args.kernel == _default(normalize_affinity, "kernel_input")
    args = parse("embed")
    for f in fields(TrainConfig):
        if f.name != "d":
            assert getattr(args, f.name) == f.default, f.name
    assert args.noise_power == NOISE_POWER
    config_fields = {f.name for f in fields(evalharness.PipelineConfig)}
    overrides = [a for a in _subparser("pipeline")._actions if a.dest in config_fields]
    assert {a.dest for a in overrides} == {key for _, key, _ in PIPELINE_OVERRIDES.values()}
    assert all(a.default is None for a in overrides)
    for command in REQUIRED_ARGS:
        with pytest.raises(SystemExit) as exit_:
            cli.main([command, "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: fgfusion {command}")


ACTION_FIELDS = ("option_strings", "dest", "nargs", "choices", "default", "required",
                 "metavar", "help", "type")


def _actions(parser):
    """Every action's fields and every mutually exclusive group's dests."""
    return (
        [tuple(getattr(a, f) for f in ACTION_FIELDS) for a in parser._actions],
        [(g.required, [a.dest for a in g._group_actions])
         for g in parser._mutually_exclusive_groups],
    )


def _listed(parser):
    """The (name, help line) of each subcommand ``fgfusion --help`` lists."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(a.dest, a.help) for a in sub._choices_actions]


@pytest.mark.parametrize("command", REQUIRED_ARGS)
def test_a_run_builds_its_subcommands_flags_as_the_full_parser_does(command, monkeypatch):
    lazy = cli._build_parser(command)
    assert _actions(_subparser(command, lazy)) == _actions(_subparser(command))
    assert _listed(lazy) == _listed(cli._build_parser())
    for other in set(REQUIRED_ARGS) - {command}:
        assert [a.dest for a in _subparser(other, lazy)._actions] == ["help"]

    built, build = [], cli._build_parser

    def recorded(name=None):
        built.append(name)
        return build(name)

    monkeypatch.setattr(cli, "_build_parser", recorded)
    monkeypatch.setitem(cli._COMMANDS, command, (*cli._COMMANDS[command][:2], lambda args: 0))
    assert cli.main([command, *REQUIRED_ARGS[command]]) == 0
    assert built == [command]


def test_every_pipeline_override_flag_lands_in_the_manifest(fixture_dir, tmp_path):
    assert _flags("pipeline") - {"--config", "--out-dir", "--embeddings-format"} == set(
        PIPELINE_OVERRIDES
    )
    config = {
        "features": [{"path": "data/modality_a.csv"}, {"path": "data/modality_b.csv"}],
        "labels": "data/labels.txt",
        "k": [4],
        "d": [4],
        "samples_per_node": 10,
        "epochs": 1,
        "m_or_fraction": 3,
        "repeats": 2,
        "seed": 5,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = ["pipeline", "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path / "out")]
    for flag, (values, _, _) in PIPELINE_OVERRIDES.items():
        argv += [flag, *values]
    assert cli.main(argv) == 0
    resolved = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    for flag, (_, key, expected) in PIPELINE_OVERRIDES.items():
        assert resolved[key] == expected, flag


def test_every_embed_flag_reaches_train(fixture_dir, tmp_path, monkeypatch):
    graphs = [
        build_ejg(build_index(load_features(fixture_dir / f"modality_{name}.csv")), 4)
        for name in ("a", "b")
    ]
    save_affinity(normalize_affinity(fuse_graphs(graphs)), tmp_path / "aff.bin", "binary")
    calls = []

    # cfg keyword-only: the command must pass it by keyword
    def fake_train(samplers, *, cfg):
        calls.append((samplers, cfg))
        return EmbeddingMatrix(np.zeros((samplers.n, cfg.d))), TrainReport()

    monkeypatch.setattr(cli, "train", fake_train)
    training = {
        "--dim": "6", "--samples-per-node": "7", "--negatives": "3", "--epochs": "2",
        "--lr": "0.03", "--lr-end": "0.001", "--init-scale": "0.5", "--seed": "11",
        "--noise-power": "0.5",
    }
    io_flags = {"--affinity", "--affinity-format", "--out", "--format", "--report"}
    assert _flags("embed") - io_flags == set(training)
    argv = ["embed", "--affinity", str(tmp_path / "aff.bin"), "--out", str(tmp_path / "emb.bin")]
    for flag, value in training.items():
        argv += [flag, value]
    assert cli.main(argv) == 0
    (samplers, cfg), = calls
    assert cfg == TrainConfig(
        d=6, samples_per_node=7, negatives=3, epochs=2, lr_start=0.03, lr_end=0.001,
        init_scale=0.5, seed=11,
    )
    assert samplers.noise_power == 0.5


def test_exit_code_2_on_bad_flag():
    # a flag without its choices would pass the value on and exit 3 on a missing file
    for command, flags in [
        ("build-graph", ["--metric", "--weight-mode"]),
        ("fuse", ["--combine", "--kernel"]),
        ("eval", ["--protocol"]),
        ("pipeline", ["--metric", "--weight-mode", "--combine", "--kernel"]),
    ]:
        for flag in flags:
            proc = run_cli(command, *REQUIRED_ARGS[command], flag, "hamming")
            assert proc.returncode == 2, (command, flag)
            assert "invalid choice" in proc.stderr, (command, flag)


def test_exit_code_2_on_unknown_config_key(fixture_dir, tmp_path):
    config = {
        "features": [{"path": "data/modality_a.csv"}, {"path": "data/modality_b.csv"}],
        "labels": "data/labels.txt",
        "turbo": True,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    proc = run_cli("pipeline", "--config", tmp_path / "config.json", "--out-dir", tmp_path / "o")
    assert proc.returncode == 2
    assert "turbo" in proc.stderr


@pytest.mark.parametrize("spec", [
    {"path": "data/modality_a.csv", "format": "csv", "nmae": "rgb"},
    {"path": "data/modality_a.csv", "fromat": "csv"},
])
def test_exit_code_2_on_unknown_feature_spec_key(fixture_dir, tmp_path, spec):
    config = {"features": [spec, {"path": "data/modality_b.csv"}], "labels": "data/labels.txt"}
    (tmp_path / "config.json").write_text(json.dumps(config))
    proc = run_cli("pipeline", "--config", tmp_path / "config.json", "--out-dir", tmp_path / "o")
    assert proc.returncode == 2
    assert (set(spec) - {"path", "format"}).pop() in proc.stderr
    assert not (tmp_path / "o").exists()


def test_threads_is_rejected_as_a_flag_and_as_a_config_key(fixture_dir, tmp_path):
    proc = run_cli("embed", "--affinity", tmp_path / "aff.bin", "--dim", 4,
                   "--out", tmp_path / "emb.bin", "--threads", 2)
    assert proc.returncode == 2 and "--threads" in proc.stderr
    config = {
        "features": [{"path": "data/modality_a.csv"}, {"path": "data/modality_b.csv"}],
        "labels": "data/labels.txt",
        "threads": 1,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    proc = run_cli("pipeline", "--config", tmp_path / "config.json", "--out-dir", tmp_path / "o")
    assert proc.returncode == 2 and "unknown config keys ['threads']" in proc.stderr


def test_modality_is_rejected_as_a_build_graph_flag(fixture_dir, tmp_path):
    # the name never reached the graph file
    proc = run_cli("build-graph", "--features", fixture_dir / "modality_a.csv", "--k", 3,
                   "--out", tmp_path / "g.csv", "--modality", "x")
    assert proc.returncode == 2 and "--modality" in proc.stderr
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("flag, value", [("--init-scale", "nan"), ("--init-scale", "inf"),
                                         ("--lr", "inf")])
def test_embed_exits_2_on_a_non_finite_scale_or_rate(tmp_path, capsys, flag, value):
    matrix = np.random.default_rng(0).normal(size=(12, 3))
    affinity = normalize_affinity(fuse_graphs([build_ejg(build_index(matrix), 3)] * 2))
    save_affinity(affinity, tmp_path / "aff.bin", "binary")
    argv = ["embed", "--affinity", str(tmp_path / "aff.bin"), "--dim", "4",
            "--out", str(tmp_path / "emb.bin"), flag, value]
    assert cli.main(argv) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("header", "false"), ("metric", "hamming"),
                                          ("init_scale", float("nan"))])
def test_pipeline_exits_2_on_a_bad_config_value(fixture_dir, tmp_path, capsys, field, value):
    config = {
        "features": [{"path": "data/modality_a.csv"}, {"path": "data/modality_b.csv"}],
        "labels": "data/labels.txt",
        field: value,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = ["pipeline", "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field", ["k", "d"])
def test_pipeline_exits_2_on_a_repeated_sweep_value(fixture_dir, tmp_path, capsys, field):
    config = {
        "features": [{"path": "data/modality_a.csv"}, {"path": "data/modality_b.csv"}],
        "labels": "data/labels.txt",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = ["pipeline", "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path / "o"),
            f"--{field}", "5", "5"]
    assert cli.main(argv) == 2
    assert f"{field} sweep repeats a value" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [("k", [4, 32]), ("k1", 40), ("k2", 32)])
def test_pipeline_exits_2_on_a_k_of_n_or_more_before_any_scoring(
    fixture_dir, tmp_path, capsys, monkeypatch, field, value
):
    config = {
        "features": [{"path": "data/modality_a.csv"}, {"path": "data/modality_b.csv"}],
        "labels": "data/labels.txt",
        "k": [4],
        field: value,  # the fixture has 32 samples
    }
    (tmp_path / "config.json").write_text(json.dumps(config))

    def no_scoring(*args, **kwargs):
        raise AssertionError("a baseline was scored")

    monkeypatch.setattr(evalharness, "knn_classify", no_scoring)
    argv = ["pipeline", "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path / "o")]
    assert cli.main(argv) == 2
    assert f"{field}=" in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.csv").exists()


@pytest.mark.parametrize("flag, value", [("--k1", 0), ("--k2", -3), ("--k2", 32)])
def test_build_graph_exits_2_on_a_k1_or_k2_out_of_range(fixture_dir, tmp_path, capsys, flag, value):
    argv = ["build-graph", "--features", str(fixture_dir / "modality_a.csv"), "--k", "5",
            flag, str(value), "--out", str(tmp_path / "g.csv")]
    assert cli.main(argv) == 2
    assert f"{flag[2:]}={value}" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize(
    "protocol, split_flags, m_or_fraction",
    [("per_class_train_m", ["--m", "3"], 3), ("random_fraction", ["--fraction", "0.4"], 0.4)],
)
def test_eval_scores_a_modality_as_the_pipeline_does(
    fixture_dir, tmp_path, capsys, protocol, split_flags, m_or_fraction
):
    config = {
        "features": [{"path": "data/modality_a.csv"}, {"path": "data/modality_b.csv"}],
        "labels": "data/labels.txt",
        "k": [4], "d": [4], "samples_per_node": 5, "epochs": 1,
        "protocol": protocol, "m_or_fraction": m_or_fraction, "repeats": 4, "seed": 6,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    argv = ["pipeline", "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path / "o")]
    assert cli.main(argv) == 0
    pipeline_rows = (tmp_path / "o" / "results.csv").read_text().splitlines()
    argv = ["eval", "--features", str(fixture_dir / "modality_a.csv"),
            "--labels", str(fixture_dir / "labels.txt"), "--protocol", protocol,
            *split_flags, "--repeats", "4", "--seed", "6"]
    capsys.readouterr()
    assert cli.main(argv) == 0
    eval_rows = capsys.readouterr().out.splitlines()
    assert eval_rows[0] == pipeline_rows[0]
    assert eval_rows[1].startswith("modality_a,")
    assert eval_rows[1] == pipeline_rows[1]


def test_eval_leave_instance_out_needs_no_m(tmp_path, capsys):
    """--m is no parameter of leave_instance_out: it is neither required nor read."""
    features, _, labels = synth_multimodal(4, 6, 0.3, 1.0, 2)
    labels = LabelVector(labels.labels, [f"i{q % 3}" for q in range(labels.n)])
    save_features(features, tmp_path / "a.csv", "csv")
    save_labels(labels, tmp_path / "labels.txt")
    argv = ["eval", "--features", str(tmp_path / "a.csv"), "--labels", str(tmp_path / "labels.txt"),
            "--protocol", "leave_instance_out", "--repeats", "3", "--seed", "2"]
    assert cli.main(argv) == 0
    table = capsys.readouterr().out
    assert cli.main(argv + ["--m", "99"]) == 0
    assert capsys.readouterr().out == table
    splits = make_splits(labels, SplitSpec("leave_instance_out", None, repeats=3, seed=2))
    accs = tuple(knn_classify(features, labels, tr, te) for tr, te in splits)
    assert table == ResultTable([ResultRow("a", None, features.dim, accs)]).to_csv()


@pytest.mark.parametrize("source", ["--features", "--embeddings"])
def test_eval_skips_the_header_line_of_either_source(tmp_path, capsys, source):
    features, _, labels = synth_multimodal(4, 10, 0.3, 1.0, 2)
    save_labels(labels, tmp_path / "labels.txt")
    for name in ("plain", "headed"):
        (tmp_path / name).mkdir()
    save_features(features, tmp_path / "plain" / "x.csv", "csv")
    header = ",".join(f"c{j}" for j in range(features.dim))
    (tmp_path / "headed" / "x.csv").write_text(
        header + "\n" + (tmp_path / "plain" / "x.csv").read_text())
    common = ["--labels", str(tmp_path / "labels.txt"), "--m", "3", "--repeats", "2"]
    assert cli.main(["eval", source, str(tmp_path / "plain" / "x.csv"), *common]) == 0
    table = capsys.readouterr().out
    assert cli.main(["eval", source, str(tmp_path / "headed" / "x.csv"), "--header", *common]) == 0
    assert capsys.readouterr().out == table


@pytest.mark.parametrize(
    "protocol, given", [("per_class_train_m", []), ("per_class_train_m", ["--fraction", "0.5"]),
                        ("random_fraction", []), ("random_fraction", ["--m", "3"])],
)
def test_eval_exits_2_without_its_protocols_m_or_fraction(fixture_dir, capsys, protocol, given):
    argv = ["eval", "--features", str(fixture_dir / "modality_a.csv"),
            "--labels", str(fixture_dir / "labels.txt"), "--protocol", protocol, *given]
    assert cli.main(argv) == 2
    assert protocol in capsys.readouterr().err


def test_exit_code_3_on_missing_file(tmp_path):
    proc = run_cli("build-graph", "--features", tmp_path / "absent.csv",
                   "--k", 3, "--out", tmp_path / "g.csv")
    assert proc.returncode == 3


def test_exit_code_3_on_malformed_data(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    proc = run_cli("build-graph", "--features", bad, "--k", 1, "--out", tmp_path / "g.csv")
    assert proc.returncode == 3


# a subcommand reading the non-UTF-8 file {bad}, and its exit code
NON_UTF8_READS = {
    "features-csv": (["build-graph", "--features", "{bad}", "--k", "1", "--out", "{tmp}/g.csv"], 3),
    "graph-csv": (["fuse", "--graphs", "{bad}", "--out", "{tmp}/aff.bin"], 3),
    "affinity-csv": (["embed", "--affinity", "{bad}", "--affinity-format", "csv", "--dim", "2",
                      "--out", "{tmp}/emb.bin"], 3),
    "embeddings-csv": (["eval", "--embeddings", "{bad}", "--labels", "{tmp}/labels.txt",
                        "--m", "1"], 3),
    "labels": (["eval", "--features", "{tmp}/features.csv", "--labels", "{bad}", "--m", "1"], 3),
    "config": (["pipeline", "--config", "{bad}", "--out-dir", "{tmp}/out"], 2),
}


@pytest.mark.parametrize("reader", sorted(NON_UTF8_READS))
def test_non_utf8_input_is_a_typed_error(tmp_path, capsys, reader):
    (tmp_path / "bad").write_bytes(b"0,1,0.5\n1,0,\xff\n")
    (tmp_path / "features.csv").write_text("1,2\n3,4\n")
    (tmp_path / "labels.txt").write_text("a\nb\n")
    argv, code = NON_UTF8_READS[reader]
    assert cli.main([arg.format(bad=tmp_path / "bad", tmp=tmp_path) for arg in argv]) == code
    assert "utf-8" in capsys.readouterr().err.lower()


def test_exit_code_4_on_divergence(fixture_dir, tmp_path):
    for name in ("a", "b"):
        run_cli("build-graph", "--features", fixture_dir / f"modality_{name}.csv",
                "--k", 5, "--out", tmp_path / f"g_{name}.csv")
    run_cli("fuse", "--graphs", tmp_path / "g_a.csv", tmp_path / "g_b.csv",
            "--out", tmp_path / "aff.bin")
    proc = run_cli(
        "embed", "--affinity", tmp_path / "aff.bin", "--dim", 4,
        "--samples-per-node", 50, "--epochs", 5, "--lr", 500.0, "--lr-end", 1.0,
        "--seed", 1, "--out", tmp_path / "emb.bin",
    )
    assert proc.returncode == 4


@pytest.mark.parametrize("source", ["--features", "--embeddings"])
@pytest.mark.parametrize("label_count", [20, 64], ids=["fewer", "more"])
def test_eval_rejects_a_label_count_that_differs_from_the_rows(
    fixture_dir, tmp_path, source, label_count
):
    data = fixture_dir / "modality_a.csv"
    if source == "--embeddings":
        data = tmp_path / "emb.csv"
        save_embeddings(EmbeddingMatrix(load_features(fixture_dir / "modality_a.csv").data), data)
    labels = (fixture_dir / "labels.txt").read_text().splitlines() * 2
    (tmp_path / "labels.txt").write_text("\n".join(labels[:label_count]) + "\n")
    # with 20 labels the last class holds 4 samples, too few for m = 5: the
    # count is checked before the splits are drawn
    proc = run_cli(
        "eval", source, data, "--labels", tmp_path / "labels.txt", "--m", 5, "--repeats", 2,
    )
    assert proc.returncode == 3, proc.stderr
    assert f"{label_count} labels for 32 samples" in proc.stderr


@pytest.mark.parametrize("flag, value", [("--init-scale", "nan"), ("--noise-power", "nan"),
                                         ("--noise-power", "-1")])
def test_embed_checks_its_settings_before_reading_the_affinity(tmp_path, capsys, flag, value):
    argv = ["embed", "--affinity", str(tmp_path / "missing.bin"), "--dim", "4",
            "--out", str(tmp_path / "emb.bin"), flag, value]
    assert cli.main(argv) == 2
    assert "finite" in capsys.readouterr().err


def test_embed_exits_3_on_an_affinity_with_more_rows_than_edges(tmp_path, capsys):
    (tmp_path / "aff.csv").write_text("0,1099511627776,1.0\n")
    argv = ["embed", "--affinity", str(tmp_path / "aff.csv"), "--affinity-format", "csv",
            "--dim", "4", "--out", str(tmp_path / "emb.bin")]
    assert cli.main(argv) == 3
    assert "some row is empty" in capsys.readouterr().err


def test_fuse_exits_3_on_a_csv_graph_with_more_nodes_than_bytes(tmp_path, capsys):
    (tmp_path / "g.csv").write_text("0,1099511627776,1.0\n")
    argv = ["fuse", "--graphs", str(tmp_path / "g.csv"), str(tmp_path / "g.csv"),
            "--out", str(tmp_path / "aff.bin")]
    assert cli.main(argv) == 3
    assert "1099511627777 nodes but only 20 bytes" in capsys.readouterr().err


def test_fuse_exits_3_on_a_binary_graph_without_edges(tmp_path, capsys):
    graph = tmp_path / "g.bin"
    graph.write_bytes(b"EJGG" + np.asarray([1], "<u4").tobytes()
                      + np.asarray([2**62, 0], "<u8").tobytes())
    argv = ["fuse", "--graphs", str(graph), str(graph), "--graph-format", "binary",
            "--out", str(tmp_path / "aff.bin")]
    assert cli.main(argv) == 3
    assert "edges" in capsys.readouterr().err
