"""CLI surface tests: subcommands, determinism, config files, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import vesseltrees
from vesseltrees import io as vio
from vesseltrees.cli import _config_from_args, build_parser, main
from vesseltrees.graphs import build_confluent_graph, build_geodesic_graph
from vesseltrees.io import read_csv, read_json, read_neighbor_pairs, \
    read_point_cloud, read_tree
from vesseltrees.pipeline import PipelineConfig, recon_name, \
    reconstruct_cloud
from vesseltrees.synth import SamplerConfig


def run(args):
    return main(list(args))


def file_hashes(root, skip_dirs=()):
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        if any(part in skip_dirs for part in rel_dir.split(os.sep)):
            continue
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def small_synth(out_dir, seed=0, extra=()):
    args = ["synth", "--out", str(out_dir), "--n-trees", "2", "--n-leaves",
            "5", "--seed", str(seed), "--domain-size", "60"]
    assert run(args + list(extra)) == 0


def test_synth_layout_and_manifest(tmp_path, capsys):
    small_synth(tmp_path / "corpus")
    manifest = read_json(tmp_path / "corpus" / "manifest.json")
    assert manifest["kind"] == "vesseltrees-corpus"
    assert len(manifest["items"]) == 2
    for item in manifest["items"]:
        assert (tmp_path / "corpus" / item["tree"]).exists()
        for cloud in item["clouds"]:
            assert (tmp_path / "corpus" / cloud["path"]).exists()
    out = capsys.readouterr().out
    assert "2 trees" in out


def test_synth_reconstruct_evaluate_round(tmp_path):
    corpus = tmp_path / "corpus"
    small_synth(corpus)
    recon = tmp_path / "run"
    assert run(["reconstruct", "--corpus", str(corpus), "--out", str(recon),
                "--k", "60", "--dump-neighbors"]) == 0
    assert (recon / "run.json").exists()
    tree_files = sorted(os.listdir(recon / "trees"))
    assert tree_files == ["recon_000_l00.txt", "recon_001_l00.txt"]
    assert sorted(os.listdir(recon / "neighbors")) == [
        "recon_000_l00.csv", "recon_001_l00.csv"]

    reports = tmp_path / "eval"
    assert run(["evaluate", "--corpus", str(corpus), "--recon", str(recon),
                "--out", str(reports)]) == 0
    header, rows = read_csv(reports / "per_tree.csv")
    assert header[0] == "tree_id"
    assert len(rows) == 2
    # zero corruption: perfect centerline scores
    for row in rows:
        values = dict(zip(header, row))
        assert float(values["centerline_recall"]) == 1.0
        assert float(values["centerline_fallout"]) == 0.0
        assert math.degrees(
            float(values["median_angular_error_rad"])) <= 5.0
    assert (reports / "aggregate.csv").exists()
    assert (reports / "roc_centerline.csv").exists()
    assert (reports / "roc_bifurcation.csv").exists()
    assert (reports / "connectivity.csv").exists()

    _, roc_rows = read_csv(reports / "roc_bifurcation.csv")
    scales = [float(r[2]) for r in roc_rows]
    assert scales == sorted(scales)
    assert len(roc_rows) > 0


def test_cli_determinism_byte_identical(tmp_path):
    for name in ("a", "b"):
        corpus = tmp_path / name / "corpus"
        small_synth(corpus, seed=3,
                    extra=["--tangent-noise", "0.1", "--dropout", "0.05"])
        assert run(["reconstruct", "--corpus", str(corpus), "--out",
                    str(tmp_path / name / "run"), "--k", "60"]) == 0
        assert run(["evaluate", "--corpus", str(corpus), "--recon",
                    str(tmp_path / name / "run"), "--out",
                    str(tmp_path / name / "eval")]) == 0
    # stats sidecars carry wall-clock times; all data artifacts must match
    a = file_hashes(tmp_path / "a", skip_dirs=("stats",))
    b = file_hashes(tmp_path / "b", skip_dirs=("stats",))
    assert a == b


def test_jobs_give_the_outputs_of_one_process(tmp_path):
    for jobs in ("1", "2"):
        root = tmp_path / f"jobs{jobs}"
        small_synth(root / "corpus", seed=5,
                    extra=["--tangent-noise", "0.1", "--jobs", jobs])
        assert run(["reconstruct", "--corpus", str(root / "corpus"),
                    "--out", str(root / "run"), "--k", "60",
                    "--dump-neighbors", "--jobs", jobs]) == 0
        assert run(["evaluate", "--corpus", str(root / "corpus"), "--recon",
                    str(root / "run"), "--out", str(root / "eval"),
                    "--jobs", jobs]) == 0
    # corpora, trees, neighbour dumps, CSVs and run.json are byte-identical
    one = file_hashes(tmp_path / "jobs1", skip_dirs=("stats",))
    two = file_hashes(tmp_path / "jobs2", skip_dirs=("stats",))
    assert one == two and len(one) == 15
    # the stats differ only in their timings
    def untimed(jobs, name):
        stats = read_json(tmp_path / f"jobs{jobs}" / "run" / "stats" / name)
        return {k: v for k, v in stats.items() if not k.endswith("_s")}

    names = sorted(os.listdir(tmp_path / "jobs1" / "run" / "stats"))
    assert names == sorted(os.listdir(tmp_path / "jobs2" / "run" / "stats"))
    for name in names:
        assert untimed(1, name) == untimed(2, name)


def test_single_cloud_reconstruct_and_graph_dump(tmp_path):
    corpus = tmp_path / "corpus"
    small_synth(corpus)
    manifest = read_json(corpus / "manifest.json")
    cloud_path = corpus / manifest["items"][0]["clouds"][0]["path"]
    root = manifest["items"][0]["root_position"]

    out_tree = tmp_path / "tree.txt"
    assert run(["reconstruct", "--cloud", str(cloud_path), "--out",
                str(out_tree), "--k", "60",
                "--root-at", ",".join(str(c) for c in root)]) == 0
    cloud = read_point_cloud(cloud_path)
    tree = read_tree(out_tree, cloud=cloud)
    assert tree.n_edges > 0
    assert (tmp_path / "tree_stats.json").exists()

    arcs_csv = tmp_path / "arcs.csv"
    assert run(["graph-dump", "--cloud", str(cloud_path), "--out",
                str(arcs_csv), "--k", "20",
                "--root-at", ",".join(str(c) for c in root)]) == 0
    header, rows = read_csv(arcs_csv)
    assert header == ["tail", "head", "weight", "alpha", "length"]
    assert rows


def test_single_cloud_dump_is_the_solved_system(tmp_path):
    # --dump-neighbors with --cloud writes <stem>_neighbors.csv beside the
    # stats: the system reconstruct_cloud solved, as many pairs as counted
    corpus = tmp_path / "corpus"
    small_synth(corpus, extra=["--tangent-noise", "0.1"])
    manifest = read_json(corpus / "manifest.json")
    cloud_path = corpus / manifest["items"][0]["clouds"][0]["path"]
    out_tree = tmp_path / "t.txt"
    assert run(["reconstruct", "--cloud", str(cloud_path), "--out",
                str(out_tree), "--k", "60", "--root-index", "0",
                "--dump-neighbors"]) == 0
    assert sorted(os.listdir(tmp_path)) == [
        "corpus", "t.txt", "t_neighbors.csv", "t_stats.json"]
    cloud = read_point_cloud(cloud_path)
    dumped = read_neighbor_pairs(tmp_path / "t_neighbors.csv", cloud=cloud)
    _, _, solved = reconstruct_cloud(cloud, PipelineConfig(k=60), 0)
    assert np.array_equal(dumped.pairs, solved.pairs)
    stats = read_json(tmp_path / "t_stats.json")
    assert stats["n_neighbor_pairs"] == dumped.n_pairs


@pytest.mark.parametrize("mode", ["confluent", "geodesic", "anisotropic"])
def test_graph_dump_writes_the_system_reconstruct_solved(tmp_path, mode):
    # graph-dump writes the mode's graph over the pairs that reconstruct
    # --dump-neighbors writes
    corpus = tmp_path / "corpus"
    small_synth(corpus, extra=["--tangent-noise", "0.1"])
    manifest = read_json(corpus / "manifest.json")
    cloud_path = corpus / manifest["items"][0]["clouds"][0]["path"]
    root = ",".join(str(c) for c in manifest["items"][0]["root_position"])
    flags = ["--cloud", str(cloud_path), "--k", "60", "--root-at", root]
    flags += ["--anisotropic"] if mode == "anisotropic" else ["--mode", mode]
    assert run(["reconstruct", *flags, "--out", str(tmp_path / "t.txt"),
                "--dump-neighbors"]) == 0
    assert run(["graph-dump", *flags, "--out", str(tmp_path / "a.csv")]) == 0
    cloud = read_point_cloud(cloud_path)
    system = read_neighbor_pairs(tmp_path / "t_neighbors.csv", cloud=cloud)
    graph = (build_geodesic_graph(cloud, system) if mode == "geodesic"
             else build_confluent_graph(cloud, system, epsilon=math.pi / 2))
    _, rows = read_csv(tmp_path / "a.csv")
    assert [int(r[0]) for r in rows] == graph.tails.tolist()
    assert [int(r[1]) for r in rows] == graph.heads.tolist()
    assert [float(r[2]) for r in rows] == graph.weights.tolist()


def test_graph_dump_without_a_root_is_one_error_line(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    small_synth(corpus)
    manifest = read_json(corpus / "manifest.json")
    cloud_path = corpus / manifest["items"][0]["clouds"][0]["path"]
    capsys.readouterr()
    assert run(["graph-dump", "--cloud", str(cloud_path), "--out",
                str(tmp_path / "a.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: no root given: pass a root index or coordinates"]
    assert not (tmp_path / "a.csv").exists()


def test_connectivity_scores_the_system_of_each_mode(tmp_path):
    # A corpus-sweep-like corpus: each mode dumps the system its own trees
    # were solved from, so the two connectivity tables differ.
    corpus = tmp_path / "corpus"
    assert run(["synth", "--out", str(corpus), "--n-trees", "3",
                "--n-leaves", "8", "--domain-size", "100", "--seed", "1",
                "--tangent-noise", "0.1", "--sweep-param", "position-noise",
                "--sweep-values", "0,0.15,0.3"]) == 0
    tables = {}
    for mode in ("confluent", "geodesic"):
        recon, reports = tmp_path / mode, tmp_path / f"eval_{mode}"
        assert run(["reconstruct", "--corpus", str(corpus), "--out",
                    str(recon), "--mode", mode, "--dump-neighbors"]) == 0
        assert run(["evaluate", "--corpus", str(corpus), "--recon",
                    str(recon), "--out", str(reports)]) == 0
        tables[mode] = read_csv(reports / "connectivity.csv")
    (header, confluent), (_, geodesic) = tables["confluent"], \
        tables["geodesic"]
    assert header == ["tree_id", "level", "threshold", "recall", "fallout"]
    assert len(confluent) == len(geodesic) == 9
    assert [r[:3] for r in confluent] == [r[:3] for r in geodesic]
    assert confluent != geodesic


def test_compare_runs(tmp_path):
    corpus = tmp_path / "corpus"
    small_synth(corpus, extra=["--tangent-noise", "0.2", "--dropout", "0.1",
                               "--flip-prob", "0.02"])
    for mode in ("confluent", "geodesic"):
        assert run(["reconstruct", "--corpus", str(corpus), "--out",
                    str(tmp_path / mode), "--mode", mode, "--k", "60"]) == 0
        assert run(["evaluate", "--corpus", str(corpus), "--recon",
                    str(tmp_path / mode), "--out",
                    str(tmp_path / ("eval_" + mode))]) == 0
    out = tmp_path / "compare.csv"
    assert run(["compare", "--eval-a", str(tmp_path / "eval_geodesic"),
                "--eval-b", str(tmp_path / "eval_confluent"),
                "--out", str(out), "--label-a", "geodesic",
                "--label-b", "confluent"]) == 0
    header, rows = read_csv(out)
    assert header[1] == "metric"
    metrics = {r[1] for r in rows}
    assert "pooled_median_angular_error_rad" in metrics


def test_config_file_defaults_and_flag_priority(tmp_path):
    corpus = tmp_path / "corpus"
    small_synth(corpus)
    manifest = read_json(corpus / "manifest.json")
    cloud_path = corpus / manifest["items"][0]["clouds"][0]["path"]

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"k": 10, "mode": "geodesic"}))
    out_a = tmp_path / "a.csv"
    assert run(["--config", str(cfg_path), "graph-dump", "--cloud",
                str(cloud_path), "--out", str(out_a), "--root-index",
                "0"]) == 0
    header, _ = read_csv(out_a)
    assert header == ["u", "v", "weight"]  # config file set mode=geodesic

    out_b = tmp_path / "b.csv"
    assert run(["--config", str(cfg_path), "graph-dump", "--cloud",
                str(cloud_path), "--out", str(out_b), "--mode", "confluent",
                "--root-index", "0"]) == 0
    header, _ = read_csv(out_b)
    assert header[0] == "tail"  # explicit flag beat the config file


def test_error_exits_are_nonzero(tmp_path, capsys):
    # unreadable input
    assert run(["reconstruct", "--cloud", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "x.txt"), "--root-index", "0"]) == 1
    assert "error:" in capsys.readouterr().err
    # both --corpus and --cloud
    assert run(["reconstruct", "--corpus", "a", "--cloud", "b",
                "--out", "c"]) == 1
    # evaluate with mismatched run
    corpus = tmp_path / "corpus"
    small_synth(corpus)
    empty_run = tmp_path / "empty"
    os.makedirs(empty_run / "trees", exist_ok=True)
    assert run(["evaluate", "--corpus", str(corpus), "--recon",
                str(empty_run), "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert "missing" in err
    # bad config key
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"nonsense-knob": 1}))
    assert run(["--config", str(cfg_path), "synth", "--out",
                str(tmp_path / "c2")]) == 1


@pytest.mark.parametrize("case", ["cloud", "tree", "csv", "config",
                                  "csv-cell", "csv-header"])
def test_bad_input_is_one_error_line_naming_the_file(tmp_path, capsys,
                                                     case):
    # exit 1 and one "error: <path>..." line on stderr, never a traceback:
    # a cloud row of 3 columns, a tree with a bare root line, an empty
    # aggregate.csv, a config value its flag refuses, an aggregate.csv
    # cell that is no number (named with its line) and two aggregate.csv
    # headers that differ (both files named)
    if case == "cloud":
        bad = tmp_path / "cloud.txt"
        bad.write_text("0 0 0 1 0 0\n1 2 3\n")
        argv = ["reconstruct", "--cloud", str(bad), "--out",
                str(tmp_path / "t.txt"), "--root-index", "0"]
    elif case == "tree":
        corpus, recon = tmp_path / "corpus", tmp_path / "run"
        small_synth(corpus)
        manifest = read_json(corpus / "manifest.json")
        (recon / "trees").mkdir(parents=True)
        for item in manifest["items"]:
            (recon / "trees" / f"{recon_name(item['id'], 0)}.txt").touch()
        bad = corpus / manifest["items"][0]["tree"]
        bad.write_text("root\n0 -1 0 0 0 1\n")
        argv = ["evaluate", "--corpus", str(corpus), "--recon", str(recon),
                "--out", str(tmp_path / "eval")]
    elif case == "csv":
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "aggregate.csv").write_text("")
        bad = tmp_path / "a" / "aggregate.csv"
        argv = ["compare", "--eval-a", str(tmp_path / "a"), "--eval-b",
                str(tmp_path / "b"), "--out", str(tmp_path / "c.csv")]
    elif case == "config":
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"k": "many"}))
        argv = ["--config", str(bad), "reconstruct", "--corpus", "c",
                "--out", str(tmp_path / "run")]
    else:
        header = "level,threshold,n_trees,mean_centerline_recall\n"
        texts = {"a": header + "0,0.0,2,0.5\n",
                 "b": header + "\n0,0.0,2,0.5\n1,0.1,2,x\n"}
        if case == "csv-header":
            texts["b"] = header.replace("recall", "fallout") + "0,0.0,2,0.5\n"
        for name, text in texts.items():
            (tmp_path / name).mkdir()
            (tmp_path / name / "aggregate.csv").write_text(text)
        bad = tmp_path / "b" / "aggregate.csv"
        if case == "csv-cell":
            bad = f"{bad}:4: could not convert string to float: 'x'"
        else:
            bad = f"{bad}: header differs from that of {tmp_path / 'a'}"
        argv = ["compare", "--eval-a", str(tmp_path / "a"), "--eval-b",
                str(tmp_path / "b"), "--out", str(tmp_path / "c.csv")]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}")


@pytest.mark.parametrize("command, flag, text", [
    ("reconstruct", "root-at", "nan,0,0"),
    ("evaluate", "zeta", "nan"),
    ("evaluate", "zeta", "inf"),
    ("evaluate", "step", "nan"),
    ("synth", "domain-size", "nan"),
    ("synth", "domain-size", "inf"),
    ("synth", "spacing", "nan"),
    ("synth", "position-noise", "nan"),
    ("synth", "tangent-noise", "inf"),
    ("reconstruct", "elastic-lambda", "nan"),
    ("reconstruct", "elastic-lambda", "inf"),
    ("reconstruct", "aspect-ratio-sq", "nan"),
    ("reconstruct", "aspect-ratio-sq", "inf"),
], ids=["root-at-nan", "zeta-nan", "zeta-inf", "step-nan", "domain-size-nan",
        "domain-size-inf", "spacing-nan", "position-noise-nan",
        "tangent-noise-inf", "elastic-lambda-nan", "elastic-lambda-inf",
        "aspect-ratio-sq-nan", "aspect-ratio-sq-inf"])
def test_non_finite_values_are_one_error_line(tmp_path, capsys, command,
                                              flag, text):
    # NaN fails every range check: each value is refused with one line
    # naming it, where it would run on, warn or end in a traceback
    corpus, recon = tmp_path / "corpus", tmp_path / "run"
    if command != "synth":
        small_synth(corpus)
        assert run(["reconstruct", "--corpus", str(corpus), "--out",
                    str(recon), "--k", "30"]) == 0
    args = {"synth": ["--out", str(tmp_path / "c2"), "--n-trees", "1"],
            "reconstruct": ["--corpus", str(corpus), "--out",
                            str(tmp_path / "run2")],
            "evaluate": ["--corpus", str(corpus), "--recon", str(recon),
                         "--out", str(tmp_path / "eval")]}[command]
    capsys.readouterr()
    assert run([command, *args, f"--{flag}", text]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert flag.replace("-", "_") in err[0] and "must be finite" in err[0]
    assert f"got {text[:3]}" in err[0].replace("[", "")


def test_numpy_and_per_cell_writers_give_the_same_files(tmp_path, monkeypatch):
    # a corpus whose cloud, ground-truth tree, tree and neighbour CSV all
    # have more rows than _VECTOR_ROWS, written at the real threshold and
    # again with every cell through str
    hashes, threshold = [], vio._VECTOR_ROWS
    for rows in (threshold, math.inf):
        monkeypatch.setattr(vio, "_VECTOR_ROWS", rows)
        out = tmp_path / str(rows)
        assert run(["synth", "--out", str(out / "corpus"), "--n-trees", "1",
                    "--n-leaves", "256", "--seed", "3", "--domain-size",
                    "120"]) == 0
        assert run(["reconstruct", "--corpus", str(out / "corpus"), "--out",
                    str(out / "run"), "--k", "30", "--dump-neighbors"]) == 0
        hashes.append(file_hashes(out, skip_dirs=("stats",)))
    names = {"corpus/clouds/cloud_000_l00.txt", "corpus/trees/tree_000.txt",
             "run/trees/recon_000_l00.txt", "run/neighbors/recon_000_l00.csv"}
    assert names <= hashes[0].keys() and hashes[0] == hashes[1]
    for name in names:
        with open(out / name) as fh:
            assert sum(1 for _ in fh) > threshold + 3


@pytest.mark.parametrize("values", [
    {"k": True}, {"k": [3]}, {"jobs": 2.5}, {"k": 1.5}, {"root_at": [1, 2]},
], ids=["k-bool", "k-list", "jobs-float", "k-float", "root_at-pair"])
def test_config_values_get_the_checks_of_their_flags(tmp_path, capsys,
                                                     values):
    # Each value would run as a wrong flag or end in a traceback if it
    # skipped its flag's type; instead the run stops with one line naming
    # the file and the key.
    corpus = tmp_path / "corpus"
    small_synth(corpus)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))
    capsys.readouterr()
    assert run(["--config", str(cfg_path), "reconstruct", "--corpus",
                str(corpus), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg_path}: ")
    assert repr(next(iter(values))) in err[0]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, key, text, value", [
    ("synth", "jobs", "0", 0),
    ("reconstruct", "jobs", "-3", -3),
    ("evaluate", "jobs", "two", "two"),
    ("evaluate", "tol-scales", "0,-1", [0, -1]),
    ("evaluate", "tol-scales", "1,nan", [1, "nan"]),
    ("evaluate", "tol-scales", "1,inf", [1, "inf"]),
], ids=["synth-jobs-0", "reconstruct-jobs-negative", "evaluate-jobs-word",
        "scales-not-positive", "scales-nan", "scales-inf"])
def test_jobs_and_tol_scales_refuse_bad_values(tmp_path, capsys, via,
                                               command, key, text, value):
    # --jobs takes whole numbers >= 1 and --tol-scales positive finite
    # scales; either refusal names the flag or the config key, and nothing
    # runs
    out = tmp_path / "out"
    args = {"synth": ["--out", str(out)],
            "reconstruct": ["--corpus", "c", "--out", str(out)],
            "evaluate": ["--corpus", "c", "--recon", "r", "--out",
                         str(out)]}[command]
    capsys.readouterr()
    if via == "flag":
        with pytest.raises(SystemExit) as exit_info:
            run([command, *args, f"--{key}", text])
        assert exit_info.value.code == 2
        assert f"argument --{key}: expected" in capsys.readouterr().err
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert run(["--config", str(cfg_path), command, *args]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {cfg_path}: bad value ")
        assert f"for {key!r}: expected" in err[0]
    assert not out.exists()


def test_config_lists_nulls_and_choices(tmp_path):
    # a list is the text of a comma-separated flag, null keeps the flag's
    # default and a choice outside the flag's choices is refused
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_trees": 1, "sweep-param": "dropout",
                                    "sweep_values": [0, 0.1]}))
    assert run(["--config", str(cfg_path), "synth", "--out",
                str(tmp_path / "corpus"), "--n-leaves", "3"]) == 0
    manifest = read_json(tmp_path / "corpus" / "manifest.json")
    assert [lv["threshold"] for lv in manifest["levels"]] == [0.0, 0.1]
    cfg_path.write_text(json.dumps({"sweep_param": None, "n-trees": 1}))
    assert run(["--config", str(cfg_path), "synth", "--out",
                str(tmp_path / "c1")]) == 0   # null keeps the default
    cfg_path.write_text(json.dumps({"sweep_param": "nonsense"}))
    assert run(["--config", str(cfg_path), "synth", "--out",
                str(tmp_path / "c2")]) == 1


def test_unresolvable_root_errors(tmp_path):
    corpus = tmp_path / "corpus"
    small_synth(corpus)
    manifest = read_json(corpus / "manifest.json")
    cloud_path = corpus / manifest["items"][0]["clouds"][0]["path"]
    assert run(["reconstruct", "--cloud", str(cloud_path), "--out",
                str(tmp_path / "t.txt")]) == 1
    assert run(["reconstruct", "--cloud", str(cloud_path), "--out",
                str(tmp_path / "t.txt"), "--root-index", "999999"]) == 1


def test_evaluate_cyclic_ground_truth_is_one_error_line(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    small_synth(corpus)
    recon = tmp_path / "run"
    assert run(["reconstruct", "--corpus", str(corpus), "--out", str(recon),
                "--k", "30"]) == 0
    manifest = read_json(corpus / "manifest.json")
    gt_path = corpus / manifest["items"][0]["tree"]
    gt_path.write_text("root 0\n0 -1 0 0 0 1\n1 2 1 0 0 1\n2 1 2 0 0 1\n")
    capsys.readouterr()
    assert run(["evaluate", "--corpus", str(corpus), "--recon", str(recon),
                "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(gt_path) in err[0] and "cycle detected" in err[0]


def test_python_m_vesseltrees_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        vesseltrees.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-m", "vesseltrees", "--help"],
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: vesseltrees")


# Run in a fresh interpreter, with every warning an error: the commands that
# need no scipy must not load it, and reconstruct must still import it on
# first use, inside its warning-recording block, without a warning.
NO_SCIPY_SCRIPT = """
import os, sys
import vesseltrees
from vesseltrees.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out = sys.argv[1]
try:
    main(["--help"])
except SystemExit as exit:
    assert exit.code == 0
assert main(["synth", "--out", os.path.join(out, "corpus"), "--n-trees", "2",
             "--n-leaves", "4", "--seed", "0", "--domain-size", "60",
             "--tangent-noise", "0.1", "--dropout", "0.1"]) == 0
header = ("level,threshold,n_trees,mean_centerline_recall,"
          "mean_centerline_fallout\\n")
for name, recall in (("a", 0.5), ("b", 0.75)):
    os.makedirs(os.path.join(out, name))
    with open(os.path.join(out, name, "aggregate.csv"), "w") as fh:
        fh.write(header + f"0,0.0,2,{recall},0.1\\n")
assert main(["compare", "--eval-a", os.path.join(out, "a"), "--eval-b",
             os.path.join(out, "b"), "--out",
             os.path.join(out, "compare.csv")]) == 0
assert not scipy_modules(), scipy_modules()
for step in (["reconstruct", "--corpus", os.path.join(out, "corpus"),
              "--out", os.path.join(out, "run"), "--k", "8"],
             ["evaluate", "--corpus", os.path.join(out, "corpus"), "--recon",
              os.path.join(out, "run"), "--out", os.path.join(out, "eval")]):
    assert main(step) == 0
assert "scipy.spatial" in scipy_modules()
"""


def test_synth_and_compare_never_import_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        vesseltrees.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", NO_SCIPY_SCRIPT,
         str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=120)
    assert result.returncode == 0, result.stderr
    _, rows = read_csv(tmp_path / "compare.csv")
    assert [r[1] for r in rows] == ["mean_centerline_recall",
                                    "mean_centerline_fallout"]
    assert (tmp_path / "eval" / "aggregate.csv").exists()


@pytest.mark.parametrize("column, value, message", [
    (5, "nan", "radii must be finite and >= 0"),
    (5, "-1.0", "radii must be finite and >= 0"),
    (2, "nan", "positions must be finite"),
    (1, "-2", "a ground-truth parent must be a node id, or -1 at the root"),
], ids=["radius-nan", "radius-negative", "x-nan", "parent-excluded"])
def test_evaluate_refuses_bad_ground_truth_values_by_line(tmp_path, capsys,
                                                          column, value,
                                                          message):
    # node 3 of a ground-truth tree gets the bad value; evaluate stops with
    # one line naming the file and the line of node 3, before any scoring
    corpus, recon = tmp_path / "corpus", tmp_path / "run"
    small_synth(corpus)
    assert run(["reconstruct", "--corpus", str(corpus), "--out", str(recon),
                "--k", "30"]) == 0
    gt_path = corpus / read_json(corpus / "manifest.json")["items"][0]["tree"]
    lines = gt_path.read_text().splitlines()
    line_no = next(i for i, line in enumerate(lines, 1)
                   if line.split()[:1] == ["3"])
    cells = lines[line_no - 1].split()
    cells[column] = value
    lines[line_no - 1] = " ".join(cells)
    gt_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["evaluate", "--corpus", str(corpus), "--recon", str(recon),
                "--out", str(tmp_path / "eval")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {gt_path}:{line_no}: {message}"]
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("n_trees", ["0", "-3"])
def test_synth_refuses_an_empty_corpus(tmp_path, capsys, n_trees):
    out = tmp_path / "corpus"
    assert run(["synth", "--out", str(out), "--n-trees", n_trees]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: n_trees must be >= 1, got {n_trees}"]
    assert not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_sweep_values_without_a_sweep_parameter_are_refused(tmp_path, capsys,
                                                            how):
    out = tmp_path / "corpus"
    args = ["synth", "--out", str(out), "--n-trees", "1", "--n-leaves", "4"]
    if how == "flag":
        args += ["--sweep-values", "0,1"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep_values": [0, 1]}))
        args = ["--config", str(cfg_path), *args]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: sweep values given but no sweep parameter"]
    assert not out.exists()


def test_flag_defaults_are_the_config_defaults():
    parser = build_parser()
    for argv in (["reconstruct", "--out", "t.txt"],
                 ["graph-dump", "--cloud", "c.txt", "--out", "a.csv"]):
        assert _config_from_args(parser.parse_args(argv)) == PipelineConfig()
    args = parser.parse_args(["synth", "--out", "corpus"])
    sampler = SamplerConfig()
    assert (args.spacing, args.position_noise, args.tangent_noise,
            args.flip_prob, args.dropout) == (
        sampler.spacing, sampler.position_noise_std,
        sampler.tangent_noise_std_rad, sampler.orientation_flip_prob,
        sampler.dropout_prob)
