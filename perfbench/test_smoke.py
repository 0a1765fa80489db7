"""Smoke test of the benchmark at a tiny scale.

Run from the repository root with ``python3 -m pytest perfbench``. Every
workload runs once in each mode; the test checks the output
contract, that every metric the benchmark promises is emitted with its
unit, that both modes give the same results fingerprint, and that the
output check catches broken outputs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

SEED = 3

E2E = {
    "setup_s": "s", "reconstruct_s": "s", "evaluate_s": "s",
    "peak_rss_mb": "MB", "failed_frac": "ratio", "total_weight": "voxel",
    "tree_frac": "ratio", "centerline_recall": "ratio",
    "centerline_fallout": "ratio", "bifurcation_recall": "ratio",
    "bifurcation_fallout": "ratio", "angular_error_deg": "deg",
}
E2E_CORPUS = {"connectivity_recall": "ratio", "connectivity_fallout": "ratio"}

LAYERS = {
    "trace.overhead_s": "s",
    "graphs.knn_s": "s", "graphs.knn_floor_s": "s",
    "graphs.knn_over_floor": "ratio", "graphs.pairs": "count",
    "graphs.confluent_s": "s", "graphs.arcs": "count",
    "graphs.arc_keep_ratio": "ratio", "graphs.geodesic_s": "s",
    "graphs.k_clamp_warnings": "count", "graphs.self_s": "s",
    "geometry.arc_kernel_s": "s", "geometry.arcs_fitted": "count",
    "geometry.arc_kernel_bytes": "bytes_computed",
    "solvers.arborescence_s": "s", "solvers.arborescence_floor_s": "s",
    "solvers.arborescence_over_floor": "ratio", "solvers.mst_s": "s",
    "solvers.tree_nodes": "count", "solvers.excluded": "count",
    "solvers.validate_s": "s", "solvers.self_s": "s",
    "metrics.roc_sweep_s": "s", "metrics.centerline_roc_s": "s",
    "metrics.bifurcation_roc_s": "s", "metrics.angular_errors_s": "s",
    "metrics.connectivity_roc_s": "s", "metrics.connectivity_pairs": "count",
    "metrics.resample_tree_s": "s", "metrics.resampled_points": "count",
    "metrics.self_s": "s",
    "io.read_point_cloud_s": "s", "io.write_tree_s": "s",
    "io.read_tree_s": "s", "io.write_neighbor_pairs_s": "s",
    "io.read_neighbor_pairs_s": "s", "io.write_csv_s": "s",
    "io.bytes_written": "bytes", "io.bytes_read": "bytes",
    "io.files_written": "count", "io.self_s": "s",
    "synth.generate_tree_s": "s", "synth.sample_centerline_s": "s",
    "synth.samples": "count", "synth.self_s": "s",
    "pipeline.reconstruct_cloud_p50_s": "s",
    "pipeline.reconstruct_cloud_max_s": "s",
    "pipeline.reconstruct_self_s": "s", "pipeline.evaluate_self_s": "s",
    "pipeline.clouds": "count", "pipeline.cpu_s": "s",
}
# layers that only corpus-sweep runs
CORPUS_ONLY = ("graphs.geodesic_s", "solvers.mst_s",
               "metrics.connectivity_roc_s", "io.write_neighbor_pairs_s",
               "io.read_neighbor_pairs_s")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def report(workload, trace):
    path = os.path.join(bench.OUT, f"{workload}-seed{SEED}-trace{trace}"
                                   "-tiny.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_workload_emits_every_metric(workload):
    e2e, layers = declared()
    prints = []
    for trace in (0, 1):
        proc = run_bench(workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1

        expect_final = layers if trace else e2e
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == expect_final
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))

        rep = report(workload, trace)
        assert len(rep["fingerprint"]) == 64
        prints.append(rep["fingerprint"])
        emitted = {k: v["unit"] for k, v in rep["metrics"].items()}
        if trace:
            expected = dict(LAYERS)
            if workload != "corpus-sweep":
                for name in CORPUS_ONLY:
                    del expected[name]
        else:
            expected = dict(E2E)
            if workload == "corpus-sweep":
                expected.update(E2E_CORPUS)
        for name, unit in expected.items():
            assert emitted.get(name) == unit, name
        if trace and workload == "corpus-sweep":
            for name in CORPUS_ONLY:
                assert rep["metrics"][name]["value"] > 0, name
            # k=500 is clamped to N - 1 on every cloud of this workload
            assert rep["metrics"]["graphs.k_clamped"]["value"] \
                == rep["metrics"]["pipeline.clouds"]["value"]
    # two processes, one traced, produce byte-identical results
    assert prints[0] == prints[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("dense-k500", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_check_catches_broken_outputs(tmp_path):
    bench.import_vesseltrees()
    wl = bench.WORKLOADS["dense-k500"]
    corpus, pass_dir = str(tmp_path / "corpus"), str(tmp_path / "pass")
    bench.cli_step(bench.synth_args(wl, wl.tiny, corpus, SEED,
                                    wl.tiny.domain))
    bench.run_pass(wl, corpus, pass_dir)
    assert bench.check_outputs(wl, corpus, pass_dir)["failed"] == 0

    stats_dir = os.path.join(pass_dir, "confluent", "recon", "stats")
    stats_path = os.path.join(stats_dir, os.listdir(stats_dir)[0])
    with open(stats_path) as fh:
        stats = json.load(fh)
    stats["total_weight"] += 1.0
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    check = bench.check_outputs(wl, corpus, pass_dir)
    assert check["failed"] == 1
    assert "total_weight" in check["problems"][0]

    bench.run_pass(wl, corpus, pass_dir)  # rewrite good outputs
    agg = os.path.join(pass_dir, "confluent", "eval", "aggregate.csv")
    with open(agg) as fh:
        header = fh.readline()
    with open(agg, "w") as fh:
        fh.write(header)
    assert bench.check_outputs(wl, corpus, pass_dir)["failed"] == 1
