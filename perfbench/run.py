#!/usr/bin/env python3
"""Seeded benchmark of the vesseltrees synth -> reconstruct -> evaluate flow.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload dense-k500 --seed 1 --seconds 32 \\
        --trace 0

Each workload generates its corpus from ``--seed`` with ``vesseltrees
synth`` and then runs the flow a user runs, ``reconstruct`` then
``evaluate``, in-process through ``vesseltrees.cli.main`` with ``--jobs 1``.
The package is imported from ``src/`` of the checkout; nothing is
installed. All files go under ``perfbench/out/`` and temporary
directories there are removed before exit.

An untimed warm-up pass over a tiny corpus comes first, so first-call
costs (lazy imports inside numpy and scipy) fall outside every timed
pass. ``--trace 0`` then times passes over the flow, repeated until
``--seconds`` is used up (at least two), and reports medians over the
passes. Set-up is timed five times in fresh interpreters. ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics
derived from spans recorded around every function that
``vesseltrees.pipeline`` calls (see ``spans.py``), plus the floors each
layer is judged against. The per-layer figures come from the first
traced pass; ``trace.overhead_s`` is the median, over the pairs, of a
traced pass's time minus that of the untraced pass just before it. Either way the outputs are checked outside the
timed region, a results fingerprint is printed, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 1 when a check fails and 2
when the checkout holds no ``src/vesseltrees`` package.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass

from spans import IO_READS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

# The one warning the flow is expected to raise: graphs._clamp_k when k is
# at least the cloud size. Any other warning fails the run.
CLAMP_WARNING = re.compile(
    r"^k=\d+ >= sample count \d+; clamping to \d+$")


@dataclass(frozen=True)
class Scale:
    n_trees: int
    n_leaves: int
    domain: float     # nominal domain edge, voxels
    length: float     # total centerline length of the corpus, voxels


@dataclass(frozen=True)
class Workload:
    full: Scale
    tiny: Scale
    sweep: tuple[str, ...]
    # (label, extra reconstruct flags); the first run is the system under
    # test, later ones are baselines evaluated on the same corpus
    runs: tuple[tuple[str, tuple[str, ...]], ...]


# Synthetic trees of one leaf count differ in total length by about 12 %
# from seed to seed, and reconstruct time grows with the sample count
# (with its square when k is clamped to N - 1). So the seed picks the tree
# shapes and the domain is then scaled to give the corpus a fixed total
# centerline length (see sized_domain); that keeps the timings comparable
# across seeds. At spacing 1 the sample count is about the length.
WORKLOADS = {
    "corpus-sweep": Workload(
        full=Scale(n_trees=3, n_leaves=8, domain=100.0, length=960.0),
        tiny=Scale(n_trees=2, n_leaves=4, domain=50.0, length=160.0),
        sweep=("--sweep-param", "position-noise",
               "--sweep-values", "0,0.15,0.3"),
        runs=(("confluent", ("--dump-neighbors",)),
              ("geodesic", ("--mode", "geodesic"))),
    ),
    "dense-k500": Workload(
        full=Scale(n_trees=1, n_leaves=64, domain=400.0, length=4900.0),
        tiny=Scale(n_trees=1, n_leaves=8, domain=120.0, length=400.0),
        sweep=(),
        runs=(("confluent", ("--k", "500")),),
    ),
    "large-k100": Workload(
        full=Scale(n_trees=1, n_leaves=128, domain=700.0, length=14000.0),
        tiny=Scale(n_trees=1, n_leaves=16, domain=150.0, length=700.0),
        sweep=(),
        runs=(("confluent", ("--k", "100")),),
    ),
}
COMMON_SYNTH = ("--tangent-noise", "0.1", "--jobs", "1")

# Every end-to-end number the benchmark prints, with its unit. Only the
# ones named in BENCHMARK.json go into the final JSON line. Of the result
# numbers, which are fixed per seed, those are total_weight, tree_frac and
# centerline_recall: they are never 0 and vary little from seed to seed, so
# a bound on them catches a change in the result. The others may be 0 or
# swing widely between seeds; they are printed, and the fingerprint covers
# them.
E2E_UNITS = {
    "setup_s": "s", "reconstruct_s": "s", "evaluate_s": "s",
    "peak_rss_mb": "MB", "failed_frac": "ratio", "total_weight": "voxel",
    "tree_frac": "ratio", "centerline_recall": "ratio",
    "centerline_fallout": "ratio", "bifurcation_recall": "ratio",
    "bifurcation_fallout": "ratio", "angular_error_deg": "deg",
    "connectivity_recall": "ratio", "connectivity_fallout": "ratio",
}


class CheckoutError(Exception):
    """The checkout holds no vesseltrees sources to benchmark."""


def import_vesseltrees():
    """Import the package from ``src/`` of this checkout."""
    if not os.path.isfile(os.path.join(SRC, "vesseltrees", "__init__.py")):
        raise CheckoutError(f"no vesseltrees package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("vesseltrees.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise CheckoutError(f"vesseltrees imported from {cli.__file__}, "
                            f"not from {SRC}")


# Set-up as a user pays it: a fresh interpreter imports vesseltrees (and
# with it numpy and scipy), then runs synth. Timed inside the child, so
# interpreter start-up is left out.
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from vesseltrees.cli import main
t1 = time.perf_counter()
code = main(sys.argv[2:])
t2 = time.perf_counter()
print(json.dumps({"code": code, "import_s": t1 - t0, "synth_s": t2 - t1}))
"""


def timed_setup(argv) -> dict:
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC, *argv],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    lines = proc.stdout.strip().splitlines()
    timing = json.loads(lines[-1]) if proc.returncode == 0 and lines \
        else {"code": proc.returncode}
    if timing["code"] != 0:
        raise StepFailed(f"set-up synth exited {timing['code']}: "
                         f"{proc.stderr.strip()}")
    return timing


# ---------------------------------------------------------------------------
# running the flow
# ---------------------------------------------------------------------------

class StepFailed(Exception):
    pass


def cli_step(argv) -> tuple[float, float]:
    """Run one CLI command in-process; returns (wall s, cpu s)."""
    from vesseltrees.cli import main

    sink = io.StringIO()
    cpu0, t0 = os.times(), time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(list(argv))
    wall, cpu1 = time.perf_counter() - t0, os.times()
    if code != 0:
        raise StepFailed(f"vesseltrees {' '.join(argv[:1])} exited {code}: "
                         f"{sink.getvalue().strip()}")
    return wall, (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)


def synth_args(wl: Workload, scale: Scale, out_dir: str, seed: int,
               domain: float):
    return ["synth", "--out", out_dir, "--seed", str(seed),
            "--n-trees", str(scale.n_trees), "--n-leaves", str(scale.n_leaves),
            "--domain-size", repr(domain), *wl.sweep, *COMMON_SYNTH]


def sized_domain(wl: Workload, scale: Scale, seed: int, work: str) -> float:
    """Domain edge that gives the seed's trees ``scale.length`` in total.

    Tree growth draws every point uniformly in the domain, so a tree grown
    from the same seed in a domain c times larger is the same shape c
    times longer. A probe corpus at the nominal domain gives the length.
    """
    from vesseltrees import io as vio

    probe = os.path.join(work, "probe")
    cli_step(synth_args(wl, scale, probe, seed, scale.domain))
    manifest = vio.read_json(os.path.join(probe, "manifest.json"))
    length = sum(vio.read_tree(os.path.join(probe, item["tree"]))
                 .total_length() for item in manifest["items"])
    shutil.rmtree(probe)
    return scale.domain * scale.length / length


def run_pass(wl: Workload, corpus: str, pass_dir: str,
             tracer: Tracer | None = None) -> dict:
    """reconstruct + evaluate for every run of the workload, timed."""
    times = {"reconstruct": 0.0, "evaluate": 0.0, "cpu": 0.0}
    for label, flags in wl.runs:
        recon = os.path.join(pass_dir, label, "recon")
        steps = (
            ("reconstruct", ["reconstruct", "--corpus", corpus, "--out",
                             recon, "--jobs", "1", *flags]),
            ("evaluate", ["evaluate", "--corpus", corpus, "--recon", recon,
                          "--out", os.path.join(pass_dir, label, "eval"),
                          "--jobs", "1"]),
        )
        for step, argv in steps:
            span = (tracer.span(f"{label}.{step}", "pipeline", step=step)
                    if tracer else contextlib.nullcontext())
            with span:
                wall, cpu = cli_step(argv)
            times[step] += wall
            times["cpu"] += cpu
    return times


# ---------------------------------------------------------------------------
# output checks, fingerprint, quality numbers
# ---------------------------------------------------------------------------

def _canonical_stats(path) -> bytes:
    """Stats JSON without its timings, which differ between runs."""
    with open(path) as fh:
        stats = json.load(fh)
    kept = {k: v for k, v in stats.items()
            if not (k.endswith("_s") or "time" in k)}
    return json.dumps(kept, sort_keys=True).encode()


def fingerprint(wl: Workload, pass_dir: str) -> str:
    """SHA-256 over tree files, stats without timings and evaluation CSVs."""
    digest = hashlib.sha256()
    for label, _ in wl.runs:
        groups = (("recon/trees", ".txt"), ("recon/stats", ".json"),
                  ("eval", ".csv"))
        for sub, ext in groups:
            folder = os.path.join(pass_dir, label, sub)
            names = sorted(os.listdir(folder)) if os.path.isdir(folder) \
                else []
            for name in names:
                if not name.endswith(ext):
                    continue
                path = os.path.join(folder, name)
                if ext == ".json":
                    data = _canonical_stats(path)
                else:
                    with open(path, "rb") as fh:
                        data = fh.read()
                digest.update(f"{label}/{sub}/{name}\0{len(data)}\0"
                              .encode())
                digest.update(data)
    return digest.hexdigest()


def _mean_column(header, rows, column):
    j = header.index(column)
    return statistics.fmean(float(r[j]) for r in rows)


def check_outputs(wl: Workload, corpus: str, pass_dir: str) -> dict:
    """Check every output of one pass; count the clouds that fail.

    * each tree file reads back with its cloud and passes
      ``VesselTree.validate()``;
    * each stats ``total_weight`` equals the sum of its tree's edge weights;
    * each evaluation writes one ``aggregate.csv`` row per level, one
      ``per_tree.csv`` row per cloud and, with neighbour dumps, one
      ``connectivity.csv`` row per cloud.
    """
    from vesseltrees import io as vio
    from vesseltrees.pipeline import recon_name

    manifest = vio.read_json(os.path.join(corpus, "manifest.json"))
    clouds = [(item["id"], c["level"], c["path"])
              for item in manifest["items"] for c in item["clouds"]]
    n_levels = len(manifest["levels"])
    problems, failed = [], set()
    validate_s = 0.0
    totals = {"total_weight": 0.0, "excluded": 0, "samples": 0}
    quality = {}
    for label, flags in wl.runs:
        run_dir = os.path.join(pass_dir, label)
        for item_id, level, cloud_path in clouds:
            key = (label, item_id, level)
            name = recon_name(item_id, level)
            try:
                cloud = vio.read_point_cloud(os.path.join(corpus, cloud_path))
                tree = vio.read_tree(
                    os.path.join(run_dir, "recon", "trees", name + ".txt"),
                    cloud=cloud)
                t0 = time.perf_counter()
                tree.validate()
                validate_s += time.perf_counter() - t0
                stats = vio.read_json(
                    os.path.join(run_dir, "recon", "stats", name + ".json"))
            except (OSError, ValueError) as exc:
                problems.append(f"{label}/{name}: {exc}")
                failed.add(key)
                continue
            if not math.isclose(stats["total_weight"], tree.total_weight,
                                rel_tol=1e-12, abs_tol=1e-9):
                problems.append(
                    f"{label}/{name}: stats total_weight "
                    f"{stats['total_weight']!r} != edge sum "
                    f"{tree.total_weight!r}")
                failed.add(key)
            totals["total_weight"] += stats["total_weight"]
            totals["excluded"] += stats["n_excluded"]
            totals["samples"] += stats["n_samples"]

        eval_dir = os.path.join(run_dir, "eval")
        expected = [("aggregate.csv", n_levels), ("per_tree.csv",
                                                  len(clouds))]
        if "--dump-neighbors" in flags:
            expected.append(("connectivity.csv", len(clouds)))
        tables = {}
        for csv_name, n_rows in expected:
            try:
                tables[csv_name] = vio.read_csv(
                    os.path.join(eval_dir, csv_name))
            except OSError as exc:
                problems.append(f"{label}/{csv_name}: {exc}")
                continue
            if len(tables[csv_name][1]) != n_rows:
                problems.append(f"{label}/{csv_name}: "
                                f"{len(tables[csv_name][1])} rows, "
                                f"expected {n_rows}")
                del tables[csv_name]
        if len(tables) != len(expected):
            failed.update((label, i, lv) for i, lv, _ in clouds)
            continue
        prefix = "" if label == wl.runs[0][0] else f"{label}."
        header, rows = tables["aggregate.csv"]
        for metric in ("centerline_recall", "centerline_fallout",
                       "bifurcation_recall", "bifurcation_fallout"):
            quality[prefix + metric] = _mean_column(header, rows,
                                                    "mean_" + metric)
        quality[prefix + "angular_error_deg"] = _mean_column(
            header, rows, "pooled_median_angular_error_deg")
        if "connectivity.csv" in tables:
            header, rows = tables["connectivity.csv"]
            quality[prefix + "connectivity_recall"] = _mean_column(
                header, rows, "recall")
            quality[prefix + "connectivity_fallout"] = _mean_column(
                header, rows, "fallout")

    attempted = len(clouds) * len(wl.runs)
    quality["total_weight"] = totals["total_weight"]
    quality["tree_frac"] = 1.0 - totals["excluded"] / max(totals["samples"],
                                                          1)
    return {"attempted": attempted, "failed": len(failed),
            "problems": problems, "quality": quality,
            "validate_s": validate_s}


class WarningLog:
    """Collects every warning; sorts the expected k clamp from the rest."""

    def __init__(self, records):
        self.records = records

    def mark(self) -> int:
        return len(self.records)

    def clamps(self, since: int = 0) -> int:
        return sum(1 for w in self.records[since:] if self._is_clamp(w))

    def unexpected(self) -> list[str]:
        return [f"{w.category.__name__}: {w.message}"
                for w in self.records if not self._is_clamp(w)]

    @staticmethod
    def _is_clamp(w) -> bool:
        return (w.category is UserWarning
                and CLAMP_WARNING.match(str(w.message)) is not None)


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

def layer_floors(tracer: Tracer) -> dict:
    """Time each layer's floor on the inputs the traced pass captured."""
    import numpy as np
    from scipy.spatial import cKDTree
    from vesseltrees.geometry import (COINCIDENT_TOL, batch_arc_geometry,
                                      batch_arc_weights,
                                      batch_confluence_angles)
    from vesseltrees.metrics import resample_tree

    out = {"knn_floor_s": 0.0, "arc_kernel_s": 0.0, "arcs_fitted": 0,
           "arc_kernel_bytes": 0, "arborescence_floor_s": 0.0,
           "resample_tree_s": 0.0, "resampled_points": 0}
    for cloud, k in tracer.captured["knn"]:
        t0 = time.perf_counter()
        cKDTree(cloud.positions).query(cloud.positions, k=k + 1, workers=-1)
        out["knn_floor_s"] += time.perf_counter() - t0

    for cloud, pairs, epsilon, elastic_lambda in tracer.captured["confluent"]:
        pos, tan = cloud.positions, cloud.tangents
        u, v = pairs[:, 0], pairs[:, 1]
        ok = np.linalg.norm(pos[v] - pos[u], axis=1) > COINCIDENT_TOL
        a = np.concatenate([u[ok], v[ok]])
        b = np.concatenate([v[ok], u[ok]])
        inputs = (pos[a], tan[a], pos[b], tan[b])
        t0 = time.perf_counter()
        d, alpha, length, end_tan = batch_arc_geometry(*inputs[:3])
        conf = batch_confluence_angles(end_tan, inputs[3])
        w = batch_arc_weights(alpha, length, conf, epsilon, elastic_lambda)
        out["arc_kernel_s"] += time.perf_counter() - t0
        out["arcs_fitted"] += int(a.size)
        out["arc_kernel_bytes"] += sum(
            x.nbytes for x in (*inputs, d, alpha, length, end_tan, conf, w))
        del inputs, d, alpha, length, end_tan, conf, w

    for weights in tracer.captured["arc_weights"]:
        t0 = time.perf_counter()
        np.argsort(weights, kind="stable")
        out["arborescence_floor_s"] += time.perf_counter() - t0

    for gt, recon, step in tracer.captured["resample"]:
        t0 = time.perf_counter()
        gt_pts, _ = resample_tree(gt, step)
        rec_pts, _ = resample_tree(recon, step)
        out["resample_tree_s"] += time.perf_counter() - t0
        out["resampled_points"] += int(gt_pts.shape[0] + rec_pts.shape[0])
    return out


def _ratio(num, den):
    return num / den if den > 0 else math.nan


def layer_metrics(tracer: Tracer, traced: dict, overhead_s: float,
                  floors: dict, clamps: int, validate_s: float) -> dict:
    """Per-layer numbers as {name: (value, unit)}."""
    own = tracer.self_times()
    timed = ("reconstruct", "evaluate")

    def self_s(layer, steps=timed):
        return sum(own[sp.sid] for sp in tracer.select(layer=layer)
                   if sp.step in steps)

    def spans(name, top_io=False):
        return [sp for sp in tracer.select(name=name, top_io=top_io)
                if sp.step in timed]

    def total(name, top_io=False):
        return sum(sp.duration for sp in spans(name, top_io))

    def info(name, key):
        return sum(sp.info[key] for sp in spans(name))

    recon_s, eval_s = traced["reconstruct"], traced["evaluate"]
    m = {}
    m["trace.overhead_s"] = (overhead_s, "s")

    knn_s = total("knn_neighbors")
    conf_pairs = info("build_confluent_graph", "pairs")
    arcs = info("build_confluent_graph", "arcs")
    m["graphs.knn_s"] = (knn_s, "s")
    m["graphs.knn_floor_s"] = (floors["knn_floor_s"], "s")
    m["graphs.knn_over_floor"] = (_ratio(knn_s, floors["knn_floor_s"]),
                                  "ratio")
    m["graphs.knn_share"] = (_ratio(knn_s, recon_s), "ratio")
    m["graphs.pairs"] = (info("knn_neighbors", "pairs"), "count")
    m["graphs.confluent_s"] = (total("build_confluent_graph"), "s")
    m["graphs.arcs"] = (arcs, "count")
    m["graphs.arc_keep_ratio"] = (_ratio(arcs, 2 * conf_pairs), "ratio")
    m["graphs.geodesic_s"] = (total("build_geodesic_graph"), "s")
    m["graphs.k_clamp_warnings"] = (clamps, "count")
    m["graphs.k_clamped"] = (info("reconstruct_cloud", "k_clamped"), "count")
    m["graphs.self_s"] = (self_s("graphs"), "s")

    m["geometry.arc_kernel_s"] = (floors["arc_kernel_s"], "s")
    m["geometry.arcs_fitted"] = (floors["arcs_fitted"], "count")
    m["geometry.arc_kernel_bytes"] = (floors["arc_kernel_bytes"],
                                      "bytes_computed")

    arb_s = total("minimum_arborescence")
    mst_s = total("minimum_spanning_tree")
    solved = spans("minimum_arborescence") + spans("minimum_spanning_tree")
    m["solvers.arborescence_s"] = (arb_s, "s")
    m["solvers.arborescence_floor_s"] = (floors["arborescence_floor_s"], "s")
    m["solvers.arborescence_over_floor"] = (
        _ratio(arb_s, floors["arborescence_floor_s"]), "ratio")
    m["solvers.mst_s"] = (mst_s, "s")
    m["solvers.share"] = (_ratio(arb_s + mst_s, recon_s + eval_s), "ratio")
    m["solvers.tree_nodes"] = (sum(sp.info["tree_nodes"] for sp in solved),
                               "count")
    m["solvers.excluded"] = (sum(sp.info["excluded"] for sp in solved),
                             "count")
    m["solvers.validate_s"] = (validate_s, "s")
    m["solvers.self_s"] = (self_s("solvers"), "s")

    roc_s = total("roc_sweep")
    m["metrics.roc_sweep_s"] = (roc_s, "s")
    m["metrics.roc_sweep_share"] = (_ratio(roc_s, eval_s), "ratio")
    for name in ("centerline_roc", "bifurcation_roc", "angular_errors",
                 "connectivity_roc"):
        m[f"metrics.{name}_s"] = (total(name), "s")
    m["metrics.connectivity_pairs"] = (info("connectivity_roc", "pairs"),
                                       "count")
    m["metrics.resample_tree_s"] = (floors["resample_tree_s"], "s")
    m["metrics.resampled_points"] = (floors["resampled_points"], "count")
    m["metrics.self_s"] = (self_s("metrics"), "s")

    for name in ("read_point_cloud", "write_tree", "read_tree",
                 "write_neighbor_pairs", "read_neighbor_pairs", "write_csv"):
        m[f"io.{name}_s"] = (total(name, top_io=True), "s")
    io_spans = [sp for sp in tracer.select(layer="io", top_io=True)
                if sp.step in timed]
    written = [sp for sp in io_spans if sp.name not in IO_READS]
    m["io.bytes_written"] = (sum(os.path.getsize(sp.info["path"])
                                 for sp in written), "bytes")
    m["io.bytes_read"] = (sum(os.path.getsize(sp.info["path"])
                              for sp in io_spans if sp.name in IO_READS),
                          "bytes")
    m["io.files_written"] = (len(written), "count")
    m["io.self_s"] = (self_s("io"), "s")

    for name in ("generate_tree", "sample_centerline"):
        m[f"synth.{name}_s"] = (sum(
            sp.duration for sp in tracer.select(name=name, step="synth")),
            "s")
    m["synth.samples"] = (sum(sp.info["samples"] for sp in tracer.select(
        name="sample_centerline", step="synth")), "count")
    m["synth.self_s"] = (self_s("synth", ("synth",)), "s")

    per_cloud = [sp.duration for sp in spans("reconstruct_cloud")]
    m["pipeline.reconstruct_cloud_p50_s"] = (statistics.median(per_cloud),
                                             "s")
    m["pipeline.reconstruct_cloud_max_s"] = (max(per_cloud), "s")
    m["pipeline.reconstruct_self_s"] = (self_s("pipeline", ("reconstruct",)),
                                        "s")
    m["pipeline.evaluate_self_s"] = (self_s("pipeline", ("evaluate",)), "s")
    m["pipeline.clouds"] = (len(per_cloud), "count")
    m["pipeline.cpu_s"] = (traced["cpu"], "s")
    return m


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def warm_up(wl: Workload, seed: int, work: str):
    """One untimed pass over a tiny corpus, to pay first-call costs."""
    corpus = os.path.join(work, "warm-corpus")
    cli_step(synth_args(wl, wl.tiny, corpus, seed, wl.tiny.domain))
    run_pass(wl, corpus, os.path.join(work, "warm-pass"))
    shutil.rmtree(corpus)
    shutil.rmtree(os.path.join(work, "warm-pass"))


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            tiny: bool, work: str, log: WarningLog) -> dict:
    """Set up, warm up, then run passes until ``seconds`` is used up.

    Traced runs alternate untraced and traced passes, at least two of
    each, so the tracing overhead is a median over untraced-traced pairs.
    Per-layer numbers come from the first traced pass.
    """
    from vesseltrees import pipeline

    scale = wl.tiny if tiny else wl.full
    domain = sized_domain(wl, scale, seed, work)
    corpus = os.path.join(work, "corpus")
    tracer = Tracer() if trace else None
    setups = []
    if trace:
        tracer.install(pipeline)
        try:
            with tracer.span("synth", "pipeline", step="synth"):
                cli_step(synth_args(wl, scale, corpus, seed, domain))
        finally:
            tracer.restore()
    else:
        for i in range(SETUP_REPEATS):
            target = os.path.join(work, f"corpus-{i}")
            setups.append(timed_setup(
                synth_args(wl, scale, target, seed, domain)))
            if os.path.isdir(corpus):
                shutil.rmtree(corpus)
            os.replace(target, corpus)
    warm_up(wl, seed, work)

    passes, fingerprints = [], []
    keep = {os.path.join(work, "pass-0")}
    min_passes = 4 if trace else 2
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pass_dir = os.path.join(work, f"pass-{len(passes)}")
        pass_tracer = None
        if trace and len(passes) % 2 == 1:
            pass_tracer = tracer if len(passes) == 1 else Tracer()
            mark = log.mark()
            pass_tracer.install(pipeline)
        try:
            times = run_pass(wl, corpus, pass_dir, pass_tracer)
        finally:
            if pass_tracer:
                pass_tracer.restore()
        if pass_tracer is not None and pass_tracer is tracer:
            clamps = log.clamps(mark)
            keep.add(pass_dir)
        passes.append(times)
        fingerprints.append(fingerprint(wl, pass_dir))
        if pass_dir not in keep:
            shutil.rmtree(pass_dir)
        cycle = time.perf_counter() - t0
        # traced runs stop only after a traced pass, so every pair is whole
        if (len(passes) >= min_passes and len(passes) % (1 + trace) == 0
                and time.perf_counter() - started + cycle * (1 + trace)
                > seconds):
            break
    result = {"setups": setups,
              "domain_size": domain, "passes": passes,
              "fingerprints": fingerprints,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    # identical bytes give identical check results, so checking the first
    # pass checks every pass whose fingerprint matches it
    result["check"] = check_outputs(wl, corpus, os.path.join(work, "pass-0"))
    if trace:
        totals = [p["reconstruct"] + p["evaluate"] for p in passes]
        overhead_s = statistics.median(
            traced - untraced
            for untraced, traced in zip(totals[0::2], totals[1::2]))
        result["layers"] = layer_metrics(
            tracer, passes[1], overhead_s, layer_floors(tracer), clamps,
            result["check"]["validate_s"])
        result["spans"] = tracer.to_json()
    result["clamp_warnings"] = log.clamps()
    return result


def summarise(res: dict, trace: bool) -> tuple[dict, dict]:
    """(all metrics as {name: (value, unit)}, extra report fields)."""
    check = res["check"]
    fingerprints = res["fingerprints"]
    per_pass = check["attempted"]
    attempted = per_pass * len(fingerprints)
    mismatched = sum(fp != fingerprints[0] for fp in fingerprints)
    failed = check["failed"] * (len(fingerprints) - mismatched) \
        + per_pass * mismatched
    if trace:
        metrics = dict(res["layers"])
    else:
        passes = res["passes"]
        timings = {
            "setup_s": statistics.median(
                t["import_s"] + t["synth_s"] for t in res["setups"]),
            "reconstruct_s": statistics.median(
                p["reconstruct"] for p in passes),
            "evaluate_s": statistics.median(p["evaluate"] for p in passes),
            "peak_rss_mb": res["peak_rss_mb"],
            "failed_frac": failed / attempted,
        }
        metrics = {name: (value, E2E_UNITS[name.split(".")[-1]])
                   for name, value in {**timings,
                                       **check["quality"]}.items()}
    extra = {"attempted": attempted, "failed": failed,
             "n_passes": len(fingerprints), "fingerprint": fingerprints[0],
             "mismatched_passes": mismatched,
             "clamp_warnings": res["clamp_warnings"],
             "problems": check["problems"]}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget; at least two passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (see test_smoke.py)")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)

    try:
        declared_e2e, declared_layer = load_declared()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    try:
        import_vesseltrees()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            log = WarningLog(records)
            try:
                res = measure(wl, args.seed, args.seconds, trace, args.tiny,
                              work, log)
            except StepFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                print(json.dumps({"correct": False, "attempted": 1,
                                  "failed": 1, "metrics": {}}))
                return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, extra = summarise(res, trace)
    unexpected = log.unexpected()
    declared = declared_layer if trace else declared_e2e
    missing = [name for name in declared if name not in metrics]
    correct = (extra["failed"] == 0 and not unexpected and not missing)

    suffix = "-tiny" if args.tiny else ""
    report = {"workload": args.workload, "seed": args.seed,
              "trace": int(trace), "correct": correct, **extra,
              "unexpected_warnings": unexpected, "missing": missing,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "passes": res["passes"], "setups": res["setups"],
              "domain_size": res["domain_size"]}
    if trace:
        report["spans"] = res["spans"]
    report_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{int(trace)}{suffix}"
             ".json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} "
          f"{'traced' if trace else 'timed'}: {extra['n_passes']} passes, "
          f"fingerprint {extra['fingerprint']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value!r:>24} {unit}")
    for problem in extra["problems"] + unexpected + missing:
        print(f"  FAILED: {problem}")
    print(f"  report: {os.path.relpath(report_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]}
                    for name in declared if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
