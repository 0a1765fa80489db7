"""Corpus orchestration: synthesis, reconstruction, evaluation, comparison.

A corpus directory holds ground-truth trees plus sampled point clouds at
one or more corruption levels (the ROC "threshold" axis; the imaging-stack
detection threshold has no analog here, so corruption strength stands in
for it) and a ``manifest.json`` tying them together. A reconstruction run
mirrors the corpus item-by-item; evaluation joins the two and writes CSV
reports. Every step is deterministic given the manifest seeds.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, replace
from multiprocessing import Pool

import numpy as np

from . import io as vio
from .graphs import anisotropic_knn, build_confluent_graph, \
    build_geodesic_graph, knn_neighbors
from .metrics import (
    DEFAULT_STEP,
    DEFAULT_ZETA,
    MatchTolerance,
    angular_errors,
    bifurcation_roc,
    centerline_roc,
    connectivity_roc,
    median_angular_error,
    roc_sweep,
)
from .solvers import minimum_arborescence, minimum_spanning_tree
from .synth import SamplerConfig, generate_tree, sample_centerline

SWEEP_PARAMS = {
    "tangent-noise": "tangent_noise_std_rad",
    "position-noise": "position_noise_std",
    "dropout": "dropout_prob",
    "flip": "orientation_flip_prob",
}
DEFAULT_TOL_SCALES = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)


@dataclass
class PipelineConfig:
    """Reconstruction and evaluation knobs."""

    mode: str = "confluent"            # confluent | geodesic
    k: int = 500
    anisotropic: bool = False
    k_final: int = 4
    aspect_ratio_sq: float = 10.0
    epsilon: float = math.pi / 2
    elastic_lambda: float = 0.0
    root_index: int | None = None
    root_at: tuple | None = None
    resample_step: float = DEFAULT_STEP
    zeta: float = DEFAULT_ZETA
    use_radius: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("confluent", "geodesic"):
            raise ValueError(f"mode must be confluent or geodesic, "
                             f"got {self.mode!r}")
        if not 0.0 < self.epsilon <= math.pi:
            raise ValueError(f"epsilon must be in (0, pi], got {self.epsilon}")
        if self.elastic_lambda < 0:
            raise ValueError("elastic_lambda must be >= 0")
        if self.resample_step <= 0 or self.zeta <= 0:
            raise ValueError("resample_step and zeta must be > 0")

    def tolerance(self) -> MatchTolerance:
        return MatchTolerance(zeta=self.zeta, uses_radius=self.use_radius)


def resolve_root(cloud, root_index=None, root_at=None) -> int:
    """Pick the root sample: explicit index, else nearest to coordinates."""
    if root_index is not None:
        if not 0 <= root_index < len(cloud):
            raise ValueError(f"root index {root_index} out of range "
                             f"[0, {len(cloud)})")
        return int(root_index)
    if root_at is None:
        raise ValueError("no root given: pass a root index or coordinates")
    target = np.asarray(root_at, dtype=float).reshape(3)
    return int(np.argmin(np.linalg.norm(cloud.positions - target, axis=1)))


def build_neighbors(cloud, cfg: PipelineConfig):
    if cfg.anisotropic:
        return anisotropic_knn(cloud, k_final=cfg.k_final, k_candidate=cfg.k,
                               aspect_ratio_sq=cfg.aspect_ratio_sq)
    return knn_neighbors(cloud, k=min(cfg.k, len(cloud) - 1))


def reconstruct_cloud(cloud, cfg: PipelineConfig, root: int):
    """Neighbors -> graph -> tree for one cloud; returns the run record."""
    started = time.perf_counter()
    neighbors = build_neighbors(cloud, cfg)
    built_neighbors = time.perf_counter()
    if cfg.mode == "confluent":
        graph = build_confluent_graph(cloud, neighbors, epsilon=cfg.epsilon,
                                      elastic_lambda=cfg.elastic_lambda)
        built_graph = time.perf_counter()
        tree = minimum_arborescence(graph, root)
    else:
        graph = build_geodesic_graph(cloud, neighbors)
        built_graph = time.perf_counter()
        tree = minimum_spanning_tree(graph, root)
    solved = time.perf_counter()
    stats = {
        "mode": cfg.mode,
        "root": int(root),
        "n_samples": len(cloud),
        "n_neighbor_pairs": int(neighbors.n_pairs),
        "n_arcs": int(graph.n_arcs),
        "n_tree_nodes": int(tree.n_nodes),
        "n_excluded": int(tree.excluded.size),
        "total_weight": float(tree.total_weight),
        "neighbors_s": built_neighbors - started,
        "graph_s": built_graph - built_neighbors,
        "solve_s": solved - built_graph,
        "wall_time_s": solved - started,
    }
    return tree, stats, neighbors


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _synth_item(args):
    (out_dir, item_id, n_leaves, domain_size, relocate, tree_seed,
     levels) = args
    tree = generate_tree(n_leaves=n_leaves, domain_size=domain_size,
                         seed=tree_seed,
                         relocate_bifurcations=relocate)
    tree_path = f"trees/tree_{item_id:03d}.txt"
    vio.write_tree(os.path.join(out_dir, tree_path), tree)
    clouds = []
    for level in levels:
        cfg = SamplerConfig(**level["sampler"])
        cloud = sample_centerline(tree, cfg)
        path = f"clouds/cloud_{item_id:03d}_l{level['level']:02d}.txt"
        vio.write_point_cloud(os.path.join(out_dir, path), cloud)
        clouds.append({"level": level["level"], "path": path,
                       "seed": cfg.seed, "n_samples": len(cloud)})
    return {
        "id": item_id,
        "tree": tree_path,
        "tree_seed": tree_seed,
        "root_position": [float(c) for c in tree.positions[tree.root]],
        "n_bifurcations": int(tree.bifurcations.size),
        "clouds": clouds,
    }


def synth_corpus(out_dir, *, n_trees: int = 15, n_leaves: int = 8,
                 domain_size: float = 100.0, seed: int = 0,
                 relocate: bool = True,
                 sampler: SamplerConfig | None = None,
                 sweep_param: str | None = None, sweep_values=None,
                 jobs: int = 1) -> dict:
    """Generate a ground-truth corpus with sampled clouds; returns manifest."""
    sampler = sampler or SamplerConfig()
    if sweep_param is not None:
        field = SWEEP_PARAMS.get(sweep_param)
        if field is None:
            raise ValueError(f"unknown sweep parameter {sweep_param!r}; "
                             f"choose from {sorted(SWEEP_PARAMS)}")
        values = [float(v) for v in sweep_values]
        if not values:
            raise ValueError("sweep requested but no values given")
        level_specs = [(i, v, {field: v}) for i, v in enumerate(values)]
    else:
        level_specs = [(0, 0.0, {})]

    tasks = []
    for item_id in range(n_trees):
        tree_seed = seed * 1_000_000 + item_id
        levels = []
        for idx, threshold, override in level_specs:
            cloud_seed = seed * 1_000_000 + item_id * 1000 + idx + 1
            cfg = replace(sampler, seed=cloud_seed, **override)
            levels.append({"level": idx, "threshold": threshold,
                           "sampler": asdict(cfg)})
        tasks.append((out_dir, item_id, n_leaves, domain_size, relocate,
                      tree_seed, levels))

    if jobs > 1:
        with Pool(jobs) as pool:
            items = pool.map(_synth_item, tasks)
    else:
        items = [_synth_item(t) for t in tasks]

    manifest = {
        "kind": "vesseltrees-corpus",
        "seed": seed,
        "n_trees": n_trees,
        "n_leaves": n_leaves,
        "domain_size": domain_size,
        "relocate_bifurcations": relocate,
        "levels": [{"level": i, "threshold": t,
                    "overrides": o} for i, t, o in level_specs],
        "base_sampler": asdict(sampler),
        "items": sorted(items, key=lambda it: it["id"]),
    }
    vio.write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def recon_name(item_id: int, level: int) -> str:
    return f"recon_{item_id:03d}_l{level:02d}"


def _reconstruct_item(args):
    corpus_dir, out_dir, cfg_dict, item, dump_neighbors = args
    cfg = PipelineConfig(**cfg_dict)
    results = []
    for cloud_entry in item["clouds"]:
        cloud = vio.read_point_cloud(
            os.path.join(corpus_dir, cloud_entry["path"]))
        root = resolve_root(
            cloud, cfg.root_index,
            cfg.root_at if cfg.root_at is not None
            else item["root_position"])
        tree, stats, neighbors = reconstruct_cloud(cloud, cfg, root)
        name = recon_name(item["id"], cloud_entry["level"])
        vio.write_tree(os.path.join(out_dir, "trees", name + ".txt"), tree)
        vio.write_json(os.path.join(out_dir, "stats", name + ".json"), stats)
        if dump_neighbors:
            vio.write_neighbor_pairs(
                os.path.join(out_dir, "neighbors", name + ".csv"), neighbors)
        results.append((item["id"], cloud_entry["level"], stats))
    return results


def reconstruct_corpus(corpus_dir, out_dir, cfg: PipelineConfig,
                       jobs: int = 1, dump_neighbors: bool = False):
    manifest = vio.read_json(os.path.join(corpus_dir, "manifest.json"))
    tasks = [(corpus_dir, out_dir, asdict(cfg), item, dump_neighbors)
             for item in manifest["items"]]
    if jobs > 1:
        with Pool(jobs) as pool:
            nested = pool.map(_reconstruct_item, tasks)
    else:
        nested = [_reconstruct_item(t) for t in tasks]
    try:
        corpus_ref = os.path.relpath(corpus_dir, out_dir)
    except ValueError:
        corpus_ref = os.path.abspath(corpus_dir)
    run = {
        "kind": "vesseltrees-run",
        "corpus": corpus_ref,
        "config": asdict(cfg),
        "dump_neighbors": dump_neighbors,
    }
    vio.write_json(os.path.join(out_dir, "run.json"), run)
    return [r for group in nested for r in group]


def reconstruct_single(cloud_path, out_path, cfg: PipelineConfig):
    cloud = vio.read_point_cloud(cloud_path)
    root = resolve_root(cloud, cfg.root_index, cfg.root_at)
    tree, stats, _ = reconstruct_cloud(cloud, cfg, root)
    vio.write_tree(out_path, tree)
    vio.write_json(os.path.splitext(out_path)[0] + "_stats.json", stats)
    return stats


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _evaluate_item(args):
    (corpus_dir, recon_dir, item, levels, tol_dict, step, scales) = args
    tol = MatchTolerance(**tol_dict)
    gt = vio.read_tree(os.path.join(corpus_dir, item["tree"]))
    rows = []
    for cloud_entry in item["clouds"]:
        level = cloud_entry["level"]
        threshold = levels[level]["threshold"]
        cloud = vio.read_point_cloud(
            os.path.join(corpus_dir, cloud_entry["path"]))
        name = recon_name(item["id"], level)
        recon_path = os.path.join(recon_dir, "trees", name + ".txt")
        recon = vio.read_tree(recon_path, cloud=cloud)
        c_recall, c_fallout = centerline_roc(gt, recon, tol, step)
        b_recall, b_fallout = bifurcation_roc(gt, recon, tol)
        # a GT tree without bifurcations has no angles to score
        errors = angular_errors(gt, recon) if gt.bifurcations.size else []
        med = _median(errors)
        curves = {
            kind: roc_sweep(gt, recon, scales, kind=kind, tol=tol, step=step)
            for kind in ("centerline", "bifurcation")
        }
        connectivity = None
        nbr_path = os.path.join(recon_dir, "neighbors", name + ".csv")
        if os.path.exists(nbr_path):
            system = vio.read_neighbor_pairs(nbr_path)
            connectivity = connectivity_roc(gt, system, cloud)
        rows.append({
            "id": item["id"], "level": level, "threshold": threshold,
            "n_samples": len(cloud),
            "n_tree_nodes": int(recon.n_nodes),
            "n_excluded": int(recon.excluded.size),
            "centerline_recall": c_recall, "centerline_fallout": c_fallout,
            "bifurcation_recall": b_recall,
            "bifurcation_fallout": b_fallout,
            "median_angular_error_rad": med,
            "angular_errors": errors,
            "curves": curves,
            "connectivity": connectivity,
        })
    return rows


def _median(values) -> float:
    """Median, or NaN for no values (where np.median would warn)."""
    return float(np.median(values)) if len(values) else math.nan


def _nanmean(values) -> float:
    """Mean of the non-NaN values, or NaN if there are none, quietly."""
    values = np.asarray(values, dtype=float)
    return float(np.nanmean(values)) if np.any(~np.isnan(values)) \
        else math.nan


def evaluate_corpus(corpus_dir, recon_dir, out_dir, *,
                    step: float = DEFAULT_STEP,
                    tol: MatchTolerance | None = None,
                    tol_scales=DEFAULT_TOL_SCALES, jobs: int = 1):
    """Join a corpus with a reconstruction run and write CSV reports."""
    tol = tol or MatchTolerance()
    manifest = vio.read_json(os.path.join(corpus_dir, "manifest.json"))
    levels = {lv["level"]: lv for lv in manifest["levels"]}

    missing = []
    for item in manifest["items"]:
        for cloud_entry in item["clouds"]:
            name = recon_name(item["id"], cloud_entry["level"])
            path = os.path.join(recon_dir, "trees", name + ".txt")
            if not os.path.exists(path):
                missing.append(name)
    if missing:
        raise FileNotFoundError(
            "reconstruction run does not match the corpus; missing: "
            + ", ".join(missing))

    tasks = [(corpus_dir, recon_dir, item, levels,
              {"zeta": tol.zeta, "uses_radius": tol.uses_radius}, step,
              tuple(tol_scales)) for item in manifest["items"]]
    if jobs > 1:
        with Pool(jobs) as pool:
            nested = pool.map(_evaluate_item, tasks)
    else:
        nested = [_evaluate_item(t) for t in tasks]
    rows = sorted((r for group in nested for r in group),
                  key=lambda r: (r["level"], r["id"]))

    per_tree_header = [
        "tree_id", "level", "threshold", "n_samples", "n_tree_nodes",
        "n_excluded", "centerline_recall", "centerline_fallout",
        "bifurcation_recall", "bifurcation_fallout",
        "median_angular_error_rad", "median_angular_error_deg",
    ]
    per_tree_rows = [
        (r["id"], r["level"], float(r["threshold"]), r["n_samples"],
         r["n_tree_nodes"], r["n_excluded"], float(r["centerline_recall"]),
         float(r["centerline_fallout"]), float(r["bifurcation_recall"]),
         float(r["bifurcation_fallout"]),
         float(r["median_angular_error_rad"]),
         float(math.degrees(r["median_angular_error_rad"])))
        for r in rows
    ]
    vio.write_csv(os.path.join(out_dir, "per_tree.csv"), per_tree_header,
                  per_tree_rows)

    agg_header = [
        "level", "threshold", "n_trees", "mean_centerline_recall",
        "mean_centerline_fallout", "mean_bifurcation_recall",
        "mean_bifurcation_fallout", "pooled_median_angular_error_rad",
        "pooled_median_angular_error_deg",
    ]
    agg_rows = []
    roc_rows = {"centerline": [], "bifurcation": []}
    conn_rows = []
    for level in sorted(levels):
        group = [r for r in rows if r["level"] == level]
        if not group:
            continue
        pooled = [e for r in group for e in r["angular_errors"]]
        med = _median(pooled)
        agg_rows.append((
            level, float(levels[level]["threshold"]), len(group),
            float(np.mean([r["centerline_recall"] for r in group])),
            float(np.mean([r["centerline_fallout"] for r in group])),
            _nanmean([r["bifurcation_recall"] for r in group]),
            float(np.mean([r["bifurcation_fallout"] for r in group])),
            med, float(math.degrees(med))))
        for kind in ("centerline", "bifurcation"):
            for i, scale in enumerate(sorted(tol_scales)):
                recalls = [r["curves"][kind][i].recall for r in group]
                fallouts = [r["curves"][kind][i].fallout for r in group]
                roc_rows[kind].append(
                    (level, float(levels[level]["threshold"]), float(scale),
                     _nanmean(recalls), float(np.mean(fallouts))))
        with_conn = [r for r in group if r["connectivity"] is not None]
        for r in with_conn:
            conn_rows.append((r["id"], level,
                              float(levels[level]["threshold"]),
                              float(r["connectivity"][0]),
                              float(r["connectivity"][1])))
    vio.write_csv(os.path.join(out_dir, "aggregate.csv"), agg_header,
                  agg_rows)
    roc_header = ["level", "threshold", "tolerance_scale", "recall",
                  "fallout"]
    vio.write_csv(os.path.join(out_dir, "roc_centerline.csv"), roc_header,
                  roc_rows["centerline"])
    vio.write_csv(os.path.join(out_dir, "roc_bifurcation.csv"), roc_header,
                  roc_rows["bifurcation"])
    if conn_rows:
        vio.write_csv(os.path.join(out_dir, "connectivity.csv"),
                      ["tree_id", "level", "threshold", "recall", "fallout"],
                      conn_rows)
    return rows


# ---------------------------------------------------------------------------
# graph-dump and compare
# ---------------------------------------------------------------------------

def graph_dump(cloud_path, out_path, cfg: PipelineConfig,
               what: str = "arcs"):
    """Write the neighbor pairs or the weighted arc list of one cloud."""
    cloud = vio.read_point_cloud(cloud_path)
    neighbors = build_neighbors(cloud, cfg)
    if what == "neighbors":
        vio.write_neighbor_pairs(out_path, neighbors)
        return {"n_pairs": int(neighbors.n_pairs)}
    if what != "arcs":
        raise ValueError(f"unknown dump kind {what!r}; "
                         "choose 'neighbors' or 'arcs'")
    if cfg.mode == "confluent":
        graph = build_confluent_graph(cloud, neighbors, epsilon=cfg.epsilon,
                                      elastic_lambda=cfg.elastic_lambda)
        alpha, length, _ = graph.arc_geometry(graph.tails, graph.heads)
        rows = [(int(t), int(h), float(w), float(al), float(le))
                for t, h, w, al, le in zip(graph.tails, graph.heads,
                                           graph.weights, alpha, length)]
        vio.write_csv(out_path, ["tail", "head", "weight", "alpha", "length"],
                      rows)
    else:
        graph = build_geodesic_graph(cloud, neighbors)
        rows = [(int(u), int(v), float(w))
                for u, v, w in zip(graph.tails, graph.heads, graph.weights)]
        vio.write_csv(out_path, ["u", "v", "weight"], rows)
    return {"n_arcs": int(graph.n_arcs)}


def compare_runs(eval_a_dir, eval_b_dir, out_path, label_a="a", label_b="b"):
    """Merge two evaluation outputs into one per-level comparison CSV."""
    header_a, rows_a = vio.read_csv(os.path.join(eval_a_dir, "aggregate.csv"))
    header_b, rows_b = vio.read_csv(os.path.join(eval_b_dir, "aggregate.csv"))
    if header_a != header_b:
        raise ValueError("aggregate CSV headers differ between runs")
    by_level_a = {row[0]: row for row in rows_a}
    by_level_b = {row[0]: row for row in rows_b}
    shared = sorted(set(by_level_a) & set(by_level_b), key=int)
    if not shared:
        raise ValueError("runs share no evaluation levels")
    metrics = header_a[3:]
    out_header = ["level", "metric", label_a, label_b,
                  f"delta_{label_b}_minus_{label_a}"]
    out_rows = []
    for level in shared:
        for j, name in enumerate(metrics, start=3):
            va = float(by_level_a[level][j])
            vb = float(by_level_b[level][j])
            out_rows.append((int(level), name, va, vb, vb - va))
    vio.write_csv(out_path, out_header, out_rows)
    return out_rows
