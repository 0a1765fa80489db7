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
import sys
import time
import warnings
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import groupby

import numpy as np

from . import io as vio
from .geometry import batch_arc_geometry
from .graphs import NeighborSystem, anisotropic_knn, build_confluent_graph, \
    build_geodesic_graph, knn_neighbors, merge_graphs, widen_neighbors
# bifurcation_roc, centerline_roc and median_angular_error are not called
# here, but perfbench/spans.py wraps them as globals of this module.
from .metrics import (
    DEFAULT_STEP,
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
from .trees import EXCLUDED

SWEEP_PARAMS = {
    "tangent-noise": "tangent_noise_std_rad",
    "position-noise": "position_noise_std",
    "dropout": "dropout_prob",
    "flip": "orientation_flip_prob",
}
DEFAULT_TOL_SCALES = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)
# Each ROC kind is one roc_sweep per tree and one roc_<kind>.csv.
ROC_KINDS = ("centerline", "bifurcation")
# The per-tree rates, in per_tree.csv order; _evaluate_item fills each from
# its row's values (<kind>_recall and <kind>_fallout are the kind's ROC
# point at tolerance scale 1.0), and aggregate.csv reports its level mean,
# ignoring NaN, as mean_<rate>. Only bifurcation recall can be NaN: a GT
# tree without bifurcations has none to recall.
RATES = ("centerline_recall", "centerline_fallout", "bifurcation_recall",
         "bifurcation_fallout")

# Neighbourhood size every node starts from in certified isotropic modes
# (see reconstruct_cloud).
CERTIFY_K0 = 8
# Relative slack of the certificate test P(v) <= r(v), far above the
# rounding error of either side.
CERTIFY_RTOL = 1e-9


@dataclass
class PipelineConfig:
    """Reconstruction knobs: the neighbourhood, the graph and the root."""

    mode: str = "confluent"            # confluent | geodesic
    # Isotropic kNN size: the cap on each node's neighbourhood, grown from
    # CERTIFY_K0 until the tree is proven the fixed-cap graph's tree, in
    # confluent and geodesic mode alike; the anisotropic candidate count
    # otherwise.
    k: int = 500
    anisotropic: bool = False
    k_final: int = 4
    aspect_ratio_sq: float = 10.0
    epsilon: float = math.pi / 2
    elastic_lambda: float = 0.0
    root_index: int | None = None
    root_at: tuple | None = None

    def __post_init__(self):
        if self.mode not in ("confluent", "geodesic"):
            raise ValueError(f"mode must be confluent or geodesic, "
                             f"got {self.mode!r}")
        if not 0.0 < self.epsilon <= math.pi:
            raise ValueError(f"epsilon must be in (0, pi], got {self.epsilon}")
        if not 0.0 <= self.elastic_lambda < math.inf:   # NaN fails it
            raise ValueError(f"elastic_lambda must be finite and >= 0, "
                             f"got {self.elastic_lambda}")
        if not 1.0 <= self.aspect_ratio_sq < math.inf:
            raise ValueError(f"aspect_ratio_sq must be finite and >= 1, "
                             f"got {self.aspect_ratio_sq}")


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
    if not np.all(np.isfinite(target)):
        raise ValueError(f"root_at must be finite, got {target.tolist()}")
    return int(np.argmin(np.linalg.norm(cloud.positions - target, axis=1)))


def build_neighbors(cloud, cfg: PipelineConfig):
    if cfg.anisotropic:
        return anisotropic_knn(cloud, k_final=cfg.k_final, k_candidate=cfg.k,
                               aspect_ratio_sq=cfg.aspect_ratio_sq)
    return knn_neighbors(cloud, k=min(cfg.k, len(cloud) - 1))


def _uncertified(tree, neighbors, radius=None) -> np.ndarray:
    """Mask of the nodes whose certificate fails.

    A node passes when its potential P(v) is at most ``radius``, by
    default its kNN radius d_K(v): then no arc the graph left out can
    enter it more cheaply, and no edge left out at it is as light as a
    spanning-tree edge. Both sides may be +inf: P(v) off the root's tree,
    which passes only where the radius is +inf too, because nothing at v
    was left out.
    """
    if radius is None:
        radius = neighbors.kth_distance
    return tree.potential > radius * (1.0 - CERTIFY_RTOL)


def _complete_radius(cloud, neighbors, cap) -> np.ndarray:
    """Each node's complete radius r(v): every pair of the fixed-cap system
    that ``neighbors`` leaves out at v is at least r(v) long.

    Below the cap r(v) is d_K(v), since v selected every sample closer. A
    node at the cap holds its whole cap neighbourhood, so a cap pair left
    out at it is one that its other end selects at the cap and has not yet:
    that end is below the cap. So at the cap r(v) is the larger of d_cap(v)
    and the distance to the nearest sample below the cap. Both can be
    +inf: d_cap(v) when the cap is every other sample, and the distance
    when no sample is below the cap, as a query of an empty k-d tree
    returns it.
    """
    from scipy.spatial import cKDTree

    radius = neighbors.kth_distance.copy()
    at_cap = neighbors.node_k == cap
    if at_cap.any():
        gap, _ = cKDTree(cloud.positions[~at_cap]).query(
            cloud.positions[at_cap])
        radius[at_cap] = np.maximum(radius[at_cap], gap)
    return radius


def _uncovered(tree, failing, pairs) -> np.ndarray:
    """The failing nodes of a spanning tree that a left-out edge still
    threatens.

    A left-out edge between two reached nodes is heavier than every tree
    edge once either of its ends passes (see ``solvers``), so it matters
    only between two failing nodes that the system does not pair. An
    unreached failing node always counts: an edge to it would add it to
    the tree.
    """
    reached = failing & (tree.parent != EXCLUDED)
    both = reached[pairs[:, 0]] & reached[pairs[:, 1]]
    partners = np.bincount(pairs[both].ravel(), minlength=failing.size)
    return failing & ~(reached & (partners == np.count_nonzero(reached) - 1))


def _widen_failing(cloud, neighbors, tree, failed, cap):
    """The next round's system and the pairs it adds (see
    ``widen_neighbors``): the failing nodes below the cap grow, and each
    failing node v at the cap takes every sample below the cap within P(v)
    of it to the cap.

    A node below the cap grows to at least twice its size K, and to
    K P(v) / d_K(v) if that is more, up to the cap: the size at which
    samples spread along a vessel as densely as around v now would reach
    out to P(v). P(v) is +inf at an unreached node, so it goes to the cap
    at once; one unreached at the cap takes every sample below the cap to
    it, without the ball query that would return them all. The ball's
    radius carries the certificate's slack, so it holds the nearest sample
    below the cap, which lies within r(v) < P(v) / (1 - CERTIFY_RTOL):
    every round widens some sample.
    """
    from scipy.spatial import cKDTree

    node_k = neighbors.node_k
    sizes = node_k.copy()
    below_cap = node_k[failed] < cap
    grow, at_cap = failed[below_cap], failed[~below_cap]
    k_now = node_k[grow]
    with np.errstate(divide="ignore"):   # d_K is 0 among coincident
        spread = np.ceil(k_now * tree.potential[grow]
                         / neighbors.kth_distance[grow])
    sizes[grow] = np.minimum(np.fmax(2 * k_now, spread), cap)
    if at_cap.size:
        below = np.flatnonzero(node_k < cap)
        reach = tree.potential[at_cap] / (1.0 - CERTIFY_RTOL)
        if np.isinf(reach).any():
            sizes[below] = cap
        else:
            balls = cKDTree(cloud.positions[below]).query_ball_point(
                cloud.positions[at_cap], reach)
            sizes[below[np.concatenate(balls).astype(np.int64)]] = cap
    widened = np.flatnonzero(sizes != node_k)
    return widen_neighbors(cloud, neighbors, widened, sizes[widened])


def _keeps(tree, arcs) -> bool:
    """Whether ``tree`` stays the optimum when ``arcs`` join its graph.

    Each arc must weigh more than its bound (see ``reconstruct_cloud``):
    P(head) for an arborescence, twice the larger P of its ends for a
    spanning tree. The certificate's relative slack absorbs the rounding
    of the sums that make up P(v), so an arc that only ties it, to within
    rounding, has the tree solved again.
    """
    potential = tree.potential
    bound = potential[arcs.heads]
    if arcs.mode == "geodesic":
        bound = 2.0 * np.maximum(bound, potential[arcs.tails])
    return bool(np.all(arcs.weights * (1.0 - CERTIFY_RTOL) > bound))


def _reissue(caught):
    """Issue recorded warnings again as the modules that raised them would:
    under the filters that name the module, once a location where the
    filters say so."""
    if not caught:
        return
    modules = {getattr(m, "__file__", None): m
               for m in list(sys.modules.values())}
    for w in caught:
        source = modules.get(w.filename)
        warnings.warn_explicit(
            w.message, w.category, w.filename, w.lineno,
            module=source and source.__name__,
            registry=source and vars(source).setdefault(
                "__warningregistry__", {}))


def reconstruct_cloud(cloud, cfg: PipelineConfig, root: int):
    """Neighbors -> graph -> tree for one cloud; returns the run record.

    One loop fits the mode's graph and solves it, round after round. In
    both isotropic modes every node starts at ``CERTIFY_K0`` neighbours, up
    to the cap ``k``, and each round checks every node's potential P(v)
    against its complete radius (see ``_complete_radius``): then no arc the
    round left out enters v more cheaply, and no edge left out at v is as
    light as a spanning-tree edge (a left-out edge weighs at least twice
    its chord). In geodesic mode only the failing nodes that
    ``_uncovered`` keeps count. The failing nodes widen (see
    ``_widen_failing``), and the next round fits arcs, or edges, for the
    pairs the widening added, and only for those. Once every sample is at
    the cap every radius is infinite, so the loop ends with the fixed-cap
    graph's tree at the latest. Anisotropic neighbourhoods solve the graph
    of ``build_neighbors`` once.

    A round keeps the tree of the round before when every added arc
    weighs more than the potential at its head, or in geodesic mode every
    added edge more than twice the larger potential of its ends (see
    ``_keeps``). The potentials are a feasible dual of the arborescence,
    so such an arc has a positive reduced cost and is never the least
    entering arc of a supernode that holds its head: the contractions, the
    tree and the dual stay as they were. Such an edge is heavier than
    every tree edge, so by the cycle property the spanning tree stays as
    it was (see ``solvers``). P(v) is +inf off the root's tree, so an arc
    into such a node, or an edge at one, always has the graph solved
    again. Otherwise the round releases the old tree, merges the arcs
    fitted since the last solve into its graph (see ``merge_graphs``), and
    solves the whole graph again. Either way the tree, its potentials and
    the stats are those of solving the whole graph every round.

    The loop keeps the last round's tree, graph and neighbor system (``k``
    is the cap), and issues the warnings only of the solve whose tree it
    keeps. The tree is ``certified`` when it is also the tree over all
    N(N - 1) arcs, or all pairs in geodesic mode, by the same test against
    each node's kNN radius d_K(v), which is +inf at a node that selected
    every other sample; ``uncertified_nodes`` counts the nodes that fail
    it.
    """
    n = len(cloud)
    cap = min(cfg.k, n - 1)
    certify = not cfg.anisotropic
    times = dict.fromkeys(("neighbors_s", "graph_s", "solve_s"), 0.0)
    started = clock = time.perf_counter()

    def lap(stage):
        nonlocal clock
        now = time.perf_counter()
        times[stage] += now - clock
        clock = now

    if certify:
        neighbors = replace(knn_neighbors(cloud, min(CERTIFY_K0, cap)), k=cap)
    else:
        neighbors = build_neighbors(cloud, cfg)
    lap("neighbors_s")

    def fit(system):
        if cfg.mode == "confluent":
            return build_confluent_graph(cloud, system, epsilon=cfg.epsilon,
                                         elastic_lambda=cfg.elastic_lambda)
        return build_geodesic_graph(cloud, system)

    def check(radius=None):
        failing = _uncertified(tree, neighbors, radius)
        if cfg.mode == "geodesic":
            failing = _uncovered(tree, failing, neighbors.pairs)
        return np.flatnonzero(failing)

    # unsolved: the arcs fitted since the last solve; added: this round's
    graph = tree = None
    unsolved = added = fit(neighbors)
    lap("graph_s")
    rounds, uncertified = 0, None
    while True:
        rounds += 1
        if tree is None or not _keeps(tree, added):
            tree = None   # not held while the merged graph is solved
            graph = unsolved if graph is None else merge_graphs(graph,
                                                                unsolved)
            unsolved = None
            lap("graph_s")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if cfg.mode == "confluent":
                    tree = minimum_arborescence(graph, root)
                else:
                    tree = minimum_spanning_tree(graph, root)
        if certify:
            failed = check(_complete_radius(cloud, neighbors, cap))
        lap("solve_s")
        if not certify or failed.size == 0:
            break
        neighbors, pairs = _widen_failing(cloud, neighbors, tree, failed, cap)
        lap("neighbors_s")
        added = fit(NeighborSystem(k=neighbors.k, pairs=pairs))
        unsolved = added if unsolved is None else merge_graphs(unsolved,
                                                               added)
        lap("graph_s")
    if certify:
        uncertified = check()
        lap("solve_s")
    _reissue(caught)
    stats = {
        "mode": cfg.mode,
        "root": int(root),
        "n_samples": n,
        "n_neighbor_pairs": int(neighbors.n_pairs),
        "n_arcs": int(graph.n_arcs
                      + (0 if unsolved is None else unsolved.n_arcs)),
        "n_tree_nodes": int(tree.n_nodes),
        "n_excluded": int(tree.excluded.size),
        "total_weight": float(tree.total_weight),
        "k_clamped": cfg.k > n - 1,
        "k_rounds": rounds,
        "k_max": int(neighbors.k if neighbors.node_k is None
                     else neighbors.node_k.max()),
        "certified": None if uncertified is None else uncertified.size == 0,
        "uncertified_nodes": (None if uncertified is None
                              else int(uncertified.size)),
        **times,
        "wall_time_s": clock - started,
    }
    return tree, stats, neighbors


def _load_scipy(jobs: int):
    """Import the scipy modules that reconstruction and evaluation call,
    before a pool of ``jobs`` > 1 workers forks, so that the workers
    inherit them rather than each importing them on first use."""
    if jobs > 1:
        import scipy.sparse.csgraph  # noqa: F401
        import scipy.spatial  # noqa: F401


def _map_items(fn, tasks, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, on a pool of ``jobs`` processes if more
    than one; the results come back in task order either way."""
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            return pool.map(fn, tasks)
    return [fn(t) for t in tasks]


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
        "n_bifurcations": int(tree.branching_nodes().size),
        "clouds": clouds,
    }


def synth_corpus(out_dir, *, n_trees: int = 15, n_leaves: int = 8,
                 domain_size: float = 100.0, seed: int = 0,
                 relocate: bool = True,
                 sampler: SamplerConfig | None = None,
                 sweep_param: str | None = None, sweep_values=None,
                 jobs: int = 1) -> dict:
    """Generate a ground-truth corpus with sampled clouds; returns manifest."""
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
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

    items = _map_items(_synth_item, tasks, jobs)

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


def _reconstruct_item(corpus_dir, out_dir, cfg, dump_neighbors, item):
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
    _load_scipy(jobs)
    nested = _map_items(partial(_reconstruct_item, corpus_dir, out_dir, cfg,
                                dump_neighbors), manifest["items"], jobs)
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


def reconstruct_single(cloud_path, out_path, cfg: PipelineConfig,
                       dump_neighbors: bool = False):
    """Reconstruct one cloud into ``out_path``; beside it go
    ``<stem>_stats.json`` and, with ``dump_neighbors``, the neighbour
    system the tree was solved from as ``<stem>_neighbors.csv``."""
    cloud = vio.read_point_cloud(cloud_path)
    root = resolve_root(cloud, cfg.root_index, cfg.root_at)
    tree, stats, neighbors = reconstruct_cloud(cloud, cfg, root)
    stem = os.path.splitext(out_path)[0]
    vio.write_tree(out_path, tree)
    vio.write_json(stem + "_stats.json", stats)
    if dump_neighbors:
        vio.write_neighbor_pairs(stem + "_neighbors.csv", neighbors)
    return stats


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _evaluate_item(corpus_dir, recon_dir, levels, tol, step, scales, item):
    gt = vio.read_tree(os.path.join(corpus_dir, item["tree"]))
    rows = []
    for cloud_entry in item["clouds"]:
        level = cloud_entry["level"]
        cloud = vio.read_point_cloud(
            os.path.join(corpus_dir, cloud_entry["path"]))
        name = recon_name(item["id"], level)
        recon = vio.read_tree(os.path.join(recon_dir, "trees", name + ".txt"),
                              cloud=cloud)
        # One sweep per kind gives the curve and, at scale 1.0
        # (tol.scaled(1.0) is tol), the kind's per-tree rates.
        curves, rates = {}, {}
        for kind in ROC_KINDS:
            at = {p.threshold: p for p in roc_sweep(
                gt, recon, {*scales, 1.0}, kind=kind, tol=tol, step=step)}
            curves[kind] = [at[s] for s in sorted(scales)]
            rates[f"{kind}_recall"] = at[1.0].recall
            rates[f"{kind}_fallout"] = at[1.0].fallout
        # a GT tree without bifurcations has no angles to score
        errors = angular_errors(gt, recon) if gt.branching_nodes().size else []
        connectivity = None
        nbr_path = os.path.join(recon_dir, "neighbors", name + ".csv")
        if os.path.exists(nbr_path):
            system = vio.read_neighbor_pairs(nbr_path, cloud=cloud)
            connectivity = connectivity_roc(gt, system, cloud)
        rows.append({
            "id": item["id"], "level": level,
            "threshold": levels[level]["threshold"], "n_samples": len(cloud),
            "n_tree_nodes": int(recon.n_nodes),
            "n_excluded": int(recon.excluded.size),
            **{rate: rates[rate] for rate in RATES},
            "median_angular_error_rad": _median(errors),
            "angular_errors": errors, "curves": curves,
            "connectivity": connectivity,
        })
    return rows


def _median(values) -> float:
    """Median, or NaN for no values (where np.median would warn)."""
    return float(np.median(values)) if len(values) else math.nan


def _nanmean(values) -> float:
    """Mean of the non-NaN values, or NaN if there are none, quietly."""
    values = np.asarray(values, dtype=float)
    return float(np.nanmean(values)) if np.any(~np.isnan(values)) else math.nan


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

    _load_scipy(jobs)
    nested = _map_items(partial(_evaluate_item, corpus_dir, recon_dir, levels,
                                tol, step, tuple(tol_scales)),
                        manifest["items"], jobs)
    rows = sorted((r for group in nested for r in group),
                  key=lambda r: (r["level"], r["id"]))

    per_tree, aggregate, conn = [], [], []
    roc = {kind: [] for kind in ROC_KINDS}
    for level, group in groupby(rows, key=lambda r: r["level"]):
        group = list(group)
        threshold = float(levels[level]["threshold"])
        for r in group:
            med = float(r["median_angular_error_rad"])
            per_tree.append((r["id"], level, threshold, r["n_samples"],
                             r["n_tree_nodes"], r["n_excluded"],
                             *(float(r[rate]) for rate in RATES),
                             med, math.degrees(med)))
            if r["connectivity"] is not None:
                conn.append((r["id"], level, threshold,
                             *map(float, r["connectivity"])))
        med = _median([e for r in group for e in r["angular_errors"]])
        aggregate.append((level, threshold, len(group),
                          *(_nanmean([r[rate] for r in group])
                            for rate in RATES), med, math.degrees(med)))
        for kind in ROC_KINDS:
            for i, scale in enumerate(sorted(tol_scales)):
                points = [r["curves"][kind][i] for r in group]
                roc[kind].append((level, threshold, float(scale),
                                  _nanmean([p.recall for p in points]),
                                  _nanmean([p.fallout for p in points])))

    tables = [
        ("per_tree", ["tree_id", "level", "threshold", "n_samples",
                      "n_tree_nodes", "n_excluded", *RATES,
                      "median_angular_error_rad", "median_angular_error_deg"],
         per_tree),
        ("aggregate", ["level", "threshold", "n_trees",
                       *(f"mean_{rate}" for rate in RATES),
                       "pooled_median_angular_error_rad",
                       "pooled_median_angular_error_deg"], aggregate),
        *((f"roc_{kind}", ["level", "threshold", "tolerance_scale", "recall",
                           "fallout"], roc[kind]) for kind in ROC_KINDS),
        ("connectivity", ["tree_id", "level", "threshold", "recall",
                          "fallout"], conn),
    ]
    for name, header, table in tables:
        if table or name != "connectivity":   # that one needs neighbour dumps
            vio.write_csv(os.path.join(out_dir, name + ".csv"), header, table)
    return rows


# ---------------------------------------------------------------------------
# graph-dump and compare
# ---------------------------------------------------------------------------

def graph_dump(cloud_path, out_path, cfg: PipelineConfig,
               what: str = "arcs"):
    """Write the neighbor pairs or the weighted arc list of one cloud.

    Both come from the fixed-k system of ``build_neighbors``, not from the
    system that ``reconstruct_cloud`` grows and solves."""
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
        _, alpha, length, _ = batch_arc_geometry(
            cloud.positions[graph.tails], cloud.tangents[graph.tails],
            cloud.positions[graph.heads])
        vio.write_csv_columns(
            out_path, ["tail", "head", "weight", "alpha", "length"],
            [graph.tails, graph.heads, graph.weights, alpha, length])
    else:
        graph = build_geodesic_graph(cloud, neighbors)
        vio.write_csv_columns(out_path, ["u", "v", "weight"],
                              [graph.tails, graph.heads, graph.weights])
    return {"n_arcs": int(graph.n_arcs)}


def _read_aggregate(path):
    """Header and ``{level: metric cells}`` of an ``aggregate.csv``, as
    numbers; a cell that is none raises ValueError naming its line."""
    header, rows = vio.read_csv_lines(path)
    by_level = {}
    for line, row in rows:
        try:
            by_level[int(row[0])] = [float(cell) for cell in row[3:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None
    return header, by_level


def compare_runs(eval_a_dir, eval_b_dir, out_path, label_a="a", label_b="b"):
    """Merge two evaluation outputs into one per-level comparison CSV."""
    path_a = os.path.join(eval_a_dir, "aggregate.csv")
    path_b = os.path.join(eval_b_dir, "aggregate.csv")
    header_a, by_level_a = _read_aggregate(path_a)
    header_b, by_level_b = _read_aggregate(path_b)
    if header_a != header_b:
        raise ValueError(f"{path_b}: header differs from that of {path_a}")
    shared = sorted(set(by_level_a) & set(by_level_b))
    if not shared:
        raise ValueError("runs share no evaluation levels")
    out_header = ["level", "metric", label_a, label_b,
                  f"delta_{label_b}_minus_{label_a}"]
    out_rows = [(level, name, va, vb, vb - va) for level in shared
                for name, va, vb in zip(header_a[3:], by_level_a[level],
                                        by_level_b[level])]
    vio.write_csv(out_path, out_header, out_rows)
    return out_rows
