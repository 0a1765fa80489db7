"""Exact tree solvers: minimum arborescence and minimum spanning tree.

The arborescence solver is the classic cycle-contraction algorithm on
sparse arc arrays. Each round selects the minimum entering arc of every
supernode with two O(|A|) scatter-min passes, one over weights and one over
arc indices among the tied arcs, so no round sorts. Cycles among those
selections are contracted simultaneously and the round repeats.
Contraction records are replayed in reverse to expand the optimum back to
original nodes. This is the O(|A| |V|) worst case, but rounds are few on
vessel-like data: 4.8k nodes with 1.5M arcs (K=500) solve in about 0.1 s on
a 2-core x86 machine. The spanning tree is scipy's Kruskal on each edge's
(weight, index) rank.

Ties are broken by lowest arc index everywhere, which makes both solvers
deterministic for a given input ordering.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import minimum_spanning_tree as csgraph_mst

from .graphs import TubularGraph

NO_PARENT = -1   # tree root
EXCLUDED = -2    # node not part of the tree
_NO_ARC = np.iinfo(np.int64).max


@dataclass
class VesselTree:
    """Rooted directed tree over sample indices with per-edge arc data.

    Arrays are indexed by node id; nodes outside the tree have parent
    ``EXCLUDED`` and NaN edge data. ``edge_start_tangent[i]`` is the flow
    tangent at ``parent[i]`` defining the arc geometry of edge
    ``parent[i] -> i``; when ``None`` all edges are straight chords.
    """

    root: int
    parent: np.ndarray
    positions: np.ndarray
    edge_weight: np.ndarray
    edge_alpha: np.ndarray
    edge_length: np.ndarray
    total_weight: float
    edge_start_tangent: np.ndarray | None = None
    excluded: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

    @property
    def n_nodes(self) -> int:
        return int(np.sum(self.parent != EXCLUDED))

    @property
    def n_edges(self) -> int:
        return int(np.sum(self.parent >= 0))

    def node_ids(self) -> np.ndarray:
        return np.flatnonzero(self.parent != EXCLUDED)

    def children_map(self):
        """children[i] = list of direct children of node i."""
        children = {int(i): [] for i in self.node_ids()}
        for v in np.flatnonzero(self.parent >= 0):
            children[int(self.parent[v])].append(int(v))
        return children

    def branching_nodes(self) -> np.ndarray:
        """Nodes with out-degree >= 2."""
        parents = self.parent[self.parent >= 0]
        if parents.size == 0:
            return np.empty(0, np.int64)
        ids, counts = np.unique(parents, return_counts=True)
        return ids[counts >= 2]

    def validate(self):
        """Check the tree invariants; raises ValueError on violation.

        One breadth-first pass down the parent links from the root: the
        map is a rooted tree exactly when it reaches every node that is not
        excluded.
        """
        parent = self.parent
        n = parent.shape[0]
        if not 0 <= self.root < n or parent[self.root] != NO_PARENT:
            raise ValueError("root must map to no parent")
        child = np.flatnonzero(parent >= 0)
        # Virtual node n adopts every parentless node other than the root,
        # so the nodes it reaches are those whose walk up ends off the root.
        orphans = np.flatnonzero(parent < 0)
        orphans = orphans[orphans != self.root]
        tails = np.concatenate([parent[child], np.full(orphans.size, n)])
        heads = np.concatenate([child, orphans])
        stray = (parent != EXCLUDED) & ~_reachable_mask(
            n + 1, tails, heads, self.root)[:n]
        if stray.any():
            v = int(np.argmax(stray))
            if _reachable_mask(n + 1, tails, heads, n)[v]:
                raise ValueError(f"node {v} does not reach the root")
            raise ValueError("cycle detected in parent map")
        edge_w = self.edge_weight[parent >= 0]
        if not np.isclose(np.sum(edge_w), self.total_weight, rtol=1e-9,
                          atol=1e-9):
            raise ValueError("total_weight does not match edge weights")


def _reachable_mask(n, tails, heads, root) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[root] = True
    if tails.size == 0:
        return mask
    m = csr_matrix((np.ones(tails.size, dtype=np.float32), (tails, heads)),
                   shape=(n, n))
    order = breadth_first_order(m, root, directed=True,
                                return_predecessors=False)
    mask[order] = True
    return mask


def _find_cycles(succ, root):
    """Disjoint cycles of the successor map (head supernode -> tail)."""
    color = {}
    cycles = []
    for start in succ:
        if start in color:
            continue
        path = []
        node = start
        while True:
            if node == root or (node not in succ and node not in color):
                if node != root and node not in succ:
                    color[node] = 1
                break
            state = color.get(node)
            if state == 1:
                break
            if state == 0:
                cycles.append(path[path.index(node):])
                break
            color[node] = 0
            path.append(node)
            node = succ[node]
        for x in path:
            color[x] = 1
    return cycles


def chu_liu_edmonds(n_nodes, tails, heads, weights, root):
    """Minimum-weight spanning arborescence over nodes reachable from root.

    Returns ``(parent, arc_index)`` arrays of length ``n_nodes``: parent is
    ``NO_PARENT`` at the root and ``EXCLUDED`` for unreachable nodes;
    ``arc_index[v]`` is the index into the input arrays of the arc chosen
    to enter ``v`` (-1 where none).
    """
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    if not 0 <= root < n_nodes:
        raise ValueError(f"root index {root} out of range [0, {n_nodes})")

    parent = np.full(n_nodes, EXCLUDED, dtype=np.int64)
    arc_index = np.full(n_nodes, -1, dtype=np.int64)
    parent[root] = NO_PARENT

    valid = np.isfinite(weights) & (tails != heads) & (heads != root)
    reach = _reachable_mask(n_nodes, tails[valid], heads[valid], root)
    keep = valid & reach[tails] & reach[heads]
    arc_ids = np.flatnonzero(keep)
    if arc_ids.size == 0:
        return parent, arc_index

    cur_t = tails[arc_ids].copy()
    cur_h = heads[arc_ids].copy()
    adj_w = weights[arc_ids].copy()

    # Supernodes created by contraction get fresh ids above n_nodes.
    parent_super = np.full(2 * n_nodes, -1, dtype=np.int64)
    records = []
    next_id = n_nodes

    while True:
        # Entering arc of every head: least weight, then lowest arc index.
        # arc_ids stays ascending through every filter, so searchsorted
        # maps the chosen ids back to positions.
        best_w = np.full(next_id, np.inf)
        np.minimum.at(best_w, cur_h, adj_w)
        tied = adj_w == best_w[cur_h]
        first_id = np.full(next_id, _NO_ARC, dtype=np.int64)
        np.minimum.at(first_id, cur_h[tied], arc_ids[tied])
        sel_heads = np.flatnonzero(first_id != _NO_ARC)
        sel_pos = np.searchsorted(arc_ids, first_id[sel_heads])

        succ = dict(zip(sel_heads.tolist(), cur_t[sel_pos].tolist()))
        sel_of = dict(zip(sel_heads.tolist(), sel_pos.tolist()))
        cycles = _find_cycles(succ, root)
        if not cycles:
            break

        remap = np.arange(next_id + len(cycles), dtype=np.int64)
        in_cycle = np.zeros(next_id, dtype=bool)
        for cyc in cycles:
            new_id = next_id
            next_id += 1
            enter = {m: int(arc_ids[sel_of[m]]) for m in cyc}
            records.append((new_id, list(cyc), enter))
            for m in cyc:
                parent_super[m] = new_id
                remap[m] = new_id
                in_cycle[m] = True

        adjust = in_cycle[cur_h]
        adj_w[adjust] -= best_w[cur_h[adjust]]
        cur_t = remap[cur_t]
        cur_h = remap[cur_h]
        alive = cur_t != cur_h
        arc_ids, cur_t, cur_h, adj_w = (arc_ids[alive], cur_t[alive],
                                        cur_h[alive], adj_w[alive])

    enter_sel = np.full(next_id, -1, dtype=np.int64)
    enter_sel[sel_heads] = arc_ids[sel_pos]
    for new_id, members, enter in reversed(records):
        a = int(enter_sel[new_id])
        x = int(heads[a])
        while parent_super[x] != new_id:
            x = int(parent_super[x])
        for m in members:
            enter_sel[m] = a if m == x else enter[m]

    nodes = np.flatnonzero(reach)
    nodes = nodes[nodes != root]
    arc_index[nodes] = enter_sel[nodes]
    parent[nodes] = tails[arc_index[nodes]]
    return parent, arc_index


def kruskal_forest(n_nodes, us, vs, weights):
    """Indices of the minimum spanning forest edges (ties by edge index).

    Each edge is weighted by its 1-based rank in (weight, index) order, so
    the forest is unique and scipy's Kruskal returns the one the tie-break
    defines. Of edges joining the same two nodes only the lowest-ranked can
    be chosen, so the rest are dropped before the sparse matrix would sum
    them. Edges come back in rank order.
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    order = np.lexsort((np.arange(weights.size), weights))
    order = order[np.isfinite(weights[order]) & (us[order] != vs[order])]
    key = np.minimum(us, vs)[order] * n_nodes + np.maximum(us, vs)[order]
    _, first = np.unique(key, return_index=True)
    edges = order[np.sort(first)]
    rank = np.arange(1, edges.size + 1, dtype=float)
    forest = csgraph_mst(csr_matrix((rank, (us[edges], vs[edges])),
                                    shape=(n_nodes, n_nodes)))
    return edges[np.sort(forest.data).astype(np.int64) - 1]


def _tree_from_parent(graph: TubularGraph, parent, arc_index, root,
                      directed: bool) -> VesselTree:
    n = graph.n_nodes
    edge_weight = np.full(n, np.nan)
    edge_alpha = np.full(n, np.nan)
    edge_length = np.full(n, np.nan)
    start_tan = None
    has_edge = np.flatnonzero(parent >= 0)
    if has_edge.size:
        arcs = arc_index[has_edge]
        edge_weight[has_edge] = graph.weights[arcs]
        if directed:
            alpha, length, _ = graph.arc_geometry(parent[has_edge], has_edge)
            edge_alpha[has_edge] = alpha
            edge_length[has_edge] = length
            start_tan = np.full((n, 3), np.nan)
            start_tan[has_edge] = graph.samples.tangents[parent[has_edge]]
        else:
            chord = np.linalg.norm(graph.samples.positions[has_edge]
                                   - graph.samples.positions[parent[has_edge]],
                                   axis=1)
            edge_alpha[has_edge] = 0.0
            edge_length[has_edge] = chord
    total = float(np.sum(edge_weight[has_edge])) if has_edge.size else 0.0
    return VesselTree(root=int(root), parent=parent,
                      positions=graph.samples.positions.copy(),
                      edge_weight=edge_weight, edge_alpha=edge_alpha,
                      edge_length=edge_length, total_weight=total,
                      edge_start_tangent=start_tan,
                      excluded=np.flatnonzero(parent == EXCLUDED))


def minimum_arborescence(graph: TubularGraph, root: int) -> VesselTree:
    """Minimum-total-weight arborescence of a directed tubular graph.

    Only nodes reachable from the root through finite-weight arcs are
    spanned; the rest are reported via ``VesselTree.excluded``.
    """
    if graph.mode != "confluent":
        raise ValueError("minimum_arborescence expects a directed graph")
    parent, arc_index = chu_liu_edmonds(graph.n_nodes, graph.tails,
                                        graph.heads, graph.weights, root)
    if graph.n_nodes > 1 and np.sum(parent >= 0) == 0:
        warnings.warn("no nodes reachable from the root; "
                      "returning a single-node tree")
    return _tree_from_parent(graph, parent, arc_index, root, directed=True)


def minimum_spanning_tree(graph: TubularGraph, root: int) -> VesselTree:
    """MST of the root's connected component, re-rooted as a parent map."""
    if graph.mode != "geodesic":
        raise ValueError("minimum_spanning_tree expects an undirected graph")
    n = graph.n_nodes
    if not 0 <= root < n:
        raise ValueError(f"root index {root} out of range [0, {n})")
    chosen = kruskal_forest(n, graph.tails, graph.heads, graph.weights)
    u = graph.tails[chosen].astype(np.int64)
    v = graph.heads[chosen].astype(np.int64)
    forest = csr_matrix((np.ones(chosen.size), (u, v)), shape=(n, n))
    _, pred = breadth_first_order(forest, root, directed=False,
                                  return_predecessors=True)
    parent = np.full(n, EXCLUDED, dtype=np.int64)
    arc_index = np.full(n, -1, dtype=np.int64)
    parent[root] = NO_PARENT
    down = pred[v] == u          # edge u -> v points away from the root
    linked = down | (pred[u] == v)
    child = np.where(down, v, u)[linked]
    parent[child] = pred[child]
    arc_index[child] = chosen[linked]
    if n > 1 and np.sum(parent >= 0) == 0:
        warnings.warn("root is isolated; returning a single-node tree")
    return _tree_from_parent(graph, parent, arc_index, root, directed=False)
