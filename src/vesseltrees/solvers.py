"""Exact tree solvers: minimum arborescence and minimum spanning tree.

The arborescence solver is the classic cycle-contraction algorithm on
sparse arc arrays, one round of array passes at a time. Each round selects
the minimum entering arc of every supernode with two O(|A|) scatter-min
passes, one over weights and one over arc indices among the tied arcs, so
no round sorts. Every supernode then has at most one selected arc, so the
cycles among the selections are the strong components of two or more
nodes of the head -> tail map (Tarjan 1972), which scipy's
``connected_components`` finds; all of them are contracted at once into
fresh supernode ids and the round repeats. No node is contracted twice, so
two arrays indexed by node id record every contraction: the supernode a
node went into, and the arc it selected there. Expansion runs the rounds
backwards, each round in one pass: the entering arc of each of its
supernodes goes to the member that holds the arc's head, and the other
members keep their selected arcs. This is the O(|A| |V|) worst case, but
rounds are few on vessel-like data. On a 2-core Intel Xeon (x86-64), the
large-k100 benchmark cloud (13.9k nodes, 0.11M arcs) solves in about
0.015 s (``solvers.arborescence_s`` of ``perfbench/run.py --workload
large-k100 --seed 1 --trace 1``): its certified loop takes two rounds but
solves once, since the second adds no arc that can change the tree (see
below); 4.8k nodes with the 1.5M arcs of a fixed K=500 system took about
0.14 s when that system was still built. The spanning tree is scipy's
Kruskal on each edge's (weight, index) rank.

Ties are broken by lowest arc index everywhere, which makes both solvers
deterministic for a given input ordering.

The arborescence solver also returns the optimal dual it builds on the way
(Edmonds 1967; Fulkerson 1974). Every supernode S, original nodes included,
gets y_S >= 0: its least adjusted entering weight in the round it is
contracted into a cycle, or in the last round if it never is. The arc
weights minus the y_S of every S an arc enters stay >= 0, and the tree arcs
meet them with equality, so the y_S certify the tree's optimality. The
solver reports them per node as the potential P(v), the sum of y_S over
every S that contains v. An arc u -> v that the graph left out can only
improve the tree if its weight is below P(v): that is the bound the
certified neighbour count in ``pipeline`` checks against each node's kNN
radius. A node off the root's tree has P(v) = +inf, because any arc into
it would change the tree; it passes only against an infinite radius,
where nothing was left out.

The spanning tree reports a potential too: half the weight of its heaviest
edge, at every node of the root's tree, the root included (0 for a single
node), and +inf off it, as for the arborescence. By the cycle property
(Kruskal 1956; Tarjan 1983), an edge the graph left out cannot change the
tree if it is strictly heavier than every tree edge, as it is when it
weighs more than 2 P(v) at one of its ends v. If every edge left out at
the root's tree is, Kruskal's (weight, index) order over the edges up to
the heaviest tree edge is the same in the graph and in any supergraph
that keeps the edges' relative order, so the root's tree is the
supergraph's. A left-out geodesic edge weighs at least twice its
chord, which is at least the kNN radius at either end, so ``pipeline``
checks P(v) against that radius as for the arborescence; an edge between
two nodes of the root's tree is covered once either of its ends passes.

The same two bounds say when a tree survives arcs that join its graph,
which lets ``pipeline`` solve a certified round only when its widening
adds an arc that could change the tree. An added arc u -> v weighing more
than P(v) has a positive reduced cost against the y_S, since the y_S of
the supernodes it enters sum to at most P(v); each round of the algorithm
on the larger graph then selects the arcs, finds the cycles and sets the
y_S that it did on the smaller one, so the tree and the potentials are
the same. An added edge weighing more than twice the larger potential of
its ends is heavier than every tree edge, so by the cycle property the
root's tree is the same. P(v) is +inf off the root's tree, so an arc into
such a node, or an edge at one, always has the graph solved again.

Both solvers import ``scipy.sparse`` and its graph routines when first
called, so importing this module loads numpy only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import batch_arc_geometry
from .graphs import TubularGraph
from .trees import EXCLUDED, NO_PARENT, ParentTree, reachable_mask

_NO_ARC = np.iinfo(np.int64).max


@dataclass
class VesselTree(ParentTree):
    """Rooted directed tree over sample indices with per-edge arc data.

    Arrays are indexed by node id; nodes outside the tree have parent
    ``EXCLUDED`` and NaN edge data. ``edge_start_tangent[i]`` is the flow
    tangent at ``parent[i]`` defining the arc geometry of edge
    ``parent[i] -> i``; when ``None`` all edges are straight chords, and so
    is every edge whose ``edge_alpha`` is 0.
    """

    root: int
    parent: np.ndarray
    positions: np.ndarray
    edge_weight: np.ndarray
    edge_alpha: np.ndarray
    edge_length: np.ndarray
    total_weight: float
    edge_start_tangent: np.ndarray | None = None
    potential: np.ndarray | None = None

    radii = None


def chu_liu_edmonds(n_nodes, tails, heads, weights, root):
    """Minimum-weight spanning arborescence over nodes reachable from root.

    Returns ``(parent, arc_index, potential)`` arrays of length
    ``n_nodes``: parent is ``NO_PARENT`` at the root and ``EXCLUDED`` for
    unreachable nodes; ``arc_index[v]`` is the index into the input arrays
    of the arc chosen to enter ``v`` (-1 where none); ``potential[v]`` is
    the dual potential P(v) of the module docstring, 0 at the root and +inf
    for unreachable nodes.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    if not 0 <= root < n_nodes:
        raise ValueError(f"root index {root} out of range [0, {n_nodes})")

    parent = np.full(n_nodes, EXCLUDED, dtype=np.int64)
    arc_index = np.full(n_nodes, -1, dtype=np.int64)
    parent[root] = NO_PARENT
    potential = np.full(n_nodes, np.inf)
    potential[root] = 0.0

    valid = np.isfinite(weights) & (tails != heads) & (heads != root)
    reach = reachable_mask(n_nodes, tails[valid], heads[valid], root)
    keep = valid & reach[tails] & reach[heads]
    arc_ids = np.flatnonzero(keep)
    if arc_ids.size == 0:
        return parent, arc_index, potential

    cur_t = tails[arc_ids]
    cur_h = heads[arc_ids]
    adj_w = weights[arc_ids]

    # Supernodes created by contraction get fresh ids above n_nodes. Every
    # node is contracted at most once, so one slot per id records its
    # supernode and the arc it selected on that cycle, or in the last
    # round if it never is; created[r] is the first supernode id of round r.
    parent_super = np.full(2 * n_nodes, -1, dtype=np.int64)
    enter_arc = np.full(2 * n_nodes, -1, dtype=np.int64)
    dual = np.zeros(2 * n_nodes)       # y_S of every supernode S
    created = []
    next_id = n_nodes

    while True:
        # Entering arc of every head: least weight, then lowest arc index.
        # arc_ids stays ascending through every filter, so searchsorted
        # finds the chosen arcs' tails.
        best_w = np.full(next_id, np.inf)
        np.minimum.at(best_w, cur_h, adj_w)
        tied = adj_w == best_w[cur_h]
        first_id = np.full(next_id, _NO_ARC, dtype=np.int64)
        np.minimum.at(first_id, cur_h[tied], arc_ids[tied])
        sel_heads = np.flatnonzero(first_id != _NO_ARC)
        enter_arc[sel_heads] = first_id[sel_heads]
        sel_tails = cur_t[np.searchsorted(arc_ids, first_id[sel_heads])]
        dual[sel_heads] = best_w[sel_heads]

        # Each head has one selected arc, so the strong components of two
        # or more nodes in the head -> tail map are exactly its cycles.
        succ = csr_matrix((np.ones(sel_heads.size), (sel_heads, sel_tails)),
                          shape=(next_id, next_id))
        _, label = connected_components(succ, connection="strong")
        in_cycle = np.bincount(label)[label] > 1
        members = np.flatnonzero(in_cycle)
        if members.size == 0:
            break

        _, cycle_of = np.unique(label[members], return_inverse=True)
        parent_super[members] = next_id + cycle_of
        created.append(next_id)
        next_id += int(cycle_of.max()) + 1
        remap = np.arange(next_id, dtype=np.int64)
        remap[members] = parent_super[members]
        adjust = in_cycle[cur_h]
        adj_w[adjust] -= best_w[cur_h[adjust]]
        # in place: every id is in range, and the default mode="raise"
        # would copy the output first
        np.take(remap, cur_t, out=cur_t, mode="clip")
        np.take(remap, cur_h, out=cur_h, mode="clip")
        # one array at a time, so only one old array outlives its filter
        alive = cur_t != cur_h
        arc_ids = arc_ids[alive]
        cur_t = cur_t[alive]
        cur_h = cur_h[alive]
        adj_w = adj_w[alive]

    # Expand the last round first, so each of its supernodes S already
    # holds its final entering arc and, in dual, the sum of y over S and
    # every supernode around it. That arc goes to the member of S that
    # holds its head, found by climbing parent_super from the head once
    # per nesting level; the other members keep their cycle arcs.
    for lo, hi in reversed(list(zip(created, created[1:] + [next_id]))):
        supers = np.arange(lo, hi)
        x = heads[enter_arc[supers]]
        while True:
            climb = parent_super[x] != supers
            if not climb.any():
                break
            x[climb] = parent_super[x[climb]]
        enter_arc[x] = enter_arc[supers]
        members = np.flatnonzero((parent_super >= lo) & (parent_super < hi))
        dual[members] += dual[parent_super[members]]

    nodes = np.flatnonzero(reach)
    nodes = nodes[nodes != root]
    arc_index[nodes] = enter_arc[nodes]
    parent[nodes] = tails[arc_index[nodes]]
    potential[nodes] = dual[nodes]
    return parent, arc_index, potential


def kruskal_forest(n_nodes, us, vs, weights):
    """Indices of the minimum spanning forest edges (ties by edge index).

    Each edge is weighted by its 1-based rank in (weight, index) order, so
    the forest is unique and scipy's Kruskal returns the one the tie-break
    defines. Of edges joining the same two nodes only the lowest-ranked can
    be chosen, so the rest are dropped before the sparse matrix would sum
    them. Edges come back in rank order.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import minimum_spanning_tree as csgraph_mst

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
    pos, tan = graph.samples.positions, graph.samples.tangents
    has_edge = np.flatnonzero(parent >= 0)
    if has_edge.size:
        arcs = arc_index[has_edge]
        edge_weight[has_edge] = graph.weights[arcs]
        tails = parent[has_edge]
        if directed:
            # fitted as the graph builder fits them, so bit-equal to its arcs
            _, alpha, length, _ = batch_arc_geometry(pos[tails], tan[tails],
                                                     pos[has_edge])
            edge_alpha[has_edge] = alpha
            edge_length[has_edge] = length
            start_tan = np.full((n, 3), np.nan)
            start_tan[has_edge] = tan[tails]
        else:
            chord = np.linalg.norm(pos[has_edge] - pos[tails], axis=1)
            edge_alpha[has_edge] = 0.0
            edge_length[has_edge] = chord
    total = float(np.sum(edge_weight[has_edge])) if has_edge.size else 0.0
    return VesselTree(root=int(root), parent=parent,
                      positions=pos.copy(),
                      edge_weight=edge_weight, edge_alpha=edge_alpha,
                      edge_length=edge_length, total_weight=total,
                      edge_start_tangent=start_tan)


def minimum_arborescence(graph: TubularGraph, root: int) -> VesselTree:
    """Minimum-total-weight arborescence of a directed tubular graph.

    Only nodes reachable from the root through finite-weight arcs are
    spanned; the rest are reported via ``VesselTree.excluded``.
    """
    if graph.mode != "confluent":
        raise ValueError("minimum_arborescence expects a directed graph")
    parent, arc_index, potential = chu_liu_edmonds(
        graph.n_nodes, graph.tails, graph.heads, graph.weights, root)
    if graph.n_nodes > 1 and np.sum(parent >= 0) == 0:
        warnings.warn("no nodes reachable from the root; "
                      "returning a single-node tree")
    tree = _tree_from_parent(graph, parent, arc_index, root, directed=True)
    tree.potential = potential
    return tree


def minimum_spanning_tree(graph: TubularGraph, root: int) -> VesselTree:
    """MST of the root's connected component, re-rooted as a parent map.

    ``potential`` is half the heaviest tree edge's weight on the root's
    component and +inf elsewhere (see the module docstring).
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

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
    tree = _tree_from_parent(graph, parent, arc_index, root, directed=False)
    heaviest = np.max(tree.edge_weight[child], initial=0.0)
    tree.potential = np.where(parent != EXCLUDED, heaviest / 2.0, np.inf)
    return tree
