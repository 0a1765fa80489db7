"""Tests for the arborescence and MST solvers against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from vesseltrees.geometry import SampleCloud
from vesseltrees.graphs import TubularGraph
from vesseltrees.solvers import (
    EXCLUDED,
    NO_PARENT,
    VesselTree,
    chu_liu_edmonds,
    kruskal_forest,
    minimum_arborescence,
    minimum_spanning_tree,
)


def brute_force_arborescence(n, tails, heads, weights, root):
    """Enumerate all parent assignments over reachable nodes; exact optimum.

    Returns (best_total, parent_tuple) or (None, None) when no spanning
    arborescence of the reachable set exists.
    """
    incoming = {v: [] for v in range(n)}
    adj = {v: [] for v in range(n)}
    for a, (t, h, w) in enumerate(zip(tails, heads, weights)):
        if math.isfinite(w) and t != h and h != root:
            incoming[h].append((t, w))
            adj[t].append(h)
    reach = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in reach:
                reach.add(v)
                stack.append(v)
    targets = sorted(reach - {root})
    best = (None, None)
    choices = [
        [(t, w) for t, w in incoming[v] if t in reach] for v in targets
    ]
    for combo in itertools.product(*choices):
        parent = {v: c[0] for v, c in zip(targets, combo)}
        ok = True
        for v in targets:
            x, steps = v, 0
            while x != root:
                x = parent[x]
                steps += 1
                if steps > n:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        total = sum(c[1] for c in combo)
        if best[0] is None or total < best[0]:
            best = (total, parent)
    return best, sorted(reach)


def brute_force_mst(n, us, vs, weights, root):
    """Exhaustive minimum spanning tree of the root's component."""
    adj = {v: set() for v in range(n)}
    for u, v in zip(us, vs):
        adj[u].add(v)
        adj[v].add(u)
    comp = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in comp:
                comp.add(y)
                stack.append(y)
    edges = [(i, u, v, w) for i, (u, v, w) in enumerate(zip(us, vs, weights))
             if u in comp and v in comp]
    need = len(comp) - 1
    best = None
    for subset in itertools.combinations(edges, need):
        uf = {v: v for v in comp}

        def find(x):
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        count = 0
        for _, u, v, _w in subset:
            ru, rv = find(u), find(v)
            if ru != rv:
                uf[ru] = rv
                count += 1
        if count == need:
            total = sum(w for _, _, _, w in subset)
            if best is None or total < best:
                best = total
    return best, comp


def arrays_to_tree_weight(parent, arc_index, weights):
    chosen = arc_index[arc_index >= 0]
    return float(np.sum(np.asarray(weights)[chosen]))


def test_star_graph():
    n = 5
    tails = np.zeros(n - 1, dtype=int)
    heads = np.arange(1, n)
    weights = np.ones(n - 1)
    parent, arc_index, _ = chu_liu_edmonds(n, tails, heads, weights, 0)
    assert np.all(parent[1:] == 0)
    assert parent[0] == NO_PARENT
    assert arrays_to_tree_weight(parent, arc_index, weights) == 4.0


def test_three_node_example():
    # arcs r->a (1), r->b (5), a->b (1), b->a (3): optimum picks r->a, a->b.
    tails = [0, 0, 1, 2]
    heads = [1, 2, 2, 1]
    weights = [1.0, 5.0, 1.0, 3.0]
    parent, arc_index, _ = chu_liu_edmonds(3, tails, heads, weights, 0)
    assert parent[1] == 0 and parent[2] == 1
    assert arrays_to_tree_weight(parent, arc_index, weights) == 2.0


def test_cycle_contraction_instance():
    # Two-node cycle below the root forces a contraction round.
    tails = [0, 1, 2, 0]
    heads = [1, 2, 1, 2]
    weights = [10.0, 1.0, 1.0, 10.0]
    parent, arc_index, _ = chu_liu_edmonds(3, tails, heads, weights, 0)
    (best, bf_parent), _ = brute_force_arborescence(
        3, tails, heads, weights, 0)
    assert arrays_to_tree_weight(parent, arc_index, weights) == best
    assert {v: parent[v] for v in (1, 2)} == bf_parent


def test_unreachable_nodes_excluded():
    tails = [0, 3]
    heads = [1, 4]
    weights = [1.0, 1.0]
    parent, arc_index, _ = chu_liu_edmonds(5, tails, heads, weights, 0)
    assert parent[1] == 0
    assert parent[2] == EXCLUDED and parent[3] == EXCLUDED
    assert parent[4] == EXCLUDED


def test_root_out_of_range():
    with pytest.raises(ValueError):
        chu_liu_edmonds(3, [0], [1], [1.0], 7)


def test_random_small_graphs_match_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(400):
        n = int(rng.integers(2, 7))
        mask = rng.random((n, n)) < 0.5
        np.fill_diagonal(mask, False)
        tails, heads = np.nonzero(mask)
        if tails.size == 0:
            continue
        weights = rng.integers(1, 20, size=tails.size).astype(float)
        root = int(rng.integers(0, n))
        parent, arc_index, _ = chu_liu_edmonds(n, tails, heads, weights, root)
        (best, _), reach = brute_force_arborescence(
            n, tails, heads, weights, root)
        got = arrays_to_tree_weight(parent, arc_index, weights)
        if best is None:
            assert got == 0.0
        else:
            assert got == best
        spanned = sorted(np.flatnonzero(parent != EXCLUDED).tolist())
        assert spanned == reach


def test_tied_weights_pick_lowest_arc_index():
    # Every arc has a parallel copy at a higher index. Round one selects
    # 2 -> 1 and 1 -> 2 and contracts that cycle; round two enters it with
    # four arcs tied at adjusted weight 3 and must take arc 3. Entering at
    # 2 instead (arc 6) gives the same total of 4.
    tails = [0, 2, 1, 0, 2, 1, 0, 0, 3, 0, 1]
    heads = [3, 1, 2, 1, 1, 2, 2, 1, 1, 3, 3]
    weights = [2.0, 0.0, 1.0, 3.0, 0.0, 1.0, 4.0, 3.0, 3.0, 2.0, 0.0]
    parent, arc_index, _ = chu_liu_edmonds(4, tails, heads, weights, 0)
    assert arc_index.tolist() == [-1, 3, 2, 10]
    assert parent.tolist() == [NO_PARENT, 0, 1, 1]
    (best, _), _ = brute_force_arborescence(4, tails, heads, weights, 0)
    assert arrays_to_tree_weight(parent, arc_index, weights) == best == 4.0


def test_parallel_tied_arcs_resolve_to_lowest_index():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        mask = rng.random((n, n)) < 0.6
        np.fill_diagonal(mask, False)
        tails, heads = np.nonzero(mask)
        weights = rng.integers(0, 4, size=tails.size).astype(float)
        copies = rng.random(tails.size) < 0.5
        tails = np.concatenate([tails, tails[copies]])
        heads = np.concatenate([heads, heads[copies]])
        weights = np.concatenate([weights, weights[copies]])
        perm = rng.permutation(tails.size)
        tails, heads, weights = tails[perm], heads[perm], weights[perm]
        parent, arc_index, _ = chu_liu_edmonds(n, tails, heads, weights, 0)
        (best, _), _ = brute_force_arborescence(n, tails, heads, weights, 0)
        got = arrays_to_tree_weight(parent, arc_index, weights)
        assert got == (0.0 if best is None else best)
        for v in np.flatnonzero(arc_index >= 0):
            a = arc_index[v]
            same = np.flatnonzero((tails == tails[a]) & (heads == v)
                                  & (weights == weights[a]))
            assert a == same.min()


def test_deterministic_under_weight_scaling():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(3, 7))
        mask = rng.random((n, n)) < 0.6
        np.fill_diagonal(mask, False)
        tails, heads = np.nonzero(mask)
        weights = rng.integers(1, 30, size=tails.size).astype(float)
        base, _, _ = chu_liu_edmonds(n, tails, heads, weights, 0)
        for scale in (2.0, 0.5, 3.0):
            scaled, _, _ = chu_liu_edmonds(n, tails, heads, weights * scale, 0)
            assert np.array_equal(base, scaled)


def test_kruskal_path_and_triangle():
    # path graph, all weights 1 -> the path itself
    chosen = kruskal_forest(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 1.0])
    assert sorted(chosen.tolist()) == [0, 1, 2]
    # triangle with weights 1,2,3 -> keeps edges 1 and 2
    chosen = kruskal_forest(3, [0, 1, 0], [1, 2, 2], [1.0, 2.0, 3.0])
    assert sorted(chosen.tolist()) == [0, 1]
    # parallel and reversed copies of an edge: only the cheapest counts
    chosen = kruskal_forest(3, [0, 0, 1, 1], [1, 1, 0, 2],
                            [2.0, 1.0, 1.0, 3.0])
    assert chosen.tolist() == [1, 3]


def test_random_msts_match_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        if not edges:
            continue
        us = np.array([e[0] for e in edges])
        vs = np.array([e[1] for e in edges])
        weights = rng.integers(1, 20, size=len(edges)).astype(float)
        root = int(rng.integers(0, n))
        chosen = kruskal_forest(n, us, vs, weights)
        best, comp = brute_force_mst(n, us, vs, weights, root)
        in_comp = np.array([us[e] in comp for e in chosen])
        got = float(np.sum(weights[chosen[in_comp]])) if chosen.size else 0.0
        if best is None:
            best = 0.0
        assert got == best


def _line_graph(n, directed):
    pos = np.zeros((n, 3))
    pos[:, 0] = np.arange(n)
    tan = np.tile([1.0, 0.0, 0.0], (n, 1))
    cloud = SampleCloud(pos, tan)
    tails, heads, weights = [], [], []
    for i in range(n - 1):
        tails += [i, i + 1]
        heads += [i + 1, i]
        weights += [1.0, 1.0]
    mode = "confluent" if directed else "geodesic"
    return TubularGraph(cloud, tails, heads, weights, mode=mode)


def test_tree_wrappers_and_validation():
    g = _line_graph(5, directed=True)
    tree = minimum_arborescence(g, 0)
    tree.validate()
    assert tree.n_edges == 4
    assert tree.total_weight == 4.0
    assert np.all(tree.parent[1:] == np.arange(4))

    gu = _line_graph(5, directed=False)
    mst = minimum_spanning_tree(gu, 2)
    mst.validate()
    assert mst.n_edges == 4
    assert mst.parent[2] == NO_PARENT
    assert mst.parent[1] == 2 and mst.parent[3] == 2


def _hand_tree(parent, root=0):
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    weight = np.where(parent >= 0, 1.0, np.nan)
    return VesselTree(root=root, parent=parent, positions=np.zeros((n, 3)),
                      edge_weight=weight, edge_alpha=np.zeros(n),
                      edge_length=weight.copy(),
                      total_weight=float(np.sum(parent >= 0)))


def test_validate_rejects_malformed_parent_maps():
    _hand_tree([NO_PARENT, 0, 1, EXCLUDED, 1]).validate()
    _hand_tree(np.arange(-1, 50_000)).validate()   # deep path, one pass
    with pytest.raises(ValueError, match="root must map to no parent"):
        _hand_tree([1, NO_PARENT, 1]).validate()
    with pytest.raises(ValueError, match="root must map to no parent"):
        _hand_tree([NO_PARENT, 0], root=2).validate()
    with pytest.raises(ValueError, match="cycle detected"):
        _hand_tree([NO_PARENT, 0, 3, 2]).validate()
    with pytest.raises(ValueError, match="cycle detected"):
        _hand_tree([NO_PARENT, 0, 3, 4, 3]).validate()   # 2 leads into it
    with pytest.raises(ValueError, match="node 2 does not reach the root"):
        _hand_tree([NO_PARENT, 0, 3, NO_PARENT]).validate()
    with pytest.raises(ValueError, match="node 2 does not reach the root"):
        _hand_tree([NO_PARENT, EXCLUDED, 1]).validate()
    with pytest.raises(ValueError, match="total_weight"):
        tree = _hand_tree([NO_PARENT, 0])
        tree.total_weight = 2.0
        tree.validate()


def test_wrappers_reject_wrong_mode():
    g = _line_graph(3, directed=True)
    with pytest.raises(ValueError):
        minimum_spanning_tree(g, 0)
    gu = _line_graph(3, directed=False)
    with pytest.raises(ValueError):
        minimum_arborescence(gu, 0)


def test_single_node_tree_warning():
    cloud = SampleCloud(np.zeros((3, 3)) + np.arange(3)[:, None],
                        np.tile([1.0, 0, 0], (3, 1)))
    g = TubularGraph(cloud, [1], [2], [1.0], mode="confluent")
    with pytest.warns(UserWarning):
        tree = minimum_arborescence(g, 0)
    assert tree.n_edges == 0
    assert sorted(tree.excluded.tolist()) == [1, 2]


def test_symmetric_digraph_matches_undirected_mst():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(3, 8))
        us, vs, ws = [], [], []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.7:
                    us.append(u)
                    vs.append(v)
                    ws.append(float(rng.integers(1, 15)))
        if not us:
            continue
        # connect everything to keep the comparison total meaningful
        for v in range(1, n):
            us.append(0)
            vs.append(v)
            ws.append(float(rng.integers(1, 15)))
        tails = np.array(us + vs)
        heads = np.array(vs + us)
        weights = np.array(ws + ws, dtype=float)
        parent, arc_index, _ = chu_liu_edmonds(n, tails, heads, weights, 0)
        arb_total = arrays_to_tree_weight(parent, arc_index, weights)
        chosen = kruskal_forest(n, np.array(us), np.array(vs),
                                np.array(ws, dtype=float))
        mst_total = float(np.sum(np.array(ws)[chosen]))
        assert arb_total == mst_total


def test_cycle_contraction_potentials():
    # Round one contracts the cycle {1, 2} with y_1 = y_2 = 1; both arcs
    # from the root enter it at adjusted weight 9, so y_C = 9.
    _, _, potential = chu_liu_edmonds(3, [0, 1, 2, 0], [1, 2, 1, 2],
                                      [10.0, 1.0, 1.0, 10.0], 0)
    assert potential.tolist() == [0.0, 10.0, 10.0]
    _, _, potential = chu_liu_edmonds(4, [0, 3], [1, 2], [1.0, 1.0], 0)
    assert potential[:2].tolist() == [0.0, 1.0]
    assert np.isposinf(potential[2:]).all()


def test_nested_contraction_expands_to_the_innermost_member():
    # Round one contracts {1, 2} into A (y = 1 each); round two contracts
    # {A, 3} into B (y_A = y_3 = 1); the root's arc 0 -> 2 enters B at
    # adjusted weight 10 - 1 - 1 = 8. That arc lands on node 2, two levels
    # down, so expansion must hand it to A and then to 2, whose cycle arc
    # 3 -> 2 is dropped.
    parent, arc_index, potential = chu_liu_edmonds(
        4, [1, 2, 1, 3, 0, 0], [2, 1, 3, 2, 2, 3], [1, 1, 1, 2, 10, 20], 0)
    assert parent.tolist() == [NO_PARENT, 2, 0, 1]
    assert arc_index.tolist() == [-1, 1, 4, 2]
    assert potential.tolist() == [0.0, 10.0, 10.0, 9.0]


def test_potential_certifies_the_arcs_left_out():
    # Solve on a random part of a complete digraph. Its potentials bound
    # every tree arc from above (tightly below the root), and whenever
    # each arc left out costs at least the potential of its head, the
    # tree is the complete digraph's. Continuous weights never tie.
    rng = np.random.default_rng(17)
    certified = nested = 0
    for _ in range(400):
        n = int(rng.integers(3, 9))
        tails, heads = np.nonzero(~np.eye(n, dtype=bool))
        weights = rng.random(tails.size) * 10.0
        full, _, _ = chu_liu_edmonds(n, tails, heads, weights, 0)
        kept = rng.random(tails.size) < 0.7
        parent, arc_index, potential = chu_liu_edmonds(
            n, tails[kept], heads[kept], weights[kept], 0)
        reached = parent >= 0
        chosen = weights[kept][arc_index[reached]]
        assert np.all(chosen <= potential[reached] * (1 + 1e-12))
        from_root = parent == 0
        np.testing.assert_allclose(weights[kept][arc_index[from_root]],
                                   potential[from_root], rtol=1e-12)
        assert potential[0] == 0.0
        assert np.isposinf(potential[parent == EXCLUDED]).all()
        left_out = ~kept
        if reached[1:].all() and np.all(
                weights[left_out] >= potential[heads[left_out]]):
            certified += 1
            nested += bool(np.any(chosen < potential[reached] * (1 - 1e-9)))
            assert parent.tolist() == full.tolist()
    assert certified >= 50 and nested >= 15


def test_mst_potential_is_half_the_heaviest_edge_on_the_root_tree():
    # 0 - 1 - 2 is the root's tree; 3 - 4 is a component it never reaches
    cloud = SampleCloud(np.arange(15.0).reshape(5, 3),
                        np.tile([1.0, 0, 0], (5, 1)))
    g = TubularGraph(cloud, [0, 1, 0, 3], [1, 2, 2, 4], [1.0, 3.0, 5.0, 7.0],
                     mode="geodesic")
    tree = minimum_spanning_tree(g, 0)
    assert tree.potential[:3].tolist() == [1.5, 1.5, 1.5]
    assert np.isposinf(tree.potential[3:]).all()
    tree = minimum_spanning_tree(g, 2)    # the same tree from another root
    assert tree.potential[:3].tolist() == [1.5, 1.5, 1.5]
    with pytest.warns(UserWarning, match="root is isolated"):
        tree = minimum_spanning_tree(
            TubularGraph(cloud, [3], [4], [7.0], mode="geodesic"), 0)
    assert tree.potential[0] == 0.0
    assert np.isposinf(tree.potential[1:]).all()
