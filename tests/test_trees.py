"""Tests for the parent-array tree core against plain parent walks."""

import numpy as np
import pytest

from vesseltrees.solvers import EXCLUDED, NO_PARENT
from vesseltrees.synth import GroundTruthTree


def _tree(parent):
    parent = np.asarray(parent, dtype=np.int64)
    return GroundTruthTree(positions=np.zeros((parent.size, 3)),
                           radii=np.ones(parent.size), parent=parent,
                           domain_size=1.0)


def _random_parent(rng, n):
    """Random tree on shuffled labels, some ids excluded, root not 0."""
    label = rng.permutation(n)
    parent = np.full(n, EXCLUDED, dtype=np.int64)
    size = int(rng.integers(1, n + 1))
    parent[label[0]] = NO_PARENT
    for i in range(1, size):
        parent[label[i]] = label[int(rng.integers(0, i))]
    return parent


def _walk_up(parent, v):
    """v and every node above it, by following parent links."""
    chain = []
    while v >= 0:
        chain.append(v)
        v = int(parent[v])
    return chain


def test_children_and_ancestry_match_parent_walk():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        parent = _random_parent(rng, n)
        tree = _tree(parent)
        children = tree.children()
        for v in range(n):
            want = [c for c in range(n) if parent[c] == v]
            assert children[v].tolist() == want
            assert children.degree[v] == len(want)
        assert tree.branching_nodes().tolist() == [
            v for v in range(n) if np.sum(parent == v) >= 2]
        order = tree.preorder()
        a, d = (x.ravel() for x in np.meshgrid(np.arange(n), np.arange(n)))
        got = order.is_ancestor_or_self(a, d)
        for ai, di, g in zip(a.tolist(), d.tolist(), got.tolist()):
            related = parent[di] != EXCLUDED and ai in _walk_up(parent, di)
            assert g == related
        # preorder visits children in ascending id order
        reached = np.flatnonzero(parent != EXCLUDED)
        visit = reached[np.argsort(order.enter[reached])].tolist()
        stack, want = [tree.root], []
        while stack:
            v = stack.pop()
            want.append(v)
            stack.extend(reversed(children[v].tolist()))
        assert visit == want


def test_ancestry_of_deep_path():
    n = 50_000
    tree = _tree(np.arange(-1, n - 1))
    order = tree.preorder()
    np.testing.assert_array_equal(order.enter, np.arange(n))
    np.testing.assert_array_equal(order.leave, np.full(n, n))
    every = np.arange(n)
    for d in (0, 1, 777, 31_415, n - 1):
        above = np.zeros(n, dtype=bool)
        above[_walk_up(tree.parent, d)] = True
        np.testing.assert_array_equal(
            order.is_ancestor_or_self(every, np.full(n, d)), above)


def test_preorder_ignores_cycles_off_the_root():
    # 2 <-> 3 is a cycle that never reaches the root
    tree = _tree([NO_PARENT, 0, 3, 2])
    order = tree.preorder()
    assert order.is_ancestor_or_self([0, 0, 2, 3], [1, 2, 3, 2]).tolist() == \
        [True, False, False, False]
    with pytest.raises(ValueError, match="cycle detected"):
        tree.validate()
    with pytest.raises(ValueError, match="root must map to no parent"):
        _tree([1, 0]).preorder()
