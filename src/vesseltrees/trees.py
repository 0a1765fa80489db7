"""Parent-array trees: the one representation of ground truth and solutions.

A tree over node ids ``0 .. n-1`` is an int array ``parent``: the parent of
each node, ``NO_PARENT`` at the root and ``EXCLUDED`` for ids outside the
tree. Edge ``parent[c] -> c`` is named by its child c; edges are listed in
ascending child order. Children, branching nodes, edge lengths and
ancestry are derived from ``parent`` when asked for, so none goes stale.
``reachable_mask``, which ``ParentTree.validate`` calls, imports
``scipy.sparse`` on first use, so importing this module loads numpy only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

NO_PARENT = -1   # tree root
EXCLUDED = -2    # node not part of the tree


class Children:
    """Children of every node in ascending id order, from one stable argsort.

    ``children[v]`` is the array of the children of v.
    """

    def __init__(self, parent: np.ndarray):
        self.order = np.argsort(parent, kind="stable")
        self.start = np.searchsorted(parent[self.order],
                                     np.arange(parent.size + 1))

    def __getitem__(self, node) -> np.ndarray:
        return self.order[self.start[node]:self.start[node + 1]]

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.start)


class Preorder(NamedTuple):
    """Entry and exit times of a depth-first walk from the root.

    Nodes the walk does not reach get ``enter = leave = n``.
    """

    enter: np.ndarray
    leave: np.ndarray

    def is_ancestor_or_self(self, a, d) -> np.ndarray:
        """Elementwise; False wherever a or d is unreached."""
        return (self.enter[a] <= self.enter[d]) & \
            (self.enter[d] < self.leave[a])


class ParentTree:
    """Rooted tree stored as a parent array; see the module docstring.

    Subclasses provide ``root``, ``parent`` (int64, length n) and
    ``positions`` (n, 3), and set to ``None`` whichever of these per-node
    arrays they do not carry: ``radii``, and the data of the edge into
    each node (NaN at nodes without one): ``edge_length``, ``edge_weight``
    (summing to ``total_weight``) and ``edge_start_tangent``.
    """

    @property
    def n_nodes(self) -> int:
        return int(np.count_nonzero(self.parent != EXCLUDED))

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.parent >= 0))

    @property
    def excluded(self) -> np.ndarray:
        return np.flatnonzero(self.parent == EXCLUDED)

    def node_ids(self) -> np.ndarray:
        return np.flatnonzero(self.parent != EXCLUDED)

    def edge_children(self) -> np.ndarray:
        return np.flatnonzero(self.parent >= 0)

    def children(self) -> Children:
        return Children(self.parent)

    def branching_nodes(self) -> np.ndarray:
        """Nodes with two or more children, ascending."""
        counts = np.bincount(self.parent[self.parent >= 0],
                             minlength=self.parent.size)
        return np.flatnonzero(counts >= 2)

    def edge_lengths(self) -> np.ndarray:
        """Stored arc length of each edge where finite, else its chord."""
        childs = self.edge_children()
        chord = np.linalg.norm(self.positions[childs]
                               - self.positions[self.parent[childs]], axis=1)
        if self.edge_length is None:
            return chord
        stored = self.edge_length[childs]
        return np.where(np.isfinite(stored), stored, chord)

    def total_length(self) -> float:
        return float(np.sum(self.edge_lengths()))

    def _check_root(self):
        if not 0 <= self.root < self.parent.size or \
                self.parent[self.root] != NO_PARENT:
            raise ValueError("root must map to no parent")

    def preorder(self) -> Preorder:
        """Walk down the child links, children in ascending id order.

        The root has no parent, so the walk never enters a cycle.
        """
        self._check_root()
        kids = self.children()
        order, start = kids.order.tolist(), kids.start.tolist()
        n = self.parent.size
        enter, leave = [n] * n, [n] * n
        stack, t = [self.root], 0
        while stack:
            v = stack.pop()
            if v < 0:   # ~v marks the end of the subtree of v
                leave[~v] = t
                continue
            enter[v] = t
            t += 1
            stack.append(~v)
            stack.extend(reversed(order[start[v]:start[v + 1]]))
        return Preorder(np.array(enter), np.array(leave))

    def validate(self):
        """Check the tree invariants; raises ValueError on violation.

        The map is a rooted tree exactly when one breadth-first pass down
        the parent links from the root reaches every node not excluded.
        """
        self._check_root()
        parent = self.parent
        n = parent.shape[0]
        if np.any((parent < EXCLUDED) | (parent >= n)):
            raise ValueError(f"parent ids must lie in [{EXCLUDED}, {n})")
        child = np.flatnonzero(parent >= 0)
        stray = (parent != EXCLUDED) & ~reachable_mask(
            n, parent[child], child, self.root)
        if stray.any():
            # walk up from the first stray node: it loops or ends off the root
            v = first = int(np.argmax(stray))
            seen = set()
            while v >= 0 and v not in seen:
                seen.add(v)
                v = int(parent[v])
            if v >= 0:
                raise ValueError("cycle detected in parent map")
            raise ValueError(f"node {first} does not reach the root")
        if self.edge_weight is not None and not np.isclose(
                np.sum(self.edge_weight[child]), self.total_weight,
                rtol=1e-9, atol=1e-9):
            raise ValueError("total_weight does not match edge weights")


def reachable_mask(n, tails, heads, root) -> np.ndarray:
    """Nodes reachable from ``root`` along the arcs ``tails -> heads``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    mask = np.zeros(n, dtype=bool)
    mask[root] = True
    m = csr_matrix((np.ones(tails.size, dtype=np.float32), (tails, heads)),
                   shape=(n, n))
    order = breadth_first_order(m, root, directed=True,
                                return_predecessors=False)
    mask[order] = True
    return mask
