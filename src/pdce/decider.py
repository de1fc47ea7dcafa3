"""Quadratic-time decision procedure for arbitrary four-letter paths.

A drawing on a convex set is crossing-free exactly when every prefix of the
walk occupies a cyclically consecutive arc of hull positions, and each
newly placed vertex sits at one of the two ends of its prefix arc. That
bounds the state space: for a prefix of length r+1 there are n possible
arcs (indexed by their counterclockwise anchor) and at most two candidate
positions for the current vertex, the two arc ends. The table therefore
holds two booleans per (row, anchor) pair and each row is computed from
the previous one with O(n) work, vectorized over anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalCaseError, SizeMismatch
from .geometry import ConvexPointSet
from .paths import DirPath, Embedding
from .validator import edge_ok, require_pdce


def _edge_mask(label: str, xa, ya, xb, yb):
    # Vectorized counterpart of validator.edge_ok for int64 coordinate arrays.
    if label == "U":
        return yb > ya
    if label == "D":
        return yb < ya
    if label == "L":
        return xb < xa
    return xb > xa


@dataclass
class DPTable:
    """Reachability table; row r describes prefixes of r+1 placed vertices.

    near[r, j] holds when the prefix occupies the arc {j, .., j+r} (mod n)
    with the current vertex on position j; far[r, j] holds for the same arc
    with the current vertex on position (j+r) mod n.
    """

    n: int
    labels: str
    near: np.ndarray
    far: np.ndarray

    def cell(self, r: int, j: int) -> frozenset:
        out = set()
        if self.near[r, j]:
            out.add(j)
        if self.far[r, j]:
            out.add((j + r) % self.n)
        return frozenset(out)

    def max_cell_entries(self) -> int:
        sizes = self.near.astype(np.int8) + self.far.astype(np.int8)
        # In row 0 both ends are the same single position.
        sizes[0] = np.minimum(sizes[0], 1)
        return int(sizes.max())


def dp_table(p: DirPath, s: ConvexPointSet) -> DPTable:
    if p.n_vertices != s.n:
        raise SizeMismatch(
            f"path has {p.n_vertices} vertices but the set has {s.n} points"
        )
    n = s.n
    xs = np.array([pt.x for pt in s.points], dtype=np.int64)
    ys = np.array([pt.y for pt in s.points], dtype=np.int64)
    near = np.zeros((n, n), dtype=bool)
    far = np.zeros((n, n), dtype=bool)
    near[0, :] = True
    far[0, :] = True
    jj = np.arange(n)
    for r in range(1, n):
        d = p.labels[r - 1]
        idx1 = (jj + 1) % n
        idxr = (jj + r) % n
        idxr1 = (jj + r - 1) % n
        prev_near = near[r - 1]
        prev_far = far[r - 1]
        # Extend the previous arc {j+1, .., j+r} downward to anchor j: the
        # new vertex lands on j, coming from either end of the old arc.
        near[r] = (prev_near[idx1] & _edge_mask(d, xs[idx1], ys[idx1], xs, ys)) | (
            prev_far[idx1] & _edge_mask(d, xs[idxr], ys[idxr], xs, ys)
        )
        # Extend the previous arc {j, .., j+r-1} upward: the new vertex
        # lands on (j+r) mod n.
        far[r] = (prev_near & _edge_mask(d, xs, ys, xs[idxr], ys[idxr])) | (
            prev_far & _edge_mask(d, xs[idxr1], ys[idxr1], xs[idxr], ys[idxr])
        )
    return DPTable(n=n, labels=p.labels, near=near, far=far)


def decide_pdce(p: DirPath, s: ConvexPointSet) -> Optional[Embedding]:
    """Return a validated embedding if one exists, else None.

    The witness is deterministic: among full-length states the smallest
    anchor wins, near end before far end, and the same preference applies
    at every step of the backward walk.
    """
    table = dp_table(p, s)
    n = s.n
    state = None
    for j in range(n):
        if table.near[n - 1, j]:
            state = (j, False)
            break
    if state is None:
        for j in range(n):
            if table.far[n - 1, j]:
                state = (j, True)
                break
    if state is None:
        return None

    assignment = [0] * n
    j, at_far = state
    pts = s.points
    for r in range(n - 1, 0, -1):
        pos = (j + r) % n if at_far else j
        assignment[r] = pos
        d = p.labels[r - 1]
        if at_far:
            prev_anchor = j
            from_far_pos = (j + r - 1) % n
        else:
            prev_anchor = (j + 1) % n
            from_far_pos = (j + r) % n
        if table.near[r - 1, prev_anchor] and edge_ok(d, pts[prev_anchor], pts[pos]):
            j, at_far = prev_anchor, False
        elif table.far[r - 1, prev_anchor] and edge_ok(d, pts[from_far_pos], pts[pos]):
            j, at_far = prev_anchor, True
        else:
            raise InternalCaseError("witness reconstruction lost the trail")
    assignment[0] = j
    return require_pdce(p, s, Embedding(tuple(assignment)), "reconstructed witness")
