"""Quadratic-time decision procedure for arbitrary four-letter paths.

A drawing on a convex set is crossing-free exactly when every prefix of the
walk occupies a cyclically consecutive arc of hull positions, and each
newly placed vertex sits at one of the two ends of its prefix arc. That
bounds the state space: for a prefix of length r+1 there are n possible
arcs (indexed by their counterclockwise anchor) and at most two candidate
positions for the current vertex, the two arc ends. The table therefore
holds two booleans per (row, anchor) pair and each row is computed from
the previous one with O(n) work, vectorized over anchors.

Each label gets one int64 key per hull position (y for U, -y for D, x for
R, -x for L): a step a -> b respects it iff key[b] > key[a], a comparison
that stays exact at |coord| <= 2^30. x and y values are pairwise distinct,
so a reverse step is the negated comparison and each row is a few slice
operations over the doubled keys. An empty row stays empty, so the loop
stops at the first one and a NO costs only its longest embeddable prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalCaseError
from .geometry import ConvexPointSet
from .paths import DirPath, Embedding
from .validator import edge_ok, require_pdce, require_same_size


@dataclass
class DPTable:
    """Reachability table; row r describes prefixes of r+1 placed vertices.

    near[r, j] holds when the prefix occupies the arc {j, .., j+r} (mod n)
    with the current vertex on position j; far[r, j] holds for the same arc
    with the current vertex on position (j+r) mod n. Row r uses label r-1
    via c[j] = key[j+r] > key[j] and up[k] = key[k+1] > key[k]:
    near[r, j] = near[r-1, j+1] & ~up[j] | far[r-1, j+1] & ~c[j] and
    far[r, j] = near[r-1, j] & c[j] | far[r-1, j] & up[j+r-1].
    Rows after the first empty one stay all False.
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
    require_same_size(p, s)
    n = s.n
    xs = np.array([pt.x for pt in s.points] * 2, dtype=np.int64)
    ys = np.array([pt.y for pt in s.points] * 2, dtype=np.int64)
    # label -> (doubled keys, adjacent step k -> k+1 respects it, its reverse)
    keys = {}
    for d, w2 in (("U", ys), ("D", -ys), ("R", xs), ("L", -xs)):
        if d in p.labels:
            up = w2[1:] > w2[:-1]
            keys[d] = (w2, up, ~up)
    near = np.zeros((n, n), dtype=bool)
    far = np.zeros((n, n), dtype=bool)
    near[0] = far[0] = True
    c, tmp = np.empty((2, n), dtype=bool)
    for r in range(1, n):
        w2, up, down = keys[p.labels[r - 1]]
        pn, pf, nr, fr = near[r - 1], far[r - 1], near[r], far[r]
        np.greater(w2[r : r + n], w2[:n], out=c)
        # Extend the previous arc {j+1, .., j+r} downward to anchor j: the
        # new vertex lands on j, coming from either end of the old arc.
        np.logical_and(pn[1:], down[: n - 1], out=nr[:-1])
        np.greater(pf[1:], c[:-1], out=tmp[:-1])  # pf & ~c on bools
        np.logical_or(nr[:-1], tmp[:-1], out=nr[:-1])
        nr[-1] = (pn[0] and down[n - 1]) or (pf[0] and not c[-1])
        # Extend the previous arc {j, .., j+r-1} upward: the new vertex
        # lands on (j+r) mod n.
        np.logical_and(pn, c, out=fr)
        np.logical_and(pf, up[r - 1 : r - 1 + n], out=tmp)
        np.logical_or(fr, tmp, out=fr)
        if not (np.count_nonzero(fr) or np.count_nonzero(nr)):
            break
    return DPTable(n=n, labels=p.labels, near=near, far=far)


def decide_pdce(p: DirPath, s: ConvexPointSet) -> Optional[Embedding]:
    """Return a validated embedding if one exists, else None.

    The witness is deterministic: among full-length states the smallest
    anchor wins, near end before far end, and the same preference applies
    at every step of the backward walk.
    """
    table = dp_table(p, s)
    n = s.n
    near_ends = np.flatnonzero(table.near[n - 1])
    far_ends = np.flatnonzero(table.far[n - 1])
    if near_ends.size:
        j, at_far = int(near_ends[0]), False
    elif far_ends.size:
        j, at_far = int(far_ends[0]), True
    else:
        return None

    assignment = [0] * n
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
