"""Quadratic-time decision procedure for arbitrary four-letter paths.

A drawing on a convex set is crossing-free exactly when every prefix of the
walk occupies a cyclically consecutive arc of hull positions, and each
newly placed vertex sits at one of the two ends of its prefix arc. That
bounds the state space: for a prefix of length r+1 there are n possible
arcs (indexed by their counterclockwise anchor) and at most two candidate
positions for the current vertex, the two arc ends. The table therefore
holds two booleans per (row, anchor) pair and each row is computed from
the previous one with O(n) work.

The labels lie on two axes: a step a -> b respects U iff y[b] > y[a], R
iff x[b] > x[a], and D and L reverse those tests. Keys are Python ints, so
the test is exact at any coordinate. Each axis the path uses takes the
set's coordinate column (ys or xs, one key per hull position) and one
comparison-row state, read by both of its labels: x and y values are
pairwise distinct, so every mask of D (L) below is the complement of that
of U (R).

A row is two Python ints used as n-bit sets, bit j for anchor j (see
DPTable), and is computed bit-parallel over all anchors in a constant number
of big-int operations, in the style of Myers' bit-vector DP (JACM 1999).
With d the label of row r:

    near_r = rot1(near) & DOWN_d | rot1(far) & ~C_r
    far_r  = near & C_r | far & (UP2_d >> (r-1))

rot1 moves bit j+1 to bit j cyclically; C_r holds the anchors j whose step
j -> j+r respects d; bit k of UP_d is set iff the step k -> k+1 respects d,
so UP_d = C_1, DOWN_d is its complement and UP2_d is UP_d doubled to 2n
bits. For U and R, C_r is one cyclic interval whose ends move monotonically
in r (_comparison_rows), so it costs amortized O(1) pointer moves per row;
D and L swap C_r and ~C_r of their axis. An empty row stays empty, so the
loop stops at the first one and a NO costs only its longest embeddable
prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import InternalCaseError
from .geometry import ConvexPointSet
from .paths import DirPath, Embedding
from .validator import require_pdce, require_same_size


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

    Row r is stored as two ints, near_bits[r] and far_bits[r], whose bit j
    is near[r, j] and far[r, j]: at most n^2/4 bytes for the whole table. The
    properties near and far unpack them into fresh (n, n) bool numpy arrays,
    importing numpy on first use; cell() and max_cell_entries() read the
    bits directly.
    """

    n: int
    labels: str
    near_bits: list[int]
    far_bits: list[int]

    @property
    def near(self):
        return _unpack(self.near_bits, self.n)

    @property
    def far(self):
        return _unpack(self.far_bits, self.n)

    def cell(self, r: int, j: int) -> frozenset:
        out = set()
        if self.near_bits[r] >> j & 1:
            out.add(j)
        if self.far_bits[r] >> j & 1:
            out.add((j + r) % self.n)
        return frozenset(out)

    def max_cell_entries(self) -> int:
        # In row 0 both ends are the same single position, and it is full.
        both = any(a & b for a, b in zip(self.near_bits[1:], self.far_bits[1:]))
        return 2 if both else 1


def _unpack(rows: list[int], n: int):
    import numpy as np

    width = (n + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for row in rows)
    grid = np.frombuffer(raw, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(grid, axis=1, bitorder="little")[:, :n].astype(bool)


def _comparison_rows(key: Sequence[int]) -> Callable[[int], int]:
    """Return comp(r), the bitset C_r = {j : key[(j+r) % n] > key[j]}, for
    1 <= r < n called in non-decreasing order, with O(n) pointer moves over
    all calls. The decider builds one per axis; comp(1) is its UP mask.

    C_r is one cyclic interval that holds lo = argmin key and not hi =
    argmax key. The key is x or y, and both are cyclically
    unimodal along a convex hull, with distinct values: the key rises
    strictly along lo, lo+1, .., hi and falls strictly along hi, .., lo
    (mod n). Let g(j) count the keys above key[j]; those points form one
    hull arc next to j. On the rising side (lo <= j < hi along the cycle)
    it is j+1, .., j+g(j), over hi and down the falling side as far as the
    key stays above key[j]; so such a j is in C_r iff r <= g(j). On the
    falling side (hi < j < lo) it is j-g(j), .., j-1, so j is in C_r iff
    r >= n - g(j). g falls along lo -> hi and rises along hi -> lo: C_r is
    a run of 1s from lo followed by 0s up to hi, then 0s followed by a run
    of 1s back to lo. lo has g = n-1 and is in every C_r, hi has g = 0 and
    is in none, so C_r is the interval lo-b_r, .., lo+a_r-1. As r grows the
    rising run shrinks and the falling run grows: both ends only move
    backwards along the cycle, so one pointer per end, never reset, finds
    them. Neither pointer needs a bound: the rising one stops at lo at the
    latest, the falling one at hi.
    """
    n = len(key)
    lo = key.index(min(key))
    k2 = (key[lo:] + key[:lo]) * 2  # k2[i] = key[(lo + i) % n], i < 2n
    rising = k2.index(max(key))  # lo, .., hi-1: all of it is in C_1
    full = (1 << n) - 1
    a, b = rising, 0  # C_r in k2 positions: n-b, .., n-1, 0, .., a-1

    def comp(r: int) -> int:
        nonlocal a, b
        while k2[a - 1 + r] < k2[a - 1]:
            a -= 1
        while k2[n - 1 - b + r] > k2[n - 1 - b]:
            b += 1
        start = (lo - b) % n
        run = ((1 << (a + b)) - 1) << start
        if start + a + b > n:
            run = (run | run >> n) & full
        return run

    return comp


# label -> (coordinate column, whether the label reverses its axis)
_AXIS = {"U": ("ys", False), "D": ("ys", True), "R": ("xs", False), "L": ("xs", True)}


def dp_table(p: DirPath, s: ConvexPointSet) -> DPTable:
    require_same_size(p, s)
    n = s.n
    full = (1 << n) - 1
    axes = {}  # column -> (comp, C_1): one state per axis
    masks = {}  # label -> (DOWN_d, UP2_d, comp of its axis, reversed)
    for d in set(p.labels):
        coord, rev = _AXIS[d]
        if coord not in axes:
            comp = _comparison_rows(getattr(s, coord))
            axes[coord] = comp, comp(1)
        comp, up = axes[coord]
        up, down = (full ^ up, up) if rev else (up, full ^ up)
        masks[d] = (down, up | up << n, comp, rev)
    near = [0] * n
    far = [0] * n
    near[0] = far[0] = nr = fr = full
    top = n - 1
    for r in range(1, n):
        down, up2, comp, rev = masks[p.labels[r - 1]]
        c = comp(r)
        c, nc = (full ^ c, c) if rev else (c, full ^ c)
        # near: extend the previous arc {j+1, .., j+r} downward to anchor j,
        # the new vertex lands on j, coming from either end of the old arc.
        # far: extend the previous arc {j, .., j+r-1} upward, the new vertex
        # lands on (j+r) mod n.
        rot_nr = nr >> 1 | (nr & 1) << top
        rot_fr = fr >> 1 | (fr & 1) << top
        nr, fr = rot_nr & down | rot_fr & nc, nr & c | fr & up2 >> (r - 1)
        if not (nr or fr):
            break
        near[r] = nr
        far[r] = fr
    return DPTable(n=n, labels=p.labels, near_bits=near, far_bits=far)


def _lowest_bit(x: int) -> int:
    return (x & -x).bit_length() - 1


def decide_pdce(p: DirPath, s: ConvexPointSet) -> Optional[Embedding]:
    """Return a validated embedding if one exists, else None.

    The witness is deterministic: among full-length states the smallest
    anchor wins, near end before far end, and the same preference applies
    at every step of the backward walk.
    """
    table = dp_table(p, s)
    n = s.n
    near, far = table.near_bits, table.far_bits
    if near[n - 1]:
        j, at_far = _lowest_bit(near[n - 1]), False
    elif far[n - 1]:
        j, at_far = _lowest_bit(far[n - 1]), True
    else:
        return None

    assignment = [0] * n
    # label -> (column, sign): the step a -> b respects the label iff
    # sign * (col[b] - col[a]) > 0.
    steps = {d: (getattr(s, coord), -1 if rev else 1) for d, (coord, rev) in _AXIS.items()}
    for r in range(n - 1, 0, -1):
        pos = (j + r) % n if at_far else j
        assignment[r] = pos
        col, sign = steps[p.labels[r - 1]]
        if at_far:
            prev_anchor = j
            from_far_pos = (j + r - 1) % n
        else:
            prev_anchor = (j + 1) % n
            from_far_pos = (j + r) % n
        if near[r - 1] >> prev_anchor & 1 and sign * (col[pos] - col[prev_anchor]) > 0:
            j, at_far = prev_anchor, False
        elif far[r - 1] >> prev_anchor & 1 and sign * (col[pos] - col[from_far_pos]) > 0:
            j, at_far = prev_anchor, True
        else:
            raise InternalCaseError("witness reconstruction lost the trail")
    assignment[0] = j
    return require_pdce(p, s, Embedding(tuple(assignment)), "reconstructed witness")
