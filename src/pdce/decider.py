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
bits. For U and R, C_r is one cyclic interval, found from the set's cached
extreme indices and two binary searches in the sorted column
(_comparison_state), so any row can be built alone, in any order; D and L
swap C_r and ~C_r of their axis. An empty row stays empty, so the loop
stops at the first one and a NO costs only its longest embeddable prefix.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InternalCaseError
from .geometry import ConvexPointSet, _unimodal_runs
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

    Row r is stored as two ints below 2^n, near_bits[r] and far_bits[r],
    whose bit j is near[r, j] and far[r, j]: two bits per (row, anchor) and
    at most n^2/4 bytes for the whole table. The properties near and far
    unpack them into fresh (n, n) bool numpy arrays, importing numpy on
    first use; numpy is not a dependency of the package, and this view is
    kept only because the benchmark harness (perfbench/run.py,
    rows_alive_frac) still reads table.near and table.far. It goes once
    that harness reads near_bits and far_bits instead.
    """

    n: int
    near_bits: list[int]
    far_bits: list[int]

    @property
    def near(self):
        return _unpack(self.near_bits, self.n)

    @property
    def far(self):
        return _unpack(self.far_bits, self.n)


def _unpack(rows: list[int], n: int):
    import numpy as np

    width = (n + 7) // 8
    raw = b"".join(row.to_bytes(width, "little") for row in rows)
    grid = np.frombuffer(raw, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(grid, axis=1, bitorder="little")[:, :n].astype(bool)


def _comparison_state(
    key: Sequence[int], lo: int, hi: int
) -> tuple[int, Sequence[int], Sequence[int], list[int]]:
    """Return (lo, rising, falling, ordered): C_r = {j : key[(j+r) % n] >
    key[j]}, for any 1 <= r < n, is the cyclic interval lo-b_r, .., lo+a_r-1
    with a_r = bisect_left(rising, ordered[n-r]) and
    b_r = bisect_left(falling, ordered[r]).

    lo and hi are the positions of the smallest and largest key. The key is
    x or y, and both are cyclically unimodal along a convex hull, with
    distinct values: the key rises strictly along lo, .., hi and falls
    strictly along hi, .., lo (mod n). So rising, the keys at lo, .., hi-1,
    and falling, those at lo-1, lo-2, .., hi+1, both increase (both come
    from geometry._unimodal_runs); ordered is the key sorted. Let g(j)
    count the keys above key[j]; those points form one hull arc next to j.
    On the rising side it is j+1, .., j+g(j), so j is in C_r iff
    r <= g(j), that is iff key[j] < ordered[n-r]. On the falling side it is
    j-g(j), .., j-1, so j is in C_r iff r >= n - g(j), that is iff
    key[j] < ordered[r]. Each side's members thus form one run from lo, of
    length a_r and b_r. hi is in no C_r, and C_1 is the rising run.
    """
    return (lo, *_unimodal_runs(key, lo, hi), sorted(key))


# label -> (coordinate column, whether the label reverses its axis)
_AXIS = {"U": ("ys", False), "D": ("ys", True), "R": ("xs", False), "L": ("xs", True)}


def dp_table(p: DirPath, s: ConvexPointSet) -> DPTable:
    require_same_size(p, s)
    n = s.n
    full = (1 << n) - 1
    states = {}  # column -> its comparison state: one per axis
    masks = {}  # label -> (DOWN_d, UP2_d, reversed, state of its axis)
    for d in set(p.labels):
        coord, rev = _AXIS[d]
        if coord not in states:
            ends = (s.bottom_index, s.top_index) if coord == "ys" else (s.left_index, s.right_index)
            states[coord] = _comparison_state(getattr(s, coord), *ends)
        lo, rising, falling, ordered = states[coord]
        up = ((1 << len(rising)) - 1) << lo  # C_1, the rising run
        up = (up | up >> n) & full
        up, down = (full ^ up, up) if rev else (up, full ^ up)
        masks[d] = (down, up | up << n, rev, lo, rising, falling, ordered)
    near = [0] * n
    far = [0] * n
    near[0] = far[0] = nr = fr = full
    top = n - 1
    for r in range(1, n):
        down, up2, rev, lo, rising, falling, ordered = masks[p.labels[r - 1]]
        a = bisect_left(rising, ordered[n - r])
        b = bisect_left(falling, ordered[r])
        start = (lo - b) % n
        c = ((1 << (a + b)) - 1) << start
        if start + a + b > n:
            c = (c | c >> n) & full
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
    return DPTable(n=n, near_bits=near, far_bits=far)


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
    # Row n-1's arc is the whole hull, so far[n-1, j] is near[n-1, j-1]:
    # the far row is the near row rotated, and adds no full-length state.
    if not near[n - 1]:
        return None
    j, at_far = _lowest_bit(near[n - 1]), False

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
