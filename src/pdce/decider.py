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
set's cached order of hull positions by that coordinate (y_order or
x_order) and one comparison-row state, read by both of its labels: x and y
values are pairwise distinct, so every mask of D (L) below is the
complement of that of U (R). These states and each label's masks are work
per set, not per path: _state builds them for the axes and labels a path
uses and caches them on the set (ConvexPointSet._decider), n + 1 ints per
axis and two masks of n and 2n bits per label. So the first decide on a
set pays for them, and a later one runs only the row loop, _rows.

A row is two Python ints used as n-bit sets, bit j for anchor j (see
DPTable), and is computed bit-parallel over all anchors in a constant number
of big-int operations, in the style of Myers' bit-vector DP (JACM 1999).
With d the label of row r:

    nn_r   = rot1(near) & DOWN_d          near_r = nn_r | rot1(far) & ~C_r
    fn_r   = near & C_r                   far_r  = fn_r | far & (UP2_d >> (r-1))

rot1 moves bit j+1 to bit j cyclically; C_r holds the anchors j whose step
j -> j+r respects d; bit k of UP_d is set iff the step k -> k+1 respects d,
so UP_d = C_1, DOWN_d is its complement and UP2_d is UP_d doubled to 2n
bits. For U and R, C_r is one cyclic interval, found from the set's cached
extreme indices and two entries of one prefix rank count per axis
(_comparison_state), so any row can be built alone, in any order; D and L
swap C_r and ~C_r of their axis. An empty row stays empty, so the row
generator _rows stops at the first one and a NO costs only its longest
embeddable prefix.

nn_r and fn_r, the choice rows, are the moves from the near end of the
previous arc. dp_table keeps near_r and far_r; decide_pdce keeps only the
choice rows and walks back one bit per row: bit j of nn_r (fn_r) set means
the near (far) state at anchor j came from the near state at j+1 (j), and
clear means from the far state there. require_pdce checks the witness.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple, Optional, Sequence

from .geometry import ConvexPointSet
from .paths import DirPath, Embedding
from .validator import require_pdce, require_same_size

__all__ = ["DPTable", "decide_pdce", "dp_table"]


class DPTable(NamedTuple):
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


def _comparison_state(order: Sequence[int], lo: int, hi: int) -> tuple[int, list[int]]:
    """Return (lo, rc): C_r = {j : key[(j+r) % n] > key[j]}, for any
    1 <= r < n, is the cyclic run of a_r + b_r anchors from lo-b_r, with
    a_r = rc[n-r] and b_r = r - rc[r].

    order lists the positions by increasing key, from lo, the smallest, to
    hi, the largest. The key is x or y, and both are cyclically unimodal
    along a convex hull, with distinct values: the key rises strictly along
    lo, .., hi and falls strictly along hi, .., lo (mod n). rc[t] counts the
    t smallest keys on the rising run lo, .., hi-1, a prefix sum of its
    flags in key order (n + 1 entries, rc[0] = 0). Let g(j) count the keys
    above key[j]; those points form one hull arc next to j. On the rising
    side it is j+1, .., j+g(j), so j is in C_r iff r <= g(j), that is iff
    key[j] is among the n-r smallest: a_r = rc[n-r] such j. On the falling
    side it is j-g(j), .., j-1, so j is in C_r iff r >= n - g(j), that is
    iff key[j] is among the r smallest, which leave out key[hi]: b_r =
    r - rc[r] such j. Each side's members thus form one run from lo. hi is
    in no C_r, and C_1 is the rising run.
    """
    n = len(order)
    run = (b"\1" * ((hi - lo) % n)).ljust(n, b"\0")  # the rising run's flags, from lo on
    flag = run[n - lo :] + run[: n - lo]  # flag[p]: p is on the rising run
    # itemgetter of one index returns no tuple; one position is its own order.
    return lo, list(accumulate(itemgetter(*order)(flag) if n > 1 else flag, initial=0))


# label -> (its axis, whether the label reverses it)
_AXIS = {"U": ("y", False), "D": ("y", True), "R": ("x", False), "L": ("x", True)}


def _state(labels: str, s: ConvexPointSet) -> dict:
    """Return the set's decider state, holding every label in labels: axis
    -> its comparison state (lo, rc), label -> (DOWN_d, UP2_d, reversed, lo,
    rc). It lives on the set (ConvexPointSet._decider) and grows on first
    use of an axis or a label, so only a set's first decide builds it.
    Entries are only added, each a function of the columns alone, so two
    threads deciding on one set at once at worst build one twice."""
    state = s._decider
    for d, (axis, rev) in _AXIS.items():
        if d in state or d not in labels:
            continue
        if axis not in state:
            ends = (s.bottom_index, s.top_index) if axis == "y" else (s.left_index, s.right_index)
            state[axis] = _comparison_state(getattr(s, axis + "_order"), *ends)
        lo, rc = state[axis]
        n = s.n
        full = (1 << n) - 1
        up = full >> (n - rc[n]) << lo  # C_1, the rising run; D and L take its complement
        up = (up | up >> n) & full ^ (full if rev else 0)
        state[d] = (full ^ up, up | up << n, rev, lo, rc)
    return state


def _rows(labels: str, state: dict, n: int):
    """Yield (near_r, far_r, nn_r, fn_r) for r = 1, 2, .. up to, and not
    including, the first empty row (see the module docstring); state is
    _state(labels, s) of an n-point set s."""
    full = (1 << n) - 1
    top = 1 << (n - 1)
    nr = fr = full
    for r, (down, up2, rev, lo, rc) in enumerate(map(state.__getitem__, labels), 1):
        # The axis's C_r, size anchors from start, or its complement does not wrap.
        b = r - rc[r]
        size = rc[n - r] + b
        start = (lo - b) % n
        if start + size <= n:
            c = full >> (n - size) << start
            nc = full ^ c
        else:
            nc = full >> size << (start + size - n)
            c = full ^ nc
        if rev:
            c, nc = nc, c
        # near: extend the previous arc {j+1, .., j+r} downward to anchor j,
        # the new vertex lands on j, coming from either end of the old arc.
        # far: extend the previous arc {j, .., j+r-1} upward, the new vertex
        # lands on (j+r) mod n.
        nn = (nr >> 1 | top if nr & 1 else nr >> 1) & down
        fn = nr & c
        nr = nn | (fr >> 1 | top if fr & 1 else fr >> 1) & nc
        fr = fn | fr & up2 >> (r - 1)
        if not (nr or fr):
            return
        yield nr, fr, nn, fn


def dp_table(p: DirPath, s: ConvexPointSet) -> DPTable:
    require_same_size(p, s)
    n = s.n
    near = [0] * n
    far = [0] * n
    near[0] = far[0] = (1 << n) - 1
    for r, row in enumerate(_rows(p.labels, _state(p.labels, s), n), 1):
        near[r], far[r] = row[:2]
    return DPTable(n=n, near_bits=near, far_bits=far)


def decide_pdce(p: DirPath, s: ConvexPointSet) -> Optional[Embedding]:
    """Return a validated embedding if one exists, else None.

    The witness is deterministic: among full-length states the smallest
    anchor wins, near end before far end, and the same preference applies
    at every step of the backward walk.
    """
    require_same_size(p, s)
    n = s.n
    nn = [0] * n  # nn[r] and fn[r]: the choice rows nn_r and fn_r
    fn = [0] * n
    near, last = (1 << n) - 1, 0  # row 0
    for last, (near, _, nn_r, fn_r) in enumerate(_rows(p.labels, _state(p.labels, s), n), 1):
        nn[last], fn[last] = nn_r, fn_r
    if last < n - 1:
        return None
    # Row n-1's arc is the whole hull, so far[n-1, j] is near[n-1, j-1]:
    # the far row is the near row rotated, and adds no full-length state.
    j, at_far = (near & -near).bit_length() - 1, False
    assignment = [0] * n
    for r in range(n - 1, 0, -1):
        if at_far:
            assignment[r] = (j + r) % n
            at_far = not fn[r] >> j & 1
        else:
            assignment[r] = j
            at_far = not nn[r] >> j & 1
            j = (j + 1) % n
    assignment[0] = j
    return require_pdce(p, s, Embedding(tuple(assignment)), "reconstructed witness")
