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
uses and caches them on the set (ConvexPointSet._decider), two lists of
n + 1 ints per axis and two masks of n and 2n bits per label. So the first
decide on a set pays for them, and a later one runs only the row loop,
_rows.

A row is two Python ints used as n-bit sets, bit j for anchor j (see
DPTable), and is computed bit-parallel over all anchors in a constant number
of big-int operations, in the style of Myers' bit-vector DP (JACM 1999).
With d the label of row r:

    nn_r   = rot1(near) & DOWN_d          near_r = nn_r | rot1(far) & ~C_r
    fn_r   = near & C_r                   far_r  = fn_r | far & (UP2_d >> (r-1))

rot1 moves bit j+1 to bit j cyclically; C_r holds the anchors j whose step
j -> j+r respects d; bit k of UP_d is set iff the step k -> k+1 respects d,
so UP_d = C_1, DOWN_d is its complement and UP2_d is UP_d doubled to 2n
bits. C_r is one cyclic range of anchors, S[r], .., E[r] - 1 (mod n),
wrapping past n - 1 when S[r] > E[r]. The axis's state lists both ends for
every r (_comparison_state), from the set's cached extreme indices, so any
row can be built alone, in any order; both lists, like the witness, hold
the int objects of the shared index tuple (geometry._indices). U and R
read the axis's (S, E), and D and L the same two lists swapped, (E, S):
S[r] != E[r], so the swapped range is the complement. An empty row stays empty, so the row loop _rows
stops at the first one and a NO costs only its longest embeddable prefix.
The loop starts from any row's pair (near_r, far_r) and runs to a given
row, so the rows can be computed in blocks, and any block again from its
first pair.

nn_r and fn_r, the choice rows, are the moves from the near end of the
previous arc. dp_table steps the loop one row at a time and keeps near_r
and far_r; decide_pdce keeps only the choice rows and walks back one bit
per row: bit j of nn_r (fn_r) set means the near (far) state at anchor j
came from the near state at j+1 (j), and clear means from the far state
there. require_pdce checks the witness. decide_pdce holds at most
_CHOICE_BYTES, 64 MiB, of choice rows at once: up to n of about 16000 that
is all of them, in one block. A larger set runs its rows in blocks of as
many rows as the budget holds and keeps the first pair of each block as a
checkpoint, so a NO holds at most one block. The walk back then computes
each earlier block again from its checkpoint (Hirschberg, CACM 1975, in the
checkpoint form of Grice, Hughey and Speck, CABIOS 1997), on the few
anchors the walk can reach in that block alone (_window), which costs far
less than the first pass.
"""

from __future__ import annotations

from itertools import accumulate
from operator import itemgetter
from sys import getsizeof
from typing import NamedTuple, Optional, Sequence

from .geometry import ConvexPointSet, _indices
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
    whose bit j is near[r, j] and far[r, j]: two bits per (row, anchor). A
    CPython int of n bits takes 24 + 4*ceil(n/30) bytes (424 at n = 3000),
    so a table of dense rows takes about 4n^2/15 bytes (37 MiB at n =
    12000); rows past the first empty one take none. The properties near
    and far unpack them into fresh (n, n) bool numpy arrays, importing
    numpy on first use; numpy is not a dependency of the package, and this
    view is kept only because the benchmark harness (perfbench/run.py,
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
    order: Sequence[int], lo: int, hi: int,
) -> tuple[list[int], list[int]]:
    """Return (S, E): C_r = {j : key[(j+r) % n] > key[j]}, for any
    1 <= r < n, is the cyclic range of anchors S[r], .., E[r] - 1 (mod n).

    order lists the positions by increasing key, from lo, the smallest, to
    hi, the largest. The key is x or y, and both are cyclically unimodal
    along a convex hull, with distinct values: the key rises strictly along
    lo, .., hi and falls strictly along hi, .., lo (mod n). Let rc[t] count
    the t smallest keys on the rising run lo, .., hi-1, a prefix sum of its
    flags in key order (rc[0] = 0), and g(j) count the keys above key[j];
    those points form one hull arc next to j. On the rising side it is
    j+1, .., j+g(j), so j is in C_r iff r <= g(j), that is iff key[j] is
    among the n-r smallest: a_r = rc[n-r] such j. On the falling side it is
    j-g(j), .., j-1, so j is in C_r iff r >= n - g(j), that is iff key[j]
    is among the r smallest, which leave out key[hi]: b_r = r - rc[r] such
    j. Each side's members thus form one run from lo, and C_r runs from
    S[r] = lo - b_r up to E[r] = lo + a_r (mod n), n + 1 entries each. lo
    is in every C_r and hi in none, so S[r] != E[r], and C_1 is the rising
    run.
    """
    n = len(order)
    run = (b"\1" * ((hi - lo) % n)).ljust(n, b"\0")  # the rising run's flags, from lo on
    flag = run[n - lo :] + run[: n - lo]  # flag[p]: p is on the rising run
    # itemgetter of one index returns no tuple; one position is its own order.
    rc = list(accumulate(itemgetter(*order)(flag) if n > 1 else flag, initial=0))
    ring = _indices(n) * 2  # S and E share its ints
    return [ring[lo + n - r + c] for r, c in enumerate(rc)], [ring[lo + c] for c in reversed(rc)]


# label -> (its axis, whether the label reverses it)
_AXIS = {"U": ("y", False), "D": ("y", True), "R": ("x", False), "L": ("x", True)}


def _state(labels: str, s: ConvexPointSet) -> dict:
    """Return the set's decider state, holding every label in labels: axis
    -> its comparison state (S, E), label -> (DOWN_d, UP2_d, S_d, E_d), with
    (S_d, E_d) the axis's (S, E) for U and R and the same two lists swapped,
    (E, S), for D and L. It lives on the set (ConvexPointSet._decider) and
    grows on first use of an axis or a label, so only a set's first decide
    builds it. Entries are only added, each a function of the columns
    alone, so two threads deciding on one set at once at worst build one
    twice."""
    state = s._decider
    for d, (axis, rev) in _AXIS.items():
        if d in state or d not in labels:
            continue
        if axis not in state:
            ends = (s.bottom_index, s.top_index) if axis == "y" else (s.left_index, s.right_index)
            state[axis] = _comparison_state(getattr(s, axis + "_order"), *ends)
        S, E = state[axis][::-1] if rev else state[axis]
        n = s.n
        full = (1 << n) - 1
        a, b = S[1], E[1]  # C_1, a cyclic range, as in _rows
        up = (1 << b) - (1 << a) if a <= b else full ^ ((1 << a) - (1 << b))
        state[d] = (full ^ up, up | up << n, S, E)
    return state


def _rows(
    labels: str, state: dict, n: int, r: int, near: int, far: int, stop: int,
    nn: list[int], fn: list[int],
) -> tuple[int, int, int]:
    """Compute rows r+1, .., stop from row r's pair (near, far), writing
    each row t's choice rows nn_t and fn_t to nn[t] and fn[t] (see the
    module docstring), and return (last, near_last, far_last) for the last
    row computed that is not empty: last is stop, or the row before the
    first empty one. state is _state(labels, s) of an n-point set s."""
    full = (1 << n) - 1
    top = 1 << (n - 1)
    for t, (down, up2, S, E) in enumerate(map(state.__getitem__, labels[r:stop]), r + 1):
        # C_t, the anchors S[t], .., E[t]-1, or its complement does not wrap.
        a, b = S[t], E[t]
        if a <= b:
            c = (1 << b) - (1 << a)
            nc = full ^ c
        else:
            nc = (1 << a) - (1 << b)
            c = full ^ nc
        # near: extend the previous arc {j+1, .., j+t} downward to anchor j,
        # the new vertex lands on j, coming from either end of the old arc.
        # far: extend the previous arc {j, .., j+t-1} upward, the new vertex
        # lands on (j+t) mod n.
        nn_t = (near >> 1 | top if near & 1 else near >> 1) & down
        fn_t = near & c
        near_t = nn_t | (far >> 1 | top if far & 1 else far >> 1) & nc
        far_t = fn_t | far & up2 >> (t - 1)
        if not (near_t or far_t):
            return t - 1, near, far
        nn[t] = nn_t
        fn[t] = fn_t
        near, far = near_t, far_t
    return stop, near, far


def dp_table(p: DirPath, s: ConvexPointSet) -> DPTable:
    require_same_size(p, s)
    n = s.n
    labels, state = p.labels, _state(p.labels, s)
    near = [0] * n
    far = [0] * n
    near[0] = far[0] = (1 << n) - 1
    choice = [0] * n  # the loop's choice rows, which the table does not keep
    for r in range(1, n):
        last, near_r, far_r = _rows(labels, state, n, r - 1, near[r - 1], far[r - 1], r,
                                    choice, choice)
        if last < r:
            break
        near[r], far[r] = near_r, far_r
    return DPTable(n=n, near_bits=near, far_bits=far)


def _window(
    state: dict, n: int, w: int, width: int, start: int, stop: int, near: int, far: int,
) -> tuple[dict, int, int]:
    """Return a state under which _rows, run with width for n, computes the
    rows start+1, .., stop of the anchors w, .., w+width-1 (mod n) alone,
    anchor w+i on bit i, and row start's pair (near, far) cut the same way.
    The state holds every label of state.

    Each label keeps its DOWN_d turned and cut to the window, its UP2_d
    turned and cut to the bits rows start+1..stop read, and its own C_t cut
    to the window, a range of the width-bit circle in the same form: an
    empty cut has S[t] == E[t], and a whole one is (0, width). The loop
    wraps bit 0 into bit width-1, where anchor w+width belongs: so row
    start+i is exact on its low width-i bits only, which is all a walk back
    from anchor w at row stop reads when width > stop-start. With width = n
    it is exact."""
    full = (1 << n) - 1
    cut = (1 << width) - 1

    def turn(bits: int) -> int:  # anchor w on bit 0
        return (bits >> w | bits << (n - w)) & full

    out = {}
    for d in _AXIS:
        if d not in state:
            continue
        down, up2, S, E = state[d]
        S_w, E_w = [0] * (stop + 1), [0] * (stop + 1)
        for t in range(start + 1, stop + 1):  # the ends from anchor w, cut to the window
            f = (S[t] - w) % n
            g = (E[t] - w) % n
            S_w[t] = f if f < width else (width if f < g else 0)
            E_w[t] = g if g < width else width
        up = turn(up2)
        up = (up | up << n) & (1 << (stop - 1 + width)) - 1
        out[d] = (turn(down) & cut, up, S_w, E_w)
    return out, turn(near) & cut, turn(far) & cut


# Bytes of choice rows decide_pdce holds at once; up to n of about 16000
# they all fit, in one block, and no row is computed twice.
_CHOICE_BYTES = 64 << 20


def decide_pdce(p: DirPath, s: ConvexPointSet) -> Optional[Embedding]:
    """Return a validated embedding if one exists, else None.

    The witness is deterministic: among full-length states the smallest
    anchor wins, near end before far end, and the same preference applies
    at every step of the backward walk.
    """
    require_same_size(p, s)
    n = s.n
    labels, state = p.labels, _state(p.labels, s)
    near = far = (1 << n) - 1  # row 0
    # A block takes as many rows as the budget holds; a choice row is an int
    # of up to n bits, of at most the size of far.
    k = _CHOICE_BYTES // (2 * getsizeof(far)) or 1
    marks = []  # (r, near_r, far_r) at the first row of each block
    r = 0
    for stop in (*range(k, n - 1, k), n - 1):
        marks.append((r, near, far))
        nn, fn = [0] * n, [0] * n  # nn[t] and fn[t]: the block's choice rows
        r, near, far = _rows(labels, state, n, r, near, far, stop, nn, fn)
        if r < stop:
            return None
    # Row n-1's arc is the whole hull, so far[n-1, j] is near[n-1, j-1]:
    # the far row is the near row rotated, and adds no full-length state.
    j, at_far = (near & -near).bit_length() - 1, False
    ring = _indices(n) * 2  # ring[i] = i % n for 0 <= i < 2n: no new index ints
    assignment = [0] * n
    w = 0  # the anchor on bit 0 of the block's choice rows
    stop = n - 1
    for start, near, far in reversed(marks):
        if stop < n - 1:
            # An earlier block, computed again from its checkpoint. Walking
            # back from anchor j at row stop reaches anchors j, .., j+stop-start
            # alone, so the rows are cut to the window from j on.
            w, j = (w + j) % n, 0
            width = stop - start + 1 if stop - start + 1 < n else n
            nn, fn = [0] * n, [0] * n  # the later block's rows go first
            window, near, far = _window(state, n, w, width, start, stop, near, far)
            _rows(labels, window, width, start, near, far, stop, nn, fn)
            del window  # before the next block builds its own
        for r in range(stop, start, -1):
            if at_far:
                assignment[r] = ring[j + r]
                at_far = not fn[r] >> j & 1
            else:
                assignment[r] = j
                at_far = not nn[r] >> j & 1
                j = ring[j + 1]
        if w:  # positions on the window, counted from anchor w
            block = assignment[start + 1 : stop + 1]
            assignment[start + 1 : stop + 1] = [ring[w + a] for a in block]
        stop = start
    assignment[0] = ring[w + j]
    return require_pdce(p, s, Embedding(tuple(assignment)), "reconstructed witness")
