import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect_left
from pathlib import Path

import pytest
from hypothesis import given, settings

import pdce
from pdce import (
    COORD_LIMIT,
    GENERATOR_MODES,
    DirPath,
    Embedding,
    InternalCaseError,
    SizeMismatch,
    brute_force_pdce,
    decide_pdce,
    dp_table,
    edge_ok,
    generate_random_convex,
    load_counterexample,
    mirror_set,
    rotate_set,
    validate,
    validate_embedding,
)
from pdce import decider
from pdce.decider import _comparison_state
import _circle
from conftest import instances, random_path

UD_SET = validate([(0, 0), (2, 3), (4, 1)])
# canonical order: (2,3),(0,0),(4,1)


def _cell(t, r, j):
    # Where a prefix of r+1 vertices on the arc anchored at j may end: on
    # position j (near bit) or on position (j + r) mod n (far bit).
    out = set()
    if t.near_bits[r] >> j & 1:
        out.add(j)
    if t.far_bits[r] >> j & 1:
        out.add((j + r) % t.n)
    return frozenset(out)


def test_base_row_cells():
    t = dp_table(DirPath("UD"), UD_SET)
    for j in range(3):
        assert _cell(t, 0, j) == frozenset({j})


def test_two_point_u_row():
    s = validate([(0, 0), (1, 1)])
    t = dp_table(DirPath("U"), s)
    # only the top point (canonical index 0) can host v2, from either anchor
    assert _cell(t, 1, 0) == frozenset({0})
    assert _cell(t, 1, 1) == frozenset({0})


def test_ud_frozen_witness():
    w = decide_pdce(DirPath("UD"), UD_SET)
    assert w is not None
    assert w.assignment == (2, 0, 1)  # v1 (4,1), v2 (2,3), v3 (0,0)
    hits = brute_force_pdce(DirPath("UD"), UD_SET)
    assert [h.assignment for h in hits] == [(1, 0, 2), (2, 0, 1)]
    # the hand-enumerated witness v1 (0,0), v2 (2,3), v3 (4,1) is the other hit
    assert (1, 0, 2) in {h.assignment for h in hits}
    assert validate_embedding(DirPath("UD"), UD_SET, w).is_pdce


def test_single_point_yes():
    s = validate([(7, 7)])
    w = decide_pdce(DirPath(""), s)
    assert w is not None and w.assignment == (0,)


def _block_budget(n, rows):
    # A choice-row budget that gives decide_pdce blocks of the given rows.
    return rows * 2 * sys.getsizeof((1 << n) - 1)


def test_counterexample_fixture_is_no(monkeypatch):
    p, s, _ = load_counterexample()
    assert decide_pdce(p, s) is None
    # A full-length state that no earlier row leads to: where the real rows
    # die, the loop reports its block's last row alive, holding anchor 0
    # alone, with the choice rows past the dead row left empty. The backward
    # walk follows the choice bits all the same, and the answer check
    # refuses what it reconstructs, so a forged state never yields a
    # witness, in one block or in blocks of 1, 2 and 3 rows.
    real = decider._rows

    def forged(labels, state, n, r, near, far, stop, nn, fn):
        last, near, far = real(labels, state, n, r, near, far, stop, nn, fn)
        if last == stop:
            return last, near, far
        forged_at.append(last)
        return stop, 1, 0

    for block in (None, 1, 2, 3):
        forged_at = []
        if block:
            monkeypatch.setattr(decider, "_CHOICE_BYTES", _block_budget(s.n, block))
        monkeypatch.setattr(decider, "_rows", forged)
        with pytest.raises(InternalCaseError, match="reconstructed witness"):
            decide_pdce(p, s)
        assert forged_at and forged_at[0] < s.n - 1, block  # the real rows die before the last
        monkeypatch.undo()


def _rotl1(row, n):
    return (row << 1 | row >> (n - 1)) & ((1 << n) - 1)


def test_last_far_row_is_near_row_rotated():
    # Row n-1's arc is the whole hull, so far[n-1, j] is near[n-1, j-1]:
    # decide_pdce reads the near row alone for its full-length state.
    p_no, s_no, _ = load_counterexample()
    cases = [
        (DirPath(""), validate([(7, 7)])),
        (DirPath("U"), validate([(0, 0), (1, 1)])),
        (DirPath("D"), validate([(0, 0), (1, 1)])),
        (DirPath("UD"), UD_SET),
        (p_no, s_no),
    ]
    rng = random.Random("far-row")
    for i in range(120):
        mode = GENERATOR_MODES[i % len(GENERATOR_MODES)]
        s = generate_random_convex(rng.randint(1, 30), seed=f"far-{i}", mode=mode)
        cases.append((random_path(rng, s.n), s))
    answers = set()
    for p, s in cases:
        t = dp_table(p, s)
        assert t.far_bits[-1] == _rotl1(t.near_bits[-1], s.n)
        answers.add(decide_pdce(p, s) is not None)
    assert answers == {True, False}


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        decide_pdce(DirPath("UUU"), UD_SET)


@given(instances(min_n=1, max_n=16))
def test_rows_hold_no_bit_at_or_above_n(inst):
    # A row is an n-bit set, one bit per anchor: a bit at or above n would
    # be an anchor that does not exist.
    p, s = inst
    t = dp_table(p, s)
    assert len(t.near_bits) == len(t.far_bits) == s.n
    assert all(0 <= row < 1 << s.n for row in t.near_bits + t.far_bits)


@given(instances(min_n=1, max_n=12))
def test_decide_agrees_with_brute_force(inst):
    p, s = inst
    w = decide_pdce(p, s)
    hits = brute_force_pdce(p, s)
    assert (w is None) == (len(hits) == 0)
    if w is not None:
        assert validate_embedding(p, s, w).is_pdce
        assert w.assignment in {h.assignment for h in hits}


def _arc_anchors(positions, n):
    # anchors are unique for proper arcs; the full circle admits all n
    occupied = set(positions)
    return [
        lo
        for lo in occupied
        if all((lo + d) % n in occupied for d in range(len(occupied)))
    ]


@settings(max_examples=60)
@given(instances(min_n=2, max_n=14))
def test_window_semantics_replay(inst):
    # every witness prefix occupies the cyclic arc its DP state claims,
    # and the prefix's current vertex is recorded in that state's cell
    p, s = inst
    w = decide_pdce(p, s)
    if w is None:
        return
    t = dp_table(p, s)
    for r in range(s.n):
        prefix = w.assignment[: r + 1]
        anchors = _arc_anchors(prefix, s.n)
        assert anchors
        assert any(w.assignment[r] in _cell(t, r, lo) for lo in anchors)


def test_three_directional_always_yes():
    for seed in range(10):
        s = generate_random_convex(9, seed=seed)
        p = DirPath("UDRRUDRU"[: s.n - 1])
        assert decide_pdce(p, s) is not None


def _oracle_walk(p, s):
    """The witness walk from the full table, re-deriving every step.

    From each state it tests both predecessor bits of the previous row and
    the coordinates of both candidate steps, near end before far end;
    decide_pdce reads the same choice off one bit of its choice rows.
    Returns the assignment, or None when row n-1 is empty.
    """
    t = dp_table(p, s)
    n = s.n
    near, far = t.near_bits, t.far_bits
    if not near[n - 1]:
        return None
    j, at_far = (near[n - 1] & -near[n - 1]).bit_length() - 1, False
    assignment = [0] * n
    # label -> (column, sign): the step a -> b respects the label iff
    # sign * (col[b] - col[a]) > 0.
    steps = {"U": (s.ys, 1), "D": (s.ys, -1), "R": (s.xs, 1), "L": (s.xs, -1)}
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
            raise AssertionError(f"the walk lost the trail at row {r}")
    assignment[0] = j
    return tuple(assignment)


def test_walk_matches_oracle_walk():
    # Seeded instances of every mode at n <= 200, and two at n = 1000: the
    # one-bit walk gives the oracle's witness on each YES, whatever the
    # corpus hash says.
    rng = random.Random("oracle-walk")
    cases = []
    for i, mode in enumerate(GENERATOR_MODES * 4):
        s = _circle.generate_random_convex(rng.randint(1, 200), seed=f"ow-{i}", mode=mode)
        cases += [(random_path(rng, s.n, a), s) for a in ("UDR", "LUR", "LD", "UDLR")]
    for alphabet in ("UDR", "RDL"):
        s = _circle.generate_random_convex(1000, seed=f"ow-1000-{alphabet}")
        cases.append((random_path(random.Random(alphabet), s.n, alphabet), s))
    yes = 0
    for p, s in cases:
        w = decide_pdce(p, s)
        expected = _oracle_walk(p, s)
        assert (w and w.assignment) == expected, (p.labels, s.n)
        yes += expected is not None
    assert yes >= 3 * 4 * len(GENERATOR_MODES) + 2


# --- reference recurrence ----------------------------------------------------


def _reference_table(p, s):
    """Pure-Python DP straight from the DPTable docstring, every row computed.

    The cell (r, j) is the arc {j, .., j+r}; its near end is j, reached from
    the arc {j+1, .., j+r}, and its far end is j+r, reached from the arc
    {j, .., j+r-1}. Either way the previous current vertex is one of the two
    ends of the previous arc, and the step to the new end must respect label
    r-1. Returns (near, far, nn, fn): nn and fn hold the first disjunct of
    near and far, the move from the near end of the previous arc.
    """
    n, pts = s.n, s.points
    near = [[True] * n] + [[False] * n for _ in range(n - 1)]
    far = [[True] * n] + [[False] * n for _ in range(n - 1)]
    nn = [[False] * n for _ in range(n)]
    fn = [[False] * n for _ in range(n)]
    for r in range(1, n):
        d = p.labels[r - 1]
        for j in range(n):
            a = (j + 1) % n  # anchor of the arc left when j is removed
            nn[r][j] = near[r - 1][a] and edge_ok(d, pts[a], pts[j])
            near[r][j] = nn[r][j] or (
                far[r - 1][a] and edge_ok(d, pts[(a + r - 1) % n], pts[j])
            )
            b = (j + r) % n  # the far end, added to the arc {j, .., j+r-1}
            fn[r][j] = near[r - 1][j] and edge_ok(d, pts[j], pts[b])
            far[r][j] = fn[r][j] or (
                far[r - 1][j] and edge_ok(d, pts[(j + r - 1) % n], pts[b])
            )
    return near, far, nn, fn


def _cells(row: int, n: int) -> str:
    """Bit j of an n-bit table row as character j, "0" or "1"."""
    return format(row, f"0{n}b")[::-1]


def _live_cells(t) -> list[int]:
    return [a.bit_count() + b.bit_count() for a, b in zip(t.near_bits, t.far_bits)]


def _row_list(p, s):
    """One uninterrupted run of the row loop from row 0: (last, near_last,
    far_last, nn_1, fn_1, .., nn_last, fn_last)."""
    n = s.n
    nn, fn = [None] * n, [None] * n
    full = (1 << n) - 1
    last, near, far = decider._rows(p.labels, decider._state(p.labels, s), n, 0, full, full,
                                    n - 1, nn, fn)
    assert nn[last + 1 :] == fn[last + 1 :] == [None] * (n - 1 - last)  # nothing past last
    return last, near, far, *itertools.chain.from_iterable(zip(nn[1 : last + 1], fn[1 : last + 1]))


def _assert_matches_reference(p, s) -> bool:
    """Assert dp_table and the choice rows of _rows equal the reference
    exactly; return the answer."""
    t = dp_table(p, s)
    ref = _reference_table(p, s)
    ref_cells = [["".join("01"[cell] for cell in row) for row in table] for table in ref]
    assert len(t.near_bits) == len(t.far_bits) == s.n
    for bits, ref_rows in zip((t.near_bits, t.far_bits), ref_cells):
        for r, row in enumerate(bits):
            assert _cells(row, s.n) == ref_rows[r], r
    live = _live_cells(t)
    alive = live.index(0) if 0 in live else s.n
    assert not any(live[alive:])
    # One run of _rows from row 0 stops at the row before the first empty
    # one, returns that row's pair as the table holds it, and writes the
    # choice rows of rows 1, .., last: the reference's first disjuncts, bit
    # for bit.
    last, near, far, *choice = _row_list(p, s)
    assert last == alive - 1
    assert (near, far) == (t.near_bits[last], t.far_bits[last])
    for r in range(1, last + 1):
        got = [_cells(x, s.n) for x in choice[2 * r - 2 : 2 * r]]
        assert got == [ref_cells[2][r], ref_cells[3][r]], r
    return live[-1] > 0


@settings(max_examples=150)
@given(instances(min_n=1, max_n=16))
def test_table_matches_reference_hypothesis(inst):
    p, s = inst
    assert _assert_matches_reference(p, s) == (decide_pdce(p, s) is not None)


def test_table_matches_reference_seeded_corpus():
    rng = random.Random(0xD9)
    answers = {True: 0, False: 0}
    for i in range(240):
        mode = GENERATOR_MODES[i % len(GENERATOR_MODES)]
        s = _circle.generate_random_convex(rng.randint(1, 60), seed=f"ref-{i}", mode=mode)
        answers[_assert_matches_reference(random_path(rng, s.n), s)] += 1
    p, s, _ = load_counterexample()
    answers[_assert_matches_reference(p, s)] += 1
    print(f"reference corpus: {answers[True]} YES, {answers[False]} NO")
    assert answers[True] and answers[False]


def test_full_table_matches_reference_three_labels():
    s = generate_random_convex(300, seed="ref-full-300")
    p = random_path(random.Random(300), s.n, "UDR")
    assert _assert_matches_reference(p, s)
    assert all(_live_cells(dp_table(p, s)))


def test_matrix_view_unpacks_the_bits():
    np = pytest.importorskip("numpy", exc_type=ImportError)  # absent or broken
    s = generate_random_convex(45, seed="matrix-view")
    cx_p, cx_s, _ = load_counterexample()
    cases = [(random_path(random.Random(45), s.n, "UDR"), s, True), (cx_p, cx_s, False)]
    for p, s, answer in cases:
        t = dp_table(p, s)
        assert (decide_pdce(p, s) is not None) == answer
        for view, bits in ((t.near, t.near_bits), (t.far, t.far_bits)):
            assert view.dtype == np.bool_ and view.shape == (s.n, s.n)
            assert ["".join("01"[c] for c in row) for row in view.tolist()] == [
                _cells(row, s.n) for row in bits
            ]


def _at_coordinate_limit():
    # x holds L and L-1, y holds L and L-1: float32 keys merge them, and an
    # int32 key difference such as L - (-L) = 2^31 overflows.
    L = COORD_LIMIT
    h = 1 << 15
    return validate(
        [(L, 0), (L - 1, -h), (1, L), (h, L - 1), (-L, 1), (-L + 1, h), (0, -L), (-h, -L + 1)]
    )


def _counterexample_at_coordinate_limit():
    # The LULRDR counterexample scaled and translated so that x reaches L and
    # y reaches -L; both keep convexity and the coordinate orders.
    p, s, _ = load_counterexample()
    xs = [pt.x for pt in s.points]
    ys = [pt.y for pt in s.points]
    k = 2 * COORD_LIMIT // max(max(xs) - min(xs), max(ys) - min(ys))
    raw = [
        (k * (x - max(xs)) + COORD_LIMIT, k * (y - min(ys)) - COORD_LIMIT)
        for x, y in zip(xs, ys)
    ]
    return p, validate(raw)


def _label_key(d, s):
    # A step a -> b respects label d iff key[b] > key[a].
    vals = [pt.y if d in "UD" else pt.x for pt in s.points]
    return vals if d in "UR" else [-v for v in vals]


def _label_ends(d, s):
    # The positions of the smallest and largest key of label d, as dp_table
    # reads them from the set's extreme indices.
    return {
        "U": (s.bottom_index, s.top_index),
        "D": (s.top_index, s.bottom_index),
        "R": (s.left_index, s.right_index),
        "L": (s.right_index, s.left_index),
    }[d]


def _row(pair, n, r):
    # C_r from a comparison state (S, E), one bit at a time: the anchors
    # S[r], .., E[r] - 1 (mod n).
    S, E = pair
    return sum(1 << (S[r] + i) % n for i in range((E[r] - S[r]) % n))


def _bisection_state(key, lo, hi):
    # An earlier state, kept as a second oracle: the column's two increasing
    # runs and the sorted column, read by two bisections per row. The runs
    # are the keys at lo, .., hi-1 and those at lo-1, lo-2, .., hi+1 (mod n).
    rotated = key[lo:] + key[:lo]  # rotated[i] = key[(lo + i) % n]
    h = (hi - lo) % len(key)
    return (lo, rotated[:h], rotated[:h:-1], sorted(key))


def _bisection_runs(state, n, r):
    # (a_r, b_r): how many of the n-r smallest keys lie on the rising run,
    # and how many of the r smallest on the falling one.
    lo, rising, falling, ordered = state
    return bisect_left(rising, ordered[n - r]), bisect_left(falling, ordered[r])


def _bisection_row(state, n, r):
    a, b = _bisection_runs(state, n, r)
    return sum(1 << (state[0] - b + i) % n for i in range(a + b))


def test_comparison_rows_are_cyclic_intervals():
    # The state answers any r in any order: every r increasing, a shuffled and
    # a decreasing choice of r. Its range ends S[r] = lo - b_r and E[r] =
    # lo + a_r (mod n) follow the two bisections of an earlier state, and
    # differ. Each C_r equals the brute-force mask and the two-bisection
    # oracle, is one cyclic run of 1s holding lo and not hi, and the up mask
    # {k : key[k+1] > key[k]} is C_1. The decider reads D and L off the
    # states of U and R: their entries hold the axis's two lists swapped,
    # whose range is the complement, and so is C_r of the negated key, whose
    # order is the reversed one. Sets from the symmetry operators carry
    # seeded extremes, and generated sets read theirs from the columns; both
    # are checked against min and max, and each key order against the set's
    # cached axis order.
    rng = random.Random(0xC7)
    sets = [_at_coordinate_limit()]
    for mode in GENERATOR_MODES:
        for n in (1, 2, 3, 5, 8, 13, 30, 64, 120, 200):
            s = generate_random_convex(n, seed=f"cr-{mode}-{n}", mode=mode)
            sets.append(s)
            if n <= 30:
                sets += [rotate_set(s), mirror_set(s), mirror_set(rotate_set(s))]
    for s in sets:
        n, full = s.n, (1 << s.n) - 1
        decided = decider._state("UDLR", s)
        for d in "UDLR":
            key = _label_key(d, s)
            lo, hi = _label_ends(d, s)
            assert key[lo] == min(key) and key[hi] == max(key)
            order = sorted(range(n), key=key.__getitem__)
            cached = s.y_order if d in "UD" else s.x_order
            assert tuple(order) == (cached if d in "UR" else cached[::-1]), d
            state = _comparison_state(order, lo, hi)
            neg = _comparison_state(order[::-1], hi, lo)
            S, E = state
            assert len(S) == len(E) == n + 1 and S[0] == E[n] == lo  # b_0 = a_n = 0
            axis = decided["y" if d in "UD" else "x"]
            entry = decided[d][2:]
            shared = axis if d in "UR" else axis[::-1]
            assert all(x is y for x, y in zip(entry, shared)) and len(entry) == 2, d
            oracle = _bisection_state(key, lo, hi)
            for r in range(1, n):
                a, b = _bisection_runs(oracle, n, r)
                assert (S[r], E[r]) == ((lo - b) % n, (lo + a) % n), (d, r)
                assert S[r] != E[r], (d, r)
            shuffled = [r for r in range(1, n) if rng.random() < 0.3]
            rng.shuffle(shuffled)
            decreasing = [r for r in range(n - 1, 0, -1) if rng.random() < 0.3]
            for rows in (range(1, n), shuffled, decreasing):
                for r in rows:
                    mask = _row(state, n, r)
                    assert mask == _bisection_row(oracle, n, r), (d, r)
                    assert _row(neg, n, r) == full ^ mask, (d, r)
                    assert _row(entry, n, r) == mask, (d, r)
                    assert _row(entry[::-1], n, r) == full ^ mask, (d, r)
                    if r == 1:
                        up = sum(1 << k for k in range(n) if key[(k + 1) % n] > key[k])
                        assert mask == up == full ^ decided[d][0], d
                    bits = [mask >> j & 1 for j in range(n)]
                    assert mask >> n == 0
                    assert bits == [int(key[(j + r) % n] > key[j]) for j in range(n)], (d, r)
                    assert bits[lo] and not bits[hi]
                    assert sum(bits[j] > bits[j - 1] for j in range(n)) == 1


def test_one_comparison_row_state_per_axis(monkeypatch):
    # A set's first dp_table or decide_pdce on a UDLR path builds one state
    # for y (U, D) and one for x (L, R), and each reads the set's cached axis
    # order and extreme indices: no column is sorted or scanned for its min
    # or max. A first decide on a UD path builds the y state alone, and a
    # later UDLR path adds only the x state. Every later call on the set, by
    # either entry and on any path, builds none and leaves the set's cached
    # orders in place.
    made = []
    real = pdce.decider._comparison_state

    def scan(*args, **kwargs):
        raise AssertionError("a column was sorted or scanned")

    monkeypatch.setattr(
        pdce.decider, "_comparison_state", lambda *args: made.append(args) or real(*args)
    )
    for name in ("min", "max", "sorted"):
        monkeypatch.setattr(pdce.decider, name, scan, raising=False)
    p = DirPath(("UDLR" * 10)[:39])
    ud = DirPath(("UD" * 20)[:39])
    for first in (dp_table, decide_pdce):
        s = generate_random_convex(40, seed="axes")
        made.clear()
        first(p, s)
        assert len(made) == 2, first.__name__
        assert {id(args[0]) for args in made} == {id(s.x_order), id(s.y_order)}, first.__name__
        orders = s.x_order, s.y_order
        made.clear()
        for run in (dp_table, decide_pdce):
            for q in (p, ud, DirPath("L" * 39), DirPath(p.labels[::-1])):
                run(q, s)
        assert not made, first.__name__
        assert s.x_order is orders[0] and s.y_order is orders[1]
    s = generate_random_convex(40, seed="axes")
    for q, order in ((ud, s.y_order), (p, s.x_order), (p, None), (ud, None)):
        made.clear()
        decide_pdce(q, s)
        assert [id(args[0]) for args in made] == ([id(order)] if order else [])


def _read_x_order(s):
    s.x_order
    return s


def _warm(s):
    # A twin already decided on a one-axis path: it holds the y state and
    # the U and D masks, and no x state.
    t = validate(zip(s.xs, s.ys))
    decide_pdce(DirPath(("UD" * s.n)[: s.n - 1]), t)
    return t


# Doors other than validate() into the decider, each giving a set whose
# decider state is still to build, or half built: symmetry images, with
# seeded extremes and axis orders still to compute; a pickle round trip; a
# set whose x_order was read before its first decide; and a warm set.
_DOORS = {
    "rotate": rotate_set,
    "mirror": mirror_set,
    "mirror-rotate": lambda s: mirror_set(rotate_set(s)),
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
    "x_order-read": lambda s: _read_x_order(validate(zip(s.xs, s.ys))),
    "warm": _warm,
}
_CACHED = {"x_order-read": {"x_order"}, "warm": {"y_order", "_decider"}}


def test_rows_on_derived_and_restored_sets():
    # On each door's set, _rows and dp_table equal the reference and the
    # rows of the same points validated anew, and decide_pdce gives the
    # answer and the witness of that fresh twin, whose orders and decider
    # state are built on first use. Every door meets both answers: random
    # 4-label paths meet NO on general sets of 40 points or more.
    rng = random.Random(0xD005)
    answers = dict.fromkeys(itertools.product(_DOORS, (True, False)), 0)
    for i in range(60):
        mode = GENERATOR_MODES[i % len(GENERATOR_MODES)]
        n = rng.randint(40, 56) if mode == "general" else rng.randint(2, 24)
        base = generate_random_convex(n, seed=f"doors-{i}", mode=mode)
        for door, make in _DOORS.items():
            p = random_path(rng, n, "UDR" if i % 4 == 1 else "UDLR")
            fresh = make(base)
            cached = {"x_order", "y_order", "_decider"} & vars(fresh).keys()
            assert cached == _CACHED.get(door, set()), door
            if door == "warm":
                assert {"y", "U"} <= fresh._decider.keys() <= {"y", "U", "D"}
            w = decide_pdce(p, fresh)
            yes = _assert_matches_reference(p, make(base))
            twin = validate(zip(fresh.xs, fresh.ys))
            assert twin == fresh
            assert _row_list(p, make(base)) == _row_list(p, twin), (door, i)
            expected = decide_pdce(p, twin)
            assert yes == (w is not None), (door, i)
            assert (w and w.assignment) == (expected and expected.assignment), (door, i)
            answers[door, yes] += 1
    assert all(answers.values()), answers
    assert sum(answers[door, True] for door in _DOORS) >= 60, answers
    assert sum(answers[door, False] for door in _DOORS) >= 20, answers


def test_exact_at_coordinate_limit():
    s = _at_coordinate_limit()
    assert s.n == 8 and max(max(abs(pt.x), abs(pt.y)) for pt in s.points) == COORD_LIMIT
    p_no, s_no = _counterexample_at_coordinate_limit()
    assert min(pt.y for pt in s_no.points) == -COORD_LIMIT
    assert max(pt.x for pt in s_no.points) == COORD_LIMIT
    rng = random.Random(0x2_30)
    cases = [(p_no, s_no)]
    cases += [(random_path(rng, s.n), s) for _ in range(300)]
    cases += [(random_path(rng, s_no.n), s_no) for _ in range(300)]
    answers = {True: 0, False: 0}
    for p, t in cases:
        yes = _assert_matches_reference(p, t)
        w = decide_pdce(p, t)
        hits = brute_force_pdce(p, t)
        assert yes == (w is not None) == bool(hits)
        if w is not None:
            assert w.assignment in {h.assignment for h in hits}
        answers[yes] += 1
    assert answers[False] >= 1 and answers[True] >= 1


def test_full_table_three_labels_at_n2000():
    # Criterion 9 draws random 4-label paths whose frontier dies early; a
    # 3-label path keeps every row alive, so this times the whole table.
    decide_pdce(DirPath("UD"), generate_random_convex(3, seed=0))  # warm-up
    s = generate_random_convex(2000, seed="full-2000")
    p = random_path(random.Random(2000), s.n, "UDR")
    t0 = time.perf_counter()
    w = decide_pdce(p, s)
    dt = time.perf_counter() - t0
    assert w is not None
    assert dt < 2.0, f"decide at n=2000 on a 3-label path took {dt:.2f}s (budget 2s)"
    assert all(type(i) is int for i in w.assignment)
    assert validate_embedding(p, s, w).is_pdce


# --- frozen witnesses ---------------------------------------------------------

_CELL_BYTES = bytes.maketrans(b"01", b"\0\1")
DECIDER_CORPUS_SHA256 = "4c2ff8099a5b550167cac4af92ea054822d5e5bb642855b9b908f259ac9f6f6f"


def _decider_corpus():
    # The criterion-2 instances, seeded instances over every mode and the
    # alphabets UDR, UDLR and LD at n 1..200, the packaged counterexample and
    # two instances at n=1000, one YES and one NO. Only general sets meet NO
    # on random 4-label paths, so they get 300 extra instances.
    for n in (4, 5, 6):
        s = _circle.generate_random_convex(n, seed=f"c2-exh-{n}")
        for labels in itertools.product("UDLR", repeat=n - 1):
            yield DirPath("".join(labels)), s
    rng = random.Random(0xC2)
    for i in range(2000):
        n = rng.randint(1, 10)
        s = _circle.generate_random_convex(n, seed=f"c2-rnd-{i}")
        yield random_path(rng, n), s
    rng = random.Random("decider-corpus")
    cases = [(mode, a) for mode in GENERATOR_MODES for a in ("UDR", "UDLR", "LD")]
    cases = cases * 30 + [("general", "UDLR")] * 300
    for i, (mode, alphabet) in enumerate(cases):
        s = _circle.generate_random_convex(rng.randint(1, 200), seed=f"dc-{i}", mode=mode)
        yield random_path(rng, s.n, alphabet), s
    p, s, _ = load_counterexample()
    yield p, s
    for alphabet in ("UDR", "UDLR"):
        s = _circle.generate_random_convex(1000, seed=f"dc-1000-{alphabet}")
        yield random_path(random.Random(alphabet), s.n, alphabet), s


def test_decider_witness_corpus_frozen():
    digest = hashlib.sha256()
    answers = {True: 0, False: 0}
    for p, s in _decider_corpus():
        w = decide_pdce(p, s)
        t = dp_table(p, s)
        answers[w is not None] += 1
        digest.update(f"{p.labels} {s.n} {w.assignment if w else 'NO'}\n".encode("ascii"))
        # One byte, 0 or 1, per cell, row by row: near, then far.
        cells = "".join(_cells(row, s.n) for row in t.near_bits + t.far_bits)
        digest.update(cells.encode().translate(_CELL_BYTES))
    assert answers[False] >= 200, answers
    assert digest.hexdigest() == DECIDER_CORPUS_SHA256, (answers, digest.hexdigest())


def test_decide_and_embed_do_not_import_numpy():
    # numpy serves only the DPTable matrix view.
    probe = (
        "import sys, pdce\n"
        "from pdce.render import render_svg\n"
        "s = pdce.generate_random_convex(60, seed=1)\n"
        "pdce.decide_pdce(pdce.DirPath('UDLR' * 14 + 'UDL'), s)\n"
        "p = pdce.DirPath('UDR' * 19 + 'UD')\n"
        "e = pdce.embed_three_directional(p, s)\n"
        "assert pdce.validate_embedding(p, s, e).is_pdce\n"
        "render_svg(p, s, e)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ)
    root = str(Path(pdce.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# --- resumable row loop and checkpointed walk ---------------------------------


def test_rows_resume_from_any_row():
    # Resumed from row r's pair, for every third row r that lives, the loop
    # computes what one uninterrupted run from row 0 does: the same last row
    # and pair, the same choice rows past r, and nothing at or before r.
    # Stopped at any later row, it returns that row's pair as dp_table holds
    # it, or the pair of the row before the first empty one.
    # Random 4-label paths meet NO on general sets of 40 points or more.
    rng = random.Random(0x5E5)
    answers = {True: 0, False: 0}
    for i in range(150):
        mode = "general" if i % 2 else GENERATOR_MODES[i // 2 % len(GENERATOR_MODES)]
        n = rng.randint(40, 80) if i % 2 else rng.randint(2, 40)
        s = _circle.generate_random_convex(n, seed=f"resume-{i}", mode=mode)
        p = random_path(rng, s.n, "UDR" if i % 4 == 0 else "UDLR")
        n, state, t = s.n, decider._state(p.labels, s), dp_table(p, s)
        last, *whole = _row_list(p, s)
        for r in range(0, last + 1, 3):
            row = t.near_bits[r], t.far_bits[r]
            nn, fn = [None] * n, [None] * n
            got = decider._rows(p.labels, state, n, r, *row, n - 1, nn, fn)
            assert got == (last, *whole[:2]), (i, r)
            assert nn[: r + 1] == fn[: r + 1] == [None] * (r + 1), (i, r)
            choice = itertools.chain.from_iterable(zip(nn[r + 1 : last + 1], fn[r + 1 : last + 1]))
            assert list(choice) == whole[2 + 2 * r :], (i, r)
            stop = rng.randint(r, n - 1)
            end = stop if stop < last else last
            got = decider._rows(p.labels, state, n, r, *row, stop, nn, fn)
            assert got == (end, t.near_bits[end], t.far_bits[end]), (i, r, stop)
        answers[last == n - 1] += 1
    assert answers[True] >= 40 and answers[False] >= 20, answers


def test_checkpointed_walk_matches_one_block(monkeypatch):
    # With the budget patched to blocks of 1, 2, 3 and 7 rows, decide_pdce
    # keeps a checkpoint per block, computes each block but the last again
    # on the window of width rows+1 that the walk back can reach, and
    # returns the one-block witness, or None, on every instance of the
    # decider corpus.
    cases = list(_decider_corpus())
    expected = [decide_pdce(p, s) for p, s in cases]
    real = decider._rows
    calls = []

    def spy(labels, state, n, r, near, far, stop, nn, fn):
        calls.append((stop - r, n))
        return real(labels, state, n, r, near, far, stop, nn, fn)

    monkeypatch.setattr(decider, "_rows", spy)
    for block in (1, 2, 3, 7):
        windows = 0
        for (p, s), e in zip(cases, expected):
            monkeypatch.setattr(decider, "_CHOICE_BYTES", _block_budget(s.n, block))
            calls.clear()
            w = decide_pdce(p, s)
            assert (w and w.assignment) == (e and e.assignment), (block, p.labels)
            n = s.n
            stops = [*range(block, n - 1, block), n - 1]
            spans = [(b - a, n) for a, b in zip([0, *stops], stops)]
            if w is None:
                assert calls == spans[: len(calls)], (block, p.labels)
                continue
            width = block + 1 if block + 1 < n else n
            again = [(rows, width) for rows, _ in spans[-2::-1]]
            assert calls == spans + again, (block, p.labels)
            if width < n:
                windows += len(again)
        assert windows >= 500, block


def test_windowed_rows_are_exact_on_the_bits_the_walk_reads():
    # On seeded sets of every mode, a window of width = stop-start+1 < n
    # anchors from a random anchor w: the loop under _window, stepped from
    # row start's cut pair, gives each row start+i and its choice rows as
    # the full rows turned to anchor w, on their low width-i bits. The cuts
    # of C_t meet both conventions: empty, S[t] == E[t], and whole, (0, width).
    rng = random.Random(0x3D0)
    cuts = {"empty": 0, "whole": 0}
    windows = 0
    for i in range(240):
        mode = GENERATOR_MODES[i % len(GENERATOR_MODES)]
        s = _circle.generate_random_convex(rng.randint(3, 80), seed=f"window-{i}", mode=mode)
        p = random_path(rng, s.n, ("UDR", "UDLR", "LD")[i % 3])
        n, full = s.n, (1 << s.n) - 1
        state, t = decider._state(p.labels, s), dp_table(p, s)
        last, _, _, *choice = _row_list(p, s)
        if last < 1:
            continue
        start = rng.randint(0, last - 1)
        stop = rng.randint(start + 1, min(last, start + n - 2))
        width, w = stop - start + 1, rng.randrange(n)

        def turn(bits):
            return (bits >> w | bits << (n - w)) & full

        window, near, far = decider._window(
            state, n, w, width, start, stop, t.near_bits[start], t.far_bits[start]
        )
        assert window.keys() == state.keys() & set("UDLR")
        for d in set(p.labels):
            S_w, E_w = window[d][2:]
            for u in range(start + 1, stop + 1):
                assert 0 <= S_w[u] <= width and 0 <= E_w[u] <= width, (i, d, u)
                cuts["empty"] += S_w[u] == E_w[u]
                cuts["whole"] += (S_w[u], E_w[u]) == (0, width)
        cut = (1 << width) - 1
        assert (near, far) == (turn(t.near_bits[start]) & cut, turn(t.far_bits[start]) & cut)
        for u in range(start + 1, stop + 1):
            nn, fn = [0] * (stop + 1), [0] * (stop + 1)  # a dead row writes none
            got, near, far = decider._rows(p.labels, window, width, u - 1, near, far, u, nn, fn)
            if got < u:
                near = far = 0
            low = (1 << (width - (u - start))) - 1
            rows = (near, far, nn[u], fn[u])
            whole = (t.near_bits[u], t.far_bits[u], *choice[2 * u - 2 : 2 * u])
            assert [x & low for x in rows] == [turn(x) & low for x in whole], (i, u)
        windows += 1
    assert windows >= 200 and all(cuts.values()), (windows, cuts)


def test_checkpoints_bound_peak_memory(monkeypatch):
    # A YES at n = 2000 with a budget of an eighth of its rows peaks at no
    # more than a quarter of what the one-block walk allocates, and gives
    # its witness.
    s = generate_random_convex(2000, seed="checkpoints-2000")
    p = random_path(random.Random(2000), s.n, "UDR")
    decide_pdce(p, s)  # builds the set's decider state

    def peak():
        tracemalloc.start()
        try:
            w = decide_pdce(p, s)
            return tracemalloc.get_traced_memory()[1], w
        finally:
            tracemalloc.stop()

    whole, w = peak()
    monkeypatch.setattr(decider, "_CHOICE_BYTES", _block_budget(s.n, (s.n - 1) // 8))
    eighth, w8 = peak()
    assert w is not None and w8.assignment == w.assignment
    assert eighth <= whole / 4, (eighth, whole)


_STEP = {
    "U": lambda xs, ys, a, b: ys[b] > ys[a],
    "D": lambda xs, ys, a, b: ys[b] < ys[a],
    "R": lambda xs, ys, a, b: xs[b] > xs[a],
    "L": lambda xs, ys, a, b: xs[b] < xs[a],
}


def _longest_arc_walk(labels, xs, ys):
    """The most vertices a label-respecting arc walk places, by enumeration:
    start on any position, then step to lo-1 or hi+1 (mod n) of the arc
    {lo, .., hi} placed so far."""
    n = len(xs)
    best = 1

    def walk(lo, size, cur):
        nonlocal best
        best = max(best, size)
        if size == n:
            return
        step = _STEP[labels[size - 1]]
        for nxt, lo_next in (((lo - 1) % n, (lo - 1) % n), ((lo + size) % n, lo)):
            if step(xs, ys, cur, nxt):
                walk(lo_next, size + 1, nxt)

    for start in range(n):
        walk(start, 1, start)
    return best


def test_no_depth_matches_arc_walks():
    # The row the loop stops at is one less than the longest prefix of the
    # path that some label-respecting arc walk places; on a YES that is the
    # whole path. This is the depth a NO reaches. Random 4-label paths on
    # sets of every mode at n = 5..8 are YES all but never, so every second
    # path goes on a general set of 40 to 60 points, where most are NO, and
    # the packaged counterexample adds a NO at n = 7.
    rng = random.Random(0xDE9)
    p, s, _ = load_counterexample()
    cases = [(p, s)]
    for i in range(200):
        if i % 2:
            s = _circle.generate_random_convex(rng.randint(40, 60), seed=f"depth-{i}")
        else:
            mode = GENERATOR_MODES[i // 2 % len(GENERATOR_MODES)]
            s = _circle.generate_random_convex(rng.randint(5, 8), seed=f"depth-{i}", mode=mode)
        cases.append((random_path(rng, s.n), s))
    answers = {True: 0, False: 0}
    for p, s in cases:
        n, full = s.n, (1 << s.n) - 1
        state = decider._state(p.labels, s)
        last, _, _ = decider._rows(p.labels, state, n, 0, full, full, n - 1, [0] * n, [0] * n)
        assert _longest_arc_walk(p.labels, s.xs, s.ys) == last + 1, (p.labels, s)
        answers[last == n - 1] += 1
    assert answers[True] >= 100 and answers[False] >= 50, answers


# --- deep NOs -------------------------------------------------------------------


def _deep_path(rng, n):
    # A random U/D/R path whose last n // 10 labels are random U/D/L/R. Its
    # U/D/R head always embeds, so a NO dies in the tail, after about 90 % of
    # its rows. Of the six generator modes, only general sets gave NOs.
    tail = n // 10
    head = "".join(rng.choice("UDR") for _ in range(n - 1 - tail))
    return DirPath(head + "".join(rng.choice("UDLR") for _ in range(tail)))


def _last_live_row(t):
    return max(r for r, (a, b) in enumerate(zip(t.near_bits, t.far_bits)) if a | b)


def test_deep_nos_stop_on_the_tables_last_live_row():
    # Each NO's last row, from one run of _rows, is dp_table's last
    # non-empty one, and its depth, the share of the n vertices its longest
    # label-respecting prefix places, is read from that row too.
    rng = random.Random(0xDEE9)
    depths = []
    for i in range(30):
        s = _circle.generate_random_convex(rng.randint(500, 640), seed=f"deep-no-{i}")
        p = _deep_path(rng, s.n)
        n, full = s.n, (1 << s.n) - 1
        last, _, _ = decider._rows(p.labels, decider._state(p.labels, s), n, 0, full, full,
                                   n - 1, [0] * n, [0] * n)
        assert last == _last_live_row(dp_table(p, s)), i
        assert (decide_pdce(p, s) is None) == (last < n - 1), i
        if last < n - 1:
            depths.append((last + 1) / n)
    assert sum(d >= 0.8 for d in depths) >= 20, depths


def test_deep_family_matches_reference_at_small_n():
    # The same family at n <= 80, held cell by cell to the reference
    # recurrence: 36 instances over every mode, then 164 general ones at
    # n = 70..80, where about one path in twenty is a NO.
    rng = random.Random(0xDEE8)
    answers = {True: 0, False: 0}
    for i in range(200):
        mode = GENERATOR_MODES[i % len(GENERATOR_MODES)] if i < 36 else "general"
        n = rng.randint(10, 80) if i < 36 else rng.randint(70, 80)
        s = _circle.generate_random_convex(n, seed=f"deep-ref-{i}", mode=mode)
        answers[_assert_matches_reference(_deep_path(rng, s.n), s)] += 1
    assert answers[True] and answers[False] >= 3, answers
