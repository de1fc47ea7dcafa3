import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
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


def test_counterexample_fixture_is_no(monkeypatch):
    p, s, _ = load_counterexample()
    assert decide_pdce(p, s) is None
    # A full-length state that no earlier row leads to: the backward walk
    # finds no predecessor and says so instead of inventing one.
    real = decider.dp_table

    def forged(p, s):
        t = real(p, s)
        t.near_bits[-1] |= 1
        return t

    monkeypatch.setattr(decider, "dp_table", forged)
    with pytest.raises(InternalCaseError, match="witness reconstruction lost the trail"):
        decide_pdce(p, s)


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


# --- reference recurrence ----------------------------------------------------


def _reference_table(p, s):
    """Pure-Python DP straight from the DPTable docstring, every row computed.

    The cell (r, j) is the arc {j, .., j+r}; its near end is j, reached from
    the arc {j+1, .., j+r}, and its far end is j+r, reached from the arc
    {j, .., j+r-1}. Either way the previous current vertex is one of the two
    ends of the previous arc, and the step to the new end must respect label
    r-1.
    """
    n, pts = s.n, s.points
    near = [[True] * n] + [[False] * n for _ in range(n - 1)]
    far = [[True] * n] + [[False] * n for _ in range(n - 1)]
    for r in range(1, n):
        d = p.labels[r - 1]
        for j in range(n):
            a = (j + 1) % n  # anchor of the arc left when j is removed
            near[r][j] = (near[r - 1][a] and edge_ok(d, pts[a], pts[j])) or (
                far[r - 1][a] and edge_ok(d, pts[(a + r - 1) % n], pts[j])
            )
            b = (j + r) % n  # the far end, added to the arc {j, .., j+r-1}
            far[r][j] = (near[r - 1][j] and edge_ok(d, pts[j], pts[b])) or (
                far[r - 1][j] and edge_ok(d, pts[(j + r - 1) % n], pts[b])
            )
    return near, far


def _cells(row: int, n: int) -> str:
    """Bit j of an n-bit table row as character j, "0" or "1"."""
    return format(row, f"0{n}b")[::-1]


def _live_cells(t) -> list[int]:
    return [a.bit_count() + b.bit_count() for a, b in zip(t.near_bits, t.far_bits)]


def _assert_matches_reference(p, s) -> bool:
    """Assert dp_table equals the reference exactly; return the answer."""
    t = dp_table(p, s)
    ref_near, ref_far = _reference_table(p, s)
    assert len(t.near_bits) == len(t.far_bits) == s.n
    for bits, ref in ((t.near_bits, ref_near), (t.far_bits, ref_far)):
        for r, (row, ref_row) in enumerate(zip(bits, ref)):
            assert _cells(row, s.n) == "".join("01"[cell] for cell in ref_row), r
    live = _live_cells(t)
    if 0 in live:
        assert not any(live[live.index(0):])
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
        s = generate_random_convex(rng.randint(1, 60), seed=f"ref-{i}", mode=mode)
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


def _row(state, n, r):
    # C_r from an axis's comparison state, one bit at a time.
    lo, rising, falling, ordered = state
    a = bisect_left(rising, ordered[n - r])
    b = bisect_left(falling, ordered[r])
    return sum(1 << (lo - b + i) % n for i in range(a + b))


def test_comparison_rows_are_cyclic_intervals():
    # The state answers any r in any order: every r increasing, a shuffled
    # and a decreasing choice of r. Each C_r equals the brute-force mask, is
    # one cyclic run of 1s holding lo and not hi, and the up mask
    # {k : key[k+1] > key[k]} is C_1. The decider reads D and L off the
    # states of U and R: C_r of the negated key is the complement of C_r.
    # Sets from the symmetry operators carry seeded extremes, and generated
    # sets read theirs from the columns; both are checked against min and max.
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
        for d in "UDLR":
            key = _label_key(d, s)
            lo, hi = _label_ends(d, s)
            assert key[lo] == min(key) and key[hi] == max(key)
            state = _comparison_state(key, lo, hi)
            neg = _comparison_state([-v for v in key], hi, lo)
            shuffled = [r for r in range(1, n) if rng.random() < 0.3]
            rng.shuffle(shuffled)
            decreasing = [r for r in range(n - 1, 0, -1) if rng.random() < 0.3]
            for rows in (range(1, n), shuffled, decreasing):
                for r in rows:
                    mask = _row(state, n, r)
                    assert _row(neg, n, r) == full ^ mask, (d, r)
                    if r == 1:
                        up = sum(1 << k for k in range(n) if key[(k + 1) % n] > key[k])
                        assert mask == up, d
                    bits = [mask >> j & 1 for j in range(n)]
                    assert mask >> n == 0
                    assert bits == [int(key[(j + r) % n] > key[j]) for j in range(n)], (d, r)
                    assert bits[lo] and not bits[hi]
                    assert sum(bits[j] > bits[j - 1] for j in range(n)) == 1


def test_one_comparison_row_state_per_axis(monkeypatch):
    # A UDLR path builds one state for y (U, D) and one for x (L, R), and
    # takes each axis's ends from the set's extreme indices: dp_table scans
    # no column for its min or max.
    s = generate_random_convex(40, seed="axes")
    made = []
    real = pdce.decider._comparison_state

    def scan(*args):
        raise AssertionError("a column was scanned")

    monkeypatch.setattr(
        pdce.decider, "_comparison_state", lambda *args: made.append(args) or real(*args)
    )
    monkeypatch.setattr(pdce.decider, "min", scan, raising=False)
    monkeypatch.setattr(pdce.decider, "max", scan, raising=False)
    dp_table(DirPath(("UDLR" * 10)[:39]), s)
    assert len(made) <= 2


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
        s = generate_random_convex(n, seed=f"c2-exh-{n}")
        for labels in itertools.product("UDLR", repeat=n - 1):
            yield DirPath("".join(labels)), s
    rng = random.Random(0xC2)
    for i in range(2000):
        n = rng.randint(1, 10)
        s = generate_random_convex(n, seed=f"c2-rnd-{i}")
        yield random_path(rng, n), s
    rng = random.Random("decider-corpus")
    cases = [(mode, a) for mode in GENERATOR_MODES for a in ("UDR", "UDLR", "LD")]
    cases = cases * 30 + [("general", "UDLR")] * 300
    for i, (mode, alphabet) in enumerate(cases):
        s = generate_random_convex(rng.randint(1, 200), seed=f"dc-{i}", mode=mode)
        yield random_path(rng, s.n, alphabet), s
    p, s, _ = load_counterexample()
    yield p, s
    for alphabet in ("UDR", "UDLR"):
        s = generate_random_convex(1000, seed=f"dc-1000-{alphabet}")
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
