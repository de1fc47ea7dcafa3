import itertools
import random
import sys
import time

import pytest
from hypothesis import given

from pdce import (
    DirPath,
    DuplicateY,
    Embedding,
    InternalCaseError,
    InvalidEmbedding,
    PreconditionViolated,
    SizeMismatch,
    certificate,
    check_direction_consistency,
    check_planarity_prefix,
    check_planarity_segments,
    edge_ok,
    embed_three_directional,
    generate_random_convex,
    rotate_embedding,
    rotate_set,
    validate,
    validate_embedding,
)
from pdce import embedder, validator
from pdce.render import render_svg
from pdce.geometry import COORD_LIMIT, ConvexPointSet, Point, orientation, segments_intersect
from pdce.validator import _sweep
from conftest import ALL_MODES, convex_sets, random_path

try:
    import numpy as np
except ImportError:
    np = None

S5 = validate([(4, 0), (3, 6), (1, 5), (0, 3), (2, 1)])
# canonical order: (3,6),(1,5),(0,3),(2,1),(4,0)
URDU_E = Embedding((2, 1, 3, 4, 0))  # v1..v5 -> (0,3),(1,5),(2,1),(4,0),(3,6)


def test_edge_ok_strict():
    # edge_ok takes any (x, y) pairs; a Point is one of them.
    a, b = (0, 0), Point(1, 1)
    assert edge_ok("U", a, b) and edge_ok("R", a, b)
    assert not edge_ok("D", a, b) and not edge_ok("L", a, b)
    assert edge_ok("D", b, a) and edge_ok("L", b, a)
    # ties never pass
    assert not edge_ok("U", (0, 0), (1, 0))
    assert not edge_ok("R", (0, 0), (0, 1))
    with pytest.raises(PreconditionViolated, match="unknown edge label 'X'"):
        edge_ok("X", a, b)


def test_direction_consistency_frozen_example():
    ok, bad = check_direction_consistency(DirPath("URDU"), S5, URDU_E)
    assert ok and bad is None


def test_direction_violation_reports_first_edge():
    s = validate([(0, 0), (1, 1)])
    ok, bad = check_direction_consistency(DirPath("U"), s, Embedding((0, 1)))
    assert not ok and bad == 0  # edge v1->v2 points down


def test_single_point_consistent():
    s = validate([(7, 7)])
    ok, bad = check_direction_consistency(DirPath(""), s, Embedding((0,)))
    assert ok and bad is None


def test_prefix_frozen_example():
    assert check_planarity_prefix(S5, URDU_E)
    assert check_planarity_segments(S5, URDU_E)


def test_prefix_violation_on_square():
    s = validate([(1, 10), (-5, 5), (0, 0), (5, 4)])
    e = Embedding((0, 2, 1, 3))
    assert not check_planarity_prefix(s, e)
    assert not check_planarity_segments(s, e)
    report = validate_embedding(DirPath("DUD"), s, e)
    assert report.first_violation == ("prefix", 1)


def test_three_points_always_planar():
    s = generate_random_convex(3, seed=9)
    for perm in itertools.permutations(range(3)):
        assert check_planarity_prefix(s, Embedding(perm))
        assert check_planarity_segments(s, Embedding(perm))


@given(convex_sets(min_n=4, max_n=6))
def test_prefix_equals_segments_exhaustive(s):
    for perm in itertools.permutations(range(s.n)):
        e = Embedding(perm)
        assert check_planarity_prefix(s, e) == check_planarity_segments(s, e)


def test_report_direction_first():
    # direction breaks before planarity in the report ordering
    s = validate([(1, 10), (-5, 5), (0, 0), (5, 4)])
    report = validate_embedding(DirPath("UUU"), s, Embedding((0, 2, 1, 3)))
    assert report.first_violation[0] == "direction"
    assert not report.is_pdce
    d = report.to_json_dict()
    assert d["is_pdce"] is False and d["first_violation"][0] == "direction"


def test_non_convex_columns_are_refused_at_the_door():
    # Walking these points in order passes the labels LRLLR and the prefix
    # arcs, yet crosses: two share a y value and one lies inside the hull of
    # the rest, so no set holds them.
    pts = [(12, 9), (1, 0), (10, 0), (0, 10), (-1, 4), (4, 5)]
    with pytest.raises(DuplicateY):
        validate(pts)
    with pytest.raises(PreconditionViolated, match=r"built by validate\(\)"):
        ConvexPointSet(*map(tuple, zip(*pts)))


def test_report_segments_last(monkeypatch):
    # On a set that validate() accepted, a drawing that passes its labels and
    # the prefix arcs is crossing-free: only a segment route that disagrees
    # with the prefix route reports ("segments",), so force one.
    monkeypatch.setattr(validator, "_sweep", lambda xs, ys: False)
    report = validate_embedding(DirPath("URDU"), S5, URDU_E)
    assert report.direction_consistent and report.planar_prefix
    assert not report.planar_segments
    assert report.first_violation == ("segments",)
    assert report.to_json_dict()["first_violation"] == ["segments"]


def test_is_pdce_on_frozen_example():
    report = validate_embedding(DirPath("URDU"), S5, URDU_E)
    assert report.is_pdce and report.first_violation is None


def test_malformed_embeddings_rejected():
    with pytest.raises(InvalidEmbedding):
        validate_embedding(DirPath("URDU"), S5, Embedding((0, 1, 2, 3)))
    with pytest.raises(InvalidEmbedding):
        validate_embedding(DirPath("URDU"), S5, Embedding((0, 1, 2, 3, 3)))
    with pytest.raises(InvalidEmbedding):
        validate_embedding(DirPath("URDU"), S5, Embedding((0, 1, 2, 3, 9)))


def test_non_int_indices_rejected():
    # True == 1, so this is URDU_E with its vertex 2 spelled as a bool
    cases = [Embedding((2, True, 3, 4, 0))]
    if np is not None:
        cases.append(Embedding(tuple(np.array(URDU_E.assignment))))
    for e in cases:
        with pytest.raises(InvalidEmbedding, match="not a plain int"):
            validate_embedding(DirPath("URDU"), S5, e)
        with pytest.raises(InvalidEmbedding, match="not a plain int"):
            check_planarity_prefix(S5, e)


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        validate_embedding(DirPath("U"), S5, URDU_E)


def test_one_index_scan_per_call(monkeypatch):
    # Count the index scan under every name any pdce module binds it to.
    original = validator.require_well_formed
    scans = []

    def counted(*args, **kwargs):
        scans.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "pdce" or name.startswith("pdce.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    p = DirPath("URDU")
    for call, expected in (
        (lambda: validate_embedding(p, S5, URDU_E), 1),
        (lambda: render_svg(p, S5, URDU_E), 1),
        (lambda: render_svg(p, S5, URDU_E, force=True), 1),
        (lambda: certificate(p, S5), 0),  # 5 * 2^3 enumerated candidates
    ):
        scans.clear()
        call()
        assert len(scans) == expected


def test_require_pdce_reports_malformed_answer_as_bug(monkeypatch):
    # -1 reads as the last point, so the verdict pass and the prefix core
    # accept this answer; the index scan rejects it, and a malformed library
    # answer is a bug (InternalCaseError), not bad input (InvalidEmbedding).
    s = generate_random_convex(9, seed=2, mode="general")
    bad = Embedding(tuple(range(-1, s.n - 1)))
    pts = [s.points[i] for i in bad.assignment]
    p = DirPath("".join("U" if b.y > a.y else "D" for a, b in zip(pts, pts[1:])))
    assert validator._verdicts(p.labels, s.xs, s.ys, bad.assignment) == (None, None)
    assert validator._first_prefix_failure(s, bad) is None
    monkeypatch.setattr(embedder, "_embed_three_directional", lambda p, s: bad)
    with pytest.raises(InternalCaseError, match="three-directional: point index -1 out of range"):
        embed_three_directional(p, s)


def _composite_verdict(p, s, e):
    # The per-rule checks that decided require_pdce before the fused pass:
    # size and index scan, each edge through edge_ok on Points, prefix arcs.
    # None for a valid answer, else the message require_pdce must give.
    try:
        validator.require_same_size(p, s)
        validator.require_well_formed(s, e)
    except InvalidEmbedding as exc:
        return str(exc)
    bad = _first_bad_label(p, s, e.assignment)
    if bad is not None:
        return f"edge {bad} violates its label"
    if validator._first_prefix_failure(s, e) is not None:
        return "the drawing has a crossing"
    return None


def _mutants(rng, a, n):
    # Each kind of damage the fused check must catch exactly as the
    # per-rule checks do; a mutant may happen to stay valid.
    out = []
    if n >= 2:
        i, j = rng.sample(range(n), 2)
        b = list(a)
        b[i], b[j] = b[j], b[i]
        out.append(b)
        b = list(a)
        b[j] = b[i]
        out.append(b)  # one entry twice
    for value in (-1, n, True, 1.0):
        b = list(a)
        b[rng.randrange(n)] = value
        out.append(b)
    out.append(list(a[:-1]))
    out.append(list(a) + [rng.randrange(n)])
    return [tuple(b) for b in out]


def test_fused_answer_check_matches_per_rule_checks():
    rng = random.Random("fused-check")
    answers = 0
    rules = set()  # last word of each rejection message
    for mode in ALL_MODES:
        for n in (1, 2, 3, 4, 5, 6, 8, 11, 16, 23, 32, 45, 60):
            s = generate_random_convex(n, seed=rng.randrange(10**9), mode=mode)
            for subset in ("UDR", "UDL", "ULR", "DLR"):
                p = random_path(rng, n, subset)
                e = embed_three_directional(p, s)
                answers += 1
                for a in [e.assignment] + _mutants(rng, e.assignment, n):
                    emb = Embedding(a)
                    want = _composite_verdict(p, s, emb)
                    if want is None:
                        assert validator.require_pdce(p, s, emb, "ctx") is emb
                        continue
                    rules.add(want.rsplit(" ", 1)[-1])
                    with pytest.raises(InternalCaseError) as info:
                        validator.require_pdce(p, s, emb, "ctx")
                    assert str(info.value) == f"ctx: {want}", (mode, n, a)
                    if set(map(type, a)) == {int} and sorted(a) == list(range(n)):
                        # The column core names the first bad edge and vertex.
                        verdicts = (_first_bad_label(p, s, a), _first_non_arc_prefix(n, a))
                        assert validator._verdicts(p.labels, s.xs, s.ys, a) == verdicts
    assert answers == 6 * 13 * 4
    assert rules == {"range", "int", "points", "twice", "label", "crossing"}


def _first_bad_label(p, s, a):
    # The first edge that breaks its label, through edge_ok on Points.
    pts = s.points
    return next(
        (k for k, d in enumerate(p.labels) if not edge_ok(d, pts[a[k]], pts[a[k + 1]])), None
    )


def _first_non_arc_prefix(n, a):
    # The first i for which a[0..i] is not a cyclic run of hull positions:
    # a run of k < n positions has exactly one member whose predecessor is
    # not in it.
    for i in range(1, len(a)):
        prefix = set(a[: i + 1])
        if len(prefix) < n and sum((j - 1) % n not in prefix for j in prefix) != 1:
            return i
    return None


def _reference_report(p, s, e):
    # The report from the public checks, one rule at a time.
    ok_direction, bad_edge = check_direction_consistency(p, s, e)
    assert bad_edge == _first_bad_label(p, s, e.assignment)
    ok_prefix = check_planarity_prefix(s, e)
    prefix_fail = _first_non_arc_prefix(s.n, e.assignment)
    assert ok_prefix == (prefix_fail is None)
    ok_segments = check_planarity_segments(s, e)
    if not ok_direction:
        violation = ("direction", bad_edge)
    elif not ok_prefix:
        violation = ("prefix", prefix_fail)
    elif not ok_segments:
        violation = ("segments",)
    else:
        violation = None
    return validator.ValidationReport(ok_direction, ok_prefix, ok_segments, violation)


def _labels_along(s, walk, subset):
    # A path over subset that the walk follows: each step up or down where
    # subset has that label, else left or right; with three labels one of
    # the two always fits, as coordinates are distinct.
    out = []
    for i, j in zip(walk, walk[1:]):
        vertical = "U" if s.ys[j] > s.ys[i] else "D"
        out.append(vertical if vertical in subset else "R" if s.xs[j] > s.xs[i] else "L")
    return DirPath("".join(out))


_FLIP = str.maketrans("UDLR", "DURL")


def _flipped(p, k):
    return DirPath(p.labels[:k] + p.labels[k].translate(_FLIP) + p.labels[k + 1:])


def test_fused_verdicts_match_per_rule_checks():
    # Valid embeddings and four kinds of damage: a flipped label breaks the
    # direction only, a walk off the arcs with labels it follows breaks the
    # prefix only, that walk with one label flipped before or after it
    # leaves the arcs breaks both in either order, and a swap usually breaks
    # both. The verdict pass does not stop at the first break, only once
    # both verdicts are known.
    rng = random.Random("fused-verdicts")
    kinds = set()
    orders = set()
    for mode in ALL_MODES:
        for n in (1, 2, 3, 4, 5, 7, 12, 30, 61):
            s = generate_random_convex(n, seed=rng.randrange(10**9), mode=mode)
            for subset in ("UDR", "UDL", "ULR", "DLR"):
                p = random_path(rng, n, subset)
                e = embed_three_directional(p, s)
                cases = [(p, e)]
                if n >= 2:
                    cases.append((_flipped(p, rng.randrange(n - 1)), e))
                    walk = rng.sample(range(n), n)
                    q = _labels_along(s, walk, subset)
                    cases.append((q, Embedding(tuple(walk))))
                    off = _first_non_arc_prefix(n, walk)
                    if off is not None:
                        # Edge off - 1 leaves the arcs: flip a label at or
                        # after it, and one before it.
                        flips = [rng.randrange(off - 1, n - 1)]
                        if off > 1:
                            flips.append(rng.randrange(off - 1))
                        for k in flips:
                            cases.append((_flipped(q, k), Embedding(tuple(walk))))
                    i, j = rng.sample(range(n), 2)
                    swapped = list(e.assignment)
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    cases.append((p, Embedding(tuple(swapped))))
                for q, f in cases:
                    report = validate_embedding(q, s, f)
                    assert report == _reference_report(q, s, f), (mode, n, q, f)
                    kinds.add((report.direction_consistent, report.planar_prefix))
                    bad_edge, off = validator._verdicts(q.labels, s.xs, s.ys, f.assignment)
                    assert off == _first_non_arc_prefix(n, f.assignment), (mode, n, q, f)
                    if bad_edge is not None and off is not None:
                        orders.add(bad_edge < off - 1)
    assert kinds == {(True, True), (False, True), (True, False), (False, False)}
    assert orders == {True, False}


def test_verdict_pass_stops_once_both_verdicts_are_known():
    # Entry 99 is out of range, so reading its coordinates raises. The pass
    # reaches it only while a verdict is still open.
    s = generate_random_convex(8, seed=1)
    up = lambda i, j: "U" if s.ys[j] > s.ys[i] else "D"  # noqa: E731
    down = lambda i, j: "D" if up(i, j) == "U" else "U"  # noqa: E731
    # Edge 0 breaks its label, then vertex 2 leaves the arc {0, 1}.
    labels = down(0, 1) + up(1, 5) + "UUUUU"
    assert validator._verdicts(labels, s.xs, s.ys, (0, 1, 5, 99, 2, 3, 4, 6)) == (0, 2)
    # Vertex 1 leaves the arc {0}, then edge 1 breaks its label.
    labels = up(0, 5) + down(5, 6) + "UUUUU"
    assert validator._verdicts(labels, s.xs, s.ys, (0, 5, 6, 99, 1, 2, 3, 4)) == (1, 1)
    # With the labels still open, the pass reads entry 99.
    labels = up(0, 5) + up(5, 6) + "UUUUU"
    with pytest.raises(IndexError):
        validator._verdicts(labels, s.xs, s.ys, (0, 5, 6, 99, 1, 2, 3, 4))


def test_valid_embedding_runs_no_per_rule_core(monkeypatch):
    # validate_embedding reads both verdicts from one pass, on valid and on
    # tampered walks alike.
    def core(*args):
        raise AssertionError("a per-rule core ran")

    monkeypatch.setattr(validator, "check_direction_consistency", core)
    monkeypatch.setattr(validator, "_first_prefix_failure", core)
    s = generate_random_convex(40, seed=3)
    for subset in ("UDR", "UDL", "ULR", "DLR"):
        p = random_path(random.Random(subset), s.n, subset)
        e = embed_three_directional(p, s)
        assert validate_embedding(p, s, e).is_pdce
        swapped = list(e.assignment)
        swapped[10], swapped[30] = swapped[30], swapped[10]
        tampered = (
            (p, Embedding(e.assignment[::-1])),
            (_flipped(p, 20), e),
            (p, Embedding(tuple(swapped))),
        )
        for q, f in tampered:
            assert not validate_embedding(q, s, f).is_pdce


def _arc_walk(rng, n):
    # Every prefix a cyclic arc of hull positions: a crossing-free walk.
    lo = hi = rng.randrange(n)
    walk = [lo]
    for _ in range(n - 1):
        if rng.random() < 0.5:
            lo = (lo - 1) % n
            walk.append(lo)
        else:
            hi = (hi + 1) % n
            walk.append(hi)
    return walk


def _walks(rng, n, count):
    """Crossing-free walks, each followed by a copy with two entries swapped."""
    out = []
    for _ in range(count):
        walk = _arc_walk(rng, n)
        out.append(Embedding(tuple(walk)))
        i, j = rng.randrange(n), rng.randrange(n)
        walk[i], walk[j] = walk[j], walk[i]
        out.append(Embedding(tuple(walk)))
    return out


def _seeded_corpus():
    rng = random.Random(0x5E6)
    cases = []
    for k in range(48):
        s = generate_random_convex(rng.randint(1, 150), seed=k, mode=ALL_MODES[k % len(ALL_MODES)])
        cases += [(s, e) for e in _walks(rng, s.n, 1)]
    return cases


def _at_coordinate_limit():
    # Two chains of four points, p_i = -L + i*w + i*i*(1, 1) and its point
    # reflection, with one end moved to (L, L-1): coordinates reach -L, L
    # and L-1, the side terms reach about 2^62, and five triples have a
    # cross product of 2 or 6, far below a float64 ulp of the terms.
    L, w = COORD_LIMIT, (1 << 29, (1 << 29) - 1)
    pts = []
    for i in range(4):
        pts.append((-L + i * w[0] + i * i, -L + i * w[1] + i * i))
        pts.append((L - i * w[0] - i * i, L - i * w[1] - i * i))
    pts[1] = (L, L - 1)
    return validate(pts)


def _segments_scalar(xs, ys):
    """The oracle of the sweep: the pair loop with exact closed-segment
    predicates over the walk through the points (xs[k], ys[k]). Edges i and
    i+1 share a vertex and are not tested, as in the sweep."""
    pts = list(zip(xs, ys))
    edges = list(zip(pts, pts[1:]))
    return not any(
        segments_intersect(*edges[i], *edges[j])
        for i in range(len(edges))
        for j in range(i + 2, len(edges))
    )


def _walk_columns(s, e):
    return [s.xs[i] for i in e.assignment], [s.ys[i] for i in e.assignment]


def _assert_matches_scalar(cases):
    verdicts = {True: 0, False: 0}
    for s, e in cases:
        want = _segments_scalar(*_walk_columns(s, e))
        assert check_planarity_segments(s, e) == want, (s, e)
        assert check_planarity_prefix(s, e) == want
        verdicts[want] += 1
    assert verdicts[True] and verdicts[False], verdicts
    return verdicts


def test_segments_match_scalar_on_seeded_corpus():
    verdicts = _assert_matches_scalar(_seeded_corpus())
    print(f"{verdicts[True]} planar, {verdicts[False]} crossing")


def _zigzag_walk(n, start=0):
    # The arc grows at its two ends in turn, so the walk goes back and forth
    # across the set and about n/2 of its edges span the sweep line at once.
    walk = [start]
    for i in range(1, n):
        walk.append((start + (i + 1) // 2 * (1 if i % 2 else -1)) % n)
    return walk


def test_sweep_zigzag_walks_match_scalar(monkeypatch):
    # Each walk also on the quarter-turned set, where it travels along the
    # other axis, so the sweep runs along each axis.
    rng = random.Random(0x2162)
    cases = []
    for k, n in enumerate((4, 5, 9, 30, 101)):
        s = generate_random_convex(n, seed=k, mode=ALL_MODES[k % len(ALL_MODES)])
        for start in (0, n // 3):
            walk = _zigzag_walk(n, start)
            cases.append((s, Embedding(tuple(walk))))
            for _ in range(3):
                i, j = rng.sample(range(n), 2)
                bent = walk[:]
                bent[i], bent[j] = bent[j], bent[i]
                cases.append((s, Embedding(tuple(bent))))
    cases += [(rotate_set(s), rotate_embedding(e, s)) for s, e in cases]
    _assert_matches_scalar(cases)
    axes = {axis for s, e in cases for axis in _swept(monkeypatch, s, e)[1]}
    assert axes == {"x", "y"}


# Hand-built points in general position, not in convex position, so no set
# holds them: the sweep core runs on the columns of their walks. Edge
# t = (12,9)-(1,0) crosses edge s = (10,0)-(0,10) at x = 119/20, and up to
# x = 4 the edges (-1,4)-(4,5) and (4,5)-(3,5) run between them.
_SWEEP_POINTS = ((12, 9), (1, 0), (10, 0), (0, 10), (-1, 4), (4, 5), (3, 5))


def _columns(pts, walk, turned=False):
    # The coordinate columns of the walk through pts, or through pts turned a
    # quarter counterclockwise, (x, y) -> (-y, x), index by index.
    if turned:
        pts = [(-y, x) for x, y in pts]
    return [pts[i][0] for i in walk], [pts[i][1] for i in walk]


def _swept(monkeypatch, s, e):
    """check_planarity_segments(s, e), and the axis of each sweep it ran,
    read from the column the sweep core orders its events by."""
    axes = []
    core = validator._sweep
    columns = {"x": [s.xs[i] for i in e.assignment], "y": [s.ys[i] for i in e.assignment]}

    def sweep(xs, ys):
        axes.extend(axis for axis, column in columns.items() if column == xs)
        return core(xs, ys)

    with monkeypatch.context() as m:
        m.setattr(validator, "_sweep", sweep)
        verdict = check_planarity_segments(s, e)
    return verdict, axes


@pytest.mark.parametrize(
    "n, walk, planar",
    [
        # (-1,4) starts two edges and (4,5) ends two.
        (7, (0, 2, 1, 4, 3, 5, 6), True),
        # t and s become adjacent, and are found to cross, only when the
        # walk's last vertex (4,5) deletes the one edge between them.
        (6, (0, 1, 2, 3, 4, 5), False),
        # The same, with (4,5) deleting both edges between them.
        (7, (0, 1, 2, 3, 4, 5, 6), False),
        # (1,0) starts t and (1,0)-(10,0); the crossing is met on that insertion.
        (7, (0, 1, 2, 4, 3, 5, 6), False),
        # The crossing is met where (4,5) ends one edge and starts the next.
        (7, (0, 1, 2, 5, 3, 4, 6), False),
    ],
)
def test_sweep_events_match_scalar(n, walk, planar):
    # The points have two pairs of equal y values, so they are swept along x;
    # on the quarter-turned points those are x values, so the turned columns
    # are swept along y, transposed, through the same events.
    xs, ys = _columns(_SWEEP_POINTS[:n], walk)
    assert _sweep(xs, ys) == _segments_scalar(xs, ys) == planar
    xs, ys = _columns(_SWEEP_POINTS[:n], walk, turned=True)
    assert _sweep(ys, xs) == _segments_scalar(xs, ys) == planar


def test_sweep_every_walk_on_the_hand_built_set():
    assert all(orientation(*tri) for tri in itertools.combinations(_SWEEP_POINTS, 3))
    verdicts = set()
    for walk in itertools.permutations(range(len(_SWEEP_POINTS))):
        xs, ys = _columns(_SWEEP_POINTS, walk)
        want = _segments_scalar(xs, ys)
        assert _sweep(xs, ys) == want, walk
        xs, ys = _columns(_SWEEP_POINTS, walk, turned=True)
        assert _sweep(ys, xs) == want, walk
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("subset, axis", [("ULR", "y"), ("DLR", "y"), ("UDR", "x"), ("UDL", "x")])
def test_sweep_axis_of_embedder_outputs(monkeypatch, subset, axis):
    # L/R-heavy walks travel mostly along x, so they are swept along y.
    for seed in range(3):
        s = generate_random_convex(300, seed=seed)
        p = random_path(random.Random(seed), s.n, subset)
        e = embed_three_directional(p, s)
        assert _swept(monkeypatch, s, e) == (True, [axis])


def test_sweep_axis_of_zigzag_walks(monkeypatch):
    # From the top the zig-zag walk goes back and forth along x; from a
    # quarter or a third of the way round, nearer the leftmost point, along y.
    s = generate_random_convex(2000, seed="segments-2000")
    for start, axis in ((0, "y"), (s.n // 4, "x"), (666, "x")):
        e = Embedding(tuple(_zigzag_walk(s.n, start)))
        assert _swept(monkeypatch, s, e) == (True, [axis])


def test_segments_match_scalar_exhaustive_n_le_7():
    for seed in range(3):
        for n in range(2, 8):
            s = generate_random_convex(n, seed=seed, mode="general")
            for t in (s, rotate_set(s)):
                for perm in itertools.permutations(range(n)):
                    e = Embedding(perm)
                    want = _segments_scalar(*_walk_columns(t, e))
                    assert check_planarity_segments(t, e) == want, (t, e)


def test_segments_exact_at_coordinate_limit():
    s = _at_coordinate_limit()
    coords = {c for pt in s.points for c in (pt.x, pt.y)}
    assert {-COORD_LIMIT, COORD_LIMIT, COORD_LIMIT - 1} <= coords
    rng = random.Random(0x2_30)
    cases = [(t, e) for t in (s, rotate_set(s)) for e in _walks(rng, s.n, 150)]
    cases += [(s, Embedding(tuple(rng.sample(range(s.n), s.n)))) for _ in range(150)]
    # A validated set has no collinear triple, so an InternalCaseError from a
    # zero side would mean a side test judged two unequal terms equal.
    _assert_matches_scalar(cases)


def test_segments_zero_side_is_a_bug(monkeypatch):
    # A validated set has no zero side: one is reported as a bug, not a verdict.
    monkeypatch.setattr(validator, "_sweep", lambda xs, ys: None)
    with pytest.raises(InternalCaseError, match="zero side"):
        check_planarity_segments(S5, URDU_E)


def test_sweep_reports_a_zero_side_on_collinear_points():
    # Hand-built points with distinct x values and three collinear. On the
    # first, (2,0) lies on the edge (0,0)-(4,0) that it does not end, a touch
    # that no crossing test sees: the sweep reports the zero side, where the
    # pair loop finds the touch. On the second the three are apart, and the
    # sweep meets no zero side on this walk.
    walk = (0, 1, 3, 2)
    touching = _columns(((0, 0), (4, 0), (2, 0), (3, 5)), walk)
    assert _sweep(*touching) is None and not _segments_scalar(*touching)
    apart = _columns(((0, 0), (1, 0), (3, 0), (2, 5)), walk)
    assert _sweep(*apart) is True and _segments_scalar(*apart)


def test_segments_match_scalar_on_grid_sets():
    # Hand-built points of 3-5 distinct x values on a 5x5 grid, with
    # collinear triples and touching edges. On every walk the sweep either
    # reports a zero side or gives the pair loop's verdict, and each of the
    # three happens.
    rng = random.Random(0x5A5)
    verdicts = {True: 0, False: 0, None: 0}
    for _ in range(30):
        pts = [(x, rng.randrange(5)) for x in rng.sample(range(5), rng.randint(3, 5))]
        for walk in itertools.permutations(range(len(pts))):
            xs, ys = _columns(pts, walk)
            got = _sweep(xs, ys)
            assert got is None or got == _segments_scalar(xs, ys), (pts, walk)
            verdicts[got] += 1
    assert all(verdicts.values()), verdicts


def test_segments_need_no_convex_position():
    # Hand-built points in general position but not convex: a line through
    # one edge can separate another edge that it does not cross, so each
    # edge of a pair must separate the other. Both columns are distinct, so
    # every walk is swept along each axis.
    pts = ((0, 0), (10, 1), (5, 3), (2, 9), (8, 7), (4, -6))
    assert all(orientation(*tri) for tri in itertools.combinations(pts, 3))
    verdicts = set()
    for walk in itertools.permutations(range(len(pts))):
        xs, ys = _columns(pts, walk)
        want = _segments_scalar(xs, ys)
        assert _sweep(xs, ys) == _sweep(ys, xs) == want, walk
        verdicts.add(want)
    assert verdicts == {True, False}


def test_segments_within_budget_at_n2000():
    s = generate_random_convex(2000, seed="segments-2000")
    rng = random.Random(2000)
    udr = embed_three_directional(random_path(rng, s.n, "UDR"), s)
    ulr = embed_three_directional(random_path(rng, s.n, "ULR"), s)
    zigzag = Embedding(tuple(_zigzag_walk(s.n)))  # about n/2 edges on the sweep line
    check_planarity_segments(S5, URDU_E)  # warm-up
    for name, e in (("U/D/R embedder output", udr), ("U/L/R embedder output", ulr),
                    ("zig-zag walk", zigzag)):
        t0 = time.perf_counter()
        ok = check_planarity_segments(s, e)
        dt = time.perf_counter() - t0
        assert ok, name
        assert dt < 1.0, f"segment check of the {name} at n=2000 took {dt:.2f}s (budget 1s)"
