import functools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import pdce
from pdce import (
    COORD_LIMIT,
    CollinearTriple,
    ConvexPointSet,
    CoordinateRange,
    DuplicateX,
    DuplicateY,
    GENERATOR_MODES,
    GenerationFailed,
    InternalCaseError,
    NotConvexPosition,
    PdceError,
    PreconditionViolated,
    SetTag,
    classify,
    format_points_text,
    generate_random_convex,
    orientation,
    parse_points_json,
    parse_points_text,
    search_counterexample,
    segments_intersect,
    split_by_bt_line,
    validate,
)
import _circle
from conftest import convex_sets
from pdce import generate, geometry
from pdce.geometry import Point

try:
    import numpy as np
except ImportError:
    np = None

S5_RAW = [(4, 0), (3, 6), (1, 5), (0, 3), (2, 1)]
S5_CANONICAL = [(3, 6), (1, 5), (0, 3), (2, 1), (4, 0)]
S5_TEXT = "".join(f"{x} {y}\n" for x, y in S5_RAW)


def coords(s: ConvexPointSet):
    return list(zip(s.xs, s.ys))


# --- predicates ----------------------------------------------------------------


def test_huge_coordinate_named_by_bit_length():
    # str() refuses ints past 4300 digits: the message names such a value by
    # its bit length instead of raising a bare ValueError.
    message = f"coordinate of {(10**5000).bit_length()} bits exceeds |{COORD_LIMIT}|"
    with pytest.raises(CoordinateRange) as exc:
        validate([(0, 0), (1, 10**5000), (3, 1)])
    assert str(exc.value) == message


def test_orientation_signs():
    # The predicates take any (x, y) pairs; a Point is one of them.
    a, b = (0, 0), Point(2, 0)
    assert orientation(a, b, (1, 1)) == 1
    assert orientation(a, b, (1, -1)) == -1
    assert orientation(a, b, (4, 0)) == 0


def test_segments_intersect_basic():
    assert segments_intersect((0, 0), (2, 2), (0, 2), Point(2, 0))
    assert not segments_intersect((0, 0), (1, 1), (2, 2), (3, 3))
    # shared endpoint counts as intersecting closed segments
    assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))
    # collinear overlap
    assert segments_intersect((0, 0), (3, 0), (1, 0), (4, 0))
    assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))


# --- validate ----------------------------------------------------------------


def test_validate_s5_canonical_order():
    s = validate(S5_RAW)
    assert coords(s) == S5_CANONICAL
    # Top (3, 6), bottom (4, 0), left (0, 3); r(S) = b(S) on this set.
    assert _extremes(s) == (0, 4, 2, 4)
    # points views the columns as unchecked (x, y) tuples with named fields.
    for k, pt in enumerate(s.points):
        assert type(pt) is Point and pt == (s.xs[k], s.ys[k])
        assert (pt.x, pt.y) == (s.xs[k], s.ys[k])
    assert not hasattr(pdce, "Point")


def test_points_view_is_built_per_read():
    # points is a view the set builds on each read and does not keep: two
    # reads are equal but distinct, every field is its column's, and the
    # view goes back through the door to the same set.
    sets = [generate_random_convex(n, seed=n, mode=mode)
            for mode in GENERATOR_MODES for n in (1, 2, 40)]
    last = sets[-1]
    sets += [pdce.rotate_set(last), pdce.mirror_set(last), validate(parse_points_text(S5_TEXT))]
    for s in sets:
        first = s.points
        assert "points" not in vars(s)
        again = s.points
        assert again == first and again is not first
        assert [pt.x for pt in first] == list(s.xs) and [pt.y for pt in first] == list(s.ys)
        assert validate(s.points) == s


def test_validate_idempotent_on_canonical():
    s = validate(S5_RAW)
    again = validate(coords(s))
    assert coords(again) == coords(s)


def test_validate_reports_broken_canonicalization(monkeypatch):
    # The post-canonicalization convexity check raises, not asserts: a hull
    # builder that hands back the clockwise ring is caught.
    import pdce.geometry

    hull = pdce.geometry._strict_hull
    monkeypatch.setattr(pdce.geometry, "_strict_hull", lambda *a: hull(*a)[::-1])
    with pytest.raises(InternalCaseError, match="broke convexity"):
        validate(S5_RAW)


def test_validate_check_survives_optimize_flag():
    import pdce

    code = (
        "import pdce.geometry as g\n"
        "hull = g._strict_hull\n"
        "g._strict_hull = lambda *a: hull(*a)[::-1]\n"
        "try:\n"
        f"    g.validate({S5_RAW!r})\n"
        "except g.InternalCaseError:\n"
        "    print('raised')\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(pdce.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "raised\n"


def test_validate_collinear():
    with pytest.raises(CollinearTriple):
        validate([(0, 0), (1, 1), (2, 2)])


def test_validate_duplicate_x():
    with pytest.raises(DuplicateX) as exc:
        validate([(0, 0), (0, 5), (3, 2)])
    assert exc.value.indices == (0, 1)


def test_validate_duplicate_y():
    with pytest.raises(DuplicateY):
        validate([(0, 1), (5, 1), (3, 2)])


def test_validate_interior_point_rejected():
    # (3, 2) sits inside the triangle of the other three
    with pytest.raises(NotConvexPosition):
        validate([(0, 0), (10, 1), (4, 9), (3, 2)])


def test_validate_empty():
    with pytest.raises(PreconditionViolated):
        validate([])


def test_validate_singletons_and_pairs():
    assert coords(validate([(7, 7)])) == [(7, 7)]
    s = validate([(0, 0), (1, 1)])
    assert coords(s)[0] == (1, 1)  # topmost first


_RANGE = f"exceeds |{COORD_LIMIT}|"

# The input door's error contract: (case, door, input, error type, .indices
# or .index, message). An out-of-range coordinate is CoordinateRange and a bool
# coordinate is rejected at every door; the rest is as it has always been. A
# literal with more digits than int() converts (4300 by default) is out of
# range too, named by its digit count.
DOOR_CORPUS = [
    ("dup-x", "validate", [(0, 0), (3, 2), (0, 5)], DuplicateX, (0, 2),
     "points 0 and 2 share an x-coordinate"),
    ("dup-y", "validate", [(0, 1), (3, 2), (5, 1)], DuplicateY, (0, 2),
     "points 0 and 2 share a y-coordinate"),
    ("collinear", "validate", [(5, 1), (0, 0), (4, 4), (2, 2)], CollinearTriple, (1, 2, 3),
     "points 1, 2 and 3 are collinear"),
    ("not-convex", "validate", [(0, 0), (10, 1), (4, 9), (3, 2)], NotConvexPosition, 3,
     "point 3 is not a vertex of the convex hull"),
    ("range", "validate", [(0, 0), (2, 3), (4, 10**23)], CoordinateRange, None,
     f"coordinate {10**23} {_RANGE}"),
    ("range-neg", "validate", [(0, 0), (-COORD_LIMIT - 1, 3), (4, 1)], CoordinateRange, None,
     f"coordinate {-COORD_LIMIT - 1} {_RANGE}"),
    ("float", "validate", [(0, 0), (1.5, 2), (4, 1)], PreconditionViolated, None,
     "cannot interpret (1.5, 2) as a point"),
    ("str", "validate", [(0, 0), ("1", 2), (4, 1)], PreconditionViolated, None,
     "cannot interpret ('1', 2) as a point"),
    ("bool", "validate", [(True, 5), (0, 0), (4, 2)], PreconditionViolated, None,
     "coordinates must be plain ints, got True"),
    ("arity", "validate", [(0, 0), (1, 2, 3), (4, 1)], PreconditionViolated, None,
     "cannot interpret (1, 2, 3) as a point"),
    ("not-pair", "validate", [(0, 0), 5, (4, 1)], PreconditionViolated, None,
     "cannot interpret 5 as a point"),
    # An entry that is or holds an int too long for repr() is quoted by its type.
    ("arity-huge", "validate", [(0, 0), (1, 2, 10**5000)], PreconditionViolated, None,
     "cannot interpret <tuple of length 3> as a point"),
    ("str-huge", "validate", [(0, 0), [10**5000, "a"]], PreconditionViolated, None,
     "cannot interpret <list of length 2> as a point"),
    ("not-pair-huge", "validate", [(0, 0), 10**5000], PreconditionViolated, None,
     "cannot interpret <int> as a point"),
    ("empty", "validate", [], PreconditionViolated, None, "point set is empty"),
    ("text-arity", "text", "1 2\n3\n", PreconditionViolated, None,
     "line 2: expected 'x y', got '3'"),
    ("text-word", "text", "1 2\na b\n", PreconditionViolated, None,
     "line 2: coordinates must be integers"),
    ("text-float", "text", "# c\n1 2\n1.5 2\n", PreconditionViolated, None,
     "line 3: coordinates must be integers"),
    ("text-arity3", "text", "1 2 3\n", PreconditionViolated, None,
     "line 1: expected 'x y', got '1 2 3'"),
    ("text-long", "text", "0 0\n1 2 %s\n" % ("9" * 5000), PreconditionViolated, None,
     "line 2: expected 'x y', got '1 2 %s'... (5004 chars)" % ("9" * 36)),
    ("text-range", "text", "0 0\n4 99999999999999999999\n", CoordinateRange, None,
     f"line 2: coordinate 99999999999999999999 {_RANGE}"),
    ("text-huge", "text", "0 0\n4 %s\n" % ("9" * 5000), CoordinateRange, None,
     f"line 2: coordinate of 5000 digits {_RANGE}"),
    ("json-syntax", "json", "not json", PreconditionViolated, None,
     "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("json-not-list", "json", '{"points": 5}', PreconditionViolated, None,
     'expected an object with a "points" array'),
    ("json-not-object", "json", "[[0, 0]]", PreconditionViolated, None,
     'expected an object with a "points" array'),
    ("json-str", "json", '{"points": [[0, 0], "05"]}', PreconditionViolated, None,
     "cannot interpret '05' as a point"),
    ("json-float", "json", '{"points": [[0, 0], [1.5, 2]]}', PreconditionViolated, None,
     "cannot interpret [1.5, 2] as a point"),
    ("json-arity", "json", '{"points": [[0, 0, 1]]}', PreconditionViolated, None,
     "cannot interpret [0, 0, 1] as a point"),
    ("json-dict", "json", '{"points": [[0, 0], {"0": 0}]}', PreconditionViolated, None,
     "cannot interpret {'0': 0} as a point"),
    ("json-bool", "json", '{"points": [[true, 5], [0, 0], [4, 2]]}', PreconditionViolated, None,
     "coordinates must be plain ints, got True"),
    ("json-range", "json", '{"points": [[0, 0], [4, 99999999999999999999999]]}',
     CoordinateRange, None, f"coordinate 99999999999999999999999 {_RANGE}"),
    ("json-huge", "json", '{"points": [[0, 0], [4, %s]]}' % ("9" * 5000), CoordinateRange, None,
     f"coordinate of 5000 digits {_RANGE}"),
    # Past the recursion limit, and entries quoted short however long or deep.
    ("json-deep", "json", '{"points": %s}' % ("[" * 200_000 + "]" * 200_000),
     PreconditionViolated, None, "invalid JSON: nested too deeply to parse"),
    ("json-long-entry", "json", '{"points": [[0, 0], [%s]]}' % ", ".join("1" * 200_000),
     PreconditionViolated, None, "cannot interpret [1, 1, 1, 1, 1, 1, ...] as a point"),
    ("json-long-str", "json", '{"points": [[0, 0], "%s"]}' % ("a" * 100_000),
     PreconditionViolated, None, "cannot interpret 'aaaaaaaaaaaa...aaaaaaaaaaaaa' as a point"),
    ("nested", "validate", [(0, 0), functools.reduce(lambda a, _: [a], range(100_000), [])],
     PreconditionViolated, None, "cannot interpret [[[[[[[...]]]]]]] as a point"),
]


@pytest.mark.parametrize(
    "door, arg, kind, where, message",
    [c[1:] for c in DOOR_CORPUS],
    ids=[c[0] for c in DOOR_CORPUS],
)
def test_door_error_contract(door, arg, kind, where, message):
    parse = {"validate": validate, "text": parse_points_text, "json": parse_points_json}
    with pytest.raises(kind) as exc:
        parse[door](arg)
    assert type(exc.value) is kind
    assert getattr(exc.value, "indices", getattr(exc.value, "index", None)) == where
    assert str(exc.value) == message


@pytest.mark.parametrize("mode", GENERATOR_MODES)
def test_validate_shuffled_equals_canonical(mode):
    rng = random.Random(mode)
    for n in (1, 2, 3, 7, 20, 50, 1000):
        s = generate_random_convex(n, seed=n, mode=mode)
        pairs = coords(s)
        for _ in range(3 if n < 1000 else 1):
            rng.shuffle(pairs)
            t = validate(pairs)
            assert (t.xs, t.ys) == (s.xs, s.ys), (mode, n)
            assert _extremes(t) == _extremes(s), (mode, n)
        # A Point is an (x, y) pair: the door takes the set's own views too.
        assert validate(s.points) == s


def _exact_validate(raw):
    # validate() by its explaining route alone: every entry through _pair,
    # both sorted duplicate scans, and the monotone chain for the hull. It
    # returns the canonical columns, which validate() alone makes a set of.
    pairs = [geometry._pair(entry) for entry in raw]
    if not pairs:
        raise PreconditionViolated("point set is empty")
    xs, ys = zip(*pairs)
    n = len(pairs)
    by_x = sorted(range(n), key=xs.__getitem__)
    by_y = sorted(range(n), key=ys.__getitem__)
    for order, col, duplicate in ((by_x, xs, DuplicateX), (by_y, ys, DuplicateY)):
        for a, b in zip(order, order[1:]):
            if col[a] == col[b]:
                raise duplicate(*sorted((a, b)))
    hull = geometry._monotone_chain(xs, ys, by_x) if n > 2 else by_x
    k = hull.index(by_y[-1])
    ring = hull[k:] + hull[:k]
    return tuple(xs[i] for i in ring), tuple(ys[i] for i in ring)


def _validated_columns(entries):
    s = validate(entries)
    return s.xs, s.ys


def _outcome(door, entries):
    # The columns door(entries) returns, or its error.
    try:
        xs, ys = door(entries)
    except PdceError as exc:
        where = getattr(exc, "indices", getattr(exc, "index", None))
        return type(exc), exc.args, str(exc), where
    assert set(map(type, xs + ys)) == {int}
    return xs, ys


class _Pair(tuple):
    pass


def _mutants(rng, s, pts):
    # Each mutant is (name, entries) from the shuffled pairs pts of the valid
    # set s: one broken rule, or valid points in another entry type.
    n = len(pts)
    i, j = rng.sample(range(n), 2)
    (xi, yi), (xj, yj) = pts[i], pts[j]
    out = [("dup-x", pts[:j] + [(xi, yj)] + pts[j + 1:]),
           ("dup-y", pts[:j] + [(xj, yi)] + pts[j + 1:]),
           ("interior", pts + [(sum(x for x, _ in pts) // n, sum(y for _, y in pts) // n)])]
    # Doubled coordinates put the midpoint of any two points on the lattice.
    twice = [(2 * x, 2 * y) for x, y in pts]
    lx, ly = min(twice)
    rx, ry = max(twice)
    out.append(("on-left-right-line", twice + [((lx + rx) // 2, (ly + ry) // 2)]))
    a = rng.randrange(n)
    (ax, ay), (bx, by) = (2 * s.xs[a], 2 * s.ys[a]), (2 * s.xs[a - 1], 2 * s.ys[a - 1])
    out.append(("on-hull-edge", twice + [((ax + bx) // 2, (ay + by) // 2)]))
    out.append(("past-hull-edge", twice + [(2 * bx - ax, 2 * by - ay)]))
    out.append(("three-collinear", [(2 * xi, 2 * yi), (xi + xj, yi + yj), (2 * xj, 2 * yj)]))
    for name, bad in (("range", (COORD_LIMIT + 1, yj)), ("range-neg", (xj, -COORD_LIMIT - 1)),
                      ("range-huge", (xj, 10**5000)), ("bool", (True, yj)),
                      ("float", (xj + 0.5, yj)), ("integral-float", (float(xj), yj)),
                      ("arity-3", (xj, yj, 0)), ("arity-1", (xj,)), ("not-pair", xj)):
        out.append((name, pts[:j] + [bad] + pts[j + 1:]))
    # Taking the first two values of each entry as columns would accept these.
    out.append(("mixed-arity", [(x, y, 0) if k % 2 else (x, y) for k, (x, y) in enumerate(pts)]))
    out.append(("one-pair-among-triples", [(x, y, 0) for x, y in pts[:j]] + pts[j:j + 1]))
    # Valid points in other entry types: the same set.
    out.append(("tuple-subclass", [_Pair(pt) for pt in pts]))
    out.append(("points", [Point(x, y) for x, y in pts]))
    out.append(("lists", [list(pt) for pt in pts]))
    if np is not None:
        out.append(("numpy-int", pts[:j] + [(np.int64(xj), yj)] + pts[j + 1:]))
    return out


@pytest.mark.parametrize("mode", GENERATOR_MODES)
def test_validate_agrees_with_exact_route(mode):
    # The column fast path and the chain split must decide as the exact route
    # does: the same set, or an error of the same type, args and message.
    rng = random.Random(f"exact-route:{mode}")
    seen = set()
    for n in range(1, 301):
        s = _circle.generate_random_convex(n, seed=rng.randrange(1 << 30), mode=mode)
        pts = list(zip(s.xs, s.ys))
        rng.shuffle(pts)
        cases = [("valid", pts)]
        if n >= 3 and (n <= 12 or n % 25 == 0):
            cases += _mutants(rng, s, pts)
        for name, entries in cases:
            want = _outcome(_exact_validate, entries)
            assert _outcome(_validated_columns, entries) == want, (mode, n, name)
            assert _outcome(_validated_columns, (e for e in entries)) == want, (mode, n, name)
            if name == "valid":
                assert want == (s.xs, s.ys), (mode, n)
            seen.add(want[0] if len(want) == 4 else "set")
    assert seen == {"set", DuplicateX, DuplicateY, NotConvexPosition, CollinearTriple,
                    CoordinateRange, PreconditionViolated}, seen


def _extremes(s):
    return s.top_index, s.bottom_index, s.left_index, s.right_index


# --- classify ----------------------------------------------------------------


def test_classify_s5_left_sided():
    tags = classify(validate(S5_RAW))
    assert SetTag.LEFT_SIDED in tags
    assert SetTag.RIGHT_SIDED not in tags
    assert SetTag.GENERAL_CONVEX in tags
    assert SetTag.STRIP_CONVEX not in tags


def test_classify_increasing_zigzag_chain():
    # x-order equals y-order, extremes coincide pairwise; the zigzag makes
    # the hull cyclic order differ from the chain order, so neither
    # one-sided tag applies (topmost and bottommost are not hull-adjacent).
    s = validate([(0, 0), (2, 1), (3, 3), (5, 4)])
    tags = classify(s)
    assert SetTag.QUARTER_INC in tags
    assert SetTag.STRIP_CONVEX in tags
    assert SetTag.QUARTER_DEC not in tags
    assert SetTag.LEFT_SIDED not in tags and SetTag.RIGHT_SIDED not in tags


def test_classify_decreasing_chain():
    s = validate([(0, 4), (1, 2), (3, 1), (5, -2)])
    assert SetTag.QUARTER_DEC in classify(s)


def test_classify_small_sets_all_vacuous():
    for pts in ([(0, 0)], [(0, 0), (3, 2)]):
        tags = classify(validate(pts))
        assert {SetTag.LEFT_SIDED, SetTag.RIGHT_SIDED, SetTag.STRIP_CONVEX} <= tags


# --- split_by_bt_line ----------------------------------------------------------


def test_split_s6_frozen():
    s = validate([(5, 6), (1, 4), (-1, 2), (0, 0), (4, 1)])
    assert coords(s) == [(5, 6), (1, 4), (-1, 2), (0, 0), (4, 1)]
    sp = split_by_bt_line(s)
    assert sp.m == 2
    assert sp.alpha == 1
    # beta counts x <= x(t), including t itself: points x = 1, -1, 0, 4, 5
    assert sp.beta == 5


def test_split_two_points():
    s = validate([(0, 0), (5, 6)])
    sp = split_by_bt_line(s)
    assert sp.m == 0


def test_split_requires_t_right_of_b():
    s = validate(S5_RAW)  # t=(3,6) is left of b=(4,0)
    with pytest.raises(PreconditionViolated):
        split_by_bt_line(s)
    with pytest.raises(PreconditionViolated, match="at least two points"):
        split_by_bt_line(validate([(0, 0)]))


# The top the rightmost point, the bottom the leftmost, both, or neither.
@example(validate([(0, 0), (1, 1)]))
@example(validate([(0, 0), (2, 1), (3, 3), (5, 4)]))
@example(validate([(5, 6), (1, 5), (0, 3), (2, 0), (4, 2)]))
@example(validate([(0, 0), (6, 2), (3, 5)]))
@example(validate([(3, 5), (-2, 3), (0, 0), (6, 2)]))
@given(convex_sets(min_n=2, max_n=20))
def test_split_partition_property(s):
    if s.xs[s.top_index] < s.xs[s.bottom_index]:
        with pytest.raises(PreconditionViolated):
            split_by_bt_line(s)
        return
    sp = split_by_bt_line(s)
    assert sp.m + 1 == s.bottom_index
    assert sp.alpha <= sp.beta
    # The bisection counts agree with a scan of the x column.
    assert sp.alpha == sum(x < s.xs[s.bottom_index] for x in s.xs)
    assert sp.beta == sum(x <= s.xs[s.top_index] for x in s.xs)
    pts = coords(s)
    b, t = pts[s.bottom_index], pts[s.top_index]
    # positions 1..m lie strictly left of the bottom -> top line, m+2..n-1
    # strictly right
    for idx in range(1, sp.m + 1):
        assert orientation(b, t, pts[idx]) > 0
    for idx in range(sp.m + 2, s.n):
        assert orientation(b, t, pts[idx]) < 0


# --- generator ----------------------------------------------------------------


def test_generator_deterministic():
    a = generate_random_convex(12, seed=5, mode="general")
    b = generate_random_convex(12, seed=5, mode="general")
    assert coords(a) == coords(b)
    c = generate_random_convex(12, seed=6, mode="general")
    assert coords(a) != coords(c)


def test_generator_single_point():
    assert generate_random_convex(1, seed=0, mode="general").n == 1


def test_generator_n40_validates():
    s = generate_random_convex(40, seed=1, mode="general")
    assert coords(validate(coords(s))) == coords(s)


def test_generator_guards(monkeypatch):
    with pytest.raises(PreconditionViolated, match="unknown mode 'spiral'; choose one of"):
        generate_random_convex(5, mode="spiral")
    with pytest.raises(PreconditionViolated, match=r"unknown mode \['general'\]; choose one of"):
        generate_random_convex(5, mode=["general"])

    # Every attempt rejected: the error keeps the count and the last reason.
    def duplicate(coords):
        raise DuplicateX(0, 1)

    with monkeypatch.context() as m:
        m.setattr(generate, "validate", duplicate)
        with pytest.raises(GenerationFailed) as info:
            generate_random_convex(5, seed=0)
    assert info.value.attempts == 64
    assert str(info.value) == (
        "could not generate a valid instance within 64 attempts "
        "(DuplicateX: points 0 and 1 share an x-coordinate)"
    )
    # Every attempt valid but of the wrong class.
    monkeypatch.setattr(generate, "classify", lambda s: frozenset({SetTag.GENERAL_CONVEX}))
    with pytest.raises(GenerationFailed, match=r"\(rounded set lost the left_sided property\)$"):
        generate_random_convex(5, seed=0, mode="left_sided")


@pytest.mark.parametrize("value", [2.5, "5", True, None])
@pytest.mark.parametrize("entry, name", [
    (lambda v: generate_random_convex(v), "n"),
    (lambda v: search_counterexample(budget=v), "budget"),
], ids=["generate_random_convex", "search_counterexample"])
def test_count_arguments_follow_the_coordinate_rule(entry, name, value):
    # A count is index-like and not a bool, as a coordinate is: a float, a
    # string, True or None is refused by name before anything is drawn.
    with pytest.raises(PreconditionViolated, match=f"^{name} must be an int, not "):
        entry(value)


@pytest.mark.parametrize("mode", GENERATOR_MODES)
def test_circle_copy_matches_library(mode):
    # The engine pins draw from the frozen copy in tests/_circle.py; while
    # the library generator is unchanged, both give equal sets.
    for n in (*range(1, 9), 60, 200, 1000):
        for seed in (n, f"copy-{n}"):
            want = _circle.generate_random_convex(n, seed=seed, mode=mode)
            got = generate_random_convex(n, seed=seed, mode=mode)
            assert got == want and (got.xs, got.ys) == (want.xs, want.ys), (n, seed)


@pytest.mark.parametrize("mode", GENERATOR_MODES)
def test_generator_modes_carry_tag(mode):
    tag = {
        "general": SetTag.GENERAL_CONVEX,
        "left_sided": SetTag.LEFT_SIDED,
        "right_sided": SetTag.RIGHT_SIDED,
        "strip": SetTag.STRIP_CONVEX,
        "quarter_inc": SetTag.QUARTER_INC,
        "quarter_dec": SetTag.QUARTER_DEC,
    }[mode]
    for n in (3, 5, 17):
        s = generate_random_convex(n, seed=n, mode=mode)
        assert tag in classify(s), (mode, n)


@given(convex_sets(min_n=1, max_n=30))
def test_generated_sets_are_canonical_and_in_range(s):
    assert coords(validate(coords(s))) == coords(s)
    assert max(map(abs, s.xs + s.ys)) <= COORD_LIMIT


@given(convex_sets(min_n=3, max_n=25, modes=("left_sided", "right_sided")))
def test_one_sided_tags_exclusive(s):
    tags = classify(s)
    assert len(tags & {SetTag.LEFT_SIDED, SetTag.RIGHT_SIDED}) == 1


@given(convex_sets(min_n=3, max_n=25, modes=("quarter_inc",)))
def test_generated_quarter_inc_is_strip(s):
    assert SetTag.STRIP_CONVEX in classify(s)


@given(convex_sets(min_n=3, max_n=25, modes=("quarter_dec",)))
def test_generated_quarter_dec_is_one_sided(s):
    tags = classify(s)
    assert SetTag.LEFT_SIDED in tags or SetTag.RIGHT_SIDED in tags


# --- text formats ---------------------------------------------------------------


@given(convex_sets(min_n=1, max_n=25))
def test_text_round_trip_bit_exact(s):
    text = format_points_text(coords(s))
    assert parse_points_text(text) == coords(s)
    doc = json.dumps({"points": coords(s)})
    assert parse_points_json(doc) == coords(s)


def test_parse_points_text_diagnostics():
    with pytest.raises(PreconditionViolated):
        parse_points_text("1 2\n3\n")
    with pytest.raises(PreconditionViolated):
        parse_points_text("1 2\na b\n")
    pts = parse_points_text("# comment\n\n1 2\n 3 4 \n")
    assert pts == [(1, 2), (3, 4)]
    # Past int()'s digit limit only by leading zeros, a literal keeps its value.
    assert parse_points_text("-%s7 0\n" % ("0" * 5000)) == [(-7, 0)]


def _line_loop(text):
    # parse_points_text as one loop over text.splitlines(), each line's
    # pair checked by _pair: the reference for the parse by columns.
    pairs = []
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        parts = body.split()
        if len(parts) != 2:
            raise PreconditionViolated(f"line {ln}: expected 'x y', got {geometry._echo(body)}")
        try:
            pair = tuple(map(geometry._int_literal, parts))
            pairs.append(geometry._pair(pair))
        except CoordinateRange as exc:
            raise CoordinateRange(f"line {ln}: {exc}") from None
        except ValueError:
            raise PreconditionViolated(f"line {ln}: coordinates must be integers") from None
    return pairs


# Every line break str.splitlines() knows, and field separators.
_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029")
_GAPS = (" ", "\t", "  ", " \t\x1f ")
_VALUES = ("0", "7", "-7", "+7", "0007", "1_000", str(COORD_LIMIT), str(-COORD_LIMIT),
           str(COORD_LIMIT + 1), str(-COORD_LIMIT - 1), "9" * 5000, "1.5", "a", "#", "٣")


def _line(rng, valid):
    # One line of a points file: a valid pair, or (when not valid) any mix
    # of values, comments, blanks and field counts.
    gap = rng.choice(_GAPS)
    if valid:
        return f"{rng.randrange(-COORD_LIMIT, COORD_LIMIT + 1)}{gap}{rng.randrange(-9, 10)}"
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(("", " ", "#", "# note", "#1 2", "  # 1 2 3"))
    fields = [rng.choice(_VALUES) for _ in range(kind)]
    return rng.choice(("", " ")) + gap.join(fields) + rng.choice(("", " ", "\t"))


@pytest.mark.parametrize("size", [1, 5, 64, 1 << 16])
def test_text_columns_match_line_loop(monkeypatch, size):
    # The text doors split text into lines a block at a time; at any block
    # size the parse by columns must give the pairs, or the error, line
    # number and message, of one loop over all the lines, and the line
    # reader the numbered lines that loop keeps.
    monkeypatch.setattr(geometry, "_BLOCK", size)
    rng = random.Random(f"text-columns:{size}")
    for trial in range(400):
        count = rng.randrange(0, 60)
        bad = rng.randrange(count + 1) if trial % 4 else count
        text = "".join(_line(rng, k != bad) + rng.choice(_BREAKS) for k in range(count))
        if rng.random() < 0.3:
            text = text.rstrip("\n")
        want = _outcome_of(_line_loop, text)
        assert _outcome_of(parse_points_text, text) == want, (size, text)
        kept = [(ln, line.strip()) for ln, line in enumerate(text.splitlines(), 1)]
        assert list(geometry._lines(text)) == [
            (ln, body) for ln, body in kept if body and not body.startswith("#")
        ]


def _outcome_of(parse, text):
    try:
        return parse(text)
    except PdceError as exc:
        return type(exc), str(exc)


def test_shared_indices_through_growth_and_shrinkage(monkeypatch):
    # _indices(n) is 0..n-1 as a plain tuple, cut from one tuple that grows
    # to exactly the largest n asked for and keeps its int objects as it grows.
    monkeypatch.setattr(geometry, "_INDICES", ())
    early = geometry._indices(300)
    for n in (0, 1, 300, 5, 0, 1000, 1, 700, 0, 1000, 257):
        got = geometry._indices(n)
        assert type(got) is tuple and got == tuple(range(n)), n
    assert len(geometry._INDICES) == 1000
    small, large = geometry._indices(700), geometry._indices(1000)
    assert all(a is b for a, b in zip(small, large))
    assert all(a is b for a, b in zip(early, large))
    # CPython caches the ints up to 256 only: above that, a fresh index is a
    # new object, and every slice hands out the shared one.
    fresh = int("999")
    assert fresh == large[999] and fresh is not large[999]
    # The axis orders hold the shared objects too.
    s = generate_random_convex(600, seed=4)
    shared = geometry._indices(600)
    assert all(shared[k] is k for k in s.x_order + s.y_order)

