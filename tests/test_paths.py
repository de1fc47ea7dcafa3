import copy
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from pdce import geometry
from pdce.geometry import Point
from pdce import (
    ConvexPointSet,
    DirPath,
    Embedding,
    PreconditionViolated,
    SetTag,
    ValidationReport,
    classify,
    decide_pdce,
    dp_table,
    embed_three_directional,
    generate_random_convex,
    mirror_embedding,
    mirror_path,
    mirror_set,
    plan_udr_case,
    reverse_embedding,
    reverse_path,
    rotate_embedding,
    rotate_path,
    rotate_set,
    split_by_bt_line,
    validate,
    validate_embedding,
)
from pdce.paths import _transposed_set
from conftest import ALL_MODES, convex_sets, instances
from test_embedder import HEX_A1, HEX_A2, S6

paths = st.text(alphabet="UDLR", max_size=12).map(DirPath)


def test_dirpath_validation():
    assert DirPath("").n_vertices == 1
    assert DirPath("LULRDR").n_vertices == 7
    with pytest.raises(PreconditionViolated):
        DirPath("UDX")
    # The message names the first non-label, wherever the run of labels breaks.
    for labels, bad in (("UUxDzR", "x"), ("zUUx", "z"), ("UDLR\n", "\n")):
        with pytest.raises(PreconditionViolated) as exc:
            DirPath(labels)
        assert str(exc.value) == f"path labels must be drawn from UDLR, got {bad!r}"


@pytest.mark.parametrize("labels", [["U", "R"], ("U", "R"), 123, None])
def test_dirpath_rejects_non_str_labels(labels):
    with pytest.raises(PreconditionViolated, match="must be a str"):
        DirPath(labels)


def test_directions_used():
    assert DirPath("LULRDR").directions_used() == frozenset("UDLR")
    assert DirPath("UUU").directions_used() == frozenset("U")
    # Every one of the 16 label subsets, the empty path included, each
    # label repeated and the subset's labels in two orders.
    for k in range(5):
        for subset in itertools.combinations("UDLR", k):
            for labels in ("".join(subset) * 2, "".join(reversed(subset))):
                used = DirPath(labels).directions_used()
                assert type(used) is frozenset and used == frozenset(subset), labels


def test_reverse_frozen_table():
    assert reverse_path(DirPath("UUDRL")).labels == "RLUDD"
    assert reverse_path(DirPath("")).labels == ""


def test_rotate_frozen_table():
    assert rotate_path(DirPath("UR")).labels == "LU"


def test_mirror_frozen_table():
    assert mirror_path(DirPath("UUDRL")).labels == "UUDLR"


def test_rotate_squared_maps_udl_to_udr():
    p = DirPath("UDLUL")
    q = rotate_path(rotate_path(p))
    assert q.directions_used() <= frozenset("UDR")


@given(paths)
def test_reverse_involution(p):
    assert reverse_path(reverse_path(p)).labels == p.labels


@given(paths)
def test_mirror_involution(p):
    assert mirror_path(mirror_path(p)).labels == p.labels


@given(paths)
def test_rotate_fourth_power_identity(p):
    q = p
    for _ in range(4):
        q = rotate_path(q)
    assert q.labels == p.labels


@given(convex_sets(min_n=1, max_n=20))
def test_rotate_set_fourth_power_identity(s):
    t = s
    for _ in range(4):
        t = rotate_set(t)
    assert [(p.x, p.y) for p in t.points] == [(p.x, p.y) for p in s.points]


@given(convex_sets(min_n=1, max_n=20))
def test_mirror_set_involution(s):
    t = mirror_set(mirror_set(s))
    assert [(p.x, p.y) for p in t.points] == [(p.x, p.y) for p in s.points]


def test_mirror_of_left_sided_is_right_sided():
    s5 = validate([(4, 0), (3, 6), (1, 5), (0, 3), (2, 1)])
    assert SetTag.LEFT_SIDED in classify(s5)
    assert SetTag.RIGHT_SIDED in classify(mirror_set(s5))


@given(convex_sets(min_n=1, max_n=20), st.data())
def test_transformed_sets_stay_valid(s, data):
    for t in (rotate_set(s), mirror_set(s)):
        again = validate([(p.x, p.y) for p in t.points])
        assert [(p.x, p.y) for p in again.points] == [(p.x, p.y) for p in t.points]
    # The embedding operators carry every vertex to the image of its point.
    e = Embedding(tuple(data.draw(st.permutations(range(s.n)))))
    for set_op, point_op, emb_op in (
        (rotate_set, lambda q: Point(-q.y, q.x), rotate_embedding),
        (mirror_set, lambda q: Point(-q.x, q.y), mirror_embedding),
    ):
        t, f = set_op(s), emb_op(e, s)
        for k in range(s.n):
            assert t.points[f[k]] == point_op(s.points[e[k]])


def _extremes(t):
    return (t.top_index, t.bottom_index, t.left_index, t.right_index)


def _column_extremes(t):
    # The extreme indices read afresh from the columns.
    return (t.ys.index(max(t.ys)), t.ys.index(min(t.ys)),
            t.xs.index(min(t.xs)), t.xs.index(max(t.xs)))


@pytest.mark.parametrize("mode", ALL_MODES)
def test_frames_match_transformed_sets(mode):
    # The frame of a transformed set, its extreme indices, is carried over
    # by rotate_set and mirror_set with index arithmetic; it must equal the
    # one read afresh from the columns, also for the composition the
    # reductions use.
    for n in (1, 2, 3, 4, 7, 16, 45):
        s = generate_random_convex(n, seed=n, mode=mode)
        rotated, mirrored = rotate_set(s), mirror_set(s)
        for t in (rotated, mirrored, mirror_set(rotated)):
            assert t.n == n
            assert _extremes(t) == _column_extremes(t)
        assert rotated.top_index == mirrored.top_index == 0


def test_transposed_set_is_mirror_of_rotation():
    # The reductions' turn+mirror frame, built from four slices: both
    # columns equal mirror_set(rotate_set(s)), and the three extreme indices
    # it seeds, with the top at 0, equal the round trip's and the ones read
    # from its columns.
    sets = [
        generate_random_convex(n, seed=n, mode=mode)
        for mode in ALL_MODES
        for n in (1, 2, 3, 4, 5, 6, 200)
    ]
    for s in (*sets, S6, HEX_A1, HEX_A2):
        t, want = _transposed_set(s), mirror_set(rotate_set(s))
        assert (t.xs, t.ys) == (want.xs, want.ys)
        seeded = (t.top_index, *(vars(t)[f"{k}_index"] for k in ("bottom", "left", "right")))
        assert seeded == _extremes(want) == _column_extremes(t)


def _split_or_error(t):
    try:
        return split_by_bt_line(t)
    except PreconditionViolated:
        return "top left of bottom"


@pytest.mark.parametrize("mode", ALL_MODES)
def test_replace_reads_extremes_from_columns(mode):
    # A set's columns cannot be swapped in place, and copy.replace (Python
    # 3.13 and later) is refused; the door builds a set from another set's
    # columns, and that fresh set reads its extremes from its own columns,
    # not from the source's cache.
    for n in (2, 3, 4, 9, 16, 45):
        s = generate_random_convex(n, seed=2, mode=mode)
        _extremes(s)  # fill the source's cache first
        for t in (rotate_set(s), mirror_set(s), mirror_set(rotate_set(s))):
            with pytest.raises(AttributeError):
                s.xs = t.xs
            if hasattr(copy, "replace"):
                with pytest.raises(TypeError):
                    copy.replace(s, xs=t.xs, ys=t.ys)
            fresh = validate(zip(t.xs, t.ys))
            assert fresh == t and hash(fresh) == hash(t)
            assert _extremes(fresh) == _column_extremes(t) == _extremes(t)
            assert _split_or_error(fresh) == _split_or_error(t)
    # The case where the extremes used to go stale: (0, 5, 3, 8) against
    # (0, 4, 1, 6), and a split with m = 4 against m = 3.
    t = rotate_set(generate_random_convex(9, seed=2))
    fresh = validate(zip(t.xs, t.ys))
    assert _extremes(fresh) == (0, 4, 1, 6)
    assert split_by_bt_line(fresh).m == 3


def test_set_operators_scan_no_column(monkeypatch):
    # rotate_set, mirror_set and _transposed_set seed the extremes of the set
    # they build by index arithmetic: reading them afterwards runs no max or min.
    s = generate_random_convex(16, seed=5)
    _extremes(s)
    fresh = validate(zip(s.xs, s.ys))  # reads its extremes from the columns

    def scan(*args):
        raise AssertionError("a column was scanned")

    monkeypatch.setattr(geometry, "max", scan, raising=False)
    monkeypatch.setattr(geometry, "min", scan, raising=False)
    built = (rotate_set(s), mirror_set(s), mirror_set(rotate_set(s)), _transposed_set(s))
    seen = [_extremes(t) for t in built]
    with pytest.raises(AssertionError, match="scanned"):
        fresh.bottom_index
    monkeypatch.undo()
    assert seen == [_column_extremes(t) for t in built]


def test_records_are_unequal_to_other_types():
    # A set, a path and an embedding compare equal only to their own kind:
    # __eq__ answers NotImplemented to a plain tuple or str, whose contents
    # match, and Python then falls back to identity.
    s = validate([(0, 0), (2, 3), (4, 1)])
    for record, other in (
        (s, (s.xs, s.ys)), (s, tuple(zip(s.xs, s.ys))),
        (DirPath("UR"), "UR"), (Embedding((1, 0, 2)), (1, 0, 2)),
    ):
        assert record.__eq__(other) is NotImplemented
        assert record != other and other != record
        assert not record == other


def test_sets_equal_hash_and_pickle_by_columns(monkeypatch):
    # validate() builds no Point; points builds the n views on each read.
    built = []
    new = Point.__new__

    def counted(cls, x, y):
        built.append((x, y))
        return new(cls, x, y)

    monkeypatch.setattr(Point, "__new__", counted)
    s = generate_random_convex(9, seed=4)
    assert not built
    points = s.points
    assert s.points is not points
    monkeypatch.undo()
    assert built == 2 * list(points) and list(points) == list(zip(s.xs, s.ys))
    fresh = validate(zip(s.xs, s.ys))
    assert fresh == s and hash(fresh) == hash(s)
    assert fresh.points == s.points and repr(fresh) == repr(s)
    # The columns are the only fields: the extreme indices are a cache and
    # take no part in equality or hashing. Neither they nor the points view
    # can be assigned, and the constructor refuses them; only validate() and
    # the symmetry operators build a set.
    _extremes(s)
    assert "bottom_index" in vars(s) and "bottom_index" not in vars(fresh)
    assert fresh == s and hash(fresh) == hash(s)
    for name in ("xs", "ys", "top_index", "points"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(fresh, name))
        with pytest.raises(AttributeError):
            delattr(s, name)
    with pytest.raises(PreconditionViolated, match=r"built by validate\(\)"):
        ConvexPointSet(s.xs, s.ys)
    assert mirror_set(s) != s and rotate_set(s) != s
    assert mirror_set(mirror_set(s)) == s
    t = s
    for _ in range(4):
        t = rotate_set(t)
    assert t == s and hash(t) == hash(s)
    # pickle and copy go back through the door.
    for t in (s, fresh, rotate_set(s), mirror_set(s)):
        assert t.__reduce__()[0] is validate
        for back in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
            assert back == t and hash(back) == hash(t)
            assert (back.xs, back.ys, _extremes(back)) == (t.xs, t.ys, _extremes(t))
            assert back.points == t.points
    # The decider's per-set state is a cache too: after a decide it takes no
    # part in equality or hashing, and pickle, copy and the symmetry images
    # start without it. The embedder and the validator build none, neither on
    # the sets they are given nor on the frame sets they derive from them.
    decide_pdce(DirPath("UDLR" * 2), s)
    assert s._decider.keys() == {"x", "y", *"UDLR"}
    assert fresh == s and hash(fresh) == hash(s) and "_decider" not in vars(fresh)
    images = (rotate_set(s), mirror_set(s), _transposed_set(s))
    for back in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s), *images):
        assert "_decider" not in vars(back)
    sealed = []
    real = geometry._sealed

    def sealing(*args, **extremes):
        sealed.append(real(*args, **extremes))
        return sealed[-1]

    monkeypatch.setattr("pdce.paths._sealed", sealing)
    for labels in ("UDR", "UDL", "ULR", "DLR"):
        p = DirPath((labels * 3)[: s.n - 1])
        assert validate_embedding(p, fresh, embed_three_directional(p, fresh)).is_pdce
    assert len(sealed) >= 3
    assert not any("_decider" in vars(t) for t in (fresh, *sealed))


def _identity_pdce(s):
    # Walking the hull CCW from the top gives a crossing-free path; label
    # each edge by its actual direction to get a PDCE to transform.
    labels = []
    for a, b in zip(s.points, s.points[1:]):
        if abs(b.y - a.y) >= abs(b.x - a.x):
            labels.append("U" if b.y > a.y else "D")
        else:
            labels.append("R" if b.x > a.x else "L")
    # the coarse label guess may break direction consistency; fix it exactly
    fixed = []
    for a, b, lab in zip(s.points, s.points[1:], labels):
        if lab == "U" and b.y < a.y:
            lab = "D"
        elif lab == "D" and b.y > a.y:
            lab = "U"
        elif lab == "R" and b.x < a.x:
            lab = "L"
        elif lab == "L" and b.x > a.x:
            lab = "R"
        fixed.append(lab)
    return DirPath("".join(fixed)), Embedding(tuple(range(s.n)))


@given(convex_sets(min_n=2, max_n=20))
def test_operator_calculus_on_hull_walk_pdces(s):
    p, e = _identity_pdce(s)
    assert validate_embedding(p, s, e).is_pdce

    assert validate_embedding(reverse_path(p), s, reverse_embedding(e)).is_pdce

    sr = rotate_set(s)
    assert validate_embedding(rotate_path(p), sr, rotate_embedding(e, s)).is_pdce

    sm = mirror_set(s)
    assert validate_embedding(mirror_path(p), sm, mirror_embedding(e, s)).is_pdce


def test_embedding_container():
    # A list assignment is stored as the tuple, so the two embeddings are one
    # value with one hash.
    for assignment in ((2, 0, 1), [2, 0, 1]):
        e = Embedding(assignment)
        assert len(e) == 3
        assert e[0] == 2 and e[2] == 1
        assert e == Embedding((2, 0, 1)) and hash(e) == hash(Embedding((2, 0, 1)))
        assert e.assignment == (2, 0, 1)


def test_records_are_values():
    # Every public record round-trips through pickle and copy to an equal
    # value, with an equal hash where it has one, refuses assignment and
    # keeps the repr its fields spell out. The five records that are named
    # tuples equal the plain tuple of their fields.
    s = validate([(5, 6), (1, 4), (-1, 2), (0, 0), (4, 1)])
    p, e = DirPath("UDUR"), Embedding((0, 1, 2, 3, 4))
    report, table, split = validate_embedding(p, s, e), dp_table(p, s), split_by_bt_line(s)
    plan = plan_udr_case(p, s)
    records = [(p, "labels"), (e, "assignment"), (s, "xs"), (report, "first_violation"),
               (table, "near_bits"), (split, "m"), (plan, "parts"), (plan.parts[0], "pool")]
    for r, field in records:
        for back in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert type(back) is type(r) and back == r, r
            if r is not table:
                assert hash(back) == hash(r), r
        with pytest.raises(AttributeError):
            setattr(r, field, getattr(r, field))
        assert isinstance(r, tuple) == (type(r) not in (DirPath, Embedding, ConvexPointSet))
    with pytest.raises(TypeError):
        hash(table)  # its rows are lists
    assert all(r == tuple(r) for r in (report, table, split, plan, plan.parts[0]))
    assert repr(p) == "DirPath(labels='UDUR')"
    assert repr(e) == "Embedding(assignment=(0, 1, 2, 3, 4))"
    assert repr(s) == "ConvexPointSet([(5, 6), (1, 4), (-1, 2), (0, 0), (4, 1)])"
    # ValidationReport builds positionally, as perfbench/selftest.py builds it.
    assert repr(ValidationReport(True, True, True, None)) == (
        "ValidationReport(direction_consistent=True, planar_prefix=True, "
        "planar_segments=True, first_violation=None)"
    )
    assert repr(table) == (
        "DPTable(n=5, near_bits=[31, 7, 24, 7, 11], far_bits=[31, 24, 23, 30, 22])"
    )
    assert repr(split) == "SplitDescriptor(m=2, alpha=1, beta=5)"
    assert repr(plan) == (
        "CasePlan(case_tag='down-up', m=2, alpha=1, beta=5, i=None, j=None, a=None, b=None, "
        "c=None, e=None, parts=(CasePart(name='left-cap', pool=(1, 2, 3), first_vertex=1, "
        "last_vertex=3, method='left_sided'), CasePart(name='right-cap', pool=(0, 3, 4), "
        "first_vertex=3, last_vertex=5, method='right_sided')))"
    )
