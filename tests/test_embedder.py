import functools
import hashlib
import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings

import pdce
from pdce import (
    DirPath,
    FourDirectional,
    InternalCaseError,
    PreconditionViolated,
    SetTag,
    SizeMismatch,
    backward_embedding,
    classify,
    decide_pdce,
    embed_quarter_convex,
    embed_three_directional,
    embed_udr_convex,
    embed_udr_left_sided,
    embed_udr_right_sided,
    embed_ur_strip,
    generate_random_convex,
    mirror_set,
    plan_udr_case,
    split_by_bt_line,
    validate,
    validate_embedding,
)
from pdce import embedder
from pdce.embedder import (
    CasePart,
    CasePlan,
    _arc,
    _greedy,
    _leftmost,
    _two_ended,
    execute_plan,
)
from pdce.geometry import Point
from pdce.paths import _REVERSE_FLIP
from conftest import ALL_MODES, convex_sets, instances, random_path

S5 = validate([(4, 0), (3, 6), (1, 5), (0, 3), (2, 1)])
CHAIN4 = validate([(0, 0), (2, 1), (3, 3), (5, 4)])
# two left points, one with x between b and t, so alpha < m; one point right of t
S6 = validate([(5, 6), (1, 4), (-1, 2), (0, 0), (4, 1)])
HEX_A2 = validate([(0, 0), (4, 10), (-3, 4), (-1, 7), (7, 6), (3, 1)])  # alpha = m = 2
HEX_A1 = validate([(0, 0), (4, 10), (-3, 4), (1, 8), (7, 6), (3, 1)])  # alpha = 1 < m


def embedded_coords(s, e):
    return [(s.xs[i], s.ys[i]) for i in e.assignment]


def _top_left_of_bottom(s):
    return s.xs[s.top_index] < s.xs[s.bottom_index]


# --- backward embedding -------------------------------------------------------


def test_backward_urdu_frozen_trace():
    e = backward_embedding(DirPath("URDU"), S5)
    assert embedded_coords(S5, e) == [(0, 3), (1, 5), (2, 1), (4, 0), (3, 6)]
    assert validate_embedding(DirPath("URDU"), S5, e).is_pdce


def test_backward_two_points():
    s = validate([(0, 0), (1, 1)])
    e = backward_embedding(DirPath("U"), s)
    assert embedded_coords(s, e) == [(0, 0), (1, 1)]


def test_backward_rur_on_chain():
    e = backward_embedding(DirPath("RUR"), CHAIN4)
    assert embedded_coords(CHAIN4, e) == [(0, 0), (2, 1), (3, 3), (5, 4)]


def test_backward_size_mismatch():
    with pytest.raises(SizeMismatch):
        backward_embedding(DirPath("U"), S5)


def test_backward_always_direction_consistent():
    # planarity is not promised without the case preconditions, direction is
    from pdce import check_direction_consistency

    s = generate_random_convex(9, seed=2)
    p = DirPath("UDRLUDRL")
    e = backward_embedding(p, s)
    ok, _ = check_direction_consistency(p, s, e)
    assert ok


# --- one-sided and strip leaf embedders ----------------------------------------


def test_left_sided_urdu_endpoint():
    e = embed_udr_left_sided(DirPath("URDU"), S5)
    assert e.assignment[-1] == S5.top_index  # d4 = U
    assert validate_embedding(DirPath("URDU"), S5, e).is_pdce


def test_left_sided_two_point_down():
    s = validate([(0, 0), (1, 1)])
    e = embed_udr_left_sided(DirPath("D"), s)
    assert e.assignment[-1] == s.bottom_index


def test_left_sided_rejects_l_and_wrong_class():
    with pytest.raises(PreconditionViolated):
        embed_udr_left_sided(DirPath("URLU"), S5)
    rs = generate_random_convex(6, seed=3, mode="right_sided")
    with pytest.raises(PreconditionViolated):
        embed_udr_left_sided(DirPath("UUUUU"), rs)
    # The right-sided mirror and the case planner check the same way.
    with pytest.raises(PreconditionViolated, match="handles U/D/R labels only"):
        embed_udr_right_sided(DirPath("URLUU"), rs)
    with pytest.raises(PreconditionViolated, match="not right-sided"):
        embed_udr_right_sided(DirPath("UUUU"), S5)
    with pytest.raises(PreconditionViolated, match="handles U/D/R labels only"):
        plan_udr_case(DirPath("UULU"), S6)


@given(instances(min_n=2, max_n=22, alphabet="UDR", modes=("left_sided",)))
def test_left_sided_endpoint_contract(inst):
    p, s = inst
    e = embed_udr_left_sided(p, s)
    assert validate_embedding(p, s, e).is_pdce
    want = {"U": s.top_index, "D": s.bottom_index, "R": s.right_index}[p.labels[-1]]
    assert e.assignment[-1] == want


@given(instances(min_n=2, max_n=22, alphabet="UDR", modes=("right_sided",)))
def test_right_sided_endpoint_contract(inst):
    p, s = inst
    e = embed_udr_right_sided(p, s)
    assert validate_embedding(p, s, e).is_pdce
    want = {"U": s.bottom_index, "D": s.top_index, "R": s.left_index}[p.labels[0]]
    assert e.assignment[0] == want


def test_right_sided_two_point_r():
    s = validate([(0, 0), (1, 1)])
    e = embed_udr_right_sided(DirPath("R"), s)
    assert e.assignment[0] == s.left_index


def test_strip_rur_frozen():
    e = embed_ur_strip(DirPath("RUR"), CHAIN4)
    assert embedded_coords(CHAIN4, e) == [(0, 0), (2, 1), (3, 3), (5, 4)]
    assert e.assignment[-1] == CHAIN4.right_index  # d3 = R


def test_strip_uu_ends_at_top():
    s = generate_random_convex(3, seed=11, mode="strip")
    e = embed_ur_strip(DirPath("UU"), s)
    assert e.assignment[-1] == s.top_index


def test_strip_guards_its_first_vertex(monkeypatch):
    # The greedy's walk starts on (0, 0), the bottom and leftmost point;
    # rotated by one it starts on (2, 1), which is neither.
    def rotated(*args):
        out = _greedy(*args)
        return out[1:] + out[:1]

    monkeypatch.setattr(embedder, "_greedy", rotated)
    with pytest.raises(InternalCaseError, match=r"strip endpoint guarantee broken \(first vertex\)"):
        embed_ur_strip(DirPath("RUR"), CHAIN4)


def test_strip_rejects_d():
    with pytest.raises(PreconditionViolated):
        embed_ur_strip(DirPath("RDR"), CHAIN4)
    with pytest.raises(PreconditionViolated, match="not strip-convex"):
        embed_ur_strip(DirPath("URUR"), S5)


@given(instances(min_n=2, max_n=22, alphabet="UR", modes=("strip",)))
def test_strip_endpoint_contract(inst):
    p, s = inst
    e = embed_ur_strip(p, s)
    assert validate_embedding(p, s, e).is_pdce
    assert e.assignment[0] in (s.bottom_index, s.left_index)
    want = s.top_index if p.labels[-1] == "U" else s.right_index
    assert e.assignment[-1] == want


@pytest.mark.parametrize("mode", ALL_MODES)
def test_strip_tag_admits_strip_embedding(mode):
    # Whatever set class drew it, a set tagged strip-convex takes every U/R
    # path; quarter_dec sets (top leftmost, bottom rightmost) are not strip.
    rng = random.Random(f"strip-tag:{mode}")
    for n in range(2, 40, 3):
        for seed in range(5):
            s = generate_random_convex(n, seed=seed, mode=mode)
            if SetTag.STRIP_CONVEX not in classify(s):
                continue
            for _ in range(3):
                p = random_path(rng, n, "UR")
                assert validate_embedding(p, s, embed_ur_strip(p, s)).is_pdce


# --- case planner ----------------------------------------------------------------


FROZEN_CASES = [
    (S6, "UDUR", "down-up"),
    (S6, "URDD", "up-down"),
    (S6, "UDDR", "down-run"),
    (S6, "DURU", "mid-strip"),
    (S6, "RRUU", "mid-strip-left-cut"),
    (S6, "UURR", "up-run-low"),
    (HEX_A2, "DRUUR", "mid-strip-both-cuts"),
    (HEX_A2, "DRURU", "up-run-high-left-cut"),
    (HEX_A2, "DURUR", "up-run-low-right-cut"),
    (HEX_A2, "UUUUU", "two-up-runs"),
    (HEX_A2, "DUURU", "two-up-runs"),
    (HEX_A1, "DRUUU", "up-run-high"),
    (HEX_A1, "DRUUR", "mid-strip-right-cut"),
]


@pytest.mark.parametrize("s,labels,tag", FROZEN_CASES)
def test_case_tags_frozen(s, labels, tag):
    plan = plan_udr_case(DirPath(labels), s)
    assert plan.case_tag == tag
    e = embed_udr_convex(DirPath(labels), s)
    assert validate_embedding(DirPath(labels), s, e).is_pdce


def test_all_u_degenerate_two_runs():
    plan = plan_udr_case(DirPath("UUUUU"), HEX_A2)
    assert plan.case_tag == "two-up-runs"
    assert plan.a == plan.c and plan.b == plan.e


def test_one_sided_splits_short_circuit():
    ls = generate_random_convex(7, seed=4, mode="left_sided")
    if _top_left_of_bottom(ls):
        from pdce import mirror_set

        ls = mirror_set(ls)  # mirror is right-sided with t right of b
        assert plan_udr_case(DirPath("UUDDRU"), ls).case_tag == "right-sided"
    else:
        assert plan_udr_case(DirPath("UUDDRU"), ls).case_tag == "left-sided"


@given(instances(min_n=2, max_n=24, alphabet="UDR", modes=("general",)))
def test_plan_covers_slots_and_points(inst):
    # Only general sets reach plans other than the one-sided ones; a set
    # whose top lies left of its bottom is mirrored, not skipped.
    p, s = inst
    if _top_left_of_bottom(s):
        s = mirror_set(s)
    plan = plan_udr_case(p, s)
    parts = plan.parts
    assert parts[0].first_vertex == 1
    assert parts[-1].last_vertex == s.n
    used = []
    for part in parts:
        assert len(part.points) == part.last_vertex - part.first_vertex + 1
        used.extend(part.points)
    for prev, nxt in zip(parts, parts[1:]):
        # parts either share the boundary vertex or meet across one edge
        assert nxt.first_vertex in (prev.last_vertex, prev.last_vertex + 1)
    assert sorted(set(used)) == list(range(s.n))
    _assert_caps_are_y_picks(plan, s)
    # the emitted case obeys its own index preconditions
    if plan.case_tag.startswith("mid-strip"):
        lo = plan.parts[0].last_vertex
        hi = plan.parts[-1].first_vertex
        assert plan.alpha + 1 <= lo and hi <= plan.beta


def _assert_caps_are_y_picks(plan, s):
    # The caps are chosen as hull arcs; they must be the points a sort by y
    # picks from one side of the split line plus the bottom and the top:
    # the lowest left and highest right, or, in the down-run and up-down
    # cases, the highest left and lowest right.
    sp = split_by_bt_line(s)
    ends = (s.top_index, s.bottom_index)
    down = plan.case_tag in ("down-run", "up-down")
    for part in plan.parts:
        if part.name == "left-cap":
            pool, highest = tuple(range(1, sp.m + 1)) + ends, down
        elif part.name == "right-cap":
            pool, highest = tuple(range(sp.m + 2, s.n)) + ends, not down
        else:
            continue
        by_y = sorted(pool, key=s.ys.__getitem__, reverse=highest)
        assert part.points == tuple(sorted(by_y[: len(part.points)])), (plan.case_tag, part)


CASE_TAGS = frozenset(
    [
        "left-sided",
        "right-sided",
        "down-up",
        "up-down",
        "down-run",
        "mid-strip",
        "mid-strip-left-cut",
        "mid-strip-right-cut",
        "mid-strip-both-cuts",
        "up-run-high",
        "up-run-high-left-cut",
        "up-run-low",
        "up-run-low-right-cut",
        "two-up-runs",
    ]
)


@functools.lru_cache(maxsize=None)
def _seeded_udr_plans():
    # Seeded U/D/R instances on general sets, whose split reaches every case,
    # with paths rich in U and R runs, until each tag has 20 hits. The rarest
    # (mid-strip, mid-strip-right-cut, up-run-high) turn up about once in
    # 150 tries here.
    rng = random.Random("case-tags")
    hits = Counter()
    out = []
    for _ in range(12000):
        n = rng.randint(4, 15)
        s = generate_random_convex(n, seed=rng.randrange(10**9), mode="general")
        if _top_left_of_bottom(s):
            s = mirror_set(s)
        p = random_path(rng, n, rng.choice(("UDR", "UURD", "URRD")))
        plan = plan_udr_case(p, s)
        hits[plan.case_tag] += 1
        out.append((p, s, plan))
        if min(hits[tag] for tag in CASE_TAGS) >= 20:
            break
    return tuple(out)


def test_every_case_tag_seeded():
    # Every plan's caps are checked against the y-sort and every embedding
    # is validated.
    hits = Counter()
    for p, s, plan in _seeded_udr_plans():
        hits[plan.case_tag] += 1
        _assert_caps_are_y_picks(plan, s)
        assert validate_embedding(p, s, embed_udr_convex(p, s)).is_pdce
    assert set(hits) == CASE_TAGS and min(hits.values()) >= 20, hits


def _flipped(labels):
    # The labels _right_sided hands to the walk: reversed, each one flipped.
    return labels[::-1].translate(_REVERSE_FLIP)


def test_two_ended_matches_greedy():
    # The two-ended walk must be the generic greedy on every pool it runs
    # on: each non-strip part of the seeded plans, and whole left- and
    # right-sided sets of every generator mode, a right-sided pool under
    # the labels _right_sided hands over.
    runs = []
    for p, s, plan in _seeded_udr_plans():
        for part in plan.parts:
            labels = p.labels[part.first_vertex - 1 : part.last_vertex - 1]
            if part.method == "right_sided":
                labels = _flipped(labels)
            elif part.method == "strip":
                continue
            runs.append((part.method, labels, s, part.points))
    rng = random.Random("two-ended")
    for mode in ALL_MODES:
        for _ in range(40):
            s = generate_random_convex(rng.randint(1, 30), seed=rng.randrange(10**9), mode=mode)
            labels = random_path(rng, s.n, "UDR").labels
            tags = classify(s)
            if SetTag.LEFT_SIDED in tags:
                runs.append(("left_sided", labels, s, range(s.n)))
            if SetTag.RIGHT_SIDED in tags:
                runs.append(("right_sided", _flipped(labels), s, range(s.n)))
    for method, labels, s, pool in runs:
        assert _two_ended(labels, s, pool) == _greedy(labels, s, pool), (method, labels, s, pool)
    assert {m for m, *_ in runs} == set(embedder._RUNNERS) - {"strip"}
    # R and L steps, the ones that compare the two ends, on both sides.
    steps = Counter(m for m, labels, _, _ in runs for d in labels if d in "RL")
    assert set(steps) == {"left_sided", "right_sided"} and min(steps.values()) >= 100, steps

    # On a strip pool the rightmost free point may lie inside the run: this
    # is why strip parts and backward_embedding keep the generic greedy.
    s = validate([(11, 20), (1, 15), (0, 0), (10, 2)])
    assert SetTag.STRIP_CONVEX in classify(s)
    assert _greedy("URU", s, range(4)) == [2, 1, 3, 0]
    assert _two_ended("URU", s, range(4)) == [2, 3, 1, 0]


def test_execute_plan_guards():
    # Hand-built plans for an all-U path, whose parts each sort their points
    # by y. The executor joins parts that come in vertex order and share at
    # most one boundary vertex; anything else is a planner bug.
    s = generate_random_convex(6, seed=1)
    p, o = DirPath("UUUUU"), s.y_order

    def run(*spans):
        parts = tuple(
            CasePart(f"part{k}", tuple(sorted(pts)), first, last, "sort_up")
            for k, (pts, first, last) in enumerate(spans)
        )
        return execute_plan(p, s, CasePlan("hand-built", 0, 0, 0, parts=parts))

    assert run((o[:3], 1, 3), (o[2:], 3, 6)).assignment == o  # shared vertex
    assert run((o[:3], 1, 3), (o[3:], 4, 6)).assignment == o  # joining edge
    with pytest.raises(InternalCaseError, match="disagree on vertex 3"):
        run((o[:3], 1, 3), (o[1:2] + o[3:], 3, 6))
    with pytest.raises(InternalCaseError, match="leaves vertices 4..4 unassigned"):
        run((o[:3], 1, 3), (o[4:], 5, 6))
    with pytest.raises(InternalCaseError, match="leaves vertices 1..2 unassigned"):
        run((o[2:], 3, 6), (o[:3], 1, 3))  # out of order
    with pytest.raises(InternalCaseError, match="starts at vertex 1"):
        run((o[:3], 1, 3), (o[3:], 4, 6), (o[:2], 1, 2))  # out of order
    with pytest.raises(InternalCaseError, match="starts at vertex 2"):
        run((o[:3], 1, 3), (o[1:], 2, 6))  # two vertices overlap
    with pytest.raises(InternalCaseError, match="ends at vertex 5 of 6"):
        run((o[:3], 1, 3), (o[2:5], 3, 5))
    with pytest.raises(InternalCaseError, match="part part1 hosts 3 vertices on 4 points"):
        run((o[:3], 1, 3), (o[2:], 4, 6))
    spiral = CasePart("part0", tuple(range(6)), 1, 6, "spiral")
    with pytest.raises(InternalCaseError, match="unknown part method 'spiral'"):
        execute_plan(p, s, CasePlan("hand-built", 0, 0, 0, parts=(spiral,)))
    # The part builders refuse more points than their source holds.
    with pytest.raises(InternalCaseError, match="an arc of 7 points from a set of 6"):
        _arc(s, 0, 7)
    with pytest.raises(InternalCaseError, match="an arc of -1 points from a set of 6"):
        _arc(s, 0, -1)
    with pytest.raises(InternalCaseError, match="asked for 3 points from a pool of 2"):
        _leftmost(s, (0, 1), 3)


# --- full UDR embedder -------------------------------------------------------------


def test_udr_n2_r_unique():
    s = validate([(0, 1), (5, 3)])
    e = embed_udr_convex(DirPath("R"), s)
    assert embedded_coords(s, e) == [(0, 1), (5, 3)]


def test_udr_dd_sorts_down():
    s = validate([(0, 0), (2, 3), (4, 1)])
    e = embed_udr_convex(DirPath("DD"), s)
    ys = [s.ys[i] for i in e.assignment]
    assert ys == sorted(ys, reverse=True)


def test_udr_requires_t_right_of_b():
    with pytest.raises(PreconditionViolated):
        embed_udr_convex(DirPath("UUUU"), S5)  # t=(3,6) left of b=(4,0)


@given(instances(min_n=1, max_n=28, alphabet="UDR", modes=("general",)))
def test_udr_convex_sound(inst):
    p, s = inst
    if _top_left_of_bottom(s):
        s = mirror_set(s)
    e = embed_udr_convex(p, s)
    assert validate_embedding(p, s, e).is_pdce


# --- three-directional / quarter ---------------------------------------------------


def test_three_directional_rejects_four_labels():
    s = generate_random_convex(6, seed=8)
    with pytest.raises(FourDirectional):
        embed_three_directional(DirPath("RLUDD"), s)


def test_three_directional_frozen_examples():
    e = embed_three_directional(DirPath("URDU"), S5)
    assert validate_embedding(DirPath("URDU"), S5, e).is_pdce

    s4 = generate_random_convex(4, seed=12)
    e4 = embed_three_directional(DirPath("LLL"), s4)
    xs = [s4.xs[i] for i in e4.assignment]
    assert xs == sorted(xs, reverse=True)
    assert validate_embedding(DirPath("LLL"), s4, e4).is_pdce


def test_three_directional_size_mismatch():
    with pytest.raises(SizeMismatch):
        embed_three_directional(DirPath("UU"), S5)


@given(instances(min_n=1, max_n=26, alphabet="UDL"))
def test_udl_reduction_sound(inst):
    p, s = inst
    e = embed_three_directional(p, s)
    assert validate_embedding(p, s, e).is_pdce


@given(instances(min_n=1, max_n=26, alphabet="ULR"))
def test_ulr_reduction_sound(inst):
    p, s = inst
    e = embed_three_directional(p, s)
    assert validate_embedding(p, s, e).is_pdce


@given(instances(min_n=1, max_n=26, alphabet="DLR"))
def test_dlr_reduction_sound(inst):
    p, s = inst
    e = embed_three_directional(p, s)
    assert validate_embedding(p, s, e).is_pdce


def test_quarter_lulrdr_on_increasing_chain():
    s = generate_random_convex(7, seed=21, mode="quarter_inc")
    p = DirPath("LULRDR")
    e = embed_quarter_convex(p, s)
    assert validate_embedding(p, s, e).is_pdce


def test_quarter_two_point_r():
    s = validate([(0, 0), (1, 1)])
    e = embed_quarter_convex(DirPath("R"), s)
    assert embedded_coords(s, e) == [(0, 0), (1, 1)]


def test_quarter_on_zigzag_chain():
    # order-coincident but not hull-monotone; collapse must still hold
    s = validate([(0, 0), (2, 1), (3, 3), (5, 4)])
    p = DirPath("RLR")
    e = embed_quarter_convex(p, s)
    assert validate_embedding(p, s, e).is_pdce


def test_quarter_rejects_general_sets():
    with pytest.raises(PreconditionViolated):
        embed_quarter_convex(DirPath("UDLR"), generate_random_convex(5, seed=5))


@given(instances(min_n=1, max_n=24, alphabet="UDLR", modes=("quarter_inc", "quarter_dec")))
def test_quarter_four_label_sound(inst):
    p, s = inst
    e = embed_quarter_convex(p, s)
    assert validate_embedding(p, s, e).is_pdce


def test_validate_once_check_once(monkeypatch):
    # Transformed sets and plan parts come from index arithmetic, and only
    # the outermost public call checks its answer: no validate() call and
    # one verdict pass per top-level call, which passes, so the per-rule
    # direction and prefix checks never run. At most one rotate_set
    # (U/L/R and D/L/R paths only) and one mirror_set (only when the reduced
    # set's top lies left of its bottom) runs per call; the U/D/R primitives
    # run on the set itself, without a half turn. No Point is built.
    general = generate_random_convex(40, seed=3, mode="general")
    turned = mirror_set(general)
    assert _top_left_of_bottom(general) != _top_left_of_bottom(turned)
    # general's top lies left of its bottom and its right point above its
    # left one, so a D/L/R path on it takes the quarter-turned set, whose
    # top then lies left of its bottom, and that set's mirror.
    assert _top_left_of_bottom(general)
    assert general.ys[general.right_index] > general.ys[general.left_index]
    chains = [
        generate_random_convex(40, seed=3, mode=mode) for mode in ("quarter_inc", "quarter_dec")
    ]
    originals = {
        "validate": pdce.geometry.validate,
        "_verdicts": pdce.validator._verdicts,
        "check_direction_consistency": pdce.validator.check_direction_consistency,
        "_first_prefix_failure": pdce.validator._first_prefix_failure,
        "rotate_set": pdce.paths.rotate_set,
        "mirror_set": pdce.paths.mirror_set,
    }

    def expected(used, s):
        rotated = not (used <= frozenset("UDR") or used <= frozenset("UDL"))
        reduced = originals["rotate_set"](s) if rotated else s
        mirrored = _top_left_of_bottom(reduced)
        branches.add((rotated, mirrored))
        return +Counter(_verdicts=1, rotate_set=int(rotated), mirror_set=int(mirrored))

    calls = Counter()
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "pdce" or mod_name.startswith("pdce."):
            for name, fn in originals.items():
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, _counted(fn, name, calls))
    monkeypatch.setattr(Point, "__new__", _counted(Point.__new__, "Point", calls))
    branches = set()
    rng = random.Random(5)
    for s in (general, turned):
        for subset in ("UDR", "UDL", "ULR", "DLR"):
            p = random_path(rng, s.n, subset)
            want = expected(p.directions_used(), s)
            calls.clear()
            e = embed_three_directional(p, s)
            assert calls == want, (subset, calls)
            assert validate_embedding(p, s, e).is_pdce
    for chain in chains:
        # The label collapse leaves a U/D path on the chain itself.
        want = expected(frozenset("UD"), chain)
        calls.clear()
        embed_quarter_convex(random_path(rng, chain.n, "UDLR"), chain)
        assert calls == want, calls
    assert branches == {(False, False), (False, True), (True, False), (True, True)}


def _counted(fn, name, calls):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@settings(max_examples=40)
@given(instances(min_n=1, max_n=14, alphabet="UDR"))
def test_constructive_agrees_with_decider(inst):
    p, s = inst
    embed_three_directional(p, s)  # must not raise
    assert decide_pdce(p, s) is not None


# --- frozen witnesses ----------------------------------------------------------------

# SHA-256 of _witness_records(). Any change to a witness, a plan's parts or
# a case tag changes it. Re-recorded once, when classify() stopped tagging
# sets whose top lies left of their bottom strip-convex: that removed their
# 59 "strip" records and changed no other record.
WITNESS_CORPUS_SHA256 = "f9fe9b4b44fa6ba62f626621e1ec78821bd158a0e1f4918b9d238e1ed0f90200"
LABEL_SUBSETS = tuple(
    "".join(c) for k in range(1, 5) for c in itertools.combinations("UDLR", k)
)


def _witness_records():
    # Every embedder entry on every set class, n <= 60, a path drawn from each
    # non-empty label subset, plus the plans and witnesses of FROZEN_CASES.
    # A call that raises is recorded by its exception's name.
    rng = random.Random("witness-corpus")
    for mode in ALL_MODES:
        for n in (1, 2, 3, 4, 5, 6, 8, 11, 16, 23, 32, 45, 60):
            s = generate_random_convex(n, seed=7000 + n, mode=mode)
            cls = classify(s)
            for subset in LABEL_SUBSETS:
                p = random_path(rng, n, subset)
                used = p.directions_used()
                calls = [("backward", backward_embedding)]
                if len(used) < 4:
                    calls.append(("three", embed_three_directional))
                if SetTag.QUARTER_INC in cls or SetTag.QUARTER_DEC in cls:
                    calls.append(("quarter", embed_quarter_convex))
                if used <= frozenset("UR") and SetTag.STRIP_CONVEX in cls:
                    calls.append(("strip", embed_ur_strip))
                if used <= frozenset("UDR"):
                    if SetTag.LEFT_SIDED in cls:
                        calls.append(("left", embed_udr_left_sided))
                    if SetTag.RIGHT_SIDED in cls:
                        calls.append(("right", embed_udr_right_sided))
                    if n == 1 or s.xs[s.top_index] > s.xs[s.bottom_index]:
                        calls.append(("udr", embed_udr_convex))
                    if n >= 2 and s.xs[s.top_index] > s.xs[s.bottom_index]:
                        calls.append(("plan", plan_udr_case))
                for kind, fn in calls:
                    yield f"{mode} {n} {p.labels}", kind, _outcome(fn, p, s)
    for s, labels, _ in FROZEN_CASES:
        p = DirPath(labels)
        yield labels, "plan", _outcome(plan_udr_case, p, s)
        yield labels, "udr", _outcome(embed_udr_convex, p, s)


def _outcome(fn, p, s):
    try:
        return repr(fn(p, s))
    except pdce.PdceError as exc:
        return type(exc).__name__


def test_witness_corpus_frozen():
    digest = hashlib.sha256()
    kinds = Counter()
    for head, kind, out in _witness_records():
        kinds[kind] += 1
        digest.update(f"{head} {kind} {out}\n".encode("ascii"))
    assert min(kinds.values()) >= 13 and len(kinds) == 8, kinds
    assert digest.hexdigest() == WITNESS_CORPUS_SHA256, kinds
