"""Constructive embedders for direction-labeled paths on convex point sets.

The entry point for arbitrary convex sets is embed_three_directional, which
handles every path that avoids at least one of the four labels. It reduces
everything to the U/D/R case, solved by a divide-and-conquer along the line
through the bottom and top points (plan_udr_case / execute_plan). Each call
picks one frame from the set's extreme points and the labels: plain, mirror
(x -> -x), quarter turn, or turn+mirror, the transpose (x, y) -> (y, x).
Its labels come from paths' label tables, and only they become a DirPath,
the one plan_udr_case takes. The core runs once on the frame's set, and
its answer returns by one gather through the frame's index table (k -> -k,
k + r or r - k mod n, r = right_index), read backwards if reversed. The tables and
the planner's pools are cut from geometry._indices, the shared tuple of
index ints, so an embed builds no index int of its own.

The planner only chooses index ranges and point subsets: its caps are hull
arcs ending on the bottom or the top point, and one rule (_between) carves
the parts between: a part to the left or right takes the leftmost or
rightmost points the caps leave, the one part in the middle the rest.
All actual coordinates are handled by one backward walk (_walk) on index
pools of the canonical set, forwards or, for right-sided parts, backwards:
a crossing-free walk fills one hull arc with every suffix, so the walk
turns the pool, already in hull order, to start on its extreme point for
the last label (found by one gather of the pool's coordinates, at its
position in that gather), and takes an end of the free arc at each
step. backward_embedding, whose input is any convex set, keeps the
generic greedy (_greedy).
The frame's set comes from rotate_set, mirror_set or paths._transposed_set,
cut from the coordinate columns with its extremes seeded by index
arithmetic, never re-validated; planner, executor and walk read only n, xs,
ys and the extreme indices, never the points view.

Each public entry checks its preconditions, runs an unchecked private core
and checks the answer once with validator.require_pdce: a type check of
the indices, then one pass over the columns for both the labels and the
prefix arcs; the U/D/R and U/R constructions share one entry check,
_require_entry. Inside the cores only cheap guards run: the strip parts'
first-vertex guarantee and the executor's agreement of parts on shared
vertices. A planner bug therefore surfaces as InternalCaseError instead of
a wrong drawing.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Optional

from .errors import FourDirectional, InternalCaseError, PreconditionViolated
from .geometry import ConvexPointSet, SetTag, _indices, classify, split_by_bt_line
from .paths import (
    _MIRROR_LABEL,
    _REVERSE_FLIP,
    _ROTATE_LABEL,
    DirPath,
    Embedding,
    _transposed_set,
    mirror_set,
    rotate_set,
)
from .validator import require_pdce, require_same_size

__all__ = [
    "backward_embedding", "embed_quarter_convex", "embed_three_directional", "embed_udr_convex",
    "embed_udr_left_sided", "embed_udr_right_sided", "embed_ur_strip", "plan_udr_case",
]

def _greedy(labels: str, s, pool) -> list[int]:
    """The backward assignment of len(pool) - 1 labels on the points of s
    at the indices in pool. Returns the indices hosting v_1, v_2, ...

    Coordinates are distinct, so the pool order does not matter, and the
    last vertex always lands on the pool's extreme point in the direction
    of the last label. The pool is sorted once per axis the labels use: D
    and L take it by increasing y and x, U and R read the same list
    reversed, and a cursor per list skips the points already taken. This
    generic form is backward_embedding's, whose input is any convex set and
    whose answer need not be crossing-free; plan parts take _walk.
    """
    order = {}
    if "U" in labels or "D" in labels:
        order["D"] = sorted(pool, key=s.ys.__getitem__)
        order["U"] = order["D"][::-1]
    if "L" in labels or "R" in labels:
        order["L"] = sorted(pool, key=s.xs.__getitem__)
        order["R"] = order["L"][::-1]
    cursor = dict.fromkeys(order, 0)
    used = set()
    out = []
    for d in reversed(labels):
        lst = order[d]
        c = cursor[d]
        i = lst[c]
        while i in used:
            c += 1
            i = lst[c]
        cursor[d] = c + 1
        out.append(i)
        used.add(i)
    out.append((set(pool) - used).pop())  # the one point left over hosts v_1
    out.reverse()
    return out


def _extreme(pick, col, pool) -> int:
    # The position in pool of pick(pool, key=col.__getitem__), by one gather,
    # as coordinates are distinct; the pool holds two points or more.
    keys = itemgetter(*pool)(col)
    return keys.index(pick(keys))


def _walk(labels: str, s, pool) -> list[int]:
    """_greedy on a pool in hull order, when its answer is crossing-free.

    Then every suffix fills one hull arc, so the free points are the other
    arc, and the extreme free point in a label's direction is one of its
    two ends. The pool is turned to start on its extreme point for the last
    label; cursors lo and hi mark the free arc ring[lo..hi], and the point
    left over hosts v_1. Callers check every result.
    """
    ys, xs = s.ys, s.xs
    way = {"U": (ys, True), "D": (ys, False), "R": (xs, True), "L": (xs, False)}
    ring = tuple(pool)
    if labels:
        col, up = way[labels[-1]]
        k = _extreme(max if up else min, col, ring)
        ring = ring[k:] + ring[:k]
    lo, hi = 0, len(ring) - 1
    out = []
    for d in reversed(labels):
        col, up = way[d]  # the larger coordinate wins for U and R
        if (col[ring[hi]] > col[ring[lo]]) == up:
            out.append(ring[hi])
            hi -= 1
        else:
            out.append(ring[lo])
            lo += 1
    out.append(ring[lo])
    out.reverse()
    return out


def _right_sided(labels: str, s, pool) -> list[int]:
    # The walk on the reversed path, read backwards: it places v_1, v_2,
    # ... in turn on the extreme free point opposite the outgoing label, as
    # the left-sided construction does after a half turn of the plane.
    return _walk(labels[::-1].translate(_REVERSE_FLIP), s, pool)[::-1]


def _strip(labels: str, s, pool) -> list[int]:
    out = _walk(labels, s, pool)
    if len(pool) >= 2:
        ends = (pool[_extreme(min, s.ys, pool)], pool[_extreme(min, s.xs, pool)])
        if out[0] not in ends:
            raise InternalCaseError("strip endpoint guarantee broken (first vertex)")
    return out


def _on_whole_set(run, p: DirPath, s: ConvexPointSet) -> Embedding:
    return Embedding(tuple(run(p.labels, s, _indices(s.n))))


def _require_entry(p: DirPath, s: ConvexPointSet, work: str, alphabet: str, tag=None, kind=""):
    # The entry rules of the U/D/R and U/R constructions, in this order: one
    # vertex per point, labels drawn from alphabet, and for a primitive the
    # set class tag, which its refusal calls kind.
    require_same_size(p, s)
    if not p.directions_used().issubset(alphabet):
        raise PreconditionViolated(f"{work} handles {'/'.join(alphabet)} labels only")
    if tag is not None and tag not in classify(s):
        raise PreconditionViolated(f"point set is not {kind}")


def backward_embedding(p: DirPath, s: ConvexPointSet) -> Embedding:
    """Greedy assignment of v_n down to v_2, then v_1 takes the leftover.

    For each edge label, the head of the edge is put on the extreme free
    point in that direction (topmost for U, bottommost for D, leftmost for
    L, rightmost for R). The result is always direction-consistent; it is
    crossing-free under the entry conditions of the callers below.
    """
    require_same_size(p, s)
    return _on_whole_set(_greedy, p, s)


def embed_udr_left_sided(p: DirPath, s: ConvexPointSet) -> Embedding:
    """Embed a U/D/R path on a left-sided set via the backward assignment.

    Guarantees for n >= 2: the last vertex lands on the top, bottom or
    rightmost point when the last label is U, D or R respectively (and the
    rightmost point of a left-sided set is its top or bottom).
    """
    _require_entry(p, s, "left-sided embedding", "UDR", SetTag.LEFT_SIDED, "left-sided")
    return require_pdce(p, s, _on_whole_set(_walk, p, s), "left-sided")


def embed_udr_right_sided(p: DirPath, s: ConvexPointSet) -> Embedding:
    """Embed a U/D/R path on a right-sided set.

    The backward assignment runs on the reversed path with every label
    flipped and is read backwards, which is the left-sided construction
    after a half turn of the plane. Guarantees for n >= 2: the first vertex
    lands on the bottom, top or leftmost point when the first label is U, D
    or R respectively.
    """
    _require_entry(p, s, "right-sided embedding", "UDR", SetTag.RIGHT_SIDED, "right-sided")
    return require_pdce(p, s, _on_whole_set(_right_sided, p, s), "right-sided")


def embed_ur_strip(p: DirPath, s: ConvexPointSet) -> Embedding:
    """Embed a U/R path on a strip-convex set via the backward assignment.

    Guarantees for n >= 2: the first vertex lands on the bottom or leftmost
    point, and the last vertex lands on the top (last label U) or rightmost
    point (last label R).
    """
    _require_entry(p, s, "strip embedding", "UR", SetTag.STRIP_CONVEX, "strip-convex")
    return require_pdce(p, s, _on_whole_set(_strip, p, s), "strip")


# Part method -> runner. Every part runs the hull-order walk: right-sided
# parts on the flipped, reversed labels, strip parts with their endpoint
# check, and monotone parts on a run of U (sort_up) or D (sort_down)
# labels, where it is the sort by y.
_RUNNERS = {
    "left_sided": _walk,
    "right_sided": _right_sided,
    "strip": _strip,
    "sort_up": _walk,
    "sort_down": _walk,
}


class CasePart(NamedTuple):
    """One piece of a divide-and-conquer plan.

    pool holds indices into the parent canonical set, in hull order; vertex bounds are
    1-based and inclusive. Consecutive parts either share their boundary
    vertex (both then must place it on the same point) or are joined by a
    connecting edge that the final validation checks.
    """

    name: str
    pool: tuple[int, ...]
    first_vertex: int
    last_vertex: int
    method: str  # left_sided | right_sided | strip | sort_up | sort_down


class CasePlan(NamedTuple):
    case_tag: str
    m: int
    alpha: int
    beta: int
    i: Optional[int] = None
    j: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    c: Optional[int] = None
    e: Optional[int] = None
    parts: tuple[CasePart, ...] = ()


def _arc(s, start: int, count: int) -> tuple[int, ...]:
    # Hull positions start, start + 1, ... (mod n), count of them, sorted.
    n = s.n
    if not 0 <= count <= n:
        raise InternalCaseError(f"asked for an arc of {count} points from a set of {n}")
    ints = _indices(n)
    start %= n
    wrap = start + count - n
    if wrap <= 0:
        return ints[start : start + count]
    return ints[:wrap] + ints[start:]


def _run(labels: str, lo: int, hi: int, inside: str) -> tuple[int, int]:
    # Widen the 1-based edge range lo..hi to the maximal run of edges whose
    # labels are all in inside.
    while lo > 1 and labels[lo - 2] in inside:
        lo -= 1
    while hi < len(labels) and labels[hi] in inside:
        hi += 1
    return lo, hi


def _caps(s, L: int, H: int) -> tuple[CasePart, CasePart]:
    # The left cap hosts v_1..v_L on the lowest points of the left chain and
    # the bottom k, positions k-L+1..k; the right cap hosts v_H..v_n on the
    # highest points of the right chain and the top, positions H..n.
    k = s.bottom_index
    return (
        CasePart("left-cap", _arc(s, k - L + 1, L), 1, L, "left_sided"),
        CasePart("right-cap", _arc(s, H, s.n - H + 1), H, s.n, "right_sided"),
    )


def _between(s, left: CasePart, right: CasePart, *pieces) -> tuple[CasePart, ...]:
    # The parts between two caps share the points the caps leave, plus a
    # cap's bottom or top point where the piece next to it starts (or ends)
    # on the cap's boundary vertex. Pieces (name, first, last, method, side)
    # come in vertex order; a left or right piece takes the last - first + 1
    # leftmost or rightmost points still free, the one without a side the rest.
    ends = {s.bottom_index, s.top_index}
    free = set(_indices(s.n)).difference(left.pool, right.pool)
    if pieces[0][1] == left.last_vertex:
        free |= ends.intersection(left.pool)
    if pieces[-1][2] == right.first_vertex:
        free |= ends.intersection(right.pool)
    picked = {}
    for name, first, last, _, side in pieces:
        if side:
            k = last - first + 1
            if k > len(free):
                raise InternalCaseError(f"asked for {k} points from a pool of {len(free)}")
            picked[name] = sorted(free, key=s.xs.__getitem__, reverse=side == "right")[:k]
            free.difference_update(picked[name])
    middle = (
        CasePart(name, tuple(sorted(picked.get(name, free))), first, last, method)
        for name, first, last, method, _ in pieces
    )
    return (left, *middle, right)


_STRIP_TAGS = {  # strip plan tag by (low cut, high cut) of the U/R stretch
    (False, False): "mid-strip",
    (True, False): "mid-strip-left-cut",
    (False, True): "mid-strip-right-cut",
    (True, True): "mid-strip-both-cuts",
}


def plan_udr_case(p: DirPath, s: ConvexPointSet) -> CasePlan:
    """Choose the divide-and-conquer shape for a U/D/R path.

    Requires at least two points and the top point strictly to the right of
    the bottom point. The split line through bottom and top yields m points
    on its left; the plan is selected from the labels of the two edges that
    straddle position m and, in the mixed cases, from how the maximal U/R
    stretch around them relates to the columns of the bottom and top points.

    Every cap is a hull arc that ends on the bottom or the top. In canonical
    order y falls along positions 0..k (the top, the left chain, the bottom
    k = m + 1) and rises along k..n (the right chain, the top again at n),
    so the c lowest or highest points of a chain and its end point are the
    c positions next to that end. _between hands the parts between the caps
    what the caps leave: leftmost or rightmost points to a sided part, the
    rest to the one part without a side.
    """
    _require_entry(p, s, "case analysis", "UDR")
    sp = split_by_bt_line(s)
    n, m, alpha, beta = s.n, sp.m, sp.alpha, sp.beta
    labels = p.labels
    k = m + 1  # the bottom's position

    def plan(tag, *parts, **runs):
        return CasePlan(tag, m, alpha, beta, parts=parts, **runs)

    if m == n - 2:
        return plan("left-sided", CasePart("whole", _indices(n), 1, n, "left_sided"))
    if m == 0:
        return plan("right-sided", CasePart("whole", _indices(n), 1, n, "right_sided"))

    d_m, d_m1 = labels[m - 1], labels[m]
    if d_m == "D" and d_m1 != "D":
        # Both caps share v_{m+1} on the bottom: a strip plan with no strip.
        return plan("down-up", *_caps(s, k, k))
    if d_m != "D" and d_m1 == "D":
        # The left cap holds the top and the left chain; the right cap puts
        # v_{m+1} on the bottom and climbs the right chain to the top.
        return plan(
            "up-down",
            CasePart("left-cap", _arc(s, 0, k), 1, k, "left_sided"),
            CasePart("right-cap", _arc(s, k, n - k + 1), k, n, "right_sided"),
        )
    if d_m == "D" and d_m1 == "D":
        # The caps take the highest points left and the lowest points right.
        a, b = _run(labels, m, m + 1, "D")
        left = CasePart("left-cap", _arc(s, 0, a), 1, a, "left_sided")
        right = CasePart("right-cap", _arc(s, k, n - b), b + 1, n, "right_sided")
        descent = _between(s, left, right, ("descent", a, b + 1, "sort_down", None))
        return plan("down-run", *descent, a=a, b=b)

    # Both straddling edges are U or R: work with the maximal U/R stretch.
    # Where it reaches the bottom's column (low cut) or the top's (high cut),
    # an R edge lets a strip part meet the cap and a U edge starts a U run.
    i, j = _run(labels, m, m + 1, "UR")
    low_cut, high_cut = i <= alpha, j >= beta
    L = alpha + 1 if low_cut else i
    H = beta if high_cut else j + 1
    low_run = low_cut and labels[alpha - 1] == "U"
    high_run = high_cut and labels[beta - 1] == "U"
    if low_run and high_run:
        # A U run across the bottom's height and one across the top's, with
        # an optional U/R stretch between; or one U run holds both labels.
        a, b = _run(labels, alpha, alpha, "U")
        c, e = _run(labels, beta, beta, "U")
        pieces = [("column", a, e + 1, "sort_up", None)]
        if a != c:
            pieces = [("left-column", a, b + 1, "sort_up", "left")]
            if c > b + 2:
                pieces.append(("mid-strip", b + 2, c - 1, "strip", None))
            pieces.append(("right-column", c, e + 1, "sort_up", "right"))
        parts = _between(s, *_caps(s, a, e + 1), *pieces)
        return plan("two-up-runs", *parts, i=i, j=j, a=a, b=b, c=c, e=e)
    if high_run:
        # The U run v_a..v_{b+1} climbs a column that ends on the top, after
        # a strip part v_L..v_{a-1} when the run starts after the left cap ends.
        a, b = _run(labels, beta, beta, "U")
        pieces = [("column", a + 1, b + 1, "sort_up", None)]
        if a > L:
            pieces = [("strip", L, a - 1, "strip", "left"), ("column", a, b + 1, "sort_up", None)]
        tag = "up-run-high-left-cut" if low_cut else "up-run-high"
        return plan(tag, *_between(s, *_caps(s, L, b + 1), *pieces), i=i, j=j, a=a, b=b)
    if low_run:
        # The mirror image: a column out of the bottom, then a strip part
        # v_{b+2}..v_H when the run ends before the right cap starts.
        a, b = _run(labels, alpha, alpha, "U")
        pieces = [("column", a, b, "sort_up", None)]
        if b < H - 1:
            pieces = [("column", a, b + 1, "sort_up", None), ("strip", b + 2, H, "strip", "right")]
        tag = "up-run-low-right-cut" if high_cut else "up-run-low"
        return plan(tag, *_between(s, *_caps(s, a, H), *pieces), i=i, j=j, a=a, b=b)
    # The strip part carries the U/R stretch v_L..v_H from the bottom to the top.
    strip = _between(s, *_caps(s, L, H), ("strip", L, H, "strip", None))
    return plan(_STRIP_TAGS[low_cut, high_cut], *strip, i=i, j=j)


def execute_plan(p: DirPath, s: ConvexPointSet, plan: CasePlan) -> Embedding:
    """Carry out a plan and validate the merged result."""
    return require_pdce(p, s, _execute_plan(p, s, plan), f"plan {plan.case_tag}")


def _execute_plan(p: DirPath, s: ConvexPointSet, plan: CasePlan) -> Embedding:
    # Parts come in vertex order, each starting on the vertex the part before
    # ends on or on the one after it, so the placements are joined slice by
    # slice and only that one shared vertex is compared.
    out: list[int] = []
    for part in plan.parts:
        first, last = part.first_vertex, part.last_vertex
        if len(part.pool) != last - first + 1:
            raise InternalCaseError(
                f"part {part.name} hosts {last - first + 1} vertices "
                f"on {len(part.pool)} points"
            )
        run = _RUNNERS.get(part.method)
        if run is None:
            raise InternalCaseError(f"unknown part method {part.method!r}")
        shared = len(out) + 1 - first  # vertices already placed from first on
        if shared < 0:
            raise InternalCaseError(
                f"plan {plan.case_tag} leaves vertices {len(out) + 1}..{first - 1} unassigned"
            )
        if shared > (1 if out else 0):
            raise InternalCaseError(
                f"part {part.name} starts at vertex {first}, "
                f"inside the {len(out)} vertices placed before it"
            )
        placed = run(p.labels[first - 1 : last - 1], s, part.pool)
        if shared and out[-1] != placed[0]:
            raise InternalCaseError(
                f"parts disagree on vertex {first}: {out[-1]} vs {placed[0]}"
            )
        out += placed[shared:]
    if len(out) != s.n:
        raise InternalCaseError(f"plan {plan.case_tag} ends at vertex {len(out)} of {s.n}")
    return Embedding(tuple(out))


def embed_udr_convex(p: DirPath, s: ConvexPointSet) -> Embedding:
    """Embed a U/D/R path on any convex set whose top is right of its bottom.

    plan_udr_case checks the path and the set; one point needs no plan.
    """
    if s.n == p.n_vertices == 1:
        return Embedding((0,))
    return execute_plan(p, s, plan_udr_case(p, s))


def embed_three_directional(p: DirPath, s: ConvexPointSet) -> Embedding:
    """Embed any path that avoids at least one label on any convex set."""
    require_same_size(p, s)
    if len(p.directions_used()) == 4:
        raise FourDirectional(
            "path uses all four labels; an embedding may not exist on this set"
        )
    return require_pdce(p, s, _embed_three_directional(p.labels, s), "three-directional")


def _embed_three_directional(labels: str, s: ConvexPointSet) -> Embedding:
    # Paths with L and R take a quarter turn: U/L/R to L/D/U, then reversed,
    # and D/L/R to R/D/U. Other paths are reversed if they use L. When the
    # frame's top would lie left of its bottom (for the turned set: when s's
    # right point lies above its left one), a mirror and one more reversal
    # follow, each a label table on the string. Index k of the frame's set is
    # point table[k] of s, a table cut from the shared index tuple: r - k,
    # k + r or -k (mod n), r = right_index.
    n, r = s.n, s.right_index
    if n == 1:
        return Embedding((0,))
    ints = _indices(n)
    if "L" in labels and "R" in labels:
        backwards, mirrored = "D" not in labels, s.ys[r] > s.ys[s.left_index]
        labels = labels.translate(_ROTATE_LABEL)
        if mirrored:
            t, table = _transposed_set(s), ints[r::-1] + ints[:r:-1]
        else:
            t, table = rotate_set(s), ints[r:] + ints[:r]
    else:
        backwards, mirrored = "L" in labels, s.xs[s.top_index] < s.xs[s.bottom_index]
        t, table = (mirror_set(s), ints[:1] + ints[:0:-1]) if mirrored else (s, None)
    backwards ^= mirrored
    if backwards:
        labels = labels[::-1].translate(_REVERSE_FLIP)
    if mirrored:
        labels = labels.translate(_MIRROR_LABEL)
    p = DirPath(labels)
    e = _execute_plan(p, t, plan_udr_case(p, t)).assignment[:: -1 if backwards else 1]
    return Embedding(e if table is None else itemgetter(*e)(table))


_QUARTER_INC_COLLAPSE = str.maketrans("RL", "UD")
_QUARTER_DEC_COLLAPSE = str.maketrans("RL", "DU")


def embed_quarter_convex(p: DirPath, s: ConvexPointSet) -> Embedding:
    """Embed any path, all four labels allowed, on an x/y-monotone chain.

    On such chains horizontal constraints are equivalent to vertical ones,
    so the labels collapse to a two-letter alphabet first.
    """
    require_same_size(p, s)
    tags = classify(s)
    if SetTag.QUARTER_INC in tags:
        table = _QUARTER_INC_COLLAPSE
    elif SetTag.QUARTER_DEC in tags:
        table = _QUARTER_DEC_COLLAPSE
    else:
        raise PreconditionViolated("point set is not an x/y-monotone chain")
    # The collapse is reversible on these chains, but the answer is checked
    # against the original labels rather than trusting that.
    e = _embed_three_directional(p.labels.translate(table), s)
    return require_pdce(p, s, e, "label collapse")
