"""Constructive embedders for direction-labeled paths on convex point sets.

The entry point for arbitrary convex sets is embed_three_directional, which
handles every path that avoids at least one of the four labels. It reduces
everything to the U/D/R case via the reversal, rotation and mirror
operators, and the U/D/R case is solved by a divide-and-conquer along the
line through the bottom and top points (plan_udr_case / execute_plan).

The planner only chooses index ranges and point subsets: its caps are hull
arcs ending on the bottom or the top point, the middle parts what the caps
leave. All actual coordinates are handled by one greedy run on index pools
of the canonical set, forwards or, for right-sided parts, backwards.
Transformed sets come from rotate_set and mirror_set, by index arithmetic
on the coordinate columns, never re-validated; planner, executor and greedy
read only n, xs, ys and the extreme indices, so the embed path builds no
Point.

Each public entry checks its preconditions, runs an unchecked private core
and checks the answer once (indices, direction and prefix planarity, in one
pass over the columns: validator.require_pdce). Inside the
cores only cheap guards run: the strip parts' first-vertex guarantee and
the executor's agreement of parts on shared vertices. A planner bug
therefore surfaces as InternalCaseError instead of a wrong drawing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import FourDirectional, InternalCaseError, PreconditionViolated
from .geometry import ConvexPointSet, classify, split_by_bt_line
from .paths import (
    _REVERSE_FLIP,
    DirPath,
    Embedding,
    mirror_embedding,
    mirror_path,
    mirror_set,
    reverse_embedding,
    reverse_path,
    rotate_path,
    rotate_set,
)
from .validator import require_pdce, require_same_size

UDR = frozenset("UDR")
UR = frozenset("UR")


def _greedy(labels: str, s, pool) -> list[int]:
    """The backward assignment of len(pool) - 1 labels on the points of s
    at the indices in pool. Returns the indices hosting v_1, v_2, ...

    Coordinates are distinct, so the pool order does not matter, and the
    last vertex always lands on the pool's extreme point in the direction
    of the last label: the left-sided and strip endpoint guarantee. The
    pool is sorted once per axis the labels use: D and L take it by
    increasing y and x, U and R read the same list reversed.
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


def _right_sided(labels: str, s, pool) -> list[int]:
    # The greedy on the reversed path, read backwards: it places v_1, v_2,
    # ... in turn on the extreme free point opposite the outgoing label, as
    # the left-sided construction does after a half turn of the plane.
    return _greedy(labels[::-1].translate(_REVERSE_FLIP), s, pool)[::-1]


def _strip(labels: str, s, pool) -> list[int]:
    out = _greedy(labels, s, pool)
    if len(pool) >= 2:
        ends = (min(pool, key=s.ys.__getitem__), min(pool, key=s.xs.__getitem__))
        if out[0] not in ends:
            raise InternalCaseError("strip endpoint guarantee broken (first vertex)")
    return out


def _on_whole_set(run, p: DirPath, s: ConvexPointSet) -> Embedding:
    return Embedding(tuple(run(p.labels, s, range(s.n))))


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
    require_same_size(p, s)
    if not p.directions_used() <= UDR:
        raise PreconditionViolated("left-sided embedding handles U/D/R labels only")
    if not classify(s).is_left_sided:
        raise PreconditionViolated("point set is not left-sided")
    return require_pdce(p, s, _on_whole_set(_greedy, p, s), "left-sided")


def embed_udr_right_sided(p: DirPath, s: ConvexPointSet) -> Embedding:
    """Embed a U/D/R path on a right-sided set.

    The backward assignment runs on the reversed path with every label
    flipped and is read backwards, which is the left-sided construction
    after a half turn of the plane. Guarantees for n >= 2: the first vertex
    lands on the bottom, top or leftmost point when the first label is U, D
    or R respectively.
    """
    require_same_size(p, s)
    if not p.directions_used() <= UDR:
        raise PreconditionViolated("right-sided embedding handles U/D/R labels only")
    if not classify(s).is_right_sided:
        raise PreconditionViolated("point set is not right-sided")
    return require_pdce(p, s, _on_whole_set(_right_sided, p, s), "right-sided")


def embed_ur_strip(p: DirPath, s: ConvexPointSet) -> Embedding:
    """Embed a U/R path on a strip-convex set via the backward assignment.

    Guarantees for n >= 2: the first vertex lands on the bottom or leftmost
    point, and the last vertex lands on the top (last label U) or rightmost
    point (last label R).
    """
    require_same_size(p, s)
    if not p.directions_used() <= UR:
        raise PreconditionViolated("strip embedding handles U/R labels only")
    if not classify(s).is_strip:
        raise PreconditionViolated("point set is not strip-convex")
    return require_pdce(p, s, _on_whole_set(_strip, p, s), "strip")


# Part method -> runner. Monotone parts carry a run of U (sort_up) or D
# (sort_down) labels, on which the greedy is the sort by y.
_RUNNERS = {
    "left_sided": _greedy,
    "right_sided": _right_sided,
    "strip": _strip,
    "sort_up": _greedy,
    "sort_down": _greedy,
}


@dataclass(frozen=True)
class CasePart:
    """One piece of a divide-and-conquer plan.

    points are indices into the parent canonical set; vertex bounds are
    1-based and inclusive. Consecutive parts either share their boundary
    vertex (both then must place it on the same point) or are joined by a
    connecting edge that the final validation checks.
    """

    name: str
    points: tuple[int, ...]
    first_vertex: int
    last_vertex: int
    method: str  # left_sided | right_sided | strip | sort_up | sort_down


@dataclass(frozen=True)
class CasePlan:
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
    start %= n
    wrap = start + count - n
    if wrap <= 0:
        return tuple(range(start, start + count))
    return tuple(range(wrap)) + tuple(range(start, n))


def _leftmost(s, pool, k, reverse=False):
    ordered = sorted(pool, key=s.xs.__getitem__, reverse=reverse)
    if k > len(ordered):
        raise InternalCaseError(f"asked for {k} points from a pool of {len(ordered)}")
    return tuple(sorted(ordered[:k]))


def _rightmost(s, pool, k):
    return _leftmost(s, pool, k, reverse=True)


def _rest(n: int, taken, extra=()) -> tuple[int, ...]:
    keep = (set(range(n)) - set(taken)) | set(extra)
    return tuple(sorted(keep))


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


def _strip_plan_parts(s, L: int, H: int) -> tuple[CasePart, ...]:
    # The strip part carries the U/R stretch v_L..v_H from the left cap's
    # last point, the bottom, to the right cap's first point, the top.
    left, right = _caps(s, L, H)
    strip = _rest(s.n, left.points + right.points, (s.bottom_index, s.top_index))
    return left, CasePart("strip", strip, L, H, "strip"), right


def _run_high_plan_parts(s, L: int, a: int, b: int) -> tuple[CasePart, ...]:
    # The U run v_a..v_{b+1} climbs a column that ends on the top point; a
    # strip part to its left hosts v_L..v_{a-1} when the run starts later
    # than the left cap ends.
    left, right = _caps(s, L, b + 1)
    if a <= L:
        column = _rest(s.n, left.points + right.points, (s.top_index,))
        return left, CasePart("column", column, a + 1, b + 1, "sort_up"), right
    strip = _leftmost(s, _rest(s.n, left.points, (s.bottom_index,)), a - L)
    column = _rest(s.n, left.points + strip + right.points, (s.top_index,))
    strip_part = CasePart("strip", strip, L, a - 1, "strip")
    return left, strip_part, CasePart("column", column, a, b + 1, "sort_up"), right


def _run_low_plan_parts(s, a: int, b: int, H: int) -> tuple[CasePart, ...]:
    # Mirror image of the previous shape: the U run v_a..v_{b+1} climbs a
    # column out of the bottom point, and a strip part to its right hosts
    # v_{b+2}..v_H when the run ends before the right cap starts.
    left, right = _caps(s, a, H)
    if b >= H - 1:
        column = _rest(s.n, left.points + right.points, (s.bottom_index,))
        return left, CasePart("column", column, a, b, "sort_up"), right
    strip = _rightmost(s, _rest(s.n, right.points, (s.top_index,)), H - 1 - b)
    column = _rest(s.n, left.points + strip + right.points, (s.bottom_index,))
    strip_part = CasePart("strip", strip, b + 2, H, "strip")
    return left, CasePart("column", column, a, b + 1, "sort_up"), strip_part, right


def _two_runs_plan_parts(s, a: int, b: int, c: int, e: int) -> tuple[CasePart, ...]:
    # Two U runs: one crossing the height of the bottom point, one crossing
    # the height of the top point, with an optional U/R stretch between.
    left, right = _caps(s, a, e + 1)
    pool = _rest(s.n, left.points + right.points, (s.bottom_index, s.top_index))
    if a == c:
        # Both labels sit in the same U run.
        return left, CasePart("column", pool, a, e + 1, "sort_up"), right
    col_l = _leftmost(s, pool, b - a + 2)
    col_r = _rightmost(s, pool, e - c + 2)
    parts = [left, CasePart("left-column", col_l, a, b + 1, "sort_up")]
    if c > b + 2:
        strip = tuple(sorted(set(pool) - set(col_l) - set(col_r)))
        parts.append(CasePart("mid-strip", strip, b + 2, c - 1, "strip"))
    parts.append(CasePart("right-column", col_r, c, e + 1, "sort_up"))
    parts.append(right)
    return tuple(parts)


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
    c positions next to that end. The middle parts are what the caps leave.
    """
    require_same_size(p, s)
    if not p.directions_used() <= UDR:
        raise PreconditionViolated("case analysis handles U/D/R labels only")
    sp = split_by_bt_line(s)
    n, m, alpha, beta = s.n, sp.m, sp.alpha, sp.beta
    labels = p.labels
    k = m + 1  # the bottom's position

    def plan(tag, *parts, **runs):
        return CasePlan(tag, m, alpha, beta, parts=parts, **runs)

    if m == n - 2:
        return plan("left-sided", CasePart("whole", tuple(range(n)), 1, n, "left_sided"))
    if m == 0:
        return plan("right-sided", CasePart("whole", tuple(range(n)), 1, n, "right_sided"))

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
        cap_l, cap_r = _arc(s, 0, a), _arc(s, k, n - b)
        return plan(
            "down-run",
            CasePart("left-cap", cap_l, 1, a, "left_sided"),
            CasePart("descent", _rest(n, cap_l + cap_r, (0, k)), a, b + 1, "sort_down"),
            CasePart("right-cap", cap_r, b + 1, n, "right_sided"),
            a=a,
            b=b,
        )

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
        a, b = _run(labels, alpha, alpha, "U")
        c, e = _run(labels, beta, beta, "U")
        parts = _two_runs_plan_parts(s, a, b, c, e)
        return plan("two-up-runs", *parts, i=i, j=j, a=a, b=b, c=c, e=e)
    if high_run:
        a, b = _run(labels, beta, beta, "U")
        tag = "up-run-high-left-cut" if low_cut else "up-run-high"
        return plan(tag, *_run_high_plan_parts(s, L, a, b), i=i, j=j, a=a, b=b)
    if low_run:
        a, b = _run(labels, alpha, alpha, "U")
        tag = "up-run-low-right-cut" if high_cut else "up-run-low"
        return plan(tag, *_run_low_plan_parts(s, a, b, H), i=i, j=j, a=a, b=b)
    return plan(_STRIP_TAGS[low_cut, high_cut], *_strip_plan_parts(s, L, H), i=i, j=j)


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
        if len(part.points) != last - first + 1:
            raise InternalCaseError(
                f"part {part.name} hosts {last - first + 1} vertices "
                f"on {len(part.points)} points"
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
        placed = run(p.labels[first - 1 : last - 1], s, part.points)
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

    plan_udr_case checks the labels and the set; a one-point set needs no plan.
    """
    require_same_size(p, s)
    if s.n == 1:
        return Embedding((0,))
    return execute_plan(p, s, plan_udr_case(p, s))


def _embed_udr_any(p: DirPath, s: ConvexPointSet) -> Embedding:
    if s.n == 1:
        return Embedding((0,))
    if s.xs[s.top_index] > s.xs[s.bottom_index]:
        return _execute_plan(p, s, plan_udr_case(p, s))
    # Mirroring puts the top right of the bottom; reversing first keeps the
    # label set inside U/D/R. Mirroring sm gives s back, by index (-i) mod n.
    sm = mirror_set(s)
    pm = mirror_path(reverse_path(p))
    em = _execute_plan(pm, sm, plan_udr_case(pm, sm))
    return reverse_embedding(mirror_embedding(em, sm))


def embed_three_directional(p: DirPath, s: ConvexPointSet) -> Embedding:
    """Embed any path that avoids at least one label on any convex set."""
    require_same_size(p, s)
    if len(p.directions_used()) == 4:
        raise FourDirectional(
            "path uses all four labels; an embedding may not exist on this set"
        )
    return require_pdce(p, s, _embed_three_directional(p, s), "three-directional")


def _embed_three_directional(p: DirPath, s: ConvexPointSet) -> Embedding:
    used = p.directions_used()
    if used <= UDR:
        return _embed_udr_any(p, s)
    if used <= frozenset("UDL"):
        return reverse_embedding(_embed_udr_any(reverse_path(p), s))
    # A quarter turn takes U/L/R to L/D/U and D/L/R to R/D/U; index k of the
    # turned set is index (k + right_index) mod n of s.
    if used <= frozenset("ULR"):
        e = reverse_embedding(_embed_udr_any(reverse_path(rotate_path(p)), rotate_set(s)))
    else:
        e = _embed_udr_any(rotate_path(p), rotate_set(s))
    r, n = s.right_index, s.n
    return Embedding(tuple((i + r) % n for i in e.assignment))


_QUARTER_INC_COLLAPSE = str.maketrans("RL", "UD")
_QUARTER_DEC_COLLAPSE = str.maketrans("RL", "DU")


def embed_quarter_convex(p: DirPath, s: ConvexPointSet) -> Embedding:
    """Embed any path, all four labels allowed, on an x/y-monotone chain.

    On such chains horizontal constraints are equivalent to vertical ones,
    so the labels collapse to a two-letter alphabet first.
    """
    require_same_size(p, s)
    cls = classify(s)
    if cls.is_quarter_inc:
        table = _QUARTER_INC_COLLAPSE
    elif cls.is_quarter_dec:
        table = _QUARTER_DEC_COLLAPSE
    else:
        raise PreconditionViolated("point set is not an x/y-monotone chain")
    collapsed = DirPath(p.labels.translate(table))
    # The collapse is reversible on these chains, but the answer is checked
    # against the original labels rather than trusting that.
    return require_pdce(p, s, _embed_three_directional(collapsed, s), "label collapse")
