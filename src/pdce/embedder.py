"""Constructive embedders for direction-labeled paths on convex point sets.

The entry point for arbitrary convex sets is embed_three_directional, which
handles every path that avoids at least one of the four labels. It reduces
everything to the U/D/R case via the reversal, rotation and mirror
operators, and the U/D/R case is solved by a divide-and-conquer along the
line through the bottom and top points (plan_udr_case / execute_plan).

The planner only chooses index ranges and point subsets; all actual
coordinates are handled by one greedy run on index pools of the canonical
set, forwards or, for right-sided parts, backwards. Transformed sets are
built by index arithmetic, never re-validated.

Each public entry checks its preconditions, runs an unchecked private core
and checks the answer once (direction and prefix planarity). Inside the
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

_FLIP = str.maketrans("UDLR", "DURL")


def _greedy(labels: str, pts, pool) -> list[int]:
    """The backward assignment of len(pool) - 1 labels on the points pts[i],
    i in pool. Returns the indices into pts hosting v_1, v_2, ...

    Coordinates are distinct, so the pool order does not matter, and the
    last vertex always lands on the pool's extreme point in the direction
    of the last label: the left-sided and strip endpoint guarantee.
    """
    keys = {
        "U": lambda i: -pts[i].y,
        "D": lambda i: pts[i].y,
        "L": lambda i: pts[i].x,
        "R": lambda i: -pts[i].x,
    }
    order = {d: sorted(pool, key=keys[d]) for d in set(labels)}
    cursor = dict.fromkeys(order, 0)
    used = set()
    out = [0] * len(pool)
    for k in range(len(labels), 0, -1):
        d = labels[k - 1]
        lst = order[d]
        c = cursor[d]
        while lst[c] in used:
            c += 1
        cursor[d] = c
        out[k] = lst[c]
        used.add(lst[c])
    out[0] = next(i for i in pool if i not in used)
    return out


def _right_sided(labels: str, pts, pool) -> list[int]:
    # The greedy on the reversed path, read backwards: it places v_1, v_2,
    # ... in turn on the extreme free point opposite the outgoing label, as
    # the left-sided construction does after a half turn of the plane.
    return _greedy(labels[::-1].translate(_FLIP), pts, pool)[::-1]


def _strip(labels: str, pts, pool) -> list[int]:
    out = _greedy(labels, pts, pool)
    if len(pool) >= 2:
        ends = (min(pool, key=lambda i: pts[i].y), min(pool, key=lambda i: pts[i].x))
        if out[0] not in ends:
            raise InternalCaseError("strip endpoint guarantee broken (first vertex)")
    return out


def _on_whole_set(run, p: DirPath, s: ConvexPointSet) -> Embedding:
    return Embedding(tuple(run(p.labels, s.points, range(s.n))))


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


def _pick(pool, k: int, key, reverse: bool = False):
    ordered = sorted(pool, key=key, reverse=reverse)
    if k > len(ordered):
        raise InternalCaseError(f"asked for {k} points from a pool of {len(ordered)}")
    return tuple(sorted(ordered[:k]))


def _lowest(s, pool, k):
    return _pick(pool, k, lambda i: s.points[i].y)


def _highest(s, pool, k):
    return _pick(pool, k, lambda i: s.points[i].y, reverse=True)


def _leftmost(s, pool, k):
    return _pick(pool, k, lambda i: s.points[i].x)


def _rightmost(s, pool, k):
    return _pick(pool, k, lambda i: s.points[i].x, reverse=True)


def _rest(n: int, taken, extra=()) -> tuple[int, ...]:
    keep = (set(range(n)) - set(taken)) | set(extra)
    return tuple(sorted(keep))


def _d_run(labels: str, m: int) -> tuple[int, int]:
    # Maximal run of D edges around the 1-based edge indices m, m+1.
    a = m
    while a > 1 and labels[a - 2] == "D":
        a -= 1
    b = m + 1
    while b < len(labels) and labels[b] == "D":
        b += 1
    return a, b


def _ur_run(labels: str, m: int) -> tuple[int, int]:
    i = m
    while i > 1 and labels[i - 2] != "D":
        i -= 1
    j = m + 1
    while j < len(labels) and labels[j] != "D":
        j += 1
    return i, j


def _u_run(labels: str, k: int) -> tuple[int, int]:
    # Maximal run of U edges around the 1-based edge index k.
    a = k
    while a > 1 and labels[a - 2] == "U":
        a -= 1
    b = k
    while b < len(labels) and labels[b] == "U":
        b += 1
    return a, b


def _strip_plan_parts(s, sp, L: int, H: int) -> tuple[CasePart, ...]:
    # Left cap carries v_1..v_L ending on the bottom point, the strip part
    # carries the U/R stretch v_L..v_H between bottom and top, the right cap
    # carries v_H..v_n starting on the top point.
    n = s.n
    cap_l = _lowest(s, sp.left_part + (s.bottom_index,), L)
    cap_r = _highest(s, sp.right_part + (s.top_index,), n - H + 1)
    strip = _rest(n, set(cap_l) | set(cap_r), (s.bottom_index, s.top_index))
    return (
        CasePart("left-cap", cap_l, 1, L, "left_sided"),
        CasePart("strip", strip, L, H, "strip"),
        CasePart("right-cap", cap_r, H, n, "right_sided"),
    )


def _run_high_plan_parts(s, sp, L: int, a: int, b: int) -> tuple[CasePart, ...]:
    # The U run v_a..v_{b+1} climbs a column that ends on the top point; a
    # strip part to its left hosts v_L..v_{a-1} when the run starts later
    # than the left cap ends.
    n = s.n
    cap_l = _lowest(s, sp.left_part + (s.bottom_index,), L)
    cap_r = _highest(s, sp.right_part + (s.top_index,), n - b)
    parts = [CasePart("left-cap", cap_l, 1, L, "left_sided")]
    if a > L:
        pool = _rest(n, cap_l, (s.bottom_index,))
        strip = _leftmost(s, pool, a - L)
        column = _rest(n, set(cap_l) | set(strip) | set(cap_r), (s.top_index,))
        parts.append(CasePart("strip", strip, L, a - 1, "strip"))
        parts.append(CasePart("column", column, a, b + 1, "sort_up"))
    else:
        column = _rest(n, set(cap_l) | set(cap_r), (s.top_index,))
        parts.append(CasePart("column", column, a + 1, b + 1, "sort_up"))
    parts.append(CasePart("right-cap", cap_r, b + 1, n, "right_sided"))
    return tuple(parts)


def _run_low_plan_parts(s, sp, a: int, b: int, H: int) -> tuple[CasePart, ...]:
    # Mirror image of the previous shape: the U run v_a..v_{b+1} climbs a
    # column out of the bottom point, and a strip part to its right hosts
    # v_{b+2}..v_H when the run ends before the right cap starts.
    n = s.n
    cap_l = _lowest(s, sp.left_part + (s.bottom_index,), a)
    cap_r = _highest(s, sp.right_part + (s.top_index,), n - H + 1)
    parts = [CasePart("left-cap", cap_l, 1, a, "left_sided")]
    if b < H - 1:
        pool = _rest(n, cap_r, (s.top_index,))
        strip = _rightmost(s, pool, H - 1 - b)
        column = _rest(n, set(cap_l) | set(strip) | set(cap_r), (s.bottom_index,))
        parts.append(CasePart("column", column, a, b + 1, "sort_up"))
        parts.append(CasePart("strip", strip, b + 2, H, "strip"))
    else:
        column = _rest(n, set(cap_l) | set(cap_r), (s.bottom_index,))
        parts.append(CasePart("column", column, a, b, "sort_up"))
    parts.append(CasePart("right-cap", cap_r, H, n, "right_sided"))
    return tuple(parts)


def _two_runs_plan_parts(s, sp, a: int, b: int, c: int, e: int) -> tuple[CasePart, ...]:
    # Two U runs: one crossing the height of the bottom point, one crossing
    # the height of the top point, with an optional U/R stretch between.
    n = s.n
    cap_l = _lowest(s, sp.left_part + (s.bottom_index,), a)
    cap_r = _highest(s, sp.right_part + (s.top_index,), n - e)
    pool = _rest(n, set(cap_l) | set(cap_r), (s.bottom_index, s.top_index))
    parts = [CasePart("left-cap", cap_l, 1, a, "left_sided")]
    if a == c:
        # Both labels sit in the same U run.
        parts.append(CasePart("column", pool, a, e + 1, "sort_up"))
    else:
        col_l = _leftmost(s, pool, b - a + 2)
        col_r = _rightmost(s, pool, e - c + 2)
        parts.append(CasePart("left-column", col_l, a, b + 1, "sort_up"))
        if c > b + 2:
            strip = tuple(sorted(set(pool) - set(col_l) - set(col_r)))
            parts.append(CasePart("mid-strip", strip, b + 2, c - 1, "strip"))
        parts.append(CasePart("right-column", col_r, c, e + 1, "sort_up"))
    parts.append(CasePart("right-cap", cap_r, e + 1, n, "right_sided"))
    return tuple(parts)


def plan_udr_case(p: DirPath, s: ConvexPointSet) -> CasePlan:
    """Choose the divide-and-conquer shape for a U/D/R path.

    Requires at least two points and the top point strictly to the right of
    the bottom point. The split line through bottom and top yields m points
    on its left; the plan is selected from the labels of the two edges that
    straddle position m and, in the mixed cases, from how the maximal U/R
    stretch around them relates to the columns of the bottom and top points.
    """
    require_same_size(p, s)
    if not p.directions_used() <= UDR:
        raise PreconditionViolated("case analysis handles U/D/R labels only")
    sp = split_by_bt_line(s)
    n, m, alpha, beta = s.n, sp.m, sp.alpha, sp.beta
    labels = p.labels
    everything = tuple(range(n))

    if m == n - 2:
        part = CasePart("whole", everything, 1, n, "left_sided")
        return CasePlan("left-sided", m, alpha, beta, parts=(part,))
    if m == 0:
        part = CasePart("whole", everything, 1, n, "right_sided")
        return CasePlan("right-sided", m, alpha, beta, parts=(part,))

    d_m, d_m1 = labels[m - 1], labels[m]
    if d_m == "D" and d_m1 != "D":
        parts = (
            CasePart(
                "left-cap",
                tuple(sorted(sp.left_part + (s.bottom_index,))),
                1,
                m + 1,
                "left_sided",
            ),
            CasePart(
                "right-cap",
                tuple(sorted(sp.right_part + (s.top_index, s.bottom_index))),
                m + 1,
                n,
                "right_sided",
            ),
        )
        return CasePlan("down-up", m, alpha, beta, parts=parts)
    if d_m != "D" and d_m1 == "D":
        parts = (
            CasePart(
                "left-cap",
                tuple(sorted(sp.left_part + (s.top_index,))),
                1,
                m + 1,
                "left_sided",
            ),
            CasePart(
                "right-cap",
                tuple(sorted(sp.right_part + (s.top_index, s.bottom_index))),
                m + 1,
                n,
                "right_sided",
            ),
        )
        return CasePlan("up-down", m, alpha, beta, parts=parts)
    if d_m == "D" and d_m1 == "D":
        a, b = _d_run(labels, m)
        cap_l = _highest(s, sp.left_part + (s.top_index,), a)
        cap_r = _lowest(s, sp.right_part + (s.bottom_index,), n - b)
        descent = _rest(n, set(cap_l) | set(cap_r), (s.top_index, s.bottom_index))
        parts = (
            CasePart("left-cap", cap_l, 1, a, "left_sided"),
            CasePart("descent", descent, a, b + 1, "sort_down"),
            CasePart("right-cap", cap_r, b + 1, n, "right_sided"),
        )
        return CasePlan("down-run", m, alpha, beta, a=a, b=b, parts=parts)

    # Both straddling edges are U or R: work with the maximal U/R stretch.
    i, j = _ur_run(labels, m)
    low_cut = i <= alpha
    high_cut = j >= beta
    if not low_cut and not high_cut:
        parts = _strip_plan_parts(s, sp, i, j + 1)
        return CasePlan("mid-strip", m, alpha, beta, i=i, j=j, parts=parts)
    if not low_cut and high_cut:
        if labels[beta - 1] == "R":
            parts = _strip_plan_parts(s, sp, i, beta)
            return CasePlan("mid-strip-right-cut", m, alpha, beta, i=i, j=j, parts=parts)
        a, b = _u_run(labels, beta)
        parts = _run_high_plan_parts(s, sp, i, a, b)
        return CasePlan("up-run-high", m, alpha, beta, i=i, j=j, a=a, b=b, parts=parts)
    if low_cut and not high_cut:
        if labels[alpha - 1] == "R":
            parts = _strip_plan_parts(s, sp, alpha + 1, j + 1)
            return CasePlan("mid-strip-left-cut", m, alpha, beta, i=i, j=j, parts=parts)
        a, b = _u_run(labels, alpha)
        parts = _run_low_plan_parts(s, sp, a, b, j + 1)
        return CasePlan("up-run-low", m, alpha, beta, i=i, j=j, a=a, b=b, parts=parts)

    d_alpha, d_beta = labels[alpha - 1], labels[beta - 1]
    if d_alpha == "R" and d_beta == "R":
        parts = _strip_plan_parts(s, sp, alpha + 1, beta)
        return CasePlan("mid-strip-both-cuts", m, alpha, beta, i=i, j=j, parts=parts)
    if d_alpha == "R":
        a, b = _u_run(labels, beta)
        parts = _run_high_plan_parts(s, sp, alpha + 1, a, b)
        return CasePlan(
            "up-run-high-left-cut", m, alpha, beta, i=i, j=j, a=a, b=b, parts=parts
        )
    if d_beta == "R":
        a, b = _u_run(labels, alpha)
        parts = _run_low_plan_parts(s, sp, a, b, beta)
        return CasePlan(
            "up-run-low-right-cut", m, alpha, beta, i=i, j=j, a=a, b=b, parts=parts
        )
    a, b = _u_run(labels, alpha)
    c, e = _u_run(labels, beta)
    parts = _two_runs_plan_parts(s, sp, a, b, c, e)
    return CasePlan("two-up-runs", m, alpha, beta, i=i, j=j, a=a, b=b, c=c, e=e, parts=parts)


def execute_plan(p: DirPath, s: ConvexPointSet, plan: CasePlan) -> Embedding:
    """Carry out a plan and validate the merged result."""
    return require_pdce(p, s, _execute_plan(p, s, plan), f"plan {plan.case_tag}")


def _execute_plan(p: DirPath, s: ConvexPointSet, plan: CasePlan) -> Embedding:
    slots: list[Optional[int]] = [None] * s.n
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
        placed = run(p.labels[first - 1 : last - 1], s.points, part.points)
        for slot, k in enumerate(placed, first - 1):
            if slots[slot] is None:
                slots[slot] = k
            elif slots[slot] != k:
                raise InternalCaseError(
                    f"parts disagree on vertex {slot + 1}: {slots[slot]} vs {k}"
                )
    if any(v is None for v in slots):
        raise InternalCaseError(f"plan {plan.case_tag} left vertices unassigned")
    return Embedding(tuple(slots))


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
    if s.top.x > s.bottom.x:
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
    return Embedding(tuple((i + s.right_index) % s.n for i in e.assignment))


_QUARTER_INC_COLLAPSE = {"U": "U", "D": "D", "R": "U", "L": "D"}
_QUARTER_DEC_COLLAPSE = {"U": "U", "D": "D", "R": "D", "L": "U"}


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
    collapsed = DirPath("".join(table[ch] for ch in p.labels))
    # The collapse is reversible on these chains, but the answer is checked
    # against the original labels rather than trusting that.
    return require_pdce(p, s, _embed_three_directional(collapsed, s), "label collapse")
