"""Checks that an embedding is direction-consistent and crossing-free.

Each input rule has one owner: require_same_size (one point per path
vertex) and require_well_formed (one plain-int index in range per point,
none twice) live here, the U/D/R split rules in geometry.split_by_bt_line
and the U/D/R label rule in embedder.plan_udr_case. Each public check_*
scans the embedding once. One pass over the walk's columns, _verdicts,
finds both the first edge that breaks its label and the first vertex off
the prefix arc, stops once it knows both and builds no index int;
validate_embedding, require_pdce (the check every library answer passes)
and oracle.certificate all read their verdicts from it.

Planarity is checked along two independent routes on purpose. The segment
route is an exact Shamos-Hoey sweep over the walk's edges, with Python-int
orientation tests and no knowledge of hull order: O(n log n) predicates,
each pair of non-adjacent edges that becomes adjacent on the sweep line
tested once. It sweeps along the axis a sample of the walk's edges travels
less, so that fewer edges span the sweep line; along y it sweeps the
transposed columns (x, y) -> (y, x), on which the same edges meet. The
prefix route checks that each prefix of the walk occupies a cyclically
consecutive arc of hull positions, which characterizes the crossing-free
walks on a convex point set. Both are kept side by side so each one guards
the other; callers that need a single answer should demand agreement via
validate_embedding(). Neither needs numpy.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple, Optional

from .errors import InternalCaseError, InvalidEmbedding, PreconditionViolated, SizeMismatch
from .geometry import ConvexPointSet, _indices
from .paths import DirPath, Embedding

__all__ = [
    "ValidationReport", "check_direction_consistency", "check_planarity_prefix",
    "check_planarity_segments", "edge_ok", "validate_embedding",
]


def edge_ok(label: str, a, b) -> bool:
    """Whether the step a -> b of (x, y) pairs strictly respects the label. Ties never pass."""
    (ax, ay), (bx, by) = a, b
    if label == "U":
        return by > ay
    if label == "D":
        return by < ay
    if label == "L":
        return bx < ax
    if label == "R":
        return bx > ax
    raise PreconditionViolated(f"unknown edge label {label!r}")


def require_same_size(p: DirPath, s: ConvexPointSet) -> None:
    """The size rule: the path has exactly one vertex per point of the set."""
    if p.n_vertices != s.n:
        raise SizeMismatch(
            f"path has {p.n_vertices} vertices but the set has {s.n} points"
        )


def require_well_formed(s: ConvexPointSet, e: Embedding, distinct: bool = True) -> None:
    """The index rule: one plain-int index in range(s.n) per point, and,
    when distinct, no index twice. One O(n) scan."""
    a = e.assignment
    n = s.n
    if len(a) != n:
        raise InvalidEmbedding(f"embedding lists {len(a)} vertices for {n} points")
    seen = set()
    for idx in a:
        if type(idx) is not int:
            raise InvalidEmbedding(f"point index {idx!r} is not a plain int")
        if not 0 <= idx < n:
            raise InvalidEmbedding(f"point index {idx!r} out of range")
        if distinct and idx in seen:
            raise InvalidEmbedding(f"point index {idx} used twice")
        seen.add(idx)


def check_direction_consistency(
    p: DirPath, s: ConvexPointSet, e: Embedding
) -> tuple[bool, Optional[int]]:
    """Return (ok, first bad edge index) for the strict direction constraints."""
    require_same_size(p, s)
    require_well_formed(s, e)
    bad = _verdicts(p.labels, s.xs, s.ys, e.assignment)[0]
    return bad is None, bad


def _neighbours(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    # (ints, prv, nxt): the shared index tuple, and (j - 1) % n and
    # (j + 1) % n at position j, for any j with -n <= j < n.
    ints = _indices(n)
    return ints, ints[-1:] + ints[:-1], ints[1:] + ints[:1]


def _verdicts(labels: str, xs, ys, a) -> tuple[Optional[int], Optional[int]]:
    """The column core of the answer checks, one pass over the walk a:
    (first k whose step a[k] -> a[k+1] breaks labels[k], first i whose a[i]
    does not extend the prefix arc of a[0..i-1] at one of its ends), each
    None if there is none, and stops once both are known. The arc's ends
    step through _neighbours' tables and k comes from the shared index
    tuple, so no index int is built. Needs plain-int entries and a[0] in
    range. Each entry is compared with the arc's two in-range ends before
    its coordinates are read, so an out-of-range one breaks the arc first:
    an entry at or above len(xs) then raises IndexError, unless an edge
    before it already broke its label and the pass stops there."""
    ints, prv, nxt = _neighbours(len(xs))
    i = a[0]
    below, above = prv[i], nxt[i]
    bad_edge = off_arc = None
    for k, d, j in zip(ints, labels, a[1:]):
        if j == below:
            below = prv[j]
        elif j == above:
            above = nxt[j]
        elif off_arc is None:
            off_arc = k + 1
            if bad_edge is not None:
                break
        if d == "U":
            if ys[j] <= ys[i] and bad_edge is None:
                bad_edge = k
                if off_arc is not None:
                    break
        elif d == "D":
            if ys[j] >= ys[i] and bad_edge is None:
                bad_edge = k
                if off_arc is not None:
                    break
        elif d == "R":
            if xs[j] <= xs[i] and bad_edge is None:
                bad_edge = k
                if off_arc is not None:
                    break
        elif xs[j] >= xs[i] and bad_edge is None:
            bad_edge = k
            if off_arc is not None:
                break
        i = j
    return bad_edge, off_arc


def _first_prefix_failure(s: ConvexPointSet, e: Embedding) -> Optional[int]:
    # A walk is crossing-free on a convex set iff every prefix occupies a
    # cyclically consecutive run of hull positions, so each new position must
    # extend the current arc at one of its two ends.
    ints, prv, nxt = _neighbours(s.n)
    a = e.assignment
    lo = hi = a[0]
    for i, idx in zip(ints[1:], a[1:]):
        if idx == prv[lo]:
            lo = idx
        elif idx == nxt[hi]:
            hi = idx
        else:
            return i
    return None


def check_planarity_prefix(s: ConvexPointSet, e: Embedding) -> bool:
    require_well_formed(s, e)
    return _first_prefix_failure(s, e) is None


def check_planarity_segments(s: ConvexPointSet, e: Embedding) -> bool:
    """Exact test that no two non-adjacent edges of the drawn walk meet.

    A Shamos-Hoey sweep (Shamos and Hoey, FOCS 1976), see _sweep, along the
    axis that a fixed-stride sample of at most 32 walk edges travels less (a
    tie goes to x), so that fewer edges span the sweep line. Along y it sweeps
    the transposed columns (x, y) -> (y, x), on which the same edges meet. A
    validated set has distinct coordinates and no collinear triple, so a zero
    side is a bug, reported as InternalCaseError.
    """
    require_well_formed(s, e)
    n = s.n
    if n < 4:
        return True  # no two edges are non-adjacent
    sx, sy = s.xs, s.ys
    xs = [sx[i] for i in e.assignment]
    ys = [sy[i] for i in e.assignment]
    step = -(-(n - 1) // 32)  # edges 0, step, 2 * step, ...: at most 32
    x_travel = sum(map(abs, map(sub, xs[1::step], xs[::step])))
    y_travel = sum(map(abs, map(sub, ys[1::step], ys[::step])))
    verdict = _sweep(xs, ys) if x_travel <= y_travel else _sweep(ys, xs)
    if verdict is None:
        raise InternalCaseError("segment sweep met a zero side on a validated set")
    return verdict


def _sweep(xs: list, ys: list) -> Optional[bool]:
    """The sweep core: whether the walk through the points (xs[k], ys[k]),
    whose x values are distinct, is crossing-free; None on a zero side.

    The events are the walk's vertices in x order; the status lists, bottom
    to top, the edges that span the sweep line, as indices into the walk.
    Edge i is stored by its left endpoint and its step to the right one,
    (lx, ly, dx, dy) with dx > 0, and vertex (x, y) lies above it iff
    dx*(y - ly) - dy*(x - lx) > 0, exact in Python ints. An event finds its
    slot by binary search, where the edges that end at the vertex sit; the
    edges that start there take their place, the lower one first by the
    cross product of their steps. Only the pairs the event makes adjacent
    are tested: two non-adjacent edges cross iff the ends of each lie
    strictly on opposite sides of the other; edges i and i+1 share a vertex
    and are never tested. The two edges of the leftmost crossing are
    adjacent in the status after the last event before it, so the sweep
    finds it. Unless it has found a crossing first, the sweep meets a vertex
    that lies on an edge it does not end as a zero side, at or before that
    vertex's event.
    """
    n = len(xs)
    m = n - 1  # edges
    edges = [
        (ax, ay, bx - ax, by - ay) if ax < bx else (bx, by, ax - bx, ay - by)
        for ax, ay, bx, by in zip(xs, ys, xs[1:], ys[1:])
    ]
    status: list[int] = []
    for k in sorted(range(n), key=xs.__getitem__):
        x, y = xs[k], ys[k]
        lo, hi = 0, len(status)
        while lo < hi:
            mid = (lo + hi) >> 1
            j = status[mid]
            lx, ly, dx, dy = edges[j]
            side = dx * (y - ly) - dy * (x - lx)
            if side > 0:
                lo = mid + 1
            elif side or j == k or j == k - 1:  # the vertex is below j, or j ends there
                hi = mid
            else:
                return None
        # Edge k-1 runs to the previous vertex, edge k to the next one.
        prev_ends = k > 0 and xs[k - 1] < x
        next_ends = k < m and xs[k + 1] < x
        if k == 0 or prev_ends:
            starts = () if k == m or next_ends else (k,)
        elif k == m or next_ends:
            starts = (k - 1,)
        else:
            # Both edges start here: the one with the smaller slope is lower.
            _, _, dx, dy = edges[k - 1]
            _, _, ex, ey = edges[k]
            turn = dx * ey - dy * ex
            if not turn:
                return None
            starts = (k - 1, k) if turn > 0 else (k, k - 1)
        # With no crossing and no zero side met so far, the edges that end
        # here are the ones at the slot: the new edges replace them.
        status[lo : lo + prev_ends + next_ends] = starts
        # The pairs this event made adjacent: below the new edges and above
        # them, or across the gap the deleted edges left.
        for p in (lo - 1, lo + len(starts) - 1) if starts else (lo - 1,):
            if p < 0 or p + 1 >= len(status):
                continue
            i, j = status[p], status[p + 1]
            if -1 <= i - j <= 1:
                continue
            ax, ay, adx, ady = edges[i]
            bx, by, bdx, bdy = edges[j]
            u, w = bx - ax, by - ay
            # Sides of j's ends about i (a1, a2) and of i's ends about j (b1, b2).
            a1 = adx * w - ady * u
            b1 = bdy * u - bdx * w
            turn = adx * bdy - ady * bdx
            a2 = a1 + turn
            b2 = b1 - turn
            if not (a1 and a2 and b1 and b2):
                return None
            if (a1 > 0) != (a2 > 0) and (b1 > 0) != (b2 > 0):
                return False
    return True


def require_pdce(p: DirPath, s: ConvexPointSet, e: Embedding, context: str) -> Embedding:
    """Return e if it is direction-consistent and prefix-planar.

    The one check a library answer passes before it leaves the public entry
    that produced it; a failure is a bug, reported as InternalCaseError.
    That includes a malformed answer: the verdict pass alone accepts
    (-1, 0, 1, ..., n-2), whose -1 Python reads as the last point. Plain-int
    entries, a[0] in range and every later entry extending the prefix arc:
    then the n entries are a permutation. Only a failing answer meets the
    per-rule checks, which name the rule it breaks.
    """
    a = e.assignment
    n = s.n
    try:
        if (
            len(a) == n == p.n_vertices
            and set(map(type, a)) == {int}
            and 0 <= a[0] < n
            and _verdicts(p.labels, s.xs, s.ys, a) == (None, None)
        ):
            return e
    except IndexError:
        pass  # the pass read an entry at or above n: the index scan names it
    try:
        require_same_size(p, s)
        require_well_formed(s, e)
    except InvalidEmbedding as exc:
        raise InternalCaseError(f"{context}: {exc}") from exc
    bad_edge = _verdicts(p.labels, s.xs, s.ys, a)[0]
    if bad_edge is not None:
        raise InternalCaseError(f"{context}: edge {bad_edge} violates its label")
    raise InternalCaseError(f"{context}: the drawing has a crossing")


class ValidationReport(NamedTuple):
    direction_consistent: bool
    planar_prefix: bool
    planar_segments: bool
    first_violation: Optional[tuple]

    @property
    def is_pdce(self) -> bool:
        return self.direction_consistent and self.planar_prefix and self.planar_segments

    def to_json_dict(self) -> dict:
        return {
            "direction_consistent": self.direction_consistent,
            "planar_prefix": self.planar_prefix,
            "planar_segments": self.planar_segments,
            "is_pdce": self.is_pdce,
            "first_violation": list(self.first_violation)
            if self.first_violation
            else None,
        }


def validate_embedding(p: DirPath, s: ConvexPointSet, e: Embedding) -> ValidationReport:
    """Run every check and report the first violation, if any."""
    require_same_size(p, s)
    ok_segments = check_planarity_segments(s, e)
    bad_edge, prefix_fail = _verdicts(p.labels, s.xs, s.ys, e.assignment)
    if bad_edge is not None:
        violation: Optional[tuple] = ("direction", bad_edge)
    elif prefix_fail is not None:
        violation = ("prefix", prefix_fail)
    elif not ok_segments:
        violation = ("segments",)
    else:
        violation = None
    return ValidationReport(
        direction_consistent=bad_edge is None,
        planar_prefix=prefix_fail is None,
        planar_segments=ok_segments,
        first_violation=violation,
    )
