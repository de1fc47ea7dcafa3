"""Checks that an embedding is direction-consistent and crossing-free.

Each input rule has one owner: require_same_size (one point per path
vertex) and require_well_formed (one plain-int index in range per point,
none twice) live here, the U/D/R split rules in geometry.split_by_bt_line
and the U/D/R label rule in embedder.plan_udr_case. Each public check_*
scans the embedding once; validate_embedding scans it once, inside
check_planarity_segments, and then runs the unchecked direction and prefix
cores, as oracle.certificate does on its enumerated candidates.

Planarity is checked along two independent routes on purpose. The segment
route tests every non-adjacent edge pair exactly, in blocks of int64 numpy
side tests whose two cross-product terms (each at most 2^62 in magnitude at
|coord| <= 2^30) are compared rather than subtracted; should a hand-built
set have collinear points, it falls back to the pure-Python pair loop with
closed-segment predicates. numpy is imported on first use, so the rest of
the package runs without loading it. The prefix route checks that each
prefix of the walk occupies a cyclically consecutive arc of hull positions,
which characterizes the crossing-free walks on a convex point set. Both
are kept side by side so each one guards the other; callers that need a
single answer should demand agreement via validate_embedding().
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InternalCaseError, InvalidEmbedding, PreconditionViolated, SizeMismatch
from .geometry import ConvexPointSet, Point, segments_intersect
from .paths import DirPath, Embedding


def edge_ok(label: str, a: Point, b: Point) -> bool:
    """Whether the step a -> b strictly respects the label. Ties never pass."""
    if label == "U":
        return b.y > a.y
    if label == "D":
        return b.y < a.y
    if label == "L":
        return b.x < a.x
    if label == "R":
        return b.x > a.x
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
    bad = _first_bad_edge(p, s, e)
    return bad is None, bad


def _first_bad_edge(p: DirPath, s: ConvexPointSet, e: Embedding) -> Optional[int]:
    pts = s.points
    for k, label in enumerate(p.labels):
        if not edge_ok(label, pts[e[k]], pts[e[k + 1]]):
            return k
    return None


def _first_prefix_failure(s: ConvexPointSet, e: Embedding) -> Optional[int]:
    # A walk is crossing-free on a convex set iff every prefix occupies a
    # cyclically consecutive run of hull positions, so each new position must
    # extend the current arc at one of its two ends.
    n = s.n
    lo = hi = e[0]
    for i in range(1, n):
        idx = e[i]
        if idx == (lo - 1) % n:
            lo = idx
        elif idx == (hi + 1) % n:
            hi = idx
        else:
            return i
    return None


def check_planarity_prefix(s: ConvexPointSet, e: Embedding) -> bool:
    require_well_formed(s, e)
    return _first_prefix_failure(s, e) is None


# Cap on the cells of each of a block's two side matrices: about 2^15 cells
# of temporaries per block whatever n is, so there is never an n x n array.
_BLOCK_CELLS = 1 << 14


def check_planarity_segments(s: ConvexPointSet, e: Embedding) -> bool:
    """Exact pairwise test of all non-adjacent edges of the drawn walk.

    Edge i runs from vertex i to vertex i+1 of the walk: it starts at
    (ax_i, ay_i) and steps by (dx_i, dy_i). Vertex k is left of edge i iff
    dx_i*(y_k - ay_i) > dy_i*(x_k - ax_i). At |coord| <= 2^30 each side is
    at most 2^62 in magnitude, so both are exact in int64, and they are
    compared, never subtracted. Edge i separates edge j when the endpoints
    of j lie strictly on opposite sides of i; non-adjacent edges cross iff
    each separates the other.

    Edges are taken in row blocks of increasing i, each tested against the
    edges j >= i+2 only, through two side matrices of about _BLOCK_CELLS
    cells: the block's edges against all later vertices, and all later
    edges against the block's vertices. The scan stops at the first block
    with a crossing. Off the endpoints the two sides are equal only for
    three collinear points (or a repeated one), which a validated set never
    has; if a hand-built set shows one, the scalar pair loop gives the
    verdict, so closed segments that merely touch still intersect.
    """
    import numpy as np

    require_well_formed(s, e)
    n = s.n
    m = n - 1  # edges
    pts = [s.points[i] for i in e.assignment]
    x = np.fromiter((pt.x for pt in pts), dtype=np.int64, count=n)
    y = np.fromiter((pt.y for pt in pts), dtype=np.int64, count=n)
    edges = np.stack([x[:-1], y[:-1], np.diff(x), np.diff(y)])
    i0 = 0
    while i0 < m - 2:
        i1 = min(m - 2, i0 + max(1, _BLOCK_CELLS // (n - i0)))
        # Block edges i0..i1-1 (rows) against vertices i0+2.. (columns), and
        # the block's vertices i0..i1 (rows) against edges i0+2.. (columns).
        left1, equal1 = _sides(edges[:, i0:i1, None], x[None, i0 + 2 :], y[None, i0 + 2 :])
        left2, equal2 = _sides(edges[:, None, i0 + 2 :], x[i0 : i1 + 1, None], y[i0 : i1 + 1, None])
        # The terms are equal, both 0 or both dx*dy, where the vertex is an
        # edge's own start or end: b-2 and b-1 such cells in each matrix.
        b = i1 - i0
        if equal1 + equal2 != 2 * (max(b - 2, 0) + max(b - 1, 0)):
            return _segments_scalar(s, e)
        # Entry (r, c) pairs edge i0+r with edge i0+2+c, which is
        # non-adjacent, so tested, iff c >= r. Edge j separates edge i where
        # the vertices i and i+1 (rows r and r+1 of left2) differ.
        separated = (left1[:, :-1] != left1[:, 1:]) & (left2[:-1] != left2[1:])
        if np.triu(separated).any():
            return False
        i0 = i1
    return True


def _sides(edges, x, y):
    """Whether vertex (x, y) is left of edge (ax, ay, dx, dy), broadcast, and
    the number of cells where the terms dx*(y - ay) and dy*(x - ax) are equal."""
    import numpy as np

    ax, ay, dx, dy = edges
    lhs = y - ay
    lhs *= dx
    rhs = x - ax
    rhs *= dy
    return lhs > rhs, np.count_nonzero(lhs == rhs)


def _segments_scalar(s: ConvexPointSet, e: Embedding) -> bool:
    """The pair loop with exact closed-segment predicates: fallback and oracle."""
    pts = [s.points[i] for i in e.assignment]
    edges = list(zip(pts, pts[1:]))
    for i in range(len(edges)):
        for j in range(i + 2, len(edges)):
            # Edges sharing a vertex cannot overlap elsewhere: no three of
            # the hosting points are collinear.
            a, b = edges[i]
            c, d = edges[j]
            if segments_intersect(a, b, c, d):
                return False
    return True


def require_pdce(p: DirPath, s: ConvexPointSet, e: Embedding, context: str) -> Embedding:
    """Return e if it is direction-consistent and prefix-planar.

    The one check a library answer passes before it leaves the public entry
    that produced it; a failure is a bug, reported as InternalCaseError.
    That includes a malformed answer: the direction and prefix cores alone
    accept (-1, 0, 1, ..., n-2), whose -1 Python reads as the last point.
    """
    try:
        ok, bad = check_direction_consistency(p, s, e)
    except InvalidEmbedding as exc:
        raise InternalCaseError(f"{context}: {exc}") from exc
    if not ok:
        raise InternalCaseError(f"{context}: edge {bad} violates its label")
    if _first_prefix_failure(s, e) is not None:
        raise InternalCaseError(f"{context}: the drawing has a crossing")
    return e


@dataclass(frozen=True)
class ValidationReport:
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
    bad_edge = _first_bad_edge(p, s, e)
    prefix_fail = _first_prefix_failure(s, e)
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
