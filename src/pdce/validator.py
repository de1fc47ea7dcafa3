"""Checks that an embedding is direction-consistent and crossing-free.

Planarity is checked along two independent routes on purpose. The segment
route tests every non-adjacent edge pair with an exact intersection
predicate. The prefix route checks that each prefix of the walk occupies a
cyclically consecutive arc of hull positions, which characterizes the
crossing-free walks on a convex point set. Both are kept side by side so
each one guards the other; callers that need a single answer should demand
agreement via validate_embedding().
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


def _require_well_formed(s: ConvexPointSet, e: Embedding) -> None:
    a = e.assignment
    if len(a) != s.n:
        raise InvalidEmbedding(
            f"embedding lists {len(a)} vertices for {s.n} points"
        )
    seen = set()
    for idx in a:
        if type(idx) is not int:
            raise InvalidEmbedding(f"point index {idx!r} is not a plain int")
        if not 0 <= idx < s.n:
            raise InvalidEmbedding(f"point index {idx!r} out of range")
        if idx in seen:
            raise InvalidEmbedding(f"point index {idx} used twice")
        seen.add(idx)


def check_direction_consistency(
    p: DirPath, s: ConvexPointSet, e: Embedding
) -> tuple[bool, Optional[int]]:
    """Return (ok, first bad edge index) for the strict direction constraints."""
    if p.n_vertices != s.n:
        raise SizeMismatch(
            f"path has {p.n_vertices} vertices but the set has {s.n} points"
        )
    _require_well_formed(s, e)
    pts = s.points
    for k, label in enumerate(p.labels):
        if not edge_ok(label, pts[e[k]], pts[e[k + 1]]):
            return False, k
    return True, None


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
    _require_well_formed(s, e)
    return _first_prefix_failure(s, e) is None


def check_planarity_segments(s: ConvexPointSet, e: Embedding) -> bool:
    """Exact pairwise test of all non-adjacent edges of the drawn walk."""
    _require_well_formed(s, e)
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
    """
    ok, bad = check_direction_consistency(p, s, e)
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
    ok_dir, bad_edge = check_direction_consistency(p, s, e)
    prefix_fail = _first_prefix_failure(s, e)
    ok_segments = check_planarity_segments(s, e)
    if not ok_dir:
        violation: Optional[tuple] = ("direction", bad_edge)
    elif prefix_fail is not None:
        violation = ("prefix", prefix_fail)
    elif not ok_segments:
        violation = ("segments",)
    else:
        violation = None
    return ValidationReport(
        direction_consistent=ok_dir,
        planar_prefix=prefix_fail is None,
        planar_segments=ok_segments,
        first_violation=violation,
    )
