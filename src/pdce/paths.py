"""Direction-labeled paths, embeddings, and the symmetry operators.

A path on k vertices is described by its k-1 edge labels, each one of
U, D, L, R (up, down, left, right). An embedding assigns vertex i (0-based
here, 1-based in user-facing text) to an index into a canonical point set.

The three symmetry operators act jointly on paths, point sets and
embeddings: reversal walks the path backwards, rotation turns the plane a
quarter turn counterclockwise, mirroring flips it across the vertical axis.
Applying an operator to all three components preserves the defining
properties of an embedding, which the test suite checks exhaustively.

Canonical hull order (counterclockwise from the topmost point) makes each
operator on sets and embeddings pure index arithmetic on an n-point set s:

- rotation: the new topmost point is the old rightmost one, so new index k
  holds old point (k + s.right_index) mod n, and old index i becomes
  (i - s.right_index) mod n;
- mirror: the top stays first and the cycle runs the other way, so new
  index k holds old point (-k) mod n, and old index i becomes (-i) mod n.

No operator re-validates: a transformed valid set is valid, and the
rotated or mirrored points are built without re-checking coordinates that
negation keeps in range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionViolated
from .geometry import ConvexPointSet, Point, _trusted_point

LABELS = "UDLR"

_REVERSE_FLIP = str.maketrans("UDLR", "DURL")
_ROTATE_LABEL = str.maketrans("ULDR", "LDRU")
_MIRROR_LABEL = str.maketrans("LR", "RL")


@dataclass(frozen=True)
class DirPath:
    """Edge labels of a directed path; the empty string is a single vertex."""

    labels: str

    def __post_init__(self) -> None:
        for ch in self.labels:
            if ch not in LABELS:
                raise PreconditionViolated(
                    f"path labels must be drawn from {LABELS}, got {ch!r}"
                )

    @property
    def n_vertices(self) -> int:
        return len(self.labels) + 1

    def subpath(self, i: int, j: int) -> "DirPath":
        """Vertices i through j, 1-based and inclusive on both ends."""
        if not 1 <= i <= j <= self.n_vertices:
            raise PreconditionViolated(f"bad subpath range [{i}, {j}]")
        return DirPath(self.labels[i - 1 : j - 1])

    def directions_used(self) -> frozenset:
        return frozenset(self.labels)

    def __str__(self) -> str:
        return self.labels or "(single vertex)"


@dataclass(frozen=True)
class Embedding:
    """assignment[i] is the point index hosting vertex i+1."""

    assignment: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.assignment)

    def __getitem__(self, i: int) -> int:
        return self.assignment[i]


def reverse_path(p: DirPath) -> DirPath:
    return DirPath(p.labels[::-1].translate(_REVERSE_FLIP))


def rotate_path(p: DirPath) -> DirPath:
    return DirPath(p.labels.translate(_ROTATE_LABEL))


def mirror_path(p: DirPath) -> DirPath:
    return DirPath(p.labels.translate(_MIRROR_LABEL))


def rotate_point(p: Point) -> Point:
    return _trusted_point(-p.y, p.x)


def mirror_point(p: Point) -> Point:
    return _trusted_point(-p.x, p.y)


def rotate_set(s: ConvexPointSet) -> ConvexPointSet:
    r, pts = s.right_index, s.points
    return ConvexPointSet(tuple(rotate_point(p) for p in pts[r:] + pts[:r]))


def mirror_set(s: ConvexPointSet) -> ConvexPointSet:
    pts = s.points
    return ConvexPointSet(tuple(mirror_point(p) for p in pts[:1] + pts[:0:-1]))


def reverse_embedding(e: Embedding) -> Embedding:
    return Embedding(tuple(reversed(e.assignment)))


def rotate_embedding(e: Embedding, s: ConvexPointSet) -> Embedding:
    """Carry an embedding on s over to rotate_set(s)."""
    r, n = s.right_index, s.n
    return Embedding(tuple((i - r) % n for i in e.assignment))


def mirror_embedding(e: Embedding, s: ConvexPointSet) -> Embedding:
    """Carry an embedding on s over to mirror_set(s)."""
    n = s.n
    return Embedding(tuple(-i % n for i in e.assignment))
