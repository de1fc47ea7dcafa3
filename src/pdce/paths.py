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
  index k holds old point (-k) mod n, and old index i becomes (-i) mod n;
- mirror after rotation, the transpose (x, y) -> (y, x): new index k holds
  old point (s.right_index - k) mod n.

No operator re-validates: a transformed valid set is valid. rotate_set and
mirror_set cut and negate the source's coordinate columns, _transposed_set
only cuts them (two reversed slices each), and all hand geometry._sealed
the new bottom, left and right indices, found by the same index
arithmetic; the top is index 0 in every canonical set. They scan no
column and build no point.
"""

from __future__ import annotations

from operator import neg
from typing import Iterable

from .errors import PreconditionViolated
from .geometry import ConvexPointSet, _read_only, _sealed

__all__ = [
    "DirPath", "Embedding", "mirror_embedding", "mirror_path", "mirror_set",
    "reverse_embedding", "reverse_path", "rotate_embedding", "rotate_path", "rotate_set",
]

LABELS = "UDLR"
_NOT_LABELS = str.maketrans("", "", LABELS)

_REVERSE_FLIP = str.maketrans("UDLR", "DURL")
_ROTATE_LABEL = str.maketrans("ULDR", "LDRU")
_MIRROR_LABEL = str.maketrans("LR", "RL")


class DirPath:
    """Edge labels of a directed path; the empty string is a single vertex."""

    __slots__ = ("labels",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, labels: str) -> None:
        if not isinstance(labels, str):
            raise PreconditionViolated(f"path labels must be a str, got {type(labels).__name__}")
        bad = labels.translate(_NOT_LABELS)  # the non-labels, in order
        if bad:
            raise PreconditionViolated(
                f"path labels must be drawn from {LABELS}, got {bad[0]!r}"
            )
        object.__setattr__(self, "labels", labels)

    def __reduce__(self):
        return DirPath, (self.labels,)

    def __eq__(self, other):
        if other.__class__ is not DirPath:
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self.labels,))

    def __repr__(self) -> str:
        return f"DirPath(labels={self.labels!r})"

    @property
    def n_vertices(self) -> int:
        return len(self.labels) + 1

    def directions_used(self) -> frozenset:
        # Four substring searches instead of hashing every label.
        return frozenset(d for d in LABELS if d in self.labels)


class Embedding:
    """assignment[i] is the point index hosting vertex i+1."""

    __slots__ = ("assignment",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, assignment: Iterable[int]) -> None:
        object.__setattr__(self, "assignment", tuple(assignment))

    def __reduce__(self):
        return Embedding, (self.assignment,)

    def __eq__(self, other):
        if other.__class__ is not Embedding:
            return NotImplemented
        return self.assignment == other.assignment

    def __hash__(self) -> int:
        return hash((self.assignment,))

    def __repr__(self) -> str:
        return f"Embedding(assignment={self.assignment!r})"

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


def rotate_set(s: ConvexPointSet) -> ConvexPointSet:
    # (x, y) -> (-y, x): the old right, left, bottom and top points become
    # the new top, bottom, right and left.
    r, n, xs, ys = s.right_index, s.n, s.xs, s.ys
    return _sealed(
        tuple(map(neg, ys[r:] + ys[:r])),
        xs[r:] + xs[:r],
        bottom_index=(s.left_index - r) % n,
        left_index=-r % n,
        right_index=(s.bottom_index - r) % n,
    )


def mirror_set(s: ConvexPointSet) -> ConvexPointSet:
    # (x, y) -> (-x, y): top and bottom stay, left and right swap.
    n, xs, ys = s.n, s.xs, s.ys
    return _sealed(
        tuple(map(neg, xs[:1] + xs[:0:-1])),
        ys[:1] + ys[:0:-1],
        bottom_index=-s.bottom_index % n,
        left_index=-s.right_index % n,
        right_index=-s.left_index % n,
    )


def _transposed_set(s: ConvexPointSet) -> ConvexPointSet:
    # mirror_set(rotate_set(s)), (x, y) -> (y, x): the old right, bottom,
    # left and top points become the new top, left, bottom and right.
    r, n, xs, ys = s.right_index, s.n, s.xs, s.ys
    return _sealed(
        ys[r::-1] + ys[:r:-1],
        xs[r::-1] + xs[:r:-1],
        bottom_index=(r - s.left_index) % n,
        left_index=(r - s.bottom_index) % n,
        right_index=r,
    )


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
