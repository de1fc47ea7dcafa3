"""Exact geometric primitives and canonical convex point sets.

Seeded sets of each class come from the generate module. All coordinates
are integers with magnitude at most COORD_LIMIT, so every predicate in
this module is computed exactly with Python integers. A point set is
accepted only when it is in strictly convex, general position: pairwise
distinct x, pairwise distinct y, and no three collinear points. Accepted
sets are stored in a canonical order (counterclockwise around the hull,
starting at the topmost point), which makes equality, hashing and all
downstream index arithmetic independent of the input order. Sets, the two
parsers (text and JSON), the text formatter and the predicates work on
(x, y) int pairs; no engine reads a set's points view. validate() accepts
fast and explains exactly: a valid set passes in whole-column passes and
one split into the two hull chains, and only a rejected input meets the
slower route that names its error.

CPython caches only the ints up to 256, so an index built afresh above
that is a heap allocation. The embedder's pools and frame tables, the
answer check's cursors, the axis orders and the decider's range ends
instead share the int objects of one tuple of 0..n-1 (_indices), kept for
the process: 40 bytes per index (tracemalloc), 40 MB at n = 10^6.
"""

from __future__ import annotations

# json loads on first use in the JSON door: import pdce pays for none.
import enum
import operator
import re
from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    CollinearTriple,
    CoordinateRange,
    DuplicateX,
    DuplicateY,
    InternalCaseError,
    NotConvexPosition,
    PreconditionViolated,
)

__all__ = [
    "COORD_LIMIT", "ConvexPointSet", "SetTag", "SplitDescriptor", "classify", "format_points_text",
    "orientation", "parse_points_json", "parse_points_text", "segments_intersect",
    "split_by_bt_line", "validate",
]

COORD_LIMIT = 1 << 30

_INDICES: tuple[int, ...] = ()


def _indices(n: int) -> tuple[int, ...]:
    """The ints 0, 1, .., n-1 as a slice of the one shared tuple, which grows
    to n when n is the largest yet. A growing call reads the tuple into a
    local first, so a thread that grows it at the same time can leave a
    shorter one behind, but never hands this call a short slice."""
    global _INDICES
    ints = _INDICES
    if len(ints) < n:
        ints = _INDICES = (*ints, *range(len(ints), n))
    return ints[:n]


class Point(NamedTuple):
    """A read-only (x, y) view of one point of a ConvexPointSet."""

    x: int
    y: int


def _pair(obj) -> tuple[int, int]:
    # The coordinate rule of the input door: two index-like values, neither
    # a bool, each of magnitude at most COORD_LIMIT.
    try:
        x, y = obj
        pair = operator.index(x), operator.index(y)
    except (TypeError, ValueError):
        import reprlib  # bounds the echo of long or deeply nested entries

        try:
            quote = reprlib.repr(obj)
        except ValueError:  # it is or holds an int too long for repr()
            size = f" of length {len(obj)}" if hasattr(obj, "__len__") else ""
            quote = f"<{type(obj).__name__}{size}>"
        raise PreconditionViolated(f"cannot interpret {quote} as a point") from None
    if type(x) is bool or type(y) is bool:
        bad = x if type(x) is bool else y
        raise PreconditionViolated(f"coordinates must be plain ints, got {bad!r}")
    if abs(pair[0]) > COORD_LIMIT or abs(pair[1]) > COORD_LIMIT:
        raise _out_of_range(next(v for v in pair if abs(v) > COORD_LIMIT))
    return pair


def _int_literal(text: str) -> int:
    # int(text) at the text and JSON doors. A well-formed literal too long for
    # int() (4300 digits) is out of range, unless all but ten are leading zeros.
    try:
        return int(text)
    except ValueError:
        literal = re.fullmatch(r"\s*([+-]?)0*(\d+)\s*", text)
        if literal is None:
            raise
    sign, digits = literal.groups()
    if len(digits) > len(str(COORD_LIMIT)):
        raise CoordinateRange(f"coordinate of {len(digits)} digits exceeds |{COORD_LIMIT}|")
    return int(sign + digits)


def _echo(line: str) -> str:
    # A bad input line as messages quote it: past 40 characters, a prefix and its length.
    return repr(line) if len(line) <= 40 else f"{line[:40]!r}... ({len(line)} chars)"


def _out_of_range(v: int) -> CoordinateRange:
    try:
        return CoordinateRange(f"coordinate {v} exceeds |{COORD_LIMIT}|")
    except ValueError:  # v has more digits than the interpreter converts to str
        return CoordinateRange(f"coordinate of {v.bit_length()} bits exceeds |{COORD_LIMIT}|")


def orientation(a, b, c) -> int:
    """Sign of the turn a->b->c of (x, y) pairs: +1 left (ccw), -1 right, 0 collinear."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def _on_segment(a, b, c) -> bool:
    # Whether c lies on the closed segment a-b, given c collinear with a and b.
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    return min(ax, bx) <= cx <= max(ax, bx) and min(ay, by) <= cy <= max(ay, by)


def segments_intersect(a, b, c, d) -> bool:
    """Whether closed segments a-b and c-d of (x, y) pairs share at least one point. Exact."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 and o2 and o3 and o4:
        return o1 != o2 and o3 != o4
    # An endpoint collinear with the other segment: they meet iff it lies on it.
    return (
        (o1 == 0 and _on_segment(a, b, c))
        or (o2 == 0 and _on_segment(a, b, d))
        or (o3 == 0 and _on_segment(c, d, a))
        or (o4 == 0 and _on_segment(c, d, b))
    )


def _read_only(self, name, *value):
    # __setattr__ and __delattr__ of the records that are not tuples.
    raise AttributeError(f"cannot assign to field {name!r}")


class ConvexPointSet:
    """Strictly convex general-position points in canonical hull order.

    Point k is (xs[k], ys[k]); point 0 is the topmost and the order runs
    counterclockwise. Equality and hashing go by the two columns, which are
    read-only. validate() is the one door for outside input, and the
    symmetry operators build from a valid set by index arithmetic. The
    constructor refuses; pickle and copy go through validate(). The four
    extreme indices (which the symmetry operators seed), the two axis orders
    (positions by increasing x or y, which the decider reads) and points,
    the pairs as unchecked Point tuples, are read from the columns on first
    use and cached. So is the decider's per-set state, which the first
    decide on the set pays for: two lists of n + 1 ints per axis the path
    uses, the start and end anchors of its comparison rows' cyclic ranges,
    and two masks per label, of n and 2n bits, so at most 8 masks of at
    most 2n bits. Every cache dies with the set and takes no part in
    equality, hashing, pickle or copy; the symmetry images start without
    the decider's.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    __setattr__ = __delattr__ = _read_only

    def __init__(self, *args, **kwargs) -> None:
        raise PreconditionViolated("a ConvexPointSet is built by validate(), from (x, y) pairs")

    def __reduce__(self):
        return validate, (tuple(zip(self.xs, self.ys)),)

    def __eq__(self, other):
        if other.__class__ is not ConvexPointSet:
            return NotImplemented
        return self.xs == other.xs and self.ys == other.ys

    def __hash__(self) -> int:
        return hash((self.xs, self.ys))

    @property
    def n(self) -> int:
        return len(self.xs)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(map(Point, self.xs, self.ys))

    @cached_property
    def top_index(self) -> int:
        return self.ys.index(max(self.ys))

    @cached_property
    def bottom_index(self) -> int:
        return self.ys.index(min(self.ys))

    @cached_property
    def left_index(self) -> int:
        return self.xs.index(min(self.xs))

    @cached_property
    def right_index(self) -> int:
        return self.xs.index(max(self.xs))

    @cached_property
    def x_order(self) -> tuple[int, ...]:
        return tuple(sorted(_indices(self.n), key=self.xs.__getitem__))

    @cached_property
    def y_order(self) -> tuple[int, ...]:
        return tuple(sorted(_indices(self.n), key=self.ys.__getitem__))

    @cached_property
    def _decider(self) -> dict:
        # The decider's per-set state, filled by decider._state on first use.
        return {}

    def __repr__(self) -> str:
        inner = ", ".join(f"({x}, {y})" for x, y in zip(self.xs, self.ys))
        return f"ConvexPointSet([{inner}])"


def _sealed(xs: tuple[int, ...], ys: tuple[int, ...], **extremes: int) -> ConvexPointSet:
    # The set of already valid columns, past the refusing constructor; the
    # extreme indices a caller knows (top_index, ...) become their cache.
    s = object.__new__(ConvexPointSet)
    s.__dict__.update(extremes, xs=xs, ys=ys)
    return s


def validate(raw_points: Iterable) -> ConvexPointSet:
    """Check convex general position and return the canonical point set.

    Each entry is an (x, y) pair of index-like values, such as a Point.
    Raises DuplicateX / DuplicateY / CollinearTriple / NotConvexPosition
    with the offending indices into the *input* order, CoordinateRange for
    oversized coordinates, and PreconditionViolated for malformed input.
    Accepts fast, explains exactly: int 2-tuples are checked by column and
    the set by the turns of the ring _strict_hull splits off; only an input
    that fails goes through _pair or _monotone_chain, which name the error.
    """
    entries = list(raw_points)
    n = len(entries)
    if n == 0:
        raise PreconditionViolated("point set is empty")
    fast = set(map(type, entries)) == {tuple} and set(map(len, entries)) == {2}
    if fast:
        xs, ys = (tuple(map(operator.itemgetter(k), entries)) for k in (0, 1))
        both = xs + ys
        fast = set(map(type, both)) == {int} and max(map(abs, both)) <= COORD_LIMIT
    if not fast:
        xs, ys = zip(*map(_pair, entries))

    by_x = sorted(range(n), key=xs.__getitem__)
    if len(set(xs)) < n or len(set(ys)) < n:
        by_y = sorted(range(n), key=ys.__getitem__)
        for order, col, duplicate in ((by_x, xs, DuplicateX), (by_y, ys, DuplicateY)):
            for a, b in zip(order, order[1:]):
                if col[a] == col[b]:
                    raise duplicate(*sorted((a, b)))

    ring = _strict_hull(xs, ys, by_x) if n > 2 else by_x
    start = ring.index(ys.index(max(ys)))
    pick = operator.itemgetter(*ring[start:], *ring[:start])
    cxs, cys = (pick(xs), pick(ys)) if n > 1 else (xs, ys)
    if n > 2:
        # Edge k runs from ring point k to k + 1; each turns strictly left into the next.
        ex = list(map(operator.sub, cxs[1:] + cxs[:1], cxs))
        ey = list(map(operator.sub, cys[1:] + cys[:1], cys))
        cross = map(operator.mul, ex, ey[1:] + ey[:1])
        if not all(map(operator.gt, cross, map(operator.mul, ey, ex[1:] + ex[:1]))):
            _monotone_chain(xs, ys, by_x)
            raise InternalCaseError("hull canonicalization broke convexity")
    return _sealed(cxs, cys)


def _strict_hull(xs: Sequence[int], ys: Sequence[int], by_x: list[int]) -> list[int]:
    # One chain split by the line from the leftmost point l to the rightmost r:
    # l, the points on or below it by x, r, the points above it by falling x.
    # Every turn of this ring is strictly left iff the set is strictly convex.
    l, r = by_x[0], by_x[-1]
    lx, ly = xs[l], ys[l]
    dx, dy = xs[r] - lx, ys[r] - ly
    lower, upper = [], []
    for k in by_x[1:-1]:
        (lower if dx * (ys[k] - ly) <= dy * (xs[k] - lx) else upper).append(k)
    return [l, *lower, r, *reversed(upper)]


def _monotone_chain(xs: Sequence[int], ys: Sequence[int], by_x: list[int]) -> list[int]:
    # Monotone chain (Andrew 1979) on indices, restricted to strict turns: the
    # hull from the leftmost point, or an error naming the offending indices.
    def build(order: list[int]) -> list[int]:
        chain: list[int] = []
        for k in order:
            kx, ky = xs[k], ys[k]
            while len(chain) >= 2:
                i, j = chain[-2], chain[-1]
                ix, iy = xs[i], ys[i]
                c = (xs[j] - ix) * (ky - iy) - (ys[j] - iy) * (kx - ix)
                if c == 0:
                    raise CollinearTriple(*sorted((i, j, k)))
                if c < 0:
                    chain.pop()
                else:
                    break
            chain.append(k)
        return chain

    hull = build(by_x)[:-1] + build(by_x[::-1])[:-1]
    if len(hull) < len(xs):
        raise NotConvexPosition(min(set(range(len(xs))).difference(hull)))
    return hull


class SetTag(enum.Enum):
    LEFT_SIDED = "LeftSided"
    RIGHT_SIDED = "RightSided"
    QUARTER_INC = "QuarterIncreasing"
    QUARTER_DEC = "QuarterDecreasing"
    STRIP_CONVEX = "StripConvex"
    GENERAL_CONVEX = "GeneralConvex"


def classify(s: ConvexPointSet) -> frozenset[SetTag]:
    """Return every structural tag the set satisfies.

    Sets with at most two points satisfy the one-sided and strip conditions
    vacuously. GeneralConvex always holds for an accepted set.
    """
    tags = {SetTag.GENERAL_CONVEX}
    if s.n <= 2:
        tags.update((SetTag.LEFT_SIDED, SetTag.RIGHT_SIDED, SetTag.STRIP_CONVEX))
    else:
        if s.bottom_index == s.n - 1:
            tags.add(SetTag.LEFT_SIDED)
        if s.bottom_index == 1:
            tags.add(SetTag.RIGHT_SIDED)
        # Strip-convex: the top lies right of the bottom, and each is the
        # leftmost resp. rightmost point or hull-adjacent to it.
        adjacent_or_equal = (0, 1, s.n - 1)
        if (
            s.xs[s.top_index] > s.xs[s.bottom_index]
            and (s.bottom_index - s.left_index) % s.n in adjacent_or_equal
            and (s.top_index - s.right_index) % s.n in adjacent_or_equal
        ):
            tags.add(SetTag.STRIP_CONVEX)
    if s.x_order == s.y_order:
        tags.add(SetTag.QUARTER_INC)
    if s.x_order == tuple(reversed(s.y_order)):
        tags.add(SetTag.QUARTER_DEC)
    return frozenset(tags)


class SplitDescriptor(NamedTuple):
    """How the directed bottom-to-top line partitions a point set.

    m counts points strictly left of the directed line, positions 1..m in
    canonical order; the bottom is position m+1 and the points strictly
    right are m+2..n-1. alpha counts points with x strictly below x(bottom);
    beta counts points with x at most x(top), including the top point itself.
    """

    m: int
    alpha: int
    beta: int


def _unimodal_runs(
    key: Sequence[int], lo: int, hi: int
) -> tuple[Sequence[int], Sequence[int]]:
    """Split a cyclically unimodal column into its two increasing runs.

    key is a coordinate column (xs or ys) of a convex set in hull order: its
    values are distinct, lo and hi are the positions of the smallest and
    the largest, and key rises strictly along lo, .., hi and falls strictly
    along hi, .., lo (mod n). Returns (rising, falling): the keys at
    lo, .., hi-1 and those at lo-1, lo-2, .., hi+1. Both increase, so the
    number of keys below a value is two bisections; the largest key, at hi,
    is in neither run.
    """
    rotated = key[lo:] + key[:lo]  # rotated[i] = key[(lo + i) % n]
    h = (hi - lo) % len(key)
    return rotated[:h], rotated[:h:-1]


def split_by_bt_line(s: ConvexPointSet) -> SplitDescriptor:
    """Split s by the directed line from its bottom point to its top point.

    Canonical order starts at the top (index 0) and runs counterclockwise
    down the side left of the line to the bottom, then up the right side;
    no three points are collinear. So indices 1 .. bottom_index - 1 lie
    strictly left of the line, the rest past the bottom strictly right.
    alpha and beta count x values by bisection on the two increasing runs
    of the x column (_unimodal_runs); the rightmost point, in neither run,
    counts towards beta only when it is the top.
    Requires two points or more and the top strictly right of the bottom.
    """
    if s.n < 2:
        raise PreconditionViolated("split needs at least two points")
    xs = s.xs
    bx = xs[s.bottom_index]
    tx = xs[s.top_index]
    if tx < bx:
        raise PreconditionViolated("top point must lie to the right of the bottom point")
    rising, falling = _unimodal_runs(xs, s.left_index, s.right_index)
    return SplitDescriptor(
        m=s.bottom_index - 1,
        alpha=bisect_left(rising, bx) + bisect_left(falling, bx),
        beta=bisect_right(rising, tx) + bisect_right(falling, tx)
        + (s.top_index == s.right_index),
    )


def parse_points_text(text: str) -> list[tuple[int, int]]:
    """Parse 'x y' lines into int pairs, checked as validate() checks them.
    Blank lines and lines starting with '#' are skipped."""
    pairs = []
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        parts = body.split()
        if len(parts) != 2:
            raise PreconditionViolated(f"line {ln}: expected 'x y', got {_echo(body)}")
        try:
            pairs.append(_pair((_int_literal(parts[0]), _int_literal(parts[1]))))
        except CoordinateRange as exc:
            raise CoordinateRange(f"line {ln}: {exc}") from None
        except ValueError:
            raise PreconditionViolated(
                f"line {ln}: coordinates must be integers"
            ) from None
    return pairs


def format_points_text(points: Iterable) -> str:
    """One 'x y' line per (x, y) pair; a Point is such a pair."""
    return "".join(f"{x} {y}\n" for x, y in points)


def parse_points_json(text: str) -> list[tuple[int, int]]:
    """Parse {"points": [[x, y], ...]} into int pairs, checked as validate() checks them."""
    import json
    try:
        doc = json.loads(text, parse_int=_int_literal)
    except json.JSONDecodeError as exc:
        raise PreconditionViolated(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise PreconditionViolated("invalid JSON: nested too deeply to parse") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise PreconditionViolated('expected an object with a "points" array')
    return [_pair(entry) for entry in doc["points"]]
