"""Exact geometric primitives and canonical convex point sets.

Seeded sets of each class come from the generate module. All coordinates
are integers with magnitude at most COORD_LIMIT, so every predicate in
this module is computed exactly with Python integers. A point set is
accepted only when it is in strictly convex, general position: pairwise
distinct x, pairwise distinct y, and no three collinear points. Accepted
sets are stored in a canonical order (counterclockwise around the hull,
starting at the topmost point), which makes equality, hashing and all
downstream index arithmetic independent of the input order: top_index is
the constant 0, the other three extreme indices are cached, and
split_by_bt_line bisects the x column in place. Sets, the two parsers
(text and JSON), the text formatter and the predicates work on (x, y)
int pairs; a set's points view is built on each read, and no engine reads
it. validate() accepts fast and explains exactly: a valid set passes in
whole-column passes and one split into the two hull chains, and only a
rejected input meets the slower route that names its error. Those rules
run on two coordinate columns in one core, _column_set, which the CLI's
text door enters straight from _text_columns: the door holds one copy of
the points beside the text, with no list of all lines, no pair per point
and no list of edge differences.

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
from bisect import bisect_right
from functools import cached_property
from itertools import chain, islice, tee
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    constructor refuses; pickle and copy go through validate(). top_index
    is the constant 0. The other three extreme indices (which the symmetry
    operators seed) and the two axis orders (positions by increasing x or
    y, which the decider reads) are read from the columns on first use and
    cached. So is the decider's per-set state, which the first decide on
    the set pays for: two lists of n + 1 ints per axis the path uses, the
    start and end anchors of its comparison rows' cyclic ranges, and two
    masks per label, of n and 2n bits, so at most 8 masks of at most 2n
    bits. Every cache dies with the set and takes no part in equality,
    hashing, pickle or copy; the symmetry images start without the
    decider's. points, the pairs as unchecked Point tuples for outside
    callers, is built on each read and not kept: at 64 bytes a point it
    would cost nearly as much as the set.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    top_index = 0
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

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(map(Point, self.xs, self.ys))

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
    # extreme indices a caller knows (bottom_index, ...) become their cache.
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
    that fails goes through _pair or _explain, which name the error.
    """
    entries = list(raw_points)
    if set(map(type, entries)) == {tuple} and set(map(len, entries)) == {2}:
        xs, ys = (tuple(map(operator.itemgetter(k), entries)) for k in (0, 1))
        if _plain(xs) and _plain(ys):
            return _column_set(xs, ys)
    xs, ys = zip(*map(_pair, entries)) if entries else ((), ())
    return _column_set(xs, ys)


def _plain(col: Sequence) -> bool:
    # Whether every value of the column is an int of magnitude at most COORD_LIMIT.
    return set(map(type, col)) == {int} and max(map(abs, col)) <= COORD_LIMIT


def _column_set(xs: Sequence[int], ys: Sequence[int]) -> ConvexPointSet:
    # The column core of validate() and the text door: validate()'s rules
    # from the empty set on, in its order, on two columns of ints within
    # COORD_LIMIT. Distinct coordinates are checked by two sets, one after
    # the other, and each turn as its two edge differences are computed, so
    # no list of differences is kept.
    n = len(xs)
    if n == 0:
        raise PreconditionViolated("point set is empty")
    if len(set(xs)) < n or len(set(ys)) < n:
        _explain(xs, ys)
    ring = _strict_hull(xs, ys)
    start = ring.index(ys.index(max(ys)))
    pick = operator.itemgetter(*ring[start:], *ring[:start])
    cxs, cys = (pick(xs), pick(ys)) if n > 1 else (tuple(xs), tuple(ys))
    if n > 2:
        # Edge k runs from ring point k to k + 1; each turns strictly left into the next.
        ex, nx = _edges(cxs)
        ey, ny = _edges(cys)
        if not all(map(operator.gt, map(operator.mul, ex, ny), map(operator.mul, ey, nx))):
            _explain(xs, ys)
            raise InternalCaseError("hull canonicalization broke convexity")
    return _sealed(cxs, cys)


def _edges(col: Sequence[int]) -> tuple[Iterator[int], Iterator[int]]:
    # The differences col[k + 1] - col[k] round the ring, from k = 0 and from
    # k = 1; tee holds only the one or two the two readers are apart.
    here, ahead = tee(map(operator.sub, islice(chain(col, col[:1]), 1, None), col))
    first = next(ahead)
    return here, chain(ahead, (first,))


def _strict_hull(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    # One chain split by the line from the leftmost point l to the rightmost r:
    # l, the points on or below it by x, r, the points above it by falling x.
    # Every turn of this ring is strictly left iff the set is strictly convex.
    by_x = sorted(_indices(len(xs)), key=xs.__getitem__)
    if len(by_x) < 3:
        return by_x
    l, r = by_x[0], by_x[-1]
    lx, ly = xs[l], ys[l]
    dx, dy = xs[r] - lx, ys[r] - ly
    lower, upper = [], []
    for k in islice(by_x, 1, len(by_x) - 1):
        (lower if dx * (ys[k] - ly) <= dy * (xs[k] - lx) else upper).append(k)
    return [l, *lower, r, *reversed(upper)]


def _explain(xs: Sequence[int], ys: Sequence[int]) -> None:
    # The exact route of the rules _column_set checks fast: the first tie of
    # the sorted x, then of the sorted y, then the monotone chain, which
    # names a collinear triple or a point inside the hull.
    n = len(xs)
    by_x = sorted(_indices(n), key=xs.__getitem__)
    by_y = sorted(_indices(n), key=ys.__getitem__)
    for order, col, duplicate in ((by_x, xs, DuplicateX), (by_y, ys, DuplicateY)):
        for a, b in zip(order, order[1:]):
            if col[a] == col[b]:
                raise duplicate(*sorted((a, b)))
    _monotone_chain(xs, ys, by_x)


def _monotone_chain(xs: Sequence[int], ys: Sequence[int], by_x: list[int]) -> list[int]:
    # Monotone chain (Andrew 1979) on indices, restricted to strict turns: the
    # hull from the leftmost point, or an error naming the offending indices.
    def build(order: list[int]) -> list[int]:
        stack: list[int] = []
        for k in order:
            kx, ky = xs[k], ys[k]
            while len(stack) >= 2:
                i, j = stack[-2], stack[-1]
                ix, iy = xs[i], ys[i]
                c = (xs[j] - ix) * (ky - iy) - (ys[j] - iy) * (kx - ix)
                if c == 0:
                    raise CollinearTriple(*sorted((i, j, k)))
                if c < 0:
                    stack.pop()
                else:
                    break
            stack.append(k)
        return stack

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


def split_by_bt_line(s: ConvexPointSet) -> SplitDescriptor:
    """Split s by the directed line from its bottom point to its top point.

    Canonical order starts at the top (index 0) and runs counterclockwise
    down the side left of the line to the bottom, then up the right side;
    no three points are collinear. So indices 1 .. bottom_index - 1 lie
    strictly left of the line, the rest past the bottom strictly right.
    The x column is read in place by two bisections. x falls from the top
    to the leftmost point and rises on to the bottom, so alpha is
    bottom_index less the points before left_index right of the bottom.
    Every point before the bottom has x at most x(top); x rises from the
    bottom to the rightmost point (the end, when the top is rightmost) and
    stays above x(top) after it. So beta is the position in that rising
    run past the last x at most x(top).
    Requires two points or more and the top strictly right of the bottom.
    """
    if s.n < 2:
        raise PreconditionViolated("split needs at least two points")
    xs, k = s.xs, s.bottom_index
    bx, tx = xs[k], xs[0]
    if tx < bx:
        raise PreconditionViolated("top point must lie to the right of the bottom point")
    return SplitDescriptor(
        m=k - 1,
        alpha=k - bisect_right(xs, -bx, 0, s.left_index, key=operator.neg),
        beta=bisect_right(xs, tx, k, s.right_index or s.n),
    )


def parse_points_text(text: str) -> list[tuple[int, int]]:
    """Parse 'x y' lines into int pairs, checked as validate() checks them.
    Blank lines and lines starting with '#' are skipped."""
    return list(zip(*_text_columns(text)))


def _text_columns(text: str) -> tuple[list[int], list[int]]:
    # The x and y columns of the 'x y' lines of text, each line checked in
    # turn: two fields, each an int literal within COORD_LIMIT. The text is
    # split into lines one block at a time, so no list of all its lines and
    # no pair per point is built.
    xs: list[int] = []
    ys: list[int] = []
    ln = 0
    for block in _blocks(text):
        for ln, line in enumerate(block.splitlines(), ln + 1):
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue
            if len(parts) != 2:
                raise PreconditionViolated(f"line {ln}: expected 'x y', got {_echo(line.strip())}")
            try:
                x, y = _int_literal(parts[0]), _int_literal(parts[1])
                if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
                    raise _out_of_range(x if abs(x) > COORD_LIMIT else y)
            except CoordinateRange as exc:
                raise CoordinateRange(f"line {ln}: {exc}") from None
            except ValueError:
                raise PreconditionViolated(f"line {ln}: coordinates must be integers") from None
            xs.append(x)
            ys.append(y)
    return xs, ys


def _blocks(text: str, size: int = 1 << 16) -> Iterator[str]:
    # text in pieces of about size characters, each but the last cut just
    # after a line feed. A line feed always ends a line, so the lines of the
    # pieces are the lines of text, in order.
    start = 0
    while start < len(text):
        stop = text.find("\n", start + size) + 1 or len(text)
        yield text[start:stop]
        start = stop


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
