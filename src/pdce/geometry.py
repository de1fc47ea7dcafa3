"""Exact geometric primitives and canonical convex point sets.

All coordinates are integers with magnitude at most COORD_LIMIT, so every
predicate in this module is computed exactly with Python integers. A point
set is accepted only when it is in strictly convex, general position:
pairwise distinct x, pairwise distinct y, and no three collinear points.
Accepted sets are stored in a canonical order (counterclockwise around the
hull, starting at the topmost point), which makes equality, hashing and all
downstream index arithmetic independent of the input order. A set is its
integer coordinate columns xs and ys, which the extreme indices, the orders,
the split and the engines read; its Points are built only when asked for.
"""

from __future__ import annotations

import enum
import json
import math
import operator
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    CollinearTriple,
    CoordinateRange,
    DuplicateX,
    DuplicateY,
    GenerationFailed,
    InternalCaseError,
    NotConvexPosition,
    PreconditionViolated,
)

COORD_LIMIT = 1 << 30


@dataclass(frozen=True)
class Point:
    x: int
    y: int

    def __post_init__(self) -> None:
        for v in (self.x, self.y):
            if type(v) is not int:
                raise PreconditionViolated(
                    f"coordinates must be plain ints, got {v!r}"
                )
            if abs(v) > COORD_LIMIT:
                raise CoordinateRange(f"coordinate {v} exceeds |{COORD_LIMIT}|")

    def __repr__(self) -> str:
        return f"({self.x}, {self.y})"


def as_point(obj) -> Point:
    """Coerce a Point, a pair of ints, or anything index-like into a Point."""
    if isinstance(obj, Point):
        return obj
    try:
        x, y = obj
        return Point(operator.index(x), operator.index(y))
    except (TypeError, ValueError):
        raise PreconditionViolated(f"cannot interpret {obj!r} as a point") from None


def _cross(a: Point, b: Point, c: Point) -> int:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the turn a->b->c: +1 left (counterclockwise), -1 right, 0 collinear."""
    v = _cross(a, b, c)
    return (v > 0) - (v < 0)


def on_segment(a: Point, b: Point, c: Point) -> bool:
    """Whether c lies on the closed segment a-b. Assumes c collinear with a, b."""
    return (
        min(a.x, b.x) <= c.x <= max(a.x, b.x)
        and min(a.y, b.y) <= c.y <= max(a.y, b.y)
    )


def segments_intersect(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Whether closed segments a-b and c-d share at least one point. Exact."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 == 0 and on_segment(a, b, c):
        return True
    if o2 == 0 and on_segment(a, b, d):
        return True
    if o3 == 0 and on_segment(c, d, a):
        return True
    if o4 == 0 and on_segment(c, d, b):
        return True
    if o1 == 0 or o2 == 0 or o3 == 0 or o4 == 0:
        return False
    return o1 != o2 and o3 != o4


@dataclass(frozen=True)
class ConvexPointSet:
    """Strictly convex general-position points in canonical hull order.

    Point k is (xs[k], ys[k]); point 0 is the topmost and the order runs
    counterclockwise. Equality and hashing go by the two columns. The
    constructor trusts its arguments, two equally long tuples of plain ints:
    outside input goes through validate(), while the symmetry operators
    build instances directly from an already valid set by index arithmetic.

    The four extreme indices are read from the columns unless the caller
    passes all four, as the symmetry operators do. points is built on first
    read, as checked Points; validate() hands over the ones it has checked.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    top_index: int = field(default=None, compare=False)
    bottom_index: int = field(default=None, compare=False)
    left_index: int = field(default=None, compare=False)
    right_index: int = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if None in (self.top_index, self.bottom_index, self.left_index, self.right_index):
            xs, ys = self.xs, self.ys
            object.__setattr__(self, "top_index", ys.index(max(ys)))
            object.__setattr__(self, "bottom_index", ys.index(min(ys)))
            object.__setattr__(self, "left_index", xs.index(min(xs)))
            object.__setattr__(self, "right_index", xs.index(max(xs)))

    @property
    def n(self) -> int:
        return len(self.xs)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(map(Point, self.xs, self.ys))

    @property
    def top(self) -> Point:
        return self.points[self.top_index]

    @property
    def bottom(self) -> Point:
        return self.points[self.bottom_index]

    @property
    def left(self) -> Point:
        return self.points[self.left_index]

    @property
    def right(self) -> Point:
        return self.points[self.right_index]

    @cached_property
    def x_order(self) -> tuple[int, ...]:
        return tuple(sorted(range(self.n), key=self.xs.__getitem__))

    @cached_property
    def y_order(self) -> tuple[int, ...]:
        return tuple(sorted(range(self.n), key=self.ys.__getitem__))

    def __repr__(self) -> str:
        inner = ", ".join(f"({x}, {y})" for x, y in zip(self.xs, self.ys))
        return f"ConvexPointSet([{inner}])"


def _from_points(pts: Sequence[Point]) -> ConvexPointSet:
    # The set of already checked Points, in canonical order; they become the
    # cache of its points property.
    s = ConvexPointSet(
        tuple(map(operator.attrgetter("x"), pts)), tuple(map(operator.attrgetter("y"), pts))
    )
    s.__dict__["points"] = tuple(pts)
    return s


def validate(raw_points: Iterable) -> ConvexPointSet:
    """Check convex general position and return the canonical point set.

    Raises DuplicateX / DuplicateY / CollinearTriple / NotConvexPosition
    with the offending indices into the *input* order, CoordinateRange for
    oversized coordinates, and PreconditionViolated for malformed input.
    """
    pts = [as_point(p) for p in raw_points]
    n = len(pts)
    if n == 0:
        raise PreconditionViolated("point set is empty")

    by_x = sorted(range(n), key=lambda i: pts[i].x)
    for a, b in zip(by_x, by_x[1:]):
        if pts[a].x == pts[b].x:
            raise DuplicateX(*sorted((a, b)))
    by_y = sorted(range(n), key=lambda i: pts[i].y)
    for a, b in zip(by_y, by_y[1:]):
        if pts[a].y == pts[b].y:
            raise DuplicateY(*sorted((a, b)))

    if n == 1:
        return _from_points(pts)
    if n == 2:
        return _from_points(pts if pts[0].y > pts[1].y else pts[::-1])

    hull = _strict_hull(pts, by_x)
    if len(hull) < n:
        members = set(hull)
        missing = min(i for i in range(n) if i not in members)
        raise NotConvexPosition(missing)

    start = max(range(n), key=lambda k: pts[hull[k]].y)
    ordered = [pts[i] for i in hull[start:] + hull[:start]]
    for k in range(n):
        a, b, c = ordered[k], ordered[(k + 1) % n], ordered[(k + 2) % n]
        if orientation(a, b, c) <= 0:
            raise InternalCaseError("hull canonicalization broke convexity")
    return _from_points(ordered)


def _strict_hull(pts: list[Point], by_x: list[int]) -> list[int]:
    # Monotone chain restricted to strict turns; a zero cross is a hard error
    # because no accepted set may contain a collinear triple.
    def build(order: list[int]) -> list[int]:
        chain: list[int] = []
        for k in order:
            while len(chain) >= 2:
                c = _cross(pts[chain[-2]], pts[chain[-1]], pts[k])
                if c == 0:
                    raise CollinearTriple(*sorted((chain[-2], chain[-1], k)))
                if c < 0:
                    chain.pop()
                else:
                    break
            chain.append(k)
        return chain

    lower = build(by_x)
    upper = build(by_x[::-1])
    return lower[:-1] + upper[:-1]


class SetTag(enum.Enum):
    LEFT_SIDED = "LeftSided"
    RIGHT_SIDED = "RightSided"
    QUARTER_INC = "QuarterIncreasing"
    QUARTER_DEC = "QuarterDecreasing"
    STRIP_CONVEX = "StripConvex"
    GENERAL_CONVEX = "GeneralConvex"


@dataclass(frozen=True)
class PointSetClass:
    tags: frozenset

    def __contains__(self, tag: SetTag) -> bool:
        return tag in self.tags

    @property
    def is_left_sided(self) -> bool:
        return SetTag.LEFT_SIDED in self.tags

    @property
    def is_right_sided(self) -> bool:
        return SetTag.RIGHT_SIDED in self.tags

    @property
    def is_strip(self) -> bool:
        return SetTag.STRIP_CONVEX in self.tags

    @property
    def is_quarter_inc(self) -> bool:
        return SetTag.QUARTER_INC in self.tags

    @property
    def is_quarter_dec(self) -> bool:
        return SetTag.QUARTER_DEC in self.tags


def _hull_adjacent_or_equal(s: ConvexPointSet, i: int, j: int) -> bool:
    return i == j or (i - j) % s.n in (1, s.n - 1)


def classify(s: ConvexPointSet) -> PointSetClass:
    """Compute every structural tag the set satisfies.

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
        if (
            s.xs[s.top_index] > s.xs[s.bottom_index]
            and _hull_adjacent_or_equal(s, s.bottom_index, s.left_index)
            and _hull_adjacent_or_equal(s, s.top_index, s.right_index)
        ):
            tags.add(SetTag.STRIP_CONVEX)
    if s.x_order == s.y_order:
        tags.add(SetTag.QUARTER_INC)
    if s.x_order == tuple(reversed(s.y_order)):
        tags.add(SetTag.QUARTER_DEC)
    return PointSetClass(frozenset(tags))


@dataclass(frozen=True)
class SplitDescriptor:
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
    Requires two points or more and the top strictly right of the bottom.
    """
    if s.n < 2:
        raise PreconditionViolated("split needs at least two points")
    xs = s.xs
    bx = xs[s.bottom_index]
    tx = xs[s.top_index]
    if tx < bx:
        raise PreconditionViolated("top point must lie to the right of the bottom point")
    return SplitDescriptor(
        m=s.bottom_index - 1,
        alpha=len([x for x in xs if x < bx]),
        beta=len([x for x in xs if x <= tx]),
    )


_MODE_ARC = {
    "general": (0.0, 2.0 * math.pi),
    "left_sided": (0.5 * math.pi, 1.5 * math.pi),
    "right_sided": (-0.5 * math.pi, 0.5 * math.pi),
    "quarter_inc": (-0.5 * math.pi, 0.0),
    "quarter_dec": (math.pi, 1.5 * math.pi),
}

_MODE_TAG = {
    "general": SetTag.GENERAL_CONVEX,
    "left_sided": SetTag.LEFT_SIDED,
    "right_sided": SetTag.RIGHT_SIDED,
    "quarter_inc": SetTag.QUARTER_INC,
    "quarter_dec": SetTag.QUARTER_DEC,
    "strip": SetTag.STRIP_CONVEX,
}

GENERATOR_MODES = tuple(sorted(_MODE_TAG))


def _spread_angles(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    # A quarter of the arc is reserved as mandatory spacing, so consecutive
    # angles differ by at least (hi-lo)/(4*(count+1)) and integer rounding on
    # the generation circle cannot create collinear triples.
    raw = [rng.expovariate(1.0) for _ in range(count + 1)]
    total = sum(raw)
    span = hi - lo
    base = span / (4.0 * (count + 1))
    free = span - base * (count + 1)
    angles = []
    acc = lo
    for g in raw[:count]:
        acc += base + free * g / total
        angles.append(acc)
    return angles


def _strip_angles(rng: random.Random, n: int) -> list[float]:
    # Bulk of the points on a shallow increasing arc; optional extra points
    # just past each end make bottom/left and top/right hull-adjacent rather
    # than coincident.
    extra_low = extra_high = False
    if n >= 4:
        extra_low = rng.random() < 0.5
        extra_high = rng.random() < 0.5
    elif n == 3:
        pick = rng.randrange(3)
        extra_low = pick == 1
        extra_high = pick == 2
    bulk = n - int(extra_low) - int(extra_high)
    angles = _spread_angles(rng, math.radians(-88.0), math.radians(-2.0), bulk)
    if extra_low:
        angles.append(rng.uniform(math.radians(-96.0), math.radians(-93.0)))
    if extra_high:
        angles.append(rng.uniform(math.radians(4.0), math.radians(8.0)))
    return angles


def generate_random_convex(n: int, seed=0, mode: str = "general") -> ConvexPointSet:
    """Deterministically generate an n-point set of the requested class.

    The same (n, seed, mode) triple always yields the same set. Points are
    rounded from a circle whose radius grows with n so that rounding never
    destroys strict convexity for practical sizes.
    """
    if mode not in _MODE_TAG:
        raise PreconditionViolated(
            f"unknown mode {mode!r}; choose one of {', '.join(GENERATOR_MODES)}"
        )
    if n < 1:
        raise PreconditionViolated("n must be at least 1")
    rng = random.Random(f"{seed}:{mode}:{n}")
    radius = min(COORD_LIMIT - 2, max(4096, 1024 * n * n))
    attempts = 64
    last = "no attempt"
    for _ in range(attempts):
        if mode == "strip":
            angles = _strip_angles(rng, n)
        else:
            lo, hi = _MODE_ARC[mode]
            angles = _spread_angles(rng, lo, hi, n)
        coords = [
            (round(radius * math.cos(a)), round(radius * math.sin(a))) for a in angles
        ]
        try:
            s = validate(coords)
        except (DuplicateX, DuplicateY, CollinearTriple, NotConvexPosition) as exc:
            last = f"{type(exc).__name__}: {exc}"
            continue
        if _MODE_TAG[mode] in classify(s).tags:
            return s
        last = f"rounded set lost the {mode} property"
    raise GenerationFailed(attempts, detail=last)


def parse_points_text(text: str) -> list[Point]:
    """Parse 'x y' lines. Blank lines and lines starting with '#' are skipped."""
    pts = []
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        parts = body.split()
        if len(parts) != 2:
            raise PreconditionViolated(f"line {ln}: expected 'x y', got {body!r}")
        try:
            pts.append(Point(int(parts[0]), int(parts[1])))
        except ValueError:
            raise PreconditionViolated(
                f"line {ln}: coordinates must be integers"
            ) from None
    return pts


def format_points_text(points: Sequence[Point]) -> str:
    return "".join(f"{p.x} {p.y}\n" for p in points)


def parse_points_json(text: str) -> list[Point]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionViolated(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "points" not in doc:
        raise PreconditionViolated('expected an object with a "points" array')
    return [as_point(entry) for entry in doc["points"]]


def format_points_json(points: Sequence[Point]) -> str:
    return json.dumps({"points": [[p.x, p.y] for p in points]})
