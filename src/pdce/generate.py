"""Seeded convex point sets of every structural class.

generate_random_convex rounds points on a circle arc to integers: the arc
picks the class (general, left_sided, right_sided, quarter_inc,
quarter_dec), and strip sets take a shallow arc with optional extra points
past its ends. Each draw goes through validate() and, for a class other
than general, is kept only if classify() gives the class's tag. The
counterexample search draws its one-sided candidates from
_sample_one_sided, a small-coordinate sampler on the same arcs. Both
entries check their mode and count by one rule, _checked.
"""

from __future__ import annotations

# random loads on first use, in the functions that draw: import pdce pays for none.
import math
import operator
from itertools import accumulate, repeat
from typing import TYPE_CHECKING, Optional

from .errors import (
    CollinearTriple,
    DuplicateX,
    DuplicateY,
    GenerationFailed,
    NotConvexPosition,
    PdceError,
    PreconditionViolated,
)
from .geometry import COORD_LIMIT, ConvexPointSet, SetTag, classify, validate

if TYPE_CHECKING:
    import random

__all__ = ["GENERATOR_MODES", "generate_random_convex"]

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


def _checked(mode: str, count, name: str) -> int:
    # Both drawing entries' argument rule: a known mode, and a count at least 1
    # that is, as a coordinate must be, index-like and not a bool.
    if mode not in GENERATOR_MODES:  # a tuple: an unhashable mode is unknown too
        raise PreconditionViolated(
            f"unknown mode {mode!r}; choose one of {', '.join(GENERATOR_MODES)}"
        )
    if type(count) is bool or not hasattr(type(count), "__index__"):
        raise PreconditionViolated(f"{name} must be an int, not {type(count).__name__}")
    count = operator.index(count)
    if count < 1:
        raise PreconditionViolated(f"{name} must be at least 1")
    return count


def _spread_angles(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    # A quarter of the arc is reserved as mandatory spacing, so consecutive
    # angles differ by at least (hi-lo)/(4*(count+1)) and integer rounding on
    # the generation circle cannot create collinear triples.
    raw = list(map(rng.expovariate, repeat(1.0, count + 1)))
    total = sum(raw)
    span = hi - lo
    base = span / (4.0 * (count + 1))
    free = span - base * (count + 1)
    shares = map(operator.truediv, map(operator.mul, repeat(free), raw[:count]), repeat(total))
    return list(accumulate(map(operator.add, repeat(base), shares), initial=lo))[1:]


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
    import random

    n = _checked(mode, n, "n")
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
        coords = zip(
            map(round, map(operator.mul, repeat(radius), map(math.cos, angles))),
            map(round, map(operator.mul, repeat(radius), map(math.sin, angles))),
        )
        try:
            s = validate(coords)
        except (DuplicateX, DuplicateY, CollinearTriple, NotConvexPosition) as exc:
            last = f"{type(exc).__name__}: {exc}"
            continue
        # Every accepted set is GENERAL_CONVEX: only the other modes classify.
        if mode == "general" or _MODE_TAG[mode] in classify(s):
            return s
        last = f"rounded set lost the {mode} property"
    raise GenerationFailed(attempts, detail=last)


def _sample_one_sided(rng: random.Random, n: int, mode: str) -> Optional[ConvexPointSet]:
    # Small-coordinate sampler: a semicircle inside [0, 64]^2 keeps found
    # sets easy to print and to freeze in fixtures.
    lo, hi = _MODE_ARC[mode]
    for _ in range(200):
        angles = sorted(rng.uniform(lo, hi) for _ in range(n))
        coords = [
            (round(32 + 31.5 * math.cos(a)), round(32 + 31.5 * math.sin(a)))
            for a in angles
        ]
        try:
            s = validate(coords)
        except PdceError:
            continue
        if _MODE_TAG[mode] in classify(s):
            return s
    return None
