"""A frozen copy of the circle generator, for the corpora behind a pin.

The engine pins (DECIDER_CORPUS_SHA256, WITNESS_CORPUS_SHA256) and the
seeded corpora run under fixed hash seeds draw their sets from here, not
from pdce.generate_random_convex, so a change to the library generator
re-records none of them. The code is the library's generator as it stood
when it moved to pdce.generate: the same seeds give the same sets, which
test_circle_copy_matches_library checks while the two agree.
"""

import math
import operator
import random
from itertools import accumulate, repeat

from pdce import (
    COORD_LIMIT,
    CollinearTriple,
    ConvexPointSet,
    DuplicateX,
    DuplicateY,
    GenerationFailed,
    NotConvexPosition,
    PreconditionViolated,
    SetTag,
    classify,
    validate,
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
