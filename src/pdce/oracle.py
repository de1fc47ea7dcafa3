"""Exhaustive reference tools: enumeration, counting, counterexample search.

Enumeration and counting are independent of the constructive embedders
and of the dynamic-programming decider, so they serve as ground truth for
both. Enumeration walks all placements whose prefixes stay cyclically
consecutive on the hull, which are exactly the crossing-free placements;
the equivalence itself is exercised against the segment-intersection
checker in the test suite. Two tools lean on the other modules:
search_counterexample asks decide_pdce for its NO and certifies it by
brute force for n <= 20, and certificate reads each candidate's first bad
edge from the validator's verdict pass (validator._verdicts). Sets above
ENUMERATION_BOUND points (enumeration, counting, certificates) or
BRUTE_FORCE_BOUND points (brute force) raise BoundExceeded.
"""

from __future__ import annotations

# hashlib, json and importlib.resources load on first use: import pdce pays for none.
import math
import random
from typing import Iterator, Optional

from .decider import decide_pdce
from .errors import (
    BoundExceeded,
    InternalCaseError,
    NotFoundWithinBudget,
    PdceError,
    PreconditionViolated,
)
from .geometry import (
    _MODE_ARC,
    _MODE_TAG,
    ConvexPointSet,
    GENERATOR_MODES,
    classify,
    generate_random_convex,
    validate,
)
from .paths import DirPath, Embedding
from .validator import _verdicts, edge_ok, require_same_size

DEFAULT_COUNTEREXAMPLE_LABELS = "LULRDR"
ENUMERATION_BOUND = 16
BRUTE_FORCE_BOUND = 20


def _planar_assignments(n: int) -> Iterator[tuple]:
    # Start anywhere; every later vertex extends the occupied arc at its low
    # or high end. The last step has a single free position, so exactly
    # n * 2^(n-2) distinct placements exist for n >= 2.
    if n == 1:
        yield (0,)
        return
    for start in range(n):
        for mask in range(1 << (n - 2)):
            lo = hi = start
            out = [start]
            for step in range(n - 2):
                if (mask >> step) & 1:
                    hi = (hi + 1) % n
                    out.append(hi)
                else:
                    lo = (lo - 1) % n
                    out.append(lo)
            out.append((lo - 1) % n)
            yield tuple(out)


def enumerate_planar_embeddings(s: ConvexPointSet) -> list:
    """All crossing-free placements of a spanning walk, sorted."""
    if s.n > ENUMERATION_BOUND:
        raise BoundExceeded(s.n, ENUMERATION_BOUND)
    return [Embedding(t) for t in sorted(_planar_assignments(s.n))]


def brute_force_pdce(p: DirPath, s: ConvexPointSet) -> list:
    """All embeddings of the path by pruned exhaustive search, sorted.

    Prunes a branch as soon as an edge label fails, so it stays usable a
    little beyond the plain enumeration: up to BRUTE_FORCE_BOUND points.
    """
    require_same_size(p, s)
    n = s.n
    if n > BRUTE_FORCE_BOUND:
        raise BoundExceeded(n, BRUTE_FORCE_BOUND)
    labels = p.labels
    pts = tuple(zip(s.xs, s.ys))
    out = []

    def extend(k: int, lo: int, hi: int, pos: int, acc: list) -> None:
        if k == n:
            out.append(Embedding(tuple(acc)))
            return
        d = labels[k - 1]
        low = (lo - 1) % n
        high = (hi + 1) % n
        candidates = (low,) if low == high else (low, high)
        for nxt in candidates:
            if edge_ok(d, pts[pos], pts[nxt]):
                acc.append(nxt)
                if nxt == low:
                    extend(k + 1, nxt, hi, nxt, acc)
                else:
                    extend(k + 1, lo, nxt, nxt, acc)
                acc.pop()

    for start in range(n):
        if n == 1:
            out.append(Embedding((start,)))
            continue
        extend(1, start, start, start, [start])
    out.sort(key=lambda e: e.assignment)
    return out


def count_plane_spanning_paths(s: ConvexPointSet) -> int:
    """Number of crossing-free undirected spanning paths on the hull points of s.

    The value depends only on s.n, never on the coordinates; callers pass the
    set anyway so the claim can be exercised across many geometries.
    """
    n = s.n
    if n < 3:
        raise PreconditionViolated("need at least three points")
    if n > ENUMERATION_BOUND:
        raise BoundExceeded(n, ENUMERATION_BOUND)
    seen = set()
    for t in _planar_assignments(n):
        seen.add(min(t, t[::-1]))
    return len(seen)


def certificate(p: DirPath, s: ConvexPointSet) -> dict:
    """Checkable evidence for the number of embeddings of p on s.

    Lists every crossing-free candidate with the first edge that breaks its
    label, if any, and fingerprints the whole listing.
    """
    import hashlib
    import json
    require_same_size(p, s)
    candidates = enumerate_planar_embeddings(s)
    entries = []
    pdce_count = 0
    for e in candidates:
        # Enumerated candidates are well formed: only the labels need a look.
        bad = _verdicts(p.labels, s.xs, s.ys, e.assignment)[0]
        if bad is None:
            pdce_count += 1
        entries.append({"assignment": list(e.assignment), "first_bad_edge": bad})
    points = [list(pt) for pt in zip(s.xs, s.ys)]
    payload = {
        "path": p.labels,
        "points": points,
        "candidates": entries,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")
    ).hexdigest()
    return {
        "path": p.labels,
        "points": points,
        "planar_count": len(candidates),
        "pdce_count": pdce_count,
        "candidates": entries,
        "certificate_sha256": digest,
    }


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


def search_counterexample(
    path: Optional[DirPath] = None,
    mode: str = "left_sided",
    budget: int = 100_000,
    seed=0,
) -> ConvexPointSet:
    """Search point sets of the given class for one admitting no embedding.

    The sets have one point per vertex of the path, which defaults to the
    7-vertex path DEFAULT_COUNTEREXAMPLE_LABELS. Candidates are deduplicated
    by their order signature (the x-order and y-order of the canonical hull
    sequence), since existence only depends on it. A hit is certified
    twice: by the decision procedure and, for small n, by pruned exhaustive
    search. Raises NotFoundWithinBudget after the given number of sampled
    candidates, and PreconditionViolated for a budget below 1.
    """
    p = path if path is not None else DirPath(DEFAULT_COUNTEREXAMPLE_LABELS)
    n = p.n_vertices
    if mode not in GENERATOR_MODES:
        raise PreconditionViolated(f"unknown mode {mode!r}")
    if budget < 1:
        raise PreconditionViolated("budget must be at least 1")
    rng = random.Random(f"search:{seed}:{mode}:{n}:{p.labels}")
    seen = set()
    for k in range(budget):
        if mode in ("left_sided", "right_sided"):
            s = _sample_one_sided(rng, n, mode)
        else:
            s = generate_random_convex(n, seed=f"{seed}:{k}", mode=mode)
        if s is None:
            continue
        signature = (s.x_order, s.y_order)
        if signature in seen:
            continue
        seen.add(signature)
        if decide_pdce(p, s) is None:
            if s.n <= BRUTE_FORCE_BOUND and brute_force_pdce(p, s):
                raise InternalCaseError(
                    "decision procedure and exhaustive search disagree"
                )
            return s
    raise NotFoundWithinBudget(budget)


def load_counterexample() -> tuple:
    """The packaged no-embedding instance: (path, point set, frozen record)."""
    import importlib.resources
    import json
    text = (
        importlib.resources.files("pdce")
        .joinpath("data/counterexample.json")
        .read_text(encoding="ascii")
    )
    doc = json.loads(text)
    s = validate(doc["points"])
    p = DirPath(doc["path"])
    return p, s, doc
