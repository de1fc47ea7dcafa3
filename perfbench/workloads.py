"""The four benchmark workloads: seeded inputs, the call under test, and its check.

Each workload builds a fixed list of instances from the seed. A pass calls the
library once per instance, in list order, so every pass carries the same mix
of set classes and label subsets. The output check runs after each call and
outside its timing. It uses the independent checker in this file, not the
library's validator, so a validator bug cannot hide an embedder or decider bug.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

DEFAULT_N = {"construct": 1000, "decide-yes": 1000, "decide-no": 1000, "verify": 300}

# (generator mode, labels the path draws from). Quarter-convex sets take all
# four labels through embed_quarter_convex; the others take three through
# embed_three_directional. Together they reach every reduction the
# constructive embedder has.
CONSTRUCT_CASES = (
    ("general", "UDR"),
    ("general", "UDL"),
    ("general", "ULR"),
    ("general", "DLR"),
    ("left_sided", "UDR"),
    ("right_sided", "UDR"),
    ("strip", "UR"),
    ("quarter_inc", "UDLR"),
    ("quarter_dec", "UDLR"),
)
THREE_LABEL_SUBSETS = ("UDR", "UDL", "ULR", "DLR")

# Instances per workload, chosen so that a pass takes one to three seconds
# and the pass cost varies little from seed to seed. Construct costs are
# bimodal within the general set class: whether the top point lies left or
# right of the bottom one (for U/D/R and U/D/L paths), or the right point
# above or below the left one (for U/L/R and D/L/R paths, which rotate the
# set first), decides whether a mirror round trip runs. So every second
# general set of a case is the mirror image of the one before it, which
# fixes the mix of the two at one half for every seed; left to chance, the
# share of slow U/L/R and D/L/R instances moved op_ms_p90 by 0.14 of its
# median from seed to seed.
INSTANCES = {"construct": 72, "decide-yes": 12, "decide-no": 12, "verify": 48}


@dataclass(frozen=True)
class Instance:
    fn: str  # name of the pdce function the op calls
    args: tuple
    valid: Optional[bool] = None  # verify: verdict recorded at setup


@dataclass
class Setup:
    instances: list
    point_sets: int
    generate_s: float  # time spent inside generate_random_convex


class SetupError(RuntimeError):
    """The benchmark cannot run: sources missing or inputs not constructible."""


def is_pdce(labels: str, points, assignment) -> bool:
    """Independent check: a permutation, every edge strictly along its label,
    and every prefix on a cyclically consecutive arc of hull positions (the
    crossing-free walks on a convex set)."""
    n = len(points)
    a = tuple(assignment)
    if len(a) != n or any(type(i) is not int for i in a) or sorted(a) != list(range(n)):
        return False
    for k, label in enumerate(labels):
        p, q = points[a[k]], points[a[k + 1]]
        if label == "U":
            ok = q.y > p.y
        elif label == "D":
            ok = q.y < p.y
        elif label == "L":
            ok = q.x < p.x
        else:
            ok = q.x > p.x
        if not ok:
            return False
    lo = hi = a[0]
    for idx in a[1:]:
        if idx == (lo - 1) % n:
            lo = idx
        elif idx == (hi + 1) % n:
            hi = idx
        else:
            return False
    return True


def _labels(rng: random.Random, alphabet: str, n: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(n - 1))


class _Generator:
    def __init__(self, pdce, seed: int, workload: str, n: int):
        self.pdce = pdce
        self.rng = random.Random(f"{workload}:{seed}")
        self.n = n
        self.point_sets = 0
        self.generate_s = 0.0

    def point_set(self, mode: str):
        t0 = time.perf_counter()
        s = self.pdce.generate_random_convex(self.n, seed=self.rng.randrange(1 << 31), mode=mode)
        self.generate_s += time.perf_counter() - t0
        self.point_sets += 1
        return s

    def path(self, alphabet: str):
        return self.pdce.DirPath(_labels(self.rng, alphabet, self.n))


def generate(pdce, workload: str, seed: int, n: int) -> Setup:
    g = _Generator(pdce, seed, workload, n)
    count = INSTANCES[workload]
    out = []
    if workload == "construct":
        cases = len(CONSTRUCT_CASES)
        for k in range(count):
            mode, alphabet = CONSTRUCT_CASES[k % cases]
            fn = "embed_quarter_convex" if len(alphabet) == 4 else "embed_three_directional"
            if mode == "general" and k // cases % 2:
                s = _mirrored(pdce, out[k - cases].args[1])
            else:
                s = g.point_set(mode)
            out.append(Instance(fn, (g.path(alphabet), s)))
    elif workload == "decide-yes":
        for k in range(count):
            alphabet = THREE_LABEL_SUBSETS[k % len(THREE_LABEL_SUBSETS)]
            out.append(Instance("decide_pdce", (g.path(alphabet), g.point_set("general"))))
    elif workload == "decide-no":
        for _ in range(count):
            out.append(Instance("decide_pdce", (g.path("UDLR"), g.point_set("general"))))
    elif workload == "verify":
        # Each instance pair shares a path and a set: the embedder's valid
        # embedding, then the same embedding with two entries swapped.
        for k in range(count // 2):
            p = g.path(THREE_LABEL_SUBSETS[k % len(THREE_LABEL_SUBSETS)])
            s = g.point_set("general")
            e = pdce.embed_three_directional(p, s)
            if not is_pdce(p.labels, s.points, e.assignment):
                raise SetupError(f"verify pair {k}: embed_three_directional returned "
                                 "an invalid embedding")
            bad = _tamper(pdce, g.rng, p, s, e, k, count // 2)
            out.append(Instance("validate_embedding", (p, s, e), valid=True))
            out.append(Instance("validate_embedding", (p, s, bad), valid=False))
    else:
        raise SetupError(f"unknown workload {workload!r}")
    return Setup(out, g.point_sets, g.generate_s)


def _mirrored(pdce, s):
    """The set reflected in the y axis: still a general convex set, with the
    top/bottom x order and the left/right y order both flipped."""
    return pdce.validate([(-pt.x, pt.y) for pt in s.points])


def _tamper(pdce, rng: random.Random, p, s, e, stratum: int, strata: int):
    """Swap two random entries, the first drawn from its own stratum of the path.

    Edges before the first swapped vertex still form a crossing-free prefix,
    so the segment scan stops near that vertex. Stratifying it gives every
    seed the same spread of scan depths. A swap that leaves the embedding
    valid, which is rare, is drawn again.
    """
    n = len(e.assignment)
    for _ in range(100):
        a = list(e.assignment)
        i = min(n - 2, int((stratum + rng.random()) * (n - 1) / strata))
        j = rng.randrange(i + 1, n)
        a[i], a[j] = a[j], a[i]
        if not is_pdce(p.labels, s.points, a):
            return pdce.Embedding(tuple(a))
    raise SetupError("could not tamper an embedding into an invalid one")


class Checker:
    """Judges each op's output; also counts the answers a workload reports."""

    def __init__(self, pdce, workload: str):
        self.pdce = pdce
        self.decided = 0
        self.yes = 0
        self._no_confirmed: dict[int, bool] = {}
        self.check: Callable[[int, Instance, object], bool] = {
            "construct": self._construct,
            "decide-yes": self._decide_yes,
            "decide-no": self._decide_no,
            "verify": self._verify,
        }[workload]

    @property
    def yes_ratio(self) -> Optional[float]:
        return self.yes / self.decided if self.decided else None

    def _embedding_ok(self, inst: Instance, out) -> bool:
        p, s = inst.args[0], inst.args[1]
        return isinstance(out, self.pdce.Embedding) and is_pdce(p.labels, s.points, out.assignment)

    def _construct(self, idx: int, inst: Instance, out) -> bool:
        return self._embedding_ok(inst, out)

    def _decide_yes(self, idx: int, inst: Instance, out) -> bool:
        # A path with at most three labels always has a PDCE, so NO is wrong.
        self.decided += 1
        if out is None:
            return False
        self.yes += 1
        return self._embedding_ok(inst, out)

    def _decide_no(self, idx: int, inst: Instance, out) -> bool:
        self.decided += 1
        if out is not None:
            self.yes += 1
            return self._embedding_ok(inst, out)
        # A NO must survive the symmetry operators: no PDCE of the reversed
        # path on the same set, none of the mirrored path on the mirrored set.
        # The answer for an instance never changes, so confirm it once.
        if idx not in self._no_confirmed:
            pd = self.pdce
            p, s = inst.args
            self._no_confirmed[idx] = (
                pd.decide_pdce(pd.reverse_path(p), s) is None
                and pd.decide_pdce(pd.mirror_path(p), pd.mirror_set(s)) is None
            )
        return self._no_confirmed[idx]

    def _verify(self, idx: int, inst: Instance, out) -> bool:
        if not isinstance(out, self.pdce.ValidationReport):
            return False
        return out.planar_segments == out.planar_prefix and out.is_pdce == inst.valid
