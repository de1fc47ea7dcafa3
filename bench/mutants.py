"""Mutation gauntlet: frozen single-site edits of pdce that the tests must kill.

    python3 bench/mutants.py

Standard library only; the runs need pytest and hypothesis, as tier-1 does.
Each mutant replaces one source text, which must occur exactly once in its
module, and names the test modules that must kill it. For each mutant the
script copies src/, tests/ and pyproject.toml to a temporary directory,
applies the edit there, runs `pytest -x` on those modules with a fixed
hypothesis seed, and prints one line: killed, survived or equivalent.

An equivalent mutant changes no observable behaviour, so no test can kill
it; it is listed with the reason. Those here are reachable only on tied
coordinates, which a validated set never has. The script exits 1 when a
mutant not listed as equivalent survives, when one listed as equivalent is
killed (its reason is then wrong), or when an edit no longer matches its
source exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    module: str  # under src/pdce/
    old: str
    new: str
    tests: tuple[str, ...]  # under tests/
    equivalent: Optional[str] = None  # why no test can kill it


MUTANTS = (
    # decider: the row loop, its comparison state and the witness walk.
    Mutant("rows-near-reads-complement", "decider.py",
           "near_t = nn_t | (far >> 1 | top if far & 1 else far >> 1) & nc",
           "near_t = nn_t | (far >> 1 | top if far & 1 else far >> 1) & c",
           ("test_decider.py",)),
    Mutant("rows-far-up-shift", "decider.py",
           "far_t = fn_t | far & up2 >> (t - 1)", "far_t = fn_t | far & up2 >> t",
           ("test_decider.py",)),
    Mutant("comparison-run-one-long", "decider.py",
           'run = (b"\\1" * ((hi - lo) % n))', 'run = (b"\\1" * ((hi - lo + 1) % n))',
           ("test_decider.py",)),
    Mutant("walk-starts-on-highest-anchor", "decider.py",
           "j, at_far = (near & -near).bit_length() - 1, False",
           "j, at_far = near.bit_length() - 1, False",
           ("test_decider.py",)),
    Mutant("walk-near-reads-far-choice", "decider.py",
           "at_far = not nn[r] >> j & 1", "at_far = not fn[r] >> j & 1",
           ("test_decider.py",)),
    Mutant("window-one-short", "decider.py",
           "width = stop - start + 1 if", "width = stop - start if",
           ("test_decider.py",)),
    # validator: the verdict pass, the prefix scan, the index rule and the sweep.
    Mutant("verdict-up-tie", "validator.py",
           "if ys[j] <= ys[i] and bad_edge is None:", "if ys[j] < ys[i] and bad_edge is None:",
           ("test_validator.py",),
           "ys[j] == ys[i] only for j == i: a validated set has distinct y, and "
           "every caller refuses a repeated index before it reads the verdict"),
    Mutant("verdict-top-end-from-previous", "validator.py",
           "above = nxt[j]", "above = nxt[i]",
           ("test_validator.py",)),
    Mutant("prefix-low-end-steps-up", "validator.py",
           "if idx == prv[lo]:", "if idx == nxt[lo]:",
           ("test_validator.py",)),
    Mutant("index-rule-admits-n", "validator.py",
           "if not 0 <= idx < n:", "if not 0 <= idx <= n:",
           ("test_validator.py",)),
    Mutant("sweep-wide-adjacency-skip", "validator.py",
           "if -1 <= i - j <= 1:", "if -2 <= i - j <= 2:",
           ("test_validator.py",)),
    Mutant("sweep-crossing-needs-one-side", "validator.py",
           "if (a1 > 0) != (a2 > 0) and (b1 > 0) != (b2 > 0):",
           "if (a1 > 0) != (a2 > 0) or (b1 > 0) != (b2 > 0):",
           ("test_validator.py",)),
    # embedder: the walk, the strip guard, the planner and the frame choice.
    Mutant("walk-end-tie", "embedder.py",
           "if (col[ring[hi]] > col[ring[lo]]) == up:",
           "if (col[ring[hi]] >= col[ring[lo]]) == up:",
           ("test_embedder.py",),
           "inside the loop the free arc holds two points or more, and a "
           "validated set has distinct x and distinct y, so its ends never tie"),
    Mutant("walk-turns-to-opposite-extreme", "embedder.py",
           "k = _extreme(max if up else min, col, ring)",
           "k = _extreme(min if up else max, col, ring)",
           ("test_embedder.py",)),
    Mutant("strip-guard-reads-last-vertex", "embedder.py",
           "if out[0] not in ends:", "if out[-1] not in ends:",
           ("test_embedder.py",)),
    Mutant("low-cut-strict", "embedder.py",
           "low_cut, high_cut = i <= alpha, j >= beta",
           "low_cut, high_cut = i < alpha, j >= beta",
           ("test_embedder.py",)),
    Mutant("between-sides-swapped", "embedder.py",
           'reverse=side == "right"', 'reverse=side == "left"',
           ("test_embedder.py",)),
    Mutant("frame-mirror-test-flipped", "embedder.py",
           "s.xs[s.top_index] < s.xs[s.bottom_index]",
           "s.xs[s.top_index] > s.xs[s.bottom_index]",
           ("test_embedder.py",)),
    Mutant("frame-mirror-flips-all-labels", "embedder.py",
           "labels = labels.translate(_MIRROR_LABEL)", "labels = labels.translate(_REVERSE_FLIP)",
           ("test_embedder.py",)),
    Mutant("frame-reversal-keeps-order", "embedder.py",
           "labels = labels[::-1].translate(_REVERSE_FLIP)",
           "labels = labels.translate(_REVERSE_FLIP)",
           ("test_embedder.py",)),
    # embedder: the entry rules of the U/D/R and U/R constructions.
    Mutant("entry-labels-admit-l", "embedder.py",
           "if not p.directions_used().issubset(alphabet):",
           'if not p.directions_used().issubset(alphabet + "L"):',
           ("test_embedder.py",)),
    Mutant("entry-class-check-skipped", "embedder.py",
           "if tag is not None and tag not in classify(s):",
           "if tag is not None and SetTag.GENERAL_CONVEX not in classify(s):",
           ("test_embedder.py",)),
    Mutant("udr-one-point-any-path", "embedder.py",
           "if s.n == p.n_vertices == 1:", "if s.n == 1:",
           ("test_embedder.py",)),
    # geometry: the bottom-top split's two bisections, classify, validate.
    Mutant("split-alpha-without-key", "geometry.py",
           "bisect_right(xs, -bx, 0, s.left_index, key=operator.neg)",
           "bisect_right(xs, -bx, 0, s.left_index)",
           ("test_geometry.py",)),
    Mutant("split-beta-without-wrap", "geometry.py",
           "bisect_right(xs, tx, k, s.right_index or s.n)",
           "bisect_right(xs, tx, k, s.right_index)",
           ("test_geometry.py",)),
    Mutant("classify-right-sided-at-2", "geometry.py",
           "if s.bottom_index == 1:", "if s.bottom_index == 2:",
           ("test_geometry.py",)),
    Mutant("canonical-start-at-bottom", "geometry.py",
           "start = ring.index(ys.index(max(ys)))", "start = ring.index(ys.index(min(ys)))",
           ("test_geometry.py",)),
    Mutant("orientation-collinear-is-left", "geometry.py",
           "return (v > 0) - (v < 0)", "return (v >= 0) - (v < 0)",
           ("test_geometry.py",)),
    # geometry: the input door's rules, each at its one site.
    Mutant("door-three-fields-read-as-two", "geometry.py",
           "if len(parts) != 2:", "if len(parts) < 2:",
           ("test_geometry.py",)),
    Mutant("door-range-one-past-limit", "geometry.py",
           "if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:",
           "if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT + 1:",
           ("test_geometry.py",)),
    Mutant("door-one-y-tie-passes", "geometry.py",
           "if len(set(xs)) < n or len(set(ys)) < n:",
           "if len(set(xs)) < n or len(set(ys)) < n - 1:",
           ("test_geometry.py",)),
    Mutant("door-turn-admits-straight", "geometry.py",
           "if not all(map(operator.gt, map(operator.mul, ex, ny),",
           "if not all(map(operator.ge, map(operator.mul, ex, ny),",
           ("test_geometry.py",)),
    Mutant("reader-keeps-comments", "geometry.py",
           'if body and body[0] != "#":', "if body:",
           ("test_geometry.py",)),
    Mutant("door-line-count-restarts-per-block", "geometry.py",
           "enumerate(text[start:stop].splitlines(), ln + 1)",
           "enumerate(text[start:stop].splitlines(), 1)",
           ("test_geometry.py",)),
    # paths: the symmetry operators' index arithmetic and label tables.
    Mutant("rotate-left-index-sign", "paths.py",
           "left_index=-r % n,", "left_index=r % n,",
           ("test_paths.py",)),
    Mutant("mirror-right-index-unnegated", "paths.py",
           "right_index=-s.left_index % n,", "right_index=s.left_index,",
           ("test_paths.py",)),
    Mutant("transpose-right-index", "paths.py",
           "right_index=r,", "right_index=(r + 1) % n,",
           ("test_paths.py",)),
    Mutant("rotate-labels-clockwise", "paths.py",
           '_ROTATE_LABEL = str.maketrans("ULDR", "LDRU")',
           '_ROTATE_LABEL = str.maketrans("ULDR", "RULD")',
           ("test_paths.py",)),
    # cli: the four-label hint.
    Mutant("cli-hint-catches-wrong-error", "cli.py",
           "except PreconditionViolated:", "except InternalCaseError:",
           ("test_cli.py",)),
    # generate: the circle draw and the count rule.
    Mutant("spread-base-halved", "generate.py",
           "base = span / (4.0 * (count + 1))", "base = span / (2.0 * (count + 1))",
           ("test_geometry.py",)),
    Mutant("seed-string-reordered", "generate.py",
           'rng = random.Random(f"{seed}:{mode}:{n}")', 'rng = random.Random(f"{seed}:{n}:{mode}")',
           ("test_geometry.py",)),
    Mutant("count-zero-admitted", "generate.py",
           "if count < 1:", "if count < 0:",
           ("test_cli.py",)),
)


def problems() -> list[str]:
    """What keeps the list from applying to this tree: an edit whose source
    text does not occur exactly once, or a test module that is gone."""
    out = []
    for m in MUTANTS:
        count = (ROOT / "src" / "pdce" / m.module).read_text().count(m.old)
        if count != 1:
            out.append(f"{m.name}: {m.old!r} occurs {count} times in {m.module}")
        out += [f"{m.name}: no tests/{t}" for t in m.tests if not (ROOT / "tests" / t).is_file()]
    return out


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run(m: Mutant) -> tuple[str, float]:
    # ("killed" or "survived", seconds) of pytest -x on a mutated copy.
    with tempfile.TemporaryDirectory(prefix="pdce-mutant-") as work:
        dest = Path(work)
        _copy(dest)
        path = dest / "src" / "pdce" / m.module
        path.write_text(path.read_text().replace(m.old, m.new))
        env = {**os.environ, "PYTHONPATH": str(dest / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *(f"tests/{t}" for t in m.tests)]
        t0 = time.perf_counter()
        try:
            code = subprocess.run(argv, cwd=dest, env=env, capture_output=True,
                                  timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return "killed", time.perf_counter() - t0  # a hang is caught too
        if code not in (0, 1, 2):  # 2: an error at collection, such as an import
            raise RuntimeError(f"{m.name}: pytest exited {code}")
        return ("survived" if code == 0 else "killed"), time.perf_counter() - t0


def main() -> int:
    bad = problems()
    for line in bad:
        print(f"stale: {line}")
    if bad:
        return 1
    failed = False
    t0 = time.perf_counter()
    for m in MUTANTS:
        outcome, seconds = run(m)
        wrong = (outcome == "survived") != bool(m.equivalent)
        failed |= wrong
        label = "equivalent" if m.equivalent and outcome == "survived" else outcome
        note = f"  ({m.equivalent})" if m.equivalent else ""
        print(f"{'FAIL' if wrong else 'ok  '} {label:10} {seconds:6.1f} s  "
              f"{m.module}: {m.name}{note}", flush=True)
    to_kill = sum(not m.equivalent for m in MUTANTS)
    print(f"{len(MUTANTS)} mutants, {to_kill} to kill, {len(MUTANTS) - to_kill} equivalent, "
          f"{time.perf_counter() - t0:.0f} s: {'FAILED' if failed else 'passed'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
