"""Self-tests for the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny-n run of every workload, untraced and traced, ends with a result
   line that holds every metric BENCHMARK.json names, with its unit, and
   fails no check.
2. Fault injection: a decide_pdce that flips one answer, and a
   validate_embedding that misreports one verdict, each fail the run.
3. A tracer target that no longer exists is reported absent; the run goes on.
4. In a directory with only BENCHMARK.json and the benchmark, the command
   exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
TINY_N = 40
TINY_SECONDS = "0.3"

failures: list = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_runs(spec: dict) -> None:
    for wl in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl["name"], "--seed", "3",
                 "--seconds", TINY_SECONDS, "--trace", str(trace), "--n", str(TINY_N)],
                capture_output=True, text=True, timeout=180)
            what = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{what}: prints every {kind} metric with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{what}: all {result['attempted']} ops pass their checks")


def flip_op(fn, flip, target):
    """fn, except that the first call on the target instance's own inputs is
    answered wrongly. Warm-up calls cover other instances, and the checker's
    re-decides pass new objects, so the wrong answer is a timed op's."""
    flipped = [False]

    def patched(*args):
        out = fn(*args)
        if not flipped[0] and all(a is b for a, b in zip(args, target.args)):
            flipped[0] = True
            return flip(args, out)
        return out

    return patched


def fault_injection() -> None:
    pdce = run.load_pdce()

    def wrong_answer(args, out):
        p, s = args
        return pdce.Embedding(tuple(range(s.n))) if out is None else None

    def wrong_verdict(args, report):
        if report.is_pdce:
            return dataclasses.replace(report, planar_segments=False, first_violation=("segments",))
        return pdce.ValidationReport(True, True, True, None)

    cases = (("decide-yes", "decide_pdce", wrong_answer),
             ("decide-no", "decide_pdce", wrong_answer),
             ("verify", "validate_embedding", wrong_verdict))
    generate = workloads.generate
    for workload, name, flip in cases:
        original = getattr(pdce, name)

        def generate_and_patch(*args, **kwargs):
            setup = generate(*args, **kwargs)
            # The last instance: the warm-up calls the first few only.
            setattr(pdce, name, flip_op(original, flip, setup.instances[-1]))
            return setup

        workloads.generate = generate_and_patch
        try:
            result, _ = run.run(workload, 3, float(TINY_SECONDS), False, TINY_N)
        finally:
            workloads.generate = generate
            setattr(pdce, name, original)
        check(result["failed"] == 1 and not result["correct"],
              f"{workload}: one injected wrong {name} result from a timed op fails the run "
              f"({result['failed']} of {result['attempted']} failed)")


def absent_target() -> None:
    run.load_pdce()
    layers = dict(tracer.LAYERS, **{"paths.gone": ("paths.no_such_function",)})
    t = tracer.Tracer(layers)
    t.install()
    t.uninstall()
    check(t.absent == ["paths.no_such_function"], "a deleted public name is reported absent")


def bare_directory() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "construct", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=tmp)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          f"without the sources the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    tiny_runs(bench_spec())
    fault_injection()
    absent_target()
    bare_directory()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
