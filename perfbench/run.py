"""pdce benchmark: one workload, one seed, closed loop with a single caller.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

The library is imported from src/ next to this directory. The timed phase
runs whole passes over the workload's inputs for --seconds of wall time; each
output is checked after its call, outside the timing, and a call of the
reference kernel (reference.py) follows every op.

The host's speed drifts, by up to 1.6x within a minute, and a raw latency
follows it. The kernel's time drifts with it, so the benchmark scales what
it times by REFERENCE_MS over the kernel's median time measured alongside:
each op by the kernel calls nearest to it, each build of the inputs by the
kernel timed just before and after it. An instance's latency
is then the median of its scaled latencies over the passes of the run.
setup_s is the median import of pdce, timed in a few fresh interpreters and
scaled by an `import numpy` timed the same way, plus the median of a few
scaled builds of the inputs, all before the first op.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a second, traced phase; the
untraced phase still runs, to give the tracing overhead, and each of the two
takes half of --seconds. The line before it is a report with the
environment, the workload's properties and the raw (unscaled) figures. Exit
code 1 means the benchmark could not run; no result line is printed then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import tracer
import workloads
from reference import REFERENCE_IMPORT_S, Reference
from workloads import SetupError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_PROBES = 7
REFERENCE_WINDOW = 9
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import {module}; print(time.perf_counter() - t0)")
WARMUP_OPS = 4
PEAK_ALLOC_OPS = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "geometry.validate.calls_per_op": "count",
    "geometry.validate.self_ms_per_op": "ms",
    "geometry.classify.self_ms_per_op": "ms",
    "geometry.split_by_bt_line.self_ms_per_op": "ms",
    "paths.set_ops.calls_per_op": "count",
    "paths.set_ops.self_ms_per_op": "ms",
    "paths.embedding_ops.self_ms_per_op": "ms",
    "embedder.plan_udr_case.self_ms_per_op": "ms",
    "embedder.execute_plan.self_ms_per_op": "ms",
    "embedder.primitives.self_ms_per_op": "ms",
    "embedder.backward_embedding.self_ms_per_op": "ms",
    "embedder.case_tags_hit": "count",
    "validator.direction.calls_per_op": "count",
    "validator.direction.self_ms_per_op": "ms",
    "validator.prefix.calls_per_op": "count",
    "validator.prefix.self_ms_per_op": "ms",
    "validator.segments.self_ms_per_op": "ms",
    "decider.dp_table.self_ms_per_op": "ms",
    "decider.witness.self_ms_per_op": "ms",
    "decider.rows_alive_frac": "ratio",
    "decider.yes_ratio": "ratio",
    "decider.peak_alloc_mib": "MiB",
    "verify.valid_share": "ratio",
    "import.pdce_s": "s",
    "geometry.generate_random_convex.ms_per_instance": "ms",
    "unattributed.self_ms_per_op": "ms",
    "trace.overhead_ratio": "ratio",
}


def load_pdce():
    """Import pdce from this checkout's src/, and from nowhere else."""
    if not (SRC / "pdce" / "__init__.py").is_file():
        raise SetupError(f"no pdce sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pdce

    if Path(pdce.__file__).resolve().parent != (SRC / "pdce").resolve():
        raise SetupError(f"imported pdce from {pdce.__file__}, not from {SRC}")
    return pdce


def import_probe_s() -> tuple[float, float, float]:
    """Time `import pdce` in fresh interpreters, each scaled by the `import
    numpy` timed in the fresh interpreter after it.

    Returns the median scaled import and the raw medians of both probes.
    """
    pdce_s, numpy_s, scaled = [], [], []
    for _ in range(IMPORT_PROBES):
        pdce_s.append(_probe(IMPORT_PROBE.format(module="pdce")))
        numpy_s.append(_probe(IMPORT_PROBE.format(module="numpy")))
        scaled.append(pdce_s[-1] * REFERENCE_IMPORT_S / numpy_s[-1])
    return statistics.median(scaled), statistics.median(pdce_s), statistics.median(numpy_s)


def _probe(code: str) -> float:
    try:
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        return float(proc.stdout)
    except (subprocess.SubprocessError, ValueError) as exc:
        raise SetupError(f"import probe failed: {exc}") from exc


def set_up(workload: str, seed: int, n: int):
    """Import pdce, time its import afresh, then build the inputs.

    setup_s is what a fresh process pays before its first op: the import of
    pdce plus one build of the inputs. A module imports once per process, so
    the import is timed in IMPORT_PROBES fresh interpreters. Its time does not
    follow the reference kernel, so each is scaled by an `import numpy` timed
    in the next fresh interpreter, which no change to pdce can move. The
    inputs are built SETUP_REPEATS times, each build scaled by the kernel
    timed just before and after it. setup_s adds the two medians. Returns
    (pdce, reference, setup, setup_s, raw figures, scaled import seconds,
    scaled ms per point set).
    """
    t0 = time.perf_counter()
    pdce = load_pdce()
    first_import_s = time.perf_counter() - t0
    import_s, raw_import_s, numpy_import_s = import_probe_s()
    ref = Reference()
    builds, raw_builds, generate_ms = [], [], []
    for _ in range(SETUP_REPEATS):
        before = ref.time_ms()
        t0 = time.perf_counter()
        setup = workloads.generate(pdce, workload, seed, n)
        build_s = time.perf_counter() - t0
        factor = ref.scale([before, ref.time_ms()])
        raw_builds.append(build_s)
        builds.append(build_s * factor)
        generate_ms.append(1e3 * setup.generate_s / setup.point_sets * factor)
    raw = {"first_import_s": first_import_s, "import_s": raw_import_s,
           "numpy_import_s": numpy_import_s, "build_s": statistics.median(raw_builds)}
    return (pdce, ref, setup, import_s + statistics.median(builds), raw, import_s,
            statistics.median(generate_ms))


def timed_phase(pdce, ref, instances, seconds: float, checker, trace=None) -> dict:
    """Whole passes over the instances for `seconds` of wall time.

    A pass is not started when the previous one says it would end past the
    deadline; the first pass always runs. One reference kernel call follows
    every op, and each op is scaled by the median of the REFERENCE_WINDOW
    kernel calls nearest to it.
    """
    timed = []  # (instance index, seconds), in call order
    ref_ms = []  # the kernel call after each op
    failed, busy = 0, 0.0
    first_error = None
    start = time.perf_counter()
    last_pass = 0.0
    while not timed or time.perf_counter() - start + last_pass <= seconds:
        pass_start = time.perf_counter()
        for idx, inst in enumerate(instances):
            fn = getattr(pdce, inst.fn)
            sid = trace.begin(tracer.OP) if trace else None
            t0 = time.perf_counter()
            try:
                out = fn(*inst.args)
            except Exception as exc:  # a raising op counts as failed; the run goes on
                out = exc
            dt = time.perf_counter() - t0
            if trace:
                trace.end(sid)
            timed.append((idx, dt))
            busy += dt
            if isinstance(out, Exception):
                failed += 1
                first_error = first_error or f"{inst.fn}: {type(out).__name__}: {out}"
            elif not checker.check(idx, inst, out):
                failed += 1
            ref_ms.append(ref.time_ms())
        last_pass = time.perf_counter() - pass_start
    if first_error:
        print(f"first op error: {first_error}", file=sys.stderr)
    scaled = [[] for _ in instances]
    half = REFERENCE_WINDOW // 2
    for j, (idx, dt) in enumerate(timed):
        scaled[idx].append(dt * ref.scale(ref_ms[max(0, j - half):j + half + 1]))
    latency = [statistics.median(lat) for lat in scaled]
    return {"ops": len(timed), "passes": len(scaled[0]), "failed": failed, "busy_s": busy,
            "latency": latency, "ops_per_s": len(latency) / sum(latency),
            "scale": ref.scale(ref_ms), "reference_ms": statistics.median(ref_ms)}


def end_to_end_metrics(phase: dict, setup_s: float) -> dict:
    latency = phase["latency"]
    return {
        "ops_per_s": phase["ops_per_s"],
        "op_ms_p50": 1e3 * statistics.median(latency),
        "op_ms_p90": 1e3 * statistics.quantiles(latency, n=10)[8],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
        "ok_ratio": (phase["ops"] - phase["failed"]) / phase["ops"],
    }


def rows_alive_frac(pdce, instances):
    """Share of DP rows whose frontier is not empty, averaged over instances."""
    fracs = []
    for inst in instances:
        p, s = inst.args
        table = pdce.dp_table(p, s)
        alive = (table.near.any(axis=1) | table.far.any(axis=1)).sum()
        fracs.append(float(alive) / s.n)
    return statistics.mean(fracs)


def peak_alloc_mib(pdce, instances) -> float:
    """Largest tracemalloc peak over a few decide_pdce calls."""
    peak = 0
    for inst in instances[:PEAK_ALLOC_OPS]:
        tracemalloc.start()
        try:
            pdce.decide_pdce(*inst.args)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def per_layer_metrics(pdce, trace, phase, untraced_rate, instances, checker, import_s,
                      generate_ms):
    """Per-layer figures of the traced phase. Times are scaled like the
    end-to-end ones: self times by the traced phase's kernel median,
    import_s and generate_ms (passed in scaled) by the set-up's."""
    ops = phase["ops"]
    ms_per_op = 1e3 * phase["scale"] / ops
    calls, self_s = trace.totals()
    m = {}
    for layer in tracer.LAYERS:
        m[f"{layer}.calls_per_op"] = calls[layer] / ops
        m[f"{layer}.self_ms_per_op"] = self_s[layer] * ms_per_op
    m["embedder.case_tags_hit"] = len(trace.case_tags)
    decide = [inst for inst in instances if inst.fn == "decide_pdce"]
    absent = list(trace.absent)
    m["decider.rows_alive_frac"] = m["decider.peak_alloc_mib"] = 0.0
    if decide:
        try:
            m["decider.rows_alive_frac"] = rows_alive_frac(pdce, decide)
        except AttributeError as exc:  # the table's layout changed or went away
            absent.append(f"decider.dp_table: {exc}")
        m["decider.peak_alloc_mib"] = peak_alloc_mib(pdce, decide)
    m["decider.yes_ratio"] = checker.yes_ratio or 0.0
    m["verify.valid_share"] = valid_share(instances)
    m["import.pdce_s"] = import_s
    m["geometry.generate_random_convex.ms_per_instance"] = generate_ms
    m["unattributed.self_ms_per_op"] = self_s[tracer.OP] * ms_per_op
    m["trace.overhead_ratio"] = untraced_rate / phase["ops_per_s"]
    return {name: m[name] for name in PER_LAYER}, absent


def valid_share(instances) -> float:
    # Every pass visits every instance once, so the instance share is the op share.
    return sum(bool(inst.valid) for inst in instances) / len(instances)


def environment(seed: int, pdce) -> dict:
    import numpy

    return {
        "seed": seed,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pdce": getattr(pdce, "__version__", "unknown"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "optimize": sys.flags.optimize,
    }


def git_revision() -> str:
    # Read .git directly: the benchmark may run in a checkout without git.
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, n: int) -> tuple[dict, dict]:
    """Measure one workload; return (result line, report)."""
    pdce, ref, setup, setup_s, raw, import_s, generate_ms = set_up(workload, seed, n)
    instances = setup.instances
    checker = workloads.Checker(pdce, workload)
    for inst in instances[:WARMUP_OPS]:
        try:
            getattr(pdce, inst.fn)(*inst.args)
        except Exception:  # the timed phase counts and reports failing ops
            pass

    # A traced run splits its time between the untraced and the traced phase,
    # so that it takes as long as an untraced one.
    phase_s = seconds / 2 if trace else seconds
    phase = timed_phase(pdce, ref, instances, phase_s, checker)
    e2e = end_to_end_metrics(phase, setup_s)
    attempted, failed = phase["ops"], phase["failed"]
    report = {
        "workload": workload,
        "n": n,
        "instances": len(instances),
        "passes": phase["passes"],
        # Unscaled figures: these follow the host's drift.
        "raw": dict(raw, mean_ops_per_s=phase["ops"] / phase["busy_s"],
                    reference_ms=phase["reference_ms"]),
        "environment": environment(seed, pdce),
    }
    if checker.yes_ratio is not None:
        report["decider.yes_ratio"] = checker.yes_ratio
    if workload == "verify":
        report["verify.valid_share"] = valid_share(instances)
    metrics, units = e2e, END_TO_END
    if trace:
        checker = workloads.Checker(pdce, workload)
        t = tracer.Tracer()
        t.install()
        try:
            traced = timed_phase(pdce, ref, instances, phase_s, checker, trace=t)
        finally:
            t.uninstall()
        metrics, report["absent"] = per_layer_metrics(
            pdce, t, traced, e2e["ops_per_s"], instances, checker, import_s, generate_ms)
        units = PER_LAYER
        attempted += traced["ops"]
        failed += traced["failed"]
        report["case_tags"] = sorted(t.case_tags)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, report


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.DEFAULT_N))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="instance size (default: the workload's own)")
    args = ap.parse_args(argv)
    if args.n is None:
        args.n = workloads.DEFAULT_N[args.workload]
    if args.n < 4 or args.seconds <= 0:
        ap.error("--n must be at least 4 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), args.n)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
