"""Size sweep: wall time and peak RSS of the library and the CLI at growing n.

    python3 bench/sweep.py --out BENCH.json
    python3 bench/sweep.py --src change=src --src parent=OTHER/src --sizes 100,1000 --out BENCH.json

Standard library only. Each --src names a source tree to import pdce from
(a directory holding pdce/), under a label; the default is this checkout's
src/ as "change". With several trees the sweep alternates them figure by
figure, so a drifting host moves all of them alike. Every figure runs in a
fresh child process, --repeat times: the file keeps the best wall time and
the largest peak RSS of those runs. Every child runs under a small stub
(_STUB) that reports the child's own peak RSS at exit, VmHWM from
/proc/self/status. A child's ru_maxrss (os.wait4) would also count the
pages of this process, which it holds from the fork until its exec, so it
is only the fallback where /proc is missing; the environment block says
which one the file holds.

- Library figures time one call inside the child, after its inputs are
  read: parse_points_text, validate, embed_three_directional,
  validate_embedding, and decide_pdce on a YES (a random U/D/R path) and a
  NO (a random U/D/L/R path). Each decide runs on a set no decide has seen.
  The load figure times the input door as one step instead: reading the
  points file, parse_points_text and validate, the work `pdce decide` and
  every other subcommand does before its engine runs; its peak RSS is that
  of the door alone. The child uses only pdce's public API.
- CLI figures time a whole `python -m pdce` process, which the stub runs
  as `-m` does (runpy): gen, embed, decide on the same two paths, verify
  and render.
- Start-up probes time `python -S -c pass`, `python -c pass` and, per tree,
  `python -c "import pdce.cli"`, so the CLI figures can be read net of them.
- A fixed pure-Python kernel, which imports neither numpy nor pdce, is timed
  in this process before every figure, as a reference for the host's speed.

Every tree reads the same inputs: the points of `pdce gen --n N --seed
SEED` (general mode) from the first tree, paths drawn from SEED, and the first
tree's `pdce embed` answer for verify and render. Bytecode is whatever each
tree holds: run `python -m compileall TREE` before the sweep to time cached
bytecode, and the environment block says which it was.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.util import cache_from_source
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (100, 1000, 10_000, 30_000)
SEED = 1
LIBRARY = (
    "load", "parse_points_text", "validate", "embed_three_directional", "validate_embedding",
    "decide_yes", "decide_no",
)
CLI = ("gen", "embed", "decide_yes", "decide_no", "verify", "render")
STATUS = Path("/proc/self/status")

# The stub every child runs under: `python [-S] -c _STUB -m MODULE ARGS` runs
# the module as `python -m` does, `-c CODE ARGS` runs the code as `python -c`
# does, and `FILE ARGS` runs the script. At exit, whatever the exit code, it
# writes the child's VmHWM in KiB (empty without /proc) as the last line of
# stderr, after _MARK. Of its own it imports only runpy, which `python -m`
# loads too, and only to run a module or a script.
_MARK = "pdce-sweep VmHWM kB: "
_STUB = f"""\
import sys
args = sys.argv
try:
    if args[1] == "-m":
        import runpy
        del args[:2]
        runpy.run_module(args[0], run_name="__main__", alter_sys=True)
    elif args[1] == "-c":
        code = args.pop(2)
        del args[1]
        exec(code, {{"__name__": "__main__"}})
    else:
        import runpy
        del args[0]
        runpy.run_path(args[0], run_name="__main__")
finally:
    try:
        with open({str(STATUS)!r}) as status:
            peak = [line.split()[1] for line in status if line.startswith("VmHWM:")][0]
    except (OSError, IndexError):
        peak = ""
    sys.stderr.write("\\n{_MARK}" + peak + "\\n")
"""


def kernel() -> int:
    # The host reference: integer cross products, tuple and dict work and a
    # sort, on fixed inputs from a linear congruential generator.
    v, pts = 20140818, []
    for _ in range(600):
        v = (v * 1103515245 + 12345) % (1 << 31)
        pts.append((v % 100_003, v // 100_003))
    acc = 0
    for i in range(len(pts) - 2):
        (ax, ay), (bx, by) = pts[i], pts[i + 1]
        for cx, cy in pts[i + 2 : i + 30]:
            acc += (bx - ax) * (cy - ay) > (by - ay) * (cx - ax)
    seen = {}
    for i in range(20_000):
        seen[i * 7 % 1013] = (i, i ^ 0x55)
    return acc + len(sorted(seen.values(), key=lambda t: t[1] - t[0]))


def kernel_ms() -> float:
    t0 = time.perf_counter()
    kernel()
    return 1e3 * (time.perf_counter() - t0)


# --- child side: one library call ------------------------------------------------


def child(op: str, tree: str, work: str, n: int) -> dict:
    sys.path.insert(0, tree)
    import pdce

    if Path(pdce.__file__).resolve().parent != (Path(tree) / "pdce").resolve():
        raise SystemExit(f"imported pdce from {pdce.__file__}, not from {tree}")
    folder = Path(work)
    if op == "load":
        t0 = time.perf_counter()
        pdce.validate(pdce.parse_points_text((folder / f"points_{n}.txt").read_text()))
        return {"wall_s": time.perf_counter() - t0}
    text = (folder / f"points_{n}.txt").read_text()
    if op == "parse_points_text":
        t0 = time.perf_counter()
        pdce.parse_points_text(text)
        return {"wall_s": time.perf_counter() - t0}
    pairs = pdce.parse_points_text(text)
    if op == "validate":
        t0 = time.perf_counter()
        pdce.validate(pairs)
        return {"wall_s": time.perf_counter() - t0}
    s = pdce.validate(pairs)
    kind = op[len("decide_"):] if op.startswith("decide_") else "yes"
    p = pdce.DirPath((folder / f"path_{kind}_{n}.txt").read_text().strip())
    if op == "embed_three_directional":
        t0 = time.perf_counter()
        pdce.embed_three_directional(p, s)
        return {"wall_s": time.perf_counter() - t0}
    if op == "validate_embedding":
        lines = (folder / f"embedding_{n}.txt").read_text().split()
        e = pdce.Embedding(int(v) for v in lines)
        t0 = time.perf_counter()
        ok = pdce.validate_embedding(p, s, e).is_pdce
        return {"wall_s": time.perf_counter() - t0, "is_pdce": ok}
    t0 = time.perf_counter()
    answer = pdce.decide_pdce(p, s)
    return {"wall_s": time.perf_counter() - t0, "answer": "NO" if answer is None else "YES"}


# --- parent side ------------------------------------------------------------------


def _spawn(argv: list, env: dict, stdout) -> tuple[float, float, str, int]:
    # (wall s, peak RSS MiB, stdout text if piped, exit code) of one child,
    # run under _STUB with argv as the stub's arguments, after "-S" for
    # `python -S`. The peak RSS is the child's own VmHWM, or its ru_maxrss
    # without /proc.
    flags, args = (["-S"], argv[1:]) if argv[0] == "-S" else ([], argv)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *flags, "-c", _STUB, *args], env=env,
                            stdout=stdout, stderr=subprocess.PIPE)
    text = proc.stdout.read().decode() if stdout is subprocess.PIPE else ""
    err = proc.stderr.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    last = err.rstrip("\n").rpartition("\n")[2]
    if proc.returncode not in (0, 1) or not last.startswith(_MARK):
        raise RuntimeError(f"{argv} exited {proc.returncode}: {err.strip()[-500:]}")
    kib = int(last[len(_MARK):] or usage.ru_maxrss)
    return wall, kib / 1024, text, proc.returncode


def _env(tree: str | None) -> dict:
    env = dict(os.environ)
    if tree is not None:
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (tree, env.get("PYTHONPATH"))))
    return env


def _best(runs: list) -> dict:
    # The best wall time and the largest peak RSS of the runs; other keys
    # (answer, exit code) from the run with the best time.
    best = dict(min(runs, key=lambda r: r["wall_s"]))
    best["maxrss_mib"] = max(r["maxrss_mib"] for r in runs)
    best["wall_s"] = round(best["wall_s"], 6)
    best["maxrss_mib"] = round(best["maxrss_mib"], 2)
    return best


class Sweep:
    def __init__(self, trees: dict, work: Path, repeat: int):
        self.trees, self.work, self.repeat = trees, work, repeat
        self.reference_ms: list[float] = []

    def _time(self, make) -> dict:
        # repeat runs of one figure, the trees taking turns to go first, the
        # kernel before each run.
        runs = {label: [] for label in self.trees}
        order = list(self.trees.items())
        for k in range(self.repeat):
            for label, tree in order[:: -1 if k % 2 else 1]:
                self.reference_ms.append(kernel_ms())
                runs[label].append(make(tree))
        return {label: _best(r) for label, r in runs.items()}

    def _library(self, op: str, n: int) -> dict:
        def make(tree):
            argv = [__file__, "--child", op, "--tree", tree,
                    "--work", str(self.work), "--n", str(n)]
            _, rss, text, code = _spawn(argv, _env(None), subprocess.PIPE)
            if code:
                raise RuntimeError(f"library child {op} at n = {n} exited {code}")
            return dict(json.loads(text), maxrss_mib=rss)
        return self._time(make)

    def _cli_argv(self, name: str, n: int) -> list:
        points = self.work / f"points_{n}.txt"
        embedding = self.work / f"embedding_{n}.txt"
        kind = name[len("decide_"):] if name.startswith("decide_") else "yes"
        path = (self.work / f"path_{kind}_{n}.txt").read_text().strip()
        args = {
            "gen": ["gen", "--n", str(n), "--seed", str(SEED)],
            "embed": ["embed", "--points", str(points), "--path", path],
            "verify": ["verify", "--points", str(points), "--path", path,
                       "--embedding", str(embedding)],
            "render": ["render", "--points", str(points), "--path", path,
                       "--embedding", str(embedding)],
        }.get(name, ["decide", "--points", str(points), "--path", path])
        return ["-m", "pdce", *args]

    def _cli(self, name: str, n: int) -> dict:
        argv = self._cli_argv(name, n)

        def make(tree):
            wall, rss, _, code = _spawn(argv, _env(tree), subprocess.DEVNULL)
            return {"wall_s": wall, "maxrss_mib": rss, "exit": code}
        return self._time(make)

    def _paths(self, n: int) -> None:
        rng = random.Random(f"sweep:{SEED}:{n}")
        for kind, alphabet in (("yes", "URD"), ("no", "URDL")):
            labels = "".join(rng.choice(alphabet) for _ in range(n - 1))
            (self.work / f"path_{kind}_{n}.txt").write_text(labels + "\n")

    def size(self, n: int) -> tuple[dict, dict]:
        # The inputs every tree reads: the paths, then the first tree's gen
        # and embed answers, each command's own output.
        self._paths(n)
        first = next(iter(self.trees.values()))
        for name, target in (("gen", "points"), ("embed", "embedding")):
            with (self.work / f"{target}_{n}.txt").open("w") as out:
                _spawn(self._cli_argv(name, n), _env(first), out)
        cli = {name: self._cli(name, n) for name in CLI}
        library = {op: self._library(op, n) for op in LIBRARY}
        return library, cli

    def startup(self) -> dict:
        probes = {"python -S -c pass": (["-S", "-c", "pass"], None),
                  "python -c pass": (["-c", "pass"], None)}
        for label, tree in self.trees.items():
            probes[f"python -c 'import pdce.cli' [{label}]"] = (["-c", "import pdce.cli"], tree)
        out = {}
        for name, (argv, tree) in probes.items():
            runs = []
            for _ in range(self.repeat):
                wall, rss, _, _ = _spawn(argv, _env(tree), subprocess.DEVNULL)
                runs.append({"wall_s": wall, "maxrss_mib": rss})
            out[name] = _best(runs)
        return out


def _git(path: Path, *args: str) -> str | None:
    # git's output in the repository holding path, or None outside one.
    try:
        proc = subprocess.run(["git", "-C", str(path), *args],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _tree(tree: str) -> dict:
    # The revision of the repository holding the tree, whether the tree
    # differs from it (None outside a repository), and whether its bytecode
    # is cached for this interpreter.
    revision = _git(Path(tree), "rev-parse", "HEAD")
    changes = _git(Path(tree), "status", "--porcelain", "--", ".")
    return {
        "git_revision": revision,
        "modified": None if revision is None else bool(changes),
        "bytecode_cached": Path(cache_from_source(str(Path(tree) / "pdce" / "cli.py"))).is_file(),
    }


def environment(trees: dict) -> dict:
    return {
        "git_revision": _git(ROOT, "rev-parse", "HEAD"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "peak_rss": "VmHWM" if STATUS.is_file() else "ru_maxrss",
        "trees": {label: _tree(tree) for label, tree in trees.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", metavar="LABEL=DIR",
                    help="a source tree to time, under a label (repeatable; default change=src)")
    ap.add_argument("--sizes", default=",".join(map(str, SIZES)), help="comma-separated n values")
    ap.add_argument("--repeat", type=int, default=5, help="runs per figure (best is kept)")
    ap.add_argument("--out", metavar="FILE", help="the JSON file to write")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--tree", help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    ap.add_argument("--n", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.tree, args.work, args.n)))
        return 0
    if not args.out:
        ap.error("--out is required")
    trees = {}
    for item in args.src or [f"change={ROOT / 'src'}"]:
        label, sep, tree = item.partition("=")
        if not sep or not (Path(tree) / "pdce" / "__init__.py").is_file():
            ap.error(f"--src {item!r}: expected LABEL=DIR with DIR/pdce/__init__.py")
        trees[label] = str(Path(tree).resolve())
    sizes = [int(v) for v in args.sizes.split(",")]
    doc = {"environment": environment(trees), "sizes": sizes, "repeat": args.repeat, "seed": SEED}
    with tempfile.TemporaryDirectory(prefix="pdce-sweep-") as work:
        sweep = Sweep(trees, Path(work), args.repeat)
        doc["startup"] = sweep.startup()
        doc["library"], doc["cli"] = {}, {}
        for n in sizes:
            doc["library"][str(n)], doc["cli"][str(n)] = sweep.size(n)
            print(f"n = {n} done", file=sys.stderr)
    ref = sweep.reference_ms
    doc["reference"] = {"kernel_ms_median": round(statistics.median(ref), 3),
                        "kernel_ms_min": round(min(ref), 3),
                        "kernel_ms_max": round(max(ref), 3), "calls": len(ref)}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
