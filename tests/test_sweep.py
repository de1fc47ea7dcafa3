"""The size sweep, bench/sweep.py, run end to end at small n on two trees."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = {
    "parse_points_text", "validate", "embed_three_directional", "validate_embedding",
    "decide_yes", "decide_no",
}
CLI = {"gen", "embed", "decide_yes", "decide_no", "verify", "render"}


def test_sweep_writes_every_figure(tmp_path):
    # Both labels name this checkout's tree: every figure then has two
    # entries, and the answers must agree.
    out = tmp_path / "bench.json"
    src = ROOT / "src"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "sweep.py"), "--src", f"a={src}", "--src", f"b={src}",
         "--sizes", "100", "--repeat", "1", "--out", str(out)],
        check=True, capture_output=True, timeout=300,
    )
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "environment", "sizes", "repeat", "seed", "startup", "library", "cli", "reference",
    }
    env = doc["environment"]
    assert {"git_revision", "python", "nproc", "cpu_model", "dont_write_bytecode"} <= set(env)
    assert set(env["trees"]) == {"a", "b"}
    assert all(
        set(t) == {"git_revision", "modified", "bytecode_cached"} for t in env["trees"].values()
    )
    assert doc["sizes"] == [100]
    assert set(doc["startup"]) == {
        "python -S -c pass", "python -c pass",
        "python -c 'import pdce.cli' [a]", "python -c 'import pdce.cli' [b]",
    }
    for probe in doc["startup"].values():
        assert set(probe) == {"wall_s", "maxrss_mib"} and probe["wall_s"] > 0
    assert set(doc["reference"]) == {"kernel_ms_median", "kernel_ms_min", "kernel_ms_max", "calls"}
    assert doc["reference"]["calls"] == 2 * (len(LIBRARY) + len(CLI))
    n = "100"
    assert set(doc["library"][n]) == LIBRARY and set(doc["cli"][n]) == CLI
    for op, figures in doc["library"][n].items():
        assert set(figures) == {"a", "b"}
        a, b = figures["a"], figures["b"]
        assert a["wall_s"] > 0 and a["maxrss_mib"] > 0
        assert {k: v for k, v in a.items() if k not in ("wall_s", "maxrss_mib")} == {
            k: v for k, v in b.items() if k not in ("wall_s", "maxrss_mib")
        }, op
    assert doc["library"][n]["decide_yes"]["a"]["answer"] == "YES"
    assert doc["library"][n]["decide_no"]["a"]["answer"] == "NO"
    assert doc["library"][n]["validate_embedding"]["a"]["is_pdce"] is True
    for name, figures in doc["cli"][n].items():
        assert set(figures) == {"a", "b"}
        assert set(figures["a"]) == {"wall_s", "maxrss_mib", "exit"}
        # decide answers NO with exit code 1, as the library child does.
        want = 1 if doc["library"][n].get(name, {}).get("a", {}).get("answer") == "NO" else 0
        assert figures["a"]["exit"] == figures["b"]["exit"] == want, name
