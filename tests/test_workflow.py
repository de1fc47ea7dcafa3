import importlib.util
import re
import sys
from pathlib import Path

from test_cli import _run_child

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_workflow_node_ids_are_collected():
    # The CI workflow runs some tests by node id; a renamed or deleted test
    # would otherwise only show up as a failed CI step.
    ids = sorted(set(re.findall(r"tests/\w+\.py::\w+", WORKFLOW.read_text())))
    assert ids
    out = _run_child(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    collected = out.stdout.splitlines()
    for node in ids:
        assert any(c == node or c.startswith(node + "[") for c in collected), node


def test_tracer_targets_exist():
    # A traced name that is gone measures zero in the benchmark's layer
    # table without failing the run: catch it here instead.
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("pdce_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, targets in tracer.LAYERS.items():
        assert targets, layer
        for target in targets:
            mod_name, _, fn_name = target.rpartition(".")
            module = importlib.import_module(f"pdce.{mod_name}")
            assert callable(getattr(module, fn_name, None)), (layer, target)
