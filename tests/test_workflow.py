import importlib.util
import re
import sys
from pathlib import Path

import pdce
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


def _bench_module(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"pdce_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist():
    # A traced name that is gone measures zero in the benchmark's layer
    # table without failing the run: catch it here instead.
    tracer = _bench_module("tracer")
    for layer, targets in tracer.LAYERS.items():
        assert targets, layer
        for target in targets:
            mod_name, _, fn_name = target.rpartition(".")
            module = importlib.import_module(f"pdce.{mod_name}")
            assert callable(getattr(module, fn_name, None)), (layer, target)


def test_bench_workloads_run_on_the_library():
    # The benchmark builds its inputs and checks every output through the
    # library, its points view with .x and .y included; a name or field it
    # reads that is gone would otherwise fail only the benchmark's own run.
    workloads = _bench_module("workloads")
    for workload in workloads.DEFAULT_N:
        setup = workloads.generate(pdce, workload, 3, 40)
        checker = workloads.Checker(pdce, workload)
        for idx, inst in enumerate(setup.instances):
            out = getattr(pdce, inst.fn)(*inst.args)
            assert checker.check(idx, inst, out), (workload, idx, inst.fn)


def test_failing_property_test_shows_its_counterexample(tmp_path):
    # Under the suite's warning filters, a failing @given test must report
    # its falsifying example, not an INTERNALERROR from hypothesis's report hook.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    out = _run_child(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "Falsifying example" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
