import gc
import importlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pdce
from pdce import load_counterexample, render_svg, validate, parse_points_text
from pdce import DirPath, Embedding, InternalCaseError, InvalidEmbedding, SizeMismatch
from pdce import (
    CollinearTriple, CoordinateRange, DuplicateX, DuplicateY, NotConvexPosition,
    PreconditionViolated,
)
from pdce import COORD_LIMIT, GENERATOR_MODES, PdceError, cli, generate_random_convex, geometry
from pdce.cli import run
from pdce.geometry import Point

try:
    import numpy as np
except ImportError:
    np = None

S5_TEXT = "4 0\n3 6\n1 5\n0 3\n2 1\n"
UD_TEXT = "0 0\n2 3\n4 1\n"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def s5_file(tmp_path):
    f = tmp_path / "s5.txt"
    f.write_text(S5_TEXT)
    return str(f)


@pytest.fixture
def fixture_files(tmp_path):
    p, s, _ = load_counterexample()
    f = tmp_path / "cx.txt"
    f.write_text("".join(f"{q.x} {q.y}\n" for q in s.points))
    return str(f), p.labels


def test_embed_three_directional(s5_file, capsys):
    assert run(["embed", "--points", s5_file, "--path", "URDU"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["2", "1", "3", "4", "0"]


def test_embed_four_label_non_quarter_refused(s5_file, capsys):
    code = run(["embed", "--points", s5_file, "--path", "URDL"])
    assert code == 2
    assert "decide" in capsys.readouterr().err


def test_embed_four_label_quarter(tmp_path, capsys):
    # An increasing and a decreasing monotone chain take any four-label path.
    chains = {
        "inc.txt": "0 0\n1 4\n3 7\n6 9\n10 10\n",
        "dec.txt": "0 10\n4 9\n7 7\n9 4\n10 0\n",
    }
    for name, text in chains.items():
        f = tmp_path / name
        f.write_text(text)
        for labels in ("URDL", "LURD", "DLUR"):
            assert run(["embed", "--points", str(f), "--path", labels]) == 0
            emb = tmp_path / "e.txt"
            emb.write_text(capsys.readouterr().out)
            args = ["verify", "--points", str(f), "--path", labels, "--embedding", str(emb)]
            assert run(args) == 0, (name, labels)
            assert json.loads(capsys.readouterr().out)["is_pdce"] is True


def test_decide_yes(tmp_path, capsys):
    f = tmp_path / "tri.txt"
    f.write_text(UD_TEXT)
    assert run(["decide", "--points", str(f), "--path", "UD"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["2", "0", "1"]


def test_decide_no(fixture_files, capsys):
    points_file, labels = fixture_files
    assert run(["decide", "--points", points_file, "--path", labels]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_verify_accepts(s5_file, tmp_path, capsys):
    emb = tmp_path / "e.txt"
    emb.write_text("2\n1\n3\n4\n0\n")
    code = run(
        ["verify", "--points", s5_file, "--path", "URDU", "--embedding", str(emb)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["well_formed"] is True
    assert doc["is_pdce"] is True


def test_verify_rejects_tampered(s5_file, tmp_path, capsys):
    emb = tmp_path / "e.txt"
    emb.write_text("1\n2\n3\n4\n0\n")  # first two slots swapped
    code = run(
        ["verify", "--points", s5_file, "--path", "URDU", "--embedding", str(emb)]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["well_formed"] is True
    assert doc["is_pdce"] is False
    assert doc["first_violation"] is not None


def test_verify_malformed_embedding(s5_file, tmp_path, capsys):
    emb = tmp_path / "e.txt"
    emb.write_text("0\n0\n1\n2\n3\n")  # duplicate index
    code = run(
        ["verify", "--points", s5_file, "--path", "URDU", "--embedding", str(emb)]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["well_formed"] is False
    # The loader skips '#' comments and blank lines but counts them in the
    # line numbers it reports; render refuses the same files.
    cases = {
        "# walk\n\n2\n1\nthree\n4\n0\n": "line 5: expected one integer, got 'three'",
        "2\n1\n3.0\n4\n0\n": "line 3: expected one integer, got '3.0'",
        "# four rows\n2\n\n1\n3\n4\n": "expected 5 embedding lines, found 4",
        "2\n1\n3\n4\n0\n1\n": "expected 5 embedding lines, found 6",
        # An integer too long for int() is out of range, and is not echoed.
        "2\n%s\n3\n4\n0\n" % ("1" * 5000): "line 2: index of 5000 digits out of range",
        "-%s\n" % ("0" * 9 + "9" * 4400): "line 1: index of 4400 digits out of range",
    }
    for body, error in cases.items():
        emb.write_text(body)
        args = ["--points", s5_file, "--path", "URDU", "--embedding", str(emb)]
        assert run(["verify", *args]) == 1
        assert json.loads(capsys.readouterr().out) == {"well_formed": False, "error": error}
        assert run(["render", *args]) == 1
        assert capsys.readouterr().err == f"invalid embedding: {error}\n"
    emb.write_text("# the accepted walk\n\n2\n1\n  # mid\n3\n4\n0\n\n")
    assert run(["verify", "--points", s5_file, "--path", "URDU", "--embedding", str(emb)]) == 0
    assert json.loads(capsys.readouterr().out)["is_pdce"] is True
    # Past int()'s digit limit only by leading zeros, an index keeps its value.
    emb.write_text("2\n1\n%s3\n4\n0\n" % ("0" * 5000))
    assert run(["verify", "--points", s5_file, "--path", "URDU", "--embedding", str(emb)]) == 0
    assert json.loads(capsys.readouterr().out)["is_pdce"] is True


def test_internal_errors_escape_and_main_exits_with_run_code(s5_file, monkeypatch, capsys):
    # A failed construction is a bug, not unusable input: run lets it out.
    def broken(p, s):
        raise InternalCaseError("broken construction")

    monkeypatch.setattr(cli, "embed_three_directional", broken)
    with pytest.raises(InternalCaseError, match="broken construction"):
        run(["embed", "--points", s5_file, "--path", "URDU"])
    # main() hands the command line to run and exits with its code.
    for argv, code in ((["gen", "--n", "3"], 0), (["gen", "--n", "0"], 2)):
        monkeypatch.setattr(sys, "argv", ["pdce", *argv])
        with pytest.raises(SystemExit) as info:
            cli.main()
        assert info.value.code == code
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3
    assert captured.err == "error: n must be at least 1\n"
    # python -m pdce runs the same main.
    assert importlib.import_module("pdce.__main__").main is cli.main


def test_verify_size_mismatch_is_usage_error(s5_file, tmp_path, capsys):
    emb = tmp_path / "e.txt"
    emb.write_text("2\n1\n3\n4\n0\n")
    code = run(
        ["verify", "--points", s5_file, "--path", "UR", "--embedding", str(emb)]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_oracle_count(fixture_files, capsys):
    points_file, _ = fixture_files
    assert run(["oracle", "count", "--points", points_file]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "planar-embeddings 224"
    assert out[1] == "plane-spanning-paths 112"


def test_oracle_all_pdce(tmp_path, capsys):
    f = tmp_path / "tri.txt"
    f.write_text(UD_TEXT)
    assert run(["oracle", "all-pdce", "--points", str(f), "--path", "UD"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["1 0 2", "2 0 1"]


def test_oracle_all_pdce_empty(fixture_files, capsys):
    points_file, labels = fixture_files
    code = run(["oracle", "all-pdce", "--points", points_file, "--path", labels])
    assert code == 1
    assert "no direction-consistent" in capsys.readouterr().err


def test_oracle_search_succeeds(capsys):
    assert run(["oracle", "search", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    pts = parse_points_text(out)
    assert len(pts) == 7


def test_oracle_search_budget_exhausted(capsys):
    code = run(["oracle", "search", "--path", "UUUUUU", "--budget", "50"])
    assert code == 1
    assert capsys.readouterr().err.strip() != ""


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "0"],
        ["gen", "--n", "5", "--count", "0"],
        ["gen", "--n", "5", "--count", "-2"],
        ["oracle", "search", "--budget", "0"],
        ["oracle", "search", "--budget", "-5"],
    ],
    ids=["gen-n", "gen-count-0", "gen-count-neg", "search-budget-0", "search-budget-neg"],
)
def test_argument_below_one_is_usage_error(capsys, argv):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def test_gen_deterministic(capsys):
    assert run(["gen", "--n", "6", "--seed", "5", "--mode", "strip"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "--n", "6", "--seed", "5", "--mode", "strip"]) == 0
    second = capsys.readouterr().out
    assert first == second
    pts = parse_points_text(first)
    assert len(pts) == 6
    assert validate(pts).n == 6


def test_gen_multiple_blocks(capsys):
    assert run(["gen", "--n", "4", "--seed", "2", "--count", "3"]) == 0
    out = capsys.readouterr().out
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 3
    assert blocks[0] != blocks[1]


def test_render_svg_structure(s5_file, tmp_path, capsys):
    emb = tmp_path / "e.txt"
    emb.write_text("2\n1\n3\n4\n0\n")
    svg_path = tmp_path / "out.svg"
    code = run(
        [
            "render",
            "--points",
            s5_file,
            "--path",
            "URDU",
            "--embedding",
            str(emb),
            "--svg",
            str(svg_path),
        ]
    )
    assert code == 0
    body = svg_path.read_text()
    assert body.count('class="node"') == 5
    assert body.count('<line class="edge') == 4
    assert body.startswith("<?xml")
    # deterministic output: re-render matches byte for byte
    code = run(
        [
            "render",
            "--points",
            s5_file,
            "--path",
            "URDU",
            "--embedding",
            str(emb),
            "--svg",
            str(tmp_path / "again.svg"),
        ]
    )
    assert code == 0
    assert (tmp_path / "again.svg").read_text() == body


def test_render_single_point(tmp_path, capsys):
    f = tmp_path / "one.txt"
    f.write_text("3 4\n")
    emb = tmp_path / "e.txt"
    emb.write_text("0\n")
    code = run(
        ["render", "--points", str(f), "--path", "", "--embedding", str(emb)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count('class="node"') == 1
    assert out.count('<line class="edge') == 0


def test_render_invalid_embedding_needs_force(s5_file, tmp_path, capsys):
    emb = tmp_path / "e.txt"
    emb.write_text("1\n2\n3\n4\n0\n")
    args = ["render", "--points", s5_file, "--path", "URDU", "--embedding", str(emb)]
    assert run(args) == 1
    assert "invalid embedding" in capsys.readouterr().err
    assert run(args + ["--force"]) == 0
    assert capsys.readouterr().out.count('class="node"') == 5


def test_missing_file_is_usage_error(capsys):
    code = run(["decide", "--points", "/nonexistent/pts.txt", "--path", "UD"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_path_labels_usage_error(s5_file, capsys):
    code = run(["decide", "--points", s5_file, "--path", "UDXZ"])
    assert code == 2


def test_unknown_subcommand_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_json_points_accepted(tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"points": [[0, 0], [2, 3], [4, 1]]}))
    assert run(["decide", "--points", str(f), "--path", "UD"]) == 0


@pytest.mark.parametrize("points", [5, None, "05", {"0": 0}])
def test_malformed_json_points_is_usage_error(tmp_path, capsys, points):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"points": points}))
    assert run(["decide", "--points", str(f), "--path", "UD"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize(
    "name, body",
    [
        ("pts.txt", "0 0\n2 3\n4 99999999999999999999\n"),
        ("pts.json", '{"points": [[0, 0], [2, 3], [4, 99999999999999999999]]}'),
    ],
    ids=["text", "json"],
)
def test_out_of_range_points_is_usage_error(tmp_path, capsys, name, body):
    f = tmp_path / name
    f.write_text(body)
    assert run(["decide", "--points", str(f), "--path", "UD"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "exceeds" in err[0], err


def test_long_bad_line_is_echoed_short(tmp_path, capsys, s5_file):
    # A malformed line is quoted by a prefix and its length, not whole.
    f = tmp_path / "pts.txt"
    f.write_text("0 0\n1 2 %s\n" % ("9" * 5000))
    assert run(["decide", "--points", str(f), "--path", "U"]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200 and "(5004 chars)" in err, err
    emb = tmp_path / "e.txt"
    emb.write_text("2\n%s\n3\n4\n0\n" % ("x" * 5000))
    args = ["--points", s5_file, "--path", "URDU", "--embedding", str(emb)]
    assert run(["verify", *args]) == 1
    out = capsys.readouterr().out
    assert len(out.encode()) < 200, out
    error = "line 2: expected one integer, got %r... (5000 chars)" % ("x" * 40)
    assert json.loads(out) == {"well_formed": False, "error": error}


@pytest.mark.parametrize(
    "entries",
    ["[" * 200_000 + "]" * 200_000, "[[0, 0], [%s]]" % ", ".join("1" * 200_000),
     '[[0, 0], "%s"]' % ("a" * 100_000)],
    ids=["deep", "long-entry", "long-str"],
)
def test_malformed_json_is_one_short_error(tmp_path, capsys, entries):
    # Nesting past the recursion limit and huge entries are usage errors,
    # reported in one short line.
    f = tmp_path / "pts.json"
    f.write_text('{"points": %s}' % entries)
    assert run(["decide", "--points", str(f), "--path", "U"]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 200 and err.startswith("error:") and err.count("\n") == 1, err


def test_json_int_past_conversion_limit_is_usage_error(tmp_path, capsys):
    # int() refuses a literal past Python's digit limit; the JSON door names
    # it out of range, as the range check does where there is no such limit.
    f = tmp_path / "pts.json"
    f.write_text('{"points": [[0, 0], [2, %s]]}' % ("9" * 5000))
    assert run(["decide", "--points", str(f), "--path", "U"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "exceeds" in err[0], err


def test_subcommands_build_no_point(tmp_path, capsys, monkeypatch):
    # Points files are read and written as int pairs, and every engine reads
    # the set's columns: a Point built anywhere on these paths fails the run.
    def built(cls, *fields):
        raise AssertionError(f"Point{fields!r} built")

    monkeypatch.setattr(Point, "__new__", built)
    assert run(["gen", "--n", "300", "--seed", "1"]) == 0
    text = capsys.readouterr().out
    points = tmp_path / "points.txt"
    points.write_text(text)
    as_json = tmp_path / "points.json"
    as_json.write_text(json.dumps({"points": parse_points_text(text)}))
    path = ("UDR" * 100)[:299]
    common = ["--points", str(points), "--path", path]
    assert run(["embed", *common]) == 0
    walk = capsys.readouterr().out.split()
    embedding = tmp_path / "embedding.txt"
    embedding.write_text("\n".join(walk) + "\n")
    walk[100], walk[200] = walk[200], walk[100]
    swapped = tmp_path / "swapped.txt"
    swapped.write_text("\n".join(walk) + "\n")
    for points_file in (points, as_json):
        assert run(["decide", "--points", str(points_file), "--path", path]) == 0
    assert run(["verify", *common, "--embedding", str(embedding)]) == 0
    assert '"is_pdce": true' in capsys.readouterr().out
    assert run(["verify", *common, "--embedding", str(swapped)]) == 1
    assert '"is_pdce": false' in capsys.readouterr().out
    svg = tmp_path / "out.svg"
    assert run(["render", *common, "--embedding", str(embedding), "--svg", str(svg)]) == 0
    assert svg.read_text().count('class="node"') == 300


def _door_texts(rng):
    # (name, text) pairs for the points door: shuffled valid sets of every
    # mode with comments, blank lines and mixed line breaks, and each with
    # one rule broken.
    breaks = ("\n", "\r\n", "\r", "\x0b", "\x85", "\u2028")
    for mode in GENERATOR_MODES:
        for n in (1, 2, 3, 5, 12, 40, 300):
            s = generate_random_convex(n, seed=rng.randrange(1 << 30), mode=mode)
            pts = list(zip(s.xs, s.ys))
            rng.shuffle(pts)
            lines = [f"{x} {y}" for x, y in pts]
            for _ in range(n // 10 + 1):
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", "# c", "  #1 2")))
            yield f"{mode}-{n}", "".join(line + rng.choice(breaks) for line in lines)
            if n < 3:
                continue
            i, j = rng.sample(range(n), 2)
            (xi, yi), (xj, yj) = pts[i], pts[j]
            twice = [(2 * x, 2 * y) for x, y in pts]
            broken = {
                "dup-x": pts[:j] + [(xi, yj)] + pts[j + 1:],
                "dup-y": pts[:j] + [(xj, yi)] + pts[j + 1:],
                "interior": pts + [(sum(x for x, _ in pts) // n, sum(y for _, y in pts) // n)],
                "collinear": twice + [(xi + xj, yi + yj)],
                "range": pts[:j] + [(xj, COORD_LIMIT + 1)] + pts[j + 1:],
                "range-neg": pts[:j] + [(-COORD_LIMIT - 1, yj)] + pts[j + 1:],
            }
            for name, bad in broken.items():
                yield f"{mode}-{n}-{name}", "".join(f"{x} {y}\n" for x, y in bad)
            yield f"{mode}-{n}-fields", "".join(f"{x} {y}\n" for x, y in pts[:j]) + f"{xj}\n"
    yield "empty", ""
    yield "comments-only", "# a\n\n#b\n"
    yield "limits", f"{COORD_LIMIT} 0\n0 {COORD_LIMIT}\n{-COORD_LIMIT} 1\n1 {-COORD_LIMIT}\n"


def test_text_door_matches_parse_then_validate(tmp_path):
    # _load_points builds a text file's set from its columns: it must return
    # the set, or raise the error, that validate(parse_points_text(text))
    # does. It checks distinct coordinates through sets, so CI runs it under
    # fixed hash seeds too.
    rng = random.Random("text-door")
    f = tmp_path / "points.txt"
    seen = set()
    for name, text in _door_texts(rng):
        f.write_text(text, encoding="utf-8")
        outcomes = []
        for load in (cli._load_points, lambda path: validate(parse_points_text(cli._read_text(path)))):
            try:
                s = load(str(f))
                outcomes.append((s.xs, s.ys))
            except PdceError as exc:
                where = getattr(exc, "indices", getattr(exc, "index", None))
                outcomes.append((type(exc), str(exc), where))
        assert outcomes[0] == outcomes[1], name
        seen.add(outcomes[0][0] if len(outcomes[0]) == 3 else "set")
    assert seen == {"set", DuplicateX, DuplicateY, NotConvexPosition, CollinearTriple,
                    CoordinateRange, PreconditionViolated}, seen


def test_text_door_holds_one_copy(tmp_path):
    # The door reads a points file into its set column by column: at
    # n = 10^4 its tracemalloc peak stays under 2.5 times the traced size of
    # the set it returns (1.9 here; 4.2 when it built a list of all lines, a
    # pair per point and the edge differences at once).
    n = 10_000
    s = generate_random_convex(n, seed=1)
    pts = list(zip(s.xs, s.ys))
    random.Random(0).shuffle(pts)
    f = tmp_path / "points.txt"
    f.write_text("".join(f"{x} {y}\n" for x, y in pts))
    geometry._indices(n)  # the process's shared index ints, not the set's
    gc.collect()
    tracemalloc.start()
    try:
        t = cli._load_points(str(f))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t == s
    assert peak < 2.5 * held, (peak, held)


def test_non_utf8_input_is_usage_error(s5_file, tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"# caf\xe9\n" + S5_TEXT.encode())
    emb = tmp_path / "e.txt"
    emb.write_text("0\n4\n2\n1\n3\n")
    for points, embedding in ((str(latin1), str(emb)), (s5_file, str(latin1))):
        code = run(
            ["verify", "--points", points, "--path", "URDU", "--embedding", embedding]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "UTF-8" in err[0], err


def test_render_svg_function_errors():
    s = validate([(0, 0), (2, 3), (4, 1)])
    with pytest.raises(SizeMismatch):
        render_svg(DirPath("U"), s, Embedding((0, 1, 2)))
    with pytest.raises(InvalidEmbedding):
        render_svg(DirPath("UD"), s, Embedding((0, 1)))
    with pytest.raises(InvalidEmbedding):
        render_svg(DirPath("UD"), s, Embedding((0, 1, 2)))  # first edge points down
    assert "<svg" in render_svg(DirPath("UD"), s, Embedding((0, 1, 2)), force=True)


def test_render_svg_rejects_non_int_indices_under_force():
    s = validate([(0, 0), (2, 3), (4, 1)])
    # True == 1, and np.int64(0) is in range: neither is a plain int index.
    indices = [True]
    if np is not None:
        indices.append(np.int64(0))
    for idx in indices:
        with pytest.raises(InvalidEmbedding, match="not a plain int"):
            render_svg(DirPath("UD"), s, Embedding((idx, 2, 1)), force=True)
    with pytest.raises(InvalidEmbedding, match="out of range"):
        render_svg(DirPath("UD"), s, Embedding((3, 2, 1)), force=True)


def _child_env():
    """The parent's environment, with the imported package's root first on
    PYTHONPATH, so a child finds the same ``pdce`` from any working directory."""
    env = dict(os.environ)
    root = str(Path(pdce.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def _run_child(cmd, cwd):
    return subprocess.run(
        cmd, capture_output=True, text=True, cwd=cwd, env=_child_env(), timeout=120
    )


def _pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]


def test_test_extra_installs_every_skippable_import():
    # A test that a missing module would skip must not be skipped after
    # `pip install -e ".[test]"`: the test extra names each such module.
    text = "".join(f.read_text() for f in PYPROJECT.parent.joinpath("tests").glob("*.py"))
    skippable = set(re.findall(r'importorskip\("([\w.]+)"', text))
    extra = _pyproject()["optional-dependencies"]["test"]
    assert skippable and skippable <= {re.match(r"[\w.-]+", req).group() for req in extra}


def _console_script_command():
    """The ``pdce`` entry of ``[project.scripts]``, run the way pip's generated
    wrapper runs it: import the target, call it, exit with its result."""
    target = _pyproject()["scripts"]["pdce"]
    module, _, func = target.partition(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code]


def test_console_script_smoke(tmp_path):
    f = tmp_path / "tri.txt"
    f.write_text(UD_TEXT)
    launchers = [_console_script_command(), [sys.executable, "-m", "pdce"]]
    installed = shutil.which("pdce")
    if installed:
        launchers.append([installed])
    for launcher in launchers:
        proc = _run_child(
            launcher + ["decide", "--points", str(f), "--path", "UD"], tmp_path
        )
        assert proc.returncode == 0, (launcher, proc.stderr)
        assert proc.stdout.strip().splitlines() == ["2", "0", "1"], launcher
        assert proc.stderr == "", launcher


def test_startup_loads_no_json_hashlib_or_dataclasses(tmp_path):
    # Every CLI call and benchmark setup pays the package import, and every
    # CLI call that of pdce.cli; the JSON door, verify's report, the
    # certificate and the packaged counterexample load json, hashlib and
    # importlib.resources on first use instead, and the generator and the
    # counterexample search load random. The records are named tuples
    # and small classes, so nothing loads dataclasses and the modules it
    # brings (inspect, ast, dis, tokenize). -S keeps the site module's own
    # imports out of sys.modules.
    unwanted = {"json", "hashlib", "importlib.resources", "dataclasses", "inspect", "ast", "dis",
                "tokenize", "random"}
    for module in ("pdce", "pdce.cli"):
        probe = f"import sys, {module}; print(sorted({unwanted!r} & set(sys.modules)))"
        proc = _run_child([sys.executable, "-S", "-c", probe], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module
    # A whole `python -m pdce decide` call: -X importtime names on stderr
    # every module the process imports.
    points = tmp_path / "three.txt"
    points.write_text("0 2\n-1 0\n1 -1\n")
    decide = ["decide", "--points", str(points), "--path", "DU"]
    proc = _run_child([sys.executable, "-S", "-X", "importtime", "-m", "pdce", *decide], tmp_path)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "pdce.decider" in imported
    assert sorted(unwanted & imported) == []


def test_package_all_lists_each_public_name_once():
    # A name left in __all__ after its object is gone breaks `import *`.
    names = pdce.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(pdce, name)] == []
    namespace = {}
    exec("from pdce import *", namespace)
    assert set(names) <= namespace.keys()
    # Each module states its own public names, and the package's surface is
    # their concatenation. A class or function is listed only by the module
    # that defines it, so no module re-exports an import.
    modules = [pdce.errors, pdce.geometry, pdce.generate, pdce.paths, pdce.validator,
               pdce.embedder, pdce.decider, pdce.oracle, pdce.render]
    assert names == [name for module in modules for name in module.__all__]
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                assert obj.__module__ == module.__name__, name
            assert getattr(pdce, name) is obj, name


def test_leaf_usage_lines(monkeypatch, capsys):
    # The options that several subcommands share are declared once and passed
    # down; each leaf's usage line names its options in the same order and
    # with the same metavars. A wide terminal keeps each on one line.
    monkeypatch.setenv("COLUMNS", "200")
    modes = "{general,left_sided,quarter_dec,quarter_inc,right_sided,strip}"
    usages = {
        "embed": "--points FILE --path STRING",
        "decide": "--points FILE --path STRING",
        "verify": "--points FILE --path STRING --embedding FILE",
        "oracle count": "--points FILE",
        "oracle all-pdce": "--points FILE --path STRING",
        "oracle search": f"[--path STRING] [--mode {modes}] [--budget N] [--seed N]",
        "gen": f"--n N [--seed N] [--mode {modes}] [--count K]",
        "render": "--points FILE --path STRING --embedding FILE [--svg FILE] [--force]",
    }
    for command, options in usages.items():
        assert run([*command.split(), "--help"]) == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage == f"usage: pdce {command} [-h] {options}"


CLI_TEXTS = Path(__file__).resolve().parent / "cli_texts.json"


def _options(parser):
    return [a.dest for a in parser._actions if a.dest != "help"]


def test_help_and_usage_errors_match_the_whole_tree(monkeypatch, capsys):
    # A subcommand gets its arguments only when the command line names it,
    # and oracle's modes likewise. Every help screen and usage error is still
    # the text that the parser holding the whole tree printed, captured in
    # cli_texts.json. argparse words its texts differently from one Python
    # version to the next, so the pin holds on the version they came from.
    commands = cli._build_parser(["oracle", "search", "--path", "gen"])._actions[-1].choices
    assert [name for name, p in commands.items() if _options(p)] == ["oracle"]
    modes = commands["oracle"]._actions[-1].choices
    assert {name: _options(p) for name, p in modes.items()} == {
        "count": [], "all-pdce": [], "search": ["path", "mode", "budget", "seed"]
    }
    doc = json.loads(CLI_TEXTS.read_text())
    if "%d.%d" % sys.version_info[:2] != doc["python"]:
        pytest.skip(f"the texts come from Python {doc['python']}")
    monkeypatch.setenv("COLUMNS", str(doc["columns"]))
    for case in doc["cases"]:
        code = run(case["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["code"], case["out"], case["err"]), case["argv"]


def test_module_entry_exit_codes(fixture_files, tmp_path):
    points_file, labels = fixture_files
    module = [sys.executable, "-m", "pdce"]
    proc = _run_child(
        module + ["decide", "--points", points_file, "--path", labels], tmp_path
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.strip() == "NO"
    assert proc.stderr == ""
    proc = _run_child(module + ["frobnicate"], tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: pdce")
    # Neither entry module may be imported by a plain import of the package;
    # otherwise runpy warns when it runs `python -m pdce.cli`.
    probe = "import sys, pdce; print('pdce.__main__' in sys.modules, 'pdce.cli' in sys.modules)"
    proc = _run_child([sys.executable, "-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"
    tri = tmp_path / "tri.txt"
    tri.write_text(UD_TEXT)
    proc = _run_child(
        [sys.executable, "-m", "pdce.cli", "decide", "--points", str(tri), "--path", "UD"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "0", "1"]
    assert proc.stderr == ""
