"""Command line front end: embed, decide, verify, oracle, gen, render.

Exit codes follow one convention for every subcommand: 0 for success or a
YES answer, 1 for a NO answer or an embedding that fails validation, 2 for
unusable input or bad usage. Unusable input is reported as a single
"error: ..." line on stderr; bad usage is reported by argparse as a
"usage: pdce ..." line followed by a "pdce: error: ..." line.
"""

from __future__ import annotations

import argparse
import sys

from .decider import decide_pdce
from .embedder import embed_quarter_convex, embed_three_directional
from .errors import (
    CoordinateRange,
    InternalCaseError,
    InvalidEmbedding,
    NotFoundWithinBudget,
    PdceError,
    PreconditionViolated,
)
from .generate import GENERATOR_MODES, generate_random_convex
from .geometry import (
    ConvexPointSet,
    _column_set,
    _echo,
    _int_literal,
    _lines,
    _text_columns,
    format_points_text,
    parse_points_json,
    validate,
)
from .oracle import (
    DEFAULT_COUNTEREXAMPLE_LABELS,
    brute_force_pdce,
    count_plane_spanning_paths,
    enumerate_planar_embeddings,
    search_counterexample,
)
from .paths import DirPath, Embedding
from .render import render_svg
from .validator import validate_embedding


# ---------------------------------------------------------------------------
# Input helpers


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise PreconditionViolated(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load_points(path: str) -> ConvexPointSet:
    # A JSON file goes through its parser and validate(). A text file is
    # parsed into two columns and checked by the core validate() uses, so
    # no pair per point is built, and the text is let go before the set.
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return validate(parse_points_json(text))
    columns = _text_columns(text)
    del text
    return _column_set(*columns)


def _load_embedding(path: str, n: int) -> Embedding:
    rows = []
    for ln, body in _lines(_read_text(path)):
        try:
            rows.append(_int_literal(body))
        except CoordinateRange:
            digits = len(body.lstrip("+-").lstrip("0"))
            raise InvalidEmbedding(f"line {ln}: index of {digits} digits out of range") from None
        except ValueError:
            raise InvalidEmbedding(f"line {ln}: expected one integer, got {_echo(body)}") from None
    if len(rows) != n:
        raise InvalidEmbedding(f"expected {n} embedding lines, found {len(rows)}")
    return Embedding(tuple(rows))


def _print_embedding(e: Embedding) -> None:
    sys.stdout.write("".join(f"{idx}\n" for idx in e.assignment))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_embed(args) -> int:
    # The library checks the path and the set; a four-label path on a set
    # that is no chain gets a hint at decide instead of the refusal.
    s = _load_points(args.points)
    p = DirPath(args.path)
    if len(p.directions_used()) < 4:
        e = embed_three_directional(p, s)
    else:
        try:
            e = embed_quarter_convex(p, s)
        except PreconditionViolated:
            print(
                "error: the path uses all four labels and the point set is not "
                "an x/y-monotone chain; an embedding may not exist, try `pdce decide`",
                file=sys.stderr,
            )
            return 2
    _print_embedding(e)
    return 0


def _cmd_decide(args) -> int:
    s = _load_points(args.points)
    p = DirPath(args.path)
    e = decide_pdce(p, s)
    if e is None:
        print("NO")
        return 1
    _print_embedding(e)
    return 0


def _cmd_verify(args) -> int:
    import json

    s = _load_points(args.points)
    p = DirPath(args.path)
    try:
        e = _load_embedding(args.embedding, s.n)
        report = validate_embedding(p, s, e)
    except InvalidEmbedding as exc:
        print(json.dumps({"well_formed": False, "error": str(exc)}, indent=2))
        return 1
    doc = {"well_formed": True}
    doc.update(report.to_json_dict())
    print(json.dumps(doc, indent=2))
    return 0 if report.is_pdce else 1


def _cmd_oracle_count(args) -> int:
    s = _load_points(args.points)
    print(f"planar-embeddings {len(enumerate_planar_embeddings(s))}")
    if s.n >= 3:
        print(f"plane-spanning-paths {count_plane_spanning_paths(s)}")
    return 0


def _cmd_oracle_all_pdce(args) -> int:
    s = _load_points(args.points)
    p = DirPath(args.path)
    hits = brute_force_pdce(p, s)
    for e in hits:
        print(" ".join(str(idx) for idx in e.assignment))
    if not hits:
        print("no direction-consistent planar embedding exists", file=sys.stderr)
        return 1
    return 0


def _cmd_oracle_search(args) -> int:
    p = DirPath(args.path)
    try:
        s = search_counterexample(
            path=p,
            mode=args.mode,
            budget=args.budget,
            seed=args.seed,
        )
    except NotFoundWithinBudget as exc:
        print(str(exc), file=sys.stderr)
        return 1
    sys.stdout.write(format_points_text(zip(s.xs, s.ys)))
    return 0


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise PreconditionViolated("count must be at least 1")
    blocks = []
    for i in range(args.count):
        seed = args.seed if args.count == 1 else f"{args.seed}#{i}"
        s = generate_random_convex(args.n, seed=seed, mode=args.mode)
        blocks.append(format_points_text(zip(s.xs, s.ys)))
    sys.stdout.write("\n".join(blocks))
    return 0


def _cmd_render(args) -> int:
    s = _load_points(args.points)
    p = DirPath(args.path)
    try:
        e = _load_embedding(args.embedding, s.n)
        doc = render_svg(p, s, e, force=args.force)
    except InvalidEmbedding as exc:
        print(f"invalid embedding: {exc}", file=sys.stderr)
        return 1
    if args.svg:
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return 0


# ---------------------------------------------------------------------------
# Parser plumbing


def _points(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", required=True, metavar="FILE")


def _path(p: argparse.ArgumentParser) -> None:
    p.add_argument("--path", required=True, metavar="STRING")


def _embedding(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embedding", required=True, metavar="FILE")


def _search(p: argparse.ArgumentParser) -> None:
    p.add_argument("--path", default=DEFAULT_COUNTEREXAMPLE_LABELS, metavar="STRING")
    p.add_argument("--mode", default="left_sided", choices=GENERATOR_MODES)
    p.add_argument("--budget", type=int, default=100_000, metavar="N")
    p.add_argument("--seed", default=0, metavar="N")


def _gen(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--seed", default=0, metavar="N")
    p.add_argument("--mode", default="general", choices=GENERATOR_MODES)
    p.add_argument("--count", type=int, default=1, metavar="K")


def _render(p: argparse.ArgumentParser) -> None:
    p.add_argument("--svg", metavar="FILE", help="output file (default: stdout)")
    p.add_argument("--force", action="store_true", help="draw even if the embedding is invalid")


# (name, help line, handler, what adds its arguments), in help order.
_ORACLE_MODES = (
    ("count", "count planar embeddings and plane paths", _cmd_oracle_count, (_points,)),
    ("all-pdce", "list every embedding by brute force", _cmd_oracle_all_pdce, (_points, _path)),
    ("search", "search for a set admitting no embedding", _cmd_oracle_search, (_search,)),
)
# The same; oracle's handler is its table of modes.
_COMMANDS = (
    ("embed", "construct an embedding (at most three labels, or a monotone chain)", _cmd_embed,
     (_points, _path)),
    ("decide", "decide existence; print a witness or NO", _cmd_decide, (_points, _path)),
    ("verify", "validate a given embedding, report as JSON", _cmd_verify,
     (_points, _path, _embedding)),
    ("oracle", "exhaustive ground-truth tools", _ORACLE_MODES, ()),
    ("gen", "generate random convex instances", _cmd_gen, (_gen,)),
    ("render", "draw an embedding as SVG", _cmd_render, (_points, _path, _embedding, _render)),
)


def _declare(sub, commands, words: list[str]) -> None:
    # Every command gets its help line; only words[0], the one the command
    # line names, gets its arguments, and under oracle the mode words[1].
    for name, help_line, handler, adders in commands:
        p = sub.add_parser(name, help=help_line)
        if not words or name != words[0]:
            continue
        for add in adders:
            add(p)
        if callable(handler):
            p.set_defaults(func=handler)
        else:
            _declare(p.add_subparsers(dest="oracle_mode", required=True), handler, words[1:])


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv. Neither pdce nor oracle has an option that takes
    a value, so the first word of argv not starting with "-" names the
    subcommand argparse picks, and the next one the oracle mode; a word that
    argparse picks and this skips starts with "-" and is no subcommand. Only
    the subcommand named gets its arguments: argparse formats each argument
    as it is added, so the others would only cost time, and every help
    screen and usage error is the same as with the whole tree."""
    ap = argparse.ArgumentParser(
        prog="pdce",
        description="Construct, decide, verify, and draw planar "
        "direction-consistent embeddings of labeled paths on convex point sets.",
    )
    words = [a for a in argv if not a.startswith("-")]
    _declare(ap.add_subparsers(dest="command", required=True), _COMMANDS, words)
    return ap


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InternalCaseError:
        # A failed construction is a bug here, not bad input; crash loudly.
        raise
    except (PdceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
