"""Command-line front-end.

Every reasoning operation is exposed as a subcommand working on log files;
output is deterministic text or TSV.  Exit codes: 0 ok, 1 validation or
domain failure, 2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys

from .boolmat import dump_matrices
from .errors import CognilogError, ParseError
from .model import SLog, validate_category
from .reasoning import (
    abstract_episode,
    classify_story,
    comprehend,
    generate_slog,
    infer_missing,
    plan,
)
from .search import Functor, Score, SearchConfig, search_functors
from .store import format_log, resolve_belog, resolve_log


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cognilog")
    parser.add_argument("--format", choices=("text", "tsv"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def belog(p: argparse.ArgumentParser) -> None:
        p.add_argument("--belog", default=None)

    def common(p: argparse.ArgumentParser) -> None:
        """--belog plus the flags every command that builds a SearchConfig reads."""
        belog(p)
        p.add_argument("--weights", default=None,
                       help="structural,temporal,similarity (sum 1)")
        p.add_argument("--min-compat", type=float, default=0.0)
        p.add_argument("--max-candidates", type=int, default=10)
        p.add_argument("--depth", type=int, default=3)

    p = sub.add_parser("validate")
    p.add_argument("log")

    p = sub.add_parser("match")
    p.add_argument("elog")
    p.add_argument("slog")
    common(p)

    p = sub.add_parser("infer")
    p.add_argument("elog")
    p.add_argument("slog")
    p.add_argument("--out", default=None)
    common(p)

    p = sub.add_parser("abstract")
    p.add_argument("elog")
    p.add_argument("slog")
    common(p)

    p = sub.add_parser("gen-slog")
    p.add_argument("elog")
    p.add_argument("actions", nargs="+")
    p.add_argument("--out", default=None)
    belog(p)

    p = sub.add_parser("comprehend")
    p.add_argument("elog")
    p.add_argument("slogs", nargs="+")
    common(p)

    p = sub.add_parser("classify")
    p.add_argument("elog")
    p.add_argument("slogs", nargs="+")
    common(p)

    p = sub.add_parser("plan")
    p.add_argument("goal")
    p.add_argument("world")
    p.add_argument("slogs", nargs="+")
    common(p)

    p = sub.add_parser("dump-matrices")
    p.add_argument("log")
    return parser


class _UsageError(Exception):
    """A flag value the parser accepted but the engine rejects (exit 2)."""


def _config(args) -> SearchConfig:
    weights = (0.5, 0.25, 0.25)
    try:
        if args.weights:
            parts = args.weights.split(",")
            if len(parts) != 3:
                raise ValueError("--weights takes three comma-separated numbers")
            weights = tuple(float(x) for x in parts)  # type: ignore[assignment]
        return SearchConfig(
            weights=weights,
            min_compatibility=args.min_compat,
            max_candidates=args.max_candidates,
            composition_depth=args.depth,
        )
    except ValueError as exc:
        raise _UsageError(exc) from exc


def _library(names: list[str]) -> list[SLog]:
    """The scenario library: each name must resolve to an s-log."""
    library = []
    for name in names:
        s = resolve_log(name)
        if not isinstance(s, SLog):
            raise CognilogError(f"{name} is not an s-log")
        library.append(s)
    return library


def _emit(rows: list[tuple[str, ...]], header: tuple[str, ...], fmt: str) -> None:
    if fmt == "tsv":
        print("\t".join(header))
        for row in rows:
            print("\t".join(row))
    else:
        for row in rows:
            print("  ".join(row))


def _functor_rows(functor: Functor, score: Score) -> list[tuple[str, ...]]:
    rows = [("score", f"{score.total:.4f}",
             f"structural={score.structural:.4f}",
             f"temporal={score.temporal:.4f}",
             f"similarity={score.similarity:.4f}")]
    for x, y in sorted(functor.action_map.items()):
        rows.append(("action", x, y, ""))
    for x, y in sorted(functor.participant_map.items()):
        rows.append(("participant", x, y, ""))
    return rows


def _run(args) -> int:
    fmt = args.format

    if args.command == "validate":
        log = resolve_log(args.log)
        report = validate_category(log)
        rows = [(v.code, v.message) for v in report.violations]
        _emit(rows, ("code", "message"), fmt)
        if report.ok:
            print("ok")
        return 0 if report.ok else 1

    if args.command == "dump-matrices":
        log = resolve_log(args.log)
        print(dump_matrices(log), end="")
        return 0

    if args.command == "match":
        e, s = resolve_log(args.elog), resolve_log(args.slog)
        b = resolve_belog(args.belog)
        results = search_functors(e, s, b, _config(args))
        rows: list[tuple[str, ...]] = []
        for i, (functor, score) in enumerate(results):
            rows.append((f"candidate={i}", "", "", ""))
            rows.extend(_functor_rows(functor, score))
        _emit(rows, ("kind", "source", "target", "detail"), fmt)
        return 0 if results else 1

    if args.command == "abstract":
        e, s = resolve_log(args.elog), resolve_log(args.slog)
        b = resolve_belog(args.belog)
        results = abstract_episode(e, s, b, _config(args))
        rows = []
        for i, res in enumerate(results):
            rows.append((f"candidate={i}", "", "",
                         "residue=" + ",".join(sorted(res.residue))))
            rows.extend(_functor_rows(res.functor, res.score))
        _emit(rows, ("kind", "source", "target", "detail"), fmt)
        return 0 if results else 1

    if args.command == "infer":
        e, s = resolve_log(args.elog), resolve_log(args.slog)
        b = resolve_belog(args.belog)
        result = infer_missing(e, s, b, _config(args))
        rows = [(a.action_id, a.source_action, a.tense) for a in result.added]
        _emit(rows, ("added", "from", "tense"), fmt)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(format_log(result.extended_elog))
        return 0

    if args.command == "gen-slog":
        e = resolve_log(args.elog)
        b = resolve_belog(args.belog)
        s = generate_slog(e, set(args.actions), b)
        text = format_log(s)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
        return 0

    if args.command in ("comprehend", "classify"):
        e = resolve_log(args.elog)
        b = resolve_belog(args.belog)
        tree = comprehend(e, _library(args.slogs), b, _config(args))
        if args.command == "comprehend":
            rows = []
            for node in tree.nodes():
                rows.append((
                    "TREE", str(node.level), node.node_id,
                    node.slog_id or "-",
                    ",".join(node.children) or "-",
                    ",".join(sorted(node.object_ids)),
                ))
            _emit(rows, ("tag", "level", "node", "slog", "children", "objects"), fmt)
            return 0
        result = classify_story(tree, b)
        rows = [(cls, f"{score:.4f}") for cls, score in sorted(result.scores.items())]
        _emit(rows, ("class", "score"), fmt)
        if result.vacuous:
            print("vacuous: no scene matched")
        return 0

    if args.command == "plan":
        world = resolve_log(args.world)
        b = resolve_belog(args.belog)
        plans = plan(args.goal, _library(args.slogs), world, b, _config(args))
        rows = []
        for i, p in enumerate(plans):
            rows.append((f"plan={i}", "+".join(p.slog_chain),
                         ",".join(f"{c}->{w}" for c, w in sorted(p.assignment.items()))))
        _emit(rows, ("plan", "chain", "assignment"), fmt)
        return 0

    return 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error at line {exc.line}, column {exc.column}: {exc.message}",
              file=sys.stderr)
        return 1
    except (CognilogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  - contract: internal errors exit 3
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
