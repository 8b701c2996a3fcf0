"""Command-line interface.

Usage:
    mdgame value "path 5" --variant mf
    mdgame value graph.edges --variant classic --format json
    mdgame aw "path 9"
    mdgame verify --suite winners --variant fl --family path --to 20

Graph inputs are either a family expression ("path 5", "wheel 6",
"biclique 2 3", sums with "+": "path 4 + cycle 5") or a file in edge-list
format: a header line "n m", then m lines "u v" with 0-based endpoints;
blank lines and lines starting with "#" are ignored.  "-" reads the
edge list from stdin.

Exit codes: 0 success, 1 verification failure, 2 unusable input (graph
text, option value, an unknown suite, a winners selection with no table or
an empty winners range, or an output path that is a directory or lies in a
missing one), 3 resource limit (graph too large, a verify range above 255
vertices, memo cap, unstable remote star, value text too long to print),
4 precondition violation (e.g. atomic weight of a non-all-small game).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .cgt import GameId, MemoCapExceeded, Outcome, TextTooLong
from .atomic import NotAllSmall, NotInteger, RemoteStarUnstable
from .families import BadParams, FamilyKind, FamilySpec, build
from .graphs import _BYTE_LIMIT, Graph, TooLarge
from .rules import DEFAULT_COMPONENT_LIMIT, EngineContext, Variant, make_context
from .verify import (
    SUITE_NAMES,
    EmptyRange,
    VerifyConfig,
    format_report,
    run_all,
)


class ParseError(ValueError):
    """Unusable graph input text."""


# ----------------------------------------------------------------------
# input parsing
# ----------------------------------------------------------------------

def parse_family_term(term: str) -> FamilySpec:
    words = term.split()
    if not words:
        raise ParseError("empty family term")
    try:
        kind = FamilyKind(words[0].lower())
    except ValueError:
        raise ParseError(f"unknown family {words[0]!r}") from None
    if not 1 <= len(words) - 1 <= 2:
        raise ParseError(f"expected 1 or 2 parameters after {kind.value}, got {len(words) - 1}")
    try:
        return FamilySpec(kind, *map(int, words[1:]))
    except ValueError:
        raise ParseError(f"non-integer parameter in {term!r}") from None
    except BadParams as exc:
        raise ParseError(str(exc)) from None


def parse_family_expression(text: str) -> Graph:
    graph: Optional[Graph] = None
    for term in text.split("+"):
        g = build(parse_family_term(term))
        graph = g if graph is None else graph.disjoint_union(g)
    assert graph is not None
    return graph


def parse_edge_list(text: str) -> Graph:
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError('edge list must start with a "n m" header line')
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("non-integer edge list header") from None
    if n < 0 or m < 0:
        raise ParseError("negative count in edge list header")
    if len(lines) - 1 != m:
        raise ParseError(f"header says {m} edges, found {len(lines) - 1}")
    edges = []
    seen: dict[tuple[int, int], str] = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}") from None
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"edge {line!r} repeats edge {seen[key]!r}")
        seen[key] = line
        edges.append((u, v))
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_graph_input(text: str) -> Graph:
    """Family expression, path to an edge-list file, or '-' for stdin."""
    if text == "-":
        return parse_edge_list(sys.stdin.read())
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    return parse_family_expression(text)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _output_path(text: str) -> str:
    # checked before any work, so a typo does not cost the whole run
    folder = os.path.dirname(text) or "."
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"directory {folder!r} does not exist")
    return text


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--memo-cap", type=_at_least_one, default=None,
                   help="fail once any memo table reaches this many entries")
    p.add_argument("--cache", type=_output_path, default=None,
                   help="value-cache file, loaded before and saved after the run")


def _make_context(args: argparse.Namespace, max_component: int) -> EngineContext:
    ctx = make_context(max_component=max_component, memo_cap=args.memo_cap)
    if args.cache and os.path.exists(args.cache) and not ctx.engine.load_cache(args.cache):
        print(f"warning: value cache {args.cache} not loaded ({ctx.engine.load_error}); "
              "it will be overwritten", file=sys.stderr)
    return ctx


def _finish(args: argparse.Namespace, ctx: EngineContext) -> None:
    if args.cache:
        ctx.engine.save_cache(args.cache)


def _value_payload(ctx: EngineContext, graph: Graph, variant: Variant,
                   value: GameId, outcome: Outcome) -> dict:
    store = ctx.store
    seen: dict[GameId, int] = {}  # each game's number, in preorder
    sides = []
    stack = [value]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen[g] = len(seen)
            left, right = store.display_options(g)
            sides.append((left, right))
            stack += reversed(left + right)
    nodes = [{"left": [seen[o] for o in left], "right": [seen[o] for o in right]}
             for left, right in sides]
    name = store.name_value(value)
    return {
        "vertices": graph.n,
        "edges": graph.edge_count,
        "variant": variant.value,
        "value": name.text,
        "kind": name.kind,
        "canonical": store.canonical_text(value),
        "outcome": outcome.value,
        "dag": {"nodes": nodes, "root": seen[value]},
    }


def cmd_value(args: argparse.Namespace) -> int:
    graph = parse_graph_input(args.graph)
    variant = Variant(args.variant)
    ctx = _make_context(args, args.max_component)
    value = ctx.engine.game_of(graph, variant)
    outcome = ctx.store.outcome(value)
    _finish(args, ctx)
    if args.format == "json":
        print(json.dumps(_value_payload(ctx, graph, variant, value, outcome), indent=2))
    else:
        name = ctx.store.name_value(value)
        print(f"graph: {args.graph} ({graph.n} vertices, {graph.edge_count} edges)")
        print(f"variant: {variant.value}")
        print(f"value: {name.text}")
        if name.kind != "other":
            print(f"canonical: {ctx.store.canonical_text(value)}")
        print(f"outcome: {outcome.value}")
    return 0


def cmd_aw(args: argparse.Namespace) -> int:
    graph = parse_graph_input(args.graph)
    variant = Variant(args.variant)
    ctx = _make_context(args, args.max_component)
    value = ctx.engine.game_of(graph, variant)
    aw = ctx.atomic.atomic_weight(value)
    _finish(args, ctx)
    aw_text = ctx.store.render(aw.value)
    if args.format == "json":
        print(json.dumps({
            "variant": variant.value,
            "value": ctx.store.render(value),
            "atomic_weight": aw.integer if aw.is_integer else aw_text,
            "is_integer": aw.is_integer,
        }, indent=2))
    else:
        print(f"atomic weight: {aw_text}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    config = VerifyConfig(
        suites=tuple(args.suite or SUITE_NAMES),
        max_n=args.max_n,
        winners_variant=Variant(args.variant) if args.variant else None,
        winners_family=FamilyKind(args.family) if args.family else None,
        winners_from=args.from_n,
        winners_to=args.to,
        bias_max_vertices=args.max_vertices,
    )
    ctx = _make_context(args, _BYTE_LIMIT)  # no limit but the labeling's own
    reports = run_all(config, ctx)
    _finish(args, ctx)
    all_passed = all(r.passed for r in reports)
    payload = {"all_passed": all_passed, "reports": [r.to_dict() for r in reports]}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(format_report(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0 if all_passed else 1


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdgame",
        description="Exact values, atomic weights, and verification for "
                    "vertex/edge deletion games on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, about, variant, func in (
        ("value", "canonical value and outcome of a position", "classic", cmd_value),
        ("aw", "atomic weight of a position's value", "mf", cmd_aw),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("graph", help="family expression, edge-list file, or '-'")
        p.add_argument("--variant", choices=[v.value for v in Variant], default=variant)
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--max-component", type=_at_least_one,
                       default=DEFAULT_COMPONENT_LIMIT,
                       help="largest connected component the engine will canonicalize")
        _add_engine_flags(p)
        p.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="recompute known results and report")
    p_verify.add_argument("--suite", action="append", default=None,
                          help=f"suite to run (repeatable): {', '.join(SUITE_NAMES)}")
    p_verify.add_argument("--variant", choices=[v.value for v in Variant], default=None,
                          help="restrict the winners suite to one variant")
    p_verify.add_argument("--family",
                          choices=[k.value for k in FamilyKind], default=None,
                          help="restrict the winners suite to one family")
    p_verify.add_argument("--from", dest="from_n", type=int, default=None,
                          help="smallest family parameter for winners")
    p_verify.add_argument("--to", type=int, default=None,
                          help="largest family parameter for winners")
    p_verify.add_argument("--max-n", type=int, default=None,
                          help="range ceiling for table-aw / path-signs / farstar")
    p_verify.add_argument("--max-vertices", type=int,
                          default=VerifyConfig.bias_max_vertices,
                          help="vertex ceiling for the bias suite")
    p_verify.add_argument("--report", type=_output_path, default=None,
                          help="write the JSON report to this file")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    _add_engine_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, EmptyRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TooLarge, MemoCapExceeded, RemoteStarUnstable, TextTooLong) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NotAllSmall, NotInteger, BadParams) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
