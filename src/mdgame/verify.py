"""Verification suites: recompute the known results and report on them.

Each check returns a CheckReport holding per-instance rows.  A row with
``ok`` True/False participates in the pass/fail verdict; a row with ``ok``
None is informational only (instances outside any proved range).  Engine
outcomes are cross-checked against the brute-force Oracle on every size of
each family's default range; a disagreement there is not a "failed row"
but an engine defect, so it raises CrossCheckFailure immediately.
FAMILY_SIZES alone sizes the suites; the path suites share its path range.
Each check builds its largest graph first and raises TooLarge, before any
work, when that graph exceeds the engine's component limit.
VerifyConfig refuses before any work a selection that checks nothing
(EmptyRange, CLI exit 2) or a range above 255 vertices (TooLarge, exit 3).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from itertools import starmap
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .cgt import Comparison, EngineError, GameId, Outcome
from .families import FamilyKind, FamilySpec, build
from .graphs import _BYTE_LIMIT, Graph, TooLarge, connected_graphs
from .rules import EngineContext, Variant, _orbit_moves, _sides, make_context


class CrossCheckFailure(EngineError):
    """Engine and brute-force oracle disagreed on an instance."""


@dataclass(frozen=True)
class CheckRow:
    instance: str
    computed: str
    expected: Optional[str] = None
    ok: Optional[bool] = None  # None: informational, no assertion made
    note: str = ""


@dataclass
class CheckReport:
    name: str
    scope: str
    rows: list[CheckRow] = field(default_factory=list)
    passed: bool = True
    elapsed_s: float = 0.0  # from creation to finish()
    started: float = field(default_factory=time.perf_counter, init=False, repr=False)

    def finish(self) -> "CheckReport":
        self.passed = all(row.ok is not False for row in self.rows)
        self.elapsed_s = time.perf_counter() - self.started
        return self

    def to_dict(self) -> dict:
        d = self.stable_dict()
        d["elapsed_s"] = round(self.elapsed_s, 3)
        return d

    def stable_dict(self) -> dict:
        """Deterministic form: everything except timing."""
        return {
            "name": self.name,
            "scope": self.scope,
            "passed": self.passed,
            "rows": [asdict(r) for r in self.rows],
        }


def _report(name: str, scope: str, rows: Iterable[CheckRow]) -> CheckReport:
    """The report of rows, timed while they are computed."""
    report = CheckReport(name=name, scope=scope)
    report.rows.extend(rows)
    return report.finish()


def format_report(report: CheckReport) -> str:
    lines = [
        f"[{'PASS' if report.passed else 'FAIL'}] {report.name} ({report.scope}) "
        f"[{report.elapsed_s:.2f}s]"
    ]
    for r in report.rows:
        if r.ok is None:
            mark = "info"
        else:
            mark = "ok" if r.ok else "FAIL"
        exp = f" expected {r.expected}" if r.expected is not None else ""
        note = f"  ({r.note})" if r.note else ""
        lines.append(f"  {mark:4} {r.instance}: {r.computed}{exp}{note}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# family sizes
# ----------------------------------------------------------------------

class FamilySizes(NamedTuple):
    """Sizes the winners suite covers for one family; the brute-force
    Oracle replays every size up to default_largest."""

    smallest: int
    default_largest: int


FAMILY_SIZES: dict[FamilyKind, FamilySizes] = {
    FamilyKind.PATH: FamilySizes(2, 16),
    FamilyKind.CYCLE: FamilySizes(3, 14),
    FamilyKind.WHEEL: FamilySizes(3, 8),
    FamilyKind.COMPLETE: FamilySizes(2, 6),
}


class EmptyRange(ValueError):
    """A size range of a suite holds no instance to check."""


def _sizes(family: FamilyKind, lo: int, hi: int) -> range:
    """The family's sizes in lo..hi; raises EmptyRange when there are none."""
    smallest = FAMILY_SIZES[family].smallest
    sizes = range(max(lo, smallest), hi + 1)
    if not sizes:
        raise EmptyRange(f"no {family.value} size in n={lo}..{hi} "
                         f"(the smallest is {smallest})")
    return sizes


def _cross_check(ctx: EngineContext, spec: FamilySpec, g: Graph, variant: Variant,
                 computed: Outcome) -> bool:
    if spec.a > FAMILY_SIZES[spec.kind].default_largest:
        return False
    actual = ctx.oracle.outcome(g, variant)
    if actual is not computed:
        raise CrossCheckFailure(
            f"{variant.value} {spec}: engine says {computed.value}, "
            f"oracle says {actual.value}"
        )
    return True


def _fits(ctx: EngineContext, family: FamilyKind, n: int) -> None:
    """Raise TooLarge unless the family's graph of size n fits ctx's engine."""
    g = build(FamilySpec(family, n))  # raises TooLarge above 255 vertices
    if g.n > ctx.engine.max_component:
        raise TooLarge(f"{family.value} {n} has {g.n} vertices, above the "
                       f"component limit {ctx.engine.max_component}")


# ----------------------------------------------------------------------
# winner theorems
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WinnerClaim:
    start: int
    excluded: frozenset[int]
    winner: Outcome

    def applies(self, n: int) -> bool:
        return n >= self.start and n not in self.excluded


WINNER_CLAIMS: dict[tuple[Variant, FamilyKind], WinnerClaim] = {
    (Variant.CLASSIC, FamilyKind.PATH): WinnerClaim(5, frozenset(), Outcome.LEFT_WINS),
    (Variant.CLASSIC, FamilyKind.CYCLE): WinnerClaim(3, frozenset({5}), Outcome.LEFT_WINS),
    (Variant.CLASSIC, FamilyKind.WHEEL): WinnerClaim(3, frozenset({5}), Outcome.LEFT_WINS),
    (Variant.CLASSIC, FamilyKind.COMPLETE): WinnerClaim(3, frozenset(), Outcome.LEFT_WINS),
    (Variant.FORBIDDEN_LEAF, FamilyKind.PATH): WinnerClaim(8, frozenset({11}), Outcome.RIGHT_WINS),
    (Variant.FORBIDDEN_LEAF, FamilyKind.CYCLE): WinnerClaim(8, frozenset({11}), Outcome.RIGHT_WINS),
    (Variant.FORBIDDEN_LEAF, FamilyKind.COMPLETE): WinnerClaim(5, frozenset(), Outcome.LEFT_WINS),
    (Variant.MUTUAL_FAILURES, FamilyKind.PATH): WinnerClaim(9, frozenset(), Outcome.LEFT_WINS),
    (Variant.MUTUAL_FAILURES, FamilyKind.CYCLE): WinnerClaim(10, frozenset(), Outcome.LEFT_WINS),
    (Variant.MUTUAL_FAILURES, FamilyKind.WHEEL): WinnerClaim(10, frozenset(), Outcome.LEFT_WINS),
    (Variant.MUTUAL_FAILURES, FamilyKind.COMPLETE): WinnerClaim(5, frozenset(), Outcome.LEFT_WINS),
}


def check_winners(ctx: EngineContext, variant: Variant, family: FamilyKind,
                  lo: int, hi: int) -> CheckReport:
    """Outcomes across a family range, asserted where a theorem applies.
    Raises EmptyRange when no size of the family lies in lo..hi, and
    TooLarge when the largest does not fit ctx's engine."""
    claim = WINNER_CLAIMS.get((variant, family))
    sizes = _sizes(family, lo, hi)
    _fits(ctx, family, sizes[-1])

    def row(n: int) -> CheckRow:
        spec = FamilySpec(family, n)
        g = build(spec)
        outcome = ctx.engine.outcome_of(g, variant)
        note = "oracle agrees" if _cross_check(ctx, spec, g, variant, outcome) else ""
        claimed = claim.winner if claim is not None and claim.applies(n) else None
        return CheckRow(instance=str(spec), computed=outcome.value, note=note,
                        expected=None if claimed is None else claimed.value,
                        ok=None if claimed is None else outcome is claimed)

    return _report(f"winners {variant.value} {family.value}", f"n={lo}..{hi}",
                   map(row, sizes))


# ----------------------------------------------------------------------
# path suites: atomic weight formula, sign corollaries, far star
# ----------------------------------------------------------------------

def _paths(ctx: EngineContext, variant: Variant, max_n: int) -> Iterator[tuple[int, GameId]]:
    """Each path 2..max_n with its value under variant, valued as iterated;
    raises TooLarge at once when path max_n does not fit ctx's engine."""
    _fits(ctx, FamilyKind.PATH, max_n)
    return ((n, ctx.engine.game_of(build(FamilySpec(FamilyKind.PATH, n)), variant))
            for n in range(2, max_n + 1))


def check_table_aw(ctx: EngineContext, max_n: int) -> CheckReport:
    """Atomic weights of mutual-failures paths against the closed form.

    Expected values: 0 for n in {2,3,4}, then ceil(n/4) - 1 from n = 5 on
    (which also reproduces the published n <= 12 table).
    """
    def row(n: int, value: GameId) -> CheckRow:
        expected = 0 if n < 5 else math.ceil(n / 4) - 1
        aw = ctx.atomic.atomic_weight(value)
        return CheckRow(
            instance=f"path {n}",
            computed=ctx.store.render(aw.value),
            expected=str(expected),
            ok=aw.is_integer and aw.integer == expected,
        )

    return _report("table-aw", f"n=2..{max_n}",
                   starmap(row, _paths(ctx, Variant.MUTUAL_FAILURES, max_n)))


def check_path_value_signs(ctx: EngineContext, variant: Variant,
                           max_n: int) -> CheckReport:
    """Classic path values are never negative; forbidden-leaf never positive."""
    if variant is Variant.MUTUAL_FAILURES:
        raise ValueError("sign corollaries exist for classic and fl only")
    banned, label = ((Comparison.LESS, "not < 0") if variant is Variant.CLASSIC
                     else (Comparison.GREATER, "not > 0"))

    def row(n: int, value: GameId) -> CheckRow:
        cmp = ctx.store.compare(value, ctx.store.zero)
        return CheckRow(
            instance=f"path {n}",
            computed=f"vs 0: {cmp.value}",
            expected=label,
            ok=cmp is not banned,
        )

    return _report(f"path-signs {variant.value}", f"n=2..{max_n}",
                   starmap(row, _paths(ctx, variant, max_n)))


def check_farstar_paths(ctx: EngineContext, max_n: int) -> CheckReport:
    """From n = 5 on, mutual-failures paths exceed every remote star and
    carry atomic weight >= 1.  Smaller paths are reported informationally."""
    def row(n: int, value: GameId) -> CheckRow:
        order = ctx.atomic.remote_star_order(value)
        aw = ctx.atomic.atomic_weight(value)
        computed = f"{order.value}, AW={ctx.store.render(aw.value)}"
        if n < 5:
            return CheckRow(instance=f"path {n}", computed=computed)
        ok = order is Comparison.GREATER and aw.is_integer and aw.integer >= 1
        return CheckRow(instance=f"path {n}", computed=computed,
                        expected="Greater, AW>=1", ok=ok)

    return _report("farstar-paths", f"n=2..{max_n}",
                   starmap(row, _paths(ctx, Variant.MUTUAL_FAILURES, max_n)))


# ----------------------------------------------------------------------
# move-availability bias
# ----------------------------------------------------------------------

def check_bias_props(ctx: EngineContext, max_vertices: int) -> CheckReport:
    """Exhaustive over connected graphs: classic Right-movable implies
    Left-movable, and forbidden-leaf Left-movable implies Right-movable."""
    if max_vertices > _BYTE_LIMIT:  # else the enumeration would run for ages first
        raise TooLarge(f"n<={max_vertices} is above the canonicalization limit {_BYTE_LIMIT}")
    def rows() -> Iterator[CheckRow]:
        reps = connected_graphs(max_vertices)
        # only whether a move exists matters, so no automorphisms are needed
        for n in sorted(reps):
            moves = [_orbit_moves(g, ()) for g in reps[n]]
            classic = [_sides(*m, Variant.CLASSIC) for m in moves]
            fl = [_sides(*m, Variant.FORBIDDEN_LEAF) for m in moves]
            classic_bad = sum(bool(rights and not lefts) for lefts, rights in classic)
            fl_bad = sum(bool(lefts and not rights) for lefts, rights in fl)
            ok = not classic_bad and not fl_bad
            note = ""
            if not ok:
                note = f"{classic_bad} classic / {fl_bad} fl counterexamples"
            yield CheckRow(
                instance=f"n={n} ({len(reps[n])} graphs)",
                computed="no counterexamples" if ok else "counterexamples found",
                expected="no counterexamples",
                ok=ok,
                note=note,
            )

    return _report("bias-props", f"connected graphs, n<={max_vertices}", rows())


# ----------------------------------------------------------------------
# full run
# ----------------------------------------------------------------------

# each suite's reports, in run order
SUITES: dict[str, Callable[[EngineContext, "VerifyConfig"], list[CheckReport]]] = {
    "table-aw": lambda ctx, config: [check_table_aw(ctx, config.paths_to())],
    "winners": lambda ctx, config: [check_winners(ctx, *run) for run in config.winner_runs()],
    "path-signs": lambda ctx, config: [check_path_value_signs(ctx, variant, config.paths_to())
                                       for variant in (Variant.CLASSIC, Variant.FORBIDDEN_LEAF)],
    "farstar": lambda ctx, config: [check_farstar_paths(ctx, config.paths_to())],
    "bias": lambda ctx, config: [check_bias_props(ctx, config.bias_max_vertices)],
}
SUITE_NAMES = tuple(SUITES)


@dataclass
class VerifyConfig:
    """What run_all checks.  max_n bounds table-aw, path-signs and farstar
    alike (None: the path family's default range); winners bounds left None
    come from FAMILY_SIZES.  Creation checks the whole config, whichever
    suites it selects: no suite, an unknown suite, a winners selection that
    names no table, an empty winners range, a max_n below 2 or a
    bias_max_vertices below 1 raises EmptyRange, and a range whose largest
    graph has more than 255 vertices raises TooLarge."""

    suites: tuple[str, ...] = SUITE_NAMES
    max_n: Optional[int] = None
    bias_max_vertices: int = 6
    winners_variant: Optional[Variant] = None
    winners_family: Optional[FamilyKind] = None
    winners_from: Optional[int] = None
    winners_to: Optional[int] = None

    def __post_init__(self) -> None:
        choices = f"(choose from {', '.join(SUITES)})"
        if not self.suites:
            raise EmptyRange(f"no suite selected {choices}")
        for name in self.suites:
            if name not in SUITES:
                raise EmptyRange(f"unknown suite {name!r} {choices}")
        if self.max_n is not None and self.max_n < 2:
            raise EmptyRange(f"no size in n=2..{self.max_n} (the smallest is 2)")
        if self.bias_max_vertices < 1:
            raise EmptyRange(f"no connected graph in n<={self.bias_max_vertices} "
                             "(the smallest has 1 vertex)")
        runs = self.winner_runs()
        if not runs:
            selected = (self.winners_variant, self.winners_family)
            raise EmptyRange("no winners table for "
                             + " ".join(s.value for s in selected if s is not None))
        # build raises TooLarge before building a graph it could not label
        ends = [(family, hi) for _, family, _, hi in runs]
        for family, hi in [(FamilyKind.PATH, self.paths_to())] + ends:
            build(FamilySpec(family, hi))
        if (n := self.bias_max_vertices) > _BYTE_LIMIT:  # as check_bias_props refuses it
            raise TooLarge(f"n<={n} is above the canonicalization limit {_BYTE_LIMIT}")

    def winner_runs(self) -> list[tuple[Variant, FamilyKind, int, int]]:
        """(variant, family, lo, hi) for each winners report, in order."""
        runs = []
        for variant, family in WINNER_CLAIMS:
            if self.winners_variant not in (None, variant):
                continue
            if self.winners_family not in (None, family):
                continue
            sizes = FAMILY_SIZES[family]
            lo = sizes.smallest if self.winners_from is None else self.winners_from
            hi = sizes.default_largest if self.winners_to is None else self.winners_to
            _sizes(family, lo, hi)
            runs.append((variant, family, lo, hi))
        return runs

    def paths_to(self) -> int:
        """Largest path of table-aw, path-signs and farstar."""
        if self.max_n is None:
            return FAMILY_SIZES[FamilyKind.PATH].default_largest
        return self.max_n


def run_all(config: VerifyConfig, ctx: Optional[EngineContext] = None) -> list[CheckReport]:
    """Run the selected suites and return their reports in SUITES order."""
    if ctx is None:
        ctx = make_context(max_component=_BYTE_LIMIT)
    return [report for name, suite in SUITES.items() if name in config.suites
            for report in suite(ctx, config)]
