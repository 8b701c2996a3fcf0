"""Verification suites: row semantics, theorem ranges, determinism."""

import re
from dataclasses import replace

import pytest

from mdgame import Outcome, TooLarge, make_context
from mdgame.families import FamilyKind
from mdgame.rules import Variant
from mdgame.verify import (
    CheckReport,
    CheckRow,
    CrossCheckFailure,
    SUITE_NAMES,
    EmptyRange,
    VerifyConfig,
    check_bias_props,
    check_farstar_paths,
    check_path_value_signs,
    check_table_aw,
    check_winners,
    format_report,
    run_all,
)


@pytest.fixture(scope="module")
def vctx():
    """Wide context so winner sweeps can pass n = 12."""
    return make_context(max_component=20)


def rows_by_instance(report):
    return {row.instance: row for row in report.rows}


class TestTableAw:
    def test_published_range_passes(self, vctx):
        report = check_table_aw(vctx, 12)
        assert report.passed
        rows = rows_by_instance(report)
        assert rows["path 4"].computed == "0"
        assert rows["path 9"].computed == "2"
        assert all(r.ok for r in report.rows)

    def test_formula_beyond_table(self, vctx):
        report = check_table_aw(vctx, 13)
        assert rows_by_instance(report)["path 13"].expected == "3"
        assert report.passed


class TestWinners:
    def test_classic_paths(self, vctx):
        report = check_winners(vctx, Variant.CLASSIC, FamilyKind.PATH, 2, 12)
        assert report.passed
        rows = rows_by_instance(report)
        assert rows["path 2"].ok is None  # below the theorem range
        assert rows["path 5"].ok is True
        assert rows["path 5"].note == "oracle agrees"

    def test_excluded_sizes_are_informational(self, vctx):
        report = check_winners(vctx, Variant.CLASSIC, FamilyKind.CYCLE, 3, 8)
        rows = rows_by_instance(report)
        assert rows["cycle 5"].ok is None
        assert rows["cycle 5"].computed == Outcome.SECOND_WINS.value
        assert rows["cycle 6"].ok is True

    def test_fl_path_exclusion(self, vctx):
        report = check_winners(vctx, Variant.FORBIDDEN_LEAF, FamilyKind.PATH, 8, 12)
        rows = rows_by_instance(report)
        assert rows["path 11"].ok is None
        assert rows["path 12"].ok is True
        assert report.passed

    def test_floor_is_clamped(self, vctx):
        report = check_winners(vctx, Variant.CLASSIC, FamilyKind.CYCLE, 1, 4)
        assert [r.instance for r in report.rows] == ["cycle 3", "cycle 4"]
        with pytest.raises(EmptyRange):
            check_winners(vctx, Variant.CLASSIC, FamilyKind.CYCLE, 1, 2)
        with pytest.raises(EmptyRange):
            VerifyConfig(winners_family=FamilyKind.PATH, winners_from=9, winners_to=3)

    def test_oracle_budget_limits_note(self, vctx):
        # the Oracle referees each family's default range, paths to 16
        report = check_winners(vctx, Variant.CLASSIC, FamilyKind.PATH, 16, 17)
        rows = rows_by_instance(report)
        assert rows["path 16"].note == "oracle agrees"
        assert rows["path 17"].note == ""

    def test_cross_check_failure_raises(self, vctx):
        broken = make_context()
        broken.oracle.outcome = lambda g, variant: Outcome.RIGHT_WINS
        with pytest.raises(CrossCheckFailure):
            check_winners(broken, Variant.CLASSIC, FamilyKind.PATH, 5, 6)


class TestSignsAndFarstar:
    def test_classic_signs(self, vctx):
        report = check_path_value_signs(vctx, Variant.CLASSIC, 14)
        assert report.passed

    def test_fl_signs(self, vctx):
        report = check_path_value_signs(vctx, Variant.FORBIDDEN_LEAF, 14)
        assert report.passed

    def test_mf_has_no_sign_corollary(self, vctx):
        with pytest.raises(ValueError):
            check_path_value_signs(vctx, Variant.MUTUAL_FAILURES, 8)

    def test_farstar_rows(self, vctx):
        report = check_farstar_paths(vctx, 10)
        rows = rows_by_instance(report)
        assert rows["path 3"].ok is None  # informational below n = 5
        assert rows["path 5"].ok is True
        assert report.passed


class TestOversizedChecks:
    """A check whose largest graph does not fit its engine refuses before
    valuing any graph."""

    @staticmethod
    def idle(max_component):
        ctx = make_context(max_component=max_component)

        def game_of(*args):
            raise AssertionError("a graph was valued before the size check")

        ctx.engine.game_of = game_of  # outcome_of goes through it too
        return ctx

    @pytest.mark.parametrize("check", [
        lambda ctx, n: check_table_aw(ctx, n),
        lambda ctx, n: check_farstar_paths(ctx, n),
        lambda ctx, n: check_path_value_signs(ctx, Variant.CLASSIC, n),
        lambda ctx, n: check_path_value_signs(ctx, Variant.FORBIDDEN_LEAF, n),
        lambda ctx, n: check_winners(ctx, Variant.MUTUAL_FAILURES, FamilyKind.PATH, 2, n),
    ])
    def test_paths_past_the_limit(self, check):
        with pytest.raises(TooLarge, match="above the component limit 10"):
            check(self.idle(10), 11)
        with pytest.raises(TooLarge, match="above the canonicalization limit 255"):
            check(self.idle(255), 300)

    def test_winners_past_the_limit(self):
        # wheel 10 has 11 vertices
        with pytest.raises(TooLarge, match="wheel 10 has 11 vertices"):
            check_winners(self.idle(10), Variant.CLASSIC, FamilyKind.WHEEL, 3, 10)
        with pytest.raises(TooLarge):
            check_winners(self.idle(255), Variant.CLASSIC, FamilyKind.CYCLE, 250, 300)


class TestBias:
    def test_exhaustive_through_six(self, vctx):
        report = check_bias_props(vctx, 6)
        assert report.passed
        assert len(report.rows) == 6
        assert report.rows[-1].instance == "n=6 (112 graphs)"


class TestReports:
    def test_finish_flags_failed_rows(self):
        report = CheckReport(name="x", scope="y")
        report.rows.append(CheckRow(instance="a", computed="1", expected="1", ok=True))
        report.rows.append(CheckRow(instance="b", computed="2", expected="3", ok=False))
        assert report.finish().passed is False

    def test_informational_rows_do_not_fail(self):
        report = CheckReport(name="x", scope="y")
        report.rows.append(CheckRow(instance="a", computed="?"))
        assert report.finish().passed is True

    def test_format_report_marks(self, vctx):
        report = check_winners(vctx, Variant.CLASSIC, FamilyKind.PATH, 3, 6)
        text = format_report(report)
        assert text.startswith("[PASS] winners classic path")
        assert "info" in text and "ok" in text

    def test_stable_dict_excludes_timing(self, vctx):
        report = check_table_aw(vctx, 6)
        assert "elapsed_s" in report.to_dict()
        assert "elapsed_s" not in report.stable_dict()


class TestRunAll:
    CONFIG = VerifyConfig(
        max_n=7,
        bias_max_vertices=5,
        winners_to=6,
    )

    def test_all_suites_pass(self):
        reports = run_all(self.CONFIG, make_context())
        assert reports and all(r.passed for r in reports)
        names = {r.name for r in reports}
        assert "table-aw" in names and "bias-props" in names

    def test_deterministic_across_fresh_contexts(self):
        a = [r.stable_dict() for r in run_all(self.CONFIG, make_context())]
        b = [r.stable_dict() for r in run_all(self.CONFIG, make_context())]
        assert a == b

    def test_default_context_reaches_the_default_ranges(self):
        # the path suites run to path 16, beyond DEFAULT_COMPONENT_LIMIT
        reports = run_all(VerifyConfig(suites=("path-signs",)))
        assert [r.scope for r in reports] == ["n=2..16", "n=2..16"]
        assert all(r.passed for r in reports)

    def test_reports_in_suite_order(self):
        config = VerifyConfig(suites=tuple(reversed(SUITE_NAMES)), max_n=5,
                              bias_max_vertices=3, winners_family=FamilyKind.PATH,
                              winners_to=4)
        ctx = make_context()
        alone = [r.name for suite in SUITE_NAMES
                 for r in run_all(replace(config, suites=(suite,)), ctx)]
        assert [r.name for r in run_all(config, ctx)] == alone
        assert len(alone) == 8  # winners for each variant, path-signs for two

    @pytest.mark.parametrize("kwargs, problem", [
        ({"suites": ()}, "no suite selected (choose from "
                         "table-aw, winners, path-signs, farstar, bias)"),
        ({"suites": ("winner",)}, "unknown suite 'winner' (choose from "
                                  "table-aw, winners, path-signs, farstar, bias)"),
        ({"winners_family": FamilyKind.STAR}, "no winners table for star"),
    ])
    def test_selection_that_checks_nothing(self, kwargs, problem):
        with pytest.raises(EmptyRange, match=re.escape(problem)):
            VerifyConfig(**kwargs)

    def test_winner_filters(self):
        config = VerifyConfig(
            suites=("winners",),
            winners_variant=Variant.CLASSIC,
            winners_family=FamilyKind.COMPLETE,
            winners_to=5,
        )
        reports = run_all(config, make_context())
        assert len(reports) == 1
        assert reports[0].name == "winners classic complete"
