"""Command-line interface: parsing, output formats, exit codes, caching."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mdgame import Graph, canonical_form, cgt, cli
from mdgame.cli import (
    ParseError,
    _value_payload,
    main,
    parse_edge_list,
    parse_family_expression,
    parse_family_term,
    parse_graph_input,
)
from mdgame.families import FamilyKind, FamilySpec, build, path, wheel
from mdgame.rules import Variant, canonical_key, make_context
from test_rules import forged_chain


# ----------------------------------------------------------------------
# input parsing
# ----------------------------------------------------------------------

class TestFamilyParsing:
    def test_terms(self):
        assert parse_family_term("path 5") == FamilySpec(FamilyKind.PATH, 5)
        assert parse_family_term("  biclique 2 3 ") == FamilySpec(
            FamilyKind.BICLIQUE, 2, 3)

    def test_term_round_trip(self):
        for spec in [FamilySpec(FamilyKind.WHEEL, 6),
                     FamilySpec(FamilyKind.BICLIQUE, 3, 4)]:
            again = parse_family_term(str(spec))
            assert again == spec
            assert canonical_form(build(again)) == canonical_form(build(spec))

    def test_expression_sums(self):
        g = parse_family_expression("path 4 + cycle 5")
        assert (g.n, g.edge_count) == (9, 8)
        assert len(g.components()) == 2

    @pytest.mark.parametrize(
        "bad",
        ["", "blob 3", "path", "path x", "path 3 4", "cycle 2", "wheel 2",
         "path 0", "biclique 2", "path 1 2 3", "biclique 1 2 3"],
    )
    def test_bad_terms(self, bad):
        with pytest.raises(ParseError):
            parse_family_term(bad)


class TestEdgeListParsing:
    def test_basic_with_comments(self):
        text = "# a path on three vertices\n3 2\n\n0 1\n1 2\n"
        g = parse_edge_list(text)
        assert canonical_form(g) == canonical_form(path(3))

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "3\n0 1\n",
            "x y\n",
            "2 1\n0 1\n1 0\n",  # header miscounts the edges
            "2 1\n0 2\n",  # endpoint out of range
            "2 1\n0 1 2\n",
            "2 1\nmoney none\n",
        ],
    )
    def test_bad_edge_lists(self, bad):
        with pytest.raises(ParseError):
            parse_edge_list(bad)

    def test_graph_input_from_file(self, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("2 1\n0 1\n")
        assert parse_graph_input(str(f)).edge_count == 1

    def test_graph_input_from_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 2\n0 1\n1 2\n"))
        assert parse_graph_input("-").n == 3


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

class TestValueCommand:
    def test_text_output(self, capsys):
        assert main(["value", "path 5", "--variant", "classic"]) == 0
        out = capsys.readouterr().out
        assert "value: 1/2" in out
        assert "canonical: {0|1}" in out
        assert "outcome: LeftWins" in out

    def test_json_output(self, capsys):
        assert main(["value", "path 5", "--variant", "mf", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] == 5
        assert payload["edges"] == 4
        assert payload["variant"] == "mf"
        assert payload["value"] == "↑*"
        assert payload["kind"] == "ups"
        assert payload["outcome"] == "FirstPlayerWins"
        nodes = payload["dag"]["nodes"]
        root = payload["dag"]["root"]
        assert 0 <= root < len(nodes)
        for node in nodes:
            for side in ("left", "right"):
                assert all(0 <= i < len(nodes) for i in node[side])

    def test_json_dag_numbers_games_in_preorder(self):
        def reference(store, value):  # the recursive preorder walk
            seen = {}

            def collect(g):
                if g not in seen:
                    seen[g] = len(seen)
                    left, right = store.display_options(g)
                    for o in left + right:
                        collect(o)

            collect(value)
            sides = [store.display_options(g) for g in seen]
            return {"nodes": [{"left": [seen[o] for o in left], "right": [seen[o] for o in right]}
                              for left, right in sides], "root": seen[value]}

        ctx = make_context()
        graphs = [(path(9), Variant.MUTUAL_FAILURES), (wheel(5), Variant.CLASSIC),
                  (parse_family_expression("cycle 6 + path 5"), Variant.FORBIDDEN_LEAF)]
        values = [(g, v, ctx.engine.game_of(g, v)) for g, v in graphs]
        chain = ctx.store.zero
        for _ in range(3000):
            chain = ctx.store.make_game([chain], [ctx.store.star])
        values.append((path(2), Variant.CLASSIC, chain))
        limit = sys.getrecursionlimit()
        for graph, variant, value in values:
            payload = _value_payload(ctx, graph, variant, value, ctx.store.outcome(value))
            sys.setrecursionlimit(limit + 4000)  # for the reference on the chain
            try:
                assert payload["dag"] == reference(ctx.store, value)
            finally:
                sys.setrecursionlimit(limit)
        assert len(payload["dag"]["nodes"]) == 3002  # the chain, 0 and *

    def test_text_and_json_agree(self, capsys):
        main(["value", "cycle 4", "--variant", "classic"])
        text = capsys.readouterr().out
        main(["value", "cycle 4", "--variant", "classic", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert f"value: {payload['value']}" in text
        assert f"outcome: {payload['outcome']}" in text


class TestAwCommand:
    def test_text_default_variant_is_mf(self, capsys):
        assert main(["aw", "path 9"]) == 0
        assert "atomic weight: 2" in capsys.readouterr().out

    def test_json(self, capsys):
        assert main(["aw", "path 6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "variant": "mf",
            "value": "{0,↑*|0,*}",
            "atomic_weight": 1,
            "is_integer": True,
        }


class TestVerifyCommand:
    def test_single_suite_text(self, capsys):
        code = main(["verify", "--suite", "table-aw", "--max-n", "8"])
        assert code == 0
        assert "[PASS] table-aw" in capsys.readouterr().out

    def test_json_and_report_file(self, capsys, tmp_path):
        report_file = tmp_path / "report.json"
        code = main([
            "verify", "--suite", "winners", "--variant", "classic",
            "--family", "path", "--to", "8", "--format", "json",
            "--report", str(report_file),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        assert payload["reports"][0]["name"] == "winners classic path"
        assert json.loads(report_file.read_text()) == payload

    def test_unknown_suite_is_parse_error(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_docstring_example_passes(self, capsys):
        # it runs fl paths to 20, past the Oracle's range and the default
        # component limit
        example, = [line.split() for line in cli.__doc__.splitlines()
                    if line.split()[:2] == ["mdgame", "verify"]]
        assert main(example[1:]) == 0
        assert "path 20: RightWins expected RightWins" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["path-signs", "table-aw", "farstar"])
    def test_path_suites_beyond_the_default_range(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--max-n", "20"]) == 0
        assert "(n=2..20)" in capsys.readouterr().out

    def test_no_component_limit_flag(self, capsys):
        # verify builds only the sizes its ranges name, so it takes no limit
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max-component", "16"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-component 16" in capsys.readouterr().err

    def test_defaults_pass(self, capsys):
        # the default ranges reach 16-vertex paths, which verify builds with
        # no component limit beyond the labeling's own, and the reports,
        # minus timing, must match the committed ones
        assert main(["verify", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_passed"] is True
        for report in payload["reports"]:
            del report["elapsed_s"]
        golden = Path(__file__).parent / "data" / "verify_default.json"
        assert json.dumps(payload, indent=2) + "\n" == golden.read_text(encoding="utf-8")


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------

class TestExitCodes:
    def test_parse_errors(self, capsys):
        assert main(["value", "cycle 2"]) == 2
        assert main(["value", "blob 3"]) == 2

    def test_bad_edge_file(self, tmp_path, capsys):
        f = tmp_path / "bad.edges"
        f.write_text("not an edge list\n")
        assert main(["value", str(f)]) == 2

    def test_component_limit(self, capsys):
        assert main(["value", "path 20", "--max-component", "5"]) == 3

    def test_more_than_255_vertices(self, capsys):
        # the canonical form stores n in one byte, whatever --max-component is
        assert main(["value", "path 256", "--max-component", "400"]) == 3
        assert "above the canonicalization limit 255" in capsys.readouterr().err

    def test_oversized_family_term_builds_nothing(self, monkeypatch, capsys):
        # the rows of path 300000 would take gigabytes, and it could never be
        # labeled, so the term is refused before any graph is built
        def refuse(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(Graph, "from_edges", refuse)
        assert main(["value", "path 300000"]) == 3
        assert "above the canonicalization limit 255" in capsys.readouterr().err

    def test_memo_cap(self, capsys):
        assert main(["value", "path 12", "--memo-cap", "4"]) == 3

    def test_value_text_too_long(self, monkeypatch, capsys):
        # the text of the mf path n value grows exponentially with n, so its
        # length is checked before any of it is built
        args = ["value", "path 30", "--variant", "mf", "--max-component", "30"]
        assert main(args) == 0
        out = capsys.readouterr().out
        text = out.splitlines()[2].removeprefix("value: ")
        assert len(text) > 100_000
        monkeypatch.setattr(cgt, "_TEXT_LIMIT", len(text))
        assert main(args) == 0
        assert capsys.readouterr().out == out
        monkeypatch.setattr(cgt, "_TEXT_LIMIT", len(text) - 1)
        for fmt in ("text", "json"):
            assert main(args + ["--format", fmt]) == 3
            assert capsys.readouterr() == ("", f"error: the value's text would be "
                                               f"{len(text):,} characters, above the "
                                               f"limit of {len(text) - 1:,}\n")

    def test_precondition_violation(self, capsys):
        # classic P4 = {1|0} is not all-small, so aw refuses
        assert main(["aw", "path 4", "--variant", "classic"]) == 4

    def test_repeated_edge(self, tmp_path, capsys):
        f = tmp_path / "twice.edges"
        f.write_text("3 3\n0 1\n1 0\n1 2\n")
        assert main(["value", str(f)]) == 2
        assert capsys.readouterr().err == "error: edge '1 0' repeats edge '0 1'\n"

    @pytest.mark.parametrize("flag, value", [
        ("--memo-cap", "-1"), ("--memo-cap", "0"), ("--max-component", "-3"),
    ])
    def test_limit_below_one(self, flag, value, capsys):
        # rejected while parsing arguments, like any other bad option value
        with pytest.raises(SystemExit) as exc:
            main(["value", "path 4", flag, value])
        assert exc.value.code == 2
        assert f"{flag}: must be at least 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("args, problem", [
        (["--from", "9", "--to", "3", "--family", "path", "--variant", "classic"],
         "no path size in n=9..3 (the smallest is 2)"),
        (["--family", "cycle", "--to", "2"],
         "no cycle size in n=3..2 (the smallest is 3)"),
        (["--family", "star"], "no winners table for star"),
        (["--family", "biclique"], "no winners table for biclique"),
        (["--variant", "fl", "--family", "wheel"], "no winners table for fl wheel"),
    ])
    def test_empty_winners_range(self, args, problem, monkeypatch, capsys):
        # rejected before any suite runs, not reported as a pass
        def no_work(**kwargs):
            raise AssertionError("computed before checking the winners range")

        monkeypatch.setattr("mdgame.cli.make_context", no_work)
        assert main(["verify", "--suite", "winners"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {problem}\n"

    @pytest.mark.parametrize("args, problem", [
        (["--suite", "table-aw", "--suite", "farstar", "--max-n", "1"],
         "no size in n=2..1 (the smallest is 2)"),
        (["--suite", "path-signs", "--max-n", "-4"],
         "no size in n=2..-4 (the smallest is 2)"),
        (["--suite", "bias", "--max-vertices", "0"],
         "no connected graph in n<=0 (the smallest has 1 vertex)"),
    ])
    def test_empty_size_ceiling(self, args, problem, monkeypatch, capsys):
        # rejected before any suite runs, like an empty winners range
        def no_work(**kwargs):
            raise AssertionError("computed before checking the size ceiling")

        monkeypatch.setattr("mdgame.cli.make_context", no_work)
        assert main(["verify"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {problem}\n"

    @pytest.mark.parametrize("args, problem", [
        (["--suite", "path-signs", "--max-n", "300"],
         "path 300 has 300 vertices, above the canonicalization limit 255"),
        (["--suite", "winners", "--variant", "classic", "--family", "cycle",
          "--from", "250", "--to", "300"],
         "cycle 300 has 300 vertices, above the canonicalization limit 255"),
    ])
    def test_range_above_255_vertices(self, args, problem, monkeypatch, capsys):
        # such a range could never finish, so it is refused before any work
        def no_work(**kwargs):
            raise AssertionError("computed before checking the range's largest graph")

        monkeypatch.setattr("mdgame.cli.make_context", no_work)
        assert main(["verify"] + args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {problem}\n"

    @pytest.mark.parametrize("args", [
        ["value", "path 4", "--cache"],
        ["verify", "--suite", "table-aw", "--report"],
    ])
    @pytest.mark.parametrize("exists", [False, True])
    def test_unwritable_output_path(self, args, exists, tmp_path, monkeypatch, capsys):
        # rejected while parsing arguments, before any work
        def no_work(**kwargs):
            raise AssertionError("computed before checking the output path")

        monkeypatch.setattr("mdgame.cli.make_context", no_work)
        target = tmp_path if exists else tmp_path / "missing" / "out"
        with pytest.raises(SystemExit) as exc:
            main(args + [str(target)])
        assert exc.value.code == 2
        problem = f"'{target}' is a directory" if exists else (
            f"directory '{target.parent}' does not exist")
        assert f"error: argument {args[-1]}: {problem}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# cache flag
# ----------------------------------------------------------------------

class TestCacheFlag:
    def test_cache_written_and_reused(self, tmp_path, capsys):
        cache = tmp_path / "values.mdgc"
        assert main(["value", "path 7", "--variant", "mf",
                     "--cache", str(cache)]) == 0
        first = capsys.readouterr()
        assert first.err == ""  # no file yet is not a rejected cache
        assert cache.exists() and cache.stat().st_size > 0
        assert main(["value", "path 7", "--variant", "mf",
                     "--cache", str(cache)]) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert second.err == ""

    def test_cache_from_another_run_does_not_change_output(self, tmp_path, capsys):
        # this mf value has options that are themselves multi-option games;
        # the wheel run interns some of them first, which once reordered them
        graph = tmp_path / "g.txt"
        graph.write_text("6 7\n0 1\n0 2\n0 3\n1 4\n1 5\n2 5\n4 5\n")
        cache = tmp_path / "values.mdgc"
        assert main(["value", "wheel 5", "--variant", "mf", "--cache", str(cache)]) == 0
        capsys.readouterr()
        for fmt in ("text", "json"):
            args = ["value", str(graph), "--variant", "mf", "--format", fmt]
            assert main(args) == 0
            cold = capsys.readouterr().out
            assert main(args + ["--cache", str(cache)]) == 0
            assert capsys.readouterr().out == cold
            if fmt == "text":
                assert "value: {0|{0,↑*|0,*2},{↑|*,*2},{↑,↑*|*,{↑*|0}}}" in cold

    def test_corrupt_cache_is_ignored(self, tmp_path, capsys):
        cache = tmp_path / "values.mdgc"
        main(["value", "path 7", "--variant", "mf", "--cache", str(cache)])
        capsys.readouterr()
        blob = bytearray(cache.read_bytes())
        blob[5] ^= 0xFF
        cache.write_bytes(bytes(blob))
        assert main(["value", "path 7", "--variant", "mf",
                     "--cache", str(cache)]) == 0
        out, err = capsys.readouterr()
        assert "value: ↑" in out
        assert err == (f"warning: value cache {cache} not loaded (version 65283, "
                       "not 3); it will be overwritten\n")

    def test_a_flipped_checksum_is_named(self, tmp_path, capsys):
        cache = tmp_path / "values.mdgc"
        main(["value", "path 7", "--variant", "mf", "--cache", str(cache)])
        capsys.readouterr()
        blob = bytearray(cache.read_bytes())
        blob[-1] ^= 0xFF
        cache.write_bytes(bytes(blob))
        assert main(["value", "path 7", "--variant", "mf", "--cache", str(cache)]) == 0
        out, err = capsys.readouterr()
        assert "value: ↑" in out
        assert err == (f"warning: value cache {cache} not loaded (checksum "
                       "mismatch); it will be overwritten\n")

    def test_a_chain_deeper_than_its_position_is_ignored(self, tmp_path, capsys):
        # 49 deep, keyed to classic path 3 (2 edges), whose value is 1
        cache = tmp_path / "values.mdgc"
        cache.write_bytes(forged_chain(50, canonical_key(path(3), Variant.CLASSIC)))
        assert main(["value", "path 3", "--cache", str(cache)]) == 0
        out, err = capsys.readouterr()
        assert "value: 1\n" in out
        assert err == (f"warning: value cache {cache} not loaded (an entry deeper "
                       "than its position has edges); it will be overwritten\n")


# ----------------------------------------------------------------------
# module entry point
# ----------------------------------------------------------------------

def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "mdgame", "value", "path 3"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "outcome: LeftWins" in done.stdout


# ----------------------------------------------------------------------
# the README's examples
# ----------------------------------------------------------------------

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def readme_commands():
    """Each "$ mdgame ..." example of the README: its arguments and the
    lines it prints."""
    for _, block in BLOCKS:
        for example in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *printed = example.rstrip("\n").split("\n")
            yield pytest.param(shlex.split(command)[1:], printed, id=command)


def test_readme_command_examples_found():
    assert [p.id for p in readme_commands()] == [
        'mdgame value "path 5" --variant mf',
        'mdgame aw "path 9"',
        'mdgame value "path 4" --variant classic --format json',
        "mdgame verify --suite table-aw --max-n 12",
    ]


@pytest.mark.parametrize("args, printed", readme_commands())
def test_readme_command_example(args, printed, capsys):
    assert main(args) == 0
    out = capsys.readouterr().out.splitlines()
    if printed[0].startswith("{"):
        assert json.loads("\n".join(out)) == json.loads("\n".join(printed))
        return
    if "  ..." in printed:  # the example shows only the first and last rows
        cut = printed.index("  ...")
        out = out[:cut] + ["  ..."] + out[len(out) - len(printed) + cut + 1:]

    def untimed(lines):
        return [re.sub(r"\[\d+\.\d+s\]$", "[time]", line) for line in lines]

    assert untimed(out) == untimed(printed)


def test_readme_library_snippet(capsys):
    code, = [block for lang, block in BLOCKS if lang == "python"]
    exec(code, {})
    printed = [line.rpartition("# ")[2] for line in code.splitlines()
               if line.startswith("print(")]
    assert printed == ["{0|{0,↑*|0,*}}", "LeftWins", "2"]
    assert capsys.readouterr().out.splitlines() == printed
