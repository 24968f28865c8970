import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quorder
from quorder import (
    FiniteGroup,
    FiniteQuandle,
    NotAQuandle,
    ParseError,
    cyclic_group,
    dihedral_quandle,
    generate_all_quandles,
    symmetric_group,
    trivial_quandle,
)
from quorder import search
from quorder.cli import (
    PROPERTIES,
    build_parser,
    group_from_spec,
    main,
    parse_input,
    quandle_from_builtin,
    quandle_to_json,
    render_report,
    run,
    verify_paper,
)

PAPER_DOC = {"kind": "quandle", "index_base": 1, "table": [[1, 1, 2], [2, 2, 1], [3, 3, 3]]}


def _run(*argv: str) -> tuple[dict, int]:
    """`run` on the arguments the CLI's parser makes of argv."""
    return run(build_parser().parse_args(argv))


# square int tables with entries in -1..n+1, and every quandle of order at
# most 3 under both numberings, so that some tables pass every axiom
_SQUARE_TABLES = st.one_of(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-1, n + 1), min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    st.sampled_from([q.table for n in (1, 2, 3) for q in generate_all_quandles(n)]).flatmap(
        lambda t: st.sampled_from([[list(row) for row in t], [[v + 1 for v in row] for row in t]])
    ),
)


class TestParseInput:
    def test_one_indexed_document(self):
        q = parse_input(PAPER_DOC)
        assert q.table == ((0, 0, 1), (1, 1, 0), (2, 2, 2))

    def test_zero_indexed_document(self):
        q = parse_input({"kind": "quandle", "index_base": 0, "table": [[0, 0], [1, 1]]})
        assert q.table == trivial_quandle(2).table

    def test_invalid_table_reports_axiom(self):
        with pytest.raises(NotAQuandle) as exc:
            parse_input({"kind": "quandle", "index_base": 0, "table": [[1, 0], [0, 1]]})
        assert exc.value.axiom == "idempotency"
        assert exc.value.witness == (0, 0)

    def test_group_document(self):
        doc = {
            "kind": "group",
            "index_base": 1,
            "identity": 1,
            "table": [[1, 2, 3], [2, 3, 1], [3, 1, 2]],
        }
        g = parse_input(doc)
        assert isinstance(g, FiniteGroup)
        assert g.table == cyclic_group(3).table

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"kind": "ring", "table": []},
            {"kind": "quandle", "index_base": 2, "table": [[0]]},
            {"kind": "quandle", "index_base": 0, "table": "nope"},
            {"kind": "quandle", "index_base": 0, "table": [["a"]]},
            {"kind": "group", "index_base": 0, "table": [[0]]},
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(ParseError):
            parse_input(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "quandle", "table": [[0, 0.9], [1, 1]]},
            {"kind": "quandle", "table": [[0, 0.0], [1, 1]]},
            {"kind": "quandle", "table": [[0, False], [True, True]]},
            {"kind": "quandle", "table": [["0", "0"], ["1", "1"]]},
            {"kind": "quandle", "index_base": True, "table": [[1, 1], [2, 2]]},
            {"kind": "quandle", "index_base": 0.0, "table": [[0, 0], [1, 1]]},
            {"kind": "group", "identity": False, "table": [[0, 1], [1, 0]]},
        ],
    )
    def test_numbers_must_be_plain_integers(self, doc, tmp_path):
        with pytest.raises(ParseError):
            parse_input(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        report, status = _run("check", "--input", str(path), "--property", "right-circular")
        assert status == 2
        assert report["error"]["kind"] == "ParseError"

    @pytest.mark.parametrize(
        "table, bad",
        [([[0, 1], [1, True]], "True"), ([[0, 0.5], [True, 1]], "0.5"), ([[0, 0], [1, 1], [None]], "None")],
    )
    def test_first_non_int_in_row_major_order(self, table, bad):
        with pytest.raises(ParseError) as exc:
            parse_input({"kind": "quandle", "table": table})
        assert str(exc.value) == f"table entries must be integers, got {bad}"

    @settings(max_examples=200, deadline=None)
    @given(table=_SQUARE_TABLES, base=st.sampled_from([0, 1]))
    def test_parse_matches_the_constructor_on_the_renumbered_table(self, table, base):
        document = {"kind": "quandle", "index_base": base, "table": table}
        before = json.dumps(document)
        rows = [[v - base for v in row] for row in table]
        try:
            expected = FiniteQuandle(rows)
        except NotAQuandle as exc:
            with pytest.raises(NotAQuandle) as info:
                parse_input(document)
            assert (info.value.axiom, info.value.witness) == (exc.axiom, exc.witness)
        else:
            assert parse_input(document).table == expected.table
        assert json.dumps(document) == before  # the document is not changed


class TestRoundTrips:
    def test_quandle_round_trip(self):
        for q in (trivial_quandle(3), dihedral_quandle(4), parse_input(PAPER_DOC)):
            assert parse_input(quandle_to_json(q)) == FiniteQuandle(q.table)

    def test_group_round_trip(self):
        z4 = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
        s3 = [
            [0, 1, 2, 3, 4, 5],
            [1, 0, 4, 5, 2, 3],
            [2, 3, 0, 1, 5, 4],
            [3, 2, 5, 4, 0, 1],
            [4, 5, 1, 0, 3, 2],
            [5, 4, 3, 2, 1, 0],
        ]
        for g, table in ((cyclic_group(4), z4), (symmetric_group(3), s3)):
            parsed = parse_input({"kind": "group", "index_base": 0, "identity": 0, "table": table})
            assert parsed.table == g.table and parsed.identity == g.identity


class TestBuiltinSpecs:
    @pytest.mark.parametrize(
        "spec,table",
        [
            ("trivial:3", trivial_quandle(3).table),
            ("dihedral:4", dihedral_quandle(4).table),
            ("affine:5:2", ((0, 4, 3, 2, 1), (2, 1, 0, 4, 3), (4, 3, 2, 1, 0), (1, 0, 4, 3, 2), (3, 2, 1, 0, 4))),
            ("core:z3", dihedral_quandle(3).table),
            ("conj:z3", trivial_quandle(3).table),
            ("alexander:z4:3", dihedral_quandle(4).table),
        ],
    )
    def test_families(self, spec, table):
        assert quandle_from_builtin(spec).table == table

    def test_conj_of_symmetric_group(self):
        q = quandle_from_builtin("conj:s3")
        assert q.size == 6

    def test_product_spec(self):
        q = quandle_from_builtin("product:trivial:2+trivial:3")
        assert q.table == trivial_quandle(6).table

    def test_group_specs(self):
        assert group_from_spec("z2xz3").size == 6
        assert group_from_spec("s3").size == 6
        with pytest.raises(ParseError):
            group_from_spec("q8")

    @pytest.mark.parametrize("spec", ["nonsense:3", "dihedral:x", "affine:4", "trivial:"])
    def test_bad_specs(self, spec):
        with pytest.raises(ParseError):
            quandle_from_builtin(spec)


class TestRun:
    def test_check_dihedral_right_circular(self):
        report, status = _run("check", "--builtin", "dihedral:3", "--property", "right-circular")
        assert status == 0
        assert report["verdict"]["answer"] == "no"
        cert = report["verdict"]["certificate"]
        assert cert["kind"] == "non-identity-right-translation"
        assert cert["data"] == {"base": 0, "point": 1, "image": 2}

    def test_enumerate_counts(self):
        report, status = _run("enumerate", "--builtin", "trivial:3", "--property", "right-circular")
        assert status == 0
        assert report["count"] == 2
        assert report["members"] == [{"arrangement": [0, 1, 2]}, {"arrangement": [0, 2, 1]}]

    def test_witness_only(self):
        report, status = _run("witness", "--builtin", "trivial:3", "--property", "right-circular")
        assert status == 0
        assert report == {"command": "witness", "witness": {"arrangement": [0, 1, 2]}}

    def test_fail_on_no(self):
        report, status = _run("check", "--builtin", "dihedral:3", "--property", "right-circular", "--fail-on-no")
        assert status == 1
        report, status = _run("enumerate", "--builtin", "dihedral:3", "--property", "left-circular", "--fail-on-no")
        assert status == 1

    def test_resource_limit_exit_code(self):
        report, status = _run("enumerate", "--builtin", "trivial:11", "--property", "right-circular")
        assert status == 3
        assert report["error"]["kind"] == "resource-limit"

    def test_closure_cap_detail(self):
        # the right translations of core:s5 generate more than the closure's
        # 10000-element cap; the decision builds no group, so it is not reached
        report, status = _run("check", "--builtin", "core:s5", "--property", "right-circular")
        assert status == 0
        verdict = report["verdict"]
        assert verdict["answer"] == "no"
        cert = search.Certificate(**verdict["certificate"])
        assert search.recheck_certificate(quandle_from_builtin("core:s5"), cert, "RCO")

    def test_dihedral_25_bicircular_certificate(self):
        report, status = _run("check", "--builtin", "dihedral:25", "--property", "bi-circular")
        assert status == 0
        cert = report["verdict"]["certificate"]
        assert cert["kind"] == "non-identity-left-translation"
        assert cert["data"] == {"base": 0, "point": 1, "image": 2}

    def test_invalid_input_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "quandle", "index_base": 0, "table": [[1, 0], [0, 1]]}))
        report, status = _run("check", "--input", str(bad), "--property", "right-circular")
        assert status == 2
        assert report["error"]["kind"] == "not-a-quandle"
        assert report["error"]["witness"] == [0, 0]

    def test_unreadable_file(self):
        report, status = _run("check", "--input", "/nonexistent.json", "--property", "right-circular")
        assert status == 2

    def test_non_utf8_file(self, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        report, status = _run("check", "--input", str(bad), "--property", "right-circular")
        assert status == 2
        assert report["error"]["kind"] == "ParseError"

    def test_over_nested_json_exit_code(self, tmp_path, capsys):
        # the decoder gives up with RecursionError long before this depth
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        status = main(["check", "--input", str(deep), "--property", "right-circular", "--fail-on-no"])
        error = json.loads(capsys.readouterr().out)["error"]
        assert status == 2
        assert error["kind"] == "ParseError"
        assert "recursion" in error["detail"]

    def test_over_nested_builtin_spec_exit_code(self, capsys):
        # each product: is one more call, so this runs out of stack
        spec = "product:" * 5000 + "trivial:2"
        status = main(["check", "--builtin", spec, "--property", "right-circular"])
        error = json.loads(capsys.readouterr().out)["error"]
        assert status == 2
        assert error["kind"] == "ParseError"
        assert "recursion" in error["detail"]

    def test_nested_builtin_spec_within_the_stack_is_decided(self):
        report, status = _run("check", "--builtin", "product:" * 300 + "trivial:2", "--property", "right-circular")
        assert status == 0
        assert report == {
            "command": "check",
            "property": "right-circular",
            "input": {"kind": "quandle", "index_base": 0, "table": [[0, 0], [1, 1]]},
            "verdict": {"answer": "yes", "witness": {"arrangement": [0, 1]}, "certificate": None},
        }

    @pytest.mark.parametrize("name", [{"x": [1, 2.5, None]}, None, 7, ["a"]])
    def test_name_must_be_a_string(self, name, tmp_path, capsys):
        doc = tmp_path / "named.json"
        doc.write_text(json.dumps({"kind": "quandle", "table": [[0]], "name": name}))
        status = main(["check", "--input", str(doc), "--property", "right-circular"])
        error = json.loads(capsys.readouterr().out)["error"]
        assert status == 2
        assert error == {"kind": "ParseError", "detail": "name must be a string"}
        with pytest.raises(ParseError):
            parse_input({"kind": "group", "identity": 0, "table": [[0]], "name": name})

    def test_group_input_rejected_for_check(self, tmp_path):
        doc = tmp_path / "group.json"
        z3 = {"kind": "group", "index_base": 0, "identity": 0, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
        doc.write_text(json.dumps(z3))
        report, status = _run("check", "--input", str(doc), "--property", "right-circular")
        assert status == 2

    def test_both_sources_rejected(self, capsys):
        # the parser's required, mutually exclusive source group refuses it
        argv = ["check", "--input", "x.json", "--builtin", "trivial:2", "--property", "right-circular"]
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, detail",
        [
            (["census", "--max-order", "0"], "--max-order must be at least 1, got 0"),
            (["census", "--max-order", "-3"], "--max-order must be at least 1, got -3"),
            (
                ["enumerate", "--builtin", "trivial:3", "--property", "right-circular", "--max-enum", "-1"],
                "--max-enum must be at least 1, got -1",
            ),
            (["verify-paper", "--max-enum", "0"], "--max-enum must be at least 1, got 0"),
        ],
        ids=["max-order-0", "max-order-negative", "max-enum-negative", "max-enum-0"],
    )
    def test_caps_below_one_rejected(self, argv, detail):
        assert _run(*argv) == ({"error": {"kind": "ParseError", "detail": detail}}, 2)

    def test_census_command(self):
        report, status = _run("census", "--max-order", "3")
        assert status == 0
        assert len(report["records"]) == 5

    def test_verify_paper_command(self):
        report, status = _run("verify-paper")
        assert status == 0
        assert report["all_passed"] is True
        assert len(report["checks"]) == 8


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        args = build_parser().parse_args(["enumerate", "--builtin", "conj:s3", "--property", "right-order"])
        first = render_report(run(args)[0])
        second = render_report(run(args)[0])
        assert first == second

    def test_index_base_does_not_leak(self, tmp_path):
        zero = tmp_path / "zero.json"
        one = tmp_path / "one.json"
        zero.write_text(
            json.dumps({"kind": "quandle", "index_base": 0, "table": [[0, 0, 1], [1, 1, 0], [2, 2, 2]]})
        )
        one.write_text(json.dumps(PAPER_DOC))
        r0 = render_report(_run("check", "--input", str(zero), "--property", "left-circular")[0])
        r1 = render_report(_run("check", "--input", str(one), "--property", "left-circular")[0])
        assert r0 == r1


class TestMain:
    def test_check_via_argv(self, capsys):
        status = main(["check", "--builtin", "dihedral:3", "--property", "right-circular"])
        out = capsys.readouterr().out
        assert status == 0
        report = json.loads(out)
        assert report["verdict"]["answer"] == "no"

    def test_pretty_flag(self, capsys):
        status = main(
            ["check", "--builtin", "trivial:2", "--property", "bi-circular", "--pretty"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "\n  " in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        status = main(
            [
                "enumerate",
                "--builtin",
                "trivial:3",
                "--property",
                "right-order",
                "--output",
                str(target),
            ]
        )
        assert status == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["count"] == 6

    def test_unwritable_output_file(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        status = main(["census", "--max-order", "1", "--output", str(target)])
        assert status == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "ParseError"
        assert error["detail"].startswith(f"cannot write {target}")
        assert not target.exists()

    def test_max_enum_flag(self, capsys):
        status = main(
            [
                "enumerate",
                "--builtin",
                "trivial:4",
                "--property",
                "right-circular",
                "--max-enum",
                "3",
            ]
        )
        assert status == 3

    def test_caps_bound_output_not_work(self, capsys):
        # a nonempty space past the cap is refused ...
        assert main(["enumerate", "--builtin", "trivial:11", "--property", "right-circular"]) == 3
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "resource-limit"
        # ... and an empty one is reported on any carrier, under any cap
        argv = ["enumerate", "--builtin", "dihedral:25", "--property", "left-order", "--max-enum", "3"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["kind"], report["count"], report["members"]) == ("LO", 0, [])

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--builtin", "trivial:3", "--property", "right-circular", "--max-enum", "-1"],
            ["check", "--builtin", "trivial:3", "--property", "left-order", "--max-enum", "0"],
            ["census", "--max-order", "-3"],
            ["census", "--max-order", "0"],
            ["verify-paper", "--max-enum", "0"],
            ["census", "--max-order", "0", "--max-enum", "0"],
        ],
    )
    def test_caps_below_one_exit_2(self, capsys, argv):
        # --max-enum is reported first when both caps are below one
        flag = "--max-enum" if "--max-enum" in argv else "--max-order"
        detail = f"{flag} must be at least 1, got {argv[argv.index(flag) + 1]}"
        assert main(argv) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"kind": "ParseError", "detail": detail}

    def test_strategy_flag(self, capsys):
        status = main(
            [
                "check",
                "--builtin",
                "dihedral:3",
                "--property",
                "right-circular",
                "--strategy",
                "brute",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert json.loads(out)["verdict"]["certificate"]["kind"] == "exhaustive-search"

    def test_enumerate_has_no_strategy(self, capsys):
        argv = ["enumerate", "--builtin", "trivial:3", "--property", "right-circular"]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--strategy", "fast"])
        assert info.value.code == 2
        assert "unrecognized arguments: --strategy fast" in capsys.readouterr().err
        assert main(argv) == 0

    def test_defaults_live_in_the_parser(self, capsys):
        args = build_parser().parse_args(["check", "--builtin", "trivial:3", "--property", "right-circular"])
        assert (args.strategy, args.max_enum, args.fail_on_no, args.pretty, args.output) == (
            "auto", None, False, False, None,
        )
        assert main(["census"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["max_order"], len(report["records"])) == (4, 12)

    def test_parser_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--property", "right-circular"])

    @pytest.mark.parametrize(
        "prop, detail",
        [
            ("right-circular", "none of the 2 circular orderings is right-invariant"),
            ("left-circular", "none of the 2 circular orderings is left-invariant"),
            ("bi-circular", "none of the 2 circular orderings is both-invariant"),
            ("right-order", "none of the 6 rankings is a right ordering"),
            ("left-order", "none of the 6 rankings is a left ordering"),
        ],
    )
    def test_brute_force_certificate_text(self, capsys, prop, detail):
        argv = ["check", "--builtin", "dihedral:3", "--property", prop, "--strategy", "brute"]
        assert main(argv) == 0
        cert = json.loads(capsys.readouterr().out)["verdict"]["certificate"]
        assert cert == {
            "kind": "exhaustive-search",
            "data": {"checked": 6 if prop.endswith("order") else 2},
            "detail": detail,
        }

    def test_internal_inconsistency_exit_code(self, capsys, monkeypatch):
        wrong = search.Verdict(
            False, certificate=search.Certificate(search.EXHAUSTED, {"checked": 0}, "wrong")
        )
        rco = {**vars(search.SPACES["RCO"]), "fast": lambda q: wrong}
        monkeypatch.setitem(search.SPACES, "RCO", search._Space(**rco))
        argv = ["check", "--builtin", "trivial:3", "--property", "right-circular", "--fail-on-no"]
        assert main(argv) == 4
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "internal-inconsistency"
        assert error["space"] == "RCO"
        assert error["verdicts"] == {"fast": False, "brute": True}

    def test_census_inconsistency_exit_code(self, capsys, monkeypatch):
        wrong = search.Verdict(
            False, certificate=search.Certificate(search.EXHAUSTED, {"checked": 0}, "wrong")
        )
        rco = {**vars(search.SPACES["RCO"]), "fast": lambda q: wrong}
        monkeypatch.setitem(search.SPACES, "RCO", search._Space(**rco))
        assert main(["census", "--max-order", "3"]) == 4
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "internal-inconsistency"
        assert error["space"] == "RCO"
        assert error["verdicts"] == {"fast": False, "brute": True}

    def test_closed_stdout_ends_quietly(self):
        # the report (about 140 kB) outgrows the pipe buffer, so the write
        # meets the closed pipe
        argv = ["enumerate", "--builtin", "trivial:7", "--property", "right-order"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "quorder.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(20) == b'{"command":"enumerat'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""


def _commands(parser: argparse.ArgumentParser) -> dict:
    """The subcommand parsers of a quorder parser, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class _EagerCommand(argparse.ArgumentParser):
    """A subcommand's parser built, options included, as soon as it is made."""

    def __init__(self, *, options, **kwargs):
        super().__init__(**kwargs)
        options(self)


def _eager_parser() -> argparse.ArgumentParser:
    """build_parser() with every subcommand's parser built up front."""
    with mock.patch("quorder.cli._Command", _EagerCommand):
        return build_parser()


def _built(command: argparse.ArgumentParser) -> bool:
    """Whether ArgumentParser.__init__ has run on a subcommand's parser,
    judged from its __dict__, as reading an attribute would build it."""
    return "_actions" in vars(command)


def _outcome(parser: argparse.ArgumentParser, argv: list[str]) -> tuple:
    """(exit status, stdout, stderr, vars of the namespace or None) of one
    parse, with help pages wrapped at a fixed width."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out), redirect_stderr(err):
        try:
            status, result = 0, vars(parser.parse_args(argv))
        except SystemExit as exc:
            status, result = exc.code, None
    return status, out.getvalue(), err.getvalue(), result


_HELP_ARGV = [
    ["-h"], ["check", "-h"], ["enumerate", "-h"], ["witness", "-h"], ["census", "--help"], ["verify-paper", "-h"],
]
_USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["sort"],
    "unknown-top-level-option": ["--strategy", "fast", "check"],
    "no-source": ["check", "--property", "right-circular"],
    "no-property": ["witness", "--builtin", "dihedral:3"],
    "both-sources": ["check", "--input", "q.json", "--builtin", "dihedral:3", "--property", "right-order"],
    "bad-choice": ["check", "--builtin", "dihedral:3", "--property", "circular"],
    "bad-int": ["census", "--max-order", "x"],
    "missing-value": ["enumerate", "--builtin", "trivial:3", "--property"],
    "unrecognized": ["enumerate", "--builtin", "trivial:3", "--property", "right-circular", "--strategy", "fast"],
    "ambiguous": ["census", "--max", "3"],
    "flag-with-value": ["verify-paper", "--pretty=yes"],
    "after-double-dash": ["census", "--", "--max-order", "2"],
}
# each option with values it accepts; --fail-on-no and --pretty take none
_OPTIONS = {
    "--input": ["q.json"],
    "--builtin": ["dihedral:3", "trivial:2"],
    "--property": ["right-circular", "left-order"],
    "--strategy": ["brute", "fast"],
    "--max-enum": ["3", "0"],
    "--max-order": ["3", "-1"],
    "--output": ["r.json"],
    "--fail-on-no": [],
    "--pretty": [],
}
_COMMON = ["--max-enum", "--fail-on-no", "--pretty", "--output"]
_SPACE = ["--input", "--builtin", "--property", *_COMMON]
_COMMAND_OPTIONS = {
    "check": [*_SPACE, "--strategy"],
    "witness": [*_SPACE, "--strategy"],
    "enumerate": _SPACE,
    "census": ["--max-order", *_COMMON],
    "verify-paper": _COMMON,
    "verify": list(_OPTIONS),
}
_STRAYS = st.sampled_from(["x", "-1", "--", "-h", "--he", "circular"])


@st.composite
def _item(draw, name: str) -> list[str]:
    """One option, spelled in full or abbreviated, with its value (if it
    takes one) as the next word or joined by '='."""
    spelling = name[: draw(st.integers(3, len(name)))]
    if not _OPTIONS[name]:
        return [spelling]
    value = draw(st.sampled_from(_OPTIONS[name]) if draw(st.integers(0, 3)) else _STRAYS)
    return draw(st.sampled_from([[spelling, value], [f"{spelling}={value}"]]))


@st.composite
def _argv(draw) -> list[str]:
    """A command with options drawn mostly from its own, the required ones
    often first; now and then a stray word or an option of another command."""
    command = draw(st.sampled_from(list(_COMMAND_OPTIONS)))
    names = []
    if command in ("check", "witness", "enumerate") and draw(st.booleans()):
        names = [draw(st.sampled_from(["--input", "--builtin"])), "--property"]
    own = st.sampled_from(_COMMAND_OPTIONS[command])
    names += draw(st.lists(st.one_of(own, own, own, st.sampled_from(list(_OPTIONS))), max_size=4))
    words = [command]
    for name in names:
        words += draw(_item(name)) if draw(st.integers(0, 9)) else [draw(_STRAYS)]
    return words


class TestDeferredOptions:
    """build_parser builds a subcommand's parser, options included, only when
    that subcommand is used, and parses, errs and helps exactly as with every
    parser built up front."""

    def test_only_the_named_command_gets_options(self):
        parser = build_parser()
        parser.parse_args(["census", "--max-order", "2"])
        commands = _commands(parser)
        assert _built(commands["census"])
        assert len(commands["census"]._actions) > 1
        for name in ("check", "enumerate", "witness", "verify-paper"):
            assert not _built(commands[name])
        status, out, _, _ = _outcome(parser, ["check", "-h"])
        assert status == 0
        for option in (
            "--input", "--builtin", "--property", "--strategy",
            "--max-enum", "--fail-on-no", "--pretty", "--output",
        ):
            assert option in out

    def test_no_state_between_calls(self):
        build_parser().parse_args(["census"])
        commands = _commands(build_parser())
        assert list(commands) == ["check", "enumerate", "witness", "census", "verify-paper"]
        assert not any(map(_built, commands.values()))

    @pytest.mark.parametrize("read", [lambda c: c.prog, lambda c: c._actions, repr], ids=["prog", "_actions", "repr"])
    def test_any_attribute_read_builds(self, read):
        lazy, eager = _commands(build_parser()), _commands(_eager_parser())
        for name, command in lazy.items():
            assert not _built(command)
            read(command)
            assert _built(command)
            assert command.prog == f"quorder {name}"
            assert [repr(a) for a in command._actions] == [repr(a) for a in eager[name]._actions]

    @pytest.mark.parametrize("method", ["format_usage", "format_help"])
    def test_formatting_before_any_parse(self, method):
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            lazy, eager = _commands(build_parser()), _commands(_eager_parser())
            for name, command in lazy.items():
                assert getattr(command, method)() == getattr(eager[name], method)()

    @pytest.mark.parametrize("argv", _HELP_ARGV, ids=" ".join)
    def test_help_pages(self, argv):
        outcome = _outcome(build_parser(), argv)
        assert outcome == _outcome(_eager_parser(), argv)
        status, out, err, _ = outcome
        assert (status, err) == (0, "")
        assert out.startswith("usage: quorder")

    @pytest.mark.parametrize("argv", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS)
    def test_usage_errors(self, argv):
        outcome = _outcome(build_parser(), argv)
        assert outcome == _outcome(_eager_parser(), argv)
        status, out, err, _ = outcome
        assert (status, out) == (2, "")
        assert err.startswith("usage: quorder")

    @settings(max_examples=200, deadline=None)
    @given(argv=_argv())
    def test_any_argv(self, argv):
        assert _outcome(build_parser(), argv) == _outcome(_eager_parser(), argv)


class TestInputBounds:
    """Carriers past MAX_CARRIER_N are refused before any table is built."""

    @pytest.mark.parametrize(
        "source",
        [
            ["--builtin", "conj:z100000"],
            ["--builtin", "product:conj:s5+conj:s5"],
            ["--builtin", "conj:z20xz20"],
            "rows",
        ],
        ids=["cyclic", "product", "direct-product", "json-rows"],
    )
    def test_oversized_carrier_exits_3_at_once(self, source, tmp_path):
        if source == "rows":
            doc = {"kind": "quandle", "table": [[i] * 301 for i in range(301)]}
            path = tmp_path / "rows.json"
            path.write_text(json.dumps(doc))
            source = ["--input", str(path)]
        # a separate process, killed after 2 s: without the cap conj:z100000
        # would build a table of 10^10 entries
        proc = subprocess.run(
            [sys.executable, "-m", "quorder.cli", "check", *source, "--property", "right-circular"],
            capture_output=True,
            timeout=2,
        )
        error = json.loads(proc.stdout)["error"]
        assert proc.returncode == 3
        assert error["kind"] == "resource-limit"
        assert error["detail"].startswith("carrier size")


def test_import_loads_no_dataclasses_inspect_or_typing():
    # a fresh interpreter without site, which may load typing itself; the
    # modules already loaded before the import are not counted
    src = str(Path(quorder.__file__).parents[1])
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import quorder.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "quorder.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "typing"}), sorted(added)


# builtin specs: the family grammar with integers up to 12, and any text
_INT = st.integers(-1, 12).map(str)
_GROUP = st.lists(st.tuples(st.sampled_from("zs"), _INT).map("".join), min_size=1, max_size=2).map("x".join)
_FAMILY = st.one_of(
    st.tuples(st.sampled_from(["trivial:", "dihedral:"]), _INT).map("".join),
    st.tuples(_INT, _INT).map(lambda p: f"affine:{p[0]}:{p[1]}"),
    st.tuples(st.sampled_from(["conj:", "core:"]), _GROUP).map("".join),
    st.tuples(_GROUP, _INT).map(lambda p: f"alexander:{p[0]}:{p[1]}"),
)
_SPECS = st.one_of(
    _FAMILY,
    st.lists(_FAMILY, min_size=1, max_size=3).map(lambda parts: "product:" + "+".join(parts)),
    st.text(max_size=20),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)
_QUANDLES = st.sampled_from([q.table for n in (1, 2, 3) for q in generate_all_quandles(n)])
_TABLES = st.one_of(_JSON, st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=4), _QUANDLES)
_DOCUMENTS = st.one_of(
    st.binary(max_size=40),
    _JSON.map(json.dumps).map(str.encode),
    st.builds(lambda t, name: {"kind": "quandle", "table": t, "name": name}, _QUANDLES, _JSON)
    .map(json.dumps)
    .map(str.encode),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["quandle", "group", "rack"]), "table": _TABLES},
        optional={"index_base": _JSON | st.sampled_from([0, 1]), "identity": _JSON, "name": _JSON},
    ).map(json.dumps).map(str.encode),
)
_COMMANDS = st.tuples(st.sampled_from(["check", "witness", "enumerate"]), st.sampled_from(PROPERTIES))


class TestFuzzedInputs:
    """Whatever the spec or document, main ends with exit 0-3 and prints one
    JSON document."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "doc.json"

    @staticmethod
    def _main(argv):
        out = io.StringIO()
        with redirect_stdout(out):
            status = main(argv)
        report = json.loads(out.getvalue())
        assert status in (0, 1, 2, 3)
        assert ("error" in report) == (status in (2, 3))
        return status

    @settings(max_examples=80, deadline=None)
    @given(spec=_SPECS, command=_COMMANDS, fail_on_no=st.booleans())
    def test_builtin_specs(self, spec, command, fail_on_no):
        cmd, prop = command
        self._main([cmd, f"--builtin={spec}", "--property", prop, "--max-enum", "6"] + ["--fail-on-no"] * fail_on_no)

    @settings(max_examples=80, deadline=None)
    @given(document=_DOCUMENTS, command=_COMMANDS, fail_on_no=st.booleans())
    def test_json_documents(self, path, document, command, fail_on_no):
        cmd, prop = command
        path.write_bytes(document)
        self._main([cmd, "--input", str(path), "--property", prop, "--max-enum", "6"] + ["--fail-on-no"] * fail_on_no)


class TestVerifyPaperChecks:
    def test_all_named_checks_pass(self):
        checks = verify_paper()
        names = [c["name"] for c in checks]
        assert names == [
            "example:three-element-neither",
            "example:dihedral-z3-neither",
            "example:trivial-2-bicircular",
            "lemma:conj-not-left-circular",
            "lemma:ordering",
            "lemma:fixed-point",
            "subbasis:semantics",
            "embedding:trivial-3-right",
        ]
        assert all(c["passed"] for c in checks)
        assert checks[1]["details"] == {
            "rco_count": 0,
            "lco_count": 0,
            "right_certificate": "non-identity-right-translation",
            "inner_group_order": 6,
        }


def test_five_properties_in_one_order():
    # the order-space table, both dispatch tables and the CLI choices agree
    props = ("right-circular", "left-circular", "bi-circular", "right-order", "left-order")
    assert tuple(space.prop for space in search.SPACES.values()) == props
    assert tuple(search.DECIDERS) == tuple(search.ENUMERATORS) == PROPERTIES == props
    assert tuple(search.SPACES) == ("RCO", "LCO", "BCO", "RO", "LO")
