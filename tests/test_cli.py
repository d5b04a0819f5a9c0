import argparse
import contextlib
import csv
import decimal
import gc
import hashlib
import io
import itertools
import math
import os
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avgcut.cli
from avgcut import (
    Objective,
    communities_from_cut,
    linkage_to_tree,
    optimal_average_cut,
    parse_edgelist,
    parse_linkage_csv,
)
from avgcut.cli import run_cli
from avgcut.errors import ZeroWeightWarning
from avgcut.dendro import _label_key
from avgcut.rational import MAX_EXPONENT

from .helpers import figure_edge_rows, random_linkage_csv


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out: str) -> dict:
    report: dict = {"cut": [], "trace": [], "community": []}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        if key in ("cut", "trace", "community"):
            report[key].append(value)
        else:
            report[key] = value
    return report


@pytest.fixture
def linkage_file(tmp_path):
    rows = [
        "left,right,height,size",
        "0,1,1,2", "9,2,1,3",
        "3,4,1,2", "11,5,1,3",
        "6,7,1,2", "13,8,1,3",
        "10,12,10,6", "15,14,10,9",
    ]
    path = tmp_path / "linkage.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture
def figure_newick_file(tmp_path):
    """The golden figure tree written as Newick instead of an edge list."""
    kids: dict = {}
    for parent, child, weight in figure_edge_rows():
        kids.setdefault(parent, []).append((child, weight))

    def node(label):
        inner = ",".join(f"{node(c)}:{w}" for c, w in kids.get(label, []))
        return f"({inner}){label}" if inner else label

    path = tmp_path / "figure.nwk"
    path.write_text(node("v0") + ";\n")
    return path


class TestCutCommand:
    def test_figure_maximize(self, capsys, figure_file):
        code, out, err = run(
            capsys, "cut", "--objective", "max", "--input", str(figure_file)
        )
        assert code == 0 and err == ""
        report = parse_report(out)
        assert report["average"] == "3"
        assert report["size"] == "13"
        assert report["total"] == "39"
        assert len(report["cut"]) == 13
        assert all(row.split()[2] == "3" for row in report["cut"])

    def test_newick_input(self, capsys, tmp_path):
        path = tmp_path / "t.nwk"
        path.write_text("(A:5,(X:10)a:5)R;\n")
        code, out, _ = run(
            capsys, "cut", "--objective", "min", "--format", "newick",
            "--input", str(path),
        )
        assert code == 0
        assert parse_report(out)["average"] == "5"

    def test_trace_lines(self, capsys, figure_file):
        code, out, _ = run(
            capsys, "cut", "--input", str(figure_file), "--trace"
        )
        report = parse_report(out)
        assert code == 0
        assert len(report["trace"]) == int(report["contraction_count"])
        assert report["trace"], "the figure run contracts at least once"

    @pytest.mark.parametrize(
        "objective, average, trace",
        [
            # r a: head a has one out-edge and 3 - 1 > 0.
            ("max", "13/3", ["r a +inf"]),
            # r z: 1 - 2 < 0 over one out-edge; r y: (1 + 1 + 2 - 8) / 2,
            # the unreduced pair (-4, 2).
            ("min", "6/5", ["r z -inf", "r y -2"]),
        ],
    )
    def test_trace_text(self, capsys, tmp_path, objective, average, trace):
        path = tmp_path / "spurs.edges"
        path.write_text("r a 1\na b 3\nr y 8\ny c 1\ny d 1\ny e 2\nr z 2\nz g 1\n")
        code, out, _ = run(
            capsys, "cut", "--objective", objective, "--input", str(path), "--trace"
        )
        report = parse_report(out)
        assert code == 0
        assert report["average"] == average
        assert report["trace"] == trace

    def test_deterministic_output(self, capsys, figure_file):
        def stable(run_out: str) -> str:
            return "\n".join(
                line for line in run_out.splitlines()
                if not line.startswith("elapsed_ms:")
            )

        _, first, _ = run(capsys, "cut", "--input", str(figure_file), "--trace")
        _, second, _ = run(capsys, "cut", "--input", str(figure_file), "--trace")
        assert stable(first) == stable(second)

    def test_average_decimal_present(self, capsys, figure_file):
        _, out, _ = run(capsys, "cut", "--input", str(figure_file))
        report = parse_report(out)
        assert Fraction(report["average_decimal"]) == 3

    def test_report_weights_reproduce_average(self, capsys, figure_file):
        _, out, _ = run(capsys, "cut", "--input", str(figure_file))
        report = parse_report(out)
        weights = [Fraction(row.split()[2]) for row in report["cut"]]
        assert len(weights) == int(report["size"])
        assert sum(weights) == Fraction(report["total"])
        assert sum(weights) / len(weights) == Fraction(report["average"])

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "cut", "--input", str(tmp_path / "none.edges"))
        assert code == 1
        assert "error:" in err

    def test_bad_input(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("r a -1\n")
        code, _, err = run(capsys, "cut", "--input", str(path))
        assert code == 1
        assert "line 1" in err


class TestHugeValues:
    def test_exponent_past_the_bound_is_a_line_numbered_error(self, capsys, tmp_path):
        path = tmp_path / "tiny.edges"
        path.write_text("r b 1\nr a 1e-100001\n")
        code, out, err = run(capsys, "cut", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: line 2: more than 100000 digits in literal:")

    def test_exponent_within_the_bound_prints_exactly(self, capsys, tmp_path):
        path = tmp_path / "tiny.edges"
        path.write_text("r b 1\nr a 1e-5000\n")
        code, out, err = run(capsys, "cut", "--input", str(path))
        assert code == 0 and err == ""
        report = parse_report(out)
        expected = (1 + Fraction(1, 10**5000)) / 2
        num_text, den_text = report["average"].split("/")
        assert decimal.Decimal(num_text) == decimal.Decimal(expected.numerator)
        assert decimal.Decimal(den_text) == decimal.Decimal(expected.denominator)
        assert "cut: r a 1/1" + "0" * 5000 in out

    def test_average_past_the_int_digit_limit_prints_exactly(self, capsys, tmp_path):
        # One cut (the star's leaves); its average has every prime below
        # 20000 in its denominator, about 8,700 digits.
        primes = [p for p in range(2, 20000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        path = tmp_path / "star.edges"
        path.write_text("".join(f"r l{p} 1/{p}\n" for p in primes))
        code, out, err = run(capsys, "cut", "--input", str(path))
        assert code == 0 and err == ""
        report = parse_report(out)
        expected = sum(Fraction(1, p) for p in primes) / len(primes)
        num_text, den_text = report["average"].split("/")
        assert len(den_text) > 4300
        assert decimal.Decimal(num_text) == decimal.Decimal(expected.numerator)
        assert decimal.Decimal(den_text) == decimal.Decimal(expected.denominator)
        assert report["size"] == str(len(primes))
        assert float(report["average_decimal"]) == pytest.approx(float(expected))

    # A root with k children, each with one leaf child, has 2**k cuts:
    # 15,000 branches make a count of about 4,500 digits.
    BROOM_BRANCHES = 15_000

    @pytest.fixture
    def broom_file(self, tmp_path):
        path = tmp_path / "broom.edges"
        path.write_text(
            "".join(f"r m{i} 1\nm{i} l{i} 2\n" for i in range(self.BROOM_BRANCHES))
        )
        return path

    def test_cut_count_past_the_int_digit_limit_prints_exactly(self, capsys, broom_file):
        code, out, err = run(capsys, "count", "--input", str(broom_file))
        assert code == 0 and err == ""
        count_text = parse_report(out)["cut_count"]
        assert len(count_text) > 4300
        assert decimal.Decimal(count_text) == decimal.Decimal(2**self.BROOM_BRANCHES)

    def test_oracle_limit_past_the_int_digit_limit_exits_2(self, capsys, broom_file):
        code, out, err = run(capsys, "oracle", "--input", str(broom_file))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "cuts exceed the limit" in err
        count_text = err.split("error: ", 1)[1].split()[0]
        assert decimal.Decimal(count_text) == decimal.Decimal(2**self.BROOM_BRANCHES)


class TestOracleCommand:
    def test_matches_cut_average(self, capsys, figure_file):
        _, cut_out, _ = run(capsys, "cut", "--input", str(figure_file))
        code, oracle_out, _ = run(capsys, "oracle", "--input", str(figure_file))
        assert code == 0
        assert parse_report(oracle_out)["average"] == parse_report(cut_out)["average"]
        assert parse_report(oracle_out)["cut_count"] == "729"

    def test_minimize_agrees_too(self, capsys, figure_file):
        _, cut_out, _ = run(
            capsys, "cut", "--objective", "min", "--input", str(figure_file)
        )
        _, oracle_out, _ = run(
            capsys, "oracle", "--objective", "min", "--input", str(figure_file)
        )
        assert parse_report(oracle_out)["average"] == parse_report(cut_out)["average"]

    def test_newick_input_matches_the_edge_list(self, capsys, figure_file, figure_newick_file):
        _, edgelist_out, _ = run(capsys, "oracle", "--input", str(figure_file))
        code, newick_out, err = run(
            capsys, "oracle", "--format", "newick", "--input", str(figure_newick_file)
        )
        assert code == 0 and err == ""
        edgelist, newick = parse_report(edgelist_out), parse_report(newick_out)
        assert newick["cut_count"] == edgelist["cut_count"] == "729"
        assert newick["average"] == edgelist["average"] == "3"
        assert sorted(newick["cut"]) == sorted(edgelist["cut"])

    def test_broom_report_is_the_same_on_one_process_and_several(
        self, capsys, tmp_path, monkeypatch
    ):
        # 17 spokes, each with two leaves: 2**17 cuts, enough to fork.
        path = tmp_path / "broom.edges"
        path.write_text(
            "".join(f"r a{i} 1\na{i} b{i} 1\na{i} c{i} 1\n" for i in range(17))
        )
        reports = []
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda _pid, cpus=cpus: cpus)
            code, out, err = run(capsys, "oracle", "--input", str(path))
            assert code == 0 and err == ""
            reports.append([line for line in out.splitlines() if not line.startswith("elapsed_ms")])
        assert reports[0] == reports[1]
        report = parse_report(out)
        assert report["cut_count"] == "131072"
        assert report["average"] == "1"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_limit_exceeded_exit_code(self, capsys, figure_file):
        code, _, err = run(
            capsys, "oracle", "--input", str(figure_file), "--limit", "10"
        )
        assert code == 2
        assert "729" in err


class TestCountCommand:
    def test_figure(self, capsys, figure_file):
        code, out, _ = run(capsys, "count", "--input", str(figure_file))
        assert code == 0
        assert parse_report(out)["cut_count"] == "729"

    def test_newick_input_matches_the_edge_list(self, capsys, figure_newick_file):
        code, out, err = run(
            capsys, "count", "--format", "newick", "--input", str(figure_newick_file)
        )
        assert code == 0 and err == ""
        assert parse_report(out)["cut_count"] == "729"


class TestZeroWeightWarning:
    @pytest.mark.parametrize(
        "command, key, value",
        [("cut", "average", "1/2"), ("oracle", "average", "1/2"), ("count", "cut_count", "1")],
    )
    def test_one_warning_line_on_each_run(self, capsys, tmp_path, command, key, value):
        text = "r a 0\nr b 1\n"
        path = tmp_path / "zero.edges"
        path.write_text(text)
        for _ in range(2):
            code, out, err = run(capsys, command, "--input", str(path))
            assert code == 0
            assert err == "warning: tree contains zero-weight edges\n"
            assert parse_report(out)[key] == value
        with pytest.warns(ZeroWeightWarning):
            parse_edgelist(text)


class TestClusterCommand:
    def test_two_scale_triples(self, capsys, linkage_file):
        code, out, err = run(
            capsys, "cluster", "--linkage", str(linkage_file),
            "--objective", "max", "--scheme", "gap",
        )
        assert code == 0 and err == ""
        report = parse_report(out)
        assert report["community"] == ["0 1 2", "3 4 5", "6 7 8"]
        assert report["average"] == "9"
        assert report["scheme"] == "gap"

    def test_height_scheme_runs(self, capsys, linkage_file):
        code, out, _ = run(
            capsys, "cluster", "--linkage", str(linkage_file), "--scheme", "height"
        )
        assert code == 0
        assert parse_report(out)["scheme"] == "height"

    def test_bad_csv(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        code, _, err = run(capsys, "cluster", "--linkage", str(path))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("fails", [False, True])
    def test_a_height_as_long_as_the_grammar_allows(self, capsys, tmp_path, fails):
        # Two 100,000-digit runs: 200,001 characters, past the csv module's
        # default field limit of 131,072, which the reader neither imposes
        # nor changes, after a run that succeeds or one that fails.
        height = "1" * MAX_EXPONENT + "/" + "3" * MAX_EXPONENT
        path = tmp_path / "long.csv"
        path.write_text(f"left,right,height,size\n0,1,{height},2\n" + "x\n" * fails)
        limit = csv.field_size_limit()
        code, out, err = run(capsys, "cluster", "--linkage", str(path))
        assert csv.field_size_limit() == limit
        if fails:
            assert (code, err) == (1, "error: line 3: expected 4 fields, got 1\n")
        else:
            assert (code, err) == (0, "")
            assert parse_report(out)["average"] == "1/3"

    def test_rows_ending_at_a_carriage_return(self, capsys, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"left,right,height,size\r0,1,1,2\r\n2,3,3,3\r")
        code, out, err = run(capsys, "cluster", "--linkage", str(path))
        assert (code, err) == (0, "")
        assert parse_report(out)["community"] == ["0 1", "2"]

    def test_a_nul_character_is_a_line_numbered_error(self, capsys, tmp_path):
        path = tmp_path / "nul.csv"
        path.write_text("left,right,height,size\n0\x00,1,1,2\n")
        code, _, err = run(capsys, "cluster", "--linkage", str(path))
        assert code == 1
        assert err.startswith("error: line 2: ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('left,right,height,size\n0,1,"1\n",2\nx\n', "line 2: expected 4 fields, got 3"),
            ('left,right,height,size\n"0",1,1,2\n', "line 2: left, right, and size must be integers"),
        ],
        ids=["quoted-line-break", "quoted-field"],
    )
    def test_quotes_are_ordinary_characters(self, capsys, tmp_path, text, message):
        code, _, err = run_on(capsys, tmp_path, text, "cluster", "--linkage")
        assert (code, err) == (1, f"error: {message}\n")

    def test_a_header_only_csv_has_one_item(self, capsys, tmp_path):
        code, _, err = run_on(capsys, tmp_path, "left,right,height,size\n", "cluster", "--linkage")
        assert (code, err) == (1, "error: need at least 2 items, got 1\n")


class TestByteOrderMark:
    """A UTF-8 byte-order mark before the text is not part of it: the report
    is the one without it, except for ``input_digest``, which covers the
    bytes as read."""

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["cluster", "--linkage"], "left,right,height,size\n0,1,1,2\n3,2,3,3\n"),
            (["cut", "--format", "newick", "--input"], "(a:1,b:2)r;\n"),
            (["cut", "--input"], "r a 5\nr b 1\n"),
            (["cut", "--objective", "min", "--input"], "s r 1\nr a 5\nr b 1\n"),
        ],
        ids=["linkage", "newick", "edgelist", "edgelist-single-use-root"],
    )
    def test_reports_as_without_it(self, capsys, tmp_path, argv, text):
        reports = []
        for data in (text.encode(), b"\xef\xbb\xbf" + text.encode()):
            path = tmp_path / f"input{len(reports)}"
            path.write_bytes(data)
            code, out, err = run(capsys, *argv, str(path))
            assert (code, err) == (0, "")
            report = parse_report(out)
            assert report.pop("input_digest") == hashlib.sha256(data).hexdigest()
            del report["elapsed_ms"]
            reports.append(report)
        assert reports[1] == reports[0]


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "cut")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


class TestCommunityOrder:
    """The CLI prints each community's members in ``_label_key`` order,
    through ``Partition.ordered`` and its ``int`` shortcut for the decimal
    labels that ``linkage_to_tree`` gives every item."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.integers(2, 150),
        st.sampled_from(["gap", "height"]),
        st.sampled_from(list(Objective)),
    )
    def test_community_lines_match_the_partition(self, seed, items, scheme, objective):
        text = random_linkage_csv(random.Random(seed), items)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "linkage.csv"
            path.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = run_cli([
                    "cluster", "--linkage", str(path),
                    "--scheme", scheme, "--objective", objective.value,
                ])
        assert code == 0
        tree = linkage_to_tree(parse_linkage_csv(text), scheme)
        partition = communities_from_cut(tree, optimal_average_cut(tree, objective).cut)
        expected = [" ".join(sorted(members, key=_label_key)) for members in partition]
        assert parse_report(out.getvalue())["community"] == expected


@pytest.fixture
def collector_on():
    """Run the test with the cyclic collector on, and leave it as found."""
    was_on = gc.isenabled()
    gc.enable()
    yield
    if not was_on:
        gc.disable()


@pytest.mark.usefixtures("collector_on")
class TestCollectorPause:
    """``run_cli`` pauses the cyclic collector for its one command and hands
    it back as it found it, whatever the exit."""

    def test_cut_and_cluster(self, capsys, figure_file, linkage_file):
        assert run(capsys, "cut", "--input", str(figure_file))[0] == 0
        assert gc.isenabled()
        assert run(capsys, "cluster", "--linkage", str(linkage_file))[0] == 0
        assert gc.isenabled()

    def test_malformed_input(self, capsys, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("a b -1\n")
        assert run(capsys, "cut", "--input", str(path))[0] == 1
        assert gc.isenabled()

    def test_oracle_limit(self, capsys, figure_file):
        assert run(capsys, "oracle", "--input", str(figure_file), "--limit", "1")[0] == 2
        assert gc.isenabled()

    def test_argument_error(self, capsys):
        assert run(capsys, "cut")[0] == 1
        assert gc.isenabled()

    def test_stays_off_when_called_with_it_off(self, capsys, figure_file):
        gc.disable()
        assert run(capsys, "cut", "--input", str(figure_file))[0] == 0
        assert not gc.isenabled()

    def test_off_inside_the_handler(self, capsys, monkeypatch):
        seen = []

        def recording_parser():
            parser = argparse.ArgumentParser()
            parser.set_defaults(handler=lambda args: seen.append(gc.isenabled()) or 0)
            return parser

        monkeypatch.setattr(avgcut.cli, "_build_parser", recording_parser)
        assert run(capsys)[0] == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_library_entry_points_leave_it_alone(self, figure_tree):
        optimal_average_cut(figure_tree)
        assert gc.isenabled()
        gc.disable()
        optimal_average_cut(figure_tree)
        assert not gc.isenabled()



SPURS = "r a 1\na b 3\nr y 8\ny c 1\ny d 1\ny e 2\nr z 2\nz g 1\n"
TINY_LINKAGE = "left,right,height,size\n0,1,1,2\n3,2,3,3\n"
_HEAD = "input_digest objective"
_STATS = "average average_decimal total size"
_CLUSTER = f"{_HEAD} scheme {_STATS} contraction_count community cut elapsed_ms"


class TestReportShape:
    """Each report's keys in order, with a run of equal keys written once, so
    a line that moves anywhere else fails. CI checks the same sequences
    through the installed script."""

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["cut"], f"{_HEAD} {_STATS} contraction_count cut elapsed_ms"),
            (["cut", "--trace"], f"{_HEAD} {_STATS} contraction_count cut trace elapsed_ms"),
            (["oracle"], f"{_HEAD} {_STATS} cut_count cut elapsed_ms"),
            (["count"], "input_digest cut_count elapsed_ms"),
            (["cluster", "--scheme", "gap"], _CLUSTER),
            (["cluster", "--scheme", "height"], _CLUSTER),
        ],
        ids=["cut", "cut-trace", "oracle", "count", "cluster-gap", "cluster-height"],
    )
    def test_key_order(self, capsys, tmp_path, argv, keys):
        path = tmp_path / "input"
        path.write_text(TINY_LINKAGE if argv[0] == "cluster" else SPURS)
        flag = "--linkage" if argv[0] == "cluster" else "--input"
        code, out, err = run(capsys, *argv, flag, str(path))
        assert (code, err) == (0, "")
        keys_in_order = (line.partition(": ")[0] for line in out.splitlines())
        assert " ".join(key for key, _ in itertools.groupby(keys_in_order)) == keys


def run_on(capsys, tmp_path, text, *argv):
    """``(exit code, stdout lines, stderr)`` of ``avgcut ARGV FILE``, where
    ``argv`` ends with ``--input`` or ``--linkage`` and FILE holds ``text``
    byte for byte."""
    path = tmp_path / f"input{len(os.listdir(tmp_path))}"
    path.write_bytes(text.encode())
    code, out, err = run(capsys, *argv, str(path))
    return code, out.splitlines(), err


def lines_with(lines, *keys):
    return [line for line in lines if line.partition(": ")[0] in keys]


class TestConsoleScriptSteps:
    """The console-script steps of CI whose inputs are fixed text, through
    ``run_cli``: the same inputs, lines and exit codes. The trace-lines step
    is ``TestCutCommand::test_trace_text``, the zero-weight step is
    ``TestZeroWeightWarning`` and the 17-spoke broom step is
    ``TestOracleCommand::test_broom_report_is_the_same_on_one_process_and_several``.
    The two steps that draw their inputs from ``rand()`` run only in CI."""

    def test_rational_newick_tree(self, capsys, tmp_path):
        text = "(a:1/3,b:2/7)r;\n"
        code, out, _ = run_on(capsys, tmp_path, text, "cut", "--format", "newick", "--input")
        assert code == 0 and "average: 13/42" in out

    @pytest.mark.parametrize(
        "objective, first_trace, average",
        [
            ("max", "trace: r y 9007199254740993", "average: 27021597764222978/3"),
            ("min", "trace: r x 9007199254740992", "average: 27021597764222977/3"),
        ],
    )
    def test_sibling_contractibilities_one_float_apart(
        self, capsys, tmp_path, objective, first_trace, average
    ):
        text = (
            "r x 9007199254740992\nr y 9007199254740993\nx a 9007199254740992\n"
            "x b 9007199254740992\ny c 9007199254740993\ny d 9007199254740993\n"
        )
        argv = ("cut", "--trace", "--objective", objective, "--input")
        code, out, _ = run_on(capsys, tmp_path, text, *argv)
        assert code == 0 and average in out
        assert lines_with(out, "trace")[0] == first_trace

    def test_min_on_a_tree_is_max_on_its_reflection(self, capsys, tmp_path):
        rows = [("r", "a", 7), ("a", "b", 1), ("b", "c", 1), ("b", "d", 2),
                ("r", "e", 3), ("e", "f", 3), ("e", "g", 3), ("r", "h", 6)]
        text = "".join(f"{p} {c} {w}\n" for p, c, w in rows)
        reflected = "".join(f"{p} {c} {7 - w}\n" for p, c, w in rows)
        argv = ("cut", "--trace", "--objective")
        code, low, _ = run_on(capsys, tmp_path, text, *argv, "min", "--input")
        assert code == 0 and "average: 3" in low
        code, high, _ = run_on(capsys, tmp_path, reflected, *argv, "max", "--input")
        assert code == 0 and "average: 4" in high

        def edges(lines):
            return [line.rsplit(" ", 1)[0] for line in lines_with(lines, "cut", "trace")]

        assert len(lines_with(low, "trace")) == 2
        assert edges(low) == edges(high)

    def test_linkage_csv_and_newick_cut_count(self, capsys, tmp_path):
        code, out, _ = run_on(capsys, tmp_path, TINY_LINKAGE, "cluster", "--linkage")
        assert code == 0 and "community: 0 1" in out
        text = "((a:1,b:2)x:3,c:4)r;\n"
        code, out, _ = run_on(capsys, tmp_path, text, "count", "--format", "newick", "--input")
        assert code == 0 and "cut_count: 2" in out

    def test_linkage_csv_height_forms_and_a_blank_row(self, capsys, tmp_path):
        text = "left,right,height,size\n0,1,1/3,2\n\n2,3,0.5,2\n4,5,1.25e0,4\n"
        code, out, _ = run_on(capsys, tmp_path, text, "cluster", "--linkage")
        assert code == 0
        for line in (
            "average: 5/6",
            "community: 0 1",
            "community: 2 3",
            "cut: c6 c4 11/12",
            "cut: c6 c5 3/4",
        ):
            assert line in out

    def test_linkage_csv_with_mixed_line_endings_and_a_bad_fourth_line(self, capsys, tmp_path):
        text = "left,right,height,size\r\n0,1,1,2\r3,2,2,3\n4,5,abc,4\r\n"
        code, _, err = run_on(capsys, tmp_path, text, "cluster", "--linkage")
        assert (code, err) == (1, "error: line 4: not a decimal height: 'abc'\n")

    def test_malformed_newick(self, capsys, tmp_path):
        text = "(a:1,,b:2)r;\n"
        code, _, err = run_on(capsys, tmp_path, text, "cut", "--format", "newick", "--input")
        assert (code, err) == (1, "error: expected a node at offset 5\n")

    def test_top_down_and_bottom_up_and_a_cycle(self, capsys, tmp_path):
        down_text = "r a 1\na b 3\na c 1\nr d 2\nd e 5\n"
        code, down, _ = run_on(capsys, tmp_path, down_text, "cut", "--input")
        assert code == 0 and "average: 3" in down
        up_text = "d e 5\nr d 2\na c 1\na b 3\nr a 1\n"
        code, up, _ = run_on(capsys, tmp_path, up_text, "cut", "--input")
        assert code == 0
        keys = ("average", "size", "cut")
        assert sorted(lines_with(down, *keys)) == sorted(lines_with(up, *keys))
        code, _, err = run_on(capsys, tmp_path, "r a 1\nx y 1\ny x 2\n", "cut", "--input")
        assert (code, err) == (1, "error: parent relation contains a cycle or unreachable nodes\n")

    def test_spaced_pq_height(self, capsys, tmp_path):
        text = "left,right,height,size\n0,1,1 / 2,2\n"
        code, _, err = run_on(capsys, tmp_path, text, "cluster", "--linkage")
        assert (code, err) == (1, "error: line 2: not a decimal height: '1 / 2'\n")

    def test_underscore_grouped_weight(self, capsys, tmp_path):
        code, _, err = run_on(capsys, tmp_path, "r a 1_000\n", "cut", "--input")
        expected = "error: line 1: not a decimal or p/q rational literal: '1_000'\n"
        assert (code, err) == (1, expected)

    def test_brute_force_oracle_and_its_limit(self, capsys, tmp_path):
        text = "r a 1\nr b 2\na c 3\na d 5\n"
        code, out, _ = run_on(capsys, tmp_path, text, "oracle", "--input")
        assert code == 0 and "average: 10/3" in out and "cut_count: 2" in out
        code, _, err = run_on(capsys, tmp_path, text, "oracle", "--limit", "1", "--input")
        assert (code, err) == (2, "error: 2 cuts exceed the limit of 1\n")

    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_cut_and_oracle_print_one_tied_optimum(self, capsys, tmp_path, objective):
        text = "b e 1\na b 1\na c 1\nr a 1\nr d 1\n"
        _, cut, _ = run_on(capsys, tmp_path, text, "cut", "--objective", objective, "--input")
        _, oracle, _ = run_on(capsys, tmp_path, text, "oracle", "--objective", objective, "--input")
        assert lines_with(cut, "total", "size", "cut") == lines_with(oracle, "total", "size", "cut")
        assert lines_with(oracle, "cut") == ["cut: r a 1", "cut: r d 1"]

    def test_oracle_on_a_3e4_edge_path_of_equal_weights(self, capsys, tmp_path):
        text = "".join(f"n{i} n{i + 1} 1\n" for i in range(30_000))
        code, out, _ = run_on(capsys, tmp_path, text, "oracle", "--input")
        assert code == 0 and "cut_count: 30000" in out and "average: 1" in out

    def test_comb_of_5e4_teeth(self, capsys, tmp_path):
        n = 50_000
        teeth = "".join(f"s{i} s{i + 1} {i + 1}\ns{i} t{i} {2 * n}\n" for i in range(n))
        text = teeth + f"s{n} t{n} 1\n"
        code, out, _ = run_on(capsys, tmp_path, text, "cut", "--objective", "max", "--input")
        assert code == 0
        assert "average: 5000050000/50001" in out and "contraction_count: 49999" in out
        code, out, _ = run_on(capsys, tmp_path, text, "cut", "--objective", "min", "--input")
        assert code == 0 and "average: 100001/2" in out and "size: 2" in out

    def test_12_item_caterpillar_dendrogram(self, capsys, tmp_path):
        rows = "".join(f"{11 + k},{k + 1},{k + 1}.5,{k + 2}\n" for k in range(1, 11))
        text = "left,right,height,size\n0,1,1,2\n" + rows
        code, out, _ = run_on(capsys, tmp_path, text, "cluster", "--linkage")
        assert code == 0 and "average: 41/5" in out
        expected = ["0 1 2 3 4 5 6 7", "8", "9", "10", "11"]
        assert lines_with(out, "community") == [f"community: {m}" for m in expected]
