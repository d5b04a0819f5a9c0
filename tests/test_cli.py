import argparse
import contextlib
import decimal
import gc
import io
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
    parse_linkage_csv,
)
from avgcut.cli import run_cli
from avgcut.dendro import _label_key

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
