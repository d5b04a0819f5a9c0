"""Tests of the benchmark itself, at the smoke size: ``python -m pytest benchmarks``."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from avgcut.cli import run_cli  # noqa: E402

from checker import check, decimal12  # noqa: E402
from probe import NOMINAL_S, scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _solve(inp, tmp_path: Path) -> tuple[str, str]:
    path = tmp_path / inp.filename
    path.write_text(inp.text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli([str(path) if a == "{path}" else a for a in inp.argv]) == 0
    return hashlib.sha256(inp.text.encode()).hexdigest(), out.getvalue()


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_seeded(name):
    first = [inp.text for inp in WORKLOADS[name].generate(7, smoke=True)]
    assert first == [inp.text for inp in WORKLOADS[name].generate(7, smoke=True)]
    assert first != [inp.text for inp in WORKLOADS[name].generate(8, smoke=True)]


@pytest.mark.parametrize("name", WORKLOADS)
def test_checker_accepts_the_program_output(name, tmp_path):
    for inp in WORKLOADS[name].generate(3, smoke=True):
        digest, report = _solve(inp, tmp_path)
        assert check(inp, digest, report) == []


def _edgelist_case(tmp_path):
    """A smoke edge-list input whose optimal cut has an edge below the root."""
    for seed in range(50):
        for inp in WORKLOADS["edgelist-int"].generate(seed, smoke=True):
            digest, report = _solve(inp, tmp_path)
            heads = {c: p for p, c, _w in inp.edges}
            deep = [
                line for line in report.splitlines()
                if line.startswith("cut: ") and line.split()[1] in heads
            ]
            if deep:
                return inp, digest, report, deep[0], heads
    raise AssertionError("no smoke input with a cut edge below the root")


def test_checker_rejects_a_cut_edge_replaced_by_its_parent_edge(tmp_path):
    inp, digest, report, line, heads = _edgelist_case(tmp_path)
    _, parent, _child, _w = line.split()
    weight = {c: w for _p, c, w in inp.edges}[parent]
    corrupted = report.replace(line, f"cut: {heads[parent]} {parent} {weight}")
    assert check(inp, digest, corrupted)


def test_checker_rejects_a_perturbed_average(tmp_path):
    inp, digest, report, _line, _heads = _edgelist_case(tmp_path)
    (average,) = [line for line in report.splitlines() if line.startswith("average: ")]
    nudged = Fraction(average.split()[1]) + Fraction(1, 10**9)
    assert check(inp, digest, report.replace(average, f"average: {nudged}"))


def test_checker_rejects_a_consistent_but_suboptimal_cut(tmp_path):
    """The root's own out-edges form a valid cut; with total, size and average
    rewritten to match it, only the optimality test can catch it."""
    inp, digest, report, _line, heads = _edgelist_case(tmp_path)
    root = next(p for p, _c, _w in inp.edges if p not in heads)
    cut = [(p, c, w) for p, c, w in inp.edges if p == root]
    total = sum(w for _p, _c, w in cut)
    kept = [
        line for line in report.splitlines()
        if not line.startswith(("cut: ", "average", "total: ", "size: "))
    ]
    forged = kept + [
        f"average: {total / len(cut)}",
        f"average_decimal: {decimal12(total / len(cut))}",
        f"total: {total}",
        f"size: {len(cut)}",
    ] + [f"cut: {p} {c} {w}" for p, c, w in cut]
    problems = check(inp, digest, "\n".join(forged) + "\n")
    assert problems == ["a boundary cut with a better average exists"]


def test_checker_rejects_a_wrong_digest(tmp_path):
    inp, _digest, report, _line, _heads = _edgelist_case(tmp_path)
    assert check(inp, "0" * 64, report) == ["input_digest is not the sha256 of the input file"]


def test_scaling_uses_the_probes_on_both_sides_of_each_call():
    # The same call, first at the nominal speed, then while the machine
    # slows to half speed, then at half speed: each scales to the same time.
    nominal = NOMINAL_S["text"]
    slow = 2 * nominal
    groups = [[nominal] * 2, [nominal] * 2, [slow] * 2, [slow] * 2]
    assert scaled([1.0, 1.5, 2.0], groups) == pytest.approx([1.0, 1.0, 1.0])


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_the_contract_line(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _bench("--workload", "oracle-small", "--seed", "2", "--seconds", "0.3",
                  "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in last["metrics"].items()
    }


def test_traced_self_times_add_up(tmp_path):
    done = _bench("--workload", "cluster-linkage", "--seconds", "0.5", "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    layers = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[2] in ("s", "count", "MB"):
            layers[parts[0]] = float(parts[1])
    assert layers["dendro.linkage_to_tree.self_s"] > 0
    assert layers["rational.parse_weight.calls"] == 0  # linkage heights are not weights
    # The spans cover the whole call apart from the root wrapper itself.
    assert 0 <= layers["trace.unattributed_s"] < 0.05 * layers["traced.solve_p50_s"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "edgelist-int", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
