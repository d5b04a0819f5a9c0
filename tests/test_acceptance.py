"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines as they are produced.
"""

import random
import time
from fractions import Fraction

import pytest

from avgcut import (
    ContractionState,
    Objective,
    brute_force_optimum,
    cluster,
    count_cuts,
    enumerate_cuts,
    evaluate_cut,
    is_valid_cut,
    linkage_to_tree,
    optimal_average_cut,
    parse_edgelist,
    run_contraction,
)
from avgcut.dendro import LinkageTable, Merge

from .helpers import (
    NotApplicableError,
    check_contraction_keeps_optimum,
    check_pull_up_dichotomy,
    check_push_down_gain,
    quiet_tree,
    random_tree,
    root_average_history,
    star_tree,
)

CORPUS_SIZE = 520


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """Random trees, 4-25 nodes, duplicate-heavy rational weights, chains."""
    trees = []
    seed = 0
    while len(trees) < CORPUS_SIZE:
        rng = random.Random(seed)
        seed += 1
        t = random_tree(rng, min_nodes=4, max_nodes=25)
        if count_cuts(t) > 50_000:
            continue  # keep the brute-force side tractable
        trees.append(t)
    return trees


def test_criterion_1_figure_golden(figure_file, capsys):
    from avgcut.cli import run_cli

    started = time.perf_counter()
    code = run_cli(["cut", "--objective", "max", "--input", str(figure_file)])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    report = dict(
        line.split(": ", 1) for line in out.splitlines() if not line.startswith("cut:")
    )
    tree = parse_edgelist(figure_file.read_text())
    result = optimal_average_cut(tree, Objective.MAXIMIZE)
    ok = (
        code == 0
        and report["average"] == "3"
        and report["size"] == "13"
        and result.average == Fraction(3, 1)
        and result.size == 13
        and elapsed < 0.1
    )
    with capsys.disabled():
        _verdict(1, ok, f"figure cut average=3 size=13 in {elapsed * 1000:.1f} ms")


def test_criterion_2_oracle_equivalence(corpus, capsys):
    started = time.perf_counter()
    mismatches = 0
    for t in corpus:
        for objective in Objective:
            fast = optimal_average_cut(t, objective)
            slow = brute_force_optimum(t, objective)
            if (fast.cut, fast.average) != (slow.cut, slow.average):
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    with capsys.disabled():
        _verdict(
            2,
            ok,
            f"{len(corpus)} trees x both objectives agree with the oracle exactly, "
            f"cut and average ({mismatches} mismatches) in {elapsed:.1f} s",
        )


def test_criterion_3_exchange_property_suite(capsys):
    push_down_pairs = 0
    pull_up_cuts = 0
    contraction_trees = 0
    failures = 0

    exchange_trees = []
    seed = 10_000
    while len(exchange_trees) < 100:
        rng = random.Random(seed)
        seed += 1
        t = random_tree(rng, min_nodes=4, max_nodes=12)
        if count_cuts(t) <= 10_000:
            exchange_trees.append(t)

    for t in exchange_trees:
        root_boundary = frozenset(t.children[t.root])
        state = ContractionState(t)
        for _subtree, cut in enumerate_cuts(t):
            _total, _size, average = evaluate_cut(t, cut)
            for e in cut:
                if t.children[e] and state.contractibility(e) > average:
                    push_down_pairs += 1
                    failures += not check_push_down_gain(t, cut, e)
            if cut != root_boundary:
                pull_up_cuts += 1
                failures += not check_pull_up_dichotomy(t, cut)

    seed = 20_000
    while contraction_trees < 100:
        rng = random.Random(seed)
        seed += 1
        t = random_tree(rng, min_nodes=4, max_nodes=14)
        if count_cuts(t) > 10_000:
            continue
        try:
            holds = check_contraction_keeps_optimum(t)
        except NotApplicableError:
            continue
        contraction_trees += 1
        failures += not holds

    ok = failures == 0 and push_down_pairs > 0 and pull_up_cuts > 0
    with capsys.disabled():
        _verdict(
            3,
            ok,
            f"{push_down_pairs} push-down pairs, {pull_up_cuts} pull-up cuts, "
            f"{contraction_trees} contraction trees, {failures} failures",
        )


def test_criterion_4_root_average_monotonicity(corpus, capsys):
    violations = 0
    runs = 0
    for t in corpus:
        for objective in Objective:
            state = run_contraction(t, objective)
            history = root_average_history(state)
            runs += 1
            for step, before, after in zip(state.steps(), history, history[1:]):
                if objective is Objective.MAXIMIZE:
                    drifted = after < before
                else:
                    drifted = after > before
                flat_root_merge = step.merged_into_root and after == before
                moved_without_merge = (not step.merged_into_root) and after != before
                if drifted or flat_root_merge or moved_without_merge:
                    violations += 1
    ok = violations == 0
    with capsys.disabled():
        _verdict(
            4,
            ok,
            f"root average monotone over {runs} traced runs ({violations} violations)",
        )


def test_criterion_5_cut_validity_and_original_identity(corpus, capsys):
    violations = 0
    for t in corpus:
        original_edges = set(t.edges())
        for objective in Objective:
            result = optimal_average_cut(t, objective)
            if not is_valid_cut(t, result.cut):
                violations += 1
            if not set(result.cut) <= original_edges:
                violations += 1
    ok = violations == 0
    with capsys.disabled():
        _verdict(
            5,
            ok,
            f"{2 * len(corpus)} cuts valid on the uncontracted trees "
            f"({violations} violations)",
        )


def _perf_tree(n_edges: int, seed: int):
    rng = random.Random(seed)
    rows = []
    for i in range(1, n_edges + 1):
        parent = rng.randrange(i) if rng.random() > 0.25 else i - 1
        rows.append((f"n{parent}", f"n{i}", Fraction(rng.randint(1, 1000))))
    return quiet_tree(rows)


def test_criterion_6_complexity_bound(capsys):
    optimal_average_cut(_perf_tree(500, seed=1))  # warm-up

    # Best of three calls per size, so that one host stall is not read as
    # the cost of the cut.
    timings = {}
    for n_edges in (10**3, 10**4, 10**5):
        t = _perf_tree(n_edges, seed=42)
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            optimal_average_cut(t, Objective.MAXIMIZE)
            best = min(best, time.perf_counter() - started)
        timings[n_edges] = best

    within_budget = (
        timings[10**3] < 0.05 and timings[10**4] < 0.5 and timings[10**5] < 5.0
    )
    # quadratic growth would multiply time by ~100 per decade; require far less
    growth_1 = timings[10**4] / max(timings[10**3], 1e-3)
    growth_2 = timings[10**5] / max(timings[10**4], 1e-2)
    subquadratic = growth_1 < 60 and growth_2 < 60
    ok = within_budget and subquadratic
    with capsys.disabled():
        _verdict(
            6,
            ok,
            "cut times "
            + ", ".join(f"{n:.0e}: {timings[n] * 1000:.0f} ms" for n in sorted(timings))
            + f"; decade growth x{growth_1:.1f}, x{growth_2:.1f}",
        )


def test_criterion_7_exactness(figure_tree, capsys):
    tenth_star = parse_edgelist("r a 0.1\nr b 0.2\nr c 0.3\n")
    thirds = star_tree(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    mixed = parse_edgelist("r a 1/3\nr b 0.5\n")

    figure_average = optimal_average_cut(figure_tree).average
    ok = (
        optimal_average_cut(tenth_star).average == Fraction(1, 5)
        and optimal_average_cut(thirds).average == Fraction(1, 3)
        and optimal_average_cut(mixed).average == Fraction(5, 12)
        and figure_average == 3
        and figure_average.denominator == 1
    )
    with capsys.disabled():
        _verdict(
            7,
            ok,
            "decimal and p/q inputs give drift-free rational averages; "
            f"figure average is the integer {figure_average}",
        )


def test_criterion_8_clustering_pipeline(capsys):
    rows = [
        (0, 1, 1, 2), (9, 2, 1, 3),
        (3, 4, 1, 2), (11, 5, 1, 3),
        (6, 7, 1, 2), (13, 8, 1, 3),
        (10, 12, 10, 6), (15, 14, 10, 9),
    ]
    table = LinkageTable(
        n_items=9,
        merges=tuple(Merge(l, r, Fraction(h), s) for l, r, h, s in rows),
    )
    partition, result = cluster(table, Objective.MAXIMIZE, "gap")
    expected = [{"0", "1", "2"}, {"3", "4", "5"}, {"6", "7", "8"}]

    tree = linkage_to_tree(table, "gap")
    oracle_best = brute_force_optimum(tree, Objective.MAXIMIZE)
    ok = (
        [set(c) for c in partition] == expected
        and oracle_best.average == result.average
        and oracle_best.cut == result.cut
    )
    with capsys.disabled():
        _verdict(
            8,
            ok,
            f"two-scale linkage yields the three triples at average {result.average}, "
            "confirmed maximal by enumeration",
        )
