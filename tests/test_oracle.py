import os
import signal
import threading
import time
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avgcut import (
    Objective,
    oracle,
    brute_force_optimum,
    count_cuts,
    enumerate_cuts,
    evaluate_cut,
    is_valid_cut,
    optimal_average_cut,
    parse_edgelist,
)
from avgcut.errors import TooManyCutsError

from .helpers import (
    NotApplicableError,
    PreconditionError,
    brute_force_reference,
    check_contraction_keeps_optimum,
    check_pull_up_dichotomy,
    check_push_down_gain,
    edge_set_by_children,
    enumerate_reference,
    figure_max_cut_children,
    path_tree,
    quiet_tree,
    reach_by_children,
    src_line_count,
    star_tree,
)

# The three cuts tie. The first enumerated, {a, d}, is the only one whose
# internal subtree is the root alone, though its sorted ids are not the
# lexicographically smallest: ids are b=0, e=1, a=2, c=3, r=4, d=5.
_TIE_TEXT = "b e 1\na b 1\na c 1\nr a 1\nr d 1\n"


class TestCountCuts:
    def test_star(self):
        assert count_cuts(star_tree(1, 2, 3, 4)) == 1

    def test_three_edge_path(self):
        assert count_cuts(path_tree(1, 2, 3)) == 3

    def test_two_edge_path(self):
        assert count_cuts(path_tree(1, 2)) == 2

    def test_figure(self, figure_tree):
        # per branch: 1 + (1 + 1)^3 = 9 choices, three branches
        assert count_cuts(figure_tree) == 729

    def test_big_count_is_exact(self):
        # complete ternary tree of depth 4: ((1 + 9^3)^3 at the root
        rows = []

        def grow(label, depth):
            for i in range(3):
                child = f"{label}{i}"
                rows.append((label, child, "1"))
                if depth > 1:
                    grow(child, depth - 1)

        grow("r", 4)
        from avgcut import build_tree

        t = build_tree(rows)
        assert count_cuts(t) == 730**3  # 389,017,000
        with pytest.raises(TooManyCutsError):
            enumerate_cuts(t)  # exceeds the default limit of 10^7


class TestEnumerateCuts:
    def test_two_edge_path_yields_both_cuts(self):
        t = path_tree(5, 10)
        cuts = {cut for _subtree, cut in enumerate_cuts(t)}
        assert cuts == {
            frozenset({t.node_id("n1")}),
            frozenset({t.node_id("n2")}),
        }

    def test_star_yields_single_cut(self):
        t = star_tree(1, 2, 3)
        pairs = list(enumerate_cuts(t))
        assert len(pairs) == 1
        subtree, cut = pairs[0]
        assert subtree.nodes == {t.root}
        assert cut == frozenset(t.edges())

    def test_count_matches_and_all_valid(self, figure_tree):
        seen = set()
        for subtree, cut in enumerate_cuts(figure_tree):
            assert is_valid_cut(figure_tree, cut)
            assert subtree.boundary(figure_tree) == cut
            seen.add(cut)
        assert len(seen) == 729

    def test_limit_enforced_eagerly(self, figure_tree):
        with pytest.raises(TooManyCutsError):
            enumerate_cuts(figure_tree, limit=100)

    def test_every_root_leaf_path_hits_cut_once(self, figure_tree):
        t = figure_tree
        for _subtree, cut in enumerate_cuts(t):
            for leaf in (v for v, kids in enumerate(t.children) if not kids):
                hits = 0
                v = leaf
                while v != t.root:
                    hits += v in cut
                    v = t.parent[v]
                assert hits == 1


class TestIsValidCut:
    def test_root_boundary_is_valid(self, figure_tree):
        assert is_valid_cut(figure_tree, set(figure_tree.children[figure_tree.root]))

    def test_nested_edges_invalid(self):
        t = path_tree(5, 10)
        assert not is_valid_cut(t, {t.node_id("n1"), t.node_id("n2")})

    def test_figure_output_cut_valid(self, figure_tree):
        cut = edge_set_by_children(figure_tree, figure_max_cut_children())
        assert is_valid_cut(figure_tree, cut)

    def test_empty_invalid(self, figure_tree):
        assert not is_valid_cut(figure_tree, set())

    def test_bad_ids_invalid(self, figure_tree):
        assert not is_valid_cut(figure_tree, {figure_tree.root})
        assert not is_valid_cut(figure_tree, {-1})
        assert not is_valid_cut(figure_tree, {10**6})

    def test_partial_boundary_invalid(self, figure_tree):
        cut = set(figure_tree.children[figure_tree.root])
        cut.discard(figure_tree.node_id("a1"))
        assert not is_valid_cut(figure_tree, cut)

    def test_internal_subtree_roundtrip(self, figure_tree):
        for subtree, cut in enumerate_cuts(figure_tree):
            assert subtree.boundary(figure_tree) == cut
            assert reach_by_children(figure_tree, cut) == subtree.nodes
            break
        assert not is_valid_cut(figure_tree, {figure_tree.root})


class TestBruteForce:
    def test_figure_maximum(self, figure_tree):
        result = brute_force_optimum(figure_tree, Objective.MAXIMIZE)
        assert result.average == 3
        assert result.size == 13

    def test_path_minimum(self):
        t = path_tree(5, 10)
        result = brute_force_optimum(t, Objective.MINIMIZE)
        assert result.average == 5
        assert result.cut == edge_set_by_children(t, ["n1"])

    def test_star_single_choice(self):
        result = brute_force_optimum(star_tree(1, 2, 3), Objective.MAXIMIZE)
        assert result.average == 2
        assert result.size == 3

    def test_limit(self, figure_tree):
        with pytest.raises(TooManyCutsError):
            brute_force_optimum(figure_tree, Objective.MAXIMIZE, limit=10)

    def test_deterministic_tie_break(self):
        # all weights equal: every cut has average 1; fewest-node subtree wins
        t = path_tree(1, 1, 1)
        result = brute_force_optimum(t, Objective.MAXIMIZE)
        assert result.cut == edge_set_by_children(t, ["n1"])

    def test_tie_break_is_not_first_found(self):
        t = parse_edgelist(_TIE_TEXT)
        cuts = [sorted(cut) for _subtree, cut in enumerate_cuts(t)]
        assert cuts == [[2, 5], [0, 3, 5], [1, 3, 5]]
        assert {t.labels[e] for e in cuts[1]} == {"b", "c", "d"}
        assert all(evaluate_cut(t, cut)[2] == 1 for cut in cuts)
        for obj in Objective:
            result = brute_force_optimum(t, obj)
            assert result.cut == frozenset({2, 5})
            assert result.average == 1

    def test_agrees_with_contraction_on_figure(self, figure_tree):
        for obj in Objective:
            assert (
                brute_force_optimum(figure_tree, obj).average
                == optimal_average_cut(figure_tree, obj).average
            )


class TestPushDownGain:
    def test_path_root_cut(self):
        t = path_tree(5, 10)
        e = t.node_id("n1")
        assert check_push_down_gain(t, {e}, e)

    def test_figure_root_boundary(self, figure_tree):
        t = figure_tree
        cut = set(t.children[t.root])
        assert check_push_down_gain(t, cut, t.node_id("a2"))

    def test_low_contractibility_rejected(self, figure_tree):
        t = figure_tree
        cut = set(t.children[t.root])  # average 2, a3's contractibility 0
        with pytest.raises(PreconditionError):
            check_push_down_gain(t, cut, t.node_id("a3"))

    def test_edge_not_in_cut_rejected(self, figure_tree):
        t = figure_tree
        cut = set(t.children[t.root])
        with pytest.raises(PreconditionError):
            check_push_down_gain(t, cut, t.node_id("b11"))

    def test_leaf_edge_rejected(self):
        t = path_tree(5, 10)
        cut = {t.node_id("n2")}
        with pytest.raises(PreconditionError):
            check_push_down_gain(t, cut, t.node_id("n2"))


class TestPullUpDichotomy:
    def test_path_deep_cut(self):
        t = path_tree(5, 10)
        assert check_pull_up_dichotomy(t, {t.node_id("n2")})

    def test_figure_all_leaf_edges(self, figure_tree):
        t = figure_tree
        cut = {e for e in t.edges() if not t.children[e]}
        assert len(cut) == 27
        assert check_pull_up_dichotomy(t, cut)

    def test_root_boundary_rejected(self, figure_tree):
        t = figure_tree
        with pytest.raises(PreconditionError):
            check_pull_up_dichotomy(t, set(t.children[t.root]))

    def test_invalid_cut_rejected(self, figure_tree):
        with pytest.raises(PreconditionError):
            check_pull_up_dichotomy(figure_tree, {figure_tree.node_id("b11")})


class TestContractionKeepsOptimum:
    def test_figure(self, figure_tree):
        assert check_contraction_keeps_optimum(figure_tree)

    def test_path(self):
        assert check_contraction_keeps_optimum(path_tree(5, 10))

    def test_star_not_applicable(self):
        with pytest.raises(NotApplicableError):
            check_contraction_keeps_optimum(star_tree(1, 2, 3))

    def test_no_contractible_edge_not_applicable(self):
        # root average 10; the single internal edge has contractibility -inf
        t = path_tree(10, 5)
        with pytest.raises(NotApplicableError):
            check_contraction_keeps_optimum(t)


class TestOracleAgreementSmall:
    def test_small_handmade_trees(self):
        from .helpers import quiet_tree

        trees = [
            path_tree(5, 10),
            path_tree(10, 5),
            path_tree(1, 1, 1, 1),
            star_tree(1, 2, 3),
            quiet_tree(
                [
                    ("r", "a", Fraction(5)),
                    ("r", "b", Fraction(1)),
                    ("a", "x", Fraction(10)),
                    ("a", "y", Fraction(1, 3)),
                    ("b", "z", Fraction(7, 2)),
                ]
            ),
        ]
        for t in trees:
            for obj in Objective:
                assert (
                    optimal_average_cut(t, obj).average
                    == brute_force_optimum(t, obj).average
                )


@st.composite
def tie_heavy_trees(draw):
    """Random trees of 2-16 nodes whose weights p/q have p in 0..3 and q in
    {1, 2, 3}, so many cuts share an average."""
    n = draw(st.integers(min_value=2, max_value=16))
    rows = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        weight = Fraction(
            draw(st.integers(min_value=0, max_value=3)), draw(st.sampled_from((1, 2, 3)))
        )
        rows.append((f"n{parent}", f"n{i}", weight))
    return quiet_tree(rows)


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_trees(), st.sampled_from(list(Objective)))
    def test_brute_force_optimum(self, t, objective):
        assert brute_force_optimum(t, objective) == brute_force_reference(t, objective)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_trees())
    def test_enumerate_cuts_pairs_and_order(self, t):
        assert list(enumerate_cuts(t)) == enumerate_reference(t)


def _replay(prep, prefix):
    """The position the walk reaches after the decisions of ``prefix``."""
    pos = 0
    for expand in prefix:
        pos = pos + 1 if expand else prep.skip_to[pos]
    return pos


def _follows(prep, prefix, subtree):
    """Whether the cut of ``subtree`` makes the decisions of ``prefix``."""
    pos = 0
    for expand in prefix:
        if (prep.order[pos] in subtree.nodes) != bool(expand):
            return False
        pos = pos + 1 if expand else prep.skip_to[pos]
    return True


def _best_of(t, prep, cuts, objective):
    """(scaled total, size) of the first of ``cuts``, in the order given,
    that attains their best average."""
    averages = [evaluate_cut(t, cut)[2] for cut in cuts]
    pick = max if objective is Objective.MAXIMIZE else min
    total, size, _ = evaluate_cut(t, cuts[averages.index(pick(averages))])
    return total * prep.scale, size


class TestSubSpaces:
    @settings(max_examples=200, deadline=None)
    @given(tie_heavy_trees(), st.integers(min_value=2, max_value=5))
    def test_sub_spaces_partition_the_cut_space(self, t, workers):
        counts = oracle._node_counts(t)
        prep = oracle._Prep(t)
        with mock.patch.object(oracle, "_FORK_MIN_CUTS", 1):
            shares = oracle._split(prep, counts, workers)
        assert 1 <= len(shares) <= workers and all(shares)
        prefixes = [prefix for share in shares for prefix in share]
        sizes = [oracle._subspace_cuts(prep, counts, _replay(prep, p)) for p in prefixes]
        assert sum(sizes) == count_cuts(t)

        members = {prefix: [] for prefix in prefixes}
        for subtree, cut in enumerate_cuts(t):
            owners = [p for p in prefixes if _follows(prep, p, subtree)]
            assert len(owners) == 1
            members[owners[0]].append(cut)
        for prefix, size in zip(prefixes, sizes):
            assert len(members[prefix]) == size
            for objective in Objective:
                sign = 1 if objective is Objective.MAXIMIZE else -1
                best_total, best_size = oracle._best(oracle._Prep(t, sign), [prefix])
                expected = _best_of(t, prep, members[prefix], objective)
                assert (sign * best_total, best_size) == expected

    def test_one_worker_walks_the_whole_space(self, figure_tree):
        prep = oracle._Prep(figure_tree)
        assert oracle._split(prep, oracle._node_counts(figure_tree), 1) == [[b""]]

    def test_shares_are_balanced_on_a_bushy_tree(self, figure_tree):
        counts = oracle._node_counts(figure_tree)
        prep = oracle._Prep(figure_tree)
        with mock.patch.object(oracle, "_FORK_MIN_CUTS", 1):
            shares = oracle._split(prep, counts, 2)
        loads = [
            sum(oracle._subspace_cuts(prep, counts, _replay(prep, p)) for p in share)
            for share in shares
        ]
        assert sum(loads) == 729 and max(loads) <= 729 * 0.6

    def test_a_path_is_not_shared_out(self):
        # Every split of a path peels off one cut, so no other share
        # reaches the crossover and the whole walk stays here.
        t = path_tree(*([1] * 30_000))
        prep = oracle._Prep(t)
        shares = oracle._split(prep, oracle._node_counts(t), 2)
        assert len(shares) == 1 and len(shares[0]) == 16


@contextmanager
def _forced_workers(cpus: int = 3):
    """Let the oracle see ``cpus`` CPUs and fork from the first cut up."""
    with mock.patch.object(os, "sched_getaffinity", lambda _pid: set(range(cpus))):
        with mock.patch.object(oracle, "_FORK_MIN_CUTS", 1):
            yield


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_fork():
    raise AssertionError("the oracle forked")


class TestParallelWalk:
    @settings(max_examples=100, deadline=None)
    @given(tie_heavy_trees(), st.sampled_from(list(Objective)))
    def test_matches_reference_with_forced_workers(self, t, objective):
        with _forced_workers():
            result = brute_force_optimum(t, objective)
        assert result == brute_force_reference(t, objective)
        _assert_no_children()

    def test_forks_one_child_per_extra_cpu(self, figure_tree):
        forks = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        with _forced_workers(3), mock.patch.object(os, "fork", counting_fork):
            for objective in Objective:
                result = brute_force_optimum(figure_tree, objective)
                assert result == brute_force_reference(figure_tree, objective)
        assert len(forks) == 4
        _assert_no_children()

    def test_no_fork_below_the_crossover(self, figure_tree):
        with mock.patch.object(os, "sched_getaffinity", lambda _pid: {0, 1, 2, 3}):
            with mock.patch.object(os, "fork", _no_fork):
                result = brute_force_optimum(figure_tree)
        assert result == brute_force_reference(figure_tree)

    @pytest.mark.parametrize("call", ["fork", "pipe"])
    def test_failed_fork_walks_that_share_here(self, figure_tree, call):
        def fail(*_args):
            raise OSError("resource temporarily unavailable")

        with _forced_workers(), mock.patch.object(os, call, fail):
            result = brute_force_optimum(figure_tree, Objective.MINIMIZE)
        assert result == brute_force_reference(figure_tree, Objective.MINIMIZE)
        _assert_no_children()

    @pytest.mark.parametrize("failure", ["raise", "exit 0", "killed"])
    def test_failed_child_share_is_walked_here(self, figure_tree, failure):
        parent = os.getpid()
        real_best = oracle._best

        def flaky(*args):
            if os.getpid() != parent:
                if failure == "raise":
                    raise RuntimeError("child failed")
                if failure == "exit 0":
                    raise SystemExit(0)
                os.kill(os.getpid(), signal.SIGKILL)
            return real_best(*args)

        with _forced_workers(), mock.patch.object(oracle, "_best", flaky):
            result = brute_force_optimum(figure_tree)
        assert result == brute_force_reference(figure_tree)
        _assert_no_children()

    def test_child_dying_mid_write_is_walked_here(self, figure_tree):
        parent = os.getpid()
        real_write = os.write

        def torn_write(fd, data):
            if os.getpid() != parent:
                real_write(fd, bytes(data[:3]))
                os.kill(os.getpid(), signal.SIGKILL)
            return real_write(fd, data)

        with _forced_workers(), mock.patch.object(os, "write", torn_write):
            result = brute_force_optimum(figure_tree)
        assert result == brute_force_reference(figure_tree)
        _assert_no_children()

    def test_interrupt_reaps_running_children(self, figure_tree):
        parent = os.getpid()

        def stuck(*_args):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        started = time.perf_counter()
        with _forced_workers(), mock.patch.object(oracle, "_best", stuck):
            with pytest.raises(KeyboardInterrupt):
                brute_force_optimum(figure_tree)
        assert time.perf_counter() - started < 30
        _assert_no_children()

    def test_limit_is_checked_before_any_fork(self, figure_tree):
        with _forced_workers(), mock.patch.object(os, "fork", _no_fork):
            with pytest.raises(TooManyCutsError):
                brute_force_optimum(figure_tree, limit=728)

    def test_no_fork_while_another_thread_runs(self, figure_tree):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            with _forced_workers(), mock.patch.object(os, "fork", _no_fork):
                result = brute_force_optimum(figure_tree)
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert result == brute_force_reference(figure_tree)

    def test_one_process_where_fork_is_missing(self, figure_tree, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with _forced_workers():
            result = brute_force_optimum(figure_tree)
        assert result == brute_force_reference(figure_tree)

    @pytest.mark.parametrize("cpus", [1, 3])
    @settings(max_examples=100, deadline=None)
    @given(t=tie_heavy_trees(), objective=st.sampled_from(list(Objective)))
    def test_engine_oracle_and_reference_return_one_cut(self, cpus, t, objective):
        with _forced_workers(cpus):
            result = brute_force_optimum(t, objective)
        _assert_no_children()
        assert result.cut == optimal_average_cut(t, objective).cut
        assert result.cut == brute_force_reference(t, objective).cut
        assert (result.total, result.size, result.average) == evaluate_cut(t, result.cut)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_reports_the_total_and_size_of_the_cut_it_returns(self, cpus):
        # A 17-spoke broom: every cut ties, and once the cut space is split
        # between processes the best a share reports may be a larger cut
        # than the fewest-node one.
        t = parse_edgelist("".join(f"r a{i} 1\na{i} b{i} 1\na{i} c{i} 1\n" for i in range(17)))
        for objective in Objective:
            with _forced_workers(cpus):
                result = brute_force_optimum(t, objective)
            _assert_no_children()
            assert (result.total, result.size) == evaluate_cut(t, result.cut)[:2]
            assert result.cut == optimal_average_cut(t, objective).cut

    def test_result_reports_the_cut_count(self, figure_tree):
        assert brute_force_optimum(figure_tree).cut_count == 729
        assert optimal_average_cut(figure_tree).cut_count is None


class TestDeepPaths:
    """The walk builds no cut, and the fewest-node cut is derived once at
    the end, so paths, where every cut ties (equal weights) or wins
    (increasing weights), take linear time: 4x the edges should cost about
    4x, and quadratic growth would cost 16x."""

    @pytest.mark.parametrize("kind", ["equal", "increasing"])
    def test_growth_is_linear(self, kind):
        timings = {}
        for n in (5_000, 20_000):
            t = path_tree(*([1] * n if kind == "equal" else range(1, n + 1)))
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                result = brute_force_optimum(t)
                best = min(best, time.perf_counter() - started)
            assert result.average == optimal_average_cut(t).average
            assert result.cut_count == n
            timings[n] = best
        assert timings[20_000] < 8 * timings[5_000], timings


class TestDeepPathLineCounts:
    """``TestDeepPaths`` without a clock: the lines run inside ``avgcut``
    grow about 4x for 4x the edges on any host, where a quadratic walk
    would grow 16x."""

    @pytest.mark.parametrize("kind", ["equal", "increasing"])
    def test_growth_is_linear(self, kind):
        lines = {}
        for n in (2_500, 10_000):
            t = path_tree(*([1] * n if kind == "equal" else range(1, n + 1)))
            result, lines[n] = src_line_count(brute_force_optimum, t)
            assert result.average == optimal_average_cut(t).average
            assert result.cut_count == n
        assert lines[10_000] < 8 * lines[2_500], lines
