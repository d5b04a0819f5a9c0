import math
import random
import time
from fractions import Fraction

import pytest

from avgcut import (
    NEGATIVE_INFINITY,
    POSITIVE_INFINITY,
    Contractibility,
    ContractionState,
    ContractionStep,
    Objective,
    brute_force_optimum,
    evaluate_cut,
    is_valid_cut,
    linkage_to_tree,
    optimal_average_cut,
    parse_linkage_csv,
    run_contraction,
)
from avgcut import contraction
from avgcut.errors import DeadEdgeError, EmptyCutError, LeafHeadError
from avgcut.io import edge_rows

from .helpers import (
    WEIGHT_KINDS,
    cut_edges_by_walk,
    edge_set_by_children,
    figure_max_cut_children,
    fresh_queue_edges,
    live_out_aggregates,
    path_tree,
    prime_denominator_path,
    prime_denominator_perf_tree,
    prime_denominator_tree,
    quiet_tree,
    random_linkage_csv,
    random_tree,
    random_weighted_rows,
    root_average_history,
    src_line_count,
    star_tree,
    supernode_tops,
)


class TestContractibilityType:
    def test_total_order(self):
        finite = [Contractibility.finite(Fraction(n, d)) for n, d in ((-3, 1), (0, 1), (7, 2))]
        # with unreduced pairs: -6/4 between -3 and 0, 4/2 between 0 and 7/2
        finite = [finite[0], Contractibility(-6, 4), finite[1], Contractibility(4, 2), finite[2]]
        ordered = [NEGATIVE_INFINITY, *finite, POSITIVE_INFINITY]
        for i, low in enumerate(ordered):
            assert low == low
            for high in ordered[i + 1 :]:
                assert low < high
                assert high > low
                assert low != high

    def test_compares_against_rationals(self):
        lam = Contractibility.finite(Fraction(7, 2))
        assert lam == Fraction(7, 2)
        assert lam > 3
        assert lam < 4
        assert POSITIVE_INFINITY > Fraction(10**9)
        assert NEGATIVE_INFINITY < Fraction(-(10**9))

    def test_value_accessors(self):
        lam = Contractibility.finite(2)
        assert lam.is_finite and lam.value == 2
        assert not POSITIVE_INFINITY.is_finite
        with pytest.raises(ValueError):
            POSITIVE_INFINITY.value

    def test_str_forms(self):
        assert str(POSITIVE_INFINITY) == "+inf"
        assert str(NEGATIVE_INFINITY) == "-inf"
        assert str(Contractibility.finite(Fraction(7, 2))) == "7/2"

    def test_hash_agrees_with_equality(self):
        cases = [
            (Contractibility.finite(value), value)
            for value in (2, -3, 0, Fraction(7, 2), Fraction(-1, 3), Fraction(4, 2))
        ]
        cases += [(Contractibility(4, 2), 2), (Contractibility(-6, 4), Fraction(-3, 2))]
        for lam, value in cases:
            assert lam == value
            assert hash(lam) == hash(value)
            assert value in {lam}
            assert lam in {value}
        assert len({Contractibility.finite(Fraction(4, 2)), Contractibility(4, 2), 2, Fraction(2)}) == 1
        assert len({POSITIVE_INFINITY, NEGATIVE_INFINITY, POSITIVE_INFINITY}) == 2

    @pytest.mark.parametrize("num, den", [(1, -1), (0, 0)])
    def test_a_negative_denominator_or_zero_over_zero_is_rejected(self, num, den):
        with pytest.raises(ValueError, match=f"not a contractibility: {num}/{den}"):
            Contractibility(num, den)

    def test_repr(self):
        assert repr(Contractibility(3, 4)) == "Contractibility(3, 4)"

    def test_other_types_neither_equal_nor_order(self):
        assert (Contractibility(1) == "x") is False
        with pytest.raises(TypeError):
            Contractibility(1) < "x"


class TestEdgeContractibility:
    def test_figure_weight2_root_edge(self, figure_tree):
        # head a2 has out-edges 3,3,3: (9 - 2) / 2
        lam = ContractionState(figure_tree).contractibility(figure_tree.node_id("a2"))
        assert lam == Fraction(7, 2)

    def test_figure_weight3_root_edge(self, figure_tree):
        # head a3 has out-edges 1,1,1: (3 - 3) / 2
        lam = ContractionState(figure_tree).contractibility(figure_tree.node_id("a3"))
        assert lam == 0

    def test_single_out_edge_positive_gap(self):
        t = path_tree(5, 10)
        assert ContractionState(t).contractibility(t.node_id("n1")) is POSITIVE_INFINITY

    def test_single_out_edge_negative_gap(self):
        t = path_tree(10, 5)
        assert ContractionState(t).contractibility(t.node_id("n1")) is NEGATIVE_INFINITY

    def test_single_out_edge_neutral_depends_on_objective(self):
        t = path_tree(5, 5)
        e = t.node_id("n1")
        assert ContractionState(t, Objective.MAXIMIZE).contractibility(e) is NEGATIVE_INFINITY
        assert ContractionState(t, Objective.MINIMIZE).contractibility(e) is POSITIVE_INFINITY

    def test_leaf_edge_rejected(self):
        t = path_tree(5, 10)
        with pytest.raises(LeafHeadError):
            ContractionState(t).contractibility(t.node_id("n2"))

    def test_root_rejected(self, figure_tree):
        with pytest.raises(ValueError, match="not an edge id"):
            ContractionState(figure_tree).contractibility(figure_tree.root)


class TestContract:
    def test_figure_root_merge_updates_average(self, figure_tree):
        state = ContractionState(figure_tree)
        assert state.root_average == 2
        state.contract(figure_tree.node_id("a2"))
        assert state.root_average == Fraction(13, 5)

    def test_path_merge(self):
        t = path_tree(5, 10)
        state = ContractionState(t)
        state.contract(t.node_id("n1"))
        assert state.root_average == 10
        assert state.cut_edges() == {t.node_id("n2")}

    def test_dead_edge_rejected(self):
        t = path_tree(5, 10)
        state = ContractionState(t)
        e = t.node_id("n1")
        state.contract(e)
        with pytest.raises(DeadEdgeError):
            state.contract(e)
        with pytest.raises(DeadEdgeError):
            state.contractibility(e)

    def test_leaf_edge_rejected(self):
        t = path_tree(5, 10)
        state = ContractionState(t)
        with pytest.raises(LeafHeadError):
            state.contract(t.node_id("n2"))

    def test_requeues_the_merged_supernodes_in_edge(self, figure_tree):
        t = figure_tree
        state = ContractionState(t)
        b11 = t.node_id("b11")
        a1 = t.node_id("a1")
        before_others = {
            e: state.contractibility(e) for e in t.edges() if t.children[e] and e != a1 and e != b11
        }
        assert state.contractibility(a1) == Fraction(5, 2)  # (6 - 1) / 2
        state.contract(b11)
        # only the in-edge of the merged-into supernode changed: (13 - 1) / 4
        assert state.contractibility(a1) == 3
        for e, lam in before_others.items():
            assert state.contractibility(e) == lam

    def test_aggregates_after_merge(self, figure_tree):
        t = figure_tree
        state = ContractionState(t)
        b11 = t.node_id("b11")
        state.contract(b11)
        a1 = t.node_id("a1")
        sums, counts = live_out_aggregates(state)
        assert sums[a1] == 13  # 2 + 2 + 3 + 3 + 3
        assert counts[a1] == 5
        assert supernode_tops(state)[b11] == a1
        assert state.contractibility(a1) == (13 - t.weights[a1]) / (5 - 1)


class TestOptimalAverageCut:
    def test_figure_maximize(self, figure_tree):
        result = optimal_average_cut(figure_tree, Objective.MAXIMIZE)
        assert result.average == 3
        assert result.size == 13
        assert result.total == 39
        assert result.cut == edge_set_by_children(figure_tree, figure_max_cut_children())

    def test_star_any_objective_returns_all_edges(self):
        t = star_tree(1, 2, 3)
        for obj in Objective:
            result = optimal_average_cut(t, obj)
            assert result.cut == frozenset(t.edges())
            assert result.average == 2
            assert result.contractions == ()

    def test_path_maximize(self):
        t = path_tree(5, 10)
        result = optimal_average_cut(t, Objective.MAXIMIZE)
        assert result.cut == edge_set_by_children(t, ["n2"])
        assert result.average == 10

    def test_path_minimize(self):
        t = path_tree(5, 10)
        result = optimal_average_cut(t, Objective.MINIMIZE)
        assert result.cut == edge_set_by_children(t, ["n1"])
        assert result.average == 5

    def test_unary_root_chain(self):
        t = quiet_tree([("r", "a", Fraction(1)), ("a", "x", Fraction(3)),
                        ("a", "y", Fraction(3)), ("a", "z", Fraction(3))])
        result = optimal_average_cut(t)
        assert result.average == 3
        assert result.size == 3

    def test_result_consistent_with_evaluate_cut(self, figure_tree):
        result = optimal_average_cut(figure_tree)
        total, size, average = evaluate_cut(figure_tree, result.cut)
        assert (total, size, average) == (result.total, result.size, result.average)
        assert result.average == result.total / result.size

    def test_determinism(self, figure_tree):
        a = optimal_average_cut(figure_tree)
        b = optimal_average_cut(figure_tree)
        assert a == b

    def test_exactness_with_decimal_weights(self):
        t = star_tree(Fraction(1, 10), Fraction(2, 10), Fraction(3, 10))
        assert optimal_average_cut(t).average == Fraction(1, 5)

    def test_cut_edges_walk_equals_a_full_scan(self):
        """After every contraction of random runs, under both objectives, the
        cut is every live edge whose tail lies in the root's supernode, and
        every live edge a walk down the children through contracted edges
        meets: on random trees, on the same trees with their edge lines
        reversed (so ids are not top-down) and on linkage trees."""

        def scan(state):
            t = state.tree
            contracted = set(state.contractions)
            tops = supernode_tops(state)
            return frozenset(
                e for e in t.edges()
                if e not in contracted and tops[t.tail(e)] == t.root
            )

        rng = random.Random(17)
        trees = [random_tree(rng, max_nodes=40) for _ in range(60)]
        trees += [quiet_tree(reversed(edge_rows(t, t.edges()))) for t in trees[::2]]
        trees += [
            linkage_to_tree(parse_linkage_csv(random_linkage_csv(rng, rng.randint(2, 80))), scheme)
            for scheme in ("gap", "height")
            for _ in range(10)
        ]
        assert sum(t.root != 0 for t in trees) > 40
        for t in trees:
            for objective in Objective:
                state = ContractionState(t, objective)
                assert state.cut_edges() == scan(state) == cut_edges_by_walk(state)
                # A random prefix of contractions, then the greedy run.
                internal = [e for e in t.edges() if t.children[e]]
                for e in rng.sample(internal, rng.randint(0, len(internal))):
                    state.contract(e)
                    assert state.cut_edges() == scan(state) == cut_edges_by_walk(state)
                state.run()
                assert state.cut_edges() == scan(state) == cut_edges_by_walk(state)
                assert state.result().size == len(state.cut_edges())


class TestTrace:
    def test_history_starts_at_initial_average(self, figure_tree):
        state = run_contraction(figure_tree)
        history = root_average_history(state)
        assert history[0] == 2
        assert history[-1] == 3
        assert len(history) == len(state.contractions) + 1

    def test_history_monotone_under_maximize(self, figure_tree):
        state = run_contraction(figure_tree)
        history = root_average_history(state)
        for before, after in zip(history, history[1:]):
            assert after >= before
        for step, before, after in zip(state.steps(), history, history[1:]):
            if step.merged_into_root:
                assert after > before
            else:
                assert after == before

    def test_steps_record_contracted_edges(self, figure_tree):
        state = run_contraction(figure_tree)
        assert [s.edge for s in state.steps()] == list(state.contractions)
        result = state.result()
        assert result.contractions == tuple(state.contractions)

    def test_pending_edges_are_live_internal(self, figure_tree):
        state = run_contraction(figure_tree)
        contracted = set(state.contractions)
        expected = {
            e for e in figure_tree.edges() if figure_tree.children[e] and e not in contracted
        }
        assert fresh_queue_edges(state) == expected


class TestDistinctPrimeDenominatorsAtScale:
    def test_1e4_edges_within_the_criterion_6_budget(self):
        # The weights' lcm grows linearly in n here; the engine must not.
        t = prime_denominator_perf_tree(10**4, seed=42)
        assert math.lcm(*(w.denominator for w in t.weights)).bit_length() > 150_000
        optimal_average_cut(prime_denominator_perf_tree(500, seed=1))  # warm-up
        for objective in Objective:
            started = time.perf_counter()
            result = optimal_average_cut(t, objective)
            elapsed = time.perf_counter() - started
            assert elapsed < 0.5, f"{objective.value}: {elapsed * 1000:.0f} ms for 1e4 edges"
            assert is_valid_cut(t, result.cut)
            assert evaluate_cut(t, result.cut) == (result.total, result.size, result.average)

    def test_2e4_edge_path_absorbed_by_the_root(self):
        # The root supernode takes in 10,000 distinct prime denominators in
        # turn while its total stays a single weight; its integers must not
        # grow with the denominators it has let go.
        t = prime_denominator_path(2 * 10**4)
        last = max(t.edges(), key=t.weights.__getitem__)
        started = time.perf_counter()
        state = run_contraction(t, Objective.MAXIMIZE)
        result = state.result()
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5, f"{elapsed * 1000:.0f} ms for a 2e4-edge path"
        assert result.cut == {last}
        assert result.average == t.weights[last]
        assert len(result.contractions) == 2 * 10**4 - 1
        assert all(step.merged_into_root for step in state.steps())


def _reflected_pair(rows):
    """The tree of ``rows``, its reflection, every weight ``w`` replaced by
    ``C - w``, and ``C``, the largest weight. Both trees come from rows in
    one order, so they share their ids."""
    top = max(w for _, _, w in rows)
    return quiet_tree(rows), quiet_tree([(p, c, top - w) for p, c, w in rows]), top


class TestReflection:
    """Minimize on a tree is Maximize on its reflection: the same cut and
    contractions, the average ``C - a``, and per step the contractibility
    ``C - c`` (``+inf`` and ``-inf`` swapped), the root average ``C -
    alpha`` and the same ``merged_into_root``."""

    @pytest.mark.parametrize("kind", WEIGHT_KINDS)
    @pytest.mark.parametrize("n_nodes", [1_000, 10_000])
    def test_engine(self, kind, n_nodes):
        rows = random_weighted_rows(random.Random(f"reflect:{kind}:{n_nodes}"), n_nodes, kind)
        t, mirror, top = _reflected_pair(rows)
        assert ContractionState(t)._plain is ContractionState(mirror)._plain is (kind != "primes")
        low = run_contraction(t, Objective.MINIMIZE)
        high = run_contraction(mirror, Objective.MAXIMIZE)
        low_result, high_result = low.result(), high.result()
        assert high_result.cut == low_result.cut
        assert high_result.contractions == low_result.contractions
        assert high_result.average == top - low_result.average
        for a, b in zip(low.steps(), high.steps()):
            if a.contractibility.is_finite:
                assert b.contractibility == top - a.contractibility.value
            else:
                swapped = POSITIVE_INFINITY if a.contractibility is NEGATIVE_INFINITY else NEGATIVE_INFINITY
                assert b.contractibility is swapped
            assert b.root_average_after == top - a.root_average_after
            assert b.merged_into_root == a.merged_into_root

    def test_brute_force(self):
        rng = random.Random(11)
        for kind in WEIGHT_KINDS:
            for _ in range(40):
                t, mirror, top = _reflected_pair(random_weighted_rows(rng, rng.randint(2, 30), kind))
                low = brute_force_optimum(t, Objective.MINIMIZE)
                high = brute_force_optimum(mirror, Objective.MAXIMIZE)
                assert high.cut == low.cut and high.average == top - low.average


def _path_rows(n, increasing):
    return [(f"n{i}", f"n{i + 1}", i + 1 if increasing else n - i) for i in range(n)]


def _comb_rows(n):
    """Spine s0 -> ... -> s(n/2) with weights 1, 2, ..., a tooth of weight
    n on each spine node but the last, and a tooth of weight 1 on the last."""
    m = n // 2
    rows = []
    for i in range(m):
        rows.append((f"s{i}", f"s{i + 1}", i + 1))
        rows.append((f"s{i}", f"t{i}", 2 * m))
    rows.append((f"s{m}", f"t{m}", 1))
    return rows


def _spine_with_random_leaves_rows(n):
    """A spine of n/2 edges of weights 1, 2, ... and n/2 leaves hung on
    random spine nodes, each a little heavier than its spine node's depth,
    so that Maximize contracts the whole spine at every n."""
    rng = random.Random(n)
    m = n // 2
    rows = [(f"s{i}", f"s{i + 1}", i + 1) for i in range(m)]
    for j in range(m):
        d = rng.randint(0, m)
        rows.append((f"s{d}", f"l{j}", d + rng.randint(1, 3)))
    return rows


_DEEP_SHAPES = {
    "increasing-path": lambda n: _path_rows(n, True),
    "increasing-path-reversed": lambda n: _path_rows(n, True)[::-1],
    "decreasing-path": lambda n: _path_rows(n, False),
    "decreasing-path-reversed": lambda n: _path_rows(n, False)[::-1],
    "comb": _comb_rows,
    "spine-with-random-leaves": _spine_with_random_leaves_rows,
}


class TestLinearGrowthOnDeepShapes:
    """The union-find links each absorbed head under its tail's name, with
    path halving but no union by size, so a find costs O(log n) amortized:
    4x the edges should cost about 4x, and quadratic growth would cost 16x.
    Reversing a path's lines flips its node ids, and with them the order in
    which equal-valued edges contract."""

    @pytest.mark.parametrize("shape", list(_DEEP_SHAPES))
    def test_growth_is_linear(self, shape):
        timings = {}
        for n in (10_000, 40_000):
            t = quiet_tree(_DEEP_SHAPES[shape](n))
            best = float("inf")
            for _ in range(3):
                started = time.perf_counter()
                results = [optimal_average_cut(t, objective) for objective in Objective]
                best = min(best, time.perf_counter() - started)
            for result in results:
                assert evaluate_cut(t, result.cut) == (result.total, result.size, result.average)
            timings[n] = best
        assert timings[40_000] < 8 * timings[10_000], timings


def _broom_rows(n):
    """A handle h0 -> h1 -> ... -> h(n/2) with weights 1, 2, ..., and n/2
    bristles of weight n on its end: Maximize contracts the whole handle."""
    m = n // 2
    rows = [(f"h{i}", f"h{i + 1}", i + 1) for i in range(m)]
    rows += [(f"h{m}", f"b{j}", 2 * m) for j in range(m)]
    return rows


class TestLineCountGrowth:
    """The work of a whole solve, counted in lines run inside ``avgcut``
    instead of timed: 4x the edges should cost about 4x the lines, and
    quadratic growth would cost 16x, on any host."""

    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("shape", ["caterpillar", "broom"])
    def test_growth_is_linear(self, shape, objective):
        lines = {}
        for n in (2_500, 10_000):
            rows = {"caterpillar": _comb_rows, "broom": _broom_rows}[shape](n)
            if objective is Objective.MINIMIZE:
                # Weights mirrored below their maximum: Minimize then makes
                # the contractions Maximize makes on the shape as written.
                top = max(w for _, _, w in rows) + 1
                rows = [(tail, head, top - w) for tail, head, w in rows]
            t = quiet_tree(rows)
            result, lines[n] = src_line_count(optimal_average_cut, t, objective)
            assert len(result.contractions) >= n // 4
            assert evaluate_cut(t, result.cut) == (result.total, result.size, result.average)
        assert lines[10_000] < 8 * lines[2_500], lines

    @pytest.mark.parametrize("shape", list(_DEEP_SHAPES))
    def test_deep_shapes_grow_linearly(self, shape):
        """The line-count twins of ``TestLinearGrowthOnDeepShapes``."""
        lines = {}
        for n in (2_500, 10_000):
            t = quiet_tree(_DEEP_SHAPES[shape](n))
            results, lines[n] = src_line_count(
                lambda: [optimal_average_cut(t, objective) for objective in Objective]
            )
            for result in results:
                assert evaluate_cut(t, result.cut) == (result.total, result.size, result.average)
        assert lines[10_000] < 8 * lines[2_500], lines


class TestEvaluateCut:
    def test_figure_output_cut(self, figure_tree):
        cut = edge_set_by_children(figure_tree, figure_max_cut_children())
        assert evaluate_cut(figure_tree, cut) == (39, 13, 3)

    def test_single_edge(self):
        t = star_tree(7)
        assert evaluate_cut(t, set(t.edges())) == (7, 1, 7)

    def test_two_edge_path_all_edges(self):
        t = path_tree(5, 10)
        total, size, average = evaluate_cut(t, {t.node_id("n1"), t.node_id("n2")})
        assert (total, size, average) == (15, 2, Fraction(15, 2))

    def test_empty_cut_rejected(self):
        with pytest.raises(EmptyCutError):
            evaluate_cut(path_tree(1), set())

    def test_bad_ids_rejected(self):
        t = path_tree(1)
        with pytest.raises(ValueError):
            evaluate_cut(t, {t.root})
        with pytest.raises(ValueError):
            evaluate_cut(t, {99})


class TestScaling:
    def test_scaling_equivariance(self, figure_tree):
        t = figure_tree
        c = Fraction(3, 7)
        scaled = quiet_tree(
            (t.labels[t.tail(e)], t.labels[e], t.weights[e] * c) for e in t.edges()
        )
        for obj in Objective:
            base = optimal_average_cut(t, obj)
            other = optimal_average_cut(scaled, obj)
            base_labels = {t.labels[e] for e in base.cut}
            other_labels = {scaled.labels[e] for e in other.cut}
            assert base_labels == other_labels
            assert other.average == base.average * c


class _FractionModel:
    """Supernode aggregates from ``Fraction`` arithmetic alone.

    Supernodes are relabelled by hand (``rep``), with no heap, no union-find
    and no integer pairs; ``out_sum`` and ``out_cnt`` are indexed by a
    supernode's label, and ``live`` lists the live internal edges.
    """

    def __init__(self, t, objective):
        self.t = t
        self.maximize = objective is Objective.MAXIMIZE
        self.rep = list(range(t.node_count))
        self.out_sum = [
            sum((t.weights[c] for c in kids), start=Fraction(0)) for kids in t.children
        ]
        self.out_cnt = [len(kids) for kids in t.children]
        self.live = [e for e in t.edges() if t.children[e]]
        self._ranks = {}  # edge -> rank, dropped when its head supernode changes

    def rank(self, e):
        """``((class, value), contractibility)``: class -1 < 0 < 1 puts the
        infinities around the finite values, oriented so that the smallest
        rank is the best edge."""
        if e not in self._ranks:
            h = self.rep[e]
            gap = self.out_sum[h] - self.t.weights[e]
            if self.out_cnt[h] >= 2:
                lam = gap / (self.out_cnt[h] - 1)
                rank = (0, -lam if self.maximize else lam), Contractibility.finite(lam)
            elif gap > 0 or (gap == 0 and not self.maximize):
                rank = (-1 if self.maximize else 1, 0), POSITIVE_INFINITY
            else:
                rank = (1 if self.maximize else -1, 0), NEGATIVE_INFINITY
            self._ranks[e] = rank
        return self._ranks[e]

    def root_average(self):
        r = self.rep[self.t.root]
        return self.out_sum[r] / self.out_cnt[r]

    def contract(self, e):
        """Merge head(e) into its tail; True when the tail holds the root."""
        head, tail = self.rep[e], self.rep[self.t.parent[e]]
        self.out_sum[tail] += self.out_sum[head] - self.t.weights[e]
        self.out_cnt[tail] += self.out_cnt[head] - 1
        self.rep = [tail if x == head else x for x in self.rep]
        self.live.remove(e)
        self._ranks = {f: rank for f, rank in self._ranks.items() if self.rep[f] != tail}
        return tail == self.rep[self.t.root]


def _assert_queries_match(state, model):
    """The supernodes and live out-edge aggregates recomputed from
    ``state.contractions``, and every live edge's contractibility and the
    root average read from ``state``, equal the model's."""
    # The model renames a head to its tail, so rep[v] is the topmost node of
    # v's supernode.
    assert supernode_tops(state) == model.rep
    sums, counts = live_out_aggregates(state)
    for r in set(model.rep):
        assert sums.get(r, 0) == model.out_sum[r]
        assert counts.get(r, 0) == model.out_cnt[r]
    for f in model.live:
        assert state.contractibility(f) == model.rank(f)[1]
    assert state.root_average == model.root_average()


def _reference_run(t, objective, model=None):
    """Contraction order and steps from ``_FractionModel`` alone, continuing
    ``model`` (a fresh one by default).

    Each step scans every live internal edge, takes the best oriented
    contractibility (ties to the smallest original edge id), and stops when
    that edge does not strictly beat the root average.
    """
    model = model or _FractionModel(t, objective)
    contractions, steps = [], []
    while model.live:
        best = min(model.live, key=lambda e: (model.rank(e)[0], e))
        lam = model.rank(best)[1]
        alpha = model.root_average()
        if not (lam > alpha if model.maximize else lam < alpha):
            break
        merged_root = model.contract(best)
        contractions.append(best)
        steps.append(ContractionStep(best, lam, model.root_average(), merged_root))
    return contractions, steps


def _mostly_integer_weights(rng, t):
    """``t`` with integer weights, apart from about one in seven that is a
    ``p/q`` with ``q`` from a mixed set, small to 31 bits."""
    rows = []
    for e in t.edges():
        if rng.random() < 0.15:
            q = rng.choice((2, 3, 7, 10, 12, 2**31 - 1))
            w = Fraction(rng.randrange(1, 8 * q), q)
        else:
            w = Fraction(rng.randrange(8))
        rows.append((t.labels[t.tail(e)], t.labels[e], w))
    return quiet_tree(rows)


def _near_the_plain_scale(rng, t, offset):
    """``t`` with weights ``k / q``, every ``q`` a divisor of ``L = 2**32 +
    offset`` and one weight ``1 / L``, so that the lcm of the denominators is
    ``L``: at ``offset`` -1, 0 and 1 just below, at and just past the plain
    scale. Numerators come mostly from a few multiples of ``q``, so that
    contractibilities crowd together."""
    top = 2**32 + offset  # 3*5*17*257*65537, 2**32 and 641*6700417
    divisors = [q for q in (1, 2, 3, 5, 17, 257, 641, 65537, 6700417, 2**31, top) if top % q == 0]
    rows = []
    for e in t.edges():
        q = rng.choice(divisors)
        k = rng.choice((0, 1, q - 1, q, 2 * q, 7 * q + 3)) if rng.random() < 0.8 else rng.randrange(8 * q)
        rows.append((t.labels[t.tail(e)], t.labels[e], Fraction(k, q)))
    k = rng.randrange(len(rows))
    rows[k] = (*rows[k][:2], Fraction(1, top))  # the lcm, once at least
    return quiet_tree(rows)


# Two siblings whose contractibilities, 2**53 on x and 2**53 + 1 on y, round
# to one float; x has the lower edge id, and the root average (2**54 + 1) / 2
# lies between them, so each objective contracts exactly one of the two.
_SIBLINGS_ONE_FLOAT = [
    ("r", "x", Fraction(2**53)),
    ("r", "y", Fraction(2**53 + 1)),
    ("x", "a", Fraction(2**53)),
    ("x", "b", Fraction(2**53)),
    ("y", "c", Fraction(2**53 + 1)),
    ("y", "d", Fraction(2**53 + 1)),
]


def _with_huge_weights(rng, t):
    """``t`` with some weights replaced by values past the float range or
    below its smallest subnormal, plus one more leaf edge of weight 1e400."""
    huge = (Fraction(10**400), Fraction(10**400 + 1), Fraction(3 * 10**400, 7), Fraction(1, 10**400))
    rows = []
    for e in t.edges():
        w = rng.choice(huge) if rng.random() < 0.3 else t.weights[e]
        rows.append((t.labels[t.tail(e)], t.labels[e], w))
    rows.append((t.labels[t.root], "big", Fraction(10**400)))
    return quiet_tree(rows)


class TestAgainstFractionReference:
    """Contraction order and steps equal a ``Fraction``-only reference."""

    @staticmethod
    def _check(t):
        for objective in Objective:
            state = run_contraction(t, objective)
            contractions, steps = _reference_run(t, objective)
            assert state.contractions == contractions
            assert state.steps() == steps

    def test_random_trees(self):
        rng = random.Random(1)
        for _ in range(150):
            self._check(random_tree(rng))

    def test_distinct_prime_denominators(self):
        rng = random.Random(2)
        for _ in range(3):
            t = prime_denominator_tree(rng)
            assert t.scaled_weights[0].bit_length() > 3000
            self._check(t)

    def test_weights_past_the_float_range(self):
        rng = random.Random(3)
        for _ in range(60):
            self._check(_with_huge_weights(rng, random_tree(rng)))

    def test_mostly_integer_weights_with_a_few_fractions(self):
        # Equal denominators (all 1) on most merges, an lcm on the others.
        rng = random.Random(4)
        for _ in range(100):
            self._check(_mostly_integer_weights(rng, random_tree(rng)))
        for _ in range(8):
            self._check(_mostly_integer_weights(rng, random_tree(rng, 100, 250)))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_denominators_across_the_plain_scale(self, offset):
        # At offset 1 the lcm of the denominators passes the plain scale, so
        # the run keeps per-supernode fractions and float keys.
        rng = random.Random(8 + offset)
        trees = [random_tree(rng) for _ in range(40)]
        trees += [random_tree(rng, 100, 250) for _ in range(4)]
        for t in trees:
            t = _near_the_plain_scale(rng, t, offset)
            assert ContractionState(t)._plain is (offset <= 0)
            self._check(t)

    def test_siblings_one_float_apart_above_the_bound(self):
        t = quiet_tree(_SIBLINGS_ONE_FLOAT)
        x, y = t.node_id("x"), t.node_id("y")
        assert x < y and float(2**53 + 1) == float(2**53)
        assert ContractionState(t)._plain
        assert optimal_average_cut(t, Objective.MAXIMIZE).contractions == (y,)
        assert optimal_average_cut(t, Objective.MINIMIZE).contractions == (x,)
        self._check(t)

    def test_distinct_prime_denominators_at_1500_nodes(self):
        t = prime_denominator_tree(random.Random(5), n_nodes=1500)
        assert len({w.denominator for w in t.weights}) == 1500  # 1499 primes and the root's 1
        self._check(t)

    @pytest.mark.parametrize("scheme", ["gap", "height"])
    def test_dendrograms_with_decimal_heights(self, scheme):
        # Almost every weight has a denominator dividing 100, so merges meet
        # unequal denominators and cancel factors at most steps.
        rng = random.Random(7)
        for items in (50, 120, 300, 1000):
            t = linkage_to_tree(parse_linkage_csv(random_linkage_csv(rng, items)), scheme)
            assert sum(d != 1 for d in t.wden) > t.node_count // 2
            self._check(t)

    def test_greedy_run_after_forced_contractions(self):
        """A random prefix of public ``contract`` calls, then ``run``: the
        steps after the prefix equal the model continued greedily, on plain
        and on general runs."""
        rng = random.Random(11)
        trees = [random_tree(rng) for _ in range(40)]
        trees += [_mostly_integer_weights(rng, random_tree(rng)) for _ in range(40)]
        trees += [prime_denominator_tree(rng, n_nodes=40) for _ in range(6)]
        trees += [
            linkage_to_tree(parse_linkage_csv(random_linkage_csv(rng, rng.randint(2, 120))), scheme)
            for scheme in ("gap", "height")
            for _ in range(10)
        ]
        plain, greedy_steps = set(), 0
        for t in trees:
            for objective in Objective:
                state = ContractionState(t, objective)
                model = _FractionModel(t, objective)
                for e in rng.sample(model.live, rng.randint(0, len(model.live) * 2 // 3)):
                    state.contract(e)
                    model.contract(e)
                prefix = len(state.contractions)
                state.run()
                contractions, steps = _reference_run(t, objective, model)
                assert state.contractions[prefix:] == contractions
                assert state.steps()[prefix:] == steps
                assert state.root_average == model.root_average()
                plain.add(state._plain)
                greedy_steps += len(steps)
        assert plain == {True, False}
        assert greedy_steps > 500

    def test_run_skips_the_entry_a_forced_contraction_left_queued(self):
        """``contract`` on the edge whose entry tops the queue leaves that
        entry queued but stale; ``run`` then skips it when it pops it and
        continues as the model does, on plain and on general runs."""
        rng = random.Random(12)
        trees = [random_tree(rng) for _ in range(40)]
        trees += [_near_the_plain_scale(rng, random_tree(rng), 1) for _ in range(40)]
        skipped = {True: 0, False: 0}
        for t in trees:
            for objective in Objective:
                state = ContractionState(t, objective)
                if not state._heap:
                    continue
                top = state._heap[0]
                e = top % t.node_count if state._plain else top[2]
                model = _FractionModel(t, objective)
                state.contract(e)
                model.contract(e)
                assert any(entry is top for entry in state._heap)
                assert e not in fresh_queue_edges(state)
                state.run()
                contractions, steps = _reference_run(t, objective, model)
                assert state.contractions[1:] == contractions
                assert state.steps()[1:] == steps
                skipped[state._plain] += not any(entry is top for entry in state._heap)
        assert min(skipped.values()) > 20, skipped

    @pytest.mark.parametrize("factor", [10**24, 2**200])
    def test_plain_keys_far_past_machine_ints(self, factor):
        """Int weights times ``factor``, with out-degree-1 heads whose one
        out-edge is heavier, lighter or as heavy as their in-edge: plain
        runs whose keys lie far past ``2**63``, with both infinities, give
        the unscaled tree's cut and contraction sequence."""
        rng = random.Random(13)
        gaps = set()
        for _ in range(60):
            n = rng.randint(3, 30)
            rows = [(f"n{rng.randrange(i)}", f"n{i}", rng.randint(0, 9)) for i in range(1, n)]
            for j in range(rng.randint(1, 4)):
                w = rng.randint(1, 9)
                below = w + rng.choice((-1, 0, 2))
                gaps.add((below > w) - (below < w))
                rows.append((f"n{rng.randrange(n)}", f"u{j}", w))
                rows.append((f"u{j}", f"u{j}.0", below))
                if rng.random() < 0.5:  # the head's one out-edge leads on
                    rows += [(f"u{j}.0", f"u{j}.{k}", rng.randint(0, 9)) for k in (1, 2)]
            rng.shuffle(rows)
            base = quiet_tree(rows)
            scaled = quiet_tree((tail, head, w * factor) for tail, head, w in rows)
            state = ContractionState(scaled)
            assert state._plain
            assert max(map(abs, state._heap)) > 2**80
            for objective in Objective:
                expected = optimal_average_cut(base, objective)
                result = optimal_average_cut(scaled, objective)
                assert (result.cut, result.contractions) == (expected.cut, expected.contractions)
                assert result.average == expected.average * factor
            self._check(scaled)
        assert gaps == {-1, 0, 1}

    def test_queries_after_every_contract(self):
        """Contract every internal edge, in random order, through the public
        ``contract``; straight after construction and after each call every
        query equals the model's."""
        rng = random.Random(6)
        trees = [random_tree(rng) for _ in range(30)]
        trees += [_mostly_integer_weights(rng, random_tree(rng)) for _ in range(30)]
        trees += [_with_huge_weights(rng, random_tree(rng)) for _ in range(10)]
        trees += [prime_denominator_tree(rng, n_nodes=40) for _ in range(10)]
        trees += [
            linkage_to_tree(
                parse_linkage_csv(random_linkage_csv(rng, rng.randint(2, 60))),
                rng.choice(("gap", "height")),
            )
            for _ in range(10)
        ]
        # Some of them again from their edges in reverse, so that parents
        # follow children and ids are not in top-down order.
        trees += [quiet_tree(reversed(edge_rows(t, t.edges()))) for t in trees[::4]]
        for t in trees:
            for objective in Objective:
                state = ContractionState(t, objective)
                model = _FractionModel(t, objective)
                history = [model.root_average()]
                _assert_queries_match(state, model)
                while model.live:
                    e = rng.choice(model.live)
                    lam = model.rank(e)[1]
                    state.contract(e)
                    merged_root = model.contract(e)
                    history.append(model.root_average())
                    assert state.steps()[-1] == ContractionStep(e, lam, history[-1], merged_root)
                    assert state.root_average == history[-1]
                    assert root_average_history(state) == history
                    _assert_queries_match(state, model)


class _CountingContractibility(Contractibility):
    """A ``Contractibility`` that counts how many were built."""

    built = 0

    def __init__(self, *args):
        type(self).built += 1
        super().__init__(*args)


class TestPlainKeys:
    """On plain runs (the lcm of the weight denominators at most
    ``rational.PLAIN_SCALE``) every queue entry is the int ``key * n +
    edge``, and entries pop in (exact value, edge id) order; all other runs
    queue ``(float, tiebreak, edge)`` and break equal floats with the exact
    ``Contractibility``."""

    @staticmethod
    def _keying_builds(monkeypatch, t, objective):
        """Contractibilities built by ``ContractionState(t)`` and ``run()``,
        the initial queue entries and the finished state."""
        monkeypatch.setattr(contraction, "Contractibility", _CountingContractibility)
        _CountingContractibility.built = 0
        state = ContractionState(t, objective)
        entries = list(state._heap)
        state.run()
        return _CountingContractibility.built, entries, state

    @pytest.mark.parametrize("objective", list(Objective))
    def test_plain_runs_build_no_contractibility(self, monkeypatch, objective):
        rng = random.Random(9)
        rows = [("n0", "n1", Fraction(1))]
        huge = [("n0", "n1", Fraction(2**53))]
        for i in range(2, 400):
            parent = f"n{rng.randrange(i)}"
            rows.append((parent, f"n{i}", Fraction(rng.randint(1, 1000))))
            huge.append((parent, f"n{i}", Fraction(2**53 + rng.choice((-1, 0, 0, 1)))))
        heights = linkage_to_tree(parse_linkage_csv(random_linkage_csv(rng, 300)), "gap")
        assert max(heights.wden) > 1
        trees = (quiet_tree(rows), path_tree(3, 1, 4, 1, 5), heights, quiet_tree(huge))
        for t in trees:
            built, entries, state = self._keying_builds(monkeypatch, t, objective)
            assert state._plain and state.contractions
            assert built == 0
            for entry in entries + state._heap:
                assert type(entry) is int
            model = _FractionModel(t, objective)
            popped = [entry % t.node_count for entry in sorted(entries)]
            assert popped == sorted(model.live, key=lambda e: (model.rank(e)[0], e))

    @pytest.mark.parametrize("objective", list(Objective))
    def test_other_runs_break_ties_with_exact_pairs(self, monkeypatch, objective):
        rng = random.Random(10)
        trees = [prime_denominator_tree(rng, n_nodes=40) for _ in range(2)]
        for _ in range(2):
            t = random_tree(rng, 30, 60)
            # Weights far below the float range: every finite key is 0.0.
            rows = [(t.labels[t.tail(e)], t.labels[e], Fraction(rng.randrange(4), 10**400)) for e in t.edges()]
            rows.append((t.labels[t.root], "tiny", Fraction(1, 10**400)))
            trees.append(quiet_tree(rows))
        for t in trees:
            built, entries, state = self._keying_builds(monkeypatch, t, objective)
            assert not state._plain
            assert built > 0
            for key, tie, _ in entries + state._heap:
                if math.isinf(key):
                    assert tie is None
                else:
                    assert type(tie) is _CountingContractibility
                    assert float(tie.value) == key
