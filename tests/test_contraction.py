import random
from fractions import Fraction

import pytest

from avgcut import (
    NEGATIVE_INFINITY,
    POSITIVE_INFINITY,
    Contractibility,
    ContractionState,
    ContractionStep,
    Objective,
    edge_contractibility,
    evaluate_cut,
    optimal_average_cut,
    run_contraction,
)
from avgcut.errors import DeadEdgeError, EmptyCutError, LeafHeadError

from .helpers import (
    edge_set_by_children,
    figure_max_cut_children,
    path_tree,
    prime_denominator_tree,
    quiet_tree,
    random_tree,
    star_tree,
)


class TestContractibilityType:
    def test_total_order(self):
        finite = [Contractibility.finite(Fraction(n, d)) for n, d in ((-3, 1), (0, 1), (7, 2))]
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
        for value in (2, -3, 0, Fraction(7, 2), Fraction(-1, 3), Fraction(4, 2)):
            lam = Contractibility.finite(value)
            assert lam == value
            assert hash(lam) == hash(value)
            assert value in {lam}
            assert lam in {value}
        assert len({Contractibility.finite(Fraction(4, 2)), 2, Fraction(2)}) == 1
        assert len({POSITIVE_INFINITY, NEGATIVE_INFINITY, POSITIVE_INFINITY}) == 2


class TestEdgeContractibility:
    def test_figure_weight2_root_edge(self, figure_tree):
        # head a2 has out-edges 3,3,3: (9 - 2) / 2
        lam = edge_contractibility(figure_tree, figure_tree.edge_by_child("a2"))
        assert lam == Fraction(7, 2)

    def test_figure_weight3_root_edge(self, figure_tree):
        # head a3 has out-edges 1,1,1: (3 - 3) / 2
        lam = edge_contractibility(figure_tree, figure_tree.edge_by_child("a3"))
        assert lam == 0

    def test_single_out_edge_positive_gap(self):
        t = path_tree(5, 10)
        assert edge_contractibility(t, t.edge_by_child("n1")) is POSITIVE_INFINITY

    def test_single_out_edge_negative_gap(self):
        t = path_tree(10, 5)
        assert edge_contractibility(t, t.edge_by_child("n1")) is NEGATIVE_INFINITY

    def test_single_out_edge_neutral_depends_on_objective(self):
        t = path_tree(5, 5)
        e = t.edge_by_child("n1")
        assert edge_contractibility(t, e, Objective.MAXIMIZE) is NEGATIVE_INFINITY
        assert edge_contractibility(t, e, Objective.MINIMIZE) is POSITIVE_INFINITY

    def test_leaf_edge_rejected(self):
        t = path_tree(5, 10)
        with pytest.raises(LeafHeadError):
            edge_contractibility(t, t.edge_by_child("n2"))

    def test_state_matches_static_before_contracting(self, figure_tree):
        state = ContractionState(figure_tree)
        for e in figure_tree.internal_edges():
            assert state.contractibility(e) == edge_contractibility(figure_tree, e)


class TestContract:
    def test_figure_root_merge_updates_average(self, figure_tree):
        state = ContractionState(figure_tree)
        assert state.root_average == 2
        state.contract(figure_tree.edge_by_child("a2"))
        assert state.root_average == Fraction(13, 5)

    def test_path_merge(self):
        t = path_tree(5, 10)
        state = ContractionState(t)
        state.contract(t.edge_by_child("n1"))
        assert state.root_average == 10
        assert state.live_out_count(t.root) == 1

    def test_dead_edge_rejected(self):
        t = path_tree(5, 10)
        state = ContractionState(t)
        e = t.edge_by_child("n1")
        state.contract(e)
        with pytest.raises(DeadEdgeError):
            state.contract(e)
        with pytest.raises(DeadEdgeError):
            state.contractibility(e)

    def test_leaf_edge_rejected(self):
        t = path_tree(5, 10)
        state = ContractionState(t)
        with pytest.raises(LeafHeadError):
            state.contract(t.edge_by_child("n2"))

    def test_requeues_the_merged_supernodes_in_edge(self, figure_tree):
        t = figure_tree
        state = ContractionState(t)
        b11 = t.edge_by_child("b11")
        a1 = t.edge_by_child("a1")
        before_others = {
            e: state.contractibility(e) for e in t.internal_edges() if e != a1 and e != b11
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
        state.contract(t.edge_by_child("b11"))
        a1 = t.node_id("a1")
        assert state.live_out_sum(a1) == 13  # 2 + 2 + 3 + 3 + 3
        assert state.live_out_count(a1) == 5
        assert state.representative(t.node_id("b11")) == state.representative(a1)


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


class TestTrace:
    def test_history_starts_at_initial_average(self, figure_tree):
        state = run_contraction(figure_tree)
        history = state.root_average_history()
        assert history[0] == 2
        assert history[-1] == 3
        assert len(history) == len(state.contractions) + 1

    def test_history_monotone_under_maximize(self, figure_tree):
        state = run_contraction(figure_tree)
        history = state.root_average_history()
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
        expected = {
            e for e in figure_tree.internal_edges() if state.is_alive(e)
        }
        assert state.pending_edges() == expected


class TestEvaluateCut:
    def test_figure_output_cut(self, figure_tree):
        cut = edge_set_by_children(figure_tree, figure_max_cut_children())
        assert evaluate_cut(figure_tree, cut) == (39, 13, 3)

    def test_single_edge(self):
        t = star_tree(7)
        assert evaluate_cut(t, set(t.edges())) == (7, 1, 7)

    def test_two_edge_path_all_edges(self):
        t = path_tree(5, 10)
        total, size, average = evaluate_cut(t, {t.edge_by_child("n1"), t.edge_by_child("n2")})
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


def _reference_run(t, objective):
    """Contraction order and steps from ``Fraction`` arithmetic alone.

    Each step scans every live internal edge, takes the best oriented
    contractibility (ties to the smallest original edge id), and stops when
    that edge does not strictly beat the root average. Supernodes are
    relabelled by hand, with no heap and no scaled integers.
    """
    maximize = objective is Objective.MAXIMIZE
    rep = list(range(t.node_count))
    out_sum = [sum((t.weights[c] for c in kids), start=Fraction(0)) for kids in t.children]
    out_cnt = [len(kids) for kids in t.children]
    live = [e for e in t.edges() if t.children[e]]
    contractions, steps = [], []

    def rank(e):
        # ((class, value), contractibility): class -1 < 0 < 1 puts the
        # infinities around the finite values, oriented so that the smallest
        # rank is the best edge.
        h = rep[e]
        gap = out_sum[h] - t.weights[e]
        if out_cnt[h] >= 2:
            lam = gap / (out_cnt[h] - 1)
            return (0, -lam if maximize else lam), Contractibility.finite(lam)
        if gap > 0 or (gap == 0 and not maximize):
            return (-1 if maximize else 1, 0), POSITIVE_INFINITY
        return (1 if maximize else -1, 0), NEGATIVE_INFINITY

    while live:
        best = min(live, key=lambda e: (rank(e)[0], e))
        lam = rank(best)[1]
        r = rep[t.root]
        alpha = out_sum[r] / out_cnt[r]
        if not (lam > alpha if maximize else lam < alpha):
            break
        head, tail = rep[best], rep[t.parent[best]]
        out_sum[tail] += out_sum[head] - t.weights[best]
        out_cnt[tail] += out_cnt[head] - 1
        rep = [tail if x == head else x for x in rep]
        live.remove(best)
        contractions.append(best)
        r = rep[t.root]
        steps.append(ContractionStep(best, lam, out_sum[r] / out_cnt[r], tail == r))
    return contractions, steps


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
