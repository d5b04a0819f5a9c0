"""Property-based checks of the structural invariants the engine relies on."""

import heapq
import math
import sys
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from avgcut import (
    ContractionState,
    NEGATIVE_INFINITY,
    POSITIVE_INFINITY,
    Contractibility,
    Objective,
    brute_force_optimum,
    count_cuts,
    enumerate_cuts,
    evaluate_cut,
    format_edgelist,
    is_valid_cut,
    optimal_average_cut,
    run_contraction,
)
from avgcut.contraction import _heap_key

from .helpers import (
    NotApplicableError,
    check_contraction_keeps_optimum,
    check_pull_up_dichotomy,
    check_push_down_gain,
    fresh_queue_edges,
    live_out_aggregates,
    quiet_tree,
    root_average_history,
)

PROPERTY_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_weights = st.one_of(
    st.fractions(min_value=0, max_value=8, max_denominator=6),
    st.integers(min_value=0, max_value=3).map(Fraction),
)


@st.composite
def trees(draw, max_nodes=12):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    rows = []
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        rows.append((f"n{parent}", f"n{i}", draw(_weights)))
    return quiet_tree(rows)


class TestOptimalityAgainstOracle:
    @PROPERTY_SETTINGS
    @given(trees())
    def test_maximize_matches_brute_force(self, t):
        assert (
            optimal_average_cut(t, Objective.MAXIMIZE).average
            == brute_force_optimum(t, Objective.MAXIMIZE).average
        )

    @PROPERTY_SETTINGS
    @given(trees())
    def test_minimize_matches_brute_force(self, t):
        assert (
            optimal_average_cut(t, Objective.MINIMIZE).average
            == brute_force_optimum(t, Objective.MINIMIZE).average
        )

    @PROPERTY_SETTINGS
    @given(trees(), st.sampled_from(list(Objective)))
    def test_result_is_valid_and_self_consistent(self, t, objective):
        state = run_contraction(t, objective)
        result = state.result()
        assert is_valid_cut(t, result.cut)
        total, size, average = evaluate_cut(t, result.cut)
        assert (total, size, average) == (result.total, result.size, result.average)
        assert average == state.root_average
        assert len(result.contractions) <= sum(bool(t.children[e]) for e in t.edges())


class TestContractionStateInvariants:
    @PROPERTY_SETTINGS
    @given(trees(), st.randoms(use_true_random=False))
    def test_aggregates_match_recomputation_under_any_order(self, t, rng):
        state = ContractionState(t)
        self._assert_consistent(t, state)
        while True:
            contracted = set(state.contractions)
            live_internal = [e for e in t.edges() if t.children[e] and e not in contracted]
            if not live_internal:
                break
            state.contract(rng.choice(live_internal))
            self._assert_consistent(t, state)

    @staticmethod
    def _assert_consistent(t, state):
        """The engine's aggregates, read through every live internal edge's
        contractibility and the root average, equal a recomputation from
        the tree."""
        sums, counts = live_out_aggregates(state)
        contracted = set(state.contractions)
        for e in t.edges():
            if e in contracted or not t.children[e]:
                continue
            gap = sums[e] - t.weights[e]
            lam = state.contractibility(e)
            if counts[e] > 1:
                assert lam == gap / (counts[e] - 1)
            else:  # a neutral swap's infinity depends on the objective
                assert not lam.is_finite and (gap == 0 or (lam > 0) == (gap > 0))
        assert state.root_average == sums[t.root] / counts[t.root]
        live_internal = {e for e in t.edges() if t.children[e] and e not in contracted}
        assert fresh_queue_edges(state) == live_internal

    @PROPERTY_SETTINGS
    @given(trees(), st.sampled_from(list(Objective)))
    def test_root_average_monotone_along_run(self, t, objective):
        state = run_contraction(t, objective)
        history = root_average_history(state)
        improving = (lambda a, b: a >= b) if objective is Objective.MAXIMIZE else (
            lambda a, b: a <= b
        )
        for step, before, after in zip(state.steps(), history, history[1:]):
            assert improving(after, before)
            if step.merged_into_root:
                assert after != before
            else:
                assert after == before

    @PROPERTY_SETTINGS
    @given(trees(), st.fractions(min_value="1/5", max_value=9, max_denominator=5))
    def test_scaling_equivariance(self, t, factor):
        assume(factor > 0)
        scaled = quiet_tree(
            (t.labels[t.tail(e)], t.labels[e], t.weights[e] * factor)
            for e in t.edges()
        )
        for objective in Objective:
            base = optimal_average_cut(t, objective)
            other = optimal_average_cut(scaled, objective)
            assert {t.labels[e] for e in base.cut} == {
                scaled.labels[e] for e in other.cut
            }
            assert other.average == base.average * factor


class TestEnumerationInvariants:
    @PROPERTY_SETTINGS
    @given(trees(max_nodes=10))
    def test_enumeration_is_complete_valid_and_distinct(self, t):
        assume(count_cuts(t) <= 3000)
        seen = set()
        for subtree, cut in enumerate_cuts(t):
            assert is_valid_cut(t, cut)
            assert subtree.boundary(t) == cut
            assert t.root in subtree.nodes
            assert all(t.children[v] for v in subtree.nodes)
            seen.add(cut)
        assert len(seen) == count_cuts(t)

    @PROPERTY_SETTINGS
    @given(trees(max_nodes=9))
    def test_each_root_leaf_path_crosses_once(self, t):
        assume(count_cuts(t) <= 1500)
        leaves = [v for v, kids in enumerate(t.children) if not kids]
        for _subtree, cut in enumerate_cuts(t):
            for leaf in leaves:
                hits, v = 0, leaf
                while v != t.root:
                    hits += v in cut
                    v = t.parent[v]
                assert hits == 1


class TestExchangeProperties:
    @PROPERTY_SETTINGS
    @given(trees(max_nodes=10))
    def test_push_down_gain_always_holds(self, t):
        assume(count_cuts(t) <= 400)
        state = ContractionState(t)
        for _subtree, cut in enumerate_cuts(t):
            _total, _size, average = evaluate_cut(t, cut)
            for e in cut:
                if t.children[e] and state.contractibility(e) > average:
                    assert check_push_down_gain(t, cut, e)

    @PROPERTY_SETTINGS
    @given(trees(max_nodes=10))
    def test_pull_up_dichotomy_always_holds(self, t):
        assume(count_cuts(t) <= 400)
        root_boundary = frozenset(t.children[t.root])
        for _subtree, cut in enumerate_cuts(t):
            if cut != root_boundary:
                assert check_pull_up_dichotomy(t, cut)

    @PROPERTY_SETTINGS
    @given(trees(max_nodes=10))
    def test_contraction_keeps_optimum_when_applicable(self, t):
        assume(count_cuts(t) <= 1500)
        try:
            assert check_contraction_keeps_optimum(t)
        except NotApplicableError:
            pass


class TestBuildDeterminism:
    @PROPERTY_SETTINGS
    @given(trees(), st.randoms(use_true_random=False))
    def test_edge_order_does_not_matter(self, t, rng):
        rows = [
            (t.labels[t.tail(e)], t.labels[e], t.weights[e]) for e in t.edges()
        ]
        rng.shuffle(rows)
        assert format_edgelist(quiet_tree(rows)) == format_edgelist(t)


_FLOAT_MAX_INT = int(sys.float_info.max)


@st.composite
def oriented_values(draw):
    """``(scale, [(num_o, den_o), ...])`` for heap keys: shared scales of up
    to thousands of bits; values past the float range, below the smallest
    subnormal, and at the clamp boundary; equal values written with
    different ``(num, den)``; pairs that round to the same float, such as
    a/b against (a*2**60+1)/(b*2**60); and the three infinities."""
    scale = draw(st.one_of(
        st.just(1),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=2**1100, max_value=2**4000),
    ))
    dens = st.integers(min_value=1, max_value=50)
    sign = st.sampled_from((-1, 1))

    @st.composite
    def finite(draw):
        den = draw(dens)
        band = draw(st.sampled_from(("small", "moderate", "huge", "boundary")))
        if band == "small":  # below the smallest subnormal once scale > 2**1100
            num = draw(st.integers(min_value=-1000, max_value=1000))
        elif band == "moderate":
            num = draw(st.integers(min_value=-(10**6), max_value=10**6)) * scale
            num += draw(st.integers(min_value=-3, max_value=3))
        elif band == "huge":  # up to ~2**1100, past 1.8e308
            num = draw(sign) * draw(st.integers(min_value=1, max_value=2**1100)) * scale
        else:  # straddles the largest finite float
            num = draw(sign) * (_FLOAT_MAX_INT * den * scale + draw(st.integers(-3, 3)))
        return num, den

    base = draw(st.lists(
        st.one_of(finite(), st.tuples(st.sampled_from((-1, 0, 1)), st.just(0))),
        min_size=1, max_size=8,
    ))
    items = list(base)
    for num, den in base:
        if den and draw(st.booleans()):
            k = draw(st.integers(min_value=2, max_value=5))
            items.append((num * k, den * k))  # the same value
        if den and draw(st.booleans()):
            items.append((num * 2**60 + draw(sign), den * 2**60))  # a float-level near tie
    return scale, draw(st.permutations(items))


def _reference_rank(num_o, den_o, scale):
    """The exact order the heap must follow: -inf < finite values < +inf."""
    if den_o == 0:
        return (-1, Fraction(0)) if num_o < 0 else (1, Fraction(0))
    return (0, Fraction(num_o, den_o * scale))


def _plain_numerator(draw, b, top):
    """A numerator of a plain run's contractibility over ``b``: the gap
    ``out_sum - weight`` lies in ``[-top, (b + 1) * top]``; often at an end."""
    low, high = -top, (b + 1) * top
    return draw(st.one_of(st.sampled_from((low, 0, high)), st.integers(low, high)))


def _closest_neighbour(a1, b1, b2):
    """``(a1', a2)`` with ``a1' / b1 - a2 / b2 == 1 / (b1 * b2)``, the closest
    two distinct values over these denominators can be, ``a1'`` at most
    ``b1`` below ``a1``; None when ``b1`` and ``b2`` share a factor."""
    if math.gcd(b1, b2) != 1:
        return None
    a1 -= (a1 - pow(b2, -1, b1)) % b1 if b1 > 1 else 0
    return a1, (a1 * b2 - 1) // b1


# Top weights for plain runs, which have no bound on weight size: small,
# around the float spacing of 1, past the float range, and anything between.
_plain_tops = st.one_of(
    st.sampled_from((1, 2**53 - 1, 2**53 + 1, 10**400)),
    st.integers(min_value=1, max_value=2**200),
)


@st.composite
def plain_pairs(draw):
    """``(n, [(a, b), ...])`` for a plain run of ``n`` nodes and top scaled
    weight ``M``: ``1 <= b < n`` and ``-M <= a <= (b + 1) * M``. ``n`` is
    often at its largest and ``a`` and ``b`` at their ends; pairs that
    differ by exactly ``1 / (b1 * b2)`` are mixed in, and either sign, as
    the orientation under MAXIMIZE negates every value."""
    n = draw(st.one_of(
        st.sampled_from((2, 3, 2**10 + 1, 2**20, 2**24 + 1, 2**25 - 1)),
        st.integers(min_value=2, max_value=2**25 - 1),
    ))
    top = draw(_plain_tops)
    dens = st.one_of(st.sampled_from((1, max(1, n - 2), n - 1)), st.integers(1, n - 1))
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        b1, b2 = draw(dens), draw(dens)
        a1 = _plain_numerator(draw, b1, top)
        pairs.append((a1, b1))
        near = _closest_neighbour(a1, b1, b2)
        if near is not None and -top <= near[0] and -top <= near[1] <= (b2 + 1) * top:
            pairs += [(near[0], b1), (near[1], b2)]
    return n, [(draw(st.sampled_from((-1, 1))) * a, b) for a, b in pairs]


@st.composite
def plain_heads(draw):
    """``(tree, [(head label, a, b), ...])``: a plain tree whose root has
    one leaf of the top weight ``M / D`` and heads ``h0, h1, ...``; head
    ``hi`` has ``b + 1`` leaf children and contractibility ``a / (D * b)``,
    or an infinity at ``b == 0``. ``D`` is 1, 100 or the plain scale, ``M``
    is often past the float range, ``a`` is often at an end of its range,
    some heads repeat an earlier head's value as ``2a / 2b``, and some
    pairs of heads differ by exactly ``1 / (b * b2)``."""
    dens = [draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=40)))
            for _ in range(draw(st.integers(min_value=1, max_value=6)))]
    twins = [i for i, b in enumerate(dens) if b and draw(st.booleans())]
    dens += [2 * dens[i] for i in twins]
    top = draw(_plain_tops)
    scale = draw(st.sampled_from((1, 100, 2**32)))
    values = [(_plain_numerator(draw, b, top), b) for b in dens[:len(dens) - len(twins)]]
    for i in twins:
        a, b = values[i]
        twin = 2 * a
        if not -top <= twin <= (2 * b + 1) * top:
            twin = _plain_numerator(draw, 2 * b, top)
        values.append((twin, 2 * b))
    for a, b in values[:len(dens)]:
        if b and draw(st.booleans()):  # the closest distinct value over b2
            b2 = draw(st.integers(min_value=1, max_value=40))
            near = _closest_neighbour(a, b, b2)
            if near and -top <= near[0] <= (b + 1) * top and -top <= near[1] <= (b2 + 1) * top:
                values += [(near[0], b), (near[1], b2)]
    rows = [("r", "top", Fraction(top, scale))]
    for i, (a, b) in enumerate(values):
        rows.append(("r", f"h{i}", Fraction(max(-a, 0), scale)))
        rest = max(a, 0)
        for j in range(b + 1):
            w = min(rest, top)
            rest -= w
            rows.append((f"h{i}", f"h{i}.{j}", Fraction(w, scale)))
    heads = [(f"h{i}", a, b) for i, (a, b) in enumerate(values)]
    return quiet_tree(draw(st.permutations(rows))), heads


class TestPlainKeys:
    """A plain run keys a finite contractibility ``a / b``, over the common
    denominator, by the int ``floor(a * n**2 / b)`` alone, and queues the
    int ``key * n + e``: entries pop in (exact value, edge id) order, the
    infinities included."""

    @PROPERTY_SETTINGS
    @given(plain_pairs())
    def test_int_key_is_injective_and_orders_exactly(self, case):
        n, pairs = case
        for a1, b1 in pairs:
            for a2, b2 in pairs:
                exact_1, exact_2 = Fraction(a1, b1), Fraction(a2, b2)
                key_1, key_2 = a1 * n * n // b1, a2 * n * n // b2
                assert (key_1 == key_2) == (exact_1 == exact_2)
                assert (key_1 < key_2) == (exact_1 < exact_2)

    @PROPERTY_SETTINGS
    @given(plain_heads())
    def test_heap_entries_pop_by_exact_value_then_edge_id(self, case):
        t, heads = case
        for objective in Objective:
            state = ContractionState(t, objective)
            assert state._plain
            sign = -1 if objective is Objective.MAXIMIZE else 1
            ranks = {t.node_id(h): _reference_rank(sign * a, b, 1) for h, a, b in heads}
            entries = list(state._heap)
            assert all(type(entry) is int for entry in entries)
            heapq.heapify(entries)
            popped = [heapq.heappop(entries) % t.node_count for _ in heads]
            assert popped == sorted(ranks, key=lambda e: (ranks[e], e))


class TestOrderingInternals:
    @PROPERTY_SETTINGS
    @given(oriented_values())
    def test_heap_entries_order_by_exact_value_then_edge_id(self, case):
        scale, items = case
        entries = [(*_heap_key(num, den * scale), e) for e, (num, den) in enumerate(items)]
        expected = sorted(range(len(items)), key=lambda e: (_reference_rank(*items[e], scale), e))
        assert [entry[2] for entry in sorted(entries)] == expected
        heapq.heapify(entries)
        assert [heapq.heappop(entries)[2] for _ in items] == expected
        for num, den in items:
            key = _heap_key(num, den * scale)[0]
            assert (key in (float("inf"), float("-inf"))) == (den == 0)

    @PROPERTY_SETTINGS
    @given(
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**20),
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=1, max_value=10**20),
    )
    def test_composite_heap_key_orders_exactly(self, n1, d1, n2, d2):
        key_a = _heap_key(n1, d1)
        key_b = _heap_key(n2, d2)
        assert (key_a < key_b) == (Fraction(n1, d1) < Fraction(n2, d2))
        assert (key_a == key_b) == (Fraction(n1, d1) == Fraction(n2, d2))

    @PROPERTY_SETTINGS
    @given(st.integers(min_value=-(10**30), max_value=10**30),
           st.integers(min_value=1, max_value=10**20))
    def test_infinity_keys_bracket_everything(self, num, den):
        plus = _heap_key(1, 0)
        minus = _heap_key(-1, 0)
        finite = _heap_key(num, den)
        assert minus < finite < plus

    @PROPERTY_SETTINGS
    @given(st.lists(
        st.one_of(
            st.fractions(max_denominator=50).map(Contractibility.finite),
            st.builds(  # the same values as unreduced pairs
                lambda f, k: Contractibility(f.numerator * k, f.denominator * k),
                st.fractions(max_denominator=50),
                st.integers(min_value=2, max_value=5),
            ),
            st.sampled_from([POSITIVE_INFINITY, NEGATIVE_INFINITY]),
        ),
        min_size=2, max_size=8,
    ))
    def test_contractibility_total_order(self, values):
        def rank(c):
            if c is POSITIVE_INFINITY or c == POSITIVE_INFINITY:
                return (1, Fraction(0))
            if c == NEGATIVE_INFINITY:
                return (-1, Fraction(0))
            return (0, c.value)

        by_class = sorted(values, key=rank)
        for low, high in zip(by_class, by_class[1:]):
            assert low <= high
            assert not low > high
