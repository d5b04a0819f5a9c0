"""The engine's cut is optimal past brute force's reach.

At the optimal average no boundary cut has a sum of ``w_e - alpha`` better
than 0, and the optimal cuts have exactly 0 (Dinkelbach, 1967). So
``parametric_best`` at the engine's average must find 0, and its
strict-expand cut, the optimal cut with the fewest internal nodes, must be
the engine's cut: not only its average.
"""

import random
from fractions import Fraction

import pytest

from avgcut import ContractionState, Objective, brute_force_optimum, optimal_average_cut

from .helpers import WEIGHT_KINDS, parametric_best, quiet_tree, random_weighted_rows


def _planted_tie(alpha):
    """Rows to add under the root ``n0`` of ``random_weighted_rows``: an
    edge of weight ``alpha`` whose head has two leaf edges of weight
    ``alpha``. Every cut's average moves toward ``alpha``, so an optimum of
    ``alpha`` stays one, and the new edge's contractibility ties it: only
    the fewest-node rule keeps that edge in the cut."""
    return [("n0", "tie", alpha), ("tie", "tie0", alpha), ("tie", "tie1", alpha)]


def _assert_optimal(t, objective):
    result = optimal_average_cut(t, objective)
    best, cut = parametric_best(t, result.average, objective is Objective.MAXIMIZE)
    assert best == 0
    assert cut == result.cut
    return result


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
@pytest.mark.parametrize("n_nodes, trees", [(1_000, 15), (10_000, 2)])
def test_engine_cut_is_the_parametric_optimum(kind, n_nodes, trees):
    rng = random.Random(f"{kind}:{n_nodes}")
    for _ in range(trees):
        rows = random_weighted_rows(rng, n_nodes, kind)
        t = quiet_tree(rows)
        assert ContractionState(t)._plain is (kind != "primes")
        for objective in Objective:
            alpha = _assert_optimal(t, objective).average
            tied = _assert_optimal(quiet_tree(rows + _planted_tie(alpha)), objective)
            assert tied.average == alpha


def test_the_pass_agrees_with_brute_force_on_small_trees():
    rng = random.Random(0)
    for kind in WEIGHT_KINDS:
        for _ in range(40):
            t = quiet_tree(random_weighted_rows(rng, rng.randint(2, 16), kind))
            for objective in Objective:
                maximize = objective is Objective.MAXIMIZE
                result = brute_force_optimum(t, objective)
                assert parametric_best(t, result.average, maximize) == (0, result.cut)
                # Off the optimum, every cut falls short of a higher average
                # and the optimal cut beats a lower one.
                tiny = Fraction(1, 10**6)
                assert parametric_best(t, result.average + tiny, maximize)[0] < 0
                assert parametric_best(t, result.average - tiny, maximize)[0] > 0
