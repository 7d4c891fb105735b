"""Exact-rational potential arithmetic.

Every asserted value is a Fraction; a float anywhere in these checks would
hide gaps of order 1/k^3, which is exactly the scale the epsilon-potential
trades in.
"""

from fractions import Fraction

import pytest

import oracles
from orelab import (
    Graph,
    PotentialParams,
    complete_graph_T,
    complete_potential,
    compute_T,
    eps_edge_bound,
    is_k_ore,
    ky_edge_bound,
    main_potential_bound,
    mask_of,
    ore_catalog,
    realize,
    rho,
    rho_ky,
    rho_subset,
    rho_value,
)
from sample_graphs import fused_k4, wheel5


def test_params():
    p4 = PotentialParams.for_k(4)
    assert p4.eps == Fraction(1, 11) and p4.delta == Fraction(3, 11)
    p5 = PotentialParams.for_k(5)
    assert p5.eps == Fraction(2, 45) and p5.delta == Fraction(8, 45)
    for k in range(4, 41):
        p = PotentialParams.for_k(k)
        assert p.eps == Fraction(4, k**3 - 2 * k**2 + 3 * k)
        assert p.delta == (k - 1) * p.eps
        assert p.eps <= 1


def test_params_are_built_once_per_k():
    PotentialParams.for_k.cache_clear()
    first = [PotentialParams.for_k(k) for k in (4, 5, 6)]
    again = [PotentialParams.for_k(k) for k in (4, 5, 6, 4)]
    assert all(a is b for a, b in zip(first + first[:1], again))
    assert PotentialParams.for_k.cache_info().misses == 3
    for _ in range(2):  # a refused k is refused on every call
        with pytest.raises(ValueError, match="require k >= 4"):
            PotentialParams.for_k(3)


def test_rho_ky_anchors():
    assert rho_ky(Graph.complete(4), 4) == 4
    assert rho_ky(wheel5(), 4) == 0
    assert rho_ky(Graph.complete(1), 4) == 10
    assert rho_ky(fused_k4(), 4) == 4  # composition keeps the k-Ore value


def test_rho_anchors():
    k4 = Graph.complete(4)
    assert rho(k4, 4, compute_T(k4, 4).value) == Fraction(42, 11)
    assert rho(Graph.complete(1), 4, 0) == Fraction(111, 11)  # 10 + 1/11
    g = fused_k4()
    t = compute_T(g, 4).value
    assert t == 4
    assert rho(g, 4, t) == Fraction(39, 11) == main_potential_bound(7, 4)


def test_rho_value_consistency(census4_8):
    # the epsilon-potential is the KY potential shifted by eps*n - delta*T
    p = PotentialParams.for_k(4)
    for g in census4_8.graphs:
        t = compute_T(g, 4).value
        r = rho(g, 4, t)
        assert r == rho_ky(g, 4) + p.eps * g.n - p.delta * t
        assert r == rho_value(g.n, g.edge_count(), t, 4)


def test_rho_subset():
    g = fused_k4()
    t = compute_T(g, 4).value
    assert rho_subset(g, g.full_mask(), 4) == rho(g, 4, t)
    assert rho_subset(g, 0, 4) == 0
    # a K_3 inside the composition
    tri = next(
        c for c in __import__("itertools").combinations(range(7), 3) if g.is_clique(mask_of(c))
    )
    assert rho_subset(g, mask_of(tri), 4) == Fraction(12 * 11 - 3, 11)  # 12 - 3/11
    with pytest.raises(ValueError, match="ids outside"):
        rho_subset(g, -1, 4)  # a negative mask would never end bits_of


def standard_facts(k: int) -> dict[str, bool]:
    """The four textbook values of rho(K_l), l = 1..k, at parameter k."""
    p = PotentialParams.for_k(k)
    values = {order: complete_potential(order, k) for order in range(1, k + 1)}
    return {
        "top": values[k] == k * (k - 3) + k * p.eps - 2 * p.delta,
        "single": values[1] == k * k - k - 2 + p.eps,
        "near_top": values[k - 1] == 2 * k * k - 6 * k + 4 + (k - 1) * p.eps - 2 * p.delta,
        "middle": all(
            values[order] >= 2 * k * k - 4 * k - 2 + 2 * p.eps for order in range(2, k - 1)
        ),
    }


def test_complete_potentials_standard_facts():
    for k in range(5, 41):
        assert all(standard_facts(k).values())
    p5 = PotentialParams.for_k(5)
    assert complete_potential(5, 5) == 10 + 5 * p5.eps - 2 * p5.delta
    assert complete_potential(4, 4) == Fraction(42, 11)


def test_complete_potentials_middle_fact_fails_at_k4():
    # the lone middle order at k=4 is K_2 = K_{k-2}, whose packing value 1
    # costs delta = 3*eps; the stated lower bound misses by exactly that
    assert standard_facts(4) == {"top": True, "single": True, "near_top": True, "middle": False}
    p4 = PotentialParams.for_k(4)
    bound = 2 * 16 - 16 - 2 + 2 * p4.eps
    assert bound - complete_potential(2, 4) == 3 * p4.eps


def test_complete_graph_T_table():
    assert complete_graph_T(4, 4) == 2
    assert complete_graph_T(3, 4) == 2
    assert complete_graph_T(2, 4) == 1
    assert complete_graph_T(1, 4) == 0
    assert complete_graph_T(3, 5) == 1


def test_ky_edge_bound_anchors():
    assert ky_edge_bound(4, 4) == 6
    assert ky_edge_bound(6, 4) == 10
    assert ky_edge_bound(7, 4) == 11
    with pytest.raises(ValueError):
        ky_edge_bound(3, 4)


def test_edge_bounds_hold_on_census(census4_8, census5_8):
    for corpus, k in ((census4_8, 4), (census5_8, 5)):
        for g in corpus.graphs:
            m = g.edge_count()
            assert m >= ky_edge_bound(g.n, k)
            assert m >= eps_edge_bound(g.n, k, compute_T(g, k).value)


def test_main_bound_equality_structure():
    # every one-step composition of two K_4s sits exactly on the bound;
    # K_4 itself is covered by the top complete-graph formula, not this bound
    for tree in ore_catalog(4, 1):
        g = realize(tree)
        if g.n == 4:
            continue
        t = compute_T(g, 4).value
        value = rho(g, 4, t)
        bound = main_potential_bound(g.n, 4)
        assert value == bound == Fraction(39, 11)
        assert Fraction(t) == 2 + Fraction(g.n - 1, 3)


def test_ky_equality_iff_ore_on_census(census4_8):
    for g in census4_8.graphs:
        assert (rho_ky(g, 4) == 4) == (is_k_ore(g, 4) is not None)


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8, 33, 40])
def test_integer_numerators_match_the_fraction_chains(k):
    """rho_value, main_potential_bound and the two edge bounds, each one
    integer numerator, agree with their term-by-term Fraction forms on a
    grid."""
    for n in (0, 1, k - 1, k, 2 * k - 1, 3 * k + 5, 257):
        assert str(main_potential_bound(n, k)) == str(oracles.main_potential_bound(n, k))
        if n >= k:
            assert ky_edge_bound(n, k) == oracles.ky_edge_bound(n, k)
        for t in (0, 1, 2, n // (k - 2) + 1, 5 * n):
            if n >= k:
                assert str(eps_edge_bound(n, k, t)) == str(oracles.eps_edge_bound(n, k, t)), (n, t)
            for m in (0, 1, n, n * (n - 1) // 2):
                assert str(rho_value(n, m, t, k)) == str(oracles.rho_value(n, m, t, k)), (n, m, t)
