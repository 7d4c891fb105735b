"""Potential functions over exact rationals.

Two potentials appear: the classical one, rho_ky(G) = (k-2)(k+1)|V| -
2(k-1)|E|, and the packing-corrected one, rho(G) = ((k-2)(k+1)+eps)|V| -
2(k-1)|E| - delta*T(G) with eps = 4/(k^3 - 2k^2 + 3k) and delta = (k-1)*eps.
Each rational value is one integer over eps's denominator, made a Fraction
once; no floats anywhere in a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .graphs import Graph
from .packing import compute_T


@dataclass(frozen=True)
class PotentialParams:
    """The pair (eps, delta) attached to a color count k >= 4."""

    eps: Fraction
    delta: Fraction

    @staticmethod
    @lru_cache(maxsize=16)  # one entry per k; a verify sweep asks about three
    def for_k(k: int) -> "PotentialParams":
        if k < 4:
            raise ValueError("potential parameters require k >= 4")
        eps = Fraction(4, k ** 3 - 2 * k ** 2 + 3 * k)
        delta = (k - 1) * eps
        if not eps <= 1:
            raise AssertionError("eps must not exceed 1")
        return PotentialParams(eps, delta)


def rho_ky(g: Graph, k: int) -> int:
    """Classical potential; always an integer."""
    if k < 4:
        raise ValueError("potential requires k >= 4")
    return (k - 2) * (k + 1) * g.n - 2 * (k - 1) * g.edge_count()


def rho_value(n: int, m: int, t_value: int, k: int) -> Fraction:
    """Packing-corrected potential from raw counts (n, m, T)."""
    eps = PotentialParams.for_k(k).eps
    a, b = eps.numerator, eps.denominator
    return Fraction(((k - 2) * (k + 1) * b + a) * n - 2 * (k - 1) * m * b - (k - 1) * a * t_value, b)


def rho(g: Graph, k: int, t_value: int) -> Fraction:
    """Packing-corrected potential; T is supplied by the caller so a single
    packing computation can be reused across repeated evaluations."""
    return rho_value(g.n, g.edge_count(), t_value, k)


def rho_subset(g: Graph, subset: int, k: int) -> Fraction:
    """Potential of the subgraph induced on the vertex mask ``subset``, with
    T packed on that subgraph."""
    sub = g.induced(subset)
    t_value = compute_T(sub, k).value
    return rho(sub, k, t_value)


def complete_graph_T(order: int, k: int) -> int:
    """Packing value of a complete graph on ``order`` vertices.

    K_order fits one clique at most; an order >= k-1 subgraph holds a
    (k-1)-clique (value 2), order exactly k-2 holds a (k-2)-clique (value 1),
    anything smaller holds nothing.
    """
    if order >= k - 1:
        return 2
    if order == k - 2:
        return 1
    return 0


def complete_potential(order: int, k: int) -> Fraction:
    """rho(K_order) at parameter k, via the formula T values."""
    m = order * (order - 1) // 2
    return rho_value(order, m, complete_graph_T(order, k), k)


def ky_edge_bound(n: int, k: int) -> int:
    """Integer lower edge bound ceil((k/2 - 1/(k-1))n - k(k-3)/(2(k-1)))."""
    if k < 4:
        raise ValueError("edge bound requires k >= 4")
    if n < k:
        raise ValueError(f"edge bound needs n >= k, got n={n}, k={k}")
    return -((k * (k - 3) - (k * (k - 1) - 2) * n) // (2 * (k - 1)))


def eps_edge_bound(n: int, k: int, t_value: int) -> Fraction:
    """Packing-corrected lower edge bound, returned as an exact rational.

    The formula is ((k-2)(k+1)+eps)n - k(k-3) + 2*delta - k*eps - delta*T,
    all over 2(k-1), where the eps terms add up to (k - 2 - (k-1)T)eps.
    Callers may take the ceiling since edge counts are integers; the raw
    rational is returned unrounded.
    """
    if k < 4:
        raise ValueError("edge bound requires k >= 4")
    if n < k:
        raise ValueError(f"edge bound needs n >= k, got n={n}, k={k}")
    eps = PotentialParams.for_k(k).eps
    a, b = eps.numerator, eps.denominator
    numer = ((k - 2) * (k + 1) * b + a) * n - k * (k - 3) * b + (k - 2 - (k - 1) * t_value) * a
    return Fraction(numer, 2 * (k - 1) * b)


def main_potential_bound(n: int, k: int) -> Fraction:
    """Upper bound k(k-3) + n*eps - (2 + (n-1)/(k-1))*delta for the potential
    of a composed graph on n vertices (valid once the graph is not K_k).
    With delta = (k-1)eps the terms in n cancel, leaving k(k-3) - (2k-3)eps
    for every n."""
    eps = PotentialParams.for_k(k).eps
    a, b = eps.numerator, eps.denominator
    return Fraction(k * (k - 3) * b - (2 * k - 3) * a, b)
