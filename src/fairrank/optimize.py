"""Minimum backward-arc search over ranking classes and the 3/4 harness.

All fractions in this module are exact rationals.  Minima over rank classes
are taken over weak orders (ordered set partitions of the vertex set),
since the backward count and every predicate here depend only on the weak
order induced by the ranks.  The linear axiom depends on the values too,
and the integer level values 1..k reach only part of that class: its
minima here are upper bounds on the true minima, and an EmptyClassError
for it does not prove the class empty.

Weak orders are enumerated as integer level vectors (`weak_order_levels`),
once per n, and kept as exact rankings that hold those ints: 2.81 MB at
n = 6 once each ranking has kept its comparison keys.  The predicates key
the ints by the one exact-key rule on a ranking's first check and keep the
keys on it (see `ranking`), so no Fraction and no key is built per candidate in
later sweeps at that n; only the reported witness holds Fractions.  What
the predicates derive from the tournament alone is built on the first
candidate and kept with the tournament, so the per-candidate cost is the
check itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterator, List, Optional, Tuple

from .errors import EmptyClassError, ResourceLimitError
from .ranking import (
    FairnessClass,
    Ranking,
    backward_arcs,
    copeland_ranking,
    is_fair,
)
from .tournament import Tournament, enumerate_all, gen_composite

INJECTIVE_SEARCH_CAP = 16
EMN_LMAX_CAP = 10_000
WEAK_ORDER_CAP = 6


@dataclass(frozen=True)
class MinBackwardResult:
    count: int
    fraction: Fraction
    witness: Ranking
    search_space: str  # "permutations" | "weakOrders" | "closedForm"


def _result(t: Tournament, witness: Ranking, search_space: str) -> MinBackwardResult:
    """Every minimizer's result: the count and fraction are the witness's own."""
    report = backward_arcs(t, witness)
    return MinBackwardResult(report.count, report.fraction, witness, search_space)


# -- weak order enumeration -------------------------------------------------


def weak_order_levels(n: int) -> Iterator[Tuple[int, ...]]:
    """Every weak order on the vertices 1..n once, as its level vector.

    levels[v - 1] is the level of vertex v, and the levels used are exactly
    1..k for some k (a surjection onto 1..k).  The orders on 1..m come from
    those on 1..m-1 by inserting vertex m into one of their k levels, or as
    a new level j in 1..k+1 that lifts the levels from j on by one.  Deleting
    vertex m undoes exactly one such insertion, so no order repeats.
    """
    if n == 0:
        yield ()
        return
    for levels in weak_order_levels(n - 1):
        k = max(levels, default=0)
        for j in range(1, k + 1):
            yield levels + (j,)
        for j in range(1, k + 2):
            yield tuple(level + (level >= j) for level in levels) + (j,)


@cache
def _level_vectors(n: int) -> Tuple[Ranking, ...]:
    """Every weak order on 1..n as a ranking of its int levels, in ascending
    order of the levels read by vertex.

    Built on the first call for each n and kept, so each ranking keeps the
    keys that its first check builds (`ranking._keys`): 4683 rankings,
    2.81 MB with their keys, at n = WEAK_ORDER_CAP.  Callers check the
    cap first, so no larger n is kept.
    """
    vertices = range(1, n + 1)
    return tuple(Ranking(dict(zip(vertices, levels))) for levels in sorted(weak_order_levels(n)))


# -- exact minimizers -------------------------------------------------------


def min_backward_injective(t: Tournament) -> MinBackwardResult:
    """Exact minimum over all injective rankings, by a subset DP.

    Orders are built lowest rank first; placing v while the set u is still
    unplaced makes v's arcs into u - {v} backward, so with vertices as bits
    cost[u] = min over v in u of |out(v) & (u - v)| + cost[u - v].  first[u]
    is the bit of the smallest v that attains the minimum, the first strict
    improvement in vertex order, so following it from the whole set gives
    the lex-least optimal placement order.
    """
    if t.n > INJECTIVE_SEARCH_CAP:
        raise ResourceLimitError(f"permutation search capped at n <= {INJECTIVE_SEARCH_CAP}")
    bits = [(1 << (v - 1), out) for v, out in enumerate(t.out, start=1)]
    cost = [0] * (1 << t.n)
    first = [0] * (1 << t.n)
    for u in range(1, 1 << t.n):
        best = t.num_arcs + 1  # above every cost, so some v improves on it
        for b, out in bits:
            if u & b:
                c = (out & (u ^ b)).bit_count() + cost[u ^ b]
                if c < best:
                    best, pick = c, b
        cost[u], first[u] = best, pick

    order: List[int] = []
    u = (1 << t.n) - 1
    while u:
        order.append(first[u].bit_length())  # bit v - 1 is vertex v
        u ^= first[u]
    witness = Ranking.exact({v: pos for pos, v in enumerate(order, start=1)})
    return _result(t, witness, "permutations")


def min_backward_copeland_closed_form(t: Tournament) -> MinBackwardResult:
    """Minimum over strict-Copeland-fair rankings, in closed form.

    Any strict Copeland fair ranking makes every arc that rises in
    out-degree backward, and the out-degree ranking makes exactly those
    arcs backward, so the minimum is the backward count of that ranking.
    """
    return _result(t, copeland_ranking(t), "closedForm")


def min_backward_fair(t: Tournament, c: FairnessClass) -> MinBackwardResult:
    """Exact minimum over a fairness class by weak-order enumeration.

    The k levels of each weak order get values 1..k, which is positive (as
    the linear axiom requires) and covers every rank-induced weak order.
    For LIN, whose verdict depends on the values and not only on their
    order, that covers only the level-valued members: the result is an
    upper bound on the minimum, and EmptyClassError does not prove the
    class empty.

    Every weak order is checked once, as an exact ranking of its int
    levels.  Among the members with the least backward count the witness
    is the one whose levels, read in vertex order, are lexicographically
    least: the first one met, as `_level_vectors` is in that order.  It is
    built once, with Fraction values.
    """
    if t.n > WEAK_ORDER_CAP:
        raise ResourceLimitError(f"weak-order enumeration capped at n <= {WEAK_ORDER_CAP}")
    best: Optional[Ranking] = None
    least = t.num_arcs + 1  # above every count
    for r in _level_vectors(t.n):
        if not is_fair(t, r, c):
            continue
        count = backward_arcs(t, r).count
        if count < least:
            best, least = r, count
    if best is None:
        raise EmptyClassError(f"no weak-order ranking satisfies {c.value}")
    return _result(t, Ranking.exact(best.values), "weakOrders")


# -- extremal family sweep --------------------------------------------------


def composite_min_backward_count(l: int) -> int:
    """Closed-form minimal strict-Copeland backward count on the layered family."""
    return l * l * (2 * l + 1) * (3 * l + 1)


def composite_edge_count(l: int) -> int:
    return 2 * l * (l + 1) * (2 * l + 1) ** 2


def composite_fraction(l: int) -> Fraction:
    """Simplified backward fraction l(3l+1) / (2(l+1)(2l+1)) of the layered family."""
    return Fraction(l * (3 * l + 1), 2 * (l + 1) * (2 * l + 1))


def copeland_bound(n: int) -> Fraction:
    """Per-size bound on the strict-Copeland backward fraction: (3l-2)/(4l-2)
    for n = 2l, (3l+1)/(4l+2) for n = 2l+1; both are < 3/4."""
    if n < 2:
        return Fraction(0)
    if n % 2 == 0:
        l = n // 2
        return Fraction(3 * l - 2, 4 * l - 2)
    l = (n - 1) // 2
    return Fraction(3 * l + 1, 4 * l + 2)


@dataclass(frozen=True)
class EmnRow:
    l: int
    n: int
    edges: int
    min_backward: int
    fraction: Fraction
    bound: Fraction
    materialized: bool


@dataclass(frozen=True)
class EmnReport:
    family: str
    rows: Tuple[EmnRow, ...]
    limit: Fraction = Fraction(3, 4)


def emn_sweep_composite(l_max: int, materialize_up_to: int = 0) -> EmnReport:
    """Backward fractions of the layered family approaching 3/4 from below.

    For l <= materialize_up_to (which must be >= 0) the tournament is
    actually built and the closed-form count cross-checked against the
    degree-rising arc count.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if materialize_up_to < 0:
        raise ValueError("materialize_up_to must be >= 0")
    if l_max > EMN_LMAX_CAP:
        raise ResourceLimitError(f"sweep capped at l_max <= {EMN_LMAX_CAP}")
    rows = []
    for l in range(1, l_max + 1):
        n = (2 * l + 1) ** 2
        edges = composite_edge_count(l)
        count = composite_min_backward_count(l)
        fraction = composite_fraction(l)
        assert fraction == Fraction(count, edges)
        materialized = l <= materialize_up_to
        if materialized:
            t = gen_composite(l)
            computed = min_backward_copeland_closed_form(t)
            if computed.count != count or t.num_arcs != edges:
                raise AssertionError(
                    f"materialized l={l} disagrees with closed form: "
                    f"{computed.count} vs {count}"
                )
        rows.append(EmnRow(l, n, edges, count, fraction, copeland_bound(n), materialized))
    return EmnReport("composite", tuple(rows))


# -- bound checks -----------------------------------------------------------


@dataclass(frozen=True)
class BoundCheckReport:
    n: int
    checked: int
    bound: Fraction
    max_fraction: Fraction
    all_within: bool


def verify_copeland_upper_bound(n: int) -> BoundCheckReport:
    """Check the per-size strict-Copeland bound over all tournaments on n
    vertices, as far as `enumerate_all` goes."""
    bound = copeland_bound(n)
    fractions = [min_backward_copeland_closed_form(t).fraction for t in enumerate_all(n)]
    max_fraction = max(fractions)
    # copeland_bound(n) < 3/4 for every n, so this also checks the limit:
    # (3l-2)/(4l-2) < 3/4 iff -8 < -6, (3l+1)/(4l+2) < 3/4 iff 4 < 6, and 0 for n < 2
    return BoundCheckReport(n, len(fractions), bound, max_fraction, max_fraction <= bound)
