"""Brute-force oracles that the library's fast paths are checked against."""

from fractions import Fraction
from itertools import permutations
from typing import List, Sequence, Tuple

from fairrank.optimize import MinBackwardResult
from fairrank.ranking import (
    FairnessClass,
    FairnessVerdict,
    Rank,
    Ranking,
    linear_sums,
    sorted_dominance,
)
from fairrank.tournament import Tournament


def injection_exists(sx: Sequence[Rank], sy: Sequence[Rank], leq) -> bool:
    """Brute-force search for a rank-non-decreasing injection from sx into sy."""
    if len(sx) > len(sy):
        return False
    for image in permutations(sy, len(sx)):
        if all(leq(a, b) for a, b in zip(sx, image)):
            return True
    return False


def spectral_leq_bruteforce(t: Tournament, r: Ranking, x: int, y: int) -> bool:
    r.require_domain(t)
    sx = [r[z] for z in t.out_set(x)]
    sy = [r[z] for z in t.out_set(y)]
    return injection_exists(sx, sy, r.leq)


def min_backward_injective_bnb(t: Tournament) -> MinBackwardResult:
    """Exact minimum over all injective rankings, by branch and bound.

    Orders are built lowest rank first; placing v adds one backward arc per
    out-neighbor still unplaced.  A first pass finds the optimum with
    aggressive pruning; a second lexicographic pass recovers the lex-least
    optimal placement order.
    """
    verts = list(t.vertices())
    best = t.num_arcs + 1

    def search(unplaced: frozenset, cost: int) -> None:
        nonlocal best
        if cost >= best:
            return
        if not unplaced:
            best = cost
            return
        for v in sorted(unplaced):
            rest = unplaced - {v}
            search(rest, cost + len(t.out_set(v) & rest))

    search(frozenset(verts), 0)

    witness_order: List[int] = []

    def recover(unplaced: frozenset, cost: int, prefix: List[int]) -> bool:
        if cost > best:
            return False
        if not unplaced:
            witness_order.extend(prefix)
            return cost == best
        for v in sorted(unplaced):
            rest = unplaced - {v}
            if recover(rest, cost + len(t.out_set(v) & rest), prefix + [v]):
                return True
        return False

    recover(frozenset(verts), 0, [])
    witness = Ranking.exact({v: pos for pos, v in enumerate(witness_order, start=1)})
    fraction = Fraction(best, t.num_arcs) if t.num_arcs else Fraction(0)
    return MinBackwardResult(best, fraction, witness, "permutations")


def scc_decompose_tarjan(t: Tournament) -> Tuple[frozenset, ...]:
    """Tarjan's algorithm, iterative.

    Tarjan emits components sinks-first, which is exactly the losers-first
    order required here: every cross arc goes from a later component to an
    earlier one.
    """
    n = t.n
    index = [0] * (n + 1)
    low = [0] * (n + 1)
    on_stack = [False] * (n + 1)
    visited = [False] * (n + 1)
    stack = []
    components = []
    counter = [1]

    for root in range(1, n + 1):
        if visited[root]:
            continue
        work = [(root, iter(sorted(t.out_set(root))))]
        visited[root] = True
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not visited[w]:
                    visited[w] = True
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(t.out_set(w)))))
                    advanced = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.add(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
    return tuple(components)


def backward_arcs_pairs(t: Tournament, r: Ranking) -> Tuple[Tuple[int, int], ...]:
    """Backward arcs by comparing the ranks of every arc's ends."""
    r.require_domain(t)
    return tuple((x, y) for (x, y) in t.arcs() if r.lt(r[x], r[y]))


def _ordered_pairs(n: int):
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x != y:
                yield x, y


def is_fair_pairs(t: Tournament, r: Ranking, c: FairnessClass) -> FairnessVerdict:
    """Fairness check by a scan of all ordered pairs in lexicographic order."""
    r.require_domain(t)

    if c is FairnessClass.INJ:
        for x, y in _ordered_pairs(t.n):
            if x < y and r.eq(r[x], r[y]):
                return FairnessVerdict(False, (x, y), "equal ranks")
        return FairnessVerdict(True)

    if c in (FairnessClass.NSCOP, FairnessClass.SCOP, FairnessClass.COP):
        deg = {x: t.out_degree(x) for x in t.vertices()}
        for x, y in _ordered_pairs(t.n):
            if c in (FairnessClass.NSCOP, FairnessClass.COP):
                if deg[x] <= deg[y] and not r.leq(r[x], r[y]):
                    return FairnessVerdict(False, (x, y), "non-strict Copeland violated")
            if c in (FairnessClass.SCOP, FairnessClass.COP):
                if deg[x] < deg[y] and not r.lt(r[x], r[y]):
                    return FairnessVerdict(False, (x, y), "strict Copeland violated")
        return FairnessVerdict(True)

    if c is FairnessClass.WEAK:
        for x, y in _ordered_pairs(t.n):
            if t.out_set(x) <= t.out_set(y) and not r.lt(r[x], r[y]):
                return FairnessVerdict(False, (x, y), "weak fairness violated")
        return FairnessVerdict(True)

    if c is FairnessClass.SPEC:
        spectra = {x: [r[z] for z in t.out_set(x)] for x in t.vertices()}
        leq = {}
        for x, y in _ordered_pairs(t.n):
            leq[(x, y)] = sorted_dominance(spectra[x], spectra[y], r.leq)
        for x, y in _ordered_pairs(t.n):
            if leq[(x, y)] and not r.leq(r[x], r[y]):
                return FairnessVerdict(False, (x, y), "non-strict spectral violated")
            if leq[(x, y)] and not leq[(y, x)] and not r.lt(r[x], r[y]):
                return FairnessVerdict(False, (x, y), "strict spectral violated")
        return FairnessVerdict(True)

    if c is FairnessClass.LIN:
        for x in t.vertices():
            if r[x] <= 0:
                return FairnessVerdict(False, (x, x), "non-positive rank")
        sums = linear_sums(t, r)
        for x, y in _ordered_pairs(t.n):
            if r.leq(sums[x], sums[y]) and not r.leq(r[x], r[y]):
                return FairnessVerdict(False, (x, y), "non-strict linear violated")
            if r.lt(sums[x], sums[y]) and not r.lt(r[x], r[y]):
                return FairnessVerdict(False, (x, y), "strict linear violated")
        return FairnessVerdict(True)

    raise ValueError(f"unhandled fairness class {c}")
