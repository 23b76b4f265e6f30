"""Minimum backward-arc search over ranking classes and the 3/4 harness.

All fractions in this module are exact rationals.  Minima over rank classes
are taken over weak orders (ordered set partitions of the vertex set),
since the backward count and every predicate here depend only on the weak
order induced by the ranks.  The linear axiom depends on the values too,
and the integer level values 1..k reach only part of that class: its
minima here are upper bounds on the true minima, and an EmptyClassError
for it does not prove the class empty.  Every minimum reports the witness
with the least (count, levels read by vertex).

NSCOP, SCOP and COP have closed-form minima, read off the out-degrees at
any n (`_dense_levels` gives the proof).  The injective class is
minimized by one DP over the set of vertices already placed (Held and
Karp, 1962), up to INJECTIVE_SEARCH_CAP vertices, in one numpy pass per
placed-set size: all sets of one size are columns, all next vertices rows,
and each set keeps its least (count, levels) in two keys, the count and
the first levels in a uint64, the other levels, from n = 15 on, in an
int64, compared in that order, so no Python step runs per set.  The
first key starts at 2^63, above every pack, so a vertex already placed
reads its own set's unwritten key and never wins, and no mask removes it.
`min_backward_injective` and `min_backward_fair(t, INJ)` both run it and
report the same witness.
WEAK and LIN search the weak orders up to WEAK_ORDER_CAP, SPEC up to
SPEC_ORDER_CAP.  The backward counts of all of them come first, from one
array of their levels, and the witness is the first fair order in
ascending (count, levels).  All three decide the orders in that order, in
chunks of 75 that grow 4x up to CHUNK_ENTRIES // n^2 orders, and the
first chunk that holds a fair order ends the search.  WEAK decides each
order of a chunk by one `is_fair` call on the ranking of its levels, since
the benchmark's own tests count those calls (ROADMAP item 12); its first
chunk holds every witness at n = 6, so it decides 75 of the 4683
orders there.  SPEC and LIN decide a chunk by one array pass over the
levels L (levels 1..k, one row per vertex) and the out-set matrix A, and
certify their witness with one `is_fair` call:
- LIN holds iff L and the out-sums S = A L order every pair alike: the
  axiom asks S[x] < S[y] => L[x] < L[y] and S[x] <= S[y] => L[x] <= L[y],
  which, read for a pair and its swap, say exactly that.
- SPEC compares spectra by threshold counts: x's spectrum lies below y's
  iff, for every θ = 1..n, x has at most as many out-neighbours at level
  >= θ as y, since the m-th largest entry of a spectrum is at least θ iff
  at least m of its entries are.  The axiom is then two boolean masks
  over (x, y), as `min_backward_fair` proves.
LIN keeps WEAK's cap: its level values give only an upper bound on its
minimum (ROADMAP item 2).

The weak orders of n vertices are one int8 array of levels, one row per
vertex and one column per order (`_level_array`), built once per n by
insertion in numpy and kept: 28 KB at n = 6, 0.33 MB at n = 7 and 4.4 MB
at n = 8, whose build peaks at 17 MB under tracemalloc.  That array is
all the minimizer keeps: WEAK builds the ranking of each order it
decides from its chunk's columns, and a check keeps nothing on its
arguments (see `ranking`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from .errors import EmptyClassError, ResourceLimitError
from .ranking import (
    _COPELAND_CLASSES,
    FairnessClass,
    Ranking,
    backward_arcs,
    is_fair,
)
from .tournament import (
    CHUNK_ENTRIES,
    Tournament,
    _require_size,
    gen_composite,
    unpack_rows,
)

INJECTIVE_SEARCH_CAP = 20
EMN_LMAX_CAP = 10_000
WEAK_ORDER_CAP = 6
SPEC_ORDER_CAP = 8
ENUMERATION_CAP = 6


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


@cache
def _level_array(n: int) -> np.ndarray:
    """Every weak order on the vertices 1..n once, as one read-only int8
    array with one row per vertex: levels[v - 1, i] is vertex v's level in
    order i, and the levels of each order are exactly 1..k for some k (a
    surjection onto 1..k).  The columns are in ascending order of the
    levels read by vertex.

    The orders on 1..m come from those on 1..m-1 by inserting vertex m into
    one of their k levels j, or as a new level j in 1..k+1 that lifts the
    levels from j on by one; deleting vertex m undoes exactly one such
    insertion, so no order repeats.  Each j takes, in one numpy step per
    kind, every order that has a level j - 1 (or j), and one `np.lexsort`
    sorts the columns at the end.

    Built on the first call for each n and kept: 4683 orders in 28 KB at
    n = 6, 47 293 in 0.33 MB at n = 7 and 545 835 in 4.4 MB at n = 8.
    Callers check their cap first, so no larger n is kept.
    """
    levels = np.zeros((0, 1), dtype=np.int8)
    for m in range(n):
        k = levels.max(axis=0, initial=0)
        parts = []
        for j in range(1, m + 2):
            if j <= m:  # vertex m + 1 joins level j
                old = levels[:, k >= j]
                parts.append(np.vstack([old, np.full((1, old.shape[1]), j, np.int8)]))
            old = levels[:, k >= j - 1]  # vertex m + 1 alone on a new level j
            parts.append(np.vstack([old + (old >= j), np.full((1, old.shape[1]), j, np.int8)]))
        levels = np.concatenate(parts, axis=1)
    levels = levels.take(np.lexsort(levels[::-1]), axis=1)  # C order: rows are contiguous
    levels.flags.writeable = False
    return levels


# -- exact minimizers -------------------------------------------------------


def min_backward_injective(t: Tournament) -> MinBackwardResult:
    """Exact minimum over all injective rankings, up to INJECTIVE_SEARCH_CAP
    vertices; the same witness as `min_backward_fair(t, INJ)`.

    Every injective ranking with the fewest backward arcs is WEAK-fair, so
    the WEAK ∧ INJ minimum is this one and EM(WEAK ∧ INJ) = EM(INJ) = 1/2.
    The proof is an exchange.  Let out(x) ⊊ out(y) with x ranked above y;
    then y -> x (see `min_backward_fair`).  Swap x and y.  Only the arc
    between them and the arcs between {x, y} and the z ranked between them
    change.  y -> x turns forward: +1.  A z with x -> z has y -> z too, as
    z is in out(x) ⊆ out(y): x -> z turns backward and y -> z forward, net
    0.  A z with z -> x turns forward, and the arc between y and z changes
    by at most one: net >= 0.  So the swap removes a backward arc, which no
    minimum allows (tests/test_optimize.py::TestWeakLemmas checks it).
    """
    return _result(t, _least_injective_order(t), "permutations")


def min_backward_copeland_closed_form(t: Tournament) -> MinBackwardResult:
    """Minimum over strict-Copeland-fair rankings, in closed form: the
    dense degree levels of `_dense_levels`, as ints, the same witness as
    `min_backward_fair(t, SCOP)`."""
    return _result(t, Ranking(dict(zip(t.vertices(), _dense_levels(t)))), "closedForm")


def _dense_levels(t: Tournament) -> List[int]:
    """Each vertex's dense degree level, 1 plus the number of distinct
    out-degrees below its own, read by vertex: the least witness of SCOP
    and the one weak order of COP.

    Every SCOP ranking ranks y over x when deg(x) < deg(y), so it makes
    each degree-rising arc x -> y backward, and the dense levels make only
    those arcs backward.  Along one vertex of each distinct degree up to
    deg(v), the levels of a SCOP weak order rise strictly from 1, so v's
    level is at least its dense level.  COP ties equal degrees and orders
    the others by degree, so its one weak order is the dense one.
    """
    degrees = [out.bit_count() for out in t.out]
    dense = {d: level for level, d in enumerate(sorted(set(degrees)), start=1)}
    return [dense[d] for d in degrees]


def _least_injective_order(t: Tournament) -> Ranking:
    """The injective ranking with the least (backward count, levels read by
    vertex), by a DP over placed sets (Held and Karp, 1962), one numpy pass
    per placed-set size.

    Vertices are placed one at a time, lowest level first, so the vertex
    placed on a set of k vertices takes level k + 1; with vertices as bits,
    s is the set placed so far, and placing y on s makes the arcs from s
    into y backward.  best[s] is the least (count, levels) over the orders
    that place the other vertices above s, counting the backward arcs into
    those vertices and reading their levels by vertex, packed: the count
    above `width`-bit level fields with vertex 1's highest, so comparing
    packs compares the pairs, and packs add field by field, since no count
    passes C(n, 2) and no level passes n.  Placing y on s, with |s| = k,
    adds arcs(s, y) to the count and k + 1 to y's field, whatever comes
    after: among the orders that place y next, the least is the one that
    completes s | y least, and best[s] is the least of
    arcs(s, y) + best[s | y] + (k + 1 in y's field) over y not in s.

    The sets of one size read best only at the next size, so one pass
    takes every s of size k = n - 1 ... 0 as a column and every vertex y as
    a row and takes each column's least; the columns go in chunks of at
    most CHUNK_ENTRIES (set, next vertex) entries, under 32 bytes an
    entry, beside one uint64 and one int64 key per placed set, 16 MB at
    the cap (tests/test_memory.py).

    The pack takes bit_length(C(n, 2)) + n * width bits, 87 at n = 16, so
    it is split into two keys at a 63-bit boundary: key0 holds the count
    above the fields of vertices 1..h, with h as large as that allows, and
    key1 the fields of vertices h + 1..n; its pass runs only when h < n,
    from n = 15 on, and below that key1 stays 0 and is not read.  The least
    key0, then the least key1 among its ties, is the least pack, and each
    key adds on its own, since no field carries.  key1 fits its 63 bits up
    to n = 23, above the cap.

    key0 is a uint64 that starts at 2^63 for every set but the full one,
    which starts at 0, and each set's key is written only after its own
    column's least is taken.  A y already in s has s | y = s, so its
    candidate reads that unwritten 2^63, which lies above every pack, as h
    keeps key0's packs within 63 bits; with arcs(s, y) and y's field added
    it stays below 2^64, so nothing wraps, and it never wins: no mask of
    the y in s is needed.  Nor does key1 need one, as it reads only the
    rows that tie the column's least key0.
    """
    if t.n > INJECTIVE_SEARCH_CAP:
        raise ResourceLimitError(f"permutation search capped at n <= {INJECTIVE_SEARCH_CAP}")
    n, full = t.n, (1 << t.n) - 1
    width = n.bit_length()  # levels run up to n
    h = min(n, (63 - (n * (n - 1) // 2).bit_length()) // width)

    def column(values: List[int], dtype=np.int64) -> np.ndarray:
        return np.array(values, dtype=dtype)[:, None]

    # one row per vertex y: its bit, the x with x -> y, and 1 in its field
    bits = column([1 << y - 1 for y in t.vertices()])
    into = column([full ^ out ^ 1 << y - 1 for y, out in enumerate(t.out, start=1)])
    field0 = column([1 << width * (h - y) if y <= h else 0 for y in t.vertices()], np.uint64)
    field1 = column([0 if y <= h else 1 << width * (n - y) for y in t.vertices()])
    key0 = np.full(1 << n, 1 << 63, dtype=np.uint64)  # above every pack
    key0[full] = 0
    key1 = np.zeros(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    top = np.iinfo(np.int64).max  # above every candidate
    per = CHUNK_ENTRIES // n
    for k in range(n - 1, -1, -1):
        layer = np.flatnonzero(sizes == k)
        for start in range(0, len(layer), per):
            s = layer[start:start + per]
            after = s | bits
            # arcs(s, y), above key0's fields
            cand0 = np.left_shift(np.bitwise_count(s & into), width * h, dtype=np.uint64)
            cand0 += key0.take(after)
            cand0 += (k + 1) * field0
            least0 = cand0.min(axis=0)
            key0[s] = least0
            if h < n:  # key1 holds the fields of h + 1..n, from n = 15 on
                cand1 = key1.take(after)
                cand1 += (k + 1) * field1
                np.copyto(cand1, top, where=cand0 != least0)
                key1[s] = cand1.min(axis=0)
    # the whole pack: key0, shifted past the fields that key1 holds, then key1
    pack, mask = int(key0[0]) << width * (n - h) | int(key1[0]), (1 << width) - 1
    return Ranking.exact({y: pack >> width * (n - y) & mask for y in t.vertices()})


def min_backward_fair(t: Tournament, c: FairnessClass) -> MinBackwardResult:
    """Exact minimum over a fairness class, over the weak orders of the
    vertices.

    The k levels of each weak order get values 1..k, which is positive (as
    the linear axiom requires) and covers every rank-induced weak order.
    For LIN, whose verdict depends on the values and not only on their
    order, that covers only the level-valued members: the result is an
    upper bound on the minimum, and EmptyClassError does not prove the
    class empty.  Among the members with the least backward count the
    witness is the one whose levels, read in vertex order, are
    lexicographically least, with Fraction values.

    NSCOP, SCOP and COP take that witness in closed form, at any n.  NSCOP
    puts every vertex on level 1: deg(x) <= deg(y) asks only for
    rank(x) <= rank(y), which a tie meets, no arc is backward, and 1 is the
    least level.  SCOP and COP put each vertex on its dense degree level
    (`_dense_levels` gives the proof).

    INJ takes the witness from the DP of `_least_injective_order`, as
    `min_backward_injective` does, up to INJECTIVE_SEARCH_CAP vertices.
    WEAK and LIN search the weak orders up to WEAK_ORDER_CAP, and SPEC up
    to SPEC_ORDER_CAP, each order an exact ranking of its int levels.  The
    backward counts of all of them come first, one numpy compare over the
    level array per arc.  A stable sort of the counts keeps the ascending
    levels of `_level_array` among equal counts, so the witness is the
    first fair order in ascending (count, levels).  All three decide the
    orders in that order (`_fair_orders`), in chunks of 75, 300, ...
    orders, each 4x the last, up to CHUNK_ENTRIES // n^2, so no
    (n, n, orders) array of a pass outgrows CHUNK_ENTRIES entries, and the
    first chunk that holds a fair order ends the search.  The first chunk
    holds all 75 orders of n = 4, and at n <= 6 every WEAK witness, so WEAK
    makes 75 calls at every n <= 6.  WEAK decides each order of a chunk by
    one `is_fair` call: it constrains ranks pair by pair and could be
    placed by a DP too, but the benchmark's own tests count its `is_fair`
    calls (ROADMAP item 12).  SPEC and LIN decide a chunk by one array
    pass, and only its first fair order, the witness, gets an `is_fair`
    call, as a certificate that must agree; an empty class makes none.

    The array pass reads each order's levels L (1..k, so positive) and the
    out-set matrix A, and an order is fair iff no ordered pair (x, y)
    breaks the rule of its class:
    - LIN: L[x] > L[y] iff S[x] > S[y], with S = A L the out-sums.  The
      axiom asks S[x] < S[y] => L[x] < L[y] and S[x] <= S[y] =>
      L[x] <= L[y].  If S[x] > S[y] the first, for (y, x), gives
      L[x] > L[y]; if not, the second gives L[x] <= L[y].  Conversely, if
      S and L order every pair alike, S[x] < S[y] gives L[x] < L[y], and
      S[x] <= S[y] rules out L[x] > L[y].
    - SPEC: below[x, y] => L[x] <= L[y], and below[x, y] and not
      below[y, x] => L[x] < L[y], where below[x, y] says that x's spectrum
      lies below y's, which holds iff C_θ[x] <= C_θ[y] for every threshold
      θ = 1..n, with C_θ = A [L >= θ] the out-neighbours at level >= θ.
      If the m-th largest entry of x's spectrum is a, then C_a[x] >= m, so
      C_a[y] >= m and y's m-th largest is at least a; conversely, if
      C_θ[x] = m, x's m-th largest is at least θ, y's m-th largest is at
      least that, and C_θ[y] >= m.  θ = 1 gives deg(x) <= deg(y).  The
      levels order the vertices as `is_fair`'s rank positions do, so they
      stand in for them.

    On exact rankings SPEC and LIN each imply WEAK.  A WEAK violation is a
    pair with out(x) ⊆ out(y) and not rank(x) < rank(y).  Then y -> x, as
    x -> y would put y in out(x) but not in out(y), and so x is in out(y)
    but not in out(x): out(x) ⊊ out(y).  The ranks of out(y) then hold
    those of out(x), so y's spectrum is at least x's entry by entry, read
    largest first, and has more entries: it lies strictly above x's, and
    SPEC asks rank(x) < rank(y).  With positive ranks, as LIN asks, y's
    out-sum is x's plus the ranks of out(y) minus out(x), among them
    rank(x) > 0, so it is strictly larger, and LIN asks rank(x) < rank(y)
    too.  Float ranks compare within eps, which such a gap can fall under,
    so this holds for exact ranks only.
    """
    if c in _COPELAND_CLASSES:
        levels = [1] * t.n if c is FairnessClass.NSCOP else _dense_levels(t)
        return _result(t, Ranking.exact(dict(zip(t.vertices(), levels))), "weakOrders")
    if c is FairnessClass.INJ:
        return _result(t, _least_injective_order(t), "weakOrders")
    if c is FairnessClass.SPEC:
        if t.n > SPEC_ORDER_CAP:
            raise ResourceLimitError(f"spectral weak-order search capped at n <= {SPEC_ORDER_CAP}")
    elif t.n > WEAK_ORDER_CAP:
        raise ResourceLimitError(f"weak-order enumeration capped at n <= {WEAK_ORDER_CAP}")
    levels = _level_array(t.n)
    counts = np.zeros(levels.shape[1], dtype=np.int8)  # at most C(8, 2) = 28
    for x, out in enumerate(t.out):
        for y in range(t.n):
            if out >> y & 1:
                counts += levels[x] < levels[y]
    # a stable sort keeps the levels order among equal counts
    order = np.argsort(counts, kind="stable")
    best: Optional[Ranking] = None
    # the first chunk, 75 orders, is the least that holds all 75 orders of
    # n = 4, since bench/test_bench.py counts WEAK's 75 is_fair calls on
    # them; over every labelled tournament of n = 6 the first WEAK-fair order
    # lies at index 57 or lower (tests/test_optimize.py::TestWeakOrderMinimum),
    # so WEAK's first chunk holds every witness at its cap
    per = CHUNK_ENTRIES // (t.n * t.n)
    start, size = 0, min(75, per)
    while best is None and start < len(order):
        chunk = levels.take(order[start:start + size], axis=1)
        fair = np.flatnonzero(_fair_orders(t, chunk, c))
        if len(fair):
            best = Ranking.exact(dict(enumerate(chunk[:, fair[0]].tolist(), start=1)))
            if c is not FairnessClass.WEAK and not is_fair(t, best, c):
                raise AssertionError(f"{c.value} array verdict refuted by is_fair on {best}")
        start, size = start + size, min(4 * size, per)
    if best is None:
        raise EmptyClassError(f"no ranking with levels 1..k satisfies {c.value}")
    return _result(t, best, "weakOrders")


def _fair_orders(t: Tournament, levels: np.ndarray, c: FairnessClass) -> np.ndarray:
    """The WEAK, SPEC or LIN verdict of every weak order at once: fair[i]
    is whether the ranking of column i of `levels` (one row per vertex, as
    `_level_array` holds them) passes `is_fair`.  WEAK asks `is_fair`
    itself, once per column.  SPEC and LIN follow the rules that
    `min_backward_fair` proves, on (n, n, orders) bool arrays, built per
    call and not kept; `min_backward_fair` passes chunks of at most
    CHUNK_ENTRIES // n^2 orders, so each holds at most CHUNK_ENTRIES."""
    if c is FairnessClass.WEAK:
        return np.array([bool(is_fair(t, Ranking(dict(enumerate(column, start=1))), c))
                         for column in levels.T.tolist()], dtype=bool)
    n = t.n
    # float32 products run in BLAS, where int products do not, and are
    # exact here: every entry is an integer of at most n(n - 1) = 56
    a = unpack_rows(t.out, range(n)).astype(np.float32)
    if c is FairnessClass.LIN:
        sums = a @ levels.astype(np.float32)
        return ((levels[:, None] > levels) == (sums[:, None] > sums)).all((0, 1))
    below = np.ones((n, n, levels.shape[1]), dtype=bool)
    for theta in range(1, n + 1):
        counts = a @ (levels >= theta).astype(np.float32)
        below &= counts[:, None] <= counts
    # unfair: strictly below and ranked at least as high, or below and higher
    unfair = ~below.transpose(1, 0, 2)
    unfair &= below
    unfair &= levels[:, None] >= levels
    below &= levels[:, None] > levels
    unfair |= below
    return ~unfair.any((0, 1))


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
    degree-rising arc count.  The largest of them must fit the vertex cap,
    which is checked before the first is built.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if materialize_up_to < 0:
        raise ValueError("materialize_up_to must be >= 0")
    if l_max > EMN_LMAX_CAP:
        raise ResourceLimitError(f"sweep capped at l_max <= {EMN_LMAX_CAP}")
    _require_size((2 * min(l_max, materialize_up_to) + 1) ** 2)
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
    """Check the per-size strict-Copeland bound over all 2^C(n,2) labelled
    tournaments on n vertices, up to ENUMERATION_CAP vertices.

    The least strict-Copeland backward count of a tournament is its number
    of degree-rising arcs, x -> y with deg(x) < deg(y) (`_dense_levels`
    gives the proof), so no ranking is built.  Tournament number `mask`
    orients the k-th pair (i, j), i < j, of `combinations(range(n), 2)` as
    j -> i iff bit k of `mask` is set, and as i -> j otherwise; one array
    of those bits holds every tournament, its out-degrees are one product
    with the pairs' endpoints, and each count is one compare of the
    endpoints' degrees.
    """
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(f"enumeration capped at n <= {ENUMERATION_CAP}")
    _require_size(n)
    pairs = np.array(list(combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2)
    m = len(pairs)
    masks = np.arange(1 << m, dtype="<u4").view(np.uint8).reshape(-1, 4)
    j_wins = np.unpackbits(masks, axis=1, count=m, bitorder="little")
    # vertex v has out-degree n - 1 - v when every pair's i wins, and each
    # pair that j wins moves one from i to j: one float32 product, which
    # runs in BLAS and is exact for these small ints
    eye = np.eye(n, dtype=np.float32)
    moves = (j_wins.astype(np.float32) @ (eye[pairs[:, 1]] - eye[pairs[:, 0]])).astype(np.int8)
    degrees = moves + np.arange(n - 1, -1, -1, dtype=np.int8)
    deg_i, deg_j = degrees[:, pairs[:, 0]], degrees[:, pairs[:, 1]]
    rising = np.where(j_wins, deg_j < deg_i, deg_i < deg_j).sum(axis=1)
    bound = copeland_bound(n)
    max_fraction = Fraction(int(rising.max()), m or 1)  # no arcs, none backward: 0
    # copeland_bound(n) < 3/4 for every n, so this also checks the limit:
    # (3l-2)/(4l-2) < 3/4 iff -8 < -6, (3l+1)/(4l+2) < 3/4 iff 4 < 6, and 0 for n < 2
    return BoundCheckReport(n, 1 << m, bound, max_fraction, max_fraction <= bound)
