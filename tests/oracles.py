"""Brute-force oracles that the library's fast paths are checked against."""

import math
import operator
import random
import re
from bisect import bisect_left
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, islice, permutations
from operator import le
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from fairrank import build_tournament, fixpoint
from fairrank.errors import (
    DuplicateOrConflictError,
    EmptyClassError,
    LoopArcError,
    MissingPairError,
    NoConvergenceError,
    NotStronglyConnectedError,
    ResourceLimitError,
    TournamentSyntaxError,
    UnknownVertexError,
)
from fairrank.fixpoint import PerronResult
from fairrank.optimize import (
    INJECTIVE_SEARCH_CAP,
    BoundCheckReport,
    MinBackwardResult,
    copeland_bound,
    min_backward_copeland_closed_form,
)
from fairrank.ranking import (
    DEFAULT_EPS,
    BackwardReport,
    FairnessClass,
    FairnessVerdict,
    Rank,
    Ranking,
)
from fairrank.tournament import (CHUNK_ENTRIES, Tournament, _from_matrix, _require_size,
                                 _score_components)

# -- adjacency, decoded bit by bit ---------------------------------------


def out_set(t: Tournament, x: int) -> frozenset:
    """The out-neighborhood of x, read from its bitset one bit at a time."""
    bits = t.out[x - 1]
    return frozenset(y for y in t.vertices() if bits >> (y - 1) & 1)


def gen_random_listcomp(n: int, seed: int) -> Tournament:
    """`gen_random` as it was first written: each row's coins drawn into a
    list, one `rng.random()` call per element, then into an array."""
    rng = random.Random(seed)
    a = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        wins = np.array([rng.random() for _ in range(n - 1 - i)]) < 0.5
        a[i, i + 1 :] = wins
        a[i + 1 :, i] = ~wins
    return _from_matrix(a)


def enumerate_all(n: int) -> Iterator[Tournament]:
    """Yield all 2^C(n,2) labelled tournaments on n vertices exactly once:
    tournament number `mask` orients the k-th pair (i, j), i < j, of
    `combinations`, j -> i iff bit k of `mask` is set."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        out = [0] * n
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                out[j] |= 1 << i
            else:
                out[i] |= 1 << j
        yield Tournament(out)


def composite_vertex(m: int, i: int, l: int) -> int:
    """The label of the layered vertex (m, i) of `gen_composite(l)`: layer m
    holds the labels (m - 1)(2l + 1) + 1 .. m(2l + 1)."""
    return (m - 1) * (2 * l + 1) + i


def arcs(t: Tournament) -> List[Tuple[int, int]]:
    """All arcs in lexicographic order of (x, y)."""
    return [(x, y) for x in t.vertices() for y in sorted(out_set(t, x))]


def relabeled(t: Tournament, perm: Sequence[int]) -> Tournament:
    """t with vertex v renamed perm[v - 1]."""
    out = [0] * t.n
    for x, row in enumerate(t.out, start=1):
        for y in t.vertices():
            if row >> (y - 1) & 1:
                out[perm[x - 1] - 1] |= 1 << (perm[y - 1] - 1)
    return Tournament(out)


def serialize_tournament_format(t: Tournament) -> str:
    """`serialize_tournament` as it was first written: one `format` per row,
    reversed so that column y - 1 is vertex y, then one join."""
    rows = [format(bits, f"0{t.n}b")[::-1] for bits in t.out]
    return "\n".join([str(t.n)] + rows) + "\n"


def _decimal(word: str) -> int:
    """int(word) for an ASCII decimal alone, whitespace around it allowed:
    `int` would also read '_' digit groups and non-ASCII digits."""
    word = word.strip()
    if not (word.isascii() and re.fullmatch(r"[+-]?[0-9]+", word)):
        raise ValueError(word)
    return int(word)


def parse_tournament_lines(text: str) -> Tournament:
    """`parse_tournament` as its line path read every text before one
    reader served all matrix cells: the stripped, non-blank lines, then
    the header, then the matrix rows checked in blocks of their own by
    `_tournament_from_rows`.  Integers are read by `_decimal`."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise TournamentSyntaxError("empty input")
    head = lines[0]
    if head.startswith("n="):
        try:
            n = _decimal(head[2:])
        except ValueError:
            raise TournamentSyntaxError(f"bad header {head!r}") from None
        return build_tournament(n, _edge_list(islice(lines, 1, None)))
    try:
        n = _decimal(head)
    except ValueError:
        raise TournamentSyntaxError(f"bad vertex count {head!r}") from None
    if len(lines) != n + 1:
        raise TournamentSyntaxError(f"expected {n} matrix rows, found {len(lines) - 1}")
    return _tournament_from_rows(n, lines[1:])


def _edge_list(lines: Iterable[str]) -> Iterator[Tuple[int, int]]:
    for ln in lines:
        try:
            u, v = map(_decimal, ln.split())  # two integers, or ValueError
        except ValueError:
            raise TournamentSyntaxError(f"bad edge line {ln!r}") from None
        yield u, v


def _tournament_from_rows(n: int, rows: Sequence[str]) -> Tournament:
    """The line path: check n stripped matrix rows in blocks of
    CHUNK_ENTRIES // n rows and build the tournament by `matrix_tournament`.

    The first bad row in file order raises `TournamentSyntaxError`, whether
    its length is wrong or it holds a character other than '0' or '1'.
    Each block is one string, encoded to one byte per character (a non-ASCII
    one becomes '?'), so every character check is one array comparison.
    `a` holds only the rows before the first one of the wrong length, each
    n characters of the text, so it is never larger than the text; it is
    n x n once every row has passed, and the size check follows the syntax
    checks.  O(n^2) time plus a step per line to split and strip, and the
    list of lines and the n x n bool matrix beside the text.
    """
    wrong = next((i for i, row in enumerate(rows) if len(row) != n), len(rows))
    a = np.empty((wrong, n), dtype=bool)
    per = max(1, CHUNK_ENTRIES // max(n, 1))  # n = 0 has no rows and fails the size check
    for lo in range(0, wrong, per):
        hi = min(lo + per, wrong)
        block = "".join(rows[lo:hi]).encode("ascii", "replace")
        cells = np.frombuffer(block, dtype=np.uint8).reshape(hi - lo, n) - ord("0")
        bad = (cells > 1).any(axis=1)  # below '0' wraps around to above 1
        if bad.any():
            wrong = lo + int(np.argmax(bad))
            break
        a[lo:hi] = cells.view(bool)
    if wrong < len(rows):
        raise TournamentSyntaxError(f"bad matrix row {rows[wrong]!r}")
    return matrix_tournament(a)


def matrix_cells(text: str) -> np.ndarray:
    """The n x n bool matrix of a text in the canonical layout (the header
    n, then n rows of '0'/'1' cells, each ending in '\\n'), read one cell
    at a time: True where the cell is '1'."""
    head, *rows = text.split("\n")[:-1]
    n = int(head)
    return np.array([[c == "1" for c in row] for row in rows], dtype=bool).reshape(n, n)


def matrix_tournament(a: np.ndarray) -> Tournament:
    """Validate an n x n bool matrix and build the tournament, after the
    vertex-count check: the library's validator before it read the matrix
    from the file's bytes in place, with the out-sets set bit by bit.

    The first error in row-major order is the one that `build_tournament`
    finds when fed the '1' cells in that order: a '1' on the diagonal is a
    loop, a '1' below the diagonal whose mirror is '1' orients its pair
    twice, and only then does the first pair x < y with two '0's count as
    missing.  With no loop and no pair oriented twice, the pairs are all
    covered iff the matrix holds C(n, 2) '1's.  Every check works on a
    block of rows against the mirrored block of columns.
    """
    n = len(a)
    _require_size(n)
    per = max(1, CHUNK_ENTRIES // n)
    for lo in range(0, n, per):
        hi = min(lo + per, n)
        twice = a[lo:hi, :hi] & a[:hi, lo:hi].T  # at (x, x) itself, the loop
        if twice.any():  # the mirror of a hit above the diagonal is in the block
            i, j = divmod(int(np.argmax(np.tril(twice, lo))), hi)
            x, y = lo + i + 1, j + 1
            if x == y:
                raise LoopArcError(f"loop arc ({x},{x})")
            raise DuplicateOrConflictError(f"pair {{{x},{y}}} oriented twice")
    if np.count_nonzero(a) != n * (n - 1) // 2:
        for lo in range(0, n, per):
            hi = min(lo + per, n)
            missing = np.triu(~(a[lo:hi, lo:] | a[lo:, lo:hi].T), 1)
            if missing.any():
                i, j = divmod(int(np.argmax(missing)), n - lo)
                raise MissingPairError(f"pair {{{lo + i + 1},{lo + j + 1}}} has no arc")
    return Tournament([sum(1 << int(y) for y in np.flatnonzero(row)) for row in a])


def backward_pairs(report: BackwardReport) -> Tuple[Tuple[int, int], ...]:
    """The backward arcs (x, y) of a report in lexicographic order, read from
    its row bitsets one bit at a time."""
    n = len(report.rows)
    return tuple((x, y) for x, row in enumerate(report.rows, start=1)
                 for y in range(1, n + 1) if row >> (y - 1) & 1)


# -- raw-value comparators ------------------------------------------------
# The documented rule, applied to rank values directly rather than through
# the library's per-vertex keys: exact ranks compare with <, float ranks
# with a < b iff b - a > eps, where eps = DEFAULT_EPS, and a == b iff
# neither is below the other.  For finite floats that is |a - b| <= eps;
# two equal infinities differ by nan, which no comparison counts as
# greater, so they tie.


class Comparators(NamedTuple):
    lt: Callable[[Rank, Rank], bool]
    leq: Callable[[Rank, Rank], bool]
    eq: Callable[[Rank, Rank], bool]


def comparators(r: Ranking) -> Comparators:
    """lt, leq and eq on r's values, with r's exactness read once: the
    caller binds them once per check, not once per compared pair."""
    if r.is_exact:
        lt = operator.lt
    else:
        def lt(a: Rank, b: Rank) -> bool:
            return b - a > DEFAULT_EPS

    def leq(a: Rank, b: Rank) -> bool:
        return not lt(b, a)

    def eq(a: Rank, b: Rank) -> bool:
        return leq(a, b) and leq(b, a)

    return Comparators(lt, leq, eq)


def linear_sums(t: Tournament, r: Ranking) -> Dict[int, Rank]:
    """Sum of ranks over each vertex's out-neighborhood, in ascending vertex order.

    Exact ranks sum as Fractions, or, when every denominator is 1, as the
    ints of their numerators in any order: equal sums without a Fraction
    add.  Float ranks sum exactly too, each read as the Fraction of its
    value as a float and added in a plain loop; a sum that meets an
    infinite rank raises KeyError, as `Fraction` has no infinity.
    """
    r.require_domain(t)
    exact = r.is_exact
    if exact and all(v.denominator == 1 for v in r.values.values()):
        return {x: sum(int(r[z].numerator) for z in out_set(t, x)) for x in t.vertices()}
    value = {z: Fraction(r[z] if exact else float(r[z])) for z in t.vertices()
             if r[z] != math.inf}
    sums = {}
    for x in t.vertices():
        s = Fraction(0)
        for z in sorted(out_set(t, x)):
            s += value[z]
        sums[x] = s
    return sums


def induced(t: Tournament, vertex_subset: Iterable[int]) -> Tuple[Tournament, Tuple[int, ...]]:
    """Induced subtournament on the given vertices.

    Returns the subtournament (relabeled 1..k in increasing original label
    order) together with the tuple mapping new labels to old ones.
    """
    old = tuple(sorted(set(vertex_subset)))
    keep = set(old)
    index = {v: i + 1 for i, v in enumerate(old)}
    out = [sum(1 << (index[w] - 1) for w in out_set(t, v) if w in keep) for v in old]
    return Tournament(out), old


# -- rank-sum recalculation -----------------------------------------------


def recalc_apply(t: Tournament, r: Mapping[int, Rank]) -> Dict[int, Rank]:
    """One step of the rank-sum recalculation: r(x) <- sum over x's out-set, normalized.

    Works on floats and on exact Fractions alike.
    """
    sums = {x: sum(r[z] for z in sorted(out_set(t, x))) for x in t.vertices()}
    lam = sum(sums.values())
    return {x: sums[x] / lam for x in t.vertices()}


def metric_distance(r1: Mapping[int, float], r2: Mapping[int, float]) -> float:
    """Max-norm distance between two rankings on the same vertex set."""
    return max(abs(r1[v] - r2[v]) for v in r1)


# -- Perron solve, one row and one product at a time ----------------------


def perron_fixed_point_dense(t: Tournament, vertices: Iterable[int]) -> PerronResult:
    """`fixpoint.perron_fixed_point` with the matrix filled one row at a time
    and each power step one `a @ r` over the whole matrix; same checks,
    constants and result type."""
    labels = tuple(sorted(set(vertices)))
    for v in labels:
        if not 1 <= v <= t.n:
            raise UnknownVertexError(f"vertex {v} not in 1..{t.n}")
    k = len(labels)
    nbytes = (t.n + 7) // 8
    columns = np.array(labels, dtype=np.intp) - 1
    a = np.empty((k, k))
    for i, x in enumerate(labels):
        row = np.frombuffer(t.out[x - 1].to_bytes(nbytes, "little"), dtype=np.uint8)
        a[i] = np.unpackbits(row, bitorder="little")[columns]
    if k < 3 or len(_score_components(np.count_nonzero(a, axis=1).tolist())) != 1:
        raise NotStronglyConnectedError(
            f"component of size {k} is not a strongly connected tournament with n >= 3"
        )
    r = np.full(k, 1.0 / k)
    for it in range(1, fixpoint.MAX_ITERATIONS + 1):
        ar = a @ r
        lam = float(ar.sum())
        residual = float(np.max(np.abs(lam * r - ar)))
        if residual <= fixpoint.TOLERANCE:
            ranking = {labels[i]: float(r[i]) for i in range(k)}
            return PerronResult(ranking, lam, residual, it - 1)
        nr = ar + fixpoint.SHIFT * r
        r = nr / nr.sum()
    raise NoConvergenceError(fixpoint.MAX_ITERATIONS)


# -- spectral preorder ----------------------------------------------------


def sorted_dominance(sx: Sequence[Rank], sy: Sequence[Rank], leq) -> bool:
    """Dominance shortcut: |sx| <= |sy| and the k-th largest of sx is <= that of sy."""
    if len(sx) > len(sy):
        return False
    ax = sorted(sx, reverse=True)
    ay = sorted(sy, reverse=True)
    return all(leq(a, b) for a, b in zip(ax, ay))


def _spectra(t: Tournament, r: Ranking, x: int, y: int):
    r.require_domain(t)
    return [r[z] for z in out_set(t, x)], [r[z] for z in out_set(t, y)]


def spectral_verdict_lists(t: Tournament, r: Ranking) -> FairnessVerdict:
    """The spectral verdict by a walk over sorted lists of rank positions:
    the candidates of the library's degree rule, each decided by comparing
    two lists entry by entry, in ascending x and then y.

    index(a) is 1 plus the number of ranks below a and low(a) is 1 plus
    the number of ranks b with a - b > eps, the ranks that a is above.  An
    exact ranking's values are brought to one denominator and compared as
    ints, so index and low agree; a float ranking's are compared as floats,
    plainly for index.  Then b is not below a iff index(b) >= low(a), and y
    ranks above x iff index(x) < low(y).  Each spectrum is a list sorted
    descending, of indexes for the side that must be larger (tops) and of
    lows for the other (lows); the candidates of x are the y != x of at
    least x's degree with low(y) <= index(x).  A candidate has at least x's
    degree, so the comparison, which stops at the end of x's list, reads
    every entry of x; the swapped test, for the strict axiom, needs
    deg(y) <= deg(x) first.  The lists are built once per call, so the walk
    costs a few list builds at n = 6, where numpy's set-up costs more than
    the whole check.
    """
    r.require_domain(t)
    n = t.n
    values = [r[v] for v in t.vertices()]
    exact = r.is_exact
    if exact:
        scale = math.lcm(*[int(v.denominator) for v in values])
        values = [int(v.numerator) * (scale // int(v.denominator)) for v in values]
    else:
        values = list(map(float, values))
    ordered = sorted(values)
    index = [1 + bisect_left(ordered, a) for a in values]
    low = index
    if not exact:  # the b with a - b > eps are a prefix of the ascending ranks
        low = [1 + bisect_left(ordered, True, key=lambda b, a=a: not a - b > DEFAULT_EPS)
               for a in values]
    members = [[z for z in range(n) if o >> z & 1] for o in t.out]
    tops = [sorted([index[z] for z in m], reverse=True) for m in members]
    lows = tops if low is index else [sorted([low[z] for z in m], reverse=True) for m in members]
    for x in range(n):
        for y in range(n):
            if y == x or len(tops[y]) < len(lows[x]) or low[y] > index[x]:
                continue
            if not all(map(le, lows[x], tops[y])):
                continue
            if index[y] < low[x]:
                return FairnessVerdict((x + 1, y + 1), "non-strict spectral violated")
            if len(lows[y]) > len(tops[x]) or not all(map(le, lows[y], tops[x])):
                return FairnessVerdict((x + 1, y + 1), "strict spectral violated")
    return FairnessVerdict()


def spectral_leq(t: Tournament, r: Ranking, x: int, y: int) -> bool:
    """x <= y in the spectral preorder of r (via the dominance shortcut)."""
    return sorted_dominance(*_spectra(t, r, x, y), comparators(r).leq)


def spectral_strict_less(t: Tournament, r: Ranking, x: int, y: int) -> bool:
    return spectral_leq(t, r, x, y) and not spectral_leq(t, r, y, x)


def injection_exists(sx: Sequence[Rank], sy: Sequence[Rank], leq) -> bool:
    """Brute-force search for a rank-non-decreasing injection from sx into sy."""
    if len(sx) > len(sy):
        return False
    for image in permutations(sy, len(sx)):
        if all(leq(a, b) for a, b in zip(sx, image)):
            return True
    return False


def spectral_leq_bruteforce(t: Tournament, r: Ranking, x: int, y: int) -> bool:
    return injection_exists(*_spectra(t, r, x, y), comparators(r).leq)


def min_backward_injective_bnb(t: Tournament) -> int:
    """Least backward count over all injective rankings, by branch and bound.

    Orders are built lowest rank first; placing v adds one backward arc per
    out-neighbor still unplaced.
    """
    verts = list(t.vertices())
    outs = {v: out_set(t, v) for v in verts}
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
            search(rest, cost + len(outs[v] & rest))

    search(frozenset(verts), 0)
    return best


def min_backward_injective_permutations(t: Tournament) -> MinBackwardResult:
    """Exact minimum over all injective rankings, by trying every level
    vector (a permutation of 1..n, read by vertex) in lexicographic order:
    the first one of least backward count is the witness with the least
    (count, levels read by vertex)."""
    pairs = [(x - 1, y - 1) for x, y in arcs(t)]
    best: Optional[Tuple[int, Tuple[int, ...]]] = None
    for levels in permutations(range(1, t.n + 1)):
        count = sum(levels[x] < levels[y] for x, y in pairs)
        if best is None or count < best[0]:
            best = (count, levels)
    count, levels = best
    witness = Ranking.exact(dict(zip(t.vertices(), levels)))
    fraction = Fraction(count, t.num_arcs) if t.num_arcs else Fraction(0)
    return MinBackwardResult(count, fraction, witness, "permutations")


def least_injective_order_loop(t: Tournament) -> Ranking:
    """The injective ranking with the least (backward count, levels read by
    vertex), by a DP over placed sets (Held and Karp, 1962).

    Vertices are placed one at a time, lowest level first; with vertices
    as bits, s is the set placed so far, and placing y on s makes the arcs
    from s into y backward.  best[s] packs the least (count, levels of the
    unplaced vertices read by vertex, from 1) into one int, the count above
    `width`-bit level fields with vertex 1's highest, so comparing ints
    compares the pairs.  With y placed next, y takes level 1 and every
    later level goes up by one, which adds the same `unit` to every
    candidate of s: the least candidate of s | y stays least, and best[s]
    is the least arcs(s, y) + best[s | y], plus unit.
    """
    if t.n > INJECTIVE_SEARCH_CAP:
        raise ResourceLimitError(f"permutation search capped at n <= {INJECTIVE_SEARCH_CAP}")
    n, full = t.n, (1 << t.n) - 1
    width = n.bit_length()  # levels run up to n
    shift = width * n
    # per vertex: its bit, the x with x -> y, and 1 in its level field
    rows = [(1 << y - 1, full ^ out ^ 1 << y - 1, 1 << width * (n - y))
            for y, out in enumerate(t.out, start=1)]
    best = [0] * (full + 1)
    top = (t.num_arcs + 1) << shift  # above every candidate
    for s in range(full - 1, -1, -1):
        least, unit = top, 0
        for b, into, field in rows:
            if not s & b:
                unit += field
                k = ((into & s).bit_count() << shift) + best[s | b]
                if k < least:
                    least = k
        best[s] = least + unit
    levels, mask = best[0], (1 << width) - 1
    return Ranking.exact({y: levels >> width * (n - y) & mask for y in t.vertices()})


# -- weak orders as ordered set partitions ---------------------------------


def iter_weak_orders(items: Sequence[int]) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """All ordered set partitions of items, blocks listed bottom level first.

    Deterministic order: the first block runs through the nonempty subsets
    of the remaining items in increasing bitmask order.
    """
    items = tuple(sorted(items))

    def rec(rest: Tuple[int, ...]) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if not rest:
            yield ()
            return
        k = len(rest)
        for mask in range(1, 1 << k):
            block = tuple(rest[i] for i in range(k) if mask >> i & 1)
            remaining = tuple(rest[i] for i in range(k) if not mask >> i & 1)
            for tail in rec(remaining):
                yield (block,) + tail

    return rec(items)


def weak_order_levels(n: int) -> Iterator[Tuple[int, ...]]:
    """Every weak order on the vertices 1..n once, as its level vector, by
    recursion: the parity oracle of `optimize._level_array`.

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


def min_backward_spectral_loop(t: Tournament) -> Optional[MinBackwardResult]:
    """The SPEC minimum over the level vectors of `weak_order_levels`, or
    None when the class is empty: every order sorted by (backward count, levels
    read by vertex), each count taken arc by arc, and decided in that
    order by the list walk `spectral_verdict_lists` until the first fair
    one, whose count and levels are the result."""
    pairs = arcs(t)
    keyed = sorted((sum(levels[x - 1] < levels[y - 1] for x, y in pairs), levels)
                   for levels in weak_order_levels(t.n))
    for count, levels in keyed:
        r = Ranking.exact(dict(zip(t.vertices(), levels)))
        if spectral_verdict_lists(t, r):
            return MinBackwardResult(count, Fraction(count, t.num_arcs or 1), r, "weakOrders")
    return None


def weak_order_ranking(blocks: Sequence[Sequence[int]]) -> Ranking:
    """Assign level value k to the k-th block (1-based); exact and positive."""
    values = {}
    for level, block in enumerate(blocks, start=1):
        for v in block:
            values[v] = Fraction(level)
    return Ranking.exact(values)


@cache
def weak_order_rankings(n: int) -> Tuple[Ranking, ...]:
    """The `weak_order_ranking` of every ordered set partition of 1..n, in
    `iter_weak_orders` order, built on the first call for each n and kept."""
    return tuple(map(weak_order_ranking, iter_weak_orders(range(1, n + 1))))


def min_backward_fair_blocks(t: Tournament, c: FairnessClass) -> MinBackwardResult:
    """Minimum over a fairness class by ordered set partitions, one Fraction
    ranking per partition; ties go to the least rank tuple in vertex order.

    Counts are `backward_arcs_pairs`.  SPEC is decided by the list walk
    `spectral_verdict_lists` and every other class by the pair scan
    `is_fair_pairs`, LIN included, whose out-sums of these integer levels
    are int sums (`linear_sums`): the loop reads none of the library's
    predicates."""
    fair = spectral_verdict_lists if c is FairnessClass.SPEC else partial(is_fair_pairs, c=c)
    best: Optional[Tuple[int, Tuple[Fraction, ...], Ranking]] = None
    for r in weak_order_rankings(t.n):
        if not fair(t, r):
            continue
        count = len(backward_arcs_pairs(t, r))
        key = (count, tuple(r[v] for v in t.vertices()))
        if best is None or key < (best[0], best[1]):
            best = (key[0], key[1], r)
    if best is None:
        raise EmptyClassError(f"no ranking with levels 1..k satisfies {c.value}")
    count, _, witness = best
    fraction = Fraction(count, t.num_arcs) if t.num_arcs else Fraction(0)
    return MinBackwardResult(count, fraction, witness, "weakOrders")


def verify_copeland_upper_bound_loop(n: int) -> BoundCheckReport:
    """`verify_copeland_upper_bound` by one closed-form minimum per labelled
    tournament of `enumerate_all`, each a ranking built and counted."""
    bound = copeland_bound(n)
    fractions = [min_backward_copeland_closed_form(t).fraction for t in enumerate_all(n)]
    max_fraction = max(fractions)
    return BoundCheckReport(n, len(fractions), bound, max_fraction, max_fraction <= bound)


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
        work = [(root, iter(sorted(out_set(t, root))))]
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
                    work.append((w, iter(sorted(out_set(t, w)))))
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
    lt = comparators(r).lt
    return tuple((x, y) for (x, y) in arcs(t) if lt(r[x], r[y]))


def _ordered_pairs(n: int):
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x != y:
                yield x, y


def is_fair_pairs(t: Tournament, r: Ranking, c: FairnessClass) -> FairnessVerdict:
    """Fairness check by a scan of all ordered pairs in lexicographic order."""
    r.require_domain(t)
    lt, leq, eq = comparators(r)

    if c is FairnessClass.INJ:
        for x, y in _ordered_pairs(t.n):
            if x < y and eq(r[x], r[y]):
                return FairnessVerdict((x, y), "equal ranks")
        return FairnessVerdict()

    if c in (FairnessClass.NSCOP, FairnessClass.SCOP, FairnessClass.COP):
        deg = {x: t.out_degree(x) for x in t.vertices()}
        for x, y in _ordered_pairs(t.n):
            if c in (FairnessClass.NSCOP, FairnessClass.COP):
                if deg[x] <= deg[y] and not leq(r[x], r[y]):
                    return FairnessVerdict((x, y), "non-strict Copeland violated")
            if c in (FairnessClass.SCOP, FairnessClass.COP):
                if deg[x] < deg[y] and not lt(r[x], r[y]):
                    return FairnessVerdict((x, y), "strict Copeland violated")
        return FairnessVerdict()

    if c is FairnessClass.WEAK:
        outs = {x: out_set(t, x) for x in t.vertices()}
        for x, y in _ordered_pairs(t.n):
            if outs[x] <= outs[y] and not lt(r[x], r[y]):
                return FairnessVerdict((x, y), "weak fairness violated")
        return FairnessVerdict()

    if c is FairnessClass.SPEC:
        spectra = {x: [r[z] for z in out_set(t, x)] for x in t.vertices()}
        below = {}
        for x, y in _ordered_pairs(t.n):
            below[(x, y)] = sorted_dominance(spectra[x], spectra[y], leq)
        for x, y in _ordered_pairs(t.n):
            if below[(x, y)] and not leq(r[x], r[y]):
                return FairnessVerdict((x, y), "non-strict spectral violated")
            if below[(x, y)] and not below[(y, x)] and not lt(r[x], r[y]):
                return FairnessVerdict((x, y), "strict spectral violated")
        return FairnessVerdict()

    if c is FairnessClass.LIN:
        for x in t.vertices():
            if r[x] <= 0:
                return FairnessVerdict((x, x), "non-positive rank")
        sums, sum_lt = linear_sums(t, r), lt
        if not r.is_exact:
            # b - a > eps for the Fraction sums, exactly, with both sides
            # times their common denominator: int differences against one
            # Fraction compare faster than Fraction differences against a float
            d = math.lcm(*(s.denominator for s in sums.values()))
            sums = {x: s.numerator * (d // s.denominator) for x, s in sums.items()}
            eps = Fraction(DEFAULT_EPS) * d

            def sum_lt(a: int, b: int) -> bool:
                return b - a > eps
        # the rank test first: it spares most pairs an exact sum comparison
        for x, y in _ordered_pairs(t.n):
            if not leq(r[x], r[y]) and not sum_lt(sums[y], sums[x]):
                return FairnessVerdict((x, y), "non-strict linear violated")
            if not lt(r[x], r[y]) and sum_lt(sums[x], sums[y]):
                return FairnessVerdict((x, y), "strict linear violated")
        return FairnessVerdict()

    raise ValueError(f"unhandled fairness class {c}")
