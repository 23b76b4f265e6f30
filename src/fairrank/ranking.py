"""Rankings, backward-arc metrics, and fairness predicates.

A ranking maps each vertex to a number.  Exact rankings hold Fractions and
compare exactly; float rankings compare with the absolute tolerance
eps = DEFAULT_EPS (a < b iff b - a > eps, a == b iff neither is below the
other).
DEFAULT_EPS is the package's one comparison tolerance: no ranking, parser
or predicate takes another.  An exact ranking may also hold ints (the
weak-order minimizer checks its candidates that way, `copeland_ranking`
holds out-degrees, and `parse_ranking` keeps integer values as ints): an
int has numerator and denominator like a Fraction, so it gets the same
key, the same verdicts and the same text as the equal Fraction.

Every predicate and the backward-arc report compare through one rule on
per-vertex keys: x ranks below y iff key[y] - key[x] > e.  The keys come
from one lookup per vertex, which also decides the domain: n lookups that
hit, in a ranking of n labels, mean that the labels are 1..n.  The keys,
and the "ranks above" and "ranks below" masks that every pairwise verdict
reads, are built per call: a check keeps nothing on its arguments, with no
exception.  `_above` is the one builder of those masks, and `_below` is
`_above` of the negated keys.  Each mask is an int as wide as its highest
label, so one list of masks of n vertices holds about n^2 / 8 bytes, as
many as the out-sets, and a check holds up to four such lists.
A float ranking keys on its values with e = eps.
An exact ranking keys on its values times the LCM of their denominators,
Python ints in the same ratios, with e = 0; a ranking is exact iff every
value has a denominator, the one rule that both `_keys` and
`Ranking.is_exact` read.
Comparisons stay exact, and the linear axiom's out-sums, the one place
where values matter beyond their order, are integer sums instead of
Fraction sums.  An integer sum does not depend on the order of its terms,
so all n of them are one product A @ V (`_exact_sums`) of the 0/1
out-set matrix A with the keys split into 32-bit limbs, one column each
(`_int_sums`), recombined as Python ints: each limb sum is below
n * 2**32 < 2**53, which float64 holds exactly, and the product costs
O(n^2 ceil(w / 32)) for keys of w bits.  The spectral axiom's rank sums
are the same product.  Every key, exact or float, is p / q exactly, q = 1
for an int and a power of two for a float, so times the largest q every
rank is an int, and an out-sum is the exact sum of its ranks, compared
with the others within the floor of eps times that scale, which is 0
when the scale is 1, as it is for exact keys.

The Copeland axioms and the linear axiom share one shape: key(x) <= key(y)
implies rank(x) <= rank(y), and key(x) < key(y) implies rank(x) < rank(y),
with the out-degree (Copeland) or the out-neighborhood rank sum (linear)
as the key.  x breaks the first against the y that rank below it and
whose key is not below its own, and the second against the y whose key is
above its own and that do not rank above it: each is a set difference of
the `_below` or `_above` masks of the keys and of the ranks
(`_monotone_verdict`), O(n log n) comparisons and O(n^2 / 64) word
operations instead of a scan of all n(n - 1) ordered pairs.  The least x
with a violator, and the lowest set bit of its violators, is the lex-least
violating pair, as a full scan finds it.  The injective axiom's ties of x
are the vertices in neither x's `_above` nor its `_below` mask, for exact
and float keys alike, and the least tied x with its lowest tie is the
certificate.
Backward arcs AND each vertex's out-set with its `_above` mask.  The weak
axiom needs y -> x, hence deg(y) > deg(x), and y not ranked above x, so
`_above` of the out-degrees gives each x the y with higher degree, and
x's candidates are those minus x's out-set and its rank mask; when the
degree order and the rank order agree, as on the Copeland ranking, none
is left.  Out-set inclusion is set algebra too: each z of x's out-set,
lowest first, keeps the candidates that beat z, and the survivors are the
y whose out-set holds x's.  That is at most deg(x) ANDs of O(n / 64)
words per x, O(n^3 / 64) in the worst case, and the filter stops when no
candidate is left: on a random tournament each z drops about half of
them, so that takes about log2 of their count steps.  The first x with a
survivor, and its lowest one, is the lex-least violating pair.  The
spectral axiom prunes the same way: x's spectrum lies below y's only if
deg(x) <= deg(y), and only if x's rank sum over its out-set is at most
y's, so its candidates are the y of at least x's degree and rank sum
that do not rank above x, read off each rank's position among the
others, one plus the popcount of its `_below` mask.
The candidates are decided in numpy chunks of sorted spectra at every n
(`_spectral_verdict`), whose work and memory per chunk
`tournament.CHUNK_ENTRIES` bounds, as it bounds the row blocks of every
out-sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainMismatchError, TournamentSyntaxError
from .tournament import CHUNK_ENTRIES, Tournament, _plain, unpack_rows

Rank = Union[int, float, Fraction]

DEFAULT_EPS = 1e-9


class FairnessClass(Enum):
    NSCOP = "nscop"
    SCOP = "scop"
    COP = "cop"
    WEAK = "weak"
    SPEC = "spec"
    LIN = "lin"
    INJ = "inj"

    @classmethod
    def from_string(cls, s: str) -> "FairnessClass":
        try:
            return cls(s.lower())
        except ValueError:
            raise ValueError(f"unknown fairness class {s!r}") from None


# built once: each FairnessClass.X lookup costs about as much as a small check
_COPELAND_CLASSES = (FairnessClass.NSCOP, FairnessClass.SCOP, FairnessClass.COP)
_WEAK = FairnessClass.WEAK


def _fraction(r: Rank) -> Fraction:
    try:
        return Fraction(r)
    except TypeError:  # Fraction takes ints, Rationals, floats, Decimals and strings
        return Fraction(float(r))


@dataclass(frozen=True, slots=True)
class Ranking:
    """Vertex -> rank mapping, exact (Fractions or ints) or float.

    A ranking is exact iff every value has a denominator, as ints and
    Fractions do, by the rule that `_keys` reads; any other ranking, one
    with a float, a numpy float or a Decimal, is a float ranking and
    compares every value as a float, with DEFAULT_EPS.  Two rankings are
    equal iff their values are and both are exact or both float, since the
    same values can pass an axiom exactly and fail it within eps.  A nan
    value (a float, numpy or Decimal nan) has no place in a rank order:
    every check of the ranking raises ValueError.

    `values` is a read-only view of a copy of the mapping given, so no
    later change reaches a ranking.  A ranking keeps nothing else: its
    comparison keys (`_keys`) and masks (`_above` and `_below` of the keys)
    are built per call.
    """

    values: Mapping[int, Rank]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    def __reduce__(self):  # a view does not pickle; copies rebuild it
        return Ranking, (dict(self.values),)

    @property
    def is_exact(self) -> bool:
        return all(hasattr(v, "denominator") for v in self.values.values())

    @classmethod
    def exact(cls, values: Mapping[int, Rank]) -> "Ranking":
        """The ranking of the values as Fractions.  A value that `Fraction`
        refuses, such as a numpy float32, is read as the exact binary value
        of float(value)."""
        return cls({v: _fraction(r) for v, r in values.items()})

    @classmethod
    def approx(cls, values: Mapping[int, Rank]) -> "Ranking":
        return cls({v: float(r) for v, r in values.items()})

    def __getitem__(self, v: int) -> Rank:
        return self.values[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return self.is_exact == other.is_exact and self.values == other.values

    def __hash__(self) -> int:  # equal values hash alike, whatever their order or type
        return hash((self.is_exact, frozenset(self.values.items())))

    def require_domain(self, t: Tournament) -> None:
        if self.values.keys() != set(t.vertices()):
            labels = list(self.values)
            try:
                labels.sort()
            except TypeError:  # labels of types that do not compare, such as 1 and '3'
                labels.sort(key=repr)
            raise DomainMismatchError(f"ranking domain {labels} does not match 1..{t.n}")


@dataclass(frozen=True)
class BackwardReport:
    """Backward arcs of a ranking: rows[x - 1] is the bitset of the y for
    which x -> y is backward."""

    rows: Tuple[int, ...]

    @property
    def total(self) -> int:  # the number of arcs, C(n, 2)
        return len(self.rows) * (len(self.rows) - 1) // 2

    @property
    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.count, self.total or 1)  # no arcs, none backward: 0


@dataclass(frozen=True)
class FairnessVerdict:
    """Outcome of a fairness check: a failure carries the least violating
    pair, so the check passed iff there is no certificate."""

    certificate: Optional[Tuple[int, int]] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.certificate is None

    ok = property(__bool__)


def _keys(t: Tournament, r: Ranking) -> Tuple[Tuple[Rank, ...], Rank]:
    """Comparison keys indexed by vertex and the tolerance e, built per
    call and kept nowhere.

    x ranks below y iff key[y] - key[x] > e.  An exact ranking, one whose
    values all have a denominator, keys on its values times the LCM of
    their denominators, Python ints in the same ratios (an int has
    denominator 1, and a numpy int becomes a Python int, which does not
    wrap), with e = 0.  Any other ranking keys on its values as floats,
    with e = DEFAULT_EPS; one value without a denominator makes every key
    a float, and an exact value beyond float range then raises ValueError.
    A nan value raises ValueError, as no sorted order can place it;
    infinities are kept.  Index 0 holds the zero of the key type, 0 or 0.0.
    Every read of a ranking's values comes through here: n lookups that
    all hit, in a mapping of n labels, mean that the labels are exactly
    1..n; otherwise `Ranking.require_domain` raises.
    """
    try:
        values = list(map(r.values.__getitem__, t.vertices()))
    except KeyError:
        values = None
    if values is None or len(r.values) != t.n:
        r.require_domain(t)  # raises: some vertex is unranked or some label is not a vertex
    e = 0
    try:
        denominators = [int(v.denominator) for v in values]
    except AttributeError:
        try:
            key, e = (0.0, *map(float, values)), DEFAULT_EPS
        except OverflowError:
            raise ValueError("ranking mixes floats with an exact value beyond float range") from None
        # nan compares false both ways, which no sorted order can place
        if any(map(math.isnan, key)):
            raise ValueError("ranking holds nan, which has no place in a rank order")
    else:
        scale = math.lcm(*denominators)
        key = (0, *[int(v.numerator) * (scale // d) for v, d in zip(values, denominators)])
    return key, e


def _above(key: Sequence[Rank], e: Rank) -> List[int]:
    """above[x] is the bitset of the y with key[y] - key[x] > e; both lists
    are indexed by vertex from 1.

    Those y form a suffix of the ascending key order that grows as key[x]
    falls: the rounded difference fl(a - b) never decreases as a grows or
    as b shrinks, so the comparison is monotone in either operand, with
    e > 0 as with e = 0; two equal infinities, whose difference is nan, tie.
    So one walk down the order keeps the mask.  The walk stops at x itself
    at the latest, as key[x] - key[x] > e is false.

    This is the one builder of "ranks above" bitsets, and `_below` reads it
    of the negated keys: every pairwise verdict of `is_fair` but the
    spectral comparison itself is set algebra on the two.  One sort and one
    walk: O(n log n) comparisons, and n mask updates of O(n / 64) words
    each, O(n^2 / 64) in all.
    """
    order = sorted(range(1, len(key)), key=key.__getitem__)
    above = [0] * len(key)
    mask = 0
    j = len(order) - 1
    for x in reversed(order):
        while key[order[j]] - key[x] > e:
            mask |= 1 << (order[j] - 1)
            j -= 1
        above[x] = mask
    return above


def _below(key: Sequence[Rank], e: Rank) -> List[int]:
    """below[x] is the bitset of the y with key[x] - key[y] > e: `_above` of
    the negated keys, since negation is exact and fl(-b - (-a)) = fl(a - b)."""
    return _above([-k for k in key], e)


def backward_arcs(t: Tournament, r: Ranking) -> BackwardReport:
    """Partition arcs by rank comparison and report the backward ones: the
    arc x -> y is backward when key[y] - key[x] > e."""
    above = _above(*_keys(t, r))
    return BackwardReport(tuple([o & a for o, a in zip(t.out, above[1:])]))


def copeland_ranking(t: Tournament) -> Ranking:
    """The out-degree ranking; Copeland fair (and weakly fair) on every tournament.

    Its values are ints, exact ranks that `_keys` reads as they are.
    """
    return Ranking(dict(enumerate(map(int.bit_count, t.out), start=1)))


# -- fairness predicates ---------------------------------------------------


def _monotone_verdict(
    key: Sequence[Rank],
    key_e: Rank,
    rank: Sequence[Rank],
    e: Rank,
    nonstrict: Optional[str],
    strict: Optional[str],
) -> FairnessVerdict:
    """Decide key(x) <= key(y) => rank(x) <= rank(y) and, separately,
    key(x) < key(y) => rank(x) < rank(y) over all ordered pairs x != y.

    Each implication is checked when its reason string is given.  The
    lists are indexed by vertex from 1; a < b means b - a > key_e for keys
    and b - a > e for ranks.  x breaks the first against the y that rank
    below it and whose key is not below its own, and the second against the
    y whose key is above its own and that do not rank above it: set
    differences of `_below` and `_above` masks.  The least x with such a y,
    and the lowest bit of the union, is the lex-least violating pair; the
    reason is the non-strict one when that y breaks the first.
    """
    none = [0] * len(key)
    ranked_below, key_below = (_below(rank, e), _below(key, key_e)) if nonstrict else (none, none)
    key_above, ranked_above = (_above(key, key_e), _above(rank, e)) if strict else (none, none)
    for x, (rb, kb, ka, ra) in enumerate(zip(ranked_below, key_below, key_above, ranked_above)):
        weak = rb & ~kb
        if violators := weak | ka & ~ra:
            y = violators & -violators
            return FairnessVerdict((x, y.bit_length()), nonstrict if weak & y else strict)
    return FairnessVerdict()


def is_fair(t: Tournament, r: Ranking, c: FairnessClass) -> FairnessVerdict:
    """Check a fairness axiom; on failure return the lex-least violating pair.

    Raises ValueError when a float ranking holds nan or an exact value
    beyond float range, or, for the linear axiom, an infinite rank in some
    out-set.  The linear axiom's out-sums are exact for every ranking: int
    sums in 32-bit limbs (`_int_sums`) of each key's exact value p / q
    times the largest q.
    """
    if c is _WEAK:
        # x+ ⊆ y+ forces y -> x, since x -> y would put y in y+, and then
        # y+ holds x+ and x, so deg(y) > deg(x): only the y that beat x,
        # outscore x and do not rank above x can break the axiom.  The masks
        # are `_above` of r's keys, whose domain, nan and float-range checks
        # raise first; those of the out-degrees, ints that differ by 0 or by
        # at least 1, take e = 0.  Each z of x+, lowest first, keeps the
        # candidates that beat z, outside out[z - 1] (none is z, as each
        # beats x and z does not): the survivors are the y with x+ ⊆ y+, at
        # most deg(x) ANDs of O(n / 64) words, and about half the candidates
        # go at each z of a random tournament.  The first x with survivors
        # and its lowest one is the lex-least violating pair
        above, out = _above(*_keys(t, r)), t.out
        outscore = _above([0, *map(int.bit_count, out)], 0)
        for x, ox in enumerate(out, start=1):
            candidates = outscore[x] & ~ox & ~above[x]
            while candidates and ox:
                z = ox & -ox
                ox ^= z
                candidates &= ~out[z.bit_length() - 1]
            if candidates:
                y = (candidates & -candidates).bit_length()
                return FairnessVerdict((x, y), "weak fairness violated")
        return FairnessVerdict()

    key, e = _keys(t, r)

    if c is FairnessClass.SPEC:
        return _spectral_verdict(t, key, e)

    if c is FairnessClass.LIN:
        for x in t.vertices():
            if key[x] <= 0:
                return FairnessVerdict((x, x), "non-positive rank")
        # an infinite rank has no exact sum; one in no out-set is never summed
        if any(k == math.inf and o.bit_count() < t.n - 1 for k, o in zip(key[1:], t.out)):
            raise ValueError("an infinite rank lies in an out-set")
        # each key is p / q exactly, q = 1 for an int and a power of two for
        # a float: times the largest q every rank is an int, and an int gap
        # of the sums exceeds eps * scale iff it exceeds its floor, 0 when
        # the scale is 1
        ratios = [k.as_integer_ratio() if k < math.inf else (0, 1) for k in key[1:]]
        scale = max(q for _, q in ratios)
        sums = _int_sums(t.out, [p * (scale // q) for p, q in ratios])
        p, q = DEFAULT_EPS.as_integer_ratio()
        return _monotone_verdict(
            [0, *sums], p * scale // q, key, e,
            "non-strict linear violated", "strict linear violated",
        )

    if c in _COPELAND_CLASSES:
        # out-degrees differ by 0 or by at least 1: their masks with e = 0
        # serve every e < 1
        return _monotone_verdict(
            [0, *map(int.bit_count, t.out)], 0, key, e,
            None if c is FairnessClass.SCOP else "non-strict Copeland violated",
            None if c is FairnessClass.NSCOP else "strict Copeland violated",
        )

    if c is FairnessClass.INJ:
        # x's ties are the other y neither above nor below it; a tie holds
        # both ways, so the least tied x is tied to larger labels only
        above, below, full = _above(key, e), _below(key, e), (1 << t.n) - 1
        for x in t.vertices():
            if tied := full ^ (above[x] | below[x] | 1 << (x - 1)):
                return FairnessVerdict((x, (tied & -tied).bit_length()), "equal ranks")
        return FairnessVerdict()

    raise ValueError(f"unhandled fairness class {c}")


def _exact_sums(out: Sequence[int], columns: np.ndarray) -> np.ndarray:
    """A @ V as float64: row i - 1 sums the rows j - 1 of V, an (n, m)
    array of non-negative ints below 2**32, over the j in out(i).

    One float64 `np.matmul` per block of CHUNK_ENTRIES // n out-set
    rows (`unpack_rows`), O(n^2 m) in all.  The result is exact: every
    term is a 0/1 entry times an int below 2**32, and every partial sum of
    a row is below n * 2**32 <= 10**4 * 2**32 < 2**53 at the vertex cap,
    so float64 holds each sum exactly in any order of addition, and
    neither BLAS's blocking nor its thread count can change it.
    """
    n = len(out)
    values = np.asarray(columns, dtype=np.float64)
    per = max(1, CHUNK_ENTRIES // n)
    sums = np.empty((n, values.shape[1]))
    for i0 in range(0, n, per):
        rows = unpack_rows(out, range(i0, min(i0 + per, n)))
        np.matmul(rows, values, out=sums[i0:i0 + len(rows)])
    return sums


def _int_sums(out: Sequence[int], values: Sequence[int]) -> List[int]:
    """The out-sums of non-negative int keys of any width, one per out-set.

    Each key splits into 32-bit limbs, lowest first (`int.to_bytes` read
    as little-endian uint32), one column per limb; one `_exact_sums`
    product sums every column, and each out-sum is its limb sums
    recombined as Python ints, top limb first: O(n^2 ceil(w / 32)) for
    keys of w bits.
    """
    nbytes = 4 * -(-max(values).bit_length() // 32) or 4  # all zero: one limb
    data = b"".join([v.to_bytes(nbytes, "little") for v in values])
    limbs = _exact_sums(out, np.frombuffer(data, "<u4").reshape(len(values), -1))
    limbs = limbs.astype(np.int64).T.tolist()
    sums = limbs.pop()
    for limb in reversed(limbs):
        sums = [(s << 32) + k for s, k in zip(sums, limb)]
    return sums


def _spectra(out: Sequence[int], rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The spectra of the vertices in `rows` (0-based), one int16 row of n
    each: ranks[y] for every y of the out-set, 0 elsewhere, sorted ascending.

    Two such rows hold the k-th largest entries of their spectra at the
    same position n - 1 - k, so comparing them entry by entry compares the
    spectra from the top, largest entry with largest entry.
    The ranks are indexes and lows, at most n <= DEFAULT_VERTEX_CAP < 2**15,
    so int16 holds them.
    """
    spectra = unpack_rows(out, rows.tolist()) * ranks
    spectra.sort(axis=1)
    return spectra


def _spectral_verdict(t: Tournament, key: Sequence[Rank], e: Rank) -> FairnessVerdict:
    """The spectral axiom, decided in numpy chunks of sorted spectra.

    x's spectrum lies below y's iff deg(x) <= deg(y) and, for each k, the
    k-th largest rank of x's out-set is not above the k-th largest of y's.
    A violation at (x, y) needs that and y not ranked above x, so the
    candidates for x are the y of at least x's degree that do not rank
    above x, tested in ascending x and then y: the certificate is the
    lex-least violating pair.

    Ranks enter the test as small ints, popcounts of the keys' `_below`
    masks.  index(b) is 1 plus the number of keys below b: 1 plus the
    popcount of b's mask with e = 0, since fl(a - b) > 0 iff a > b for
    finite floats, and two equal infinities, whose difference is nan, tie.
    The keys b with a - b > e are the lowest ones, since fl(a - b) never
    decreases as b falls (`_above`), and low(a) is 1 plus their number, 1
    plus the popcount of a's mask with e, so `not a - b > e` holds iff
    index(b) >= low(a).  For exact keys (e = 0) the two masks are one, and
    low is index.  The same rule places the ranks: y ranks above x iff
    index(x) < low(y).
    x's spectrum of lows lies below y's spectrum of indexes iff, sorted
    descending, each entry of x's is at most the entry of y's at its place;
    every entry is at least 1, so then x's sum of lows is at most y's sum
    of indexes.  That test is necessary only, and it prunes candidates
    without deciding any: the sorted comparison still decides each pair
    that it leaves, so the certificate does not change.

    The candidates of x are the y != x with deg(y) >= deg(x),
    low(y) <= index(x) and top_sum(y) >= low_sum(x), the out-sums of
    indexes and of lows, which one `_exact_sums` product gives, the two
    lists as its one or two columns.  x is taken in label-ordered
    blocks of `per` rows.  One broadcast over a block marks its candidate
    pairs, and `np.nonzero` lists them in lex order, `per` to a chunk, n
    entries each, at most CHUNK_ENTRIES in all.  In a chunk, x's
    spectrum lies below y's iff y's row of indexes is at least x's row of
    lows at every position; such a pair violates the axiom when x ranks
    above y (index(y) < low(x)) or, failing that, when y's spectrum does
    not lie below x's (the same test with the sides swapped).  The first
    violation of the first chunk that holds one is the lex-least.

    One cache of sorted rows, the indexes (tops) and lows of each vertex,
    serves both sides of every pair: a chunk sorts the spectra of the x and
    y it meets first, keeps them for later chunks, up to min(2 * per, n)
    rows, and drops them all at once when a chunk's new vertices do not
    fit.  A chunk meets at most `per` x and `per` y, and at most n
    vertices, so they always fit after a drop.  Up to
    n = sqrt(2 * CHUNK_ENTRIES) = 512 every spectrum is sorted once
    per side per check, and a check that fails in its first chunk sorts
    only that chunk's rows.  No array outgrows 2 * CHUNK_ENTRIES
    entries of n, bar the pair lists of a block, which a dense block of
    candidates fills with 16 bytes an entry: a check peaks under 40 bytes
    an entry (tests/test_memory.py).

    The sum prune keeps the cache from thrashing above n = 512: the
    passing check of the linear-fair ranking of random n = 2000 sorts 2644
    rows with it and 30 610 (15.3n) without it.  A check that fails in its
    first chunk still pays for the O(n^2) sums of all n vertices.
    """
    n, out = t.n, t.out
    low = [b.bit_count() + 1 for b in _below(key, e)[1:]]
    index = [b.bit_count() + 1 for b in _below(key, 0)[1:]] if e else low
    same = low == index  # no two distinct keys within e: one list serves both sides
    tops_rank = np.array(index, dtype=np.int16)
    lows_rank = tops_rank if same else np.array(low, dtype=np.int16)
    deg = np.fromiter(map(int.bit_count, out), dtype=np.int16, count=n)
    per = max(1, CHUNK_ENTRIES // n)
    sums = _exact_sums(out, np.stack([tops_rank] if same else [tops_rank, lows_rank], axis=1))
    top_sum, low_sum = sums[:, 0], sums[:, -1]
    size = min(2 * per, n)
    tops = np.empty((size, n), dtype=np.int16)  # kept spectra: indexes
    lows = tops if same else np.empty((size, n), dtype=np.int16)  # and lows
    slot = np.full(n, -1)  # a vertex's row of tops and lows, or -1
    held = 0
    for x0 in range(0, n, per):
        block = np.arange(x0, min(x0 + per, n))
        candidates = (lows_rank <= tops_rank[block, None]) & (deg >= deg[block, None])
        candidates &= top_sum >= low_sum[block, None]
        candidates[block - x0, block] = False
        px, py = np.nonzero(candidates)
        px += x0
        for c in range(0, len(px), per):
            cx, cy = px[c:c + per], py[c:c + per]
            met = np.zeros(n, dtype=bool)
            met[cx] = met[cy] = True
            new = np.flatnonzero(met & (slot < 0))
            if held + len(new) > size:
                slot[:] = -1
                held, new = 0, np.flatnonzero(met)
            if len(new):
                slot[new] = np.arange(held, held + len(new))
                tops[held:held + len(new)] = _spectra(out, new, tops_rank)
                if not same:
                    lows[held:held + len(new)] = _spectra(out, new, lows_rank)
                held += len(new)
            sx, sy = slot[cx], slot[cy]
            below = np.flatnonzero((tops[sy] >= lows[sx]).all(1))
            if not len(below):
                continue
            cx, cy, sx, sy = cx[below], cy[below], sx[below], sy[below]
            above = tops_rank[cy] < lows_rank[cx]
            bad = np.flatnonzero(above | ~(tops[sx] >= lows[sy]).all(1))
            if len(bad):
                k = bad[0]
                reason = "non-strict spectral violated" if above[k] else "strict spectral violated"
                return FairnessVerdict((int(cx[k]) + 1, int(cy[k]) + 1), reason)
    return FairnessVerdict()


# -- ranking text I/O ------------------------------------------------------


def serialize_ranking(r: Ranking) -> str:
    """One "vertex value" pair per line: str() writes a Fraction as p or
    p/q and a float as its repr."""
    return "".join(f"{v} {r[v]}\n" for v in sorted(r.values))


def parse_ranking(text: str) -> Ranking:
    """Parse "vertex value" lines; p/q and integers give an exact ranking.

    Labels and values are ASCII: a '_' digit group or a non-ASCII digit is
    a bad vertex or a bad value.  Integers stay ints and p/q values become
    Fractions.  Floats must be finite: nan and inf have no place in a rank
    order.  A ranking with any float is a float ranking, so its exact values
    must be within float range.
    """
    values: Dict[int, Rank] = {}
    plain = text.isascii() and "_" not in text  # one scan clears every word of a plain text
    for ln in map(str.strip, text.splitlines()):
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise TournamentSyntaxError(f"bad ranking line {ln!r}")
        try:
            v = int(parts[0] if plain else _plain(parts[0]))
        except ValueError:
            raise TournamentSyntaxError(f"bad vertex in line {ln!r}") from None
        raw = parts[1]
        if v in values:
            raise TournamentSyntaxError(f"vertex {v} ranked twice")
        try:
            if (raw if plain else _plain(raw)).lstrip("+-").isdigit():
                value = int(raw)
            else:
                value = Fraction(raw) if "/" in raw else float(raw)
        except (ValueError, ZeroDivisionError):
            raise TournamentSyntaxError(f"bad value {raw!r}") from None
        # an exact value is finite, and math.isfinite raises OverflowError on one above 1e308
        if isinstance(value, float) and not math.isfinite(value):
            raise TournamentSyntaxError(f"non-finite value {raw!r}")
        values[v] = value
    if not values:
        raise TournamentSyntaxError("empty ranking")
    ranking = Ranking(values)
    if ranking.is_exact:
        return ranking
    try:  # a float anywhere makes the ranking float, the exact values included
        return Ranking.approx(values)
    except OverflowError:
        raise TournamentSyntaxError("ranking mixes floats with an exact value beyond float range") from None
