"""Rankings, backward-arc metrics, and fairness predicates.

A ranking maps each vertex to a number.  Exact rankings hold Fractions and
compare exactly; float rankings compare with the absolute tolerance
eps = DEFAULT_EPS (a < b iff b - a > eps, a == b iff |a - b| <= eps).
DEFAULT_EPS is the package's one comparison tolerance: no ranking, parser
or predicate takes another.  An exact ranking may also hold ints (the
weak-order minimizer checks its candidates that way, `copeland_ranking`
holds out-degrees, and `parse_ranking` keeps integer values as ints): an
int has numerator and denominator like a Fraction, so it gets the same
key, the same verdicts and the same text as the equal Fraction.

Every predicate and the backward-arc report compare through one rule on
per-vertex keys: x ranks below y iff key[y] - key[x] > e.  The keys come
from one lookup per vertex, which also decides the domain: n lookups that
hit, in a ranking of n labels, mean that the labels are 1..n.  A ranking's
values are read-only, so the first check on it keeps its keys on it, and
later checks on any tournament of the same size read them back; the
weak-order minimizer, which checks the same rankings on every tournament
and for every class, builds each ranking's keys once.  A float
ranking keys on its values with e = eps.  An exact ranking keys on its
values times the LCM of their denominators, Python ints in the same
ratios, with e = 0; a ranking is exact iff every value has a denominator,
the one rule that both `_keys` and `Ranking.is_exact` read.
Comparisons stay exact, and the linear axiom's out-sums, the one place
where values matter beyond their order, are integer sums instead of
Fraction sums.  An integer sum does not depend on the order of its terms,
so when the keys are narrow against n (LIN_PLANE_RATIO) it is read off bit
planes (`_plane_sums`): one AND and one popcount per plane, weighted by
the plane's place value.  Float addition rounds at every step, so float
out-sums are added over the out-set in ascending vertex order from 0.0,
as the pair-scan reference in `tests/oracles.py` adds them, and the two
agree on float verdicts to the last bit: the keys are read through the
out-set's byte mask (`compress` over `bit_mask`), which yields the same
values in the same order to the same builtin `sum`.

The Copeland axioms and the linear axiom share one shape: key(x) <= key(y)
implies rank(x) <= rank(y), and key(x) < key(y) implies rank(x) < rank(y),
with the out-degree (Copeland) or the out-neighborhood rank sum (linear)
as the key.  One walk up the keys in sorted order (`_Walk`) decides them
in O(n log n) once the keys are known, instead of a scan of all n(n - 1)
ordered pairs: the y whose key is not below x's form a suffix of the
sorted order, so do the y whose key is above x's, and x breaks an
implication against some y of its suffix iff it breaks it against the
least rank there.  This holds under eps as well, because the rounded
difference fl(a - b) never decreases as a grows or as b shrinks, so each
comparison above is monotone in either operand.  Only the least violating
x has its row scanned, to name the least y, so the certificate is the
lex-least violating pair, as a full scan finds it.
Backward arcs take the same sort and one mask per vertex, the y ranked
above x.  The weak axiom needs y -> x, hence deg(y) > deg(x), and y not
ranked above x, so the same walk over the out-degrees gives each x the
mask of the y with higher degree, and out-set inclusion is tested only on
the pairs that it and the complement of the rank mask leave, in ascending
x and then y; when the degree order and the rank order agree, as on the
Copeland ranking, no pair is left.  The spectral axiom prunes the same way:
x's spectrum lies below y's only if deg(x) <= deg(y), so its candidates are
the y of at least x's degree that do not rank above x (`_spectral_verdict`).
Up to SPEC_PACKED_MAX vertices each candidate is decided by one subtraction
of packed spectra, since the weak-order minimizer checks thousands of
rankings at n = 6 and pays each call's set-up; above it the candidates are
decided in numpy chunks of sorted spectra (`_spectral_chunks`), whose work
and memory per chunk SPEC_CHUNK_ENTRIES bounds.  The injective axiom
passes exact keys that are all distinct, which one dict of each key's last
label decides, and that dict names the lex-least pair of equal keys
otherwise.  Float keys take the walk: the keys within e of x's are one
run of the sorted order, by the same monotonicity, so the least x whose
run holds another vertex, with the least other vertex of that run, is
the certificate.

What the Copeland, weak and spectral axioms read of the out-degrees, their
walk and the masks of the vertices from each position of it on, does not
depend on the ranking.  It is built once per tournament (`_scores`), by
the first of them to run, and kept on that tournament, so a minimizer that
checks thousands of rankings of one tournament builds it once.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, count, repeat
from operator import add, xor
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainMismatchError, TournamentSyntaxError
from .tournament import Tournament, bit_mask

Rank = Union[int, float, Fraction]

DEFAULT_EPS = 1e-9
# The linear axiom sums exact (int) keys by bit planes when n exceeds
# LIN_PLANE_RATIO times w, the bit length of the largest key, and otherwise
# through each out-set's byte mask.  Planes cost about w ANDs, popcounts
# and adds per vertex, against one n-byte mask and a sum of about n/2 keys.
# Timed on random tournaments with random w-bit keys (w = 3 to 100, n = 6
# to 1000; 2-vCPU Xeon VM, Python 3.11), the two paths broke even at n = 7w
# to 8.5w for every w; at n = 6 and w = 3, as in the weak-order sweep, the
# planes took 1.6 times as long, and at n = 1000 and w = 10, as for the
# Copeland ranking, the masks took 8.7 times as long.
LIN_PLANE_RATIO = 8
# The spectral axiom is decided by the packed walk up to SPEC_PACKED_MAX
# vertices and in numpy chunks above it.  The walk spends one big-int
# subtraction per candidate pair, numpy a fixed 0.05 ms or more per check
# on a few dozen array calls.  Timed on random tournaments with the
# Copeland, the linear-fair and random 1..4 rankings (8 seeds per n, best
# of 5, two runs; 2-vCPU Xeon VM, Python 3.11, numpy 2.4), a check that
# passes, and so tests every candidate, took 0.88-0.91 times numpy's time
# on the walk at n = 20, 1.12-1.15 times at n = 24 and 4-5 times at
# n = 200.  At n = 6, where the weak-order sweep checks up to 4683
# rankings, the walk took a third of numpy's time or less (15-26 us
# against 63-96 us).
# A check that fails at an early pair stays cheaper on the walk up to a
# few hundred vertices (0.53-0.70 ms against 0.87-0.91 ms at n = 200); on
# the Copeland ranking of random n = 2000 it took 54 ms against 5 ms.
SPEC_PACKED_MAX = 20
# Entries per numpy chunk of the spectral axiom, each entry a vertex of a
# row of n: a chunk tests SPEC_CHUNK_ENTRIES // n candidate pairs and keeps
# as many sorted rows, 256 KB of int16 per array, and a check peaks under
# 40 bytes an entry (tests/test_memory.py).  Up to n = 362 every row fits,
# so the composite family (n = 81 to 289 at l = 4 to 8) sorts each row once.
SPEC_CHUNK_ENTRIES = 2**17


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
    same values can pass an axiom exactly and fail it within eps.

    `values` is a read-only view of a copy of the mapping given, so no
    later change reaches a ranking, nor the comparison keys that the first
    check on it builds and keeps (`_keys`).
    """

    values: Mapping[int, Rank]
    # the keys and tolerance of `_keys`, built by the first check and kept
    _key: Optional[Tuple[Rank, ...]] = field(default=None, init=False, repr=False, compare=False)
    _eps: Rank = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    def __reduce__(self):  # a view does not pickle; copies rebuild it, and their keys
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
    """Comparison keys indexed by vertex and the tolerance e, kept on r.

    x ranks below y iff key[y] - key[x] > e.  An exact ranking, one whose
    values all have a denominator, keys on its values times the LCM of
    their denominators, Python ints in the same ratios (an int has
    denominator 1, and a numpy int becomes a Python int, which does not
    wrap), with e = 0.  Any other ranking keys on its values as floats,
    with e = DEFAULT_EPS; one value without a denominator makes every key
    a float, and an exact value beyond float range then raises ValueError.
    Index 0 holds the zero of the key type, 0 or 0.0.  Every read of a
    ranking's values comes through here: n lookups that all hit, in a
    mapping of n labels, mean that the labels are exactly 1..n; otherwise
    `Ranking.require_domain` raises.

    The keys depend on the values alone, which are read-only, and they
    were built for a domain of 1..n: a later tournament on n vertices gets
    them back without a lookup, and any other n reads the values again,
    with the same checks, and keeps the keys it builds.
    """
    key = r._key
    if key is not None and len(key) - 1 == t.n:
        return key, r._eps
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
    else:
        scale = math.lcm(*denominators)
        key = (0, *[int(v.numerator) * (scale // d) for v, d in zip(values, denominators)])
    object.__setattr__(r, "_key", key)
    object.__setattr__(r, "_eps", e)
    return key, e


def _above(key: Sequence[Rank], e: Rank) -> List[int]:
    """above[x] is the bitset of the y with key[y] - key[x] > e; both lists
    are indexed by vertex from 1.

    Those y form a suffix of the ascending key order that grows as key[x]
    falls (see the module docstring), so one walk down the order keeps the
    mask.  The walk stops at x itself at the latest, as key[x] - key[x] > e
    is false.
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


def backward_arcs(t: Tournament, r: Ranking) -> BackwardReport:
    """Partition arcs by rank comparison and report the backward ones: the
    arc x -> y is backward when key[y] - key[x] > e."""
    key, e = _keys(t, r)
    above = _above(key, e)
    return BackwardReport(tuple([o & a for o, a in zip(t.out, above[1:])]))


def copeland_ranking(t: Tournament) -> Ranking:
    """The out-degree ranking; Copeland fair (and weakly fair) on every tournament.

    Its values are ints, exact ranks that `_keys` reads as they are.
    """
    return Ranking(dict(enumerate(map(int.bit_count, t.out), start=1)))


# -- fairness predicates ---------------------------------------------------


class _Walk:
    """One walk up the keys in ascending order, ties by label (`order`).

    geq[x] and gt[x] are the positions of that order where the keys not
    below key[x], and the keys above it, begin (gt[x] = n when no key is
    above); `key`, geq and gt are indexed by vertex from 1, and a < b means
    b - a > e.  The y not below x form a suffix of the order, and so do the
    y above x, since fl(a - b) never decreases as a grows or as b shrinks;
    both start points only move right as x does, so one walk finds them
    all, and order[geq[x]:gt[x]] holds the vertices within e of x.
    suffix[p], the bitset of the vertices from position p of the order on,
    is built on first use; its n + 1 bitsets hold about as much as the
    out-sets do.
    """

    def __init__(self, key: Sequence[Rank], e: Rank):
        n = len(key) - 1
        order = sorted(range(1, n + 1), key=key.__getitem__)
        geq, gt = [0] * (n + 1), [0] * (n + 1)
        i = j = 0
        for x in order:
            kx = key[x]
            while kx - key[order[i]] > e:
                i += 1
            while j < n and not key[order[j]] - kx > e:
                j += 1
            geq[x], gt[x] = i, j
        self.key, self.order, self.geq, self.gt = key, order, geq, gt

    @cached_property
    def suffix(self) -> List[int]:
        order = self.order
        suffix = [0] * (len(order) + 1)
        for p in range(len(order) - 1, -1, -1):
            suffix[p] = suffix[p + 1] | 1 << (order[p] - 1)
        return suffix


def _scores(t: Tournament) -> _Walk:
    """The `_Walk` of t's out-degrees, built on the first call for t and
    kept on t.  Out-degrees are ints, which differ by 0 or by at least 1,
    so the walk with e = 0 serves every e < 1."""
    scores = t._scores
    if scores is None:
        scores = _Walk([0, *map(int.bit_count, t.out)], 0)
        object.__setattr__(t, "_scores", scores)
    return scores


def _monotone_verdict(
    walk: _Walk,
    rank: Sequence[Rank],
    e: Rank,
    nonstrict: Optional[str],
    strict: Optional[str],
) -> FairnessVerdict:
    """Decide key(x) <= key(y) => rank(x) <= rank(y) and, separately,
    key(x) < key(y) => rank(x) < rank(y) over all ordered pairs x != y,
    where key is `walk.key`.

    Each implication is checked when its reason string is given.  The
    lists are indexed by vertex from 1; a < b means b - a > e, for keys and
    ranks alike, and the walk is taken with the same e.  The y with key not
    below x's are order[geq[x]:], and those with key above x's order[gt[x]:].
    x breaks an implication against some y of its suffix iff it breaks it
    against the suffix's least rank low[geq[x]] or low[gt[x]], since
    fl(a - b) is monotone in each argument.  The least such x is found by
    testing the vertices in ascending label order; only its row is
    scanned, to name the least y.
    """
    key, order, geq, gt = walk.key, walk.order, walk.geq, walk.gt
    n = len(order)
    low = [rank[v] for v in order]
    for j in range(n - 2, -1, -1):
        if low[j + 1] < low[j]:
            low[j] = low[j + 1]
    for x in range(1, n + 1):
        rx = rank[x]
        if (nonstrict and rx - low[geq[x]] > e) or (
            strict and gt[x] < n and not low[gt[x]] - rx > e
        ):
            break
    else:
        return FairnessVerdict()
    for y in range(1, n + 1):
        if y == x:
            continue
        if nonstrict and not key[x] - key[y] > e and rank[x] - rank[y] > e:
            return FairnessVerdict((x, y), nonstrict)
        if strict and key[y] - key[x] > e and not rank[y] - rank[x] > e:
            return FairnessVerdict((x, y), strict)
    raise AssertionError(f"vertex {x} flagged without a violating pair")


def is_fair(t: Tournament, r: Ranking, c: FairnessClass) -> FairnessVerdict:
    """Check a fairness axiom; on failure return the lex-least violating pair.

    Raises ValueError when a float ranking holds an exact value beyond
    float range, or when a float out-sum of the linear axiom overflows.
    """
    n = t.n
    key, e = _keys(t, r)

    if c is FairnessClass.SPEC:
        return _spectral_verdict(t, key, e)

    if c is FairnessClass.LIN:
        for x in t.vertices():
            if key[x] <= 0:
                return FairnessVerdict((x, x), "non-positive rank")
        zero, values = key[0], key[1:]  # zero: 0 or 0.0, the start of every out-sum
        # w >= 1 for positive keys, so n <= LIN_PLANE_RATIO needs no key read
        if e or n <= LIN_PLANE_RATIO or n <= LIN_PLANE_RATIO * max(values).bit_length():
            sums = [zero] + [sum(compress(values, bit_mask(o)), zero) for o in t.out]
        else:
            sums = [0, *_plane_sums(t.out, values)]
        # inf - inf is nan, which no comparison counts as greater: an
        # overflowed out-sum would hide violations, so refuse to decide
        if e and not math.isfinite(max(sums)):
            raise ValueError("a float out-sum overflows; scale the ranking down")
        return _monotone_verdict(
            _Walk(sums, e), key, e, "non-strict linear violated", "strict linear violated"
        )

    if c in _COPELAND_CLASSES:
        return _monotone_verdict(
            _scores(t), key, e,
            None if c is FairnessClass.SCOP else "non-strict Copeland violated",
            None if c is FairnessClass.NSCOP else "strict Copeland violated",
        )

    if c is FairnessClass.INJ:
        values = key[1:]
        if not e:
            last = dict(zip(values, count(1)))  # each key's largest label
            if len(last) == n:  # distinct exact keys: nothing to certify
                return FairnessVerdict()
            # the least label whose key recurs later starts the lex-least
            # pair, and the next label with that key ends it
            for x, k in enumerate(values, start=1):
                if last[k] != x:
                    return FairnessVerdict((x, values.index(k, x) + 1), "equal ranks")
        # order[geq[x]:gt[x]] holds the vertices within e of x, x among them;
        # each is tied, so for the least tied x they are x and larger labels
        walk = _Walk(key, e)
        for x in range(1, n + 1):
            if walk.gt[x] - walk.geq[x] > 1:
                tied = sorted(walk.order[walk.geq[x] : walk.gt[x]])
                return FairnessVerdict((x, tied[1]), "equal ranks")
        return FairnessVerdict()

    if c is FairnessClass.WEAK:
        # x+ ⊆ y+ forces y -> x, since x -> y would put y in y+, and then
        # y+ holds x+ and x, so deg(y) > deg(x): only the y that beat x,
        # outscore x and do not rank above x can break the axiom
        scores = _scores(t)
        gt = scores.gt
        suffix = scores.suffix  # suffix[gt[x]]: the y that outscore x
        above = _above(key, e)
        for x, ox in enumerate(t.out, start=1):
            candidates = suffix[gt[x]] & ~above[x] & ~ox
            while candidates:
                b = candidates & -candidates
                candidates ^= b
                if ox & ~t.out[b.bit_length() - 1] == 0:
                    return FairnessVerdict((x, b.bit_length()), "weak fairness violated")
        return FairnessVerdict()

    raise ValueError(f"unhandled fairness class {c}")


def _plane_sums(out: Sequence[int], values: Sequence[int]) -> List[int]:
    """The out-sums of positive int keys, one per out-set, by bit planes.

    With w the bit length of the largest key, digit i of each key's w-digit
    binary string is its bit w - 1 - i, and the strings of vertices n down
    to 1 joined make each plane, the bitset of the vertices whose key has
    that bit, one stride of digits.  An out-set o sums to the planes'
    popcount(o & plane) times their place values, which Horner's rule adds
    from the top plane down: one AND, one popcount and one add per vertex
    and plane, in C-level maps over the out-sets.
    """
    w = max(values).bit_length()
    digits = "".join(map(format, reversed(values), repeat(f"0{w}b")))
    sums = [0] * len(out)
    for i in range(w):
        plane = int(digits[i::w], 2)
        sums = list(map(add, map(add, sums, sums), map(int.bit_count, map(plane.__and__, out))))
    return sums


def _pack(values: List[int], bits: int) -> int:
    """The values of the vertices in a bitset, sorted descending, one 16-bit
    field each, the largest in the lowest field."""
    entries = sorted(compress(values, bit_mask(bits)), reverse=True)
    return int.from_bytes(array("H", entries), sys.byteorder)


def _spectra(out: Sequence[int], rows: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The spectra of the vertices in `rows` (0-based), one int16 row of n
    each: ranks[y] for every y of the out-set, 0 elsewhere, sorted ascending.

    The out-sets are unpacked from their bitsets as `fixpoint` unpacks the
    Perron matrix.  Two such rows hold the k-th largest entries of their
    spectra at the same position n - 1 - k, so comparing them entry by
    entry compares the spectra from the top, as the packed fields do.
    """
    n = len(out)
    nbytes = (n + 7) // 8
    data = b"".join([out[v].to_bytes(nbytes, "little") for v in rows.tolist()])
    bits = np.frombuffer(data, np.uint8).reshape(-1, nbytes)
    spectra = np.unpackbits(bits, axis=1, count=n, bitorder="little") * ranks
    spectra.sort(axis=1)
    return spectra


def _spectral_chunks(out: Sequence[int], index: List[int], low: List[int]) -> FairnessVerdict:
    """`_spectral_verdict` above SPEC_PACKED_MAX vertices: the same
    candidates, tests and certificate, decided in numpy chunks of `per`
    rows or pairs, n entries each, at most SPEC_CHUNK_ENTRIES in all.

    x is taken in label-ordered blocks of `per` rows.  One broadcast over
    a block marks its candidate pairs, the y of at least x's degree with
    low(y) <= index(x), and `np.nonzero` lists them in lex order, `per` to
    a chunk.  In a chunk, x's spectrum lies below y's iff y's row of
    indexes is at least x's row of lows at every position; such a pair
    violates the axiom when x ranks above y (index(y) < low(x)) or, failing
    that, when y's spectrum does not lie below x's (the same test with the
    sides swapped).  The first violation of the first chunk that holds one
    is the lex-least.

    A chunk sorts the lows of its own x, a range of labels, and the
    spectra of the y it meets first; those are kept for later chunks, up to
    `per` rows, and dropped all at once when a chunk's new y do not fit.  Up
    to n = sqrt(SPEC_CHUNK_ENTRIES) every y is sorted once per check, and a
    check that fails in its first chunk sorts only that chunk's rows.  No
    array outgrows SPEC_CHUNK_ENTRIES entries of n, bar the pair lists of
    a block, which a dense block of candidates fills with 16 bytes an entry.
    """
    n = len(out)
    same = low is index
    tops_rank = np.array(index, dtype=np.int16)
    lows_rank = tops_rank if same else np.array(low, dtype=np.int16)
    deg = np.fromiter(map(int.bit_count, out), dtype=np.int16, count=n)
    per = max(1, SPEC_CHUNK_ENTRIES // n)
    tops = np.empty((per, n), dtype=np.int16)  # kept spectra of y: indexes
    lows = tops if same else np.empty((per, n), dtype=np.int16)  # and lows
    slot = np.full(n, -1)  # y's row of tops and lows, or -1
    held = 0
    for x0 in range(0, n, per):
        block = np.arange(x0, min(x0 + per, n))
        candidates = (lows_rank <= tops_rank[block, None]) & (deg >= deg[block, None])
        candidates[block - x0, block] = False
        px, py = np.nonzero(candidates)
        px += x0
        for c in range(0, len(px), per):
            cx, cy = px[c:c + per], py[c:c + per]
            met = np.zeros(n, dtype=bool)
            met[cy] = True
            new = np.flatnonzero(met & (slot < 0))
            if held + len(new) > per:
                slot[:] = -1
                held, new = 0, np.flatnonzero(met)
            if len(new):
                slot[new] = np.arange(held, held + len(new))
                tops[held:held + len(new)] = _spectra(out, new, tops_rank)
                if not same:
                    lows[held:held + len(new)] = _spectra(out, new, lows_rank)
                held += len(new)
            first = cx[0]
            xs = np.arange(first, cx[-1] + 1)
            lows_x = _spectra(out, xs, lows_rank)
            below = np.flatnonzero((tops[slot[cy]] >= lows_x[cx - first]).all(1))
            if not len(below):
                continue
            cx, cy = cx[below], cy[below]
            above = tops_rank[cy] < lows_rank[cx]
            bad = above.copy()
            tied = np.flatnonzero(~above)
            if len(tied):
                tops_x = lows_x if same else _spectra(out, xs, tops_rank)
                bad[tied] = ~(tops_x[cx[tied] - first] >= lows[slot[cy[tied]]]).all(1)
            bad = np.flatnonzero(bad)
            if len(bad):
                k = bad[0]
                reason = "non-strict spectral violated" if above[k] else "strict spectral violated"
                return FairnessVerdict((int(cx[k]) + 1, int(cy[k]) + 1), reason)
    return FairnessVerdict()


def _spectral_verdict(t: Tournament, key: Sequence[Rank], e: Rank) -> FairnessVerdict:
    """The spectral axiom: one packed test per candidate pair up to
    SPEC_PACKED_MAX vertices, numpy chunks (`_spectral_chunks`) above.

    x's spectrum lies below y's iff deg(x) <= deg(y) and, for each k, the
    k-th largest rank of x's out-set is not above the k-th largest of y's.
    A violation at (x, y) needs that and y not ranked above x, so the
    candidates for x are the y of at least x's degree that do not rank
    above x, tested in ascending x and then y: the certificate is the
    lex-least violating pair.

    Ranks enter the test as small ints.  index(b) is 1 plus the number of
    keys below b.  The keys b with a - b > e are the lowest ones, since
    fl(a - b) never decreases as b falls (module docstring), and low(a) is
    1 plus their number, so `not a - b > e` holds iff index(b) >= low(a):
    low is 1 plus geq of the keys' `_Walk`, and for exact keys (e = 0) it
    is the index itself.  The same rule places the ranks: y ranks above x
    iff index(x) < low(y).

    A spectrum packs into one int, one 16-bit field per entry, largest
    first: indexes for the side that must be larger, lows for the other.
    With bit 15 set in every field of y's pack, subtracting x's leaves bit
    15 of a field set iff y's entry there is at least x's.  No field
    borrows from the next, as indexes and lows are at most
    n <= DEFAULT_VERTEX_CAP < 2**15; the empty fields beyond y's degree
    hold 0 and fail any field that x fills.  So the test holds iff x's
    spectrum lies below y's.  Each spectrum is packed on first use, by one
    Python sort of its entries.

    Above SPEC_PACKED_MAX vertices the same indexes and lows, as int16, go
    to `_spectral_chunks`, which sorts spectra in numpy and decides the
    candidates of a block of x at once; the walk stays for small n, where
    its per-call set-up is a few list builds and numpy's is larger than the
    whole check.
    """
    n, out = t.n, t.out
    values = key[1:]
    ordered = sorted(values)
    ordered.insert(0, ordered[0])  # never compared: bisecting from 1 counts the keys below, plus 1
    index = list(map(bisect_left, repeat(ordered, n), values, repeat(1, n)))
    low = [g + 1 for g in _Walk(key, e).geq[1:]] if e else index
    if low == index:  # no two distinct keys within e: one pack serves both sides
        low = index
    if n > SPEC_PACKED_MAX:
        return _spectral_chunks(out, index, low)
    # Buckets by low are disjoint, so running xors are running unions:
    # prefix[i] holds the y with low(y) <= i, which do not rank above an x
    # of index i.  suffix[geq[x]] holds the y of at least x's degree.
    buckets = [0] * (n + 1)
    bit = 1
    for lv in low:
        buckets[lv] |= bit
        bit <<= 1
    prefix = list(accumulate(buckets, xor))
    scores = _scores(t)
    geq, suffix = scores.geq, scores.suffix

    larger = [None] * n  # packs of indexes, by 0-based vertex
    smaller = larger if low is index else [None] * n  # packs of lows
    guard = (1 << 16 * n) // 0xFFFF << 15  # bit 15 of each of n fields
    for x, ix in enumerate(index):
        candidates = prefix[ix] & suffix[geq[x + 1]] & ~(1 << x)
        if not candidates:
            continue
        lows_x = smaller[x]
        if lows_x is None:
            lows_x = smaller[x] = _pack(low, out[x])
        while candidates:
            b = candidates & -candidates
            candidates ^= b
            y = b.bit_length() - 1
            tops_y = larger[y]
            if tops_y is None:
                tops_y = larger[y] = _pack(index, out[y])
            if (tops_y | guard) - lows_x & guard != guard:
                continue
            if index[y] < low[x]:
                return FairnessVerdict((x + 1, y + 1), "non-strict spectral violated")
            tops_x = larger[x]
            if tops_x is None:
                tops_x = larger[x] = _pack(index, out[x])
            lows_y = smaller[y]
            if lows_y is None:
                lows_y = smaller[y] = _pack(low, out[y])
            if (tops_x | guard) - lows_y & guard != guard:
                return FairnessVerdict((x + 1, y + 1), "strict spectral violated")
    return FairnessVerdict()


# -- ranking text I/O ------------------------------------------------------


def serialize_ranking(r: Ranking) -> str:
    """One "vertex value" pair per line: str() writes a Fraction as p or
    p/q and a float as its repr."""
    return "".join(f"{v} {r[v]}\n" for v in sorted(r.values))


def parse_ranking(text: str) -> Ranking:
    """Parse "vertex value" lines; p/q and integers give an exact ranking.

    Integers stay ints and p/q values become Fractions.  Floats must be
    finite: nan and inf have no place in a rank order.  A ranking with any
    float is a float ranking, so its exact values must be within float range.
    """
    values: Dict[int, Rank] = {}
    for ln in map(str.strip, text.splitlines()):
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise TournamentSyntaxError(f"bad ranking line {ln!r}")
        try:
            v = int(parts[0])
        except ValueError:
            raise TournamentSyntaxError(f"bad vertex in line {ln!r}") from None
        raw = parts[1]
        if v in values:
            raise TournamentSyntaxError(f"vertex {v} ranked twice")
        try:
            if raw.lstrip("+-").isdigit():
                value = int(raw)
            else:
                value = Fraction(raw) if "/" in raw else float(raw)
        except (ValueError, ZeroDivisionError):
            raise TournamentSyntaxError(f"bad value {raw!r}") from None
        # an exact value is finite, and math.isfinite overflows on one above 1e308
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
