"""Tournament representation, generators, SCC decomposition, and text I/O.

Vertices are labeled 1..n.  A tournament is a complete loop-free digraph:
for every unordered pair exactly one of the two directed arcs is present.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, islice, repeat, starmap
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DuplicateOrConflictError,
    LoopArcError,
    MissingPairError,
    ResourceLimitError,
    TournamentSyntaxError,
    UnknownVertexError,
)

DEFAULT_VERTEX_CAP = 10_000
ENUMERATION_CAP = 6


@dataclass(frozen=True, slots=True)
class Tournament:
    """Immutable tournament on vertices 1..n.

    Each out-neighborhood is one int bitset, bit y - 1 standing for vertex
    y, so an arc test is a shift and a mask and an out-degree a bit count.
    Instances built through this constructor are trusted; use
    :func:`build_tournament` to validate raw arc lists.  A check keeps
    nothing on a tournament: only the weak-order minimizer, which checks
    thousands of rankings of one tournament, keeps its weak candidates.
    """

    out: Tuple[int, ...] = field(repr=False)
    n: int = field(init=False)  # len(out)
    # the weak candidates whose out-set holds x's, kept by
    # `ranking._keep_weak_candidates` alone; they derive from `out` alone,
    # so they never go stale
    _weak: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "out", tuple(self.out))  # callers may pass a list
        object.__setattr__(self, "n", len(self.out))
        if self.n < 1:
            raise ValueError("tournament needs at least one vertex")

    def out_degree(self, x: int) -> int:
        if not (1 <= x <= self.n):
            raise UnknownVertexError(f"vertex {x} not in 1..{self.n}")
        return self.out[x - 1].bit_count()

    @property
    def num_arcs(self) -> int:
        return self.n * (self.n - 1) // 2

    def vertices(self) -> range:
        return range(1, self.n + 1)


# -- construction and validation ------------------------------------------


def _require_size(n: int) -> None:
    """The vertex-count check of every builder: 1 <= n <= DEFAULT_VERTEX_CAP."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > DEFAULT_VERTEX_CAP:
        raise ResourceLimitError(f"{n} vertices exceed the cap of {DEFAULT_VERTEX_CAP}")


def build_tournament(n: int, arc_list: Iterable[Tuple[int, int]]) -> Tournament:
    """Validate an explicit arc list and build the tournament.

    Every unordered pair must be covered exactly once and in one direction.
    The out-sets being filled are the only record of the arcs seen so far;
    arcs are read one at a time, and the first bad one raises.
    """
    _require_size(n)
    out = [0] * n
    added = 0
    for (x, y) in arc_list:
        if not (1 <= x <= n) or not (1 <= y <= n):
            raise UnknownVertexError(f"arc ({x},{y}) references vertex outside 1..{n}")
        if x == y:
            raise LoopArcError(f"loop arc ({x},{x})")
        if out[x - 1] >> (y - 1) & 1 or out[y - 1] >> (x - 1) & 1:
            raise DuplicateOrConflictError(f"pair {{{x},{y}}} oriented twice")
        out[x - 1] |= 1 << (y - 1)
        added += 1
    if added != n * (n - 1) // 2:
        for x, y in combinations(range(1, n + 1), 2):
            if not (out[x - 1] >> (y - 1) & 1 or out[y - 1] >> (x - 1) & 1):
                raise MissingPairError(f"pair {{{x},{y}}} has no arc")
    return Tournament(out)


def _from_matrix(a: np.ndarray) -> Tournament:
    """The tournament of a checked n x n bool adjacency matrix, row x - 1 for vertex x."""
    packed = np.packbits(a, axis=1, bitorder="little")
    return Tournament([int.from_bytes(row.tobytes(), "little") for row in packed])


# Entries (bits, bytes or float64s) in one block of every numpy pass over
# rows of n: the parser's row blocks, the Perron fill and product, the
# out-sums, the spectral chunks and the injective DP chunks all take
# CHUNK_ENTRIES // n rows or pairs at a time, 1 MB of float64.  It must stay
# below 460 800 entries: numpy's bundled OpenBLAS threads a gemv of that
# size or more, and on a 2-core host each such call waited 7.5-8 ms.
CHUNK_ENTRIES = 2**17


def unpack_rows(out: Sequence[int], rows: Iterable[int]) -> np.ndarray:
    """The out-sets of the 0-based vertices `rows` as 0/1 uint8 rows of n,
    column y - 1 for vertex y: the rows of the matrix that `_from_matrix`
    packs, one bytes join and one `np.unpackbits` for them all."""
    n = len(out)
    nbytes = (n + 7) // 8
    data = b"".join([out[v].to_bytes(nbytes, "little") for v in rows])
    bits = np.frombuffer(data, np.uint8).reshape(-1, nbytes)
    return np.unpackbits(bits, axis=1, count=n, bitorder="little")


# -- generators ------------------------------------------------------------


def gen_rotational(l: int) -> Tournament:
    """Rotational tournament on 2l+1 vertices: i beats i+1, ..., i+l (mod 2l+1)."""
    if l < 1:
        raise ValueError("l must be >= 1")
    n = 2 * l + 1
    _require_size(n)
    everyone = (1 << n) - 1
    first = ((1 << l) - 1) << 1  # vertex 1 beats 2..l+1
    return Tournament([(first << s | first >> (n - s)) & everyone for s in range(n)])


def gen_composite(l: int) -> Tournament:
    """Layered tournament on (2l+1)^2 vertices over the rotational pattern.

    Vertex (m, i) beats (n, j) iff
      * i == j and m > n, or
      * m == n and the rotational tournament has i -> j, or
      * m != n, i != j, and the rotational tournament has m -> n.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    s = 2 * l + 1
    n_total = s * s
    _require_size(n_total)
    rot = gen_rotational(l).out
    layer = (1 << s) - 1
    column = sum(1 << (m * s) for m in range(s))  # (m, 1) for every layer m
    out = []
    for m in range(s):
        below = (1 << (m * s)) - 1
        beaten = sum(layer << (k * s) for k in range(s) if rot[m] >> k & 1)
        for i in range(s):
            same_i = column << i
            out.append((same_i & below) | (rot[i] << (m * s)) | (beaten & ~same_i))
    return Tournament(out)


def gen_random(n: int, seed: int) -> Tournament:
    """Orient each pair x < y by one coin flip of a seeded generator, in
    lexicographic order of (x, y): x -> y when the draw is below 1/2.

    The draws are the `random.Random(seed).random()` sequence, which Python
    documents as reproducible across versions, so a seed names the same
    tournament everywhere.  Each row's draws go from the bound method into
    one float array, with no Python step per draw.
    """
    _require_size(n)
    draw = random.Random(seed).random
    a = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        m = n - 1 - i
        wins = np.fromiter(starmap(draw, repeat((), m)), float, m) < 0.5
        a[i, i + 1 :] = wins
        a[i + 1 :, i] = ~wins
    return _from_matrix(a)


def _require_enumerable(n: int) -> None:
    """The checks of every exhaustive sweep: 1 <= n <= ENUMERATION_CAP."""
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(f"enumeration capped at n <= {ENUMERATION_CAP}")
    _require_size(n)


def enumerate_all(n: int) -> Iterator[Tournament]:
    """Yield all 2^C(n,2) labeled tournaments on n vertices exactly once."""
    _require_enumerable(n)
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        out = [0] * n
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                out[j] |= 1 << i
            else:
                out[i] |= 1 << j
        yield Tournament(out)


# -- strongly connected components ----------------------------------------


def _score_components(scores: Sequence[int]) -> List[List[int]]:
    """Strong components of a tournament given by its score list, losers-first.

    scores[i] is the out-degree of the vertex at index i; each component is
    a list of indices in ascending score order, ties by index.  A vertex in
    a later component beats every vertex of the earlier ones, so it
    outscores them all: components are contiguous in ascending score order
    and ties never straddle a cut.  The first k vertices in that order have
    score sum C(k,2) plus the number of arcs leaving them, so they form a
    union of bottom components exactly when the sum is C(k,2).
    """
    order = sorted(range(len(scores)), key=scores.__getitem__)
    components = []
    start = total = 0
    for k, i in enumerate(order, start=1):
        total += scores[i]
        if total == k * (k - 1) // 2:
            components.append(order[start:k])
            start = k
    return components


def scc_decompose(t: Tournament) -> Tuple[frozenset, ...]:
    """Strongly connected components ordered losers-first, cut from the scores.

    For x in components[i] and y in components[j] with i < j, the cross
    arc is y -> x: component 0 is the sink of the condensation.  See
    `_score_components` for the cut.
    """
    scores = [o.bit_count() for o in t.out]
    return tuple(frozenset(i + 1 for i in comp) for comp in _score_components(scores))


# -- text I/O --------------------------------------------------------------


def serialize_tournament(t: Tournament) -> str:
    """Canonical matrix format: n, then n rows of '0'/'1' characters."""
    rows = [format(bits, f"0{t.n}b")[::-1] for bits in t.out]
    return "\n".join([str(t.n)] + rows) + "\n"


def _edge_list(lines: Iterable[str]) -> Iterator[Tuple[int, int]]:
    for ln in lines:
        try:
            u, v = map(int, ln.split())  # two integers, or ValueError
        except ValueError:
            raise TournamentSyntaxError(f"bad edge line {ln!r}") from None
        yield u, v


def parse_tournament(text: str) -> Tournament:
    """Parse the matrix format or the "n=<N>" edge-list format.

    Edge lines are parsed as `build_tournament` reads them, after its cap
    check: the first bad line in file order raises, malformed or a bad arc.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise TournamentSyntaxError("empty input")
    head = lines[0]
    if head.startswith("n="):
        try:
            n = int(head[2:])
        except ValueError:
            raise TournamentSyntaxError(f"bad header {head!r}") from None
        return build_tournament(n, _edge_list(islice(lines, 1, None)))
    try:
        n = int(head)
    except ValueError:
        raise TournamentSyntaxError(f"bad vertex count {head!r}") from None
    if len(lines) != n + 1:
        raise TournamentSyntaxError(f"expected {n} matrix rows, found {len(lines) - 1}")
    return _tournament_from_rows(n, lines[1:])


def _tournament_from_rows(n: int, rows: Sequence[str]) -> Tournament:
    """Check and validate n matrix rows in blocks of CHUNK_ENTRIES // n rows
    and build the tournament.

    The first bad row in file order raises `TournamentSyntaxError`, whether
    its length is wrong or it holds a character other than '0' or '1'.
    Each block is one string, encoded to one byte per character (a non-ASCII
    one becomes '?'), so every character check is one array comparison.
    `a` holds only the rows before the first one of the wrong length, each
    n characters of the text, so it is never larger than the text; it is
    n x n once every row has passed, and the size check follows the syntax
    checks.

    The first error in row-major order is then the one that
    `build_tournament` finds when fed the '1' cells in that order: a '1' on
    the diagonal is a loop, a '1' below the diagonal whose mirror is '1'
    orients its pair twice, and only then does the first pair x < y with
    two '0's count as missing.  With no loop and no pair oriented twice,
    the pairs are all covered iff the matrix holds C(n, 2) '1's.  Every
    check works on a block of rows against the mirrored block of columns,
    so `a` is the only allocation that grows as n^2.
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
    _require_size(n)
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
    return _from_matrix(a)
