"""Tournament representation, generators, SCC decomposition, and text I/O.

Vertices are labeled 1..n.  A tournament is a complete loop-free digraph:
for every unordered pair exactly one of the two directed arcs is present.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Iterator, List, Sequence, Tuple

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


class Tournament:
    """Immutable tournament on vertices 1..n.

    Out-neighborhoods are stored as frozensets, so arc tests are O(1).
    Instances built through this constructor are trusted; use
    :func:`build_tournament` to validate raw arc lists.
    """

    __slots__ = ("n", "_out")

    def __init__(self, n: int, out_sets: Sequence[Iterable[int]]):
        if n < 1:
            raise ValueError("tournament needs at least one vertex")
        if len(out_sets) != n:
            raise ValueError("out_sets length must equal n")
        self.n = n
        self._out: Tuple[frozenset, ...] = tuple(frozenset(s) for s in out_sets)

    # -- queries -----------------------------------------------------------

    def _check_vertex(self, x: int) -> None:
        if not (1 <= x <= self.n):
            raise UnknownVertexError(f"vertex {x} not in 1..{self.n}")

    def has_arc(self, x: int, y: int) -> bool:
        self._check_vertex(x)
        self._check_vertex(y)
        return y in self._out[x - 1]

    def out_set(self, x: int) -> frozenset:
        self._check_vertex(x)
        return self._out[x - 1]

    def out_degree(self, x: int) -> int:
        return len(self.out_set(x))

    @property
    def num_arcs(self) -> int:
        return self.n * (self.n - 1) // 2

    def arcs(self) -> Iterator[Tuple[int, int]]:
        """Yield all arcs in lexicographic order of (x, y)."""
        for x in range(1, self.n + 1):
            for y in sorted(self._out[x - 1]):
                yield (x, y)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"Tournament(n={self.n}, arcs={self.num_arcs})"


# -- construction and validation ------------------------------------------


def _require_within_cap(n: int) -> None:
    if n > DEFAULT_VERTEX_CAP:
        raise ResourceLimitError(f"{n} vertices exceed the cap of {DEFAULT_VERTEX_CAP}")


def build_tournament(n: int, arc_list: Iterable[Tuple[int, int]]) -> Tournament:
    """Validate an explicit arc list and build the tournament.

    Every unordered pair must be covered exactly once and in one direction.
    The out-sets being filled are the only record of the arcs seen so far.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _require_within_cap(n)
    out = [set() for _ in range(n)]
    added = 0
    for (x, y) in arc_list:
        if not (1 <= x <= n) or not (1 <= y <= n):
            raise UnknownVertexError(f"arc ({x},{y}) references vertex outside 1..{n}")
        if x == y:
            raise LoopArcError(f"loop arc ({x},{x})")
        if y in out[x - 1] or x in out[y - 1]:
            raise DuplicateOrConflictError(f"pair {{{x},{y}}} oriented twice")
        out[x - 1].add(y)
        added += 1
    if added != n * (n - 1) // 2:
        for x in range(1, n + 1):
            for y in range(x + 1, n + 1):
                if y not in out[x - 1] and x not in out[y - 1]:
                    raise MissingPairError(f"pair {{{x},{y}}} has no arc")
    return Tournament(n, out)


# -- generators ------------------------------------------------------------


def gen_rotational(l: int) -> Tournament:
    """Rotational tournament on 2l+1 vertices: i beats i+1, ..., i+l (mod 2l+1)."""
    if l < 1:
        raise ValueError("l must be >= 1")
    n = 2 * l + 1
    _require_within_cap(n)
    out_sets = [{(i - 1 + k) % n + 1 for k in range(1, l + 1)} for i in range(1, n + 1)]
    return Tournament(n, out_sets)


def composite_vertex(m: int, i: int, l: int) -> int:
    """Flatten the layered vertex (m, i) to its 1-based label."""
    return (m - 1) * (2 * l + 1) + i


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
    _require_within_cap(n_total)
    rot = gen_rotational(l)
    out_sets = []
    for m in range(1, s + 1):
        beats_m = rot.out_set(m)
        for i in range(1, s + 1):
            beats_i = rot.out_set(i)
            targets = set()
            for mm in range(1, m):
                targets.add(composite_vertex(mm, i, l))
            for j in beats_i:
                targets.add(composite_vertex(m, j, l))
            for nn in beats_m:
                for j in range(1, s + 1):
                    if j != i:
                        targets.add(composite_vertex(nn, j, l))
            out_sets.append(targets)
    return Tournament(n_total, out_sets)


def gen_random(n: int, seed: int) -> Tournament:
    """Orient each pair by one coin flip of a seeded generator."""
    if n < 1:
        raise ValueError("n must be positive")
    _require_within_cap(n)
    rng = random.Random(seed)
    out = [set() for _ in range(n)]
    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            if rng.random() < 0.5:
                out[x - 1].add(y)
            else:
                out[y - 1].add(x)
    return Tournament(n, out)


def enumerate_all(n: int) -> Iterator[Tournament]:
    """Yield all 2^C(n,2) labeled tournaments on n vertices exactly once."""
    if n > ENUMERATION_CAP:
        raise ResourceLimitError(f"enumeration capped at n <= {ENUMERATION_CAP}")
    if n < 1:
        raise ValueError("n must be positive")
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        out = [set() for _ in range(n)]
        for k, (x, y) in enumerate(pairs):
            if mask >> k & 1:
                out[y - 1].add(x)
            else:
                out[x - 1].add(y)
        yield Tournament(n, out)


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
    scores = [t.out_degree(v) for v in t.vertices()]
    return tuple(frozenset(i + 1 for i in comp) for comp in _score_components(scores))


def is_strongly_connected(t: Tournament) -> bool:
    return len(scc_decompose(t)) == 1


# -- text I/O --------------------------------------------------------------


def serialize_tournament(t: Tournament) -> str:
    """Canonical matrix format: n, then n rows of '0'/'1' characters."""
    lines = [str(t.n)]
    for x in range(1, t.n + 1):
        row = t.out_set(x)
        lines.append("".join("1" if y in row else "0" for y in range(1, t.n + 1)))
    return "\n".join(lines) + "\n"


def parse_tournament(text: str) -> Tournament:
    """Parse the matrix format or the "n=<N>" edge-list format."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise TournamentSyntaxError("empty input")
    head = lines[0]
    if head.startswith("n="):
        try:
            n = int(head[2:])
        except ValueError:
            raise TournamentSyntaxError(f"bad header {head!r}") from None
        arcs = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise TournamentSyntaxError(f"bad edge line {ln!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise TournamentSyntaxError(f"bad edge line {ln!r}") from None
            arcs.append((u, v))
        return build_tournament(n, arcs)
    try:
        n = int(head)
    except ValueError:
        raise TournamentSyntaxError(f"bad vertex count {head!r}") from None
    if len(lines) != n + 1:
        raise TournamentSyntaxError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = lines[1:]
    for row in rows:
        if len(row) != n or row.count("0") + row.count("1") != n:
            raise TournamentSyntaxError(f"bad matrix row {row!r}")
    return _tournament_from_rows(n, rows)


def _tournament_from_rows(n: int, rows: Sequence[str]) -> Tournament:
    """Validate n checked '0'/'1' rows as one array and build the tournament.

    The first error in row-major order is the one that `build_tournament`
    finds when fed the '1' cells in that order: a '1' on the diagonal is a
    loop, a '1' below the diagonal whose mirror is '1' orients its pair
    twice, and only then does the first pair x < y with two '0's count as
    missing.  Each check compares one row with its column, so the n x n
    matrix is the only large allocation.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _require_within_cap(n)
    a = np.empty((n, n), dtype=bool)
    for i, row in enumerate(rows):
        a[i] = np.frombuffer(row.encode("ascii"), dtype=np.uint8) == ord("1")
    for i in range(n):
        twice = a[i, : i + 1] & a[: i + 1, i]  # at i itself, the loop
        if twice.any():
            x, y = i + 1, int(np.argmax(twice)) + 1
            if x == y:
                raise LoopArcError(f"loop arc ({x},{x})")
            raise DuplicateOrConflictError(f"pair {{{x},{y}}} oriented twice")
    for i in range(n):
        missing = ~(a[i, i + 1 :] | a[i + 1 :, i])
        if missing.any():
            x, y = i + 1, i + 2 + int(np.argmax(missing))
            raise MissingPairError(f"pair {{{x},{y}}} has no arc")
    # sets filled in ascending order, as build_tournament fills them, so the
    # frozen out-sets iterate in the same order
    return Tournament(n, [set((row.nonzero()[0] + 1).tolist()) for row in a])
