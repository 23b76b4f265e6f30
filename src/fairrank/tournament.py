"""Tournament representation, generators, SCC decomposition, and text I/O.

Vertices are labeled 1..n.  A tournament is a complete loop-free digraph:
for every unordered pair exactly one of the two directed arcs is present.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, islice, repeat, starmap
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

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


@dataclass(frozen=True, slots=True)
class Tournament:
    """Immutable tournament on vertices 1..n.

    Each out-neighborhood is one int bitset, bit y - 1 standing for vertex
    y, so an arc test is a shift and a mask and an out-degree a bit count.
    Instances built through this constructor are trusted; use
    :func:`build_tournament` to validate raw arc lists.  A check keeps
    nothing on a tournament.
    """

    out: Tuple[int, ...] = field(repr=False)
    n: int = field(init=False)  # len(out)

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
    """The tournament of checked 0/1 adjacency rows of n, row x - 1 for
    vertex x: an n x n matrix, or the parser's block of rows, whose out-sets
    it keeps."""
    packed = np.packbits(a, axis=1, bitorder="little")
    data, step = packed.tobytes(), packed.shape[1]
    return Tournament([int.from_bytes(data[i:i + step], "little") for i in range(0, len(data), step)])


# Entries (bits, bytes or float64s) in one block of every numpy pass over
# rows of n: the parser's and the writer's row blocks, the Perron fill and
# product, the out-sums, the spectral chunks and the injective DP chunks all
# take CHUNK_ENTRIES // n rows or pairs at a time, 1 MB of float64.  It must stay
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
    if seed < 0:
        raise ValueError("seed must be >= 0")
    draw = random.Random(seed).random
    a = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        m = n - 1 - i
        wins = np.fromiter(starmap(draw, repeat((), m)), float, m) < 0.5
        a[i, i + 1 :] = wins
        a[i + 1 :, i] = ~wins
    return _from_matrix(a)


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
    """Canonical matrix format: n, then n rows of '0'/'1' characters, each
    ending in '\\n'.

    The header and the rows are filled into one uint8 buffer, the rows by
    `unpack_rows` in blocks of CHUNK_ENTRIES // n, and the buffer is decoded
    once: O(n^2) time, and the n(n + 1)-byte buffer beside the text.
    """
    n = t.n
    head = b"%d\n" % n
    buf = np.empty(len(head) + n * (n + 1), dtype=np.uint8)
    buf[:len(head)] = np.frombuffer(head, dtype=np.uint8)
    rows = buf[len(head):].reshape(n, n + 1)
    rows[:, n] = ord("\n")
    per = max(1, CHUNK_ENTRIES // n)
    for lo in range(0, n, per):
        hi = min(lo + per, n)
        np.bitwise_or(unpack_rows(t.out, range(lo, hi)), ord("0"), out=rows[lo:hi, :n])
    return str(buf, "ascii")


def _plain(word: str) -> str:
    """`word` itself, or ValueError if it holds a '_' or a non-ASCII
    character, which `int`, `float` and `Fraction` would read as digits."""
    if "_" in word or not word.isascii():
        raise ValueError(word)
    return word


def _edge_list(lines: Iterable[str]) -> Iterator[Tuple[int, int]]:
    for ln in lines:
        try:
            u, v = map(int, map(_plain, ln.split()))  # two integers, or ValueError
        except ValueError:
            raise TournamentSyntaxError(f"bad edge line {ln!r}") from None
        yield u, v


def parse_tournament(text: Union[bytes, str]) -> Tournament:
    """Parse the matrix format or the "n=<N>" edge-list format, from a
    file's bytes or from a str, which is encoded once.

    Every matrix cell is read by one reader, `_canonical_tournament`,
    which takes the layout that `serialize_tournament` writes: an ASCII
    decimal header and exactly n rows of n '0'/'1' characters, each ending
    in '\\n'.  Any other input (CRLF or CR line ends, blank or indented
    lines, no final newline, a bad cell, a non-ASCII character, an edge
    list) is decoded as UTF-8 and goes to `_parse_lines`, which normalizes
    a matrix into that layout first, so both give the same tournament or
    the same error; bytes that are not UTF-8 raise `UnicodeDecodeError`.
    The headers and the edge endpoints are ASCII decimals: a '_' digit
    group or a non-ASCII digit is a syntax error.  Edge lines are parsed
    as `build_tournament` reads them, after its cap check: the first bad
    line in file order raises, malformed or a bad arc.
    """
    # a non-ASCII character becomes '?', which no canonical file holds
    t = _canonical_tournament(text.encode("ascii", "replace") if isinstance(text, str) else text)
    if t is None:
        t = _parse_lines(text if isinstance(text, str) else str(text, "utf-8"))
    return t


def _parse_lines(text: str) -> Tournament:
    """The normalizer of `parse_tournament`, for every layout but the
    canonical one.

    It strips and splits the lines, reads the header, and checks the row
    count.  A matrix is then rebuilt in the canonical layout, the header
    `str(n)` and each row ending in '\\n', and read by
    `_canonical_tournament`; only when that fails are the rows scanned for
    the first one in file order that is not n '0'/'1' cells.  O(n^2) time
    plus a step per line, and beside the text the list of lines, then a
    second copy of the text, which is encoded for the reader.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines:
        raise TournamentSyntaxError("empty input")
    head = lines[0]
    if head.startswith("n="):
        try:
            n = int(_plain(head[2:].strip()))
        except ValueError:
            raise TournamentSyntaxError(f"bad header {head!r}") from None
        return build_tournament(n, _edge_list(islice(lines, 1, None)))
    try:
        n = int(_plain(head))
    except ValueError:
        raise TournamentSyntaxError(f"bad vertex count {head!r}") from None
    if len(lines) != n + 1:
        raise TournamentSyntaxError(f"expected {n} matrix rows, found {len(lines) - 1}")
    lines[0] = str(n)
    lines.append("")  # the last row's '\n'; "0\n" for n = 0, which fails the size check
    text = "\n".join(lines)
    del lines  # else the lines, the new text and its encoding are all held at once
    t = _canonical_tournament(text.encode("ascii", "replace"))
    if t is not None:
        return t
    # a row is bad: the first one in file order that is not n '0'/'1' cells,
    # found by walking the rows in place, with no list of them built
    cells = str.maketrans("", "", "01")  # a row of cells alone translates to ""
    end = text.find("\n")
    for _ in range(n):
        start, end = end + 1, text.find("\n", end + 1)
        row = text[start:end]
        if len(row) != n or row.translate(cells):
            break
    raise TournamentSyntaxError(f"bad matrix row {row!r}")


def _canonical_tournament(data: bytes) -> Optional[Tournament]:
    """The tournament of a file in the layout that `serialize_tournament`
    writes, read in one pass over its own bytes, or None for any other
    layout or a bad cell, which `_parse_lines` then names: the one reader
    of matrix cells.

    The length is checked against the header's n(n + 1) before anything is
    allocated, and the bytes after the header are viewed as an (n, n + 1)
    uint8 array.  Each block of CHUNK_ENTRIES // n rows is checked (n
    cells of '0' or '1', then '\\n'), compared with the mirrored block of
    columns of the rows above it, and packed into its out-sets.  The errors
    then come in the order that `build_tournament` finds them when fed the
    '1' cells in row-major order, after the vertex-count check: the first
    '1' on the diagonal is a loop, or the first '1' below it whose mirror
    is '1' orients its pair twice.  With neither, the pairs are all covered
    iff the out-sets hold C(n, 2) arcs, and only when they do not does a
    second pass find the first pair x < y with two '0's.  O(n^2) time with
    no step per line, and beside the bytes only the out-sets and one block.
    """
    end = data.find(b"\n")
    head = data[:end]
    if end < 1 or not head.isdigit():
        return None
    try:
        n = int(head)
    except ValueError:  # more digits than `int` reads: far too long for this file
        return None
    if len(data) != end + 1 + n * (n + 1):
        return None
    cells = np.frombuffer(data, dtype=np.uint8, offset=end + 1).reshape(n, n + 1)
    out, fault = [], None
    per = max(1, CHUNK_ENTRIES // max(n, 1))  # n = 0 has no rows and fails the size check
    for lo in range(0, n, per):
        hi = min(lo + per, n)
        block = cells[lo:hi]
        bits = block[:, :n] - ord("0")
        if (bits > 1).any() or (block[:, n] != ord("\n")).any():  # below '0' wraps to above 1
            return None
        if fault is None:
            # '1' is odd and '0' even, so a 1 here is a '1' whose mirror is
            # '1'; at (x, x) itself, the loop.  The column block leads, so
            # numpy reads each row above in one run of cells, not by bytes
            twice = (cells[:hi, lo:hi] & bits[:, :hi].T).T
            if twice.any():  # the mirror of a hit above the diagonal is in the block
                i, j = divmod(int(np.argmax(np.tril(twice, lo))), hi)
                x, y = lo + i + 1, j + 1
                fault = (LoopArcError(f"loop arc ({x},{x})") if x == y
                         else DuplicateOrConflictError(f"pair {{{x},{y}}} oriented twice"))
        out += _from_matrix(bits).out  # the block's rows, packed as `gen_random`'s are
    _require_size(n)
    if fault is not None:
        raise fault
    if sum(map(int.bit_count, out)) != n * (n - 1) // 2:
        for lo in range(0, n, per):
            hi = min(lo + per, n)
            missing = np.triu((cells[lo:hi, lo:n] | cells[lo:n, lo:hi].T) == ord("0"), 1)
            if missing.any():
                i, j = divmod(int(np.argmax(missing)), n - lo)
                raise MissingPairError(f"pair {{{lo + i + 1},{lo + j + 1}}} has no arc")
    return Tournament(out)
