"""Output checks for benchmark ops.

Each check reads the files and text an op produced and raises `Failed` when
the exit code or the output is wrong.  Expected answers come from oracles
owned by the benchmark (numpy on the 0/1 adjacency matrix, a subset DP, the
closed forms) or, where the issue names it, from re-checking a witness with
the library's own `is_fair` and `backward_arcs`.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from fairrank.errors import FairrankError
from fairrank.fixpoint import linear_fair_ranking
from fairrank.ranking import (
    DEFAULT_EPS,
    FairnessClass,
    Ranking,
    backward_arcs,
    is_fair,
    parse_ranking,
)
from fairrank.tournament import parse_tournament

ERROR_EXITS = (2, 3, 4, None)  # None: the CLI raised instead of returning


class Failed(Exception):
    """An op failed.  `wrong` is True for a wrong answer (bad exit code or
    output) and False for an error exit, where the program gave no answer."""

    def __init__(self, message: str, wrong: bool = True):
        super().__init__(message)
        self.wrong = wrong


def require_exit(res, *allowed: int) -> None:
    if res.rc in allowed:
        return
    detail = res.err.strip().splitlines()[-1:] or [""]
    raise Failed(f"exit {res.rc}: {detail[0]}", wrong=res.rc not in ERROR_EXITS)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Failed(message)


# -- file formats -------------------------------------------------------------


def parse_matrix(data: bytes) -> np.ndarray:
    """Matrix-format tournament as a bool adjacency matrix (a[x-1, y-1]: x -> y)."""
    tokens = data.split()
    n = int(tokens[0])
    rows = tokens[1:]
    expect(len(rows) == n and all(len(row) == n for row in rows), "malformed matrix")
    digits = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(n, n) - ord("0")
    expect(bool(np.all(digits <= 1)), "matrix entries other than 0/1")
    a = digits.astype(bool)
    expect(np.array_equal(a ^ a.T, ~np.eye(n, dtype=bool)), "not a tournament")
    return a


def read_tournament(path) -> np.ndarray:
    return parse_matrix(Path(path).read_bytes())


def write_tournament(path, a: np.ndarray) -> None:
    rows = ["".join("1" if x else "0" for x in row) for row in a]
    Path(path).write_text("\n".join([str(len(a))] + rows) + "\n", encoding="utf-8")


def random_tournament(n: int, rng) -> np.ndarray:
    a = np.zeros((n, n), dtype=bool)
    for x, y in combinations(range(n), 2):
        if rng.random() < 0.5:
            a[x, y] = True
        else:
            a[y, x] = True
    return a


def relabel(src, dst, perm) -> None:
    """Write the tournament in `src` to `dst` with vertex i renamed perm[i]."""
    Path(dst).unlink(missing_ok=True)
    try:
        a = read_tournament(src)
    except (OSError, ValueError, Failed):
        return  # the gen op failed; the ops reading dst fail in turn
    b = np.empty_like(a)
    b[np.ix_(perm, perm)] = a
    write_tournament(dst, b)


def read_ranking(path, n: int) -> np.ndarray:
    """Ranking file as an array indexed by vertex - 1: int64 when every value
    is an integer (exact), float64 otherwise."""
    values = {}
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
        if line.strip():
            v, raw = line.split()
            values[int(v)] = raw
    expect(sorted(values) == list(range(1, n + 1)), f"{path}: ranking domain is not 1..{n}")
    raw = [values[v] for v in range(1, n + 1)]
    if all(s.lstrip("+-").isdigit() for s in raw):
        return np.array([int(s) for s in raw], dtype=np.int64)
    return np.array([float(s) for s in raw], dtype=np.float64)


def eps_of(r: np.ndarray) -> float:
    return 0.0 if r.dtype.kind == "i" else DEFAULT_EPS


def backward_count(a: np.ndarray, r: np.ndarray) -> int:
    """Arcs x -> y with x ranked below y, under the CLI's comparator."""
    return int(np.count_nonzero(a & ((r[None, :] - r[:, None]) > eps_of(r))))


def parse_fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def field(text: str, key: str) -> str:
    m = re.search(rf"(?:^|\s){key}=(\S+)", text)
    expect(m is not None, f"no {key}= in output {text[:80]!r}")
    return m.group(1)


def check_bw(out: str, a: np.ndarray, r: np.ndarray) -> None:
    n = len(a)
    bw = parse_fraction(field(out, "bw"))
    expect(bw == Fraction(backward_count(a, r), n * (n - 1) // 2), f"wrong bw={bw}")


# -- oracles ------------------------------------------------------------------


def _first_pair(violations: np.ndarray) -> Optional[Tuple[int, int]]:
    hits = np.argwhere(violations)
    return None if len(hits) == 0 else (int(hits[0, 0]) + 1, int(hits[0, 1]) + 1)


def spectral_leq_matrix(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """leq[x, y]: x's out-neighbor ranks are dominated by y's, by the sorted
    dominance rule (exact integer ranks)."""
    n = len(a)
    deg = a.sum(axis=1)
    spectra = -np.sort(-np.where(a, r[None, :].astype(float), -np.inf), axis=1)
    leq = np.empty((n, n), dtype=bool)
    for x in range(n):
        k = deg[x]
        leq[x] = (k <= deg) & np.all(spectra[x, :k] <= spectra[:, :k], axis=1)
    return leq


def first_violation(a: np.ndarray, r: np.ndarray, cls: str) -> Optional[Tuple[int, int]]:
    """Lexicographically least pair violating `cls` for an exact integer
    ranking, or None when the ranking is fair.  Covers lin, inj and spec."""
    expect(r.dtype.kind == "i", "oracle needs an exact integer ranking")
    lt = r[:, None] < r[None, :]
    le = r[:, None] <= r[None, :]
    if cls == "inj":
        return _first_pair(np.triu(r[:, None] == r[None, :], k=1))
    if cls == "lin":
        nonpositive = np.flatnonzero(r <= 0)
        if len(nonpositive):
            x = int(nonpositive[0]) + 1
            return (x, x)
        s = a.astype(np.int64) @ r
        s_le = s[:, None] <= s[None, :]
        s_lt = s[:, None] < s[None, :]
        return _first_pair((s_le & ~le) | (s_lt & ~lt))
    if cls == "spec":
        leq = spectral_leq_matrix(a, r)
        return _first_pair((leq & ~le) | (leq & ~leq.T & ~lt))
    raise ValueError(f"no oracle for {cls}")


def min_backward_orders(a: np.ndarray) -> int:
    """Minimum backward count over all injective rankings, by a subset DP:
    placing v above the placed set makes its arcs into unplaced vertices backward."""
    n = len(a)
    out = [sum(1 << j for j in range(n) if a[i, j]) for i in range(n)]
    full = (1 << n) - 1
    dp = [0] * (full + 1)
    for placed in range(1, full + 1):
        best = None
        rest = ~placed & full
        m = placed
        while m:
            low = m & -m
            cost = dp[placed ^ low] + bin(out[low.bit_length() - 1] & rest).count("1")
            if best is None or cost < best:
                best = cost
            m ^= low
        dp[placed] = best
    return dp[full]


def rising_arcs(a: np.ndarray) -> int:
    """Arcs from a lower to a higher out-degree: the strict-Copeland minimum."""
    deg = a.sum(axis=1)
    return int(np.count_nonzero(a & (deg[:, None] < deg[None, :])))


def composite_fraction(l: int) -> Fraction:
    return Fraction(l * (3 * l + 1), 2 * (l + 1) * (2 * l + 1))


def copeland_bound(n: int) -> Fraction:
    l = n // 2
    return Fraction(3 * l - 2, 4 * l - 2) if n % 2 == 0 else Fraction(3 * l + 1, 4 * l + 2)


@functools.lru_cache(maxsize=None)
def exhaustive_max_rising(n: int) -> Tuple[int, Fraction]:
    """(number of labeled tournaments on n vertices, max rising-arc fraction)."""
    pairs = list(combinations(range(n), 2))
    best = Fraction(0)
    for mask in range(1 << len(pairs)):
        a = np.zeros((n, n), dtype=bool)
        for k, (x, y) in enumerate(pairs):
            a[(y, x) if mask >> k & 1 else (x, y)] = True
        best = max(best, Fraction(rising_arcs(a), len(pairs)))
    return 1 << len(pairs), best


# -- per-verb checks ----------------------------------------------------------


def check_gen(path, n: int):
    def check(res):
        require_exit(res, 0)
        expect(res.out.strip() == f"n={n} edges={n * (n - 1) // 2}", f"gen summary {res.out!r}")
        expect(len(read_tournament(path)) == n, f"{path}: wrong size")
    return check


def check_copeland(tpath, rpath):
    def check(res):
        require_exit(res, 0)
        a = read_tournament(tpath)
        r = read_ranking(rpath, len(a))
        expect(np.array_equal(r, a.sum(axis=1)), "Copeland ranking is not the out-degree")
        check_bw(res.out, a, r)
    return check


def check_linear_fair(tpath, rpath, report=None, verify_lin=False):
    """Exit 4 is a failure.  `verify_lin` re-checks LIN here; elsewhere the
    workload's own check ops require the ranking to PASS lin, spec and weak."""
    def check(res):
        require_exit(res, 0)
        a = read_tournament(tpath)
        r = read_ranking(rpath, len(a))
        expect(bool(np.all(r > 0)), "linear-fair ranking is not positive")
        check_bw(res.out, a, r)
        if report is not None:
            data = json.loads(Path(report).read_text(encoding="utf-8"))
            expect(data["verified"] is True, "report not verified")
            expect(np.array_equal(np.array(data["ranking"], dtype=float), r),
                   "report ranking differs from the ranking file")
        if verify_lin:
            t = parse_tournament(Path(tpath).read_text(encoding="utf-8"))
            lr = parse_ranking(Path(rpath).read_text(encoding="utf-8"))
            expect(is_fair(t, lr, FairnessClass.LIN).ok, "linear-fair ranking fails lin")
    return check


def check_verdict(tpath, rpath, cls: str, must_pass: bool):
    """`must_pass`: the class holds by theorem; otherwise the oracle decides
    the verdict and the certificate pair (exact rankings only)."""
    def check(res):
        require_exit(res, 0, 1)
        a = read_tournament(tpath)
        r = read_ranking(rpath, len(a))
        expected = None if must_pass else first_violation(a, r, cls)
        m = re.match(r"(PASS|FAIL) class=(\w+)(?: pair=\((\d+), (\d+)\))?", res.out)
        expect(m is not None and m.group(2) == cls, f"check output {res.out[:80]!r}")
        if expected is None:
            expect(res.rc == 0 and m.group(1) == "PASS", f"expected PASS for {cls}")
        else:
            expect(res.rc == 1 and m.group(1) == "FAIL", f"expected FAIL for {cls}")
            got = (int(m.group(3)), int(m.group(4)))
            expect(got == expected, f"certificate {got}, expected {expected}")
        check_bw(res.out, a, r)
    return check


def check_dump(tpath, rpath):
    def check(res):
        require_exit(res, 0)
        a = read_tournament(tpath)
        n = len(a)
        r = read_ranking(rpath, n)
        lines = res.out.rstrip("\n").split("\n")
        expect(len(lines) == n + 1, "dump has the wrong number of rows")
        order = [int(v) for v in lines[0].split()]
        expected = sorted(range(1, n + 1), key=lambda v: (r[v - 1], v))
        expect(order == expected, "dump rows are not in rank order")
        body = "".join(lines[1:])
        expect(body.count("[*]") == backward_count(a, r), "wrong bracketed backward count")
        expect(body.count("*") == n * (n - 1) // 2, "wrong arc count")
    return check


def parse_minimize(out: str, n: int) -> Tuple[int, Fraction, Ranking]:
    first, second = out.strip().split("\n")[:2]
    count = int(field(first, "count"))
    fraction = parse_fraction(field(first, "fraction"))
    expect(second.startswith("witness "), "no witness line")
    values = {}
    for item in second.split()[1:]:
        v, val = item.split(":")
        values[int(v)] = Fraction(val)
    expect(sorted(values) == list(range(1, n + 1)), "witness domain is not 1..n")
    return count, fraction, Ranking.exact(values)


def _check_witness(res, path, cls: FairnessClass) -> Tuple[np.ndarray, int]:
    require_exit(res, 0)
    a = read_tournament(path)
    t = parse_tournament(Path(path).read_text(encoding="utf-8"))
    count, fraction, witness = parse_minimize(res.out, t.n)
    expect(is_fair(t, witness, cls).ok, f"witness is not {cls.value}-fair")
    expect(backward_arcs(t, witness).count == count, "witness backward count differs from count")
    expect(fraction == Fraction(count, t.num_arcs), "fraction differs from count/arcs")
    return a, count


def check_minimize_fair(path, cls: str):
    """Exit 2 (empty class) for lin is a failure when linear_fair_ranking finds
    a lin member on the same input."""
    c = FairnessClass.from_string(cls)

    def check(res):
        if res.rc == 2 and c is FairnessClass.LIN:
            t = parse_tournament(Path(path).read_text(encoding="utf-8"))
            try:
                member = linear_fair_ranking(t).ranking
            except FairrankError:
                return
            if is_fair(t, member, c).ok:
                raise Failed("exit 2 (empty class), but lin has a member", wrong=False)
            return
        a, count = _check_witness(res, path, c)
        if c is FairnessClass.INJ:
            expect(count == min_backward_orders(a), "inj count differs from the injective minimum")
        if c is FairnessClass.SCOP:
            expect(count == rising_arcs(a), "scop count differs from the closed form")
    return check


def check_minimize_injective(path):
    def check(res):
        a, count = _check_witness(res, path, FairnessClass.INJ)
        expect(count == min_backward_orders(a), "count differs from the subset-DP minimum")
    return check


def check_emn_sweep(lmax: int, materialize: int):
    def check(res):
        require_exit(res, 0)
        lines = res.out.strip().split("\n")
        rows: List[List[str]] = [ln.split() for ln in lines[1:-1]]
        expect([int(row[0]) for row in rows] == list(range(1, lmax + 1)), "wrong rows")
        for row in rows:
            l, n, edges, min_bw = (int(x) for x in row[:4])
            fraction = parse_fraction(row[4])
            expect(fraction == composite_fraction(l), f"l={l}: fraction {fraction}")
            expect(n == (2 * l + 1) ** 2 and edges == n * (n - 1) // 2
                   and Fraction(min_bw, edges) == fraction, f"l={l}: n, edges or count inconsistent")
            expect(row[-1].endswith("*") == (l <= materialize), f"l={l}: materialized mark")
        expect(lines[-1].split()[:2] == ["limit", "3/4"], "wrong limit line")
    return check


def check_emn_exhaustive(n: int):
    def check(res):
        require_exit(res, 0)
        count, max_fraction = exhaustive_max_rising(n)
        expect(int(field(res.out, "checked")) == count, "wrong checked count")
        expect(parse_fraction(field(res.out, "bound")) == copeland_bound(n), "wrong bound")
        expect(parse_fraction(field(res.out, "max")) == max_fraction, "wrong max fraction")
        expect(field(res.out, "within") == "yes", "bound reported violated")
    return check
