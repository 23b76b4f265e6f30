"""Rankings, backward-arc metrics, and fairness predicates.

A ranking maps each vertex to a number.  Exact rankings hold Fractions and
compare exactly; float rankings compare with an absolute tolerance eps
(a < b iff b - a > eps, a == b iff |a - b| <= eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from .errors import DomainMismatchError, TournamentSyntaxError
from .tournament import Tournament

Rank = Union[int, float, Fraction]

DEFAULT_EPS = 1e-9


def fraction_json(f: Fraction) -> dict:
    """JSON encoding of an exact fraction."""
    return {"num": f.numerator, "den": f.denominator}


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


@dataclass(frozen=True)
class Ranking:
    """Vertex -> rank mapping, either exact (Fractions) or float with eps."""

    values: Mapping[int, Rank]
    is_exact: bool
    eps: float = 0.0

    @classmethod
    def exact(cls, values: Mapping[int, Rank]) -> "Ranking":
        return cls({v: Fraction(r) for v, r in values.items()}, True, 0.0)

    @classmethod
    def approx(cls, values: Mapping[int, Rank], eps: float = DEFAULT_EPS) -> "Ranking":
        return cls({v: float(r) for v, r in values.items()}, False, eps)

    def __getitem__(self, v: int) -> Rank:
        return self.values[v]

    def lt(self, a: Rank, b: Rank) -> bool:
        if self.is_exact:
            return a < b
        return b - a > self.eps

    def eq(self, a: Rank, b: Rank) -> bool:
        if self.is_exact:
            return a == b
        return abs(a - b) <= self.eps

    def leq(self, a: Rank, b: Rank) -> bool:
        return not self.lt(b, a)

    def require_domain(self, t: Tournament) -> None:
        if set(self.values.keys()) != set(t.vertices()):
            raise DomainMismatchError(
                f"ranking domain {sorted(self.values)} does not match 1..{t.n}"
            )


@dataclass(frozen=True)
class BackwardReport:
    """Backward arcs of a ranking, with the exact backward fraction."""

    backward: Tuple[Tuple[int, int], ...]
    total: int
    fraction: Fraction

    @property
    def count(self) -> int:
        return len(self.backward)

    def to_json(self) -> dict:
        return {
            "backward": [[x, y] for x, y in self.backward],
            "total": self.total,
            "fraction": fraction_json(self.fraction),
        }


@dataclass(frozen=True)
class FairnessVerdict:
    """Outcome of a fairness check; on failure carries the least violating pair."""

    ok: bool
    certificate: Optional[Tuple[int, int]] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def backward_arcs(t: Tournament, r: Ranking) -> BackwardReport:
    """Partition arcs by rank comparison and report the backward ones."""
    r.require_domain(t)
    backward = tuple(
        (x, y) for (x, y) in t.arcs() if r.lt(r[x], r[y])
    )
    total = t.num_arcs
    fraction = Fraction(len(backward), total) if total else Fraction(0)
    return BackwardReport(backward, total, fraction)


def linear_sums(t: Tournament, r: Ranking) -> Dict[int, Rank]:
    """Sum of ranks over each vertex's out-neighborhood."""
    r.require_domain(t)
    zero: Rank = Fraction(0) if r.is_exact else 0.0
    return {x: sum((r[z] for z in t.out_set(x)), zero) for x in t.vertices()}


def copeland_ranking(t: Tournament) -> Ranking:
    """The out-degree ranking; Copeland fair (and weakly fair) on every tournament."""
    return Ranking.exact({x: t.out_degree(x) for x in t.vertices()})


# -- spectral preorder -----------------------------------------------------


def sorted_dominance(sx: Sequence[Rank], sy: Sequence[Rank], leq) -> bool:
    """Dominance shortcut: |sx| <= |sy| and the k-th largest of sx is <= that of sy."""
    if len(sx) > len(sy):
        return False
    ax = sorted(sx, reverse=True)
    ay = sorted(sy, reverse=True)
    return all(leq(a, b) for a, b in zip(ax, ay))


def spectral_leq(t: Tournament, r: Ranking, x: int, y: int) -> bool:
    """x <= y in the spectral preorder of r (via the dominance shortcut)."""
    r.require_domain(t)
    sx = [r[z] for z in t.out_set(x)]
    sy = [r[z] for z in t.out_set(y)]
    return sorted_dominance(sx, sy, r.leq)


def spectral_strict_less(t: Tournament, r: Ranking, x: int, y: int) -> bool:
    return spectral_leq(t, r, x, y) and not spectral_leq(t, r, y, x)


# -- fairness predicates ---------------------------------------------------


def _ordered_pairs(n: int):
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x != y:
                yield x, y


def is_fair(t: Tournament, r: Ranking, c: FairnessClass) -> FairnessVerdict:
    """Check a fairness axiom; on failure return the lex-least violating pair."""
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
            # proper containment is automatic: x+ never contains x, y+ never y
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


# -- ranking text I/O ------------------------------------------------------


def serialize_ranking(r: Ranking) -> str:
    """One "vertex value" pair per line; exact values as p/q, floats as repr."""
    lines = []
    for v in sorted(r.values):
        val = r[v]
        if isinstance(val, Fraction):
            text = str(val.numerator) if val.denominator == 1 else f"{val.numerator}/{val.denominator}"
        else:
            text = repr(val)
        lines.append(f"{v} {text}")
    return "\n".join(lines) + "\n"


def parse_ranking(text: str, eps: float = DEFAULT_EPS) -> Ranking:
    """Parse "vertex value" lines; p/q and integers give an exact ranking.

    Floats must be finite: nan and inf have no place in a rank order.
    """
    values: Dict[int, Rank] = {}
    exact = True
    for ln in text.strip().splitlines():
        ln = ln.strip()
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
        if "/" in raw or raw.lstrip("+-").isdigit():
            try:
                values[v] = Fraction(raw)
            except (ValueError, ZeroDivisionError):
                raise TournamentSyntaxError(f"bad value {raw!r}") from None
        else:
            try:
                value = float(raw)
            except ValueError:
                raise TournamentSyntaxError(f"bad value {raw!r}") from None
            if not math.isfinite(value):
                raise TournamentSyntaxError(f"non-finite value {raw!r}")
            values[v] = value
            exact = False
    if not values:
        raise TournamentSyntaxError("empty ranking")
    if exact:
        return Ranking.exact(values)
    return Ranking.approx(values, eps)
