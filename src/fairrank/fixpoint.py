"""Simplicial rankings, the rank-sum recalculation, and the Perron solver.

The recalculation sends a simplicial ranking r to the normalized vector of
out-neighborhood rank sums.  Its fixed points on a strongly connected
tournament are Perron eigenvectors of the 0/1 adjacency matrix; scaling
each component's eigenvector by one factor, so that every component sits
strictly above the ones it beats, yields in one pass a strictly positive
ranking that satisfies the linear fairness axiom on any tournament.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import (
    NoConvergenceError,
    NotStronglyConnectedError,
    UnknownVertexError,
    VerificationFailedError,
    ZeroNormalizerError,
)
from .ranking import FairnessClass, Ranking, is_fair
from .tournament import Tournament, _score_components, members, scc_decompose

SimplicialRanking = Dict[int, Union[float, Fraction]]  # vertex -> mass, sums to 1


@dataclass(frozen=True)
class RecalcConfig:
    tolerance: float = 1e-12
    max_iterations: int = 100_000
    shift: float = 1.0

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.shift < 0:
            raise ValueError("shift must be non-negative")


@dataclass(frozen=True)
class PerronResult:
    """Positive simplicial fixed point on one strongly connected component."""

    vertices: Tuple[int, ...]
    ranking: Dict[int, float]
    eigenvalue: float
    residual: float
    iterations: int


def metric_distance(r1: Mapping[int, float], r2: Mapping[int, float]) -> float:
    """Max-norm distance between two rankings on the same vertex set."""
    return max(abs(r1[v] - r2[v]) for v in r1)


def uniform_ranking(t: Tournament) -> SimplicialRanking:
    return {x: 1.0 / t.n for x in t.vertices()}


def recalc_apply(t: Tournament, r: SimplicialRanking) -> SimplicialRanking:
    """One step of the rank-sum recalculation: r(x) <- sum over x's out-set, normalized.

    Works on floats and on exact Fractions alike.
    """
    sums = {x: sum(r[z] for z in members(o)) for x, o in enumerate(t.out, start=1)}
    lam = sum(sums.values())
    if lam == 0:
        raise ZeroNormalizerError("rank-sum normalizer is zero")
    return {x: sums[x] / lam for x in t.vertices()}


def iterate_to_fixed_point(
    recalc: Callable[[SimplicialRanking], SimplicialRanking],
    r0: SimplicialRanking,
    cfg: RecalcConfig = RecalcConfig(),
) -> SimplicialRanking:
    """Best-effort plain iteration of an arbitrary recalculation.

    Returns r with d(recalc(r), r) <= tolerance, or raises NoConvergenceError
    (plain iteration need not converge, e.g. on periodic orbits).
    """
    r = dict(r0)
    for _ in range(cfg.max_iterations + 1):
        nxt = recalc(r)
        if metric_distance(nxt, r) <= cfg.tolerance:
            return r
        r = nxt
    raise NoConvergenceError(cfg.max_iterations)


def perron_fixed_point(
    t: Tournament,
    cfg: RecalcConfig = RecalcConfig(),
    vertices: Optional[Tuple[int, ...]] = None,
) -> PerronResult:
    """Dominant eigenvector of one strongly connected component.

    `vertices` names the component (default: all of t).  Its 0/1 matrix is
    filled straight from t's out-set bitsets, rows and columns in ascending label
    order, and the score cut on the row sums decides strong connectivity.
    Power iteration on A + shift*I; the shift makes the iteration matrix
    primitive for every irreducible component (the plain recalculation can
    cycle, e.g. with period 3 on the 3-cycle) without moving eigenvectors.
    Stops when the unshifted residual max|lambda*r - A*r| <= tolerance.
    """
    if vertices is None:
        labels = tuple(t.vertices())
    else:
        labels = tuple(sorted(set(vertices)))
        for v in labels:
            if not 1 <= v <= t.n:
                raise UnknownVertexError(f"vertex {v} not in 1..{t.n}")
    k = len(labels)
    column = np.full(t.n + 1, -1, dtype=np.intp)  # label -> column, -1 outside
    column[list(labels)] = np.arange(k)
    a = np.zeros((k, k))
    for i, x in enumerate(labels):
        cols = column[members(t.out[x - 1])]
        a[i, cols[cols >= 0]] = 1.0
    if k < 3 or len(_score_components(np.count_nonzero(a, axis=1).tolist())) != 1:
        raise NotStronglyConnectedError(
            f"component of size {k} is not a strongly connected tournament with n >= 3"
        )
    r = np.full(k, 1.0 / k)
    for it in range(1, cfg.max_iterations + 1):
        ar = a @ r
        lam = float(ar.sum())  # r sums to 1, so sum(A r) estimates lambda
        residual = float(np.max(np.abs(lam * r - ar)))
        if residual <= cfg.tolerance:
            ranking = {labels[i]: float(r[i]) for i in range(k)}
            return PerronResult(labels, ranking, lam, residual, it - 1)
        nr = ar + cfg.shift * r
        r = nr / nr.sum()
    raise NoConvergenceError(cfg.max_iterations)


@dataclass(frozen=True)
class ComponentSolve:
    vertices: Tuple[int, ...]
    perron: Optional[PerronResult]  # None for singleton components


@dataclass(frozen=True)
class LinearFairResult:
    """Assembled linear-fair ranking with its per-component solver data."""

    ranking: Ranking
    components: Tuple[ComponentSolve, ...]
    verified: bool

    def to_json(self) -> dict:
        return {
            "components": [
                {
                    "vertices": list(c.vertices),
                    "lambda": None if c.perron is None else c.perron.eigenvalue,
                    "residual": None if c.perron is None else c.perron.residual,
                    "iterations": 0 if c.perron is None else c.perron.iterations,
                }
                for c in self.components
            ],
            "ranking": [self.ranking[v] for v in sorted(self.ranking.values.keys())],
            "verified": self.verified,
        }


def linear_fair_ranking(
    t: Tournament, cfg: RecalcConfig = RecalcConfig()
) -> LinearFairResult:
    """Construct a strictly positive ranking satisfying the linear fairness axiom.

    Components are placed losers-first.  Component i's Perron vector p_i
    (singletons: p = 1) is multiplied by the single factor
    c_i = ((1 + 1/n) * top + 1) / min(p_i), where top is the largest value
    placed so far, so every component sits strictly above all earlier ones.

    Why this is linear fair: inside a component one factor keeps
    sum(x) = c_i * lambda_i * p_i(x) + (sum of all lower components), so sums
    and ranks order alike.  Across components, x above y beats all of y's
    component and everything below it while y's out-set lies in that set
    minus y, so sum(x) >= sum(y) + r(y) > sum(y): strict separation of the
    ranks is all that is needed.  The 1/n relative margin keeps that
    separation under float rounding, where a bare +1 vanishes at large
    magnitudes.  The assembly is checked once; a failed check or a
    non-finite value raises VerificationFailedError.
    """
    solves: List[ComponentSolve] = []
    values: Dict[int, float] = {}
    top = 0.0
    for comp in scc_decompose(t):
        verts = tuple(sorted(comp))
        if len(verts) == 1:
            solves.append(ComponentSolve(verts, None))
            p = {verts[0]: 1.0}
        else:
            res = perron_fixed_point(t, cfg, verts)
            solves.append(ComponentSolve(verts, res))
            p = res.ranking
        c = ((1.0 + 1.0 / t.n) * top + 1.0) / min(p.values())
        for v, val in p.items():
            values[v] = c * val
        top = max(values[v] for v in verts)
    if not all(math.isfinite(val) for val in values.values()):
        raise VerificationFailedError(None, "assembled ranking is not finite")
    ranking = Ranking.approx(values)
    verdict = is_fair(t, ranking, FairnessClass.LIN)
    if not verdict.ok:
        raise VerificationFailedError(verdict.certificate)
    return LinearFairResult(ranking, tuple(solves), True)
