"""The Perron solve per strong component and the linear-fair assembly.

The rank-sum recalculation sends a ranking r to the normalized vector of
out-neighborhood rank sums.  Its fixed points on a strongly connected
tournament are Perron eigenvectors of the 0/1 adjacency matrix, which
`perron_fixed_point` computes by shifted power iteration.  Scaling each
component's eigenvector by one factor, so that every component sits
strictly above the ones it beats, yields in one pass a strictly positive
ranking that satisfies the linear fairness axiom on any tournament
(`linear_fair_ranking`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .errors import (
    NoConvergenceError,
    NotStronglyConnectedError,
    UnknownVertexError,
    VerificationFailedError,
)
from .ranking import FairnessClass, Ranking, is_fair
from .tournament import CHUNK_ENTRIES, Tournament, _score_components, scc_decompose, unpack_rows

# Residual bound max|lambda*r - A*r| of the Perron vector: a thousand times
# finer than DEFAULT_EPS, the tolerance its scaled ranks are compared with.
TOLERANCE = 1e-12
# Step budget.  Strong components converge in at most 46 steps on every
# tournament with n <= 6 and in 9 at random n = 1000, but the count grows
# with n on nearly transitive ones (i beats every j < i, except that 1
# beats n): 52 steps at n = 10, 143 at n = 200 and 234 at n = 1500, where
# the smallest Perron entry is 3.0e-7.
MAX_ITERATIONS = 100_000
# Any positive shift makes A + SHIFT*I primitive on a strong component
# without moving its eigenvectors; A alone cycles on the 3-cycle.
SHIFT = 1.0


@dataclass(frozen=True)
class PerronResult:
    """Positive simplicial fixed point on one strongly connected component,
    or on a singleton: its 1 x 1 zero matrix has the exact solve {v: 1.0},
    eigenvalue 0.0, residual 0.0, in 0 iterations."""

    ranking: Dict[int, float]  # in ascending label order
    eigenvalue: float
    residual: float
    iterations: int

    @property
    def vertices(self) -> Tuple[int, ...]:
        return tuple(self.ranking)


def perron_fixed_point(t: Tournament, vertices: Iterable[int]) -> PerronResult:
    """Dominant eigenvector of one strongly connected component.

    `vertices` names the component (`t.vertices()` for all of t).  Its 0/1
    matrix, rows and columns in ascending label order, is a dense
    C-contiguous float64 array (a strided matrix makes the product round
    differently) filled from t's out-set bitsets in row blocks of
    B = max(8, (CHUNK_ENTRIES // k) // 8 * 8) rows: one `unpack_rows` and
    one write of the component's columns per block, with no gather of the
    columns when the component is all of t.  Each power step
    multiplies block by block, so no product is large enough for OpenBLAS
    to thread; every k <= 360 is one block and one product.  B stays a
    multiple of 8, which keeps the ranks bit-identical to the single
    `a @ r`: blocks of 262 rows changed the last bits of random n = 1000
    ranks, while 256 and 128 rows reproduce them.  The k x k matrix is
    still whole, so memory grows as k**2 (800 MB at k = 10 000).
    The score cut on the out-degrees within the component, read off the
    out-set bitsets before any matrix is built, decides strong connectivity.
    Power iteration on A + SHIFT*I; stops when the unshifted residual
    max|lambda*r - A*r| <= TOLERANCE, or raises NoConvergenceError after
    MAX_ITERATIONS steps.
    """
    labels = tuple(sorted(set(vertices)))
    for v in labels:
        if not 1 <= v <= t.n:
            raise UnknownVertexError(f"vertex {v} not in 1..{t.n}")
    k = len(labels)
    component = sum(1 << (v - 1) for v in labels)
    scores = [(t.out[v - 1] & component).bit_count() for v in labels]
    if k < 3 or len(_score_components(scores)) != 1:
        raise NotStronglyConnectedError(
            f"component of size {k} is not a strongly connected tournament with n >= 3"
        )
    columns = np.array(labels, dtype=np.intp) - 1
    block = max(8, (CHUNK_ENTRIES // k) // 8 * 8)
    starts = range(0, k, block)
    a = np.empty((k, k))
    for i in starts:
        rows = unpack_rows(t.out, columns[i:i + block].tolist())
        a[i:i + block] = rows if k == t.n else rows[:, columns]  # all of t: no gather
    r = np.full(k, 1.0 / k)
    ar = np.empty(k)
    for it in range(1, MAX_ITERATIONS + 1):
        for i in starts:
            np.matmul(a[i:i + block], r, out=ar[i:i + block])
        lam = float(ar.sum())  # r sums to 1, so sum(A r) estimates lambda
        residual = float(np.max(np.abs(lam * r - ar)))
        if residual <= TOLERANCE:
            return PerronResult(dict(zip(labels, r.tolist())), lam, residual, it - 1)
        nr = ar + SHIFT * r
        r = nr / nr.sum()
    raise NoConvergenceError(MAX_ITERATIONS)


@dataclass(frozen=True)
class LinearFairResult:
    """Assembled linear-fair ranking with each component's solve, losers-first."""

    ranking: Ranking
    components: Tuple[PerronResult, ...]


def linear_fair_ranking(t: Tournament) -> LinearFairResult:
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
    magnitudes.  The assembly is checked once; a failed check, or a top
    rank beyond float range, raises VerificationFailedError.
    """
    solves: List[PerronResult] = []
    values: Dict[int, float] = {}
    top = 0.0
    for comp in scc_decompose(t):
        solve = (perron_fixed_point(t, comp) if len(comp) > 1
                 else PerronResult(dict.fromkeys(comp, 1.0), 0.0, 0.0, 0))
        solves.append(solve)
        p = solve.ranking
        c = ((1.0 + 1.0 / t.n) * top + 1.0) / min(p.values())
        for v, val in p.items():
            values[v] = c * val
        top = c * max(p.values())  # the largest value placed: fl(c * a) rises with a
    # the check sums the ranks exactly, so only an infinite rank is refused
    if not math.isfinite(top):
        raise VerificationFailedError(None, "assembled ranking is not finite")
    ranking = Ranking(values)
    verdict = is_fair(t, ranking, FairnessClass.LIN)
    if not verdict.ok:
        raise VerificationFailedError(verdict.certificate)
    return LinearFairResult(ranking, tuple(solves))
