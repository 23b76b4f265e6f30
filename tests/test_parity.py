"""Parity of the sort-based predicates and the array parser with the pair scans.

The references in `oracles.py` are the pair-by-pair implementations that
the library used before: a scan of all ordered pairs for `is_fair`, a
comparison per arc for `backward_arcs`, and `build_tournament` fed the '1'
cells of a matrix in row-major order for the matrix parser.  They compare
rank values with the raw-value comparators `lt`, `eq` and `leq` of
`oracles.py` (exact ranks with < and ==, float ranks with b - a > eps and
|a - b| <= eps), never through the library's per-vertex keys.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import (
    DuplicateOrConflictError,
    FairnessClass,
    LoopArcError,
    MissingPairError,
    Ranking,
    TournamentSyntaxError,
    backward_arcs,
    build_tournament,
    copeland_ranking,
    enumerate_all,
    gen_random,
    is_fair,
    linear_fair_ranking,
    parse_tournament,
    serialize_tournament,
)
from fairrank.ranking import DEFAULT_EPS
from oracles import backward_arcs_pairs, backward_pairs, is_fair_pairs, iter_weak_orders, weak_order_ranking

FC = FairnessClass
MONOTONE = (FC.NSCOP, FC.SCOP, FC.COP, FC.LIN)


def verdict(v):
    return (v.ok, v.certificate, v.reason)


def assert_parity(t, r, classes=tuple(FC)):
    for c in classes:
        assert verdict(is_fair(t, r, c)) == verdict(is_fair_pairs(t, r, c)), c
    assert backward_pairs(backward_arcs(t, r)) == backward_arcs_pairs(t, r)


def perturbed(r, rng, k):
    """r with k random vertices moved to random values of r, plus or minus a step."""
    values = dict(r.values)
    pool = list(values.values())
    step = Fraction(1, 2) if r.is_exact else DEFAULT_EPS / 2
    for v in rng.sample(sorted(values), k):
        values[v] = rng.choice(pool) + rng.choice((-step, 0, step))
    return Ranking.exact(values) if r.is_exact else Ranking.approx(values)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_weak_order_ranking(n):
    for t in enumerate_all(n):
        for blocks in iter_weak_orders(list(t.vertices())):
            assert_parity(t, weak_order_ranking(blocks))


@pytest.mark.parametrize("n, seeds", [(6, range(12)), (40, range(1))])
def test_seeded_all_classes(n, seeds):
    for seed in seeds:
        rng = random.Random(seed)
        t = gen_random(n, seed)
        fair = linear_fair_ranking(t).ranking
        rankings = [
            copeland_ranking(t),
            Ranking.exact({v: rng.randint(1, 4) for v in t.vertices()}),
            Ranking.exact({v: Fraction(rng.randint(-2, 9), rng.randint(1, 6)) for v in t.vertices()}),
            fair,
            Ranking.exact({v: Fraction(x) for v, x in fair.values.items()}),
        ]
        for r in list(rankings):
            rankings += [perturbed(r, rng, 1), perturbed(r, rng, 3)]
        for r in rankings:
            assert_parity(t, r)


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_n200(seed):
    # the spectral pair scan takes seconds here, so spec parity stops at n = 40
    rng = random.Random(seed)
    t = gen_random(200, seed)
    fair = linear_fair_ranking(t).ranking
    exact_fair = Ranking.exact({v: Fraction(x) for v, x in fair.values.items()})
    for r in (copeland_ranking(t), fair, exact_fair):
        assert_parity(t, perturbed(r, rng, 2), MONOTONE + (FC.WEAK, FC.INJ))
    assert_parity(t, copeland_ranking(t), MONOTONE)
    assert_parity(t, fair, (FC.LIN,))


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 7),
    base=st.sampled_from([1.0, 3e6]),
    steps=st.lists(st.integers(0, 8), min_size=7, max_size=7),
)
@settings(max_examples=300, deadline=None)
def test_float_ranks_near_eps(seed, n, base, steps):
    # ranks base + k * eps/2 sit on both sides of the tolerance, and at 3e6
    # a step of eps/2 is about one ulp, so every difference is rounded
    t = gen_random(n, seed)
    r = Ranking.approx({v: base + steps[v - 1] * DEFAULT_EPS / 2 for v in t.vertices()})
    assert_parity(t, r)


# -- matrix parser -------------------------------------------------------------


def streamed(n, rows):
    """The matrix read cell by cell: build_tournament fed the '1' cells in row-major order."""
    return build_tournament(n, ((x, y) for x, row in enumerate(rows, start=1)
                                for y, c in enumerate(row, start=1) if c == "1"))


def outcome(build):
    try:
        t = build()
    except (LoopArcError, DuplicateOrConflictError, MissingPairError) as exc:
        return type(exc), str(exc)
    return t.out


def flip(rows, cells):
    grid = [list(row) for row in rows]
    for x, y in cells:
        grid[x - 1][y - 1] = "1" if grid[x - 1][y - 1] == "0" else "0"
    return ["".join(row) for row in grid]


def set_cells(rows, cells, value):
    return flip(rows, [(x, y) for x, y in cells if rows[x - 1][y - 1] != value])


def matrix_rows(t):
    return serialize_tournament(t).split()[1:]


LOOP_3 = {"1": [(3, 3)]}
CONFLICT_24 = {"1": [(2, 4), (4, 2)]}
CONFLICT_13 = {"1": [(1, 3), (3, 1)]}
CONFLICT_35 = {"1": [(3, 5), (5, 3)]}


@pytest.mark.parametrize("faults, error, message", [
    (LOOP_3, LoopArcError, "loop arc (3,3)"),
    (CONFLICT_24, DuplicateOrConflictError, "pair {4,2} oriented twice"),
    ({"0": [(2, 5), (5, 2)]}, MissingPairError, "pair {2,5} has no arc"),
    # row 3 holds the first error: the conflict at (3,1) before the loop at (3,3) ...
    ({"1": CONFLICT_13["1"] + LOOP_3["1"]}, DuplicateOrConflictError, "pair {3,1} oriented twice"),
    # ... but the loop before the conflict with 5, found only in row 5
    ({"1": CONFLICT_35["1"] + LOOP_3["1"]}, LoopArcError, "loop arc (3,3)"),
    # a missing pair counts only once every cell is read
    ({"1": [(6, 6)], "0": [(1, 2), (2, 1)]}, LoopArcError, "loop arc (6,6)"),
    ({"1": CONFLICT_24["1"], "0": [(1, 2), (2, 1)]}, DuplicateOrConflictError,
     "pair {4,2} oriented twice"),
])
def test_parser_errors_match_streaming(faults, error, message):
    t = gen_random(6, 4)
    rows = matrix_rows(t)
    for value, cells in faults.items():
        rows = set_cells(rows, cells, value)
    text = "\n".join([str(t.n)] + rows) + "\n"
    got = outcome(lambda: parse_tournament(text))
    assert got == outcome(lambda: streamed(t.n, rows)) == (error, message)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 7),
       flips=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=4))
@settings(max_examples=300, deadline=None)
def test_parser_matches_streaming_on_random_faults(seed, n, flips):
    rows = flip(matrix_rows(gen_random(n, seed)), [(x, y) for x, y in flips if x <= n and y <= n])
    text = "\n".join([str(n)] + rows) + "\n"
    assert outcome(lambda: parse_tournament(text)) == outcome(lambda: streamed(n, rows))


@pytest.mark.parametrize("n, seed", [(1, 0), (9, 2), (300, 5)])
def test_parsed_out_sets_iterate_as_built(n, seed):
    rows = matrix_rows(gen_random(n, seed))
    text = "\n".join([str(n)] + rows) + "\n"
    assert outcome(lambda: parse_tournament(text)) == outcome(lambda: streamed(n, rows))


def test_bad_row_still_a_syntax_error():
    with pytest.raises(TournamentSyntaxError):
        parse_tournament("3\n011\n0x1\n110\n")
    with pytest.raises(TournamentSyntaxError):
        parse_tournament("3\n011\n0é1\n000\n")
