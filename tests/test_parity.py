"""Parity of the sort-based predicates and the array parser with the pair scans.

The references in `oracles.py` are the pair-by-pair implementations that
the library used before: a scan of all ordered pairs for `is_fair`, a
comparison per arc for `backward_arcs`, and `build_tournament` fed the '1'
cells of a matrix in row-major order for the matrix parser.  They compare
rank values with the raw-value comparators `lt`, `eq` and `leq` that
`oracles.comparators` binds once per check (exact ranks with <, float
ranks with b - a > eps, and a tie where neither rank is below the
other), never through the library's
per-vertex keys.  The spectral axiom is decided in numpy chunks at every
n; every spectral parity check here runs it in its own chunks and once
more with one candidate pair per chunk, by patching the module constant,
and checks it against the list walk `spectral_verdict_lists` of
`oracles.py` as well as the pair scan.  Where the pair scan is too slow,
the list walk alone is the reference.
"""

import math
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
    gen_composite,
    gen_random,
    is_fair,
    linear_fair_ranking,
    parse_tournament,
    serialize_tournament,
)
from fairrank import ranking as ranking_module
from fairrank.ranking import DEFAULT_EPS
from fairrank.tournament import CHUNK_ENTRIES, DEFAULT_VERTEX_CAP, Tournament
from oracles import (
    backward_arcs_pairs,
    backward_pairs,
    enumerate_all,
    is_fair_pairs,
    iter_weak_orders,
    relabeled,
    spectral_verdict_lists,
    weak_order_ranking,
)

FC = FairnessClass
MONOTONE = (FC.NSCOP, FC.SCOP, FC.COP, FC.LIN)


def verdict(v):
    return (v.ok, v.certificate, v.reason)


# CHUNK_ENTRIES: numpy in its own chunks, and with one row per block and
# one pair per chunk
SPEC_PATHS = (CHUNK_ENTRIES, 1)


def spec_verdicts(t, r, paths=SPEC_PATHS):
    """The spectral verdict with each chunk size of `paths`, set by the
    constant where `ranking` reads it."""
    verdicts = []
    for chunk in paths:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ranking_module, "CHUNK_ENTRIES", chunk)
            verdicts.append(verdict(is_fair(t, r, FC.SPEC)))
    return verdicts


def assert_spec_parity(t, r):
    expected = verdict(is_fair_pairs(t, r, FC.SPEC))
    assert verdict(spectral_verdict_lists(t, r)) == expected
    assert spec_verdicts(t, r) == [expected] * len(SPEC_PATHS)


def assert_parity(t, r, classes=tuple(FC)):
    for c in classes:
        if c is FC.SPEC:
            assert_spec_parity(t, r)
        else:
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
            # keys far beyond 16 bits: the spectral lists and rows hold positions instead
            Ranking.exact({v: Fraction(rng.randint(-4, 4), rng.choice((1, 3, 10**30 + 7, 2**61 - 1)))
                           for v in t.vertices()}),
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


# -- weak axiom at scale ----------------------------------------------------------


def plant(t, pairs, miss=False):
    """t with x+ ⊆ y+ forced for each (x, y) in turn: y beats x and every z
    that x beats; with `miss`, every z but the highest-labelled, which
    beats y, so x+ misses y+ by that one vertex.  A later pair may undo an
    earlier one; the oracle judges."""
    out = list(t.out)
    for x, y in pairs:
        bx, by = 1 << (x - 1), 1 << (y - 1)
        out[x - 1] &= ~by
        out[y - 1] |= bx
        for z in range(1, t.n + 1):
            if out[x - 1] >> (z - 1) & 1:
                out[z - 1] &= ~by
                out[y - 1] |= 1 << (z - 1)
        if miss:
            z = out[x - 1].bit_length()
            out[z - 1] |= by
            out[y - 1] &= ~(1 << (z - 1))
    return Tournament(out)


def assert_weak_parity(t, r):
    got = is_fair(t, r, FC.WEAK)
    assert verdict(got) == verdict(is_fair_pairs(t, r, FC.WEAK))
    return got


NESTED = [(200, False), (1000, False)]


@pytest.fixture(scope="module", params=NESTED + [(200, True), (1000, True)],
                ids=["200", "1000", "near-miss-200", "near-miss-1000"])
def planted(request):
    """A random tournament with about n/50 dominated vertices planted, each
    x with a y whose out-set holds x's, the planted pairs, and whether the
    plant is a near miss.  A near miss has each y beat x and all of x+ but
    its highest-labelled vertex, so where y is a candidate of x, the weak
    check's filter of x runs through all of x+ before it drops y; then no
    out-set holds another, and every ranking passes."""
    n, miss = request.param
    rng = random.Random(n)
    pairs = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(n // 50)]
    t = plant(gen_random(n, 7), pairs, miss)
    assert bool(nested_pairs(t)) is not miss
    return t, pairs, miss


def test_weak_reversed_copeland(planted):
    t, _, miss = planted
    cop = copeland_ranking(t)
    reversed_cop = Ranking.exact({v: -x for v, x in cop.values.items()})
    assert assert_weak_parity(t, reversed_cop).ok is miss
    assert assert_weak_parity(t, cop)


def test_weak_copeland_with_swaps(planted):
    t, pairs, miss = planted
    rng = random.Random(3)
    values = dict(copeland_ranking(t).values)
    # two swaps within planted pairs, which break the axiom unless the
    # plant is a near miss, and three at random
    for x, y in pairs[-2:] + [tuple(rng.sample(sorted(values), 2)) for _ in range(3)]:
        values[x], values[y] = values[y], values[x]
    assert assert_weak_parity(t, Ranking.exact(values)).ok is miss


def test_weak_linear_fair_within_eps(planted):
    t, pairs, miss = planted
    rng = random.Random(5)
    fair = linear_fair_ranking(t).ranking
    steps = (-DEFAULT_EPS / 2, 0.0, DEFAULT_EPS / 2)
    assert_weak_parity(t, Ranking.approx({v: x + rng.choice(steps) for v, x in fair.values.items()}))
    # the dominating y of each planted pair moved to x's rank, give or take eps/2
    values = dict(fair.values)
    for x, y in pairs:
        values[y] = values[x] + rng.choice(steps)
    assert assert_weak_parity(t, Ranking.approx(values)).ok is miss


def swap_labels(t, a, b):
    """t with the vertices labeled a and b exchanged."""
    flip = 1 << (a - 1) | 1 << (b - 1)
    out = [o ^ flip if (o >> (a - 1) ^ o >> (b - 1)) & 1 else o for o in t.out]
    out[a - 1], out[b - 1] = out[b - 1], out[a - 1]
    return Tournament(out)


def nested_pairs(t):
    return [(x, y) for x in t.vertices() for y in t.vertices()
            if x != y and t.out[x - 1] & ~t.out[y - 1] == 0]


@pytest.mark.parametrize("planted", NESTED, ids=["200", "1000"], indirect=True)
def test_weak_certificate_is_lex_least_not_least_degree(planted):
    t, _, _ = planted
    # give the dominated vertex of least degree the largest label
    x = min(nested_pairs(t), key=lambda p: (t.out_degree(p[0]), p))[0]
    t = swap_labels(t, x, t.n)
    nested = nested_pairs(t)
    assert min(nested) != min(nested, key=lambda p: (t.out_degree(p[0]), p))
    # the constant ranking breaks the axiom at every nested pair
    got = assert_weak_parity(t, Ranking.exact({v: 1 for v in t.vertices()}))
    assert got.certificate == min(nested)


def test_weak_certificate_names_the_lower_of_two_survivors():
    # x = 100 nested in 150, then in 120; both tie with x, so both survive
    # x's filter, and the certificate names the lower
    t = plant(gen_random(200, 7), [(100, 150), (100, 120)])
    assert {(100, 120), (100, 150)} <= set(nested_pairs(t))
    values = dict(copeland_ranking(t).values)
    values[120] = values[150] = values[100]
    assert assert_weak_parity(t, Ranking.exact(values)).certificate == (100, 120)


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


# -- the first bad row, across row blocks ----------------------------------------

N = 400  # the parser reads the rows of these tests in two blocks
B = CHUNK_ENTRIES // N  # rows B and B + 1 straddle the first block boundary


def bad_char(row):
    return row[:-1] + "x"


def non_ascii(row):
    return row[:-1] + "é"


def non_ascii_digit(row):
    return "١" + row[1:]  # ARABIC-INDIC DIGIT ONE


def too_long(row):
    return row + "0"


def too_short(row):
    return row[:-1]


@pytest.mark.parametrize("n, edits, reported", [
    (6, {2: bad_char, 4: too_long}, 2),
    (6, {2: too_long, 4: bad_char}, 2),
    (6, {3: too_short, 5: non_ascii}, 3),
    (6, {3: non_ascii}, 3),
    (6, {6: non_ascii_digit}, 6),
    (6, {1: lambda row: "é" * 6, 2: too_short}, 1),
    (N, {B: bad_char, B + 1: too_long}, B),
    (N, {B: too_short, B + 1: bad_char}, B),
    (N, {B + 1: bad_char, B + 9: too_long}, B + 1),
    (N, {B + 1: too_long, B + 2: non_ascii}, B + 1),
    (N, {N: non_ascii}, N),
])
def test_parser_reports_first_bad_row(n, edits, reported):
    rows = matrix_rows(gen_random(n, 8))
    for k, edit in edits.items():
        rows[k - 1] = edit(rows[k - 1])
    with pytest.raises(TournamentSyntaxError) as info:
        parse_tournament("\n".join([str(n)] + rows) + "\n")
    assert str(info.value) == f"bad matrix row {rows[reported - 1]!r}"


@pytest.mark.parametrize("faults, error, message", [
    ({"1": [(B, B)]}, LoopArcError, f"loop arc ({B},{B})"),
    ({"1": [(B + 1, B + 1)]}, LoopArcError, f"loop arc ({B + 1},{B + 1})"),
    ({"1": [(B, B + 1), (B + 1, B)]}, DuplicateOrConflictError, f"pair {{{B + 1},{B}}} oriented twice"),
    ({"1": [(3, B + 2), (B + 2, 3)]}, DuplicateOrConflictError, f"pair {{{B + 2},3}} oriented twice"),
    # row B's conflict comes before row B + 1's loop
    ({"1": [(2, B), (B, 2), (B + 1, B + 1)]}, DuplicateOrConflictError, f"pair {{{B},2}} oriented twice"),
    ({"0": [(B, B + 1), (B + 1, B)]}, MissingPairError, f"pair {{{B},{B + 1}}} has no arc"),
    ({"0": [(B + 1, B + 2), (B + 2, B + 1)]}, MissingPairError, f"pair {{{B + 1},{B + 2}}} has no arc"),
    ({"0": [(2, B + 3), (B + 3, 2)]}, MissingPairError, f"pair {{2,{B + 3}}} has no arc"),
    ({"0": [(1, 2), (2, 1)], "1": [(B + 1, B + 1)]}, LoopArcError, f"loop arc ({B + 1},{B + 1})"),
])
def test_parser_faults_across_a_block_boundary(faults, error, message):
    n = N
    rows = matrix_rows(gen_random(n, 9))
    for value, cells in faults.items():
        rows = set_cells(rows, cells, value)
    text = "\n".join([str(n)] + rows) + "\n"
    assert outcome(lambda: parse_tournament(text)) == outcome(lambda: streamed(n, rows)) == (error, message)


# -- spectral axiom in numpy chunks ----------------------------------------------
# `is_fair` tests only the candidate pairs of the degree and rank-sum
# prunes, in numpy chunks of sorted spectra; `spectral_verdict_lists` tests
# the candidates of the degree prune alone on sorted lists of rank
# positions, and `is_fair_pairs` sorts both spectra of every ordered pair
# and compares them entry by entry with the raw-value comparators.


@pytest.mark.parametrize("l", [1, 2, 3])
def test_spec_relabeled_composite(l):
    # the composite family's linear-fair ranks tie within 3e-17 on a layer,
    # so the perturbed ranks straddle the tolerance between near-equal spectra
    rng = random.Random(l)
    base = gen_composite(l)
    for _ in range(3):
        perm = rng.sample(range(1, base.n + 1), base.n)
        t = relabeled(base, perm)
        fair = linear_fair_ranking(t).ranking
        rankings = [fair, copeland_ranking(t), *[perturbed(fair, rng, k) for k in (1, 3, base.n // 2)]]
        rankings.append(Ranking.approx(
            {v: x + rng.choice((0.0, -0.5, 0.5, 1.5)) * DEFAULT_EPS for v, x in fair.values.items()}))
        for r in rankings:  # INJ on float ranks masks the near-tie chains too
            assert_parity(t, r, (FC.SPEC, FC.INJ))


@pytest.mark.parametrize("seed", range(60))
def test_spec_infinite_ranks(seed):
    # inf - inf is nan, which is not > eps: two equal infinities tie, inf
    # ranks above every finite value and -inf below.  LIN's exact out-sums
    # refuse an infinite rank in an out-set once every rank is positive.
    rng = random.Random(seed)
    t = gen_random(rng.randint(2, 8), seed)
    pool = (math.inf, -math.inf, 1.0, 1.0 + DEFAULT_EPS, 0.0, -1e308, 1e308)
    r = Ranking({v: rng.choice(pool) for v in t.vertices()})
    classes = tuple(FC)
    if min(r.values.values()) > 0 and any(
            r[v] == math.inf and t.out_degree(v) < t.n - 1 for v in t.vertices()):
        with pytest.raises(ValueError, match="infinite rank lies in an out-set"):
            is_fair(t, r, FC.LIN)
        classes = tuple(c for c in FC if c is not FC.LIN)
    assert_parity(t, r, classes)


@given(seed=st.integers(0, 10_000), n=st.integers(5, 7),
       levels=st.lists(st.integers(1, 4), min_size=7, max_size=7))
@settings(max_examples=200, deadline=None)
def test_spec_weak_order_rankings(seed, n, levels):
    t = gen_random(n, seed)
    assert_spec_parity(t, Ranking(dict(zip(t.vertices(), levels))))


def test_spec_fields_hold_every_index():
    # an int16 row of `_spectral_verdict` holds indexes and lows up to n
    assert DEFAULT_VERTEX_CAP < 2**15


@pytest.mark.parametrize("n, pair", [(1000, (3, 176)), (2000, (8, 1468))])
def test_spec_copeland_certificates_at_scale(n, pair):
    t = gen_random(n, 1)
    assert verdict(is_fair(t, copeland_ranking(t), FC.SPEC)) == (
        False, pair, "strict spectral violated")


# where the pair scan is too slow, the list walk of `oracles.py` checks
# numpy in its own chunks and numpy with blocks and chunks of 8
def assert_spec_paths_agree(t, r):
    expected = verdict(spectral_verdict_lists(t, r))
    assert spec_verdicts(t, r, (CHUNK_ENTRIES, 8 * t.n)) == [expected] * 2
    return expected


@pytest.mark.parametrize("n", [200, 1000])
def test_spec_paths_agree_at_scale(n):
    rng = random.Random(n)
    t = gen_random(n, 1)
    fair, cop = linear_fair_ranking(t).ranking, copeland_ranking(t)
    rankings = (fair, cop, perturbed(fair, rng, 2), perturbed(fair, rng, n // 2), perturbed(cop, rng, 3))
    passed = [assert_spec_paths_agree(t, r)[0] for r in rankings]
    assert passed[0] and passed.count(False) >= 2  # both outcomes occur


@pytest.mark.parametrize("l", [4, 6, 8])
def test_spec_paths_agree_on_relabeled_composite(l):
    rng = random.Random(l)
    base = gen_composite(l)
    t = relabeled(base, rng.sample(range(1, base.n + 1), base.n))
    fair = linear_fair_ranking(t).ranking
    for r in (fair, copeland_ranking(t), *[perturbed(fair, rng, k) for k in (1, 3, base.n // 2)]):
        assert_spec_paths_agree(t, r)


def test_spec_sorts_each_spectrum_once_per_side(monkeypatch):
    # up to n = 512 the numpy path keeps every sorted row, for x and y alike:
    # a check sorts each spectrum's indexes once and, when float ranks make
    # lows differ from indexes, its lows once more; above it the rank-sum
    # prune leaves few enough candidates that the linear-fair ranking of
    # random n = 2000 still sorts at most 2n rows
    rng = random.Random(4)
    base = gen_composite(4)
    t = relabeled(base, rng.sample(range(1, base.n + 1), base.n))
    big = gen_random(2000, 1)
    sorted_rows = []
    spectra = ranking_module._spectra

    def counted(out, rows, ranks):
        sorted_rows.append(len(rows))
        return spectra(out, rows, ranks)

    monkeypatch.setattr(ranking_module, "_spectra", counted)
    for t, r, most in ((t, linear_fair_ranking(t).ranking, 2 * t.n), (t, copeland_ranking(t), t.n),
                       (big, linear_fair_ranking(big).ranking, 2 * big.n)):
        sorted_rows.clear()
        assert is_fair(t, r, FC.SPEC).ok
        assert sum(sorted_rows) <= most
