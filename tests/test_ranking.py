import copy
import dataclasses
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import ranking as ranking_module
from fairrank import (
    BackwardReport,
    DomainMismatchError,
    FairnessClass,
    FairnessVerdict,
    Ranking,
    Tournament,
    TournamentSyntaxError,
    backward_arcs,
    build_tournament,
    copeland_ranking,
    gen_random,
    is_fair,
    linear_fair_ranking,
    min_backward_fair,
    min_backward_injective,
    parse_ranking,
    serialize_ranking,
)
from fairrank.optimize import _level_array
from fairrank.ranking import (
    DEFAULT_EPS,
    _above,
    _below,
    _int_sums,
    _keys,
)
from fairrank.tournament import DEFAULT_VERTEX_CAP
from oracles import (
    arcs,
    backward_arcs_pairs,
    backward_pairs,
    enumerate_all,
    injection_exists,
    is_fair_pairs,
    linear_sums,
    sorted_dominance,
    spectral_leq,
    spectral_leq_bruteforce,
    spectral_strict_less,
)

FC = FairnessClass
OVERFLOW_ARCS = [(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 1), (4, 5)]


def exact(*vals):
    return Ranking.exact({i + 1: v for i, v in enumerate(vals)})


class TestBackwardArcs:
    def test_three_cycle_identity(self, three_cycle):
        rep = backward_arcs(three_cycle, exact(1, 2, 3))
        assert set(backward_pairs(rep)) == {(1, 2), (2, 3)}
        assert rep.fraction == Fraction(2, 3)

    def test_constant_ranking(self, three_cycle):
        rep = backward_arcs(three_cycle, exact(1, 1, 1))
        assert rep.count == 0
        assert rep.fraction == 0

    def test_chain_dominance_order(self, chain3):
        rep = backward_arcs(chain3, exact(3, 2, 1))
        assert rep.count == 0

    def test_domain_mismatch(self, three_cycle):
        with pytest.raises(DomainMismatchError):
            backward_arcs(three_cycle, exact(1, 2))

    def test_trichotomy(self):
        rng = random.Random(5)
        for seed in range(20):
            t = gen_random(6, seed)
            r = exact(*[rng.randint(1, 4) for _ in range(6)])
            back = set(backward_pairs(backward_arcs(t, r)))
            forward = {(x, y) for (x, y) in arcs(t) if r[x] > r[y]}
            level = {(x, y) for (x, y) in arcs(t) if r[x] == r[y]}
            assert back | forward | level == set(arcs(t))
            assert not (back & forward) and not (back & level) and not (forward & level)

    def test_reversal_covers_all_arcs(self):
        # for injective r, an arc is backward in exactly one of r and -r
        for seed in range(20):
            t = gen_random(6, seed)
            perm = list(range(1, 7))
            random.Random(seed).shuffle(perm)
            r = Ranking.exact({v: p for v, p in zip(t.vertices(), perm)})
            rev = Ranking.exact({v: -r[v] for v in t.vertices()})
            b1 = set(backward_pairs(backward_arcs(t, r)))
            b2 = set(backward_pairs(backward_arcs(t, rev)))
            assert b1 | b2 == set(arcs(t))
            assert min(len(b1), len(b2)) <= t.num_arcs // 2


class TestCopelandAndWeak:
    @pytest.mark.parametrize("cls", [FC.NSCOP, FC.SCOP, FC.COP, FC.WEAK])
    def test_out_degree_ranking_is_fair(self, cls):
        for t in enumerate_all(4):
            assert is_fair(t, copeland_ranking(t), cls).ok
        for seed in range(10):
            t = gen_random(25, seed)
            assert is_fair(t, copeland_ranking(t), cls).ok

    def test_cycle_tie_break_violates_nscop(self, three_cycle):
        r = exact(1, 1, 2)
        assert is_fair(three_cycle, r, FC.SCOP).ok
        verdict = is_fair(three_cycle, r, FC.NSCOP)
        assert not verdict.ok
        assert verdict.certificate == (3, 1)

    def test_constant_is_nscop(self, chain3):
        assert is_fair(chain3, exact(0, 0, 0), FC.NSCOP).ok
        assert not is_fair(chain3, exact(0, 0, 0), FC.SCOP).ok

    def test_certificate_is_lex_least(self, chain3):
        verdict = is_fair(chain3, exact(1, 2, 3), FC.SCOP)
        assert not verdict.ok
        assert verdict.certificate == (2, 1)

    def test_injective(self, three_cycle):
        assert is_fair(three_cycle, exact(3, 1, 2), FC.INJ).ok
        verdict = is_fair(three_cycle, exact(1, 2, 1), FC.INJ)
        assert verdict.certificate == (1, 3)


class TestSpectral:
    def test_empty_out_set_injects(self, chain3):
        r = exact(3, 2, 1)
        assert spectral_leq(chain3, r, 3, 1)
        assert spectral_strict_less(chain3, r, 3, 1)

    def test_single_rank_comparison(self):
        assert not sorted_dominance([5], [3], lambda a, b: a <= b)
        assert sorted_dominance([1, 4], [2, 2, 5], lambda a, b: a <= b)

    def test_reflexive(self, three_cycle):
        r = exact(1, 2, 3)
        for x in three_cycle.vertices():
            assert spectral_leq(three_cycle, r, x, x)
            assert not spectral_strict_less(three_cycle, r, x, x)

    def test_constant_cycle_no_strict_pairs(self, three_cycle):
        r = exact(1, 1, 1)
        for x in three_cycle.vertices():
            for y in three_cycle.vertices():
                assert not spectral_strict_less(three_cycle, r, x, y)

    def test_transitive_on_random_instances(self):
        rng = random.Random(0)
        for seed in range(15):
            t = gen_random(6, seed)
            r = exact(*[rng.randint(1, 3) for _ in range(6)])
            leq = {(x, y): spectral_leq(t, r, x, y)
                   for x in t.vertices() for y in t.vertices()}
            for x in t.vertices():
                for y in t.vertices():
                    for z in t.vertices():
                        if leq[(x, y)] and leq[(y, z)]:
                            assert leq[(x, z)]

    def test_shortcut_matches_bruteforce_on_tournaments(self):
        rng = random.Random(1)
        for seed in range(25):
            t = gen_random(6, seed)
            r = exact(*[rng.randint(1, 4) for _ in range(6)])
            for x in t.vertices():
                for y in t.vertices():
                    assert spectral_leq(t, r, x, y) == spectral_leq_bruteforce(t, r, x, y)

    @given(
        st.lists(st.integers(0, 6), max_size=5),
        st.lists(st.integers(0, 6), max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_shortcut_matches_bruteforce_on_spectra(self, sx, sy):
        leq = lambda a, b: a <= b
        assert sorted_dominance(sx, sy, leq) == injection_exists(sx, sy, leq)


class TestLinear:
    def test_uniform_cycle_sums(self, three_cycle):
        r = exact(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        assert linear_sums(three_cycle, r) == {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}
        assert is_fair(three_cycle, r, FC.LIN).ok

    def test_chain_sums(self, chain3):
        r = exact(4, 2, 1)
        assert linear_sums(chain3, r) == {1: 3, 2: 1, 3: 0}
        assert is_fair(chain3, r, FC.LIN).ok

    def test_nonpositive_rank_soft_fails(self, chain3):
        verdict = is_fair(chain3, exact(4, 2, 0), FC.LIN)
        assert not verdict.ok
        assert verdict.certificate == (3, 3)
        assert "non-positive" in verdict.reason

    def test_scaling_invariance(self):
        for seed in range(10):
            t = gen_random(5, seed)
            for blocks in [(1, 1, 2, 2, 3), (1, 2, 3, 4, 5)]:
                r = exact(*blocks)
                scaled = Ranking.exact({v: 7 * r[v] for v in t.vertices()})
                assert is_fair(t, r, FC.LIN).ok == is_fair(t, scaled, FC.LIN).ok

    def test_float_sums_past_float_range(self):
        # every out-sum passes float range, yet each is an exact sum: the
        # verdict is that of the same ranking scaled down exactly, (3, 1)
        t = build_tournament(5, OVERFLOW_ARCS)
        for r in (Ranking.approx({1: 1e308, 2: 1e308, 3: 1e308, 4: 1e308, 5: 9e307}),
                  exact(1, 1, 1, 1, Fraction(9, 10))):
            verdict = is_fair(t, r, FC.LIN)
            assert (verdict.ok, verdict.certificate, verdict.reason) == (
                False, (3, 1), "strict linear violated")
            assert verdict == is_fair_pairs(t, r, FC.LIN)


def primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def linear_cases():
    """(name, tournament, ranking) cases for LIN's exact and float out-sums."""
    rng = random.Random(21)
    denominators = primes(40)
    cases = []
    for n in (64, 65, 200):
        t = gen_random(n, n)
        shuffled = rng.sample(range(1, n + 1), n)
        cases += [
            (f"copeland-{n}", t, copeland_ranking(t)),
            (f"shuffled-{n}", t, Ranking(dict(enumerate(shuffled, start=1)))),
            # the LCM of the denominators makes keys of hundreds of bits
            (f"p/q-{n}", t, Ranking({v: Fraction(rng.randint(1, 9), rng.choice(denominators))
                                     for v in t.vertices()})),
            (f"powers-of-two-{n}", t, Ranking({v: 2 ** rng.randrange(70) for v in t.vertices()})),
            (f"above-2**64-{n}", t, Ranking({v: 2**64 + rng.randrange(3) for v in t.vertices()})),
        ]
    # x beats every y < x: ranks x and 2**(x - 1) both pass, on sums
    # x(x - 1)/2 and 2**(x - 1) - 1
    for n in (65, 200):
        t = Tournament([(1 << x) - 1 for x in range(n)])
        cases += [(f"transitive-{n}", t, Ranking({x: x for x in t.vertices()})),
                  (f"transitive-powers-{n}", t, Ranking({x: 2 ** (x - 1) for x in t.vertices()}))]
    t = gen_random(65, 3)
    for bad in (0, -1):
        values = {v: v for v in t.vertices()}
        values[40] = bad
        cases.append((f"non-positive-{bad}", t, Ranking(values)))
    # keys at the 32-bit limb edges: one limb ends at 2**32 - 1, two at
    # 2**64 - 1; each key alone, mixed, and mixed within 2 of an edge
    edges = [2**32 - 1, 2**32, 2**64 - 1, 2**64]
    t = gen_random(9, 9)
    cases += [(f"all-{k:#x}", t, Ranking(dict.fromkeys(t.vertices(), k))) for k in edges]
    cases += [("limb-edges", t, Ranking({v: rng.choice(edges) for v in t.vertices()})),
              ("near-limb-edges", t, Ranking({v: rng.choice(edges) + rng.randrange(-2, 3)
                                              for v in t.vertices()}))]
    one = Tournament([0])
    cases += [("n=1", one, Ranking({1: 1})), ("n=1-zero", one, Ranking({1: 0}))]
    # float ranks sum exactly: the linear-fair ranking passes, the Copeland
    # ranking as floats does not, and ranks 1 + deg * 4e-10 chain neighbours
    # within eps
    for n in (65, 200):
        t = gen_random(n, n)
        cases += [
            (f"linear-fair-{n}", t, linear_fair_ranking(t).ranking),
            (f"copeland-float-{n}", t, Ranking.approx(copeland_ranking(t).values)),
            (f"near-ties-{n}", t, Ranking({v: 1 + t.out_degree(v) * 4e-10 for v in t.vertices()})),
        ]
    # vertex 1 beats all and ranks +inf: no out-set holds it, so no out-sum
    # meets it and the verdict is decided (it passes)
    t = Tournament([(1 << 65) - 2] + [o & ~1 for o in gen_random(65, 4).out[1:]])
    values = dict(linear_fair_ranking(t).ranking.values)
    values[1] = math.inf
    cases += [("inf-on-top", t, Ranking(values)), ("n=1-float", one, Ranking({1: 0.5})),
              ("n=1-inf", one, Ranking({1: math.inf}))]
    return cases


LINEAR_CASES = linear_cases()
POSITIVE_CASES = [c for c in LINEAR_CASES if min(c[2].values.values()) > 0 and c[2].is_exact]
FLOAT_CASES = [c for c in LINEAR_CASES if not c[2].is_exact]


class TestLinearOutSums:
    # exact keys sum in 32-bit limbs, one float64 product of the out-set
    # matrix with the limb columns (`_int_sums`, `_exact_sums`): the verdict
    # must be the pair scan's, and the sums the reference's, at any width

    @pytest.mark.parametrize("name, t, r", LINEAR_CASES, ids=[c[0] for c in LINEAR_CASES])
    def test_matches_the_pair_scan(self, name, t, r):
        expected = is_fair_pairs(t, r, FC.LIN)
        assert is_fair(t, r, FC.LIN) == expected
        if name.startswith("non-positive"):
            assert expected.certificate == (40, 40) and expected.reason == "non-positive rank"

    @pytest.mark.parametrize("entries", [ranking_module.CHUNK_ENTRIES, 1])
    @pytest.mark.parametrize("name, t, r", POSITIVE_CASES, ids=[c[0] for c in POSITIVE_CASES])
    def test_exact_sums_are_the_out_sums(self, monkeypatch, name, t, r, entries):
        # the keys are the values times one scale, the LCM of their
        # denominators; entries = 1 puts each out-set in a block of its own
        monkeypatch.setattr(ranking_module, "CHUNK_ENTRIES", entries)
        key, _ = _keys(t, r)
        scale = key[1] / Fraction(r[1])
        expected = [scale * s for s in linear_sums(t, r).values()]
        assert _int_sums(t.out, key[1:]) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_weak_order_levels_at_n6(self, seed):
        t = gen_random(6, seed)
        for levels in _level_array(6).T.tolist():
            r = Ranking(dict(enumerate(levels, start=1)))
            assert is_fair(t, r, FC.LIN) == is_fair_pairs(t, r, FC.LIN), levels

    def test_exact_at_the_vertex_cap(self):
        # x beats every y < x at n = 10 000, every key 2**32 - 1: the largest
        # out-sum, 9999 * (2**32 - 1), is the largest one limb reaches at the cap
        n = DEFAULT_VERTEX_CAP
        t = Tournament([(1 << x) - 1 for x in range(n)])
        assert _int_sums(t.out, [2**32 - 1] * n) == [(x - 1) * (2**32 - 1) for x in t.vertices()]


class TestFloatOutSums:
    # float ranks sum exactly, each its binary value scaled to an int by one
    # power of two, through the same `_int_sums` as exact ranks: the verdict
    # must be the pair scan's, whose Fraction sums compare within eps exactly

    @pytest.mark.parametrize("entries", [ranking_module.CHUNK_ENTRIES, 1])
    def test_random_rankings(self, monkeypatch, entries):
        # entries = 1 puts each out-set in a block of its own
        monkeypatch.setattr(ranking_module, "CHUNK_ENTRIES", entries)
        rng = random.Random(34)
        for n in range(1, 81):
            t = gen_random(n, n)
            low = rng.uniform(-5, 280)  # magnitudes 1e-5 to 1e300
            values = [10 ** rng.uniform(low, low + 20) for _ in range(n)]
            if rng.random() < 0.3:
                # an infinite rank in an out-set has no exact sum; on a
                # vertex that beats every other, it is never summed
                v = rng.randrange(n)
                values[v] = math.inf
                r = Ranking(dict(enumerate(values, start=1)))
                if t.out[v].bit_count() < n - 1:
                    with pytest.raises(ValueError, match="infinite rank lies in an out-set"):
                        is_fair(t, r, FC.LIN)
                    t = Tournament([(1 << n) - 1 - (1 << v) if u == v else o & ~(1 << v)
                                    for u, o in enumerate(t.out)])
            r = Ranking(dict(enumerate(values, start=1)))
            assert is_fair(t, r, FC.LIN) == is_fair_pairs(t, r, FC.LIN), (n, values)

    @pytest.mark.parametrize("name, t, r", FLOAT_CASES, ids=[c[0] for c in FLOAT_CASES])
    def test_linear_cases(self, monkeypatch, name, t, r):
        # each out-set in a block of its own; `test_matches_the_pair_scan`
        # decides the same cases in the default blocks
        monkeypatch.setattr(ranking_module, "CHUNK_ENTRIES", 1)
        assert is_fair(t, r, FC.LIN) == is_fair_pairs(t, r, FC.LIN)

    @pytest.mark.parametrize("n", [511, 512, 513, 1000, 1200])
    def test_across_block_edges(self, n):
        # CHUNK_ENTRIES // n rows a block: 256 at n = 511 and 512, 255 at 513
        # (a last block of 3 rows), 131 at 1000 and 109 at 1200
        t = gen_random(n, 1)
        r = linear_fair_ranking(t).ranking
        verdict = is_fair(t, r, FC.LIN)
        assert verdict.ok and verdict == is_fair_pairs(t, r, FC.LIN)


class TestInjective:
    # the lex-least pair of equal keys (within eps for floats), found
    # without a scan of all pairs

    @pytest.mark.parametrize("values, pair", [
        ((5, 3, 3, 5), (1, 4)),  # not the first repeat met in label order
        ((1, 2, 3, 3), (3, 4)),
        ((2, 1, 2, 1), (1, 3)),
        ((4, 3, 2, 1), None),
        ((7,), None),
        ((0.5, 0.5 + 6e-10, 0.5 + 1.2e-9), (1, 2)),  # 1 and 3 are 1.2e-9 apart
        ((0.5 + 1.2e-9, 0.5, 0.5 + 6e-10), (1, 3)),
        ((3.0, 1.0, 2.0, 1.0 + 5e-10), (2, 4)),
        ((3.0, 1.0, 2.0, 1.0 + 2e-9), None),
    ])
    def test_certificate(self, values, pair):
        n = len(values)
        t = gen_random(n, n)
        r = Ranking(dict(enumerate(values, start=1)))
        verdict = is_fair(t, r, FC.INJ)
        assert verdict.certificate == pair
        assert verdict == is_fair_pairs(t, r, FC.INJ)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_ties_match_the_pair_scan(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        t = gen_random(n, seed)
        levels = [rng.randint(1, n + 2) for _ in range(n)]
        for r in (Ranking(dict(enumerate(levels, start=1))),
                  Ranking({v: Fraction(k, 3) for v, k in enumerate(levels, start=1)}),
                  # steps of 0.4e-9 chain vertices within eps of a neighbour
                  Ranking({v: 1.0 + k * 4e-10 for v, k in enumerate(levels, start=1)})):
            assert is_fair(t, r, FC.INJ) == is_fair_pairs(t, r, FC.INJ), dict(r.values)

    @pytest.mark.parametrize("exact", [True, False])
    def test_one_tie_at_the_last_labels(self, exact):
        n = 120
        t = gen_random(n, 5)
        values = {v: v if exact else v / 7 for v in t.vertices()}
        assert is_fair(t, Ranking(values), FC.INJ).ok
        values[n] = values[n - 1]
        r = Ranking(values)
        assert is_fair(t, r, FC.INJ) == is_fair_pairs(t, r, FC.INJ)
        assert is_fair(t, r, FC.INJ).certificate == (n - 1, n)


class TestRankWalk:
    # `_above` and `_below` build every mask, the y that rank above and
    # below each x, as a scan of all pairs finds them; the popcount of
    # `_below` with e = 0 places each key among the others, as the
    # spectral axiom reads it

    @pytest.mark.parametrize("seed", range(20))
    def test_above_and_positions_read_the_walk(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        t = gen_random(n, seed)
        levels = [rng.randint(1, n + 2) for _ in range(n)]
        pool = (math.inf, -math.inf, 1.0, 1.0 + DEFAULT_EPS, 0.0, -1e308, 1e308)
        for values in (levels,
                       [Fraction(k, 3) for k in levels],
                       # steps of 0.4e-9 chain vertices within eps of a neighbour
                       [1.0 + k * 4e-10 for k in levels],
                       [rng.choice(pool) for _ in levels]):
            key, e = _keys(t, Ranking(dict(enumerate(values, start=1))))
            above, below, exact = _above(key, e), _below(key, e), _below(key, 0)
            for x in t.vertices():
                assert above[x] == sum(1 << (y - 1) for y in t.vertices() if key[y] - key[x] > e), (values, x)
                assert below[x] == sum(1 << (y - 1) for y in t.vertices() if key[x] - key[y] > e), (values, x)
                assert exact[x].bit_count() == sum(key[y] < key[x] for y in t.vertices()), (values, x)


class TestContainments:
    def test_implications_on_random_rankings(self):
        rng = random.Random(9)
        for seed in range(40):
            t = gen_random(5, seed)
            r = exact(*[rng.randint(1, 4) for _ in range(5)])
            if is_fair(t, r, FC.LIN).ok:
                assert is_fair(t, r, FC.SPEC).ok
            if is_fair(t, r, FC.SPEC).ok:
                assert is_fair(t, r, FC.WEAK).ok
            if is_fair(t, r, FC.COP).ok:
                assert is_fair(t, r, FC.SCOP).ok
            if is_fair(t, r, FC.SCOP).ok:
                assert is_fair(t, r, FC.WEAK).ok


class TestValuesDecideExactness:
    # a ranking is exact iff every value has a denominator, as ints and
    # Fractions do; floats, numpy floats and Decimals have none

    @pytest.mark.parametrize("cls", list(FC))
    def test_float_values_make_a_float_ranking(self, three_cycle, chain3, cls):
        for t in (three_cycle, chain3):
            r = Ranking({1: 0.5, 2: 1.0, 3: 2.0})
            assert not r.is_exact
            assert is_fair(t, r, cls) == is_fair_pairs(t, r, cls)

    def test_float_ranks_compare_with_eps(self, three_cycle):
        r = Ranking({1: 1.0, 2: 1.0 + 1e-12, 3: 2.0})
        assert is_fair(three_cycle, r, FC.INJ) == FairnessVerdict((1, 2), "equal ranks")

    def test_fraction_values_make_an_exact_ranking(self, three_cycle):
        third = Fraction(1, 3)
        r = Ranking({1: third, 2: third + Fraction(1, 10**12), 3: 2})
        assert r.is_exact
        assert is_fair(three_cycle, r, FC.INJ).ok  # 1e-12 apart, no tolerance

    @pytest.mark.parametrize("cls", list(FC))
    def test_one_float_makes_every_value_a_float(self, chain3, cls):
        mixed = Ranking({1: 0.5, 2: Fraction(1, 3), 3: 2})
        assert not mixed.is_exact
        assert is_fair(chain3, mixed, cls) == is_fair(chain3, Ranking.approx(mixed.values), cls)

    @pytest.mark.parametrize("number", [np.float32, Decimal])
    def test_values_without_a_denominator_make_a_float_ranking(self, three_cycle, number):
        r = Ranking({1: number("1"), 2: number("1.000000000001"), 3: number("2")})
        assert not r.is_exact
        for cls in FC:
            assert is_fair(three_cycle, r, cls) == is_fair(three_cycle, Ranking.approx(r.values), cls)

    def test_a_decimal_ranking_is_not_its_exact_twin(self, three_cycle):
        # the Decimal ranks compare as floats, tied within eps; the equal
        # Fractions are 1e-12 apart exactly, so the two rankings decide apart
        values = {1: Decimal(1), 2: Decimal("1.000000000001"), 3: Decimal(2)}
        r, twin = Ranking(values), Ranking.exact(values)
        assert not is_fair(three_cycle, r, FC.INJ).ok
        assert is_fair(three_cycle, twin, FC.INJ).ok
        assert r != twin

    @pytest.mark.parametrize("offset", [0, 2**62])
    def test_numpy_ints_decide_as_the_equal_python_ints(self, offset):
        # numpy ints have a denominator, so they are exact; their keys are
        # Python ints, which have bit_length and to_bytes (LIN's limbs read them) and
        # do not wrap at 2**63 in LIN's out-sums near 2**62
        t = gen_random(20, 1)
        ints = {v: offset + t.out_degree(v) + 1 for v in t.vertices()}
        r, twin = Ranking({v: np.int64(x) for v, x in ints.items()}), Ranking(ints)
        assert r.is_exact and r == twin
        for cls in FC:
            assert is_fair(t, r, cls) == is_fair(t, twin, cls), cls
        assert backward_arcs(t, r) == backward_arcs(t, twin)

    def test_equal_values_exact_and_float_are_different_rankings(self, three_cycle):
        # the same values are 1e-12 apart exactly but tied within eps
        values = {1: 1.0, 2: 1.000000000001, 3: 2.0}
        exact_r, float_r = Ranking.exact(values), Ranking.approx(values)
        assert is_fair(three_cycle, exact_r, FC.INJ).ok
        assert not is_fair(three_cycle, float_r, FC.INJ).ok
        assert exact_r != float_r
        assert exact_r == Ranking.exact(values) and float_r == Ranking.approx(values)
        assert Ranking({1: 1, 2: 2, 3: 3}) == exact(1, 2, 3)  # ints and Fractions alike

    @pytest.mark.parametrize("number", [np.float16, np.float32, np.float64, np.longdouble])
    def test_exact_reads_numpy_floats_by_their_binary_value(self, three_cycle, number):
        # Fraction refuses numpy floats that are not Python floats; Ranking.exact
        # takes each as the exact value of float(x), as the float ranking holds it
        values = {1: number(1.5), 2: number(0.1), 3: number(2)}
        r = Ranking.exact(values)
        assert r.is_exact
        assert r.values == {1: Fraction(3, 2), 2: Fraction(float(number(0.1))), 3: 2}
        assert r == Ranking.exact({v: float(x) for v, x in values.items()})
        for cls in FC:
            assert is_fair(three_cycle, r, cls) == is_fair_pairs(three_cycle, r, cls)

    @pytest.mark.parametrize("cls", list(FC))
    def test_float_ranking_with_an_exact_value_beyond_float_range(self, three_cycle, cls):
        mixed = Ranking({1: 0.5, 2: Fraction(10**400), 3: 2})
        with pytest.raises(ValueError, match="beyond float range"):
            is_fair(three_cycle, mixed, cls)
        with pytest.raises(ValueError, match="beyond float range"):
            backward_arcs(three_cycle, mixed)

    @pytest.mark.parametrize("nan", [math.nan, np.float64("nan"), Decimal("NaN")], ids=repr)
    def test_nan_is_refused(self, nan):
        # nan compares false both ways: on the transitive 1 -> 2 -> 3 with
        # 1 -> 3, the sorted walks passed NSCOP with vertex 3 above vertex 1
        t = gen_random(3, 4)
        r = Ranking({1: 2.0, 2: nan, 3: 3.0})
        for cls in FC:
            with pytest.raises(ValueError, match="nan"):
                is_fair(t, r, cls)
        with pytest.raises(ValueError, match="nan"):
            backward_arcs(t, r)


class TestPerCallPaths:
    # `_keys` decides the domain from its own lookups and reads all-int
    # values as they are

    @pytest.mark.parametrize("values, labels", [
        ({1: 1, 2: 2}, "[1, 2]"),  # vertex 3 unranked
        ({1: 1, 2: 2, 3: 3, 4: 4}, "[1, 2, 3, 4]"),  # 4 is not a vertex
        ({0: 1, 1: 2, 2: 3}, "[0, 1, 2]"),  # vertex 0 instead of 3
        ({0: 1, 1: 2, 2: 3, 3: 4}, "[0, 1, 2, 3]"),  # every vertex, and 0 too
        ({1: 1, 2: 2, 2.5: 3}, "[1, 2, 2.5]"),
        ({"1": 1, "2": 2, "3": 3}, "['1', '2', '3']"),
        ({1: 1, 2: 2, "3": 3}, "['3', 1, 2]"),  # labels that do not compare: sorted by repr
    ])
    def test_domain_mismatch_message(self, three_cycle, values, labels):
        message = f"ranking domain {labels} does not match 1..3"
        for r in (Ranking(values), Ranking.exact(values), Ranking.approx(values)):
            for cls in FC:
                with pytest.raises(DomainMismatchError) as exc:
                    is_fair(three_cycle, r, cls)
                assert str(exc.value) == message
            with pytest.raises(DomainMismatchError) as exc:
                backward_arcs(three_cycle, r)
            assert str(exc.value) == message

    @pytest.mark.parametrize("values", [
        (True, False, True, True),
        (False, True, 2, 1),
        (True, 2, Fraction(3, 2), Fraction(1, 2)),
        (3, Fraction(6, 2), 1, 2),
        (1, Fraction(3, 2), 1.5, 2),
        (2, 1, 0.5, Fraction(1, 3)),
        (3, 1, 3, 2),
    ])
    def test_value_types_decide_like_the_pair_scan(self, values):
        r = Ranking(dict(enumerate(values, start=1)))
        for t in enumerate_all(4):
            for cls in FC:
                assert is_fair(t, r, cls) == is_fair_pairs(t, r, cls), (t.out, cls)
            assert backward_pairs(backward_arcs(t, r)) == backward_arcs_pairs(t, r)

    def test_interleaved_tournaments_keep_their_own_scores(self):
        # t1, its equal copy and its relabeling share their scores, on the
        # same or on other vertices; each check builds its own per call
        t1, t2 = gen_random(7, 1), gen_random(7, 2)
        perm = (0, 3, 1, 2, 7, 5, 4, 6)  # relabels t1: the same scores on other vertices
        moved = build_tournament(7, [(perm[x], perm[y]) for x, y in arcs(t1)])
        copy = Tournament(list(t1.out))
        assert copy == t1 and copy is not t1 and moved != t1
        rng = random.Random(3)
        for _ in range(25):
            r = Ranking({v: rng.randint(1, 4) for v in range(1, 8)})
            for t in (t1, t2, copy, moved, t1, copy, t2):
                for cls in FC:
                    assert is_fair(t, r, cls) == is_fair_pairs(t, r, cls), (t.out, cls)

class TestKeptKeys:
    # a check keeps nothing on its arguments: a ranking has one slot, its
    # read-only values, and a tournament two, its out-sets and n

    def test_checks_keep_nothing_on_their_arguments(self):
        assert [f.name for f in dataclasses.fields(Ranking)] == ["values"]
        assert [f.name for f in dataclasses.fields(Tournament)] == ["out", "n"]
        assert Ranking.__slots__ == ("values",) and Tournament.__slots__ == ("out", "n")
        t = gen_random(200, 1)
        r = copeland_ranking(t)
        for cls in FC:
            is_fair(t, r, cls)
        backward_arcs(t, r)
        small = gen_random(6, 1)
        witness = min_backward_fair(small, FC.WEAK).witness
        for held in (t, r, small, witness):
            assert not hasattr(held, "__dict__"), held
        assert r == copeland_ranking(t) and small == gen_random(6, 1)

    def test_values_are_read_only(self):
        r = Ranking({1: 1, 2: 2, 3: 3})
        with pytest.raises(TypeError):
            r.values[1] = 9
        with pytest.raises(AttributeError):
            r.values = {1: 9, 2: 2, 3: 3}

    def test_copies_and_pickles_are_equal_rankings(self, chain3):
        r = Ranking({1: Fraction(1, 2), 2: 2, 3: 0.5})
        is_fair(chain3, r, FC.WEAK)
        for again in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert again == r and not again.is_exact
            with pytest.raises(TypeError):
                again.values[1] = 9
            for cls in FC:
                assert is_fair(chain3, again, cls) == is_fair(chain3, r, cls)

    def test_equal_rankings_hash_alike(self, three_cycle):
        r = Ranking.exact({1: 1, 2: Fraction(1, 2), 3: 3})
        same = Ranking({3: 3, 2: Fraction(1, 2), 1: 1})  # other order, an int for a Fraction
        assert r == same and hash(r) == hash(same)
        assert r != Ranking.approx(r.values)  # the float twin
        assert len({r, same, Ranking.approx(r.values)}) == 2
        res = min_backward_injective(three_cycle)
        assert hash(res) == hash(min_backward_injective(three_cycle))

    def test_the_mapping_given_is_copied(self, chain3):
        d = {1: 3, 2: 2, 3: 1}
        r = Ranking(d)
        before = {cls: is_fair(chain3, r, cls) for cls in FC}
        report = backward_pairs(backward_arcs(chain3, r))
        d[1], d[3] = 1, 3
        d[4] = 4
        assert r.values == {1: 3, 2: 2, 3: 1}
        for cls in FC:
            assert is_fair(chain3, r, cls) == before[cls] == is_fair_pairs(chain3, r, cls)
        assert backward_pairs(backward_arcs(chain3, r)) == report == ()

    @pytest.mark.parametrize("values", [
        (2, 1, 2, 3, 1),
        (Fraction(1, 3), Fraction(1, 2), 2, Fraction(1, 3), Fraction(7, 5)),
        (True, False, True, True, False),
        (0.5, 1.0, 1.0 + 1e-12, 0.25, 2.0),
    ])
    def test_first_and_repeated_calls_match_the_oracle(self, values):
        r = Ranking(dict(enumerate(values, start=1)))
        for t in (gen_random(5, 1), gen_random(5, 2)):
            for _ in range(2):
                for cls in FC:  # verdicts compare by certificate and reason
                    assert is_fair(t, r, cls) == is_fair_pairs(t, r, cls), (t.out, cls)
                assert backward_pairs(backward_arcs(t, r)) == backward_arcs_pairs(t, r)


def test_verdict_passes_iff_it_has_no_certificate():
    assert FairnessVerdict().ok and FairnessVerdict()
    failed = FairnessVerdict((1, 2), "r")
    assert failed.ok is False and not failed


def test_backward_total_is_the_pair_count_of_its_rows():
    assert BackwardReport((0, 0, 0, 0)).total == 6
    assert BackwardReport((0,)).fraction == 0


class TestRankingIO:
    def test_roundtrip_exact(self):
        r = exact(Fraction(1, 3), 2, Fraction(5, 7))
        again = parse_ranking(serialize_ranking(r))
        assert again.is_exact
        assert again.values == r.values

    def test_parse_float(self):
        r = parse_ranking("1 0.25\n2 1.5\n")
        assert not r.is_exact
        assert r[1] == 0.25

    def test_parse_rational(self):
        r = parse_ranking("1 3/4\n2 1\n")
        assert r.is_exact
        assert r[1] == Fraction(3, 4)

    def test_integers_stay_ints(self):
        text = "1 +5\n2 -3\n3 007\n4 6/3\n"
        r = parse_ranking(text)
        assert r.is_exact and r.values == {1: 5, 2: -3, 3: 7, 4: 2}
        assert [type(r[v]) for v in (1, 2, 3, 4)] == [int, int, int, Fraction]
        assert serialize_ranking(r) == "1 5\n2 -3\n3 7\n4 2\n"

    @pytest.mark.parametrize("value, text", [
        (Fraction(3), "3"), (Fraction(-7, 4), "-7/4"),
        (0.1, "0.1"), (1e-300, "1e-300"), (2.5e300, "2.5e+300"),
    ])
    def test_serialized_value_text(self, value, text):
        make = Ranking.exact if isinstance(value, Fraction) else Ranking.approx
        assert serialize_ranking(make({1: value})) == f"1 {text}\n"

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_rejected(self, raw):
        with pytest.raises(TournamentSyntaxError):
            parse_ranking(f"1 {raw}\n2 1\n")

    @pytest.mark.parametrize("raw", [
        # `int`, `float` and `Fraction` read '_' digit groups and non-ASCII digits
        "1_000", "1_0/3", "1_0.5", "1e1_0", "\u0661", "\u0661/3", "\uff11.5", "\U0001d7cf",
    ])
    def test_value_must_be_ascii_without_underscores(self, raw):
        with pytest.raises(TournamentSyntaxError, match=r"^bad value "):
            parse_ranking(f"1 {raw}\n2 1\n")

    @pytest.mark.parametrize("label", ["1_0", "\u0661", "\uff12"])
    def test_label_must_be_ascii_without_underscores(self, label):
        with pytest.raises(TournamentSyntaxError, match=r"^bad vertex in line "):
            parse_ranking(f"{label} 1\n2 1\n")

    def test_plain_values_keep_their_types(self):
        # the same numbers in plain ASCII digits: one int stays exact
        r = parse_ranking("1 1000\n2 10/3\n3 1\n")
        assert r.is_exact and r.values == {1: 1000, 2: Fraction(10, 3), 3: 1}
        assert not parse_ranking("1 1000\n2 1e10\n").is_exact
        # a non-ASCII space between the words separates them, as before
        assert parse_ranking("1\u00a01000\n2 10/3\n3 1\n") == r
