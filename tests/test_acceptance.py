"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time
from fractions import Fraction

from fairrank import (
    FairnessClass,
    Ranking,
    composite_fraction,
    gen_composite,
    gen_random,
    gen_rotational,
    is_fair,
    linear_fair_ranking,
    min_backward_copeland_closed_form,
    min_backward_fair,
    min_backward_injective,
    scc_decompose,
    verify_copeland_upper_bound,
)
from fairrank.optimize import composite_edge_count, composite_min_backward_count
from oracles import (
    composite_vertex,
    enumerate_all,
    injection_exists,
    iter_weak_orders,
    metric_distance,
    recalc_apply,
    sorted_dominance,
    weak_order_ranking,
)

FC = FairnessClass
EPS = 1e-9


def report(num, text, started):
    print(f"criterion {num}: PASS ({time.time() - started:.1f}s) - {text}")


def test_criterion_1_composite_family_exactness():
    started = time.time()
    for l in range(1, 5):
        t = gen_composite(l)
        assert t.n == (2 * l + 1) ** 2
        assert t.num_arcs == 2 * l * (l + 1) * (2 * l + 1) ** 2 == composite_edge_count(l)
        for m in range(1, 2 * l + 2):
            for i in range(1, 2 * l + 2):
                assert t.out_degree(composite_vertex(m, i, l)) == (m - 1) + l + 2 * l * l
        res = min_backward_copeland_closed_form(t)
        assert res.count == composite_min_backward_count(l)
        assert res.fraction == composite_fraction(l)
    assert composite_fraction(1) == Fraction(12, 36)
    assert composite_fraction(2) == Fraction(140, 300)
    assert time.time() - started < 10
    report(1, "composite family counts and degrees exact for l=1..4", started)


def test_criterion_2_emn_limit_reproduction():
    started = time.time()
    fractions = [composite_fraction(l) for l in range(1, 1001)]
    assert all(a < b for a, b in zip(fractions, fractions[1:]))
    assert all(f < Fraction(3, 4) for f in fractions)
    assert composite_fraction(100) == Fraction(30100, 40602)
    assert Fraction(3, 4) - composite_fraction(1000) < Fraction(2, 1000)
    assert time.time() - started < 1
    report(2, "closed-form fractions increase to 3/4, f(100)=30100/40602", started)


def test_criterion_3_copeland_upper_bound():
    started = time.time()
    expected = {3: Fraction(2, 3), 4: Fraction(2, 3), 5: Fraction(7, 10)}
    counts = {3: 8, 4: 64, 5: 1024}
    for n, bound in expected.items():
        rep = verify_copeland_upper_bound(n)
        assert rep.checked == counts[n]
        assert rep.bound == bound
        assert rep.all_within
        assert rep.max_fraction <= bound < Fraction(3, 4)
    assert time.time() - started < 30
    report(3, "min sCop fraction within per-size bounds on all n=3,4,5", started)


def test_criterion_4_oracle_equivalence():
    started = time.time()
    checked = 0
    for n in (3, 4, 5):
        for t in enumerate_all(n):
            closed = min_backward_copeland_closed_form(t).count
            assert min_backward_fair(t, FC.SCOP).count == closed
            assert min_backward_fair(t, FC.INJ).count == min_backward_injective(t).count
            checked += 1
    assert checked == 1096
    assert time.time() - started < 300
    report(4, f"weak-order minima match closed form and permutation search "
              f"on {checked} tournaments", started)


def test_criterion_5_linear_fair_existence():
    started = time.time()

    def check(t):
        res = linear_fair_ranking(t)
        for cls in (FC.LIN, FC.SPEC, FC.WEAK):
            assert is_fair(t, res.ranking, cls).ok
        for comp in res.components:
            if len(comp.vertices) > 1:
                assert len(comp.vertices) >= 3
                assert comp.residual <= EPS
                assert comp.eigenvalue >= 1.0

    total = 0
    for n in range(1, 6):
        for t in enumerate_all(n):
            check(t)
            total += 1
    for seed in range(100):
        check(gen_random(50, seed))
        total += 1
    assert time.time() - started < 120
    report(5, "linear-fair ranking exists and verifies on all n<=5 and 100 "
              "random n=50", started)


def test_criterion_6_fixed_point_contract():
    started = time.time()
    cycle = gen_rotational(1)
    res = linear_fair_ranking(cycle).components[0]
    assert abs(res.eigenvalue - 1.0) <= EPS
    assert all(abs(v - 1 / 3) <= EPS for v in res.ranking.values())
    st2 = gen_rotational(2)
    res2 = linear_fair_ranking(st2).components[0]
    assert abs(res2.eigenvalue - 2.0) <= EPS
    assert all(abs(v - 1 / 5) <= EPS for v in res2.ranking.values())
    contract_checked = 0
    for seed in range(50):
        t = gen_random(12, seed)
        if len(scc_decompose(t)) != 1:
            continue
        perron = linear_fair_ranking(t).components[0]
        assert metric_distance(recalc_apply(t, perron.ranking), perron.ranking) <= EPS
        contract_checked += 1
    assert contract_checked >= 20
    report(6, "fixed-point residuals within 1e-9; uniform solutions on the "
              "symmetric instances", started)


def test_criterion_7_containment_properties():
    started = time.time()
    checked = 0
    for n in (3, 4):
        for t in enumerate_all(n):
            for blocks in iter_weak_orders(list(t.vertices())):
                r = weak_order_ranking(blocks)
                if is_fair(t, r, FC.LIN).ok:
                    assert is_fair(t, r, FC.SPEC).ok
                if is_fair(t, r, FC.SPEC).ok:
                    assert is_fair(t, r, FC.WEAK).ok
                if is_fair(t, r, FC.COP).ok:
                    assert is_fair(t, r, FC.SCOP).ok
                if is_fair(t, r, FC.SCOP).ok:
                    assert is_fair(t, r, FC.WEAK).ok
                checked += 1
    rng = random.Random(2024)
    for _ in range(10_000):
        n = rng.randint(3, 8)
        t = gen_random(n, rng.getrandbits(32))
        r = Ranking.exact({v: rng.randint(1, n) for v in t.vertices()})
        if is_fair(t, r, FC.LIN).ok:
            assert is_fair(t, r, FC.SPEC).ok
        if is_fair(t, r, FC.SPEC).ok:
            assert is_fair(t, r, FC.WEAK).ok
        if is_fair(t, r, FC.COP).ok:
            assert is_fair(t, r, FC.SCOP).ok
        if is_fair(t, r, FC.SCOP).ok:
            assert is_fair(t, r, FC.WEAK).ok
        checked += 1
    report(7, f"Lin=>Spec=>Weak and Cop=>sCop=>Weak on {checked} rankings, "
              "zero counterexamples", started)


def test_criterion_8_spectral_shortcut_soundness():
    started = time.time()
    rng = random.Random(77)
    leq = lambda a, b: a <= b
    for _ in range(10_000):
        sx = [rng.randint(0, 8) for _ in range(rng.randint(0, 6))]
        sy = [rng.randint(0, 8) for _ in range(rng.randint(0, 6))]
        assert sorted_dominance(sx, sy, leq) == injection_exists(sx, sy, leq)
    report(8, "sorted-dominance agrees with brute-force injection on 10000 "
              "spectrum pairs", started)


def test_criterion_9_reversal_bound():
    started = time.time()
    assert min_backward_injective(gen_rotational(1)).count == 1
    for n in range(1, 6):
        half = n * (n - 1) // 2 // 2
        for t in enumerate_all(n):
            assert min_backward_injective(t).count <= half
    for seed in range(100):
        t = gen_random(7, seed)
        assert min_backward_injective(t).count <= 10
    report(9, "min injective backward count never exceeds half the arcs", started)
