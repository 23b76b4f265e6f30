import json
from fractions import Fraction

import numpy as np
import pytest

from fairrank import (
    FairnessClass,
    NoConvergenceError,
    NotStronglyConnectedError,
    PerronResult,
    Tournament,
    UnknownVertexError,
    VerificationFailedError,
    build_tournament,
    fixpoint,
    gen_composite,
    gen_random,
    gen_rotational,
    is_fair,
    linear_fair_ranking,
    perron_fixed_point,
    scc_decompose,
    serialize_tournament,
)
from fairrank.cli import linear_fair_json, main
from oracles import (arcs, enumerate_all, induced, metric_distance, out_set,
                     perron_fixed_point_dense, recalc_apply)

FC = FairnessClass

# n = 6 tournament on which additive offsets 2i + p/max(p) break LIN
TRAP_OUT = {1: {2, 3, 4, 6}, 2: {3, 4, 5, 6}, 3: {4, 5, 6}, 4: {5, 6}, 5: {1, 6}, 6: set()}


def transitive(n):
    return build_tournament(n, [(x, y) for x in range(1, n + 1) for y in range(x + 1, n + 1)])


def cycle_above_pair():
    """The 3-cycle 1 -> 2 -> 3 -> 1 beating both of 4 -> 5."""
    arcs = [(1, 2), (2, 3), (3, 1), (4, 5)]
    return build_tournament(5, arcs + [(x, y) for x in (1, 2, 3) for y in (4, 5)])


def stacked_three_cycles(blocks):
    """Block b is the 3-cycle on 3b+1..3b+3; every later block beats every earlier one."""
    arcs = []
    for b in range(blocks):
        u, v, w = 3 * b + 1, 3 * b + 2, 3 * b + 3
        arcs += [(u, v), (v, w), (w, u)]
        arcs += [(x, y) for x in (u, v, w) for y in range(1, 3 * b + 1)]
    return build_tournament(3 * blocks, arcs)


def nearly_transitive(n):
    """Vertex i beats every j < i, except that vertex 1 beats n: one strong component."""
    return build_tournament(
        n, [(1, n)] + [(i, j) for i in range(2, n + 1) for j in range(1, i) if (i, j) != (n, 1)])


def stacked_blocks(block, copies):
    """`copies` copies of the tournament whose out-sets on 1..k are `block`
    (vertex -> set); every later copy beats every earlier one."""
    k = len(block)
    bits = [sum(1 << (y - 1) for y in block[x]) for x in range(1, k + 1)]
    return Tournament([b << (c * k) | (1 << (c * k)) - 1 for c in range(copies) for b in bits])


def stacked_random(n, seed):
    """Two copies of gen_random(n, seed), the copy on n+1..2n beating the other."""
    t = gen_random(n, seed)
    return stacked_blocks({x: out_set(t, x) for x in t.vertices()}, 2)


# vertices 1 and 2 get Perron entries a rounding error apart; (85, 86) is
# that pair in the 15th copy
TIED_BLOCK = {1: {2, 4, 5}, 2: {3, 4, 6}, 3: {1, 4, 5, 6}, 4: {5, 6}, 5: {2, 6}, 6: {1}}
# nearly transitive 10-block: i beats every j < i, except that 1 beats 10
STEEP_BLOCK = {i: set(range(1, i)) for i in range(2, 10)} | {1: {10}, 10: set(range(2, 10))}


def uniform_exact(t):
    return {x: Fraction(1, t.n) for x in t.vertices()}


class TestRecalc:
    def test_cycle_uniform_fixed(self, three_cycle):
        u = uniform_exact(three_cycle)
        assert recalc_apply(three_cycle, u) == u

    def test_chain_uniform(self, chain3):
        out = recalc_apply(chain3, uniform_exact(chain3))
        assert out == {1: Fraction(2, 3), 2: Fraction(1, 3), 3: Fraction(0)}

    def test_cycle_period_three(self, three_cycle):
        r = {1: Fraction(1), 2: Fraction(0), 3: Fraction(0)}
        step1 = recalc_apply(three_cycle, r)
        assert step1 == {1: Fraction(0), 2: Fraction(0), 3: Fraction(1)}
        step3 = recalc_apply(three_cycle, recalc_apply(three_cycle, step1))
        assert step3 == r

    def test_output_is_simplicial(self):
        for seed in range(10):
            t = gen_random(7, seed)
            if len(scc_decompose(t)) != 1:
                continue
            out = recalc_apply(t, uniform_exact(t))
            assert sum(out.values()) == 1
            assert all(v >= 0 for v in out.values())


class TestPerron:
    def test_three_cycle(self, three_cycle):
        res = perron_fixed_point(three_cycle, three_cycle.vertices())
        assert abs(res.eigenvalue - 1.0) <= 1e-9
        for v in res.ranking.values():
            assert abs(v - 1 / 3) <= 1e-9

    def test_rotational_l2(self):
        t = gen_rotational(2)
        res = perron_fixed_point(t, t.vertices())
        assert abs(res.eigenvalue - 2.0) <= 1e-9
        for v in res.ranking.values():
            assert abs(v - 1 / 5) <= 1e-9

    def test_random_strongly_connected(self):
        found = 0
        for seed in range(40):
            t = gen_random(12, seed)
            if len(scc_decompose(t)) != 1:
                continue
            found += 1
            res = perron_fixed_point(t, t.vertices())
            assert res.residual <= 1e-9
            assert res.eigenvalue >= 1.0
            assert all(v > 0 for v in res.ranking.values())
            # fixed-point contract for the unshifted recalculation
            phi = recalc_apply(t, res.ranking)
            assert metric_distance(phi, res.ranking) <= 1e-9
            if found >= 10:
                break
        assert found >= 5

    def test_reducible_rejected(self, chain3):
        with pytest.raises(NotStronglyConnectedError):
            perron_fixed_point(chain3, chain3.vertices())

    @pytest.mark.parametrize("vertices", [(1, 2, 3, 4), (1, 2, 4), (1, 2)])
    def test_reducible_vertex_subset_rejected(self, vertices):
        with pytest.raises(NotStronglyConnectedError):
            perron_fixed_point(cycle_above_pair(), vertices=vertices)

    @pytest.mark.parametrize("vertices", [(0, 1, 2), (-1, 2, 3), (1, 2, 6)])
    def test_label_outside_range_rejected(self, vertices):
        # labels are checked against 1..n before they index any array
        with pytest.raises(UnknownVertexError):
            perron_fixed_point(cycle_above_pair(), vertices=vertices)

    @pytest.mark.parametrize(
        "make",
        [pytest.param(lambda s=s: gen_random(1000, s), id=f"random-1000-{s}") for s in (1, 2, 3)]
        + [pytest.param(lambda: gen_random(2000, 1), id="random-2000-1"),
           # blocks of 2**17 // 777 = 168 rows, and a last block of 105
           pytest.param(lambda: gen_random(777, 1), id="random-777-1"),
           # two components of 600 vertices, each filled in three blocks
           pytest.param(lambda: stacked_random(600, 1), id="stacked-random-600")],
    )
    def test_row_blocks_match_dense_solve(self, make):
        # blocks of a multiple of 8 rows round as the single product does,
        # so ranking, eigenvalue, residual and step count all match exactly
        t = make()
        comps = [c for c in scc_decompose(t) if len(c) > 1]
        assert min(map(len, comps)) > 512
        for comp in comps:
            assert perron_fixed_point(t, comp) == perron_fixed_point_dense(t, comp)

    def test_reducible_subset_across_blocks_rejected(self):
        # the union of both 600-vertex components, refused before any block
        t = stacked_random(600, 1)
        with pytest.raises(NotStronglyConnectedError):
            perron_fixed_point(t, t.vertices())

    def test_label_outside_range_rejected_before_any_block(self, monkeypatch):
        def unpack(*args, **kwargs):
            raise AssertionError("a block was unpacked")

        t = stacked_random(600, 1)
        monkeypatch.setattr(np, "unpackbits", unpack)
        with pytest.raises(UnknownVertexError):
            perron_fixed_point(t, (*range(1, 601), t.n + 1))

    @pytest.mark.parametrize(
        "make",
        [pytest.param(lambda n=n, s=s: gen_random(n, s), id=f"random-{n}-{s}")
         for n in (12, 50, 200) for s in range(3)]
        + [pytest.param(lambda: stacked_three_cycles(300), id="stacked-3-cycles-300")],
    )
    def test_component_solve_matches_induced_copy(self, make):
        # the matrix filled in place equals the one of the copied component,
        # so the power iteration takes the same steps to the same floats
        t = make()
        solved = 0
        for comp in linear_fair_ranking(t).components:
            if len(comp.vertices) == 1:
                continue
            sub, labels = induced(t, comp.vertices)
            ref = perron_fixed_point(sub, sub.vertices())
            assert comp.vertices == labels
            assert comp.ranking == {labels[i - 1]: v for i, v in ref.ranking.items()}
            assert (comp.eigenvalue, comp.residual, comp.iterations) == (
                ref.eigenvalue, ref.residual, ref.iterations)
            solved += 1
        assert solved

    @pytest.mark.parametrize("n", [5, 12, 50, 200])
    def test_matches_numpy_dominant_eigenpair(self, n):
        # the shifted power iteration finds the eigenpair numpy's dense
        # solver calls dominant, normalized to sum 1
        strong = [t for t in (gen_random(n, s) for s in range(5))
                  if len(scc_decompose(t)) == 1]
        assert strong
        for t in strong:
            res = perron_fixed_point(t, t.vertices())
            a = np.zeros((n, n))
            for x, y in arcs(t):
                a[x - 1, y - 1] = 1.0
            eigenvalues, eigenvectors = np.linalg.eig(a)
            top = int(np.argmax(eigenvalues.real))
            vec = eigenvectors[:, top].real
            vec /= vec.sum()
            assert abs(res.eigenvalue - eigenvalues[top].real) <= 1e-11
            assert np.max(np.abs(vec - [res.ranking[v] for v in t.vertices()])) <= 1e-11

    def test_shift_keeps_small_tournaments_within_46_steps(self):
        # the bound quoted at MAX_ITERATIONS (43 steps at most here); with
        # SHIFT = 0 the worst strong tournament on 5 vertices takes 204
        steps = [perron_fixed_point(t, t.vertices()).iterations for n in (3, 4, 5)
                 for t in enumerate_all(n) if len(scc_decompose(t)) == 1]
        assert max(steps) <= 46

    def test_no_convergence_within_budget(self, monkeypatch):
        monkeypatch.setattr(fixpoint, "MAX_ITERATIONS", 1)
        t = gen_random(12, 0)
        with pytest.raises(NoConvergenceError) as info:
            perron_fixed_point(t, t.vertices())
        assert info.value.iterations == 1


class TestLinearFair:
    def test_three_cycle(self, three_cycle):
        res = linear_fair_ranking(three_cycle)
        for v in three_cycle.vertices():
            assert abs(res.ranking[v] - 1.0) <= 1e-9

    def test_chain_strictly_increasing(self, chain3):
        res = linear_fair_ranking(chain3)
        assert res.ranking[3] < res.ranking[2] < res.ranking[1]
        assert is_fair(chain3, res.ranking, FC.LIN).ok

    def test_composite_l1(self):
        t = gen_composite(1)
        res = linear_fair_ranking(t)
        assert is_fair(t, res.ranking, FC.LIN).ok

    @pytest.mark.parametrize("cls", [FC.LIN, FC.SPEC, FC.WEAK])
    def test_random_instances_pass_downstream_classes(self, cls):
        for seed in range(20):
            t = gen_random(15, seed)
            res = linear_fair_ranking(t)
            assert is_fair(t, res.ranking, cls).ok

    def test_all_ranks_positive(self):
        for seed in range(20):
            t = gen_random(10, seed)
            res = linear_fair_ranking(t)
            assert all(v > 0 for v in res.ranking.values.values())

    @pytest.mark.parametrize(
        "make",
        [pytest.param(lambda n=n, s=s: gen_random(n, s), id=f"random-{n}-{s}")
         for n in (400, 500) for s in (1, 3, 4)]
        + [pytest.param(lambda: transitive(1100), id="transitive-1100"),
           pytest.param(lambda: build_tournament(
               6, [(x, y) for x, ys in TRAP_OUT.items() for y in ys]), id="trap-6")],
    )
    def test_lin_holds_on_reproduced_failures(self, make):
        # near-tied Perron entries inside one component (random), overflow
        # of geometric scaling across 1100 components (transitive)
        t = make()
        assert is_fair(t, linear_fair_ranking(t).ranking, FC.LIN).ok

    def test_nearly_transitive_within_quoted_steps(self):
        # the step count quoted at MAX_ITERATIONS grows with n on this family
        t = nearly_transitive(200)
        res = linear_fair_ranking(t)
        (comp,) = res.components
        assert comp.iterations <= 160
        for cls in (FC.LIN, FC.SPEC, FC.WEAK):
            assert is_fair(t, res.ranking, cls).ok

    # The exits below are defects of the float assembly (exit 4 in the
    # CLI); ROADMAP item 1, 24 or 26 turns them into successes.
    def test_float_ties_fail_verification(self):
        t = stacked_blocks(TIED_BLOCK, 60)
        with pytest.raises(VerificationFailedError) as info:
            linear_fair_ranking(t)
        assert info.value.certificate == (91, 92)

    @pytest.mark.parametrize("seed, pair", [(2137895388, (306, 798)), (265862673, (826, 569))])
    def test_random_near_ties_fail_verification(self, seed, pair):
        # one strong component: Perron entries closer than eps apart, whose
        # out-sums differ by more than eps
        with pytest.raises(VerificationFailedError) as info:
            linear_fair_ranking(gen_random(1000, seed))
        assert info.value.certificate == pair

    def test_geometric_scaling_overflows(self, tmp_path, capsys):
        # the top rank grows about 9x per block: 1.9e286 at 300 blocks
        t = stacked_blocks(STEEP_BLOCK, 330)
        with pytest.raises(VerificationFailedError, match="assembled ranking is not finite"):
            linear_fair_ranking(t)
        path = tmp_path / "t.txt"
        path.write_text(serialize_tournament(t))
        assert main(["rank", "--in", str(path), "--method", "linear-fair"]) == 4
        assert capsys.readouterr().err == "error: assembled ranking is not finite\n"

    def test_singleton_component_is_its_exact_solve(self, monkeypatch):
        # 3-cycle on 1..3 above the singletons 4 and 5; no Perron solve for these
        t = cycle_above_pair()
        calls = []
        real = fixpoint.perron_fixed_point
        monkeypatch.setattr(fixpoint, "perron_fixed_point",
                            lambda t, vs: calls.append(tuple(sorted(vs))) or real(t, vs))
        low, high, top = linear_fair_ranking(t).components
        assert calls == [(1, 2, 3)]
        assert low == PerronResult({5: 1.0}, 0.0, 0.0, 0) and low.vertices == (5,)
        assert high == PerronResult({4: 1.0}, 0.0, 0.0, 0) and high.vertices == (4,)
        assert top.vertices == (1, 2, 3)

    def test_rank_report_nulls_for_singletons(self, tmp_path, capsys):
        path, report = tmp_path / "t.txt", tmp_path / "report.json"
        path.write_text(serialize_tournament(cycle_above_pair()))
        assert main(["rank", "--in", str(path), "--method", "linear-fair",
                     "--out", str(tmp_path / "r.txt"), "--json-report", str(report)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == ["  component [5]: singleton", "  component [4]: singleton"]
        assert lines[3].startswith("  component [1, 2, 3]: lambda=1.000000000 ")
        components = json.loads(report.read_text())["components"]
        assert components[:2] == [
            {"vertices": [5], "lambda": None, "residual": None, "iterations": 0},
            {"vertices": [4], "lambda": None, "residual": None, "iterations": 0},
        ]
        assert components[2]["vertices"] == [1, 2, 3] and abs(components[2]["lambda"] - 1) <= 1e-9

    def test_report_shape(self, chain3):
        res = linear_fair_ranking(chain3)
        j = linear_fair_json(res)
        assert len(j["components"]) == 3
        assert j["verified"] is True
        assert len(j["ranking"]) == 3
        assert all(c["lambda"] is None for c in j["components"])
