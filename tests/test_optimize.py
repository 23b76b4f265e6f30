import hashlib
import json
import random
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from fairrank import (
    EmptyClassError,
    FairnessClass,
    FairnessVerdict,
    MinBackwardResult,
    Ranking,
    ResourceLimitError,
    Tournament,
    backward_arcs,
    build_tournament,
    composite_fraction,
    copeland_bound,
    emn_sweep_composite,
    gen_composite,
    gen_random,
    gen_rotational,
    is_fair,
    min_backward_copeland_closed_form,
    min_backward_fair,
    min_backward_injective,
    scc_decompose,
    verify_copeland_upper_bound,
)
from fairrank import optimize
from fairrank.cli import report_json
from fairrank.optimize import (
    INJECTIVE_SEARCH_CAP,
    SPEC_ORDER_CAP,
    WEAK_ORDER_CAP,
    _fair_orders,
    _level_array,
)
from oracles import (
    arcs,
    enumerate_all,
    is_fair_pairs,
    iter_weak_orders,
    least_injective_order_loop,
    min_backward_fair_blocks,
    min_backward_injective_bnb,
    min_backward_injective_permutations,
    min_backward_spectral_loop,
    out_set,
    relabeled,
    spectral_verdict_lists,
    verify_copeland_upper_bound_loop,
    weak_order_levels,
)

FC = FairnessClass

FUBINI = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541, 6: 4683, 7: 47293, 8: 545835}


class TestWeakOrders:
    @pytest.mark.parametrize("n,count", [(n, c) for n, c in sorted(FUBINI.items()) if n <= 6])
    def test_counts(self, n, count):
        assert sum(1 for _ in iter_weak_orders(range(1, n + 1))) == count

    def test_blocks_partition(self):
        for blocks in iter_weak_orders([1, 2, 3, 4]):
            flat = [v for b in blocks for v in b]
            assert sorted(flat) == [1, 2, 3, 4]


class TestWeakOrderLevels:
    # the recursive generator, kept in oracles.py as the level array's oracle
    @pytest.mark.parametrize("n,count", [(n, c) for n, c in sorted(FUBINI.items()) if n <= 6])
    def test_counts_without_repeats(self, n, count):
        orders = list(weak_order_levels(n))
        assert len(orders) == len(set(orders)) == count

    @pytest.mark.parametrize("n", range(1, 7))
    def test_surjective_onto_levels(self, n):
        for levels in weak_order_levels(n):
            assert len(levels) == n
            assert set(levels) == set(range(1, max(levels) + 1))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_same_orders_as_blocks(self, n):
        from_blocks = set()
        for blocks in iter_weak_orders(range(1, n + 1)):
            level = {v: k for k, block in enumerate(blocks, start=1) for v in block}
            from_blocks.add(tuple(level[v] for v in range(1, n + 1)))
        assert set(weak_order_levels(n)) == from_blocks


class TestLevelArray:
    @pytest.mark.parametrize("n,count", sorted(FUBINI.items()))
    def test_counts_and_levels(self, n, count):
        levels = _level_array(n)
        assert levels.shape == (n, count) and levels.dtype == np.int8
        assert not levels.flags.writeable and _level_array(n) is levels  # kept, read-only
        assert levels.flags.c_contiguous  # each vertex's row is one run of bytes
        # each column uses the levels 1..k and no column repeats
        k = levels.max(axis=0)
        assert (levels.min(axis=0) == 1).all()
        for level in range(1, n + 1):
            assert ((levels == level).any(axis=0) == (k >= level)).all()
        assert len(np.unique(levels, axis=1).T) == count

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_the_sorted_oracle(self, n):
        expected = np.array(sorted(weak_order_levels(n)), dtype=np.int8).reshape(-1, n).T
        assert np.array_equal(_level_array(n), expected)


def block_loop_outcome(minimize, t, c):
    try:
        return minimize(t, c)
    except EmptyClassError as exc:
        return EmptyClassError, str(exc)


def assert_matches_block_loop(t):
    for c in FC:
        res = block_loop_outcome(min_backward_fair, t, c)
        assert res == block_loop_outcome(min_backward_fair_blocks, t, c), (t.out, c)
        if isinstance(res, MinBackwardResult):
            assert all(type(v) is Fraction for v in res.witness.values.values())


class TestWeakOrderParity:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_exhaustive(self, n):
        for t in enumerate_all(n):
            assert_matches_block_loop(t)

    @pytest.mark.parametrize("n, seeds", [(5, range(40)), (6, range(6))])
    def test_random(self, n, seeds):
        for seed in seeds:
            assert_matches_block_loop(gen_random(n, seed))

    # sha256, over the tournaments of enumerate_all(5) in order, of the
    # lines "count witness-values" ("empty" when the class is empty) that
    # the block loop `min_backward_fair_blocks` gives; the block loop takes
    # minutes on all 1024, so its outcome is kept as this digest
    N5_DIGESTS = {
        FC.NSCOP: "2378cab6d35c569bb78edd1365528250ec9898730bc20793942c7d4bbed379e6",
        FC.SCOP: "57666d4a6ca8fd373ee1cb286e6313cb8187d61e607ff90ab94e2fd9368e6f03",
        FC.COP: "57666d4a6ca8fd373ee1cb286e6313cb8187d61e607ff90ab94e2fd9368e6f03",
        FC.WEAK: "cc4884d44d932db9b128b78dd3b16204533465244e0bebda5def9b97c7555a02",
        FC.SPEC: "f88382b7514e36bff424a53be6f9cd722e10ab09456ea242087e1a2cfe5d186c",
        FC.LIN: "fbdce27622d3a00c5a8cfaf22792cda7c6c9e4871838abe96a164b4c5a0675b7",
        FC.INJ: "a14e6f463c5a6c66c711284423986428ed1c42930caccfe258437714b3f92fca",
    }

    @pytest.mark.parametrize("c", list(FC), ids=lambda c: c.value)
    def test_exhaustive_n5_digest(self, c):
        digest = hashlib.sha256()
        for t in enumerate_all(5):
            try:
                res = min_backward_fair(t, c)
            except EmptyClassError:
                digest.update(b"empty\n")
                continue
            assert all(type(v) is Fraction for v in res.witness.values.values())
            values = " ".join(str(res.witness[v]) for v in t.vertices())
            digest.update(f"{res.count} {values}\n".encode())
        assert digest.hexdigest() == self.N5_DIGESTS[c]

    # SPEC past WEAK's cap: the first order in ascending (count, levels)
    # that the list walk passes, with every order tried in that order
    @pytest.mark.parametrize("seeds", [range(s, s + 5) for s in range(0, 20, 5)],
                             ids=lambda r: f"{r.start}-{r.stop - 1}")
    def test_spectral_at_n7(self, seeds):
        for seed in seeds:
            t = gen_random(7, seed)
            expected = min_backward_spectral_loop(t)
            assert expected is not None
            res = min_backward_fair(t, FC.SPEC)
            assert res == expected, seed
            assert all(type(v) is Fraction for v in res.witness.values.values())

    # one n = 7 tournament per pairwise class: the block loop tries all
    # 47 293 weak orders, an independent check of the closed forms and of
    # the injective DP
    @pytest.mark.parametrize("c, seed", [(FC.NSCOP, 1), (FC.SCOP, 2), (FC.COP, 3), (FC.INJ, 4)],
                             ids=lambda p: getattr(p, "value", p))
    def test_pairwise_at_n7(self, c, seed):
        t = gen_random(7, seed)
        res = min_backward_fair(t, c)
        assert res == min_backward_fair_blocks(t, c)
        assert all(type(v) is Fraction for v in res.witness.values.values())


class TestInjective:
    def test_chain_is_zero(self, chain3):
        res = min_backward_injective(chain3)
        assert res.count == 0
        assert res.witness.values == {3: 1, 2: 2, 1: 3}

    def test_three_cycle(self, three_cycle):
        res = min_backward_injective(three_cycle)
        assert res.count == 1
        assert res.fraction == Fraction(1, 3)

    def test_rotational_l2(self):
        res = min_backward_injective(gen_rotational(2))
        # identity order leaves exactly the three wrap arcs backward
        assert res.count == 3

    def test_witness_rescoring(self):
        for seed in range(15):
            t = gen_random(6, seed)
            res = min_backward_injective(t)
            assert backward_arcs(t, res.witness).count == res.count
            assert is_fair(t, res.witness, FC.INJ).ok

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            min_backward_injective(gen_random(INJECTIVE_SEARCH_CAP + 1, 0))

    # counts against branch and bound; witnesses, the least (count, levels
    # read by vertex), against every permutation tried in order, up to n = 8

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_branch_and_bound_exhaustive(self, n):
        for t in enumerate_all(n):
            res = min_backward_injective(t)
            assert res.count == min_backward_injective_bnb(t)
            assert res == min_backward_injective_permutations(t)

    def test_matches_branch_and_bound_random(self):
        for n in (8, 9, 10):
            for seed in range(20):
                t = gen_random(n, seed)
                res = min_backward_injective(t)
                assert res.count == min_backward_injective_bnb(t)
                if n <= 8:
                    assert res == min_backward_injective_permutations(t)

    def test_both_spaces_give_one_witness(self):
        for seed in range(50):
            t = gen_random(7, seed)
            res = min_backward_injective(t)
            assert res.witness == min_backward_fair(t, FC.INJ).witness
            assert res.search_space == "permutations"


def assert_matches_loop(t):
    """The layered DP's whole result, count and witness, is the one of the
    loop over placed sets that it replaced."""
    expected = optimize._result(t, least_injective_order_loop(t), "permutations")
    assert min_backward_injective(t) == expected


class TestInjectiveLayers:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive(self, n):
        for t in enumerate_all(n):
            assert_matches_loop(t)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_random(self, n):
        for seed in range(20):
            assert_matches_loop(gen_random(n, seed))

    @pytest.mark.parametrize("l", range(1, 8))
    def test_relabeled_rotational(self, l):
        # regular: every vertex has the same degree, so many orders tie on
        # the count and the levels decide the witness
        base = gen_rotational(l)
        assert_matches_loop(relabeled(base, random.Random(l).sample(range(1, base.n + 1), base.n)))

    # the whole pack, the count above one level field per vertex, fits one
    # int64 key up to n = 14; from n = 15 the last levels move to the
    # second key (five of them at n = 16), and from n = 17 the first key
    # takes all 63 bits
    @pytest.mark.parametrize("n, seeds", [(14, [1]), (15, [1]), (16, range(3)), (17, [1])])
    def test_around_the_key_split(self, n, seeds):
        pack_bits = (n * (n - 1) // 2).bit_length() + n * n.bit_length()
        assert (pack_bits > 63) == (n >= 15)
        for seed in seeds:
            assert_matches_loop(gen_random(n, seed))


class TestClosedForm:
    def test_regular_tournament_is_zero(self, three_cycle):
        assert min_backward_copeland_closed_form(three_cycle).count == 0

    def test_chain_is_zero(self, chain3):
        assert min_backward_copeland_closed_form(chain3).count == 0

    def test_witness_is_consistent(self):
        for seed in range(15):
            t = gen_random(8, seed)
            res = min_backward_copeland_closed_form(t)
            assert backward_arcs(t, res.witness).count == res.count
            assert is_fair(t, res.witness, FC.SCOP).ok

    def test_witness_is_the_scop_minimizers(self):
        # one proof, one witness: the dense degree levels
        for t in [*enumerate_all(4), *(gen_random(8, seed) for seed in range(15))]:
            closed, scop = min_backward_copeland_closed_form(t), min_backward_fair(t, FC.SCOP)
            assert closed.witness == scop.witness
            assert (closed.count, closed.fraction) == (scop.count, scop.fraction)


class TestWeakOrderMinimum:
    def test_weak_on_cycle_is_zero(self, three_cycle):
        res = min_backward_fair(three_cycle, FC.WEAK)
        assert res.count == 0

    def test_inj_on_cycle(self, three_cycle):
        assert min_backward_fair(three_cycle, FC.INJ).count == 1

    def test_nscop_always_zero(self):
        for seed in range(10):
            t = gen_random(5, seed)
            assert min_backward_fair(t, FC.NSCOP).count == 0

    def test_scop_matches_closed_form_n4(self):
        for t in enumerate_all(4):
            assert (
                min_backward_fair(t, FC.SCOP).count
                == min_backward_copeland_closed_form(t).count
            )

    def test_inj_matches_permutation_search_n4(self):
        for t in enumerate_all(4):
            assert (
                min_backward_fair(t, FC.INJ).count == min_backward_injective(t).count
            )

    def test_class_ladder(self):
        for seed in range(10):
            t = gen_random(5, seed)
            m_scop = min_backward_fair(t, FC.SCOP).count
            m_cop = min_backward_fair(t, FC.COP).count
            m_weak = min_backward_fair(t, FC.WEAK).count
            assert m_cop >= m_scop >= 0
            assert m_weak <= m_scop

    def test_witness_passes_class(self):
        for seed in range(8):
            t = gen_random(5, seed)
            for cls in (FC.SCOP, FC.WEAK):
                res = min_backward_fair(t, cls)
                assert is_fair(t, res.witness, cls).ok
                assert backward_arcs(t, res.witness).count == res.count

    def test_lin_witness_when_representable(self):
        # integer level values 1..k are only representatives for the linear
        # axiom; instances where no level assignment satisfies it are skipped
        for seed in range(8):
            t = gen_random(5, seed)
            try:
                res = min_backward_fair(t, FC.LIN)
            except EmptyClassError:
                continue
            assert is_fair(t, res.witness, FC.LIN).ok
            assert backward_arcs(t, res.witness).count == res.count

    def test_spectral_minimum_above_half_at_n6(self):
        # out-sets {5,6}, {1,4,6}, {1,2}, {1,3}, {2,3,4}, {3,4,5}: every
        # spectrally fair ranking makes 8 of the 15 arcs backward
        outs = {1: {5, 6}, 2: {1, 4, 6}, 3: {1, 2}, 4: {1, 3}, 5: {2, 3, 4}, 6: {3, 4, 5}}
        t = build_tournament(6, [(x, y) for x, ys in outs.items() for y in ys])
        res = min_backward_fair(t, FC.SPEC)
        assert (res.count, res.fraction) == (8, Fraction(8, 15))
        assert is_fair_pairs(t, res.witness, FC.SPEC).ok

    # the witness is the first fair weak order in ascending (count, levels);
    # WEAK decides each order of a chunk by one call, and the first chunk,
    # 75 orders, holds every WEAK witness at n = 6
    # (test_first_chunk_holds_every_weak_witness), so it makes 75 calls,
    # while SPEC and LIN decide every order of a chunk in one array pass and
    # check only the witness, so an empty class makes no call
    @pytest.mark.parametrize("c, seed, calls, witness", [
        (FC.SPEC, 1, 1, (4, 2, 4, 3, 5, 1)), (FC.LIN, 1, 1, (4, 2, 4, 3, 5, 1)),
        (FC.WEAK, 1, 75, (2, 2, 2, 2, 3, 1)), (FC.LIN, 2, 0, None),
    ], ids=lambda p: getattr(p, "value", p))
    def test_is_fair_calls(self, monkeypatch, c, seed, calls, witness):
        made = []

        def counted(*args):
            made.append(args)
            return is_fair(*args)

        monkeypatch.setattr(optimize, "is_fair", counted)
        t = gen_random(6, seed)
        if witness is None:
            with pytest.raises(EmptyClassError):
                min_backward_fair(t, c)
        else:
            res = min_backward_fair(t, c)
            assert tuple(res.witness[v] for v in t.vertices()) == witness
            assert is_fair(t, res.witness, c).ok
        assert len(made) == calls

    @staticmethod
    def first_weak_fair(ts, n):
        """For each tournament of `ts`, on n vertices: the column of
        `_level_array(n)` of its first WEAK-fair order in ascending (count,
        levels), that order's count, and its index in that order.  An
        order is WEAK-fair iff no pair with out(x) ⊊ out(y) has
        L[x] >= L[y] (`min_backward_fair` proves that such a pair has
        y -> x); counts and violations of a whole batch are one float32
        product each, exact for these small ints."""
        levels = _level_array(n)
        lt = (levels[:, None] < levels).reshape(n * n, -1).astype(np.float32)
        ge = (levels[:, None] >= levels).reshape(n * n, -1).astype(np.float32)
        outs = np.array([t.out for t in ts], dtype=np.int64)
        arcs = (outs[:, :, None] >> np.arange(n) & 1).reshape(len(ts), -1)  # x -> y at x * n + y
        ox, oy = outs[:, :, None], outs[:, None, :]
        strict = ((ox & ~oy == 0) & (ox != oy)).reshape(len(ts), -1)
        counts = (arcs.astype(np.float32) @ lt).astype(np.int8)  # at most C(6, 2) = 15
        fair = strict.astype(np.float32) @ ge == 0
        least = np.where(fair, counts, 127).min(axis=1, keepdims=True)
        first = (fair & (counts == least)).argmax(axis=1)  # levels ascend with the column
        earlier = np.arange(levels.shape[1]) < first[:, None]
        index = (counts < least).sum(axis=1) + ((counts == least) & earlier).sum(axis=1)
        return first, least[:, 0], index

    @pytest.mark.parametrize("n, bound", [(4, 8), (5, 16), (6, 58)])
    def test_first_chunk_holds_every_weak_witness(self, n, bound):
        # the first chunk, 75 orders, holds every WEAK witness at n <= 6:
        # over every labelled tournament the first WEAK-fair order in
        # ascending (count, levels) lies at index bound - 1 or lower
        ts = list(enumerate_all(n))
        parts = [self.first_weak_fair(ts[i:i + 256], n) for i in range(0, len(ts), 256)]
        first, count, index = (np.concatenate(part) for part in zip(*parts))
        assert index.max() == bound - 1 and bound <= 75
        # the rule gives min_backward_fair's own count and witness
        levels = _level_array(n)
        for i in range(0, len(ts), -(-len(ts) // 300)):
            res = min_backward_fair(ts[i], FC.WEAK)
            assert res.count == count[i], ts[i].out
            assert [res.witness[v] for v in ts[i].vertices()] == levels[:, first[i]].tolist(), ts[i].out

    def test_weak_decides_all_75_orders_of_4_vertices(self, monkeypatch):
        # the first chunk, 75 orders, holds every weak order of 4 vertices,
        # so WEAK decides each: the 75 calls that the benchmark's own tests
        # count on the transitive tournament, whose one weak-fair order is
        # the strict one
        made = []

        def counted(*args):
            made.append(args)
            return is_fair(*args)

        monkeypatch.setattr(optimize, "is_fair", counted)
        res = min_backward_fair(Tournament([(1 << x) - 1 for x in range(4)]), FC.WEAK)
        assert len(made) == 75
        assert (res.count, dict(res.witness.values)) == (0, {1: 1, 2: 2, 3: 3, 4: 4})

    def test_cap(self):
        # WEAK and LIN stop at WEAK_ORDER_CAP = 6, SPEC at SPEC_ORDER_CAP = 8
        assert (WEAK_ORDER_CAP, SPEC_ORDER_CAP) == (6, 8)
        for c in (FC.WEAK, FC.LIN):
            with pytest.raises(ResourceLimitError, match="weak-order enumeration capped at n <= 6"):
                min_backward_fair(gen_random(7, 0), c)
        res = min_backward_fair(gen_random(8, 0), FC.SPEC)
        assert is_fair_pairs(gen_random(8, 0), res.witness, FC.SPEC).ok
        with pytest.raises(ResourceLimitError, match="spectral weak-order search capped at n <= 8"):
            min_backward_fair(gen_random(9, 0), FC.SPEC)

    @pytest.mark.parametrize("c", [FC.NSCOP, FC.SCOP, FC.COP, FC.INJ], ids=lambda c: c.value)
    def test_pairwise_cap(self, c):
        assert min_backward_fair(gen_random(7, 0), c).search_space == "weakOrders"
        if c is FC.INJ:
            with pytest.raises(ResourceLimitError,
                               match=f"permutation search capped at n <= {INJECTIVE_SEARCH_CAP}"):
                min_backward_fair(gen_random(INJECTIVE_SEARCH_CAP + 1, 0), c)
        else:
            # the Copeland classes have no cap of their own: NSCOP ties every
            # vertex, SCOP and COP make exactly the degree-rising arcs backward
            for n in (14, 1000):
                t = gen_random(n, 0)
                res = min_backward_fair(t, c)
                expected = 0 if c is FC.NSCOP else min_backward_copeland_closed_form(t).count
                assert (res.count, res.search_space) == (expected, "weakOrders")


class TestArrayVerdicts:
    # SPEC and LIN decide every weak order in one array pass, and WEAK by
    # one `is_fair` call per order; each verdict must be the one that the
    # list walk of `oracles.py` (SPEC), `is_fair` (LIN) or the pair scan
    # (WEAK) gives the ranking of that order's int levels
    @staticmethod
    def assert_verdicts(t):
        levels = _level_array(t.n)
        rankings = [Ranking(dict(enumerate(column, start=1))) for column in levels.T.tolist()]
        for c, fair in ((FC.SPEC, spectral_verdict_lists), (FC.LIN, partial(is_fair, c=FC.LIN)),
                        (FC.WEAK, partial(is_fair_pairs, c=FC.WEAK))):
            expected = [fair(t, r).ok for r in rankings]
            assert _fair_orders(t, levels, c).tolist() == expected, (t.out, c)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_exhaustive(self, n):
        for t in enumerate_all(n):
            self.assert_verdicts(t)

    @pytest.mark.parametrize("n", [5, 6])
    def test_random(self, n):
        for seed in range(20):
            self.assert_verdicts(gen_random(n, seed))

    @pytest.mark.parametrize("seeds", [range(s, s + 10) for s in range(0, 100, 10)],
                             ids=lambda r: f"{r.start}-{r.stop - 1}")
    def test_minimum_matches_block_loop_at_n6(self, seeds):
        for seed in seeds:
            t = gen_random(6, seed)
            for c in (FC.SPEC, FC.LIN):
                expected = block_loop_outcome(min_backward_fair_blocks, t, c)
                assert block_loop_outcome(min_backward_fair, t, c) == expected, (seed, c)

    @pytest.mark.parametrize("per", [1, 5])
    def test_chunks_of_any_size(self, monkeypatch, per):
        # chunks of one or five orders, CHUNK_ENTRIES // n^2 of them, put a
        # chunk boundary next to every witness: each outcome, a witness or
        # an empty class, must be the one of the default chunks
        seeds = range(12)
        outcomes = {(seed, c): block_loop_outcome(min_backward_fair, gen_random(6, seed), c)
                    for seed in seeds for c in (FC.WEAK, FC.SPEC, FC.LIN)}
        monkeypatch.setattr(optimize, "CHUNK_ENTRIES", per * 36)
        for (seed, c), expected in outcomes.items():
            assert block_loop_outcome(min_backward_fair, gen_random(6, seed), c) == expected, (seed, c)

    @pytest.mark.parametrize("c", [FC.SPEC, FC.LIN], ids=lambda c: c.value)
    def test_refuted_witness_raises(self, monkeypatch, c):
        monkeypatch.setattr(optimize, "is_fair", lambda *args: FairnessVerdict((1, 2), "refuted"))
        with pytest.raises(AssertionError, match="refuted by is_fair"):
            min_backward_fair(gen_random(6, 1), c)


class TestSpectralAndLinearImplyWeak:
    # the proof is in min_backward_fair's docstring: out(x) ⊊ out(y) puts
    # y's spectrum and, for positive ranks, its out-sum strictly above x's

    @staticmethod
    def fair_orders_are_weak(t):
        """The number of SPEC-fair or LIN-fair weak orders of t, each
        checked to be WEAK-fair by the pair scan."""
        fair = 0
        for levels in weak_order_levels(t.n):
            r = Ranking.exact(dict(zip(t.vertices(), levels)))
            if is_fair(t, r, FC.SPEC) or is_fair(t, r, FC.LIN):
                assert is_fair_pairs(t, r, FC.WEAK).ok, (t.out, levels)
                fair += 1
        return fair

    @pytest.mark.parametrize("n", range(1, 5))
    def test_exhaustive(self, n):
        assert sum(self.fair_orders_are_weak(t) for t in enumerate_all(n)) > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_n5(self, seed):
        assert self.fair_orders_are_weak(gen_random(5, seed)) > 0


class TestWeakLemmas:
    """ROADMAP items 27 and 29: what WEAK's minimum owes to out-set inclusion."""

    # item 27: the exchange proof is in min_backward_injective's docstring

    @pytest.mark.parametrize("n", range(1, 6))
    def test_least_injective_orders_are_weak_fair_exhaustive(self, n):
        for t in enumerate_all(n):
            assert is_fair_pairs(t, min_backward_injective(t).witness, FC.WEAK).ok, t.out

    @pytest.mark.parametrize("n", range(6, 15))
    def test_least_injective_orders_are_weak_fair_random(self, n):
        for seed in range(10):
            t = gen_random(n, seed)
            assert is_fair_pairs(t, min_backward_injective(t).witness, FC.WEAK).ok, seed

    # item 29: a weak order with no backward arc puts each strong component
    # on one level, in condensation order, which a pair x+ ⊊ y+ inside a
    # component forbids; one across components already has y's component
    # above x's

    @staticmethod
    def zero_iff_no_inner_inclusion(t):
        """Whether WEAK's minimum on t is 0, checked against the lemma."""
        inner = any(out_set(t, x) < out_set(t, y)
                    for comp in scc_decompose(t) for x in comp for y in comp)
        zero = min_backward_fair(t, FC.WEAK).count == 0
        assert zero == (not inner), t.out
        return zero

    @pytest.mark.parametrize("n", range(1, 6))
    def test_zero_minimum_exhaustive(self, n):
        zeros = {self.zero_iff_no_inner_inclusion(t) for t in enumerate_all(n)}
        # below 4 vertices no strong component holds an inclusion
        assert zeros == ({True} if n < 4 else {True, False})

    def test_zero_minimum_random_n6(self):
        zeros = {self.zero_iff_no_inner_inclusion(gen_random(6, seed)) for seed in range(100)}
        assert zeros == {True, False}


def assert_pairwise_invariants(t):
    """What the pairwise minima must satisfy at any n: SCOP is the closed
    form, INJ the permutation minimum, NSCOP 0 (all vertices tied) and COP at
    least SCOP; each witness is in its class and has the reported count."""
    res = {c: min_backward_fair(t, c) for c in (FC.NSCOP, FC.SCOP, FC.COP, FC.INJ)}
    assert res[FC.SCOP].count == min_backward_copeland_closed_form(t).count
    assert res[FC.INJ].count == min_backward_injective(t).count
    assert res[FC.NSCOP].count == 0
    assert res[FC.COP].count >= res[FC.SCOP].count
    for c, r in res.items():
        assert is_fair_pairs(t, r.witness, c).ok, c
        assert backward_arcs(t, r.witness).count == r.count
    return res


class TestPairwiseAboveEnumeration:
    @pytest.mark.parametrize("n", range(8, INJECTIVE_SEARCH_CAP + 1))
    def test_random(self, n):
        assert_pairwise_invariants(gen_random(n, n))

    def test_regular_at_the_cap(self):
        # rotational l = 9, n = 19, is the largest regular tournament under
        # the cap, as regular tournaments have odd n: every vertex ties for
        # SCOP, and ranked by label, 1 highest, only the l(l + 1)/2 = 45
        # arcs that wrap around are backward, the least any injective
        # ranking achieves
        t = gen_rotational(9)
        assert t.n == INJECTIVE_SEARCH_CAP - 1
        res = assert_pairwise_invariants(t)
        assert (res[FC.SCOP].count, res[FC.INJ].count) == (0, 45)


class TestCopelandClosedForms:
    # the Copeland minima at sizes no enumeration reaches
    @pytest.mark.parametrize("t", [gen_random(200, 1), gen_composite(2)], ids=["random200", "composite2"])
    def test_witnesses(self, t):
        rising = sum(t.out_degree(x) < t.out_degree(y) for x, y in arcs(t))
        for c in (FC.NSCOP, FC.SCOP, FC.COP):
            res = min_backward_fair(t, c)
            assert is_fair(t, res.witness, c).ok, c
            assert backward_arcs(t, res.witness).count == res.count
            assert res.count == (0 if c is FC.NSCOP else rising), c
        assert set(min_backward_fair(t, FC.NSCOP).witness.values.values()) == {1}


class TestCompositeSweep:
    def test_first_rows(self):
        rep = emn_sweep_composite(2, materialize_up_to=2)
        assert rep.rows[0].fraction == Fraction(1, 3)
        assert rep.rows[0].min_backward == 12
        assert rep.rows[0].edges == 36
        assert rep.rows[1].fraction == Fraction(7, 15)
        assert rep.rows[1].min_backward == 140
        assert rep.rows[1].edges == 300

    def test_l100_closed_form(self):
        assert composite_fraction(100) == Fraction(30100, 40602)

    def test_monotone_below_limit(self):
        fractions = [composite_fraction(l) for l in range(1, 200)]
        assert all(f < Fraction(3, 4) for f in fractions)
        assert all(a < b for a, b in zip(fractions, fractions[1:]))
        # gap to the limit shrinks like 7/(8l): below 0.01 from l = 87 on
        assert Fraction(3, 4) - composite_fraction(87) < Fraction(1, 100)
        assert Fraction(3, 4) - composite_fraction(1000) < Fraction(2, 1000)

    def test_rows_respect_bound(self):
        rep = emn_sweep_composite(10)
        for row in rep.rows:
            assert row.fraction <= row.bound < Fraction(3, 4)

    def test_json_and_csv(self):
        # the CSV rows are rendered by the CLI and checked in test_cli.py
        j = json.loads(report_json(emn_sweep_composite(2)))
        assert j["limit"] == {"num": 3, "den": 4}
        assert j["rows"][0]["fraction"] == {"num": 1, "den": 3}


class TestBounds:
    @pytest.mark.parametrize(
        "n,expected", [(3, Fraction(2, 3)), (4, Fraction(2, 3)), (5, Fraction(7, 10))]
    )
    def test_bound_values(self, n, expected):
        assert copeland_bound(n) == expected

    @pytest.mark.parametrize("n", [3, 4])
    def test_exhaustive(self, n):
        rep = verify_copeland_upper_bound(n)
        assert rep.all_within
        assert rep.checked == 2 ** (n * (n - 1) // 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_labelled_loop(self, n):
        rep, expected = verify_copeland_upper_bound(n), verify_copeland_upper_bound_loop(n)
        assert (rep.n, rep.checked, rep.bound, rep.max_fraction, rep.all_within) == (
            expected.n, expected.checked, expected.bound, expected.max_fraction, expected.all_within)
        # the report's JSON and text come from these fields as Python values
        assert (type(rep.checked), type(rep.max_fraction), type(rep.all_within)) == (int, Fraction, bool)

    @pytest.mark.parametrize("n, error", [(0, ValueError), (7, ResourceLimitError)])
    def test_enumeration_checks(self, n, error):
        with pytest.raises(error):
            verify_copeland_upper_bound(n)

    def test_random_mode(self):
        for seed in range(3, 53):
            fraction = min_backward_copeland_closed_form(gen_random(12, seed)).fraction
            assert fraction <= copeland_bound(12) < Fraction(3, 4)
