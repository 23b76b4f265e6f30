"""Memory held and peaked under tracemalloc: tournament construction at
n = 2000, the spectral check at n = 2000, and the weak-order rankings kept
at the weak-order cap.

Out-sets and backward arcs are int bitsets, about n/8 bytes per vertex, so
a 2000-vertex tournament and its backward-arc report each hold well under
2 MB, and parsing its 4 MB matrix text peaks at a few times the text.  A
check keeps nothing on its arguments; the weak-order minimizer alone keeps
one ranking per weak order, each with its rank masks (not its keys):
2.80 MB for the 4683 weak orders at n = 6.

Every numpy pass works in blocks or chunks of `tournament.CHUNK_ENTRIES`
entries.  The spectral check does so at every n: it keeps twice that many
entries of sorted spectra (n rows at most), one cache for x and y (two
int16 arrays, 2 x 4 bytes an entry), takes the rank sums over row blocks
of as many entries (the unpacked bits and the float64 copy that their
product reads, 9 bytes an entry) before it fills the cache, and a chunk
adds its block's candidate mask (1 byte) and pair lists (two int64
arrays, 16 bytes at most), the gathered spectra and their comparison
(5 bytes) and the unpacked bits of a sort (3 bytes): under 40 bytes an
entry.  The SPEC and LIN minimizers decide the 4683 weak orders at n = 6
in one pass over (n, n, 4683) bool arrays, 168 KB each, and the
exhaustive Copeland check holds one row of C(n, 2) arc bits and n degrees
per tournament, 32 768 of them at n = 6; all are built per call and
dropped.  The injective DP keeps two int64 keys per placed set, 16 MB at
`INJECTIVE_SEARCH_CAP` = 20, and one popcount byte per set, and works
through each set size in chunks of `CHUNK_ENTRIES` (set, next vertex)
entries: the sets' next sets and two candidate keys (three int64 arrays)
and a mask (1 byte), under 32 bytes an entry, 4 MB a chunk, beside the
size's list of sets, at most C(20, 10) int64s (1.5 MB).
"""

import tracemalloc

from fairrank import (
    EmptyClassError,
    FairnessClass,
    backward_arcs,
    copeland_ranking,
    gen_random,
    is_fair,
    linear_fair_ranking,
    min_backward_fair,
    min_backward_injective,
    parse_tournament,
    serialize_tournament,
    verify_copeland_upper_bound,
)
from fairrank.optimize import INJECTIVE_SEARCH_CAP, WEAK_ORDER_CAP, _level_vectors
from fairrank.tournament import CHUNK_ENTRIES, ENUMERATION_CAP

MB = 1 << 20


def test_bitset_core_memory_at_n2000():
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        t = gen_random(2000, 1)
        gen_held = tracemalloc.get_traced_memory()[0] - base

        text = serialize_tournament(t)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        parsed = parse_tournament(text)
        parse_peak = tracemalloc.get_traced_memory()[1] - base

        ranking = copeland_ranking(t)
        base = tracemalloc.get_traced_memory()[0]
        report = backward_arcs(t, ranking)
        report_held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert parsed == t and report.total == t.num_arcs
    assert gen_held < 2 * MB, f"gen_random holds {gen_held / MB:.1f} MB"
    assert parse_peak < 20 * MB, f"parsing peaks {parse_peak / MB:.1f} MB above its text"
    assert report_held < 2 * MB, f"backward_arcs holds {report_held / MB:.1f} MB"


def test_spectral_check_peaks_within_its_chunks_at_n2000():
    # the linear-fair ranking passes, so every candidate pair is tested; one
    # n x n int16 array of spectra alone would take 8 MB here
    t = gen_random(2000, 1)
    fair = linear_fair_ranking(t).ranking
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verdict = is_fair(t, fair, FairnessClass.SPEC)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = 40 * CHUNK_ENTRIES
    assert verdict.ok
    assert bound < 2 * t.n * t.n
    assert peak < bound, f"the spectral check peaks at {peak / MB:.2f} MB, bound {bound / MB:.2f} MB"


def test_weak_order_rankings_at_the_cap():
    t = gen_random(WEAK_ORDER_CAP, 1)
    _level_vectors.cache_clear()  # built and kept under tracing below
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for c in FairnessClass:
            try:
                min_backward_fair(t, c)
            except EmptyClassError:
                pass
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert _level_vectors.cache_info().currsize == 1
    assert held < 3 * MB, f"the weak orders at n = {WEAK_ORDER_CAP} hold {held / MB:.2f} MB"


def traced_peak(call):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        try:
            call()
        except EmptyClassError:
            pass
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_array_passes_peak_per_call():
    # measured: 0.63 MB for SPEC and LIN (a witness and an empty class
    # alike) and 3.34 MB for the exhaustive check at n = 6
    bounds = {FairnessClass.SPEC: 0.8 * MB, FairnessClass.LIN: 0.8 * MB}
    for seed in (1, 2):  # LIN is empty on seed 2
        t = gen_random(WEAK_ORDER_CAP, seed)
        for c, bound in bounds.items():
            traced_peak(lambda: min_backward_fair(t, c))  # the kept weak orders, built untraced
            peak = traced_peak(lambda: min_backward_fair(t, c))
            assert peak < bound, f"{c.value} on seed {seed} peaks at {peak / MB:.2f} MB"
    peak = traced_peak(lambda: verify_copeland_upper_bound(ENUMERATION_CAP))
    assert peak < 4 * MB, f"the exhaustive check peaks at {peak / MB:.2f} MB"


def test_injective_dp_peaks_within_its_keys_and_chunks_at_the_cap():
    # measured: 23.6 MB at n = 20, of which 16 MB are the two keys
    t = gen_random(INJECTIVE_SEARCH_CAP, 1)
    peak = traced_peak(lambda: min_backward_injective(t))
    assert peak < 48 * MB, f"the injective DP at n = {t.n} peaks at {peak / MB:.2f} MB"
