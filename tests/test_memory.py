"""Memory held and peaked under tracemalloc: tournament construction and
text I/O at n = 2000, every check and the spectral check's chunks at
n = 2000, the weak orders kept at the weak-order cap, and the spectral
minimizer at its own cap.

Out-sets and backward arcs are int bitsets, about n/8 bytes per vertex, so
a 2000-vertex tournament and its backward-arc report each hold well under
2 MB, parsing its 4 MB matrix file from its bytes peaks at about its
out-sets (the line path at a few times the text), and writing it peaks at the text and one buffer of the same size.  A check
keeps nothing on its arguments, and the weak-order minimizer keeps only
one int8 level array per n: 28 KB for the 4683 weak orders at n = 6.
A check builds its "ranks above" and "ranks below" masks per call, one
int per vertex as wide as its highest label, so a list of them holds
about n^2/8 bytes (0.57 MB at n = 2000), and a check holds up to four
such lists: COP and LIN take both masks of the keys and of the ranks.

Every numpy pass works in blocks or chunks of `tournament.CHUNK_ENTRIES`
entries.  The spectral check does so at every n: it keeps twice that many
entries of sorted spectra (n rows at most), one cache for x and y (two
int16 arrays, 2 x 4 bytes an entry), takes the rank sums over row blocks
of as many entries (the unpacked bits and the float64 copy that their
product reads, 9 bytes an entry) before it fills the cache, and a chunk
adds its block's candidate mask (1 byte) and pair lists (two int64
arrays, 16 bytes at most), the gathered spectra and their comparison
(5 bytes) and the unpacked bits of a sort (3 bytes): under 40 bytes an
entry.  The SPEC and LIN minimizers decide the weak orders in chunks of
at most `CHUNK_ENTRIES // n^2` orders, one pass over (n, n, orders) bool
arrays of at most `CHUNK_ENTRIES` entries each, beside the backward count
(one byte) and the sort index (8 bytes) of every order: 4.4 MB of
levels, kept, and about 5 MB more at SPEC's cap n = 8.  The exhaustive
Copeland check holds one row of C(n, 2) arc bits and n degrees
per tournament, 32 768 of them at n = 6; all are built per call and
dropped.  The injective DP keeps one uint64 and one int64 key per placed
set, 16 MB at `INJECTIVE_SEARCH_CAP` = 20, and one popcount byte per set,
and works through each set size in chunks of `CHUNK_ENTRIES` (set, next
vertex) entries: the sets' next sets and two candidate keys (three
8-byte arrays, and no mask byte, since a placed vertex reads its own
set's 2^63 sentinel), under 32 bytes an entry, 4 MB a chunk, beside the
size's list of sets, at most C(20, 10) int64s (1.5 MB).
"""

import tracemalloc

from fairrank import (
    EmptyClassError,
    FairnessClass,
    Ranking,
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
from fairrank.optimize import (
    ENUMERATION_CAP,
    INJECTIVE_SEARCH_CAP,
    SPEC_ORDER_CAP,
    WEAK_ORDER_CAP,
    _level_array,
)
from fairrank.tournament import CHUNK_ENTRIES

MB = 1 << 20


def test_bitset_core_memory_at_n2000():
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        t = gen_random(2000, 1)
        gen_held = tracemalloc.get_traced_memory()[0] - base

        # the file's bytes, as the CLI reads them
        data = serialize_tournament(t).encode("ascii")
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        parsed = parse_tournament(data)
        parse_peak = tracemalloc.get_traced_memory()[1] - base

        ranking = copeland_ranking(t)
        base = tracemalloc.get_traced_memory()[0]
        report = backward_arcs(t, ranking)
        report_held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert parsed == t and report.total == t.num_arcs
    assert gen_held < 2 * MB, f"gen_random holds {gen_held / MB:.1f} MB"
    # the reader views the bytes in place and keeps the out-sets and one
    # block of rows (measured 0.92 MB); an encoded copy of the text or an
    # n x n matrix beside it adds 3.8 MB and fails the bound
    assert parse_peak < 3 * MB, f"parsing peaks {parse_peak / MB:.1f} MB above its bytes"
    assert report_held < 2 * MB, f"backward_arcs holds {report_held / MB:.1f} MB"


def test_line_path_peaks_within_three_and_a_quarter_texts_at_n2000():
    # a space before every '\n' sends the text to the line path: its lines,
    # then the rebuilt canonical text, then that text encoded for the reader
    # (measured 2.24 texts; 3.03 when the reader also built an n x n matrix)
    t = gen_random(2000, 1)
    text = serialize_tournament(t).replace("\n", " \n")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parsed = parse_tournament(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert parsed == t
    assert peak < 3.25 * len(text), f"the line path peaks at {peak / len(text):.2f} texts"


def test_serializer_peaks_at_its_buffer_and_text_at_n2000():
    # the n(n + 1)-byte buffer and the text decoded from it, beside one
    # block of unpacked rows; the per-row `format` strings and their join
    # peaked at three times the text
    t = gen_random(2000, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = serialize_tournament(t)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = 2 * t.n * (t.n + 1) + 4 * CHUNK_ENTRIES
    assert len(text) == len("2000\n") + t.n * (t.n + 1)
    assert peak < bound, f"serializing peaks at {peak / MB:.2f} MB, bound {bound / MB:.2f} MB"


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
    _level_array.cache_clear()  # built and kept under tracing below
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
    # the level array alone is kept, 28 KB at n = 6; every ranking WEAK
    # checks is built per order and dropped
    assert _level_array.cache_info().currsize == 1
    assert held < 64 * 1024, f"the weak orders at n = {WEAK_ORDER_CAP} hold {held / 1024:.0f} KB"


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


def test_every_check_peaks_within_its_masks_at_n2000():
    # measured: at most 3.5 MB, for LIN on the linear-fair ranking, whose
    # four mask lists sit beside the float out-sums
    t = gen_random(2000, 1)
    rankings = {"linear-fair": linear_fair_ranking(t).ranking,
                "identity": Ranking({v: v for v in t.vertices()}),
                "Copeland": copeland_ranking(t)}
    for name, r in rankings.items():
        for c in FairnessClass:
            peak = traced_peak(lambda: is_fair(t, r, c))
            assert peak < 5 * MB, f"{c.value} on the {name} ranking peaks at {peak / MB:.2f} MB"


def test_array_passes_peak_per_call():
    # measured: 0.13-0.50 MB for SPEC and LIN (a witness and an empty
    # class alike) and 3.34 MB for the exhaustive check at n = 6
    bounds = {FairnessClass.SPEC: 0.8 * MB, FairnessClass.LIN: 0.8 * MB}
    for seed in (1, 2):  # LIN is empty on seed 2
        t = gen_random(WEAK_ORDER_CAP, seed)
        for c, bound in bounds.items():
            traced_peak(lambda: min_backward_fair(t, c))  # the kept weak orders, built untraced
            peak = traced_peak(lambda: min_backward_fair(t, c))
            assert peak < bound, f"{c.value} on seed {seed} peaks at {peak / MB:.2f} MB"
    peak = traced_peak(lambda: verify_copeland_upper_bound(ENUMERATION_CAP))
    assert peak < 4 * MB, f"the exhaustive check peaks at {peak / MB:.2f} MB"


def test_spectral_minimum_at_its_cap():
    # measured: the level array of the 545 835 weak orders of 8 vertices
    # peaks at 17.3 MB while it is built and keeps 4.2 MB; a minimum then
    # peaks at 5.2 MB, the sort index (4.4 MB) and counts of every order
    # beside one chunk's arrays
    t = gen_random(SPEC_ORDER_CAP, 1)
    _level_array.cache_clear()
    first = traced_peak(lambda: min_backward_fair(t, FairnessClass.SPEC))
    again = traced_peak(lambda: min_backward_fair(t, FairnessClass.SPEC))
    assert first < 24 * MB, f"the first SPEC minimum at n = {t.n} peaks at {first / MB:.2f} MB"
    assert again < 8 * MB, f"a SPEC minimum at n = {t.n} peaks at {again / MB:.2f} MB"


def test_injective_dp_peaks_within_its_keys_and_chunks_at_the_cap():
    # measured: 22.7 MB at n = 20, of which 16 MB are the two keys
    t = gen_random(INJECTIVE_SEARCH_CAP, 1)
    peak = traced_peak(lambda: min_backward_injective(t))
    assert peak < 48 * MB, f"the injective DP at n = {t.n} peaks at {peak / MB:.2f} MB"
