"""Memory held and peaked by tournament construction at n = 2000, under tracemalloc.

Out-sets and backward arcs are int bitsets, about n/8 bytes per vertex, so
a 2000-vertex tournament and its backward-arc report each hold well under
2 MB, and parsing its 4 MB matrix text peaks at a few times the text.
"""

import tracemalloc

from fairrank import (
    backward_arcs,
    copeland_ranking,
    gen_random,
    parse_tournament,
    serialize_tournament,
)

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
