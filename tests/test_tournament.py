import hashlib
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank import (
    DuplicateOrConflictError,
    FairrankError,
    LoopArcError,
    MissingPairError,
    ResourceLimitError,
    Tournament,
    TournamentSyntaxError,
    UnknownVertexError,
    build_tournament,
    gen_composite,
    gen_random,
    gen_rotational,
    parse_tournament,
    scc_decompose,
    serialize_tournament,
    verify_copeland_upper_bound,
)
from fairrank.optimize import ENUMERATION_CAP
from fairrank.tournament import CHUNK_ENTRIES, DEFAULT_VERTEX_CAP, _canonical_tournament, _parse_lines
from oracles import (
    arcs,
    composite_vertex,
    enumerate_all,
    gen_random_listcomp,
    induced,
    matrix_cells,
    matrix_tournament,
    out_set,
    parse_tournament_lines,
    scc_decompose_tarjan,
    serialize_tournament_format,
)


class TestBuild:
    def test_three_cycle(self):
        t = build_tournament(3, [(1, 2), (2, 3), (3, 1)])
        assert t.out[0] >> 1 & 1 and t.out[1] >> 2 & 1 and t.out[2] >> 0 & 1
        assert not t.out[1] >> 0 & 1

    def test_conflict(self):
        with pytest.raises(DuplicateOrConflictError):
            build_tournament(3, [(1, 2), (2, 1), (2, 3), (3, 1)])

    def test_loop(self):
        with pytest.raises(LoopArcError):
            build_tournament(2, [(1, 1), (1, 2)])

    def test_missing_pair(self):
        with pytest.raises(MissingPairError):
            build_tournament(3, [(1, 2)])

    def test_two_vertices(self):
        t = build_tournament(2, [(1, 2)])
        assert t.out_degree(1) == 1
        assert t.out_degree(2) == 0

    def test_unknown_vertex(self):
        t = build_tournament(2, [(1, 2)])
        with pytest.raises(UnknownVertexError):
            t.out_degree(5)

    def test_vertex_cap(self):
        with pytest.raises(ResourceLimitError):
            build_tournament(DEFAULT_VERTEX_CAP + 1, [])

    def test_frozen(self):
        t = gen_rotational(1)
        with pytest.raises(FrozenInstanceError):
            t.n = 2
        with pytest.raises(FrozenInstanceError):
            t.out = (2, 1)
        assert t == gen_rotational(1) and t in {gen_rotational(1)}

    def test_n_is_the_length_of_out(self):
        assert Tournament((6, 4, 1)).n == 3
        with pytest.raises(ValueError, match="at least one vertex"):
            Tournament(())

    def test_list_and_tuple_out_are_equal(self):
        a, b = Tournament([6, 4, 1]), Tournament((6, 4, 1))
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("build", [
    lambda: build_tournament(0, []),
    lambda: gen_random(0, 0),
    lambda: verify_copeland_upper_bound(0),
], ids=["build_tournament", "gen_random", "verify_copeland_upper_bound"])
def test_no_vertices_is_value_error(build):
    with pytest.raises(ValueError, match="^n must be positive$"):
        build()


class TestGenerators:
    def test_rotational_l1_is_three_cycle(self):
        t = gen_rotational(1)
        assert arcs(t) == [(1, 2), (2, 3), (3, 1)]

    def test_rotational_l2(self):
        t = gen_rotational(2)
        assert t.n == 5
        assert t.num_arcs == 10
        for i in t.vertices():
            assert t.out_degree(i) == 2
        assert t.out[3] >> 0 & 1 and t.out[4] >> 1 & 1

    @pytest.mark.parametrize("l", [1, 2, 3, 5])
    def test_rotational_regular(self, l):
        t = gen_rotational(l)
        assert all(t.out_degree(i) == l for i in t.vertices())
        assert sum(t.out_degree(i) for i in t.vertices()) == t.num_arcs

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_rotational_shift_automorphism(self, l):
        t = gen_rotational(l)
        n = t.n
        shift = lambda v: v % n + 1
        for (x, y) in arcs(t):
            assert t.out[shift(x) - 1] >> (shift(y) - 1) & 1

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_composite_counts(self, l):
        t = gen_composite(l)
        assert t.n == (2 * l + 1) ** 2
        assert t.num_arcs == 2 * l * (l + 1) * (2 * l + 1) ** 2

    @pytest.mark.parametrize("l", [1, 2])
    def test_composite_degrees_depend_only_on_layer(self, l):
        t = gen_composite(l)
        for m in range(1, 2 * l + 2):
            expected = (m - 1) + l + 2 * l * l
            for i in range(1, 2 * l + 2):
                assert t.out_degree(composite_vertex(m, i, l)) == expected

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_composite_follows_its_arc_rules(self, l):
        s = 2 * l + 1
        t = gen_composite(l)
        rot = lambda a, b: (b - a) % s in range(1, l + 1)  # a beats a + 1, ..., a + l (mod s)
        for m, i, k, j in product(range(1, s + 1), repeat=4):
            beats = (i == j and m > k) or (m == k and rot(i, j)) or (m != k and i != j and rot(m, k))
            assert (composite_vertex(k, j, l) in out_set(t, composite_vertex(m, i, l))) == beats

    def test_composite_l1_sample_degree(self):
        t = gen_composite(1)
        assert t.out_degree(composite_vertex(3, 2, 1)) == 5

    def test_composite_cap(self):
        with pytest.raises(ResourceLimitError):
            gen_composite(60)

    def test_random_deterministic(self):
        a = gen_random(5, seed=123)
        b = gen_random(5, seed=123)
        assert a == b
        assert a.num_arcs == 10

    def test_random_seed_sensitivity(self):
        assert gen_random(8, seed=1) != gen_random(8, seed=2)

    def test_random_cap(self):
        with pytest.raises(ResourceLimitError):
            gen_random(DEFAULT_VERTEX_CAP + 1, 0)

    def test_random_single_vertex(self):
        t = gen_random(1, seed=0)
        assert arcs(t) == []

    def test_random_negative_seed_is_refused(self):
        # random.Random seeds an int by its absolute value, so -1 would
        # silently draw seed 1's tournament
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            gen_random(3, seed=-1)
        assert gen_random(3, seed=0) != gen_random(3, seed=1)


class TestBitsets:
    @pytest.mark.parametrize("n, seed, digest", [
        (9, 0, "af1688f340c7d82edfe1a876cfd20eb50e601c8d42a4b7fea4f67a4826d38248"),
        (100, 1, "dcc0ec3e8c27a4c53d2913db8936be38eaf130165e96188055bade21c65d328d"),
        (1000, 7, "251f33a563cfc0457c5508cf47099bc8f2eeed8ebe5eb6390ec158437eb87f70"),
    ])
    def test_gen_random_output_pinned(self, n, seed, digest):
        # digests of the output of the frozenset implementation
        text = serialize_tournament(gen_random(n, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seed", range(5))
    def test_gen_random_matches_the_list_reference(self, seed):
        # the same `Random.random()` draws in the same order, so the same coins
        for n in range(1, 71):
            assert gen_random(n, seed) == gen_random_listcomp(n, seed), n

    def test_gen_random_matches_the_list_reference_at_1000(self):
        assert gen_random(1000, 7) == gen_random_listcomp(1000, 7)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65])
    def test_roundtrip_across_byte_padding(self, n):
        t = gen_random(n, n)
        assert parse_tournament(serialize_tournament(t)) == t


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (4, 64), (5, 1024)])
    def test_counts(self, n, count):
        seen = set(enumerate_all(n))
        assert len(seen) == count

    def test_cap(self):
        with pytest.raises(ResourceLimitError, match=f"^enumeration capped at n <= {ENUMERATION_CAP}$"):
            verify_copeland_upper_bound(ENUMERATION_CAP + 1)

    def test_all_valid(self):
        for t in enumerate_all(4):
            assert sum(t.out_degree(x) for x in t.vertices()) == 6


def transitive(n):
    """Vertex x beats every y < x, so the components are {1}, {2}, ..., {n}."""
    return Tournament([(1 << (x - 1)) - 1 for x in range(1, n + 1)])


class TestScc:
    def test_cycle_single_component(self, three_cycle):
        assert scc_decompose(three_cycle) == (frozenset({1, 2, 3}),)

    def test_chain_singletons_losers_first(self, chain3):
        assert scc_decompose(chain3) == (frozenset({3}), frozenset({2}), frozenset({1}))

    def test_composite_strongly_connected(self):
        assert len(scc_decompose(gen_composite(1))) == 1

    def test_cross_arc_convention(self):
        for seed in range(30):
            t = gen_random(7, seed)
            comps = scc_decompose(t)
            for i, ci in enumerate(comps):
                for j in range(i + 1, len(comps)):
                    for x in ci:
                        for y in comps[j]:
                            assert t.out[y - 1] >> (x - 1) & 1

    def test_components_are_strongly_connected(self):
        for seed in range(20):
            t = gen_random(8, seed)
            for comp in scc_decompose(t):
                if len(comp) > 1:
                    sub, _ = induced(t, comp)
                    assert len(scc_decompose_tarjan(sub)) == 1

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0))
    @settings(max_examples=50, deadline=None)
    def test_components_partition_vertices(self, n, seed):
        t = gen_random(n, seed)
        comps = scc_decompose(t)
        seen = [v for c in comps for v in c]
        assert sorted(seen) == list(t.vertices())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_tarjan_exhaustive(self, n):
        for t in enumerate_all(n):
            assert scc_decompose(t) == scc_decompose_tarjan(t)

    @pytest.mark.parametrize("n", [20, 50, 200])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_tarjan_random(self, n, seed):
        t = gen_random(n, seed)
        assert scc_decompose(t) == scc_decompose_tarjan(t)

    def test_matches_tarjan_transitive(self):
        t = transitive(300)
        assert scc_decompose(t) == scc_decompose_tarjan(t)
        assert scc_decompose(t) == tuple(frozenset({v}) for v in t.vertices())

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_matches_tarjan_composite(self, l):
        t = gen_composite(l)
        assert scc_decompose(t) == scc_decompose_tarjan(t)


class TestTextFormat:
    def test_parse_matrix(self):
        t = parse_tournament("3\n010\n001\n100\n")
        assert arcs(t) == [(1, 2), (2, 3), (3, 1)]

    def test_parse_edge_list(self):
        t = parse_tournament("n=3\n1 2\n2 3\n3 1\n")
        assert arcs(t) == [(1, 2), (2, 3), (3, 1)]

    def test_roundtrip(self):
        s = "3\n010\n001\n100\n"
        assert serialize_tournament(parse_tournament(s)) == s

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_random(self, seed):
        t = gen_random(9, seed)
        assert parse_tournament(serialize_tournament(t)) == t

    def test_missing_pair(self):
        with pytest.raises(MissingPairError):
            parse_tournament("2\n00\n00\n")

    def test_conflict(self):
        with pytest.raises(DuplicateOrConflictError):
            parse_tournament("2\n01\n10\n")

    def test_garbage(self):
        with pytest.raises(TournamentSyntaxError):
            parse_tournament("hello")

    def test_bad_row(self):
        with pytest.raises(TournamentSyntaxError):
            parse_tournament("2\n0x\n10\n")

    def test_header_above_cap(self):
        with pytest.raises(ResourceLimitError):
            parse_tournament("n=100000000\n1 2\n")

    def test_short_rows_under_a_huge_header_are_bad_rows(self):
        # 2 MB of text must not reach an n x n allocation (10^12 cells)
        n = 10**6
        with pytest.raises(TournamentSyntaxError, match=r"^bad matrix row '0'$"):
            parse_tournament(f"{n}\n" + "0\n" * n)

    def test_matrix_diagonal_is_loop(self):
        with pytest.raises(LoopArcError):
            parse_tournament("2\n11\n00\n")

    # `int` reads '_' digit groups and non-ASCII digits; the headers and the
    # edge endpoints are ASCII decimals, as ranking labels and values are
    @pytest.mark.parametrize("text, message", [
        pytest.param("n=1_0\n" + "".join(f"{x} {y}\n" for x in range(1, 11) for y in range(x + 1, 11)),
                     "bad header 'n=1_0'", id="header-underscore"),
        pytest.param("n=\u0663\n1 2\n2 3\n3 1\n", "bad header 'n=\u0663'", id="header-arabic-digit"),
        pytest.param("n=3\n1 2\n3 0_1\n2 3\n", "bad edge line '3 0_1'", id="endpoint-underscore"),
        pytest.param("n=3\n1 2\n\u0663 1\n2 3\n", "bad edge line '\u0663 1'", id="endpoint-arabic-digit"),
        pytest.param("n=3\n1 2\n3 \uff11\n2 3\n", "bad edge line '3 \uff11'", id="endpoint-fullwidth-digit"),
        pytest.param("0_3\n011\n001\n000\n", "bad vertex count '0_3'", id="count-underscore"),
        pytest.param("\u0663\n011\n001\n000\n", "bad vertex count '\u0663'", id="count-arabic-digit"),
    ])
    def test_integer_off_ascii_decimal_is_syntax_error(self, text, message):
        assert _outcome(parse_tournament, text) == (TournamentSyntaxError, message)
        assert _outcome(parse_tournament_lines, text) == (TournamentSyntaxError, message)

    @pytest.mark.parametrize("text", ["+3\n011\n001\n000\n", "n=+3\n1 2\n1 3\n2 3\n",
                                      "n=3\n1\u00a02\n1 3\n2 3\n", "n=\u00a03\n1 2\n1 3\n2 3\n",
                                      "\u00a03\n011\n001\n000\n"])
    def test_signed_headers_and_non_ascii_spaces_stay_legal(self, text):
        assert arcs(parse_tournament(text)) == [(1, 2), (1, 3), (2, 3)]
        assert arcs(parse_tournament_lines(text)) == [(1, 2), (1, 3), (2, 3)]

    @pytest.mark.parametrize("text, error", [
        # edge lines are read in file order: the first bad one decides
        ("n=4\n1 2\n2 1\n1 3\nx y\n", DuplicateOrConflictError),
        ("n=4\n1 2\nx y\n1 3\n3 1\n", TournamentSyntaxError),
        ("n=4\n1 2\n2 3 4\n", TournamentSyntaxError),
        # the cap is checked before any edge line is read
        ("n=100000000\nx y\n", ResourceLimitError),
    ])
    def test_edge_list_errors_in_file_order(self, text, error):
        with pytest.raises(error):
            parse_tournament(text)

    def test_edge_list_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            parse_tournament("n=2\n1 3\n")


def _with_row(text, x, edit):
    """text with row x of the matrix (line x, the header being line 0) edited."""
    lines = text.split("\n")
    lines[x] = edit(lines[x])
    return "\n".join(lines)


def _with_cells(text, *cells):
    """text with the cell in row x and column y set to c, for each (x, y, c)."""
    for x, y, c in cells:
        text = _with_row(text, x, lambda row: row[:y - 1] + c + row[y:])
    return text


def _boundary(n):
    """The last row of the parser's first block of rows (the last row but
    one when a single block holds them all)."""
    return min(CHUNK_ENTRIES // n, n - 1)


def _body(text):
    return text[text.index("\n"):]


# (id, edit of a canonical text of n rows, whether the result keeps the
# canonical layout with '0'/'1' cells and so takes the array path)
PARSER_EDITS = [
    ("canonical", lambda s, n: s, True),
    ("crlf", lambda s, n: s.replace("\n", "\r\n"), False),
    ("trailing-space", lambda s, n: _with_row(s, 2, lambda r: r + " "), False),
    ("blank-line", lambda s, n: _with_row(s, 1, lambda r: r + "\n"), False),
    ("indented-line", lambda s, n: _with_row(s, 3, lambda r: "  " + r), False),
    ("no-final-newline", lambda s, n: s[:-1], False),
    ("tab-after-row", lambda s, n: _with_row(s, 2, lambda r: r + "\t"), False),
    ("tab-cell", lambda s, n: _with_cells(s, (2, 3, "\t")), False),
    ("nbsp-after-row", lambda s, n: _with_row(s, 2, lambda r: r + "\u00a0"), False),
    ("nbsp-cell", lambda s, n: _with_cells(s, (2, 3, "\u00a0")), False),
    ("line-separators", lambda s, n: s.replace("\n", "\u2028"), False),
    ("line-separator-cell", lambda s, n: _with_cells(s, (2, 3, "\u2028")), False),
    ("cell-2", lambda s, n: _with_cells(s, (n, 1, "2")), False),
    ("cell-e-acute", lambda s, n: _with_cells(s, (n, 1, "\u00e9")), False),
    ("short-row", lambda s, n: _with_row(s, 2, lambda r: r[:-1]), False),
    ("long-row", lambda s, n: _with_row(s, 2, lambda r: r + "0"), False),
    ("header-leading-zero", lambda s, n: "0" + s, True),
    ("header-plus", lambda s, n: "+" + s, False),
    ("header-0", lambda s, n: "0\n", True),
    ("header-0-over-the-body", lambda s, n: "0" + _body(s), False),
    ("huge-header", lambda s, n: "1000000" + _body(s), False),
    ("header-beyond-int-digits", lambda s, n: "9" * 5000 + _body(s), False),
    ("loop", lambda s, n: _with_cells(s, (_boundary(n) + 1, _boundary(n) + 1, "1")), True),
    ("twice-at-boundary", lambda s, n: _with_cells(
        s, (_boundary(n), _boundary(n) + 1, "1"), (_boundary(n) + 1, _boundary(n), "1")), True),
    ("twice-across-blocks", lambda s, n: _with_cells(s, (1, n, "1"), (n, 1, "1")), True),
    ("missing-at-boundary", lambda s, n: _with_cells(
        s, (_boundary(n), _boundary(n) + 1, "0"), (_boundary(n) + 1, _boundary(n), "0")), True),
    ("missing-across-blocks", lambda s, n: _with_cells(s, (1, n, "0"), (n, 1, "0")), True),
]


def _outcome(parse, text):
    try:
        return parse(text)
    except (FairrankError, ValueError) as e:  # ValueError: n = 0
        return type(e), str(e)


class TestParserPaths:
    @pytest.mark.parametrize("n", [6, 400])  # 400 rows are two blocks of rows
    @pytest.mark.parametrize("edit, canonical", [pytest.param(e, c, id=name) for name, e, c in PARSER_EDITS])
    def test_array_and_line_paths_agree(self, n, edit, canonical):
        text = edit(serialize_tournament(gen_random(n, 1)), n)
        data = text.encode("utf-8")
        # the bytes reader returns None exactly off the canonical layout, and
        # on it gives the matrix oracle's tournament or error
        read = _outcome(_canonical_tournament, data)
        assert (read is not None) == canonical
        if canonical:
            assert read == _outcome(matrix_tournament, matrix_cells(text))
        expected = _outcome(parse_tournament_lines, text)
        assert _outcome(parse_tournament, text) == expected
        assert _outcome(parse_tournament, data) == expected
        assert _outcome(_parse_lines, text) == expected

    def test_faults_are_found_across_the_block_boundary(self):
        n = 400
        b = _boundary(n)
        assert b < n - 1
        s = serialize_tournament(gen_random(n, 1))
        for name, message in [("loop", f"loop arc ({b + 1},{b + 1})"),
                              ("twice-at-boundary", f"pair {{{b + 1},{b}}} oriented twice"),
                              ("twice-across-blocks", f"pair {{{n},1}} oriented twice"),
                              ("missing-at-boundary", f"pair {{{b},{b + 1}}} has no arc"),
                              ("missing-across-blocks", f"pair {{1,{n}}} has no arc")]:
            edit = next(e for e_name, e, _ in PARSER_EDITS if e_name == name)
            assert _outcome(parse_tournament, edit(s, n))[1] == message, name


class TestSerializer:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_format_reference(self, seed):
        for n in range(1, 71):
            t = gen_random(n, seed)
            assert serialize_tournament(t) == serialize_tournament_format(t), n

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_matches_the_format_reference_at_large_n(self, n):
        t = gen_random(n, 1)
        assert serialize_tournament(t) == serialize_tournament_format(t)

    @pytest.mark.parametrize("l", range(1, 9))
    def test_matches_the_format_reference_on_the_families(self, l):
        for t in (gen_rotational(l), gen_composite(l)):
            assert serialize_tournament(t) == serialize_tournament_format(t)
