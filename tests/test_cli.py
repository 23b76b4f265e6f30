import io
import json
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fairrank import copeland_ranking, gen_random, optimize, parse_ranking, serialize_tournament
from fairrank.cli import main
from oracles import backward_arcs_pairs, out_set

CYCLE = "3\n010\n001\n100\n"
RANDOM5 = "5\n01010\n00011\n11001\n00101\n10000\n"  # gen_random(5, 3)
README = Path(__file__).resolve().parent.parent / "README.md"


def _stdin(text):
    """A stand-in for sys.stdin holding `text`: the CLI reads its bytes
    through `.buffer`, as it reads a file's."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


@pytest.fixture
def cycle_path(tmp_path):
    p = tmp_path / "cycle.txt"
    p.write_text(CYCLE)
    return str(p)


class TestGen:
    def test_rotational(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert main(["gen", "--family", "rotational", "--l", "1", "--out", str(out)]) == 0
        assert out.read_text() == CYCLE
        assert "n=3 edges=3" in capsys.readouterr().out

    def test_composite_summary(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert main(["gen", "--family", "composite", "--l", "1", "--out", str(out)]) == 0
        assert "n=9 edges=36" in capsys.readouterr().out

    def test_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (a, b):
            assert main(["gen", "--family", "random", "--n", "5", "--seed", "7",
                         "--out", str(p)]) == 0
        assert a.read_text() == b.read_text()

    def test_missing_param(self, capsys):
        assert main(["gen", "--family", "rotational"]) == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert main(["gen", "--family", "random", "--n", "3", "--seed", "-1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "seed must be >= 0" in capsys.readouterr().err


class TestRank:
    def test_copeland_on_cycle(self, cycle_path, tmp_path, capsys):
        out = tmp_path / "r.txt"
        assert main(["rank", "--in", cycle_path, "--method", "copeland",
                     "--out", str(out)]) == 0
        assert out.read_text() == "1 1\n2 1\n3 1\n"
        assert "bw=0/1" in capsys.readouterr().out

    def test_linear_fair_on_cycle(self, cycle_path, tmp_path, capsys):
        out = tmp_path / "r.txt"
        report = tmp_path / "report.json"
        assert main(["rank", "--in", cycle_path, "--method", "linear-fair",
                     "--out", str(out), "--json-report", str(report)]) == 0
        stdout = capsys.readouterr().out
        assert "lambda=1.000000000" in stdout
        payload = json.loads(report.read_text())
        assert payload["verified"] is True
        assert len(payload["components"]) == 1

    def test_linear_fair_on_random_500(self, tmp_path):
        t = tmp_path / "t.txt"
        t.write_text(serialize_tournament(gen_random(500, 1)))
        assert main(["rank", "--in", str(t), "--method", "linear-fair",
                     "--out", str(tmp_path / "r.txt")]) == 0

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage")
        assert main(["rank", "--in", str(bad), "--method", "copeland"]) == 2

    def test_header_above_vertex_cap(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("n=100000000\n1 2\n")
        assert main(["rank", "--in", str(big), "--method", "copeland"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_streams_keep_the_summary_on_stderr(self, tmp_path, monkeypatch, capsys):
        # gen | rank --in - --out - | check --ranking -: each data stream on
        # stdout holds the data alone, and each summary goes to stderr
        assert main(["gen", "--family", "random", "--n", "5", "--seed", "1", "--out", "-"]) == 0
        text = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", _stdin(text))
        assert main(["rank", "--in", "-", "--method", "copeland", "--out", "-"]) == 0
        streamed = capsys.readouterr()
        t, r = tmp_path / "t.txt", tmp_path / "r.txt"
        t.write_text(text)
        assert main(["rank", "--in", str(t), "--method", "copeland", "--out", str(r)]) == 0
        summary = capsys.readouterr()
        assert parse_ranking(streamed.out) == parse_ranking(r.read_text())
        assert streamed.err == summary.out and summary.out.startswith("method=copeland bw=")
        assert summary.err == ""
        monkeypatch.setattr(sys, "stdin", _stdin(streamed.out))
        assert main(["check", "--in", str(t), "--ranking", "-", "--class", "scop"]) == 0
        assert capsys.readouterr().out.startswith("PASS class=scop")
        # the JSON report on stdout, the ranking in a file
        assert main(["rank", "--in", str(t), "--method", "linear-fair",
                     "--out", str(r), "--json-report", "-"]) == 0
        streamed = capsys.readouterr()
        assert json.loads(streamed.out)["verified"] is True
        assert streamed.err.startswith("method=linear-fair bw=")


class TestCheck:
    def test_constant_is_nscop(self, cycle_path, tmp_path, capsys):
        r = tmp_path / "r.txt"
        r.write_text("1 0\n2 0\n3 0\n")
        assert main(["check", "--in", cycle_path, "--ranking", str(r),
                     "--class", "nscop"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_tie_break_fails_cop(self, cycle_path, tmp_path, capsys):
        r = tmp_path / "r.txt"
        r.write_text("1 1\n2 1\n3 2\n")
        assert main(["check", "--in", cycle_path, "--ranking", str(r),
                     "--class", "cop"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL")
        assert "pair=" in out

    def test_linear_fair_roundtrip(self, cycle_path, tmp_path):
        r = tmp_path / "r.txt"
        assert main(["rank", "--in", cycle_path, "--method", "linear-fair",
                     "--out", str(r)]) == 0
        for cls in ("lin", "spec", "weak"):
            assert main(["check", "--in", cycle_path, "--ranking", str(r),
                         "--class", cls]) == 0

    def test_nan_rank_is_input_error(self, cycle_path, tmp_path):
        r = tmp_path / "r.txt"
        r.write_text("1 nan\n2 1\n3 2\n")
        assert main(["check", "--in", cycle_path, "--ranking", str(r),
                     "--class", "lin"]) == 2

    def test_domain_mismatch(self, cycle_path, tmp_path):
        r = tmp_path / "r.txt"
        r.write_text("1 1\n2 2\n")
        assert main(["check", "--in", cycle_path, "--ranking", str(r),
                     "--class", "weak"]) == 2

    def test_lin_sums_past_float_range_are_decided(self, tmp_path, capsys):
        # float out-sums are exact sums: past float range they decide as the
        # same ranking scaled down exactly does
        t = tmp_path / "t.txt"
        t.write_text("n=5\n1 2\n1 3\n1 5\n2 3\n2 4\n2 5\n3 4\n3 5\n4 1\n4 5\n")
        r = tmp_path / "r.txt"
        for ranks in ("1e308\n2 1e308\n3 1e308\n4 1e308\n5 9e307", "1\n2 1\n3 1\n4 1\n5 9/10"):
            r.write_text(f"1 {ranks}\n")
            assert main(["check", "--in", str(t), "--ranking", str(r), "--class", "lin"]) == 1
            assert "pair=(3, 1) reason=strict linear violated" in capsys.readouterr().out

    def test_exact_ranks_beyond_float_range(self, tmp_path, capsys):
        # an exact rank above 1e308 is finite: only float values get the finiteness check
        t = tmp_path / "t.txt"
        t.write_text("3\n011\n001\n000\n")
        r = tmp_path / "r.txt"
        r.write_text("1 1" + "0" * 400 + "\n2 1\n3 2\n")
        assert main(["check", "--in", str(t), "--ranking", str(r), "--class", "lin"]) == 1
        assert "pair=(3, 2)" in capsys.readouterr().out

    def test_float_with_exact_rank_beyond_float_range_is_input_error(self, tmp_path, capsys):
        # a float makes the whole ranking float, and 10^400 has no float value
        t = tmp_path / "t.txt"
        t.write_text("3\n011\n001\n000\n")
        r = tmp_path / "r.txt"
        r.write_text("1 1" + "0" * 400 + "\n2 0.5\n3 2\n")
        for argv in (["check", "--class", "lin"], ["dump"]):
            assert main(argv + ["--in", str(t), "--ranking", str(r)]) == 2
            assert capsys.readouterr() == (
                "", "error: ranking mixes floats with an exact value beyond float range\n")


class TestMinimize:
    def test_injective_cycle(self, cycle_path, capsys):
        assert main(["minimize", "--in", cycle_path, "--space", "injective"]) == 0
        assert "count=1 fraction=1/3" in capsys.readouterr().out

    def test_nscop_zero(self, cycle_path, capsys):
        assert main(["minimize", "--in", cycle_path, "--space", "weak-orders",
                     "--class", "nscop"]) == 0
        assert "count=0" in capsys.readouterr().out

    def test_class_with_injective_is_input_error(self, cycle_path, capsys):
        assert main(["minimize", "--in", cycle_path, "--space", "injective",
                     "--class", "lin"]) == 2
        assert "--class applies only to --space weak-orders" in capsys.readouterr().err

    def test_pairwise_class_runs_past_the_enumeration_cap(self, tmp_path, capsys):
        t = tmp_path / "t.txt"
        t.write_text(serialize_tournament(gen_random(7, 1)))
        argv = ["minimize", "--in", str(t), "--space", "weak-orders", "--class"]
        assert main(argv + ["cop"]) == 0
        assert capsys.readouterr().out.startswith("space=weak-orders count=5 ")
        assert main(argv + ["weak"]) == 2
        assert capsys.readouterr() == ("", "error: weak-order enumeration capped at n <= 6\n")

    def test_injective_past_the_cap_is_input_error(self, tmp_path, capsys):
        t = tmp_path / "t.txt"
        t.write_text(serialize_tournament(gen_random(21, 1)))
        assert main(["minimize", "--in", str(t), "--space", "injective"]) == 2
        assert capsys.readouterr() == ("", "error: permutation search capped at n <= 20\n")


class TestEmn:
    def test_sweep_rows(self, capsys):
        assert main(["emn", "--lmax", "2", "--materialize", "2"]) == 0
        out = capsys.readouterr().out
        assert "1/3" in out and "7/15" in out

    def test_sweep_json(self, capsys):
        assert main(["emn", "--lmax", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["limit"] == {"num": 3, "den": 4}

    def test_huge_lmax_is_input_error(self, capsys):
        assert main(["emn", "--lmax", "1000000000000"]) == 2
        assert "capped" in capsys.readouterr().err

    def test_negative_materialize_is_input_error(self, capsys):
        assert main(["emn", "--lmax", "3", "--materialize", "-1"]) == 2
        assert "materialize_up_to must be >= 0" in capsys.readouterr().err

    def test_materialize_past_the_vertex_cap_fails_before_building(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(optimize, "gen_composite", built.append)
        assert main(["emn", "--lmax", "60", "--materialize", "60"]) == 2
        assert "14641 vertices exceed the cap of 10000" in capsys.readouterr().err
        assert built == []

    def test_exhaustive(self, capsys):
        assert main(["emn", "--exhaustive", "4"]) == 0
        assert "within=yes" in capsys.readouterr().out

    def test_sweep_csv(self, capsys):
        assert main(["emn", "--lmax", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "l,n,edges,min_backward,fraction,bound\n"
            "1,9,36,12,1/3,13/18\n"
            "2,25,300,140,7/15,37/50\n")

    def test_exhaustive_json_keys_follow_report_fields(self, capsys):
        assert main(["emn", "--exhaustive", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["n", "checked", "bound", "max_fraction", "all_within"]
        assert payload["bound"] == {"num": 2, "den": 3}

    def test_exhaustive_csv_is_input_error(self, capsys):
        assert main(["emn", "--exhaustive", "4", "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--format csv applies only to the sweep" in captured.err

    def test_exhaustive_up_to_the_enumeration_cap(self, capsys):
        assert main(["emn", "--exhaustive", "6"]) == 0
        out = capsys.readouterr().out
        assert "checked=32768" in out and "max=4/15" in out and "within=yes" in out
        assert main(["emn", "--exhaustive", "7"]) == 2
        assert capsys.readouterr().err == "error: enumeration capped at n <= 6\n"


@pytest.mark.parametrize("ranking,message", [
    ("1 1 1\n", "bad ranking line '1 1 1'"),
    ("a 1\n", "bad vertex in line 'a 1'"),
    ("1 1\n1 2\n2 3\n", "vertex 1 ranked twice"),
    ("1 x\n", "bad value 'x'"),
    ("1 1/0\n", "bad value '1/0'"),
    ("\n  \n", "empty ranking"),
])
def test_bad_ranking_file_is_input_error(ranking, message, cycle_path, tmp_path, capsys):
    r = tmp_path / "r.txt"
    r.write_text(ranking)
    assert main(["check", "--in", cycle_path, "--ranking", str(r), "--class", "lin"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("ranking,message", [
    ("1 1_000\n2 1\n3 2\n", "bad value '1_000'"),
    ("1 1\n2 \u0661\n3 2\n", "bad value '\u0661'"),
    ("1_0 1\n", "bad vertex in line '1_0 1'"),
])
def test_ranking_label_or_value_off_ascii_decimal_is_input_error(ranking, message, cycle_path, tmp_path,
                                                                 capsys):
    r = tmp_path / "r.txt"
    r.write_text(ranking, encoding="utf-8")
    assert main(["check", "--in", cycle_path, "--ranking", str(r), "--class", "lin"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("text,message", [
    ("", "empty input"),
    ("n=x\n", "bad header 'n=x'"),
    ("3\n011\n", "expected 3 matrix rows, found 1"),
    ("0\n", "n must be positive"),
    ("n=0\n", "n must be positive"),
    # headers and arc endpoints are ASCII decimals
    pytest.param("n=1_0\n" + "".join(f"{x} {y}\n" for x in range(1, 11) for y in range(x + 1, 11)),
                 "bad header 'n=1_0'", id="header-underscore"),
    pytest.param("n=\u0663\n1 2\n2 3\n3 1\n", "bad header 'n=\u0663'", id="header-arabic-digit"),
    pytest.param("n=3\n1 2\n3 0_1\n2 3\n", "bad edge line '3 0_1'", id="endpoint-underscore"),
    pytest.param("n=3\n1 2\n\u0663 1\n2 3\n", "bad edge line '\u0663 1'", id="endpoint-arabic-digit"),
    pytest.param("n=3\n1 2\n3 \uff11\n2 3\n", "bad edge line '3 \uff11'", id="endpoint-fullwidth-digit"),
    pytest.param("0_3\n011\n001\n000\n", "bad vertex count '0_3'", id="count-underscore"),
    pytest.param("\u0663\n011\n001\n000\n", "bad vertex count '\u0663'", id="count-arabic-digit"),
])
def test_bad_tournament_file_is_input_error(text, message, tmp_path, capsys):
    t = tmp_path / "t.txt"
    t.write_text(text, encoding="utf-8")
    assert main(["rank", "--in", str(t), "--method", "copeland"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_files_read_as_bytes_keep_line_ends_and_codec_errors(tmp_path, capsys):
    # LF, CRLF and CR-only copies of one tournament and one ranking: the
    # CRLF and CR copies take the parser's line path and the ranking's
    # splitlines, and every command prints what it prints on the LF copy
    text = serialize_tournament(gen_random(7, 1))
    ranking = "".join(f"{v} {v}\n" for v in range(1, 8))
    t, r = tmp_path / "t.txt", tmp_path / "r.txt"
    runs = {}
    for end in ("\n", "\r\n", "\r"):
        t.write_bytes(text.replace("\n", end).encode())
        r.write_bytes(ranking.replace("\n", end).encode())
        runs[end] = [(main(["rank", "--in", str(t), "--method", "copeland", "--out", "-"]),
                      capsys.readouterr())]
        for c in ("scop", "weak", "lin", "inj"):
            runs[end].append((main(["check", "--in", str(t), "--ranking", str(r), "--class", c]),
                              capsys.readouterr()))
    assert {rc for rc, _ in runs["\n"]} == {0, 1}
    assert runs["\r\n"] == runs["\n"] and runs["\r"] == runs["\n"]
    # a UTF-8 byte order mark is a character of the header, and a byte that
    # is not UTF-8 is the codec's error, with its position in the file
    t.write_bytes(b"\xef\xbb\xbf2\n01\n00\n")
    assert main(["rank", "--in", str(t), "--method", "copeland"]) == 2
    assert capsys.readouterr() == ("", "error: bad vertex count '\\ufeff2'\n")
    t.write_bytes(b"3\n010\n0\xff1\n100\n")
    assert main(["rank", "--in", str(t), "--method", "copeland"]) == 2
    assert capsys.readouterr() == (
        "", "error: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n")


@pytest.mark.parametrize("argv,message", [
    ("gen --family random", "--n is required for random"),
    ("gen --family random --n 0", "n must be positive"),
])
def test_gen_random_needs_a_positive_n(argv, message, capsys):
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv,flag", [
    ("emn --exhaustive 4 --lmax 7 --materialize 3", "--lmax"),
    ("rank --in {cycle} --method copeland --json-report {tmp}/rep.json", "--json-report"),
    ("gen --family composite --l 1 --n 7", "--n"),
    ("gen --family random --n 4 --l 9", "--l"),
    ("gen --family rotational --l 1 --seed 3", "--seed"),
])
def test_flag_ignored_by_mode_is_input_error(argv, flag, cycle_path, tmp_path, capsys):
    args = argv.format(cycle=cycle_path, tmp=tmp_path).split()
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} applies only to ")
    assert list(tmp_path.iterdir()) == [Path(cycle_path)]


@pytest.mark.parametrize("argv,flags", [
    ("check --in - --ranking - --class scop", "--in and --ranking"),
    ("dump --in - --ranking -", "--in and --ranking"),
    ("rank --in - --method linear-fair --out - --json-report -", "--out and --json-report"),
])
def test_two_flags_on_one_stream_is_input_error(argv, flags, monkeypatch, capsys):
    # one stdin cannot hold both the tournament and the ranking, nor one
    # stdout both the ranking and the JSON report: nothing is read or written
    text = serialize_tournament(gen_random(4, 1))
    monkeypatch.setattr(sys, "stdin", _stdin(text))
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flags} cannot both be '-'\n"
    assert sys.stdin.read() == text


class TestDump:
    def test_plain_grid(self, cycle_path, capsys):
        assert main(["dump", "--in", cycle_path]) == 0
        out = capsys.readouterr().out
        assert "*" in out and "[" not in out

    def test_backward_arcs_bracketed(self, cycle_path, tmp_path, capsys):
        r = tmp_path / "r.txt"
        r.write_text("1 1\n2 2\n3 3\n")
        assert main(["dump", "--in", cycle_path, "--ranking", str(r)]) == 0
        assert capsys.readouterr().out.count("[*]") == 2

    def test_chain_no_brackets(self, tmp_path, capsys):
        t = tmp_path / "t.txt"
        t.write_text("3\n011\n001\n000\n")
        r = tmp_path / "r.txt"
        r.write_text("1 3\n2 2\n3 1\n")
        assert main(["dump", "--in", str(t), "--ranking", str(r)]) == 0
        assert "[*]" not in capsys.readouterr().out

    @pytest.mark.parametrize("ranked, n", [(False, 12), (True, 12), (False, 1000), (True, 1000)],
                             ids=["False", "True", "False-1000", "True-1000"])
    def test_marks_sit_under_their_labels(self, tmp_path, capsys, ranked, n):
        # two- and four-digit labels: the '*' or '.' of each row's mark for
        # y, and the '*' of a bracketed backward arc, sit under y's last
        # digit, and each row's label fills the field of the widest one
        t = gen_random(n, 1)
        path, r = tmp_path / "t.txt", tmp_path / "r.txt"
        path.write_text(serialize_tournament(t))
        r.write_text("".join(f"{v} {5 * v % 12}\n" for v in t.vertices()))
        assert main(["dump", "--in", str(path)] + ["--ranking", str(r)] * ranked) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        columns = {int(m.group()): m.end() - 1 for m in re.finditer(r"\d+", header)}
        backward = {x: set() for x in t.vertices()}
        for x, y in backward_arcs_pairs(t, parse_ranking(r.read_text())) if ranked else ():
            backward[x].add(y)
        width = max(3, len(str(n)))
        assert len(rows) == n and sorted(columns) == list(t.vertices())
        for row in rows:
            x = int(row[:width])
            assert row[width] == " " and len(row) == len(header) + 1
            beaten = out_set(t, x)
            assert {y: row[c] for y, c in columns.items()} == {
                y: "*" if y in beaten else "." for y in t.vertices()}
            assert {y for y, c in columns.items() if row[c - 1:c + 2] == "[*]"} == backward[x]

    def test_domain_mismatch(self, cycle_path, tmp_path, capsys):
        r = tmp_path / "r.txt"
        r.write_text("1 1\n2 2\n")
        assert main(["dump", "--in", cycle_path, "--ranking", str(r)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ranking domain [1, 2] does not match 1..3\n"

    @pytest.mark.parametrize("exact, near", [(f"{2**53 + 1}", "9007199254740992.0"),
                                             ("1/3", "0.3333333333333333")], ids=["int", "fraction"])
    def test_rows_follow_the_parsed_values(self, tmp_path, capsys, exact, near):
        # 2**53 + 1 stays an int beside the float 2**53, and 1/3 a Fraction
        # beside the float nearest it, so the rows follow the exact order, 2
        # below 1; as floats the two tie, and ties are broken by label
        t, r = tmp_path / "t.txt", tmp_path / "r.txt"
        t.write_text("3\n011\n001\n000\n")
        r.write_text(f"1 {exact}\n2 {near}\n3 -1\n")
        assert main(["dump", "--in", str(t), "--ranking", str(r)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["3", "2", "1"]
        assert [row.split()[0] for row in rows] == ["3", "2", "1"]


# a mixed ranking of 12 vertices: ints, p/q and floats, with an int tied
# to a float (2 and 3), a Fraction tied to a float (7 and 8) and two ranks
# 1e-12 apart (10 and 11); its twin writes every value as a float
MIXED12 = ["7/3", "2", "2.0", "1/3", "5", "0.25", "7/2", "3.5", "1", "4.000000000001", "4", "10/7"]


@pytest.mark.parametrize("copeland", [False, True], ids=["mixed12", "copeland"])
def test_mixed_ranking_reads_as_its_float_twin(tmp_path, capsys, copeland):
    # the parser keeps each value as parsed, and every check of a ranking
    # with a float reads its values as floats, so both files print alike;
    # the out-degrees, written as ints, floats and p/q, pass the Copeland classes
    t, mixed, twin = tmp_path / "t.txt", tmp_path / "mixed.txt", tmp_path / "twin.txt"
    tournament = gen_random(12, 1)
    t.write_text(serialize_tournament(tournament))
    words = MIXED12
    if copeland:
        d = copeland_ranking(tournament)
        words = [(f"{d[v]}", f"{d[v]}.0", f"{2 * d[v]}/2")[v % 3] for v in tournament.vertices()]
    mixed.write_text("".join(f"{v} {word}\n" for v, word in enumerate(words, start=1)))
    twin.write_text("".join(f"{v} {float(Fraction(word))!r}\n" for v, word in enumerate(words, start=1)))
    classes = ("nscop", "scop", "cop", "weak", "spec", "lin", "inj")
    for verb in [["check", "--class", c] for c in classes] + [["dump"]]:
        printed = []
        for r in (mixed, twin):
            rc = main(verb + ["--in", str(t), "--ranking", str(r)])
            printed.append((rc, capsys.readouterr()))
        assert printed[0] == printed[1], verb


class TestRepeatedCalls:
    # main() parses with one parser, built on its first call

    def test_defaults_do_not_carry_over(self, tmp_path, capsys):
        t = tmp_path / "t.txt"
        t.write_text(RANDOM5)
        argv = ["minimize", "--in", str(t), "--space", "weak-orders"]
        assert main(argv + ["--class", "weak"]) == 0
        weak = capsys.readouterr().out
        assert main(argv + ["--class", "lin"]) == 0
        assert "count=3" in capsys.readouterr().out and "count=1" in weak
        assert main(argv) == 0
        assert capsys.readouterr().out == weak
        # a --class left over from the lin call would be rejected here
        assert main(["minimize", "--in", str(t), "--space", "injective"]) == 0
        assert main(["gen", "--family", "random", "--n", "4", "--seed", "7",
                     "--out", str(tmp_path / "r.txt")]) == 0
        # a --seed left over from the random call would be rejected here
        assert main(["gen", "--family", "rotational", "--l", "1",
                     "--out", str(tmp_path / "c.txt")]) == 0

    @pytest.mark.parametrize("argv", [
        ["gen", "--family", "bogus"],
        ["minimize", "--in", "x", "--space", "weak-orders", "--class", "nope"],
        ["frobnicate"],
        [],
    ])
    def test_bad_argv_exits_2_every_time(self, argv, cycle_path, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert main(["minimize", "--in", cycle_path, "--space", "injective"]) == 0
        capsys.readouterr()


def test_copeland_outputs_read_as_with_fraction_ranks(tmp_path, capsys):
    # copeland_ranking holds ints, and str(Fraction(3)) == "3": the ranking
    # file, the dump and the emn bound check read as they did with Fractions
    t, cop = tmp_path / "t.txt", tmp_path / "cop.txt"
    t.write_text(RANDOM5)
    assert main(["rank", "--in", str(t), "--method", "copeland", "--out", str(cop)]) == 0
    assert cop.read_text() == "1 2\n2 2\n3 3\n4 2\n5 1\n"
    assert capsys.readouterr().out == "method=copeland bw=1/5 (~0.200000)\n"
    assert main(["dump", "--in", str(t), "--ranking", str(cop)]) == 0
    assert capsys.readouterr().out == (
        "      5   1   2   4   3\n"
        "  5   .  [*]  .   .   . \n"
        "  1   .   .   *   *   . \n"
        "  2   *   .   .   *   . \n"
        "  4   *   .   .   .  [*]\n"
        "  3   *   *   *   .   . \n"
    )
    assert main(["emn", "--exhaustive", "5"]) == 0
    assert capsys.readouterr().out == (
        "n=5 checked=1024 bound=7/10 (~0.700000) max=1/5 (~0.200000) within=yes\n")


def readme_examples():
    """The `fairrank ...` lines of the sh block under "CLI examples" in README.md."""
    section = README.read_text(encoding="utf-8").split("## CLI examples", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(ln, comments=True)[1:] for ln in block.splitlines()
            if ln.startswith("fairrank ")]


def test_readme_examples_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert len(examples) >= 6
    for argv in examples:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
