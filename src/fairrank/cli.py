"""Command-line front end: gen, rank, check, minimize, emn, dump.

Exit codes: 0 success/PASS, 1 FAIL verdict, 2 input error, 3 I/O error,
4 internal verification failure.  This is the one module that knows an
output format: the library returns report dataclasses, rendered here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from functools import cache

from . import errors
from .fixpoint import LinearFairResult, linear_fair_ranking
from .optimize import (
    emn_sweep_composite,
    min_backward_fair,
    min_backward_injective,
    verify_copeland_upper_bound,
)
from .ranking import (
    FairnessClass,
    backward_arcs,
    copeland_ranking,
    is_fair,
    parse_ranking,
    serialize_ranking,
)
from .tournament import (
    gen_composite,
    gen_random,
    gen_rotational,
    parse_tournament,
    serialize_tournament,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_VERIFY = 4


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator} (~{float(f):.6f})"


def _fraction_json(value) -> dict:
    if not isinstance(value, Fraction):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return {"num": value.numerator, "den": value.denominator}


def report_json(report) -> str:
    """A report dataclass as JSON: its fields in declaration order, every
    Fraction as {"num": p, "den": q}."""
    return json.dumps(dataclasses.asdict(report), default=_fraction_json, indent=2)


def linear_fair_json(result: LinearFairResult) -> dict:
    """The `rank --json-report` payload: per-component Perron data, with a
    null lambda and residual for a singleton, and the ranking in vertex order."""
    return {
        "components": [
            {
                "vertices": list(c.vertices),
                "lambda": None if len(c.ranking) == 1 else c.eigenvalue,
                "residual": None if len(c.ranking) == 1 else c.residual,
                "iterations": c.iterations,
            }
            for c in result.components
        ],
        "ranking": [result.ranking[v] for v in sorted(result.ranking.values.keys())],
        "verified": True,  # linear_fair_ranking returns only verified rankings
    }


def _reject_ignored(flags: dict, scope: str) -> None:
    """A flag that the chosen mode would ignore is an input error (exit 2);
    `flags` maps each such flag to its parsed value, None when absent."""
    given = [flag for flag, value in flags.items() if value is not None]
    if given:
        raise ValueError(f"{given[0]} applies only to {scope}")


def _reject_shared_stream(flags: dict) -> None:
    """Two flags of one command that both name `-` would share stdin or
    stdout, so it is an input error (exit 2) before anything is read or
    written; `flags` maps each flag of one direction to its path."""
    shared = [flag for flag, path in flags.items() if path == "-"]
    if len(shared) > 1:
        raise ValueError(f"{shared[0]} and {shared[1]} cannot both be '-'")


def _read(path: str) -> bytes:
    """The bytes of a file, or of stdin for `-`: `parse_tournament` reads a
    canonical matrix in place, and a ranking is decoded as UTF-8 before it is parsed."""
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- subcommands ------------------------------------------------------------


def cmd_gen(args) -> int:
    if args.family == "random":
        _reject_ignored({"--l": args.l}, "--family rotational and composite")
        if args.n is None:
            raise errors.TournamentSyntaxError("--n is required for random")
        t = gen_random(args.n, args.seed or 0)
    else:
        _reject_ignored({"--n": args.n, "--seed": args.seed}, "--family random")
        if args.l is None:
            raise errors.TournamentSyntaxError(f"--l is required for {args.family}")
        t = (gen_rotational if args.family == "rotational" else gen_composite)(args.l)
    _write(args.out, serialize_tournament(t))
    print(f"n={t.n} edges={t.num_arcs}", file=sys.stderr if args.out == "-" else sys.stdout)
    return EXIT_OK


def cmd_rank(args) -> int:
    if args.method == "copeland":
        _reject_ignored({"--json-report": args.json_report}, "--method linear-fair")
    _reject_shared_stream({"--out": args.out, "--json-report": args.json_report})
    t = parse_tournament(_read(args.in_path))
    result = linear_fair_ranking(t) if args.method == "linear-fair" else None
    r = copeland_ranking(t) if result is None else result.ranking
    report = backward_arcs(t, r)
    _write(args.out, serialize_ranking(r))
    # the summary keeps out of a data stream on stdout, as gen's does
    log = sys.stderr if "-" in (args.out, args.json_report) else sys.stdout
    print(f"method={args.method} bw={frac_str(report.fraction)}", file=log)
    for comp in () if result is None else result.components:
        if len(comp.ranking) == 1:
            print(f"  component {list(comp.vertices)}: singleton", file=log)
        else:
            print(f"  component {list(comp.vertices)}: lambda={comp.eigenvalue:.9f} "
                  f"residual={comp.residual:.3e}", file=log)
    if args.json_report:
        _write(args.json_report, json.dumps(linear_fair_json(result), indent=2) + "\n")
    return EXIT_OK


def cmd_check(args) -> int:
    _reject_shared_stream({"--in": args.in_path, "--ranking": args.ranking})
    t = parse_tournament(_read(args.in_path))
    r = parse_ranking(str(_read(args.ranking), "utf-8"))
    c = FairnessClass.from_string(args.cls)
    verdict = is_fair(t, r, c)
    report = backward_arcs(t, r)
    failure = "" if verdict.ok else f" pair={verdict.certificate} reason={verdict.reason}"
    print(f"{'PASS' if verdict.ok else 'FAIL'} class={c.value}{failure} "
          f"bw={frac_str(report.fraction)}")
    return EXIT_OK if verdict.ok else EXIT_FAIL


def cmd_minimize(args) -> int:
    if args.space == "injective":
        _reject_ignored({"--class": args.cls}, "--space weak-orders")
    t = parse_tournament(_read(args.in_path))
    if args.space == "injective":
        res = min_backward_injective(t)
    else:
        res = min_backward_fair(t, FairnessClass.from_string(args.cls or "weak"))
    print(f"space={args.space} count={res.count} fraction={frac_str(res.fraction)}")
    witness = " ".join(
        f"{v}:{res.witness[v]}" for v in sorted(res.witness.values.keys())
    )
    print(f"witness {witness}")
    return EXIT_OK


def cmd_emn(args) -> int:
    if args.exhaustive is not None:
        _reject_ignored({"--format csv": args.format == "csv" or None,
                         "--lmax": args.lmax, "--materialize": args.materialize},
                        "the sweep, not to --exhaustive")
        report = verify_copeland_upper_bound(args.exhaustive)
        if args.format == "json":
            print(report_json(report))
        else:
            print(f"n={report.n} checked={report.checked} "
                  f"bound={frac_str(report.bound)} max={frac_str(report.max_fraction)} "
                  f"within={'yes' if report.all_within else 'NO'}")
        return EXIT_OK if report.all_within else EXIT_VERIFY
    report = emn_sweep_composite(4 if args.lmax is None else args.lmax, args.materialize or 0)
    if args.format == "json":
        print(report_json(report))
    elif args.format == "csv":
        print("l,n,edges,min_backward,fraction,bound")
        for row in report.rows:
            print(f"{row.l},{row.n},{row.edges},{row.min_backward},"
                  f"{row.fraction.numerator}/{row.fraction.denominator},"
                  f"{row.bound.numerator}/{row.bound.denominator}")
    else:
        print("l     n      edges        min_bw       fraction")
        for row in report.rows:
            mark = "*" if row.materialized else " "
            print(f"{row.l:<5d} {row.n:<6d} {row.edges:<12d} {row.min_backward:<12d} "
                  f"{frac_str(row.fraction)}{mark}")
        print(f"limit {frac_str(report.limit)}")
    return EXIT_OK


def cmd_dump(args) -> int:
    _reject_shared_stream({"--in": args.in_path, "--ranking": args.ranking})
    t = parse_tournament(_read(args.in_path))
    order, backward = list(t.vertices()), (0,) * t.n
    if args.ranking:
        r = parse_ranking(str(_read(args.ranking), "utf-8"))
        backward = backward_arcs(t, r).rows  # raises first on a wrong domain
        order.sort(key=lambda v: (r[v], v))
    # labels take w columns and cells w + 1, so each mark, at offset w - 1,
    # sits under its label's last digit; no vertex beats itself
    w = max(3, len(str(t.n)))
    print(" " * (w + 1) + " ".join(f"{v:>{w}d}" for v in order))
    backward_arc, arc, no_arc = " " * (w - 2) + "[*]", " " * (w - 1) + "* ", " " * (w - 1) + ". "
    for x in order:
        out, back = t.out[x - 1], backward[x - 1]
        cells = [(backward_arc if back >> (y - 1) & 1 else arc) if out >> (y - 1) & 1 else no_arc
                 for y in order]
        print(f"{x:>{w}d} " + "".join(cells))
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fairrank",
                                description="Tournament rankings under fairness axioms")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", help="generate a tournament")
    g.add_argument("--family", choices=["rotational", "composite", "random"], required=True)
    g.add_argument("--l", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int, default=None, help="random family only (default: 0)")
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("rank", help="compute a ranking")
    r.add_argument("--in", dest="in_path", required=True)
    r.add_argument("--method", choices=["copeland", "linear-fair"], required=True)
    r.add_argument("--out", default="-")
    r.add_argument("--json-report", default=None, help="linear-fair method only")
    r.set_defaults(func=cmd_rank)

    c = sub.add_parser("check", help="check a ranking against a fairness class")
    c.add_argument("--in", dest="in_path", required=True)
    c.add_argument("--ranking", required=True)
    c.add_argument("--class", dest="cls", required=True,
                   choices=[fc.value for fc in FairnessClass])
    c.set_defaults(func=cmd_check)

    m = sub.add_parser("minimize", help="minimize backward arcs over a ranking class")
    m.add_argument("--in", dest="in_path", required=True)
    m.add_argument("--space", choices=["injective", "weak-orders"], required=True)
    m.add_argument("--class", dest="cls", default=None,
                   choices=[fc.value for fc in FairnessClass],
                   help="fairness class for --space weak-orders (default: weak)")
    m.set_defaults(func=cmd_minimize)

    e = sub.add_parser("emn", help="backward-fraction harness for the 3/4 limit")
    e.add_argument("--lmax", type=int, default=None, help="sweep only (default: 4)")
    e.add_argument("--materialize", type=int, default=None, help="sweep only (default: 0)")
    e.add_argument("--exhaustive", type=int, default=None)
    e.add_argument("--format", choices=["text", "json", "csv"], default="text")
    e.set_defaults(func=cmd_emn)

    d = sub.add_parser("dump", help="ASCII table of a tournament")
    d.add_argument("--in", dest="in_path", required=True)
    d.add_argument("--ranking", default=None)
    d.set_defaults(func=cmd_dump)

    return p


# Built on the first call to main, not at import, and shared by later calls:
# parse_args keeps no state in the parser, each call parsing into a new Namespace.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except errors.VerificationFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (errors.FairrankError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
