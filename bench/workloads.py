"""The three workloads, as cycles of CLI ops on seeded inputs.

A cycle is a generator of `Op`s; the runner executes each op before the
generator resumes, so a later op can read what an earlier one wrote.  Every
random draw of a cycle happens before its first op, from the run's seeded
`random.Random`, so the inputs depend on the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List

import checks
from fairrank.ranking import FairnessClass

CLASSES = tuple(c.value for c in FairnessClass)

RANDOM_N = 1000
SMALL_N = 6  # WEAK_ORDER_CAP
INJECTIVE_N = 10  # INJECTIVE_SEARCH_CAP
INJECTIVE_PER_CYCLE = 3
ROTATIONAL_L = 4
EXHAUSTIVE_N = 5
COMPOSITE_LS = (2, 4, 6, 8)  # l = 2 is the dump size
EMN_LMAX, EMN_MATERIALIZE = 100, 8


@dataclass(frozen=True)
class Op:
    verb: str
    argv: List[str]
    check: Callable


def cli_op(check, verb: str, *args) -> Op:
    return Op(verb, [verb] + [str(a) for a in args], check)


def random_audit(work: Path, rng) -> Iterator[Op]:
    """gen, Copeland rank, six checks of the Copeland ranking, linear-fair rank."""
    t, cop, lf = work / "t.txt", work / "cop.txt", work / "lf.txt"
    seed = rng.randrange(2**31)
    yield cli_op(checks.check_gen(t, RANDOM_N), "gen",
              "--family", "random", "--n", RANDOM_N, "--seed", seed, "--out", t)
    yield cli_op(checks.check_copeland(t, cop), "rank",
              "--in", t, "--method", "copeland", "--out", cop)
    for cls in ("nscop", "scop", "cop", "weak", "lin", "inj"):
        must_pass = cls not in ("lin", "inj")
        yield cli_op(checks.check_verdict(t, cop, cls, must_pass), "check",
                  "--in", t, "--ranking", cop, "--class", cls)
    yield cli_op(checks.check_linear_fair(t, lf, verify_lin=True), "rank",
              "--in", t, "--method", "linear-fair", "--out", lf)


def exact_small(work: Path, rng) -> Iterator[Op]:
    """Weak-order minimize per class at n = 6, injective minimize at n = 10 and
    on a relabeled rotational tournament, and the exhaustive n = 5 bound check."""
    small = work / "small.txt"
    tens = [work / f"ten{k}.txt" for k in range(INJECTIVE_PER_CYCLE)]
    checks.write_tournament(small, checks.random_tournament(SMALL_N, rng))
    for path in tens:
        checks.write_tournament(path, checks.random_tournament(INJECTIVE_N, rng))
    rot_n = 2 * ROTATIONAL_L + 1
    perm = rng.sample(range(rot_n), rot_n)
    for cls in CLASSES:
        yield cli_op(checks.check_minimize_fair(small, cls), "minimize",
                  "--in", small, "--space", "weak-orders", "--class", cls)
    for path in tens:
        yield cli_op(checks.check_minimize_injective(path), "minimize",
                  "--in", path, "--space", "injective")
    gen_out, rot = work / "rot-gen.txt", work / "rot.txt"
    yield cli_op(checks.check_gen(gen_out, rot_n), "gen",
              "--family", "rotational", "--l", ROTATIONAL_L, "--out", gen_out)
    checks.relabel(gen_out, rot, perm)
    yield cli_op(checks.check_minimize_injective(rot), "minimize",
              "--in", rot, "--space", "injective")
    yield cli_op(checks.check_emn_exhaustive(EXHAUSTIVE_N), "emn", "--exhaustive", EXHAUSTIVE_N)


def composite_spectral(work: Path, rng) -> Iterator[Op]:
    """Per l: gen, relabel, linear-fair and Copeland ranks, checks of the
    linear-fair ranking; spec of the Copeland ranking at l = 4; dump at l = 2;
    then the emn sweep."""
    sizes = {l: (2 * l + 1) ** 2 for l in COMPOSITE_LS}
    perms = {l: rng.sample(range(n), n) for l, n in sizes.items()}
    for l, n in sizes.items():
        gen_out, t = work / f"c{l}-gen.txt", work / f"c{l}.txt"
        lf, cop, report = work / f"c{l}-lf.txt", work / f"c{l}-cop.txt", work / f"c{l}.json"
        yield cli_op(checks.check_gen(gen_out, n), "gen",
                  "--family", "composite", "--l", l, "--out", gen_out)
        checks.relabel(gen_out, t, perms[l])
        if l == 2:
            yield cli_op(checks.check_linear_fair(t, lf), "rank",
                      "--in", t, "--method", "linear-fair", "--out", lf)
            yield cli_op(checks.check_dump(t, lf), "dump", "--in", t, "--ranking", lf)
            continue
        yield cli_op(checks.check_linear_fair(t, lf, report), "rank", "--in", t,
                  "--method", "linear-fair", "--out", lf, "--json-report", report)
        yield cli_op(checks.check_copeland(t, cop), "rank",
                  "--in", t, "--method", "copeland", "--out", cop)
        for cls in ("lin", "spec", "weak"):
            yield cli_op(checks.check_verdict(t, lf, cls, True), "check",
                      "--in", t, "--ranking", lf, "--class", cls)
        if l == 4:
            yield cli_op(checks.check_verdict(t, cop, "spec", False), "check",
                      "--in", t, "--ranking", cop, "--class", "spec")
    yield cli_op(checks.check_emn_sweep(EMN_LMAX, EMN_MATERIALIZE), "emn",
              "--lmax", EMN_LMAX, "--materialize", EMN_MATERIALIZE)


WORKLOADS = {
    "random-audit": random_audit,
    "exact-small": exact_small,
    "composite-spectral": composite_spectral,
}

# Wall seconds one cycle takes on the baseline host (2-vCPU Xeon VM, Python
# 3.11).  A timed run of --seconds S runs round(S / CYCLE_S) whole cycles, at
# least one: a fixed op list, so attempted and failed ops repeat exactly for
# a seed however fast the host is, and a faster program finishes sooner.
CYCLE_S = {"random-audit": 20.0, "exact-small": 2.0, "composite-spectral": 3.6}


def timed_cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CYCLE_S[workload]))


# How strongly an op's time follows the calibration kernel's when the host
# speeds up or slows down, as a power: wall time t between kernel times c
# counts as t * (CAL_REF_S / c) ** HOST_EXPONENT reference seconds.  The
# composite-spectral ops spend much of their time in numpy, which follows the
# pure-Python kernel about half as much; fitted over runs on the baseline host.
HOST_EXPONENT = {"random-audit": 1.0, "exact-small": 1.0, "composite-spectral": 0.5}


# Cycles of the traced run: fixed, so its counts repeat exactly for a seed.
TRACE_CYCLES = {"random-audit": 1, "exact-small": 2, "composite-spectral": 2}
