"""Tests of the benchmark itself: its checks count wrong answers as failed
ops, its oracles agree with the library, and workloads follow their seed.

Run from the repository root: python -m pytest bench -q
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

import run

cli = run.load_fairrank()

import checks  # noqa: E402  (needs fairrank on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from fairrank import optimize  # noqa: E402
from fairrank.ranking import FairnessClass, Ranking, copeland_ranking, is_fair  # noqa: E402
from fairrank.tournament import gen_random, serialize_tournament  # noqa: E402


def transitive(n):
    return np.triu(np.ones((n, n), dtype=bool), k=1)  # i beats every j > i


def test_wrong_minimize_witness_is_a_failed_op(tmp_path, monkeypatch):
    path = tmp_path / "t.txt"
    checks.write_tournament(path, transitive(6))
    # vertex 1 beats all, so ranking it lowest is neither weakly fair nor count 0
    wrong = optimize.MinBackwardResult(
        0, Fraction(0), Ranking.exact({v: v for v in range(1, 7)}), "weakOrders")
    monkeypatch.setattr(cli, "min_backward_fair", lambda t, c: wrong)
    op = workloads.cli_op(checks.check_minimize_fair(path, "weak"), "minimize",
                       "--in", path, "--space", "weak-orders", "--class", "weak")
    outcome = run.execute(op, cli.main)
    assert outcome.status == "wrong"
    assert run.summarize([outcome]) == {"correct": False, "attempted": 1, "failed": 1}


def test_right_minimize_witness_passes(tmp_path):
    path = tmp_path / "t.txt"
    checks.write_tournament(path, transitive(6))
    op = workloads.cli_op(checks.check_minimize_fair(path, "weak"), "minimize",
                       "--in", path, "--space", "weak-orders", "--class", "weak")
    assert run.execute(op, cli.main).status == "ok"


def test_wrong_emn_fraction_is_a_failed_op(monkeypatch):
    real = optimize.emn_sweep_composite

    def sweep(l_max, materialize):
        report = real(l_max, materialize)
        rows = list(report.rows)
        rows[2] = dataclasses.replace(rows[2], fraction=rows[2].fraction + Fraction(1, 1000))
        return dataclasses.replace(report, rows=tuple(rows))

    monkeypatch.setattr(cli, "emn_sweep_composite", sweep)
    op = workloads.cli_op(checks.check_emn_sweep(10, 2), "emn", "--lmax", 10, "--materialize", 2)
    outcome = run.execute(op, cli.main)
    assert outcome.status == "wrong" and "l=3" in outcome.message
    assert run.summarize([outcome])["failed"] == 1


def test_error_exit_fails_without_a_wrong_answer(tmp_path):
    op = workloads.cli_op(checks.check_gen(tmp_path / "t.txt", 5), "gen",
                       "--family", "random", "--n", 5, "--out", tmp_path / "missing" / "t.txt")
    outcome = run.execute(op, cli.main)
    assert outcome.status == "error"
    assert run.summarize([outcome]) == {"correct": True, "attempted": 1, "failed": 1}


def _cycle_files(workload, seed, work):
    work.mkdir()
    argvs = []
    for op in workloads.WORKLOADS[workload](work, random.Random(f"{workload}/{seed}")):
        assert run.execute(op, cli.main).status in ("ok", "error")
        argvs.append([a.replace(str(work), "<work>") for a in op.argv])
    return argvs, {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def test_workload_reproducible_from_seed(tmp_path):
    first = _cycle_files("exact-small", 5, tmp_path / "a")
    assert first == _cycle_files("exact-small", 5, tmp_path / "b")
    other = _cycle_files("exact-small", 6, tmp_path / "c")
    assert first[0] == other[0] and first[1] != other[1]


def test_timed_run_attempts_whole_cycles_whatever_the_speed(tmp_path):
    def cycle(work, rng):
        for k in range(3):
            yield workloads.Op("gen", ["gen", str(k)], lambda result: None)

    outcomes, cals = run.timed_run(cycle, tmp_path, random.Random(1), lambda argv: 0, 4)
    assert len(outcomes) == 12 and all(o.status == "ok" for o in outcomes)
    assert len(cals) == 2  # no op reached CAL_EVERY_S, so only before and after
    assert workloads.timed_cycles("random-audit", 1) == 1
    assert workloads.timed_cycles("exact-small", 20) == 10


def test_random_audit_gen_seed_follows_run_seed(tmp_path):
    def gen_argv(seed):
        return next(workloads.random_audit(tmp_path, random.Random(f"random-audit/{seed}"))).argv

    assert gen_argv(1) == gen_argv(1) != gen_argv(2)


@pytest.mark.parametrize("cls", ["lin", "inj", "spec"])
def test_oracle_matches_library_on_copeland_rankings(cls):
    for seed in range(40):
        t = gen_random(7, seed)
        r = copeland_ranking(t)
        a = checks.parse_matrix(serialize_tournament(t).encode())
        deg = np.array([t.out_degree(v) for v in t.vertices()], dtype=np.int64)
        verdict = is_fair(t, r, FairnessClass.from_string(cls))
        assert checks.first_violation(a, deg, cls) == verdict.certificate


def test_subset_dp_matches_library_injective_minimum():
    for seed in range(10):
        t = gen_random(7, seed)
        a = checks.parse_matrix(serialize_tournament(t).encode())
        assert checks.min_backward_orders(a) == optimize.min_backward_injective(t).count


def test_tracer_skips_missing_functions_and_counts_calls(tmp_path, monkeypatch):
    layers = dict(tracing.LAYERS, tournament=("parse_tournament", "no_such_function"))
    monkeypatch.setattr(tracing, "LAYERS", layers)
    path = tmp_path / "t.txt"
    checks.write_tournament(path, transitive(4))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        op = workloads.cli_op(checks.check_minimize_fair(path, "weak"), "minimize",
                           "--in", path, "--space", "weak-orders", "--class", "weak")
        assert run.execute(op, cli.main, tracer).status == "ok"
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert not any("no_such_function" in name for name in metrics)
    assert metrics["tournament.parse_tournament.calls"] == 1
    assert metrics["optimize.weak_orders.checked"] == 75  # ordered set partitions of 4
    assert metrics["ranking.is_fair.weak.calls"] == 75
    assert metrics["cli.minimize.calls"] == 1
    assert cli.parse_tournament.__name__ == "parse_tournament"  # originals restored
    assert not hasattr(cli.parse_tournament, "__wrapped__")
