"""fairrank benchmark: CLI verbs end to end, on seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload random-audit --seed 1 --seconds 24 --trace 0

Ops run in a closed loop with one client: each op is an in-process call to
`fairrank.cli.main(argv)` with stdout and stderr captured, and its exit code
and output are checked.  A run is a whole number of workload cycles, about
`--seconds` of work on the baseline host (see `workloads.CYCLE_S`), so the
ops it attempts, and which of them fail, depend on the seed and `--seconds`
alone, never on the host's speed.  The cost a subprocess per
op would add, a fresh interpreter importing `fairrank.cli`, is measured
separately as `setup_s`.

Times in the result line are in reference seconds: this host's speed drifts
with other load, so each wall time is scaled by CAL_REF_S over the time of a
fixed calibration kernel run next to it, to a power set per workload
(`workloads.HOST_EXPONENT`).  Wall times are printed as wall_*.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs a fixed number
of cycles, each op once untraced and once traced, and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  An op fails when its exit
code or output is wrong; `correct` is false when some op gave a wrong answer,
as opposed to an error exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
CAL_REF_S = 0.050  # calibration kernel time that one reference second assumes
CAL_EVERY_S = 1.5  # op time between two calibrations
CAL_REPEATS = 3  # kernel runs per calibration; it takes their median


def load_fairrank():
    """Import fairrank from this checkout's src/ and nowhere else."""
    if not (SRC / "fairrank" / "cli.py").is_file():
        raise SystemExit(f"error: no fairrank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fairrank.cli

    if Path(fairrank.cli.__file__).resolve().parent != SRC / "fairrank":
        raise SystemExit(f"error: imported fairrank from {fairrank.cli.__file__}")
    return fairrank.cli


def declared_metrics():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass
class Outcome:
    verb: str
    seconds: float  # wall time
    status: str  # "ok" | "error" (error exit) | "wrong" (wrong answer)
    message: str = ""
    ref_seconds: float = 0.0  # wall time in reference seconds


@dataclass
class Result:
    rc: object
    out: str
    err: str


def execute(op, main, tracer=None) -> Outcome:
    from checks import Failed

    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(op.argv) if tracer is None else tracer.root(op.verb, main, op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    try:
        op.check(Result(rc, out.getvalue(), err.getvalue()))
        return Outcome(op.verb, seconds, "ok")
    except Failed as exc:
        return Outcome(op.verb, seconds, "wrong" if exc.wrong else "error", str(exc))
    except Exception as exc:  # output the checks could not parse
        return Outcome(op.verb, seconds, "wrong", f"unverifiable output: {exc!r}")


def calibration_kernel() -> int:
    """Fixed pure-Python work: dict and set inserts, a sort and Fraction sums,
    then a table of 20 000 tuple keys built and read in shuffled order.

    It uses no fairrank code, so no change to the program can move it; its
    time tracks how fast this host runs Python right now.  The shuffled reads
    make it wait on memory as well as on the CPU, as the large workloads do.
    """
    rng = random.Random(7)
    table = {}
    for i in range(20000):
        table[(i * 7919) % 20011] = rng.random()
    total = sum(Fraction(i, 7) for i in range(2000))
    pairs = {((i * 7919) % 20011, i & 7): i for i in range(20000)}
    keys = list(pairs)
    rng.shuffle(keys)
    hits = sum(pairs[key] for key in keys)
    return len(set(table)) + len(sorted(table.values())) + total.numerator + hits


def calibrate() -> float:
    """Median time of CAL_REPEATS runs of the calibration kernel."""
    times = []
    for _ in range(CAL_REPEATS):
        gc.collect()
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def summarize(outcomes) -> dict:
    return {
        "correct": all(o.status != "wrong" for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
    }


def file_bytes(argv, flags) -> int:
    total = 0
    for flag, value in zip(argv, argv[1:]):
        if flag in flags and value != "-" and os.path.exists(value):
            total += os.path.getsize(value)
    return total


def measure_setup():
    """Median time of a fresh interpreter importing fairrank.cli, as
    (reference seconds, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import fairrank.cli"]
    run = dict(env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    subprocess.run(cmd, **run)  # writes the bytecode cache, as a first use would
    wall, ref = [], []
    cal = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, **run)
        wall.append(time.perf_counter() - start)
        after = calibrate()
        ref.append(wall[-1] * 2 * CAL_REF_S / (cal + after))
        cal = after
    return statistics.median(ref), statistics.median(wall)


def tail_percentile(values, q: int):
    """The q-th percentile, or None unless at least 10 samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(cycle, work, rng, main, cycles, exponent=1.0):
    """`cycles` whole workload cycles, op after op.

    The calibration kernel runs before the first op, after the last, and
    between ops whenever CAL_EVERY_S of op time has passed.  An op's time in
    reference seconds is its wall time times (CAL_REF_S / c) ** exponent,
    where c is the mean kernel time of the calibrations just before and just
    after it.
    """
    outcomes, cal_index, cals = [], [], [calibrate()]
    since_cal = 0.0
    for _ in range(cycles):
        for op in cycle(work, rng):
            if since_cal >= CAL_EVERY_S:
                cals.append(calibrate())
                since_cal = 0.0
            outcome = execute(op, main)
            outcomes.append(outcome)
            cal_index.append(len(cals) - 1)
            since_cal += outcome.seconds
    cals.append(calibrate())
    for outcome, i in zip(outcomes, cal_index):
        outcome.ref_seconds = outcome.seconds * (2 * CAL_REF_S / (cals[i] + cals[i + 1])) ** exponent
    return outcomes, cals


def end_to_end(outcomes, cycles, cals):
    """All end-to-end metrics as (value, unit, note); the result line keeps
    the ones BENCHMARK.json declares.  Times are in reference seconds, except
    those named wall_*."""
    n = len(outcomes)
    failed = sum(o.status != "ok" for o in outcomes)
    setup_ref, setup_wall = measure_setup()
    metrics = {
        "setup_s": (setup_ref, "s", f"median of {SETUP_REPEATS}"),
        "ops_per_s": (n / sum(o.ref_seconds for o in outcomes), "1/s", f"{n} ops in {cycles} cycles"),
        "op_p50_s": (statistics.median(o.ref_seconds for o in outcomes), "s", f"n={n}"),
        "fail_frac": (failed / n, "ratio", f"{failed}/{n}"),
        "ok_frac": (1 - failed / n, "ratio", f"{n - failed}/{n}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
        "wall_setup_s": (setup_wall, "s", f"median of {SETUP_REPEATS}"),
        "wall_ops_per_s": (n / sum(o.seconds for o in outcomes), "1/s", ""),
        "calibration_s": (statistics.median(cals), "s", f"median of {len(cals)}"),
    }
    for verb in dict.fromkeys(o.verb for o in outcomes):
        times = [o.ref_seconds for o in outcomes if o.verb == verb]
        metrics[f"{verb}_p50_s"] = (statistics.median(times), "s", f"n={len(times)}")
        p90 = tail_percentile(times, 90)
        if p90 is not None:
            metrics[f"{verb}_p90_s"] = (p90, "s", f"n={len(times)}")
    return metrics


def traced_run(cycle, work, rng, main, cycles, workload, seed):
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    outcomes, plain_s, traced_s = [], 0.0, 0.0
    read = written = 0
    try:
        for _ in range(cycles):
            for i, op in enumerate(cycle(work, rng)):
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        read += file_bytes(op.argv, ("--in", "--ranking"))
                    outcome = execute(op, main, tracer if traced else None)
                    outcomes.append(outcome)
                    if traced:
                        traced_s += outcome.seconds
                        written += file_bytes(op.argv, ("--out", "--json-report"))
                    else:
                        plain_s += outcome.seconds
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.bytes_read"] = read
    metrics["cli.bytes_written"] = written
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    return outcomes, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cli = load_fairrank()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    declared = declared_metrics()
    cycle = workloads.WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}/{args.seed}")
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.trace:
            outcomes, layer = traced_run(cycle, work, rng, cli.main,
                                         workloads.TRACE_CYCLES[args.workload],
                                         args.workload, args.seed)
            units = {m["name"]: m["unit"] for m in declared["per_layer"]}
            report = {name: (layer[name], unit, "") for name, unit in units.items()
                      if name in layer}
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit, _) in report.items()}
        else:
            cycles = workloads.timed_cycles(args.workload, args.seconds)
            outcomes, cals = timed_run(cycle, work, rng, cli.main, cycles,
                                       workloads.HOST_EXPONENT[args.workload])
            report = end_to_end(outcomes, cycles, cals)
            metrics = {m["name"]: {"value": report[m["name"]][0], "unit": report[m["name"]][1]}
                       for m in declared["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [o for o in outcomes if o.status != "ok"]
    for o in failed[:20]:
        print(f"failed {o.verb} ({o.status}): {o.message}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(outcomes)} ops, "
          f"{len(failed)} failed")
    for name, (value, unit, note) in report.items():
        print(f"  {name:45s} {value:14.6g} {unit:6s} {note}")
    print(json.dumps(dict(summarize(outcomes), metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
