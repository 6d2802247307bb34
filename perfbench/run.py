"""Benchmark of su11: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload certify|states|cli --seed N \
        --seconds S --trace 0|1

Run it from the repository root; it imports su11 from ./src.  Each
workload runs a closed loop, one op at a time from a single process (see
NOTES.md for the workloads and what each metric should respond to).

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed number of
cycles untraced and then traced, and prints the per-layer metrics with the
tracing overhead.  The report goes to stdout with one metric per line; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.  A full record with run metadata, sample counts and a per-op-kind
breakdown is written to perfbench/out/.

`correct` is true when every output went through its checker, no checker
raised, and the checkers rejected every deliberately corrupted output of
selfcheck.py.  Ops whose output misses its check -- including the known
accuracy defects the workloads reach on purpose -- are counted in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUPS = 5  # fresh interpreters per run; setup_s is their median
RUN_LIMIT_S = 170  # a run must end within 180 s

# Every timing is CPU time (user + system, the op's child processes
# included), so time spent waiting for a CPU that a neighbour on a shared
# host holds does not show in it; the wall times are in the report and the
# record.
END_TO_END = {
    "setup_s": ("s", "lower", "CPU time from fresh interpreter to first timed op, median of set-ups"),
    "ops_per_cpu_s": ("1/s", "higher", "ops per CPU second of op time in the timed loop"),
    "op_cpu_ms_p50": ("ms", "lower", "median op CPU time"),
    "op_cpu_ms_p90": ("ms", "lower", "90th-percentile op CPU time"),
    "pass_ratio": ("ratio", "higher", "ops whose output passed its check / ops attempted"),
    "headroom_digits": ("digits", "higher", "min over checked values of log10(bound / error)"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory (of the su11 processes for cli)"),
}


# One BLAS thread: with the library default (one per CPU) a busy neighbour
# on a 2-CPU host doubles a certify triple's wall time, as the threads wait
# for each other.
WORKER_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def start_worker(args, role: str, deadline: float):
    """Start a worker; return its set-up (CPU seconds and wall seconds until it
    printed READY) and its result, None for a set-up worker."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--out-dir", str(OUT_DIR),
    ]
    start = time.perf_counter()
    env = dict(os.environ, **WORKER_ENV)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        # SIGTERM first: the worker then stops the su11 process it is running.
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.terminate)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            wall = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        except BaseException:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
            raise
        finally:
            watchdog.cancel()
    word, _, cpu = ready.partition(" ")
    if word != "READY" or code != 0:
        raise RuntimeError(f"{role} worker failed (exit {code})")
    setup = (float(cpu), wall)
    if role == "setup":
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def report(args, setups, result) -> dict:
    metrics = dict(result["metrics"])
    if args.trace:
        import tracing

        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    else:
        metrics = {"setup_s": statistics.median(cpu for cpu, _ in setups), **metrics}
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    samples = result["samples"]
    print(f"su11 benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced, fixed cycles' if args.trace else f'{args.seconds:g} s timed loop'}")
    for name, unit in units.items():
        note = END_TO_END[name][2] if name in END_TO_END else ""
        print(f"  {name:<52} {metrics[name]:>14.6g} {unit:<7} {note}")
    if not args.trace:
        print(f"  fail_ratio {samples['fail_ratio']:.4f} ({result['failed']} of {result['attempted']} ops failed); "
              f"{samples['latency_samples']} latency samples, {samples['samples_beyond_p90']} beyond p90; "
              f"set-ups (CPU/wall) {', '.join(f'{c:.3f}/{w:.3f}' for c, w in setups)} s")
        print(f"  wall time: {samples['wall_ops_per_s']:.4g} ops/s, p50 {samples['wall_op_ms_p50']:.4g} ms, "
              f"p90 {samples['wall_op_ms_p90']:.4g} ms")
    print("  ops by kind: kind  ops  failed  median_cpu_ms  median_wall_ms  min_headroom  first failure")
    for kind, row in result["per_kind"].items():
        head = "-" if row["min_headroom"] is None else f"{row['min_headroom']:.2f}"
        print(f"    {kind:<28} {row['ops']:>5} {row['failed']:>5} {row['median_cpu_ms']:>10.3f} "
              f"{row['median_wall_ms']:>10.3f} {head:>8}  "
              f"{row['first_failure'] or ''}"[:220])
    for row in result["selfcheck"]:
        print(f"  self-check {row['case']}: real accepted {row['real_accepted']}, "
              f"corrupted failed {row['corrupted_failed']}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def stop(signum, frame):
    """SIGTERM ends the run through the clean-up paths (no result is printed)."""
    raise SystemExit(128 + signum)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "states", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop)
    if not (ROOT / "src" / "su11" / "__init__.py").is_file():
        print(f"error: no su11 package under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "cli" and not (ROOT / "docs" / "goldens" / "manifest.json").is_file():
        print("error: docs/goldens/manifest.json is missing", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    # Set-up workers run before and after the main one, so their median
    # spans the run: the host's speed drifts by 20 % or more within minutes.
    extra = SETUPS - 1 if not args.trace else 0
    try:
        setups = [start_worker(args, "setup", deadline)[0] for _ in range(extra // 2)]
        main_setup, result = start_worker(args, "main", deadline)
        setups.append(main_setup)
        setups += [start_worker(args, "setup", deadline)[0] for _ in range(extra - extra // 2)]
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = report(args, setups, result)
    correct = result["checker_errors"] == 0 and all(
        row["real_accepted"] and row["corrupted_failed"] for row in result["selfcheck"]
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "setup_samples_s": [{"cpu": cpu, "wall": wall} for cpu, wall in setups],
        "samples": result["samples"],
        "per_kind": result["per_kind"],
        "selfcheck": result["selfcheck"],
        "meta": result["meta"],
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
