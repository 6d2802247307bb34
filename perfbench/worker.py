"""One benchmark process: set a workload up and, in the main role, run it.

Started by run.py, never by hand.  The worker imports su11 from the
checkout, generates the seeded inputs and runs every op kind once (the
first oracle call alone can take several times its steady cost), then
prints READY with the CPU seconds it has used so far, its reaped children
included; run.py takes that as the set-up.  A `setup` worker exits there.
The `main` worker goes on:

* trace 0: a closed loop, one op at a time, in whole cycles until
  `--seconds` of wall time have passed.  Each op's CPU time (and wall time)
  is taken alone; its output is checked right after, outside the timed
  region.
* trace 1: a fixed number of cycles, each once untraced and once traced,
  so call counts repeat exactly for a seed and the two rates give the
  tracing overhead.  For cli the cycles also run as whole processes first (for
  cli.process_ms); the traced pass calls su11.cli.main in-process, because
  a subprocess cannot be wrapped from outside.

The main worker prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import selfcheck  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Cycles generated up front: about ten times what a 35 s run gets through at
# the time of writing, so even a much faster program sees no repeated input
# (a cache would otherwise hit).  A run that exhausts them starts over.
PREGENERATED = {"certify": 400, "states": 800, "cli": 80}
# Cycles of a traced run: about ten seconds per pass at the time of writing.
TRACE_CYCLES = {"certify": 3, "states": 8, "cli": 2}
IMPORT_SAMPLES = 5


class Record(NamedTuple):
    kind: str
    seconds: float  # wall time
    cpu: float  # CPU seconds of this process and of the processes the op ran
    ok: bool
    headroom: float | None
    detail: str
    out_bytes: int


class Loop:
    """Runs ops one at a time, timing each and checking its output after."""

    def __init__(self, wl, runner, tracer: Tracer | None = None):
        self.wl = wl
        self.runner = runner
        self.tracer = tracer
        self.records: list[Record] = []
        self.checker_errors = 0

    def step(self, op) -> None:
        error = None
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        try:
            if self.tracer is None:
                out = self.runner(op)
            else:
                self.tracer.op_id = len(self.records)
                with self.tracer.span(f"op.{op.kind}"):
                    out = self.runner(op)
        except Exception as exc:  # the program refused or crashed: a failed op
            error = exc
        seconds = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        if error is not None:
            outcome = workloads.Outcome(False, None, f"raised {type(error).__name__}: {error}"[:300])
            size = 0
        else:
            size = len(getattr(out, "stdout", b""))
            try:
                outcome = self.wl.check(op, out)
            except Exception as exc:  # a broken checker must not pass silently
                self.checker_errors += 1
                outcome = workloads.Outcome(False, None, f"checker raised {type(exc).__name__}: {exc}"[:300])
        self.records.append(Record(op.kind, seconds, cpu, outcome.ok, outcome.headroom, outcome.detail, size))

    def run_for(self, cycles, seconds: float) -> None:
        """Whole cycles until `seconds` of wall time have passed, so every run
        measures the same op mix."""
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            for op in cycles[i % len(cycles)]:
                self.step(op)
            i += 1

    def run_cycles(self, cycles) -> None:
        for cycle in cycles:
            for op in cycle:
                self.step(op)

    def ops_per_s(self) -> float:
        return len(self.records) / sum(r.seconds for r in self.records)

    def ops_per_cpu_s(self) -> float:
        return len(self.records) / sum(r.cpu for r in self.records)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.records)


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def end_to_end(loop: Loop, rss_mb: float) -> tuple[dict, dict]:
    ms = np.array([r.cpu * 1e3 for r in loop.records])
    p50, p90 = (float(v) for v in np.percentile(ms, [50, 90]))
    wall_p50, wall_p90 = (float(v) for v in np.percentile([r.seconds * 1e3 for r in loop.records], [50, 90]))
    n = len(ms)
    headrooms = [r.headroom for r in loop.records if r.headroom is not None]
    metrics = {
        "ops_per_cpu_s": loop.ops_per_cpu_s(),
        "op_cpu_ms_p50": p50,
        "op_cpu_ms_p90": p90,
        "pass_ratio": 1.0 - loop.failed / n,
        "headroom_digits": min(headrooms),
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "ops": n,
        "latency_samples": n,
        "samples_beyond_p90": int(np.sum(ms > p90)),
        "checked_outputs_with_headroom": len(headrooms),
        "fail_ratio": loop.failed / n,
        "wall_ops_per_s": loop.ops_per_s(),
        "wall_op_ms_p50": wall_p50,
        "wall_op_ms_p90": wall_p90,
        "op_cpu_ms": [round(float(v), 3) for v in ms],
    }
    return metrics, samples


def per_kind(records: list[Record]) -> dict:
    out: dict = {}
    for kind in sorted({r.kind for r in records}):
        rs = [r for r in records if r.kind == kind]
        hs = [r.headroom for r in rs if r.headroom is not None]
        failures = [r.detail for r in rs if not r.ok]
        out[kind] = {
            "ops": len(rs),
            "failed": len(failures),
            "median_cpu_ms": statistics.median(r.cpu for r in rs) * 1e3,
            "median_wall_ms": statistics.median(r.seconds for r in rs) * 1e3,
            "min_headroom": min(hs) if hs else None,
            "first_failure": failures[0] if failures else None,
        }
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def import_ms() -> float:
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    times = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import su11"], env=env, check=True, timeout=60)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it is OpenBLAS."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def run_metadata() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (KeyError, TypeError):
        blas = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True, timeout=10
        )
        revision = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "su11").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


def traced_run(wl, name: str, cycles, out_dir: Path, seed: int) -> tuple[dict, Loop, dict]:
    measured = {"cli.import_ms": import_ms()}
    loops = []
    direct = wl.run
    if name == "cli":
        whole = Loop(wl, wl.run)
        whole.run_cycles(cycles)
        measured["cli.process_ms"] = statistics.median(r.seconds for r in whole.records) * 1e3
        loops.append(whole)
        direct = wl.run_in_process
    tracer = Tracer()
    plain, traced = Loop(wl, direct), Loop(wl, direct, tracer)
    loops += [plain, traced]
    # Each cycle runs once untraced and once traced, alternating which goes
    # first, so drift in machine speed does not land on one side.
    for i, cycle in enumerate(cycles):
        for loop in (plain, traced) if i % 2 == 0 else (traced, plain):
            if loop is plain:
                loop.run_cycles([cycle])
                continue
            tracer.install(wl.pkg)
            try:
                loop.run_cycles([cycle])
            finally:
                tracer.uninstall()
    metrics = tracer.summarize([r.kind for r in traced.records])
    metrics.update(measured)
    metrics["cli.bytes_out"] = float(sum(r.out_bytes for r in traced.records))
    metrics["trace.untraced_ops_per_s"] = plain.ops_per_s()
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s()
    metrics["trace.overhead_ratio"] = plain.ops_per_s() / traced.ops_per_s()
    spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    traced.checker_errors = sum(loop.checker_errors for loop in loops)
    samples = {"traced_ops": len(traced.records), "spans": len(tracer.spans), "spans_file": spans_path.name}
    return metrics, traced, samples


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--role", choices=("setup", "main"), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    # SIGTERM unwinds: subprocess.run then kills the su11 process of a cli op.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    pkg = workloads.su11()
    wl = workloads.WORKLOADS[args.workload](pkg)
    count = TRACE_CYCLES[args.workload] if args.trace else PREGENERATED[args.workload]
    cycles = wl.cycles(args.seed, count)
    for op in wl.warmup():
        try:
            wl.run(op)
        except Exception:  # noqa: BLE001  the loop measures and reports every op again
            pass
    print(f"READY {cpu_seconds()!r}", flush=True)
    if args.role == "setup":
        return 0

    out_dir = Path(args.out_dir)
    if args.trace:
        metrics, loop, samples = traced_run(wl, args.workload, cycles, out_dir, args.seed)
    else:
        loop = Loop(wl, wl.run)
        loop.run_for(cycles, args.seconds)
        metrics, samples = end_to_end(loop, peak_rss_mb(children=args.workload == "cli"))
    caught = selfcheck.catches(wl)
    result = {
        "metrics": metrics,
        "attempted": len(loop.records),
        "failed": loop.failed,
        "checker_errors": loop.checker_errors,
        "selfcheck": caught,
        "samples": samples,
        "per_kind": per_kind(loop.records),
        "meta": run_metadata(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
