"""Proof that the benchmark's checkers catch wrong outputs.

    python3 perfbench/selfcheck.py

For every workload it runs a few real ops, requires the checker to accept
each real output, then feeds the checker a deliberately corrupted copy --
one amplitude off by 1e-6, one golden byte changed, one verify row flipped,
one matrix element off by 1e-6 -- and requires each to be counted as
failed.  It also requires BENCHMARK.json to name exactly the metrics the
harness reports.  Exit code 0 when everything holds, 1 otherwise.

Every benchmark run repeats the per-workload part (`catches`) after its
loop and reports `correct: false` if a corrupted output got through.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from workloads import Op  # noqa: E402

PERTURBATION = 1e-6


def _bump_peak(amps) -> np.ndarray:
    out = np.array(amps, dtype=np.complex128)
    out[int(np.argmax(np.abs(out)))] += PERTURBATION
    return out


def _cli_cases(wl):
    def run(kind, argv, **params):
        op = Op(kind, dict(params, argv=argv))
        return op, wl.run_in_process(op)

    name, (argv, _) = next(iter(wl.goldens.items()))
    op, out = run(f"golden:{name}", argv, golden=name)
    text = bytearray(out.stdout)
    at = next(i for i in range(len(text) // 2, len(text)) if chr(text[i]).isdigit())
    text[at] = ord("7") if text[at] != ord("7") else ord("3")
    yield "golden byte changed", op, out, out._replace(stdout=bytes(text))

    op, out = run("verify", ["verify", "--r", "0.5", "--dim", "256"], r=0.5)
    lines = out.stdout.decode().split("\n")
    lines[0] = lines[0][: lines[0].rstrip().rfind(" ") + 1] + "FAIL"
    yield "verify row flipped", op, out, out._replace(stdout="\n".join(lines).encode())

    params = {"method": "sum", "k": 0.5, "r": 0.5, "theta": 0.3, "cap": 8, "dim": 256}
    op, out = run("matel:sum", wl.matel_argv(params), **params)
    payload = json.loads(out.stdout)
    payload["data"][9]["re"] += PERTURBATION
    yield "matel element off by 1e-6", op, out, out._replace(stdout=json.dumps(payload).encode())

    params = {"k": 0.75, "order": 3, "r": 0.6, "theta": 0.4}
    argv = ["state", "--family", "lps", "--k", "0.75", "--M", "3", "--r", "0.6", "--theta", "0.4", "--dim", "8192"]
    op, out = run("state:lps@8192", argv, **params)
    payload = json.loads(out.stdout)
    peak = max(payload["data"], key=lambda row: abs(complex(row["re"], row["im"])))
    peak["re"] += PERTURBATION
    yield "lps amplitude off by 1e-6", op, out, out._replace(stdout=json.dumps(payload).encode())


def _cases(wl):
    """(label, op, real output, corrupted output) for one workload."""
    if wl.name == "certify":
        op = Op("group:eigen", {"group": "eigen", "r": 0.5})
        out = wl.run(op)
        yield "verify row flipped", op, out, [dataclasses.replace(out[0], passed=False), *out[1:]]
        op = Op("triple", {"k": 0.75, "r": 0.6, "theta": 0.4})
        total, closed, oracle = wl.run(op)
        bad = oracle.copy()
        bad[3, 5] += PERTURBATION
        yield "oracle element off by 1e-6", op, (total, closed, oracle), (total, closed, bad)
    elif wl.name == "states":
        for op in wl.cycles(0, 1)[0]:
            if op.kind.endswith("@256") and "high-m" not in op.kind:
                out = wl.run(op)
                bad = SimpleNamespace(amplitudes=_bump_peak(workloads.amplitudes_of(out)))
                yield f"{op.kind} amplitude off by 1e-6", op, out, bad
    else:
        yield from _cli_cases(wl)


def catches(wl) -> list[dict]:
    """Run the corrupted-output cases of one workload."""
    results = []
    for label, op, real, corrupted in _cases(wl):
        results.append(
            {
                "case": f"{wl.name}: {label}",
                "real_accepted": wl.check(op, real).ok,
                "corrupted_failed": not wl.check(op, corrupted).ok,
            }
        )
    return results


def declared_metrics_match(pkg) -> list[str]:
    """Differences between BENCHMARK.json and the metrics the harness emits."""
    import run
    import tracing

    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if declared != [(n, u, b) for n, (u, b, _) in run.END_TO_END.items()]:
        problems.append("end_to_end metrics differ from run.END_TO_END")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != tracing.per_layer_metrics():
        problems.append("per_layer metrics differ from tracing.per_layer_metrics()")
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names a workload that workloads.WORKLOADS lacks")
    if tuple(pkg.verify.GROUPS) != tracing.VERIFY_GROUPS:
        problems.append("su11.verify.GROUPS differs from tracing.VERIFY_GROUPS")
    return problems


def main() -> int:
    pkg = workloads.su11()
    bad = 0
    for cls in workloads.WORKLOADS.values():
        for row in catches(cls(pkg)):
            good = row["real_accepted"] and row["corrupted_failed"]
            bad += not good
            print(f"{'ok  ' if good else 'FAIL'} {row['case']}  (real accepted: {row['real_accepted']}, "
                  f"corrupted counted as failed: {row['corrupted_failed']})")
    for problem in declared_metrics_match(pkg):
        bad += 1
        print(f"FAIL {problem}")
    print("self-check passed" if not bad else f"self-check: {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
