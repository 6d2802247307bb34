"""Per-layer tracing of su11 from outside: wraps each module's public functions.

Several modules bind library names with `from .x import y`, so replacing
`su11.displacement.matrix_column` alone would miss every call that
`states.dns` makes through its own binding.  `Tracer.install` therefore
replaces every binding of a wrapped function object in every su11 module
and in the package namespace, and `uninstall` puts the originals back.

Spans (name, start, end, parent, op id, raised) are kept in memory while
the traced ops run and written out once at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter
from pathlib import Path

MODULES = ("specfun", "algebra", "states", "displacement", "realizations", "verify", "cli")

# Functions that get a span, by module.
SPANNED = {
    "specfun": ("hyp2f1_terminating", "bessel_i", "laguerre"),
    "displacement": (
        "matrix_element_sum", "matrix_element_hyp", "matrix_column",
        "matrix_table", "displacement_oracle", "decomposed_apply",
    ),
    "states": ("pcs", "bgcs", "nlcs", "nlcs_exponential", "dns", "lps", "laguerre_prestate"),
    "algebra": (
        "eigen_residual_lowering", "mus_residual", "gdo_residuals",
        "ladder_residual_general", "commutator_residuals",
    ),
    "realizations": (
        "nbs", "squeezed_vacuum", "squeezed_first", "two_mode_squeezed_vacuum",
        "pair_coherent", "map_to_fock", "parity_sector_element",
        "photon_distribution", "two_mode_nlcs_residual", "two_photon_nlcs_residual",
    ),
}
# Called too often for a span each; only counted.
COUNTED = ("apply_kplus", "apply_kminus")  # in algebra, plus StateVector constructions

# `su11 verify` groups; a run_checks call for one group is the span verify.<group>.
VERIFY_GROUPS = (
    "specfun", "commutator", "casimir", "gdo", "ladder", "eigen", "nlcs", "matel",
    "dns", "lps", "nbs", "squeeze", "parity", "twomode", "faithful",
)

EXACT_COUNTS = (
    "displacement.matrix_element_sum.calls_per_op",
    "displacement.matrix_element_sum.calls_per_matel_group",
    "states.nlcs.calls_per_nlcs_exponential",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module in MODULES:
        if module == "algebra":
            out.append(("algebra.StateVector.calls", "count", "lower"))
            out.extend((f"algebra.{fn}.calls", "count", "lower") for fn in COUNTED)
        for fn in SPANNED.get(module, ()):
            out.append((f"{module}.{fn}.calls", "count", "lower"))
            out.append((f"{module}.{fn}.ms", "ms", "lower"))
        if module == "verify":
            out.extend((f"verify.{g}.ms", "ms", "lower") for g in VERIFY_GROUPS)
        if module == "cli":
            out += [
                ("cli.import_ms", "ms", "lower"),
                ("cli.process_ms", "ms", "lower"),
                ("cli.main_ms", "ms", "lower"),
                ("cli.bytes_out", "bytes", "lower"),
            ]
        out.append((f"{module}.self_ms", "ms", "lower"))
        out.append((f"{module}.errors", "count", "lower"))
    out += [(name, "count", "lower") for name in EXACT_COUNTS]
    out += [
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.traced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = -1
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    # wrappers ---------------------------------------------------------------

    def _span(self, fn, name_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name_of(args, kwargs), start, end, parent, tracer.op_id, raised)

        return wrapper

    def _counter(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str):
        """Context manager: a root span around one op."""
        return _RootSpan(self, name)

    # install / uninstall ----------------------------------------------------

    def install(self, pkg) -> None:
        modules = {m: getattr(pkg, m) for m in MODULES}
        replace: dict[int, tuple] = {}

        def plan(original, wrapper):
            replace[id(original)] = (original, wrapper)

        for module, names in SPANNED.items():
            for fn_name in names:
                original = getattr(modules[module], fn_name, None)
                if original is not None:
                    label = f"{module}.{fn_name}"
                    plan(original, self._span(original, lambda a, k, label=label: label))
        for fn_name in COUNTED:
            original = getattr(modules["algebra"], fn_name, None)
            if original is not None:
                plan(original, self._counter(original, f"algebra.{fn_name}.calls"))
        run_checks = getattr(modules["verify"], "run_checks", None)
        if run_checks is not None:
            plan(run_checks, self._span(run_checks, _verify_span_name))
        main = getattr(modules["cli"], "main", None)
        if main is not None:
            plan(main, self._span(main, lambda a, k: "cli.main"))

        for namespace in [pkg, *modules.values()]:
            for attr, value in list(vars(namespace).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
                    self._undo.append((namespace, attr, value))

        cls = getattr(modules["algebra"], "StateVector", None)
        post_init = getattr(cls, "__post_init__", None)
        if post_init is not None:
            setattr(cls, "__post_init__", self._counter(post_init, "algebra.StateVector.calls"))
            self._undo.append((cls, "__post_init__", post_init))

    def uninstall(self) -> None:
        while self._undo:
            namespace, attr, value = self._undo.pop()
            setattr(namespace, attr, value)

    # results ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_ms", "end_ms", "parent", "op", "raised"]) + "\n")
            for name, start, end, parent, op, raised in self.spans:
                row = [name, round((start - t0) * 1e3, 6), round((end - t0) * 1e3, 6), parent, op, raised]
                fh.write(json.dumps(row) + "\n")

    def summarize(self, op_kinds: list[str]) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        `op_kinds[i]` is the kind of traced op i.  `.ms` is inclusive busy
        time and `<module>.self_ms` is span time minus the time of the
        span's direct children, both summed over the traced ops.
        """
        metrics: dict[str, float] = {name: 0.0 for name, _, _ in per_layer_metrics()}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        sums_in_op: Counter = Counter()
        nlcs_under_exp = 0
        for i, (name, start, end, parent, op, raised) in enumerate(self.spans):
            module = name.split(".", 1)[0]
            if module not in MODULES:
                continue  # the benchmark's own root span of an op
            dur_ms = (end - start) * 1e3
            if f"{name}.calls" in metrics:
                metrics[f"{name}.calls"] += 1
            ms_key = "cli.main_ms" if name == "cli.main" else f"{name}.ms"
            if ms_key in metrics:  # verify.run_checks over several groups has no metric
                metrics[ms_key] += dur_ms
            metrics[f"{module}.self_ms"] += dur_ms - child[i] * 1e3
            metrics[f"{module}.errors"] += raised
            if name == "displacement.matrix_element_sum":
                sums_in_op[op] += 1
            elif name == "states.nlcs" and parent >= 0 and self.spans[parent][0] == "states.nlcs_exponential":
                nlcs_under_exp += 1
        metrics.update(self.counts)
        ops = max(len(op_kinds), 1)
        metrics["displacement.matrix_element_sum.calls_per_op"] = sum(sums_in_op.values()) / ops
        matel_ops = [i for i, kind in enumerate(op_kinds) if kind == "group:matel"]
        if matel_ops:
            metrics["displacement.matrix_element_sum.calls_per_matel_group"] = sum(
                sums_in_op[i] for i in matel_ops
            ) / len(matel_ops)
        if metrics["states.nlcs_exponential.calls"]:
            metrics["states.nlcs.calls_per_nlcs_exponential"] = (
                nlcs_under_exp / metrics["states.nlcs_exponential.calls"]
            )
        return metrics


def _verify_span_name(args, kwargs) -> str:
    only = kwargs.get("only", args[2] if len(args) > 2 else None)
    return f"verify.{only}" if isinstance(only, str) else "verify.run_checks"


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.index)
        self.start = time.perf_counter()
        t.active = True
        return self

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        end = time.perf_counter()
        t.active = False
        t._stack.pop()
        t.spans[self.index] = (self.name, self.start, end, -1, t.op_id, exc_type is not None)
        return False
