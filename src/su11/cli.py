"""Command-line front end.

Four subcommands: `state` prints the coefficient table of one state
family, `matel` prints displacement matrix elements, `stats` prints
photon-number statistics, and `verify` runs the numerical check suite.
Output is JSON (default) or CSV with `#key=value` metadata lines; both
are deterministic for a fixed configuration.  Exit codes: 0 success,
1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

from . import __version__
from .algebra import ConvergenceError, mus_expectation
from .displacement import (
    DisplacementParams,
    column_norm_deficits,
    matrix_columns,
    matrix_element_hyp,
)
from .realizations import (
    distribution_mean,
    distribution_variance,
    mandel_q,
    nbs,
    pair_coherent,
    photon_distribution,
    squeezed_first,
    squeezed_vacuum,
    two_mode_squeezed_vacuum,
)
from .states import LpsParams, bgcs, dns, lps, nlcs, pcs
from .verify import GROUPS, run_checks

__all__ = ["main"]

_DIM_DEFAULT = 256
_DIM_MIN, _DIM_MAX = 8, 8192
_DIM_ENV = "SU11_DEFAULT_DIM"
_CROSS_METHOD_TOL = 1e-8


def _resolve_dim(flag_value) -> int:
    import os

    if flag_value is not None:
        dim = int(flag_value)
    else:
        env = os.environ.get(_DIM_ENV)
        if env is not None:
            try:
                dim = int(env)
            except ValueError:
                raise ValueError(f"{_DIM_ENV} is not an integer: {env!r}")
        else:
            dim = _DIM_DEFAULT
    if not _DIM_MIN <= dim <= _DIM_MAX:
        raise ValueError(f"dim must lie in [{_DIM_MIN}, {_DIM_MAX}], got {dim}")
    return dim


def _require(args, attr: str, flag: str):
    value = getattr(args, attr)
    if value is None:
        raise ValueError(f"{flag} is required for family '{args.family}'")
    return value


def _parse_alpha(values) -> complex:
    if len(values) == 1:
        return complex(values[0], 0.0)
    if len(values) == 2:
        return complex(values[0], values[1])
    raise ValueError("--alpha takes one (real) or two (real imag) numbers")


def _g_preset(text: str, k: float):
    """Nonlinearity presets: pcs-like, bgcs-like, or rational:a,b for (n+a)/(n+b)."""
    if text == "pcs-like":
        return lambda n: 1.0 / (n + 2.0 * k)
    if text == "bgcs-like":
        return lambda n: 1.0
    if text.startswith("rational:"):
        body = text[len("rational:") :]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"rational preset needs two numbers, got {text!r}")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"rational preset needs two numbers, got {text!r}")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"rational preset needs finite numbers, got {text!r}")
        if a <= 0.0 or b <= 0.0:
            raise ValueError("rational preset needs a > 0 and b > 0 to avoid zeros")
        return lambda n: (n + a) / (n + b)
    raise ValueError(
        f"unknown nonlinearity preset {text!r}; use pcs-like, bgcs-like, or rational:a,b"
    )


def _lps_order(args) -> int:
    order = _require(args, "M", "--M")
    if not math.isfinite(order) or int(order) != order:
        raise ValueError("--M must be an integer for family 'lps'")
    return int(order)


def _lps_eigenvalue(obj, k, order, r, theta) -> dict:
    p = LpsParams(order, r, theta, k)
    ev = mus_expectation(obj, p.mu, p.nu)
    return {"eigenvalue_re": ev.real, "eigenvalue_im": ev.imag}


def _pair_k(args) -> float:
    return 0.5 * (args.p + 1)


class _Family(NamedTuple):
    """How the CLI reads, builds and reports one state family.

    flags are read in order, so the first bad one is the one reported.
    Their values, k included unless the family fixes it, are the arguments
    of build before dim, and they give the meta keys in the same order.
    """

    flags: tuple[str, ...]
    build: Callable
    fixed_k: Callable | None = None  # args -> the k the family fixes
    two_mode: bool = False  # rows labelled by occupation pairs
    extra: Callable | None = None  # (state, *values) -> meta after the deficits


# Flags read by more than a presence check.  "params" is --r with --theta as
# DisplacementParams, which also reports them (theta reduced to (-pi, pi]).
_READERS = {
    "alpha": lambda args: _parse_alpha(_require(args, "alpha", "--alpha")),
    "params": lambda args: DisplacementParams(_require(args, "r", "--r"), args.theta),
    "order": _lps_order,
}

_FAMILY_TABLE = {
    "pcs": _Family(("alpha", "k"), pcs),
    "bgcs": _Family(("alpha", "k"), bgcs),
    "nlcs": _Family(
        ("alpha", "k", "G"), lambda alpha, k, preset, dim: nlcs(alpha, k, _g_preset(preset, k), dim)
    ),
    "dns": _Family(("k", "params", "m"), lambda k, params, m, dim: dns(params, m, k, dim)),
    "lps": _Family(
        ("k", "order", "r", "theta"),
        lambda k, order, r, theta, dim: lps(LpsParams(order, r, theta, k), dim),
        extra=_lps_eigenvalue,
    ),
    "nbs": _Family(("alpha", "M", "k"), nbs, fixed_k=lambda args: 0.5 * args.M),
    "sv": _Family(("k", "params"), squeezed_vacuum, fixed_k=lambda args: 0.25),
    "sf": _Family(("k", "params"), squeezed_first, fixed_k=lambda args: 0.75),
    "tmsv": _Family(
        ("k", "params", "p", "sign"), two_mode_squeezed_vacuum, fixed_k=_pair_k, two_mode=True
    ),
    "pair": _Family(("alpha", "k", "p", "sign"), pair_coherent, fixed_k=_pair_k, two_mode=True),
}


def _meta_entries(flag: str, value) -> dict:
    if flag == "alpha":
        return {"alpha_re": value.real, "alpha_im": value.imag}
    if flag == "params":
        return {"r": value.r, "theta": value.theta}
    return {"M" if flag == "order" else flag: value}


def _build_family(args, dim: int):
    family = _FAMILY_TABLE[args.family]
    values: dict = {}
    for flag in family.flags:
        if flag == "k" and family.fixed_k is not None:
            fixed = family.fixed_k(args)
            if args.k is not None and args.k != fixed:
                raise ValueError(
                    f"family '{args.family}' fixes k = {fixed}; drop --k or pass that value"
                )
        elif flag in _READERS:
            values[flag] = _READERS[flag](args)
        else:
            values[flag] = _require(args, flag, f"--{flag}")
    obj = family.build(*values.values(), dim)
    k = values["k"] if family.fixed_k is None else family.fixed_k(args)
    meta: dict = {"family": args.family, "k": float(k), "dim": dim}
    for flag, value in values.items():
        if flag != "k":
            meta.update(_meta_entries(flag, value))
    meta["norm_deficit"] = abs(1.0 - obj.norm)
    meta["truncation_deficit"] = obj.tail_fraction
    if family.extra is not None:
        meta.update(family.extra(obj, *values.values()))
    meta["version"] = __version__
    return obj, meta


def _coefficient_rows(obj, two_mode: bool):
    levels = ("n1", "n2") if two_mode else ("n",)
    rows = []
    for level, c in enumerate(obj.amplitudes.tolist()):
        row = dict(zip(levels, obj.tag.occupations(level) if two_mode else (level,)))
        row.update(re=c.real, im=c.imag, p=abs(c) ** 2)
        rows.append(row)
    return rows, levels + ("re", "im", "p")


def _meta_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


def _render(payload: dict, fieldnames, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"#{key}={_meta_cell(value)}" for key, value in payload["meta"].items()]
    lines.append(",".join(fieldnames))
    for row in payload["data"]:
        cells = []
        for name in fieldnames:
            value = row[name]
            if value is None:
                cells.append("nan")
            elif isinstance(value, int):
                cells.append(str(value))
            else:
                cells.append("%.16e" % float(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_out(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_state(args) -> int:
    dim = _resolve_dim(args.dim)
    obj, meta = _build_family(args, dim)
    rows, fields = _coefficient_rows(obj, _FAMILY_TABLE[args.family].two_mode)
    _write_out(_render({"meta": meta, "data": rows}, fields, args.format), args.out)
    return 0


def _cmd_matel(args) -> int:
    dim = _resolve_dim(args.dim)
    params = DisplacementParams(args.r, args.theta)
    if args.cap < 1:
        raise ValueError(f"--cap must be >= 1, got {args.cap}")
    cap = min(dim, args.cap)
    cols = matrix_columns(range(cap), args.k, params, dim)
    rows = []
    for n in range(cap):
        for m in range(cap):
            value = cols[n, m] if args.method == "sum" else matrix_element_hyp(n, m, args.k, params)
            rows.append({"n": n, "m": m, "re": float(value.real), "im": float(value.imag)})
    meta = {
        "k": args.k,
        "r": params.r,
        "theta": params.theta,
        "method": args.method,
        "cap": cap,
        "dim": dim,
        "cross_method_tolerance": _CROSS_METHOD_TOL,
        "column_norm_deficit": column_norm_deficits(cols).tolist(),
        "version": __version__,
    }
    _write_out(
        _render({"meta": meta, "data": rows}, ("n", "m", "re", "im"), args.format),
        args.out,
    )
    return 0


def _cmd_stats(args) -> int:
    dim = _resolve_dim(args.dim)
    obj, meta = _build_family(args, dim)
    dist = photon_distribution(obj)
    row = {
        "mean": distribution_mean(dist),
        "variance": distribution_variance(dist),
        "mandel_q": mandel_q(dist),
        "norm_deficit": meta["norm_deficit"],
    }
    fields = ("mean", "variance", "mandel_q", "norm_deficit")
    _write_out(_render({"meta": meta, "data": [row]}, fields, args.format), args.out)
    return 0


def _cmd_verify(args) -> int:
    dim = _resolve_dim(args.dim)
    only = None
    if args.only:
        only = [name for chunk in args.only for name in chunk.split(",") if name]
    results = run_checks(dim=dim, r=args.r, only=only)
    group_w = max(len(c.group) for c in results)
    name_w = max(len(c.name) for c in results)
    lines = []
    for c in results:
        status = "ok" if c.passed else "FAIL"
        lines.append(
            f"{c.group:<{group_w}}  {c.name:<{name_w}}  "
            f"{c.value:>10.3e}  {c.threshold:>8.1e}  {status}"
        )
    failed = sum(1 for c in results if not c.passed)
    if failed:
        lines.append(f"{failed} of {len(results)} checks failed (dim={dim}, r={args.r})")
    else:
        lines.append(f"all {len(results)} checks passed (dim={dim}, r={args.r})")
    sys.stdout.write("\n".join(lines) + "\n")
    if args.json_out:
        report = {
            "meta": {"dim": dim, "r": args.r, "version": __version__},
            "checks": [
                {
                    "group": c.group,
                    "name": c.name,
                    "value": c.value if math.isfinite(c.value) else None,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in results
            ],
            "passed": failed == 0,
        }
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
    return 1 if failed else 0


def _add_family_flags(sp) -> None:
    sp.add_argument("--family", required=True, choices=tuple(_FAMILY_TABLE))
    sp.add_argument("--k", type=float, help="Bargmann index (families that need one)")
    sp.add_argument(
        "--alpha",
        type=float,
        nargs="+",
        metavar="X",
        help="coherence amplitude: RE or RE IM",
    )
    sp.add_argument("--r", type=float, help="squeeze/displacement magnitude")
    sp.add_argument("--theta", type=float, default=0.0, help="phase angle")
    sp.add_argument("--m", type=int, help="displaced level (dns)")
    sp.add_argument(
        "--M", type=float, help="polynomial order (lps) or distribution shape (nbs)"
    )
    sp.add_argument(
        "--G", help="nonlinearity preset: pcs-like, bgcs-like, rational:a,b"
    )
    sp.add_argument("--p", type=int, default=0, help="occupation excess (tmsv, pair)")
    sp.add_argument(
        "--sign", type=int, choices=(1, -1), default=1, help="excess mode selector"
    )
    sp.add_argument("--dim", type=int, help="truncation dimension")


def _add_output_flags(sp) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", help="write to this path instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su11",
        description="coherent-state families over the su(1,1) discrete series",
    )
    parser.add_argument(
        "--version", action="version", version=f"su11 {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    state = sub.add_parser("state", help="coefficient table of one state")
    _add_family_flags(state)
    _add_output_flags(state)
    state.set_defaults(handler=_cmd_state)

    matel = sub.add_parser("matel", help="displacement matrix elements")
    matel.add_argument("--k", type=float, required=True)
    matel.add_argument("--r", type=float, required=True)
    matel.add_argument("--theta", type=float, default=0.0)
    matel.add_argument("--method", choices=("sum", "hyp"), default="sum")
    matel.add_argument("--cap", type=int, default=20, help="emit rows with n, m < cap")
    matel.add_argument("--dim", type=int, help="truncation dimension")
    _add_output_flags(matel)
    matel.set_defaults(handler=_cmd_matel)

    stats = sub.add_parser("stats", help="photon-number statistics of one state")
    _add_family_flags(stats)
    _add_output_flags(stats)
    stats.set_defaults(handler=_cmd_stats)

    verify = sub.add_parser("verify", help="run the numerical check suite")
    verify.add_argument("--dim", type=int, help="truncation dimension")
    verify.add_argument("--r", type=float, default=0.5, help="squeeze magnitude")
    verify.add_argument(
        "--only",
        action="append",
        metavar="GROUP",
        help=f"restrict to groups (repeatable, comma-separable): {', '.join(GROUPS)}",
    )
    verify.add_argument("--json-out", help="also write a JSON report here")
    verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (ValueError, ZeroDivisionError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
