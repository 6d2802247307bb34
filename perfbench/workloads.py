"""The three benchmark workloads: seeded op streams, op runners and checkers.

A workload is a list of *cycles*.  Every cycle holds the same op kinds in
the same order, and runs measure whole cycles, so the op mix -- and with it
the latency percentiles -- is the same in every run.  The order is fixed
because a short op's latency depends on what ran just before it (a 256x256
matmul before a small verify group makes that group about 25 % slower), so
a seeded order would move the per-kind medians from seed to seed.  The
seed draws every continuous parameter.  Parameters that decide whether
a known accuracy defect is hit (column index, squeeze strength, matel cap)
are either drawn across their full documented range or walk a fixed grid
of range points, so each run meets the defects in the same proportion.

Checkers never call into the code path they check: every output is compared
with an independent route (exact-rational hypergeometric element, the other
coherent-state construction, the binomial law, closed-form moments, the
committed goldens).  A checker returns an `Outcome`; its `headroom` is the
smallest log10(bound / error) over the values it checked, so a loss of
accuracy shows even while a check still passes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDENS = ROOT / "docs" / "goldens"

# A zero error would give infinite headroom; floor it so the value is finite.
ERR_FLOOR = 1e-300

# Bounds the checkers hold outputs to.  They are the package's own stated
# tolerances: unit norm (NORMALIZED_TOL), the verify/acceptance agreement
# bounds between independent routes, and the CLI's cross-method tolerance.
NORM_BOUND = 1e-10
ROUTE_BOUND = 1e-12
ELEMENT_BOUND = 1e-8
MOMENT_BOUND = 1e-9

PROCESS_TIMEOUT_S = 60


def su11():
    """The package under test, imported from this checkout's `src`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import su11 as pkg
    import su11.cli  # noqa: F401  (binds pkg.cli)
    import su11.verify  # noqa: F401

    return pkg


class Op(NamedTuple):
    kind: str  # label used for per-kind breakdowns
    params: dict


class Outcome(NamedTuple):
    ok: bool
    headroom: float | None  # None when the op produced no checked number
    detail: str


@dataclass
class Checks:
    """Collects the checks made on one op's output."""

    ok: bool = True
    headroom: float | None = None
    notes: list = field(default_factory=list)

    def value(self, label: str, error: float, bound: float) -> None:
        error = float(error)
        if not math.isfinite(error):
            self.fail(f"{label}: non-finite error {error}")
            return
        h = math.log10(bound / max(error, ERR_FLOOR))
        self.headroom = h if self.headroom is None else min(self.headroom, h)
        if error > bound:
            self.fail(f"{label}: error {error:.3e} > bound {bound:.0e}")

    def fail(self, note: str) -> None:
        self.ok = False
        self.notes.append(note)

    def outcome(self) -> Outcome:
        return Outcome(self.ok, self.headroom, "; ".join(self.notes))


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _phase(rng: random.Random) -> float:
    return _uniform(rng, -math.pi, math.pi)


def _polar(mag: float, arg: float) -> complex:
    return complex(mag * math.cos(arg), mag * math.sin(arg))


def _grid_stream(rng: random.Random, points: list, count: int) -> list:
    """`count` grid points: whole seeded permutations of `points`, back to back."""
    out: list = []
    while len(out) < count:
        block = list(points)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


# --------------------------------------------------------------------------
# Independent reference routes shared by the states and cli checkers.


def _hyp_element(pkg, n: int, m: int, k: float, r: float, theta: float) -> complex:
    return pkg.displacement.matrix_element_hyp(
        n, m, k, pkg.displacement.DisplacementParams(r, theta)
    )


def sample_levels(amps: np.ndarray) -> list[int]:
    """Levels to compare with the exact element: the peak and the 2/16/50/84/98 %
    points of the weight.  Chosen from the output's own weight profile, so the
    sample does not depend on the seed and always covers the bulk, where
    cancellation errors are largest in absolute terms."""
    w = np.abs(amps) ** 2
    cdf = np.cumsum(w) / float(np.sum(w))
    picks = {int(np.argmax(w))}
    for q in (0.02, 0.16, 0.5, 0.84, 0.98):
        picks.add(min(int(np.searchsorted(cdf, q)), amps.size - 1))
    return sorted(picks)


def check_norm(c: Checks, amps: np.ndarray) -> None:
    c.value("norm deficit", abs(1.0 - float(np.linalg.norm(amps))), NORM_BOUND)


def check_dns_entries(c: Checks, pkg, amps, m, k, r, theta) -> None:
    err = max(
        abs(amps[n] - _hyp_element(pkg, n, m, k, r, theta)) for n in sample_levels(amps)
    )
    c.value("dns entries vs exact element", err, ELEMENT_BOUND)


def _laguerre_coefficients(order: int, k: float, r: float, theta: float) -> np.ndarray:
    """Normalized prestate coefficients of a Laguerre state, closed form."""
    xi = -math.tanh(2.0 * r) * complex(math.cos(theta), math.sin(theta))
    phi = np.zeros(order + 1, dtype=np.complex128)
    for m in range(order + 1):
        mag = math.exp(
            math.lgamma(order + 1.0)
            - math.lgamma(order - m + 1.0)
            - 0.5 * (math.lgamma(m + 1.0) + math.lgamma(2.0 * k + m) - math.lgamma(2.0 * k))
        )
        phi[m] = mag * (-xi) ** m
    return phi / np.linalg.norm(phi)


def check_lps_entries(c: Checks, pkg, amps, order, k, r, theta) -> None:
    phi = _laguerre_coefficients(order, k, r, theta)
    err = 0.0
    for n in sample_levels(amps):
        ref = sum(phi[m] * _hyp_element(pkg, n, m, k, r, theta) for m in range(order + 1))
        err = max(err, abs(amps[n] - ref))
    c.value("lps entries vs exact elements", err, ELEMENT_BOUND)


def check_pcs(c: Checks, pkg, amps, alpha, k) -> None:
    ref = pkg.states.nlcs(alpha, k, lambda n: 1.0 / (n + 2.0 * k), amps.size)
    c.value("pcs vs nlcs G=1/(n+2k)", np.max(np.abs(amps - ref.amplitudes)), ROUTE_BOUND)


def check_nbs(c: Checks, amps, alpha, shape) -> None:
    p = abs(alpha) ** 2
    n = np.arange(amps.size, dtype=np.float64)
    lg = np.array([math.lgamma(shape + i) - math.lgamma(i + 1.0) for i in range(amps.size)])
    law = np.exp(shape * math.log1p(-p) + lg - math.lgamma(shape) + n * math.log(p))
    c.value("nbs vs binomial law", np.max(np.abs(np.abs(amps) ** 2 - law)), ROUTE_BOUND)


def check_pair(c: Checks, pkg, diag, alpha, excess, sign) -> None:
    rz = pkg.realizations
    spread = pkg.states.bgcs(alpha, 0.5 * (excess + 1), diag.size)
    mapped = rz.map_to_fock(spread, rz.TwoMode(excess, sign))
    ref = mapped.diagonal_amplitudes()
    c.value("pair vs mapped bgcs", np.max(np.abs(diag - ref)), ROUTE_BOUND)


def amplitudes_of(obj) -> np.ndarray:
    if hasattr(obj, "diagonal_amplitudes"):
        return np.asarray(obj.diagonal_amplitudes())
    return np.asarray(obj.amplitudes)


# --------------------------------------------------------------------------
# certify: the verify groups one at a time, plus matrix-element triples.

CERTIFY_DIM = 256
TRIPLE_CORNER = 21
# Triples outnumber the 15 groups so that both p50 and p90 fall inside the
# triples' time distribution: the verify groups are short pure-Python ops
# whose time swings by up to 1.6x with the load of a shared machine, while
# the BLAS- and Fraction-bound triples swing by about 1.25x.
TRIPLES_PER_CYCLE = 24


class Certify:
    name = "certify"

    def __init__(self, pkg):
        self.pkg = pkg
        self.groups = tuple(pkg.verify.GROUPS)

    def cycles(self, seed: int, count: int) -> list[list[Op]]:
        rng = random.Random(f"certify/{seed}")
        out = []
        for _ in range(count):
            groups = [Op(f"group:{g}", {"group": g, "r": _uniform(rng, 0.1, 1.0)}) for g in self.groups]
            triples = [
                Op("triple", {"k": _uniform(rng, 0.25, 2.0), "r": _uniform(rng, 0.1, 1.0), "theta": _phase(rng)})
                for _ in range(TRIPLES_PER_CYCLE)
            ]
            out.append([op for pair in itertools.zip_longest(triples, groups) for op in pair if op])
        return out

    def warmup(self) -> list[Op]:
        ops = [Op(f"group:{g}", {"group": g, "r": 0.5}) for g in self.groups]
        return ops + [Op("triple", {"k": 0.5, "r": 0.5, "theta": 0.3})]

    def run(self, op: Op):
        pkg = self.pkg
        p = op.params
        if op.kind == "triple":
            d = pkg.displacement
            params = d.DisplacementParams(p["r"], p["theta"])
            size = range(TRIPLE_CORNER)
            k = p["k"]
            total = np.array([[d.matrix_element_sum(n, m, k, params) for m in size] for n in size])
            closed = np.array([[d.matrix_element_hyp(n, m, k, params) for m in size] for n in size])
            oracle = d.displacement_oracle(k, params, CERTIFY_DIM).entries[:TRIPLE_CORNER, :TRIPLE_CORNER]
            return total, closed, np.array(oracle)
        return pkg.verify.run_checks(CERTIFY_DIM, p["r"], only=p["group"])

    def check(self, op: Op, out) -> Outcome:
        c = Checks()
        if op.kind == "triple":
            total, closed, oracle = out
            split = max(
                float(np.max(np.abs(total - closed))),
                float(np.max(np.abs(total - oracle))),
                float(np.max(np.abs(closed - oracle))),
            )
            c.value("pairwise split of sum / hyp / oracle", split, ELEMENT_BOUND)
            return c.outcome()
        if not out:
            c.fail("no rows")
        for row in out:
            if not row.passed:
                c.fail(f"{row.group}: {row.name} = {row.value!r} (threshold {row.threshold})")
            elif row.threshold > 0.0:
                c.value(row.name, row.value, row.threshold)
        return c.outcome()


# --------------------------------------------------------------------------
# states: every constructor at both ends of the dimension range.

DIM_RANGE = (256, 8192)
# Each family once at the low end and twice at the high end of the range, so
# the median op lies inside the tight group of simple 8192-level builds
# rather than on the gap between the two dimensions.
STATE_DIMS = (256, 8192, 8192)
STATE_FAMILIES = (
    "pcs", "bgcs", "nlcs", "nlcs_exponential", "dns", "lps", "nbs",
    "squeezed_vacuum", "squeezed_first", "two_mode_squeezed_vacuum", "pair_coherent",
)
# Column index / polynomial order, squeeze strength and Bargmann index of the
# minority of dns/lps ops that reach the top of the documented range.
HIGH_M_GRID = [
    (m, r, k) for m in (24, 40, 64) for r in (0.5, 0.75, 1.0) for k in (0.25, 2.0)
]
HIGH_M_STREAMS = (("dns", 256), ("dns", 8192), ("lps", 256))


def _nonlinearity(spec: tuple, k: float) -> Callable[[int], float]:
    if spec[0] == "pcs-like":
        return lambda n: 1.0 / (n + 2.0 * k)
    if spec[0] == "bgcs-like":
        return lambda n: 1.0
    a, b = spec[1], spec[2]
    return lambda n: (n + a) / (n + b)


class States:
    name = "states"

    def __init__(self, pkg):
        self.pkg = pkg

    def _base_params(self, rng: random.Random, fam: str, dim: int) -> dict:
        k = _uniform(rng, 0.25, 2.0)
        disc = min(0.99, 0.9 ** (256 / dim))  # |alpha| that the truncation holds
        if fam in ("pcs", "nbs"):
            p = {"alpha": _polar(_uniform(rng, 0.05, disc), _phase(rng)), "k": k}
            if fam == "nbs":
                p["shape"] = _uniform(rng, 0.5, 6.0)
            return p
        if fam == "bgcs":
            return {"alpha": _polar(_uniform(rng, 0.1, 10.0), _phase(rng)), "k": k}
        if fam == "pair_coherent":
            alpha = _polar(_uniform(rng, 0.1, 10.0), _phase(rng))
            return {"alpha": alpha, "excess": rng.randrange(4), "sign": rng.choice((1, -1))}
        if fam in ("nlcs", "nlcs_exponential"):
            kind = rng.choice(("pcs-like", "bgcs-like", "rational"))
            g = (kind, _uniform(rng, 0.5, 3.0), _uniform(rng, 0.5, 3.0))
            return {"alpha": _polar(_uniform(rng, 0.05, 0.9), _phase(rng)), "k": k, "G": g}
        if fam == "dns":
            return {"m": rng.randrange(17), "r": _uniform(rng, 0.1, 1.0), "theta": _phase(rng), "k": k}
        if fam == "lps":
            return {"order": rng.randrange(7), "r": _uniform(rng, 0.1, 1.0), "theta": _phase(rng), "k": k}
        p = {"r": _uniform(rng, 0.1, 1.0), "theta": _phase(rng)}
        if fam == "two_mode_squeezed_vacuum":
            p["excess"] = rng.randrange(4)
            p["sign"] = rng.choice((1, -1))
        return p

    def cycles(self, seed: int, count: int) -> list[list[Op]]:
        rng = random.Random(f"states/{seed}")
        high = {s: _grid_stream(rng, HIGH_M_GRID, count) for s in HIGH_M_STREAMS}
        out = []
        for i in range(count):
            ops = []
            for fam in STATE_FAMILIES:
                for dim in STATE_DIMS:
                    ops.append(Op(f"{fam}@{dim}", dict(self._base_params(rng, fam, dim), dim=dim)))
                if fam in ("dns", "lps"):
                    for stream in HIGH_M_STREAMS:
                        if stream[0] != fam:
                            continue
                        m, r, k = high[stream][i]
                        key = "m" if fam == "dns" else "order"
                        p = {key: m, "r": r, "k": k, "theta": _phase(rng), "dim": stream[1]}
                        ops.append(Op(f"{fam}-high-m@{stream[1]}", p))
            out.append(ops)
        return out

    def warmup(self) -> list[Op]:
        """One op of every kind."""
        return list({op.kind: op for op in reversed(self.cycles(-1, 1)[0])}.values())

    @staticmethod
    def family(op: Op) -> str:
        return op.kind.split("@")[0].replace("-high-m", "")

    def run(self, op: Op):
        pkg = self.pkg
        st, rz, d = pkg.states, pkg.realizations, pkg.displacement
        p = op.params
        fam, dim = self.family(op), p["dim"]
        if fam == "pcs":
            return st.pcs(p["alpha"], p["k"], dim)
        if fam == "bgcs":
            return st.bgcs(p["alpha"], p["k"], dim)
        if fam == "nlcs":
            return st.nlcs(p["alpha"], p["k"], _nonlinearity(p["G"], p["k"]), dim)
        if fam == "nlcs_exponential":
            return st.nlcs_exponential(p["alpha"], p["k"], _nonlinearity(p["G"], p["k"]), dim)
        if fam == "dns":
            return st.dns(d.DisplacementParams(p["r"], p["theta"]), p["m"], p["k"], dim)
        if fam == "lps":
            return st.lps(st.LpsParams(p["order"], p["r"], p["theta"], p["k"]), dim)
        if fam == "nbs":
            return rz.nbs(p["alpha"], p["shape"], dim)
        if fam == "squeezed_vacuum":
            return rz.squeezed_vacuum(d.DisplacementParams(p["r"], p["theta"]), dim)
        if fam == "squeezed_first":
            return rz.squeezed_first(d.DisplacementParams(p["r"], p["theta"]), dim)
        if fam == "two_mode_squeezed_vacuum":
            params = d.DisplacementParams(p["r"], p["theta"])
            return rz.two_mode_squeezed_vacuum(params, p["excess"], p["sign"], dim)
        if fam == "pair_coherent":
            return rz.pair_coherent(p["alpha"], p["excess"], p["sign"], dim)
        raise ValueError(f"unknown family {fam!r}")

    def check(self, op: Op, out) -> Outcome:
        pkg = self.pkg
        p = op.params
        fam = self.family(op)
        amps = amplitudes_of(out)
        c = Checks()
        # the two-photon states spread dim levels over every other photon number
        size = {"squeezed_vacuum": 2 * p["dim"] - 1, "squeezed_first": 2 * p["dim"]}.get(fam, p["dim"])
        if amps.size != size:
            c.fail(f"{amps.size} levels, expected {size}")
            return c.outcome()
        check_norm(c, amps)
        if fam == "pcs":
            check_pcs(c, pkg, amps, p["alpha"], p["k"])
        elif fam == "nbs":
            check_nbs(c, amps, p["alpha"], p["shape"])
        elif fam == "pair_coherent":
            check_pair(c, pkg, amps, p["alpha"], p["excess"], p["sign"])
        elif fam == "dns":
            check_dns_entries(c, pkg, amps, p["m"], p["k"], p["r"], p["theta"])
        elif fam == "lps":
            check_lps_entries(c, pkg, amps, p["order"], p["k"], p["r"], p["theta"])
        return c.outcome()


# --------------------------------------------------------------------------
# cli: whole `su11` processes, one at a time.


class CliResult(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes


def _r(x: float) -> str:
    return repr(float(x))


# Worst case of `matel --method sum` found by a scan of the documented range
# (cap 64, r in 0.1..1, k in 0.25..2): element error 1.1e-2 against the
# exact element.  It runs once per cycle so every run meets the same
# worst output and headroom_digits does not depend on the seeded draws.
MATEL_PROBE = {"method": "sum", "k": 2.0, "r": 0.9, "theta": 0.0, "cap": 64, "dim": 256}


class Cli:
    name = "cli"

    def __init__(self, pkg):
        self.pkg = pkg
        manifest = json.loads((GOLDENS / "manifest.json").read_text())
        self.goldens = {name: (list(argv), (GOLDENS / name).read_bytes()) for name, argv in manifest.items()}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), self.env.get("PYTHONPATH"))))
        self._matel_refs: dict = {}

    # op construction ------------------------------------------------------

    @staticmethod
    def matel_argv(p: dict) -> list[str]:
        return [
            "matel", "--k", _r(p["k"]), "--r", _r(p["r"]), "--theta", _r(p["theta"]),
            "--method", p["method"], "--cap", str(p["cap"]), "--dim", str(p["dim"]),
        ]

    def cycles(self, seed: int, count: int) -> list[list[Op]]:
        rng = random.Random(f"cli/{seed}")
        out = []
        for i in range(count):
            ops = [Op(f"golden:{name}", {"argv": argv, "golden": name}) for name, (argv, _) in self.goldens.items()]
            lps = {"k": _uniform(rng, 0.25, 2.0), "order": rng.randrange(7), "r": _uniform(rng, 0.1, 1.0), "theta": _phase(rng)}
            lps["argv"] = [
                "state", "--family", "lps", "--k", _r(lps["k"]), "--M", str(lps["order"]),
                "--r", _r(lps["r"]), "--theta", _r(lps["theta"]), "--dim", "8192",
            ]
            ops.append(Op("state:lps@8192", lps))
            pair = {"alpha": _polar(_uniform(rng, 0.1, 10.0), _phase(rng)), "excess": rng.randrange(4), "sign": rng.choice((1, -1))}
            pair["argv"] = [
                "state", "--family", "pair", "--alpha", _r(pair["alpha"].real), _r(pair["alpha"].imag),
                "--p", str(pair["excess"]), "--sign", str(pair["sign"]), "--dim", "8192",
            ]
            ops.append(Op("state:pair@8192", pair))
            dim = DIM_RANGE[i % 2]
            if i % 4 < 2:
                st = {"family": "nbs", "alpha": _polar(_uniform(rng, 0.05, 0.9), _phase(rng)), "shape": _uniform(rng, 0.5, 6.0)}
                st["argv"] = [
                    "stats", "--family", "nbs", "--M", _r(st["shape"]), "--alpha",
                    _r(st["alpha"].real), _r(st["alpha"].imag), "--dim", str(dim),
                ]
            else:
                st = {"family": "sv", "r": _uniform(rng, 0.1, 1.0), "theta": _phase(rng)}
                st["argv"] = ["stats", "--family", "sv", "--r", _r(st["r"]), "--theta", _r(st["theta"]), "--dim", str(dim)]
            ops.append(Op(f"stats:{st['family']}", st))
            # Seeded caps stay below the cancellation onset at min(n, m) ~ 40,
            # where the sum's error jumps erratically between nearby (k, r);
            # MATEL_PROBE covers the range past it in every cycle.
            for method, cap_hi in (("sum", 36), ("hyp", 24)):
                mp = {
                    "method": method, "k": _uniform(rng, 0.25, 2.0), "r": _uniform(rng, 0.1, 1.0),
                    "theta": _phase(rng), "cap": rng.randint(8, cap_hi), "dim": DIM_RANGE[(i + 1) % 2],
                }
                mp["argv"] = self.matel_argv(mp)
                ops.append(Op(f"matel:{method}", mp))
            ops.append(Op("matel:probe", dict(MATEL_PROBE, argv=self.matel_argv(MATEL_PROBE))))
            vr = _uniform(rng, 0.1, 1.0)
            ops.append(Op("verify", {"r": vr, "argv": ["verify", "--r", _r(vr), "--dim", "256"]}))
            out.append(ops)
        return out

    def warmup(self) -> list[Op]:
        name, (argv, _) = next(iter(self.goldens.items()))
        return [Op(f"golden:{name}", {"argv": argv, "golden": name})]

    # running ----------------------------------------------------------------

    def run(self, op: Op) -> CliResult:
        proc = subprocess.run(
            [sys.executable, "-m", "su11.cli", *op.params["argv"]],
            env=self.env, capture_output=True, timeout=PROCESS_TIMEOUT_S, cwd=ROOT,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def run_in_process(self, op: Op) -> CliResult:
        """The same op through `su11.cli.main(argv)`, stdout and stderr captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.pkg.cli.main(list(op.params["argv"]))
        return CliResult(int(code), out.getvalue().encode(), err.getvalue().encode())

    # checking ---------------------------------------------------------------

    def _matel_reference(self, p: dict) -> np.ndarray:
        cap = min(p["cap"], p["dim"])
        key = (p["k"], p["r"], p["theta"], cap)
        if key not in self._matel_refs:
            self._matel_refs[key] = np.array(
                [[_hyp_element(self.pkg, n, m, p["k"], p["r"], p["theta"]) for m in range(cap)] for n in range(cap)]
            )
        return self._matel_refs[key]

    def check(self, op: Op, out: CliResult) -> Outcome:
        c = Checks()
        if out.code != 0:
            c.fail(f"exit {out.code}: {out.stderr.decode(errors='replace').strip()[:200]}")
            return c.outcome()
        p = op.params
        kind = op.kind
        if kind.startswith("golden:"):
            if out.stdout != self.goldens[p["golden"]][1]:
                c.fail(f"stdout differs from golden {p['golden']}")
            return c.outcome()
        if kind == "verify":
            return self._check_verify(c, out.stdout.decode())
        data = json.loads(out.stdout)["data"]
        if kind.startswith("matel:"):
            ref = self._matel_reference(p)
            cap = ref.shape[0]
            if len(data) != cap * cap:
                c.fail(f"{len(data)} elements, expected {cap * cap}")
                return c.outcome()
            got = np.zeros_like(ref)
            for row in data:
                got[row["n"], row["m"]] = complex(row["re"], row["im"])
            c.value("elements vs exact element", np.max(np.abs(got - ref)), ELEMENT_BOUND)
        elif kind == "state:lps@8192":
            amps = np.array([complex(row["re"], row["im"]) for row in data])
            check_norm(c, amps)
            check_lps_entries(c, self.pkg, amps, p["order"], p["k"], p["r"], p["theta"])
        elif kind == "state:pair@8192":
            diag = np.array([complex(row["re"], row["im"]) for row in data])
            check_norm(c, diag)
            check_pair(c, self.pkg, diag, p["alpha"], p["excess"], p["sign"])
        elif kind.startswith("stats:"):
            self._check_stats(c, p, data[0])
        else:
            c.fail(f"no checker for {kind}")
        return c.outcome()

    @staticmethod
    def _check_stats(c: Checks, p: dict, row: dict) -> None:
        if p["family"] == "nbs":
            q = abs(p["alpha"]) ** 2
            mean = p["shape"] * q / (1.0 - q)
            var = mean / (1.0 - q)
        else:
            s2 = math.sinh(p["r"]) ** 2
            mean = s2
            var = 2.0 * s2 * (1.0 + s2)
        c.value("photon mean vs closed form", abs(row["mean"] / mean - 1.0), MOMENT_BOUND)
        c.value("photon variance vs closed form", abs(row["variance"] / var - 1.0), MOMENT_BOUND)

    @staticmethod
    def _check_verify(c: Checks, text: str) -> Outcome:
        lines = text.rstrip("\n").split("\n")
        if not lines[-1].startswith("all ") or "checks passed" not in lines[-1]:
            c.fail(f"summary line: {lines[-1]!r}")
        rows = lines[:-1]
        if not rows:
            c.fail("no check rows")
        for line in rows:
            parts = line.split()
            try:
                value, threshold, status = float(parts[-3]), float(parts[-2]), parts[-1]
            except (IndexError, ValueError):
                c.fail(f"unparsable row {line!r}")
                continue
            if status != "ok":
                c.fail(f"row not ok: {line.strip()}")
            elif threshold > 0.0:
                c.value(" ".join(parts[1:-3]), value, threshold)
            elif value != 0.0:
                c.fail(f"exact check nonzero: {line.strip()}")
        return c.outcome()


WORKLOADS: dict[str, Any] = {"certify": Certify, "states": States, "cli": Cli}
