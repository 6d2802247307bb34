import argparse
import ast
import errno
import importlib
import json
import math
import os
import pathlib
import pkgutil
import warnings

import numpy as np
import pytest

import su11
from su11 import cli, realizations
from su11.cli import main
from su11.displacement import DisplacementParams
from su11.verify import run_checks

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "goldens"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicInvocation:
    def test_state_exits_clean(self, capsys):
        code, out, err = run(
            capsys, "state", "--family", "pcs", "--alpha", "0.5", "--k", "0.5",
            "--dim", "64",
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["meta"]["family"] == "pcs"
        assert len(payload["data"]) == 64

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("su11 ")

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, err = run(
            capsys, "state", "--family", "pcs", "--k", "0.5", "--dim", "64"
        )
        assert code == 2
        assert "--alpha is required" in err

    def test_domain_error_maps_to_two(self, capsys):
        code, _, err = run(
            capsys, "state", "--family", "pcs", "--alpha", "1.0", "--k", "0.5",
            "--dim", "64",
        )
        assert code == 2
        assert "error:" in err

    def test_fixed_index_conflict(self, capsys):
        code, _, err = run(
            capsys, "state", "--family", "sv", "--r", "0.5", "--k", "0.5",
            "--dim", "64",
        )
        assert code == 2
        assert "fixes k" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "pair", "--alpha", "nan", "--p", "1", "--dim", "48"),
            ("--family", "nbs", "--M", "2", "--alpha", "nan", "--dim", "48"),
            ("--family", "pcs", "--k", "0.5", "--alpha", "nan", "--dim", "48"),
            ("--family", "nlcs", "--k", "0.5", "--alpha", "nan", "--G", "pcs-like", "--dim", "48"),
            ("--family", "nlcs", "--k", "0.5", "--alpha", "inf", "--G", "pcs-like", "--dim", "48"),
        ],
    )
    def test_nonfinite_alpha_refused(self, capsys, argv):
        for command in ("state", "stats"):
            code, out, err = run(capsys, command, *argv)
            assert code == 2
            assert out == ""
            assert err.splitlines() == ["error: alpha must be finite"]

    @pytest.mark.parametrize("command, flag", [
        ("state", "--m"), ("state", "--p"), ("state", "--sign"), ("state", "--dim"),
        ("stats", "--m"), ("stats", "--p"), ("stats", "--sign"), ("stats", "--dim"),
        ("matel", "--cap"), ("matel", "--dim"), ("verify", "--dim"),
    ])
    def test_int_flag_refused_in_one_line(self, capsys, command, flag):
        # argparse's own refusal, without its usage lines: exit 2 and one line, like any other
        base = {"state": ("--family", "dns", "--k", "0.5", "--r", "0.3"),
                "matel": ("--k", "0.5", "--r", "0.5"), "verify": ()}
        argv = (command, *base.get(command, base["state"]), flag, "1e3")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: argument {flag}: invalid int value: '1e3'"]

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (("--family", "nlcs", "--alpha", "0.5", "--k", "0.5", "--G", "rational:nan,1"),
             "rational preset needs finite numbers, got 'rational:nan,1'"),
            (("--family", "nlcs", "--alpha", "0.5", "--k", "0.5", "--G", "rational:inf,1"),
             "rational preset needs finite numbers, got 'rational:inf,1'"),
            (("--family", "nlcs", "--alpha", "0.5", "--k", "0.5", "--G", "rational:1,inf"),
             "rational preset needs finite numbers, got 'rational:1,inf'"),
            (("--family", "nbs", "--alpha", "0.5", "--M", "inf"),
             "shape parameter must be finite and > 0, got inf"),
            (("--family", "lps", "--k", "0.5", "--M", "inf", "--r", "0.3"),
             "--M must be an integer for family 'lps'"),
            (("--family", "lps", "--k", "0.5", "--M", "nan", "--r", "0.3"),
             "--M must be an integer for family 'lps'"),
            # G(0) = 1e308 / 1e-308 overflows although both numbers are finite
            (("--family", "nlcs", "--alpha", "0.5", "--k", "0.5", "--G", "rational:1e308,1e-308"),
             "nonlinearity not finite at level 0"),
            # G(0) = 1e-320 is finite and nonzero, but alpha / G(0) overflows
            (("--family", "nlcs", "--alpha", "0.5", "--k", "0.5", "--G", "rational:1e-320,1"),
             "amplitude ratio not finite at level 0"),
            # G(0) sqrt(2k) underflows to 0
            (("--family", "nlcs", "--alpha", "0.5", "--k", "0.1", "--G", "rational:5e-324,1"),
             "amplitude ratio not finite at level 0"),
        ],
        ids=["preset-a-nan", "preset-a-inf", "preset-b-inf", "nbs-shape-inf", "lps-order-inf",
             "lps-order-nan", "preset-overflow", "preset-ratio-overflow", "preset-ratio-underflow"],
    )
    def test_nonfinite_parameter_named(self, capsys, argv, reason):
        for command in ("state", "stats"):
            code, out, err = run(capsys, command, *argv, "--dim", "48")
            assert code == 2
            assert out == ""
            assert err.splitlines() == [f"error: {reason}"]

    @pytest.mark.parametrize("family", [("sv",), ("sf",), ("tmsv", "--p", "1")])
    def test_squeeze_past_the_disc_refused(self, capsys, family):
        # tanh(20) rounds to 1, so the squeeze has no disc point; the user gave no alpha
        for command in ("state", "stats"):
            code, out, err = run(capsys, command, "--family", *family, "--r", "20", "--dim", "64")
            assert code == 2
            assert out == ""
            assert err.splitlines() == ["error: squeeze r = 20.0 is too large: tanh r rounds to 1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("state", "--family", "bgcs", "--k", "1e300", "--alpha", "1e300", "--dim", "16"),
            ("state", "--family", "nbs", "--M", "1e308", "--alpha", "0.5", "--dim", "16"),
            ("matel", "--k", "1e308", "--r", "0.5", "--cap", "2", "--dim", "8"),
            ("matel", "--k", "1e308", "--r", "0.5", "--cap", "2", "--dim", "8", "--method", "hyp"),
            ("verify", "--r", "-1", "--dim", "64"),
            ("verify", "--r", "inf", "--dim", "64"),
        ],
        ids=["bgcs-bessel-overflow", "nbs-huge-shape", "matel-sum-huge-k", "matel-hyp-huge-k",
             "verify-negative-r", "verify-inf-r"],
    )
    def test_hostile_input_refused_in_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err and "nan" not in err

    @pytest.mark.parametrize(
        "k, alpha, dim", [("100", "1", "256"), ("200", "20", "256"), ("1e300", "0.5", "16")]
    )
    def test_bgcs_builds_where_its_bessel_value_underflows(self, capsys, k, alpha, dim):
        # I_{2k-1}(2|alpha|) underflows to 0 here; the gate compares its series instead
        code, out, err = run(
            capsys, "state", "--family", "bgcs", "--k", k, "--alpha", alpha, "--dim", dim
        )
        assert code == 0
        assert err == ""
        assert len(json.loads(out)["data"]) == int(dim)

    def test_closed_form_refused_where_its_prefactor_loses_precision(self, capsys):
        code, out, err = run(
            capsys, "matel", "--method", "hyp", "--k", "1e8", "--r", "1e-6", "--cap", "4"
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: closed form loses precision at k = 100000000.0: its lgamma prefactor is "
            "off by about 8.0e-07; use matrix_element_sum"
        ]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("state", "--family", "pcs", "--alpha", "0.3", "--k", "0.5", "--dim", "64"), "--out"),
            (("verify", "--only", "specfun"), "--json-out"),
        ],
        ids=["state-out", "verify-json-out"],
    )
    def test_unwritable_output_refused_in_one_line(self, capsys, tmp_path, argv, flag):
        # a usage error (exit 2), not a traceback; for verify, not a verification failure
        target = tmp_path / "missing" / "x.json"
        code, _, err = run(capsys, *argv, flag, str(target))
        assert code == 2
        assert err.splitlines() == [f"error: cannot write {target}: {os.strerror(errno.ENOENT)}"]
        assert not target.parent.exists()

    def test_vanished_state_names_the_underflow(self, capsys):
        # (1 - |alpha|^2)^{M/2} underflows: every amplitude is 0, and the weight sits
        # near level 3.3e5, so no dimension would help
        code, out, err = run(
            capsys, "state", "--family", "nbs", "--M", "1e6", "--alpha", "0.5", "--dim", "64"
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: nbs(")
        assert "amplitudes underflowed" in err
        assert "nan" not in err and "truncation" not in err

    def test_tiny_bargmann_index_builds(self, capsys):
        # 2k is below the float epsilon: j + 2k - 1 would round to 0 at j = 1
        code, out, err = run(
            capsys, "state", "--family", "lps", "--k", "1e-17", "--M", "2", "--r", "0.3",
            "--dim", "64",
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["data"]) == 64

    def test_subnormal_bargmann_index_builds(self, capsys):
        # 1/(2k) overflows at k = 5e-324: the Laguerre walk runs in units of a power of two
        code, out, err = run(
            capsys, "state", "--family", "lps", "--k", "5e-324", "--M", "2", "--r", "0.3",
            "--dim", "64",
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["data"]) == 64

    def test_laguerre_orders_190_and_200_build(self, capsys):
        # term j of the prestate carries C(M, j) |xi|^j, not j! |xi|^j, which passes the
        # float range near j = 190
        argv = ("state", "--family", "lps", "--k", "0.5", "--r", "0.3", "--dim", "512")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            for order in ("190", "200"):
                code, out, err = run(capsys, *argv, "--M", order)
                assert (code, err) == (0, "")
                assert len(json.loads(out)["data"]) == 512

    @pytest.mark.parametrize(
        "argv",
        [
            ("state", "--family", "dns", "--k", "1", "--r", "0.5", "--m", "2",
             "--theta", "inf", "--dim", "48"),
            ("state", "--family", "lps", "--k", "0.5", "--M", "2", "--r", "0.3",
             "--theta", "nan", "--dim", "48"),
            ("stats", "--family", "sv", "--r", "0.5", "--theta", "inf", "--dim", "48"),
            ("matel", "--k", "0.5", "--r", "0.5", "--theta", "inf", "--dim", "48"),
        ],
    )
    def test_nonfinite_theta_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        theta = argv[argv.index("--theta") + 1]
        assert err.splitlines() == [f"error: theta must be finite, got {theta}"]

    def test_negative_exponent_theta_is_a_value(self, capsys):
        code, out, err = run(
            capsys, "state", "--family", "dns", "--k", "1", "--r", "0.5", "--m", "1",
            "--dim", "64", "--theta", "-1e-3",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["meta"]["theta"] == -0.001

    def test_negative_exponent_alpha_is_a_value(self, capsys):
        code, out, err = run(
            capsys, "state", "--family", "pcs", "--k", "0.5", "--alpha", "-2.5e-1", "1e-1",
            "--dim", "64",
        )
        assert (code, err) == (0, "")
        meta = json.loads(out)["meta"]
        assert (meta["alpha_re"], meta["alpha_im"]) == (-0.25, 0.1)

    def test_negative_infinite_r_refused_by_its_params(self, capsys):
        code, out, err = run(
            capsys, "state", "--family", "dns", "--k", "1", "--r", "-inf", "--m", "1",
            "--dim", "64",
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: radial argument must be finite and >= 0, got -inf"]

    def test_dns_truncation_keeps_its_remedy(self, capsys):
        code, out, err = run(
            capsys, "state", "--family", "dns", "--k", "1", "--r", "20", "--m", "0",
            "--dim", "256",
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: dns(m=0, k=1.0, r=20.0, dim=256): column norm deficit 1.000e+00 exceeds "
            "1.0e-08; increase the truncation dimension"
        ]

    def test_unknown_nonlinearity_preset(self, capsys):
        code, _, err = run(
            capsys, "state", "--family", "nlcs", "--alpha", "0.5", "--k", "0.5",
            "--G", "cubic", "--dim", "64",
        )
        assert code == 2


# the families that read --alpha, with the library call each makes at --dim 32
ALPHA_FAMILIES = {
    "pcs": (("--k", "0.5"), lambda alpha: su11.pcs(alpha, 0.5, 32)),
    "bgcs": (("--k", "0.5"), lambda alpha: su11.bgcs(alpha, 0.5, 32)),
    "nlcs": (("--k", "0.5", "--G", "bgcs-like"), lambda alpha: su11.nlcs(alpha, 0.5, _one, 32)),
    "nbs": (("--M", "1"), lambda alpha: su11.nbs(alpha, 1.0, 32)),
    "pair": (("--p", "0"), lambda alpha: su11.pair_coherent(alpha, 0, 1, 32)),
}


def _one(n):
    return 1.0


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e308", "1.0", "5e-324", "0", "-0.0"])
@pytest.mark.parametrize("family", ALPHA_FAMILIES)
@pytest.mark.parametrize("command", ["state", "stats"])
def test_alpha_ends_in_finite_rows_or_one_refusal(capsys, command, family, alpha):
    flags, build = ALPHA_FAMILIES[family]
    code, out, err = run(
        capsys, command, "--family", family, *flags, "--alpha", alpha, "--dim", "32"
    )
    if code == 0:
        assert err == ""
        rows = json.loads(out)["data"]
        assert all(math.isfinite(v) for row in rows for v in row.values() if v is not None)
        build(float(alpha))
    else:
        # one line, the text the library raises
        assert (code, out) == (2, "")
        with pytest.raises((ValueError, ZeroDivisionError, su11.ConvergenceError)) as info:
            build(float(alpha))
        assert err.splitlines() == [f"error: {info.value}"]


class TestStateOutput:
    def test_json_rows_match_reported_norm(self, capsys):
        code, out, _ = run(
            capsys, "state", "--family", "bgcs", "--alpha", "1.0", "--k", "1.0",
            "--dim", "96",
        )
        assert code == 0
        payload = json.loads(out)
        total = sum(row["p"] for row in payload["data"])
        assert abs(abs(1.0 - math.sqrt(total)) - payload["meta"]["norm_deficit"]) < 1e-14

    def test_complex_amplitude_argument(self, capsys):
        code, out, _ = run(
            capsys, "state", "--family", "pcs", "--alpha", "0.3", "0.2",
            "--k", "0.5", "--dim", "64",
        )
        assert code == 0
        meta = json.loads(out)["meta"]
        assert meta["alpha_re"] == 0.3
        assert meta["alpha_im"] == 0.2

    def test_known_leading_coefficient(self, capsys):
        # (1 - 1/4)^{1/2} at k = 1/2, amplitude 1/2
        _, out, _ = run(
            capsys, "state", "--family", "pcs", "--alpha", "0.5", "--k", "0.5",
            "--dim", "64",
        )
        row0 = json.loads(out)["data"][0]
        assert row0["re"] == pytest.approx(math.sqrt(0.75), rel=1e-15)
        assert row0["im"] == 0.0

    @pytest.mark.parametrize("excess, sign", [("0", "1"), ("0", "-1"), ("2", "1"), ("2", "-1")])
    def test_pair_tiny_alpha_builds_the_bottom_level(self, capsys, excess, sign):
        # was "error: math domain error": the ratio |alpha| / sqrt(n1 n2) underflowed to 0
        code, out, err = run(
            capsys, "state", "--family", "pair", "--p", excess, "--sign", sign,
            "--alpha", "5e-324", "--dim", "32",
        )
        assert (code, err) == (0, "")
        row0 = json.loads(out)["data"][0]
        assert (row0["n1"], row0["n2"]) == ((0, int(excess)) if sign == "1" else (int(excess), 0))
        assert row0["p"] == 1.0

    def test_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "state", "--family", "pcs", "--alpha", "0.5", "--k", "0.5",
            "--dim", "64", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        meta_lines = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("#family=pcs") for l in meta_lines)
        header_at = len(meta_lines)
        assert lines[header_at] == "n,re,im,p"
        body = lines[header_at + 1 :]
        assert len(body) == 64
        n, re, im, p = body[0].split(",")
        assert n == "0"
        assert "e" in re and len(re.split("e")[0].split(".")[1]) == 16

    def test_determinism(self, capsys):
        argv = (
            "state", "--family", "lps", "--k", "0.5", "--M", "2", "--r", "0.3",
            "--theta", "0.7", "--dim", "128",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        argv_csv = argv + ("--format", "csv")
        _, first, _ = run(capsys, *argv_csv)
        _, second, _ = run(capsys, *argv_csv)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "state.json"
        code, out, _ = run(
            capsys, "state", "--family", "pcs", "--alpha", "0.5", "--k", "0.5",
            "--dim", "64", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["meta"]["dim"] == 64

    def test_two_mode_rows(self, capsys):
        code, out, _ = run(
            capsys, "state", "--family", "tmsv", "--p", "1", "--r", "0.4",
            "--dim", "48",
        )
        assert code == 0
        rows = json.loads(out)["data"]
        assert rows[0]["n1"] == 0 and rows[0]["n2"] == 1
        assert rows[3]["n1"] == 3 and rows[3]["n2"] == 4

    def test_lps_meta_reports_eigenvalue(self, capsys):
        code, out, _ = run(
            capsys, "state", "--family", "lps", "--k", "0.5", "--M", "2",
            "--r", "0.3", "--theta", "0.7", "--dim", "128",
        )
        assert code == 0
        meta = json.loads(out)["meta"]
        want = 2.0 * math.tanh(0.3) * np.exp(0.7j) * 2.5
        assert meta["eigenvalue_re"] == pytest.approx(want.real, rel=1e-9)
        assert meta["eigenvalue_im"] == pytest.approx(want.imag, rel=1e-9)

    def test_lps_meta_reports_the_reduced_theta(self, capsys):
        # the angle the data were built with, as dns, sv, sf and tmsv report it
        base = ("state", "--family", "lps", "--k", "0.5", "--M", "2", "--r", "0.3", "--dim", "64")
        code, out, _ = run(capsys, *base, "--theta", "1e308")
        assert code == 0
        got = json.loads(out)
        theta = DisplacementParams(0.3, 1e308).theta
        assert list(got["meta"])[3:6] == ["M", "r", "theta"]
        assert got["meta"]["theta"] == theta == 2.6710203145624654
        code, out, _ = run(capsys, *base, "--theta", repr(theta))
        assert code == 0
        assert json.loads(out) == got

    def test_lps_bad_flags_reported_in_flag_order(self, capsys):
        base = ("state", "--family", "lps", "--k", "-1", "--dim", "64")
        for flags, reason in (
            (("--M", "-1", "--r", "-1"), "order must be a nonnegative integer, got -1"),
            (("--M", "2", "--r", "-1", "--theta", "nan"), "radial argument must be finite"),
            (("--M", "2", "--r", "0.3", "--theta", "nan"), "theta must be finite, got nan"),
            (("--M", "2", "--r", "0.3"), "Bargmann index must be a positive real, got -1.0"),
        ):
            code, out, err = run(capsys, *base, *flags)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {reason}")

    def test_nonlinear_preset_runs(self, capsys):
        code, out, _ = run(
            capsys, "state", "--family", "nlcs", "--alpha", "0.8", "--k", "0.5",
            "--G", "rational:1.0,2.0", "--dim", "96",
        )
        assert code == 0
        assert json.loads(out)["meta"]["G"] == "rational:1.0,2.0"


class TestDimResolution:
    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SU11_DEFAULT_DIM", "64")
        _, out, _ = run(
            capsys, "state", "--family", "pcs", "--alpha", "0.5", "--k", "0.5"
        )
        assert json.loads(out)["meta"]["dim"] == 64

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SU11_DEFAULT_DIM", "64")
        _, out, _ = run(
            capsys, "state", "--family", "pcs", "--alpha", "0.5", "--k", "0.5",
            "--dim", "32",
        )
        assert json.loads(out)["meta"]["dim"] == 32

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("SU11_DEFAULT_DIM", "abc")
        code, _, err = run(
            capsys, "state", "--family", "pcs", "--alpha", "0.5", "--k", "0.5"
        )
        assert code == 2
        assert "SU11_DEFAULT_DIM" in err

    def test_out_of_range_dim(self, capsys):
        code, _, err = run(
            capsys, "state", "--family", "pcs", "--alpha", "0.5", "--k", "0.5",
            "--dim", "4",
        )
        assert code == 2
        assert "dim must lie" in err


class TestMatel:
    def test_methods_agree_within_reported_tolerance(self, capsys):
        base = ("matel", "--k", "0.75", "--r", "0.5", "--theta", "0.3",
                "--cap", "6", "--dim", "128")
        _, out_sum, _ = run(capsys, *base, "--method", "sum")
        _, out_hyp, _ = run(capsys, *base, "--method", "hyp")
        a = json.loads(out_sum)
        b = json.loads(out_hyp)
        tol = a["meta"]["cross_method_tolerance"]
        for ra, rb in zip(a["data"], b["data"]):
            assert (ra["n"], ra["m"]) == (rb["n"], rb["m"])
            d = math.hypot(ra["re"] - rb["re"], ra["im"] - rb["im"])
            assert d < tol

    def test_hyp_refused_where_it_leaves_the_summed_columns(self, capsys, monkeypatch):
        # one closed-form element off by 1e-6: the columns the command walks anyway catch it
        hyp = cli.matrix_element_hyp

        def planted(n, m, k, params):
            return hyp(n, m, k, params) + (1e-6 if (n, m) == (3, 5) else 0.0)

        monkeypatch.setattr(cli, "matrix_element_hyp", planted)
        code, out, err = run(
            capsys, "matel", "--method", "hyp", "--k", "0.5", "--r", "0.5", "--cap", "8",
            "--dim", "64",
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: matrix_element_hyp(k=0.5, r=0.5, theta=0.0, cap=8): gap to the summed "
            "columns 1.000e-06 exceeds 1.0e-08"
        ]

    def test_hyp_reads_its_corner_one_column_at_a_time(self, capsys, monkeypatch):
        # column max(n, m) never goes back, so a cap past the 512 cached columns walks none twice
        hyp, reads = cli.matrix_element_hyp, []

        def recorded(n, m, k, params):
            reads.append((n, m))
            return hyp(n, m, k, params)

        monkeypatch.setattr(cli, "matrix_element_hyp", recorded)
        code, _, err = run(
            capsys, "matel", "--method", "hyp", "--k", "0.5", "--r", "0.5", "--cap", "12",
            "--dim", "64",
        )
        assert (code, err) == (0, "")
        assert set(reads) == {(n, m) for n in range(12) for m in range(12)}
        columns = [max(n, m) for n, m in reads]
        assert columns == sorted(columns)

    @pytest.mark.parametrize(
        "k, r, dim",
        [("0.5", "2", "200"), ("0.25", "1", "150"), ("2", "0.9", "64"), ("50", "1e-3", "60"),
         ("1e-8", "0.5", "40"), ("0.75", "3", "120")],
    )
    def test_hyp_passes_its_certificate(self, capsys, k, r, dim):
        code, out, err = run(
            capsys, "matel", "--method", "hyp", "--k", k, "--r", r, "--cap", "24", "--dim", dim
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["data"]) == 24 * 24

    def test_column_deficits_reported(self, capsys):
        _, out, _ = run(
            capsys, "matel", "--k", "0.5", "--r", "0.4", "--cap", "4",
            "--dim", "128",
        )
        deficits = json.loads(out)["meta"]["column_norm_deficit"]
        assert len(deficits) == 4
        assert max(deficits) < 1e-10

    def test_hyp_rejects_zero_squeeze(self, capsys):
        for r in ("0.0", "1e-160"):
            code, _, err = run(
                capsys, "matel", "--k", "0.5", "--r", r, "--method", "hyp",
                "--dim", "64",
            )
            assert code == 2
            assert err.splitlines() == [
                f"error: closed form needs r >= 1e-150, got {r}; use matrix_element_sum"
            ]

    def test_sum_past_the_old_cancellation(self, capsys):
        code, out, _ = run(
            capsys, "matel", "--k", "0.5", "--r", "1", "--cap", "100", "--dim", "128"
        )
        assert code == 0
        data = json.loads(out)["data"]
        assert len(data) == 100 * 100
        params = su11.DisplacementParams(1.0)
        rng = np.random.default_rng(5)
        picks = [99 * 100 + 99, 0, 99, 99 * 100] + [int(i) for i in rng.integers(0, 10000, 16)]
        for row in (data[i] for i in picks):
            want = su11.matrix_element_hyp(row["n"], row["m"], 0.5, params)
            assert abs(complex(row["re"], row["im"]) - want) < 1e-8

    def test_sum_rows_are_scalar_elements(self, capsys):
        # one block of columns, bit for bit the scalar walk of each element
        params = su11.DisplacementParams(0.7, -1.1)
        _, out, _ = run(
            capsys, "matel", "--k", "1.25", "--r", "0.7", "--theta", "-1.1", "--cap", "12",
            "--dim", "64",
        )
        for row in json.loads(out)["data"]:
            want = su11.matrix_element_sum(row["n"], row["m"], 1.25, params)
            assert (row["re"], row["im"]) == (want.real, want.imag)

    def test_rows_do_not_depend_on_dim(self, capsys):
        base = ("matel", "--k", "0.75", "--r", "1", "--theta", "0.4", "--cap", "36")
        _, small, _ = run(capsys, *base, "--dim", "64")
        _, large, _ = run(capsys, *base, "--dim", "8192")
        assert json.loads(small)["data"] == json.loads(large)["data"]

    def test_huge_squeeze_stays_finite(self, capsys):
        code, out, _ = run(capsys, "matel", "--k", "0.5", "--r", "800", "--dim", "64")
        assert code == 0
        payload = json.loads(out)
        values = [v for row in payload["data"] for v in (row["re"], row["im"])]
        assert all(math.isfinite(v) for v in values + payload["meta"]["column_norm_deficit"])

    def test_bad_cap(self, capsys):
        code, _, _ = run(
            capsys, "matel", "--k", "0.5", "--r", "0.5", "--cap", "0",
            "--dim", "64",
        )
        assert code == 2


class TestStats:
    def test_negative_binomial_moments(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--family", "nbs", "--alpha", "0.5", "--M", "2",
            "--dim", "128",
        )
        assert code == 0
        row = json.loads(out)["data"][0]
        assert row["mean"] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert row["mandel_q"] == pytest.approx(1.0 / 3.0, rel=1e-10)

    @pytest.mark.parametrize("alpha", [1e-8, 1e-6, 1e-4, 1e-2, 0.5, 0.9])
    def test_mandel_q_holds_its_digits_near_poisson(self, capsys, alpha):
        # Q = p / (1 - p), p = |alpha|^2: variance / mean - 1 read 2.2e-16 for 1e-16 at 1e-8
        want = alpha * alpha / (1.0 - alpha * alpha)
        for big_m in ("0.5", "2", "6"):
            code, out, _ = run(capsys, "stats", "--family", "nbs", "--alpha", repr(alpha),
                               "--M", big_m, "--dim", "1024")
            assert code == 0
            assert json.loads(out)["data"][0]["mandel_q"] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_vacuum_mandel_is_null(self, capsys):
        _, out, _ = run(
            capsys, "stats", "--family", "pcs", "--alpha", "0.0", "--k", "0.5",
            "--dim", "64",
        )
        row = json.loads(out)["data"][0]
        assert row["mean"] == 0.0
        assert row["mandel_q"] is None

    def test_vacuum_mandel_csv_nan(self, capsys):
        _, out, _ = run(
            capsys, "stats", "--family", "pcs", "--alpha", "0.0", "--k", "0.5",
            "--dim", "64", "--format", "csv",
        )
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "mean,variance,mandel_q,norm_deficit"
        assert body[1].split(",")[2] == "nan"

    def test_squeezed_vacuum_mean(self, capsys):
        _, out, _ = run(
            capsys, "stats", "--family", "sv", "--r", "0.5", "--dim", "128"
        )
        row = json.loads(out)["data"][0]
        assert row["mean"] == pytest.approx(math.sinh(0.5) ** 2, rel=1e-10)


class TestVerify:
    def test_subset_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "commutator,gdo", "--dim", "96")
        assert code == 0
        assert "checks passed" in out

    def test_repeatable_only_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--only", "specfun", "--only", "nbs", "--dim", "96"
        )
        assert code == 0
        assert "specfun" in out and "nbs" in out

    @pytest.mark.parametrize(
        "only, cause",
        [("nope", "unknown check group 'nope'"), (",", "no check group selected")],
        ids=["nope", "empty"],
    )
    def test_unknown_group(self, capsys, only, cause):
        code, out, err = run(capsys, "verify", "--only", only, "--dim", "96")
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {cause}; choose from {', '.join(su11.verify.GROUPS)}"]

    def test_rows_keep_their_names_thresholds_and_order(self):
        # values depend on the host; names, thresholds and the pass rule do not
        rows = run_checks(256, 0.5)
        assert [(c.group, c.name, c.threshold) for c in rows] == [
            ("specfun", "gamma ratio: binomial logs vs exact product", 1e-12),
            ("specfun", "terminating 2F1: Gauss walk vs per-term sum", 1e-14),
            ("specfun", "Bessel series: contiguous relation, closed forms", 1e-12),
            ("specfun", "Laguerre: prestate weights sum to L_12(-3.7)", 1e-13),
            ("commutator", "ladder commutators, interior of dim=128", 1e-12),
            ("casimir", "quadratic invariant, dim=128", 1e-12),
            ("gdo", "state-specific ladder relations, dim=128", 1e-12),
            ("ladder", "number vs dressed-raising reconstruction", 1e-10),
            ("eigen", "scaled-lowering eigenstate, |alpha|=0.8", 1e-09),
            ("eigen", "plain-lowering eigenstate, |alpha|=2", 1e-09),
            ("nlcs", "G = 1/(n+2k) reduction to the exponential family", 1e-12),
            ("nlcs", "G = 1 reduction to the eigenvector family", 1e-12),
            ("nlcs", "recursion vs operator-exponential route", 1e-10),
            ("matel", "recurrence vs closed hypergeometric", 1e-08),
            ("matel", "matrix-exponential oracle agreement", 1e-08),
            ("matel", "column unitarity deficit", 1e-08),
            ("matel", "factorized application vs direct column", 1e-09),
            ("dns", "displaced-level column norm deficit", 1e-08),
            ("dns", "m=0 reduction to the exponential family", 1e-10),
            ("dns", "zero displacement returns the bare level", 0.0),
            ("lps", "minimum-uncertainty eigen-equation", 1e-08),
            ("lps", "pre-displacement polynomial coefficients", 1e-12),
            ("nbs", "photon statistics match the negative binomial law", 1e-12),
            ("nbs", "weighted-lowering eigen relation", 1e-09),
            ("squeeze", "squeezed vacuum two-photon eigen relation", 1e-09),
            ("squeeze", "squeezed vacuum odd levels exactly empty", 0.0),
            ("squeeze", "squeezed one-photon eigen relation", 1e-09),
            ("squeeze", "squeezed one-photon even levels exactly empty", 0.0),
            ("parity", "parity-sector closed form vs general element", 1e-09),
            ("twomode", "two-mode squeezed state scaled pair-lowering relation", 1e-09),
            ("twomode", "pair state is a pair-annihilator eigenvector", 1e-09),
            ("twomode", "pair state matches the mapped eigenvector family", 1e-12),
            ("faithful", "photon-space operators match abstract bands", 1e-12),
        ]
        for c in rows:
            assert c.passed == (math.isfinite(c.value) and c.value <= c.threshold), c

    @pytest.mark.parametrize("r", ["nan", "-1", "inf"])
    def test_bad_r_refused_before_any_group_runs(self, capsys, r):
        # the squeeze, parity and twomode groups would otherwise run at a stand-in r
        code, out, err = run(capsys, "verify", "--r", r, "--dim", "64")
        assert code == 2
        assert out == ""
        reason = f"radial argument must be finite and >= 0, got {float(r)}"
        assert err.splitlines() == [f"error: {reason}"]

    def test_oracle_past_the_float_range_is_a_named_failure(self):
        # r * lambda overflows: one failed row naming the cause, and no RuntimeWarning
        (row,) = run_checks(64, 1e308, only="matel")
        assert not row.passed
        assert "oracle generator leaves the float range" in row.name

    def test_parity_row_near_a_zero_of_an_element(self, capsys):
        # <12|S|12> at k = 1/4 and squeeze r/2 changes sign here: no relative scale
        code, out, _ = run(
            capsys, "verify", "--dim", "256", "--r", "0.3870631856540787", "--only", "parity"
        )
        assert code == 0, out

    def test_parity_row_past_the_range_of_sinh_squared(self, capsys):
        # the odd corner underflows to zero there: compared absolutely, with no 0/0 warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "--r", "800", "--dim", "64", "--only", "parity")
        assert (code, err) == (0, "")
        assert out.endswith("all 1 checks passed (dim=64, r=800.0)\n")

    def test_parity_row_sees_a_split_at_the_largest_element(self, monkeypatch):
        r = 0.3870631856540787
        params = su11.DisplacementParams(r, 0.6)
        cells = [(n, m) for n in range(7) for m in range(7)]
        largest = max(cells, key=lambda c: abs(su11.matrix_element_hyp(*c, 0.25, params)))
        element = realizations.parity_sector_element

        def corrupted(n, m, parity, p):
            value = element(n, m, parity, p)
            hit = (n, m) == largest and parity == 0 and p == params
            return value * (1.0 + 1e-8) if hit else value

        monkeypatch.setattr(realizations, "parity_sector_element", corrupted)
        (row,) = run_checks(256, r, only="parity")
        assert not row.passed
        assert row.value == pytest.approx(1e-8, rel=1e-3)

    def test_forced_failure_reports_one(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "--dim", "8", "--r", "2.0",
            "--json-out", str(report_path),
        )
        assert code == 1
        assert "FAIL" in out
        report = json.loads(report_path.read_text())
        assert report["passed"] is False
        assert any(not c["passed"] for c in report["checks"])
        assert all(isinstance(c["threshold"], float) for c in report["checks"])


def _csv_by_rows(meta: dict, rows: list, fieldnames) -> str:
    """The CSV writer as it read one dict per row, kept as the reference."""
    lines = [f"#{key}={cli._meta_cell(value)}" for key, value in meta.items()]
    lines.append(",".join(fieldnames))
    for row in rows:
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


EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, None, 0, 2**62]


class TestWriter:
    META = {"family": "pcs", "k": 0.5, "dim": 8, "column_norm_deficit": [1e-10, 0.0, 5e-324],
            "theta": -0.0, "version": "0.1.0"}

    @pytest.mark.parametrize("offset", range(len(EDGE_VALUES)))
    @pytest.mark.parametrize("fields", [("n", "re", "im", "p"), ("n1", "n2", "re", "im", "p")])
    @pytest.mark.parametrize("count", [1, 3])
    def test_columns_render_as_the_row_dump(self, count, fields, offset):
        columns = {name: [EDGE_VALUES[(offset + i * len(fields) + j) % len(EDGE_VALUES)]
                          for i in range(count)] for j, name in enumerate(fields)}
        rows = [dict(zip(fields, values)) for values in zip(*columns.values())]
        want = json.dumps({"meta": self.META, "data": rows}, indent=2) + "\n"
        assert cli._render(self.META, columns, "json") == want
        assert cli._render(self.META, columns, "csv") == _csv_by_rows(self.META, rows, fields)

    def test_commands_pass_numbers_or_none(self, capsys, monkeypatch):
        seen = []
        render = cli._render

        def spy(meta, columns, fmt):
            seen.append(columns)
            return render(meta, columns, fmt)

        monkeypatch.setattr(cli, "_render", spy)
        manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
        argvs = list(manifest.values()) + [["stats", *argv[1:]] for argv in manifest.values()]
        argvs += [
            ["stats", "--family", "pcs", "--alpha", "0.0", "--k", "0.5", "--dim", "16"],
            ["matel", "--k", "0.5", "--r", "0.3", "--cap", "1"],
            ["matel", "--k", "1.5", "--r", "0.7", "--cap", "6", "--method", "hyp"],
        ]
        for argv in argvs:
            assert run(capsys, *argv)[0] == 0, argv
        assert len(seen) == len(argvs)
        for columns in seen:
            for name, column in columns.items():
                assert {type(v) for v in column} <= {int, float, type(None)}, name


def _bits(values) -> list:
    return [float.hex(v) for v in values]


class TestLargeOutputs:
    """Outputs past the goldens (dim 128 at most, no matel): the layout and the library's bits."""

    @staticmethod
    def _rows(capsys, *argv) -> list:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
        return json.loads(out)["data"]

    @pytest.mark.parametrize(
        "argv, build",
        [
            (("--family", "lps", "--k", "0.5", "--M", "4", "--r", "0.3", "--theta", "0.4"),
             lambda: su11.lps(su11.LpsParams(4, 0.3, 0.4, 0.5), 8192)),
            (("--family", "pair", "--alpha", "1.5", "0.5", "--p", "1", "--sign", "-1"),
             lambda: su11.pair_coherent(1.5 + 0.5j, 1, -1, 8192)),
        ],
        ids=["lps", "pair"],
    )
    def test_state_at_dim_8192(self, capsys, argv, build):
        rows = self._rows(capsys, "state", *argv, "--dim", "8192")
        amp = build().amplitudes
        assert _bits(row["re"] for row in rows) == _bits(amp.real.tolist())
        assert _bits(row["im"] for row in rows) == _bits(amp.imag.tolist())
        assert _bits(row["p"] for row in rows) == _bits(abs(c) ** 2 for c in amp.tolist())

    def test_pair_at_alpha_5000(self, capsys):
        # summed level by level in floats, its residual read 1.317e-09 against 1e-09: exit 2
        rows = self._rows(capsys, "state", "--family", "pair", "--alpha", "5000", "--p", "1",
                          "--dim", "8192")
        assert len(rows) == 8192

    def test_matel_cap_64(self, capsys):
        rows = self._rows(capsys, "matel", "--k", "1.5", "--r", "0.7", "--theta", "-2", "--cap",
                          "64", "--dim", "256")
        params = DisplacementParams(0.7, -2.0)
        values = su11.matrix_columns(range(64), 1.5, params, 256)[:64].ravel()
        assert [(row["n"], row["m"]) for row in rows] == [divmod(i, 64) for i in range(64 * 64)]
        assert _bits(row["re"] for row in rows) == _bits(values.real.tolist())
        assert _bits(row["im"] for row in rows) == _bits(values.imag.tolist())

    def test_stats_of_the_vacuum(self, capsys):
        (row,) = self._rows(capsys, "stats", "--family", "sv", "--r", "0", "--dim", "256")
        vacuum = su11.squeezed_vacuum(DisplacementParams(0.0), 256)
        moments = realizations.photon_moments(realizations.photon_distribution(vacuum))
        assert _bits([row["mean"], row["variance"]]) == _bits(moments)
        assert row["mandel_q"] is None


def _public_definitions(module) -> set:
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_registries_agree():
    # the CLI family table, the --family choices and the golden manifest
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("state", "stats"):
        family = next(a for a in commands.choices[command]._actions if a.dest == "family")
        assert tuple(family.choices) == tuple(cli._FAMILY_TABLE)
    manifest = json.loads((GOLDEN_DIR / "manifest.json").read_text())
    golden = {argv[argv.index("--family") + 1] for argv in manifest.values()}
    assert golden == set(cli._FAMILY_TABLE)
    # every __all__ lists exactly the module's public definitions
    for info in pkgutil.iter_modules(su11.__path__):
        module = importlib.import_module(f"su11.{info.name}")
        if hasattr(module, "__all__"):
            assert len(set(module.__all__)) == len(module.__all__), info.name
            assert set(module.__all__) == _public_definitions(module), info.name
