import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dvcm.cli import EstimateReport, main


def write_constant_theta_csv(path, n=600, seed=0, noise=0.0):
    """Synthetic panel with theta(u) = (1.5, 2.0) constant in u."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0, 1, n)
    x1 = rng.normal(size=n)
    y = 1.5 + 2.0 * x1 + noise * rng.normal(size=n)
    lines = ["u,x1,y"]
    lines += [f"{float(u[i])!r},{float(x1[i])!r},{float(y[i])!r}"
              for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_wage_like_csv(path, n=900, seed=3):
    """Wage-style panel: identifier from age/education, drifting coefficients."""
    rng = np.random.default_rng(seed)
    age = rng.uniform(20, 65, n)
    edu = rng.integers(8, 18, n).astype(float)
    female = rng.integers(0, 2, n).astype(float)
    exp_years = age - edu - 6
    u = (exp_years - exp_years.min()) / (exp_years.max() - exp_years.min())
    wage = 1.0 + 0.5 * np.tanh(2 * (u - 0.4)) - 0.3 * female + 0.08 * edu \
        + 0.2 * rng.normal(size=n)
    lines = ["age,education,female,logwage"]
    lines += [f"{float(age[i])!r},{float(edu[i])!r},{float(female[i])!r},"
              f"{float(wage[i])!r}" for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_binary_csv(path, n=800, seed=7):
    """Binary-response panel: logit(P(y=1)) = -0.3 + (0.5 + u) x1."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0, 1, n)
    x1 = rng.normal(size=n)
    y = rng.binomial(1, 1.0 / (1.0 + np.exp(0.3 - (0.5 + u) * x1))).astype(float)
    lines = ["u,x1,y"]
    lines += [f"{float(u[i])!r},{float(x1[i])!r},{float(y[i])!r}" for i in range(n)]
    path.write_text("\n".join(lines) + "\n")
    return path


def fit_args(data, out, extra=()):
    return [
        "fit", "--data", str(data), "--u-col", "u", "--x-cols", "x1",
        "--y-col", "y", "--u0", "0.25", "--seed", "1", "--out", str(out),
        *extra,
    ]


class TestCmdFit:
    def test_constant_theta_all_estimators_agree(self, tmp_path):
        data = write_constant_theta_csv(tmp_path / "const.csv")
        out = tmp_path / "report.json"
        assert main(fit_args(data, out)) == 0
        report = json.loads(out.read_text())
        for key in ("theta_lr", "theta_dvcm", "theta_tl"):
            assert np.allclose(report[key], [1.5, 2.0], atol=1e-6), key

    def test_zero_bandwidth_rejected_before_fitting(self, tmp_path, capsys):
        data = write_constant_theta_csv(tmp_path / "const.csv", n=80)
        rc = main(fit_args(data, tmp_path / "r.json", ["--bandwidth", "0"]))
        assert rc != 0
        assert not (tmp_path / "r.json").exists()

    def test_wage_like_run_populates_report(self, tmp_path):
        data = write_wage_like_csv(tmp_path / "wage.csv")
        out = tmp_path / "wage_report.json"
        rc = main([
            "infer", "--data", str(data), "--u-expr", "age - education - 6",
            "--x-cols", "female,education", "--y-col", "logwage",
            "--u0", "0.25", "--seed", "2", "--out", str(out),
            "--null-theta", "0,0,0",
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        p = 3  # intercept + female + education
        for key in ("theta_lr", "theta_dvcm", "theta_tl"):
            assert len(report[key]) == p
        assert len(report["ci"]) == p
        assert np.asarray(report["q_hat"]).shape == (p, p)
        assert report["bandwidth"]["rule"] == "median_rule"
        assert report["tests"]["wald"]["p_value"] <= 1.0

    def test_missing_column_error_prefixed(self, tmp_path, capsys):
        data = write_constant_theta_csv(tmp_path / "c.csv", n=50)
        rc = main(fit_args(data, tmp_path / "r.json",
                           ["--y-col", "wage"])[0:1] + [
            "--data", str(data), "--u-col", "u", "--x-cols", "x1",
            "--y-col", "wage", "--u0", "0.25", "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dataio:")
        assert "wage" in err


WAGE_ARGS = ["--u-expr", "age - education - 6", "--x-cols", "female,education",
             "--y-col", "logwage", "--u0", "0.25", "--seed", "2"]


class TestReportGolden:
    """The fit/infer reports are pinned byte for byte (sha256 of the JSON)."""

    CASES = {
        "fit_gaussian_wage": (
            write_wage_like_csv, ["fit", *WAGE_ARGS],
            "160e7a205c9014c3445994a78870ccaf97eef342cc164638d9e737044b0cc523"),
        "fit_logistic": (
            write_binary_csv,
            ["fit", "--u-col", "u", "--x-cols", "x1", "--y-col", "y", "--u0", "0.45",
             "--family", "logistic", "--seed", "4"],
            "1039c91351a0f820eca03b6e95d3ed9576b9e74951ef4257da9e8a1adb24187d"),
        "infer_wage": (
            write_wage_like_csv,
            ["infer", *WAGE_ARGS, "--null-theta", "1,-0.3,0.08",
             "--contrast", "0,1,0", "--zeta", "-0.3"],
            "d0a61a1bf0021da950843d81b31b0ea6cd9f406d01d36443d635ecf8f9838577"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_sha256(self, case, tmp_path):
        write, argv, digest = self.CASES[case]
        data = write(tmp_path / "data.csv")
        out = tmp_path / "report.json"
        assert main([argv[0], "--data", str(data), *argv[1:], "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_logistic_fit_computes_each_target_only_fit_once(tmp_path, count_calls):
    from dvcm.estimators import fit_target_only

    calls = count_calls(fit_target_only)
    data = write_binary_csv(tmp_path / "b.csv")
    assert main(["fit", "--data", str(data), "--u-col", "u", "--x-cols", "x1",
                 "--y-col", "y", "--u0", "0.45", "--family", "logistic",
                 "--out", str(tmp_path / "r.json")]) == 0
    # the whole training target, the pilot split and the fine-tune split; the
    # pooled fits start from the first two instead of refitting them
    assert calls[0] == 3


def test_fit_computes_psi_hat_once(tmp_path, count_calls):
    from dvcm.inference import psi_hat

    calls = count_calls(psi_hat)
    data = write_constant_theta_csv(tmp_path / "c.csv", noise=0.3)
    assert main(fit_args(data, tmp_path / "r.json")) == 0
    assert calls[0] == 1


def test_fit_computes_the_pilot_sandwich_once(tmp_path, count_calls):
    from dvcm.penalty import estimate_variance_sandwich

    # the penalty's V_hat is the covariance's V_DVCM: one pilot, one sandwich
    calls = count_calls(estimate_variance_sandwich)
    data = write_constant_theta_csv(tmp_path / "c.csv", noise=0.3)
    assert main(fit_args(data, tmp_path / "r.json")) == 0
    assert calls[0] == 1


class TestCmdInfer:
    def test_null_at_fit_gives_pvalue_one(self, tmp_path):
        data = write_constant_theta_csv(tmp_path / "c.csv", noise=0.3)
        out1 = tmp_path / "fit.json"
        assert main(fit_args(data, out1)) == 0
        theta_tl = json.loads(out1.read_text())["theta_tl"]

        out2 = tmp_path / "infer.json"
        rc = main([
            "infer", "--data", str(data), "--u-col", "u", "--x-cols", "x1",
            "--y-col", "y", "--u0", "0.25", "--seed", "1", "--out", str(out2),
            "--null-theta", ",".join(repr(v) for v in theta_tl),
            "--contrast", "1,0", "--zeta", repr(theta_tl[0]),
        ])
        assert rc == 0
        tests = json.loads(out2.read_text())["tests"]
        assert tests["wald"]["statistic"] == pytest.approx(0.0, abs=1e-18)
        assert tests["wald"]["p_value"] == pytest.approx(1.0)
        assert tests["contrast"]["z"] == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self, tmp_path):
        data = write_constant_theta_csv(tmp_path / "c.csv", n=100, noise=0.2)
        rc = main([
            "infer", "--data", str(data), "--u-col", "u", "--x-cols", "x1",
            "--y-col", "y", "--u0", "0.25", "--out", str(tmp_path / "x.json"),
            "--null-theta", "0,0,0,0",
        ])
        assert rc == 1


class TestCmdSimulate:
    def test_tiny_run_and_byte_identical_rerun(self, tmp_path):
        args = [
            "simulate", "--p", "2", "--K", "3", "--n-bar", "30", "--n0", "16",
            "--gamma", "1.0", "--reps", "3", "--seed", "5",
            "--grid", "0.4,0.8", "--threads", "1",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "h,estimator,mse,se,fails"
        assert len(lines) == 1 + 2 * 3  # grid x estimators

    def test_config_file_with_overrides(self, tmp_path):
        cfg = {"p": 2, "K": 3, "n_bar": 25, "n0": 12, "gamma": 0.8,
               "reps": 2, "seed": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        rc = main(["simulate", "--config", str(cfg_path), "--grid", "0.5",
                   "--estimators", "lr,tl", "--reps", "3",
                   "--threads", "1", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_bad_config_reports_location(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{"p": 2,\n  broken\n}')
        rc = main(["simulate", "--config", str(cfg_path), "--grid", "0.5",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "row 2" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"mystery": 1}')
        rc = main(["simulate", "--config", str(cfg_path), "--grid", "0.5",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_missing_grid_rejected(self, tmp_path):
        rc = main(["simulate", "--p", "2", "--reps", "2",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1


class TestCmdPhase:
    def test_one_point_grid_rejected(self, tmp_path):
        rc = main(["phase", "--vary", "K", "--grid", "5", "--reps", "2",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_small_sweep_writes_table_and_slopes(self, tmp_path):
        out = tmp_path / "phase.csv"
        slopes_out = tmp_path / "slopes.json"
        rc = main([
            "phase", "--vary", "K", "--grid", "2,3,4,6,8,10",
            "--p", "2", "--n-bar", "40", "--n0", "16", "--gamma", "0.6",
            "--reps", "4", "--seed", "3", "--segments", "1",
            "--q-mode", "zero", "--threads", "1",
            "--out", str(out), "--slopes-out", str(slopes_out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "K,estimator,mse,se,fails"
        assert len(lines) == 7
        slopes = json.loads(slopes_out.read_text())
        assert len(slopes["segments"]) == 1


class TestEstimateReport:
    def test_round_trip_identity(self):
        report = EstimateReport(
            u0=0.25, family="gaussian",
            theta_lr=[0.1234567890123456789, -2.0],
            theta_dvcm=[0.1, 0.2], theta_tl=[0.3, 0.4],
            q_hat=[[1.0, 0.0], [0.0, 1e-17]],
            bandwidth={"h": 0.1096478196143185, "rule": "median_rule"},
            covariance={"sigma_tl": [[1.0, 0.0], [0.0, 1.0]]},
            se=[1.0, 1.0],
            ci=[[-1.0, 1.0], [-2.0, 2.0]],
            diagnostics={"note": "x"},
            tests={},
        )
        blob = json.dumps(report.to_dict())
        back = EstimateReport.from_dict(json.loads(blob))
        assert back == report
        assert json.dumps(back.to_dict()) == blob


class TestCliMisuse:
    """Every misuse ends in exit 1 with one ``error:`` line and no traceback."""

    @staticmethod
    def _data(tmp_path):
        path = write_constant_theta_csv(tmp_path / "c.csv", n=120)
        lines = path.read_text().splitlines()
        lines[0] += ",age,education"
        # education 0 on the third data row (file row 4): age/education = inf
        lines[1:] = [f"{row},{30 + i},{0 if i == 2 else 12}"
                     for i, row in enumerate(lines[1:])]
        path.write_text("\n".join(lines) + "\n")
        return path

    @staticmethod
    def _edited(path, edit):
        """A copy of the CSV at ``path`` whose lines are ``edit(lines)``."""
        out = path.with_name("edited.csv")
        out.write_text("\n".join(edit(path.read_text().splitlines())) + "\n",
                       errors="surrogateescape")  # "\udcff" is written as the byte 0xff
        return out

    CASES = {
        "split_with_one_part": (
            lambda d, o: fit_args(d, o, ["--split", "1"]), "--split"),
        "split_zero_denominator": (
            lambda d, o: fit_args(d, o, ["--split", "1/0,1"]), "'1/0'"),
        "u_expr_not_finite": (
            lambda d, o: ["fit", "--data", str(d), "--u-expr", "age/education",
                          "--x-cols", "x1", "--y-col", "y", "--u0", "0.25",
                          "--out", str(o)],
            "'age/education'"),
        "missing_column": (
            lambda d, o: fit_args(d, o, ["--y-col", "wage"]), "wage"),
        "empty_grid": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", ",",
                          "--out", str(o)], "grid"),
        "threads_zero": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "0", "--out", str(o)], "threads"),
        "threads_negative": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "-3", "--out", str(o)], "-3"),
        "header_only_csv": (
            lambda d, o: fit_args(TestCliMisuse._edited(d, lambda ls: ls[:1]), o),
            "sigma filter needs at least 2 values"),
        "ragged_row": (  # file row 6 loses its last cell
            lambda d, o: fit_args(TestCliMisuse._edited(
                d, lambda ls: ls[:5] + [ls[5].rsplit(",", 1)[0]] + ls[6:]), o),
            "(row 6, column None)"),
        "non_numeric_cell": (  # x1 of file row 4 is not a number
            lambda d, o: fit_args(TestCliMisuse._edited(
                d, lambda ls: ls[:3] + [",".join(
                    "abc" if j == 1 else c for j, c in enumerate(ls[3].split(",")))]
                + ls[4:]), o),
            "non-numeric cell 'abc' (row 4, column 'x1')"),
        "blank_line_before_bad_cell": (  # a blank file row 2 puts x1 'abc' on row 5
            lambda d, o: fit_args(TestCliMisuse._edited(
                d, lambda ls: ls[:1] + [""] + ls[1:3] + [",".join(
                    "abc" if j == 1 else c for j, c in enumerate(ls[3].split(",")))]
                + ls[4:]), o),
            "non-numeric cell 'abc' (row 5, column 'x1')"),
        "oversized_cell": (  # x1 of file row 3 exceeds csv.field_size_limit()
            lambda d, o: fit_args(TestCliMisuse._edited(
                d, lambda ls: ls[:2] + [",".join(
                    "9" * 200_000 + "x" if j == 1 else c
                    for j, c in enumerate(ls[2].split(",")))] + ls[3:]), o),
            "field larger than field limit (131072) (row 3, column None)"),
        "undecodable_header": (  # the header holds the byte 0xff
            lambda d, o: fit_args(TestCliMisuse._edited(
                d, lambda ls: ["\udcff" + ls[0]] + ls[1:]), o),
            "edited.csv: not valid utf-8 text: invalid start byte (row 1, column None)"),
        "undecodable_cell": (  # x1 of file row 4 holds the byte 0xff
            lambda d, o: fit_args(TestCliMisuse._edited(
                d, lambda ls: ls[:3] + [ls[3].replace(",", ",\udcff", 1)] + ls[4:]), o),
            "edited.csv: not valid utf-8 text: invalid start byte (row 4, column None)"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line(self, case, tmp_path, capsys):
        argv, needle = self.CASES[case]
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv(self._data(tmp_path), out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "Traceback" not in err and needle in err
        assert not caught, [str(w.message) for w in caught]
        assert not out.exists()

    def test_bad_thread_env_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DVCM_THREADS", "abc")
        out = tmp_path / "out"
        rc = main(["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                   "--out", str(out)])
        assert rc == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err == "error: cli: DVCM_THREADS must be an integer, got 'abc'\n"
        # fit runs no pool, so it does not read the variable
        assert main(fit_args(self._data(tmp_path), tmp_path / "r.json")) == 0

    def test_u_expr_error_names_the_row(self, tmp_path, capsys):
        argv, _ = self.CASES["u_expr_not_finite"]
        assert main(argv(self._data(tmp_path), tmp_path / "out")) == 1
        assert "(row 4, column 'age/education')" in capsys.readouterr().err


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone takes longer to import than the whole package
    import dvcm

    code = "import sys, dvcm, dvcm.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(dvcm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
