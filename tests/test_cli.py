import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dvcm.cli import EstimateReport, build_parser, main


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


def u_expr_args(data, out, *u_expr):
    """``fit`` argv deriving the identifier by ``u_expr``, one or two argv words."""
    return ["fit", "--data", str(data), *u_expr, "--x-cols", "x1", "--y-col", "y",
            "--u0", "0.25", "--out", str(out)]


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

    def test_fixed_bandwidth_runs_the_pipeline_at_that_h(self, tmp_path, monkeypatch):
        import dvcm.cli
        from dvcm.inference import TransferProblem

        made = []  # the arguments of the pipeline's TransferProblem

        def record(*args, **kwargs):
            made.append((args, kwargs))
            return TransferProblem(*args, **kwargs)

        monkeypatch.setattr(dvcm.cli, "TransferProblem", record)
        out = tmp_path / "r.json"
        data = write_constant_theta_csv(tmp_path / "c.csv", noise=0.3)
        assert main(fit_args(data, out, ["--bandwidth", "0.3"])) == 0
        report = json.loads(out.read_text())
        ((args, kwargs),) = made
        problem = TransferProblem(*args, **kwargs)
        assert problem.bandwidth("median", c=1.0, epsilon=0.2).h != 0.3
        fixed = problem.bandwidth("fixed", c=1.0, epsilon=0.2, h=0.3)
        assert report["bandwidth"] == {
            "h": 0.3, "rule": "fixed", "rate_term": 0.3, "d1": fixed.d1, "dK": fixed.dK,
            "feasible": True, "clipped": False, "diagnostics": {}}
        pilot = problem.pilot(0.3)
        pen = problem.penalty(pilot)
        theta_lr, theta_dvcm = problem.full_target(0.3)
        assert (report["theta_lr"], report["theta_dvcm"]) == (theta_lr.tolist(),
                                                            theta_dvcm.tolist())
        assert report["theta_tl"] == problem.fine_tune(pilot, pen.q).theta_tl.tolist()
        assert report["q_hat"] == pen.q.tolist()

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


def test_cli_binds_nothing_from_design_or_estimators():
    """``fit`` takes every estimate from TransferProblem: the CLI holds no
    function, class or module of the layers below it."""
    import dvcm.cli

    below = ("dvcm.design", "dvcm.estimators")
    bound = [name for name, value in vars(dvcm.cli).items()
             if getattr(value, "__module__", getattr(value, "__name__", None)) in below]
    assert not bound


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

    def test_missing_grid_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", "--p", "2", "--reps", "2", "--out", str(tmp_path / "o.csv")])
        assert exit_.value.code == 2
        assert "the following arguments are required: --grid" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--bandwidth-rule", "median"), ("--bw-c", "9"), ("--epsilon", "0.7"),
    ])
    def test_bandwidth_rule_flags_belong_to_phase(self, flag, value, capsys):
        # simulate passes every h explicitly, so it has no rule to configure
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(["simulate", "--grid", "0.5", flag, value])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        build_parser().parse_args(["phase", "--vary", "K", "--grid", "2", flag, value])

    def test_threads_default_is_the_cpu_count(self, monkeypatch):
        monkeypatch.setenv("DVCM_THREADS", "abc")  # no environment variable is read
        for command in (["simulate", "--grid", "0.5"], ["phase", "--vary", "K", "--grid", "2"]):
            assert build_parser().parse_args(command).threads == (os.cpu_count() or 1)


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

    @staticmethod
    def _config(data, text):
        """``simulate`` arguments reading the JSON config ``text``, written next to ``data``."""
        path = data.with_name("config.json")
        path.write_text(text)
        return ["simulate", "--config", str(path), "--reps", "2", "--grid", "0.5",
                "--threads", "1"]

    CASES = {
        "config_not_an_object": (
            lambda d, o: TestCliMisuse._config(d, "3") + ["--out", str(o)],
            "config.json: a config must be a JSON object, got 3"),
        "config_null": (
            lambda d, o: TestCliMisuse._config(d, "null") + ["--out", str(o)],
            "a config must be a JSON object, got null"),
        "config_field_a_string": (
            lambda d, o: TestCliMisuse._config(d, '{"p": "4"}') + ["--out", str(o)],
            "p must be an integer, got '4'"),
        "config_field_null": (
            lambda d, o: TestCliMisuse._config(d, '{"p": null}') + ["--out", str(o)],
            "p must be an integer, got None"),
        "config_grid_not_a_list": (
            lambda d, o: TestCliMisuse._config(d, '{"bandwidth_grid": 5}') + ["--out", str(o)],
            "unknown config keys: ['bandwidth_grid']"),
        # simulate takes every h from --grid: a rule's keys would change no byte
        "simulate_config_sets_bandwidth_rule": (
            lambda d, o: TestCliMisuse._config(d, '{"bandwidth_rule": "undersmoothed"}')
            + ["--out", str(o)], "reads no bandwidth rule, but the config sets "
                                 "['bandwidth_rule']"),
        "simulate_config_sets_bw_c": (
            lambda d, o: TestCliMisuse._config(d, '{"bw_c": 0.8}') + ["--out", str(o)],
            "reads no bandwidth rule, but the config sets ['bw_c']"),
        "simulate_config_sets_bw_epsilon": (
            lambda d, o: TestCliMisuse._config(d, '{"p": 2, "bw_epsilon": 0.3, "bw_c": 1}')
            + ["--out", str(o)], "reads no bandwidth rule, but the config sets "
                                 "['bw_c', 'bw_epsilon']"),
        "phase_config_rule_fixed": (  # fixed needs an h, which no replication has
            lambda d, o: ["phase", "--vary", "K", "--grid", "2,3,4,5,6,7,8,9",
                          *TestCliMisuse._config(d, '{"bandwidth_rule": "fixed"}')[1:3],
                          "--p", "2", "--reps", "2", "--threads", "1", "--out", str(o)],
            "bandwidth_rule must be one of ('median', 'undersmoothed'), got 'fixed'"),
        "sigma_k_drops_every_row": (
            lambda d, o: fit_args(d, o, ["--sigma-k", "0"]), "--sigma-k 0.0 drops every row"),
        "bandwidth_not_finite": (
            lambda d, o: fit_args(d, o, ["--bandwidth", "inf"]),
            "needs a finite positive h, got inf"),
        "bandwidth_not_a_number": (
            lambda d, o: fit_args(d, o, ["--bandwidth", "abc"]),
            "--bandwidth 'abc' is not auto, undersmooth or a positive number"),
        "bandwidth_negative": (
            lambda d, o: fit_args(d, o, ["--bandwidth", "-0.5"]),
            "--bandwidth needs a finite positive h, got -0.5"),
        "bandwidth_checked_before_ingest": (  # the data file does not exist
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--bandwidth", "abc"]),
            "--bandwidth 'abc' is not auto"),
        "split_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--split", "1"]),
            "--split needs at least 2 parts"),
        "split_with_one_part": (
            lambda d, o: fit_args(d, o, ["--split", "1"]), "--split"),
        "split_zero_denominator": (
            lambda d, o: fit_args(d, o, ["--split", "1/0,1"]), "'1/0'"),
        "split_three_level_fraction": (
            lambda d, o: fit_args(d, o, ["--split", "1/2/3,1/2"]),
            "--split part '1/2/3' is not a number or a fraction a/b"),
        "split_empty_parts": (
            lambda d, o: fit_args(d, o, ["--split", ",,"]),
            "--split part '' is not a number or a fraction a/b"),
        "simulate_grid_not_a_number": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "a,b",
                          "--threads", "1", "--out", str(o)], "--grid part 'a' is not a number"),
        "phase_grid_not_a_number": (
            lambda d, o: ["phase", "--vary", "K", "--grid", "2,3,4,5,6,7,8,x",
                          "--p", "2", "--reps", "2", "--threads", "1", "--out", str(o)],
            "--grid part 'x' is not a number"),
        "infer_null_theta_not_a_number": (
            lambda d, o: ["infer", *fit_args(d, o, ["--null-theta", "a,b,c"])[1:]],
            "--null-theta part 'a' is not a number"),
        "infer_contrast_not_a_number": (
            lambda d, o: ["infer", *fit_args(d, o, ["--contrast", "1,x,2"])[1:]],
            "--contrast part 'x' is not a number"),
        "u_expr_not_finite": (
            lambda d, o: ["fit", "--data", str(d), "--u-expr", "age/education",
                          "--x-cols", "x1", "--y-col", "y", "--u0", "0.25",
                          "--out", str(o)],
            "'age/education'"),
        "u_expr_divides_by_zero": (  # inf on every row: the first is file row 2
            lambda d, o: u_expr_args(d, o, "--u-expr", "age + 1/0"),
            "non-finite value inf (row 2, column 'age + 1/0')"),
        "u_expr_nested_parentheses": (
            lambda d, o: u_expr_args(d, o, "--u-expr=" + "(" * 3000 + "age" + ")" * 3000),
            "cannot parse column expression '((("),
        "u_expr_leading_minus_signs": (
            lambda d, o: u_expr_args(d, o, "--u-expr=" + "-" * 3000 + "age"),
            "cannot parse column expression '---"),
        "u_expr_power": (
            lambda d, o: u_expr_args(d, o, "--u-expr", "age ** 2"),
            "'age ** 2' is not + - * /"),
        "missing_column": (
            lambda d, o: fit_args(d, o, ["--y-col", "wage"]), "wage"),
        "empty_grid": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", ",",
                          "--out", str(o)], "grid"),
        "threads_zero": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "0", "--out", str(o)], "threads"),
        "simulate_gamma_not_finite": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "1", "--gamma", "inf", "--out", str(o)],
            "gamma must be finite and nonnegative, got inf"),
        "simulate_theta_overflows": (  # exp(5u + 2.5) overflows at u = 145
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "1", "--gamma", "290", "--out", str(o)],
            "theta_spec 'paper_default' overflows on the source range [-145.0, 145.0]"),
        "phase_gamma_grid_overflows": (
            lambda d, o: ["phase", "--vary", "gamma", "--grid", "0.5,1,2,4,8,16,32,300",
                          "--p", "2", "--reps", "2", "--threads", "1", "--out", str(o)],
            "overflows on the source range [-150.0, 150.0] of gamma=300.0"),
        "phase_grid_not_whole": (  # round() would run K=2 and label the row 2.4
            lambda d, o: ["phase", "--vary", "K", "--grid", "2,2.4,3,4,5,6,7,8",
                          "--p", "2", "--reps", "2", "--threads", "1", "--out", str(o)],
            "--grid part 2.4 is not a whole number, as --vary K needs"),
        "phase_grid_not_finite": (
            lambda d, o: ["phase", "--vary", "K", "--grid", "2,3,4,5,6,7,8,inf",
                          "--p", "2", "--reps", "2", "--threads", "1", "--out", str(o)],
            "--grid values must be finite, got '2,3,4,5,6,7,8,inf'"),
        "simulate_bandwidth_not_finite": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "inf",
                          "--threads", "1", "--out", str(o)],
            "bandwidth must be finite and positive, got inf"),
        "simulate_noise_sd_negative": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "1", "--noise-sd", "-1", "--out", str(o)],
            "noise_sd must be finite and nonnegative, got -1.0"),
        "fit_gamma_not_finite": (  # n / gamma = 0 has no negative power
            lambda d, o: fit_args(d, o, ["--gamma", "inf"]),
            "gamma, e0 and beta must be finite and positive, got gamma=inf"),
        "fit_beta_not_finite": (
            lambda d, o: fit_args(d, o, ["--beta", "inf"]), "e0=1.0, beta=inf"),
        "simulate_beta_not_finite": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "1", "--beta", "inf", "--out", str(o)],
            "e0=1.0, beta=inf"),
        "fit_undersmooth_epsilon_not_finite": (
            lambda d, o: fit_args(d, o, ["--bandwidth", "undersmooth", "--epsilon", "inf"]),
            "beta=2.0, epsilon=inf"),
        "fit_undersmooth_beta_negative": (  # 2 beta + 1 = 0 was a division by zero
            lambda d, o: fit_args(d, o, ["--bandwidth", "undersmooth", "--beta", "-0.5"]),
            "beta=-0.5, epsilon=0.2"),
        "fit_beta_huge": (  # int(1e300) has 301 digits
            lambda d, o: fit_args(d, o, ["--beta", "1e300"]),
            "derivative of order 1e+300 needs 1e+300 distinct domain identifiers"),
        "fit_seed_negative": (
            lambda d, o: fit_args(d, o, ["--seed", "-1"]),
            "--seed must be a non-negative integer, got -1"),
        "simulate_seed_negative": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "1", "--seed", "-1", "--out", str(o)],
            "--seed must be a non-negative integer, got -1"),
        "config_seed_negative": (
            lambda d, o: TestCliMisuse._config(d, '{"seed": -1}') + ["--out", str(o)],
            "seed must be a non-negative integer, got -1"),
        "fit_u0_nan": (
            lambda d, o: fit_args(d, o, ["--u0", "nan"]), "--u0 must be a finite number, got nan"),
        "infer_u0_inf": (
            lambda d, o: ["infer", *fit_args(d, o, ["--u0", "inf", "--contrast", "1,0"])[1:]],
            "--u0 must be a finite number, got inf"),
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
        "simulate_poisson_mean_overflows": (  # theta's exp(5u + 2.5) / 100 is 3.3e4 at u = 2.5
            lambda d, o: ["simulate", "--family", "poisson", "--gamma", "5", "--reps", "4",
                          "--grid", "0.5", "--threads", "1", "--out", str(o)],
            "the Poisson mean exp(eta) reaches inf, which numpy cannot draw from "
            "(lam value too large); lower --gamma"),
        "fit_poisson_negative_response": (  # y = 1.5 + 2 x1 is negative for x1 < -0.75
            lambda d, o: fit_args(d, o, ["--family", "poisson"]),
            "error: family: the poisson family needs responses in [0, inf), "
            "got -0.5596088760229274"),
        "fit_logistic_response_not_in_0_1": (
            lambda d, o: fit_args(d, o, ["--family", "logistic"]),
            "error: family: the logistic family needs responses in [0, 1], "
            "got 3.8297279622220564"),
        "undecodable_cell": (  # x1 of file row 4 holds the byte 0xff
            lambda d, o: fit_args(TestCliMisuse._edited(
                d, lambda ls: ls[:3] + [ls[3].replace(",", ",\udcff", 1)] + ls[4:]), o),
            "edited.csv: not valid utf-8 text: invalid start byte (row 4, column None)"),
        "simulate_order_too_large": (  # 171! overflows a float
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "1", "--order", "171", "--out", str(o)],
            "error: cli: polynomial order must be between 0 and 170, got 171"),
        "fit_order_too_large": (
            lambda d, o: fit_args(d, o, ["--order", "171"]),
            "error: cli: polynomial order must be between 0 and 170, got 171"),
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

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 89.4 GiB for an array with shape (12000000000,) and data "
         "type float64", "error: cli: Unable to allocate 89.4 GiB for an array with shape "
         "(12000000000,) and data type float64\n"),
        ("", "error: cli: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                             message, line):
        from dvcm import simulation

        def refuse(config, rep):  # as numpy refuses an array larger than memory
            raise MemoryError(message)

        monkeypatch.setattr(simulation, "generate_dataset", refuse)
        out = tmp_path / "out"
        rc = main(["simulate", "--p", "2", "--reps", "2", "--grid", "0.5", "--threads", "1",
                   "--out", str(out)])
        assert rc == 1 and not out.exists()
        assert capsys.readouterr().err == line

    def test_phase_offers_no_fixed_rule(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main(["phase", "--vary", "K", "--grid", "2,3,4,5,6,7,8,9", "--p", "2",
                  "--reps", "2", "--threads", "1", "--bandwidth-rule", "fixed",
                  "--out", str(out)])
        assert exit_.value.code == 2 and not out.exists()
        assert "argument --bandwidth-rule: invalid choice: 'fixed'" in capsys.readouterr().err

    def test_u_expr_error_names_the_row(self, tmp_path, capsys):
        argv, _ = self.CASES["u_expr_not_finite"]
        assert main(argv(self._data(tmp_path), tmp_path / "out")) == 1
        assert "(row 4, column 'age/education')" in capsys.readouterr().err


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(code, **env):
    """stdout of ``code`` run in a new interpreter that imports this checkout's
    dvcm, with no BLAS thread variable inherited and the variables ``env`` set."""
    import dvcm

    src = str(Path(dvcm.__file__).resolve().parents[1])
    env = {**{k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS},
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout.split()


# records OPENBLAS_NUM_THREADS as numpy's and scipy's OpenBLAS begin to load
_SEEN_AT_LOAD = (
    "import os, sys; seen = {}; sys.addaudithook(lambda event, args: event == 'import' "
    "and args[0] in ('numpy', 'scipy.linalg._flapack') and "
    "seen.setdefault(args[0], os.environ.get('OPENBLAS_NUM_THREADS'))); ")
_THREADS = "len(os.listdir('/proc/self/task'))"
_ON_PROC = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                              reason="counts threads in /proc/self/task")


class TestBlasThreads:
    """When dvcm is first to import numpy and no thread count is set, both
    OpenBLAS libraries load single-threaded and the variable is gone after."""

    def test_both_libraries_load_single_threaded(self):
        code = _SEEN_AT_LOAD + "import dvcm, dvcm.cli; print(*seen.values())"
        assert _fresh_python(code) == ["1", "1"]

    def test_import_leaves_the_environment_unchanged(self):
        code = ("import os; before = dict(os.environ); import dvcm, dvcm.cli; "
                "print(dict(os.environ) == before)")
        assert _fresh_python(code) == ["True"]

    @_ON_PROC
    def test_import_starts_no_thread(self):
        assert _fresh_python(f"import os, dvcm, dvcm.cli; print({_THREADS})") == ["1"]

    @_ON_PROC
    @pytest.mark.parametrize("var", BLAS_THREAD_VARS)
    def test_a_caller_set_thread_count_is_kept(self, var):
        code = (f"import os, dvcm, dvcm.cli; "
                f"print(os.environ.get('OPENBLAS_NUM_THREADS'), {_THREADS})")
        value, threads = _fresh_python(code, **{var: "2"})
        assert value == ("2" if var == "OPENBLAS_NUM_THREADS" else "None")
        if len(os.sched_getaffinity(0)) >= 2:
            assert int(threads) > 1  # OpenBLAS's workers exist

    def test_numpy_imported_first_keeps_blas_threads(self):
        code = (_SEEN_AT_LOAD + "import numpy, dvcm, dvcm.cli; "
                "print(os.environ.get('OPENBLAS_NUM_THREADS'), *seen.values())")
        assert _fresh_python(code) == ["None", "None", "None"]

    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    def test_blas_threads_change_no_report_byte(self, family, tmp_path):
        """``fit`` on 60k rows, whose Grams are large enough for OpenBLAS to
        thread, writes the same report with one BLAS thread and with two."""
        data = tmp_path / "data.csv"
        if family == "gaussian":
            write_wage_like_csv(data, n=60_000)
            cols = ["--u-expr", "age - education - 6", "--x-cols", "female,education",
                    "--y-col", "logwage"]
        else:
            write_binary_csv(data, n=60_000)
            cols = ["--u-col", "u", "--x-cols", "x1", "--y-col", "y"]
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"report{threads}.json"
            argv = ["fit", "--data", str(data), *cols, "--u0", "0.25",
                    "--family", family, "--out", str(out)]
            _fresh_python(f"import dvcm.cli; dvcm.cli.main({argv!r})",
                          OPENBLAS_NUM_THREADS=threads)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone takes longer to import than the whole package, and
    # the package inits of scipy.linalg and scipy.special are skipped to
    # reach their extensions; the process pool loads only for a threaded
    # experiment; numpy.random is loaded at import all the same
    code = ("import sys, dvcm, dvcm.cli; print(*(m in sys.modules for m in "
            "('scipy.stats', 'scipy.linalg', 'scipy.special', 'concurrent.futures.process', "
            "'numpy.random')))")
    assert _fresh_python(code) == ["False", "False", "False", "False", "True"]


@pytest.mark.parametrize("first", ["dvcm", "scipy.linalg.lapack"])
def test_cholesky_routines_are_scipys(first):
    """The package's dpotrf/dpotrs are the objects scipy.linalg.lapack exports,
    whichever of the two is imported first."""
    code = (f"import {first}, dvcm.estimators as e, scipy.linalg.lapack as la; "
            "print(e.dpotrf is la.dpotrf, e.dpotrs is la.dpotrs)")
    assert _fresh_python(code) == ["True", "True"]


@pytest.mark.parametrize("first", ["dvcm", "scipy.special"])
def test_special_functions_are_scipys(first):
    """The package's expit, erfc, gammaincc and ndtri are the objects
    scipy.special exports, whichever of the two is imported first, and an
    imported scipy.special stays the one in sys.modules."""
    code = (f"import sys, {first}; before = sys.modules.get('scipy.special'); "
            "import dvcm.families as f, dvcm.inference as i, scipy.special as s; "
            "print(before in (None, s), f.expit is s.expit, i.erfc is s.erfc, "
            "i.gammaincc is s.gammaincc, i.ndtri is s.ndtri)")
    assert _fresh_python(code) == ["True"] * 5


def test_scipy_stats_works_after_import():
    """ks_normality imports scipy.stats, and with it the real scipy.special,
    after the package's stand-in for it is gone."""
    code = ("import dvcm, numpy as np; "
            "d, p = dvcm.ks_normality(np.linspace(-2, 2, 41)); print(0 < d < 1, 0 < p <= 1)")
    assert _fresh_python(code) == ["True", "True"]


def _load_from(monkeypatch, scipy_dir, subpackage, module):
    """``extension(subpackage, module)`` as a fresh interpreter would run it,
    with nothing to reuse and scipy's directory at ``scipy_dir``; returns
    the error it raises and the names it leaves in ``sys.modules``."""
    import scipy

    from dvcm._scipy import extension

    names = (f"scipy.{subpackage}", f"scipy.{subpackage}.{module}")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(scipy, "__path__", [str(scipy_dir)])
    with pytest.raises(ImportError) as info:
        extension(subpackage, module)
    return info.value, [name for name in names if name in sys.modules]


def test_missing_lapack_extension_is_an_import_error(monkeypatch, tmp_path):
    error, left = _load_from(monkeypatch, tmp_path, "linalg", "_flapack")
    assert error.name == "scipy.linalg._flapack" and "scipy.linalg._flapack" in str(error)
    assert left == []


def test_missing_special_extension_is_an_import_error(monkeypatch, tmp_path):
    error, left = _load_from(monkeypatch, tmp_path, "special", "_ufuncs")
    assert error.name == "scipy.special._ufuncs" and "scipy.special._ufuncs" in str(error)
    assert left == []


def test_failed_extension_leaves_no_stand_in(monkeypatch, tmp_path):
    """An extension whose init fails leaves neither the stand-in package
    nor the half-made module behind; its relative import was resolved
    in the stand-in's directory."""
    (tmp_path / "special").mkdir()
    (tmp_path / "special" / "_ufuncs.py").write_text("from ._not_there import f\n")
    error, left = _load_from(monkeypatch, tmp_path, "special", "_ufuncs")
    assert error.name == "scipy.special._not_there"
    assert left == []


def test_readme_commands_parse(capsys):
    """Every ``dvcm ...`` command in the README's fenced blocks parses, so a
    flag the parser no longer has cannot stay documented."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [shlex.split(line, comments=True)[1:]
                for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("dvcm ")]
    assert sorted(argv[0] for argv in commands) == ["fit", "infer", "phase", "simulate"]
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"dvcm {' '.join(argv)}: {capsys.readouterr().err}")


# Every option of every subcommand, one line each: option strings, dest, type,
# choices, default (--threads defaults to the CPU count) and whether it is required.
# A change to any setting shows here in review.
_DATA_OPTIONS = """
    --data           data           -     -                             None          required
    --u-col          u_col          -     -                             None
    --u-expr         u_expr         -     -                             None
    --x-cols         x_cols         -     -                             None          required
    --y-col          y_col          -     -                             None          required
    --no-intercept   no_intercept   -     -                             False
    --u0             u0             float -                             None          required
    --family         family         -     gaussian|logistic|poisson     'gaussian'
    --order          order          int   -                             1
    --beta           beta           float -                             2.0
    --bandwidth      bandwidth      -     -                             'auto'
    --gamma          gamma          float -                             None
    --e0             e0             float -                             1.0
    --bw-c           bw_c           float -                             1.0
    --epsilon        epsilon        float -                             0.2
    --delta          delta          float -                             1.0
    --seed           seed           int   -                             0
    --split          split          -     -                             '1/3,1/3,1/3'
    --bins           bins           int   -                             10
    --sigma-k        sigma_k        float -                             3.0
    --level          level          float -                             0.95
    --out            out            -     -                             None
"""
_SIM_OPTIONS = """
    --config         config         -     -                             None
    --family         family         -     gaussian|logistic|poisson     None
    --p              p              int   -                             None
    --K              K              int   -                             None
    --n-bar          n_bar          int   -                             None
    --n0             n0             int   -                             None
    --gamma          gamma          float -                             None
    --noise-sd       noise_sd       float -                             None
    --reps           reps           int   -                             None
    --seed           seed           int   -                             None
    --theta-spec     theta_spec     -     paper_default|tanh_pair       None
    --order          order          int   -                             None
    --beta           beta           float -                             None
    --delta          delta          float -                             None
    --e0             e0             float -                             None
    --q-mode         q_mode         -     estimate|oracle|zero|infinity None
    --threads        threads        int   -                             cpu_count
    --out            out            -     -                             None
"""
CLI_SURFACE = {
    "fit": _DATA_OPTIONS,
    "infer": _DATA_OPTIONS + """
    --null-theta     null_theta     -     -                             None
    --contrast       contrast       -     -                             None
    --zeta           zeta           float -                             0.0
""",
    "simulate": _SIM_OPTIONS + """
    --grid           grid           -     -                             None          required
    --estimators     estimators     -     -                             'lr,dvcm,tl'
""",
    "phase": _SIM_OPTIONS + """
    --vary           vary           -     K|gamma|n                     None          required
    --grid           grid           -     -                             None          required
    --bandwidth-rule bandwidth_rule -     median|undersmoothed          None
    --bw-c           bw_c           float -                             None
    --epsilon        bw_epsilon     float -                             None
    --segments       segments       int   -                             3
    --slopes-out     slopes_out     -     -                             None
""",
}


def test_cli_surface_is_the_recorded_table():
    import argparse

    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    surface = {}
    for name, parser in commands.items():
        surface[name] = [
            [",".join(a.option_strings), a.dest, getattr(a.type, "__name__", "-"),
             "|".join(a.choices or "-"), "cpu_count" if a.dest == "threads" else repr(a.default),
             *(["required"] if a.required else [])]
            for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    assert surface == {name: [line.split() for line in table.splitlines() if line.strip()]
                       for name, table in CLI_SURFACE.items()}
