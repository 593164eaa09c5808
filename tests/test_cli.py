import ast
import contextlib
import dataclasses
import hashlib
import io
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
from dvcm.dataio import RawTable, bin_domains, load_csv, sigma_filter, split_target
from dvcm.design import Panel, kernel_window
from dvcm.inference import FitConfig, confidence_intervals
from dvcm.simulation import InferenceRecords, SimConfig, fit_loglog_slopes, mc_sweep


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

    def test_singular_pooled_system_prints_its_condition_number(self, tmp_path, capsys):
        # a window this narrow holds the target alone, so the order-1 fit's
        # slope columns are zero; the message computes the condition number
        data = write_constant_theta_csv(tmp_path / "const.csv", n=120)
        assert main(fit_args(data, tmp_path / "r.json", ["--bandwidth", "0.01"])) == 1
        assert capsys.readouterr().err == (
            "error: estimators: symmetric system is singular (condition number ~ inf)\n")

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
        pen = problem.penalty(0.3)
        theta_lr, theta_dvcm = problem.full_target(0.3)
        assert (report["theta_lr"], report["theta_dvcm"]) == (theta_lr.tolist(),
                                                            theta_dvcm.tolist())
        assert report["theta_tl"] == problem.fine_tune(0.3, pen.q).theta_tl.tolist()
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


def test_every_imported_name_is_read_or_exported():
    """Each name a module-level import of ``src/dvcm`` binds is read in its
    module (annotations included) or listed in its ``__all__``; the one
    exception is ``simulation``'s ``import numpy.random``, run for its effect."""
    allowed = {("simulation.py", "numpy")}
    stale = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "dvcm").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read | exported and (path.name, name) not in allowed:
                        stale.append(f"{path.name}: {name}")
    assert not stale


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

    def test_contrast_null_defaults_to_zero(self, tmp_path):
        data = write_constant_theta_csv(tmp_path / "c.csv", noise=0.3)
        argv = ["infer", *fit_args(data, tmp_path / "infer.json", ["--contrast", "1,0"])[1:]]
        assert main(argv) == 0
        report = json.loads((tmp_path / "infer.json").read_text())
        assert report["tests"]["contrast"]["zeta"] == 0.0

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

    # sha256 of the CSV and the slopes, recorded with one single-cell sweep per grid point
    SMALL_GOLDEN = {
        "estimate": ("70157af9b888e7a59e310443c7330d3cf6e2242c4207dbd24950106a31a1dbdd",
                     "e7c9754ca7dc3eaa996c67fe11a3a283da61d438409c3f6e8c96f11c825ed2ea"),
        "oracle": ("178690df6d962c038c69049602c9233250e29c2d5925729f8247cf781f006509",
                   "bb0cbed1e87c2f0c308cb340928e6311ba31ca107a7761e22f3be0d0058f9094"),
    }

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("q_mode", sorted(SMALL_GOLDEN))
    def test_small_sweep_golden(self, q_mode, threads, tmp_path):
        out, slopes_out = tmp_path / "phase.csv", tmp_path / "slopes.json"
        assert main(["phase", "--vary", "K", "--grid", "2,3,4,6,8,10", "--p", "2",
                     "--n-bar", "40", "--n0", "16", "--gamma", "0.6", "--reps", "6",
                     "--seed", "3", "--segments", "1", "--q-mode", q_mode,
                     "--threads", threads, "--out", str(out),
                     "--slopes-out", str(slopes_out)]) == 0
        assert (hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(slopes_out.read_bytes()).hexdigest()) == self.SMALL_GOLDEN[q_mode]

    def test_grid_runs_on_one_pool(self, inline_pool, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(["phase", "--vary", "K", "--grid", "2,3,4,6,8,11,16,32,45,64,91,128,181",
                     "--p", "2", "--n-bar", "20", "--n0", "16", "--gamma", "0.6",
                     "--reps", "3", "--seed", "3", "--threads", "2",
                     "--out", str(tmp_path / "phase.csv"),
                     "--slopes-out", str(tmp_path / "slopes.json")]) == 0
        assert inline_pool == [2]


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
            "bandwidth must be finite and positive, got inf"),
        "bandwidth_not_a_number": (
            lambda d, o: fit_args(d, o, ["--bandwidth", "abc"]),
            "--bandwidth 'abc' is not auto, undersmooth or a positive number"),
        "bandwidth_negative": (
            lambda d, o: fit_args(d, o, ["--bandwidth", "-0.5"]),
            "bandwidth must be finite and positive, got -0.5"),
        "bandwidth_checked_before_ingest": (  # the data file does not exist
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--bandwidth", "abc"]),
            "--bandwidth 'abc' is not auto"),
        "split_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--split", "1"]),
            "--split needs at least 2 parts"),
        "split_negative_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--split", "1,-1"]),
            "fractions must be positive"),
        "split_sum_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--split", "0.5,0.6"]),
            "fractions must sum to 1, got 1.1"),
        "split_nan": (  # no fraction compares positive or sums to 1 with a NaN
            lambda d, o: fit_args(d, o, ["--split", "nan,0.5"]), "fractions must be positive"),
        "level_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--level", "1.5"]),
            "confidence level must be in (0, 1), got 1.5"),
        "infer_level_checked_before_ingest": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--level", "0", "--contrast", "1,0"])[1:]],
            "confidence level must be in (0, 1), got 0.0"),
        "infer_without_a_test_checked_before_ingest": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o)[1:]],
            "infer requires --null-theta and/or --contrast"),
        "infer_null_theta_checked_before_ingest": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--null-theta", "a,b"])[1:]],
            "--null-theta part 'a' is not a number"),
        "infer_contrast_checked_before_ingest": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--contrast", "1,x"])[1:]],
            "--contrast part 'x' is not a number"),
        # a list flag is split at commas only, and every part is a number
        "infer_contrast_empty_part_checked_before_ingest": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--contrast", ",1,0"])[1:]],
            "error: cli: --contrast part '' is not a number"),
        "infer_null_theta_semicolon_checked_before_ingest": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--null-theta", "1;0"])[1:]],
            "error: cli: --null-theta part '1;0' is not a number"),
        # theta(u0) has len(--x-cols) coefficients, plus the intercept's
        "infer_null_theta_length_checked_before_ingest": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--null-theta", "0,0,0,0"])[1:]],
            "--null-theta has 4 entries, expected 2"),
        "infer_contrast_length_checked_before_ingest": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--contrast", "1"])[1:]],
            "--contrast has 1 entries, expected 2"),
        "infer_contrast_length_without_intercept_checked_before_ingest": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--no-intercept", "--contrast", "1,0"])[1:]],
            "--contrast has 2 entries, expected 1"),
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
        "simulate_grid_empty_part": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5,,0.7",
                          "--threads", "1", "--out", str(o)],
            "error: cli: --grid part '' is not a number"),
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
            "error: cli: --grid values must be finite, got [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, "
            "inf]"),
        # the slope fit refuses a non-finite grid before LAPACK sees it
        "phase_grid_nan": (
            lambda d, o: ["phase", "--vary", "gamma", "--grid", "1,2,3,4,5,6,7,nan",
                          "--p", "2", "--reps", "2", "--threads", "1", "--out", str(o)],
            "error: cli: --grid values must be finite, got [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, "
            "nan]"),
        # the slope fit's inputs are checked before the first replication runs
        "phase_segments_zero": (
            lambda d, o: ["phase", "--vary", "K", "--grid", "2,3,4,5,6,7,8,9", "--p", "2",
                          "--reps", "2", "--threads", "1", "--segments", "0", "--out", str(o)],
            "n_segments must be >= 1, got 0"),
        "phase_segments_negative": (
            lambda d, o: ["phase", "--vary", "K", "--grid", "2,3,4,5,6,7,8,9", "--p", "2",
                          "--reps", "2", "--threads", "1", "--segments", "-1", "--out", str(o)],
            "n_segments must be >= 1, got -1"),
        "phase_grid_decreasing": (
            lambda d, o: ["phase", "--vary", "K", "--grid", "12,10,8,6,4,3", "--p", "2",
                          "--reps", "2", "--threads", "1", "--segments", "2", "--out", str(o)],
            "xs must be strictly increasing"),
        "phase_grid_repeated": (
            lambda d, o: ["phase", "--vary", "K", "--grid", "3,3,4,6", "--p", "2",
                          "--reps", "2", "--threads", "1", "--segments", "1", "--out", str(o)],
            "xs must be strictly increasing"),
        "simulate_bandwidth_not_finite": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "inf",
                          "--threads", "1", "--out", str(o)],
            "bandwidth must be finite and positive, got inf"),
        "simulate_lr_only_bandwidth_negative": (  # lr reads no h, but its grid is checked
            lambda d, o: ["simulate", "--estimators", "lr", "--grid=-1,nan,inf", "--p", "2",
                          "--reps", "2", "--threads", "1", "--out", str(o)],
            "bandwidth must be finite and positive, got -1.0"),
        "simulate_noise_sd_negative": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "1", "--noise-sd", "-1", "--out", str(o)],
            "noise_sd must be finite and nonnegative, got -1.0"),
        "simulate_reps_zero": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "0", "--grid", "0.5",
                          "--threads", "1", "--out", str(o)],
            "p, K, n_bar, n0 and reps must be positive"),
        "simulate_k_negative": (
            lambda d, o: ["simulate", "--p", "2", "--K", "-1", "--reps", "2", "--grid", "0.5",
                          "--threads", "1", "--out", str(o)],
            "p, K, n_bar, n0 and reps must be positive"),
        "config_cov_rho_one": (
            lambda d, o: TestCliMisuse._config(d, '{"cov_rho": 1.0}') + ["--out", str(o)],
            "cov_rho must lie in (-1, 1)"),
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
            "got gamma=None, c=1.0, beta=2.0, epsilon=inf"),
        # --bw-c and --epsilon are checked under every rule, not only the one that reads them
        "fit_median_bw_c_nan": (
            lambda d, o: fit_args(d, o, ["--bandwidth", "auto", "--bw-c", "nan"]),
            "got gamma=None, c=nan, beta=2.0, epsilon=0.2"),
        "fit_fixed_epsilon_nan": (
            lambda d, o: fit_args(d, o, ["--bandwidth", "0.3", "--epsilon", "nan"]),
            "got gamma=None, c=1.0, beta=2.0, epsilon=nan"),
        "fit_undersmooth_bw_c_zero": (
            lambda d, o: fit_args(d, o, ["--bandwidth", "undersmooth", "--bw-c", "0"]),
            "got gamma=None, c=0.0, beta=2.0, epsilon=0.2"),
        "bw_c_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--bw-c", "-1"]),
            "got gamma=None, c=-1.0, beta=2.0, epsilon=0.2"),
        "phase_median_bw_c_nan": (
            lambda d, o: ["phase", "--vary", "K", "--grid", "2,3,4,5,6,7,8,9", "--p", "2",
                          "--reps", "2", "--threads", "1", "--bw-c", "nan", "--epsilon", "-3",
                          "--out", str(o)],
            "got gamma=1.0, c=nan, beta=2.0, epsilon=-3.0"),
        "phase_median_epsilon_negative": (
            lambda d, o: ["phase", "--vary", "K", "--grid", "2,3,4,5,6,7,8,9", "--p", "2",
                          "--reps", "2", "--threads", "1", "--epsilon", "-3", "--out", str(o)],
            "got gamma=1.0, c=0.5, beta=2.0, epsilon=-3.0"),
        "phase_undersmoothed_epsilon_not_finite": (
            lambda d, o: ["phase", "--vary", "K", "--grid", "2,3,4,5,6,7,8,9", "--p", "2",
                          "--reps", "2", "--threads", "1", "--bandwidth-rule", "undersmoothed",
                          "--epsilon", "inf", "--out", str(o)],
            "got gamma=1.0, c=0.5, beta=2.0, epsilon=inf"),
        # separated data by construction, and a singular system
        "response_among_covariates": (
            lambda d, o: fit_args(d, o, ["--x-cols", "x1,y"]),
            "error: dataio: column 'y' is both the response and a covariate"),
        "covariate_repeated": (
            lambda d, o: fit_args(d, o, ["--x-cols", "x1,x1"]),
            "error: dataio: covariate column 'x1' is listed twice"),
        "fit_undersmooth_beta_negative": (  # 2 beta + 1 = 0 was a division by zero
            lambda d, o: fit_args(d, o, ["--bandwidth", "undersmooth", "--beta", "-0.5"]),
            "beta=-0.5, epsilon=0.2"),
        "fit_beta_huge": (  # int(1e300) has 301 digits
            lambda d, o: fit_args(d, o, ["--beta", "1e300"]),
            "derivative of order 1e+300 needs 1e+300 distinct domain identifiers"),
        "fit_seed_negative": (
            lambda d, o: fit_args(d, o, ["--seed", "-1"]),
            "seed must be a non-negative integer, got -1"),
        "simulate_seed_negative": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "1", "--seed", "-1", "--out", str(o)],
            "seed must be a non-negative integer, got -1"),
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
        # checked in SimConfig, whether or not the estimators read them
        "simulate_beta_negative_without_tl": (
            lambda d, o: ["simulate", "--p", "2", "--K", "3", "--n-bar", "30", "--n0", "20",
                          "--reps", "2", "--grid", "0.5", "--threads", "1", "--beta", "-1",
                          "--estimators", "lr,dvcm", "--out", str(o)],
            "error: cli: gamma, e0 and beta must be finite and positive, "
            "got gamma=1.0, e0=1.0, beta=-1.0"),
        "simulate_e0_negative_without_tl": (
            lambda d, o: ["simulate", "--p", "2", "--K", "3", "--n-bar", "30", "--n0", "20",
                          "--reps", "2", "--grid", "0.5", "--threads", "1", "--e0", "-1",
                          "--estimators", "lr,dvcm", "--out", str(o)],
            "error: cli: gamma, e0 and beta must be finite and positive, "
            "got gamma=1.0, e0=-1.0, beta=2.0"),
        "simulate_order_negative_lr_only": (
            lambda d, o: ["simulate", "--p", "2", "--K", "3", "--n-bar", "30", "--n0", "20",
                          "--reps", "2", "--grid", "0.5", "--threads", "1", "--order", "-1",
                          "--estimators", "lr", "--out", str(o)],
            "error: cli: polynomial order must be between 0 and 170, got -1"),
        "fit_order_too_large": (
            lambda d, o: fit_args(d, o, ["--order", "171"]),
            "error: cli: polynomial order must be between 0 and 170, got 171"),
        # no covariate and no intercept leave theta(u0) without a coefficient
        "fit_no_coefficient": (
            lambda d, o: fit_args(d, o, ["--x-cols", "", "--no-intercept"]),
            "error: cli: no coefficient to fit: --x-cols names no column"),
        "infer_no_coefficient_checked_before_ingest": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--x-cols", "", "--no-intercept",
                                              "--contrast", "1"])[1:]],
            "error: cli: no coefficient to fit: --x-cols names no column"),
        # an identifier read from the response bins the data by its outcome
        "u_col_is_the_response": (
            lambda d, o: fit_args(d, o, ["--u-col", "y"]),
            "error: dataio: column 'y' is both the response and read by the domain identifier"),
        "u_expr_reads_the_response": (
            lambda d, o: u_expr_args(d, o, "--u-expr", "y*2"),
            "error: dataio: column 'y' is both the response and read by the domain identifier"),
        # delta is checked where it enters, whatever reads it later
        "fit_delta_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--delta", "3"]),
            "error: cli: delta must lie in (0.5, 2), got 3.0"),
        # so are the bandwidth rules' settings (--gamma when set) and the order
        "fit_beta_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--beta", "-1"]),
            "e0=1.0, beta=-1.0"),
        "fit_e0_checked_before_ingest": (  # the derivative's median rule reads e0
            lambda d, o: fit_args(d.with_name("missing.csv"), o,
                                  ["--bandwidth", "0.3", "--e0", "inf"]),
            "e0=inf, beta=2.0"),
        "fit_gamma_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o,
                                  ["--bandwidth", "undersmooth", "--gamma", "-1"]),
            "error: cli: gamma, c and beta must be finite and positive and epsilon finite "
            "and nonnegative, got gamma=-1.0"),
        "fit_bins_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--bins", "1"]),
            "error: cli: need between 2 and 2**52 bins, got 1"),
        "fit_bins_huge": (
            lambda d, o: fit_args(d, o, ["--bins", "9223372036854775807"]),
            "error: cli: need between 2 and 2**52 bins, got 9223372036854775807"),
        # the test inputs are checked finite where they enter, as --grid is
        "infer_null_theta_not_finite": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--null-theta", "nan,0"])[1:]],
            "error: cli: --null-theta entries must be finite, got [nan, 0.0]"),
        "infer_contrast_not_finite": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--contrast", "1,-inf"])[1:]],
            "error: cli: --contrast entries must be finite, got [1.0, -inf]"),
        "infer_zeta_not_finite": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--contrast", "1,0", "--zeta", "inf"])[1:]],
            "error: cli: --zeta must be finite, got inf"),
        # --zeta is the null value of a contrast: without one nothing reads it
        "infer_zeta_without_contrast": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--null-theta", "0,0", "--zeta", "5"])[1:]],
            "error: cli: --zeta is the null value of a contrast: it needs --contrast"),
        # an all-zero contrast has variance v' Sigma v = 0: refused before the fit
        "infer_contrast_all_zero": (
            lambda d, o: ["infer", *fit_args(d.with_name("missing.csv"), o,
                                             ["--contrast", "0,0"])[1:]],
            "error: cli: --contrast needs a nonzero entry, got [0.0, 0.0]"),
        "fit_order_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--order", "171"]),
            "error: cli: polynomial order must be between 0 and 170, got 171"),
        "fit_delta_nan": (
            lambda d, o: fit_args(d, o, ["--delta", "nan"]),
            "error: cli: delta must lie in (0.5, 2), got nan"),
        "simulate_delta_without_tl": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "1", "--delta", "3", "--estimators", "lr,dvcm",
                          "--out", str(o)],
            "error: cli: delta must lie in (0.5, 2), got 3.0"),
        "simulate_delta_oracle": (
            lambda d, o: ["simulate", "--p", "2", "--reps", "2", "--grid", "0.5",
                          "--threads", "1", "--delta", "3", "--q-mode", "oracle",
                          "--out", str(o)],
            "error: cli: delta must lie in (0.5, 2), got 3.0"),
        "phase_delta_half": (
            lambda d, o: ["phase", "--vary", "K", "--grid", "2,3,4,5,6,7,8,9", "--p", "2",
                          "--reps", "2", "--threads", "1", "--delta", "0.5", "--out", str(o)],
            "error: cli: delta must lie in (0.5, 2), got 0.5"),
        # a name list is split at commas, and no part is empty
        "simulate_estimators_empty_part": (
            lambda d, o: ["simulate", "--p", "2", "--K", "3", "--n-bar", "30", "--n0", "20",
                          "--reps", "2", "--grid", "0.5", "--threads", "1",
                          "--estimators", ",lr,,tl,", "--out", str(o)],
            "error: cli: --estimators part '' is not a name, in ',lr,,tl,'"),
        "fit_x_cols_empty_part_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--x-cols", ",x1,"]),
            "error: cli: --x-cols part '' is not a name, in ',x1,'"),
        # each estimator's rows would be written twice
        "simulate_estimators_repeated": (
            lambda d, o: ["simulate", "--p", "2", "--K", "3", "--n-bar", "30", "--n0", "20",
                          "--reps", "2", "--grid", "0.5", "--threads", "1",
                          "--estimators", "lr,lr", "--out", str(o)],
            "error: cli: estimators must be distinct, each one of ('lr', 'dvcm', 'tl')"),
        # a negative or NaN threshold drops every row
        "fit_sigma_k_negative_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--sigma-k", "-1"]),
            "error: cli: --sigma-k must be nonnegative, got -1.0"),
        "fit_sigma_k_nan_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--sigma-k", "nan"]),
            "error: cli: --sigma-k must be nonnegative, got nan"),
        # the identifier comes from exactly one of --u-col and --u-expr
        "fit_no_u_source_checked_before_ingest": (
            lambda d, o: [a for a in fit_args(d.with_name("missing.csv"), o)
                          if a not in ("--u-col", "u")],
            "error: cli: exactly one of u_column / u_expr must be given"),
        "fit_two_u_sources_checked_before_ingest": (
            lambda d, o: fit_args(d.with_name("missing.csv"), o, ["--u-expr", "age"]),
            "error: cli: exactly one of u_column / u_expr must be given"),
        # the expression is checked against the header before any row is parsed,
        # so a bad cell (x1 of file row 4) does not hide its error
        "u_expr_unknown_name_checked_before_bad_cell": (
            lambda d, o: u_expr_args(TestCliMisuse._edited(
                d, lambda ls: ls[:3] + [",".join(
                    "abc" if j == 1 else c for j, c in enumerate(ls[3].split(",")))]
                + ls[4:]), o, "--u-expr", "agee - education - 6"),
            "error: dataio: unknown column 'agee' in expression 'agee - education - 6'"),
        "u_expr_power_checked_before_bad_cell": (
            lambda d, o: u_expr_args(TestCliMisuse._edited(
                d, lambda ls: ls[:3] + [",".join(
                    "abc" if j == 1 else c for j, c in enumerate(ls[3].split(",")))]
                + ls[4:]), o, "--u-expr", "age ** 2"),
            "error: cli: column expression 'age ** 2': 'age ** 2' is not + - * /"),
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


# a value just outside the range of each numeric setting of fit and infer, one per
# end of a two-sided range, with the message that refuses it
OUTSIDE = {
    "u0": [("inf", "--u0 must be a finite number, got inf"),
           ("nan", "--u0 must be a finite number, got nan")],
    "order": [("-1", "polynomial order must be between 0 and 170, got -1"),
              ("171", "polynomial order must be between 0 and 170, got 171")],
    "beta": [("0", "gamma, e0 and beta must be finite and positive, "
                   "got gamma=None, e0=1.0, beta=0.0")],
    "gamma": [("0", "gamma, e0 and beta must be finite and positive, got gamma=0.0")],
    "e0": [("0", "gamma, e0 and beta must be finite and positive, "
                 "got gamma=None, e0=0.0, beta=2.0")],
    "bw_c": [("0", "got gamma=None, c=0.0, beta=2.0, epsilon=0.2")],
    "epsilon": [("-5e-324", "got gamma=None, c=1.0, beta=2.0, epsilon=-5e-324")],
    "delta": [("0.5", "delta must lie in (0.5, 2), got 0.5"),
              ("2", "delta must lie in (0.5, 2), got 2.0")],
    "seed": [("-1", "seed must be a non-negative integer, got -1")],
    "bins": [("1", "need between 2 and 2**52 bins, got 1"),
             (str(2**52 + 1), f"need between 2 and 2**52 bins, got {2**52 + 1}")],
    "sigma_k": [("-5e-324", "--sigma-k must be nonnegative, got -5e-324"),
                ("nan", "--sigma-k must be nonnegative, got nan")],
    "level": [("0", "confidence level must be in (0, 1), got 0.0"),
              ("1", "confidence level must be in (0, 1), got 1.0")],
    "zeta": [("inf", "--zeta must be finite, got inf")],
}
FIT_FIELDS = {f.name: f for f in dataclasses.fields(FitConfig) if f.init}


def _refusal(call):
    """The message of the ValueError that ``call()`` raises or, for an argv list,
    the one ``error: cli:`` line that ``dvcm`` exits 1 with."""
    if isinstance(call, list):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(call) == 1
        return err.getvalue().removeprefix("error: cli: ").removesuffix("\n")
    with pytest.raises(ValueError) as error:
        call()
    return str(error.value)


def _fit_config(**settings):
    return FitConfig(data="missing.csv", x_cols="x1", y_col="y", u0=0.25, **settings)


def _target(n=4):
    return Panel.domain(0.0, np.ones((n, 1)), np.ones(n))


PHASE = ["phase", "--vary", "K", "--p", "2", "--reps", "2", "--threads", "1"]
# one value out of range, given to fit or phase and to the library function that reads it
SAME_REFUSAL = {
    "seed": (lambda: _fit_config(seed=-1), lambda: SimConfig(seed=-1)),
    "level": (lambda: _fit_config(level=1.0),
              lambda: confidence_intervals(np.zeros(1), np.eye(1), 1.0)),
    "level_coverage": (lambda: _fit_config(level=0.0),
                       lambda: InferenceRecords(np.zeros((2, 1)), np.ones((2, 1)), np.zeros(1),
                                                np.ones(2), 0).coverage(0.0)),
    "bins": (lambda: _fit_config(bins=1),
             lambda: bin_domains(RawTable(("u", "x", "y"), np.full((1, 3), 0.5)), 1)),
    "split_negative": (lambda: _fit_config(split="1,-1"),
                       lambda: split_target(_target(), [1.0, -1.0], np.random.default_rng(0))),
    "split_sum": (lambda: _fit_config(split="0.5,0.6"),
                  lambda: split_target(_target(), [0.5, 0.6], np.random.default_rng(0))),
    "h_kernel_window": (lambda: _fit_config(bandwidth="-1"),
                        lambda: kernel_window(Panel.of([_target()]), 0.0, -1.0, 1)),
    "h_mc_sweep": (lambda: _fit_config(bandwidth="-1"),
                   lambda: mc_sweep([SimConfig(p=2, reps=2)], [-1.0], ["lr"])),
    "segments": (PHASE + ["--grid", "2,3,4,5", "--segments", "0"],
                 lambda: fit_loglog_slopes([2.0, 3.0, 4.0, 5.0], np.ones(4), 0)),
    "grid_order": (PHASE + ["--grid", "5,4,3,2", "--segments", "1"],
                   lambda: fit_loglog_slopes([5.0, 4.0, 3.0, 2.0], np.ones(4), 1)),
    "grid_points": (PHASE + ["--grid", "2,3,4", "--segments", "1"],
                    lambda: fit_loglog_slopes([2.0, 3.0, 4.0], np.ones(3), 1)),
    "grid_finite": (PHASE + ["--grid", "2,3,4,inf", "--segments", "1"],
                    lambda: fit_loglog_slopes([2.0, 3.0, 4.0, np.inf], np.ones(4), 1)),
    "sigma_k": (lambda: _fit_config(sigma_k=np.nan),
                lambda: sigma_filter([1.0, 2.0, 3.0], k=np.nan)),
    "u_source": (lambda: _fit_config(),  # neither u_col nor u_expr
                 lambda: load_csv("missing.csv", None, ["x1"], "y")),
}


class TestFitConfig:
    """Every range check of fit and infer runs where the settings are declared."""

    def test_every_numeric_setting_has_a_range(self):
        numeric = {name for name, f in FIT_FIELDS.items()
                   if f.type.removesuffix(" | None") in ("int", "float")}
        assert set(OUTSIDE) == numeric

    @pytest.mark.parametrize("command, name, value, needle", [
        pytest.param(command, name, value, needle, id=f"{command}-{name}={value}")
        for command in ("fit", "infer") for name, cases in OUTSIDE.items()
        for value, needle in cases
        if command == "infer" or not FIT_FIELDS[name].metadata.get("infer")])
    def test_outside_its_range_refused_before_the_csv(self, tmp_path, capsys, command, name,
                                                      value, needle):
        tests = ["--contrast", "1,0"] if command == "infer" else []
        argv = [command, *fit_args(tmp_path / "missing.csv", tmp_path / "out", tests)[1:],
                f"--{name.replace('_', '-')}={value}"]  # argparse reads -5e-324 as a flag
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert needle in err and "no such file" not in err

    @pytest.mark.parametrize("fit_name, sim_name, value", [
        ("delta", "delta", 0.5), ("delta", "delta", 2.0), ("order", "order", -1),
        ("order", "order", 171), ("bw_c", "bw_c", 0.0), ("epsilon", "bw_epsilon", -5e-324),
        ("e0", "e0", 0.0), ("beta", "beta", 0.0)])
    def test_sim_config_refuses_with_the_same_check(self, fit_name, sim_name, value):
        # SimConfig's gamma and bw_c, so that the two messages may be compared whole
        settings = {"data": "missing.csv", "x_cols": "x1", "y_col": "y", "u0": 0.25,
                    "gamma": 1.0, "bw_c": 0.5, fit_name: value}
        with pytest.raises(ValueError) as fit_error:
            FitConfig(**settings)
        with pytest.raises(ValueError) as sim_error:
            SimConfig(**{sim_name: value})
        assert str(fit_error.value) == str(sim_error.value)

    @pytest.mark.parametrize("case", sorted(SAME_REFUSAL))
    def test_cli_and_library_refuse_with_the_same_message(self, case):
        first, second = SAME_REFUSAL[case]
        assert _refusal(first) == _refusal(second)

    def test_empty_x_cols_is_the_intercept_only_model(self):
        config = FitConfig(data="d.csv", u_col="u", x_cols="", y_col="y", u0=0.25)
        assert config.x_columns == []


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
    # scipy's package inits are skipped to reach the one extension loaded at
    # import, _flapack; scipy.special._ufuncs and statistics load on first
    # use; the process pool loads only for a threaded experiment;
    # numpy.random is loaded at import all the same
    code = ("import sys, dvcm, dvcm.cli; print(*(m in sys.modules for m in "
            "('scipy.stats', 'scipy.linalg', 'scipy.special', 'concurrent.futures.process', "
            "'numpy.random', 'scipy', 'scipy.special._ufuncs', 'statistics')), "
            "*(m for m in sys.modules if m.startswith('scipy')))")
    assert _fresh_python(code) == ["False", "False", "False", "False", "True",
                                   "False", "False", "False", "scipy.linalg._flapack"]


@_ON_PROC
def test_only_the_runs_that_use_them_load_scipy_and_statistics(tmp_path):
    """A Gaussian simulate and phase load neither scipy's package init, its
    special functions nor statistics; a logistic fit then loads the special
    functions, still without scipy's package init (nor the test utilities
    and subprocess that it loads), and the process still runs one thread."""
    out = str(tmp_path / "out.csv")
    simulate = ["simulate", "--p", "2", "--K", "3", "--n-bar", "30", "--n0", "20",
                "--reps", "2", "--grid", "0.5", "--threads", "1", "--out", out]
    phase = ["phase", "--vary", "K", "--grid", "2,3,4,6", "--p", "2", "--n-bar", "40",
             "--n0", "20", "--reps", "2", "--segments", "1", "--threads", "1", "--out", out,
             "--slopes-out", str(tmp_path / "slopes.json")]
    fit = fit_args(write_binary_csv(tmp_path / "b.csv"), tmp_path / "report.json",
                   ["--family", "logistic"])
    loaded = "*(m in sys.modules for m in ('scipy', 'scipy.special._ufuncs', 'statistics'))"
    inits = "*(m in sys.modules for m in ('scipy', 'scipy._lib._testutils', 'subprocess'))"
    code = (f"import os, sys, dvcm.cli; m = dvcm.cli.main; "
            f"print(m({simulate!r}), m({phase!r}), {loaded}); "
            f"print(m({fit!r}), 'scipy.special._ufuncs' in sys.modules, {inits}, {_THREADS})")
    assert _fresh_python(code) == ["0", "0", "False", "False", "False",
                                   "0", "True", "False", "False", "False", "1"]


@pytest.mark.parametrize("first", ["dvcm", "scipy.linalg.lapack"])
def test_cholesky_routines_are_scipys(first):
    """The package's dpotrf/dpotrs are the objects scipy.linalg.lapack exports,
    whichever of the two is imported first."""
    code = (f"import {first}, dvcm.estimators as e, scipy.linalg.lapack as la; "
            "print(e.dpotrf is la.dpotrf, e.dpotrs is la.dpotrs)")
    assert _fresh_python(code) == ["True", "True"]


@pytest.mark.parametrize("first", ["dvcm", "scipy.special"])
def test_special_functions_are_scipys(first):
    """The package's expit, erfc, gammaincc and ndtri, all taken from
    ``special_ufuncs()``, are the objects scipy.special exports, whichever
    of the two is imported first; an imported scipy.special stays the one
    in sys.modules, and no module of the package keeps an alias of them."""
    code = (f"import sys, {first}; before = sys.modules.get('scipy.special'); "
            "import dvcm.families as f, dvcm.inference as i; "
            "from dvcm._scipy import special_ufuncs; u = special_ufuncs(); "
            "import scipy.special as s; "
            "print(before in (None, s), u.expit is s.expit, u.erfc is s.erfc, "
            "u.gammaincc is s.gammaincc, u.ndtri is s.ndtri, "
            "not any(hasattr(m, n) for m in (f, i) "
            "for n in ('expit', 'erfc', 'gammaincc', 'ndtri')))")
    assert _fresh_python(code) == ["True"] * 6


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
    import importlib.machinery
    import importlib.util

    from dvcm._scipy import extension

    names = (f"scipy.{subpackage}", f"scipy.{subpackage}.{module}")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(scipy_dir)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
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


def test_missing_scipy_is_a_module_not_found_error(monkeypatch):
    """With scipy neither imported nor installed, the loader names scipy."""
    import importlib.util

    from dvcm._scipy import extension

    for name in ("scipy", "scipy.linalg", "scipy.linalg._flapack"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError) as info:
        extension("linalg", "_flapack")
    assert info.value.name == "scipy"


def _readme_commands():
    """The argv of every ``dvcm ...`` command in the README's fenced blocks."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("dvcm ")]


def test_readme_commands_parse(capsys):
    """Every ``dvcm ...`` command in the README's fenced blocks parses, so a
    flag the parser no longer has cannot stay documented."""
    commands = _readme_commands()
    assert sorted(argv[0] for argv in commands) == ["fit", "infer", "phase", "simulate"]
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"dvcm {' '.join(argv)}: {capsys.readouterr().err}")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_readme_simulate_csv_golden(threads, tmp_path):
    """The README ``simulate`` sweep writes the same bytes at 1 and 2 threads:
    the bytes it has written since it was first documented."""
    [argv] = [argv for argv in _readme_commands() if argv[0] == "simulate"]
    out = tmp_path / "sweep.csv"
    argv[argv.index("--out") + 1] = str(out)
    assert main([*argv, "--threads", threads]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "ebdf45868c3f800d49b7d7cdcfd64e20a7905ec3c629d37542c067bf7f68b023")


def test_readme_library_block_runs(capsys):
    """The README's ``python`` block under ``## Library`` runs as written, so
    the library example cannot drift from the chain the CLI runs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.M | re.S).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md (## Library)", "exec"), namespace)
    assert namespace["sigma"].shape == (4, 4)
    assert np.all(np.isfinite(namespace["theta_tl"]))


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
    --zeta           zeta           float -                             None
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
