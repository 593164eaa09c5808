"""End-to-end checks of the logistic and Poisson paths.

The acceptance experiments are Gaussian; these tests exercise the GLM
branches of every stage (pooled Newton fit, Pearson scale, penalty,
fine-tuning, covariance) on small simulated panels.
"""

import json

import numpy as np
import pytest

from dvcm.cli import main
from dvcm.simulation import SimConfig, mc_inference, mc_sweep


@pytest.mark.parametrize("family", ["logistic", "poisson"])
def test_transfer_pipeline_runs_and_adapts(family):
    # tight domains: pooling should not hurt, and usually helps
    cfg = SimConfig(family=family, p=2, K=8, n_bar=150, n0=60, gamma=0.3,
                    reps=30, seed=4, theta_spec="tanh_pair")
    lr, tl = mc_sweep([cfg], [0.2], ["lr", "tl"])
    assert tl.fails <= 3
    assert np.isfinite(tl.mse)
    assert tl.mse <= 1.3 * lr.mse + 2 * (tl.se + lr.se)


@pytest.mark.parametrize("family", ["logistic", "poisson"])
def test_glm_inference_records(family):
    cfg = SimConfig(family=family, p=2, K=10, n_bar=120, n0=60, gamma=0.3,
                    reps=25, seed=6, theta_spec="tanh_pair",
                    bandwidth_rule="undersmoothed", bw_c=0.8)
    rec = mc_inference(cfg)
    assert rec.theta_tl.shape[1] == 2
    assert np.all(rec.se > 0)
    assert np.all(np.isfinite(rec.standardized))
    # standardized estimates should be roughly centered
    assert np.max(np.abs(rec.standardized.mean(axis=0))) < 1.0


def test_logistic_cli_fit(tmp_path):
    rng = np.random.default_rng(12)
    n = 1200
    u = rng.uniform(0, 1, n)
    x1 = rng.normal(size=n)
    eta = 0.4 + 0.8 * np.tanh(2 * (u - 0.4)) + 0.6 * x1
    y = rng.binomial(1, 1 / (1 + np.exp(-eta))).astype(float)
    lines = ["u,x1,y"] + [
        f"{float(u[i])!r},{float(x1[i])!r},{float(y[i])!r}" for i in range(n)
    ]
    data = tmp_path / "logit.csv"
    data.write_text("\n".join(lines) + "\n")

    out = tmp_path / "report.json"
    rc = main([
        "fit", "--data", str(data), "--u-col", "u", "--x-cols", "x1",
        "--y-col", "y", "--u0", "0.45", "--family", "logistic",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["family"] == "logistic"
    assert len(report["theta_tl"]) == 2
    assert np.all(np.isfinite(report["theta_tl"]))
    se = np.sqrt(np.diag(report["covariance"]["sigma_tl"]))
    assert np.all(se > 0)
