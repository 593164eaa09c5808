"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy Monte-Carlo experiments pin their full configuration (seed
included) so reruns are deterministic; shared 200-replication inference
runs are module-scoped fixtures.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from dvcm.bandwidth import select_bandwidth
from dvcm.cli import main
from dvcm.design import Panel, build_local_design, poly_features, uniform_kernel
from dvcm.errors import SingularSystemError
from dvcm.estimators import fit_dvcm, fit_tl, newton_weighted
from dvcm.families import GAUSSIAN, LOGISTIC, POISSON
from dvcm.inference import sigma_tl
from dvcm.dataio import RawTable, bin_domains, minmax_scale
from dvcm.simulation import (
    SimConfig,
    fit_loglog_slopes,
    ks_normality,
    mc_inference,
    mc_sweep,
)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"{tag} criterion {number}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


# ------------------------------------------------------------------
# criterion 1: closed-form oracle equivalence on random small instances
# ------------------------------------------------------------------


def _brute_force_weighted_normal_equations(domains, u0, h, l):
    rows, ys, ws = [], [], []
    for dom in domains:
        t = (dom.u[0] - u0) / h
        w = 0.5 if abs(t) <= 1.0 else 0.0
        phi = np.array([t**j / math.factorial(j) for j in range(l + 1)])
        for i in range(dom.n):
            rows.append(np.kron(phi, dom.x[i]))
            ys.append(dom.y[i])
            ws.append(w)
    z, yv, wv = np.array(rows), np.array(ys), np.array(ws)
    a = np.zeros((z.shape[1], z.shape[1]))
    b = np.zeros(z.shape[1])
    for i in range(len(yv)):
        a += wv[i] * np.outer(z[i], z[i])
        b += wv[i] * yv[i] * z[i]
    return np.linalg.solve(a, b)


def test_criterion_1_closed_form_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst_dvcm = worst_tl = 0.0
    done = 0
    while done < 100:
        p = int(rng.integers(1, 4))
        l = int(rng.integers(0, 3))
        K = int(rng.integers(max(1, l), 5))
        # well-separated identifiers keep the instances identifiable
        us = rng.permutation(np.linspace(-0.9, 0.9, 12))[: K + 1]
        us = us + rng.uniform(-0.02, 0.02, K + 1)
        doms = []
        for u in us:
            n_k = int(rng.integers(max(4, (l + 1) * p), 21))
            doms.append(Panel.domain(u=float(u), x=rng.normal(size=(n_k, p)),
                                     y=rng.normal(size=n_k)))
        try:
            oracle = _brute_force_weighted_normal_equations(doms, 0.0, 1.0, l)
            fit = fit_dvcm(Panel.of(doms), 0.0, 1.0, l, GAUSSIAN)
        except (np.linalg.LinAlgError, SingularSystemError):
            continue
        worst_dvcm = max(worst_dvcm, float(np.max(np.abs(fit.alpha - oracle))))

        target = doms[0]
        q_root = rng.normal(size=(p, p))
        q = q_root @ q_root.T + 0.05 * np.eye(p)
        pilot = rng.normal(size=p)
        closed = fit_tl(target, pilot, q, GAUSSIAN).theta_tl
        newton, converged, _ = newton_weighted(
            target.x, np.full(target.n, 1.0 / target.n), target.y, GAUSSIAN,
            np.zeros(p), penalty=(q, pilot))
        assert converged
        worst_tl = max(worst_tl, float(np.max(np.abs(closed - newton))))
        done += 1
    elapsed = time.time() - t0
    ok = worst_dvcm <= 1e-8 and worst_tl <= 1e-8 and elapsed < 10.0
    report(1, "closed forms match brute-force / Newton oracles on 100 instances",
           ok, f"max dvcm err {worst_dvcm:.2e}, max tl err {worst_tl:.2e}, "
               f"{elapsed:.1f}s")


# ------------------------------------------------------------------
# criterion 2: analytic loss derivatives vs central finite differences
# ------------------------------------------------------------------


def test_criterion_2_gradient_checks():
    rng = np.random.default_rng(202)
    worst = 0.0
    for family in (GAUSSIAN, LOGISTIC, POISSON):
        etas = rng.uniform(-3.5, 3.5, 100)
        ys = rng.integers(0, 4, 100).astype(float)
        if family.kind == "logistic":
            ys = (ys > 1).astype(float)
        eps = 1e-5
        for eta, y in zip(etas, ys):
            s1, s2, s3 = family.loss_derivatives(eta, y)
            fd1 = (family.loss(eta + eps, y) - family.loss(eta - eps, y)) / (2 * eps)
            fd2 = (family.loss_derivatives(eta + eps, y)[0]
                   - family.loss_derivatives(eta - eps, y)[0]) / (2 * eps)
            fd3 = (family.loss_derivatives(eta + eps, y)[1]
                   - family.loss_derivatives(eta - eps, y)[1]) / (2 * eps)
            for analytic, numeric in ((s1, fd1), (s2, fd2), (s3, fd3)):
                worst = max(worst, abs(analytic - numeric) / max(1.0, abs(analytic)))
    ok = worst <= 1e-5
    report(2, "loss derivatives match finite differences for all families",
           ok, f"worst relative error {worst:.2e}")


# ------------------------------------------------------------------
# criterion 3: adaptivity / no negative transfer across a bandwidth grid
# ------------------------------------------------------------------


def test_criterion_3_no_negative_transfer():
    t0 = time.time()
    grids = {
        0.5: [round(0.5 * g, 4) for g in np.geomspace(0.25, 1.2, 8)],
        1.5: [round(g, 4) for g in np.geomspace(0.28, 0.48, 8)],
    }
    failures = []
    for gamma, grid in grids.items():
        cfg = SimConfig(family="gaussian", p=4, K=5, n_bar=120, n0=50,
                        gamma=gamma, reps=100, seed=0,
                        theta_spec="paper_default")
        cells = mc_sweep([cfg], grid, ["lr", "dvcm", "tl"])  # h outer, then estimator
        lr = cells[0]  # lr reads no bandwidth: the first h's cell is every h's
        for h, dvcm, tl in zip(grid, cells[1::3], cells[2::3]):
            best, best_se = ((lr.mse, lr.se) if lr.mse < dvcm.mse
                             else (dvcm.mse, dvcm.se))
            bound = 1.15 * best + 2.0 * (tl.se + best_se)
            if tl.mse > bound:
                failures.append((gamma, h, tl.mse, bound))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300.0
    report(3, "transfer estimator tracks the better baseline at every grid point",
           ok, f"{len(failures)} violations, {elapsed:.0f}s" +
               ("" if not failures else f"; first: {failures[0]}"))


# ------------------------------------------------------------------
# criterion 4: phase-transition slopes over a K sweep
# ------------------------------------------------------------------


def test_criterion_4_phase_transition_slopes():
    t0 = time.time()
    base = SimConfig(family="gaussian", p=2, K=2, n_bar=1500, n0=30, gamma=0.1,
                     reps=100, seed=0, theta_spec="paper_default",
                     q_mode="estimate", bandwidth_rule="median", e0=0.1)
    grid = [2, 3, 4, 6, 8, 11, 16, 32, 45, 64, 91, 128, 181]
    configs = [dataclasses.replace(base, K=K) for K in grid]
    results = mc_sweep(configs, [None], ["tl"], threads=2)
    segments = fit_loglog_slopes([float(K) for K in grid], [r.mse for r in results], 3)
    middle, final = segments[1][1], segments[2][1]
    elapsed = time.time() - t0
    ok = -5.0 <= middle <= -3.0 and -1.1 <= final <= -0.5 and elapsed < 900.0
    report(4, "log-log MSE over K shows the predicted slope phases",
           ok, f"middle {middle:+.2f} in [-5,-3], final {final:+.2f} in "
               f"[-1.1,-0.5], {elapsed:.0f}s")


# ------------------------------------------------------------------
# criteria 5-7: asymptotic normality, CI coverage, Wald size
# ------------------------------------------------------------------


@pytest.fixture(scope="module")
def regime_near():
    # target-only-dominant regime (sources dispersed)
    cfg = SimConfig(family="gaussian", p=4, K=5, n_bar=100, n0=50, gamma=5.0,
                    reps=200, seed=0, theta_spec="paper_default",
                    bandwidth_rule="undersmoothed", bw_c=0.5, bw_epsilon=0.2)
    return mc_inference(cfg)


@pytest.fixture(scope="module")
def regime_pooled():
    # pooling-dominant regime (many tight sources)
    cfg = SimConfig(family="gaussian", p=4, K=30, n_bar=100, n0=50, gamma=0.1,
                    reps=200, seed=0, theta_spec="paper_default",
                    bandwidth_rule="undersmoothed", bw_c=0.5, bw_epsilon=0.2)
    return mc_inference(cfg)


def test_criterion_5_asymptotic_normality(regime_near, regime_pooled):
    t0 = time.time()
    details = []
    ok = True
    for name, rec in (("dispersed", regime_near), ("pooled", regime_pooled)):
        z = rec.standardized
        pvals = [ks_normality(z[:, j])[1] for j in range(z.shape[1])]
        n_normal = sum(p > 0.01 for p in pvals)
        details.append(f"{name}: {n_normal}/4 coords, KS p {np.round(pvals, 3)}")
        ok = ok and n_normal >= 3
    report(5, "standardized estimates pass KS normality in both regimes",
           ok and time.time() - t0 < 600.0, "; ".join(details))


def test_criterion_6_ci_coverage(regime_near):
    coverage = regime_near.coverage(0.95)
    ok = bool(np.all((coverage >= 0.89) & (coverage <= 0.99)))
    report(6, "95% CI empirical coverage in [0.89, 0.99] per coordinate",
           ok, f"coverage {np.round(coverage, 3)}")


def test_criterion_7_wald_size(regime_pooled):
    rejection = float(np.mean(regime_pooled.wald_p < 0.05))
    ok = 0.02 <= rejection <= 0.10
    report(7, "Wald test size at level 0.05 within [0.02, 0.10]",
           ok, f"rejection rate {rejection:.3f}")


# ------------------------------------------------------------------
# criterion 8: byte-identical determinism of cmd_simulate
# ------------------------------------------------------------------


def test_criterion_8_simulate_determinism(tmp_path):
    args = ["simulate", "--p", "2", "--K", "4", "--n-bar", "40", "--n0", "20",
            "--gamma", "1.0", "--reps", "5", "--seed", "99",
            "--grid", "0.3,0.6,0.9", "--threads", "2"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    rc1 = main(args + ["--out", str(out1)])
    rc2 = main(args + ["--out", str(out2)])
    ok = rc1 == 0 and rc2 == 0 and out1.read_bytes() == out2.read_bytes()
    report(8, "identical config and seed give byte-identical simulate output", ok)


# ------------------------------------------------------------------
# criterion 9: pipeline invariants suite
# ------------------------------------------------------------------


def test_criterion_9_pipeline_invariants():
    rng = np.random.default_rng(909)
    checks = {}

    # kernel support with boundary
    ts = np.linspace(-2, 2, 401)
    checks["kernel_support"] = bool(
        np.all(uniform_kernel(ts) == np.where(np.abs(ts) <= 1, 0.5, 0.0)))

    # Kronecker block structure of the stacked design
    doms = [Panel.domain(u=u, x=rng.normal(size=(5, 2)), y=rng.normal(size=5))
            for u in (-0.4, 0.0, 0.7)]
    design = build_local_design(Panel.of(doms), 0.0, 1.0, 2)
    block_ok = True
    row_domain = np.repeat(design.window.index, design.window.n)
    for i in range(design.z.shape[0]):
        row = design.z[i].reshape(3, 2)
        t = (doms[row_domain[i]].u[0]) / 1.0
        phi = poly_features(t, 2)
        for j in range(3):
            block_ok &= bool(np.allclose(row[j], phi[j] * row[0]))
    checks["kronecker_blocks"] = block_ok

    # median-rule bounds
    sources = Panel.of(Panel.domain(u=u, x=np.ones((8, 1)), y=np.zeros(8))
                       for u in (0.2, -0.5, 0.8))
    in_bounds = True
    for e0 in (0.05, 0.3, 1.0, 3.0):
        ch = select_bandwidth("median", sources, 0.0, 2.0, 1.0, e0=e0)
        cands = [ch.rate_term, ch.d1, ch.dK]
        in_bounds &= min(cands) <= ch.h <= max(cands)
        in_bounds &= ch.h == float(np.median(cands))
    checks["median_rule_bounds"] = in_bounds

    # unified covariance definitional identity
    p = 3
    make_psd = lambda: (lambda m: m @ m.T + 0.3 * np.eye(p))(rng.normal(size=(p, p)))
    psi, q, v_lr, v_dvcm = make_psd(), make_psd(), make_psd(), make_psd()
    rep = sigma_tl(psi, q, v_lr, v_dvcm)
    b_inv = np.linalg.inv(psi + q)
    want = b_inv @ q @ v_dvcm @ q @ b_inv + b_inv @ psi @ v_lr @ psi @ b_inv
    checks["sigma_tl_identity"] = bool(np.max(np.abs(rep.sigma_tl - want)) < 1e-10)

    # binning partitions exactly
    us = rng.uniform(0, 1, 500)
    table = RawTable(headers=("u", "x", "y"),
                     rows=np.column_stack([us, np.ones(500), np.zeros(500)]))
    panel = bin_domains(table, 10)
    checks["binning_partition"] = sum(d.n for d in panel) == 500

    # min-max scaling idempotence
    v = rng.normal(size=100)
    once = minmax_scale(v)
    checks["scaling_idempotent"] = bool(np.allclose(minmax_scale(once), once))

    bad = [k for k, v in checks.items() if not v]
    report(9, "module invariants hold (kernel, blocks, bandwidth, covariance, "
              "binning, scaling)", not bad, f"failed: {bad}" if bad else "all 6")
