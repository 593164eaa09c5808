import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from dvcm.errors import ExperimentError
from dvcm.estimators import fit_dvcm
from dvcm.families import GAUSSIAN
from dvcm.simulation import (
    SimConfig,
    fit_loglog_slopes,
    generate_dataset,
    ks_normality,
    mc_inference,
    mc_mse,
    mc_sweep,
    rng_stream,
)


class TestTrueCoefficient:
    def test_paper_default_at_02(self):
        theta = SimConfig(p=4, theta_spec="paper_default").theta(0.2)
        assert theta[0] == pytest.approx(0.2**3, rel=1e-12)          # tanh term 0
        assert theta[1] == pytest.approx(math.exp(3.5) / 100 - 0.5 + 0.2**3,
                                         rel=1e-12)
        assert theta[2] == pytest.approx(-0.5 * math.exp(0.4), rel=1e-12)
        assert theta[3] == pytest.approx(0.25 * math.exp(0.4), rel=1e-12)

    def test_tanh_pair(self):
        theta = SimConfig(p=2, theta_spec="tanh_pair").theta(0.5)
        assert theta[0] == theta[1] == pytest.approx(math.tanh(8 * 0.3), rel=1e-12)

    def test_smooth_kink_term(self):
        # g(u) = u^3 sign(u) enters coordinates 0 and 1 symmetrically
        th = SimConfig(p=2, theta_spec="paper_default").theta
        assert th(-0.3)[0] - (-math.tanh(16 * (-0.5))) == pytest.approx(0.027,
                                                                        rel=1e-12)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="nope"):
            SimConfig(theta_spec="nope").theta

    @pytest.mark.parametrize("field,value", [
        ("gamma", float("inf")), ("gamma", float("nan")), ("gamma", -0.5),
        ("noise_sd", -1.0), ("noise_sd", float("inf")), ("noise_sd", float("nan")),
    ])
    def test_scale_not_finite_and_nonnegative_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
            SimConfig(**{field: value})

    def test_family_is_stored_as_its_kind(self):
        assert SimConfig(family="Gaussian").family == "gaussian"
        # the oracle's noise variance reads the stored family: nu = noise_sd^2, not 1
        upper, lower = (mc_mse(tiny_config(family=f, q_mode="oracle", reps=20), "tl", 0.5)
                        for f in ("Gaussian", "gaussian"))
        assert upper == lower

    def test_unknown_family_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown family 'gamma'"):
            SimConfig(family="gamma")

    @pytest.mark.parametrize("field,value", [
        ("bandwidth_rule", "fixed"),  # an experiment's replications have no h to fix
        ("q_mode", "oracles"),
    ])
    def test_choice_outside_its_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be one of .*, got '{value}'"):
            SimConfig(**{field: value})

    def test_curve_overflowing_on_the_source_range_rejected(self):
        # exp(5u + 2.5) / 100 overflows for u above about 141.5
        assert np.isfinite(SimConfig(p=2, gamma=282.0).theta(141.0)).all()
        with pytest.raises(ValueError, match=r"overflows on the source range"):
            SimConfig(p=2, gamma=284.0)
        SimConfig(p=1, gamma=284.0, u0=0.0)  # tanh and |u|^3 stay finite there


class TestGenerateDataset:
    def test_shapes_and_streams(self):
        cfg = SimConfig(p=3, K=4, n_bar=25, n0=10, gamma=1.0, reps=2, seed=1)
        target, sources = generate_dataset(cfg, 0)
        assert target.n == 20 and target.p == 3
        assert len(sources) == 4 and all(s.n == 25 for s in sources)
        assert np.all(target.x[:, 0] == 1.0)

    def test_determinism(self):
        cfg = SimConfig(p=2, K=3, n_bar=10, n0=5, gamma=0.8, reps=2, seed=7)
        t1, s1 = generate_dataset(cfg, 3)
        t2, s2 = generate_dataset(cfg, 3)
        assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.y, t2.y)
        for a, b in zip(s1, s2):
            assert a.u == b.u and np.array_equal(a.y, b.y)

    def test_replications_differ(self):
        cfg = SimConfig(p=2, K=3, n_bar=10, n0=5, gamma=0.8, reps=2, seed=7)
        t1, _ = generate_dataset(cfg, 0)
        t2, _ = generate_dataset(cfg, 1)
        assert not np.array_equal(t1.y, t2.y)

    def test_gamma_zero_degenerate(self):
        cfg = SimConfig(p=2, K=5, n_bar=8, n0=5, gamma=0.0, reps=2, seed=0)
        _, sources = generate_dataset(cfg, 0)
        assert all(s.u == 0.0 for s in sources)

    def test_noiseless_recovery(self):
        cfg = SimConfig(p=3, K=4, n_bar=40, n0=30, gamma=0.4, noise_sd=0.0,
                        reps=2, seed=3)
        target, sources = generate_dataset(cfg, 0)
        theta0 = cfg.theta(0.0)
        assert np.allclose(target.y, target.x @ theta0)
        fit = fit_dvcm([target, *sources], 0.0, 0.05, 1, GAUSSIAN)
        assert np.max(np.abs(fit.theta - theta0)) < 1e-6

    def test_logistic_and_poisson_responses(self):
        for fam, check in [("logistic", lambda y: set(np.unique(y)) <= {0.0, 1.0}),
                           ("poisson", lambda y: np.all(y >= 0))]:
            cfg = SimConfig(family=fam, p=2, K=3, n_bar=15, n0=8, gamma=0.5,
                            reps=2, seed=5)
            target, sources = generate_dataset(cfg, 0)
            assert check(target.y)
            assert check(sources[0].y)


def _per_source_dataset(config, rep):
    """The per-source construction: each source draws its own x and y in turn."""
    from scipy.special import expit

    def draw_x(rng, n):
        x = np.ones((n, config.p))
        if config.p > 1:
            idx = np.arange(config.p - 1)
            cov = config.cov_rho ** np.abs(idx[:, None] - idx[None, :])
            x[:, 1:] = rng.standard_normal((n, config.p - 1)) @ np.linalg.cholesky(cov).T
        return x

    def draw_y(rng, eta):
        if config.family == "gaussian":
            return eta + config.noise_sd * rng.standard_normal(eta.shape[0])
        if config.family == "logistic":
            return rng.binomial(1, expit(eta)).astype(float)
        return rng.poisson(np.exp(eta)).astype(float)

    us = rng_stream(config.seed, rep, "source_u").uniform(
        -config.gamma / 2.0, config.gamma / 2.0, config.K)
    sx, sy = rng_stream(config.seed, rep, "source_x"), rng_stream(config.seed, rep, "source_y")
    sources = []
    for u in us:
        x = draw_x(sx, config.n_bar)
        sources.append((float(u), x, draw_y(sy, x @ config.theta(float(u)))))
    x0 = draw_x(rng_stream(config.seed, rep, "target_x"), 2 * config.n0)
    y0 = draw_y(rng_stream(config.seed, rep, "target_y"), x0 @ config.theta(config.u0))
    return (config.u0, x0, y0), sources


@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("K,n_bar", [(1, 1), (1, 7), (2, 1), (5, 1), (5, 40), (181, 3),
                                     (50, 120), (5, 1500)])
def test_dataset_is_bit_identical_to_per_source_draws(family, p, K, n_bar):
    cfg = SimConfig(family=family, p=p, K=K, n_bar=n_bar, n0=6, gamma=0.8, reps=1,
                    seed=11, theta_spec="paper_default" if family == "gaussian"
                    else "tanh_pair")
    target, sources = generate_dataset(cfg, 2)
    (u0, x0, y0), want = _per_source_dataset(cfg, 2)
    assert target.u == u0 and target.x.tobytes() == x0.tobytes()
    assert target.y.tobytes() == y0.tobytes()
    assert len(sources) == len(want)
    for got, (u, x, y) in zip(sources, want):
        assert got.u == u and got.x.tobytes() == x.tobytes() and got.y.tobytes() == y.tobytes()


class TestRngStreams:
    def test_role_independence(self):
        a = rng_stream(0, 0, "source_u").uniform(size=4)
        b = rng_stream(0, 0, "source_x").uniform(size=4)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        a = rng_stream(42, 7, "target_y").normal(size=5)
        b = rng_stream(42, 7, "target_y").normal(size=5)
        assert np.array_equal(a, b)


def tiny_config(**kw):
    base = dict(family="gaussian", p=2, K=3, n_bar=40, n0=24, gamma=1.0,
                reps=40, seed=11, theta_spec="paper_default")
    base.update(kw)
    return SimConfig(**base)


class TestMcMse:
    def test_noiseless_lr_mse_vanishes(self):
        cfg = tiny_config(noise_sd=0.0, reps=5)
        res = mc_mse(cfg, "lr", 0.5)
        assert res.mse < 1e-12
        assert res.fails == 0

    def test_q_overrides_match_limits(self):
        cfg = tiny_config(reps=20)
        lr = mc_mse(cfg, "lr", 0.6)
        dvcm = mc_mse(cfg, "dvcm", 0.6)
        tl_zero = mc_mse(tiny_config(reps=20, q_mode="zero"), "tl", 0.6)
        tl_inf = mc_mse(tiny_config(reps=20, q_mode="infinity"), "tl", 0.6)
        assert tl_zero.mse == pytest.approx(lr.mse, rel=1e-9)
        assert tl_inf.mse == pytest.approx(dvcm.mse, rel=1e-6)

    def test_determinism_bitwise(self):
        cfg = tiny_config(reps=15)
        r1 = mc_mse(cfg, "tl", 0.5)
        r2 = mc_mse(cfg, "tl", 0.5)
        assert (r1.mse, r1.se, r1.fails) == (r2.mse, r2.se, r2.fails)

    def test_se_shrinks_with_reps(self):
        ses = {}
        for reps in (50, 200, 800):
            ses[reps] = mc_mse(tiny_config(reps=reps), "lr", 0.5).se
        assert ses[800] < ses[200] < ses[50]
        # expected ratio 4, allow 3x sampling slack
        assert 4.0 / 3.0 < ses[50] / ses[800] < 12.0

    def test_estimator_validation(self):
        with pytest.raises(ValueError):
            mc_mse(tiny_config(), "ridge", 0.5)
        with pytest.raises(ValueError):
            mc_mse(tiny_config(reps=1), "lr", 0.5)

    def test_parallel_matches_serial(self):
        cfg = tiny_config(reps=12)
        serial = mc_mse(cfg, "tl", 0.5, threads=1)
        parallel = mc_mse(cfg, "tl", 0.5, threads=2)
        assert serial == parallel
        grid, ests = [0.2, 0.5, 1.0], ["lr", "dvcm", "tl"]
        cfg = tiny_config()  # 40 reps keep h=0.2 inside the failure tolerance
        assert (mc_sweep(cfg, grid, ests, threads=2)
                == mc_sweep(cfg, grid, ests, threads=1))


SWEEP_GRID = (0.2, 0.5, 1.0)
SWEEP_ESTIMATORS = ("lr", "dvcm", "tl")


class TestMcSweep:
    # sha256 of `dvcm simulate` on tiny_config() over SWEEP_GRID, recorded
    # with the per-cell runner that preceded mc_sweep; h=0.2 loses 8 of 40
    # replications (dvcm and tl for Gaussian, tl alone for logistic)
    GOLDEN = {
        "gaussian": "6965dcee164696bb1b7334eb6c9fbc7e0089ae79237c589538f9bd6aee8db7f5",
        "logistic": "d99b33849ea69235c974ab2aacf8c87988d626a18715e71a4eb2ce428b1888f6",
    }

    @pytest.mark.parametrize("family", sorted(GOLDEN))
    def test_simulate_csv_golden(self, family, tmp_path):
        from dvcm.cli import main

        out = tmp_path / "sweep.csv"
        rc = main(["simulate", "--family", family, "--p", "2", "--K", "3",
                   "--n-bar", "40", "--n0", "24", "--gamma", "1.0", "--reps", "40",
                   "--seed", "11", "--grid", ",".join(map(str, SWEEP_GRID)),
                   "--estimators", ",".join(SWEEP_ESTIMATORS), "--threads", "1",
                   "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN[family]

    @pytest.mark.parametrize("family,q_mode", [
        ("gaussian", "estimate"), ("gaussian", "oracle"), ("gaussian", "zero"),
        ("gaussian", "infinity"), ("logistic", "estimate"),
    ])
    def test_every_cell_equals_the_cell_run_alone(self, family, q_mode):
        cfg = tiny_config(family=family, q_mode=q_mode)
        sweep = mc_sweep(cfg, SWEEP_GRID, SWEEP_ESTIMATORS)
        alone = [mc_mse(cfg, est, h) for h in SWEEP_GRID for est in SWEEP_ESTIMATORS]
        assert sweep == alone
        assert sum(r.fails for r in sweep) > 0  # the failure coupling is exercised

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc_sweep(tiny_config(), [], ["lr"])
        with pytest.raises(ValueError):
            mc_sweep(tiny_config(), [0.5], [])
        with pytest.raises(ValueError):
            mc_sweep(tiny_config(), [0.5], ["lr", "ridge"])


def test_replication_fits_h_independent_pieces_once(count_calls):
    from dvcm import estimators, penalty
    from dvcm.simulation import _replicate

    derivative = count_calls(penalty.estimate_derivative)
    target_only = count_calls(estimators.fit_target_only)
    pooled = count_calls(estimators.fit_dvcm)
    cfg = SimConfig(p=4, K=5, n_bar=120, n0=50, gamma=1.0)
    cells = _replicate(cfg, (0.3, 0.45, 0.6, 0.8, 1.0), ("lr", "dvcm", "tl"), 1)
    assert len(cells) == 15 and all(cell is not None for cell in cells)
    # lr and the pilot-half fit; 5 pilots and the one derivative fit
    assert (derivative[0], target_only[0], pooled[0]) == (1, 2, 6)


def test_logistic_replication_fits_each_target_half_once(count_calls):
    from dvcm import estimators
    from dvcm.simulation import _replicate

    target_only = count_calls(estimators.fit_target_only)
    cfg = SimConfig(family="logistic", p=4, K=5, n_bar=120, n0=50, gamma=1.0)
    cells = _replicate(cfg, (0.3, 0.45, 0.6, 0.8, 1.0), ("lr", "dvcm", "tl"), 1)
    assert all(cell is not None for cell in cells)
    # theta_lr and theta_glr; the 5 pilots and the derivative fit start from
    # the cached theta_glr instead of refitting it
    assert target_only[0] == 2


def test_replication_locates_one_window_per_bandwidth(count_calls):
    from dvcm import design, penalty
    from dvcm.simulation import _replicate

    windows = count_calls(design.kernel_window)
    scales = count_calls(penalty.estimate_scale)
    cfg = SimConfig(p=4, K=5, n_bar=120, n0=50, gamma=1.0)
    cells = _replicate(cfg, (0.3, 0.45, 0.6, 0.8, 1.0), ("lr", "dvcm", "tl"), 1)
    assert all(cell is not None for cell in cells)
    # each pilot's window serves its penalty; one more for the derivative fit
    assert (windows[0], scales[0]) == (6, 1)


def test_replication_views_no_source_and_locates_one_window_per_h(count_calls,
                                                                  monkeypatch):
    from dvcm import design, simulation
    from dvcm.design import DomainSample
    from dvcm.simulation import _replicate

    views, make_view = [], DomainSample._view

    def counted(u, x, y):
        views.append(x)
        return make_view(u, x, y)

    monkeypatch.setattr(DomainSample, "_view", counted)
    datasets, generate = [], simulation.generate_dataset
    monkeypatch.setattr(simulation, "generate_dataset",
                        lambda *args: datasets.append(generate(*args)) or datasets[-1])
    windows = count_calls(design.kernel_window)
    grid = (0.2, 0.3, 0.45, 0.7, 1.0)
    cells = _replicate(SimConfig(p=4, K=5, n_bar=120, n0=50, gamma=1.0), grid,
                       ("lr", "dvcm", "tl"), 1)
    assert all(cell is not None for cell in cells)
    # the two target halves are the only views: the sources panel is stacked,
    # and the bandwidth rules read it, from its arrays
    (target, _), = datasets
    assert len(views) == 2 and all(np.shares_memory(x, target.x) for x in views)
    # one window per fitted h, located by its pilot and reused by its penalty,
    # and one for the derivative fit
    assert windows[0] == len(grid) + 1


def test_dataset_validates_no_source_on_its_own(monkeypatch):
    from dvcm.design import DomainSample

    made = [0]
    post_init = DomainSample.__post_init__

    def counted(self):
        made[0] += 1
        post_init(self)

    monkeypatch.setattr(DomainSample, "__post_init__", counted)
    target, sources = generate_dataset(SimConfig(p=3, K=7, n_bar=20, n0=10), 0)
    assert len(sources) == 7 and made[0] == 1  # the target alone


def test_replication_keeps_a_failed_derivative(count_calls):
    from dvcm import penalty
    from dvcm.simulation import _replicate

    derivative = count_calls(penalty.estimate_derivative)
    # one source and the target give 2 distinct identifiers, too few for the
    # order-2 derivative fit: it fails once and is replayed at every later h
    cfg = SimConfig(p=2, K=1, n_bar=60, n0=30)
    cells = _replicate(cfg, (0.3, 0.45, 0.6, 0.8, 1.0), ("lr", "dvcm", "tl"), 0)
    assert len(cells) == 15 and cells[2::3] == [None] * 5
    assert derivative[0] == 1


class TestMcInference:
    def test_records_shape_and_coverage(self):
        cfg = tiny_config(reps=30, bandwidth_rule="undersmoothed", bw_c=0.8,
                          gamma=1.0)
        rec = mc_inference(cfg)
        m = rec.theta_tl.shape[0]
        assert m + rec.fails == 30
        assert rec.se.shape == (m, 2)
        assert np.all(np.isfinite(rec.standardized))
        cov = rec.coverage(0.95)
        assert cov.shape == (2,)
        assert np.all(cov > 0.5)

    def test_noiseless_degenerate_guarded(self):
        cfg = tiny_config(noise_sd=0.0, reps=10, bandwidth_rule="undersmoothed")
        with pytest.raises(ExperimentError):
            mc_inference(cfg).standardized

    def test_oracle_q_mode_is_used(self):
        cfg = SimConfig(p=2, K=6, n_bar=60, n0=30, gamma=0.5, reps=20, seed=3,
                        bandwidth_rule="undersmoothed")
        oracle_cfg = dataclasses.replace(cfg, q_mode="oracle")
        estimate, oracle = mc_inference(cfg), mc_inference(oracle_cfg)
        assert oracle.fails == 0
        assert not np.array_equal(oracle.theta_tl, estimate.theta_tl)
        sq_err = np.sum((oracle.theta_tl - oracle.theta_true) ** 2, axis=1)
        assert np.mean(sq_err) == pytest.approx(mc_mse(oracle_cfg, "tl").mse, rel=1e-12)


class TestLogLogSlopes:
    def test_exact_single_slope(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        ys = 3.0 * xs**-0.8
        (start, slope), = fit_loglog_slopes(xs, ys, 1)
        assert slope == pytest.approx(-0.8, abs=1e-10)
        assert start == 1.0

    def test_two_exact_segments_with_knee(self):
        xs = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], dtype=float)
        knee = 16.0
        ys = np.where(xs <= knee, 5.0, 5.0 * (xs / knee) ** -4.0)
        segs = fit_loglog_slopes(xs, ys, 2)
        assert len(segs) == 2
        (s1_start, s1), (s2_start, s2) = segs
        assert s1 == pytest.approx(0.0, abs=1e-8)
        assert s2 == pytest.approx(-4.0, abs=1e-8)
        assert s2_start == pytest.approx(knee)

    @pytest.mark.parametrize("n, segments", [(6, 2), (8, 2), (9, 3), (10, 3), (11, 4),
                                             (12, 2)])
    def test_knots_match_a_brute_force_search(self, n, segments):
        rng = np.random.default_rng(n * 10 + segments)
        xs = np.cumsum(rng.uniform(0.5, 1.5, n))
        ys = np.exp(rng.normal(size=n))
        lx, ly = np.log(xs), np.log(ys)

        def sse(knots):
            a = np.column_stack([np.ones(n), lx, *(np.maximum(lx - lx[i], 0.0) for i in knots)])
            resid = ly - a @ np.linalg.lstsq(a, ly, rcond=None)[0]
            return resid @ resid

        # every split of the n - 1 grid intervals into segments of >= 2 intervals
        lengths = [c for c in itertools.product(range(2, n), repeat=segments)
                   if sum(c) == n - 1]
        best = min((tuple(np.cumsum(c)[:-1]) for c in lengths), key=sse)
        starts = [start for start, _ in fit_loglog_slopes(xs, ys, segments)]
        assert starts == [xs[0], *xs[list(best)]]

    def test_constant_ys(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        segs = fit_loglog_slopes(xs, np.full(6, 2.5), 1)
        assert segs[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slopes([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], 1)
        with pytest.raises(ValueError):
            fit_loglog_slopes([1, 2, 3, 4, 5, 6, 7], np.ones(7), 3)

    def test_nonmonotone_xs_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog_slopes([1.0, 3.0, 2.0, 4.0, 5.0, 6.0], np.ones(6), 1)


class TestKsNormality:
    def test_perfect_quantile_match(self):
        from scipy.special import ndtri

        n = 200
        samples = ndtri((np.arange(1, n + 1) - 0.5) / n)
        d, p = ks_normality(samples)
        assert d <= 0.5 / n + 1e-12
        assert p > 0.999

    def test_point_mass_at_zero(self):
        d, p = ks_normality(np.zeros(16))
        assert d == pytest.approx(0.5)
        assert p < 0.05

    def test_large_shift(self):
        d, p = ks_normality(np.random.default_rng(0).normal(10.0, 1.0, 50))
        assert d > 0.999
        assert p < 1e-10

    def test_sample_size_guard(self):
        with pytest.raises(ValueError):
            ks_normality(np.zeros(7))

    def test_matches_scipy_on_normal_data(self):
        from scipy.stats import kstest

        rng = np.random.default_rng(4)
        x = rng.normal(size=300)
        d, p = ks_normality(x)
        ref = kstest(x, "norm", mode="asymp")
        assert d == pytest.approx(ref.statistic, rel=1e-9)
        assert p == pytest.approx(ref.pvalue, rel=1e-6, abs=1e-12)
