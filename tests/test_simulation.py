import dataclasses
import hashlib
import itertools
import math
import os

import numpy as np
import pytest

from dvcm.design import Panel
from dvcm.errors import DomainError, ExperimentError
from dvcm.estimators import fit_dvcm
from dvcm.families import GAUSSIAN
from dvcm.simulation import (
    SimConfig,
    fit_loglog_slopes,
    generate_dataset,
    ks_normality,
    mc_inference,
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
        ("bw_epsilon", -3.0), ("bw_epsilon", float("inf")), ("bw_epsilon", float("nan")),
    ])
    def test_scale_not_finite_and_nonnegative_rejected(self, field, value):
        # bw_epsilon is the undersmoothed rule's epsilon: that rule's check names it so
        message = (f"epsilon={value}" if field == "bw_epsilon"
                   else f"{field} must be finite and nonnegative")
        with pytest.raises(ValueError, match=message):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("rule", ["median", "undersmoothed"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_bw_c_not_finite_and_positive_rejected_under_every_rule(self, rule, value):
        # the undersmoothed rule's check names bw_c as its constant c
        with pytest.raises(ValueError, match=f"c and beta must be finite and positive .*"
                                             f"c={value}, beta=2.0"):
            SimConfig(bw_c=value, bandwidth_rule=rule)

    @pytest.mark.parametrize("q_mode", ["estimate", "zero"])
    @pytest.mark.parametrize("value", [0.5, 2.0, 3.0, float("nan")])
    def test_delta_outside_half_to_two_rejected(self, q_mode, value):
        # checked even where no penalty reads it
        with pytest.raises(ValueError, match=rf"delta must lie in \(0.5, 2\), got {value}"):
            SimConfig(delta=value, q_mode=q_mode)

    def test_family_is_stored_as_its_kind(self):
        assert SimConfig(family="Gaussian").family == "gaussian"
        # the oracle's noise variance reads the stored family: nu = noise_sd^2, not 1
        upper, lower = (mc_sweep([tiny_config(family=f, q_mode="oracle", reps=20)], [0.5],
                                 ["tl"])[0] for f in ("Gaussian", "gaussian"))
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

    def test_dataset_too_large_for_a_replication_rejected(self):
        # construction draws nothing: the bound holds before any array is made
        for sizes in ({"K": 10**8}, {"K": 3, "n_bar": 10**8}):
            with pytest.raises(ValueError, match=r"exceeds 2\*\*25 \(256 MiB\): lower n0, "
                                                 r"K, n_bar, order, beta or p"):
                SimConfig(p=2, n0=20, **sizes)
        # checked after every other setting; criterion 4's largest grid point passes
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            SimConfig(K=10**8, beta=math.inf)
        SimConfig(p=2, K=181, n_bar=1500, n0=30)  # criterion 4's largest grid point


class TestGenerateDataset:
    def test_shapes_and_streams(self):
        cfg = SimConfig(p=3, K=4, n_bar=25, n0=10, gamma=1.0, reps=2, seed=1)
        pooled, fine = generate_dataset(cfg, 0)
        target, sources = pooled[0], pooled[1:]
        assert target.n + fine.n == 20 and target.p == fine.p == 3
        assert len(sources) == 4 and all(s.n == 25 for s in sources)
        assert np.all(pooled.x[:, 0] == 1.0) and np.all(fine.x[:, 0] == 1.0)

    def test_determinism(self):
        cfg = SimConfig(p=2, K=3, n_bar=10, n0=5, gamma=0.8, reps=2, seed=7)
        (p1, f1), (p2, f2) = generate_dataset(cfg, 3), generate_dataset(cfg, 3)
        assert np.array_equal(f1.x, f2.x) and np.array_equal(f1.y, f2.y)
        for a, b in zip(p1, p2):  # the target's pilot half, then the sources
            assert a.u[0] == b.u[0] and np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_replications_differ(self):
        cfg = SimConfig(p=2, K=3, n_bar=10, n0=5, gamma=0.8, reps=2, seed=7)
        _, f1 = generate_dataset(cfg, 0)
        _, f2 = generate_dataset(cfg, 1)
        assert not np.array_equal(f1.y, f2.y)

    def test_gamma_zero_degenerate(self):
        cfg = SimConfig(p=2, K=5, n_bar=8, n0=5, gamma=0.0, reps=2, seed=0)
        pooled, _ = generate_dataset(cfg, 0)
        assert all(s.u[0] == 0.0 for s in pooled[1:])

    def test_noiseless_recovery(self):
        cfg = SimConfig(p=3, K=4, n_bar=40, n0=30, gamma=0.4, noise_sd=0.0,
                        reps=2, seed=3)
        pooled, fine = generate_dataset(cfg, 0)
        theta0 = cfg.theta(0.0)
        for half in (pooled[0], fine):
            assert np.allclose(half.y, half.x @ theta0)
        # the whole target, both halves, pooled with the sources
        fit = fit_dvcm(Panel.of([pooled[0], fine, *pooled[1:]]), 0.0, 0.05, 1, GAUSSIAN)
        assert np.max(np.abs(fit.theta - theta0)) < 1e-6

    def test_logistic_and_poisson_responses(self):
        for fam, check in [("logistic", lambda y: set(np.unique(y)) <= {0.0, 1.0}),
                           ("poisson", lambda y: np.all(y >= 0))]:
            cfg = SimConfig(family=fam, p=2, K=3, n_bar=15, n0=8, gamma=0.5,
                            reps=2, seed=5)
            pooled, fine = generate_dataset(cfg, 0)
            assert check(fine.y)
            assert check(pooled.y)  # the target's pilot half and the sources


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
    pooled, fine = generate_dataset(cfg, 2)
    target, sources = pooled[0], pooled[1:]
    (u0, x0, y0), want = _per_source_dataset(cfg, 2)
    assert target.u[0] == fine.u[0] == u0
    assert np.concatenate([target.x, fine.x]).tobytes() == x0.tobytes()
    assert np.concatenate([target.y, fine.y]).tobytes() == y0.tobytes()
    assert len(sources) == len(want)
    for got, (u, x, y) in zip(sources, want):
        assert got.u[0] == u and got.x.tobytes() == x.tobytes() and got.y.tobytes() == y.tobytes()


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
        res = mc_sweep([cfg], [0.5], ["lr"])[0]
        assert res.mse < 1e-12
        assert res.fails == 0

    def test_q_overrides_match_limits(self):
        cfg = tiny_config(reps=20)
        lr = mc_sweep([cfg], [0.6], ["lr"])[0]
        dvcm = mc_sweep([cfg], [0.6], ["dvcm"])[0]
        tl_zero = mc_sweep([tiny_config(reps=20, q_mode="zero")], [0.6], ["tl"])[0]
        tl_inf = mc_sweep([tiny_config(reps=20, q_mode="infinity")], [0.6], ["tl"])[0]
        assert tl_zero.mse == pytest.approx(lr.mse, rel=1e-9)
        assert tl_inf.mse == pytest.approx(dvcm.mse, rel=1e-6)

    def test_determinism_bitwise(self):
        cfg = tiny_config(reps=15)
        r1 = mc_sweep([cfg], [0.5], ["tl"])[0]
        r2 = mc_sweep([cfg], [0.5], ["tl"])[0]
        assert (r1.mse, r1.se, r1.fails) == (r2.mse, r2.se, r2.fails)

    def test_se_shrinks_with_reps(self):
        ses = {}
        for reps in (50, 200, 800):
            ses[reps] = mc_sweep([tiny_config(reps=reps)], [0.5], ["lr"])[0].se
        assert ses[800] < ses[200] < ses[50]
        # expected ratio 4, allow 3x sampling slack
        assert 4.0 / 3.0 < ses[50] / ses[800] < 12.0

    def test_estimator_validation(self):
        with pytest.raises(ValueError):
            mc_sweep([tiny_config()], [0.5], ["ridge"])[0]
        with pytest.raises(ValueError):
            mc_sweep([tiny_config(reps=1)], [0.5], ["lr"])[0]

    def test_parallel_matches_serial(self):
        cfg = tiny_config(reps=12)
        serial = mc_sweep([cfg], [0.5], ["tl"], threads=1)[0]
        parallel = mc_sweep([cfg], [0.5], ["tl"], threads=2)[0]
        assert serial == parallel
        grid, ests = [0.2, 0.5, 1.0], ["lr", "dvcm", "tl"]
        cfg = tiny_config()  # 40 reps keep h=0.2 inside the failure tolerance
        assert (mc_sweep([cfg], grid, ests, threads=2)
                == mc_sweep([cfg], grid, ests, threads=1))


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
        sweep = mc_sweep([cfg], SWEEP_GRID, SWEEP_ESTIMATORS)
        alone = [mc_sweep([cfg], [h], [est])[0] for h in SWEEP_GRID for est in SWEEP_ESTIMATORS]
        assert sweep == alone
        assert sum(r.fails for r in sweep) > 0  # the failure coupling is exercised

    def test_input_validation(self):
        with pytest.raises(ValueError):
            mc_sweep([tiny_config()], [], ["lr"])
        with pytest.raises(ValueError):
            mc_sweep([tiny_config()], [0.5], [])
        with pytest.raises(ValueError):
            mc_sweep([tiny_config()], [0.5], ["lr", "ridge"])
        with pytest.raises(ValueError):
            mc_sweep([], [0.5], ["lr"])

    def test_repeated_estimator_rejected(self):
        # its cells would be computed and written twice
        with pytest.raises(ValueError, match="estimators must be distinct"):
            mc_sweep([tiny_config()], [0.5], ["lr", "tl", "lr"])

    def test_failed_pilots_compute_no_condition_number(self, monkeypatch):
        # at h=0.2 some windows hold no source: their pilots are singular and
        # the replication is counted failed without an SVD for a message
        calls = []
        cond = np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda *a, **k: calls.append(1) or cond(*a, **k))
        results = mc_sweep([tiny_config()], [0.2], SWEEP_ESTIMATORS)
        assert [r.fails for r in results] == [0, 8, 8]
        assert calls == []


class TestPlan:
    """A sweep runs its plan of configs on one pool that the machine bounds."""

    @pytest.mark.parametrize("cpus, reps, pools", [(4, 3, [3]), (4, 40, [4]), (None, 40, [])])
    def test_pool_is_bounded_by_the_cpus_and_the_tasks(self, inline_pool, monkeypatch,
                                                        cpus, reps, pools):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        serial = mc_sweep([tiny_config(reps=reps)], [0.5], ["lr"], threads=1)
        assert inline_pool == []
        # a million threads would fork a million workers at the first task
        assert mc_sweep([tiny_config(reps=reps)], [0.5], ["lr"], threads=10**6) == serial
        assert inline_pool == pools

    def test_cells_come_back_config_outer(self):
        plan = [tiny_config(), tiny_config(K=5, q_mode="oracle")]
        cells = mc_sweep(plan, SWEEP_GRID, SWEEP_ESTIMATORS, threads=2)
        assert cells == [r for cfg in plan for r in mc_sweep([cfg], SWEEP_GRID, SWEEP_ESTIMATORS)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_config_over_tolerance_decides_the_error(self, threads):
        # recorded with one single-cell sweep per config: gamma=0.5 aborts before gamma=6
        # draws a Poisson mean numpy cannot draw from
        plan = [SimConfig(family="poisson", p=3, K=3, n_bar=40, n0=3, gamma=g, reps=10,
                          seed=11) for g in (0.5, 6.0)]
        with pytest.raises(DomainError, match="numpy cannot draw from"):
            mc_sweep(plan[1:], [None], ["tl"], threads=threads)
        with pytest.raises(ExperimentError, match=r"^simulation: 4/10 replications failed"):
            mc_sweep(plan, [None], ["tl"], threads=threads)


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


@pytest.mark.parametrize("q_mode", ["estimate", "zero"])
def test_replication_forms_one_pilot_sandwich_per_bandwidth(count_calls, q_mode):
    from dvcm import penalty
    from dvcm.simulation import _replicate

    sandwiches = count_calls(penalty.estimate_variance_sandwich)
    cfg = SimConfig(p=2, K=3, n_bar=30, n0=20, q_mode=q_mode)
    ((theta_tl, sigma),) = _replicate(cfg, (0.5,), ("tl",), 0, want_sigma=True)
    assert theta_tl.shape == (2,) and sigma.shape == (2, 2)
    # the covariance reads the sandwich that the penalty, if any, formed
    assert sandwiches[0] == 1


def test_oracle_pass_in_which_every_pilot_fails_is_refused():
    # at h = 1e-6 each pilot window holds the target alone: one identifier
    # for an order-1 fit, singular in every replication
    config = SimConfig(reps=4, q_mode="oracle", K=3, n_bar=30, n0=20, p=2)
    with pytest.raises(ExperimentError, match="oracle pass: pilot failed in every replication"):
        mc_sweep([config], [1e-6], ["tl"])


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
    from dvcm.simulation import _replicate

    views, make_view = [], Panel.__getitem__

    def counted(panel, k):
        view = make_view(panel, k)
        if len(view) == 1:
            views.append(view.x)
        return view

    monkeypatch.setattr(Panel, "__getitem__", counted)
    datasets, generate = [], simulation.generate_dataset
    monkeypatch.setattr(simulation, "generate_dataset",
                        lambda *args: datasets.append(generate(*args)) or datasets[-1])
    windows = count_calls(design.kernel_window)
    grid = (0.2, 0.3, 0.45, 0.7, 1.0)
    cells = _replicate(SimConfig(p=4, K=5, n_bar=120, n0=50, gamma=1.0), grid,
                       ("lr", "dvcm", "tl"), 1)
    assert all(cell is not None for cell in cells)
    # the pilot half in the drawn panel is the only one-domain view, whose
    # sources the bandwidth rules read from its arrays
    (pooled, _), = datasets
    assert len(views) == 1 and np.shares_memory(views[0], pooled.x[: pooled.offsets[1]])
    # one window per fitted h, located by its pilot and reused by its penalty,
    # and one for the derivative fit
    assert windows[0] == len(grid) + 1


def test_dataset_validates_no_source_on_its_own(monkeypatch):
    made = [0]
    post_init = Panel.__post_init__

    def counted(self):
        made[0] += 1
        post_init(self)

    monkeypatch.setattr(Panel, "__post_init__", counted)
    pooled, fine = generate_dataset(SimConfig(p=3, K=7, n_bar=20, n0=10), 0)
    assert len(pooled) == 8 and fine.n == 10 and made[0] == 0  # not even the target


def test_replication_fits_the_drawn_panel(monkeypatch):
    """A replication's problem holds the panel and fine half that
    generate_dataset drew, and views its pilot half and sources there."""
    from dvcm import simulation
    from dvcm.simulation import _replicate

    datasets, problems = [], []
    generate, make = simulation.generate_dataset, simulation.TransferProblem
    monkeypatch.setattr(simulation, "generate_dataset",
                        lambda *args: datasets.append(generate(*args)) or datasets[-1])
    monkeypatch.setattr(simulation, "TransferProblem",
                        lambda *args, **kwargs: problems.append(make(*args, **kwargs))
                        or problems[-1])
    cells = _replicate(SimConfig(p=2, K=3, n_bar=30, n0=20), (0.5,), ("lr", "dvcm", "tl"), 0)
    assert all(cell is not None for cell in cells)
    ((pooled, fine),), (problem,) = datasets, problems
    assert problem.pooled is pooled and problem.fine is fine
    for part in (problem.pilot_part, problem.sources):
        assert np.shares_memory(part.x, pooled.x) and np.shares_memory(part.y, pooled.y)


# sha256 of generate_dataset's pooled x, y, u and offsets, in that order, for
# the configuration below: recorded when the pilot half was stacked onto the sources
# after the draw, so drawing into the panel's rows keeps every byte
_POOLED_SHA256 = {
    ("gaussian", 2): "7374e7a1b13c3f23d3fb09aff1a37b68d6814c076242d3f23420a879e4521e43",
    ("gaussian", 3): "be13e0c297c84a5b5b70e517e57148b1e71649484a770406a1b1d4724497701e",
    ("gaussian", 4): "a0e22c3471def15baab95aa1fc0c0b6e3efe2976aba89024b967e1efed3d0c81",
    ("gaussian", 6): "1da5cccfbb5f6bc0d7bd090ffcf9b72609be4873e090e5856e4fb65d8118c364",
    ("logistic", 2): "9732e10996de507ad79e3d6c2c1e4d817aac431fff4f8941dec7a6bc8ffbc9b7",
    ("logistic", 3): "7605e782d1bc56b8d7ad0de94b25ee5c0dfa97f0c72ed6ae6bed1adc5da668e0",
    ("logistic", 4): "76a5e8796db9cf8f8b5c44ab5a3e932b2ecded1704332f1cb67c3fb64931cf37",
    ("logistic", 6): "49af536d73659827fc06c6223a609c4263f8785fecb7ecc7f9023e1ef11b3c61",
    ("poisson", 2): "6de739f8bfee739dff63ea3960b0a578981dd32ac900f6ed10a017c659159ef4",
    ("poisson", 3): "34c17e0a199c4f9936cf84e33bc60274ebeb618184cf2aebc33349861b41799d",
    ("poisson", 4): "525b58d8afe0fb7966322d987f14466e307cd4b482f3a71c03ec3a0f9da75e41",
    ("poisson", 6): "be3716934c1c7cec0978afca4abb6984c333fd6b42b22874514a868d16e0fdcb",
}


@pytest.mark.parametrize("family,p", sorted(_POOLED_SHA256))
def test_pooled_dataset_bytes_are_pinned(family, p):
    cfg = SimConfig(family=family, p=p, K=7, n_bar=40, n0=25, gamma=0.8, seed=5,
                    theta_spec="paper_default" if family == "gaussian" else "tanh_pair")
    pooled, _ = generate_dataset(cfg, 3)
    digest = hashlib.sha256()
    for a in (pooled.x, pooled.y, pooled.u, pooled.offsets):
        digest.update(a.tobytes())
    assert digest.hexdigest() == _POOLED_SHA256[family, p]


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
        tl = mc_sweep([oracle_cfg], [None], ["tl"])[0]
        assert np.mean(sq_err) == pytest.approx(tl.mse, rel=1e-12)


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

    def test_mismatched_shapes_rejected(self):
        for xs, ys in (([1.0, 2.0, 3.0, 4.0], np.ones(5)), (np.ones((2, 2)), np.ones((2, 2)))):
            with pytest.raises(ValueError, match="one-dimensional with equal length"):
                fit_loglog_slopes(xs, ys, 1)

    def test_nonmonotone_xs_rejected(self):
        with pytest.raises(ValueError):
            fit_loglog_slopes([1.0, 3.0, 2.0, 4.0, 5.0, 6.0], np.ones(6), 1)

    @pytest.mark.parametrize("where", ["xs", "ys"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_refused_before_lapack(self, capfd, where, bad):
        points = {"xs": [1.0, 2.0, 3.0, 4.0], "ys": [1.0, 1.0, 1.0, 1.0]}
        points[where][-1] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_loglog_slopes(points["xs"], points["ys"], 1)
        assert capfd.readouterr().err == ""  # LAPACK writes to fd 2, not to sys.stderr


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
