import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import cho_factor, cho_solve

from dvcm.design import DomainSample, build_local_design
from dvcm.errors import DomainError, DvcmError, SingularSystemError
from dvcm.estimators import (LocalFit, fit_dvcm, fit_target_only, fit_tl, newton_weighted,
                             spd_factor, spd_solve)
from dvcm.families import GAUSSIAN, LOGISTIC, POISSON


def make_domain(u, x, y):
    return DomainSample(u=u, x=np.atleast_2d(np.asarray(x, float)),
                        y=np.asarray(y, float))


class TestNewtonWeighted:
    def test_gaussian_interpolation(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(8, 3))
        alpha_star = rng.normal(size=3)
        y = z @ alpha_star
        sol, converged, _ = newton_weighted(z, np.ones(8), y, GAUSSIAN, np.zeros(3))
        assert converged
        assert np.max(np.abs(sol - alpha_star)) < 1e-10

    def test_dominant_penalty_pulls_to_center(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        center = np.array([3.0, -2.0])
        q = 1e8 * np.eye(2)
        sol, _, _ = newton_weighted(z, np.ones(10), y, GAUSSIAN, np.zeros(2),
                                    penalty=(q, center))
        assert np.linalg.norm(sol - center) < 1e-6

    def test_logistic_matches_grid_search(self):
        # oracle: dense grid minimisation of the 2-point weighted objective
        z = np.array([[1.0], [1.0]])
        y = np.array([1.0, 0.0])
        w = np.array([0.7, 0.3])

        grid = np.linspace(-5, 5, 200001)
        obj = w[0] * (np.log1p(np.exp(-np.abs(grid))) + np.maximum(grid, 0) - y[0] * grid) \
            + w[1] * (np.log1p(np.exp(-np.abs(grid))) + np.maximum(grid, 0) - y[1] * grid)
        oracle = grid[np.argmin(obj)]

        sol, converged, _ = newton_weighted(z, w, y, LOGISTIC, np.zeros(1))
        assert converged
        assert abs(sol[0] - oracle) < 1e-4

    def test_singular_hessian_raises_without_jitter(self):
        z = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank 1
        y = np.array([1.0, 2.0])
        with pytest.raises(SingularSystemError) as err:
            newton_weighted(z, np.ones(2), y, GAUSSIAN, np.zeros(2))
        assert np.isfinite(err.value.cond)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            newton_weighted(np.ones((2, 1)), np.array([1.0, -1.0]),
                            np.zeros(2), GAUSSIAN, np.zeros(1))

    def test_poisson_objective_decreases(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(30, 2)) * 0.5
        theta = np.array([0.3, -0.2])
        y = rng.poisson(np.exp(z @ theta)).astype(float)
        sol, converged, iters = newton_weighted(z, np.ones(30) / 30, y, POISSON,
                                                np.zeros(2))
        assert converged
        grad = z.T @ ((np.exp(z @ sol) - y) / 30)
        assert np.max(np.abs(grad)) <= 1e-9

    def test_solution_objective_never_above_init(self):
        rng = np.random.default_rng(12)
        for family in (GAUSSIAN, LOGISTIC, POISSON):
            z = rng.normal(size=(25, 3)) * 0.4
            y = rng.integers(0, 2, 25).astype(float)
            w = rng.uniform(0.1, 1.0, 25)
            init = rng.normal(size=3)
            sol, _, _ = newton_weighted(z, w, y, family, init)
            obj = lambda a: float(np.sum(w * family.loss(z @ a, y)))
            assert obj(sol) <= obj(init) + 1e-12


class TestFitTargetOnly:
    def test_sample_mean(self):
        dom = make_domain(0.0, [[1.0], [1.0]], [1.0, 3.0])
        assert fit_target_only(dom, GAUSSIAN)[0] == pytest.approx(2.0)

    def test_exact_line(self):
        x = np.array([[1.0], [2.0], [3.0]])
        dom = make_domain(0.0, x, 2.0 * x[:, 0])
        assert fit_target_only(dom, GAUSSIAN)[0] == pytest.approx(2.0, abs=1e-12)

    def test_logistic_symmetry(self):
        dom = make_domain(0.0, [[1.0], [1.0]], [1.0, 0.0])
        assert fit_target_only(dom, LOGISTIC)[0] == pytest.approx(0.0, abs=1e-8)

    def test_rank_deficient(self):
        dom = make_domain(0.0, [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]], [1.0, 2.0, 3.0])
        with pytest.raises(SingularSystemError):
            fit_target_only(dom, GAUSSIAN)


def _brute_force_weighted_ls(domains, u0, h, l):
    """Independent oracle: assemble the weighted normal equations directly."""
    import math

    rows, ys, ws = [], [], []
    for dom in domains:
        t = (dom.u - u0) / h
        w = 0.5 if abs(t) <= 1.0 else 0.0
        phi = np.array([t**j / math.factorial(j) for j in range(l + 1)])
        for i in range(dom.n):
            rows.append(np.kron(phi, dom.x[i]))
            ys.append(dom.y[i])
            ws.append(w)
    z = np.array(rows)
    yv = np.array(ys)
    wv = np.array(ws)
    a = sum(wv[i] * np.outer(z[i], z[i]) for i in range(len(ys)))
    b = sum(wv[i] * yv[i] * z[i] for i in range(len(ys)))
    return np.linalg.solve(a, b)


class TestFitDvcm:
    def test_constant_theta_recovered_exactly(self):
        rng = np.random.default_rng(2)
        theta = np.array([1.5, -0.7])
        doms = [
            DomainSample(u=u, x=(x := rng.normal(size=(6, 2))), y=x @ theta)
            for u in (-0.4, 0.0, 0.3, 0.9)
        ]
        for h in (0.5, 1.0, 2.0):
            fit = fit_dvcm(doms, 0.0, h, 0, GAUSSIAN)
            assert np.max(np.abs(fit.theta - theta)) < 1e-8

    def test_single_domain_reduces_to_target_only(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 2))
        dom = DomainSample(u=0.2, x=x, y=rng.normal(size=12))
        fit = fit_dvcm([dom], 0.2, 0.5, 0, GAUSSIAN)
        assert np.allclose(fit.theta, fit_target_only(dom, GAUSSIAN), atol=1e-12)

    def test_matches_brute_force_small_case(self):
        rng = np.random.default_rng(4)
        doms = [
            DomainSample(u=u, x=rng.normal(size=(5, 1)), y=rng.normal(size=5))
            for u in (-0.5, 0.5)
        ]
        fit = fit_dvcm(doms, 0.0, 1.0, 1, GAUSSIAN)
        oracle = _brute_force_weighted_ls(doms, 0.0, 1.0, 1)
        assert np.max(np.abs(fit.alpha - oracle)) < 1e-6

    def test_theta_is_leading_block(self):
        rng = np.random.default_rng(6)
        doms = [
            DomainSample(u=u, x=rng.normal(size=(8, 2)), y=rng.normal(size=8))
            for u in (-0.4, 0.1, 0.5)
        ]
        fit = fit_dvcm(doms, 0.0, 1.0, 1, GAUSSIAN)
        assert np.array_equal(fit.theta, fit.alpha[:2])

    def test_closed_form_matches_newton_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = int(rng.integers(1, 3))
            l = int(rng.integers(0, 2))
            doms = []
            for _ in range(3):
                n = int(rng.integers(4, 9))
                doms.append(DomainSample(u=rng.uniform(-0.8, 0.8),
                                         x=rng.normal(size=(n, p)),
                                         y=rng.normal(size=n)))
            fit = fit_dvcm(doms, 0.0, 1.0, int(l), GAUSSIAN)
            design = build_local_design(doms, 0.0, 1.0, int(l))
            alpha, converged, _ = newton_weighted(
                design.z, design.weight, design.y, GAUSSIAN,
                np.zeros(design.z.shape[1]))
            assert converged
            assert np.max(np.abs(fit.alpha - alpha)) < 1e-10

    def test_given_start_is_the_default_start(self, count_calls):
        rng = np.random.default_rng(8)
        doms = [DomainSample(u=u, x=rng.normal(size=(30, 2)),
                             y=rng.integers(0, 2, 30).astype(float))
                for u in (0.0, -0.3, 0.4)]
        start = fit_target_only(doms[0], LOGISTIC)
        calls = count_calls(fit_target_only)
        default = fit_dvcm(doms, 0.0, 1.0, 1, LOGISTIC)
        assert calls[0] == 1
        given = fit_dvcm(doms, 0.0, 1.0, 1, LOGISTIC, start)
        assert calls[0] == 1
        assert given.alpha.tobytes() == default.alpha.tobytes()

    def test_singular_nearest_domain_starts_at_zero(self):
        rng = np.random.default_rng(9)
        flat = DomainSample(u=0.0, x=np.ones((4, 2)), y=np.array([0.0, 1.0, 1.0, 1.0]))
        other = DomainSample(u=0.5, x=rng.normal(size=(40, 2)),
                             y=rng.integers(0, 2, 40).astype(float))
        with pytest.raises(SingularSystemError):
            fit_target_only(flat, LOGISTIC)
        default = fit_dvcm([flat, other], 0.0, 1.0, 0, LOGISTIC)
        zero = fit_dvcm([flat, other], 0.0, 1.0, 0, LOGISTIC, np.zeros(2))
        assert default.alpha.tobytes() == zero.alpha.tobytes()


class TestSpdCore:
    """spd_factor / spd_solve against scipy's Cholesky helpers, bit for bit."""

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.integers(0, 3))
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_scipy(self, n, seed, ncols):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(n + 3, n))
        a = g.T @ g + 1e-3 * np.eye(n)
        ref = cho_factor(a, lower=True)
        c = spd_factor(a, "test matrix")
        assert c.tobytes() == ref[0].tobytes()
        rhs = rng.normal(size=n) if ncols == 0 else rng.normal(size=(ncols, n)).T
        assert spd_solve(c, rhs).tobytes() == cho_solve(ref, rhs).tobytes()
        # the transposed-solve pattern of the sandwich estimators
        inner = spd_solve(c, spd_solve(c, a).T)
        assert inner.tobytes() == cho_solve(ref, cho_solve(ref, a).T).tobytes()

    def test_singular_matrix_reports_its_condition(self):
        with pytest.raises(SingularSystemError) as err:
            spd_factor(np.ones((3, 3)), "all-ones matrix")
        assert "all-ones matrix is singular" in str(err.value)
        assert err.value.cond is not None and err.value.cond > 1e15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_is_a_typed_error(self, bad):
        a = np.eye(3)
        a[0, 2] = bad  # upper triangle: the lower factorisation never reads it
        with pytest.raises(DomainError, match="Sigma_TL has a non-finite entry") as err:
            spd_factor(a, "Sigma_TL")
        assert isinstance(err.value, DvcmError) and isinstance(err.value, ValueError)

    def test_finiteness_checks_neither_overflow_nor_warn(self):
        # finite entries whose sum overflows are finite; a check by summing
        # would also print RuntimeWarnings next to a CLI's one error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = spd_factor(np.diag([1e308, 1e308]), "large matrix")
            assert spd_solve(c, np.array([1e308, -1e308])).tolist() == [1.0, -1.0]
            with pytest.raises(DomainError):
                spd_solve(c, np.array([np.inf, -np.inf]))

    def test_non_finite_right_hand_side_is_a_typed_error(self):
        c = spd_factor(np.eye(2), "identity")
        with pytest.raises(DomainError):
            spd_solve(c, np.array([1.0, np.nan]))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            spd_factor(np.ones(shape), "m")

    def test_mismatched_right_hand_side_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            spd_solve(spd_factor(np.eye(2), "identity"), np.ones(3))


class TestFitTl:
    def test_scalar_arithmetic(self):
        # X'X/n0 = 1, X'y/n0 = 2, Q = 1, pilot = 0 -> (1+1)^{-1} (2+0) = 1
        dom = make_domain(0.0, [[1.0]], [2.0])
        fit = fit_tl(dom, np.zeros(1), np.eye(1), GAUSSIAN)
        assert fit.theta_tl[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_penalty_reduces_to_target_only(self):
        rng = np.random.default_rng(8)
        dom = DomainSample(u=0.0, x=rng.normal(size=(20, 3)), y=rng.normal(size=20))
        fit = fit_tl(dom, rng.normal(size=3), np.zeros((3, 3)), GAUSSIAN)
        assert np.allclose(fit.theta_tl, fit_target_only(dom, GAUSSIAN), atol=1e-10)

    def test_infinite_shrinkage_returns_pilot(self):
        rng = np.random.default_rng(9)
        dom = DomainSample(u=0.0, x=rng.normal(size=(15, 2)), y=rng.normal(size=15))
        pilot = np.array([0.4, -1.2])
        fit = fit_tl(dom, pilot, 1e8 * np.eye(2), GAUSSIAN)
        assert np.linalg.norm(fit.theta_tl - pilot) < 1e-6

    def test_interpolation_identity(self):
        # (Sigma0 + Q) theta_tl = Sigma0 theta_lr + Q pilot
        rng = np.random.default_rng(10)
        for _ in range(10):
            p = int(rng.integers(1, 4))
            dom = DomainSample(u=0.0, x=rng.normal(size=(25, p)),
                               y=rng.normal(size=25))
            a = rng.normal(size=(p, p))
            q = a @ a.T + 0.1 * np.eye(p)
            pilot = rng.normal(size=p)
            fit = fit_tl(dom, pilot, q, GAUSSIAN)
            sigma0 = dom.x.T @ dom.x / dom.n
            lhs = (sigma0 + q) @ fit.theta_tl
            rhs = sigma0 @ fit_target_only(dom, GAUSSIAN) + q @ pilot
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    @given(q=st.floats(0.0, 50.0), pilot=st.floats(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_scalar_monotone_shrinkage(self, q, pilot):
        x = np.array([[1.0], [2.0], [-1.0]])
        y = np.array([1.0, 3.0, 0.5])
        dom = DomainSample(u=0.0, x=x, y=y)
        sigma0 = float(x[:, 0] @ x[:, 0]) / 3.0
        theta_lr = fit_target_only(dom, GAUSSIAN)[0]
        fit = fit_tl(dom, np.array([pilot]), np.array([[q]]), GAUSSIAN)
        weight = q / (sigma0 + q)
        expected = (1.0 - weight) * theta_lr + weight * pilot
        assert fit.theta_tl[0] == pytest.approx(expected, abs=1e-10)

    def test_glm_penalized_newton(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 2))
        theta = np.array([0.5, -0.4])
        y = rng.binomial(1, 1.0 / (1.0 + np.exp(-(x @ theta)))).astype(float)
        dom = DomainSample(u=0.0, x=x, y=y)
        pilot = np.array([0.2, 0.1])
        q = 0.5 * np.eye(2)
        fit = fit_tl(dom, pilot, q, LOGISTIC)
        assert fit.converged
        # stationarity of the penalised objective
        mu = 1.0 / (1.0 + np.exp(-(x @ fit.theta_tl)))
        grad = x.T @ (mu - y) / 40 + q @ (fit.theta_tl - pilot)
        assert np.max(np.abs(grad)) < 1e-8


def _singular_cases():
    """One singular input per Cholesky factorisation site."""
    from dvcm.inference import sigma_tl, v_hat_target, wald_test
    from dvcm.design import kernel_window
    from dvcm.penalty import _bias, _penalty, estimate_scale, estimate_variance_sandwich

    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 2))
    clean = make_domain(0.3, x, x @ np.array([1.0, 2.0]))  # noiseless: V_hat = 0
    flat = make_domain(0.0, np.ones((3, 2)), [1.0, 2.0, 3.0])  # rank-1 design
    lone = build_local_design([clean], 0.0, 1.0, 1)  # z = [x, 0.3 x]: rank 2 of 4
    pilot_split = make_domain(0.0, x[:10], x[:10] @ np.array([1.0, 2.0]))
    return {
        "normal_equations": lambda: fit_target_only(flat, GAUSSIAN),
        "sandwich_bread": lambda: estimate_variance_sandwich(
            LocalFit(np.zeros(4), np.zeros(2), lone, True, 0), GAUSSIAN),
        "pilot_mse": lambda: _penalty(
            fit_dvcm([pilot_split, clean], 0.0, 0.5, 0, GAUSSIAN), 2, 1.0, GAUSSIAN,
            estimate_scale(pilot_split, fit_target_only(pilot_split, GAUSSIAN), GAUSSIAN),
            pilot_split.n, lambda: np.ones(2)),
        "zeta_moments": lambda: _bias(
            kernel_window([clean], 0.0, 0.5, 1), 0.5, 2, lambda: np.ones(2)),
        "psi_hat": lambda: v_hat_target(flat, np.zeros(2), GAUSSIAN),
        "b_q": lambda: sigma_tl(np.ones((2, 2)), np.zeros((2, 2)), np.eye(2), np.eye(2)),
        "sigma_tl": lambda: wald_test(np.zeros(2), np.ones((2, 2)), np.ones(2)),
    }


@pytest.mark.parametrize("site", sorted(_singular_cases()))
def test_every_factorisation_reports_singularity(site):
    with pytest.raises(SingularSystemError) as err:
        _singular_cases()[site]()
    assert np.isfinite(err.value.cond) and "singular" in str(err.value)
