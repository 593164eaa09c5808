import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcm.design import (Panel, build_local_design, kernel_window, poly_features,
                         uniform_kernel)
from dvcm.errors import DegenerateVarianceError, SingularSystemError
from dvcm.estimators import (fit_dvcm, fit_target_only, gram, newton_weighted, spd_factor,
                             spd_solve)
from dvcm.families import GAUSSIAN, LOGISTIC, POISSON
from dvcm.inference import TransferProblem
from dvcm.penalty import (_bias, estimate_derivative, estimate_scale, estimate_variance_sandwich,
                          zeta_hat)


def make_domain(u, x, y):
    return Panel.domain(u=u, x=np.atleast_2d(np.asarray(x, float)),
                        y=np.asarray(y, float))


class TestEstimateScale:
    def test_gaussian_mean_square_residual(self):
        dom = make_domain(0.0, [[1.0], [1.0], [1.0]], [1.0, -1.0, 0.0])
        assert estimate_scale(dom, np.zeros(1), GAUSSIAN) == pytest.approx(2.0 / 3.0)

    def test_perfect_fit(self):
        x = np.array([[1.0, 0.5], [1.0, -0.2], [1.0, 1.4]])
        theta = np.array([0.3, -1.1])
        dom = Panel.domain(u=0.0, x=x, y=x @ theta)
        assert estimate_scale(dom, theta, GAUSSIAN) == pytest.approx(0.0, abs=1e-30)

    def test_logistic_pearson(self):
        dom = make_domain(0.0, [[1.0], [1.0]], [1.0, 0.0])
        # eta = 0 for both rows: (0.5^2 / 0.25 + 0.5^2 / 0.25) / 2 = 1
        assert estimate_scale(dom, np.zeros(1), LOGISTIC) == pytest.approx(1.0)

    def test_degenerate_variance(self):
        dom = make_domain(0.0, [[1.0]], [1.0])
        with pytest.raises(DegenerateVarianceError):
            estimate_scale(dom, np.array([1e4]), LOGISTIC)


def _zeta_oracle(domains, u0, h, l, r, s):
    """Independent reassembly of the moment matrix by direct loops."""
    n = sum(d.n for d in domains)
    out = np.zeros((l + 1, l + 1))
    for d in domains:
        t = (d.u[0] - u0) / h
        w = 0.5 if abs(t) <= 1.0 else 0.0
        phi = np.array([t**j / math.factorial(j) for j in range(l + 1)])
        for a in range(l + 1):
            for b in range(l + 1):
                out[a, b] += d.n * phi[a] * phi[b] * t**r * w**s
    return out / (n * h)


def _zeta_loop(domains, u0, h, l, r, s):
    """The per-domain accumulation, in domain order."""
    n = sum(d.n for d in domains)
    out = np.zeros((l + 1, l + 1))
    for dom in domains:
        t = (dom.u[0] - u0) / h
        w = float(uniform_kernel(t))
        if w == 0.0:
            continue
        phi = poly_features(t, l)
        out += dom.n * (t**r) * (w**s) * np.outer(phi, phi)
    return out / (n * h)


class TestZetaHat:
    @given(st.lists(st.tuples(st.floats(-1.2, 1.2, allow_nan=False), st.integers(1, 9)),
                    min_size=1, max_size=9),
           st.integers(0, 3), st.integers(0, 4), st.integers(1, 2),
           st.sampled_from([0.25, 0.6, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_the_domain_loop(self, specs, l, r, s, h):
        doms = [make_domain(u, np.ones((n, 1)), np.zeros(n)) for u, n in specs]
        got = zeta_hat(kernel_window(Panel.of(doms), 0.1, h, l), h, (r, s))[0]
        assert got.tobytes() == _zeta_loop(doms, 0.1, h, l, r, s).tobytes()

    @pytest.mark.parametrize("r", [1, 3])
    def test_signed_zero_sums_are_the_loops(self, r):
        # t**3 underflows to -0.0, so terms of the lone domain are signed
        # zeros; the domain loop starts from +0.0, and so must the sum
        doms = Panel.of([make_domain(-1e-200, np.ones((3, 1)), np.zeros(3))])
        got = zeta_hat(kernel_window(doms, 0.0, 0.25, 1), 0.25, (r, 1))[0]
        assert got.tobytes() == _zeta_loop(doms, 0.0, 0.25, 1, r, 1).tobytes()

    def test_single_domain_at_center(self):
        dom = make_domain(0.0, np.ones((7, 1)), np.zeros(7))
        for h in (0.5, 1.0, 2.0):
            z = zeta_hat(kernel_window(Panel.of([dom]), 0.0, h, 0), h, (0, 1))[0]
            assert z.shape == (1, 1)
            assert z[0, 0] == pytest.approx(0.5 / h)

    def test_odd_moment_vanishes_by_symmetry(self):
        doms = Panel.of([make_domain(0.3, np.ones((5, 1)), np.zeros(5)),
                         make_domain(-0.3, np.ones((5, 1)), np.zeros(5))])
        z = zeta_hat(kernel_window(doms, 0.0, 1.0, 0), 1.0, (1, 1))[0]
        assert abs(z[0, 0]) < 1e-15

    def test_squared_kernel_halves(self):
        doms = Panel.of(make_domain(u, np.ones((4, 1)), np.zeros(4)) for u in (0.2, -0.6))
        z1 = zeta_hat(kernel_window(doms, 0.0, 1.0, 1), 1.0, (0, 1))[0]
        z2 = zeta_hat(kernel_window(doms, 0.0, 1.0, 1), 1.0, (0, 2))[0]
        assert np.allclose(z2, 0.5 * z1)

    def test_matches_independent_assembly(self):
        rng = np.random.default_rng(0)
        doms = []
        for _ in range(6):
            n = int(rng.integers(2, 9))
            doms.append(make_domain(rng.uniform(-1.5, 1.5), np.ones((n, 1)),
                                    np.zeros(n)))
        for (l, r, s) in [(0, 0, 1), (1, 2, 1), (2, 1, 2), (1, 3, 1)]:
            got = zeta_hat(kernel_window(Panel.of(doms), 0.1, 0.8, l), 0.8, (r, s))[0]
            want = _zeta_oracle(doms, 0.1, 0.8, l, r, s)
            assert np.allclose(got, want, atol=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        doms = [make_domain(rng.uniform(-1, 1), np.ones((3, 1)), np.zeros(3))
                for _ in range(5)]
        a = zeta_hat(kernel_window(Panel.of(doms), 0.0, 1.0, 1), 1.0, (0, 1))[0]
        b = zeta_hat(kernel_window(Panel.of(doms[::-1]), 0.0, 1.0, 1), 1.0, (0, 1))[0]
        assert np.allclose(a, b)

    def test_out_of_window_gives_zero(self):
        dom = make_domain(5.0, np.ones((3, 1)), np.zeros(3))
        win = kernel_window(Panel.of([dom]), 0.0, 1.0, 1)
        assert np.allclose(zeta_hat(win, 1.0, (0, 1))[0], 0.0)


def _noiseless_domains(fun, us, n=6, seed=0):
    rng = np.random.default_rng(seed)
    doms = []
    for u in us:
        x = rng.normal(size=(n, 1))
        doms.append(Panel.domain(u=u, x=x, y=x[:, 0] * fun(u)))
    return Panel.of(doms)


class TestEstimateDerivative:
    def test_constant_theta_zero_derivative(self):
        doms = _noiseless_domains(lambda u: 2.5, (-0.5, -0.1, 0.2, 0.6))
        d = estimate_derivative(doms, 0.0, 1.0, 1, GAUSSIAN)
        assert np.max(np.abs(d)) < 1e-8

    def test_linear_slope_recovered(self):
        c = -1.7
        doms = _noiseless_domains(lambda u: c * u, (-0.8, -0.3, 0.1, 0.5, 0.9))
        d = estimate_derivative(doms, 0.0, 1.0, 1, GAUSSIAN)
        assert d[0] == pytest.approx(c, abs=1e-6)

    def test_quadratic_curvature_recovered(self):
        doms = _noiseless_domains(lambda u: u**2, (-0.9, -0.4, 0.0, 0.3, 0.8))
        d = estimate_derivative(doms, 0.0, 1.0, 2, GAUSSIAN)
        assert d[0] == pytest.approx(2.0, abs=1e-4)

    def test_widens_to_the_third_identifier_when_two_share_a_distance(self):
        # u = -0.1 and 0.1 lie at one distance from u0 = 0: three identifiers,
        # two distances; the order-2 fit widens h to just past that distance
        doms = _noiseless_domains(lambda u: 1.0 + u + u**2, (0.0, -0.1, 0.1), n=30)
        got = estimate_derivative(doms, 0.0, 0.05, 2, GAUSSIAN)
        want = estimate_derivative(doms, 0.0, 0.1 * (1.0 + 1e-9), 2, GAUSSIAN)
        assert got.tobytes() == want.tobytes()
        assert got[0] == pytest.approx(2.0, rel=1e-6)

    def test_rejects_fractional_order(self):
        doms = _noiseless_domains(lambda u: u, (-0.5, 0.5))
        for order in (1.5, math.inf, math.nan):
            with pytest.raises(ValueError, match=f"positive integer, got {order}"):
                estimate_derivative(doms, 0.0, 1.0, order, GAUSSIAN)


def _plug_in_bias(doms, h):
    """Bias of the order-1 pooled fit at u0 = 0 and ``h`` under beta = 2, with
    the derivative fitted at ``h``."""
    return _bias(kernel_window(doms, 0.0, h, 1), h, 2,
                 lambda: estimate_derivative(doms, 0.0, h, 2, GAUSSIAN))


class TestEstimateBias:
    def test_constant_theta_no_bias(self):
        doms = _noiseless_domains(lambda u: 3.0, (-0.6, -0.2, 0.3, 0.7))
        b = _plug_in_bias(doms, 1.0)
        assert np.max(np.abs(b)) < 1e-8

    def test_single_domain_at_center_finite(self):
        # zeta_{0,1} is singular but zeta_{beta,1} vanishes: bias is exactly 0
        dom = make_domain(0.0, np.random.default_rng(0).normal(size=(8, 1)),
                          np.zeros(8))
        b = _plug_in_bias(Panel.of([dom]), 1.0)
        assert np.allclose(b, 0.0)

    def test_pure_quadratic_bias_is_exact(self):
        # for theta(u) = u^2 with identical per-domain designs, the plug-in
        # equals the actual estimation error: theta_hat_dvcm(0) =
        # h^2 [zeta01^{-1} zeta21]_{11} and the order-2 fit returns exactly 2
        doms = Panel.of(Panel.domain(u=u, x=np.ones((6, 1)), y=np.full(6, u**2))
                        for u in (-0.9, -0.35, 0.15, 0.55, 0.95))
        for h in (0.6, 1.0):
            fit = fit_dvcm(doms, 0.0, h, 1, GAUSSIAN)
            actual_error = fit.theta[0] - 0.0
            b = _plug_in_bias(doms, h)
            assert b[0] == pytest.approx(actual_error, rel=1e-6, abs=1e-9)

    def test_matches_independent_reassembly_across_h(self):
        doms = _noiseless_domains(lambda u: math.sin(2.0 * u),
                                  (-0.9, -0.5, -0.1, 0.25, 0.6, 0.85), seed=3)
        for h in (0.5, 1.0):
            z01 = _zeta_oracle(doms, 0.0, h, 1, 0, 1)
            z21 = _zeta_oracle(doms, 0.0, h, 1, 2, 1)
            factor = np.linalg.solve(z01, z21[:, 0])[0]
            deriv = estimate_derivative(doms, 0.0, h, 2, GAUSSIAN)
            want = factor * deriv * h**2 / 2.0
            got = _plug_in_bias(doms, h)
            assert np.allclose(got, want, rtol=1e-10)

    def test_derivative_window_widens_when_too_few_domains(self):
        # main window holds 2 identifiers (enough for the order-1 fit) but the
        # order-2 derivative fit needs 3: its bandwidth widens automatically
        doms = _noiseless_domains(lambda u: u**2, (0.05, 0.09, 0.4, 0.8), seed=4)
        b = _plug_in_bias(doms, 0.1)
        assert np.all(np.isfinite(b))

    def test_derivative_callable_replaces_the_fit(self):
        doms = _noiseless_domains(lambda u: math.sin(2.0 * u),
                                  (-0.9, -0.5, -0.1, 0.25, 0.6, 0.85), seed=3)
        deriv = np.array([-1.3])  # any plug-in value: the bias scales it
        z01 = _zeta_oracle(doms, 0.0, 0.5, 1, 0, 1)
        z21 = _zeta_oracle(doms, 0.0, 0.5, 1, 2, 1)
        want = np.linalg.solve(z01, z21[:, 0])[0] * deriv * 0.5**2 / 2.0
        got = _bias(kernel_window(doms, 0.0, 0.5, 1), 0.5, 2, lambda: deriv)
        assert np.allclose(got, want, rtol=1e-10)

    def test_derivative_callable_skipped_when_factor_is_zero(self):
        dom = make_domain(0.0, np.random.default_rng(0).normal(size=(8, 1)),
                          np.zeros(8))

        def never():
            raise AssertionError("derivative evaluated for a zero moment factor")

        win = kernel_window(Panel.of([dom]), 0.0, 1.0, 1)
        assert np.allclose(_bias(win, 1.0, 2, never), 0.0)


def _textbook_hc0(x, y):
    """Classical robust sandwich for OLS, coded independently."""
    xtx_inv = np.linalg.inv(x.T @ x)
    theta = xtx_inv @ x.T @ y
    resid = y - x @ theta
    meat = sum(resid[i] ** 2 * np.outer(x[i], x[i]) for i in range(len(y)))
    return xtx_inv @ meat @ xtx_inv


class TestSandwich:
    def test_perfect_fit_zero(self):
        rng = np.random.default_rng(5)
        theta = np.array([1.0, -2.0])
        doms = []
        for u in (-0.3, 0.2, 0.6):
            x = rng.normal(size=(6, 2))
            doms.append(Panel.domain(u=u, x=x, y=x @ theta))
        fit = fit_dvcm(Panel.of(doms), 0.0, 1.0, 0, GAUSSIAN)
        v = estimate_variance_sandwich(fit, GAUSSIAN)
        assert np.max(np.abs(v)) < 1e-20

    def test_single_domain_matches_textbook_sandwich(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(30, 3))
        y = x @ np.array([0.5, -1.0, 0.2]) + rng.normal(size=30)
        dom = Panel.domain(u=0.0, x=x, y=y)
        fit = fit_dvcm(Panel.of([dom]), 0.0, 1.0, 0, GAUSSIAN)
        v = estimate_variance_sandwich(fit, GAUSSIAN)
        assert np.allclose(v, _textbook_hc0(x, y), rtol=1e-10)

    def test_residual_scaling_quadratic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 2))
        theta = np.array([1.0, 1.0])
        noise = rng.normal(size=20)
        c = 3.0
        v1 = estimate_variance_sandwich(
            fit_dvcm(Panel.of([Panel.domain(u=0.0, x=x, y=x @ theta + noise)]),
                     0.0, 1.0, 0, GAUSSIAN), GAUSSIAN)
        v2 = estimate_variance_sandwich(
            fit_dvcm(Panel.of([Panel.domain(u=0.0, x=x, y=x @ theta + c * noise)]),
                     0.0, 1.0, 0, GAUSSIAN), GAUSSIAN)
        assert np.allclose(v2, c**2 * v1, rtol=1e-10)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(8)
        doms = Panel.of(Panel.domain(u=u, x=rng.normal(size=(10, 2)), y=rng.normal(size=10))
                        for u in (-0.5, 0.0, 0.4))
        fit = fit_dvcm(doms, 0.0, 1.0, 1, GAUSSIAN)
        v = estimate_variance_sandwich(fit, GAUSSIAN)
        assert np.allclose(v, v.T)
        assert np.min(np.linalg.eigvalsh(v)) >= -1e-15


def _sim_domains(rng, K, n, p, gamma, theta_fun, noise=0.3):
    doms = []
    for _ in range(K):
        u = rng.uniform(-gamma / 2, gamma / 2)
        x = rng.normal(size=(n, p))
        doms.append(Panel.domain(u=u, x=x, y=x @ theta_fun(u) + noise * rng.normal(size=n)))
    return Panel.of(doms)


def _q_hat(sources, pilot, h, fine=None, **kwargs):
    """``penalty(h)`` of the Gaussian problem at u0 = 0 whose pilot part is
    ``pilot`` and whose fine part is ``fine`` (default: ``pilot``)."""
    problem = TransferProblem(Panel.of([pilot, *sources]), pilot if fine is None else fine,
                              0.0, GAUSSIAN, **kwargs)
    return problem.penalty(h)


class TestEstimateQ:
    def test_scalar_arithmetic(self):
        # Q = delta * nu / (n0 * M) for p = 1
        rng = np.random.default_rng(9)
        theta_fun = lambda u: np.array([1.0])
        sources = _sim_domains(rng, 4, 20, 1, 1.0, theta_fun)
        pilot = Panel.domain(u=0.0, x=np.ones((10, 1)),
                             y=1.0 + rng.normal(size=10))
        pen = _q_hat(sources, pilot, 1.0)
        m = np.outer(pen.bias_vec, pen.bias_vec) + pen.var_mat
        assert pen.q[0, 0] == pytest.approx(pen.delta * pen.scale / pen.n0 / m[0, 0],
                                            rel=1e-9)

    def test_definitional_identity(self):
        rng = np.random.default_rng(10)
        theta_fun = lambda u: np.array([1.0 + u, -0.5 * u])
        sources = _sim_domains(rng, 5, 25, 2, 1.2, theta_fun)
        x0 = rng.normal(size=(16, 2))
        pilot = Panel.domain(u=0.0, x=x0, y=x0 @ theta_fun(0.0) + 0.3 * rng.normal(size=16))
        pen = _q_hat(sources, pilot, 0.8)
        m = np.outer(pen.bias_vec, pen.bias_vec) + pen.var_mat
        ident = pen.q @ m
        assert np.allclose(ident, pen.delta * pen.scale / pen.n0 * np.eye(2), atol=1e-8)
        assert np.allclose(pen.q, pen.q.T)
        assert np.min(np.linalg.eigvalsh(pen.q)) > 0

    def test_delta_linearity(self):
        rng = np.random.default_rng(11)
        theta_fun = lambda u: np.array([0.4])
        sources = _sim_domains(rng, 4, 15, 1, 1.0, theta_fun)
        x0 = rng.normal(size=(12, 1))
        pilot = Panel.domain(u=0.0, x=x0, y=x0 @ theta_fun(0.0) + 0.2 * rng.normal(size=12))
        q1 = _q_hat(sources, pilot, 1.0, delta=1.0).q
        q2 = _q_hat(sources, pilot, 1.0, delta=1.9).q
        assert np.allclose(q2, 1.9 * q1, rtol=1e-12)

    def test_inverse_n0_scaling(self):
        # n0 is the fine part's size, which no other ingredient reads
        rng = np.random.default_rng(12)
        theta_fun = lambda u: np.array([0.4])
        sources = _sim_domains(rng, 4, 15, 1, 1.0, theta_fun)
        x0 = rng.normal(size=(12, 1))
        pilot = Panel.domain(u=0.0, x=x0, y=x0 @ theta_fun(0.0) + 0.2 * rng.normal(size=12))
        x1 = rng.normal(size=(40, 1))
        fine = Panel.domain(u=0.0, x=x1, y=x1 @ theta_fun(0.0) + 0.2 * rng.normal(size=40))
        pa = _q_hat(sources, pilot, 1.0, fine=Panel.domain(fine.u[0], fine.x[:10], fine.y[:10]))
        pb = _q_hat(sources, pilot, 1.0, fine=fine)
        assert (pa.n0, pb.n0) == (10, 40)
        assert pa.var_mat.tobytes() == pb.var_mat.tobytes()
        assert pa.bias_vec.tobytes() == pb.bias_vec.tobytes()
        assert np.allclose(pa.q, 4.0 * pb.q, rtol=1e-12)

    def test_uninformative_pilot_kills_shrinkage(self):
        # inflate the sandwich by noisy, far-spread sources: Q ~ 1/V -> small
        rng = np.random.default_rng(13)
        theta_fun = lambda u: np.array([1.0])
        sources = _sim_domains(rng, 3, 5, 1, 1.8, theta_fun, noise=20.0)
        x0 = rng.normal(size=(40, 1))
        pilot = Panel.domain(u=0.0, x=x0, y=x0 @ theta_fun(0.0) + 0.1 * rng.normal(size=40))
        pen = _q_hat(sources, pilot, 1.0)
        assert pen.q[0, 0] < 0.05

    def test_delta_outside_open_interval_rejected(self):
        rng = np.random.default_rng(14)
        sources = _sim_domains(rng, 3, 10, 1, 1.0, lambda u: np.array([1.0]))
        pilot = Panel.domain(u=0.0, x=np.ones((8, 1)), y=np.ones(8))
        for bad in (0.5, 2.0, 0.0, 2.5):
            with pytest.raises(ValueError, match=f"delta must lie in \\(0.5, 2\\), got {bad}"):
                _q_hat(sources, pilot, 1.0, delta=bad)

    @pytest.mark.parametrize("beta", [math.inf, math.nan, -1.5])
    def test_beta_not_finite_and_positive_rejected(self, beta):
        # the derivative's bandwidth rule refuses beta first
        rng = np.random.default_rng(14)
        sources = _sim_domains(rng, 3, 10, 1, 1.0, lambda u: np.array([1.0]))
        pilot = Panel.domain(u=0.0, x=np.ones((8, 1)), y=np.ones(8))
        with pytest.raises(ValueError, match=f"must be finite and positive, got gamma=1.0, "
                                             f"e0=1.0, beta={beta}"):
            _q_hat(sources, pilot, 1.0, beta=beta)

    def test_noninteger_beta_skips_bias_with_diagnostic(self):
        rng = np.random.default_rng(15)
        theta_fun = lambda u: np.array([0.4])
        sources = _sim_domains(rng, 4, 15, 1, 1.0, theta_fun)
        x0 = rng.normal(size=(12, 1))
        pilot = Panel.domain(u=0.0, x=x0, y=x0 @ theta_fun(0.0) + 0.2 * rng.normal(size=12))
        pen = _q_hat(sources, pilot, 1.0, beta=1.5)
        assert np.allclose(pen.bias_vec, 0.0)
        assert "bias_skipped_noninteger_beta" in pen.diagnostics


def _glm_problem(family, seed, K, p=2, n=30):
    """A pilot split at u0 = 0 and K sources on (-0.6, 0.6) of one family."""
    rng = np.random.default_rng(seed)

    def domain(u, size):
        x = np.column_stack([np.ones(size), rng.normal(size=(size, p - 1))])
        eta = x @ np.array([0.3 + 0.5 * u, -0.4 + 0.2 * u])
        y = {"gaussian": lambda: eta + 0.5 * rng.normal(size=size),
             "logistic": lambda: rng.binomial(1, 1.0 / (1.0 + np.exp(-eta))).astype(float),
             "poisson": lambda: rng.poisson(np.exp(eta)).astype(float)}[family.kind]()
        return Panel.domain(u=u, x=x, y=y)

    sources = Panel.of(domain(float(u), n) for u in rng.uniform(-0.6, 0.6, K))
    return domain(0.0, n), sources


class TestEstimateQReusesThePilotWindow:
    """The penalty's bias reads the pilot design's window, which has the bytes
    a freshly located one has."""

    @given(st.sampled_from([GAUSSIAN, LOGISTIC, POISSON]), st.integers(0, 2**32 - 1),
           st.integers(1, 4), st.sampled_from([0.2, 0.35, 0.7, 2.0]), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_to_a_fresh_window(self, family, seed, K, h, l):
        from dvcm.errors import DvcmError

        split, sources = _glm_problem(family, seed, K)
        pooled = Panel.of([split, *sources])
        try:
            pilot = fit_dvcm(pooled, 0.0, h, l, family)
        except DvcmError:
            return  # no pilot, no window
        own, fresh = pilot.design.window, kernel_window(pooled, 0.0, h, l)
        for name in ("index", "n", "t", "phi"):
            a, b = getattr(own, name), getattr(fresh, name)
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
        assert (own.s_h, own.panel.n) == (fresh.s_h, fresh.panel.n)

        def bias(window):
            return _bias(window, h, 2, lambda: np.array([0.7, -1.3]))

        try:
            want = bias(fresh)
        except DvcmError as exc:
            with pytest.raises(type(exc)):
                bias(own)
            return
        assert bias(own).tobytes() == want.tobytes()

    def test_penalty_adds_only_the_derivative_window(self, count_calls):
        split, sources = _glm_problem(GAUSSIAN, 3, 4)
        problem = TransferProblem(Panel.of([split, *sources]), split, 0.0, GAUSSIAN)
        windows = count_calls(kernel_window)
        problem.pilot(0.7)
        assert windows[0] == 1
        pen = problem.penalty(0.7)
        assert np.any(pen.bias_vec != 0.0)  # the derivative was fitted
        assert windows[0] == 2  # the derivative's; the bias reads the pilot's


def _per_row_reference(panel, u0, h, l, family):
    """The pooled fit, its sandwich and its zeta moments over per-row weight
    arrays: ``W`` spread over the rows, then divided by ``s_h``."""
    design = build_local_design(panel, u0, h, l)
    win, z, y = design.window, design.z, design.y
    w_domain = np.full(win.index.size, 0.5)
    s_h = float((w_domain * win.n).sum())
    kernel_values = np.full(design.z.shape[0], 0.5)
    weights = kernel_values / s_h
    if family.kind == "gaussian":
        zw = z * weights[:, None]
        alpha = spd_solve(spd_factor(zw.T @ z, "reference"), zw.T @ y)
    else:
        try:
            start = fit_target_only(panel[int(np.argmin(np.abs(panel.u - u0)))], family)
        except SingularSystemError:
            start = 0.0
        init = np.zeros(z.shape[1])
        init[: panel.p] = start
        alpha = newton_weighted(z, weights, y, family, init)[0]
    nh = panel.n * h
    s1, s2 = family.score_curvature(z @ alpha, y)
    c = spd_factor(gram(z, s2 * kernel_values) / nh, "reference")
    inner = spd_solve(c, spd_solve(c, gram(z, (s1 * kernel_values) ** 2) / nh**2).T)
    v = inner[: panel.p, : panel.p]
    n, t, w = win.n.tolist(), win.t.tolist(), w_domain.tolist()
    zetas = []
    for r, s in ((0, 1), (2, 1), (1, 2)):
        acc = np.zeros((l + 1, l + 1))
        for nk, tk, wk, phi in zip(n, t, w, win.phi):
            acc = acc + nk * (tk**r) * (wk**s) * (phi[:, None] * phi[None, :])
        zetas.append(acc / (panel.n * h))
    return s_h, alpha, 0.5 * (v + v.T), zetas


class TestScalarWeightEqualsPerRowArrays:
    """The one design weight ``W / s_h`` gives the bytes per-row weights gave."""

    @given(st.sampled_from([GAUSSIAN, LOGISTIC, POISSON]), st.integers(0, 2**32 - 1),
           st.integers(1, 5), st.sampled_from([0.2, 0.35, 0.7, 2.0]), st.integers(0, 2))
    @settings(max_examples=80, deadline=None)
    def test_fit_sandwich_and_zetas(self, family, seed, K, h, l):
        from dvcm.errors import DvcmError

        split, sources = _glm_problem(family, seed, K)
        panel = Panel.of([split, *sources])
        try:
            s_h, alpha, var, zetas = _per_row_reference(panel, 0.0, h, l, family)
        except DvcmError as exc:
            with pytest.raises(type(exc)):
                estimate_variance_sandwich(fit_dvcm(panel, 0.0, h, l, family), family)
            return
        fit = fit_dvcm(panel, 0.0, h, l, family)
        assert fit.design.window.s_h == s_h
        assert fit.alpha.tobytes() == alpha.tobytes()
        assert estimate_variance_sandwich(fit, family).tobytes() == var.tobytes()
        got = zeta_hat(fit.design.window, h, (0, 1), (2, 1), (1, 2))
        assert [g.tobytes() for g in got] == [z.tobytes() for z in zetas]
