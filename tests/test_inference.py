import math

import numpy as np
import pytest

from dvcm.design import Panel
from dvcm.errors import SingularSystemError
from dvcm.families import GAUSSIAN, LOGISTIC
from dvcm.inference import (
    chi2_sf,
    confidence_intervals,
    contrast_test,
    normal_quantile,
    psi_hat,
    sigma_tl,
    v_hat_target,
    wald_test,
)


# ---------------------------------------------------------------------------
# independent tail-probability oracle: regularised upper incomplete gamma via
# power series / Lentz continued fraction (no scipy, no library code)
# ---------------------------------------------------------------------------

def _upper_gamma_q(a, x):
    if x < a + 1.0:
        # lower series P(a, x), then Q = 1 - P
        term = 1.0 / a
        total = term
        for k in range(1, 500):
            term *= x / (a + k)
            total += term
            if abs(term) < 1e-16 * abs(total):
                break
        p = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return 1.0 - p
    # continued fraction for Q(a, x)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return f * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf_oracle(x, df):
    return _upper_gamma_q(df / 2.0, x / 2.0)


class TestTailProbabilities:
    def test_chi2_against_series_oracle(self):
        for df in (1, 2, 4, 7):
            for x in (0.5, 1.0, 4.0, 10.0, 25.0):
                assert chi2_sf(x, df) == pytest.approx(chi2_sf_oracle(x, df),
                                                       rel=1e-10)

    def test_chi2_below_zero_is_one(self):
        for df in (1, 3):
            assert chi2_sf(-0.5, df) == 1.0

    def test_chi2_one_df_at_four(self):
        assert chi2_sf(4.0, 1) == pytest.approx(0.0455002638963584, rel=1e-10)

    def test_normal_quantile_975(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-12)


class TestPsiHat:
    def test_gaussian_half_identity(self):
        dom = Panel.domain(u=0.0, x=np.array([[1.0, 0.0], [0.0, 1.0]]),
                           y=np.zeros(2))
        assert np.allclose(psi_hat(dom, np.zeros(2), GAUSSIAN), 0.5 * np.eye(2))

    def test_logistic_quarter_weighting(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(9, 2))
        dom = Panel.domain(u=0.0, x=x, y=np.zeros(9))
        got = psi_hat(dom, np.zeros(2), LOGISTIC)
        assert np.allclose(got, 0.25 * x.T @ x / 9)

    def test_single_row_outer_product(self):
        x = np.array([[2.0, -1.0]])
        dom = Panel.domain(u=0.0, x=x, y=np.zeros(1))
        theta = np.array([0.3, 0.7])
        b2 = LOGISTIC.b2(float(x[0] @ theta))
        assert np.allclose(psi_hat(dom, theta, LOGISTIC), b2 * np.outer(x[0], x[0]))


class TestVHatTarget:
    def test_perfect_fit_zero(self):
        x = np.array([[1.0, 0.2], [1.0, -0.4], [1.0, 1.1]])
        theta = np.array([0.5, 2.0])
        dom = Panel.domain(u=0.0, x=x, y=x @ theta)
        assert np.allclose(v_hat_target(dom, theta, psi_hat(dom, theta, GAUSSIAN), GAUSSIAN), 0.0)

    def test_intercept_only_matches_sigma2_over_n(self):
        rng = np.random.default_rng(1)
        n = 50
        x = np.ones((n, 1))
        y = rng.normal(size=n)
        dom = Panel.domain(u=0.0, x=x, y=y)
        theta = np.array([np.mean(y)])
        resid = y - theta[0]
        want = np.mean(resid**2) / n
        psi = psi_hat(dom, theta, GAUSSIAN)
        assert v_hat_target(dom, theta, psi, GAUSSIAN)[0, 0] == pytest.approx(want, rel=1e-12)

    def test_residual_scaling(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 2))
        theta = np.array([1.0, -1.0])
        noise = rng.normal(size=30)
        d1 = Panel.domain(u=0, x=x, y=x @ theta + noise)
        d3 = Panel.domain(u=0, x=x, y=x @ theta + 3 * noise)
        v1 = v_hat_target(d1, theta, psi_hat(d1, theta, GAUSSIAN), GAUSSIAN)
        v3 = v_hat_target(d3, theta, psi_hat(d3, theta, GAUSSIAN), GAUSSIAN)
        assert np.allclose(v3, 9.0 * v1, rtol=1e-10)


class TestSigmaTl:
    def test_zero_penalty_returns_target_variance(self):
        rng = np.random.default_rng(3)
        p = 3
        a = rng.normal(size=(p, p))
        psi = a @ a.T + np.eye(p)
        v_lr = rng.normal(size=(p, p))
        v_lr = v_lr @ v_lr.T
        v_dvcm = np.eye(p)
        rep = sigma_tl(psi, np.zeros((p, p)), v_lr, v_dvcm)
        assert np.allclose(rep.sigma_tl, v_lr, atol=1e-12)

    def test_scalar_all_ones(self):
        rep = sigma_tl(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
        assert rep.sigma_tl[0, 0] == pytest.approx(0.5)
        assert rep.b_q[0, 0] == pytest.approx(2.0)

    def test_dominant_penalty_returns_pilot_variance(self):
        rng = np.random.default_rng(4)
        p = 2
        psi = np.eye(p) + 0.1 * np.ones((p, p))
        v_lr = 0.3 * np.eye(p)
        m = rng.normal(size=(p, p))
        v_dvcm = m @ m.T + 0.5 * np.eye(p)
        rep = sigma_tl(psi, 1e8 * np.eye(p), v_lr, v_dvcm)
        assert np.max(np.abs(rep.sigma_tl - v_dvcm)) < 1e-6

    def test_definitional_identity(self):
        rng = np.random.default_rng(5)
        p = 3
        make_psd = lambda: (lambda m: m @ m.T + 0.2 * np.eye(p))(rng.normal(size=(p, p)))
        psi, q, v_lr, v_dvcm = make_psd(), make_psd(), make_psd(), make_psd()
        rep = sigma_tl(psi, q, v_lr, v_dvcm)
        b_inv = np.linalg.inv(psi + q)
        want = b_inv @ q @ v_dvcm @ q @ b_inv + b_inv @ psi @ v_lr @ psi @ b_inv
        assert np.max(np.abs(rep.sigma_tl - want)) < 1e-10
        assert np.allclose(rep.sigma_tl, rep.sigma_tl.T)

    def test_permutation_congruence_invariance(self):
        rng = np.random.default_rng(6)
        p = 4
        make_psd = lambda: (lambda m: m @ m.T + 0.2 * np.eye(p))(rng.normal(size=(p, p)))
        psi, q, v_lr, v_dvcm = make_psd(), make_psd(), make_psd(), make_psd()
        perm = rng.permutation(p)
        pm = np.eye(p)[perm]
        base = sigma_tl(psi, q, v_lr, v_dvcm).sigma_tl
        permuted = sigma_tl(pm @ psi @ pm.T, pm @ q @ pm.T, pm @ v_lr @ pm.T,
                            pm @ v_dvcm @ pm.T).sigma_tl
        assert np.allclose(permuted, pm @ base @ pm.T, atol=1e-12)

    def test_scalar_trace_bounded_by_limit_envelope(self):
        # the q=0 and q->inf paths give v_lr and v_dvcm; intermediate q
        # stays below the larger limit and above the inverse-variance
        # combination bound v_lr v_dvcm / (v_lr + v_dvcm)
        psi = np.eye(1)
        v_lr, v_dvcm = 0.4, 0.1
        lower = v_lr * v_dvcm / (v_lr + v_dvcm)
        for q in (0.0, 0.5, 2.0, 4.0, 100.0):
            s = sigma_tl(psi, q * np.eye(1), np.array([[v_lr]]),
                         np.array([[v_dvcm]])).sigma_tl[0, 0]
            assert lower - 1e-12 <= s <= max(v_lr, v_dvcm) + 1e-12


class TestWald:
    def test_null_equals_estimate(self):
        stat, df, p = wald_test(np.array([1.0, 2.0]), np.eye(2), np.array([1.0, 2.0]))
        assert stat == 0.0 and df == 2 and p == 1.0

    def test_scalar_chi2_value(self):
        stat, df, p = wald_test(np.array([2.0]), np.eye(1), np.array([0.0]))
        assert stat == pytest.approx(4.0)
        assert df == 1
        assert p == pytest.approx(0.0455002638963584, rel=1e-9)

    def test_covariance_rescaling_divides_statistic(self):
        theta = np.array([1.0, -0.5])
        null = np.array([0.2, 0.1])
        sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
        s1, _, _ = wald_test(theta, sigma, null)
        s2, _, _ = wald_test(theta, 5.0 * sigma, null)
        assert s2 == pytest.approx(s1 / 5.0, rel=1e-12)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(7)
        p = 3
        theta = rng.normal(size=p)
        null = rng.normal(size=p)
        m = rng.normal(size=(p, p))
        sigma = m @ m.T + 0.5 * np.eye(p)
        a = rng.normal(size=(p, p)) + 2 * np.eye(p)
        s1, _, _ = wald_test(theta, sigma, null)
        s2, _, _ = wald_test(a @ theta, a @ sigma @ a.T, a @ null)
        assert s2 == pytest.approx(s1, rel=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wald_test(np.zeros(2), np.eye(2), np.zeros(3))

    def test_singular_sigma(self):
        with pytest.raises(SingularSystemError):
            wald_test(np.zeros(2), np.zeros((2, 2)), np.ones(2))


class TestContrast:
    def test_null_holds(self):
        z, p = contrast_test(np.array([1.0, 2.0]), np.eye(2), np.array([1.0, 0.0]),
                             1.0)
        assert z == 0.0 and p == pytest.approx(1.0)

    def test_z_at_05_level(self):
        z, p = contrast_test(np.array([1.959963984540054]), np.eye(1),
                             np.array([1.0]), 0.0)
        assert p == pytest.approx(0.05, rel=1e-9)

    def test_sign_flip(self):
        theta = np.array([0.7, -0.3])
        sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
        v = np.array([1.0, 1.0])
        z1, p1 = contrast_test(theta, sigma, v, 0.1)
        z2, p2 = contrast_test(theta, sigma, -v, -0.1)
        assert z2 == pytest.approx(-z1)
        assert p2 == pytest.approx(p1)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            contrast_test(np.array([1.0]), np.zeros((1, 1)), np.array([1.0]), 0.0)


class TestConfidenceIntervals:
    def test_standard_normal_quantiles(self):
        ci = confidence_intervals(np.zeros(1), np.eye(1), 0.95)
        assert ci[0, 0] == pytest.approx(-1.959963984540054, rel=1e-12)
        assert ci[0, 1] == pytest.approx(1.959963984540054, rel=1e-12)

    def test_width_grows_with_level(self):
        widths = []
        for level in (0.5, 0.9, 0.99, 0.999):
            ci = confidence_intervals(np.zeros(2), np.eye(2), level)
            widths.append(ci[0, 1] - ci[0, 0])
        assert all(b > a for a, b in zip(widths, widths[1:]))

    def test_degenerate_variance_point_interval(self):
        ci = confidence_intervals(np.array([2.0]), np.zeros((1, 1)), 0.95)
        assert ci[0, 0] == ci[0, 1] == 2.0

    def test_symmetric_about_estimate(self):
        rng = np.random.default_rng(8)
        theta = rng.normal(size=3)
        m = rng.normal(size=(3, 3))
        sigma = m @ m.T + np.eye(3)
        ci = confidence_intervals(theta, sigma, 0.9)
        assert np.allclose(ci.mean(axis=1), theta)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            confidence_intervals(np.zeros(1), np.eye(1), 1.0)
