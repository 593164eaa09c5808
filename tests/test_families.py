import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcm.errors import DomainError
from dvcm.families import GAUSSIAN, LOGISTIC, POISSON, get_family

FAMILIES = [GAUSSIAN, LOGISTIC, POISSON]


class TestLossExamples:
    def test_gaussian_half_square(self):
        assert GAUSSIAN.loss(2.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_logistic_log2(self):
        assert LOGISTIC.loss(0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_poisson_zero_count(self):
        assert POISSON.loss(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(DomainError):
            GAUSSIAN.loss(np.inf, 0.0)
        with pytest.raises(DomainError):
            LOGISTIC.loss(0.0, np.nan)


class TestDerivativeExamples:
    def test_logistic_curvature_at_zero(self):
        _, s2, _ = LOGISTIC.loss_derivatives(0.0, 0.7)
        assert s2 == pytest.approx(0.25, abs=1e-15)

    def test_gaussian(self):
        s1, s2, s3 = GAUSSIAN.loss_derivatives(3.0, 1.0)
        assert (s1, s2, s3) == (2.0, 1.0, 0.0)

    def test_poisson(self):
        s1, s2, s3 = POISSON.loss_derivatives(1.0, 2.0)
        e = math.e
        assert s1 == pytest.approx(e - 2.0, rel=1e-14)
        assert s2 == pytest.approx(e, rel=1e-14)
        assert s3 == pytest.approx(e, rel=1e-14)


def _finite_diff(f, eta, eps):
    return (f(eta + eps) - f(eta - eps)) / (2.0 * eps)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_derivatives_match_finite_differences(family):
    # s1 from loss, s2 from s1, s3 from s2, on a grid of 100 (eta, y) pairs
    rng = np.random.default_rng(7)
    etas = rng.uniform(-4.0, 4.0, 100)
    ys = rng.integers(0, 5, 100).astype(float)
    if family.kind == "logistic":
        ys = (ys > 2).astype(float)
    eps = 1e-5
    for eta, y in zip(etas, ys):
        s1, s2, s3 = family.loss_derivatives(eta, y)
        fd1 = _finite_diff(lambda e: family.loss(e, y), eta, eps)
        fd2 = _finite_diff(lambda e: family.loss_derivatives(e, y)[0], eta, eps)
        fd3 = _finite_diff(lambda e: family.loss_derivatives(e, y)[1], eta, eps)
        scale1 = max(1.0, abs(s1))
        assert abs(s1 - fd1) / scale1 < 1e-6
        assert abs(s2 - fd2) / max(1.0, abs(s2)) < 1e-6
        assert abs(s3 - fd3) / max(1.0, abs(s3)) < 1e-5


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
@given(
    eta1=st.floats(-20, 20),
    eta2=st.floats(-20, 20),
    lam=st.floats(0.0, 1.0),
    y=st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_loss_convexity(family, eta1, eta2, lam, y):
    yv = float(y if family.kind != "logistic" else y % 2)
    mix = lam * eta1 + (1.0 - lam) * eta2
    lhs = family.loss(mix, yv)
    rhs = lam * family.loss(eta1, yv) + (1.0 - lam) * family.loss(eta2, yv)
    assert lhs <= rhs + 1e-12 + 1e-12 * abs(rhs)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_score_curvature_is_b1_and_b2_bit_for_bit(family):
    rng = np.random.default_rng(3)
    eta = np.concatenate([rng.uniform(-40.0, 40.0, 500), [0.0, -0.0, 1e-300, 36.0]])
    y = rng.integers(0, 2, eta.size).astype(float)
    s1, s2 = family.score_curvature(eta, y)
    assert s1.tobytes() == (family.b1(eta) - y).tobytes()
    assert s2.tobytes() == family.b2(eta).tobytes()
    t1, t2, t3 = family.loss_derivatives(eta, y)
    assert (t1.tobytes(), t2.tobytes()) == (s1.tobytes(), s2.tobytes())
    assert t3.tobytes() == family.b3(eta).tobytes()
    with pytest.raises(DomainError):
        family.score_curvature(np.array([0.0, np.nan]), np.zeros(2))


class TestCheckResponse:
    @pytest.mark.parametrize("family,y,bad", [
        (LOGISTIC, [0.0, 1.0, 0.5, 1.5, -1.0], 1.5),
        (LOGISTIC, [1.0, -0.25, 2.0], -0.25),
        (POISSON, [0.0, 3.0, -2.0, -5.0], -2.0),
    ], ids=["logistic_above", "logistic_below", "poisson"])
    def test_names_the_family_and_the_first_bad_value(self, family, y, bad):
        with pytest.raises(DomainError, match=rf"the {family.kind} family .*, got {bad!r}$"):
            family.check_response(np.array(y))

    def test_support_is_accepted(self):
        LOGISTIC.check_response(np.array([0.0, 1.0, 0.25]))
        POISSON.check_response(np.array([0.0, 7.5, 1e300]))
        GAUSSIAN.check_response(np.array([-1e300, -0.5, 2.0]))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
def test_b2_nonnegative(family):
    etas = np.linspace(-50, 50, 201)
    assert np.all(family.b2(etas) >= 0)


def test_logistic_stable_for_large_eta():
    # naive exp would overflow past |eta| ~ 709; stable form must not
    assert np.isfinite(LOGISTIC.loss(800.0, 0.0))
    assert LOGISTIC.loss(800.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert LOGISTIC.loss(-800.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_get_family_tokens():
    assert get_family("gaussian") is GAUSSIAN
    assert get_family("LOGISTIC") is LOGISTIC
    with pytest.raises(ValueError):
        get_family("probit")
