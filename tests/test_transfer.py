"""TransferProblem: the one transfer pipeline, and its metamorphic properties."""

import traceback

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from dvcm.bandwidth import select_bandwidth
from dvcm.design import Panel
from dvcm.errors import DomainError, SingularSystemError
from dvcm.estimators import fit_dvcm, fit_target_only, fit_tl
from dvcm.families import get_family
from dvcm.inference import TransferProblem, psi_hat, sigma_tl, v_hat_target
from dvcm.penalty import (_penalty, estimate_derivative, estimate_scale,
                          estimate_variance_sandwich)

H = 0.5  # pilot bandwidth of every fit below
N_TARGET, N_SOURCE = 40, 40
# Newton stops at gradient max-norm 1e-9, so GLM fits agree only to about that
REL = {"gaussian": 1e-8, "logistic": 1e-6}


def _theta(d):
    return np.array([0.5 + 0.8 * d, -0.4 + 0.6 * d * d])


def _draws(offsets, family, seed=0):
    """(x, y) of the two target parts (offset 0) and of one source per offset."""
    rng = np.random.default_rng(seed)

    def draw(n, d):
        x = np.column_stack([np.ones(n), rng.standard_normal(n)])
        eta = x @ _theta(d)
        if family == "gaussian":
            return x, eta + 0.5 * rng.standard_normal(n)
        if family == "poisson":
            return x, rng.poisson(np.exp(eta)).astype(float)
        return x, rng.binomial(1, expit(eta)).astype(float)

    return [draw(N_TARGET, 0.0), draw(N_TARGET, 0.0)] + [draw(N_SOURCE, d) for d in offsets]


def _problem(draws, offsets, family, u0=0.0, y_scale=1.0, order=1, gamma=1.0, e0=100.0):
    (xp, yp), (xf, yf), *sources = draws
    pooled = Panel.of([Panel.domain(u=u0, x=xp, y=y_scale * yp)]
                      + [Panel.domain(u=u0 + d, x=x, y=y_scale * y)
                         for d, (x, y) in zip(offsets, sources)])
    # e0 = 100 puts the derivative bandwidth at the farthest source, so the
    # derivative window holds every domain
    return TransferProblem(pooled, Panel.domain(u=u0, x=xf, y=y_scale * yf), u0,
                           get_family(family), order=order, gamma=gamma, e0=e0)


def _fit(problem, h=H):
    """theta_LR, theta_DVCM, theta_TL and Sigma_TL at the pilot bandwidth ``h``."""
    q = problem.penalty(h).q
    return (problem.theta_lr, problem.pilot(h).theta, problem.fine_tune(h, q).theta_tl,
            problem.covariance(h, q).sigma_tl)


def _close(got, want, rel):
    """Norm-wise relative agreement: max |got - want| <= rel * max |want|."""
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("rule, h", [("median", None), ("undersmoothed", None),
                                     ("fixed", 0.3)])
def test_bandwidth_is_select_bandwidth_on_the_problem(rule, h):
    offsets = (0.1, -0.3, 0.6)
    draws = _draws(offsets, "gaussian")
    sources = Panel.of(Panel.domain(u=0.2 + d, x=x, y=y)
                       for d, (x, y) in zip(offsets, draws[2:]))
    problem = _problem(draws, offsets, "gaussian", u0=0.2, gamma=0.7, e0=0.4)
    # the rate term counts the pilot part pooled with the sources
    want = select_bandwidth(rule, sources, 0.2, 2.0, 0.7, e0=0.4, c=0.8, epsilon=0.3,
                            n_extra=N_TARGET, h=h)
    assert problem.bandwidth(rule, c=0.8, epsilon=0.3, h=h) == want


@pytest.mark.parametrize("rule, h", [("median", None), ("fixed", 0.3)])
def test_bandwidth_rules_without_c_and_epsilon_need_neither(rule, h):
    offsets = (0.1, -0.3, 0.6)
    problem = _problem(_draws(offsets, "gaussian"), offsets, "gaussian", u0=0.2, e0=0.4)
    want = problem.bandwidth(rule, h=h)
    for c, epsilon in ((0.8, 0.3), (5.0, 0.0), (1e-3, 7.5)):
        assert problem.bandwidth(rule, c=c, epsilon=epsilon, h=h) == want


def test_problem_keeps_one_copy_of_the_sources():
    offsets = [-0.8, -0.35, 0.2, 0.45, 0.9]
    (xp, yp), (xf, yf), *draws = _draws(offsets, "gaussian")
    pooled = Panel.of([Panel.domain(u=0.0, x=xp, y=yp)]
                      + [Panel.domain(u=d, x=x, y=y) for d, (x, y) in zip(offsets, draws)])
    problem = TransferProblem(pooled, Panel.domain(u=0.0, x=xf, y=yf), 0.0,
                              get_family("gaussian"))
    assert problem.pooled is pooled  # the caller's panel, not stacked again
    for part in (problem.pilot_part, problem.sources):
        assert np.shares_memory(part.x, pooled.x) and np.shares_memory(part.y, pooled.y)
    assert problem.pilot_part.x.tobytes() == xp.tobytes()
    assert [d.u[0] for d in problem.sources] == offsets


def test_problem_needs_a_source():
    (xp, yp), (xf, yf) = _draws([], "gaussian")
    part, fine = Panel.domain(u=0.0, x=xp, y=yp), Panel.domain(u=0.0, x=xf, y=yf)
    with pytest.raises(ValueError, match="the pilot split and a source domain"):
        TransferProblem(Panel.of([part]), fine, 0.0, get_family("gaussian"))


# five sources on distinct slots of a 0.1 grid over [-1, 1] (the target owns
# slot 0), each jittered by at most 0.025: domains stay at least 0.05 apart
offsets_st = st.tuples(
    st.permutations([i for i in range(-10, 11) if i]),
    st.lists(st.floats(-0.025, 0.025), min_size=5, max_size=5),
).map(lambda slots_jitter: [0.1 * i + j for i, j in zip(*slots_jitter)])


def _assume_well_posed(offsets):
    # a source inside the pilot window, and none within 1e-6 * H of its
    # edge, where rounding could move a domain across it
    dist = np.abs(np.array(offsets))
    assume(np.any(dist < H))
    assume(np.all(np.abs(dist - H) > 1e-6 * H))


CHAIN_CASES = [(family, order) for order in (1, 0, 2)
               for family in ("gaussian", "logistic", "poisson")]


@pytest.mark.parametrize("family,order", CHAIN_CASES,
                         ids=[f if o == 1 else f"{f}-order{o}" for f, o in CHAIN_CASES])
def test_chain_equals_the_hand_wired_pipeline(family, order):
    offsets = [-0.8, -0.35, 0.2, 0.45, 0.9]
    problem = _problem(_draws(offsets, family), offsets, family, order=order)
    fam, part, fine = problem.family, problem.pilot_part, problem.fine
    sources = problem.sources
    pooled = Panel.of([part, *sources])

    pilot = fit_dvcm(pooled, 0.0, H, order, fam)
    assert pilot.converged
    h_deriv = select_bandwidth("median", sources, 0.0, 2.0, 1.0, e0=100.0,
                               n_extra=part.n).h
    scale = estimate_scale(part, fit_target_only(part, fam), fam)
    pen = _penalty(pilot, 2.0, 1.0, scale, fine.n,
                   lambda: estimate_derivative(pooled, 0.0, h_deriv, 2, fam),
                   lambda: estimate_variance_sandwich(pilot, fam))
    theta_tl = fit_tl(fine, pilot.theta, pen.q, fam).theta_tl
    theta_lr = fit_target_only(fine, fam)
    psi = psi_hat(fine, theta_lr, fam)
    cov = sigma_tl(psi, pen.q, v_hat_target(fine, theta_lr, psi, fam),
                   estimate_variance_sandwich(pilot, fam))

    for got, want in zip(_fit(problem), (theta_lr, pilot.theta, theta_tl, cov.sigma_tl)):
        assert np.array_equal(got, want)
    assert problem.h_deriv == h_deriv


@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
def test_full_target_equals_the_hand_wired_fit_estimates(family):
    offsets = [-0.8, -0.35, 0.2, 0.45, 0.9]
    problem = _problem(_draws(offsets, family), offsets, family)
    part, fine, fam = problem.pilot_part, problem.fine, problem.family
    # the sequence `dvcm fit` ran itself before the problem gave these estimates
    train = Panel.domain(u=0.0, x=np.vstack([part.x, fine.x]),
                         y=np.concatenate([part.y, fine.y]))
    theta_lr = fit_target_only(train, fam)
    theta_dvcm = fit_dvcm(Panel.of([train, *problem.sources]), 0.0, H, 1, fam,
                          theta_lr).theta
    got_lr, got_dvcm = problem.full_target(H)
    assert got_lr.tobytes() == theta_lr.tobytes()
    assert got_dvcm.tobytes() == theta_dvcm.tobytes()


@pytest.mark.parametrize("family,bad", [("logistic", 2.0), ("logistic", -0.5),
                                        ("poisson", -1.0)])
def test_every_entry_checks_the_response_against_the_family(family, bad):
    offsets = [-0.8, -0.35, 0.2, 0.45, 0.9]
    problem = _problem(_draws(offsets, family), offsets, family)
    fam, part, fine, sources = problem.family, problem.pilot_part, problem.fine, problem.sources
    y = fine.y.copy()
    y[3] = bad
    spoiled = Panel.domain(u=0.0, x=fine.x, y=y)
    entries = {
        "fit_target_only": lambda: fit_target_only(spoiled, fam),
        "fit_dvcm": lambda: fit_dvcm(Panel.of([spoiled, *sources]), 0.0, H, 1, fam),
        "fit_tl": lambda: fit_tl(spoiled, problem.theta_lr, np.eye(2), fam),
        "TransferProblem fine": lambda: TransferProblem(Panel.of([part, *sources]), spoiled,
                                                        0.0, fam),
        "TransferProblem pooled": lambda: TransferProblem(Panel.of([spoiled, *sources]), fine,
                                                          0.0, fam),
    }
    for call in entries.values():
        with pytest.raises(DomainError, match=rf"the {family} family .*, got {bad!r}$"):
            call()


def test_singular_pilot_split_starts_the_pooled_fit_from_zeros():
    """A logistic pilot split of 2 rows cannot fit 3 coefficients: the pooled
    pilot then starts Newton from zeros instead of from theta_glr."""
    rng = np.random.default_rng(5)
    fam = get_family("logistic")

    def domain(u, n):
        x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        return Panel.domain(u=u, x=x, y=rng.binomial(1, expit(x @ [0.3, -0.5, 0.8])) * 1.0)

    sources = [domain(u, 60) for u in (-0.3, 0.2, 0.4)]
    part = Panel.domain(u=0.0, x=np.array([[1.0, 0.2, -0.1], [1.0, -0.7, 0.5]]),
                        y=np.array([0.0, 1.0]))
    problem = TransferProblem(Panel.of([part, *sources]), domain(0.0, 40), 0.0, fam)
    with pytest.raises(SingularSystemError):
        problem.theta_glr
    want = fit_dvcm(problem.pooled, 0.0, H, 1, fam, np.zeros(3))
    assert want.converged
    assert problem.pilot(H).theta.tobytes() == want.theta.tobytes()
    # Newton stops near the optimum, where it stops depends on the start
    other = fit_dvcm(problem.pooled, 0.0, H, 1, fam, np.full(3, 0.1))
    assert other.theta.tobytes() != want.theta.tobytes()


def test_penalty_of_a_foreign_pilot_locates_its_own_window(count_calls):
    """The same fit as pilot(H), on a panel the problem does not own, locates
    its own window; the penalty reads that one and gives the problem's bytes."""
    from dvcm import design

    offsets = [-0.8, -0.35, 0.2, 0.45, 0.9]
    problem = _problem(_draws(offsets, "gaussian"), offsets, "gaussian")
    want = problem.penalty(H)
    windows = count_calls(design.kernel_window)
    foreign = fit_dvcm(Panel.of([problem.pilot_part, *problem.sources]), 0.0, H, 1,
                       problem.family)
    assert windows[0] == 1
    assert foreign.design.window.panel is not problem.pooled
    got = _penalty(foreign, problem.beta, problem.delta, problem.scale, problem.fine.n,
                   lambda: problem.derivative,
                   lambda: estimate_variance_sandwich(foreign, problem.family))
    assert windows[0] == 1  # no second window: the penalty reads the pilot's own
    for name in ("q", "bias_vec", "var_mat"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _variant(**kwargs):
    """The gaussian problem of the fixed offsets with other ``kwargs``."""
    offsets = [-0.8, -0.35, 0.2, 0.45, 0.9]
    plain = _problem(_draws(offsets, "gaussian"), offsets, "gaussian")
    return TransferProblem(plain.pooled, plain.fine, 0.0, plain.family,
                           **{"e0": 100.0, **kwargs})


def test_pilot_keeps_its_latest_outcome_an_error_without_its_frames(count_calls):
    """pilot(h) at the h it was last asked about returns or raises again without
    refitting; another h replaces the kept outcome.  A kept error holds no frame
    of the failed fit, whose design would otherwise stay alive with it."""
    problem = _variant()
    fits = count_calls(fit_dvcm)
    errors = []
    for _ in range(2):  # at h = 1e-6 the window holds the pilot split alone
        with pytest.raises(SingularSystemError) as err:
            problem.pilot(1e-6)
        errors.append(err.value)
        frames = [frame.name for frame in traceback.extract_tb(err.value.__traceback__)]
        assert "fit_dvcm" not in frames
    assert errors[0] is errors[1] and fits[0] == 1
    assert problem.pilot(H) is problem.pilot(H) and fits[0] == 2
    with pytest.raises(SingularSystemError):
        problem.pilot(1e-6)
    assert fits[0] == 3


@pytest.mark.parametrize("delta", [0.5, 2.0, 3.0])
def test_penalty_checks_delta_on_every_call(delta):
    problem = _variant(delta=delta)
    for _ in range(2):
        with pytest.raises(ValueError, match="delta must lie in"):
            problem.penalty(H)


def test_penalty_of_a_fractional_beta_has_no_bias():
    problem = _variant(beta=1.5)
    pen = problem.penalty(H)
    assert not pen.bias_vec.any()
    assert pen.diagnostics == {"bias_skipped_noninteger_beta": 1.5}


@pytest.mark.parametrize("family", ["gaussian", "logistic"])
@given(offsets=offsets_st, c=st.floats(-5.0, 5.0))
@settings(max_examples=25, deadline=None)
def test_joint_shift_of_u_and_u0_changes_nothing(family, offsets, c):
    _assume_well_posed(offsets)
    draws = _draws(offsets, family)
    shifted = _fit(_problem(draws, offsets, family, u0=c))
    for got, want in zip(shifted, _fit(_problem(draws, offsets, family))):
        assert _close(got, want, REL[family])


@pytest.mark.parametrize("family", ["gaussian", "logistic"])
@given(offsets=offsets_st, perm=st.permutations(range(5)))
@settings(max_examples=25, deadline=None)
def test_source_order_changes_nothing(family, offsets, perm):
    _assume_well_posed(offsets)
    draws = _draws(offsets, family)
    permuted = draws[:2] + [draws[2 + i] for i in perm]
    got_all = _fit(_problem(permuted, [offsets[i] for i in perm], family))
    for got, want in zip(got_all, _fit(_problem(draws, offsets, family))):
        assert _close(got, want, REL[family])


@given(offsets=offsets_st, s=st.floats(0.01, 100.0))
@settings(max_examples=25, deadline=None)
def test_gaussian_y_scale_scales_estimates_and_sigma(offsets, s):
    _assume_well_posed(offsets)
    draws = _draws(offsets, "gaussian")
    *thetas, sigma = _fit(_problem(draws, offsets, "gaussian"))
    *thetas_s, sigma_s = _fit(_problem(draws, offsets, "gaussian", y_scale=s))
    for got, want in zip(thetas_s, thetas):
        assert _close(got, s * want, REL["gaussian"])
    assert _close(sigma_s, s * s * sigma, REL["gaussian"])


# u -> c u, with u0, h and gamma alike, leaves every t = (u - u0) / h, and so
# every fit, the same.  The bias h^beta theta^(beta)(u0) / beta! is the same
# too if the derivative bandwidth scales by c: the median rule's rate term
# e0 (n / gamma)^(-1 / (2 beta + 1)) does so only when e0 takes the factor
# c^(2 beta / (2 beta + 1)) as well.  At e0 = 1.5 that term is the median,
# 0.50 between d_(1) = 0.2 and d_(K) = 0.9, so the factor is needed.
@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
@pytest.mark.parametrize("c", [4.0, 0.3])
def test_joint_scaling_of_u_u0_h_and_gamma_changes_nothing(family, c):
    offsets, u0, e0, h = [-0.8, -0.35, 0.2, 0.45, 0.9], 0.3, 1.5, 0.4
    draws = _draws(offsets, family)
    plain = _problem(draws, offsets, family, u0=u0, e0=e0)
    beta = plain.beta
    scaled = _problem(draws, [c * d for d in offsets], family, u0=c * u0, gamma=c * plain.gamma,
                      e0=e0 * c ** (2 * beta / (2 * beta + 1)))
    assert 0.2 < plain.h_deriv < 0.9
    assert scaled.h_deriv == pytest.approx(c * plain.h_deriv, rel=1e-14)
    for got, want in zip(_fit(scaled, c * h), _fit(plain, h)):
        assert _close(got, want, 1e-12)


# X -> XA leaves eta, and so every fit, the same up to the change of
# coordinates: theta_hat -> A^-1 theta_hat, Q_hat -> A' Q_hat A and
# Sigma_TL -> A^-1 Sigma_TL A^-T.  Gaussian fits are closed-form solves and
# agree to round-off, about eps * cond(A) * cond(Gram), under 1e-13 here.
# GLM fits stop at gradient max-norm 1e-9 in their own coordinates, which
# differ by A', so their optima agree only to about ||H^-1|| * 1e-9: at most
# 2e-8 relative in 120 seeded draws.
REPARAM_REL = {"gaussian": 1e-11, "logistic": 1e-6, "poisson": 1e-6}


# A = R(phi) diag(d) is well conditioned by construction, cond(A) = max(d) / min(d)
# <= 10, and with |sin phi| and |cos phi| >= sin 0.2 its off-diagonals are at least
# 0.19 in size, so the intercept is mixed into both columns of XA.
angle_st = st.floats(0.2, np.pi / 2 - 0.2) | st.floats(np.pi / 2 + 0.2, np.pi - 0.2)


@pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
@given(offsets=offsets_st, phi=angle_st, d=st.lists(st.floats(1.0, 10.0), min_size=2,
                                                     max_size=2))
@settings(max_examples=25, deadline=None)
def test_covariate_reparameterisation_transforms_estimates_and_sigma(family, offsets, phi, d):
    _assume_well_posed(offsets)
    a = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]) @ np.diag(d)
    draws = _draws(offsets, family)
    *thetas, sigma = _fit(_problem(draws, offsets, family))
    *thetas_a, sigma_a = _fit(_problem([(x @ a, y) for x, y in draws], offsets, family))
    a_inv = np.linalg.inv(a)
    for got, want in zip(thetas_a, thetas):
        assert _close(got, a_inv @ want, REPARAM_REL[family])
    assert _close(sigma_a, a_inv @ sigma @ a_inv.T, REPARAM_REL[family])


def test_pipeline_never_evaluates_the_third_derivative():
    import dataclasses

    def b3(eta):
        raise AssertionError("the third cumulant derivative was evaluated")

    offsets = [-0.8, -0.35, 0.2, 0.45, 0.9]
    draws = _draws(offsets, "logistic")
    plain = _problem(draws, offsets, "logistic")
    fam = dataclasses.replace(plain.family, b3=b3)
    problem = TransferProblem(plain.pooled, plain.fine, 0.0, fam, e0=100.0)
    for got, want in zip(_fit(problem), _fit(plain)):
        assert np.array_equal(got, want)
