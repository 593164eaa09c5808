import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcm.bandwidth import (
    gamma_moment_estimate,
    select_bandwidth,
    select_bandwidth_median,
    select_bandwidth_undersmoothed,
)
from dvcm.design import DomainSample, Panel


def sources_with(d1=0.2, dK=0.7, n_total=32):
    half = n_total // 2
    mk = lambda u, n: DomainSample(u=u, x=np.ones((n, 1)), y=np.zeros(n))
    return [mk(d1, half), mk(dK, n_total - half)]


class TestMedianRule:
    # with gamma=1 and n=32 the rate term is e0 * 32^{-1/5} = e0 / 2 exactly
    def test_rate_term_is_median(self):
        choice = select_bandwidth_median(sources_with(), 0.0, beta=2.0, gamma=1.0,
                                         e0=1.0)
        assert choice.rate_term == pytest.approx(0.5)
        assert choice.h == pytest.approx(0.5)

    def test_d1_is_median(self):
        choice = select_bandwidth_median(sources_with(), 0.0, beta=2.0, gamma=1.0,
                                         e0=0.2)
        assert choice.rate_term == pytest.approx(0.1)
        assert choice.h == pytest.approx(0.2)

    def test_dK_is_median(self):
        choice = select_bandwidth_median(sources_with(), 0.0, beta=2.0, gamma=1.0,
                                         e0=1.8)
        assert choice.rate_term == pytest.approx(0.9)
        assert choice.h == pytest.approx(0.7)

    def test_requires_sources(self):
        with pytest.raises(ValueError):
            select_bandwidth_median([], 0.0, 2.0, 1.0, 1.0)

    def test_invalid_params(self):
        for kwargs in ({"gamma": 0.0}, {"e0": 0.0}, {"beta": 0.0}, {"beta": math.inf},
                       {"beta": math.nan}):
            merged = {"beta": 2.0, "gamma": 1.0, "e0": 1.0, **kwargs}
            with pytest.raises(ValueError):
                select_bandwidth_median(sources_with(), 0.0, **merged)

    @given(e0=st.floats(0.01, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_h_between_extremes_of_candidates(self, e0):
        choice = select_bandwidth_median(sources_with(), 0.0, 2.0, 1.0, e0)
        candidates = [choice.rate_term, choice.d1, choice.dK]
        assert min(candidates) <= choice.h <= max(candidates)
        assert choice.h == pytest.approx(float(np.median(candidates)))


class TestUndersmoothed:
    def test_formula_value(self):
        # gamma=1, n=10000, beta=2, eps=0.2, c=1 -> 10000^{-1.2/5}
        src = [DomainSample(u=0.05, x=np.ones((10000, 1)), y=np.zeros(10000))]
        choice = select_bandwidth_undersmoothed(src, 0.0, beta=2.0, gamma=1.0,
                                                c=1.0, epsilon=0.2)
        assert choice.h == pytest.approx(10000.0 ** (-1.2 / 5.0), rel=1e-12)
        assert choice.h == pytest.approx(0.10964781961, rel=1e-9)
        assert not choice.clipped

    def test_epsilon_zero_is_flagged_boundary(self):
        src = [DomainSample(u=0.01, x=np.ones((100, 1)), y=np.zeros(100))]
        choice = select_bandwidth_undersmoothed(src, 0.0, 2.0, 1.0, 1.0, 0.0)
        assert choice.h == pytest.approx(choice.rate_term, rel=1e-12)
        assert choice.diagnostics.get("epsilon_boundary") is True

    def test_clipped_just_above_d1(self):
        src = [DomainSample(u=0.3, x=np.ones((10000, 1)), y=np.zeros(10000))]
        choice = select_bandwidth_undersmoothed(src, 0.0, 2.0, 1.0, 1.0, 0.2)
        assert choice.clipped
        assert choice.h > 0.3
        assert choice.h == pytest.approx(0.3, rel=1e-8)
        assert "clipped_to_d1" in choice.diagnostics

    def test_infeasible_clip_flagged_not_fatal(self):
        # d1 beyond the rate-optimal level: clip succeeds with a diagnostic
        src = [DomainSample(u=0.9, x=np.ones((10000, 1)), y=np.zeros(10000))]
        choice = select_bandwidth_undersmoothed(src, 0.0, 2.0, 1.0, 1.0, 0.2)
        assert choice.clipped and not choice.feasible
        assert "infeasible_undersmoothing" in choice.diagnostics

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": math.inf}, {"epsilon": math.nan}, {"epsilon": -0.1},
        {"beta": math.inf}, {"beta": -0.5}, {"beta": 0.0},
        {"c": math.inf}, {"gamma": math.nan},
    ])
    def test_invalid_params(self, kwargs):
        merged = {"beta": 2.0, "gamma": 1.0, "c": 1.0, "epsilon": 0.2, **kwargs}
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"{name}={value}"):
            select_bandwidth_undersmoothed(sources_with(), 0.0, **merged)

    def test_monotone_in_n_and_gamma(self):
        def h_for(n, gamma):
            src = [DomainSample(u=1e-6, x=np.ones((n, 1)), y=np.zeros(n))]
            return select_bandwidth_undersmoothed(src, 0.0, 2.0, gamma, 1.0, 0.2).h

        assert h_for(2000, 1.0) > h_for(20000, 1.0)
        assert h_for(2000, 2.0) > h_for(2000, 1.0)


def test_gamma_moment_estimate_matches_uniform_length():
    rng = np.random.default_rng(0)
    gamma = 1.8
    us = rng.uniform(-gamma / 2, gamma / 2, 4000)
    sources = [DomainSample(u=u, x=np.ones((1, 1)), y=np.zeros(1)) for u in us]
    est = gamma_moment_estimate(sources)
    assert est == pytest.approx(gamma, rel=0.05)
    assert est == pytest.approx(np.std(us, ddof=1) * np.sqrt(12.0), rel=1e-12)


class TestSelectBandwidth:
    KW = dict(e0=0.4, c=0.8, epsilon=0.3, n_extra=10)

    def test_rules_dispatch_to_their_selectors(self):
        src = sources_with()
        assert select_bandwidth("median", src, 0.0, 2.0, 1.0, **self.KW) == \
            select_bandwidth_median(src, 0.0, 2.0, 1.0, 0.4, n_extra=10)
        assert select_bandwidth("undersmoothed", src, 0.0, 2.0, 1.0, **self.KW) == \
            select_bandwidth_undersmoothed(src, 0.0, 2.0, 1.0, 0.8, 0.3, n_extra=10)

    def test_fixed_keeps_h(self):
        choice = select_bandwidth("fixed", sources_with(), 0.0, 2.0, 1.0, h=0.3,
                                  **self.KW)
        assert (choice.h, choice.rule, choice.rate_term) == (0.3, "fixed", 0.3)
        assert (choice.d1, choice.dK) == (0.2, 0.7)

    @pytest.mark.parametrize("rule", ["median", "undersmoothed", "fixed"])
    def test_panel_sources_give_the_list_result_without_views(self, rule, monkeypatch):
        src = sources_with()
        want = select_bandwidth(rule, src, 0.0, 2.0, 1.0, h=0.3, **self.KW)
        panel = Panel.of(src)

        def no_view(*args):
            raise AssertionError("a DomainSample view of the panel was built")

        monkeypatch.setattr(DomainSample, "_view", no_view)
        assert select_bandwidth(rule, panel, 0.0, 2.0, 1.0, h=0.3, **self.KW) == want

    @pytest.mark.parametrize("h", [None, 0.0, -1.0, float("nan"), float("inf"),
                                   float("-inf")])
    def test_fixed_needs_positive_h(self, h):
        with pytest.raises(ValueError, match="positive h"):
            select_bandwidth("fixed", sources_with(), 0.0, 2.0, 1.0, h=h, **self.KW)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            select_bandwidth("auto", sources_with(), 0.0, 2.0, 1.0, **self.KW)
