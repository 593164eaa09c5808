import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcm.design import (
    DomainSample,
    build_local_design,
    domain_distances,
    kernel_window,
    poly_features,
    uniform_kernel,
)
from dvcm.errors import EmptyWindowError


def make_domain(u, x, y=None):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if y is None:
        y = np.zeros(x.shape[0])
    return DomainSample(u=u, x=x, y=np.asarray(y, dtype=float))


class TestUniformKernel:
    def test_center(self):
        assert uniform_kernel(0.0) == 0.5

    def test_boundary_included(self):
        assert uniform_kernel(1.0) == 0.5
        assert uniform_kernel(-1.0) == 0.5

    def test_outside(self):
        assert uniform_kernel(1.0001) == 0.0

    @given(st.floats(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_support(self, t):
        w = float(uniform_kernel(t))
        assert w == (0.5 if abs(t) <= 1.0 else 0.0)


class TestPolyFeatures:
    def test_at_zero(self):
        assert np.allclose(poly_features(0.0, 3), [1, 0, 0, 0])

    def test_factorial_scaling(self):
        assert np.allclose(poly_features(1.0, 2), [1.0, 1.0, 0.5])

    def test_negative(self):
        assert np.allclose(poly_features(-0.5, 1), [1.0, -0.5])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            poly_features(0.5, -1)

    @given(st.floats(-3, 3), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_leading_one(self, t, l):
        assert poly_features(t, l)[0] == 1.0


class TestBuildLocalDesign:
    def test_single_domain_order_zero(self):
        dom = make_domain(0.3, [[1.0, 2.0]], [5.0])
        d = build_local_design([dom], u0=0.3, h=0.1, l=0)
        assert np.allclose(d.z, [[1.0, 2.0]])
        assert np.allclose(d.weights, [1.0])
        assert d.s_h == pytest.approx(0.5)
        assert d.n_total == 1

    def test_out_of_window_domain_dropped(self):
        near = make_domain(0.0, [[1.0]], [1.0])
        far = make_domain(0.5, [[1.0]], [2.0])  # |t| = 2 -> zero weight
        d = build_local_design([near, far], u0=0.0, h=0.25, l=0)
        assert d.n_rows == 1
        assert d.row_domain.tolist() == [0]
        assert d.n_total == 2  # still counted in the (nh) scalings

    def test_two_domains_order_one(self):
        # hand evaluation: t = +-0.5, Phi_1 = (1, +-0.5), scalar X = 1
        a = make_domain(0.5, [[1.0]], [0.0])
        b = make_domain(-0.5, [[1.0]], [0.0])
        d = build_local_design([a, b], u0=0.0, h=1.0, l=1)
        assert np.allclose(sorted(d.z[:, 1]), [-0.5, 0.5])
        assert np.allclose(d.z[:, 0], [1.0, 1.0])
        assert np.allclose(d.weights, [0.5, 0.5])  # 0.25 / 0.5 each raw/total
        assert d.s_h == pytest.approx(1.0)

    def test_empty_window_error_with_hint(self):
        doms = [make_domain(0.4, [[1.0]]), make_domain(-0.9, [[1.0]])]
        with pytest.raises(EmptyWindowError) as exc:
            build_local_design(doms, u0=0.0, h=0.1, l=0)
        assert exc.value.d1 == pytest.approx(0.4)

    def test_weights_normalised_and_positive_row_count(self):
        rng = np.random.default_rng(3)
        doms = [
            make_domain(u, rng.normal(size=(n, 2)), rng.normal(size=n))
            for u, n in [(0.0, 3), (0.4, 5), (0.9, 2), (2.0, 7)]
        ]
        h = 1.0
        d = build_local_design(doms, u0=0.0, h=h, l=1)
        in_window = sum(dom.n for dom in doms if abs(dom.u) <= h)
        assert d.n_rows == in_window
        assert d.weights.sum() == pytest.approx(1.0)

    def test_kronecker_block_structure(self):
        rng = np.random.default_rng(11)
        doms = [
            make_domain(u, rng.normal(size=(4, 3)), rng.normal(size=4))
            for u in (-0.3, 0.1, 0.6)
        ]
        l, h = 2, 1.0
        d = build_local_design(doms, u0=0.0, h=h, l=l)
        p = 3
        for i in range(d.n_rows):
            row = d.z[i].reshape(l + 1, p)
            t = (doms[d.row_domain[i]].u - 0.0) / h
            phi = poly_features(t, l)
            for j in range(l + 1):
                assert np.allclose(row[j], phi[j] * row[0] / phi[0])
        # leading p coordinates equal the X row itself
        assert np.allclose(d.z[:, :p], np.vstack([dom.x for dom in doms]))

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            build_local_design([make_domain(0.0, [[1.0]])], 0.0, 0.0, 1)


def _kron_design(domains, u0, h, l):
    """The per-domain construction: one ``np.kron`` block per in-window domain."""
    z, y, kv, idx, s_h = [], [], [], [], 0.0
    for k, dom in enumerate(domains):
        t = (dom.u - u0) / h
        w = float(uniform_kernel(t))
        if w == 0.0:
            continue
        s_h += w * dom.n
        z.append(np.kron(poly_features(t, l), dom.x))
        y.append(dom.y)
        kv.append(np.full(dom.n, w))
        idx.append(np.full(dom.n, k, dtype=int))
    kv = np.concatenate(kv)
    return dict(z=np.vstack(z), y=np.concatenate(y), weights=kv / s_h,
                kernel_values=kv, row_domain=np.concatenate(idx), s_h=s_h)


@st.composite
def _panels(draw):
    """Domains around a dyadic ``u0`` and ``h``; some sit exactly at |t| = 1."""
    u0 = draw(st.sampled_from([0.0, 0.25, -0.5, 0.375]))
    h = draw(st.sampled_from([0.125, 0.5, 1.0, 0.3]))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = draw(st.lists(
        st.one_of(st.sampled_from([-1.0, 1.0, 0.0, -0.5, 0.75, 1.25]),
                  st.floats(-1.5, 1.5, allow_nan=False)),
        min_size=1, max_size=7))
    if draw(st.booleans()):
        offsets[0] = 1.0  # on the boundary, which the window includes
    domains = []
    for off in offsets:
        n = int(rng.integers(1, 6))
        domains.append(DomainSample(u=u0 + off * h, x=rng.normal(size=(n, p)),
                                    y=rng.normal(size=n)))
    return domains, u0, h


class TestDesignEqualsKroneckerOracle:
    @given(_panels(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical(self, panel, l):
        domains, u0, h = panel
        try:
            want = _kron_design(domains, u0, h, l)
        except ValueError:  # no domain in the window: nothing to concatenate
            with pytest.raises(EmptyWindowError):
                build_local_design(domains, u0, h, l)
            return
        got = build_local_design(domains, u0, h, l)
        for name in ("z", "y", "weights", "kernel_values", "row_domain"):
            a, b = getattr(got, name), want[name]
            assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert a.tobytes() == b.tobytes(), name  # signed zeros too
        assert got.s_h == want["s_h"]

    def test_boundary_domains_are_kept(self):
        doms = [make_domain(u, [[1.0, 2.0]], [0.0]) for u in (-0.5, 0.5, 0.75)]
        win = kernel_window(doms, 0.0, 0.5, 2)
        assert win.index.tolist() == [0, 1] and win.t.tolist() == [-1.0, 1.0]
        assert build_local_design(doms, 0.0, 0.5, 2).row_domain.tolist() == [0, 1]


class TestDomainDistances:
    def test_basic(self):
        doms = [make_domain(u, [[1.0]]) for u in (0.2, -0.3, 0.7)]
        d, d1, dK = domain_distances(doms, 0.0)
        assert d1 == pytest.approx(0.2)
        assert dK == pytest.approx(0.7)
        assert np.all(np.diff(d) >= 0)

    def test_single_source(self):
        d, d1, dK = domain_distances([make_domain(0.4, [[1.0]])], 0.0)
        assert d1 == dK == pytest.approx(0.4)

    def test_degenerate_ties(self):
        doms = [make_domain(0.0, [[1.0]]) for _ in range(3)]
        _, d1, dK = domain_distances(doms, 0.0)
        assert d1 == dK == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            domain_distances([], 0.0)
