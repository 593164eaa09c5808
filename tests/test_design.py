import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvcm.design import (
    _KERNEL_HEIGHT,
    DomainSample,
    Panel,
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
        assert d.weight == 1.0
        assert d.window.s_h == pytest.approx(0.5)
        assert d.n_total == 1

    def test_out_of_window_domain_dropped(self):
        near = make_domain(0.0, [[1.0]], [1.0])
        far = make_domain(0.5, [[1.0]], [2.0])  # |t| = 2 -> zero weight
        d = build_local_design([near, far], u0=0.0, h=0.25, l=0)
        assert d.z.shape[0] == 1
        assert _row_domain(d).tolist() == [0]
        assert d.n_total == 2  # still counted in the (nh) scalings

    def test_two_domains_order_one(self):
        # hand evaluation: t = +-0.5, Phi_1 = (1, +-0.5), scalar X = 1
        a = make_domain(0.5, [[1.0]], [0.0])
        b = make_domain(-0.5, [[1.0]], [0.0])
        d = build_local_design([a, b], u0=0.0, h=1.0, l=1)
        assert np.allclose(sorted(d.z[:, 1]), [-0.5, 0.5])
        assert np.allclose(d.z[:, 0], [1.0, 1.0])
        assert d.weight == 0.5  # raw 0.5 over the total 1.0, for each row
        assert d.window.s_h == pytest.approx(1.0)

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
        assert d.z.shape[0] == in_window
        assert np.full(d.z.shape[0], d.weight).sum() == pytest.approx(1.0)

    def test_kronecker_block_structure(self):
        rng = np.random.default_rng(11)
        doms = [
            make_domain(u, rng.normal(size=(4, 3)), rng.normal(size=4))
            for u in (-0.3, 0.1, 0.6)
        ]
        l, h = 2, 1.0
        d = build_local_design(doms, u0=0.0, h=h, l=l)
        p = 3
        row_domain = _row_domain(d)
        for i in range(d.z.shape[0]):
            row = d.z[i].reshape(l + 1, p)
            t = (doms[row_domain[i]].u - 0.0) / h
            phi = poly_features(t, l)
            for j in range(l + 1):
                assert np.allclose(row[j], phi[j] * row[0] / phi[0])
        # leading p coordinates equal the X row itself
        assert np.allclose(d.z[:, :p], np.vstack([dom.x for dom in doms]))

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            build_local_design([make_domain(0.0, [[1.0]])], 0.0, 0.0, 1)

    @pytest.mark.parametrize("h", [float("inf"), float("nan")])
    def test_bandwidth_not_finite_and_positive(self, h):
        with pytest.raises(ValueError, match="finite and positive"):
            kernel_window([make_domain(0.0, [[1.0]])], 0.0, h, 1)


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


def _row_domain(design):
    """(N_eff,) index of each row's domain in the panel of ``design.window``."""
    return np.repeat(design.window.index, design.window.n)


def _rows(design):
    """The per-row arrays of ``design`` the Kronecker oracle also builds."""
    return {"z": design.z, "y": design.y, "row_domain": _row_domain(design)}


def _assert_scalar_weight(got, want):
    """``got.weight`` spread over the rows is the oracle's per-row weights, bit
    for bit, and the oracle's raw kernel values are all the kernel's height."""
    rows = got.z.shape[0]
    assert want["kernel_values"].tobytes() == np.full(rows, _KERNEL_HEIGHT).tobytes()
    assert want["weights"].tobytes() == np.full(rows, got.weight).tobytes()


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
        for name, a in _rows(got).items():
            b = want[name]
            assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert a.tobytes() == b.tobytes(), name  # signed zeros too
        _assert_scalar_weight(got, want)
        assert got.window.s_h == want["s_h"]

    def test_boundary_domains_are_kept(self):
        doms = [make_domain(u, [[1.0, 2.0]], [0.0]) for u in (-0.5, 0.5, 0.75)]
        win = kernel_window(doms, 0.0, 0.5, 2)
        assert win.index.tolist() == [0, 1] and win.t.tolist() == [-1.0, 1.0]
        assert _row_domain(build_local_design(doms, 0.0, 0.5, 2)).tolist() == [0, 1]


def _list_window(domains, u0, h, l):
    """The list-of-domains window: per-domain Python reads of ``u`` and ``n``."""
    sizes = np.array([d.n for d in domains], dtype=int)
    t_all = (np.array([d.u for d in domains], dtype=float) - u0) / h
    w_all = uniform_kernel(t_all)
    index = np.flatnonzero(w_all)
    phi = np.array([poly_features(tk, l) for tk in t_all[index].tolist()])
    return dict(index=index, n=sizes[index], t=t_all[index], w=w_all[index],
                phi=phi.reshape(len(index), l + 1),
                s_h=float(np.sum(w_all[index] * sizes[index])), n_total=int(sizes.sum()))


class TestPanelEqualsDomainListOracle:
    """The panel route is bit-identical to the per-domain list route."""

    @given(_panels(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_window_bit_identical(self, panel, l):
        domains, u0, h = panel
        want = _list_window(domains, u0, h, l)
        for given_as in (domains, Panel.of(domains)):
            win = kernel_window(given_as, u0, h, l)
            for name in ("index", "n", "t", "phi"):
                a, b = getattr(win, name), want[name]
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            # every in-window domain has the kernel's one value
            assert want["w"].tobytes() == np.full(win.index.size, _KERNEL_HEIGHT).tobytes()
            assert (win.s_h, win.n_total) == (want["s_h"], want["n_total"])

    @given(_panels(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_design_from_panel_bit_identical(self, panel, l):
        domains, u0, h = panel
        stacked = Panel.of(domains)
        try:
            want = _kron_design(domains, u0, h, l)
        except ValueError:
            with pytest.raises(EmptyWindowError):
                build_local_design(stacked, u0, h, l)
            return
        got = build_local_design(stacked, u0, h, l)
        for name, a in _rows(got).items():
            b = want[name]
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        _assert_scalar_weight(got, want)
        assert got.window.s_h == want["s_h"] and got.window.panel is stacked

    @pytest.mark.parametrize("offsets,inside", [
        ((1.5, -2.0, 3.0), []),                # empty window
        ((0.0, 2.0, -1.0, 0.5), [0, 2, 3]),    # partial, boundary domain at t = -1
        ((0.0, 1.0, -1.0), [0, 1, 2]),         # full, both boundaries
    ])
    def test_empty_partial_and_full_windows(self, offsets, inside):
        rng = np.random.default_rng(5)
        domains = [make_domain(0.25 + 0.5 * off, rng.normal(size=(n, 2)), rng.normal(size=n))
                   for off, n in zip(offsets, (3, 1, 4, 2))]
        stacked = Panel.of(domains)
        assert kernel_window(stacked, 0.25, 0.5, 1).index.tolist() == inside
        if not inside:
            with pytest.raises(EmptyWindowError):
                build_local_design(stacked, 0.25, 0.5, 1)
            return
        got = build_local_design(stacked, 0.25, 0.5, 1)
        want = _kron_design(domains, 0.25, 0.5, 1)
        assert got.z.tobytes() == want["z"].tobytes()
        assert got.y.tobytes() == want["y"].tobytes()
        # a full window takes the stacked rows as they are
        assert (got.y is stacked.y) == (len(inside) == len(domains))


class TestPanel:
    @staticmethod
    def _domains():
        rng = np.random.default_rng(2)
        return [make_domain(u, rng.normal(size=(n, 3)), rng.normal(size=n))
                for u, n in ((0.1, 2), (-0.4, 1), (0.7, 4))]

    def test_stacks_in_order_and_views_each_domain(self):
        domains = self._domains()
        panel = Panel.of(domains)
        assert (len(panel), panel.n, panel.p) == (3, 7, 3)
        assert panel.offsets.tolist() == [0, 2, 3, 7] and panel.sizes.tolist() == [2, 1, 4]
        assert Panel.of(panel) is panel
        for k, (view, dom) in enumerate(zip(panel, domains)):
            for got in (view, panel[k]):
                assert type(got.u) is float and got.u == dom.u
                assert got.x.tobytes() == dom.x.tobytes() and got.y.tobytes() == dom.y.tobytes()
                assert np.shares_memory(got.x, panel.x)
        assert panel[-1].n == 4

    def test_slice_is_a_panel_view(self):
        panel = Panel.of(self._domains())
        tail = panel[1:]
        assert tail.offsets.tolist() == [0, 1, 5] and tail.u.tolist() == [-0.4, 0.7]
        assert np.shares_memory(tail.x, panel.x)
        assert tail[1].x.tobytes() == panel[2].x.tobytes()
        for bad in (slice(2, 1), slice(None, None, 2)):
            with pytest.raises(ValueError):
                panel[bad]

    @pytest.mark.parametrize("change", [
        dict(x=np.array([[1.0, np.nan]] * 3)),  # non-finite
        dict(u=[0.0, np.inf]),
        dict(y=np.zeros(2)),                    # rows of x and y differ
        dict(x=np.ones(3)),                     # x not (N, p)
        dict(offsets=[0, 3, 3]),                # a domain without rows
        dict(offsets=[0, 1, 2]),                # offsets end before N
        dict(offsets=[0, 3]),                   # one offset per domain missing
        dict(offsets=[0.0, 1.0, 3.0]),          # offsets not integers
        dict(u=[], offsets=[0]),                # no domain
    ])
    def test_construction_checks_shapes_and_values(self, change):
        args = dict(x=np.ones((3, 2)), y=np.zeros(3), u=[0.0, 1.0], offsets=[0, 1, 3])
        assert len(Panel(**args)) == 2
        with pytest.raises(ValueError):
            Panel(**{**args, **change})

    def test_pooled_stacks_a_panel_like_its_domains(self):
        first, *rest = self._domains()
        want = Panel.of([first, *rest])
        for given_as in (rest, Panel.of(rest), Panel.of([first, *rest])[1:]):
            got = Panel.pooled(first, given_as)
            for name in ("x", "y", "u", "offsets"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        with pytest.raises(ValueError, match="same covariate dimension"):
            Panel.pooled(make_domain(0.0, np.ones((2, 2))), Panel.of(rest))

    def test_of_rejects_mixed_dimensions_and_no_domains(self):
        with pytest.raises(ValueError, match="same covariate dimension"):
            Panel.of([make_domain(0.0, np.ones((2, 2))), make_domain(0.1, np.ones((2, 3)))])
        with pytest.raises(ValueError, match="at least one domain"):
            Panel.of([])

    def test_domain_rows_are_views(self):
        dom = make_domain(0.3, np.arange(8.0).reshape(4, 2), np.arange(4.0))
        head, rest = dom.rows(0, 1), dom.rows(1)
        assert (head.n, rest.n, head.u) == (1, 3, 0.3)
        assert np.shares_memory(rest.x, dom.x) and rest.y.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            dom.rows(4)


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
