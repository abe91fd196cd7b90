"""Tests for the integrand, the spectral quadrature and the closed forms."""

import cmath
import itertools
import math
import random
import re
import warnings

import aw_reference
import numpy as np
import pytest
from blockstream import blocks

from qverify import integrals, qcore
from qverify.identities import check, sample
from qverify.qcore import CapExceeded, NoConvergence, QContext, ipow, qpoch, qpoch_inf, qpoch_inf_many
from qverify.series import _sum_stream
from qverify.integrals import (
    AWIntegrandSpec,
    _aw_integrand,
    _nodes,
    _trapezoid_doubling,
    aw_closed_form,
    aw_residue_correction,
    corl_e_rhs,
    integrate_aw,
    thm_e_rhs,
)

CTX = QContext(0.5)


def h_product(x: float, lam: complex, ctx: QContext) -> complex:
    """h(x; lam) via the real product prod_k (1 - 2 q^k lam x + q^{2k} lam^2).

    An evaluation path independent of qcore.qpoch_inf_many, kept as the
    oracle of the integrand's node values.
    """
    lam = complex(lam)
    if lam == 0.0:
        return 1.0 + 0.0j
    q = ctx.q
    aq = abs(q)
    al = abs(lam)
    p = 1.0 + 0.0j
    qk = 1.0 + 0.0j
    small = 0
    gate = 0.5 * qcore.PRODUCT_TOL * (1.0 - aq)
    for k in range(qcore.MAX_PRODUCT_FACTORS):
        w = qk * lam
        p *= 1.0 - 2.0 * w * x + w * w
        small = small + 1 if abs(w) * (2.0 + abs(w)) < qcore.PRODUCT_TOL else 0
        qk *= q
        if small >= 3 and al * abs(qk) < gate:
            return p
    raise CapExceeded("h-function product did not converge within the factor cap")


def on_grid(g):
    """The integrand f(n, odd) of the trapezoid for a function g of node arrays."""
    return lambda n, odd=False: g(_nodes(n, odd))


# the levels of a quadrature to 128 panels: every node of the first, the odd nodes of the rest
LEVELS = [(8, False), (16, True), (32, True), (64, True), (128, True)]


def h_integrand(spec: AWIntegrandSpec, theta: float, ctx: QContext) -> complex:
    """h(cos 2t; 1) / h(cos t; a, b, c, d) * prod_i h(cos t; u_i) / h(cos t; v_i) by h_product."""
    x = math.cos(theta)
    value = h_product(math.cos(2.0 * theta), 1.0, ctx)
    for lam in (spec.a, spec.b, spec.c, spec.d, *spec.v):
        value /= h_product(x, lam, ctx)
    for lam in spec.u:
        value *= h_product(x, lam, ctx)
    return value


class TestHFunction:
    """The integrand's node values against h-products written out in h_product,
    or against the 40-digit reference (tests/aw_reference.py)."""

    def test_zero_parameter(self):
        # h(x; 0) = 1 exactly: a zero (u, v) pair leaves every node value as it is, bit for bit
        plain = AWIntegrandSpec(0.3, 0.0, 0.2, 0.0)
        for ctx in (CTX, QContext(0.5 + 0.3j)):
            got = _aw_integrand(AWIntegrandSpec(0.3, 0.0, 0.2, 0.0, (0.0,), (0.0,)), ctx)[0]
            want = _aw_integrand(plain, ctx)[0]
            for n, odd in LEVELS:
                values = got(n, odd)
                assert values.tobytes() == want(n, odd).tobytes()
                for theta, v in zip(_nodes(n, odd), values):
                    assert abs(v - h_integrand(plain, theta, ctx)) < 1e-12 * max(1.0, abs(v))

    def test_endpoint_collapses_to_square(self):
        # at x = 1, h(x; lam) = (lam;q)_oo^2; h(cos 2t; 1) vanishes at both endpoints
        lam = 0.37
        want = qpoch_inf(lam, CTX).value ** 2
        assert abs(h_product(1.0, lam, CTX) - want) < 1e-14
        f = _aw_integrand(AWIntegrandSpec(lam, 0.2, -0.3, 0.1, (0.5,), (lam,)), CTX)[0]
        assert np.array_equal(f(8)[[0, -1]], np.zeros(2))

    def test_dual_path_agreement(self):
        # real and complex specs, at real and complex q, on every node of the
        # grid of 64 panels
        rng = random.Random(17)

        def lam(real):
            r = rng.uniform(0.05, 0.9)
            phase = rng.choice((1.0, -1.0)) if real else cmath.exp(2j * math.pi * rng.random())
            return r * phase

        for q in (0.3, 0.5, 0.8, 0.5 + 0.3j):
            ctx = QContext(q)
            for real in (True, False):
                a, b, c, d, u, v = (lam(real) for _ in range(6))
                spec = AWIntegrandSpec(a, b, c, d, (u,), (v,))
                for theta, v1 in zip(_nodes(64), _aw_integrand(spec, ctx)[0](64)):
                    v2 = h_integrand(spec, theta, ctx)
                    assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))

    def test_multi(self):
        # each (u, v) pair multiplies the node values by h(x; u) / h(x; v)
        one = AWIntegrandSpec(0.3, -0.45, 0.6, 0.2, (0.7,), (0.15,))
        two = AWIntegrandSpec(0.3, -0.45, 0.6, 0.2, (0.7, -0.5 + 0.2j), (0.15, 0.55))
        thetas = _nodes(8)[1:-1]
        got, base = _aw_integrand(two, CTX)[0](8)[1:-1], _aw_integrand(one, CTX)[0](8)[1:-1]
        for theta, g, b in zip(thetas, got, base):
            x = math.cos(theta)
            want = b * h_product(x, -0.5 + 0.2j, CTX) / h_product(x, 0.55, CTX)
            assert abs(g - want) < 1e-14 * abs(want)

    @pytest.mark.parametrize("q", [0.99, 0.95 + 0.2j])
    def test_near_one(self, q):
        # |q| near 1, a head for |a| = 0.995 and for the numerator |u| >= 1: the
        # first two levels against the 40-digit reference.  At q = 0.99 the log
        # series of the rows, of about 400 terms, leave the nodes ~1e-13 off
        ctx = QContext(q)
        spec = AWIntegrandSpec(0.995, -0.45, 0.6 + 0.1j, 0.2, (1.3,), (0.55,))
        f = _aw_integrand(spec, ctx)[0]
        for n, odd in LEVELS[:2]:
            got, want = f(n, odd), aw_reference.integrand(spec, q, _nodes(n, odd))
            assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()

    @pytest.mark.parametrize("q", [0.993, 0.995])
    def test_unit_row_past_the_factor_cap(self, q):
        # (q;q)_oo needs more than MAX_PRODUCT_FACTORS factors here; the unit row
        # h(cos 2t; 1), a head of 15 or 22 factors and a log series, needs none of them
        ctx = QContext(q)
        spec = AWIntegrandSpec(0.3, -0.45, 0.6, 0.2)
        with pytest.raises(CapExceeded):
            qpoch_inf(q, ctx)
        got, want = _aw_integrand(spec, ctx)[0](8), aw_reference.integrand(spec, q, _nodes(8))
        assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()
        assert math.isfinite(integrate_aw(spec, ctx).value.real)

    def test_cancellation_free_factors(self):
        # |a| = 0.999: next to t = 0 the head factor (1 - a)^2 + 4 a sin^2(t/2) is
        # 1e-6 + 1.5e-7, which 1 - 2 a cos t + a^2 would give to about 1e-10
        ctx = QContext(0.5)
        spec = AWIntegrandSpec(0.999, 0.3, -0.2, 0.1)
        got = _aw_integrand(spec, ctx)[0](8192, odd=True)[0]
        want = aw_reference.integrand(spec, 0.5, [math.pi / 8192])[0]
        assert abs(got - want) <= 1e-13 * abs(want)
        value = integrate_aw(spec, ctx).value
        closed = aw_closed_form(0.999, 0.3, -0.2, 0.1, ctx)
        assert abs(value - closed) <= 5e-15 * abs(closed)


class TestQuadrature:
    def test_constant_integrand_gives_pi(self):
        value, delta, n, _ = _trapezoid_doubling(
            on_grid(lambda t: np.ones_like(t, dtype=complex)), n_factors=1
        )
        assert abs(value - math.pi) < 1e-12

    def test_non_finite_node_stops_the_refinement(self):
        # |t - 1| converges as h^2 only, so the refinement is still running
        # when the level of 32 panels meets the planted NaN
        bad = np.linspace(0.0, math.pi, 65)[1::2][5]
        calls = []

        def f(t):
            calls.append(t.size)
            return np.where(t == bad, np.nan, np.abs(t - 1.0)).astype(complex)

        with pytest.raises(NoConvergence, match=re.escape(f"not finite at theta = {float(bad)!r}")):
            _trapezoid_doubling(on_grid(f), n_factors=1)
        assert calls == [9, 8, 16, 32]

    def test_nan_past_the_stopping_level_does_not_raise(self, monkeypatch):
        # the transform of 64 panels serves the levels of 8 to 64 panels: a NaN at
        # a node that only the level of 64 panels adds is never met by a
        # quadrature that stops at 32, and names its node in one that goes on
        spec, ctx = AWIntegrandSpec(0.1, -0.2, 0.15, 0.05), QContext(0.3)
        clean = integrate_aw(spec, ctx)
        deep = AWIntegrandSpec(0.3, -0.45, 0.6, 0.2, (0.7,), (0.15,))
        assert clean.panels_used <= 32 < integrate_aw(deep, ctx).panels_used
        transform = integrals._cosine_sums

        def planted(coeffs, n):
            sums = transform(coeffs, n)
            if n == 64:
                sums[1] = math.nan
            return sums

        monkeypatch.setattr(integrals, "_cosine_sums", planted)
        assert integrate_aw(spec, ctx) == clean
        with pytest.raises(NoConvergence, match=re.escape(f"not finite at theta = {math.pi / 64!r}")):
            integrate_aw(deep, ctx)

    def test_zero_numerator_node_is_zero(self):
        # at q = 0.99, a = 0.995, d = q/a the denominator of the node t = 0 is
        # about 1e-300 of the rest while its unit rows make the numerator an
        # exact 0: the node is 0 (not 0/0), with no numpy warning.  The nodes
        # next to it are finite, as the reference has them: 1.3e264 at t = pi/8,
        # and 9.4e291 at t = pi/16, where exp of the log series alone
        # overflows.  The quadrature settles, every node finite
        ctx = QContext(0.99)
        spec = AWIntegrandSpec(0.995, 0.9, 0.5, 0.99 / 0.995, (0.495,), (0.5,))
        f = _aw_integrand(spec, ctx)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f(8)[0] == 0.0
            got = np.array([f(8)[1], f(16, odd=True)[0]])
            want = aw_reference.integrand(spec, 0.99, [math.pi / 8, math.pi / 16])
            assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all() and want[1].real > 1e291
            assert math.isfinite(integrate_aw(spec, ctx).value.real)

    def test_all_zero_parameters(self):
        # integral of h(cos 2t; 1) alone = 2 pi / (q;q)_inf
        r = integrate_aw(AWIntegrandSpec(0, 0, 0, 0), CTX)
        want = 2 * math.pi / qpoch_inf(CTX.q, CTX).value.real
        assert abs(r.value - want) < 1e-12 * want

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AWIntegrandSpec(1.2, 0, 0, 0)
        with pytest.raises(ValueError):
            AWIntegrandSpec(0.1, 0.2, 0.3, 0.4, u=(0.1,), v=())
        with pytest.raises(ValueError):
            AWIntegrandSpec(0.1, 0.2, 0.3, 0.4, u=(0.1,), v=(1.1,))

    def test_spectral_refinement(self):
        # deltas shrink by >= 10x per doubling until the floor
        spec = AWIntegrandSpec(0.3, 0.2, 0.1, 0.4)
        f, nf = _aw_integrand(spec, CTX)
        value, delta, n, deltas = _trapezoid_doubling(f, nf)
        floor = 1e-11 * abs(value)
        for prev, cur in zip(deltas, deltas[1:]):
            if prev < floor:
                break
            assert cur <= 0.1 * prev

    def test_matches_closed_form(self):
        rng = random.Random(23)
        for q in (0.3, 0.5, 0.8):
            ctx = QContext(q)
            for _ in range(6):
                a, b, c, d = (rng.uniform(-0.7, 0.7) for _ in range(4))
                r = integrate_aw(AWIntegrandSpec(a, b, c, d), ctx)
                cf = aw_closed_form(a, b, c, d, ctx).real
                assert abs(r.value - cf) < 1e-9 * abs(cf)


def full_rows_integrand(spec, ctx):
    """The integrand from both conjugate rows (lam e^{+-it};q)_oo of every h, by
    qcore.qpoch_inf_many: a double-precision oracle for many nodes at once."""
    lams_num, lams_den = spec.u, (spec.a, spec.b, spec.c, spec.d) + spec.v

    def f(thetas):
        e = np.exp(1j * thetas)
        rows = [lam * z for lam in lams_num + lams_den for z in (e, np.conj(e))]
        vals = qpoch_inf_many(np.array([e * e, np.conj(e * e)] + rows), ctx)[0]
        split = 2 + 2 * len(lams_num)
        return np.prod(vals[:split], axis=0) / np.prod(vals[split:], axis=0)

    return f


class TestConjugateRows:
    """The integrand, a head of quadratic factors and a log series per
    h-function, agrees with the 40-digit reference, which computes both
    conjugate rows of every h, to 1e-13 relative at every node of the first
    three levels (both are exact zeros at t = 0, pi)."""

    SPECS = [
        (0.3, -0.45, 0.6, 0.2, (), ()),
        (0.3, -0.45, 0.6, 0.2, (0.7,), (0.15,)),
        (0.3, -0.45, 0.6, 0.2, (0.7, -0.5), (0.15, 0.55)),
    ]
    QS = [0.3, 0.8, -0.5, 0.95, 0.5 + 0.3j]

    @staticmethod
    def assert_nodes_close(spec, ctx):
        """The node values of the first three levels, each checked against the reference."""
        got = _aw_integrand(spec, ctx)[0]
        values = []
        for n, odd in LEVELS[:3]:
            g, w = got(n, odd), aw_reference.integrand(spec, ctx.q, _nodes(n, odd))
            assert (np.abs(g - w) <= 1e-13 * np.abs(w)).all()
            values.append(g)
        return values

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("a,b,c,d,u,v", SPECS)
    def test_real_parameters(self, q, a, b, c, d, u, v):
        self.assert_nodes_close(AWIntegrandSpec(a, b, c, d, u, v), QContext(q))

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("a,b,c,d,u,v", SPECS[1:])
    def test_one_complex_parameter(self, q, a, b, c, d, u, v):
        self.assert_nodes_close(AWIntegrandSpec(a, b + 0.2j, c, d, u, v), QContext(q))

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("a,b,c,d,u,v", [
        (0.3, -0.45, 0.6, 0.2, (1.3,), (0.15,)),  # a numerator |u| >= 1
        (0.995, -0.45, 0.6, 0.2, (0.7,), (0.15,)),  # |a| = 0.995
        (0.3, -0.95 + 0.2j, 0.6, 0.2, (-1.1j,), (0.15,)),  # complex heads
    ])
    def test_heads(self, q, a, b, c, d, u, v):
        # parameters whose leading factors |lam q^k| > 0.9 are heads
        self.assert_nodes_close(AWIntegrandSpec(a, b, c, d, u, v), QContext(q))

    @pytest.mark.parametrize("q", [0.3, 0.8, -0.5])
    def test_real_values_at_real_q(self, q):
        # every h is then a product of real factors: the nodes are float64 and
        # the integral exactly real; a complex lam gives complex nodes
        ctx = QContext(q)
        spec = AWIntegrandSpec(0.3, -0.45, 0.6, 0.2, (0.7,), (0.15,))
        assert all(v.dtype == np.float64 for v in self.assert_nodes_close(spec, ctx))
        assert integrate_aw(spec, ctx).value.imag == 0.0
        complex_spec = AWIntegrandSpec(0.3, -0.45 + 0.2j, 0.6, 0.2, (0.7,), (0.15,))
        assert _aw_integrand(complex_spec, ctx)[0](8).dtype == np.complex128


def test_integrand_makes_no_qpoch_call(monkeypatch):
    # every h is a head, in the integrand's one head product, and a log series
    def refuse(xs, ctx):
        raise AssertionError("the integrand called qpoch_inf_many")

    for mod in (qcore, integrals):
        monkeypatch.setattr(mod, "qpoch_inf_many", refuse, raising=False)
    for q in (0.5, 0.5 + 0.3j):
        integrate_aw(AWIntegrandSpec(0.3, -0.45 + 0.2j, 0.6, 0.2, (0.7,), (0.15,)), QContext(q))


class TestNodeIndependence:
    """A quadrature repeats bit for bit, run to run, whatever length of qcore's
    q^k table it starts from: the heads and the log series read prefixes of
    one running product.  (A node's bits depend on the size of the transform
    that computed its series, so a node computed in a level past
    _SHARED_PANELS panels would not be bit-equal to the same node of another.)"""

    @pytest.mark.parametrize("q", TestConjugateRows.QS)
    @pytest.mark.parametrize("b", [-0.45, -0.45 + 0.2j])
    @pytest.mark.parametrize("powers", [None, 1, 700])
    def test_bit_for_bit(self, monkeypatch, q, b, powers):
        ctx = QContext(q)
        if powers is not None:  # a table shorter than the integrand reads, or longer
            monkeypatch.setattr(qcore, "_TABLES", {})
            qcore._powers(ctx.q, powers)
        spec = AWIntegrandSpec(0.3, b, 0.6, 0.95, (0.7, 1.3), (0.15, 0.55))  # heads for d and u_2
        cold = integrate_aw(spec, ctx)
        levels = [(n, odd) for n, odd in LEVELS if n <= cold.panels_used]
        f = _aw_integrand(spec, ctx)[0]
        warm = [f(n, odd) for n, odd in levels]
        assert integrate_aw(spec, ctx) == cold
        f = _aw_integrand(spec, ctx)[0]
        assert [f(n, odd).tobytes() for n, odd in levels] == [v.tobytes() for v in warm]
        assert integrate_aw(spec, ctx) == cold


class TestUnitRowMemo:
    """The row h(cos 2t; 1) keeps no memo of its own: its head and its w = q^K
    are reads of qcore's q^k table, the one memo per q.  A warm table, or one
    grown longer by other calls, gives the node values of a cold one, bit for
    bit, and the tables hold the last qcore._TABLE_QS q."""

    @pytest.fixture(autouse=True)
    def empty_tables(self, monkeypatch):
        monkeypatch.setattr(qcore, "_TABLES", {})

    @pytest.mark.parametrize("q", [0.3, 0.8, -0.5, 0.95, 0.5 + 0.3j])
    @pytest.mark.parametrize("b", [-0.45, -0.45 + 0.2j])
    def test_cold_then_warm(self, q, b):
        spec = AWIntegrandSpec(0.3, b, 0.6, 0.2, (0.7, -0.5), (0.15, 0.55))
        TestConjugateRows.assert_nodes_close(spec, QContext(0.6))  # another q first
        ctx = QContext(q)
        assert repr(ctx.q) not in qcore._TABLES
        cold = TestConjugateRows.assert_nodes_close(spec, ctx)
        assert repr(ctx.q) in qcore._TABLES
        warm = TestConjugateRows.assert_nodes_close(spec, ctx)
        qcore._powers(ctx.q, 5000)  # a table far longer than the integrand reads
        grown = TestConjugateRows.assert_nodes_close(spec, ctx)
        for c, w, g in zip(cold, warm, grown):
            assert c.tobytes() == w.tobytes() == g.tobytes()

    def test_bounded_by_the_last_q(self):
        spec = AWIntegrandSpec(0.3, -0.45, 0.6, 0.2)
        qs = [0.1 * k for k in range(1, 10)]
        for k, q in enumerate(qs):
            _aw_integrand(spec, QContext(q))[0](8)
            assert len(qcore._TABLES) == min(k + 1, qcore._TABLE_QS)
        kept = [repr(complex(q)) for q in qs[-qcore._TABLE_QS:]]
        assert list(qcore._TABLES) == kept
        _aw_integrand(spec, QContext(qs[-qcore._TABLE_QS]))[0](8)  # a hit moves its q last
        assert list(qcore._TABLES) == kept[1:] + kept[:1]

    @pytest.mark.parametrize("q", [0.3, 0.5 + 0.3j])
    def test_deep_levels_are_not_kept(self, q):
        # the levels of 8,192 and 16,384 panels against both conjugate rows of every
        # h; they leave nothing behind, and the q^k table as it was
        ctx = QContext(q)
        spec = AWIntegrandSpec(0.3, -0.45 + 0.2j, 0.6, 0.2, (0.7,), (0.15,))
        levels = (8192, 16384, 16384)
        want = [full_rows_integrand(spec, ctx)(_nodes(n, odd=True)) for n in levels]
        qcore._TABLES.clear()
        got = _aw_integrand(spec, ctx)[0]
        table = qcore._TABLES[repr(ctx.q)]
        values = [got(n, odd=True) for n in levels]
        for v, w in zip(values, want):
            # next to t = 0, pi the factor 2 - 2 cos 2t holds cos 2t's rounding, about
            # 1e-16 absolute: relative to the largest node, not to each node
            assert (np.abs(v - w) <= 1e-13 * np.abs(w).max()).all()
        assert values[1].tobytes() == values[2].tobytes()  # computed twice, the same both times
        assert list(qcore._TABLES) == [repr(ctx.q)] and qcore._TABLES[repr(ctx.q)] is table

    def test_rows_are_read_only(self):
        # the unit row reads a table that cannot be written through; at real q the
        # nodes of a real spec are one float64 array
        values = _aw_integrand(AWIntegrandSpec(0.3, -0.45, 0.6, 0.2), CTX)[0](8)
        assert values.shape == (9,) and values.dtype == np.float64
        (table,) = qcore._TABLES.values()
        with pytest.raises(ValueError):
            table[1] = 1.0

    @pytest.mark.parametrize("q", [0.3, 0.5 + 0.3j])
    def test_warm_endpoints_stay_zero(self, q):
        ctx = QContext(q)
        f = _aw_integrand(AWIntegrandSpec(0.37, 0.2, -0.3, 0.1, (0.5,), (0.37,)), ctx)[0]
        cold, warm = f(8), f(8)
        assert np.array_equal(warm, cold)
        assert warm[0] == 0.0 and warm[-1] == 0.0

    @pytest.mark.parametrize("q", TestConjugateRows.QS)
    def test_cold_and_warm_reads(self, q):
        # a = b = c = d = 0 leaves the unit row alone.  Built on a warm table it is
        # the row built on a cold one, bit for bit, and so is each node's value in a
        # level that shares its transform; the row is an exact 0 at t = 0, pi
        ctx = QContext(q)
        spec = AWIntegrandSpec(0, 0, 0, 0)
        cold = _aw_integrand(spec, ctx)[0](16)
        warm = _aw_integrand(spec, ctx)[0]
        assert warm(16).tobytes() == cold.tobytes()
        assert warm(32)[::2].tobytes() == cold.tobytes()
        assert cold[0] == 0.0 and cold[-1] == 0.0 and (cold[1:-1] != 0.0).all()
        for theta, v in zip(_nodes(16), cold):
            want = h_product(math.cos(2.0 * theta), 1.0, ctx)
            assert abs(v - want) <= 1e-13 * abs(want)


class TestClosedForms:
    def test_zero_parameters(self):
        want = 2 * math.pi / qpoch_inf(CTX.q, CTX).value
        assert abs(aw_closed_form(0, 0, 0, 0, CTX) - want) < 1e-13 * abs(want)

    def test_d_zero_reduction(self):
        a, b, c = 0.3, 0.2, 0.1
        got = aw_closed_form(a, b, c, 0.0, CTX)
        want = 2 * math.pi / (
            qpoch_inf(CTX.q, CTX).value
            * qpoch_inf(a * b, CTX).value
            * qpoch_inf(a * c, CTX).value
            * qpoch_inf(b * c, CTX).value
        )
        assert abs(got - want) < 1e-13 * abs(want)

    def test_thm_e_rhs_n0_is_closed_form_exactly(self):
        a, b, c, d = 0.3, -0.25, 0.15, 0.4
        got = thm_e_rhs(a, b, c, d, (), (), (), CTX)
        want = aw_closed_form(a, b, c, d, CTX)
        assert abs(got - want) < 1e-13 * abs(want)

    def test_pairs_with_zero_offsets_cancel(self):
        a, b, c, d = 0.3, 0.2, 0.1, 0.4
        got = thm_e_rhs(a, b, c, d, (0.45, 0.3), (0.45, 0.3), (0, 0), CTX)
        want = aw_closed_form(a, b, c, d, CTX)
        assert abs(got - want) < 1e-12 * abs(want)

    def test_corl_e_equals_thm_e_at_special_d(self):
        # d = q/a makes the multi-sum divisor collapse to exactly 1;
        # the two code paths must then agree to near machine precision
        q = 0.5
        ctx = QContext(q)
        a, b, c = 0.75, 0.28, -0.33
        v = (0.5, 0.45)
        m = (1, 0)
        u = tuple(vv * ipow(ctx.q, n).real for vv, n in zip(v, m))
        lhs = corl_e_rhs(a, b, c, u, v, m, ctx)
        rhs = thm_e_rhs(a, b, c, q / a, u, v, m, ctx)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def _qpoch_skip_ref(x, k, skip, q):
    """(x;q)_k with the single factor at index ``skip`` removed."""
    p = 1.0 + 0.0j
    qi = 1.0 + 0.0j
    for i in range(k):
        if i != skip:
            p *= 1.0 - x * qi
        qi *= q
    return p


def _residue_term_ref(k, p, i, j_star, lams, u, v, w, ctx):
    """Residue term number k at the pole p, every product rebuilt from scratch."""
    q = ctx.q
    k = k + j_star + 1
    t = (1.0 - p * p) * (1.0 - ipow(q, 2 * k + 1) * p * p) * ipow(w, k)
    for lam in lams:
        t *= qpoch(q * p / lam, k, ctx) / qpoch(lam * p, k + 1, ctx)
    for j in range(len(u)):
        den = qpoch(p * v[j], k + 1, ctx)
        if j == i:
            den *= _qpoch_skip_ref(q * p / u[j], k, j_star, q)
        else:
            den *= qpoch(q * p / u[j], k, ctx)
        t *= qpoch(p * u[j], k + 1, ctx) * qpoch(q * p / v[j], k, ctx) / den
    return t


def _residue_sum_ref(a, b, c, d, u, v, N, ctx):
    """Sum over the poles v_i q^m of the from-scratch residue series."""
    q = ctx.q
    w = a * b * c * d * ipow(q, -(sum(N) + 1))
    total = 0.0 + 0.0j
    for i, n_i in enumerate(N):
        for m in range(n_i):
            j_star = n_i - 1 - m
            p = v[i] * ipow(q, m)
            terms = (
                _residue_term_ref(k, p, i, j_star, (a, b, c, d), u, v, w, ctx)
                for k in itertools.count()
            )
            total += _sum_stream(blocks(terms), ctx).value
    return total


class TestMultiVariableIntegralDefect:
    """The stated multi-variable closed form vs the residue-corrected value.

    The stated form misses residue contributions whenever some N_i >= 1;
    these tests pin the defect: the stated form fails there and the
    corrected form matches quadrature.
    """

    CASES = [
        (0.5, 0.3, 0.2, 0.1, 0.4, (0.45,), (1,)),
        (0.5, 0.3, 0.2, 0.1, 0.4, (0.45, -0.3), (1, 2)),
        (0.3, 0.35, -0.25, 0.2, 0.45, (0.6,), (2,)),
        (0.8, 0.31, 0.27, -0.22, 0.37, (0.52, 0.43), (1, 0)),
    ]

    @pytest.mark.parametrize("q,a,b,c,d,vs,N", CASES)
    def test_residue_correction_closes_the_gap(self, q, a, b, c, d, vs, N):
        ctx = QContext(q)
        us = tuple(vv * ipow(ctx.q, n).real for vv, n in zip(vs, N))
        lhs = integrate_aw(AWIntegrandSpec(a, b, c, d, u=us, v=vs), ctx).value
        stated = thm_e_rhs(a, b, c, d, us, vs, N, ctx)
        corrected = stated + aw_residue_correction(a, b, c, d, us, vs, N, ctx)
        assert abs(lhs - corrected.real) < 1e-9 * abs(lhs)
        # and the stated form genuinely misses the residues here
        assert abs(lhs - stated.real) > 1e-6 * abs(lhs)

    @pytest.mark.parametrize("q", [0.5, -0.5, 0.95])
    @pytest.mark.parametrize(
        "vs,N", [((0.3,), (2,)), ((0.3, 0.2), (1, 2)), ((0.45, -0.3), (1, 2))]
    )
    def test_ladders_match_from_scratch_terms(self, monkeypatch, q, vs, N):
        # each pole's residues are one stream over the series ladder, re-indexed
        # from k0 = j*+1, so its products are reassociated against rebuilding
        # every term from scratch and agree to roundoff.  The product-side
        # constants are set to 1: at q = 0.95 their absolute pole guard
        # raises, and they are not what is compared here
        monkeypatch.setattr(integrals, "_thm_e_products", lambda *args: 1.0)
        monkeypatch.setattr(integrals, "omega", lambda *args: 1.0)
        ctx = QContext(q)
        a, b, c, d = 0.3, 0.2, 0.1, 0.4
        us = tuple(vv * ipow(ctx.q, n) for vv, n in zip(vs, N))
        got = aw_residue_correction(a, b, c, d, us, vs, N, ctx)
        want = -2.0 * math.pi * _residue_sum_ref(a, b, c, d, us, vs, N, ctx)
        assert got != 0.0
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_recorder_sees_the_residue_bases(self):
        # q p/u_2 sits 1e-7 relative from q^-3 (N = (1, 0), the pole p = v_1):
        # a divisor base of the residue stream that the grid test must flag
        q = 0.8
        ctx = QContext(q)
        vs = (0.45, 0.45 * q ** 4 / (1 + 1e-7))
        us = (0.45 * q, vs[1])
        with qcore._recording() as bases:
            aw_residue_correction(0.3, 0.2, 0.1, 0.4, us, vs, (1, 0), ctx)
        flagged = [x for x in bases if qcore._near_pole([x], ctx.q) is not None]
        assert any(abs(x - q ** -3) <= 1e-6 * q ** -3 for x in flagged)

    def test_pair_off_its_offset_raises(self):
        # the divisor omega checks each pair's q^N relation, before any pole is summed
        us = (0.45 * 0.5 * (1 + 1e-6), 0.3)
        with pytest.raises(qcore.ConstraintViolation, match="^pair 1"):
            aw_residue_correction(0.3, 0.2, 0.1, 0.4, us, (0.45, 0.3), (1, 0), CTX)

    def test_correction_vanishes_for_zero_offsets(self):
        got = aw_residue_correction(0.3, 0.2, 0.1, 0.4, (0.45,), (0.45,), (0,), CTX)
        assert got == 0.0

    def test_corl_e_defect_also_closed(self):
        q = 0.5
        ctx = QContext(q)
        a, b, c = 0.75, 0.28, -0.33
        vs = (0.5, 0.45)
        m = (1, 0)
        us = tuple(vv * ipow(ctx.q, n).real for vv, n in zip(vs, m))
        lhs = integrate_aw(AWIntegrandSpec(a, q / a, b, c, u=us, v=vs), ctx).value
        stated = corl_e_rhs(a, b, c, us, vs, m, ctx)
        corrected = stated + aw_residue_correction(a, q / a, b, c, us, vs, m, ctx)
        assert abs(lhs - corrected.real) < 1e-9 * abs(lhs)


class TestComplexQ:
    """At complex q the integral is complex, and the quadrature returns it whole."""

    @pytest.mark.parametrize("q", [0.5 + 0.3j, 0.6j])
    def test_value_keeps_its_imaginary_part(self, q):
        ctx = QContext(q)
        a, b, c, d = 0.3, -0.25, 0.15, 0.4
        got = integrate_aw(AWIntegrandSpec(a, b, c, d), ctx).value
        want = aw_closed_form(a, b, c, d, ctx)
        assert abs(want.imag) > 1e-3 * abs(want)
        assert abs(got - want) < 1e-9 * abs(want)

    @pytest.mark.parametrize("q", [0.5 + 0.3j, 0.6j])
    @pytest.mark.parametrize("case_id,offsets", [
        ("thm-e-integral", "N"), ("corl-c-integral", "n"), ("corl-e-integral", "m"),
    ])
    def test_stated_forms_pass_at_zero_offsets_only(self, q, case_id, offsets):
        # the first draw with every offset 0 passes through check; the first with
        # an offset >= 1 fails there, as the stated form misses the residues
        ctx = QContext(q)
        verdicts = {}
        for seed in range(20):
            p = sample(case_id, seed, ctx)
            key = "zero" if not any(np.atleast_1d(p[offsets])) else "offset"
            if key not in verdicts:
                verdicts[key] = check(case_id, p, ctx, seed=seed).verdict
            if len(verdicts) == 2:
                break
        assert verdicts == {"zero": "pass", "offset": "fail"}
