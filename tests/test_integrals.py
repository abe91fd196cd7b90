"""Tests for the integrand, the spectral quadrature and the closed forms."""

import cmath
import itertools
import math
import random
import re
import warnings

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
    """The integrand's node values against h-products written out in h_product."""

    def test_zero_parameter(self):
        # h(x; 0) = 1 exactly: a zero (u, v) pair leaves every node value as it is
        thetas = np.linspace(0.1, 3.0, 7)
        got = _aw_integrand(AWIntegrandSpec(0.3, 0.0, 0.2, 0.0, (0.0,), (0.0,)), CTX)[0](thetas)
        plain = AWIntegrandSpec(0.3, 0.0, 0.2, 0.0)
        assert np.array_equal(got, _aw_integrand(plain, CTX)[0](thetas))
        for theta, v in zip(thetas, got):
            assert abs(v - h_integrand(plain, theta, CTX)) < 1e-12 * max(1.0, abs(v))

    def test_endpoint_collapses_to_square(self):
        # at x = 1, h(x; lam) = (lam;q)_oo^2; h(cos 2t; 1) vanishes at both endpoints
        lam = 0.37
        want = qpoch_inf(lam, CTX).value ** 2
        assert abs(h_product(1.0, lam, CTX) - want) < 1e-14
        f = _aw_integrand(AWIntegrandSpec(lam, 0.2, -0.3, 0.1, (0.5,), (lam,)), CTX)[0]
        assert np.array_equal(f(np.array([0.0, math.pi])), np.zeros(2))

    def test_dual_path_agreement(self):
        # a real spec at real q takes the one-row-per-conjugate-pair branch,
        # a complex one computes every row
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
                thetas = np.array([rng.uniform(0.0, math.pi) for _ in range(34)])
                for theta, v1 in zip(thetas, _aw_integrand(spec, ctx)[0](thetas)):
                    v2 = h_integrand(spec, theta, ctx)
                    assert abs(v1 - v2) < 1e-12 * max(1.0, abs(v1))

    def test_multi(self):
        # each (u, v) pair multiplies the node values by h(x; u) / h(x; v)
        one = AWIntegrandSpec(0.3, -0.45, 0.6, 0.2, (0.7,), (0.15,))
        two = AWIntegrandSpec(0.3, -0.45, 0.6, 0.2, (0.7, -0.5 + 0.2j), (0.15, 0.55))
        thetas = np.linspace(0.1, 3.0, 7)
        got, base = _aw_integrand(two, CTX)[0](thetas), _aw_integrand(one, CTX)[0](thetas)
        for theta, g, b in zip(thetas, got, base):
            x = math.cos(theta)
            want = b * h_product(x, -0.5 + 0.2j, CTX) / h_product(x, 0.55, CTX)
            assert abs(g - want) < 1e-14 * abs(want)


class TestQuadrature:
    def test_constant_integrand_gives_pi(self):
        value, delta, n, _ = _trapezoid_doubling(
            lambda t: np.ones_like(t, dtype=complex), CTX, n_factors=1
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
            _trapezoid_doubling(f, CTX, n_factors=1)
        assert calls == [9, 8, 16, 32]

    def test_zero_numerator_node_is_zero(self):
        # at q = 0.99, a = 0.995, d = q/a the denominator of the node t = 0
        # underflows while its unit rows make the numerator an exact 0: the node
        # is 0 (not 0/0), and the first node that is not finite is t = pi/8,
        # where the denominator underflows under a nonzero numerator
        ctx = QContext(0.99)
        spec = AWIntegrandSpec(0.995, 0.9, 0.5, 0.99 / 0.995, (0.495,), (0.5,))
        f = _aw_integrand(spec, ctx)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f(np.array([0.0]))[0] == 0.0
            with pytest.raises(NoConvergence, match=re.escape(f"not finite at theta = {math.pi / 8!r}")):
                integrate_aw(spec, ctx)

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
        value, delta, n, deltas = _trapezoid_doubling(f, CTX, nf)
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
    qcore.qpoch_inf_many: the oracle of _aw_integrand's h-products."""
    lams_num, lams_den = spec.u, (spec.a, spec.b, spec.c, spec.d) + spec.v

    def f(thetas):
        e = np.exp(1j * thetas)
        rows = [lam * z for lam in lams_num + lams_den for z in (e, np.conj(e))]
        vals = qpoch_inf_many(np.array([e * e, np.conj(e * e)] + rows), ctx)[0]
        split = 2 + 2 * len(lams_num)
        return np.prod(vals[:split], axis=0) / np.prod(vals[split:], axis=0)

    return f


def quadrature_nodes():
    """The node arrays of the trapezoid's first three levels."""
    return [np.linspace(0.0, math.pi, 9)] + [np.linspace(0.0, math.pi, 2 * n + 1)[1::2] for n in (8, 16)]


class TestConjugateRows:
    """The integrand, one product of quadratic factors per h-function, agrees
    with full_rows_integrand, which computes both conjugate rows of every h,
    to 1e-13 relative at every node (both are exact zeros at t = 0, pi)."""

    SPECS = [
        (0.3, -0.45, 0.6, 0.2, (), ()),
        (0.3, -0.45, 0.6, 0.2, (0.7,), (0.15,)),
        (0.3, -0.45, 0.6, 0.2, (0.7, -0.5), (0.15, 0.55)),
    ]
    QS = [0.3, 0.8, -0.5, 0.95, 0.5 + 0.3j]

    @staticmethod
    def assert_nodes_close(spec, ctx):
        """The node values of the first three levels, each checked against the oracle."""
        got, want = _aw_integrand(spec, ctx)[0], full_rows_integrand(spec, ctx)
        values = []
        for thetas in quadrature_nodes():
            g, w = got(thetas), want(thetas)
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

    @pytest.mark.parametrize("q", [0.3, 0.8, -0.5])
    def test_real_values_at_real_q(self, q):
        # every h is then a product of real factors: the nodes are float64 and
        # the integral exactly real; a complex lam gives complex nodes
        ctx = QContext(q)
        spec = AWIntegrandSpec(0.3, -0.45, 0.6, 0.2, (0.7,), (0.15,))
        assert all(v.dtype == np.float64 for v in self.assert_nodes_close(spec, ctx))
        assert integrate_aw(spec, ctx).value.imag == 0.0
        complex_spec = AWIntegrandSpec(0.3, -0.45 + 0.2j, 0.6, 0.2, (0.7,), (0.15,))
        assert _aw_integrand(complex_spec, ctx)[0](np.linspace(0.0, math.pi, 9)).dtype == np.complex128


def test_integrand_makes_no_qpoch_call(monkeypatch):
    # every h comes from the h-product kernel, the unit row included
    def refuse(xs, ctx):
        raise AssertionError("the integrand called qpoch_inf_many")

    monkeypatch.setattr(integrals, "_UNIT_ROWS", {})
    for mod in (qcore, integrals):
        monkeypatch.setattr(mod, "qpoch_inf_many", refuse, raising=False)
    for q in (0.5, 0.5 + 0.3j):
        integrate_aw(AWIntegrandSpec(0.3, -0.45 + 0.2j, 0.6, 0.2, (0.7,), (0.15,)), QContext(q))


class TestNodeIndependence:
    """A node's value depends on the node alone, not on the array it is computed
    in: its position, the array's length, or the blocks the kernel cuts."""

    @pytest.mark.parametrize("q", TestConjugateRows.QS)
    @pytest.mark.parametrize("b", [-0.45, -0.45 + 0.2j])
    @pytest.mark.parametrize("block", [None, 1, 700])
    def test_bit_for_bit(self, monkeypatch, q, b, block):
        if block is not None:  # blocks of two entries, or of a few, one left over
            monkeypatch.setattr(qcore, "_BLOCK", block)
        monkeypatch.setattr(integrals, "_UNIT_ROWS", {})
        ctx = QContext(q)
        f = _aw_integrand(AWIntegrandSpec(0.3, b, 0.6, 0.2, (0.7, -0.5), (0.15, 0.55)), ctx)[0]
        thetas = np.linspace(0.0, math.pi, 513)
        whole = f(thetas)
        rng = random.Random(5)
        picks = [[0], [1], [256], [511, 512], [3, 4, 5], list(range(1, 513, 2)), list(range(0, 513, 7))]
        picks += [sorted(rng.sample(range(513), k)) for k in (1, 2, 9, 40)]
        picks += [list(range(512, -1, -3))]
        for idx in picks:
            assert f(thetas[idx]).tobytes() == whole[idx].tobytes(), idx


class TestUnitRowMemo:
    """The row h(cos 2t; 1) comes from a memo per q and node array: a warm
    memo gives the node values of a cold one, bit for bit, and holds the last
    qcore._TABLE_QS q."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(integrals, "_UNIT_ROWS", {})

    @staticmethod
    def count_unit_row_calls(monkeypatch):
        calls = []

        def counted(x, factors):
            calls.append(factors[3].size == 1)  # the unit row; 4 lam rows or more
            return qcore._h_products(x, factors)

        monkeypatch.setattr(integrals, "_h_products", counted)
        return calls

    @pytest.mark.parametrize("q", [0.3, 0.8, -0.5, 0.95, 0.5 + 0.3j])
    @pytest.mark.parametrize("b", [-0.45, -0.45 + 0.2j])
    def test_cold_then_warm(self, monkeypatch, q, b):
        spec = AWIntegrandSpec(0.3, b, 0.6, 0.2, (0.7, -0.5), (0.15, 0.55))
        TestConjugateRows.assert_nodes_close(spec, QContext(0.6))  # another q first
        ctx = QContext(q)
        assert repr(ctx.q) not in integrals._UNIT_ROWS
        calls = self.count_unit_row_calls(monkeypatch)
        cold = TestConjugateRows.assert_nodes_close(spec, ctx)
        assert sum(calls) == 3 and len(integrals._UNIT_ROWS[repr(ctx.q)]) == 3
        calls.clear()
        warm = TestConjugateRows.assert_nodes_close(spec, ctx)
        assert calls and not any(calls)  # every unit row from the memo
        assert all(w.tobytes() == c.tobytes() for w, c in zip(warm, cold))

    def test_bounded_by_the_last_q(self):
        spec = AWIntegrandSpec(0.3, -0.45, 0.6, 0.2)
        thetas = np.linspace(0.0, math.pi, 9)
        qs = [0.1 * k for k in range(1, 10)]
        for k, q in enumerate(qs):
            _aw_integrand(spec, QContext(q))[0](thetas)
            assert len(integrals._UNIT_ROWS) == min(k + 1, qcore._TABLE_QS)
        kept = [repr(complex(q)) for q in qs[-qcore._TABLE_QS:]]
        assert list(integrals._UNIT_ROWS) == kept
        _aw_integrand(spec, QContext(qs[-qcore._TABLE_QS]))[0](thetas)  # a hit moves its q last
        assert list(integrals._UNIT_ROWS) == kept[1:] + kept[:1]

    @pytest.mark.parametrize("q", [0.3, 0.5 + 0.3j])
    def test_deep_levels_are_not_kept(self, q):
        ctx = QContext(q)
        spec = AWIntegrandSpec(0.3, -0.45 + 0.2j, 0.6, 0.2, (0.7,), (0.15,))
        n = integrals._UNIT_ROW_NODES
        kept, deep = (np.linspace(0.0, math.pi, 2 * m + 1)[1::2] for m in (n, 2 * n))
        got, want = _aw_integrand(spec, ctx)[0], full_rows_integrand(spec, ctx)
        values = []
        for thetas in (kept, deep, deep):
            values.append(got(thetas))
            # next to t = 0, pi the factor 2 - 2 cos 2t holds cos 2t's rounding, about
            # 1e-16 absolute: relative to the largest node, not to each node
            w = want(thetas)
            assert (np.abs(values[-1] - w) <= 1e-13 * np.abs(w).max()).all()
        assert values[1].tobytes() == values[2].tobytes()  # computed twice, cold both times
        assert list(integrals._UNIT_ROWS[repr(ctx.q)]) == [(kept.shape, kept.tobytes())]

    def test_rows_are_read_only(self):
        _aw_integrand(AWIntegrandSpec(0.3, -0.45, 0.6, 0.2), CTX)[0](np.linspace(0.0, math.pi, 9))
        (row,) = integrals._UNIT_ROWS[repr(CTX.q)].values()
        assert row.shape == (9,) and row.dtype == np.float64  # one real row at real q
        with pytest.raises(ValueError):
            row[1] = 1.0

    @pytest.mark.parametrize("q", [0.3, 0.5 + 0.3j])
    def test_warm_endpoints_stay_zero(self, q):
        ctx = QContext(q)
        f = _aw_integrand(AWIntegrandSpec(0.37, 0.2, -0.3, 0.1, (0.5,), (0.37,)), ctx)[0]
        nodes = np.linspace(0.0, math.pi, 9)
        cold, warm = f(nodes), f(nodes)
        assert np.array_equal(warm, cold)
        assert warm[0] == 0.0 and warm[-1] == 0.0

    @pytest.mark.parametrize("q", TestConjugateRows.QS)
    def test_cold_and_warm_reads(self, q):
        # a warm read is the cold row bit for bit, and so is each node's value
        # computed in another node array; the row is an exact 0 at t = 0, pi
        ctx = QContext(q)
        nodes = np.linspace(0.0, math.pi, 17)
        cold = integrals._unit_rows(nodes, ctx).copy()
        assert integrals._unit_rows(nodes, ctx).tobytes() == cold.tobytes()
        wider = integrals._unit_rows(np.linspace(0.0, math.pi, 33), ctx)
        assert wider[::2].tobytes() == cold.tobytes()
        assert cold[0] == 0.0 and cold[-1] == 0.0 and (cold[1:-1] != 0.0).all()
        for theta, v in zip(nodes, cold):
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
