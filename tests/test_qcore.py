"""Unit tests for q-shifted factorials and product combinators."""

import ast
import cmath
import dataclasses
import math
import operator
import pathlib
import random
import re
import warnings

import numpy as np
import pytest

from qverify import identities, integrals, qcore, series
from qverify.qcore import (
    INF,
    CapExceeded,
    DivisionByNearZero,
    PoleError,
    QContext,
    ipow,
    q_power_index,
    qfrac,
    qpoch,
    qpoch_inf,
    qpoch_inf_many,
    qpoch_multi,
    terminating_order,
)

CTX5 = QContext(0.5)


def _q_power_index_ref(x, q, lo, hi):
    """q_power_index without its modulus early-out: every candidate is tested."""
    if abs(x) == 0.0:
        return None
    if abs(q) == 0.0:
        return 0 if (lo <= 0 <= hi and abs(x - 1.0) <= qcore.SNAP_RTOL) else None
    est = math.log(abs(x)) / math.log(abs(q))
    if not math.isfinite(est):
        return None
    for m in (round(est), round(est) - 1, round(est) + 1):
        if lo <= m <= hi:
            try:
                ref = ipow(q, m)
            except ZeroDivisionError:
                continue
            if 0.0 < abs(ref) < math.inf and abs(x - ref) <= qcore.SNAP_RTOL * abs(ref):
                return m
    return None


def rand_complex(rng, lo=0.1, hi=0.9):
    r = rng.uniform(lo, hi)
    ph = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * ph)


class TestQContext:
    def test_rejects_q_on_unit_circle(self):
        with pytest.raises(ValueError):
            QContext(1.0)
        with pytest.raises(ValueError):
            QContext(cmath.exp(0.3j))

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            QContext(0.5, series_tol=0.0)
        with pytest.raises(ValueError):
            QContext(0.5, identity_tol=-1e-8)

    def test_fields_are_q_and_the_two_tolerances(self):
        # the product tolerance, caps and pole guard are qcore constants
        fields = [f.name for f in dataclasses.fields(QContext)]
        assert fields == ["q", "series_tol", "identity_tol"]
        with pytest.raises(TypeError):
            QContext(0.5, max_terms=10)

    def test_complex_q_allowed(self):
        ctx = QContext(0.3 + 0.2j)
        assert abs(ctx.q) < 1.0


class TestQpoch:
    def test_order_zero_is_one(self):
        for x in (0.0, 3.7, -2.0 + 1.0j):
            assert qpoch(x, 0, CTX5) == 1.0

    def test_hand_values(self):
        # (0.5;0.5)_2 = (1-0.5)(1-0.25)
        assert abs(qpoch(0.5, 2, CTX5) - 0.375) < 1e-15
        # (0.25;0.5)_{-1} = 1/(1-0.25/0.5)
        assert abs(qpoch(0.25, -1, CTX5) - 2.0) < 1e-14

    def test_exact_zero_on_snapped_base(self):
        for n in (0, 1, 4, 9):
            for k in range(n + 1, n + 4):
                assert qpoch(ipow(CTX5.q, -n), k, CTX5) == 0.0

    def test_inversion(self):
        rng = random.Random(1)
        ctx = QContext(0.4)
        for _ in range(50):
            x = rand_complex(rng)
            n = rng.randint(1, 12)
            lhs = qpoch(x, -n, ctx)
            rhs = 1.0 / qpoch(x * ipow(ctx.q, -n), n, ctx)
            assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_splicing(self):
        rng = random.Random(2)
        ctx = QContext(0.35)
        for _ in range(100):
            x = rand_complex(rng)
            m = rng.randint(-6, 6)
            n = rng.randint(-6, 6)
            lhs = qpoch(x, m + n, ctx)
            rhs = qpoch(x, m, ctx) * qpoch(x * ipow(ctx.q, m), n, ctx)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_pole_error_for_reciprocal_factor(self):
        # (q^{-1}; q)_{-1} has the factor 1 - q^{-1} q^{-1}... choose base so
        # that 1 - x q^{-1} vanishes: x = q
        with pytest.raises(PoleError):
            qpoch(0.5, -1, CTX5)


class TestRelationEq7:
    def test_q_power_reflection(self):
        # (q/a;q)_k = (-1)^k q^{k(k+1)/2} a^{-k} (q^{-k} a;q)_k
        rng = random.Random(3)
        for q in (0.3, 0.5, 0.8):
            ctx = QContext(q)
            for k in range(0, 21):
                a = rand_complex(rng)
                lhs = qpoch(q / a, k, ctx)
                rhs = ipow(-1.0 + 0j, k) * ipow(ctx.q, k * (k + 1) // 2)
                rhs *= ipow(a, -k) * qpoch(ipow(ctx.q, -k) * a, k, ctx)
                assert abs(lhs - rhs) <= 1e-12 * max(1e-30, abs(lhs))


class TestQpochInf:
    def test_zero_base(self):
        r = qpoch_inf(0.0, CTX5)
        assert r.value == 1.0 and r.abs_error_estimate == 0.0

    def test_euler_product_half(self):
        # (1/2; 1/2)_inf, frozen from a 200-factor extended-precision product
        r = qpoch_inf(0.5, CTX5)
        assert abs(r.value - 0.2887880950866024) < 1e-13

    def test_snapped_bases_give_exact_zero(self):
        assert qpoch_inf(1.0, CTX5).value == 0.0
        assert qpoch_inf(ipow(CTX5.q, -3), CTX5).value == 0.0

    def test_infinite_finite_consistency(self):
        rng = random.Random(4)
        for q in (0.3, 0.5, 0.8):
            ctx = QContext(q)
            for _ in range(25):
                x = rand_complex(rng)
                n = rng.randint(1, 8)
                full = qpoch_inf(x, ctx)
                shifted = qpoch_inf(x * ipow(ctx.q, n), ctx)
                ratio = full.value / shifted.value
                fin = qpoch(x, n, ctx)
                bound = (full.abs_error_estimate / abs(full.value)
                         + shifted.abs_error_estimate / abs(shifted.value)
                         + 1e-13)
                assert abs(ratio - fin) <= bound * abs(fin) + 1e-300

    def test_error_bound_is_honest(self, monkeypatch):
        ctx = QContext(0.8)
        refs = [qpoch_inf(x, ctx) for x in (0.7, -0.55 + 0.3j)]
        monkeypatch.setattr(qcore, "PRODUCT_TOL", 1e-10)
        for x, ref in zip((0.7, -0.55 + 0.3j), refs):
            loose = qpoch_inf(x, ctx)
            assert loose.terms_used < ref.terms_used
            assert abs(loose.value - ref.value) <= loose.abs_error_estimate + 1e-15

    def test_cap_exceeded(self):
        # at q = 0.999, (0.5;q)_oo needs about 38,000 factors
        with pytest.raises(CapExceeded):
            qpoch_inf(0.5, QContext(0.999))


def array_times(a, b):
    """a * b by numpy's array complex multiply, the arithmetic of qpoch_inf_many's products."""
    return complex((np.array([a, a]) * np.array([b, b]))[0])


def scalar_qpoch_inf(x, ctx, times=array_times):
    """(x;q)_oo by the scalar product loop, the oracle for qpoch_inf_many.

    The kernel's stop rule and order of factors; ``times`` multiplies them
    in: numpy's array multiply (the kernel's arithmetic) or Python's own.
    Returns (value, error bound, factors used).
    """
    x = complex(x)
    if x == 0.0:
        return 1.0 + 0.0j, 0.0, 1
    q = ctx.q
    aq = abs(q)
    ax = abs(x)
    m = q_power_index(x, q, -qcore.MAX_PRODUCT_FACTORS, 0)
    if m is not None:
        return 0.0 + 0.0j, 0.0, -m + 1
    p = None
    qk = 1.0 + 0.0j
    small = 0
    tail_gate = qcore.PRODUCT_TOL * (1.0 - aq)
    for k in range(qcore.MAX_PRODUCT_FACTORS):
        f = 1.0 - x * qk
        p = f if p is None else times(p, f)
        small = small + 1 if abs(qk) < qcore.PRODUCT_TOL / ax else 0
        qk *= q
        if small >= 3 and abs(qk) < tail_gate / ax:
            head = ax * abs(qk)
            t = head / (1.0 - aq)
            t /= max(1.0 - head, 0.5)
            return p, abs(p) * math.expm1(t), k + 1
    raise CapExceeded("oracle hit the factor cap")


def rand_bases(rng, count, hi=2.5):
    return [rand_complex(rng, 0.0, hi) for _ in range(count)]


class TestQpochInfMany:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.95])
    def test_bit_equal_to_scalar_loop_at_real_q(self, q):
        ctx = QContext(q)
        xs = rand_bases(random.Random(6), 200)
        values, errs, used = qpoch_inf_many(xs, ctx)
        for x, v, e, k in zip(xs, values, errs, used):
            want, want_err, want_k = scalar_qpoch_inf(x, ctx)
            assert v == want and k == want_k
            assert abs(e - want_err) <= 1e-15 * want_err

    @pytest.mark.parametrize("q", [0.5 + 0.3j, 0.6j, -0.5])
    def test_close_to_scalar_loop_at_complex_q(self, q):
        ctx = QContext(q)
        xs = rand_bases(random.Random(7), 200)
        values, _, used = qpoch_inf_many(xs, ctx)
        for x, v, k in zip(xs, values, used):
            want, _, want_k = scalar_qpoch_inf(x, ctx)
            assert k == want_k
            assert abs(v - want) <= 4 * k * 2.0 ** -52 * abs(want)

    def test_shapes(self):
        rng = random.Random(8)
        for shape in [(), (5,), (3, 4), (0,), (2, 0)]:
            xs = np.array(rand_bases(rng, math.prod(shape))).reshape(shape)
            values, errs, used = qpoch_inf_many(xs, CTX5)
            assert values.shape == errs.shape == used.shape == shape
            for x, v in zip(xs.ravel(), values.ravel()):
                assert v == scalar_qpoch_inf(x, CTX5)[0]

    def test_snapped_bases_and_zero(self):
        for q in (0.5, 0.5 + 0.3j, -0.5):
            ctx = QContext(q)
            xs = [ipow(ctx.q, -m) for m in (0, 1, 3, 7)] + [0.0]
            values, errs, used = qpoch_inf_many(xs, ctx)
            assert list(values) == [0.0, 0.0, 0.0, 0.0, 1.0]
            assert list(errs) == [0.0] * 5
            assert list(used) == [1, 2, 4, 8, 1]

    def test_input_larger_than_one_block(self):
        ctx = QContext(0.8)
        xs = rand_bases(random.Random(9), 1500, hi=1.0)
        values, _, used = qpoch_inf_many(xs, ctx)
        assert len(xs) * used.max() > qcore._BLOCK
        assert all(v == scalar_qpoch_inf(x, ctx)[0] for x, v in zip(xs, values))

    def test_cap_exceeded_names_the_base(self):
        ctx = QContext(0.999)
        with pytest.raises(CapExceeded, match=r"base \(0\.5"):
            qpoch_inf_many([0.0, 0.5, 0.7], ctx)
        with pytest.raises(CapExceeded, match=r"base \(0\.7"):
            qpoch_multi([0.0, 0.7], INF, ctx)
        with pytest.raises(CapExceeded, match="base"):
            qpoch_inf_many([0.5, complex("nan")], CTX5)

    def test_products_keep_the_per_base_order(self):
        ctx = QContext(0.8)
        rng = random.Random(10)
        numer, denom = rand_bases(rng, 9, 0.9), rand_bases(rng, 9, 0.9)

        def oracle(bases):
            return math.prod((scalar_qpoch_inf(b, ctx)[0] for b in bases), start=1.0 + 0.0j)

        assert qpoch_multi(numer, INF, ctx) == oracle(numer)
        assert qfrac(numer, denom, INF, ctx) == oracle(numer) / oracle(denom)


class TestPowerTableCache:
    """The cached q^k tables change no value, whatever the calls before."""

    XS = [0.3, 0.2 - 0.5j, -0.7, 1.6, 0.9j]

    @staticmethod
    def fresh(monkeypatch, xs, ctx):
        monkeypatch.setattr(qcore, "_TABLES", {})
        return qpoch_inf_many(xs, ctx)

    @staticmethod
    def assert_same(got, want):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("q", [0.95, -0.5, 0.5 + 0.3j])
    def test_grown_table_serves_equal_values(self, monkeypatch, q):
        ctx = QContext(q)
        want = self.fresh(monkeypatch, self.XS, ctx)
        wide = self.fresh(monkeypatch, [-4.0, 1j], ctx)  # wider than any base of XS
        assert qcore._TABLES[repr(ctx.q)].size > want[2].max() + 1
        self.assert_same(qpoch_inf_many(self.XS, ctx), want)
        # and a narrow table grown by the wide call afterwards
        self.fresh(monkeypatch, [0.01], ctx)
        self.assert_same(qpoch_inf_many([-4.0, 1j], ctx), wide)

    def test_tables_of_different_q_do_not_mix(self, monkeypatch):
        qs = (0.3, 0.8, complex(0.8, -0.0), -0.8)
        want = [self.fresh(monkeypatch, self.XS, QContext(q)) for q in qs]
        monkeypatch.setattr(qcore, "_TABLES", {})
        for _ in range(2):
            for q, w in zip(qs, want):
                self.assert_same(qpoch_inf_many(self.XS, QContext(q)), w)
        assert len(qcore._TABLES) == len(qs)

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(qcore, "_TABLES", {})
        qs = [0.1 * k for k in range(1, 10)]
        for q in qs:
            qpoch_inf_many(self.XS, QContext(q))
            assert len(qcore._TABLES) <= qcore._TABLE_QS
        assert list(qcore._TABLES) == [repr(complex(q)) for q in qs[-qcore._TABLE_QS:]]
        with pytest.raises(ValueError):  # served tables are read-only
            qcore._TABLES[repr(complex(qs[-1]))][0] = 2.0


class TestHelpers:
    def test_ipow_matches_builtin_for_small_exponents(self):
        rng = random.Random(5)
        for _ in range(30):
            x = rand_complex(rng, 0.2, 2.0)
            n = rng.randint(-20, 20)
            assert abs(ipow(x, n) - x ** n) <= 1e-12 * abs(x ** n)

    def test_ipow_of_an_array_is_ipow_of_each_entry(self):
        # the same products, to the ulps by which numpy's complex multiply and
        # divide (FMA, another division rule) differ from Python's
        rng = random.Random(6)
        xs = np.array([rand_complex(rng, 0.2, 2.0) for _ in range(30)] + [-0.5, 0.8j])
        for n in (-3, -1, 0, 1, 2, 7):
            want = np.array([ipow(x, n) for x in xs.tolist()])
            assert np.all(abs(ipow(xs, n) - want) <= 4e-16 * (abs(n) + 1) * abs(want))

    def test_q_power_index(self):
        q = 0.5 + 0.1j
        for m in (-7, -1, 0, 1, 9):
            assert q_power_index(ipow(q, m), q, -20, 20) == m
        assert q_power_index(0.123 + 0.456j, q, -20, 20) is None
        # a reference q^m that overflows (q^|m| underflowed) or is 0 matches nothing
        assert q_power_index(1e308, 0.5 + 0.3j, -10000, 0) is None
        assert q_power_index(1e308, 1e-300, -10000, 0) is None
        assert _q_power_index_ref(1e308, 0.5 + 0.3j, -10000, 0) is None
        assert _q_power_index_ref(1e308, 1e-300, -10000, 0) is None

    def test_terminating_order(self):
        assert terminating_order(ipow(CTX5.q, -4), CTX5) == 4
        assert terminating_order(1.0, CTX5) == 0
        assert terminating_order(0.37, CTX5) is None
        assert terminating_order(1e308, QContext(0.5 + 0.3j)) is None

    def test_q_power_index_modulus_early_out_is_exact(self):
        # the early-out on |log|x| - m0 log|q|| only skips inputs that match no
        # candidate: same result as testing every candidate, on and near the grid
        rng = random.Random(17)
        qs = [0.5, -0.5, 0.3, 0.8, 0.95, 0.999, 0.5 + 0.3j, 0.6j, -0.7 + 0.2j, 1e-300, 1e-3]
        ranges = [(-10000, 0), (1, 1), (-20, 20)]
        hits = 0
        for _ in range(20000):
            q, (lo, hi) = rng.choice(qs), rng.choice(ranges)
            kind = rng.random()
            if kind < 0.6:  # near a power of q, up to just past the snap tolerance
                rel = rng.choice((0.0, 1e-14, 9e-14, 1.1e-13, 1e-12, 1e-10, 1e-9, 1e-7))
                try:
                    x = ipow(q, rng.randint(lo, hi)) * (1 + rel * cmath.exp(1j * rng.uniform(0, 6.3)))
                except ZeroDivisionError:  # q^|m| underflowed to 0
                    continue
            elif kind < 0.9:  # anywhere in the double range
                x = 10.0 ** rng.uniform(-300, 308) * cmath.exp(1j * rng.choice((0.0, rng.uniform(0, 6.3))))
            else:
                x = rng.choice((1e308, -1e308, 1e-320, 1.0, complex(0.0, 1e300)))
            want = _q_power_index_ref(x, q, lo, hi)
            assert q_power_index(x, q, lo, hi) == want, (x, q, lo, hi)
            hits += want is not None
        assert hits > 3000


class TestMultiAndFrac:
    def test_empty_product(self):
        assert qpoch_multi([], 5, CTX5) == 1.0
        assert qpoch_multi([], INF, CTX5) == 1.0

    def test_singleton(self):
        assert qpoch_multi([0.3], 4, CTX5) == qpoch(0.3, 4, CTX5)

    def test_pair_product(self):
        got = qpoch_multi([0.2, 0.3], 2, CTX5)
        want = qpoch(0.2, 2, CTX5) * qpoch(0.3, 2, CTX5)
        assert got == want

    def test_offending_base_identified(self):
        with pytest.raises(PoleError, match="base"):
            qpoch_multi([0.3, 0.5], -1, CTX5)

    def test_qfrac_identical_lists(self):
        assert qfrac([0.4], [0.4], 7, CTX5) == 1.0
        assert qfrac([CTX5.q], [CTX5.q], INF, CTX5) == 1.0

    def test_qfrac_infinite_ratio(self):
        got = qfrac([0.1], [0.2], INF, CTX5)
        want = qpoch_inf(0.1, CTX5).value / qpoch_inf(0.2, CTX5).value
        assert abs(got - want) < 1e-14

    def test_qfrac_pole(self):
        with pytest.raises(PoleError):
            qfrac([0.3], [1.0], INF, CTX5)  # (1;q)_inf = 0 in the denominator


def kernel_oracle(xs, ctx):
    """qpoch_inf_many with the numpy snap stage, gathered rows, a scan for each
    count and one unblocked reduce: the oracle of its fast paths."""
    x = np.asarray(xs, dtype=complex)
    shape, x = x.shape, x.ravel()
    q, aq, cap, tol = ctx.q, abs(ctx.q), qcore.MAX_PRODUCT_FACTORS, qcore.PRODUCT_TOL
    gate, lq = tol * (1.0 - aq), math.log(aq) if aq else -math.inf
    ax = np.abs(x)
    if not np.isfinite(ax).all():
        raise CapExceeded(f"base {complex(x[~np.isfinite(ax)][0])!r} is not finite")
    value, err, used = np.ones(x.size, complex), np.zeros(x.size), np.ones(x.size, int)
    near = np.flatnonzero(ax >= 1.0 - 2.0 * qcore.SNAP_RTOL)
    if near.size:
        m = np.rint(np.log(ax[near]) / lq).astype(int)
        ks = [min(max(k, -cap), 0) for k in m.tolist()]
        powers = {k: ipow(q, k) for k in set(ks)}
        ref = np.array([powers[k] for k in ks], dtype=complex)
        hit = (m >= -cap) & (m <= 0) & (np.abs(x[near] - ref) <= qcore.SNAP_RTOL * np.abs(ref))
        value[near[hit]], used[near[hit]] = 0.0, 1 - m[hit]
    live = np.flatnonzero((ax > 0.0) & (value != 0.0))
    width = min(cap, max(3, math.floor(math.log(gate / ax[live].max(initial=tol)) / lq) + 5))
    table = np.multiply.accumulate(np.concatenate([[1.0], np.full(width, q)]))
    mod, xl, al = np.abs(table), x[live], ax[live]
    # the scalar rule, scanned: 3 small |q^k| < tol/|x| in a row, and |q^{k+1}| < gate/|x|
    small = mod[None, :-1] < (tol / al)[:, None]
    stop = small[:, 2:] & small[:, 1:-1] & small[:, :-2] & (mod[None, 3:] < (gate / al)[:, None])
    if not (done := stop.any(axis=1)).all():
        bad = (~done).argmax()
        raise CapExceeded(
            f"base {complex(xl[bad])!r}: (x;q)_oo did not converge within {cap} "
            f"factors (|x| = {al[bad]:.3g}, |q| = {aq:.6g})"
        )
    last = stop.argmax(axis=1) + 2
    twin = np.concatenate([xl, xl]) if xl.size == 1 else xl  # one column reduces differently
    ks = np.arange(int(last.max(initial=0)) + 1)[:, None]
    f = np.where(ks > np.resize(last, twin.size), 1.0, 1.0 - table[ks] * twin)
    vals = np.multiply.reduce(f, axis=0)[:xl.size]
    if not (finite := np.isfinite(vals)).all():
        raise CapExceeded(f"base {complex(xl[finite.argmin()])!r}: (x;q)_oo is not finite")
    h = al * mod[last + 1]
    value[live], used[live] = vals, last + 1
    err[live] = np.abs(vals) * np.expm1(h / (1.0 - aq) / np.maximum(1.0 - h, 0.5))
    return value.reshape(shape), err.reshape(shape), used.reshape(shape)


def kernel_outcome(fn, xs, ctx):
    try:
        return fn(xs, ctx)
    except CapExceeded as exc:
        return str(exc)


class TestKernelBitIdentity:
    """qpoch_inf_many's snap loop and slice path change no bit, error or message."""

    QS = [0.3, 0.5, 0.8, -0.5, 0.95, 0.9, 0.5 + 0.3j, 0.6j, 0.0]

    def assert_same(self, xs, ctx):
        with np.errstate(all="ignore"):
            got = kernel_outcome(qpoch_inf_many, xs, ctx)
            want = kernel_outcome(kernel_oracle, xs, ctx)
        if isinstance(want, str):
            assert got == want
            return got
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert np.array_equal(g, w, equal_nan=True)
        return got

    @pytest.mark.parametrize("q", QS)
    def test_edge_cases(self, q):
        ctx = QContext(q)
        snapped = [ipow(ctx.q, -m) for m in (0, 1, 5)] if q else [1.0]
        thetas = np.linspace(0.0, math.pi, 9)
        e = np.exp(1j * thetas)
        cases = [
            [], np.zeros((2, 0)), 0.4 - 0.1j, [0.0], [0.0, 0.3, 0.0],
            snapped, snapped + [0.3, 0.0, 2.5j], [1.7 + 0.4j, 0.2, 1e3],
            [x * (1.0 + d) for x in snapped for d in (5e-14, 3e-13, 1e-10)],
            np.array([e * e, 0.3 * e, 0.5 * np.conj(e), 1.2 * e]),  # integrand rows, 2-D
            [0.5, complex("nan")], [complex(math.inf, 1.0), 0.2], [1e300 + 1e300j],
        ]
        for xs in cases:
            self.assert_same(xs, ctx)

    def test_at_the_factor_cap(self):
        # at q = 0.999 only |x| below about 5e-16 converges within MAX_PRODUCT_FACTORS,
        # and q^-cap is the last power that snaps
        ctx, cap = QContext(0.999), qcore.MAX_PRODUCT_FACTORS
        assert self.assert_same([0.0, 0.5, 0.7], ctx).startswith("base (0.5")
        values, _, used = self.assert_same([ipow(ctx.q, -m) for m in (0, 1, cap)] + [1e-17], ctx)
        assert list(values[:3]) == [0.0] * 3 and list(used[:3]) == [1, 2, cap + 1]
        got = self.assert_same([ipow(ctx.q, -m) for m in (0, 1, cap, cap + 1)] + [0.9], ctx)
        assert got.startswith(f"base {ipow(ctx.q, -cap - 1)!r}")

    @pytest.mark.parametrize("q", QS)
    def test_random_calls(self, q):
        ctx = QContext(q)
        rng = random.Random(12)
        for _ in range(30):
            hi = rng.choice((1.0, 3.0, 1e4))
            xs = [rand_complex(rng, 0.0, hi) for _ in range(rng.randint(1, 28))]
            if q and rng.random() < 0.5:
                xs[rng.randrange(len(xs))] = ipow(ctx.q, -rng.randint(0, 8))
            if rng.random() < 0.2:
                xs[rng.randrange(len(xs))] = 0.0
            self.assert_same(np.array(xs).reshape(-1, len(xs) // rng.choice((1, len(xs)))), ctx)

    def test_blocks(self):
        ctx = QContext(0.8)
        xs = rand_bases(random.Random(13), 1500, hi=1.0)
        self.assert_same(xs, ctx)
        self.assert_same(xs + [ipow(ctx.q, -2), 0.0], ctx)

    @pytest.mark.parametrize("q", QS)
    def test_close_to_the_python_loop(self, q):
        # Python's complex multiply rounds apart from numpy's array multiply
        # (which may fuse its multiply-adds): the same count, within 4 ulps a factor
        ctx = QContext(q)
        xs = rand_bases(random.Random(14), 100)
        values, _, used = qpoch_inf_many(xs, ctx)
        for x, v, k in zip(xs, values, used):
            want, _, want_k = scalar_qpoch_inf(x, ctx, operator.mul)
            assert k == want_k
            assert abs(v - want) <= 4 * k * 2.0 ** -52 * abs(want)

    @pytest.mark.parametrize("q", [0.3, 0.8, -0.5, 0.95, 0.5 + 0.3j])
    def test_value_depends_on_the_base_alone(self, monkeypatch, q):
        # the same bits (signed zeros too) and count whether a base is alone in
        # its call, one of two, in a call of several blocks, or alone in the
        # last block of a call
        ctx = QContext(q)
        rng = random.Random(15)
        xs = rand_bases(rng, 1494, hi=1.0) + [2.5, -1.7, 1.3 + 0.2j, 3.0, 0.0, ipow(ctx.q, -2)]
        values, _, used = qpoch_inf_many(xs, ctx)
        assert len(xs) * used.max() > 2 * qcore._BLOCK
        monkeypatch.setattr(qcore, "_BLOCK", 1)  # blocks of two entries
        odd = qpoch_inf_many(xs[-301:], ctx)  # its last block holds one entry
        for i in rng.sample(range(len(xs) - 301, len(xs)), 30) + [len(xs) - 3]:
            for got, j in ((qpoch_inf_many([xs[i]], ctx), 0),
                           (qpoch_inf_many([xs[i], xs[i - 1]], ctx), 0),
                           (odd, i - len(xs) + 301)):
                assert got[0][j].tobytes() == values[i].tobytes() and got[2][j] == used[i]


class TestHProducts:
    """qcore._h_factors and _h_products: h(x; lam) = prod_k (1 - 2 lam q^k x + lam^2 q^{2k})
    with each lam's factor count that of (lam;q)_oo in qpoch_inf_many."""

    QS = [0.3, 0.8, -0.5, 0.95, 0.5 + 0.3j]

    @pytest.mark.parametrize("q", QS)
    def test_counts_are_those_of_qpoch_inf_many(self, q):
        ctx = QContext(q)
        rng = random.Random(31)
        lams = [rand_complex(rng, 1e-6, 0.999) for _ in range(40)]
        lams += [rng.uniform(-0.999, 0.999) for _ in range(40)] + [0.0, 1.0]
        counts = qcore._h_factors(lams, ctx)[3]
        used = qpoch_inf_many(lams, ctx)[2]
        assert counts[-2] == 0 and (counts[:-2] == used[:-2]).all()
        assert counts[-1] == qpoch_inf_many([1.0 + 1e-12], ctx)[2][0]  # 1 itself snaps there

    @pytest.mark.parametrize("q", [0.995, 0.998])
    def test_cap_at_the_same_lam(self, q):
        # bisect |lam| to where (lam;q)_oo first needs more than the cap, then
        # check both kernels on a ladder of moduli across that point
        ctx = QContext(q)

        def caps(fn, lam):
            try:
                fn(lam)
            except CapExceeded:
                return True
            return False

        lo, hi = 1e-30, 0.5
        assert not caps(lambda lam: qpoch_inf_many([lam], ctx), lo)
        assert caps(lambda lam: qpoch_inf_many([lam], ctx), hi)
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if mid in (lo, hi):
                break
            if caps(lambda lam: qpoch_inf_many([lam], ctx), mid):
                hi = mid
            else:
                lo = mid
        ladder = [lo * (1.0 - 1e-9), lo, hi, hi * (1.0 + 1e-9), 2.0 * hi, 0.5, 0.999]
        for lam in ladder + [-x for x in ladder] + [x * cmath.exp(0.4j) for x in ladder]:
            want = caps(lambda x: qpoch_inf_many([x], ctx), lam)
            assert caps(lambda x: qcore._h_factors([0.3 * lo, x], ctx), lam) == want, lam
        # the unit row h(cos 2t; 1) caps where (e^{2it};q)_oo does off t = 0, pi
        assert caps(lambda x: qpoch_inf_many([x], ctx), cmath.exp(0.6j))
        assert caps(lambda x: qcore._h_factors([x], ctx), 1.0)
        with pytest.raises(CapExceeded, match=re.escape("base (0.5+0j): h(x; lam) did not converge")):
            qcore._h_factors([0.0, 0.5, 1e-40], ctx)

    @pytest.mark.parametrize("q", QS)
    def test_zero_lam_is_exactly_one(self, q):
        ctx = QContext(q)
        x = np.cos(np.linspace(0.0, math.pi, 21))
        rows = qcore._h_products(x, qcore._h_factors([0.0, 0.4, 0.0], ctx))
        assert (rows[0] == 1.0).all() and (rows[2] == 1.0).all() and (rows[1] != 1.0).all()
        assert (qcore._h_products(x, qcore._h_factors([0.0], ctx)) == 1.0).all()

    @pytest.mark.parametrize("q", QS)
    def test_unit_row_zero_and_dtype(self, q):
        # h(x; 1) has the exact factor 2 - 2x at k = 0; real q and lam give float64
        ctx = QContext(q)
        x = np.array([1.0, 0.5, -0.25, 1.0])
        row = qcore._h_products(x, qcore._h_factors([1.0], ctx))[0]
        assert row[0] == 0.0 and row[-1] == 0.0 and (row[1:-1] != 0.0).all()
        real = complex(q).imag == 0.0
        assert row.dtype == (np.float64 if real else np.complex128)
        assert qcore._h_products(x, qcore._h_factors([0.3j], ctx)).dtype == np.complex128

    @pytest.mark.parametrize("q", QS)
    def test_matches_the_conjugate_rows(self, q):
        # h(x; lam) = (lam e^{it};q)_oo (lam e^{-it};q)_oo at x = cos t
        ctx = QContext(q)
        rng = random.Random(8)
        lams = [rand_complex(rng, 0.05, 0.9) for _ in range(3)] + [0.7, -0.45]
        t = np.linspace(0.0, math.pi, 37)
        got = qcore._h_products(np.cos(t), qcore._h_factors(lams, ctx))
        e = np.exp(1j * t)
        for row, lam in zip(got, lams):
            want = qpoch_inf_many(lam * e, ctx)[0] * qpoch_inf_many(lam * np.conj(e), ctx)[0]
            assert (np.abs(row - want) <= 1e-13 * np.abs(want)).all()


class TestSnapOnTheGrid:
    """qpoch_inf_many zeroes an entry exactly where q_power_index(x, q, -cap, 0) places it."""

    def assert_zero_iff_on_grid(self, xs, ctx):
        for x in xs:  # one base a call: a product that overflows raises
            try:
                with np.errstate(all="ignore"):
                    zero = qpoch_inf_many([x], ctx)[0][0] == 0.0
            except CapExceeded as exc:
                assert str(exc).endswith("(x;q)_oo is not finite"), exc
                zero = False
            on_grid = q_power_index(x, ctx.q, -qcore.MAX_PRODUCT_FACTORS, 0) is not None
            assert zero == on_grid, x

    @pytest.mark.parametrize("q", [0.5, -0.5, 0.25, 0.8, 0.5 + 0.3j, 0.95])
    def test_random_bases(self, q):
        ctx = QContext(q)
        rng = random.Random(21)
        xs = [rand_complex(rng, 0.0, 3.0) for _ in range(60)]
        xs += [ipow(ctx.q, -rng.randint(0, 40)) * (1.0 + rng.choice((0.0, 5e-14, 3e-13, 1e-9)))
               for _ in range(60)]
        self.assert_zero_iff_on_grid(xs, ctx)

    @pytest.mark.parametrize("q", [0.5, -0.5, 0.25])
    def test_overflowing_reference_never_snaps(self, q):
        # the nearest power q^m of 1.7e308 overflows to inf: no match, so the
        # product is not an exact zero; it overflows, and raises rather than
        # return NaN, and so does a ratio built on it
        ctx = QContext(q)
        self.assert_zero_iff_on_grid([1.7e308], ctx)
        assert q_power_index(1.7e308, ctx.q, -qcore.MAX_PRODUCT_FACTORS, 0) is None
        message = re.escape("base (1.7e+308+0j): (x;q)_oo is not finite")
        with np.errstate(all="ignore"):
            with pytest.raises(CapExceeded, match=message):
                qpoch_inf_many([1.7e308], ctx)
            with pytest.raises(CapExceeded, match=message):
                qfrac([1.7e308], [0.5], INF, ctx)

    def test_overflow_raises_without_warnings(self):
        # the kernel tests its products itself, so numpy's overflow and
        # invalid-value warnings stay off the caller's stderr
        ctx = QContext(0.5)
        message = re.escape("base (1.7e+308+0j): (x;q)_oo is not finite")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapExceeded, match=message):
                qpoch_inf_many([1.7e308], ctx)
            with pytest.raises(CapExceeded, match=message):
                qfrac([1.7e308], [0.5], INF, ctx)
        assert np.geterr()["over"] == np.geterr()["invalid"] == "warn"  # the caller's state is back


class TestNearPoleLocator:
    def test_small_q_has_no_reachable_grid(self):
        # q^60 underflows for |q| below about 4e-6: those powers are skipped, not divided by
        ctx = QContext(1e-6)
        assert qcore._near_pole([1.0 + 1e-7, 1e6 * (1.0 + 1e-7), 0.5], ctx.q) is not None
        assert qcore._near_pole([1e300, 2.0, 1e-3], ctx.q) is None

    def test_zero_q_flags_only_the_base_near_one(self):
        assert qcore._near_pole([1.0 + 1e-7], 0.0) is not None
        assert qcore._near_pole([1.0, 1.0 + 1e-4, 0.5], 0.0) is None

    @pytest.mark.parametrize("q", [0.5, 0.95, -0.5, -0.9, 0.5 + 0.3j, 0.6j])
    def test_modulus_prefilter_is_exact(self, q):
        # bases with |v| < 1 - 2 margin skip the locator: the same reason as
        # the loop that tests every base, on and within 1e-3 of q^j, -70 <= j <= 3,
        # and at the cut
        def unfiltered(bases, q):
            for v in bases:
                m = q_power_index(v, q, -60, 0, qcore._POLE_MARGIN)
                if m is not None and q_power_index(v, q, m, m) is None:
                    return f"divisor base {v!r} lies within {qcore._POLE_MARGIN:g} of a power of q"
            return None

        rng = random.Random(18)
        cut = 1.0 - 2.0 * qcore._POLE_MARGIN
        bases = [1.0 - 1e-5, cut * (1.0 + 1e-12), cut, cut * (1.0 - 1e-12), 1.0 - 3e-5]
        for _ in range(3000):
            rel = rng.choice((0.0, 10.0 ** rng.uniform(-16, -3), rng.uniform(0.0, 1e-3)))
            bases.append(ipow(q, rng.randint(-70, 3)) * (1.0 + rel * cmath.exp(1j * rng.uniform(0.0, 6.3))))
        flagged = 0
        for v in bases:
            want = unfiltered([v], q)
            assert qcore._near_pole([v], q) == want, v
            flagged += want is not None
        assert flagged > 300


class TestTerminatingOrder:
    def test_agrees_with_the_power_index_at_the_cut(self):
        # |x| < 1 - 2 SNAP_RTOL returns None at once; above it the full test runs
        for q in (0.5, -0.5, 0.5 + 0.3j, 0.95):
            ctx = QContext(q)
            for r in (0.3, 1 - 3e-13, 1 - 2e-13, 1 - 1e-13, 1 - 5e-14, 1.0, 1 + 5e-14, 1 + 2e-13):
                for x in (r, r * ipow(ctx.q, -2), complex(0.0, r)):
                    m = q_power_index(x, ctx.q, -qcore.MAX_TERMS, 0)
                    assert terminating_order(x, ctx) == (None if m is None else -m)


class TestOverflowFallback:
    """A product of finite (x;q)_oo that overflows is redone as mantissa x 2^e."""

    CTX = QContext(0.8)
    BIG = [5e5 * cmath.exp(1j * t) for t in (0.3, 1.9, -2.4)]  # (x;q)_oo up to 1e174

    def test_ratio_of_overflowing_products(self):
        values = qpoch_inf_many(self.BIG, self.CTX)[0].tolist()
        assert all(map(cmath.isfinite, values))
        assert not cmath.isfinite(math.prod(values))  # the plain product is lost
        assert qfrac(self.BIG, self.BIG, INF, self.CTX) == 1.0
        got = qfrac(self.BIG + [0.3], self.BIG[:2] + [0.6], INF, self.CTX)
        want = values[2] * qpoch_inf(0.3, self.CTX).value / qpoch_inf(0.6, self.CTX).value
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_product_saturates_instead_of_nan(self):
        got = qpoch_multi(self.BIG, INF, self.CTX)
        assert not cmath.isnan(got) and cmath.isinf(got)

    def test_mantissa_product(self):
        values = [1e200 + 1e200j, 1e200 - 1e200j, 1e-300]
        m, e = qcore._prod(values)
        assert qcore._ldexp(m, e) == pytest.approx(2e100, rel=1e-15)
        assert qcore._prod([0.5 + 1j, 2.0]) == (1 + 2j, 0)  # finite: the plain product
        assert cmath.isnan(qcore._prod([complex("nan"), 1e300])[0])  # non-finite factor: as is

    def test_zero_denominator_is_a_pole(self):
        # a snapped (exactly zero) factor next to overflowing ones
        with pytest.raises(PoleError):
            qfrac([0.5], self.BIG + [ipow(self.CTX.q, -2)], INF, self.CTX)


# every hand-written pole test outside qcore and the ladder is one of these
# qcore._one_minus calls; at q = 0.5 each point makes a factor 1 - x vanish at x = 1
POLE_SITES = {
    "andrews": lambda ctx: identities._andrews_half(0.3, 0.4, -0.4, 0.2, ctx),
    "kang": lambda ctx: identities._kang_half(0.3, 0.4, 0.2, -0.4, ctx),
    "chu-zhang": lambda ctx: identities._cz_half(0.3, 0.4, -0.4, 0.2, 0.6, ctx),
    "shifted": lambda ctx: series._shifted_terms(1.0, 0.0, [], [], [1.0], 0.5, ctx),
    "reflected": lambda ctx: series.eval_psi(
        series.SeriesSpec([0.5, 0.3], [0.2, 0.4], 0.5, "bilateral"), ctx),
    "thm-e": lambda ctx: integrals.thm_e_rhs(0.5, 2.0, 0.5, 1.0, [0.5], [0.5], [0], ctx),
    "corl-e": lambda ctx: integrals.corl_e_rhs(0.3, 2.0, 0.5, [0.5], [0.5], [0], ctx),
    "corl-c": lambda ctx: identities._corlc_rhs(
        dict(a=0.5, b=2.0, c=0.5, d=1.0, u=0.3, n=0), ctx),
    "qpoch": lambda ctx: qpoch(0.5, -1, ctx),
}


class TestPolePolicy:
    @pytest.mark.parametrize("site", POLE_SITES)
    def test_routed_site_raises_and_records(self, site):
        with qcore._recording() as bases, pytest.raises(PoleError) as exc:
            POLE_SITES[site](CTX5)
        assert "(base (1+0j))" in str(exc.value)
        assert 1.0 in bases

    def test_summed_divisor(self):
        assert qcore._divisor(1e-3, "series") == 1e-3
        with pytest.raises(DivisionByNearZero, match="series magnitude 1e-09"):
            qcore._divisor(1e-9, "series")

    def test_only_qcore_and_series_hold_pole_tests(self):
        # the pole policy has one home: no other module names POLE_GUARD or
        # records bases itself, and only qcore names the grid tolerances
        src = pathlib.Path(qcore.__file__).parent
        holders, grid = set(), set()

        def names(node):
            return {getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None), getattr(node, "asname", None)}

        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if ("POLE_GUARD" in names(node)
                        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_record"):
                    holders.add(path.name)
                if names(node) & {"SNAP_RTOL", "_POLE_MARGIN"}:
                    grid.add(path.name)
        assert holders == {"qcore.py", "series.py"}
        assert grid == {"qcore.py"}
