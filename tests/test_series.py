"""Tests for the unilateral and bilateral series engines."""

import cmath
import itertools
import math
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from blockstream import blocks, flat, scalar_sum, termwise_difference, weighted

from qverify.qcore import (
    INF, MAX_TERMS, POLE_GUARD, DivergentSeries, PoleError, QContext, ipow, q_power_index,
    qfrac, qpoch,
)
from qverify import series
from qverify.identities import _diff_sum
from qverify.series import (
    _BLOCK_CELLS,
    _ROUND_FLOOR,
    _Terms,
    _shifted_terms,
    SeriesSpec,
    _sum_stream,
    eval_bilateral_split,
    eval_phi,
    eval_psi,
)

mp.mp.dps = 30


def rand_complex(rng, lo=0.1, hi=0.9):
    r = rng.uniform(lo, hi)
    ph = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * ph)


class TestEvalPhi:
    def test_geometric_series(self):
        # upper parameter q cancels the implicit (q;q)_k
        ctx = QContext(0.5)
        r = eval_phi(SeriesSpec(upper=[ctx.q], lower=[], argument=0.3), ctx)
        assert abs(r.value - 1.0 / 0.7) < 1e-12

    def test_zero_argument(self):
        ctx = QContext(0.5)
        r = eval_phi(SeriesSpec(upper=[0.4, 0.2], lower=[0.6], argument=0.0), ctx)
        assert r.value == 1.0

    def test_terminating_exactness(self):
        ctx = QContext(0.5)
        for n in (0, 1, 3, 7):
            spec = SeriesSpec(
                upper=[ipow(ctx.q, -n), 0.3], lower=[0.2], argument=0.7
            )
            r = eval_phi(spec, ctx)
            assert r.terminated and r.terms_used == n + 1
            assert r.abs_error_estimate <= 1e-12 * max(1.0, abs(r.value))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_mpmath(self, seed):
        rng = random.Random(seed)
        q = rng.uniform(0.25, 0.6)
        ctx = QContext(q)
        upper = [rand_complex(rng) for _ in range(3)]
        lower = [rand_complex(rng) for _ in range(3)]
        z = rand_complex(rng, 0.1, 0.7)
        got = eval_phi(SeriesSpec(upper=upper, lower=lower, argument=z), ctx).value
        want = complex(mp.qhyper([mp.mpc(u) for u in upper],
                                 [mp.mpc(l) for l in lower], mp.mpf(q), mp.mpc(z)))
        assert abs(got - want) < 1e-11 * max(1.0, abs(want))

    def test_divergent_raises(self):
        # |z| > 1, and the partial sums stay finite for MAX_TERMS terms: the cap stops the sum
        ctx = QContext(0.5)
        spec = SeriesSpec(upper=[0.3, 0.4], lower=[0.2], argument=1.05)
        with pytest.raises(DivergentSeries, match=f"MAX_TERMS = {MAX_TERMS} "):
            eval_phi(spec, ctx)

    def test_overflowing_partial_sum_raises(self):
        # every term stays finite, but the partial sum overflows; an ending stream as well
        with pytest.raises(DivergentSeries, match="partial sum not finite after 1751 terms"):
            eval_phi(SeriesSpec([0.3, 0.4], [0.2], 1.5), QContext(0.5))
        with pytest.raises(DivergentSeries, match="partial sum not finite after 2 terms"):
            _sum_stream(blocks([1e308 + 0j, 1e308 + 0j]), QContext(0.5))

    def test_kind_mismatch(self):
        spec = SeriesSpec(upper=[0.1, 0.2], lower=[0.3, 0.4], argument=0.5,
                          kind="bilateral")
        with pytest.raises(ValueError):
            eval_phi(spec, QContext(0.5))


def bailey_spec(q, a, b, c, d, e):
    sa = cmath.sqrt(a)
    return SeriesSpec(
        upper=[q * sa, -q * sa, b, c, d, e],
        lower=[sa, -sa, q * a / b, q * a / c, q * a / d, q * a / e],
        argument=q * a * a / (b * c * d * e),
        kind="bilateral",
    )


class TestEvalPsi:
    def test_bilateral_requires_equal_counts(self):
        with pytest.raises(ValueError):
            SeriesSpec(upper=[0.1], lower=[0.2, 0.3], argument=0.5, kind="bilateral")

    def test_bailey_identity_point(self):
        # admissible point with |q a^2 / bcde| ~ 0.248
        q, a, b, c, d, e = 0.3, 0.5, 0.9, 0.8, 0.7, 0.6
        ctx = QContext(q)
        lhs = eval_psi(bailey_spec(q, a, b, c, d, e), ctx)
        rhs = qfrac(
            [q, q * a, q / a, q * a / (b * c), q * a / (b * d), q * a / (b * e),
             q * a / (c * d), q * a / (c * e), q * a / (d * e)],
            [q / b, q / c, q / d, q / e, q * a / b, q * a / c, q * a / d,
             q * a / e, q * a * a / (b * c * d * e)],
            INF,
            ctx,
        )
        assert abs(lhs.value - rhs) < 1e-10 * abs(rhs)
        assert lhs.branch_terms[0] > 0 and lhs.branch_terms[1] > 0

    def test_collapse_to_unilateral_when_lower_is_q(self):
        rng = random.Random(7)
        ctx = QContext(0.4)
        for _ in range(10):
            upper = [rand_complex(rng), rand_complex(rng)]
            b = rand_complex(rng)
            z = rand_complex(rng, 0.1, 0.6)
            psi = eval_psi(
                SeriesSpec(upper=upper, lower=[ctx.q, b], argument=z, kind="bilateral"),
                ctx,
            )
            phi = eval_phi(SeriesSpec(upper=upper, lower=[b], argument=z), ctx)
            assert psi.branch_terms[1] == 0  # negative branch vanishes exactly
            assert abs(psi.value - phi.value) <= 1e-12 * abs(phi.value)


class TestBilateralSplit:
    def test_components_recombine(self):
        rng = random.Random(11)
        q = 0.35
        ctx = QContext(q)
        count = 0
        while count < 10:
            a = rand_complex(rng, 0.3, 0.7)
            b, c, d, e = (rand_complex(rng, 0.5, 0.9) for _ in range(4))
            spec = bailey_spec(q, a, b, c, d, e)
            if abs(spec.argument) > 0.7:
                continue
            count += 1
            psi = eval_psi(spec, ctx)
            first, second = eval_bilateral_split(spec, ctx)
            got = first.value + second.value
            assert abs(got - psi.value) < 1e-11 * abs(psi.value)

    def test_second_component_zero_for_lower_q(self):
        ctx = QContext(0.5)
        spec = SeriesSpec(upper=[0.4, 0.2], lower=[ctx.q, 0.35], argument=0.25,
                          kind="bilateral")
        first, second = eval_bilateral_split(spec, ctx)
        assert second.value == 0.0 and second.terminated and second.terms_used == 0

    def test_matches_displayed_reflected_sum(self):
        # the reflected k >= 0 form of the negative branch, with prefactor
        # -q^2 (1-q^2/a) prod(1-a/u) / [a^2 (1-a) prod(1-q/u)], written out
        # independently for the very-well-poised 8psi8
        q = 0.4
        ctx = QContext(q)
        rng = random.Random(13)
        a = 0.55
        ps = [rand_complex(rng, 0.6, 0.9) for _ in range(6)]
        sa = cmath.sqrt(a)
        z = q * q * a ** 3 / math.prod([1.0]) / (ps[0] * ps[1] * ps[2] * ps[3] * ps[4] * ps[5])
        spec = SeriesSpec(
            upper=[q * sa, -q * sa] + ps,
            lower=[sa, -sa] + [q * a / p for p in ps],
            argument=z,
            kind="bilateral",
        )
        _, second = eval_bilateral_split(spec, ctx)
        pref = -q * q * (1 - q * q / a) / (a * a * (1 - a))
        for p in ps:
            pref *= (1 - a / p) / (1 - q / p)
        total = 0.0 + 0.0j
        for k in range(200):
            t = (1 - ipow(q, 2 * k + 2) / a) / (1 - q * q / a)
            for p in ps:
                t *= qpoch_ref(q * p / a, k, q) / qpoch_ref(q * q / p, k, q)
            total += t * ipow(z, k)
            if abs(t) < 1e-17:
                break
        want = pref * total
        assert abs(second.value - want) < 1e-11 * abs(want)


def psi_direct(upper, lower, z, ctx):
    """sum over all k of prod (u;q)_k / prod (l;q)_k z^k, each term from qpoch at its sign.

    Each direction stops after two terms below 1e-18 of the running total.
    """
    total = 0.0 + 0.0j
    for ks in (itertools.count(0), itertools.count(-1, -1)):
        small = 0
        for k in ks:
            t = ipow(z, k)
            for u in upper:
                t *= qpoch(u, k, ctx)
            for b in lower:
                t /= qpoch(b, k, ctx)
            total += t
            small = small + 1 if abs(t) < 1e-18 * abs(total) else 0
            if small == 2:
                break
    return total


def psi_point(rng, r, lower_zeros=0):
    """upper, lower, z of an r-psi-r; without zero parameters |prod(l) / (prod(u) z)| <= 0.25."""
    while True:
        upper = [rand_complex(rng, 0.6, 0.9) for _ in range(r)]
        lower = [0j] * lower_zeros + [rand_complex(rng, 0.1, 0.5) for _ in range(r - lower_zeros)]
        z = rand_complex(rng, 0.3, 0.5)
        w = math.prod(abs(b) for b in lower) / (math.prod(abs(u) for u in upper) * abs(z))
        if lower_zeros or w <= 0.25:
            return upper, lower, z


class TestPsiAgainstDirectSum:
    """eval_psi against the two-sided sum of qpoch quotients, both signs of k."""

    @pytest.mark.parametrize("q", [0.3, 0.8, -0.5, 0.5 + 0.3j])
    @pytest.mark.parametrize("r, zeros", [(3, 0), (2, 1), (2, 2)])
    def test_matches_direct_sum(self, q, r, zeros):
        ctx = QContext(q)
        rng = random.Random(10 * r + zeros)
        for _ in range(3):
            upper, lower, z = psi_point(rng, r, zeros)
            spec = SeriesSpec(upper=upper, lower=lower, argument=z, kind="bilateral")
            got = eval_psi(spec, ctx)
            want = psi_direct(upper, lower, z, ctx)
            # the branches may cancel: the bound is the claimed error plus 1e-12
            tol = got.abs_error_estimate + 1e-12 * abs(want)
            assert abs(got.value - want) < tol
            first, second = eval_bilateral_split(spec, ctx)
            assert abs(first.value + second.value - want) < tol
            assert got.branch_terms == (first.terms_used, second.terms_used)

    def test_zero_lower_parameters(self):
        # more upper than lower parameters once the zeros drop out: the
        # reflected branch carries the weight [(-1)^k q^C(k,2)]^s
        ctx = QContext(0.5)
        for lower, want in (([0.0, 0.6], 40.77779633709134), ([0.0, 0.0], -7699.971546445549)):
            spec = SeriesSpec(upper=[0.2, 0.3], lower=lower, argument=0.3, kind="bilateral")
            got = eval_psi(spec, ctx).value
            assert abs(got - want) < 1e-12 * abs(want)
            assert abs(got - psi_direct([0.2, 0.3], lower, 0.3, ctx)) < 1e-12 * abs(want)

    def test_zero_upper_parameter_diverges(self):
        ctx = QContext(0.5)
        spec = SeriesSpec(upper=[0.0, 0.3], lower=[0.4, 0.6], argument=0.3, kind="bilateral")
        with pytest.raises(DivergentSeries):
            eval_psi(spec, ctx)

    @pytest.mark.parametrize("evaluate", [eval_psi, eval_bilateral_split])
    def test_zero_argument_diverges(self, evaluate):
        ctx = QContext(0.5)
        spec = SeriesSpec(upper=[0.2, 0.3], lower=[0.4, 0.6], argument=0.0, kind="bilateral")
        with pytest.raises(DivergentSeries):
            evaluate(spec, ctx)


def qpoch_ref(x, n, q):
    """Plain from-scratch (x;q)_n used as a local oracle."""
    p = 1.0 + 0.0j
    qi = 1.0 + 0.0j
    for _ in range(n):
        p *= 1.0 - x * qi
        qi *= q
    return p


class TestKShiftedSum:
    """``_sum_stream`` on a term stream t_0, t_1, ... computed from k alone."""

    def test_single_term(self):
        ctx = QContext(0.5)
        r = _sum_stream(blocks(1.0 if k == 0 else 0.0 for k in itertools.count()), ctx)
        assert r.value == 1.0

    def test_matches_geometric(self):
        ctx = QContext(0.5)
        r = _sum_stream(blocks(0.25 ** k for k in itertools.count()), ctx)
        assert abs(r.value - 4.0 / 3.0) < 1e-12


class TestSumStream:
    """The summation kernel on hand-made (t_k, w_k) streams."""

    def test_floor_sums_weights_not_term_magnitudes(self):
        ctx = QContext(0.5)
        terms = [0.5 ** k for k in range(200)]
        plain = _sum_stream(blocks(terms), ctx)
        heavy = _sum_stream(weighted((t, 1.0) for t in terms), ctx)
        n = plain.terms_used
        assert not plain.terminated and not heavy.terminated and heavy.terms_used == n
        assert heavy.value == plain.value
        assert heavy.abs_error_estimate - plain.abs_error_estimate == pytest.approx(
            _ROUND_FLOOR * (n - sum(terms[:n])), rel=1e-9
        )

    def test_ended_stream_is_exact_cut(self):
        # a difference stream whose halves (w_k) are far larger than the
        # differences: no tail is added, the error is the floor alone
        ctx = QContext(0.5)
        pairs = [(1e-3, 1.0), (2e-3, 2.0), (4e-3, 4.0)]
        r = _sum_stream(weighted(pairs), ctx)
        assert r.terminated and r.terms_used == 3
        assert abs(r.value - 7e-3) < 1e-18
        assert r.abs_error_estimate == _ROUND_FLOOR * 7.0


def outcome(sum_stream, stream, ctx):
    """What a summation kernel makes of a stream: the reprs of its value and
    error claim, terms_used and terminated, or its error."""
    try:
        r = sum_stream(stream, ctx)
    except (PoleError, DivergentSeries) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(r.value), repr(r.abs_error_estimate), r.terms_used, r.terminated


class TestScalarReference:
    """``_sum_stream`` against the scalar loop of ``blockstream.scalar_sum``,
    which takes each term's magnitude from Python's abs: on plain streams and
    on differences (against their halves paired term by term) the same value,
    error claim, terms_used and terminated, bit for bit, or the same error."""

    @pytest.mark.parametrize("q", [0.3, 0.95, -0.5, 0.5 + 0.3j])
    def test_sums_match_the_scalar_loop(self, q):
        ctx = QContext(q)
        rng = random.Random(17)
        for _ in range(40):
            a = random_stream(rng, ctx)
            b = same_shape(rng, a, ctx)
            for post in (None, 1e300 + 1e300j):  # the second near overflow
                x, y = a.scaled(post), b.scaled(post)
                assert outcome(_sum_stream, x, ctx) == outcome(scalar_sum, x, ctx)
                assert (outcome(_sum_stream, series._difference(x, y), ctx)
                        == outcome(scalar_sum, termwise_difference(x, y), ctx))


def ladder_oracle(upper, lower, z, ctx, sign_exp=0):
    """The ladder with the pole guard on every lower factor: the oracle of _Terms."""
    q = ctx.q
    upper = [complex(u) for u in upper]
    lower = [complex(b) for b in lower]
    z = complex(z)
    zero_at = [q_power_index(u, q, -MAX_TERMS, 0) for u in upper]
    zero_at = [None if m is None else -m for m in zero_at]
    num = den = zk = w = qk = 1.0 + 0.0j
    k = 0
    while True:
        t = num / den * zk
        if sign_exp:
            t *= w
        yield t
        for i, u in enumerate(upper):
            num *= 0.0 if zero_at[i] == k else 1.0 - u * qk
        if num == 0.0:
            return
        for b in lower:
            f = 1.0 - b * qk
            if abs(f) < POLE_GUARD:
                raise PoleError(
                    f"lower-parameter factor |1 - b q^k| = {abs(f):.3g} below pole "
                    f"guard at k = {k} (base {b!r})"
                )
            den *= f
        if sign_exp:
            w *= ipow(-qk, sign_exp)
        zk *= z
        qk *= q
        k += 1


def drained(stream, n=400):
    """The first n terms, then the type and message of any error, as numpy would
    compute them past a stop: without warnings."""
    out = []
    with np.errstate(all="ignore"):
        try:
            out.extend(itertools.islice(stream, n))
        except (PoleError, ZeroDivisionError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


# a ladder term may differ from the oracle's by this many ulps per order k: numpy's
# array multiplies form the factors 1 - b q^k with FMA, the scalar oracle without
ULPS_PER_ORDER = 4


class TestLadderBitIdentity:
    """The block ladder against the scalar oracle: the same stream lengths, the
    same errors and messages, and the same terms to within a few ulps per order.

    Where the oracle raises ZeroDivisionError (its weight 1/ipow(q^k, 2) once
    q^{2k} underflows), the block's term is not finite; the sum of such a
    stream raises DivergentSeries at its first non-finite term.  A term the
    oracle makes inf or nan (a non-finite or overflowing base) is not finite
    in the block either, though inf and nan may trade places.
    """

    QS = [0.3, 0.8, 0.95, -0.5, 0.5 + 0.3j]

    def same(self, upper, lower, z, ctx, sign_exp=0):
        got = drained(flat(_Terms(upper, lower, z, ctx, sign_exp)))
        want = drained(ladder_oracle(upper, lower, z, ctx, sign_exp))
        if want and want[-1].__class__ is str and want[-1].startswith("ZeroDivisionError"):
            want.pop()
            assert not cmath.isfinite(got[len(want)])
            del got[len(want):]
        assert len(got) == len(want)
        for k, (g, w) in enumerate(zip(got, want)):
            if isinstance(w, str):
                assert g == w
            elif not cmath.isfinite(w):
                assert not cmath.isfinite(g)
            else:
                assert abs(g - w) <= ULPS_PER_ORDER * (k + 1) * 2.0 ** -52 * abs(w), (k, g, w)
        return [g if isinstance(g, str) else repr(g) for g in got]

    @pytest.mark.parametrize("q", QS)
    def test_guard_hit_at_later_order(self, q):
        ctx = QContext(q)
        for k in (1, 3, 6):
            b = ipow(ctx.q, -k) * (1.0 + 3e-9j)
            got = self.same([0.4, -0.2j], [0.3, b, ctx.q], 0.6, ctx)
            assert len(got) == k + 2 and got[-1].startswith("PoleError") and f"k = {k} " in got[-1]

    @pytest.mark.parametrize("q", QS)
    def test_snapped_upper_base_ends_the_stream(self, q):
        ctx = QContext(q)
        got = self.same([0.3, ipow(ctx.q, -4), 0.7j], [0.2, ctx.q], 0.9, ctx)
        assert len(got) == 5

    @pytest.mark.parametrize("q", QS)
    def test_sign_weights(self, q):
        ctx = QContext(q)
        for sign_exp in (-1, 1, 2):
            self.same([0.3, 1.7j], [0.25, 2.2, ctx.q], 0.4 - 0.3j, ctx, sign_exp)

    @pytest.mark.parametrize("q", QS)
    def test_non_finite_bases(self, q):
        ctx = QContext(q)
        for bad in (complex(math.inf, 0.0), complex(math.nan, 0.0), 1e300):
            self.same([0.3, bad], [0.4, ctx.q], 0.5, ctx)
            self.same([0.3], [bad, ctx.q], 0.5, ctx)
            # next to a factor inside the guard at k = 0
            self.same([0.3, bad], [1.0 + 1e-10, ctx.q], 0.5, ctx)

    def test_zero_q(self):
        # q^k = 0 for k >= 1, so only the order k = 0 can reach the guard
        ctx = QContext(0.0)
        assert self.same([0.5], [1.0 + 1e-10, 0.2], 0.3, ctx)[-1].startswith("PoleError")
        assert len(self.same([0.5], [0.7, 3.0], 0.3, ctx)) == 400

    @pytest.mark.parametrize("q", QS)
    def test_random_streams(self, q):
        ctx = QContext(q)
        rng = random.Random(11)
        for _ in range(40):
            upper = [rand_complex(rng, 0.0, 3.0) for _ in range(rng.randint(0, 4))]
            lower = [rand_complex(rng, 0.0, 3.0) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.3:
                lower.append(ipow(ctx.q, -rng.randint(0, 5)) * (1.0 + 1e-9))
            self.same(upper, lower, rand_complex(rng, 0.0, 1.2), ctx, rng.choice((0, 0, 1, -2)))


def random_stream(rng, ctx):
    """A ladder of random shape, sign weight and maps, at times with a near pole
    or a snapped upper base."""
    nu, nl = rng.randint(0, 4), rng.randint(0, 4)
    upper = [rand_complex(rng, 0.0, 3.0) for _ in range(nu)]
    lower = [rand_complex(rng, 0.0, 3.0) for _ in range(nl)]
    if rng.random() < 0.3:
        lower.append(ipow(ctx.q, -rng.randint(0, 5)) * (1.0 + 1e-9))
    if rng.random() < 0.3:
        upper.append(ipow(ctx.q, -rng.randint(3, 60)))
    maps = rng.choice(({}, {"const": 0.7 - 0.2j}, {"const": 1.3, "factor": (0.4j, 1)}))
    return _Terms(upper, lower, rand_complex(rng, 0.0, 1.2), ctx, rng.choice((0, 1, -2)), **maps)


def stream_bytes(stream, n=150):
    """The bytes of the first n terms of a block stream, then any error."""
    parts, error = [], None
    with np.errstate(all="ignore"):
        try:
            for block in stream:
                parts.append(block)
                if sum(map(len, parts)) >= n:
                    break
        except PoleError as exc:
            error = str(exc)
    return np.concatenate(parts)[:n].tobytes(), error


def same_shape(rng, st, ctx):
    """A random stream of the shape of ``st``, which ``_ladder`` computes next to it."""
    def bases(n):
        out = [rand_complex(rng, 0.0, 3.0) for _ in range(n)]
        if out and rng.random() < 0.3:
            out[0] = ipow(ctx.q, -rng.randint(0, 20)) * (1.0 + 1e-9 * (rng.random() < 0.5))
        return out
    factor = None if st.factor is None else (rand_complex(rng, 0.0, 2.0), st.factor[1])
    return _Terms(bases(len(st.upper)), bases(len(st.lower)), rand_complex(rng, 0.0, 1.2), ctx,
                  st.sign_exp, None if st.const is None else rand_complex(rng, 0.5, 2.0), factor,
                  rng.choice((None, 1.5 - 0.5j)))


def drained_difference(stream, n=300):
    """The (term, weight) pairs of a difference stream, then any error."""
    out = []
    with np.errstate(all="ignore"):
        try:
            for t, w in stream:
                out.extend(zip(map(repr, t.tolist()), map(repr, w.tolist())))
                if len(out) >= n:
                    return out[:n]
        except (PoleError, DivergentSeries) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


class TestBlocks:
    """Term blocks: where the blocks start and which stream is computed next
    to a stream change no bit; a stream ends and raises where the scalar
    ladder did."""

    @pytest.mark.parametrize("q", [0.3, 0.95, -0.5, 0.5 + 0.3j])
    def test_terms_do_not_depend_on_the_block_schedule(self, q, monkeypatch):
        ctx = QContext(q)
        rng = random.Random(3)
        streams = [random_stream(rng, ctx) for _ in range(30)]
        want = [stream_bytes(t) for t in streams]
        for first in (1, 7, 64):
            monkeypatch.setattr(series, "_FIRST_BLOCK", first)
            assert [stream_bytes(t) for t in streams] == want

    @pytest.mark.parametrize("q", [0.3, 0.95, -0.5, 0.5 + 0.3j])
    def test_side_by_side_difference_is_the_termwise_difference(self, q):
        # two streams of one shape are computed side by side; their difference
        # has the terms, weights, zeros after a stream's end and first pole (the
        # first stream's, of two at one k) of pairing the streams term by term
        ctx = QContext(q)
        rng = random.Random(5)
        for _ in range(40):
            a = random_stream(rng, ctx)
            b = same_shape(rng, a, ctx)
            for x, y in ((a, b), (b, a), (a, a)):
                want = drained_difference(termwise_difference(x, y))
                assert drained_difference(series._difference(x, y)) == want

    def test_difference_refuses_streams_of_two_shapes(self):
        ctx = QContext(0.5)
        a = _Terms([0.3], [0.2], 0.5, ctx)
        others = (_Terms([0.3, 0.4], [0.2], 0.5, ctx), _Terms([0.3], [], 0.5, ctx),
                  _Terms([0.3], [0.2], 0.5, ctx, 1), _Terms([0.3], [0.2], 0.5, ctx, const=2.0),
                  _Terms([0.3], [0.2], 0.5, ctx, factor=(0.1, 1)),
                  _Terms([0.3], [0.2], 0.5, QContext(0.3)))
        for b in others:
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="two _Terms of one shape"):
                    series._difference(x, y)
                with pytest.raises(ValueError, match="two _Terms of one shape"):
                    _diff_sum(x, y, ctx)

    @pytest.mark.parametrize("first", [None, 256])
    def test_guard_past_the_stop_is_never_raised(self, first, monkeypatch):
        # 1 - b q^k falls inside the pole guard at k = 200 only; the sum stops near
        # k = 35, inside the same block when the first block has 256 terms
        if first is not None:
            monkeypatch.setattr(series, "_FIRST_BLOCK", first)
        ctx = QContext(0.99)
        b = ipow(ctx.q, -200) * (1.0 + 3e-9j)
        stream = _Terms([], [b], 0.3 * abs(b), ctx)
        r = _sum_stream(stream, ctx)
        assert 30 <= r.terms_used <= 45 and not r.terminated
        # drained past the stop: the terms t_0 .. t_200, then the guard
        got = drained(flat(stream), 300)
        assert len(got) == 202 and got[-1].startswith("PoleError") and "at k = 200 " in got[-1]

    @pytest.mark.parametrize("n", [32, 33, 96])
    def test_stream_ending_at_a_block_edge(self, n, monkeypatch):
        # blocks of 32 and 64 terms; the upper base q^{-(n-1)} ends the stream after n terms
        monkeypatch.setattr(series, "_FIRST_BLOCK", 32)
        ctx = QContext(0.9)
        upper, lower = [ipow(ctx.q, -(n - 1)), 0.3], [0.6, ctx.q]
        got = [block.size for block in _Terms(upper, lower, 0.5, ctx)]
        assert sum(got) == n and got == ([32, 64][:len(got) - 1] + [got[-1]])
        r = eval_phi(SeriesSpec(upper, lower[:1], 0.5), ctx)
        want = list(ladder_oracle(upper, lower, 0.5, ctx))
        assert r.terminated and r.terms_used == n == len(want)
        assert abs(r.value - sum(want)) <= 1e-13 * sum(map(abs, want))

    def test_block_cap_bounds_a_full_length_stream(self):
        # |z| > 1: the stream runs to MAX_TERMS terms, in blocks of at most
        # _BLOCK_CELLS factor cells, and its arrays stay below 1 MB
        ctx = QContext(0.5)
        upper, lower = [0.3, 0.4], [0.2, ctx.q]
        sizes = [block.size for block in _Terms(upper, lower, 1.05, ctx)]
        assert sum(sizes) == MAX_TERMS and max(sizes) * 2 <= _BLOCK_CELLS
        tracemalloc.start()
        try:
            with pytest.raises(DivergentSeries, match="MAX_TERMS"):
                eval_phi(SeriesSpec(upper, lower[:1], 1.05), ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestOverflowingMagnitude:
    """A finite term whose modulus overflows: abs() raises OverflowError for it,
    the sum names the term instead."""

    def test_partial_sum(self):
        # every term's modulus is finite, the modulus of their sum is not
        with pytest.raises(DivergentSeries, match="partial sum not finite after 2 terms"):
            _sum_stream(blocks([1.5e308, 1.5e308j]), QContext(0.5))

    def test_plain_stream(self):
        with pytest.raises(DivergentSeries, match="term magnitude not finite at k = 1"):
            eval_phi(SeriesSpec([0.0], [], complex(0.75e308, 0.75e308)), QContext(0.5))

    def test_difference_stream(self):
        # t_0 = 1 and 2, t_1 = big twice: the difference at k = 1 is 0, but the
        # modulus of its halves overflows
        ctx = QContext(0.5)
        big = complex(1.5e308, 1.5e308)
        a, b = _Terms([], [], big, ctx, const=1.0), _Terms([], [], big / 2, ctx, const=2.0)
        with np.errstate(all="ignore"):
            first = next(series._difference(a, b))
        assert [x[:2].tolist() for x in first] == [[-1.0, 0.0], [2.0, math.inf]]
        with pytest.raises(DivergentSeries, match="term magnitude not finite at k = 1"):
            _diff_sum(a, b, ctx)

    def test_side_by_side_difference_stream(self):
        # t_1 = big and big / 2: the difference is finite, the modulus of a half is not
        ctx = QContext(0.5)
        big = complex(1.5e308, 1.5e308)
        a, b = _Terms([], [], big, ctx, const=1.0), _Terms([], [], big, ctx, const=0.5)
        with pytest.raises(DivergentSeries, match="term magnitude not finite at k = 1"):
            _diff_sum(a, b, ctx)
