"""Unilateral and bilateral basic hypergeometric series engines.

``eval_phi`` sums the unilateral series

    sum_{k>=0}  prod (a_i;q)_k / [(q;q)_k prod (b_j;q)_k]
                * [(-1)^k q^{k(k-1)/2}]^{s-r} * z^k

and ``eval_psi`` the bilateral one over all integers k, split into a
nonnegative branch and a negative branch.  The negative branch is summed
as its reflection: the k <= -1 sum re-indexed to a k >= 0 series in the
bases q^2/l, q^2/u, times a prefactor.  ``eval_bilateral_split`` exposes
that split itself, so the algebraic step used by the reciprocity proofs
is directly testable.

``_ascending_terms`` is the one Pochhammer ladder, here and for every term
stream in ``identities`` and ``integrals``: running products carry each
factor across consecutive k (same factors, same order as a from-scratch
product; no divisions are introduced, so exact zeros from snapped q^{-n}
bases are preserved).  Its pole guard is tested only at the orders k where
a lower factor can fall inside it.  ``_shifted_terms`` adds a factor
(1 - c q^{2k+1}) and (x;q)_{k+1} rows to it (reciprocity, Jacobi-family
and integral residue sums).  Term streams are plain iterators, and
``_sum_stream`` is the one summation kernel for them and for the
reciprocity difference streams in ``identities``: stop after 3 consecutive
terms below series_tol * |partial sum|, and report the geometric tail
|t_last| * rho / (1 - rho) of the observed ratio rho plus a roundoff
floor proportional to the summed per-term magnitudes.  A stream that
ends is an exact cut, with the floor as its only error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .qcore import (
    MAX_TERMS,
    POLE_GUARD,
    DivergentSeries,
    PoleError,
    QContext,
    SeriesResult,
    _one_minus,
    _record,
    ipow,
    q_power_index,
    terminating_order,
)

__all__ = [
    "SeriesSpec",
    "SeriesResult",
    "eval_phi",
    "eval_psi",
    "eval_bilateral_split",
]


@dataclass(frozen=True)
class SeriesSpec:
    """Parameter lists, argument and kind of a basic hypergeometric series.

    For ``unilateral`` the upper row holds the 1+r numerator parameters
    (the engine inserts the implicit (q;q)_k itself); for ``bilateral``
    the two rows must have equal length.
    """

    upper: tuple
    lower: tuple
    argument: complex
    kind: str = "unilateral"

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(complex(u) for u in self.upper))
        object.__setattr__(self, "lower", tuple(complex(b) for b in self.lower))
        object.__setattr__(self, "argument", complex(self.argument))
        if self.kind not in ("unilateral", "bilateral"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        if self.kind == "bilateral" and len(self.upper) != len(self.lower):
            raise ValueError("bilateral series requires equal parameter counts")


def _ascending_terms(upper, lower, z, ctx, sign_exp=0):
    """Yield t_k = prod(u;q)_k / prod(l;q)_k * [(-1)^k q^C(k,2)]^{sign_exp} * z^k.

    The stream ends (without yielding further terms) as soon as the running
    numerator is exactly zero, which happens precisely when some upper base
    snapped onto q^{-n} and k passed n: all later terms vanish identically.
    As |1 - b q^k| >= 1 - |b q^k|, the pole guard is tested only while some
    lower |b| |q|^k > (1 - POLE_GUARD) / 2 (a factor 2 of margin over rounding),
    and always for a non-finite b.
    """
    q = ctx.q
    guard = POLE_GUARD
    upper = [complex(u) for u in upper]
    lower = [complex(b) for b in lower]
    _record(lower)
    z = complex(z)
    zero_at = [terminating_order(u, ctx) for u in upper]
    snaps = any(n is not None for n in zero_at)
    # orders k the guard can reach: |b| |q|^k > reach for the largest |b|
    mags, reach = [abs(b) for b in lower], 0.5 * (1.0 - guard)
    top, aq = max(mags, default=0.0), abs(q)
    if not math.isfinite(sum(mags)):
        guarded = math.inf  # from logs: a loop on an infinite |b| would never end
    elif top <= reach or aq == 0.0:  # q = 0: q^k = 0 for every k >= 1
        guarded = int(top > reach)
    else:
        guarded = math.floor((math.log(top) - math.log(reach)) / -math.log(aq)) + 1
    num = den = zk = w = qk = 1.0 + 0.0j
    k = 0
    while True:
        t = num / den * zk
        if sign_exp:
            t *= w
        yield t
        # advance every ladder from order k to k+1
        if snaps:
            for i, u in enumerate(upper):
                num *= 0.0 if zero_at[i] == k else 1.0 - u * qk
        else:
            for u in upper:
                num *= 1.0 - u * qk
        if num == 0.0:
            return
        for b in lower:
            f = 1.0 - b * qk
            if k < guarded and abs(f) < guard:
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


def _shifted_terms(const, c, ups, lows, lows1, z, ctx):
    """const (1 - c q^{2k+1}) prod (ups;q)_k / [prod (lows;q)_k prod (lows1;q)_{k+1}] z^k.

    Every (x;q)_{k+1} in ``lows1`` is folded into const as 1/(1-x) and a
    ladder base qx, so one ``_ascending_terms`` stream carries all the
    Pochhammer products.  The leading factors go through ``qcore._one_minus``
    (pole test and recording) before the stream is returned.
    """
    q = ctx.q
    shifted = []
    for x in lows1:
        const /= _one_minus(x)
        shifted.append(q * x)
    ladder = _ascending_terms(ups, list(lows) + shifted, z, ctx)

    def terms():
        p = q  # q^{2k+1}
        for t in ladder:
            yield const * (t * (1.0 - c * p))
            p *= q * q

    return terms()


# rounding-floor coefficient: every summed term carries a few ulps of the
# magnitude w_k it is computed from, so _ROUND_FLOOR * sum of w_k bounds the
# accumulated roundoff
_ROUND_FLOOR = 3e-16


def _sum_stream(terms, ctx):
    """Sum a stream of (t_k, w_k) pairs under the 3-consecutive-small-terms policy.

    w_k is the magnitude the roundoff of term k scales with: |t_k| for a
    plain series, max(|t_a|, |t_b|) for a termwise difference t_a - t_b.
    Returns (value, abs_error_estimate, terms_used, terminated);
    ``terminated`` means the stream itself ended (an exact cut, whose error
    is the roundoff floor alone).  Otherwise the error estimate combines the
    geometric truncation tail with that floor, _ROUND_FLOOR * sum of w_k, so
    cancellation between large terms shows up in the reported bound.
    """
    total = 0.0 + 0.0j
    small = 0
    last = 0.0
    prev = 0.0
    w_sum = 0.0
    n = 0
    it = iter(terms)
    for _ in range(MAX_TERMS):
        try:
            t, w = next(it)
        except StopIteration:
            return _finite(total, n), _ROUND_FLOOR * w_sum, n, True
        total += t
        n += 1
        at = abs(t)
        if not (math.isfinite(at) and math.isfinite(w)):
            raise DivergentSeries(f"term magnitude not finite at k = {n - 1}")
        w_sum += w
        if at != 0.0:
            prev, last = last, at
        if at <= ctx.series_tol * abs(total):
            small += 1
            if small >= 3:
                rho = min(last / prev, 0.99) if prev > 0.0 else 0.0
                err = last * rho / (1.0 - rho) + _ROUND_FLOOR * w_sum
                return _finite(total, n), err, n, False
        else:
            small = 0
    raise DivergentSeries(
        f"no convergence within MAX_TERMS = {MAX_TERMS} "
        f"(last |term| = {last:.3g})"
    )


def _finite(total, n):
    """The partial sum, unless it overflowed although every term was finite."""
    if not cmath.isfinite(total):
        raise DivergentSeries(f"partial sum not finite after {n} terms")
    return total


def _sum_series(terms, ctx) -> SeriesResult:
    """Sum a plain term stream, each term weighing its own magnitude."""
    value, err, n, terminated = _sum_stream(((t, abs(t)) for t in terms), ctx)
    return SeriesResult(value, err, n, terminated)


def eval_phi(spec: SeriesSpec, ctx: QContext) -> SeriesResult:
    """Evaluate a unilateral (1+r)phi(s) series.

    Terminating input (an upper base snapped onto q^{-n}) is summed exactly
    through k = n with terminated=True and terms_used = n + 1; otherwise the
    standard truncation policy applies.
    """
    if spec.kind != "unilateral":
        raise ValueError("eval_phi expects a unilateral SeriesSpec")
    r = len(spec.upper) - 1
    s = len(spec.lower)
    stream = _ascending_terms(
        spec.upper,
        list(spec.lower) + [ctx.q],
        spec.argument,
        ctx,
        sign_exp=s - r,
    )
    return _sum_series(stream, ctx)


def _split(spec: SeriesSpec, ctx: QContext):
    """The k >= 0 branch and the reflected k <= -1 branch of a bilateral sum.

    Zero parameters drop out, since (0;q)_k = 1 at every k.  With
    s = #upper - #lower of the rest and w = prod(-l) / (prod(-u) z), the
    reflected sum of ``eval_bilateral_split`` gains the factor q^s, the
    weight [(-1)^k q^C(k,2)]^s and the argument (-q^2)^s w.
    """
    q = ctx.q
    z = spec.argument
    first = _sum_series(_ascending_terms(spec.upper, spec.lower, z, ctx), ctx)
    if z == 0.0:
        raise DivergentSeries("bilateral series needs a nonzero argument")
    upper = [u for u in spec.upper if u != 0.0]
    lower = [b for b in spec.lower if b != 0.0]
    pref = 1.0 + 0.0j
    for b in lower:
        pref *= 0.0 if q_power_index(b, q, 1, 1) == 1 else 1.0 - q / b
    if pref == 0.0:
        return first, SeriesResult(0.0 + 0.0j, 0.0, 0, True)
    num = 1.0 + 0.0j
    den = 1.0 + 0.0j
    for u in upper:
        den *= _one_minus(q / u)
        num *= -u
    w = 1.0 + 0.0j
    for b in lower:
        w *= -b
    w /= num * z
    pref = pref / den * w
    s = len(upper) - len(lower)
    if s:
        pref *= ipow(q, s)
        w *= ipow(-q * q, s)
    stream = _ascending_terms([q * q / b for b in lower], [q * q / u for u in upper], w, ctx, s)
    ref = _sum_series(stream, ctx)
    return first, SeriesResult(
        pref * ref.value, abs(pref) * ref.abs_error_estimate, ref.terms_used, ref.terminated
    )


def eval_psi(spec: SeriesSpec, ctx: QContext) -> SeriesResult:
    """Evaluate a bilateral r-psi-r series as nonnegative + negative branch.

    Each branch is truncated independently; branch_terms records the term
    counts (k >= 0 first).  The caller is responsible for the identity-level
    convergence condition; the engine enforces empirical decay only.
    """
    if spec.kind != "bilateral":
        raise ValueError("eval_psi expects a bilateral SeriesSpec")
    pos, neg = _split(spec, ctx)
    return SeriesResult(
        pos.value + neg.value,
        pos.abs_error_estimate + neg.abs_error_estimate,
        pos.terms_used + neg.terms_used,
        pos.terminated and neg.terminated,
        (pos.terms_used, neg.terms_used),
    )


def eval_bilateral_split(spec: SeriesSpec, ctx: QContext):
    """The two components of the bilateral sum as separate SeriesResults.

    First component: the k >= 0 branch as-is.  Second component: the
    k <= -1 branch rewritten as a k >= 0 series,

        w * prod(1 - q/l) / prod(1 - q/u)
          * sum_{k>=0} prod(q^2/l;q)_k / prod(q^2/u;q)_k * w^k,

    with w = prod(l) / (prod(u) * z) -- the reflected form used by the
    reciprocity proofs (zero parameters are dropped first; see ``_split``
    for the weight they leave).  The components sum to eval_psi's value;
    a lower parameter equal to q makes the second component an exact zero
    of 0 terms.
    """
    if spec.kind != "bilateral":
        raise ValueError("eval_bilateral_split expects a bilateral SeriesSpec")
    return _split(spec, ctx)
