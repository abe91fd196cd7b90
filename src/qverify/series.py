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

``_Terms`` is the one term stream, here and in ``identities`` and
``integrals``: a Pochhammer ladder, optionally times a constant, a factor
(1 - c q^{2k+shift}) and a second constant (``_shifted_terms`` folds
(x;q)_{k+1} rows into it for the reciprocity, Jacobi-family and integral
residue sums).  Iterated, it yields blocks of consecutive terms, computed
by ``_ladder`` in numpy: one product of the cached q^k table with the
bases gives a block's factors 1 - x q^k, and multiply.accumulate runs the
running numerator, denominator, z^k and sign weight through them, each
factor in the order of a from-scratch product, from the values carried out
of the block before.  So no term depends on where the blocks start, and
exact zeros from snapped q^{-n} bases end the stream as before; a lower
factor inside the pole guard raises only when the block past the pole is
asked for.  Blocks start at 48 terms and double up to a cap.  The two
halves of a difference stream (``_difference``) share one ladder: their
factors are computed side by side, each term as if alone.
``_sum_stream`` is the one summation kernel, for plain streams and for the
difference streams of ``_difference`` (two ``_Terms`` of one shape): the
moduli of a block come from one np.hypot, and its terms are summed one by
one in Python complex arithmetic.  It stops after 3 consecutive terms below
series_tol * |partial sum|, and reports the geometric tail
|t_last| * rho / (1 - rho) of the observed ratio rho plus a roundoff floor
proportional to the summed per-term magnitudes.  A stream that ends is an
exact cut, with the floor as its only error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    MAX_TERMS,
    POLE_GUARD,
    DivergentSeries,
    PoleError,
    QContext,
    SeriesResult,
    _one_minus,
    _powers,
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


# terms in a ladder's first block; each later block doubles, up to _BLOCK_CELLS
# factor cells (terms x bases x streams), so that the arrays of one block stay
# well below 1 MB
_FIRST_BLOCK = 48
_BLOCK_CELLS = 1 << 12
# |1 - u q^m| of an upper base u that snaps onto q^{-m} is at most SNAP_RTOL plus
# the rounding of q^m (under 1e-11 for m <= MAX_TERMS): only a factor below this
# reach is tested for a snap.  It lies below POLE_GUARD, which gates both tests.
_SNAP_REACH = 1e-9


class _Terms:
    """A term stream post * (const * (t_k * (1 - c q^{2k+shift}))) over the ladder

        t_k = prod(u;q)_k / prod(l;q)_k * [(-1)^k q^C(k,2)]^{sign_exp} * z^k,

    const, the factor (c, shift) and post each applied only when given.
    Iterating it yields its blocks: 1-D arrays of consecutive terms,
    k = 0, 1, ..., computed by ``_ladder``.
    """

    __slots__ = ("upper", "lower", "z", "ctx", "sign_exp", "const", "factor", "post")

    def __init__(self, upper, lower, z, ctx, sign_exp=0, const=None, factor=None, post=None):
        self.upper, self.lower, self.z, self.ctx = upper, lower, z, ctx
        self.sign_exp, self.const, self.factor, self.post = sign_exp, const, factor, post

    def __iter__(self):
        return (block[0] for block in _ladder((self,)))

    def scaled(self, post):
        """This stream times post."""
        return _Terms(self.upper, self.lower, self.z, self.ctx, self.sign_exp,
                      self.const, self.factor, post)

    def shape(self):
        """What streams computed side by side by ``_ladder`` have in common."""
        return (len(self.upper), len(self.lower), self.ctx, self.sign_exp,
                self.const is None, None if self.factor is None else self.factor[1])


def _ladder(streams):
    """Yield the blocks of the term streams ``streams``, all of one
    ``_Terms.shape``: for each stream, an array of its consecutive terms.

    A stream ends after t_k when its running numerator num_{k+1} is exactly
    zero, which happens precisely when some upper base snapped onto q^{-n}
    (``qcore.terminating_order``) and k reached n: all later terms vanish
    identically, and its blocks hold zeros from there.  The blocks end with
    the last stream.  A lower factor of order k inside the pole guard ends
    its block at t_k, and PoleError is raised when the block after it is
    asked for (the first stream's, of two at one k), so a sum that stops
    earlier never sees it.  At most MAX_TERMS terms are computed.

    The factors 1 - x q^k of a block are one outer product of its q^k with
    the bases, a numerator and a denominator chain a stream, padded by zero
    bases (a factor of exactly 1); one test of their smallest magnitude
    finds a block with a factor that can be a snapped zero or inside the
    guard, and only such a block's factors are looked at one by one.
    multiply.accumulate runs each chain through its factors in order
    k = 0, 1, ..., those of one order in list order, and z^k and the sign
    weight (-q^k)^sign_exp through one factor an order, each from the value
    carried out of the block before.  So a term depends on k and its
    stream's inputs alone, not on where the blocks start nor on the streams
    computed next to it.
    """
    first = streams[0]
    ctx, sign_exp, factor, const = first.ctx, first.sign_exp, first.factor, first.const
    q = ctx.q
    count, nu, nl = len(streams), len(first.upper), len(first.lower)
    width = max(nu, nl, 2)  # a row of 1 + 1 cells accumulates differently
    pad = [0.0] * width
    bases, uppers, lowers = [], [], []
    for st in streams:
        upper = [complex(u) for u in st.upper]
        lower = [complex(b) for b in st.lower]
        _record(lower)
        uppers.append(upper)
        lowers.append(lower)
        bases += (upper + pad)[:width] + (lower + pad)[:width]
    bases = np.array(bases, complex).reshape(2 * count, width).T.copy()  # [base, num/den chain]
    zs = np.array([st.z for st in streams], complex)
    most = max(1, _BLOCK_CELLS // (count * width))
    size = min(_FIRST_BLOCK, most)
    carry = pcarry = 1.0  # the chains at order k: num and den, z^k and the sign weight
    done = [False] * count  # the streams that ended in an earlier block
    table = np.empty(0)  # q^0, q^1, ..., as far as the blocks need
    k = 0
    while k < MAX_TERMS:
        n = min(size, MAX_TERMS - k)
        if table.size <= (need := 2 * (k + n) if factor else k + n):
            table = _powers(q, need)
        cells = np.empty((1 + n * width, 2 * count), complex)
        cells[0] = carry
        f = cells[1:].reshape(n, width, 2 * count)  # [order, base, chain]
        np.multiply(table[k:k + n, None, None], bases, out=f)
        np.subtract(1.0, f, out=f)
        hits = [None] * count  # the first factor inside the guard, of each stream
        if not (mags := np.abs(f)).min() >= POLE_GUARD:  # a nan factor makes the minimum nan
            # an upper base snapped onto q^{-m} makes the factor of order m exactly zero
            for j, i, s in zip(*np.nonzero(mags[:, :nu, 0::2] < _SNAP_REACH)):
                if terminating_order(uppers[s][i], ctx) == k + j:
                    f[j, i, 2 * s] = 0.0
            for s in range(count):
                if (inside := mags[:, :nl, 2 * s + 1] < POLE_GUARD).any():
                    j, i = divmod(int(inside.argmax()), nl)
                    hits[s] = j, i, complex(f[j, i, 2 * s + 1])
        np.multiply.accumulate(cells, axis=0, out=cells)
        carry = cells[n * width]
        powers = np.empty((n + 1, count + bool(sign_exp)), complex)  # z^k of each stream, weight
        powers[0] = pcarry
        powers[1:, :count] = zs
        if sign_exp:
            weight = -table[k:k + n]  # (-q^k)^sign_exp
            powers[1:, count] = weight if sign_exp == 1 else ipow(weight, sign_exp)
        np.multiply.accumulate(powers, axis=0, out=powers)
        pcarry = powers[n]
        run = cells[:n * width:width]
        if factor:
            steps = table[2 * k + factor[1]:2 * (k + n) + factor[1]:2]  # q^{2k+shift}
        block, cut, pole, last = [], n, None, 0
        for s, st in enumerate(streams):
            if done[s]:
                block.append(np.zeros(n, complex))
                continue
            t = run[:, 2 * s] / run[:, 2 * s + 1] * powers[:n, s]
            if sign_exp:
                t *= powers[:n, count]
            if factor:
                t *= 1.0 - st.factor[0] * steps
            if const is not None:
                t = st.const * t
            if st.post is not None:
                t = st.post * t
            block.append(t)
            end = n  # orders k .. k + end - 1 keep num nonzero; order k + end ends the stream
            top = complex(carry[2 * s])  # num_{k+n}: when nonzero and finite, so is every num
            if not (top and cmath.isfinite(top)):
                nums = cells[width:(n + 1) * width:width, 2 * s]
                if not nums.all():
                    end = int((nums == 0.0).argmax())
                    t[end + 1:] = 0.0
                    done[s] = True
                    last = max(last, end + 1)
            if (hit := hits[s]) and hit[0] < end and (pole is None or hit[0] + 1 < cut):
                j, i, factor_value = hit
                cut = j + 1
                pole = (f"lower-parameter factor |1 - b q^k| = {abs(factor_value):.3g} below pole "
                        f"guard at k = {k + j} (base {lowers[s][i]!r})")
        if all(done):
            cut = min(cut, last)
        yield [t[:cut] for t in block]
        if pole is not None:
            raise PoleError(pole)
        if all(done):
            return
        k += n
        size = min(2 * size, most)


def _shifted_terms(const, c, ups, lows, lows1, z, ctx):
    """const (1 - c q^{2k+1}) prod (ups;q)_k / [prod (lows;q)_k prod (lows1;q)_{k+1}] z^k.

    Every (x;q)_{k+1} in ``lows1`` is folded into const as 1/(1-x) and a
    ladder base qx, so one ladder carries all the Pochhammer products.  The
    leading factors go through ``qcore._one_minus`` (pole test and
    recording) before the stream is returned.
    """
    q = ctx.q
    shifted = []
    for x in lows1:
        const /= _one_minus(x)
        shifted.append(q * x)
    return _Terms(ups, list(lows) + shifted, z, ctx, const=const, factor=(c, 1))


# rounding-floor coefficient: every summed term carries a few ulps of the
# magnitude w_k it is computed from, so _ROUND_FLOOR * sum of w_k bounds the
# accumulated roundoff
_ROUND_FLOOR = 3e-16


def _difference(a, b):
    """The termwise difference t_k = a_k - b_k of two ``_Terms`` of one shape,
    computed side by side by ``_ladder``, as blocks (t, w) weighing each term
    w_k = max(|a_k|, |b_k|); zeros stand in for a stream that ended.
    """
    if a.shape() != b.shape():
        raise ValueError("a difference stream takes two _Terms of one shape")
    return ((ta - tb, np.maximum(np.hypot(ta.real, ta.imag), np.hypot(tb.real, tb.imag)))
            for ta, tb in _ladder((a, b)))


def _sum_stream(blocks, ctx) -> SeriesResult:
    """Sum a stream of term blocks under the 3-consecutive-small-terms policy.

    A block is an array of consecutive terms t_k, each weighing its own
    magnitude w_k = |t_k|, or a pair (t, w) of such an array and an array of
    the weights w_k, the magnitudes the roundoff of each term scales with
    (max(|a_k|, |b_k|) for a termwise difference a_k - b_k, see
    ``_difference``).  The magnitudes |t_k| of a block are one np.hypot of
    its real and imaginary parts: Python's abs of each term, and inf where
    the modulus of finite parts overflows.  The terms are summed one by one,
    in order, in Python complex arithmetic; terms past the stop are computed
    but not summed.  The SeriesResult's ``terminated`` means the stream
    itself ended (an exact cut, whose error is the roundoff floor alone).  Otherwise the error
    estimate combines the geometric truncation tail with that floor,
    _ROUND_FLOOR * sum of w_k, so cancellation between large terms shows up
    in the reported bound.  Blocks are drawn under
    ``np.errstate(all="ignore")``: a term past the stop may overflow without
    a warning.
    """
    total = 0.0 + 0.0j
    small = 0
    last = 0.0
    prev = 0.0
    w_sum = 0.0
    n = 0
    tol = ctx.series_tol
    blocks = iter(blocks)
    with np.errstate(all="ignore"):
        while n < MAX_TERMS:
            block = next(blocks, None)
            if block is None:
                return SeriesResult(_finite(total, n), _ROUND_FLOOR * w_sum, n, True)
            terms, weights = block if isinstance(block, tuple) else (block, None)
            terms = terms[:MAX_TERMS - n]
            sizes = np.hypot(terms.real, terms.imag).tolist()
            weights = sizes if weights is None else weights.tolist()
            # finite sums of the magnitudes: every one is finite, none to test
            finite = math.isfinite(sum(sizes)) and (weights is sizes or math.isfinite(sum(weights)))
            try:
                for t, at, w in zip(terms.tolist(), sizes, weights):
                    total += t
                    n += 1
                    if not (finite or math.isfinite(at) and math.isfinite(w)):
                        raise DivergentSeries(f"term magnitude not finite at k = {n - 1}")
                    w_sum += w
                    if at != 0.0:
                        prev, last = last, at
                    if at <= tol * abs(total):
                        small += 1
                        if small >= 3:
                            rho = min(last / prev, 0.99) if prev > 0.0 else 0.0
                            err = last * rho / (1.0 - rho) + _ROUND_FLOOR * w_sum
                            return SeriesResult(_finite(total, n), err, n, False)
                    else:
                        small = 0
            except OverflowError:  # abs(total): finite parts, the modulus overflows
                raise DivergentSeries(f"partial sum not finite after {n} terms") from None
    raise DivergentSeries(
        f"no convergence within MAX_TERMS = {MAX_TERMS} "
        f"(last |term| = {last:.3g})"
    )


def _finite(total, n):
    """The partial sum, unless it overflowed although every term was finite."""
    if not cmath.isfinite(total):
        raise DivergentSeries(f"partial sum not finite after {n} terms")
    return total


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
    stream = _Terms(spec.upper, list(spec.lower) + [ctx.q], spec.argument, ctx, s - r)
    return _sum_stream(stream, ctx)


def _split(spec: SeriesSpec, ctx: QContext):
    """The k >= 0 branch and the reflected k <= -1 branch of a bilateral sum.

    Zero parameters drop out, since (0;q)_k = 1 at every k.  With
    s = #upper - #lower of the rest and w = prod(-l) / (prod(-u) z), the
    reflected sum of ``eval_bilateral_split`` gains the factor q^s, the
    weight [(-1)^k q^C(k,2)]^s and the argument (-q^2)^s w.
    """
    q = ctx.q
    z = spec.argument
    first = _sum_stream(_Terms(spec.upper, spec.lower, z, ctx), ctx)
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
    stream = _Terms([q * q / b for b in lower], [q * q / u for u in upper], w, ctx, s)
    ref = _sum_stream(stream, ctx)
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
