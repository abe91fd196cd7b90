"""q-shifted factorials and product combinators.

Everything downstream (series engines, multi-index sums, quadrature,
identity checks) is built on the five operations in this module:

* ``qpoch``          -- finite (x;q)_n for any integer n (both signs),
* ``qpoch_inf_many`` -- infinite products (x;q)_oo with tail bounds, numpy-batched,
* ``qpoch_inf``      -- its one-base case,
* ``qpoch_multi``    -- products (a,b,...,c;q)_n over several bases,
* ``qfrac``          -- ratios of such products.

Scalars are Python complex numbers, arrays numpy complex128 (IEEE double,
>= 15 significant digits).  Integer powers of q are always products of q
(repeated or by binary exponentiation on the integer exponent), never
log/exp, so complex q never touches a branch cut.  A base that coincides
with a power of q (to 1e-13 relative) is *snapped*: the corresponding
product factor is forced to exactly zero, which is what makes terminating
series terminate exactly downstream; only |x| >= 1 - 2e-13 can snap, so
the snap tests run on those bases alone.  ``qpoch_inf_many`` serves each
call a prefix of one cached q^k table per q, for the last ``_TABLE_QS`` (4)
q.  It counts first: each base's factor count comes from the moduli |q^k|
before any factor is formed; then it multiplies each block of bases in one
masked reduce down the factor axis, with numpy's array complex multiplies
(FMA where the machine has it), so each value depends on its base alone.
A product of (x;q)_oo that overflows is redone as mantissa x 2^e.  Inside a
``_prefetched`` block, ``qfrac`` reads (x;q)_oo from a memo of values that
one kernel call computed ahead, keyed by q and the exact bits of each base.

All functions are pure; a :class:`QContext` carries q and the two tolerances
that callers set (the series and identity tolerances).  The other numerical
limits are the module constants ``PRODUCT_TOL``, ``MAX_TERMS``,
``MAX_PRODUCT_FACTORS`` and ``POLE_GUARD``.

The pole policy lives here: every divisor meets the absolute ``POLE_GUARD`` in
``_one_minus`` (a factor 1 - x), ``qfrac`` (a denominator product), ``_divisor``
(a summed divisor: DivisionByNearZero) or the ``series._ladder`` block ladder;
the factor tests record their bases, and ``_near_pole`` finds a recorded base
near a power of q, for the near-pole test of ``identities.check``.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import struct
from dataclasses import dataclass

import numpy as np

INF = math.inf
"""Order marker for q-shifted factorials of infinite order."""

# Relative tolerance for snapping a base onto the q-power grid.
SNAP_RTOL = 1e-13

# (x;q)_oo stops after 3 factors with |x q^k| below PRODUCT_TOL, within
# MAX_PRODUCT_FACTORS factors; a series must settle within MAX_TERMS terms
PRODUCT_TOL = 1e-14
MAX_PRODUCT_FACTORS = 4000
MAX_TERMS = 10000

# absolute pole guard: a divisor below it raises PoleError or DivisionByNearZero
POLE_GUARD = 1e-8

# margin (relative to |q^j|) by which recorded divisor bases must clear the
# q-power grid q^j, -60 <= j <= 0; see _near_pole
_POLE_MARGIN = 1e-5

# entries x factors per block of qpoch_inf_many: a block stays in cache, all entries do not
_BLOCK = 1 << 14

# q^k tables of the last _TABLE_QS q used by qpoch_inf_many, least recent first;
# every memo per q (also integrals._UNIT_ROWS) keeps that many q through _keep_recent
_TABLES, _TABLE_QS = {}, 4

# bases x of the divisor factors 1 - x q^j met inside ``_recording``; None outside it
_recorded = None

# (x;q)_oo values that qfrac reads inside ``_prefetched``: (repr(q), {_bits(x): value});
# None outside it.  [bases read from it, bases qfrac sent to the kernel], for profiling
_prefetch, _prefetch_counts = None, [0, 0]

# the exact bytes of a complex base, so x+0j and x-0j stay apart
_bits = struct.Struct("dd").pack


def _record(bases):
    """Note the bases of divisor factors 1 - x q^j while a recording is on."""
    if _recorded is not None:
        _recorded.extend(bases)


def _near_pole(bases, q):
    """The reason to skip a point, naming the first base near a power q^j,
    -60 <= j <= 0 (within _POLE_MARGIN relative), else None.

    There a factor 1 - x q^{-j} nearly vanishes and residuals lose meaning.
    A base that snaps *onto* the grid is let through: such points are
    degenerate by construction (e.g. the a = b diagonal) and evaluate exactly.
    |q^j| >= 1 for j <= 0, so a base with |v| < 1 - 2 _POLE_MARGIN is never
    flagged, and the locator is not called for it.
    """
    for v in bases:
        if abs(v) < 1.0 - 2.0 * _POLE_MARGIN:
            continue
        m = q_power_index(v, q, -60, 0, _POLE_MARGIN)
        if m is not None and q_power_index(v, q, m, m) is None:
            return f"divisor base {v!r} lies within {_POLE_MARGIN:g} of a power of q"
    return None


def _one_minus(x):
    """The divisor factor 1 - x, its base x recorded; PoleError naming x if |1 - x| < guard."""
    _record((x,))
    if abs(f := 1.0 - x) < POLE_GUARD:
        raise PoleError(f"factor |1 - x| = {abs(f):.3g} below pole guard (base {complex(x)!r})")
    return f


def _divisor(value, what):
    """value, a summed divisor such as a terminating series; DivisionByNearZero
    naming ``what`` if |value| < guard."""
    if abs(value) < POLE_GUARD:
        raise DivisionByNearZero(f"{what} magnitude {abs(value):.3g} below pole guard")
    return value


@contextlib.contextmanager
def _recording():
    """Collect, in a list, the divisor bases of every evaluation inside the block."""
    global _recorded
    _recorded = bases = []
    try:
        yield bases
    finally:
        _recorded = None


class QVerifyError(Exception):
    """Base class for numerical-policy failures."""


class PoleError(QVerifyError):
    """A reciprocal or denominator factor fell inside the pole guard."""


class CapExceeded(QVerifyError):
    """An infinite product hit MAX_PRODUCT_FACTORS before converging, or is not finite."""


class DivergentSeries(QVerifyError):
    """A series showed no empirical decay within MAX_TERMS."""


class NoConvergence(QVerifyError):
    """Quadrature refinement did not stabilize within the node budget."""


class ConstraintViolation(QVerifyError):
    """A derived-parameter constraint (such as u/v = q^N) does not hold."""


class DivisionByNearZero(QVerifyError):
    """A closed-form divisor fell inside the pole guard."""


class UnknownParam(QVerifyError):
    """A parameter name is not bound in the parameter map."""


class SamplingExhausted(QVerifyError):
    """Rejection sampling found no admissible point within the attempt cap."""


class IllConditioned(QVerifyError):
    """The value cancels so strongly that doubles cannot verify it to tolerance."""


@dataclass(frozen=True)
class QContext:
    """Base q plus the two tolerances that callers set.

    q must satisfy |q| < 1 strictly, and both tolerances are positive:
    series_tol truncates series, identity_tol judges an identity.
    """

    q: complex
    series_tol: float = 1e-12
    identity_tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "q", complex(self.q))
        if not abs(self.q) < 1.0:
            raise ValueError(f"|q| < 1 required, got |q| = {abs(self.q):.6g}")
        for name in ("series_tol", "identity_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated sum or product plus how it was obtained."""

    value: complex
    abs_error_estimate: float
    terms_used: int
    terminated: bool = False
    branch_terms: tuple[int, int] | None = None

    def __post_init__(self):
        if self.abs_error_estimate < 0.0:
            raise ValueError("abs_error_estimate must be >= 0")


def ipow(x: complex, n: int) -> complex:
    """x**n by binary exponentiation on the integer exponent.

    Exact integer exponent arithmetic; no logarithms, hence no branch-cut
    trouble for complex x.  Negative n inverts the positive power.  A
    complex numpy array x gives the power of each entry.
    """
    if n < 0:
        return 1.0 / ipow(x, -n)
    result = 1.0 + 0.0j
    base = x if isinstance(x, np.ndarray) else complex(x)
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def q_power_index(x: complex, q: complex, lo: int, hi: int, rtol: float = SNAP_RTOL) -> int | None:
    """Integer m in [lo, hi] with x = q^m to rtol relative, else None.

    This is the one test that places a value on the grid q^m: with the
    default rtol it is the snap (a base that terminates a product), with a
    wider rtol the near-pole test of ``_near_pole``.  The candidate
    exponent comes from moduli; the full complex distance is then checked,
    so a complex q with the wrong phase never matches.  Nor does a
    reference that overflows or underflows, or a modulus more than
    max(1e-9, 2 rtol) (in log) off |q|^m0: a match within rtol moves
    log|x| by about rtol at most, ipow is good to ~1e-12 for
    |m| <= MAX_TERMS, and m0 +- 1 are farther off still.
    """
    ax = abs(x)
    if ax == 0.0:
        return None
    aq = abs(q)
    if aq == 0.0:
        return 0 if (lo <= 0 <= hi and abs(x - 1.0) <= rtol) else None
    est = (lx := math.log(ax)) / (lq := math.log(aq))
    if not math.isfinite(est):
        return None
    m0 = round(est)
    if abs(lx - m0 * lq) > max(1e-9, 2.0 * rtol):
        return None
    for m in (m0, m0 - 1, m0 + 1):
        if lo <= m <= hi:
            try:
                ref = ipow(q, m)
            except ZeroDivisionError:  # q^|m| underflowed to 0
                continue
            if 0.0 < abs(ref) < math.inf and abs(x - ref) <= rtol * abs(ref):
                return m
    return None


def terminating_order(x: complex, ctx: QContext) -> int | None:
    """n >= 0 such that x = q^{-n} (so (x;q)_k = 0 exactly for k > n), else None."""
    if abs(x) < 1.0 - 2.0 * SNAP_RTOL:  # |q^{-n}| >= 1: no snap, no log needed
        return None
    idx = q_power_index(x, ctx.q, -MAX_TERMS, 0)
    return None if idx is None else -idx


def qpoch(x: complex, n: int, ctx: QContext) -> complex:
    """(x;q)_n for any integer n.

    n > 0 is the plain product prod_{i=0}^{n-1} (1 - x q^i), n = 0 gives 1,
    and n < 0 is the reciprocal product over j = n..-1.  Finite arithmetic
    only; a base snapped onto q^{-m} with 0 <= m < n yields exactly 0.
    Raises PoleError when a reciprocal factor falls inside the pole guard.
    """
    if n == 0:
        return 1.0 + 0.0j
    x = complex(x)
    q = ctx.q
    if n > 0:
        zero_at = terminating_order(x, ctx)
        if zero_at is not None and zero_at < n:
            return 0.0 + 0.0j
        p = 1.0 + 0.0j
        qi = 1.0 + 0.0j
        for _ in range(n):
            p *= 1.0 - x * qi
            qi *= q
        return p
    # n < 0: reciprocal product over j = n .. -1
    p = 1.0 + 0.0j
    qj = ipow(q, n)
    for _ in range(-n):
        p *= _one_minus(x * qj)
        qj *= q
    return 1.0 / p


def _powers(q: complex, width: int):
    """q^0 .. q^width, a read-only prefix of the cached table for q.

    The table is q^k = q^{k-1} * q (never pow), rebuilt longer on demand; a
    prefix of a longer running product is bit-equal, so no value depends on
    the calls before.  repr keys keep q = x+0j and x-0j apart."""
    table = _TABLES.get(repr(q))
    if table is None or table.size <= width:
        table = np.multiply.accumulate(np.concatenate([[1.0], np.full(width, q)]))
        table.flags.writeable = False
    return _keep_recent(_TABLES, q, table)[:width + 1]


def _keep_recent(memo: dict, q: complex, value):
    """Store value as memo[repr(q)], the most recent of the last _TABLE_QS q; return it."""
    key = repr(q)
    memo.pop(key, None)
    if len(memo) >= _TABLE_QS:  # drop the least recently used q
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def _factor_counts(ax, q, bases, what="(x;q)_oo", label="x"):
    """The factor count of (x;q)_oo for each modulus |x| of ax (all nonzero and
    finite), with the q^k table that serves it: (table, its moduli, counts).

    The count is K + 1, K the first k >= 2 with 3 small deviations,
    |q^j| < PRODUCT_TOL / |x| for j = k-2 .. k, and |q^{k+1}| < PRODUCT_TOL *
    (1 - |q|) / |x|.  Both conditions are first hits in the moduli |q^k|
    (their running minimum, so they stay first hits), so two searches of
    the table give every count before any factor is formed.  The table
    (``_powers``) is long enough for the largest |x|.  CapExceeded names the
    entry of ``bases`` (of the shape of ax) for the first count past
    MAX_PRODUCT_FACTORS, as ``what`` did not converge.
    """
    aq, cap, tol = abs(q), MAX_PRODUCT_FACTORS, PRODUCT_TOL
    gate, lq = tol * (1.0 - aq), math.log(aq) if aq else -math.inf
    # enough factors for the largest base: |x q^k| drops below tol no later
    # than below gate < tol, then 3 small deviations, and 1 spare for rounding
    width = min(cap, max(3, math.floor(math.log(gate / max(float(ax.max(initial=0.0)), tol)) / lq) + 5))
    table = _powers(q, width)
    mod = np.abs(table)
    # with c(b) the number of k whose running minimum of |q^k| is below b,
    # the factors used are K + 1 = width + 4 - min(c(tol/|x|), c(gate/|x|) + 3)
    below = np.searchsorted(np.minimum.accumulate(mod)[::-1], np.divide.outer((tol, gate), ax))
    below[1] += 3
    count = width + 4 - np.minimum.reduce(below)
    if count.max(initial=0) > width:
        bad = int((count > width).argmax())
        raise CapExceeded(
            f"base {complex(bases[bad])!r}: {what} did not converge within {cap} "
            f"factors (|{label}| = {ax[bad]:.3g}, |q| = {aq:.6g})"
        )
    return table, mod, count


# a product that overflows is caught by the kernel's own isfinite test, so numpy need not warn
@np.errstate(over="ignore", invalid="ignore")
def qpoch_inf_many(xs, ctx: QContext):
    """(x;q)_oo for every entry of an array of bases, of any shape.

    Returns the values, absolute error bounds and factors used, as arrays
    of that shape.  Each entry follows the scalar rule: factors 1 - x q^k
    in order (q^k from one table of repeated products), k = 0 .. K, with K + 1
    the count of ``_factor_counts``; the bound is |P_K| * (e^T - 1), T the
    geometric tail of the log-factors after h = |x| |q^{K+1}|.  x = 0 gives 1
    and a base snapped onto q^{-m}, m >= 0 (``q_power_index``), exactly 0,
    both with a zero bound.

    Every count comes first, then each block of entries (``_BLOCK`` entries
    x factors, so memory stays bounded) multiplies: the block is one
    (factor, entry) array whose factors past their entry's K are exactly 1,
    and one multiply.reduce down the factor axis gives all its products,
    vectorised across entries with numpy's array complex multiply (FMA where
    the machine has it) in the order k = 0 .. K.  Multiplying by 1 is exact,
    and a one-entry block gets a twin column (a one-column reduce multiplies
    differently), so each entry's value and count depend on its base alone,
    not on the call or the block.  CapExceeded names the first base that
    needs more than MAX_PRODUCT_FACTORS factors, else the first whose
    product overflows.
    """
    x = np.asarray(xs, dtype=complex)
    shape, x = x.shape, x.ravel()
    q, aq = ctx.q, abs(ctx.q)
    ax = np.abs(x)
    top = float(ax.max(initial=0.0))
    if not math.isfinite(top):
        raise CapExceeded(f"base {complex(x[~np.isfinite(ax)][0])!r} is not finite")
    # |q^{-m}| >= 1 for m >= 0, so only |x| >= 1 - SNAP_RTOL can snap; such bases are few
    snaps = {}
    if top >= 1.0 - 2.0 * SNAP_RTOL:
        near = np.flatnonzero(ax >= 1.0 - 2.0 * SNAP_RTOL)
        for i, xi in zip(near.tolist(), x[near].tolist()):
            if (m := q_power_index(xi, q, -MAX_PRODUCT_FACTORS, 0)) is not None:
                snaps[i] = m
    live = None
    if snaps or ax.min(initial=1.0) == 0.0:
        value, err, used = np.ones(x.size, complex), np.zeros(x.size), np.ones(x.size, int)
        keep = ax > 0.0
        for i, m in snaps.items():
            value[i], used[i], keep[i] = 0.0, 1 - m, False
        live = np.flatnonzero(keep)
        x, ax = x[live], ax[live]
    table, mod, count = _factor_counts(ax, q, x)
    width = table.size - 1
    vals, bound = np.empty(x.size, complex), np.empty(x.size)
    step = max(2, _BLOCK // width)
    for r in range(0, x.size, step):
        xr, ar, nr = x[r:r + step], ax[r:r + step], count[r:r + step]
        lo, rows = int(np.minimum.reduce(nr)), int(np.maximum.reduce(nr))
        # multiply: the factors k >= count of each column are ones
        if xr.size == 1:  # a one-column reduce multiplies differently: give it a twin
            xr, nr = np.repeat(xr, 2), np.repeat(nr, 2)
        f = np.multiply(table[:rows, None], xr)
        np.subtract(1.0, f, out=f)
        if lo < rows:
            np.copyto(f[lo:], 1.0, where=np.arange(lo, rows)[:, None] >= nr)
        v = vals[r:r + step] = np.multiply.reduce(f, axis=0)[:x.size - r]
        h = ar * mod[count[r:r + step]]
        bound[r:r + step] = np.abs(v) * np.expm1(h / (1.0 - aq) / np.maximum(1.0 - h, 0.5))
    if not (finite := np.isfinite(vals)).all():
        raise CapExceeded(f"base {complex(x[finite.argmin()])!r}: (x;q)_oo is not finite")
    if live is None:
        return vals.reshape(shape), bound.reshape(shape), count.reshape(shape)
    value[live], err[live], used[live] = vals, bound, count
    return value.reshape(shape), err.reshape(shape), used.reshape(shape)


def _h_factors(lams, ctx: QContext):
    """The coefficients of h(x; lam) = (lam e^{it}, lam e^{-it};q)_oo
    = prod_k (1 - 2 lam q^k x + lam^2 q^{2k}), x = cos t, for each lam,
    laid out for the blocks of ``_h_products``.

    Returns (two_w, one_plus_w2, step, counts).  two_w and one_plus_w2 hold
    2 w_k and 1 + w_k^2, w_k = lam q^k, one row per k and, per lam, ``step``
    equal columns, one for each entry of a block: (k, lam x entry) arrays of
    at most ``_BLOCK`` cells.  counts holds each lam's factor count, that of
    (lam;q)_oo by ``_factor_counts`` (0 for lam = 0), so h multiplies as
    many factors as (lam;q)_oo would; past it the rows hold 0 and 1, factors
    of exactly 1.  Real when q and every lam are real, else complex; the
    coefficients do not depend on x, so one call serves every node of an
    integrand.  CapExceeded names the first lam past the cap.
    """
    lam = np.asarray(lams, dtype=complex)
    live = np.flatnonzero(lam)
    table, _, live_counts = _factor_counts(np.abs(lam[live]), ctx.q, lam[live], "h(x; lam)", "lam")
    counts = np.zeros(lam.size, int)
    counts[live] = live_counts
    width = int(counts.max(initial=0))
    w = table[:width, None] * lam
    if ctx.q.imag == 0.0 and not lam.imag.any():
        w = w.real
    w[np.arange(width)[:, None] >= counts] = 0.0
    step = max(2, _BLOCK // max(1, width * lam.size))
    return np.repeat(2.0 * w, step, axis=1), np.repeat(1.0 + w * w, step, axis=1), step, counts


# a product that overflows is left to the caller's own isfinite test
@np.errstate(over="ignore", invalid="ignore")
def _h_products(x, factors):
    """h(x; lam) for each lam of ``_h_factors`` and each entry of the real 1-D
    array x: an array (lams, x.size) of the factors' dtype.

    Each block of ``step`` entries is one (k, lam x entry) array of factors
    1 + w_k^2 - 2 w_k x, and one multiply.reduce down the k axis gives all
    its products in the order k = 0 .. K, vectorised across lam and entry.
    A lam's factors past its count are exactly 1, and a one-entry block gets
    a twin, as in ``qpoch_inf_many``, so each value depends on x and lam
    alone.  At x = 1 and lam = 1 the factor k = 0 is 2 - 2 = 0 exactly.
    """
    two_w, one_plus_w2, step, counts = factors
    width, n_lam = two_w.shape[0], counts.size
    out = np.empty((n_lam, x.size), two_w.dtype)
    for r in range(0, x.size, step):
        xr = x[r:r + step]
        if xr.size == 1:  # a one-column reduce multiplies differently: give it a twin
            xr = np.repeat(xr, 2)
        a, b = two_w, one_plus_w2
        if xr.size < step:  # the last block: its entries' columns of each lam
            a, b = (c.reshape(width, n_lam, step)[:, :, :xr.size].reshape(width, n_lam * xr.size)
                    for c in (a, b))
        f = a * np.tile(xr, n_lam)
        np.subtract(b, f, out=f)
        out[:, r:r + step] = np.multiply.reduce(f, axis=0).reshape(n_lam, xr.size)[:, :x.size - r]
    return out


def qpoch_inf(x: complex, ctx: QContext) -> SeriesResult:
    """(x;q)_oo with its tail bound: the one-entry case of ``qpoch_inf_many``."""
    value, err, used = qpoch_inf_many(x, ctx)
    return SeriesResult(complex(value), float(err), int(used), bool(x == 0 or value == 0))


def qpoch_multi(bases, n, ctx: QContext) -> complex:
    """(a,b,...,c;q)_n = product of per-base q-shifted factorials.

    n is an integer or INF.  Pole and cap failures are raised with the
    offending base identified.
    """
    if n == INF:
        return _ldexp(*_prod(qpoch_inf_many(list(bases), ctx)[0].tolist()))
    p = 1.0 + 0.0j
    for b in bases:
        try:
            p *= qpoch(b, n, ctx)
        except PoleError as exc:
            raise PoleError(f"base {complex(b)!r}: {exc}") from exc
    return p


@contextlib.contextmanager
def _prefetched(bases, ctx: QContext):
    """Inside the block, qfrac reads (x;q)_oo of these bases from one kernel call made here.

    Each value depends on its base alone, so it is the value that qfrac's
    own call would give.  If the call raises (CapExceeded), the block runs
    without the memo.
    """
    global _prefetch
    unique = {_bits(x.real, x.imag): x for x in bases}
    try:
        if unique:
            values = qpoch_inf_many(list(unique.values()), ctx)[0].tolist()
            _prefetch = (repr(ctx.q), dict(zip(unique, values)))
    except QVerifyError:  # CapExceeded: the block runs without the memo
        pass
    try:
        yield
    finally:
        _prefetch = None


def _inf_values(bases, ctx: QContext) -> list:
    """(x;q)_oo of each base, as a list: from the memo of ``_prefetched`` where
    it holds the base, else from one kernel call on the bases it lacks."""
    if _prefetch is None or _prefetch[0] != repr(ctx.q):
        _prefetch_counts[1] += len(bases)
        return qpoch_inf_many(bases, ctx)[0].tolist()
    memo = _prefetch[1]
    values = [memo.get(_bits(x.real, x.imag)) for x in bases]
    missing = [i for i, v in enumerate(values) if v is None]
    _prefetch_counts[0] += len(values) - len(missing)
    _prefetch_counts[1] += len(missing)
    if missing:
        computed = qpoch_inf_many([bases[i] for i in missing], ctx)[0].tolist()
        for i, v in zip(missing, computed):
            values[i] = v
    return values


def qfrac(numer, denom, n, ctx: QContext) -> complex:
    """qpoch_multi(numer, n) / qpoch_multi(denom, n), pole-guarded.

    With n = INF one qpoch_inf_many call evaluates both lists, less the
    bases that a ``_prefetched`` block holds, and products that overflow
    are carried as mantissa x 2^e (``_prod``) into the ratio.
    """
    denom = list(denom)
    _record(denom)
    if n == INF:
        values = _inf_values(denom + list(numer), ctx)
        (den, e), (num, f) = _prod(values[:len(denom)]), _prod(values[len(denom):])
    else:
        (den, e), (num, f) = (qpoch_multi(denom, n, ctx), 0), (None, 0)
    if abs(_ldexp(den, e)) < POLE_GUARD:
        raise PoleError(f"denominator product magnitude {abs(_ldexp(den, e)):.3g} below pole guard")
    return _ldexp((qpoch_multi(numer, n, ctx) if num is None else num) / den, f - e)


def _prod(values):
    """math.prod of complex factors as (m, e), the value m 2^e: e = 0 unless that
    product overflows (inf, or nan from inf - inf) while every factor is finite;
    then each factor and partial product is scaled by a power of 2 (exact)."""
    p = math.prod(values, start=1.0 + 0.0j)
    if cmath.isfinite(p) or not all(map(cmath.isfinite, values)):
        return p, 0
    m, e = 1.0 + 0.0j, 0
    for v in values:
        s = math.frexp(max(abs(v.real), abs(v.imag)))[1]
        m *= _ldexp(v, -s)
        t = math.frexp(max(abs(m.real), abs(m.imag)))[1]
        m, e = _ldexp(m, -t), e + s + t
    return m, e


def _ldexp(z, e):
    """z 2^e, overflowing to inf and underflowing to 0 as a product would."""
    if not e:
        return z
    e = min(max(e, -2000), 2000)  # past that, every |z| <= 2 saturates
    return z * math.ldexp(1.0, e // 2) * math.ldexp(1.0, e - e // 2)
