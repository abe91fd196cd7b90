"""Askey-Wilson-type quadrature and the closed forms it is checked against.

The integrand family lives on [0, pi]:

    h(cos 2t; 1) / h(cos t; a, b, c, d) * prod_i h(cos t; u_i) / h(cos t; v_i)

where h(x; lam) = (lam e^{it}, lam e^{-it}; q)_oo with x = cos t.  As a
function of t this extends to an even, 2*pi-periodic analytic function,
so the composite trapezoidal rule with panel doubling converges
spectrally; it asks the integrand for the nodes t_j = j pi / n of each
level n (``_nodes``), reuses them across refinements, and stops at a node
value that is not finite.  Each h-function row is a short head of the
paper's quadratic factors, the leading k with |lam q^k| > _RHO (most lam
have none), times the rest as a log series: log (w e^{it}, w e^{-it};q)_oo
= -sum_n 2 w^n cos(nt) / (n (1 - q^n)) with w = lam q^K.  The row
h(cos 2t; 1) is the same with lam = 1 in the angle 2t: its head holds the
exact zeros at t = 0, pi, and its series the even cosines.  The series of
every row add into one cosine series per integrand, which one real FFT
sums at every node of a level (``_cosine_sums``); one FFT serves every
level up to _SHARED_PANELS panels.  Every head, the unit row's and each
lam's, is one product of the same quadratic factors.  Real at real q and
real lam, complex otherwise, by the one formula.  Closed-form right-hand
sides for the q-beta integral and its multi-variable generalizations live
here as well, and the residue sum that the stated multi-variable form
misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    INF,
    PRODUCT_TOL,
    ConstraintViolation,
    NoConvergence,
    QContext,
    _divisor,
    _one_minus,
    _powers,
    ipow,
    qfrac,
)
from .multisum import check_qpow_ratio, omega
from .series import _shifted_terms, _sum_stream

__all__ = [
    "AWIntegrandSpec",
    "QuadratureResult",
    "integrate_aw",
    "aw_closed_form",
    "thm_e_rhs",
    "aw_residue_correction",
    "corl_e_rhs",
]

TWO_PI = 2.0 * math.pi
_FIRST_PANELS, _MAX_PANELS = 8, 2 ** 18  # the trapezoid's first and last levels

# a factor of h(x; lam) with |lam q^k| above _RHO is a head factor, the rest of
# h its log series, summed to a tail below _SERIES_TOL; one FFT serves every
# trapezoid level up to _SHARED_PANELS panels
_RHO, _SERIES_TOL, _SHARED_PANELS = 0.9, 1e-17, 64


@dataclass(frozen=True)
class AWIntegrandSpec:
    """Denominator parameters a..d plus numerator/denominator h-pairs (u, v).

    |a|, |b|, |c|, |d| < 1 and every |v_i| < 1 keep the denominator
    h-functions zero-free on the integration range.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    u: tuple = ()
    v: tuple = ()

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, complex(getattr(self, name)))
        object.__setattr__(self, "u", tuple(complex(x) for x in self.u))
        object.__setattr__(self, "v", tuple(complex(x) for x in self.v))
        if len(self.u) != len(self.v):
            raise ValueError("u and v must have equal lengths")
        for lam in (self.a, self.b, self.c, self.d) + self.v:
            if not abs(lam) < 1.0:
                raise ValueError(
                    f"denominator h-parameter |{lam!r}| must be < 1 "
                    "to keep the integrand pole-free"
                )


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    abs_error_estimate: float
    panels_used: int

    def __post_init__(self):
        if self.abs_error_estimate < 0.0:
            raise ValueError("abs_error_estimate must be >= 0")


def _nodes(n: int, odd: bool = False) -> np.ndarray:
    """The nodes t_j = j (pi / n) of the n-panel grid, t_n = pi: every j, or the
    odd j alone (the nodes that level n adds to level n / 2); the bits of
    np.linspace(0, pi, n + 1)."""
    if odd:
        return np.arange(1, n, 2) * (math.pi / n)
    thetas = np.arange(n + 1) * (math.pi / n)
    thetas[-1] = math.pi
    return thetas


def _head_split(lam: np.ndarray, ctx: QContext):
    """Each lam's head count K, the number of leading k with |lam q^k| > _RHO,
    and w = lam q^K, from qcore's q^k table; lam holds the unit row's 1, so
    its largest modulus is at least 1."""
    aq, top = abs(ctx.q), float(np.abs(lam).max())
    width = 1 if aq == 0.0 else math.ceil(math.log(_RHO / top) / math.log(aq)) + 2
    table = _powers(ctx.q, width)
    counts = (np.multiply.outer(np.abs(lam), np.abs(table)) > _RHO).argmin(axis=1)
    return counts, lam * table[counts]


def _log_coefficients(w: np.ndarray, signs: np.ndarray, ctx: QContext) -> np.ndarray:
    """c_0 .. c_2N with sum_m c_m cos(mt) = sum over the lam of sign * log(w e^{it},
    w e^{-it};q)_oo, plus log(w e^{2it}, w e^{-2it};q)_oo for the last w, the
    unit row's.

    Each log is -sum_{n>=1} 2 w^n cos(nt) / (n (1 - q^n)) (Gasper and Rahman,
    ch. 1), so c_0 = 0, c_n = -2 (sum of sign * w^n) / (n (1 - q^n)) over the
    lam, and the unit row's term n, in cos(2nt), adds to c_2n.  N is the least
    with r^N <= _SERIES_TOL (1 - r)(1 - |q|) / 2, r = max |w| < 1 over every w,
    the unit's included, so each row's tail 2 r^{N+1} / ((N+1)(1 - r)(1 - |q|))
    stays below _SERIES_TOL.  1 - q^n is (1 - q)(1 + q + ... + q^{n-1}), which
    holds no cancellation at q near 1.  Real when q and every w are real.
    """
    q, r = ctx.q, float(np.abs(w).max(initial=0.0))
    if r == 0.0:
        return np.zeros(1)
    n_max = max(1, math.ceil(math.log(_SERIES_TOL * (1.0 - r) * (1.0 - abs(q)) / 2.0) / math.log(r)))
    table = _powers(q, n_max)[:n_max]
    if q.imag == 0.0 and not w.imag.any():
        q, w, table = q.real, w.real, table.real
    powers = np.empty((n_max, w.size), w.dtype)  # w^n by doubling: log2(n) products each
    powers[0], k = w, 1
    while k < n_max:
        m = min(k, n_max - k)
        np.multiply(powers[:m], powers[k - 1], out=powers[k:k + m])
        k += m
    scale = -2.0 / (np.arange(1, n_max + 1) * ((1.0 - q) * np.cumsum(table)))
    coeffs = np.zeros(2 * n_max + 1, powers.dtype)
    coeffs[1:n_max + 1] = scale * (powers[:, :-1] @ signs)
    coeffs[2::2] += scale * powers[:, -1]
    return coeffs


def _cosine_sums(coeffs: np.ndarray, n: int) -> np.ndarray:
    """sum_m c_m cos(m j pi / n) at every node j = 0 .. n of the n-panel grid.

    cos(m j pi / n) has period 2n in m, so c folded modulo 2n gives the sums
    as the real part of one real FFT of length 2n (two for complex c).
    numpy.fft is imported here, at first use: plans that run no quadrature
    never load it.
    """
    from numpy import fft

    size = 2 * n
    folded = np.zeros(-(-coeffs.size // size) * size, coeffs.dtype)
    folded[:coeffs.size] = coeffs
    folded = folded.reshape(-1, size).sum(axis=0)
    if folded.dtype.kind == "c":
        return fft.rfft(folded.real).real + 1j * fft.rfft(folded.imag).real
    return fft.rfft(folded).real


def _aw_integrand(spec: AWIntegrandSpec, ctx: QContext):
    """The integrand on the trapezoid's grids; returns (f, n_factors).

    f(n, odd) gives the node values at the nodes ``_nodes(n, odd)`` of the
    n-panel grid.  Each h(cos t; lam) splits into a head, its K leading
    factors with |lam q^k| > _RHO (most lam have none), and the log series of
    the rest, (w e^{it}, w e^{-it};q)_oo with w = lam q^K.  The row
    h(cos 2t; 1) is the lam = 1 row in the angle 2t: its head is the factors
    (1 - q^k)^2 + 4 q^k sin^2 t with |q^k| > _RHO (k = 0 alone for |q| <=
    _RHO), its w is q^K.  The series of every row add into one cosine
    series, numerators less denominators, built once per integrand
    (``_log_coefficients``; lam = 0 adds nothing); one FFT on the grid of
    _SHARED_PANELS panels serves every level up to it, and each finer level
    takes one FFT of its own (``_cosine_sums``).  A node value is the unit
    head times the numerator heads, over the denominator heads, times exp of
    the series.  Every head is one product over k of the cancellation-free
    factors (1 - w_k)^2 + 4 w_k s, w_k = lam q^k, with s = sin^2 t for the
    unit row and sin^2(t/2) for a lam row; sin^2(t/2) and the products of
    the rows are computed only when some lam has a head.  The unit head
    takes sin at min(t, pi - t), so its factor k = 0, 4 sin^2 t, is an exact
    0 at t = 0, pi, and so is the node; a node that is not finite is named
    by ``_finite_nodes``, not numpy.  n_factors counts the (x;q)_oo products
    involved, two per h-function, which scales the product error floor of
    each node value.
    """
    lams = np.array(spec.u + (spec.a, spec.b, spec.c, spec.d) + spec.v)
    signs = np.where(np.arange(lams.size) < len(spec.u), 1.0, -1.0)
    live = lams != 0.0
    lam_rows = np.append(lams[live], 1.0)  # the unit row last
    counts, w = _head_split(lam_rows, ctx)
    coeffs = _log_coefficients(w, signs[live], ctx)
    # the head rows: the unit row first, then each lam with a head in spec order,
    # the numerators' before the denominators'; w_k = lam q^k, 0 past the row's count
    pick = np.flatnonzero(counts)
    pick = pick[np.arange(-1, pick.size - 1)]
    head_lams, head_counts = lam_rows[pick], counts[pick]
    n_num = 1 + np.count_nonzero(signs[live][pick[1:]] > 0.0)
    width = counts.max()
    w_k = _powers(ctx.q, width)[:width, None] * head_lams
    if ctx.q.imag == 0.0 and not head_lams.imag.any():
        w_k = w_k.real
    w_k[np.arange(width)[:, None] >= head_counts] = 0.0  # a factor of exactly 1
    four_w, one_minus_w = 4.0 * w_k[..., None], 1.0 - w_k[..., None]
    one_minus_w_sq = one_minus_w * one_minus_w
    shared = []  # the series on the grid of _SHARED_PANELS panels, once computed

    def series(n: int, odd: bool) -> np.ndarray:
        if _SHARED_PANELS % n:
            sums = _cosine_sums(coeffs, n)
        else:
            if not shared:
                shared.append(_cosine_sums(coeffs, _SHARED_PANELS))
            sums = shared[0][::_SHARED_PANELS // n]
        return sums[1::2] if odd else sums

    def f(n: int, odd: bool = False) -> np.ndarray:
        thetas = _nodes(n, odd)
        sines = np.sin(np.minimum(thetas, math.pi - thetas))
        s = sines * sines  # the unit row's s = sin^2 t
        if head_lams.size > 1:  # the lam rows' s = sin^2(t/2)
            halves = np.sin(0.5 * thetas)
            # C order, and so heads: a reduce of complex rows along a contiguous
            # axis rounds unlike the row-by-row products below
            s = np.array([s] + [halves * halves] * (head_lams.size - 1))
        sums = series(n, odd)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            heads = np.multiply.reduce(one_minus_w_sq + four_w * s, axis=0)
            num, den = heads[0], 1.0
            if head_lams.size > 1:
                num, den = np.multiply.reduce(heads[:n_num]), np.multiply.reduce(heads[n_num:])
            rest = num / den
            value = rest * np.exp(sums)
            # exp of the series may overflow alone: there, fold the rest into the exponent
            if not np.isfinite(value).all():
                over = ~np.isfinite(value) & (rest != 0.0)
                r = rest[over]
                value[over] = r / np.abs(r) * np.exp(sums[over] + np.log(np.abs(r)))
        value[num == 0] = 0.0
        return value

    return f, 2 * (1 + lams.size)


def _finite_nodes(f, n: int, odd: bool = False) -> np.ndarray:
    """f(n, odd); NoConvergence naming the first node whose value is not finite."""
    vals = f(n, odd)
    if not (finite := np.isfinite(vals)).all():
        theta = float(_nodes(n, odd)[finite.argmin()])
        raise NoConvergence(f"integrand is not finite at theta = {theta!r}")
    return vals


def _trapezoid_doubling(f, n_factors: int):
    """Composite trapezoid on [0, pi] with panel doubling and node reuse.

    f(n, odd) gives the values at the nodes ``_nodes(n, odd)``: every node
    of the first level, then the odd nodes that each doubling adds.  Stops
    when successive refinements agree within max(1e-12 * scale, 10 *
    product error floor); returns (complex value, |last delta|, panels,
    deltas) with the refinement history exposed for spectral-behaviour
    checks.  A node value that is not finite raises NoConvergence at once:
    no refinement can settle then.  Only the levels the refinement reaches
    are asked for, so a node of a deeper level is never tested.
    """
    n = _FIRST_PANELS
    h = math.pi / n
    vals = _finite_nodes(f, n)
    total = h * (0.5 * vals[0] + vals[1:-1].sum() + 0.5 * vals[-1])
    deltas = []
    floor_rel = 10.0 * n_factors * PRODUCT_TOL
    while n < _MAX_PANELS:
        total_new = 0.5 * total + 0.5 * h * _finite_nodes(f, 2 * n, odd=True).sum()
        h *= 0.5
        n *= 2
        delta = abs(total_new - total)
        deltas.append(delta)
        total = total_new
        scale = max(1.0, abs(total))
        if delta <= max(1e-12 * scale, floor_rel * scale):
            return total, delta, n, deltas
    raise NoConvergence(f"quadrature did not stabilize within {_MAX_PANELS} panels")


def integrate_aw(spec: AWIntegrandSpec, ctx: QContext) -> QuadratureResult:
    """The Askey-Wilson-type integral over [0, pi] by spectral trapezoid.

    The value is complex: exactly real at real q and real parameters (every
    node value is then real: real heads and cosine series), and genuinely
    complex at complex q.
    """
    f, n_factors = _aw_integrand(spec, ctx)
    total, delta, n, _ = _trapezoid_doubling(f, n_factors)
    floor = 10.0 * n_factors * PRODUCT_TOL * max(1.0, abs(total))
    return QuadratureResult(complex(total), float(delta + floor), int(n))


def aw_closed_form(a, b, c, d, ctx: QContext) -> complex:
    """Closed form 2 pi (abcd;q)_oo / (q, ab, ac, ad, bc, bd, cd;q)_oo."""
    return TWO_PI * qfrac(
        [a * b * c * d],
        [ctx.q, a * b, a * c, a * d, b * c, b * d, c * d],
        INF,
        ctx,
    )


def _aw_ratios(numer, denom, d, u, v, ctx: QContext) -> list:
    """The (x;q)_oo ratios of a q-beta closed form, as (numer, denom) lists:
    numer / denom, then (d u_i, q u_i/d) / (d v_i, q v_i/d) for each pair."""
    q = ctx.q
    return [(numer, denom)] + [([d * ui, q * ui / d], [d * vi, q * vi / d]) for ui, vi in zip(u, v)]


def _thm_e_ratios(a, b, c, d, u, v, ctx: QContext) -> list:
    """The ratios of ``_thm_e_products``."""
    q = ctx.q
    return _aw_ratios([a * b * c * d / q], [q, a * b, a * c, a * d, b * c, b * d, c * d], d, u, v, ctx)


def _corl_e_ratios(a, b, c, u, v, ctx: QContext) -> list:
    """The ratios of ``corl_e_rhs``."""
    q = ctx.q
    return _aw_ratios([], [q, q, a * b, a * c, q * b / a, q * c / a], a, u, v, ctx)


def _thm_e_products(a, b, c, d, u, v, ctx: QContext) -> complex:
    """(abcd/q;q)_oo/(q,ab,ac,ad,bc,bd,cd;q)_oo * prod (du,qu/d;q)_oo/(dv,qv/d;q)_oo."""
    (lead, *pairs) = _thm_e_ratios(a, b, c, d, u, v, ctx)
    value = qfrac(*lead, INF, ctx)
    for ratio in pairs:
        value *= qfrac(*ratio, INF, ctx)
    return value


def thm_e_rhs(a, b, c, d, u, v, N, ctx: QContext) -> complex:
    """Stated closed form of the multi-variable q-beta integral.

    2 pi / (1 - abcd/q^{N+1}) * (abcd/q;q)_oo / (q, ab, ..., cd;q)_oo
    * prod_i (d u_i, q u_i/d;q)_oo / (d v_i, q v_i/d;q)_oo, divided by the
    terminating multi-sum.  Requires u_i / v_i = q^{N_i}.

    Exact for N_i = 0 throughout.  For N_i >= 1 the true integral differs by
    residue contributions: the constant-term derivation behind this formula
    silently assumes its generating function is pole-free, but the function
    has poles at z = v_i q^m, m < N_i, inside the unit circle -- see
    aw_residue_correction.
    """
    q = ctx.q
    n_total = sum(int(x) for x in N)
    lead = _one_minus(a * b * c * d * ipow(q, -(n_total + 1)))
    value = TWO_PI / lead * _thm_e_products(a, b, c, d, u, v, ctx)
    return value / _divisor(omega(a, b, c, d, u, v, N, ctx), "terminating multi-sum")


def _residue_terms(p, i, j_star, lams, u, v, w, ctx: QContext):
    """The residues T_k, k = k0 + n with k0 = j*+1, at the pole z = p = v_i q^m.

    Each (x;q)_{k0+n} is (x;q)_{k0} (x q^{k0};q)_n and each (x;q)_{k0+n+1}
    is (x;q)_{k0+1} (x q^{k0+1};q)_n; (qp/u_i;q)_k without its vanishing
    factor at index j* (the pole) is (qp/u_i;q)_{j*} (x q^{k0};q)_n.  So the
    terms are one series._shifted_terms stream in n, with c = q^{2k0} p^2,
    and the constants come from qfrac, which records its denominators.
    """
    q = ctx.q
    k0 = j_star + 1  # poles exist only for k > j_star
    pole = q * p / u[i]
    up0 = [q * p / x for x in (*lams, *v)]  # (x;q)_k rows
    low0 = [q * p / x for j, x in enumerate(u) if j != i]
    up1, low1 = [p * x for x in u], [p * x for x in (*lams, *v)]  # (x;q)_{k+1} rows
    const = (1.0 - p * p) * ipow(w, k0) * qfrac([], [pole], j_star, ctx)
    const *= qfrac(up0, low0, k0, ctx) * qfrac(up1, low1, k0 + 1, ctx)
    s0, s1 = ipow(q, k0), ipow(q, k0 + 1)
    ups = [x * s0 for x in up0] + [x * s1 for x in up1]
    lows = [x * s0 for x in low0 + [pole]] + [x * s1 for x in low1]
    return _shifted_terms(const, s0 * s0 * p * p, ups, lows, [], w, ctx)


def aw_residue_correction(a, b, c, d, u, v, N, ctx: QContext) -> complex:
    """The residue sum that the stated multi-variable closed form misses.

    The contour derivation expands the integrand's generating function in
    two unilateral branches; the k-th positive-branch term

        T_k(z) = (1-z^2)(1-q^{2k+1} z^2)
                 prod_lam (qz/lam;q)_k / (lam z;q)_{k+1}
                 prod_i (z u_i;q)_{k+1} (qz/v_i;q)_k
                        / [(z v_i;q)_{k+1} (qz/u_i;q)_k]
                 * (abcd/q^{N+1})^k

    has simple poles inside the unit circle at z = v_i q^m, 0 <= m < N_i
    (from the (qz/u_i;q)_k factor at index j = N_i-1-m), with residue
    res(T_k(z)/z) = -T_k with that factor deleted.  Summing the residues
    over k and dividing out the product-side constants gives the defect:

        integral  =  thm_e_rhs  +  aw_residue_correction.

    Each pole's residues are one _residue_terms stream over the series
    ladder (K terms cost O(K) factors), summed by series._sum_stream under
    the standard truncation policy.  Zero when every N_i = 0.  Assumes the
    poles v_i q^m are pairwise distinct (generic parameters).  The divisor
    omega comes first: it checks each pair's q^N relation.
    """
    q = ctx.q
    om = omega(a, b, c, d, u, v, N, ctx)
    n_total = sum(int(x) for x in N)
    w = a * b * c * d * ipow(q, -(n_total + 1))
    if not abs(w) < 1.0:
        raise ConstraintViolation("|abcd/q^{N+1}| >= 1: residue series diverges")
    lams = (a, b, c, d)
    res_total = 0.0 + 0.0j
    for i, n_i in enumerate(int(x) for x in N):
        for m in range(n_i):
            p = v[i] * ipow(q, m)
            terms = _residue_terms(p, i, n_i - 1 - m, lams, u, v, w, ctx)
            res_total += _sum_stream(terms, ctx).value
    if res_total == 0.0:
        return 0.0 + 0.0j
    om = _divisor(om, "terminating multi-sum")
    return -TWO_PI * res_total * _thm_e_products(a, b, c, d, u, v, ctx) / om


def corl_e_rhs(a, b, c, u, v, m, ctx: QContext) -> complex:
    """Closed form at d = q/a, where the multi-sum divisor collapses to 1.

    2 pi / (1 - q^{-m} bc) / (q, q, ab, ac, qb/a, qc/a;q)_oo
    * prod_i (a u_i, q u_i/a;q)_oo / (a v_i, q v_i/a;q)_oo
    with m = sum m_i and u_i / v_i = q^{m_i}.
    """
    q = ctx.q
    for i in range(len(u)):
        check_qpow_ratio(u[i], v[i], int(m[i]), ctx, f"u_{i+1} / v_{i+1}")
    m_total = sum(int(x) for x in m)
    value = TWO_PI / _one_minus(b * c * ipow(q, -m_total))
    for ratio in _corl_e_ratios(a, b, c, u, v, ctx):
        value *= qfrac(*ratio, INF, ctx)
    return value
