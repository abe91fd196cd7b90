"""Askey-Wilson-type quadrature and the closed forms it is checked against.

The integrand family lives on [0, pi]:

    h(cos 2t; 1) / h(cos t; a, b, c, d) * prod_i h(cos t; u_i) / h(cos t; v_i)

where h(x; lam) = (lam e^{it}, lam e^{-it}; q)_oo with x = cos t.  As a
function of t this extends to an even, 2*pi-periodic analytic function,
so the composite trapezoidal rule with panel doubling converges
spectrally; nodes are reused across refinements, and a node value that
is not finite stops it.  Each h is the product the paper writes,
prod_k (1 - 2 lam q^k x + lam^2 q^{2k}), of as many factors as
(lam;q)_oo takes (qcore._h_factors, _h_products): real at real q and real
lam, complex otherwise, by the one formula.  The row h(cos 2t; 1) depends on
q and the nodes alone, so it comes from a memo per q and node array
(``_unit_rows``); the factor coefficients of the lam rows are computed once
per integrand.  Closed-form right-hand sides for the q-beta
integral and its multi-variable generalizations live here as well, and
the residue sum that the stated multi-variable form misses.
"""

from __future__ import annotations

import functools
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
    _keep_recent,
    _h_factors,
    _h_products,
    _one_minus,
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

# {repr(q): {node array: the row h(cos 2t; 1)}}, kept by qcore._keep_recent,
# for node arrays of at most _UNIT_ROW_NODES nodes (levels up to 8,192 panels)
_UNIT_ROWS, _UNIT_ROW_NODES = {}, 1 << 12


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


def _unit_rows(thetas: np.ndarray, ctx: QContext) -> np.ndarray:
    """h(cos 2t; 1) = (e^{2it}, e^{-2it};q)_oo at the nodes, read-only.

    Every quadrature at one q meets the same nodes on each refinement level,
    and this row depends on q and the nodes alone, so it is memoized per
    node array for the q that qcore keeps its q^k tables for
    (``_keep_recent``); at real q it is one float64 row.  Deeper levels, met
    only by quadratures that refine past 8,192 panels, are not kept.  Each
    value depends on its node alone, so a warm read is the cold value bit
    for bit, and the factor k = 0, 2 - 2 cos 2t, is an exact 0 at t = 0, pi.
    """
    memo = _keep_recent(_UNIT_ROWS, ctx.q, _UNIT_ROWS.get(repr(ctx.q), {}))
    nodes = (thetas.shape, thetas.tobytes())
    row = memo.get(nodes)
    if row is None:
        row = _h_products(np.cos(2.0 * thetas), _h_factors([1.0], ctx))[0]
        row.flags.writeable = False
        if thetas.size <= _UNIT_ROW_NODES:
            memo[nodes] = row
    return row


def _aw_integrand(spec: AWIntegrandSpec, ctx: QContext):
    """Vectorized integrand over theta arrays; returns (f, n_factors).

    f multiplies the row h(cos 2t; 1) (from the ``_unit_rows`` memo) by the
    rows h(cos t; u_i), then divides by the rows h(cos t; lam) of the
    denominator parameters; the coefficients of every lam row come from one
    ``_h_factors`` call per integrand.  n_factors counts the (x;q)_oo
    products involved, two per h-function, which scales the product error
    floor of each node value.
    """
    lams = spec.u + (spec.a, spec.b, spec.c, spec.d) + spec.v
    factors, split = _h_factors(lams, ctx), len(spec.u)

    def f(thetas: np.ndarray) -> np.ndarray:
        rows = _h_products(np.cos(thetas), factors)
        # row by row: a one-column reduce would multiply a lone node differently
        num = functools.reduce(np.multiply, rows[:split], _unit_rows(thetas, ctx))
        den = functools.reduce(np.multiply, rows[split:])
        # a zero numerator (the unit row at t = 0, pi) is a zero node, even where den
        # underflows; a node that is not finite is named by _finite_nodes, not numpy
        den[num == 0] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den

    return f, 2 * (1 + len(lams))


def _finite_nodes(f, thetas: np.ndarray) -> np.ndarray:
    """f(thetas); NoConvergence naming the first node whose value is not finite."""
    vals = f(thetas)
    if not (finite := np.isfinite(vals)).all():
        theta = float(thetas[finite.argmin()])
        raise NoConvergence(f"integrand is not finite at theta = {theta!r}")
    return vals


def _trapezoid_doubling(f, ctx: QContext, n_factors: int):
    """Composite trapezoid on [0, pi] with panel doubling and node reuse.

    Stops when successive refinements agree within
    max(1e-12 * scale, 10 * product error floor); returns
    (complex value, |last delta|, panels, deltas) with the refinement
    history exposed for spectral-behaviour checks.  A node value that is
    not finite raises NoConvergence at once: no refinement can settle then.
    """
    n = _FIRST_PANELS
    h = math.pi / n
    vals = _finite_nodes(f, np.linspace(0.0, math.pi, n + 1))
    total = h * (0.5 * vals[0] + vals[1:-1].sum() + 0.5 * vals[-1])
    deltas = []
    floor_rel = 10.0 * n_factors * PRODUCT_TOL
    while n < _MAX_PANELS:
        mid = np.linspace(0.0, math.pi, 2 * n + 1)[1::2]
        total_new = 0.5 * total + 0.5 * h * _finite_nodes(f, mid).sum()
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
    node value is then a real product), and genuinely complex at complex q.
    """
    f, n_factors = _aw_integrand(spec, ctx)
    total, delta, n, _ = _trapezoid_doubling(f, ctx, n_factors)
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
