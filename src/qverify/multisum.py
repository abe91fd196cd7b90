"""Finite multi-index sums over bounded compositions.

The multi-variable identities all share one sum shape: a vector
m = (m_1, ..., m_n) ranges over 0 <= m_i <= N_i, with partial sums
M_s = m_1 + ... + m_s, and the term factors into a final-coordinate
block depending on (m_n, M_n) and per-coordinate blocks depending on
(s, m_s, M_s) for s < n.  Every instance is terminating by construction
(a constraint plants a (q^{-N};q)_m base), so the sums are computed
exactly with no truncation policy.  ``block_multisum`` is the one
evaluator of this pattern: ``omega``, ``milne_rhs_block`` and the
Theorem C/D product sides in ``identities`` pass it their base lists.
"""

from __future__ import annotations

import itertools

from .qcore import (
    ConstraintViolation,
    QContext,
    ipow,
    qfrac,
    qpoch,
)

__all__ = ["block_multisum", "compositions", "milne_rhs_block", "omega"]

# relative tolerance for verifying ratio constraints of the form u/v = q^N
CONSTRAINT_RTOL = 1e-12


def compositions(limits):
    """Every vector with 0 <= m_i <= limits[i], in lexicographic order."""
    return itertools.product(*(range(int(N) + 1) for N in limits))


def check_qpow_ratio(num: complex, den: complex, n: int, ctx: QContext, what: str):
    """Verify num/den = q^n to CONSTRAINT_RTOL relative, else raise."""
    expected = ipow(ctx.q, int(n))
    ratio = complex(num) / complex(den)
    if abs(ratio - expected) > CONSTRAINT_RTOL * abs(expected):
        raise ConstraintViolation(
            f"{what}: ratio {ratio!r} is not q^{n} = {expected!r} to {CONSTRAINT_RTOL:g} relative"
        )


def block_multisum(limits, a_bases, final_num, final_den, mid_num, mid_den, weights, ctx):
    """Exact finite sum of the shared block pattern over every composition.

    Term = (a_n;q)_{m_n}/(q;q)_{m_n} * [final_num;q]_{M_n}/[final_den;q]_{M_n} * q^{M_n}
         * prod_{s<n-1} (a_s;q)_{m_s}/(q;q)_{m_s}
                        * [mid_num[s];q]_{M_s}/[mid_den[s];q]_{M_s} * weights[s]^{M_s}

    ``limits`` are the per-coordinate bounds N_1..N_n (each >= 0); n = 0 is
    the empty sum with value 1.  Accumulation follows the lexicographic
    composition order, so the value is deterministic.
    """
    limits = [int(N) for N in limits]
    if any(N < 0 for N in limits):
        raise ValueError("all limits must be >= 0")
    n = len(limits)
    if n == 0:
        return 1.0 + 0.0j
    q = ctx.q
    total = 0.0 + 0.0j
    for m in compositions(limits):
        M = list(itertools.accumulate(m))
        t = qpoch(a_bases[-1], m[-1], ctx) / qpoch(q, m[-1], ctx)
        t *= qfrac(final_num, final_den, M[-1], ctx)
        t *= ipow(q, M[-1])
        for s in range(n - 1):
            f = qpoch(a_bases[s], m[s], ctx) / qpoch(q, m[s], ctx)
            f *= qfrac(mid_num[s], mid_den[s], M[s], ctx)
            t *= f * ipow(weights[s], M[s])
        total += t
    return total


def milne_rhs_block(a, b, c, d, e, x, y, N, ctx: QContext) -> complex:
    """The terminating multi-sum on the product side of Milne's bilateral extension.

    Requires x_i * y_i = q^{1+N_i} * a for every coordinate; the constraint
    plants (q^{-N_i};q)_{m_i}, so limits = N_i truncate with zero error.
    """
    n = len(x)
    if not (len(y) == len(N) == n):
        raise ValueError("x, y, N must have equal lengths")
    if n == 0:
        return 1.0 + 0.0j
    q = ctx.q
    for i in range(n):
        check_qpow_ratio(x[i] * y[i], a, 1 + int(N[i]), ctx, f"x_{i+1} y_{i+1} / a")
    a_bases = [q * a / (x[i] * y[i]) for i in range(n)]
    return block_multisum(
        N,
        a_bases,
        [b * e / a, c * e / a, d * e / a],
        [q * e / x[-1], q * e / y[-1], b * c * d * e / (a * a)],
        [[e * x[s + 1] / a, e * y[s + 1] / a] for s in range(n - 1)],
        [[q * e / x[s], q * e / y[s]] for s in range(n - 1)],
        [q * a / (x[s + 1] * y[s + 1]) for s in range(n - 1)],
        ctx,
    )


def omega(a, b, c, d, u, v, N, ctx: QContext) -> complex:
    """The terminating multi-sum divisor of the multi-variable q-beta integral.

    Requires u_i / v_i = q^{N_i}; raises ConstraintViolation otherwise.
    """
    n = len(u)
    if not (len(v) == len(N) == n):
        raise ValueError("u, v, N must have equal lengths")
    if n == 0:
        return 1.0 + 0.0j
    q = ctx.q
    for i in range(n):
        check_qpow_ratio(u[i], v[i], int(N[i]), ctx, f"u_{i+1} / v_{i+1}")
    a_bases = [v[i] / u[i] for i in range(n)]
    return block_multisum(
        N,
        a_bases,
        [q / (a * d), q / (b * d), q / (c * d)],
        [q / (d * u[-1]), q * v[-1] / d, q * q / (a * b * c * d)],
        [[q * u[s + 1] / d, q / (d * v[s + 1])] for s in range(n - 1)],
        [[q / (d * u[s]), q * v[s] / d] for s in range(n - 1)],
        [v[s + 1] / u[s + 1] for s in range(n - 1)],
        ctx,
    )
