"""Milne's terminating multi-sum, built from its pairs.

The multi-variable identities and the multi-variable q-beta integral share
one sum.  Given limits N = (N_1, ..., N_n), pairs (P_i, Q_i), one scalar A
and three numerator bases F = (F_1, F_2, F_3), a vector m ranges over
0 <= m_i <= N_i with partial sums M_s = m_1 + ... + m_s, and with
a_i = P_i Q_i / (qA) the term is

    (a_n;q)_{m_n}/(q;q)_{m_n} * (F_1, F_2, F_3;q)_{M_n}
                              / (P_n, Q_n, F_1 F_2 F_3/A;q)_{M_n} * q^{M_n}
    * prod_{s<n} (a_s;q)_{m_s}/(q;q)_{m_s}
                 * (qA/P_{s+1}, qA/Q_{s+1};q)_{M_s}/(P_s, Q_s;q)_{M_s} * a_{s+1}^{M_s}.

Each pair must satisfy a_i = q^{-N_i}, which plants (q^{-N_i};q)_{m_i}, so
the sum terminates and is computed exactly with no truncation policy.
``block_multisum`` is its one evaluator and the one place that checks the
q^N relation of a pair.  Its callers pass only (N; P, Q; A; F):

    omega            P = q/(d u_i),      Q = q v_i/d,        A = q/d^2,
                     F = (q/(ad), q/(bd), q/(cd));
    milne_rhs_block  P = qe/x_i,         Q = qe/y_i,         A = e^2/a,
                     F = (be/a, ce/a, de/a);
    thm-c            P = q x_i/e,        Q = q y_i/e,        A = qab/e^2,
                     F = (q/e, qab/(ce), qab/(de));
    thm-d            P = q x_i/(xy^2),   Q = q y_i/(xy^2),   A = q/(xy^2),
                     F = (q/b, q/c, q/d).
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


def block_multisum(N, P, Q, A, F, ctx: QContext) -> complex:
    """Milne's terminating multi-sum in (N; P, Q; A; F); see the module docstring.

    Raises ValueError for unequal lengths or a negative limit, and
    ConstraintViolation, naming the pair, unless P_i Q_i / (qA) = q^{-N_i}.
    n = 0 is the empty sum with value 1.  Accumulation follows the
    lexicographic composition order, so the value is deterministic.
    """
    limits = [int(k) for k in N]
    n = len(limits)
    if not (len(P) == len(Q) == n):
        raise ValueError("N, P, Q must have equal lengths")
    if any(k < 0 for k in limits):
        raise ValueError("all limits must be >= 0")
    if n == 0:
        return 1.0 + 0.0j
    q = ctx.q
    qA = q * A
    a = [P[i] * Q[i] / qA for i in range(n)]
    for i in range(n):
        check_qpow_ratio(a[i], 1.0, -limits[i], ctx, f"pair {i + 1}: P_{i + 1} Q_{i + 1} / (qA)")
    final_den = [P[-1], Q[-1], F[0] * F[1] * F[2] / A]
    mid_num = [[qA / P[s + 1], qA / Q[s + 1]] for s in range(n - 1)]
    total = 0.0 + 0.0j
    for m in compositions(limits):
        M = list(itertools.accumulate(m))
        t = qpoch(a[-1], m[-1], ctx) / qpoch(q, m[-1], ctx)
        t *= qfrac(F, final_den, M[-1], ctx)
        t *= ipow(q, M[-1])
        for s in range(n - 1):
            f = qpoch(a[s], m[s], ctx) / qpoch(q, m[s], ctx)
            f *= qfrac(mid_num[s], [P[s], Q[s]], M[s], ctx)
            t *= f * ipow(a[s + 1], M[s])
        total += t
    return total


def milne_rhs_block(a, b, c, d, e, x, y, N, ctx: QContext) -> complex:
    """The terminating multi-sum on the product side of Milne's bilateral extension.

    Requires x_i * y_i = q^{1+N_i} * a for every coordinate; the constraint
    plants (q^{-N_i};q)_{m_i}, so limits = N_i truncate with zero error.
    """
    q = ctx.q
    return block_multisum(N, [q * e / t for t in x], [q * e / t for t in y], e * e / a,
                          (b * e / a, c * e / a, d * e / a), ctx)


def omega(a, b, c, d, u, v, N, ctx: QContext) -> complex:
    """The terminating multi-sum divisor of the multi-variable q-beta integral.

    Requires u_i / v_i = q^{N_i}; raises ConstraintViolation otherwise.
    """
    q = ctx.q
    return block_multisum(N, [q / (d * t) for t in u], [q * t / d for t in v], q / (d * d),
                          (q / (a * d), q / (b * d), q / (c * d)), ctx)
