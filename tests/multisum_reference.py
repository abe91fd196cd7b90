"""The seven-list form of the Milne-type block sum, and the lists its four
callers once wrote out by hand: a reference for ``multisum.block_multisum``,
which derives every list from the pairs (N; P, Q; A; F)."""

import itertools

from qverify.multisum import compositions
from qverify.qcore import ipow, qfrac, qpoch


def seven_list_multisum(limits, a_bases, final_num, final_den, mid_num, mid_den, weights, ctx):
    """Term = (a_n;q)_{m_n}/(q;q)_{m_n} * [final_num;q]_{M_n}/[final_den;q]_{M_n} * q^{M_n}
    * prod_{s<n} (a_s;q)_{m_s}/(q;q)_{m_s} * [mid_num[s];q]_{M_s}/[mid_den[s];q]_{M_s}
    * weights[s]^{M_s}, summed over every composition in lexicographic order."""
    limits = [int(N) for N in limits]
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


def omega_lists(p, q):
    a, b, c, d, u, v = (p[k] for k in ("a", "b", "c", "d", "u", "v"))
    n = len(u)
    return (
        [v[i] / u[i] for i in range(n)],
        [q / (a * d), q / (b * d), q / (c * d)],
        [q / (d * u[-1]), q * v[-1] / d, q * q / (a * b * c * d)],
        [[q * u[s + 1] / d, q / (d * v[s + 1])] for s in range(n - 1)],
        [[q / (d * u[s]), q * v[s] / d] for s in range(n - 1)],
        [v[s + 1] / u[s + 1] for s in range(n - 1)],
    )


def milne_lists(p, q):
    a, b, c, d, e, x, y = (p[k] for k in ("a", "b", "c", "d", "e", "x", "y"))
    n = len(x)
    return (
        [q * a / (x[i] * y[i]) for i in range(n)],
        [b * e / a, c * e / a, d * e / a],
        [q * e / x[-1], q * e / y[-1], b * c * d * e / (a * a)],
        [[e * x[s + 1] / a, e * y[s + 1] / a] for s in range(n - 1)],
        [[q * e / x[s], q * e / y[s]] for s in range(n - 1)],
        [q * a / (x[s + 1] * y[s + 1]) for s in range(n - 1)],
    )


def thmc_lists(p, q):
    a, b, c, d, e, xs, ys = (p[k] for k in ("a", "b", "c", "d", "e", "x", "y"))
    n, ab = len(xs), a * b
    return (
        [xs[i] * ys[i] / ab for i in range(n)],
        [q / e, q * ab / (c * e), q * ab / (d * e)],
        [q * xs[-1] / e, q * ys[-1] / e, q * q * ab / (c * d * e)],
        [[q * ab / (e * xs[s + 1]), q * ab / (e * ys[s + 1])] for s in range(n - 1)],
        [[q * xs[s] / e, q * ys[s] / e] for s in range(n - 1)],
        [xs[s + 1] * ys[s + 1] / ab for s in range(n - 1)],
    )


def thmd_lists(p, q):
    x, y, b, c, d, xs, ys = (p[k] for k in ("x", "y", "b", "c", "d", "xv", "yv"))
    n, xy2 = len(xs), x * y * y
    return (
        [xs[i] * ys[i] / xy2 for i in range(n)],
        [q / b, q / c, q / d],
        [q * xs[-1] / xy2, q * ys[-1] / xy2, q * q * xy2 / (b * c * d)],
        [[q / xs[s + 1], q / ys[s + 1]] for s in range(n - 1)],
        [[q * xs[s] / xy2, q * ys[s] / xy2] for s in range(n - 1)],
        [xs[s + 1] * ys[s + 1] / xy2 for s in range(n - 1)],
    )
