"""A 40-digit reference for the Askey-Wilson integrand's node values, by mpmath.

h(cos t; lam) = (lam e^{it};q)_oo (lam e^{-it};q)_oo, each factor from
Euler's expansion (z;q)_oo = sum_n (-1)^n q^{n(n-1)/2} z^n / (q;q)_n, a
route that shares nothing with the quadratic factors and log series of
qverify.integrals.  The expansion cancels: its terms reach (-2;|q|)_oo for
|z| <= 2 while a value can be as small as (q;q)_oo times |1 - z|, so the
working precision carries those digits on top of the 40 kept.
"""

import functools
import math

import mpmath
import numpy as np

DIGITS = 40


@functools.lru_cache(maxsize=None)
def _euler(q: complex):
    """(working digits, [a_n]) with (z;q)_oo = sum_n a_n z^n to 40 digits for |z| <= 2."""
    p = abs(q)
    lost = ((2.0 * p + math.pi ** 2 / 6.0) / (1.0 - p) + 1.1) / math.log(10.0) + 5.0
    dps = DIGITS + math.ceil(lost) + 10
    with mpmath.workdps(dps):
        qm = mpmath.mpc(q) if complex(q).imag else mpmath.mpf(complex(q).real)
        coeffs, a, qn = [mpmath.mpf(1)], mpmath.mpf(1), mpmath.mpf(1)
        eps = mpmath.mpf(10) ** -dps
        while abs(a) * 2 ** len(coeffs) >= eps or len(coeffs) < 3:
            a = -a * qn / (1 - qn * qm)  # a_n = a_{n-1} (-q^{n-1}) / (1 - q^n)
            qn *= qm
            coeffs.append(a)
    return dps, coeffs


def _qpoch(z, coeffs):
    """(z;q)_oo by Horner's rule on Euler's coefficients."""
    value = 0
    for a in reversed(coeffs):
        value = value * z + a
    return value


def _h(lam, e, coeffs, real):
    """h(cos t; lam) at e = e^{it}; one conjugate factor is the other's conjugate when real."""
    first = _qpoch(lam * e, coeffs)
    return abs(first) ** 2 if real else first * _qpoch(lam / e, coeffs)


@functools.lru_cache(maxsize=None)
def _values(spec, q: complex, thetas: tuple) -> tuple:
    dps, coeffs = _euler(q)
    nums, dens = spec.u, (spec.a, spec.b, spec.c, spec.d) + spec.v
    real = complex(q).imag == 0.0 and not any(complex(x).imag for x in nums + dens)
    out = []
    with mpmath.workdps(dps):
        lams = [mpmath.mpf(x.real) if real else mpmath.mpc(x) for x in nums + dens]
        for theta in thetas:
            if theta in (0.0, math.pi):  # the row h(cos 2t; 1) vanishes at both ends
                out.append(0j)
                continue
            e = mpmath.expj(mpmath.mpf(theta))
            value = _h(mpmath.mpf(1), e * e, coeffs, complex(q).imag == 0.0)
            for i, lam in enumerate(lams):
                h = _h(lam, e, coeffs, real)
                value = value * h if i < len(nums) else value / h
            out.append(complex(value))
    return tuple(out)


def integrand(spec, q: complex, thetas) -> np.ndarray:
    """The integrand h(cos 2t; 1) / h(cos t; a, b, c, d) * prod_i h(cos t; u_i) / h(cos t; v_i)
    at each node, to 40 digits, rounded to complex128 (exact 0 at t = 0, pi)."""
    return np.array(_values(spec, complex(q), tuple(float(t) for t in thetas)))
