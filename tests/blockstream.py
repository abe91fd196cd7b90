"""Scalar term streams as the block streams that the qverify kernels take, and back,
and scalar references of the block kernels of ``qverify.series``."""

import cmath
import itertools
import math

import numpy as np

from qverify.qcore import MAX_TERMS, DivergentSeries, SeriesResult
from qverify.series import _ROUND_FLOOR


def blocks(terms, size=5):
    """Blocks of ``size`` consecutive terms of a scalar stream; the last may be shorter."""
    terms = iter(terms)
    while chunk := list(itertools.islice(terms, size)):
        yield np.array(chunk, complex)


def weighted(pairs, size=5):
    """Blocks (t, w) from a stream of scalar (t_k, w_k) pairs: terms and their weights."""
    pairs = iter(pairs)
    while chunk := list(itertools.islice(pairs, size)):
        yield np.array([t for t, _ in chunk], complex), np.array([w for _, w in chunk], float)


def flat(stream):
    """The terms of a block stream, one Python complex each."""
    for block in stream:
        yield from block.tolist()


def modulus(t):
    """abs(t), or inf where the modulus of finite parts overflows."""
    try:
        return abs(t)
    except OverflowError:
        return math.inf


def termwise_difference(a, b):
    """The difference of two block streams paired term by term, the first
    stream's term drawn before the second's: blocks (t, w) of one term
    a_k - b_k weighing w_k = max(|a_k|, |b_k|), nan where either is nan
    (then a_k - b_k is not finite, and a sum raises at k whatever w_k is);
    zeros stand in for a stream that ended."""
    for ta, tb in itertools.zip_longest(flat(a), flat(b), fillvalue=0j):
        yield np.array([ta - tb]), np.maximum([modulus(ta)], [modulus(tb)])


def scalar_sum(stream, ctx):
    """``series._sum_stream`` as a scalar loop: each term's magnitude from
    Python's abs, the same stop rule, error claim, floor and messages."""
    total = 0.0 + 0.0j
    small = 0
    last = prev = w_sum = 0.0
    n = 0
    blocks = iter(stream)
    with np.errstate(all="ignore"):
        while n < MAX_TERMS:
            block = next(blocks, None)
            if block is None:
                return SeriesResult(finite_sum(total, n), _ROUND_FLOOR * w_sum, n, True)
            terms, weights = block if isinstance(block, tuple) else (block, None)
            terms = terms[:MAX_TERMS - n].tolist()
            sizes = [modulus(t) for t in terms]
            weights = sizes if weights is None else weights.tolist()
            try:
                for t, at, w in zip(terms, sizes, weights):
                    total += t
                    n += 1
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
                            return SeriesResult(finite_sum(total, n), err, n, False)
                    else:
                        small = 0
            except OverflowError:  # abs(total): finite parts, the modulus overflows
                raise DivergentSeries(f"partial sum not finite after {n} terms") from None
    raise DivergentSeries(f"no convergence within MAX_TERMS = {MAX_TERMS} (last |term| = {last:.3g})")


def finite_sum(total, n):
    """The partial sum, unless it overflowed although every term was finite."""
    if not cmath.isfinite(total):
        raise DivergentSeries(f"partial sum not finite after {n} terms")
    return total
