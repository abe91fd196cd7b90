"""Registry of reciprocity-type and q-beta-integral identities as checkable objects.

Every identity is an :class:`IdentityCase`: named free parameters with
sampling annuli, integer parameters with ranges, derived-parameter rules,
a convergence-domain predicate, and a left/right evaluator pair.
``check`` runs one case at one parameter point and produces a
:class:`VerificationReport`; ``sample`` draws points inside the domain
deterministically from a seed.

A domain holds convergence conditions only.  Poles are found by the
evaluation itself: while ``check`` evaluates a point, qcore records the base
x of every divisor factor 1 - x q^j met, and a point with a recorded base
near a power of q is skipped, never judged.

Every very-well-poised series (the 8phi7 W(a; ups; z) of Watson's and
Bailey's transformations, the psi of 6psi6, 8psi8 and Milne) comes from one
builder given (a; ups; z), and every stated terminating balanced 4phi3 (of
watson, corl-a, corl-b and corl-c) from ``_terminating_4phi3``.  Each
corollary is its theorem at one stated map of its parameters: corl-a's to
thm-c (``_corla_point``), corl-b's to thm-d, corl-c's and corl-e's to thm-e.
Its left side and, but for corl-e, its domain are the theorem's at that
point; its right side is the stated form.
Each case declares the ratios of (x;q)_oo that its right side multiplies
(``IdentityCase.products``), and the right side reads its lists from the
same functions; a sweep computes them ahead for each column (``_column``).

Numerical notes that shape the evaluators:

* Reciprocity left-hand sides are differences F(a,b) - F(b,a) whose value
  is often orders of magnitude below each half.  They are summed as a
  single termwise-differenced stream, so the truncation rule acts on the
  difference itself and the a = b diagonal cancels to an exact zero.
* The q-power weights (q^{k(k+1)/2}, q^{2k+1}, ...) advance by exact
  integer-exponent ladders; no logarithms are involved anywhere.
* Every Pochhammer product comes from the block ladder of a
  ``series._Terms`` stream, which also applies a half's constant, its
  (1 - c q^{2k+shift}) factor (``series._shifted_terms``) and the scale of
  a second half; the two halves of a difference are computed in one pass.
  The weight q^{k(k+1)/2} is the ladder's sign weight (-1)^k q^C(k,2) with
  the argument times -q.  The sums with k-dependent bases use
  (q^{-k} w;q)_k = (-w)^k q^{-k(k+1)/2} (q/w;q)_k, whose q-power cancels
  the quadratic weight.  At |q| near 1 a running product can overflow;
  the sum then raises DivergentSeries.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import hashlib
import itertools
import math
import numbers
import random
import time
from dataclasses import dataclass
from typing import Callable

from .qcore import (
    INF,
    CapExceeded,
    ConstraintViolation,
    DivergentSeries,
    DivisionByNearZero,
    IllConditioned,
    NoConvergence,
    PoleError,
    QContext,
    SamplingExhausted,
    UnknownParam,
    _divisor,
    _near_pole,
    _one_minus,
    _prefetched,
    _recording,
    ipow,
    qfrac,
)
from .series import SeriesSpec, _Terms, _difference, _shifted_terms, _sum_stream
from .series import eval_phi, eval_psi
from .multisum import block_multisum, milne_rhs_block
from .integrals import (
    TWO_PI,
    AWIntegrandSpec,
    _corl_e_ratios,
    _thm_e_products,
    _thm_e_ratios,
    corl_e_rhs,
    integrate_aw,
    thm_e_rhs,
)

__all__ = [
    "IdentityCase",
    "VerificationReport",
    "registry",
    "case_ids",
    "get_case",
    "check",
    "sample",
    "swap_params",
]

_SKIP_ERRORS = (
    PoleError,
    CapExceeded,
    DivergentSeries,
    NoConvergence,
    ConstraintViolation,
    DivisionByNearZero,
    IllConditioned,
)

# convergence-domain slack: sampled |z| stays below this fraction of the
# paper's strict bound so truncated tails stay within the error budget
_SLACK = 0.92


# ---------------------------------------------------------------------------
# parameter-map utilities


def swap_params(params: dict, x: str, y: str) -> dict:
    """The parameter map with the values of x and y interchanged."""
    if x not in params or y not in params:
        missing = x if x not in params else y
        raise UnknownParam(f"parameter {missing!r} is not bound")
    out = dict(params)
    out[x], out[y] = params[y], params[x]
    return out


# ---------------------------------------------------------------------------
# series building blocks


# share of identity_tol that any single numerical error floor may consume
# before a point is declared unverifiable in double precision (skipped,
# resampled); several floors can stack per identity, hence the small share
_COND_SHARE = 0.05


def _require_verifiable(value, abs_err, ctx: QContext):
    """Raise IllConditioned when the error floor swamps the value."""
    if value != 0.0 and abs_err > _COND_SHARE * ctx.identity_tol * abs(value):
        raise IllConditioned(
            f"error floor {abs_err:.2e} exceeds {_COND_SHARE} x identity_tol x |value|"
        )
    return value


def _guarded_series_value(result, ctx: QContext) -> complex:
    return _require_verifiable(result.value, result.abs_error_estimate, ctx)


def _with_claim(pref, phi, ctx: QContext):
    """(pref * the series value, |pref| * the error the series claims)."""
    return pref * _guarded_series_value(phi, ctx), abs(pref) * phi.abs_error_estimate


def _sum_with_guard(parts, ctx: QContext) -> complex:
    """Sum closed-form pieces (value, claimed error), skipping when they
    cancel beyond verifiability.

    The sum's floor is the errors the pieces claim plus 1e-12 times the
    magnitude scale of the pieces, for their products and roundoff.
    """
    total = sum(v for v, _ in parts)
    floor = 1e-12 * sum(abs(v) for v, _ in parts) + sum(err for _, err in parts)
    return _require_verifiable(total, floor, ctx)


def _pair_rhs(piece, x: str, y: str):
    """R(...;x,y) + R(...;y,x) with a cancellation guard; ``piece`` returns
    (value, claimed error)."""

    def evaluator(params, ctx):
        a = piece(params, ctx)
        b = piece(swap_params(params, x, y), ctx)
        return _sum_with_guard((a, b), ctx)

    return evaluator


def _inf_ratio(ratios, ctx: QContext) -> complex:
    """qfrac at infinite order of the one ratio (numer, denom) in ``ratios``."""
    ((numer, denom),) = ratios
    return qfrac(numer, denom, INF, ctx)


def _reciprocity_rhs(ratios):
    """(1/b - 1/a) times the one ratio that ``ratios`` declares: the right side
    of ramanujan-reciprocity, andrews-4var, kang-equivalent and ma-5var."""
    return lambda p, ctx: (1.0 / p["b"] - 1.0 / p["a"]) * _inf_ratio(ratios(p, ctx), ctx)


def _pair_products(ratios, x: str, y: str):
    """The products of a ``_pair_rhs`` case: its piece's ``ratios`` at the
    point, then at the point with x and y interchanged."""
    return lambda params, ctx: ratios(params, ctx) + ratios(swap_params(params, x, y), ctx)


def _diff_sum(terms_a, terms_b, ctx: QContext) -> complex:
    """Sum of t_a(k) - t_b(k) as one termwise stream.

    Truncation acts on the difference, so reciprocity-type cancellation
    does not inflate the tail; the roundoff floor tracks the *half* term
    magnitudes, and a point whose difference sits below that floor raises
    IllConditioned (an exactly-zero stream, e.g. the a = b diagonal, is
    exact and passes through).  A half that ends contributes zeros.
    """
    res = _sum_stream(_difference(terms_a, terms_b), ctx)
    return _require_verifiable(res.value, res.abs_error_estimate, ctx)


def _swap_diff(half, names):
    """Left side F(a, b, ...) - F(b, a, ...) from the term stream F = ``half``.

    ``half`` takes the parameters in the order of ``names`` plus ctx, and
    the first two names are interchanged.
    """

    def evaluator(params, ctx):
        a, b, *rest = (params[name] for name in names)
        return _diff_sum(half(a, b, *rest, ctx), half(b, a, *rest, ctx), ctx)

    return evaluator


def _rho_terms(a, b, ups, low_shift, z, ctx, inv_b_power=1):
    """Term stream of the reciprocity-family sums.

    (1/b^p) (1 - a q^{2k+1}/b) (-1/b;q)_{k+1}/(-qa;q)_k
        * prod (ups;q)_k / prod (low_shift;q)_{k+1} * z^k

    ``ups``/``low_shift`` hold the raw bases (signs included, e.g. -q*a/c
    and -c/b).
    """
    q = ctx.q
    const = ipow(1.0 / b, inv_b_power) * (1.0 + 1.0 / b)
    return _shifted_terms(const, a / b, list(ups) + [-q / b], [-q * a], low_shift, z, ctx)


def _jacobi_terms(v, asc0, desc, lows, z, ctx):
    """Term stream of the triple/quintuple-product family sums.

    term_k = (1 - v q^{2k+1}) (asc0;q)_k
             * prod_i (q^{-k} w_i;q)_k / prod_j (lows_j;q)_{k+1}
             * q^{(D k^2 + (D-2) k)/2} * z^k        with D = len(desc).

    Since (q^{-k} w;q)_k = (-w)^k q^{-k(k+1)/2} (q/w;q)_k, the weight
    cancels to q^{-k}: the sum is a ``_shifted_terms`` stream over
    (asc0, q/w_i) and (lows_j) with argument z prod(-w_i) / q.
    """
    q = ctx.q
    arg = z / q
    for w in desc:
        arg *= -w
    return _shifted_terms(1.0, v, [asc0] + [q / w for w in desc], [], lows, arg, ctx)


def _wp_series(a, ups, z, ctx, bilateral=False):
    """The very-well-poised series in a with the upper parameters ``ups``, at z.

    Its rows are (q sqrt(a), -q sqrt(a), *ups) over (sqrt(a), -sqrt(a),
    q a/u for u in ups).  Unilateral, it is the W(a; ups; z) of the 8phi7
    transformations, with (a;q)_k in front (``eval_phi``); bilateral, the
    left side of 6psi6, 8psi8 and Milne (``eval_psi``).
    """
    q = ctx.q
    sa = cmath.sqrt(a)
    upper = [q * sa, -q * sa, *ups]
    lower = [sa, -sa] + [q * a / u for u in ups]
    if bilateral:
        return eval_psi(SeriesSpec(upper, lower, z, "bilateral"), ctx)
    return eval_phi(SeriesSpec([a, *upper], lower, z), ctx)


def _terminating_4phi3(n, ups, lows, ctx):
    """The stated terminating balanced 4phi3 of watson, corl-a, corl-b and corl-c:
    upper row (q^{-n}, *ups) over ``lows`` at argument q, guarded by its claimed error."""
    phi = eval_phi(SeriesSpec([ipow(ctx.q, -n), *ups], lows, ctx.q), ctx)
    return _guarded_series_value(phi, ctx)


def _jacobi_lhs(x, y, bcd, xs, ys, ctx):
    """Left side of the triple/quintuple-product family with the pairs (xs, ys):
    thm-d-multivar's, and thm-b's with the one pair (e, f)."""
    q = ctx.q
    b, c, d = bcd
    n = len(xs)
    pair1 = [t / y for i in range(n) for t in (xs[i], ys[i])]
    pair1l = [t / (x * y) for i in range(n) for t in (xs[i], ys[i])]
    t1 = _jacobi_terms(
        1.0 / x, q / (x * y),
        [b / y, c / y, d / y] + pair1,
        [y, b / (x * y), c / (x * y), d / (x * y)] + pair1l,
        -y / ipow(x, n + 1), ctx,
    )
    t2 = _jacobi_terms(
        x, q / y,
        [b / (x * y), c / (x * y), d / (x * y)] + pair1l,
        [x * y, b / y, c / y, d / y] + pair1,
        -ipow(x, n + 2) * y, ctx,
    )
    scale = ipow(x, n + 1)
    return _diff_sum(t1, t2.scaled(scale), ctx)


def _jacobi_ratios(p, ctx):
    """The infinite products that lead the right sides of corl-b and thm-d."""
    q = ctx.q
    x, y, b, c, d = (p[k] for k in "xybcd")
    xy2 = x * y * y
    return [(
        [q, x, q / x, b, c, d, b * c / xy2, b * d / xy2, c * d / xy2],
        [y, x * y, b / y, c / y, d / y, b / (x * y), c / (x * y), d / (x * y),
         b * c * d / (q * xy2)],
    )]


# ---------------------------------------------------------------------------
# named blocks of the "where" clauses


def _rho7_terms(a, b, c, d, e, f, g, ctx):
    """Term stream of the seven-variable reciprocity sum (weight (cdefg/q a^2 b^2)^k)."""
    q = ctx.q
    ab = a * b  # (a*b) grouping keeps z bitwise a<->b symmetric
    z = c * d * e * f * g / (q * ab * ab)
    ks = (c, d, e, f, g)
    return _rho_terms(a, b, [-q * a / t for t in ks], [-t / b for t in ks], z, ctx, 1)


def _R_ratios(p, ctx):
    """The infinite products of the R block."""
    q = ctx.q
    a, b, c, d, e, f, g = (p[k] for k in "abcdefg")
    return [
        ([q, c, f, q * a / b, q * b / a], [-q * a, -q * b, -c / a, -c / b, -d / a]),
        (
            [
                -q * a / g, -q * b / g, q * d / f, q * e / f,
                c * f / (a * b), d * f / (a * b), e * f / (a * b),
                d * e * g / (a * b), c * d * e * g / (a * a * b * b),
            ],
            [
                -d / b, -e / a, -e / b, -f / a, -f / b,
                f / g, q * a * b / (f * g), q * d * e * g / (a * b * f),
                c * d * e * f * g / (q * a * a * b * b),
            ],
        ),
    ]


def _R_block(p, ctx):
    """R, the seven-variable reciprocity formula's block: (value, its 8phi7's claimed error)."""
    q = ctx.q
    a, b, c, d, e, f, g = (p[k] for k in "abcdefg")
    pref = (1.0 / g) * (1.0 / b - 1.0 / a)
    for ratio in _R_ratios(p, ctx):
        pref *= qfrac(*ratio, INF, ctx)
    ups = [d * e / (a * b), d * g / (a * b), e * g / (a * b), q / f, q * a * b / (c * f)]
    return _with_claim(pref, _wp_series(d * e * g / (a * b * f), ups, c, ctx), ctx)


def _S_ratios(p, ctx):
    """The infinite products of the S block."""
    q = ctx.q
    x, y, b, c, d, e, f = (p[k] for k in "xybcdef")
    xy2 = x * y * y
    return [
        ([q, q * x, 1.0 / x, e, q * d / e], [y, b / y, c / y, d / y, e / y]),
        (
            [q * y / f, q * x * y / f, q * xy2 / e, b * c / xy2, b * e / xy2,
             c * e / xy2, d * e / xy2, b * d * f / xy2, c * d * f / xy2],
            [x * y, b / (x * y), c / (x * y), d / (x * y), e / (x * y),
             e / f, q * d * f / e, q * xy2 / (e * f),
             b * c * d * e * f / (q * x * x * y ** 4)],
        ),
    ]


def _S_block(p, ctx):
    """S, the triple/quintuple-product formula's block: (value, its 8phi7's claimed error)."""
    q = ctx.q
    x, y, b, c, d, e, f = (p[k] for k in "xybcdef")
    xy2 = x * y * y
    pref = x * x * y / f
    for ratio in _S_ratios(p, ctx):
        pref *= qfrac(*ratio, INF, ctx)
    ups = [d, f, d * f / xy2, q * xy2 / (b * e), q * xy2 / (c * e)]
    return _with_claim(pref, _wp_series(d * f / e, ups, b * c / xy2, ctx), ctx)


def _multivar_rho_terms(a, b, c, d, e, xs, ys, N, ctx):
    """Term stream of the multi-pair reciprocity sum (weight (cde/ab q^{N+1})^k,
    prefactor b^-n); with no pairs, the five-variable sum of ma-5var."""
    q = ctx.q
    n = len(xs)
    n_total = sum(int(t) for t in N)
    z = c * d * e / (a * b * ipow(q, n_total + 1))
    ups = [-q * a / c, -q * a / d, -q * a / e]
    lows = [-c / b, -d / b, -e / b]
    for i in range(n):
        ups += [-q * a / xs[i], -q * a / ys[i]]
        lows += [-xs[i] / b, -ys[i] / b]
    return _rho_terms(a, b, ups, lows, z, ctx, n)


# the left side of thm-c-multivar, and of corl-a at one pair
_thmc_lhs = _swap_diff(_multivar_rho_terms, ("a", "b", "c", "d", "e", "x", "y", "N"))


# ---------------------------------------------------------------------------
# identity case plumbing


@dataclass(frozen=True)
class IdentityCase:
    """A named identity with sampler, domain predicate and evaluator pair.

    The sampler declares the parameters: ``param_names`` (scalars, then
    integers) and ``vector_names`` (a pair's two vectors, then its offsets).
    Its ``int_names`` are the integer ones (the counts and the offset
    vector); every other parameter is a free complex value.

    ``products`` declares the ratios of infinite products that ``rhs``
    multiplies, as (numer, denom) lists of bases of (x;q)_oo, by plain
    arithmetic on the point that ``check`` evaluates; ``rhs`` reads its
    lists from the same functions, so a sweep can compute those products
    ahead (``_column``).
    """

    id: str
    family: str                       # "series" | "reciprocity" | "integral"
    sampler: _Sampler                 # (rng, ctx, mode) -> params dict
    domain: Callable                  # (params, ctx) -> bool, convergence conditions only
    lhs: Callable                     # (params, ctx) -> complex
    rhs: Callable                     # (params, ctx) -> complex
    products: Callable = lambda params, ctx: []  # (params, ctx) -> [(numer, denom), ...]

    @property
    def param_names(self) -> tuple:
        return self.sampler.param_names

    @property
    def vector_names(self) -> tuple:
        return self.sampler.vector_names


@dataclass(frozen=True)
class VerificationReport:
    id: str
    sample_seed: int | None
    params: dict
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    verdict: str                      # "pass" | "fail" | "skipped"
    reason: str = ""
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        """JSON-ready dict; complex values become [re, im] pairs."""
        return {
            "id": self.id,
            "sample_seed": self.sample_seed,
            "params": serialize_params(self.params),
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "abs_residual": self.abs_residual,
            "rel_residual": self.rel_residual,
            "verdict": self.verdict,
            "reason": self.reason,
            "elapsed": self.elapsed,
        }


def serialize_params(params: dict) -> dict:
    """Flatten a parameter map for reports: complex -> [re, im], vectors -> name1.."""
    out = {}
    for name in sorted(params):
        val = params[name]
        if isinstance(val, (list, tuple)):
            for i, item in enumerate(val, start=1):
                out[f"{name}{i}"] = _ser_scalar(item)
        else:
            out[name] = _ser_scalar(val)
    return out


def _ser_scalar(val):
    if isinstance(val, bool):
        raise TypeError("boolean parameters are not supported")
    if isinstance(val, int):
        return val
    val = complex(val)
    if val.imag == 0.0:
        return val.real
    return [val.real, val.imag]


def parse_params(case: IdentityCase, flat: dict) -> dict:
    """The case's parameter map from a flat one, as ``serialize_params`` writes it.

    Vectors are gathered from the numbered keys name1..nameK in order; free
    values are read from bare numbers or [re, im] pairs, integer values are
    kept for ``check`` to test.  A missing or unknown key raises ValueError.
    """
    ints = case.sampler.int_names

    def read(key, name):
        return flat[key] if name in ints else _parse_scalar(key, flat[key])

    params, used = {}, set()
    for name in case.param_names:
        if name not in flat:
            raise ValueError(f"missing parameter {name!r}")
        params[name] = read(name, name)
        used.add(name)
    for name in case.vector_names:
        numbered = (f"{name}{i}" for i in itertools.count(1))
        keys = list(itertools.takewhile(flat.__contains__, numbered))
        params[name] = [read(key, name) for key in keys]
        used.update(keys)
    unknown = set(flat) - used
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    return params


def _parse_scalar(key, val):
    parts = val if isinstance(val, (list, tuple)) and len(val) == 2 else [val]
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in parts):
        raise ValueError(f"cannot interpret parameter {key!r} value {val!r}")
    return val if isinstance(val, int) else complex(*map(float, parts))


# samplers -------------------------------------------------------------------


def _draw(rng, lo, hi, mode):
    r = lo + (hi - lo) * rng.random()
    if mode == "real":
        return complex(r if rng.random() < 0.5 else -r)
    phase = 2.0 * math.pi * rng.random()
    return r * complex(math.cos(phase), math.sin(phase))


class _Pairs:
    """n pairs tied by q-power offsets, in the order of their names.

    Each entry of the offset vector ``offsets`` is drawn from range(``count``).
    Of the two ``vectors``, one maps to a box and is drawn; the other maps to
    a rule (params, q, drawn_i, offset_i) -> its i-th entry.
    """

    def __init__(self, offsets, count, **vectors):
        self.offsets, self.count, self.names = offsets, count, (*vectors, offsets)
        ((self.drawn, self.box),) = ((k, v) for k, v in vectors.items() if not callable(v))
        ((self.derived, self.rule),) = ((k, v) for k, v in vectors.items() if callable(v))


class _Sampler:
    """The declared parameters of a case and their draw.

    ``boxes`` maps each run of one-letter scalar names to their box: (lo, hi)
    or a function (params drawn before the run, q) -> (lo, hi).  ``ints``
    maps a name to its admissible integers; ``pairs`` is an optional
    :class:`_Pairs`, counted by the integer ``n``.  A call draws the
    integers, then the offsets, then the scalars in declared order, then
    the drawn vector, then the derived one.  ``int_names`` are the ``ints``
    keys and the offsets: the parameters that take non-negative ints.
    ``declared`` lists every parameter name (scalars and integers, then
    vectors) with its kind, (name, is a vector, takes ints), for
    ``_validate``; ``declared_set`` holds the names.
    """

    def __init__(self, boxes, ints=None, pairs=None):
        self.boxes, self.ints, self.pairs = boxes, ints or {}, pairs
        self.param_names = (*"".join(boxes), *self.ints)
        self.vector_names = pairs.names if pairs else ()
        self.int_names = (*self.ints, pairs.offsets) if pairs else tuple(self.ints)
        self.declared = tuple((name, name in self.vector_names, name in self.int_names)
                              for name in (*self.param_names, *self.vector_names))
        self.declared_set = frozenset(name for name, _, _ in self.declared)

    def __call__(self, rng, ctx, mode):
        q, pairs = ctx.q, self.pairs
        params = {name: choices[rng.randrange(len(choices))] for name, choices in self.ints.items()}
        if pairs:
            params[pairs.offsets] = [rng.randrange(pairs.count) for _ in range(params["n"])]
        for names, box in self.boxes.items():
            lo, hi = box(params, q) if callable(box) else box
            for name in names:
                params[name] = _draw(rng, lo, hi, mode)
        if pairs:
            drawn = params[pairs.drawn] = [_draw(rng, *pairs.box, mode) for _ in range(params["n"])]
            params[pairs.derived] = [
                pairs.rule(params, q, t, k) for t, k in zip(drawn, params[pairs.offsets])
            ]
        return params


def _conv_ok(*ratios):
    return all(abs(r) < _SLACK for r in ratios)


# ---------------------------------------------------------------------------
# the twenty cases

_CASES = []


def _register(case: IdentityCase):
    _CASES.append(case)
    return case


# -- watson -------------------------------------------------------------

def _watson_lhs(p, ctx):
    q = ctx.q
    a, b, c, d, e, n = p["a"], p["b"], p["c"], p["d"], p["e"], p["n"]
    z = ipow(q, n + 2) * a * a / (b * c * d * e)
    return _guarded_series_value(_wp_series(a, [b, c, d, e, ipow(q, -n)], z, ctx), ctx)


def _watson_rhs(p, ctx):
    q = ctx.q
    a, b, c, d, e, n = p["a"], p["b"], p["c"], p["d"], p["e"], p["n"]
    lead = qfrac([q * a, q * a / (d * e)], [q * a / d, q * a / e], n, ctx)
    return lead * _terminating_4phi3(
        n, [d, e, q * a / (b * c)], [q * a / b, q * a / c, d * e * ipow(q, -n) / a], ctx)


_register(IdentityCase(
    id="watson",
    family="series",
    sampler=_Sampler({"abcde": (0.1, 0.9)}, ints={"n": (0, 1, 2, 3, 5, 8)}),
    domain=lambda p, ctx: True,
    lhs=_watson_lhs,
    rhs=_watson_rhs,
))


# -- bailey-6psi6 -------------------------------------------------------

def _bailey_lhs(p, ctx):
    a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
    z = ctx.q * a * a / (b * c * d * e)
    return _guarded_series_value(_wp_series(a, [b, c, d, e], z, ctx, bilateral=True), ctx)


def _bailey_ratios(p, ctx):
    q = ctx.q
    a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
    return [(
        [q, q * a, q / a, q * a / (b * c), q * a / (b * d), q * a / (b * e),
         q * a / (c * d), q * a / (c * e), q * a / (d * e)],
        [q / b, q / c, q / d, q / e, q * a / b, q * a / c, q * a / d, q * a / e,
         q * a * a / (b * c * d * e)],
    )]


def _bailey_rhs(p, ctx):
    return _inf_ratio(_bailey_ratios(p, ctx), ctx)


def _bailey_domain(p, ctx):
    a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
    return _conv_ok(ctx.q * a * a / (b * c * d * e))


_register(IdentityCase(
    id="bailey-6psi6",
    family="series",
    sampler=_Sampler({"abcde": (0.1, 0.9)}),
    domain=_bailey_domain,
    lhs=_bailey_lhs,
    rhs=_bailey_rhs,
    products=_bailey_ratios,
))


# -- ramanujan-reciprocity ----------------------------------------------

def _rama_half(a, b, ctx):
    # q^{k(k+1)/2} (-a/b)^k is the ladder's sign weight (-1)^k q^C(k,2) times (qa/b)^k
    q = ctx.q
    return _Terms([], [-q * a], q * a / b, ctx, 1, const=1.0 + 1.0 / b)


def _rama_ratios(p, ctx):
    q = ctx.q
    a, b = p["a"], p["b"]
    return [([q, q * a / b, q * b / a], [-q * a, -q * b])]


_register(IdentityCase(
    id="ramanujan-reciprocity",
    family="reciprocity",
    sampler=_Sampler({"ab": (0.1, 0.9)}),
    domain=lambda p, ctx: True,
    lhs=_swap_diff(_rama_half, "ab"),
    rhs=_reciprocity_rhs(_rama_ratios),
    products=_rama_ratios,
))


# -- andrews-4var --------------------------------------------------------

def _andrews_half(a, b, c, d, ctx):
    q = ctx.q
    const = (1.0 + 1.0 / b) / _one_minus(-c / b)
    return _Terms([c, -q * a / d], [-q * a, -q * c / b], -d / b, ctx, const=const)


def _andrews_ratios(p, ctx):
    q = ctx.q
    a, b, c, d = p["a"], p["b"], p["c"], p["d"]
    return [(
        [q, q * a / b, q * b / a, c, d, c * d / (a * b)],
        [-q * a, -q * b, -c / a, -c / b, -d / a, -d / b],
    )]


_andrews_rhs = _reciprocity_rhs(_andrews_ratios)


def _andrews_domain(p, ctx):
    return _conv_ok(p["d"] / p["a"], p["d"] / p["b"])


_register(IdentityCase(
    id="andrews-4var",
    family="reciprocity",
    sampler=_Sampler({"abcd": (0.1, 0.9)}),
    domain=_andrews_domain,
    lhs=_swap_diff(_andrews_half, "abcd"),
    rhs=_andrews_rhs,
    products=_andrews_ratios,
))


# -- kang-equivalent -----------------------------------------------------

def _kang_half(a, b, c, d, ctx):
    q = ctx.q
    const = (1.0 + 1.0 / b) / (_one_minus(-c / b) * _one_minus(-d / b))
    # (1 + cd q^{2k}/b) q^{k(k+1)/2} (-a/b)^k, the weight as in _rama_half
    return _Terms([c, d, c * d / (a * b)], [-q * a, -q * c / b, -q * d / b], q * a / b, ctx, 1,
                  const=const, factor=(-c * d / b, 0))


_register(IdentityCase(
    id="kang-equivalent",
    family="reciprocity",
    sampler=_Sampler({"abcd": (0.1, 0.9)}),
    domain=_andrews_domain,
    lhs=_swap_diff(_kang_half, "abcd"),
    rhs=_andrews_rhs,
    products=_andrews_ratios,
))


# -- ma-5var --------------------------------------------------------------

def _ma_ratios(p, ctx):
    """The infinite products of ma-5var's right side, which lead those of corl-a and thm-c."""
    q = ctx.q
    a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
    return [(
        [q, q * a / b, q * b / a, c, d, e,
         c * d / (a * b), c * e / (a * b), d * e / (a * b)],
        [-q * a, -q * b, -c / a, -c / b, -d / a, -d / b, -e / a, -e / b,
         c * d * e / (q * a * b)],
    )]


_ma_rhs = _reciprocity_rhs(_ma_ratios)


def _ma_domain(p, ctx):
    a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
    return _conv_ok(c * d * e / (ctx.q * a * b))


_register(IdentityCase(
    id="ma-5var",
    family="reciprocity",
    sampler=_Sampler({"abcde": (0.1, 0.9)}),
    domain=_ma_domain,
    lhs=_swap_diff(
        lambda a, b, c, d, e, ctx: _multivar_rho_terms(a, b, c, d, e, (), (), (), ctx), "abcde"
    ),
    rhs=_ma_rhs,
    products=_ma_ratios,
))


# -- chu-zhang-equivalent --------------------------------------------------

def _cz_half(a, b, c, d, e, ctx):
    q = ctx.q
    const = (1.0 + 1.0 / b) / _one_minus(-c / b)
    return _Terms(
        [c, -q * a / d, -q * a / e],
        [-q * a, q * q * (a * b) / (d * e), -q * c / b],
        q,
        ctx,
        const=const,
    )


def _cz_correction_ratio(a, b, c, d, e, q):
    return (
        [q, c, -q * a / d, -q * a / e, -d * e / b, -c * d * e / (a * b * b)],
        [-q * a, -c / b, -d / b, -e / b, q * q * a * b / (d * e),
         c * d * e / (q * a * b)],
    )


def _cz_correction(a, b, c, d, e, ratio, ctx):
    q = ctx.q
    pref = d * e / (q * a * b) * (1.0 + 1.0 / b)
    pref *= qfrac(*ratio, INF, ctx)
    phi = eval_phi(
        SeriesSpec(
            upper=[-d / b, -e / b, c * d * e / (q * a * b)],
            lower=[-d * e / b, -c * d * e / (a * b * b)],
            argument=q,
        ),
        ctx,
    )
    return _with_claim(pref, phi, ctx)


def _cz_ratios(p, ctx):
    """The main product, then the corrections' at (b, a) and at (a, b), as ``_cz_rhs`` meets them."""
    q = ctx.q
    a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
    # main product: numerator entry de/qab; the commonly stated de/ab
    # fails numerically by exactly the factor (1 - de/qab)
    main = (
        [q, q * a / b, q * b / a, c, d, e,
         c * d / (a * b), c * e / (a * b), d * e / (q * a * b)],
        [-q * a, -q * b, -c / a, -c / b, -d / a, -d / b, -e / a, -e / b,
         c * d * e / (q * a * b)],
    )
    return [main, _cz_correction_ratio(b, a, c, d, e, q), _cz_correction_ratio(a, b, c, d, e, q)]


def _cz_rhs(p, ctx):
    a, b, c, d, e = p["a"], p["b"], p["c"], p["d"], p["e"]
    lead, at_ba, at_ab = _cz_ratios(p, ctx)
    main = (1.0 / b - 1.0 / a) * qfrac(*lead, INF, ctx)
    swapped, err = _cz_correction(b, a, c, d, e, at_ba, ctx)
    return _sum_with_guard(((main, 0.0), _cz_correction(a, b, c, d, e, at_ab, ctx), (-swapped, err)), ctx)


_register(IdentityCase(
    id="chu-zhang-equivalent",
    family="reciprocity",
    sampler=_Sampler({"abcde": (0.1, 0.9)}),
    domain=_ma_domain,
    lhs=_swap_diff(_cz_half, "abcde"),
    rhs=_cz_rhs,
    products=_cz_ratios,
))


# -- gr-2-10-1 -------------------------------------------------------------

def _gr2101_lhs(p, ctx):
    q = ctx.q
    a, b, c, d, e, f = (p[k] for k in "abcdef")
    phi = _wp_series(a, [b, c, d, e, f], q * q * a * a / (b * c * d * e * f), ctx)
    return _guarded_series_value(phi, ctx)


def _gr2101_ratios(p, ctx):
    q = ctx.q
    a, b, c, d, e, f = (p[k] for k in "abcdef")
    lam = q * a * a / (b * c * d)
    return [(
        [q * a, q * a / (e * f), q * lam / e, q * lam / f],
        [q * a / e, q * a / f, q * lam, q * lam / (e * f)],
    )]


def _gr2101_rhs(p, ctx):
    q = ctx.q
    a, b, c, d, e, f = (p[k] for k in "abcdef")
    lam = q * a * a / (b * c * d)
    pref = _inf_ratio(_gr2101_ratios(p, ctx), ctx)
    phi = _wp_series(lam, [lam * b / a, lam * c / a, lam * d / a, e, f], q * a / (e * f), ctx)
    return pref * _guarded_series_value(phi, ctx)


def _gr2101_domain(p, ctx):
    q = ctx.q
    a, b, c, d, e, f = (p[k] for k in "abcdef")
    lam = q * a * a / (b * c * d)
    return _conv_ok(q * a / (e * f), q * lam / (e * f))


_register(IdentityCase(
    id="gr-2-10-1",
    family="series",
    sampler=_Sampler({"a": (0.2, 0.6), "bcd": (0.4, 0.9), "ef": (0.5, 0.9)}),
    domain=_gr2101_domain,
    lhs=_gr2101_lhs,
    rhs=_gr2101_rhs,
    products=_gr2101_ratios,
))


# -- the 8psi8 pair: gr-5-6-1 and lemma-8psi8 --------------------------------

def _psi8_lhs(p, ctx):
    q = ctx.q
    a, b, c, d, e, f, g = (p[k] for k in "abcdefg")
    z = q * q * a ** 3 / (b * c * d * e * f * g)
    return _guarded_series_value(_wp_series(a, [b, c, d, e, f, g], z, ctx, bilateral=True), ctx)


def _gr561_ratios(p, ctx):
    q = ctx.q
    a, b, c, d, e, f, g = (p[k] for k in "abcdefg")
    return [(
        [q, q * a, q / a, q * a / (b * f), q * a / (c * f), q * a / (d * f),
         q * a / (e * f), q * f / b, q * f / c, q * f / d, q * f / e, g, g / a],
        [q / b, q / c, q / d, q / e, q / f, q * a / b, q * a / c, q * a / d,
         q * a / e, q * a / f, g / f, f * g / a, q * f * f / a],
    )]


def _gr561_piece(p, ctx):
    q = ctx.q
    a, b, c, d, e, f, g = (p[k] for k in "abcdefg")
    z = q * q * a ** 3 / (b * c * d * e * f * g)
    pref = _inf_ratio(_gr561_ratios(p, ctx), ctx)
    ups = [b * f / a, c * f / a, d * f / a, e * f / a, g * f / a]
    return _with_claim(pref, _wp_series(f * f / a, ups, z, ctx), ctx)


def _gr561_domain(p, ctx):
    a, b, c, d, e, f, g = (p[k] for k in "abcdefg")
    return _conv_ok(ctx.q ** 2 * a ** 3 / (b * c * d * e * f * g))


_register(IdentityCase(
    id="gr-5-6-1",
    family="series",
    sampler=_Sampler({"a": (0.3, 0.75), "bcdefg": (0.5, 0.9)}),
    domain=_gr561_domain,
    lhs=_psi8_lhs,
    rhs=_pair_rhs(_gr561_piece, "f", "g"),
    products=_pair_products(_gr561_ratios, "f", "g"),
))


def _lemma_ratios(p, ctx):
    q = ctx.q
    a, b, c, d, e, f, g = (p[k] for k in "abcdefg")
    z = q * q * a ** 3 / (b * c * d * e * f * g)
    return [(
        [q, q * a, q / a, q * a / (b * c), q * a / (b * f), q * a / (c * f),
         q * a / (d * f), q * a / (e * f), q * f / d, q * f / e, g, g / a,
         q * q * a * a / (b * d * e * g), q * q * a * a / (c * d * e * g)],
        [q / b, q / c, q / d, q / e, q / f, q * a / b, q * a / c, q * a / d,
         q * a / e, q * a / f, g / f, f * g / a,
         q * q * a * f / (d * e * g), z],
    )]


def _lemma_piece(p, ctx):
    q = ctx.q
    a, b, c, d, e, f, g = (p[k] for k in "abcdefg")
    pref = _inf_ratio(_lemma_ratios(p, ctx), ctx)
    ups = [q * a / (d * e), q * a / (d * g), q * a / (e * g), b * f / a, c * f / a]
    return _with_claim(pref, _wp_series(q * a * f / (d * e * g), ups, q * a / (b * c), ctx), ctx)


def _lemma_domain(p, ctx):
    q = ctx.q
    a, b, c, d, e, f, g = (p[k] for k in "abcdefg")
    return _conv_ok(q * q * a ** 3 / (b * c * d * e * f * g), q * a / (b * c))


_register(IdentityCase(
    id="lemma-8psi8",
    family="series",
    sampler=_Sampler({"a": (0.3, 0.7), "bc": (0.55, 0.9), "defg": (0.5, 0.9)}),
    domain=_lemma_domain,
    lhs=_psi8_lhs,
    rhs=_pair_rhs(_lemma_piece, "f", "g"),
    products=_pair_products(_lemma_ratios, "f", "g"),
))


# -- thm-a-7var --------------------------------------------------------------

def _thma_domain(p, ctx):
    a, b, c, d, e, f, g = (p[k] for k in "abcdefg")
    return _conv_ok(c * d * e * f * g / (ctx.q * a * a * b * b), c)


_register(IdentityCase(
    id="thm-a-7var",
    family="reciprocity",
    sampler=_Sampler({"ab": (0.35, 0.9), "cdefg": (0.1, 0.9)}),
    domain=_thma_domain,
    lhs=_swap_diff(_rho7_terms, "abcdefg"),
    rhs=_pair_rhs(_R_block, "f", "g"),
    products=_pair_products(_R_ratios, "f", "g"),
))


# -- corl-a ------------------------------------------------------------------

def _corla_point(p, ctx):
    """thm-c-multivar's point at the one pair x = (f), y = (ab/(f q^n)), N = (n)."""
    a, b, f, n = p["a"], p["b"], p["f"], p["n"]
    return dict({k: p[k] for k in "abcde"}, n=1, x=[f], y=[a * b / (f * ipow(ctx.q, n))], N=[n])


def _corla_rhs(p, ctx):
    a, b, c, d, e, f, n = (p[k] for k in ("a", "b", "c", "d", "e", "f", "n"))
    q = ctx.q
    lead = _ma_rhs(p, ctx) * (f * ipow(q, n) / (a * b))
    lead *= qfrac([q * f / e, e * f / (a * b)], [], n, ctx)
    lead *= qfrac([], [-f / a, -f / b], n + 1, ctx)
    return lead * _terminating_4phi3(
        n, [q / e, q * a * b / (c * e), q * a * b / (d * e)],
        [ipow(q, 1 - n) * a * b / (e * f), q * f / e, q * q * a * b / (c * d * e)], ctx)


_register(IdentityCase(
    id="corl-a",
    family="reciprocity",
    sampler=_Sampler({"ab": (0.45, 0.9), "cde": (0.1, 0.4), "f": (0.3, 0.8)},
                     ints={"n": (0, 1, 2, 3, 4)}),
    # the lambdas look thm-c's domain up when called: it is defined below
    domain=lambda p, ctx: _thmc_domain(_corla_point(p, ctx), ctx),
    lhs=lambda p, ctx: _thmc_lhs(_corla_point(p, ctx), ctx),
    rhs=_corla_rhs,
    products=_ma_ratios,
))


# -- thm-b -------------------------------------------------------------------

def _thmb_lhs(p, ctx):
    return _jacobi_lhs(p["x"], p["y"], (p["b"], p["c"], p["d"]), (p["e"],), (p["f"],), ctx)


def _thmb_domain(p, ctx):
    x, y, b, c, d, e, f = (p[k] for k in "xybcdef")
    return _conv_ok(b * c * d * e * f / (ctx.q * x * x * y ** 4), b * c / (x * y * y))


_register(IdentityCase(
    id="thm-b",
    family="series",
    sampler=_Sampler({"x": (0.5, 0.9), "y": (0.55, 0.9), "bc": (0.1, 0.35), "d": (0.1, 0.4),
                      "ef": (0.15, 0.5)}),
    domain=_thmb_domain,
    lhs=_thmb_lhs,
    rhs=_pair_rhs(_S_block, "e", "f"),
    products=_pair_products(_S_ratios, "e", "f"),
))


# -- corl-b ------------------------------------------------------------------

def _corlb_point(p, ctx):
    """thm-d-multivar's point at the one pair xv = (e), yv = (x y^2/(e q^n)), N = (n)."""
    x, y, e, n = p["x"], p["y"], p["e"], p["n"]
    return dict({k: p[k] for k in "xybcd"}, n=1, xv=[e], yv=[x * y ** 2 / (e * ipow(ctx.q, n))], N=[n])


def _corlb_rhs(p, ctx):
    q = ctx.q
    x, y, b, c, d, e, n = (p[k] for k in ("x", "y", "b", "c", "d", "e", "n"))
    xy2 = x * y * y
    lead = _inf_ratio(_jacobi_ratios(p, ctx), ctx) * (e * ipow(q, n) / (-y))
    lead *= qfrac([e, q * e / xy2], [], n, ctx)
    lead *= qfrac([], [e / y, e / (x * y)], n + 1, ctx)
    return lead * _terminating_4phi3(
        n, [q / b, q / c, q / d], [ipow(q, 1 - n) / e, q * e / xy2, q * q * xy2 / (b * c * d)], ctx)


_register(IdentityCase(
    id="corl-b",
    family="series",
    sampler=_Sampler({"x": (0.5, 0.9), "y": (0.55, 0.9), "bcd": (0.1, 0.35), "e": (0.25, 0.7)},
                     ints={"n": (0, 1, 2, 3, 4)}),
    # the lambdas look thm-d's evaluators up when called: they are defined below
    domain=lambda p, ctx: _thmd_domain(_corlb_point(p, ctx), ctx),
    lhs=lambda p, ctx: _thmd_lhs(_corlb_point(p, ctx), ctx),
    rhs=_corlb_rhs,
    products=_jacobi_ratios,
))


# -- lemma-milne ----------------------------------------------------------------

def _milne_lhs(p, ctx):
    a, b, c, d, e = (p[k] for k in "abcde")
    xs, ys, N = p["x"], p["y"], p["N"]
    ups = [b, c, d, e] + [t for i in range(len(xs)) for t in (xs[i], ys[i])]
    z = ipow(ctx.q, 1 - sum(N)) * a * a / (b * c * d * e)
    return _guarded_series_value(_wp_series(a, ups, z, ctx, bilateral=True), ctx)


def _milne_ratios(p, ctx):
    """Bailey's 6psi6 products, then one ratio per pair (x_i, y_i)."""
    q = ctx.q
    a, e = p["a"], p["e"]
    return _bailey_ratios(p, ctx) + [
        ([x, x / a, q * e / y, q * a / (e * y)], [x / e, e * x / a, q / y, q * a / y])
        for x, y in zip(p["x"], p["y"])
    ]


def _milne_rhs(p, ctx):
    a, b, c, d, e = (p[k] for k in "abcde")
    lead, *pairs = _milne_ratios(p, ctx)
    value = qfrac(*lead, INF, ctx)
    for ratio in pairs:
        value *= qfrac(*ratio, INF, ctx)
    return value * milne_rhs_block(a, b, c, d, e, p["x"], p["y"], p["N"], ctx)


def _milne_domain(p, ctx):
    a, b, c, d, e = (p[k] for k in "abcde")
    return _conv_ok(ipow(ctx.q, 1 - sum(p["N"])) * a * a / (b * c * d * e))


_register(IdentityCase(
    id="lemma-milne",
    family="series",
    sampler=_Sampler(
        {"a": (0.1, 0.45), "bcde": (0.4, 0.9)},
        ints={"n": (0, 1, 2, 3)},
        pairs=_Pairs("N", 4, x=(0.25, 0.8), y=lambda p, q, x, N: ipow(q, 1 + N) * p["a"] / x),
    ),
    domain=_milne_domain,
    lhs=_milne_lhs,
    rhs=_milne_rhs,
    products=_milne_ratios,
))


# -- thm-c-multivar ---------------------------------------------------------

def _thmc_ratios(p, ctx):
    """ma-5var's products, then one ratio per pair (x_i, y_i)."""
    q = ctx.q
    a, b, e = p["a"], p["b"], p["e"]
    return _ma_ratios(p, ctx) + [
        ([-q * a / x, -q * b / x, q * y / e, e * y / (a * b)], [e / x, q * a * b / (e * x), -y / a, -y / b])
        for x, y in zip(p["x"], p["y"])
    ]


def _thmc_rhs(p, ctx):
    q = ctx.q
    a, b, c, d, e = (p[k] for k in "abcde")
    xs, ys, N = p["x"], p["y"], p["N"]
    lead, *pairs = _thmc_ratios(p, ctx)
    value = (1.0 / b - 1.0 / a) * qfrac(*lead, INF, ctx)
    for x, ratio in zip(xs, pairs):
        value /= x
        value *= qfrac(*ratio, INF, ctx)
    qab = q * (a * b)
    return value * block_multisum(N, [q * t / e for t in xs], [q * t / e for t in ys],
                                  qab / (e * e), (q / e, qab / (c * e), qab / (d * e)), ctx)


def _thmc_domain(p, ctx):
    a, b, c, d, e = (p[k] for k in "abcde")
    return _conv_ok(c * d * e / (a * b * ipow(ctx.q, sum(int(t) for t in p["N"]) + 1)))


_register(IdentityCase(
    id="thm-c-multivar",
    family="reciprocity",
    sampler=_Sampler(
        {"ab": (0.45, 0.9), "cde": (0.1, 0.4)},
        ints={"n": (0, 1, 2, 3)},
        pairs=_Pairs("N", 4, x=(0.3, 0.8), y=lambda p, q, x, N: p["a"] * p["b"] / (x * ipow(q, N))),
    ),
    domain=_thmc_domain,
    lhs=_thmc_lhs,
    rhs=_thmc_rhs,
    products=_thmc_ratios,
))


# -- thm-d-multivar -----------------------------------------------------------

def _thmd_lhs(p, ctx):
    return _jacobi_lhs(p["x"], p["y"], (p["b"], p["c"], p["d"]), p["xv"], p["yv"], ctx)


def _thmd_ratios(p, ctx):
    """The products of ``_jacobi_ratios``, then one ratio per pair (xv_i, yv_i)."""
    q = ctx.q
    x, y = p["x"], p["y"]
    xy2 = x * y * y
    return _jacobi_ratios(p, ctx) + [
        ([q * y / s, q * x * y / s, t, q * t / xy2], [q / s, xy2 / s, t / y, t / (x * y)])
        for s, t in zip(p["xv"], p["yv"])
    ]


def _thmd_rhs(p, ctx):
    q = ctx.q
    x, y, b, c, d = (p[k] for k in ("x", "y", "b", "c", "d"))
    xs, ys, N = p["xv"], p["yv"], p["N"]
    xy2 = x * y * y
    lead, *pairs = _thmd_ratios(p, ctx)
    value = ipow(-x * y, len(xs)) * qfrac(*lead, INF, ctx)
    for s, ratio in zip(xs, pairs):
        value /= s
        value *= qfrac(*ratio, INF, ctx)
    return value * block_multisum(N, [q * t / xy2 for t in xs], [q * t / xy2 for t in ys], q / xy2,
                                  (q / b, q / c, q / d), ctx)


def _thmd_domain(p, ctx):
    x, y, b, c, d = (p[k] for k in "xybcd")
    return _conv_ok(b * c * d / (x * y * y * ipow(ctx.q, sum(int(t) for t in p["N"]) + 1)))


_register(IdentityCase(
    id="thm-d-multivar",
    family="series",
    sampler=_Sampler(
        {"x": (0.5, 0.9), "y": (0.55, 0.9), "bcd": (0.1, 0.35)},
        ints={"n": (0, 1, 2, 3)},
        pairs=_Pairs("N", 3, xv=(0.3, 0.75),
                     yv=lambda p, q, xv, N: p["x"] * p["y"] ** 2 / (xv * ipow(q, N))),
    ),
    domain=_thmd_domain,
    lhs=_thmd_lhs,
    rhs=_thmd_rhs,
    products=_thmd_ratios,
))


# -- integral cases ------------------------------------------------------------

def _abcd_box(budget):
    """Box of a, b, c, d in the integral cases: its upper modulus is the fourth
    root of the budget for |abcd|, clipped to [0.12, 0.7]."""
    return 0.1, min(0.7, max(0.12, budget ** (1.0 / 4)))


def _thme_lhs(p, ctx):
    spec = AWIntegrandSpec(p["a"], p["b"], p["c"], p["d"], u=p["u"], v=p["v"])
    return integrate_aw(spec, ctx).value


def _thme_rhs(p, ctx):
    return thm_e_rhs(p["a"], p["b"], p["c"], p["d"], p["u"], p["v"], p["N"], ctx)


def _thme_ratios(p, ctx):
    return _thm_e_ratios(p["a"], p["b"], p["c"], p["d"], p["u"], p["v"], ctx)


def _thme_domain(p, ctx):
    a, b, c, d = (p[k] for k in "abcd")
    if any(abs(t) >= 0.999 for t in (a, b, c, d, *p["v"])):
        return False
    return _conv_ok(a * b * c * d * ipow(ctx.q, -(sum(int(t) for t in p["N"]) + 1)))


_register(IdentityCase(
    id="thm-e-integral",
    family="integral",
    sampler=_Sampler(
        {"abcd": lambda p, q: _abcd_box(0.8 * abs(ipow(q, sum(p["N"]) + 1)))},
        ints={"n": (1, 2)},
        pairs=_Pairs("N", 3, u=lambda p, q, v, N: v * ipow(q, N), v=(0.15, 0.7)),
    ),
    domain=_thme_domain,
    lhs=_thme_lhs,
    rhs=_thme_rhs,
    products=_thme_ratios,
))


def _corlc_point(p, ctx):
    """thm-e-integral's point at the one pair u = (u q^n), v = (u), N = (n)."""
    u, n = p["u"], p["n"]
    return dict({k: p[k] for k in "abcd"}, n=1, u=[u * ipow(ctx.q, n)], v=[u], N=[n])


def _corlc_rhs(p, ctx):
    q = ctx.q
    a, b, c, d, u, n = (p[k] for k in ("a", "b", "c", "d", "u", "n"))
    value = TWO_PI / _one_minus(a * b * c * d * ipow(q, -(n + 1)))
    value *= _thm_e_products(a, b, c, d, (), (), ctx)
    value *= qfrac([], [d * u, q * u / d], n, ctx)
    phi = _terminating_4phi3(
        n, [q / (a * d), q / (b * d), q / (c * d)],
        [ipow(q, 1 - n) / (d * u), q * u / d, q * q / (a * b * c * d)], ctx)
    return value / _divisor(phi, "terminating series divisor")


def _corlc_ratios(p, ctx):
    return _thm_e_ratios(p["a"], p["b"], p["c"], p["d"], (), (), ctx)


_register(IdentityCase(
    id="corl-c-integral",
    family="integral",
    sampler=_Sampler(
        {"abcd": lambda p, q: _abcd_box(0.8 * abs(ipow(q, p["n"] + 1))), "u": (0.15, 0.7)},
        ints={"n": (0, 1, 2)},
    ),
    domain=lambda p, ctx: _thme_domain(_corlc_point(p, ctx), ctx),
    lhs=lambda p, ctx: _thme_lhs(_corlc_point(p, ctx), ctx),
    rhs=_corlc_rhs,
    products=_corlc_ratios,
))


def _corle_point(p, ctx):
    """thm-e-integral's point at (a, q/a, b, c), N = m."""
    return dict(a=p["a"], b=ctx.q / p["a"], c=p["b"], d=p["c"], n=p["n"], u=p["u"], v=p["v"], N=p["m"])


def _corle_rhs(p, ctx):
    return corl_e_rhs(p["a"], p["b"], p["c"], p["u"], p["v"], p["m"], ctx)


def _corle_ratios(p, ctx):
    return _corl_e_ratios(p["a"], p["b"], p["c"], p["u"], p["v"], ctx)


def _corle_domain(p, ctx):
    # stated, not thm-e's at the map: there |a (q/a) bc q^{-(m+1)}| rounds
    # differently from |bc q^{-m}|, so a draw near the bound could move
    a, b, c = p["a"], p["b"], p["c"]
    if abs(ctx.q / a) >= 0.999 or any(abs(t) >= 0.999 for t in (a, b, c, *p["v"])):
        return False
    return _conv_ok(b * c * ipow(ctx.q, -sum(int(t) for t in p["m"])))


_register(IdentityCase(
    id="corl-e-integral",
    family="integral",
    sampler=_Sampler(
        {"a": lambda p, q: (max(0.15, abs(q) * 1.05), 0.95), "bc": (0.1, 0.55)},
        ints={"n": (0, 1, 2)},
        pairs=_Pairs("m", 2, u=lambda p, q, v, m: v * ipow(q, m), v=(0.15, 0.7)),
    ),
    domain=_corle_domain,
    lhs=lambda p, ctx: _thme_lhs(_corle_point(p, ctx), ctx),
    rhs=_corle_rhs,
    products=_corle_ratios,
))


# ---------------------------------------------------------------------------
# public registry API

_BY_ID = {case.id: case for case in _CASES}


def registry() -> list[IdentityCase]:
    """All identity cases, in registration order (ids are stable)."""
    return list(_CASES)


def case_ids() -> list[str]:
    return [case.id for case in _CASES]


def get_case(case_id: str) -> IdentityCase:
    try:
        return _BY_ID[case_id]
    except KeyError:
        raise UnknownParam(f"unknown identity id {case_id!r}") from None


def _seed_rng(case_id: str, seed: int, mode: str, q: complex) -> random.Random:
    key = f"{case_id}|{seed}|{mode}|{q.real!r}|{q.imag!r}"
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# the draws that ``_column`` made ahead, by (id, seed, mode, repr(q)): each a
# parameter map, or the SamplingExhausted that its draw raised; served once
_DRAWN = {}


def sample(case_id: str, seed: int, ctx: QContext, mode: str | None = None) -> dict:
    """Deterministic parameter draw inside the case's domain (rejection-resampled).

    The domain holds only the convergence conditions, so a draw may still
    sit near a pole; ``check`` skips such a point.  Integral-family cases
    always sample real parameters; other families follow ``mode``
    ("complex" default for series, may be forced "real").  Inside a
    ``_column`` block, a draw that it made ahead is served, not drawn again.
    """
    case = get_case(case_id)
    mode = _sampling_mode(case, mode)
    drawn = _DRAWN.pop((case_id, seed, mode, repr(ctx.q)), None)
    if drawn is None:
        return _draw_point(case, seed, ctx, mode)
    if isinstance(drawn, SamplingExhausted):
        raise drawn
    return drawn


def _sampling_mode(case: IdentityCase, mode: str | None) -> str:
    if mode not in (None, "real", "complex"):
        raise ValueError(f"mode must be 'real', 'complex' or None, got {mode!r}")
    return "real" if case.family == "integral" else "complex" if mode is None else mode


def _draw_point(case: IdentityCase, seed: int, ctx: QContext, mode: str) -> dict:
    rng = _seed_rng(case.id, seed, mode, ctx.q)
    for _ in range(1000):
        params = case.sampler(rng, ctx, mode)
        if case.domain(params, ctx):
            return params
    raise SamplingExhausted(f"no admissible point for {case.id!r} after 1000 draws")


@contextlib.contextmanager
def _column(case_id: str, seeds, ctx: QContext, mode: str | None = None):
    """Compute ahead, for the cells of one (id, q) column, the draw of each
    seed and the closed-form products at those draws.

    Inside the block ``sample`` serves each of these draws once, and qfrac
    reads the (x;q)_oo of the ratios that ``products`` declares at each
    point that ``check`` evaluates from one kernel call
    (``qcore._prefetched``).  Both are exact: a draw depends on its rng key
    alone, and each (x;q)_oo value on its base alone.  A draw lies in the
    domain and holds Python complex free values, so it is the point that
    ``check`` evaluates, unless a free value is zero; a declaration that
    then divides by zero (or overflows) is left out.
    """
    case = get_case(case_id)
    mode = _sampling_mode(case, mode)
    bases = []
    for seed in seeds:
        try:
            drawn = _draw_point(case, seed, ctx, mode)
        except SamplingExhausted as exc:
            drawn = exc
        else:
            with contextlib.suppress(ArithmeticError):
                bases += [x for numer, denom in case.products(drawn, ctx) for x in (*denom, *numer)]
        _DRAWN[(case_id, seed, mode, repr(ctx.q))] = drawn
    try:
        with _prefetched(bases, ctx):
            yield
    finally:
        _DRAWN.clear()


# the number types that a draw holds; any other value goes through the numbers.Number test
_PLAIN_NUMBERS = frozenset((int, float, complex))


def _count(name, val):
    if isinstance(val, bool) or not isinstance(val, int) or val < 0:
        raise ValueError(f"parameter {name!r} must be a non-negative integer, got {val!r}")


def _number(name, val):
    if isinstance(val, bool) or not isinstance(val, numbers.Number):
        raise ValueError(f"parameter {name!r} must be a number, got {val!r}")


def _validate(case: IdentityCase, params: dict) -> tuple[dict, list]:
    """Raise unless ``params`` binds exactly the case's declared parameters in
    their shapes.  Return the map to evaluate, ``params`` with each free value
    (scalar or vector entry) a Python complex, so that no numpy scalar type
    such as float32 sets the precision of the sides; and the free values."""
    sampler = case.sampler
    missing = [name for name, _, _ in sampler.declared if name not in params]
    if missing:
        raise UnknownParam(f"{case.id!r} is missing parameters {missing}")
    if len(params) > len(sampler.declared_set):  # every declared name is bound
        undeclared = [name for name in params if name not in sampler.declared_set]
        raise ValueError(f"{case.id!r} does not declare parameters {undeclared}")
    point, free = dict(params), []
    # a plain int or number passes at once; any other value gets the full test
    for name, vector, ints in sampler.declared:  # the integers come before the vectors sized by n
        val = params[name]
        if not vector:
            if ints:
                if type(val) is not int or val < 0:
                    _count(name, val)
                continue
            if type(val) not in _PLAIN_NUMBERS:
                _number(name, val)
            free.append(z := complex(val))
            point[name] = z
            continue
        if not (isinstance(val, (list, tuple)) and len(val) == params["n"]):
            raise ValueError(f"vector {name!r} must be a list of n = {params['n']} entries")
        for i, v in enumerate(val, start=1):
            if ints and (type(v) is not int or v < 0):
                _count(f"{name}{i}", v)
            elif not ints and type(v) not in _PLAIN_NUMBERS:
                _number(f"{name}{i}", v)
        if not ints:
            point[name] = values = [complex(v) for v in val]
            free += values
    return point, free


def _evaluated_point(case: IdentityCase, params: dict, ctx: QContext) -> dict | None:
    """``_validate``'s map of params, or None when ``check`` skips it unevaluated:
    a free value is zero, or the point is outside the domain."""
    point, free = _validate(case, params)
    return point if all(v != 0 for v in free) and case.domain(point, ctx) else None


def check(case_id: str, params: dict, ctx: QContext, seed: int | None = None) -> VerificationReport:
    """Evaluate both sides of one identity at one point and classify the result.

    Domain and pole conditions never raise: they yield a skipped verdict,
    and a zero-valued free parameter is outside every domain.  So does a
    point where a divisor base recorded during the evaluation lies near a
    power of q, and a side that is not finite.  Any other evaluator failure
    is reported as fail with a diagnostic.  A map that does not fit the
    case's declared parameters gets no report: UnknownParam names a missing
    parameter, ValueError an undeclared key, a free value that is not a
    number, an integer or offset entry that is not a non-negative int (a
    bool is neither) or a vector whose length is not n.
    """
    case = get_case(case_id)
    start = time.perf_counter()
    point = _evaluated_point(case, params, ctx)

    def report(lhs, rhs, abs_r, rel_r, verdict, reason=""):
        return VerificationReport(
            id=case_id,
            sample_seed=seed,
            params=params,
            lhs=lhs,
            rhs=rhs,
            abs_residual=abs_r,
            rel_residual=rel_r,
            verdict=verdict,
            reason=reason,
            elapsed=time.perf_counter() - start,
        )

    if point is None:
        return report(0j, 0j, 0.0, 0.0, "skipped", "outside convergence domain")
    # tighten the working series tolerance so per-side truncation stays well
    # inside the identity error budget even when the geometric tail factor
    # 1/(1-|q|) is large (each side stacks ~10 series/product evaluations)
    eval_ctx = dataclasses.replace(
        ctx, series_tol=max(1e-15, 0.1 * ctx.series_tol * (1.0 - abs(ctx.q)))
    )
    error = None
    with _recording() as bases:
        try:  # the closed-form side first: a point it skips costs no quadrature
            rhs = complex(case.rhs(point, eval_ctx))
            lhs = complex(case.lhs(point, eval_ctx))
        except _SKIP_ERRORS as exc:
            return report(0j, 0j, 0.0, 0.0, "skipped", f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # judged below, once the pole test has run
            error = exc
    near = _near_pole(dict.fromkeys(bases), ctx.q)
    if near is not None:
        return report(0j, 0j, 0.0, 0.0, "skipped", near)
    if error is not None:  # a genuine evaluator bug, not a domain condition
        return report(0j, 0j, math.inf, math.inf, "fail",
                      f"evaluator error: {type(error).__name__}: {error}")
    for side, value in (("rhs", rhs), ("lhs", lhs)):
        if not cmath.isfinite(value):
            return report(0j, 0j, 0.0, 0.0, "skipped", f"{side} is not finite: {value!r}")
    abs_res = abs(lhs - rhs)
    rel_res = abs_res / max(1e-300, abs(lhs) + abs(rhs))
    if rel_res < ctx.identity_tol:
        verdict = "pass"
    elif abs(lhs) < 1e-12 and abs(rhs) < 1e-12 and abs_res < 1e-12:
        verdict = "pass"  # degenerate 0 = 0 branch (reciprocity diagonal)
    else:
        verdict = "fail"
    return report(lhs, rhs, abs_res, rel_res, verdict)
