"""Tests for the terminating multi-index sums."""

import cmath
import math
import random

import pytest
from multisum_reference import milne_lists, omega_lists, seven_list_multisum, thmc_lists, thmd_lists

from qverify import identities, multisum
from qverify.identities import get_case, sample
from qverify.qcore import ConstraintViolation, QContext, ipow, qfrac, qpoch
from qverify.multisum import (
    block_multisum,
    compositions,
    milne_rhs_block,
    omega,
)
from qverify.series import SeriesSpec, eval_phi


def rand_complex(rng, lo=0.1, hi=0.9):
    r = rng.uniform(lo, hi)
    ph = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * ph)


class TestCompositions:
    def test_empty(self):
        assert list(compositions([])) == [()]

    def test_single(self):
        assert list(compositions([1])) == [(0,), (1,)]

    def test_counting_and_order(self):
        got = list(compositions([1, 2]))
        assert len(got) == 6
        assert got == sorted(got)  # lexicographic

    def test_total_count(self):
        limits = [2, 1, 3]
        assert len(list(compositions(limits))) == math.prod(n + 1 for n in limits)


class TestMilneMultisum:
    """``block_multisum``, the one evaluator of the Milne-type block sums."""

    def test_empty_is_one(self):
        ctx = QContext(0.5)
        assert block_multisum((), [], [], 0.3, (0.2, 0.4, 0.6), ctx) == 1.0

    def test_single_zero_limit(self):
        ctx = QContext(0.5)
        assert block_multisum((0,), [0.3], [0.5], 0.3, (0.2, 0.4, 0.6), ctx) == 1.0

    def test_validation(self):
        # limits come from parameter files, so a negative one is an input error
        with pytest.raises(ValueError):
            block_multisum((-1,), [0.3], [0.5], 0.3, (0.2, 0.4, 0.6), QContext(0.5))

    # each caller's sum, and its lists as the caller once wrote them by hand
    CALLERS = {
        "omega": (omega_lists, lambda p, ctx: omega(*(p[k] for k in "abcduvN"), ctx)),
        "lemma-milne": (milne_lists, get_case("lemma-milne").rhs),
        "thm-c-multivar": (thmc_lists, get_case("thm-c-multivar").rhs),
        "thm-d-multivar": (thmd_lists, get_case("thm-d-multivar").rhs),
    }

    @staticmethod
    def point(caller, n, ctx):
        if caller != "omega":
            return next(p for p in (sample(caller, s, ctx) for s in range(200)) if p["n"] == n)
        rng = random.Random(n)
        p = dict(zip("abcd", (rand_complex(rng, 0.1, 0.6) for _ in range(4))))
        p["v"] = [rand_complex(rng, 0.15, 0.7) for _ in range(n)]
        p["N"] = [rng.randrange(3) for _ in range(n)]
        p["u"] = [t * ipow(ctx.q, k) for t, k in zip(p["v"], p["N"])]
        return p

    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("caller", CALLERS)
    def test_pairs_give_the_hand_written_lists(self, caller, n, monkeypatch):
        # (P, Q, A, F) of each caller derive the seven lists it once passed
        ctx = QContext(0.5 + 0.3j)
        lists, call = self.CALLERS[caller]
        p = self.point(caller, n, ctx)
        seen = []

        def record(*args):
            seen.append(block_multisum(*args))
            return seen[-1]

        monkeypatch.setattr(multisum, "block_multisum", record)
        monkeypatch.setattr(identities, "block_multisum", record)
        call(p, ctx)
        want = seven_list_multisum(p["N"], *lists(p, ctx.q), ctx)
        assert len(seen) == 1 and abs(seen[0] - want) <= 1e-12 * abs(want)


class TestMilneBlock:
    def test_n0_reduces_to_one(self):
        ctx = QContext(0.5)
        assert milne_rhs_block(0.4, 0.8, 0.7, 0.6, 0.5, [], [], [], ctx) == 1.0

    def test_n1_limit0_single_term(self):
        q = 0.5
        ctx = QContext(q)
        a, b, c, d, e = 0.45, 0.8, 0.7, 0.75, 0.65
        x = [0.6]
        y = [ipow(q + 0j, 1) * a / x[0]]
        assert milne_rhs_block(a, b, c, d, e, x, y, [0], ctx) == 1.0

    def test_n1_against_hand_rolled_loop(self):
        q = 0.5
        ctx = QContext(q)
        rng = random.Random(5)
        a = rand_complex(rng, 0.2, 0.5)
        b, c, d, e = (rand_complex(rng, 0.4, 0.9) for _ in range(4))
        N = 2
        x = [rand_complex(rng, 0.3, 0.7)]
        y = [ipow(ctx.q, 1 + N) * a / x[0]]
        got = milne_rhs_block(a, b, c, d, e, x, y, [N], ctx)
        # independent three-term loop straight from the displayed blocks
        want = 0.0 + 0.0j
        for m in range(N + 1):
            t = qpoch(ctx.q * a / (x[0] * y[0]), m, ctx) / qpoch(ctx.q, m, ctx)
            t *= qpoch(b * e / a, m, ctx) * qpoch(c * e / a, m, ctx) * qpoch(d * e / a, m, ctx)
            t /= (qpoch(ctx.q * e / x[0], m, ctx) * qpoch(ctx.q * e / y[0], m, ctx)
                  * qpoch(b * c * d * e / (a * a), m, ctx))
            want += t * ipow(ctx.q, m)
        assert abs(got - want) < 1e-13 * max(1.0, abs(want))

    def test_constraint_violation(self):
        ctx = QContext(0.5)
        with pytest.raises(ConstraintViolation):
            milne_rhs_block(0.4, 0.8, 0.7, 0.6, 0.5, [0.3], [0.9], [1], ctx)


class TestOmega:
    def test_n0_is_one(self):
        ctx = QContext(0.5)
        assert omega(0.3, 0.2, 0.1, 0.4, [], [], [], ctx) == 1.0

    def test_n1_equals_terminating_4phi3(self):
        q = 0.5
        ctx = QContext(q)
        a, b, c, d = 0.3, 0.2, 0.1, 0.4
        for n in (0, 1, 2, 3):
            v = 0.45
            u = v * ipow(ctx.q, n)
            got = omega(a, b, c, d, [u], [v], [n], ctx)
            phi = eval_phi(
                SeriesSpec(
                    upper=[ipow(ctx.q, -n), q / (a * d), q / (b * d), q / (c * d)],
                    lower=[q / (d * u), q * v / d, q * q / (a * b * c * d)],
                    argument=q,
                ),
                ctx,
            )
            assert abs(got - phi.value) < 1e-12 * max(1.0, abs(phi.value))

    def test_n2_against_direct_enumeration(self):
        q = 0.5
        ctx = QContext(q)
        a, b, c, d = 0.3, -0.2, 0.15, 0.4
        v = [0.45, -0.35]
        N = [1, 1]
        u = [v[i] * ipow(ctx.q, N[i]) for i in range(2)]
        got = omega(a, b, c, d, u, v, N, ctx)
        want = 0.0 + 0.0j
        for m1 in range(N[0] + 1):
            for m2 in range(N[1] + 1):
                M1, M2 = m1, m1 + m2
                t = qpoch(v[1] / u[1], m2, ctx) / qpoch(q, m2, ctx)
                t *= qfrac([q / (a * d), q / (b * d), q / (c * d)],
                           [q / (d * u[1]), q * v[1] / d, q * q / (a * b * c * d)],
                           M2, ctx) * ipow(ctx.q, M2)
                t *= qpoch(v[0] / u[0], m1, ctx) / qpoch(q, m1, ctx)
                t *= qfrac([q * u[1] / d, q / (d * v[1])],
                           [q / (d * u[0]), q * v[0] / d], M1, ctx)
                t *= ipow(v[1] / u[1], M1)
                want += t
        assert abs(got - want) < 1e-13 * max(1.0, abs(want))

    def test_constraint_violation(self):
        ctx = QContext(0.5)
        with pytest.raises(ConstraintViolation):
            omega(0.3, 0.2, 0.1, 0.4, [0.2], [0.45], [1], ctx)

    def test_limit_beyond_constraint_raises(self):
        # a limit past N_i breaks the pair's q^N relation, and the builder names the pair
        ctx = QContext(0.5)
        a, b, c, d = 0.3, 0.2, 0.1, 0.4
        v = [0.45]
        u = [v[0] * ipow(ctx.q, 2)]
        assert omega(a, b, c, d, u, v, [2], ctx) != 0
        with pytest.raises(ConstraintViolation, match="^pair 1"):
            omega(a, b, c, d, u, v, [5], ctx)
