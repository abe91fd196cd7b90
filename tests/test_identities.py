"""Tests for the identity registry, sampler and check harness."""

import random

import pytest

from qverify.qcore import QContext, UnknownParam, ipow
from qverify.identities import (
    _pair_rhs,
    _swap_diff,
    case_ids,
    check,
    get_case,
    registry,
    sample,
    serialize_params,
    swap_params,
)

CTX = QContext(0.5)

RECIPROCITY_IDS = [c.id for c in registry() if c.family == "reciprocity"]
SERIES_IDS = [c.id for c in registry() if c.family != "integral"]


def diagonal_point(case_id, seed, ctx):
    """An admissible point with b set equal to a (constraints re-derived).

    Replacing b by a moves the convergence ratio, so seeds are advanced
    until the diagonal point still satisfies the case's domain.
    """
    case = get_case(case_id)
    for s in range(seed, seed + 50):
        p = dict(sample(case_id, s, ctx))
        p["b"] = p["a"]
        if case_id == "thm-c-multivar":
            p["y"] = [
                p["a"] * p["b"] / (p["x"][i] * ipow(ctx.q, p["N"][i]))
                for i in range(p["n"])
            ]
        if case.domain(p, ctx):
            return p
    raise AssertionError(f"no admissible diagonal point for {case_id}")


class TestRegistry:
    def test_twenty_unique_ids(self):
        ids = case_ids()
        assert len(ids) == 20
        assert len(set(ids)) == 20

    def test_expected_ids_present(self):
        expected = {
            "watson", "bailey-6psi6", "ramanujan-reciprocity", "andrews-4var",
            "kang-equivalent", "ma-5var", "chu-zhang-equivalent", "gr-2-10-1",
            "gr-5-6-1", "lemma-8psi8", "thm-a-7var", "corl-a", "thm-b",
            "corl-b", "lemma-milne", "thm-c-multivar", "thm-d-multivar",
            "thm-e-integral", "corl-c-integral", "corl-e-integral",
        }
        assert set(case_ids()) == expected

    def test_unknown_id(self):
        with pytest.raises(UnknownParam):
            get_case("nope")

    def test_bailey_domain_accepts_reference_point(self):
        ctx = QContext(0.3)
        case = get_case("bailey-6psi6")
        p = {"a": 0.5, "b": 0.9, "c": 0.8, "d": 0.7, "e": 0.6}
        assert abs(ctx.q * p["a"] ** 2 / (p["b"] * p["c"] * p["d"] * p["e"])) < 0.25
        assert case.domain(p, ctx)


class TestIdem:
    """The paper's "idem" idiom: an expression repeated with two parameters
    interchanged, subtracted termwise (``_swap_diff``) or added (``_pair_rhs``)."""

    def test_subtractive_of_symmetric_is_zero(self):
        ev = _swap_diff(lambda x, y, ctx: iter([x * y, x + y]), "xy")
        assert ev({"x": 2.0, "y": 5.0}, CTX) == 0.0

    def test_additive_flavor(self):
        ev = _pair_rhs(lambda p, ctx: p["x"] - 2 * p["y"], "x", "y")
        assert ev({"x": 2.0, "y": 5.0}, CTX) == -1.0 * (2 + 5)

    def test_double_swap_is_identity(self):
        p = {"x": 1.0, "y": 2.0, "z": 3.0}
        assert swap_params(swap_params(p, "x", "y"), "x", "y") == p

    def test_unknown_param(self):
        with pytest.raises(UnknownParam):
            swap_params({"x": 1.0}, "x", "w")

    def test_additive_idem_reproduces_two_term_rhs(self):
        # the R(...;f,g) + R(...;g,f) structure of the seven-variable formula
        from qverify.identities import _thma_rhs_piece

        ctx = QContext(0.3)
        p = sample("thm-a-7var", 2, ctx)
        ev = _pair_rhs(_thma_rhs_piece, "f", "g")
        want = _thma_rhs_piece(p, ctx) + _thma_rhs_piece(swap_params(p, "f", "g"), ctx)
        assert ev(p, ctx) == want


class TestSampler:
    @pytest.mark.parametrize("case_id", case_ids())
    def test_deterministic(self, case_id):
        p1 = sample(case_id, 11, CTX)
        p2 = sample(case_id, 11, CTX)
        assert serialize_params(p1) == serialize_params(p2)

    @pytest.mark.parametrize("case_id", case_ids())
    def test_sampled_point_satisfies_domain(self, case_id):
        case = get_case(case_id)
        for seed in range(4):
            p = sample(case_id, seed, CTX)
            assert case.domain(p, CTX)

    def test_milne_derived_rule_exact(self):
        for seed in range(12):
            p = sample("lemma-milne", seed, CTX)
            for i in range(p["n"]):
                want = ipow(CTX.q, 1 + p["N"][i]) * p["a"] / p["x"][i]
                assert p["y"][i] == want

    def test_integral_cases_sample_real(self):
        for case_id in ("thm-e-integral", "corl-c-integral", "corl-e-integral"):
            p = sample(case_id, 0, CTX, mode="complex")  # forced back to real
            for name, val in p.items():
                if isinstance(val, complex):
                    assert val.imag == 0.0


class TestCheck:
    @pytest.mark.parametrize("case_id", SERIES_IDS)
    def test_series_cases_pass_at_samples(self, case_id):
        for q in (0.3, 0.5):
            ctx = QContext(q)
            npass = 0
            seed = 0
            while npass < 3 and seed < 20:
                p = sample(case_id, seed, ctx)
                r = check(case_id, p, ctx, seed=seed)
                seed += 1
                if r.verdict == "skipped":
                    continue
                assert r.verdict == "pass", (case_id, q, seed - 1, r.rel_residual)
                assert r.rel_residual < 1e-8
                npass += 1
            assert npass == 3

    @pytest.mark.parametrize("case_id", RECIPROCITY_IDS)
    def test_diagonal_passes_via_zero_branch(self, case_id):
        r = check(case_id, diagonal_point(case_id, 5, CTX), CTX)
        assert r.verdict == "pass"
        assert abs(r.lhs) < 1e-12 and abs(r.rhs) < 1e-12

    @pytest.mark.parametrize("case_id", RECIPROCITY_IDS)
    def test_lhs_antisymmetry(self, case_id):
        case = get_case(case_id)
        p = sample(case_id, 3, CTX)
        swapped = swap_params(p, "a", "b")
        if case_id == "thm-c-multivar":
            # the derived vector is symmetric in (a, b); keep it fixed
            swapped["y"] = p["y"]
        lhs = case.lhs(p, CTX)
        lhs_swapped = case.lhs(swapped, CTX)
        assert lhs_swapped == -lhs

    def test_domain_violation_reports_skipped(self):
        p = {"a": 0.9, "b": 0.1, "c": 0.1, "d": 0.1, "e": 0.1}
        r = check("bailey-6psi6", p, CTX)
        assert r.verdict == "skipped"

    def test_closed_form_side_runs_first(self, monkeypatch):
        # at q = 0.95 the closed form of an N = 0 point falls inside the pole
        # guard; the skip must come from it, before any quadrature is paid for
        def no_quadrature(spec, ctx):
            raise AssertionError("quadrature ran before the closed form")

        monkeypatch.setattr("qverify.identities.integrate_aw", no_quadrature)
        p = {"a": 0.3, "b": 0.4, "c": 0.35, "d": 0.45, "n": 1, "N": [0],
             "u": [0.5], "v": [0.5]}
        r = check("thm-e-integral", p, QContext(0.95))
        assert r.verdict == "skipped"
        assert r.reason.startswith("PoleError")

    @pytest.mark.parametrize("case_id, yname", [("thm-c-multivar", "y"),
                                                ("thm-d-multivar", "yv")])
    def test_multivar_constraint_violation_skips(self, case_id, yname):
        # the right side checks that x_1 y_1 keeps its q^{N_1} relation; a
        # point that breaks it by 1e-9 relative must be skipped, not judged
        p = next(p for p in (sample(case_id, s, CTX) for s in range(50)) if p["n"] >= 1)
        ys = list(p[yname])
        ys[0] *= 1.0 + 1e-9
        r = check(case_id, {**p, yname: ys}, CTX)
        assert r.verdict == "skipped"
        assert r.reason.startswith("ConstraintViolation")

    def test_kang_agrees_with_andrews(self):
        # the two forms share one right-hand side, so their left sides must
        # agree wherever both are defined
        andrews_lhs = get_case("andrews-4var").lhs
        kang_lhs = get_case("kang-equivalent").lhs
        for seed in range(6):
            ctx = QContext(0.4)
            p = sample("andrews-4var", seed, ctx)
            a = andrews_lhs(p, ctx)
            k = kang_lhs(p, ctx)
            assert abs(a - k) < 1e-10 * max(abs(a), abs(k), 1e-20)

    def test_ma_and_chu_zhang_agree_at_shared_points(self):
        for seed in range(6):
            ctx = QContext(0.4)
            p = sample("ma-5var", seed, ctx)
            r1 = check("ma-5var", p, ctx)
            r2 = check("chu-zhang-equivalent", p, ctx)
            assert r1.verdict == "pass"
            if r2.verdict == "skipped":
                continue
            assert r2.verdict == "pass"

    def test_report_serialization_roundtrip(self):
        import json

        p = sample("watson", 1, CTX)
        r = check("watson", p, CTX, seed=1)
        doc = json.loads(json.dumps(r.to_dict()))
        assert doc["verdict"] == "pass"
        assert doc["id"] == "watson"


class TestNamedEvaluators:
    def test_rho_difference_matches_case_lhs(self):
        from qverify.identities import eval_rho
        from qverify.identities import get_case as gc

        ctx = QContext(0.3)
        p = sample("thm-a-7var", 4, ctx)
        direct = eval_rho(p["a"], p["b"], p["c"], p["d"], p["e"], p["f"], p["g"], ctx) - \
            eval_rho(p["b"], p["a"], p["c"], p["d"], p["e"], p["f"], p["g"], ctx)
        case_lhs = gc("thm-a-7var").lhs(p, ctx)
        assert abs(direct - case_lhs) < 1e-9 * max(abs(direct), 1e-20)

    def test_rho_prime_reduces_to_rho_family_at_n0(self):
        from qverify.identities import eval_rho_prime

        ctx = QContext(0.5)
        p = sample("corl-a", 7, ctx)
        v = eval_rho_prime(p["a"], p["b"], p["c"], p["d"], p["e"], p["f"], 0, ctx)
        assert v == v  # smoke: defined and finite
        assert abs(v) < 1e6

    def test_multivar_rho_empty_pairs_is_ma_summand(self):
        from qverify.identities import eval_multivar_rho, _ma_half
        from qverify.series import _sum_series

        ctx = QContext(0.5)
        p = sample("ma-5var", 9, ctx)
        a, b, c, d, e = (p[k] for k in "abcde")
        got = eval_multivar_rho(a, b, c, d, e, [], [], [], ctx)
        want = _sum_series(_ma_half(a, b, c, d, e, ctx), ctx).value
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


class TestSFunctionReductions:
    def test_exact_e_to_d_reduction_hits_triple_product_target(self):
        # at e = d, f = x y^2 / d the seven-variable triple/quintuple-product
        # formula collapses onto the five-parameter target, with the factor
        # 1 / ((1 - d/xy)(1 - y/d)) connecting both sides
        import random
        from qverify.qcore import qfrac, qpoch, INF
        from qverify.identities import _thmb_lhs, _thmb_rhs_piece

        rng = random.Random(47)
        ctx = QContext(0.5)
        q = ctx.q
        done = 0
        while done < 4:
            x = complex(rng.uniform(0.55, 0.85), rng.uniform(-0.2, 0.2))
            y = complex(rng.uniform(0.6, 0.9), rng.uniform(-0.2, 0.2))
            b, c, d = (complex(rng.uniform(0.1, 0.3), rng.uniform(-0.1, 0.1))
                       for _ in range(3))
            p = {"x": x, "y": y, "b": b, "c": c, "d": d, "e": d,
                 "f": x * y * y / d}
            try:
                lhs = _thmb_lhs(p, ctx)
                rhs = (_thmb_rhs_piece(p, ctx)
                       + _thmb_rhs_piece(swap_params(p, "e", "f"), ctx))
            except Exception:
                continue
            # independently coded five-parameter target
            def tsum(prefv, shift, lows, zz):
                s = 0.0 + 0.0j
                for k in range(80):
                    t = (1 - ipow(q, 2 * k + 1) * prefv) * qpoch(lows[0], k, ctx)
                    for w in shift:
                        t *= qpoch(ipow(q, -k) * w, k, ctx)
                    for l in lows[1:]:
                        t /= qpoch(l, k + 1, ctx)
                    t *= ipow(q, (3 * k * k + k) // 2) * ipow(zz, k)
                    s += t
                    if abs(t) < 1e-18 * max(1.0, abs(s)) and k > 3:
                        break
                return s

            tl = tsum(1.0 / x, [b / y, c / y, d / y],
                      [q / (x * y), y, b / (x * y), c / (x * y), d / (x * y)],
                      -y / x)
            tl -= x * tsum(x, [b / (x * y), c / (x * y), d / (x * y)],
                           [q / y, x * y, b / y, c / y, d / y], -x * x * y)
            xy2 = x * y * y
            tr = qfrac(
                [q, x, q / x, b, c, d, b * c / xy2, b * d / xy2, c * d / xy2],
                [y, x * y, b / y, c / y, d / y, b / (x * y), c / (x * y),
                 d / (x * y), b * c * d / (q * xy2)], INF, ctx)
            factor = 1.0 / ((1.0 - d / (x * y)) * (1.0 - y / d))
            assert abs(lhs - factor * tl) < 1e-9 * max(abs(lhs), 1e-20)
            assert abs(rhs - factor * tr) < 1e-9 * max(abs(rhs), 1e-20)
            done += 1
