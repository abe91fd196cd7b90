"""Tests for the identity registry, sampler and check harness."""

import ast
import cmath
import hashlib
import itertools
import json
import math
import pathlib
import random
import re

import numpy as np
import pytest
from blockstream import flat

from qverify import identities, qcore
from qverify.cli import main
from qverify.integrals import AWIntegrandSpec, integrate_aw
from qverify.multisum import check_qpow_ratio
from qverify.qcore import IllConditioned, QContext, UnknownParam, ipow, qpoch
from qverify.series import _Terms
from qverify.identities import (
    _BY_ID,
    IdentityCase,
    _column,
    _conv_ok,
    _corla_point,
    _corlb_point,
    _corlc_point,
    _corle_point,
    _evaluated_point,
    _pair_rhs,
    _Sampler,
    _sum_with_guard,
    _swap_diff,
    _validate,
    case_ids,
    check,
    get_case,
    parse_params,
    registry,
    sample,
    serialize_params,
    swap_params,
)

CTX = QContext(0.5)

PIN_QS = (0.3, 0.8, 0.95, -0.5, 0.5 + 0.3j)

PINNED_DRAWS = {
    "watson": "7bd67f7ff715d28136b8b6f71aec9c11203badfc10b5a719521efdb384e1be35",
    "bailey-6psi6": "097156c3caa686aac675765b99592b52b11ee1c96bedfed74b984f6795562455",
    "ramanujan-reciprocity": "807cc967164a58b7d73cac256d16fb815174a9bb814e3cdbf22cde66ab6bb0d6",
    "andrews-4var": "3a70f0dbdba0a05a232140a38d6c55a7417bb1294e127e295ec361db60a25f2a",
    "kang-equivalent": "109fc76ff6edfe1ad402869761e201c1b6f827de059edd4f54342f9b96b7aa19",
    "ma-5var": "c70cbd0ce1b0c08a92ebcb455a7421ecbd49de6675101dd648e115fe9b76cfe6",
    "chu-zhang-equivalent": "fa4c680c84754c5d19e0f9947edf0f6b7117a579914820aed90c05e574c10766",
    "gr-2-10-1": "95cf001a153af0627b218d87fe0f3402c28b0a790d6aa3bb2c8cb368e813b7fd",
    "gr-5-6-1": "4dd8aac2f83f128c1060e786e7263a659bfd7860c34d2428ee12f62b9eafa00a",
    "lemma-8psi8": "ffc2e82715136331b10a57f7fb7c61b7fad3a46952e98c5b41854d178b312056",
    "thm-a-7var": "22a504021a89eaf17696dbcdaeab0af5bc576b3158d78f90162b0b2489d6fc6b",
    "corl-a": "e51a5baf2d60850676f1f1483d078a80c581ce11b74d4b740df3ab3ce7bdd4de",
    "thm-b": "b87cd0a503848d12591d586e22780bde588a9d0fd789b1f29cef934651b75b64",
    "corl-b": "6c625262710c3fad4d1733f09dedb7878c45ff855da5dd2bb8dfcbf590550823",
    "lemma-milne": "732d8be078bf2b04d525721a508820d4bad6d4fcca9f4226c092bf4989c8ead6",
    "thm-c-multivar": "3dde668a50d1cab71a6bc9d40c401dc709eff5c269bbf0f82c88d7d94ae21fcc",
    "thm-d-multivar": "0b203e1831483a18ba18ff823cea8d54676b7635922b29b86baeb2bce74a461b",
    "thm-e-integral": "be4b02d1406b9111a50f34be304cf0829611d01b070488bd7e2dd224460c0252",
    "corl-c-integral": "6756a4a83b7900535bfa2a39278d1ff38fb63a6bf7b4f23b76cb77ac363cc16b",
    "corl-e-integral": "41b33ba73929cf3ab048e2fc8830b3a7acc373fb53919da2005648e86fa73433",
}

PINNED_NAMES = {
    "watson": (("a", "b", "c", "d", "e", "n"), (), ("n",)),
    "bailey-6psi6": (("a", "b", "c", "d", "e"), (), ()),
    "ramanujan-reciprocity": (("a", "b"), (), ()),
    "andrews-4var": (("a", "b", "c", "d"), (), ()),
    "kang-equivalent": (("a", "b", "c", "d"), (), ()),
    "ma-5var": (("a", "b", "c", "d", "e"), (), ()),
    "chu-zhang-equivalent": (("a", "b", "c", "d", "e"), (), ()),
    "gr-2-10-1": (("a", "b", "c", "d", "e", "f"), (), ()),
    "gr-5-6-1": (("a", "b", "c", "d", "e", "f", "g"), (), ()),
    "lemma-8psi8": (("a", "b", "c", "d", "e", "f", "g"), (), ()),
    "thm-a-7var": (("a", "b", "c", "d", "e", "f", "g"), (), ()),
    "corl-a": (("a", "b", "c", "d", "e", "f", "n"), (), ("n",)),
    "thm-b": (("x", "y", "b", "c", "d", "e", "f"), (), ()),
    "corl-b": (("x", "y", "b", "c", "d", "e", "n"), (), ("n",)),
    "lemma-milne": (("a", "b", "c", "d", "e", "n"), ("x", "y", "N"), ("n", "N")),
    "thm-c-multivar": (("a", "b", "c", "d", "e", "n"), ("x", "y", "N"), ("n", "N")),
    "thm-d-multivar": (("x", "y", "b", "c", "d", "n"), ("xv", "yv", "N"), ("n", "N")),
    "thm-e-integral": (("a", "b", "c", "d", "n"), ("u", "v", "N"), ("n", "N")),
    "corl-c-integral": (("a", "b", "c", "d", "u", "n"), (), ("n",)),
    "corl-e-integral": (("a", "b", "c", "n"), ("u", "v", "m"), ("n", "m")),
}


def sample_digest(case_id):
    """sha256 of the case's draws at every seed in 0-29, q in PIN_QS and both modes."""
    h = hashlib.sha256()
    for q in PIN_QS:
        ctx = QContext(q)
        for mode in ("complex", "real"):
            for seed in range(30):
                h.update(repr(sorted(sample(case_id, seed, ctx, mode).items())).encode() + b"\n")
    return h.hexdigest()

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
        # halves of two terms, x y and -x y (x + y): the upper base 1/q ends them
        ev = _swap_diff(lambda x, y, ctx: _Terms([1.0 / ctx.q], [], x + y, ctx, const=x * y), "xy")
        assert ev({"x": 2.0, "y": 5.0}, CTX) == 0.0

    def test_additive_flavor(self):
        ev = _pair_rhs(lambda p, ctx: (p["x"] - 2 * p["y"], 0.0), "x", "y")
        assert ev({"x": 2.0, "y": 5.0}, CTX) == -1.0 * (2 + 5)

    def test_double_swap_is_identity(self):
        p = {"x": 1.0, "y": 2.0, "z": 3.0}
        assert swap_params(swap_params(p, "x", "y"), "x", "y") == p

    def test_unknown_param(self):
        with pytest.raises(UnknownParam):
            swap_params({"x": 1.0}, "x", "w")

    @pytest.mark.parametrize("case_id, params, missing", [
        ("watson", dict(a=0.1, b=0.2, c=0.3, d=0.4, e=0.5), "['n']"),  # no verdict
        ("bailey-6psi6", dict(a=0.5, b=0.9), "['c', 'd', 'e']"),  # not in the domain
    ])
    def test_check_names_missing_params(self, case_id, params, missing):
        with pytest.raises(UnknownParam, match=re.escape(missing)):
            check(case_id, params, QContext(0.5))

    def test_pair_sum_counts_the_error_each_piece_claims(self):
        ctx = QContext(0.5)
        assert _sum_with_guard(((1.0, 1e-12), (-0.99, 0.0)), ctx) == 1.0 - 0.99
        with pytest.raises(IllConditioned):
            _sum_with_guard(((1.0, 1e-9), (-0.99, 0.0)), ctx)

    def test_cancelling_pieces_with_claimed_error_are_skipped(self):
        # the two gr-5-6-1 pieces (|.| ~ 1600) cancel to 7.7 here, and the swapped
        # piece's 8phi7 claims 1.1e-10 relative: a floor of 1.9e-7 cannot attest
        # 1e-8 of 7.7, so the point is skipped; summed without the claims it failed
        ctx = QContext(0.8)
        r = check("gr-5-6-1", sample("gr-5-6-1", 5932, ctx), ctx)
        assert r.verdict == "skipped" and r.reason.startswith("IllConditioned"), r

    def test_additive_idem_reproduces_two_term_rhs(self):
        # the R(...;f,g) + R(...;g,f) structure of the seven-variable formula
        from qverify.identities import _R_block

        ctx = QContext(0.3)
        p = sample("thm-a-7var", 2, ctx)
        ev = _pair_rhs(_R_block, "f", "g")
        want = _R_block(p, ctx)[0] + _R_block(swap_params(p, "f", "g"), ctx)[0]
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

    # each pair case's constraint in the form its evaluators check: (num, den, k)
    # with num / den = q^k for pair i
    PAIR_CONSTRAINTS = {
        "lemma-milne": lambda p, i: (p["x"][i] * p["y"][i], p["a"], 1 + p["N"][i]),
        "thm-c-multivar": lambda p, i: (p["a"] * p["b"], p["x"][i] * p["y"][i], p["N"][i]),
        "thm-d-multivar": lambda p, i: (p["x"] * p["y"] ** 2, p["xv"][i] * p["yv"][i], p["N"][i]),
        "thm-e-integral": lambda p, i: (p["u"][i], p["v"][i], p["N"][i]),
        "corl-e-integral": lambda p, i: (p["u"][i], p["v"][i], p["m"][i]),
    }

    @pytest.mark.parametrize("case_id", PAIR_CONSTRAINTS)
    def test_pair_constraint_holds(self, case_id):
        constraint = self.PAIR_CONSTRAINTS[case_id]
        offsets = set()
        for q in (0.5, -0.5, 0.5 + 0.3j):
            ctx = QContext(q)
            for seed in range(12):
                p = sample(case_id, seed, ctx)
                for i in range(p["n"]):
                    num, den, k = constraint(p, i)
                    check_qpow_ratio(num, den, k, ctx, f"{case_id} pair {i + 1}")
                    offsets.add(k)
        assert len(offsets) >= 2  # pairs were drawn, with more than one offset

    def test_pinned_draws(self):
        # sha256 per id of sample() over seeds 0-29, five q and both modes, each
        # params map's repr sorted by name; computed from the sampler before it
        # was made declarative, so a commit that moves any draw fails here
        assert {case_id: sample_digest(case_id) for case_id in case_ids()} == PINNED_DRAWS

    def test_names_come_from_the_sampler(self):
        got = {c.id: (c.param_names, c.vector_names, c.sampler.int_names) for c in registry()}
        assert got == PINNED_NAMES

    def test_unknown_mode_raises(self):
        # "Real" is neither mode: it raises rather than seeding a third rng stream
        with pytest.raises(ValueError, match="'real', 'complex' or None, got 'Real'"):
            sample("bailey-6psi6", 3, CTX, mode="Real")
        with pytest.raises(ValueError, match="got 'Real'"), _column("thm-e-integral", [0], CTX, "Real"):
            pass

    def test_integral_cases_sample_real(self):
        for case_id in ("thm-e-integral", "corl-c-integral", "corl-e-integral"):
            for seed in range(10):
                p = sample(case_id, seed, CTX, mode="complex")  # forced back to real
                # vectors flattened; a value with an imaginary part serializes as [re, im]
                assert not any(isinstance(v, list) for v in serialize_params(p).values())


# the README's bailey-6psi6 point, which passes at q = 0.3
BAILEY_POINT = {"a": 0.5, "b": 0.9, "c": 0.8, "d": 0.7, "e": 0.6}


def draw_with_n(case_id):
    """The first draw of the case at CTX with n >= 1."""
    return next(p for p in (sample(case_id, s, CTX) for s in range(50)) if p["n"] >= 1)


class TestParamSchema:
    """check() enforces the schema each sampler declares; parse_params reads
    the flat map that serialize_params writes."""

    @pytest.mark.parametrize("case_id, change, key", [
        ("thm-e-integral", lambda p: {"v": p["v"] + [0.3 + 0j]}, "'v'"),
        ("thm-c-multivar", lambda p: {"x": p["x"][:-1]}, "'x'"),
        ("watson", lambda p: {"n": 2.0}, "'n'"),
        # y_1 re-derived, so that only the sign of N_1 is wrong
        ("lemma-milne", lambda p: {"N": [-1, *p["N"][1:]],
                                   "y": [p["a"] / p["x"][0], *p["y"][1:]]}, "'N1'"),
        ("lemma-milne", lambda p: {"N": [True, *p["N"][1:]]}, "'N1'"),
        ("thm-e-integral", lambda p: {"v": ["x"] * p["n"]}, "'v1' must be a number"),
    ], ids=["thm-e-long-v", "thm-c-short-x", "watson-float-n", "milne-negative-N",
            "milne-bool-N", "thm-e-str-v"])
    def test_malformed_map_raises(self, case_id, change, key):
        p = draw_with_n(case_id)
        with pytest.raises(ValueError, match=re.escape(key)):
            check(case_id, {**p, **change(p)}, CTX)

    @pytest.mark.parametrize("change, key", [
        ({"zz": 0}, "['zz']"),  # undeclared and bound to 0, these once skipped the point
        ({"n": 0}, "['n']"),
        ({"a": [0.5]}, "'a'"),
        ({"a": "0.5"}, "'a'"),
        ({"a": None}, "'a'"),
        ({"a": True}, "'a'"),
    ], ids=["undeclared-zz", "undeclared-n", "list-a", "str-a", "none-a", "bool-a"])
    def test_malformed_bailey_point_raises(self, change, key):
        ctx = QContext(0.3)
        assert check("bailey-6psi6", BAILEY_POINT, ctx).verdict == "pass"
        with pytest.raises(ValueError, match=re.escape(key)):
            check("bailey-6psi6", {**BAILEY_POINT, **change}, ctx)

    def test_numpy_scalars_are_numbers(self):
        p = dict(BAILEY_POINT, a=np.float64(0.5), b=np.complex128(0.9), c=np.int64(1))
        assert check("bailey-6psi6", p, QContext(0.3)).verdict == "pass"

    @pytest.mark.parametrize("kind", [np.float32, np.complex64])
    def test_single_precision_values_are_evaluated_in_double(self, kind):
        # a complex64 side held 3.6e-8 relative and made this point a false fail
        p = dict(BAILEY_POINT, c=kind(0.8))
        r = check("bailey-6psi6", p, QContext(0.3))
        assert r.verdict == "pass" and r.rel_residual < 1e-12
        assert r.params["c"] is p["c"]  # the report keeps the map as given

    def test_integer_names_come_from_the_sampler(self, monkeypatch):
        # an integer named k is kept as an int and checked as one, and its
        # zero is not taken for a zero free parameter
        def power(p, ctx):
            return ipow(p["a"], p["k"])

        case = IdentityCase(id="power-k", family="series",
                            sampler=_Sampler({"a": (0.1, 0.5)}, ints={"k": (0, 1, 2)}),
                            domain=lambda p, ctx: True, lhs=power, rhs=power)
        monkeypatch.setitem(_BY_ID, case.id, case)
        p = parse_params(case, {"a": 0.3, "k": 2})
        assert p == {"a": 0.3 + 0j, "k": 2} and type(p["k"]) is int
        assert check(case.id, parse_params(case, {"a": 0.3, "k": 0}), CTX).verdict == "pass"
        # kept as written, so the message names the value of the file
        with pytest.raises(ValueError, match="'k' must be a non-negative integer, got 2.5$"):
            check(case.id, parse_params(case, {"a": 0.3, "k": 2.5}), CTX)

    @pytest.mark.parametrize("case_id", case_ids())
    def test_flat_map_round_trip(self, case_id):
        case = get_case(case_id)
        for q in (0.3, -0.5, 0.5 + 0.3j):
            ctx = QContext(q)
            for mode in ("complex", "real"):
                for seed in range(10):
                    p = sample(case_id, seed, ctx, mode)
                    assert parse_params(case, serialize_params(p)) == p

    def test_sweep_cells_replay_through_check(self, tmp_path, capsys):
        # each cell's params, written as TOML with floats by repr, give the
        # cell's verdict, reason and both sides through `qverify check`
        out = tmp_path / "sweep.json"
        main(["sweep", "--samples", "1", "--q", "0.8", "--out", str(out)])
        cells = json.loads(out.read_text())["reports"]
        capsys.readouterr()
        keys = ("verdict", "reason", "lhs", "rhs")
        for cell in cells:
            path = tmp_path / f"{cell['id']}.toml"
            path.write_text("".join(f"{k} = {v!r}\n" for k, v in cell["params"].items()))
            main(["check", cell["id"], "--params", str(path), "--json", "--q", "0.8"])
            got = json.loads(capsys.readouterr().out)
            assert {k: got[k] for k in keys} == {k: cell[k] for k in keys}, cell["id"]
        assert len(cells) == 20


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
        # both sides cancel to an exact 0 on the diagonal, so the point passes
        # through the relative test, not through the absolute 0 = 0 branch
        r = check(case_id, diagonal_point(case_id, 5, CTX), CTX)
        assert r.verdict == "pass"
        assert abs(r.lhs) < 1e-12 and abs(r.rhs) < 1e-12
        assert r.rel_residual == 0.0

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
                                                ("thm-d-multivar", "yv"),
                                                ("lemma-milne", "y"),
                                                ("thm-e-integral", "u")])
    def test_multivar_constraint_violation_skips(self, case_id, yname):
        # the right side's multi-sum checks that pair 1 keeps its q^{N_1}
        # relation; a point that breaks it by 1e-9 relative must be skipped
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


SHARED_SUM_QS = (0.3, 0.8, -0.5, 0.5 + 0.3j)


def outcome(evaluator, params, ctx):
    """The value of one side, or the type and message of the error it raised."""
    try:
        return evaluator(params, ctx)
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestNamedEvaluators:
    def test_rho_difference_matches_case_lhs(self):
        from qverify.identities import _rho7_terms
        from qverify.identities import get_case as gc
        from qverify.series import _sum_stream

        ctx = QContext(0.3)
        p = sample("thm-a-7var", 4, ctx)
        a, b, c, d, e, f, g = (p[k] for k in "abcdefg")
        direct = _sum_stream(_rho7_terms(a, b, c, d, e, f, g, ctx), ctx).value - \
            _sum_stream(_rho7_terms(b, a, c, d, e, f, g, ctx), ctx).value
        case_lhs = gc("thm-a-7var").lhs(p, ctx)
        assert abs(direct - case_lhs) < 1e-9 * max(abs(direct), 1e-20)

    def test_corla_lhs_is_thmc_lhs_with_one_pair(self):
        # the corl-a left side is the thm-c-multivar one with the pair
        # x = f, y = ab/(f q^n), N = n, bit for bit
        corla, thmc = get_case("corl-a").lhs, get_case("thm-c-multivar").lhs
        for ctx, seed in itertools.product(map(QContext, SHARED_SUM_QS), range(10)):
            p = sample("corl-a", seed, ctx)
            a, b, f, n = p["a"], p["b"], p["f"], p["n"]
            one_pair = {k: p[k] for k in "abcde"}
            one_pair.update(x=[f], y=[a * b / (f * ipow(ctx.q, n))], N=[n], n=1)
            assert outcome(corla, p, ctx) == outcome(thmc, one_pair, ctx), (ctx.q, seed)

    def test_corlb_lhs_is_thmd_lhs_with_one_pair(self):
        # the corl-b left side is the thm-d-multivar one with the pair
        # xv = e, yv = x y^2/(e q^n), N = n, bit for bit
        corlb, thmd = get_case("corl-b").lhs, get_case("thm-d-multivar").lhs
        for ctx, seed in itertools.product(map(QContext, SHARED_SUM_QS), range(10)):
            p = sample("corl-b", seed, ctx)
            x, y, e, n = p["x"], p["y"], p["e"], p["n"]
            one_pair = {k: p[k] for k in "xybcd"}
            one_pair.update(xv=[e], yv=[x * y ** 2 / (e * ipow(ctx.q, n))], N=[n], n=1)
            assert outcome(corlb, p, ctx) == outcome(thmd, one_pair, ctx), (ctx.q, seed)

    def test_multivar_rho_empty_pairs_is_ma_summand(self):
        # the ma-5var left side is the thm-c-multivar one with no pairs, bit for bit
        ma, thmc = get_case("ma-5var").lhs, get_case("thm-c-multivar").lhs
        for ctx, seed in itertools.product(map(QContext, SHARED_SUM_QS), range(10)):
            p = sample("ma-5var", seed, ctx)
            no_pairs = dict(p, x=[], y=[], N=[], n=0)
            assert outcome(ma, p, ctx) == outcome(thmc, no_pairs, ctx), (ctx.q, seed)

    def test_thmb_lhs_is_thmd_lhs_with_one_pair(self):
        # the thm-b left side is the thm-d-multivar one with the pair (e, f), bit for bit
        thmb, thmd = get_case("thm-b").lhs, get_case("thm-d-multivar").lhs
        for ctx, seed in itertools.product(map(QContext, SHARED_SUM_QS), range(10)):
            p = sample("thm-b", seed, ctx)
            one_pair = dict(p, xv=[p["e"]], yv=[p["f"]], N=[0], n=1)
            assert outcome(thmb, p, ctx) == outcome(thmd, one_pair, ctx), (ctx.q, seed)


MAP_QS = (0.3, 0.5, 0.8, -0.5, 0.5 + 0.3j)

# each corollary, its theorem and the map of its parameters to the theorem's
COROLLARY_MAPS = {
    "corl-a": ("thm-c-multivar", _corla_point),
    "corl-b": ("thm-d-multivar", _corlb_point),
    "corl-c-integral": ("thm-e-integral", _corlc_point),
    "corl-e-integral": ("thm-e-integral", _corle_point),
}

# the direct formulas that the corollaries held before they became their
# theorems at the maps: the oracle of the maps, bit for bit
DIRECT_LHS = {
    "corl-c-integral": lambda p, ctx: integrate_aw(AWIntegrandSpec(
        p["a"], p["b"], p["c"], p["d"], u=(p["u"] * ipow(ctx.q, p["n"]),), v=(p["u"],)), ctx).value,
    "corl-e-integral": lambda p, ctx: integrate_aw(AWIntegrandSpec(
        p["a"], ctx.q / p["a"], p["b"], p["c"], u=p["u"], v=p["v"]), ctx).value,
}
DIRECT_DOMAINS = {
    "corl-a": lambda p, ctx: _conv_ok(
        p["c"] * p["d"] * p["e"] / (p["a"] * p["b"] * ipow(ctx.q, p["n"] + 1))),
    "corl-b": lambda p, ctx: _conv_ok(
        p["b"] * p["c"] * p["d"] / (p["x"] * p["y"] * p["y"] * ipow(ctx.q, p["n"] + 1))),
    "corl-c-integral": lambda p, ctx: (
        not any(abs(p[k]) >= 0.999 for k in "abcdu")
        and _conv_ok(p["a"] * p["b"] * p["c"] * p["d"] * ipow(ctx.q, -(p["n"] + 1)))),
}


def map_draws(case_id):
    """(ctx, draw) for seeds 0-14 of the case at each q in MAP_QS: 75 draws."""
    for q, seed in itertools.product(MAP_QS, range(15)):
        ctx = QContext(q)
        yield ctx, sample(case_id, seed, ctx)


class TestCorollaryMaps:
    """Each corollary is its theorem at one stated map of its parameters."""

    @pytest.mark.parametrize("case_id", COROLLARY_MAPS)
    def test_map_gives_a_theorem_point(self, case_id):
        theorem, to_point = COROLLARY_MAPS[case_id]
        for ctx, p in map_draws(case_id):
            point = to_point(p, ctx)
            assert _validate(get_case(theorem), point)[0] == point, (ctx.q, p)

    @pytest.mark.parametrize("case_id", COROLLARY_MAPS)
    def test_stated_rhs_is_the_theorem_rhs_at_the_map(self, case_id):
        theorem, to_point = COROLLARY_MAPS[case_id]
        stated, at_map = get_case(case_id).rhs, get_case(theorem).rhs
        compared = 0
        for ctx, p in map_draws(case_id):
            try:
                want, got = stated(p, ctx), at_map(to_point(p, ctx), ctx)
            except qcore.QVerifyError:  # compared wherever both sides evaluate
                continue
            assert abs(got - want) <= 1e-12 * abs(want), (ctx.q, p)
            compared += 1
        assert compared >= 50

    @pytest.mark.parametrize("case_id", DIRECT_LHS)
    def test_lhs_is_the_direct_formula(self, case_id):
        lhs = get_case(case_id).lhs
        for ctx, p in map_draws(case_id):
            assert outcome(lhs, p, ctx) == outcome(DIRECT_LHS[case_id], p, ctx), (ctx.q, p)

    @pytest.mark.parametrize("case_id", DIRECT_DOMAINS)
    def test_domain_is_the_direct_formula(self, case_id):
        # raw sampler draws, with c scaled across the convergence bound
        case, rng = get_case(case_id), random.Random(5)
        seen = set()
        for q in MAP_QS:
            ctx = QContext(q)
            for _ in range(100):
                p = case.sampler(rng, ctx, identities._sampling_mode(case, None))
                p["c"] *= 10 ** rng.uniform(-1.0, 1.5)
                inside = case.domain(p, ctx)
                assert inside == DIRECT_DOMAINS[case_id](p, ctx), (q, p)
                seen.add(inside)
        assert seen == {True, False}


def enclosing_defs(names):
    """{name: the innermost defs of identities.py (``<module>`` outside any)
    whose bodies use it}, for each of ``names`` used there."""
    found = {}

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if isinstance(node, ast.Name) and node.id in names:
            found.setdefault(node.id, set()).add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(pathlib.Path(identities.__file__).read_text()), "<module>")
    return found


def test_builders_are_the_only_callers():
    # every unilateral series comes from the very-well-poised builder, the
    # terminating 4phi3 builder or chu-zhang's correction, and every
    # Askey-Wilson quadrature from thm-e's left side
    found = enclosing_defs({"eval_phi", "integrate_aw", "AWIntegrandSpec"})
    assert found["eval_phi"] == {"_wp_series", "_terminating_4phi3", "_cz_correction"}
    assert found["integrate_aw"] | found["AWIntegrandSpec"] == {"_thme_lhs"}


class TestSFunctionReductions:
    def test_exact_e_to_d_reduction_hits_triple_product_target(self):
        # at e = d, f = x y^2 / d the seven-variable triple/quintuple-product
        # formula collapses onto the five-parameter target, with the factor
        # 1 / ((1 - d/xy)(1 - y/d)) connecting both sides
        import random
        from qverify.qcore import qfrac, qpoch, INF
        from qverify.identities import _thmb_lhs, _S_block

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
                rhs = (_S_block(p, ctx)[0]
                       + _S_block(swap_params(p, "e", "f"), ctx)[0])
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


def jacobi_halves(case_id, p, q):
    """(v, asc0, w, lows, z, scale) of both halves of a Jacobi-family left side.

    Half h sums scale (1 - v q^{2k+1}) (asc0;q)_k prod (q^{-k} w_i;q)_k
    / prod (lows_j;q)_{k+1} q^{(D k^2 + (D-2) k)/2} z^k over k >= 0, with
    D = len(w); the left side is half 1 minus half 2.
    """
    x, y, b, c, d = (p[k] for k in "xybcd")
    if case_id == "thm-b":
        ps = (b, c, d, p["e"], p["f"])
        up, low, n = [t / y for t in ps], [t / (x * y) for t in ps], 0
    elif case_id == "corl-b":
        e, n = p["e"], p["n"]
        up = [b / y, c / y, d / y, e / y, x * y / e * ipow(q, -n)]
        low = [b / (x * y), c / (x * y), d / (x * y), e / (x * y), y / e * ipow(q, -n)]
        n = 0
    else:
        pairs = [t for i in range(p["n"]) for t in (p["xv"][i], p["yv"][i])]
        up = [t / y for t in (b, c, d, *pairs)]
        low = [t / (x * y) for t in (b, c, d, *pairs)]
        n = p["n"] - 1
    return (
        (1 / x, q / (x * y), up, [y] + low, -y / ipow(x, n + 2), 1.0),
        (x, q / y, low, [x * y] + up, -ipow(x, n + 3) * y, ipow(x, n + 2)),
    )


def jacobi_reference(half, ctx):
    """The half's terms, each from scratch, until two fall below 1e-18 of the sum.

    The weight is split as q^{-k} times one q^{k(k+1)/2} per (q^{-k} w;q)_k,
    and each such pair is the product of its factors q^j - w, j = 1..k, so
    that nothing leaves the double range; the other products come from qpoch.
    """
    v, asc0, ws, lows, z, scale = half
    q = ctx.q
    terms, small = [], 0
    for k in range(400):
        t = scale * (1 - v * ipow(q, 2 * k + 1)) * qpoch(asc0, k, ctx) * ipow(z / q, k)
        for w in ws:
            t *= math.prod((ipow(q, j) - w for j in range(1, k + 1)), start=1 + 0j)
        for low in lows:
            t /= qpoch(low, k + 1, ctx)
        assert cmath.isfinite(t)
        terms.append(t)
        small = small + 1 if abs(t) < 1e-18 * abs(sum(terms)) else 0
        if small == 2 or t == 0:
            return terms
    raise AssertionError("reference terms did not converge")


def jacobi_streams(case_id, p, ctx, monkeypatch):
    """The two half streams the case's left side hands to ``_diff_sum``."""
    import qverify.identities as identities

    seen = []
    monkeypatch.setattr(identities, "_diff_sum", lambda t1, t2, ctx: seen.append((t1, t2)))
    get_case(case_id).lhs(p, ctx)
    return seen[0]


def jacobi_point(case_id, ctx, n=None):
    for seed in range(200):
        p = sample(case_id, seed, ctx)
        if n is None or p["n"] == n:
            return p
    raise AssertionError("no sample with the requested n")


class TestJacobiHalves:
    """thm-b, corl-b and thm-d halves against their term formula, from scratch."""

    @pytest.mark.parametrize("q", [0.5, -0.5, 0.95, 0.5 + 0.3j])
    @pytest.mark.parametrize("case_id, n", [("thm-b", None), ("corl-b", 1),
                                            ("corl-b", 2), ("thm-d-multivar", 2)])
    def test_halves_match_term_formula(self, case_id, n, q, monkeypatch):
        ctx = QContext(q)
        p = jacobi_point(case_id, ctx, n)
        streams = jacobi_streams(case_id, p, ctx, monkeypatch)
        for stream, half in zip(streams, jacobi_halves(case_id, p, ctx.q)):
            want = jacobi_reference(half, ctx)
            got = list(itertools.islice(flat(stream), len(want)))
            scale = sum(abs(t) for t in want)
            assert abs(sum(got) - sum(want)) < 1e-13 * scale

    def test_terminating_half(self, monkeypatch):
        # b = y q^2 makes the first half's base w = q^2: (q^{-k} w;q)_k = 0 for
        # k >= 2, so that stream ends after two terms
        ctx = QContext(0.5)
        p = dict(sample("thm-b", 3, ctx))
        p["b"] = p["y"] * ctx.q ** 2
        first, _ = jacobi_streams("thm-b", p, ctx, monkeypatch)
        got = list(itertools.islice(flat(first), 50))
        want = jacobi_reference(jacobi_halves("thm-b", p, ctx.q)[0], ctx)
        assert len(got) == 2 and abs(want[2]) < 1e-14 * abs(want[0])
        assert all(abs(g - w) < 1e-14 * abs(w) for g, w in zip(got, want))


def near_pole_thma_point(ctx):
    """A thm-a point whose R block lower parameter q e/f sits 3e-7 from q^{-1}."""
    p = dict(sample("thm-a-7var", 0, ctx))
    p["f"] = 0.3 * p["f"] / abs(p["f"])
    p["e"] = p["f"] * ipow(ctx.q, -2) * (1.0 + 3e-7)
    return p


def rand_complex(rng, lo, hi):
    r = rng.uniform(lo, hi)
    return r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def thmb_limit_points(count):
    """The first thm-b limit-smoke points: b = c = e = 1e-6 stand-ins, f = x y^2 / d."""
    rng = random.Random(43)
    points = []
    for _ in range(count):
        x = rand_complex(rng, 0.55, 0.85)
        y = rand_complex(rng, 0.6, 0.9)
        d = rand_complex(rng, 0.2, 0.5)
        points.append({"x": x, "y": y, "b": 1e-6, "c": 1e-6, "d": d, "e": 1e-6,
                       "f": x * y * y / d})
    return points


class TestNearPole:
    """``check`` skips a point where a base the evaluators divide by lies near
    a power of q; the bases are recorded by qcore only while ``check`` runs."""

    def test_recorded_divisor_base_near_pole_skips(self):
        ctx = QContext(0.5)
        p = near_pole_thma_point(ctx)
        assert get_case("thm-a-7var").domain(p, ctx)
        r = check("thm-a-7var", p, ctx)
        assert r.verdict == "skipped"
        # the base q e/f as the 8phi7 builder derives it: q a0/u with
        # a0 = deg/(abf) and u = dg/(ab)
        a, b, d, e, f, g = (p[k] for k in "abdefg")
        a0, u = d * e * g / (a * b * f), d * g / (a * b)
        assert repr(ctx.q * a0 / u) in r.reason

    def test_cli_check_of_near_pole_point_exits_2(self, tmp_path, capsys):
        p = near_pole_thma_point(QContext(0.5))
        path = tmp_path / "near.toml"
        path.write_text("".join(f"{k} = [{v.real!r}, {v.imag!r}]\n" for k, v in p.items()))
        assert main(["check", "thm-a-7var", "--params", str(path), "--q", "0.5"]) == 2
        assert "divisor base" in capsys.readouterr().out

    def test_base_near_a_positive_power_is_not_a_pole(self):
        # 1 - x q^k, k >= 0, vanishes only at x = q^{-k}: the divisor base
        # 0.250000025 next to q^2 divides by nothing small
        p = {"a": -0.5 * (1 + 1e-7), "b": 0.6, "c": 0.3, "d": 0.4, "e": 0.35}
        r = check("ma-5var", {k: complex(v) for k, v in p.items()}, QContext(0.5))
        assert r.verdict == "pass" and r.rel_residual < 1e-15, r

    def test_recorder_is_off_outside_check(self, monkeypatch):
        ctx = QContext(0.3)
        bailey = {"a": 0.5, "b": 0.9, "c": 0.8, "d": 0.7, "e": 0.6}
        thme = {"a": 0.3, "b": 0.4, "c": 0.35, "d": 0.45, "n": 1, "N": [0],
                "u": [0.5], "v": [0.5]}
        rhs = get_case("bailey-6psi6").rhs
        before = rhs(bailey, ctx)
        assert check("thm-e-integral", thme, QContext(0.95)).reason.startswith("PoleError")
        assert qcore._recorded is None
        assert check("bailey-6psi6", bailey, ctx).verdict == "pass"
        assert qcore._recorded is None

        def broken(spec, ctx):
            raise ZeroDivisionError("planted")

        monkeypatch.setattr("qverify.identities.integrate_aw", broken)
        r = check("thm-e-integral", thme, ctx)
        assert r.verdict == "fail" and "evaluator error" in r.reason
        assert qcore._recorded is None
        assert rhs(bailey, ctx) == before
        assert qcore._recorded is None

    def test_non_finite_side_is_never_judged(self, monkeypatch):
        # the thm-b limit smoke's draw at q = 0.8: b = c = e = 1e-6 stand-ins
        # take the closed form's products past 1e308
        ctx = QContext(0.8)
        for p in thmb_limit_points(6):
            with np.errstate(all="ignore"):
                r = check("thm-b", p, ctx)
            assert r.verdict == "pass" or (r.verdict == "skipped" and r.reason), r
        monkeypatch.setattr("qverify.identities.qfrac", lambda *args: complex("nan"))
        bailey = {"a": 0.5, "b": 0.9, "c": 0.8, "d": 0.7, "e": 0.6}
        r = check("bailey-6psi6", bailey, QContext(0.3))
        assert r.verdict == "skipped" and r.reason.startswith("rhs is not finite"), r

    def test_grid_of_q_powers_is_read_from_one_tuple_per_q(self):
        from qverify.qcore import _POLE_MARGIN, _near_pole

        def oracle(values, q):  # ipow(q, j) at every probe
            for v in values:
                j0 = math.floor(math.log(abs(v)) / math.log(abs(q)))
                for j in (j0 - 1, j0, j0 + 1, j0 + 2):
                    ref, tol = ipow(q, j), qcore.SNAP_RTOL
                    if -60 <= j <= 0 and tol * abs(ref) < abs(v - ref) < _POLE_MARGIN * abs(ref):
                        return v
            return None

        rng = random.Random(44)
        for q in (0.5, -0.8, 0.5 + 0.3j, complex(0.8, -0.0), 0.95):
            ctx = QContext(q)
            for _ in range(200):
                v = ipow(ctx.q, -rng.randint(0, 70)) * (1.0 + rng.choice((1e-14, 1e-9, 1e-6, 1e-3)))
                want = oracle([v], ctx.q)
                got = _near_pole([v], ctx.q)
                assert got == (None if want is None else
                               f"divisor base {want!r} lies within 1e-05 of a power of q")

    @pytest.mark.parametrize("case_id", ["ramanujan-reciprocity", "watson", "bailey-6psi6"])
    def test_tiny_q_is_judged(self, case_id):
        # q^60 underflows at |q| = 1e-6: the grid test skips those powers instead of
        # dividing by zero
        ctx = QContext(1e-6)
        r = check(case_id, sample(case_id, 1, ctx), ctx)
        assert r.verdict in ("pass", "skipped"), r

    def test_tiny_q_sweep_exits_0(self, tmp_path):
        assert main(["sweep", "--identity", "ramanujan-reciprocity", "watson", "bailey-6psi6",
                     "--samples", "2", "--q", "1e-6", "--out", str(tmp_path / "r.json")]) == 0

    def test_overflowing_closed_form_is_judged(self):
        # there the plain products of (x;q)_oo overflow to nan; qfrac's
        # mantissa x 2^e fallback keeps the ratio, so 5 of the 6 points pass
        ctx = QContext(0.8)
        reports = [check("thm-b", p, ctx) for p in thmb_limit_points(6)]
        assert [r.verdict for r in reports] == ["pass"] * 3 + ["skipped"] + ["pass"] * 2
        assert max(r.rel_residual for r in reports) < 1e-13
        assert reports[3].reason.startswith("IllConditioned")


class TestProductDeclarations:
    """Each case's ``products`` lists exactly the (x;q)_oo bases that its rhs computes."""

    @pytest.mark.parametrize("case_id", case_ids())
    def test_rhs_requests_the_declared_bases(self, case_id, monkeypatch):
        case = get_case(case_id)
        requested = []
        kernel = qcore.qpoch_inf_many

        def recorded(xs, ctx):
            requested.extend(np.asarray(xs, complex).ravel().tolist())
            return kernel(xs, ctx)

        monkeypatch.setattr(qcore, "qpoch_inf_many", recorded)
        checked, declared_any = 0, False
        for q, seed in itertools.product((0.3, 0.8, -0.5, 0.5 + 0.3j), range(10)):
            ctx = QContext(q)
            try:
                point = _evaluated_point(case, sample(case_id, seed, ctx), ctx)
            except qcore.SamplingExhausted:
                continue
            if point is None:
                continue
            declared = {qcore._bits(x.real, x.imag)
                        for numer, denom in case.products(point, ctx) for x in (*denom, *numer)}
            declared_any |= bool(declared)
            requested.clear()
            try:
                case.rhs(point, ctx)
                done = True
            except qcore.QVerifyError:
                done = False
            got = {qcore._bits(x.real, x.imag) for x in requested}
            # a base the declaration misses would cost a kernel call, not a value
            assert got <= declared, (q, seed)
            if done:  # no declared base is dead
                assert got == declared, (q, seed)
                checked += 1
        # watson's products are of finite order, so it declares none
        assert checked > 0 and declared_any == (case_id != "watson")
