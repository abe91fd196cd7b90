"""Acceptance criteria, one test per criterion, one printed line each.

Criterion 5 contains the multi-variable q-beta-integral checks.  The
stated closed form of that family is genuinely wrong whenever a pair
offset N_i >= 1 (its constant-term derivation drops residue
contributions; tests/test_integrals.py pins the corrected form to
quadrature at 1e-9).  Those sub-checks are implemented faithfully as
stated and therefore fail honestly; everything else passes.
"""

import cmath
import dataclasses
import json
import math
import random
import time

from qverify.qcore import QContext, ipow, qfrac, qpoch, INF
from qverify.identities import _SKIP_ERRORS
from qverify.identities import (
    check,
    get_case,
    registry,
    sample,
    swap_params,
)
from qverify.integrals import (
    AWIntegrandSpec,
    aw_closed_form,
    aw_residue_correction,
    integrate_aw,
    thm_e_rhs,
)
from qverify import cli

Q_VALUES = (0.3, 0.5, 0.8)


def announce(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))


def rand_complex(rng, lo=0.1, hi=0.9):
    r = rng.uniform(lo, hi)
    ph = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * ph)


def passing_samples(case_id, ctx, want, seed0=0, cap_factor=8):
    """Yield `want` non-skipped reports, resampling skips deterministically."""
    out = []
    seed = seed0
    cap = seed0 + cap_factor * want
    while len(out) < want and seed < cap:
        p = sample(case_id, seed, ctx)
        r = check(case_id, p, ctx, seed=seed)
        seed += 1
        if r.verdict != "skipped":
            out.append(r)
    assert len(out) == want, f"{case_id}: only {len(out)} usable samples by seed {cap}"
    return out


# -------------------------------------------------------------------------
# criterion 1: qcore randomized property suite


def test_criterion_1_qcore_properties():
    t0 = time.monotonic()
    rng = random.Random(101)
    count = 0
    for _ in range(250):  # splicing
        q = rng.uniform(0.2, 0.85)
        ctx = QContext(q)
        x = rand_complex(rng)
        m, n = rng.randint(-6, 6), rng.randint(-6, 6)
        lhs = qpoch(x, m + n, ctx)
        rhs = qpoch(x, m, ctx) * qpoch(x * ipow(ctx.q, m), n, ctx)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs)), ("splice", x, m, n, q)
        count += 1
    for _ in range(250):  # inversion
        q = rng.uniform(0.2, 0.85)
        ctx = QContext(q)
        x = rand_complex(rng)
        n = rng.randint(1, 10)
        lhs = qpoch(x, -n, ctx)
        rhs = 1.0 / qpoch(x * ipow(ctx.q, -n), n, ctx)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs), ("invert", x, n, q)
        count += 1
    for _ in range(250):  # the q-power reflection relation
        q = rng.uniform(0.2, 0.85)
        ctx = QContext(q)
        a = rand_complex(rng)
        k = rng.randint(0, 20)
        lhs = qpoch(q / a, k, ctx)
        rhs = ipow(-1 + 0j, k) * ipow(ctx.q, k * (k + 1) // 2) * ipow(a, -k)
        rhs *= qpoch(ipow(ctx.q, -k) * a, k, ctx)
        assert abs(lhs - rhs) <= 1e-12 * max(1e-30, abs(lhs)), ("reflect", a, k, q)
        count += 1
    from qverify.qcore import qpoch_inf

    for _ in range(250):  # infinite/finite consistency
        q = rng.uniform(0.2, 0.8)
        ctx = QContext(q)
        x = rand_complex(rng)
        n = rng.randint(1, 8)
        full = qpoch_inf(x, ctx)
        shifted = qpoch_inf(x * ipow(ctx.q, n), ctx)
        fin = qpoch(x, n, ctx)
        bound = (full.abs_error_estimate / abs(full.value)
                 + shifted.abs_error_estimate / abs(shifted.value) + 1e-12)
        assert abs(full.value / shifted.value - fin) <= bound * abs(fin)
        count += 1
    elapsed = time.monotonic() - t0
    assert count == 1000
    assert elapsed < 5.0, f"criterion-1 runtime {elapsed:.1f}s"
    announce("criterion-1 qcore-properties", True,
             f"1000 assertions at 1e-12 in {elapsed:.2f}s")


# -------------------------------------------------------------------------
# criterion 2: classical identities, 50 samples per q in {0.3, 0.5, 0.8}

CLASSICAL = [
    "watson", "bailey-6psi6", "ramanujan-reciprocity", "andrews-4var",
    "kang-equivalent", "ma-5var", "chu-zhang-equivalent", "gr-2-10-1",
    "gr-5-6-1",
]


def test_criterion_2_classical_identities():
    t0 = time.monotonic()
    worst = 0.0
    for q in Q_VALUES:
        ctx = QContext(q)
        for cid in CLASSICAL:
            for r in passing_samples(cid, ctx, 50):
                assert r.verdict == "pass", (cid, q, r.sample_seed, r.rel_residual)
                assert r.rel_residual < 1e-8
                worst = max(worst, r.rel_residual)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"criterion-2 runtime {elapsed:.1f}s"
    announce("criterion-2 classical-identities", True,
             f"9 identities x 50 samples x 3 q, worst rel {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 3: the new results, 50 samples each (q cycles over the sweep set)

NEW_RESULTS = [
    "lemma-8psi8", "thm-a-7var", "corl-a", "thm-b", "corl-b",
    "lemma-milne", "thm-c-multivar", "thm-d-multivar",
]


def test_criterion_3_new_results():
    t0 = time.monotonic()
    worst = 0.0
    ctxs = [QContext(q) for q in Q_VALUES]
    for cid in NEW_RESULTS:
        got = 0
        slot = 0
        while got < 50 and slot < 400:
            ctx = ctxs[slot % 3]
            p = sample(cid, slot, ctx)
            r = check(cid, p, ctx, seed=slot)
            slot += 1
            if r.verdict == "skipped":
                continue
            assert r.verdict == "pass", (cid, ctx.q, r.sample_seed, r.rel_residual)
            assert r.rel_residual < 1e-8
            worst = max(worst, r.rel_residual)
            got += 1
        assert got == 50, f"{cid}: only {got} usable samples"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"criterion-3 runtime {elapsed:.1f}s"
    announce("criterion-3 new-results", True,
             f"8 identities x 50 samples, worst rel {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 4: the nine paper-stated reductions + the limit-flavoured checks


def _admissible(case_id, params, ctx):
    return get_case(case_id).domain(params, ctx)


def _eval_ctx(ctx):
    # same working tolerance the check harness uses
    return dataclasses.replace(
        ctx, series_tol=max(1e-15, 0.1 * ctx.series_tol * (1.0 - abs(ctx.q)))
    )


def _eval_case(case_id, params, ctx):
    case = get_case(case_id)
    ectx = _eval_ctx(ctx)
    return case.lhs(params, ectx), case.rhs(params, ectx)


def _close(x, y, tol):
    return abs(x - y) <= tol * max(abs(x), abs(y), 1e-30)


def _run_reduction(builder, evaluate, ctx, npoints, seed0=0):
    """Evaluate ``npoints`` admissible mapped parameter draws.

    Points whose evaluation is unverifiable in doubles (pole proximity or
    catastrophic cancellation) are resampled, mirroring the skip semantics
    of the check harness; genuine mismatches raise.
    """
    rng = random.Random(seed0)
    done = 0
    attempts = 0
    while done < npoints and attempts < 600 * npoints:
        attempts += 1
        pair = builder(rng, ctx)
        if pair is None:
            continue
        try:
            evaluate(*pair)
        except _SKIP_ERRORS:
            continue
        done += 1
    assert done == npoints, "could not evaluate enough admissible reduction points"



def test_criterion_4_reduction_web():
    t0 = time.monotonic()
    ctx = QContext(0.5)
    npts = 10
    checked = []

    # 1. the 8psi8 lemma at g = qa/e collapses onto the bilateral 6psi6
    def build_lemma(rng, c):
        q = c.q
        a = rand_complex(rng, 0.35, 0.7)
        b, cc, d, f = (rand_complex(rng, 0.6, 0.9) for _ in range(4))
        e = rand_complex(rng, 0.45, 0.75)
        p8 = {"a": a, "b": b, "c": cc, "d": d, "e": e, "f": f, "g": q * a / e}
        p6 = {"a": a, "b": b, "c": cc, "d": d, "e": f}
        if not (_admissible("lemma-8psi8", p8, c) and _admissible("bailey-6psi6", p6, c)):
            return None
        return p8, p6

    def eval_lemma(p8, p6):
        l8, r8 = _eval_case("lemma-8psi8", p8, ctx)
        l6, r6 = _eval_case("bailey-6psi6", p6, ctx)
        assert _close(l8, l6, 1e-10) and _close(r8, r6, 1e-10)

    _run_reduction(build_lemma, eval_lemma, ctx, npts, seed0=11)
    checked.append("lemma@g=qa/e->bailey")

    # 2. seven-variable reciprocity at g = ab/e, factor e/((a+e)(b+e))
    def build_thma(rng, c):
        q = c.q
        a, b = (rand_complex(rng, 0.4, 0.9) for _ in range(2))
        cc, d, e_ma = (rand_complex(rng, 0.15, 0.5) for _ in range(3))
        big_e = rand_complex(rng, 0.3, 0.8)
        pa = {"a": a, "b": b, "c": cc, "d": d, "e": big_e, "f": e_ma,
              "g": a * b / big_e}
        pm = {"a": a, "b": b, "c": cc, "d": d, "e": e_ma}
        if not (_admissible("thm-a-7var", pa, c) and _admissible("ma-5var", pm, c)):
            return None
        return pa, pm

    def eval_thma(pa, pm):
        F = pa["e"] / ((pa["a"] + pa["e"]) * (pa["b"] + pa["e"]))
        la, ra = _eval_case("thm-a-7var", pa, ctx)
        lm, rm = _eval_case("ma-5var", pm, ctx)
        assert _close(la, F * lm, 1e-10) and _close(ra, F * rm, 1e-10)

    _run_reduction(build_thma, eval_thma, ctx, npts, seed0=13)
    checked.append("thm-a@g=ab/e->ma")

    # 3. corl-a at n = 0, factor f/((a+f)(b+f))
    def build_corla(rng, c):
        a, b = (rand_complex(rng, 0.45, 0.9) for _ in range(2))
        cc, d, e = (rand_complex(rng, 0.12, 0.4) for _ in range(3))
        f = rand_complex(rng, 0.3, 0.8)
        pc = {"a": a, "b": b, "c": cc, "d": d, "e": e, "f": f, "n": 0}
        pm = {"a": a, "b": b, "c": cc, "d": d, "e": e}
        if not (_admissible("corl-a", pc, c) and _admissible("ma-5var", pm, c)):
            return None
        return pc, pm

    def eval_corla(pc, pm):
        F = pc["f"] / ((pc["a"] + pc["f"]) * (pc["b"] + pc["f"]))
        lc, rc = _eval_case("corl-a", pc, ctx)
        lm, rm = _eval_case("ma-5var", pm, ctx)
        assert _close(lc, F * lm, 1e-10) and _close(rc, F * rm, 1e-10)

    _run_reduction(build_corla, eval_corla, ctx, npts, seed0=17)
    checked.append("corl-a@n=0->ma")

    # 4. thm-c at n = 0 equals ma exactly
    def build_thmc0(rng, c):
        a, b = (rand_complex(rng, 0.45, 0.9) for _ in range(2))
        cc, d, e = (rand_complex(rng, 0.12, 0.4) for _ in range(3))
        pt = {"a": a, "b": b, "c": cc, "d": d, "e": e, "n": 0, "N": [], "x": [], "y": []}
        pm = {"a": a, "b": b, "c": cc, "d": d, "e": e}
        if not (_admissible("thm-c-multivar", pt, c) and _admissible("ma-5var", pm, c)):
            return None
        return pt, pm

    def eval_thmc0(pt, pm):
        lt, rt = _eval_case("thm-c-multivar", pt, ctx)
        lm, rm = _eval_case("ma-5var", pm, ctx)
        assert _close(lt, lm, 1e-10) and _close(rt, rm, 1e-10)

    _run_reduction(build_thmc0, eval_thmc0, ctx, npts, seed0=19)
    checked.append("thm-c@n=0->ma")

    # 5. thm-c at n = 1 equals corl-a under x1 -> f, N1 -> n
    def build_thmc1(rng, c):
        q = c.q
        a, b = (rand_complex(rng, 0.45, 0.9) for _ in range(2))
        cc, d, e = (rand_complex(rng, 0.12, 0.4) for _ in range(3))
        f = rand_complex(rng, 0.3, 0.8)
        n = rng.randint(0, 3)
        pc = {"a": a, "b": b, "c": cc, "d": d, "e": e, "f": f, "n": n}
        pt = {"a": a, "b": b, "c": cc, "d": d, "e": e, "n": 1, "N": [n],
              "x": [f], "y": [a * b / (f * ipow(q, n))]}
        if not (_admissible("corl-a", pc, c) and _admissible("thm-c-multivar", pt, c)):
            return None
        return pt, pc

    def eval_thmc1(pt, pc):
        lt, rt = _eval_case("thm-c-multivar", pt, ctx)
        lc, rc = _eval_case("corl-a", pc, ctx)
        assert _close(lt, lc, 1e-10) and _close(rt, rc, 1e-10)

    _run_reduction(build_thmc1, eval_thmc1, ctx, npts, seed0=23)
    checked.append("thm-c@n=1->corl-a")

    # 6. thm-d at n = 0 against an independently coded triple-product target
    def theorem9_target(p, c):
        q = c.q
        x, y, b, cc, d = (p[k] for k in ("x", "y", "b", "c", "d"))

        def lhs_sum(prefv, shift, lows, zz):
            s = 0.0 + 0.0j
            for k in range(80):
                t = (1 - ipow(q, 2 * k + 1) * prefv) * qpoch(lows[0], k, c)
                for w in shift:
                    t *= qpoch(ipow(q, -k) * w, k, c)
                for l in lows[1:]:
                    t /= qpoch(l, k + 1, c)
                t *= ipow(q, (3 * k * k + k) // 2) * ipow(zz, k)
                s += t
                if abs(t) < 1e-18 * max(1.0, abs(s)) and k > 3:
                    break
            return s

        lhs = lhs_sum(1.0 / x, [b / y, cc / y, d / y],
                      [q / (x * y), y, b / (x * y), cc / (x * y), d / (x * y)],
                      -y / x)
        lhs -= x * lhs_sum(x, [b / (x * y), cc / (x * y), d / (x * y)],
                           [q / y, x * y, b / y, cc / y, d / y], -x * x * y)
        xy2 = x * y * y
        rhs = qfrac(
            [q, x, q / x, b, cc, d, b * cc / xy2, b * d / xy2, cc * d / xy2],
            [y, x * y, b / y, cc / y, d / y, b / (x * y), cc / (x * y),
             d / (x * y), b * cc * d / (q * xy2)],
            INF, c,
        )
        return lhs, rhs

    def build_thmd0(rng, c):
        x = rand_complex(rng, 0.5, 0.9)
        y = rand_complex(rng, 0.55, 0.9)
        b, cc, d = (rand_complex(rng, 0.1, 0.35) for _ in range(3))
        pd = {"x": x, "y": y, "b": b, "c": cc, "d": d, "n": 0, "N": [],
              "xv": [], "yv": []}
        if not _admissible("thm-d-multivar", pd, c):
            return None
        return (pd,)

    def eval_thmd0(pd):
        ld, rd = _eval_case("thm-d-multivar", pd, ctx)
        lt, rt = theorem9_target(pd, ctx)
        assert _close(ld, lt, 1e-10) and _close(rd, rt, 1e-10)

    _run_reduction(build_thmd0, eval_thmd0, ctx, npts, seed0=29)
    checked.append("thm-d@n=0->triple-product-target")

    # 7. thm-d at n = 1 equals corl-b under x1 -> e, N1 -> n
    def build_thmd1(rng, c):
        q = c.q
        x = rand_complex(rng, 0.5, 0.9)
        y = rand_complex(rng, 0.55, 0.9)
        b, cc, d = (rand_complex(rng, 0.1, 0.35) for _ in range(3))
        e = rand_complex(rng, 0.25, 0.7)
        n = rng.randint(0, 2)
        pb = {"x": x, "y": y, "b": b, "c": cc, "d": d, "e": e, "n": n}
        pd = {"x": x, "y": y, "b": b, "c": cc, "d": d, "n": 1, "N": [n],
              "xv": [e], "yv": [x * y * y / (e * ipow(q, n))]}
        if not (_admissible("corl-b", pb, c) and _admissible("thm-d-multivar", pd, c)):
            return None
        return pd, pb

    def eval_thmd1(pd, pb):
        ld, rd = _eval_case("thm-d-multivar", pd, ctx)
        lb, rb = _eval_case("corl-b", pb, ctx)
        assert _close(ld, lb, 1e-10) and _close(rd, rb, 1e-10)

    _run_reduction(build_thmd1, eval_thmd1, ctx, npts, seed0=31)
    checked.append("thm-d@n=1->corl-b")

    # 8. the integral theorem at n = 0 is the plain q-beta integral, exactly
    rng = random.Random(37)
    for _ in range(npts):
        a, b, c, d = (rng.uniform(-0.7, 0.7) for _ in range(4))
        got = thm_e_rhs(a, b, c, d, (), (), (), ctx)
        want = aw_closed_form(a, b, c, d, ctx)
        assert _close(got, want, 1e-12)
    checked.append("thm-e@n=0->q-beta")

    # 9. the integral theorem at n = 1 against the one-pair corollary form
    from qverify.identities import _corlc_rhs

    rng = random.Random(41)
    done = 0
    while done < npts:
        a, b, c, d = (rng.uniform(-0.55, 0.55) for _ in range(4))
        u = rng.uniform(0.15, 0.7) * (1 if rng.random() < 0.5 else -1)
        n = rng.randint(0, 2)
        p = {"a": a, "b": b, "c": c, "d": d, "u": u, "n": n}
        if not _admissible("corl-c-integral", p, ctx):
            continue
        got = thm_e_rhs(a, b, c, d, (u * ipow(ctx.q, n),), (u,), (n,), ctx)
        want = _corlc_rhs(p, ctx)
        assert _close(got, want, 1e-10)
        done += 1
    checked.append("thm-e@n=1->corl-3.2")

    # limit-flavoured reduction: b, c, e -> 0 stand-ins at 1e-6, f = xy^2/d,
    # smoke-checked on the identity itself at the widened tolerance
    from qverify.identities import _thmb_lhs, _S_block

    rng = random.Random(43)
    done = 0
    while done < 3:
        x = rand_complex(rng, 0.55, 0.85)
        y = rand_complex(rng, 0.6, 0.9)
        d = rand_complex(rng, 0.2, 0.5)
        eps = 1e-6
        p = {"x": x, "y": y, "b": eps, "c": eps, "d": d, "e": eps,
             "f": x * y * y / d}
        try:
            lhs = _thmb_lhs(p, ctx)
            rhs = (_S_block(p, ctx)[0]
                   + _S_block(swap_params(p, "e", "f"), ctx)[0])
        except Exception:
            continue
        assert abs(lhs - rhs) < 1e-4 * max(abs(lhs), abs(rhs))
        done += 1
    checked.append("thm-b limit smoke (1e-6 stand-ins at 1e-4)")

    elapsed = time.monotonic() - t0
    assert len(checked) == 10
    announce("criterion-4 reduction-web", True,
             f"{len(checked) - 1} reductions x {npts} points + limit smoke, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 5: the integral suite


def test_criterion_5a_quadrature_vs_closed_form():
    t0 = time.monotonic()
    rng = random.Random(51)
    worst = 0.0
    for q in Q_VALUES:
        ctx = QContext(q)
        for _ in range(25):
            a, b, c, d = (rng.uniform(-0.7, 0.7) for _ in range(4))
            r = integrate_aw(AWIntegrandSpec(a, b, c, d), ctx)
            cf = aw_closed_form(a, b, c, d, ctx).real
            rel = abs(r.value - cf) / abs(cf)
            worst = max(worst, rel)
            assert rel < 1e-9, (q, a, b, c, d, rel)
    elapsed = time.monotonic() - t0
    announce("criterion-5a quadrature-vs-closed-form", True,
             f"75 draws, worst rel {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 180.0


def _thm_e_combo_case(rng, ctx, N):
    budget = 0.8 * abs(ipow(ctx.q, sum(N) + 1))
    hi = min(0.7, max(0.12, budget ** 0.25))
    a, b, c, d = (rng.uniform(0.1, hi) * (1 if rng.random() < 0.5 else -1)
                  for _ in range(4))
    vs = tuple(rng.uniform(0.2, 0.65) * (1 if rng.random() < 0.5 else -1)
               for _ in range(len(N)))
    us = tuple(v * ipow(ctx.q, n).real for v, n in zip(vs, N))
    return a, b, c, d, us, vs


def test_criterion_5b_multivar_integral_end_to_end():
    """thm-e-integral end-to-end for n in {1,2}, N_i in {0,1,2}, as stated.

    KNOWN DEFECT OF THE STATED FORMULA: cells with some N_i >= 1 fail (the
    stated closed form misses residue contributions; quadrature equals
    stated form + residue correction to 1e-9, pinned in
    tests/test_integrals.py).  This test runs the criterion faithfully.
    """
    t0 = time.monotonic()
    rng = random.Random(53)
    ctx = QContext(0.5)
    combos = [(n1,) for n1 in (0, 1, 2)] + [
        (n1, n2) for n1 in (0, 1, 2) for n2 in (0, 1, 2)
    ]
    failures = []
    for N in combos:
        a, b, c, d, us, vs = _thm_e_combo_case(rng, ctx, N)
        lhs = integrate_aw(AWIntegrandSpec(a, b, c, d, u=us, v=vs), ctx).value
        rhs = thm_e_rhs(a, b, c, d, us, vs, N, ctx).real
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        if rel >= 1e-8:
            failures.append((N, float(rel)))
    elapsed = time.monotonic() - t0
    ok = not failures
    announce("criterion-5b thm-3.1-end-to-end", ok,
             f"{len(combos)} (n, N) combos, {elapsed:.1f}s"
             + ("" if ok else f"; stated form fails for N >= 1: {failures}"))
    assert ok, (
        "The stated multi-variable integral formula fails for pair offsets N_i >= 1: "
        f"{failures}.  This is a defect of the stated formula, not of the "
        "implementation: quadrature == stated form + residue correction to 1e-9 "
        "(see tests/test_integrals.py::TestMultiVariableIntegralDefect)."
    )


def test_criterion_5b_companion_residue_corrected():
    """Companion evidence: the same cells close to < 1e-8 once the dropped
    residues are restored, so the machinery itself is sound."""
    t0 = time.monotonic()
    rng = random.Random(53)  # same draws as 5b
    ctx = QContext(0.5)
    combos = [(n1,) for n1 in (0, 1, 2)] + [
        (n1, n2) for n1 in (0, 1, 2) for n2 in (0, 1, 2)
    ]
    worst = 0.0
    for N in combos:
        a, b, c, d, us, vs = _thm_e_combo_case(rng, ctx, N)
        lhs = integrate_aw(AWIntegrandSpec(a, b, c, d, u=us, v=vs), ctx).value
        rhs = thm_e_rhs(a, b, c, d, us, vs, N, ctx)
        rhs += aw_residue_correction(a, b, c, d, us, vs, N, ctx)
        rel = abs(lhs - rhs.real) / max(abs(lhs), abs(rhs))
        worst = max(worst, rel)
        assert rel < 1e-8, (N, rel)
    elapsed = time.monotonic() - t0
    announce("criterion-5b-companion residue-corrected", True,
             f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5c_corollaries():
    """corl-c-integral / corl-e-integral checks at 1e-8, as stated.

    KNOWN DEFECT OF THE STATED FORMULAS: fails whenever a pair offset is
    >= 1, exactly as for criterion 5b (same missing residues)."""
    t0 = time.monotonic()
    ctx = QContext(0.5)
    failures = []
    for cid in ("corl-c-integral", "corl-e-integral"):
        got = 0
        seed = 0
        while got < 10 and seed < 80:
            p = sample(cid, seed, ctx)
            r = check(cid, p, ctx, seed=seed)
            seed += 1
            if r.verdict == "skipped":
                continue
            got += 1
            if r.verdict != "pass":
                key = p.get("n") if cid == "corl-c-integral" else tuple(p.get("m", ()))
                failures.append((cid, key, r.rel_residual))
    elapsed = time.monotonic() - t0
    ok = not failures
    announce("criterion-5c corollaries-3.2-3.3", ok,
             f"{elapsed:.1f}s" + ("" if ok else f"; stated forms fail for offsets >= 1: "
                                  f"{[(c, k, f'{r:.1e}') for c, k, r in failures]}"))
    assert ok, (
        "The stated one-pair and special-parameter integral formulas fail for "
        f"pair offsets >= 1: {failures}.  Same defect as criterion 5b; the "
        "residue-corrected form matches quadrature to 1e-9."
    )


# -------------------------------------------------------------------------
# criterion 6: degenerate points


def test_criterion_6_degenerate_points():
    t0 = time.monotonic()
    ctx = QContext(0.5)
    reciprocity = [c.id for c in registry() if c.family == "reciprocity"]
    for cid in reciprocity:
        case = get_case(cid)
        placed = False
        for seed in range(40):
            p = dict(sample(cid, seed, ctx))
            p["b"] = p["a"]
            if cid == "thm-c-multivar":
                p["y"] = [p["a"] * p["b"] / (p["x"][i] * ipow(ctx.q, p["N"][i]))
                          for i in range(p["n"])]
            if not case.domain(p, ctx):
                continue
            r = check(cid, p, ctx)
            assert r.verdict == "pass", (cid, r.verdict, r.reason)
            assert abs(r.lhs) < 1e-12 and abs(r.rhs) < 1e-12
            placed = True
            break
        assert placed, f"no admissible diagonal point for {cid}"
    # domain-violating inputs are skipped, never failed
    bad_points = [
        ("bailey-6psi6", {"a": 0.9, "b": 0.1, "c": 0.1, "d": 0.1, "e": 0.1}),
        ("ma-5var", {"a": 0.1, "b": 0.1, "c": 0.9, "d": 0.9, "e": 0.9}),
        ("thm-e-integral", {"a": 0.95, "b": 0.9, "c": 0.9, "d": 0.9, "n": 1,
                            "N": [1], "u": [0.25], "v": [0.5]}),
    ]
    for cid, p in bad_points:
        r = check(cid, p, ctx)
        assert r.verdict == "skipped", (cid, r.verdict)
    elapsed = time.monotonic() - t0
    announce("criterion-6 degenerate-points", True,
             f"{len(reciprocity)} diagonals pass 0=0; domain violations skip, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 7: sweep determinism


def _strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_elapsed(x) for x in obj]
    return obj


def test_criterion_7_sweep_determinism(tmp_path):
    t0 = time.monotonic()
    args = ["sweep", "--samples", "3", "--seed", "42", "--q", "0.3,0.5,0.8"]
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    rc1 = cli.main(args + ["--out", out1])
    rc2 = cli.main(args + ["--out", out2])
    assert rc1 == rc2  # the integral defect cells fail identically in both
    d1 = json.dumps(_strip_elapsed(json.load(open(out1))), sort_keys=True)
    d2 = json.dumps(_strip_elapsed(json.load(open(out2))), sort_keys=True)
    ok = d1 == d2
    elapsed = time.monotonic() - t0
    announce("criterion-7 sweep-determinism", ok,
             f"two full sweeps byte-identical modulo elapsed, {elapsed:.1f}s")
    assert ok
