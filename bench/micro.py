"""Microbenchmarks of each layer's kernels on fixed inputs.

Every input is a constant, so the figures do not depend on the seed.  The
q values bracket the sweep plans: 0.3 and 0.8 from the default plan, 0.95
from near-one, where products and series ladders run long.
"""

from __future__ import annotations

import cmath
import statistics
import time

import pace
from qverify import (
    INF,
    AWIntegrandSpec,
    QContext,
    SeriesSpec,
    eval_phi,
    eval_psi,
    get_case,
    integrate_aw,
    ipow,
    omega,
    qfrac,
    qpoch_inf,
)

Q_VALUES = {"q030": 0.3, "q080": 0.8, "q095": 0.95}


def _polar(r, phase):
    return r * cmath.exp(1j * phase)


# a generic complex base with |x| = 0.5
QPOCH_BASE = _polar(0.5, 0.7)
# bases spread around the circle, so the products stay far from the
# absolute pole guard of qfrac even at q = 0.95
QFRAC_NUM = [_polar(0.45, 0.3 + 0.698 * j) for j in range(9)]
QFRAC_DEN = [_polar(0.4, 0.1 + 0.698 * j) for j in range(9)]
PHI_8PHI7 = SeriesSpec(
    upper=[_polar(0.3 + 0.05 * j, 0.4 * j) for j in range(8)],
    lower=[_polar(0.4 + 0.05 * j, 0.9 - 0.3 * j) for j in range(7)],
    argument=_polar(0.5, 0.2),
)
PSI_6PSI6 = SeriesSpec(
    upper=[_polar(0.9, 0.5 * j) for j in range(6)],
    lower=[_polar(0.7, 1.0 - 0.4 * j) for j in range(6)],
    argument=_polar(0.6, -0.3),
    kind="bilateral",
)
# a point that is well conditioned at every q used here (at most points the
# difference cancels below what doubles can attest once q >= 0.8)
MA5VAR = {
    "a": _polar(0.3, -3.05), "b": _polar(0.77, 1.61), "c": _polar(0.64, -1.57),
    "d": _polar(0.17, -2.45), "e": _polar(0.11, 0.78),
}
# one pair with offset N = 0 (u = v): the stated closed form is exact there
AW_ONE_PAIR = AWIntegrandSpec(0.3, 0.4, 0.35, 0.45, u=(0.5,), v=(0.5,))


def _omega_n3(ctx):
    q = ctx.q
    v = [0.5, 0.6, 0.55]
    N = [2, 1, 1]
    u = [v[i] * ipow(q, N[i]) for i in range(3)]
    return omega(0.3, 0.4, 0.35, 0.45, u, v, N, ctx)


def per_call_s(fn, min_batch_s=0.02, repeats=5) -> float:
    """Median seconds per call over `repeats` batches of at least min_batch_s,
    rescaled to the reference speed by a probe taken right after."""
    fn()  # warm caches and lazy imports outside the timing
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        loops *= 2
    batches = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        batches.append((time.perf_counter() - t0) / loops)
    return pace.rescale(statistics.median(batches), pace.probe())


def run(smoke: bool = False) -> dict:
    """Every microbenchmark metric, by name, in its unit (us or ms)."""
    batch = 0.002 if smoke else 0.02
    ma_lhs = get_case("ma-5var").lhs
    out = {}
    for tag, q in Q_VALUES.items():
        ctx = QContext(q)
        runs = {
            f"qcore.qpoch_inf_us.{tag}": lambda: qpoch_inf(QPOCH_BASE, ctx),
            f"qcore.qfrac_inf_9x9_us.{tag}": lambda: qfrac(QFRAC_NUM, QFRAC_DEN, INF, ctx),
            f"series.eval_phi_8phi7_us.{tag}": lambda: eval_phi(PHI_8PHI7, ctx),
            f"series.eval_psi_6psi6_us.{tag}": lambda: eval_psi(PSI_6PSI6, ctx),
            f"identities.ma5var_lhs_us.{tag}": lambda: ma_lhs(MA5VAR, ctx),
        }
        for name, fn in runs.items():
            out[name] = 1e6 * per_call_s(fn, batch)
        out[f"integrals.integrate_aw_ms.{tag}"] = 1e3 * per_call_s(
            lambda: integrate_aw(AW_ONE_PAIR, ctx), batch, repeats=3
        )
    ctx = QContext(0.5)
    out["multisum.omega_n3_us"] = 1e6 * per_call_s(lambda: _omega_n3(ctx), batch)
    return out
