"""qverify: numerics for basic hypergeometric series and q-beta integrals.

The package evaluates q-shifted factorials, unilateral and bilateral
basic hypergeometric series, terminating multi-index sums and
Askey-Wilson-type integrals, and verifies a registry of reciprocity-type
identities against quantified numerical tolerances over seeded parameter
sweeps.
"""

from .qcore import (
    INF,
    CapExceeded,
    ConstraintViolation,
    DivergentSeries,
    DivisionByNearZero,
    NoConvergence,
    PoleError,
    QContext,
    QVerifyError,
    SamplingExhausted,
    SeriesResult,
    UnknownParam,
    ipow,
    qfrac,
    qpoch,
    qpoch_inf,
    qpoch_multi,
    terminating_order,
)
from .series import SeriesSpec, eval_bilateral_split, eval_phi, eval_psi
from .multisum import block_multisum, compositions, milne_rhs_block, omega
from .integrals import (
    AWIntegrandSpec,
    QuadratureResult,
    aw_closed_form,
    aw_residue_correction,
    corl_e_rhs,
    integrate_aw,
    thm_e_rhs,
)
from .identities import (
    IdentityCase,
    VerificationReport,
    case_ids,
    check,
    get_case,
    registry,
    sample,
    swap_params,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "QContext",
    "QVerifyError",
    "PoleError",
    "CapExceeded",
    "DivergentSeries",
    "NoConvergence",
    "ConstraintViolation",
    "DivisionByNearZero",
    "UnknownParam",
    "SamplingExhausted",
    "SeriesResult",
    "SeriesSpec",
    "AWIntegrandSpec",
    "QuadratureResult",
    "IdentityCase",
    "VerificationReport",
    "ipow",
    "terminating_order",
    "qpoch",
    "qpoch_inf",
    "qpoch_multi",
    "qfrac",
    "eval_phi",
    "eval_psi",
    "eval_bilateral_split",
    "block_multisum",
    "compositions",
    "milne_rhs_block",
    "omega",
    "integrate_aw",
    "aw_closed_form",
    "thm_e_rhs",
    "aw_residue_correction",
    "corl_e_rhs",
    "registry",
    "case_ids",
    "get_case",
    "check",
    "sample",
    "swap_params",
    "__version__",
]
