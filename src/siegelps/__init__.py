"""Numerical toolkit for holomorphic discrete-series vectors on Sp(2n, R).

Evaluates lowest-weight vectors and their matrix coefficients, decides
non-vanishing of group averages over principal congruence subgroups, and
cross-checks inner-product identities at genus 1 by direct quadrature.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AmbiguousThresholdError,
    BudgetError,
    ConvergenceError,
    DimensionError,
    DomainError,
    NumericalError,
    SamplingError,
    SiegelError,
    ZeroPolynomialError,
)
from .symplectic import (
    KAKFactors,
    NAKFactors,
    SiegelPoint,
    SymplecticMatrix,
    UnitaryMatrix,
    act,
    chi,
    diagonal_scaling,
    embed_unitary,
    haar_unitary,
    hyperbolic,
    im_transform,
    j_factor,
    j_matrix,
    kak_decompose,
    nak_decompose,
    random_symplectic,
    sp_check,
    sp_inverse,
    upper_translation,
)
from .polynomials import MatrixPolynomial, parse_polynomial
from .discrete_series import (
    MatrixCoefficientSpec,
    Weight,
    c_mn,
    f_kernel,
    f_mu_m,
    f_values,
    kernel_values,
    lift,
    lift_nak,
    matrix_coeff_kak,
    slash,
)
from .nonvanishing import (
    GeneralThreshold,
    IntegralResult,
    METHOD_CLOSED,
    METHOD_MC,
    METHOD_QUAD,
    ThresholdCell,
    ThresholdQuery,
    REFERENCE_N0,
    big_m,
    integral_phi,
    n0_detl,
    n0_detl_report,
    n0_general,
    n0_table,
    phi_lm,
    vanishing_case,
    varphi_mu,
)
from .poincare import (
    CongruenceGroup,
    EnumerationBall,
    NormBoundsReport,
    TruncatedSeriesResult,
    enumerate_ball,
    kernel_series,
    load_ball,
    norm_bounds_check,
    poincare_f,
    poincare_F,
    save_ball,
    series_evaluator_genus1,
)
from .petersson import (
    DiscriminantForm,
    FundamentalDomainSpec,
    VerificationReport,
    mc_cmn,
    petersson,
    verify_cmn,
    verify_coefficients,
    verify_cor62,
    verify_thm93,
    verify_thresholds,
)
from .matrixio import load_matrix, matrix_from_json, matrix_to_json, save_matrix

__version__ = "0.1.0"

# The public surface is exactly the names imported above.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
