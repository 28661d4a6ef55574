"""Exact determinantal counting and q-weighting of trapezoidal
Gelfand-Tsetlin patterns, with enumeration oracles, boundary asymptotics,
and the q-Toeplitz boundary calculus.

Everything computational is exact rational arithmetic (``fractions.Fraction``)
unless a function explicitly offers a numeric quadrature mode.
"""

from .boundary import (
    LaurentWindow,
    OmegaPoint,
    QuadratureError,
    a_coeff_quadrature,
    embed,
    link_infinity,
    phi_coeffs,
    phi_eval,
    phi_signature,
    uat_gap,
)
from .linalg import Rat, det
from .patterns import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExceededError,
    Signature,
    all_signatures,
    check_signature,
    dim_product,
    enumerate_trapezoids,
    fits_under,
    format_signature,
    parse_signature,
    q_dim,
    q_dim_oracle,
    q_rel_dim_oracle,
    rel_dim_table,
    rel_dim_table_bound,
    support_box,
)
from .qlinks import (
    QDetContext,
    TSpec,
    general_q_projection,
    general_q_ratio,
    psi_T,
    q_link_row,
    q_prefactor,
    q_rel_dim_ratio,
    q_to_1_check,
    qA_coeff,
)
from .qtoeplitz import (
    B_entry,
    B_entry_via_qA,
    BoundarySeq,
    b_generating_check,
    basis_from_coeffs,
    coeff_extract,
    q_ratio_infinity,
    qA_infinity,
)
from .reldim import (
    A_coeff,
    A_matrix,
    DetContext,
    LinkRow,
    PoleError,
    bo_coefficient,
    bo_transform,
    link_row,
    psi_coeff,
    rel_dim_ratio,
    rel_dim_ratio_first,
)
from .schur import (
    RepeatedPointsError,
    h_at_q_powers,
    schur_bialternant,
)
from .verify import SUITES, CaseResult, bench_table, run_suite, uat_table

__version__ = "0.1.0"
