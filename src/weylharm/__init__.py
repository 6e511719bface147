"""weylharm: exact q-ordered Weyl algebras, harmonics, and radial polynomials.

The package computes, in exact Gaussian-rational arithmetic, the
one-parameter family of ordering isomorphisms between the polynomial
algebra on R^(2d) and the Weyl algebra on 2d generators, the sl2 triples
the orderings transport, the harmonic/radial tensor decomposition of both
algebras, and the closed-form theory of the radial polynomials (raising
recurrences, difference equations, terminating-hypergeometric forms, and
the identification with continuous Hahn / Meixner-Pollaczek families).
A floating-point layer verifies the analytic claims: the gamma-weight
orthogonality and the generating function.
"""

from .ordering import (
    OrderingContext,
    apply_M,
    apply_Mplus,
    cal_E,
    cal_L,
    cal_R,
    order_q,
    ordered_monomial,
    unorder_q,
)
from .poly import (
    CMonomial,
    CPolynomial,
    bidegree_split,
    deriv_z,
    deriv_zbar,
    harmonic_decompose,
    harmonic_dim,
    is_harmonic,
    op_E,
    op_L,
    op_R,
)
from .radial import (
    NotRadialError,
    RadialContext,
    apply_Rq_univariate,
    check_difference_equation,
    check_fg_recurrence,
    decompose_weyl,
    difference_triple,
    eta,
    express_in_N,
    g_poly_symmetric,
    nonorthogonality_certificate,
    omega,
    omega_by_raising,
    omega_closed_form,
    reassemble_weyl,
)
from .scalars import GaussRational, UniPoly
from .specfun import (
    InvalidParameterError,
    continuous_hahn_poly,
    gauss_contiguous_check,
    hyp2F1_terminating_poly,
    hyp2f1_3f2_connection_check,
    krawtchouk_meixner_check,
    meixner_pollaczek_poly,
    pochhammer,
)
from .weyl import (
    ModeMismatchError,
    NormalMonomial,
    WeylElement,
    clear_caches,
    commutator,
    number_operator,
    weyl_mul,
)

__version__ = "0.1.0"

__all__ = [
    "CMonomial",
    "CPolynomial",
    "GaussRational",
    "InvalidParameterError",
    "ModeMismatchError",
    "NormalMonomial",
    "NotRadialError",
    "OrderingContext",
    "RadialContext",
    "UniPoly",
    "WeylElement",
    "apply_M",
    "apply_Mplus",
    "apply_Rq_univariate",
    "bidegree_split",
    "cal_E",
    "cal_L",
    "cal_R",
    "check_difference_equation",
    "check_fg_recurrence",
    "clear_caches",
    "commutator",
    "continuous_hahn_poly",
    "decompose_weyl",
    "deriv_z",
    "deriv_zbar",
    "difference_triple",
    "eta",
    "express_in_N",
    "g_poly_symmetric",
    "gauss_contiguous_check",
    "harmonic_decompose",
    "harmonic_dim",
    "hyp2F1_terminating_poly",
    "hyp2f1_3f2_connection_check",
    "is_harmonic",
    "krawtchouk_meixner_check",
    "meixner_pollaczek_poly",
    "nonorthogonality_certificate",
    "number_operator",
    "omega",
    "omega_by_raising",
    "omega_closed_form",
    "op_E",
    "op_L",
    "op_R",
    "order_q",
    "ordered_monomial",
    "pochhammer",
    "reassemble_weyl",
    "unorder_q",
    "weyl_mul",
]
