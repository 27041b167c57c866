"""Radial integrals of two spherical Bessel functions with exponential and
polynomial weight, in closed form, with an independent quadrature oracle.

The closed forms are finite sums over exact Wigner 3j/6j symbols and
Legendre functions of the second kind; every formula exposed here can be
cross-checked against adaptive numerical quadrature (`besselrad.oracle`),
either programmatically or through the `besselrad check` command line.
"""

from .closedform import (
    EvalResult,
    FormulaInapplicable,
    Method,
    ThreeBesselSpec,
    bare_integral,
    condition_number,
    laplace_single_bessel,
    three_bessel_product,
    two_bessel_equal_order,
    two_bessel_product,
    y_param,
)
from .oracle import (
    NonConvergence,
    QuadratureResult,
    check_eq_2_6,
    check_eq_2_12,
    integrate_q_definition,
    integrate_single_bessel,
    integrate_three_bessel_regularized,
    integrate_two_bessel,
)
from .specfun import (
    legendre_p,
    legendre_q,
    paper_q_combination,
    spherical_bessel_j,
)
from .wigner import (
    AngularMomenta3j,
    WignerValue,
    wigner_3j,
    wigner_6j,
)

__version__ = "0.1.0"

__all__ = [
    "AngularMomenta3j",
    "EvalResult",
    "FormulaInapplicable",
    "Method",
    "NonConvergence",
    "QuadratureResult",
    "ThreeBesselSpec",
    "WignerValue",
    "bare_integral",
    "check_eq_2_12",
    "check_eq_2_6",
    "condition_number",
    "integrate_q_definition",
    "integrate_single_bessel",
    "integrate_three_bessel_regularized",
    "integrate_two_bessel",
    "laplace_single_bessel",
    "legendre_p",
    "legendre_q",
    "paper_q_combination",
    "spherical_bessel_j",
    "three_bessel_product",
    "two_bessel_equal_order",
    "two_bessel_product",
    "wigner_3j",
    "wigner_6j",
    "y_param",
]
