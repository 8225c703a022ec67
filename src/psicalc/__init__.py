"""Exact calculus on factorial-normalized truncated power series.

A sequence context supplies the base sequence, its factorials and
binomials, and the weight kernel; series over a context support weighted
products, a shift derivative, and exact division; the operator layer
builds the binomial-operator triangle and the derivative rules that tie
it all together.
"""

from .coefficients import Scalar, parse_rational
from .errors import (
    BadIndices,
    BadSpec,
    BoundExceeded,
    ContextMismatch,
    DivisionByZero,
    FlavorMismatch,
    IndexOutOfBound,
    KernelUndefined,
    KOutOfRange,
    NonInvertible,
    OrderZero,
    ParseError,
    PsiCalcError,
    VariantMismatch,
)
from .psi_context import PsiContext, get_context
from .series import (
    WardSeries,
    constant,
    cos_psi,
    e_psi,
    first_difference,
    make_series,
    monomial,
    sin_psi,
    zeros,
)

# The q-field, operator and calculus layers load on first use (PEP 562): a
# process over plain rationals never compiles the q-field, and one that only
# tabulates sequences or multiplies series never compiles the other two.
_LAZY = {
    **dict.fromkeys(("qfield", "Q", "PolyQ", "RatFuncQ", "embed_rational"), "qfield"),
    **dict.fromkeys(("operator_algebra", "ORDINARY", "ZERO_OPERATOR", "OperatorSum",
                     "ProductChain", "binomial_operator", "extensional_eq", "rho", "sigma"),
                    "operator_algebra"),
    **dict.fromkeys(("calculus", "RuleReport", "general_leibniz", "general_leibniz_report",
                     "product_rule", "quotient_derivative", "quotient_q_display_reports",
                     "quotient_rule_report", "reciprocal_derivative", "reciprocal_rule_report"),
                    "calculus"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "Q",
    "PolyQ",
    "RatFuncQ",
    "Scalar",
    "embed_rational",
    "parse_rational",
    "PsiCalcError",
    "VariantMismatch",
    "DivisionByZero",
    "IndexOutOfBound",
    "KOutOfRange",
    "KernelUndefined",
    "BadSpec",
    "BoundExceeded",
    "ContextMismatch",
    "BadIndices",
    "OrderZero",
    "FlavorMismatch",
    "ParseError",
    "NonInvertible",
    "PsiContext",
    "get_context",
    "WardSeries",
    "make_series",
    "zeros",
    "constant",
    "monomial",
    "e_psi",
    "sin_psi",
    "cos_psi",
    "first_difference",
    "ProductChain",
    "OperatorSum",
    "ORDINARY",
    "ZERO_OPERATOR",
    "rho",
    "sigma",
    "binomial_operator",
    "extensional_eq",
    "RuleReport",
    "product_rule",
    "general_leibniz",
    "general_leibniz_report",
    "quotient_derivative",
    "quotient_rule_report",
    "quotient_q_display_reports",
    "reciprocal_derivative",
    "reciprocal_rule_report",
]
