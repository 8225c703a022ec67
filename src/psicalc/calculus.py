"""Derivative rules for the weighted products, with checkable reports.

Every rule function builds both sides of an identity as series and wraps
them in a ``RuleReport`` that records whether the coefficient lists agree
exactly and, if not, where they first differ.  Nothing is ever compared
approximately; the scalars are exact, so the only honest verdicts are
"identical" and "differs at index d".

Every product rule is one rule on asterisk operator sums A,

    D(A(f, g)) = rho(A)(Df, g) + sigma(A)(f, Dg),

and its mirror on the star flavor, the same rule on the swapped operands
(A#(f, g) = A(g, f)): there sigma(A) acts on (Df, g) and rho(A) on
(f, Dg).  A single pair gives

    D(f *_{i,j} g) = Df *_{i+1,j+1} g  +  f *_{i+1,j}*_{1,0} Dg
    D(f #_{i,j} g) = Df #_{i+1,j}#_{1,0} g  +  f #_{i+1,j+1} Dg

and the empty chain (both flavors collapse onto it) the ordinary rule

    D(f g) = f *_{1,0} Dg + Df g  =  Df #_{1,0} g + f Dg.

Iterating the ordinary rule gives the higher product rule

    D^n(f g) = sum_k  <n k>(D^(n-k) f, D^k g),

with each <n k> weighed as ``operator_algebra.binomial_terms`` decides:
a twist over a power kernel, its stored weight table otherwise.  Division
closes the family: with h = f / g,

    D(f / g) = (Df - h *_{1,0} Dg) / g,
    D(1 / g) = -(1/g) * ((1/g) *_{1,0} Dg),

and in a q-analog context the quotient rule also matches both classical
displays with dilated numerators over g(x) g(qx).
"""

from __future__ import annotations

from .errors import BadIndices, PsiCalcError
from .operator_algebra import Frozen, OperatorSum, binomial_terms, rho, sigma
from .series import WardSeries, _convolve, constant, first_difference


class RuleReport(Frozen):
    """Two sides of one identity and the outcome of comparing them."""

    __slots__ = ("rule", "psi", "order", "lhs", "rhs", "equal", "first_diff", "expected_equal")

    def __init__(self, rule: str, psi: str, order: int, lhs: WardSeries, rhs: WardSeries,
                 equal: bool, first_diff: int | None, expected_equal: bool = True):
        self._init(rule, psi, order, lhs, rhs, equal, first_diff, expected_equal)

    @property
    def ok(self) -> bool:
        return self.equal == self.expected_equal

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule,
            "psi": self.psi,
            "order": self.order,
            "equal": self.equal,
            "first_diff": self.first_diff,
            "lhs": self.lhs.to_json_dict()["coeffs"],
            "rhs": self.rhs.to_json_dict()["coeffs"],
            "expected_equal": self.expected_equal,
            "ok": self.ok,
        }


def compare(rule: str, lhs: WardSeries, rhs: WardSeries,
            expected_equal: bool = True) -> RuleReport:
    diff = first_difference(lhs, rhs)
    return RuleReport(rule, lhs.ctx.spec_string(), min(lhs.order, rhs.order), lhs, rhs,
                      diff is None, diff, expected_equal)


# -- product rules ---------------------------------------------------------------


def product_rule(rule: str, a: OperatorSum, f: WardSeries, g: WardSeries,
                 star: bool = False) -> RuleReport:
    """The report ``rule`` on D(A(f, g)) = rho(A)(Df, g) + sigma(A)(f, Dg), A an asterisk sum.

    With ``star`` every chain of A acts in the star flavor, and then sigma(A)
    acts on (Df, g) and rho(A) on (f, Dg): the rule on the swapped operands
    (g, f).  A = ``ORDINARY`` gives the two forms of the ordinary rule, a
    single pair or chain the rule of its weighted product, and a formal sum
    the rule of the sum.  The right side is one kernel call: the terms of
    rho(A) read the operands at offsets (1, 0), those of sigma(A) at (0, 1),
    through row min(f.order, g.order) - 1.
    """
    g = f._peer(g)
    if star:
        # a star product is the asterisk product of the swapped operands
        f, g = g, f
    lhs = a.apply(f, g).derivative()
    ctx, m = f.ctx, min(f.order, g.order) - 1
    return compare(rule, lhs, _convolve(f, g, rho(a).kernel_terms(ctx, m, 1, 0)
                                        + sigma(a).kernel_terms(ctx, m, 0, 1)))


# -- higher product rule ------------------------------------------------------------


def general_leibniz(f: WardSeries, g: WardSeries, n: int) -> WardSeries:
    """sum_k <n k>(D^(n-k) f, D^k g), truncated to min(order) - n.

    One kernel call of the n + 1 terms of ``binomial_terms``: term k reads
    D^(n-k) f and D^k g as the operands at offsets (n-k, k) and weighs by
    <n k>.
    """
    if n < 0:
        raise BadIndices("derivative count must be nonnegative")
    g = f._peer(g)
    m = min(f.order, g.order) - n
    if m < 0:
        raise PsiCalcError(f"series orders too small for {n} derivatives")
    return _convolve(f, g, binomial_terms(f.ctx, n, m))


def general_leibniz_report(f: WardSeries, g: WardSeries, n: int) -> RuleReport:
    lhs = (f * g).derivative(n)
    rhs = general_leibniz(f, g, n)
    return compare(f"leibniz.n={n}", lhs, rhs)


# -- quotient and reciprocal ----------------------------------------------------------


def quotient_derivative(f: WardSeries, g: WardSeries) -> WardSeries:
    """D(f/g) computed as (Df - (f/g) *_{1,0} Dg) / g."""
    h = f.divide(g)
    return (f.derivative() - h.chain(g.derivative(), ((1, 0),))).divide(g)


def quotient_rule_report(f: WardSeries, g: WardSeries) -> RuleReport:
    lhs = f.divide(g).derivative()
    return compare("quotient", lhs, quotient_derivative(f, g))


def quotient_q_display_reports(f: WardSeries, g: WardSeries) -> tuple[RuleReport, RuleReport]:
    """The two classical q-quotient displays, checked against D(f/g).

    form 1: (g(qx) Df - f(qx) Dg) / (g(x) g(qx))
    form 2: (g(x) Df - f(x) Dg) / (g(x) g(qx))
    """
    if f.ctx.q_scalar is None:
        raise PsiCalcError("q-quotient displays need a q-analog context")
    lhs = f.divide(g).derivative()
    gq, fq = g.q_dilate(), f.q_dilate()
    den = g * gq
    form1 = (gq * f.derivative() - fq * g.derivative()).divide(den)
    form2 = (g * f.derivative() - f * g.derivative()).divide(den)
    return (
        compare("quotient.q_display.dilated_g", lhs, form1),
        compare("quotient.q_display.plain_g", lhs, form2),
    )


def reciprocal_derivative(g: WardSeries) -> WardSeries:
    """D(1/g) = -(1/g) * ((1/g) *_{1,0} Dg)."""
    one = constant(g.ctx, 1, g.order)
    w = one.divide(g)
    return -(w * w.chain(g.derivative(), ((1, 0),)))


def reciprocal_rule_report(g: WardSeries) -> RuleReport:
    one = constant(g.ctx, 1, g.order)
    lhs = one.divide(g).derivative()
    return compare("reciprocal", lhs, reciprocal_derivative(g))
