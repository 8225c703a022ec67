import json
import random
from fractions import Fraction

import pytest
from conftest import fraction_sums, scalar_eval
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psicalc import calculus, operator_algebra, qkernels, series
from psicalc.calculus import (
    RuleReport,
    compare,
    general_leibniz,
    general_leibniz_report,
    product_rule,
    quotient_derivative,
    quotient_q_display_reports,
    quotient_rule_report,
    reciprocal_derivative,
    reciprocal_rule_report,
)
from psicalc.errors import BadIndices, ContextMismatch, PsiCalcError
from psicalc.operator_algebra import (ORDINARY, OperatorSum, ProductChain, binomial_operator, rho,
                                     sigma)
from psicalc.psi_context import get_context
from psicalc.qfield import Q
from psicalc.series import WardSeries, constant, cos_psi, e_psi, make_series, monomial, sin_psi
from psicalc.verify import random_series

SPECS = ("natural", "q", "q=3/2", "fib")


def ctx_for(spec):
    return get_context(spec, 16)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("pair", [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)])
def test_asterisk_and_star_rules(spec, pair):
    rng = random.Random(hash((spec, pair)) & 0xFFFF)
    ctx = ctx_for(spec)
    a = OperatorSum.single((pair,))
    for _ in range(5):
        f = random_series(ctx, 8, rng)
        g = random_series(ctx, 8, rng)
        r = product_rule("asterisk", a, f, g)
        assert r.ok and r.equal, (r.rule, r.first_diff)
        assert r.order == 7
        s = product_rule("star", a, f, g, star=True)
        assert s.ok, (s.rule, s.first_diff)


def test_star_rule_mirrors_asterisk_on_swapped_arguments(fib):
    rng = random.Random(3)
    f = random_series(fib, 8, rng)
    g = random_series(fib, 8, rng)
    a = OperatorSum.single(((2, 1),))
    r_ast = product_rule("asterisk", a, f, g)
    r_star = product_rule("star", a, g, f, star=True)
    assert r_ast.lhs == r_star.lhs
    assert r_ast.rhs == r_star.rhs


@pytest.mark.parametrize("spec", SPECS)
def test_ordinary_rule_has_two_faithful_forms(spec):
    rng = random.Random(11)
    ctx = ctx_for(spec)
    f = random_series(ctx, 9, rng)
    g = random_series(ctx, 9, rng)
    first = product_rule("asterisk_form", ORDINARY, f, g)
    second = product_rule("star_form", ORDINARY, f, g, star=True)
    assert first.ok and second.ok
    assert first.rule != second.rule
    assert first.lhs == second.lhs  # same derivative, two decompositions


@pytest.mark.parametrize(
    "pairs",
    [((1, 0),), ((2, 1),), ((1, 0), (2, 0)), ((2, 1), (3, 2)), ((1, 0), (2, 1), (3, 2))],
)
@pytest.mark.parametrize("star", [False, True])
def test_chain_rule(pairs, star, fib):
    rng = random.Random(len(pairs) + star)
    for _ in range(5):
        f = random_series(fib, 9, rng)
        g = random_series(fib, 9, rng)
        r = product_rule("chain", OperatorSum.single(pairs), f, g, star)
        assert r.ok, (pairs, star, r.first_diff)


@pytest.mark.parametrize("star", [False, True])
def test_boxplus_rule(star, fib, qsym):
    rng = random.Random(17)
    for ctx in (fib, qsym):
        f = random_series(ctx, 8, rng)
        g = random_series(ctx, 8, rng)
        a = OperatorSum.single(((1, 0),)) + OperatorSum.single(((2, 1),))
        r = product_rule("boxplus", a, f, g, star)
        assert r.ok, (ctx.kind, star, r.first_diff)


def flavored(b, star):
    """Every chain of ``b`` in the flavor ``star``."""
    return OperatorSum(tuple(ProductChain(t.coefficient, star, t.pairs) for t in b.terms))


def two_call_right_side(a, f, g, star):
    """rho(A)(Df, g) + sigma(A)(f, Dg) (mirrored for star) as two applications and a sum."""
    r, s = flavored(rho(a), star), flavored(sigma(a), star)
    if star:
        r, s = s, r
    return r.apply(f.derivative(), g) + s.apply(f, g.derivative())


RULE_SUMS = (
    ORDINARY,
    OperatorSum.single(((2, 1),)),
    OperatorSum.single(((1, 0), (3, 2))),
    OperatorSum.single(((1, 0),)) + OperatorSum.single(((2, 1),), coefficient=Fraction(-3, 2)),
)


@pytest.mark.parametrize("spec", SPECS + ("custom:[0,1,3/2,2,-5/3,7,1/4,3,11/5,9,13,2,5]",))
@pytest.mark.parametrize("star", [False, True])
def test_product_rule_right_side_is_the_two_call_form(monkeypatch, spec, star):
    ctx = get_context(spec)
    rng = random.Random(23)
    calls = []
    monkeypatch.setattr(calculus, "_convolve",
                        lambda *args: calls.append(1) or series._convolve(*args))
    for a in RULE_SUMS:
        # operands of unequal orders: the rows end at the smaller order less one
        for fo, go in ((7, 5), (4, 6)):
            f, g = random_series(ctx, fo, rng), random_series(ctx, go, rng)
            report = calculus.product_rule("rule", a, f, g, star)
            want = two_call_right_side(a, f, g, star)
            assert repr(report.rhs) == repr(want)
            assert report.ok
    assert len(calls) == 2 * len(RULE_SUMS)


@pytest.mark.parametrize("spec", ("fib", "q"))
def test_product_rule_with_swapped_shift_maps_fails(monkeypatch, spec):
    # the one-call right side is not the left side by construction: a broken
    # rule is caught
    ctx = get_context(spec)
    rng = random.Random(5)
    f, g = random_series(ctx, 6, rng), random_series(ctx, 6, rng)
    monkeypatch.setattr(calculus, "rho", sigma)
    report = product_rule("rule", OperatorSum.single(((2, 1),)), f, g)
    assert not report.equal and not report.ok and report.first_diff is not None


def test_rule_example_fib_monomials(fib):
    # x^2 x^3 = x^5 under the ordinary product, and D x^5 = s_5 x^4 = 5 x^4
    x2, x3 = monomial(fib, 2, 9), monomial(fib, 3, 9)
    first = product_rule("asterisk_form", ORDINARY, x2, x3)
    second = product_rule("star_form", ORDINARY, x2, x3, star=True)
    assert first.ok and second.ok
    x5 = monomial(fib, 5, 9)
    assert x2 * x3 == x5
    assert x5.derivative() == monomial(fib, 4, 8).scale(5)
    assert first.lhs == monomial(fib, 4, 8).scale(5)


def test_rule_with_constant_g_collapses_to_scaling(fib):
    rng = random.Random(23)
    f = random_series(fib, 8, rng)
    one = constant(fib, 1, 8)
    r = product_rule("rule", OperatorSum.single(((1, 0),)), f, one)
    assert r.ok
    prod = f.fontane(one, 1, 0)
    assert prod == f.diag_m(1, 0)


# -- general Leibniz -----------------------------------------------------------------


@pytest.mark.parametrize("spec", ("natural", "q", "fib"))
@pytest.mark.parametrize("n", range(7))
def test_general_leibniz(spec, n):
    ctx = get_context(spec, 20)
    rng = random.Random(100 + n)
    f = random_series(ctx, 12, rng)
    g = random_series(ctx, 12, rng)
    r = general_leibniz_report(f, g, n)
    assert r.ok, (spec, n, r.first_diff)
    assert r.order == 12 - n


def test_leibniz_low_orders_coincide_with_direct_rules(fib):
    rng = random.Random(9)
    f = random_series(fib, 8, rng)
    g = random_series(fib, 8, rng)
    assert general_leibniz(f, g, 0) == (f * g)
    assert general_leibniz(f, g, 1) == (f * g).derivative()


def test_leibniz_closed_form_natural(nat):
    x = monomial(nat, 1, 12)
    ex = e_psi(nat, 12)
    for n in range(7):
        got = general_leibniz(x, ex, n)
        want = (ex.scale(n) + x * ex).truncate(12 - n)
        assert got == want, n


def test_leibniz_closed_form_q(qsym):
    x = monomial(qsym, 1, 12)
    eq = e_psi(qsym, 12)
    for n in range(7):
        got = general_leibniz(x, eq, n)
        bracket = qsym.psi_value(n) if n else qsym.zero
        want = ((x * eq).scale(Q ** n) + eq.scale(bracket)).truncate(12 - n)
        assert got == want, n


def test_leibniz_rejects_excessive_order(fib):
    f = make_series(fib, [1, 2, 3])
    with pytest.raises(PsiCalcError):
        general_leibniz(f, f, 3)


def test_leibniz_rejects_bad_counts_and_mixed_contexts(fib, nat):
    f = make_series(fib, [1, 2, 3])
    with pytest.raises(BadIndices):
        general_leibniz(f, f, -1)
    with pytest.raises(ContextMismatch):
        general_leibniz(f, make_series(nat, [1, 2, 3]), 1)
    with pytest.raises(ContextMismatch):
        general_leibniz(f, [1, 2, 3], 1)


@pytest.mark.parametrize("star", [False, True])
def test_product_rule_checks_its_operands_in_order(fib, nat, star):
    # the star rule swaps the operands only after g is checked against f
    f = make_series(fib, [1, 2, 3])
    with pytest.raises(ContextMismatch, match=r"\('fib' vs 'natural'\)"):
        product_rule("rule", ORDINARY, f, make_series(nat, [1, 2, 3]), star)
    with pytest.raises(ContextMismatch, match="expected a series"):
        product_rule("rule", ORDINARY, f, [1, 2, 3], star)


def leibniz_per_term(f, g, n):
    """The reference: n + 1 separate weighted sums, one scalar term at a time, then summed.

    Each weighs by the table of the chain expansion of <n k>, its entries
    read through ``fontane_kernel``, not by the context's stored tables, and
    sums in the scalars through the public accessors (``fraction_sums``),
    not in a kernel.
    """
    ctx, m = f.ctx, min(f.order, g.order) - n
    acc = None
    for k in range(n + 1):
        a, b = f.derivative(n - k).truncate(m), g.derivative(k).truncate(m)
        weight = binomial_operator(n, k)._weight_rows(ctx, m)
        term = WardSeries(ctx, fraction_sums(ctx, a.coeffs, b.coeffs, weight))
        acc = term if acc is None else acc + term
    return acc


ORACLE_SPECS = ("natural", "fib", "q", "q=3/2", "q=-2/3", "q=1",
                "custom:[0,1,3/2,2,-5/3,7,1/4,3,11/5,9,13]")
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def leibniz_cases(draw):
    spec = draw(st.sampled_from(ORACLE_SPECS))
    a = draw(st.lists(fractions, min_size=1, max_size=11))
    b = draw(st.lists(fractions, min_size=1, max_size=11))
    n = draw(st.integers(0, min(len(a), len(b)) - 1))
    return spec, a, b, n


def fixed_case(spec, seed):
    rng = random.Random(seed)
    a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(4, 11))]
    b = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(4, 11))]
    return spec, a, b, rng.randint(1, min(len(a), len(b)) - 1)


def with_fixed_cases(test):
    # every spec is checked with n >= 1 whatever the random draws are
    for seed, spec in enumerate(ORACLE_SPECS):
        test = example(fixed_case(spec, seed))(test)
    return test


@settings(max_examples=80, deadline=None)
@given(leibniz_cases())
@with_fixed_cases
def test_leibniz_matches_the_per_term_reference(case):
    spec, a, b, n = case
    ctx = get_context(spec)
    f, g = make_series(ctx, a), make_series(ctx, b)
    assert repr(general_leibniz(f, g, n)) == repr(leibniz_per_term(f, g, n))


@pytest.mark.parametrize("spec", ("natural", "fib", "q", "q=3/2"))
def test_leibniz_over_plain_sequences_is_one_sum(monkeypatch, spec):
    # one kernel call, and one division per coefficient (plain) or one unpack pass per
    # kernel call (symbolic q)
    ctx = get_context(spec)
    rng = random.Random(4)
    f, g = random_series(ctx, 9, rng), random_series(ctx, 11, rng)
    want = leibniz_per_term(f, g, 3)
    calls = {"kernel": 0, "finish": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(calculus, "_convolve", counted("kernel", calculus._convolve))
    module, finish = (qkernels, "_unpack") if ctx.symbolic else (series, "_int_ratio")
    monkeypatch.setattr(module, finish, counted("finish", getattr(module, finish)))
    assert general_leibniz(f, g, 3) == want
    # over symbolic q each of the weights C(3, k) is read by one unpack more
    assert calls == {"kernel": 1, "finish": 1 + 3 + 1 if ctx.symbolic else 9 - 3 + 1}


def refuse_weight_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("weight tables built")

    monkeypatch.setattr(operator_algebra, "binomial_weights", refuse)


@pytest.mark.parametrize("spec", ("q", "q=3/2"))
def test_leibniz_over_q_analogs_builds_no_weight_tables(monkeypatch, spec):
    refuse_weight_tables(monkeypatch)
    ctx = get_context(spec)
    rng = random.Random(6)
    f, g = random_series(ctx, 8, rng), random_series(ctx, 7, rng)
    for n in range(5):
        assert general_leibniz(f, g, n) == (f * g).derivative(n)


@pytest.mark.parametrize("spec", ("natural", "custom:[0,1,2,3,4,5,6,7,8,9,10,11,12]"))
def test_leibniz_over_classical_sequences_reads_no_weight_tables(monkeypatch, spec):
    # every kernel entry is 1 there, so <n k> weighs each term by C(n, k)
    ctx = get_context(spec)
    assert all(ctx.psi_value(n) == n for n in range(13))
    rng = random.Random(8)
    f, g = random_series(ctx, 12, rng), random_series(ctx, 10, rng)
    want = [leibniz_per_term(f, g, n) for n in range(11)]
    refuse_weight_tables(monkeypatch)
    for n in range(11):
        got = general_leibniz(f, g, n)
        assert repr(got) == repr(want[n])
        assert got == (f * g).derivative(n)


# -- quotient and reciprocal -------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS)
def test_quotient_rule(spec):
    ctx = ctx_for(spec)
    rng = random.Random(31)
    for _ in range(5):
        f = random_series(ctx, 10, rng)
        g = random_series(ctx, 10, rng, invertible=True)
        r = quotient_rule_report(f, g)
        assert r.ok, (spec, r.first_diff)


def test_quotient_of_identical_series_is_constant_one(fib):
    rng = random.Random(37)
    g = random_series(fib, 8, rng, invertible=True)
    h = g.divide(g)
    assert h == constant(fib, 1, 8)
    assert quotient_derivative(g, g) == h.derivative()


def test_quotient_natural_matches_classical_formula(nat):
    rng = random.Random(41)
    f = random_series(nat, 10, rng)
    g = random_series(nat, 10, rng, invertible=True)
    # (g Df - f Dg) / g^2, all ordinary products over the naturals
    lhs = quotient_derivative(f, g)
    rhs = (g * f.derivative() - f * g.derivative()).divide(g * g)
    assert lhs == rhs.truncate(9)


@pytest.mark.parametrize("spec", ("q", "q=3/2"))
def test_quotient_q_displays(spec):
    ctx = ctx_for(spec)
    rng = random.Random(43)
    for _ in range(5):
        f = random_series(ctx, 10, rng)
        g = random_series(ctx, 10, rng, invertible=True)
        first, second = quotient_q_display_reports(f, g)
        assert first.ok, first.first_diff
        assert second.ok, second.first_diff


def test_quotient_q_displays_need_q_context(fib):
    f = make_series(fib, [1, 1, 1])
    with pytest.raises(PsiCalcError):
        quotient_q_display_reports(f, f)


def test_tangent_display(nat, qsym, fib):
    for ctx in (nat, qsym, fib):
        s, c = sin_psi(ctx, 9), cos_psi(ctx, 9)
        tan = s.divide(c)
        lhs = tan.derivative()
        rhs = (c + tan.chain(s, ((1, 0),))).divide(c).truncate(8)
        assert lhs == rhs


def test_reciprocal_rule(fib):
    rng = random.Random(47)
    g = random_series(fib, 10, rng, invertible=True)
    r = reciprocal_rule_report(g)
    assert r.ok, r.first_diff


def test_reciprocal_q_exponential(qsym):
    eq = e_psi(qsym, 11)
    inv = constant(qsym, 1, 11).divide(eq)
    d = reciprocal_derivative(eq)
    assert d == inv.q_dilate().scale(qsym.from_rational(-1)).truncate(10)
    for n in range(11):
        assert d.coeffs[n] == -(Q ** n) * inv.coeffs[n]


def test_reciprocal_natural_exponential(nat):
    # D(1/e^x) = D(e^{-x}) = -e^{-x}
    e = e_psi(nat, 10)
    d = reciprocal_derivative(e)
    em = e.dilate(-1)
    assert d == em.scale(-1).truncate(9)


def test_derivative_relation_roundtrip(fib):
    rng = random.Random(53)
    f = random_series(fib, 9, rng)
    g = random_series(fib, 9, rng, invertible=True)
    h = f.divide(g)
    assert f.derivative() == h.chain(g.derivative(), ((1, 0),)) + h.derivative() * g


# -- reports -----------------------------------------------------------------------


def test_report_json_shape(fib):
    rng = random.Random(59)
    f = random_series(fib, 6, rng)
    g = random_series(fib, 6, rng)
    r = product_rule("product.asterisk(1,0)", OperatorSum.single(((1, 0),)), f, g)
    data = r.to_json_dict()
    assert set(data) == {
        "rule", "psi", "order", "equal", "first_diff", "lhs", "rhs",
        "expected_equal", "ok",
    }
    assert data["rule"] == "product.asterisk(1,0)"
    assert data["psi"] == "fib"
    assert data["equal"] is True and data["ok"] is True
    assert data["first_diff"] is None
    json.dumps(data)  # serializable as-is


def test_report_is_an_immutable_value(fib):
    f, g = make_series(fib, [1, 2, 3]), make_series(fib, [0, 1, 1])
    r = RuleReport(rule="r", psi="fib", order=2, lhs=f, rhs=g, equal=False, first_diff=0)
    assert r == RuleReport("r", "fib", 2, f, g, False, 0, True) and r.expected_equal
    assert r != RuleReport("r", "fib", 2, f, g, False, 0, False) and r != "r"
    assert repr(r) == ("RuleReport(rule='r', psi='fib', order=2, "
                       "lhs=WardSeries('fib', ['1', '2', '3']), "
                       "rhs=WardSeries('fib', ['0', '1', '1']), equal=False, first_diff=0, "
                       "expected_equal=True)")
    with pytest.raises(TypeError):  # WardSeries is unhashable, so is a report of two, as before
        hash(r)
    assert hash(RuleReport("r", "fib", 2, None, None, True, None)) == hash(
        RuleReport("r", "fib", 2, None, None, True, None))
    for name in ("ok", "rule", "equal", "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, True)
    with pytest.raises(AttributeError):
        del r.rule
    assert not hasattr(r, "__dict__")


def test_report_polarity_for_expected_inequality(fib):
    f = e_psi(fib, 4)
    x = monomial(fib, 1, 4)
    r = compare("witness", f.fontane(x, 1, 0), x.fontane(f, 1, 0), expected_equal=False)
    assert not r.equal
    assert r.ok
    assert r.first_diff == 1
    r2 = compare("witness", f, f, expected_equal=False)
    assert r2.equal and not r2.ok


def test_report_detects_first_divergence(fib):
    f = make_series(fib, [1, 2, 3, 4])
    g = make_series(fib, [1, 2, 0, 4])
    r = compare("diff", f, g)
    assert not r.ok
    assert r.first_diff == 2


def test_symbolic_reports_specialize(qsym, qnum):
    rng = random.Random(61)
    coeffs_f = [rng.randint(-4, 4) for _ in range(9)]
    coeffs_g = [rng.randint(-4, 4) for _ in range(9)]
    f_s, g_s = make_series(qsym, coeffs_f), make_series(qsym, coeffs_g)
    f_n, g_n = make_series(qnum, coeffs_f), make_series(qnum, coeffs_g)
    a = OperatorSum.single(((2, 1),))
    r_s = product_rule("rule", a, f_s, g_s)
    r_n = product_rule("rule", a, f_n, g_n)
    point = Fraction(3, 2)
    assert [scalar_eval(c, point) for c in r_s.lhs.coeffs] == list(r_n.lhs.coeffs)
    assert [scalar_eval(c, point) for c in r_s.rhs.coeffs] == list(r_n.rhs.coeffs)
