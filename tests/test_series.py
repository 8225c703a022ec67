import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import fraction_sums
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psicalc import intpoly, qkernels
from psicalc.intpoly import _digit_bits
from psicalc.qfield import Q, PolyQ, RatFuncQ, embed_rational
from psicalc.errors import (
    BadIndices,
    BadSpec,
    BoundExceeded,
    ContextMismatch,
    DivisionByZero,
    Immutable,
    IndexOutOfBound,
    NonInvertible,
    OrderZero,
    ParseError,
    VariantMismatch,
    echo,
)
from psicalc.calculus import RuleReport, general_leibniz
from psicalc.operator_algebra import OperatorSum, ProductChain, binomial_operator
from psicalc.psi_context import PsiContext, get_context
from psicalc.series import (
    WardSeries,
    _convolve,
    check_pair,
    constant,
    cos_psi,
    e_psi,
    first_difference,
    make_series,
    monomial,
    series_header,
    sin_psi,
    zeros,
)
from psicalc.verify import custom_spec

coeff_lists = st.lists(st.integers(min_value=-6, max_value=6), min_size=5, max_size=5)


def fib_series(coeffs):
    return make_series(get_context("fib", 16), coeffs)


# -- constructors ----------------------------------------------------------------


def test_constructors(fib, nat):
    assert zeros(fib, 3).coeffs == (0, 0, 0, 0)
    assert constant(fib, Fraction(5, 2), 2).coeffs == (Fraction(5, 2), 0, 0)
    assert monomial(fib, 3, 5).coeffs == (0, 0, 0, 2, 0, 0)  # 2 = fib factorial at 3
    assert e_psi(fib, 4).coeffs == (1, 1, 1, 1, 1)
    assert sin_psi(nat, 6).coeffs == (0, 1, 0, -1, 0, 1, 0)
    assert cos_psi(nat, 6).coeffs == (1, 0, -1, 0, 1, 0, -1)
    with pytest.raises(IndexOutOfBound):
        monomial(fib, 7, 5)


def test_make_series_lifts_rationals(qsym):
    f = make_series(qsym, [1, Fraction(1, 2)])
    assert f.coeffs[1] == embed_rational(Fraction(1, 2))
    with pytest.raises(VariantMismatch):
        make_series(get_context("natural", 4), [Q])


# every entry that admits a scalar, applied to x: the one scalar it stores or gives
DOORS = {
    "make_series": lambda ctx, x: make_series(ctx, [x]).coeffs[0],
    "constant": lambda ctx, x: constant(ctx, x, 0).coeffs[0],
    "WardSeries": lambda ctx, x: WardSeries(ctx, [x]).coeffs[0],
    "scale": lambda ctx, x: e_psi(ctx, 0).scale(x).coeffs[0],
    "operator": lambda ctx, x: OperatorSum.single(coefficient=x).apply(e_psi(ctx, 0),
                                                                       e_psi(ctx, 0)).coeffs[0],
    "divide": lambda ctx, x: (e_psi(ctx, 0) / x).coeffs[0],
    "dilate": lambda ctx, x: e_psi(ctx, 1).dilate(x).coeffs[1],
    "from_rational": lambda ctx, x: ctx.from_rational(x),
    "from_json_dict": lambda ctx, x: WardSeries.from_json_dict(
        {"psi": ctx.spec_string(), "order": 0, "coeffs": [x]}).coeffs[0],
}
DOOR_INPUTS = {"3": 3, "True": True, "4/2": Fraction(4, 2), "1/3": Fraction(1, 3),
               "embed(2)": embed_rational(2), "Q": Q, "1.5": 1.5, "str": "1", "None": None}


def _q(text):
    return f"RatFuncQ({text})", RatFuncQ


VM, N1, N2, N3 = VariantMismatch, ("1", int), ("2", int), ("3", int)
F13 = "Fraction(1, 3)", Fraction
PLAIN = (N3, N1, N2, F13, VM, VM, VM, VM, VM)
LIFT_Q = (_q(3), _q(1), _q(2), _q("(1/3)"), _q(2), _q("q"), VM, VM, VM)
STRICT_Q = (VM, VM, VM, VM, _q(2), _q("q"), VM, VM, VM)
# per door, what each of DOOR_INPUTS gives over natural and over q: the
# exception class, or the (repr, type) of the scalar
DOOR_OUTCOMES = {
    "make_series": (PLAIN, LIFT_Q),
    "constant": (PLAIN, LIFT_Q),
    "operator": (PLAIN, LIFT_Q),
    "WardSeries": (PLAIN, STRICT_Q),
    "scale": (PLAIN, STRICT_Q),
    "dilate": (PLAIN, STRICT_Q),
    "divide": ((F13, N1, ("Fraction(1, 2)", Fraction), N3, VM, VM, VM, VM, VM),
               (VM, VM, VM, VM, _q("(1/2)"), _q("1/(q)"), VM, VM, VM)),
    "from_rational": ((N3, N1, N2, F13, TypeError, TypeError, ("Fraction(3, 2)", Fraction), N1,
                       TypeError),
                      (_q(3), _q(1), _q(2), _q("(1/3)"), TypeError, TypeError, _q("(3/2)"), _q(1),
                       TypeError)),
    "from_json_dict": ((N3, ParseError, N2, F13, ParseError, ParseError, ParseError, N1,
                        ParseError),
                       (_q(3), ParseError, _q(2), _q("(1/3)"), ParseError, ParseError, ParseError,
                        _q(1), ParseError)),
}


@pytest.mark.parametrize("door", DOORS)
@pytest.mark.parametrize("x", DOOR_INPUTS)
def test_every_door_takes_a_scalar_by_one_rule(nat, qsym, door, x):
    value = DOOR_INPUTS[x]
    for ctx, outcomes in zip((nat, qsym), DOOR_OUTCOMES[door]):
        want = outcomes[list(DOOR_INPUTS).index(x)]
        if isinstance(want, type):
            with pytest.raises(want) as refused:
                DOORS[door](ctx, value)
            # the library's own refusals quote the value as given, not as made canonical
            assert type(refused.value) is TypeError or str(refused.value).endswith(echo(value))
        else:
            c = DOORS[door](ctx, value)
            assert (repr(c), type(c)) == want


def test_series_requires_some_coefficient(fib):
    with pytest.raises(BadIndices):
        WardSeries(fib, [])
    with pytest.raises(BoundExceeded):
        WardSeries(get_context("custom:[0,1,2,3]"), [0, 0, 0, 0, 0])


def test_every_value_refuses_change_through_one_base():
    # fresh values, so that a field let go would break nothing shared
    ctx = PsiContext.from_spec("fib")
    f = make_series(ctx, [1, 2])
    values = [(ctx, "_ints"), (f, "_c"), (PolyQ([1, 2]), "_c"),
              (RatFuncQ(PolyQ([1, 2]), PolyQ([3])), "_n"),
              (ProductChain(2, False, ((1, 0),)), "pairs"),
              (OperatorSum.single(((1, 0),)), "terms"),
              (RuleReport("r", "fib", 1, f, f, True, None), "rule")]
    for value, name in values:
        kept, message = getattr(value, name), f"^{type(value).__name__} is immutable$"
        assert isinstance(value, Immutable)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, kept)
        assert getattr(value, name) is kept


def test_a_value_copies_as_itself_and_pickles_to_an_equal_one():
    ctx = get_context("q")
    f = make_series(ctx, [1, Q, 2])
    values = [Q, RatFuncQ(PolyQ([1, 2]), PolyQ([3, 0, 1])), PolyQ([1, 2]), f,
              ProductChain(2, True, ((1, 0),)), OperatorSum.single(((2, 1),)),
              RuleReport("r", "q", 2, f, f, True, None), ctx]
    for value in values:
        assert copy.copy(value) is value and copy.deepcopy(value) is value
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is type(value) and back == value
    # a context comes back as the shared context of its spec, so series still combine
    fresh = PsiContext.from_spec("custom:[0,1,3/2,2]")
    assert pickle.loads(pickle.dumps(fresh)) is get_context("custom:[0,1,3/2,2]")
    back = pickle.loads(pickle.dumps(f))
    assert back.ctx is ctx and back * f == f * f


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_a_value_pickles_at_every_protocol(protocol):
    # below protocol 2 pickle reads the fields of a value with slots from ``__getstate__`` alone
    ctx = get_context("q")
    f = make_series(ctx, [1, Q, 2])
    for value in (Q, f, ProductChain(2, True, ((1, 0),)), OperatorSum.single(((2, 1),)), ctx):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value
    assert pickle.loads(pickle.dumps(f, protocol)).ctx is ctx


def test_index_pairs_refuse_bools(fib):
    # bool is an int subclass, so True would otherwise read as the index 1
    f = fib_series([1, 2, 3])
    for pair in ((True, False), (2, True), (True, 0)):
        with pytest.raises(BadIndices):
            check_pair(pair)
        with pytest.raises(BadIndices):
            f.fontane(f, *pair)
        with pytest.raises(BadIndices):
            f.star(f, *pair)
        with pytest.raises(BadIndices):
            f.chain(f, (pair,))
    assert check_pair((2, 1)) == (2, 1)


@pytest.mark.parametrize("pair", [(1,), 5, (1, 0, 0)])
def test_check_pair_refuses_what_is_no_pair(pair):
    with pytest.raises(BadIndices, match="^index pair must be"):
        check_pair(pair)


def test_operator_spellings_of_series(fib):
    f, g = fib_series([1, 2, 3]), fib_series([2, 1, 1])
    assert 2 * f == f * 2 == f.scale(2) == fib_series([2, 4, 6])
    assert f / g == f.divide(g) and (f / g) * g == f
    assert not zeros(fib, 3) and f


def typed_coeffs(f):
    return [(repr(x), type(x)) for x in f.coeffs]


@pytest.mark.parametrize("values", [[1, True], [True, 2, 3], [1, Fraction(4, 2)],
                                    [Fraction(4, 2), 1], [Fraction(1, 3), 2], [0, False, 0],
                                    [Fraction(4, 2), Fraction(1, 3)],
                                    [Fraction(-6, 3), True, Fraction(5, 7)]])
def test_plain_series_keep_the_scalars_that_pass_the_type_check(nat, values):
    # a bool and a whole Fraction become ints, and the fast and slow type paths agree
    want = [(repr(x), type(x)) for x in (int(v) if v.denominator == 1 else v for v in values)]
    f = WardSeries(nat, values)
    assert typed_coeffs(f) == want
    assert typed_coeffs(WardSeries(nat, tuple(values))) == want
    # so JSON writes "1", not "True", and reads the series back
    assert WardSeries.from_json_dict(f.to_json_dict()) == f


@pytest.mark.parametrize("values", [[Fraction(1, 2), 2.0], [3, Fraction(2, 3), 0.5]])
def test_plain_series_refuse_floats_among_fractions(nat, values):
    with pytest.raises(VariantMismatch):
        WardSeries(nat, values)


@pytest.mark.parametrize("bad", [1.5, 3.0, Q, embed_rational(2), "1", None])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_plain_series_refuse_other_scalars(nat, bad, where):
    values = [1, 2, 3]
    values[where] = bad
    with pytest.raises(VariantMismatch):
        WardSeries(nat, values)


def test_symbolic_series_take_rational_functions_only(qsym):
    one = embed_rational(1)
    f = WardSeries(qsym, [one, Q, embed_rational(Fraction(4, 2))])
    assert [(str(x), type(x)) for x in f.coeffs] == [("1", RatFuncQ), ("q", RatFuncQ),
                                                     ("2", RatFuncQ)]
    for bad in (True, 1, Fraction(4, 2), Fraction(1, 2), 1.0, 3.0, None):
        for values in ([bad], [one, bad], [bad, one, Q]):
            with pytest.raises(VariantMismatch):
                WardSeries(qsym, values)


# -- ordinary and weighted products ------------------------------------------------


def test_ordinary_product_is_binomial_convolution(nat):
    f = make_series(nat, [1, 2, 3])
    g = make_series(nat, [4, 5, 6])
    # c_n = sum_k C(n,k) a_k b_{n-k}
    assert (f * g).coeffs == (4, 13, 38)


def test_fib_exponential_square_oracle(fib):
    e = e_psi(fib, 4)
    assert e.fontane(e, 1, 0).coeffs == (1, 1, 3, 8, 28)


def test_fib_chain_oracle(fib):
    e = e_psi(fib, 3)
    got = e.chain(e, ((2, 1), (1, 0)))
    assert got.coeffs == (0, 1, 4, Fraction(58, 3))


def test_chain_with_empty_pair_list_is_ordinary(fib):
    f = fib_series([1, -2, 0, 3, 1])
    g = fib_series([2, 1, 1, 0, -1])
    assert f.chain(g, ()) == f * g


def test_chain_accepts_product_chain_object(fib):
    f = fib_series([1, 1, 2, 0, 1])
    g = fib_series([0, 1, 1, 1, 1])
    chain = ProductChain(coefficient=3, pairs=((2, 1), (1, 0)))
    assert chain.apply(f, g) == f.chain(g, ((2, 1), (1, 0))).scale(3)
    star_chain = ProductChain(star=True, pairs=((1, 0),))
    assert star_chain.apply(f, g) == f.star(g, 1, 0)


def test_star_weights_mirror_asterisk(fib):
    f = fib_series([1, 2, 0, 1, 1])
    g = fib_series([3, 1, 2, 1, 0])
    # hand both: star weight F(n+i, n-k+j) is asterisk's weight at swapped slot
    got = f.star(g, 2, 1)
    n = 3
    ctx = f.ctx
    expect_n3 = sum(
        ctx.psi_binomial(n, k)
        * ctx.fontane_kernel(n + 2, n - k + 1)
        * f.coeffs[k]
        * g.coeffs[n - k]
        for k in range(n + 1)
    )
    assert got.coeffs[3] == expect_n3


def test_opposite_product_swaps_arguments(fib):
    f = fib_series([1, 1, 2, -1, 0])
    g = fib_series([2, 0, 1, 1, -3])
    for pairs in (((1, 0),), ((2, 1),), ((1, 0), (2, 0)), ((2, 1), (3, 1))):
        assert f.chain(g, pairs) == g.chain(f, pairs, star=True)


def test_q_product_is_twisted_dilation(qsym):
    f = make_series(qsym, [1, 2, 0, 1, 1, 3])
    g = make_series(qsym, [2, 1, 1, 0, 1, 1])
    for i, j in ((1, 0), (2, 0), (2, 1), (3, 2)):
        got = f.fontane(g, i, j)
        want = (f.q_dilate() * g).scale(Q ** j) if j else f.q_dilate() * g
        assert got == want
        assert g.star(f, i, j) == want


def test_q_collapse_only_j_matters(qsym):
    f = make_series(qsym, [1, 1, 2, 1])
    g = make_series(qsym, [0, 1, 1, 2])
    assert f.fontane(g, 1, 0) == f.fontane(g, 2, 0) == f.fontane(g, 3, 0)
    assert f.fontane(g, 2, 1) == f.fontane(g, 3, 1)


def test_fib_is_neither_associative_nor_commutative(fib):
    e = e_psi(fib, 4)
    left = e.fontane(e, 1, 0).fontane(e, 1, 0)
    right = e.fontane(e.fontane(e, 1, 0), 1, 0)
    assert left.coeffs == (1, 1, 5, 23, 169)
    assert right.coeffs == (1, 1, 5, 19, 107)
    assert first_difference(left, right) == 3
    x = monomial(fib, 1, 4)
    assert e.fontane(x, 1, 0) != x.fontane(e, 1, 0)


def test_left_unit_is_inverse_kernel(fib, qsym):
    f = fib_series([1, 2, 1, 0, 3])
    one = constant(fib, 1, 4)
    # F(3,1) = 1 for fib, so the unit is literally 1 there
    assert one.fontane(f, 3, 1) == f.diag_l(3, 1)
    assert f.fontane(one, 3, 1) == f.diag_m(3, 1)
    g = make_series(qsym, [1, 1, 1, 1, 1])
    e = constant(qsym, Q ** -1, 4)  # 1/F(2,1) = 1/q
    assert e.fontane(g, 2, 1) == g.diag_l(2, 1).scale(Q ** -1)
    assert g.fontane(e, 2, 1) == g.diag_m(2, 1).scale(Q ** -1)


def test_identity_unit_at_j_zero(fib):
    f = fib_series([2, -1, 3, 1, 1])
    one = constant(fib, 1, 4)
    for i in (1, 2, 3):
        assert one.fontane(f, i, 0) == f


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=30, deadline=None)
def test_distributivity_and_bilinearity(a, b, c):
    f, g, h = fib_series(a), fib_series(b), fib_series(c)
    assert f.fontane(g + h, 2, 1) == f.fontane(g, 2, 1) + f.fontane(h, 2, 1)
    assert (f + g).fontane(h, 2, 1) == f.fontane(h, 2, 1) + g.fontane(h, 2, 1)
    assert f.scale(3).fontane(g, 2, 1) == f.fontane(g, 2, 1).scale(3)
    assert f.fontane(g.scale(3), 2, 1) == f.fontane(g, 2, 1).scale(3)


def test_diag_values(fib):
    e = e_psi(fib, 3)
    assert e.diag_m(2, 1).coeffs == (0, 1, 1, 2)
    assert e.diag_l(2, 1).coeffs == (0, 1, 1, Fraction(4, 3))
    assert e.diag_l(2, 0) == e


def test_truncation_soundness(fib):
    f = fib_series([1, 2, 3, 4, 5])
    g = fib_series([5, 4, 3, 2, 1])
    full = f.fontane(g, 2, 1)
    assert full.truncate(2) == f.truncate(2).fontane(g.truncate(2), 2, 1)
    assert f.derivative().truncate(2) == f.truncate(3).derivative()
    with pytest.raises(IndexOutOfBound):
        f.truncate(5)


def test_binary_ops_truncate_to_min_order(fib):
    f = fib_series([1, 2, 3, 4, 5])
    g = make_series(fib, [1, 1])  # order 1
    assert (f + g).order == 1
    assert f.fontane(g, 1, 0).order == 1


# -- derivative ----------------------------------------------------------------


def test_derivative_shifts_coefficients(fib):
    f = fib_series([7, 1, 4, -2, 9])
    assert f.derivative().coeffs == (1, 4, -2, 9)
    assert f.derivative(times=2).coeffs == (4, -2, 9)
    assert f.derivative(0) == f


def test_derivative_of_monomial(fib, nat):
    # D x^4 = s_4 x^3, Fibonacci: 3 x^3
    x4 = monomial(fib, 4, 6)
    assert x4.derivative() == monomial(fib, 3, 5).scale(3)
    x5 = monomial(nat, 5, 8)
    assert x5.derivative() == monomial(nat, 4, 7).scale(5)


def test_derivative_special_series(nat, qsym):
    e = e_psi(nat, 6)
    assert e.derivative() == e.truncate(5)
    assert sin_psi(qsym, 6).derivative() == cos_psi(qsym, 5)
    assert cos_psi(qsym, 6).derivative() == sin_psi(qsym, 5).scale(qsym.from_rational(-1))


def test_derivative_is_linear(fib):
    f = fib_series([1, 2, 0, 4, 1])
    g = fib_series([0, 3, 1, 1, 2])
    assert (f + g).derivative() == f.derivative() + g.derivative()
    assert f.scale(5).derivative() == f.derivative().scale(5)


def test_derivative_errors(fib):
    with pytest.raises(OrderZero):
        constant(fib, 1, 0).derivative()
    with pytest.raises(BadIndices):
        fib_series([1, 2, 3, 4, 5]).derivative(times=-1)


# -- division ------------------------------------------------------------------


def test_divide_geometric_oracle(nat):
    one = constant(nat, 1, 5)
    g = make_series(nat, [1, -1, 0, 0, 0, 0])  # 1 - x
    assert one.divide(g).coeffs == (1, 1, 2, 6, 24, 120)


ROUNDTRIP_SPECS = ("fib", "natural", "q", "q=3/2", "custom:[0,1,1/2,3/2,-2/3,5/4]")


@given(
    spec=st.sampled_from(ROUNDTRIP_SPECS),
    a=coeff_lists,
    b=coeff_lists,
    c0=st.sampled_from([1, 2, -3, Fraction(1, 2)]),
)
@settings(max_examples=120, deadline=None)
def test_divide_roundtrip(spec, a, b, c0):
    ctx = get_context(spec)
    f, g = make_series(ctx, a), make_series(ctx, [c0] + b[1:])
    assert f.divide(g) * g == f


ONE = embed_rational(1)
ZERO = embed_rational(0)


@given(
    a=coeff_lists,
    b=coeff_lists,
    c0=st.sampled_from([Q + ONE, ONE - Q * Q * embed_rational(3), ONE / (Q + ONE)]),
)
@settings(max_examples=30, deadline=None)
def test_divide_roundtrip_by_rational_function_constant_term(qsym, a, b, c0):
    f = make_series(qsym, a)
    g = make_series(qsym, [c0] + [embed_rational(x) for x in b[1:]])
    assert f.divide(g) * g == f


# -- the symbolic-q kernel against the per-term RatFuncQ loop ---------------------


def reference_chain(f, g, pairs=(), star=False) -> list:
    """c_n = sum_k C(n,k) a_k b_{n-k} prod F(n+i, base+j), one RatFuncQ term at a time.

    The oracle for the packed symbolic kernel; it reads the tables only
    through the public accessors.
    """
    ctx = f.ctx
    a, b = f.coeffs, g.coeffs
    out = []
    for n in range(min(len(a), len(b))):
        acc = ctx.zero
        for k in range(n + 1):
            t = ctx.psi_binomial(n, k) * a[k] * b[n - k]
            for i, j in pairs:
                t = t * ctx.fontane_kernel(n + i, (n - k if star else k) + j)
            acc = acc + t
        out.append(acc)
    return out


def reference_divide(f, g) -> list:
    """c_n = (a_n - sum_{k<n} C(n,k) c_k b_{n-k}) / b_0, one RatFuncQ term at a time."""
    ctx = f.ctx
    a, b = f.coeffs, g.coeffs
    c = []
    for n in range(min(len(a), len(b))):
        acc = a[n]
        for k in range(n):
            acc = acc - ctx.psi_binomial(n, k) * c[k] * b[n - k]
        c.append(acc / b[0])
    return c


def reprs(values) -> list:
    # repr of the canonical form, coefficient types included
    return [(repr(x), x.num.coeffs, x.den.coeffs) for x in values]


RATFUNCS = (
    ONE / (Q + ONE),
    ONE - Q * Q * embed_rational(3),
    Q / (embed_rational(2) - Q),
    (Q * Q + embed_rational(Fraction(1, 2))) / (Q * embed_rational(3) + ONE),
    embed_rational(Fraction(-7, 3)) * Q**5,
)
q_scalars = st.one_of(
    st.integers(min_value=-9, max_value=9).map(embed_rational),
    st.integers(min_value=-(2**70), max_value=2**70).map(embed_rational),
    st.fractions(min_value=-50, max_value=50, max_denominator=12).map(embed_rational),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=5).map(
        lambda c: RatFuncQ(PolyQ(c))),
    st.sampled_from(RATFUNCS),
)
q_lists = st.lists(q_scalars, min_size=1, max_size=7)
chains = st.lists(st.sampled_from([(1, 0), (2, 1), (3, 1), (4, 2), (2, 0)]), max_size=3)


@given(a=q_lists, b=q_lists, pairs=chains, star=st.booleans())
@settings(max_examples=150, deadline=None)
def test_symbolic_products_match_per_term_oracle(qsym, a, b, pairs, star):
    f, g = WardSeries(qsym, a), WardSeries(qsym, b)
    assert reprs((f * g).coeffs) == reprs(reference_chain(f, g))
    assert reprs(f.chain(g, pairs, star=star).coeffs) == reprs(
        reference_chain(f, g, pairs, star))


@given(a=q_lists, b=q_lists, terms=st.lists(
    st.tuples(q_scalars, st.booleans(), chains), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_symbolic_operator_sums_match_per_term_oracle(qsym, a, b, terms):
    # rational-function coefficients give weight rows with denominators
    f, g = WardSeries(qsym, a), WardSeries(qsym, b)
    op = OperatorSum(tuple([ProductChain(c, star, tuple(pairs)) for c, star, pairs in terms]))
    expected = [qsym.zero] * min(len(a), len(b))
    for t in op.terms:
        part = reference_chain(f, g, t.pairs, t.star)
        expected = [x + t.coefficient * y for x, y in zip(expected, part)]
    assert reprs(op.apply(f, g).coeffs) == reprs(expected)


@given(a=q_lists, b=q_lists, b0=q_scalars.filter(bool))
@settings(max_examples=120, deadline=None)
def test_symbolic_divide_matches_per_term_oracle(qsym, a, b, b0):
    f, g = WardSeries(qsym, a), WardSeries(qsym, [b0] + b[1:])
    assert reprs(f.divide(g).coeffs) == reprs(reference_divide(f, g))


# one coefficient of a large |.|_1 norm, the rest small
heavy_scalars = st.lists(st.integers(min_value=-(2**60), max_value=2**60), min_size=1,
                         max_size=6).filter(any).map(lambda c: RatFuncQ(PolyQ(c)))


@st.composite
def skewed_lists(draw):
    """Operands whose norm sits at index 0, at the top or nowhere, or that are zero."""
    c = draw(q_lists)
    where = draw(st.sampled_from(("spread", "first", "top", "zero")))
    if where == "zero":
        return [ZERO] * len(c)
    if where != "spread":
        c[0 if where == "first" else -1] = draw(heavy_scalars)
    return c


@given(a=skewed_lists(), b=skewed_lists(), pairs=chains, star=st.booleans(),
       ij=st.sampled_from([(1, 0), (3, 1), (4, 3)]),
       terms=st.lists(st.tuples(q_scalars, st.booleans(), chains), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
# c_1 = a_0 b_1 + a_1 b_0 = 2^63 needs the bound's factor 2^(m-1) = 2
@example(a=[embed_rational(2**62)] * 2, b=[ONE] * 2, pairs=[], star=False, ij=(1, 0),
         terms=[(ONE, False, [])])
def test_symbolic_products_fit_the_closed_form_digit(qsym, a, b, pairs, star, ij, terms):
    # every digit a kernel reads holds a result coefficient below X/2, and the
    # results are the sums of psi_binomial times fontane_kernel
    f, g = WardSeries(qsym, a), WardSeries(qsym, b)
    n, reads = min(f.order, g.order), []

    def unpack(xs, bits):
        out = intpoly._unpack(xs, bits)
        half = 1 << (bits - 1)
        assert all(-half < d < half for v in out for d in v)
        reads.append(len(xs))
        return out

    op = OperatorSum(tuple([ProductChain(c, s, tuple(p)) for c, s, p in terms]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qkernels, "_unpack", unpack)
        got = [f.chain(g, pairs, star=star), f.star(g, *ij), op.apply(f, g),
               general_leibniz(f, g, n)]
    expected = [reference_chain(f, g, pairs, star), reference_chain(f, g, (ij,), True)]
    summed = [ZERO] * min(len(a), len(b))
    for t in op.terms:
        part = reference_chain(f, g, t.pairs, t.star)
        summed = [x + t.coefficient * y for x, y in zip(summed, part)]
    expected += [summed, reference_chain(f, g)[n:]]
    assert [reprs(x.coeffs) for x in got] == [reprs(x) for x in expected]
    assert reads


@pytest.mark.parametrize("bits", (8, 16, 24, 72))
@pytest.mark.parametrize("sign", (1, -1))
def test_symbolic_sums_at_the_digit_edge(qsym, bits, sign):
    # c_1 = a_0 b_1 + a_1 b_0 with no cancellation reaches its bound exactly:
    # 2^(bits-1) - 1 fits digits of ``bits`` bits, one more needs a byte more
    top = 2 ** (bits - 1) - 1
    assert _digit_bits(top) == bits and _digit_bits(top + 1) == bits + 8
    half = 2 ** (bits - 2)
    for c1 in (top, top + 1):
        a = [embed_rational(sign * half), embed_rational(sign * (c1 - half))]
        b = [ONE, ONE]
        f = WardSeries(qsym, a)
        for g in (WardSeries(qsym, b), WardSeries(qsym, [Q + ONE, ONE - Q])):
            assert reprs((f * g).coeffs) == reprs(reference_chain(f, g))
            assert reprs(f.fontane(g, 2, 1).coeffs) == reprs(reference_chain(f, g, ((2, 1),)))
            assert reprs(f.divide(g).coeffs) == reprs(reference_divide(f, g))
        # digits of both signs at the edge side by side
        f = WardSeries(qsym, [embed_rational(c) for c in (top, -top, top)])
        g = WardSeries(qsym, [RatFuncQ(PolyQ([sign * top, -sign * top, sign]))] + [ONE] * 2)
        assert reprs((f * g).coeffs) == reprs(reference_chain(f, g))


def test_symbolic_kernels_make_no_fraction(fractions_made_under):
    # the benchmark's series-q inputs: nonzero digits, a bound-28 context, and
    # divisors with constant terms 1, 2, 3 and 1 + q
    ctx, rng = get_context("q", 28), random.Random(1)
    digits = [v for v in range(-9, 10) if v]

    def series(order, c0=None):
        coeffs = [rng.choice(digits) for _ in range(order + 1)]
        return make_series(ctx, coeffs if c0 is None else [c0] + coeffs[1:])

    codes = {intpoly._canonical.__code__, qkernels._integer_forms.__code__,
             qkernels.convolve.__code__, qkernels.divide.__code__}
    for order in (8, 12):
        f, g = series(order), series(order)
        by2, by1q = f.divide(series(order, 2)), g.divide(series(order, Q + ONE))
        ops = [lambda: f * g, lambda: f.chain(g, ((2, 0), (3, 1), (1, 0))),
               lambda: f.star(g, 2, 1), lambda: f.fontane(g, 4, 2),
               # quotients carry denominators 2^k and (1 + q)^k into the kernels
               lambda: by2 * by1q, lambda: by2.star(by1q, 3, 1), lambda: by1q.divide(by2)]
        ops += [lambda c0=c0: f.divide(series(order, c0)) for c0 in (1, 2, 3, Q + ONE)]
        for op in ops:
            assert fractions_made_under(codes, op) == []
    # reading num or den may make one, and the hook sees it
    halves = next(c for c in by2.coeffs if c._d[-1] != 1)
    assert fractions_made_under({RatFuncQ.num.fget.__code__}, lambda: halves.num)


# -- the plain-rational integer kernel against the Fraction loops -----------------
#
# The loops below and ``conftest.fraction_sums`` are the Fraction arithmetic
# the plain-rational variant ran before its kernels moved to cleared integer
# tables: every term a Fraction product, every sum a Fraction addition.  They
# read the tables through the public accessors only.


def fraction_substitute(ctx, a, b) -> list:
    """c = a / b from d_n = b0^n a_n - sum_{k<n} C(n,k) d_k b0^(n-k-1) b_{n-k} in Fractions."""
    m = min(len(a), len(b))
    b0 = b[0]
    power = [1]
    for _ in range(m):
        power.append(power[-1] * b0)
    scaled = [None] + [b[j] * power[j - 1] for j in range(1, m)]
    d: list = []
    for n in range(m):
        s = power[n] * a[n]
        for k in range(n):
            if d[k] and scaled[n - k]:
                s = s - ctx.psi_binomial(n, k) * d[k] * scaled[n - k]
        d.append(s)
    return [Fraction(x) / p for x, p in zip(d, power[1:])]


def fraction_weights(ctx, pairs, star, m) -> list:
    """W(n, k) = prod F(n+i, base+j) for n <= m, in Fractions."""
    table = []
    for n in range(m + 1):
        row = []
        for k in range(n + 1):
            w = 1
            for i, j in pairs:
                w = w * ctx.fontane_kernel(n + i, (n - k if star else k) + j)
            row.append(w)
        table.append(row)
    return table


def typed(series) -> list:
    # repr of each canonical coefficient, int against Fraction included
    return [(repr(x), type(x)) for x in series.coeffs]


RATIONAL_SPECS = ("natural", "fib", "q=3/2", "q=-2/3",
                  "custom:[0,1,1/2,3/2,-2/3,5/4,7/3,-1/5,2,3/7,11/6,1/9,4,-5/2]")
plain_scalars = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.sampled_from((2**70, -(2**70), 2**70 + 1)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)
plain_lists = st.lists(plain_scalars, min_size=1, max_size=9)


@given(spec=st.sampled_from(RATIONAL_SPECS), a=plain_lists, b=plain_lists, pairs=chains,
       star=st.booleans())
@settings(max_examples=200, deadline=None)
def test_rational_products_match_fraction_loop(spec, a, b, pairs, star):
    ctx = get_context(spec)
    f, g = make_series(ctx, a), make_series(ctx, b)
    assert typed(f * g) == typed(WardSeries(ctx, fraction_sums(ctx, f.coeffs, g.coeffs)))
    m = min(f.order, g.order)
    want = fraction_sums(ctx, f.coeffs, g.coeffs, fraction_weights(ctx, pairs, star, m))
    assert typed(f.chain(g, pairs, star=star)) == typed(WardSeries(ctx, want))


@given(spec=st.sampled_from(RATIONAL_SPECS), a=plain_lists, b=plain_lists, terms=st.lists(
    st.tuples(plain_scalars, st.booleans(), chains), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_rational_operator_sums_match_fraction_loop(spec, a, b, terms):
    ctx = get_context(spec)
    f, g = make_series(ctx, a), make_series(ctx, b)
    op = OperatorSum(tuple([ProductChain(c, star, tuple(pairs)) for c, star, pairs in terms]))
    m = min(f.order, g.order)
    weight = [[0] * (n + 1) for n in range(m + 1)]
    for t in op.terms:
        w = fraction_weights(ctx, t.pairs, t.star, m)
        weight = [[x + t.coefficient * y for x, y in zip(r, s)] for r, s in zip(weight, w)]
    want = fraction_sums(ctx, f.coeffs, g.coeffs, weight)
    assert typed(op.apply(f, g)) == typed(WardSeries(ctx, want))
    # the table read as canonical scalars holds ints when whole
    table = op._weight_rows(ctx, m)
    assert table == weight
    assert all(type(x) is int or x.denominator != 1 for row in table for x in row)


# -- q-analog chains, run as twisted ordinary products, against the weight table --

index_pairs = st.integers(min_value=1, max_value=4).flatmap(
    lambda i: st.tuples(st.just(i), st.integers(min_value=0, max_value=i - 1)))


def canonical(values) -> str:
    # repr with the coefficient types: int against Fraction, also inside a polynomial
    return repr([(x.num.coeffs, x.den.coeffs) if isinstance(x, RatFuncQ) else (type(x), x)
                 for x in values])


@given(spec=st.sampled_from(("q", "q=3/2", "q=-2/3", "q=1", "natural",
                             "custom:[0,1,2,3,4,5,6,7,8,9,10,11,12]")),
       a=st.lists(plain_scalars, min_size=1, max_size=13),
       b=st.lists(plain_scalars, min_size=1, max_size=13),
       pairs=st.lists(index_pairs, min_size=1, max_size=3), star=st.booleans())
@settings(max_examples=150, deadline=None)
def test_q_analog_chains_match_weight_table(spec, a, b, pairs, star):
    # the oracle weighs each term by psi_binomial * prod fontane_kernel; over
    # natural and the classical list every kernel entry is a power of q = 1
    ctx = get_context(spec)
    if ctx.bound is not None:  # the product reads indices up to its order + max i
        a, b = (x[: ctx.bound - max(i for i, _ in pairs) + 1] for x in (a, b))
    f, g = make_series(ctx, a), make_series(ctx, b)
    got = f.star(g, *pairs[0]) if star and len(pairs) == 1 else f.chain(g, pairs, star=star)
    want = WardSeries(ctx, reference_chain(f, g, pairs, star))
    assert canonical(got.coeffs) == canonical(want.coeffs)


@pytest.mark.parametrize("spec,error", [("q=-1", BadSpec), ("custom:[0,1,1,2]", BoundExceeded)])
def test_weighted_products_refuse_a_zero_or_missing_sequence_value(spec, error):
    # the products need index 4: q = -1 makes s_2 = 0, the custom list ends at 3
    f = make_series(get_context(spec), [1, 2])
    for product in (lambda: f.fontane(f, 3, 0), lambda: f.star(f, 3, 1),
                    lambda: f.chain(f, ((1, 0), (3, 1))), lambda: f.chain(f, ((3, 2),), True)):
        with pytest.raises(error):
            product()


@pytest.mark.parametrize("spec", ["natural", "q=3/2", "q"])
def test_a_power_kernel_product_reads_no_row_of_its_reach(spec):
    # F(n + 3000, k) = q^k whatever the reach, so the product is that of reach 1,
    # and neither the sequence, the binomials nor the kernel grow past the operands
    ctx = PsiContext.from_spec(spec)
    f, g = make_series(ctx, [1, 2]), make_series(ctx, [3, 4])
    assert f.fontane(g, 3000, 0) == f.fontane(g, 1, 0)
    assert len(ctx.psi) <= 3 and len(ctx._binom) <= 2 and ctx._kernel == {}


@pytest.mark.parametrize("spec", ["natural", "q=3/2", "q"])
def test_a_power_kernel_diagonal_reads_no_kernel_row(spec, monkeypatch):
    # F(n + 3000, n) = q^n and F(n + 3000, 2) = q^2 whatever the reach, entry by entry
    def no_row(self, n, stop):
        raise AssertionError(f"kernel row {n} read")

    ctx = PsiContext.from_spec(spec)
    f = make_series(ctx, [1, 2, 3])
    monkeypatch.setattr(PsiContext, "_kernel_row", no_row)
    assert f.diag_m(3000, 0) == f.diag_m(1, 0)
    assert f.diag_l(3000, 2) == f.diag_l(3, 2)


def test_a_plain_kernel_product_keeps_only_the_rows_it_reads():
    # over fib the product of order-1 operands at reach 600 reads kernel rows 600 and 601
    ctx = PsiContext.from_spec("fib")
    f, g = make_series(ctx, [1, 2]), make_series(ctx, [3, 4])
    assert f.fontane(g, 600, 0) == WardSeries(ctx, reference_chain(f, g, ((600, 0),)))
    assert set(ctx._kernel) <= {600, 601} and len(ctx._binom) <= 2


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("j", [0, 2, 2999])
def test_a_far_plain_kernel_product_keeps_only_the_prefixes_it_reads(order, j):
    # c_n = sum_k C(n,k) a_k b_{n-k} F(n+3000, k+j), from the sequence values in Fractions;
    # row n + 3000 is read at entries j..j+n, so no kept prefix is longer than twice that slice
    ctx = PsiContext.from_spec("fib")
    a, b = [1, 2, 3][: order + 1], [3, 4, 5][: order + 1]
    got = make_series(ctx, a).fontane(make_series(ctx, b), 3000, j)
    s = [Fraction(x) for x in ctx.psi]
    fact = [Fraction(1)]
    for x in s[1 : order + 1]:
        fact.append(fact[-1] * x)
    want = [sum(fact[n] / (fact[k] * fact[n - k]) * a[k] * b[n - k]
                * (s[n + 3000] - s[k + j]) / s[n + 3000 - k - j] for k in range(n + 1))
            for n in range(order + 1)]
    assert list(got.coeffs) == want
    if j == 2999:  # every slice starts past its own length: built for its read, kept by none
        assert ctx._kernel == {}
    else:
        assert ctx._kernel and all(len(v) <= 2 * (row - 3000 + 1)
                                   for row, (_, v) in ctx._kernel.items())


# a kernel that is not a power of q, with index 40 in reach
CUSTOM_40 = "custom:[" + ",".join(map(str, [0, 1] + [
    Fraction((-1) ** n * (3 * n + 1), n % 5 + 1) for n in range(2, 41)])) + "]"


@pytest.mark.parametrize("spec", ["fib", CUSTOM_40])
def test_kernel_entries_read_alone_keep_no_row(spec):
    # fontane_kernel and the diagonal maps read each entry as one ratio of the sequence integers
    ctx = PsiContext.from_spec(spec)
    assert ctx.fontane_kernel(6, 2) == Fraction(ctx.psi[6] - ctx.psi[2]) / ctx.psi[4]
    for n in range(1, 41):
        for k in range(n):
            ctx.fontane_kernel(n, k)
    f = make_series(ctx, [1, 2, 3])
    f.diag_m(30, 2)
    f.diag_l(30, 2)
    assert ctx._kernel == {}


def longest_slices(calls) -> dict:
    """Per kernel row, the longest slice that chains of (pairs, order) read: n + 1 entries of row n + i."""
    longest: dict = {}
    for pairs, order in calls:
        for i, _ in pairs:
            for n in range(order + 1):
                longest[n + i] = max(longest.get(n + i, 0), n + 1)
    return longest


def assert_prefixes_within_twice_their_slices(ctx, calls) -> None:
    longest = longest_slices(calls)
    assert all(len(v) <= 2 * longest[row] for row, (_, v) in ctx._kernel.items())


@pytest.mark.parametrize("star", [False, True])
@pytest.mark.parametrize("spec, reach", [("fib", 40), ("fib", 1000), (CUSTOM_40, 20)])
def test_a_chain_reading_both_ends_of_a_row_keeps_no_far_slice(spec, reach, star):
    # (N, N-1) reads row r at entries N-1..r, and (N+1, 0) reads the same row at 0..r-N: the far
    # end is built for its read alone, so no kept prefix is longer than twice a slice read
    ctx = PsiContext.from_spec(spec)
    pairs = ((reach, reach - 1), (reach + 1, 0))
    calls = []
    for order in (1, 2, 3):
        f = make_series(ctx, [Fraction(3 * n + 1, n + 2) for n in range(order + 1)])
        g = make_series(ctx, [(-1) ** n * (n + 5) for n in range(order + 1)])
        assert list(f.chain(g, pairs, star).coeffs) == reference_chain(f, g, pairs, star)
        calls.append((pairs, order))
        assert_prefixes_within_twice_their_slices(ctx, calls)


@given(calls=st.lists(st.tuples(
    st.lists(st.integers(min_value=1, max_value=60).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(min_value=0, max_value=i - 1))),
        min_size=1, max_size=3),
    st.integers(min_value=0, max_value=6), st.booleans()), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_kept_kernel_prefixes_stay_within_twice_the_slices_read(calls):
    # whatever slices chains read, and in whatever order, each kept prefix is at most
    # twice the longest slice read from its row, checked after every call
    ctx = PsiContext.from_spec("fib")
    read = []
    for pairs, order, star in calls:
        f = make_series(ctx, [n % 4 + 1 for n in range(order + 1)])
        g = make_series(ctx, [(-1) ** n * (n + 2) for n in range(order + 1)])
        assert list(f.chain(g, pairs, star).coeffs) == reference_chain(f, g, pairs, star)
        read.append((pairs, order))
        assert_prefixes_within_twice_their_slices(ctx, read)


def test_convolve_refuses_weight_rows_that_end_before_the_product():
    # weight rows built for m = 2 cannot weigh rows 3 and 4 of order-5 operands
    ctx = get_context("fib")
    f, g = make_series(ctx, [1, 2, 3, 4, 5, 6]), make_series(ctx, [2, 1, 3, 1, 2, 5])
    op = binomial_operator(2, 1)
    with pytest.raises(IndexOutOfBound,
                       match="^weight rows end at row 2, the product needs row 4$"):
        _convolve(f, g, op.kernel_terms(ctx, 2, 1, 1))
    assert [str(x) for x in _convolve(f, g, op.kernel_terms(ctx, 4, 1, 1)).coeffs] == [
        "2", "15", "39", "487/3", "600"]


@given(spec=st.sampled_from(RATIONAL_SPECS), a=plain_lists, b=plain_lists,
       b0=plain_scalars.filter(bool))
@settings(max_examples=150, deadline=None)
def test_rational_divide_matches_fraction_loop(spec, a, b, b0):
    ctx = get_context(spec)
    f, g = make_series(ctx, a), make_series(ctx, [b0] + b[1:])
    want = fraction_substitute(ctx, f.coeffs, g.coeffs)
    assert typed(f.divide(g)) == typed(WardSeries(ctx, want))


def test_rational_divide_at_order_forty():
    # deep enough that G_n = 2^(n(n-1)/2) for q = 3/2 runs to 780 bits
    for spec in ("q=3/2", "fib", RATIONAL_SPECS[-1]):
        ctx = get_context(spec)
        order = 40 if ctx.bound is None else ctx.bound
        f = make_series(ctx, [(-1) ** n * (n + 1) for n in range(order + 1)])
        g = make_series(ctx, [Fraction(3, 2)] + [n % 4 - 1 for n in range(1, order + 1)])
        assert typed(f.divide(g)) == typed(WardSeries(ctx, fraction_substitute(ctx, f.coeffs,
                                                                                g.coeffs)))


@pytest.mark.parametrize("spec", ["q=3/2", "q=-7/4"])
def test_rational_divide_at_the_workloads_depth(spec):
    # order 64, the deepest divide of the series-rational workload: G_64 = 2^2016 for q = 3/2
    ctx = get_context(spec)
    f = make_series(ctx, [Fraction((-1) ** n * (n + 1), n % 3 + 1) for n in range(65)])
    g = make_series(ctx, [Fraction(3, 2)] + [Fraction(n % 5 - 2, n % 4 + 1) for n in range(1, 65)])
    assert typed(f.divide(g)) == typed(WardSeries(ctx, fraction_substitute(ctx, f.coeffs,
                                                                            g.coeffs)))


@pytest.mark.parametrize("spec", ["q=3/2", "q=-7/4", "fib", RATIONAL_SPECS[-1]])
def test_a_division_is_the_same_after_its_rows_are_dropped(spec):
    ctx = PsiContext.from_spec(spec)
    order = 30 if ctx.bound is None else ctx.bound
    f = make_series(ctx, [n * n - 3 for n in range(order + 1)])
    g = make_series(ctx, [Fraction(-5, 3)] + [Fraction(1, n) for n in range(1, order + 1)])
    want = f.divide(g)
    del ctx._scale[2:]
    assert typed(f.divide(g)) == typed(want)
    assert typed(f.truncate(order // 2).divide(g)) == typed(want.truncate(order // 2))


def test_divide_requires_invertible_constant_term(fib):
    f = fib_series([1, 0, 0, 0, 0])
    with pytest.raises(NonInvertible):
        f.divide(fib_series([0, 1, 0, 0, 0]))


def test_scalar_division(fib):
    f = fib_series([2, 4, 6, 0, 0])
    assert (f / 2).coeffs == (1, 2, 3, 0, 0)
    with pytest.raises((DivisionByZero, ZeroDivisionError)):
        f / 0


# -- kernel results are born canonical -------------------------------------------

# the benchmark's 69-value custom list and a list with fractional and negative values
CANONICAL_SPECS = ("natural", "fib", "q=3/2", "q=-7/4", "q=-2/5", "q", custom_spec(68),
                   "custom:[0,1,3/2,2,-5/3,7,1/4,3,11/5,9,13]")


def is_canonical(x) -> bool:
    if type(x) is Fraction:
        return x.denominator > 1 and gcd(x.numerator, x.denominator) == 1
    if type(x) is RatFuncQ:
        # the public constructor reduces num / den again
        y = RatFuncQ(x.num, x.den)
        return (x._n, x._d) == (y._n, y._d)
    return type(x) is int


@pytest.mark.parametrize("spec", CANONICAL_SPECS)
def test_kernel_results_are_born_canonical(spec):
    # each kernel's coefficients equal, by repr, the same ones through WardSeries(ctx, ...)
    ctx, rng = get_context(spec), random.Random(7)
    order = 6 if ctx.bound is not None and ctx.bound < 20 else 12

    def draw(c0=None):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(order + 1)]
        return make_series(ctx, c if c0 is None else [c0] + c[1:])

    f, g = draw(), draw()
    results = [f * g, f.chain(g, ((2, 1), (3, 2), (4, 0))), f.star(g, 3, 1),
               general_leibniz(f, g, 3)]
    results += [f.divide(draw(c0)) for c0 in (1, -3, Fraction(-5, 2), Fraction(2, 3))]
    for r in results:
        assert all(map(is_canonical, r.coeffs)), spec
        again = WardSeries(ctx, list(r.coeffs))
        assert [repr(x) for x in again.coeffs] == [repr(x) for x in r.coeffs], spec
        assert repr(again) == repr(r) and again == r


@pytest.mark.parametrize("spec", ("q=3/2", "q"))
def test_kernel_results_skip_the_checks_the_public_constructor_keeps(monkeypatch, spec):
    ctx = get_context(spec)
    f, g = make_series(ctx, [1, 2, Fraction(1, 3)]), make_series(ctx, [-2, 1, 5])

    def refuse(*args):
        raise AssertionError("a kernel result was checked again")

    monkeypatch.setattr("psicalc.series._admit", refuse)
    f * g, f.star(g, 2, 1), f.divide(g), general_leibniz(f, g, 1)
    with pytest.raises(AssertionError):
        WardSeries(ctx, [1, 2])


# -- guards and plumbing ---------------------------------------------------------


def test_context_mismatch_is_detected():
    f = make_series(get_context("fib", 8), [1, 2])
    g = make_series(get_context("natural", 9), [1, 2])
    with pytest.raises(ContextMismatch):
        f + g
    with pytest.raises(ContextMismatch):
        f.fontane(g, 1, 0)


def test_bound_guard_blocks_kernel_overrun():
    ctx = get_context("custom:[0,1,1,2,3,5]")
    f = make_series(ctx, [1] * 6)
    with pytest.raises(BoundExceeded):
        f.fontane(f, 1, 0)
    with pytest.raises(BoundExceeded):
        f.diag_m(1, 0)


def test_bad_pair_indices(fib):
    f = fib_series([1, 1, 1, 1, 1])
    for i, j in ((0, 0), (1, 1), (2, 3), (-1, 0), (1, -1)):
        with pytest.raises(BadIndices):
            f.fontane(f, i, j)


def test_q_dilate_needs_q_context(fib):
    from psicalc.errors import PsiCalcError

    with pytest.raises(PsiCalcError):
        fib_series([1, 1, 1, 1, 1]).q_dilate()


def test_dilate_scales_by_powers(nat):
    e = e_psi(nat, 4)
    assert e.dilate(-1).coeffs == (1, -1, 1, -1, 1)
    assert e.dilate(Fraction(1, 2)).coeffs == (
        1,
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 16),
    )


# -- serialization ----------------------------------------------------------------


def test_json_roundtrip_rational(fib):
    f = fib_series([1, Fraction(-7, 3), 0, 2, 1])
    data = f.to_json_dict()
    assert data["psi"] == "fib"
    assert data["order"] == 4
    assert data["coeffs"][1] == "-7/3"
    back = WardSeries.from_json_dict(data, ctx=f.ctx)
    assert back == f


def test_json_roundtrip_symbolic(qsym):
    f = make_series(qsym, [1, 0, 2]).scale(Q)
    data = f.to_json_dict()
    back = WardSeries.from_json_dict(data, ctx=qsym)
    assert back == f


def test_json_fresh_context():
    f = make_series(get_context("q=3/2", 6), [1, 2, 3])
    data = f.to_json_dict()
    back = WardSeries.from_json_dict(data)
    assert back.ctx is f.ctx
    assert [int(c) for c in back.coeffs] == [1, 2, 3]
    with pytest.raises(BoundExceeded):
        WardSeries.from_json_dict({"psi": "custom:[0,1,2]", "order": 3,
                                   "coeffs": ["1", "0", "0", "0"]})


def test_json_rejects_garbage(fib):
    with pytest.raises(ParseError):
        WardSeries.from_json_dict({"psi": "fib", "coeffs": ["1"]})
    with pytest.raises(ParseError):
        WardSeries.from_json_dict({"psi": "fib", "order": 1, "coeffs": ["1"]})
    with pytest.raises(ParseError):
        WardSeries.from_json_dict({"psi": "fib", "order": 0, "coeffs": ["x"]})
    with pytest.raises(ContextMismatch):
        WardSeries.from_json_dict(
            {"psi": "natural", "order": 0, "coeffs": ["1"]}, ctx=fib
        )
    with pytest.raises(ParseError, match="^series must be a JSON object"):
        series_header([1])


def test_first_difference(fib):
    f = fib_series([1, 2, 3, 4, 5])
    assert first_difference(f, f) is None
    g = fib_series([1, 2, 0, 4, 5])
    assert first_difference(f, g) == 2
    assert first_difference(f, f.truncate(2)) == 3


def test_first_difference_checks_its_operands(fib, nat):
    f = fib_series([1, 2, 3])
    for other in ([1, 2, 3], make_series(nat, [1, 2, 3])):
        with pytest.raises(ContextMismatch):
            first_difference(f, other)
