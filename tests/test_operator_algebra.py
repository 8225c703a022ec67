import random
from fractions import Fraction
from math import comb, gcd

import pytest
from conftest import fraction_sums
from hypothesis import given, settings
from hypothesis import strategies as st

from psicalc import operator_algebra, psi_context
from psicalc.calculus import general_leibniz
from psicalc.coefficients import _int_ratio
from psicalc.errors import (BadIndices, BadSpec, BoundExceeded, FlavorMismatch, KOutOfRange,
                            VariantMismatch)
from psicalc.operator_algebra import (
    ORDINARY,
    ZERO_OPERATOR,
    OperatorSum,
    ProductChain,
    binomial_operator,
    binomial_terms,
    binomial_weights,
    extensional_eq,
    rho,
    sigma,
)
from psicalc.psi_context import PsiContext, _q_power, get_context
from psicalc.qfield import Q, embed_rational
from psicalc.series import WardSeries, _convolve, e_psi, make_series, monomial, zeros
from psicalc.verify import custom_spec, default_specs

A10 = OperatorSum.single(((1, 0),))
A20 = OperatorSum.single(((2, 0),))
A21 = OperatorSum.single(((2, 1),))
S21 = OperatorSum.single(((2, 1),), star=True)


def op(*pair_lists):
    acc = None
    for pairs in pair_lists:
        t = OperatorSum.single(pairs)
        acc = t if acc is None else acc + t
    return acc


# -- chains ----------------------------------------------------------------------


def test_chain_validates_pairs_and_flavor():
    with pytest.raises(BadIndices):
        ProductChain(pairs=((1, 1),))
    with pytest.raises(BadIndices):
        ProductChain(pairs=((0, 0),))
    with pytest.raises(BadIndices):  # True is not the index 1
        ProductChain(pairs=((True, False),))
    for bad in ("star", 1, None):  # the flavor is a bool: neither a name nor an int
        with pytest.raises(FlavorMismatch):
            ProductChain(star=bad, pairs=((1, 0),))
    ProductChain(pairs=())  # empty chain is the ordinary product


def test_chains_and_sums_are_immutable_values():
    a = ProductChain(coefficient=2, star=True, pairs=[(2, 1), (1, 0)])
    b = ProductChain(2, True, ((2, 1), (1, 0)))
    assert a == b and hash(a) == hash(b) and a.pairs == ((2, 1), (1, 0))
    assert a != ProductChain(2, False, ((2, 1), (1, 0))) and a != (2, True)
    star = "coefficient=2, star=True"
    assert repr(a) == f"ProductChain({star}, pairs=((2, 1), (1, 0)))"
    s = OperatorSum(terms=(a,))
    assert s == OperatorSum((b,)) and hash(s) == hash(OperatorSum((b,)))
    assert {s, OperatorSum((b,))} == {s}
    # the sum keeps its chains canonical: pairs sorted
    assert repr(s) == f"OperatorSum(terms=(ProductChain({star}, pairs=((1, 0), (2, 1))),))"
    assert OperatorSum() == ZERO_OPERATOR and repr(ZERO_OPERATOR) == "OperatorSum(terms=())"
    for value, name in ((a, "pairs"), (a, "coefficient"), (s, "terms"), (s, "other")):
        with pytest.raises(AttributeError):
            setattr(value, name, ())
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(a, "__dict__") and not hasattr(s, "__dict__")


def test_chain_rendering():
    assert ProductChain(pairs=()).render() == "*inf"
    assert ProductChain(pairs=((1, 0),)).render() == "*(1,0)"
    assert ProductChain(pairs=((1, 0), (2, 0))).render() == "*(1,0)*(2,0)"
    assert ProductChain(star=True, pairs=((2, 1),)).render() == "#(2,1)"
    assert ProductChain(coefficient=3, pairs=((1, 0),)).render() == "3·*(1,0)"
    # str is the rendering, of a chain and of a sum
    assert str(ProductChain(2, True, ((2, 1),))) == "2·#(2,1)"
    assert str(OperatorSum.single(((1, 0),)) + ORDINARY) == "*inf [+] *(1,0)"
    assert str(ZERO_OPERATOR) == "*0"


@pytest.mark.parametrize("combine", [lambda s: s + 1, lambda s: s - 1, lambda s: s * 1])
def test_operator_sums_combine_only_with_sums(combine):
    with pytest.raises(TypeError):
        combine(ORDINARY)


@pytest.mark.parametrize("bad", ["x", 1.5, None, 2j, [1]])
def test_chain_refuses_a_coefficient_of_neither_variant(bad):
    # the refusal comes at construction, before a render or a sum could show the value
    with pytest.raises(VariantMismatch):
        ProductChain(coefficient=bad)
    with pytest.raises(VariantMismatch):
        OperatorSum.single(coefficient=bad)
    with pytest.raises(VariantMismatch):
        A10.scale(bad)


def test_chain_takes_rationals_and_rational_functions_of_q():
    flag = ProductChain(coefficient=True)
    assert type(flag.coefficient) is int and flag.render() == "*inf"
    assert ProductChain(coefficient=Fraction(1, 2)).render() == "1/2·*inf"
    assert ProductChain(coefficient=Q).render() == "q·*inf"
    total = OperatorSum.single(coefficient=Fraction(3, 2)) + OperatorSum.single(
        coefficient=Fraction(5, 2))
    assert total.render() == "4·*inf"


def test_whole_coefficients_are_stored_as_int():
    # every door (construction, the merge of equal chains, scale) keeps a whole value an int
    sums = [OperatorSum.single(coefficient=Fraction(4, 2)),
            OperatorSum.single(coefficient=Fraction(3, 2)) + OperatorSum.single(
                coefficient=Fraction(5, 2)),
            OperatorSum.single(((1, 0),), coefficient=3).scale(Fraction(2, 3)),
            OperatorSum.single(coefficient=Fraction(3, 2)) * OperatorSum.single(
                ((1, 0),), coefficient=Fraction(2, 3))]
    for total in sums:
        assert [type(t.coefficient) for t in total.terms] == [int]
    assert repr(sums[1]).startswith("OperatorSum(terms=(ProductChain(coefficient=4, ")
    assert type(ProductChain(coefficient=Fraction(1, 2)).coefficient) is Fraction


def test_sum_rendering():
    assert binomial_operator(2, 1).render() == "*(1,0) [+] *(2,1)"
    assert ZERO_OPERATOR.render() == "*0"
    assert ORDINARY.render() == "*inf"


# -- canonical form -----------------------------------------------------------------


def test_boxplus_merges_syntactically_equal_chains():
    two = A10 + A10
    assert len(two.terms) == 1
    assert two.terms[0].coefficient == 2
    assert two - two == ZERO_OPERATOR
    assert two + ZERO_OPERATOR == two


def test_merge_ignores_pair_order_inside_chain():
    a = OperatorSum.single(((1, 0), (2, 0)))
    b = OperatorSum.single(((2, 0), (1, 0)))
    assert a == b
    assert len((a + b).terms) == 1


def test_empty_chain_flavors_collapse():
    plain = OperatorSum.single((), star=False)
    starred = OperatorSum.single((), star=True)
    assert plain == starred == ORDINARY


def test_scale_by_zero_gives_zero_operator():
    assert binomial_operator(3, 1).scale(0) == ZERO_OPERATOR
    assert (A10 + A10).scale(Fraction(1, 2)).terms[0].coefficient == 1


def test_canonicalization_is_idempotent():
    s = A21 + A10 + OperatorSum.single(((1, 0),), coefficient=-1)
    assert s == A21
    assert OperatorSum(s.terms) == s


# -- concatenation -------------------------------------------------------------------


def test_boxplus_is_commutative_and_associative():
    a, b, c = A10, A21.scale(2), A20 + S21
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)


def test_concat_unit_and_distribution():
    assert ORDINARY * A10 == A10
    assert A10 * ORDINARY == A10
    lhs = A10 * (A20 + A21)
    rhs = A10 * A20 + A10 * A21
    assert lhs == rhs
    lhs = (A20 + A21) * A10
    rhs = A20 * A10 + A21 * A10
    assert lhs == rhs


def test_concat_multiplies_coefficients_and_joins_pairs():
    a = OperatorSum.single(((1, 0),), coefficient=2)
    b = OperatorSum.single(((2, 1),), coefficient=3)
    got = a * b
    assert got.terms[0].coefficient == 6
    assert got.terms[0].pairs == ((1, 0), (2, 1))


def test_concat_rejects_mixed_flavors():
    with pytest.raises(FlavorMismatch):
        A10 * S21
    # empty chains are flavor-neutral on either side
    assert ORDINARY * S21 == S21


def test_concat_is_associative():
    a, b, c = A10, A21, A20
    assert (a * b) * c == a * (b * c)


# -- shift maps ------------------------------------------------------------------------


def test_rho_shifts_both_indices():
    assert rho(A10) == OperatorSum.single(((2, 1),))
    assert rho(op(((1, 0), (2, 0)))) == OperatorSum.single(((2, 1), (3, 1)))
    assert rho(ORDINARY) == ORDINARY


def test_sigma_shifts_i_and_appends():
    assert sigma(ORDINARY) == A10
    assert sigma(A10) == OperatorSum.single(((2, 0), (1, 0)))
    assert sigma(A21) == OperatorSum.single(((3, 1), (1, 0)))


def test_shift_maps_are_linear():
    s = A10 + A21.scale(3)
    assert rho(s) == rho(A10) + rho(A21).scale(3)
    assert sigma(s) == sigma(A10) + sigma(A21).scale(3)


def test_shift_maps_reject_star_chains():
    with pytest.raises(FlavorMismatch):
        rho(S21)
    with pytest.raises(FlavorMismatch):
        sigma(S21)


def test_sigma_powers_of_ordinary():
    acc = ORDINARY
    for k in range(1, 5):
        acc = sigma(acc)
        want = OperatorSum.single(tuple((i, 0) for i in range(k, 0, -1)))
        assert acc == want


# -- the operator triangle ----------------------------------------------------------


def test_triangle_rows_match_table():
    rows = {
        (0, 0): "*inf",
        (1, 0): "*inf",
        (1, 1): "*(1,0)",
        (2, 0): "*inf",
        (2, 1): "*(1,0) [+] *(2,1)",
        (2, 2): "*(1,0)*(2,0)",
        (3, 0): "*inf",
        (3, 1): "*(1,0) [+] *(2,1) [+] *(3,2)",
        (3, 2): "*(1,0)*(2,0) [+] *(1,0)*(3,1) [+] *(2,1)*(3,1)",
        (3, 3): "*(1,0)*(2,0)*(3,0)",
    }
    for (n, k), want in rows.items():
        assert binomial_operator(n, k).render() == want


def test_triangle_term_counts_are_binomial():
    for n in range(8):
        for k in range(n + 1):
            assert len(binomial_operator(n, k).terms) == comb(n, k)


def test_triangle_boundaries():
    for n in range(9):
        assert binomial_operator(n, 0) == ORDINARY
        want_diag = OperatorSum.single(tuple((i, 0) for i in range(n, 0, -1)))
        assert binomial_operator(n, n) == (ORDINARY if n == 0 else want_diag)
    with pytest.raises(KOutOfRange):
        binomial_operator(3, 4)
    with pytest.raises(KOutOfRange):
        binomial_operator(-1, 0)


def test_triangle_recurrence():
    for n in range(1, 8):
        for k in range(1, n):
            got = binomial_operator(n, k)
            want = rho(binomial_operator(n - 1, k)) + sigma(binomial_operator(n - 1, k - 1))
            assert got == want


def test_first_column_closed_form():
    for n in range(1, 9):
        want = op(*(((i + 1, i),) for i in range(n)))
        assert binomial_operator(n, 1) == want


def test_second_column_closed_form():
    for n in range(2, 9):
        want = op(
            *(
                ((i + j + 2, i + j), (i + 1, i))
                for i in range(n - 1)
                for j in range(n - 1 - i)
            )
        )
        assert binomial_operator(n, 2) == want


def test_unrolled_recurrence():
    def sig_pow(s, k):
        for _ in range(k):
            s = sigma(s)
        return s

    for n in range(1, 7):
        for k in range(1, n):
            acc = None
            for i in range(1, k + 1):
                t = sig_pow(rho(binomial_operator(n - i, k - i + 1)), i - 1)
                acc = t if acc is None else acc + t
            acc = acc + sig_pow(binomial_operator(n - 1, 0), k)
            assert acc == binomial_operator(n, k), (n, k)


# -- the weight tables of the triangle, stored per context ----------------------------

# not the classical list 0, 1, 2, ...; long enough for r + n = 16
LONG_CUSTOM = "custom:[0,1,3/2,2,-5/3,7,1/4,3,11/5,9,13,-2,5/7,6,-1/3,8,17]"


def product_values(ctx, n, m):
    """The product rows P<n k>(r, c) = C(r, c) W<n k>(r, c), r <= m, that binomial_terms weighs by.

    A power kernel stores no table: term k is the twist (k, 0) times C(n, k),
    so W<n k>(r, c) = C(n, k) q^(k c).  Otherwise they are the stored tables
    of ``binomial_weights``, read as values.
    """
    if ctx.power_kernel:
        return [[[ctx.psi_binomial(r, c) * x * _q_power(ctx, p * c + s) for c in range(r + 1)]
                 for r in range(m + 1)]
                for *_, (p, s), x in binomial_terms(ctx, n, m)]
    return [[[_int_ratio(v[c], d) for c in range(r + 1)] for r, (d, v) in enumerate(table[: m + 1])]
            for table in binomial_weights(ctx, n, m)]


@pytest.mark.parametrize("spec", ("fib", LONG_CUSTOM, "q=3/2", "natural"))
def test_binomial_weights_give_the_rule_on_monomials(spec):
    # D^n(x^u x^(r+n-u)) at x^r: only c = u-n+k of term k survives, so the
    # product rows P<n k>(r, c) = C(r, c) W<n k>(r, c) give sum_k P<n k>(r, c) = C(r+n, u);
    # over a power kernel that is q-Vandermonde, read off the twists
    ctx = get_context(spec)
    for n in range(7):
        tables = product_values(ctx, n, 10)
        for r in range(11):
            for u in range(r + n + 1):
                got = sum(tables[k][r][c]
                          for k in range(n + 1) if 0 <= (c := u - n + k) <= r)
                assert got == ctx.psi_binomial(r + n, u), (n, r, u)


@pytest.mark.parametrize("spec", ("fib", "natural", "q=3/2", "q=-2/5", LONG_CUSTOM))
def test_binomial_weights_grow_in_any_order(spec):
    # the product rows are the binomial times the weight of the slow oracle,
    # whatever order the requests come in; a power kernel, weighed by twists,
    # stores none
    ctx = PsiContext.from_spec(spec)
    assert ctx._weights == []
    requests = ((2, 5), (6, 3), (3, 12), (8, 0))
    stored, reached = {}, {}
    for n, m in requests + requests[::-1]:
        values = product_values(ctx, n, m)
        assert len(values) == n + 1
        for k, table in enumerate(values):
            weight = binomial_operator(n, k)._weight_rows(ctx, m)
            assert table == [[ctx.psi_binomial(r, c) * w for c, w in enumerate(row)]
                             for r, row in enumerate(weight)]
        if ctx.power_kernel:
            assert ctx._weights == []
            continue
        tables = binomial_weights(ctx, n, m)
        assert stored.setdefault(n, tables) is tables
        assert all(len(table) > m for table in tables)
        # a request reaches levels 0..n and needs rows 0..m+n-j of level j;
        # a level holds what its largest request needed
        for j in range(n + 1):
            reached[j] = max(reached.get(j, 0), m + n - j + 1)
        for j, level in enumerate(ctx._weights):
            if j <= n:
                assert all(len(t) >= m + n - j + 1 for t in level)
            assert [len(t) for t in level] == [reached[j]] * (j + 1)
        assert_level_rows_share_one_canonical_denominator(ctx)
    assert ctx.power_kernel or len(ctx._weights[0][0]) == 16 and len(ctx._weights) == 9


def assert_level_rows_share_one_canonical_denominator(ctx):
    # row r of a level is one denominator d > 0 for every k, and no prime of
    # d divides every entry of the row over all k
    for j, level in enumerate(ctx._weights):
        for r, rows in enumerate(zip(*level)):
            d = rows[0][0]
            assert d > 0 and all(e == d for e, _ in rows), (j, r)
            assert gcd(d, *[x for _, v in rows for x in v]) == 1, (j, r)


def test_binomial_weights_read_no_kernel_row():
    # the fib triangle comes from the sequence integers alone
    ctx = PsiContext.from_spec("fib")
    rng = random.Random(5)
    f, g = (make_series(ctx, [rng.randint(-9, 9) for _ in range(17)]) for _ in range(2))
    for n in range(9):
        general_leibniz(f, g, n)
    assert len(ctx._weights) == 9 and ctx._kernel == {}
    assert_level_rows_share_one_canonical_denominator(ctx)


def test_binomial_weights_refuse_symbolic_q(qsym):
    # every power kernel, symbolic q among them, is weighed by twists
    # (binomial_terms), and builds no table
    for ctx in (qsym, *map(PsiContext.from_spec, ("natural", "q=3/2", "q=-2/5"))):
        with pytest.raises(VariantMismatch,
                           match="^binomial_weights needs a kernel that is not a power of q"):
            binomial_weights(ctx, 2, 3)
        assert ctx._weights == []


def test_binomial_weights_grow_only_the_levels_a_request_reaches():
    ctx = PsiContext.from_spec("fib")
    binomial_weights(ctx, 8, 0)
    before = [[len(t) for t in level] for level in ctx._weights]
    binomial_weights(ctx, 1, 60)
    assert [[len(t) for t in level] for level in ctx._weights][2:] == before[2:]
    assert [len(t) for t in ctx._weights[1]] == [61, 61]


@pytest.mark.parametrize("spec", default_specs(8))
def test_binomial_terms_equal_the_binomial_operators_term_by_term(spec):
    # one kernel call over binomial_terms against every chain of every <n k>
    # applied alone at offsets (n-k, k), the results added up
    ctx = get_context(spec)
    rng = random.Random(spec)
    f, g = (make_series(ctx, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(9)])
            for _ in range(2))
    for n in range(5):
        m = 8 - n
        terms = binomial_terms(ctx, n, m)
        assert [t[:2] for t in terms] == [(n - k, k) for k in range(n + 1)]
        want = None
        for k in range(n + 1):
            # cut to the m + 1 rows a term carries: alone at offsets (n-k, k), it would
            # read the uncut operands further, past the end of its weight rows
            a, b = f.truncate(m + n - k), g.truncate(m + k)
            for term in binomial_operator(n, k).kernel_terms(ctx, m, n - k, k):
                part = _convolve(a, b, [term])
                want = part if want is None else want + part
        assert repr(_convolve(f, g, terms)) == repr(want)


@pytest.mark.parametrize("spec", ("fib", "custom:[0,1,3/2,2,-5/3,7,1/4,3,11/5,9,13]",
                                  "natural", "q", "q=3/2"))
@pytest.mark.parametrize("pairs", (((2, 1),), ((1, 0), (3, 2))))
def test_star_terms_are_their_asterisk_twins_with_the_flag_set(spec, pairs):
    # the flavor is read by the kernel alone, as swapped operands: a star chain
    # is weighed by the rows or twist of its asterisk twin
    ctx = get_context(spec)
    (i, j, star, w, c), = OperatorSum.single(pairs, True).kernel_terms(ctx, 6)
    (i0, j0, star0, w0, c0), = OperatorSum.single(pairs, False).kernel_terms(ctx, 6)
    assert (star, star0) == (True, False) and (i, j, c) == (i0, j0, c0)
    if ctx.power_kernel:
        assert w == w0 == (len(pairs), sum(p[1] for p in pairs))
    else:
        rows = list(w)
        assert len(rows) == 7 and rows == list(w0)


# -- action on series -----------------------------------------------------------------


def test_apply_is_weighted_product(fib):
    f = make_series(fib, [1, 2, 0, 1, 1])
    g = make_series(fib, [0, 1, 1, 2, 1])
    assert A10.apply(f, g) == f.fontane(g, 1, 0)
    assert S21.apply(f, g) == f.star(g, 2, 1)
    s = A10 + A21.scale(2)
    assert s.apply(f, g) == f.fontane(g, 1, 0) + f.fontane(g, 2, 1).scale(2)
    assert ZERO_OPERATOR.apply(f, g) == f.fontane(g, 1, 0).scale(0)


def test_apply_on_naturals_is_plain_binomial(nat):
    f = make_series(nat, [1, 1, 2, 1, 0, 1, 1])
    g = make_series(nat, [2, 0, 1, 1, 1, 0, 1])
    fg = f * g
    for n in range(5):
        for k in range(n + 1):
            got = binomial_operator(n, k).apply(f, g)
            assert got == fg.scale(comb(n, k)), (n, k)


def test_apply_on_q_twists_by_power(qsym):
    for n in range(5):
        for k in range(n + 1):
            a, b = 2, 3
            xa, xb = monomial(qsym, a, 8), monomial(qsym, b, 8)
            got = binomial_operator(n, k).apply(xa, xb)
            want = monomial(qsym, a + b, 8).scale(qsym.psi_binomial(n, k) * Q ** (k * a))
            assert got == want


def test_apply_respects_chain_coefficient_variants(qsym):
    f = make_series(qsym, [1, 1, 1])
    g = make_series(qsym, [1, 0, 1])
    half = OperatorSum.single(((1, 0),), coefficient=Fraction(1, 2))
    got = half.apply(f, g)
    assert got == f.fontane(g, 1, 0).scale(qsym.from_rational(Fraction(1, 2)))
    sym_coeff = OperatorSum.single(((1, 0),), coefficient=Q)
    with pytest.raises(VariantMismatch):
        sym_coeff.apply(make_series(get_context("fib", 8), [1]),
                       make_series(get_context("fib", 8), [1]))


def test_mixed_variant_sums_over_symbolic_q(qsym):
    f = make_series(qsym, [1, 2, 0, 1])
    g = make_series(qsym, [3, 1, 1, 2])
    # on the shared chain (1, 0) a holds a rational and b a rational function of q
    a = A10 + OperatorSum.single(((2, 0),), coefficient=Fraction(1, 2))
    b = A10.scale(Q) + OperatorSum.single(((2, 1),), coefficient=Q + embed_rational(1))
    assert (a + b).terms[0].coefficient == Q + embed_rational(1)
    assert (a + b).apply(f, g) == a.apply(f, g) + b.apply(f, g)
    assert a - a == ZERO_OPERATOR and (a + b) - (a + b) == ZERO_OPERATOR
    assert (a + b) - b == a
    ab = a * b
    assert ab.apply(f, g) == sum((t.apply(f, g) for t in ab.terms[1:]), ab.terms[0].apply(f, g))
    with pytest.raises(VariantMismatch):  # a float is a coefficient of neither variant
        OperatorSum.single(coefficient=1.5) + ORDINARY


def test_action_invariant_under_pair_reordering(fib):
    f = e_psi(fib, 5)
    g = make_series(fib, [1, 2, 1, 0, 1, 1])
    a = f.chain(g, ((1, 0), (3, 1)))
    b = f.chain(g, ((3, 1), (1, 0)))
    assert a == b


# -- extensional equality ---------------------------------------------------------------


def test_extensional_eq_separates_kinds(qsym, fib):
    # only j matters in the q-case, so these collide there but not over Fibonacci
    assert extensional_eq(A10, A20, qsym, 6)
    assert not extensional_eq(A10, A20, fib, 6)
    assert extensional_eq(A10, A10, fib, 6)


def test_extensional_eq_sees_through_syntax(qsym):
    lhs = A10 + A10
    rhs = A20.scale(2)
    assert lhs != rhs
    assert extensional_eq(lhs, rhs, qsym, 6)


def test_extensional_eq_compares_weight_rows_by_value(nat, fib):
    # on the naturals every kernel value is 1: halves of two chains add up to
    # one whole chain over a denominator of 2, and a half chain is not the chain
    half = Fraction(1, 2)
    halves = OperatorSum.single(((1, 0),), coefficient=half) + OperatorSum.single(
        ((2, 1),), coefficient=half)
    assert extensional_eq(halves, A10, nat, 6)
    assert not extensional_eq(A10.scale(half), A10, nat, 6)
    # Fibonacci kernel rows carry their own denominators
    assert extensional_eq(A10.scale(Fraction(2, 3)) + A10.scale(Fraction(1, 3)), A10, fib, 8)
    assert not extensional_eq(A10.scale(Fraction(2, 3)), A20.scale(Fraction(2, 3)), fib, 8)


def test_weight_tables_are_read_from_kernel_values_not_chain_rows(monkeypatch, qsym, fib):
    # the table is the sum of F(n+1, k) and the star chain's F(n+2, n-k+1), read
    # as values; the kernel path's chain rows are no oracle for it
    want = [[fib.fontane_kernel(n + 1, k) + fib.fontane_kernel(n + 2, n - k + 1)
             for k in range(n + 1)] for n in range(6)]

    def refuse(*args):
        raise AssertionError("weight rows read through _chain_rows")

    monkeypatch.setattr(psi_context, "_chain_rows", refuse)
    monkeypatch.setattr(operator_algebra, "_chain_rows", refuse, raising=False)
    assert extensional_eq(A10, A20, qsym, 6)
    assert not extensional_eq(A10, A20, fib, 6)
    table = (A10 + S21)._weight_rows(fib, 5)
    assert table == want
    assert all(type(x) is int or x.denominator != 1 for row in table for x in row)


def test_extensional_eq_refuses_what_applying_refuses():
    # (3, 0) at order 2 reads index 5 of a list that ends at index 3
    with pytest.raises(BoundExceeded):
        extensional_eq(OperatorSum.single(((3, 0),)), A10, get_context("custom:[0,1,2,5]"), 2)
    with pytest.raises(BadSpec):  # q = -1 has s_2 = 0
        extensional_eq(A10, A20, get_context("q=-1"), 3)
    with pytest.raises(VariantMismatch):
        extensional_eq(OperatorSum.single(((1, 0),), coefficient=Q), A10, get_context("q=3/2"), 3)


# -- weight tables against term-by-term oracles -----------------------------------------

ORACLE_SPECS = ("natural", "fib", "q", "q=3/2", custom_spec(16))


def termwise(a, f, g):
    """Action of a sum as one weighted product per chain, coefficients scaled in."""
    acc = zeros(f.ctx, min(f.order, g.order))
    for t in a.terms:
        c = embed_rational(t.coefficient) if f.ctx.symbolic else t.coefficient
        acc = acc + f.chain(g, t.pairs, star=t.star).scale(c)
    return acc


def random_pairs(draw, max_i):
    i_s = draw(st.lists(st.integers(1, max_i), max_size=3))
    return tuple((i, draw(st.integers(0, i - 1))) for i in i_s)


@st.composite
def operator_sums(draw, max_i=3):
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        coeff = draw(st.fractions(-3, 3, max_denominator=4))
        star = draw(st.booleans())
        terms.append(ProductChain(coeff, star, random_pairs(draw, max_i)))
    return OperatorSum(tuple(terms))


@st.composite
def series_pairs(draw, spec, min_order=0, max_order=6):
    ctx = get_context(spec, 0 if spec.startswith("custom:") else 16)
    sizes = st.integers(min_order + 1, max_order + 1)
    return tuple(make_series(ctx, draw(st.lists(st.integers(-4, 4), min_size=size,
                                                max_size=size)))
                 for size in (draw(sizes), draw(sizes)))


@pytest.mark.parametrize("spec", ORACLE_SPECS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_weight_table_apply_matches_termwise_sum(spec, data):
    a = data.draw(operator_sums())
    f, g = data.draw(series_pairs(spec))
    assert a.apply(f, g) == termwise(a, f, g)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_general_leibniz_matches_chain_expansion(spec, data):
    n = data.draw(st.integers(0, 6))
    f, g = data.draw(series_pairs(spec, min_order=n, max_order=9))
    want = None
    for k in range(n + 1):
        term = termwise(binomial_operator(n, k), f.derivative(n - k), g.derivative(k))
        want = term if want is None else want + term
    assert general_leibniz(f, g, n) == want


def monomial_pairs_agree(a, b, ctx, order):
    for u in range(order + 1):
        for v in range(order + 1 - u):
            f, g = monomial(ctx, u, order), monomial(ctx, v, order)
            if termwise(a, f, g) != termwise(b, f, g):
                return False
    return True


@pytest.mark.parametrize("spec", ("natural", "fib", "q", "q=3/2"))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_extensional_eq_matches_monomial_enumeration(spec, data):
    # b is a random sum or a plus a difference of two single pairs; such a
    # difference acts as zero on the naturals and, for equal j, on q
    ctx = get_context(spec, 16)
    small = st.sampled_from(((1, 0), (2, 0), (2, 1)))
    terms = st.lists(st.tuples(small, st.integers(-1, 1)), max_size=3)
    a, b = (OperatorSum(tuple(ProductChain(c, pairs=(p,)) for p, c in data.draw(terms)))
            for _ in range(2))
    if data.draw(st.booleans()):
        b = a + OperatorSum.single((data.draw(small),)) - OperatorSum.single((data.draw(small),))
    order = data.draw(st.integers(0, 5))
    assert extensional_eq(a, b, ctx, order) == monomial_pairs_agree(a, b, ctx, order)


# -- operator sums over power kernels: one twisted term per chain ----------------------
#
# F(n, k) = q^k over the q-analogs, and with q = 1 over the classical
# sequence 0, 1, 2, ...; the weight rows stay the oracle there.

Q_ANALOG_SPECS = ("q", "q=3/2", "q=-2/3")
POWER_KERNEL_SPECS = Q_ANALOG_SPECS + ("natural", "custom:[0,1,2,3,4,5,6,7,8,9,10,11,12]")


@st.composite
def twisted_sums(draw, symbolic):
    # mixed flavors, coefficients != 1 and the empty chain, plus two chains
    # that share a twist, (1,0) and (2,0) or (2,1) and (3,1): they act alike
    # there, and cancel when their coefficients do
    a = draw(st.one_of(operator_sums(), st.just(ZERO_OPERATOR), st.just(ORDINARY)))
    if draw(st.booleans()):
        first, second = draw(st.sampled_from(((((1, 0),), ((2, 0),)), (((2, 1),), ((3, 1),)))))
        star = draw(st.booleans())
        c = draw(st.fractions(-2, 2, max_denominator=3))
        d = -c if draw(st.booleans()) else draw(st.fractions(-2, 2, max_denominator=3))
        a = a + OperatorSum.single(first, star, c) + OperatorSum.single(second, star, d)
    if symbolic and draw(st.booleans()):
        a = a.scale(Q + embed_rational(1))  # rational-function coefficients
    return a


@pytest.mark.parametrize("spec", POWER_KERNEL_SPECS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_q_analog_apply_matches_weight_rows(spec, data):
    ctx = get_context(spec)
    a = data.draw(twisted_sums(ctx.symbolic))
    f, g = data.draw(series_pairs(spec))
    m = min(f.order, g.order)
    want = WardSeries(ctx, fraction_sums(ctx, f.coeffs, g.coeffs, a._weight_rows(ctx, m)))
    got = a.apply(f, g)
    assert repr(got) == repr(want)
    assert [type(x) for x in got.coeffs] == [type(x) for x in want.coeffs]


def test_q_analog_apply_refuses_what_the_weight_rows_refuse():
    qnum = get_context("q=3/2")
    f = make_series(qnum, [1, 2, 3])
    with pytest.raises(VariantMismatch):
        OperatorSum.single(((1, 0),), coefficient=Q).apply(f, f)
    with pytest.raises(VariantMismatch):  # refused even where it would cancel
        (OperatorSum.single(((1, 0),), coefficient=Q) + OperatorSum.single(
            ((2, 0),), coefficient=-Q)).apply(f, f)
    # q = -1 has s_2 = 0; the chains grow the tables as the weight rows did
    qneg = get_context("q=-1")
    h = make_series(qneg, [1, 1])
    for a in (A10, A10 - A20, S21.scale(2)):
        with pytest.raises(BadSpec):
            a.apply(h, h)
    assert ORDINARY.apply(h, h) == h * h


@pytest.mark.parametrize("spec", default_specs(6))
def test_apply_is_one_kernel_call_with_one_term_per_chain(spec, monkeypatch):
    calls = []

    def spy(f, g, terms):
        calls.append(len(terms))
        return _convolve(f, g, terms)

    monkeypatch.setattr(operator_algebra, "_convolve", spy)
    ctx = get_context(spec)
    f, g = make_series(ctx, [1, 2, -3, 4]), make_series(ctx, [2, -1, 0, 5])
    # (1,0) and (2,0) share a twist over a power kernel, and so do (2,1) and (3,1)
    shared = (A10 + A20.scale(3) + OperatorSum.single(((2, 1),), True, -2)
              + OperatorSum.single(((3, 1),), True))
    for a in (ZERO_OPERATOR, ORDINARY, A10, shared, shared - A20.scale(3) + S21,
              binomial_operator(4, 2)):
        calls.clear()
        got = a.apply(f, g)
        assert calls == [len(a.terms)]
        want = WardSeries(ctx, fraction_sums(ctx, f.coeffs, g.coeffs, a._weight_rows(ctx, 3)))
        assert repr(got) == repr(want)
