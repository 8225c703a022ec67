import sys
import tracemalloc
from fractions import Fraction
from itertools import count, islice, zip_longest
from operator import lshift

import pytest
from conftest import canonical_form, form_add, scalar_eval

from psicalc.coefficients import _integer_vector, _norm_rat
from psicalc.errors import (
    BadSpec,
    BoundExceeded,
    IndexOutOfBound,
    KernelUndefined,
    KOutOfRange,
)
from psicalc import psi_context
from psicalc.calculus import general_leibniz
from psicalc.operator_algebra import OperatorSum, extensional_eq
from psicalc.psi_context import PsiContext, get_context
from psicalc.qfield import Q, PolyQ, RatFuncQ, embed_rational
from psicalc.qkernels import _PACKED_BITS, _binomials_at
from psicalc.series import WardSeries, make_series
from psicalc.verify import custom_spec, run_suites

ONE, ZERO = RatFuncQ.from_rational(1), RatFuncQ.from_rational(0)

# frozen tables, worked out by hand from the definitions
FIB_PSI = (0, 1, 1, 2, 3, 5, 8, 13)
FIB_FACT = (1, 1, 1, 2, 6, 30, 240, 3120)
FIB_BINOM_3 = [1, 2, 2, 1]
FIB_BINOM_5 = [1, 5, 15, 15, 5, 1]
FIB_KERNEL_4 = [1, 1, 2, 1]


def test_fib_tables_match_hand_values(fib):
    assert fib.psi[:8] == FIB_PSI
    assert tuple(fib.psi_factorial(n) for n in range(8)) == FIB_FACT
    assert [fib.psi_binomial(3, k) for k in range(4)] == FIB_BINOM_3
    assert [fib.psi_binomial(5, k) for k in range(6)] == FIB_BINOM_5
    assert [fib.fontane_kernel(4, k) for k in range(4)] == FIB_KERNEL_4
    assert fib.fontane_kernel(5, 2) == 2
    assert fib.fontane_kernel(6, 2) == Fraction(7, 3)
    assert fib.fontane_kernel(2, 1) == 0


def test_natural_tables_are_classical(nat):
    from math import comb, factorial

    for n in range(10):
        assert nat.psi_value(n) == n
        assert nat.psi_factorial(n) == factorial(n)
        for k in range(n + 1):
            assert nat.psi_binomial(n, k) == comb(n, k)
        for k in range(n):
            assert nat.fontane_kernel(n, k) == 1
    assert all(nat.psi_value(n) == n for n in range(13))


def test_q_symbolic_tables(qsym):
    assert qsym.psi_value(3) == RatFuncQ(PolyQ([1, 1, 1]), PolyQ([1]))
    # hand expansion of [4]!/([2]![2]!)
    assert qsym.psi_binomial(4, 2) == RatFuncQ(PolyQ([1, 1, 2, 1, 1]), PolyQ([1]))
    for n in range(1, 8):
        for k in range(n):
            assert qsym.fontane_kernel(n, k) == Q ** k


def test_symbolic_powers_of_q_are_made_as_monomials(qsym):
    # q^k is its canonical pair, equal to Q ** k, and it leaves the kernel
    # entries and q dilations as they were
    for k in range(-12, 13):
        power = psi_context._q_power(qsym, k)
        assert power == Q ** k and (power._n, power._d) == ((Q ** k)._n, (Q ** k)._d)
    for k in range(13):
        assert qsym.fontane_kernel(k + 1, k) == qsym.fontane_kernel(20, k) == Q ** k
    two, five = embed_rational(2), embed_rational(5)
    f = make_series(qsym, [1, Q + two, Fraction(-3, 4), ONE / (Q + ONE), Q ** 3 - five])
    for times in range(-4, 13):
        assert f.q_dilate(times) == f.dilate(Q ** times)


def test_q_numeric_matches_symbolic_evaluation(qsym, qnum):
    point = Fraction(3, 2)
    for n in range(10):
        assert scalar_eval(qsym.psi_value(n), point) == qnum.psi_value(n)
        assert scalar_eval(qsym.psi_factorial(n), point) == qnum.psi_factorial(n)
        for k in range(n + 1):
            assert scalar_eval(qsym.psi_binomial(n, k), point) == qnum.psi_binomial(n, k)
        for k in range(n):
            assert scalar_eval(qsym.fontane_kernel(n, k), point) == qnum.fontane_kernel(n, k)


def test_q_at_one_collapses_to_classical(qsym):
    ctx = get_context("q=1", 10)
    nat = get_context("natural", 10)
    assert ctx.psi[:11] == nat.psi[:11]
    assert all(ctx.psi_value(n) == n for n in range(13))
    # symbolic tables evaluated at q=1 give the classical tables entry-wise
    for n in range(11):
        assert scalar_eval(qsym.psi_factorial(n), 1) == nat.psi_factorial(n)
        for k in range(n + 1):
            assert scalar_eval(qsym.psi_binomial(n, k), 1) == nat.psi_binomial(n, k)
        for k in range(n):
            assert scalar_eval(qsym.fontane_kernel(n, k), 1) == 1


@pytest.mark.parametrize("spec", ["natural", "q", "q=3/2", "fib", "custom:[0,1,2,1,3,1,4]"])
def test_symbolic_binomial_equals_factorial_ratio(spec):
    # the binomials are built by the Pascal-type recurrence, so check them
    # against the factorial ratio, in canonical form
    ctx = get_context(spec)
    fact = ctx.psi_factorial
    for n in range(13 if ctx.bound is None else ctx.bound + 1):
        for k in range(n + 1):
            num, den = fact(n), fact(k) * fact(n - k)
            ratio = num / den if ctx.symbolic else _norm_rat(Fraction(num) / den)
            assert repr(ctx.psi_binomial(n, k)) == repr(ratio)


@pytest.mark.parametrize("spec", ["natural", "q", "q=3/2", "fib"])
def test_tables_grown_in_steps_match_one_build(spec):
    stepped = PsiContext.from_spec(spec, 5)
    stepped._grow(20)
    whole = PsiContext.from_spec(spec, 20)

    def tables(ctx):
        return repr((ctx.psi, [ctx.psi_factorial(n) for n in range(21)],
                     [[ctx.psi_binomial(n, k) for k in range(n + 1)] for n in range(21)],
                     [[ctx.fontane_kernel(n, k) for k in range(n)] for n in range(21)]))

    assert tables(stepped) == tables(whole)
    assert len(whole.psi) == 21
    assert get_context("fib", 8) is get_context("fib", 12) is get_context("fib")


# -- the integer table builder against the Fraction builder it replaced --------------


def fraction_tables(ctx, n: int) -> tuple:
    """Kernel and binomial rows 0..n of ``ctx`` as the Fraction and Pascal-type builder made them.

    Each kernel entry F(m, k) = (s_m - s_k) / s_{m-k} is a Fraction, the row
    cleared by the lcm of its denominators (q^k over a q-analog, as the
    context builds it); each binomial row is
    C(m, k) = C(m-1, k-1) + F(m, k) C(m-1, k), Pascal's rule over symbolic
    q, reduced by a gcd over the row.
    """
    psi, q = ctx.psi, ctx.q_scalar
    kern, binom = [(1, [])], [(1, [1])]
    for m in range(1, n + 1):
        if q is None:
            krow = _integer_vector([_norm_rat(Fraction(psi[m] - psi[k]) / psi[m - k])
                                    for k in range(m)])
        elif m > 1:
            (d, v), w = kern[-1], psi_context._parts(ctx)[1]
            u = q if ctx.symbolic else q.numerator
            krow = d * w, (v if w == 1 else [x * w for x in v]) + [v[-1] * u]
        else:
            krow = 1, [ctx.one]
        kern.append(krow)
        d, v = binom[-1]
        e, w = (d, v) if ctx.symbolic else psi_context._form_mul(krow, (d, v))
        binom.append(canonical_form(*form_add((d, [0] + v), (e, w + [0]))))
    return kern, binom


def custom_list(values) -> str:
    return "custom:[" + ",".join(map(str, values)) + "]"


FRACTIONAL_LIST = [0, 1] + [Fraction((-1) ** n * (3 * n + 1), n % 5 + 1) for n in range(2, 41)]


TABLE_SPECS = [
    "natural", "fib", "q=3/2", "q=-2/5", "q=2", "q=1", "q",
    custom_spec(40),
    "custom:[0,1,3/2,2,-5/3,7,1/4,3,11/5,9,13]",
    custom_list(FRACTIONAL_LIST),
    custom_list([0, 1] + [(-1) ** n * (n // 3 + 1) for n in range(2, 41)]),
    custom_list(range(13)),
]


def kernel_row(ctx, m: int) -> tuple:
    """Kernel row m of ``ctx`` as a row form, read through ``_kernel_row``.

    A power kernel has no row: its entries are read through ``fontane_kernel``,
    over the lcm of their denominators.
    """
    if not ctx.power_kernel:
        return ctx._kernel_row(m, m)
    row = [ctx.fontane_kernel(m, k) for k in range(m)]
    return (1, row) if ctx.symbolic else _integer_vector(row)


def table_rows(ctx, n: int) -> tuple:
    """Kernel rows 0..n of ``ctx`` (``kernel_row``) and its binomial rows 0..n."""
    return [(1, [])] + [kernel_row(ctx, m) for m in range(1, n + 1)], ctx._binomials(n)[: n + 1]


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_tables_equal_the_fraction_builder(spec):
    # one build, and growth in uneven steps, give the old builder's rows exactly,
    # every denominator, vector and entry type alike
    ctx = PsiContext.from_spec(spec)
    n = 40 if ctx.bound is None else ctx.bound
    steps = [n] if ctx.bound is not None else [2, 3, 7, 8, 21, n]
    stepped = PsiContext.from_spec(spec)
    for m in steps:
        stepped._binomials(m)
        kernel_row(stepped, m)
    got = repr(table_rows(ctx, n))
    assert got == repr(fraction_tables(ctx, n))
    assert repr(table_rows(stepped, n)) == got


@pytest.mark.parametrize("spec, index", [
    ("q=-1", 2), ("custom:[0,1,2,0,3]", 3), ("custom:[0,1,-1/2,3,0]", 4)])
def test_a_zero_value_is_refused_at_its_index(spec, index):
    with pytest.raises(BadSpec, match=f"^sequence value at index {index} is zero$"):
        get_context(spec, 6)
    if spec.startswith("q="):
        # the sequence stops at the last good value, and every row before it still reads
        ctx = PsiContext.from_spec(spec)
        for read in (lambda: ctx._binomials(6), lambda: ctx._kernel_row(6, 6)):
            with pytest.raises(BadSpec):
                read()
        assert len(ctx.psi) == len(ctx._ints) == index
        kern, binom = table_rows(ctx, index - 1)
        assert len(kern) == len(binom) == len(ctx._binom) == index


def test_tables_make_no_fraction(fractions_made_under):
    # a Fraction is made only as from_spec parses a custom value or q = u/w;
    # the sequence, each step's integer S_m, and the tables are built on ints
    for spec in TABLE_SPECS:
        ctx = PsiContext.from_spec(spec)
        codes = {PsiContext._grow.__code__, PsiContext.from_spec.__func__.__code__,
                 PsiContext._binomials.__code__, PsiContext._kernel_row.__code__}
        if hasattr(ctx._step, "__code__"):
            codes.add(ctx._step.__code__)
        made = fractions_made_under(
            codes, lambda: table_rows(PsiContext.from_spec(spec), ctx.bound or 40))
        assert not {"_grow", "_binomials", "_kernel_row", "<lambda>"} & set(made), spec
        if spec == "custom:[0,1,3/2,2,-5/3,7,1/4,3,11/5,9,13]":
            # the hook sees the values from_spec parses
            assert "from_spec" in made


@pytest.mark.parametrize("spec, n", [("fib", 4000), ("q=3/2", 2000)])
def test_the_sequence_is_kept_once_as_integers(fractions_made_under, spec, n):
    # growing makes no Fraction, and keeps little more than the integers S_n
    ctx = PsiContext.from_spec(spec)
    made = fractions_made_under({PsiContext._grow.__code__, ctx._step.__code__},
                                lambda: ctx._grow(40))
    assert made == []
    ctx = PsiContext.from_spec(spec)
    tracemalloc.start()
    try:
        ctx._grow(n)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 1.25 * sum(map(sys.getsizeof, ctx._ints))


def fib_values(n):
    a, b = 0, 1
    for _ in range(n):
        yield a
        a, b = b, a + b


def q_values(q, n):
    # s_m = q^0 + ... + q^(m-1), summed in the scalars of q
    zero = q - q
    return [sum((q ** k for k in range(m)), zero) for m in range(n)]


@pytest.mark.parametrize("spec, values", [
    ("fib", list(fib_values(41))),
    ("q=3/2", q_values(Fraction(3, 2), 41)),
    ("q=-2/5", q_values(Fraction(-2, 5), 41)),
    ("q", q_values(Q, 41)),
    (custom_list(FRACTIONAL_LIST), FRACTIONAL_LIST),
])
def test_values_are_the_sequence_definition(spec, values):
    # s_n, read one at a time and as ``psi``, from the definition of each kind
    want = [repr(x if isinstance(x, RatFuncQ) else _norm_rat(Fraction(x))) for x in values]
    ctx = PsiContext.from_spec(spec)
    assert [repr(ctx.psi_value(n)) for n in range(41)] == want
    assert list(map(repr, ctx.psi)) == want


@pytest.mark.parametrize("order", [(20, 5), (5, 20), (20, 5, 20), tuple(range(21))])
def test_symbolic_tables_read_out_of_order(order):
    # the q-binomials from the recurrence C(n, k) = C(n-1, k-1) + q^k C(n-1, k)
    # in rational functions, and the factorials as running products
    rows, fact = [[ONE]], [ONE]
    for n in range(1, 21):
        prev = rows[-1] + [ZERO]
        rows.append([ONE] + [prev[k - 1] + Q**k * prev[k] for k in range(1, n + 1)])
        fact.append(fact[-1] * sum((Q**k for k in range(1, n)), ONE))
    ctx = PsiContext.from_spec("q")
    for n in order:
        got = [ctx.psi_binomial(n, k) for k in range(n + 1)]
        assert [(repr(x), x.num.coeffs, x.den.coeffs) for x in got] == [
            (repr(x), x.num.coeffs, x.den.coeffs) for x in rows[n]]
        assert repr(ctx.psi_factorial(n)) == repr(fact[n])
    assert [ctx.psi_factorial(n) for n in range(21)] == fact


def packed_rows(bits: int, shift: int, m: int) -> list:
    """Rows 0..m of C_q(n, k) at q = 2^bits from the Gaussian coefficients,
    C(n, k) = C(n-1, k-1) + q^k C(n-1, k) on coefficient lists, each entry
    shifted left by shift * k (q^(P k) for shift = bits * P)."""
    def add(a, b):
        return [x + y for x, y in zip_longest(a, b, fillvalue=0)]

    rows = [[[1]]]
    for n in range(1, m + 1):
        prev = rows[-1] + [[]]
        rows.append([[1]] + [add(prev[k - 1], [0] * k + prev[k]) for k in range(1, n + 1)])
    return [(1, [sum(c << bits * i for i, c in enumerate(p)) << shift * k
                 for k, p in enumerate(row)]) for row in rows]


def shifted(forms, shift: int) -> list:
    """Row forms read from ``_binomials_at`` with entry k shifted left by shift * k, as
    ``qkernels.convolve`` applies a twist's q^(P k) to the k-th product of a row."""
    return [(g, list(map(lshift, row, count(0, shift)))) for g, row in forms]


def test_packed_rows_read_in_any_order_match_the_recurrence():
    # interleaved bits values, shifts and lengths, some reads growing the
    # kept rows and some reading rows another read grew
    ctx = PsiContext.from_spec("q")
    reads = [(0, 0, 7), (16, 0, 4), (24, 0, 12), (16, 32, 9), (40, 0, 2), (24, 48, 20),
             (16, 0, 25), (40, 120, 18), (24, 0, 3), (8, 8, 30), (16, 16, 30)]
    for bits, shift, m in reads:
        assert list(_binomials_at(ctx, bits, m + 1)) == packed_rows(bits, 0, m)
        assert shifted(_binomials_at(ctx, bits, m + 1), shift) == packed_rows(bits, shift, m)
        assert len(ctx._packed) <= _PACKED_BITS
    # two readers of one bits value, each growing the rows the other reads
    first, second = _binomials_at(ctx, 56, 16), _binomials_at(ctx, 56, 11)
    got = [list(islice(first, 6)), list(islice(second, 11)), list(islice(first, 10))]
    assert got[0] + got[2] == packed_rows(56, 0, 15)
    assert shifted(got[1], 112) == packed_rows(56, 112, 10)
    # the rows are yielded as stored, not copied, and no reader's shift changes them
    assert all(row is kept for (_, row), kept in zip(_binomials_at(ctx, 56, 16), ctx._packed[56]))
    assert list(_binomials_at(ctx, 56, 16)) == packed_rows(56, 0, 15)


def test_packed_row_store_keeps_the_bits_values_read_last():
    ctx = PsiContext.from_spec("q")
    every = [8 * (b + 1) for b in range(_PACKED_BITS + 4)]
    for bits in every:
        next(islice(_binomials_at(ctx, bits, 6), 5, None))
        assert len(ctx._packed) <= _PACKED_BITS
    assert list(ctx._packed) == every[-_PACKED_BITS:]
    # a read keeps its bits value; the least recently read one goes
    kept, evicted = every[-_PACKED_BITS], every[-_PACKED_BITS + 1]
    next(_binomials_at(ctx, kept, 1))
    next(_binomials_at(ctx, 8 * 100, 1))
    assert kept in ctx._packed and evicted not in ctx._packed
    assert len(ctx._packed) == _PACKED_BITS
    # evicted rows come back from the recurrence
    assert shifted(_binomials_at(ctx, evicted, 9), evicted) == packed_rows(evicted, evicted, 8)
    assert len(ctx._packed) == _PACKED_BITS


@pytest.mark.parametrize("spec", ["fib", custom_list(FRACTIONAL_LIST)])
def test_a_chain_builds_only_the_kernel_prefixes_it_lacks(monkeypatch, spec):
    # a chain calls _kernel_row only for a prefix that is not kept or is too
    # short, so a warm chain calls it not at all; results read as a fresh context's
    ctx = PsiContext.from_spec(spec)
    pairs = ((2, 1), (3, 2), (4, 0))
    f = make_series(ctx, [Fraction(n + 1, n % 3 + 1) for n in range(21)])
    g = make_series(ctx, [(-1) ** n * (2 * n + 3) for n in range(21)])
    built, kernel_row = [], PsiContext._kernel_row

    def counted(self, n, stop):
        kept = self._kernel.get(n)
        assert kept is None or len(kept[1]) < stop
        built.append(n)
        return kernel_row(self, n, stop)

    monkeypatch.setattr(PsiContext, "_kernel_row", counted)
    short = f.truncate(12).chain(g.truncate(12), pairs)
    assert built
    built.clear()
    assert f.truncate(12).chain(g.truncate(12), pairs) == short and built == []
    longer = f.chain(g, pairs)
    assert built
    fresh = PsiContext.from_spec(spec)
    want = make_series(fresh, f.coeffs).chain(make_series(fresh, g.coeffs), pairs)
    assert longer.coeffs == want.coeffs


def reset_tables(ctx) -> None:
    """Every table of ``ctx`` back to its seed row; the sequence integers S_n stay."""
    del ctx._binom[1:], ctx._fact[1:]
    for table in (ctx._kernel, ctx._scale, ctx._weights, ctx._packed):
        table.clear()


@pytest.mark.parametrize("order", [6, 14, 20])
@pytest.mark.parametrize("spec", ["natural", "q", "q=3/2", "q=-2/5", "fib",
                                  custom_list(FRACTIONAL_LIST)])
def test_every_table_is_a_cache_its_readers_rebuild(spec, order):
    # each reader grows the rows it reads, so a context whose tables are all
    # dropped between two calls gives the same results from its S_n alone
    ctx = PsiContext.from_spec(spec)
    f = make_series(ctx, [Fraction(n + 1, n % 3 + 1) for n in range(order + 1)])
    g = make_series(ctx, [Fraction((-1) ** n * (2 * n + 3), n % 4 + 1) for n in range(order + 1)])
    op_sum = OperatorSum.single(((1, 0),)) + OperatorSum.single(((2, 1),), star=True)
    calls = {
        "*": lambda: f * g,
        "fontane": lambda: f.fontane(g, 3, 1),
        "star": lambda: f.star(g, 2, 1),
        "chain": lambda: f.chain(g, ((2, 1), (3, 2), (4, 0))),
        "divide": lambda: f.divide(g),
        "sum": lambda: op_sum.apply(f, g),
        "leibniz": lambda: general_leibniz(f, g, 3),
        "binomials": lambda: [ctx.psi_binomial(n, k) for n in range(order + 1)
                              for k in range(n + 1)],
        "factorials": lambda: [ctx.psi_factorial(n) for n in range(order + 1)],
    }
    before = {name: call() for name, call in calls.items()}
    for name, call in calls.items():
        reset_tables(ctx)
        assert call() == before[name], name


def test_a_series_grows_the_sequence_alone():
    ctx = PsiContext.from_spec("fib")
    make_series(ctx, range(41))
    assert len(ctx._ints) == 41 and len(ctx._binom) == 1


@pytest.mark.parametrize("spec,v", [("q=3/2", 2), ("q=-2/3", 3), ("q=5", 1), ("natural", 1),
                                    ("fib", 1)])
def test_division_scales_of_integral_and_q_contexts(spec, v):
    # G_n = v^(n(n-1)/2) for q = u/v; integer binomials need no scale
    assert [g for g, _ in get_context(spec)._scales(16)[:16]] == [v ** (n * (n - 1) // 2)
                                                                 for n in range(16)]


DIVISION_LISTS = ["custom:[0,1,1/2,3/2,-2/3,5/4,7/3,-1/5,2,3/7,11/6]",
                  "custom:[0,1,2,1,3,1,4,1,5,1,6]"]


@pytest.mark.parametrize("spec", DIVISION_LISTS + ["q=-7/4"])
def test_division_scales_are_the_least_that_clear_every_row(spec):
    ctx = get_context(spec)
    scale = [g for g, _ in ctx._scales(11)]
    for n in range(1, 11):
        row = [Fraction(ctx.psi_binomial(n, k)) for k in range(n)]
        assert all((c * scale[n] / scale[k]).denominator == 1 for k, c in enumerate(row))
        assert scale[n] % scale[n - 1] == 0
        # any proper divisor of G_n leaves some T(n, k) fractional
        for p in (2, 3, 5, 7, 11, 13):
            if scale[n] % p == 0 and scale[n] // p % scale[n - 1] == 0:
                assert any((c * (scale[n] // p) / scale[k]).denominator != 1
                           for k, c in enumerate(row))


@pytest.mark.parametrize("spec", ["natural", "fib", "q=3/2", "q=-2/3", "q=-7/4", "q=5"]
                         + DIVISION_LISTS)
def test_division_rows_are_the_integers_t(spec):
    # T_n[k] = C(n, k) G_n / G_k, an int for 0 <= k <= n, read from a fresh context's table
    ctx = PsiContext.from_spec(spec)
    m = 11 if ctx.bound is not None else 24
    table = ctx._scales(m)
    assert len(table) == m
    for n, (g, row) in enumerate(table):
        assert len(row) == n + 1 and row[0] == g
        for k, t in enumerate(row):
            assert type(t) is int
            assert t == Fraction(ctx.psi_binomial(n, k)) * g / table[k][0]
        if spec in ("natural", "fib", "q=5"):
            # integer binomials: G_n = 1 and the row is the binomial row itself, not a copy
            assert g == 1 and row is ctx._binom[n][1]


@pytest.mark.parametrize("spec", ["natural", "q", "q=3/2", "fib", "custom:[0,1,2,1,3,1,4]"])
def test_kernel_defining_relation(spec):
    ctx = get_context(spec, 0 if spec.startswith("custom") else 12)
    for n in range(1, (12 if ctx.bound is None else ctx.bound) + 1):
        for k in range(n):
            assert ctx.psi_value(n) - ctx.psi_value(k) == ctx.fontane_kernel(n, k) * ctx.psi_value(n - k)


@pytest.mark.parametrize("spec", ["natural", "q", "q=3/2", "fib", "custom:[0,1,2,1,3,1,4]"])
def test_binomial_recurrences(spec):
    ctx = get_context(spec, 0 if spec.startswith("custom") else 12)
    for n in range(12 if ctx.bound is None else ctx.bound):
        for k in range(1, n + 1):
            b = ctx.psi_binomial
            assert b(n + 1, k) == b(n, k - 1) + ctx.fontane_kernel(n + 1, k) * b(n, k)
            assert b(n + 1, k) == b(n, k) + ctx.fontane_kernel(n + 1, n - k + 1) * b(n, k - 1)


@pytest.mark.parametrize("spec", ["natural", "q", "fib"])
def test_binomial_symmetry_and_edges(spec):
    ctx = get_context(spec, 10)
    for n in range(11):
        assert ctx.psi_binomial(n, 0) == ctx.one
        assert ctx.psi_binomial(n, n) == ctx.one
        for k in range(n + 1):
            assert ctx.psi_binomial(n, k) == ctx.psi_binomial(n, n - k)


def test_kernel_step_identities(fib):
    # s_{n+1} = s_n + F(n+1, n), and F(m, 0) = 1 always
    for n in range(1, 16):
        assert fib.psi_value(n + 1) == fib.psi_value(n) + fib.fontane_kernel(n + 1, n)
    for m in range(1, 16 + 1):
        assert fib.fontane_kernel(m, 0) == 1
    # the step kernel for Fibonacci recovers the sequence two back
    for n in range(2, 16):
        assert fib.fontane_kernel(n + 1, n) == fib.psi_value(n - 1)


@pytest.mark.parametrize("spec", ["natural", "q=3/2", "q"])
def test_a_power_kernel_entry_grows_the_sequence_no_further_than_index_2(spec):
    # F(n, 1) = q for every n >= 2, so F(3000, 1) reads no sequence value past s_2
    ctx = PsiContext.from_spec(spec)
    assert ctx.fontane_kernel(3000, 1) == ctx.fontane_kernel(2, 1)
    assert len(ctx.psi) <= 3


@pytest.mark.parametrize("spec, n, k, error", [
    ("q=-1", 5, 7, BadSpec),  # s_2 = 0 is refused before k is looked at
    ("custom:[0,1,2,3]", 5, 1, IndexOutOfBound),
    ("natural", -1, 0, IndexOutOfBound),
    ("q", -1, 0, IndexOutOfBound),
    ("q", 4, 4, KernelUndefined),
])
def test_kernel_entry_refusals(spec, n, k, error):
    with pytest.raises(error):
        PsiContext.from_spec(spec).fontane_kernel(n, k)


def test_custom_context_parses_rationals():
    ctx = get_context("custom:[0,1,3/2,5]", 0)
    assert ctx.psi_value(2) == Fraction(3, 2)
    assert ctx.bound == 3
    assert ctx.spec_string() == "custom:[0,1,3/2,5]"
    assert repr(ctx) == "PsiContext('custom:[0,1,3/2,5]', bound=3)"


@pytest.mark.parametrize(
    "spec",
    [
        "custom:[0,1,0,2]",  # interior zero
        "custom:[1,1]",  # wrong start
        "custom:[0,2]",  # wrong second value
        "custom:[0]",
        "custom:0,1,2",
        "custom:[0,1,x]",  # a value that is no rational
        "q=1/0",
        "nonsense",
    ],
)
def test_bad_specs_raise(spec):
    with pytest.raises(BadSpec):
        get_context(spec, 6)


def test_bound_and_range_errors(fib):
    short = get_context("custom:[0,1,2]")
    with pytest.raises(IndexOutOfBound):
        short.psi_value(short.bound + 1)
    with pytest.raises(IndexOutOfBound):
        fib.psi_factorial(-1)
    with pytest.raises(KOutOfRange):
        fib.psi_binomial(4, 5)
    with pytest.raises(KernelUndefined):
        fib.fontane_kernel(4, 4)
    with pytest.raises(KernelUndefined):
        fib.fontane_kernel(4, -1)
    with pytest.raises(BoundExceeded):
        get_context("custom:[0,1,2]", 5)  # too short for requested bound


SHORT_LIST = "custom:[0,1,2,3/2]"


def _product_past_the_end(ctx):
    f = make_series(ctx, [1, 2, 3])
    return f.fontane(f, 2, 0)


# every reader of a custom list, each asking for index N past its end at 3
@pytest.mark.parametrize("read, n", [
    (lambda ctx: ctx.psi_value(5), 5),
    (lambda ctx: ctx.psi_factorial(5), 5),
    (lambda ctx: ctx.psi_binomial(5, 2), 5),
    (lambda ctx: ctx.fontane_kernel(5, 1), 5),
    (lambda ctx: get_context(SHORT_LIST, 6), 6),
    (lambda ctx: PsiContext.from_spec(SHORT_LIST, 6), 6),
    (lambda ctx: WardSeries.from_json_dict({"psi": SHORT_LIST, "order": 5,
                                            "coeffs": ["1"] * 6}), 5),
    (_product_past_the_end, 4),  # reach 2 at order 2
    (lambda ctx: extensional_eq(OperatorSum.single(((2, 0),)), OperatorSum.single(((2, 1),)),
                                ctx, 3), 5),
    (lambda ctx: run_suites(("rings",), (SHORT_LIST,), 2, 1, 0), 6),  # order + RULE_REACH
], ids=["psi_value", "psi_factorial", "psi_binomial", "fontane_kernel", "get_context",
        "from_spec", "from_json_dict", "product", "extensional_eq", "run_suites"])
def test_every_reader_refuses_a_custom_lists_end_alike(read, n):
    with pytest.raises(BoundExceeded) as refused:
        read(get_context(SHORT_LIST))
    assert isinstance(refused.value, IndexOutOfBound) and isinstance(refused.value, ValueError)
    assert str(refused.value) == f"sequence '{SHORT_LIST}' ends at index 3, needs {n}"


def test_get_context_is_shared(fib):
    assert get_context("fib", 16) is fib
    assert get_context("fib", 15) is fib


def test_get_context_spelling_cache_is_bounded():
    # every spelling q=2k/k is one entry; past the bound the oldest go, and
    # each spelling still gives the one shared context
    shared = get_context("q=2")
    for k in range(1, psi_context._SPELLINGS + 40):
        assert get_context(f"q={2 * k}/{k}") is shared
        assert get_context.cache_info().currsize <= psi_context._SPELLINGS
    info = get_context.cache_info()
    assert info.maxsize == psi_context._SPELLINGS and info.currsize == psi_context._SPELLINGS
    assert get_context("q=2/1") is shared and get_context("q=4/2") is shared


def test_shared_contexts_are_bounded_by_the_spelling_cache():
    # a context that only the spelling cache held leaves with its spelling
    before = len(psi_context._CONTEXTS)
    for k in range(1, 2 * psi_context._SPELLINGS + 1):
        f = make_series(get_context(f"q={k}/7919"), [1, 2, 3])
        f * f
    assert len(psi_context._CONTEXTS) <= before + psi_context._SPELLINGS


def test_a_context_held_by_a_series_outlives_its_spelling():
    f = make_series(get_context("q=10/14"), [1, 2, 3])
    for k in range(1, psi_context._SPELLINGS + 1):
        get_context(f"q={k}/7907")
    assert get_context("q=10/14") is f.ctx and get_context("q=5/7") is f.ctx


@pytest.mark.parametrize(
    "spelling, canonical",
    [
        ("q=6/4", "q=3/2"),
        (" q=3/2 ", "q=3/2"),
        (" natural", "natural"),
        ("custom:[0, 1, 4/2, 3]", "custom:[0,1,2,3]"),
    ],
)
def test_get_context_is_keyed_on_the_canonical_spec(spelling, canonical):
    ctx = get_context(spelling)
    assert ctx is get_context(canonical)
    assert ctx.spec_string() == canonical
    f = make_series(ctx, [1, 2, 3])
    g = make_series(get_context(canonical), [3, 2, 1])
    assert (f + g).coeffs == make_series(ctx, [4, 4, 4]).coeffs


def test_scalar_promotion_helpers(qsym, nat):
    assert isinstance(qsym.from_rational(3), RatFuncQ)
    assert nat.from_rational(3) == 3
    assert nat.from_rational(Fraction(4, 2)) == 2
    assert isinstance(nat.from_rational(Fraction(4, 2)), int)


@pytest.mark.parametrize("value, plain", [(7, 7), (-3, -3), (True, 1), (False, 0),
                                          (Fraction(4, 2), 2), (Fraction(-1, 3), Fraction(-1, 3)),
                                          (1.5, Fraction(3, 2)), ("5/10", Fraction(1, 2))])
def test_from_rational_gives_canonical_scalars(qsym, nat, value, plain):
    got = nat.from_rational(value)
    assert got == plain and type(got) is type(plain)
    assert qsym.from_rational(value) == embed_rational(plain)


@pytest.mark.parametrize("spec,classical,power", [
    ("natural", True, True),
    ("q=1", True, True),
    ("custom:[" + ",".join(map(str, range(13))) + "]", True, True),
    (custom_spec(12), False, False),
    ("fib", False, False),
    ("q", False, True),
    ("q=3/2", False, True),
])
def test_classical_and_power_kernel_facts(spec, classical, power):
    ctx = PsiContext.from_spec(spec)
    assert ctx.power_kernel == power
    # both facts against the tables: s_n = n, and F(n, k) = q^k
    q = 1 if ctx.q_scalar is None else ctx.q_scalar
    assert all(ctx.psi_value(n) == n for n in range(13)) == classical
    assert all(ctx.fontane_kernel(n, k) == q**k for n in range(13) for k in range(n)) == power
