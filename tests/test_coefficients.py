import fractions
import pickle
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub, truediv

import pytest
from conftest import scalar_eval
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psicalc import coefficients, intpoly
from psicalc.coefficients import (_int_ratio, _norm_rat, parse_rational, scalar_from_json,
                                  scalar_to_json)
from psicalc.intpoly import _digit_bits, _pack, _unpack
from psicalc.qfield import Q, PolyQ, RatFuncQ, embed_rational
from psicalc.errors import DivisionByZero, ParseError, VariantMismatch

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
small_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=0, max_size=6
).map(lambda cs: PolyQ(cs))
ratfuncs = st.tuples(small_polys, small_polys.filter(bool)).map(
    lambda nd: RatFuncQ(nd[0], nd[1])
)


# -- rational string form ------------------------------------------------------


def test_parse_rational_accepts_plain_and_slash_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/2") == 2
    assert isinstance(parse_rational("6/3"), int)


@pytest.mark.parametrize("bad", ["", "1/0", "1/-2", "1.5", "q", "2/ 3", "--3"])
def test_parse_rational_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@given(rationals)
def test_rational_roundtrip(x):
    assert parse_rational(str(x)) == x


# -- the canonical ratio of two ints ---------------------------------------------

# operands of 1 to 5,000 bits, either sign
wide_ints = st.integers(min_value=1, max_value=5000).flatmap(
    lambda bits: st.integers(min_value=-(2**bits), max_value=2**bits))
nonzero_ints = st.one_of(st.integers(min_value=-50, max_value=50), wide_ints).filter(bool)
ratio_pairs = st.one_of(
    st.tuples(st.integers(min_value=-50, max_value=50), nonzero_ints),
    st.tuples(wide_ints, nonzero_ints),
    # whole ratios, and x = 0
    st.tuples(wide_ints, nonzero_ints).map(lambda xd: (xd[0] * xd[1], xd[1])),
    st.tuples(st.just(0), nonzero_ints),
)


@given(ratio_pairs)
@example((0, -7))
@example((6, -4))
@example((-12, -4))
@example((2**4999 + 1, -(3**3000)))
@settings(max_examples=300, deadline=None)
def test_int_ratio_is_the_canonical_fraction(pair):
    # Fraction(x, d), made whole-valued int, is the reference in every observable
    x, d = pair
    got, want = _int_ratio(x, d), _norm_rat(Fraction(x, d))
    assert type(got) is type(want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want) and str(got) == str(want)
    for protocol in range(6):
        back = pickle.loads(pickle.dumps(got, protocol))
        assert type(back) is type(want) and repr(back) == repr(want)
    other = Fraction(-3, 7)
    for op in (add, sub, mul, truediv):
        assert repr(op(got, other)) == repr(op(want, other))
        if want:
            assert repr(op(other, got)) == repr(op(other, want))


@pytest.mark.parametrize("x, d", [(6, 4), (-6, -4), (6, -4), (0, 5), (0, -5), (12, -4), (7, 1),
                                  (5, 3), (2**5000 + 3, 3**2000), (3**2000 * 10, -(3**2000) * 4)])
def test_int_ratio_takes_one_gcd_and_runs_no_fraction_code(monkeypatch, fractions_made_under,
                                                            x, d):
    calls = []

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(coefficients, "gcd", counted)
    ran = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            ran.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        got = _int_ratio(x, d)
    finally:
        sys.setprofile(None)
    assert len(calls) <= 1 and ran == []
    # the Fraction it builds is one the hook of the "makes no Fraction" tests sees
    made = fractions_made_under({_int_ratio.__code__}, lambda: _int_ratio(x, d))
    assert made == ([] if type(got) is int else ["_int_ratio"])


# -- PolyQ ---------------------------------------------------------------------


def test_poly_normalizes_trailing_zeros():
    assert PolyQ([1, 2, 0, 0]) == PolyQ([1, 2])
    assert PolyQ([0, 0]).degree == -1
    assert not PolyQ([])


def test_poly_str_forms():
    assert str(PolyQ([1, 1, 2, 1, 1])) == "1+q+2q^2+q^3+q^4"
    assert str(PolyQ([0, Fraction(3, 2)])) == "(3/2)q"
    assert str(PolyQ([-1, 0, 1])) == "-1+q^2"
    assert str(PolyQ([])) == "0"


@given(small_polys, small_polys, small_polys)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + PolyQ([]) == a
    assert a * PolyQ([1]) == a
    assert a - a == PolyQ([])


@given(small_polys, rationals)
def test_poly_eval_is_hom(a, x):
    b = PolyQ([2, 0, 1])
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd over the rationals (zero if both inputs are zero), by the library's cofactors."""
    if not a or not b:
        a = b = a or b
        if not a:
            return a
    h = intpoly._cofactors(intpoly._primitive(a._c), intpoly._primitive(b._c))[0]
    n, d = intpoly._canonical(h, h[-1:])
    return PolyQ([Fraction(x, d[0]) for x in n])


def test_poly_gcd_is_monic_common_divisor():
    a = PolyQ([1, 1]) * PolyQ([2, 2])  # (1+q) * 2(1+q)
    g = poly_gcd(a, PolyQ([1, 1]) * PolyQ([0, 4]))
    assert g == PolyQ([1, 1])


def schoolbook_mul(a: PolyQ, b: PolyQ) -> PolyQ:
    """The O(n^2) product from the definition; the oracle for PolyQ.__mul__."""
    if not a or not b:
        return PolyQ([])
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return PolyQ(out)


oracle_coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([2**64, -(2**64), 2**63 - 1, -(2**63), 255, -256, 128, -128]),
    st.fractions(min_value=-(2**70), max_value=2**70, max_denominator=10**6),
)
oracle_polys = st.one_of(
    st.lists(oracle_coeffs, max_size=60).map(PolyQ),
    # zero, constants and monomials c*q^k take the scale-and-shift path
    st.tuples(st.integers(min_value=0, max_value=40), oracle_coeffs).map(
        lambda kc: PolyQ([0] * kc[0] + [kc[1]])
    ),
)


@given(oracle_polys, oracle_polys)
@settings(max_examples=300, deadline=None)
def test_poly_mul_matches_schoolbook(a, b):
    # repr tells an int coefficient from a whole-valued Fraction
    assert repr(a * b) == repr(schoolbook_mul(a, b))
    assert repr(b * a) == repr(schoolbook_mul(a, b))


@given(oracle_polys, oracle_coeffs)
@settings(deadline=None)
def test_poly_scalar_mul_matches_coefficientwise(a, c):
    assert repr(a * c) == repr(PolyQ([x * c for x in a.coeffs]))


@pytest.mark.parametrize(
    "a, b",
    [
        ([1, -1], [1, 1]),  # a product coefficient cancels to zero
        ([-1] * 40, [-1] * 40),
        ([3] * 7, [7] * 7),  # 147 = 7*3*7 needs 2+3+3 bits plus the sign bit
        ([-3] * 7, [7] * 7),
        ([2**64 - 1] * 7, [-(2**64 - 1)] * 9),
        ([-(2**63)] * 5, [-(2**63)] * 5),  # every digit at its largest magnitude
        ([127, -128, 255, -256], [-128, 127, -1, 1]),
        ([Fraction(1, 3), Fraction(2, 3)], [3, 0, Fraction(-3, 2)]),  # whole results become int
        ([Fraction(1, 2), 1], [2, 4]),
    ],
)
def test_poly_mul_digit_boundaries(a, b):
    pa, pb = PolyQ(a), PolyQ(b)
    assert repr(pa * pb) == repr(schoolbook_mul(pa, pb))


@pytest.mark.parametrize("bits", (8, 16, 24, 64))
def test_digit_bits_are_exact_at_the_sign_bit(bits):
    top = 2 ** (bits - 1) - 1  # the largest digit magnitude the bits hold
    assert _digit_bits(top) == bits
    assert _digit_bits(top + 1) == bits + 8


def slice_unpack(x: int, bits: int) -> list:
    """Balanced digits read one bytes slice at a time; the oracle for ``_unpack``."""
    width, half = bits // 8, 1 << (bits - 1)
    n = (abs(x).bit_length() + 1) // bits + 1
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = (x + offset).to_bytes(n * width, "little")
    out = [int.from_bytes(raw[i : i + width], "little") - half for i in range(0, n * width, width)]
    while out and not out[-1]:
        out.pop()
    return out


# every digit width from 1 to 17 bytes: one struct word, a spread to a
# wider word, or a field read on its own
DIGIT_BITS = tuple(range(8, 137, 8))


@pytest.mark.parametrize("bits", DIGIT_BITS)
def test_pack_unpack_at_the_digit_edges(bits):
    top = 2 ** (bits - 1) - 1
    for v in ([top], [-top], [top, -top, top], [-top, 0, -top, top], [0, 0, -top],
              [1, -1, 0, 1], [-1] * 5, [top, 0, 0, 0, 1]):
        packed = _pack(v, bits)
        assert packed == sum(x << (bits * i) for i, x in enumerate(v))
        assert _unpack([packed], bits) == [slice_unpack(packed, bits)] == [v]
    assert _unpack([0], bits) == [slice_unpack(0, bits)] == [[]]


@pytest.mark.parametrize("bits", DIGIT_BITS)
@given(st.integers(min_value=-(2**300), max_value=2**300))
def test_unpack_reads_balanced_digits_of_any_int(bits, x):
    # X^n X/2 needs a digit more than X^n X/2 - 1, whose top digit is X/2 - 1
    half = 1 << (bits - 1)
    edges = [s * ((half << (bits * n)) + d) for n in range(4) for d in (-2, -1, 0, 1)
             for s in (1, -1)]
    for y in [x, 0, *edges]:
        [digits] = _unpack([y], bits)
        assert digits == slice_unpack(y, bits)
        assert sum(d << (bits * i) for i, d in enumerate(digits)) == y
        assert all(-half <= d < half for d in digits)
        assert not digits or digits[-1]


# one struct word (1, 2, 4, 8 bytes), a spread to a wider word (3, 5, 6, 7)
# and fields read on their own (9, 10, 16)
BATCH_BITS = tuple(8 * w for w in (*range(1, 11), 16))


@pytest.mark.parametrize("bits", BATCH_BITS)
@given(st.lists(st.integers(min_value=-(2**200), max_value=2**200), max_size=6))
def test_batch_unpack_reads_each_entry_as_the_slice_oracle(bits, xs):
    half = 1 << (bits - 1)
    # zero; one digit at either edge; the first values that take a digit more;
    # low zero digits, which stay; and values whose read ends in a zero digit
    # (X/2 - 1 is read as two digits), each followed by another entry
    edges = [0, half - 1, -half, half, -half - 1, -1, 5 << bits * 3, -(1 << bits * 2),
             half << bits, (half - 1) << bits]
    for batch in ([*xs, *edges], [*edges[::-1], *xs], xs, xs[:1], [edges[1]]):
        assert _unpack(batch, bits) == [slice_unpack(x, bits) for x in batch]
    # an entry's trailing zero digits do not reach the next entry
    assert _unpack([half - 1, 0, 1, half - 1, -1], bits) == [[half - 1], [], [1], [half - 1], [-1]]
    assert _unpack([], bits) == []


def fraction_divmod(a: PolyQ, b: PolyQ) -> tuple:
    """Long division over Fraction coefficients; the oracle for every exact quotient."""
    rem, d = [Fraction(x) for x in a.coeffs], b.degree
    quot = [Fraction(0)] * max(len(rem) - d, 0)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = c = rem[i + d] / b.coeffs[-1]
        for j, y in enumerate(b.coeffs):
            rem[i + j] -= c * y
    return PolyQ(quot), PolyQ(rem)


def monic(p: PolyQ) -> PolyQ:
    return PolyQ([Fraction(x) / p.coeffs[-1] for x in p.coeffs]) if p else p


def euclid_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Euclid over Fraction coefficients; the oracle for poly_gcd."""
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return monic(a)


def euclid_reduced(num: PolyQ, den: PolyQ) -> tuple:
    """(num, den) divided by their Euclid gcd, den monic; the oracle for RatFuncQ."""
    if not num:
        return num, PolyQ([1])
    g = euclid_gcd(num, den)
    num, den = fraction_divmod(num, g)[0], fraction_divmod(den, g)[0]
    return PolyQ([Fraction(x) / den.coeffs[-1] for x in num.coeffs]), monic(den)


gcd_polys = st.lists(
    st.one_of(st.integers(min_value=-20, max_value=20),
              st.fractions(min_value=-20, max_value=20, max_denominator=12)),
    max_size=7,
).map(PolyQ)


@given(gcd_polys, gcd_polys, gcd_polys)
@settings(max_examples=200, deadline=None)
def test_poly_gcd_matches_euclid_over_fractions(a, b, c):
    # the shared factor c makes most gcds nontrivial
    for x, y in ((a * c, b * c), (a, b), (a * c, PolyQ([])), (PolyQ([]), b)):
        assert repr(poly_gcd(x, y)) == repr(euclid_gcd(x, y))


@given(gcd_polys, gcd_polys, gcd_polys)
@settings(max_examples=200, deadline=None)
def test_poly_gcd_fallback_matches_euclid_over_fractions(a, b, c):
    # no GCDHEU try: every gcd comes from the pseudo-remainder fallback
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intpoly, "_HEU_TRIES", 0)
        for x, y in ((a * c, b * c), (a, b)):
            assert repr(poly_gcd(x, y)) == repr(euclid_gcd(x, y))


def test_gcdheu_rejects_a_false_candidate():
    # at X = 256 the read-back gcd of the packed values is q + 73, which divides neither
    num, den = PolyQ([58, 59, 35]), PolyQ([-25, -2, 69])
    r = RatFuncQ(num, den)
    assert (repr(r.num), repr(r.den)) == tuple(map(repr, euclid_reduced(num, den)))
    assert poly_gcd(num, den) == PolyQ([1])


def test_gcd_fallback_reduces_when_the_heuristic_gives_up(monkeypatch):
    monkeypatch.setattr(intpoly, "_HEU_TRIES", 0)
    p = PolyQ([1, 1])
    num, den = p**5 * PolyQ([3, 0, -1]), p**7 * PolyQ([Fraction(1, 2), 5])
    r = RatFuncQ(num, den)
    assert (repr(r.num), repr(r.den)) == tuple(map(repr, euclid_reduced(num, den)))
    assert poly_gcd(num, den) == p**5


def test_poly_gcd_of_powers_of_one_plus_q():
    p = PolyQ([1, 1])
    assert poly_gcd(p**9 * PolyQ([3, 0, -1]), p**4 * PolyQ([Fraction(1, 2), 5])) == p**4
    assert poly_gcd(PolyQ([2]), p) == PolyQ([1])


def test_poly_pow():
    assert PolyQ([1, 1]) ** 3 == PolyQ([1, 3, 3, 1])
    assert PolyQ([0, 1]) ** 0 == PolyQ([1])


# -- RatFuncQ ------------------------------------------------------------------


def is_polynomial(r: RatFuncQ) -> bool:
    return r.den == PolyQ([1])


def test_ratfunc_reduces_and_makes_denominator_monic():
    r = RatFuncQ(PolyQ([0, 2, 2]), PolyQ([2, 2]))  # (2q+2q^2)/(2+2q) = q
    assert is_polynomial(r)
    assert r == Q
    r2 = RatFuncQ(PolyQ([1]), PolyQ([0, 3]))
    assert r2.den == PolyQ([0, 1])
    assert r2.num == PolyQ([Fraction(1, 3)])


def test_ratfunc_constant_denominator_divides_the_numerator():
    r = RatFuncQ(PolyQ([1, 2]), PolyQ([4]))
    assert is_polynomial(r)
    assert repr(r.num) == repr(PolyQ([Fraction(1, 4), Fraction(1, 2)]))
    assert RatFuncQ(PolyQ([2, 4]), PolyQ([Fraction(2, 3)])).num == PolyQ([3, 6])
    assert RatFuncQ(PolyQ([]), PolyQ([5])) == embed_rational(0)


@given(
    num=gcd_polys,
    shift=st.integers(min_value=0, max_value=5),
    j=st.integers(min_value=1, max_value=6),
    c=st.one_of(st.integers(min_value=-9, max_value=9).filter(bool),
                st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)),
)
@settings(max_examples=200, deadline=None)
def test_ratfunc_monomial_denominator_matches_the_gcd_path(num, shift, j, c):
    # num * q^shift over c * q^j: the shared power of q is all the gcd there is
    num = num * PolyQ([0] * shift + [1])
    den = PolyQ([0] * j + [c])
    r = RatFuncQ(num, den)
    want_num, want_den = euclid_reduced(num, den)
    assert (repr(r.num), repr(r.den)) == (repr(want_num), repr(want_den))


@given(gcd_polys, gcd_polys.filter(bool), gcd_polys.filter(bool),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=200, deadline=None)
def test_ratfunc_matches_the_euclid_reduction(a, b, c, k):
    # a shared factor c, and the powers of 1 + q that symbolic division divides by
    for num, den in ((a * c, b * c), (a, PolyQ([1, 1]) ** k), (a * PolyQ([1, 1]) ** 3, b * c)):
        r = RatFuncQ(num, den)
        assert (repr(r.num), repr(r.den)) == tuple(map(repr, euclid_reduced(num, den)))


def test_ratfunc_monomial_denominator_cancels_powers_of_q():
    r = RatFuncQ(PolyQ([0, 0, 3, 1]), PolyQ([0, 0, 0, 0, 2]))
    assert (repr(r.num), repr(r.den)) == (
        repr(PolyQ([Fraction(3, 2), Fraction(1, 2)])), repr(PolyQ([0, 0, 1])))
    assert repr(r) == "RatFuncQ(((3/2)+(1/2)q)/(q^2))"
    assert is_polynomial(RatFuncQ(PolyQ([0, 0, 3, 1]), PolyQ([0, 2])))
    assert embed_rational(1) / Q**3 * Q**5 == Q * Q


def test_ratfunc_zero_denominator_raises():
    with pytest.raises(DivisionByZero):
        RatFuncQ(PolyQ([1]), PolyQ([]))
    with pytest.raises(DivisionByZero):
        embed_rational(1) / embed_rational(0)
    # the same denominator read from JSON is malformed input
    for den in (["0"], []):
        with pytest.raises(ParseError):
            RatFuncQ.from_json({"num": ["1"], "den": den})


@given(ratfuncs, ratfuncs, ratfuncs)
@settings(max_examples=40)
def test_ratfunc_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == embed_rational(0)
    if b:
        assert (a / b) * b == a


@given(ratfuncs)
def test_ratfunc_normal_form_is_canonical(r):
    rebuilt = RatFuncQ(r.num, r.den)
    assert rebuilt.num == r.num and rebuilt.den == r.den
    scaled = RatFuncQ(r.num * PolyQ([0, 0, 5]), r.den * PolyQ([0, 0, 5]))
    assert scaled == r
    assert hash(scaled) == hash(r)


def test_ratfunc_constant_compares_and_hashes_like_rational():
    c = embed_rational(Fraction(3, 2))
    assert c == Fraction(3, 2)
    assert hash(c) == hash(Fraction(3, 2))
    assert embed_rational(4) == 4


class MonicRatFunc:
    """A rational function as the pair (num, den) of PolyQ with monic denominator.

    This is the form ``RatFuncQ`` stored before it kept integer pairs,
    reduced by Euclid over Fraction coefficients, with that form's
    arithmetic, text and JSON; the oracle for ``RatFuncQ``.  Its hash is
    that of the integer pair the form clears to (a constant hashes as its
    rational).
    """

    def __init__(self, num: PolyQ, den: PolyQ = PolyQ([1])):
        if not den:
            raise DivisionByZero("zero denominator")
        self.num, self.den = euclid_reduced(num, den)

    def __add__(self, o):
        return MonicRatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        return self + (-o)

    def __neg__(self):
        return MonicRatFunc(-self.num, self.den)

    def __mul__(self, o):
        return MonicRatFunc(self.num * o.num, self.den * o.den)

    def __truediv__(self, o):
        return MonicRatFunc(self.num * o.den, self.den * o.num)

    def __pow__(self, n):
        if n < 0:
            return MonicRatFunc(self.den, self.num) ** -n
        return MonicRatFunc(self.num**n, self.den**n)

    def is_constant(self):
        return self.den == PolyQ([1]) and self.num.degree <= 0

    def __hash__(self):
        if self.is_constant():
            return hash(Fraction(self.num.eval(0)))
        # both polynomials over one lcm, then the joint content divided out; den is monic
        coeffs = self.num.coeffs + self.den.coeffs
        scale = lcm(*[Fraction(c).denominator for c in coeffs])
        ints = [int(c * scale) for c in coeffs]
        g, k = gcd(*ints), len(self.num.coeffs)
        return hash((tuple([x // g for x in ints[:k]]), tuple([x // g for x in ints[k:]])))

    def __str__(self):
        if self.den == PolyQ([1]):
            return str(self.num)
        num_s, den_s = str(self.num), str(self.den)
        if self.num.degree > 0 or self.num.coeffs[0] < 0:
            num_s = f"({num_s})"
        if self.den.degree > 0:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def eval_at(self, point):
        dv = self.den.eval(point)
        if not dv:
            raise DivisionByZero("denominator vanishes")
        return Fraction(self.num.eval(point)) / dv


pair_coeffs = st.one_of(st.integers(min_value=-12, max_value=12),
                        st.fractions(min_value=-12, max_value=12, max_denominator=6))
# non-monic leading coefficients, negative ones and constant denominators such as 3/2
pair_leads = st.one_of(st.integers(min_value=-9, max_value=9).filter(bool),
                       st.sampled_from([Fraction(3, 2), Fraction(-3, 2), Fraction(2, 5)]))
pair_inputs = st.tuples(
    st.lists(pair_coeffs, max_size=4), st.lists(pair_coeffs, max_size=3), pair_leads,
    st.lists(st.integers(min_value=-3, max_value=3), max_size=2),
).map(lambda t: (PolyQ(t[0]) * PolyQ(t[3] + [1]), PolyQ(t[1] + [t[2]]) * PolyQ(t[3] + [1])))


def assert_same(got: RatFuncQ, want: MonicRatFunc):
    # repr tells an int coefficient from a whole-valued Fraction
    assert (repr(got.num), repr(got.den)) == (repr(want.num), repr(want.den))
    assert (str(got), repr(got)) == (str(want), f"RatFuncQ({want})")
    assert got.to_json() == want.to_json() and hash(got) == hash(want)
    back = RatFuncQ.from_json(want.to_json())
    assert back == got and (back._n, back._d) == (got._n, got._d)
    for point in (0, 1, -1, Fraction(3, 2), Fraction(-2, 3)):
        try:
            value = want.eval_at(point)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                got.eval_at(point)
            continue
        assert repr(got.eval_at(point)) == repr(_norm_rat(value))
    for c in (0, 1, Fraction(3, 2), want.num.eval(0)):
        assert (got == c) == (want.is_constant() and want.num.eval(0) == c)


@given(pair_inputs, pair_inputs, st.integers(min_value=-3, max_value=3))
@settings(max_examples=150, deadline=None)
def test_integer_pairs_match_the_monic_fraction_form(x, y, n):
    a, b, ra, rb = RatFuncQ(*x), RatFuncQ(*y), MonicRatFunc(*x), MonicRatFunc(*y)
    assert a._d[-1] > 0 and gcd(*a._n, *a._d) == 1
    for got, want in ((a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
                      (a * b, ra * rb), (a**n, ra**n) if a or n >= 0 else (b, rb)):
        assert_same(got, want)
    if b:
        assert_same(a / b, ra / rb)
    assert (a == b) == ((ra.num, ra.den) == (rb.num, rb.den))


def test_variant_mixing_raises():
    with pytest.raises(VariantMismatch):
        Q + 1
    with pytest.raises(VariantMismatch):
        Fraction(1, 2) * Q
    with pytest.raises(VariantMismatch):
        Q - Fraction(1, 2)
    with pytest.raises(VariantMismatch):
        1 - Q
    with pytest.raises(VariantMismatch):
        Fraction(1, 2) / Q


def test_poly_equality_and_hash():
    # a polynomial equals only a polynomial, and equal ones hash equal
    assert PolyQ([1]) != 1 and not PolyQ([1]) == 1
    assert PolyQ([1, 2, 0]) == PolyQ([1, 2]) and hash(PolyQ([1, 2, 0])) == hash(PolyQ([1, 2]))


def test_ratfunc_hash_is_that_of_its_canonical_pair(fractions_made_under):
    # 1/(2q - 1) built three ways: equal values hash equal, and the hash makes no Fraction
    one, two = embed_rational(1), embed_rational(2)
    a = one / (two * Q - one)
    b = (Q + one) / (two * Q * Q + Q - one)
    c = RatFuncQ(PolyQ([Fraction(1, 3)]), PolyQ([Fraction(-1, 3), Fraction(2, 3)]))
    assert a == b == c and (a._n, a._d) == ((1,), (-1, 2))
    assert hash(a) == hash(b) == hash(c) == hash(((1,), (-1, 2)))
    assert fractions_made_under({RatFuncQ.__hash__.__code__}, lambda: hash(a)) == []


@given(ratfuncs, rationals)
@settings(max_examples=40)
def test_eval_at_specializes_field_ops(a, x):
    b = RatFuncQ(PolyQ([1, 1]), PolyQ([1]))
    try:
        ax, bx = a.eval_at(x), b.eval_at(x)
    except DivisionByZero:
        return
    assert (a + b).eval_at(x) == ax + bx
    assert (a * b).eval_at(x) == ax * bx


def test_pow_negative_inverts():
    assert Q ** -2 == RatFuncQ(PolyQ([1]), PolyQ([0, 0, 1]))
    with pytest.raises(DivisionByZero):
        (Q - Q) ** -1


# -- scalar helpers ------------------------------------------------------------


def test_scalar_eval_passes_rationals_through():
    assert scalar_eval(Fraction(1, 3), Fraction(3, 2)) == Fraction(1, 3)
    assert scalar_eval(7, Fraction(3, 2)) == 7
    assert scalar_eval(Q ** 2, Fraction(3, 2)) == Fraction(9, 4)


def test_scalar_json_roundtrip():
    for s in (5, Fraction(-7, 3)):
        assert scalar_from_json(scalar_to_json(s), symbolic=False) == s
    sym = Q ** 2 / (Q + embed_rational(1))
    assert scalar_from_json(scalar_to_json(sym), symbolic=True) == sym
    # rational payload lifts into the symbolic variant on request
    lifted = scalar_from_json("3/2", symbolic=True)
    assert isinstance(lifted, RatFuncQ)


def test_scalar_json_rejects_symbolic_payload_in_rational_mode():
    payload = scalar_to_json(Q)
    with pytest.raises(ParseError):
        scalar_from_json(payload, symbolic=False)


def test_json_booleans_are_not_coefficients():
    for flag in (True, False):
        with pytest.raises(ParseError):
            scalar_from_json(flag, symbolic=False)
        with pytest.raises(ParseError):
            scalar_from_json(flag, symbolic=True)
        with pytest.raises(ParseError):
            PolyQ.from_json([1, flag])
        with pytest.raises(ParseError):
            RatFuncQ.from_json({"num": [flag], "den": ["1"]})


def test_parse_format_scalar():
    assert parse_rational("5/3") == Fraction(5, 3)
    assert str(Fraction(5, 3)) == "5/3"
    assert str(Q + embed_rational(1)) == "1+q"
