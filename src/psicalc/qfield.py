"""The symbolic-q scalars: polynomials and rational functions of q.

Only symbolic JSON or scalar parsing, the package's lazy names and
``qkernels`` load this module, so a process over plain rationals never
compiles it.

``PolyQ`` stores dense coefficients ``(a_0, ..., a_n)`` in ascending degree
with no trailing zeros; the zero polynomial is the empty tuple.
``RatFuncQ`` is a reduced ratio of two ``PolyQ`` with monic denominator.
Mixing it with a plain rational in arithmetic raises ``VariantMismatch``
instead of auto-promoting; callers that really mean the canonical
embedding of a rational constant into the q-field say so with
``embed_rational``.

Every rational function is reduced by one integer-only canonicalizer,
``_canonical``, from an integer numerator and denominator vector: the gcd
is the heuristic GCDHEU on the Kronecker substitution the kernels use,
with Euclid on primitive pseudo-remainders as its fallback, the cofactors
are the reduced pair, and dividing by the denominator's leading
coefficient is the only step that makes a ``Fraction``.
"""

from __future__ import annotations

import numbers
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import gcd
from operator import add, rshift
from typing import Iterable

from .coefficients import (_INT_ONLY, _check_rat, _int_ratio, _integer_vector, _norm_rat,
                           parse_rational)
from .errors import DivisionByZero, ParseError, VariantMismatch, echo


def _normalized(c: list) -> list:
    # an all-int list, the common case, is checked in one C-level pass
    if _INT_ONLY.issuperset(map(type, c)):
        return c
    return [_norm_rat(x) for x in c]


class PolyQ:
    """Dense univariate polynomial in q with exact rational coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable = ()):
        c = _normalized(list(coeffs))
        while c and not c[-1]:
            c.pop()
        object.__setattr__(self, "_c", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("PolyQ is immutable")

    @property
    def coeffs(self) -> tuple:
        return self._c

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is -1 by convention
        return len(self._c) - 1

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyQ):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"PolyQ({list(self._c)!r})"

    def __neg__(self) -> "PolyQ":
        return PolyQ(-x for x in self._c)

    def __add__(self, other) -> "PolyQ":
        if not isinstance(other, PolyQ):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        return PolyQ([x + y for x, y in zip(a, b)] + list(a[len(b) :]))

    def __sub__(self, other) -> "PolyQ":
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self + (-other)

    @classmethod
    def _raw(cls, coeffs: list) -> "PolyQ":
        # trusted constructor: normalized coefficients, nonzero last entry
        self = object.__new__(cls)
        object.__setattr__(self, "_c", tuple(coeffs))
        return self

    def __mul__(self, other) -> "PolyQ":
        if isinstance(other, PolyQ):
            a, b = self._c, other._c
            if not a or not b:
                return _P_ZERO
            if not any(b[:-1]):
                a, b = b, a
            elif any(a[:-1]):
                return PolyQ._raw(_kronecker_mul(a, b))
            # a is a monomial c*q^k, a constant when k = 0: scale and shift
            return PolyQ._raw([0] * (len(a) - 1) + _normalized([a[-1] * y for y in b]))
        if isinstance(other, numbers.Rational):
            if not other:
                return _P_ZERO
            return PolyQ._raw(_normalized([x * other for x in self._c]))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PolyQ":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = _P_ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, point):
        """Evaluate at an exact rational point by Horner's scheme."""
        acc = 0
        for c in reversed(self._c):
            acc = acc * point + c
        return _norm_rat(acc)

    def to_json(self) -> list[str]:
        return [str(x) for x in self._c]

    @classmethod
    def from_json(cls, data) -> "PolyQ":
        if not isinstance(data, list):
            raise ParseError(f"polynomial must be a list of rationals, got {echo(data)}")
        return cls(parse_rational(x) if isinstance(x, str) else _check_rat(x) for x in data)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for d, c in enumerate(self._c):
            if not c:
                continue
            mag = -c if c < 0 else c
            mag_s = str(mag)
            if "/" in mag_s:
                mag_s = f"({mag_s})"
            if d == 0:
                body = mag_s
            else:
                var = "q" if d == 1 else f"q^{d}"
                body = var if mag == 1 else f"{mag_s}{var}"
            parts.append(("-" if c < 0 else "+", body))
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += sign + body
        return out


# Kronecker substitution.  An integer polynomial is evaluated at q = X =
# 2^bits, so that its coefficients become the base-X digits of one int, and
# a whole computation of sums and products runs on those ints.  Evaluation
# is a ring homomorphism, so only the polynomials that are packed in or
# unpacked at the end have to fit their digits: every coefficient below
# X / 2 in absolute value.  ``_digit_bits`` picks X from an exact bound on
# those coefficients, never from a guess; bits is a whole number of bytes,
# so packing and unpacking are byte copies.


def _digit_bits(bound: int) -> int:
    """Bits per digit for coefficients of absolute value at most ``bound``, plus a sign bit."""
    return (bound.bit_length() + 8) // 8 * 8


def _norm(v) -> int:
    """|v|_1, which bounds every coefficient of v."""
    return sum(map(abs, v))


@lru_cache(maxsize=256)
def _half_digits(n: int, width: int) -> int:
    # n digits of ``width`` bytes that each hold X / 2: the offset that makes
    # signed digits unsigned; kept, as sizes repeat from call to call
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(v, bits: int) -> int:
    """The integer vector v evaluated at 2^bits; |v_i| < 2^(bits-1)."""
    if not v:
        return 0
    if not any(v[:-1]):
        # a monomial c*q^k, a constant when k = 0, is one shift
        return v[-1] << (bits * (len(v) - 1))
    width = bits // 8
    raw = b"".join(map(int.to_bytes, map(add, v, repeat(1 << (bits - 1))), repeat(width),
                       repeat("little")))
    return int.from_bytes(raw, "little") - _half_digits(len(v), width)


def _unpack(x: int, bits: int) -> list:
    """The balanced base-X digits of x, each in [-X/2, X/2), without trailing zeros.

    Balanced digits are unique, so these are the coefficients of the
    polynomial packed in x whenever every coefficient is below X/2 =
    2^(bits-1) in absolute value.  n digits hold every |x| < X^n / 4, which
    fixes how many to read.  With H the n digits X/2, x + H has the
    balanced digits plus X/2, so (x + H) ^ H has each balanced digit as a
    two's-complement field of bits / 8 bytes.  Fields of 1, 2, 4 and 8
    bytes are read by one signed ``struct.unpack``; fields of 3, 5, 6 and
    7 bytes are first spread to the top of 4- or 8-byte slots, one strided
    slice per byte plane, and read the same way, then shifted down; wider
    fields are read one by one.
    """
    width = bits // 8
    n = (abs(x).bit_length() + 1) // bits + 1
    half = _half_digits(n, width)
    raw = ((x + half) ^ half).to_bytes(n * width, "little")
    if width > 8:
        out = [int.from_bytes(raw[i : i + width], "little", signed=True)
               for i in range(0, n * width, width)]
    else:
        slot = 1 << (width - 1).bit_length()
        pad = slot - width
        if pad:
            buf = bytearray(n * slot)
            for t in range(width):
                buf[pad + t :: slot] = raw[t::width]
            raw = buf
        words = struct.unpack(f"<{n}{'bhiq'[slot.bit_length() - 1]}", raw)
        out = list(map(rshift, words, repeat(8 * pad)) if pad else words)
    while out and not out[-1]:
        out.pop()
    return out


def _kronecker_mul(a: tuple, b: tuple) -> list:
    """Coefficients of the product of two nonzero polynomials.

    The one-product case of Kronecker substitution: with the denominators
    cleared, one big-int multiplication does the whole convolution.  A
    product coefficient is at most |a|_max * |b|_1, with a the longer factor.
    """
    da, va = _integer_vector(a)
    db, vb = _integer_vector(b)
    if len(va) < len(vb):
        va, vb = vb, va
    bits = _digit_bits(max(map(abs, va)) * _norm(vb))
    out = _unpack(_pack(va, bits) * _pack(vb, bits), bits)
    den = da * db
    if den != 1:
        out = [_norm_rat(Fraction(x, den)) for x in out]
    return out


_P_ZERO = PolyQ(())
_P_ONE = PolyQ((1,))
Q_POLY = PolyQ((0, 1))


def _primitive(c) -> list:
    """The integer vector of a nonzero polynomial with its content divided out."""
    _, v = _integer_vector(c)
    g = gcd(*v)
    return [x // g for x in v] if g != 1 else list(v)


def _pseudo_remainder(u: list, v: list) -> list:
    """u mod v up to a nonzero integer factor, for integer vectors with len(u) >= len(v)."""
    r = list(u)
    lv = v[-1]
    dv = len(v) - 1
    while len(r) > dv:
        g = gcd(r[-1], lv)
        cr, cv = lv // g, r[-1] // g
        if cr != 1:
            r = [cr * x for x in r]
        # cr * r - cv * q^shift * v cancels the leading term
        shift = len(r) - 1 - dv
        for j, y in enumerate(v):
            r[shift + j] -= cv * y
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _quotient(u, h) -> list:
    """u / h for integer vectors where h divides u over the integers.

    By Mignotte's bound no coefficient of a factor of u exceeds
    2^deg(u) |u|_2, so at those bits the quotient of the packed values reads
    back exactly.
    """
    bits = _digit_bits(_norm(u) << len(u))
    return _unpack(_pack(u, bits) // _pack(h, bits), bits)


# The heuristic gcd GCDHEU (B. W. Char, K. O. Geddes and G. H. Gonnet,
# J. Symbolic Comput. 7, 1989) packs u and v at X = 2^bits with X >= 2
# max|coefficient| + 29, reads back the int gcd of the packed values as
# balanced digits and takes its primitive part h.  If h divides u and v it
# is their primitive gcd g: for g = h k, k(X) divides the content of the
# read-back, at most X / 2, while a nonconstant k divides u, so its roots lie
# below 1 + max|u_i| <= X / 2 and |k(X)| > X / 2.  Each failed try doubles
# bits; after the last, Euclid on pseudo-remainders (D. Knuth, TAOCP vol. 2,
# 4.6.1) finds g, and Gauss's lemma makes u / g and v / g integral.
_HEU_TRIES = 4


def _cofactors(u: list, v: list) -> tuple:
    """(h, u / h, v / h) for h a primitive gcd of the integer vectors u and v."""
    bits = _digit_bits(max(map(abs, chain(u, v))) + 14)
    for _ in range(_HEU_TRIES):
        x, y = _pack(u, bits), _pack(v, bits)
        g = gcd(x, y)
        h = _unpack(g, bits)
        if len(h) == 1:
            return [1], u, v
        c = gcd(*h)
        if c != 1:
            g //= c
            h = _unpack(g, bits)
        # h(X) divides x and y; balanced digits are unique, so once
        # |h|_1 |w / h|_max < X / 2 the cofactor read back times h is w itself
        cs = _unpack(x // g, bits), _unpack(y // g, bits)
        for f, w in zip(cs, (u, v)):
            if _norm(h) * max(map(abs, f)) >> (bits - 1) and _kronecker_mul(f, h) != list(w):
                break
        else:
            return (h, *cs)
        bits *= 2
    a, b = map(_primitive, (u, v) if len(u) >= len(v) else (v, u))
    r = _pseudo_remainder(a, b)
    while r:
        a, b = b, _primitive(r)
        r = _pseudo_remainder(a, b)
    return b, _quotient(u, b), _quotient(v, b)


def _canonical(nv, dv) -> tuple:
    """The reduced pair (num, den), den monic, of nv / dv for integer vectors.

    Neither vector has trailing zeros, and dv is nonzero.  A constant or
    monomial denominator needs no gcd; otherwise the cofactors of nv and dv
    by their primitive gcd are the reduced pair.  Dividing by the
    denominator's leading coefficient is the one Fraction per coefficient.
    """
    if not nv:
        return _P_ZERO, _P_ONE
    if len(dv) > 1:
        if not any(dv[:-1]):
            # a monomial c*q^j: the gcd is q^s, s the low-order zeros that nv and dv share
            s = min(next(i for i, x in enumerate(nv) if x), len(dv) - 1)
            nv, dv = nv[s:], dv[s:]
        else:
            _, nv, dv = _cofactors(nv, dv)
    lead = dv[-1]
    den = _P_ONE if len(dv) == 1 else PolyQ._raw(map(_int_ratio, dv, repeat(lead)))
    return PolyQ._raw(nv if lead == 1 else map(_int_ratio, nv, repeat(lead))), den


class RatFuncQ:
    """Reduced ratio of two PolyQ with a monic, nonzero denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQ, den: PolyQ = _P_ONE):
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if den is not _P_ONE:
            # cleared over one denominator, which cancels
            v, n = _integer_vector(num._c + den._c)[1], len(num._c)
            num, den = _canonical(v[:n], v[n:])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFuncQ is immutable")

    @classmethod
    def _raw(cls, num: PolyQ, den: PolyQ) -> "RatFuncQ":
        # trusted constructor for already-canonical pairs
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def from_rational(cls, value) -> "RatFuncQ":
        return cls._raw(PolyQ((value,)), _P_ONE)

    @property
    def is_constant(self) -> bool:
        return self.den == _P_ONE and self.num.degree <= 0

    def __bool__(self) -> bool:
        return bool(self.num)

    def _coerce(self, other):
        if isinstance(other, RatFuncQ):
            return other
        if isinstance(other, numbers.Rational):
            raise VariantMismatch(
                "cannot mix a plain rational with a rational function of q; "
                "use embed_rational for the explicit embedding"
            )
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFuncQ):
            return self.num == other.num and self.den == other.den
        if isinstance(other, numbers.Rational):
            # comparing against a constant loses nothing, so it is allowed
            return self.is_constant and (self.num.eval(0) == other)
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_constant:
            return hash(Fraction(self.num.eval(0)))
        return hash((self.num._c, self.den._c))

    def __repr__(self) -> str:
        return f"RatFuncQ({self})"

    def __str__(self) -> str:
        if self.den == _P_ONE:
            return str(self.num)
        num_s = str(self.num)
        den_s = str(self.den)
        if self.num.degree > 0 or self.num and self.num._c[0] < 0:
            num_s = f"({num_s})"
        if self.den.degree > 0:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __neg__(self) -> "RatFuncQ":
        return RatFuncQ._raw(-self.num, self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den is _P_ONE or self.den == _P_ONE:
            if o.den == _P_ONE:
                return RatFuncQ._raw(self.num + o.num, _P_ONE)
        return RatFuncQ(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if (self.den is _P_ONE or self.den == _P_ONE) and o.den == _P_ONE:
            return RatFuncQ._raw(self.num * o.num, _P_ONE)
        return RatFuncQ(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise DivisionByZero("division by the zero rational function")
        return RatFuncQ(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "RatFuncQ":
        if n < 0:
            if not self.num:
                raise DivisionByZero("negative power of zero")
            return RatFuncQ(self.den, self.num) ** (-n)
        return RatFuncQ._raw(self.num**n, self.den**n) if self.den == _P_ONE else RatFuncQ(
            self.num**n, self.den**n
        )

    def eval_at(self, point):
        """Specialize q to an exact rational point."""
        dv = self.den.eval(point)
        if not dv:
            raise DivisionByZero(f"denominator vanishes at q={point}")
        nv = self.num.eval(point)
        return _norm_rat(Fraction(nv) / dv)

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data) -> "RatFuncQ":
        if not isinstance(data, dict) or set(data) != {"num", "den"}:
            raise ParseError(
                f"rational function must be {{'num': .., 'den': ..}}, got {echo(data)}")
        num, den = PolyQ.from_json(data["num"]), PolyQ.from_json(data["den"])
        if not den:
            raise ParseError(f"rational function with zero denominator: {echo(data)}")
        return cls(num, den)


Q = RatFuncQ._raw(Q_POLY, _P_ONE)
# the scalar types of a symbolic context, checked in one C-level type pass
_RATFUNC_ONLY = frozenset((RatFuncQ,))


def embed_rational(value) -> RatFuncQ:
    """The canonical embedding of an exact rational into the q-field."""
    if isinstance(value, RatFuncQ):
        return value
    if not isinstance(value, numbers.Rational):
        raise VariantMismatch(f"cannot embed {echo(value)}")
    return RatFuncQ.from_rational(_norm_rat(value))
