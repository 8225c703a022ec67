"""Exact scalar arithmetic for series coefficients.

Two scalar variants are supported, and they are kept deliberately separate:

* plain rationals, represented by stdlib ``int`` / ``fractions.Fraction``
  (both are ``numbers.Rational``; an int is just a fraction with
  denominator 1, and we normalize whole-valued fractions back to int so
  the common paths stay in fast integer arithmetic);
* rational functions of a formal symbol q, represented by ``RatFuncQ``,
  a reduced ratio of two ``PolyQ`` polynomials with monic denominator.

Mixing the two variants in arithmetic raises ``VariantMismatch`` instead of
auto-promoting; callers that really mean the canonical embedding of a
rational constant into the q-field say so with ``embed_rational``.

``PolyQ`` stores dense coefficients ``(a_0, ..., a_n)`` in ascending degree
with no trailing zeros; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Union

from .errors import DivisionByZero, ParseError, VariantMismatch

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Union[int, Fraction]:
    """Parse "p" or "p/q" into an exact rational (int when whole)."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"not a rational literal: {text!r}")
    return _norm_rat(Fraction(s))


def _norm_rat(x):
    # keep whole values as int so hot loops stay in integer arithmetic
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


_INT_ONLY = frozenset((int,))


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

    @classmethod
    def constant(cls, value) -> "PolyQ":
        return cls((value,))

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

    def __divmod__(self, other) -> tuple["PolyQ", "PolyQ"]:
        if not isinstance(other, PolyQ):
            return NotImplemented
        if not other:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self._c)
        d = other.degree
        lead = other._c[-1]
        if len(rem) <= d:
            return _P_ZERO, self
        quot = [0] * (len(rem) - d)
        for i in range(len(rem) - 1 - d, -1, -1):
            c = rem[i + d]
            if not c:
                continue
            c = _norm_rat(Fraction(c) / lead) if lead != 1 else c
            quot[i] = c
            for j, y in enumerate(other._c):
                rem[i + j] -= c * y
        return PolyQ(quot), PolyQ(rem)

    def __floordiv__(self, other) -> "PolyQ":
        q, _ = divmod(self, other)
        return q

    def __mod__(self, other) -> "PolyQ":
        _, r = divmod(self, other)
        return r

    def exact_div(self, other: "PolyQ") -> "PolyQ":
        q, r = divmod(self, other)
        if r:
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return q

    def monic(self) -> "PolyQ":
        if not self._c:
            return self
        lead = self._c[-1]
        if lead == 1:
            return self
        return PolyQ(_norm_rat(Fraction(x) / lead) for x in self._c)

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
            raise ParseError(f"polynomial must be a list of rationals, got {data!r}")
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


def _integer_vector(c: tuple) -> tuple:
    """(d, v) with c == v / d, d the lcm of the denominators and v integral."""
    d = 1
    for x in c:
        if type(x) is not int:
            d = lcm(d, x.denominator)
    if d == 1:
        return 1, c
    return d, [x.numerator * (d // x.denominator) for x in c]


def _pack(v, width: int) -> int:
    """sum v_i * 256^(width*i) for integers with |v_i| < 256^width / 2."""
    packed = int.from_bytes(
        b"".join(x.to_bytes(width, "little", signed=True) for x in v), "little"
    )
    # a negative digit, stored in two's complement, added 256^width too much
    # at the next position up
    borrows = bytearray(width * (len(v) + 1))
    borrows[width::width] = bytes(x < 0 for x in v)
    return packed - int.from_bytes(borrows, "little")


def _kronecker_mul(a: tuple, b: tuple) -> list:
    """Coefficients of the product of two nonzero polynomials.

    Kronecker substitution: with the denominators cleared, each integer
    vector is read as the digits of one integer in base 256^width, wide
    enough that no product coefficient overflows a digit; one big-int
    multiplication then does the whole convolution.
    """
    da, va = _integer_vector(a)
    db, vb = _integer_vector(b)
    bits = (
        max(max(va), -min(va)).bit_length()
        + max(max(vb), -min(vb)).bit_length()
        + min(len(va), len(vb)).bit_length()
        + 1
    )
    width = (bits + 7) // 8
    n = len(va) + len(vb) - 1
    raw = (_pack(va, width) * _pack(vb, width)).to_bytes(n * width, "little", signed=True)
    out = []
    carry = 0
    for i in range(0, n * width, width):
        digit = int.from_bytes(raw[i : i + width], "little", signed=True)
        out.append(digit + carry)
        carry = digit < 0
    den = da * db
    if den != 1:
        out = [_norm_rat(Fraction(x, den)) for x in out]
    return out


def _check_rat(x):
    # JSON true/false arrive as bool, which is a numbers.Rational
    if isinstance(x, numbers.Rational) and not isinstance(x, bool):
        return x
    raise ParseError(f"not a rational value: {x!r}")


_P_ZERO = PolyQ(())
_P_ONE = PolyQ((1,))
Q_POLY = PolyQ((0, 1))


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd over the rationals (zero if both inputs are zero)."""
    while b:
        a, b = b, a % b
    return a.monic()


class RatFuncQ:
    """Reduced ratio of two PolyQ with a monic, nonzero denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyQ, den: PolyQ = _P_ONE):
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if den is not _P_ONE:
            # a constant denominator shares no factor with num: no gcd
            if num and den.degree:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            lead = den._c[-1]
            if lead != 1:
                num = num * _norm_rat(Fraction(1) / lead)
            den = den.monic() if num and den.degree else _P_ONE
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
    def is_polynomial(self) -> bool:
        return self.den == _P_ONE

    @property
    def is_constant(self) -> bool:
        return self.den == _P_ONE and self.num.degree <= 0

    def as_rational(self):
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return self.num._c[0] if self.num else 0

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
            raise ParseError(f"rational function must be {{'num': .., 'den': ..}}, got {data!r}")
        return cls(PolyQ.from_json(data["num"]), PolyQ.from_json(data["den"]))


Q = RatFuncQ._raw(Q_POLY, _P_ONE)

Scalar = Union[int, Fraction, RatFuncQ]


def embed_rational(value) -> RatFuncQ:
    """The canonical embedding of an exact rational into the q-field."""
    if isinstance(value, RatFuncQ):
        return value
    if not isinstance(value, numbers.Rational):
        raise VariantMismatch(f"cannot embed {value!r}")
    return RatFuncQ.from_rational(_norm_rat(value))


def scalar_eval(s: Scalar, point):
    """Evaluate a scalar at q=point; plain rationals pass through."""
    if isinstance(s, RatFuncQ):
        return s.eval_at(point)
    return s


def scalar_to_json(s: Scalar):
    if isinstance(s, RatFuncQ):
        return s.to_json()
    return str(s)


def scalar_from_json(data, symbolic: bool) -> Scalar:
    if isinstance(data, dict):
        if not symbolic:
            raise ParseError("symbolic coefficient given for a plain rational sequence")
        return RatFuncQ.from_json(data)
    if isinstance(data, str):
        value = parse_rational(data)
    else:
        value = _norm_rat(_check_rat(data))
    return embed_rational(value) if symbolic else value


def parse_scalar(text: str, symbolic: bool) -> Scalar:
    value = parse_rational(text)
    return embed_rational(value) if symbolic else value


def format_scalar(s: Scalar) -> str:
    return str(s)
