"""The symbolic-q scalars: polynomials and rational functions of q.

Only symbolic JSON or scalar parsing, the package's lazy names and
``qkernels`` load this module, so a process over plain rationals never
compiles it.

``PolyQ`` stores dense coefficients ``(a_0, ..., a_n)`` in ascending degree
with no trailing zeros; the zero polynomial is the empty tuple.
``RatFuncQ`` keeps the canonical form of FLINT's ``fmpz_poly_q``
(https://flintlib.org/doc/fmpz_poly_q.html): two coprime integer vectors
with joint content 1 whose denominator leads with a positive coefficient.
Its ``num`` and ``den`` are the reduced pair with monic denominator, made
on each read: its arithmetic makes no ``Fraction``, and one is made only
when ``num`` or ``den`` is read (as ``str``, JSON and ``hash`` do).
Mixing it with a plain rational in arithmetic raises ``VariantMismatch``
instead of auto-promoting; callers that really mean the canonical
embedding of a rational constant into the q-field say so with
``embed_rational``.

Every rational function is reduced by one integer-only canonicalizer,
``intpoly._canonical``, from an integer numerator and denominator vector:
the gcd is the heuristic GCDHEU on the Kronecker substitution the kernels
use, with Euclid on primitive pseudo-remainders as its fallback, the
cofactors are the reduced pair, and one integer gcd and a sign make it
canonical.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from itertools import repeat
from typing import Iterable

from .coefficients import (_INT_ONLY, _check_rat, _int_ratio, _integer_vector, _norm_rat,
                           parse_rational)
from .errors import DivisionByZero, Immutable, ParseError, VariantMismatch, echo
from .intpoly import _ONE, _canonical, _kronecker_mul


def _normalized(c: list) -> list:
    # an all-int list, the common case, is checked in one C-level pass
    if _INT_ONLY.issuperset(map(type, c)):
        return c
    return [_norm_rat(x) for x in c]


def _trimmed(c: list) -> tuple:
    """The coefficient list c normalized and without trailing zeros."""
    c = _normalized(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _sum(a, b) -> tuple:
    """The coefficients of the sum of two polynomials."""
    if len(a) < len(b):
        a, b = b, a
    return _trimmed([x + y for x, y in zip(a, b)] + list(a[len(b) :]))


def _product(a, b) -> list:
    """The coefficients of the product of two polynomials."""
    if not a or not b:
        return []
    if not any(b[:-1]):
        a, b = b, a
    elif any(a[:-1]):
        return _kronecker_mul(a, b)
    # a is a monomial c*q^k, a constant when k = 0: scale and shift
    return [0] * (len(a) - 1) + _normalized([a[-1] * y for y in b])


class PolyQ(Immutable):
    """Dense univariate polynomial in q with exact rational coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "_c", _trimmed(list(coeffs)))

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
        return PolyQ._raw(_sum(self._c, other._c))

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
            return PolyQ._raw(_product(self._c, other._c))
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


_P_ZERO = PolyQ(())
_P_ONE = PolyQ((1,))


def _monic(v, lead: int) -> PolyQ:
    # the integer vector v / lead, whole coefficients kept as int
    return PolyQ._raw(v if lead == 1 else map(_int_ratio, v, repeat(lead)))


def _from_integer(v, dv=_ONE) -> "RatFuncQ":
    """The rational function v / dv of two integer vectors without trailing zeros."""
    return RatFuncQ._raw(*_canonical(v, dv))


class RatFuncQ(Immutable):
    """A rational function of q in the canonical form of FLINT's ``fmpz_poly_q``.

    ``_n`` and ``_d`` are coprime integer vectors with joint content 1 and
    ``_d[-1] > 0``; zero is ``((), (1,))``.  ``num`` and ``den`` are the
    same pair divided by ``_d[-1]``: the reduced ratio with monic
    denominator, built on each read.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num: PolyQ, den: PolyQ = _P_ONE):
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        # cleared over one denominator, which cancels
        v, k = _integer_vector(num._c + den._c)[1], len(num._c)
        n, d = _canonical(v[:k], v[k:])
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_d", d)

    @classmethod
    def _raw(cls, n: tuple, d: tuple = _ONE) -> "RatFuncQ":
        # trusted constructor for a canonical pair of integer tuples
        self = object.__new__(cls)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_d", d)
        return self

    @classmethod
    def from_rational(cls, value) -> "RatFuncQ":
        n = value.numerator
        return cls._raw((n,) if n else (), (value.denominator,))

    @property
    def num(self) -> PolyQ:
        return _monic(self._n, self._d[-1])

    @property
    def den(self) -> PolyQ:
        return _monic(self._d, self._d[-1])

    @property
    def is_constant(self) -> bool:
        return len(self._d) == 1 and len(self._n) <= 1

    def __bool__(self) -> bool:
        return bool(self._n)

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
            return self._n == other._n and self._d == other._d
        if isinstance(other, numbers.Rational):
            # comparing against a constant loses nothing, so it is allowed
            return self.is_constant and sum(self._n) == other * self._d[0]
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_constant:
            # the sum of at most one coefficient: 0 for zero
            return hash(Fraction(sum(self._n), self._d[0]))
        return hash((self._n, self._d))

    def __repr__(self) -> str:
        return f"RatFuncQ({self})"

    def __str__(self) -> str:
        num, den = self.num, self.den
        if den == _P_ONE:
            return str(num)
        num_s = str(num)
        den_s = str(den)
        if num.degree > 0 or num._c[0] < 0:
            num_s = f"({num_s})"
        if den.degree > 0:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __neg__(self) -> "RatFuncQ":
        return RatFuncQ._raw(tuple([-x for x in self._n]), self._d)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self._n, self._d, o._n, o._d
        if b == d == _ONE:
            # a sum or product of polynomials is canonical as it is
            return RatFuncQ._raw(_sum(a, c))
        return _from_integer(_sum(_product(a, d), _product(c, b)), _product(b, d))

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
        a, b, c, d = self._n, self._d, o._n, o._d
        if b == d == _ONE:
            return RatFuncQ._raw(tuple(_product(a, c)))
        return _from_integer(_product(a, c), _product(b, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._n:
            raise DivisionByZero("division by the zero rational function")
        return _from_integer(_product(self._n, o._d), _product(self._d, o._n))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "RatFuncQ":
        if n < 0:
            if not self._n:
                raise DivisionByZero("negative power of zero")
            return RatFuncQ._raw(*_canonical(self._d, self._n)) ** -n
        # a power of a canonical pair is canonical
        return RatFuncQ._raw(*[(PolyQ._raw(v) ** n)._c for v in (self._n, self._d)])

    def eval_at(self, point):
        """Specialize q to an exact rational point."""
        dv = PolyQ._raw(self._d).eval(point)
        if not dv:
            raise DivisionByZero(f"denominator vanishes at q={point}")
        return _norm_rat(Fraction(PolyQ._raw(self._n).eval(point)) / dv)

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


Q = RatFuncQ._raw((0, 1))
# the scalar types of a symbolic context, checked in one C-level type pass
_RATFUNC_ONLY = frozenset((RatFuncQ,))


def embed_rational(value) -> RatFuncQ:
    """The canonical embedding of an exact rational into the q-field."""
    if isinstance(value, RatFuncQ):
        return value
    if not isinstance(value, numbers.Rational):
        raise VariantMismatch(f"cannot embed {echo(value)}")
    return RatFuncQ.from_rational(_norm_rat(value))
