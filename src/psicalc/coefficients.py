"""Exact scalar arithmetic for series coefficients.

Two scalar variants are supported, and they are kept deliberately separate:

* plain rationals, represented by stdlib ``int`` / ``fractions.Fraction``
  (both are ``numbers.Rational``; an int is just a fraction with
  denominator 1, and we normalize whole-valued fractions back to int so
  the common paths stay in fast integer arithmetic); a kernel's x / d is
  made canonical once, by one gcd (``_int_ratio``), the way FLINT's
  ``fmpq`` canonicalises a rational;
* rational functions of a formal symbol q, represented by ``RatFuncQ``,
  a reduced pair of integer vectors in the canonical form of FLINT's
  ``fmpz_poly_q``; its ``num`` and ``den`` are ``PolyQ`` polynomials with
  monic denominator, and reading them is the one step that makes a
  ``Fraction``.

This module holds the plain-rational layer and the helpers both variants
share.  The q-field scalars (``PolyQ``, ``RatFuncQ``, ``Q``,
``embed_rational``) live in ``qfield``, which loads on first use, here when
a symbolic value is read from JSON; their integer polynomial arithmetic
lives in ``intpoly``, and the symbolic kernels live in ``qkernels``, which
a symbolic context loads.  A process over plain rationals compiles none of
them.

Mixing the two variants in arithmetic raises ``VariantMismatch`` instead of
auto-promoting; callers that really mean the canonical embedding of a
rational constant into the q-field say so with ``embed_rational``.
"""

from __future__ import annotations

import numbers
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Union

from .errors import ParseError, echo

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def parse_rational(text: str) -> Union[int, Fraction]:
    """Parse "p" or "p/q" into an exact rational (int when whole)."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"not a rational literal: {echo(text)}")
    try:
        value = Fraction(s)
    except ValueError as exc:  # the literal matched, so only the digit limit refuses it
        raise ParseError(f"rational literal {echo(text)} has a part longer than Python's "
                         f"{sys.get_int_max_str_digits()}-digit int-string limit") from exc
    return _norm_rat(value)


def _norm_rat(x):
    # keep whole values as int so hot loops stay in integer arithmetic
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


_INT_ONLY = frozenset((int,))


def _integer_vector(c: tuple) -> tuple:
    """(d, v) with c == v / d, d the lcm of the denominators and v integral."""
    if _INT_ONLY.issuperset(map(type, c)):
        return 1, c
    d = 1
    for x in c:
        if type(x) is not int:
            d = lcm(d, x.denominator)
    return d, [x.numerator * (d // x.denominator) for x in c]


def _coprime_fraction(n: int, d: int) -> Fraction:
    """The Fraction n / d of coprime ints with d > 1, its two slots set with no gcd.

    What ``Fraction._from_coprime_ints`` does on Python 3.12+; the slots are
    the same on 3.10-3.13.
    """
    f = object.__new__(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _int_ratio(x: int, d: int):
    """The canonical rational x / d of two ints, d != 0 (int when whole), by one gcd.

    The sign moves onto x; ``Fraction(x, d)`` is the reference it equals.
    """
    if d == 1:
        return x
    if d < 0:
        x, d = -x, -d
    g = gcd(x, d)
    if g == d:
        return x // d
    return _coprime_fraction(x, d) if g == 1 else _coprime_fraction(x // g, d // g)


def _check_rat(x):
    # JSON true/false arrive as bool, which is a numbers.Rational
    if isinstance(x, numbers.Rational) and not isinstance(x, bool):
        return x
    raise ParseError(f"not a rational value: {echo(x)}")


def _qfield():
    # the symbolic-q layer, compiled by the first caller that needs it
    from . import qfield

    return qfield


Scalar = Union[int, Fraction, "RatFuncQ"]


def scalar_to_json(s: Scalar):
    return str(s) if isinstance(s, numbers.Rational) else s.to_json()


def scalar_from_json(data, symbolic: bool) -> Scalar:
    if isinstance(data, dict):
        if not symbolic:
            raise ParseError("symbolic coefficient given for a plain rational sequence")
        return _qfield().RatFuncQ.from_json(data)
    if isinstance(data, str):
        value = parse_rational(data)
    else:
        value = _norm_rat(_check_rat(data))
    return _qfield().embed_rational(value) if symbolic else value
