"""Exception hierarchy.

Everything raised on purpose by this package derives from PsiCalcError, so
callers can catch one type at the boundary.  Where a builtin exception has
the right meaning it is mixed in as well: DivisionByZero is a
ZeroDivisionError, VariantMismatch is a TypeError, and so on.  Plain
rational scalars are stdlib numbers, so dividing those by zero raises the
bare builtin; code that needs the library type catches ZeroDivisionError,
which covers both.

``Immutable`` is the one base of every value class (contexts, series,
rational functions of q, operator chains and sums, rule reports): its
fields are set by the constructors alone, through ``object.__setattr__``.
A copy of such a value is the value itself, and pickle, at every
protocol, keeps its fields and sets them back the same way.
"""

import reprlib


class Immutable:
    """A value with slots whose fields no one may set or delete once it is built."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self, memo=None):
        # a value that cannot change is its own copy, shallow or deep
        return self

    __deepcopy__ = __copy__

    def __getstate__(self):
        # the state pickle keeps at protocols 2-5, (None, {field: value}), and at 0 and 1 too
        return None, {name: getattr(self, name) for cls in type(self).__mro__
                      for name in cls.__dict__.get("__slots__", ()) if name != "__weakref__"}

    def __setstate__(self, state):
        # pickle's state of a value with slots, (None, {field: value}), set as a constructor sets it
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class PsiCalcError(Exception):
    """Base class for all errors raised by psicalc."""


class VariantMismatch(PsiCalcError, TypeError):
    """A scalar of the other variant: a plain rational against a rational function of q.

    Series arithmetic (``WardSeries(...)``, ``scale``, ``dilate``, ``/``) is
    strict; constructors, JSON readers and operator coefficients embed a plain
    rational (qfield.embed_rational).  A rational function of q is never
    reduced to a plain rational, so a symbolic q cannot collapse to a number.
    """


class DivisionByZero(PsiCalcError, ZeroDivisionError):
    """Division by the zero scalar."""


class IndexOutOfBound(PsiCalcError, IndexError):
    """An index outside what is there: a negative table index, or one past a list's end."""


class KOutOfRange(PsiCalcError, ValueError):
    """Binomial index k outside 0..n."""


class KernelUndefined(PsiCalcError, ValueError):
    """Kernel F(n, k) requested outside its domain 0 <= k < n."""


class BadSpec(PsiCalcError, ValueError):
    """A sequence spec string failed to parse or failed validation."""


class BoundExceeded(IndexOutOfBound, ValueError):
    """A read past the end of a custom sequence, from any reader.

    ``PsiContext._grow`` raises it, the one place an index is compared with
    ``ctx.bound``: "sequence '<spec>' ends at index B, needs N".  It is an
    IndexOutOfBound and a ValueError, so either catches it.
    """


class ContextMismatch(PsiCalcError, ValueError):
    """Two operands were built over different contexts."""


class BadIndices(PsiCalcError, ValueError):
    """A weighted product was given an index pair with j >= i or j < 0."""


class OrderZero(PsiCalcError, ValueError):
    """Derivative of a series of order 0 (no room to shift down)."""


class NonInvertible(PsiCalcError, ZeroDivisionError):
    """Series division where the divisor's constant term is zero."""


class FlavorMismatch(PsiCalcError, ValueError):
    """A chain flavor that is not the bool ``star``, or an operator combination across flavors."""


class ParseError(PsiCalcError, ValueError):
    """Malformed serialized series, scalar, or operator input."""


# Error messages quote the input they refuse, but never all of it: a
# 5000-deep inline list would otherwise make a 10 KB line.
ECHO_LIMIT = 80
_ECHO = reprlib.Repr()
_ECHO.maxlevel, _ECHO.maxstring, _ECHO.maxother = 3, ECHO_LIMIT, ECHO_LIMIT


def echo(value) -> str:
    """repr(value) for an error message, cut to at most ECHO_LIMIT characters."""
    text = _ECHO.repr(value)
    return text if len(text) <= ECHO_LIMIT else text[: ECHO_LIMIT - 3] + "..."
