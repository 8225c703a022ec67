import fractions
import numbers
import sys
from math import gcd, lcm
from operator import add

import pytest

from psicalc.coefficients import _coprime_fraction
from psicalc.psi_context import get_context

_COPRIME_FRACTION = _coprime_fraction.__code__


def pytest_terminal_summary(terminalreporter):
    mod = next(
        (m for name, m in sys.modules.items()
         if name.rpartition(".")[2] == "test_acceptance" and m is not None),
        None,
    )
    lines = getattr(mod, "RESULT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def nat():
    return get_context("natural", 24)


@pytest.fixture(scope="session")
def qsym():
    return get_context("q", 16)


@pytest.fixture(scope="session")
def qnum():
    return get_context("q=3/2", 16)


@pytest.fixture(scope="session")
def fib():
    return get_context("fib", 16)


def _fractions_made_under(codes, run) -> list:
    """The functions among ``codes`` under which ``run()`` made a Fraction, one name per Fraction.

    A profile hook sees every construction, including the ones Fraction
    arithmetic makes through ``_from_coprime_ints`` on Python 3.12+ and the
    ones ``coefficients._coprime_fraction`` makes by setting the slots.
    """
    made = []

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code is _COPRIME_FRACTION or code.co_filename == fractions.__file__
                                and code.co_name in ("__new__", "_from_coprime_ints")):
            caller = frame.f_back
            while caller is not None and caller.f_code not in codes:
                caller = caller.f_back
            if caller is not None:
                made.append(caller.f_code.co_name)

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(old)
    return made


@pytest.fixture(scope="session")
def fractions_made_under():
    return _fractions_made_under


def scalar_eval(s, point):
    """A scalar at q = point; plain rationals pass through."""
    return s if isinstance(s, numbers.Rational) else s.eval_at(point)


# -- reference sums ----------------------------------------------------------------
#
# The arithmetic the kernels ran before they summed on cleared integers: every
# term one scalar product, every sum one scalar addition, the tables read
# through the public accessors.  Imported by the test modules that compare a
# kernel against it.


def fraction_sums(ctx, a, b, weight=None) -> list:
    """sum_k C(n,k) a_k b_{n-k} W(n,k), one scalar term at a time.

    Each sum starts from ``ctx.zero``, so it serves both variants: Fractions
    over plain rationals, rational functions over symbolic q.
    """
    out = []
    for n in range(min(len(a), len(b))):
        row = [ctx.psi_binomial(n, k) for k in range(n + 1)]
        wrow = None if weight is None else weight[n]
        acc = ctx.zero
        for k in range(n + 1):
            x = a[k]
            if not x:
                continue
            y = b[n - k]
            if not y:
                continue
            if wrow is None:
                acc = acc + row[k] * x * y
            elif wrow[k]:
                acc = acc + row[k] * x * y * wrow[k]
        out.append(acc)
    return out


# -- row forms (d, v), row[k] == v[k] / d ------------------------------------------


def canonical_form(d: int, v: list) -> tuple:
    """The canonical form of the row v / d: gcd(d, *v) == 1."""
    g = gcd(d, *v)
    return (d, v) if g == 1 else (d // g, [x // g for x in v])


def form_add(f: tuple, g: tuple) -> tuple:
    """The entrywise sum of two row forms, as long as the shorter."""
    (d, v), (e, w) = f, g
    if d == e:
        return d, list(map(add, v, w))
    m = lcm(d, e)
    s, t = m // d, m // e
    return m, [x * s + y * t for x, y in zip(v, w)]
