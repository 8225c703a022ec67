"""Truncated series with sequence-factorial normalization.

A series here is f = sum_n a_n x^n / s_n! truncated at a fixed order, with
exact scalar coefficients over one context.  The stored numbers are the
a_n; all products below are convolutions in that normalization, so the
generalized binomial C(n, k) shows up in every product term.

Three product families live side by side:

* the ordinary product, c_n = sum_k C(n,k) a_k b_{n-k};
* weighted products, which scale the (n, k) term by kernel values
  F(n+i, k+j) (asterisk flavor) or F(n+i, n-k+j) (star flavor), with a
  whole chain of index pairs multiplying one kernel factor each;
* the diagonal maps, which scale a_n by a single kernel value and appear
  as the one-sided unit actions of the weighted products.

Index pairs (i, j) always satisfy 0 <= j < i, which keeps every kernel
lookup inside its domain.  The empty chain is the ordinary product; every
product runs through one convolution loop fed a table of those weights,
and division through one forward-substitution loop.  Plain rationals go
through the loops as they are.  Over symbolic q the loops run on Python
ints: every polynomial is evaluated at q = 2^bits (Kronecker
substitution), so a result coefficient is one packed big-int sum that is
unpacked once, and bits comes from running the same loop on |.|_1 norms.

Binary operations demand the *same context object* on both sides and
truncate to the smaller order.  The derivative maps a_n to a_{n+1} (one
shift down), dropping the order by one.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Iterable, Sequence

from .coefficients import (
    PolyQ,
    RatFuncQ,
    Scalar,
    _digit_bits,
    _from_integer,
    _integer_forms,
    _norm,
    _norm_rat,
    _pack,
    _unpack,
    scalar_from_json,
    scalar_to_json,
)
from .errors import (
    BadIndices,
    ContextMismatch,
    DivisionByZero,
    IndexOutOfBound,
    NonInvertible,
    OrderZero,
    ParseError,
    PsiCalcError,
    VariantMismatch,
)
from .psi_context import PsiContext, get_context

Pair = tuple[int, int]


def _check_scalar(ctx: PsiContext, s) -> Scalar:
    if ctx.symbolic:
        if not isinstance(s, RatFuncQ):
            raise VariantMismatch(
                f"context {ctx.spec_string()!r} needs rational-function scalars, got {s!r}"
            )
        return s
    if not isinstance(s, numbers.Rational):
        raise VariantMismatch(
            f"context {ctx.spec_string()!r} needs plain rational scalars, got {s!r}"
        )
    return _norm_rat(s)


def check_pair(pair) -> Pair:
    try:
        i, j = pair
    except (TypeError, ValueError) as exc:
        raise BadIndices(f"index pair must be (i, j), got {pair!r}") from exc
    if not (isinstance(i, int) and isinstance(j, int)):
        raise BadIndices(f"index pair must be integers, got {pair!r}")
    if not 0 <= j < i:
        raise BadIndices(f"index pair needs 0 <= j < i, got ({i}, {j})")
    return (i, j)


def _chain_weights(ctx: PsiContext, pairs: Sequence[Pair], star: bool, m: int) -> list:
    """Table W(n, k) = prod F(n+i, base+j) over the pairs, for n <= m.

    ``base`` is k for the asterisk flavor and n-k for the star flavor; the
    empty chain weighs every term by one.
    """
    top = m + max((i for i, _ in pairs), default=0)
    ctx._grow(top)
    q = ctx.q_scalar
    if q is not None and pairs:
        # F(n, k) = q^k, so P pairs weigh the (n, k) term by q^(P*base + sum j);
        # kernel row ``top`` holds q^0, ..., q^(top-1)
        p, shift = len(pairs), sum(j for _, j in pairs)
        powers = list(ctx._kernel[top])
        while len(powers) <= p * m + shift:
            powers.append(powers[-1] * q)
        return [[powers[p * (n - k if star else k) + shift] for k in range(n + 1)]
                for n in range(m + 1)]
    table = []
    for n in range(m + 1):
        row = None
        for i, j in pairs:
            # F(n+i, k+j) for k = 0..n is one slice of a kernel row
            s = ctx._kernel[n + i][j : j + n + 1]
            if star:
                s.reverse()
            row = s if row is None else [x * y for x, y in zip(row, s)]
        table.append(row or [ctx.one] * (n + 1))
    return table


def _sums(binom, a, b, weight: list | None) -> list:
    """sum_k C(n,k) a_k b_{n-k} W(n,k) for each n < len(a), over any ring.

    ``binom`` yields the binomial rows in order.  The weight multiplies
    last, which keeps big factors out of early products, and zero factors
    are skipped.
    """
    out = []
    for n, row in zip(range(len(a)), binom):
        wrow = None if weight is None else weight[n]
        acc = 0
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


def _convolve(f: "WardSeries", g: "WardSeries", weight: list | None) -> "WardSeries":
    """c_n = sum_k C(n,k) a_k b_{n-k} W(n,k), up to the smaller order.

    Every product of the package runs through this function.  ``weight`` is
    None for the ordinary product, else a table with a row per n.  Plain
    rationals are summed as they are.  Over symbolic q the same sums run on
    Python ints: the operands' denominators are cleared once per series
    and a weight row's once per row, every integer polynomial is evaluated
    at q = 2^bits (Kronecker substitution), so each c_n is one packed
    big-int dot product, unpacked and divided once.  The bits come from
    the same sums run on |.|_1 norms, an exact bound on every coefficient.
    """
    ctx = f.ctx
    m = min(len(f._c), len(g._c))
    a, b = f._c[:m], g._c[:m]
    if not ctx.symbolic:
        return WardSeries(ctx, _sums(ctx._binom, a, b, weight))
    da, va = _integer_forms(a)
    db, vb = _integer_forms(b)
    dens = [da * db] * m
    wv = None
    if weight is not None:
        forms = [_integer_forms(row) for row in weight[:m]]
        dens = [d * dw for d, (dw, _) in zip(dens, forms)]
        wv = [row for _, row in forms]

    def inputs(fn):
        # fn of every operand and weight vector, in the shapes _sums takes
        return ([fn(v) for v in va], [fn(v) for v in vb],
                None if wv is None else [[fn(x) for x in row] for row in wv])

    na, nb, nw = inputs(_norm)
    bound = max(na + nb + _sums(ctx._binomials_at(0), na, nb, nw)
                + [x for row in nw or () for x in row])
    bits = _digit_bits(bound)
    sums = _sums(ctx._binomials_at(bits), *inputs(lambda v: _pack(v, bits)))
    return WardSeries(ctx, [_from_integer(_unpack(x, bits), d) for x, d in zip(sums, dens)])


def _substitute(binom, a, b) -> tuple[list, list]:
    """d_n = b0^n a_n - sum_{k<n} C(n,k) d_k b0^(n-k-1) b_{n-k} and b0^n, over any ring.

    d_n = c_n b0^(n+1) for the quotient c = a / b; the divisor is scaled
    once to b0^(j-1) b_j, so a term costs what it would with division.
    """
    b0 = b[0]
    power = [1]
    for _ in range(len(a)):
        power.append(power[-1] * b0)
    scaled = [None] + [b[j] * power[j - 1] for j in range(1, len(a))]
    d: list = []
    for n, row in zip(range(len(a)), binom):
        s = power[n] * a[n]
        for k in range(n):
            dk = d[k]
            if not dk:
                continue
            bk = scaled[n - k]
            if not bk:
                continue
            s = s - row[k] * dk * bk
        d.append(s)
    return d, power


class WardSeries:
    """Truncated series over one context; immutable."""

    __slots__ = ("ctx", "_c")

    def __init__(self, ctx: PsiContext, coeffs: Iterable[Scalar]):
        c = tuple(_check_scalar(ctx, x) for x in coeffs)
        if not c:
            raise BadIndices("a series needs at least the constant coefficient")
        ctx._grow(len(c) - 1)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_c", c)

    def __setattr__(self, name, value):
        raise AttributeError("WardSeries is immutable")

    @property
    def coeffs(self) -> tuple:
        return self._c

    @property
    def order(self) -> int:
        return len(self._c) - 1

    def __eq__(self, other) -> bool:
        if isinstance(other, WardSeries):
            return self.ctx is other.ctx and self._c == other._c
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"WardSeries({self.ctx.spec_string()!r}, {[str(x) for x in self._c]})"

    def __bool__(self) -> bool:
        return any(self._c)

    # -- linear structure ---------------------------------------------------

    def _peer(self, other) -> "WardSeries":
        if not isinstance(other, WardSeries):
            raise ContextMismatch(f"expected a series, got {other!r}")
        if other.ctx is not self.ctx:
            raise ContextMismatch(
                "operands live over different contexts "
                f"({self.ctx.spec_string()!r} vs {other.ctx.spec_string()!r})"
            )
        return other

    def __add__(self, other) -> "WardSeries":
        o = self._peer(other)
        m = min(len(self._c), len(o._c))
        return WardSeries(self.ctx, [self._c[n] + o._c[n] for n in range(m)])

    def __sub__(self, other) -> "WardSeries":
        o = self._peer(other)
        m = min(len(self._c), len(o._c))
        return WardSeries(self.ctx, [self._c[n] - o._c[n] for n in range(m)])

    def __neg__(self) -> "WardSeries":
        return WardSeries(self.ctx, [-x for x in self._c])

    def scale(self, alpha: Scalar) -> "WardSeries":
        alpha = _check_scalar(self.ctx, alpha)
        return WardSeries(self.ctx, [alpha * x for x in self._c])

    def __mul__(self, other):
        if isinstance(other, WardSeries):
            return self.chain(other, ())
        return self.scale(other)

    def __rmul__(self, alpha):
        return self.scale(alpha)

    def __truediv__(self, other):
        if isinstance(other, WardSeries):
            return self.divide(other)
        alpha = _check_scalar(self.ctx, other)
        if not alpha:
            raise DivisionByZero("series divided by the zero scalar")
        inv = self.ctx.one / alpha if self.ctx.symbolic else _norm_rat(Fraction(1) / alpha)
        return self.scale(inv)

    def truncate(self, order: int) -> "WardSeries":
        if order < 0 or order > self.order:
            raise IndexOutOfBound(f"cannot truncate order {self.order} to {order}")
        if order == self.order:
            return self
        return WardSeries(self.ctx, self._c[: order + 1])

    # -- products -------------------------------------------------------------

    def chain(self, other, pairs: Sequence[Pair], star: bool = False) -> "WardSeries":
        """Weighted product with one kernel factor per index pair.

        Empty ``pairs`` is the ordinary product.  Asterisk flavor weights
        the (n, k) term by prod F(n+i, k+j); star flavor by
        prod F(n+i, n-k+j).
        """
        o = self._peer(other)
        chain = tuple(check_pair(p) for p in pairs)
        m = min(len(self._c), len(o._c)) - 1
        return _convolve(self, o, _chain_weights(self.ctx, chain, star, m) if chain else None)

    def fontane(self, other, i: int, j: int) -> "WardSeries":
        return self.chain(other, ((i, j),))

    def star(self, other, i: int, j: int) -> "WardSeries":
        return self.chain(other, ((i, j),), star=True)

    # -- diagonal maps ----------------------------------------------------------

    def diag_m(self, i: int, j: int) -> "WardSeries":
        """Scale a_n by F(n+i, n+j); the right-unit action of the weighted product."""
        i, j = check_pair((i, j))
        ctx = self.ctx
        ctx._grow(self.order + i)
        kern = ctx._kernel
        return WardSeries(
            ctx, [x * kern[n + i][n + j] for n, x in enumerate(self._c)]
        )

    def diag_l(self, i: int, j: int) -> "WardSeries":
        """Scale a_n by F(n+i, j); the left-unit action.  j = 0 is the identity."""
        i, j = check_pair((i, j))
        ctx = self.ctx
        ctx._grow(self.order + i)
        kern = ctx._kernel
        return WardSeries(ctx, [x * kern[n + i][j] for n, x in enumerate(self._c)])

    # -- derivative and division ---------------------------------------------------

    def derivative(self, times: int = 1) -> "WardSeries":
        if times < 0:
            raise BadIndices("derivative count must be nonnegative")
        f = self
        for _ in range(times):
            if f.order == 0:
                raise OrderZero("derivative of an order-0 series")
            f = WardSeries(f.ctx, f._c[1:])
        return f

    def divide(self, other) -> "WardSeries":
        """Fraction-free forward substitution against the product convolution.

        With b0 the divisor's constant term, d_n = c_n * b0^(n+1) obeys a
        recurrence without division (``_substitute``); each quotient
        coefficient divides once at the end.  Over symbolic q, with
        a = A / Da and b = B / Db over integer polynomials, the recurrence
        runs on A and B evaluated at q = 2^bits, and c_n is
        d_n * Db / (B0^(n+1) * Da).  The bits come from the recurrence run
        on |.|_1 norms with the divisor's higher terms negated, which turns
        every subtraction into an addition of bounds.
        """
        o = self._peer(other)
        if not o._c[0]:
            raise NonInvertible("divisor has zero constant term")
        ctx = self.ctx
        m = min(len(self._c), len(o._c))
        a, b = self._c[:m], o._c[:m]
        if not ctx.symbolic:
            d, power = _substitute(ctx._binom, a, b)
            return WardSeries(ctx, [_norm_rat(Fraction(x) / p) for x, p in zip(d, power[1:])])
        da, va = _integer_forms(a)
        db, vb = _integer_forms(b)
        na, nb = [_norm(v) for v in va], [_norm(v) for v in vb]
        dn, pn = _substitute(ctx._binomials_at(0), na, nb[:1] + [-x for x in nb[1:]])
        bits = _digit_bits(max(na + nb + dn + pn))
        d, power = _substitute(ctx._binomials_at(bits), [_pack(v, bits) for v in va],
                               [_pack(v, bits) for v in vb])
        return WardSeries(ctx, [
            RatFuncQ(PolyQ._raw(_unpack(x, bits)) * db, PolyQ._raw(_unpack(p, bits)) * da)
            for x, p in zip(d, power[1:])
        ])

    # -- substitutions ----------------------------------------------------------------

    def dilate(self, factor: Scalar) -> "WardSeries":
        """Coefficientwise x -> factor * x, i.e. a_n -> factor^n a_n."""
        factor = _check_scalar(self.ctx, factor)
        out = []
        power = self.ctx.one
        for x in self._c:
            out.append(x * power)
            power = power * factor
        return WardSeries(self.ctx, out)

    def q_dilate(self, times: int = 1) -> "WardSeries":
        """x -> q^times x, for q-analog contexts only."""
        q = self.ctx.q_scalar
        if q is None:
            raise PsiCalcError(
                f"q dilation needs a q-analog context, not {self.ctx.spec_string()!r}"
            )
        factor = q**times if self.ctx.symbolic else _norm_rat(Fraction(q) ** times)
        return self.dilate(factor)

    # -- serialization -----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "psi": self.ctx.spec_string(),
            "order": self.order,
            "coeffs": [scalar_to_json(x) for x in self._c],
        }

    @classmethod
    def from_json_dict(cls, data, ctx: PsiContext | None = None) -> "WardSeries":
        spec, order, coeffs = series_header(data)
        if ctx is None:
            ctx = get_context(spec)
            if ctx.bound is not None and ctx.bound < order:
                raise ParseError(
                    f"sequence {spec!r} is too short for a series of order {order}"
                )
        elif get_context(spec).spec_string() != ctx.spec_string():
            raise ContextMismatch(
                f"series carries spec {spec!r} but context is {ctx.spec_string()!r}"
            )
        return cls(ctx, [scalar_from_json(x, ctx.symbolic) for x in coeffs])


def series_header(data) -> tuple[str, int, list]:
    """Validated (spec, order, coeffs) of a series JSON object."""
    if not isinstance(data, dict):
        raise ParseError(f"series must be a JSON object, got {data!r}")
    missing = {"psi", "order", "coeffs"} - set(data)
    if missing:
        raise ParseError(f"series object lacks keys {sorted(missing)}")
    spec, order, coeffs = data["psi"], data["order"], data["coeffs"]
    if not isinstance(spec, str):
        raise ParseError(f"'psi' must be a spec string, got {spec!r}")
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ParseError(f"'order' must be a nonnegative integer, got {order!r}")
    if not isinstance(coeffs, list) or len(coeffs) != order + 1:
        raise ParseError("'coeffs' must be a list of length order + 1")
    return spec, order, coeffs


# -- constructors ------------------------------------------------------------


def make_series(ctx: PsiContext, values: Iterable) -> WardSeries:
    """Build a series, lifting plain rationals into the context's variant."""
    coeffs = []
    for v in values:
        if isinstance(v, numbers.Rational):
            coeffs.append(ctx.from_rational(v))
        else:
            coeffs.append(v)
    return WardSeries(ctx, coeffs)


def zeros(ctx: PsiContext, order: int) -> WardSeries:
    return WardSeries(ctx, [ctx.zero] * (order + 1))


def constant(ctx: PsiContext, value, order: int) -> WardSeries:
    if isinstance(value, numbers.Rational):
        value = ctx.from_rational(value)
    out = [ctx.zero] * (order + 1)
    out[0] = value
    return WardSeries(ctx, out)


def monomial(ctx: PsiContext, n: int, order: int) -> WardSeries:
    """The series x^n, i.e. a_n = s_n! and every other coefficient zero."""
    if n < 0 or n > order:
        raise IndexOutOfBound(f"monomial degree {n} outside 0..{order}")
    out = [ctx.zero] * (order + 1)
    out[n] = ctx.psi_factorial(n)
    return WardSeries(ctx, out)


def e_psi(ctx: PsiContext, order: int) -> WardSeries:
    """The exponential: every a_n = 1."""
    return WardSeries(ctx, [ctx.one] * (order + 1))


def sin_psi(ctx: PsiContext, order: int) -> WardSeries:
    """a_{2m+1} = (-1)^m, even coefficients zero."""
    out = []
    for n in range(order + 1):
        if n % 2:
            out.append(ctx.from_int(-1 if (n // 2) % 2 else 1))
        else:
            out.append(ctx.zero)
    return WardSeries(ctx, out)


def cos_psi(ctx: PsiContext, order: int) -> WardSeries:
    """a_{2m} = (-1)^m, odd coefficients zero."""
    out = []
    for n in range(order + 1):
        if n % 2:
            out.append(ctx.zero)
        else:
            out.append(ctx.from_int(-1 if (n // 2) % 2 else 1))
    return WardSeries(ctx, out)


# -- functional aliases --------------------------------------------------------
#
# The method spellings above are what the rest of the package uses; these
# names give the same operations as plain functions.


def mul_ordinary(f: WardSeries, g: WardSeries) -> WardSeries:
    return f.chain(g, ())


def fontane_mul(f: WardSeries, g: WardSeries, i: int, j: int) -> WardSeries:
    return f.fontane(g, i, j)


def star_mul(f: WardSeries, g: WardSeries, i: int, j: int) -> WardSeries:
    return f.star(g, i, j)


def chain_mul(f: WardSeries, g: WardSeries, chain, star: bool = False) -> WardSeries:
    """Apply a chain given as a pair list or as an operator-algebra chain.

    A chain object acts through its own ``apply`` (flavor and coefficient
    included); for a bare pair list the ``star`` flag picks the flavor.
    """
    if hasattr(chain, "apply"):
        return chain.apply(f, g)
    return f.chain(g, tuple(chain), star=star)


def divide(f: WardSeries, g: WardSeries) -> WardSeries:
    return f.divide(g)


def first_difference(f: WardSeries, g: WardSeries) -> int | None:
    """Index of the first differing coefficient, or None when equal.

    Series of different orders that agree on the shared prefix differ at
    the first index past it.
    """
    if f.ctx is not g.ctx:
        raise ContextMismatch("cannot compare series over different contexts")
    m = min(len(f._c), len(g._c))
    for n in range(m):
        if f._c[n] != g._c[n]:
            return n
    if len(f._c) != len(g._c):
        return m
    return None
