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
lookup inside its domain.  The empty chain is the ordinary product.
Every product, every operator sum and the general Leibniz rule runs
through one weighted-sum kernel (``_convolve``), which takes a list of
terms, each an operand offset pair, a star flag that swaps the operands,
a weighting and a scalar, and division through one forward-substitution
loop.  A weighting is product rows, the binomial C(n, k) times the weight
of the (n, k) term, or, over a power kernel F(n, k) = q^k
(``PsiContext.power_kernel``, which ``psi_context._weighting`` reads), a
twist: an ordinary product with powers of q folded into the loop.
Every symbolic context is a power kernel, so over symbolic q every
weighting is a twist.  Both loops run on Python ints for both scalar
variants, fraction-free: denominators are cleared once, the sums are
integer dot products, every term adds into one numerator per result
coefficient, and each result coefficient is divided once, which makes it
canonical: over plain rationals by one gcd (``coefficients._int_ratio``).
A kernel's result is stored as it is born, through ``WardSeries._raw``,
with no pass through the scalar door (``psi_context._admit``) that every
value from outside takes once.  Plain rationals read cleared rows, an
integer vector over one denominator per row, and division reads the
context's integral rows C(n, k) G_n / G_k, with G_n the least integer
that keeps them whole.  Over symbolic q both loops hand over to the context's
``qkernels``, where every polynomial is evaluated at q = 2^bits
(Kronecker substitution), so a result coefficient is one packed big-int
sum and all the sums of one call are unpacked in one read; bits comes
from an exact bound on the |.|_1 norms, a closed form for a product and
the same loop run on norms for a division.

Binary operations demand the *same context object* on both sides and
truncate to the smaller order.  The derivative maps a_n to a_{n+1} (one
shift down), dropping the order by one.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from .coefficients import (
    Scalar,
    _int_ratio,
    _integer_vector,
    scalar_from_json,
    scalar_to_json,
)
from .errors import (
    BadIndices,
    ContextMismatch,
    DivisionByZero,
    Immutable,
    IndexOutOfBound,
    NonInvertible,
    OrderZero,
    ParseError,
    PsiCalcError,
    echo,
)
from .psi_context import PsiContext, _admit, _parts, _power, _q_power, _weighting, get_context

Pair = tuple[int, int]


def check_pair(pair) -> Pair:
    try:
        i, j = pair
    except (TypeError, ValueError) as exc:
        raise BadIndices(f"index pair must be (i, j), got {echo(pair)}") from exc
    # bool is an int subclass, and True would read as the index 1
    if not (type(i) is int and type(j) is int):
        raise BadIndices(f"index pair must be integers, got {echo(pair)}")
    if not 0 <= j < i:
        raise BadIndices(f"index pair needs 0 <= j < i, got ({i}, {j})")
    return (i, j)


def _convolve(f, g, terms: list) -> "WardSeries":
    """c_n = sum over terms (i, j, star, W, c) of c sum_k C(n,k) W(n,k) a_{k+i} b_{n-k+j}.

    The package's one weighted-sum kernel: every product, operator sum and
    Leibniz rule is a list of terms, summed into one integer numerator per
    c_n and divided once.  A weighting W is product rows, one row form per
    n holding C(n,k) W(n,k), or a twist (P, J) for a power kernel
    F(n, k) = q^k, which weighs by q^(P k + J) with no rows of its own.  A
    ``star`` term swaps the two operand slices first, whatever its
    weighting, and so sums C(n,k) W(n,k) b_{k+j} a_{n-k+i}:
    C(n, k) = C(n, n-k) makes that the weight W(n, n-k) on
    a_{k+i} b_{n-k+j}, the star flavor.  c_n runs to the largest n that
    every term reaches, and product rows that end before that row are
    refused (IndexOutOfBound), not read as zero.  The operands'
    denominators are cleared once.  Plain rationals sum on ints: a term's
    row sums, over its product rows as they are or over the binomial rows
    the context keeps cleared for a twist (``PsiContext._binomials``,
    which this read grows through row m - 1), are scaled by c unless c is
    1, the first term's sums are taken as they are, and the terms meet
    over the lcm of their row denominators, which the terms of one Leibniz
    level share; each c_n is then one ``_int_ratio``, canonical as born.
    For q = u/w a twist multiplies the operand slices by u^(P k + J) and
    w^(P k), and w^(P n + J) joins the row denominator.  Over symbolic q,
    a power kernel, every term is a twist, and the context's
    ``qkernels.convolve`` sums the terms on packed big ints.  Row n of a
    term is one dot product in C,
    sum_k v[k] (a_k b_{n-k}) with b_n down to b_0 a reversed slice, so a
    big binomial takes one multiplication per term.
    """
    ctx = f.ctx
    i, j = map(max, zip((0, 0), *terms))
    m = min(len(f._c) - i, len(g._c) - j)
    if ctx.symbolic:
        return WardSeries._raw(ctx, ctx._qkernels.convolve(ctx, f._c[: m + i], g._c[: m + j],
                                                           terms, m))
    (da, va), (db, vb) = _integer_vector(f._c[: m + i]), _integer_vector(g._c[: m + j])
    # lists: b_n down to b_0 is a reversed slice, and CPython 3.11 files
    # freed 20-tuples in a free list it never draws from
    va, vb = list(va), list(vb)
    dc, vc = _integer_vector([c for *_, c in terms])
    den, (u, w), binom = da * db * dc, _parts(ctx), ctx._binomials(m - 1)
    nums, dens = [0] * m, [1] * m
    for t, ((i, j, star, wt, _), c) in enumerate(zip(terms, vc)):
        a, b, rows = va[i : i + m], vb[j : j + m], binom
        if star:
            a, b = b, a
        if type(wt) is not tuple:
            rows = wt
        elif (wt[0] or wt[1]) and u * w != 1:
            p, s = wt
            a = [x * u ** (p * k + s) for k, x in enumerate(a)]
            b = [x * w ** (p * k) for k, x in enumerate(b)]
            rows = ((d * w ** (p * n + s), v) for n, (d, v) in enumerate(rows))
        # the terms meet over the lcm of their row denominators
        r = -1
        for r, (d, v) in zip(range(m), rows):
            x = sum(map(mul, v, map(mul, a, b[r::-1])))
            if c != 1:
                x *= c
            if not t:
                nums[r], dens[r] = x, d
            elif d == (e := dens[r]):
                nums[r] += x
            elif not nums[r]:
                nums[r], dens[r] = x, d
            else:
                dens[r] = l = lcm(d, e)
                nums[r] = nums[r] * (l // e) + x * (l // d)
        if r < m - 1:
            raise IndexOutOfBound(f"weight rows end at row {r}, the product needs row {m - 1}")
    if den != 1:
        dens = [d * den for d in dens]
    return WardSeries._raw(ctx, list(map(_int_ratio, nums, dens)))


def _substitute(table, a, b) -> tuple[list, list]:
    """e_n = G_n d_n and b0^n, with d_n = c_n b0^(n+1) for the quotient c = a / b.

    d_n = b0^n a_n - sum_{k<n} C(n,k) d_k b0^(n-k-1) b_{n-k}, over any ring.
    ``table`` yields the division rows (G_n, T_n) with T_n[k] = C(n,k) G_n / G_k
    (``PsiContext._scales``; over symbolic q the packed q-binomial row forms
    (1, v), for which every G_n is 1), so
    e_n = G_n b0^n a_n - sum_{k<n} T_n[k] e_k b0^(n-k-1) b_{n-k}
    is one dot product per row, with no rescaling and no division.  The
    divisor is scaled once to b0^(j-1) b_j.
    """
    m, b0 = len(a), b[0]
    power = list(accumulate(repeat(b0, m), mul, initial=1))
    # b0^(j-1) b_j from j = m-1 down to 1: row n reads its last n entries
    scaled = [b[j] * power[j - 1] for j in range(m - 1, 0, -1)]
    e: list = []
    for n, (g, row) in zip(range(m), table):
        e.append(g * power[n] * a[n] - sum(map(mul, row, map(mul, e, scaled[m - 1 - n :]))))
    return e, power


class WardSeries(Immutable):
    """Truncated series over one context; immutable."""

    __slots__ = ("ctx", "_c")

    def __init__(self, ctx: PsiContext, coeffs: Iterable[Scalar]):
        """The series of ``coeffs`` over ctx, each through the strict scalar door.

        ``psi_context._admit`` takes canonical scalars of ctx's variant and
        refuses a plain rational over symbolic q (``make_series`` embeds it
        instead); a value already inside a series is stored through ``_raw``.
        """
        # callers pass lists: a tuple grown from a generator is resized, and
        # CPython files the freed tuples in its per-size free lists until a full gc
        self._store(ctx, _admit(ctx, coeffs))

    def _store(self, ctx: PsiContext, c: tuple) -> "WardSeries":
        # admitted scalars: a series needs one, and its order grows the sequence
        if not c:
            raise BadIndices("a series needs at least the constant coefficient")
        ctx._grow(len(c) - 1)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_c", c)
        return self

    @classmethod
    def _raw(cls, ctx: PsiContext, coeffs: list) -> "WardSeries":
        """Trusted constructor for values already inside: canonical scalars of ctx's variant.

        A kernel's result is born canonical, and ``derivative``, ``truncate``
        and ``-`` re-cut or negate stored scalars; none is longer than a
        series whose construction grew the context, so the tuple is stored
        with no pass through the door and no ``_grow``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_c", tuple(coeffs))
        return self

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
            raise ContextMismatch(f"expected a series, got {echo(other)}")
        if other.ctx is not self.ctx:
            raise ContextMismatch(
                "operands live over different contexts "
                f"({echo(self.ctx.spec_string())} vs {echo(other.ctx.spec_string())})"
            )
        return other

    def __add__(self, other) -> "WardSeries":
        return WardSeries(self.ctx, list(map(add, self._c, self._peer(other)._c)))

    def __sub__(self, other) -> "WardSeries":
        return WardSeries(self.ctx, list(map(sub, self._c, self._peer(other)._c)))

    def __neg__(self) -> "WardSeries":
        return WardSeries._raw(self.ctx, [-x for x in self._c])

    def scale(self, alpha: Scalar) -> "WardSeries":
        (alpha,) = _admit(self.ctx, (alpha,))
        return WardSeries(self.ctx, [alpha * x for x in self._c])

    def __mul__(self, other):
        if isinstance(other, WardSeries):
            return self.chain(other, ())
        return self.scale(other)

    __rmul__ = scale

    def __truediv__(self, other):
        if isinstance(other, WardSeries):
            return self.divide(other)
        (alpha,) = _admit(self.ctx, (other,))
        if not alpha:
            raise DivisionByZero("series divided by the zero scalar")
        inverse = _power(self.ctx, alpha, -1)
        return WardSeries(self.ctx, [inverse * x for x in self._c])

    def truncate(self, order: int) -> "WardSeries":
        if order < 0 or order > self.order:
            raise IndexOutOfBound(f"cannot truncate order {self.order} to {order}")
        return self if order == self.order else WardSeries._raw(self.ctx, self._c[: order + 1])

    # -- products -------------------------------------------------------------

    def chain(self, other, pairs: Sequence[Pair], star: bool = False) -> "WardSeries":
        """Weighted product with one kernel factor per index pair.

        Empty ``pairs`` is the ordinary product.  Asterisk flavor weights
        the (n, k) term by prod F(n+i, k+j); star flavor by
        prod F(n+i, n-k+j).
        """
        o = self._peer(other)
        chain = tuple([check_pair(p) for p in pairs])
        m = min(len(self._c), len(o._c)) - 1
        return _convolve(self, o, [(0, 0, star, _weighting(self.ctx, chain, m), self.ctx.one)])

    def fontane(self, other, i: int, j: int) -> "WardSeries":
        return self.chain(other, ((i, j),))

    def star(self, other, i: int, j: int) -> "WardSeries":
        return self.chain(other, ((i, j),), star=True)

    # -- diagonal maps ----------------------------------------------------------

    def diag_m(self, i: int, j: int) -> "WardSeries":
        """Scale a_n by F(n+i, n+j); the right-unit action of the weighted product."""
        return self._diag(i, j, 1)

    def diag_l(self, i: int, j: int) -> "WardSeries":
        """Scale a_n by F(n+i, j); the left-unit action.  j = 0 is the identity."""
        return self._diag(i, j, 0)

    def _diag(self, i: int, j: int, step: int) -> "WardSeries":
        # a_n times F(n+i, step n + j), each entry read alone; reaching through
        # order + i first refuses a custom list's end as BoundExceeded
        i, j = check_pair((i, j))
        ctx = self.ctx
        ctx._reach(self.order + i)
        return WardSeries(ctx, [x * ctx.fontane_kernel(n + i, step * n + j)
                                for n, x in enumerate(self._c)])

    # -- derivative and division ---------------------------------------------------

    def derivative(self, times: int = 1) -> "WardSeries":
        if times < 0:
            raise BadIndices("derivative count must be nonnegative")
        if times > self.order:
            raise OrderZero("derivative of an order-0 series")
        return WardSeries._raw(self.ctx, self._c[times:]) if times else self

    def divide(self, other) -> "WardSeries":
        """Fraction-free forward substitution against the product convolution.

        With b0 the divisor's constant term, d_n = c_n * b0^(n+1) obeys a
        recurrence that never divides by b0 (``_substitute``), run on
        integer A and B once a = A / D and b = B / D are cleared over one
        denominator D, which cancels: c_n is d_n / B0^(n+1), one division per
        coefficient.  Plain rationals run it on e_n = G_n d_n, G_n the least
        integer that makes every T_n[k] = C(n, k) G_n / G_k integral (G_n =
        v^(n(n-1)/2) for q = u/v), so each step is one integer dot product
        with the context's row T_n (``PsiContext._scales``), with no
        rescaling and no division.  Over symbolic q the recurrence runs in
        the context's ``qkernels.divide``, on A and B evaluated at
        q = 2^bits.
        """
        o = self._peer(other)
        if not o._c[0]:
            raise NonInvertible("divisor has zero constant term")
        ctx = self.ctx
        m = min(len(self._c), len(o._c))
        if ctx.symbolic:
            return WardSeries._raw(ctx, ctx._qkernels.divide(ctx, self._c[:m], o._c[:m]))
        ab = _integer_vector(self._c[:m] + o._c[:m])[1]
        va, vb = ab[:m], ab[m:]
        table = ctx._scales(m)
        e, power = _substitute(table, va, vb)
        return WardSeries._raw(ctx, [_int_ratio(x, g * p)
                                     for x, (g, _), p in zip(e, table, power[1:])])

    # -- substitutions ----------------------------------------------------------------

    def dilate(self, factor: Scalar) -> "WardSeries":
        """Coefficientwise x -> factor * x, i.e. a_n -> factor^n a_n."""
        powers = accumulate(repeat(_admit(self.ctx, (factor,))[0], self.order), mul,
                            initial=self.ctx.one)
        return WardSeries(self.ctx, list(map(mul, self._c, powers)))

    def q_dilate(self, times: int = 1) -> "WardSeries":
        """x -> q^times x, for q-analog contexts only."""
        q = self.ctx.q_scalar
        if q is None:
            raise PsiCalcError(
                f"q dilation needs a q-analog context, not {echo(self.ctx.spec_string())}"
            )
        return self.dilate(_q_power(self.ctx, times))

    # -- serialization -----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "psi": self.ctx.spec_string(),
            "order": self.order,
            "coeffs": [scalar_to_json(x) for x in self._c],
        }

    @classmethod
    def from_json_dict(cls, data, ctx: PsiContext | None = None) -> "WardSeries":
        """The series of a ``to_json_dict`` object, over ``ctx`` or the shared context of its spec.

        Building it grows the sequence through its order, so an order that a
        custom list cannot serve is refused there (BoundExceeded).
        """
        spec, _, coeffs = series_header(data)
        if ctx is None:
            ctx = get_context(spec)
        elif get_context(spec).spec_string() != ctx.spec_string():
            raise ContextMismatch(
                f"series carries spec {echo(spec)} but context is {echo(ctx.spec_string())}"
            )
        return cls(ctx, [scalar_from_json(x, ctx.symbolic) for x in coeffs])


def series_header(data) -> tuple[str, int, list]:
    """Validated (spec, order, coeffs) of a series JSON object."""
    if not isinstance(data, dict):
        raise ParseError(f"series must be a JSON object, got {echo(data)}")
    missing = {"psi", "order", "coeffs"} - set(data)
    if missing:
        raise ParseError(f"series object lacks keys {sorted(missing)}")
    spec, order, coeffs = data["psi"], data["order"], data["coeffs"]
    if not isinstance(spec, str):
        raise ParseError(f"'psi' must be a spec string, got {echo(spec)}")
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ParseError(f"'order' must be a nonnegative integer, got {echo(order)}")
    if not isinstance(coeffs, list) or len(coeffs) != order + 1:
        raise ParseError("'coeffs' must be a list of length order + 1")
    return spec, order, coeffs


# -- constructors ------------------------------------------------------------


def make_series(ctx: PsiContext, values: Iterable) -> WardSeries:
    """Build a series, lifting plain rationals into the context's variant, in one pass."""
    return object.__new__(WardSeries)._store(ctx, _admit(ctx, values, lift=True))


def zeros(ctx: PsiContext, order: int) -> WardSeries:
    return WardSeries(ctx, [ctx.zero] * (order + 1))


def constant(ctx: PsiContext, value, order: int) -> WardSeries:
    return make_series(ctx, [value] + [ctx.zero] * order)


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
    return make_series(ctx, [(-1 if n // 2 % 2 else 1) if n % 2 else 0 for n in range(order + 1)])


def cos_psi(ctx: PsiContext, order: int) -> WardSeries:
    """a_{2m} = (-1)^m, odd coefficients zero."""
    return make_series(ctx, [0 if n % 2 else -1 if n // 2 % 2 else 1 for n in range(order + 1)])


def first_difference(f: WardSeries, g: WardSeries) -> int | None:
    """Index of the first differing coefficient, or None when equal.

    Series of different orders that agree on the shared prefix differ at
    the first index past it.  g must be a series over f's context
    (ContextMismatch otherwise).
    """
    f._peer(g)
    m = min(len(f._c), len(g._c))
    return next((n for n in range(m) if f._c[n] != g._c[n]),
                None if len(f._c) == len(g._c) else m)
