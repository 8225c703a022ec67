"""Formal algebra of weighted-product operators.

A ``ProductChain`` is one formal word: a scalar coefficient, a flavor bit
``star`` (False for the asterisk flavor), and a tuple of index pairs, each
pair contributing one kernel factor when the chain acts on a pair of
series.  The empty chain is the ordinary product and is flavor-neutral.
An ``OperatorSum`` is a formal sum of chains and is kept canonical: pairs
inside a chain are sorted (kernel factors commute, so sorting never
changes the action; a regression test pins that down), equal chains are
merged by adding coefficients, zero terms are dropped, and terms are
ordered by flavor, asterisk first, then pair list.

Two shift maps act on asterisk sums and generate the whole family:

* ``rho``   sends every pair (i, j) to (i+1, j+1) and fixes the empty chain;
* ``sigma`` sends every pair (i, j) to (i+1, j) and appends (1, 0), so the
  empty chain becomes the single pair (1, 0).

The binomial operators follow the Pascal-style recurrence

    <n 0> = empty chain,   <n n> = (1,0)(2,0)...(n,0),
    <n k> = rho(<n-1 k>) boxplus sigma(<n-1 k-1>)   for 0 < k < n,

and are memoized per (n, k).

A sum A acts on a series pair through one call of the series module's
weighted-sum kernel, with one term (i, j, star, W, c) per chain, weighed
as ``psi_context._weighting`` decides; a star chain is weighed as its
asterisk twin and its term swaps the operands, and the kernel adds the
terms into one numerator per result coefficient.  The weight table of A
is W_A(n, k) = sum of coefficient * prod F(n+i, k+j) over its chains (star
chains mirrored to W(n, n-k)), and a kernel reads it as product rows
C(n, k) W_A(n, k).  The shift maps act on weights as well,
W_rho(A)(n, k) = W_A(n+1, k+1) and W_sigma(A)(n, k) = F(n+1, k) W_A(n+1, k),
and so on product rows, where C(n, k) F(n+1, k) / C(n+1, k) and
C(n, k) / C(n+1, k+1) are ratios of sequence values; that builds the
tables of a whole triangle row from the sequence alone, without expanding
<n k> into its C(n, k) chains or reading a kernel row.  A context keeps
the tables of the triangle once built and grows them on demand
(``binomial_weights``); over a power kernel W_<n k>(r, c) = C(n, k) q^(k c),
a twist with no table to read.  ``binomial_terms`` makes that choice and
gives the kernel terms of the higher product rule, which
``calculus.general_leibniz`` sums.  Syntactic
equality is equality of canonical forms; ``extensional_eq`` compares the
weight tables as values, each entry a canonical scalar summed from kernel
values (``fontane_kernel``), which is equality of actions because
A(x^u, x^v) = s_{u+v}! W_A(u+v, u) x^(u+v) and s_n! != 0.
"""

from __future__ import annotations

import numbers
from functools import cache
from itertools import chain
from math import gcd, prod
from operator import add, mul
from typing import Iterable, Sequence

from .coefficients import Scalar, _norm_rat, _rational
from .errors import FlavorMismatch, Immutable, KOutOfRange, VariantMismatch, echo
from .psi_context import PsiContext, _admit, _weighting
from .series import Pair, WardSeries, _convolve, check_pair


def _meet(a: Scalar, b: Scalar) -> tuple:
    """a and b in one variant: a plain rational that meets a rational function of q is embedded."""
    if type(a) is type(b) or isinstance(a, numbers.Rational) is isinstance(b, numbers.Rational):
        return a, b
    # one side is a rational function of q, so qfield is loaded already, or
    # no scalar at all, which embed_rational refuses
    from .qfield import embed_rational

    return embed_rational(a), embed_rational(b)


def _check_coefficient(c) -> Scalar:
    """c as a chain coefficient: a rational (an int when whole) or a rational function of q."""
    if isinstance(c, numbers.Rational):
        return _rational(c)
    # loaded only here, so that chains over plain rationals never compile the q-field
    from .qfield import RatFuncQ

    if not isinstance(c, RatFuncQ):
        raise VariantMismatch(
            f"a chain coefficient must be a rational or a rational function of q, got {echo(c)}")
    return c


class Frozen(Immutable):
    """An immutable value with slots, compared, hashed and shown by the fields in ``__slots__``."""

    __slots__ = ()

    def _init(self, *values) -> None:
        # the constructors' one way to set the fields, in ``__slots__`` order
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ProductChain(Frozen):
    """One weighted-product word; pairs kept in construction order."""

    __slots__ = ("coefficient", "star", "pairs")

    def __init__(self, coefficient: Scalar = 1, star: bool = False,
                 pairs: tuple[Pair, ...] = ()):
        pairs = tuple([check_pair(p) for p in pairs])
        if type(star) is not bool:
            raise FlavorMismatch(f"bad flavor {star!r}: star must be a bool")
        self._init(_check_coefficient(coefficient), star, pairs)

    def negated(self) -> "ProductChain":
        return ProductChain(-self.coefficient, self.star, self.pairs)

    def scaled(self, alpha: Scalar) -> "ProductChain":
        alpha, c = _meet(alpha, self.coefficient)
        return ProductChain(alpha * c, self.star, self.pairs)

    def apply(self, f: WardSeries, g: WardSeries) -> WardSeries:
        return OperatorSum((self,)).apply(f, g)

    def render(self) -> str:
        if not self.pairs:
            body = "*inf"
        else:
            mark = "#" if self.star else "*"
            body = "".join(f"{mark}({i},{j})" for i, j in self.pairs)
        if self.coefficient == 1:
            return body
        return f"{self.coefficient}·{body}"

    def __str__(self) -> str:
        return self.render()


def _canonical_terms(terms: Iterable[ProductChain]) -> tuple[ProductChain, ...]:
    merged: dict = {}
    for t in terms:
        key = (t.star and bool(t.pairs), tuple(sorted(t.pairs)))
        if key in merged:
            a, b = _meet(merged[key], t.coefficient)
            merged[key] = a + b
        else:
            merged[key] = t.coefficient
    # ordered by flavor, asterisk (False) first, then pair list: the keys, which are distinct
    return tuple([ProductChain(c, star, pairs)
                  for (star, pairs), c in sorted(merged.items()) if c])


class OperatorSum(Frozen):
    """Canonical formal sum of product chains."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[ProductChain, ...] = ()):
        self._init(_canonical_terms(terms))

    @classmethod
    def single(cls, pairs: Sequence[Pair] = (), star: bool = False,
               coefficient: Scalar = 1) -> "OperatorSum":
        return cls((ProductChain(coefficient, star, tuple(pairs)),))

    def __add__(self, other) -> "OperatorSum":
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return OperatorSum(self.terms + other.terms)

    def __sub__(self, other) -> "OperatorSum":
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "OperatorSum":
        return OperatorSum(tuple([t.negated() for t in self.terms]))

    def scale(self, alpha: Scalar) -> "OperatorSum":
        return OperatorSum(tuple([t.scaled(alpha) for t in self.terms]))

    def __mul__(self, other) -> "OperatorSum":
        """Concatenation, distributed over both sums."""
        if not isinstance(other, OperatorSum):
            return NotImplemented
        out = []
        for a in self.terms:
            for b in other.terms:
                if a.pairs and b.pairs and a.star != b.star:
                    raise FlavorMismatch(
                        f"cannot concatenate {a.render()} with {b.render()}"
                    )
                x, y = _meet(a.coefficient, b.coefficient)
                out.append(ProductChain(x * y, a.star if a.pairs else b.star, a.pairs + b.pairs))
        return OperatorSum(tuple(out))

    def _weight_rows(self, ctx: PsiContext, m: int) -> list:
        """The weight table W(n, k) of this sum for n <= m, one list of canonical scalars per n.

        W(n, k) is the sum over the chains of coefficient * prod F(n+i, base+j),
        ``base`` k, or n-k for a star chain, each F read through
        ``fontane_kernel``.  The reach of the longest pair is refused first, as
        ``_weighting`` refuses it (``PsiContext._reach``).
        """
        terms = list(zip(_admit(ctx, [t.coefficient for t in self.terms], lift=True), self.terms))
        ctx._reach(m + max([i for t in self.terms for i, _ in t.pairs], default=0))
        F = ctx.fontane_kernel

        def entry(n: int, k: int) -> Scalar:
            return _norm_rat(sum([prod([F(n + i, (n - k if t.star else k) + j) for i, j in t.pairs],
                                       start=c) for c, t in terms], ctx.zero))

        return [[entry(n, k) for k in range(n + 1)] for n in range(m + 1)]

    def kernel_terms(self, ctx: PsiContext, m: int, i: int = 0, j: int = 0) -> list:
        """The sum as ``series._convolve`` terms (i, j, star, W, c) for rows n <= m, one per chain.

        Each term reads the operands at offsets (i, j), swapped for a star
        chain, and is weighed as ``_weighting`` decides, its coefficient c
        in the context's variant.
        """
        coefficients = _admit(ctx, [t.coefficient for t in self.terms], lift=True)
        return [(i, j, t.star, _weighting(ctx, t.pairs, m), c)
                for t, c in zip(self.terms, coefficients)]

    def apply(self, f: WardSeries, g: WardSeries) -> WardSeries:
        """One kernel call with one term per chain."""
        o = f._peer(g)
        return _convolve(f, o, self.kernel_terms(f.ctx, min(f.order, o.order)))

    def render(self) -> str:
        if not self.terms:
            return "*0"
        return " [+] ".join(t.render() for t in self.terms)

    def __str__(self) -> str:
        return self.render()


ZERO_OPERATOR = OperatorSum(())
ORDINARY = OperatorSum.single()


def _shift_chain(t: ProductChain, di: int, dj: int, append: bool) -> ProductChain:
    if t.pairs and t.star:
        raise FlavorMismatch("shift maps are defined on asterisk chains only")
    pairs = tuple([(i + di, j + dj) for i, j in t.pairs])
    if append:
        pairs = pairs + ((1, 0),)
    return ProductChain(t.coefficient, False, pairs)


def rho(a: OperatorSum) -> OperatorSum:
    """(i, j) -> (i+1, j+1) on every pair; fixes the empty chain."""
    return OperatorSum(tuple([_shift_chain(t, 1, 1, append=False) for t in a.terms]))


def sigma(a: OperatorSum) -> OperatorSum:
    """(i, j) -> (i+1, j) on every pair, then append (1, 0)."""
    return OperatorSum(tuple([_shift_chain(t, 1, 0, append=True) for t in a.terms]))


@cache
def binomial_operator(n: int, k: int) -> OperatorSum:
    """The operator <n k> from the Pascal-style recurrence; memoized."""
    if n < 0 or not 0 <= k <= n:
        raise KOutOfRange(f"<{n} {k}> needs 0 <= k <= n")
    if k == 0:
        return ORDINARY
    if k == n:
        return OperatorSum.single(tuple([(i, 0) for i in range(1, n + 1)]))
    return rho(binomial_operator(n - 1, k)) + sigma(binomial_operator(n - 1, k - 1))


def binomial_weights(ctx: PsiContext, n: int, m: int) -> list:
    """Product tables of <n 0>, ..., <n n> through row m, from the context's triangle.

    Table k holds the rows P<n k>(r, c) = C(r, c) W<n k>(r, c), the weight
    of <n k> times the binomial, which a kernel reads as they are.  The
    context keeps the tables of <j k> for j <= J (``PsiContext._weights``),
    level 0 the binomial rows.  A request appends levels up to J >= n and
    grows only levels 0..n, level j to rows 0..m+n-j, each as far as the
    level after it reads.  Row r of level j comes from row r + 1 of level
    j - 1 by the shift maps, which read the integers S of the sequence
    alone:

        P<j k>(r, c) = [S_{c+1} P<j-1 k>(r+1, c+1)
                        + (S_{r+1} - S_c) P<j-1 k-1>(r+1, c)] / S_{r+1}.

    So row r of every table of a level has one denominator, the level
    before's times S_{r+1}, reduced by one gcd over the row of all k.
    Nothing is rebuilt.  The stored tables are returned, so they may hold
    rows past m, and they must not be changed.  A power kernel, every
    symbolic context among them, has no such table, as ``binomial_terms``
    weighs it by twists: VariantMismatch.
    """
    if ctx.power_kernel:
        raise VariantMismatch("binomial_weights needs a kernel that is not a power of q, "
                              f"not {echo(ctx.spec_string())}")
    tri, ints = ctx._weights, ctx._ints
    for j in range(n + 1):
        if j == len(tri):
            tri.append([[] for _ in range(j + 1)])
        level, prev, top = tri[j], tri[j - 1], m + n - j + 1
        if not j:
            level[0] += ctx._binomials(top - 1)[len(level[0]) : top]
            continue
        for r in range(len(level[0]), top):
            s = ints[r + 1]
            d = prev[0][r + 1][0] * s
            up = ints[1 : r + 2]
            down = [s - x for x in ints[: r + 1]]
            rows = [t[r + 1][1] for t in prev]
            # rho(<j-1 k>) reads entry c+1 of its row, sigma(<j-1 k-1>) entry c
            vs = ([list(map(mul, up, rows[0][1:]))]
                  + [list(map(add, map(mul, up, a[1:]), map(mul, down, b)))
                     for a, b in zip(rows[1:], rows)]
                  + [list(map(mul, down, rows[-1]))])
            g = gcd(d, *chain.from_iterable(vs))
            if d < 0:
                g = -g
            if g != 1:
                d, vs = d // g, [[x // g for x in v] for v in vs]
            for table, v in zip(level, vs):
                table.append((d, v))
    return tri[n]


def binomial_terms(ctx: PsiContext, n: int, m: int) -> list:
    """sum_k <n k>(D^(n-k) f, D^k g) as n + 1 ``series._convolve`` terms through row m.

    Term k reads the operands at offsets (n-k, k).  Over a power kernel
    <n k> weighs by C(n, k) q^(k c), so the term is the twist (k, 0) times
    C(n, k) and no table is built; otherwise every term, <n 0> included,
    is the stored product table of <n k> (``binomial_weights``), whose
    rows share one denominator per row over all k.
    """
    if ctx.power_kernel:
        return [(n - k, k, False, (k, 0), ctx.psi_binomial(n, k)) for k in range(n + 1)]
    return [(n - k, k, False, table, ctx.one)
            for k, table in enumerate(binomial_weights(ctx, n, m))]


def extensional_eq(a: OperatorSum, b: OperatorSum, ctx: PsiContext, order: int) -> bool:
    """Equality of the actions on series up to ``order``: the weight tables compared as values."""
    return a == b or a._weight_rows(ctx, order) == b._weight_rows(ctx, order)
