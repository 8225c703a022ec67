"""Sequence contexts: the base sequence and the tables derived from it.

A context fixes one base sequence s_0, s_1, ... and its state is that
sequence, kept once as the integers S_n (``_ints``, below).  Everything
else it keeps is one of six tables, each a cache of values derived from
the S_n, grown append-only by the one accessor its readers call and only
as far as the call reads:

* ``_binom``, the binomial rows, by ``_binomials``, which the series
  kernels, ``_scales``, ``_chain_rows``, ``psi_binomial``,
  ``operator_algebra.binomial_weights`` and ``qkernels.divide`` call;
* ``_kernel``, kernel row prefixes, by ``_kernel_row``, which
  ``_chain_rows`` calls for a prefix it does not find kept;
* ``_fact``, the factorials, by ``psi_factorial``;
* ``_scale``, the division rows, by ``_scales``, which
  ``WardSeries.divide`` calls;
* ``_weights``, the Leibniz product rows, by
  ``operator_algebra.binomial_weights``, which ``binomial_terms`` calls;
* ``_packed``, the packed q-binomial rows, by ``qkernels._binomials_at``,
  which the symbolic kernels and ``qkernels.q_binomial`` call.

No reader relies on rows that another call grew, and making a series
grows the sequence alone, so any table reset to its seed row is rebuilt
from the S_n on its next read.  One context serves every order, and
``get_context`` hands out one context per spec.  The row forms below are
read in their layout by the kernels of ``series`` (the binomial rows and
the product rows of ``_weighting``) and ``qkernels`` (the binomial rows),
and by ``binomial_weights`` (the binomial rows and the integers S_n).

* ``_grow(n)`` extends the sequence through index n.  The sequence is
  kept once, as the values cleared to integers (``_ints``), S_n = s_n c_n,
  with c_n the lcm of a custom list's denominators, w^(n-1) over q = u/w,
  and 1 otherwise; over symbolic q, S_n = n, the value at q = 1.  s_0 = 0,
  s_1 = 1, and S_n != 0 is checked as each integer is added.  A value s_n
  (``psi_value``, ``psi``) is derived from S_n when it is read.  Every
  accessor below grows the sequence as far as it needs.
* ``_binomials(n)`` extends the generalized binomials
  C(n, k) = s_n! / (s_k! * s_{n-k}!) through row n (``_binom``) and returns
  the stored rows.  Row n comes from row n-1 by the multiplicative identity
  C(n, k) = C(n-1, k-1) * s_n / s_k, half a row and its mirror
  (``_binomial_row``); over symbolic q, the same identity at q = 1,
  Pascal's rows, which bound the digits of symbolic division.
* ``_kernel_row(n, stop)`` gives entries 0..stop-1 of row n of the weight
  kernel F(n, k) = (s_n - s_k) / s_{n-k}, 0 <= k < n, for a kernel that is
  not a power of q.  Whether every entry is a power F(n, k) = q^k (the
  q-analogs, and q = 1 over the sequence 0, 1, 2, ...) is one fact of a
  context, ``power_kernel``, fixed on construction; such a kernel has no
  row, as its readers take the closed form (``fontane_kernel``) or a twist
  (``_weighting``).  Otherwise each entry is (S_n - S_k) / S_{n-k} in
  lowest terms by one small gcd.  A row has one reader, a chain
  (``_chain_rows``), so ``_kernel`` keeps per index only the prefix a chain
  read, built again when a longer one is asked for; ``fontane_kernel``
  reads a single entry as one ratio of the S_n, with no row.

The kernel and binomial rows are row forms (d, v), one denominator and a
vector with row[k] == v[k] / d.  Over plain rationals d is a positive int,
v holds ints and gcd(d, *v) == 1, which makes the form canonical; the
series kernels then sum on ints and divide once per result coefficient.
Every row is built on ints in that form with no gcd over the row: over the
lcm of entries in lowest terms, or, for the integral binomials of the
built-in kinds, over a known power of w.  The binomial rows over symbolic
q are Pascal's, with d = 1 and int entries.  The accessors give the
canonical scalars (an int when whole).

``_weighting`` weighs a product by a chain of index pairs: over a power
kernel by a twist, a power of q per term, with no row read; otherwise by
the chain's product rows (``_chain_rows``), C(n, k) W(n, k) with W the
product of kernel-row slices, in the same form and made only as a product
reads them.  Either way it first refuses what the chain's reach would
(``PsiContext._reach``).  It takes no flavor: a star chain is weighed as
its asterisk twin, and the series kernels swap its operands.

Of the other four tables, ``_fact`` holds the running product
s_n! = s_1 * ... * s_n (s_0! = 1); over plain rationals ``_scale`` the
division rows (G_n, T_n), the integers T_n[k] = C(n, k) G_n / G_k with G_n
the least that keeps them whole, which are the binomial rows themselves
where every G_n is 1 and otherwise come from the row before
(``_division_row``); over symbolic q ``_packed`` the
q-binomial rows at q = 2^bits, the one form the kernels use, per bits
value, for the few bits values read last, and ``psi_binomial`` unpacks a
q-binomial from them; and over plain rationals ``_weights`` the product
tables of the binomial operators <j k>, P<j k>(r, c) = C(r, c) W<j k>(r, c),
level j for j <= J, built from the binomial rows and the integers S_n as
requests for larger n or orders arrive, each level only as far as some
request read.  Row r of a level has one denominator for every k, and the
level's row forms are canonical together: no prime of it divides every
entry of the row over all k.

F(n, n) is deliberately left undefined: the defining relation
s_n - s_k = F(n, k) * s_{n-k} says nothing at k = n, and every consumer in
this package only ever needs k < n.

Built-in sequence kinds:

* ``natural``    s_n = n; the classical tables.
* ``q``          s_n = 1 + q + ... + q^(n-1) with q a formal symbol;
                 scalars are rational functions of q.
* ``q=<value>``  same sequence with q specialized to an exact rational.
* ``fib``        s_n = n-th Fibonacci number.
* ``custom:[..]`` explicit rational values.  The list length is a hard
                 limit, ``ctx.bound``: ``_grow`` refuses every read past it
                 (BoundExceeded), and the sequence is read in full,
                 each value checked, on construction; every other kind has
                 ``bound`` None.

All scalars in one context share a single variant; see coefficients.  A
symbolic context holds the ``qkernels`` module as ``_qkernels``: the q-field
kernels it dispatches to, one attribute read away; it is None otherwise.
The rule for where the variants meet (errors.VariantMismatch states it) is
applied here for scalars read against a context: ``_check_scalar`` is the
strict door, ``_lift`` the one that embeds a plain rational, and ``_power``
takes powers in either variant (``_q_power`` the powers of q, a monomial
over symbolic q).  Two places apply it with no context at hand: chain
coefficients meet in ``operator_algebra._meet`` and ``_check_coefficient``,
and JSON scalars are embedded by ``coefficients.scalar_from_json``.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from weakref import WeakValueDictionary
from .coefficients import _INT_ONLY, Scalar, _int_ratio, _norm_rat, parse_rational
from .errors import (BadSpec, BoundExceeded, Immutable, IndexOutOfBound, KernelUndefined,
                     KOutOfRange, VariantMismatch, echo)


# -- row forms ----------------------------------------------------------------
#
# Only the stored rows are kept canonical: they are built once and read
# often.  The sequence tables are built canonical (``_ratio_form``,
# ``_binomial_row``), and ``operator_algebra.binomial_weights`` reduces each
# level row it stores by one gcd.  Products of forms leave the gcd to the
# one division per result coefficient that every kernel ends in.


def _form_mul(f: tuple, g: tuple) -> tuple:
    """The entrywise product of two row forms, as long as the shorter."""
    return f[0] * g[0], list(map(mul, f[1], g[1]))


def _lowest(x: int, y: int) -> tuple:
    """The ratio x / y (y != 0) in lowest terms, its denominator positive."""
    g = gcd(x, y)
    return (x // g, y // g) if y > 0 else (-x // g, -y // g)


def _ratio_form(ratios: list) -> tuple:
    """The canonical row form of ratios x / y, each in lowest terms with y > 0.

    Over d, the lcm of the y, no prime of d divides every entry, so the form
    needs no gcd over the row.
    """
    d = lcm(*[y for _, y in ratios])
    return d, [x * (d // y) for x, y in ratios]


def _binomial_row(prev: tuple, ints: list, w: int, integral: bool) -> tuple:
    """Binomial row m from row m - 1, by C(m, k) = C(m-1, k-1) s_m / s_k.

    ``ints`` holds S_0..S_m and maybe more, the sequence as integers S_k = s_k c_k, with
    c_k = w^(k-1) over q = u/w and a constant otherwise.  ``integral``: the
    N(m, k) = N(m-1, k-1) S_m / S_k are whole, as for every built-in kind
    (over q = u/w, the Gaussian binomials made homogeneous in u and w), and
    C(m, k) = N(m, k) / w^(k(m-k)); the row is then canonical over
    w^floor(m^2/4), as its middle entry N(m, m//2) is a power of u modulo
    each prime of w.  Otherwise (a custom list) each entry is a ratio in
    lowest terms.  Half the row is built, k >= ceil(m/2), and mirrored.
    """
    d, v = prev
    m = len(v)
    sm = ints[m]
    h = (m + 1) // 2
    if integral:
        # entry k is N(m, k) w^(floor(m^2/4) - k(m-k)): entry k-1 of row m-1 times
        # S_m w^(k-h) / S_k, a whole number; with w = 1 there is no power to take (a
        # multiply by 1 still copies each big int: fib's rows to 68 took 1.4 ms so, 0.9 without)
        if w == 1:
            half = [v[k - 1] * sm // ints[k] for k in range(h, m + 1)]
        else:
            half = [v[k - 1] * sm * w ** (k - h) // ints[k] for k in range(h, m + 1)]
        d *= w ** (m // 2)
    else:
        d, half = _ratio_form([_lowest(v[k - 1] * sm, d * ints[k]) for k in range(h, m + 1)])
    return d, half[::-1][:h] + half


def _division_row(table: list, ints: list, w: int, integral: bool) -> tuple:
    """Division row n from rows 0..n-1: (G_n, T_n) with T_n[k] = C(n,k) G_n / G_k whole.

    By the identity of ``_binomial_row``, T_n[k] = T_{n-1}[k-1] r_n s_n / (r_k s_k)
    with r_n = G_n / G_{n-1}, and T_n[0] = G_n.  ``integral`` (a built-in kind):
    r_n = w^(n-1) = c_n, the least, as T_n[n-1] = s_n r_n and S_n is prime to w;
    so r_n s_n = S_n and T_n[k] = T_{n-1}[k-1] S_n / S_k, a whole number.  Otherwise (a custom list, c_n constant) r_n is the lcm of
    the denominators of T_{n-1}[k-1] S_n / (r_k S_k) in lowest terms, the least
    that keeps the row whole.
    """
    g, prev = table[-1]
    n = len(prev)
    sn = ints[n]
    if integral:
        g *= w ** (n - 1)
        return g, [g] + [prev[k - 1] * sn // ints[k] for k in range(1, n + 1)]
    r, row = _ratio_form([_lowest(prev[k - 1] * sn, ints[k] * (table[k][0] // table[k - 1][0]))
                          for k in range(1, n)])
    return g * r, [g * r] + row + [1]


def _parts(ctx: PsiContext) -> tuple:
    """(u, w) with the context's q = u / w in lowest terms; (1, 1) with no q or over symbolic q."""
    q = ctx.q_scalar
    return (1, 1) if q is None or ctx.symbolic else (q.numerator, q.denominator)


class PsiContext(Immutable):
    """One base sequence and its append-only tables.

    ``power_kernel``: every F(n, k) is q^k, which holds for the q-analogs
    and, with q = 1, for the sequence 0, 1, 2, ...; ``fontane_kernel``,
    ``_weighting`` and ``operator_algebra.binomial_terms`` read it to use
    that closed form.  ``_ints`` holds the sequence, as the integers S_n;
    ``_clear`` is the lcm of a custom list's denominators, 1 for every
    other kind.  ``_kernel`` holds the row prefixes that chains over any
    other kernel read, keyed by index; ``_binom`` the binomial rows 0..n
    that some reader needed.
    """

    __slots__ = ("kind", "bound", "symbolic", "q_scalar", "_fact", "_binom", "_kernel",
                 "_scale", "_packed", "_weights", "zero", "one", "_spec", "_clear", "_step",
                 "_ints", "power_kernel", "_qkernels", "__weakref__")

    def __init__(self, kind: str, spec: str, values: tuple, step=None, *, q_scalar=None,
                 qkernels=None):
        """``values`` starts the sequence; ``step(ints)`` gives each next integer S_m.

        ``values`` are rationals, cleared once by the lcm of their
        denominators into the first integers S_k (``_ints``), and the step
        reads the S_k before it.  Without a step the sequence is exactly
        ``values``.  ``qkernels`` is the ``qkernels`` module for a sequence
        of rational functions of q.
        """
        if values[0] != 0:
            raise BadSpec("sequence must start at 0")
        if values[1] != 1:
            raise BadSpec("sequence must have value 1 at index 1")
        clear = lcm(*[x.denominator for x in values])
        ints = [x.numerator * (clear // x.denominator) for x in values]
        if 0 in ints[1:]:
            raise BadSpec(f"sequence value at index {ints.index(0, 1)} is zero")
        symbolic = qkernels is not None
        one = qkernels.embed_rational(1) if symbolic else 1
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "bound", len(values) - 1 if step is None else None)
        init(self, "symbolic", symbolic)
        init(self, "_qkernels", qkernels)
        init(self, "q_scalar", q_scalar)
        init(self, "zero", qkernels.embed_rational(0) if symbolic else 0)
        init(self, "one", one)
        init(self, "_spec", spec)
        init(self, "_clear", clear)
        init(self, "_step", step)
        init(self, "_fact", [one])
        init(self, "_binom", [(1, [1])])
        init(self, "_kernel", {})
        init(self, "_scale", [])
        init(self, "_packed", {})
        init(self, "_weights", [])
        init(self, "_ints", ints)
        init(self, "power_kernel", kind == "natural" or q_scalar is not None or (
            step is None and values == tuple(range(len(values)))))

    def __repr__(self) -> str:
        return f"PsiContext({self._spec!r}, bound={self.bound})"

    def __reduce__(self):
        # pickled as its spec, a context comes back as the shared one
        return get_context, (self._spec,)

    def _grow(self, n: int) -> None:
        """Extend the sequence through index n; past a custom list's end, BoundExceeded.

        Every reader of a custom list, ``_reach`` included, grows the
        sequence through the index it reads, so this is the one refusal of
        the list's end, whatever the reader.
        """
        ints = self._ints
        if n < len(ints):
            return
        if self.bound is not None and n > self.bound:
            raise BoundExceeded(
                f"sequence {echo(self._spec)} ends at index {self.bound}, needs {n}")
        for m in range(len(ints), n + 1):
            s = self._step(ints)
            if not s:
                raise BadSpec(f"sequence value at index {m} is zero")
            ints.append(s)

    def _value(self, n: int) -> Scalar:
        """s_n, read from S_n: S_n / c_n, or over symbolic q the polynomial [n]_q."""
        if self.symbolic:
            return self._qkernels._from_integer([1] * n)
        return _int_ratio(self._ints[n], self._clear * _parts(self)[1] ** max(n - 1, 0))

    @property
    def psi(self) -> tuple:
        """The values s_n grown so far, derived from ``_ints``."""
        return tuple([self._value(n) for n in range(len(self._ints))])

    def _reach(self, n: int) -> None:
        """Refuse what a read through index n refuses: past a custom list's end, or a zero value.

        The sequence grows through n, but over an unbounded power kernel only
        through min(n, 2): q = -1 makes s_2 = 0, the one zero value a power
        kernel can have, and its rows need no sequence value.
        """
        self._grow(n if self.bound is not None or not self.power_kernel else min(n, 2))

    def _binomials(self, n: int) -> list:
        """The binomial row forms, extended through row n: the stored list, not to be changed."""
        binom = self._binom
        if n >= len(binom):
            self._grow(n)
            w, integral = _parts(self)[1], self.kind != "custom"
            for m in range(len(binom), n + 1):
                binom.append(_binomial_row(binom[-1], self._ints, w, integral))
        return binom

    def _kernel_row(self, n: int, stop: int) -> tuple:
        """F(n, k) for 0 <= k < stop <= n of a kernel that is not a power of q, as a row form.

        Each entry is (S_n - S_k) / S_{n-k} in lowest terms; the prefix is
        kept in ``_kernel``, and built again when a longer one is asked for.
        """
        row = self._kernel.get(n)
        if row is None or len(row[1]) < stop:
            self._grow(n)
            ints = self._ints
            row = self._kernel[n] = _ratio_form([_lowest(ints[n] - ints[k], ints[n - k])
                                                 for k in range(stop)])
        return row

    def _serve(self, bound: int | None) -> "PsiContext":
        # build the binomial rows through ``bound`` now; past a custom list's end ``_grow`` refuses
        if bound is not None:
            self._binomials(bound)
        return self

    def _scales(self, m: int) -> list:
        """The division rows (G_n, T_n), extended through n = m - 1: the stored list, not to be changed.

        For plain rationals.  T_n[k] = C(n, k) G_n / G_k for 0 <= k <= n,
        integers, with G_0 = 1 and G_n the least multiple of G_{n-1} that
        keeps row n whole, so T_n[0] = G_n; for q = u/v, G_n = v^(n(n-1)/2)
        and T_n[k] = N(n, k) v^((n-k)(n-k-1)/2), with N the homogeneous
        Gaussian binomial of ``_binomial_row``.  Where the binomials are
        integers (natural, fib, q = u/1) every G_n is 1 and the row is the
        binomial row itself, shared; otherwise row n comes from row n - 1
        (``_division_row``).
        """
        table = self._scale
        if m > len(table):
            w, integral = _parts(self)[1], self.kind != "custom"
            if integral and w == 1:
                table[len(table):] = self._binomials(m - 1)[len(table):m]
                return table
            self._grow(m - 1)
            if not table:
                table.append((1, [1]))
            for _ in range(len(table), m):
                table.append(_division_row(table, self._ints, w, integral))
        return table

    # -- constructor ---------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, bound: int | None = None) -> "PsiContext":
        """A new context for ``spec``; with ``bound``, its binomial rows built through it."""
        s = spec.strip()
        if s == "natural":
            ctx = cls("natural", "natural", (0, 1), len)
        elif s == "fib":
            ctx = cls("fib", "fib", (0, 1), lambda ints: ints[-1] + ints[-2])
        elif s == "q":
            from . import qkernels
            from .qfield import Q

            # S_m = m, s_m = 1 + q + ... + q^(m-1) at q = 1
            ctx = cls("q", "q", (0, 1), len, q_scalar=Q, qkernels=qkernels)
        elif s.startswith("q="):
            try:
                q0 = parse_rational(s[2:])
            except Exception as exc:
                raise BadSpec(f"bad q value in spec {echo(spec)}") from exc
            u, w = q0.numerator, q0.denominator
            # S_m = s_m w^(m-1) = u S_{m-1} + w^(m-1)
            ctx = cls("q", f"q={q0}", (0, 1), lambda ints: u * ints[-1] + w ** (len(ints) - 1),
                      q_scalar=q0)
        elif s.startswith("custom:"):
            body = s[len("custom:") :].strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise BadSpec(f"custom spec must carry a [..] list: {echo(spec)}")
            items = [x.strip() for x in body[1:-1].split(",") if x.strip()]
            if not items:
                raise BadSpec("custom sequence list is empty")
            try:
                values = tuple(parse_rational(x) for x in items)
            except Exception as exc:
                raise BadSpec(f"bad value in custom spec: {echo(spec)}") from exc
            if len(values) < 2:
                raise BadSpec("custom sequence needs at least the first two values")
            text = "custom:[" + ",".join(str(v) for v in values) + "]"
            ctx = cls("custom", text, values)
        else:
            raise BadSpec(f"unknown sequence spec {echo(spec)}")
        return ctx._serve(bound)

    # -- accessors -----------------------------------------------------------

    def spec_string(self) -> str:
        return self._spec

    def _check_index(self, n: int, reach: bool = False) -> None:
        # refuse a negative index, then grow the sequence through n, or with
        # ``reach`` only as far as ``_reach`` does; ``_grow`` refuses a custom list's end
        if n < 0:
            raise IndexOutOfBound(f"index {n} is negative")
        (self._reach if reach else self._grow)(n)

    def psi_value(self, n: int) -> Scalar:
        self._check_index(n)
        return self._value(n)

    def psi_factorial(self, n: int) -> Scalar:
        self._check_index(n)
        fact = self._fact
        for m in range(len(fact), n + 1):
            fact.append(_norm_rat(fact[-1] * self._value(m)))
        return fact[n]

    def psi_binomial(self, n: int, k: int) -> Scalar:
        """C(n, k) = s_n! / (s_k! s_{n-k}!); needs 0 <= k <= n.

        Over symbolic q the entry comes from the packed q-binomial rows
        (``qkernels.q_binomial``).
        """
        self._check_index(n)
        if not 0 <= k <= n:
            raise KOutOfRange(f"k={k} outside 0..{n}")
        if not self.symbolic:
            d, v = self._binomials(n)[n]
            return _int_ratio(v[k], d)
        return self._qkernels.q_binomial(self, n, k)

    def fontane_kernel(self, n: int, k: int) -> Scalar:
        """F(n, k) with s_n - s_k = F(n, k) * s_{n-k}; needs 0 <= k < n.

        Over a power kernel the closed form q^k, for which the sequence
        grows no further than ``_reach`` takes it; otherwise one ratio of
        the integers S_n, with no kernel row built or kept.
        """
        self._check_index(n, reach=True)
        if not 0 <= k < n:
            raise KernelUndefined(f"F({n}, {k}) undefined; need 0 <= k < n")
        if self.power_kernel:
            return _q_power(self, k)
        ints = self._ints
        return _int_ratio(ints[n] - ints[k], ints[n - k])

    # -- scalar helpers --------------------------------------------------------

    def from_rational(self, value) -> Scalar:
        # an int is already canonical; a bool, float or string goes through Fraction
        if type(value) is not int:
            value = _norm_rat(Fraction(value))
        return self._qkernels.embed_rational(value) if self.symbolic else value


_RATIONAL_ONLY = frozenset((int, Fraction))


def _check_scalar(ctx: PsiContext, s) -> Scalar:
    """s as a canonical scalar of the context's variant; VariantMismatch when it is not one."""
    if ctx.symbolic:
        if not isinstance(s, ctx._qkernels.RatFuncQ):
            raise VariantMismatch(
                f"context {echo(ctx.spec_string())} needs rational-function scalars, got {echo(s)}"
            )
        return s
    if not isinstance(s, numbers.Rational):
        raise VariantMismatch(
            f"context {echo(ctx.spec_string())} needs plain rational scalars, got {echo(s)}"
        )
    # a bool is an int subclass, which JSON would write as "True"
    return int(s) if type(s) is bool else _norm_rat(s)


def _lift(ctx: PsiContext, x) -> Scalar:
    """x as a scalar of the context's variant, a plain rational embedded; else ``_check_scalar``."""
    return ctx.from_rational(x) if isinstance(x, numbers.Rational) else _check_scalar(ctx, x)


def _power(ctx: PsiContext, x: Scalar, n: int) -> Scalar:
    """x ** n for a scalar of the context's variant; n < 0 needs x != 0."""
    return x**n if ctx.symbolic else _norm_rat(Fraction(x) ** n)


def _q_power(ctx: PsiContext, n: int) -> Scalar:
    """q^n for the context's q, 1 where it has none; over symbolic q a canonical monomial."""
    if ctx.symbolic:
        mono = (0,) * abs(n) + (1,)
        return ctx._qkernels.RatFuncQ._raw(*((mono, (1,)) if n >= 0 else ((1,), mono)))
    return _power(ctx, 1 if ctx.q_scalar is None else ctx.q_scalar, n)


def _check_scalars(ctx: PsiContext, values) -> tuple:
    """The values through ``_check_scalar``, as a tuple.

    All ints over plain rationals or all ``RatFuncQ`` over symbolic q pass
    in one C-level type pass, and ints and ``Fraction``s over plain
    rationals take ``_norm_rat`` alone; a kernel's result skips this check
    (``WardSeries._raw``).
    """
    c = tuple(values)
    if (ctx._qkernels._RATFUNC_ONLY if ctx.symbolic else _INT_ONLY).issuperset(map(type, c)):
        return c
    if not ctx.symbolic and _RATIONAL_ONLY.issuperset(map(type, c)):
        return tuple([_norm_rat(x) for x in c])
    return tuple([_check_scalar(ctx, x) for x in c])


def _chain_rows(ctx: PsiContext, pairs, m: int):
    """The product rows of a chain of one or more index pairs, one row form per n <= m.

    Row n is C(n, k) W(n, k), the binomial row times the weight
    W(n, k) = prod F(n+i, k+j) over the pairs; a star chain reads the same
    rows with the operands swapped (``series._convolve``).  The rows are
    made as they are read, so a product holds one at a time.  Each kernel
    row is the prefix the slice ends in: read from ``_kernel`` when it is
    kept and long enough, else built through ``_kernel_row``, so the
    context keeps no entry past it; the chain's reach is refused first, by
    ``_weighting``.
    """
    kept, kernel_row, binom = ctx._kernel, ctx._kernel_row, ctx._binomials(m)

    def rows():
        for n in range(m + 1):
            row = binom[n]
            for i, j in pairs:
                # F(n+i, k+j) for k = 0..n is one slice of a kernel row's prefix
                stop = j + n + 1
                kernel = kept.get(n + i)
                if kernel is None or len(kernel[1]) < stop:
                    kernel = kernel_row(n + i, stop)
                row = _form_mul(row, (kernel[0], kernel[1][j:stop]))
            yield row

    return rows()


def _weighting(ctx: PsiContext, pairs, m: int):
    """How a chain of index pairs weighs the (n, k) term for n <= m.

    Over a power kernel (``ctx.power_kernel``) the weight of
    ``_chain_rows`` is W(n, k) = q^(P k + J) with P pairs and J the sum of
    the j, and the chain is the twist (P, J), which reads no row; so is the
    empty chain.  Otherwise the chain is its product rows.  Either way a
    chain that reaches past a custom list's end or a zero sequence value is
    refused here (``PsiContext._reach``).
    """
    ctx._reach(m + max(pairs, default=(0, 0))[0])
    if ctx.power_kernel or not pairs:
        return len(pairs), sum([j for _, j in pairs])
    return _chain_rows(ctx, pairs, m)


# one context per canonical spec while the spelling cache or a series holds it
_CONTEXTS: WeakValueDictionary[str, PsiContext] = WeakValueDictionary()
# how many spellings get_context keeps; a spelling read again after it has
# been dropped parses its spec again and finds the shared context if it lives
_SPELLINGS = 256


@lru_cache(maxsize=_SPELLINGS)
def _shared_context(spec: str) -> PsiContext:
    # cached per spelling; the context itself is shared per canonical spec
    ctx = PsiContext.from_spec(spec)
    return _CONTEXTS.setdefault(ctx.spec_string(), ctx)


def get_context(spec: str, bound: int | None = None) -> PsiContext:
    """The one shared context of ``spec``; ``bound`` builds its tables that far now.

    Binary series operations require both operands to live over the same
    context object.  Every call whose spec has the same canonical form
    (``q=6/4`` and ``q=3/2``, `` natural`` and ``natural``) returns the same
    object, whatever bound it passes, so series of any orders combine.
    """
    return _shared_context(spec)._serve(bound)


# the statistics of the per-spec cache behind get_context
get_context.cache_info = _shared_context.cache_info
