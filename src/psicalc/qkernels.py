"""The symbolic-q halves of the series kernels and tables.

A context over symbolic q (``PsiContext.from_spec("q")``) loads this
module, keeps it as ``ctx._qkernels`` and dispatches to it through that
one attribute: ``convolve`` and ``divide`` are the symbolic halves of
``series._convolve`` and ``WardSeries.divide`` (every symbolic context is
a power kernel, so ``convolve`` takes twists only), ``_binomials_at`` the
q-binomial rows they read, kept per bits value in the context's
``_packed`` store, and ``q_binomial`` the context's ``psi_binomial``.
The context reads its scalar type and embedding here too.  The kernels
clear rational functions over one denominator (``_integer_forms``) and
make results from integer vectors (``qfield._from_integer``), reading and
building ``RatFuncQ``'s integer pair directly, so no kernel makes a
``Fraction``.

The scalars live apart, in ``qfield``, so that a process which only reads
``PolyQ`` or parses a symbolic value compiles no kernel code, and the
integer polynomial arithmetic both use lives in ``intpoly``, so that no
module passes the 4096 parser tokens past which CPython's parser doubles
its token array.
"""

from __future__ import annotations

from itertools import islice
from math import comb, gcd, lcm
from operator import mul

from .intpoly import _ONE, _cofactors, _digit_bits, _kronecker_mul, _norm, _pack, _quotient, _unpack
from .qfield import _RATFUNC_ONLY, RatFuncQ, _from_integer, _product, embed_rational
from .series import _substitute


def _integer_forms(values) -> tuple:
    """(den, vectors) with values[i] == vectors[i] / den for integer vectors den and vectors[i].

    ``values`` are rational functions; ``den`` is the lcm of the primitive
    parts of their denominators times the lcm of their contents, and a zero
    value has the empty vector.  When every denominator is 1 the vectors
    are the numerators as they are.
    """
    dens = {x._d for x in values}
    if dens <= {_ONE}:
        return _ONE, [x._n for x in values]
    common, scale, parts = [1], 1, {}
    for d in dens:
        g = gcd(*d)
        p = [y // g for y in d]
        common = _kronecker_mul(common, _cofactors(common, p)[2])
        scale = lcm(scale, g)
        parts[d] = g, p
    # n / (g p) is n (common / p) (scale / g) over common * scale
    for d, (g, p) in parts.items():
        parts[d] = [y * (scale // g) for y in _quotient(common, p)]
    return [y * scale for y in common], [_product(x._n, parts[x._d]) for x in values]


# how many bits values a symbolic context keeps packed q-binomial rows for
_PACKED_BITS = 16


def _binomials_at(ctx, bits: int, m: int, shift: int = 0):
    """The q-binomial row forms 0..m-1 at q = 2^bits, one at a time, for a symbolic context.

    The q-binomials have nonnegative coefficients, so at bits = 0 (q = 1)
    the rows hold each binomial's |.|_1 norm: Pascal's rows, which the
    norm pass of every kernel call reads, so they are the context's
    binomial rows, grown through row m - 1 by the read (``ctx._binomials``).
    At bits > 0 the rows are kept per bits value, in the context's
    ``_packed``, and grown append-only as they are read; the closed form
    F(n, k) = q^k makes the recurrence a shift and an add.  The store holds
    the rows of the ``_PACKED_BITS`` bits values read last.  A nonzero
    ``shift`` = bits * P yields C(n, k) q^(P k) instead, each entry shifted
    left by shift * k.
    """
    if not bits:
        yield from islice(ctx._binomials(m - 1), m)
        return
    store = ctx._packed
    rows = store.pop(bits, None) or [[1]]
    store[bits] = rows
    if len(store) > _PACKED_BITS:
        del store[next(iter(store))]
    for n in range(m):
        if n == len(rows):
            row = rows[-1]
            rows.append([1] + [row[k - 1] + (row[k] << bits * k) for k in range(1, n)] + [1])
        row = rows[n]
        yield 1, [x << shift * k for k, x in enumerate(row)] if shift else row


def q_binomial(ctx, n: int, k: int) -> RatFuncQ:
    """C(n, k) over symbolic q, for a context grown through n.

    The entry is unpacked from row n of the packed rows at the bits of its
    largest coefficient (``_binomials_at``), so the rows read are kept and
    a whole table costs one recurrence step per row and bits value.
    """
    # a q-binomial's coefficients are at most its value at q = 1
    bits = _digit_bits(comb(n, n // 2))
    row = next(islice(_binomials_at(ctx, bits, n + 1), n, None))[1]
    return _from_integer(_unpack(row[k], bits))


def convolve(ctx, a: tuple, b: tuple, terms: list, m: int) -> list:
    """The m result coefficients of ``series._convolve`` over symbolic q.

    ``a`` and ``b`` are the operand coefficients the terms read.  Every
    symbolic context is a power kernel, so every term (i, j, star, (P, J), c)
    is weighed by a twist, after a ``star`` term swaps its operand slices.
    The term scalars are cleared over one denominator, and
    every integer polynomial is evaluated at q = 2^bits (Kronecker
    substitution), so c_n is one packed big-int sum unpacked once; the bits
    come from the same sums run on |.|_1 norms, an exact bound on every
    coefficient.  A twist is a shift of each binomial entry by bits P k and
    of the term's packed scalar by bits J, as |q^s p|_1 = |p|_1.
    """
    (da, va), (db, vb), (dc, vc) = map(_integer_forms, (a, b, [c for *_, c in terms]))

    def sums(bits, pa, pb, pc):
        # every term's sums at q = 2^bits, added up, from the vectors evaluated there
        out = [0] * m
        for (i, j, star, (p, s), _), c in zip(terms, pc):
            a, b = pa[i : i + m], pb[j : j + m]
            if star:
                a, b = b, a
            out = [x + (sum(map(mul, v, map(mul, a, b[n::-1]))) * c << bits * s)
                   for x, n, (_, v) in zip(out, range(m), _binomials_at(ctx, bits, m, bits * p))]
        return out

    # |.|_1 norms at q = 1 bound every coefficient
    norms = [[_norm(v) for v in x] for x in (va, vb, vc)]
    bits, den = _digit_bits(max(sum(norms, []) + sums(0, *norms))), _product(_product(da, db), dc)
    packed = ([_pack(v, bits) for v in x] for x in (va, vb, vc))
    return [_from_integer(_unpack(x, bits), den) for x in sums(bits, *packed)]


def divide(ctx, a: tuple, b: tuple) -> list:
    """The coefficients of ``WardSeries.divide`` over symbolic q, for a and b of one length.

    The recurrence runs on A and B evaluated at q = 2^bits; the bits come
    from the recurrence run on |.|_1 norms with the divisor's higher terms
    negated, which turns every subtraction into an addition of bounds.
    """
    m = len(a)
    ab = _integer_forms(a + b)[1]
    norms = [_norm(v) for v in ab]
    dn, pn = _substitute(_binomials_at(ctx, 0, m), norms[:m],
                         norms[m : m + 1] + [-x for x in norms[m + 1 :]])
    bits = _digit_bits(max(norms + dn + pn))
    packed = [_pack(v, bits) for v in ab]
    d, power = _substitute(_binomials_at(ctx, bits, m), packed[:m], packed[m:])
    return [_from_integer(_unpack(x, bits), _unpack(p, bits)) for x, p in zip(d, power[1:])]
