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
``Fraction``.  Each kernel packs its integer vectors at q = 2^bits, with
bits from an exact bound on every result coefficient (a closed form for
``convolve``, a norm recurrence for ``divide``), and reads the digits of
all its results back in one ``intpoly._unpack`` call.

The scalars live apart, in ``qfield``, so that a process which only reads
``PolyQ`` or parses a symbolic value compiles no kernel code, and the
integer polynomial arithmetic both use lives in ``intpoly``, so that no
module passes the 4096 parser tokens past which CPython's parser doubles
its token array.
"""

from __future__ import annotations

from itertools import count, islice
from math import comb, gcd, lcm
from operator import lshift, mul

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


def _binomials_at(ctx, bits: int, m: int):
    """The q-binomial row forms 0..m-1 at q = 2^bits, one at a time, for a symbolic context.

    The rows are kept per bits value, in the context's ``_packed``, and
    grown append-only as they are read; the closed form F(n, k) = q^k makes
    the recurrence a shift and an add.  The store holds the rows of the
    ``_PACKED_BITS`` bits values read last.  The stored rows are yielded
    themselves, not copies, so no reader may change them: a twist's powers
    of q are applied by the reader (``convolve``).
    """
    store = ctx._packed
    rows = store.pop(bits, None) or [[1]]
    store[bits] = rows
    if len(store) > _PACKED_BITS:
        del store[next(iter(store))]
    for n in range(m):
        if n == len(rows):
            row = rows[-1]
            rows.append([1] + [row[k - 1] + (row[k] << bits * k) for k in range(1, n)] + [1])
        yield 1, rows[n]


def q_binomial(ctx, n: int, k: int) -> RatFuncQ:
    """C(n, k) over symbolic q, for a context grown through n.

    The entry is unpacked from row n of the packed rows at the bits of its
    largest coefficient (``_binomials_at``), so the rows read are kept and
    a whole table costs one recurrence step per row and bits value.
    """
    # a q-binomial's coefficients are at most its value at q = 1
    bits = _digit_bits(comb(n, n // 2))
    row = next(islice(_binomials_at(ctx, bits, n + 1), n, None))[1]
    return _from_integer(_unpack([row[k]], bits)[0])


def convolve(ctx, a: tuple, b: tuple, terms: list, m: int) -> list:
    """The m result coefficients of ``series._convolve`` over symbolic q.

    ``a`` and ``b`` are the operand coefficients the terms read.  Every
    symbolic context is a power kernel, so every term (i, j, star, (P, J), c)
    is weighed by a twist, after a ``star`` term swaps its operand slices.
    The term scalars are cleared over one denominator, and every integer
    polynomial is evaluated at q = 2^bits (Kronecker substitution), so c_n
    is one packed big-int sum, and the m sums are unpacked in one read.
    The bits come from a closed-form bound, read off the norms in O(m):
    |.|_1 bounds every coefficient and is submultiplicative, a twist keeps
    it (|q^s p|_1 = |p|_1), and the q-binomials of row n have nonnegative
    coefficients that sum to 2^n, so no coefficient of any c_n exceeds
    max|a_k|_1 max|b_k|_1 sum|c|_1 2^(m-1).  A twist is a shift of the
    term's packed scalar by bits J and, in C, of the k-th product of each
    row's dot product by bits P k.
    """
    (da, va), (db, vb), (dc, vc) = map(_integer_forms, (a, b, [c for *_, c in terms]))
    # x | 1 >= max(x, 1): with no factor below 1 the bound holds every packed
    # operand too, and a zero operand has only zero sums
    bits = _digit_bits((max(map(_norm, va)) | 1) * (max(map(_norm, vb)) | 1)
                       * (sum(map(_norm, vc)) | 1) << m - 1)
    pa, pb, pc = ([_pack(v, bits) for v in x] for x in (va, vb, vc))
    out = [0] * m
    for (i, j, star, (p, s), _), c in zip(terms, pc):
        x, y = pa[i : i + m], pb[j : j + m]
        if star:
            x, y = y, x
        out = [t + (sum(map(lshift, map(mul, v, map(mul, x, y[n::-1])), count(0, bits * p))) * c
                    << bits * s)
               for t, n, (_, v) in zip(out, range(m), _binomials_at(ctx, bits, m))]
    den = _product(_product(da, db), dc)
    return [_from_integer(v, den) for v in _unpack(out, bits)]


def divide(ctx, a: tuple, b: tuple) -> list:
    """The coefficients of ``WardSeries.divide`` over symbolic q, for a and b of one length.

    The recurrence runs on A and B evaluated at q = 2^bits; the bits come
    from the recurrence run on |.|_1 norms over the context's binomial
    rows, Pascal's rows, which hold the q-binomials' norms, with the
    divisor's higher terms negated, which turns every subtraction into an
    addition of bounds.  The quotients and the divisor's powers are read
    back in one ``_unpack`` call.
    """
    m = len(a)
    ab = _integer_forms(a + b)[1]
    norms = [_norm(v) for v in ab]
    dn, pn = _substitute(ctx._binomials(m - 1), norms[:m],
                         norms[m : m + 1] + [-x for x in norms[m + 1 :]])
    bits = _digit_bits(max(norms + dn + pn))
    packed = [_pack(v, bits) for v in ab]
    d, power = _substitute(_binomials_at(ctx, bits, m), packed[:m], packed[m:])
    digits = _unpack(d + power[1:], bits)
    return list(map(_from_integer, digits[:m], digits[m:]))
