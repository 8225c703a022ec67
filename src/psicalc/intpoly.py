"""Integer polynomial arithmetic for the symbolic-q layer.

A polynomial here is a vector of ints, or of exact rationals where
``_kronecker_mul`` says so, in ascending degree with no trailing zeros.
Products and exact quotients run on Kronecker substitution (``_pack``,
``_unpack``); ``_cofactors`` finds a primitive gcd by GCDHEU with Euclid
on pseudo-remainders as its fallback; and ``_canonical`` turns a
numerator and denominator vector into the canonical pair that
``qfield.RatFuncQ`` stores, the form of FLINT's ``fmpz_poly_q``.  Nothing
here makes a ``Fraction`` from integer vectors.

``qfield`` and ``qkernels`` load this module; it is kept apart so that
neither passes the 4096 parser tokens past which CPython's parser doubles
its token array.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import gcd
from operator import add

from .coefficients import _integer_vector, _norm_rat


# Kronecker substitution.  An integer polynomial is evaluated at q = X =
# 2^bits, so that its coefficients become the base-X digits of one int, and
# a whole computation of sums and products runs on those ints.  Evaluation
# is a ring homomorphism, so only the polynomials that are packed in or
# unpacked at the end have to fit their digits: every coefficient below
# X / 2 in absolute value.  ``_digit_bits`` picks X from an exact bound on
# those coefficients, never from a guess; bits is a whole number of bytes,
# so packing and unpacking are byte copies.


def _digit_bits(bound: int) -> int:
    """Bits per digit for coefficients of absolute value at most ``bound``, plus a sign bit."""
    return (bound.bit_length() + 8) // 8 * 8


def _norm(v) -> int:
    """|v|_1, which bounds every coefficient of v."""
    return sum(map(abs, v))


@lru_cache(maxsize=256)
def _half_digits(n: int, width: int) -> int:
    # n digits of ``width`` bytes that each hold X / 2: the offset that makes
    # signed digits unsigned; kept, as sizes repeat from call to call
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(v, bits: int) -> int:
    """The integer vector v evaluated at 2^bits; |v_i| < 2^(bits-1)."""
    if not v:
        return 0
    if not any(v[:-1]):
        # a monomial c*q^k, a constant when k = 0, is one shift
        return v[-1] << (bits * (len(v) - 1))
    width = bits // 8
    raw = b"".join(map(int.to_bytes, map(add, v, repeat(1 << (bits - 1))), repeat(width),
                       repeat("little")))
    return int.from_bytes(raw, "little") - _half_digits(len(v), width)


def _unpack(xs, bits: int) -> list:
    """The balanced base-X digits of each x in ``xs``, each in [-X/2, X/2), without trailing zeros.

    Balanced digits are unique, so these are the coefficients of the
    polynomial packed in x whenever every coefficient is below X/2 =
    2^(bits-1) in absolute value.  n digits hold every |x| < X^n / 4, which
    fixes how many to read.  With H the n digits X/2, x + H has the
    balanced digits plus X/2, so (x + H) ^ H has each balanced digit as a
    two's-complement field of bits / 8 bytes.  The n fields of every x lie
    end to end in one buffer, read in one pass: fields of 1, 2, 4 and 8
    bytes by one signed ``struct.unpack``; fields of 3, 5, 6 and 7 bytes
    are first spread to the bottom of 4- or 8-byte slots, one strided
    slice per byte plane, with each field's sign byte (its top byte
    translated to 0x00 or 0xff) in the slot's spare bytes, and read the
    same way; wider fields one ``int.from_bytes`` each.  The buffer is then
    cut into each x's n digits, whose trailing zeros are dropped, so no
    entry's digits run into the next.  A kernel reads all its results in
    one call, and a single int is read as a batch of one.
    """
    width = bits // 8
    counts = [(abs(x).bit_length() + 1) // bits + 1 for x in xs]
    raw = b"".join([((x + h) ^ h).to_bytes(n * width, "little")
                    for x, n in zip(xs, counts) for h in [_half_digits(n, width)]])
    if width > 8:
        words = [int.from_bytes(raw[i : i + width], "little", signed=True)
                 for i in range(0, len(raw), width)]
    else:
        slot = 1 << (width - 1).bit_length()
        if slot > width:
            # each field at the bottom of a slot, and its sign byte repeated above it
            buf = bytearray(len(raw) // width * slot)
            sign = raw[width - 1 :: width].translate(bytes(128) + b"\xff" * 128)
            for t in range(slot):
                buf[t::slot] = raw[t::width] if t < width else sign
            raw = buf
        words = list(struct.unpack(f"<{len(raw) // slot}{'bhiq'[slot.bit_length() - 1]}",
                                   raw))
    out = [words[e - n : e] for n, e in zip(counts, accumulate(counts))]
    for v in out:
        while v and not v[-1]:
            v.pop()
    return out


def _kronecker_mul(a: tuple, b: tuple) -> list:
    """Coefficients of the product of two nonzero polynomials.

    The one-product case of Kronecker substitution: with the denominators
    cleared, one big-int multiplication does the whole convolution.  A
    product coefficient is at most |a|_max * |b|_1, with a the longer factor.
    """
    da, va = _integer_vector(a)
    db, vb = _integer_vector(b)
    if len(va) < len(vb):
        va, vb = vb, va
    bits = _digit_bits(max(map(abs, va)) * _norm(vb))
    [out] = _unpack([_pack(va, bits) * _pack(vb, bits)], bits)
    den = da * db
    if den != 1:
        out = [_norm_rat(Fraction(x, den)) for x in out]
    return out


def _primitive(c) -> list:
    """The integer vector of a nonzero polynomial with its content divided out."""
    _, v = _integer_vector(c)
    g = gcd(*v)
    return [x // g for x in v] if g != 1 else list(v)


def _pseudo_remainder(u: list, v: list) -> list:
    """u mod v up to a nonzero integer factor, for integer vectors with len(u) >= len(v)."""
    r = list(u)
    lv = v[-1]
    dv = len(v) - 1
    while len(r) > dv:
        g = gcd(r[-1], lv)
        cr, cv = lv // g, r[-1] // g
        if cr != 1:
            r = [cr * x for x in r]
        # cr * r - cv * q^shift * v cancels the leading term
        shift = len(r) - 1 - dv
        for j, y in enumerate(v):
            r[shift + j] -= cv * y
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _quotient(u, h) -> list:
    """u / h for integer vectors where h divides u over the integers.

    By Mignotte's bound no coefficient of a factor of u exceeds
    2^deg(u) |u|_2, so at those bits the quotient of the packed values reads
    back exactly.
    """
    bits = _digit_bits(_norm(u) << len(u))
    return _unpack([_pack(u, bits) // _pack(h, bits)], bits)[0]


# The heuristic gcd GCDHEU (B. W. Char, K. O. Geddes and G. H. Gonnet,
# J. Symbolic Comput. 7, 1989) packs u and v at X = 2^bits with X >= 2
# max|coefficient| + 29, reads back the int gcd of the packed values as
# balanced digits and takes its primitive part h.  If h divides u and v it
# is their primitive gcd g: for g = h k, k(X) divides the content of the
# read-back, at most X / 2, while a nonconstant k divides u, so its roots lie
# below 1 + max|u_i| <= X / 2 and |k(X)| > X / 2.  Each failed try doubles
# bits; after the last, Euclid on pseudo-remainders (D. Knuth, TAOCP vol. 2,
# 4.6.1) finds g, and Gauss's lemma makes u / g and v / g integral.
_HEU_TRIES = 4


def _cofactors(u: list, v: list) -> tuple:
    """(h, u / h, v / h) for h a primitive gcd of the integer vectors u and v."""
    bits = _digit_bits(max(map(abs, chain(u, v))) + 14)
    for _ in range(_HEU_TRIES):
        x, y = _pack(u, bits), _pack(v, bits)
        g = gcd(x, y)
        [h] = _unpack([g], bits)
        if len(h) == 1:
            return [1], u, v
        c = gcd(*h)
        if c != 1:
            g //= c
            [h] = _unpack([g], bits)
        # h(X) divides x and y; balanced digits are unique, so once
        # |h|_1 |w / h|_max < X / 2 the cofactor read back times h is w itself
        cs = _unpack([x // g, y // g], bits)
        for f, w in zip(cs, (u, v)):
            if _norm(h) * max(map(abs, f)) >> (bits - 1) and _kronecker_mul(f, h) != list(w):
                break
        else:
            return (h, *cs)
        bits *= 2
    a, b = map(_primitive, (u, v) if len(u) >= len(v) else (v, u))
    r = _pseudo_remainder(a, b)
    while r:
        a, b = b, _primitive(r)
        r = _pseudo_remainder(a, b)
    return b, _quotient(u, b), _quotient(v, b)


_ONE = (1,)
_ZERO = ((), _ONE)


def _canonical(nv, dv) -> tuple:
    """The canonical pair (n, d) of nv / dv for integer vectors.

    Neither vector has trailing zeros, and dv is nonzero.  A constant or
    monomial denominator needs no polynomial gcd; otherwise the cofactors of nv and dv
    by their primitive gcd are coprime.  One integer gcd then divides out
    the joint content, signed so that d leads with a positive coefficient.
    """
    if not nv:
        return _ZERO
    if len(dv) > 1:
        if not any(dv[:-1]):
            # a monomial c*q^j: the gcd is q^s, s the low-order zeros that nv and dv share
            s = min(next(i for i, x in enumerate(nv) if x), len(dv) - 1)
            nv, dv = nv[s:], dv[s:]
        else:
            _, nv, dv = _cofactors(nv, dv)
    elif dv[0] == 1:
        return tuple(nv), _ONE
    g = gcd(*nv, *dv)
    if dv[-1] < 0:
        g = -g
    if g != 1:
        nv, dv = [x // g for x in nv], [x // g for x in dv]
    return tuple(nv), tuple(dv)
