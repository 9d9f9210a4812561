"""Univariate polynomials over a FieldCtx.

Coefficients are stored as raws (each an int, the element's canonical index;
see finite_field), ascending degree, no trailing zeros.  The zero polynomial
has an empty coefficient tuple and degree -1.

Besides ring arithmetic this module provides gcds, squarefree/distinct-degree/
equal-degree factorization, Rabin's irreducibility test, resultants and
discriminants, D(t) = disc(f + t) in any field (disc_in_t), and a
trial-division oracle used by the test suite.  One distinct-degree loop,
_ddf, gives cycle types (the hot path of the interval sweeps) and factor()'s
blocks alike.  It runs on int lists over F_p (_IntArith, on the int layer of
finite_field) and on raws over F_{p^l} (_RawArith); _arith picks one for it
and for the x^q steps of is_irreducible and roots_in_field.  The sweeps pass
each member's discriminant for odd q; brute_force_factor is the oracle.
They also pass each member's start of x^p: for an interval
{f + c : c in F_q}, R(x, y) = x^e mod (f(x) + y) is computed once, e the top
bits of p, and its coefficients are evaluated at every y in F_q; the member
f + c starts from R(x, c) and squares through the low bits of p that
remain.  Over F_p, _frobenius_columns does so on y-polynomials packed into
ints (_batch_shift); over F_{p^l}, _ext_frobenius_columns on raws, by
Horner, with e <= d^2 (_ext_batch_shift).  Over F_p, for p > deg >= 8
(the sweeps name every member of degree 6 and 7, and of degree 8 all but
(5,3) and (4,4)), they pass its roots in F_p as well: _ddf divides out the
linear factors and starts at degree 2 on the cofactor, where tr(Q^2) =
n_1 + 2 n_2 and tr(Q^3) = n_1 + 3 n_3 mod p, Q Berlekamp's matrix on
packed ints, name its quadratic and cubic factors.  Wherever the
discriminant is passed, one parity table of partitions (_parity_table)
stops the loop as soon as the square class leaves one cycle type.
Everything else over F_p (Poly arithmetic, gcds, resultants, discriminants,
factor's squarefree and equal-degree steps, brute_force_factor) runs on the
same int layer through the raw helpers below.
"""

from __future__ import annotations

import random
import struct
from array import array
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, zip_longest
from operator import itemgetter, mul

from .class_functions import _MAX_D, CycleType, partitions_of
from .errors import (
    CtxMismatch,
    NotSquarefree,
    OutOfRange,
    TooLarge,
    ZeroInput,
)
from .finite_field import (
    FieldCtx,
    FieldElement,
    _idivmod,
    _ieval_all,
    _igcd_monic,
    _imul,
    _imulmod,
    _digits,
    _ireduce,
    _islots_mod,
    _ipack,
    _iunpack,
    _small_prime_factors,
    _undigits,
)

_BRUTE_FORCE_GUARD = 10**6


# ---------------------------------------------------------------------------
# raw-coefficient helpers (lists of raws, ascending, trimmed; inputs trimmed
# too).  Over F_p, _rmul, _rdivmod, _rgcd and _reval run on the int-list layer
# of finite_field; over F_{p^l} they go through the FieldCtx.  A zero divisor
# raises ZeroDivisionError.


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _radd(ctx, a, b):
    return _trim([ctx.add(x, y) for x, y in zip_longest(a, b, fillvalue=0)])


def _rsub(ctx, a, b):
    return _trim([ctx.sub(x, y) for x, y in zip_longest(a, b, fillvalue=0)])


def _rmul(ctx, a, b):
    if ctx.l == 1:
        p = ctx.p
        return _trim([c % p for c in _imul(a, b)])
    if not a or not b:
        return []
    add, mul = ctx.add, ctx.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] = add(out[j], mul(ai, bj))
    return _trim(out)


def _rdivmod(ctx, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if ctx.l == 1:
        return _idivmod(ctx.p, a, b)
    a = list(a)
    db = len(b) - 1
    inv = None if b[-1] == 1 else ctx.inv(b[-1])
    quo = [0] * max(len(a) - db, 0)
    sub, mul = ctx.sub, ctx.mul
    low = b[:db]
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            k = c if inv is None else mul(c, inv)
            quo[i - db] = k
            a[i] = 0  # c - k * lc(b)
            for j, bj in enumerate(low, i - db):
                a[j] = sub(a[j], mul(k, bj))
    return _trim(quo), _trim(a)


def _rmonic(ctx, a):
    if not a or a[-1] == 1:
        return list(a)
    inv = ctx.inv(a[-1])
    return [ctx.mul(c, inv) for c in a]


def _rgcd(ctx, a, b):
    if ctx.l == 1:
        return _igcd_monic(ctx.p, list(a), list(b))
    a, b = list(a), list(b)
    while b:
        a, b = b, _rdivmod(ctx, a, b)[1]
    return _rmonic(ctx, a)


def _reval(ctx, a, x):
    acc = 0
    if ctx.l == 1:
        p = ctx.p
        for c in reversed(a):
            acc = (acc * x + c) % p
        return acc
    for c in reversed(a):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def _rderiv(ctx, a):
    out = [ctx.scalar_mul(i, a[i]) for i in range(1, len(a))]
    return _trim(out)


# ---------------------------------------------------------------------------
# distinct-degree factorization, the hot path of the interval sweeps


def _rpow_poly_mod(ctx, base, e, mod):
    """base^e mod mod by square-and-multiply; reduced whenever e >= 1."""
    acc = [1]
    t = list(base)
    while e:
        if e & 1:
            _, acc = _rdivmod(ctx, _rmul(ctx, acc, t), mod)
        e >>= 1
        if e:
            _, t = _rdivmod(ctx, _rmul(ctx, t, t), mod)
    return acc


# ---------------------------------------------------------------------------
# x^e mod every member of an interval over F_q, from one bivariate power


_BATCH_Y_BITS = 9  # R's y-polynomials have fewer than 2^9 coefficients


def _batch_shift(p, d):
    """s over F_p, the number of low bits of p left to each member's kernel (e = p >> s).

    The least s >= 0 with (p // d) >> s < 2^_BATCH_Y_BITS.  Then
    R(x, y) = x^e mod (f(x) + y), with y-degree at most e // d = (p // d) >> s,
    has at most d * 2^_BATCH_Y_BITS terms whatever p is.
    """
    return max(0, (p // d).bit_length() - _BATCH_Y_BITS)


def _batch_rows(p, f):
    """x^k mod (f(x) + y) for k = d..2d - 1, each as d pairs (a, b) meaning (a + b y) x^i.

    x^d = -y - sum_{i<d} f_i x^i, and below x^(2d) one y at most enters.
    """
    d = len(f) - 1
    cur = [(0, 0)] * (d - 1) + [(1, 0)]  # x^(d - 1)
    rows = []
    for _ in range(d):
        (a, b), cur = cur[-1], [(0, 0)] + cur[:-1]
        cur = [((ai - a * fi) % p, (bi - b * fi) % p) for (ai, bi), fi in zip(cur, f)]
        cur[0] = (cur[0][0], (cur[0][1] - a) % p)
        rows.append(cur)
    return rows


def _bsquare(p, r, rows, shift):
    """r^2 (times x when shift) mod (f(x) + y), for r of x-degree < d on packed y-polynomials.

    r holds d ints, each a y-polynomial with at most n coefficients in
    [0, p), packed one per 64-bit slot (finite_field._ipack).  A slot of the
    square t_k = sum_{i+j=k} r_i r_j sums at most d * n products below p^2;
    t_d..t_2d-1 are reduced mod p and folded back through rows, which adds
    at most 2d products below p^2 to a slot.  So every slot sum stays at most
    d * (n + 2) * (p - 1)^2, below 2^64 for every p < 10^7 (the sweep guard)
    with d <= 12 and n <= 2^_BATCH_Y_BITS (_batch_shift); outputs are
    reduced mod p.
    """
    d = len(r)
    t = [0] * (2 * d - 1)
    for i, ri in enumerate(r):
        if ri:
            t[2 * i] += ri * ri
            ri2 = ri << 1
            for j in range(i + 1, d):
                t[i + j] += ri2 * r[j]
    if shift:
        t.insert(0, 0)
    out = t[:d]
    for tk, row in zip(t[d:], rows):
        if tk:
            tk = _islots_mod(tk, p)
            for i, (a, b) in enumerate(row):
                out[i] += a * tk + (b * tk << 64)
    return [_islots_mod(o, p) for o in out]


def _frobenius_columns(p, center):
    """Columns cols[i][c], the x^i coefficient of x^e mod (center + c) for every c in F_p.

    e = p >> _batch_shift(p, d): R(x, y) = x^e mod (center(x) + y) is one
    square-and-multiply over F_p[y][x] on packed y-polynomials (_bsquare),
    and each of its d coefficients is evaluated at every y in F_p by one
    chirp product (finite_field._ieval_all).  The member with constant term
    c starts its x^p there (_IntArith.xq).
    """
    d = len(center) - 1
    e = p >> _batch_shift(p, d)
    if d * (e // d + 3) * (p - 1) ** 2 >> 64:
        raise TooLarge(f"packed slots of the batched x^{e} overflow at p = {p}, d = {d}")
    rows = _batch_rows(p, center)
    r = [1] + [0] * (d - 1)
    for bit in bin(e)[2:]:
        r = _bsquare(p, r, rows, bit == "1")
    return _ieval_all(p, [_iunpack(ri) for ri in r])


def _ext_batch_shift(p, d):
    """s over F_{p^l}, where R is evaluated by Horner: the least s >= 0 with p >> s <= d^2.

    R's d coefficients then have y-degree e // d <= d, so each member's
    Horner work, about e + d field operations, stays under the 2 d^2 or so
    of one squaring mod the member that each bit of e saves it.
    """
    return (p // (d * d + 1)).bit_length()


def _ext_frobenius_columns(ctx, center):
    """_frobenius_columns over F_q = F_{p^l}: cols[i][c] for every raw c, as raws.

    e = p >> _ext_batch_shift(p, d): R(x, y) = x^e mod (center(x) + y) over
    F_q[y] comes from e products by x, each folding x^d into
    -y - sum_{i<d} center_i x^i, and each of its d coefficients is evaluated
    at every y in F_q by Horner.  The member with constant term c starts its
    x^p there (_RawArith.xq).
    """
    d = len(center) - 1
    add, mul = ctx.add, ctx.mul
    r = [[1]] + [[]] * (d - 1)
    for _ in range(ctx.p >> _ext_batch_shift(ctx.p, d)):
        top, r = r[-1], [[]] + r[:-1]
        if top:
            r = [_rsub(ctx, ri, [mul(t, ci) for t in top]) if ci else ri for ri, ci in zip(r, center)]
            r[0] = _rsub(ctx, r[0], [0] + top)
    cols = []
    for ri in r:
        col = [ri[-1] if ri else 0] * ctx.q
        for c in reversed(ri[:-1]):
            col = [add(mul(v, y), c) for y, v in enumerate(col)]
        cols.append(array("q", col))
    return cols


@cache
def _square_layout(m):
    """(unpack of m 64-bit slots, transpose of a flat column-major m x m list), cached per m."""
    transpose = itemgetter(*(i * m + j for j in range(m) for i in range(m)))
    return struct.Struct(f"<{m}Q").unpack, transpose


class _IntArith:
    """_ddf's arithmetic on int lists over F_p."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def deriv(self, g):
        p = self.p
        return _trim([i * g[i] % p for i in range(1, len(g))])

    def gcd(self, a, b):
        return _igcd_monic(self.p, a, b)

    def divmod(self, a, b):
        return _idivmod(self.p, a, b)

    def sub_x(self, h):
        hx = list(h) + [0] * (2 - len(h))
        hx[1] = (hx[1] - 1) % self.p
        return _trim(hx)

    def divide_roots(self, g, roots):
        """g / prod (x - r) over the given roots r of g, by synthetic division."""
        p = self.p
        for r in roots:
            acc, quo = 0, []
            for c in reversed(g[1:]):
                acc = (acc * r + c) % p
                quo.append(acc)
            g = quo[::-1]
        return g

    def is_square(self, c):
        return pow(c, (self.p - 1) // 2, self.p) == 1

    def xq(self, g, start=None, d=None):
        """x^p mod g (monic) and the power list [1, x^p] for step.

        Each bit of p after the first costs one symmetric squaring (each
        cross product taken once, doubled), a shift by x when the bit is
        set, and one reduction.  start, when given, is the coefficient list
        of x^e mod a multiple of g of degree d (deg g by default), for
        e = p >> s and s = _batch_shift(p, d), so only the s low bits of p
        are left.
        """
        p = self.p
        if start is None:
            h, bits = _ireduce(p, [0, 1], g), bin(p)[3:]
        else:  # start needs reducing only when g is a proper factor of the member
            h = _trim(list(start)) if len(start) < len(g) else _ireduce(p, list(start), g)
            bits = bin(p)[2 + p.bit_length() - _batch_shift(p, d or len(g) - 1):]
        for bit in bits:
            t = [0] * (2 * len(h) - 1)
            for i, hi in enumerate(h):
                if hi:
                    k = 2 * i
                    t[k] += hi * hi
                    hi2 = 2 * hi
                    for hj in h[i + 1:]:
                        k += 1
                        t[k] += hi2 * hj
            if bit == "1":
                t.insert(0, 0)
            h = _ireduce(p, t, g)
        return h, [[1], h]

    def grow(self, powers, g, n):
        """Extend powers = [H^0, H^1, ...] mod g (monic, degree m) to H^0, ..., H^(n-1).

        From m = 6 the m columns H x^k mod g of multiplication by H are packed
        into 64-bit slots (finite_field._ipack), each from the one before by
        shift-and-add: x * col is col moved up one slot, plus its top slot mod
        p times the packed -g_0..-g_(m-1).  A slot of column k then holds at
        most B = (p - 1) + k (p - 1)^2 since its column was last reduced, and
        a column is reduced mod p only where the m-term product could reach
        2^64, m (p - 1) B >= 2^64.  Each power costs m scalar products of
        packed ints.  Below m = 6, where the matrix costs more than it saves,
        and where m (p - 1)^2 >= 2^64, each is one _imulmod.  Each new power
        is written untrimmed, m coefficients long, as quadratic_count reads it.
        """
        if len(powers) >= n:
            return
        p, m = self.p, len(g) - 1
        if m < 6 or m * (p - 1) ** 2 >> 64:
            while len(powers) < n:
                row = _imulmod(p, powers[-1], powers[1], g)
                powers.append(row + [0] * (m - len(row)) if len(row) < m else row)
            return
        low = _ipack([-c % p for c in g[:m]])  # x^m = sum low_k x^k mod g
        top, below = 64 * (m - 1), (1 << 64 * (m - 1)) - 1
        col, bound = _ipack(powers[1]), p - 1
        cols = [col]
        for _ in range(m - 1):  # x * col mod g
            col = ((col & below) << 64) + (col >> top) % p * low
            bound += (p - 1) ** 2
            if m * (p - 1) * bound >> 64:
                col, bound = _islots_mod(col, p), p - 1
            cols.append(col)
        unpack, size = _square_layout(m)[0], 8 * m
        while len(powers) < n:
            acc = sum(map(mul, powers[-1], cols))
            powers.append([c % p for c in unpack(acc.to_bytes(size, "little"))])

    def quadratic_count(self, powers, g):
        """n_2, the number of quadratic factors of g (monic, squarefree, no root in F_p, p > deg g).

        powers = [1, x^p, ...] mod g grows to the columns x^(jp) mod g of
        Berlekamp's matrix Q, the Frobenius map of F_p[x]/(g), and tr(Q^2)
        is its number of roots in F_{p^2}, n_1 + 2 n_2 = 2 n_2, mod p.  The
        columns, m long from H^2 on (grow), make one flat column-major list,
        and tr(Q^2) = sum_ij Q_ij Q_ji is its dot product with its transpose.
        powers keeps its new rows for the steps past the trace.
        """
        flat = self._flat_q(powers, g)
        return sum(map(mul, flat, _square_layout(len(g) - 1)[1](flat))) % self.p // 2

    def cubic_count(self, powers, g):
        """n_3, the number of cubic factors of g (as in quadratic_count), as tr(Q^3) = n_1 + 3 n_3 mod p.

        Column k of Q^2 is Q times column k of Q: m scalar products of its
        entries with Q's columns packed into 64-bit slots, each slot a sum of
        m products below p^2, so below 2^64 for p < 10^7 (the sweep guard
        bounds every root-fed member) and m <= 12.  tr(Q^3) =
        sum_ij (Q^2)_ij Q_ji is then one flat dot product with Q's transpose.
        """
        m = len(g) - 1
        flat = self._flat_q(powers, g)
        packed = [_ipack(flat[j * m:(j + 1) * m]) for j in range(m)]
        square = chain.from_iterable(_iunpack(sum(map(mul, flat[k * m:(k + 1) * m], packed)), m)
                                     for k in range(m))
        return sum(map(mul, square, _square_layout(m)[1](flat))) % self.p // 3

    def _flat_q(self, powers, g):
        """Q's columns, x^(jp) mod g for j < m (grow), as one flat column-major list of m^2 entries."""
        m = len(g) - 1
        self.grow(powers, g, m)
        h = powers[1]
        flat = [1] + [0] * (m - 1) + h + [0] * (m - len(h))
        flat += chain.from_iterable(powers[2:m])
        return flat

    def step(self, h, powers, g, m):
        """h^p mod m for m dividing g, as h(H) = sum_k h_k * H^k.

        powers holds H^0, H^1, ... mod g, where H = x^p mod g, and grows on
        demand (grow).  The sum accumulates unreduced and is reduced once, mod m.
        """
        p = self.p
        self.grow(powers, g, len(h))
        acc = [0] * (len(g) - 1)
        for k, c in enumerate(h):
            if c:
                for j, v in enumerate(powers[k]):
                    acc[j] += c * v
        return _ireduce(p, acc, m)


class _RawArith:
    """_ddf's arithmetic on raw coefficient lists over any F_q, through the FieldCtx."""

    __slots__ = ("ctx", "is_square", "deriv", "gcd", "divmod")

    def __init__(self, ctx):
        self.ctx = ctx
        self.is_square = ctx.is_square
        self.deriv = partial(_rderiv, ctx)
        self.gcd = partial(_rgcd, ctx)
        self.divmod = partial(_rdivmod, ctx)

    def sub_x(self, h):
        return _rsub(self.ctx, h, [0, 1])

    def xq(self, g, start=None, d=None):
        """x^q mod g (monic, degree >= 1) and the power list [1, x^q] for step.

        x^p comes from square-and-multiply, or from start when given: the
        raw list of x^e mod g, of degree d (deg g by default; _ddf feeds no
        roots over F_{p^l}, so g is the whole member), for e = p >> s and
        s = _ext_batch_shift(p, d), so only the s low bits of p are left,
        each one squaring, a shift by x when it is set, and a reduction.
        The p-power map is semilinear:
        (sum h_k x^k)^p = sum frob(h_k) H^k with H = x^p mod g, so l - 1
        such steps carry x^p to x^q.
        """
        ctx, p = self.ctx, self.ctx.p
        if start is None:
            h = _rpow_poly_mod(ctx, [0, 1], p, g)
        else:
            h = _trim(list(start))
            for bit in bin(p)[2 + p.bit_length() - _ext_batch_shift(p, d or len(g) - 1):]:
                t = _rmul(ctx, h, h)
                h = _rdivmod(ctx, [0] + t if bit == "1" else t, g)[1]
        frob_powers = [[1], h]
        for _ in range(ctx.l - 1):
            h = self.step([ctx.frob(c) for c in h], frob_powers, g, g)
        return h, [[1], h]

    def step(self, h, powers, g, m):
        """h(P) mod m for m dividing g, with h's coefficients taken as they are.

        powers holds P^0, P^1, ... mod g and grows on demand.  The sum is
        built mod g and reduced once, mod m.
        """
        ctx = self.ctx
        while len(powers) < len(h):
            _, r = _rdivmod(ctx, _rmul(ctx, powers[-1], powers[1]), g)
            powers.append(r)
        add, mul = ctx.add, ctx.mul
        acc = [0] * (len(g) - 1)
        for c, pw in zip(h, powers):
            if c:
                for j, v in enumerate(pw):
                    acc[j] = add(acc[j], mul(c, v))
        _, r = _rdivmod(ctx, _trim(acc), m)
        return r


def _arith(ctx):
    """_ddf's arithmetic for ctx: int lists over F_p, raws through ctx otherwise."""
    return _IntArith(ctx.p) if ctx.l == 1 else _RawArith(ctx)


@cache
def _parity_table(m, i):
    """The partitions of m into parts > i: (those with an even, those with an odd number of parts).

    Each is a tuple of descending part tuples.  m = 0 has one, the empty
    partition; past _MAX_D both are empty, so _ddf never stops on them.
    """
    split = ([], []) if m else ([()], [])
    for ct in partitions_of(m) if 0 < m <= _MAX_D else ():
        if ct.parts[-1] > i:
            split[len(ct.parts) % 2].append(ct.parts)
    return tuple(split[0]), tuple(split[1])


def _sole_rest(m, i, count):
    """The one partition of m into parts > i with as many parts as count mod 2, or None."""
    rests = _parity_table(m, i)[count % 2]
    return rests[0] if len(rests) == 1 else None


def _ddf(ar, g, square, start=None, roots=None, n2=None):
    """Distinct-degree factorization of a squarefree monic coefficient list g.

    ar is the arithmetic: _IntArith over F_p, _RawArith over any F_q.
    Returns (cycle type, blocks): the factor degrees, descending, and pairs
    (block, i) with block the product of the degree-i factors.  Only x^q
    comes from powering, from start when given (see the two xq); each
    later x^(q^i) is an F_q-linear step, kept mod the unsplit part rem.

    roots, when given (over F_p), lists every root of g in F_p: their linear
    factors are divided out first, and the loop starts at degree 2 on the
    cofactor, which x^q and its powers are then kept modulo.

    square, when not None, tells whether disc(g) is a square in F_q (odd q):
    by Stickelberger's theorem, whether deg g minus the number of factors is
    even.  So it fixes the parity of the number of factors of rem, whose
    degree m parts does not name yet, and the one rule is: before step
    i + 1, where every factor of rem has degree > i, stop wherever
    _parity_table(m, i) holds exactly one partition of that parity.  A cubic
    of nonsquare discriminant is (2, 1) with no x^q.  Given roots too, a
    cofactor of degree m >= 6 (in the sweeps: degree >= 9, or type (5,3) or
    (4,4)) takes its n_2 quadratic factors from n2, or else as tr(Q^2) / 2,
    Q its Frobenius matrix on packed ints (tr(Q^k) = sum_(j | k) j n_j
    mod p, exact for p > m; _IntArith.grow and quadratic_count), and the
    rule names the rest, in parts > 2, where it can: every rest of degree
    <= 7, and (8).  Where it cannot, n_3 = tr(Q^3) / 3 (cubic_count) and
    the rule on parts > 3 name every cofactor of degree <= 9, with no
    x^(p^2) and no gcd.  Otherwise the loop goes on from x^(p^2), with no
    gcd at degree 2 when n_2 = 0.  The blocks stop short of what a stop
    names and hold no linear block when roots are given, so factor()
    passes neither.
    """
    blocks, h = [], None
    if roots is None:
        rem, parts, i = g, [], 0
    else:  # the linear factors come out first
        rem, parts, i = ar.divide_roots(g, roots), [1] * len(roots), 1
    m = len(rem) - 1  # the degree that parts does not name yet
    total = None if square is None else len(g) - square  # = the number of factors of g, mod 2
    while 2 * (i + 1) <= m:
        rest = None if total is None else _sole_rest(m, i, total - len(parts))
        if rest is not None:
            parts += rest
            m = 0
            break
        i += 1
        if h is None:
            mod = rem
            h, powers = ar.xq(mod) if start is None else ar.xq(mod, start, len(g) - 1)
            if i == 2:  # the linear factors are out
                if total is not None:
                    n2 = ar.quadratic_count(powers, mod) if n2 is None else n2
                    known = (2,) * n2
                    rest = _sole_rest(m - 2 * n2, 2, total - len(parts) - n2)
                    if rest is None:  # and n_3
                        known += (3,) * ar.cubic_count(powers, mod)
                        rest = _sole_rest(m - sum(known), 3, total - len(parts) - len(known))
                    if rest is not None:  # n_2 quadratic and n_3 cubic factors, and the rest
                        parts += known + rest
                        m = 0
                        break
                h = ar.step(h, powers, mod, rem)  # on to x^(q^2)
                if n2 == 0:  # and past it: gcd(rem, x^(q^2) - x) = 1
                    continue
        else:
            h = ar.step(h, powers, mod, rem)
        gi = ar.gcd(rem, ar.sub_x(h))
        if len(gi) > 1:
            parts += [i] * ((len(gi) - 1) // i)
            blocks.append((gi, i))
            rem = ar.divmod(rem, gi)[0]
            m = len(rem) - 1
            if m:
                h = ar.divmod(h, rem)[1]
    if m:
        parts.append(m)
        blocks.append((rem, m))
    parts.sort(reverse=True)
    return tuple(parts), blocks


def _pattern(ar, g, disc, start=None, roots=None, n2=None):
    """Cycle type of a monic coefficient list g, None if not squarefree.

    disc, when given, is disc(g) for odd q (the sweeps pass it): zero
    means g is not squarefree, and otherwise the gcd(g, g') test is skipped
    and its square class lets _ddf stop early.  start, roots and n2 are
    passed on to _ddf.
    """
    if disc is None:
        gp = ar.deriv(g)
        if not gp or len(ar.gcd(g, gp)) > 1:
            return None
    elif disc == 0:
        return None
    return _ddf(ar, g, None if disc is None else ar.is_square(disc), start, roots, n2)[0]


def _pattern_or_none_int(p, g, disc=None, start=None, roots=None, n2=None):
    """Cycle type of g (monic int list over F_p), None if not squarefree; see _pattern.

    start, from _frobenius_columns, is x^e mod g for the top bits e of p;
    roots, from the fiber pass, are all roots of g in F_p, and n2, from the
    pass over F_{p^2}, its number of quadratic factors.
    """
    return _pattern(_IntArith(p), g, disc, start, roots, n2)


def _pattern_or_none_generic(ctx, g, disc=None, start=None):
    """Cycle type of g (monic raw list over any F_q), None if not squarefree; see _pattern.

    start, from _ext_frobenius_columns, is x^e mod g for the top bits e of p.
    """
    return _pattern(_RawArith(ctx), g, disc, start)


def cycle_pattern_or_none(ctx, coeffs):
    """Cycle type (descending tuple) of a monic raw-coefficient list, or None."""
    return _pattern(_arith(ctx), list(coeffs), None)


# ---------------------------------------------------------------------------
# Poly


class Poly:
    """Dense univariate polynomial over a FieldCtx (immutable)."""

    __slots__ = ("ctx", "_c")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        raws = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.ctx != ctx:
                    raise CtxMismatch("coefficient from a different field")
                raws.append(c.raw)
            elif isinstance(c, int):
                raws.append(ctx.from_int(c))
            elif (
                isinstance(c, tuple)
                and ctx.l > 1
                and len(c) == ctx.l
                and all(isinstance(x, int) for x in c)
            ):
                raws.append(_undigits(ctx.p, [x % ctx.p for x in c]))
            else:
                raise OutOfRange(f"bad coefficient {c!r}")
        self.ctx = ctx
        self._c = tuple(_trim(raws))

    @classmethod
    def from_raw(cls, ctx, raws):
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj._c = tuple(_trim(list(raws)))
        return obj

    @classmethod
    def x(cls, ctx):
        return cls.from_raw(ctx, [0, 1])

    # -- views ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def raw_coeffs(self) -> tuple:
        return self._c

    @property
    def coeffs(self) -> tuple:
        return tuple(FieldElement(self.ctx, c) for c in self._c)

    def coeff(self, i: int) -> FieldElement:
        raw = self._c[i] if 0 <= i < len(self._c) else 0
        return FieldElement(self.ctx, raw)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def lc(self) -> FieldElement:
        if not self._c:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return FieldElement(self.ctx, self._c[-1])

    @property
    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    def canonical_key(self):
        """Sort key: (degree, coefficient indices ascending by power)."""
        return (self.degree, self._c)

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            raise CtxMismatch(f"expected Poly, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise CtxMismatch("polynomials over different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return Poly.from_raw(self.ctx, _radd(self.ctx, list(self._c), list(other._c)))

    def __sub__(self, other):
        other = self._check(other)
        return Poly.from_raw(self.ctx, _rsub(self.ctx, list(self._c), list(other._c)))

    def __neg__(self):
        return Poly.from_raw(self.ctx, [self.ctx.neg(c) for c in self._c])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if other.ctx != self.ctx:
                raise CtxMismatch("scalar from a different field")
            return Poly.from_raw(
                self.ctx, _trim([self.ctx.mul(c, other.raw) for c in self._c])
            )
        other = self._check(other)
        return Poly.from_raw(self.ctx, _rmul(self.ctx, list(self._c), list(other._c)))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._check(other)
        q, r = _rdivmod(self.ctx, list(self._c), list(other._c))
        return Poly.from_raw(self.ctx, q), Poly.from_raw(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise OutOfRange("negative polynomial power")
        acc = Poly.from_raw(self.ctx, [1])
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, Poly) and self.ctx == other.ctx and self._c == other._c
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.l, self._c))

    def __bool__(self):
        return bool(self._c)

    def monic(self) -> "Poly":
        return Poly.from_raw(self.ctx, _rmonic(self.ctx, list(self._c)))

    def shift_const(self, a) -> "Poly":
        """self + a for a field element (the interval parameter)."""
        raw = a.raw if isinstance(a, FieldElement) else self.ctx.from_int(a)
        c = list(self._c) if self._c else [0]
        c[0] = self.ctx.add(c[0], raw)
        return Poly.from_raw(self.ctx, c)

    def __call__(self, a):
        raw = a.raw if isinstance(a, FieldElement) else self.ctx.from_int(a)
        return FieldElement(self.ctx, _reval(self.ctx, self._c, raw))

    def __repr__(self):
        from .polyparse import format_poly

        return format_poly(self)


def poly_from_index(ctx, degree: int, idx: int, monic: bool = True) -> Poly:
    """The idx-th monic polynomial of the given degree in canonical order."""
    coeffs = _digits(ctx.q, degree, idx)
    if monic:
        coeffs.append(1)
    return Poly.from_raw(ctx, coeffs)


def random_monic(ctx, degree: int, rng: random.Random) -> Poly:
    return poly_from_index(ctx, degree, rng.randrange(ctx.q**degree))


# ---------------------------------------------------------------------------
# calculus


def derivative(f: Poly) -> Poly:
    """Formal derivative in characteristic p."""
    return Poly.from_raw(f.ctx, _rderiv(f.ctx, list(f._c)))


def second_hasse_schmidt(f: Poly) -> Poly:
    """Second Hasse-Schmidt derivative: sum C(i,2) a_i x^(i-2)."""
    ctx = f.ctx
    return Poly.from_raw(ctx, [ctx.scalar_mul(i * (i - 1) // 2, c) for i, c in enumerate(f._c[2:], 2)])


# ---------------------------------------------------------------------------
# gcd and squarefree structure


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(f, 0) = monic(f), gcd(0, 0) = 0."""
    if f.ctx != g.ctx:
        raise CtxMismatch("gcd over different fields")
    return Poly.from_raw(f.ctx, _rgcd(f.ctx, list(f._c), list(g._c)))


def is_squarefree(g: Poly) -> bool:
    """True iff g has no repeated irreducible factor.

    When g' = 0 the polynomial is a p-th power (F_q is perfect), hence not
    squarefree.
    """
    if g.degree < 1:
        raise OutOfRange("squarefree test needs degree >= 1")
    ctx = g.ctx
    gp = _rderiv(ctx, list(g._c))
    if not gp:
        return False
    return len(_rgcd(ctx, list(g._c), gp)) == 1


def _pth_root_raws(ctx, a):
    return _trim([ctx.pth_root(c) for c in a[::ctx.p]])


def _sqf_decompose(ctx, g):
    """Squarefree decomposition of a monic raw list: dict exponent -> raw list."""
    res = {}
    gp = _rderiv(ctx, g)
    if not gp:
        for e, s in _sqf_decompose(ctx, _pth_root_raws(ctx, g)).items():
            res[e * ctx.p] = s
        return res
    c = _rgcd(ctx, g, gp)
    w, _ = _rdivmod(ctx, g, c)
    i = 1
    while len(w) - 1 > 0:
        y = _rgcd(ctx, w, c)
        z, _ = _rdivmod(ctx, w, y)
        if len(z) - 1 > 0:
            res[i] = z
        w = y
        c, _ = _rdivmod(ctx, c, y)
        i += 1
    if len(c) - 1 > 0:
        for e, s in _sqf_decompose(ctx, _pth_root_raws(ctx, c)).items():
            key = e * ctx.p
            res[key] = _rmul(ctx, res[key], s) if key in res else s
    return res


def squarefree_decomposition(g: Poly):
    """g = unit * prod s_e^e with each s_e monic squarefree, pairwise coprime.

    Returns (unit, list of (Poly, exponent)) sorted by exponent.
    """
    if g.degree < 1:
        raise OutOfRange("decomposition needs degree >= 1")
    unit = g.lc()
    parts = _sqf_decompose(g.ctx, _rmonic(g.ctx, list(g._c)))
    out = [(Poly.from_raw(g.ctx, raws), e) for e, raws in sorted(parts.items())]
    return unit, out


# ---------------------------------------------------------------------------
# irreducibility and factorization


def is_irreducible(g: Poly) -> bool:
    """Rabin's test over F_q."""
    if g.degree < 1:
        raise OutOfRange("irreducibility needs degree >= 1")
    ctx = g.ctx
    d = g.degree
    if d == 1:
        return True
    m = _rmonic(ctx, list(g._c))
    # iterated q-power images x^(q^j) mod m for j = 1..d
    ar = _arith(ctx)
    t, powers = ar.xq(m)
    towers = {1: t}
    for j in range(2, d + 1):
        t = ar.step(t, powers, m, m)
        towers[j] = t
    if ar.sub_x(towers[d]):
        return False
    for r in _small_prime_factors(d):
        if len(ar.gcd(ar.sub_x(towers[d // r]), m)) != 1:
            return False
    return True


def degree_pattern(g: Poly) -> CycleType:
    """Cycle type of a squarefree monic g via distinct-degree factorization."""
    if g.degree < 1:
        raise OutOfRange("degree_pattern needs degree >= 1")
    work = _rmonic(g.ctx, list(g._c))
    pattern = cycle_pattern_or_none(g.ctx, work)
    if pattern is None:
        raise NotSquarefree(f"{g!r} has a repeated factor")
    return CycleType(pattern)


def _random_nonconstant(ctx, max_deg, rng):
    while True:
        raws = [rng.randrange(ctx.q) for _ in range(max_deg + 1)]
        raws = _trim(raws)
        if len(raws) - 1 >= 1:
            return raws


def _edf(ctx, u, m, rng):
    """Split a monic product of distinct degree-m irreducibles into factors."""
    out = []
    stack = [u]
    q = ctx.q
    while stack:
        v = stack.pop()
        dv = len(v) - 1
        if dv == m:
            out.append(v)
            continue
        while True:
            a = _random_nonconstant(ctx, dv - 1, rng)
            if ctx.p == 2:
                # trace map over F_2 splits for even q
                t = list(a)
                acc = list(a)
                for _ in range(ctx.l * m - 1):
                    t = _rpow_poly_mod(ctx, t, 2, v)
                    acc = _radd(ctx, acc, t)
                w = _rgcd(ctx, acc, v)
            else:
                b = _rpow_poly_mod(ctx, a, (q**m - 1) // 2, v)
                w = _rgcd(ctx, _rsub(ctx, b, [1]), v)
            dw = len(w) - 1
            if 0 < dw < dv:
                rest, _ = _rdivmod(ctx, v, w)
                stack.append(w)
                stack.append(rest)
                break
    return out


@dataclass(frozen=True)
class FactorizationResult:
    """Monic irreducible factors with multiplicities, plus the leading unit."""

    factors: tuple  # ((Poly, multiplicity), ...) canonically sorted
    unit: FieldElement

    @property
    def omega(self) -> int:
        """Number of distinct irreducible factors."""
        return len(self.factors)

    def reconstruct(self) -> Poly:
        ctx = self.unit.ctx
        acc = Poly.from_raw(ctx, [self.unit.raw])
        for poly, mult in self.factors:
            acc = acc * poly**mult
        return acc

    def multiset_degrees(self) -> tuple:
        degs = (poly.degree for poly, mult in self.factors for _ in range(mult))
        return tuple(sorted(degs, reverse=True))


def factor(g: Poly, seed: int = 0) -> FactorizationResult:
    """Full factorization: squarefree, then distinct-degree, then equal-degree.

    The factor set is independent of ``seed``; the seed only steers the
    random splitting elements inside Cantor-Zassenhaus.
    """
    if g.degree < 1:
        raise OutOfRange("factorization needs degree >= 1")
    ctx = g.ctx
    rng = None  # seeded at the first block that needs a split
    unit = g.lc()
    ar = _arith(ctx)
    found = []
    # every part of the squarefree decomposition is squarefree already
    for exponent, part in sorted(_sqf_decompose(ctx, _rmonic(ctx, list(g._c))).items()):
        for block, deg_i in _ddf(ar, part, None)[1]:
            if len(block) - 1 > deg_i:
                rng = rng or random.Random(f"edf/{seed}/{ctx.p}/{ctx.l}")
                found += ((Poly.from_raw(ctx, raws), exponent) for raws in _edf(ctx, block, deg_i, rng))
            else:
                found.append((Poly.from_raw(ctx, block), exponent))
    found.sort(key=lambda fm: fm[0].canonical_key())
    return FactorizationResult(tuple(found), unit)


def brute_force_factor(g: Poly) -> FactorizationResult:
    """Trial division by every monic polynomial of degree <= deg(g)/2.

    The independence oracle for factor(): it only divides, on raw lists
    (int lists over F_p), and is guarded so the enumeration stays desk-sized.
    """
    if g.degree < 1:
        raise OutOfRange("factorization needs degree >= 1")
    ctx = g.ctx
    if ctx.q ** ((g.degree + 1) // 2) > _BRUTE_FORCE_GUARD:
        raise TooLarge("brute-force factor guard exceeded")
    unit = g.lc()
    work = _rmonic(ctx, list(g._c))
    found = []
    for m in range(1, g.degree // 2 + 1):
        if len(work) - 1 < 2 * m:
            break
        for idx in range(ctx.q**m):
            cand = _digits(ctx.q, m, idx) + [1]  # poly_from_index(ctx, m, idx)
            mult = 0
            while len(work) - 1 >= m:
                quo, rem = _rdivmod(ctx, work, cand)
                if rem:
                    break
                work = quo
                mult += 1
            if mult:
                found.append((Poly.from_raw(ctx, cand), mult))
            if len(work) - 1 < 2 * m:
                break
    if len(work) > 1:
        found.append((Poly.from_raw(ctx, work), 1))
    found.sort(key=lambda fm: fm[0].canonical_key())
    return FactorizationResult(tuple(found), unit)


def roots_in_field(g: Poly):
    """All roots of g in its own coefficient field, sorted by canonical index."""
    if g.degree < 1:
        raise OutOfRange("root finding needs degree >= 1")
    ctx = g.ctx
    m = _rmonic(ctx, list(g._c))
    ar = _arith(ctx)
    h, _ = ar.xq(m)
    lin = ar.gcd(ar.sub_x(h), m)
    if len(lin) - 1 < 1:
        return []
    rng = random.Random(f"roots/{ctx.p}/{ctx.l}")
    roots = sorted(ctx.neg(raws[0]) for raws in _edf(ctx, lin, 1, rng))
    return [FieldElement(ctx, r) for r in roots]


# ---------------------------------------------------------------------------
# resultants and discriminants


def resultant(f: Poly, g: Poly) -> FieldElement:
    """Res(f, g) via the Euclidean remainder sequence."""
    if f.ctx != g.ctx:
        raise CtxMismatch("resultant over different fields")
    if f.is_zero or g.is_zero:
        raise ZeroInput("resultant of the zero polynomial")
    return FieldElement(f.ctx, _rresultant(f.ctx, list(f._c), list(g._c)))


def _rresultant(ctx, a, b):
    """Res(a, b) as a raw, for nonzero raw lists a and b."""
    res = 1
    negate = False
    if len(a) < len(b):
        if (len(a) - 1) % 2 == 1 and (len(b) - 1) % 2 == 1:
            negate = not negate
        a, b = b, a
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            res = ctx.mul(res, ctx.pow_raw(b[0], da))
            break
        _, r = _rdivmod(ctx, a, b)
        if not r:
            return 0
        dr = len(r) - 1
        if (da * db) % 2 == 1:
            negate = not negate
        res = ctx.mul(res, ctx.pow_raw(b[-1], da - dr))
        a, b = b, r
    return ctx.neg(res) if negate else res


def discriminant(g: Poly) -> FieldElement:
    """disc(g) = (-1)^(d(d-1)/2) Res(g, g') for monic g; 0 iff g not squarefree."""
    if g.degree < 1:
        raise OutOfRange("discriminant needs degree >= 1")
    if not g.is_monic:
        raise OutOfRange("discriminant expects a monic polynomial")
    ctx, d = g.ctx, g.degree
    gp = _rderiv(ctx, list(g._c))
    res = _rresultant(ctx, list(g._c), gp) if gp else 0
    return FieldElement(ctx, ctx.neg(res) if (d * (d - 1) // 2) % 2 == 1 else res)


def _charpoly(ctx, h):
    """det(tI - H) as a raw list, for a square matrix H of raws given by rows.

    Similarities with pivoting bring H to upper Hessenberg form, whose
    leading blocks' characteristic polynomials follow one from the ones
    before (Cohen, A Course in Computational Algebraic Number Theory, 2.2.4).
    """
    add, sub, mul = ctx.add, ctx.sub, ctx.mul
    h, n = [list(row) for row in h], len(h)
    for m in range(1, n - 1):  # clear column m - 1 below row m
        i = next((i for i in range(m, n) if h[i][m - 1]), m)
        h[i], h[m] = h[m], h[i]
        for row in h:
            row[i], row[m] = row[m], row[i]
        for i in range(m + 1, n):
            if h[i][m - 1]:
                u = ctx.div(h[i][m - 1], h[m][m - 1])
                h[i] = [sub(a, mul(u, b)) for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = add(row[m], mul(u, row[i]))
    polys = [[1]]
    for m in range(n):
        acc, t = _rmul(ctx, [ctx.neg(h[m][m]), 1], polys[m]), 1
        for i in range(1, m + 1):
            t = mul(t, h[m - i + 1][m - i])
            acc = _rsub(ctx, acc, [mul(mul(t, h[m - i][m]), c) for c in polys[m - i]])
        polys.append(acc)
    return polys[n]


def disc_in_t(f: Poly) -> Poly:
    """D(t) = disc(f + t) as a polynomial in t, for monic f of degree >= 2, in any F_q.

    With e = deg f' and the critical points xi the roots of f' (with
    multiplicity), Res(f + t, f') = (-1)^(d e) lc(f')^d prod (t + f(xi)),
    and the product is det(tI - M), M multiplication by -f on
    F_q[x]/(f' / lc f').  So D = (-1)^(d(d-1)/2 + d e) lc(f')^d det(tI - M)
    has degree e in every field: a nonzero constant when f' is one, and 0
    when f' = 0.  The critical values of f are the negatives of its roots.
    """
    if f.degree < 2:
        raise OutOfRange("disc_in_t needs degree >= 2")
    if not f.is_monic:
        raise OutOfRange("disc_in_t expects a monic polynomial")
    ctx, d = f.ctx, f.degree
    fp = _rderiv(ctx, list(f._c))
    if not fp:
        return Poly.from_raw(ctx, [])
    m = _rmonic(ctx, fp)
    e = len(m) - 1
    cols, col = [], _rdivmod(ctx, [ctx.neg(c) for c in f._c], m)[1]  # -f x^j mod m
    for _ in range(e):
        cols.append(col + [0] * (e - len(col)))
        col = _rdivmod(ctx, _rmul(ctx, col, [0, 1]), m)[1]
    scale = ctx.scalar_mul((-1) ** (d * (d - 1) // 2 + d * e), ctx.pow_raw(fp[-1], d))
    return Poly.from_raw(ctx, [ctx.mul(scale, c) for c in _charpoly(ctx, list(zip(*cols)))])


def _lagrange(ctx, nodes, values) -> Poly:
    full = [1]
    for x in nodes:
        full = _rmul(ctx, full, [ctx.neg(x), 1])
    acc = []
    for xj, vj in zip(nodes, values):
        numer, _ = _rdivmod(ctx, full, [ctx.neg(xj), 1])
        denom = _reval(ctx, numer, xj)
        scale = ctx.mul(vj, ctx.inv(denom))
        term = [ctx.mul(c, scale) for c in numer]
        acc = _radd(ctx, acc, term)
    return Poly.from_raw(ctx, acc)
