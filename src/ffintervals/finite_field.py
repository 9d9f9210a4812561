"""Exact arithmetic in F_p and F_{p^l}.

A field context (:class:`FieldCtx`) describes either a prime field F_p or a
degree-l extension F_p[y]/(m(y)) with a monic irreducible modulus m found by
deterministic search.  Every element is stored in one "raw" form, its
canonical index: the element with coefficients (c_0, ..., c_{l-1}) in [0, p),
low first, is the int sum(c_i * p^i) in [0, q).  So an F_p raw is the
residue itself, and in every field 0 and 1 are raws 0 and 1 and a
prime-subfield constant c is raw c.  The index is also the package's order
for enumeration and deterministic tie-breaking.  _digits and _undigits are
the only conversion between a raw and its coefficient list.
:class:`FieldElement` is a thin wrapper used at API boundaries; hot loops
elsewhere in the package work on raws directly through the context's
arithmetic methods.

For l > 1 and q <= _LOG_TABLE_CAP the context computes through discrete-log
tables built on first use from schoolbook arithmetic: ``_exp`` lists the
powers of a primitive element g, ``_log[a]`` is the exponent of raw a, and
``_zech`` holds the Zech logarithms log(1 + g^d).  Sums, products, inverses,
powers, Frobenius and the square test are then table lookups, and a raw
outside [0, q) or not an int raises instead of being read as some element.
Above the cap the schoolbook code is the only path: sums, differences and
negatives correct the int result digit by digit, with no lists, products
peel the digits in one pass, and inverses and powers run on coefficient lists.
Above the cap a raw outside [0, q) raises as well, in sums, products,
inverses and powers.
The tables are a cache: they take no part in equality, hashing or pickling.
make_extension memoizes its contexts, so within a process each field builds
its tables once, and a memoized context unpickles as the process's own,
with the tables that process built.

This leaf module also holds the one int-list polynomial layer over F_p
(_imul, _ireduce, _imulmod, _idivmod, _igcd_monic).  The schoolbook
extension arithmetic runs on it, and so does all F_p polynomial arithmetic
in polynomial.  Beside it, polynomials packed into one int (_ipack,
_iunpack, _islots_mod) carry the batched x^p and the Frobenius matrices
of the sweeps, and _ieval_all evaluates int-list polynomials at every point
of F_p.
"""

from __future__ import annotations

import functools
import struct
from array import array
from itertools import zip_longest

from .errors import CtxMismatch, NotPrime, OutOfRange

_MAX_P = 1 << 31  # residues stay machine-word sized; products fit in 64 bits
_MAX_EXT_DEGREE = 24
_LOG_TABLE_CAP = 2**14  # largest q with log tables; at q = 2^14 they hold 5.4 MB


def _small_prime_factors(n: int):
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24 (we only need < 2^31)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digits(p: int, l: int, a: int) -> list:
    """The first l base-p digits of a, least significant first.

    For a raw a these are the coefficients of its element over F_p; with the
    base q they are the coefficients behind a polynomial's enumeration index.
    """
    out = []
    for _ in range(l):
        out.append(a % p)
        a //= p
    return out


def _undigits(p: int, coeffs) -> int:
    """The raw of the element with these coefficients in [0, p), low first."""
    a = 0
    for c in reversed(coeffs):
        a = a * p + c
    return a


# ---------------------------------------------------------------------------
# Int-list polynomials over F_p: ascending, trimmed, [] is zero.


def _ireduce(p, t, m):
    """t mod m for monic m, reduced mod p.

    t may hold unreduced (even negative) ints; it is consumed.  Each
    coefficient is reduced mod p once: the leading ones when they are
    eliminated, the rest on output.
    """
    dm = len(m) - 1
    low = m[:dm]
    for i in range(len(t) - 1, dm - 1, -1):
        c = t[i] % p
        if c:
            k = i - dm
            for mj in low:
                t[k] -= c * mj
                k += 1
    t = [c % p for c in t[:dm]]
    while t and t[-1] == 0:
        t.pop()
    return t


def _imul(a, b):
    """a * b with unreduced int coefficients; [] when either factor is."""
    if not a or not b:
        return []
    t = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            k = i
            for bj in b:
                t[k] += ai * bj
                k += 1
    return t


def _imulmod(p, a, b, m):
    """a * b mod m for monic m; products accumulate unreduced."""
    return _ireduce(p, _imul(a, b), m)


def _idivmod(p, a, b):
    """(a // b, a % b) for a trimmed and reduced mod p and b trimmed and nonzero.

    Both outputs are trimmed.
    """
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    low = b[:db]
    quo = []
    for i in range(len(a) - 1, db - 1, -1):
        c = a.pop() * inv % p
        quo.append(c)
        if c:
            k = i - db
            for bj in low:
                a[k] = (a[k] - c * bj) % p
                k += 1
    quo.reverse()
    while a and a[-1] == 0:
        a.pop()
    return quo, a


def _igcd_monic(p, a, b):
    """The monic gcd of a and b (empty when both are zero)."""
    while b:
        a, b = b, _idivmod(p, a, b)[1]
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


# Packed int polynomials (Kronecker substitution): the coefficients of
# sum c_i y^i, each in [0, 2^w), are the w-bit slots of one int, lowest
# first, so a polynomial product is one big-int product as long as no slot
# sum of it reaches 2^w.  Slots are w = 64 or 32 bits wide (_islot_width),
# read and written little-endian by name (struct's "<Q" and "<I"), whatever
# the host's byte order.


_SLOT_CODES = {32: "I", 64: "Q"}


def _islot_width(bound):
    """The slot width, 32 or 64 bits, for slot sums of at most bound: 32 where bound < 2^32."""
    return 32 if bound >> 32 == 0 else 64


def _ipack(cs, width=64):
    """The ints cs, each in [0, 2^width), as the width-bit slots of one int."""
    return int.from_bytes(struct.pack(f"<{len(cs)}{_SLOT_CODES[width]}", *cs), "little")


def _iunpack(n, count=None, width=64):
    """The count lowest width-bit slots of n >= 0 (all of them by default), lowest first.

    n must be below 2^(width * count).
    """
    if count is None:
        count = -(-n.bit_length() // width)
    return struct.unpack(f"<{count}{_SLOT_CODES[width]}", n.to_bytes(width // 8 * count, "little"))


def _islots_mod(n, p):
    """The packed int n (64-bit slots) with each slot reduced mod p."""
    return _ipack([c % p for c in _iunpack(n)])


def _primitive_root(p):
    """The least generator of F_p^*."""
    exps = [(p - 1) // r for r in _small_prime_factors(p - 1)]
    return next(g for g in range(1, p) if all(pow(g, e, p) != 1 for e in exps))


def _ieval_all(p, polys):
    """Each int-list polynomial over F_p at every c in F_p, as columns col[c].

    A chirp (Bluestein) transform: with g a primitive root and
    ij = C(i + j, 2) - C(i, 2) - C(j, 2),
    a(g^j) = g^-C(j,2) * sum_i (a_i g^-C(i,2)) g^C(i+j,2),
    a correlation with the chirp g^C(k,2), which is one packed product per
    polynomial.  Each slot of it is a sum of at most n products below p^2,
    n the longest coefficient list: the slots are 32 bits wide where
    n * (p - 1)^2 < 2^32 (_islot_width), and 64 bits wide otherwise, where
    n * (p - 1)^2 < 2^64 is required.  A column holds one machine word per c.
    """
    n = max(1, max(map(len, polys)))
    m = p - 1  # the points g^0, ..., g^(p - 2)
    g = _primitive_root(p)
    ginv = pow(g, p - 2, p)
    chirp, ichirp, points = array("q"), array("q"), array("q")
    x = xi = gk = gik = 1  # g^C(k,2), g^-C(k,2), g^k, g^-k
    for k in range(n + m - 1):
        chirp.append(x)
        ichirp.append(xi)
        points.append(gk)
        x, xi = x * gk % p, xi * gik % p
        gk, gik = gk * g % p, gik * ginv % p
    width = _islot_width(n * (p - 1) ** 2)
    v = _ipack(chirp, width)
    cols = []
    for a in polys:
        a = list(a) + [0] * (n - len(a))
        # u holds a_i g^-C(i,2) reversed, so slot n - 1 + j of u * v is the sum for g^j
        u = _ipack([c * ichirp[i] % p for i, c in enumerate(a)][::-1], width)
        s = _iunpack(u * v, 2 * n + m - 2, width)[n - 1:n - 1 + m]
        col = array("q", bytes(8 * p))
        col[0] = a[0]
        for c, sj, w in zip(points, s, ichirp):
            col[c] = sj * w % p
        cols.append(col)
    return cols


class FieldCtx:
    """Immutable description of F_q = F_{p^l}, owner of element arithmetic."""

    __slots__ = ("p", "l", "modulus", "q", "_base", "_exp", "_log", "_zech", "_log_neg1")
    zero_raw = 0
    one_raw = 1

    def __init__(self, p: int, l: int = 1, modulus: tuple | None = None, _base=None):
        self.p = p
        self.l = l
        self.modulus = modulus
        self.q = p**l
        self._exp = self._log = self._zech = self._log_neg1 = None
        if _base is not None:
            self._base = _base
        elif l > 1:
            self._base = FieldCtx(p, 1, None)
        else:
            self._base = self

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.l == other.l
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.l, self.modulus))

    def __repr__(self):
        if self.l == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.l}"

    def __reduce__(self):
        return (_context, (self.p, self.l, self.modulus))

    def prime_field(self) -> "FieldCtx":
        """The prime subfield F_p as a context."""
        return self._base

    # -- raw arithmetic ------------------------------------------------------

    def is_zero(self, a) -> bool:
        return a == 0

    def _outside(self):
        return IndexError(f"raw outside [0, {self.q})")

    def _check(self, a):
        """a, or IndexError when it is not in [0, q) (the schoolbook path)."""
        if not 0 <= a < self.q:
            raise self._outside()
        return a

    def add(self, a, b):
        if self.l == 1:
            return (a + b) % self.p
        if self.q > _LOG_TABLE_CAP:
            # a + b, less p^(i+1) for each digit i whose sum reaches p; after
            # l digits a raw in [0, q) is 0, any other int is not
            p = self.p
            r, s = a + b, p
            for _ in range(self.l):
                if a % p + b % p >= p:
                    r -= s
                a //= p
                b //= p
                s *= p
            if a or b:
                raise self._outside()
            return r
        log = self._log or self._logs()
        if (a | b) < 0:
            raise self._outside()
        la = log[a]
        return self._exp[la + self._zech[log[b] - la]]

    def sub(self, a, b):
        if self.l == 1:
            return (a - b) % self.p
        if self.q > _LOG_TABLE_CAP:
            # a - b, plus p^(i+1) for each digit i where b's digit is larger
            p = self.p
            r, s = a - b, p
            for _ in range(self.l):
                if a % p < b % p:
                    r += s
                a //= p
                b //= p
                s *= p
            if a or b:
                raise self._outside()
            return r
        log = self._log or self._logs()
        if (a | b) < 0:
            raise self._outside()
        exp = self._exp
        la = log[a]
        minus_b = exp[log[b] + self._log_neg1]
        return exp[la + self._zech[log[minus_b] - la]]

    def neg(self, a):
        if self.l == 1:
            return -a % self.p
        if self.q > _LOG_TABLE_CAP:
            return self.sub(0, a)
        log = self._log or self._logs()
        if a < 0:
            raise self._outside()
        return self._exp[log[a] + self._log_neg1]

    def mul(self, a, b):
        if self.l == 1:
            return a * b % self.p
        if self.q > _LOG_TABLE_CAP:
            if not (0 <= a < self.q and 0 <= b < self.q):
                raise self._outside()
            return self._mul_poly(a, b)
        log = self._log or self._logs()
        if (a | b) < 0:
            raise self._outside()
        return self._exp[log[a] + log[b]]

    def _mul_poly(self, a, b):
        """Schoolbook product mod the modulus (l > 1), reduced as in _ireduce.

        Done in one pass over the digits: on the small l of critical-data
        extensions, list conversions would cost as much as the product.
        """
        p, l = self.p, self.l
        x = _digits(p, l, a)
        t = [0] * (2 * l - 1)
        for j in range(l):
            y = b % p
            b //= p
            if y:
                k = j
                for xi in x:
                    t[k] += xi * y
                    k += 1
        low = self.modulus[:l]
        for k in range(2 * l - 2, l - 1, -1):
            c = t[k] % p
            if c:
                i = k - l
                for mj in low:
                    t[i] -= c * mj
                    i += 1
        r = 0
        for k in range(l - 1, -1, -1):
            r = r * p + t[k] % p
        return r

    def _pow_poly(self, a, e: int):
        """Square-and-multiply on coefficient lists (l > 1, e >= 0)."""
        p, m = self.p, self.modulus
        acc, base = [1], _digits(p, self.l, self._check(a))
        while e:
            if e & 1:
                acc = _imulmod(p, acc, base, m)
            base = _imulmod(p, base, base, m)
            e >>= 1
        return _undigits(p, acc)

    def _logs(self):
        """The log table, built on first use; None for l == 1 and above the cap.

        With n = q - 1 and g the first element of canonical index >= p whose
        order is n (found by schoolbook powers), _exp[i] = g^(i mod n) for
        i < 2n, so a sum of two logs needs no reduction.  _log is a list
        indexed by raw: a raw >= q fails the lookup, and the callers reject a
        negative raw, which the list would wrap, and a non-int one before it.
        Zero gets log 2n and _exp[2n:] is zero through index 4n, so a product
        with zero needs no branch either.  -1 = g^_log_neg1.

        _zech[d] = log(1 + g^d) for |d| < n (negative d index from the end),
        so a + b = g^la * (1 + g^(lb - la)).  Two more bands make a zero
        operand branch-free as well: for a = 0, d = lb - 2n lies in
        [-2n, -n) and _zech holds d itself there, giving _exp[lb]; for b = 0,
        d = 2n - la lies in (n, 2n] and _zech holds 0, giving _exp[la].
        """
        if self._log is not None or self.l == 1 or self.q > _LOG_TABLE_CAP:
            return self._log
        p, n = self.p, self.q - 1
        cofactors = [n // r for r in _small_prime_factors(n)]
        for g in range(p, self.q):
            if all(self._pow_poly(g, c) != 1 for c in cofactors):
                break
        powers = [1]
        for _ in range(n - 1):
            powers.append(self._mul_poly(powers[-1], g))
        log = [2 * n] * self.q
        for i, r in enumerate(powers):
            log[r] = i
        # 1 + r adds one to the low digit of r, which wraps from p - 1 to 0
        ones = [log[r + 1 - p if r % p == p - 1 else r + 1] for r in powers]
        self._zech = ones + [0] * (n + 1) + list(range(-2 * n, -n)) + [0] + ones[1:]
        self._log_neg1 = n // 2 if p != 2 else 0
        self._exp = powers * 2 + [0] * (2 * n + 1)
        self._log = log
        return log

    def scalar_mul(self, k: int, a):
        """Multiply by an integer scalar (k reduced mod p)."""
        return self.mul(k % self.p, a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.l == 1:
            return pow(a, self.p - 2, self.p)
        log = self._logs()
        if log is not None:
            if a < 0:
                raise self._outside()
            return self._exp[self.q - 1 - log[a]]
        # extended Euclid on r_i = u_i * a mod the modulus, u_i kept mod it too
        p, m = self.p, self.modulus
        r0, r1 = list(m), _idivmod(p, _digits(p, self.l, self._check(a)), m)[1]
        u0, u1 = [], [1]
        while r1:
            quo, rem = _idivmod(p, r0, r1)
            r0, r1 = r1, rem
            qu = _imulmod(p, quo, u1, m)
            u0, u1 = u1, [(x - y) % p for x, y in zip_longest(u0, qu, fillvalue=0)]
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible (modulus not irreducible?)")
        inv = pow(r0[0], p - 2, p)
        return _undigits(p, [c * inv % p for c in u0])

    def div(self, a, b):
        log = self._logs()
        if log is None:
            return self.mul(a, self.inv(b))
        if b == 0:
            raise ZeroDivisionError("inverse of zero")
        if (a | b) < 0:
            raise self._outside()
        return self._exp[log[a] + self.q - 1 - log[b]]

    def pow_raw(self, a, e: int):
        if e < 0:
            return self.pow_raw(self.inv(a), -e)
        if self.l == 1:
            return pow(a, e, self.p)
        log = self._logs()
        if log is None:
            return self._pow_poly(a, e)
        if a < 0:
            raise self._outside()
        k, n = log[a], self.q - 1
        if k == 2 * n:  # zero
            return 0 if e else 1
        return self._exp[k * e % n]

    def frob(self, a):
        """Frobenius a -> a^p."""
        return self.pow_raw(a, self.p)

    def pth_root(self, a):
        """Inverse of Frobenius; a^(p^(l-1))."""
        return self.pow_raw(a, self.q // self.p)

    def is_square(self, a) -> bool:
        """True iff a = b^2 for some b in F_q; 0 counts as a square.

        In characteristic 2 every element is a square.  For odd q this is
        the parity of the discrete log, or Euler's criterion above the cap.
        """
        if self.p == 2:
            return True
        log = self._logs()
        if log is not None:
            if a < 0:
                raise self._outside()
            return log[a] % 2 == 0
        if a == 0:
            return True
        return self.pow_raw(a, (self.q - 1) // 2) == 1

    # -- canonical index: the raw itself ------------------------------------

    def raw_from_index(self, idx: int):
        if not 0 <= idx < self.q:
            raise OutOfRange(f"index {idx} outside [0, {self.q})")
        return idx

    def from_int(self, n: int):
        """Embed an integer as a prime-subfield constant (raw form)."""
        return n % self.p

    # -- element wrapper ----------------------------------------------------

    def elem(self, raw) -> "FieldElement":
        return FieldElement(self, raw)

    def element_from_index(self, idx: int) -> "FieldElement":
        return FieldElement(self, self.raw_from_index(idx))

    def __call__(self, n: int) -> "FieldElement":
        return FieldElement(self, self.from_int(n))

    def elements(self):
        """All elements in canonical index order (generator)."""
        for idx in range(self.q):
            yield FieldElement(self, idx)


def _binop(name: str, swap: bool = False):
    """A FieldElement operator: FieldCtx.<name> on the two raws, as an element.

    The context method is looked up per call, so a patched one is used.
    """

    def op(self, other):
        raw = self._coerce(other)
        if raw is NotImplemented:
            return NotImplemented
        a, b = (raw, self.raw) if swap else (self.raw, raw)
        return FieldElement(self.ctx, getattr(self.ctx, name)(a, b))

    return op


class FieldElement:
    """An element of a FieldCtx; immutable, hashable, with operator overloads."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx: FieldCtx, raw):
        self.ctx = ctx
        self.raw = raw

    @property
    def coeffs(self) -> tuple:
        return tuple(_digits(self.ctx.p, self.ctx.l, self.raw))

    @property
    def index(self) -> int:
        return self.raw

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.ctx != self.ctx:
                raise CtxMismatch(f"elements of {self.ctx} and {other.ctx}")
            return other.raw
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return NotImplemented

    __add__ = __radd__ = _binop("add")
    __sub__ = _binop("sub")
    __rsub__ = _binop("sub", swap=True)
    __mul__ = __rmul__ = _binop("mul")
    __truediv__ = _binop("div")
    __rtruediv__ = _binop("div", swap=True)

    def __pow__(self, e: int):
        return FieldElement(self.ctx, self.ctx.pow_raw(self.raw, e))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx.neg(self.raw))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.ctx == other.ctx and self.raw == other.raw
        if isinstance(other, int):
            return self.raw == self.ctx.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.l, self.raw))

    def __bool__(self):
        return self.raw != 0

    def __repr__(self):
        return ":".join(str(c) for c in self.coeffs)


def make_prime_field(p: int) -> FieldCtx:
    """Build F_p, verifying primality deterministically."""
    if p < 2:
        raise OutOfRange(f"characteristic must be >= 2, got {p}")
    if p >= _MAX_P:
        raise OutOfRange(f"characteristic must be < 2^31, got {p}")
    if not is_prime(p):
        raise NotPrime(f"{p} is composite")
    return FieldCtx(p, 1, None)


def make_extension(base: FieldCtx, l: int, seed: int = 0) -> FieldCtx:
    """Build F_{p^l} over a prime field by deterministic modulus search.

    Candidates x^l + (lower part) are tried in canonical index order of the
    lower coefficient vector, starting at an offset derived from ``seed``;
    identical inputs always give the identical modulus.
    """
    if base.l != 1:
        raise OutOfRange("extension base must be a prime field")
    if l < 1:
        raise OutOfRange(f"extension degree must be >= 1, got {l}")
    if l > _MAX_EXT_DEGREE:
        raise OutOfRange(f"extension degree capped at {_MAX_EXT_DEGREE}, got {l}")
    if l == 1:
        return base
    return _extension(base, l, seed)


_contexts = {}  # (p, l, modulus) -> this process's one context for that field


def _context(p: int, l: int, modulus):
    """Unpickle a FieldCtx as the process's one context for it, memoizing it if new.

    A process that unpickles many copies of a context new to it thus
    builds that field's tables once, not once per copy.
    """
    return _contexts.setdefault((p, l, modulus), FieldCtx(p, l, modulus))


@functools.lru_cache(maxsize=None)
def _extension(base: FieldCtx, l: int, seed: int) -> FieldCtx:
    """The modulus search behind make_extension, memoized per (base, l, seed).

    Contexts are immutable and their tables a cache, so every caller in a
    process shares one context per (p, l, modulus), found by _context too,
    and its tables are built once.
    """
    from .polynomial import Poly, is_irreducible

    p = base.p
    total = p**l
    start = seed % total
    for off in range(total):
        low = _digits(p, l, (start + off) % total)
        cand = Poly(base, low + [1])
        if is_irreducible(cand):
            modulus = tuple(low + [1])
            return _contexts.setdefault((p, l, modulus), FieldCtx(p, l, modulus, _base=base))
    raise NotPrime("no irreducible modulus found (unreachable for prime p)")


def frobenius(a: FieldElement) -> FieldElement:
    """The p-power map a -> a^p; applying it l times is the identity."""
    return FieldElement(a.ctx, a.ctx.frob(a.raw))


def in_prime_subfield(a: FieldElement) -> bool:
    """True iff a is fixed by Frobenius, i.e. lies in F_p."""
    return a.ctx.frob(a.raw) == a.raw


def to_prime_subfield(a: FieldElement) -> FieldElement:
    """Express a prime-subfield element of an extension as an F_p element."""
    if not in_prime_subfield(a):
        raise OutOfRange(f"{a!r} is not in the prime subfield")
    return FieldElement(a.ctx.prime_field(), a.raw)
