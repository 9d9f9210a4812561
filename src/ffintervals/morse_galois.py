"""Critical values, the Morse test, bad shift sets, and Möbius parity tools.

The Morse test, bad shifts and B(f) read f through one polynomial over the
base field, D(t) = disc(f + t) (disc_in_t, in every field), whose roots are
the negated critical values: f is Morse exactly when deg f' = d - 1 and D is
squarefree, and the differences of critical values are those of the roots
of D.  So none of them builds an extension, at any q = p^l.  The genericity
scan for p > d tests squarefreeness of D for every slope at once
(interval_lab.morse_density_scan), and runs is_morse per slope otherwise.

critical_data (the CLI morse report, and the tests' oracle) extracts the
critical points in a common extension F_{q^M}, M the lcm of the degrees of
the irreducible factors of f'.  All roots are extracted directly inside that
one extension, so no cross-tower embeddings are needed; when the base field
is itself an extension, it is embedded once via a root of its modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DerivativeVanishes,
    EvenCharacteristic,
    ExtensionTooLarge,
    OutOfRange,
)
from .finite_field import _MAX_EXT_DEGREE, FieldCtx, FieldElement, _digits, make_extension
from .polynomial import (
    Poly,
    _charpoly,
    _rmonic,
    derivative,
    disc_in_t,
    discriminant,
    factor,
    gcd,
    is_squarefree,
    roots_in_field,
    second_hasse_schmidt,
    squarefree_decomposition,
)

NO_CANCELLATION = "no-cancellation"
SQRT_CANCELLATION = "square-root-cancellation"


@dataclass(frozen=True)
class CriticalData:
    """Critical points and values of f inside one common extension."""

    ext_ctx: FieldCtx
    points: tuple  # ((FieldElement in ext_ctx, multiplicity), ...) by index
    values: tuple  # FieldElement in ext_ctx, aligned with points
    distinct_value_count: int
    gen_image: object = None  # image of the base generator inside ext_ctx

    def value_set_raws(self):
        return {v.raw for v in self.values}


@dataclass(frozen=True)
class CancellationVerdict:
    """Outcome of the discriminant-square test for Möbius sums over I(f)."""

    kind: str  # NO_CANCELLATION or SQRT_CANCELLATION
    sign: int | None  # +-1, present only for NO_CANCELLATION
    witness_disc: Poly  # D(t) = disc of f + t
    witness_exponents: tuple  # exponents in the squarefree decomposition of D


def _embed_raw(cd_ext, src_ctx, gen_image, raw):
    """Embed a src_ctx raw into the extension used for critical data.

    gen_image is None when cd_ext is src_ctx or src_ctx is a prime field; a
    raw keeps its index then.  Otherwise the raw's coefficients are read at
    gen_image, the image of the generator of src_ctx.
    """
    if gen_image is None:
        return raw
    acc = 0
    for c in reversed(_digits(src_ctx.p, src_ctx.l, raw)):
        acc = cd_ext.add(cd_ext.mul(acc, gen_image), c)
    return acc


def critical_data(f: Poly) -> CriticalData:
    """Factor f', build the common extension, and extract all critical points."""
    ctx = f.ctx
    if f.degree < 2 or not f.is_monic:
        raise OutOfRange("critical data needs a monic polynomial of degree >= 2")
    fp = derivative(f)
    if fp.is_zero:
        raise DerivativeVanishes("f' = 0; no critical point data")
    if fp.degree == 0:  # p | d and f' a nonzero constant: no critical points
        return CriticalData(ctx, (), (), 0)
    fac = factor(fp)
    m_lcm = 1
    for poly, _ in fac.factors:
        m_lcm = math.lcm(m_lcm, poly.degree)
    if m_lcm > _MAX_EXT_DEGREE:
        raise ExtensionTooLarge(f"needs F_(q^{m_lcm}), cap is {_MAX_EXT_DEGREE}")

    gen_image = None
    if m_lcm == 1:
        ext = ctx
    elif ctx.l == 1:
        ext = make_extension(ctx, m_lcm, 0)
    else:
        total = ctx.l * m_lcm
        if total > _MAX_EXT_DEGREE:
            raise ExtensionTooLarge(f"needs F_(p^{total}), cap is {_MAX_EXT_DEGREE}")
        ext = make_extension(ctx.prime_field(), total, 0)
        mod_poly = Poly(ext, [int(c) for c in ctx.modulus])
        gen_image = roots_in_field(mod_poly)[0].raw

    def lift(poly):
        return Poly.from_raw(
            ext, [_embed_raw(ext, ctx, gen_image, c) for c in poly.raw_coeffs]
        )

    f_ext = lift(f)
    points = []
    for poly, mult in fac.factors:
        for root in roots_in_field(lift(poly)):
            points.append((root, mult))
    points.sort(key=lambda pm: pm[0].index)
    values = tuple(f_ext(pt) for pt, _ in points)
    distinct = len({v.raw for v in values})
    return CriticalData(ext, tuple(points), values, distinct, gen_image)


def _distinct_root_count(poly: Poly) -> int:
    """Number of distinct roots of poly in the algebraic closure."""
    if poly.degree < 1:
        return 0
    _, parts = squarefree_decomposition(poly)
    return sum(s.degree for s, _ in parts)


def is_morse(f: Poly):
    """Morse test: deg f' = d - 1, f' squarefree, d - 1 distinct critical values.

    Returns (bool, diagnostics).  Diagnostics carry a warning flag when
    gcd(q, 2d) != 1, in which case Morse does not force the full symmetric
    group.
    """
    ctx = f.ctx
    d = f.degree
    if d < 2 or not f.is_monic:
        raise OutOfRange("Morse test needs a monic polynomial of degree >= 2")
    fp = derivative(f)
    diag = {
        "deg_derivative": fp.degree,
        "coprimality_warning": math.gcd(ctx.q, 2 * d) != 1,
        "hasse_schmidt_vanishes": second_hasse_schmidt(f).is_zero,
    }
    if fp.is_zero:
        diag.update(derivative_squarefree=False, distinct_value_count=0)
        return False, diag
    diag["derivative_squarefree"] = fp.degree < 1 or is_squarefree(fp)
    diag["distinct_value_count"] = _distinct_root_count(disc_in_t(f))
    return fp.degree == d - 1 and diag["distinct_value_count"] == d - 1, diag


def _disc_or_raise(f: Poly) -> Poly:
    """disc_in_t(f), or DerivativeVanishes where f' = 0 and f has no critical point data."""
    dpoly = disc_in_t(f)
    if dpoly.is_zero:
        raise DerivativeVanishes("f' = 0; no critical point data")
    return dpoly


def bad_set(f: Poly):
    """B(f): the nonzero differences of critical values that lie in the prime field F_p.

    The k roots of D are the eigenvalues of the companion matrix C of D / lc,
    so det(hI - (C (x) 1 - 1 (x) C)) = h^k R(h) has the differences of
    pairs of them as roots, h^k from the k pairs of equal indices; B(f) is
    the set of roots of R in F_p^*, closed under negation.
    """
    ctx = f.ctx
    c = _rmonic(ctx, list(_disc_or_raise(f).raw_coeffs))
    k = len(c) - 1
    comp = [[ctx.neg(c[i]) if j == k - 1 else int(i == j + 1) for j in range(k)] for i in range(k)]
    pairs = [(i, j) for i in range(k) for j in range(k)]
    kron = [[ctx.sub(comp[i][a] * (j == b), comp[j][b] * (i == a)) for a, b in pairs] for i, j in pairs]
    r = Poly.from_raw(ctx, _charpoly(ctx, kron)[k:])
    roots = roots_in_field(r) if r.degree >= 1 else ()
    # the prime subfield's raws are 0..p - 1, each its F_p raw
    return {FieldElement(ctx.prime_field(), h.raw) for h in roots if 0 < h.raw < ctx.p}


def bad_shift_check(f: Poly, shifts) -> bool:
    """True iff some nonzero difference of shifts is a critical value difference.

    Shifts live in f's coefficient field (the demo uses extension elements).
    The D of f + h is D(t + h), so h_i - h_j is a difference of critical
    values exactly when the D of f + h_i and of f + h_j have a gcd other
    than 1: B(f) intersected with (H - H) \\ {0}, in the base field.
    """
    ctx = f.ctx
    hs = [h if isinstance(h, FieldElement) else ctx(h) for h in shifts]
    if len({h.raw for h in hs}) != len(hs):
        raise OutOfRange("shifts must be distinct")
    if len(hs) < 2:
        return False
    ds = [_disc_or_raise(f.shift_const(h)) for h in hs]
    return any(gcd(d1, d2).degree > 0 for i, d1 in enumerate(ds) for d2 in ds[:i])


def classify_mu_cancellation(f: Poly) -> CancellationVerdict:
    """Decide the Möbius cancellation dichotomy for I(f) via D(t) = disc(f + t).

    If every exponent in the squarefree decomposition of D is even (none
    when D is a nonzero constant), the Möbius value has constant sign
    (-1)^d * chi(c) on squarefree members of the interval, where c is the
    leading unit of D and chi the quadratic character; otherwise the interval
    exhibits square-root cancellation.  By Stickelberger this holds in any odd
    characteristic and at every odd q; raises DerivativeVanishes for f' = 0,
    where D = 0.
    """
    ctx = f.ctx
    if ctx.p == 2:
        raise EvenCharacteristic("classifier needs odd characteristic")
    dpoly = disc_in_t(f)
    if dpoly.is_zero:
        raise DerivativeVanishes("f' = 0: D(t) = disc(f + t) vanishes")
    unit, parts = (dpoly.lc(), ()) if dpoly.degree == 0 else squarefree_decomposition(dpoly)
    exponents = tuple(e for _, e in parts)
    if all(e % 2 == 0 for e in exponents):
        chi = 1 if ctx.is_square(unit.raw) else -1
        sign = chi if f.degree % 2 == 0 else -chi
        return CancellationVerdict(NO_CANCELLATION, sign, dpoly, exponents)
    return CancellationVerdict(SQRT_CANCELLATION, None, dpoly, exponents)


def stickelberger_mu(g: Poly) -> int:
    """Möbius value via the discriminant's quadratic-residue class (odd q).

    Returns 0 when disc(g) = 0; otherwise (-1)^d * chi(disc(g)), which equals
    (-1)^(number of irreducible factors) on squarefree monic g.
    """
    ctx = g.ctx
    if ctx.p == 2:
        raise EvenCharacteristic("Stickelberger parity needs odd characteristic")
    if g.degree < 1:
        raise OutOfRange("needs degree >= 1")
    disc = discriminant(g.monic())
    if not disc:
        return 0
    chi = 1 if ctx.is_square(disc.raw) else -1
    return chi if g.degree % 2 == 0 else -chi


def make_non_morse(ctx: FieldCtx, d: int, rng) -> Poly:
    """A random monic non-Morse polynomial with deg f' = d - 1 (needs p > d >= 3).

    Built by integrating d * (x - tau)^2 * m(x): the doubled critical point
    caps the number of distinct critical values at d - 2.
    """
    if d < 3 or ctx.p <= d:
        raise OutOfRange("non-Morse construction needs p > d >= 3")
    x = Poly.x(ctx)
    tau = ctx.element_from_index(rng.randrange(ctx.q))
    from .polynomial import random_monic

    m = random_monic(ctx, d - 3, rng)
    fp = Poly(ctx, [d]) * (x - Poly(ctx, [tau])) ** 2 * m
    coeffs = [ctx.element_from_index(rng.randrange(ctx.q))]  # constant of integration
    for i, c in enumerate(fp.coeffs):
        coeffs.append(c / ctx(i + 1))
    return Poly(ctx, coeffs)


def predicted_no_cancellation_sum(verdict: CancellationVerdict, f: Poly) -> Fraction:
    """Exact interval Möbius sum implied by a no-cancellation verdict.

    Every squarefree member of I(f) contributes the constant sign; the
    non-squarefree members (the distinct roots of D) contribute zero.
    """
    if verdict.kind != NO_CANCELLATION:
        raise OutOfRange("only meaningful for the no-cancellation branch")
    bad = _distinct_root_count_in_field(verdict.witness_disc)
    return Fraction(verdict.sign * (f.ctx.q - bad))


def _distinct_root_count_in_field(poly: Poly) -> int:
    return len(roots_in_field(poly)) if poly.degree >= 1 else 0
