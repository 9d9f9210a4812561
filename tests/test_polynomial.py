import itertools
import random

import pytest

from ffintervals.errors import NotSquarefree, OutOfRange, TooLarge, ZeroInput
from ffintervals.finite_field import make_extension, make_prime_field
from ffintervals.polynomial import (
    Poly,
    brute_force_factor,
    degree_pattern,
    derivative,
    disc_in_t,
    discriminant,
    factor,
    gcd,
    is_irreducible,
    is_squarefree,
    poly_from_index,
    random_monic,
    resultant,
    roots_in_field,
    second_hasse_schmidt,
    squarefree_decomposition,
)
from ffintervals.polyparse import parse_poly

F2 = make_prime_field(2)
F3 = make_prime_field(3)
F5 = make_prime_field(5)
F7 = make_prime_field(7)
F13 = make_prime_field(13)


def test_tuple_coefficients_are_reduced_mod_p():
    ctx = make_extension(F5, 2, 0)
    g = Poly(ctx, [(7, -1), (5, 10), (6, 0)])
    assert g.raw_coeffs == (22, 0, 1)  # (2, 4) is 2 + 4 * 5
    assert [c.coeffs for c in g.coeffs] == [(2, 4), (0, 0), (1, 0)]
    assert g == Poly(ctx, [(2, 4), 0, 1])
    assert g.is_monic and degree_pattern(g) == degree_pattern(Poly(ctx, [(2, 4), 0, 1]))
    for bad in [(1, 2, 3)], [(1.0, 2)], [(1, None)]:
        with pytest.raises(OutOfRange):
            Poly(ctx, bad)


# ---------------------------------------------------------------------------
# calculus


def test_derivative_term_by_term():
    f = parse_poly("x^4-2*x^2", F13)
    # 4x^3 - 4x by the power rule
    assert derivative(f) == parse_poly("4*x^3-4*x", F13)


def test_derivative_constant_and_pth_power():
    assert derivative(parse_poly("5", F13)).is_zero
    xp = Poly(F5, [0] * 5 + [1])  # x^5 over F_5
    assert derivative(xp).is_zero


def test_second_hasse_schmidt():
    # C(4,2) = 6 and C(2,2) = 1
    f = parse_poly("x^4-2*x^2", F13)
    assert second_hasse_schmidt(f) == parse_poly("6*x^2-2", F13)
    assert second_hasse_schmidt(parse_poly("x+1", F13)).is_zero
    # over F_2 the ordinary f'' of x^2 vanishes but C(2,2) = 1 survives
    assert second_hasse_schmidt(parse_poly("x^2", F2)) == parse_poly("1", F2)
    assert derivative(derivative(parse_poly("x^2", F2))).is_zero


# ---------------------------------------------------------------------------
# gcd / squarefree


def test_gcd_hand_cases():
    assert gcd(parse_poly("x^2-1", F5), parse_poly("x-1", F5)) == parse_poly("x-1", F5)
    f = parse_poly("3*x^2+3", F5)
    assert gcd(f, Poly(F5)) == f.monic()
    assert gcd(Poly(F5), Poly(F5)).is_zero
    assert gcd(parse_poly("x", F5), parse_poly("x+1", F5)) == parse_poly("1", F5)


def test_is_squarefree_basics():
    assert not is_squarefree(parse_poly("x^2", F5))
    assert is_squarefree(parse_poly("x^2+1", F5))  # (x-2)(x-3)
    assert not is_squarefree(parse_poly("x^3", F5))
    # derivative vanishes => p-th power => repeated factors
    assert not is_squarefree(Poly(F5, [1, 0, 0, 0, 0, 1]))  # x^5+1 = (x+1)^5


def test_is_squarefree_matches_factor_multiplicities():
    rng = random.Random("sqf")
    for _ in range(500):
        ctx = random.Random(rng.random()).choice((F2, F3, F5, F7))
        g = random_monic(ctx, rng.randrange(1, 6), rng)
        fac = factor(g)
        assert is_squarefree(g) == all(m == 1 for _, m in fac.factors)


# ---------------------------------------------------------------------------
# irreducibility


def test_is_irreducible_known_cases():
    assert is_irreducible(parse_poly("x^2+1", F3))
    assert not is_irreducible(parse_poly("x^2+1", F5))
    assert is_irreducible(parse_poly("x+4", F5))
    assert is_irreducible(parse_poly("x^2+x+1", F2))


def test_is_irreducible_matches_factorization():
    rng = random.Random("irred")
    for _ in range(300):
        ctx = (F2, F3, F5)[rng.randrange(3)]
        g = random_monic(ctx, rng.randrange(1, 6), rng)
        fac = factor(g)
        expected = fac.omega == 1 and fac.factors[0][1] == 1
        assert is_irreducible(g) == expected


def test_is_irreducible_over_extension():
    F9 = make_extension(F3, 2, 0)
    x = Poly.x(F9)
    # x^2 - g for g a generator is irreducible iff g is a non-square
    squares = {(a * a).raw for a in F9.elements()}
    nonsquare = next(a for a in F9.elements() if a.raw not in squares)
    g = x * x - Poly(F9, [nonsquare])
    assert is_irreducible(g)


# ---------------------------------------------------------------------------
# cycle types


def test_degree_pattern_split_linears():
    g = parse_poly("x", F7) * parse_poly("x-1", F7) * parse_poly("x-2", F7)
    assert degree_pattern(g).parts == (1, 1, 1)


def test_degree_pattern_oracle_x3_plus_1():
    # brute-force factorization is the oracle for these frozen patterns
    g5 = parse_poly("x^3+1", F5)
    assert brute_force_factor(g5).multiset_degrees() == (2, 1)
    assert degree_pattern(g5).parts == (2, 1)
    g7 = parse_poly("x^3+1", F7)  # -1 is a cube mod 7, so three roots
    assert brute_force_factor(g7).multiset_degrees() == (1, 1, 1)
    assert degree_pattern(g7).parts == (1, 1, 1)


def test_degree_pattern_rejects_squares():
    with pytest.raises(NotSquarefree):
        degree_pattern(parse_poly("x^2", F7))


def test_degree_pattern_matches_factor_on_random_squarefree():
    rng = random.Random("ddf")
    checked = 0
    while checked < 1000:
        ctx = (F2, F3, F5, F7, F13)[rng.randrange(5)]
        g = random_monic(ctx, rng.randrange(1, 7), rng)
        if not is_squarefree(g):
            continue
        checked += 1
        assert degree_pattern(g).parts == factor(g).multiset_degrees()


def test_degree_pattern_over_extension():
    F25 = make_extension(F5, 2, 0)
    rng = random.Random("ddf-ext")
    for _ in range(100):
        g = random_monic(F25, rng.randrange(1, 5), rng)
        if is_squarefree(g):
            assert degree_pattern(g).parts == factor(g).multiset_degrees()


# ---------------------------------------------------------------------------
# factorization


def test_factor_known_quadratic():
    fac = factor(parse_poly("x^2+1", F5))
    polys = {(repr(p), m) for p, m in fac.factors}
    assert polys == {("x+2", 1), ("x+3", 1)}


def test_factor_known_quartic():
    # 3^2 = 2 mod 7, so x^4 - 2x^2 = x^2 (x-3) (x+3)
    fac = factor(parse_poly("x^4-2*x^2", F7))
    assert [(repr(p), m) for p, m in fac.factors] == [("x", 2), ("x+3", 1), ("x+4", 1)]
    assert fac.omega == 3


def test_factor_roundtrip_random():
    rng = random.Random("roundtrip")
    for _ in range(1000):
        ctx = (F2, F3, F5, F7)[rng.randrange(4)]
        g = random_monic(ctx, rng.randrange(1, 7), rng)
        # random unit too
        unit = ctx.element_from_index(rng.randrange(1, ctx.q))
        g = g * Poly(ctx, [unit])
        fac = factor(g, seed=rng.randrange(100))
        assert fac.reconstruct() == g
        for poly, _ in fac.factors:
            assert poly.is_monic and is_irreducible(poly)


def test_factor_seed_independent():
    rng = random.Random("seeds")
    for _ in range(50):
        g = random_monic(F7, 6, rng)
        assert factor(g, seed=0).factors == factor(g, seed=1).factors


def test_factor_agrees_with_brute_force_exhaustive_f2_f3():
    for ctx in (F2, F3):
        for d in range(1, 5):
            for idx in range(ctx.q**d):
                g = poly_from_index(ctx, d, idx)
                assert factor(g).factors == brute_force_factor(g).factors


def test_brute_force_guard():
    ctx = make_prime_field(101)
    with pytest.raises(TooLarge):
        brute_force_factor(random_monic(ctx, 8, random.Random(1)))


def test_squarefree_decomposition_char_p_edge():
    # x^6 over F_2 = (x^3)^2; decomposition must survive the p-th power step
    g = Poly(F2, [0, 0, 0, 0, 0, 0, 1])
    unit, parts = squarefree_decomposition(g)
    assert unit == F2(1)
    recon = Poly(F2, [1])
    for s, e in parts:
        recon = recon * s**e
    assert recon == g


def test_roots_in_field():
    g = parse_poly("x^2+1", F5)
    roots = [r.raw for r in roots_in_field(g)]
    assert roots == [2, 3]
    assert roots_in_field(parse_poly("x^2+1", F3)) == []


# ---------------------------------------------------------------------------
# resultants and discriminants


def _sylvester_det(f, g):
    """Independent oracle: determinant of the Sylvester matrix via Gaussian
    elimination over the field."""
    ctx = f.ctx
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    fc = list(reversed(f.raw_coeffs))
    gc = list(reversed(g.raw_coeffs))
    for i in range(n):
        rows.append([ctx.zero_raw] * i + fc + [ctx.zero_raw] * (size - m - 1 - i))
    for i in range(m):
        rows.append([ctx.zero_raw] * i + gc + [ctx.zero_raw] * (size - n - 1 - i))
    det = ctx.one_raw
    for col in range(size):
        pivot = next(
            (r for r in range(col, size) if not ctx.is_zero(rows[r][col])), None
        )
        if pivot is None:
            return ctx.zero_raw
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = ctx.neg(det)
        det = ctx.mul(det, rows[col][col])
        inv = ctx.inv(rows[col][col])
        for r in range(col + 1, size):
            if not ctx.is_zero(rows[r][col]):
                scale = ctx.mul(rows[r][col], inv)
                rows[r] = [
                    ctx.sub(a, ctx.mul(scale, b)) for a, b in zip(rows[r], rows[col])
                ]
    return det


def test_resultant_evaluation_identity():
    rng = random.Random("res")
    for _ in range(100):
        a = rng.randrange(13)
        g = random_monic(F13, rng.randrange(1, 5), rng)
        lin = parse_poly(f"x-{a}" if a else "x", F13)
        assert resultant(lin, g) == g(F13(a))


def test_resultant_known_value():
    assert resultant(parse_poly("x^2+1", F7), parse_poly("x^2-1", F7)) == F7(4)


def test_resultant_shared_root_is_zero():
    f = parse_poly("x^2-1", F7)
    g = parse_poly("x-1", F7) * parse_poly("x-3", F7)
    assert resultant(f, g) == F7(0)


def test_resultant_zero_input():
    with pytest.raises(ZeroInput):
        resultant(Poly(F7), parse_poly("x", F7))


def test_resultant_matches_sylvester_oracle():
    rng = random.Random("sylvester")
    for _ in range(200):
        ctx = (F5, F7, F13)[rng.randrange(3)]
        f = random_monic(ctx, rng.randrange(1, 5), rng)
        g = random_monic(ctx, rng.randrange(1, 5), rng)
        assert resultant(f, g).raw == _sylvester_det(f, g)


def test_discriminant_quadratic_formula():
    rng = random.Random("disc2")
    for _ in range(100):
        b, c = rng.randrange(13), rng.randrange(13)
        g = Poly(F13, [c, b, 1])
        assert discriminant(g) == F13(b * b - 4 * c)
    assert discriminant(parse_poly("x^2+1", F5)) == F5(1)


def test_discriminant_zero_iff_not_squarefree():
    rng = random.Random("disc0")
    for _ in range(500):
        ctx = (F3, F5, F7, F13)[rng.randrange(4)]
        g = random_monic(ctx, rng.randrange(2, 6), rng)
        assert (discriminant(g) == ctx(0)) == (not is_squarefree(g))
    assert discriminant(parse_poly("x^2", F5)) == F5(0)


def test_disc_in_t_known_forms():
    assert disc_in_t(parse_poly("x^2", F13)) == parse_poly("-4*x", F13)
    assert disc_in_t(parse_poly("x^3", F13)) == parse_poly("-27*x^2", F13)


def test_disc_in_t_matches_pointwise_evaluations():
    rng = random.Random("disct")
    for _ in range(20):
        d = rng.randrange(2, 6)
        f = random_monic(F13, d, rng)
        dt = disc_in_t(f)
        assert dt.degree <= d - 1
        for a in range(13):
            assert dt(F13(a)) == discriminant(f.shift_const(F13(a)))


def test_shared_disc_interpolation_matches_pointwise_evaluations_for_p_at_most_d():
    # disc_in_t, the one D(t) of the sweeps, the census, the classifier and
    # is_morse, where p <= d < q; and where q <= deg f' = 3, with
    # f' = (x + 1)^3 and f(-1) = 0, D = t^3
    rng = random.Random("disc-poly")
    F9 = make_extension(F3, 2)
    for d in (3, 4):
        for _ in range(60):
            f = random_monic(F9, d, rng)
            dt = disc_in_t(f)
            assert dt.degree <= derivative(f).degree
            for a in map(F9.element_from_index, range(9)):
                assert dt(a) == discriminant(f.shift_const(a))
    assert disc_in_t(parse_poly("x^4+x", F3)) == parse_poly("x^3", F3)


def test_disc_in_t_in_characteristic_at_most_d():
    # D has degree deg f' in every field, a constant for a constant f' and 0
    # for f' = 0
    F9, F27 = make_extension(F3, 2, 0), make_extension(F3, 3, 0)
    assert disc_in_t(parse_poly("x^4+2*x^3+x+1", F27)) == parse_poly("x^3+2", F27)
    assert disc_in_t(parse_poly("x^4+2*x^3+x+1", F3)) == parse_poly("x^3+2", F3)
    assert disc_in_t(parse_poly("x^3+x", F9)) == parse_poly("2", F9)  # -4
    assert disc_in_t(parse_poly("x^3", F9)).is_zero


def test_disc_in_t_degree_bound_random():
    rng = random.Random("dtdeg")
    F101 = make_prime_field(101)
    for _ in range(100):
        f = random_monic(F101, rng.randrange(2, 7), rng)
        assert disc_in_t(f).degree <= f.degree - 1


def test_disc_in_t_when_q_is_at_most_deg_f_prime():
    # x^4 + x^3 + 2x^2 + x + 1 over F_3: f' = x^3 + x + 1 is irreducible, so
    # the critical values lie in F_27, and D = t^3 + t^2 + 2t has roots
    # 0 and two conjugates over F_9
    f = random_monic(F3, 4, random.Random(0))
    assert f == parse_poly("x^4+x^3+2*x^2+x+1", F3)
    assert disc_in_t(f) == parse_poly("x^3+x^2+2*x", F3)


def _disc_from_critical_data(f):
    """(-1)^(d(d-1)/2 + d e) lc(f')^d prod (t + f(xi)) over the critical points xi of f.

    The product is taken in the splitting extension of critical_data and
    its coefficients, which lie in the base field, are mapped back to it.
    """
    from ffintervals.morse_galois import _embed_raw, critical_data

    ctx, d, fp = f.ctx, f.degree, derivative(f)
    cd = critical_data(f)
    ext = cd.ext_ctx
    prod = Poly.from_raw(ext, [1])
    for (_, mult), value in zip(cd.points, cd.values):
        prod = prod * Poly.from_raw(ext, [value.raw, 1]) ** mult
    back = {_embed_raw(ext, ctx, cd.gen_image, r): r for r in range(ctx.q)}
    sign = ctx((-1) ** (d * (d - 1) // 2 + d * fp.degree))
    return Poly.from_raw(ctx, [back[c] for c in prod.raw_coeffs]) * (sign * fp.lc() ** d)


def test_disc_in_t_against_the_critical_values_where_q_is_at_most_deg_f_prime():
    # every monic quartic, quintic and sextic over F_3, and seeded
    # polynomials over F_4, F_5 and F_7 with q <= deg f', against the product
    # over the critical points in the splitting extension
    F4 = make_extension(F2, 2, 0)
    polys = [poly_from_index(F3, d, idx) for d in (4, 5, 6) for idx in range(3**d)]
    rng = random.Random("disc-critical")
    for ctx, d in ((F4, 5), (F4, 6), (F5, 6), (F5, 7), (F7, 8), (F7, 9)):
        polys += [random_monic(ctx, d, rng) for _ in range(25)]
    small = 0
    for f in polys:
        if not derivative(f):
            assert disc_in_t(f).is_zero
            continue
        small += f.ctx.q <= derivative(f).degree
        assert disc_in_t(f) == _disc_from_critical_data(f), f
    assert small == 1116


# ---------------------------------------------------------------------------
# the raw helpers over F_p, which run on the int-list layer


def _trimmed(c):
    return isinstance(c, list) and (not c or c[-1] != 0)


def _book(p, out):
    out = [c % p for c in out]
    while out and out[-1] == 0:
        out.pop()
    return out


def _book_mul(p, a, b):
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _book(p, out)


def _book_sub(p, a, b):
    return _book(p, [x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


@pytest.mark.parametrize("ctx", [F2, F3, F5], ids=["F2", "F3", "F5"])
def test_int_routed_raw_helpers_keep_their_contracts_exhaustive(ctx):
    # every pair of polynomials of degree <= 3, the zero polynomial included
    from ffintervals.polynomial import _rdivmod, _reval, _rgcd, _rmul

    p = ctx.p
    polys = [list(poly_from_index(ctx, 4, i, monic=False).raw_coeffs) for i in range(p**4)]
    divides = {}  # (g, a) -> g | a, checked once per pair

    def divisor(g, a):
        key = (tuple(g), tuple(a))
        if key not in divides:
            divides[key] = _rdivmod(ctx, a, g)[1] == []
        return divides[key]

    for a in polys:
        for x in range(p):
            horner = 0
            for c in reversed(a):
                horner = (horner * x + c) % p
            assert _reval(ctx, a, x) == horner
        with pytest.raises(ZeroDivisionError):
            _rdivmod(ctx, a, [])
        for b in polys:
            prod = _rmul(ctx, a, b)
            assert _trimmed(prod) and prod == _book_mul(p, a, b)
            g = _rgcd(ctx, a, b)
            assert _trimmed(g)
            if not a and not b:
                assert g == []
                continue
            assert g[-1] == 1 and divisor(g, a) and divisor(g, b)
            if b:
                quo, rem = _rdivmod(ctx, a, b)
                assert _trimmed(quo) and _trimmed(rem) and len(rem) < len(b)
                assert _book_sub(p, a, _rmul(ctx, quo, b)) == rem


# ---------------------------------------------------------------------------
# the Gauss count property (small subset; the acceptance suite does all)


def test_gauss_count_formula_small():
    from ffintervals.interval_lab import gauss_census

    assert gauss_census(2, 2) == (1, 1)
    assert gauss_census(3, 3) == (8, 8)
    assert gauss_census(5, 2) == (10, 10)
