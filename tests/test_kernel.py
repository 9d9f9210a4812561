"""The distinct-degree kernels against their oracles.

The kernels and factor() share one distinct-degree loop (_ddf), so the int
kernel is checked against code that shares none of it: brute_force_factor
exhaustively on small fields, and planted products of irreducibles certified
by Rabin's test at sweep-sized primes.  Also checked: the Frobenius-matrix
step against square-and-multiply, and the lazily reduced mulmod against a
naive product-then-divide.  is_irreducible and roots_in_field over F_p
are checked against brute_force_factor as well.  Over extension fields the generic kernel,
factor(), is_irreducible and roots_in_field are checked exhaustively against
a sieve that multiplies out irreducibles, and the Frobenius steps behind x^q
against square-and-multiply.  The discriminant-assisted paths of both
kernels are checked against their disc-free paths.
"""

import random

import pytest

from ffintervals.class_functions import partitions_of
from ffintervals.finite_field import _MAX_P, is_prime, make_extension, make_prime_field
from ffintervals.polynomial import (
    Poly,
    _IntArith,
    _RawArith,
    _imulmod,
    _pattern_or_none_generic,
    _pattern_or_none_int,
    _rdivmod,
    _reval,
    _rpow_poly_mod,
    brute_force_factor,
    cycle_pattern_or_none,
    disc_in_t,
    discriminant,
    factor,
    is_irreducible,
    poly_from_index,
    random_monic,
    roots_in_field,
)


def _expected_pattern(g):
    """None when a factor repeats, else the descending factor degrees."""
    result = factor(g)
    if any(mult > 1 for _, mult in result.factors):
        return None
    return result.multiset_degrees()


def _kernel(g):
    return cycle_pattern_or_none(g.ctx, list(g.raw_coeffs))


@pytest.mark.parametrize("p,max_degree", [(2, 6), (3, 6), (5, 4), (7, 4)])
def test_kernel_matches_factor_exhaustive(p, max_degree):
    ctx = make_prime_field(p)
    for d in range(1, max_degree + 1):
        for idx in range(p**d):
            g = poly_from_index(ctx, d, idx)
            oracle = brute_force_factor(g)
            assert factor(g) == oracle, g
            repeated = any(mult > 1 for _, mult in oracle.factors)
            assert _kernel(g) == (None if repeated else oracle.multiset_degrees()), g
            assert is_irreducible(g) == (oracle.factors == ((g, 1),)), g
            roots = sorted(-h.raw_coeffs[0] % p for h, _ in oracle.factors if h.degree == 1)
            assert [r.raw for r in roots_in_field(g)] == roots, g


@pytest.mark.parametrize("p", [1747, 10007])
def test_kernel_matches_factor_random_high_degree(p):
    ctx = make_prime_field(p)
    rng = random.Random(f"kernel/{p}")
    for d in range(6, 10):
        for _ in range(6):
            g = random_monic(ctx, d, rng)
            assert _kernel(g) == _expected_pattern(g), g
        # products of small factors exercise the steps that split factors off
        a, b, c = (random_monic(ctx, k, rng) for k in (1, 2, d - 3))
        for g in (a * b * c, a * a * c):
            assert _kernel(g) == _expected_pattern(g), g


@pytest.mark.parametrize("p", [1747, 10007])
def test_kernel_on_planted_products(p):
    # one product per cycle type of degree 6-9 over a pool of distinct
    # irreducibles certified by Rabin's test; reusing a factor must give None
    ctx = make_prime_field(p)
    rng = random.Random(f"planted/{p}")
    pool = {}
    for k in range(1, 10):
        pool[k] = []
        while len(pool[k]) < 9 // k:
            g = random_monic(ctx, k, rng)
            if is_irreducible(g) and g not in pool[k]:
                pool[k].append(g)
    for d in range(6, 10):
        for ct in partitions_of(d):
            used = {k: 0 for k in pool}
            g = Poly(ctx, [1])
            for k in ct.parts:
                g = g * pool[k][used[k]]
                used[k] += 1
            assert _kernel(g) == ct.parts, g
            raws = list(g.raw_coeffs)
            assert _pattern_or_none_int(p, raws, discriminant(g).raw) == ct.parts, g
            assert _kernel(g * pool[ct.parts[-1]][0]) is None, g


@pytest.mark.parametrize("p", [3, 13, 1747])
def test_frobenius_matrix_step_is_pth_power(p):
    ctx = make_prime_field(p)
    rng = random.Random(f"frobenius/{p}")

    def rand_poly(degree):
        return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]

    ar = _IntArith(p)
    for d in (2, 5, 8):
        for _ in range(5):
            g = list(random_monic(ctx, d, rng).raw_coeffs)
            xp, powers = ar.xq(g)
            assert xp == powers[1] == _rpow_poly_mod(ctx, [0, 1], p, g)
            h = rand_poly(d - 1)
            assert ar.step(h, powers, g, g) == _rpow_poly_mod(ctx, h, p, g)
            assert len(powers) == d
    # reduced mod a divisor m of g, the step gives h^p mod m
    m = random_monic(ctx, 3, rng)
    g = list((m * random_monic(ctx, 4, rng)).raw_coeffs)
    m = list(m.raw_coeffs)
    _, powers = ar.xq(g)
    h = rand_poly(2)
    assert ar.step(h, powers, g, m) == _rpow_poly_mod(ctx, h, p, m)


def _naive_mulmod(p, a, b, m):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    dm = len(m) - 1
    while len(prod) > dm:
        top = prod.pop()
        for j in range(dm):
            prod[len(prod) - dm + j] = (prod[len(prod) - dm + j] - top * m[j]) % p
    while prod and prod[-1] == 0:
        prod.pop()
    return prod


def test_imulmod_matches_naive_reference():
    big = next(n for n in range(_MAX_P - 1, 0, -1) if is_prime(n))
    rng = random.Random("imulmod")
    for p in (2, 3, 10007, big):
        for dm in (1, 2, 5, 8):
            m = [rng.randrange(p) for _ in range(dm)] + [1]
            for _ in range(20):
                a = [rng.randrange(p) for _ in range(rng.randrange(dm + 1))]
                b = [rng.randrange(p) for _ in range(rng.randrange(dm + 1))]
                assert _imulmod(p, a, b, m) == _naive_mulmod(p, a, b, m)
        # all coefficients p - 1 make every unreduced sum as large as it gets
        top = [p - 1] * 8
        assert _imulmod(p, top, top, top + [1]) == _naive_mulmod(p, top, top, top + [1])


# ---------------------------------------------------------------------------
# the generic kernel over extension fields


def _sieve_factors(ctx, max_degree):
    """The monic irreducible factors, with repeats, of every monic of degree <= max_degree.

    Independent of distinct-degree factorization: every product of two
    classified monics is classified by its factors, and a monic that no such
    product reaches is irreducible.
    """
    factors = {(ctx.one_raw,): ()}
    by_degree = {0: [poly_from_index(ctx, 0, 0)]}
    for d in range(1, max_degree + 1):
        by_degree[d] = [poly_from_index(ctx, d, i) for i in range(ctx.q**d)]
        for k in range(1, d // 2 + 1):
            for a in by_degree[k]:
                for b in by_degree[d - k]:
                    factors[(a * b).raw_coeffs] = factors[a.raw_coeffs] + factors[b.raw_coeffs]
        for g in by_degree[d]:
            factors.setdefault(g.raw_coeffs, (g.raw_coeffs,))
    del factors[(ctx.one_raw,)]
    return factors


@pytest.mark.parametrize("p,l,max_degree", [(2, 2, 4), (3, 2, 4), (2, 3, 3), (5, 2, 3)])
def test_generic_kernel_matches_factor_exhaustive(p, l, max_degree):
    ctx = make_extension(make_prime_field(p), l, 0)
    expected = _sieve_factors(ctx, max_degree)
    assert len(expected) == sum(ctx.q**d for d in range(1, max_degree + 1))
    for key, fs in expected.items():
        g = Poly.from_raw(ctx, key)
        repeated = len(set(fs)) < len(fs)
        pattern = None if repeated else tuple(sorted((len(f) - 1 for f in fs), reverse=True))
        assert _pattern_or_none_generic(ctx, list(key)) == pattern, g
        assert _expected_pattern(g) == pattern, g
        if ctx.q**g.degree <= 1000:  # all but the F_25 cubics, to keep the test short
            assert is_irreducible(g) == (len(fs) == 1), g
            roots = {a.raw for a in roots_in_field(g)}
            assert roots == {ctx.neg(f[0]) for f in fs if len(f) == 2}, g


@pytest.mark.parametrize("p,l", [(2, 4), (3, 3), (5, 4)])
def test_frobenius_steps_give_q_powers(p, l):
    ctx = make_extension(make_prime_field(p), l, 0)
    rng = random.Random(f"rxq/{p}/{l}")
    x = [ctx.zero_raw, ctx.one_raw]
    ar = _RawArith(ctx)
    for d in (1, 2, 5, 7):
        g = list(random_monic(ctx, d, rng).raw_coeffs)
        h, powers = ar.xq(g)
        assert h == _rpow_poly_mod(ctx, x, ctx.q, g)
        for _ in range(3):
            nxt = ar.step(h, powers, g, g)
            assert nxt == _rpow_poly_mod(ctx, h, ctx.q, g)
            h = nxt
    # composed mod g and reduced mod a divisor m of g, the step gives h^q mod m
    m = random_monic(ctx, 3, rng)
    g = list((m * random_monic(ctx, 4, rng)).raw_coeffs)
    m = list(m.raw_coeffs)
    h, powers = ar.xq(g)
    _, h = _rdivmod(ctx, h, m)
    assert ar.step(h, powers, g, m) == _rpow_poly_mod(ctx, h, ctx.q, m)


# ---------------------------------------------------------------------------
# the discriminant-assisted paths against the disc-free oracles


@pytest.mark.parametrize("p,max_degree", [(7, 5), (11, 4), (13, 4)])
def test_int_kernel_with_disc_matches_disc_free_exhaustive(p, max_degree):
    ctx = make_prime_field(p)
    for d in range(2, max_degree + 1):
        for idx in range(p**d):
            g = poly_from_index(ctx, d, idx)
            raws = list(g.raw_coeffs)
            expected = _pattern_or_none_int(p, raws)
            assert _pattern_or_none_int(p, raws, discriminant(g).raw) == expected, g


@pytest.mark.parametrize("p,window", [(1747, 1747), (10007, 600)])
def test_int_kernel_with_disc_matches_disc_free_on_intervals(p, window):
    # members f + a get D(a) with D(t) = disc(f + t), as in a sweep; at
    # p = 10007 a seeded window of each interval keeps the test short
    ctx = make_prime_field(p)
    rng = random.Random(f"disc-kernel/{p}")
    for d in range(6, 10):
        f = random_monic(ctx, d, rng)
        d_raws = list(disc_in_t(f).raw_coeffs)
        start = rng.randrange(p)
        for a in range(start, start + window):
            a %= p
            g = list(f.shift_const(a).raw_coeffs)
            disc = _reval(ctx, d_raws, a)
            assert _pattern_or_none_int(p, g, disc) == _pattern_or_none_int(p, g)
    # planted squares: a zero discriminant means "not squarefree"
    for d in range(6, 10):
        a, b = random_monic(ctx, 2, rng), random_monic(ctx, d - 4, rng)
        g = a * a * b
        assert discriminant(g).raw == 0
        assert _pattern_or_none_int(p, list(g.raw_coeffs), 0) is None


@pytest.mark.parametrize("p,l,degrees", [(5, 2, (1, 2, 3)), (3, 2, (2,)), (3, 3, (2,))])
def test_generic_kernel_with_disc_matches_disc_free_exhaustive(p, l, degrees):
    ctx = make_extension(make_prime_field(p), l, 0)
    for d in degrees:
        for idx in range(ctx.q**d):
            g = poly_from_index(ctx, d, idx)
            raws = list(g.raw_coeffs)
            expected = _pattern_or_none_generic(ctx, raws)
            assert _pattern_or_none_generic(ctx, raws, discriminant(g).raw) == expected, g


def test_generic_kernel_with_disc_on_a_cubic_interval():
    ctx = make_extension(make_prime_field(5), 4, 0)
    f = random_monic(ctx, 3, random.Random("disc-generic"))
    d_raws = list(disc_in_t(f).raw_coeffs)
    nonsquarefree = 0
    for a in ctx.elements():
        g = list(f.shift_const(a).raw_coeffs)
        disc = _reval(ctx, d_raws, a.raw)
        nonsquarefree += ctx.is_zero(disc)
        assert _pattern_or_none_generic(ctx, g, disc) == _pattern_or_none_generic(ctx, g)
    assert nonsquarefree <= 2
