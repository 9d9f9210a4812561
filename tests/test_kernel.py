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
kernels are checked against their disc-free paths.  The batched start of
x^p over F_p (one bivariate power per interval, evaluated at every member)
is checked against the per-member x^p on every small interval and on seeded
intervals on both sides of the split of p, and its packed squaring against
an unpacked reference where the slot sums are largest; over F_{p^l} (one
Horner evaluation per member) against the per-member x^p on every member of
every cubic and quartic center over F_9 and F_25, and by the member types on
seeded intervals over five extension fields.  The root-fed kernel
of p > d >= 6 is checked against the unfed one on every interval of degree 6
over F_7 and on seeded intervals with planted root counts, and against
brute_force_factor on a seeded sample.  The parity table behind every
discriminant stop is checked against a direct filter of the partitions, and
the cubic stop on every monic cubic over F_11 and F_25.
"""

import random
from itertools import count, product, zip_longest
from math import isqrt

import pytest

from ffintervals import interval_lab, polynomial
from ffintervals.class_functions import _MAX_D, partitions_of
from ffintervals.errors import TooLarge
from ffintervals.finite_field import (
    _MAX_P,
    _digits,
    _imul,
    _ipack,
    _islots_mod,
    _iunpack,
    is_prime,
    make_extension,
    make_prime_field,
)
from ffintervals.polynomial import (
    _BATCH_Y_BITS,
    Poly,
    _IntArith,
    _RawArith,
    _batch_rows,
    _batch_shift,
    _bsquare,
    _ext_batch_shift,
    _ext_frobenius_columns,
    _frobenius_columns,
    _imulmod,
    _parity_table,
    _pattern,
    _pattern_or_none_generic,
    _pattern_or_none_int,
    _rdivmod,
    _reval,
    _rpow_poly_mod,
    _sole_rest,
    _trim,
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


class _PathArith:
    """A kernel arithmetic that records the steps _ddf takes through it.

    record names the labels kept: "xq" (the first power), "trace" (the trace
    of Q^2), "cube" (the trace of Q^3) and "gcd"; every other call passes
    through unrecorded.
    """

    LABELS = {"xq": "xq", "quadratic_count": "trace", "cubic_count": "cube", "gcd": "gcd"}

    def __init__(self, ar, record=("trace", "cube", "gcd")):
        self.ar, self.record, self.path = ar, record, []

    def __getattr__(self, name):
        method = getattr(self.ar, name)
        if self.LABELS.get(name) not in self.record:
            return method

        def recorded(*args):
            self.path.append(self.LABELS[name])
            return method(*args)

        return recorded


# the types of degree 6-9, and of degree 10-12, whose parts of degree >= 4
# the square class cannot name from the parity table once the traces of Q^2
# and Q^3 have named the parts 2 and 3: _ddf goes on from them to the gcds
GCD_PATH_TYPES_TO_9 = set()
GCD_PATH_TYPES_10_TO_12 = {
    (6, 4), (5, 5),
    (7, 4), (6, 5), (6, 4, 1), (5, 5, 1),
    (12,), (8, 4), (7, 5), (6, 6), (4, 4, 4), (7, 4, 1), (6, 5, 1),
    (6, 4, 2), (5, 5, 2), (6, 4, 1, 1), (5, 5, 1, 1),
}


def _alike(parts, low):
    """The partitions of sum(parts) into parts >= low with as many parts as parts, mod 2 (a direct filter)."""
    if not parts:
        return [()]
    return [
        ct.parts
        for ct in partitions_of(sum(parts))
        if ct.parts[-1] >= low and len(ct.parts) % 2 == len(parts) % 2
    ]


@pytest.mark.parametrize("p", [11, 13, 1747, 10007])
def test_kernel_on_planted_products(p):
    # one product per cycle type of degree 6-9 (6-12 at p > 12) over a pool of
    # distinct irreducibles certified by Rabin's test; reusing a factor must
    # give None.  The sweeps' path gets D(c), the start of x^p and the sorted
    # roots: a cofactor of degree m <= 5 is named before any power; past it
    # the trace of Q^2 names the quadratic factors, and the square class the
    # rest wherever one partition into parts >= 3 has its parity of parts;
    # past that the trace of Q^3 names the cubic factors, and the square
    # class the rest wherever one partition into parts >= 4 has its parity.
    # The rest go on to the gcds.  Given n_2, as the sweeps of degree 6-8
    # give it, the path is the same without the trace of Q^2.
    ctx = make_prime_field(p)
    rng = random.Random(f"planted/{p}")
    pool = {}
    top = min(p - 1, _MAX_D)
    for k in range(1, top + 1):
        pool[k] = []
        while len(pool[k]) < top // k:
            g = random_monic(ctx, k, rng)
            if is_irreducible(g) and g not in pool[k]:
                pool[k].append(g)
    gcd_path = set()
    for d in range(6, top + 1):
        e = p >> _batch_shift(p, d)
        for ct in partitions_of(d):
            used = {k: 0 for k in pool}
            g = Poly(ctx, [1])
            for k in ct.parts:
                g = g * pool[k][used[k]]
                used[k] += 1
            assert _kernel(g) == ct.parts, g
            raws = list(g.raw_coeffs)
            disc = discriminant(g).raw
            assert _pattern_or_none_int(p, raws, disc) == ct.parts, g
            roots = sorted(-h.raw_coeffs[0] % p for h in pool[1][: used[1]])
            ar = _PathArith(_IntArith(p))
            start = _rpow_poly_mod(ctx, [0, 1], e, raws)
            assert _pattern(ar, raws, disc, start, roots) == ct.parts, g
            m = d - used[1]
            if m <= 5:
                assert ar.path == [], (ct.parts, m)
            elif len(_alike(tuple(k for k in ct.parts if k >= 3), 3)) == 1:
                assert ar.path == ["trace"], ct.parts
            elif len(_alike(tuple(k for k in ct.parts if k >= 4), 4)) == 1:
                assert ar.path == ["trace", "cube"], ct.parts
            else:
                assert ar.path[:2] == ["trace", "cube"] and "gcd" in ar.path, ct.parts
                gcd_path.add(ct.parts)
            given = _PathArith(_IntArith(p))
            assert _pattern(given, raws, disc, start, roots, ct.parts.count(2)) == ct.parts, g
            assert given.path == [step for step in ar.path if step != "trace"], ct.parts
            assert _kernel(g * pool[ct.parts[-1]][0]) is None, g
    assert {ct for ct in gcd_path if sum(ct) <= 9} == GCD_PATH_TYPES_TO_9
    beyond_9 = {ct for ct in GCD_PATH_TYPES_10_TO_12 if sum(ct) <= top}
    assert {ct for ct in gcd_path if sum(ct) >= 10} == beyond_9


# ---------------------------------------------------------------------------
# the parity table behind every discriminant stop of _ddf


def test_parity_table_is_a_filter_of_the_partitions():
    for m in range(1, 13):
        for i in range(6):
            even, odd = _parity_table(m, i)
            above = [ct.parts for ct in partitions_of(m) if min(ct.parts) > i]
            assert list(even) == [ps for ps in above if len(ps) % 2 == 0], (m, i)
            assert list(odd) == [ps for ps in above if len(ps) % 2 == 1], (m, i)
    assert _parity_table(0, 0) == (((),), ())
    assert _parity_table(0, 3) == (((),), ())
    assert _parity_table(_MAX_D + 1, 0) == ((), ())
    assert _parity_table(40, 2) == ((), ())


def test_parity_table_reproduces_the_fiber_types():
    # root count k and square class s name the type exactly for d <= 5: the
    # rest, of degree d - k in parts > 1, is the one entry of its parity.
    # The reference keys every partition of d directly
    for d in range(1, 6):
        direct = {
            (ct.parts.count(1), None, (d - len(ct.parts)) % 2 == 0): ct.parts for ct in partitions_of(d)
        }
        assert len(direct) == len(partitions_of(d)), d
        types = {}
        for k in range(d + 1):
            for odd, rests in enumerate(_parity_table(d - k, 1)):
                assert len(rests) <= 1, (d, k)
                for rest in rests:
                    types[k, None, (d - k - odd) % 2 == 0] = rest + (1,) * k
        assert types == direct == interval_lab._named(d, False), d


def test_parity_table_covers_the_old_two_factor_window():
    # the stop before this table: before step i + 1, with 3(i + 1) > m and
    # 2(i + 2) > m, rem is irreducible or has degrees (m - i - 1, i + 1)
    fired = 0
    for m in range(2, 13):
        for i in range(m // 2):
            if 3 * (i + 1) > m and 2 * (i + 2) > m:
                fired += 1
                even, odd = _parity_table(m, i)
                assert odd == ((m,),), (m, i)
                assert even == ((m - i - 1, i + 1),), (m, i)
                assert _sole_rest(m, i, 1) == (m,) and _sole_rest(m, i, 2) == (m - i - 1, i + 1)
    assert fired == 10  # i = m // 2 - 1 for every m = 2..12 but 3


@pytest.mark.parametrize(
    "ctx,ar_of",
    [
        (make_prime_field(11), lambda ctx: _IntArith(ctx.p)),
        (make_extension(make_prime_field(5), 2, 0), _RawArith),
    ],
    ids=["int-F11", "generic-F25"],
)
def test_cubics_of_nonsquare_discriminant_are_named_with_no_power(ctx, ar_of):
    # nonsquare D: deg 3 - k is odd, so k = 2 factors, and the only such
    # partition of 3 is (2, 1): no x^q and no gcd.  A square D leaves (3) and
    # (1, 1, 1), so x^q and the degree-1 gcd decide
    seen = set()
    for idx in range(ctx.q**3):
        g = poly_from_index(ctx, 3, idx)
        disc = discriminant(g).raw
        ar = _PathArith(ar_of(ctx), ("xq", "trace", "gcd"))
        pattern, path = _pattern(ar, list(g.raw_coeffs), disc), ar.path
        assert pattern == _expected_pattern(g), g
        if disc == 0:
            assert pattern is None and path == [], g
        elif not ctx.is_square(disc):
            assert pattern == (2, 1) and path == [], g
        else:
            assert path == ["xq", "gcd"], g
        seen.add((pattern, path == []))
    assert seen == {(None, True), ((2, 1), True), ((3,), False), ((1, 1, 1), False)}


@pytest.mark.parametrize("p", [3, 13, 1747])
def test_frobenius_matrix_step_is_pth_power(p):
    ctx = make_prime_field(p)
    rng = random.Random(f"frobenius/{p}")

    def rand_poly(degree):
        return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]

    ar = _IntArith(p)
    for d in (2, 5, 6, 8, 12):  # powers by _imulmod below d = 6, by the packed matrix from it
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
# Berlekamp's matrix Q, the columns x^(jp) mod g, and its trace


def _squarefree_monic(ctx, d, rng):
    while True:
        g = random_monic(ctx, d, rng)
        if all(mult == 1 for _, mult in factor(g).factors):
            return g


@pytest.mark.parametrize("p", [13, 1747, 10007])
def test_trace_of_q_squared_counts_the_roots_in_f_p2(p):
    # tr(Q^2) = n_1 + 2 n_2 mod p, with Q's columns from _IntArith.grow (its
    # rows are untrimmed, so they are compared trimmed); on the cofactor left
    # by the roots, quadratic_count reads n_2 off it
    ctx = make_prime_field(p)
    rng = random.Random(f"trace/{p}")
    ar = _IntArith(p)
    for d in range(2, 13):
        for _ in range(4):
            g = _squarefree_monic(ctx, d, rng)
            degrees = factor(g).multiset_degrees()
            raws = list(g.raw_coeffs)
            _, powers = ar.xq(raws)
            ar.grow(powers, raws, d)
            assert all(len(pw) == d for pw in powers[2:]), g
            want = [_rpow_poly_mod(ctx, [0, 1], j * p, raws) for j in range(d)]
            assert [_trim(pw) for pw in powers] == want, g
            q = [pw + [0] * (d - len(pw)) for pw in powers]
            trace = sum(q[j][i] * q[i][j] for i in range(d) for j in range(d)) % p
            assert trace == (degrees.count(1) + 2 * degrees.count(2)) % p, g
            cofactor = ar.divide_roots(raws, [r.raw for r in roots_in_field(g)])
            if len(cofactor) > 2:
                _, powers = ar.xq(cofactor)
                assert ar.quadratic_count(powers, cofactor) == degrees.count(2), g


@pytest.mark.parametrize("p", [13, 1747, 10007])
def test_trace_of_q_cubed_counts_the_roots_in_f_p3(p):
    # tr(Q^3) = n_1 + 3 n_3 mod p, against the factor degrees; on the cofactor
    # left by the roots, cubic_count reads n_3 off it, with or without the
    # rows that quadratic_count grows first
    ctx = make_prime_field(p)
    rng = random.Random(f"trace3/{p}")
    ar = _IntArith(p)
    seen = set()
    for d in range(3, 13):
        for _ in range(4):
            g = _squarefree_monic(ctx, d, rng)
            degrees = factor(g).multiset_degrees()
            seen.add(degrees.count(3))
            raws = list(g.raw_coeffs)
            _, powers = ar.xq(raws)
            ar.grow(powers, raws, d)
            q = [pw + [0] * (d - len(pw)) for pw in powers]
            trace = sum(q[j][i] * q[k][j] * q[i][k] for i in range(d) for j in range(d) for k in range(d))
            assert trace % p == (degrees.count(1) + 3 * degrees.count(3)) % p, g
            cofactor = ar.divide_roots(raws, [r.raw for r in roots_in_field(g)])
            if len(cofactor) > 2:
                _, powers = ar.xq(cofactor)
                assert ar.cubic_count(powers, cofactor) == degrees.count(3), g
                assert ar.quadratic_count(powers, cofactor) == degrees.count(2), g
                assert ar.cubic_count(powers, cofactor) == degrees.count(3), g
    assert seen == {0, 1, 2}


def test_members_past_the_trace_build_no_power_row_twice(monkeypatch):
    # (5, 3) and (4, 4) at d = 8 stop at tr(Q^3), which reads the rows
    # H^2..H^7 that quadratic_count grew in place; (6, 4) at d = 10 goes on
    # to x^(p^2) and the gcds, whose steps read H^2..H^9 in turn
    p = 1747
    ctx = make_prime_field(p)
    rng = random.Random("rows/1747")
    built, grow = [], _IntArith.grow

    def recorded(self, powers, g, n):
        before = len(powers)
        grow(self, powers, g, n)
        built.extend((tuple(g), k) for k in range(before, len(powers)))

    monkeypatch.setattr(_IntArith, "grow", recorded)
    pool = {k: [] for k in (3, 4, 5, 6)}
    for k, found in pool.items():
        while len(found) < 2:
            g = random_monic(ctx, k, rng)
            if is_irreducible(g) and g not in found:
                found.append(g)
    for (a, b), path in (((pool[5][0], pool[3][0]), ["trace", "cube"]),
                         ((pool[4][0], pool[4][1]), ["trace", "cube"]),
                         ((pool[6][0], pool[4][0]), ["trace", "cube", "gcd", "gcd"])):
        g = a * b
        raws = list(g.raw_coeffs)
        start = _rpow_poly_mod(ctx, [0, 1], p >> _batch_shift(p, g.degree), raws)
        ar = _PathArith(_IntArith(p))
        built.clear()
        assert _pattern(ar, raws, discriminant(g).raw, start, []) == (a.degree, b.degree), g
        assert ar.path == path, g
        assert built == [(tuple(raws), k) for k in range(2, g.degree)], g


def _prime_below(n):
    return next(k for k in range(n - 1, 1, -1) if is_prime(k))


def _grow_against_naive_chain(m, monkeypatch):
    """The four primes of the test below at degree m, and how many columns grow reduced at each."""

    def never_reduced(p):
        return m * (p - 1) * ((p - 1) + (m - 1) * (p - 1) ** 2) >> 64 == 0

    lazy = next(
        k for k in count(round((2**64 / (m * (m - 1))) ** (1 / 3)) + 2, -1)
        if never_reduced(k) and is_prime(k)
    )
    after = next(k for k in count(lazy + 1) if is_prime(k))
    guard = _prime_below(interval_lab._GAUSS_GUARD + 1)
    big = next(k for k in count(isqrt(2**64 // m)) if m * (k - 1) ** 2 >> 64 and is_prime(k))
    assert not never_reduced(after) and lazy < guard < big < _MAX_P
    reductions = []
    def counted(n, p):
        reductions[-1] += 1
        return _islots_mod(n, p)

    monkeypatch.setattr(polynomial, "_islots_mod", counted)
    for p in (lazy, after, guard, big):
        reductions.append(0)
        g = [1] * (m + 1)
        h = [p - m + k for k in range(m)]
        powers = [[1], h]
        _IntArith(p).grow(powers, g, m)
        want = [[1], h]
        while len(want) < m:
            want.append(_naive_mulmod(p, want[-1], h, g))
        assert [_trim(pw) for pw in powers] == want, (m, p)
    return reductions


def test_packed_frobenius_powers_at_the_worst_case_slot_sums(monkeypatch):
    """_IntArith.grow's lazily reduced columns on each side of their rule, at m = 6 and 12.

    g = 1 + x + ... + x^m makes every -g_k p - 1, and H = -(m, m - 1, ..., 1)
    makes the top slot of every column p - 1 mod p, so each shift-and-add
    adds (p - 1)^2 to the slots it keeps: column k nears its bound
    B_k = (p - 1) + k (p - 1)^2.  p is the largest prime whose columns are
    never reduced (m (p - 1) B_(m-1) < 2^64), the prime after it, where the
    last column is, the largest prime the sweep guard admits, where every
    column after the first is, and the least prime past 64 bits
    (m (p - 1)^2 >= 2^64), where each power is one _imulmod.  Every power
    is checked against a naive mulmod chain.
    """
    for m in (6, _MAX_D):
        assert _grow_against_naive_chain(m, monkeypatch) == [0, 1, m - 1, 0], m


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


# ---------------------------------------------------------------------------
# the batched start of x^p: x^e mod every member of an interval from one
# bivariate power, against the per-member square-and-multiply


def _assert_batched_starts(p, center):
    """x^p from the batched start of each member of I(center) against _IntArith.xq."""
    ar = _IntArith(p)
    cols = _frobenius_columns(p, center)
    assert all(len(col) == p for col in cols)
    for c in range(p):
        g = [c] + center[1:]
        assert ar.xq(g, [col[c] for col in cols]) == ar.xq(g), (p, center, c)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_batched_start_matches_xq_on_every_small_interval(p):
    # p = 2, p = d and p < d included; here e = p, so the start is x^p itself
    for d in range(2, 7):
        assert _batch_shift(p, d) == 0
        for idx in range(p ** (d - 1)):
            _assert_batched_starts(p, [0] + _digits(p, d - 1, idx) + [1])


def _seeded_center(p, d):
    f = random_monic(make_prime_field(p), d, random.Random(f"batched/{p}/{d}"))
    return [0] + list(f.raw_coeffs[1:])


SEEDED_INTERVALS = [(p, d) for p in (1009, 1747) for d in range(3, 9)] + [(10007, 3), (10007, 6)]


@pytest.mark.parametrize("p,d", SEEDED_INTERVALS)
def test_batched_start_and_member_types_on_seeded_intervals(p, d):
    center = _seeded_center(p, d)
    _assert_batched_starts(p, center)
    ctx = make_prime_field(p)
    d_raws = interval_lab._center(ctx, Poly.from_raw(ctx, center))[1]
    discs, cols, roots = interval_lab._ddf_inputs(ctx, center, d_raws, d >= 6)
    assert list(discs) == [_reval(ctx, d_raws, c) for c in range(p)]
    assert (cols is None) == (d in (6, 7)) and (roots is not None) == (d >= 6)
    types = list(interval_lab._member_types(ctx, center, discs, cols, roots, range(p)))
    assert types == [cycle_pattern_or_none(ctx, [c] + center[1:]) for c in range(p)]


def test_seeded_intervals_cover_both_sides_of_the_split():
    shifts = {_batch_shift(p, d) for p, d in SEEDED_INTERVALS}
    assert 0 in shifts and len(shifts) > 1
    # the rule keeps R's y-degree e // d below 2^_BATCH_Y_BITS at every p
    for p in (2, 1009, 1747, 10007, 100003, 9999991):
        for d in range(2, _MAX_D + 1):
            s = _batch_shift(p, d)
            assert (p >> s) // d < 2**_BATCH_Y_BITS
            assert s == 0 or (p >> (s - 1)) // d >= 2**_BATCH_Y_BITS


def _bsquare_unpacked(p, r, rows, shift):
    """_bsquare on plain lists of y-coefficients: products by _imul, one reduction mod p."""
    d = len(r)
    products = {}  # equal lists share one product, which keeps the worst case quick
    t = [[] for _ in range(2 * d - 1)]
    for i in range(d):
        for j in range(d):
            key = (tuple(r[i]), tuple(r[j]))
            if key not in products:
                products[key] = _imul(r[i], r[j])
            t[i + j] = _padd(t[i + j], products[key])
    if shift:
        t.insert(0, [])
    out = t[:d]
    for tk, row in zip(t[d:], rows):
        for i, (a, b) in enumerate(row):
            out[i] = _padd(out[i], _padd([a * c for c in tk], [0] + [b * c for c in tk]))
    return [_trim([c % p for c in o]) for o in out]


def _padd(a, b):
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def test_packed_squaring_at_the_worst_case_slot_sums():
    """Every slot sum of _bsquare stays below 2^64 where it is largest.

    That is the largest prime the sweep guard admits (q <= 10^7), d = 12 and
    2^_BATCH_Y_BITS y-coefficients, with every coefficient and every fold
    multiplier p - 1: the bound d * (n + 2) * (p - 1)^2 of _bsquare.
    """
    p = next(n for n in range(interval_lab._GAUSS_GUARD, 0, -1) if is_prime(n))
    d, n = _MAX_D, 2**_BATCH_Y_BITS
    assert d * (n + 2) * (p - 1) ** 2 < 2**64
    r = [[p - 1] * n for _ in range(d)]
    rows = [[(p - 1, p - 1)] * d for _ in range(d)]
    for shift in (False, True):
        packed = _bsquare(p, [_ipack(ri) for ri in r], rows, shift)
        assert [_trim(list(_iunpack(o))) for o in packed] == _bsquare_unpacked(p, r, rows, shift)
    # with the fold table of a seeded center
    center = _seeded_center(p, d)
    r = [[random.Random(f"worst/{i}").randrange(p) for _ in range(8)] for i in range(d)]
    rows = _batch_rows(p, center)
    packed = _bsquare(p, [_ipack(ri) for ri in r], rows, True)
    assert [_trim(list(_iunpack(o))) for o in packed] == _bsquare_unpacked(p, r, rows, True)


def test_batch_refuses_slots_that_could_overflow():
    p = next(n for n in range(_MAX_P - 1, 0, -1) if is_prime(n))
    with pytest.raises(TooLarge):
        _frobenius_columns(p, _seeded_center(p, _MAX_D))


# ---------------------------------------------------------------------------
# the batched start over F_{p^l}: R(x, y) over F_q[y], evaluated by Horner


def _ext_columns(ctx, center):
    cols = _ext_frobenius_columns(ctx, center)
    assert len(cols) == len(center) - 1 and all(len(col) == ctx.q for col in cols)
    return cols


@pytest.mark.parametrize("p", [3, 5])
def test_ext_batched_start_matches_xq_on_every_small_interval(p):
    # every monic center of degree 3 and 4 over F_{p^2}, each member: here
    # s = 0, so the start is x^p mod the member itself.  Over F_9 and for the
    # cubics over F_25, x^q from the start is compared whole with x^q from
    # scratch; the quartics over F_25 (390,625 members) compare x^p, the one
    # part of x^q the start changes, with x^p divided by the member.
    ctx = make_extension(make_prime_field(p), 2, 0)
    ar = _RawArith(ctx)
    for d in (3, 4):
        assert _ext_batch_shift(p, d) == 0
        whole = p == 3 or d == 3
        for idx in range(ctx.q ** (d - 1)):
            center = [0] + _digits(ctx.q, d - 1, idx) + [1]
            cols = _ext_columns(ctx, center)
            for c in range(ctx.q):
                g = [c] + center[1:]
                start = [col[c] for col in cols]
                if whole:
                    assert ar.xq(g, start) == ar.xq(g), (ctx, g)
                else:
                    assert _trim(start) == _rdivmod(ctx, [0] * p + [1], g)[1], (ctx, g)


EXT_SEEDED_INTERVALS = [
    (5, 4, 3), (5, 4, 4), (5, 4, 6),  # D(t) for p > d and for p <= d (q > deg f')
    (7, 3, 4), (7, 3, 6),
    (3, 5, 4),  # p < d with D(t): the start is x^3 itself
    (2, 6, 3), (2, 6, 5),  # characteristic 2
    (101, 2, 3),  # s = 4: each member finishes the low bits of p
]


@pytest.mark.parametrize("p,l,d", EXT_SEEDED_INTERVALS)
def test_ext_batched_start_and_member_types_on_seeded_intervals(p, l, d):
    ctx = make_extension(make_prime_field(p), l, 0)
    f = random_monic(ctx, d, random.Random(f"ext-batched/{p}/{l}/{d}"))
    center, d_raws, _ = interval_lab._center(ctx, f)
    assert (d_raws is None) == (p == 2)
    discs, cols, roots = interval_lab._ddf_inputs(ctx, center, d_raws, d >= 6)
    assert (roots is None) == (p == 2 or d < 6)
    assert [list(col) for col in cols] == [list(col) for col in _ext_columns(ctx, center)]
    types = list(interval_lab._member_types(ctx, center, discs, cols, roots, range(ctx.q)))
    assert types == [cycle_pattern_or_none(ctx, [c] + list(center[1:])) for c in range(ctx.q)]
    ar = _RawArith(ctx)
    for c in random.Random(f"ext-batched/{p}/{l}/{d}/xq").sample(range(ctx.q), 20):
        g = [c] + list(center[1:])
        assert ar.xq(g, [col[c] for col in cols]) == ar.xq(g), (ctx, g)


def test_ext_batch_shift_is_the_least_with_e_at_most_d_squared():
    assert {_ext_batch_shift(p, d) for p, _, d in EXT_SEEDED_INTERVALS} == {0, 4}
    for p in (2, 3, 5, 7, 11, 101, 1009, 3137, 100003):
        for d in range(1, _MAX_D + 1):
            s = _ext_batch_shift(p, d)
            assert p >> s <= d * d and (s == 0 or p >> (s - 1) > d * d), (p, d)


# ---------------------------------------------------------------------------
# the root-fed kernel (p > d >= 6): each member is given its roots from the
# fiber pass, divides out its linear factors and starts its DDF at degree 2


def _fed_and_unfed(ctx, center, consts):
    """(member types with the root lists, the same without them, the root lists) at consts.

    With the root lists the member types are the sweep's: named from the root
    count, n_2 for d = 6-8 and D(c) where those name one, from the root-fed
    kernel otherwise; and the root-fed kernel must give each of them too,
    from the batched start, which the sweep builds only for d = 8 and d >= 9,
    with and without the n_2 of d = 6-8.
    """
    d_raws = interval_lab._center(ctx, Poly.from_raw(ctx, center))[1]
    discs, cols, roots = interval_lab._ddf_inputs(ctx, center, d_raws, True)
    xs, starts, twos = roots[:3]
    fed = list(interval_lab._member_types(ctx, center, discs, cols, roots, consts))
    cols = cols or _frobenius_columns(ctx.p, center)
    for c, t in zip(consts, fed):
        g, start, rs = [c, *center[1:]], [col[c] for col in cols], xs[starts[c]:starts[c + 1]]
        for n2 in (None,) if twos is None else (None, twos[c]):
            assert _pattern_or_none_int(ctx.p, g, discs[c], start, rs, n2) == t, (c, n2)
    unfed = list(interval_lab._member_types(ctx, center, discs, cols, None, consts))
    return fed, unfed, [list(xs[starts[c]:starts[c + 1]]) for c in consts]


@pytest.mark.parametrize("top", range(7))
def test_root_fed_member_types_on_every_degree_six_interval_over_f7(top):
    # the intervals with x^5 coefficient top; every (root count, D(c) = 0) occurs
    ctx = make_prime_field(7)
    seen = set()
    for middle in product(range(7), repeat=4):
        center = [0, *middle, top, 1]
        fed, unfed, roots = _fed_and_unfed(ctx, center, range(7))
        assert fed == unfed, center
        seen.update((len(r), t is None) for r, t in zip(roots, fed))
    assert seen == {(k, False) for k in (0, 1, 2, 3, 4, 6)} | {(k, True) for k in range(6)}


def _planted_member(ctx, d, k, rng):
    """A monic of degree d with exactly k distinct roots in F_p, as an int list.

    k = d - 1 cannot be squarefree, so it is (x - a)^2 times d - 2 other
    linear factors: D(c) = 0.  Otherwise k distinct linear factors times a
    monic of degree d - k with no root.
    """
    lin = [Poly(ctx, [-a, 1]) for a in rng.sample(range(ctx.p), k)]
    if k >= d - 1:
        rest = lin[0] if k == d - 1 else Poly(ctx, [1])
    else:
        while True:
            rest = random_monic(ctx, d - k, rng)
            if not roots_in_field(rest):
                break
    g = rest
    for h in lin:
        g = g * h
    return list(g.raw_coeffs)


@pytest.mark.parametrize("p", [11, 13, 1747, 4093, 10007])
def test_root_fed_member_types_on_seeded_intervals(p):
    # one interval per planted root count k = 0..d; at sweep-sized p the
    # planted member, the members with D(c) = 0 and a seeded sample of the
    # rest.  At p = 4093 the batch shift of d = 8, 9 is 0 and that of their
    # cofactors of degree 6, 7 is 1, so the start must keep the member's.
    ctx = make_prime_field(p)
    rng = random.Random(f"root-fed/{p}")
    for d in (7, 8, 9):
        seen = set()
        for k in range(d + 1):
            g = _planted_member(ctx, d, k, rng)
            center = [0] + g[1:]
            consts = [g[0], *range(p)]  # the planted member first
            if p > 100:
                d_poly = disc_in_t(Poly.from_raw(ctx, center))
                zeros = [r.raw for r in roots_in_field(d_poly)]
                consts = [g[0], *zeros, *rng.sample(range(p), 24)]
            fed, unfed, roots = _fed_and_unfed(ctx, center, consts)
            assert fed == unfed, (p, center)
            assert len(roots[0]) == k
            assert all(r == sorted(set(r)) for r in roots)
            seen.update((len(r), t is None) for r, t in zip(roots, fed))
        squarefree = {n for n, zero in seen if not zero}
        assert squarefree >= set(range(d + 1)) - {d - 1} and (d - 1, True) in seen, (p, d)


def test_root_fed_types_agree_with_brute_force_factor():
    rng = random.Random("root-fed/brute")
    for p, d in ((11, 7), (11, 8), (11, 9), (13, 7), (13, 9)):
        ctx = make_prime_field(p)
        for k in rng.sample(range(d + 1), 3):
            g = _planted_member(ctx, d, k, rng)
            center = [0] + g[1:]
            consts = [g[0], rng.randrange(p)]
            fed, _, _ = _fed_and_unfed(ctx, center, consts)
            for c, pattern in zip(consts, fed):
                oracle = brute_force_factor(Poly.from_raw(ctx, [c] + g[1:]))
                repeated = any(mult > 1 for _, mult in oracle.factors)
                assert pattern == (None if repeated else oracle.multiset_degrees()), (p, g, c)
