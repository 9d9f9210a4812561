import math
import random
from collections import Counter

import pytest

from ffintervals import interval_lab
from ffintervals.class_functions import make_builtin
from ffintervals.errors import DerivativeVanishes, EvenCharacteristic, OutOfRange
from ffintervals.finite_field import make_extension, make_prime_field
from ffintervals.morse_galois import (
    NO_CANCELLATION,
    SQRT_CANCELLATION,
    bad_set,
    bad_shift_check,
    classify_mu_cancellation,
    critical_data,
    is_morse,
    make_non_morse,
    predicted_no_cancellation_sum,
    stickelberger_mu,
)
from ffintervals.polynomial import (
    Poly,
    derivative,
    factor,
    is_squarefree,
    poly_from_index,
    random_monic,
    squarefree_decomposition,
)
from ffintervals.polyparse import parse_poly

F2 = make_prime_field(2)
F3 = make_prime_field(3)
F5 = make_prime_field(5)
F7 = make_prime_field(7)
F13 = make_prime_field(13)


# ---------------------------------------------------------------------------
# critical data


def test_critical_data_quartic_over_f13():
    cd = critical_data(parse_poly("x^4-2*x^2", F13))
    assert cd.ext_ctx == F13
    assert [(pt.raw, m) for pt, m in cd.points] == [(0, 1), (1, 1), (12, 1)]
    assert sorted({v.raw for v in cd.values}) == [0, 12]
    assert cd.distinct_value_count == 2


def test_critical_data_cusp():
    cd = critical_data(parse_poly("x^3", F7))
    assert [(pt.raw, m) for pt, m in cd.points] == [(0, 2)]
    assert {v.raw for v in cd.values} == {0}
    assert cd.distinct_value_count == 1


def test_critical_data_parabola():
    cd = critical_data(parse_poly("x^2+3", F7))
    assert [(pt.raw, m) for pt, m in cd.points] == [(0, 1)]
    assert [v.raw for v in cd.values] == [3]


def test_critical_data_multiplicities_sum_to_deg_fprime():
    rng = random.Random("cd")
    for _ in range(50):
        f = random_monic(F13, rng.randrange(2, 6), rng)
        try:
            cd = critical_data(f)
        except DerivativeVanishes:
            continue
        from ffintervals.polynomial import derivative

        assert sum(m for _, m in cd.points) == derivative(f).degree
        # every recorded point really is a critical point
        f_ext = Poly(cd.ext_ctx, [c for c in f.raw_coeffs]) if cd.ext_ctx == f.ctx else None
        if f_ext is not None:
            fp = derivative(f_ext)
            for pt, _ in cd.points:
                assert not fp(pt)


def test_critical_data_needs_extension():
    # x^3 + x over F_5: critical points have x^2 = -1/3 = 3, a nonsquare mod 5
    f = parse_poly("x^3+x", F5)
    cd = critical_data(f)
    assert cd.ext_ctx.l == 2 and cd.ext_ctx.q == 25
    assert len(cd.points) == 2
    assert cd.distinct_value_count == 2


def test_critical_data_derivative_vanishes():
    with pytest.raises(DerivativeVanishes):
        critical_data(Poly(F5, [1, 0, 0, 0, 0, 1]))  # x^5 + 1 over F_5


def test_critical_data_from_extension_base_field():
    # base field already an extension and critical points one level further up:
    # roots are extracted in F_{p^(l*M)} after embedding via a modulus root
    from ffintervals.finite_field import make_extension
    from ffintervals.morse_galois import _embed_raw
    from ffintervals.polynomial import derivative, factor, random_monic

    F25 = make_extension(F5, 2, 0)
    rng = random.Random("deep-ext")
    verified = 0
    while verified < 3:
        f = random_monic(F25, 4, rng)
        fp = derivative(f)
        if fp.is_zero or fp.degree < 2:
            continue
        if max(p.degree for p, _ in factor(fp).factors) < 2:
            continue
        cd = critical_data(f)
        ext = cd.ext_ctx
        assert ext.l > F25.l
        fp_ext = Poly.from_raw(
            ext, [_embed_raw(ext, F25, cd.gen_image, c) for c in fp.raw_coeffs]
        )
        for pt, _ in cd.points:
            assert not fp_ext(pt)
        assert sum(m for _, m in cd.points) == fp.degree
        verified += 1


def test_extension_embedding_is_ring_homomorphism():
    from ffintervals.finite_field import make_extension
    from ffintervals.morse_galois import _embed_raw
    from ffintervals.polynomial import roots_in_field

    F25 = make_extension(F5, 2, 0)
    ext = make_extension(F5, 4, 0)
    gen = roots_in_field(Poly(ext, [int(c) for c in F25.modulus]))[0].raw
    rng = random.Random("hom")
    for _ in range(200):
        a = F25.raw_from_index(rng.randrange(25))
        b = F25.raw_from_index(rng.randrange(25))
        ea, eb = _embed_raw(ext, F25, gen, a), _embed_raw(ext, F25, gen, b)
        assert _embed_raw(ext, F25, gen, F25.mul(a, b)) == ext.mul(ea, eb)
        assert _embed_raw(ext, F25, gen, F25.add(a, b)) == ext.add(ea, eb)


# ---------------------------------------------------------------------------
# the Morse test


def test_is_morse_known_cases():
    assert not is_morse(parse_poly("x^4-2*x^2", F13))[0]
    assert not is_morse(parse_poly("x^3", F7))[0]
    ok, diag = is_morse(parse_poly("x^3+x", F7))
    assert ok and diag["distinct_value_count"] == 2


def test_is_morse_coprimality_warning():
    # gcd(q, 2d) != 1 for d = 3 over F_3
    F3 = make_prime_field(3)
    _, diag = is_morse(parse_poly("x^4+x", F3))
    assert not diag["coprimality_warning"]
    _, diag = is_morse(parse_poly("x^3+x+1", F13) * Poly(F13, [1]))  # fine case
    assert not diag["coprimality_warning"]
    _, diag = is_morse(parse_poly("x^3+x", F3))
    assert diag["coprimality_warning"]


def _monics(ctx, degrees):
    for d in degrees:
        for idx in range(ctx.q**d):
            yield poly_from_index(ctx, d, idx)


def test_is_morse_agrees_with_critical_data_route():
    # dual route: distinct roots of D(t) = disc(f + t) versus explicit root
    # extraction in the splitting extension.  The exhaustive fields reach
    # p <= d, p | d, q <= deg f' and F_{p^l}.
    rng = random.Random("morse-dual")
    sampled = []
    for _ in range(120):
        ctx = (F7, F13)[rng.randrange(2)]
        sampled.append(random_monic(ctx, rng.randrange(2, 5), rng))
    exhaustive = [
        (F3, (2, 3, 4, 5)),
        (F5, (2, 3, 4, 5)),
        (F7, (2, 3, 4)),
        (make_extension(F2, 2), (2, 3)),
        (make_extension(F2, 3), (2, 3)),
        (make_extension(F3, 2), (2, 3)),
        (make_extension(F5, 2), (2,)),
    ]
    for f in sampled + [f for ctx, degrees in exhaustive for f in _monics(ctx, degrees)]:
        d = f.degree
        fp = derivative(f)
        fast, diag = is_morse(f)
        if fp.is_zero:
            assert not fast
            continue
        cd = critical_data(f)
        slow = (
            fp.degree == d - 1
            and all(m == 1 for _, m in cd.points)
            and cd.distinct_value_count == d - 1
        )
        assert fast == slow, f
        assert diag["distinct_value_count"] == cd.distinct_value_count, f


def test_make_non_morse_really_is_non_morse():
    rng = random.Random("nonmorse")
    for _ in range(30):
        d = rng.choice((3, 4, 5))
        f = make_non_morse(F13, d, rng)
        assert f.is_monic and f.degree == d
        ok, diag = is_morse(f)
        assert not ok
        assert diag["deg_derivative"] == d - 1


# ---------------------------------------------------------------------------
@pytest.mark.parametrize("p,text", [(2, "x^4+x+1"), (3, "x^3+x")])
def test_constant_derivative_has_no_critical_data(p, text):
    # p | d leaves f' a nonzero constant: no critical points, no bad shifts
    ctx = make_prime_field(p)
    f = parse_poly(text, ctx)
    cd = critical_data(f)
    assert cd.ext_ctx == ctx and cd.points == cd.values == ()
    assert cd.distinct_value_count == 0
    assert bad_set(f) == set()
    assert not bad_shift_check(f, (ctx(0), ctx(1)))


# bad sets and bad shifts


def test_bad_set_known_cases():
    assert sorted(e.raw for e in bad_set(parse_poly("x^4-2*x^2", F7))) == [1, 6]
    assert bad_set(parse_poly("x^3", F7)) == set()


def test_bad_set_symmetric_and_bounded():
    rng = random.Random("badset")
    for _ in range(40):
        d = rng.randrange(2, 6)
        f = random_monic(F13, d, rng)
        from ffintervals.polynomial import derivative

        if derivative(f).is_zero:
            continue
        b = bad_set(f)
        raws = {e.raw for e in b}
        assert len(b) <= (d - 1) ** 2
        assert all((-e).raw in raws for e in b)
        assert 0 not in raws


def test_bad_set_lands_in_prime_field_from_extension_values():
    # x^3 + x over F_5 has critical values in F_25 \ F_5; their nonzero
    # differences still get filtered down to F_5 membership
    f = parse_poly("x^3+x", F5)
    b = bad_set(f)
    for e in b:
        assert e.ctx.l == 1


def test_bad_shift_check_cases():
    f = parse_poly("x^4-2*x^2", F7)
    assert bad_shift_check(f, (F7(0), F7(1)))
    assert not bad_shift_check(f, (F7(0), F7(3)))
    assert not bad_shift_check(parse_poly("x^3", F7), (F7(0), F7(1), F7(2)))
    assert not bad_shift_check(f, (F7(2),))  # singleton: H - H = {0}


def test_bad_shift_check_rejects_duplicates():
    with pytest.raises(OutOfRange):
        bad_shift_check(parse_poly("x^3", F7), (F7(1), F7(1)))


def test_quartic_with_three_critical_values_and_doubling_shifts():
    # x^4 + x^3 + 3x^2 over F_7 has critical values {0, 1, 3}; shifting by
    # {0, 1, 2, 4} makes the multiset union cover its support twice over
    f = parse_poly("x^4+x^3+3*x^2", F7)
    cd = critical_data(f)
    assert cd.ext_ctx == F7
    assert sorted({v.raw for v in cd.values}) == [0, 1, 3]
    shifts = (0, 1, 2, 4)
    counter = {}
    for r in {v.raw for v in cd.values}:
        for h in shifts:
            counter[(r + h) % 7] = counter.get((r + h) % 7, 0) + 1
    assert all(v == 2 for v in counter.values())
    assert bad_shift_check(f, tuple(F7(h) for h in shifts))


def _bad_sets_from_critical_data(f, shift_pairs):
    """(B(f) as raws, [is h1 - h2 a critical value difference]) from the splitting extension."""
    from ffintervals.morse_galois import _embed_raw

    ctx, cd = f.ctx, critical_data(f)
    ext, raws = cd.ext_ctx, cd.value_set_raws()
    diffs = {ext.sub(a, b) for a in raws for b in raws if a != b}
    bad = {delta for delta in diffs if ext.frob(delta) == delta}  # a prime-subfield raw is its F_p raw
    return bad, [_embed_raw(ext, ctx, cd.gen_image, ctx.sub(h1, h2)) in diffs for h1, h2 in shift_pairs]


def test_bad_sets_against_the_critical_values():
    # every quartic center over F_7 and F_9 with the shifts (0, h), h != 0,
    # and seeded non-Morse centers (a doubled critical point) over F_13,
    # F_1009, F_25 and F_125 with three seeded shifts, against the nonzero
    # differences of the critical values in the splitting extension
    F9 = make_extension(F3, 2, 0)
    cases = [
        (f, [(0, h) for h in range(1, ctx.q)])
        for ctx in (F7, F9) for f in (poly_from_index(ctx, 4, ctx.q * i) for i in range(ctx.q**3))
    ]
    rng = random.Random("bad-sets")
    fields = (F13, make_prime_field(1009), make_extension(F5, 2, 0), make_extension(F5, 3, 0))
    for ctx in fields:
        for d in range(3, min(ctx.p, 9)):
            for _ in range(6):
                h1, h2, h3 = rng.sample(range(ctx.q), 3)
                cases.append((make_non_morse(ctx, d, rng), [(h1, h2), (h1, h3), (h2, h3)]))
    nonempty = bad_pairs = 0
    for f, pairs in cases:
        ctx = f.ctx
        bad, flags = _bad_sets_from_critical_data(f, pairs)
        got = bad_set(f)
        assert {e.raw for e in got} == bad and all(e.ctx == ctx.prime_field() for e in got), f
        for (h1, h2), flag in zip(pairs, flags):
            assert bad_shift_check(f, (ctx.elem(h1), ctx.elem(h2))) == flag, (f, h1, h2)
        nonempty += bool(bad)
        bad_pairs += sum(flags)
    assert (len(cases), nonempty, bad_pairs) == (1168, 177, 842)


def test_bad_sets_past_the_splitting_field_cap():
    # f' = 12 (x - tau)^2 h_9 over F_(13^3), h_9 irreducible of degree 9:
    # the critical points need F_(13^27), past the cap, and D(t) does not
    from ffintervals.errors import ExtensionTooLarge
    from ffintervals.polynomial import is_irreducible

    ctx = make_extension(F13, 3, 0)
    rng = random.Random("past-the-cap")
    h9 = next(h for h in iter(lambda: random_monic(ctx, 9, rng), None) if is_irreducible(h))
    tau = Poly(ctx, [ctx.element_from_index(rng.randrange(ctx.q))])
    fp = Poly(ctx, [12]) * (Poly.x(ctx) - tau) ** 2 * h9
    f = Poly(ctx, [0] + [c / ctx(i + 1) for i, c in enumerate(fp.coeffs)])
    assert derivative(f) == fp and f.is_monic and f.degree == 12
    with pytest.raises(ExtensionTooLarge):
        critical_data(f)
    assert not is_morse(f)[0]
    bad = bad_set(f)
    flags = [bad_shift_check(f, (ctx(0), ctx(h))) for h in range(1, 13)]
    assert flags == [ctx(h) in bad for h in range(1, 13)]


def test_bad_sets_raise_where_f_prime_vanishes():
    f = parse_poly("x^5+1", F5)
    for call in (lambda: bad_set(f), lambda: bad_shift_check(f, (F5(0), F5(1)))):
        with pytest.raises(DerivativeVanishes, match="f' = 0; no critical point data"):
            call()


# ---------------------------------------------------------------------------
# cancellation classifier


def test_classifier_cusp_no_cancellation_sign():
    verdict = classify_mu_cancellation(parse_poly("x^3", F7))
    assert verdict.kind == NO_CANCELLATION
    assert verdict.witness_exponents == (2,)
    assert verdict.sign == -1  # p = 7 = 1 mod 3
    # exact enumeration oracle: sum of mu over the interval
    mu3 = make_builtin("moebius", 3)
    from ffintervals.class_functions import evaluate

    total = sum(evaluate(mu3, parse_poly("x^3", F7).shift_const(F7(a))) for a in range(7))
    assert total == -6
    assert predicted_no_cancellation_sum(verdict, parse_poly("x^3", F7)) == -6


def test_classifier_cusp_sign_flips_mod_3():
    verdict = classify_mu_cancellation(parse_poly("x^3", F5))
    assert verdict.kind == NO_CANCELLATION and verdict.sign == 1
    mu3 = make_builtin("moebius", 3)
    from ffintervals.class_functions import evaluate

    total = sum(evaluate(mu3, parse_poly("x^3", F5).shift_const(F5(a))) for a in range(5))
    assert total == 4
    assert predicted_no_cancellation_sum(verdict, parse_poly("x^3", F5)) == 4


def test_classifier_morse_cancellation():
    verdict = classify_mu_cancellation(parse_poly("x^3+x", F7))
    assert verdict.kind == SQRT_CANCELLATION
    assert verdict.sign is None
    # empirical cross-check at p = 7: the sum is small
    mu3 = make_builtin("moebius", 3)
    from ffintervals.class_functions import evaluate

    total = sum(
        evaluate(mu3, parse_poly("x^3+x", F7).shift_const(F7(a))) for a in range(7)
    )
    assert abs(total) <= 2 * 7**0.5


def test_classifier_even_characteristic():
    F2 = make_prime_field(2)
    with pytest.raises(EvenCharacteristic):
        classify_mu_cancellation(parse_poly("x^3+x+1", F2))


def test_classifier_consistent_with_enumeration_random():
    # for random small-degree centers, the verdict matches the exact sums
    from ffintervals.class_functions import evaluate

    rng = random.Random("verdicts")
    for _ in range(40):
        p = (11, 13, 17, 19)[rng.randrange(4)]
        ctx = make_prime_field(p)
        d = rng.randrange(2, 5)
        f = random_monic(ctx, d, rng)
        verdict = classify_mu_cancellation(f)
        mu = make_builtin("moebius", d)
        total = sum(evaluate(mu, f.shift_const(ctx(a))) for a in range(p))
        if verdict.kind == NO_CANCELLATION:
            assert abs(total) >= p - d
            assert total == predicted_no_cancellation_sum(verdict, f)
        else:
            # Weil scale: 2(d-1) sqrt(p) is a generous envelope at these sizes
            assert abs(total) <= 2 * d * p**0.5


def test_classifier_in_characteristic_at_most_d():
    # the quartic over F_27 and over F_3, where q = 3 <= deg f' = 3:
    # p = 3 <= d = 4 and D = t^3 + 2 = (t + 2)^3 in both
    for ctx in (make_extension(F3, 3, 0), F3):
        verdict = classify_mu_cancellation(parse_poly("x^4+2*x^3+x+1", ctx))
        assert verdict.kind == SQRT_CANCELLATION and verdict.sign is None
        assert verdict.witness_disc == parse_poly("x^3+2", ctx)
        assert verdict.witness_exponents == (3,)


def test_classifier_constant_and_vanishing_d():
    # f' a nonzero constant: D = disc(x^3 + x + t) = -4 is a constant, every
    # member is squarefree and mu has the sign (-1)^3 chi(-4) = -1 on all 9;
    # f' = 0: D = 0, and every member x^3 + c is a cube
    F9 = make_extension(F3, 2, 0)
    mu3 = make_builtin("moebius", 3)
    f = parse_poly("x^3+x", F9)
    verdict = classify_mu_cancellation(f)
    assert verdict.kind == NO_CANCELLATION and verdict.sign == -1
    assert verdict.witness_disc.degree == 0 and verdict.witness_exponents == ()
    assert predicted_no_cancellation_sum(verdict, f) == -9
    assert interval_lab.class_sum(F9, f, mu3).raw_sum == -9
    with pytest.raises(DerivativeVanishes):
        classify_mu_cancellation(parse_poly("x^3", F9))


def _centers(ctx, d):
    """Every monic degree-d center (constant term 0) over ctx."""
    return [poly_from_index(ctx, d, ctx.q * idx) for idx in range(ctx.q ** (d - 1))]


def test_classifier_against_table_moebius_sums_in_characteristic_3():
    # every cubic, quartic and quintic center over F_9, every cubic center and
    # 2000 seeded quartic centers over F_27 (all 19683 give only square-root
    # verdicts: deg D = 3 is odd).  The Möbius sum over I(f) is read off the
    # run scope's cycle-type table; a no-cancellation verdict predicts it
    # exactly, and a square-root one bounds it by Weil, (r - 1) sqrt(q) for
    # r distinct roots of D.  f' = 0 makes every member a cube.
    F9, F27 = make_extension(F3, 2, 0), make_extension(F3, 3, 0)
    quartics = random.Random("classify/F27/quartic").sample(_centers(F27, 4), 2000)
    cases = [(F9, 3, _centers(F9, 3)), (F9, 4, _centers(F9, 4)), (F9, 5, _centers(F9, 5))]
    cases += [(F27, 3, _centers(F27, 3)), (F27, 4, quartics)]
    kinds = Counter()
    for ctx, d, centers in cases:
        with interval_lab.run_scope():
            for f in centers:
                counts = interval_lab._joint_counts(ctx, f, (ctx(0),))
                total = sum((-1) ** len(ct) * n for (ct,), n in counts.items() if ct is not None)
                try:
                    verdict = classify_mu_cancellation(f)
                except DerivativeVanishes:
                    assert derivative(f).is_zero and total == 0
                    kinds[ctx.q, d, "f' = 0"] += 1
                    continue
                dpoly = verdict.witness_disc
                if verdict.kind == NO_CANCELLATION:
                    assert total == predicted_no_cancellation_sum(verdict, f), f
                else:
                    _, parts = squarefree_decomposition(dpoly)
                    r = sum(s.degree for s, _ in parts)
                    assert abs(total) <= (r - 1) * math.sqrt(ctx.q), f
                kinds[ctx.q, d, verdict.kind, dpoly.degree > 0] += 1
    assert kinds == {
        (9, 3, "f' = 0"): 1,
        (9, 3, NO_CANCELLATION, False): 8,
        (9, 3, SQRT_CANCELLATION, True): 72,
        (9, 4, SQRT_CANCELLATION, True): 729,
        (9, 5, NO_CANCELLATION, True): 225,
        (9, 5, SQRT_CANCELLATION, True): 6336,
        (27, 3, "f' = 0"): 1,
        (27, 3, NO_CANCELLATION, False): 26,
        (27, 3, SQRT_CANCELLATION, True): 702,
        (27, 4, SQRT_CANCELLATION, True): 2000,
    }


# ---------------------------------------------------------------------------
# Stickelberger parity


def test_stickelberger_known_values():
    assert stickelberger_mu(parse_poly("x^2+1", F5)) == 1
    assert stickelberger_mu(parse_poly("x^2+1", make_prime_field(3))) == -1
    assert stickelberger_mu(parse_poly("x^2", F5)) == 0


def test_stickelberger_even_characteristic():
    with pytest.raises(EvenCharacteristic):
        stickelberger_mu(parse_poly("x^2+x+1", make_prime_field(2)))


def test_stickelberger_matches_factorization_mu():
    rng = random.Random("stick")
    primes = [3, 5, 7, 11, 13, 31, 97]
    checked = 0
    while checked < 300:
        ctx = make_prime_field(primes[rng.randrange(len(primes))])
        d = rng.randrange(1, 7)
        g = random_monic(ctx, d, rng)
        if not is_squarefree(g):
            assert stickelberger_mu(g) == 0
            continue
        checked += 1
        assert stickelberger_mu(g) == (-1) ** factor(g).omega


def test_stickelberger_over_extension_field():
    F25 = make_extension(F5, 2, 0)
    rng = random.Random("stick-ext")
    checked = 0
    while checked < 100:
        g = random_monic(F25, rng.randrange(1, 5), rng)
        if not is_squarefree(g):
            continue
        checked += 1
        assert stickelberger_mu(g) == (-1) ** factor(g).omega
