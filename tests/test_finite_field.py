import functools
import pickle
import random

import pytest

from ffintervals import finite_field
from ffintervals.errors import CtxMismatch, NotPrime, OutOfRange
from ffintervals.finite_field import (
    FieldCtx,
    FieldElement,
    frobenius,
    in_prime_subfield,
    make_extension,
    make_prime_field,
    to_prime_subfield,
)
from ffintervals.polynomial import _reval


def test_make_prime_field_basic():
    ctx = make_prime_field(7)
    assert (ctx.p, ctx.l, ctx.q) == (7, 1, 7)


def test_make_prime_field_rejects_composite():
    with pytest.raises(NotPrime):
        make_prime_field(4)


def test_make_prime_field_rejects_small_and_huge():
    with pytest.raises(OutOfRange):
        make_prime_field(1)
    with pytest.raises(OutOfRange):
        make_prime_field((1 << 31) + 11)


def test_extension_of_degree_one_is_base():
    base = make_prime_field(5)
    assert make_extension(base, 1, 12345) is base


def test_f8_modulus_is_an_irreducible_cubic():
    # oracle: a cubic over F_2 is irreducible iff it has no root in F_2
    irreducible = set()
    for mask in range(8):
        low = [(mask >> i) & 1 for i in range(3)]
        coeffs = low + [1]

        def value_at(x):
            return sum(c * x**i for i, c in enumerate(coeffs)) % 2

        if value_at(0) != 0 and value_at(1) != 0:
            irreducible.add(tuple(coeffs))
    assert irreducible == {(1, 1, 0, 1), (1, 0, 1, 1)}
    ctx = make_extension(make_prime_field(2), 3, 0)
    assert ctx.q == 8
    assert ctx.modulus in irreducible


def test_extension_modulus_deterministic():
    base = make_prime_field(5)
    a = make_extension(base, 2, 0)
    b = make_extension(base, 2, 0)
    assert a.modulus == b.modulus
    c = make_extension(base, 2, 7)
    assert c.modulus is not None  # seed may differ, result still irreducible


def test_inverse_of_three_mod_seven_by_search():
    # brute-force oracle over F_7
    oracle = next(b for b in range(7) if 3 * b % 7 == 1)
    assert oracle == 5
    ctx = make_prime_field(7)
    assert ctx(3) * ctx(5) == ctx(1)
    assert ctx(1) / ctx(3) == ctx(5)


def test_division_by_zero():
    ctx = make_prime_field(7)
    with pytest.raises(ZeroDivisionError):
        ctx(1) / ctx(0)


def test_ctx_mismatch():
    a = make_prime_field(7)(3)
    b = make_prime_field(11)(3)
    with pytest.raises(CtxMismatch):
        a + b


@pytest.mark.parametrize("p,l", [(7, 1), (5, 2), (2, 4), (13, 1), (3, 3)])
def test_field_axioms_sampled(p, l):
    ctx = make_extension(make_prime_field(p), l, 0) if l > 1 else make_prime_field(p)
    rng = random.Random(f"axioms/{p}/{l}")
    zero, one = ctx(0), ctx(1)
    for _ in range(1000 if ctx.q > 3 else 100):
        a = ctx.element_from_index(rng.randrange(ctx.q))
        b = ctx.element_from_index(rng.randrange(ctx.q))
        c = ctx.element_from_index(rng.randrange(ctx.q))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        if a != zero:
            assert a * (one / a) == one


@pytest.mark.parametrize("p,l", [(5, 4), (2, 3), (3, 2), (23, 1)])
def test_fermat_exhaustive_small_fields(p, l):
    ctx = make_extension(make_prime_field(p), l, 0) if l > 1 else make_prime_field(p)
    assert ctx.q <= 625
    for a in ctx.elements():
        assert a**ctx.q == a


def test_frobenius_fixes_prime_subfield():
    ctx = make_prime_field(13)
    for a in ctx.elements():
        assert frobenius(a) == a
        assert in_prime_subfield(a)


def test_frobenius_on_f4_generator():
    # F_4 = F_2[y]/(y^2+y+1); reducing y^2 by the modulus gives y + 1
    ctx = make_extension(make_prime_field(2), 2, 0)
    assert ctx.modulus == (1, 1, 1)
    y = FieldElement(ctx, 2)  # coefficients (0, 1)
    assert y.coeffs == (0, 1)
    assert frobenius(y) == FieldElement(ctx, 3)
    assert frobenius(y).coeffs == (1, 1)
    assert not in_prime_subfield(y)
    assert in_prime_subfield(ctx(0))
    assert in_prime_subfield(ctx(1))


def test_frobenius_l_fold_identity_and_homomorphism():
    ctx = make_extension(make_prime_field(3), 3, 0)
    rng = random.Random("frob")
    for _ in range(200):
        a = ctx.element_from_index(rng.randrange(ctx.q))
        b = ctx.element_from_index(rng.randrange(ctx.q))
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
        out = a
        for _ in range(ctx.l):
            out = frobenius(out)
        assert out == a


@pytest.mark.parametrize("p,l", [(5, 4), (2, 3), (7, 2)])
def test_index_is_a_bijection(p, l):
    ctx = make_extension(make_prime_field(p), l, 0)
    seen = {a.index for a in ctx.elements()}
    assert seen == set(range(ctx.q))
    for i in (0, 1, ctx.q - 1):
        assert ctx.element_from_index(i).index == i


def test_to_prime_subfield_roundtrip():
    ctx = make_extension(make_prime_field(5), 2, 0)
    a = ctx(3)
    down = to_prime_subfield(a)
    assert down.ctx.l == 1 and down.raw == 3
    y = FieldElement(ctx, 5)  # coefficients (0, 1)
    with pytest.raises(OutOfRange):
        to_prime_subfield(y)


def test_pow_and_is_square():
    ctx = make_prime_field(11)
    squares = {(x * x) % 11 for x in range(11)}
    for a in range(11):
        assert ctx.is_square(a) == (a in squares)


# ---------------------------------------------------------------------------
# discrete-log tables against the schoolbook arithmetic they replace

SMALL_EXTENSIONS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


def _table_and_reference(p, l, monkeypatch):
    """A context with its log tables built, and an equal one that never builds them."""
    fast = make_extension(make_prime_field(p), l, 0)
    fast.mul(fast.one_raw, fast.one_raw)
    assert fast._log is not None and len(fast._log) == fast.q
    monkeypatch.setattr(finite_field, "_LOG_TABLE_CAP", 0)
    ref = FieldCtx(p, l, fast.modulus)
    return fast, ref


@pytest.mark.parametrize("p,l", SMALL_EXTENSIONS)
def test_log_tables_match_schoolbook_exhaustive(p, l, monkeypatch):
    fast, ref = _table_and_reference(p, l, monkeypatch)
    elems = [fast.raw_from_index(i) for i in range(fast.q)]
    squares = {ref.mul(b, b) for b in elems}
    for a in elems:
        for b in elems:
            assert fast.mul(a, b) == ref.mul(a, b)
            assert fast.add(a, b) == ref.add(a, b)
            assert fast.sub(a, b) == ref.sub(a, b)
            if not fast.is_zero(b):
                assert fast.div(a, b) == ref.div(a, b)
        for e in (0, 1, 2, p, fast.q - 2, fast.q - 1, fast.q, 3 * fast.q + 5):
            assert fast.pow_raw(a, e) == ref.pow_raw(a, e)
        assert fast.neg(a) == ref.neg(a)
        assert fast.frob(a) == ref.frob(a)
        assert fast.pth_root(a) == ref.pth_root(a)
        assert fast.is_square(a) == ref.is_square(a) == (a in squares)
        if fast.is_zero(a):
            with pytest.raises(ZeroDivisionError):
                fast.inv(a)
        else:
            assert fast.inv(a) == ref.inv(a)
            assert fast.pow_raw(a, -3) == ref.pow_raw(a, -3)
    assert ref._log is None


def test_field_above_the_table_cap_uses_schoolbook():
    ctx = make_extension(make_prime_field(3), 9, 0)  # q = 19683
    assert ctx.q > finite_field._LOG_TABLE_CAP
    rng = random.Random("above-cap")
    one = ctx.one_raw
    for _ in range(30):
        a, b, c = (ctx.raw_from_index(rng.randrange(1, ctx.q)) for _ in range(3))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.inv(a)) == one
        assert ctx.inv(a) == ctx.pow_raw(a, ctx.q - 2)
        assert ctx.div(ctx.mul(a, b), b) == a
        assert ctx.pow_raw(a, ctx.q - 1) == one
        assert ctx.pth_root(ctx.frob(a)) == a
        assert ctx.is_square(ctx.mul(a, a))
    # half of F_q^* are non-squares, and Euler's criterion gives -1 on them
    non_squares = [a for a in map(ctx.raw_from_index, range(1, 60)) if not ctx.is_square(a)]
    assert non_squares
    for a in non_squares:
        assert ctx.pow_raw(a, (ctx.q - 1) // 2) == ctx.neg(one)
    assert ctx._log is None


@pytest.mark.parametrize("p,l", [(1009, 2), (1009, 3), (997, 4), (3, 9)])
def test_schoolbook_digit_arithmetic_matches_coefficient_lists(p, l):
    # the extensions critical_data builds at p ~ 1000, and F_{3^9}
    ctx = make_extension(make_prime_field(p), l, 0)
    assert ctx.q > finite_field._LOG_TABLE_CAP

    def coeffs(r):
        return finite_field._digits(p, l, r)

    def raw(cs):
        return finite_field._undigits(p, cs)

    rng = random.Random(f"digits/{p}/{l}")
    picks = [0, 1, p - 1, p, ctx.q - 1] + [rng.randrange(ctx.q) for _ in range(200)]
    for a, b in zip(picks, picks[1:] + picks[:1]):
        x, y = coeffs(a), coeffs(b)
        assert ctx.add(a, b) == raw([(u + v) % p for u, v in zip(x, y)])
        assert ctx.sub(a, b) == raw([(u - v) % p for u, v in zip(x, y)])
        assert ctx.neg(a) == raw([-u % p for u in x])
        assert ctx.mul(a, b) == raw(finite_field._imulmod(p, x, y, ctx.modulus))


def test_inverse_above_the_cap_rejects_a_reducible_modulus():
    # x^9 - x = x * (x^8 - 1) over F_3: x shares a factor with the modulus
    ctx = FieldCtx(3, 9, (0, 2, 0, 0, 0, 0, 0, 0, 0, 1))
    assert ctx.q > finite_field._LOG_TABLE_CAP
    with pytest.raises(ZeroDivisionError, match="not invertible"):
        ctx.inv(3)  # x, coefficients (0, 1, 0, ..., 0)
    assert ctx.inv(2) == 2


def test_raw_outside_the_table_raises():
    # F_{5^4} computes through its tables, F_{3^9} and F_{1009^2} above the cap
    for p, l in ((5, 4), (3, 9), (1009, 2)):
        ctx = make_extension(make_prime_field(p), l, 0)
        one = ctx.one_raw
        ops = (
            lambda r: ctx.mul(r, one),
            lambda r: ctx.mul(one, r),
            lambda r: ctx.add(one, r),
            lambda r: ctx.sub(r, one),
            lambda r: ctx.div(one, r),
            ctx.neg,
            ctx.inv,
            ctx.frob,
            ctx.is_square,
        )
        # unreduced, negative (a list index would wrap) and an old-style tuple
        tuple_raw = (1,) + (0,) * (l - 1)
        for bad, error in ((ctx.q, IndexError), (-1, IndexError), (tuple_raw, TypeError)):
            for op in ops:
                with pytest.raises(error):
                    op(bad)
        with pytest.raises(TypeError):
            ctx.mul([1] + [0] * (l - 1), one)


def test_memoized_contexts_unpickle_as_themselves_and_tables_stay_out():
    ctx = make_extension(make_prime_field(5), 4, 0)
    ctx.mul(ctx.one_raw, ctx.one_raw)
    assert ctx._log is not None
    assert pickle.loads(pickle.dumps(ctx)) is ctx  # an unpickled context reuses its tables
    bare = FieldCtx(5, 4, ctx.modulus)
    assert pickle.dumps(ctx) == pickle.dumps(bare)  # no tables in the pickle
    assert len(pickle.dumps(ctx)) < 200


def test_a_context_new_to_the_process_unpickles_once_and_make_extension_finds_it(monkeypatch):
    blob = pickle.dumps(make_extension(make_prime_field(7), 3, 0))
    # a process that never built F_{7^3} has neither memo
    monkeypatch.setattr(finite_field, "_contexts", {})
    fresh_search = functools.lru_cache(maxsize=None)(finite_field._extension.__wrapped__)
    monkeypatch.setattr(finite_field, "_extension", fresh_search)
    builds = []
    logs = FieldCtx._logs

    def counting_logs(ctx):
        if ctx._log is None:
            builds.append(ctx)
        return logs(ctx)

    monkeypatch.setattr(FieldCtx, "_logs", counting_logs)
    first = pickle.loads(blob)
    first.mul(2, 3)
    second = pickle.loads(blob)
    second.mul(2, 3)
    assert second is first and builds == [first]
    assert make_extension(make_prime_field(7), 3, 0) is first


def test_tables_stay_out_of_identity_and_pickles():
    ctx = FieldCtx(7, 2, (3, 1, 1))  # x^2 + x + 3, not from make_extension
    ctx.mul(ctx.one_raw, ctx.one_raw)
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone == ctx and hash(clone) == hash(ctx)
    assert ctx._log is not None and clone._log is None
    assert ctx.__reduce__() == (finite_field._context, (7, 2, (3, 1, 1)))


@pytest.mark.parametrize("p,l", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 2)])
def test_is_square_matches_the_set_of_squares(p, l):
    ctx = make_extension(make_prime_field(p), l, 0)
    elems = [ctx.raw_from_index(i) for i in range(ctx.q)]
    squares = {ctx.mul(b, b) for b in elems}
    assert [ctx.is_square(a) for a in elems] == [a in squares for a in elems]


def test_packed_slots_are_64_bit_little_endian_by_value():
    # slot i of a packed int is its bits 64i to 64i + 63, whatever the host's byte order
    cs = [1, 2**64 - 1, 0, 12345]
    n = finite_field._ipack(cs)
    assert n == sum(c << (64 * i) for i, c in enumerate(cs))
    assert finite_field._iunpack(n) == tuple(cs)
    assert finite_field._iunpack(n, 6) == (*cs, 0, 0)
    assert finite_field._iunpack(finite_field._islots_mod(n, 7)) == tuple(c % 7 for c in cs)
    cs = [1, 2**32 - 1, 0, 12345]
    n = finite_field._ipack(cs, 32)
    assert n == sum(c << (32 * i) for i, c in enumerate(cs))
    assert finite_field._iunpack(n, width=32) == tuple(cs)
    assert finite_field._iunpack(n, 6, 32) == (*cs, 0, 0)


@pytest.mark.parametrize("n", [10, 11, 40])
def test_chirp_evaluation_on_both_sides_of_the_32_bit_slot_rule(n):
    # at p = 20011 a slot sum is at most n (p - 1)^2, below 2^32 for n <= 10
    # only: n = 10 runs on 32-bit slots, n = 11 and 40 on 64-bit ones.  The
    # first list makes every slot of its chirp operand p - 1; at n = 40 its
    # slot sums pass 2^32.
    p = 20011
    assert finite_field._islot_width(n * (p - 1) ** 2) == (32 if n == 10 else 64)
    g = finite_field._primitive_root(p)
    rng = random.Random(f"chirp/width/{n}")
    polys = [[-pow(g, i * (i - 1) // 2, p) % p for i in range(n)], [p - 1] * n]
    polys.append([rng.randrange(p) for _ in range(n)])
    cols = finite_field._ieval_all(p, polys)
    ctx = make_prime_field(p)
    for a, col in zip(polys, cols):
        assert list(col) == [_reval(ctx, a, c) for c in range(p)], a


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 1009])
def test_chirp_evaluation_matches_horner_at_every_point(p):
    rng = random.Random(f"chirp/{p}")
    polys = [[], [rng.randrange(p)], [0, 1]]
    polys += [[rng.randrange(p) for _ in range(rng.randrange(2, p + 4))] for _ in range(4)]
    cols = finite_field._ieval_all(p, polys)
    for a, col in zip(polys, cols):
        want = []
        for c in range(p):
            acc = 0
            for coeff in reversed(a):
                acc = (acc * c + coeff) % p
            want.append(acc)
        assert list(col) == want, (p, a)


def test_chirp_evaluation_with_full_length_coefficient_lists_at_a_large_prime():
    # 2^9 coefficients p - 1, the longest a batched x^e has; at this p a chirp
    # operand left unreduced mod p would overflow its 64-bit slots
    p = next(n for n in range(700000, 800000) if finite_field.is_prime(n))
    (col,) = finite_field._ieval_all(p, [[p - 1] * 512])
    rng = random.Random("chirp/large")
    for c in [0, 1, p - 1] + [rng.randrange(p) for _ in range(100)]:
        acc = 0
        for _ in range(512):
            acc = (acc * c + p - 1) % p
        assert col[c] == acc, (p, c)
