import contextlib
import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from ffintervals.class_functions import evaluate, make_builtin, partitions_of
from ffintervals.errors import OutOfRange, TooLarge, WorkerFailed
from ffintervals.finite_field import _digits, make_extension, make_prime_field
from ffintervals import interval_lab, morse_galois
from ffintervals.interval_lab import (
    IntervalSpec,
    _joint_counts,
    _stickelberger_product_sum,
    chebotarev_empirical,
    class_sum,
    correlation_sum,
    gauss_census,
    large_q_demo,
    moebius_battery,
    morse_density_scan,
    run_scope,
    squarefree_census,
)
from ffintervals.morse_galois import is_morse
from ffintervals.polynomial import (
    Poly,
    _reval,
    cycle_pattern_or_none,
    derivative,
    disc_in_t,
    discriminant,
    factor,
    is_squarefree,
    random_monic,
)
from ffintervals.polyparse import parse_poly
from ffintervals.suite import first_morse_center

F5 = make_prime_field(5)
F7 = make_prime_field(7)
F11 = make_prime_field(11)
F13 = make_prime_field(13)


def _enumerate_sum(ctx, f, phi, shifts=None):
    """Direct per-element oracle for interval sums (no DDF kernel)."""
    shifts = shifts or [ctx(0)]
    total = Fraction(0)
    for a in range(ctx.q):
        elem = ctx.element_from_index(a)
        term = Fraction(1)
        for h in shifts:
            term *= evaluate(phi, f.shift_const(h).shift_const(elem))
        total += term
    return total


# ---------------------------------------------------------------------------
# class_sum


def test_class_sum_cusp_exact_densities():
    prime3 = make_builtin("prime", 3)
    rep = class_sum(F7, parse_poly("x^3", F7), prime3)
    assert rep.raw_sum == 4  # 2(p-1)/3 at p = 7
    assert rep.nonsquarefree_count == 1
    rep5 = class_sum(F5, parse_poly("x^3", F5), prime3)
    assert rep5.raw_sum == 0


def test_class_sum_counts_partition_the_interval():
    rng = random.Random("part")
    for _ in range(20):
        ctx = (F5, F7, F11, F13)[rng.randrange(4)]
        f = random_monic(ctx, rng.randrange(2, 5), rng)
        phi = make_builtin("moebius", f.degree)
        rep = class_sum(ctx, f, phi)
        assert sum(rep.cycle_type_counts.values()) == ctx.q
        squarefree = sum(
            n for k, n in rep.cycle_type_counts.items() if k[0] is not None
        )
        assert squarefree + rep.nonsquarefree_count == ctx.q


def test_class_sum_matches_enumeration_oracle():
    rng = random.Random("oracle")
    for _ in range(10):
        ctx = (F7, F11)[rng.randrange(2)]
        d = rng.randrange(2, 5)
        f = random_monic(ctx, d, rng)
        kind = ("prime", "moebius")[rng.randrange(2)]
        phi = make_builtin(kind, d)
        rep = class_sum(ctx, f, phi)
        assert rep.raw_sum == _enumerate_sum(ctx, f, phi)


def test_class_sum_requires_matching_degree():
    from ffintervals.errors import DegreeMismatch

    with pytest.raises(DegreeMismatch):
        class_sum(F7, parse_poly("x^3", F7), make_builtin("prime", 4))


def test_class_sum_worker_determinism():
    from ffintervals import reports

    F101 = make_prime_field(101)
    f = parse_poly("x^4+x", F101)
    phi = make_builtin("prime", 4)
    blobs = []
    for workers in (1, 2, 8):
        rep = class_sum(F101, f, phi, workers=workers)
        blobs.append(
            reports.to_json(reports.scrub_timings(reports.experiment_to_dict(rep)))
        )
    assert blobs[0] == blobs[1] == blobs[2]


def test_class_sum_constant_kind_labels():
    rep = class_sum(F13, parse_poly("x^3+x", F13), make_builtin("prime", 3))
    assert rep.constant_kind == "generic"
    rep2 = class_sum(F13, parse_poly("x^3", F13), make_builtin("prime", 3))
    assert rep2.constant_kind == "non-generic"
    assert rep2.empirical_constant == rep2.raw_sum / Fraction(13)


F9 = make_extension(make_prime_field(3), 2, 0)


def _count_disc_in_t(monkeypatch):
    calls = []
    for module in (interval_lab, morse_galois):
        disc = module.disc_in_t
        monkeypatch.setattr(module, "disc_in_t", lambda f, _d=disc: calls.append(f) or _d(f))
    return calls


def test_the_morse_label_reads_the_sweeps_d_of_t(monkeypatch):
    # one D(t) per interval: the sweep's, standalone and in a scope, where a
    # table hit builds none; p = 2 has no D and keeps is_morse, one D per label
    quintic, non_morse = parse_poly("x^5+x^2+x", F9), parse_poly("x^5+x^3+2*x", F9)
    F8 = make_extension(make_prime_field(2), 3, 0)
    cases = ((F9, quintic, "generic", 1), (F9, non_morse, "non-generic", 1),
             (F8, Poly(F8, [1, 1, 0, 1]), "non-generic", 6))  # f' = (x + 1)^2
    for ctx, f, kind, in_scope in cases:
        assert is_morse(f)[0] == (kind == "generic")
        mu = make_builtin("moebius", f.degree)
        single = IntervalSpec(ctx, f, (ctx(0),), (mu,))
        calls = _count_disc_in_t(monkeypatch)
        assert class_sum(ctx, f, mu).constant_kind == kind
        assert len(calls) == 1
        assert correlation_sum(single).constant_kind == kind
        assert len(calls) == 2
        calls.clear()
        with run_scope():
            for c in range(3):
                assert class_sum(ctx, f.shift_const(ctx(c)), mu, 2).constant_kind == kind
                assert correlation_sum(single).constant_kind == kind
        assert len(calls) == in_scope  # odd q: the table's build, and each hit reads its label
        monkeypatch.undo()


def test_the_morse_label_is_is_morse_on_every_small_center():
    rng = random.Random("morse/labels")
    for d in (3, 4, 5):
        for top in range(F9.q ** (d - 1)):
            center = Poly.from_raw(F9, [0] + _digits(F9.q, d - 1, top) + [1])
            f = center.shift_const(F9.element_from_index(rng.randrange(F9.q)))
            assert interval_lab._center(F9, f)[2] == is_morse(f)[0], f


# ---------------------------------------------------------------------------
# correlation_sum


def test_correlation_k1_equals_class_sum():
    f = parse_poly("x^3+2*x", F11)
    phi = make_builtin("prime", 3)
    single = class_sum(F11, f, phi)
    spec = IntervalSpec(F11, f, (F11(0),), (phi,))
    joint = correlation_sum(spec)
    assert joint.raw_sum == single.raw_sum
    assert joint.nonsquarefree_count == single.nonsquarefree_count


def test_correlation_matches_enumeration_oracle():
    rng = random.Random("corr")
    for _ in range(6):
        ctx = F11
        d = rng.randrange(2, 4)
        f = random_monic(ctx, d, rng)
        phi = make_builtin("moebius", d)
        h2 = ctx(rng.randrange(1, 11))
        spec = IntervalSpec(ctx, f, (ctx(0), h2), (phi, phi))
        rep = correlation_sum(spec)
        total = Fraction(0)
        for a in range(ctx.q):
            elem = ctx.element_from_index(a)
            total += evaluate(phi, f.shift_const(elem)) * evaluate(
                phi, f.shift_const(h2).shift_const(elem)
            )
        assert rep.raw_sum == total


def test_correlation_rejects_duplicate_shifts():
    phi = make_builtin("prime", 3)
    with pytest.raises(OutOfRange):
        IntervalSpec(F11, parse_poly("x^3", F11), (F11(1), F11(1)), (phi, phi))


def test_correlation_bad_shift_note_and_single_constants():
    f = parse_poly("x^4-2*x^2", F13)
    phi = make_builtin("prime", 4)
    spec_bad = IntervalSpec(F13, f, (F13(0), F13(1)), (phi, phi))
    rep_bad = correlation_sum(spec_bad)
    assert rep_bad.notes["bad_shifts"] is True
    assert rep_bad.constant_kind == "non-generic"
    spec_good = IntervalSpec(F13, f, (F13(0), F13(3)), (phi, phi))
    rep_good = correlation_sum(spec_good, single_constants=(Fraction(1, 4), Fraction(1, 4)))
    assert rep_good.notes["bad_shifts"] is False
    assert rep_good.constant_kind == "product-of-singles"
    assert rep_good.predicted_constant == Fraction(1, 16)


def test_thm4_product_law_non_morse_good_shifts():
    # product of single-interval empirical constants predicts the pair sum
    from ffintervals.morse_galois import bad_shift_check, make_non_morse
    from ffintervals.tolerances import load_tolerances

    tol = load_tolerances()["thm4_product"]
    p = 1009
    ctx = make_prime_field(p)
    rng = random.Random("0/thm4")  # the calibrated stream
    for _ in range(20):
        d = rng.choice((3, 4, 5))
        f = make_non_morse(ctx, d, rng)
        while True:
            h1, h2 = rng.randrange(p), rng.randrange(p)
            if h1 != h2 and not bad_shift_check(f, (ctx(h1), ctx(h2))):
                break
        phi = make_builtin("prime", d)
        c = class_sum(ctx, f, phi).empirical_constant
        rep = correlation_sum(
            IntervalSpec(ctx, f, (ctx(h1), ctx(h2)), (phi, phi)),
            single_constants=(c, c),
        )
        assert abs(float(rep.raw_sum - c * c * p)) <= tol * p**0.5


# ---------------------------------------------------------------------------
# Chebotarev statistics


def test_chebotarev_kummer_case():
    # x -> x^3 permutes F_11, so every squarefree member has exactly one root
    rep = chebotarev_empirical(F11, parse_poly("x^3", F11), (F11(0),))
    assert rep.frequencies == {((2, 1),): Fraction(1)}
    assert sum(rep.frequencies.values()) == 1


def test_chebotarev_frequencies_sum_to_one():
    rng = random.Random("cheb")
    for _ in range(10):
        f = random_monic(F13, rng.randrange(2, 5), rng)
        rep = chebotarev_empirical(F13, f, (F13(0),))
        assert sum(rep.frequencies.values()) == 1
        assert rep.squarefree_total + rep.nonsquarefree_count == 13


def test_chebotarev_morse_uniformity_at_scale():
    F1009 = make_prime_field(1009)
    from ffintervals.suite import first_morse_center

    f = first_morse_center(F1009, 3)
    rep = chebotarev_empirical(F1009, f, (F1009(0),))
    assert len(rep.predicted) == 3
    assert rep.max_deviation <= 2.0 / 1009**0.5


# ---------------------------------------------------------------------------
# censuses


def test_squarefree_census_known_cases():
    rep = squarefree_census(F7, parse_poly("x^2", F7), (F7(0),))
    assert rep.bad_count == 1 and rep.bad_a[0].raw == 0
    rep3 = squarefree_census(F7, parse_poly("x^3", F7), (F7(0),))
    assert rep3.bad_count == 1


def test_squarefree_census_matches_direct_sweep():
    rng = random.Random("census")
    for _ in range(30):
        ctx = (F7, F11, F13)[rng.randrange(3)]
        d = rng.randrange(2, min(6, ctx.p))
        f = random_monic(ctx, d, rng)
        k = rng.randrange(1, 4)
        shift_vals = rng.sample(range(ctx.p), k)
        shifts = tuple(ctx(v) for v in shift_vals)
        rep = squarefree_census(ctx, f, shifts)
        direct = 0
        for a in range(ctx.q):
            elem = ctx.element_from_index(a)
            if all(
                is_squarefree(f.shift_const(h).shift_const(elem)) for h in shifts
            ):
                direct += 1
        assert rep.all_squarefree_count == direct
        assert rep.bad_count <= rep.bad_bound


def test_squarefree_census_when_q_is_at_most_deg_f_prime():
    # D = t^3 over F_3: x^4 + x + a is squarefree exactly for a != 0
    F3 = make_prime_field(3)
    rep = squarefree_census(F3, parse_poly("x^4+x", F3), (F3(0),))
    assert [a.raw for a in rep.bad_a] == [0] and rep.all_squarefree_count == 2


def test_squarefree_census_takes_d_wherever_q_exceeds_deg_f_prime():
    # p <= deg f (the quartic over F_27, and over F_3 where q = 3 <= deg f';
    # and characteristic 2, where disc = +-Res(g, g') still vanishes exactly
    # on non-squarefree g), against every a by brute force; f' = 0 makes
    # D = 0 and every a bad
    F3 = make_prime_field(3)
    F27, F9 = make_extension(F3, 3, 0), make_extension(F3, 2, 0)
    F8 = make_extension(make_prime_field(2), 3, 0)
    cases = [(F27, "x^4+2*x^3+x+1", (0, 1)), (F3, "x^4+2*x^3+x+1", (0, 1))]
    cases += [(F8, "x^3+x+1", (0, 1)), (F9, "x^3", (0, 1, 2))]
    for ctx, text, shift_ints in cases:
        f, shifts = parse_poly(text, ctx), tuple(ctx(h) for h in shift_ints)
        rep = squarefree_census(ctx, f, shifts)
        bad = [
            a for a in range(ctx.q)
            if not all(is_squarefree(f.shift_const(h).shift_const(ctx.elem(a))) for h in shifts)
        ]
        assert [x.raw for x in rep.bad_a] == bad, (ctx, text)
        assert rep.bad_count == len(bad) and rep.all_squarefree_count == ctx.q - len(bad)
    assert rep.bad_count == 9  # x^3 over F_9


def test_gauss_census_values_and_guard():
    assert gauss_census(2, 2) == (1, 1)
    assert gauss_census(3, 3) == (8, 8)
    for p in (2, 3, 5, 7):
        for d in (2, 3, 4):
            enumerated, formula = gauss_census(p, d)
            assert enumerated == formula
    with pytest.raises(TooLarge):
        gauss_census(1009, 4)


def test_sweep_guard_counts_members_before_any_work(monkeypatch):
    ctx = make_prime_field(1000003)
    f = Poly(ctx, [0, 1, 0, 1])
    swept = []
    monkeypatch.setattr(interval_lab, "_sweep_block", lambda *args: swept.append(args) or {})
    # the per-interval inputs (the batch takes seconds at this p) are work too
    monkeypatch.setattr(interval_lab, "_ddf_inputs", lambda *args: swept.append(args) or (None,) * 3)
    with pytest.raises(TooLarge):
        _joint_counts(ctx, f, tuple(ctx(h) for h in range(10)), 2)  # 10,000,030 members
    big = make_prime_field(10000019)
    with pytest.raises(TooLarge):
        class_sum(big, Poly(big, [0, 0, 0, 1]), make_builtin("moebius", 3))
    assert swept == []
    assert _joint_counts(ctx, f, tuple(ctx(h) for h in range(9))) == ({}, True)  # 9,000,027
    assert len(swept) == 2


def _member_counts(ctx, f, shifts):
    """Joint counts built member by member with the disc-free kernel."""
    counts = {}
    for a in ctx.elements():
        key = tuple(
            cycle_pattern_or_none(ctx, list(f.shift_const(h + a).raw_coeffs)) for h in shifts
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_joint_counts_match_member_by_member_kernel():
    from ffintervals.morse_galois import is_morse, make_non_morse
    from ffintervals.suite import first_morse_center

    F2, F3, F31 = make_prime_field(2), make_prime_field(3), make_prime_field(31)
    F8 = make_extension(F2, 3, 0)
    non_morse = make_non_morse(F31, 5, random.Random("joint"))
    assert not is_morse(non_morse)[0]
    cases = [
        (F31, first_morse_center(F31, 4), (0,)),
        (F31, non_morse, (0,)),
        (F31, parse_poly("x^3+2*x", F31), (0, 1, 5)),
        (F2, parse_poly("x^5+x^2+1", F2), (0, 1)),
        (F3, parse_poly("x^4+x+2", F3), (0, 1)),
        (F8, Poly(F8, [1, 1, 0, 1]), (0,)),
    ]
    for ctx, f, shift_ints in cases:
        shifts = tuple(ctx.element_from_index(h) for h in shift_ints)
        expected = _member_counts(ctx, f, shifts)
        for workers in (1, 2):
            assert _joint_counts(ctx, f, shifts, workers) == (expected, is_morse(f)[0]), (ctx, f, workers)


CROSS_ROUTE_FIELDS = {
    "F3": make_prime_field(3), "F5": make_prime_field(5), "F7": make_prime_field(7),
    "F13": make_prime_field(13), "F9": make_extension(make_prime_field(3), 2, 0),
    "F25": make_extension(make_prime_field(5), 2, 0),
}


@pytest.mark.parametrize("name", CROSS_ROUTE_FIELDS)
def test_joint_counts_match_member_counts_on_every_route(name):
    # d = 2-8 (p <= d included) at 1-3 shifts and 1-3 workers, standalone
    # and from a scope's table: whichever route and however many blocks,
    # the counts are the disc-free kernel's, member by member
    ctx = CROSS_ROUTE_FIELDS[name]
    rng = random.Random(f"cross-route/{name}")
    for d in range(2, 9):
        f = random_monic(ctx, d, rng)
        for k in (1, 2, 3):
            shifts = tuple(ctx.element_from_index(h) for h in rng.sample(range(ctx.q), k))
            expected = (_member_counts(ctx, f, shifts), is_morse(f)[0])
            for workers in (1, 2, 3):
                assert _joint_counts(ctx, f, shifts, workers) == expected, (d, k, workers)
                with run_scope():
                    assert _joint_counts(ctx, f, shifts, workers) == expected, (d, k, workers)
    _assert_no_child_left()


def test_extension_tables_are_built_once_per_process(monkeypatch):
    from ffintervals.finite_field import FieldCtx

    calls = []
    schoolbook = FieldCtx._mul_poly
    monkeypatch.setattr(
        FieldCtx, "_mul_poly", lambda self, a, b: calls.append(1) or schoolbook(self, a, b)
    )
    mu = make_builtin("moebius", 3)
    sums = []
    for _ in range(2):
        calls.clear()
        ctx = make_extension(F5, 4, 0)
        sums.append(class_sum(ctx, parse_poly("x^3+x+1", ctx), mu).raw_sum)
    assert calls == []  # none in the second sum
    assert sums[0] == sums[1]


# ---------------------------------------------------------------------------
# the run scope: one cycle-type table per interval


def _count_kernel_calls(monkeypatch):
    calls = []
    for name in ("_pattern_or_none_int", "_pattern_or_none_generic"):
        kernel = getattr(interval_lab, name)
        monkeypatch.setattr(
            interval_lab, name, lambda *args, _k=kernel: calls.append(1) or _k(*args)
        )
    return calls


def _count_table_builds(monkeypatch):
    """Counts table builds, in a scope or for a standalone sweep."""
    builds = []
    table = interval_lab._table
    monkeypatch.setattr(interval_lab, "_table", lambda *args: builds.append(1) or table(*args))
    return builds


def _untimed(report):
    return dataclasses.replace(report, elapsed=0.0)


def _experiments(ctx, f):
    """Three experiments on I(f), each with its number of shifts."""
    prime, mu = make_builtin("prime", f.degree), make_builtin("moebius", f.degree)
    pair = IntervalSpec(ctx, f, (ctx(0), ctx(1)), (mu, mu))
    return (
        (lambda: class_sum(ctx, f, prime), 1),
        (lambda: correlation_sum(pair), 2),
        (lambda: chebotarev_empirical(ctx, f, (0,)), 1),
    )


def test_run_scope_sweeps_each_interval_once(monkeypatch):
    F25 = make_extension(F5, 2, 0)
    F101 = make_prime_field(101)
    # (field, f, shift of f, kernel calls per member sweep of I(f), kernel calls per table)
    cases = (
        (F101, first_morse_center(F101, 4), 7, 101, 0),  # p > d, d <= 5: the fiber pass
        # q <= deg f' = 5: D(t), and the fiber pass and n_2 name every member,
        # the two with no root (x^6 + x + 1 and + 2) included
        (F5, parse_poly("x^6+x+2", F5), 3, 0, 0),
        (F25, Poly.from_raw(F25, [3, 7, 0, 1]), 11, 25, 0),  # the fiber pass over F_25
    )
    calls = _count_kernel_calls(monkeypatch)
    builds = _count_table_builds(monkeypatch)
    for ctx, f, c, sweep_calls, table_calls in cases:
        runs = _experiments(ctx, f) + _experiments(ctx, f.shift_const(ctx.element_from_index(c)))
        outside = []
        for run, shifts in runs:
            calls.clear()
            outside.append(_untimed(run()))
            assert len(calls) == sweep_calls * shifts, (ctx, f)
        calls.clear()
        builds.clear()
        with run_scope():
            inside = [_untimed(run()) for run, _ in runs]
            assert len(interval_lab._tables) == 1
        assert len(builds) == 1, (ctx, f)  # the first sweep builds the table
        assert len(calls) == table_calls, (ctx, f)
        assert inside == outside, (ctx, f)
        assert interval_lab._tables is None


def test_run_scope_table_is_the_same_at_any_worker_count(monkeypatch):
    F31 = make_prime_field(31)
    mu = make_builtin("moebius", 3)
    for ctx, f in ((F31, parse_poly("x^3+2*x+1", F31)), (F8, Poly(F8, [1, 1, 0, 1]))):
        tables = []
        for workers in (1, 2):
            with run_scope():
                class_sum(ctx, f, mu, workers)
                tables.append(dict(interval_lab._tables))
        assert tables[0] == tables[1]
        ((table, morse),) = tables[0].values()
        assert morse == (None if ctx.p == 2 else is_morse(f)[0])
        expected = [
            cycle_pattern_or_none(ctx, [c] + list(f.raw_coeffs[1:])) for c in range(ctx.q)
        ]
        assert table == expected
    # a tabled interval forks no child: the nonic's table, whose residue
    # clears the gate, forks one, and the sweep that reads it none
    f, = _seeded_centers((9,), "pool/tabled")
    mu = make_builtin("moebius", 9)
    forked = _count_forks(monkeypatch)
    with run_scope():
        first = class_sum(F1747, f, mu, 2)
        assert len(forked) == 1
        again = class_sum(F1747, f.shift_const(F1747(3)), mu, 2)
    assert len(forked) == 1
    assert again.cycle_type_counts == first.cycle_type_counts
    _assert_no_child_left()


def test_frobenius_batch_runs_once_per_interval_in_the_parent(monkeypatch):
    # a standalone sweep and a table at 1 and 2 workers, of a d >= 6 interval
    # over F_101 and of a sextic over F_27 (deg f' = 4, so D(t), and d >= 6:
    # the DDF route): the parent computes the batch (and the root lists) once,
    # and no worker computes it
    from ffintervals import reports

    F101, F27 = make_prime_field(101), make_extension(make_prime_field(3), 3, 0)
    cases = []
    for ctx, text in ((F101, "x^8+3*x^3+x+1"), (F27, "x^6+x^5+2*x^3+x+1")):
        f = parse_poly(text, ctx)
        mu = make_builtin("moebius", f.degree)
        cases.append((ctx, f, mu, IntervalSpec(ctx, f, (ctx(0), ctx(1)), (mu, mu))))
    parent, calls = os.getpid(), []

    def counted(batch):
        def run(field, center):
            assert os.getpid() == parent, "a worker computed the batch"
            calls.append(tuple(center))
            return batch(field, center)
        return run

    for name in ("_frobenius_columns", "_ext_frobenius_columns"):
        monkeypatch.setattr(interval_lab, name, counted(getattr(interval_lab, name)))
    blobs = []
    for workers in (1, 2):
        reps = []
        for ctx, f, mu, pair in cases:
            calls.clear()
            reps += [class_sum(ctx, f, mu, workers), correlation_sum(pair, workers)]
            assert len(calls) == 2  # one standalone sweep each
            with run_scope():
                reps += [class_sum(ctx, f, mu, workers), correlation_sum(pair, workers)]
            assert len(calls) == 3  # one table for both
        blobs.append([
            reports.to_json(reports.scrub_timings(reports.experiment_to_dict(rep))) for rep in reps
        ])
    assert blobs[0] == blobs[1]
    assert blobs[0][:2] == blobs[0][2:4] and blobs[0][4:6] == blobs[0][6:]


def test_run_scope_keys_tables_by_field_and_modulus():
    mu = make_builtin("moebius", 3)
    F25a = make_extension(F5, 2, 0)
    F25b = next(
        ctx for ctx in (make_extension(F5, 2, seed) for seed in range(1, 25))
        if ctx.modulus != F25a.modulus
    )
    fields = (make_prime_field(1009), make_prime_field(1013), F25a, F25b)
    centers = [Poly.from_raw(ctx, [2, 3, 0, 1]) for ctx in fields]
    outside = [class_sum(ctx, f, mu).cycle_type_counts for ctx, f in zip(fields, centers)]
    with run_scope():
        inside = [class_sum(ctx, f, mu).cycle_type_counts for ctx, f in zip(fields, centers)]
        tables = [table for table, _ in interval_lab._tables.values()]
    assert inside == outside
    assert len(tables) == 4
    for ctx, table in zip(fields, tables):
        assert table == [cycle_pattern_or_none(ctx, [c, 3, 0, 1]) for c in range(ctx.q)]
    assert tables[2] != tables[3]  # the same raws are different polynomials


def test_run_scopes_nest_and_restore(monkeypatch):
    f = parse_poly("x^3+x+1", F13)
    mu = make_builtin("moebius", 3)
    calls = _count_kernel_calls(monkeypatch)
    builds = _count_table_builds(monkeypatch)
    with run_scope():
        class_sum(F13, f, mu)
        outer = interval_lab._tables
        with run_scope():
            assert interval_lab._tables == {}
            class_sum(F13, f, mu)
        assert interval_lab._tables is outer
    assert len(builds) == 2  # the inner scope builds its own table
    assert calls == []  # both by the fiber pass


def _count_forks(monkeypatch):
    """The pid of every child forked from here on, in order."""
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # no child at all, running or unreaped
        os.waitpid(-1, os.WNOHANG)


F1747, F10007 = make_prime_field(1747), make_prime_field(10007)
F8 = make_extension(make_prime_field(2), 3, 0)  # p = 2: no D(t), so every table calls the kernel


def _seeded_centers(degrees, label):
    rng = random.Random(label)
    return [random_monic(F1747, d, rng) for d in degrees]


def _residue(ctx, f):
    """The constant terms of the members of I(f) that a table leaves to the kernel."""
    center, d_raws, _ = interval_lab._center(ctx, f)
    discs, _, roots = interval_lab._ddf_inputs(ctx, center, d_raws, True)
    return interval_lab._name(ctx, f.degree, discs, roots)[1]


def test_a_standalone_two_worker_sweep_forks_one_process(monkeypatch):
    # the caller works the first block, so a w-worker sweep whose kernel
    # residue clears the gate (here a nonic, with about 1,700 members
    # left after naming) forks w - 1 children
    f, = _seeded_centers((9,), "pool/standalone")
    mu = make_builtin("moebius", 9)
    assert len(_residue(F1747, f)) >= 3 * interval_lab._FORK_MEMBERS
    forked = _count_forks(monkeypatch)
    rep = class_sum(F1747, f, mu, 2)
    assert len(forked) == 1
    _assert_no_child_left()
    assert rep.cycle_type_counts == class_sum(F1747, f, mu).cycle_type_counts
    assert len(forked) == 1  # one worker forks none
    with run_scope():
        class_sum(F1747, f.shift_const(F1747(1)), mu, 3)
        assert len(forked) == 3
        _assert_no_child_left()
        class_sum(F1747, f.shift_const(F1747(2)), mu, 3)  # the scope's table
    assert len(forked) == 3
    assert threading.active_count() == 1
    _assert_no_child_left()


def test_reports_agree_at_one_two_and_three_workers():
    # d = 6-8 sweeps (root-fed DDF) standalone and from a scope's table, and
    # a d = 4 fiber table split by x: the caller's block joins the children's
    from ffintervals import reports

    blobs = []
    for workers in (1, 2, 3):
        reps = []
        for f in _seeded_centers((6, 7, 8, 4), "pool/agree"):
            mu = make_builtin("moebius", f.degree)
            pair = IntervalSpec(F1747, f, (F1747(0), F1747(1)), (mu, mu))
            if f.degree >= 6:
                reps.append(reports.experiment_to_dict(class_sum(F1747, f, mu, workers)))
            with run_scope():
                reps.append(reports.experiment_to_dict(correlation_sum(pair, workers)))
                rep = chebotarev_empirical(F1747, f, (0, 1), workers)
                reps.append(reports.chebotarev_to_dict(rep))
        blobs.append([reports.to_json(reports.scrub_timings(rep)) for rep in reps])
        _assert_no_child_left()
    assert blobs[0] == blobs[1] == blobs[2]
    assert threading.active_count() == 1


_KERNEL_BLOCK = interval_lab._kernel_block


def _first_block_raises(ctx, center, discs, cols, roots, residue, lo, hi):
    if lo == 0:
        raise RuntimeError("the caller's block")
    return _KERNEL_BLOCK(ctx, center, discs, cols, roots, residue, lo, hi)


@pytest.mark.parametrize("workers", [2, 3])
def test_only_sweeps_that_call_the_kernel_fork(monkeypatch, workers):
    # a table's build, or a standalone d >= 6 sweep's, forks only where its
    # kernel residue clears the gate: a d = 6 or 7 sweep or table and a d = 4
    # table name every member, and a d = 8 one over F_1747 leaves the kernel
    # (5,3) and (4,4), about 170 members; none forks.  A d = 9 sweep or table
    # over F_1747 (about 1,700) and a d = 8 sweep over F_10007 (about 1,000)
    # fork w - 1, and so does a standalone d = 4 sweep, which takes no fiber
    # pass and sends all q members to the kernel
    f4, f6, f7, f8, f9 = _seeded_centers((4, 6, 7, 8, 9), "pool/kernel-bound")
    octic = random_monic(F10007, 8, random.Random("pool/kernel-bound/10007"))
    forked = _count_forks(monkeypatch)
    cases = [(f6, False, 0), (f7, False, 0), (f6, True, 0), (f7, True, 0), (f4, True, 0),
             (f8, False, 0), (f8, True, 0), (f9, False, workers - 1), (f9, True, workers - 1),
             (f4, False, workers - 1), (octic, False, workers - 1)]
    for f, scoped, children in cases:
        forked.clear()
        mu = make_builtin("moebius", f.degree)
        with run_scope() if scoped else contextlib.nullcontext():
            rep = class_sum(f.ctx, f, mu, workers)
        assert len(forked) == children, (f.ctx.p, f.degree, scoped)
        _assert_no_child_left()
        assert rep.cycle_type_counts == class_sum(f.ctx, f, mu).cycle_type_counts
    assert threading.active_count() == 1


@pytest.mark.parametrize("workers", [2, 3])
def test_octics_at_p_near_1750_fork_no_child(monkeypatch, workers):
    # a degree-8 sweep over F_p, p near 1750, leaves the kernel only its
    # (5,3) and (4,4) members, fewer than 2 * _FORK_MEMBERS: it runs in the
    # caller at any worker count, standalone and from a scope's table, with
    # the counts one worker gives
    forked = _count_forks(monkeypatch)
    for p in (1741, 1747, 1753):
        ctx = make_prime_field(p)
        rng = random.Random(f"pool/octic/{p}")
        for f in (random_monic(ctx, 8, rng) for _ in range(2)):
            assert 0 < len(_residue(ctx, f)) < 2 * interval_lab._FORK_MEMBERS
            mu = make_builtin("moebius", 8)
            expected = class_sum(ctx, f, mu).cycle_type_counts
            assert class_sum(ctx, f, mu, workers).cycle_type_counts == expected
            with run_scope():
                assert class_sum(ctx, f, mu, workers).cycle_type_counts == expected
    assert forked == []
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blocks_open_one_block_per_fork_members_up_to_workers(monkeypatch, workers):
    # n kernel members just below and just above each multiple of the gate
    # open floor(n / _FORK_MEMBERS) blocks, at least 1 and at most workers,
    # that cut [0, n) in order; the caller works the first, and each other
    # is a child's.  Where each index stands for per members, n * per count
    gate = interval_lab._FORK_MEMBERS
    forked = _count_forks(monkeypatch)
    sizes = [(n, 1) for n in (0, 1, gate - 1, gate, 2 * gate - 1, 2 * gate, 3 * gate - 1, 3 * gate, 5 * gate)]
    sizes += [(gate // 2, 2), (gate, 2), (3 * gate // 2 - 1, 2), (3 * gate // 2, 2)]
    for n, per in sizes:
        forked.clear()
        spans = interval_lab._blocks(lambda lo, hi: (lo, hi), (), n, workers, per)
        assert len(spans) == max(1, min(workers, n * per // gate)) == len(forked) + 1, (n, per)
        bounds = [lo for lo, _ in spans] + [spans[-1][1]]
        assert bounds[0] == 0 and bounds[-1] == n and bounds == sorted(bounds), (n, per)
        assert [hi for _, hi in spans[:-1]] == bounds[1:-1], (n, per)
        _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_an_error_in_the_callers_block_leaves_no_process(monkeypatch, workers):
    f, = _seeded_centers((9,), "pool/raises")  # a nonic's residue clears the gate, so the sweep forks
    monkeypatch.setattr(interval_lab, "_kernel_block", _first_block_raises)
    forked = _count_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="the caller's block"):
        class_sum(F1747, f, make_builtin("moebius", 9), workers)
    assert len(forked) == workers - 1
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_a_typed_error_in_a_childs_block_reaches_the_caller(monkeypatch, workers):
    f, = _seeded_centers((9,), "pool/raises")

    def later_blocks_raise(*args):
        lo = args[-2]
        if lo > 0:
            raise TooLarge(f"the block from {lo}")
        return _KERNEL_BLOCK(*args)

    monkeypatch.setattr(interval_lab, "_kernel_block", later_blocks_raise)
    forked = _count_forks(monkeypatch)
    # every child raises; the first block's error, in index order, is the one re-raised
    n = len(_residue(F1747, f))
    with pytest.raises(TooLarge, match=f"^the block from {n // workers}$"):
        class_sum(F1747, f, make_builtin("moebius", 9), workers)
    assert len(forked) == workers - 1
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_a_child_that_exits_without_a_result_raises_worker_failed(monkeypatch, workers):
    # a nonic's table leaves the kernel a residue past the gate, so the last
    # block is a child's: were it the caller's, the caller would exit itself
    f, = _seeded_centers((9,), "pool/exits")
    n = len(_residue(F1747, f))
    assert n >= 3 * interval_lab._FORK_MEMBERS

    def last_block_exits(*args):
        if args[-1] == n:
            os._exit(3)
        return _KERNEL_BLOCK(*args)

    monkeypatch.setattr(interval_lab, "_kernel_block", last_block_exits)
    forked = _count_forks(monkeypatch)
    with pytest.raises(WorkerFailed) as failed, run_scope():
        class_sum(F1747, f, make_builtin("moebius", 9), workers)
    assert len(forked) == workers - 1
    assert str(failed.value) == f"sweep child {forked[-1]} exited with code 3 and no result"
    _assert_no_child_left()


def test_without_fork_the_caller_works_every_block(monkeypatch):
    # a d = 6 standalone sweep, and a d = 6 DDF table and a d = 4 fiber table
    from ffintervals import reports

    def blobs(workers):
        reps = []
        for f in _seeded_centers((6, 4), "pool/no-fork"):
            mu = make_builtin("moebius", f.degree)
            pair = IntervalSpec(F1747, f, (F1747(0), F1747(1)), (mu, mu))
            if f.degree >= 6:
                reps.append(reports.experiment_to_dict(class_sum(F1747, f, mu, workers)))
            with run_scope():
                reps.append(reports.experiment_to_dict(class_sum(F1747, f, mu, workers)))
                reps.append(reports.experiment_to_dict(correlation_sum(pair, workers)))
                rep = chebotarev_empirical(F1747, f, (0, 1), workers)
                reps.append(reports.chebotarev_to_dict(rep))
        return [reports.to_json(reports.scrub_timings(rep)) for rep in reps]

    one = blobs(1)
    monkeypatch.delattr(os, "fork")
    assert blobs(3) == one
    _assert_no_child_left()


def test_importing_the_cli_loads_no_process_pool_machinery():
    src = os.path.dirname(os.path.dirname(interval_lab.__file__))
    code = (
        "import sys, ffintervals.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_a_two_worker_battery_names_every_table_with_no_fork(monkeypatch):
    # every table of the quick battery and of the demo is named (d <= 5, given
    # roots), so each build is worked whole by the caller, and none forks
    from ffintervals import suite

    forked = _count_forks(monkeypatch)
    with run_scope():  # the demo's steps nest their scopes in this one
        large_q_demo(5, (1, 4), 2)
    assert len(forked) == 0
    forked.clear()
    builds = _count_table_builds(monkeypatch)
    during_demo = []
    demo = suite.large_q_demo

    def counted_demo(*args):
        before = len(forked)
        report = demo(*args)
        during_demo.append(len(forked) - before)
        return report

    monkeypatch.setattr(suite, "large_q_demo", counted_demo)
    suite._Battery(suite.SuiteParams(quick=True), 2).run_all()
    assert len(builds) == 13  # every sweep of the battery builds a table
    assert len(forked) == 0
    assert during_demo == [0]
    assert threading.active_count() == 1
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_the_battery_and_the_demo_fork_per_table_and_leave_no_child(monkeypatch, workers):
    # an octic's table over F_10007 leaves the kernel its (5,3) and (4,4),
    # past the gate, so its build forks; the demo's cubic tables are named,
    # and their builds fork none
    forked = _count_forks(monkeypatch)
    bat = moebius_battery(F10007, first_morse_center(F10007, 8), (F10007(0), F10007(1)), 5.0, workers)
    assert bat.branch == "cancellation"
    assert len(forked) == workers - 1  # both sums read one table
    _assert_no_child_left()
    large_q_demo(5, (1, 2), workers)
    assert len(forked) == workers - 1
    _assert_no_child_left()
    assert threading.active_count() == 1


def test_a_two_worker_scope_leaves_no_child_raised_or_not(monkeypatch):
    big = make_prime_field(10000019)
    f, = _seeded_centers((9,), "pool/scope")  # a nonic's table forks
    mu = make_builtin("moebius", 9)
    forked = _count_forks(monkeypatch)
    with run_scope():
        class_sum(F1747, f, mu, 2)
        assert len(forked) == 1
        _assert_no_child_left()
    with pytest.raises(TooLarge), run_scope():
        class_sum(F1747, f.shift_const(F1747(1)), mu, 2)
        class_sum(big, Poly(big, [0, 0, 0, 1]), make_builtin("moebius", 3), 2)
    assert len(forked) == 2
    _assert_no_child_left()


def test_paper_suite_rerun_builds_its_own_tables(monkeypatch):
    from ffintervals import suite

    for name in vars(suite._Battery):
        if name.startswith("check_") and name != "check_divisor":
            monkeypatch.setattr(suite._Battery, name, lambda self: None)
    builds = []
    table = interval_lab._interval_table

    def record(ctx, f, workers):
        if interval_lab._key(ctx, f) not in interval_lab._tables:
            builds.append(workers)
        return table(ctx, f, workers)

    monkeypatch.setattr(interval_lab, "_interval_table", record)
    result = suite.run_paper_suite(suite.SuiteParams(quick=True))
    # three sweeps of one interval per battery; the rerun builds at 2 workers
    assert builds == [1, 2]
    assert result["pass"] and [c["id"] for c in result["checks"]] == [9, 16]


# ---------------------------------------------------------------------------
# the fiber route: root counts and the square class of D(c) name the type


def _table_over_split(ctx, f, bounds):
    """I(f)'s run-scope table with the kernel's blocks cut at bounds (0 to q, scaled to the residue) and run in-process."""

    def blocks(block, head, n, workers):
        assert (bounds[0], bounds[-1]) == (0, ctx.q) and n <= ctx.q
        cuts = [b * n // ctx.q for b in bounds]
        return [block(*head, lo, hi) for lo, hi in zip(cuts, cuts[1:])]

    with pytest.MonkeyPatch.context() as patch, run_scope():
        patch.setattr(interval_lab, "_blocks", blocks)
        return interval_lab._interval_table(ctx, f, len(bounds) - 1)[0]


def _seeded_splits(rng, q):
    """Bounds of splits of [0, q) into 1-4 ranges, one with an empty and a one-element range."""
    cut = rng.randrange(q)
    yield from ([0, q], [0, cut, cut, cut + 1, q])
    for ranges in (2, 3, 4):
        yield [0, *sorted(rng.randrange(q + 1) for _ in range(ranges - 1)), q]


def _assert_fiber_table_matches_ddf(ctx, raws, calls, rng=None):
    """The fiber table of I(raws) against DDF given D(c), the sweeps' kernel path.

    With rng, also against the disc-free kernel, and joined from seeded
    splits of F_q into x-ranges.  (The disc-free kernel is checked against
    DDF given disc g on every small field of the exhaustive test in
    test_kernel.py.)
    """
    f = Poly.from_raw(ctx, raws)
    center, d_raws, _ = interval_lab._center(ctx, f)
    table = _table_over_split(ctx, f, [0, ctx.q])
    assert len(calls) == (0 if d_raws is not None else ctx.q), (ctx, raws)  # D(t): none factored
    discs = None if d_raws is None else [_reval(ctx, d_raws, c) for c in range(ctx.q)]
    ddf = interval_lab._member_types(ctx, center, discs, None, None, range(ctx.q))
    assert table == list(ddf), raws
    calls.clear()
    if rng is not None:
        disc_free = [cycle_pattern_or_none(ctx, [c] + list(center[1:])) for c in range(ctx.q)]
        assert table == disc_free, (ctx, raws)
        for bounds in _seeded_splits(rng, ctx.q):
            assert _table_over_split(ctx, f, bounds) == table, (ctx, raws, bounds)
        assert calls == []
    return table


def _occurring_pairs(d, twos=False):
    """(root count, n_2 or None, disc is a square) -> the cycle types of S_d with that key."""
    pairs = {}
    for ct in partitions_of(d):
        key = (ct.parts.count(1), ct.parts.count(2) if twos else None, (d - len(ct.parts)) % 2 == 0)
        pairs.setdefault(key, []).append(ct.parts)
    return pairs


def test_fiber_types_are_one_to_one_exactly_up_to_degree_five():
    # without n_2, _named names every pair that occurs for d <= 5, and for
    # d >= 6 exactly the pairs with d - k <= 5, each as the one type that has
    # it; with n_2, every triple for d <= 7, and for d >= 8 exactly those
    # whose rest m = d - k - 2 n_2 has m <= 7, or is (8)
    one_to_one = {False: [], True: []}
    for twos in (False, True):
        for d in range(1, 13):
            pairs = _occurring_pairs(d, twos)
            named = {key: types[0] for key, types in pairs.items() if len(types) == 1}
            assert interval_lab._named(d, twos) == named, d
            rests = {key: d - key[0] - 2 * (key[1] or 0) for key in pairs}
            left = {key for key, types in pairs.items()
                    if rests[key] <= (7 if twos else 5) or twos and rests[key] == types[0][0] == 8}
            assert named.keys() == left, d
            if named.keys() == pairs.keys():
                one_to_one[twos].append(d)
    assert one_to_one == {False: [1, 2, 3, 4, 5], True: [1, 2, 3, 4, 5, 6, 7]}
    assert interval_lab._named(5, False)[1, None, True] == (2, 2, 1)
    assert interval_lab._named(5, False)[1, None, False] == (4, 1)
    assert interval_lab._named(8, True)[0, 0, False] == (8,)
    assert (0, 0, True) not in interval_lab._named(8, True)  # (5,3) or (4,4): the kernel's


def test_fiber_table_matches_ddf_on_every_small_interval(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    F25, F49 = make_extension(F5, 2, 0), make_extension(F7, 2, 0)
    F27 = make_extension(make_prime_field(3), 3, 0)
    degrees = [(F7, (2, 3, 4, 5)), (F25, (2, 3)), (F27, (2,)), (F49, (2,))]
    degrees += [(ctx, (2, 3, 4)) for ctx in (F5, F11, F13)]
    seen = set()
    for ctx, ds in degrees:
        for d in ds:
            for middle in itertools.product(range(ctx.q), repeat=d - 1):
                seen.update(_assert_fiber_table_matches_ddf(ctx, (0,) + middle + (1,), calls))
    # every entry of every map, and the zero-discriminant branch, is reached
    assert seen == {None} | {ct.parts for d in range(2, 6) for ct in partitions_of(d)}


def test_fiber_table_matches_ddf_on_seeded_intervals_and_blocks(monkeypatch):
    rng = random.Random("fiber")
    F49, F625 = make_extension(F7, 2, 0), make_extension(F5, 4, 0)
    calls = _count_kernel_calls(monkeypatch)
    for ctx, degrees in ((F49, (3, 4, 5)), (F625, (3, 4)), (make_prime_field(1009), (3, 4, 5))):
        for d in degrees:
            for _ in range(2):
                raws = [0] + [rng.randrange(ctx.q) for _ in range(d - 1)] + [1]
                table = _assert_fiber_table_matches_ddf(ctx, raws, calls, rng)
        for workers in (1, 2):
            with run_scope():
                assert interval_lab._interval_table(ctx, Poly.from_raw(ctx, raws), workers)[0] == table


# ---------------------------------------------------------------------------
# D(t) in every odd field: the sweeps take it wherever q is odd, p <= d and
# q <= deg f' included, and the disc-free path is left for characteristic 2


def test_center_gives_d_exactly_for_odd_q():
    F2, F3 = make_prime_field(2), make_prime_field(3)
    fields = [F3, F5, make_extension(F3, 2, 0), make_extension(F5, 2, 0)]
    fields += [make_extension(F3, 3, 0), make_extension(F3, 5, 0)]
    fields += [make_extension(F2, 3, 0), make_extension(F2, 4, 0)]
    rng = random.Random("center-rule")
    sides = set()
    for ctx in fields:
        for d in range(2, 8):
            # x^d + a*x^j + b puts deg f' anywhere from -1 (f' = 0) to d - 1
            centers = [random_monic(ctx, d, rng)] + [
                Poly.from_raw(ctx, [rng.randrange(ctx.q)] + [0] * (j - 1) + [rng.randrange(ctx.q)]
                              + [0] * (d - j - 1) + [1])
                for j in range(1, d)
            ]
            for f in centers:
                center, d_raws, _ = interval_lab._center(ctx, f)
                has_d = ctx.p != 2
                assert (d_raws is not None) == has_d, (ctx, f)
                sides.add((has_d, ctx.q <= derivative(f).degree, ctx.p <= d))
                if has_d:
                    for c in range(ctx.q):
                        member = Poly.from_raw(ctx, [c, *center[1:]])
                        assert _reval(ctx, d_raws, c) == discriminant(member).raw, (ctx, f, c)
    # (D given, q <= deg f', p <= d): D wherever q is odd, q <= deg f' included
    assert sides == {(False, False, True), (True, False, False), (True, False, True), (True, True, True)}
    F9 = fields[2]
    cube, plus_x = parse_poly("x^3", F9), parse_poly("x^3+x", F9)
    assert interval_lab._center(F9, cube)[1] == ()  # f' = 0: D = 0
    assert len(interval_lab._center(F9, plus_x)[1]) == 1  # f' = 1: D is a nonzero constant
    for f in (cube, plus_x):
        expected = [cycle_pattern_or_none(F9, [c, *f.raw_coeffs[1:]]) for c in range(9)]
        assert (expected == [None] * 9) == (f is cube)
        with run_scope():
            assert interval_lab._interval_table(F9, f, 1)[0] == expected, f
        assert _standalone_types(F9, f) == expected, f


def _standalone_types(ctx, f):
    """The member types of I(f) as a standalone sweep takes them, by constant term.

    For d >= 6 they are its transient table's; for d <= 5 each is the
    kernel's, with no fiber pass.
    """
    if f.degree >= 6:
        return interval_lab._table(ctx, f, 1)[0]
    center, d_raws, _ = interval_lab._center(ctx, f)
    discs, cols, _ = interval_lab._ddf_inputs(ctx, center, d_raws, False)
    return list(interval_lab._member_types(ctx, center, discs, cols, None, range(ctx.q)))


def _swept_types(ctx, center, discs, cols, roots, consts):
    """The member types at consts as _table gives them: named by _name, the residue's from the kernel."""
    types, residue = interval_lab._name(ctx, len(center) - 1, discs, roots)
    left = sorted(set(residue).intersection(consts))
    factored = dict(zip(left, interval_lab._member_types(ctx, center, discs, cols, roots, left)))
    return [factored.get(c, types[c]) for c in consts]


def _factorizations(ctx, d, top):
    """Each monic g of degree d with x^(d-1) coefficient top -> its irreducible factors, sorted.

    The products of monics of lower degree, with cached factors; a g that no
    product reaches is irreducible.  No distinct-degree factorization runs.
    """
    found = {}
    for k in range(1, d // 2 + 1):
        for ta in range(ctx.q):
            lows = _lower_factorizations(ctx, k, ta).items()
            highs = _lower_factorizations(ctx, d - k, ctx.sub(top, ta)).items()
            for a, fa in lows:
                pa = Poly.from_raw(ctx, a)
                for b, fb in highs:
                    found[(pa * Poly.from_raw(ctx, b)).raw_coeffs] = tuple(sorted(fa + fb))
    for low in itertools.product(range(ctx.q), repeat=d - 1):
        g = (*low, top, 1)
        found.setdefault(g, (g,))
    return found


_lower_factorizations = cache(_factorizations)


def _sieve_type(factors):
    if len(set(factors)) < len(factors):
        return None
    return tuple(sorted((len(g) - 1 for g in factors), reverse=True))


SMALL_INTERVALS = [(3, d, top) for d in (3, 4, 5) for top in range(9)]
SMALL_INTERVALS += [(5, d, top) for d in (3, 4) for top in range(25)]


@pytest.mark.parametrize("p,d,top", SMALL_INTERVALS)
def test_sweeps_with_d_match_the_sieve_on_every_small_interval(p, d, top):
    # every interval of degree 3-5 over F_9 (p <= d: D(t) by the new rule)
    # and of degree 3-4 over F_25 with x^(d-1) coefficient top: the table at
    # 1 worker and joined from the 2-worker split, and the standalone
    # sweep's member types, against factors multiplied out
    ctx = make_extension(make_prime_field(p), 2, 0)
    factors = _factorizations(ctx, d, top)
    q = ctx.q
    for middle in itertools.product(range(q), repeat=d - 2):
        f = Poly.from_raw(ctx, (0, *middle, top, 1))
        expected = [_sieve_type(factors[(c, *middle, top, 1)]) for c in range(q)]
        assert interval_lab._center(ctx, f)[1] is not None
        assert _standalone_types(ctx, f) == expected, f
        for bounds in ([0, q], [0, q // 2, q]):
            assert _table_over_split(ctx, f, bounds) == expected, (f, bounds)


OWN_RULE_INTERVALS = [(3, 3, 4), (3, 3, 5), (3, 3, 6), (5, 3, 5), (5, 3, 6)]
OWN_RULE_INTERVALS += [(3, 5, 4), (3, 5, 5), (5, 4, 6), (7, 1, 7)]


def _root_fed_calls(monkeypatch):
    """The kernel calls made in this process from here on that are given root lists."""
    fed = []
    kernel = interval_lab._pattern_or_none_int

    def counted(*args):
        if len(args) == 6:  # p, g, D(c), the start of x^p, the roots, n_2
            fed.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(interval_lab, "_pattern_or_none_int", counted)
    return fed


@pytest.mark.parametrize("p,l,d", OWN_RULE_INTERVALS)
def test_sweeps_with_d_for_p_at_most_d_on_seeded_intervals(monkeypatch, p, l, d):
    # p <= d and q > deg f': the fiber route names every member for d <= 5,
    # over F_p with n_2 every member for d = 6, 7, and otherwise for d >= 6
    # those with d - k <= 5; the kernel gets the rest with the discriminant
    # stop and no root feed; tables and standalone sweeps at 1 and 2 workers
    # against the disc-free kernel
    ctx = make_prime_field(p) if l == 1 else make_extension(make_prime_field(p), l, 0)
    f = random_monic(ctx, d, random.Random(f"own-rule/{p}/{l}/{d}"))
    fed = _root_fed_calls(monkeypatch)
    assert interval_lab._center(ctx, f)[1] is not None
    expected = [cycle_pattern_or_none(ctx, [c, *f.raw_coeffs[1:]]) for c in range(ctx.q)]
    assert _standalone_types(ctx, f) == expected
    shifts = (ctx(0), ctx(1))
    pairs = _member_counts(ctx, f, shifts)
    for workers in (1, 2):
        assert _joint_counts(ctx, f, shifts, workers) == (pairs, is_morse(f)[0]), workers
        with run_scope():
            assert interval_lab._interval_table(ctx, f, workers)[0] == expected, workers
            assert _joint_counts(ctx, f, shifts, workers) == (pairs, is_morse(f)[0]), workers
    assert fed == []


def test_sweeps_with_d_where_q_is_at_most_deg_f_prime():
    # every center of degree 4-6 over F_3, most with q <= deg f': the fiber
    # route for d <= 5, and for d = 6 with n_2 too, the table and the
    # standalone sweep against the disc-free kernel
    F3 = make_prime_field(3)
    small = 0
    for d in (4, 5, 6):
        for idx in range(3 ** (d - 1)):
            f = Poly.from_raw(F3, [0] + _digits(3, d - 1, idx) + [1])
            small += 3 <= derivative(f).degree
            expected = [cycle_pattern_or_none(F3, [c, *f.raw_coeffs[1:]]) for c in range(3)]
            assert interval_lab._center(F3, f)[1] is not None
            assert _standalone_types(F3, f) == expected, f
            with run_scope():
                assert interval_lab._interval_table(F3, f, 1)[0] == expected, f
    assert small == 324


def test_the_root_feed_waits_for_p_above_d(monkeypatch):
    # tr(Q^2) = n_1 + 2 n_2 mod p names n_2 only for p > m.  These centers have
    # D(t) (deg f' = 1 and 2) and p <= d, and each has a member whose
    # 2 n_2 >= p: (4, 2, 2, 2) over F_5 and (4, 2, 2, 1) over F_3.  The fiber
    # pass gives every member its roots, and the kernel gets none of them
    fed = _root_fed_calls(monkeypatch)
    for p, text in ((5, "x^10+x^2"), (3, "x^9+x^6+x^3+x^2")):
        ctx = make_prime_field(p)
        f = parse_poly(text, ctx)
        center, d_raws, _ = interval_lab._center(ctx, f)
        assert interval_lab._ddf_inputs(ctx, center, d_raws, True)[2] is not None
        expected = [cycle_pattern_or_none(ctx, [c, *center[1:]]) for c in range(p)]
        assert any(t and 2 * t.count(2) >= p for t in expected)
        with run_scope():
            assert interval_lab._interval_table(ctx, f, 1)[0] == expected, f
        assert _standalone_types(ctx, f) == expected, f
    assert fed == []


# ---------------------------------------------------------------------------
# one member route: the fiber pass names members in every table and in every
# standalone sweep of degree >= 6, and the kernel factors the rest


def _assert_named_route(ctx, f):
    """I(f)'s table, at 1 worker and joined from a 2-way split, and its standalone sweep, member by member.

    Where the sweep takes the pass over F_{p^2} (F_p, d = 6-8), each
    squarefree member's n_2 is checked too.
    """
    expected = [cycle_pattern_or_none(ctx, [c, *f.raw_coeffs[1:]]) for c in range(ctx.q)]
    for bounds in ([0, ctx.q], [0, ctx.q // 2, ctx.q]):
        assert _table_over_split(ctx, f, bounds) == expected, (f, bounds)
    center, d_raws, _ = interval_lab._center(ctx, f)
    assert _standalone_types(ctx, f) == expected, f
    if ctx.l == 1 and 6 <= f.degree <= 8:
        roots = interval_lab._ddf_inputs(ctx, center, d_raws, True)[2]
        _assert_quadratic_counts(roots[2], expected, f)
    assert _joint_counts(ctx, f, (ctx(0),))[0] == Counter((t,) for t in expected), f


def _assert_quadratic_counts(twos, types, f, consts=None):
    """The n_2 of each squarefree member at consts (every c by default) against its cycle type."""
    consts = range(len(types)) if consts is None else consts
    assert [twos[c] for c, t in zip(consts, types) if t] == [t.count(2) for t in types if t], f


@pytest.mark.parametrize("top", range(5))
def test_the_named_route_on_every_degree_six_interval_over_f5(monkeypatch, top):
    # p <= d: every member is named from its roots, n_2 and D(c), and the
    # kernel factors none
    fed = _root_fed_calls(monkeypatch)
    calls = _count_kernel_calls(monkeypatch)
    for middle in itertools.product(range(5), repeat=4):
        _assert_named_route(F5, Poly.from_raw(F5, (0, *middle, top, 1)))
    assert fed == [] and calls == []


@pytest.mark.parametrize("top,fourth", itertools.product(range(7), repeat=2))
def test_the_named_route_on_every_degree_six_interval_over_f7(monkeypatch, top, fourth):
    # the intervals with x^5 coefficient top and x^4 coefficient fourth: p > d,
    # and every member is named from its roots, n_2 and D(c) with no kernel call
    calls = _count_kernel_calls(monkeypatch)
    for middle in itertools.product(range(7), repeat=3):
        _assert_named_route(F7, Poly.from_raw(F7, (0, *middle, fourth, top, 1)))
    assert calls == []


@pytest.mark.parametrize("d,top", itertools.product([6, 7, 8], range(3)))
def test_the_named_route_on_every_interval_of_degree_six_to_eight_over_f3(monkeypatch, d, top):
    # the intervals with x^(d-1) coefficient top.  F_3 cannot depress a cubic
    # B(u, .), so the pass tests B(u, 2) = 0 at its one nonsquare.  The kernel
    # factors no member of degree 6 or 7
    calls = _count_kernel_calls(monkeypatch)
    F3 = make_prime_field(3)
    for middle in itertools.product(range(3), repeat=d - 2):
        _assert_named_route(F3, Poly.from_raw(F3, (0, *middle, top, 1)))
    assert (calls == []) == (d < 8)


def test_n2_where_b_vanishes_at_some_u():
    # x^6 + 5x^5 + 2x^3 + 5x^2 + 5x over F_7: f_1, f_3 and f_5 all vanish at
    # u = 5, so there B(5, z) = 0 for every z, and each nonzero nonsquare z is
    # one quadratic factor (x - 5)^2 - z, of the member with constant term
    # -A(5, z).  Its members at 2 and 3 have types (4,2) and (2,2,1,1)
    f = parse_poly("x^6+5*x^5+2*x^3+5*x^2+5*x", F7)
    center, d_raws, _ = interval_lab._center(F7, f)
    hasse = [[math.comb(j, k) * center[j] % 7 for j in range(k, 7)] for k in range(7)]
    assert [u for u in range(7) if not any(_reval(F7, hasse[k], u) for k in (1, 3, 5))] == [5]
    twos = interval_lab._ddf_inputs(F7, center, d_raws, True)[2][2]
    assert [cycle_pattern_or_none(F7, [c, *center[1:]]) for c in (2, 3)] == [(4, 2), (2, 2, 1, 1)]
    assert (twos[2], twos[3]) == (1, 2)
    _assert_named_route(F7, f)


def _assert_n2_is_factors_count(ctx, f):
    """Every member's n_2 from the pass over F_{p^2}, squarefree or not, is its number of distinct quadratic factors."""
    center, d_raws, _ = interval_lab._center(ctx, f)
    twos = interval_lab._ddf_inputs(ctx, center, d_raws, True)[2][2]
    factors = (factor(Poly.from_raw(ctx, [c, *center[1:]])).factors for c in range(ctx.p))
    assert list(twos) == [sum(g.degree == 2 for g, _ in fs) for fs in factors], f


@pytest.mark.parametrize("d", [6, 7, 8])
@pytest.mark.parametrize("p", [3, 11, 13, 1747])
def test_n2_from_unscaled_chirp_sums_matches_factor_on_every_member(p, d):
    # the pass reads the Hasse derivatives' chirp sums g^C(j,2) f_k(g^j)
    # unscaled, and u = 0 from the center's coefficients: seeded intervals
    # (one over F_1747) and an even center (d = 6 and 8), whose B(0, .) = 0,
    # so each nonzero nonsquare z gives a factor x^2 - z
    ctx = make_prime_field(p)
    rng = random.Random(f"n2/unscaled/{p}/{d}")
    centers = [random_monic(ctx, d, rng) for _ in range(1 if p == 1747 else 6)]
    if d % 2 == 0:
        centers.append(Poly.from_raw(ctx, [0 if k % 2 else rng.randrange(p) for k in range(d)] + [1]))
        assert not any(centers[-1].raw_coeffs[1::2])
    for f in centers:
        _assert_n2_is_factors_count(ctx, f)


@pytest.mark.parametrize("p", [11, 13, 1747])
def test_n2_where_an_octics_b_drops_to_a_quadratic(p):
    # f_7(u) = 8u + c_7 vanishes at u0 = -c_7 / 8, so there B(u0, .) has
    # degree 2 at most.  The first seeded octic with a member that has a
    # quadratic factor (x - u0)^2 - z (a nonsquare z with B(u0, z) = 0), and
    # every member's n_2 against factor
    ctx = make_prime_field(p)
    rng = random.Random(f"n2/octic/{p}")
    nonsquares = {z for z in range(1, p) if pow(z, (p - 1) // 2, p) == p - 1}
    while True:
        f = random_monic(ctx, 8, rng)
        c = (0, *f.raw_coeffs[1:])  # the center
        u0 = -c[7] * pow(8, -1, p) % p
        hasse = [[math.comb(j, k) * c[j] % p for j in range(k, 9)] for k in range(9)]
        b = [_reval(ctx, hasse[k], u0) for k in (1, 3, 5, 7)]
        zs = [z for z in nonsquares if not _reval(ctx, b, z)]
        if zs:
            break
    assert b[3] == 0
    a = [_reval(ctx, hasse[k], u0) for k in (0, 2, 4, 6, 8)]
    member = Poly.from_raw(ctx, [-_reval(ctx, a, zs[0]) % p, *c[1:]])
    quadratic = Poly.from_raw(ctx, [(u0 * u0 - zs[0]) % p, -2 * u0 % p, 1])
    assert quadratic in [g for g, _ in factor(member).factors]
    _assert_n2_is_factors_count(ctx, f)


NAMED_FIELDS = {"F13": (13, 1), "F1747": (1747, 1), "F9": (3, 2), "F3^5": (3, 5)}
NAMED_FIELDS |= {"F5": (5, 1), "F7": (7, 1), "F11": (11, 1)}


@pytest.mark.parametrize("d", [6, 7, 8])
@pytest.mark.parametrize("name", sorted(NAMED_FIELDS))
def test_the_named_route_on_seeded_intervals(name, d):
    # 200 seeded intervals: whole over F_5 to F_13 and F_9; over F_1747 and
    # F_{3^5} whole for the first two, and for the rest at every member with
    # D(c) = 0 and 8 seeded members, from the sweeps' own per-interval inputs;
    # over F_p the n_2 of each squarefree member too
    p, l = NAMED_FIELDS[name]
    ctx = make_prime_field(p) if l == 1 else make_extension(make_prime_field(p), l, 0)
    rng = random.Random(f"named/{name}/{d}")
    for i in range(200):
        f = random_monic(ctx, d, rng)
        if ctx.q <= 13 or i < 2:
            _assert_named_route(ctx, f)
            continue
        center, d_raws, _ = interval_lab._center(ctx, f)
        discs, cols, roots = interval_lab._ddf_inputs(ctx, center, d_raws, True)
        consts = [c for c in range(ctx.q) if not discs[c]] + rng.sample(range(ctx.q), 8)
        types = _swept_types(ctx, center, discs, cols, roots, consts)
        assert types == [cycle_pattern_or_none(ctx, [c, *center[1:]]) for c in consts], f
        if l == 1:
            _assert_quadratic_counts(roots[2], types, f, consts)


def test_the_kernel_factors_only_the_members_the_fiber_pass_leaves(monkeypatch):
    # a standalone sweep of degree 6 or 7 over F_p names every member from its
    # roots, n_2 and D(c): no kernel call and no x^p columns.  At d = 8 it calls
    # the kernel once for each member of type (5,3) or (4,4), which share their
    # key, and builds the columns once for them; a d <= 5 table calls it for none
    factored, columns = [], []
    kernel, frobenius_columns = interval_lab._pattern_or_none_int, interval_lab._frobenius_columns
    monkeypatch.setattr(interval_lab, "_pattern_or_none_int", lambda *args: factored.append(args[1][0]) or kernel(*args))
    monkeypatch.setattr(interval_lab, "_frobenius_columns", lambda *args: columns.append(1) or frobenius_columns(*args))
    for f in _seeded_centers((6, 7, 8), "named/accounting"):
        d = f.degree
        factored.clear()
        columns.clear()
        class_sum(F1747, f, make_builtin("moebius", d))
        if d < 8:
            assert (factored, columns) == ([], []), d
            continue
        residue = []
        for c in range(F1747.q):
            result = factor(Poly.from_raw(F1747, [c, *f.raw_coeffs[1:]]))
            if result.multiset_degrees() in ((5, 3), (4, 4)) and all(e == 1 for _, e in result.factors):
                residue.append(c)
        assert sorted(factored) == residue and 0 < len(residue) < F1747.q // 5
        assert columns == [1]
    calls = _count_kernel_calls(monkeypatch)
    rng = random.Random("named/accounting/tables")
    for ctx in (make_prime_field(1009), F9, make_extension(F5, 4, 0)):
        for d in (2, 3, 4, 5):
            f = random_monic(ctx, d, rng)
            calls.clear()
            with run_scope():
                class_sum(ctx, f, make_builtin("moebius", d))
            assert calls == [], (ctx, d)


# ---------------------------------------------------------------------------
# Morse scan


def test_morse_scan_cusp_over_f13():
    rep = morse_density_scan(F13, parse_poly("x^3", F13))
    assert rep.bad_count == 1
    assert rep.bad_s[0].raw == 0
    assert rep.warnings == ()


def test_morse_scan_hypothesis_warnings():
    F3 = make_prime_field(3)
    rep = morse_density_scan(F3, parse_poly("x^3+x+1", F3))  # p | 2d
    assert any("gcd" in w for w in rep.warnings)
    rep2 = morse_density_scan(F5, parse_poly("x^5+x^2", F5))  # f'' = 2 * ... check
    # x^5 + x^2: f' = x, f'' = 1 over F_5? compute: d/dx(5x^4 + 2x) = 2 != 0
    assert isinstance(rep2.warnings, tuple)


def test_morse_scan_counts_match_direct_is_morse():
    from ffintervals.morse_galois import is_morse

    f = parse_poly("x^4+2*x^2+x", F13)
    rep = morse_density_scan(F13, f)
    x = Poly.x(F13)
    direct = []
    for s in range(13):
        ok, _ = is_morse(f + Poly(F13, [0, s]))
        if not ok:
            direct.append(s)
    assert [e.raw for e in rep.bad_s] == direct


def _zero_slope_centers(ctx, d):
    """Every monic f of degree d over ctx with f(0) = f'(0) = 0."""
    for idx in range(ctx.q ** (d - 2)):
        yield Poly.from_raw(ctx, [0, 0] + _digits(ctx.q, d - 2, idx) + [1])


@pytest.mark.parametrize(
    "p,l,d", [(7, 1, 3), (11, 1, 3), (11, 1, 4), (13, 1, 4), (5, 2, 3), (7, 2, 3)]
)
def test_morse_scan_e_route_matches_the_loop_on_every_center(p, l, d):
    # s and the constant term are the two coefficients the scan and D(t) absorb,
    # so these centers cover every f of degree d up to them
    ctx = make_extension(make_prime_field(p), l)
    for f in _zero_slope_centers(ctx, d):
        by_e = interval_lab._non_morse_slopes_by_e(ctx, f)
        assert by_e == interval_lab._non_morse_slopes_by_loop(ctx, f), f


def test_morse_scan_e_route_matches_the_loop_on_quintics_over_f17():
    F17 = make_prime_field(17)
    rng = random.Random("e-route/d5")
    centers = [parse_poly("x^5", F17), parse_poly("x^5+x^2", F17)]
    centers += [Poly.from_raw(F17, [0, 0] + [rng.randrange(17) for _ in range(3)] + [1])
                for _ in range(40)]
    for f in centers:
        by_e = interval_lab._non_morse_slopes_by_e(F17, f)
        assert by_e == interval_lab._non_morse_slopes_by_loop(F17, f), f
    # x^5 + s*x has a repeated critical value exactly at s = 0
    assert interval_lab._non_morse_slopes_by_e(F17, centers[0]) == [0]


@pytest.mark.parametrize(
    "p,l,f,route",
    [
        (7, 1, "x^4+x^2", "loop"),  # q = 7 <= d(d - 2) + 1 = 9
        (13, 1, "x^5+x^2", "loop"),  # q = 13 <= 16
        (3, 1, "x^3+x^2", "loop"),  # p <= d
        (5, 1, "x^5+x^2", "loop"),
        (3, 2, "x^3+x^2", "loop"),  # p = d, q = 9 > 4
        (3, 3, "x^4+x", "loop"),  # p < d, q = 27 > 9
        (11, 1, "x^4+x^2", "e"),
        (17, 1, "x^5+x^2", "e"),
        (5, 2, "x^4+x^2", "e"),
    ],
)
def test_morse_scan_takes_the_e_route_exactly_past_the_boundary(monkeypatch, p, l, f, route):
    ctx = make_extension(make_prime_field(p), l)
    calls = []

    def spy(name):
        original = getattr(interval_lab, name)

        def call(*args):
            calls.append(name)
            return original(*args)

        return call

    for name in ("_non_morse_slopes_by_e", "_non_morse_slopes_by_loop"):
        monkeypatch.setattr(interval_lab, name, spy(name))
    g = parse_poly(f, ctx)
    rep = morse_density_scan(ctx, g)
    assert calls == [f"_non_morse_slopes_by_{route}"]
    assert [s.raw for s in rep.bad_s] == interval_lab._non_morse_slopes_by_loop(ctx, g)


# ---------------------------------------------------------------------------
# Möbius battery and the demo


def test_moebius_battery_no_cancellation_branch():
    bat = moebius_battery(F13, parse_poly("x^3", F13), (F13(0), F13(1)), tolerance_c=3.0)
    assert bat.branch == "no-cancellation"
    assert bat.single.raw_sum == -12
    assert abs(bat.chowla.raw_sum) >= 13 - 3
    assert bat.verdict.kind == "no-cancellation"


def test_moebius_battery_cancellation_branch():
    F101 = make_prime_field(101)
    from ffintervals.suite import first_morse_center

    f = first_morse_center(F101, 3)
    bat = moebius_battery(F101, f, (F101(0), F101(1)), tolerance_c=5.0)
    assert bat.branch == "cancellation"
    assert bat.verdict.kind == "square-root-cancellation"


def test_moebius_battery_in_characteristic_at_most_d():
    # p <= d.  The quartic's D = (t + 2)^3 gives a square-root verdict and a
    # single sum of 0 over F_27, and over F_3, where q <= deg f' = 3; the F_9
    # quintic's D = 2 (t^2 - 1)^2 gives no cancellation, sign -1 on the
    # 9 - 2 squarefree members.  The F_5 quartic's |single| = 3 sits in both
    # bands of width 4 sqrt(5), and its branch is its square-root verdict's.
    # The evaluate() oracle checks every sum.
    F3 = make_prime_field(3)
    F9, F27 = make_extension(F3, 2, 0), make_extension(F3, 3, 0)
    cases = [
        (F27, "x^4+2*x^3+x+1", "cancellation", "square-root-cancellation", 0, -1),
        (F3, "x^4+2*x^3+x+1", "cancellation", "square-root-cancellation", 0, -1),
        (F9, "x^5+x^3+2*x", "no-cancellation", "no-cancellation", -7, 6),
        (F5, "x^4+4*x^2+4*x", "cancellation", "square-root-cancellation", -3, 1),
    ]
    for ctx, text, branch, kind, single, chowla in cases:
        f, shifts = parse_poly(text, ctx), (ctx(0), ctx(1))
        bat = moebius_battery(ctx, f, shifts)
        assert (bat.branch, bat.verdict.kind) == (branch, kind)
        assert (bat.single.raw_sum, bat.chowla.raw_sum) == (single, chowla)
        mu = make_builtin("moebius", f.degree)
        assert _enumerate_sum(ctx, f, mu) == single
        assert _enumerate_sum(ctx, f, mu, list(shifts)) == chowla


def test_moebius_battery_raises_the_classifier_errors_before_any_sweep(monkeypatch):
    from ffintervals.errors import DerivativeVanishes, EvenCharacteristic

    def no_sweep(*args, **kwargs):
        raise AssertionError("the battery swept before its verdict")

    monkeypatch.setattr(interval_lab, "_joint_counts", no_sweep)
    F2, F3 = make_prime_field(2), make_prime_field(3)
    F9 = make_extension(F3, 2, 0)
    with pytest.raises(EvenCharacteristic):
        moebius_battery(F2, parse_poly("x^3+x+1", F2), (F2(0), F2(1)))
    with pytest.raises(DerivativeVanishes):  # f' = 0
        moebius_battery(F9, parse_poly("x^3", F9), (F9(0), F9(1)))


def test_moebius_battery_holds_a_no_cancellation_verdict_to_its_exact_sum(monkeypatch):
    from ffintervals.errors import DichotomyViolation

    f, shifts = parse_poly("x^3", F13), (F13(0), F13(1))
    predicted = interval_lab.predicted_no_cancellation_sum
    monkeypatch.setattr(interval_lab, "predicted_no_cancellation_sum", lambda v, g: predicted(v, g) + 1)
    with pytest.raises(DichotomyViolation, match="no-cancellation verdict"):
        moebius_battery(F13, f, shifts, tolerance_c=3.0)


def test_verbs_on_non_morse_centers_build_no_critical_data(monkeypatch):
    # class_sum, correlation_sum (with its bad-shift check), the census and
    # the battery read D(t) alone, at p > d and where q <= deg f' = 3
    from ffintervals import morse_galois

    def refused(f):
        raise AssertionError("critical data was built")

    for owner in (morse_galois, interval_lab):
        monkeypatch.setattr(owner, "critical_data", refused)
    F3 = make_prime_field(3)
    for ctx, text in ((F13, "x^4-2*x^2"), (F3, "x^4+x")):
        f, shifts = parse_poly(text, ctx), (ctx(0), ctx(1))
        mu = make_builtin("moebius", 4)
        assert not interval_lab.is_morse(f)[0]
        assert class_sum(ctx, f, mu).constant_kind == "non-generic"
        rep = correlation_sum(IntervalSpec(ctx, f, shifts, (mu, mu)))
        assert rep.notes["bad_shifts"] == (text == "x^4-2*x^2")  # B(x^4 - 2x^2) = {1, 12}
        squarefree_census(ctx, f, shifts)
        assert moebius_battery(ctx, f, shifts).branch == "cancellation"


def test_stickelberger_product_matches_ddf_route():
    # the reduction over the joint counts must agree with the evaluate()-based
    # product and with the kernel-free discriminant-parity product
    from ffintervals.morse_galois import stickelberger_mu

    for p, l in ((5, 2), (13, 1)):
        ctx = make_extension(make_prime_field(p), l, 0) if l > 1 else make_prime_field(p)
        rng = random.Random(f"prod/{p}/{l}")
        f = random_monic(ctx, 3, rng)
        shift_idx = rng.sample(range(ctx.q), 3)
        shifts = tuple(ctx.element_from_index(i) for i in shift_idx)
        total, zeros, plus, minus = _stickelberger_product_sum(ctx, f, shifts)
        mu = make_builtin("moebius", 3)
        oracle = Fraction(0)
        zero_count = parity = 0
        for a in range(ctx.q):
            elem = ctx.element_from_index(a)
            term = Fraction(1)
            for h in shifts:
                term *= evaluate(mu, f.shift_const(h).shift_const(elem))
            if term == 0:
                zero_count += 1
            oracle += term
            parity += math.prod(stickelberger_mu(f.shift_const(h + elem)) for h in shifts)
        assert total == oracle == parity
        assert zeros == zero_count
        assert plus - minus == total
        assert zeros + plus + minus == ctx.q


def test_large_q_demo_multiset_structure_and_dichotomy_failure():
    demo = large_q_demo(5, (1, 2, 4))
    for step in demo.steps:
        assert step.multiset_multiplicity_two
    q625 = demo.steps[-1]
    assert q625.q == 625
    # single sums cancel at sqrt scale while the product fills the interval
    assert abs(q625.single_report.raw_sum) <= 4 * 25
    assert abs(q625.product_sum) >= 625 / 2
    assert abs(q625.product_sum) >= 312  # frozen demo magnitude
    # constant sign: every nonzero product has the same sign
    assert q625.product_plus == 0 or q625.product_minus == 0


def test_large_q_demo_reads_its_critical_values_off_d_of_t(monkeypatch):
    # the demo builds no splitting field; the oracle does: the first s whose
    # critical points lie in F_q, and beta the least of their critical values
    from ffintervals import morse_galois

    critical_data = morse_galois.critical_data

    def refused(f):
        raise AssertionError("the demo built critical data")

    for owner in (morse_galois, interval_lab):
        monkeypatch.setattr(owner, "critical_data", refused)
    demos = [large_q_demo(5, (1, 2, 3)), large_q_demo(7, (1, 2))]
    monkeypatch.undo()
    for demo in demos:
        for step in demo.steps:
            ctx = make_extension(make_prime_field(demo.p), step.l, 0)
            cds = ((s, critical_data(Poly(ctx, [0, s, 0, 1]))) for s in range(1, demo.p))
            s, cd = next((s, cd) for s, cd in cds if cd.ext_ctx == ctx)
            assert step.s == repr(ctx(s))
            assert step.beta == repr(ctx.elem(min(cd.value_set_raws())))


def test_large_q_demo_product_reads_the_single_sums_table(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    builds = _count_table_builds(monkeypatch)
    (step,) = large_q_demo(5, (4,)).steps
    assert step.q == 625
    assert len(builds) == 1  # the single sum's table; the product builds none
    assert calls == []  # the fiber pass
    assert interval_lab._tables is None


def test_large_q_demo_guards():
    with pytest.raises(OutOfRange):
        large_q_demo(4, (1,))
    with pytest.raises(TooLarge):
        large_q_demo(5, (12,))
