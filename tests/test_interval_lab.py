import dataclasses
import itertools
import math
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from ffintervals.class_functions import evaluate, make_builtin, partitions_of
from ffintervals.errors import FieldTooSmall, OutOfRange, TooLarge
from ffintervals.finite_field import _digits, make_extension, make_prime_field
from ffintervals import interval_lab
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
from ffintervals.polynomial import Poly, cycle_pattern_or_none, is_squarefree, random_monic
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


def test_squarefree_census_field_too_small():
    F3 = make_prime_field(3)
    with pytest.raises(FieldTooSmall):
        squarefree_census(F3, parse_poly("x^4+x", F3), (F3(0),))


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
    monkeypatch.setattr(interval_lab, "_ddf_inputs", lambda *args: swept.append(args) or (None, None))
    with pytest.raises(TooLarge):
        _joint_counts(ctx, f, tuple(ctx(h) for h in range(10)), 2)  # 10,000,030 members
    big = make_prime_field(10000019)
    with pytest.raises(TooLarge):
        class_sum(big, Poly(big, [0, 0, 0, 1]), make_builtin("moebius", 3))
    assert swept == []
    assert _joint_counts(ctx, f, tuple(ctx(h) for h in range(9))) == {}  # 9,000,027
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
            assert _joint_counts(ctx, f, shifts, workers) == expected, (ctx, f, workers)


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
    """Counts table builds at 1 worker, where each route runs one block per build."""
    builds = []
    for name in ("_fiber_block", "_ddf_block"):
        block = getattr(interval_lab, name)
        monkeypatch.setattr(
            interval_lab, name, lambda *args, _b=block: builds.append(1) or _b(*args)
        )
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
    cases = (
        (F101, first_morse_center(F101, 4), 7, 0),  # p > d, d <= 5: the fiber pass
        (F5, parse_poly("x^6+x+2", F5), 3, 5),  # p <= d: the disc-free kernel per member
        (F25, Poly.from_raw(F25, [3, 7, 0, 1]), 11, 0),  # the fiber pass over F_25
    )
    calls = _count_kernel_calls(monkeypatch)
    builds = _count_table_builds(monkeypatch)
    for ctx, f, c, table_calls in cases:
        runs = _experiments(ctx, f) + _experiments(ctx, f.shift_const(ctx.element_from_index(c)))
        outside = []
        for run, shifts in runs:
            calls.clear()
            outside.append(_untimed(run()))
            assert len(calls) == ctx.q * shifts, (ctx, f)
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
    F8 = make_extension(make_prime_field(2), 3, 0)
    mu = make_builtin("moebius", 3)
    for ctx, f in ((F31, parse_poly("x^3+2*x+1", F31)), (F8, Poly(F8, [1, 1, 0, 1]))):
        tables = []
        for workers in (1, 2):
            with run_scope():
                class_sum(ctx, f, mu, workers)
                tables.append(dict(interval_lab._tables))
        assert tables[0] == tables[1]
        (table,) = tables[0].values()
        expected = [
            cycle_pattern_or_none(ctx, [c] + list(f.raw_coeffs[1:])) for c in range(ctx.q)
        ]
        assert table == expected
    # a tabled interval opens no pool
    with run_scope():
        first = class_sum(F31, parse_poly("x^3+2*x+1", F31), mu, 2)
        monkeypatch.setattr(interval_lab, "ProcessPoolExecutor", None)
        again = class_sum(F31, parse_poly("x^3+2*x+5", F31), mu, 2)
    assert again.cycle_type_counts == first.cycle_type_counts


def test_frobenius_batch_runs_once_per_interval_in_the_parent(monkeypatch):
    # a standalone sweep and a table at 1 and 2 workers, of a d >= 6 interval
    # over F_101 and of a quartic over F_27 (p <= d: no fiber route): the
    # parent computes the batch (and the root lists) once, and no worker
    # computes it
    from ffintervals import reports

    F101, F27 = make_prime_field(101), make_extension(make_prime_field(3), 3, 0)
    cases = []
    for ctx, text in ((F101, "x^8+3*x^3+x+1"), (F27, "x^4+2*x^3+x+1")):
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
        tables = list(interval_lab._tables.values())
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


def _count_pools(monkeypatch):
    opened = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(interval_lab, "ProcessPoolExecutor", CountedPool)
    return opened


def test_a_two_worker_battery_opens_one_pool(monkeypatch):
    from ffintervals import suite

    opened = _count_pools(monkeypatch)
    with run_scope():  # the demo's steps nest their scopes in this one
        large_q_demo(5, (1, 4), 2)
    assert len(opened) == 1
    opened.clear()
    during_demo = []
    demo = suite.large_q_demo

    def counted_demo(*args):
        before = len(opened)
        report = demo(*args)
        during_demo.append(len(opened) - before)
        return report

    monkeypatch.setattr(suite, "large_q_demo", counted_demo)
    suite._Battery(suite.SuiteParams(quick=True), 2).run_all()
    assert len(opened) == 1
    assert during_demo == [0]
    assert multiprocessing.active_children() == []


def test_a_two_worker_scope_shuts_its_pool_down_on_exit():
    F31, big = make_prime_field(31), make_prime_field(10000019)
    f, mu = parse_poly("x^3+2*x+1", F31), make_builtin("moebius", 3)
    with run_scope():
        class_sum(F31, f, mu, 2)
        assert list(interval_lab._pools) == [2] and multiprocessing.active_children()
    assert interval_lab._pools is None
    assert multiprocessing.active_children() == []
    with pytest.raises(TooLarge), run_scope():
        class_sum(F31, f.shift_const(F31(1)), mu, 2)
        class_sum(big, Poly(big, [0, 0, 0, 1]), mu, 2)
    assert interval_lab._pools is None
    assert multiprocessing.active_children() == []


def test_paper_suite_rerun_builds_its_own_tables(monkeypatch):
    from ffintervals import suite

    for name in vars(suite._Battery):
        if name.startswith("check_") and name != "check_divisor":
            monkeypatch.setattr(suite._Battery, name, lambda self: None)
    builds = []
    blocks = interval_lab._blocks

    def record(block, head, q, workers):
        builds.append((block.__name__, workers))
        return blocks(block, head, q, workers)

    monkeypatch.setattr(interval_lab, "_blocks", record)
    result = suite.run_paper_suite(suite.SuiteParams(quick=True))
    # three sweeps of one interval per battery; the rerun builds at 2 workers
    assert builds == [("_fiber_block", 1), ("_fiber_block", 2)]
    assert result["pass"] and [c["id"] for c in result["checks"]] == [9, 16]


# ---------------------------------------------------------------------------
# the fiber route: root counts and the square class of D(c) name the type


def _table_over_split(ctx, f, bounds):
    """I(f)'s run-scope table with the blocks cut at bounds (0 to q) and run in-process."""

    def blocks(block, head, q, workers):
        assert (bounds[0], bounds[-1]) == (0, q)
        return [block(*head, lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    with pytest.MonkeyPatch.context() as patch, run_scope():
        patch.setattr(interval_lab, "_blocks", blocks)
        return interval_lab._interval_table(ctx, f, len(bounds) - 1)


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
    center, d_raws = interval_lab._center(ctx, f)
    table = _table_over_split(ctx, f, [0, ctx.q])
    assert len(calls) == (0 if d_raws else ctx.q), (ctx, raws)  # p > d: no member factored
    assert table == list(interval_lab._member_types(ctx, center, d_raws, range(ctx.q))), raws
    calls.clear()
    if rng is not None:
        disc_free = [cycle_pattern_or_none(ctx, [c] + list(center[1:])) for c in range(ctx.q)]
        assert table == disc_free, (ctx, raws)
        for bounds in _seeded_splits(rng, ctx.q):
            assert _table_over_split(ctx, f, bounds) == table, (ctx, raws, bounds)
        assert calls == []
    return table


def test_fiber_types_are_one_to_one_exactly_up_to_degree_five():
    assert [d for d in range(1, 13) if interval_lab._fiber_types(d)] == [1, 2, 3, 4, 5]
    assert interval_lab._fiber_types(5)[1, True] == (2, 2, 1)
    assert interval_lab._fiber_types(5)[1, False] == (4, 1)


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
                assert interval_lab._interval_table(ctx, Poly.from_raw(ctx, raws), workers) == table


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
