"""The golden battery: every acceptance check, runnable from the CLI and tests.

Each check reruns one of the paper-scale experiments at desk size and compares
against its exact law or its calibrated sqrt(q) tolerance.  The determinism
check reruns the whole battery with a different worker count and requires the
serialized reports (timings excluded) to match byte for byte.

Each of criteria 1-15 is one ``_Battery.check_*`` method under
``@_criterion(cid, name, bundle_key)``.  The method only computes: it returns
``(rows, passed, observed, expected, tolerance)``.  The decorator times the
call, stores ``rows`` as ``bundle[bundle_key]`` and passes the ``CheckResult``
to ``_Battery._record``, which appends it and streams it to ``progress``
before the call returns.  Criterion 16 goes through the same ``_record``.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import reports
from .class_functions import make_builtin, partitions_of
from .errors import FFIntervalsError
from .finite_field import make_prime_field
from .interval_lab import (
    IntervalSpec,
    chebotarev_empirical,
    class_sum,
    correlation_sum,
    gauss_census,
    large_q_demo,
    morse_density_scan,
    run_scope,
    squarefree_census,
)
from .morse_galois import (
    NO_CANCELLATION,
    bad_set,
    classify_mu_cancellation,
    is_morse,
    predicted_no_cancellation_sum,
)
from .polynomial import (
    Poly,
    brute_force_factor,
    factor,
    is_squarefree,
    poly_from_index,
    random_monic,
)
from .polyparse import parse_poly
from .tolerances import load_tolerances


@dataclass
class SuiteParams:
    quick: bool = False
    seed: int = 0
    workers: int = 1
    tolerance_file: str | None = None

    @property
    def p_1mod3(self):
        return 1009 if self.quick else 10009

    @property
    def p_2mod3(self):
        return 1013 if self.quick else 10007

    @property
    def p_1mod4(self):
        return 1009 if self.quick else 10009

    @property
    def p_3mod4(self):
        return 1019 if self.quick else 10007

    @property
    def p_main(self):
        return 1009 if self.quick else 10007

    @property
    def p_scan(self):
        return 101 if self.quick else 1009

    @property
    def demo_ls(self):
        return (1, 4) if self.quick else (1, 4, 5)

    @property
    def n_stickelberger(self):
        return 200 if self.quick else 1000

    @property
    def n_census(self):
        return 30 if self.quick else 100


@dataclass
class CheckResult:
    cid: int
    name: str
    passed: bool
    observed: str
    expected: str
    tolerance: str
    elapsed: float

    def to_dict(self):
        return {
            "id": self.cid,
            "name": self.name,
            "pass": self.passed,
            "observed": self.observed,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }


def first_morse_center(ctx, d: int) -> Poly:
    """Deterministic Morse representative: x^d + s*x with the smallest s >= 1."""
    x = Poly.x(ctx)
    for s in range(1, ctx.p):
        f = x**d + ctx(s) * x
        ok, _ = is_morse(f)
        if ok:
            return f
    raise FFIntervalsError(f"no Morse member of x^{d} + s*x over {ctx}")


def _within(value, target, bound) -> bool:
    return abs(float(Fraction(value) - Fraction(target))) <= bound


def _criterion(cid: int, name: str, bundle_key: str):
    """Run a ``check_*`` method as criterion ``cid``; see the module docstring."""

    def decorate(check):
        @functools.wraps(check)
        def run(battery):
            t0 = time.perf_counter()
            rows, passed, observed, expected, tolerance = check(battery)
            battery.bundle[bundle_key] = rows
            elapsed = time.perf_counter() - t0
            battery._record(CheckResult(cid, name, passed, observed, expected, tolerance, elapsed))

        return run

    return decorate


class _Battery:
    def __init__(self, params: SuiteParams, workers: int, progress=None):
        self.params = params
        self.progress = progress
        self.tol = load_tolerances(params.tolerance_file)
        self.workers = workers
        self.seed = params.seed
        self.bundle = {}
        self.checks = []

    def _record(self, check: CheckResult):
        """Append a finished check and stream it to ``progress``."""
        self.checks.append(check)
        if self.progress:
            self.progress(check)

    # -- criterion 1 --------------------------------------------------------

    @_criterion(1, "gauss-exact-count", "gauss")
    def check_gauss(self):
        rows = []
        ok = True
        for p in (2, 3, 5, 7):
            for d in (2, 3, 4):
                enumerated, formula = gauss_census(p, d)
                rows.append({"p": p, "d": d, "enumerated": enumerated, "formula": formula})
                ok = ok and enumerated == formula
        observed = "; ".join(f"p={r['p']},d={r['d']}:{r['enumerated']}" for r in rows[:4]) + "; ..."
        return rows, ok, observed, "enumerated == formula for p in {2,3,5,7}, d in {2,3,4}", "exact"

    # -- criterion 2 --------------------------------------------------------

    @_criterion(2, "kummer-exact-densities", "kummer_exact")
    def check_kummer_exact(self):
        prime3 = make_builtin("prime", 3)
        rows = []
        ok = True
        for p in (7, 13, self.params.p_1mod3, 5, 11, self.params.p_2mod3):
            ctx = make_prime_field(p)
            rep = class_sum(ctx, parse_poly("x^3", ctx), prime3, self.workers)
            want = Fraction(2 * (p - 1), 3) if p % 3 == 1 else 0
            rows.append(reports.experiment_to_dict(rep))
            ok = ok and rep.raw_sum == want
        observed = "; ".join(f"p={r['params']['p']}:{r['raw_sum']}" for r in rows)
        return rows, ok, observed, "2(p-1)/3 for p = 1 mod 3; 0 for p = 2 mod 3", "exact"

    # -- criterion 3 --------------------------------------------------------

    @_criterion(3, "kummer-pair-independence", "kummer_pair")
    def check_kummer_pair(self):
        p = self.params.p_1mod3
        ctx = make_prime_field(p)
        f = parse_poly("x^3", ctx)
        prime3 = make_builtin("prime", 3)
        spec = IntervalSpec(ctx, f, (ctx(0), ctx(1)), (prime3, prime3))
        rep = correlation_sum(spec, self.workers)
        bound = self.tol["kummer_pair"] * math.sqrt(p)
        target = Fraction(4 * p, 9)
        return (
            [reports.experiment_to_dict(rep)],
            _within(rep.raw_sum, target, bound),
            f"pair sum {rep.raw_sum}, |err| = {abs(float(rep.raw_sum - target)):.1f}",
            f"4p/9 = {float(target):.1f}",
            f"C*sqrt(p) = {bound:.1f}",
        )

    # -- criteria 4 and 5 ----------------------------------------------------

    def _morse_tuples(self, kind, targets, tol_keys, describe, expected):
        """Single and (0, 1)-pair sums of ``kind`` at the Morse centers d = 3, 4, 5.

        ``targets(p, d)`` gives the two targets, ``tol_keys`` the two
        tolerance-key stems, ``describe(d, single, pair)`` one observed entry
        and ``expected(p)`` the expected text.  Returns a check's result.
        """
        p = self.params.p_main
        ctx = make_prime_field(p)
        rows, obs, ok = [], [], True
        for d in (3, 4, 5):
            f = first_morse_center(ctx, d)
            phi = make_builtin(kind, d)
            single = class_sum(ctx, f, phi, self.workers)
            pair = correlation_sum(IntervalSpec(ctx, f, (ctx(0), ctx(1)), (phi, phi)), self.workers)
            for rep, target, key in zip((single, pair), targets(p, d), tol_keys):
                ok = _within(rep.raw_sum, target, self.tol[f"{key}_d{d}"] * math.sqrt(p)) and ok
                rows.append(reports.experiment_to_dict(rep))
            obs.append(describe(d, single.raw_sum, pair.raw_sum))
        return rows, ok, "; ".join(obs), expected(p), "calibrated C_d * sqrt(p)"

    @_criterion(4, "thm1-morse-prime-tuples", "thm1")
    def check_thm1(self):
        return self._morse_tuples(
            "prime",
            lambda p, d: (Fraction(p, d), Fraction(p, d * d)),
            ("thm1_single", "thm1_pair"),
            lambda d, single, pair: f"d={d}: single {single} pair {pair}",
            lambda p: f"p/d and p/d^2 at p = {p} (d = 3, 4, 5)",
        )

    @_criterion(5, "thm2-moebius-chowla-cancellation", "thm2")
    def check_thm2(self):
        return self._morse_tuples(
            "moebius",
            lambda p, d: (0, 0),
            ("thm2_mu", "thm2_chowla"),
            lambda d, single, pair: f"d={d}: |mu| {abs(single)} |chowla| {abs(pair)}",
            lambda p: f"O(sqrt(p)) cancellation at p = {p}",
        )

    # -- criterion 6 --------------------------------------------------------

    @_criterion(6, "thm5-no-cancellation-exact", "thm5_exact")
    def check_thm5_exact(self):
        mu3 = make_builtin("moebius", 3)
        rows = []
        ok = True
        obs = []
        for p in (7, 5, self.params.p_1mod3, self.params.p_2mod3):
            ctx = make_prime_field(p)
            f = parse_poly("x^3", ctx)
            rep = class_sum(ctx, f, mu3, self.workers)
            sign = -1 if p % 3 == 1 else 1
            want = Fraction(sign * (p - 1))
            verdict = classify_mu_cancellation(f)
            implied = predicted_no_cancellation_sum(verdict, f)
            good = (
                rep.raw_sum == want
                and verdict.kind == NO_CANCELLATION
                and verdict.sign == sign
                and implied == want
            )
            ok = ok and good
            obs.append(f"p={p}: sum {rep.raw_sum} sign {verdict.sign}")
            row = reports.experiment_to_dict(rep)
            row["verdict"] = reports.verdict_to_dict(verdict)
            rows.append(row)
        expected = "-(p-1) for p = 1 mod 3, +(p-1) for p = 2 mod 3, verdict matching"
        return rows, ok, "; ".join(obs), expected, "exact"

    # -- criterion 7 --------------------------------------------------------

    @_criterion(7, "sec62-independence-breakdown", "sec62")
    def check_sec62(self):
        prime4 = make_builtin("prime", 4)
        rows = []
        obs = []
        p1 = self.params.p_1mod4
        ctx1 = make_prime_field(p1)
        f1 = parse_poly("x^4-2*x^2", ctx1)
        pair01 = correlation_sum(
            IntervalSpec(ctx1, f1, (ctx1(0), ctx1(1)), (prime4, prime4)), self.workers
        )
        ok = _within(pair01.raw_sum, Fraction(p1, 8), self.tol["sec62_pair_bad"] * math.sqrt(p1))
        obs.append(f"p={p1} pair(0,1) {pair01.raw_sum} vs p/8 = {p1 / 8:.1f}")
        singles = class_sum(ctx1, f1, prime4, self.workers)
        pair02 = correlation_sum(
            IntervalSpec(ctx1, f1, (ctx1(0), ctx1(2)), (prime4, prime4)),
            self.workers,
            single_constants=(singles.empirical_constant, singles.empirical_constant),
        )
        ok = ok and _within(
            pair02.raw_sum, Fraction(p1, 16), self.tol["sec62_pair_good"] * math.sqrt(p1)
        )
        obs.append(f"pair(0,2) {pair02.raw_sum} vs p/16 = {p1 / 16:.1f}")
        p3 = self.params.p_3mod4
        ctx3 = make_prime_field(p3)
        f3 = parse_poly("x^4-2*x^2", ctx3)
        pair31 = correlation_sum(
            IntervalSpec(ctx3, f3, (ctx3(0), ctx3(1)), (prime4, prime4)), self.workers
        )
        ok = ok and abs(float(pair31.raw_sum)) <= self.tol["sec62_pair_zero"] * math.sqrt(p3)
        obs.append(f"p={p3} pair(0,1) {pair31.raw_sum} vs 0")
        single3 = class_sum(ctx3, f3, prime4, self.workers)
        ok = ok and _within(
            single3.raw_sum, Fraction(p3, 4), self.tol["sec62_single"] * math.sqrt(p3)
        )
        obs.append(f"single {single3.raw_sum} vs p/4 = {p3 / 4:.1f}")
        rows.extend(
            reports.experiment_to_dict(r) for r in (pair01, singles, pair02, pair31, single3)
        )
        expected = "p/8 and p/16 at p = 1 mod 4; 0 and p/4 at p = 3 mod 4"
        return rows, ok, "; ".join(obs), expected, "calibrated C * sqrt(p)"

    # -- criterion 8 --------------------------------------------------------

    @_criterion(8, "bad-set-exact", "bad_set")
    def check_bad_set(self):
        rows = []
        ok = True
        for p in (5, 7, 13, self.params.p_main, self.params.p_1mod4):
            ctx = make_prime_field(p)
            b1 = bad_set(parse_poly("x^4-2*x^2", ctx))
            got1 = sorted(e.raw for e in b1)
            ok = ok and got1 == sorted({1, p - 1})
            b2 = bad_set(parse_poly("x^3", ctx))
            ok = ok and not b2
            rows.append({"p": p, "bad_x4_2x2": got1, "bad_x3": sorted(e.raw for e in b2)})
        observed = "; ".join(f"p={r['p']}:{r['bad_x4_2x2']}" for r in rows)
        return rows, ok, observed, "B(x^4-2x^2) = {1, p-1}; B(x^3) = {} at five primes", "exact"

    # -- criterion 9 --------------------------------------------------------

    @_criterion(9, "divisor-titchmarsh-constants", "divisor")
    def check_divisor(self):
        p = self.params.p_main
        ctx = make_prime_field(p)
        f = first_morse_center(ctx, 4)
        d2 = make_builtin("divisor", 4, r=2)
        prime4 = make_builtin("prime", 4)
        single = class_sum(ctx, f, d2, self.workers)
        ok = _within(single.raw_sum, Fraction(5 * p), self.tol["divisor_single"] * math.sqrt(p))
        titch = correlation_sum(
            IntervalSpec(ctx, f, (ctx(0), ctx(1)), (prime4, d2)), self.workers
        )
        ok = ok and _within(
            titch.raw_sum, Fraction(5 * p, 4), self.tol["titchmarsh_pair"] * math.sqrt(p)
        )
        pair = correlation_sum(
            IntervalSpec(ctx, f, (ctx(0), ctx(1)), (d2, d2)), self.workers
        )
        ok = ok and _within(pair.raw_sum, Fraction(25 * p), self.tol["divisor_pair"] * math.sqrt(p))
        return (
            [reports.experiment_to_dict(r) for r in (single, titch, pair)],
            ok,
            f"d2 {single.raw_sum} (5p = {5 * p}); titchmarsh {titch.raw_sum} "
            f"(5p/4 = {5 * p / 4:.1f}); pair {pair.raw_sum} (25p = {25 * p})",
            "5p, (5/4)p, 25p",
            "calibrated C * sqrt(p)",
        )

    # -- criterion 10 -------------------------------------------------------

    @_criterion(10, "mu-sgn-identity", "mu_sgn")
    def check_mu_sgn(self):
        ok = True
        total = 0
        for d in range(1, 9):
            for ct in partitions_of(d):
                total += 1
                lhs = ct.mu_value
                rhs = ct.sgn_value if d % 2 == 0 else -ct.sgn_value
                ok = ok and lhs == rhs
        expected = "(-1)^(parts) == (-1)^d * sgn for every partition"
        return [{"partitions_checked": total}], ok, f"{total} partitions, d <= 8", expected, "exact"

    # -- criterion 11 -------------------------------------------------------

    @_criterion(11, "oracle-equivalence", "oracles")
    def check_oracles(self):
        ok = True
        compared = 0
        for p in (2, 3, 5):
            ctx = make_prime_field(p)
            for d in range(1, 5):
                for idx in range(p**d):
                    g = poly_from_index(ctx, d, idx)
                    fast = factor(g, self.seed)
                    slow = brute_force_factor(g)
                    ok = ok and fast.factors == slow.factors and fast.unit == slow.unit
                    compared += 1
        from .morse_galois import stickelberger_mu

        rng = random.Random(f"{self.seed}/stickelberger")
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
        agree = 0
        n = self.params.n_stickelberger
        for _ in range(n):
            ctx = make_prime_field(primes[rng.randrange(len(primes))])
            d = rng.randrange(1, 7)
            while True:
                g = random_monic(ctx, d, rng)
                if g.degree >= 1 and is_squarefree(g):
                    break
            mu_fact = -1 if factor(g, self.seed).omega % 2 else 1
            if stickelberger_mu(g) == mu_fact:
                agree += 1
        return (
            [{"exhaustive_factorizations": compared, "stickelberger_agreements": agree, "of": n}],
            ok and agree == n,
            f"{compared} exhaustive factor comparisons; {agree}/{n} parity agreements",
            "factor == brute force (deg <= 4, F_2/F_3/F_5); parity == factorization mu",
            "exact",
        )

    # -- criterion 12 -------------------------------------------------------

    @_criterion(12, "squarefree-census-bound", "census")
    def check_census(self):
        p = self.params.p_scan
        ctx = make_prime_field(p)
        rng = random.Random(f"{self.seed}/census")
        ok = True
        worst = 0
        for _ in range(self.params.n_census):
            d = rng.randrange(2, 7)
            f = random_monic(ctx, d, rng)
            h1 = rng.randrange(p)
            h2 = rng.randrange(p)
            while h2 == h1:
                h2 = rng.randrange(p)
            rep = squarefree_census(ctx, f, (ctx(h1), ctx(h2)))
            worst = max(worst, rep.bad_count)
            ok = ok and rep.bad_count <= rep.bad_bound
        return (
            [{"specs": self.params.n_census, "worst_bad_count": worst}],
            ok,
            f"worst non-squarefree count {worst} over {self.params.n_census} specs",
            "count <= k(d-1)",
            "exact bound",
        )

    # -- criterion 13 -------------------------------------------------------

    @_criterion(13, "chebotarev-empirical", "chebotarev")
    def check_chebotarev(self):
        p = self.params.p_main
        ctx = make_prime_field(p)
        f = first_morse_center(ctx, 4)
        rep = chebotarev_empirical(ctx, f, (ctx(0),), self.workers)
        bound = self.tol["cheb_class_dev"] / math.sqrt(p)
        return (
            [reports.chebotarev_to_dict(rep)],
            rep.max_deviation <= bound and len(rep.predicted) == 5,
            f"max |freq - 1/z| = {rep.max_deviation:.5f} over {len(rep.predicted)} classes",
            "per-class deviation <= C/sqrt(p)",
            f"C/sqrt(p) = {bound:.5f}",
        )

    # -- criterion 14 -------------------------------------------------------

    @_criterion(14, "morse-genericity-scan", "morse_scan")
    def check_morse_scan(self):
        ctx13 = make_prime_field(13)
        scan13 = morse_density_scan(ctx13, parse_poly("x^3", ctx13))
        ok = scan13.bad_count == 1 and scan13.bad_s[0].raw == 0
        rows = [reports.scan_to_dict(scan13)]
        p = self.params.p_scan
        ctx = make_prime_field(p)
        rng = random.Random(f"{self.seed}/morse-scan")
        obs = [f"x^3/F13 bad={scan13.bad_count}"]
        from .polynomial import derivative

        for d in (3, 4, 5):
            while True:
                f = random_monic(ctx, d, rng)
                if not derivative(derivative(f)).is_zero:
                    break
            scan = morse_density_scan(ctx, f)
            bound = self.tol[f"morse_scan_bound_d{d}"]
            ok = ok and scan.bad_count <= bound
            obs.append(f"d={d}: {scan.bad_count} <= {bound}")
            rows.append(reports.scan_to_dict(scan))
        expected = "x^3/F_13 fails only at s = 0; random centers below calibrated bound"
        return rows, ok, "; ".join(obs), expected, "calibrated integer bounds"

    # -- criterion 15 -------------------------------------------------------

    @_criterion(15, "large-q-demo", "large_q")
    def check_large_q(self):
        demo = large_q_demo(5, self.params.demo_ls, self.workers)
        ok = True
        obs = []
        csingle = self.tol["large_q_single"]
        for st in demo.steps:
            ok = ok and st.multiset_multiplicity_two
            if st.l >= 4:
                ok_s = abs(float(st.single_report.raw_sum)) <= csingle * st.sqrt_q
                ok_p = abs(st.product_sum) >= st.q / 2
                ok = ok and ok_s and ok_p
                obs.append(
                    f"q={st.q}: |single| {abs(st.single_report.raw_sum)} <= "
                    f"{csingle * st.sqrt_q:.1f}, |product| {abs(st.product_sum)} >= {st.q // 2}"
                )
            else:
                obs.append(f"q={st.q}: multiset multiplicity-two {st.multiset_multiplicity_two}")
        return (
            [reports.demo_to_dict(demo)],
            ok,
            "; ".join(obs),
            "single sums cancel, p-shift Chowla product stays >= q/2",
            f"C = {csingle} for singles; q/2 for the product",
        )

    def run_all(self):
        with run_scope():  # this battery's own tables, at its own worker count
            self.check_gauss()
            self.check_kummer_exact()
            self.check_kummer_pair()
            self.check_thm1()
            self.check_thm2()
            self.check_thm5_exact()
            self.check_sec62()
            self.check_bad_set()
            self.check_divisor()
            self.check_mu_sgn()
            self.check_oracles()
            self.check_census()
            self.check_chebotarev()
            self.check_morse_scan()
            self.check_large_q()
        return self.checks, self.bundle


def run_paper_suite(params: SuiteParams, progress=None) -> dict:
    """Run all acceptance checks plus the worker-count determinism check."""
    t0 = time.perf_counter()
    battery = _Battery(params, params.workers, progress)
    checks, bundle = battery.run_all()

    t16 = time.perf_counter()
    alt_workers = 2 if params.workers == 1 else 1
    _, bundle2 = _Battery(params, alt_workers).run_all()
    blob1 = reports.to_json(reports.scrub_timings(bundle))
    blob2 = reports.to_json(reports.scrub_timings(bundle2))
    battery._record(
        CheckResult(
            16,
            "determinism-across-workers",
            blob1 == blob2,
            f"reports with workers={params.workers} vs workers={alt_workers} "
            + ("identical" if blob1 == blob2 else "DIFFER"),
            "byte-identical serialized reports (timings excluded)",
            "exact",
            time.perf_counter() - t16,
        )
    )

    return {
        "command": "paper-suite",
        "params": {
            "quick": params.quick,
            "seed": params.seed,
            "workers": params.workers,
            "primes": sorted(
                {
                    params.p_main,
                    params.p_1mod3,
                    params.p_2mod3,
                    params.p_1mod4,
                    params.p_3mod4,
                    params.p_scan,
                }
            ),
        },
        "checks": [c.to_dict() for c in checks],
        "reports": bundle,
        "pass": all(c.passed for c in checks),
        "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
    }
