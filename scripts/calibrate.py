#!/usr/bin/env python3
"""Regenerate the packaged tolerance fixtures.

Every sqrt(q)-scale acceptance constant is set to twice the maximum
|error|/sqrt(q) observed in pilot runs at three field sizes spanning the
quick and full suite scales (the largest pilot is the acceptance prime, so
the recorded thresholds are reproducible by construction).  The Morse-scan
bounds are observed maxima of exact integer counts over seeded random
centers, including the centers the acceptance battery itself uses.

All pilots run in one interval_lab.run_scope(), so an interval that several
pilots sweep is factored once; the fixtures do not depend on it.

Usage: python scripts/calibrate.py [--out src/ffintervals/data/tolerances.json]
"""

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ffintervals.class_functions import make_builtin  # noqa: E402
from ffintervals.finite_field import is_prime, make_prime_field  # noqa: E402
from ffintervals.interval_lab import (  # noqa: E402
    IntervalSpec,
    chebotarev_empirical,
    class_sum,
    correlation_sum,
    large_q_demo,
    morse_density_scan,
    run_scope,
)
from ffintervals.morse_galois import make_non_morse  # noqa: E402
from ffintervals.polynomial import derivative, random_monic  # noqa: E402
from ffintervals.polyparse import parse_poly  # noqa: E402
from ffintervals.suite import first_morse_center  # noqa: E402


def next_prime_with(start, mod=1, res=0):
    n = start
    while True:
        if is_prime(n) and (mod == 1 or n % mod == res):
            return n
        n += 1


def norm_err(raw, target, q):
    return abs(float(Fraction(raw) - Fraction(target))) / math.sqrt(q)


def two_x(values):
    return round(2.0 * max(values) + 1e-9, 4)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "src/ffintervals/data/tolerances.json"))
    args = ap.parse_args()
    # the pilots sweep each interval several times; in one scope each builds its table once
    with run_scope():
        out = pilot_maxima()
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"[calibrate] wrote {args.out}")


def pilot_maxima():
    """The tolerance fixtures, keys sorted, from the pilot runs."""
    t_start = time.time()
    out = {}
    meta = {"pilots": {}}

    generic_pilots = [1009, next_prime_with(4001), 10007]
    mod3_pilots = [1009, next_prime_with(4001, 3, 1), 10009]
    mod4_1_pilots = [1009, next_prime_with(4001, 4, 1), 10009]
    mod4_3_pilots = [1019, next_prime_with(4001, 4, 3), 10007]
    meta["pilots"]["generic"] = generic_pilots
    meta["pilots"]["mod3"] = mod3_pilots
    meta["pilots"]["mod4_1"] = mod4_1_pilots
    meta["pilots"]["mod4_3"] = mod4_3_pilots

    # --- Morse prime tuples, Moebius/Chowla, divisor sums, Chebotarev -------
    errs = {f"thm1_single_d{d}": [] for d in (3, 4, 5)}
    errs.update({f"thm1_pair_d{d}": [] for d in (3, 4, 5)})
    errs.update({f"thm2_mu_d{d}": [] for d in (3, 4, 5)})
    errs.update({f"thm2_chowla_d{d}": [] for d in (3, 4, 5)})
    errs.update(divisor_single=[], titchmarsh_pair=[], divisor_pair=[], cheb_class_dev=[])
    battery_errs = []
    for p in generic_pilots:
        ctx = make_prime_field(p)
        for d in (3, 4, 5):
            f = first_morse_center(ctx, d)
            prime_d = make_builtin("prime", d)
            mu_d = make_builtin("moebius", d)
            single = class_sum(ctx, f, prime_d)
            errs[f"thm1_single_d{d}"].append(norm_err(single.raw_sum, Fraction(p, d), p))
            pair = correlation_sum(IntervalSpec(ctx, f, (ctx(0), ctx(1)), (prime_d, prime_d)))
            errs[f"thm1_pair_d{d}"].append(norm_err(pair.raw_sum, Fraction(p, d * d), p))
            mu_single = class_sum(ctx, f, mu_d)
            errs[f"thm2_mu_d{d}"].append(norm_err(mu_single.raw_sum, 0, p))
            battery_errs.append(norm_err(mu_single.raw_sum, 0, p))
            mu_pair = correlation_sum(IntervalSpec(ctx, f, (ctx(0), ctx(1)), (mu_d, mu_d)))
            errs[f"thm2_chowla_d{d}"].append(norm_err(mu_pair.raw_sum, 0, p))
            battery_errs.append(norm_err(mu_pair.raw_sum, 0, p))
        f4 = first_morse_center(ctx, 4)
        d2 = make_builtin("divisor", 4, r=2)
        prime4 = make_builtin("prime", 4)
        errs["divisor_single"].append(norm_err(class_sum(ctx, f4, d2).raw_sum, 5 * p, p))
        errs["titchmarsh_pair"].append(
            norm_err(
                correlation_sum(IntervalSpec(ctx, f4, (ctx(0), ctx(1)), (prime4, d2))).raw_sum,
                Fraction(5 * p, 4),
                p,
            )
        )
        errs["divisor_pair"].append(
            norm_err(
                correlation_sum(IntervalSpec(ctx, f4, (ctx(0), ctx(1)), (d2, d2))).raw_sum,
                25 * p,
                p,
            )
        )
        cheb = chebotarev_empirical(ctx, f4, (ctx(0),))
        errs["cheb_class_dev"].append(cheb.max_deviation * math.sqrt(p))
        print(f"[calibrate] generic pilot p={p} done ({time.time()-t_start:.0f}s)", flush=True)
    for key, vals in errs.items():
        out[key] = two_x(vals)
    out["battery_dichotomy"] = two_x(battery_errs)

    # --- Kummer pair (p = 1 mod 3) ------------------------------------------
    vals = []
    for p in mod3_pilots:
        ctx = make_prime_field(p)
        f = parse_poly("x^3", ctx)
        prime3 = make_builtin("prime", 3)
        rep = correlation_sum(IntervalSpec(ctx, f, (ctx(0), ctx(1)), (prime3, prime3)))
        vals.append(norm_err(rep.raw_sum, Fraction(4 * p, 9), p))
    out["kummer_pair"] = two_x(vals)
    print(f"[calibrate] kummer done ({time.time()-t_start:.0f}s)", flush=True)

    # --- degenerate quartic (p = 1 mod 4 and p = 3 mod 4) -------------------
    bad_vals, good_vals, single_vals, zero_vals = [], [], [], []
    prime4 = make_builtin("prime", 4)
    for p in mod4_1_pilots:
        ctx = make_prime_field(p)
        f = parse_poly("x^4-2*x^2", ctx)
        rep = correlation_sum(IntervalSpec(ctx, f, (ctx(0), ctx(1)), (prime4, prime4)))
        bad_vals.append(norm_err(rep.raw_sum, Fraction(p, 8), p))
        rep2 = correlation_sum(IntervalSpec(ctx, f, (ctx(0), ctx(2)), (prime4, prime4)))
        good_vals.append(norm_err(rep2.raw_sum, Fraction(p, 16), p))
    for p in mod4_3_pilots:
        ctx = make_prime_field(p)
        f = parse_poly("x^4-2*x^2", ctx)
        rep = correlation_sum(IntervalSpec(ctx, f, (ctx(0), ctx(1)), (prime4, prime4)))
        zero_vals.append(norm_err(rep.raw_sum, 0, p))
        single_vals.append(norm_err(class_sum(ctx, f, prime4).raw_sum, Fraction(p, 4), p))
    out["sec62_pair_bad"] = two_x(bad_vals)
    out["sec62_pair_good"] = two_x(good_vals)
    out["sec62_pair_zero"] = two_x(zero_vals)
    out["sec62_single"] = two_x(single_vals)
    print(f"[calibrate] sec62 done ({time.time()-t_start:.0f}s)", flush=True)

    # --- fixed characteristic demo -------------------------------------------
    demo = large_q_demo(5, (3, 4, 5))
    vals = [abs(float(st.single_report.raw_sum)) / st.sqrt_q for st in demo.steps]
    out["large_q_single"] = two_x(vals)
    meta["pilots"]["large_q"] = [st.q for st in demo.steps]
    print(f"[calibrate] large-q done ({time.time()-t_start:.0f}s)", flush=True)

    # --- Morse genericity scan maxima ----------------------------------------
    scan_counts = {3: [], 4: [], 5: []}
    for p in (101, 1009):
        ctx = make_prime_field(p)
        for d in (3, 4, 5):
            # the acceptance battery's seed-0 centers, plus extra seeded draws
            rngs = [random.Random("0/morse-scan")] + [
                random.Random(f"cal/{p}/{d}/{i}") for i in range(8)
            ]
            for rng in rngs:
                while True:
                    f = random_monic(ctx, d, rng)
                    if not derivative(derivative(f)).is_zero:
                        break
                scan = morse_density_scan(ctx, f)
                scan_counts[d].append(scan.bad_count)
        print(f"[calibrate] scans p={p} done ({time.time()-t_start:.0f}s)", flush=True)
    for d in (3, 4, 5):
        out[f"morse_scan_bound_d{d}"] = max(scan_counts[d])
        meta[f"scan_counts_d{d}"] = scan_counts[d]

    # --- product law for non-Morse centers with good shifts ------------------
    from ffintervals.morse_galois import bad_shift_check

    vals = []
    p = 1009
    ctx = make_prime_field(p)
    rng = random.Random("0/thm4")
    mu_cache = {}
    for _ in range(20):
        d = rng.choice((3, 4, 5))
        f = make_non_morse(ctx, d, rng)
        while True:
            h1, h2 = rng.randrange(p), rng.randrange(p)
            if h1 != h2 and not bad_shift_check(f, (ctx(h1), ctx(h2))):
                break
        phi = mu_cache.setdefault(d, make_builtin("prime", d))
        single = class_sum(ctx, f, phi)
        c = single.empirical_constant
        pair = correlation_sum(
            IntervalSpec(ctx, f, (ctx(h1), ctx(h2)), (phi, phi)),
            single_constants=(c, c),
        )
        vals.append(norm_err(pair.raw_sum, c * c * p, p))
    out["thm4_product"] = two_x(vals)
    print(f"[calibrate] thm4 done ({time.time()-t_start:.0f}s)", flush=True)

    out["_meta"] = meta
    print(f"[calibrate] pilots done in {time.time()-t_start:.0f}s")
    return {k: out[k] for k in sorted(out)}


if __name__ == "__main__":
    main()
