"""Micro-probes for the layer costs named in the roadmap.

Each probe warms up once, then reports the median of several timed
repetitions over seeded inputs: field multiplication in F_p and F_{5^5}, the
int-polynomial mulmod, and the per-member cycle-type kernel by degree at
p = 10007 and for cubics over F_{5^5}.
"""

from __future__ import annotations

import random
import statistics
import time

from ffintervals import polynomial
from ffintervals.finite_field import make_extension, make_prime_field

PROBE_P = 10007
KERNEL_DEGREES = (3, 4, 5, 6, 7)
REPS = 3


def _per_call(fn, args_list) -> float:
    """Median seconds per call of fn over args_list, after one warm-up pass."""
    for args in args_list:
        fn(*args)
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - t0) / len(args_list))
    return statistics.median(times)


def probe_metrics() -> dict:
    rng = random.Random("perfbench/probes")
    fp = make_prime_field(PROBE_P)
    f55 = make_extension(make_prime_field(5), 5, 0)

    def elems(ctx, n):
        return [ctx.raw_from_index(rng.randrange(ctx.q)) for _ in range(n)]

    def monics(ctx, d, n):
        return [(ctx, list(polynomial.random_monic(ctx, d, rng).raw_coeffs)) for _ in range(n)]

    def pairs(ctx, n):
        return list(zip(elems(ctx, n), elems(ctx, n)))

    def coeffs(n):
        return [rng.randrange(PROBE_P) for _ in range(n)]

    m5 = coeffs(5) + [1]
    mulmods = [(PROBE_P, coeffs(5), coeffs(5), m5) for _ in range(3000)]
    out = {
        "finite_field.mul_ns.p": _per_call(fp.mul, pairs(fp, 20000)) * 1e9,
        "finite_field.mul_ns.ext5": _per_call(f55.mul, pairs(f55, 2000)) * 1e9,
        "polynomial.mulmod_ns.d5": _per_call(polynomial._imulmod, mulmods) * 1e9,
    }
    kernel = polynomial.cycle_pattern_or_none
    for d in KERNEL_DEGREES:
        out[f"polynomial.kernel_us.d{d}"] = _per_call(kernel, monics(fp, d, 40)) * 1e6
    out["polynomial.kernel_us.ext5_d3"] = _per_call(kernel, monics(f55, 3, 12)) * 1e6
    return out
