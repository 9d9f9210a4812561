"""Seeded workloads for the ffintervals benchmark, and the checks on their outputs.

A workload is a list of operations.  An operation is one public call into
ffintervals plus the JSON rendering a CLI user would receive.  Each one knows
how many logical interval members it covers (q times the number of shifts,
fixed by the inputs) and how to check its output against oracles that do not
use the cycle-type kernel: discriminant parity (Stickelberger) computed here
with an independent resultant, cross-checks between reports of one interval,
and `factor`/`is_irreducible` on a seeded sample of members.

Calls go through module attributes (``interval_lab.class_sum``) at call time,
so the traced run sees them when it replaces those bindings.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from ffintervals import cli, interval_lab, morse_galois, polynomial, reports
from ffintervals.class_functions import make_builtin
from ffintervals.finite_field import make_extension, make_prime_field
from ffintervals.polyparse import format_poly
from ffintervals.tolerances import load_tolerances

# The kernel's cost grows with the bit length and the number of one bits of q
# (x^q by square-and-multiply), so each window holds primes that agree in both:
# the work of one run is then nearly the same for every seed.
SHARED_PRIMES = (967, 971, 997, 1009)
FALLBACK_PRIMES = (1741, 1747, 1753)
FALLBACK_DEGREES = (6, 7, 8) * 2
FALLBACK_WORKERS = 2
SAMPLED_MEMBERS = 3
SUITE_CHECKS = 16
# large_q_demo at l = 5 alone costs about 13 CPU seconds, which would leave one
# pass per run; at l = 4 a pass of the large-q workload takes about 4 seconds
DEMO_L = 4


@dataclass
class Op:
    """One public call; ``check`` returns one bool per sub-operation."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]
    members: Callable[[object], int]


@dataclass
class Workload:
    inputs: dict
    ops: list
    warm: Callable[[], None]


def make_workload(name: str, seed: int) -> Workload:
    """Generate the inputs of one workload from its seed."""
    return _MAKERS[name](seed)


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"perfbench/{name}/{seed}")


def _render(rep, to_dict):
    reports.to_json(to_dict(rep))
    return rep


# ---------------------------------------------------------------------------
# independent oracles


def _pmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def resultant_mod_p(a, b, p: int) -> int:
    """Res(a, b) over F_p by the Euclidean algorithm (ascending, trimmed lists)."""
    res = 1
    while True:
        m, n = len(a) - 1, len(b) - 1
        if n == 0:
            return res * pow(b[0], m, p) % p
        r = _pmod(a, b, p)
        if not r:
            return 0
        if m * n % 2:
            res = -res
        res = res * pow(b[-1], m - (len(r) - 1), p) % p
        a, b = b, r


def mobius_by_parity(coeffs, p: int) -> int:
    """mu of a monic g over F_p (p > deg g) from the class of disc(g) mod squares."""
    d = len(coeffs) - 1
    deriv = [i * coeffs[i] % p for i in range(1, d + 1)]
    disc = resultant_mod_p(list(coeffs), deriv, p)
    if d * (d - 1) // 2 % 2:
        disc = -disc % p
    if disc == 0:
        return 0
    chi = 1 if pow(disc, (p - 1) // 2, p) == 1 else -1
    return chi if d % 2 == 0 else -chi


def interval_mobius(f) -> list:
    """[mu(f + a) for a in F_p], by discriminant parity."""
    p = f.ctx.p
    base = list(f.raw_coeffs)
    out = []
    for a in range(p):
        g = list(base)
        g[0] = (base[0] + a) % p
        out.append(mobius_by_parity(g, p))
    return out


def ext_cubic_mobius(ctx, f) -> dict:
    """{raw a: mu(f + a)} for a monic cubic over F_q, from its discriminant."""
    e0, c, b = f.raw_coeffs[0], f.raw_coeffs[1], f.raw_coeffs[2]
    mul, add, sub, k = ctx.mul, ctx.add, ctx.sub, ctx.scalar_mul
    squares = {mul(r, r) for r in (ctx.raw_from_index(i) for i in range(ctx.q))}
    bb, cc = mul(b, b), mul(c, c)
    fixed = sub(mul(bb, cc), k(4, mul(cc, c)))
    b3, bc = mul(bb, b), mul(b, c)
    out = {}
    for idx in range(ctx.q):
        a = ctx.raw_from_index(idx)
        e = add(e0, a)
        # disc(x^3 + b x^2 + c x + e) = b^2c^2 - 4c^3 - 4b^3e - 27e^2 + 18bce
        disc = sub(fixed, k(4, mul(b3, e)))
        disc = sub(disc, k(27, mul(e, e)))
        disc = add(disc, k(18, mul(bc, e)))
        out[a] = 0 if ctx.is_zero(disc) else (-1 if disc in squares else 1)
    return out


def sample_agrees(f, rng: random.Random) -> bool:
    """The kernel's cycle type of sampled members agrees with factor/is_irreducible."""
    ctx, d = f.ctx, f.degree
    for _ in range(SAMPLED_MEMBERS):
        g = f.shift_const(ctx.element_from_index(rng.randrange(ctx.q)))
        pattern = polynomial.cycle_pattern_or_none(ctx, list(g.raw_coeffs))
        fac = polynomial.factor(g)
        if any(mult > 1 for _, mult in fac.factors):
            if pattern is not None:
                return False
            continue
        degrees = tuple(sorted((poly.degree for poly, _ in fac.factors), reverse=True))
        if pattern != degrees or polynomial.is_irreducible(g) != (pattern == (d,)):
            return False
    return True


def _counts_total(rep) -> int:
    return sum(rep.cycle_type_counts.values())


def _warm_kernel(ctx, centers, members: int):
    def warm():
        for f in centers:
            for idx in range(members):
                g = f.shift_const(ctx.element_from_index(idx))
                polynomial.cycle_pattern_or_none(ctx, list(g.raw_coeffs))

    return warm


def _mu_sum_op(name, f, workers, mobius_sum, sample_rng) -> Op:
    """A Möbius class_sum over I(f), checked against an independent parity sum."""
    ctx = f.ctx
    mu = make_builtin("moebius", f.degree)
    want = functools.cache(mobius_sum)
    sampled = functools.cache(lambda: sample_agrees(f, sample_rng))

    def run():
        return _render(interval_lab.class_sum(ctx, f, mu, workers), reports.experiment_to_dict)

    def check(rep, _outputs):
        return [_counts_total(rep) == ctx.q and rep.raw_sum == want() and sampled()]

    return Op(name, run, check, lambda _o: ctx.q)


# ---------------------------------------------------------------------------
# suite-quick: the acceptance battery as users run it


def _logical_members(node) -> int:
    """q x shifts summed over every interval experiment in a report bundle."""
    if isinstance(node, list):
        return sum(_logical_members(v) for v in node)
    if not isinstance(node, dict):
        return 0
    kind = node.get("kind")
    if kind in ("class_sum", "correlation_sum", "chebotarev"):
        return int(node["params"]["q"]) * len(node["params"].get("shifts", ["0"]))
    total = sum(_logical_members(v) for v in node.values())
    if "product_sum" in node:  # a large-q step: the Chowla product over p shifts
        total += node["q"] * len(node["shifts"])
    return total


def make_suite_quick(seed: int) -> Workload:
    suite_seed = _rng(seed, "suite-quick").randrange(10**6)
    argv = ["paper-suite", "--quick", "--seed", str(suite_seed), "--workers", "1"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run_command(argv)
        return code, json.loads(out.getvalue())

    def check(output, _outputs):
        code, doc = output
        checks = doc.get("checks", [])
        whole = code == 0 and doc.get("pass") is True and len(checks) == SUITE_CHECKS
        return [whole and c.get("pass") is True for c in checks] or [False]

    def members(output):
        # check 16 reruns the whole battery at another worker count
        return 2 * _logical_members(output[1]["reports"])

    def warm():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_command(["gauss", "--p", "3", "--d", "2"])
        load_tolerances()

    op = Op("paper-suite", run, check, members)
    return Workload({"argv": argv}, [op], warm)


# ---------------------------------------------------------------------------
# sweep-shared: the paper-scale pattern of checks 4, 5, 7, 9 and 13 per center


def _morse_center(ctx, d, rng):
    while True:
        f = polynomial.random_monic(ctx, d, rng)
        if morse_galois.is_morse(f)[0]:
            return f


def _center_ops(ctx, label, f, sample_rng):
    d = f.degree
    prime, mu = make_builtin("prime", d), make_builtin("moebius", d)
    d2 = make_builtin("divisor", d, r=2)
    zero, one = ctx(0), ctx(1)
    chowla_spec = interval_lab.IntervalSpec(ctx, f, (zero, one), (mu, mu))
    q = ctx.q
    signs = functools.cache(lambda: interval_mobius(f))
    sampled = functools.cache(lambda: sample_agrees(f, sample_rng))
    cheb_name = f"{label}/cheb"

    def counts_of(outputs):
        return outputs[cheb_name].counts

    def check_prime(rep, outputs):
        cheb = counts_of(outputs)
        return [
            _counts_total(rep) == q
            and rep.cycle_type_counts == cheb
            and rep.raw_sum == cheb.get(((d,),), 0)
            and sampled()
        ]

    def check_mu(rep, _outputs):
        return [_counts_total(rep) == q and rep.raw_sum == sum(signs())]

    def check_d2(rep, outputs):
        want = sum(n * 2 ** len(key[0]) for key, n in rep.cycle_type_counts.items() if key[0])
        return [
            _counts_total(rep) == q and rep.cycle_type_counts == counts_of(outputs)
            and rep.raw_sum == want
        ]

    def check_chowla(rep, _outputs):
        s = signs()
        want = sum(s[a] * s[(a + 1) % q] for a in range(q))
        return [_counts_total(rep) == q and rep.raw_sum == want]

    def check_cheb(rep, _outputs):
        zeros = signs().count(0)
        return [
            sum(rep.counts.values()) == q
            and rep.nonsquarefree_count == zeros
            and rep.squarefree_total == q - zeros
        ]

    def single(phi):
        return lambda: _render(
            interval_lab.class_sum(ctx, f, phi), reports.experiment_to_dict
        )

    return [
        Op(f"{label}/prime", single(prime), check_prime, lambda _o: q),
        Op(f"{label}/mu", single(mu), check_mu, lambda _o: q),
        Op(f"{label}/d2", single(d2), check_d2, lambda _o: q),
        Op(
            f"{label}/chowla",
            lambda: _render(
                interval_lab.correlation_sum(chowla_spec), reports.experiment_to_dict
            ),
            check_chowla,
            lambda _o: 2 * q,
        ),
        Op(
            cheb_name,
            lambda: _render(
                interval_lab.chebotarev_empirical(ctx, f, (zero,)),
                reports.chebotarev_to_dict,
            ),
            check_cheb,
            lambda _o: q,
        ),
    ]


def make_sweep_shared(seed: int, primes=SHARED_PRIMES) -> Workload:
    rng = _rng(seed, "sweep-shared")
    p = rng.choice(primes)
    ctx = make_prime_field(p)
    centers = {f"morse-d{d}": _morse_center(ctx, d, rng) for d in (3, 4, 5)}
    centers["nonmorse-d4"] = morse_galois.make_non_morse(ctx, 4, rng)
    ops = []
    for label, f in centers.items():
        ops.extend(_center_ops(ctx, label, f, random.Random(f"{seed}/{label}/sample")))
    inputs = {"p": p, "workers": 1, "centers": {k: format_poly(f) for k, f in centers.items()}}
    return Workload(inputs, ops, _warm_kernel(ctx, centers.values(), 4))


# ---------------------------------------------------------------------------
# sweep-fallback: distinct degree 6-8 intervals, each swept once, through the pool


def make_sweep_fallback(seed: int) -> Workload:
    rng = _rng(seed, "sweep-fallback")
    p = rng.choice(FALLBACK_PRIMES)
    ctx = make_prime_field(p)
    centers, seen = [], set()
    for d in FALLBACK_DEGREES:
        while True:
            f = polynomial.random_monic(ctx, d, rng)
            if f.raw_coeffs[1:] not in seen:  # distinct intervals: no member repeats
                seen.add(f.raw_coeffs[1:])
                centers.append(f)
                break
    ops = [
        _mu_sum_op(f"c{i}-d{f.degree}/mu", f, FALLBACK_WORKERS,
                   lambda f=f: sum(interval_mobius(f)), random.Random(f"{seed}/{i}/sample"))
        for i, f in enumerate(centers)
    ]
    inputs = {"p": p, "workers": FALLBACK_WORKERS, "centers": [format_poly(f) for f in centers]}
    return Workload(inputs, ops, _warm_kernel(ctx, centers, 2))


# ---------------------------------------------------------------------------
# large-q: the fixed-characteristic demo plus one extension-field class sum


def make_large_q(seed: int) -> Workload:
    rng = _rng(seed, "large-q")
    # the demo's own F_{5^4}: the cost of a multiplication depends on the modulus
    ctx = make_extension(make_prime_field(5), DEMO_L, 0)
    f = polynomial.random_monic(ctx, 3, rng)
    c_single = load_tolerances()["large_q_single"]

    def check_demo(demo, _outputs):
        results = []
        for st in demo.steps:
            single = st.single_report
            ok = (
                st.multiset_multiplicity_two
                and _counts_total(single) == st.q
                and st.product_zero_count + st.product_plus + st.product_minus == st.q
                and st.product_plus - st.product_minus == st.product_sum
            )
            if st.l >= 4:
                ok = ok and abs(float(single.raw_sum)) <= c_single * math.sqrt(st.q)
                ok = ok and abs(st.product_sum) >= st.q / 2
            results.append(ok)
        return results or [False]

    ops = [
        Op(
            "demo",
            lambda: _render(interval_lab.large_q_demo(5, (DEMO_L,)), reports.demo_to_dict),
            check_demo,
            lambda demo: sum(st.q * (1 + len(st.shifts)) for st in demo.steps),
        ),
        _mu_sum_op("ext-cubic/mu", f, 1, lambda: sum(ext_cubic_mobius(ctx, f).values()),
                   random.Random(f"{seed}/large-q/sample")),
    ]
    inputs = {
        "demo": {"p": 5, "l": [DEMO_L]},
        "cubic": {"q": ctx.q, "modulus": list(ctx.modulus), "f": format_poly(f)},
    }
    return Workload(inputs, ops, _warm_kernel(ctx, [f], 2))


_MAKERS = {
    "suite-quick": make_suite_quick,
    "sweep-shared": make_sweep_shared,
    "sweep-fallback": make_sweep_fallback,
    "large-q": make_large_q,
}
WORKLOADS = tuple(_MAKERS)
