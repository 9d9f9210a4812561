"""Exact experiments over very short intervals {f + a : a in F_q}.

Every experiment depends on the members only through their cycle types, and
f + h + a runs over I(f) for every shift h.  One routine, _member_types,
names or factors members, from inputs that the caller of _blocks computes
once per interval at any worker count (_ddf_inputs).  For odd q these start
from the D(t) = disc(center + t) of the center, I(f)'s member with constant
term 0, which disc_in_t builds in every field, p <= deg f included: every
D(c), a zero of which marks a member non-squarefree; for a table and for a
standalone sweep of degree >= 6 the fiber pass, the roots of every member
in any field, and over F_p a table of square roots and, for degree 6-8,
every member's n_2 from one pass over F_{p^2} on the unscaled chirp sums
of the center's Hasse derivatives (_quadratic_counts); and, unless every
member is named, x^e mod every member (e the top bits of p) from one
bivariate power.  By Stickelberger the root count, n_2 where
known, and the square class of D(c) name every member for deg f <= 5, and
over F_p for deg f <= 7, and all but (5,3) and (4,4) for deg f = 8
(_named).  The kernel factors the others from their start of x^p,
stopping early on D(c)'s square class, and over F_p for p > deg f from
their roots (and n_2 where known), whose Frobenius matrix Q gives n_2 and
n_3 by tr(Q^2) and tr(Q^3).  A standalone sweep of degree <= 5 takes no
fiber pass and sends every member to the kernel: naming them would give
sweeps outside a scope a transient table, which waits on a benchmark
whose peak memory does not grow with its number of passes.
Where the kernel runs (the x^p columns are built), work is split into
contiguous index ranges, one per worker: the caller works the first, and
a child it forks works each other on the inputs it inherits and sends its
result back through a pipe; every child is reaped before the sweep
returns (see _blocks).  Where every member is named, a dict lookup each,
the caller works the whole interval and forks nothing.  Blocks are joined
in index order or by integer sums, so reports are identical for any
worker count.  The Morse label of a sum travels with its counts, read off
the sweep's D(t).

Inside run_scope() the first sweep of an interval fills one table, the cycle
type of the member with constant term c at index c, stored with the label,
and every later sweep of I(f) in the scope reads it with no kernel call and
no fork.  A battery, moebius_battery and each large_q_demo step run in a
fresh scope, so the demo's p-shift Möbius product is a reduction over the
table its single sum built; a standalone call outside any scope evaluates
all q * shifts members.  All sums are exact rationals; floats appear only
in the normalized error and timing fields.

The Morse genericity scan, for p > d, reads the non-Morse slopes s of
f + s*x off the roots of one polynomial E(s), the discriminant of
disc(f + s*x + t) in t, interpolated from d(d - 2) + 1 slopes; it tests
each slope only where E does not apply (see morse_density_scan).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, chain, product

from .class_functions import ClassFunction, CycleType, make_builtin, mean_constant, partitions_of
from .errors import (
    DegreeMismatch,
    DichotomyViolation,
    NoSuitableS,
    OutOfRange,
    TooLarge,
    WorkerFailed,
)
from .finite_field import (
    FieldCtx,
    FieldElement,
    _digits,
    _chirp_plan,
    _ichirp_sums,
    _ieval_all,
    _small_prime_factors,
    make_extension,
    make_prime_field,
)
from .morse_galois import (
    NO_CANCELLATION,
    bad_shift_check,
    classify_mu_cancellation,
    critical_data,  # unused here; perfbench's tracer wraps interval_lab.critical_data
    is_morse,
    predicted_no_cancellation_sum,
)
from .polynomial import (
    Poly,
    _ext_frobenius_columns,
    _frobenius_columns,
    _lagrange,
    _parity_table,
    _pattern_or_none_generic,
    _pattern_or_none_int,
    _reval,
    derivative,
    disc_in_t,
    discriminant,
    is_squarefree,
    roots_in_field,
)

_GAUSS_GUARD = 10**7
_SCAN_GUARD = 10**6


# ---------------------------------------------------------------------------
# sweep kernels and the run scope's interval tables

_tables = None  # the run scope's memo: interval key -> (cycle-type table, Morse label); None outside


@contextmanager
def run_scope():
    """Let the sweeps inside share one cycle-type table per interval.

    Starts with an empty memo of tables, each stored with its interval's
    Morse label, and restores the outer one on exit, so a run never reads
    the tables of the run around it.
    """
    global _tables
    outer, _tables = _tables, {}
    try:
        yield
    finally:
        _tables = outer


def _key(ctx, f: Poly):
    """The memo key of I(f): the field and every coefficient of f but the constant."""
    return (ctx.p, ctx.l, ctx.modulus, f.raw_coeffs[1:])


def _center(ctx, f: Poly):
    """(center, D, morse): I(f)'s member with constant term 0, D(t) = disc(center + t), the label.

    D is None for p = 2, where every element is a square, and so is morse;
    otherwise f, every f + c and every shift share one D, which is 0 when
    f' = 0, and f is Morse exactly when deg D = d - 1 and D is squarefree.
    """
    center = (0,) + f.raw_coeffs[1:]
    if ctx.p == 2:
        return center, None, None
    dpoly = disc_in_t(Poly.from_raw(ctx, center))
    return center, dpoly.raw_coeffs, dpoly.degree == f.degree - 1 and is_squarefree(dpoly)


def _ddf_inputs(ctx, center, d_raws, fiber):
    """(discs, cols, roots): _member_types' inputs, computed once per interval by the caller of _blocks.

    Given D(t) (odd q), discs[c] = D(c) for every c, and with fiber the
    fiber pass gives roots = (xs, starts, twos, squares): x is a root of the
    member with constant term -center(x), so that member has the roots
    xs[starts[c]:starts[c + 1]], in any field.  Over F_p, squares is
    _square_roots(p), and for 6 <= d <= 8 twos[c] is the member's n_2
    (_quadratic_counts, on the unscaled chirp sums of the Hasse derivatives
    from the same chirp call); else None.  cols are _frobenius_columns over
    F_p and _ext_frobenius_columns over F_{p^l}, None where every member is
    named: for d = 2 given D(t), d <= 5 given roots, d <= 7 given twos.  The
    callers fork only where cols are built.
    """
    d, p, q = len(center) - 1, ctx.p, ctx.q
    discs = roots = None
    if d_raws is not None:  # at every c: one chirp product each over F_p, Horner over F_{p^l}
        n2_pass = fiber and ctx.l == 1 and 6 <= d <= 8
        polys = [d_raws, center] if fiber else [d_raws]
        if n2_pass:  # the Hasse derivatives f_k(u) = sum_j C(j, k) center_j u^(j - k), f_7 = 0 at d = 6
            polys += [[math.comb(j, k) * center[j] % p for j in range(k, d + 1)] for k in range(1, max(d, 7) + 1)]
        if ctx.l == 1:
            sums = _ichirp_sums(p, polys)
            discs, *values = _ieval_all(p, polys[:2], sums)
        else:
            discs, *values = [array("q", [_reval(ctx, a, c) for c in range(q)]) for a in polys]
        if fiber:
            squares = _square_roots(p) if ctx.l == 1 else None
            twos = _quadratic_counts(p, center, sums[1:], squares) if n2_pass else None
            roots = *_fibers(list(map(ctx.neg, values[0])), q), twos, squares
        if d == 2 or fiber and (d <= 5 or n2_pass and d <= 7):
            return discs, None, roots
    return discs, _frobenius_columns(p, center) if ctx.l == 1 else _ext_frobenius_columns(ctx, center), roots


def _fibers(hits, q):
    """(xs, starts), 4-byte arrays: xs[starts[v]:starts[v + 1]] are the x in [0, q) with hits[x] = v."""
    starts = accumulate(map(Counter(hits).__getitem__, range(q)), initial=0)
    return array("i", sorted(range(q), key=hits.__getitem__)), array("i", starts)


def _square_roots(p):
    """A square root of each element of F_p (odd p) that is a square, -1 at each nonsquare; 4 bytes each."""
    roots = array("i", [-1]) * p
    for y in range((p + 1) // 2):
        roots[y * y % p] = y
    return roots


def _quadratic_counts(p, center, sums, roots):
    """n_2 of each member of I(center) over F_p (odd p, deg 6..8), by constant term.

    sums[k] are the unreduced chirp sums g^C(j,2) f_k(g^j) of the center's
    Hasse derivatives f_k, f_0 the center, and f_k(0) = center[k]; roots is
    _square_roots(p), n its least nonsquare.  With x = u + v*s, s^2 = n,
    v != 0 and z = n v^2, center(x) = A(u, z) + v*s*B(u, z), where
    A = sum_i f_2i(u) z^i and B = sum_i f_2i+1(u) z^i: so each root z of B(u, .)
    that is a nonzero nonsquare is one factor (x - u)^2 - z of the member
    with constant term -A(u, z).  The factor g^C(j,2) moves no root, so A is
    scaled back at a root only.  z^i B(u, z) is made a cubic, depressed to
    y^3 - 3 rho y + Q, and y = sigma t with sigma^2 = rho or rho / n: t lies
    in the fiber over -Q / sigma^3 of t^3 - 3t or t^3 - 3nt (Dickson), or
    of t^3 when rho = 0.
    """
    n, twos = roots.index(-1), bytearray(p)
    maps, inverse = _dickson_fibers(p, n) if p > 3 else (None, None)
    third, scales = (inverse[3], (1, 1, inverse[n])) if p > 3 else (None, None)
    bs = chain([(*center, 0)[1:8:2]], zip(*sums[1::2]))  # B's coefficients, f_7 = 0 at d = 6
    as_ = chain([center[::2][::-1]], zip(*sums[::2][::-1]))  # A's, highest first
    for scale, (b0, b1, b2, b3), a in zip(chain((1,), _chirp_plan(p)[1]), bs, as_):
        b0, b1, b2, b3 = b0 % p, b1 % p, b2 % p, b3 % p
        if p == 3 or not (b0 or b1 or b2 or b3):  # F_3 cannot depress a cubic; B(u, .) = 0 has every root
            sigma, s, ts = 1, 0, [z for z in range(p) if not (b0 + z * (b1 + z * (b2 + z * b3))) % p]
        else:
            while not b3:  # z^i B(u, z): a cubic, with B's nonzero roots
                b0, b1, b2, b3 = 0, b0, b1, b2
            inv = inverse[b3]
            s, a1 = b2 * inv * third % p, b1 * inv % p
            rho, w = (s * s - a1 * third) % p, (a1 * s - 2 * s * s * s - b0 * inv) % p  # w = -Q
            e = 0 if not rho else 1 if roots[rho] >= 0 else 2  # t^3, t^3 - 3t or t^3 - 3nt
            sigma, (xs, starts) = roots[rho * scales[e] % p] or 1, maps[e]
            w = w * inverse[sigma * sigma * sigma % p] % p
            lo, hi = starts[w], starts[w + 1]
            if lo == hi:
                continue
            ts = xs[lo:hi]
        for t in ts:
            z = (sigma * t - s) % p
            if roots[z] < 0:  # a nonzero nonsquare: one quadratic factor
                v = 0
                for c in a:
                    v = v * z + c
                twos[-v * scale % p] += 1
    return twos


@lru_cache(maxsize=1)
def _dickson_fibers(p, n):
    """(fibers of t^3, t^3 - 3t and t^3 - 3nt (_fibers), inverses) over F_p, 28p bytes, for the last p."""
    inverse = array("i", [0, *(pow(t, -1, p) for t in range(1, p))])
    return [_fibers([(t * t - 3 * e) * t % p for t in range(p)], p) for e in (0, 1, n)], inverse


@cache
def _named(d, twos):
    """(root count k, n_2, D(c) is a square) -> the cycle type of S_d the triple names.

    A squarefree member of degree d over odd F_q has k parts 1, n_2 parts 2
    given twos (n_2 is None otherwise), and a rest in parts > 2 (> 1 without
    twos) whose number of parts has the parity the square class of its
    discriminant fixes (Stickelberger): one of _parity_table(d - k - 2 n_2, 2)
    or _parity_table(d - k, 1).  The triple names the type where that parity
    holds one: all for d <= 5, with twos for d <= 7, and at d = 8 all but (5,3), (4,4).
    """
    rests = [(k, j, odd, r) for k in range(d + 1) for j in range(d // 2 + 1 if twos else 1)
             for odd, r in enumerate(_parity_table(d - k - 2 * j, 2 if twos else 1))]
    return {(k, j if twos else None, (d - k - j - odd) % 2 == 0): r[0] + (2,) * j + (1,) * k
            for k, j, odd, r in rests if len(r) == 1}


def _member_types(ctx, center, discs, cols, roots, consts):
    """Cycle type (None: not squarefree) of each member of I(center), by constant term.

    discs, cols and roots come from _ddf_inputs.  Given roots, a member
    with D(c) = 0 is None, and one whose root count, n_2 where known and
    square class of D(c) (over F_p from the square roots) _named names gets
    that type, with no kernel call.  Every other member goes through the
    kernel, with D(c), its start of x^p from cols, and over F_p for p > d
    its roots and twos[c], so its DDF starts at degree 2 on the cofactor,
    where _ddf's tr(Q^2) and tr(Q^3) are exact, and skips tr(Q^2) given n_2.
    """
    kernel, field = (_pattern_or_none_int, ctx.p) if ctx.l == 1 else (_pattern_or_none_generic, ctx)
    d = len(center) - 1
    xs, starts, twos, squares = roots or (None,) * 4
    named = None if roots is None else _named(d, twos is not None)
    fed = roots is not None and ctx.l == 1 and ctx.p > d
    is_square = ctx.is_square if squares is None else (lambda c: squares[c] >= 0)
    for c in consts:
        disc = None if discs is None else discs[c]
        if named is not None:
            if not disc:
                yield None
                continue
            t = named.get((starts[c + 1] - starts[c], None if twos is None else twos[c], is_square(disc)))
            if t is not None:
                yield t
                continue
        g = list(center)
        g[0] = c
        args = [field, g, disc]
        if cols is not None:
            args.append([col[c] for col in cols])
        if fed:  # only with cols: a member the fiber pass does not name has d - k >= 6
            args += xs[starts[c]:starts[c + 1]], None if twos is None else twos[c]
        yield kernel(*args)


def _sweep_block(ctx, center, discs, cols, roots, offsets, lo, hi):
    """Joint cycle-type counts of the members at constant terms o + a, a in [lo, hi).

    offsets are f_0 + h for the shifts h, so the k-tuple at a is the cycle
    types of f + h + a.
    """
    add = ctx.add
    consts = (add(o, a) for a in range(lo, hi) for o in offsets)
    types = _member_types(ctx, center, discs, cols, roots, consts)
    return Counter(zip(*[types] * len(offsets)))


def _ddf_block(ctx, center, discs, cols, roots, lo, hi):
    """Cycle types of the members with constant term c in [lo, hi), in order."""
    return list(_member_types(ctx, center, discs, cols, roots, range(lo, hi)))


def _blocks(block, head, q, workers):
    """block(*head, lo, hi) for [0, q) cut into one block per worker, in order.

    The caller works the first; a child forked for each other block works it
    on the head it inherits and pipes back its result or exception, pickled.
    Every child is reaped before this returns or raises, and killed first if
    the caller raised.  Without os.fork the caller works every block.  The
    callers pass workers = 1 where _ddf_inputs built no x^p columns: every
    member is then named, and a fork would cost more than it splits.
    """
    bounds = [q * i // workers for i in range(workers + 1)]
    first, *rest = [head + (lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if not hasattr(os, "fork"):
        return [block(*args) for args in (first, *rest)]
    children = []  # (pid, read end of its pipe) of every child not yet reaped, in block order
    try:
        for args in rest:
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                _child(block, args, r, w)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = [block(*first)]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code or not data:
                raise WorkerFailed(f"sweep child {pid} exited with code {code} and no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise


def _child(block, args, r, w):
    """A forked child's whole life: work one block, pipe back (ok, result or exception), exit."""
    code = 1  # 0 only after a complete write
    try:
        os.close(r)  # so that the write fails once the caller is gone
        try:
            payload = True, block(*args)
        except BaseException as exc:
            payload = False, exc
        with os.fdopen(w, "wb") as pipe:
            pipe.write(pickle.dumps(payload))
        code = 0
    finally:
        os._exit(code)  # never back into the caller's frames


def _interval_table(ctx, f: Poly, workers: int):
    """(table, morse): the run scope's table of I(f), built by the interval's first sweep.

    Entry c is the cycle type of the member with constant term c, or None;
    f and each f + c key and build the same table.  morse is _center's
    label, None for p = 2.
    """
    key = _key(ctx, f)
    entry = _tables.get(key)
    if entry is None:
        center, d_raws, morse = _center(ctx, f)
        discs, cols, roots = _ddf_inputs(ctx, center, d_raws, True)
        blocks = _blocks(_ddf_block, (ctx, center, discs, cols, roots), ctx.q, 1 if cols is None else workers)
        interned = {}  # one tuple per cycle type, however many members share it
        entry = _tables[key] = [interned.setdefault(t, t) for block in blocks for t in block], morse
    return entry


def _joint_counts(ctx, f: Poly, shifts, workers: int = 1):
    """(counts, morse): aggregate joint cycle-type counts over the whole interval, and is f Morse.

    The k-tuple at a holds the cycle types of f + h + a, the members of I(f)
    with constant terms f_0 + h + a.  Outside a run scope every block
    evaluates its members, q * shifts of them, with the fiber pass for
    d >= 6 only; inside one the tuples are read from the interval's table,
    which the interval's first sweep in the run builds.  The label is read
    off the sweep's D(t), or the table's, and is is_morse's for p = 2.
    """
    q = ctx.q
    if q * len(shifts) > _GAUSS_GUARD:
        raise TooLarge(f"q * shifts = {q * len(shifts)} members exceed sweep guard")
    add = ctx.add
    offsets = tuple(add(f.raw_coeffs[0], h.raw) for h in shifts)
    if _tables is not None:
        table, morse = _interval_table(ctx, f, workers)
        counts = Counter(tuple([table[add(o, a)] for o in offsets]) for a in range(q))
    else:
        center, d_raws, morse = _center(ctx, f)
        discs, cols, roots = _ddf_inputs(ctx, center, d_raws, f.degree >= 6)
        head = ctx, center, discs, cols, roots, offsets
        counts = Counter()
        for block in _blocks(_sweep_block, head, q, 1 if cols is None else workers):
            counts.update(block)
    return dict(counts), is_morse(f)[0] if morse is None else morse


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class IntervalSpec:
    """One interval experiment: f, distinct shifts, one class function each."""

    ctx: FieldCtx
    f: Poly
    shifts: tuple
    phis: tuple

    def __post_init__(self):
        if self.f.degree < 2 or not self.f.is_monic:
            raise OutOfRange("interval center must be monic of degree >= 2")
        if len(self.shifts) != len(self.phis) or not self.shifts:
            raise OutOfRange("need equally many shifts and class functions")
        if len({h.raw for h in self.shifts}) != len(self.shifts):
            raise OutOfRange("shifts must be distinct")
        for phi in self.phis:
            if phi.d != self.f.degree:
                raise DegreeMismatch(f"phi on S_{phi.d} vs deg(f) = {self.f.degree}")


@dataclass
class ExperimentReport:
    """Raw and predicted sums for one interval experiment."""

    kind: str
    params: dict
    raw_sum: Fraction
    predicted_constant: Fraction
    constant_kind: str
    empirical_constant: Fraction
    main_term: Fraction
    abs_error: Fraction
    normalized_error: float
    cycle_type_counts: dict
    nonsquarefree_count: int
    elapsed: float = 0.0
    worker_count: int = 1
    notes: dict = field(default_factory=dict)


def _params_dict(ctx, f, shifts=None, phis=None):
    from .polyparse import format_poly

    out = {"p": ctx.p, "l": ctx.l, "q": str(ctx.q), "f": format_poly(f)}
    if shifts is not None:
        out["shifts"] = [repr(h) for h in shifts]
    if phis is not None:
        out["phis"] = [phi.name for phi in phis]
    return out


def _finish_report(kind, params, counts, phis, defaults, q, predicted, constant_kind,
                   elapsed, workers, notes=None):
    raw_sum = Fraction(0)
    nonsf = 0
    for key, n in counts.items():
        if any(comp is None for comp in key):
            nonsf += n
        term = Fraction(1)
        for comp, phi, default in zip(key, phis, defaults):
            term *= default if comp is None else phi.table[CycleType(comp)]
        raw_sum += term * n
    main = predicted * q
    abs_err = abs(raw_sum - main)
    return ExperimentReport(
        kind=kind,
        params=params,
        raw_sum=raw_sum,
        predicted_constant=predicted,
        constant_kind=constant_kind,
        empirical_constant=raw_sum / q,
        main_term=main,
        abs_error=abs_err,
        normalized_error=float(abs_err) / math.sqrt(q),
        cycle_type_counts=counts,
        nonsquarefree_count=nonsf,
        elapsed=elapsed,
        worker_count=workers,
        notes=notes or {},
    )


def class_sum(ctx: FieldCtx, f: Poly, phi: ClassFunction, workers: int = 1) -> ExperimentReport:
    """Exact sum of phi over the interval {f + a : a in F_q}.

    The prediction is the S_d mean constant; for non-Morse f it is labeled
    non-generic and the exact empirical constant (raw_sum / q) is reported
    alongside.
    """
    t0 = time.perf_counter()
    spec = IntervalSpec(ctx, f, (ctx(0),), (phi,))
    counts, morse = _joint_counts(ctx, f, spec.shifts, workers)
    return _finish_report(
        "class_sum",
        _params_dict(ctx, f, phis=(phi,)),
        counts,
        (phi,),
        (phi.default_nonsquarefree,),
        ctx.q,
        mean_constant(phi),
        "generic" if morse else "non-generic",
        time.perf_counter() - t0,
        workers,
    )


def correlation_sum(spec: IntervalSpec, workers: int = 1, single_constants=None) -> ExperimentReport:
    """Exact sum of prod_i phi_i(f + h_i + a) over the interval.

    The generic prediction is the product of mean constants (valid for Morse
    f).  For non-Morse f whose shift differences avoid B(f), supplying the
    single-shift empirical constants switches the prediction to their product.
    """
    t0 = time.perf_counter()
    ctx = spec.ctx
    counts, morse = _joint_counts(ctx, spec.f, spec.shifts, workers)
    notes = {}
    predicted = math.prod((mean_constant(phi) for phi in spec.phis), start=Fraction(1))
    constant_kind = "generic" if morse else "non-generic"
    if not morse:
        bad = bad_shift_check(spec.f, spec.shifts) if len(spec.shifts) > 1 else False
        notes["bad_shifts"] = bad
        if not bad and single_constants is not None:
            predicted = math.prod(map(Fraction, single_constants), start=Fraction(1))
            constant_kind = "product-of-singles"
    return _finish_report(
        "correlation_sum",
        _params_dict(ctx, spec.f, spec.shifts, spec.phis),
        counts,
        spec.phis,
        tuple(phi.default_nonsquarefree for phi in spec.phis),
        ctx.q,
        predicted,
        constant_kind,
        time.perf_counter() - t0,
        workers,
        notes,
    )


# ---------------------------------------------------------------------------
# Chebotarev statistics


@dataclass
class ChebotarevReport:
    params: dict
    counts: dict
    squarefree_total: int
    nonsquarefree_count: int
    frequencies: dict  # key -> Fraction
    predicted: dict  # key -> Fraction (uniform S_d product)
    max_deviation: float
    tv_distance: float
    elapsed: float = 0.0
    worker_count: int = 1


def chebotarev_empirical(ctx, f, shifts, workers: int = 1) -> ChebotarevReport:
    """Joint cycle-type frequencies versus the uniform S_d product prediction."""
    t0 = time.perf_counter()
    shifts = tuple(h if isinstance(h, FieldElement) else ctx(h) for h in shifts)
    mu = make_builtin("moebius", f.degree)
    spec = IntervalSpec(ctx, f, shifts, (mu,) * len(shifts))
    counts = _joint_counts(ctx, f, spec.shifts, workers)[0]
    clean = {k: n for k, n in counts.items() if all(c is not None for c in k)}
    total = sum(clean.values())
    nonsf = ctx.q - total
    freqs = {k: Fraction(n, total) for k, n in clean.items()}
    predicted = {  # a class of S_d has density 1 / its centralizer order
        tuple(ct.parts for ct in cts): Fraction(1, math.prod(ct.centralizer_order() for ct in cts))
        for cts in product(partitions_of(f.degree), repeat=len(shifts))
    }
    tv = sum(abs(freqs.get(k, Fraction(0)) - w) for k, w in predicted.items())
    tv += sum(v for k, v in freqs.items() if k not in predicted)
    return ChebotarevReport(
        params=_params_dict(ctx, f, shifts),
        counts=counts,
        squarefree_total=total,
        nonsquarefree_count=nonsf,
        frequencies=freqs,
        predicted=predicted,
        max_deviation=max(float(abs(freqs.get(k, 0) - w)) for k, w in predicted.items()),
        tv_distance=float(tv) / 2.0,
        elapsed=time.perf_counter() - t0,
        worker_count=workers,
    )


# ---------------------------------------------------------------------------
# censuses


@dataclass
class CensusReport:
    params: dict
    q: int
    all_squarefree_count: int
    bad_count: int
    bad_bound: int
    bad_a: tuple
    elapsed: float = 0.0


def squarefree_census(ctx, f, shifts) -> CensusReport:
    """Count a for which every f + h_i + a is squarefree, exactly.

    Non-squarefree members correspond to roots of D(t) = disc(f + t) shifted
    by each h_i, so the census needs no sweep; the complement is at most
    k * (d - 1) unless f' = 0, where D = 0 and every a is bad.  disc_in_t
    builds D in every field.
    """
    t0 = time.perf_counter()
    shifts = tuple(h if isinstance(h, FieldElement) else ctx(h) for h in shifts)
    if f.degree < 2 or not f.is_monic:
        raise OutOfRange("census needs a monic polynomial of degree >= 2")
    if len({h.raw for h in shifts}) != len(shifts):
        raise OutOfRange("shifts must be distinct")
    dpoly = disc_in_t(f)
    every = range(ctx.q) if dpoly.is_zero else ()  # f' = 0: D = 0, no member is squarefree
    roots = [r.raw for r in roots_in_field(dpoly)] if dpoly.degree >= 1 else every
    bad = {ctx.sub(rho, h.raw) for h in shifts for rho in roots}
    bad_sorted = tuple(FieldElement(ctx, r) for r in sorted(bad))
    k, d = len(shifts), f.degree
    return CensusReport(
        params=_params_dict(ctx, f, shifts),
        q=ctx.q,
        all_squarefree_count=ctx.q - len(bad),
        bad_count=len(bad),
        bad_bound=k * (d - 1),
        bad_a=bad_sorted,
        elapsed=time.perf_counter() - t0,
    )


def gauss_census(p: int, d: int):
    """(enumerated irreducible count, Gauss formula value) for monic degree d."""
    if d < 1:
        raise OutOfRange(f"degree must be >= 1, got {d}")
    if p**d > _GAUSS_GUARD:
        raise TooLarge(f"p^d = {p**d} exceeds enumeration guard")
    ctx = make_prime_field(p)
    count = sum(_pattern_or_none_int(p, _digits(p, d, idx) + [1]) == (d,) for idx in range(p**d))
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            primes = _small_prime_factors(d // e)  # Moebius of d/e, from its primes
            if math.prod(primes) == d // e:
                total += (-1) ** len(primes) * p**e
    assert total % d == 0
    return count, total // d


# ---------------------------------------------------------------------------
# Morse genericity scan


@dataclass
class MorseScanReport:
    params: dict
    q: int
    bad_count: int
    bad_s: tuple
    warnings: tuple
    elapsed: float = 0.0


def morse_density_scan(ctx, f) -> MorseScanReport:
    """Count s in F_q for which f + s*x fails to be Morse.

    For p > d, f_s = f + s*x is Morse exactly when D_s(t) = disc(f_s + t) is
    squarefree (see is_morse).  D_s has degree d - 1 in t and a leading
    coefficient that does not depend on s, so the bad s are the roots in
    F_q of E(s) = disc_t(D_s / lc), and every s is bad when E = 0.
    deg E <= d(d - 2): disc_x is isobaric of weight d(d - 1), and s and t
    enter only the coefficients of weight d - 1 and d, so the t^k
    coefficient of D_s has degree at most d(d - 1 - k)/(d - 1) in s; disc_t
    is isobaric of weight (d - 1)(d - 2) in those coefficients, whose weights
    are d - 1 - k.  So E is interpolated from the nodes s = 0..d(d - 2),
    each one disc_in_t and one discriminant of degree d - 1, and the scan
    costs no more as q grows, apart from root finding.

    For p <= d, or q <= d(d - 2) + 1 where the nodes do not fit, the scan
    runs is_morse for each s; that loop is also the E route's test oracle.
    Hypothesis violations (p | 2d or f'' = 0) are reported in ``warnings``
    rather than aborting the scan.
    """
    t0 = time.perf_counter()
    if f.degree < 2 or not f.is_monic:
        raise OutOfRange("scan needs a monic polynomial of degree >= 2")
    if ctx.q > _SCAN_GUARD:
        raise TooLarge("scan guard exceeded")
    warnings = []
    if math.gcd(ctx.q, 2 * f.degree) != 1:
        warnings.append("gcd(q, 2d) != 1: genericity proposition hypothesis fails")
    fpp = derivative(derivative(f))
    if fpp.is_zero:
        warnings.append("f'' = 0: genericity proposition hypothesis fails")
    d = f.degree
    if ctx.p > d and ctx.q > d * (d - 2) + 1:
        bad = _non_morse_slopes_by_e(ctx, f)
    else:
        bad = _non_morse_slopes_by_loop(ctx, f)
    return MorseScanReport(
        params=_params_dict(ctx, f),
        q=ctx.q,
        bad_count=len(bad),
        bad_s=tuple(FieldElement(ctx, s) for s in bad),
        warnings=tuple(warnings),
        elapsed=time.perf_counter() - t0,
    )


def _slope(ctx, f, s):
    """f + s*x."""
    coeffs = list(f.raw_coeffs)
    coeffs[1] = ctx.add(coeffs[1], s)
    return Poly.from_raw(ctx, coeffs)


def _non_morse_slopes_by_loop(ctx, f):
    """The s (raws, ascending) with f + s*x not Morse, by is_morse at every s."""
    return [s for s in range(ctx.q) if not is_morse(_slope(ctx, f, s))[0]]


def _non_morse_slopes_by_e(ctx, f):
    """The s (raws, ascending) with f + s*x not Morse, as the roots of E (p > d)."""
    d = f.degree
    nodes = range(d * (d - 2) + 1)
    values = [discriminant(disc_in_t(_slope(ctx, f, s)).monic()).raw for s in nodes]
    e = _lagrange(ctx, nodes, values)
    if e.is_zero:
        return list(range(ctx.q))
    return [r.raw for r in roots_in_field(e)] if e.degree >= 1 else []


# ---------------------------------------------------------------------------
# Möbius battery and the fixed-characteristic demo


@dataclass
class MoebiusBatteryResult:
    single: ExperimentReport
    chowla: ExperimentReport
    verdict: object
    branch: str  # "no-cancellation" or "cancellation"


def moebius_battery(ctx, f, shifts, tolerance_c: float = 4.0, workers: int = 1) -> MoebiusBatteryResult:
    """Möbius sum, Chowla product sum, classifier verdict, dichotomy assertion.

    Any odd q will do; the classifier's errors are raised before any sweep.
    The branch is the verdict's.  Raises DichotomyViolation when the two
    sums disagree about which branch of the cancellation dichotomy they sit
    in (at tolerance C * sqrt(q)), and on a no-cancellation verdict unless
    the single sum is exactly the one it predicts.
    """
    verdict = classify_mu_cancellation(f)
    shifts = tuple(h if isinstance(h, FieldElement) else ctx(h) for h in shifts)
    mu = make_builtin("moebius", f.degree)
    with run_scope():  # both sums sweep I(f)
        single = class_sum(ctx, f.shift_const(shifts[0]), mu, workers)
        spec = IntervalSpec(ctx, f, shifts, (mu,) * len(shifts))
        chowla = correlation_sum(spec, workers)
    q = ctx.q
    rt = tolerance_c * math.sqrt(q)
    s1, sk = abs(single.raw_sum), abs(chowla.raw_sum)
    big = s1 >= q - rt and sk >= q - rt
    small = s1 <= rt and sk <= rt
    if not (big or small):
        raise DichotomyViolation(
            f"|single| = {s1}, |chowla| = {sk}, q = {q}, C = {tolerance_c}"
        )
    if verdict.kind != NO_CANCELLATION:
        return MoebiusBatteryResult(single, chowla, verdict, "cancellation")
    if single.raw_sum != predicted_no_cancellation_sum(verdict, f):
        raise DichotomyViolation(f"single = {single.raw_sum}, not the no-cancellation verdict's sum")
    return MoebiusBatteryResult(single, chowla, verdict, "no-cancellation")


def _stickelberger_product_sum(ctx, f, shifts):
    """Exact sum over a of prod_i mu(f + h_i + a), as (sum, zeros, plus, minus).

    A reduction over the joint counts: a non-squarefree member makes the
    product 0, and otherwise it is (-1)^(total number of irreducible factors).
    """
    zeros = plus = minus = 0
    for key, n in _joint_counts(ctx, f, shifts)[0].items():
        if None in key:
            zeros += n
        elif sum(map(len, key)) % 2:
            minus += n
        else:
            plus += n
    return plus - minus, zeros, plus, minus


@dataclass
class LargeQStep:
    l: int
    q: int
    s: str
    beta: str
    shifts: tuple
    multiset_multiplicity_two: bool
    single_report: ExperimentReport
    product_sum: int
    product_zero_count: int
    product_plus: int
    product_minus: int
    sqrt_q: float
    elapsed: float = 0.0


@dataclass
class LargeQDemoReport:
    p: int
    steps: tuple


def large_q_demo(p: int = 5, l_list=(1, 4), workers: int = 1) -> LargeQDemoReport:
    """Fixed characteristic, growing q: single Möbius sums cancel while the
    p-shift Chowla product does not.

    For each q = p^l, picks the first s in F_p^* whose critical points lie in
    F_q (-s/3 a nonzero square), takes f_s = x^3 + s*x and shifts i * beta for
    beta a critical value; the multiset union of the shifted critical values
    then covers an F_p-line with multiplicity two, forcing a constant-sign
    Chowla product.
    """
    if p < 5 or p % 2 == 0:
        raise OutOfRange("demo needs an odd prime p >= 5")
    base = make_prime_field(p)
    steps = []
    for l in l_list:
        if p**l > _SCAN_GUARD:
            raise TooLarge(f"q = {p}^{l} exceeds demo guard")
        t0 = time.perf_counter()
        ctx = make_extension(base, l, 0)
        three_inv = ctx.inv(3)
        targets = ((s, ctx.neg(ctx.mul(s, three_inv))) for s in range(1, p))  # s in F_p^*, -s/3
        s_raw = next((s for s, target in targets if target and ctx.is_square(target)), None)
        if s_raw is None:
            raise NoSuitableS(f"no admissible s in F_{p}^* for q = {ctx.q}")
        f_s = Poly.from_raw(ctx, [0, s_raw, 0, 1])
        # the critical values are the negated roots of D(t) = disc(f_s + t)
        value_raws = sorted(ctx.neg(r.raw) for r in roots_in_field(disc_in_t(f_s)))
        assert len(value_raws) == 2, "critical values must lie in F_q by construction"
        beta = value_raws[0]
        shifts = [FieldElement(ctx, ctx.scalar_mul(i, beta)) for i in range(1, p + 1)]
        counter = Counter(ctx.add(r, h.raw) for r in value_raws for h in shifts)
        multiset_ok = all(v == 2 for v in counter.values())
        mu = make_builtin("moebius", 3)
        with run_scope():  # the product reads the table the single sum builds
            single = class_sum(ctx, f_s, mu, workers)
            total, zeros, plus, minus = _stickelberger_product_sum(ctx, f_s, shifts)
        steps.append(
            LargeQStep(
                l=l,
                q=ctx.q,
                s=repr(FieldElement(ctx, s_raw)),
                beta=repr(FieldElement(ctx, beta)),
                shifts=tuple(repr(h) for h in shifts),
                multiset_multiplicity_two=multiset_ok,
                single_report=single,
                product_sum=total,
                product_zero_count=zeros,
                product_plus=plus,
                product_minus=minus,
                sqrt_q=math.sqrt(ctx.q),
                elapsed=time.perf_counter() - t0,
            )
        )
    return LargeQDemoReport(p=p, steps=tuple(steps))
