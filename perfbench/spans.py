"""Spans and counters recorded from outside ffintervals, for the traced run.

The traced run replaces the module-level bindings that callers use (for
example ``interval_lab._joint_counts``, ``suite.class_sum``,
``cli.run_paper_suite`` and ``FieldCtx.mul``) with wrappers, and puts the
originals back when it ends.  Nothing inside the package changes.  Spans are
kept in memory and written out at the end.  Wrappers pass straight through in
forked pool workers, so a sweep with workers > 1 shows only its parent-side
span and the CPU time its workers used.
"""

from __future__ import annotations

import functools
import json
import os
import re
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass

KERNELS = {"_pattern_or_none_int": "polynomial.kernel.int",
           "_pattern_or_none_generic": "polynomial.kernel.generic"}
PUBLIC_CALLS = ("class_sum", "correlation_sum", "chebotarev_empirical")
REPORT_FUNCS = ("experiment_to_dict", "chebotarev_to_dict", "census_to_dict", "scan_to_dict",
                "verdict_to_dict", "demo_to_dict", "scrub_timings", "to_json")
_TIMING = re.compile(r'("elapsed_ms":) -?[0-9.e+-]+')
CHECK_NAMES = (
    "gauss-exact-count", "kummer-exact-densities", "kummer-pair-independence",
    "thm1-morse-prime-tuples", "thm2-moebius-chowla-cancellation", "thm5-no-cancellation-exact",
    "sec62-independence-breakdown", "bad-set-exact", "divisor-titchmarsh-constants",
    "mu-sgn-identity", "oracle-equivalence", "squarefree-census-bound", "chebotarev-empirical",
    "morse-genericity-scan", "large-q-demo", "determinism-across-workers",
)
WRAPPER_CALLS = 20000
WRAPPER_REPS = 5


@dataclass
class Sweep:
    """One call of interval_lab._joint_counts, seen from the caller."""

    span: int
    q: int
    interval: tuple  # identifies I(f); equal for f and f + h
    shifts: int
    workers: int
    child_cpu_s: float


def _child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """In-memory span recorder; use as a context manager to install the wrappers."""

    def __init__(self):
        self.pid = os.getpid()
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.counts: Counter = Counter()
        self.sweeps: list = []
        self._stack: list = []
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """fn with a span around each call made in this process."""
        tracer, getpid = self, os.getpid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getpid() != tracer.pid:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- installing and restoring bindings ---------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def install(self) -> None:
        from ffintervals import cli, interval_lab, morse_galois, reports, suite
        from ffintervals.finite_field import FieldCtx

        def span_all(name, attr, owners, on_result=None):
            for owner in owners:
                self.patch(owner, attr, self.wrap(name, getattr(owner, attr), on_result))

        for attr in PUBLIC_CALLS + ("large_q_demo", "gauss_census", "morse_density_scan",
                                    "squarefree_census"):
            span_all(f"interval_lab.{attr}", attr, (interval_lab, suite))
        span_all("interval_lab.stickelberger", "_stickelberger_product_sum", (interval_lab,))
        for attr, name in KERNELS.items():
            span_all(name, attr, (interval_lab,))
        span_all("polynomial.factor", "factor", (suite, morse_galois))
        span_all("morse_galois.is_morse", "is_morse", (interval_lab, suite))
        span_all("morse_galois.critical_data", "critical_data", (interval_lab, morse_galois))
        for attr in REPORT_FUNCS:
            span_all(f"reports.{attr}", attr, (reports,),
                     self._count_bytes if attr == "to_json" else None)
        span_all("suite.run_paper_suite", "run_paper_suite", (cli,))
        self.patch(interval_lab, "_joint_counts", self._wrap_sweep(interval_lab._joint_counts))
        self.patch(FieldCtx, "mul", self._wrap_count("finite_field.mul", FieldCtx.mul))
        battery = suite._Battery
        self.patch(battery, "run_all", self._wrap_battery(battery.run_all))
        for attr in sorted(vars(battery)):
            if attr.startswith("check_"):
                self.patch(battery, attr, self._wrap_check(getattr(battery, attr)))

    def _count_bytes(self, text: str) -> None:
        # timings are rendered with a varying number of digits; count each as "0"
        # so that the byte count repeats exactly between runs of one seed
        self.counts["reports.bytes"] += len(_TIMING.sub(r"\1 0", text).encode("utf-8"))

    def _wrap_count(self, key, fn):
        counts, pid, getpid = self.counts, self.pid, os.getpid

        @functools.wraps(fn)
        def counted(*args):
            if getpid() == pid:
                counts[key] += 1
            return fn(*args)

        return counted

    def _wrap_sweep(self, fn):
        tracer = self

        @functools.wraps(fn)
        def sweep(ctx, f, shifts, workers=1):
            cpu0 = _child_cpu()
            idx = tracer.open("interval_lab._joint_counts")
            try:
                return fn(ctx, f, shifts, workers)
            finally:
                tracer.close(idx)
                interval = (ctx.p, ctx.l, ctx.modulus, tuple(f.raw_coeffs[1:]))
                tracer.sweeps.append(
                    Sweep(idx, ctx.q, interval, len(shifts), workers, _child_cpu() - cpu0)
                )

        return sweep

    def _wrap_battery(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run_all(battery):
            rerun = battery.workers != battery.params.workers
            idx = tracer.open("suite.battery.rerun" if rerun else "suite.battery")
            try:
                return fn(battery)
            finally:
                tracer.close(idx)

        return run_all

    def _wrap_check(self, fn):
        tracer = self

        @functools.wraps(fn)
        def check(battery):
            if battery.workers != battery.params.workers:  # the determinism rerun
                return fn(battery)
            before = len(battery.checks)
            idx = tracer.open("suite.check")
            try:
                return fn(battery)
            finally:
                tracer.close(idx)
                if len(battery.checks) > before:
                    tracer.name[idx] = "suite.check:" + battery.checks[-1].name

        return check

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        names = sorted(set(self.name))
        ids = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "span_name": [ids[n] for n in self.name],
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def wrapper_costs_ns() -> tuple:
    """(span, count): CPU ns that a span wrapper and a counting wrapper add to a call.

    Each is the median over WRAPPER_REPS loops of WRAPPER_CALLS calls of a
    wrapped no-op, less the same for the bare no-op.
    """
    tracer = Tracer()

    def noop(*_args):
        return None

    def per_call(fn):
        times = []
        for _ in range(WRAPPER_REPS):
            t0 = time.process_time_ns()
            for _ in range(WRAPPER_CALLS):
                fn()
            times.append((time.process_time_ns() - t0) / WRAPPER_CALLS)
        return statistics.median(times)

    bare = per_call(noop)
    span, count = tracer.wrap("noop", noop), tracer._wrap_count("noop", noop)
    return per_call(span) - bare, per_call(count) - bare


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered, reach = 0, lo
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, hi)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(hi - lo - covered)
    return out


def _outermost_ns(t: Tracer, match) -> int:
    """Time inside spans whose name matches, not counting nested matches twice."""
    total = 0
    for i, name in enumerate(t.name):
        if not match(name):
            continue
        p = t.parent[i]
        while p >= 0 and not match(t.name[p]):
            p = t.parent[p]
        if p < 0:
            total += t.end[i] - t.start[i]
    return total


def layer_metrics(t: Tracer) -> dict:
    """Per-layer values from the spans and counters of a traced run."""
    n_calls = Counter(t.name)
    secs = lambda *names: _outermost_ns(t, lambda n: n in names) / 1e9  # noqa: E731
    selfs = self_times(t.start, t.end, t.parent)
    public = {f"interval_lab.{a}" for a in PUBLIC_CALLS}
    sweep_spans = {s.span for s in t.sweeps}
    kernel_names = set(KERNELS.values())
    in_sweeps = sum(
        1 for i, n in enumerate(t.name) if n in kernel_names and t.parent[i] in sweep_spans
    )
    pooled = [s for s in t.sweeps if s.workers > 1]
    # members evaluated inside pool workers are not visible; they are q x shifts each
    evaluations = in_sweeps + sum(s.q * s.shifts for s in pooled)
    distinct = sum({s.interval: s.q for s in t.sweeps}.values())
    pooled_wall = sum(s.workers * (t.end[s.span] - t.start[s.span]) / 1e9 for s in pooled)
    out = {
        "finite_field.mul_calls": t.counts["finite_field.mul"],
        "polynomial.kernel_calls.int": n_calls["polynomial.kernel.int"],
        "polynomial.kernel_calls.generic": n_calls["polynomial.kernel.generic"],
        "polynomial.kernel_s": secs(*kernel_names),
        "polynomial.factor_s": secs("polynomial.factor"),
        "interval_lab.table_s": secs("interval_lab._joint_counts"),
        "interval_lab.reduce_s": sum(selfs[i] for i, n in enumerate(t.name) if n in public) / 1e9,
        "interval_lab.sweeps": len(t.sweeps),
        "interval_lab.useful_ratio": distinct / evaluations if evaluations else None,
        "interval_lab.pools": len(pooled),
        "interval_lab.pool_idle_frac": (
            1.0 - sum(s.child_cpu_s for s in pooled) / pooled_wall if pooled_wall else None
        ),
        "interval_lab.stickelberger_s": secs("interval_lab.stickelberger"),
        "interval_lab.scan_s": secs("interval_lab.morse_density_scan",
                                    "interval_lab.squarefree_census"),
        "interval_lab.gauss_s": secs("interval_lab.gauss_census"),
        "morse_galois.is_morse_calls": n_calls["morse_galois.is_morse"],
        "morse_galois.is_morse_s": secs("morse_galois.is_morse"),
        "morse_galois.critical_data_s": secs("morse_galois.critical_data"),
        "reports.serialize_s": _outermost_ns(t, lambda n: n.startswith("reports.")) / 1e9,
        "reports.bytes": t.counts["reports.bytes"],
    }
    for check in CHECK_NAMES[:-1]:
        name = f"suite.check:{check}"
        out[f"suite.check_s.{check}"] = secs(name) if n_calls[name] else None
    # the determinism check is everything run_paper_suite does after the first battery
    det = 0
    for i, n in enumerate(t.name):
        if n == "suite.run_paper_suite":
            first = [j for j, p in enumerate(t.parent) if p == i and t.name[j] == "suite.battery"]
            det += t.end[i] - t.start[i] - sum(t.end[j] - t.start[j] for j in first)
    ran = n_calls["suite.run_paper_suite"]
    out[f"suite.check_s.{CHECK_NAMES[-1]}"] = det / 1e9 if ran else None
    return out
