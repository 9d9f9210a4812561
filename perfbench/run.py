#!/usr/bin/env python3
"""The ffintervals benchmark: one workload per invocation, untraced or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-shared --seed 3 --seconds 20 --trace 0

Workloads are listed in perfbench/README.md.  With ``--trace 0`` the
workload's operations run in a closed loop (one caller, each call waits for
the previous) as whole passes over its seeded inputs, until another pass
would overrun ``--seconds``; every output is then checked and the end-to-end
metrics are printed.  With ``--trace 1`` the run makes one traced pass of the
workload, then a traced pass of the quick battery (so that every layer is
measured), then the micro-probes, and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full record (seed, generated inputs, environment, every
metric), which is also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 7
TAIL_BEYOND = 10
# the calibration block: a fixed amount of pure-Python modular arithmetic, run
# between operations; CAL_NOMINAL_S is its CPU time on the baseline machine
CAL_CALLS = 8000
CAL_NOMINAL_S = 0.2
CAL_EVERY_S = 1.5
CAL_MIN_BLOCKS = 8

END_TO_END = {
    "setup_s": "s",
    "ref_cpu_s": "s",
    "members_per_ref_cpu_s": "1/s",
    "op_ref_cpu_ms.p50": "ms",
    "op_ref_cpu_ms.tail": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "finite_field.mul_ns.p": "ns",
    "finite_field.mul_ns.ext5": "ns",
    "finite_field.mul_calls": "count",
    "polynomial.kernel_us.d3": "us",
    "polynomial.kernel_us.d4": "us",
    "polynomial.kernel_us.d5": "us",
    "polynomial.kernel_us.d6": "us",
    "polynomial.kernel_us.d7": "us",
    "polynomial.kernel_us.ext5_d3": "us",
    "polynomial.mulmod_ns.d5": "ns",
    "polynomial.kernel_calls.int": "count",
    "polynomial.kernel_calls.generic": "count",
    "polynomial.kernel_s": "s",
    "polynomial.factor_s": "s",
    "interval_lab.table_s": "s",
    "interval_lab.reduce_s": "s",
    "interval_lab.sweeps": "count",
    "interval_lab.useful_ratio": "ratio",
    "interval_lab.pools": "count",
    "interval_lab.pool_idle_frac": "ratio",
    "interval_lab.stickelberger_s": "s",
    "interval_lab.scan_s": "s",
    "interval_lab.gauss_s": "s",
    "morse_galois.is_morse_calls": "count",
    "morse_galois.is_morse_s": "s",
    "morse_galois.critical_data_s": "s",
    "reports.serialize_s": "s",
    "reports.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


@dataclass
class OpError:
    """Stands in for the output of a call that raised."""

    message: str


@dataclass
class Pass:
    """Outputs of one pass, with wall-clock and CPU seconds per operation."""

    outputs: dict = field(default_factory=dict)
    elapsed: dict = field(default_factory=dict)
    cpu: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.elapsed.values())

    @property
    def cpu_s(self) -> float:
        return sum(self.cpu.values())


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(wl, after_op=None) -> Pass:
    """Run every operation of the workload once, in order, timing each.

    ``after_op(cpu_s)``, if given, is called after each operation is timed.
    """
    ps = Pass()
    for op in wl.ops:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            ps.outputs[op.name] = op.run()
        except Exception as exc:  # a call that raises is a failed operation, not a crash
            ps.outputs[op.name] = OpError(f"{type(exc).__name__}: {exc}")
        ps.elapsed[op.name] = time.perf_counter() - t0
        ps.cpu[op.name] = _cpu_s() - cpu0
        if after_op is not None:
            after_op(ps.cpu[op.name])
    return ps


class Calibration:
    """CPU seconds of calibration blocks run between the operations of a run.

    The host's speed drifts by tens of percent over minutes; a block of fixed
    work timed alongside the workload slows and speeds up with it, so the
    workload's CPU time over the run's median block time is steadier than
    either.  A block runs before the first operation, then after each
    operation that brings the CPU time since the last block to CAL_EVERY_S,
    and at the end until there are CAL_MIN_BLOCKS.

    A workload whose pass is a single operation is not rescaled: blocks can
    only run before and after that operation, not alongside it, and on
    suite-quick (one 17-second call) that widened the spread.
    """

    def __init__(self):
        from workloads import mobius_by_parity

        rng = random.Random("perfbench/calibration")
        self._p = 1451
        self._g = [rng.randrange(self._p) for _ in range(5)] + [1]
        self._mobius = mobius_by_parity
        self._since = 0.0
        self.times: list = []
        self.block()

    def block(self) -> None:
        p, g = self._p, self._g
        cpu0 = _cpu_s()
        for a in range(CAL_CALLS):
            self._mobius([(g[0] + a) % p] + g[1:], p)
        self.times.append(_cpu_s() - cpu0)
        self._since = 0.0

    def after_op(self, cpu_s: float) -> None:
        self._since += cpu_s
        if self._since >= CAL_EVERY_S:
            self.block()

    def finish(self) -> float:
        """Run blocks up to CAL_MIN_BLOCKS; return the scale to reference CPU seconds."""
        while len(self.times) < CAL_MIN_BLOCKS:
            self.block()
        return CAL_NOMINAL_S / statistics.median(self.times)


def verify(wl, passes) -> tuple:
    """(attempted, failed, problems) over every sub-operation of every pass."""
    attempted = failed = 0
    problems = []
    for n, ps in enumerate(passes):
        for op in wl.ops:
            out = ps.outputs[op.name]
            if isinstance(out, OpError):
                results = [False]
                problems.append(f"pass {n} {op.name}: {out.message}")
            else:
                try:
                    results = op.check(out, ps.outputs)
                except Exception as exc:  # a malformed output fails its check
                    results = [False]
                    problems.append(f"pass {n} {op.name}: check raised {exc!r}")
            bad = sum(1 for r in results if r is not True)
            if bad:
                problems.append(f"pass {n} {op.name}: {bad} of {len(results)} failed")
            attempted += len(results)
            failed += bad
    return attempted, failed, problems


def tail(samples) -> tuple:
    """(value, percentile): the highest sample with TAIL_BEYOND samples beyond it.

    With 2 * TAIL_BEYOND samples or fewer that rank is not above the median,
    so the maximum is reported instead (percentile 100).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - TAIL_BEYOND
    return xs[k - 1], 100.0 * k / n


def end_to_end_metrics(wl, passes, setup_s, scale) -> tuple:
    """Reference-CPU metrics (those in BENCHMARK.json) and, for the record, raw twins.

    Reference CPU time is CPU time times ``scale``, the calibration's nominal
    over measured block time.  Values are medians over passes; the tail is
    taken within each pass, whose number of operations is fixed.
    """
    members = [
        sum(op.members(ps.outputs[op.name]) for op in wl.ops
            if not isinstance(ps.outputs[op.name], OpError))
        for ps in passes
    ]

    def summary(per_op):
        totals = [sum(per_op(ps).values()) for ps in passes]
        tails = [tail(per_op(ps).values()) for ps in passes]
        return {
            "s": statistics.median(totals),
            "members_per_s": statistics.median(m / t for m, t in zip(members, totals)),
            "op_ms.p50": statistics.median(x for ps in passes for x in per_op(ps).values()) * 1e3,
            "op_ms.tail": statistics.median(v for v, _ in tails) * 1e3,
            "tail_percentile": tails[0][1],
        }

    ref = summary(lambda ps: {k: v * scale for k, v in ps.cpu.items()})
    cpu, wall = summary(lambda ps: ps.cpu), summary(lambda ps: ps.elapsed)
    metrics = {
        "setup_s": setup_s,
        "ref_cpu_s": ref["s"],
        "members_per_ref_cpu_s": ref["members_per_s"],
        "op_ref_cpu_ms.p50": ref["op_ms.p50"],
        "op_ref_cpu_ms.tail": ref["op_ms.tail"],
        # this process only: its reaped children include the set-up's import
        # subprocesses, whose memory has nothing to do with the workload
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "cpu": {
            "cpu_s": cpu["s"],
            "members_per_cpu_s": cpu["members_per_s"],
            "op_cpu_ms.p50": cpu["op_ms.p50"],
            "op_cpu_ms.tail": cpu["op_ms.tail"],
        },
        "wall": {
            "wall_s": wall["s"],
            "members_per_s": wall["members_per_s"],
            "op_ms.p50": wall["op_ms.p50"],
            "op_ms.tail": wall["op_ms.tail"],
        },
        "children_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "op_samples_per_pass": len(wl.ops),
        "op_tail_percentile": ref["tail_percentile"],
        "pass_cpu_s": [ps.cpu_s for ps in passes],
        "pass_wall_s": [ps.wall_s for ps in passes],
    }
    return metrics, extra


def measure_setup(workloads, name, seed) -> tuple:
    """Median over SETUP_REPS of the CPU seconds of one set-up.

    A set-up is a fresh interpreter importing ffintervals.cli, then input
    generation from the seed, then the warm-up.  CPU seconds of this process
    and its children are used, because host steal on shared machines swings
    wall-clock time far more than CPU time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cpu, wall = [], []
    for _ in range(SETUP_REPS):
        cpu0, t0 = _cpu_s(), time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ffintervals.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        wl = workloads.make_workload(name, seed)
        wl.warm()
        cpu.append(_cpu_s() - cpu0)
        wall.append(time.perf_counter() - t0)
    return statistics.median(cpu), statistics.median(wall), wl


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
    }


def untraced_run(workloads, name, seed, seconds) -> dict:
    setup_s, setup_wall_s, wl = measure_setup(workloads, name, seed)
    passes, took = [], []
    start = time.perf_counter()
    cal = Calibration() if len(wl.ops) > 1 else None
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, cal and cal.after_op))
        took.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            break
    scale = cal.finish() if cal else 1.0
    attempted, failed, problems = verify(wl, passes)
    metrics, extra = end_to_end_metrics(wl, passes, setup_s, scale)
    extra["wall"]["setup_s"] = setup_wall_s
    extra["calibration_s"] = cal.times if cal else []
    return {
        "inputs": wl.inputs,
        "passes": len(passes),
        "metrics": metrics,
        "units": END_TO_END,
        **extra,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems,
    }


def traced_run(workloads, name, seed) -> dict:
    import probes
    import spans

    wl = workloads.make_workload(name, seed)
    wl.warm()
    tracer = spans.Tracer()
    with tracer:
        traced = run_pass(wl)
        checked = [(wl, [traced])]
        battery_from_span = len(tracer.name)
        if name != "suite-quick":
            battery = workloads.make_workload("suite-quick", seed)
            checked.append((battery, [run_pass(battery)]))
    metrics = spans.layer_metrics(tracer)
    # the wrappers' cost: what each span and each counted call adds, as timed
    # on a no-op, times how many of each the run made, over the rest of its CPU time
    span_ns, count_ns = spans.wrapper_costs_ns()
    added_s = (len(tracer.name) * span_ns + sum(tracer.counts.values()) * count_ns) / 1e9
    traced_cpu_s = sum(ps.cpu_s for _, passes in checked for ps in passes)
    metrics["trace.overhead_frac"] = added_s / (traced_cpu_s - added_s)
    metrics.update(probes.probe_metrics())
    units = dict(PER_LAYER_UNITS)
    units.update({f"suite.check_s.{c}": "s" for c in spans.CHECK_NAMES})
    missing = sorted(k for k in units if metrics.get(k) is None)
    if missing:
        raise RuntimeError(f"traced run did not measure {', '.join(missing)}")
    attempted = failed = 0
    problems = []
    for w, ps in checked:
        a, f, p = verify(w, ps)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{name}-seed{seed}.json"
    tracer.write(spans_file)
    return {
        "inputs": wl.inputs,
        "metrics": {k: metrics[k] for k in units},
        "units": units,
        "pass_cpu_s": traced.cpu_s,
        "pass_wall_s": traced.wall_s,
        "wrapper_cost_ns": {"span": span_ns, "count": count_ns},
        "battery_from_span": battery_from_span,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "notes": "kernel spans inside pool workers are not visible; pooled sweeps count "
                 "q x shifts evaluations and report their workers' CPU time only",
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ffintervals" / "__init__.py").is_file():
        print(f"error: no ffintervals sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    load_before = os.getloadavg()
    if args.trace:
        record = traced_run(workloads, args.workload, args.seed)
    else:
        record = untraced_run(workloads, args.workload, args.seed, args.seconds)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        env=environment(),
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
    )
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(record, default=str))
    summary = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            k: {"value": v, "unit": record["units"][k]} for k, v in record["metrics"].items()
        },
    }
    values = record["metrics"].values()
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        print("error: a metric is not a finite number", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
