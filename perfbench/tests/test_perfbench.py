"""Tests of the benchmark's own machinery, on desk-sized fields."""

import dataclasses
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ffintervals import cli, interval_lab, reports, suite  # noqa: E402
from ffintervals.finite_field import FieldCtx, make_extension, make_prime_field  # noqa: E402
from ffintervals.morse_galois import stickelberger_mu  # noqa: E402
from ffintervals.polynomial import random_monic  # noqa: E402


def _small_shared(seed=3):
    return workloads.make_sweep_shared(seed, primes=(31,))


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        a = workloads.make_workload(name, 11).inputs
        b = workloads.make_workload(name, 11).inputs
        assert a == b, name
    assert (
        workloads.make_workload("sweep-fallback", 11).inputs
        != workloads.make_workload("sweep-fallback", 12).inputs
    )
    fallback = workloads.make_workload("sweep-fallback", 11).inputs["centers"]
    assert len(set(fallback)) == len(fallback) == len(workloads.FALLBACK_DEGREES)


def test_self_time_is_span_minus_covered_children():
    start = [0, 10, 50, 12, 20]
    end = [100, 30, 60, 20, 40]
    parent = [-1, 0, 0, 1, 0]
    # children of span 0 cover [10, 40] and [50, 60]; span 4 overlaps span 1
    assert spans.self_times(start, end, parent) == [100 - 30 - 10, 20 - 8, 10, 8, 20]


def test_clean_outputs_pass_and_tampered_outputs_all_fail():
    wl = _small_shared()
    ps = run.run_pass(wl)
    attempted, failed, problems = run.verify(wl, [ps])
    assert attempted == len(wl.ops) and failed == 0, problems

    def tamper(out):
        field = "counts" if hasattr(out, "squarefree_total") else "cycle_type_counts"
        counts = dict(getattr(out, field))
        key = next(iter(counts))
        counts[key] += 1
        return dataclasses.replace(out, **{field: counts})

    ps.outputs = {k: tamper(v) for k, v in ps.outputs.items()}
    attempted, failed, _ = run.verify(wl, [ps])
    assert failed == attempted > 0


def test_failing_call_counts_as_failed_operation():
    wl = _small_shared()
    wl.ops[0] = dataclasses.replace(wl.ops[0], run=lambda: 1 / 0)
    ps = run.run_pass(wl)
    attempted, failed, problems = run.verify(wl, [ps])
    assert failed >= 1 and "ZeroDivisionError" in problems[0]


def test_traced_wrappers_are_restored_and_counts_repeat():
    bindings = [
        (interval_lab, "class_sum"), (suite, "class_sum"), (interval_lab, "_joint_counts"),
        (interval_lab, "_pattern_or_none_int"), (FieldCtx, "mul"), (reports, "to_json"),
        (suite._Battery, "check_gauss"), (suite._Battery, "run_all"), (cli, "run_paper_suite"),
    ]
    before = [getattr(owner, attr) for owner, attr in bindings]
    counts = []
    for _ in range(2):
        wl = _small_shared()
        with spans.Tracer() as tracer:
            assert interval_lab.class_sum is not before[0]
            run.run_pass(wl)
        m = spans.layer_metrics(tracer)
        counts.append({k: v for k, v in m.items() if not k.endswith(("_s", "_frac"))})
        assert m["interval_lab.sweeps"] == 20
        assert m["polynomial.kernel_calls.int"] == 31 * 24
        assert m["interval_lab.useful_ratio"] == 4 * 31 / (31 * 24)
    assert counts[0] == counts[1]
    assert [getattr(owner, attr) for owner, attr in bindings] == before


def test_wrappers_are_restored_when_the_run_raises():
    original = interval_lab._joint_counts
    try:
        with spans.Tracer():
            raise KeyError("boom")
    except KeyError:
        pass
    assert interval_lab._joint_counts is original


def test_parity_oracles_agree_with_stickelberger_mu():
    rng = random.Random(5)
    for p in (7, 11, 13):
        ctx = make_prime_field(p)
        for _ in range(30):
            g = random_monic(ctx, rng.randrange(2, 7), rng)
            assert workloads.mobius_by_parity(list(g.raw_coeffs), p) == stickelberger_mu(g)
    ctx = make_extension(make_prime_field(5), 2, 0)
    f = random_monic(ctx, 3, rng)
    signs = workloads.ext_cubic_mobius(ctx, f)
    for idx in range(ctx.q):
        a = ctx.element_from_index(idx)
        assert signs[a.raw] == stickelberger_mu(f.shift_const(a))


def test_tail_has_ten_samples_beyond_it():
    assert run.tail(range(1, 41)) == (30, 75.0)
    assert run.tail(range(1, 21)) == (20, 100.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_calibration_blocks_follow_operation_cpu():
    cal = run.Calibration()
    assert len(cal.times) == 1
    cal.after_op(run.CAL_EVERY_S / 2)
    assert len(cal.times) == 1
    cal.after_op(run.CAL_EVERY_S / 2)
    assert len(cal.times) == 2
    assert cal.finish() > 0
    assert len(cal.times) == run.CAL_MIN_BLOCKS


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = dict(run.PER_LAYER_UNITS)
    per_layer.update({f"suite.check_s.{c}": "s" for c in spans.CHECK_NAMES})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
