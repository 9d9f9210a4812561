"""JSON/CSV rendering of experiment results.

Exact rationals are rendered as "num/den" strings ("4", "2/3"); floats appear
only for normalized errors, deviations, and timings.  Cycle-type keys are
rendered "3,1" (joint keys "3,1|2,2", non-squarefree components "ns") and
always emitted in canonical order so serialized reports are deterministic.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .interval_lab import (
    CensusReport,
    ChebotarevReport,
    ExperimentReport,
    LargeQDemoReport,
    MorseScanReport,
)
from .morse_galois import CancellationVerdict, CriticalData
from .polynomial import FactorizationResult
from .polyparse import format_poly

_TIMING_KEYS = {"elapsed_ms", "workers"}


def frac_str(x) -> str:
    return str(Fraction(x))


def _component_str(comp) -> str:
    return "ns" if comp is None else ",".join(str(v) for v in comp)


def _component_sort_key(comp):
    return (1, ()) if comp is None else (0, tuple(-v for v in comp))


def counts_to_dict(counts: dict) -> dict:
    """Render {key tuple: int} with joint keys, canonically ordered."""
    items = sorted(counts.items(), key=lambda kv: tuple(_component_sort_key(c) for c in kv[0]))
    return {"|".join(_component_str(c) for c in key): n for key, n in items}


def experiment_to_dict(r: ExperimentReport) -> dict:
    out = {
        "kind": r.kind,
        "params": r.params,
        "raw_sum": frac_str(r.raw_sum),
        "predicted_constant": frac_str(r.predicted_constant),
        "constant_kind": r.constant_kind,
        "empirical_constant": frac_str(r.empirical_constant),
        "main_term": frac_str(r.main_term),
        "abs_error": frac_str(r.abs_error),
        "normalized_error": r.normalized_error,
        "cycle_type_counts": counts_to_dict(r.cycle_type_counts),
        "nonsquarefree_count": r.nonsquarefree_count,
        "elapsed_ms": round(r.elapsed * 1000.0, 3),
        "workers": r.worker_count,
    }
    if r.notes:
        out["notes"] = {k: v for k, v in sorted(r.notes.items())}
    return out


def chebotarev_to_dict(r: ChebotarevReport) -> dict:
    keys = sorted(r.predicted, key=lambda k: tuple(_component_sort_key(c) for c in k))
    table = {}
    for key in keys:
        ks = "|".join(_component_str(c) for c in key)
        freq = r.frequencies.get(key, Fraction(0))
        table[ks] = {
            "frequency": frac_str(freq),
            "predicted": frac_str(r.predicted[key]),
            "deviation": float(abs(freq - r.predicted[key])),
        }
    return {
        "kind": "chebotarev",
        "params": r.params,
        "squarefree_total": r.squarefree_total,
        "nonsquarefree_count": r.nonsquarefree_count,
        "classes": table,
        "max_deviation": r.max_deviation,
        "tv_distance": r.tv_distance,
        "elapsed_ms": round(r.elapsed * 1000.0, 3),
        "workers": r.worker_count,
    }


def census_to_dict(r: CensusReport) -> dict:
    return {
        "kind": "squarefree_census",
        "params": r.params,
        "q": r.q,
        "all_squarefree_count": r.all_squarefree_count,
        "bad_count": r.bad_count,
        "bad_bound": r.bad_bound,
        "bad_a": [repr(a) for a in r.bad_a],
        "elapsed_ms": round(r.elapsed * 1000.0, 3),
    }


def scan_to_dict(r: MorseScanReport) -> dict:
    return {
        "kind": "morse_scan",
        "params": r.params,
        "q": r.q,
        "bad_count": r.bad_count,
        "bad_s": [repr(s) for s in r.bad_s],
        "warnings": list(r.warnings),
        "elapsed_ms": round(r.elapsed * 1000.0, 3),
    }


def verdict_to_dict(v: CancellationVerdict) -> dict:
    return {
        "kind": v.kind,
        "sign": v.sign,
        "disc_t": format_poly(v.witness_disc, "t"),
        "squarefree_exponents": list(v.witness_exponents),
    }


def demo_to_dict(r: LargeQDemoReport) -> dict:
    steps = [
        {
            "l": st.l,
            "q": st.q,
            "s": st.s,
            "beta": st.beta,
            "shifts": list(st.shifts),
            "multiset_multiplicity_two": st.multiset_multiplicity_two,
            "single": experiment_to_dict(st.single_report),
            "product_sum": st.product_sum,
            "product_zero_count": st.product_zero_count,
            "product_plus": st.product_plus,
            "product_minus": st.product_minus,
            "sqrt_q": st.sqrt_q,
            "elapsed_ms": round(st.elapsed * 1000.0, 3),
        }
        for st in r.steps
    ]
    return {"kind": "large_q_demo", "p": r.p, "steps": steps}


def factorization_to_dict(r: FactorizationResult) -> dict:
    return {
        "kind": "factorization",
        "unit": repr(r.unit),
        "omega": r.omega,
        "factors": [
            {"poly": format_poly(poly), "multiplicity": mult} for poly, mult in r.factors
        ],
    }


def critical_to_dict(r: CriticalData) -> dict:
    return {
        "kind": "critical_data",
        "extension_degree": r.ext_ctx.l,
        "points": [[repr(pt), mult] for pt, mult in r.points],
        "values": [repr(v) for v in r.values],
        "distinct_value_count": r.distinct_value_count,
    }


def to_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


def scrub_timings(obj):
    """Copy with timing/worker metadata removed, for determinism comparison."""
    if isinstance(obj, dict):
        return {k: scrub_timings(v) for k, v in obj.items() if k not in _TIMING_KEYS}
    if isinstance(obj, list):
        return [scrub_timings(v) for v in obj]
    return obj


def _flatten(prefix, obj, row):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, row)
    elif isinstance(obj, list):
        if any(isinstance(v, (dict, list)) for v in obj):  # a repr would not parse back
            row[prefix] = json.dumps(obj, separators=(",", ":"))
        else:
            row[prefix] = ";".join(str(v) for v in obj)
    else:
        row[prefix] = obj


def to_csv(obj: dict) -> str:
    """CSV with one row per cycle type (summary columns repeated).

    Reports without per-class tables flatten to a single row.  Encodes the
    same data as the JSON form.
    """
    tables = ("cycle_type_counts", "classes")
    per_class = next((key for key in tables if isinstance(obj.get(key), dict) and obj[key]), None)
    base = {}
    _flatten("", {k: v for k, v in obj.items() if k != per_class}, base)
    rows = []
    if per_class is None:
        rows.append(base)
    else:
        for ct, val in obj[per_class].items():
            row = dict(base)
            row["cycle_type"] = ct
            if isinstance(val, dict):
                row.update(val)
            else:
                row["count"] = val
            rows.append(row)
    buf = io.StringIO()
    fields = sorted({k for row in rows for k in row})
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
