"""Command-line interface.

Verbs: field-info, factor, classify, sum, correlate, chebotarev, morse,
gauss, scan-morse, large-q-demo, paper-suite.  Reports go to stdout as JSON
(default) or CSV; progress and errors go to stderr.  Exit codes: 0 success,
1 assertion or acceptance failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import reports
from .class_functions import make_builtin, parse_table_text
from .errors import FFIntervalsError, NotPrime, OutOfRange, PolyParseError, ToleranceFileError
from .finite_field import make_extension, make_prime_field
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
    bad_set,
    classify_mu_cancellation,
    critical_data,
    is_morse,
    stickelberger_mu,
)
from .polynomial import derivative, factor
from .polyparse import format_poly, parse_poly, parse_shifts
from .suite import SuiteParams, run_paper_suite


class UsageError(Exception):
    pass


def _worker_count(text: str) -> int:
    """--workers: at least 1, capped at the number of CPUs."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return min(n, os.cpu_count() or 1)


def _build_parser():
    top = argparse.ArgumentParser(
        prog="ffintervals",
        description="Statistics of class functions over very short polynomial intervals.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def common(sp, ext=True, out=True, f=True):
        sp.add_argument("--p", type=int, required=True, help="field characteristic")
        if ext:
            sp.add_argument("--ext", type=int, default=1, help="extension degree l")
        if out:
            sp.add_argument("--out", choices=("json", "csv"), default="json")
        sp.add_argument("--seed", type=int, default=0)
        if f:
            sp.add_argument("--f", required=True, help="polynomial expression, e.g. 'x^4-2*x^2'")

    sp = sub.add_parser("field-info", help="describe F_q and its modulus")
    common(sp, f=False)

    sp = sub.add_parser("factor", help="factor a polynomial")
    common(sp)

    sp = sub.add_parser("classify", help="Möbius cancellation dichotomy for I(f)")
    common(sp)

    sp = sub.add_parser("sum", help="exact class-function sum over I(f)")
    common(sp)
    sp.add_argument("--phi", required=True, help="prime | mu | dr:R | file:PATH")
    sp.add_argument("--workers", type=_worker_count, default=1)

    sp = sub.add_parser("correlate", help="correlation sum over shifted tuples")
    common(sp)
    sp.add_argument("--shifts", required=True, help="comma list, e.g. '0,1' or '0:1,2:0'")
    sp.add_argument("--phi", action="append", required=True, help="repeat, zipped with shifts")
    sp.add_argument("--workers", type=_worker_count, default=1)

    sp = sub.add_parser("chebotarev", help="empirical Frobenius cycle-type statistics")
    common(sp)
    sp.add_argument("--shifts", default="0")
    sp.add_argument("--workers", type=_worker_count, default=1)

    sp = sub.add_parser("census", help="squarefree census over shifted tuples")
    common(sp)
    sp.add_argument("--shifts", default="0")

    sp = sub.add_parser("morse", help="Morse test, critical data, and B(f)")
    common(sp)

    sp = sub.add_parser("gauss", help="enumerated vs formula irreducible count")
    common(sp, ext=False, f=False)
    sp.add_argument("--d", type=int, required=True)

    sp = sub.add_parser("scan-morse", help="count non-Morse members of f + s*x")
    common(sp)

    sp = sub.add_parser("large-q-demo", help="fixed p, growing q = p^l demonstration")
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--l-list", default="1,4", help="comma list of extension degrees")
    sp.add_argument("--out", choices=("json", "csv"), default="json")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=_worker_count, default=1)

    sp = sub.add_parser("paper-suite", help="run the full acceptance battery")
    sp.add_argument("--quick", action="store_true", help="small primes, < 60 s")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=_worker_count, default=1)
    sp.add_argument("--tolerance-file", default=None)
    sp.add_argument("--out", choices=("json", "csv"), default="json")
    return top


def _make_ctx(args):
    return make_extension(make_prime_field(args.p), getattr(args, "ext", 1), args.seed)


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, got {text!r}") from None


def _make_phi(spec_text: str, d: int):
    if spec_text == "prime":
        return make_builtin("prime", d)
    if spec_text in ("mu", "moebius"):
        return make_builtin("moebius", d)
    if spec_text.startswith("dr:"):
        return make_builtin("divisor", d, r=_int(spec_text[3:], "R in dr:R"))
    if spec_text.startswith("file:"):
        try:
            with open(spec_text[5:], encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read class function table {spec_text[5:]!r}: {exc}") from None
        return parse_table_text(text, d)
    raise UsageError(f"unknown class function {spec_text!r}")


def _emit(payload: dict, out: str) -> None:
    if out == "csv":
        body = payload.get("report", payload)
        sys.stdout.write(reports.to_csv(body))
    else:
        sys.stdout.write(reports.to_json(payload) + "\n")


def _envelope(args, report: dict, passed=None) -> dict:
    params = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("verb", "out") and v is not None
    }
    out = {"command": args.verb, "params": params, "report": report}
    if passed is not None:
        out["pass"] = passed
    return out


def _run(args) -> int:
    if args.verb == "field-info":
        ctx = _make_ctx(args)
        report = {
            "p": ctx.p,
            "l": ctx.l,
            "q": str(ctx.q),
            "modulus": None if ctx.modulus is None else list(ctx.modulus),
        }
        _emit(_envelope(args, report), args.out)
        return 0

    if args.verb == "gauss":
        enumerated, formula = gauss_census(args.p, args.d)
        report = {"enumerated": enumerated, "formula": formula}
        _emit(_envelope(args, report, passed=enumerated == formula), args.out)
        return 0 if enumerated == formula else 1

    if args.verb == "large-q-demo":
        l_list = tuple(_int(x, "--l-list entry") for x in args.l_list.split(",") if x.strip())
        demo = large_q_demo(args.p, l_list, args.workers)
        _emit(_envelope(args, reports.demo_to_dict(demo)), args.out)
        return 0

    if args.verb == "paper-suite":
        params = SuiteParams(
            quick=args.quick,
            seed=args.seed,
            workers=args.workers,
            tolerance_file=args.tolerance_file,
        )

        def progress(check):
            status = "PASS" if check.passed else "FAIL"
            print(f"[{status}] {check.cid:2d} {check.name}: {check.observed}", file=sys.stderr)

        result = run_paper_suite(params, progress)
        _emit(result, args.out)
        return 0 if result["pass"] else 1

    ctx = _make_ctx(args)
    f = parse_poly(args.f, ctx)

    if args.verb == "factor":
        _emit(_envelope(args, reports.factorization_to_dict(factor(f, args.seed))), args.out)
        return 0

    if args.verb == "classify":
        verdict = classify_mu_cancellation(f)
        report = reports.verdict_to_dict(verdict)
        _emit(_envelope(args, report), args.out)
        return 0

    if args.verb == "sum":
        phi = _make_phi(args.phi, f.degree)
        rep = class_sum(ctx, f, phi, args.workers)
        _emit(_envelope(args, reports.experiment_to_dict(rep)), args.out)
        return 0

    if args.verb == "correlate":
        shifts = tuple(parse_shifts(args.shifts, ctx))
        if len(args.phi) != len(shifts):
            raise UsageError(
                f"{len(args.phi)} class functions for {len(shifts)} shifts; counts must match"
            )
        phis = tuple(_make_phi(s, f.degree) for s in args.phi)
        rep = correlation_sum(IntervalSpec(ctx, f, shifts, phis), args.workers)
        _emit(_envelope(args, reports.experiment_to_dict(rep)), args.out)
        return 0

    if args.verb == "chebotarev":
        shifts = tuple(parse_shifts(args.shifts, ctx))
        rep = chebotarev_empirical(ctx, f, shifts, args.workers)
        _emit(_envelope(args, reports.chebotarev_to_dict(rep)), args.out)
        return 0

    if args.verb == "census":
        shifts = tuple(parse_shifts(args.shifts, ctx))
        rep = squarefree_census(ctx, f, shifts)
        ok = rep.bad_count <= rep.bad_bound
        _emit(_envelope(args, reports.census_to_dict(rep), passed=ok), args.out)
        return 0 if ok else 1

    if args.verb == "morse":
        ok, diag = is_morse(f)
        report = {"is_morse": ok, "diagnostics": diag, "f": format_poly(f)}
        try:
            report["critical_data"] = reports.critical_to_dict(critical_data(f))
        except FFIntervalsError as exc:
            report["critical_data_error"] = str(exc)
        if derivative(f):  # f' = 0: no critical values, no B(f)
            report["bad_set"] = sorted(repr(e) for e in bad_set(f))
        if ctx.p != 2:
            report["stickelberger_mu"] = stickelberger_mu(f)
        _emit(_envelope(args, report), args.out)
        return 0

    if args.verb == "scan-morse":
        rep = morse_density_scan(ctx, f)
        _emit(_envelope(args, reports.scan_to_dict(rep)), args.out)
        return 0

    raise UsageError(f"unhandled verb {args.verb}")


def run_command(argv=None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        with run_scope():  # one run: one table per interval
            return _run(args)
    except (UsageError, PolyParseError, NotPrime, OutOfRange, ToleranceFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FFIntervalsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
