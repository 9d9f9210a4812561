"""Quick-mode suite behavior: reproducibility, overrides, runtime contract."""

import json
import time
from pathlib import Path

import pytest

from ffintervals import reports, suite
from ffintervals.finite_field import make_prime_field
from ffintervals.morse_galois import is_morse
from ffintervals.suite import SuiteParams, first_morse_center, run_paper_suite


@pytest.fixture(scope="module")
def quick_pair():
    t0 = time.perf_counter()
    first = run_paper_suite(SuiteParams(quick=True, seed=0, workers=1))
    elapsed = time.perf_counter() - t0
    second = run_paper_suite(SuiteParams(quick=True, seed=0, workers=1))
    return first, second, elapsed


def test_quick_suite_passes(quick_pair):
    first, _, _ = quick_pair
    assert first["pass"]
    assert len(first["checks"]) == 16


def test_quick_suite_runtime_under_a_minute(quick_pair):
    _, _, elapsed = quick_pair
    assert elapsed < 60.0


def test_same_seed_gives_identical_reports(quick_pair):
    first, second, _ = quick_pair
    a = json.dumps(reports.scrub_timings(first["reports"]), sort_keys=True)
    b = json.dumps(reports.scrub_timings(second["reports"]), sort_keys=True)
    assert a == b


def test_quick_suite_matches_the_golden_report(quick_pair):
    # holds F_{5^4} element reprs such as "0:0:1:0"; fixed before the int-raw refactor
    first, _, _ = quick_pair
    got = (reports.to_json(reports.scrub_timings(first)) + "\n").encode("utf-8")
    assert got == (Path(__file__).parent / "data" / "paper_suite_quick_seed0.json").read_bytes()


def test_quick_suite_at_two_workers_matches_the_golden_reports(capsys):
    # the golden file pins --workers 1; its reports must not depend on the worker count
    from ffintervals.cli import run_command

    code = run_command(["paper-suite", "--quick", "--seed", "0", "--workers", "2"])
    payload = json.loads(capsys.readouterr().out)
    golden = json.loads((Path(__file__).parent / "data" / "paper_suite_quick_seed0.json").read_text())
    assert code == 0
    assert reports.to_json(reports.scrub_timings(payload["reports"])) == reports.to_json(golden["reports"])


def test_tolerance_file_override(tmp_path):
    # an impossible tolerance must make a sqrt(p) check fail and flip exit state
    from ffintervals.tolerances import load_tolerances

    strict = dict(load_tolerances())
    strict.pop("_meta", None)
    strict["kummer_pair"] = 0.0
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(strict))
    result = run_paper_suite(
        SuiteParams(quick=True, seed=0, workers=1, tolerance_file=str(path))
    )
    failing = {c["id"] for c in result["checks"] if not c["pass"]}
    assert 3 in failing
    assert not result["pass"]


def test_first_morse_center_is_certified():
    ctx = make_prime_field(101)
    for d in (3, 4, 5):
        f = first_morse_center(ctx, d)
        ok, _ = is_morse(f)
        assert ok and f.degree == d


def test_progress_streams_as_each_check_finishes(monkeypatch):
    log = []

    def stub_run_all(battery):
        for cid in (1, 2, 3):
            log.append(("run", cid))
            battery._record(suite.CheckResult(cid, f"stub-{cid}", True, "", "", "exact", 0.0))
        return battery.checks, battery.bundle

    monkeypatch.setattr(suite._Battery, "run_all", stub_run_all)
    result = run_paper_suite(SuiteParams(quick=True), lambda c: log.append(("progress", c.cid)))
    first = [("run", 1), ("progress", 1), ("run", 2), ("progress", 2), ("run", 3), ("progress", 3)]
    # the determinism rerun reports nothing until check 16 itself is done
    assert log == first + [("run", 1), ("run", 2), ("run", 3), ("progress", 16)]
    assert [c["id"] for c in result["checks"]] == [1, 2, 3, 16]


def test_each_check_call_records_one_result_and_one_bundle_key(monkeypatch):
    # perfbench's tracer wraps every _Battery.check_* attribute and names each
    # span from battery.checks[-1] after the call, so each call must record
    # its own result before it returns
    names = [
        "gauss-exact-count", "kummer-exact-densities", "kummer-pair-independence",
        "thm1-morse-prime-tuples", "thm2-moebius-chowla-cancellation",
        "thm5-no-cancellation-exact", "sec62-independence-breakdown", "bad-set-exact",
        "divisor-titchmarsh-constants", "mu-sgn-identity", "oracle-equivalence",
        "squarefree-census-bound", "chebotarev-empirical", "morse-genericity-scan",
        "large-q-demo",
    ]
    seen = []

    def wrap(fn):
        def check(battery):
            n_checks, n_keys = len(battery.checks), len(battery.bundle)
            result = fn(battery)
            assert len(battery.checks) == n_checks + 1
            assert len(battery.bundle) == n_keys + 1
            seen.append((battery.checks[-1].cid, battery.checks[-1].name))
            return result

        return check

    for attr in [a for a in vars(suite._Battery) if a.startswith("check_")]:
        monkeypatch.setattr(suite._Battery, attr, wrap(getattr(suite._Battery, attr)))
    checks, bundle = suite._Battery(SuiteParams(quick=True), 1).run_all()
    assert seen == list(enumerate(names, start=1))
    assert [(c.cid, c.name) for c in checks] == seen
    assert len(bundle) == 15
