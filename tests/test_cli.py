import json
import random
from pathlib import Path

import pytest

from ffintervals import reports
from ffintervals.cli import run_command
from ffintervals.errors import PolyParseError
from ffintervals.finite_field import make_extension, make_prime_field
from ffintervals.polynomial import random_monic
from ffintervals.polyparse import format_poly, parse_element, parse_poly, parse_shifts

F7 = make_prime_field(7)
GOLDEN = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# expression parsing


def test_parse_poly_reduces_mod_p():
    assert parse_poly("x^4-2*x^2", F7).raw_coeffs == (0, 0, 5, 0, 1)


def test_parse_poly_constant():
    assert parse_poly("3", F7).raw_coeffs == (3,)
    assert parse_poly("7", F7).is_zero


def test_parse_poly_leading_minus_and_spaces():
    assert parse_poly(" -x^2 + 3 ", F7).raw_coeffs == (3, 0, 6)


def test_parse_poly_coeff_star_mono():
    assert parse_poly("2*x", F7).raw_coeffs == (0, 2)
    assert parse_poly("x", F7).raw_coeffs == (0, 1)


def test_parse_poly_double_caret_offset():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x^^2", F7)
    assert err.value.offset == 2


def test_parse_poly_junk():
    with pytest.raises(PolyParseError):
        parse_poly("", F7)
    with pytest.raises(PolyParseError):
        parse_poly("x+", F7)
    with pytest.raises(PolyParseError):
        parse_poly("2*", F7)
    with pytest.raises(PolyParseError):
        parse_poly("x^2 y", F7)


def test_format_parse_roundtrip_random():
    rng = random.Random("roundtrip")
    for _ in range(500):
        ctx = make_prime_field((5, 7, 13)[rng.randrange(3)])
        poly = random_monic(ctx, rng.randrange(0, 7), rng)
        assert parse_poly(format_poly(poly), ctx) == poly


def test_format_parse_roundtrip_extension_constants():
    # parsed polynomials over extensions carry prime-subfield coefficients,
    # which must format back to grammar-compatible integers
    F25 = make_extension(make_prime_field(5), 2, 0)
    rng = random.Random("ext-roundtrip")
    for _ in range(100):
        coeffs = [rng.randrange(5) for _ in range(rng.randrange(1, 6))]
        text = "+".join(f"{c}*x^{i}" if i else str(c) for i, c in enumerate(coeffs))
        poly = parse_poly(text, F25)
        assert parse_poly(format_poly(poly), F25) == poly


def test_parse_element_extension_tuple():
    F25 = make_extension(make_prime_field(5), 2, 0)
    assert parse_element("3:1", F25).raw == 8  # 3 + 1 * 5
    assert parse_element("3:1", F25).coeffs == (3, 1)
    assert parse_element("2", F25).raw == 2
    assert parse_element("2", F25).coeffs == (2, 0)
    shifts = parse_shifts("0,1,2:1", F25)
    assert [s.raw for s in shifts] == [0, 1, 7]
    assert [s.coeffs for s in shifts] == [(0, 0), (1, 0), (2, 1)]


@pytest.mark.parametrize("p,l,count", [(5, 2, None), (3, 3, None), (3, 9, 200)])
def test_element_text_round_trip(p, l, count):
    # every element of F_25 and F_27, and seeded elements of F_{3^9} (above the
    # log-table cap): text -> raw -> repr / coeffs -> text
    ctx = make_extension(make_prime_field(p), l, 0)
    rng = random.Random(f"element-text/{p}/{l}")
    indices = range(ctx.q) if count is None else [rng.randrange(ctx.q) for _ in range(count)]
    for idx in indices:
        coeffs = tuple(idx // p**i % p for i in range(l))
        text = ":".join(str(c) for c in coeffs)
        elem = parse_element(text, ctx)
        assert elem.raw == idx
        assert repr(elem) == text and elem.coeffs == coeffs
        assert parse_element(repr(elem), ctx) == elem


def test_parse_shifts_rejects_duplicates():
    with pytest.raises(PolyParseError):
        parse_shifts("1,1", F7)


# ---------------------------------------------------------------------------
# command dispatch


def run_json(capsys, argv):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_large_q_demo_matches_the_golden_report(capsys):
    # F_5, F_{5^4} and F_{5^5} element reprs, fixed before the int-raw refactor
    code, payload = run_json(capsys, ["large-q-demo", "--l-list", "1,4,5"])
    assert code == 0
    got = (reports.to_json(reports.scrub_timings(payload)) + "\n").encode("utf-8")
    assert got == (GOLDEN / "large_q_demo_1_4_5.json").read_bytes()


def test_sum_command_json(capsys):
    code, payload = run_json(
        capsys, ["sum", "--p", "7", "--f", "x^3", "--phi", "prime", "--out", "json"]
    )
    assert code == 0
    assert payload["command"] == "sum"
    assert payload["report"]["raw_sum"] == "4"
    assert payload["report"]["cycle_type_counts"]["3"] == 4


def test_unknown_flag_exits_2(capsys):
    assert run_command(["sum", "--p", "7", "--f", "x^3", "--phi", "prime", "--nope"]) == 2


def test_unknown_verb_exits_2(capsys):
    assert run_command(["frobnicate"]) == 2


def test_composite_p_exits_2(capsys):
    assert run_command(["sum", "--p", "6", "--f", "x^3", "--phi", "prime"]) == 2


def test_bad_poly_exits_2(capsys):
    assert run_command(["sum", "--p", "7", "--f", "x^^2", "--phi", "prime"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gauss", "--p", "3", "--d", "0"],
        ["gauss", "--p", "3", "--d", "-1"],
        ["large-q-demo", "--l-list", "1,x"],
        ["large-q-demo", "--l-list", "0"],
        ["sum", "--p", "7", "--f", "x^3", "--phi", "dr:x"],
        ["correlate", "--p", "7", "--f", "x^3", "--shifts", "0,x", "--phi", "mu", "--phi", "mu"],
        ["census", "--p", "5", "--ext", "2", "--f", "x^3", "--shifts", "0,1:y"],
        ["field-info", "--p", "3", "--ext", "0"],
    ],
)
def test_malformed_numbers_exit_2(capsys, argv):
    assert run_command(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("name,content", [("missing.txt", None), (".", None), ("bad.txt", b"\xff")])
def test_unreadable_phi_file_exits_2(capsys, tmp_path, name, content):
    if content is not None:
        (tmp_path / name).write_bytes(content)
    argv = ["sum", "--p", "7", "--f", "x^3", "--phi", f"file:{tmp_path / name}"]
    assert run_command(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot read class function table")


def _tolerances_with(**changes):
    from ffintervals.tolerances import load_tolerances

    tol = {k: v for k, v in load_tolerances().items() if not k.startswith("_")}
    tol.update(changes)
    return json.dumps({k: v for k, v in tol.items() if v is not None}).encode("utf-8")


_BAD_TOLERANCE_FILES = [
    ("missing.json", None),
    (".", None),
    ("latin1.json", b"\xff{}"),
    ("broken.json", b'{"kummer_pair": '),
    ("list.json", b"[]"),
    ("empty.json", b"{}"),
    ("no_scan_bound.json", _tolerances_with(morse_scan_bound_d5=None)),
    ("bool.json", _tolerances_with(kummer_pair=True)),
    ("string.json", _tolerances_with(thm2_mu_d4="2.7")),
]


@pytest.mark.parametrize("name,content", _BAD_TOLERANCE_FILES, ids=[n for n, _ in _BAD_TOLERANCE_FILES])
def test_bad_tolerance_file_exits_2_before_any_check(capsys, tmp_path, name, content):
    if content is not None:
        (tmp_path / name).write_bytes(content)
    argv = ["paper-suite", "--quick", "--tolerance-file", str(tmp_path / name)]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tolerance file" in err
    assert "[PASS]" not in err


def test_sum_over_the_sweep_guard_exits_1(capsys):
    assert run_command(["sum", "--p", "10000019", "--f", "x^3+x", "--phi", "mu"]) == 1
    assert "sweep guard" in capsys.readouterr().err


def test_a_sweep_child_that_exits_without_a_result_exits_1(capsys, monkeypatch):
    import os

    from ffintervals import cli, interval_lab

    ddf_block = interval_lab._ddf_block

    def later_blocks_exit(*args):
        if args[-2] > 0:
            os._exit(3)
        return ddf_block(*args)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(interval_lab, "_ddf_block", later_blocks_exit)
    # an octic's table calls the kernel for (5,3) and (4,4), so its build forks
    argv = ["sum", "--p", "31", "--f", "x^8+3*x^5+x^3+2*x+1", "--phi", "mu", "--workers", "2"]
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep child ") and err.endswith(" exited with code 3 and no result\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_workers_below_one_exits_2(capsys, workers):
    argv = ["sum", "--p", "7", "--f", "x^3", "--phi", "prime", "--workers", workers]
    assert run_command(argv) == 2
    assert "--workers" in capsys.readouterr().err


def test_workers_capped_at_cpu_count(capsys, monkeypatch):
    from ffintervals import cli

    seen = []
    real_class_sum = cli.class_sum

    def fake_class_sum(ctx, f, phi, workers):
        seen.append(workers)
        return real_class_sum(ctx, f, phi, 1)

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(cli, "class_sum", fake_class_sum)
    for requested, passed_on in (("64", 3), ("3", 3), ("2", 2)):
        argv = ["sum", "--p", "7", "--f", "x^3", "--phi", "prime", "--workers", requested]
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert seen[-1] == passed_on
        assert payload["params"]["workers"] == passed_on


def test_csv_output_has_header_row(capsys):
    code = run_command(["sum", "--p", "7", "--f", "x^3", "--phi", "prime", "--out", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert "raw_sum" in lines[0] and "cycle_type" in lines[0]
    assert len(lines) >= 3


def test_csv_and_json_encode_same_data(capsys):
    import csv as _csv
    import io

    code, payload = run_json(
        capsys, ["sum", "--p", "13", "--f", "x^3+x", "--phi", "mu", "--out", "json"]
    )
    assert code == 0
    run_command(["sum", "--p", "13", "--f", "x^3+x", "--phi", "mu", "--out", "csv"])
    csv_out = capsys.readouterr().out
    rows = list(_csv.DictReader(io.StringIO(csv_out)))
    assert {row["raw_sum"] for row in rows} == {payload["report"]["raw_sum"]}
    csv_counts = {row["cycle_type"]: int(row["count"]) for row in rows}
    assert csv_counts == payload["report"]["cycle_type_counts"]


def test_csv_writes_a_list_of_records_as_one_json_array(capsys):
    import csv as _csv
    import io

    argv = ["factor", "--p", "7", "--f", "x^4-2*x^2"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    run_command(argv + ["--out", "csv"])
    (row,) = _csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert json.loads(row["factors"]) == payload["report"]["factors"]


def test_correlate_arity_mismatch_exits_2(capsys):
    code = run_command(
        [
            "correlate",
            "--p", "13",
            "--f", "x^3",
            "--shifts", "0,1",
            "--phi", "prime",
        ]
    )
    assert code == 2


def test_correlate_command(capsys):
    code, payload = run_json(
        capsys,
        [
            "correlate",
            "--p", "13",
            "--f", "x^3",
            "--shifts", "0,1",
            "--phi", "mu",
            "--phi", "mu",
        ],
    )
    assert code == 0
    assert payload["report"]["kind"] == "correlation_sum"


def test_correlate_with_constant_derivative_exits_0(capsys):
    # f' = 1 over F_2: no critical points, so no bad shifts
    code, payload = run_json(
        capsys,
        [
            "correlate",
            "--p", "2",
            "--f", "x^4+x+1",
            "--shifts", "0,1",
            "--phi", "mu",
            "--phi", "mu",
        ],
    )
    assert code == 0
    assert payload["report"]["notes"] == {"bad_shifts": False}


def test_field_info_extension(capsys):
    code, payload = run_json(capsys, ["field-info", "--p", "2", "--ext", "3"])
    assert code == 0
    assert payload["report"]["q"] == "8"
    assert payload["report"]["modulus"] in ([1, 1, 0, 1], [1, 0, 1, 1])


def test_factor_command(capsys):
    code, payload = run_json(capsys, ["factor", "--p", "7", "--f", "x^4-2*x^2"])
    assert code == 0
    assert payload["report"]["omega"] == 3


def test_classify_command(capsys):
    code, payload = run_json(capsys, ["classify", "--p", "7", "--f", "x^3"])
    assert code == 0
    assert payload["report"]["kind"] == "no-cancellation"
    assert payload["report"]["sign"] == -1


def test_classify_command_in_characteristic_at_most_d(capsys):
    # the quartic over F_27 and over F_3, where q = 3 <= deg f' = 3, has
    # D = t^3 + 2; f' = 0 exits 1 with a typed error; a constant D gives a
    # verdict
    for ext in ("3", "1"):
        argv = ["classify", "--p", "3", "--ext", ext, "--f", "x^4+2*x^3+x+1"]
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload["report"] == {
            "kind": "square-root-cancellation",
            "sign": None,
            "disc_t": "t^3+2",
            "squarefree_exponents": [3],
        }
    assert run_command(["classify", "--p", "3", "--ext", "2", "--f", "x^3"]) == 1
    assert "f' = 0" in capsys.readouterr().err
    code, payload = run_json(capsys, ["classify", "--p", "3", "--ext", "2", "--f", "x^3+x"])
    assert code == 0
    assert payload["report"] == {
        "kind": "no-cancellation",
        "sign": -1,
        "disc_t": "2",
        "squarefree_exponents": [],
    }


def test_gauss_command(capsys):
    code, payload = run_json(capsys, ["gauss", "--p", "3", "--d", "3"])
    assert code == 0
    assert payload["report"] == {"enumerated": 8, "formula": 8}
    assert payload["pass"] is True


def test_morse_command(capsys):
    code, payload = run_json(capsys, ["morse", "--p", "13", "--f", "x^4-2*x^2"])
    assert code == 0
    assert payload["report"]["is_morse"] is False
    assert payload["report"]["bad_set"] == ["1", "12"]


def test_morse_command_builds_the_critical_data_once(capsys, monkeypatch):
    # the report's critical data and B(f) come from one splitting-field build
    from ffintervals import cli, morse_galois

    built, critical_data = [], morse_galois.critical_data

    def counted(f):
        built.append(f)
        return critical_data(f)

    monkeypatch.setattr(morse_galois, "critical_data", counted)
    monkeypatch.setattr(cli, "critical_data", counted)
    code, payload = run_json(capsys, ["morse", "--p", "5", "--ext", "2", "--f", "x^4+x^2+3*x"])
    assert code == 0 and len(built) == 1
    assert payload["report"]["critical_data"]["kind"] == "critical_data"


@pytest.mark.parametrize(
    "p,f,error,bad",
    [
        ("5", "x^5+1", "f' = 0; no critical point data", None),
        # f' = 12 h_5 h_6 with h_5 and h_6 irreducible: the splitting field is
        # F_(q^30), but B(f) comes from D(t), and this Morse f has none
        (
            "13",
            "x^12+6*x^11+12*x^10+7*x^9+9*x^8+5*x^7+8*x^6+x^5+12*x^4+10*x^3+2*x^2+11*x",
            "needs F_(q^30), cap is 24",
            [],
        ),
    ],
    ids=["f-prime-zero", "past-the-cap"],
)
def test_morse_command_reports_missing_critical_data(capsys, p, f, error, bad):
    code, payload = run_json(capsys, ["morse", "--p", p, "--f", f])
    report = payload["report"]
    assert code == 0
    assert report["critical_data_error"] == error
    assert "is_morse" in report and "stickelberger_mu" in report
    assert "critical_data" not in report and report.get("bad_set") == bad
    assert report["is_morse"] == (bad is not None)


def test_only_the_morse_report_builds_critical_data(capsys, monkeypatch):
    # every other verb reads D(t) alone, on a non-Morse f over F_3 with
    # q <= deg f' = 3 (D = t^3) and at p > d
    from ffintervals import cli, interval_lab, morse_galois

    built, critical_data = [], morse_galois.critical_data

    def counted(f):
        built.append(f)
        return critical_data(f)

    for owner in (morse_galois, interval_lab, cli):
        monkeypatch.setattr(owner, "critical_data", counted)
    verbs = (
        ["sum", "--phi", "mu"],
        ["correlate", "--shifts", "0,1", "--phi", "mu", "--phi", "prime"],
        ["chebotarev", "--shifts", "0,1"],
        ["census", "--shifts", "0,1"],
        ["classify"],
        ["scan-morse"],
    )
    for interval in (["--p", "3", "--f", "x^4+x"], ["--p", "13", "--f", "x^4-2*x^2"]):
        for verb, *args in verbs:
            code, _ = run_json(capsys, [verb, *interval, *args])
            assert code == 0 and built == [], (verb, interval)
        code, payload = run_json(capsys, ["morse", *interval])
        assert code == 0 and len(built) == 1 and payload["report"]["is_morse"] is False
        built.clear()


def test_chebotarev_csv_has_one_row_per_class(capsys):
    import csv as _csv
    import io

    argv = ["chebotarev", "--p", "11", "--f", "x^3+x+1"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    run_command(argv + ["--out", "csv"])
    rows = list(_csv.DictReader(io.StringIO(capsys.readouterr().out)))
    classes = payload["report"]["classes"]
    assert [row["cycle_type"] for row in rows] == list(classes)
    per_class = ("frequency", "predicted", "deviation")
    for row in rows:
        assert {k: row[k] for k in per_class} == {
            k: str(v) for k, v in classes[row["cycle_type"]].items()
        }
    summaries = [
        {k: v for k, v in row.items() if k not in per_class + ("cycle_type",)} for row in rows
    ]
    assert all(summary == summaries[0] for summary in summaries)
    for key in ("max_deviation", "tv_distance", "squarefree_total"):
        assert summaries[0][key] == str(payload["report"][key]), key


def test_scan_morse_command(capsys):
    code, payload = run_json(capsys, ["scan-morse", "--p", "13", "--f", "x^3"])
    assert code == 0
    assert payload["report"]["bad_count"] == 1


def test_census_command(capsys):
    code, payload = run_json(capsys, ["census", "--p", "13", "--f", "x^3", "--shifts", "0,1"])
    assert code == 0
    assert payload["pass"] is True


def test_census_command_below_the_degree(capsys):
    # p = 3 <= deg f, and q = 27 > deg f' = 3: the census reads D(t)
    argv = ["census", "--p", "3", "--ext", "3", "--f", "x^4+2*x^3+x+1", "--shifts", "0,1"]
    code, payload = run_json(capsys, argv)
    assert code == 0 and payload["pass"] is True
    assert payload["report"]["bad_count"] <= payload["report"]["bad_bound"]


def test_chebotarev_command(capsys):
    code, payload = run_json(capsys, ["chebotarev", "--p", "11", "--f", "x^3"])
    assert code == 0
    assert payload["report"]["classes"]["2,1"]["frequency"] == "1"


def test_large_q_demo_command(capsys):
    code, payload = run_json(capsys, ["large-q-demo", "--p", "5", "--l-list", "1,2"])
    assert code == 0
    steps = payload["report"]["steps"]
    assert [s["q"] for s in steps] == [5, 25]
    assert all(s["multiset_multiplicity_two"] for s in steps)


_INTERVALS = {
    "cubic": ["--p", "101", "--f", "x^3+2*x+1"],
    "quartic": ["--p", "101", "--f", "x^4+x^2+3*x"],
    "quintic": ["--p", "101", "--f", "x^5+x^2+1"],
    "sextic": ["--p", "101", "--f", "x^6+x+1"],  # d = 6: named from roots, n_2 and D(c)
    "octic": ["--p", "101", "--f", "x^8+3*x^3+x+1"],
    "F25": ["--p", "5", "--ext", "2", "--f", "x^3+x+1"],
    "p-at-most-d": ["--p", "5", "--f", "x^6+x+2"],  # q <= deg f' = 5: D(t), named with n_2
    "F27-quartic": ["--p", "3", "--ext", "3", "--f", "x^4+2*x^3+x+1"],  # p <= d, D(t): fibers
    "F7-septic": ["--p", "7", "--f", "x^7+3*x^2+x+1"],  # p = d, D(t): named with n_2
}


@pytest.mark.parametrize("interval", sorted(_INTERVALS))
def test_interval_commands_agree_at_one_and_two_workers(capsys, monkeypatch, interval):
    from ffintervals import interval_lab

    monkeypatch.setattr(interval_lab, "_sweep_block", None)  # each command reads a scoped table
    verbs = (
        ["sum", "--phi", "mu"],
        ["correlate", "--shifts", "0,1", "--phi", "mu", "--phi", "prime"],
        ["chebotarev", "--shifts", "0,2"],
    )
    for verb, *args in verbs:
        blobs = []
        for workers in ("1", "2"):
            argv = [verb, *_INTERVALS[interval], *args, "--workers", workers]
            code, payload = run_json(capsys, argv)
            assert code == 0, argv
            blobs.append(reports.to_json(reports.scrub_timings(payload)))
        assert blobs[0] == blobs[1], verb


def test_extension_sum_command(capsys):
    code, payload = run_json(
        capsys, ["sum", "--p", "5", "--ext", "2", "--f", "x^3+x", "--phi", "mu"]
    )
    assert code == 0
    assert payload["report"]["params"]["q"] == "25"


def test_custom_phi_from_file(capsys, tmp_path):
    # indicator of the 3-cycle class, written as a table file
    table = tmp_path / "phi.txt"
    table.write_text("3=1\n2,1=0\n1,1,1=0\n", encoding="utf-8")
    code, payload = run_json(
        capsys, ["sum", "--p", "7", "--f", "x^3", "--phi", f"file:{table}"]
    )
    assert code == 0
    assert payload["report"]["raw_sum"] == "4"  # same as the prime indicator


def test_divisor_phi_flag(capsys):
    code, payload = run_json(capsys, ["sum", "--p", "13", "--f", "x^3+x", "--phi", "dr:2"])
    assert code == 0
    assert payload["report"]["predicted_constant"] == "4"  # C(3+2-1, 2-1)

