"""CLI contract tests: determinism, formats, schemas, exit codes."""

import decimal
import json
import math
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from hugelschaffer import cli

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hugelschaffer", *args],
        capture_output=True,
        text=True,
    )


def _schema(name):
    ref = resources.files("hugelschaffer") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def test_area_human_output():
    result = run_cli("area", "--a", "4", "--b", "3", "--w", "2", "--method", "exact")
    assert result.returncode == 0
    assert "part_diff = 16" in result.stdout


def test_area_json_schema_and_values():
    result = run_cli(
        "area", "--a", "2", "--b", "2", "--w", "2", "--method", "exact",
        "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    jsonschema.validate(payload, _schema("area"))
    assert payload["total"] == pytest.approx(32 / 3)
    assert payload["k"] == 1.0


def test_area_series_matches_exact():
    exact = json.loads(
        run_cli("area", "--a", "4", "--b", "3", "--w", "2", "--format", "json").stdout
    )
    series = json.loads(
        run_cli(
            "area", "--a", "4", "--b", "3", "--w", "2", "--method", "series",
            "--format", "json",
        ).stdout
    )
    assert abs(exact["total"] - series["total"]) <= 1e-10


@pytest.mark.parametrize("method", ["exact", "series", "taylor"])
def test_area_prints_its_two_records_as_they_are(method, capsys):
    from hugelschaffer.area import AreaBreakdown
    from hugelschaffer.curve import DerivedShape

    argv = ["area", "--a", "4", "--b", "3", "--w", "2", "--method", method, "--format", "json"]
    assert cli.main(argv) == 0
    keys = tuple(json.loads(capsys.readouterr().out))
    assert keys == AreaBreakdown._fields + DerivedShape._fields + ("method",)


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_bounds_prints_its_certificate_as_it_is(fmt, capsys):
    from hugelschaffer.area import BoundsCertificate, bounds
    from hugelschaffer.curve import CurveParams

    assert cli.main(["bounds", "--a", "4", "--b", "3", "--w", "2", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        payload = json.loads(out)
        assert tuple(payload.values()) == tuple(bounds(CurveParams(4.0, 3.0, 2.0)))
        keys = tuple(payload)
    elif fmt == "csv":
        keys = tuple(out.splitlines()[0].split(","))
    else:
        keys = tuple(line.split(" = ")[0] for line in out.splitlines())
    # the record's exact_total is printed under the key "exact"
    assert keys == tuple("exact" if f == "exact_total" else f for f in BoundsCertificate._fields)


def test_bounds_json():
    result = run_cli("bounds", "--a", "2", "--b", "3", "--w", "4", "--format", "json")
    payload = json.loads(result.stdout)
    jsonschema.validate(payload, _schema("bounds"))
    assert payload["nabla"] == pytest.approx(math.pi * 16 * 3 / 512, rel=1e-12)
    assert (
        payload["lower_coarse"]
        <= payload["lower_refined"]
        <= payload["exact"]
        <= payload["upper_refined"]
        <= payload["upper_coarse"]
    )


def test_bounds_degenerate_collapse():
    payload = json.loads(
        run_cli("bounds", "--a", "2", "--b", "2", "--w", "2", "--format", "json").stdout
    )
    assert payload["lower_refined"] == pytest.approx(payload["exact"], rel=1e-12)


def test_sample_csv_contract():
    result = run_cli("sample", "--a", "2", "--b", "2", "--w", "4", "--n", "5",
                     "--format", "csv")
    lines = result.stdout.splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 6
    # row at t = pi/2 carries the extremum point (-q^2 w, q b)
    t, x, y = (float(v) for v in lines[2].split(","))
    assert t == pytest.approx(math.pi / 2)
    assert x == pytest.approx(-1.0, abs=1e-14)
    assert y == pytest.approx(1.0, abs=1e-14)


def test_sample_csv_roundtrip_on_curve():
    from hugelschaffer.curve import CurveParams, PlanePoint, derive, implicit_Fq

    result = run_cli("sample", "--a", "3", "--b", "2", "--w", "2", "--n", "33",
                     "--format", "csv")
    params = CurveParams(3, 2, 2)
    q = derive(params).q
    scale = params.a**2 * params.b**2 * q * q
    for line in result.stdout.splitlines()[1:]:
        _, x, y = (float(v) for v in line.split(","))
        assert abs(implicit_Fq(params, PlanePoint(x, y))) <= 1e-9 * scale


def test_sample_json_schema():
    result = run_cli("sample", "--a", "3", "--b", "2", "--w", "2", "--n", "9",
                     "--circles", "--format", "json")
    payload = json.loads(result.stdout)
    jsonschema.validate(payload, _schema("sample"))
    assert len(payload["points"]) == 9
    assert len(payload["circle1"]) == 9


def test_sample_svg_contract():
    plain = run_cli("sample", "--a", "3", "--b", "2", "--w", "2", "--n", "64",
                    "--format", "svg").stdout
    assert plain.count("<path") == 1
    assert plain.count("<circle") == 0
    with_circles = run_cli("sample", "--a", "3", "--b", "2", "--w", "2", "--n", "64",
                           "--circles", "--format", "svg").stdout
    assert with_circles.count("<path") == 1
    assert with_circles.count("<circle") == 2


def test_approx_table_json():
    result = run_cli("approx-table", "--target", "K", "--max-degree", "10",
                     "--beta", "0.9", "--format", "json")
    payload = json.loads(result.stdout)
    jsonschema.validate(payload, _schema("approx_table"))
    dump = {entry["power"]: entry["value"] for entry in payload["series_coefficients"]}
    assert dump["x^10"] == "3969/131072*pi"
    # sandwich sign pattern: first kind below K, second kind above
    for row in payload["rows"]:
        assert row["err_first"] <= 1e-14
        assert row["err_second"] >= -1e-14


def test_approx_table_area_corrections():
    result = run_cli("approx-table", "--target", "A", "--max-degree", "9",
                     "--format", "json")
    payload = json.loads(result.stdout)
    corr = {e["degree"]: e["value"] for e in payload["second_kind_corrections"]}
    assert corr[9] == "8/3 - 13965/16384*pi"


def test_pi_series_json():
    result = run_cli("pi-series", "--terms", "1", "--format", "json")
    payload = json.loads(result.stdout)
    jsonschema.validate(payload, _schema("pi_series"))
    assert payload["partial_sum"] == 0.328125
    errors = []
    for n in ("10", "100", "1000"):
        payload = json.loads(run_cli("pi-series", "--terms", n, "--format", "json").stdout)
        errors.append(payload["abs_error"])
    assert errors[0] > errors[1] > errors[2]


def test_golden_files():
    sample = run_cli("sample", "--a", "3", "--b", "2", "--w", "2", "--n", "64",
                     "--format", "csv").stdout
    assert sample == (GOLDEN / "sample_a3_b2_w2_n64.csv").read_text()
    pi = run_cli("pi-series", "--terms", "100", "--format", "json").stdout
    assert pi == (GOLDEN / "pi_series_100.json").read_text()
    for target, beta in (("A", "1"), ("E", "1"), ("K", "0.9")):
        name = f"approx_table_{target}" + ("" if beta == "1" else f"_beta{beta}")
        for fmt, ext in (("human", "txt"), ("json", "json")):
            table = run_cli("approx-table", "--target", target, "--beta", beta,
                            "--format", fmt).stdout
            assert table == (GOLDEN / f"{name}.{ext}").read_text(), (name, fmt)
    for kind, beta in (("first", ()), ("second", ("--beta", "1"))):
        area = run_cli("area", "--a", "4", "--b", "3", "--w", "2", "--method", "taylor",
                       *beta, "--n", "6").stdout
        assert area == (GOLDEN / f"area_a4_b3_w2_taylor_{kind}_n6.txt").read_text()
    egg = ("--a", "4", "--b", "3", "--w", "2")
    sample = ("sample", "--a", "3", "--b", "2", "--w", "2", "--n", "9", "--circles")
    for name, args in (
        ("area_a4_b3_w2.csv", ("area", *egg, "--format", "csv")),
        ("bounds_a4_b3_w2.csv", ("bounds", *egg, "--format", "csv")),
        ("pi_series_100.csv", ("pi-series", "--terms", "100", "--format", "csv")),
        ("approx_table_K_beta0.9.csv",
         ("approx-table", "--target", "K", "--beta", "0.9", "--format", "csv")),
        ("sample_a3_b2_w2_n9_circles.json", (*sample, "--format", "json")),
        ("sample_a3_b2_w2_n9_circles.svg", (*sample, "--format", "svg")),
    ):
        assert run_cli(*args).stdout == (GOLDEN / name).read_text(), name


def test_byte_determinism_across_runs():
    for args in (
        ("sample", "--a", "3", "--b", "2", "--w", "2", "--n", "64", "--format", "csv"),
        ("pi-series", "--terms", "100", "--format", "json"),
        ("bounds", "--a", "4", "--b", "3", "--w", "2", "--format", "json"),
    ):
        first = run_cli(*args).stdout
        second = run_cli(*args).stdout
        assert first == second


def test_exit_codes():
    assert run_cli("area", "--a", "4", "--b", "3", "--w", "2").returncode == 0
    # usage error: missing required flag
    assert run_cli("area", "--a", "4", "--b", "3").returncode == 2
    assert run_cli("nonsense").returncode == 2
    # domain error: invalid parameter value
    assert run_cli("area", "--a", "-1", "--b", "3", "--w", "2").returncode == 1


def test_non_finite_result_is_an_error():
    # a*b*q overflows: no Infinity/NaN on stdout, exit 1 with a message
    for fmt in ("json", "human", "csv"):
        result = run_cli("area", "--a", "1e300", "--b", "1e300", "--w", "1",
                         "--format", fmt)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
    # a*b*q = 1 but gamma = -(a^2 + w^2) / (2w) overflows to -inf, and the
    # viewBox width 2.2 * a overflows: the human, json and svg writers
    # reject what they would print
    egg = ("area", "--a", "1e300", "--b", "1e-300", "--w", "1e-300")
    for argv, message in (
        (egg, "error: result is not finite (-inf)\n"),
        ((*egg, "--format", "csv"), "error: result is not finite (-inf)\n"),
        ((*egg, "--format", "json"), "error: result is not finite\n"),
        (("sample", "--a", "1e308", "--b", "1e308", "--w", "1e308", "--n", "3",
          "--format", "svg"), "error: result is not finite (inf)\n"),
    ):
        result = run_cli(*argv)
        assert result.returncode == 1, argv
        assert result.stdout == ""
        assert result.stderr == message


def test_underflowing_scale_is_an_error():
    # a*b*q underflows to 0: an error, not "total = 0"
    result = run_cli("area", "--a", "1e-300", "--b", "1e-300", "--w", "1e-300")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")


def test_small_k_area_is_the_ellipse():
    result = run_cli("area", "--a", "1", "--b", "1", "--w", "1e-9", "--format", "json")
    assert result.returncode == 0
    total = json.loads(result.stdout)["total"]
    assert abs(total - math.pi) <= 1e-15 * math.pi


def test_bounds_huge_w_no_traceback():
    result = run_cli("bounds", "--a", "1", "--b", "1", "--w", "1e300", "--format", "json")
    assert result.returncode == 0
    assert "Traceback" not in result.stderr
    payload = json.loads(result.stdout)
    jsonschema.validate(payload, _schema("bounds"))
    chain = [payload[k] for k in ("lower_coarse", "lower_refined", "exact",
                                  "upper_refined", "upper_coarse")]
    assert chain == sorted(chain)


def test_bounds_piecewise_margin_in_range():
    # b w^2 overflows on the way to pi b w^2/(8a) = 3.18e306
    result = run_cli("bounds", "--a", "1e7", "--b", "1e300", "--w", "9e6", "--format", "json")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["nabla_piecewise"] == pytest.approx(payload["nabla"], rel=1e-15)


def test_verify_passes():
    result = run_cli("verify", "--format", "json")
    payload = json.loads(result.stdout)
    jsonschema.validate(payload, _schema("verify"))
    assert result.returncode == 0
    assert payload["passed"] is True


def test_verify_reports_a_failing_check(monkeypatch, capsys):
    # a 1/pi partial sum of 0 misses its 1e-8 tolerance by 1/pi
    monkeypatch.setattr(cli.area_mod, "inv_pi_partial", lambda n: 0.0)
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[-1] == "FAILURES present"
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert failed == [
        f"FAIL 1/pi partial error at N=10^4: margin {1.0 / math.pi:.17g} (tol 1e-08)"
    ]
    assert cli.main(["verify", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, _schema("verify"))
    assert payload["passed"] is False
    assert [c["name"] for c in payload["checks"] if not c["passed"]] == [
        "1/pi partial error at N=10^4"
    ]


_VERIFY_NAMES = [name for name, _, _ in cli._verification_checks()]


@pytest.fixture(scope="module")
def verify_margins():
    result = run_cli("verify", "--format", "json")
    return {c["name"]: c["margin"] for c in json.loads(result.stdout)["checks"]}


def test_verify_prints_its_table_in_order(verify_margins):
    assert len(_VERIFY_NAMES) == len(set(_VERIFY_NAMES)) == 12
    assert list(verify_margins) == _VERIFY_NAMES


@pytest.mark.parametrize("name", _VERIFY_NAMES)
def test_each_verify_check_runs_alone_by_name(name, verify_margins):
    ((check, tol),) = [(c, t) for n, c, t in cli._verification_checks() if n == name]
    margin = check()
    assert type(margin) is float and margin <= tol
    # no check reads anything an earlier one left behind
    assert margin == verify_margins[name]


@pytest.mark.parametrize(
    "changes",
    [
        lambda c: {"lower_refined": c.upper_refined, "upper_refined": c.lower_refined},
        lambda c: {"exact_total": math.nan},
    ],
    ids=["swapped", "nan"],
)
def test_verify_fails_a_bounds_chain_out_of_order(monkeypatch, capsys, changes):
    # the chain is the certificate's first five fields; a NaN is in no order
    bounds = cli.area_mod.bounds

    def out_of_order(params):
        cert = bounds(params)
        return cert._replace(**changes(cert))

    monkeypatch.setattr(cli.area_mod, "bounds", out_of_order)
    assert cli.main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
        "FAIL bounds ordering: margin 1 (tol 0)"
    ]


def test_import_leaves_numpy_out():
    # dataclasses brings in inspect (and ast, dis, tokenize): about a third
    # of the package's import time on every CLI call; csv output is joined
    # by hand, so the csv module is not needed either
    code = (
        "import sys, hugelschaffer.cli; "
        "print([m for m in ('numpy', 'dataclasses', 'inspect', 'csv') if m in sys.modules])"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


_DEFERRED = ("hugelschaffer.taylor", "hugelschaffer.oracle", "fractions", "decimal")


def _deferred_loaded_by(*argv):
    """The modules of ``_DEFERRED`` in ``sys.modules`` after ``cli.main``
    runs ``argv`` in a fresh interpreter (which must exit 0)."""
    code = (
        "import contextlib, io, json, sys\n"
        "from hugelschaffer import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n"
        f"print(json.dumps([m for m in {_DEFERRED!r} if m in sys.modules]))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_each_subcommand_imports_only_what_it_runs():
    egg = ("--a", "4", "--b", "3", "--w", "2")
    assert _deferred_loaded_by("area", *egg) == []
    assert _deferred_loaded_by("bounds", *egg) == []
    assert _deferred_loaded_by("sample", *egg, "--n", "9") == []
    loaded = _deferred_loaded_by("approx-table", "--target", "K")
    assert "hugelschaffer.taylor" in loaded and "hugelschaffer.oracle" not in loaded
    assert _deferred_loaded_by("pi-series", "--terms", "10") == ["decimal"]
    assert _deferred_loaded_by("verify") == list(_DEFERRED)


def _joined_csv(header, rows):
    # the writer _emit_csv replaced: each field formatted on its own, then joined
    def text(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)

    lines = [header, *([text(v) for v in row] for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


def test_csv_template_writes_what_field_by_field_formatting_did(capsys):
    rng = random.Random(7)
    floats = [0.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308, -1.0 / 3.0, 1e16,
              2.0**53 + 2.0, 0.1, 123456789.125, math.pi]
    floats += [rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-300, 300) for _ in range(300)]
    header = ["x", "neg", "i", "flag", "name"]
    rows = [(x, -x, i - 5, i % 3 == 0, f"s{i}") for i, x in enumerate(floats)]
    pairs = [("total", 36.480959716149556), ("terms", 12345), ("ok", True), ("method", "exact")]
    for head, body in ((header, rows), ([k for k, _ in pairs], [tuple(v for _, v in pairs)])):
        cli._emit_csv(head, body)
        assert capsys.readouterr().out == _joined_csv(head, body)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_csv_field_is_an_error(monkeypatch, capsys, bad):
    real_sample_egg = cli.curve_mod.sample_egg

    def sample_egg(params, n):
        ts, xs, ys = real_sample_egg(params, n)
        ys[3] = bad
        return ts, xs, ys

    monkeypatch.setattr(cli.curve_mod, "sample_egg", sample_egg)
    monkeypatch.setattr(cli.area_mod, "_inv_pi_sum", lambda n: (0.3, bad))
    for argv in (
        ["sample", "--a", "3", "--b", "2", "--w", "2", "--n", "9", "--format", "csv"],
        ["pi-series", "--terms", "10", "--format", "csv"],
    ):
        assert cli.main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: result is not finite ({bad!r})\n"


def test_series_tolerance_not_positive_is_an_error():
    for tol in ("nan", "0", "-1e-14"):
        result = run_cli(
            "area", "--a", "1", "--b", "1", "--w", "0.5", "--method", "series",
            f"--tol={tol}",
        )
        assert result.returncode == 1, tol
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr


def test_verify_has_no_tolerance_override():
    result = run_cli("verify", "--tol", "1e-3")
    assert result.returncode == 2
    assert result.stdout == ""


def test_pi_series_keeps_the_callers_decimal_precision():
    before = decimal.getcontext().prec
    assert cli.main(["pi-series", "--terms", "10"]) == 0
    assert decimal.getcontext().prec == before == 28


def test_verify_has_no_csv_format():
    result = run_cli("verify", "--format", "csv")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "invalid choice" in result.stderr


def test_sample_formats_are_csv_json_svg():
    egg = ("sample", "--a", "3", "--b", "2", "--w", "2", "--n", "9")
    result = run_cli(*egg, "--format", "human")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "invalid choice" in result.stderr
    plain = run_cli(*egg)
    assert plain.returncode == 0
    assert plain.stdout == run_cli(*egg, "--format", "csv").stdout


def test_underflowing_second_kind_is_an_error():
    # beta**3 underflows to 0 at beta = 1e-320
    result = run_cli("approx-table", "--target", "E", "--beta", "1e-320", "--max-degree", "3")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "1e-320" in result.stderr and "degree 3" in result.stderr
    assert "Traceback" not in result.stderr



def test_area_taylor_kind_is_set_by_beta():
    egg = ("area", "--a", "4", "--b", "3", "--w", "2", "--method", "taylor", "--n", "6")
    kind = run_cli(*egg, "--kind", "first")
    assert kind.returncode == 2
    assert "unrecognized arguments: --kind" in kind.stderr
    # a beta outside (0, 1] is reported, not ignored
    outside = run_cli(*egg, "--beta", "7")
    assert outside.returncode == 1
    assert outside.stdout == ""
    assert outside.stderr.startswith("error: beta must lie in")


def _usage_error(*args, flag):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"{flag} must be at least" in result.stderr


def test_grid_size_below_one_is_a_usage_error():
    for size in ("0", "-2"):
        _usage_error("approx-table", "--target", "K", "--grid-size", size, flag="--grid-size")


def test_negative_max_degree_is_a_usage_error():
    _usage_error("approx-table", "--target", "K", "--max-degree", "-1", flag="--max-degree")


def test_negative_taylor_degree_is_a_usage_error():
    _usage_error("area", "--a", "4", "--b", "3", "--w", "2", "--method", "taylor",
                 "--n", "-1", flag="--n")
