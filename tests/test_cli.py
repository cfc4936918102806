import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anelor.projection
from anelor import cli
from anelor.cli import _SETTINGS, _build_parser, main, render_csv, resolve_config
from anelor.dynamics import integrate_reduced
from anelor.lorenz import critical_rayleigh, minimize_over_length
from anelor.params import PhysicalParams
from anelor.projection import closed_form_coefficients
from anelor.spectral import assemble_pencil

REPORT_HEADER = ("term,oracle,closed_form,published,"
                 "rel_dev,rel_dev_closed_form,rel_dev_published")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_table_and_exit_code(capsys):
    code, out, err = run(capsys, "coeffs", "--beta", "0.5", "--ra", "100")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 1 + 12 + 7
    assert {line.split(",")[0] for line in lines[-7:]} == {
        "e1", "e2", "e3", "e4", "e5", "e6", "e7"}
    assert "deviation" in err and "ok" in err
    # classic limit shows up in the table: e4 = -3 pi^2 / 2 at beta = 0
    code, out, _ = run(capsys, "coeffs", "--beta", "0", "--ra", "100")
    e4 = next(line for line in out.splitlines() if line.startswith("e4,"))
    assert float(e4.split(",")[1]) == pytest.approx(-1.5 * math.pi**2,
                                                    rel=1e-12)


def test_coeffs_gate_fails_on_coarse_quadrature(capsys, monkeypatch):
    # 16 points per axis leave the oracle 1.5e-4 off at beta = 60 without any
    # orthogonality error; only the gate notices
    monkeypatch.setattr(anelor.projection, "ORDER", 16)
    code, _, err = run(capsys, "coeffs", "--beta", "60")
    assert code == 1
    assert "FAIL" in err


def test_coeffs_gate_passes_at_the_oracle_domain_edge(capsys):
    code, out, err = run(capsys, "coeffs", "--beta", "354", "--l", "0.3", "--ra", "1e4")
    assert code == 0 and out.startswith(REPORT_HEADER)
    assert err.endswith(": ok\n")


def test_quiet_suppresses_the_summary(capsys):
    _, _, err = run(capsys, "coeffs", "--quiet")
    assert err == ""


def test_output_goes_to_file_not_stdout(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "coeffs", "--quiet", "--output", str(path))
    assert code == 0
    assert out == ""
    text = path.read_bytes()
    assert b"\r" not in text
    assert text.decode().splitlines()[0] == REPORT_HEADER


@pytest.mark.parametrize("argv", [
    ("coeffs", "--quiet", "--output"),
])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "table.csv"
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err == f"anelor: cannot write {path}: No such file or directory\n"


def test_byte_identical_reruns(capsys, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for path in (first, second):
        for fmt in ("csv", "json"):
            assert run(capsys, "critical", "--beta-sweep", "0", "0.5", "3",
                       "--source", "closed_form", "--format", fmt, "--quiet",
                       "--output", f"{path}.{fmt}")[0] == 0
    for fmt in ("csv", "json"):
        assert (first.parent / f"a.{fmt}").read_bytes() == \
            (first.parent / f"b.{fmt}").read_bytes()


def test_worker_pool_matches_serial_output(capsys, tmp_path):
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    base = ("critical", "--beta-sweep", "0", "1", "5", "--source",
            "closed_form", "--quiet")
    assert run(capsys, *base, "--workers", "1", "--output", str(serial))[0] == 0
    assert run(capsys, *base, "--workers", "3", "--output", str(pooled))[0] == 0
    assert serial.read_bytes() == pooled.read_bytes()


def test_critical_sweep_table(capsys):
    code, out, _ = run(capsys, "critical", "--beta-sweep", "0", "0.5", "3",
                       "--source", "closed_form", "--quiet")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "beta,length,ra_critical,ra_ratio,taylor_ratio"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[4] == ""  # no Taylor ratio at beta = 0
    assert float(first[3]) == pytest.approx(1.0, rel=1e-14)
    onsets = [float(line.split(",")[2]) for line in lines[1:]]
    assert onsets[0] == pytest.approx(27.0 * math.pi**4 / 4.0, rel=1e-12)
    assert onsets[0] < onsets[1] < onsets[2]


def test_critical_json_document(capsys, monkeypatch):
    # no row depends on Ra, and params echoes the Ra = 0 record the rows used
    monkeypatch.setenv("ANELOR_RAYLEIGH", "5")
    code, out, _ = run(capsys, "critical", "--beta", "0.25", "--format", "json",
                       "--source", "closed_form", "--quiet")
    assert code == 0
    document = json.loads(out)
    assert document["command"] == "critical"
    assert document["params"]["beta"] == 0.25 and document["params"]["rayleigh"] == 0.0
    assert document["columns"] == ["beta", "length", "ra_critical",
                                   "ra_ratio", "taylor_ratio"]
    (row,) = document["rows"]
    assert row[3] > 1.0 and row[4] > 0.0


def test_critical_computes_each_flat_reference_once(capsys, monkeypatch):
    # the beta = 0 reference depends on the width only: one call per width, which
    # the beta = 0 row of that width reuses
    calls = []

    def counting(params, *args):
        calls.append(params)
        return critical_rayleigh(params, *args)

    monkeypatch.setattr(cli, "critical_rayleigh", counting)
    code, out, _ = run(capsys, "critical", "--source", "closed_form", "--quiet",
                       "--beta-sweep", "0", "1", "5", "--l-sweep", "2", "3", "3")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 15 and len(calls) == 15
    assert len(set(calls)) == len(calls)
    assert [float(row[3]) for row in rows if row[0] == "0"] == [1.0] * 3


def test_critical_optimize_l_minimizes_once_per_beta_point(capsys, monkeypatch):
    # one width minimization per beta point; the beta = 0 row is the reference
    calls, direct = [], []

    def counting(**keywords):
        calls.append(keywords["beta"])
        return minimize_over_length(**keywords)

    monkeypatch.setattr(cli, "minimize_over_length", counting)
    monkeypatch.setattr(cli, "critical_rayleigh", lambda *args: direct.append(args))
    code, out, _ = run(capsys, "critical", "--source", "closed_form", "--quiet",
                       "--beta-sweep", "0", "1", "5", "--optimize-l")
    assert code == 0 and len(out.splitlines()) == 1 + 5
    assert calls == [0.0, 0.25, 0.5, 0.75, 1.0] and direct == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_critical_reports_a_failing_reference_before_any_row(capsys, workers):
    # the row at beta = 7, l = 4.2 has no onset either, but the references run first
    code, out, err = run(capsys, "critical", "--l-sweep", "4.2", "1e300", "2", "--beta", "7",
                         "--source", "closed_form", "--workers", workers)
    assert (code, out) == (1, "")
    assert err.startswith("anelor: no onset at beta = 0.0, l = 1e+300: ")


@pytest.mark.parametrize("argv", [
    ("critical", "--beta", "-0", "--source", "closed_form"),
    ("validate", "--beta", "-0", "--n-modes", "1"),
])
def test_negative_zero_beta_prints_zero(capsys, argv):
    code, out, _ = run(capsys, *argv, "--quiet")
    assert code == 0
    assert out.splitlines()[1].split(",")[0] == "0"


def test_zero_beta_coeffs_print_no_negative_zero(capsys):
    # gamma * beta^2 times a negative factor is -0.0 at beta = 0 on every route
    code, out, _ = run(capsys, "coeffs", "--beta", "0", "--quiet")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[1:] for line in out.splitlines()[1:]}
    assert rows["gamma-term"][:3] == ["0", "0", "0"]
    assert "-0" not in [cell for cells in rows.values() for cell in cells]
    code, out, _ = run(capsys, "coeffs", "--beta", "0", "--quiet", "--format", "json")
    zeros = [v for row in json.loads(out)["rows"] for v in row[1:] if v == 0.0]
    assert code == 0 and zeros and all(math.copysign(1.0, v) > 0.0 for v in zeros)


def test_negative_zero_rayleigh_prints_zero(capsys):
    code, out, _ = run(capsys, "coeffs", "--ra", "-0", "--quiet")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")[1:4] for line in out.splitlines()[1:]}
    for term in ("buoyancy-omega", "source-tau", "e2", "e5"):
        assert rows[term] == ["0", "0", "0"]


def test_critical_without_a_reduced_onset_fails_in_one_line(capsys):
    code, out, err = run(capsys, "critical", "--beta", "7", "--optimize-l")
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err == ("anelor: no width minimizes Ra* at beta = 7.0: it falls toward the width "
                   "where e4 = 0, l = 4.07245\n")


def test_critical_optimize_l_rejects_the_published_route(capsys):
    code, out, err = run(capsys, "critical", "--optimize-l", "--source", "published")
    assert (code, out) == (2, "")
    assert err.startswith("anelor: source must be oracle or closed_form")


def _simulate_defaults(t_end=20.0, rtol=1e-10, atol=1e-12, initial=(1e-3, 1e-3, 1e-3)):
    """integrate_reduced with simulate's default settings but those given."""
    coeffs = closed_form_coefficients(PhysicalParams(rayleigh=1500.0))
    return integrate_reduced(coeffs, initial, t_end, rtol, atol)


# a command line that breaks one library rule -> the call of its owner on the same value
DELEGATED = {
    "simulate --t-end inf": lambda: _simulate_defaults(t_end=math.inf),
    "simulate --t-end 0": lambda: _simulate_defaults(t_end=0.0),
    "simulate --t-end -1": lambda: _simulate_defaults(t_end=-1.0),
    "simulate --t-end 5e-324": lambda: _simulate_defaults(t_end=5e-324),
    "simulate --rtol 1": lambda: _simulate_defaults(rtol=1.0),
    "simulate --atol 0": lambda: _simulate_defaults(atol=0.0),
    "simulate --initial nan 0 0": lambda: _simulate_defaults(initial=(math.nan, 0.0, 0.0)),
    "validate --m 0": lambda: assemble_pencil(PhysicalParams(), m=0),
    "validate --n-modes 0": lambda: assemble_pencil(PhysicalParams(), n_modes=0),
    "critical --optimize-l --source published": lambda: minimize_over_length(source="published"),
}


@pytest.mark.parametrize("command", list(DELEGATED))
def test_usage_errors_quote_the_library_rule_they_delegate_to(capsys, command):
    # the command line restates none of these rules: it prints the owner's message
    argv = command.split() + (["--ra", "1500"] if command.startswith("simulate") else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    with pytest.raises(ValueError) as info:
        DELEGATED[command]()
    assert err == f"anelor: {info.value}\n"


def test_only_simulate_builds_the_output_grid(capsys, monkeypatch):
    # a grid of 1e8 samples would take 800 MB; coeffs reads no run setting, so it
    # never checks the run rules
    calls = []
    monkeypatch.setattr(cli, "_check_run", lambda *args, **keywords: calls.append(args))
    monkeypatch.setenv("ANELOR_SAMPLES", "100000000")
    code, _, _ = run(capsys, "coeffs", "--quiet")
    assert (code, calls) == (0, [])


def test_critical_optimize_l(capsys):
    code, out, _ = run(capsys, "critical", "--optimize-l", "--format", "json",
                       "--source", "closed_form", "--quiet")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row[1] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert row[2] == pytest.approx(27.0 * math.pi**4 / 4.0, rel=1e-6)


def test_simulate_reduced_csv(capsys):
    code, out, _ = run(capsys, "simulate", "--coords", "abc", "--ra", "500",
                       "--t-end", "2", "--samples", "5", "--initial",
                       "1", "2", "3", "--source", "closed_form", "--quiet")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "t,A,B,C"
    assert len(lines) == 6
    assert [float(cell) for cell in lines[1].split(",")] == [0.0, 1.0, 2.0, 3.0]
    assert float(lines[-1].split(",")[0]) == 2.0


def test_simulate_both_reports_equivalence(capsys):
    code, out, _ = run(capsys, "simulate", "--ra", "1500", "--beta", "0.2",
                       "--t-end", "5", "--samples", "101", "--format", "json",
                       "--source", "closed_form", "--quiet")
    assert code == 0
    document = json.loads(out)
    assert document["columns"] == ["s", "X", "Y", "Z", "X_from_abc",
                                   "Y_from_abc", "Z_from_abc"]
    assert document["equivalence_deviation"] < 1e-6
    assert document["lorenz"]["sigma"] > 0.0 and document["lorenz"]["r"] > 1.0
    assert document["scaling"]["d"] > 0.0
    assert len(document["rows"]) == 101


def test_validate_routes(capsys):
    code, out, _ = run(capsys, "validate", "--beta", "0.3", "--n-modes", "1",
                       "2", "--format", "json", "--quiet")
    assert code == 0
    document = json.loads(out)
    assert list(document) == ["command", "params", "route_consistency", "columns", "rows"]
    assert document["columns"] == ["beta", "m", "n_modes", "ra_critical",
                                   "ra_reduced", "rel_dev"]
    gate = document["route_consistency"]
    assert gate["passed"] is True and gate["rel_dev"] < 1e-8


# ra_critical for N = 1, 2, 4, 8, 16 at the default Pr, gamma and l, as
# computed by a growth-rate bisection settled to |growth| < 1e-10
VALIDATE_GOLDEN = {
    "0.3": [769.8158790617526, 768.2693100548477, 768.2853740561768,
            768.2920008278415, 768.2933781097745],
    "5": [22879.11014036581, 20312.524025939638, 17356.76481775954,
          17156.90391715725, 17154.93331680591],
}


@pytest.mark.parametrize("beta", sorted(VALIDATE_GOLDEN))
def test_validate_onsets_match_golden_values(capsys, beta):
    code, out, _ = run(capsys, "validate", "--beta", beta, "--n-modes", "1",
                       "2", "4", "8", "16", "--format", "json", "--quiet")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row[2] for row in rows] == [1, 2, 4, 8, 16]
    for row, expected in zip(rows, VALIDATE_GOLDEN[beta]):
        assert abs(row[3] - expected) <= 1e-9 * expected


def test_validate_raises_the_order_for_high_truncations(capsys):
    code, out, _ = run(capsys, "validate", "--beta", "1", "--l", "2.83",
                       "--n-modes", "56", "--quiet")
    assert code == 0
    ra = float(out.splitlines()[1].split(",")[3])
    assert math.isfinite(ra) and abs(ra - 1152.378) < 1e-3


def test_validate_reduced_onset_matches_the_exact_n1_pencil(capsys):
    # the reduced side runs the oracle, as critical does; its onset is the exact
    # N = 1 pencil's to rounding (1.7e-16)
    code, out, _ = run(capsys, "validate", "--beta", "3", "--n-modes", "1",
                       "--format", "json", "--quiet")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row[4] == critical_rayleigh(PhysicalParams(beta=3.0), "oracle")
    assert row[5] <= 1e-14


@pytest.mark.parametrize("harmonic", [2, 3])
def test_validate_compares_a_harmonic_with_the_reduced_onset_at_its_width(capsys, harmonic):
    # the pencil of harmonic m at width l is the first harmonic's at l/m
    code, out, _ = run(capsys, "validate", "--beta", "1.5", "--m", str(harmonic),
                       "--n-modes", "1", "2", "--format", "json", "--quiet")
    assert code == 0
    document = json.loads(out)
    narrow = PhysicalParams(beta=1.5, length=PhysicalParams().length / harmonic)
    expected = critical_rayleigh(narrow, "oracle")
    for row in document["rows"]:
        assert row[1] == harmonic and row[4] == expected
    gate = document["route_consistency"]
    assert gate["passed"] is True and gate["rel_dev"] <= cli.ROUTE_GATE


def test_validate_reports_the_pencil_past_the_reduced_e4_edge(capsys):
    # at l = 2 sqrt(2) the three-mode e4 is positive from beta = 7.75, where the
    # N = 2 and N = 8 pencils still have onsets and the N = 1 pencil has none
    code, out, err = run(capsys, "validate", "--beta", "7.75", "--n-modes", "2", "8",
                         "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert [row[2:] for row in document["rows"]] == [
        [2, pytest.approx(193670.579, rel=1e-8), None, None],
        [8, pytest.approx(80500.681, rel=1e-8), None, None]]
    assert document["route_consistency"]["rel_dev"] is None
    assert document["route_consistency"]["passed"] is None
    assert err.startswith("route consistency not checked (reduced route: no onset at "
                          "beta = 7.75, l = 2.8284271247461903: ")
    code, out, err = run(capsys, "validate", "--beta", "7.75", "--n-modes", "2", "1")
    assert (code, out) == (1, "")
    assert "beta = 7.75, l = 2.8284271247461903, N = 1: " in err


def test_validate_without_n1_leaves_the_route_check_open(capsys):
    code, out, err = run(capsys, "validate", "--beta", "0.3", "--n-modes", "2", "--format", "json")
    assert code == 0
    consistency = json.loads(out)["route_consistency"]
    assert consistency["rel_dev"] is None and consistency["passed"] is None
    assert err == "route consistency not checked (no N=1 truncation requested)\n"


def test_environment_and_config_precedence(capsys, tmp_path, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("# comment\nbeta = 0.1\nsource = closed_form\n")

    def sweep_beta(*argv):
        code, out, _ = run(capsys, "critical", "--format", "json", "--quiet",
                           "--config", str(config), *argv)
        assert code == 0
        return json.loads(out)["params"]["beta"]

    assert sweep_beta() == 0.1
    monkeypatch.setenv("ANELOR_BETA", "0.2")
    assert sweep_beta() == 0.2
    assert sweep_beta("--beta", "0.4") == 0.4
    # an environment "off" overrides a file's "yes", and the summary comes back
    config.write_text("quiet = yes\nsource = closed_form\n")
    assert run(capsys, "critical", "--config", str(config))[2] == ""
    monkeypatch.setenv("ANELOR_QUIET", "off")
    code, _, err = run(capsys, "critical", "--config", str(config))
    assert code == 0 and err != ""


def test_json_config_file(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"beta": 0.15, "source": "closed_form",
                                  "quiet": True}))
    code, out, err = run(capsys, "critical", "--format", "json",
                         "--config", str(config))
    assert code == 0
    assert err == ""
    assert json.loads(out)["params"]["beta"] == 0.15


def test_json_null_output_means_unset(capsys, tmp_path, monkeypatch):
    # null is "not set" for every key: each setting keeps its default, so the table goes
    # to stdout, no file named None appears and {"beta": null} leaves beta at 0
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({name: None for name in _SETTINGS}))
    for argv, header in ((("critical", "--source", "closed_form"), "beta,length,ra_critical"),
                         (("validate", "--n-modes", "1"), "beta,m,n_modes")):
        expected = run(capsys, *argv, "--quiet")[:2]
        code, out, _ = run(capsys, *argv, "--quiet", "--config", str(config))
        assert (code, out) == expected
        assert out.startswith(header)
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("contents,fragment", [
    ("beta = 0.1\nwhatever = 3\n", "whatever"),
    ("beta 0.1\n", ":1:"),
    ("beta = fast\n", "beta"),
    ('{"beta": [1, 2]}', "beta"),
    ('{"samples": 1%s}' % ("0" * 400), "samples"),
    ('{"beta": 1%s}' % ("0" * 400), "beta must be a finite number >= 0, got inf"),
    ('{"n_modes": 513}', "n_modes"),
    ('{"report": "report.csv"}', "report"),
    ('{"order": 64}', "order"),
    ('{"beta": true}', "beta"),
    ('{"samples": true}', "samples"),
    # an integer setting takes no float, not even an integral one
    ('{"m": 2.0}', "field 'm'"),
    ("samples = 11.0\n", "field 'samples'"),
    ('{"beta": ', "invalid JSON"),
    # config lines share the coercion of environment values
    ("quiet = maybe\n", "quiet"),
    ("beta_sweep = 0 1\n", "beta_sweep"),
    ("n_modes =\n", "n_modes"),
    ("initial = 1 2\n", "initial"),
])
def test_malformed_config_is_a_usage_error(capsys, tmp_path, contents,
                                           fragment):
    config = tmp_path / "bad.cfg"
    config.write_text(contents)
    # each row runs a subcommand that reads its key, since the others convert none
    setting = _SETTINGS.get(re.match(r"\W*(\w+)", contents).group(1))
    command = min(setting.commands) if setting else "critical"
    code, _, err = run(capsys, *QUICK[command], "--config", str(config))
    assert code == 2
    assert fragment in err


def test_missing_config_file(capsys, tmp_path):
    code, _, err = run(capsys, "critical", "--config",
                       str(tmp_path / "absent.cfg"))
    assert code == 2 and "absent.cfg" in err


@pytest.mark.parametrize("argv", [
    ("coeffs", "--beta", "-1"),
    ("critical", "--workers", "0"),
    ("simulate", "--coords", "xyz", "--ra", "0"),
    ("simulate", "--ra", "100", "--samples", "1"),
    ("simulate", "--ra", "100", "--rtol", "2"),
    ("critical", "--beta-sweep", "1", "0", "5"),
    ("critical", "--l-sweep", "1", "2", "3", "--optimize-l"),
    ("validate", "--n-modes", "0"),
    ("validate", "--n-modes", "1e400"),
    ("critical", "--beta-sweep", "0", "1", "1e400"),
    ("critical", "--beta-sweep", "-1", "1", "3"),
    ("critical", "--l-sweep", "0", "2", "3"),
    ("critical", "--beta-sweep", "0", "inf", "3"),
    ("simulate", "--ra", "100", "--t-end", "0"),
    ("simulate", "--ra", "1500", "--t-end", "inf"),
    ("critical", "--beta-sweep", "0", "1", "0"),
    ("simulate", "--ra", "100", "--initial", "nan", "0", "0"),
    ("coeffs", "--pr", "0"),
    ("coeffs", "--ra", "-1"),
    ("coeffs", "--gamma", "0.3"),
    ("simulate", "--ra", "1500", "--samples", "11.0"),
    ("validate", "--m", "1e0"),
    ("validate", "--n-modes", "1.0"),
    ("critical", "--workers", "2.0"),
    ("critical", "--beta-sweep", "0", "1", "3.0"),
])
def test_invalid_settings_exit_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("anelor:")


@pytest.mark.parametrize("variable, value, argv", [
    ("ANELOR_FORMAT", "xml", ("coeffs",)),
    # a flag overrides the variable, but the variable's value must convert all the same,
    # a choice as a number does
    ("ANELOR_SOURCE", "bogus", ("critical", "--source", "oracle")),
    ("ANELOR_BETA", "fast", ("critical", "--beta", "0.3")),
])
def test_bad_environment_value_is_a_usage_error(capsys, monkeypatch, variable, value, argv):
    monkeypatch.setenv(variable, value)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"anelor: environment: field {variable[len('ANELOR_'):].lower()!r}: ")


@pytest.mark.parametrize("variable", ["ANELOR_BETTA", "ANELOR_REPORT", "ANELOR_ORDER"])
def test_unknown_environment_variable_is_a_usage_error(capsys, monkeypatch, variable):
    # a misspelt setting, or the removed --report or --order, exits 2 as in a config file
    monkeypatch.setenv(variable, "3")
    code, out, err = run(capsys, "critical", "--source", "closed_form")
    assert code == 2 and out == ""
    assert err.startswith("anelor:") and repr(variable[len("ANELOR_"):].lower()) in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ("coeffs", "--beta", "711"),
    ("critical", "--beta", "800", "--source", "closed_form"),
    ("validate", "--beta", "709", "--n-modes", "2"),
    *((command, "--beta", beta, *extra) for beta in ("1e78", "1e103", "1e300")
      for command, *extra in (("coeffs",), ("critical", "--source", "closed_form"),
                              ("validate", "--n-modes", "2"))),
    ("critical", "--beta", "1e300", "--optimize-l", "--source", "closed_form"),
])
def test_overflowing_stratification_is_a_numeric_failure(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("anelor:") and len(err.splitlines()) == 1


def test_n_modes_above_512_is_a_usage_error_from_every_source(capsys, monkeypatch, tmp_path):
    parsed = _build_parser().parse_args(["validate", "--n-modes", "1", "512"])
    assert resolve_config(parsed).n_modes == (1, 512)
    code, _, err = run(capsys, "validate", "--n-modes", "2", "513")
    assert code == 2 and "n_modes" in err
    config = tmp_path / "run.cfg"
    config.write_text("n_modes = 513\n")
    code, _, err = run(capsys, "validate", "--config", str(config))
    assert code == 2 and "n_modes" in err
    monkeypatch.setenv("ANELOR_N_MODES", "513")
    code, _, err = run(capsys, "validate")
    assert code == 2 and "n_modes" in err


def test_huge_environment_integer_is_a_usage_error(capsys, monkeypatch):
    for value in ("1e400", "11.0"):  # neither is an integer's text
        monkeypatch.setenv("ANELOR_SAMPLES", value)
        code, _, err = run(capsys, "simulate", "--ra", "1500")
        assert code == 2 and err.startswith("anelor:") and "samples" in err


@pytest.mark.parametrize("name, typed, text", [
    ("m", 2.0, "2.0"),
    ("beta", 10**400, "1e400"),  # both are inf as a float
    ("initial", [1, 2], "1 2"),
    ("n_modes", [1, 513], "1 513"),
    ("quiet", 2, "2"),
])
def test_a_value_fails_with_one_message_from_every_source(name, typed, text, capsys,
                                                          monkeypatch, tmp_path):
    # a JSON value reaches its conversion as text, as an environment value does
    config = tmp_path / "run.json"
    config.write_text(json.dumps({name: typed}))
    argv = QUICK[min(_SETTINGS[name].commands)]
    code, _, from_config = run(capsys, *argv, "--config", str(config))
    monkeypatch.setenv("ANELOR_" + name.upper(), text)
    assert code == 2
    assert run(capsys, *argv) == (2, "", from_config.replace(str(config), "environment"))


# one value per setting, each unlike its default, in the form a flag takes
SAMPLES = {
    "beta": "0.5", "prandtl": "7", "rayleigh": "900", "gamma": "1",
    "length": "3", "source": "closed_form", "format": "json",
    "output": "table.csv", "quiet": "true", "workers": "2",
    "beta_sweep": "0 1 3", "l_sweep": "2 3 2", "optimize_l": "true",
    "coords": "abc", "t_end": "5", "samples": "11", "rtol": "1e-8",
    "atol": "1e-9", "initial": "1 2 3", "n_modes": "1 2", "m": "2",
}
# the same values as a JSON config file types them
TYPED = {
    "beta": 0.5, "prandtl": 7, "rayleigh": 900, "gamma": 1, "length": 3,
    "source": "closed_form", "format": "json", "output": "table.csv", "quiet": True,
    "workers": 2, "beta_sweep": [0, 1, 3], "l_sweep": [2, 3, 2], "optimize_l": True,
    "coords": "abc", "t_end": 5, "samples": 11, "rtol": 1e-8, "atol": 1e-9,
    "initial": [1, 2, 3], "n_modes": [1, 2], "m": 2,
}


@pytest.mark.parametrize("name", list(_SETTINGS))
def test_flag_environment_and_config_file_agree(name, monkeypatch, tmp_path):
    def resolve(*argv):
        return resolve_config(_build_parser().parse_args(argv))

    setting, value = _SETTINGS[name], SAMPLES[name]
    command = min(setting.commands)
    base = ("--ra", "100") if command == "simulate" else ()
    flag = [setting.flags[-1]]
    if setting.keywords.get("action") != "store_const":
        flag += value.split()
    config = tmp_path / "run.cfg"
    config.write_text(f"{name} = {value}\n")
    typed = tmp_path / "run.json"
    typed.write_text(json.dumps({name: TYPED[name]}))

    from_flag = resolve(command, *base, *flag)
    assert from_flag != resolve(command, *base)
    assert resolve(command, *base, "--config", str(config)) == from_flag
    assert resolve(command, *base, "--config", str(typed)) == from_flag
    monkeypatch.setenv("ANELOR_" + name.upper(), value)
    assert resolve(command, *base) == from_flag


# the flags each subcommand takes besides --config, which every one takes
EVERY = {"--beta", "--pr", "--gamma", "--l", "--length", "--format", "--output", "--quiet"}
FLAGS = {
    "coeffs": EVERY | {"--ra"},
    "critical": EVERY | {"--source", "--workers", "--beta-sweep", "--l-sweep", "--optimize-l"},
    "simulate": EVERY | {"--ra", "--source", "--coords", "--t-end", "--samples", "--rtol",
                         "--atol", "--initial"},
    "validate": EVERY | {"--source", "--n-modes", "--m"},
}


@pytest.mark.parametrize("command", list(FLAGS))
@pytest.mark.parametrize("name", list(_SETTINGS))
def test_each_subcommand_takes_only_the_flags_it_reads(name, command, capsys, monkeypatch,
                                                      tmp_path):
    # argparse rejects a flag the subcommand does not read, and the environment
    # and config files set no setting the subcommand does not read
    setting, value = _SETTINGS[name], SAMPLES[name]
    values = [] if setting.keywords.get("action") == "store_const" else value.split()
    for flag in setting.flags:
        if flag in FLAGS[command]:
            parsed = _build_parser().parse_args([command, flag, *values])
            assert getattr(resolve_config(parsed), name) == setting.coerce(value)
            continue
        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args([command, flag, *values])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join([flag, *values])}" in capsys.readouterr().err
    base = ["--ra", "100"] if command == "simulate" and name != "rayleigh" else []
    config = tmp_path / "run.cfg"
    config.write_text(f"{name} = {value}\n")
    from_config = resolve_config(_build_parser().parse_args(
        [command, *base, "--config", str(config)]))
    monkeypatch.setenv("ANELOR_" + name.upper(), value)
    from_environment = resolve_config(_build_parser().parse_args([command, *base]))
    if command not in setting.commands:
        assert not hasattr(from_config, name) and not hasattr(from_environment, name)
        return
    assert getattr(from_config, name) == getattr(from_environment, name) == \
        setting.coerce(value)


# settings that break a rule of a subcommand reading the row's setting, each in the
# form a flag takes; optimize_l breaks one only beside an l_sweep. The rows that every
# subcommand reads (beta, format, ...) have no subcommand outside theirs.
INVALID = {
    "rayleigh": {"rayleigh": "-1"}, "source": {"source": "xml"}, "workers": {"workers": "0"},
    "beta_sweep": {"beta_sweep": "1 0 5"}, "l_sweep": {"l_sweep": "0 2 3"},
    "optimize_l": {"optimize_l": "true", "l_sweep": "2 3 2"}, "coords": {"coords": "xyzw"},
    "t_end": {"t_end": "0"}, "samples": {"samples": "1"}, "rtol": {"rtol": "2"},
    "atol": {"atol": "0"}, "initial": {"initial": "nan 0 0"}, "n_modes": {"n_modes": "513"},
    "m": {"m": "0"},
}
# a text per row of INVALID that its conversion rejects
MALFORMED = {name: {name: text} for name, text in {
    "rayleigh": "fast", "source": "bogus", "workers": "x", "beta_sweep": "0 1",
    "l_sweep": "2 3 4 5", "optimize_l": "maybe", "coords": "xyz,abc", "t_end": "soon",
    "samples": "1e400", "rtol": "tight", "atol": "1e-9 1e-9", "initial": "1 2",
    "n_modes": "1 2.5", "m": "1.5"}.items()}
QUICK = {"coeffs": ("coeffs", "--quiet"), "critical": ("critical", "--quiet"),
         "simulate": ("simulate", "--ra", "1500", "--quiet"), "validate": ("validate", "--quiet")}


def test_the_invalid_values_cover_every_row_some_subcommand_does_not_read():
    assert list(INVALID) == list(MALFORMED) == [
        name for name, setting in _SETTINGS.items() if setting.commands != set(FLAGS)]


@pytest.mark.parametrize("table", [INVALID, MALFORMED], ids=["invalid", "malformed"])
@pytest.mark.parametrize("name", list(INVALID))
def test_an_invalid_value_fails_a_subcommand_that_reads_it(name, table, capsys, monkeypatch):
    for field, value in table[name].items():
        monkeypatch.setenv("ANELOR_" + field.upper(), value)
    code, out, err = run(capsys, *QUICK[min(_SETTINGS[name].commands)])
    assert (code, out) == (2, "") and err.startswith("anelor:")


@pytest.mark.parametrize("table", [INVALID, MALFORMED], ids=["invalid", "malformed"])
@pytest.mark.parametrize("name, command", [
    (name, command) for name in INVALID for command in QUICK
    if command not in _SETTINGS[name].commands])
def test_a_subcommand_ignores_the_settings_it_does_not_read(name, command, table, capsys,
                                                            monkeypatch, tmp_path):
    # a subcommand neither converts nor checks a setting it does not read, from the
    # environment or a config file
    expected = run(capsys, *QUICK[command])[:2]
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{field} = {value}\n" for field, value in table[name].items()))
    assert run(capsys, *QUICK[command], "--config", str(config))[:2] == expected
    for field, value in table[name].items():
        monkeypatch.setenv("ANELOR_" + field.upper(), value)
    assert run(capsys, *QUICK[command])[:2] == expected


def test_argparse_rejects_unknown_commands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", "--report", "report.csv"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["coeffs", "--order", "64"])
    assert excinfo.value.code == 2


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c",
         "import anelor.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True, timeout=60)


def test_package_import_does_not_load_the_cli():
    # the package re-exports every module's __all__ but the command line's
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import anelor, sys; print(sorted(set(sys.modules) & "
            "{'anelor.cli', 'argparse', 'concurrent.futures', 'scipy'}))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


def test_csv_round_trip_and_line_endings():
    times = np.array([0.0, 0.5, 2.0])
    states = np.array([[1.0, 2.0, 3.0],
                       [0.1, 1.0 / 3.0, 6.02e23],
                       [-1e-300, 0.0, math.pi]])
    text = render_csv(("t", "A", "B", "C"), np.column_stack([times, states]))
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[0] == "t,A,B,C"
    assert lines[-1] == ""
    for k, line in enumerate(lines[1:-1]):
        cells = line.split(",")
        assert len(cells) == 4
        assert float(cells[0]) == times[k]
        assert [float(cell) for cell in cells[1:]] == list(states[k])
