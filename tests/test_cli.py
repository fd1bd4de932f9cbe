"""Config parsing, experiment orchestration, and report emission."""

import csv
import io
import json
import math
import tempfile

import numpy as np
import pytest

from sgslab import bloch
from sgslab.errors import ParseError, ValidationError
from sgslab.experiment import emit_report, main, parse_config, run_experiment
from sgslab.media import FunctionDescriptor, eval_medium


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parse_defaults(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "gs.json",
        {"kind": "groundstate", "medium": {"V": 1.0, "Gamma": 1.0}, "lambda": 0.0},
    )
    spec = parse_config(cfg)
    assert spec.kind == "groundstate"
    assert spec.tol == 1e-8
    assert spec.grid is not None
    assert spec.grid.h == pytest.approx(0.01, rel=1e-3)
    # auto extent: 12 / kappa with kappa = 1
    assert spec.grid.L_dom == pytest.approx(12.0, abs=1e-6)


def test_parse_rejects_unknown_kind(tmp_path):
    cfg = write_cfg(tmp_path, "bad.json", {"kind": "mystery"})
    with pytest.raises(ValidationError):
        parse_config(cfg)


def test_parse_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        parse_config(str(path))


def test_parse_missing_file():
    with pytest.raises(ParseError):
        parse_config("/nonexistent/config.json")


def test_parse_rejects_negative_nonlinearity(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "neg.json",
        {"kind": "groundstate", "medium": {"V": 1.0, "Gamma": -1.0}},
    )
    with pytest.raises(ValidationError) as exc:
        parse_config(cfg)
    assert "positive" in str(exc.value)


def test_parse_rejects_lambda_in_spectrum(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "inspec.json",
        {"kind": "groundstate", "medium": {"V": 1.0, "Gamma": 1.0}, "lambda": 2.0},
    )
    with pytest.raises(ValidationError):
        parse_config(cfg)


def test_bloch_scan_writes_bands(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "bloch.json",
        {"kind": "bloch", "V": {"const": 1.0}, "lambda_list": [-1.0, -2.0, -5.0]},
    )
    report = run_experiment(parse_config(cfg))
    paths = emit_report(report, tmp_path / "out")
    bands = [p for p in paths if p.name == "bands.csv"]
    assert bands
    with bands[0].open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[0]["kappa"]) == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_groundstate_run_writes_profile_and_report(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "gs.json",
        {
            "kind": "groundstate",
            "medium": {"V": 1.0, "Gamma": 1.0},
            "lambda": 0.0,
            "L_dom": 12.0,
            "h": 0.02,
            "tol": 1e-7,
        },
    )
    report = run_experiment(parse_config(cfg))
    paths = emit_report(report, tmp_path / "out")
    names = {p.name for p in paths}
    assert {"report.json", "profiles.csv"} <= names
    rpt = json.loads((tmp_path / "out" / "report.json").read_text())
    result = rpt["results"][0]["result"]
    assert result["energy_c"] == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert rpt["spec"]["kind"] == "groundstate"
    with (tmp_path / "out" / "profiles.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1201
    peak = max(float(r["u"]) for r in rows)
    assert peak == pytest.approx(math.sqrt(2.0), abs=0.01)
    assert all(float(r["Gamma"]) == 1.0 for r in rows[:5])


def test_sweep_runs_rows_independently(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "sweep.json",
        {
            "kind": "sweep",
            "base_kind": "bloch",
            "V": {"const": 1.0},
            "sweep": {"parameter": "lambda", "values": [-1.0, -4.0, 2.0]},
        },
    )
    report = run_experiment(parse_config(cfg))
    assert len(report.results) == 3
    assert report.results[0]["lambda"] == -1.0
    ok = report.results[0]["results"][0]["bands"][0]
    assert ok["kappa"] == pytest.approx(math.sqrt(2.0), abs=1e-8)
    # the in-spectrum row records an error instead of aborting the sweep
    bad = report.results[2]["results"][0]["bands"][0]
    assert "error" in bad


def test_sweep_invalid_row_leaves_no_temp_file(tmp_path, monkeypatch):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    cfg = write_cfg(
        tmp_path,
        "sweep.json",
        {
            "kind": "sweep",
            "base_kind": "bloch",
            "V": {"const": 1.0},
            "lambda": -1.0,
            "sweep": {"parameter": "p", "values": [3.0, "cubic"]},
        },
    )
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    assert "results" in rows[0]
    assert "error" in rows[1]
    assert list(tmp.iterdir()) == []


@pytest.mark.parametrize("parameter", [5, "lamda", "row"], ids=["number", "typo", "row"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_sweep_parameter_must_be_a_config_field(tmp_path, capsys, command, parameter):
    # unchecked, 5 broke the report's sorted keys after every row had run,
    # "lamda" ran every row at the base lambda and "row" hid each row's index
    raw = {
        "kind": "sweep", "base_kind": "bloch", "V": {"const": 1.0}, "lambda": -1.0,
        "sweep": {"parameter": parameter, "values": [-2.0, -3.0]},
    }
    with pytest.raises(ValidationError, match="^sweep.parameter"):
        parse_config(raw)
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, write_cfg(tmp_path, "sweep.json", raw), *out]) == 2
    assert "validation error: sweep.parameter" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("base_kind", ["groundstat", "sweep"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_sweep_base_kind_must_be_a_kind_a_row_runs(tmp_path, capsys, command, base_kind):
    # unchecked, validate said "config ok" and run exited 0 with every row an error
    raw = {
        "kind": "sweep", "base_kind": base_kind, "medium": {"V": 1.0, "Gamma": 1.0},
        "h": 0.08, "sweep": {"parameter": "lambda", "values": [-1.0, -2.0]},
    }
    with pytest.raises(ValidationError, match="^base_kind"):
        parse_config(raw)
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, write_cfg(tmp_path, "sweep.json", raw), *out]) == 2
    assert "validation error: base_kind" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_empty_lambda_list_is_a_validation_error(tmp_path, capsys):
    # not a scan at the base lambda
    raw = {"kind": "bloch", "V": 1.0, "lambda": -1.0, "lambda_list": []}
    with pytest.raises(ValidationError, match="^lambda_list"):
        parse_config(raw)
    cfg = write_cfg(tmp_path, "bloch.json", raw)
    assert main(["validate", cfg]) == 2
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "validation error: lambda_list" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dislocation_zero_shift_inconclusive(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "dis.json",
        {
            "kind": "dislocation",
            "V0": {"const": 1.0, "cos": [[1, 0.5]]},
            "tau": 0.0,
            "lambda": -20.0,
        },
    )
    report = run_experiment(parse_config(cfg))
    crit = report.results[0]["criterion"]
    assert crit["verdict"] == "Inconclusive"


def test_criteria_run_reports_every_criterion(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "criteria.json",
        {
            "kind": "criteria",
            "lambda": 0.0,
            "h": 0.08,
            "side1": {"V": 1.2, "Gamma": 2.0},
            "side2": {"V": 1.0, "Gamma": 1.0},
        },
    )
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    entry = json.loads((out / "report.json").read_text())["results"][0]
    assert entry["energy_verdict"]["verdict"] == "ExistenceCertified"
    assert entry["result"]["energy_c"] == pytest.approx(0.86592, abs=1e-5)
    assert entry["c1"] == pytest.approx(0.87596, abs=1e-5)
    assert entry["nonexistence_check"]["verdict"] == "Inconclusive"
    integral = entry["bloch_integral_criterion"]
    assert integral["verdict"] == "ExistenceCertified"
    assert integral["intermediates"]["integral"] == pytest.approx(-0.0811, abs=1e-4)
    boundary = entry["boundary_condition"]
    assert boundary["verdict"] == "ExistenceCertified"
    assert boundary["intermediates"]["branch"] == "value"


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = write_cfg(
        tmp_path, "ok.json", {"kind": "bloch", "V": {"const": 1.0}, "lambda": -1.0}
    )
    assert main(["validate", good]) == 0
    assert "config ok" in capsys.readouterr().out
    bad = write_cfg(tmp_path, "bad.json", {"kind": "bloch"})
    assert main(["validate", bad]) == 2


def test_cli_run_end_to_end(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "bloch.json",
        {"kind": "bloch", "V": {"const": 1.0}, "lambda_list": [-1.0, -2.0]},
    )
    out = tmp_path / "o1"
    assert main(["run", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "report.json" in printed and "bands.csv" in printed


def test_cli_run_of_a_file_that_is_not_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{kind: bloch")
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "parse error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_run_without_convergence_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "gs.json",
        {
            "kind": "groundstate",
            "medium": {"V": 1.0, "Gamma": 1.0},
            "L_dom": 10.0,
            "h": 0.1,
            "max_iter": 1,
        },
    )
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "solver did not converge" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "groundstate", "medium": {"V": 1.0, "Gamma": 1.0}},
        {
            "kind": "criteria",
            "side1": {"V": {"const": 1.0, "cos": [[1, 0.5]]}, "Gamma": 1.0},
            "side2": {"V": 1.0, "Gamma": 1.0},
        },
    ],
    ids=["groundstate", "criteria"],
)
def test_cli_unprojectable_seed_exits_3(tmp_path, capsys, config):
    # at lambda = -1e6 the seed's width is 1e-3, so on h = 0.04 it underflows
    # on every node around the periodic seed centre 0.5
    cfg = write_cfg(
        tmp_path, "deep.json", {**config, "lambda": -1e6, "L_dom": 10.0, "h": 0.04}
    )
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver produced no state: the solver's seed of width 0.001")
    assert "h = 0.04" in err
    assert not (tmp_path / "o").exists()


def test_run_deterministic_apart_from_timestamp(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "gs.json",
        {
            "kind": "groundstate",
            "medium": {"V": 1.0, "Gamma": 1.0},
            "L_dom": 10.0,
            "h": 0.05,
            "tol": 1e-7,
        },
    )
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        report = run_experiment(parse_config(cfg))
        emit_report(report, out)
        rpt = json.loads((out / "report.json").read_text())
        rpt["provenance"].pop("timestamp")
        outs.append(
            (json.dumps(rpt, sort_keys=True), (out / "profiles.csv").read_text())
        )
    assert outs[0] == outs[1]


def test_emit_report_twice_writes_identical_files(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "gs.json",
        {
            "kind": "groundstate",
            "medium": {"V": 1.0, "Gamma": 1.0},
            "L_dom": 10.0,
            "h": 0.05,
            "tol": 1e-7,
        },
    )
    report = run_experiment(parse_config(cfg))
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        emit_report(report, out)
        texts.append(((out / "report.json").read_text(), (out / "profiles.csv").read_text()))
    assert texts[0] == texts[1]
    assert "_profile" not in texts[0][0]


def _csv_writer_bytes(header, rows) -> bytes:
    expected = io.StringIO(newline="")
    wr = csv.writer(expected)
    wr.writerow(header)
    for row in rows:
        wr.writerow([repr(float(c)) for c in row])
    return expected.getvalue().encode()


def test_profiles_csv_is_the_csv_writer_format(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "iface.json",
        {
            "kind": "interface",
            "lambda": 0.0,
            "L_dom": 10.0,
            "h": 0.08,
            "side1": {"V": {"const": 1.0, "cos": [[1, 0.5]]}, "Gamma": 1.5},
            "side2": {"V": 1.0, "Gamma": 1.0},
        },
    )
    spec = parse_config(cfg)
    report = run_experiment(spec)
    emit_report(report, tmp_path / "out")
    rows = report.curves["profiles.csv"]
    x, _, V, G = np.array(rows).T
    assert np.array_equal(x, spec.grid.x)
    assert np.array_equal(np.stack((V, G)), eval_medium(spec.media["medium"], spec.grid.x))
    assert (tmp_path / "out" / "profiles.csv").read_bytes() == _csv_writer_bytes(
        ["x", "u", "V", "Gamma"], rows
    )

    # lambda = 2 lies in the spectrum of V = 1 + 0.5 cos: bands.csv leaves its row out
    V = {"const": 1.0, "cos": [[1, 0.5]]}
    cfg = write_cfg(tmp_path, "bloch.json", {"kind": "bloch", "V": V, "lambda_list": [-1.0, 2.0, -5.0]})
    report = run_experiment(parse_config(cfg))
    emit_report(report, tmp_path / "bands")
    bloch_rows = report.results[0]["bands"]
    assert [row["lambda"] for row in bloch_rows if "error" not in row] == [-1.0, -5.0]
    header = ["lambda", "discriminant", "kappa"]
    expected = [[row[k] for k in header] for row in bloch_rows if "error" not in row]
    assert (tmp_path / "bands" / "bands.csv").read_bytes() == _csv_writer_bytes(header, expected)


@pytest.mark.parametrize(
    "grid", [{"L_dom": 10, "h": 0.02}, {"h": 0.08}], ids=["L10-h0.02", "auto-h0.08"]
)
def test_groundstate_off_centre_seed_converges(tmp_path, capsys, grid):
    # the seed sits at x = 0.5 in a constant medium, whose translation mode
    # only the walls pin (exponentially weakly): the solve must still reach
    # the tolerance instead of stalling or stepping along that mode
    cfg = write_cfg(
        tmp_path,
        "gs.json",
        dict({"kind": "groundstate", "p": 3, "lambda": 0, "medium": {"V": 1, "Gamma": 1}}, **grid),
    )
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    result = json.loads((out / "report.json").read_text())["results"][0]["result"]
    assert result["residual"] < 1e-8


def test_report_echoes_config(tmp_path):
    raw = {"kind": "bloch", "V": {"const": 1.0}, "lambda": -1.0, "note_field": 7}
    cfg = write_cfg(tmp_path, "echo.json", raw)
    report = run_experiment(parse_config(cfg))
    assert report.spec_echo == raw


# in the interface kinds only side 2 (V = 1) has lambda = 2 in its spectrum
SIDES = {"side1": {"V": 3.0, "Gamma": 1.0}, "side2": {"V": 1.0, "Gamma": 1.0}}
IN_SPECTRUM = {
    "groundstate": {"kind": "groundstate", "medium": {"V": 1.0, "Gamma": 1.0}},
    "dislocation": {"kind": "dislocation", "V0": 1.0, "Gamma0": 1.0, "tau": 0.25},
    "interface": dict(SIDES, kind="interface"),
    "criteria": dict(SIDES, kind="criteria"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("kind", sorted(IN_SPECTRUM))
def test_cli_lambda_in_spectrum_exits_2(tmp_path, capsys, kind, command):
    # lambda = 2 lies in the spectrum [1, inf); with L_dom given no automatic
    # extent asks for the decay exponent, so only the parse-time gate sees it
    raw = dict(IN_SPECTRUM[kind], L_dom=10.0, **{"lambda": 2.0})
    cfg = write_cfg(tmp_path, "inspec.json", raw)
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, cfg, *out]) == 2
    err = capsys.readouterr().err
    assert "validation error: lambda = 2.0 is not below the spectrum bottom" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "raw, where",
    [
        ({"kind": "groundstate", "medium": {"V": 7e4, "Gamma": 1.0}}, "medium"),
        (dict(SIDES, kind="interface", side2={"V": 1e5, "Gamma": 1.0}), "side2"),
    ],
    ids=["groundstate", "interface"],
)
def test_cli_uncomputable_spectrum_bottom_exits_2(tmp_path, capsys, raw, where, command):
    # the bottom's bracket starts at lambda = -sup V - 10, where the monodromy
    # determinant of so deep a V is NaN: the gate cannot decide, which is bad
    # input naming the side, not a traceback
    cfg = write_cfg(tmp_path, "deep_v.json", raw)
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, cfg, *out]) == 2
    err = capsys.readouterr().err
    assert f"validation error: {where}: the spectrum bottom of V cannot be computed" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "field, value",
    [("tol", "x"), ("max_iter", "many"), ("h", None), ("L_dom", "ten"), ("tau", [0.25]),
     ("lambda_list", [-1.0, "deep"]), ("lambda_list", -1.0),
     ("tol", True), ("max_iter", True), ("lambda", False), ("tau", True), ("h", True),
     ("medium", {"V": True, "Gamma": 1.0}), ("medium", {"V": 1.0, "Gamma": {"const": True}})],
    ids=["tol", "max_iter", "h", "L_dom", "tau", "lambda_list-entry", "lambda_list-scalar",
         "tol-bool", "max_iter-bool", "lambda-bool", "tau-bool", "h-bool",
         "descriptor-bool", "descriptor-const-bool"],
)
def test_non_numeric_field_is_a_validation_error(tmp_path, capsys, field, value):
    _assert_validation_error(tmp_path, capsys, field, value)


@pytest.mark.parametrize(
    "field, value",
    [("tol", -1), ("tol", 0.0), ("max_iter", 0), ("max_iter", -3), ("max_iter", 2.5)],
    ids=["tol-negative", "tol-zero", "max_iter-zero", "max_iter-negative", "max_iter-fractional"],
)
def test_out_of_range_solver_budget_is_a_validation_error(tmp_path, capsys, field, value):
    # a non-positive tol would run the whole budget and a max_iter below 1 or
    # fractional would report a failed solve; all are bad input, not a solver outcome
    _assert_validation_error(tmp_path, capsys, field, value)


@pytest.mark.parametrize(
    "field, value",
    [("lambda", math.nan), ("lambda", -math.inf), ("L_dom", math.inf), ("h", math.inf),
     ("medium", {"V": math.nan, "Gamma": 1.0}), ("medium", {"V": 1.0, "Gamma": math.nan}),
     ("medium", {"V": {"segments": [[0.0, 0.5, 1.0], [0.5, 1.0, math.inf]]}, "Gamma": 1.0}),
     ("medium", {"V": 10**400, "Gamma": 1.0})],
    ids=["lambda-nan", "lambda-minus-inf", "L_dom-inf", "h-inf", "V-nan", "Gamma-nan",
         "segment-value-inf", "V-overflow"],
)
def test_non_finite_number_is_a_validation_error(tmp_path, capsys, field, value):
    # Python's json reads NaN and Infinity; an infinite h would run a 3-node grid
    _assert_validation_error(tmp_path, capsys, field, value)


@pytest.mark.parametrize("tau", [1e15 + 0.2, -8192.0], ids=["1e15", "minus-2^13"])
def test_unresolvable_tau_is_a_validation_error(tmp_path, capsys, tau):
    # from |tau| = 2^13 on the float spacing of tau exceeds the 1e-12
    # breakpoint tolerance, so the shift's fraction is not known
    _assert_validation_error(tmp_path, capsys, "tau", tau)
    assert parse_config({"kind": "bloch", "V": 1.0, "tau": 4096.25}).tau == 4096.25


def _assert_validation_error(tmp_path, capsys, field, value):
    base = {"kind": "groundstate", "medium": {"V": 1.0, "Gamma": 1.0}, "L_dom": 10.0, "h": 0.05}
    raw = dict(base, **{field: value})
    with pytest.raises(ValidationError, match=f"^{field}"):
        parse_config(raw)
    cfg = write_cfg(tmp_path, "bad.json", raw)
    assert main(["validate", cfg]) == 2
    assert main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"validation error: {field}" in capsys.readouterr().err


def test_sweep_row_with_non_numeric_tol_is_an_error_row(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "sweep.json",
        {
            "kind": "sweep",
            "base_kind": "bloch",
            "V": {"const": 1.0},
            "lambda": -1.0,
            "t_list": "abc",  # not a config field: ignored like any unknown key
            "sweep": {"parameter": "tol", "values": [1e-8, "x"]},
        },
    )
    report = run_experiment(parse_config(cfg))
    assert "results" in report.results[0]
    assert report.results[1]["error"].startswith("tol:")


@pytest.mark.parametrize("tol", ["-1", "0"])
def test_cli_tol_override_is_validated(tmp_path, capsys, tol):
    cfg = write_cfg(
        tmp_path, "gs.json",
        {"kind": "groundstate", "medium": {"V": 1.0, "Gamma": 1.0}, "L_dom": 10.0, "h": 0.05},
    )
    assert main(["run", cfg, "--out", str(tmp_path / "o"), "--tol", tol]) == 2
    assert "validation error: --tol: must be positive" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_tol_override_reaches_sweep_rows(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "sweep.json",
        {
            "kind": "sweep",
            "medium": {"V": 1.0, "Gamma": 1.0},
            "L_dom": 10.0,
            "h": 0.05,
            "max_iter": 5,
            "sweep": {"parameter": "lambda", "values": [0.0]},
        },
    )
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out), "--tol", "1e-30"]) == 0
    capsys.readouterr()
    row = json.loads((out / "report.json").read_text())["results"][0]
    assert "above tolerance 1e-30 after 5 iterations" in row["error"]


def test_three_node_grid_runs_without_a_decay_rate(tmp_path, capsys):
    # h = L_dom leaves one interior node: no tail to fit a decay rate to
    cfg = write_cfg(
        tmp_path, "gs.json",
        {"kind": "groundstate", "medium": {"V": 1.0, "Gamma": 1.0}, "L_dom": 10.0, "h": 10.0},
    )
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    result = json.loads((out / "report.json").read_text())["results"][0]["result"]
    assert result["grid"]["nodes"] == 3
    assert result["decay_rate_fit"] is None


def test_groundstate_sweep_in_spectrum_row_keeps_the_gate_message(tmp_path):
    cfg = write_cfg(
        tmp_path, "sweep.json",
        {
            "kind": "sweep",
            "medium": {"V": 1.0, "Gamma": 1.0},
            "h": 0.08,
            "sweep": {"parameter": "lambda", "values": [0.0, 2.0]},
        },
    )
    report = run_experiment(parse_config(cfg))
    assert "results" in report.results[0]
    bottom = bloch.spectrum_min(FunctionDescriptor(const=1.0))
    assert report.results[1] == {
        "row": 1,
        "lambda": 2.0,
        "error": f"lambda = 2.0 is not below the spectrum bottom {bottom}",
    }
    assert report.curves == {}


@pytest.mark.parametrize("lam", [-2e5, -1e6])
def test_deep_lambda_without_extent_exits_2(tmp_path, capsys, lam):
    # kappa ~ 450 overflows the determinant check of the one-period
    # monodromy, kappa ~ 1000 the monodromy itself: no automatic extent
    cfg = write_cfg(
        tmp_path, "deep.json",
        {"kind": "groundstate", "lambda": lam, "medium": {"V": 1, "Gamma": 1}},
    )
    assert main(["validate", cfg]) == 2
    err = capsys.readouterr().err
    assert "validation error: L_dom:" in err and "give L_dom" in err


def test_deep_lambda_dislocation_records_the_criterion_error(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, "deep.json",
        {
            "kind": "dislocation",
            "lambda": -1e6,
            "V0": {"const": 1.0, "cos": [[1, 0.5]]},
            "tau": 0.25,
            "L_dom": 10.0,
            "h": 0.04,
        },
    )
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    entry = json.loads((out / "report.json").read_text())["results"][0]
    assert entry["criterion"] == {
        "error": "monodromy propagation diverged at lambda = -1000000.0"
    }
    assert "result" in entry


def test_kappa_only_runs_build_no_bloch_factors(tmp_path, monkeypatch):
    # bloch rows, sweep rows and the automatic extent need kappa alone
    V = {"const": 1.0, "cos": [[1, 0.5]]}
    cfgs = {
        "bloch": {"kind": "bloch", "V": V, "lambda_list": [-1.0, -5.0, 2.0]},
        "sweep": {
            "kind": "sweep", "base_kind": "bloch", "V": V,
            "sweep": {"parameter": "lambda", "values": [-1.0, -4.0, 2.0]},
        },
        "groundstate": {"kind": "groundstate", "lambda": -1.0, "medium": {"V": V, "Gamma": 1.0},
                        "h": 0.05},
    }

    def outputs(tag):
        files = {}
        for name, cfg in cfgs.items():
            out = tmp_path / tag / name
            assert main(["run", write_cfg(tmp_path, f"{name}.json", cfg), "--out", str(out)]) == 0
            for path in sorted(out.iterdir()):
                text = path.read_text()
                if path.name == "report.json":
                    report = json.loads(text)
                    del report["provenance"]["timestamp"]
                    text = report
                files[name, path.name] = text
        return files

    before = outputs("full")

    def refuse(*args, **kwargs):
        raise AssertionError("bloch_modes called")

    monkeypatch.setattr(bloch, "bloch_modes", refuse)
    assert outputs("kappa-only") == before


def test_deep_bloch_report_is_strict_json(tmp_path, capsys):
    # kappa ~ 355 used to be written as Infinity, which is not JSON
    cfg = write_cfg(tmp_path, "deep.json", {"kind": "bloch", "V": 1.0, "lambda_list": [-126000.0]})
    out = tmp_path / "o"
    assert main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()

    def reject(name):
        raise ValueError(f"{name} in report.json")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    row = report["results"][0]["bands"][0]
    assert row["kappa"] == pytest.approx(math.sqrt(126001.0), rel=1e-12)
