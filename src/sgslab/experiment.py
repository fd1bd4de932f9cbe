"""Experiment configuration, orchestration, and report emission.

Configs are JSON files describing one of six experiment kinds; results are
written as report.json plus CSV curve files (profiles.csv for solved states,
bands.csv for spectral scans), both through one writer: a header, then the
repr of each float, commas, CRLF.  Runs are deterministic: the same config
and build produce byte-identical reports apart from the timestamp field.
Floquet results (bands, kappa, the Bloch-wave criteria) do not depend on the
BLAS kernel OpenBLAS picks for the CPU; a solved state does, through the
solver's dot products, banded solves and L-BFGS-B kernel, so its bytes match
only between runs on the same kernel.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, bloch, criteria
from .errors import (
    H2Violation,
    LambdaInSpectrum,
    NoConvergence,
    NonprojectableState,
    ParseError,
    SgsLabError,
    ValidationError,
)
from .media import (
    _BREAK_TOL,
    FunctionDescriptor,
    PeriodicMedium,
    ProblemParams,
    compose_interface,
    dislocate,
    eval_medium,
)
from .variational import Grid, SolverOptions, solve_ground_state

KINDS = ("bloch", "groundstate", "interface", "criteria", "dislocation", "sweep")
# the top-level fields a sweep row's parse_config reads
SWEEP_FIELDS = ("p", "lambda", "tol", "max_iter", "tau", "h", "L_dom", "lambda_list",
                "medium", "V", "Gamma", "side1", "side2", "V0", "Gamma0")
CURVE_HEADERS = {"profiles.csv": ("x", "u", "V", "Gamma"),
                 "bands.csv": ("lambda", "discriminant", "kappa")}


@dataclass
class ExperimentSpec:
    kind: str
    params: ProblemParams
    media: dict = field(default_factory=dict)          # "medium" is the one a kind solves
    grid: Grid | None = None
    tol: float = 1e-8
    max_iter: int = 50_000
    lambda_list: list = field(default_factory=list)     # bloch scans
    tau: float = 0.0
    sweep: tuple | None = None                          # (parameter name, values)
    raw: dict = field(default_factory=dict)             # config echo


@dataclass
class Report:
    """The JSON results plus the curve files written beside them: curves maps
    a file name of CURVE_HEADERS to its rows of floats, x, u, V, Gamma of each
    solved state for profiles.csv and lambda, discriminant, kappa of each
    Bloch scan row without an error for bands.csv."""

    spec_echo: dict
    results: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"spec": self.spec_echo, "results": self.results, "provenance": self.provenance}


def _descriptor(node, where: str) -> FunctionDescriptor:
    try:
        return FunctionDescriptor.from_json(node)
    except (SgsLabError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _medium(node, where: str) -> PeriodicMedium:
    if not isinstance(node, dict) or "V" not in node or "Gamma" not in node:
        raise ValidationError(f"{where}: expected an object with V and Gamma")
    V = _descriptor(node["V"], f"{where}.V")
    G = _descriptor(node["Gamma"], f"{where}.Gamma")
    try:
        return PeriodicMedium(V=V, Gamma=G)
    except H2Violation as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def parse_config(source) -> ExperimentSpec:
    """Validate an experiment config, filling defaults (tol 1e-8, h 0.01,
    domain half-width from the decay exponent), and build the medium a
    solving kind runs as media["medium"]: the medium itself, the interface
    of side1 and side2, or the dislocation of V0 and Gamma0 by tau.  lambda
    must lie below the spectrum of each of its sides.  source is the path of
    a JSON file or an already-loaded config dict."""
    if isinstance(source, dict):
        cfg = source
    else:
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read config {source}: {exc}") from exc
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config {source} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParseError("config root must be a JSON object")

    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"kind: expected one of {KINDS}, got {kind!r}")

    try:
        params = ProblemParams(
            p=_number(cfg.get("p", 3.0), "p"), lam=_number(cfg.get("lambda", 0.0), "lambda")
        )
    except ValueError as exc:
        raise ValidationError(f"params: {exc}") from exc

    spec = ExperimentSpec(kind=kind, params=params, raw=cfg)
    spec.tol = _tol(cfg.get("tol", 1e-8), "tol")
    max_iter = _number(cfg.get("max_iter", 50_000), "max_iter")
    if not (max_iter >= 1 and max_iter.is_integer()):
        raise ValidationError(f"max_iter: must be a whole number at least 1, got {max_iter:g}")
    spec.max_iter = int(max_iter)
    spec.tau = _number(cfg.get("tau", 0.0), "tau")
    if math.ulp(spec.tau) > _BREAK_TOL:
        raise ValidationError(
            f"tau: {spec.tau:g} is too large; its float spacing {math.ulp(spec.tau):.3g} "
            f"exceeds the breakpoint tolerance {_BREAK_TOL:g}"
        )

    media = spec.media
    if kind == "groundstate":
        media["medium"] = _medium(cfg.get("medium", cfg), "medium")
    elif kind == "bloch":
        if "medium" in cfg:
            media["V"] = _medium(cfg["medium"], "medium").V
        elif "V" in cfg:
            media["V"] = _descriptor(cfg["V"], "V")
        else:
            raise ValidationError("bloch: config needs a medium or a V descriptor")
    elif kind in ("interface", "criteria"):
        media["medium"] = compose_interface(
            _medium(cfg.get("side1"), "side1"), _medium(cfg.get("side2"), "side2")
        )
    elif kind == "dislocation":
        media["V0"] = _descriptor(cfg.get("V0"), "V0")
        media["Gamma0"] = _descriptor(cfg.get("Gamma0", 1.0), "Gamma0")
        try:
            media["medium"] = dislocate(media["V0"], media["Gamma0"], spec.tau)
        except H2Violation as exc:
            raise ValidationError(f"Gamma0: {exc}") from exc
    else:  # sweep
        axis = cfg.get("sweep")
        if (
            not isinstance(axis, dict)
            or "parameter" not in axis
            or not isinstance(axis.get("values"), list)
        ):
            raise ValidationError("sweep: needs {parameter, values} object")
        name = axis["parameter"]
        if name not in SWEEP_FIELDS:
            raise ValidationError(f"sweep.parameter: expected one of {SWEEP_FIELDS}, got {name!r}")
        spec.sweep = (name, list(axis["values"]))
        base = cfg.get("base_kind", "groundstate")
        if base not in KINDS[:-1]:   # every kind but sweep
            raise ValidationError(f"base_kind: expected one of {KINDS[:-1]}, got {base!r}")

    if "lambda_list" in cfg:
        values = cfg["lambda_list"]
        if not isinstance(values, list) or not values:
            raise ValidationError("lambda_list: expected a non-empty list of numbers")
        spec.lambda_list = [_number(v, f"lambda_list[{i}]") for i, v in enumerate(values)]

    h = _number(cfg.get("h", 0.01), "h")
    if h <= 0:
        raise ValidationError("h: must be positive")
    solved = media.get("medium")
    if solved is not None:
        for i, side in enumerate(solved.sides, 1):
            try:
                bloch.check_below_spectrum(side.V, params.lam)
            except LambdaInSpectrum as exc:
                raise ValidationError(str(exc)) from exc
            except SgsLabError as exc:
                where = "medium" if len(solved.sides) == 1 else f"side{i}"
                raise ValidationError(
                    f"{where}: the spectrum bottom of V cannot be computed ({exc}), "
                    f"so lambda = {params.lam} cannot be checked against it"
                ) from exc
    L = cfg.get("L_dom")
    if L is None and solved is not None:
        L = _auto_extent([side.V for side in solved.sides], params.lam)
    if L is not None:
        L = _number(L, "L_dom")
        if L <= 0:
            raise ValidationError("L_dom: must be positive")
        spec.grid = Grid.from_extent(L, h)
    return spec


def _number(value, where: str) -> float:
    """value as a finite number; a JSON boolean is not one, nor are the NaN
    and Infinity that Python's json reads."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if np.isfinite(number):
                return number
    raise ValidationError(f"{where}: expected a finite number, got {value!r}")


def _tol(value, where: str) -> float:
    tol = _number(value, where)
    if not tol > 0:
        raise ValidationError(f"{where}: must be positive, got {tol}")
    return tol


def _auto_extent(pots: list, lam: float) -> float:
    """Domain half-width 12 / kappa_min so the truncated tail is ~e^-12."""
    try:
        kmin = min(bloch.floquet_exponent(V, lam)[2] for V in pots)
    except SgsLabError as exc:
        raise ValidationError(
            f"L_dom: the decay exponent at lambda = {lam} cannot be computed ({exc}); give L_dom"
        ) from exc
    return max(10.0, min(12.0 / kmin, 200.0))


def _record_state(report: Report, res, m: PeriodicMedium) -> dict:
    """Add x, u, V, Gamma of a solved state to the report's profiles.csv rows
    and return the state's summary."""
    grid = res.state.grid
    rows = np.column_stack((grid.x, res.state.values, *eval_medium(m, grid.x))).tolist()
    report.curves.setdefault("profiles.csv", []).extend(rows)
    return {
        "energy_c": res.energy_c,
        "residual": res.residual,
        "iterations": res.iterations,
        "center_of_mass": res.center_of_mass,
        "decay_rate_fit": res.decay_rate_fit,
        "grid": {"L_dom": grid.L_dom, "h": grid.h, "nodes": grid.nodes},
    }


def _criterion(evaluate, *args) -> dict:
    """evaluate(*args).to_json(), or {"error": ...} for the SgsLabError it raises."""
    try:
        return evaluate(*args).to_json()
    except SgsLabError as exc:
        return {"error": str(exc)}


def run_experiment(spec: ExperimentSpec) -> Report:
    """Dispatch one experiment; sweep rows run independently and a failing
    row is recorded without aborting the rest."""
    report = Report(
        spec_echo=spec.raw,
        provenance={
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    )
    opts = SolverOptions(tol=spec.tol, max_iter=spec.max_iter)

    m = spec.media.get("medium")
    if spec.kind == "bloch":
        lam_list = spec.lambda_list or [spec.params.lam]
        rows = []
        bands = report.curves["bands.csv"] = []
        for lam in lam_list:
            try:
                M, _, kappa = bloch.floquet_exponent(spec.media["V"], lam)
            except SgsLabError as exc:
                rows.append({"lambda": lam, "error": str(exc)})
                continue
            bands.append([float(lam), float(M.trace), float(kappa)])
            rows.append(dict(zip(CURVE_HEADERS["bands.csv"], bands[-1])))
        report.results.append({"kind": "bloch", "bands": rows})

    elif spec.kind == "groundstate":
        res = solve_ground_state(m, spec.params, spec.grid, opts)
        report.results.append({"kind": "groundstate", "result": _record_state(report, res, m)})

    elif spec.kind in ("interface", "criteria"):
        m1, m2 = m.sides
        c_sides = [solve_ground_state(s, spec.params, spec.grid, opts).energy_c for s in m.sides]
        res = solve_ground_state(m, spec.params, spec.grid, opts)
        verdict = criteria.energy_verdict(res.energy_c, c_sides[0], c_sides[1], tol=10 * spec.tol)
        entry = {
            "kind": spec.kind,
            "result": _record_state(report, res, m),
            "c1": c_sides[0],
            "c2": c_sides[1],
            "energy_verdict": verdict.to_json(),
        }
        if spec.kind == "criteria":
            entry["nonexistence_check"] = criteria.nonexistence_check(m).to_json()
            entry["bloch_integral_criterion"] = _criterion(
                criteria.bloch_integral_criterion, m1.V, m2.V, spec.params.lam
            )
            entry["boundary_condition"] = _criterion(criteria.boundary_condition, m1.V, m2.V)
        report.results.append(entry)

    elif spec.kind == "dislocation":
        args = (spec.media["V0"], spec.media["Gamma0"], spec.tau, spec.params.lam)
        entry = {"kind": "dislocation", "criterion": _criterion(criteria.dislocation_report, *args)}
        if spec.tau != 0.0:
            res = solve_ground_state(m, spec.params, spec.grid, opts)
            entry["result"] = _record_state(report, res, m)
        report.results.append(entry)

    else:  # sweep: the rows' curve data is not written
        name, values = spec.sweep
        for i, value in enumerate(values):
            # spec.tol carries a `run --tol` override; a swept tol still wins
            row_cfg = dict(spec.raw, kind=spec.raw.get("base_kind", "groundstate"), tol=spec.tol)
            row_cfg.pop("sweep", None)
            row_cfg.pop("base_kind", None)
            row_cfg[name] = value
            try:
                row_report = run_experiment(parse_config(row_cfg))
                report.results.append({"row": i, name: value, "results": row_report.results})
            except SgsLabError as exc:
                report.results.append({"row": i, name: value, "error": str(exc)})
    return report


def emit_report(report: Report, out_dir) -> list:
    """Write report.json plus each curve file in the bytes csv.writer gives
    (a header, then the repr of each float, commas, CRLF); returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rpt = out / "report.json"
    rpt.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    paths = [rpt]
    for name, rows in report.curves.items():
        # repr column by column: as fast as a per-row f-string, for any width
        cols = [map(repr, col) for col in zip(*rows)]
        lines = [",".join(CURVE_HEADERS[name]), *map(",".join, zip(*cols)), ""]
        path = out / name
        path.write_text("\r\n".join(lines), newline="")
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgslab",
        description="Ground states and existence criteria for the stationary "
        "nonlinear Schrödinger equation with periodic and interface coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config and write reports")
    run_p.add_argument("config")
    run_p.add_argument("--out", default="out", help="output directory (default: out)")
    run_p.add_argument("--tol", type=float, default=None, help="override solver tolerance")
    val_p = sub.add_parser("validate", help="parse and validate a config without running")
    val_p.add_argument("config")
    args = parser.parse_args(argv)

    try:
        spec = parse_config(args.config)
        if args.command == "run" and args.tol is not None:
            spec.tol = _tol(args.tol, "--tol")
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"config ok: kind={spec.kind}")
        return 0

    try:
        report = run_experiment(spec)
    except NoConvergence as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    except NonprojectableState as exc:
        print(f"solver produced no state: {exc}", file=sys.stderr)
        return 3
    paths = emit_report(report, args.out)
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
