"""Experiment configuration, orchestration, and report emission.

Configs are JSON files describing one of six experiment kinds; results are
written as report.json plus CSV curve files (profiles.csv for solved states,
bands.csv for spectral scans).  Runs are deterministic: the same config and
build produce byte-identical reports apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, bloch, criteria
from .errors import (
    H2Violation,
    NoConvergence,
    ParseError,
    SgsLabError,
    ValidationError,
)
from .media import (
    FunctionDescriptor,
    PeriodicMedium,
    ProblemParams,
    compose_interface,
    dislocate,
    eval_medium,
)
from .variational import Grid, SolverOptions, solve_ground_state

KINDS = ("bloch", "groundstate", "interface", "criteria", "dislocation", "sweep")


@dataclass
class ExperimentSpec:
    kind: str
    params: ProblemParams
    media: dict = field(default_factory=dict)          # descriptor objects by role
    grid: Grid | None = None
    tol: float = 1e-8
    max_iter: int = 50_000
    lambda_list: list = field(default_factory=list)     # bloch scans
    tau: float = 0.0
    sweep: tuple | None = None                          # (parameter name, values)
    raw: dict = field(default_factory=dict)             # config echo


@dataclass
class Report:
    spec_echo: dict
    results: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """The serializable report; underscore keys (curve data) are left out."""
        return {
            "spec": self.spec_echo,
            "results": _strip_profiles(self.results),
            "provenance": self.provenance,
        }


def _descriptor(node, where: str) -> FunctionDescriptor:
    if isinstance(node, (int, float)):
        node = {"const": float(node)}
    if not isinstance(node, dict):
        raise ValidationError(f"{where}: expected a number or descriptor object")
    try:
        return FunctionDescriptor.from_json(node)
    except (SgsLabError, TypeError, ValueError) as exc:
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
    domain half-width from the decay exponent).  source is the path of a
    JSON file or an already-loaded config dict."""
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

    p = cfg.get("p", 3.0)
    lam = cfg.get("lambda", 0.0)
    try:
        params = ProblemParams(p=float(p), lam=float(lam))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"params: {exc}") from exc

    spec = ExperimentSpec(kind=kind, params=params, raw=cfg)
    spec.tol = _number(cfg.get("tol", 1e-8), "tol")
    spec.max_iter = _number(cfg.get("max_iter", 50_000), "max_iter", int)
    spec.tau = _number(cfg.get("tau", 0.0), "tau")

    media = {}
    if kind in ("groundstate", "bloch"):
        if kind == "groundstate" or "medium" in cfg:
            media["medium"] = _medium(cfg.get("medium", cfg), "medium")
        elif "V" in cfg:
            media["V"] = _descriptor(cfg["V"], "V")
        else:
            raise ValidationError("bloch: config needs a medium or a V descriptor")
    elif kind in ("interface", "criteria"):
        media["side1"] = _medium(cfg.get("side1"), "side1")
        media["side2"] = _medium(cfg.get("side2"), "side2")
    elif kind == "dislocation":
        media["V0"] = _descriptor(cfg.get("V0"), "V0")
        media["Gamma0"] = _descriptor(cfg.get("Gamma0", 1.0), "Gamma0")
        try:
            PeriodicMedium(V=media["V0"], Gamma=media["Gamma0"])
        except H2Violation as exc:
            raise ValidationError(f"Gamma0: {exc}") from exc
    elif kind == "sweep":
        axis = cfg.get("sweep")
        if (
            not isinstance(axis, dict)
            or "parameter" not in axis
            or not isinstance(axis.get("values"), list)
        ):
            raise ValidationError("sweep: needs {parameter, values} object")
        spec.sweep = (axis["parameter"], list(axis["values"]))
        base = dict(cfg)
        base["kind"] = cfg.get("base_kind", "groundstate")
        spec.raw = cfg
        media["_base"] = base
    spec.media = media

    if "lambda_list" in cfg:
        values = cfg["lambda_list"]
        if not isinstance(values, list):
            raise ValidationError("lambda_list: expected a list of numbers")
        spec.lambda_list = [_number(v, f"lambda_list[{i}]") for i, v in enumerate(values)]

    h = _number(cfg.get("h", 0.01), "h")
    if h <= 0:
        raise ValidationError("h: must be positive")
    pots = _potentials(spec)
    for V in pots:
        bottom = bloch.spectrum_min(V)
        if params.lam >= bottom:
            raise ValidationError(
                f"lambda = {params.lam} is not below the spectrum bottom {bottom}"
            )
    L = cfg.get("L_dom")
    if L is None and pots:
        L = _auto_extent(pots, params.lam)
    if L is not None:
        L = _number(L, "L_dom")
        if L <= 0:
            raise ValidationError("L_dom: must be positive")
        spec.grid = Grid.from_extent(L, h)
    return spec


def _number(value, where: str, kind=float):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: expected a number, got {value!r}") from exc


def _potentials(spec: ExperimentSpec) -> list:
    """The potentials a solving kind needs lambda below the spectrum of: one
    per medium side, the two shifted copies of V0 for a dislocation; none for
    bloch scans and sweeps."""
    if spec.kind == "dislocation":
        return [spec.media["V0"].shifted(spec.tau), spec.media["V0"].shifted(-spec.tau)]
    if spec.kind == "bloch":
        return []
    return [spec.media[key].V for key in ("medium", "side1", "side2") if key in spec.media]


def _auto_extent(pots: list, lam: float) -> float:
    """Domain half-width 12 / kappa_min so the truncated tail is ~e^-12."""
    kmin = min(bloch.bloch_modes(V, lam).kappa for V in pots)
    return max(10.0, min(12.0 / kmin, 200.0))


def _summarize_state(res, grid: Grid) -> dict:
    return {
        "energy_c": res.energy_c,
        "nehari_scale_s": res.nehari_scale_s,
        "residual": res.residual,
        "iterations": res.iterations,
        "center_of_mass": res.center_of_mass,
        "decay_rate_fit": res.decay_rate_fit,
        "grid": {"L_dom": grid.L_dom, "h": grid.h, "nodes": grid.nodes},
    }


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

    if spec.kind == "bloch":
        V = spec.media["medium"].V if "medium" in spec.media else spec.media["V"]
        lam_list = spec.lambda_list or [spec.params.lam]
        rows = []
        for lam in lam_list:
            try:
                bd = bloch.bloch_modes(V, lam)
                rows.append(
                    {
                        "lambda": float(lam),
                        "discriminant": float(bd.discriminant),
                        "kappa": float(bd.kappa),
                    }
                )
            except SgsLabError as exc:
                rows.append({"lambda": lam, "error": str(exc)})
        report.results.append({"kind": "bloch", "bands": rows})

    elif spec.kind == "groundstate":
        res = solve_ground_state(spec.media["medium"], spec.params, spec.grid, opts)
        summary = _summarize_state(res, spec.grid)
        report.results.append({"kind": "groundstate", "result": summary})
        report.results[-1]["_profile"] = (spec.grid, res.state.values, spec.media["medium"])

    elif spec.kind in ("interface", "criteria"):
        m1, m2 = spec.media["side1"], spec.media["side2"]
        m = compose_interface(m1, m2)
        c_sides = []
        for side in (m1, m2):
            r = solve_ground_state(side, spec.params, spec.grid, opts)
            c_sides.append(r.energy_c)
        res = solve_ground_state(m, spec.params, spec.grid, opts)
        verdict = criteria.energy_verdict(res.energy_c, c_sides[0], c_sides[1], tol=10 * spec.tol)
        entry = {
            "kind": spec.kind,
            "result": _summarize_state(res, spec.grid),
            "c1": c_sides[0],
            "c2": c_sides[1],
            "energy_verdict": verdict.to_json(),
        }
        if spec.kind == "criteria":
            entry["nonexistence_check"] = criteria.nonexistence_check(m).to_json()
            try:
                entry["bloch_integral_criterion"] = criteria.bloch_integral_criterion(
                    m1.V, m2.V, spec.params.lam
                ).to_json()
            except SgsLabError as exc:
                entry["bloch_integral_criterion"] = {"error": str(exc)}
            try:
                entry["boundary_condition"] = criteria.boundary_condition(m1.V, m2.V).to_json()
            except SgsLabError as exc:
                entry["boundary_condition"] = {"error": str(exc)}
        entry["_profile"] = (spec.grid, res.state.values, m)
        report.results.append(entry)

    elif spec.kind == "dislocation":
        V0, G0 = spec.media["V0"], spec.media["Gamma0"]
        rep = criteria.dislocation_report(V0, G0, spec.tau, spec.params.lam)
        entry = {"kind": "dislocation", "criterion": rep.to_json()}
        if spec.grid is not None and spec.tau != 0.0:
            m = dislocate(V0, G0, spec.tau)
            res = solve_ground_state(m, spec.params, spec.grid, opts)
            entry["result"] = _summarize_state(res, spec.grid)
            entry["_profile"] = (spec.grid, res.state.values, m)
        report.results.append(entry)

    elif spec.kind == "sweep":
        name, values = spec.sweep
        for i, value in enumerate(values):
            row_cfg = dict(spec.media["_base"])
            row_cfg.pop("sweep", None)
            row_cfg.pop("base_kind", None)
            row_cfg[name] = value
            try:
                row_report = run_experiment(parse_config(row_cfg))
                report.results.append(
                    {"row": i, name: value, "results": _strip_profiles(row_report.results)}
                )
            except SgsLabError as exc:
                report.results.append({"row": i, name: value, "error": str(exc)})
    return report


def _strip_profiles(results):
    out = []
    for entry in results:
        out.append({k: v for k, v in entry.items() if not k.startswith("_")})
    return out


def emit_report(report: Report, out_dir) -> list:
    """Write report.json plus any CSV curve files; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    profiles = []
    bands = []
    for entry in report.results:
        prof = entry.get("_profile")
        if prof is not None:
            profiles.append(prof)
        if entry.get("kind") == "bloch":
            bands.extend(entry["bands"])

    rpt = out / "report.json"
    rpt.write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    paths.append(rpt)

    if profiles:
        ppath = out / "profiles.csv"
        with ppath.open("w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["x", "u", "V", "Gamma"])
            for grid, values, medium in profiles:
                V, G = eval_medium(medium, grid.x)
                for xi, ui, vi, gi in zip(grid.x, values, np.atleast_1d(V), np.atleast_1d(G)):
                    wr.writerow([repr(float(xi)), repr(float(ui)), repr(float(vi)), repr(float(gi))])
        paths.append(ppath)

    if bands:
        bpath = out / "bands.csv"
        with bpath.open("w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["lambda", "discriminant", "kappa"])
            for row in bands:
                if "error" in row:
                    continue
                wr.writerow(
                    [
                        repr(float(row["lambda"])),
                        repr(float(row["discriminant"])),
                        repr(float(row["kappa"])),
                    ]
                )
        paths.append(bpath)
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
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"config ok: kind={spec.kind}")
        return 0

    if args.tol is not None:
        spec.tol = args.tol
    try:
        report = run_experiment(spec)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 3
    paths = emit_report(report, args.out)
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
