"""The benchmark's three workloads: inputs made from the seed, the timed
operations, and the checks of each operation's output.

Every operation is timed alone; its check runs after it, untimed, and returns
a list of problems (empty when the output is right).  Checks compare with
`reference`, which shares no code with sgslab.  An operation carries the name
of a known fault when it fails because of that fault on every run; see
README.md.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

MATHIEU = {"const": 1.0, "cos": [[1, 0.5]]}
KP_DYADIC = [[0.0, 0.5, -1.0], [0.5, 1.0, 3.0]]
KP_OFFGRID = [[0.0, 0.3, -1.0], [0.3, 1.0, 3.0]]

# trapezoid sample spacing of sgslab's criteria integrals (2049 samples)
CRITERIA_DX = 1.0 / 2048.0
# relative accuracy of the fixed-step monodromy: RK4 with h = 1/4096 on a
# potential whose jumps sit on step nodes is good to ~1e-9 (about h^2 / 60)
MONODROMY_RTOL = 1e-6


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]
    fault: str | None = None


def _problem(ok: bool, text: str) -> list:
    return [] if ok else [text]


def _close(a: float, b: float, tol: float, what: str) -> list:
    return _problem(abs(a - b) <= tol, f"{what}: {a!r} vs reference {b!r} (tol {tol:.3g})")


# -- running a config through the command-line entry point ------------------------


def _config_op(name, cfg, workdir: Path, check, fault=None) -> Op:
    from sgslab import experiment

    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=1))
    out = workdir / name

    def run():
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return experiment.main(["run", str(path), "--out", str(out)])

    def checked(rc, seen):
        if rc != 0:
            return [f"sgslab run exited with {rc}"]
        report = json.loads((out / "report.json").read_text())
        return check(cfg, report, out, seen)

    return Op(name, run, checked, fault)


def _profile_checks(cfg, report_state, x, u, V, G) -> list:
    """Residual, Nehari identity, energy and positivity recomputed from
    the profiles.csv samples with V and Gamma from the benchmark's own
    evaluation."""
    lam, p = cfg.get("lambda", 0.0), cfg.get("p", 3.0)
    Q, _, J, res = ref.discrete_terms(x, u, V(x), G(x), lam, p)
    tol = cfg.get("tol", 1e-8)
    peak = float(np.max(np.abs(u)))
    probs = []
    # the solver stops below tol in this norm; rounding in the recomputation
    # is far below tol
    probs += _problem(res <= 2.0 * tol, f"strong-form residual {res:.3e} above {2 * tol:.1e}")
    probs += _close(report_state["energy_c"], J, 1e-9 * abs(J),
                    "reported energy vs J recomputed from the profile")
    # on the constraint set N = Q, so J = Q/2 - N/(p+1) = eta Q
    eta = 0.5 - 1.0 / (p + 1.0)
    probs += _close(J, eta * Q, 1e-9 * abs(J), "Nehari identity J = eta * Q")
    probs += _problem(bool(np.all(u > -1e-10 * peak)) and float(u.max()) == peak,
                      "profile is not positive")
    return probs


def _medium_fn(medium):
    return (lambda x: ref.evaluate(medium["V"], x)), (lambda x: ref.evaluate(medium["Gamma"], x))


def _interface_fn(cfg):
    def pick(key):
        a = cfg["side1"][key]
        b = cfg["side2"][key]
        return lambda x: np.where(np.asarray(x) >= 0.0, ref.evaluate(a, x), ref.evaluate(b, x))
    return pick("V"), pick("Gamma")


def _upper_bound_tolerance(cfg, L: float, c_min: float) -> float:
    """c <= min(c1, c2) holds on the truncated line up to the interaction of a
    translated half-line state with the wall and the interface, about
    e^{-kappa L}; kappa >= sqrt(inf V - lambda) on both sides."""
    lam = cfg.get("lambda", 0.0)
    kappa_lb = min(math.sqrt(ref.single_harmonic_range(cfg[s]["V"])[0] - lam)
                   for s in ("side1", "side2"))
    return 4.0 * math.exp(-kappa_lb * L) * abs(c_min)


def _energy_tol(V: float, lam: float, c: float, h: float) -> float:
    return ref.ENERGY_H2 * (V - lam) * h * h * abs(c)


# -- interface-verdict ------------------------------------------------------------------


def _check_groundstate(cfg, report, out, seen):
    state = report["results"][0]["result"]
    V, G = _medium_fn(cfg["medium"])
    x, u = ref.read_profile(out / "profiles.csv")
    probs = _profile_checks(cfg, state, x, u, V, G)
    med = cfg["medium"]
    h = state["grid"]["h"]
    if isinstance(med["V"], (int, float)) and isinstance(med["Gamma"], (int, float)):
        lam = cfg.get("lambda", 0.0)
        c = ref.soliton_energy(med["V"], med["Gamma"], lam)
        probs += _close(state["energy_c"], c, _energy_tol(med["V"], lam, c, h),
                        "constant-medium energy vs (4/3)(V-lambda)^{3/2}/Gamma")
        exact = ref.sech_profile(x, med["V"], med["Gamma"], lam, ref.center_of_mass(x, u))
        # the discrete soliton differs from sech by O(h^2); the boundary
        # clamp by the tail value at the wall
        tol = 0.1 * (med["V"] - lam) * h * h * exact.max() + 2.0 * exact[0]
        probs += _problem(float(np.max(np.abs(u - exact))) <= tol,
                          f"profile deviates from the sech soliton by more than {tol:.2e}")
    seen[cfg["medium"]["Gamma"], json.dumps(cfg["medium"]["V"])] = state["energy_c"]
    key = json.dumps(cfg["medium"]["V"])
    pair = [seen.get((g, key)) for g in (1.0, 2.0)]
    if None not in pair:
        # u -> u / sqrt(2) maps the Gamma = 1 problem onto Gamma = 2 exactly
        probs += _close(pair[1], pair[0] / 2.0, 1e-8 * pair[0], "scaling law c(2 Gamma) = c(Gamma)/2")
    return probs


def _check_interface(cfg, report, out, seen):
    entry = report["results"][0]
    state = entry["result"]
    V, G = _interface_fn(cfg)
    probs = _profile_checks(cfg, state, *ref.read_profile(out / "profiles.csv"), V, G)
    lam, h = cfg.get("lambda", 0.0), state["grid"]["h"]
    c, c1, c2 = state["energy_c"], entry["c1"], entry["c2"]
    for key, c_side in (("side1", c1), ("side2", c2)):
        med = cfg[key]
        if isinstance(med["V"], (int, float)) and isinstance(med["Gamma"], (int, float)):
            exact = ref.soliton_energy(med["V"], med["Gamma"], lam)
            probs += _close(c_side, exact, _energy_tol(med["V"], lam, exact, h),
                            f"{key} half-line energy vs closed form")
    c_min = min(c1, c2)
    slack = _upper_bound_tolerance(cfg, state["grid"]["L_dom"], c_min)
    probs += _problem(c <= c_min + slack,
                      f"upper-bound principle broken: c = {c!r} > min(c1, c2) = {c_min!r}")
    verdict = entry["energy_verdict"]["verdict"]
    certified = c < c_min - 10.0 * cfg.get("tol", 1e-8)
    probs += _problem((verdict == "ExistenceCertified") == certified,
                      f"energy verdict {verdict} inconsistent with c, c1, c2")
    if cfg["kind"] == "criteria":
        probs += _check_criteria_entries(cfg, entry)
    return probs


def _check_criteria_entries(cfg, entry):
    d1, d2 = cfg["side1"], cfg["side2"]
    probs = []
    # nonexistence needs V1 <= V2 and Gamma1 >= Gamma2 everywhere
    dv = ref.harmonic_difference(d2["V"], d1["V"])
    dg = ref.harmonic_difference(d1["Gamma"], d2["Gamma"])
    ordered = ref.single_harmonic_range(dv)[0] >= 0.0 and ref.single_harmonic_range(dg)[0] >= 0.0
    nv = entry["nonexistence_check"]["verdict"]
    probs += _problem(ordered or nv != "NonexistenceCertified",
                      "nonexistence certified although the coefficients are not ordered")
    bc = entry["boundary_condition"]
    v1, v2 = float(ref.evaluate(d1["V"], 0.0)), float(ref.evaluate(d2["V"], 0.0))
    probs += _close(bc["intermediates"]["V1_at_0"], v1, 1e-14, "V1(0)")
    probs += _problem((bc["verdict"] == "ExistenceCertified") == (v2 < v1 - 1e-12),
                      "boundary_condition verdict inconsistent with V1(0), V2(0)")
    return probs


def _check_dislocation(cfg, report, out, seen):
    entry = report["results"][0]
    tau = cfg["tau"]
    V0, G0 = cfg["V0"], cfg.get("Gamma0", 1.0)

    def side(node):
        return lambda x: np.where(np.asarray(x) >= 0.0, ref.shifted(node, tau)(x),
                                  ref.shifted(node, -tau)(x))
    probs = _profile_checks(cfg, entry["result"], *ref.read_profile(out / "profiles.csv"),
                            side(V0), side(G0))
    probs += _check_dislocation_report(V0, tau, cfg["lambda"], entry["criterion"])
    return probs


# references are computed once per input and kept for the rest of the run


@functools.cache
def _dislocation_reference(v0_json: str, tau: float, lam: float) -> float:
    return ref.dislocation_integral(json.loads(v0_json), tau, lam)


@functools.cache
def _ivp_trace(v_json: str, lam: float) -> float:
    d = json.loads(v_json)
    return float(np.trace(ref.ivp_monodromy(lambda x: float(ref.evaluate(d, x)), lam)))


@functools.cache
def _asymptotic_reference():
    return ref.decaying_left_factor(lambda s: float(ref.evaluate(MATHIEU, s)), -1e4, 1025)


def _check_dislocation_report(V0, tau, lam, rep):
    exact = _dislocation_reference(json.dumps(V0), tau, lam)
    inter = rep["intermediates"]
    kappa = inter["kappa_side1"]
    # trapezoid error of the library's 2049-sample integral, with margin
    tol = 4.0 * CRITERIA_DX**2 / 12.0 * (2.0 * kappa + 2.0 * math.pi) ** 2 * abs(exact)
    probs = _close(inter["dis_cond1"], exact, tol, "dislocation mode-weighted integral")
    if exact < -tol:
        probs += _problem(rep["verdict"] == "ExistenceCertified",
                          "negative mismatch integral but existence not certified")
    return probs


def interface_verdict(rng, workdir: Path) -> list:
    gs = {"kind": "groundstate", "p": 3.0, "lambda": 0.0, "h": 0.08}
    cfgs = [
        ("groundstate-constant", dict(gs, medium={"V": 1.0, "Gamma": 1.0}), _check_groundstate, None),
        ("groundstate-mathieu", dict(gs, medium={"V": MATHIEU, "Gamma": 1.0}), _check_groundstate, None),
        ("groundstate-mathieu-2gamma", dict(gs, medium={"V": MATHIEU, "Gamma": 2.0}),
         _check_groundstate, None),
        ("interface-jump", {"kind": "interface", "p": 3.0, "lambda": 0.0, "h": 0.08,
                            "side1": {"V": 1.2, "Gamma": 2.0}, "side2": {"V": 1.0, "Gamma": 1.0}},
         _check_interface, None),
        ("criteria-mathieu", {"kind": "criteria", "p": 3.0, "lambda": -1.0, "tol": 1e-7,
                              "L_dom": 10.0, "h": 0.04,
                              "side1": {"V": MATHIEU, "Gamma": 1.5},
                              "side2": {"V": 1.0, "Gamma": 1.0}},
         _check_interface, "fault-3-criteria-above-upper-bound"),
        ("dislocation-mathieu", {"kind": "dislocation", "p": 3.0, "lambda": -20.0,
                                 "L_dom": 10.0, "h": 0.02,
                                 "V0": MATHIEU, "Gamma0": 1.0, "tau": 0.25},
         _check_dislocation, None),
    ]
    order = rng.permutation(len(cfgs))
    ops = [_config_op(cfgs[i][0], cfgs[i][1], workdir, cfgs[i][2], cfgs[i][3]) for i in order]
    return ops


# -- spectral-scan --------------------------------------------------------------------------


def _check_bands(cfg, report, out, seen):
    return _bands_problems(cfg["V"], report["results"][0]["bands"])


def _bands_problems(V, bands):
    d = ref.descriptor(V)
    probs = []
    for row in bands:
        if "error" in row:
            probs.append(f"lambda {row['lambda']}: {row['error']}")
            continue
        lam = row["lambda"]
        if "segments" in d:
            tr = ref.kp_trace(d["segments"], lam)
        else:
            tr = _ivp_trace(json.dumps(d), lam)
        probs += _close(row["discriminant"], tr, MONODROMY_RTOL * tr, f"discriminant at {lam}")
        k = ref.kappa_from_trace(tr)
        probs += _close(row["kappa"], k, MONODROMY_RTOL * k, f"kappa at {lam}")
    return probs


def _check_sweep(cfg, report, out, seen):
    probs = []
    for row, V in zip(report["results"], cfg["sweep"]["values"]):
        if "error" in row:
            probs.append(f"sweep row {row['row']}: {row['error']}")
            continue
        probs += _bands_problems(V, row["results"][0]["bands"])
    return _problem(len(report["results"]) == len(cfg["sweep"]["values"]), "missing sweep rows") + probs


def _library_op(name, call, check, fault=None) -> Op:
    return Op(name, call, lambda result, seen: check(result), fault)


def spectral_scan(rng, workdir: Path) -> list:
    from sgslab import bloch, criteria
    from sgslab.media import FunctionDescriptor, PeriodicMedium, ProblemParams

    fd = FunctionDescriptor.from_json

    def below(bottom):
        return sorted(float(bottom - o) for o in rng.uniform(0.5, 3.0, size=2))

    ops = []
    scans = [
        ("bloch-mathieu", MATHIEU, below(ref.mathieu_bottom(1.0, 0.5)), None),
        ("bloch-kp-dyadic", {"segments": KP_DYADIC}, below(ref.kp_bottom(KP_DYADIC)), None),
        ("bloch-kp-offgrid", {"segments": KP_OFFGRID}, [-1.5, -3.0],
         "fault-2-monodromy-offgrid-breakpoint"),
    ]
    for name, V, lams, fault in scans:
        cfg = {"kind": "bloch", "V": V, "lambda_list": lams}
        ops.append(_config_op(name, cfg, workdir, _check_bands, fault))

    breaks = rng.choice([0.25, 0.5, 0.75], size=2)
    rows = [{"segments": [[0.0, float(b), round(float(rng.uniform(-1.0, 1.0)), 3)],
                          [float(b), 1.0, round(float(rng.uniform(1.0, 3.0)), 3)]]}
            for b in breaks]
    sweep = {"kind": "sweep", "base_kind": "bloch", "lambda": -3.0,
             "sweep": {"parameter": "V", "values": rows}}
    ops.append(_config_op("sweep-kp", sweep, workdir, _check_sweep))

    # mode-weighted mismatch integral for constant potentials: closed form
    c1 = float(rng.uniform(0.8, 1.5))
    c2 = c1 + float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.6))
    lam_b = float(rng.uniform(-2.0, -0.5))

    def check_bic(rep):
        exact = ref.constant_bloch_integral(c1, c2, lam_b)
        k = ref.constant_kappa(c1, lam_b)
        tol = 2.0 * CRITERIA_DX**2 / 12.0 * (2.0 * k) ** 2 * abs(exact) + 1e-12
        inter = rep.intermediates
        probs = _close(inter["integral"], exact, tol, "constant-medium Bloch integral")
        probs += _close(inter["kappa"], k, 1e-9 * k, "kappa = sqrt(V - lambda)")
        probs += _problem((rep.verdict.value == "ExistenceCertified") == (exact < 0.0),
                          "Bloch integral verdict inconsistent with the sign of the integral")
        return probs

    ops.append(_library_op(
        "bloch-integral-constant",
        lambda: criteria.bloch_integral_criterion(fd(c1), fd(c2), lam_b), check_bic))

    bv = [{"const": round(float(rng.uniform(0.8, 1.6)), 3), "cos": [[1, round(float(rng.uniform(-0.5, 0.5)), 3)]]}
          for _ in range(2)]

    def check_bc(rep):
        v1, v2 = (float(ref.evaluate(d, 0.0)) for d in bv)
        return _problem((rep.verdict.value == "ExistenceCertified") == (v2 < v1 - 1e-12),
                        "boundary_condition verdict inconsistent with V1(0), V2(0)")

    ops.append(_library_op("boundary-condition",
                           lambda: criteria.boundary_condition(fd(bv[0]), fd(bv[1])), check_bc))

    tau = round(float(rng.uniform(0.1, 0.4)), 3)
    lam_d = round(float(rng.uniform(-3.0, -0.5)), 3)
    ops.append(_library_op(
        "dislocation-report",
        lambda: criteria.dislocation_report(fd(MATHIEU), fd(1.0), tau, lam_d),
        lambda rep: _check_dislocation_report(MATHIEU, tau, lam_d, rep.to_json())))

    k_s = int(rng.choice([2, 3]))
    gamma = round(float(rng.uniform(1.0, 6.0)), 3)
    v_s = {"const": 2.0, "cos": [[1, round(float(rng.uniform(0.2, 1.0)), 3)]]}

    def check_scaled(rep):
        lo, hi = ref.single_harmonic_range(v_s)
        inter = rep.intermediates
        ratio = (k_s / gamma) ** 2 * k_s        # (k/gamma)^{4/(p-1)} k^{2-n}, p = 3, n = 1
        ok = hi < k_s * k_s * lo and k_s**3 <= gamma**2
        return (_close(inter["sup_V2"], hi, 1e-14, "sup V2")
                + _close(inter["inf_V2"], lo, 1e-14, "inf V2")
                + _close(inter["predicted_c1_over_c2"], ratio, 1e-12 * ratio, "predicted c1/c2")
                + _problem((rep.verdict.value == "ExistenceCertified") == ok,
                           "scaled_interface_check verdict inconsistent with its conditions"))

    ops.append(_library_op(
        "scaled-interface",
        lambda: criteria.scaled_interface_check(
            PeriodicMedium(fd(v_s), fd(1.0)), k_s, gamma, ProblemParams(3.0, -1.0)),
        check_scaled))

    ordered = ({"const": 1.0, "cos": [[1, round(float(rng.uniform(0.0, 0.2)), 3)]]},
               {"const": round(float(rng.uniform(1.5, 2.0)), 3),
                "sin": [[1, round(float(rng.uniform(0.0, 0.2)), 3)]]})
    for name, (V1, V2), fault in (
        ("nonexistence-ordered", ordered, None),
        ("nonexistence-fine-harmonic",
         (1.0, {"const": 1.001, "sin": [[2048, 2e-3]]}), "fault-1-sampled-nonexistence"),
    ):
        ops.append(_library_op(
            name,
            (lambda V1=V1, V2=V2: criteria.nonexistence_check(_interface(V1, V2))),
            (lambda rep, V1=V1, V2=V2, name=name: _check_nonexistence(rep, V1, V2, 1.0, 1.0,
                                                                      name == "nonexistence-ordered")),
            fault))

    def check_asym(result):
        kappa_gap, scaled, p_dev = result
        k, _, p = _asymptotic_reference()
        sl = 100.0
        return (_close(kappa_gap, k - sl, 1e-8, "kappa - sqrt|lambda| at lambda = -1e4")
                + _close(scaled, sl * (k - sl) - 0.5 * ref.mean(MATHIEU), 1e-6, "scaled gap error")
                + _close(p_dev, float(np.max(np.abs(p - 1.0))), 1e-8, "sup |p_minus - 1|"))

    ops.append(_library_op("asymptotic-diagnostics",
                           lambda: bloch.asymptotic_diagnostics(fd(MATHIEU), -1e4), check_asym))
    return ops


def _interface(V1, V2, G1=1.0, G2=1.0):
    from sgslab.media import FunctionDescriptor, PeriodicMedium, compose_interface

    fd = lambda n: FunctionDescriptor.from_json(ref.descriptor(n))
    return compose_interface(PeriodicMedium(fd(V1), fd(G1)), PeriodicMedium(fd(V2), fd(G2)))


def _check_nonexistence(rep, V1, V2, G1, G2, expect_certified: bool):
    """A non-existence certificate needs inf(V2 - V1) >= 0 and
    inf(Gamma1 - Gamma2) >= 0; for single harmonics the inf is exact."""
    inf_v = ref.single_harmonic_range(ref.harmonic_difference(V2, V1))[0]
    inf_g = ref.single_harmonic_range(ref.harmonic_difference(G1, G2))[0]
    certified = rep.verdict.value == "NonexistenceCertified"
    probs = _problem(not certified or (inf_v >= 0.0 and inf_g >= 0.0),
                     f"unsound non-existence certificate: inf(V2 - V1) = {inf_v!r}")
    if expect_certified:
        probs += _problem(certified, "ordered coefficients but non-existence not certified")
    return probs


# -- drift ------------------------------------------------------------------------------------


DRIFT_H = 0.08
DRIFT_BUDGET = 5000
ANSATZ_H = 0.01
ANSATZ_CENTERS = (0.0, 2.0, 4.0, 8.0)


def drift(rng, workdir: Path) -> list:
    from sgslab import criteria, oracle, variational
    from sgslab.media import ProblemParams

    sides = ({"V": 1.0, "Gamma": 2.0}, {"V": 2.0, "Gamma": 1.0})
    m = _interface(sides[0]["V"], sides[1]["V"], sides[0]["Gamma"], sides[1]["Gamma"])
    params = ProblemParams(3.0, 0.0)
    cfg = {"side1": sides[0], "side2": sides[1], "lambda": 0.0}
    V, G = _interface_fn(cfg)
    c_inf = ref.soliton_energy(1.0, 2.0, 0.0)     # side-1 energy, never attained

    solve_grid = variational.Grid.from_extent(20.0, DRIFT_H)
    opts = variational.SolverOptions(tol=1e-10, max_iter=DRIFT_BUDGET, strict=False)

    def check_solve(res):
        x, u = solve_grid.x, res.state.values
        Q, N, J, _ = ref.discrete_terms(x, u, V(x), G(x), 0.0, 3.0)
        slack = _energy_tol(1.0, 0.0, c_inf, DRIFT_H)
        return (_close(res.energy_c, c_inf, slack, "drift energy vs the half-line value 2/3")
                + _close(N, Q, 1e-9 * Q, "constraint identity")
                + _close(res.energy_c, J, 1e-9 * J, "reported energy vs J recomputed")
                # off the interface by at least two decay lengths 1/kappa1 = 1
                + _problem(ref.center_of_mass(x, u) >= 2.0,
                           f"centre of mass {ref.center_of_mass(x, u):.3f} did not move into side 1"))

    ops = [Op("drift-solve",
              lambda: variational.solve_ground_state(m, params, solve_grid, opts),
              lambda res, seen: check_solve(res))]

    ansatz_grid = variational.Grid.from_extent(20.0, ANSATZ_H)
    for c in ANSATZ_CENTERS:
        fam = oracle.AnsatzFamily((0.8, 1.2), (0.8, 1.2), (c, c), 7)

        def check_bound(b, seen, c=c):
            seen[c] = b
            probs = _problem(b >= c_inf - _energy_tol(1.0, 0.0, c_inf, ANSATZ_H),
                             f"ansatz bound {b!r} below the infimum 2/3")
            if c == ANSATZ_CENTERS[-1]:
                # the family holds the side-1 soliton sech(x - 8)
                probs += _problem(b <= c_inf + 1e-4, f"ansatz bound at the far centre {b!r} not near 2/3")
            if all(k in seen for k in ANSATZ_CENTERS):
                bs = [seen[k] for k in ANSATZ_CENTERS]
                probs += _problem(all(a >= b_ - 1e-12 for a, b_ in zip(bs, bs[1:])),
                                  f"ansatz bounds increase with the centre: {bs}")
            return probs

        ops.append(Op(f"ansatz-center-{c:g}",
                      lambda fam=fam: oracle.ansatz_upper_bound(m, params, fam, ansatz_grid),
                      check_bound))

    ops.append(_library_op(
        "nonexistence-drift", lambda: criteria.nonexistence_check(m),
        lambda rep: _check_nonexistence(rep, 1.0, 2.0, 2.0, 1.0, True)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


BUILDERS = {
    "interface-verdict": interface_verdict,
    "spectral-scan": spectral_scan,
    "drift": drift,
}


def build(name: str, seed: int, workdir: Path) -> list:
    """The workload's operations, with inputs made from the seed; configs are
    written under workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](np.random.default_rng(seed), workdir)
