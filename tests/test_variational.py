"""Discrete functionals, constraint projection, and the ground-state solver."""

import json
import math

import numpy as np
import pytest
import scipy.optimize

from sgslab import oracle, variational
from sgslab.errors import LambdaInSpectrum, NonprojectableState, TailNotResolved
from sgslab.experiment import parse_config
from sgslab.media import (
    FunctionDescriptor,
    PeriodicMedium,
    ProblemParams,
    compose_interface,
)
from sgslab.variational import (
    Grid,
    GridFunction,
    G_eval,
    J_eval,
    SolverOptions,
    d_coefficients,
    grad_J,
    minimize,
    nehari_project,
    solve_ground_state,
)

P3 = ProblemParams(p=3.0, lam=0.0)
CONST = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.0))
# 1/2 against 2/1: no surface state, and the solver's states drift into side 1
DRIFT = compose_interface(
    PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=2.0)),
    PeriodicMedium(FunctionDescriptor(const=2.0), FunctionDescriptor(const=1.0)),
)


@pytest.fixture(scope="module")
def grid():
    return Grid.from_extent(20.0, 0.01)


@pytest.fixture(scope="module")
def sech_state(grid):
    return GridFunction.from_callable(grid, lambda x: 1.0 / np.cosh(x))


@pytest.fixture(scope="module")
def solved_const(grid):
    return solve_ground_state(CONST, P3, grid, SolverOptions(tol=1e-8, seed_center=0.0))


def test_grid_alignment():
    g = Grid.from_extent(10.0, 0.03)
    assert g.nodes % 2 == 1
    assert g.x[g.nodes // 2] == pytest.approx(0.0, abs=1e-14)
    assert g.x[0] == -10.0 and g.x[-1] == 10.0


@pytest.mark.parametrize("end", [0, -1])
def test_grid_function_rejects_nonzero_end(grid, end):
    vals = np.zeros(grid.nodes)
    vals[end] = 1e-3
    with pytest.raises(ValueError, match="Dirichlet"):
        GridFunction(grid=grid, values=vals)


def test_functionals_zero_state(grid):
    z = GridFunction(grid=grid, values=np.zeros(grid.nodes))
    assert J_eval(z, CONST, P3) == 0.0
    assert G_eval(z, CONST, P3) == 0.0


def test_energy_of_exact_soliton(grid):
    w = GridFunction.from_callable(grid, lambda x: math.sqrt(2.0) / np.cosh(x))
    assert J_eval(w, CONST, P3) == pytest.approx(4.0 / 3.0, abs=1e-4)


def test_energy_scaling_of_nonlinearity(grid):
    # doubling the nonlinear coefficient halves the optimal energy (p = 3)
    doubled = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=2.0))
    w = GridFunction.from_callable(grid, lambda x: 1.0 / np.cosh(x))
    assert J_eval(w, doubled, P3) == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_constraint_value_of_sech(grid, sech_state):
    # int sech'^2 = 2/3, int sech^2 = 2, int sech^4 = 4/3
    assert G_eval(sech_state, CONST, P3) == pytest.approx(4.0 / 3.0, abs=1e-4)


def test_projection_scale_of_sech(grid, sech_state):
    proj, s = nehari_project(sech_state, CONST, P3)
    assert s == pytest.approx(math.sqrt(2.0), abs=1e-4)
    assert abs(G_eval(proj, CONST, P3)) <= 1e-10 * max(1.0, s**4)


def test_projection_fixed_point(grid, sech_state):
    proj, _ = nehari_project(sech_state, CONST, P3)
    again, s2 = nehari_project(proj, CONST, P3)
    assert s2 == pytest.approx(1.0, abs=1e-12)


def test_projection_rejects_negative_mass(grid, sech_state):
    m = PeriodicMedium(
        FunctionDescriptor(const=1.0),
        FunctionDescriptor(segments=((0.0, 0.99, -1.0), (0.99, 1.0, 0.5))),
    )
    with pytest.raises(NonprojectableState):
        nehari_project(sech_state, m, P3)


def test_energy_identity_on_constraint_set(grid, sech_state):
    # J = (1/2 - 1/(p+1)) * quadratic form on the constraint set
    proj, _ = nehari_project(sech_state, CONST, P3)
    quad = G_eval(proj, CONST, P3) + _nonlinear(proj)
    assert J_eval(proj, CONST, P3) == pytest.approx(P3.eta * quad, abs=1e-10 * max(1.0, quad))


def _nonlinear(u):
    w = np.full(u.grid.nodes, u.grid.h)
    w[0] = w[-1] = u.grid.h / 2.0
    return float(np.sum(w * np.abs(u.values) ** 4))


def test_gradient_matches_finite_differences(grid):
    rng = np.random.default_rng(3)
    u = GridFunction.from_callable(grid, lambda x: np.exp(-(x**2)) * (1 + 0.3 * np.sin(2 * x)))
    g = grad_J(u, CONST, P3)
    for _ in range(5):
        d = rng.standard_normal(grid.nodes)
        d[0] = d[-1] = 0.0
        eps = 1e-5
        fp = J_eval(u.with_values(u.values + eps * d), CONST, P3)
        fm = J_eval(u.with_values(u.values - eps * d), CONST, P3)
        fd = (fp - fm) / (2.0 * eps)
        an = float(np.dot(g, d))
        assert abs(fd - an) / max(1.0, abs(an)) <= 1e-6


def test_solver_reproduces_soliton(grid, solved_const):
    res = solved_const
    assert res.energy_c == pytest.approx(4.0 / 3.0, abs=1e-3)
    exact = math.sqrt(2.0) / np.cosh(grid.x)
    assert np.max(np.abs(res.state.values - exact)) <= 0.01 * math.sqrt(2.0)
    assert res.residual < 1e-8
    assert np.all(res.state.values[1:-1] > 0.0)
    # the fit window touches the pinned boundary, which steepens the slope a bit
    assert res.decay_rate_fit == pytest.approx(1.0, rel=0.1)


def test_decay_rate_fit_is_computed_when_read():
    coarse = Grid.from_extent(10.0, 0.08)
    res = solve_ground_state(CONST, P3, coarse)
    assert "decay_rate_fit" not in vars(res)
    fit = res.decay_rate_fit
    assert fit == variational._fit_decay_rate(coarse, res.state.values)
    assert vars(res)["decay_rate_fit"] is fit


def test_solver_mass_scaling_law(grid):
    # constant case: energy scales as m^{3/2} for p = 3
    m2 = PeriodicMedium(FunctionDescriptor(const=2.0), FunctionDescriptor(const=1.0))
    res = solve_ground_state(m2, P3, grid, SolverOptions(tol=1e-7, seed_center=0.0))
    assert res.energy_c == pytest.approx(8.0 * math.sqrt(2.0) / 3.0, rel=1e-3)


def test_solver_rejects_lambda_in_spectrum(grid):
    with pytest.raises(LambdaInSpectrum):
        solve_ground_state(CONST, ProblemParams(p=3.0, lam=2.0), grid)


def test_half_energy_upper_bound(grid, solved_const):
    # a stronger nonlinearity on one side strictly lowers the optimal energy
    m1 = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.0))
    m2 = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=2.0))
    mi = compose_interface(m1, m2)
    c1 = solved_const.energy_c
    opts = SolverOptions(tol=1e-6, seed_center=-3.0, strict=False)
    ci = solve_ground_state(mi, P3, grid, opts).energy_c
    assert ci <= c1 - 0.1
    # the state concentrates on the favourable side
    assert ci == pytest.approx(2.0 / 3.0, abs=0.05)


def test_grid_refinement_second_order():
    cs = []
    for h in (0.04, 0.02, 0.01):
        g = Grid.from_extent(15.0, h)
        cs.append(
            solve_ground_state(CONST, P3, g, SolverOptions(tol=1e-8, seed_center=0.0)).energy_c
        )
    first = abs(cs[1] - cs[0])
    second = abs(cs[2] - cs[1])
    assert second <= 0.5 * first


def test_d_coefficients_constant_case(grid, solved_const):
    bd = oracle.constant_bloch_reference(1.0, 0.0)
    d_plus, d_minus = d_coefficients(
        solved_const.state, bd, FunctionDescriptor(const=1.0), P3
    )
    assert d_minus == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-3)
    assert d_plus == pytest.approx(d_minus, abs=1e-6)


def test_d_coefficients_zero_state(grid):
    z = GridFunction(grid=grid, values=np.zeros(grid.nodes))
    bd = oracle.constant_bloch_reference(1.0, 0.0)
    dp, dm = d_coefficients(z, bd, FunctionDescriptor(const=1.0), P3)
    assert dp == 0.0 and dm == 0.0


def test_d_coefficients_requires_decayed_tail():
    g = Grid.from_extent(3.0, 0.01)
    w = GridFunction.from_callable(g, lambda x: np.exp(-np.abs(x)))
    bd = oracle.constant_bloch_reference(1.0, 0.0)
    with pytest.raises(TailNotResolved):
        d_coefficients(w, bd, FunctionDescriptor(const=1.0), P3)


def test_tail_ratio_matches_d_minus(grid, solved_const):
    bd = oracle.constant_bloch_reference(1.0, 0.0)
    _, d_minus = d_coefficients(solved_const.state, bd, FunctionDescriptor(const=1.0), P3)
    i8 = int(np.argmin(np.abs(grid.x + 8.0)))
    ratio = solved_const.state.values[i8] / math.exp(grid.x[i8])
    assert ratio == pytest.approx(d_minus, rel=0.02)


@pytest.mark.parametrize(
    "medium, tol, seed_center, energy",
    [
        (CONST, 1e-8, 0.0, 1.333325555373337),
        (
            PeriodicMedium(
                FunctionDescriptor(const=1.0, cos=((1, 0.5),)), FunctionDescriptor(const=1.0)
            ),
            1e-8,
            None,
            1.3251757787707958,
        ),
        (
            compose_interface(
                PeriodicMedium(FunctionDescriptor(const=1.2), FunctionDescriptor(const=2.0)), CONST
            ),
            1e-7,
            None,
            0.8663243555385476,
        ),
    ],
    ids=["const", "mathieu", "a8-interface"],
)
def test_solver_pinned_energies(grid, medium, tol, seed_center, energy):
    # discrete ground-state energies on L = 20, h = 0.01, pinned to 1e-10
    # relative so that a solver change cannot move them unnoticed
    res = solve_ground_state(medium, P3, grid, SolverOptions(tol=tol, seed_center=seed_center))
    assert res.residual < tol
    assert res.energy_c == pytest.approx(energy, rel=1e-10)
    assert res.scans == 0
    # the public functionals are the solver's own discretization
    assert J_eval(res.state, medium, P3) == pytest.approx(res.energy_c, rel=1e-12)
    g = grad_J(res.state, medium, P3)[1:-1]
    residual = float(np.linalg.norm(g / grid.h)) * math.sqrt(grid.h)
    assert residual == pytest.approx(res.residual, rel=1e-6)


@pytest.fixture(scope="module")
def handed_objectives():
    """The objective and start point solve_ground_state hands to minimize,
    for the drift interface (L = 20, h = 0.08) and for side 1 of the
    periodic-Mathieu criteria run (Gamma = 1.5, lambda = -1, L = 10, h = 0.04)."""
    handed = []

    def record(fg, x0, max_iter, hook=None):
        handed.append((fg, x0.copy()))
        return minimize(fg, x0, max_iter, hook)

    fd = FunctionDescriptor
    mathieu = PeriodicMedium(fd(const=1.0, cos=((1, 0.5),)), fd(const=1.5))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(variational, "minimize", record)
        solve_ground_state(DRIFT, P3, Grid.from_extent(20.0, 0.08), SolverOptions(strict=False))
        solve_ground_state(mathieu, ProblemParams(p=3.0, lam=-1.0), Grid.from_extent(10.0, 0.04))
    return {"drift": handed[0], "mathieu": handed[1]}


@pytest.mark.parametrize(
    "case, max_iter, hooked",
    [("drift", 5000, False), ("drift", 50, False), ("mathieu", 50_000, False), ("drift", 5000, True)],
    ids=["drift-ftol-stop", "drift-budget-stop", "criteria-mathieu-side1", "drift-idle-hook"],
)
def test_lbfgsb_driver_matches_scipy_minimize(handed_objectives, case, max_iter, hooked):
    # minimize drives scipy's private L-BFGS-B kernel with minimize's own
    # settings; a scipy release that changes the kernel or how minimize
    # drives it must fail here rather than move the solver's iterates.  A
    # hook that never stops the run must leave the iterates as they are.
    fg, x0 = handed_objectives[case]
    values, seen = [], []

    def logged(x):
        fx = fg(x)
        values.append(fx[0])
        return fx

    def idle(x, nit):
        seen.append(nit)
        return False

    x, nit, evaluations = minimize(logged, x0, max_iter, idle if hooked else None)
    ref = scipy.optimize.minimize(
        fg,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": max_iter,
            "maxfun": 3 * max_iter,
            "gtol": 1e-16,
            "ftol": 1e-18,
            "maxls": 4,
        },
    )
    assert nit == ref.nit and evaluations == ref.nfev
    assert np.array_equal(x, ref.x)
    # fun is the kernel's f: the last value evaluated, which after a failed
    # line search is not the value at the restored x
    assert values[-1] == ref.fun
    if max_iter == 50:
        assert nit == 50
    else:
        assert nit < max_iter
    assert seen == (list(range(1, nit + 1)) if hooked else [])


def test_lbfgsb_hook_halts_where_scipy_callback_halts(handed_objectives):
    # a true return stops the run at that iterate, as a callback raising
    # StopIteration stops scipy's minimize
    fg, x0 = handed_objectives["drift"]
    x, nit, evaluations = minimize(fg, x0, 5000, lambda x, nit: nit == 7)

    def halt(intermediate_result):
        if halt.nit == 7:
            raise StopIteration
        halt.nit += 1

    halt.nit = 1
    ref = scipy.optimize.minimize(
        fg, x0, jac=True, method="L-BFGS-B", callback=halt,
        options={"maxiter": 5000, "maxfun": 15000, "gtol": 1e-16, "ftol": 1e-18, "maxls": 4},
    )
    assert nit == ref.nit == 7 and evaluations == ref.nfev
    assert np.array_equal(x, ref.x)


def test_drift_valley_crossed_by_translation_scans():
    # the drift interface on a box where L-BFGS-B alone crawls 9273 iterations
    # down the translation valley to E = 0.666604421114 (residual 3.2e-11)
    opts = SolverOptions(tol=1e-10, strict=False)
    res = solve_ground_state(DRIFT, P3, Grid.from_extent(30.0, 0.04), opts)
    assert res.residual < 1e-10
    assert res.energy_c <= 0.666604421114 * (1.0 + 1e-12)
    assert res.center_of_mass > 2.0
    assert res.scans == 1


def test_drift_solve_is_one_pass(monkeypatch):
    # the benchmark's drift solve: one L-BFGS-B run, stopped by its one scan
    # at a lower translate, which the Newton finish polishes below tol
    calls = 0

    def record(fg, x0, max_iter, hook=None):
        nonlocal calls
        calls += 1
        return minimize(fg, x0, max_iter, hook)

    monkeypatch.setattr(variational, "minimize", record)
    opts = SolverOptions(tol=1e-10, max_iter=5000, strict=False)
    res = solve_ground_state(DRIFT, P3, Grid.from_extent(20.0, 0.08), opts)
    assert calls == 1
    assert res.scans == 1 and res.shift_nodes != 0
    assert res.residual < 1e-10


def test_round_off_stall_costs_two_short_line_searches(tmp_path, monkeypatch):
    # L-BFGS-B stops after two line searches have failed at the energy's
    # rounding floor; with a budget of 4 evaluations each, that stall costs 8
    # evaluations instead of 40 (the benchmark's groundstate-mathieu solve)
    cfg = tmp_path / "gs.json"
    cfg.write_text(json.dumps({
        "kind": "groundstate", "p": 3.0, "lambda": 0.0, "h": 0.08,
        "medium": {"V": {"const": 1.0, "cos": [[1, 0.5]]}, "Gamma": 1.0},
    }))
    spec = parse_config(str(cfg))
    calls = 0

    def record(fg, x0, max_iter, hook=None):
        def counted(x):
            nonlocal calls
            calls += 1
            return fg(x)

        return minimize(counted, x0, max_iter, hook)

    monkeypatch.setattr(variational, "minimize", record)
    res = solve_ground_state(spec.media["medium"], spec.params, spec.grid, SolverOptions())
    assert res.residual < 1e-8
    assert calls == res.evaluations
    assert calls <= res.iterations + 2 * 4 + 2
