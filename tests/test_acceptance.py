"""Acceptance gate: twelve end-to-end checks of the whole pipeline.

Each test is one named criterion with pinned tolerances; the terminal summary
hook in conftest.py prints one PASS/FAIL line per criterion.  Oracle values
are closed forms evaluated independently of the code under test.
"""

import math

import numpy as np
import pytest

from sgslab import bloch, criteria, oracle
from sgslab.criteria import Verdict
from sgslab.media import (
    FunctionDescriptor,
    PeriodicMedium,
    ProblemParams,
    compose_interface,
    dislocate,
)
from sgslab.variational import (
    Grid,
    GridFunction,
    G_eval,
    J_eval,
    SolverOptions,
    _trap_weights,
    d_coefficients,
    grad_J,
    nehari_project,
    solve_ground_state,
)

P3 = ProblemParams(p=3.0, lam=0.0)
CONST_MEDIUM = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.0))
MATHIEU = FunctionDescriptor(const=1.0, cos=((1, 0.5),))


@pytest.fixture(scope="module")
def grid20():
    return Grid.from_extent(20.0, 0.01)


@pytest.fixture(scope="module")
def a1_solution(grid20):
    return solve_ground_state(CONST_MEDIUM, P3, grid20, SolverOptions(tol=1e-8, seed_center=0.0))


@pytest.fixture(scope="module")
def a8_runs(grid20):
    m1 = PeriodicMedium(FunctionDescriptor(const=1.2), FunctionDescriptor(const=2.0))
    m2 = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.0))
    mi = compose_interface(m1, m2)
    opts_side = SolverOptions(tol=1e-7, seed_center=0.0)
    return {
        "side1": solve_ground_state(m1, P3, grid20, opts_side),
        "side2": solve_ground_state(m2, P3, grid20, opts_side),
        "interface": solve_ground_state(mi, P3, grid20, SolverOptions(tol=1e-7)),
        "media": (m1, m2, mi),
    }


@pytest.fixture(scope="module")
def a11_runs():
    lam = -20.0
    params = ProblemParams(p=3.0, lam=lam)
    V0, G0 = MATHIEU, FunctionDescriptor(const=1.0)
    tau = 0.25
    grid = Grid.from_extent(10.0, 0.005)
    opts = SolverOptions(tol=1e-6, seed_center=0.0)
    return {
        "params": params,
        "tau": tau,
        "side1": solve_ground_state(PeriodicMedium(V0.shifted(tau), G0), params, grid, opts),
        "side2": solve_ground_state(PeriodicMedium(V0.shifted(-tau), G0), params, grid, opts),
        "interface": solve_ground_state(
            dislocate(V0, G0, tau), params, grid, SolverOptions(tol=1e-6)
        ),
    }


def test_acceptance_01_sech_soliton_reproduction(grid20, a1_solution):
    res = a1_solution
    assert res.energy_c == pytest.approx(4.0 / 3.0, abs=1e-3)
    amplitude = math.sqrt(2.0)
    exact = amplitude / np.cosh(grid20.x)
    assert np.max(np.abs(res.state.values - exact)) <= 0.01 * amplitude


def test_acceptance_02_constant_bloch_reference():
    bd = bloch.bloch_modes(FunctionDescriptor(const=1.0), -1.0)
    assert bd.kappa == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert np.max(np.abs(bd.p_plus - 1.0)) <= 1e-8
    assert np.max(np.abs(bd.p_minus - 1.0)) <= 1e-8
    assert bd.omega == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-8)
    M = bloch.monodromy(FunctionDescriptor(const=1.0), -1.0)
    assert M.det == pytest.approx(1.0, abs=1e-10)


def test_acceptance_03_decay_exponent_bounds():
    sup = MATHIEU.sup_norm()
    for lam in (-10.0, -1e2, -1e3, -1e4):
        bd = bloch.bloch_modes(MATHIEU, lam)
        assert math.sqrt(-sup - lam) <= bd.kappa <= math.sqrt(sup - lam)


def test_acceptance_04_deep_parameter_asymptotics():
    # scaled decay-exponent gap tends to the mean of the potential (0.5 here);
    # the periodic factor tends to 1 uniformly
    devs = {}
    pdevs = {}
    for lam in (-1e2, -1e4):
        _, scaled_gap_err, pdev = bloch.asymptotic_diagnostics(MATHIEU, lam)
        devs[lam] = abs(scaled_gap_err)
        pdevs[lam] = pdev
    assert devs[-1e4] <= devs[-1e2] / 5.0
    assert pdevs[-1e4] <= pdevs[-1e2] / 5.0


def test_acceptance_05_nonlinearity_scaling_law(grid20, a1_solution):
    # c(beta * Gamma) = beta^{-2/(p-1)} c(Gamma) for p = 3
    c1 = a1_solution.energy_c
    for beta in (0.5, 2.0, 4.0):
        m = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=beta))
        cb = solve_ground_state(m, P3, grid20, SolverOptions(tol=1e-8, seed_center=0.0)).energy_c
        assert abs(cb - c1 / beta) / (c1 / beta) <= 1e-4


def test_acceptance_06_scaled_pair_energy_ratio(grid20):
    from sgslab.media import scaled_pair

    m2 = PeriodicMedium(FunctionDescriptor(const=1.0, cos=((1, 0.3),)), FunctionDescriptor(const=1.0))
    m1 = scaled_pair(m2, 2, 4.0)
    opts = SolverOptions(tol=1e-8, seed_center=0.0)
    c2 = solve_ground_state(m2, P3, grid20, opts).energy_c
    c1 = solve_ground_state(m1, P3, grid20, opts).energy_c
    assert abs(c1 / c2 - 0.5) / 0.5 <= 1e-3
    # the closed-form prediction agrees
    rep = criteria.scaled_interface_check(m2, 2, 4.0, P3)
    assert rep.intermediates["predicted_c1_over_c2"] == pytest.approx(0.5)


def test_acceptance_07_tail_coefficients(grid20, a1_solution):
    bd = oracle.constant_bloch_reference(1.0, 0.0)
    _, d_minus = d_coefficients(a1_solution.state, bd, FunctionDescriptor(const=1.0), P3)
    assert d_minus == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-3)
    i8 = int(np.argmin(np.abs(grid20.x + 8.0)))
    ratio = a1_solution.state.values[i8] / math.exp(grid20.x[i8])
    assert ratio == pytest.approx(d_minus, rel=0.02)


def test_acceptance_08_end_to_end_existence(a8_runs):
    r1, r2, ri = a8_runs["side1"], a8_runs["side2"], a8_runs["interface"]
    # scaling-law oracles: c = m^{3/2} / Gamma * 4/3 for p = 3, constant media
    assert r1.energy_c == pytest.approx(1.2**1.5 / 2.0 * 4.0 / 3.0, abs=1e-3)
    assert r2.energy_c == pytest.approx(4.0 / 3.0, abs=1e-3)
    assert ri.energy_c < r1.energy_c - 0.01
    assert ri.residual < 1e-6
    rep = criteria.energy_verdict(ri.energy_c, r1.energy_c, r2.energy_c, tol=1e-6)
    assert rep.verdict is Verdict.ExistenceCertified


def test_acceptance_09_nonexistence_and_drift():
    m = compose_interface(
        PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=2.0)),
        PeriodicMedium(FunctionDescriptor(const=2.0), FunctionDescriptor(const=1.0)),
    )
    rep = criteria.nonexistence_check(m)
    assert rep.verdict is Verdict.NonexistenceCertified

    # trial states drifting rightward push the energy down toward the
    # unattained half-line value c1 = 2/3
    grid = Grid.from_extent(20.0, 0.01)
    bounds = []
    for center in (0.0, 2.0, 4.0, 8.0):
        fam = oracle.AnsatzFamily((0.8, 1.2), (0.8, 1.2), (center, center), 3)
        bounds.append(oracle.ansatz_upper_bound(m, P3, fam, grid))
    assert all(a > b - 1e-12 for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] <= 0.70
    # the discrete bound may undershoot the continuum value by the O(h^2)
    # quadrature bias, about 4e-6 at this resolution
    assert bounds[-1] >= 2.0 / 3.0 - 1e-5

    # the finite-domain minimizer's center of mass moves outward as the
    # domain grows: the infimum is approached only in the translation limit
    coms = []
    for L in (20.0, 40.0):
        g = Grid.from_extent(L, 0.02)
        opts = SolverOptions(tol=2e-5, max_iter=200_000, strict=False)
        coms.append(solve_ground_state(m, P3, g, opts).center_of_mass)
    assert coms[0] >= 5.0
    assert coms[1] > coms[0] + 0.1


def test_acceptance_10_mode_weighted_mismatch_integral():
    rep = criteria.bloch_integral_criterion(
        FunctionDescriptor(const=1.0), FunctionDescriptor(const=0.5), -1.0
    )
    expected = -0.5 * (1.0 - math.exp(-2.0 * math.sqrt(2.0))) / (2.0 * math.sqrt(2.0))
    assert rep.intermediates["integral"] == pytest.approx(expected, abs=1e-6)
    assert rep.verdict is Verdict.ExistenceCertified
    flipped = criteria.bloch_integral_criterion(
        FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.5), -1.0
    )
    assert flipped.intermediates["integral"] == pytest.approx(-expected, abs=1e-6)
    assert flipped.verdict is Verdict.Inconclusive


def test_acceptance_11_dislocated_medium(a11_runs):
    rep = criteria.dislocation_report(
        MATHIEU, FunctionDescriptor(const=1.0), a11_runs["tau"], a11_runs["params"].lam
    )
    assert rep.verdict is Verdict.ExistenceCertified
    inter = rep.intermediates
    # derivative comparison at the interface point: V0'(-tau) - V0'(tau) = 2 pi
    assert inter["dV0_at_minus_tau"] - inter["dV0_at_tau"] == pytest.approx(
        2.0 * math.pi, abs=1e-10
    )
    assert min(inter["dis_cond1"], inter["dis_cond1_prime"]) < 0
    c1, c2 = a11_runs["side1"].energy_c, a11_runs["side2"].energy_c
    c = a11_runs["interface"].energy_c
    assert c1 == pytest.approx(c2, rel=1e-4)
    assert c < min(c1, c2) - 0.1


def test_acceptance_12_invariant_suite(grid20, a1_solution, a8_runs, a11_runs):
    # Nehari projection idempotence
    proj, _ = nehari_project(a1_solution.state, CONST_MEDIUM, P3)
    _, s2 = nehari_project(proj, CONST_MEDIUM, P3)
    assert abs(s2 - 1.0) <= 1e-12

    # energy identity on the constraint set: J = eta * quadratic form
    weights = _trap_weights(grid20)
    nonlin = float(np.sum(weights * np.abs(proj.values) ** 4))
    quad = G_eval(proj, CONST_MEDIUM, P3) + nonlin
    assert abs(J_eval(proj, CONST_MEDIUM, P3) - P3.eta * quad) <= 1e-10 * max(1.0, quad)

    # gradient vs central finite differences
    rng = np.random.default_rng(7)
    u = GridFunction.from_callable(grid20, lambda x: np.exp(-(x**2)) * (1 + 0.2 * np.cos(x)))
    g = grad_J(u, CONST_MEDIUM, P3)
    d = rng.standard_normal(grid20.nodes)
    d[0] = d[-1] = 0.0
    eps = 1e-5
    fd = (
        J_eval(u.with_values(u.values + eps * d), CONST_MEDIUM, P3)
        - J_eval(u.with_values(u.values - eps * d), CONST_MEDIUM, P3)
    ) / (2.0 * eps)
    assert abs(fd - float(np.dot(g, d))) / max(1.0, abs(fd)) <= 1e-6

    # Wronskian of the Floquet modes is constant along the period
    bd = bloch.bloch_modes(MATHIEU, -5.0)
    samples = bd.wronskian_samples()
    assert np.ptp(samples) / abs(bd.omega) <= 1e-8

    # interface energy never exceeds the smaller half-line energy
    for runs in (a8_runs, a11_runs):
        cmin = min(runs["side1"].energy_c, runs["side2"].energy_c)
        assert runs["interface"].energy_c <= cmin + 1e-6 * max(1.0, cmin)

    # positivity of every computed ground state, up to machine-zero sign
    # noise in the far tail
    for res in (
        a1_solution,
        a8_runs["side1"],
        a8_runs["side2"],
        a8_runs["interface"],
        a11_runs["side1"],
        a11_runs["side2"],
        a11_runs["interface"],
    ):
        v = res.state.values
        vmax = float(v.max())
        assert vmax > 0.0
        assert float(v.min()) >= -1e-10 * vmax
