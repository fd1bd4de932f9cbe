"""Existence / non-existence criteria and their certification logic."""

import dataclasses
import math

import numpy as np
import pytest

from sgslab import bloch, criteria, oracle
from sgslab.criteria import CriterionReport, Verdict
from sgslab.errors import InvalidEnergy, LambdaInSpectrum, NotDifferentiable, ShiftOutOfDomain
from sgslab.media import (
    FunctionDescriptor,
    PeriodicMedium,
    ProblemParams,
    compose_interface,
    dislocate,
)
from sgslab.variational import Grid, SolverOptions, d_coefficients, solve_ground_state

P3 = ProblemParams(p=3.0, lam=0.0)
CONST_V1 = FunctionDescriptor(const=1.0)
CONST_V05 = FunctionDescriptor(const=0.5)
CONST_G1 = FunctionDescriptor(const=1.0)
MATHIEU = FunctionDescriptor(const=1.0, cos=((1, 0.5),))

SIDE_HIGH = PeriodicMedium(CONST_V1, CONST_G1)
SIDE_LOW = PeriodicMedium(CONST_V05, CONST_G1)


@pytest.fixture(scope="module")
def solved_high():
    grid = Grid.from_extent(20.0, 0.01)
    return solve_ground_state(SIDE_HIGH, P3, grid, SolverOptions(tol=1e-8, seed_center=0.0))


# --- energy gap -------------------------------------------------------------


def test_energy_verdict_certifies_strict_gap():
    rep = criteria.energy_verdict(1.0, 1.2, 1.3, tol=1e-6)
    assert rep.verdict is Verdict.ExistenceCertified
    assert rep.intermediates["min_half_energy"] == 1.2


def test_energy_verdict_borderline_is_inconclusive():
    rep = criteria.energy_verdict(1.2, 1.2, 1.3, tol=1e-6)
    assert rep.verdict is Verdict.Inconclusive


def test_energy_verdict_flags_inconsistency():
    rep = criteria.energy_verdict(1.5, 1.2, 1.3, tol=1e-6)
    assert rep.verdict is Verdict.Inconclusive
    assert any("inconsistency" in n for n in rep.notes)


def test_report_refuses_certification_with_failed_assumption():
    with pytest.raises(ValueError):
        CriterionReport(
            "x", Verdict.ExistenceCertified, {}, [("hypothesis", False)]
        )


# --- coefficient-ordering non-existence ------------------------------------


def test_nonexistence_certified_by_potential_ordering():
    m = compose_interface(
        PeriodicMedium(CONST_V1, CONST_G1),
        PeriodicMedium(FunctionDescriptor(const=1.5), CONST_G1),
    )
    rep = criteria.nonexistence_check(m)
    assert rep.verdict is Verdict.NonexistenceCertified
    assert rep.intermediates["V_strict_somewhere"]


def test_nonexistence_certified_by_nonlinearity_ordering():
    m = compose_interface(
        PeriodicMedium(CONST_V1, FunctionDescriptor(const=2.0)),
        PeriodicMedium(CONST_V1, CONST_G1),
    )
    rep = criteria.nonexistence_check(m)
    assert rep.verdict is Verdict.NonexistenceCertified
    assert rep.intermediates["Gamma_strict_somewhere"]


def test_nonexistence_inconclusive_when_ordering_breaks():
    m = compose_interface(
        PeriodicMedium(FunctionDescriptor(const=1.5), CONST_G1),
        PeriodicMedium(CONST_V1, CONST_G1),
    )
    rep = criteria.nonexistence_check(m)
    assert rep.verdict is Verdict.Inconclusive


def test_nonexistence_identical_sides_not_strict():
    m = compose_interface(SIDE_HIGH, SIDE_HIGH)
    rep = criteria.nonexistence_check(m)
    assert rep.verdict is Verdict.Inconclusive


def test_nonexistence_fine_harmonic_not_certified():
    # V2 - V1 = 1e-3 + 2e-3 sin(2 pi 2048 x) dips to -1e-3, but is 1e-3 at
    # every point k / 2048 of a uniform 2048-sample grid
    V2 = FunctionDescriptor(const=1.001, sin=((2048, 2e-3),))
    m = compose_interface(SIDE_HIGH, PeriodicMedium(V2, CONST_G1))
    rep = criteria.nonexistence_check(m)
    assert rep.verdict is Verdict.Inconclusive
    assert rep.intermediates["max_V1_minus_V2"] == pytest.approx(1e-3, rel=1e-9)
    assert rep.assumptions_checked[0] == ("V1 <= V2 everywhere", False)


def test_nonexistence_constant_against_piecewise():
    V2 = FunctionDescriptor.piecewise(((0.0, 0.3, 1.2), (0.3, 0.8, 1.5), (0.8, 1.0, 1.1)))
    m = compose_interface(SIDE_HIGH, PeriodicMedium(V2, CONST_G1))
    rep = criteria.nonexistence_check(m)
    assert rep.verdict is Verdict.NonexistenceCertified
    assert rep.intermediates["max_V1_minus_V2"] == pytest.approx(-0.1)
    assert "sample_count" not in rep.intermediates


# --- shifted half-line state ------------------------------------------------


def test_shifted_state_certifies_lower_potential(solved_high):
    m = compose_interface(SIDE_HIGH, SIDE_LOW)
    rep = criteria.shifted_state_criterion(solved_high, m, P3, [1, 2, 3, 4])
    assert rep.verdict is Verdict.ExistenceCertified
    rows = rep.intermediates["rows"]
    assert all(r["holds"] for r in rows)
    # rows decay geometrically at e^{-2 kappa} with kappa = 1
    ratio = rows[-1]["lhs"] / rows[-2]["lhs"]
    assert ratio == pytest.approx(math.exp(-2.0), rel=0.2)


def test_shifted_state_inconclusive_higher_potential(solved_high):
    m = compose_interface(SIDE_HIGH, PeriodicMedium(FunctionDescriptor(const=1.5), CONST_G1))
    rep = criteria.shifted_state_criterion(solved_high, m, P3, [1, 2, 3, 4])
    assert rep.verdict is Verdict.Inconclusive


def test_shifted_state_certifies_stronger_nonlinearity(solved_high):
    m = compose_interface(SIDE_HIGH, PeriodicMedium(CONST_V1, FunctionDescriptor(const=2.0)))
    # the |w|^{p+1} integral needs one extra shift to reach its faster
    # asymptotic rate
    rep = criteria.shifted_state_criterion(solved_high, m, P3, [2, 3, 4, 5])
    assert rep.verdict is Verdict.ExistenceCertified
    rows = rep.intermediates["rows"]
    # nonlinear mismatch decays at e^{-(p+1) kappa}
    ratio = rows[-1]["rhs"] / rows[-2]["rhs"]
    assert ratio == pytest.approx(math.exp(-4.0), rel=0.2)


def mirror(m):
    """The interface seen under x -> -x: sides swapped, coefficients reflected."""
    return compose_interface(
        *(PeriodicMedium(s.V.reflected(), s.Gamma.reflected()) for s in (m.side2, m.side1))
    )


def test_shifted_state_other_branch(solved_high):
    # the state lives on side 2, so its mismatch lies over x > 0: mirror the
    # interface and the state, and the criterion integrates over x < 0
    m = compose_interface(SIDE_LOW, SIDE_HIGH)
    w = dataclasses.replace(
        solved_high, state=solved_high.state.with_values(solved_high.state.values[::-1])
    )
    rep = criteria.shifted_state_criterion(w, mirror(m), P3, [1, 2, 3, 4])
    assert rep.verdict is Verdict.ExistenceCertified
    assert "branch" not in rep.intermediates


def test_shifted_state_shift_out_of_domain(solved_high):
    m = compose_interface(SIDE_HIGH, SIDE_LOW)
    with pytest.raises(ShiftOutOfDomain):
        criteria.shifted_state_criterion(solved_high, m, P3, [25])


def test_shifted_state_lambda_in_spectrum_raises():
    # the solved side has spectrum bottom 1; lambda = 2 lies inside it, so
    # the decay rate kappa of the shifted rows does not exist
    grid = Grid.from_extent(10.0, 0.04)
    w = solve_ground_state(SIDE_HIGH, P3, grid, SolverOptions(tol=1e-8))
    m = compose_interface(SIDE_HIGH, SIDE_LOW)
    with pytest.raises(LambdaInSpectrum):
        criteria.shifted_state_criterion(w, m, ProblemParams(p=3.0, lam=2.0), [1, 2, 3, 4])


def test_shifted_state_rows_match_the_expansion_at_coarse_h():
    # criteria-mathieu's side-1 ground state: its V mismatch integrates to
    # near zero by cancellation, so the interface node x = 0 (trapezoid
    # weight h/2) carries a third of the row at h = 0.04
    side1 = PeriodicMedium(MATHIEU, FunctionDescriptor(const=1.5))
    m = compose_interface(side1, SIDE_HIGH)
    params = ProblemParams(p=3.0, lam=-1.0)
    w = solve_ground_state(side1, params, Grid.from_extent(14.0, 0.04), SolverOptions(tol=1e-8))
    row = criteria.shifted_state_criterion(w, m, params, [4]).intermediates["rows"][0]
    bd = bloch.bloch_modes(side1.V, params.lam)
    _, dm = d_coefficients(w.state, bd, side1.Gamma, params)
    lhs, rhs = criteria.asymptotic_expansion(bd, dm, m, params, 4)
    assert row["lhs"] / lhs == pytest.approx(1.0, abs=0.01)
    assert row["rhs"] / rhs == pytest.approx(1.0, abs=0.01)


# --- large-shift closed form ------------------------------------------------


def test_asymptotic_expansion_identical_sides():
    bd = oracle.constant_bloch_reference(1.0, -1.0)
    m = compose_interface(SIDE_HIGH, SIDE_HIGH)
    lhs, rhs = criteria.asymptotic_expansion(bd, 1.0, m, P3, 3)
    assert lhs == 0.0 and rhs == 0.0


def test_asymptotic_expansion_closed_form():
    # constant potentials 1 / 0.5 at lambda = -1: the weighted mismatch
    # integral telescopes to -(p+1) * 0.5 / (2 sqrt 2) at t = 0, d = 1
    bd = oracle.constant_bloch_reference(1.0, -1.0)
    m = compose_interface(SIDE_HIGH, SIDE_LOW)
    params = ProblemParams(p=3.0, lam=-1.0)
    lhs, rhs = criteria.asymptotic_expansion(bd, 1.0, m, params, 0)
    assert lhs == pytest.approx(-4.0 * 0.5 / (2.0 * math.sqrt(2.0)), abs=1e-6)
    assert rhs == 0.0


def test_asymptotic_expansion_matches_rows_at_large_shift(solved_high):
    m = compose_interface(SIDE_HIGH, SIDE_LOW)
    rep = criteria.shifted_state_criterion(solved_high, m, P3, [8])
    exact = rep.intermediates["rows"][0]["lhs"]
    bd = oracle.constant_bloch_reference(1.0, 0.0)
    _, dm = d_coefficients(solved_high.state, bd, CONST_G1, P3)
    lhs, _ = criteria.asymptotic_expansion(bd, dm, m, P3, 8)
    assert lhs == pytest.approx(exact, rel=0.05)


# --- mode-weighted potential-mismatch integral ------------------------------


def test_bloch_integral_constant_closed_form():
    # int_{-1}^0 (0.5 - 1) e^{2 sqrt2 x} dx = -0.5 (1 - e^{-2 sqrt2}) / (2 sqrt2)
    rep = criteria.bloch_integral_criterion(CONST_V1, CONST_V05, -1.0)
    expected = -0.5 * (1.0 - math.exp(-2.0 * math.sqrt(2.0))) / (2.0 * math.sqrt(2.0))
    assert rep.verdict is Verdict.ExistenceCertified
    assert rep.intermediates["integral"] == pytest.approx(expected, abs=1e-6)


def test_bloch_integral_positive_is_inconclusive():
    rep = criteria.bloch_integral_criterion(CONST_V05, CONST_V1, -1.0)
    assert rep.verdict is Verdict.Inconclusive
    assert rep.intermediates["integral"] > 0


def test_bloch_integral_orientation_symmetry():
    # the other orientation, int_0^1 (V1 - V2) (p_+ e^{-kappa x})^2 with the
    # side-2 mode decaying at +inf, is the criterion on the mirrored pair
    lam = -3.0
    pairs = [
        (MATHIEU, FunctionDescriptor(const=0.7, sin=((1, 0.2),))),
        (FunctionDescriptor.piecewise(((0.0, 0.3, 1.0), (0.3, 1.0, 2.0))),
         FunctionDescriptor.piecewise(((0.0, 0.6, 0.5), (0.6, 1.0, 1.5)))),
    ]
    for V1, V2 in pairs:
        bd = bloch.bloch_modes(V2, lam, samples=criteria.BLOCH_SAMPLES)
        x = np.linspace(0.0, 1.0, bd.samples)
        mode = bd.p_plus_at(x) * np.exp(-bd.kappa * x)
        reverse = np.trapezoid((V1(x) - V2(x)) * mode**2, x)
        rep = criteria.bloch_integral_criterion(V2.reflected(), V1.reflected(), lam)
        assert rep.intermediates["integral"] == pytest.approx(reverse, rel=1e-12)
        assert rep.intermediates["kappa"] == pytest.approx(bd.kappa, rel=1e-12)
        assert "orientation" not in rep.intermediates


def test_bloch_integral_lambda_in_other_spectrum_is_inconclusive():
    # lambda = 0.7 lies below the spectrum of V1 = 1 but inside that of V2 = 0.5
    rep = criteria.bloch_integral_criterion(CONST_V1, CONST_V05, 0.7)
    assert rep.intermediates["integral"] < 0
    assert rep.verdict is Verdict.Inconclusive
    assert rep.assumptions_checked == [("lambda below the relevant spectrum bottom", False)]


# --- interface-point comparison ---------------------------------------------


def test_boundary_condition_value_branch():
    rep = criteria.boundary_condition(CONST_V1, CONST_V05)
    assert rep.verdict is Verdict.ExistenceCertified
    assert rep.intermediates["branch"] == "value"
    assert any("asymptotic" in n for n in rep.notes)


def test_boundary_condition_derivative_branch():
    V1 = FunctionDescriptor(const=1.0, sin=((1, -0.3),))
    V2 = FunctionDescriptor(const=1.0, sin=((1, 0.3),))
    rep = criteria.boundary_condition(V1, V2)
    assert rep.verdict is Verdict.ExistenceCertified
    assert rep.intermediates["branch"] == "derivative"


def test_boundary_condition_inconclusive():
    rep = criteria.boundary_condition(CONST_V1, CONST_V1)
    assert rep.verdict is Verdict.Inconclusive


def test_boundary_condition_reverse_orientation():
    # V1(0) < V2(0) certifies in the other orientation: the mirrored pair
    V1, V2 = CONST_V05, CONST_V1
    assert criteria.boundary_condition(V1, V2).verdict is Verdict.Inconclusive
    rep = criteria.boundary_condition(V2.reflected(), V1.reflected())
    assert rep.verdict is Verdict.ExistenceCertified
    assert rep.intermediates["branch"] == "value"
    # the derivative tie-break keeps its direction under the mirror
    V1 = FunctionDescriptor(const=1.0, sin=((1, -0.3),))
    V2 = FunctionDescriptor(const=1.0, sin=((1, 0.3),))
    rep = criteria.boundary_condition(V2.reflected(), V1.reflected())
    assert rep.verdict is Verdict.ExistenceCertified
    assert rep.intermediates["branch"] == "derivative"


def test_boundary_condition_breakpoint_propagates():
    V1 = FunctionDescriptor(segments=((0.0, 0.5, 1.0), (0.5, 1.0, 2.0)))
    V2 = FunctionDescriptor(segments=((0.0, 0.5, 1.0), (0.5, 1.0, 3.0)))
    with pytest.raises(NotDifferentiable):
        criteria.boundary_condition(V1, V2)


# --- frequency-scaled pairs -------------------------------------------------


def test_scaled_interface_constant_example():
    m2 = PeriodicMedium(CONST_V1, CONST_G1)
    rep = criteria.scaled_interface_check(m2, 2, 4.0, P3)
    assert rep.verdict is Verdict.ExistenceCertified
    assert rep.intermediates["predicted_c1_over_c2"] == pytest.approx(0.5)


def test_scaled_interface_degenerate_scale():
    m2 = PeriodicMedium(CONST_V1, CONST_G1)
    rep = criteria.scaled_interface_check(m2, 1, 1.0, P3)
    assert rep.verdict is Verdict.Inconclusive


def test_scaled_interface_oscillatory_potential():
    m2 = PeriodicMedium(MATHIEU, CONST_G1)
    rep = criteria.scaled_interface_check(m2, 2, 4.0, P3)
    # sup V2 = 1.5 < 4 * inf V2 = 2.0
    assert rep.verdict is Verdict.ExistenceCertified


# --- nonlinearity-jump threshold --------------------------------------------


def test_beta0_equal_energies():
    beta0, rep = criteria.large_jump_beta0(1.0, 1.0, P3)
    assert beta0 == pytest.approx(1.0)
    assert rep.verdict is Verdict.Inconclusive  # no medium supplied


def test_beta0_scaling_law():
    b1, _ = criteria.large_jump_beta0(2.0, 1.0, P3)
    assert b1 == pytest.approx(0.5)
    for alpha in (0.5, 3.0):
        ba, _ = criteria.large_jump_beta0(alpha * 2.0, 1.0, P3)
        assert ba == pytest.approx(b1 * alpha ** (-1.0), rel=1e-12)


def test_beta0_with_certifying_medium():
    # side 2: constant potential 0.5, c2 = 0.5^{3/2} * 4/3; side 1: unit
    # potential, c1_unit = 4/3; beta0 = (c2/c1)^{-1} = 2 sqrt 2
    c1_unit = 4.0 / 3.0
    c2 = 0.5**1.5 * 4.0 / 3.0
    m = compose_interface(
        PeriodicMedium(CONST_V1, FunctionDescriptor(const=3.0)),
        PeriodicMedium(CONST_V05, CONST_G1),
    )
    beta0, rep = criteria.large_jump_beta0(c2, c1_unit, P3, m)
    assert beta0 == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert rep.verdict is Verdict.ExistenceCertified


def test_beta0_constant_against_piecewise_potential():
    # side 2 has a piecewise potential, side 1 a constant one: sup(V2 - V1)
    # comes from the exact piecewise difference
    V2 = FunctionDescriptor.piecewise(((0.0, 0.5, 0.2), (0.5, 1.0, 0.4)))
    m = compose_interface(
        PeriodicMedium(CONST_V1, FunctionDescriptor(const=3.0)),
        PeriodicMedium(V2, CONST_G1),
    )
    # p = 3: beta0 = c1_unit / c2
    beta0, rep = criteria.large_jump_beta0(1.0, 4.0, P3, m)
    assert beta0 == pytest.approx(4.0)
    assert rep.intermediates["sup_V2_minus_V1"] == pytest.approx(-0.6)
    assert rep.verdict is Verdict.Inconclusive
    beta0, rep = criteria.large_jump_beta0(1.0, 3.0, P3, m)
    assert beta0 == pytest.approx(3.0)
    assert rep.verdict is Verdict.ExistenceCertified


def test_beta0_rejects_nonpositive_energy():
    with pytest.raises(InvalidEnergy):
        criteria.large_jump_beta0(-1.0, 1.0, P3)


# --- dislocated media -------------------------------------------------------


def test_dislocation_zero_shift_inconclusive():
    rep = criteria.dislocation_report(MATHIEU, CONST_G1, 0.0, -20.0)
    assert rep.verdict is Verdict.Inconclusive


def test_dislocation_oscillatory_quarter_shift():
    rep = criteria.dislocation_report(MATHIEU, CONST_G1, 0.25, -20.0)
    assert rep.verdict is Verdict.ExistenceCertified
    inter = rep.intermediates
    # for an even potential the two orientation integrals coincide
    assert inter["dis_cond1"] == pytest.approx(inter["dis_cond1_prime"], abs=1e-10)
    assert inter["dis_cond1"] < 0
    # the interface-point comparison breaks the tie through the derivative
    assert inter["boundary_branch_fires"]
    # V0''(0) < 0 and tau > 0 fire the small-shift branch
    assert inter["small_shift_branch_fires"]


@pytest.mark.parametrize(
    "V0, calls",
    [
        (MATHIEU, 1),
        (FunctionDescriptor(const=1.0, cos=((1, 0.5), (2, 0.2))), 1),
        (FunctionDescriptor(const=1.0, sin=((1, 0.5),)), 2),
        (FunctionDescriptor(segments=((0.0, 0.3, -1.0), (0.3, 1.0, 3.0))), 2),
        # even, but the mirrored breakpoints differ from the shifted ones by rounding
        (FunctionDescriptor(segments=((0.0, 0.25, 3.0), (0.25, 0.75, -1.0), (0.75, 1.0, 3.0))), 2),
    ],
    ids=["mathieu", "even-two-harmonic", "sine", "kronig-penney", "even-piecewise"],
)
def test_dislocation_integrates_each_distinct_orientation_once(V0, calls, monkeypatch):
    # an even V0 mirrors the dislocated interface onto itself: one Bloch integral
    # serves both orientations; otherwise each orientation is its own criterion
    tau, lam = 0.2, -2.0
    V1, V2 = V0.shifted(tau), V0.shifted(-tau)
    alone = [criteria.bloch_integral_criterion(*pair, lam).intermediates
             for pair in ((V1, V2), (V2.reflected(), V1.reflected()))]
    seen = []
    modes = bloch.bloch_modes
    monkeypatch.setattr(bloch, "bloch_modes", lambda *a, **k: seen.append(a) or modes(*a, **k))
    inter = criteria.dislocation_report(V0, CONST_G1, tau, lam).intermediates
    assert len(seen) == calls
    assert (inter["dis_cond1"], inter["kappa_side1"]) == (alone[0]["integral"], alone[0]["kappa"])
    assert (inter["dis_cond1_prime"], inter["kappa_side2"]) == (alone[1]["integral"], alone[1]["kappa"])
    if calls == 1:
        assert inter["dis_cond1"] == inter["dis_cond1_prime"]
        assert inter["kappa_side1"] == inter["kappa_side2"]


def test_dislocation_negative_shift_small_branch():
    # tau < 0 with V0''(0) < 0 must not fire the small-shift branch
    rep = criteria.dislocation_report(MATHIEU, CONST_G1, -0.25, -20.0)
    assert not rep.intermediates["small_shift_branch_fires"]


def test_dislocation_report_serializes():
    rep = criteria.dislocation_report(MATHIEU, CONST_G1, 0.25, -20.0)
    d = rep.to_json()
    assert d["verdict"] == "ExistenceCertified"
    assert "dis_cond1" in d["intermediates"]
