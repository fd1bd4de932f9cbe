"""Closed-form and brute-force reference implementations."""

import dataclasses
import math

import numpy as np
import pytest

from sgslab import bloch, oracle
from sgslab.errors import LambdaInSpectrum, NonprojectableState
from sgslab.media import FunctionDescriptor, PeriodicMedium, ProblemParams, compose_interface
from sgslab.variational import Grid, GridFunction, J_eval, _Discretization, grad_J, nehari_project

P3 = ProblemParams(p=3.0, lam=0.0)
CONST_MEDIUM = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.0))
# Gamma = -1 on [k, k + 0.9) of every cell of side 2 (x < 0)
NEG_GAMMA_INTERFACE = compose_interface(
    CONST_MEDIUM,
    PeriodicMedium(
        FunctionDescriptor(const=1.0),
        FunctionDescriptor(segments=((0.0, 0.9, -1.0), (0.9, 1.0, 0.5))),
    ),
)
DRIFT_INTERFACE = compose_interface(
    PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=2.0)),
    PeriodicMedium(FunctionDescriptor(const=2.0), FunctionDescriptor(const=1.0)),
)


def test_soliton_unit_case():
    grid = Grid.from_extent(20.0, 0.01)
    w, c = oracle.closed_form_soliton(1.0, 1.0, 3.0, grid)
    assert c == pytest.approx(4.0 / 3.0, abs=1e-8)
    x0 = grid.nodes // 2
    assert w.values[x0] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_soliton_mass_scaling():
    grid = Grid.from_extent(20.0, 0.01)
    _, c = oracle.closed_form_soliton(2.0, 1.0, 3.0, grid)
    assert c == pytest.approx(8.0 * math.sqrt(2.0) / 3.0, abs=1e-6)


def test_soliton_nonlinearity_scaling():
    grid = Grid.from_extent(20.0, 0.01)
    _, c1 = oracle.closed_form_soliton(1.0, 1.0, 3.0, grid)
    _, cb = oracle.closed_form_soliton(1.0, 2.0, 3.0, grid)
    assert cb == pytest.approx(c1 / 2.0, abs=1e-8)


def test_soliton_satisfies_discrete_equation():
    # the exact profile should be nearly critical for the discrete energy
    grid = Grid.from_extent(30.0, 0.001)
    w, _ = oracle.closed_form_soliton(1.0, 1.0, 3.0, grid)
    g = grad_J(w, CONST_MEDIUM, P3)
    residual = float(np.linalg.norm(g[1:-1] / grid.h)) * math.sqrt(grid.h)
    assert residual <= 1e-6


def test_constant_bloch_reference_values():
    bd = oracle.constant_bloch_reference(1.0, -1.0)
    assert bd.kappa == pytest.approx(math.sqrt(2.0))
    assert bd.omega == pytest.approx(2.0 * math.sqrt(2.0))
    assert bd.discriminant == pytest.approx(2.0 * math.cosh(math.sqrt(2.0)))
    bd0 = oracle.constant_bloch_reference(0.0, -1.0)
    assert bd0.kappa == pytest.approx(1.0)


def test_constant_bloch_reference_rejects_spectrum():
    with pytest.raises(LambdaInSpectrum):
        oracle.constant_bloch_reference(1.0, 1.0)


def test_constant_bloch_matches_bloch_module():
    bd = bloch.bloch_modes(FunctionDescriptor(const=1.0), -1.0)
    ref = oracle.constant_bloch_reference(1.0, -1.0)
    assert bd.kappa == pytest.approx(ref.kappa, abs=1e-10)
    assert np.max(np.abs(bd.p_plus - ref.p_plus[: bd.samples])) <= 1e-8


def test_ansatz_bound_contains_exact_member():
    # fine grid: the discrete energy of the exact profile must match the
    # continuum value to 1e-6, and the discretization bias is O(h^2)
    grid = Grid.from_extent(20.0, 0.0025)
    fam = oracle.AnsatzFamily((math.sqrt(2.0), math.sqrt(2.0)), (1.0, 1.0), (0.0, 0.0), 2)
    bound = oracle.ansatz_upper_bound(CONST_MEDIUM, P3, fam, grid)
    assert bound == pytest.approx(4.0 / 3.0, abs=1e-6)


def test_ansatz_bound_monotone_under_refinement():
    grid = Grid.from_extent(15.0, 0.02)
    coarse = oracle.AnsatzFamily((0.8, 1.8), (0.6, 1.4), (-1.0, 1.0), 3)
    fine = oracle.AnsatzFamily((0.8, 1.8), (0.6, 1.4), (-1.0, 1.0), 5)
    b_coarse = oracle.ansatz_upper_bound(CONST_MEDIUM, P3, coarse, grid)
    b_fine = oracle.ansatz_upper_bound(CONST_MEDIUM, P3, fine, grid)
    assert b_fine <= b_coarse + 1e-12


def test_ansatz_bound_skips_nonprojectable():
    # a medium with negative nonlinearity on one side: trials centered there
    # are skipped rather than fatal
    m = compose_interface(
        PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.0)),
        PeriodicMedium(
            FunctionDescriptor(const=1.0),
            FunctionDescriptor(segments=((0.0, 0.9, -1.0), (0.9, 1.0, 0.5))),
        ),
    )
    grid = Grid.from_extent(15.0, 0.02)
    fam = oracle.AnsatzFamily((1.0, 1.4), (0.8, 1.2), (-6.0, 6.0), 5)
    bound = oracle.ansatz_upper_bound(m, P3, fam, grid)
    assert math.isfinite(bound)


def _projected_scan(m, fam, grid):
    """The bound from its definition: every trial of the full
    resolution^3 grid (repeats included) as a GridFunction, projected with
    nehari_project and scored with J_eval.  Returns (bound, skipped trials)."""
    expo = 2.0 / (P3.p - 1.0)
    axes = [np.linspace(lo, hi, fam.resolution)
            for lo, hi in (fam.amplitude_range, fam.width_range, fam.center_range)]
    best, skipped = math.inf, 0
    for a in axes[0]:
        for wdt in axes[1]:
            for ctr in axes[2]:
                trial = GridFunction.from_callable(grid, lambda x: a * np.cosh(wdt * (x - ctr)) ** (-expo))
                try:
                    proj, _ = nehari_project(trial, m, P3)
                except NonprojectableState:
                    skipped += 1
                    continue
                best = min(best, J_eval(proj, m, P3))
    return best, skipped


@pytest.mark.parametrize("m, fam", [
    # degenerate width axis; trials centred at -6 and -3 are not projectable
    (NEG_GAMMA_INTERFACE, oracle.AnsatzFamily((1.0, 1.4), (0.8, 0.8), (-6.0, 6.0), 5)),
    # degenerate centre axis, as in the drift check of acceptance 09
    (DRIFT_INTERFACE, oracle.AnsatzFamily((0.8, 1.2), (0.8, 1.2), (2.0, 2.0), 4)),
])
def test_ansatz_bound_equals_projected_scan_exactly(m, fam):
    grid = Grid.from_extent(15.0, 0.02)
    ref, skipped = _projected_scan(m, fam, grid)
    assert (skipped > 0) == (m is NEG_GAMMA_INTERFACE)
    bound = oracle.ansatz_upper_bound(m, P3, fam, grid)
    # the scan scores unit-amplitude trials only, so it meets the full
    # family's minimum over amplitude copies up to rounding
    assert bound == pytest.approx(ref, rel=1e-12)
    unit = dataclasses.replace(fam, amplitude_range=(1.0, 1.0))
    assert bound == oracle.ansatz_upper_bound(m, P3, unit, grid)
    assert bound == _projected_scan(m, unit, grid)[0]


def test_ansatz_bound_is_even_in_the_amplitude():
    # amplitudes -1, 0, 1: the zero trial is skipped, -1 projects to -(1's state)
    grid = Grid.from_extent(15.0, 0.02)
    fam = oracle.AnsatzFamily((-1.0, 1.0), (0.8, 1.2), (-1.0, 1.0), 3)
    unit = dataclasses.replace(fam, amplitude_range=(1.0, 1.0))
    assert oracle.ansatz_upper_bound(DRIFT_INTERFACE, P3, fam, grid) == \
        oracle.ansatz_upper_bound(DRIFT_INTERFACE, P3, unit, grid)


def test_ansatz_bound_rejects_zero_amplitude():
    grid = Grid.from_extent(15.0, 0.02)
    fam = oracle.AnsatzFamily((0.0, 0.0), (0.8, 1.2), (-1.0, 1.0), 3)
    with pytest.raises(NonprojectableState, match="AnsatzFamily"):
        oracle.ansatz_upper_bound(DRIFT_INTERFACE, P3, fam, grid)


def test_ansatz_bound_projects_each_shape_once(monkeypatch):
    calls = []
    scale = _Discretization.scale
    monkeypatch.setattr(_Discretization, "scale", lambda self, v: calls.append(1) or scale(self, v))
    grid = Grid.from_extent(15.0, 0.02)
    fam = oracle.AnsatzFamily((0.8, 1.2), (0.8, 1.2), (2.0, 2.0), 7)
    oracle.ansatz_upper_bound(DRIFT_INTERFACE, P3, fam, grid)
    assert len(calls) == 7


def test_ansatz_axes_degenerate_range_is_one_value():
    fam = oracle.AnsatzFamily((0.8, 1.2), (1.0, 1.0), (2.0, 2.0), 7)
    amps, widths, centers = fam.axes()
    assert len(amps) == 7
    assert list(widths) == [1.0] and list(centers) == [2.0]


@pytest.mark.parametrize("kwargs", [
    {"resolution": 1},
    {"resolution": 0},
    {"center_range": (0.0, math.inf)},
    {"amplitude_range": (math.nan, 1.0)},
    {"resolution": 2.5},
    {"resolution": True},
])
def test_ansatz_family_rejects_bad_input(kwargs):
    args = {"amplitude_range": (1.0, 1.2), "width_range": (1.0, 1.0), "center_range": (0.0, 0.0)}
    with pytest.raises(ValueError):
        oracle.AnsatzFamily(**{**args, **kwargs})


def test_ansatz_bound_raises_when_no_trial_projects():
    # narrow trials centred only inside Gamma = -1 cells of side 2
    grid = Grid.from_extent(15.0, 0.02)
    fam = oracle.AnsatzFamily((1.0, 1.4), (15.0, 20.0), (-5.6, -5.5), 3)
    with pytest.raises(NonprojectableState, match="AnsatzFamily"):
        oracle.ansatz_upper_bound(NEG_GAMMA_INTERFACE, P3, fam, grid)
