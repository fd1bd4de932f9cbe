"""Tests of the benchmark's own reference code and tracer.

Kept out of the repository's tier-1 suite; run with

    python3 -m pytest perfbench/tests -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import reference as ref  # noqa: E402


def test_kp_equal_segments_reduce_to_constant_closed_form():
    for v, lam in ((1.0, -0.5), (2.5, 1.0), (0.0, -3.0)):
        segs = [(0.0, 0.3, v), (0.3, 0.5, v), (0.5, 1.0, v)]
        k = math.sqrt(v - lam)
        assert ref.kp_trace(segs, lam) == pytest.approx(2.0 * math.cosh(k), rel=1e-13)
        assert ref.kappa_from_trace(ref.kp_trace(segs, lam)) == pytest.approx(k, rel=1e-12)


def test_kp_monodromy_has_unit_determinant():
    M = ref.kp_monodromy([(0.0, 0.3, -1.0), (0.3, 1.0, 3.0)], -1.5)
    assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-12)


def test_kp_bottom_of_constant_is_the_constant():
    assert ref.kp_bottom([(0.0, 0.5, 1.3), (0.5, 1.0, 1.3)]) == pytest.approx(1.3, abs=1e-10)


def test_ivp_monodromy_matches_transfer_matrices():
    segs = [(0.0, 0.5, -1.0), (0.5, 1.0, 3.0)]
    V = lambda x: float(ref.evaluate({"segments": segs}, x))
    M = ref.ivp_monodromy(V, -2.0)
    assert np.trace(M) == pytest.approx(ref.kp_trace(segs, -2.0), rel=1e-8)


def test_mathieu_bottom_small_amplitude_perturbation():
    # second order: E0 = c - a^2 / (8 pi^2)
    a = 0.01
    assert ref.mathieu_bottom(1.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert ref.mathieu_bottom(1.0, a) == pytest.approx(1.0 - a * a / (8 * math.pi**2), abs=1e-9)


def test_mathieu_bottom_matches_floquet_trace():
    bottom = ref.mathieu_bottom(1.0, 0.5)
    V = lambda x: 1.0 + 0.5 * math.cos(2 * math.pi * x)
    assert np.trace(ref.ivp_monodromy(V, bottom)) == pytest.approx(2.0, abs=1e-8)


def test_constant_bloch_integral_against_quadrature():
    v1, v2, lam = 1.0, 0.5, -1.0
    k = math.sqrt(v1 - lam)
    num = quad(lambda x: (v2 - v1) * math.exp(2 * k * x), -1.0, 0.0)[0]
    assert ref.constant_bloch_integral(v1, v2, lam) == pytest.approx(num, rel=1e-12)


def test_single_harmonic_range_is_exact():
    d = ref.harmonic_difference({"const": 1.5, "sin": [[3, 0.2]]}, {"const": 1.0, "cos": [[3, 0.1]]})
    lo, hi = ref.single_harmonic_range(d)
    x = np.linspace(0.0, 1.0, 200001)
    f = ref.evaluate(d, x)
    assert lo <= f.min() <= lo + 1e-9
    assert hi - 1e-9 <= f.max() <= hi
    with pytest.raises(ValueError):
        ref.single_harmonic_range({"const": 0.0, "cos": [[1, 1.0], [2, 1.0]]})


def test_fine_harmonic_difference_has_negative_inf():
    d = ref.harmonic_difference({"const": 1.001, "sin": [[2048, 2e-3]]}, 1.0)
    assert ref.single_harmonic_range(d)[0] == pytest.approx(-1e-3, abs=1e-15)


def test_decaying_factor_of_constant_potential():
    kappa, x, p = ref.decaying_left_factor(lambda s: 2.0, -2.0, 65)
    assert kappa == pytest.approx(2.0, rel=1e-12)
    assert np.max(np.abs(p - 1.0)) < 1e-10


def test_dislocation_integral_vanishes_without_shift():
    assert ref.dislocation_integral({"const": 1.0, "cos": [[1, 0.5]]}, 0.0, -1.0) == 0.0


def test_residual_of_exact_sech_is_second_order():
    def residual(h):
        x = np.linspace(-12.0, 12.0, int(round(24.0 / h)) + 1)
        u = ref.sech_profile(x, 1.0, 1.0, 0.0, 0.0)
        one = np.ones_like(x)
        return ref.discrete_terms(x, u, one, one, 0.0, 3.0)[3]

    r1, r2 = residual(0.04), residual(0.02)
    assert r1 < 0.01
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)


def test_energy_of_sampled_sech_converges_to_closed_form():
    x = np.linspace(-15.0, 15.0, 3001)
    u = ref.sech_profile(x, 1.5, 2.0, -0.5, 0.0)
    G = np.full_like(x, 2.0)
    Q, N, J, _ = ref.discrete_terms(x, u, np.full_like(x, 1.5), G, -0.5, 3.0)
    # the continuum soliton satisfies Q = N and J = Q / 4
    assert J == pytest.approx(ref.soliton_energy(1.5, 2.0, -0.5), rel=1e-3)
    assert N == pytest.approx(Q, rel=1e-3)


def test_read_profile_takes_exactly_one_state(tmp_path):
    path = tmp_path / "profiles.csv"
    path.write_text("x,u,V,Gamma\n-1,0,1,1\n0,1,1,1\n1,0,1,1\n")
    x, u = ref.read_profile(path)
    assert list(x) == [-1.0, 0.0, 1.0] and list(u) == [0.0, 1.0, 0.0]
    path.write_text("x,u,V,Gamma\n-1,0,1,1\n1,0,1,1\n-1,0,1,1\n1,0,1,1\n")
    with pytest.raises(ValueError):
        ref.read_profile(path)


def test_tracer_counts_aliases_and_restores():
    from layertrace import Tracer
    from sgslab import oracle, variational
    from sgslab.media import FunctionDescriptor, PeriodicMedium, ProblemParams

    original = oracle.J_eval
    m = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.0))
    grid = variational.Grid.from_extent(5.0, 0.1)
    fam = oracle.AnsatzFamily((1.0, 1.2), (1.0, 1.0), (0.0, 0.0), 2)
    tr = Tracer()
    tr.install()
    try:
        oracle.ansatz_upper_bound(m, ProblemParams(3.0, 0.0), fam, grid)
    finally:
        tr.uninstall()
    assert oracle.J_eval is original
    got = tr.metrics(1)
    assert got["oracle.ansatz_upper_bound.calls"]["value"] == 1
    trials = 2**3
    assert got["variational.J_eval.calls"]["value"] == trials
    assert got["variational.nehari_project.calls"]["value"] == trials
    # each projection and each energy calls eval_medium, which calls V and Gamma
    assert got["media.eval.calls"]["value"] == 2 * trials * 3
    assert got["media.eval.points"]["value"] == 2 * trials * 2 * grid.nodes
