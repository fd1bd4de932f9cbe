"""Floquet analysis of the Hill operator below its spectrum."""

import cmath
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import sgslab
from sgslab import bloch, oracle
from sgslab.errors import IntegrationFailure, LambdaInSpectrum
from sgslab.media import FunctionDescriptor

V_CONST = FunctionDescriptor(const=1.0)
V_MATHIEU = FunctionDescriptor(const=1.0, cos=((1, 0.5),))
V_KP = FunctionDescriptor(segments=((0.0, 0.3, 1.0), (0.3, 1.0, 2.0)))
V_TWO = FunctionDescriptor(const=0.5, cos=((1, 0.7),), sin=((2, 0.4),))


def test_monodromy_constant_closed_form():
    # [[cosh k, sinh k / k], [k sinh k, cosh k]] with k = sqrt(v0 - lambda)
    M = bloch.monodromy(V_CONST, -1.0)
    k = math.sqrt(2.0)
    assert M.trace == pytest.approx(2 * math.cosh(k), abs=1e-10)
    assert M.m12 == pytest.approx(math.sinh(k) / k, abs=1e-10)
    assert M.m21 == pytest.approx(k * math.sinh(k), abs=1e-10)
    assert M.det == pytest.approx(1.0, abs=1e-10)


def test_monodromy_band_edge_limit():
    M = bloch.monodromy(V_CONST, 1.0)
    assert M.m11 == pytest.approx(1.0, abs=1e-10)
    assert M.m12 == pytest.approx(1.0, abs=1e-10)
    assert M.m21 == pytest.approx(0.0, abs=1e-10)
    assert M.m22 == pytest.approx(1.0, abs=1e-10)


def test_monodromy_det_identity():
    M = bloch.monodromy(V_MATHIEU, -5.0)
    assert M.det == pytest.approx(1.0, abs=1e-10)


def test_spectrum_min_constant():
    assert bloch.spectrum_min(V_CONST) == pytest.approx(1.0, abs=1e-8)
    assert bloch.spectrum_min(FunctionDescriptor(const=0.0)) == pytest.approx(0.0, abs=1e-8)


def test_spectrum_min_mathieu():
    lam = bloch.spectrum_min(V_MATHIEU)
    assert 0.5 < lam < 1.5
    assert bloch.discriminant(V_MATHIEU, lam) == pytest.approx(2.0, abs=1e-8)


def test_bloch_modes_constant_reference():
    bd = bloch.bloch_modes(V_CONST, -1.0)
    ref = oracle.constant_bloch_reference(1.0, -1.0)
    assert bd.kappa == pytest.approx(ref.kappa, abs=1e-10)
    assert np.max(np.abs(bd.p_plus - 1.0)) <= 1e-8
    assert np.max(np.abs(bd.p_minus - 1.0)) <= 1e-8
    assert bd.omega == pytest.approx(ref.omega, abs=1e-8)
    assert bd.discriminant == pytest.approx(ref.discriminant, abs=1e-8)


def test_bloch_modes_band_edge_kappa_small():
    bd = bloch.bloch_modes(V_CONST, 0.999)
    assert bd.kappa == pytest.approx(math.sqrt(0.001), rel=1e-4)


def test_lambda_in_spectrum_rejected():
    with pytest.raises(LambdaInSpectrum):
        bloch.bloch_modes(V_CONST, 1.5)


def test_kappa_bounds():
    # decay exponent bounded by sqrt(-sup|V| - lambda) and sqrt(sup|V| - lambda)
    sup = V_MATHIEU.sup_norm()
    for lam in (-5.0, -10.0, -100.0):
        bd = bloch.bloch_modes(V_MATHIEU, lam)
        assert math.sqrt(-sup - lam) <= bd.kappa <= math.sqrt(sup - lam)


def test_wronskian_constant_along_period():
    bd = bloch.bloch_modes(V_MATHIEU, -5.0)
    samples = bd.wronskian_samples()
    idx = np.linspace(0, len(samples) - 1, 11).astype(int)
    spread = np.ptp(samples[idx]) / abs(bd.omega)
    assert spread <= 1e-8


def test_discriminant_monotone_below_bottom():
    lams = np.linspace(-10.0, 0.9, 12)
    ds = [bloch.discriminant(V_MATHIEU, lam) for lam in lams]
    assert all(a > b + 1e-8 for a, b in zip(ds, ds[1:]))


@pytest.mark.parametrize("lam", [-1e3, -1e4, -1.2e5])
def test_bloch_modes_constant_closed_form_deep(lam):
    # for constant V, p_pm = 1 and omega = 2 kappa exactly; the scaled sweeps
    # keep the factors at order one however large kappa is
    bd = bloch.bloch_modes(V_CONST, lam)
    assert np.max(np.abs(bd.p_plus - 1.0)) <= 1e-10
    assert np.max(np.abs(bd.p_minus - 1.0)) <= 1e-10
    assert abs(bd.omega / (2.0 * bd.kappa) - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "V", [V_MATHIEU, V_KP, V_TWO, FunctionDescriptor(const=0.3, sin=((3, 1.1),))],
    ids=["mathieu", "kronig-penney", "two-harmonic", "sine"],
)
def test_p_plus_is_p_minus_of_the_reflected_potential(V):
    # the backward adjugate sweep against an independent forward sweep:
    # u_plus(x) of V is u_minus(1 - x) of V reflected
    bottom = bloch.spectrum_min(V)
    for lam in (bottom - 1e-6, bottom - 1e-2, -2.0, -50.0, -1e3):
        bd = bloch.bloch_modes(V, lam)
        mirror = bloch.bloch_modes(V.reflected(), lam)
        assert np.max(np.abs(bd.p_plus - mirror.p_minus[::-1])) <= 1e-12
        assert np.max(np.abs(bd.dp_plus + mirror.dp_minus[::-1])) <= 1e-12


def test_bloch_modes_propagates_the_potential_once_beyond_the_monodromy(monkeypatch):
    V = V_TWO
    assert V.reflected() != V
    bloch.spectrum_min(V)
    seen = []
    propagators = bloch._propagators

    def counted(W, *args):
        seen.append(W)
        return propagators(W, *args)

    monkeypatch.setattr(bloch, "_propagators", counted)
    bloch.bloch_modes(V, -3.0)
    assert seen == [V, V]


def test_step_halving_converged():
    k1 = bloch.bloch_modes(V_MATHIEU, -5.0, steps=4096).kappa
    k2 = bloch.bloch_modes(V_MATHIEU, -5.0, steps=8192).kappa
    assert abs(k1 - k2) <= 1e-9


def test_positive_periodic_parts():
    bd = bloch.bloch_modes(V_MATHIEU, -2.0)
    assert bd.p_plus.min() > 0
    assert bd.p_minus.min() > 0
    assert bd.p_plus.max() == pytest.approx(1.0, abs=1e-10)
    assert bd.p_minus.max() == pytest.approx(1.0, abs=1e-10)


def test_asymptotic_diagnostics_free_operator():
    kg, sg, pd = bloch.asymptotic_diagnostics(FunctionDescriptor(const=0.0), -4.0)
    assert abs(kg) <= 1e-10
    assert abs(sg) <= 1e-9
    assert pd <= 1e-9


def test_asymptotic_diagnostics_constant_exact():
    kg, sg, _ = bloch.asymptotic_diagnostics(V_CONST, -1e4)
    assert kg == pytest.approx(math.sqrt(10001.0) - 100.0, abs=1e-9)
    assert sg == pytest.approx(100.0 * (math.sqrt(10001.0) - 100.0) - 0.5, abs=1e-7)


def test_p_representation_constant():
    bd = bloch.bloch_modes(V_CONST, -1.0, samples=4097)
    assert oracle.verify_p_representation(bd, V_CONST) <= 1e-8


def test_p_representation_mathieu():
    bd = bloch.bloch_modes(V_MATHIEU, -100.0, samples=2049)
    assert oracle.verify_p_representation(bd, V_MATHIEU) <= 1e-6


def test_p_representation_detects_corruption():
    # the representation map is linear in p_minus, so a uniform rescaling is a
    # fixed point as well and cannot be detected; corrupt the shape instead
    bd = bloch.bloch_modes(V_MATHIEU, -100.0, samples=2049)
    bump = 1.0 + 0.1 * np.cos(2.0 * np.pi * bd.x)
    corrupted = bloch.BlochData(
        lam=bd.lam,
        kappa=bd.kappa,
        discriminant=bd.discriminant,
        omega=bd.omega,
        p_plus=bd.p_plus,
        p_minus=bd.p_minus * bump,
        dp_plus=bd.dp_plus,
        dp_minus=bd.dp_minus * bump,
        x=bd.x,
    )
    assert oracle.verify_p_representation(corrupted, V_MATHIEU) >= 0.05


def test_monodromy_offgrid_breakpoint_exact():
    # Kronig-Penney cell with its jump at 0.3, off the 1/4096 step grid: the
    # monodromy is the product of the exact segment transfer matrices
    V = FunctionDescriptor(segments=((0.0, 0.3, -1.0), (0.3, 1.0, 3.0)))

    def exact(lam):
        M = np.eye(2)
        for a, b, v in V.segments:
            k, L = cmath.sqrt(v - lam), b - a
            c, s = cmath.cosh(k * L).real, cmath.sinh(k * L)
            M = np.array([[c, (s / k).real], [(k * s).real, c]]) @ M
        return M

    M = bloch.monodromy(V, -1.5)
    E = exact(-1.5)
    assert M.trace == pytest.approx(np.trace(E), rel=1e-12)
    assert [M.m11, M.m12, M.m21, M.m22] == pytest.approx(E.ravel().tolist(), rel=1e-11)
    bottom = brentq(lambda lam: np.trace(exact(lam)) - 2.0, 1.0, 2.5, xtol=1e-13)
    assert bloch.spectrum_min(V) == pytest.approx(bottom, abs=1e-9)


def test_monodromy_deep_gap_constant_closed_form():
    # lambda = -1e4 takes 25856 steps, more than one chunk of step matrices
    V, lam = V_CONST, -1e4
    assert bloch._step_count(V, lam, None) == 25856
    M = bloch.monodromy(V, lam)
    k = math.sqrt(1.0 - lam)
    assert M.trace == pytest.approx(2.0 * math.cosh(k), rel=1e-9)
    assert M.m12 == pytest.approx(math.sinh(k) / k, rel=1e-9)
    assert M.m21 == pytest.approx(k * math.sinh(k), rel=1e-9)
    # det = 1 up to the cancellation error of the entries' magnitude
    assert abs(M.det - 1.0) <= 1e-12 * M.norm**2


def test_spectrum_min_memoized_across_bloch_modes():
    V = FunctionDescriptor(const=1.0, cos=((2, 0.3),), sin=((1, 0.1),))
    before = bloch.spectrum_min.cache_info()
    first = bloch.bloch_modes(V, -3.0)
    again = [bloch.bloch_modes(V, -3.0) for _ in range(3)]
    after = bloch.spectrum_min.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 3
    assert bloch.spectrum_min(V) == bloch.spectrum_min(V)
    for bd in again:
        assert bd.kappa == first.kappa
        assert np.array_equal(bd.p_minus, first.p_minus)


def _rk4_loop(q, h, y, v, damping):
    """Scalar RK4 of y'' + damping * y' + q(x) y = 0, with q at half steps."""
    for i in range((len(q) - 1) // 2):
        q0, qm, q1 = q[2 * i], q[2 * i + 1], q[2 * i + 2]
        k1y, k1v = v, -damping * v - q0 * y
        y2, v2 = y + 0.5 * h * k1y, v + 0.5 * h * k1v
        k2y, k2v = v2, -damping * v2 - qm * y2
        y3, v3 = y + 0.5 * h * k2y, v + 0.5 * h * k2v
        k3y, k3v = v3, -damping * v3 - qm * y3
        y4, v4 = y + h * k3y, v + h * k3v
        k4y, k4v = v4, -damping * v4 - q1 * y4
        y = y + h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v = v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return y, v


def test_step_matrix_products_match_scalar_loop():
    # the step-matrix propagator regroups the RK4 arithmetic, so the two
    # agree to rounding, not bit for bit
    n, lam = 256, -5.0
    q = lam - np.asarray(V_MATHIEU(np.linspace(0.0, 1.0, 2 * n + 1)))
    steps = bloch._rk4(*bloch._substeps(V_MATHIEU, n, 0, n, lam))
    S = np.reshape(bloch._product(steps), (2, 2))
    for y0, v0 in ((1.0, 0.0), (0.0, 1.0), (0.6, -0.8)):
        ref = _rk4_loop(q, 1.0 / n, y0, v0, 0.0)
        assert S @ [y0, v0] == pytest.approx(ref, rel=1e-13, abs=1e-13)
    M = bloch.monodromy(V_MATHIEU, lam, steps=n)
    ref = np.array([_rk4_loop(q, 1.0 / n, 1.0, 0.0, 0.0), _rk4_loop(q, 1.0 / n, 0.0, 1.0, 0.0)]).T
    assert [M.m11, M.m12, M.m21, M.m22] == pytest.approx(ref.ravel().tolist(), rel=1e-13)


@pytest.mark.parametrize(
    "V", [V_MATHIEU, V_KP, V_CONST, V_TWO],
    ids=["mathieu", "kronig-penney", "constant", "two-harmonic"],
)
def test_floquet_exponent_is_the_kappa_of_bloch_modes(V):
    # one implementation of kappa: bit for bit from the band edge to deep
    # lambda, and the same typed failure where the monodromy overflows
    bottom = bloch.spectrum_min(V)
    for lam in (bottom - 1e-9, bottom - 1e-4, -1e3, -1.2e5):
        M, rho, kappa = bloch.floquet_exponent(V, lam)
        bd = bloch.bloch_modes(V, lam)
        assert (kappa, M.trace) == (bd.kappa, bd.discriminant)
        assert kappa == math.log(rho)
    for f in (bloch.floquet_exponent, bloch.bloch_modes):
        with pytest.raises(IntegrationFailure):
            f(V, -1.3e5)


def _sweep_tuples(blocks, y, v):
    """The factor sweep with one (y, y') tuple per block."""
    out = [(y, v)]
    for a, b, c, d in blocks.reshape(-1, 4).tolist():
        out.append((a * out[-1][0] + b * out[-1][1], c * out[-1][0] + d * out[-1][1]))
    return np.array(out).T


def test_sweep_matches_the_tuple_loop_bit_for_bit():
    rng = np.random.default_rng(12)
    for n in (1, 2, 17, 1024):
        # entries below 1/2 keep every product bounded
        blocks = rng.uniform(-0.5, 0.5, size=(n, 2, 2))
        y, v = (float(a) for a in rng.normal(size=2))
        s = tuple(blocks.reshape(-1, 4).T)
        assert np.array_equal(bloch._sweep(s, y, v), _sweep_tuples(blocks, y, v))


def _product_tree(mats):
    """S[k-1] ... S[0] of (m11, m12, m21, m22) tuples in Python floats, over the
    kernel's pairwise tree: (1, 0), (3, 2), ..., an odd leftover carried last."""
    while len(mats) > 1:
        k = len(mats) // 2 * 2
        mats = [
            (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
             a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)
            for (a11, a12, a21, a22), (b11, b12, b21, b22) in zip(mats[1:k:2], mats[0:k:2])
        ] + mats[k:]
    return mats[0]


def test_product_matches_the_pairwise_float_tree_bit_for_bit():
    # near-identity factors, like RK4 steps, keep the long products finite
    rng = np.random.default_rng(7)
    for shape in ((1,), (2,), (17,), (4096,), (4, 1024), (17, 3), (1, 5)):
        eye = np.eye(2).reshape(4, *[1] * len(shape))
        s = eye + rng.uniform(-0.01, 0.01, size=(4, *shape))
        got = np.reshape(bloch._product(tuple(s)), (4, -1))
        columns = s.reshape(4, shape[0], -1)
        for j in range(columns.shape[2]):
            ref = _product_tree([tuple(m) for m in columns[:, :, j].T.tolist()])
            assert got[:, j].tolist() == list(ref)


def _rk4_general(h, q0, qm, q1, c):
    """The step-matrix entries with every damping term, as the kernel writes them."""
    cc = c * c
    s11 = 1.0 + h * h * (
        -(q0 + 2.0 * qm) / 6.0 + h * (c * (q0 + qm) / 12.0 + h * q0 * (qm - cc) / 24.0))
    s12 = h * (1.0 + h * (-0.5 * c + h * ((cc - qm) / 6.0 + h * c * (2.0 * qm - cc) / 24.0)))
    s21 = h * (-(q0 + 4.0 * qm + q1) / 6.0 + h * (c * (q0 + 2.0 * qm) / 6.0 + h * (
        ((q0 + q1) * qm - cc * (q0 + qm)) / 12.0 + h * c * q0 * (cc - qm - q1) / 24.0)))
    s22 = 1.0 + h * (-c + h * ((3.0 * cc - q1 - 2.0 * qm) / 6.0 + h * (
        c * (q1 + 3.0 * qm - 2.0 * cc) / 12.0 + h * (cc * (cc - q1 - 2.0 * qm) + q1 * qm) / 24.0)))
    return s11, s12, s21, s22


def test_undamped_step_matrices_are_the_general_formulas_at_zero_damping():
    # the step matrices leave out terms that are exact zeros at c = 0.0;
    # inputs: smooth V, breakpoints with zero-length sub-steps, q = 0 at the
    # band edge of a constant V, and random q over ten decades
    rng = np.random.default_rng(3)
    h = rng.choice([0.0, 1e-4, 1.0 / 4096, 0.3], size=4000)
    q = rng.normal(size=(3, 4000)) * rng.choice([1e-3, 1.0, 1e5], size=(3, 4000))
    inputs = [
        bloch._substeps(V_MATHIEU, 4096, 0, 4096, -2.0),
        bloch._substeps(V_KP, 1024, 0, 1024, -1.5),
        bloch._substeps(V_CONST, 64, 0, 64, 1.0),
        (h, *q),
    ]
    for args in inputs:
        for got, ref in zip(bloch._rk4(*args), _rk4_general(*args, 0.0)):
            assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(ref).view(np.int64))


_FLOQUET_OUTPUTS = """
import hashlib, json
from sgslab import bloch, criteria
from sgslab.media import FunctionDescriptor as F
mathieu = F(const=1.0, cos=((1, 0.5),))
kp = F(segments=((0.0, 0.3, -1.0), (0.3, 1.0, 3.0)))
for V in (mathieu, kp):
    bottom = bloch.spectrum_min(V)
    print(bottom.hex())
    for lam in (-2.0, bottom - 1e-4):
        M = bloch.monodromy(V, lam)
        print([x.hex() for x in (M.m11, M.m12, M.m21, M.m22)])
        bd = bloch.bloch_modes(V, lam)
        print(bd.kappa.hex(), bd.omega.hex(), [hashlib.sha256(a.tobytes()).hexdigest()
                                              for a in (bd.p_plus, bd.p_minus, bd.dp_plus, bd.dp_minus)])
print(json.dumps(criteria.dislocation_report(mathieu, F(const=1.0), 0.25, -2.0).to_json()))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels only")
def test_floquet_bits_do_not_follow_the_blas_kernel():
    # a 2x2 product handed to BLAS rounds with FMA under the Haswell and
    # SkylakeX kernels and without it under Prescott; the Floquet layer must
    # give the same bits under both
    outputs = []
    for coretype in (None, "Prescott"):
        env = dict(os.environ, PYTHONPATH=str(Path(sgslab.__file__).parents[1]))
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        run = subprocess.run([sys.executable, "-c", _FLOQUET_OUTPUTS], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
