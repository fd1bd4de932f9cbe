"""Floquet analysis of the 1D Hill operator -d^2/dx^2 + V(x) - lambda.

Everything here operates strictly below the bottom of the spectrum, where the
discriminant (trace of the monodromy matrix over one period) exceeds 2 and the
two Floquet solutions split into a decaying and a growing mode

    u_pm(x) = p_pm(x) exp(mp kappa x),   p_pm 1-periodic, positive.

One fixed-step RK4 propagator serves the monodromy and the Bloch factors.
Each step of the linear ODE is a 2x2 matrix, built with numpy in chunks
(a piecewise V gets its breakpoints as extra nodes) as four arrays of its
entries, and multiplied pairwise in a fixed order with each 2x2 product
written out elementwise: no BLAS call, so the bits of every result here do
not depend on the BLAS kernel picked for the CPU.  The periodic factors p_pm
obey their own first-order-damped equations; their products over each
sample interval are applied in the numerically contracting direction, which
stays well-conditioned for kappa of order 100.  spectrum_min is memoized.

floquet_exponent stops where kappa is known: spectrum gate, monodromy (its
finiteness and Liouville det = 1 are checked on every call) and the
discriminant.  Callers that need only kappa or the discriminant (bloch scans,
the automatic domain extent, the shifted-state decay rate) use it alone;
bloch_modes adds the two factor propagations and checks their positivity and
the constancy of their Wronskian wherever p_pm are built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import BracketFailure, IntegrationFailure, LambdaInSpectrum, PositivityFailure
from .media import FunctionDescriptor

DEFAULT_STEPS = 4096
DEFAULT_SAMPLES = 1025
_CHUNK = 4096   # steps per vectorized batch of step matrices


def _step_count(V: FunctionDescriptor, lam: float, steps: int | None) -> int:
    if steps is not None:
        return int(steps)
    # keep kappa * h small so the per-step error of RK4 stays ~1e-14
    stiffness = math.sqrt(abs(lam) + V.sup_norm() + 1.0)
    return max(DEFAULT_STEPS, 256 * int(math.ceil(stiffness)))


@dataclass(frozen=True)
class MonodromyMatrix:
    """Fundamental solution matrix of -u'' + (V - lambda) u = 0 over [0, 1]."""

    m11: float
    m12: float
    m21: float
    m22: float
    lam: float

    @property
    def trace(self) -> float:
        return self.m11 + self.m22

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def norm(self) -> float:
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22))


@dataclass(frozen=True, eq=False)
class BlochData:
    """Gap-spectral data of a Hill operator at one lambda below its spectrum."""

    lam: float
    kappa: float
    discriminant: float
    omega: float
    p_plus: np.ndarray     # periodic factor of the mode decaying at +inf, sup-norm 1
    p_minus: np.ndarray    # periodic factor of the mode decaying at -inf, sup-norm 1
    dp_plus: np.ndarray
    dp_minus: np.ndarray
    x: np.ndarray          # uniform closed sample grid on [0, 1]

    @property
    def samples(self) -> int:
        return len(self.x)

    def wronskian_samples(self) -> np.ndarray:
        """omega recomputed at every sample point; constant up to quadrature
        noise (the exponential factors cancel in the product)."""
        return (
            self.p_plus * self.dp_minus
            - self.dp_plus * self.p_minus
            + 2.0 * self.kappa * self.p_plus * self.p_minus
        )

    def p_minus_at(self, x) -> np.ndarray:
        """Periodic interpolation of p_minus at arbitrary points."""
        xf = np.asarray(x, dtype=float)
        return np.interp(xf - np.floor(xf), self.x, self.p_minus)

    def p_plus_at(self, x) -> np.ndarray:
        xf = np.asarray(x, dtype=float)
        return np.interp(xf - np.floor(xf), self.x, self.p_plus)


def _substeps(V: FunctionDescriptor, n: int, i0: int, i1: int, offset: float):
    """Sub-step lengths and q = offset - V at sub-step start, middle and end for
    steps i0..i1-1 of the uniform n-step grid, shape (i1 - i0, m).  A piecewise V
    gets its breakpoints as nodes (zero-length sub-steps pad each step to m) and
    q at the midpoint, so no sub-step straddles a jump or reads the next segment."""
    if not V.is_piecewise:
        q = offset - V(np.arange(2 * i0, 2 * i1 + 1) / (2 * n))
        return np.full((i1 - i0, 1), 1.0 / n), q[:-1:2, None], q[1::2, None], q[2::2, None]
    breaks = np.array([a for a, _, _ in V.segments[1:]])
    step = np.floor(breaks * n).astype(int)
    keep = (breaks > step / n) & (step >= i0) & (step < i1)
    step = step[keep] - i0
    rank = np.arange(len(step)) - np.searchsorted(step, step)
    t = np.empty((i1 - i0, 2 + (rank.max() + 1 if len(step) else 0)))
    t[:] = np.arange(i0 + 1, i1 + 1)[:, None] / n
    t[:, 0] = np.arange(i0, i1) / n
    t[step, 1 + rank] = breaks[keep]
    q = offset - V(0.5 * (t[:, :-1] + t[:, 1:]))
    return np.diff(t, axis=1), q, q, q


def _rk4(h, q0, qm, q1, c):
    """Classical RK4 step matrices of y'' + c y' + q y = 0 (q = q0, qm, q1 at start,
    middle, end) as the entries (s11, s12, s21, s22), expanded in h; a zero-length
    step is I.  At c == 0.0 the damping terms are exact zeros and are left out."""
    if c == 0.0:
        return (
            1.0 + h * h * (-(q0 + 2.0 * qm) / 6.0 + h * (h * q0 * qm / 24.0)),
            h * (1.0 + h * (h * (-qm / 6.0))),
            h * (-(q0 + 4.0 * qm + q1) / 6.0 + h * (h * ((q0 + q1) * qm / 12.0))),
            1.0 + h * (h * ((-q1 - 2.0 * qm) / 6.0 + h * (h * (q1 * qm) / 24.0))),
        )
    cc = c * c
    s11 = 1.0 + h * h * (
        -(q0 + 2.0 * qm) / 6.0 + h * (c * (q0 + qm) / 12.0 + h * q0 * (qm - cc) / 24.0))
    s12 = h * (1.0 + h * (-0.5 * c + h * ((cc - qm) / 6.0 + h * c * (2.0 * qm - cc) / 24.0)))
    s21 = h * (-(q0 + 4.0 * qm + q1) / 6.0 + h * (c * (q0 + 2.0 * qm) / 6.0 + h * (
        ((q0 + q1) * qm - cc * (q0 + qm)) / 12.0 + h * c * q0 * (cc - qm - q1) / 24.0)))
    s22 = 1.0 + h * (-c + h * ((3.0 * cc - q1 - 2.0 * qm) / 6.0 + h * (
        c * (q1 + 3.0 * qm - 2.0 * cc) / 12.0 + h * (cc * (cc - q1 - 2.0 * qm) + q1 * qm) / 24.0)))
    return s11, s12, s21, s22


def _product(s):
    """Entries of S[k-1] ... S[0] for the matrices S[i] = [[s11, s12], [s21, s22]][i]
    along axis 0, multiplied pairwise in a fixed order, (1, 0), (3, 2), ..., with
    an odd leftover carried last.  Each 2x2 product is written out elementwise,
    so no BLAS kernel decides its rounding."""
    # past kappa ~ 709 the entries overflow; the caller's finiteness check
    # turns that into IntegrationFailure, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        while len(s[0]) > 1:
            k = len(s[0]) // 2 * 2
            a11, a12, a21, a22 = (x[1:k:2] for x in s)
            b11, b12, b21, b22 = (x[0:k:2] for x in s)
            c = (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
                 a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)
            s = c if k == len(s[0]) else tuple(np.concatenate([y, x[k:]]) for y, x in zip(c, s))
    return tuple(x[0] for x in s)


def _propagators(V, n, per_block, offset, damping):
    """Entries of the RK4 propagators of y'' + damping * y' + (offset - V) y = 0
    across each block of per_block steps of the n-step grid, four arrays of
    n // per_block, built in chunks with the step axis first and the blocks
    of a chunk contiguous along the second."""
    out, per_chunk = [], max(1, _CHUNK // per_block)
    for j0 in range(0, n // per_block, per_chunk):
        j1 = min(n // per_block, j0 + per_chunk)
        sub = _substeps(V, n, j0 * per_block, j1 * per_block, offset)
        steps = (np.ascontiguousarray(a.reshape(j1 - j0, -1).T) for a in sub)
        out.append(_product(_rk4(*steps, damping)))
    return tuple(np.concatenate(x) for x in zip(*out))


def _sweep(s, y, v):
    """(y, y') carried across consecutive block propagators with entries
    s = (s11, s12, s21, s22): shape (2, blocks + 1)."""
    ys, vs = [y], [v]
    for a, b, c, d in zip(*(x.tolist() for x in s)):
        y, v = a * y + b * v, c * y + d * v
        ys.append(y)
        vs.append(v)
    return np.array([ys, vs])


def monodromy(V: FunctionDescriptor, lam: float, steps: int | None = None) -> MonodromyMatrix:
    """Propagate the fundamental system of -u'' + (V - lambda) u = 0 from
    x = 0 to x = 1: the ordered product of the RK4 step matrices."""
    n = _step_count(V, lam, steps)
    a11, a12, a21, a22 = map(float, _product(_propagators(V, n, math.gcd(n, _CHUNK), lam, 0.0)))
    M = MonodromyMatrix(m11=a11, m12=a12, m21=a21, m22=a22, lam=lam)
    if not all(map(math.isfinite, (a11, a12, a21, a22))):
        raise IntegrationFailure(f"monodromy propagation diverged at lambda = {lam}")
    # Liouville: det must be 1; the float cancellation error in the 2x2
    # determinant scales with the square of the entry magnitude.  Past about
    # 1e154 (kappa ~ 355) the products overflow and det is nan: no check holds
    scale = max(1.0, M.norm)
    if not abs(M.det - 1.0) <= 1e-8 * scale * scale:
        raise IntegrationFailure(
            f"monodromy determinant {M.det} deviates from 1 at lambda = {lam}"
        )
    return M


def discriminant(V: FunctionDescriptor, lam: float, steps: int | None = None) -> float:
    return monodromy(V, lam, steps).trace


@functools.lru_cache(maxsize=256)
def spectrum_min(V: FunctionDescriptor) -> float:
    """Bottom of the spectrum: the smallest lambda with discriminant equal
    to 2, located by a scan plus root bracketing.  Memoized per (frozen,
    hashable) descriptor: the spectrum checks of a run repeat it."""
    sup = V.sup_norm()
    lo, hi = -sup - 10.0, sup + 10.0
    f = lambda lam: discriminant(V, lam) - 2.0
    grid = np.linspace(lo, hi, 41)
    vals = np.array([f(g) for g in grid])
    if vals[0] <= 0.0:
        raise BracketFailure("discriminant not above 2 at the lower search bound")
    cross = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if not len(cross):
        raise BracketFailure(
            f"no discriminant sign change in [{lo}, {hi}] for the given potential"
        )
    return float(brentq(f, grid[cross[0]], grid[cross[0] + 1], xtol=1e-10))


def _eigvec(m11, m12, m21, m22, rho):
    """Eigenvector of a 2x2 matrix for eigenvalue rho, picking the
    numerically larger of the two row formulas."""
    v1 = (m12, rho - m11)
    v2 = (rho - m22, m21)
    pick = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
    nrm = math.hypot(*pick)
    if nrm == 0.0:
        raise IntegrationFailure("degenerate monodromy eigenvector")
    return pick[0] / nrm, pick[1] / nrm


def floquet_exponent(V: FunctionDescriptor, lam: float, steps: int | None = None):
    """(M, rho, kappa) for lambda below the spectrum of -d^2/dx^2 + V: the
    monodromy, its larger Floquet multiplier and the decay exponent
    kappa = log rho (stabler than arccosh of half the trace near the band
    edge).  Only the monodromy is propagated; the periodic factors are not."""
    if lam >= spectrum_min(V):
        raise LambdaInSpectrum(f"lambda = {lam} is not below the spectrum bottom")
    M = monodromy(V, lam, steps)
    delta = M.trace
    if delta <= 2.0:
        raise LambdaInSpectrum(f"discriminant {delta} <= 2 at lambda = {lam}")
    rho = delta / 2.0 + math.sqrt(delta * delta / 4.0 - 1.0)
    return M, rho, math.log(rho)


def bloch_modes(
    V: FunctionDescriptor,
    lam: float,
    samples: int = DEFAULT_SAMPLES,
    steps: int | None = None,
) -> BlochData:
    """Bloch modes of -d^2/dx^2 + V - lambda for lambda below the spectrum:
    kappa from `floquet_exponent`, and the periodic factors normalized to
    sup-norm 1 and positive."""
    M, rho_big, kappa = floquet_exponent(V, lam, steps)

    n_total = _step_count(V, lam, steps)
    n_sub = max(1, int(round(n_total / (samples - 1))))
    n_total = n_sub * (samples - 1)

    # mode decaying at -inf: eigenvector of M for the large multiplier; its
    # factor obeys p'' + 2 kappa p' + (kappa^2 + lam - V) p = 0, contracting forward
    u0, du0 = _eigvec(M.m11, M.m12, M.m21, M.m22, rho_big)
    blocks = _propagators(V, n_total, n_sub, kappa * kappa + lam, 2.0 * kappa)
    pm, dpm = _sweep(blocks, u0, du0 - kappa * u0)

    # mode decaying at +inf: eigenvector of M^{-1} for the large multiplier
    # (avoids cancellation in the small eigenvalue of M); its factor obeys the
    # same equation in s = 1 - x, with V reflected: again contracting.
    w0, dw0 = _eigvec(M.m22, -M.m12, -M.m21, M.m11, rho_big)
    blocks = _propagators(V.reflected(), n_total, n_sub, kappa * kappa + lam, 2.0 * kappa)
    pp, dpp = _sweep(blocks, w0, -(dw0 + kappa * w0))[:, ::-1] * [[1.0], [-1.0]]

    x = np.linspace(0.0, 1.0, samples)
    out = []
    for p, dp, label in ((pm, dpm, "p_minus"), (pp, dpp, "p_plus")):
        if not np.all(np.isfinite(p)):
            raise IntegrationFailure(f"{label} integration produced non-finite values")
        if -p.min() > p.max():
            p, dp = -p, -dp
        if p.min() <= 0.0:
            raise PositivityFailure(
                f"{label} changes sign; lambda may not be below the band bottom"
            )
        scale = 1.0 / p.max()
        out.append((p * scale, dp * scale))
    (pm, dpm), (pp, dpp) = out

    omega_samples = pp * dpm - dpp * pm + 2.0 * kappa * pp * pm
    omega = float(omega_samples[0])
    spread = float(np.ptp(omega_samples)) / abs(omega)
    if spread > 1e-6:
        raise IntegrationFailure(f"Wronskian varies by {spread:.2e} along the period")

    return BlochData(
        lam=lam,
        kappa=kappa,
        discriminant=M.trace,
        omega=omega,
        p_plus=pp,
        p_minus=pm,
        dp_plus=dpp,
        dp_minus=dpm,
        x=x,
    )


def asymptotic_diagnostics(V: FunctionDescriptor, lam: float, samples: int = DEFAULT_SAMPLES):
    """The three quantities controlled in the deep-gap limit: the gap between
    kappa and sqrt|lambda|, the scaled gap minus half the mean of V, and the
    uniform distance of p_minus from 1."""
    bd = bloch_modes(V, lam, samples=samples)
    sl = math.sqrt(abs(lam))
    kappa_gap = bd.kappa - sl
    scaled_gap_error = sl * kappa_gap - 0.5 * V.mean()
    p_minus_deviation = float(np.max(np.abs(bd.p_minus - 1.0)))
    return kappa_gap, scaled_gap_error, p_minus_deviation
