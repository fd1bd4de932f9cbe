"""Independent closed-form and brute-force references.

The closed forms deliberately avoid the main code paths (different
quadrature resolution, direct formulas) so tests can cross-validate the
library against something it does not share internals with.

`ansatz_upper_bound` is the exception, on purpose: it bounds the same
discrete minimum the solver computes, so it builds one `_Discretization` per
scan and scores its trial profiles through the `scale` and `energy` methods
that `nehari_project` and `J_eval` use, one of each per distinct (width,
centre).  The projection removes the amplitude, which only decides whether
a trial can be projected at all.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bloch import BlochData
from .errors import LambdaInSpectrum, NonprojectableState
from .media import FunctionDescriptor, ProblemParams
from .variational import Grid, GridFunction, _Discretization


def closed_form_soliton(m: float, Gamma0: float, p: float, grid: Grid):
    """Exact homoclinic profile of -w'' + m w = Gamma0 w^p and its energy.

    w(x) = (m (p+1) / (2 Gamma0))^{1/(p-1)} sech^{2/(p-1)}((p-1) sqrt(m) x / 2).
    The energy eta * int (w'^2 + m w^2) is computed by trapezoid quadrature on
    a 10x refined copy of the grid with the analytic derivative.
    """
    if m <= 0 or Gamma0 <= 0 or p <= 1:
        raise ValueError("need m > 0, Gamma0 > 0, p > 1")
    amp = (m * (p + 1.0) / (2.0 * Gamma0)) ** (1.0 / (p - 1.0))
    rate = (p - 1.0) * math.sqrt(m) / 2.0
    expo = 2.0 / (p - 1.0)

    def w(x):
        return amp * np.cosh(rate * np.asarray(x, dtype=float)) ** (-expo)

    def dw(x):
        x = np.asarray(x, dtype=float)
        return -amp * expo * rate * np.tanh(rate * x) * np.cosh(rate * x) ** (-expo)

    fine_n = 10 * (grid.nodes - 1) + 1
    xf = np.linspace(-grid.L_dom, grid.L_dom, fine_n)
    hf = xf[1] - xf[0]
    integrand = dw(xf) ** 2 + m * w(xf) ** 2
    eta = 0.5 - 1.0 / (p + 1.0)
    c_exact = eta * float(np.trapezoid(integrand, dx=hf))
    return GridFunction.from_callable(grid, w), c_exact


def constant_bloch_reference(v0: float, lam: float, samples: int = 1025) -> BlochData:
    """Gap-spectral data of the constant-coefficient operator: periodic
    factors identically 1, kappa = sqrt(v0 - lambda)."""
    if lam >= v0:
        raise LambdaInSpectrum(f"lambda = {lam} is not below the spectrum bottom {v0}")
    kappa = math.sqrt(v0 - lam)
    ones = np.ones(samples)
    zeros = np.zeros(samples)
    return BlochData(
        lam=lam,
        kappa=kappa,
        discriminant=2.0 * math.cosh(kappa),
        omega=2.0 * kappa,
        p_plus=ones,
        p_minus=ones.copy(),
        dp_plus=zeros,
        dp_minus=zeros.copy(),
        x=np.linspace(0.0, 1.0, samples),
    )


def verify_p_representation(bd: BlochData, V: FunctionDescriptor) -> float:
    """Evaluate the periodic-boundary integral representation of p_minus with
    bd's own samples inside the integrals and return the sup-norm mismatch.

    Serves as an independent consistency oracle: a correct p_minus is a fixed
    point of the representation.  Requires lambda < 0 and kappa != sqrt|lambda|
    (the representation is written in that non-degenerate form).
    """
    lam, kappa = bd.lam, bd.kappa
    if lam >= 0.0:
        raise ValueError("representation check requires lambda < 0")
    sl = math.sqrt(-lam)
    if abs(kappa - sl) < 1e-8:
        raise ValueError("representation degenerates when kappa equals sqrt|lambda|")
    x = np.linspace(-1.0, 0.0, bd.samples)
    p = bd.p_minus          # periodic: samples on [0,1] represent [-1,0] as well
    g = p * np.asarray(V(x), dtype=float)
    h = x[1] - x[0]

    def cumtrapz(y):
        out = np.zeros_like(y)
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1])) * h
        return out

    i_minus = cumtrapz(np.exp((kappa - sl) * x) * g)
    i_plus = cumtrapz(np.exp((kappa + sl) * x) * g)
    alpha = i_minus[-1] / (2.0 * sl * (math.exp(kappa - sl) - 1.0))
    beta = -i_plus[-1] / (2.0 * sl * (math.exp(kappa + sl) - 1.0))
    rhs = (alpha + i_minus / (2.0 * sl)) * np.exp((-kappa + sl) * x) + (
        beta - i_plus / (2.0 * sl)
    ) * np.exp((-kappa - sl) * x)
    return float(np.max(np.abs(rhs - p)))


@dataclass(frozen=True)
class AnsatzFamily:
    """Cartesian grid of sech-shaped trial profiles a sech(w (x - c))^{2/(p-1)}.

    The Nehari projection maps every amplitude a != 0 to the same state up to
    sign, so a scan scores each distinct (width, centre) once; the amplitude
    axis only decides whether any trial can be projected (a = 0 cannot).
    """

    amplitude_range: tuple[float, float]
    width_range: tuple[float, float]
    center_range: tuple[float, float]
    resolution: int = 9

    def __post_init__(self):
        if isinstance(self.resolution, bool) or not isinstance(self.resolution, numbers.Integral):
            raise ValueError(f"resolution must be an integer, got {self.resolution!r}")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if not np.all(np.isfinite([self.amplitude_range, self.width_range, self.center_range])):
            raise ValueError("ranges must be finite")

    def axes(self):
        return tuple(
            np.linspace(lo, hi, 1 if lo == hi else self.resolution)
            for lo, hi in (self.amplitude_range, self.width_range, self.center_range)
        )


def ansatz_upper_bound(m, params: ProblemParams, fam: AnsatzFamily, grid: Grid) -> float:
    """Brute-force upper bound on the constrained minimum: project every trial
    profile onto the constraint set and take the least energy.

    quad(a u) = a^2 quad(u) and nl(a u) = |a|^{p+1} nl(u), so the projection
    of a u is +-(that of u) for every a != 0, and J is even.  The scan
    therefore costs one discretization, then one `scale` and one `energy` per
    distinct (width, centre) on the unit-amplitude trial: the values
    `nehari_project` and `J_eval` give.  A range with lo == hi is one value,
    not `resolution` copies of it.  Trials whose nonlinear mass or quadratic
    form is nonpositive are skipped; NonprojectableState is raised if all
    are, or if every amplitude is 0.  The scan order is fixed, so the
    reduction is deterministic.
    """
    op = _Discretization.of(m, params, grid)
    amps, widths, centers = fam.axes()
    # a zero trial has no projection, whatever its shape
    shapes = itertools.product(widths, centers) if np.any(amps) else ()
    expo = 2.0 / (params.p - 1.0)
    best = math.inf
    x = grid.x
    for wdt, ctr in shapes:
        u = np.cosh(wdt * (x - ctr)) ** (-expo)
        try:
            s = op.scale(u[1:-1])[0]
        except NonprojectableState:
            continue
        best = min(best, op.energy((s * u)[1:-1]))
    if best == math.inf:
        raise NonprojectableState(f"no trial profile of {fam} can be scaled onto the constraint set")
    return best
