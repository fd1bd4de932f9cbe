"""Reference computations made apart from sgslab.

Nothing here imports sgslab.  Coefficients are evaluated from the JSON
descriptor objects of the configs by this module's own formula, Floquet data
come from exact Kronig-Penney transfer matrices or from scipy's adaptive
`solve_ivp`, the Mathieu spectrum bottom from `scipy.special.mathieu_a`, and
the constant-medium quantities from their closed forms.  The property checks
recompute residual, constraint identity and energy from a profile's samples
with the same discrete operators the method is defined by.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import mathieu_a

TWO_PI = 2.0 * math.pi

# leading relative bias of the second-order finite-difference soliton energy is
# about 0.058 * m * h^2 (the same constant at h = 0.01, 0.02 and 0.04); the
# checks allow 0.1 * m * h^2
ENERGY_H2 = 0.1


# -- coefficients -------------------------------------------------------------


def descriptor(node) -> dict:
    """Normalise a config descriptor (a number or an object) to a dict."""
    if isinstance(node, (int, float)):
        return {"const": float(node)}
    return node


def evaluate(node, x) -> np.ndarray:
    """Evaluate a 1-periodic descriptor: const + sum a cos(2 pi n x) +
    sum b sin(2 pi n x), or piecewise constant on half-open [a, b)."""
    d = descriptor(node)
    x = np.asarray(x, dtype=float)
    if "segments" in d:
        xf = x - np.floor(x)
        out = np.empty_like(xf)
        for a, b, v in d["segments"]:
            out[(xf >= a) & (xf < b)] = v
        return out
    out = np.full_like(x, float(d.get("const", 0.0)))
    for n, a in d.get("cos", ()):
        out = out + a * np.cos(TWO_PI * n * x)
    for n, b in d.get("sin", ()):
        out = out + b * np.sin(TWO_PI * n * x)
    return out


def shifted(node, tau: float):
    """Callable x -> f(x + tau)."""
    return lambda x: evaluate(node, np.asarray(x, dtype=float) + tau)


def mean(node) -> float:
    d = descriptor(node)
    if "segments" in d:
        return float(sum((b - a) * v for a, b, v in d["segments"]))
    return float(d.get("const", 0.0))


def single_harmonic_range(node) -> tuple[float, float]:
    """Exact (inf, sup) of const + a cos(2 pi n x) + b sin(2 pi n x) with one
    frequency n: const -/+ hypot(a, b)."""
    d = descriptor(node)
    freqs = {n for n, _ in d.get("cos", ())} | {n for n, _ in d.get("sin", ())}
    if len(freqs) > 1 or "segments" in d:
        raise ValueError("not a single-harmonic descriptor")
    a = sum(v for _, v in d.get("cos", ()))
    b = sum(v for _, v in d.get("sin", ()))
    r = math.hypot(a, b)
    c = float(d.get("const", 0.0))
    return c - r, c + r


def harmonic_difference(n1, n2) -> dict:
    """Descriptor of f1 - f2 for trigonometric descriptors."""
    d1, d2 = descriptor(n1), descriptor(n2)
    out = {"const": float(d1.get("const", 0.0)) - float(d2.get("const", 0.0))}
    for key in ("cos", "sin"):
        terms: dict[int, float] = {}
        for n, a in d1.get(key, ()):
            terms[n] = terms.get(n, 0.0) + a
        for n, a in d2.get(key, ()):
            terms[n] = terms.get(n, 0.0) - a
        out[key] = sorted(terms.items())
    return out


# -- closed forms -----------------------------------------------------------------


def soliton_energy(V: float, Gamma: float, lam: float) -> float:
    """Ground-state energy of the constant medium for p = 3:
    c = (4/3) (V - lambda)^{3/2} / Gamma."""
    return (4.0 / 3.0) * (V - lam) ** 1.5 / Gamma


def sech_profile(x, V: float, Gamma: float, lam: float, center: float) -> np.ndarray:
    """Exact p = 3 soliton sqrt(2 m / Gamma) sech(sqrt(m) (x - center))."""
    m = V - lam
    return math.sqrt(2.0 * m / Gamma) / np.cosh(math.sqrt(m) * (np.asarray(x) - center))


def constant_kappa(V: float, lam: float) -> float:
    return math.sqrt(V - lam)


def constant_bloch_integral(v1: float, v2: float, lam: float) -> float:
    """Forward mode-weighted mismatch integral for constant potentials:
    int_{-1}^0 (v2 - v1) e^{2 kappa x} dx with kappa = sqrt(v1 - lambda)."""
    k = constant_kappa(v1, lam)
    return (v2 - v1) * (1.0 - math.exp(-2.0 * k)) / (2.0 * k)


def mathieu_bottom(const: float, amp: float) -> float:
    """Spectrum bottom of -d^2/dx^2 + const + amp cos(2 pi x).  With x = z / pi
    the equation is Mathieu's y'' + (a - 2 q cos 2z) y = 0 with
    a = (lambda - const) / pi^2 and q = amp / (2 pi^2), so the bottom is
    const + pi^2 a_0(q)."""
    return const + math.pi**2 * float(mathieu_a(0, amp / (2.0 * math.pi**2)))


# -- Floquet data -----------------------------------------------------------------


def _segment_matrix(q: float, length: float) -> np.ndarray:
    """Transfer matrix of u'' = q u over one segment, acting on (u, u')."""
    if q > 0.0:
        k = math.sqrt(q)
        c, s = math.cosh(k * length), math.sinh(k * length)
        return np.array([[c, s / k], [k * s, c]])
    if q < 0.0:
        k = math.sqrt(-q)
        c, s = math.cos(k * length), math.sin(k * length)
        return np.array([[c, s / k], [-k * s, c]])
    return np.array([[1.0, length], [0.0, 1.0]])


def kp_monodromy(segments, lam: float) -> np.ndarray:
    """Exact monodromy of a piecewise-constant potential over [0, 1]."""
    M = np.eye(2)
    for a, b, v in sorted(segments):
        M = _segment_matrix(v - lam, b - a) @ M
    return M


def kp_trace(segments, lam: float) -> float:
    M = kp_monodromy(segments, lam)
    return float(M[0, 0] + M[1, 1])


def kp_bottom(segments) -> float:
    """Smallest lambda with trace 2; the bottom lies between inf V and sup V."""
    lo = min(v for _, _, v in segments) - 1.0
    hi = max(v for _, _, v in segments) + 1.0
    # the trace is decreasing below the bottom: walk up to the first crossing
    grid = np.linspace(lo, hi, 401)
    vals = [kp_trace(segments, g) - 2.0 for g in grid]
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa > 0.0 >= fb:
            return float(brentq(lambda l: kp_trace(segments, l) - 2.0, a, b, xtol=1e-14))
    raise ValueError("no band edge found")


def ivp_monodromy(V, lam: float) -> np.ndarray:
    """Monodromy over [0, 1] by adaptive DOP853 (rtol 1e-12)."""
    f = lambda x, y: [y[1], (V(x) - lam) * y[0], y[3], (V(x) - lam) * y[2]]
    sol = solve_ivp(f, (0.0, 1.0), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    y = sol.y[:, -1]
    return np.array([[y[0], y[2]], [y[1], y[3]]])


def kappa_from_trace(trace: float) -> float:
    """log of the larger Floquet multiplier."""
    return math.log(trace / 2.0 + math.sqrt(trace * trace / 4.0 - 1.0))


def decaying_left_factor(V, lam: float, samples: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(kappa, x, p) for the mode p(x) e^{kappa x} that decays at -inf,
    p 1-periodic with sup 1 on the samples of [0, 1]."""
    M = ivp_monodromy(V, lam)
    tr = M[0, 0] + M[1, 1]
    rho = tr / 2.0 + math.sqrt(tr * tr / 4.0 - 1.0)
    # eigenvector of M for rho from whichever row is better conditioned
    v1 = np.array([M[0, 1], rho - M[0, 0]])
    v2 = np.array([rho - M[1, 1], M[1, 0]])
    y0 = v1 if np.hypot(*v1) >= np.hypot(*v2) else v2
    x = np.linspace(0.0, 1.0, samples)
    f = lambda s, y: [y[1], (V(s) - lam) * y[0]]
    sol = solve_ivp(f, (0.0, 1.0), list(y0), method="DOP853", t_eval=x,
                    rtol=1e-12, atol=1e-14)
    kappa = math.log(rho)
    p = sol.y[0] * np.exp(-kappa * x)
    if p[np.argmax(np.abs(p))] < 0.0:
        p = -p
    return kappa, x, p / p.max()


def dislocation_integral(V0, tau: float, lam: float, samples: int = 8193) -> float:
    """Forward mode-weighted mismatch integral of the dislocation interface:
    int_{-1}^0 (V0(x - tau) - V0(x + tau)) p(x)^2 e^{2 kappa x} dx, where
    p e^{kappa x} is the mode of the side-1 operator decaying at -inf."""
    right, left = shifted(V0, tau), shifted(V0, -tau)
    kappa, x, p = decaying_left_factor(lambda s: float(right(s)), lam, samples)
    xm = x - 1.0   # p is periodic: its samples on [0, 1] cover [-1, 0]
    f = (left(xm) - right(xm)) * p * p * np.exp(2.0 * kappa * xm)
    h = xm[1] - xm[0]
    return float(h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()))


# -- property checks on a solved profile ------------------------------------------


def read_profile(path) -> tuple[np.ndarray, np.ndarray]:
    """(x, u) of the one solved state in a profiles.csv."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        next(rd)
        x, u, _, _ = np.array([[float(v) for v in r] for r in rd]).T
    if not np.all(np.diff(x) > 0.0):
        raise ValueError(f"{path} does not hold exactly one profile")
    return x, u


def discrete_terms(x, u, V, G, lam: float, p: float):
    """(Q, N, J, residual) of the discrete problem: edge-difference kinetic
    term, trapezoid weights, and the L2 norm of the interior strong residual
    -u'' + (V - lambda) u - Gamma |u|^{p-1} u."""
    n = len(x)
    h = (x[-1] - x[0]) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    Q = float(np.sum(np.diff(u) ** 2)) / h + float(np.sum(w * (V - lam) * u * u))
    N = float(np.sum(w * G * np.abs(u) ** (p + 1.0)))
    J = 0.5 * Q - N / (p + 1.0)
    r = (-(u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2 + (V[1:-1] - lam) * u[1:-1]
         - G[1:-1] * np.abs(u[1:-1]) ** (p - 1.0) * u[1:-1])
    return Q, N, J, float(np.sqrt(h * np.sum(r * r)))


def center_of_mass(x, u) -> float:
    return float(np.sum(x * u * u) / np.sum(u * u))
