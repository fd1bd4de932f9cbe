"""Discretized energy functionals on a truncated line and the ground-state
solver.

The continuum problem minimizes

    J[u] = int 1/2 (u'^2 + (V - lambda) u^2) - Gamma |u|^{p+1} / (p+1)

over the constraint set N = {u != 0 : G[u] = 0} with
G[u] = int u'^2 + (V - lambda) u^2 - Gamma |u|^{p+1}.  On N the energy reduces
to J = eta * int (u'^2 + (V - lambda) u^2) with eta = 1/2 - 1/(p+1).

Discretization: homogeneous Dirichlet truncation to [-L, L], trapezoid
quadrature for the zeroth-order terms, and the kinetic term as the sum of
squared edge differences — the nearest-neighbour stencil keeps the discrete
quadratic form positive definite (no checkerboard null modes), which a wide
central-difference square would not.

On the interior nodes that quadratic form is v^T L v with L tridiagonal, and
so is the Jacobian of the Euler-Lagrange residual.  One banded operator,
_Discretization, holds both; J_eval, G_eval, nehari_project, grad_J, the
solver and oracle.ansatz_upper_bound all evaluate the functional through it.

The solver calls its compiled routines through _kernels: LAPACK's banded
Cholesky factorization dpbtrf, banded triangular solve dtbtrs and
tridiagonal solve dgtsv, and the L-BFGS-B kernel setulb.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from . import bloch
from ._kernels import dgtsv, dpbtrf, dtbtrs, setulb
from .errors import (
    LambdaInSpectrum,
    NoConvergence,
    NonprojectableState,
    TailNotResolved,
)
from .media import (
    FunctionDescriptor,
    InterfaceMedium,
    ProblemParams,
    eval_medium,
)


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid over [-L_dom, L_dom] with x = 0 a node."""

    L_dom: float
    h: float
    nodes: int

    def __post_init__(self):
        if self.nodes % 2 != 1:
            raise ValueError("node count must be odd so that x = 0 is a node")
        if abs((self.nodes - 1) * self.h - 2.0 * self.L_dom) > 1e-9 * max(1.0, self.L_dom):
            raise ValueError("nodes * h does not span [-L_dom, L_dom]")

    @classmethod
    def from_extent(cls, L_dom: float, h: float) -> "Grid":
        """Round the node count up to the nearest odd value and adjust h so the
        grid lands exactly on [-L_dom, L_dom]."""
        half = max(1, int(math.ceil(L_dom / h)))
        nodes = 2 * half + 1
        return cls(L_dom=L_dom, h=2.0 * L_dom / (nodes - 1), nodes=nodes)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(-self.L_dom, self.L_dom, self.nodes)


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function samples with homogeneous Dirichlet ends."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if len(v) != self.grid.nodes:
            raise ValueError("value count does not match the grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite values")
        if v[0] != 0.0 or v[-1] != 0.0:
            raise ValueError("values at the Dirichlet ends must be zero")

    def with_values(self, v: np.ndarray) -> "GridFunction":
        v = np.array(v, dtype=float)
        v[0] = v[-1] = 0.0
        return GridFunction(grid=self.grid, values=v)

    @classmethod
    def from_callable(cls, grid: Grid, f) -> "GridFunction":
        v = np.array(f(grid.x), dtype=float)
        v[0] = v[-1] = 0.0
        return cls(grid=grid, values=v)


@dataclass
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 50_000
    seed_center: float | None = None
    # strict=False returns the last state instead of raising when the
    # residual is still above tol once the minimization has stalled or the
    # budget has run out; used in regimes where the infimum is approached by
    # a drifting sequence
    strict: bool = True


@dataclass(frozen=True)
class GroundStateResult:
    state: GridFunction
    energy_c: float
    residual: float
    iterations: int
    # trace figures kept out of report.json: stage-1 objective evaluations,
    # translation scans run and the net whole-node shift they applied
    evaluations: int
    scans: int
    shift_nodes: int
    center_of_mass: float

    @functools.cached_property
    def decay_rate_fit(self) -> float | None:
        """The tail decay rate fitted to the state, computed when first read."""
        return _fit_decay_rate(self.state.grid, self.state.values)


def _trap_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.nodes, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w


@dataclass(frozen=True)
class _Discretization:
    """The discrete functional of one medium on one grid, on the interior
    nodes v: quadratic form v^T L v with L = -D^2 + V - lambda the
    (1, 1)-banded `band`, nonlinear mass sum wG |v|^{p+1} with wG = h Gamma.
    V is kept on every node for the solver's seed."""

    band: np.ndarray
    wG: np.ndarray
    V: np.ndarray
    p: float
    h: float

    @classmethod
    def of(cls, m, params: ProblemParams, grid: Grid) -> "_Discretization":
        V, G = eval_medium(m, grid.x)
        h = grid.h
        off = np.full(grid.nodes - 2, -1.0 / h)
        band = np.vstack([off, 2.0 / h + h * (V[1:-1] - params.lam), off])
        band[0, 0] = band[2, -1] = 0.0
        return cls(band=band, wG=h * G[1:-1], V=V, p=params.p, h=h)

    def apply_L(self, v: np.ndarray) -> np.ndarray:
        Lv = self.band[1] * v
        Lv[:-1] -= v[1:] / self.h
        Lv[1:] -= v[:-1] / self.h
        return Lv

    def force(self, v: np.ndarray) -> np.ndarray:
        """h Gamma |v|^{p-1} v, the gradient of nl / (p + 1)."""
        f = np.abs(v)
        f **= self.p - 1.0
        f *= self.wG
        f *= v
        return f

    def gradient(self, v: np.ndarray) -> np.ndarray:
        """Gradient of J at v: h times the strong-form residual."""
        return self.apply_L(v) - self.force(v)

    def parts(self, v: np.ndarray) -> tuple[float, float]:
        """(quadratic form, nonlinear mass) of v."""
        return float(v @ self.apply_L(v)), float(v @ self.force(v))

    def energy(self, v: np.ndarray) -> float:
        """J(v) = quad / 2 - nl / (p + 1)."""
        quad, nl = self.parts(v)
        return 0.5 * quad - nl / (self.p + 1.0)

    def scale(self, v: np.ndarray) -> tuple[float, float, float]:
        """(s, quad, nl): the scale with s^{p-1} = quad / nl that puts s v on
        the constraint set, and the two parts of v."""
        quad, nl = self.parts(v)
        if nl <= 0.0:
            raise NonprojectableState(
                f"nonlinear mass {nl} is not positive; state cannot be scaled onto the constraint set"
            )
        if quad <= 0.0:
            raise NonprojectableState(
                f"quadratic form {quad} is not positive; lambda may not be below the spectrum"
            )
        return (quad / nl) ** (1.0 / (self.p - 1.0)), quad, nl

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """(1, 1)-banded Jacobian L - p h Gamma |u|^{p-1} of the gradient at u."""
        jac = self.band.copy()
        jac[1] -= self.p * self.wG * np.abs(u) ** (self.p - 1.0)
        return jac

    def best_translate(self, v: np.ndarray) -> tuple[int, np.ndarray]:
        """The whole-node translate of v, with zero fill, of least projected
        energy: (k, s w) with w_j = v_{j-k} and s its projection scale, or
        (0, v) when that translate is not strictly below v.

        One O(n log n) scan scores every shift.  The kinetic part of the
        quadratic form, (1/h) sum of squared edge differences with the walls,
        loses only the edges that fall off the ends, so a prefix sum gives it;
        the potential part h (V - lambda) and the nonlinear weight wG are
        correlated with v^2 and |v|^{p+1} by FFT.  The scan only selects k:
        the translate is accepted only if its energy, projected through scale
        and energy, is strictly below that of v, so rounding in the scan
        cannot move the state uphill."""
        n = v.size
        v2 = v * v
        mass = np.abs(v) ** (self.p + 1.0)
        prefix = np.concatenate(([0.0], np.cumsum(np.diff(v) ** 2)))
        k = np.arange(1 - n, n)
        first, last = np.maximum(0, -k), np.minimum(n - 1, n - 1 - k)
        kinetic = (v2[first] + v2[last] + prefix[last] - prefix[first]) / self.h
        size = 2 * n
        weights = np.fft.rfft(np.vstack([self.band[1] - 2.0 / self.h, self.wG]), size)
        terms = np.fft.rfft(np.vstack([v2, mass]), size)
        corr = np.fft.irfft(weights * terms.conj(), size)
        corr = np.concatenate([corr[:, size - n + 1:], corr[:, :n]], axis=1)  # shifts 1 - n .. n - 1
        quad, nl = kinetic + corr[0], corr[1]
        # shifts that keep too little mass for the FFT's rounding are skipped
        ok = (quad > 0.0) & (nl > 1e-9 * float(np.abs(self.wG).max() * mass.sum()))
        if not ok[n - 1]:
            return 0, v
        scores = np.full(k.size, math.inf)
        scores[ok] = quad[ok] * (quad[ok] / nl[ok]) ** (2.0 / (self.p - 1.0))
        shift = int(k[np.argmin(scores)])
        if shift == 0:
            return 0, v
        w = np.zeros(n)
        if shift > 0:
            w[shift:] = v[:n - shift]
        else:
            w[:n + shift] = v[-shift:]
        s = self.scale(w)[0]
        if self.energy(s * w) < self.energy(self.scale(v)[0] * v):
            return shift, s * w
        return 0, v


def J_eval(u: GridFunction, m, params: ProblemParams) -> float:
    """Discrete energy functional."""
    return _Discretization.of(m, params, u.grid).energy(u.values[1:-1])


def G_eval(u: GridFunction, m, params: ProblemParams) -> float:
    """Discrete constraint functional; zero on the constraint set."""
    quad, nl = _Discretization.of(m, params, u.grid).parts(u.values[1:-1])
    return quad - nl


def nehari_project(u: GridFunction, m, params: ProblemParams):
    """Scale u onto the constraint set: s^{p-1} = quad form / nonlinear mass."""
    s = _Discretization.of(m, params, u.grid).scale(u.values[1:-1])[0]
    return u.with_values(s * u.values), s


def grad_J(u: GridFunction, m, params: ProblemParams) -> np.ndarray:
    """Exact gradient of the discrete J with respect to interior node values.

    Returned as a full-length array with zero boundary entries; interior entry
    j equals h times the strong-form residual
    -u'' + (V - lambda) u - Gamma |u|^{p-1} u at node j (second-order stencil).
    """
    g = np.zeros(u.grid.nodes)
    g[1:-1] = _Discretization.of(m, params, u.grid).gradient(u.values[1:-1])
    return g


def _seed(grid: Grid, m, op: _Discretization, lam: float, center: float | None) -> np.ndarray:
    """The solver's start: a Gaussian of width 1 / sqrt(mean V - lambda) at
    center (default 0 for an interface, 0.5 for a periodic medium), scaled
    onto the constraint set, on the interior nodes.  Where it cannot be
    scaled (a deep lambda makes it vanish on every node of a coarse grid),
    NonprojectableState names its width and h."""
    if center is None:
        center = 0.0 if isinstance(m, InterfaceMedium) else 0.5
    width = 1.0 / math.sqrt(max(float(np.mean(op.V)) - lam, 0.25))
    v = np.exp(-((grid.x[1:-1] - center) / width) ** 2)
    try:
        return op.scale(v)[0] * v
    except NonprojectableState as exc:
        raise NonprojectableState(
            f"the solver's seed of width {width:.3g} cannot be scaled onto the constraint "
            f"set on the grid with h = {grid.h:.3g}: {exc}"
        ) from exc


# stage 1 scans once for a lower whole-node translate, at L-BFGS-B iteration
# SCAN_AT; the sub-node finish takes at most SECANT_STEPS secant steps, each
# relaxed by at most RELAX_STEPS Newton steps
SCAN_AT = 100
SECANT_STEPS = 8
RELAX_STEPS = 3


def _validate_spectrum(m, lam: float):
    """The spectral gate: lambda below min sigma(-d^2/dx^2 + V) of every side
    of m.  parse_config runs it too, so a config fails before any solve."""
    for side in m.sides:
        bottom = bloch.spectrum_min(side.V)
        if lam >= bottom:
            raise LambdaInSpectrum(f"lambda = {lam} is not below the spectrum bottom {bottom}")


def minimize(fg, x0: np.ndarray, max_iter: int, hook=None) -> tuple[np.ndarray, int, int]:
    """Unbounded L-BFGS-B (memory 10) on fg(x) -> (f, grad f) from x0.

    Drives the L-BFGS-B kernel setulb in the loop that
    scipy.optimize.minimize(fg, x0, jac=True, method="L-BFGS-B") runs with
    maxiter max_iter, maxfun 3 max_iter, gtol 1e-16, ftol 1e-18 and maxls 4,
    without its per-evaluation wrappers, so the iterates are the same bits.
    Almost every accepted step takes three line-search evaluations or fewer;
    the budget of 4 (scipy's default is 20) bounds what the two failed
    searches that end a round-off stall cost.  Like minimize, it does not
    re-evaluate fg at the point it last evaluated, and counts only distinct
    evaluations.  It stops when the kernel converges or stalls, or at the
    first new iterate once max_iter iterations or more than 3 max_iter
    evaluations are spent.  fg must not modify its argument.  hook(x, nit),
    if given, is called at each new iterate, as minimize calls its callback,
    and a true return stops the run there.
    Returns (x, iterations, evaluations).
    """
    m, n = 10, x0.size
    x = np.array(x0, dtype=np.float64)
    f, g = np.array(0.0), np.zeros(n)
    free, nbd = np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa, task, ln_task = np.zeros(3 * n, np.int32), np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = 1e-18 / np.finfo(float).eps
    nit = nfev = 0
    while True:
        setulb(m, x, free, free, nbd, f, g, factr, 1e-16, wa, iwa, task,
               lsave, isave, dsave, 4, ln_task)
        if task[0] == 3:  # FG: f and g at x
            if nfev == 0 or not (x == seen).all():
                fx, gx = fg(x)
                seen = x.copy()
                nfev += 1
            f, g = fx, gx.copy()  # the kernel may overwrite g
        elif task[0] == 1:  # NEW_X: an iteration is done
            nit += 1
            if hook is not None and hook(x, nit):
                task[:] = 5, 505  # STOP: the hook asked to halt
            if nit >= max_iter:
                task[:] = 5, 504  # STOP: iteration limit
            elif nfev > 3 * max_iter:
                task[:] = 5, 502  # STOP: evaluation limit
        else:
            return x, nit, nfev


def solve_ground_state(
    m, params: ProblemParams, grid: Grid, opts: SolverOptions | None = None
) -> GroundStateResult:
    """Minimize the energy over the constraint set.

    V, Gamma and the tridiagonal operator L = -D^2 + V - lambda on the interior
    nodes are evaluated once.  L = R^T R is factored with a banded Cholesky
    decomposition, and in the variables x = R v the projected energy and its
    gradient (envelope theorem) are

        E(x) = eta |x|^2 s^2,  grad E = s^2 x - s^{p+1} R^{-T} (h Gamma |v|^{p-1} v),

    with s the projection scale of v.  Each evaluation costs two O(n)
    triangular banded solves.  Stage 1 runs L-BFGS-B on E until it stalls,
    whatever the residual, or until the translation scan (below) halts it; a
    round-off stall costs 8 evaluations, and stage 2 polishes what it
    leaves.  Stage 2 takes Newton steps on grad J = 0 with the
    tridiagonal Jacobian L - p h Gamma |u|^{p-1}, keeping a step only while it
    lowers the residual and does not raise the projected energy by more than
    1e-12 relative; a rejected step is retried without the Jacobian's
    near-null mode, and if that is rejected too, the sub-node finish moves
    the state along the mode.

    Where the least energy is only approached by states sliding into one
    medium, the constrained energy has a valley that is almost flat along
    translation, and L-BFGS-B would crawl down it.  So at iteration SCAN_AT
    a scan scores every whole-node translate of the state once; a strictly
    lower one stops L-BFGS-B, and stage 2 polishes it to the residual's
    rounding floor.  A solve that stops within SCAN_AT iterations never
    scans.  iterations counts L-BFGS-B iterations, accepted Newton and
    sub-node steps, and the translation; scans (0 or 1) and shift_nodes
    count the scan and the shift it applied.
    The residual is the discrete L2 norm of the interior strong-form residual.
    The result is the critical point reached; its Morse index is not checked.
    """
    opts = opts or SolverOptions()
    _validate_spectrum(m, params.lam)

    p, h = params.p, grid.h
    op = _Discretization.of(m, params, grid)
    try:
        R = dpbtrf(op.band[:2])
    except LinAlgError as exc:
        raise NonprojectableState(
            "quadratic form is not positive definite; lambda may not be below the spectrum"
        ) from exc

    def project(v):
        s, quad, nl = op.scale(v)
        u = s * v
        g = op.gradient(u)
        energy = 0.5 * s * s * quad - s ** (p + 1.0) * nl / (p + 1.0)
        r = g / h
        return u, energy, g, math.sqrt(r @ r) * math.sqrt(h)

    def reduced(x):
        v = dtbtrs(R, x)[0]
        f = op.force(v)
        q, nl = float(x @ x), float(v @ f)
        if nl <= 0.0:
            return math.inf, np.zeros_like(x)
        s2 = (q / nl) ** (2.0 / (p - 1.0))
        back = dtbtrs(R, f, trans="T", overwrite_b=1)[0]
        back *= s2 ** ((p + 1.0) / 2.0)
        return params.eta * q * s2, s2 * x - back

    def accepts(trial, energy, residual):
        return trial[3] < residual and trial[1] <= energy + 1e-12 * abs(energy)

    def newton(u, g):
        """The Newton step J^{-1} g at u and the unit near-null mode that one
        inverse iteration, J^{-2} g, finds."""
        jac = op.jacobian(u)
        step = dgtsv(jac, g)
        mode = dgtsv(jac, step)
        return step, mode / math.sqrt(mode @ mode)

    def relaxed(v):
        """project(v), then Newton steps with the near-null mode removed while
        they lower the residual, at most RELAX_STEPS."""
        cur = project(v)
        for _ in range(RELAX_STEPS):
            step, mode = newton(cur[0], cur[2])
            trial = project(cur[0] - step + (mode @ step) * mode)
            if trial[3] >= cur[3]:
                break
            cur = trial
        return cur

    def along_mode(u, energy, residual, g, step, mode):
        """The sub-node finish: secant steps on mode @ grad J along the
        near-null mode from u, each relaxed off the mode and each within one
        node's move of u, the first downhill by the Newton step's move along
        the mode, clipped to a node.  The best state accepted, or None."""
        edges = np.diff(u)
        node = math.sqrt(edges @ edges)  # |u - u translated one node|
        t0, f0 = 0.0, float(mode @ g)
        t = -math.copysign(min(abs(float(mode @ step)), node), f0)
        best = None
        for _ in range(SECANT_STEPS):
            try:
                trial = relaxed(u + t * mode)
            except (NonprojectableState, LinAlgError):
                break
            f = float(mode @ trial[2])
            if accepts(trial, energy, residual):
                best, residual = trial, trial[3]
            if abs(f) >= abs(f0):
                break
            t0, f0, t = t, f, max(-node, min(node, t - f * (t - t0) / (f - f0)))
            if t == t0:
                break
        return best

    jump = (0, None)

    def scan_hook(x, nit):
        """At iteration SCAN_AT, look for a lower whole-node translate, and
        stop the run if there is one."""
        nonlocal jump
        if nit == SCAN_AT:
            jump = op.best_translate(dtbtrs(R, x)[0])
        return jump[0] != 0

    # ---- stage 1: L-BFGS-B on the projected energy, run until it stalls or
    # the scan finds a lower translate ----
    u = _seed(grid, m, op, params.lam, opts.seed_center)
    x0 = R[1] * u  # x0 = R u
    x0[:-1] += R[0, 1:] * u[1:]
    x, it, evaluations = minimize(reduced, x0, opts.max_iter, scan_hook)
    scans = int(it >= SCAN_AT)  # the hook scanned at iteration SCAN_AT
    shift_nodes, translate = jump
    # stage 2 stops below tol, but a translated state is polished to the
    # residual's rounding floor: along the flat drift valley a residual below
    # tol does not yet pin the centre, nor the energy to 1e-12
    floor = opts.tol
    if shift_nodes:
        u, energy, g, residual = project(translate)
        floor, it = 0.0, it + 1
    else:
        u, energy, g, residual = project(dtbtrs(R, x)[0])

    # ---- stage 2: banded Newton finish ----
    # A near-null Jacobian mode (a state in a constant medium, whose
    # translation only the walls pin) turns rounding noise in g into a huge
    # step along that mode.  If the full step is rejected, the step with the
    # mode removed is tried; one inverse iteration, J^{-2} g, finds the mode.
    # If both are rejected, secant steps along the mode move the state by
    # at most a node (the scan's translate may leave it off the minimizer
    # along the valley), then Newton resumes.
    while residual >= floor and it < opts.max_iter:
        try:
            step, mode = newton(u, g)
        except LinAlgError:
            break
        cand = None
        for d in (step, step - (mode @ step) * mode):
            try:
                trial = project(u - d)
            except NonprojectableState:
                continue
            if accepts(trial, energy, residual):
                cand = trial
                break
        if cand is None:
            cand = along_mode(u, energy, residual, g, step, mode)
        if cand is None:
            break
        u, energy, g, residual = cand
        it += 1

    if residual >= opts.tol and opts.strict:
        raise NoConvergence(
            f"residual {residual:.3e} above tolerance {opts.tol} after {it} iterations",
            iterations=it,
            residual=residual,
        )

    # sign normalization: make the dominant node positive
    v = np.concatenate(([0.0], u, [0.0]))
    if v[int(np.argmax(np.abs(v)))] < 0.0:
        v = -v
    state = GridFunction(grid=grid, values=v)

    w = _trap_weights(grid)
    mass = float(np.sum(w * v * v))
    com = float(np.sum(w * grid.x * v * v)) / mass if mass > 0.0 else 0.0

    return GroundStateResult(
        state=state,
        energy_c=energy,
        residual=residual,
        iterations=it,
        evaluations=evaluations,
        scans=scans,
        shift_nodes=shift_nodes,
        center_of_mass=com,
    )


def _fit_decay_rate(grid: Grid, v: np.ndarray) -> float | None:
    """Least-squares slope of log|u| over the outer 20% of the domain,
    averaged over the two tails; None where the tail is at round-off or has
    fewer than two nodes."""
    n = grid.nodes
    k = max(4, n // 5)
    rates = []
    for sl, sign in ((slice(1, k), 1.0), (slice(n - k, n - 1), -1.0)):
        seg = np.abs(v[sl])
        if seg.size < 2 or seg.min() < 1e-14 * max(1.0, np.abs(v).max()):
            continue
        xs = grid.x[sl]
        slope = np.polyfit(xs, np.log(seg), 1)[0]
        rates.append(sign * slope)
    if not rates:
        return None
    return float(np.mean(rates))


def d_coefficients(
    w: GridFunction, bd: bloch.BlochData, Gamma: FunctionDescriptor, params: ProblemParams
):
    """Tail coefficients of a decaying profile against the Bloch modes.

    d_minus governs the x -> -inf tail (w ~ d_minus * p_minus e^{kappa x}) and
    d_plus the x -> +inf tail; both come from weighting Gamma w^p with the
    opposite mode and dividing by the Wronskian.
    """
    grid = w.grid
    v = w.values
    vmax = float(np.abs(v).max())
    if vmax > 0.0 and max(abs(v[1]), abs(v[-2])) > 1e-6 * vmax:
        raise TailNotResolved(
            "profile has not decayed below 1e-6 of its peak at the grid boundary"
        )
    x = grid.x
    weights = _trap_weights(grid)
    gw = np.asarray(Gamma(x), dtype=float) * np.abs(v) ** (params.p - 1.0) * v
    u_plus = bd.p_plus_at(x) * np.exp(-bd.kappa * x)
    u_minus = bd.p_minus_at(x) * np.exp(bd.kappa * x)
    d_minus = float(np.sum(weights * u_plus * gw)) / bd.omega
    d_plus = float(np.sum(weights * u_minus * gw)) / bd.omega
    return d_plus, d_minus
