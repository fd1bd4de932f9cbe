"""1-periodic coefficient descriptors and the media built from them.

Coefficients are kept symbolic (trigonometric polynomials or piecewise
constants on [0, 1)) rather than as sampled arrays: the interface criteria
need exact point values and one-sided derivatives at x = 0, which sampling
cannot provide robustly.  All types are immutable value objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import H2Violation, InvalidScale, NotDifferentiable

TWO_PI = 2.0 * math.pi

# tolerance for merging piecewise breakpoints that coincide up to rounding
_BREAK_TOL = 1e-12


def _frac(x):
    return x - math.floor(x)


def _frequency(n) -> int:
    """n as a trigonometric frequency: a whole number at least 1."""
    if float(n) >= 1.0 and float(n).is_integer():
        return int(n)
    raise ValueError(f"trigonometric frequency must be a positive integer, got {n}")


@dataclass(frozen=True)
class FunctionDescriptor:
    """A bounded 1-periodic real function.

    Either trigonometric,

        f(x) = const + sum_a amp * cos(2 pi n x) + sum_b amp * sin(2 pi n x),

    or piecewise constant on half-open segments [a, b) partitioning [0, 1).
    The two families are never mixed in one descriptor.
    """

    const: float = 0.0
    cos: tuple = ()        # ((frequency, amplitude), ...)
    sin: tuple = ()
    segments: tuple = ()   # ((a, b, value), ...), half-open, covering [0, 1)

    def __post_init__(self):
        object.__setattr__(self, "cos", tuple((_frequency(n), float(a)) for n, a in self.cos))
        object.__setattr__(self, "sin", tuple((_frequency(n), float(a)) for n, a in self.sin))
        object.__setattr__(
            self, "segments", tuple((float(a), float(b), float(v)) for a, b, v in self.segments)
        )
        object.__setattr__(self, "const", float(self.const))
        numbers = [self.const, *(a for _, a in self.cos + self.sin), *sum(self.segments, ())]
        if not all(map(math.isfinite, numbers)):
            raise ValueError("descriptor coefficients and segment bounds must be finite")
        if self.segments:
            if self.const != 0.0 or self.cos or self.sin:
                raise ValueError("descriptor mixes piecewise segments with trigonometric terms")
            segs = sorted(self.segments)
            if abs(segs[0][0]) > _BREAK_TOL or abs(segs[-1][1] - 1.0) > _BREAK_TOL:
                raise ValueError("piecewise segments must cover [0, 1)")
            for (a0, b0, _), (a1, _, _) in zip(segs, segs[1:]):
                if abs(b0 - a1) > _BREAK_TOL:
                    raise ValueError("piecewise segments must partition [0, 1) without gaps or overlap")
            for a, b, _ in segs:
                if not b > a:
                    raise ValueError("piecewise segment must have positive length")
            object.__setattr__(self, "segments", tuple(segs))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def constant(v: float) -> "FunctionDescriptor":
        return FunctionDescriptor(const=v)

    @staticmethod
    def piecewise(values_and_breaks) -> "FunctionDescriptor":
        """Build from ((a, b, value), ...) triples."""
        return FunctionDescriptor(segments=tuple(values_and_breaks))

    @property
    def is_piecewise(self) -> bool:
        return bool(self.segments)

    @property
    def is_constant(self) -> bool:
        return not (self.segments or self.cos or self.sin)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        xs = np.asarray(x, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        if self.segments:
            xf = xs - np.floor(xs)
            out = np.empty_like(xf)
            for a, b, v in self.segments:
                out[(xf >= a - _BREAK_TOL) & (xf < b - _BREAK_TOL)] = v
            # points rounding onto x = 1 wrap to the first segment
            out[xf >= 1.0 - _BREAK_TOL] = self.segments[0][2]
        else:
            # reduce to the fundamental period first: makes evaluation at x
            # and x + 1 bit-identical and keeps the trig arguments small
            xf = xs - np.floor(xs)
            out = np.full_like(xf, self.const)
            for n, a in self.cos:
                out += a * np.cos(TWO_PI * n * xf)
            for n, a in self.sin:
                out += a * np.sin(TWO_PI * n * xf)
        return float(out[0]) if scalar else out

    def derivative(self, x: float, order: int = 1) -> float:
        """Pointwise derivative; piecewise descriptors are flat inside segments
        and not differentiable at breakpoints."""
        if order not in (1, 2):
            raise ValueError("only first and second derivatives supported")
        if self.segments:
            xf = _frac(x)
            for a, b, _ in self.segments:
                if min(abs(xf - a), abs(xf - b), abs(xf - a - 1.0), abs(xf - b + 1.0)) < _BREAK_TOL:
                    raise NotDifferentiable(
                        f"piecewise descriptor has a breakpoint at x = {x}"
                    )
            return 0.0
        out = 0.0
        for n, a in self.cos:
            w = TWO_PI * n
            out += -a * w * math.sin(w * x) if order == 1 else -a * w * w * math.cos(w * x)
        for n, a in self.sin:
            w = TWO_PI * n
            out += a * w * math.cos(w * x) if order == 1 else -a * w * w * math.sin(w * x)
        return out

    # -- algebra on descriptors ----------------------------------------------

    def times(self, c: float) -> "FunctionDescriptor":
        if self.segments:
            return FunctionDescriptor(segments=tuple((a, b, c * v) for a, b, v in self.segments))
        return FunctionDescriptor(
            const=c * self.const,
            cos=tuple((n, c * a) for n, a in self.cos),
            sin=tuple((n, c * a) for n, a in self.sin),
        )

    def plus(self, c: float) -> "FunctionDescriptor":
        if self.segments:
            return FunctionDescriptor(segments=tuple((a, b, v + c) for a, b, v in self.segments))
        return FunctionDescriptor(const=self.const + c, cos=self.cos, sin=self.sin)

    def shifted(self, delta: float) -> "FunctionDescriptor":
        """Descriptor of x -> f(x + delta): _substituted(1, delta)."""
        return self._substituted(1, delta)

    def frequency_scaled(self, k: int) -> "FunctionDescriptor":
        """Descriptor of x -> f(k x) for integer k >= 1: _substituted(k, 0)."""
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise InvalidScale(f"scaling factor must be a positive integer, got {k}")
        return self._substituted(int(k), 0.0)

    def reflected(self) -> "FunctionDescriptor":
        """Descriptor of x -> f(-x): _substituted(-1, 0)."""
        return self._substituted(-1, 0.0)

    def sub(self, other: "FunctionDescriptor") -> "FunctionDescriptor":
        """Pointwise difference self - other, within one descriptor family; a
        constant counts as a member of either."""
        if (self.segments or other.segments) and self._same_family(other):
            return self._rebuild(
                lambda x: self(x) - other(x), [a for f in (self, other) for a, _, _ in f.segments]
            )
        if not self.segments and not other.segments:
            mine, theirs, zero = self._harmonics(), other._harmonics(), (0.0, 0.0)
            table = {
                n: tuple(x - y for x, y in zip(mine.get(n, zero), theirs.get(n, zero)))
                for n in mine.keys() | theirs.keys()
            }
            return self._trig(self.const - other.const, table)
        raise ValueError("cannot subtract a piecewise from a trigonometric descriptor")

    def difference_bounds(self, other: "FunctionDescriptor") -> tuple[float, float]:
        """(lower bound on inf, upper bound on sup) of self - other: the range
        of sub(other) within one family, the conservative
        (inf - sup, sup - inf) of the two ranges across families."""
        if not self._same_family(other):
            return self.inf_bound() - other.sup_bound(), self.sup_bound() - other.inf_bound()
        d = self.sub(other)
        return d.inf_bound(), d.sup_bound()

    def difference_sup_lower_bound(self, other: "FunctionDescriptor") -> float:
        """Lower bound on sup(self - other): sup_lower_bound of sub(other)
        within one family, the difference of the means across families."""
        if not self._same_family(other):
            return self.mean() - other.mean()
        return self.sub(other).sup_lower_bound()

    def _same_family(self, other: "FunctionDescriptor") -> bool:
        return self.is_constant or other.is_constant or self.is_piecewise == other.is_piecewise

    def _substituted(self, k: int, delta: float) -> "FunctionDescriptor":
        """Descriptor of x -> f(k x + delta) for a nonzero integer k: piecewise
        breakpoints move to their preimages, harmonic n becomes |k| n with its
        phase rotated by 2 pi n delta (and conjugated for k < 0)."""
        if abs(delta) >= 1.0:
            delta = math.fmod(delta, 1.0)  # exact, so a large shift keeps its fraction
        if self.segments:
            return self._rebuild(
                lambda x: self(k * x + delta),
                [(a - delta + j) / k for a, _, _ in self.segments for j in range(abs(k))],
            )
        table = {}
        for n, (a, b) in self._harmonics().items():
            c, s = math.cos(TWO_PI * n * delta), math.sin(TWO_PI * n * delta)
            sin = b * c - a * s
            table[abs(k) * n] = (a * c + b * s, sin if k > 0 else -sin)
        return self._trig(self.const, table)

    @staticmethod
    def _rebuild(f, breaks) -> "FunctionDescriptor":
        """Piecewise descriptor with the candidate breakpoints breaks, folded
        into [0, 1) with near ties merged, taking f at each segment midpoint."""
        bounds = [0.0]
        for p in sorted({_frac(q) for q in breaks}):
            if p - bounds[-1] > _BREAK_TOL and 1.0 - p > _BREAK_TOL:
                bounds.append(p)
        bounds.append(1.0)
        return FunctionDescriptor(
            segments=tuple((l, r, float(f(0.5 * (l + r)))) for l, r in zip(bounds, bounds[1:]))
        )

    def _harmonics(self) -> dict:
        """{n: [cos amplitude, sin amplitude]}, repeated frequencies summed."""
        table: dict[int, list[float]] = {}
        for i, terms in enumerate((self.cos, self.sin)):
            for n, a in terms:
                table.setdefault(n, [0.0, 0.0])[i] += a
        return table

    @staticmethod
    def _trig(const: float, table: dict) -> "FunctionDescriptor":
        """Trigonometric descriptor of a harmonic table, sorted, zero amplitudes dropped."""
        return FunctionDescriptor(
            const=const,
            cos=tuple(sorted((n, a) for n, (a, _) in table.items() if a != 0.0)),
            sin=tuple(sorted((n, b) for n, (_, b) in table.items() if b != 0.0)),
        )

    # -- exact range information ----------------------------------------------

    def sup_bound(self) -> float:
        """Upper bound on sup f; exact for piecewise and single-harmonic
        descriptors, an amplitude-sum bound otherwise."""
        if self.segments:
            return max(v for _, _, v in self.segments)
        return self.const + sum(self._amplitudes())

    def inf_bound(self) -> float:
        """Lower bound on inf f, with the same exactness as sup_bound."""
        if self.segments:
            return min(v for _, _, v in self.segments)
        return self.const - sum(self._amplitudes())

    def sup_lower_bound(self) -> float:
        """Lower bound on sup f, exact where sup_bound is exact.  Elsewhere it
        is const + max_k A_k / 2, with A_k the amplitude of harmonic k: the
        average of f against the weight 1 + cos(2 pi k x + phi_k), which is
        non-negative with mean 1."""
        amps = self._amplitudes()
        if self.segments or len(amps) <= 1:
            return self.sup_bound()
        return self.const + max(amps) / 2.0

    def _amplitudes(self) -> list[float]:
        """Amplitude of each harmonic, its cos and sin terms combined."""
        return [math.hypot(a, b) for a, b in self._harmonics().values()]

    def sup_norm(self) -> float:
        return max(abs(self.sup_bound()), abs(self.inf_bound()))

    def mean(self) -> float:
        """Exact average over one period."""
        if self.segments:
            return sum((b - a) * v for a, b, v in self.segments)
        return self.const

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        out: dict = {}
        if self.segments:
            out["segments"] = [[a, b, v] for a, b, v in self.segments]
            return out
        out["const"] = self.const
        if self.cos:
            out["cos"] = [[n, a] for n, a in self.cos]
        if self.sin:
            out["sin"] = [[n, a] for n, a in self.sin]
        return out

    @staticmethod
    def from_json(data) -> "FunctionDescriptor":
        """A descriptor from a number or a {const, cos, sin, segments} object;
        a JSON boolean is not a number anywhere in it."""
        if isinstance(data, (int, float)) and not isinstance(data, bool):
            return FunctionDescriptor.constant(float(data))
        if not isinstance(data, dict):
            raise ValueError(f"descriptor must be a number or an object, got {type(data).__name__}")
        known = {"const", "cos", "sin", "segments"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown descriptor fields: {sorted(unknown)}")
        values = [data.get("const")]
        for key in ("cos", "sin", "segments"):
            values += [x for row in data.get(key, ()) for x in row]
        if any(isinstance(x, bool) for x in values):
            raise ValueError("descriptor values must be numbers, not booleans")
        return FunctionDescriptor(
            const=data.get("const", 0.0),
            cos=tuple((n, a) for n, a in data.get("cos", ())),
            sin=tuple((n, a) for n, a in data.get("sin", ())),
            segments=tuple((a, b, v) for a, b, v in data.get("segments", ())),
        )


@dataclass(frozen=True)
class PeriodicMedium:
    """One side of the problem: a (V, Gamma) pair of 1-periodic coefficients.

    Gamma must take a positive value somewhere on the period (hypothesis that
    makes the constraint set nonempty).  Construction fails unless
    Gamma.sup_lower_bound() proves it, so a multi-harmonic Gamma whose
    positive part that bound cannot see is rejected too.
    """

    V: FunctionDescriptor
    Gamma: FunctionDescriptor

    def __post_init__(self):
        if self.Gamma.sup_lower_bound() <= 0.0:
            raise H2Violation("sup of Gamma over one period must be strictly positive")

    @property
    def sides(self) -> tuple:
        """The periodic media the medium is made of: itself alone."""
        return (self,)


@dataclass(frozen=True)
class InterfaceMedium:
    """Two periodic media glued along x = 0: side1 governs x > 0, side2
    governs x < 0.  Evaluation at x = 0 uses side1 (a measure-zero convention
    with no effect on integrals; fixed for reproducibility)."""

    side1: PeriodicMedium
    side2: PeriodicMedium

    @property
    def sides(self) -> tuple:
        return (self.side1, self.side2)


Medium = PeriodicMedium | InterfaceMedium


def eval_medium(m: Medium, x):
    """Evaluate (V(x), Gamma(x)); for an interface, dispatch on the sign of x."""
    if isinstance(m, PeriodicMedium):
        return m.V(x), m.Gamma(x)
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    pos = xs >= 0.0
    V = np.where(pos, m.side1.V(xs), m.side2.V(xs))
    G = np.where(pos, m.side1.Gamma(xs), m.side2.Gamma(xs))
    if scalar:
        return float(V[0]), float(G[0])
    return V, G


def compose_interface(m1: PeriodicMedium, m2: PeriodicMedium) -> InterfaceMedium:
    """Glue two periodic media; m1 is used for x > 0, m2 for x < 0."""
    return InterfaceMedium(side1=m1, side2=m2)


def dislocate(V0: FunctionDescriptor, Gamma0: FunctionDescriptor, tau: float) -> InterfaceMedium:
    """Dislocation interface: V0 and Gamma0 shifted by +tau on x > 0 and by
    -tau on x < 0."""
    side1 = PeriodicMedium(V=V0.shifted(tau), Gamma=Gamma0.shifted(tau))
    side2 = PeriodicMedium(V=V0.shifted(-tau), Gamma=Gamma0.shifted(-tau))
    return InterfaceMedium(side1=side1, side2=side2)


def scaled_pair(m2: PeriodicMedium, k: int, gamma: float) -> PeriodicMedium:
    """The companion medium V1(x) = k^2 V2(k x), Gamma1(x) = gamma^2 Gamma2(k x)."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidScale(f"k must be a positive integer, got {k}")
    if gamma <= 0:
        raise InvalidScale(f"gamma must be positive, got {gamma}")
    V1 = m2.V.frequency_scaled(int(k)).times(float(k) ** 2)
    G1 = m2.Gamma.frequency_scaled(int(k)).times(float(gamma) ** 2)
    return PeriodicMedium(V=V1, Gamma=G1)


@dataclass(frozen=True)
class ProblemParams:
    """Nonlinearity exponent p > 1 and spectral parameter lambda."""

    p: float
    lam: float = 0.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"exponent p must exceed 1, got {self.p}")

    @property
    def eta(self) -> float:
        """1/2 - 1/(p+1): the energy per unit of the quadratic form on the
        constraint set."""
        return 0.5 - 1.0 / (self.p + 1.0)
