"""Property tests of the descriptor algebra and of the non-existence
certificate, on random trigonometric (up to 3 harmonics) and piecewise
(up to 4 segments) descriptors, of the mirror symmetry of the
dislocation criteria, and of the Floquet data below the spectrum."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgslab import bloch, criteria
from sgslab.criteria import CERT_TOL, Verdict
from sgslab.media import _BREAK_TOL, FunctionDescriptor, PeriodicMedium, compose_interface

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)
DENSE = np.linspace(0.0, 1.0, 10001)
# points closer than this to a breakpoint are left out of pointwise
# comparisons: there the descriptor's own evaluation rounds to either side
NEAR_BREAK = 1e-9

amplitudes = st.floats(-1.0, 1.0, allow_nan=False)


def trig(const, terms) -> FunctionDescriptor:
    return FunctionDescriptor(
        const=const,
        cos=tuple((n, a) for kind, n, a in terms if kind == "cos"),
        sin=tuple((n, a) for kind, n, a in terms if kind == "sin"),
    )


trigonometric = st.builds(
    trig,
    st.floats(-2.0, 2.0, allow_nan=False),
    # frequency 2048 puts every extremum between the points of a 2048-sample grid
    st.lists(st.tuples(st.sampled_from(["cos", "sin"]),
                       st.one_of(st.integers(1, 16), st.just(2048)), amplitudes),
             max_size=3),
)
piecewise = st.builds(
    lambda breaks, values: FunctionDescriptor.piecewise(
        (a, b, v) for a, b, v in zip([0.0] + breaks, breaks + [1.0], values)
    ),
    st.lists(st.integers(1, 999), max_size=3, unique=True).map(
        lambda ks: [k / 1000.0 for k in sorted(ks)]
    ),
    st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=4, max_size=4),
)
descriptors = st.one_of(trigonometric, piecewise)


def breaks(*fs) -> np.ndarray:
    return np.array([a for f in fs for a, _, _ in f.segments])


def away_from(x, pts) -> np.ndarray:
    """Mask of the x whose distance mod 1 to every point of pts exceeds NEAR_BREAK."""
    if len(pts) == 0:
        return np.ones_like(x, dtype=bool)
    d = np.abs(np.subtract.outer(x, pts)) % 1.0
    return np.min(np.minimum(d, 1.0 - d), axis=1) > NEAR_BREAK


def assert_agrees(got, want, mask):
    np.testing.assert_allclose(got[mask], want[mask], rtol=0.0, atol=1e-10)


@SETTINGS
@given(descriptors, st.floats(-3.0, 3.0, allow_nan=False))
def test_shifted_is_pointwise_shift(f, delta):
    assert_agrees(f.shifted(delta)(DENSE), f(DENSE + delta), away_from(DENSE + delta, breaks(f)))


@SETTINGS
@given(descriptors)
def test_reflected_is_pointwise_reflection(f):
    assert_agrees(f.reflected()(DENSE), f(-DENSE), away_from(-DENSE, breaks(f)))


@SETTINGS
@given(descriptors, st.integers(1, 5))
def test_frequency_scaled_is_pointwise_scaling(f, k):
    assert_agrees(f.frequency_scaled(k)(DENSE), f(k * DENSE), away_from(k * DENSE, breaks(f)))


@SETTINGS
@given(descriptors, descriptors)
def test_sub_is_pointwise_difference(f, g):
    if f.is_piecewise != g.is_piecewise and not (f.is_constant or g.is_constant):
        with pytest.raises(ValueError):
            f.sub(g)
        return
    assert_agrees(f.sub(g)(DENSE), f(DENSE) - g(DENSE), away_from(DENSE, breaks(f, g)))


def assert_normal_form(f):
    """Harmonics sorted, distinct and nonzero; breakpoints increasing by more
    than _BREAK_TOL up to 1."""
    for terms in (f.cos, f.sin):
        ns = [n for n, _ in terms]
        assert ns == sorted(set(ns)) and all(a != 0.0 for _, a in terms)
    if f.segments:
        pts = [a for a, _, _ in f.segments] + [1.0]
        assert all(r - l > _BREAK_TOL for l, r in zip(pts, pts[1:]))


@SETTINGS
@given(descriptors, descriptors, st.floats(-3.0, 3.0, allow_nan=False), st.integers(1, 5))
def test_transforms_return_normal_form(f, g, delta, k):
    outs = [f.shifted(delta), f.reflected(), f.frequency_scaled(k)]
    if f.is_piecewise == g.is_piecewise or f.is_constant or g.is_constant:
        outs.append(f.sub(g))
    for h in outs:
        assert_normal_form(h)


@SETTINGS
@given(descriptors)
def test_reflected_twice_is_identity(f):
    assert_agrees(f.reflected().reflected()(DENSE), f(DENSE), away_from(DENSE, breaks(f)))
    g = f.reflected()  # in normal form
    if not g.is_piecewise:
        assert repr(g.reflected().reflected()) == repr(g)


@SETTINGS
@given(descriptors, st.integers(1, 5), st.floats(-3.0, 3.0, allow_nan=False))
def test_scaling_then_shift_is_shift_then_scaling(f, k, delta):
    # both are x -> f(k x + k delta)
    assert_agrees(f.frequency_scaled(k).shifted(delta)(DENSE),
                  f.shifted(k * delta).frequency_scaled(k)(DENSE),
                  away_from(k * (DENSE + delta), breaks(f)))


@SETTINGS
@given(descriptors)
def test_range_bounds_enclose_dense_samples(f):
    x = np.concatenate([DENSE, breaks(f)])
    assert f.inf_bound() <= float(np.min(f(x))) + 1e-12
    assert f.sup_bound() >= float(np.max(f(x))) - 1e-12


@SETTINGS
@given(descriptors)
# sup = 3/4 at cos(2 pi x) = 1/2, below const + max_k A_k = 1
@example(FunctionDescriptor(cos=((1, 1.0), (2, -0.5))))
def test_sup_lower_bound_below_dense_max(f):
    # sampled with spacing dx, the max misses sup f by at most
    # sup|f''| (dx / 2)^2 / 2; piecewise maxima sit on the breakpoints
    top = max((n for n, _ in f.cos + f.sin), default=1)
    dx = 1.0 / (128 * top)
    x = np.concatenate([np.arange(128 * top) * dx, breaks(f)])
    curvature = sum((2.0 * np.pi * n) ** 2 * abs(a) for n, a in f.cos + f.sin)
    dense_max = float(np.max(f(x)))
    assert f.sup_lower_bound() <= dense_max + curvature * dx * dx / 8.0 + 1e-12
    assert dense_max <= f.sup_bound() + 1e-12


@SETTINGS
@given(descriptors, descriptors)
def test_difference_bounds_enclose_dense_samples(f, g):
    x = np.concatenate([DENSE, breaks(f, g)])
    lo, hi = f.difference_bounds(g)
    d = f(x) - g(x)
    assert lo <= float(np.min(d)) + 1e-12
    assert hi >= float(np.max(d)) - 1e-12


def near_ordered(low, high, gap):
    """high lifted so that inf(high) - sup(low) = gap, as far as the
    range bounds of the two descriptors tell."""
    return high.plus(low.sup_bound() - high.inf_bound() + gap)


@SETTINGS
@given(descriptors, descriptors, descriptors, descriptors,
       st.floats(-0.5, 0.5, allow_nan=False), st.floats(-0.5, 0.5, allow_nan=False))
def test_nonexistence_certificate_is_sound(V1, V2, G1, G2, v_gap, g_gap):
    V2 = near_ordered(V1, V2, v_gap)
    G2 = G2.plus(1.0 - G2.inf_bound())  # Gamma2 >= 1, so Gamma1 >= 0.5 below
    G1 = near_ordered(G2, G1, g_gap)
    m = compose_interface(PeriodicMedium(V1, G1), PeriodicMedium(V2, G2))
    rep = criteria.nonexistence_check(m)
    if rep.verdict is not Verdict.NonexistenceCertified:
        return
    x = np.concatenate([DENSE, breaks(V1, V2, G1, G2)])
    assert float(np.min(V2(x) - V1(x))) >= -CERT_TOL
    assert float(np.min(G1(x) - G2(x))) >= -CERT_TOL


# each dislocation report costs a few spectrum bottoms, so few examples
single_harmonic = st.builds(
    lambda const, a, b: FunctionDescriptor(const=const, cos=((1, a),), sin=((1, b),)),
    st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
)
two_segment = st.builds(
    lambda b, v1, v2: FunctionDescriptor.piecewise(((0.0, b, v1), (b, 1.0, v2))),
    st.integers(1, 9).map(lambda k: k / 10.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
)


@settings(max_examples=3, derandomize=True, deadline=None)
@given(st.one_of(single_harmonic, two_segment), st.floats(0.05, 0.45), st.floats(0.5, 5.0))
@example(FunctionDescriptor(const=1.0, cos=((1, 0.5),)), 0.25, 21.0)
@example(FunctionDescriptor.piecewise(((0.0, 0.3, 1.0), (0.3, 1.0, 2.0))), 0.2, 3.0)
def test_dislocation_report_mirror_swaps_orientations(V0, tau, depth):
    # x -> -x maps dislocate(V0, tau) onto dislocate(V0.reflected(), tau), so
    # the two mode-weighted integrals trade places and the verdict stays
    lam = V0.inf_bound() - depth   # below inf V0, hence below the spectrum
    G0 = FunctionDescriptor(const=1.0)
    rep = criteria.dislocation_report(V0, G0, tau, lam)
    mir = criteria.dislocation_report(V0.reflected(), G0, tau, lam)
    a, b = rep.intermediates, mir.intermediates
    assert b["dis_cond1"] == pytest.approx(a["dis_cond1_prime"], rel=1e-12)
    assert b["dis_cond1_prime"] == pytest.approx(a["dis_cond1"], rel=1e-12)
    assert mir.verdict is rep.verdict


harmonics = st.builds(
    trig,
    st.floats(-2.0, 2.0),
    st.lists(st.tuples(st.sampled_from(["cos", "sin"]), st.integers(1, 6), amplitudes),
             min_size=1, max_size=3),
)


# each example costs a spectrum bottom, so half the examples
@settings(max_examples=20, derandomize=True, deadline=None)
@given(harmonics, st.floats(-3.0, 4.0))
@example(trig(0.0, [("cos", 5, 1.0)]), 0.0)   # three Magnus steps per sample interval
def test_floquet_data_below_the_spectrum(V, depth):
    # Liouville, the comparison bounds sqrt(inf V - lambda) <= kappa <=
    # sqrt(sup V - lambda) (the lower one void above inf V), and the positivity
    # and Wronskian checks of p_pm, from just below the band edge to lambda ~ -1e4.
    # kappa = log rho takes the rounding of the trace, ~1e-13, divided by
    # 2 sinh kappa: an absolute slack of 1e-10 covers kappa down to 1e-3
    lam = bloch.spectrum_min(V) - 10.0**depth
    M, _, kappa = bloch.floquet_exponent(V, lam)
    assert abs(M.det - 1.0) <= 1e-12 * M.norm**2
    lo, hi = math.sqrt(max(0.0, V.inf_bound() - lam)), math.sqrt(V.sup_bound() - lam)
    assert lo - 1e-10 <= kappa <= hi + 1e-10
    # bloch_modes forms the same monodromy from its own blocks, bit for bit
    formed, exponent = [], bloch._exponent

    def recorded(M, lam):
        formed.append(M)
        return exponent(M, lam)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bloch, "_exponent", recorded)
        bd = bloch.bloch_modes(V, lam)
    assert [[x.hex() for x in astuple(m)] for m in formed] == [[x.hex() for x in astuple(M)]]
    assert bd.kappa == kappa and bd.p_plus.min() > 0.0 and bd.p_minus.min() > 0.0
