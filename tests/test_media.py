"""Coefficient descriptors and medium composition."""

import math

import numpy as np
import pytest

from sgslab.errors import H2Violation, InvalidScale, NotDifferentiable
from sgslab.media import (
    FunctionDescriptor,
    InterfaceMedium,
    PeriodicMedium,
    ProblemParams,
    compose_interface,
    dislocate,
    eval_medium,
    scaled_pair,
)


def test_constant_evaluation():
    f = FunctionDescriptor(const=1.0)
    assert f(0.37) == 1.0
    assert f(-5.2) == 1.0


def test_trig_evaluation():
    f = FunctionDescriptor(const=1.0, cos=((1, 0.5),))
    assert f(0.25) == pytest.approx(1.0, abs=1e-15)
    assert f(0.0) == pytest.approx(1.5)
    assert f(0.5) == pytest.approx(0.5)


def test_piecewise_evaluation():
    f = FunctionDescriptor(segments=((0.0, 0.5, 2.0), (0.5, 1.0, -1.0)))
    assert f(0.25) == 2.0
    assert f(0.75) == -1.0
    assert f(0.5) == -1.0  # half-open segments
    assert f(1.0) == 2.0   # wraps


def test_periodicity_random_points():
    rng = np.random.default_rng(42)
    descriptors = [
        FunctionDescriptor(const=0.3),
        FunctionDescriptor(const=1.0, cos=((1, 0.5), (3, 0.2)), sin=((2, -0.4),)),
        FunctionDescriptor(segments=((0.0, 0.3, 1.0), (0.3, 1.0, -2.0))),
    ]
    xs = rng.uniform(-10, 10, 1000)
    for f in descriptors:
        np.testing.assert_array_equal(f(xs), f(xs + 1.0))


def test_mixed_descriptor_rejected():
    with pytest.raises(ValueError):
        FunctionDescriptor(cos=((1, 0.5),), segments=((0.0, 1.0, 1.0),))


def test_segments_must_partition():
    with pytest.raises(ValueError):
        FunctionDescriptor(segments=((0.0, 0.4, 1.0), (0.5, 1.0, 2.0)))


@pytest.mark.parametrize("n", [1.5, 0.5])
def test_non_whole_frequency_rejected_as_written(n):
    with pytest.raises(ValueError, match=f"got {n}$"):
        FunctionDescriptor.from_json({"const": 1.0, "cos": [[n, 0.3]]})
    assert FunctionDescriptor.from_json({"cos": [[2.0, 0.3]]}).cos == ((2, 0.3),)


def test_derivatives_trig():
    f = FunctionDescriptor(const=1.0, cos=((1, 0.5),))
    # d/dx 0.5 cos(2 pi x) = -pi sin(2 pi x)
    assert f.derivative(0.25) == pytest.approx(-math.pi)
    assert f.derivative(0.0, order=2) == pytest.approx(-0.5 * (2 * math.pi) ** 2)


def test_derivative_order_beyond_two_raises():
    for f in (
        FunctionDescriptor(cos=((1, 0.5),)),
        FunctionDescriptor(sin=((1, 0.5),)),
    ):
        with pytest.raises(ValueError):
            f.derivative(0.1, order=3)


def test_derivative_piecewise_breakpoint_raises():
    f = FunctionDescriptor(segments=((0.0, 0.5, 1.0), (0.5, 1.0, 2.0)))
    assert f.derivative(0.25) == 0.0
    with pytest.raises(NotDifferentiable):
        f.derivative(0.5)


def test_shift_trig():
    f = FunctionDescriptor(const=1.0, cos=((1, 0.5),))
    g = f.shifted(0.25)
    xs = np.linspace(-2, 2, 101)
    np.testing.assert_allclose(g(xs), f(xs + 0.25), atol=1e-14)
    assert g(0.0) == pytest.approx(1.0)


def test_shift_piecewise():
    f = FunctionDescriptor(segments=((0.0, 0.5, 1.0), (0.5, 1.0, 2.0)))
    g = f.shifted(0.2)
    xs = np.linspace(-1, 1, 41)
    np.testing.assert_array_equal(g(xs), f(xs + 0.2))


@pytest.mark.parametrize(
    "f",
    [FunctionDescriptor(segments=((0.0, 0.3, 1.0), (0.3, 1.0, 2.0))),
     FunctionDescriptor(const=0.5, cos=((1, 0.7),), sin=((2, 0.4),))],
    ids=["piecewise", "trig"],
)
def test_large_shift_keeps_its_fraction(f):
    # the float 1e15 + 0.2 is 1e15 + 0.25; only its fraction shifts a 1-periodic f
    assert f.shifted(1e15 + 0.2) == f.shifted(0.25)
    assert f.shifted(-1e15 - 0.2) == f.shifted(-0.25)
    assert f.shifted(1e17) == f.shifted(0.0)


def test_reflection():
    f = FunctionDescriptor(const=0.5, cos=((1, 0.3),), sin=((2, 0.7),))
    g = f.reflected()
    xs = np.linspace(-1, 1, 57)
    np.testing.assert_allclose(g(xs), f(-xs), atol=1e-14)


def test_frequency_scaling():
    f = FunctionDescriptor(const=1.0, cos=((1, 0.3),))
    g = f.frequency_scaled(2)
    xs = np.linspace(0, 1, 33)
    np.testing.assert_allclose(g(xs), f(2 * xs), atol=1e-14)


def test_sub_and_bounds():
    f = FunctionDescriptor(const=1.0, cos=((1, 0.5),))
    g = FunctionDescriptor(const=0.2)
    d = f.sub(g)
    assert d(0.0) == pytest.approx(1.3)
    assert f.sup_bound() == pytest.approx(1.5)
    assert f.inf_bound() == pytest.approx(0.5)
    pw = FunctionDescriptor(segments=((0.0, 0.5, -1.0), (0.5, 1.0, 3.0)))
    assert pw.sup_bound() == 3.0
    assert pw.inf_bound() == -1.0


def test_mean():
    f = FunctionDescriptor(const=1.0, cos=((1, 0.5),), sin=((2, 0.2),))
    assert f.mean() == pytest.approx(1.0)
    pw = FunctionDescriptor(segments=((0.0, 0.25, 4.0), (0.25, 1.0, 0.0)))
    assert pw.mean() == pytest.approx(1.0)


def test_json_round_trip():
    for f in (
        FunctionDescriptor(const=1.0, cos=((1, 0.5), (4, -0.1)), sin=((2, 0.3),)),
        FunctionDescriptor(segments=((0.0, 0.5, 1.0), (0.5, 1.0, 2.0))),
    ):
        g = FunctionDescriptor.from_json(f.to_json())
        xs = np.linspace(0, 1, 17)
        np.testing.assert_array_equal(f(xs), g(xs))


def test_h2_violation():
    with pytest.raises(H2Violation):
        PeriodicMedium(V=FunctionDescriptor(const=1.0), Gamma=FunctionDescriptor(const=-1.0))


def test_h2_fine_harmonic_gamma_accepted():
    # sup Gamma = 1e-3, but every point of a 4096-sample grid sits on a zero
    # of the sine, where Gamma = -1e-3
    G = FunctionDescriptor(const=-1e-3, sin=((4096, 2e-3),))
    PeriodicMedium(V=FunctionDescriptor(const=1.0), Gamma=G)
    assert G.sup_lower_bound() == pytest.approx(1e-3, rel=1e-12)


def test_sup_lower_bound_multi_harmonic():
    # const + max_k A_k / 2, with cos and sin of one frequency combined
    f = FunctionDescriptor(const=0.1, cos=((1, 0.3), (2, 0.6)), sin=((2, 0.8),))
    assert f.sup_lower_bound() == pytest.approx(0.1 + 0.5, rel=1e-15)
    assert f.sup_bound() == pytest.approx(0.1 + 0.3 + 1.0, rel=1e-15)


def test_eval_medium_dispatch():
    m1 = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.0))
    m2 = PeriodicMedium(FunctionDescriptor(const=2.0), FunctionDescriptor(const=1.0))
    m = compose_interface(m1, m2)
    assert eval_medium(m, 0.1)[0] == 1.0
    assert eval_medium(m, -0.1)[0] == 2.0
    assert eval_medium(m, 0.0)[0] == 1.0  # x = 0 uses side 1
    V, _ = eval_medium(m, np.array([-0.5, 0.5]))
    np.testing.assert_array_equal(V, [2.0, 1.0])


def test_compose_interface_degenerate():
    m1 = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.0))
    m = compose_interface(m1, m1)
    xs = np.linspace(-2, 2, 21)
    V, G = eval_medium(m, xs)
    np.testing.assert_array_equal(V, np.ones(21))


def test_dislocate_consistency():
    V0 = FunctionDescriptor(const=1.0, cos=((1, 0.5),))
    G0 = FunctionDescriptor(const=1.0, sin=((1, 0.3),))
    m = dislocate(V0, G0, tau=0.25)
    xs = np.linspace(0.01, 3, 50)
    V, G = eval_medium(m, xs)
    np.testing.assert_allclose(V, V0(xs + 0.25), atol=1e-14)
    np.testing.assert_allclose(G, G0(xs + 0.25), atol=1e-14)
    Vn, Gn = eval_medium(m, -xs)
    np.testing.assert_allclose(Vn, V0(-xs - 0.25), atol=1e-14)
    np.testing.assert_allclose(Gn, G0(-xs - 0.25), atol=1e-14)


def test_dislocate_zero_shift():
    V0 = FunctionDescriptor(const=1.0, cos=((1, 0.5),))
    G0 = FunctionDescriptor(const=1.0)
    m = dislocate(V0, G0, tau=0.0)
    xs = np.linspace(-2, 2, 21)
    V, _ = eval_medium(m, xs)
    np.testing.assert_array_equal(V, V0(xs))


def test_dislocate_example_value():
    V0 = FunctionDescriptor(const=1.0, cos=((1, 0.5),))
    m = dislocate(V0, FunctionDescriptor(const=1.0), tau=0.25)
    V, _ = eval_medium(m, 0.0)
    assert V == pytest.approx(1.0, abs=1e-14)  # 1 + 0.5 cos(pi/2)


def test_scaled_pair():
    m2 = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.0))
    m1 = scaled_pair(m2, 2, 1.0)
    assert m1.V(0.3) == pytest.approx(4.0)
    m2t = PeriodicMedium(
        FunctionDescriptor(const=1.0, cos=((1, 0.3),)), FunctionDescriptor(const=1.0)
    )
    m1t = scaled_pair(m2t, 2, 1.0)
    xs = np.linspace(0, 1, 29)
    np.testing.assert_allclose(m1t.V(xs), 4.0 * m2t.V(2 * xs), atol=1e-12)


def test_scaled_pair_identity_and_composition():
    m = PeriodicMedium(
        FunctionDescriptor(const=1.0, cos=((1, 0.3),)), FunctionDescriptor(const=2.0)
    )
    ident = scaled_pair(m, 1, 1.0)
    xs = np.linspace(0, 1, 41)
    np.testing.assert_allclose(ident.V(xs), m.V(xs), atol=1e-12)

    twice = scaled_pair(scaled_pair(m, 2, 3.0), 3, 2.0)
    once = scaled_pair(m, 6, 6.0)
    np.testing.assert_allclose(twice.V(xs), once.V(xs), atol=1e-12)
    np.testing.assert_allclose(twice.Gamma(xs), once.Gamma(xs), atol=1e-12)


def test_scaled_pair_invalid_k():
    m = PeriodicMedium(FunctionDescriptor(const=1.0), FunctionDescriptor(const=1.0))
    with pytest.raises(InvalidScale):
        scaled_pair(m, 0, 1.0)


def test_problem_params():
    p = ProblemParams(p=3.0, lam=-1.0)
    assert p.eta == pytest.approx(0.25)
    with pytest.raises(ValueError):
        ProblemParams(p=1.0)
