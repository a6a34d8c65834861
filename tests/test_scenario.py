"""Scenario construction and minimizer-path simulation tests."""

import numpy as np
import pytest

from quadtrack.control_math import RngStream
from quadtrack.errors import InvalidBounds, InvalidSpectrum
from quadtrack.lti import StateSpaceSISO, observable_canonical, ss_to_tf, h2_norm_sq_exact
from quadtrack.scenario import (
    STREAM_SIM_BASE,
    STREAM_SPECTRUM,
    draw_spectrum,
    make_scenario,
    simulate_minimizer,
)


def double_pole_model(j=0.2, p=0.975):
    char = np.polynomial.polynomial.polyfromroots([p, p])
    f, h = observable_canonical(char)
    return StateSpaceSISO(f, np.ones(2), h, j)


def test_draw_spectrum_stays_in_bounds():
    s = draw_spectrum(200, 1.0, 3.5, RngStream(1, STREAM_SPECTRUM))
    assert s.shape == (200,)
    assert np.all(s >= 1.0) and np.all(s <= 3.5)


def test_draw_spectrum_is_deterministic():
    a = draw_spectrum(10, 1.0, 3.3, RngStream(5, STREAM_SPECTRUM))
    b = draw_spectrum(10, 1.0, 3.3, RngStream(5, STREAM_SPECTRUM))
    assert np.array_equal(a, b)


def test_draw_spectrum_validates_arguments():
    with pytest.raises(ValueError):
        draw_spectrum(0, 1.0, 2.0, RngStream(0, 0))
    with pytest.raises(InvalidBounds):
        draw_spectrum(3, 2.0, 1.0, RngStream(0, 0))
    with pytest.raises(InvalidBounds):
        draw_spectrum(3, 0.0, 1.0, RngStream(0, 0))


def test_simulate_minimizer_matches_reference_recursion():
    """Re-run the shared-noise recursion by hand on the same stream."""
    model = double_pole_model()
    n, horizon, sigma = 3, 50, 1.3
    traj = simulate_minimizer(model, n, horizon, sigma, RngStream(9, STREAM_SIM_BASE))

    noise = sigma * RngStream(9, STREAM_SIM_BASE).standard_normal((horizon, n))
    xi = np.zeros((2, n))
    expected = np.empty((horizon, n))
    for k in range(horizon):
        w = noise[k]
        expected[k] = model.H @ xi + model.j * w
        xi = model.F @ xi + np.outer(model.G, w)
    assert np.array_equal(traj.values, expected)


def test_simulate_minimizer_validates_arguments():
    model = double_pole_model()
    with pytest.raises(ValueError):
        simulate_minimizer(model, 1, 0, 1.0, RngStream(0, 100))
    with pytest.raises(ValueError):
        simulate_minimizer(model, 1, 5, -1.0, RngStream(0, 100))


def test_simulated_variance_matches_model_h2_norm():
    """Long-run output variance equals sigma^2 times the model's squared
    H2 norm (the shared noise draw is part of that transfer function)."""
    model = StateSpaceSISO([[0.5]], [1.0], [1.0], 0.3)
    sigma = 0.8
    traj = simulate_minimizer(model, 8, 20000, sigma, RngStream(21, STREAM_SIM_BASE))
    sample = traj.values[200:]
    expected = sigma ** 2 * h2_norm_sq_exact(ss_to_tf(model))
    assert np.var(sample) == pytest.approx(expected, rel=0.05)


def test_make_scenario_streams_are_model_independent():
    """Spectrum and basis depend only on (seed, n, bounds), so changing
    the signal model must not move them."""
    s1 = make_scenario(6, 1.0, 3.3, double_pole_model(j=0.2), 1.0, seed=4)
    s2 = make_scenario(6, 1.0, 3.3, double_pole_model(j=1.7), 1.0, seed=4)
    assert np.array_equal(s1.spectrum, s2.spectrum)
    assert np.array_equal(s1.basis, s2.basis)
    assert np.array_equal(s1.hessian, s2.hessian)
    s3 = make_scenario(6, 1.0, 3.3, double_pole_model(), 1.0, seed=5)
    assert not np.array_equal(s1.spectrum, s3.spectrum)


def test_make_scenario_consistency():
    sc = make_scenario(5, 1.0, 3.5, double_pole_model(), 1.0, seed=1)
    assert np.all(sc.spectrum >= 1.0) and np.all(sc.spectrum <= 3.5)
    assert np.allclose(np.sort(np.linalg.eigvalsh(sc.hessian)),
                       np.sort(sc.spectrum), atol=1e-10)
    assert sc.model_is_stable


def test_scenario_rejects_spectrum_outside_bounds():
    sc = make_scenario(3, 1.0, 2.0, double_pole_model(), 1.0, seed=1)
    with pytest.raises(InvalidSpectrum):
        make_scenario(3, 1.0, 2.0, double_pole_model(), 1.0, seed=1).__class__(
            n=3, lambda_min=1.0, lambda_max=2.0,
            spectrum=np.array([0.5, 1.5, 1.8]), basis=sc.basis,
            hessian=sc.hessian, model=sc.model, sigma=1.0, seed=1)


def test_scenario_detects_unstable_model():
    d_u = np.array([1.0, -2.0 * np.cos(np.pi / 12.0), 1.0])
    d_s = np.polynomial.polynomial.polyfromroots([0.875, 0.875])
    f, h = observable_canonical(np.polynomial.polynomial.polymul(d_u, d_s))
    model = StateSpaceSISO(f, np.ones(4), h, 1.0)
    sc = make_scenario(4, 1.0, 3.3, model, 1.0, seed=2)
    assert not sc.model_is_stable
