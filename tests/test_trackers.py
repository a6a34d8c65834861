"""Tracker construction, tuning rules, and serialization tests."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from quadtrack.errors import (
    DimensionMismatch,
    InvalidBounds,
    InvalidDensity,
    InvalidSpectrum,
    NoStabilizingController,
)
from quadtrack.lti import (
    StateSpaceSISO,
    TransferFunctionSISO,
    is_internally_stable,
    observable_canonical,
    ss_to_tf,
)
from quadtrack.trackers import (
    UncertaintyInterval,
    controller_from_dict,
    controller_to_dict,
    factor_poles,
    kalman_gain,
    make_gd_tracker,
    make_kalman_tracker,
    mu_star_from_density,
    mu_star_from_eigs,
    mu_star_search,
    mu_star_uniform,
    tracker_step,
)

D_U = np.array([1.0, -2.0 * np.cos(np.pi / 12.0), 1.0])


def stable_model(j=0.2):
    char = npoly.polyfromroots([0.975, 0.975])
    f, h = observable_canonical(char)
    return StateSpaceSISO(f, np.ones(2), h, j)


def unstable_model(j=1.0):
    char = npoly.polymul(D_U, npoly.polyfromroots([0.875, 0.875]))
    f, h = observable_canonical(char)
    return StateSpaceSISO(f, np.ones(4), h, j)


# ---------------------------------------------------------------- interval


def test_interval_validation():
    UncertaintyInterval(1.0, 1.0)
    with pytest.raises(InvalidBounds):
        UncertaintyInterval(3.0, 1.0)
    with pytest.raises(InvalidBounds):
        UncertaintyInterval(0.0, 1.0)


# ---------------------------------------------------------- gradient descent


def test_gd_tracker_is_exact_recursion():
    ctrl = make_gd_tracker(0.25)
    state = ctrl.initial_state(2)
    x = np.zeros(2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = rng.standard_normal(2)
        state, out = tracker_step(ctrl, state, g)
        assert np.array_equal(out, x)  # strictly proper: g arrives next step
        x = x - 0.25 * g
    assert np.array_equal(state.x, x)


def test_gd_tracker_transfer_function():
    ctrl = make_gd_tracker(0.1)
    z = np.exp(1j * np.linspace(0.3, 2.8, 7))
    assert np.allclose(ctrl.tf(z), -0.1 / (z - 1.0), rtol=1e-12)
    assert ctrl.alpha == 0.1


def test_gd_tracker_rejects_nonpositive_step():
    with pytest.raises(InvalidBounds):
        make_gd_tracker(0.0)


# ------------------------------------------------------------------ kalman


def test_kalman_gain_is_noise_scale_invariant():
    model = stable_model()
    k1 = kalman_gain(model, 1.0)
    k2 = kalman_gain(model, 7.3)
    assert np.allclose(k1, k2, rtol=1e-9)


def test_kalman_gain_stabilizes_the_predictor():
    for model in (stable_model(), unstable_model()):
        k = kalman_gain(model, 1.0)
        ev = np.linalg.eigvals(model.F - np.outer(k, model.H))
        assert np.max(np.abs(ev)) < 1.0


def test_kalman_tracker_transfer_function_is_scaled_resolvent():
    model = stable_model()
    mu = 2.0
    ctrl = make_kalman_tracker(model, 1.0, mu)
    k = kalman_gain(model, 1.0)
    m = model.F.shape[0]
    for z in (1.2 + 0.5j, -0.9 + 0.7j, 2.0 + 0.0j):
        direct = -model.H @ np.linalg.solve(z * np.eye(m) - model.F, k) / mu
        assert ctrl.tf(z) == pytest.approx(direct, rel=1e-10)
    assert np.allclose(ctrl.G, -k / mu)
    assert ctrl.mu == mu


def test_kalman_tracker_numerator_scales_with_mu():
    model = stable_model()
    base = make_kalman_tracker(model, 1.0, 1.0)
    scaled = make_kalman_tracker(model, 1.0, 4.0)
    assert np.allclose(scaled.tf.num, base.tf.num / 4.0, rtol=1e-12)
    assert np.allclose(scaled.tf.den, base.tf.den, rtol=1e-12)


def test_kalman_tracker_at_nominal_tuning_runs_the_filter():
    """Closing the loop at curvature mu reproduces the innovation-form
    predictor driven by the measured minimizer."""
    model = stable_model()
    lam = 2.5
    ctrl = make_kalman_tracker(model, 1.0, lam)
    k = kalman_gain(model, 1.0)

    rng = np.random.default_rng(8)
    c_path = rng.standard_normal(300)
    state = ctrl.initial_state(1)
    xi = np.zeros(2)
    for c in c_path:
        g = lam * (state.x - np.array([c]))  # quadratic gradient, n = 1
        state, _ = tracker_step(ctrl, state, g)
        xi = model.F @ xi + k * (c - float(model.H @ xi))
        assert abs(state.x[0] - float(model.H @ xi)) <= 1e-12 * max(1.0, abs(c))


def test_kalman_tracker_rejects_nonpositive_mu():
    with pytest.raises(InvalidBounds):
        make_kalman_tracker(stable_model(), 1.0, 0.0)


# ----------------------------------------------------------------- tunings


def test_mu_star_from_eigs_closed_form():
    assert mu_star_from_eigs([1.0, 3.0]) == pytest.approx(2.5)
    assert mu_star_from_eigs([2.0]) == pytest.approx(2.0)
    with pytest.raises(InvalidSpectrum):
        mu_star_from_eigs([])
    with pytest.raises(InvalidSpectrum):
        mu_star_from_eigs([1.0, -2.0])


def test_mu_star_uniform_closed_form():
    assert mu_star_uniform(2.0, 4.0) == pytest.approx(28.0 / 9.0)
    assert mu_star_uniform(3.0, 3.0) == pytest.approx(3.0)
    with pytest.raises(InvalidBounds):
        mu_star_uniform(4.0, 2.0)


def test_mu_star_uniform_is_the_dense_sample_limit():
    # midpoint sampling so the moment sums converge at second order
    lam = 1.0 + 2.5 * (np.arange(100000) + 0.5) / 100000.0
    assert mu_star_from_eigs(lam) == pytest.approx(mu_star_uniform(1.0, 3.5), rel=1e-8)


def test_mu_star_from_density():
    samples = [(1.0, 1.0), (3.0, 1.0)]
    assert mu_star_from_density(samples) == pytest.approx(2.5)
    assert mu_star_from_density([(2.0, 0.0), (3.0, 5.0)]) == pytest.approx(3.0)
    with pytest.raises(InvalidDensity):
        mu_star_from_density([])
    with pytest.raises(InvalidDensity):
        mu_star_from_density([(1.0, -1.0)])
    with pytest.raises(InvalidDensity):
        mu_star_from_density([(-1.0, 1.0)])


def test_mu_star_search_recovers_nominal_tuning():
    # a one-point spectrum is minimized by the matched filter, mu = lambda
    model = stable_model()
    for lam in (1.0, 2.25, 3.5):
        mu = mu_star_search(model, 1.0, [lam])
        assert mu == pytest.approx(lam, rel=1e-6)


def test_mu_star_search_never_loses_to_the_closed_form():
    from quadtrack.evaluation import analytic_cost

    model = stable_model()
    h = ss_to_tf(model)
    eigs = np.linspace(1.0, 3.3, 7)
    mu_s = mu_star_search(model, 1.0, eigs)
    mu_c = mu_star_from_eigs(eigs)
    cost_s = analytic_cost(h, make_kalman_tracker(model, 1.0, mu_s).tf, eigs, 1.0)
    cost_c = analytic_cost(h, make_kalman_tracker(model, 1.0, mu_c).tf, eigs, 1.0)
    assert np.isfinite(cost_s)
    # the expansion-based tuning overshoots into instability on this spread
    assert cost_s <= cost_c


def test_mu_star_search_is_deterministic():
    model = stable_model()
    eigs = np.linspace(1.0, 3.5, 5)
    assert mu_star_search(model, 1.0, eigs) == mu_star_search(model, 1.0, eigs)


def test_mu_star_search_stabilizes_a_narrow_unstable_spread():
    model = unstable_model(j=1.85)
    eigs = np.array([2.0, 2.6, 3.3])
    mu = mu_star_search(model, 1.0, eigs)
    h = ss_to_tf(model)
    c = make_kalman_tracker(model, 1.0, mu).tf
    assert all(is_internally_stable(h, c, lam) for lam in eigs)


def test_mu_star_search_raises_beyond_the_gain_margin():
    # one curvature knob cannot cover [1, 3.3] for this persistent model
    model = unstable_model(j=1.0)
    with pytest.raises(NoStabilizingController):
        mu_star_search(model, 1.0, np.array([1.0, 2.15, 3.3]))


def test_mu_star_search_validates_inputs():
    model = stable_model()
    with pytest.raises(InvalidSpectrum):
        mu_star_search(model, 1.0, [])
    with pytest.raises(InvalidSpectrum):
        mu_star_search(model, 1.0, [1.0, -1.0])
    with pytest.raises(InvalidBounds):
        mu_star_search(model, 0.0, [1.0])


# ----------------------------------------------------------- factorization


def test_factor_poles_splits_at_the_circle():
    h = ss_to_tf(unstable_model())
    n, d_u, d_s = factor_poles(h)
    assert np.allclose(d_u, D_U, atol=1e-8)
    assert np.allclose(d_s, npoly.polyfromroots([0.875, 0.875]), atol=1e-8)
    assert np.allclose(npoly.polymul(d_u, d_s), h.den, atol=1e-10)
    assert np.allclose(n, h.num)


def test_factor_poles_stable_model_has_trivial_unstable_part():
    h = ss_to_tf(stable_model())
    n, d_u, d_s = factor_poles(h)
    assert np.allclose(d_u, [1.0])
    assert np.allclose(d_s, h.den, atol=1e-10)


def test_factor_poles_constant():
    n, d_u, d_s = factor_poles(TransferFunctionSISO([2.0], [1.0]))
    assert np.allclose(n, [2.0]) and np.allclose(d_u, [1.0]) and np.allclose(d_s, [1.0])


# ----------------------------------------------------------- serialization


def test_controller_dict_roundtrip_preserves_behavior():
    model = stable_model()
    ctrl = make_kalman_tracker(model, 1.0, 2.808)
    ctrl.gamma = 5.5
    ctrl.lambda_grid = np.array([1.0, 2.0, 3.5])
    doc = controller_to_dict(ctrl)
    back = controller_from_dict(doc)

    assert back.kind == ctrl.kind
    assert back.mu == ctrl.mu
    assert back.gamma == 5.5
    assert np.allclose(back.lambda_grid, ctrl.lambda_grid)
    assert np.allclose(back.tf.num, ctrl.tf.num)
    assert np.allclose(back.tf.den, ctrl.tf.den)

    # state coordinates differ, input-output behavior must not
    rng = np.random.default_rng(6)
    sa, sb = ctrl.initial_state(3), back.initial_state(3)
    for _ in range(40):
        g = rng.standard_normal(3)
        sa, xa = tracker_step(ctrl, sa, g)
        sb, xb = tracker_step(back, sb, g)
        assert np.allclose(xa, xb, rtol=1e-9, atol=1e-9)


def test_controller_dict_is_json_ready():
    import json

    doc = controller_to_dict(make_gd_tracker(0.5))
    text = json.dumps(doc)
    back = controller_from_dict(json.loads(text))
    assert back.alpha == 0.5
    assert back.kind == "GradientDescent"


def test_tracker_step_rejects_wrong_gradient_shape():
    ctrl = make_gd_tracker(0.1)
    state = ctrl.initial_state(3)
    with pytest.raises(DimensionMismatch):
        tracker_step(ctrl, state, np.zeros(2))
