"""Tracker construction, tuning rules, and serialization tests."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
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
    factor_poles,
    is_internally_stable,
    observable_canonical,
    ss_to_tf,
)
from quadtrack.trackers import (
    UncertaintyInterval,
    controller_from_dict,
    controller_to_dict,
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


def test_kalman_gain_is_the_gain_at_any_noise_scale():
    """The gain is designed at unit noise; P scales with sigma^2, so the
    gain built from the Riccati solution at sigma^2 = 7.3 is the same."""
    from quadtrack.control_math import solve_dare

    s2 = 7.3
    for model in (stable_model(), unstable_model()):
        p = solve_dare(model.F, model.G, model.H, model.j, s2)
        innov = float(model.H @ p @ model.H) + s2 * model.j ** 2
        k = (model.F @ p @ model.H + s2 * model.G * model.j) / innov
        assert np.allclose(kalman_gain(model), k, rtol=1e-9, atol=0.0)


def test_kalman_gain_with_a_subnormal_feedthrough_is_quiet():
    """F = 0, G = H = 1: P = 1 and K = j / (1 + j^2) = j.  With j subnormal
    g h / j overflows, so the DARE takes its iteration, without a warning."""
    j = 2.225073858507203e-309
    model = StateSpaceSISO(np.zeros((1, 1)), np.ones(1), np.ones(1), j)
    assert kalman_gain(model).tolist() == [j]


def test_kalman_gain_stabilizes_the_predictor():
    for model in (stable_model(), unstable_model()):
        k = kalman_gain(model)
        ev = np.linalg.eigvals(model.F - np.outer(k, model.H))
        assert np.max(np.abs(ev)) < 1.0


def test_kalman_tracker_transfer_function_is_scaled_resolvent():
    model = stable_model()
    mu = 2.0
    ctrl = make_kalman_tracker(model, mu)
    k = kalman_gain(model)
    m = model.F.shape[0]
    for z in (1.2 + 0.5j, -0.9 + 0.7j, 2.0 + 0.0j):
        direct = -model.H @ np.linalg.solve(z * np.eye(m) - model.F, k) / mu
        assert ctrl.tf(z) == pytest.approx(direct, rel=1e-10)
    assert np.allclose(ctrl.G, -k / mu)
    assert ctrl.mu == mu


def test_kalman_tracker_numerator_scales_with_mu():
    model = stable_model()
    base = make_kalman_tracker(model, 1.0)
    scaled = make_kalman_tracker(model, 4.0)
    assert np.allclose(scaled.tf.num, base.tf.num / 4.0, rtol=1e-12)
    assert np.allclose(scaled.tf.den, base.tf.den, rtol=1e-12)


def test_kalman_tracker_at_nominal_tuning_runs_the_filter():
    """Closing the loop at curvature mu reproduces the innovation-form
    predictor driven by the measured minimizer."""
    model = stable_model()
    lam = 2.5
    ctrl = make_kalman_tracker(model, lam)
    k = kalman_gain(model)

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
        make_kalman_tracker(stable_model(), 0.0)


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
        mu = mu_star_search(model, [lam])
        assert mu == pytest.approx(lam, rel=1e-6)


def test_mu_star_search_never_loses_to_the_closed_form():
    from quadtrack.evaluation import analytic_cost

    model = stable_model()
    h = ss_to_tf(model)
    eigs = np.linspace(1.0, 3.3, 7)
    mu_s = mu_star_search(model, eigs)
    mu_c = mu_star_from_eigs(eigs)
    cost_s = analytic_cost(h, make_kalman_tracker(model, mu_s).tf, eigs, 1.0)
    cost_c = analytic_cost(h, make_kalman_tracker(model, mu_c).tf, eigs, 1.0)
    assert np.isfinite(cost_s)
    # the expansion-based tuning overshoots into instability on this spread
    assert cost_s <= cost_c


def test_mu_star_search_is_deterministic():
    model = stable_model()
    eigs = np.linspace(1.0, 3.5, 5)
    assert mu_star_search(model, eigs) == mu_star_search(model, eigs)


def test_mu_star_search_stabilizes_a_narrow_unstable_spread():
    model = unstable_model(j=1.85)
    eigs = np.array([2.0, 2.6, 3.3])
    mu = mu_star_search(model, eigs)
    h = ss_to_tf(model)
    c = make_kalman_tracker(model, mu).tf
    assert all(is_internally_stable(h, c, lam) for lam in eigs)


def test_mu_star_search_raises_beyond_the_gain_margin():
    # one curvature knob cannot cover [1, 3.3] for this persistent model
    model = unstable_model(j=1.0)
    with pytest.raises(NoStabilizingController):
        mu_star_search(model, np.array([1.0, 2.15, 3.3]))


def test_mu_star_search_keeps_the_refinements_inf_arithmetic_quiet():
    # the synthesis start's tuning of this model: the refinement bracket
    # ends where the loop is unstable, so Brent's parabolic step computes
    # inf - inf; that must leak no warning and leave the tuned float as it is
    from quadtrack.config import build_scenario, validate_config
    from quadtrack.control_math import chebyshev_grid

    doc = {"scenario": {"n": 10, "lambda_min": 1.0, "lambda_max": 3.5, "sigma": 1.0,
                        "d_stable": [0.950625, -1.95, 1.0], "j": 0.0, "g": [1.0, -1.0],
                        "seed": 1},
           "run": {"horizon": 100}}
    model = build_scenario(validate_config(doc).scenario).model
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mu_star_search(model, chebyshev_grid(1.0, 3.5, 9)) == 3.5000056121581493


def reference_mu_star_search(model, eigs):
    """The tuning search as it was before the stacked kernel: one scalar
    cost evaluation per candidate curvature."""
    from scipy.optimize import minimize_scalar

    from quadtrack.lti import closed_loop_error_tf, h2_norm_sq_exact, loop_stable

    eigs = np.asarray(eigs, dtype=float)
    h = ss_to_tf(model)
    base = make_kalman_tracker(model, 1.0).tf

    def cost(mu):
        c = TransferFunctionSISO(base.num / mu, base.den)
        if not loop_stable(h, c, eigs).all():
            return float("inf")
        return sum(h2_norm_sq_exact(closed_loop_error_tf(h, c, float(lam))) for lam in eigs)

    grid = np.geomspace(0.25 * eigs.min(), 8.0 * eigs.max(), 160)
    values = np.array([cost(m) for m in grid])
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    res = minimize_scalar(cost, bounds=(lo, hi), method="bounded", options={"xatol": 1e-9})
    if np.isfinite(res.fun) and res.fun <= values[best]:
        return float(res.x)
    return float(grid[best])


@pytest.mark.parametrize("scenario, grid", [
    ({"lambda_min": 1.0, "lambda_max": 3.5, "d_stable": [0.950625, -1.95, 1.0], "j": 0.2},
     False),
    ({"lambda_min": 2.0, "lambda_max": 3.3, "d_stable": [0.765625, -1.75, 1.0],
      "d_unstable": D_U.tolist(), "j": 1.85}, True),
    ({"lambda_min": 1.0, "lambda_max": 2.0, "d_stable": [0.45, -1.4, 1.0], "g": [0.0, 0.0],
      "j": 1.0}, False),
], ids=["stable", "persistent", "white-noise"])
def test_mu_star_search_matches_the_per_mu_scan_bit_for_bit(scenario, grid):
    """The benchmark's stable and persistent models, tuned on the realized
    spectrum and on the 9-point synthesis grid, and a white-noise model,
    whose constant h shares no denominator with the filter: the kernel
    search returns the very float of the scalar scan, not just a close one."""
    from quadtrack.config import build_scenario, validate_config
    from quadtrack.control_math import chebyshev_grid

    doc = {"scenario": {"n": 10, "sigma": 1.0, "g": "ones", "seed": 1, **scenario},
           "run": {"horizon": 100}}
    sc = build_scenario(validate_config(doc).scenario)
    eigs = chebyshev_grid(sc.spectrum.min(), sc.spectrum.max(), 9) if grid else sc.spectrum
    assert mu_star_search(sc.model, eigs) == reference_mu_star_search(sc.model, eigs)


def test_mu_star_search_validates_inputs():
    model = stable_model()
    with pytest.raises(InvalidSpectrum):
        mu_star_search(model, [])
    with pytest.raises(InvalidSpectrum):
        mu_star_search(model, [1.0, -1.0])


# a bowl flat to 1e-3 around its centre: ties put the parabola's vertex on
# the best point, a zero step that the search must still move off
@example(0.0, 0.5, 0.0, 0.5, "none", True, 1e-5)
@given(st.floats(-2.0, 2.0), st.floats(1e-6, 3.0), st.floats(0.0, 1.0), st.floats(-0.5, 1.5),
       st.sampled_from(["low", "high", "none"]), st.booleans(), st.sampled_from([1e-9, 1e-5]))
def test_bounded_brent_returns_scipys_bits(lo, width, cut, centre, wall, flat, xatol):
    """The in-house bounded search against the installed scipy on a quartic
    bowl, rounded to steps or not, that reads +inf past a point of the
    bracket at one end: the same x and f to the bit."""
    from scipy.optimize import minimize_scalar

    from quadtrack.trackers import _bounded_brent

    hi = lo + width
    cut, centre = lo + cut * width, lo + centre * width

    def f(x):
        if (wall == "low" and x < cut) or (wall == "high" and x > cut):
            return float("inf")
        bowl = float((x - centre) ** 2 + 0.1 * (x - centre) ** 4)
        return round(bowl, 3) if flat else bowl

    x, fx = _bounded_brent(f, lo, hi, xatol)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    assert float(x) == float(ref.x) and float(fx) == float(ref.fun)


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


@pytest.mark.parametrize("d_u, d_s", [
    (npoly.polyfromroots([1j, 1j, -1j, -1j]).real, np.array([-0.5, 1.0])),
    (npoly.polyfromroots([-1.0, -1.0]), np.array([-0.5, 1.0])),
], ids=["(z^2+1)^2", "(z+1)^2"])
def test_factor_poles_keeps_every_copy_of_a_repeated_persistent_root(d_u, d_s):
    # the root finder returns each double root about 1e-8 off the circle,
    # one copy inside the margin; the cluster's centroid is on it to roundoff
    n, got_u, got_s = factor_poles(TransferFunctionSISO([1.0], npoly.polymul(d_u, d_s)))
    assert got_u.size == d_u.size
    assert np.allclose(got_u, d_u, rtol=0.0, atol=1e-12)
    assert np.allclose(got_s, d_s, rtol=0.0, atol=1e-12)


# ----------------------------------------------------------- serialization


def test_controller_dict_roundtrip_preserves_behavior():
    model = stable_model()
    ctrl = make_kalman_tracker(model, 2.808)
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
