"""Worst-case controller synthesis tests."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from quadtrack.control_math import chebyshev_grid
from quadtrack.errors import InvalidBounds, NoStabilizingController
from quadtrack.evaluation import robust_cost
from quadtrack.lti import (
    StateSpaceSISO,
    TransferFunctionSISO,
    closed_loop_error_tf,
    hinf_norm,
    is_internally_stable,
    observable_canonical,
    ss_to_tf,
)
from quadtrack.synthesis import SynthesisOptions, hinf_synthesize, precompensated_synthesize
from quadtrack.trackers import UncertaintyInterval, make_kalman_tracker

D_U = np.array([1.0, -2.0 * np.cos(np.pi / 12.0), 1.0])


def stable_model(j=0.2):
    char = npoly.polyfromroots([0.975, 0.975])
    f, h = observable_canonical(char)
    return StateSpaceSISO(f, np.ones(2), h, j)


def unstable_model(j=1.0):
    char = npoly.polymul(D_U, npoly.polyfromroots([0.875, 0.875]))
    f, h = observable_canonical(char)
    return StateSpaceSISO(f, np.ones(4), h, j)


FAST = SynthesisOptions(starts=4, max_evals=300, seed=0)


def test_synthesis_beats_the_matched_filter_at_a_point():
    """On a degenerate interval the certified level cannot exceed the
    nominally tuned filter tracker's peak gain: that tracker is one of
    the candidates."""
    model = stable_model()
    h = ss_to_tf(model)
    lam = 2.0
    ctrl = hinf_synthesize(h, UncertaintyInterval(lam, lam), FAST)
    kalman_peak = robust_cost(h, make_kalman_tracker(model, 1.0, lam).tf,
                              UncertaintyInterval(lam, lam))
    # slack covers the peak-gain routine's own relative 1e-6 accuracy
    assert ctrl.gamma <= kalman_peak * (1.0 + 1e-5)


def test_synthesized_controller_contract():
    model = stable_model()
    h = ss_to_tf(model)
    interval = UncertaintyInterval(1.0, 3.5)
    ctrl = hinf_synthesize(h, interval, FAST)

    assert ctrl.kind == "HInf"
    assert ctrl.tf.is_strictly_proper
    assert ctrl.gamma > 0.0
    assert np.allclose(ctrl.lambda_grid, chebyshev_grid(1.0, 3.5, 33))


def test_certificate_is_valid_on_the_grid():
    """Re-evaluate the returned controller: every grid peak must sit at
    or below the certified gamma."""
    model = stable_model()
    h = ss_to_tf(model)
    interval = UncertaintyInterval(1.0, 3.5)
    ctrl = hinf_synthesize(h, interval, FAST)
    worst = 0.0
    for lam in ctrl.lambda_grid:
        assert is_internally_stable(h, ctrl.tf, float(lam))
        worst = max(worst, hinf_norm(closed_loop_error_tf(h, ctrl.tf, float(lam))))
    assert worst <= ctrl.gamma * (1.0 + 1e-6)
    assert worst == pytest.approx(ctrl.gamma, rel=1e-6)


def test_nested_intervals_never_get_cheaper():
    model = stable_model()
    h = ss_to_tf(model)
    inner = hinf_synthesize(h, UncertaintyInterval(3.0, 3.5), FAST)
    outer = hinf_synthesize(h, UncertaintyInterval(2.6, 4.4), FAST)
    assert inner.gamma <= outer.gamma + 1e-6


def test_synthesis_is_deterministic():
    model = stable_model()
    h = ss_to_tf(model)
    a = hinf_synthesize(h, UncertaintyInterval(1.0, 3.5), FAST)
    b = hinf_synthesize(h, UncertaintyInterval(1.0, 3.5), FAST)
    assert a.gamma == b.gamma
    assert np.array_equal(a.tf.num, b.tf.num)
    assert np.array_equal(a.tf.den, b.tf.den)


def test_precompensated_reduces_to_plain_synthesis_when_stable():
    model = stable_model()
    h = ss_to_tf(model)
    interval = UncertaintyInterval(1.0, 3.5)
    plain = hinf_synthesize(h, interval, FAST)
    pre = precompensated_synthesize(h, interval, FAST)
    assert pre.gamma == plain.gamma
    assert np.array_equal(pre.tf.num, plain.tf.num)
    assert np.array_equal(pre.tf.den, plain.tf.den)


def test_hinf_synthesize_rejects_persistent_models():
    h = ss_to_tf(unstable_model())
    with pytest.raises(InvalidBounds):
        hinf_synthesize(h, UncertaintyInterval(1.0, 3.3), FAST)


def test_precompensated_controller_carries_the_internal_model():
    """The returned denominator must be divisible by the persistent
    factor d_u, and the loop must hold across the whole grid."""
    model = unstable_model()
    h = ss_to_tf(model)
    interval = UncertaintyInterval(1.0, 3.3)
    opts = SynthesisOptions(starts=4, max_evals=500, seed=1)
    ctrl = precompensated_synthesize(h, interval, opts)

    quo, rem = npoly.polydiv(ctrl.tf.den, D_U)
    assert np.max(np.abs(rem)) <= 1e-8 * max(1.0, np.max(np.abs(ctrl.tf.den)))
    assert ctrl.tf.is_strictly_proper
    for lam in ctrl.lambda_grid:
        assert is_internally_stable(h, ctrl.tf, float(lam))
    assert np.isfinite(ctrl.gamma)


def test_precompensated_rejects_orders_without_freedom():
    h = ss_to_tf(unstable_model())
    with pytest.raises(InvalidBounds):
        precompensated_synthesize(h, UncertaintyInterval(1.0, 3.3),
                                  SynthesisOptions(order=2, starts=1, max_evals=10))


def test_synthesis_reports_failure_honestly():
    # a two-evaluation budget cannot stabilize the persistent model
    h = ss_to_tf(unstable_model())
    with pytest.raises(NoStabilizingController):
        precompensated_synthesize(h, UncertaintyInterval(1.0, 3.3),
                                  SynthesisOptions(starts=1, max_evals=2, seed=0))


def test_synthesis_options_reject_a_one_point_grid():
    with pytest.raises(InvalidBounds):
        SynthesisOptions(grid_points=1)


def test_synthesis_zero_plant_returns_zero_controller():
    ctrl = hinf_synthesize(TransferFunctionSISO([0.0], [-0.5, 1.0]),
                           UncertaintyInterval(1.0, 2.0), FAST)
    assert ctrl.gamma == 0.0
    assert ctrl.tf.is_zero
