"""Worst-case controller synthesis tests."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
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
    loop_stable,
    observable_canonical,
    roots_stable,
    ss_to_tf,
)
from quadtrack.synthesis import SynthesisOptions, hinf_synthesize, precompensated_synthesize
from quadtrack.trackers import (
    UncertaintyInterval,
    controller_from_dict,
    controller_to_dict,
    make_kalman_tracker,
    mu_star_search,
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


FAST = SynthesisOptions(starts=4, max_evals=300, seed=0)


def test_synthesis_beats_the_matched_filter_at_a_point():
    """On a degenerate interval the certified level cannot exceed the
    nominally tuned filter tracker's peak gain: that tracker is one of
    the candidates."""
    model = stable_model()
    h = ss_to_tf(model)
    lam = 2.0
    ctrl = hinf_synthesize(h, UncertaintyInterval(lam, lam), FAST)
    kalman_peak = robust_cost(h, make_kalman_tracker(model, lam).tf,
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


# persistent factors with repeated roots, which the root finder returns
# only about 1e-8 exact: a ramp (z - 1)^2 and a double resonance (z^2 + 1)^2
REPEATED_D_U = {"ramp": [1.0, -2.0, 1.0], "double-resonance": [1.0, 0.0, 2.0, 0.0, 1.0]}
REPEATED = pytest.mark.parametrize("d_u", REPEATED_D_U.values(), ids=REPEATED_D_U.keys())


def repeated_pole_model(d_u):
    from quadtrack.config import build_scenario, validate_config

    doc = {"scenario": {"n": 2, "lambda_min": 1.0, "lambda_max": 1.5, "sigma": 1.0,
                        "d_stable": [-0.5, 1.0], "d_unstable": d_u, "j": 1.0, "seed": 1},
           "run": {"horizon": 100}}
    return build_scenario(validate_config(doc).scenario).model


@REPEATED
def test_loop_stable_accepts_a_repeated_persistent_factor(d_u):
    """c = n_K f / (d_u d_cbar) with d_cbar = d_s f: the tuned filter with a
    stable factor f put in both, so its loop f (d_u d_s - lam n_K) is the
    filter's, and d_u divides d_c although the roots of the two do not
    match to 1e-9."""
    model = repeated_pole_model(d_u)
    h = ss_to_tf(model)
    grid = chebyshev_grid(1.0, 1.5, 5)
    n_k = make_kalman_tracker(model, mu_star_search(model, grid)).tf.num
    f = np.array([-0.3, 1.0])
    d_cbar = npoly.polymul([-0.5, 1.0], f)
    c = TransferFunctionSISO(npoly.polymul(n_k, f), npoly.polymul(d_u, d_cbar), cancel=False)
    assert loop_stable(h, c, grid).all()
    assert np.isfinite(robust_cost(h, c, UncertaintyInterval(1.0, 1.5), 5))


@REPEATED
def test_precompensated_synthesis_certifies_a_repeated_persistent_factor(d_u):
    """The filter start carries d_u, so the search starts from a live point,
    and the certificate is no worse than the tuned filter tracker's."""
    model = repeated_pole_model(d_u)
    h = ss_to_tf(model)
    interval = UncertaintyInterval(1.0, 1.5)
    opts = SynthesisOptions(grid_points=5, starts=2, max_evals=300, seed=1)
    ctrl = precompensated_synthesize(h, interval, opts)
    assert np.isfinite(ctrl.gamma)
    assert loop_stable(h, ctrl.tf, ctrl.lambda_grid).all()
    filt = make_kalman_tracker(model, mu_star_search(model, ctrl.lambda_grid)).tf
    assert ctrl.gamma <= robust_cost(h, filt, interval, 5)


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
    # the JSON round trip: controller_from_dict once refused the stored
    # {"num": [0.0], "den": [1.0]} with "cannot realize a constant"
    back = controller_from_dict(controller_to_dict(ctrl))
    assert back.tf.is_zero and back.tf.degree == 0
    for a, b in ((back.F, ctrl.F), (back.G, ctrl.G), (back.H, ctrl.H)):
        assert np.array_equal(a, b)


def test_objective_divides_by_the_smallest_denominator_bit_for_bit():
    """Division rounds monotonically, so the grid max of num / den equals the
    max of num over the smallest denominator per frequency, bit for bit, on
    feasible and infeasible coefficient vectors alike."""
    from quadtrack.synthesis import _Objective
    from quadtrack.lti import factor_poles

    rng = np.random.default_rng(11)
    infeasible = 0
    for model, (lo, hi) in [(stable_model(), (1.0, 3.5)), (unstable_model(j=1.85), (2.0, 3.3))]:
        h = ss_to_tf(model)
        n_h, d_u, d_s = factor_poles(h)
        p = np.zeros(d_u.size)
        p[-1] = 1.0
        obj = _Objective(n_h, d_u, d_s, p, h.degree, chebyshev_grid(lo, hi, 33))
        for scale in (0.05, 0.5, 5.0):
            for _ in range(25):
                v = scale * rng.standard_normal(2 * h.degree)
                n_cbar, d_cbar = obj.split(v)
                base = npoly.polymul(d_u, d_cbar)
                pert = npoly.polymul(p, n_cbar)
                num_v = np.abs(npoly.polyval(obj.z, npoly.polymul(n_h, d_cbar)))
                p0 = npoly.polyval(obj.z, npoly.polymul(d_s, base))
                p1 = npoly.polyval(obj.z, npoly.polymul(d_s, pert))
                den_v = np.abs(p0[None, :] - obj.lam_grid[:, None] * p1[None, :])
                full = float(np.max(num_v[None, :] / np.maximum(den_v, 1e-300)))
                assert float(np.max(num_v / np.maximum(den_v.min(axis=0), 1e-300))) == full
                value = obj(v)
                infeasible += not np.isfinite(value)
                assert value == full or not np.isfinite(value)
    assert infeasible > 0


def test_objective_reuses_its_buffers_without_stale_values():
    """One instance scores a shuffled mix of feasible, loop-unstable and
    non-finite vectors with the values a per-call-allocation formula and a
    fresh instance give, so no buffer carries a value between calls."""
    from quadtrack.synthesis import _kalman_start, _Objective
    from quadtrack.lti import factor_poles

    rng = np.random.default_rng(12)
    for model, (lo, hi) in [(stable_model(), (1.0, 3.5)), (unstable_model(j=1.85), (2.0, 3.3))]:
        h = ss_to_tf(model)
        n_h, d_u, d_s = factor_poles(h)
        p = np.zeros(d_u.size)
        p[-1] = 1.0
        lam_grid = chebyshev_grid(lo, hi, 9)
        args = (n_h, d_u, d_s, p, h.degree, lam_grid)
        obj = _Objective(*args)
        v0 = _kalman_start(h, lam_grid, d_s, p, h.degree)
        vs = [v0] + [v0 + 1e-3 * rng.standard_normal(v0.size) for _ in range(3)]
        vs += [s * rng.standard_normal(v0.size) for s in (0.5, 5.0, 5.0)]
        for bad in (np.nan, np.inf, -np.inf):
            v = v0.copy()
            v[rng.integers(v.size)] = bad
            vs.append(v)
        kinds = set()
        for k in rng.permutation(len(vs)):
            v = vs[k]
            n_cbar, d_cbar = obj.split(v)
            base = npoly.polymul(d_u, d_cbar)
            pert = npoly.polymul(p, n_cbar)
            if not (np.isfinite(base).all() and np.isfinite(pert).all()):
                expected, kind = float("inf"), "non-finite"
            elif not roots_stable(base, pert, obj.lam_grid).all():
                expected, kind = float("inf"), "unstable"
            else:
                num_v = np.abs(npoly.polyval(obj.z, npoly.polymul(n_h, d_cbar)))
                p0 = npoly.polyval(obj.z, npoly.polymul(d_s, base))
                p1 = npoly.polyval(obj.z, npoly.polymul(d_s, pert))
                den_v = np.abs(p0[None, :] - obj.lam_grid[:, None] * p1[None, :])
                expected = float(np.max(num_v / np.maximum(den_v.min(axis=0), 1e-300)))
                kind = "feasible"
            kinds.add(kind)
            value = obj(v)
            assert value == expected
            assert value == _Objective(*args)(v)
            if obj.best_v is not None:
                assert not np.shares_memory(obj.best_v, obj.grid)
                assert not np.shares_memory(obj.best_v, obj.mag)
                assert not np.shares_memory(obj.best_v, v)
        assert kinds == {"feasible", "unstable", "non-finite"}


@st.composite
def simplex_problems(draw):
    """A weighted quadratic in 1 to 6 variables that reads +inf past a
    half-plane and outside a box around x0, from an x0 with zero entries;
    a small box makes every probe off x0 infeasible, so the search shrinks
    again and again."""
    n = draw(st.integers(1, 6))

    def vector(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    x0 = vector(st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0))
    centre = vector(st.floats(-2.0, 2.0))
    weights = vector(st.floats(0.1, 3.0))
    normal = vector(st.floats(-1.0, 1.0))
    offset = draw(st.floats(-0.5, 3.0))
    reach = draw(st.sampled_from([np.inf, 1.0, 1e-6]))

    def fun(x):
        if x @ normal > offset or np.max(np.abs(x - x0)) > reach:
            return float("inf")
        return float(np.sum(weights * (x - centre) ** 2))

    return fun, x0, draw(st.integers(5, 400))


def recorded(fun):
    """fun, logging each point it is given; it then scribbles on the point,
    which must not reach the simplex, since the search hands out copies."""
    points = []

    def f(x):
        points.append(np.array(x))
        value = fun(x)
        x[:] = np.nan
        return value

    return f, points


# two variables with every probe off x0 infeasible: 3 start evaluations,
# then reflect, contract and 2 shrink evaluations per step, so a budget of
# 4 k + 6 ends between the two shrink evaluations of step k + 1
@example((lambda x: 0.0 if not x.any() else float("inf"), np.zeros(2), 14))
@given(simplex_problems())
def test_nelder_mead_evaluates_scipys_points_bit_for_bit(problem):
    """The in-house search against the installed scipy: the same points,
    in the same order, to the bit, and the same result."""
    from scipy.optimize import minimize as scipy_minimize

    from quadtrack.synthesis import minimize

    fun, x0, budget = problem
    ours, ours_points = recorded(fun)
    theirs, theirs_points = recorded(fun)
    res = minimize(ours, x0, budget, xatol=1e-10, fatol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = scipy_minimize(theirs, x0, method="Nelder-Mead",
                             options={"maxfev": budget, "xatol": 1e-10, "fatol": 1e-12})
    assert len(ours_points) == len(theirs_points) == res.nfev == ref.nfev
    assert all(np.array_equal(a, b) for a, b in zip(ours_points, theirs_points))
    assert np.array_equal(res.x, ref.x) and res.fun == ref.fun


def test_synthesis_replays_scipys_search(monkeypatch):
    """The whole synthesis, with scipy's Nelder-Mead swapped in for the
    in-house one, certifies the same controller to the bit."""
    from scipy.optimize import minimize as scipy_minimize

    from quadtrack import synthesis

    h = ss_to_tf(unstable_model(j=1.85))
    interval = UncertaintyInterval(2.0, 3.3)
    opts = SynthesisOptions(starts=3, max_evals=200, grid_points=9, seed=1)
    ours = controller_to_dict(precompensated_synthesize(h, interval, opts))

    def scipy_search(fun, x0, maxfev, xatol, fatol):
        return scipy_minimize(fun, x0, method="Nelder-Mead",
                              options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})

    monkeypatch.setattr(synthesis, "minimize", scipy_search)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        theirs = controller_to_dict(precompensated_synthesize(h, interval, opts))
    assert ours == theirs
