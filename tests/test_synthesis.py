"""Worst-case controller synthesis tests."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from quadtrack.control_math import chebyshev_grid
from quadtrack.errors import InvalidBounds, NoStabilizingController
from quadtrack.evaluation import robust_cost
from quadtrack.lti import (
    CIRCLE_POINTS,
    StateSpaceSISO,
    TransferFunctionSISO,
    closed_loop_error_tf,
    factor_poles,
    hinf_norm,
    is_internally_stable,
    loop_stable,
    observable_canonical,
    roots_stable,
    ss_to_tf,
)
from quadtrack.synthesis import (
    SynthesisOptions,
    _kalman_start,
    _Objective,
    hinf_synthesize,
    precompensated_synthesize,
)
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
    c = TransferFunctionSISO(npoly.polymul(n_k, f), npoly.polymul(d_u, d_cbar))
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


@REPEATED
def test_precompensated_controller_carries_every_copy_of_a_repeated_factor(d_u):
    """d_u comes from the clusters' centroids, so the synthesized d_c is
    divisible by the configured d_unstable to roundoff, not to the 1e-8 of
    a root that is itself computed only that exactly."""
    h = ss_to_tf(repeated_pole_model(d_u))
    opts = SynthesisOptions(grid_points=5, starts=1, max_evals=100, seed=1)
    ctrl = precompensated_synthesize(h, UncertaintyInterval(1.0, 1.5), opts)
    assert ctrl.tf.degree == 2 * (len(d_u) - 1) + 1  # the default order, deg h + deg d_u
    assert np.max(np.abs(npoly.polydiv(ctrl.tf.den, d_u)[1])) <= 1e-12


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


def reference_objective(obj, v):
    """The objective on the whole circle: |n| / |p0 - lam p1| on every
    (curvature, frequency) cell, its grid maximum, +inf for a non-finite
    vector or a loop unstable anywhere on the grid."""
    n_cbar, d_cbar = obj.split(v)
    base = npoly.polymul(obj.d_u, d_cbar)
    pert = npoly.polymul(obj.p, n_cbar)
    if not (np.isfinite(base).all() and np.isfinite(pert).all()):
        return float("inf")
    if not roots_stable(base, pert, obj.lam_grid).all():
        return float("inf")
    num_v = np.abs(npoly.polyval(CIRCLE_POINTS, npoly.polymul(obj.n_h, d_cbar)))
    p0 = npoly.polyval(CIRCLE_POINTS, npoly.polymul(obj.d_s, base))
    p1 = npoly.polyval(CIRCLE_POINTS, npoly.polymul(obj.d_s, pert))
    den_v = np.abs(p0[None, :] - obj.lam_grid[:, None] * p1[None, :])
    return float(np.max(num_v[None, :] / np.maximum(den_v, 1e-300)))


def objective_args(h, lam_grid):
    """`_Objective`'s arguments for the signal model h at the default order."""
    n_h, d_u, d_s = factor_poles(h)
    p = np.zeros(d_u.size)
    p[-1] = 1.0
    return n_h, d_u, d_s, p, h.degree, lam_grid


def test_objective_divides_by_the_smallest_denominator_bit_for_bit():
    """Division rounds monotonically, so the grid max of num / den equals the
    max of num over the smallest denominator per frequency, bit for bit, on
    feasible and infeasible coefficient vectors alike."""
    rng = np.random.default_rng(11)
    infeasible = 0
    for model, (lo, hi) in [(stable_model(), (1.0, 3.5)), (unstable_model(j=1.85), (2.0, 3.3))]:
        h = ss_to_tf(model)
        obj = _Objective(*objective_args(h, chebyshev_grid(lo, hi, 33)))
        for scale in (0.05, 0.5, 5.0):
            for _ in range(25):
                v = scale * rng.standard_normal(2 * h.degree)
                value = obj(v)
                infeasible += not np.isfinite(value)
                assert value == reference_objective(obj, v)
    assert infeasible > 0


def test_objective_reuses_its_buffers_without_stale_values():
    """One instance, which reuses its powers table, scores a shuffled mix of
    feasible, loop-unstable and non-finite vectors with the values of the
    whole-circle formula and of a fresh instance, so no carried state
    changes a value, and the best vector it keeps is a copy."""
    rng = np.random.default_rng(12)
    for model, (lo, hi) in [(stable_model(), (1.0, 3.5)), (unstable_model(j=1.85), (2.0, 3.3))]:
        h = ss_to_tf(model)
        args = objective_args(h, chebyshev_grid(lo, hi, 9))
        obj = _Objective(*args)
        v0 = _kalman_start(h, args[-1], args[2], args[3], h.degree)
        vs = [v0] + [v0 + 1e-3 * rng.standard_normal(v0.size) for _ in range(3)]
        vs += [s * rng.standard_normal(v0.size) for s in (0.5, 5.0, 5.0)]
        for bad in (np.nan, np.inf, -np.inf):
            v = v0.copy()
            v[rng.integers(v.size)] = bad
            vs.append(v)
        kinds = set()
        for k in rng.permutation(len(vs)):
            v = vs[k]
            expected = reference_objective(obj, v)
            if np.isfinite(expected):
                kinds.add("feasible")
            else:
                kinds.add("non-finite" if not np.isfinite(v).all() else "unstable")
            value = obj(v)
            assert value == expected
            assert value == _Objective(*args)(v)
            if obj.best_v is not None:
                assert not np.shares_memory(obj.best_v, v)
        assert kinds == {"feasible", "unstable", "non-finite"}


@st.composite
def objective_cases(draw):
    """(args, v): `_Objective`'s arguments for a stable or persistent model
    at order 1 to 4 over a grid of 2 to 33 points, and a vector: the filter
    start, a small perturbation of it, or a wide random draw with a stable
    denominator."""
    persistent = draw(st.booleans())
    model = unstable_model(j=1.85) if persistent else stable_model()
    lo, hi = (2.0, 3.3) if persistent else (1.0, 3.5)
    h = ss_to_tf(model)
    n_h, d_u, d_s, p, _, _ = objective_args(h, None)
    q_bar = draw(st.integers(1, 4))
    top = draw(st.sampled_from([hi, lo + 0.3 * (hi - lo)]))
    lam_grid = chebyshev_grid(lo, top, draw(st.integers(2, 33)))
    args = (n_h, d_u, d_s, p, q_bar, lam_grid)
    start = _kalman_start(h, lam_grid, d_s, p, q_bar)
    kind = draw(st.sampled_from(["start", "near", "near", "wide"]))
    if start is None or kind == "wide":
        # any numerator over a denominator with real roots inside 0.9
        n_cbar = draw(st.lists(st.floats(-3.0, 3.0), min_size=q_bar, max_size=q_bar))
        roots = draw(st.lists(st.floats(-0.9, 0.9), min_size=q_bar, max_size=q_bar))
        v = np.concatenate([n_cbar, npoly.polyfromroots(roots)[:q_bar]])
    else:
        step = 0.0 if kind == "start" else draw(st.sampled_from([1e-8, 1e-4, 1e-2]))
        noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=start.size, max_size=start.size))
        v = start + step * np.array(noise)
    return args, v


# an all-pass signal model (z + 0.5) / (0.5 z + 1) with n_cbar = 0: the gain
# is 1 on the whole circle, so every frequency ties for the maximum
ALL_PASS = ((np.array([1.0, 0.5]), np.ones(1), np.array([0.5, 1.0]), np.ones(1), 1,
             chebyshev_grid(1.0, 3.5, 9)), np.array([0.0, 0.3]))
# d_cbar = (z - 0.999)^3 with n_cbar = 0: |p0| at z = 1 is far below the
# budget kappa sum |c_k|, so no frequency has a finite bound
NO_BOUND = (objective_args(ss_to_tf(stable_model()), chebyshev_grid(1.0, 3.5, 9))[:4]
            + (3, chebyshev_grid(1.0, 3.5, 9)),
            np.concatenate([np.zeros(3), npoly.polyfromroots([0.999] * 3)[:3]]))
# a high-gain loop of the sweep-lmax-unstable preset at lambda_max 2.3: the
# bound at the top frequency is loose, so the candidate set must widen
WIDENING = ((np.array([1.765624999999999, -2.2290739215051367, 6.146365392011741,
                       -2.6818516525781386, 1.0]),
             np.array([1.0000000000000322, -1.9318516525781788, 1.0]),
             np.array([0.7656249999999758, -1.749999999999957, 1.0]), np.array([0.0, 0.0, 1.0]), 4,
             chebyshev_grid(1.0, 2.3, 33)),
            np.array([0.07091963130853919, 0.037249944024221326, -0.2961202646594561,
                      -0.11142086105958755, 0.0010314583813043968, -0.15898150605117378,
                      0.783903757076148, 0.019930831320809313]))


@example(ALL_PASS)
@example(NO_BOUND)
@example(WIDENING)
@settings(max_examples=60)
@given(objective_cases())
def test_objective_is_the_whole_circle_value_bit_for_bit(case):
    """The value from the candidate frequencies equals the whole-circle
    formula exactly, +inf included."""
    args, v = case
    assert _Objective(*args)(v) == reference_objective(_Objective(*args), v)


def shrinking_walk(start, signs):
    """start, then steps of 1e-2, 1e-3, ..., 1e-10 along the signs."""
    vs = [start]
    for k in range(2, 11):
        vs.append(vs[-1] + 10.0 ** -k * np.asarray(signs))
    return vs


def alternating(size):
    return np.where(np.arange(size) % 2 == 0, 1.0, -1.0)


@st.composite
def objective_walks(draw):
    """(args, vs): `_Objective`'s arguments as in `objective_cases`, and a
    walk of points for one instance: the filter start (or a wide draw where
    there is none), steps shrinking from 1e-2 to 1e-10, then a mix of
    steps, jumps back near the start, and non-finite and loop-unstable
    vectors, which leave the walk where it was."""
    args, _ = draw(objective_cases())
    n_h, d_u, d_s, p, q_bar, lam_grid = args
    model = unstable_model(j=1.85) if d_u.size > 1 else stable_model()
    start = _kalman_start(ss_to_tf(model), lam_grid, d_s, p, q_bar)
    if start is None:
        n_cbar = draw(st.lists(st.floats(-3.0, 3.0), min_size=q_bar, max_size=q_bar))
        roots = draw(st.lists(st.floats(-0.9, 0.9), min_size=q_bar, max_size=q_bar))
        start = np.concatenate([n_cbar, npoly.polyfromroots(roots)[:q_bar]])

    def direction():
        return np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=start.size,
                                      max_size=start.size)))

    vs = shrinking_walk(start, direction())
    here = vs[-1]
    for move in draw(st.lists(st.sampled_from(["step", "jump", "non-finite", "unstable"]),
                              min_size=4, max_size=16)):
        if move == "step":
            here = here + 10.0 ** -draw(st.integers(2, 10)) * direction()
            vs.append(here)
        elif move == "jump":
            here = start + draw(st.sampled_from([1e-3, 0.1, 1.0])) * direction()
            vs.append(here)
        elif move == "non-finite":
            v = here.copy()
            v[draw(st.integers(0, v.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
            vs.append(v)
        else:
            # n_cbar = 0 and a denominator root at 1.5: unstable at every lam
            d_cbar = npoly.polyfromroots([1.5] + [0.0] * (q_bar - 1))
            vs.append(np.concatenate([np.zeros(q_bar), d_cbar[:q_bar]]))
    return args, vs


@example((ALL_PASS[0], shrinking_walk(ALL_PASS[1], alternating(2))))
@example((NO_BOUND[0], shrinking_walk(NO_BOUND[1], alternating(6))))
@example((WIDENING[0], shrinking_walk(WIDENING[1], alternating(8))))
@settings(max_examples=40, deadline=None)
@given(objective_walks())
def test_objective_walk_keeps_the_whole_circle_value(case):
    """One instance along a walk, which reuses its last screen wherever that
    certifies the point: every value equals the whole-circle formula and a
    fresh instance's, +inf included."""
    args, vs = case
    obj = _Objective(*args)
    for v in vs:
        value = obj(v)
        assert value == reference_objective(obj, v)
        assert value == _Objective(*args)(v)


def test_objective_reuses_its_screen_for_small_steps(monkeypatch):
    """Along the shrinking walk from the filter start the last screen
    certifies the small steps, and a jump sends the point back to a full
    screen; the values stay the whole-circle ones."""
    from quadtrack import synthesis

    outcomes = []
    reuse = synthesis._Objective._reuse

    def counted(self, x):
        val = reuse(self, x)
        outcomes.append(val is not None)
        return val

    monkeypatch.setattr(synthesis._Objective, "_reuse", counted)
    h = ss_to_tf(stable_model())
    args = objective_args(h, chebyshev_grid(1.0, 3.5, 9))
    obj = _Objective(*args)
    start = _kalman_start(h, args[-1], args[2], args[3], h.degree)
    vs = shrinking_walk(start, alternating(start.size)) + [start + 1e-2 * alternating(start.size)]
    for v in vs:
        assert obj(v) == reference_objective(obj, v)
    assert sum(outcomes) >= 4 and outcomes[-1] is False


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
