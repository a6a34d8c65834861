"""Cost evaluation tests: analytic, worst-case, Monte Carlo, traces."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from quadtrack.control_math import RngStream
from quadtrack.errors import InvalidBounds
from quadtrack.evaluation import (
    _BLOCK_WIDTH,
    _CHUNK_BLOCKS,
    _lift,
    analytic_cost,
    empirical_cost,
    error_trace,
    mismatch_curve,
    moving_average,
    robust_cost,
)
from quadtrack.lti import (
    StateSpaceSISO,
    TransferFunctionSISO,
    circle_angles,
    closed_loop_error_tf,
    hinf_norm,
    loop_stable,
    observable_canonical,
    ss_to_tf,
)
from quadtrack.scenario import STREAM_SIM_BASE, draw_noise, make_scenario, simulate_minimizer
from quadtrack.trackers import (
    UncertaintyInterval,
    make_gd_tracker,
    make_kalman_tracker,
    tracker_step,
)


def stable_model(j=0.2):
    char = npoly.polyfromroots([0.975, 0.975])
    f, h = observable_canonical(char)
    return StateSpaceSISO(f, np.ones(2), h, j)


# ---------------------------------------------------------------- analytic


def test_analytic_cost_matches_frequency_integral():
    """Independent oracle: average |h / (1 - lam c)|^2 over a fine circle
    grid, assembled from raw polynomial evaluations."""
    h = TransferFunctionSISO([1.0], [-0.5, 1.0])
    c = TransferFunctionSISO([-0.2], [0.1, 1.0])
    eigs = np.array([0.8, 1.7])
    sigma2 = 1.3
    cost = analytic_cost(h, c, eigs, sigma2)

    z = np.exp(1j * circle_angles(2 ** 14))
    total = 0.0
    for lam in eigs:
        w = h(z) / (1.0 - lam * c(z))
        total += float(np.mean(np.abs(w) ** 2))
    assert cost == pytest.approx(sigma2 * total, rel=1e-6)


def test_analytic_cost_is_additive_over_eigenvalues():
    model = stable_model()
    h = ss_to_tf(model)
    c = make_kalman_tracker(model, 2.3).tf
    j12 = analytic_cost(h, c, [1.6, 2.4], 1.0)
    j1 = analytic_cost(h, c, [1.6], 1.0)
    j2 = analytic_cost(h, c, [2.4], 1.0)
    assert j12 == pytest.approx(j1 + j2, rel=1e-12)


def test_analytic_cost_infinite_when_any_loop_unstable():
    h = TransferFunctionSISO([1.0], [-0.5, 1.0])
    gd = make_gd_tracker(1.0)
    # alpha * lam > 2 pushes the integrator loop root below -1
    assert np.isfinite(analytic_cost(h, gd.tf, [0.5], 1.0))
    assert analytic_cost(h, gd.tf, [0.5, 3.0], 1.0) == float("inf")


def test_analytic_cost_validates_inputs():
    h = TransferFunctionSISO([1.0], [-0.5, 1.0])
    c = TransferFunctionSISO([-0.1], [0.0, 1.0])
    with pytest.raises(InvalidBounds):
        analytic_cost(h, c, [], 1.0)
    with pytest.raises(InvalidBounds):
        analytic_cost(h, c, [1.0], -1.0)


def test_cost_depends_only_on_the_tuning_ratio():
    """Scaling curvature and tuning together leaves the cost unchanged:
    the loop sees only lam / mu."""
    model = stable_model()
    h = ss_to_tf(model)
    lam, mu = 2.0, 2.2
    base = analytic_cost(h, make_kalman_tracker(model, mu).tf, [lam], 1.0)
    for t in (0.5, 2.0):
        scaled = analytic_cost(h, make_kalman_tracker(model, t * mu).tf,
                               [t * lam], 1.0)
        assert scaled == pytest.approx(base, rel=1e-9)


# ------------------------------------------------------------------ robust


def test_robust_cost_degenerate_interval_is_single_peak():
    model = stable_model()
    h = ss_to_tf(model)
    c = make_kalman_tracker(model, 4.0).tf
    got = robust_cost(h, c, UncertaintyInterval(3.0, 3.0))
    direct = hinf_norm(closed_loop_error_tf(h, c, 3.0))
    assert got == pytest.approx(direct, rel=1e-9)


def test_robust_cost_monotone_in_the_interval():
    model = stable_model()
    h = ss_to_tf(model)
    c = make_kalman_tracker(model, 4.0).tf
    inner = robust_cost(h, c, UncertaintyInterval(3.0, 3.5))
    outer = robust_cost(h, c, UncertaintyInterval(2.6, 4.4))
    assert np.isfinite(outer)
    assert inner <= outer + 1e-6


def test_robust_cost_infinite_past_the_gain_margin():
    model = stable_model()
    h = ss_to_tf(model)
    c = make_kalman_tracker(model, 2.0).tf
    # lam / mu reaches 2.2 at the top of the interval, beyond the margin
    assert robust_cost(h, c, UncertaintyInterval(1.0, 4.4)) == float("inf")


def test_robust_cost_validates_grid():
    model = stable_model()
    h = ss_to_tf(model)
    c = make_kalman_tracker(model, 4.0).tf
    with pytest.raises(InvalidBounds):
        robust_cost(h, c, UncertaintyInterval(1.0, 2.0), grid_n=1)


def test_per_lambda_stability_flags():
    h = TransferFunctionSISO([1.0], [-0.5, 1.0])
    gd = make_gd_tracker(1.0)
    assert loop_stable(h, gd.tf, [0.5, 1.5, 3.0]).tolist() == [True, True, False]


# ------------------------------------------------------------- Monte Carlo


def test_empirical_cost_agrees_with_analytic():
    model = stable_model()
    sc = make_scenario(2, 1.5, 2.5, model, 1.0, seed=3)
    ctrl = make_kalman_tracker(model, 2.3)
    target = analytic_cost(ss_to_tf(model), ctrl.tf, sc.spectrum, 1.0)
    mean, stderr = empirical_cost(sc, ctrl, 20000, 2000, 8,
                                  RngStream(3, STREAM_SIM_BASE))
    assert stderr > 0.0
    assert abs(mean - target) <= 4.0 * stderr


def test_empirical_cost_single_rep_has_zero_stderr():
    model = stable_model()
    sc = make_scenario(1, 2.0, 2.0, model, 1.0, seed=0)
    ctrl = make_kalman_tracker(model, 2.0)
    mean, stderr = empirical_cost(sc, ctrl, 2000, 100, 1, RngStream(0, STREAM_SIM_BASE))
    assert np.isfinite(mean) and mean > 0.0
    assert stderr == 0.0


def test_empirical_cost_validates_window():
    model = stable_model()
    sc = make_scenario(1, 2.0, 2.0, model, 1.0, seed=0)
    ctrl = make_kalman_tracker(model, 2.0)
    with pytest.raises(InvalidBounds):
        empirical_cost(sc, ctrl, 100, 100, 2, RngStream(0, 100))
    with pytest.raises(InvalidBounds):
        empirical_cost(sc, ctrl, 100, 10, 0, RngStream(0, 100))


def reference_squared_errors(sc, ctrl, horizon, rng):
    """|e_k|^2 from a loop over the validated tracker_step, on the same path."""
    path = simulate_minimizer(sc.model, sc.n, horizon, sc.sigma, rng).values @ sc.basis.T
    state = ctrl.initial_state(sc.n)
    out = []
    for k in range(horizon):
        e = state.x - path[k]
        out.append(float(e @ e))
        state, _ = tracker_step(ctrl, state, sc.hessian @ e)
    return out


def persistent_model(j=1.0):
    """Resonant pair on the unit circle times a stable double pole."""
    d_u = np.array([1.0, -2.0 * np.cos(np.pi / 12.0), 1.0])
    f, h = observable_canonical(npoly.polymul(d_u, npoly.polyfromroots([0.875, 0.875])))
    return StateSpaceSISO(f, np.ones(4), h, j)


def block_length(n):
    return max(1, _BLOCK_WIDTH // n)


def sim_rng():
    # a stream advances as it draws, so every run gets a fresh one
    return RngStream(5, STREAM_SIM_BASE)


def test_error_kernel_matches_a_tracker_step_loop_to_roundoff():
    """The lifted kernel reorders the arithmetic of the step loop, so it
    agrees to roundoff, not bit for bit: |e_k|^2 within 1e-10 of the
    largest reference value and the Monte Carlo mean within 1e-12
    relative.  The horizons cover a path shorter than one block, one
    block exactly, and a short final block after several full ones."""
    model = stable_model()
    sc = make_scenario(2, 1.5, 2.5, model, 1.0, seed=5)
    ctrls = [make_gd_tracker(0.4), make_kalman_tracker(model, 2.3)]
    size = block_length(sc.n)
    for horizon in (400, 1, size - 1, size, size + 1, 3 * size + 5):
        burnin = horizon // 10
        traces = error_trace(sc, ctrls, horizon, sim_rng())
        for ctrl, trace in zip(ctrls, traces):
            ref = np.array(reference_squared_errors(sc, ctrl, horizon, sim_rng()))
            assert np.max(np.abs(trace ** 2 - ref)) <= 1e-10 * np.max(ref)

            # a single rep draws its path from stream split 0
            ref = reference_squared_errors(sc, ctrl, horizon, sim_rng().split(0))
            acc = 0.0
            for v in ref[burnin:]:
                acc += v
            mean, _ = empirical_cost(sc, ctrl, horizon, burnin, 1, sim_rng())
            assert mean == pytest.approx(acc / (horizon - burnin), rel=1e-12)


def test_error_kernel_tracks_a_persistent_model_to_roundoff():
    """On the persistent model the signal state grows without bound, and
    the filter tracker carries the same undamped modes.  Roundoff then
    grows with the path, so the bound scales with its peak |c_k|^2."""
    model = persistent_model()
    sc = make_scenario(3, 2.0, 2.3, model, 1.0, seed=1)
    ctrl = make_kalman_tracker(model, 2.15)
    assert loop_stable(ss_to_tf(model), ctrl.tf, sc.spectrum).all()
    horizon = 2000
    path = simulate_minimizer(model, sc.n, horizon, sc.sigma, sim_rng()).values
    peak = float(np.max(np.sum(path ** 2, axis=1)))
    ref = np.array(reference_squared_errors(sc, ctrl, horizon, sim_rng()))
    got = error_trace(sc, [ctrl], horizon, sim_rng())[0] ** 2
    assert np.max(np.abs(got - ref)) <= 1e-13 * peak


def test_monte_carlo_never_reads_the_transfer_function():
    """A wrong transfer function on the controller changes no bit of the
    Monte Carlo route: it simulates the realization only."""
    model = stable_model()
    sc = make_scenario(2, 1.5, 2.5, model, 1.0, seed=5)
    ctrl = make_kalman_tracker(model, 2.3)
    wrong = dataclasses.replace(ctrl, tf=TransferFunctionSISO([0.7], [0.5, 1.0]))
    assert empirical_cost(sc, ctrl, 700, 70, 2, sim_rng()) == \
        empirical_cost(sc, wrong, 700, 70, 2, sim_rng())
    right, = error_trace(sc, [ctrl], 700, sim_rng())
    swapped, = error_trace(sc, [wrong], 700, sim_rng())
    assert np.array_equal(right, swapped)


def test_empirical_cost_reps_are_independent_single_rep_runs():
    """Rep r of a three-rep run is the one-rep run on stream split r, bit
    for bit, and the mean and stderr are built from those three."""
    model = stable_model()
    sc = make_scenario(2, 1.5, 2.5, model, 1.0, seed=5)
    ctrl = make_kalman_tracker(model, 2.3)
    means = [empirical_cost(sc, ctrl, 500, 50, 1, sim_rng().split(r))[0] for r in range(3)]
    mean, stderr = empirical_cost(sc, ctrl, 500, 50, 3, sim_rng())
    assert mean == float(np.mean(means))
    assert stderr == float(np.std(means, ddof=1) / math.sqrt(3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_simulation_reads_inf_in_band():
    """At mu = 2.3 the filter loop is unstable at 3 of these 10 curvatures
    and its path overflows within the horizon: the cost reads (inf, 0.0),
    the runner's pair for a loop it does not simulate, not NaN, and no
    overflow warning escapes."""
    model = stable_model()
    sc = make_scenario(10, 1.0, 3.5, model, 1.0, seed=1)
    ctrl = make_kalman_tracker(model, 2.3)
    assert loop_stable(ss_to_tf(model), ctrl.tf, sc.spectrum).sum() == 7
    assert empirical_cost(sc, ctrl, 3000, 100, 2, sim_rng()) == (math.inf, 0.0)


def test_error_trace_without_trackers_draws_nothing():
    sc = make_scenario(2, 1.5, 2.5, stable_model(), 1.0, seed=5)
    rng = sim_rng()
    assert error_trace(sc, [], 100, rng).shape == (0, 100)
    assert np.array_equal(rng.standard_normal(4), sim_rng().standard_normal(4))


def oneshot_squared_errors(loop, noise, out):
    """The error kernel as it was before the noise came in chunks: the
    whole path drawn first, then the blocks run in _CHUNK_BLOCKS groups."""
    n = noise.shape[1]
    width = loop.block * n
    flat = noise.reshape(-1)
    z = np.zeros(loop.phi_l.shape[0])
    for lo in range(0, flat.size, _CHUNK_BLOCKS * width):
        w = flat[lo:lo + _CHUNK_BLOCKS * width]
        full = w.size - w.size % width
        blocks = w[:full].reshape(-1, width)
        starts = np.empty((blocks.shape[0], z.size))
        for b, drive in enumerate(blocks @ loop.reach.T):
            starts[b] = z
            z = loop.phi_l @ z + drive
        e = starts @ loop.obs.T
        e += blocks @ loop.markov.T
        e = e.reshape(-1, n)
        step = lo // n
        out[step:step + e.shape[0]] = np.einsum("ij,ij->i", e, e)
        if full < w.size:
            tail = w[full:]
            e = loop.obs[:tail.size] @ z + loop.markov[:tail.size, :tail.size] @ tail
            e = e.reshape(-1, n)
            out[step + blocks.shape[0] * loop.block:] = np.einsum("ij,ij->i", e, e)


def oneshot_empirical_cost(sc, ctrl, horizon, burnin, reps, rng):
    """The Monte Carlo cost as it was before the noise came in chunks."""
    loop = _lift(sc, ctrl)
    row = np.empty(horizon)
    means = []
    for r in range(reps):
        oneshot_squared_errors(loop, draw_noise(sc.n, horizon, sc.sigma, rng.split(r)), row)
        means.append(float(sum(row[burnin:])) / (horizon - burnin))
    mean = float(np.mean(means))
    if reps == 1:
        return mean, 0.0
    return mean, float(np.std(means, ddof=1) / math.sqrt(reps))


def chunk_rows(n):
    return _CHUNK_BLOCKS * block_length(n)


@pytest.mark.parametrize("n", [3, 10])
def test_chunked_kernel_keeps_the_bits_of_the_one_shot_kernel(n):
    """Drawing the noise chunk by chunk, one chunk shared by every tracker,
    changes no bit of the traces or the Monte Carlo cost.  The horizons
    end inside the first block, on block and chunk edges and past them;
    the burn-ins start before, on and after a chunk edge."""
    model = stable_model()
    sc = make_scenario(n, 1.5, 2.5, model, 0.7, seed=3)
    ctrls = [make_gd_tracker(0.4), make_kalman_tracker(model, 2.5),
             make_kalman_tracker(model, 2.3)]
    assert all(loop_stable(ss_to_tf(model), c.tf, sc.spectrum).all() for c in ctrls)
    block, rows = block_length(n), chunk_rows(n)
    for horizon in (1, block - 1, block, rows - 1, rows, rows + 1, 2 * rows + block + 3):
        if horizon < 1:
            continue
        noise = draw_noise(n, horizon, sc.sigma, sim_rng())
        want = np.empty((len(ctrls), horizon))
        for row, ctrl in zip(want, ctrls):
            oneshot_squared_errors(_lift(sc, ctrl), noise, row)
        np.sqrt(want, out=want)
        for count in (1, 2, 3):
            got = error_trace(sc, ctrls[:count], horizon, sim_rng())
            assert np.array_equal(got, want[:count])
        for burnin in {0, min(rows - 1, horizon - 1), min(rows + 5, horizon - 1),
                       horizon // 2, horizon - 1}:
            for reps in (1, 2):
                assert empirical_cost(sc, ctrls[1], horizon, burnin, reps, sim_rng()) == \
                    oneshot_empirical_cost(sc, ctrls[1], horizon, burnin, reps, sim_rng())


def traced_peak(fn):
    """Peak bytes tracemalloc sees while fn runs (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulation_memory_does_not_grow_with_the_horizon():
    """Apart from the trace it returns, the peak memory of a run at 32
    chunks is that of a run at 4 chunks, within 256 kB; the whole noise
    path at 32 chunks would be 5 MB."""
    model = stable_model()
    sc = make_scenario(10, 1.5, 2.5, model, 1.0, seed=5)
    ctrls = [make_gd_tracker(0.4), make_kalman_tracker(model, 2.3)]
    trace_extra, cost_peak = [], []
    for horizon in (4 * chunk_rows(sc.n), 32 * chunk_rows(sc.n)):
        trace_extra.append(traced_peak(lambda: error_trace(sc, ctrls, horizon, sim_rng()))
                           - 8 * len(ctrls) * horizon)
        cost_peak.append(traced_peak(
            lambda: empirical_cost(sc, ctrls[1], horizon, 100, 2, sim_rng())))
    assert abs(trace_extra[1] - trace_extra[0]) <= 256 * 1024
    assert abs(cost_peak[1] - cost_peak[0]) <= 256 * 1024


@st.composite
def stable_models(draw):
    """A random stable signal model with input weights and feedthrough."""
    roots = [draw(st.floats(-0.95, 0.95))]
    if draw(st.booleans()):
        r = draw(st.floats(0.05, 0.95))
        th = draw(st.floats(0.1, np.pi - 0.1))
        roots += [r * np.exp(1j * th), r * np.exp(-1j * th)]
    f, h = observable_canonical(npoly.polyfromroots(np.asarray(roots, dtype=complex)).real)
    g = np.array(draw(st.lists(st.floats(0.2, 2.0), min_size=len(roots),
                               max_size=len(roots))))
    return StateSpaceSISO(f, g, h, draw(st.floats(-1.0, 1.0)))


@pytest.mark.parametrize("kind", ["gd", "kalman"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(max_examples=8)
@given(model=stable_models(), lo=st.floats(0.5, 3.0), spread=st.floats(1.0, 1.3),
       sigma=st.floats(0.1, 2.0), seed=st.integers(0, 2 ** 16),
       alpha=st.floats(0.05, 1.9), blocks=st.integers(0, 2), offset=st.integers(0, 1000))
def test_error_kernel_matches_the_step_loop_on_random_stable_loops(
        n, kind, model, lo, spread, sigma, seed, alpha, blocks, offset):
    """Within roundoff of the step loop on random stable loops, for horizons
    from one step to two blocks plus a tail."""
    sc = make_scenario(n, lo, lo * spread, model, sigma, seed)
    if kind == "gd":
        ctrl = make_gd_tracker(alpha / sc.lambda_max)
    else:
        ctrl = make_kalman_tracker(model, 0.5 * (sc.lambda_min + sc.lambda_max))
    assume(loop_stable(ss_to_tf(model), ctrl.tf, sc.spectrum).all())
    size = block_length(n)
    horizon = blocks * size + offset % size + 1
    ref = np.array(reference_squared_errors(sc, ctrl, horizon, sim_rng()))
    got = error_trace(sc, [ctrl], horizon, sim_rng())[0] ** 2
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(ref)


# ------------------------------------------------------------------ traces


def test_error_trace_runs_all_trackers_on_shared_noise():
    model = stable_model()
    sc = make_scenario(2, 1.5, 2.5, model, 1.0, seed=11)
    ctrls = [make_gd_tracker(0.4), make_kalman_tracker(model, 2.3)]
    traces = error_trace(sc, ctrls, 500, RngStream(11, STREAM_SIM_BASE))
    assert traces.shape == (2, 500)
    assert np.all(traces >= 0.0)
    again = error_trace(sc, ctrls, 500, RngStream(11, STREAM_SIM_BASE))
    assert np.array_equal(traces, again)


def test_moving_average_trailing_window():
    tr = np.array([0.0, 1.0, 2.0, 3.0])
    assert np.allclose(moving_average(tr, 2), [0.0, 0.5, 1.5, 2.5])
    assert np.array_equal(moving_average(tr, 1), tr)


def gathered_moving_average(values, window):
    """The moving average as it was first written: gathered indices."""
    cs = np.concatenate([[0.0], np.cumsum(values)])
    k = np.arange(values.size)
    lo = np.maximum(0, k - window + 1)
    out = (cs[k + 1] - cs[lo]) / (k + 1 - lo)
    return np.maximum(out, 0.0)


def test_moving_average_keeps_the_bits_of_the_gathered_formula():
    rng = np.random.default_rng(17)
    cases = [(0, 1), (0, 5), (1, 1), (1, 4), (7, 1), (7, 7), (7, 8), (7, 50)]
    cases += [(int(rng.integers(1, 3000)), int(rng.integers(1, 400))) for _ in range(200)]
    for size, window in cases:
        # a nonnegative trace and one whose cumulative sums cancel
        for values in (rng.exponential(size=size), rng.standard_normal(size)):
            got = moving_average(values, window)
            assert got.shape == (size,)
            assert np.array_equal(got, gathered_moving_average(values, window))


def test_moving_average_window_longer_than_trace():
    assert np.allclose(moving_average(np.array([2.0, 4.0]), 10), [2.0, 3.0])


def test_moving_average_rejects_a_zero_window():
    with pytest.raises(InvalidBounds):
        moving_average(np.ones(3), 0)


# ---------------------------------------------------------------- mismatch


def test_mismatch_curve_bottoms_out_at_matched_tuning():
    model = stable_model()
    curve = mismatch_curve(model, 1.0, 2.25, np.linspace(0.9, 1.1, 21))
    a_vals = np.array([a for a, _ in curve])
    j_vals = np.array([j for _, j in curve])
    assert np.all(np.isfinite(j_vals))
    assert a_vals[np.argmin(j_vals)] == pytest.approx(1.0)


def test_mismatch_curve_validates_ratios():
    model = stable_model()
    with pytest.raises(InvalidBounds):
        mismatch_curve(model, 1.0, 2.0, [])
    with pytest.raises(InvalidBounds):
        mismatch_curve(model, 1.0, 2.0, [0.9, -1.0])


def test_kalman_tuning_is_grid_optimal_at_the_true_curvature():
    """Sweeping mu across [lam/2, 2 lam], the cost is smallest at the grid
    point closest to mu = lam."""
    model = stable_model()
    h = ss_to_tf(model)
    lam = 2.25
    grid = np.linspace(0.5 * lam, 2.0 * lam, 41)
    costs = [analytic_cost(h, make_kalman_tracker(model, float(mu)).tf,
                           [lam], 1.0) for mu in grid]
    assert int(np.argmin(costs)) == int(np.argmin(np.abs(grid - lam)))
