"""Acceptance gate: eleven numbered go/no-go checks at benchmark scale.

One test per criterion, each printing its own "ACCEPTANCE n: PASS/FAIL"
line, so `pytest -v` (or `-s`) yields one verdict per criterion.  The
criteria pin their tolerances and runtime budgets inline; nothing here
is tunable from outside.
"""

import functools
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from quadtrack.control_math import RngStream, chebyshev_grid, solve_dare, spectral_radius
from quadtrack.evaluation import analytic_cost, empirical_cost, mismatch_curve
from quadtrack.lti import (
    StateSpaceSISO,
    TransferFunctionSISO,
    closed_loop_error_tf,
    factor_poles,
    h2_norm_sq_exact,
    h2_norm_sq_freq,
    hinf_norm,
    is_internally_stable,
    observable_canonical,
    ss_to_tf,
    tf_to_ss,
)
from quadtrack.runner import run_preset
from quadtrack.presets import PRESET_NAMES, preset_csv_name
from quadtrack.scenario import STREAM_SIM_BASE, make_scenario, simulate_minimizer
from quadtrack.synthesis import SynthesisOptions, precompensated_synthesize
from quadtrack.trackers import (
    UncertaintyInterval,
    kalman_gain,
    make_gd_tracker,
    make_kalman_tracker,
    mu_star_search,
    tracker_step,
)

SEED = 1
D_U = np.array([1.0, -2.0 * np.cos(np.pi / 12.0), 1.0])


def stable_model(j=0.2):
    char = npoly.polyfromroots([0.975, 0.975])
    f, h = observable_canonical(char)
    return StateSpaceSISO(f, np.ones(2), h, j)


def unstable_model(j=1.0):
    char = npoly.polymul(D_U, npoly.polyfromroots([0.875, 0.875]))
    f, h = observable_canonical(char)
    return StateSpaceSISO(f, np.ones(4), h, j)


def criterion(n):
    """Print the verdict line whether the body passes or raises."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n}: FAIL")
                raise
            print(f"ACCEPTANCE {n}: PASS")
        return run
    return wrap


@pytest.fixture(scope="module")
def stable_scenario():
    return make_scenario(10, 1.0, 3.5, stable_model(), 1.0, seed=SEED)


@pytest.fixture(scope="module")
def mu_star(stable_scenario):
    return mu_star_search(stable_scenario.model, stable_scenario.spectrum)


@pytest.fixture(scope="module")
def unstable_synth():
    h = ss_to_tf(unstable_model())
    opts = SynthesisOptions(starts=4, max_evals=500, seed=SEED)
    return precompensated_synthesize(h, UncertaintyInterval(1.0, 3.3), opts)


@criterion(1)
def test_criterion_01_riccati_solver_on_the_stable_model():
    """Relative residual at most 1e-10, stabilizing gain, under a second."""
    t0 = time.monotonic()
    model = stable_model()
    p = solve_dare(model.F, model.G, model.H, model.j, 1.0)

    # residual evaluated from the defining equation, not solver internals
    ry = float(model.H @ p @ model.H) + model.j ** 2
    k = (model.F @ p @ model.H + model.G * model.j) / ry
    rhs = model.F @ p @ model.F.T + np.outer(model.G, model.G) - ry * np.outer(k, k)
    res = np.linalg.norm(rhs - p, "fro")
    assert res <= 1e-10 * max(1.0, np.linalg.norm(p, "fro"))
    assert spectral_radius(model.F - np.outer(k, model.H)) < 1.0
    assert time.monotonic() - t0 < 1.0


@criterion(2)
def test_criterion_02_norm_oracles_agree():
    """Exact vs frequency-grid H2 over 100 random stable systems, and the
    peak gain dominates the RMS gain every time.  Under ten seconds."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        deg = int(rng.integers(1, 7))
        poles = []
        for _ in range(deg // 2):
            r = rng.uniform(0.05, 0.95)
            th = rng.uniform(0.1, np.pi - 0.1)
            poles.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
        if deg % 2:
            poles.append(complex(rng.uniform(-0.95, 0.95)))
        den = npoly.polyfromroots(np.asarray(poles, dtype=complex)).real
        num = rng.standard_normal(deg)
        w = TransferFunctionSISO(num, den)

        exact = h2_norm_sq_exact(w)
        approx = h2_norm_sq_freq(w, 2 ** 14)
        assert abs(exact - approx) / exact <= 1e-6
        assert exact <= hinf_norm(w) ** 2
    assert time.monotonic() - t0 < 10.0


@criterion(3)
def test_criterion_03_tracker_equals_direct_filter():
    """At nominal tuning the closed loop IS the innovation-form predictor:
    trajectories agree to 1e-12 of the signal scale over 1e4 steps."""
    model = stable_model()
    lam = 2.25
    horizon = 10_000
    traj = simulate_minimizer(model, 1, horizon, 1.0, RngStream(SEED, STREAM_SIM_BASE))
    c_path = traj.values[:, 0]

    ctrl = make_kalman_tracker(model, lam)
    k = kalman_gain(model)
    state = ctrl.initial_state(1)
    xi = np.zeros(2)
    worst = 0.0
    scale = max(1.0, float(np.max(np.abs(c_path))))
    for c in c_path:
        g = lam * (state.x - np.array([c]))
        state, _ = tracker_step(ctrl, state, g)
        xi = model.F @ xi + k * (c - float(model.H @ xi))
        worst = max(worst, abs(state.x[0] - float(model.H @ xi)))
    assert worst <= 1e-12 * scale


@criterion(4)
def test_criterion_04_monte_carlo_confirms_analytic_cost(stable_scenario, mu_star):
    """Tuned filter tracker, T = 2e5, burnin = 1e4, 20 repetitions:
    empirical mean within three standard errors.  Under two minutes."""
    t0 = time.monotonic()
    sc = stable_scenario
    ctrl = make_kalman_tracker(sc.model, mu_star)
    target = analytic_cost(ss_to_tf(sc.model), ctrl.tf, sc.spectrum, 1.0)
    assert np.isfinite(target)
    mean, stderr = empirical_cost(sc, ctrl, 200_000, 10_000, 20,
                                  RngStream(SEED, STREAM_SIM_BASE))
    assert stderr > 0.0
    assert abs(mean - target) <= 3.0 * stderr
    assert time.monotonic() - t0 < 120.0


@criterion(5)
def test_criterion_05_nominal_errors_are_white():
    """e_k is the (negated) filter innovation at mu = lambda, so its
    lag-1..20 autocorrelations over T = 1e5 stay within +-4/sqrt(T)."""
    model = stable_model()
    lam = 2.25
    horizon = 101_000
    traj = simulate_minimizer(model, 1, horizon, 1.0, RngStream(SEED, STREAM_SIM_BASE))
    c_path = traj.values[:, 0]

    ctrl = make_kalman_tracker(model, lam)
    state = ctrl.initial_state(1)
    errs = np.empty(horizon)
    for i, c in enumerate(c_path):
        errs[i] = state.x[0] - c
        state, _ = tracker_step(ctrl, state, lam * (state.x - np.array([c])))

    e = errs[1000:]
    t = e.size
    assert t == 100_000
    e = e - e.mean()
    denom = float(e @ e)
    bound = 4.0 / np.sqrt(t)
    for lag in range(1, 21):
        r = float(e[:-lag] @ e[lag:]) / denom
        assert abs(r) <= bound, f"lag {lag} autocorrelation {r:.5f} out of band"


@criterion(6)
def test_criterion_06_tuned_curvature_is_grid_optimal(stable_scenario, mu_star):
    """J(mu*) within 5% of the best value on a 41-point grid spanning
    [0.8 mu*, 1.25 mu*]."""
    sc = stable_scenario
    h = ss_to_tf(sc.model)
    j_star = analytic_cost(h, make_kalman_tracker(sc.model, mu_star).tf,
                           sc.spectrum, 1.0)
    grid = np.linspace(0.8 * mu_star, 1.25 * mu_star, 41)
    best = min(analytic_cost(h, make_kalman_tracker(sc.model, float(m)).tf,
                             sc.spectrum, 1.0) for m in grid)
    assert j_star <= 1.05 * best


@criterion(7)
def test_criterion_07_mismatch_curve_is_locally_quadratic():
    """J(a) on a in [0.9, 1.1]: quadratic fit in (a - 1) with relative
    residual at most 5%, minimum at the grid point nearest a = 1."""
    curve = mismatch_curve(stable_model(), 1.0, 2.25, np.linspace(0.9, 1.1, 21))
    a = np.array([p[0] for p in curve])
    j = np.array([p[1] for p in curve])
    assert np.all(np.isfinite(j))

    coeffs = np.polyfit(a - 1.0, j, 2)
    resid = np.linalg.norm(j - np.polyval(coeffs, a - 1.0)) / np.linalg.norm(j)
    assert resid <= 0.05
    assert a[np.argmin(j)] == a[np.argmin(np.abs(a - 1.0))]


@criterion(8)
def test_criterion_08_model_based_trackers_beat_gradient_descent(stable_scenario,
                                                                 mu_star):
    """Stable benchmark point (lambda_max 3.5, feedthrough 0.2): both
    model-based trackers cut the RMS error to at most 0.9x the gradient
    baseline.  Synthesis dominates the budget, under five minutes."""
    t0 = time.monotonic()
    sc = stable_scenario
    h = ss_to_tf(sc.model)

    gd = make_gd_tracker(1.0 / sc.lambda_max)
    kalman = make_kalman_tracker(sc.model, mu_star)
    opts = SynthesisOptions(starts=4, max_evals=500, seed=SEED)
    hinf = precompensated_synthesize(h, UncertaintyInterval(1.0, 3.5), opts)

    sqrt_gd = np.sqrt(analytic_cost(h, gd.tf, sc.spectrum, 1.0))
    sqrt_kalman = np.sqrt(analytic_cost(h, kalman.tf, sc.spectrum, 1.0))
    sqrt_hinf = np.sqrt(analytic_cost(h, hinf.tf, sc.spectrum, 1.0))

    assert np.isfinite(sqrt_gd)
    assert sqrt_kalman <= 0.9 * sqrt_gd
    assert sqrt_hinf <= 0.9 * sqrt_gd
    assert time.monotonic() - t0 < 300.0


@criterion(9)
def test_criterion_09_persistent_model_separates_the_trackers(unstable_synth):
    """Resonant signal model on [1, 3.3]: gradient descent diverges, the
    per-point nominally tuned filter tracker and the synthesized
    precompensated tracker are stable with finite cost across the whole
    33-point curvature grid."""
    model = unstable_model()
    h = ss_to_tf(model)
    grid = chebyshev_grid(1.0, 3.3, 33)

    gd = make_gd_tracker(1.0 / 3.3)
    assert analytic_cost(h, gd.tf, grid, 1.0) == float("inf")

    # filter tracker tuned at each grid curvature in turn: its stability
    # window moves with mu, and the matched point is always inside it
    kalman_total = 0.0
    for lam in grid:
        ctrl = make_kalman_tracker(model, float(lam))
        assert is_internally_stable(h, ctrl.tf, float(lam))
        kalman_total += h2_norm_sq_exact(closed_loop_error_tf(h, ctrl.tf, float(lam)))
    assert np.isfinite(kalman_total)

    for lam in grid:
        assert is_internally_stable(h, unstable_synth.tf, float(lam))
    assert np.isfinite(analytic_cost(h, unstable_synth.tf, grid, 1.0))


@criterion(10)
def test_criterion_10_precompensation_changes_nothing(unstable_synth):
    """Assembling the loop directly or through the factored structure
    gives the same map at 512 circle points, to relative 1e-8."""
    h = ss_to_tf(unstable_model())
    c = unstable_synth.tf
    n_h, d_u, d_s = factor_poles(h)
    n_u = d_u.size - 1
    p = np.zeros(n_u + 1)
    p[-1] = 1.0

    # pull the factored pieces back out of the shipped controller
    cbar_num, rem_n = npoly.polydiv(c.num, p)
    cbar_den, rem_d = npoly.polydiv(c.den, d_u)
    assert np.max(np.abs(rem_n)) <= 1e-8 * max(1.0, np.max(np.abs(c.num)))
    assert np.max(np.abs(rem_d)) <= 1e-8 * max(1.0, np.max(np.abs(c.den)))

    z = np.exp(2j * np.pi * np.arange(512) / 512.0)
    pre = npoly.polyval(z, p) / npoly.polyval(z, d_u)
    cbar = npoly.polyval(z, cbar_num) / npoly.polyval(z, cbar_den)
    hbar = npoly.polyval(z, n_h) / (npoly.polyval(z, p) * npoly.polyval(z, d_s))

    assert np.allclose(pre * cbar, c(z), rtol=1e-8, atol=1e-12)
    for lam in (1.0, 2.15, 3.3):
        direct = -h(z) / (1.0 - lam * c(z))
        factored = -hbar * pre / (1.0 - lam * pre * cbar)
        assert np.max(np.abs(direct - factored) / np.abs(direct)) <= 1e-8


@criterion(11)
def test_criterion_11_presets_are_byte_reproducible(tmp_path):
    """Every preset, run twice with the same seed, writes identical bytes."""
    for name in PRESET_NAMES:
        first = run_preset(name, str(tmp_path / "one" / name), SEED)
        second = run_preset(name, str(tmp_path / "two" / name), SEED)
        assert len(first) == len(second) == 2
        csv = preset_csv_name(name)
        for fname in (csv, csv.replace(".csv", ".meta.json")):
            a = (tmp_path / "one" / name / fname).read_bytes()
            b = (tmp_path / "two" / name / fname).read_bytes()
            assert a == b, f"{name}/{fname} differs between runs"
