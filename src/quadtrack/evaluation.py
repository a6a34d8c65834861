"""Closed-loop cost evaluation: analytic, worst-case, and Monte Carlo.

The analytic route sums per-eigenvalue squared H2 norms of the error
transfer function; the worst-case route sweeps a Chebyshev grid of
curvatures and takes the largest peak gain; the empirical route steps the
actual tracker recursion against simulated minimizer paths.  Infinite
cost is an in-band value, not an exception: callers render it as missing
data.

Both empirical entry points, the Monte Carlo cost and the error trace,
go through one kernel that steps each tracker against one simulated
path.  Reps run in order, each on its own pre-assigned RNG stream, so
the numbers are bit-identical from run to run.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .control_math import RngStream, chebyshev_grid
from .errors import InvalidBounds
from .lti import StateSpaceSISO, TransferFunctionSISO, loop_norms, loop_stable, ss_to_tf
from .scenario import QuadraticScenario, simulate_minimizer
from .trackers import UncertaintyInterval, make_kalman_tracker

__all__ = [
    "CostReport",
    "ErrorTrace",
    "analytic_cost",
    "robust_cost",
    "empirical_cost",
    "error_trace",
    "moving_average",
    "mismatch_curve",
]


@dataclass
class CostReport:
    """Bundle of every cost figure for one tracker on one scenario.

    analytic_J is finite exactly when every entry of per_lambda_stable is
    true; robust_Jhat refers to the curvature interval, not the realized
    eigenvalues, so it can be infinite while analytic_J is finite.
    """

    analytic_J: float
    robust_Jhat: float
    empirical_J: float
    empirical_stderr: float
    per_lambda_stable: list = field(default_factory=list)


@dataclass
class ErrorTrace:
    """Per-step error norms; window records any smoothing already applied."""

    values: np.ndarray
    window: int = 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("trace values must be 1-D")
        if np.any(self.values < 0.0):
            raise ValueError("error norms cannot be negative")
        if self.window < 1:
            raise ValueError("window must be at least 1")

    @property
    def horizon(self) -> int:
        return self.values.size


def analytic_cost(h: TransferFunctionSISO, c: TransferFunctionSISO,
                  eigs, sigma2: float) -> float:
    """Steady-state mean-square error summed over curvature components.

    Each eigenvalue contributes sigma2 times the squared H2 norm of its
    error transfer function; a single internally unstable loop makes the
    whole sum +inf.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise InvalidBounds("eigs must be a nonempty 1-D array")
    sigma2 = float(sigma2)
    if sigma2 < 0.0:
        raise InvalidBounds("sigma2 must be nonnegative")
    if not loop_stable(h, c, eigs).all():
        return float("inf")
    # left-to-right in eigenvalue order, so the sum is reproducible bit for bit
    return sigma2 * sum(loop_norms(h, c, eigs)[0].tolist())


def robust_cost(h: TransferFunctionSISO, c: TransferFunctionSISO,
                interval: UncertaintyInterval, grid_n: int = 33) -> float:
    """Largest peak error gain over a Chebyshev curvature grid.

    +inf as soon as any grid point loses internal stability.  With a
    degenerate interval the grid collapses and this is a single peak
    gain.
    """
    if grid_n < 2:
        raise InvalidBounds("grid_n must be at least 2")
    lams = chebyshev_grid(interval.lambda_min, interval.lambda_max, grid_n)
    if not loop_stable(h, c, lams).all():
        return float("inf")
    return max(loop_norms(h, c, lams, peak=True)[1].tolist())


def _squared_errors(scenario: QuadraticScenario, ctrls, horizon: int,
                    rng: RngStream) -> np.ndarray:
    """|e_k|^2 for every tracker (rows) and step k (columns) on one path.

    Draws one minimizer path from rng and runs each tracker's own
    recursion against it from a zero state; the error e_k = x_k - c_k is
    taken before the step that consumes the gradient H e_k.
    """
    traj = simulate_minimizer(scenario.model, scenario.n, horizon,
                              scenario.sigma, rng)
    c_path = traj.values @ scenario.basis.T
    hess = scenario.hessian
    out = np.empty((len(ctrls), horizon))
    for row, ctrl in zip(out, ctrls):
        state = ctrl.initial_state(scenario.n)
        step = ctrl.step
        for k in range(horizon):
            e = state.x - c_path[k]
            row[k] = e @ e
            state = step(state, hess @ e)
    return out


def empirical_cost(scenario: QuadraticScenario, ctrl, horizon: int,
                   burnin: int, reps: int, rng: RngStream) -> tuple:
    """Monte Carlo steady-state cost: (mean, stderr) across reps.

    Rep r consumes the stream rng.split(r), so reps are independent and
    the result does not depend on execution order.  Each rep runs the
    tracker recursion against a fresh minimizer path from a zero model
    state and time-averages |e_k|^2 over k in [burnin, horizon).
    """
    if not 0 <= burnin < horizon:
        raise InvalidBounds(f"need 0 <= burnin < horizon, got {burnin}, {horizon}")
    if reps < 1:
        raise InvalidBounds("reps must be at least 1")
    means = []
    for r in range(reps):
        row = _squared_errors(scenario, [ctrl], horizon, rng.split(r))[0]
        # builtin sum adds left to right; np.sum would pair the terms up
        means.append(float(sum(row[burnin:])) / (horizon - burnin))
    mean = float(np.mean(means))
    if reps == 1:
        return mean, 0.0
    stderr = float(np.std(means, ddof=1) / math.sqrt(reps))
    return mean, stderr


def error_trace(scenario: QuadraticScenario, ctrls, horizon: int,
                rng: RngStream) -> list:
    """Run every tracker against one shared minimizer realization.

    Common noise makes the traces directly comparable; each entry holds
    the raw per-step error norms (window 1).
    """
    if horizon < 1:
        raise InvalidBounds("horizon must be at least 1")
    sq = _squared_errors(scenario, ctrls, horizon, rng)
    return [ErrorTrace(row, window=1) for row in np.sqrt(sq, out=sq)]


def moving_average(trace: ErrorTrace, window: int) -> ErrorTrace:
    """Causal mean over the trailing `window` samples (fewer near the start)."""
    if window < 1:
        raise InvalidBounds("window must be at least 1")
    vals = trace.values
    cs = np.concatenate([[0.0], np.cumsum(vals)])
    k = np.arange(vals.size)
    lo = np.maximum(0, k - window + 1)
    out = (cs[k + 1] - cs[lo]) / (k + 1 - lo)
    return ErrorTrace(np.maximum(out, 0.0), window=window)


def mismatch_curve(model: StateSpaceSISO, sigma2: float, lam: float,
                   ratios) -> list:
    """Cost of the filter tracker tuned at mu = lam / a, per ratio a.

    Returns (a, J(a)) pairs; a = 1 is the matched design and J is +inf
    wherever the mistuned loop loses stability.
    """
    ratios = np.asarray(ratios, dtype=float)
    if ratios.ndim != 1 or ratios.size == 0:
        raise InvalidBounds("ratios must be a nonempty 1-D array")
    if np.any(ratios <= 0.0):
        raise InvalidBounds("ratios must be positive")
    h = ss_to_tf(model)
    out = []
    for a in ratios:
        ctrl = make_kalman_tracker(model, sigma2, float(lam) / float(a))
        out.append((float(a), analytic_cost(h, ctrl.tf, [float(lam)], sigma2)))
    return out
