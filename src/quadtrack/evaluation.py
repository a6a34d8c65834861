"""Closed-loop cost evaluation: analytic, worst-case, and Monte Carlo.

The analytic route sums per-eigenvalue squared H2 norms of the error
transfer function; the worst-case route sweeps a Chebyshev grid of
curvatures and takes the largest peak gain; the empirical route simulates
the closed loop of signal model and tracker against random minimizer
paths.  Infinite cost is an in-band value, not an exception: callers
render it as missing data.

Both empirical entry points, the Monte Carlo cost and the error trace,
go through one kernel.  It builds the joint signal/tracker state-space
system from the realizations, the Hessian and the eigenbasis (never from
a transfer function, so it checks the analytic algebra independently),
and lifts it to blocks of L steps, so each block of errors is two
matrix products.  Reps run in order, each on its own pre-assigned RNG
stream, so the numbers are bit-identical from run to run.
"""

import math
from dataclasses import dataclass

import numpy as np

from .control_math import RngStream, chebyshev_grid
from .errors import InvalidBounds
from .lti import StateSpaceSISO, TransferFunctionSISO, loop_norms, loop_stable, ss_to_tf
from .scenario import QuadraticScenario, draw_noise
from .trackers import UncertaintyInterval, make_kalman_tracker

__all__ = [
    "ErrorTrace",
    "analytic_cost",
    "robust_cost",
    "empirical_cost",
    "error_trace",
    "moving_average",
    "mismatch_curve",
]


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


# Steps per lifted block: L = max(1, _BLOCK_WIDTH // n), so the block
# Toeplitz matrix (L n x L n) is at most 200 kB whenever n <= 160.  Twice
# this width runs no faster on n = 10 and touches about 1.3 MB more of
# the BLAS packing buffers, which shows in the peak RSS.
_BLOCK_WIDTH = 160
# Blocks per matmul chunk, so the per-chunk temporaries stay a few hundred
# kB whatever the horizon.
_CHUNK_BLOCKS = 128


@dataclass
class _LiftedLoop:
    """Closed loop of one tracker on a scenario, lifted to blocks of L steps.

    The joint state z = [vec Xi; vec S] stacks the n signal-model states
    and the n controller states (column-major, one component after the
    other).  One step is e = C z + D w, z+ = Phi z + Gamma w, and a block
    of L steps is e_{0:L} = obs z + markov w_{0:L}, z_L = phi_l z + reach
    w_{0:L}, with the noise and error stacked step after step.
    """

    block: int
    obs: np.ndarray
    markov: np.ndarray
    phi_l: np.ndarray
    reach: np.ndarray


def _lift(scenario: QuadraticScenario, ctrl) -> _LiftedLoop:
    """Build the lifted loop from the realizations alone.

    Uses the signal model (F, G, H, j), the controller (F, G, H), the
    Hessian in the original coordinates and the basis that rotates the
    minimizer, c_k = V c~_k; never the transfer functions, so the Monte
    Carlo route stays an independent check of the analytic one.
    """
    n, model = scenario.n, scenario.model
    eye = np.eye(n)
    m = n * model.order
    # e = x - c = (I x H_c) s - V ((I x H) xi + j w) = c_z z + d_w w
    c_z = np.hstack([-scenario.basis @ np.kron(eye, model.H.reshape(1, -1)),
                     np.kron(eye, ctrl.H.reshape(1, -1))])
    d_w = -model.j * scenario.basis
    # xi+ = (I x F) xi + (I x G) w;  s+ = (I x F_c) s + (I x G_c) A e
    to_ctrl = np.kron(eye, ctrl.G.reshape(-1, 1)) @ scenario.hessian
    size = c_z.shape[1]
    phi = np.zeros((size, size))
    phi[:m, :m] = np.kron(eye, model.F)
    phi[m:, m:] = np.kron(eye, ctrl.F)
    phi[m:] += to_ctrl @ c_z
    gamma = np.vstack([np.kron(eye, model.G.reshape(-1, 1)), to_ctrl @ d_w])

    block = max(1, _BLOCK_WIDTH // n)
    c_pows = [c_z]               # C Phi^k, k = 0 .. L-1
    pow_gammas = [gamma]         # Phi^k Gamma, k = 0 .. L-1
    for _ in range(block - 1):
        c_pows.append(c_pows[-1] @ phi)
        pow_gammas.append(phi @ pow_gammas[-1])
    # block (i, i - k) multiplies w_{i-k} in e_i: D for k = 0, then
    # C Phi^(k-1) Gamma; blocks above the diagonal stay zero
    markov = np.zeros((block * n, block * n))
    tiles = markov.reshape(block, n, block, n)
    rows = np.arange(block)
    for k, tile in enumerate([d_w] + [cp @ gamma for cp in c_pows[:-1]]):
        tiles[rows[k:], :, rows[:block - k], :] = tile
    return _LiftedLoop(block, np.vstack(c_pows), markov,
                       np.linalg.matrix_power(phi, block), np.hstack(pow_gammas[::-1]))


def _squared_errors(loop: _LiftedLoop, noise: np.ndarray, out: np.ndarray) -> None:
    """Write |e_k|^2 into out for the loop driven by noise from a zero state.

    noise holds w_k in row k; the error e_k = x_k - c_k is the one taken
    before the step that consumes the gradient A e_k.  Blocks run in
    chunks of _CHUNK_BLOCKS: one matmul each for the state drive and the
    errors, and a short loop over blocks for the state recursion.
    """
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
            # short final block: the leading rows of the lifted matrices
            tail = w[full:]
            e = loop.obs[:tail.size] @ z + loop.markov[:tail.size, :tail.size] @ tail
            e = e.reshape(-1, n)
            out[step + blocks.shape[0] * loop.block:] = np.einsum("ij,ij->i", e, e)


def empirical_cost(scenario: QuadraticScenario, ctrl, horizon: int,
                   burnin: int, reps: int, rng: RngStream) -> tuple:
    """Monte Carlo steady-state cost: (mean, stderr) across reps.

    Rep r consumes the stream rng.split(r), so reps are independent and
    the result does not depend on execution order.  Each rep simulates
    the closed loop on a fresh minimizer path from a zero joint state and
    time-averages |e_k|^2 over k in [burnin, horizon).
    """
    if not 0 <= burnin < horizon:
        raise InvalidBounds(f"need 0 <= burnin < horizon, got {burnin}, {horizon}")
    if reps < 1:
        raise InvalidBounds("reps must be at least 1")
    loop = _lift(scenario, ctrl)
    row = np.empty(horizon)
    means = []
    for r in range(reps):
        noise = draw_noise(scenario.n, horizon, scenario.sigma, rng.split(r))
        _squared_errors(loop, noise, row)
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
    if not ctrls:
        return []
    noise = draw_noise(scenario.n, horizon, scenario.sigma, rng)
    sq = np.empty((len(ctrls), horizon))
    for row, ctrl in zip(sq, ctrls):
        _squared_errors(_lift(scenario, ctrl), noise, row)
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
