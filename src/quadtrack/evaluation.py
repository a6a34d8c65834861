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
matrix products.  The noise is drawn in chunks of _CHUNK_BLOCKS blocks,
and each chunk drives every tracker's loop, each from its own state,
before the next is drawn; so the trackers of a trace share one path and,
apart from the output, memory does not grow with the horizon.  Reps run
in order, each on its own pre-assigned RNG stream, so the numbers are
bit-identical from run to run.
"""

import math
from dataclasses import dataclass

import numpy as np

from .control_math import RngStream, chebyshev_grid
from .errors import InvalidBounds
from .lti import (
    StateSpaceSISO,
    TransferFunctionSISO,
    loop_h2_stack,
    loop_peaks,
    ss_to_tf,
)
from .scenario import QuadraticScenario, noise_chunks
from .trackers import UncertaintyInterval, make_kalman_tracker

__all__ = [
    "analytic_cost",
    "robust_cost",
    "empirical_cost",
    "error_trace",
    "moving_average",
    "mismatch_curve",
]


def analytic_cost(h: TransferFunctionSISO, c: TransferFunctionSISO,
                  eigs, sigma2: float) -> float:
    """Steady-state mean-square error summed over curvature components.

    Each eigenvalue contributes sigma2 times the squared H2 norm of its
    error transfer function, from the kernel `loop_h2_stack`; a single
    internally unstable loop makes the whole sum +inf.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise InvalidBounds("eigs must be a nonempty 1-D array")
    sigma2 = float(sigma2)
    if sigma2 < 0.0:
        raise InvalidBounds("sigma2 must be nonnegative")
    # left-to-right in eigenvalue order, so the sum is reproducible bit for bit
    total = sum(loop_h2_stack(h, c.den, c.num, eigs)[0].tolist())
    # sigma2 = 0 must not turn an infinite total into 0 * inf = NaN
    return sigma2 * total if math.isfinite(total) else float("inf")


def robust_cost(h: TransferFunctionSISO, c: TransferFunctionSISO,
                interval: UncertaintyInterval, grid_n: int = 33) -> float:
    """Largest peak error gain over a Chebyshev curvature grid.

    The largest of `loop_peaks` over the grid, so +inf as soon as any
    grid point loses internal stability.  With a degenerate interval the
    grid collapses and this is a single peak gain.
    """
    if grid_n < 2:
        raise InvalidBounds("grid_n must be at least 2")
    lams = chebyshev_grid(interval.lambda_min, interval.lambda_max, grid_n)
    return max(loop_peaks(h, c, lams).tolist())


# Steps per lifted block: L = max(1, _BLOCK_WIDTH // n), so the block
# Toeplitz matrix (L n x L n) is at most 200 kB whenever n <= 160.  Twice
# this width runs no faster on n = 10 and touches about 1.3 MB more of
# the BLAS packing buffers, which shows in the peak RSS.
_BLOCK_WIDTH = 160
# Blocks per noise chunk, so the noise and the per-chunk temporaries stay
# a few hundred kB whatever the horizon.
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


def _squared_errors(loop: _LiftedLoop, z: np.ndarray, noise: np.ndarray,
                    out: np.ndarray) -> np.ndarray | None:
    """Write |e_k|^2 of one noise chunk into out; return the state after it.

    z is the joint state before the chunk's first step, noise holds w_k
    in row k, and the error e_k = x_k - c_k is the one taken before the
    step that consumes the gradient A e_k.  One matmul each for the state
    drive and the errors, a short loop over blocks for the state recursion,
    and the leading rows of the lifted matrices for a short final block.
    The state is not advanced through a short final block, so a chunk that
    ends in one returns None: only the last chunk of a path may.
    """
    n = noise.shape[1]
    full = noise.shape[0] - noise.shape[0] % loop.block
    blocks = noise[:full].reshape(-1, loop.block * n)
    starts = np.empty((blocks.shape[0], z.size))
    for b, drive in enumerate(blocks @ loop.reach.T):
        starts[b] = z
        z = loop.phi_l @ z + drive
    e = starts @ loop.obs.T
    e += blocks @ loop.markov.T
    e = e.reshape(-1, n)
    out[:full] = np.einsum("ij,ij->i", e, e)
    if full < noise.shape[0]:
        tail = noise[full:].reshape(-1)
        e = loop.obs[:tail.size] @ z + loop.markov[:tail.size, :tail.size] @ tail
        e = e.reshape(-1, n)
        out[full:] = np.einsum("ij,ij->i", e, e)
        return None
    return z


def empirical_cost(scenario: QuadraticScenario, ctrl, horizon: int,
                   burnin: int, reps: int, rng: RngStream) -> tuple:
    """Monte Carlo steady-state cost: (mean, stderr) across reps.

    Rep r consumes the stream rng.split(r), so reps are independent and
    the result does not depend on execution order.  Each rep simulates
    the closed loop on a fresh minimizer path from a zero joint state and
    time-averages |e_k|^2 over k in [burnin, horizon).  The path is drawn
    and simulated chunk by chunk, so memory does not grow with the horizon.
    """
    if not 0 <= burnin < horizon:
        raise InvalidBounds(f"need 0 <= burnin < horizon, got {burnin}, {horizon}")
    if reps < 1:
        raise InvalidBounds("reps must be at least 1")
    loop = _lift(scenario, ctrl)
    rows = _CHUNK_BLOCKS * loop.block
    # a chunk's squared errors go to buf[1:]; the slot just before the
    # first one summed takes the running sum of the earlier chunks
    buf = np.empty(rows + 1)
    means = []
    for r in range(reps):
        z = np.zeros(loop.phi_l.shape[0])
        acc = 0.0
        lo = 0
        for noise in noise_chunks(scenario.n, horizon, scenario.sigma, rng.split(r), rows):
            size = noise.shape[0]
            z = _squared_errors(loop, z, noise, buf[1:size + 1])
            skip = max(0, burnin - lo)
            if skip < size:
                # strictly left to right, one running sum over the whole
                # path: np.sum pairs the terms up, and from Python 3.12 the
                # builtin sum over floats is compensated
                buf[skip] = acc
                acc = np.cumsum(buf[skip:size + 1])[-1]
            lo += size
        means.append(float(acc) / (horizon - burnin))
    mean = float(np.mean(means))
    if reps == 1:
        return mean, 0.0
    stderr = float(np.std(means, ddof=1) / math.sqrt(reps))
    return mean, stderr


def error_trace(scenario: QuadraticScenario, ctrls, horizon: int,
                rng: RngStream) -> np.ndarray:
    """Run every tracker against one shared minimizer realization.

    Common noise makes the traces directly comparable.  Returns the (len(ctrls),
    horizon) array of per-step error norms |e_k|; no noise is drawn without ctrls.
    Each noise chunk drives every tracker's loop before the next is drawn,
    so besides the output, memory does not grow with the horizon.
    """
    if horizon < 1:
        raise InvalidBounds("horizon must be at least 1")
    sq = np.empty((len(ctrls), horizon))
    if not ctrls:
        return sq
    loops = [_lift(scenario, ctrl) for ctrl in ctrls]
    states = [np.zeros(loop.phi_l.shape[0]) for loop in loops]
    lo = 0
    # every loop has the same block length, as it depends on n only
    rows = _CHUNK_BLOCKS * loops[0].block
    for noise in noise_chunks(scenario.n, horizon, scenario.sigma, rng, rows):
        hi = lo + noise.shape[0]
        for i, loop in enumerate(loops):
            states[i] = _squared_errors(loop, states[i], noise, sq[i, lo:hi])
        lo = hi
    return np.sqrt(sq, out=sq)


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Causal mean over the trailing `window` samples (fewer near the start)."""
    if window < 1:
        raise InvalidBounds("window must be at least 1")
    cs = np.concatenate([[0.0], np.cumsum(values)])
    size = values.size
    head = min(window, size)
    out = np.empty(size)
    # the first `head` means cover every sample so far, the rest `window`
    out[:head] = (cs[1:head + 1] - cs[0]) / np.arange(1, head + 1)
    out[head:] = (cs[head + 1:] - cs[1:size + 1 - head]) / window
    return np.maximum(out, 0.0, out=out)


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
