"""Time-varying quadratic tracking scenarios.

A scenario couples a random curvature matrix A = V diag(spectrum) V^T
with a scalar signal model that generates each component of the moving
minimizer c_k.  All randomness flows through named RngStream indices so
a (seed, parameters) pair pins every draw:

====================  =======================================
stream index          purpose
====================  =======================================
0                     curvature spectrum
1                     orthogonal eigenbasis
100 + r               noise of Monte Carlo repetition r
7000 + s              controller synthesis start s
====================  =======================================
"""

from dataclasses import dataclass

import numpy as np

from .control_math import RngStream, random_orthogonal
from .errors import DimensionMismatch, InvalidBounds, InvalidSpectrum
from .lti import StateSpaceSISO

__all__ = [
    "QuadraticScenario",
    "MinimizerTrajectory",
    "draw_spectrum",
    "draw_noise",
    "noise_chunks",
    "simulate_minimizer",
    "make_scenario",
    "STREAM_SPECTRUM",
    "STREAM_BASIS",
    "STREAM_SIM_BASE",
    "STREAM_SYNTH_BASE",
]

STREAM_SPECTRUM = 0
STREAM_BASIS = 1
STREAM_SIM_BASE = 100
STREAM_SYNTH_BASE = 7000


def draw_spectrum(n: int, lambda_min: float, lambda_max: float,
                  rng: RngStream) -> np.ndarray:
    """n curvature eigenvalues drawn uniformly on [lambda_min, lambda_max]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 < lambda_min <= lambda_max):
        raise InvalidBounds(
            f"need 0 < lambda_min <= lambda_max, got [{lambda_min}, {lambda_max}]"
        )
    return rng.uniform(lambda_min, lambda_max, n)


@dataclass
class MinimizerTrajectory:
    """Sampled minimizer path c_k, one row per step, one column per component."""

    values: np.ndarray


def noise_chunks(n: int, horizon: int, sigma: float, rng: RngStream, rows: int):
    """The (horizon, n) signal-model noise of one minimizer path, in chunks.

    Row k holds w_k: i.i.d. N(0, sigma^2), one entry per component.  The
    chunks hold `rows` rows each, except the last, and come from the
    stream one after the other, so concatenated they are the `draw_noise`
    array bit for bit whatever `rows` is.  Every route that simulates a
    path draws its noise here, so the same stream gives the same path.
    The arguments are checked when the first chunk is drawn.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if rows < 1:
        raise ValueError("rows must be at least 1")
    for lo in range(0, horizon, rows):
        chunk = rng.standard_normal((min(rows, horizon - lo), n))
        chunk *= sigma
        yield chunk


def draw_noise(n: int, horizon: int, sigma: float, rng: RngStream) -> np.ndarray:
    """The whole (horizon, n) noise of one path: `noise_chunks` in one chunk.

    For callers that need every row at once, such as `simulate_minimizer`;
    the Monte Carlo and trace routes draw chunk by chunk, so their memory
    does not grow with the horizon.
    """
    return next(noise_chunks(n, horizon, sigma, rng, horizon))


def simulate_minimizer(model: StateSpaceSISO, n: int, horizon: int, sigma: float,
                       rng: RngStream) -> MinimizerTrajectory:
    """Drive n independent copies of the signal model with white noise.

    Component i follows xi+ = F xi + G w, c = H xi + j w with its own
    i.i.d. N(0, sigma^2) scalar noise; the same draw w_k enters both the
    state update and the output, which is what makes the output
    predictable from its own past.  Initial states are zero.
    The result is bit-reproducible for fixed arguments.
    """
    noise = draw_noise(n, horizon, sigma, rng)
    xi = np.zeros((model.order, n))
    values = np.empty((horizon, n))
    f, g, h, j = model.F, model.G, model.H, model.j
    for k in range(horizon):
        w = noise[k]
        values[k] = h @ xi + j * w
        xi = f @ xi + np.outer(g, w)
    return MinimizerTrajectory(values)


@dataclass
class QuadraticScenario:
    """Frozen experiment instance: curvature, eigenbasis, signal model, seed."""

    n: int
    lambda_min: float
    lambda_max: float
    spectrum: np.ndarray
    basis: np.ndarray
    hessian: np.ndarray
    model: StateSpaceSISO
    sigma: float
    seed: int

    def __post_init__(self):
        if not (0.0 < self.lambda_min <= self.lambda_max):
            raise InvalidBounds(
                f"need 0 < lambda_min <= lambda_max, got [{self.lambda_min}, {self.lambda_max}]"
            )
        if self.spectrum.shape != (self.n,):
            raise DimensionMismatch("spectrum length must equal n")
        if np.any(self.spectrum < self.lambda_min - 1e-12) or np.any(
                self.spectrum > self.lambda_max + 1e-12):
            raise InvalidSpectrum("spectrum leaves [lambda_min, lambda_max]")
        if np.linalg.norm(self.basis.T @ self.basis - np.eye(self.n)) > 1e-10:
            raise ValueError("basis is not orthogonal")
        if np.linalg.norm(self.hessian - self.hessian.T) > 1e-12:
            raise ValueError("hessian is not symmetric")


def make_scenario(n: int, lambda_min: float, lambda_max: float,
                  model: StateSpaceSISO, sigma: float, seed: int) -> QuadraticScenario:
    """Draw the random pieces of a scenario from their dedicated streams."""
    spectrum = draw_spectrum(n, lambda_min, lambda_max, RngStream(seed, STREAM_SPECTRUM))
    basis = random_orthogonal(n, RngStream(seed, STREAM_BASIS))
    a = (basis * spectrum) @ basis.T
    hessian = 0.5 * (a + a.T)
    return QuadraticScenario(n, lambda_min, lambda_max, spectrum, basis,
                             hessian, model, sigma, seed)
