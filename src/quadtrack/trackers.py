"""Online trackers: gradient descent, steady-state filter feedback, tuning rules.

Every tracker is a strictly proper scalar controller applied component-wise:
the n-dimensional update is n copies of the same SISO recursion driven by
the corresponding gradient component.  The controller consumes g_k and
emits the next query point, so the interconnection with the gradient
oracle is well posed.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import minimize_scalar

from .control_math import solve_dare
from .errors import (
    DimensionMismatch,
    InvalidBounds,
    InvalidDensity,
    InvalidSpectrum,
    NoStabilizingController,
)
from .lti import StateSpaceSISO, TransferFunctionSISO, loop_norms, loop_stable, ss_to_tf, tf_to_ss

__all__ = [
    "UncertaintyInterval",
    "TrackerController",
    "TrackerState",
    "kalman_gain",
    "mu_star_from_eigs",
    "mu_star_uniform",
    "mu_star_from_density",
    "mu_star_search",
    "make_kalman_tracker",
    "make_gd_tracker",
    "tracker_step",
    "factor_poles",
    "controller_to_dict",
    "controller_from_dict",
]

KIND_GD = "GradientDescent"
KIND_KALMAN = "Kalman"
KIND_HINF = "HInf"


@dataclass(frozen=True)
class UncertaintyInterval:
    """Curvature range [lambda_min, lambda_max], both endpoints positive."""

    lambda_min: float
    lambda_max: float

    def __post_init__(self):
        if not (0.0 < self.lambda_min <= self.lambda_max):
            raise InvalidBounds(
                f"need 0 < lambda_min <= lambda_max, got "
                f"[{self.lambda_min}, {self.lambda_max}]"
            )

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lambda_min + self.lambda_max)

    @property
    def half_range(self) -> float:
        return 0.5 * (self.lambda_max - self.lambda_min)

    def at(self, delta: float) -> float:
        """Map delta in [-1, 1] to midpoint + half_range * delta."""
        return self.midpoint + self.half_range * delta


@dataclass
class TrackerState:
    """Per-component controller states (one column each) plus current output."""

    states: np.ndarray
    x: np.ndarray


@dataclass
class TrackerController:
    """Strictly proper scalar controller with its realization and metadata."""

    kind: str
    tf: TransferFunctionSISO
    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    alpha: float | None = None
    mu: float | None = None
    gamma: float | None = None
    lambda_grid: np.ndarray | None = None

    @property
    def order(self) -> int:
        return self.F.shape[0]

    def initial_state(self, n: int) -> TrackerState:
        return TrackerState(np.zeros((self.order, n)), np.zeros(n))

    def step(self, state: TrackerState, g: np.ndarray) -> TrackerState:
        """Unvalidated single step; `tracker_step` is the validated form."""
        new_states = self.F @ state.states + np.outer(self.G, g)
        return TrackerState(new_states, self.H @ new_states)


def tracker_step(ctrl: TrackerController, state: TrackerState,
                 g: np.ndarray) -> tuple[TrackerState, np.ndarray]:
    """Advance every component one step on gradient input g.

    Returns the new state and the output that produced g, i.e. the value
    H xi before the update; strict properness means the fresh gradient
    only affects the output from the next step on.
    """
    g = np.asarray(g, dtype=float)
    n = state.states.shape[1]
    if g.shape != (n,):
        raise DimensionMismatch(f"gradient must have shape ({n},), got {g.shape}")
    return ctrl.step(state, g), state.x


def kalman_gain(model: StateSpaceSISO, sigma2: float) -> np.ndarray:
    """Steady-state one-step prediction gain for the signal model.

    K = (F P H^T + s2 G j) / (H P H^T + s2 j^2) with P the stabilizing
    solution of the filtering Riccati equation.  The gain is invariant
    to the noise scale s2 because P scales linearly with it.
    """
    p = solve_dare(model.F, model.G, model.H, model.j, sigma2)
    innov = float(model.H @ p @ model.H) + sigma2 * model.j ** 2
    return (model.F @ p @ model.H + sigma2 * model.G * model.j) / innov


def make_kalman_tracker(model: StateSpaceSISO, sigma2: float, mu: float) -> TrackerController:
    """Filter-based tracker: xi+ = F xi - K g / mu, x = H xi.

    At curvature mu the loop reproduces the steady-state filter driven by
    the innovation c - H xi; other curvatures scale the effective gain by
    lambda / mu.  The controller transfer function is
    -H (zI - F)^{-1} K / mu.
    """
    if mu <= 0.0:
        raise InvalidBounds("mu must be positive")
    gain = kalman_gain(model, sigma2)
    f = model.F.copy()
    g = -gain / mu
    h = model.H.copy()
    tf = ss_to_tf(StateSpaceSISO(f, g, h, 0.0))
    return TrackerController(KIND_KALMAN, tf, f, g, h, mu=mu)


def make_gd_tracker(alpha: float) -> TrackerController:
    """Gradient descent x+ = x - alpha g as a one-state controller.

    The single state is the iterate itself, so the recursion is exact in
    floating point, not just up to realization roundoff.
    """
    if alpha <= 0.0:
        raise InvalidBounds("alpha must be positive")
    f = np.array([[1.0]])
    g = np.array([-alpha])
    h = np.array([1.0])
    tf = TransferFunctionSISO([-alpha], [-1.0, 1.0])
    return TrackerController(KIND_GD, tf, f, g, h, alpha=alpha)


def mu_star_from_eigs(eigs) -> float:
    """Cost-optimal nominal curvature sum(l^2) / sum(l) for known eigenvalues."""
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise InvalidSpectrum("eigs must be a nonempty 1-D array")
    if np.any(eigs <= 0.0):
        raise InvalidSpectrum("eigenvalues must be positive")
    return float(np.sum(eigs ** 2) / np.sum(eigs))


def mu_star_uniform(lambda_min: float, lambda_max: float) -> float:
    """Closed form of the optimal nominal curvature for a uniform spectrum."""
    if not (0.0 < lambda_min <= lambda_max):
        raise InvalidBounds(
            f"need 0 < lambda_min <= lambda_max, got [{lambda_min}, {lambda_max}]"
        )
    a, b = lambda_min, lambda_max
    return (2.0 / 3.0) * (b * b + a * b + a * a) / (a + b)


def mu_star_from_density(samples) -> float:
    """Weighted version sum(w l^2) / sum(w l) for a sampled density.

    `samples` is a sequence of (lambda, weight) pairs; weights must be
    nonnegative with positive total, eigenvalues positive.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise InvalidDensity("samples must be a nonempty sequence of (lambda, weight)")
    lam, w = arr[:, 0], arr[:, 1]
    if np.any(lam <= 0.0):
        raise InvalidDensity("sampled eigenvalues must be positive")
    if np.any(w < 0.0) or not np.sum(w) > 0.0:
        raise InvalidDensity("weights must be nonnegative with positive sum")
    return float(np.sum(w * lam ** 2) / np.sum(w * lam))


def mu_star_search(model: StateSpaceSISO, sigma2: float, eigs) -> float:
    """Tuned curvature found by minimizing the summed tracking cost itself.

    The closed forms above come from a second-order expansion of the cost
    around lambda/mu = 1.  Once the spectrum spread approaches the loop's
    gain margin that expansion is unreliable: its minimizer can land where
    the tracker is not even internally stable and the true cost is
    infinite.  This routine scans the exact cost over a log-spaced grid of
    candidate curvatures and refines the best bracket, so it returns a
    stabilizing tuning whenever one exists and raises otherwise.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise InvalidSpectrum("eigs must be a nonempty 1-D array")
    if np.any(eigs <= 0.0):
        raise InvalidSpectrum("eigenvalues must be positive")
    sigma2 = float(sigma2)
    if sigma2 <= 0.0:
        raise InvalidBounds("sigma2 must be positive")
    h = ss_to_tf(model)
    # numerator of c_mu scales as 1/mu, so one realization covers all mu
    base = make_kalman_tracker(model, sigma2, 1.0).tf

    def cost(mu):
        c = TransferFunctionSISO(base.num / mu, base.den)
        if not loop_stable(h, c, eigs).all():
            return float("inf")
        return sigma2 * sum(loop_norms(h, c, eigs)[0].tolist())

    grid = np.geomspace(0.25 * eigs.min(), 8.0 * eigs.max(), 160)
    values = np.array([cost(m) for m in grid])
    if not np.any(np.isfinite(values)):
        raise NoStabilizingController(
            "no curvature tuning makes the tracker internally stable "
            "on the given spectrum"
        )
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    res = minimize_scalar(cost, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-9})
    mu = float(res.x)
    if np.isfinite(res.fun) and res.fun <= values[best]:
        return mu
    return float(grid[best])


def factor_poles(h: TransferFunctionSISO) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split h = n / (d_u d_s) by pole modulus at the stability margin.

    Returns (n, d_u, d_s) with d_u, d_s monic; d_u collects every pole of
    modulus >= 1 - 1e-9 and reduces to the constant 1 when h is stable.
    A stable h keeps its own denominator as d_s: rebuilding it from its
    roots would perturb the coefficients at roundoff level, and synthesis
    results follow those coefficients.
    """
    if h.degree == 0:
        return h.num.copy(), np.ones(1), np.ones(1)
    poles = h.poles()
    unstable = [r for r in poles if abs(r) >= 1.0 - 1e-9]
    if not unstable:
        return h.num.copy(), np.ones(1), h.den.copy()
    stable = [r for r in poles if abs(r) < 1.0 - 1e-9]

    def rebuild(roots):
        if not roots:
            return np.ones(1)
        p = npoly.polyfromroots(np.asarray(roots, dtype=complex))
        if np.max(np.abs(p.imag)) > 1e-10 * max(1.0, np.max(np.abs(p.real))):
            raise ValueError("pole set is not conjugate-closed")
        return p.real

    return h.num.copy(), rebuild(unstable), rebuild(stable)


def controller_to_dict(ctrl: TrackerController) -> dict:
    """JSON document: the transfer function plus a flat metadata block."""
    doc = ctrl.tf.to_dict()
    doc["kind"] = ctrl.kind
    doc["order"] = ctrl.order
    doc["gamma"] = ctrl.gamma
    doc["lambda_grid"] = None if ctrl.lambda_grid is None else list(ctrl.lambda_grid)
    if ctrl.alpha is not None:
        doc["alpha"] = ctrl.alpha
    if ctrl.mu is not None:
        doc["mu"] = ctrl.mu
    return doc


def controller_from_dict(doc: dict) -> TrackerController:
    """Rebuild a controller from its JSON document.

    The realization is reconstructed in controllable-canonical form from
    the transfer function; statistics are preserved exactly, state
    coordinates are not.
    """
    tf = TransferFunctionSISO.from_dict(doc)
    ss = tf_to_ss(tf)
    grid = doc.get("lambda_grid")
    return TrackerController(
        kind=doc.get("kind", KIND_HINF),
        tf=tf,
        F=ss.F,
        G=ss.G,
        H=ss.H,
        alpha=doc.get("alpha"),
        mu=doc.get("mu"),
        gamma=doc.get("gamma"),
        lambda_grid=None if grid is None else np.asarray(grid, dtype=float),
    )
