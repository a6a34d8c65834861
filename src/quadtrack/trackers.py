"""Online trackers: gradient descent, steady-state filter feedback, tuning rules.

Every tracker is a strictly proper scalar controller applied component-wise:
the n-dimensional update is n copies of the same SISO recursion driven by
the corresponding gradient component.  The controller consumes g_k and
emits the next query point, so the interconnection with the gradient
oracle is well posed.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .control_math import solve_dare
from .errors import (
    DimensionMismatch,
    InvalidBounds,
    InvalidDensity,
    InvalidSpectrum,
    NoStabilizingController,
)
from .lti import (
    StateSpaceSISO,
    TransferFunctionSISO,
    loop_h2_stack,
    ss_to_tf,
    tf_to_ss,
)

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
    "controller_to_dict",
    "controller_from_dict",
]

KIND_GD = "GradientDescent"
KIND_KALMAN = "Kalman"
KIND_HINF = "HInf"

# Largest coefficient magnitude a stored controller may have once its
# denominator is monic: half the float exponent range, so that products
# of two coefficients in the loop algebra stay finite.
_COEFF_LIMIT = 1e150
_FLOAT_MAX = float(np.finfo(float).max)


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


def kalman_gain(model: StateSpaceSISO) -> np.ndarray:
    """Steady-state one-step prediction gain for the signal model.

    K = (F P H^T + s2 G j) / (H P H^T + s2 j^2) with P the stabilizing
    solution of the filtering Riccati equation.  P scales linearly with
    the noise variance s2, so K does not depend on it: the filter is
    designed at s2 = 1.
    """
    p = solve_dare(model.F, model.G, model.H, model.j, 1.0)
    innov = float(model.H @ p @ model.H) + model.j ** 2
    return (model.F @ p @ model.H + model.G * model.j) / innov


def make_kalman_tracker(model: StateSpaceSISO, mu: float) -> TrackerController:
    """Filter-based tracker: xi+ = F xi - K g / mu, x = H xi.

    At curvature mu the loop reproduces the steady-state filter driven by
    the innovation c - H xi; other curvatures scale the effective gain by
    lambda / mu.  The controller transfer function is
    -H (zI - F)^{-1} K / mu.
    """
    if mu <= 0.0:
        raise InvalidBounds("mu must be positive")
    gain = kalman_gain(model)
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


def _spectrum(eigs) -> np.ndarray:
    """eigs as a float array, once it is a nonempty 1-D list of positive values."""
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise InvalidSpectrum("eigs must be a nonempty 1-D array")
    if np.any(eigs <= 0.0):
        raise InvalidSpectrum("eigenvalues must be positive")
    return eigs


def mu_star_from_eigs(eigs) -> float:
    """Cost-optimal nominal curvature sum(l^2) / sum(l) for known eigenvalues."""
    eigs = _spectrum(eigs)
    return float(np.sum(eigs ** 2) / np.sum(eigs))


def mu_star_uniform(lambda_min: float, lambda_max: float) -> float:
    """Closed form of the optimal nominal curvature for a uniform spectrum."""
    interval = UncertaintyInterval(lambda_min, lambda_max)
    a, b = interval.lambda_min, interval.lambda_max
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


def mu_star_search(model: StateSpaceSISO, eigs) -> float:
    """Tuned curvature found by minimizing the summed tracking cost itself.

    The closed forms above come from a second-order expansion of the cost
    around lambda/mu = 1.  Once the spectrum spread approaches the loop's
    gain margin that expansion is unreliable: its minimizer can land where
    the tracker is not even internally stable and the true cost is
    infinite.  This routine scans the exact cost over a log-spaced grid of
    candidate curvatures and refines the best bracket, so it returns a
    stabilizing tuning whenever one exists and raises otherwise.

    The whole 160-point grid is scored in one `loop_h2_stack` call, and
    each refinement step in another; each cost sums its row left to right.
    The filter controller shares the signal model's denominator, so each
    cell is the reduced row -n_h / loop of `lti._error_row`.
    """
    eigs = _spectrum(eigs)
    h = ss_to_tf(model)
    # numerator of c_mu scales as 1/mu, so one realization covers all mu
    base = make_kalman_tracker(model, 1.0).tf

    def costs(mus):
        h2_sq = loop_h2_stack(h, base.den, [base.num / mu for mu in mus], eigs)
        return [sum(row) for row in h2_sq.tolist()]

    grid = np.geomspace(0.25 * eigs.min(), 8.0 * eigs.max(), 160)
    values = np.array(costs(grid))
    if not np.any(np.isfinite(values)):
        raise NoStabilizingController(
            "no curvature tuning makes the tracker internally stable "
            "on the given spectrum"
        )
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    mu, cost = _bounded_brent(lambda mu: costs([mu])[0], lo, hi, xatol=1e-9)
    if np.isfinite(cost) and cost <= values[best]:
        return float(mu)
    return float(grid[best])


def _bounded_brent(func, a, b, xatol: float) -> tuple:
    """Brent's minimization of func on [a, b] without derivatives.

    A port of scipy 1.17's `minimize_scalar(method="bounded")` with its
    500-evaluation cap: every step is the same float expression in the
    same order, so it returns scipy's bits.  Returns (x, func(x)) of the
    best point found.
    """
    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    # +inf costs at an unstable bracket end make the parabolic step compute inf - inf
    with np.errstate(invalid="ignore"):
        while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
            golden = True
            if np.abs(e) > tol1:
                # parabola through the three best points
                r = (xf - nfc) * (fx - ffulc)
                q = (xf - fulc) * (fx - fnfc)
                p = (xf - fulc) * q - (xf - nfc) * r
                q = 2.0 * (q - r)
                if q > 0.0:
                    p = -p
                q = np.abs(q)
                r = e
                e = rat
                if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                    golden = False
                    rat = (p + 0.0) / q
                    x = xf + rat
                    if ((x - a) < tol2) or ((b - x) < tol2):
                        rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
            if golden:
                e = a - xf if xf >= xm else b - xf
                rat = golden_mean * e
            x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
            fu = func(x)
            num += 1
            if fu <= fx:
                if x >= xf:
                    a = xf
                else:
                    b = xf
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = xf, fx
                xf, fx = x, fu
            else:
                if x < xf:
                    a = x
                else:
                    b = x
                if (fu <= fnfc) or (nfc == xf):
                    fulc, ffulc = nfc, fnfc
                    nfc, fnfc = x, fu
                elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                    fulc, ffulc = x, fu
            xm = 0.5 * (a + b)
            tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
            tol2 = 2.0 * tol1
            if num >= 500:
                break
    return xf, fx


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
    coordinates are not.  Raises ValueError on a document that is not an
    object holding `num` and `den` as flat lists of finite numbers, on
    coefficients beyond 1e150 in magnitude once the denominator is monic,
    and on a `lambda_grid` that is neither a list nor null.
    """
    if not isinstance(doc, dict):
        raise ValueError("controller document must be a JSON object")
    for key in ("num", "den"):
        coeffs = doc.get(key)
        if not isinstance(coeffs, list):
            raise ValueError(f"controller document needs a coefficient list {key!r}")
        # bool is an int subclass, but JSON true is not a coefficient; the
        # comparison also refuses an integer too large for a float
        if not all(type(x) in (int, float) and abs(x) <= _FLOAT_MAX for x in coeffs):
            raise ValueError(f"controller coefficients {key!r} must be finite numbers")
    grid = doc.get("lambda_grid")
    if grid is not None and not isinstance(grid, list):
        raise ValueError("controller lambda_grid must be a list or null")
    try:
        with np.errstate(over="raise"):
            tf = TransferFunctionSISO.from_dict(doc)
        too_large = max(np.max(np.abs(tf.num)), np.max(np.abs(tf.den))) > _COEFF_LIMIT
    except FloatingPointError:
        too_large = True
    if too_large:
        raise ValueError(f"controller coefficients exceed {_COEFF_LIMIT:g} in magnitude "
                         "once the denominator is monic")
    ss = tf_to_ss(tf)
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
