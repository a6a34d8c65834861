"""Fixed-order worst-case controller synthesis over a curvature interval.

The design variable is the coefficient vector of a strictly proper scalar
controller of fixed order.  The objective is the largest closed-loop peak
gain over a Chebyshev grid of curvatures, with loop instability anywhere
on the grid treated as +inf.  Search is multi-start Nelder-Mead; every
returned controller is re-certified with the full-precision norm routine,
so the reported level is never the cheaper search-time surrogate.

Persistent signal poles are handled by constraining the controller to
contain them (precompensation): with h = n / (d_u d_s) and p(z) = z^deg(d_u),
the controller c = (p / d_u) cbar carries the internal model d_u, and cbar
is synthesized against the stabilized plant n / (p d_s).  A stable h is
the case d_u = p = 1, so stable and persistent models share one path.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .control_math import STABILITY_MARGIN, RngStream, chebyshev_grid
from .errors import InvalidBounds, NoStabilizingController, QuadtrackError
from .evaluation import robust_cost
from .lti import CIRCLE_POINTS, StateSpaceSISO, TransferFunctionSISO, factor_poles, roots_stable, tf_to_ss
from .scenario import STREAM_SYNTH_BASE
from .trackers import KIND_HINF, TrackerController, UncertaintyInterval, kalman_gain, mu_star_search

__all__ = ["SynthesisOptions", "hinf_synthesize", "precompensated_synthesize"]


@dataclass
class SynthesisOptions:
    """Search budget and grid resolution; the defaults (33 grid points, 6 starts
    of 600 evaluations each) are those of the config's `trackers` block."""

    order: int | None = None
    grid_points: int = 33
    starts: int = 6
    max_evals: int = 600
    seed: int = 0

    def __post_init__(self):
        if self.grid_points < 2:
            raise InvalidBounds("grid_points must be at least 2")


class _Objective:
    """Worst-case grid gain of the candidate coefficient vector.

    The (curvature x frequency) denominators are written into buffers made
    once per instance, so an instance is not reentrant: evaluate one
    vector at a time.
    """

    def __init__(self, n_h, d_u, d_s, p, q_bar, lam_grid):
        self.n_h = n_h
        self.d_u = d_u
        self.d_s = d_s
        self.p = p
        self.q_bar = q_bar
        self.lam_grid = lam_grid
        self.z = CIRCLE_POINTS
        # a real lam is cast to lam + 0j inside the complex ufuncs anyway
        self.lam_c = lam_grid.astype(complex)[:, None]
        self.grid = np.empty((lam_grid.size, CIRCLE_POINTS.size), dtype=complex)
        self.mag = np.empty(self.grid.shape)
        self.best = float("inf")
        self.best_v = None

    def split(self, v):
        n_cbar = np.asarray(v[: self.q_bar], dtype=float)
        d_cbar = np.append(v[self.q_bar:], 1.0)
        return n_cbar, d_cbar

    def __call__(self, v) -> float:
        n_cbar, d_cbar = self.split(v)
        base = npoly.polymul(self.d_u, d_cbar)
        pert = npoly.polymul(self.p, n_cbar)
        if not np.all(np.isfinite(base)) or not np.all(np.isfinite(pert)):
            return float("inf")
        if not roots_stable(base, pert, self.lam_grid).all():
            val = float("inf")
        else:
            num_v = np.abs(npoly.polyval(self.z, npoly.polymul(self.n_h, d_cbar)))
            p0 = npoly.polyval(self.z, npoly.polymul(self.d_s, base))
            p1 = npoly.polyval(self.z, npoly.polymul(self.d_s, pert))
            np.multiply(self.lam_c, p1, out=self.grid)
            np.subtract(p0, self.grid, out=self.grid)
            np.abs(self.grid, out=self.mag)
            # division rounds monotonically, so dividing by the smallest
            # denominator per frequency gives the bits of the full grid's max
            val = float(np.max(num_v / np.maximum(self.mag.min(axis=0), 1e-300)))
        if val < self.best:
            self.best = val
            self.best_v = np.array(v, dtype=float)
        return val


class _OutOfBudget(Exception):
    pass


def minimize(fun, x0, maxfev: int, xatol: float, fatol: float) -> SimpleNamespace:
    """Nelder-Mead simplex search from x0 with at most maxfev evaluations.

    A port of scipy 1.17's `minimize(method="Nelder-Mead")` without bounds,
    adaptive coefficients or an iteration cap: every step is the same float
    expression in the same order, so it evaluates the very points scipy
    does.  fun gets a copy of each point.  Returns x, fun and nfev.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def f(x):
        # the call that would overrun the budget is not made
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfBudget
        nfev += 1
        return fun(np.copy(x))

    def ordered(sim, fsim):
        # default-kind argsort is not stable: its order among tied +inf
        # vertices decides which one is reflected next
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _OutOfBudget:
        pass
    # scipy sorts twice here; an unstable sort need not leave a sorted array's ties in place
    sim, fsim = ordered(*ordered(sim, fsim))
    while nfev < maxfev:
        try:
            # +inf vertices make fsim[0] - fsim[1:] an inf - inf
            with np.errstate(invalid="ignore"):
                if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                        and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                    break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _OutOfBudget:
            pass
        sim, fsim = ordered(sim, fsim)
    return SimpleNamespace(x=sim[0], fun=np.min(fsim), nfev=nfev)


def _kalman_start(h: TransferFunctionSISO, lam_grid: np.ndarray,
                  d_s: np.ndarray, p: np.ndarray, q_bar: int) -> np.ndarray | None:
    """Coefficient vector of the filter tracker expressed in cbar coordinates.

    The filter controller's denominator is the full model characteristic
    polynomial d_u d_s, so dividing out d_u / p leaves cbar = n_K / (p d_s)
    exactly; the numerator is taken from the determinant identity before
    any root cancellation can disturb it.  The curvature knob is tuned
    against the synthesis grid itself, so whenever the filter structure
    can stabilize the whole grid the start is live, not a dead point the
    search must first escape.  A constant h (white-noise signal) has no
    filter to start from, so the search uses its random starts.
    """
    m = h.degree
    if m == 0 or q_bar < m:
        return None
    jh = h.num[m] if h.num.size == m + 1 else 0.0
    sp = npoly.polysub(h.num, jh * h.den)[: m]
    ss_num = TransferFunctionSISO(sp, h.den, cancel=False)
    plant = tf_to_ss(ss_num)
    model = StateSpaceSISO(plant.F, plant.G, plant.H, jh)
    try:
        gain = kalman_gain(model)
        mu = mu_star_search(model, lam_grid)
    except (QuadtrackError, np.linalg.LinAlgError):
        return None
    a_desc = np.poly(model.F)
    # det(zI - F - vH) = d(z) - H adj(zI - F) v, so this difference is
    # -H adj(zI - F) K / mu descending: already the controller numerator
    num_desc = np.poly(model.F + np.outer(gain / mu, model.H)) - a_desc
    n_k = num_desc[::-1][:m]
    # cbar = z^pad n_K / (z^pad p d_s): both padded to order q_bar, and the
    # monic leading coefficient of the denominator left implicit
    pad = np.zeros(q_bar - m)
    return np.concatenate([pad, n_k, pad, npoly.polymul(p, d_s)[:m]])


def _random_start(q_bar: int, rng: RngStream) -> np.ndarray:
    radii = rng.uniform(0.05, 0.7, q_bar)
    angles = rng.uniform(0.0, np.pi, q_bar)
    roots = []
    i = 0
    while len(roots) < q_bar - 1:
        roots.extend([radii[i] * np.exp(1j * angles[i]),
                      radii[i] * np.exp(-1j * angles[i])])
        i += 1
    if len(roots) < q_bar:
        roots.append(radii[-1] * np.cos(angles[-1]))
    den = npoly.polyfromroots(np.asarray(roots[:q_bar], dtype=complex)).real
    num = 0.1 * rng.standard_normal(q_bar)
    return np.concatenate([num, den[:q_bar]])


def hinf_synthesize(h: TransferFunctionSISO, interval: UncertaintyInterval,
                    opts: SynthesisOptions) -> TrackerController:
    """Minimize the worst-case peak error gain for a stable signal model.

    The reported `gamma` is the certified value max over the curvature
    grid of the peak gain of -h / (1 - lam c), computed with the
    full-precision norm routine on the selected controller.  This is
    `precompensated_synthesize` restricted to stable models.

    Raises NoStabilizingController when no search start yields a loop
    stable across the whole grid.
    """
    if not h.is_zero and h.degree > 0 and np.max(np.abs(h.poles())) >= 1.0 - STABILITY_MARGIN:
        raise InvalidBounds("signal model must be stable here; use precompensated_synthesize")
    return precompensated_synthesize(h, interval, opts)


def precompensated_synthesize(h: TransferFunctionSISO, interval: UncertaintyInterval,
                              opts: SynthesisOptions) -> TrackerController:
    """Minimize the worst-case peak error gain for any signal model.

    Factors h = n / (d_u d_s), fixes the controller structure
    c = (p / d_u) cbar with p(z) = z^deg(d_u), and synthesizes cbar so the
    loop polynomial d_u d_cbar - lam p n_cbar is stable over the grid.
    For a stable h, d_u = p = 1 and cbar is the whole controller.  The
    default order is max(deg h, 1) + deg d_u.
    """
    lam_grid = chebyshev_grid(interval.lambda_min, interval.lambda_max, opts.grid_points)
    if h.is_zero:
        tf = TransferFunctionSISO([0.0], [1.0])
        ss = tf_to_ss(tf)
        return TrackerController(KIND_HINF, tf, ss.F, ss.G, ss.H, gamma=0.0, lambda_grid=lam_grid)
    n_h, d_u, d_s = factor_poles(h)
    n_u = d_u.size - 1
    p = np.zeros(n_u + 1)
    p[-1] = 1.0
    order = opts.order if opts.order is not None else max(h.degree, 1) + n_u
    q_bar = order - n_u
    if q_bar < 1:
        raise InvalidBounds(
            f"controller order {order} leaves no freedom after the {n_u} precompensator poles"
        )
    obj = _Objective(n_h, d_u, d_s, p, q_bar, lam_grid)

    starts = []
    v0 = _kalman_start(h, lam_grid, d_s, p, q_bar)
    if v0 is not None:
        starts.append(v0)
    spread = [0.1, 0.3, 1.0]
    k = 0
    while len(starts) < opts.starts:
        stream = RngStream(opts.seed, STREAM_SYNTH_BASE + 1 + k)
        if v0 is not None:
            step = spread[k % len(spread)] * max(1.0, float(np.max(np.abs(v0))))
            starts.append(v0 + step * stream.standard_normal(v0.size))
        else:
            starts.append(_random_start(q_bar, stream))
        k += 1

    finalists = [v0] if v0 is not None else []
    for x0 in starts:
        obj.best = float("inf")
        obj.best_v = None
        minimize(obj, x0, opts.max_evals, xatol=1e-10, fatol=1e-12)
        if obj.best_v is not None:
            finalists.append(obj.best_v)

    # certify each finalist with the full-precision peak gain; c is strictly proper:
    # deg(p n_cbar) < deg(d_u d_cbar), and cancellation lowers both degrees alike
    best = None
    for v in finalists:
        n_cbar, d_cbar = obj.split(v)
        c_tf = TransferFunctionSISO(npoly.polymul(p, n_cbar), npoly.polymul(d_u, d_cbar))
        gamma = robust_cost(h, c_tf, interval, opts.grid_points)
        if not np.isfinite(gamma):
            continue
        key = (gamma, float(np.linalg.norm(v)))
        if best is None or key < best[0]:
            best = (key, c_tf)
    if best is None:
        raise NoStabilizingController(
            f"no start produced a loop stable over all {lam_grid.size} grid points"
        )
    gamma, c_tf = best[0][0], best[1]
    ss = tf_to_ss(c_tf)
    return TrackerController(KIND_HINF, c_tf, ss.F, ss.G, ss.H,
                             gamma=gamma, lambda_grid=lam_grid)
