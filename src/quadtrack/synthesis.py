"""Fixed-order worst-case controller synthesis over a curvature interval.

The design variable is the coefficient vector of a strictly proper scalar
controller of fixed order.  The objective is the largest closed-loop peak
gain over a Chebyshev grid of curvatures, with loop instability anywhere
on the grid treated as +inf.  Search is multi-start Nelder-Mead; every
returned controller is re-certified with the full-precision norm routine,
so the reported level is never the cheaper search-time surrogate.

The surrogate is sampled on the 4096 `CIRCLE_POINTS`, but computed only
at the few frequencies a cheap certified upper bound leaves as candidates
for the maximum, with the bits of the whole-circle computation.  Late in
a search the simplex moves little, so the last full screen is reused: a
point near it is computed only on that screen's band of frequencies near
the maximum, once a perturbation bound certifies every other frequency
below the band's value.  A point the bound cannot certify gets a fresh
screen, and reuse then backs off for a growing number of points, so a
search whose steps stay large pays almost nothing for it.  Either way
the value is the whole circle's, bit for bit.

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

from .control_math import RngStream, chebyshev_grid
from .errors import InvalidBounds, NoStabilizingController, QuadtrackError
from .evaluation import robust_cost
from .lti import CIRCLE_ANGLES, CIRCLE_POINTS, StateSpaceSISO, TransferFunctionSISO, factor_poles, roots_stable, tf_to_ss
from .scenario import STREAM_SYNTH_BASE
from .trackers import KIND_HINF, TrackerController, UncertaintyInterval, make_kalman_tracker, mu_star_search

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


# Reuse of the last screen (see `_Objective`): a full evaluation keeps the
# frequencies whose bound reaches REUSE_BAND times the largest as the band a
# later point is computed on, and a point the band cannot certify holds off
# reuse for 1, 2, 4, ... full evaluations, at most REUSE_GAP_CAP
REUSE_BAND = 0.999
REUSE_GAP_CAP = 16


class _Objective:
    """Worst-case grid gain of the candidate coefficient vector.

    The value is the largest |n(z)| / min over the grid of |p0(z) - lam p1(z)|
    over the 4096 `CIRCLE_POINTS`, with n = n_h d_cbar, p0 = d_s d_u d_cbar
    and p1 = d_s p n_cbar, and +inf where the loop is unstable anywhere on
    the grid.  `_ratio` computes it only where `_bound` allows the maximum.
    It is the full circle's value bit for bit: `_ratio`'s elementwise
    operations give the same bits on a gathered subset as on the whole
    circle, and every frequency left out is certified below the maximum.

    A full evaluation is kept as the reference for the next points: its
    band, the frequencies whose bound reaches REUSE_BAND times the largest,
    and a few scalars: that threshold, and the largest 1 / B, |n_h(z)| / B,
    |d_s d_u(z)| / B and max|lam| |d_s p(z)| / B, B the bound's distance.
    Moving d_cbar by Delta_d and n_cbar by Delta_n moves n, p0 and p1 by
    n_h Delta_d, d_s d_u Delta_d and d_s p Delta_n, at most those fixed
    magnitudes times s_d = sum |Delta_d_k| and s_n = sum |Delta_n_k|, so
    the scalars certify every frequency outside the band (`_reuse`), and
    only the band goes through `_ratio`.  A point they cannot certify takes
    the full screen, which becomes the reference; after such a miss, reuse
    backs off, since a search whose steps stay large would pay for a band
    it cannot use at every point.  Reuse never changes a value, only which
    frequencies `_ratio` skips.
    """

    def __init__(self, n_h, d_u, d_s, p, q_bar, lam_grid):
        self.n_h = n_h
        self.d_u = d_u
        self.d_s = d_s
        self.p = p
        self.q_bar = q_bar
        self.lam_grid = lam_grid
        # lam as the complex numbers numpy casts it to
        self._lam = lam_grid[:, None].astype(complex)
        # n, p0 and p1, ascending, zero-padded to the widest; each row's
        # product goes to its own slice, and each has its fixed factor
        sizes = (n_h.size + q_bar, d_s.size + d_u.size + q_bar - 1, d_s.size + p.size + q_bar - 2)
        width = max(sizes)
        self._coeffs = np.zeros((3, width))
        self._rows = [(row[:size], f) for row, size, f in zip(self._coeffs, sizes, (n_h, d_s, d_s))]
        self._d_cbar = np.ones(q_bar + 1)
        # row k: cos and sin of k theta on the lower half circle [-pi, 0], so
        # coeffs @ powers holds Re and Im of the polynomials there; real
        # coefficients mirror them onto the upper half
        k_theta = np.outer(np.arange(width), CIRCLE_ANGLES[: CIRCLE_ANGLES.size // 2 + 1])
        self.powers = np.concatenate([np.cos(k_theta), np.sin(k_theta)], axis=1)
        self.kappa = 64.0 * width * width * np.finfo(float).eps
        self.lam_lo, self.lam_hi = float(lam_grid.min()), float(lam_grid.max())
        self.lam_abs = float(np.abs(lam_grid).max())
        # the fixed factors of Delta n, Delta p0 and Delta p1, with their
        # coefficient sums, which also bound their convolutions' rounding
        fixed = (n_h, np.convolve(d_s, d_u), np.convolve(d_s, p))
        self._sums = (float(np.abs(n_h).sum()), float(np.abs(d_s).sum() * np.abs(d_u).sum()),
                      float(np.abs(d_s).sum() * np.abs(p).sum()))
        table = np.zeros((3, width))
        for row, f in zip(table, fixed):
            row[: f.size] = f
        vals = (table @ self.powers).reshape(3, 2, -1)
        # their magnitudes, with a budget for the table and for the rounding of
        # Horner on the larger coefficients; Delta p1 counts max|lam| times
        self._fixed = np.hypot(vals[:, 0], vals[:, 1]) + 3.0 * self.kappa * np.array(self._sums)[:, None]
        self._fixed[2] *= self.lam_abs
        self._ref = None
        self._wait = 0
        self._gap = 0
        self.best = float("inf")
        self.best_v = None

    def split(self, v):
        n_cbar = np.asarray(v[: self.q_bar], dtype=float)
        d_cbar = np.append(v[self.q_bar:], 1.0)
        return n_cbar, d_cbar

    def __call__(self, v) -> float:
        x = np.asarray(v, dtype=float)
        n_cbar = x[: self.q_bar]
        d_cbar = self._d_cbar
        d_cbar[:-1] = x[self.q_bar:]
        # `npoly.polymul` is this product, trimmed: zero top coefficients
        # change no root and no Horner value
        base = np.convolve(self.d_u, d_cbar)
        pert = np.convolve(self.p, n_cbar)
        if not (np.isfinite(base).all() and np.isfinite(pert).all()):
            return float("inf")
        if not roots_stable(base, pert, self.lam_grid).all():
            val = float("inf")
        else:
            for (row, f), g in zip(self._rows, (d_cbar, base, pert)):
                row[...] = np.convolve(f, g)
            val = None
            if self._wait:
                self._wait -= 1
            elif self._ref is not None:
                val = self._reuse(x)
                if val is None:
                    # back off: the next few points take the full screen
                    self._gap = min(2 * self._gap or 1, REUSE_GAP_CAP)
                    self._wait = self._gap
                else:
                    self._gap = 0
            if val is None:
                # only the screen before the next attempt need be kept
                val = self._screen(x, keep=not self._wait)
        if val < self.best:
            self.best = val
            self.best_v = np.array(v, dtype=float)
        return val

    def _screen(self, x, keep: bool) -> float:
        """The value from a fresh bound: `_ratio` on the candidates for the
        maximum, widened to every frequency the bound cannot certify below
        it.  With keep, the screen becomes the reference."""
        bound, dist = self._bound(self._coeffs)
        top = bound.max()
        cand = bound >= (1.0 - 1e-6) * top
        val = self._ratio(self._points(cand))
        # every other frequency is certified below val, or the set widens to
        # those that are not, which include the maximizer
        wider = bound * (1.0 + self.kappa) >= val
        if (wider & ~cand).any():
            val = self._ratio(self._points(wider))
        if keep:
            self._ref = self._reference(bound, dist, top, x)
        return val

    def _reference(self, bound, dist, top, x) -> tuple | None:
        """The screen at x reduced to its band's points and the scalars of
        `_reuse`'s inequality, or None where a distance is not positive; the
        maxima over the distance B run over the whole half circle, band
        included."""
        nearest = float(dist.min())
        if not (top < np.inf and nearest > 0.0):
            return None
        ref = x.tolist()
        q = self.q_bar
        # the convolutions round each product by at most kappa times its
        # factors' coefficient sums, once at the reference and once at the point
        d_sum = 1.0 + sum(map(abs, ref[q:]))
        n_sum = sum(map(abs, ref[:q]))
        r_n = 2.0 * self.kappa * self._sums[0] * d_sum
        r_p = 2.0 * self.kappa * (self._sums[1] * d_sum + self.lam_abs * self._sums[2] * n_sum)
        delta = 1.0 / nearest
        alpha, beta, gamma = (self._fixed / dist).max(axis=1).tolist()
        # every bound outside the band is below REUSE_BAND top
        return (ref, REUSE_BAND * top + r_n * delta, alpha, 1.0 - r_p * delta, beta, gamma,
                self._points(bound >= REUSE_BAND * top))

    def _reuse(self, x) -> float | None:
        """The value from the reference's band, or None where the reference
        cannot certify every other frequency below it.

        At a frequency outside the band, with U its bound's numerator, B its
        distance and a, b, c the fixed magnitudes (c with max|lam|), `_ratio`
        computes at most (U + a s_d + r_n) / (B - b s_d - c s_n - r_p), r_n
        and r_p the convolutions' rounding.  Divided by B, U / B is below
        REUSE_BAND times the largest bound, and the reference holds the
        largest a / B, b / B, c / B and 1 / B, so one inequality certifies
        every such frequency at or below the band's value; the factor
        1 + 2 kappa covers the bound's own and these scalars' rounding.
        """
        ref, lead, alpha, room, beta, gamma, points = self._ref
        q = self.q_bar
        x = x.tolist()
        s_n = sum(abs(a - b) for a, b in zip(x[:q], ref[:q]))
        s_d = sum(abs(a - b) for a, b in zip(x[q:], ref[q:]))
        val = self._ratio(points)
        slack = val * (room - s_d * beta - s_n * gamma)
        if val < np.inf and (1.0 + 2.0 * self.kappa) * (lead + s_d * alpha) <= slack:
            return val
        return None

    def _points(self, mask) -> tuple:
        """The frequencies of mask, a mask over the lower half circle, and
        their mirror images theta_(4096 - k) (-theta_k to an ulp of pi), in
        circle order, laid out for `_ratio`: z and z * 0 once per row of
        n, p0 and p1, and work arrays."""
        idx = np.flatnonzero(np.concatenate([mask, mask[-2:0:-1]]))
        m = idx.size
        z = CIRCLE_POINTS[np.concatenate([idx, idx, idx])]
        # row k: coefficient k of n, p0 and p1, each repeated m times
        spread = np.empty((self._coeffs.shape[1], 3 * m), dtype=complex)
        work = np.empty(3 * m, dtype=complex)
        loops = np.empty((self.lam_grid.size, m), dtype=complex)
        # npoly.polyval's Horner starts from c_top + z * 0
        return (z, z * 0, spread.reshape(-1, 3, m), list(spread[::-1]), work, *work.reshape(3, m),
                loops, np.empty(loops.shape))

    def _ratio(self, points) -> float:
        """The value's own arithmetic at the gathered points of `_points`:
        Horner, |p0 - lam p1| at every lam, its minimum, the ratio and its
        maximum."""
        z, z0, spread, columns, work, n, p0, p1, loops, mags = points
        np.copyto(spread, self._coeffs.T[:, :, None])
        # npoly.polyval's Horner on n, p0 and p1 side by side, step for
        # step; a zero top coefficient gives it the same bits as the
        # trimmed polynomial
        top, *rest = columns
        np.add(top, z0, out=work)
        for column in rest:
            np.multiply(work, z, out=work)
            np.add(column, work, out=work)
        np.multiply(self._lam, p1, out=loops)
        np.subtract(p0, loops, out=loops)
        den = np.abs(loops, out=mags).min(axis=0)
        # division rounds monotonically, so dividing by the smallest
        # denominator per frequency gives the bits of the full grid's max
        return float((np.abs(n) / np.maximum(den, 1e-300)).max())

    def _bound(self, coeffs) -> tuple:
        """Per frequency of the lower half circle, an upper bound on what
        `_ratio` computes there and at its mirror image, to a factor
        1 + kappa; +inf at every frequency if any bound fails.  Returns
        the bound and its distance.

        The powers table gives approximations n~, p0~ and p1~ within
        e = kappa sum |c_k| of each polynomial's Horner value, with
        kappa = 64 (deg + 1)^2 eps; that budget also holds the rounding of
        `_ratio`'s complex arithmetic and of the distance below.
        |p0~ - lam p1~|^2 is convex in lam, so its minimum over
        [lam_min, lam_max], at the clipped lam* = Re(p0~ conj p1~) / |p1~|^2,
        is at most its value at any grid point; the distance is
        |p1~|-Lipschitz in lam, which covers the rounding of lam*.  The
        bound is (|n~| + e_n) / (that distance - e_p0 - max|lam| e_p1).
        """
        err = self.kappa * np.abs(coeffs).sum(axis=1)
        # (polynomial, Re / Im, frequency)
        vals = (coeffs @ self.powers).reshape(3, 2, -1)
        squares = vals[::2] * vals[::2]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dot = vals[1] * vals[2]
            # p1~ = 0 gives 0 / 0, which fmin and fmax skip: any lam is the minimizer
            lam = np.fmax(np.fmin((dot[0] + dot[1]) / (squares[1, 0] + squares[1, 1]),
                                  self.lam_hi), self.lam_lo)
            gap = vals[1] - lam * vals[2]
            gap *= gap
            dist = np.sqrt(gap[0] + gap[1]) - (err[1] + self.lam_abs * err[2])
            bound = (np.sqrt(squares[0, 0] + squares[0, 1]) + err[0]) / dist
        # a nonpositive distance leaves no bound: NaN, a negative or an infinite one
        if not (bound.min() >= 0.0 and bound.max() < np.inf):
            bound[:] = np.inf
        return bound, dist


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
        return fun(x.copy())

    def ordered(sim, fsim):
        # default-kind argsort is not stable: its order among tied +inf
        # vertices decides which one is reflected next
        ind = fsim.argsort()
        return sim[ind], fsim[ind]

    def converged(sim, fsim) -> bool:
        # scipy's two max tests on Python floats: a NaN, from inf - inf
        # among +inf vertices, fails a test as it fails scipy's max
        rows = sim.tolist()
        f = fsim.tolist()
        return (all(abs(a - b) <= xatol for row in rows[1:] for a, b in zip(row, rows[0]))
                and all(abs(f[0] - g) <= fatol for g in f[1:]))

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _OutOfBudget:
        pass
    # scipy sorts twice here; an unstable sort need not leave a sorted array's ties in place
    sim, fsim = ordered(*ordered(sim, fsim))
    while nfev < maxfev:
        try:
            if converged(sim, fsim):
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
    exactly, with n_K the numerator of `make_kalman_tracker`.  The
    curvature knob is tuned against the synthesis grid itself, so whenever
    the filter structure can stabilize the whole grid the start is live,
    not a dead point the search must first escape.  A constant h (white-noise signal) has no
    filter to start from, so the search uses its random starts.

    The filter is designed on h realized again, not on the caller's model:
    the search amplifies a shift of its start, and the caller's model moves
    the start by up to 4e-14 on the benchmark workloads, where one ulp of
    the filter tuning moves a synthesized cost by 4e-7 relative.
    """
    m = h.degree
    if m == 0 or q_bar < m:
        return None
    jh = h.num[m] if h.num.size == m + 1 else 0.0
    sp = npoly.polysub(h.num, jh * h.den)[: m]
    ss_num = TransferFunctionSISO(sp, h.den)
    plant = tf_to_ss(ss_num)
    model = StateSpaceSISO(plant.F, plant.G, plant.H, jh)
    try:
        n_k = make_kalman_tracker(model, mu_star_search(model, lam_grid)).tf.num
    except (QuadtrackError, np.linalg.LinAlgError):
        return None
    # cbar = z^pad n_K / (z^pad p d_s): n_K zero-padded to width m, both padded
    # to order q_bar, and the monic leading coefficient of the denominator left implicit
    pad = np.zeros(q_bar - m)
    return np.concatenate([pad, n_k, np.zeros(m - n_k.size), pad, npoly.polymul(p, d_s)[:m]])


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
    `precompensated_synthesize` restricted to stable models: InvalidBounds
    unless `lti.roots_stable` finds every pole of h inside the margin.

    Raises NoStabilizingController when no search start yields a loop
    stable across the whole grid.
    """
    if not h.is_zero and not roots_stable(h.den, np.zeros(1), [0.0])[0]:
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
    # deg(p n_cbar) < deg(d_u d_cbar)
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
