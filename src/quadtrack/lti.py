"""Scalar discrete-time LTI machinery.

Transfer functions are ratios of real polynomials in z, stored ascending
(``num[k]`` multiplies ``z**k``) with a monic denominator, and never
reduced: a root shared by numerator and denominator stays.  State-space
models are single-input single-output quadruples (F, G, H, j).  The unit
circle is the stability boundary; `control_math.STABILITY_MARGIN` separates
"stable" from "not" everywhere in this module.  Peak gains scan one shared
4096-point circle grid, `CIRCLE_ANGLES` / `CIRCLE_POINTS`, and `_peak`
refines every sampled lobe by resampling.

An error loop -h / (1 - lam c) is stable when the roots of d_c - lam n_c
lie inside the circle and the controller carries the internal model,
whose one rule is `_error_row`'s division: the factor d_u of the signal's
persistent poles divides d_c up to roundoff.  The loop kernels
`loop_stable`, `loop_h2_stack` and `loop_peaks` read both from one front,
`_loops`: one `_error_row` row and one `roots_stable` call per (controllers
x curvatures) grid.  `roots_stable` is the Schur-Cohn recursion scaled to
the margin radius, and tests every loop and denominator (a lone one is the
lam = 0 loop with a zero numerator); roots are computed only in
`factor_poles` and `h2_norm_sq_freq`, where they are the answer.  Every
cost of a loop is read from that row over the one cell polynomial
s (d_c - lam n_c) that `_cells` builds, with no root cancellation: every H2
cell from one Astrom-Jury table, `_h2_cells`, every peak gain from
`loop_peaks`.  `closed_loop_error_tf`, the same row and cell as a transfer
function, and the one-row `h2_norm_sq_exact` are the tests' per-curvature
oracle.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .control_math import STABILITY_MARGIN, polynomial_roots, root_centroids
from .errors import AlgebraicLoop, DimensionMismatch, NotConverged

__all__ = [
    "TransferFunctionSISO",
    "StateSpaceSISO",
    "circle_angles",
    "observable_canonical",
    "ss_to_tf",
    "tf_to_ss",
    "closed_loop_error_tf",
    "factor_poles",
    "h2_norm_sq_exact",
    "h2_norm_sq_freq",
    "hinf_norm",
    "is_internally_stable",
    "roots_stable",
    "loop_stable",
    "loop_h2_stack",
    "loop_peaks",
]


def _trim(c) -> np.ndarray:
    """Drop trailing (highest-power) coefficients at roundoff level."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    scale = float(np.max(np.abs(c))) if c.size else 0.0
    if scale == 0.0:
        return np.zeros(1)
    keep = np.nonzero(np.abs(c) > 1e-14 * scale)[0]
    if keep.size == 0:
        return np.zeros(1)
    return np.array(c[: keep[-1] + 1], dtype=float)


class TransferFunctionSISO:
    """Proper rational function b(z)/a(z) with real coefficients.

    The denominator is normalized monic and nothing else is reduced: a root
    that num and den share stays in both, so a function is what it says.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = np.asarray(num, dtype=float)
        den = np.asarray(den, dtype=float)
        if not (np.isfinite(num).all() and np.isfinite(den).all()):
            # _trim would read a NaN or inf coefficient list as the zero polynomial
            raise ValueError("transfer function coefficients must be finite")
        num = _trim(num)
        den = _trim(den)
        if den.size == 1 and den[0] == 0.0:
            raise ValueError("denominator must be nonzero")
        lead = den[-1]
        num = num / lead
        den = den / lead
        if self._is_zero_poly(num):
            num = np.zeros(1)
        elif num.size > den.size:
            raise ValueError(
                f"improper transfer function: deg num {num.size - 1} > deg den {den.size - 1}"
            )
        self.num = num
        self.den = den

    @staticmethod
    def _is_zero_poly(c):
        return c.size == 1 and c[0] == 0.0

    @property
    def is_zero(self) -> bool:
        return self._is_zero_poly(self.num)

    @property
    def degree(self) -> int:
        return self.den.size - 1

    @property
    def is_strictly_proper(self) -> bool:
        return self.is_zero or self.num.size < self.den.size

    def poles(self) -> np.ndarray:
        if self.degree == 0:
            return np.zeros(0, dtype=complex)
        return polynomial_roots(self.den)

    def __call__(self, z):
        return npoly.polyval(z, self.num) / npoly.polyval(z, self.den)

    def to_dict(self) -> dict:
        """JSON-ready {"num": [...], "den": [...]}, ascending powers."""
        return {"num": self.num.tolist(), "den": self.den.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "TransferFunctionSISO":
        return cls(d["num"], d["den"])

    def __repr__(self):
        return f"TransferFunctionSISO(num={self.num.tolist()}, den={self.den.tolist()})"


@dataclass
class StateSpaceSISO:
    """State-space quadruple xi+ = F xi + G u, y = H xi + j u."""

    F: np.ndarray
    G: np.ndarray
    H: np.ndarray
    j: float = 0.0

    def __post_init__(self):
        self.F = np.asarray(self.F, dtype=float)
        if self.F.ndim != 2 or self.F.shape[0] != self.F.shape[1]:
            raise DimensionMismatch(f"F must be square, got {self.F.shape}")
        m = self.F.shape[0]
        self.G = np.asarray(self.G, dtype=float).reshape(m)
        self.H = np.asarray(self.H, dtype=float).reshape(m)
        self.j = float(self.j)

    @property
    def order(self) -> int:
        return self.F.shape[0]


def circle_angles(n: int) -> np.ndarray:
    """Uniform unit-circle grid theta_k = -pi + 2 pi k / n, k = 0..n-1."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


# The circle grid of every peak-gain search (`hinf_norm` and the synthesis
# objective); shared arrays, so read-only.
CIRCLE_ANGLES = circle_angles(4096)
CIRCLE_POINTS = np.exp(1j * CIRCLE_ANGLES)
CIRCLE_ANGLES.flags.writeable = False
CIRCLE_POINTS.flags.writeable = False

# `_peak`'s refinement: each round resamples +-one spacing at 65 points,
# 1/32 of the spacing before, so the last spacing is below 1e-13 rad.
_ZOOM = np.linspace(-1.0, 1.0, 65)
_ZOOM_ROUNDS = 7


def observable_canonical(char_poly):
    """Companion pair (F, H) realizing 1/char_poly from the first state.

    Parameters
    ----------
    char_poly : ascending monic coefficients, degree m >= 1.

    Returns
    -------
    F : (m, m) companion matrix with det(zI - F) = char_poly(z).
    H : (m,) output vector [1, 0, ..., 0].
    """
    a = _trim(char_poly)
    m = a.size - 1
    if m < 1:
        raise ValueError("characteristic polynomial must have degree >= 1")
    if abs(a[-1] - 1.0) > 1e-12:
        raise ValueError("characteristic polynomial must be monic")
    f = np.zeros((m, m))
    f[:, 0] = -a[-2::-1]
    for i in range(m - 1):
        f[i, i + 1] = 1.0
    h = np.zeros(m)
    h[0] = 1.0
    return f, h


def ss_to_tf(ss: StateSpaceSISO) -> TransferFunctionSISO:
    """Transfer function H (zI - F)^-1 G + j of a state-space model.

    The strictly proper numerator is det(zI - F + G H) - det(zI - F),
    a degree-(m-1) polynomial by the rank-one determinant identity.
    """
    a_desc = np.poly(ss.F)
    b_desc = np.poly(ss.F - np.outer(ss.G, ss.H)) - a_desc
    num_desc = b_desc + ss.j * a_desc
    return TransferFunctionSISO(num_desc[::-1], a_desc[::-1])


def tf_to_ss(tf: TransferFunctionSISO) -> StateSpaceSISO:
    """Controllable-canonical realization of a strictly proper function; the
    zero constant gets one state, which never reaches the output."""
    if not tf.is_strictly_proper:
        raise ValueError("realization requires a strictly proper transfer function")
    q = tf.degree
    if q == 0:
        return StateSpaceSISO(np.zeros((1, 1)), np.zeros(1), np.zeros(1), 0.0)
    a = tf.den
    f = np.zeros((q, q))
    f[0, :] = -a[-2::-1]
    for i in range(1, q):
        f[i, i - 1] = 1.0
    g = np.zeros(q)
    g[0] = 1.0
    b = np.zeros(q)
    b[: tf.num.size] = tf.num
    h = b[::-1]
    return StateSpaceSISO(f, g, h, 0.0)


def _shares_den(h: TransferFunctionSISO, den: np.ndarray) -> bool:
    """Whether a controller denominator equals d_h coefficient-wise (the filter tracker's case)."""
    den_scale = float(np.max(np.abs(h.den)))
    return den.size == h.den.size and np.allclose(den, h.den, rtol=0.0, atol=1e-12 * den_scale)


def _schur_cohn(a: np.ndarray, b: np.ndarray | None = None) -> tuple:
    """The Schur-Cohn recursion on the polynomials a, in place.

    a: (q + 1, ...) descending coefficients, one polynomial per column,
    each with a positive leading coefficient.  Step k = q .. 1 takes
    alpha = a_k / a_0 and reduces a_i (i < k) by alpha times the pre-step
    a_(k - i); the new leading coefficient is a_0 (1 - alpha^2), so every
    root of a column lies strictly inside the unit circle exactly when
    every leading coefficient stays positive (Astrom, Jury and Agniel,
    IEEE TAC 15(4), 1970).  b, when given, is reduced along with a, by
    beta = b_k / a_0, and sum a_0 beta^2 is accumulated: the H2 table of
    `_h2_table`.  Returns (ok, that sum).
    """
    q = a.shape[0] - 1
    lead = np.empty((q,) + a.shape[1:])
    total = np.zeros(a.shape[1:])
    # a column that fails the sign test may divide by zero or overflow later on
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(q, 0, -1):
            alpha = a[k] / a[0]
            rev = a[k:0:-1]
            if b is not None:
                beta = b[k] / a[0]
                total += a[0] * beta * beta
                b[:k] -= beta * rev
            a[:k] -= alpha * rev
            lead[k - 1] = a[0]
    return (lead > 0.0).all(axis=0), total


def roots_stable(den: np.ndarray, num: np.ndarray, lams) -> np.ndarray:
    """Per lam, whether every root of den(z) - lam * num(z) is inside the circle.

    den is monic of degree q; num is a numerator, or a stack of them one
    per row, of width at most q, and the flags then have one row per
    numerator.  "Inside" is radius R = 1 - STABILITY_MARGIN: the roots of
    p lie inside it exactly when those of p(R z), coefficients p_k R^k,
    lie inside the unit circle, which `_schur_cohn` decides in q vector
    steps for the whole stack, with no root computed.  A constant loop has
    no roots and is stable.
    """
    lams = np.asarray(lams, dtype=float)
    q = den.size - 1
    # built descending, (q + 1, *stack, lam), the layout `_schur_cohn` reads
    wide = np.zeros((q + 1,) + num.shape[:-1] + (1,))
    wide[q + 1 - num.shape[-1]:, ..., 0] = num[..., ::-1].T
    scale = _radius_powers(q, wide.ndim)
    return _schur_cohn((den[::-1].reshape(scale.shape) - wide * lams) * scale)[0]


@cache
def _radius_powers(q: int, ndim: int) -> np.ndarray:
    """R^q, ..., R, 1 down the first axis of an ndim array, R = 1 - STABILITY_MARGIN."""
    powers = ((1.0 - STABILITY_MARGIN) ** np.arange(q + 1))[::-1].reshape((q + 1,) + (1,) * (ndim - 1))
    powers.flags.writeable = False
    return powers


def factor_poles(h: TransferFunctionSISO) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split h = n / (d_u d_s) by pole modulus at the stability margin.

    Returns (n, d_u, d_s) with d_u, d_s monic; d_u collects every pole
    whose cluster centroid (`control_math.root_centroids`, so each copy of
    a multiple root goes the same way) has modulus >= 1 - STABILITY_MARGIN,
    and reduces to the constant 1 when h is stable.
    A stable h keeps its own denominator as d_s: rebuilding it from its
    roots would perturb the coefficients at roundoff level, and synthesis
    results follow those coefficients.
    """
    poles = h.poles().astype(complex)
    unstable = np.abs(root_centroids(poles)) >= 1.0 - STABILITY_MARGIN
    if not unstable.any():
        return h.num.copy(), np.ones(1), h.den.copy()
    d_u, d_s = npoly.polyfromroots(poles[unstable]), npoly.polyfromroots(poles[~unstable])
    if any(np.max(np.abs(p.imag)) > 1e-10 * max(1.0, np.max(np.abs(p.real))) for p in (d_u, d_s)):
        raise ValueError("pole set is not conjugate-closed")
    return h.num.copy(), d_u.real, d_s.real


def _error_row(h: TransferFunctionSISO, c_den: np.ndarray) -> tuple | None:
    """(w_num, s) with -h / (1 - lam c) = w_num / (s (d_c - lam n_c)) at every lam.

    The one internal-model rule: with h = n_h / (d_u d_s) by `factor_poles`,
    the controller carries the persistent modes when d_u divides d_c, i.e.
    the remainder of d_c / d_u is at most 1e-8 max(1, max |d_c|); else the
    result is None.  A controller that shares d_h (the filter tracker)
    gives the reduced row (-n_h, 1), any other (-n_h (d_c / d_u), d_s).
    """
    if _shares_den(h, c_den):
        return -h.num, np.ones(1)
    n_h, d_u, d_s = factor_poles(h)
    quo, rem = npoly.polydiv(c_den, d_u)
    if np.max(np.abs(rem)) > 1e-8 * max(1.0, float(np.max(np.abs(c_den)))):
        return None
    return npoly.polymul(-n_h, quo), d_s


def _loops(h: TransferFunctionSISO, den, nums, lams: np.ndarray) -> tuple:
    """The error loops of the controllers nums[i] / den at every lam.

    Returns (row, d_c, padded, flags): the `_error_row` row, the monic
    d_c, the numerators zero-padded to width deg d_c, and one `loop_stable`
    flag per (controller, lam) from one `roots_stable` call, all false
    where the row is None.  Raises AlgebraicLoop unless every controller
    is strictly proper.
    """
    cs = [TransferFunctionSISO(num, den) for num in np.atleast_2d(np.asarray(nums, dtype=float))]
    if not all(c.is_strictly_proper for c in cs):
        raise AlgebraicLoop("controller must be strictly proper")
    c_den = cs[0].den
    padded = np.zeros((len(cs), c_den.size - 1))
    for i, c in enumerate(cs):
        if not c.is_zero:
            padded[i, : c.num.size] = c.num
    row = _error_row(h, c_den)
    flags = np.zeros((len(cs), lams.size), dtype=bool) if row is None else roots_stable(c_den, padded, lams)
    return row, c_den, padded, flags


def _cells(row: tuple, c_den, padded, lams, rows, cols) -> np.ndarray:
    """s (d_c - lams[cols[k]] padded[rows[k]]) per cell k, ascending, one per row.

    The one builder of a (controller, lam) loop polynomial: with the
    `_error_row` row (w_num, s) and the rest from `_loops`, row k is the
    denominator of every cost of cell k, w_num / row k.  rows may be one
    controller index for all the cells.
    """
    loops = np.tile(c_den, (len(cols), 1))
    loops[:, : c_den.size - 1] -= lams[cols, None] * padded[rows]
    return loops if row[1].size == 1 else np.array([npoly.polymul(row[1], loop) for loop in loops])


def closed_loop_error_tf(h: TransferFunctionSISO, c: TransferFunctionSISO,
                         lam: float) -> TransferFunctionSISO:
    """Noise-to-error transfer function -h / (1 - lam * c), with no root cancellation.

    The `_error_row` row over its `_cells` polynomial,
    w_num / (s (d_c - lam n_c)), from the `_loops` front.  Where the
    controller does not carry the internal model it is the unreduced
    -n_h d_c / (d_h (d_c - lam n_c)), which keeps the persistent poles, so
    its norms read +inf.

    Raises AlgebraicLoop unless c is strictly proper.
    """
    lams = np.array([float(lam)])
    row, c_den, padded, _ = _loops(h, c.den, c.num, lams)
    row = row or (-npoly.polymul(h.num, c_den), h.den)
    return TransferFunctionSISO(row[0], _cells(row, c_den, padded, lams, 0, [0])[0])


def loop_stable(h: TransferFunctionSISO, c: TransferFunctionSISO, lams) -> np.ndarray:
    """Internal stability of the (h, lam, c) error loop, one flag per lam.

    Two conditions: every root of the loop characteristic polynomial
    d_c - lam n_c lies inside radius 1 - STABILITY_MARGIN (`roots_stable`),
    and the controller carries an internal model of the persistent signal
    dynamics: the factor d_u of the signal model's non-decaying poles
    divides d_c, the rule of `_error_row`.  Exogenous stable signal poles
    are allowed to remain: they shape the noise but decay on their own.
    Both are read from `_loops`, the front of every loop kernel.

    Raises AlgebraicLoop unless c is strictly proper.
    """
    return _loops(h, c.den, c.num, np.atleast_1d(np.asarray(lams, dtype=float)))[3][0]


def is_internally_stable(h: TransferFunctionSISO, c: TransferFunctionSISO,
                         lam: float) -> bool:
    """Whether the (h, lam, c) error loop has no persistent modes; see loop_stable."""
    return bool(loop_stable(h, c, [lam])[0])


def _h2_table(loops: np.ndarray, sp: np.ndarray, jw: float) -> tuple:
    """jw**2 + ||sp[i] / loops[i]||_2^2 per row, by the Astrom-Jury table.

    loops: (N, q + 1) monic ascending denominators; sp: (N, k <= q)
    ascending numerators.  `_schur_cohn` reduces both polynomials,
    written descending, one degree per step, q vector steps for the whole
    stack.  ok is its stability flag: false where a leading coefficient of
    the table does not stay positive, and that row's value is meaningless.
    Returns (values, ok).

    Every H2 cost of the program passes through here.  A value is accurate
    to about 2e3 eps kappa (kappa its componentwise condition number), and
    as the largest pole modulus rho nears 1 the error grows as eps / (1 - rho)^2.
    """
    n, q = loops.shape[0], loops.shape[1] - 1
    # descending, one column per row
    a = loops[:, ::-1].T.copy()
    b = np.zeros((q + 1, n))
    b[q + 1 - sp.shape[1]:] = sp[:, ::-1].T
    ok, total = _schur_cohn(a, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = jw ** 2 + total + b[0] ** 2 / a[0]
    return val, ok


def _h2_cells(w_num: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """||w_num / dens[i]||_2^2 per row of the monic dens, by `_h2_table` of
    w = j_w + its strictly proper part.  Raises NotConverged where the table
    finds a denominator not stable to working precision."""
    deg = dens.shape[1] - 1
    # strictly proper part: w - j_w, whose top coefficient is an exact zero
    jw, size = (w_num[deg], deg) if w_num.size == deg + 1 else (0.0, w_num.size)
    sp = (w_num - jw * dens[:, : w_num.size])[:, :size]
    vals, ok = _h2_table(dens, sp, jw)
    if not ok.all():
        raise NotConverged("H2 table: a denominator is not stable to working precision")
    return vals


def h2_norm_sq_exact(w: TransferFunctionSISO) -> float:
    """Squared H2 norm by the Astrom-Jury table, `_h2_cells` of w.

    Returns +inf unless `roots_stable` finds every pole inside radius
    1 - control_math.STABILITY_MARGIN.  Raises NotConverged where the
    table finds the denominator not stable to working precision.
    """
    if w.is_zero:
        return 0.0
    if not roots_stable(w.den, np.zeros(1), [0.0])[0]:
        return float("inf")
    return float(_h2_cells(w.num, w.den[None])[0])


def h2_norm_sq_freq(w: TransferFunctionSISO, n: int) -> float:
    """Riemann-sum squared H2 norm: mean of |w|^2 over an n-point circle grid.

    Returns +inf when a pole sits within 1e-6 of the unit circle, where
    the uniform sum cannot resolve the integrand.
    """
    if not w.is_zero and w.degree > 0:
        poles = polynomial_roots(w.den)
        if np.max(np.abs(poles)) >= 1.0 - 1e-6:
            return float("inf")
    vals = w(np.exp(1j * circle_angles(n)))
    return float(np.mean(np.abs(vals) ** 2))


def _peak(num: np.ndarray, den: np.ndarray) -> float:
    """Peak of |num / den| over the circle for a stable den.

    Scans the 4096 `CIRCLE_POINTS`, then refines every lobe: each strict
    local maximum k <= 2048 of the samples, taken circularly (real
    coefficients mirror the upper half circle onto the lower), or the
    argmax where there is none.  Each of `_ZOOM_ROUNDS` rounds resamples
    +-one spacing around every bracket's best point at the `_ZOOM`
    offsets, 1/32 of the spacing before, all brackets as one array.  The
    value is |num / den| at a point of the circle, so never above the peak;
    a resonance much narrower than the sample step, on a sloping
    background, can leave no sampled local maximum and go unseen.
    """
    gain = lambda z: np.abs(npoly.polyval(z, num) / npoly.polyval(z, den))
    mags = gain(CIRCLE_POINTS)
    k = np.arange(CIRCLE_ANGLES.size // 2 + 1)
    lobes = k[(mags[k] > mags[k - 1]) & (mags[k] >= mags[k + 1])]
    theta = CIRCLE_ANGLES[lobes if lobes.size else [np.argmax(mags)]]
    best = float(np.max(mags))
    step = 2.0 * np.pi / CIRCLE_ANGLES.size
    for _ in range(_ZOOM_ROUNDS):
        grid = theta[:, None] + step * _ZOOM
        vals = gain(np.exp(1j * grid))
        theta = grid[np.arange(theta.size), np.argmax(vals, axis=1)]
        best, step = max(best, float(np.max(vals))), step / 32.0
    return best


def hinf_norm(w: TransferFunctionSISO) -> float:
    """Peak gain sup |w(e^{i theta})| over the unit circle by `_peak`; +inf
    unless `roots_stable` finds every pole inside radius
    1 - control_math.STABILITY_MARGIN.

    The value is |w| at a point of the circle, so never above the peak; it
    is the peak wherever the highest lobe leaves a local maximum among the
    4096 samples, since `_peak` refines every one.
    """
    if w.is_zero:
        return 0.0
    if not roots_stable(w.den, np.zeros(1), [0.0])[0]:
        return float("inf")
    return _peak(w.num, w.den)


def loop_h2_stack(h: TransferFunctionSISO, den: np.ndarray, nums, lams) -> np.ndarray:
    """Squared H2 norms of the error loops of the controllers nums[i] / den.

    Returns a (controllers x curvatures) array.  Row i belongs to
    c_i = TransferFunctionSISO(nums[i], den).  The flags of `_loops` test
    every loop: where `loop_stable` fails at any curvature the whole row
    reads +inf, the rule of a summed tracking cost, and where `_error_row`
    finds no internal model every row does.  One `_h2_cells` call scores
    the row of every other cell.  Raises NotConverged where the table
    finds a cell not stable to working precision, and AlgebraicLoop unless
    the controllers are strictly proper.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    row, c_den, padded, flags = _loops(h, den, nums, lams)
    h2_sq = np.full(flags.shape, np.inf)
    stable = np.flatnonzero(flags.all(axis=1))
    rows = np.repeat(stable, lams.size)
    if rows.size == 0:
        return h2_sq
    cols = np.tile(np.arange(lams.size), stable.size)
    h2_sq[rows, cols] = _h2_cells(row[0], _cells(row, c_den, padded, lams, rows, cols))
    return h2_sq


def loop_peaks(h: TransferFunctionSISO, c: TransferFunctionSISO, lams) -> np.ndarray:
    """Peak gain of the error loop -h / (1 - lam c), one per lam.

    The flags of `_loops`; `_peak` of each stable cell's coefficient rows,
    the `_trim`med `_error_row` numerator over the `_cells` polynomial (the
    rows `closed_loop_error_tf` holds), with no second test and no transfer
    function per cell, and +inf elsewhere.  Raises AlgebraicLoop unless c
    is strictly proper.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    row, c_den, padded, flags = _loops(h, c.den, c.num, lams)
    peaks = np.full(lams.size, np.inf)
    cols = np.flatnonzero(flags[0])
    if cols.size:
        num = _trim(row[0])
        peaks[cols] = [_peak(num, den) for den in _cells(row, c_den, padded, lams, 0, cols)]
    return peaks
