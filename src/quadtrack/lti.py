"""Scalar discrete-time LTI machinery.

Transfer functions are ratios of real polynomials in z, stored ascending
(``num[k]`` multiplies ``z**k``) with a monic denominator.  State-space
models are single-input single-output quadruples (F, G, H, j).  The unit
circle is the stability boundary; `control_math.STABILITY_MARGIN` separates
"stable" from "not" everywhere in this module.  Peak gains are sampled on
one shared 4096-point circle grid, `CIRCLE_ANGLES` / `CIRCLE_POINTS`.

`loop_stable` answers "is the error loop stable?" for a whole batch of
curvatures at once: the roots of d_c - lam n_c lie inside the circle, and
the controller carries the internal model, whose one rule is `_error_row`'s
division: the factor d_u of the signal's persistent poles divides d_c up
to roundoff.  Every cost of an error loop -h / (1 - lam c) is read from
that row, with no root cancellation: every summed H2 cost from one kernel,
`loop_h2_stack`, which scores all the stable cells of a (controllers x
curvatures) grid with one Astrom-Jury table, `_h2_table`, and every peak
gain from `loop_peaks`.  The cancelled form `closed_loop_error_tf` and the
one-row `h2_norm_sq_exact` stay public as the tests' per-curvature oracle.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .control_math import STABILITY_MARGIN, polynomial_roots
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
    "loop_stable",
    "loop_h2_stack",
    "loop_peaks",
]

CANCEL_TOL = 1e-9


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


def _match_roots(num_roots, den_roots, tol):
    """Greedy pairing of nearby roots; returns (matched_num, matched_den)."""
    den_order = sorted(range(len(den_roots)), key=lambda i: (den_roots[i].real, den_roots[i].imag))
    free = list(range(len(num_roots)))
    m_num, m_den = [], []
    for i in den_order:
        if not free:
            break
        dists = [abs(num_roots[k] - den_roots[i]) for k in free]
        kbest = int(np.argmin(dists))
        if dists[kbest] <= tol:
            m_num.append(num_roots[free[kbest]])
            m_den.append(den_roots[i])
            free.pop(kbest)
    return m_num, m_den


def _deflate(coeffs, roots):
    """Divide out the monic factor built from `roots`; None if it fails."""
    factor = npoly.polyfromroots(np.asarray(roots, dtype=complex))
    quo, rem = npoly.polydiv(coeffs.astype(complex), factor)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if np.max(np.abs(rem)) > 1e-8 * scale:
        return None
    if np.max(np.abs(quo.imag)) > 1e-8 * max(1.0, float(np.max(np.abs(quo.real)))):
        return None
    return quo.real


def _cancel_common_roots(num, den, tol=CANCEL_TOL, num_roots=None, den_roots=None):
    """Remove root pairs shared by num and den up to `tol`.

    Root lists may be supplied when the caller knows them factor-wise
    (more accurate than re-solving the multiplied-out polynomials).
    Returns the inputs unchanged when nothing cancels, so exact
    coefficient identities survive the no-op path.
    """
    if len(num) < 2 or len(den) < 2:
        return num, den
    if num_roots is None:
        num_roots = list(polynomial_roots(num))
    if den_roots is None:
        den_roots = list(polynomial_roots(den))
    m_num, m_den = _match_roots(list(num_roots), list(den_roots), tol)
    if not m_num:
        return num, den
    new_num = _deflate(num, m_num)
    new_den = _deflate(den, m_den)
    if new_num is None or new_den is None:
        return num, den
    return _trim(new_num), _trim(new_den)


class TransferFunctionSISO:
    """Proper rational function b(z)/a(z) with real coefficients.

    The denominator is normalized monic and stored common root pairs are
    cancelled at tolerance 1e-9, so two functions built from different
    factorizations of the same reduced ratio compare equal coefficient-wise
    up to roundoff.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den, cancel: bool = True):
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
        elif cancel:
            num, den = _cancel_common_roots(num, den)
            lead = den[-1]
            num = num / lead
            den = den / lead
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

    def zeros(self) -> np.ndarray:
        if self.is_zero or self.num.size == 1:
            return np.zeros(0, dtype=complex)
        return polynomial_roots(self.num)

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


def _loop_char(c: TransferFunctionSISO, lam: float) -> np.ndarray:
    """Characteristic polynomial d_c - lam * n_c of the feedback loop."""
    return _trim(npoly.polysub(c.den, lam * c.num))


def _shares_den(h: TransferFunctionSISO, den: np.ndarray) -> bool:
    """Whether a controller denominator equals d_h coefficient-wise (the filter tracker's case)."""
    den_scale = float(np.max(np.abs(h.den)))
    return den.size == h.den.size and np.allclose(den, h.den, rtol=0.0, atol=1e-12 * den_scale)


def closed_loop_error_tf(h: TransferFunctionSISO, c: TransferFunctionSISO,
                         lam: float) -> TransferFunctionSISO:
    """Noise-to-error transfer function -h / (1 - lam * c).

    Assembled as -n_h d_c / (d_h (d_c - lam n_c)) with common factors
    cancelled.  When the controller reuses the signal model denominator
    (d_c == d_h coefficient-wise) the duplicate factor is cancelled
    symbolically, which keeps repeated-root cases exact.

    Raises AlgebraicLoop unless c is strictly proper.
    """
    if not c.is_strictly_proper:
        raise AlgebraicLoop("controller must be strictly proper")
    loop = _loop_char(c, lam)
    if _shares_den(h, c.den):
        return TransferFunctionSISO(-h.num, loop)
    num_raw = -npoly.polymul(h.num, c.den)
    den_raw = npoly.polymul(h.den, loop)
    if h.is_zero:
        return TransferFunctionSISO(np.zeros(1), den_raw)
    num_hint = np.concatenate([np.atleast_1d(h.zeros()), np.atleast_1d(c.poles())])
    den_hint = np.concatenate([
        np.atleast_1d(h.poles()),
        polynomial_roots(loop) if loop.size > 1 else np.zeros(0, dtype=complex),
    ])
    num, den = _cancel_common_roots(_trim(num_raw), _trim(den_raw),
                                    num_roots=num_hint, den_roots=den_hint)
    return TransferFunctionSISO(num, den, cancel=False)


def _loop_roots(den: np.ndarray, nums: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Roots of den(z) - lam * nums(z) per lam, as `polynomial_roots` finds them.

    den is monic of degree q; nums is a numerator, or a stack of them one
    per row, zero-padded to width at most q.  The companion matrices are
    filled as numpy's `polycompanion` does and factored in one batched
    eigenvalue call, so each row, once sorted, is `polynomial_roots` of its
    loop bit for bit.  Shape nums.shape[:-1] + (lams.size, q), unsorted.
    """
    q = den.size - 1
    coeffs = np.tile(den[:q], nums.shape[:-1] + (lams.size, 1))
    coeffs[..., : nums.shape[-1]] -= lams[:, None] * nums[..., None, :]
    if q < 2:
        return -coeffs  # `polyroots`' closed form -c0 / c1; a constant loop has no roots
    comp = np.zeros(coeffs.shape + (q,))
    comp[..., 1:, :-1] = np.eye(q - 1)
    comp[..., -1] -= coeffs
    return np.linalg.eigvals(comp)


def roots_stable(den: np.ndarray, num: np.ndarray, lams) -> np.ndarray:
    """Per lam, whether every root of den(z) - lam * num(z) is inside the circle.

    The modulus test over `_loop_roots`.  A 2-D num is a stack of
    numerators; the flags then have one row per numerator.
    """
    roots = _loop_roots(den, num, np.asarray(lams, dtype=float))
    return (np.abs(roots) < 1.0 - STABILITY_MARGIN).all(axis=-1)


def factor_poles(h: TransferFunctionSISO) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split h = n / (d_u d_s) by pole modulus at the stability margin.

    Returns (n, d_u, d_s) with d_u, d_s monic; d_u collects every pole of
    modulus >= 1 - STABILITY_MARGIN and reduces to the constant 1 when h
    is stable.
    A stable h keeps its own denominator as d_s: rebuilding it from its
    roots would perturb the coefficients at roundoff level, and synthesis
    results follow those coefficients.
    """
    poles = h.poles().astype(complex)
    unstable = np.abs(poles) >= 1.0 - STABILITY_MARGIN
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


def loop_stable(h: TransferFunctionSISO, c: TransferFunctionSISO, lams) -> np.ndarray:
    """Internal stability of the (h, lam, c) error loop, one flag per lam.

    Two conditions, both on the assembly before any cancellation:
    every root of the loop characteristic polynomial d_c - lam n_c lies
    strictly inside the unit circle, and the controller carries an
    internal model of the persistent signal dynamics: the factor d_u of
    the signal model's non-decaying poles divides d_c, the rule of
    `_error_row`.  Exogenous stable signal poles are allowed to remain:
    they shape the noise but decay on their own.  The second condition
    does not depend on lam, so it is tested once.

    Raises AlgebraicLoop unless c is strictly proper.
    """
    if not c.is_strictly_proper:
        raise AlgebraicLoop("controller must be strictly proper")
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if _error_row(h, c.den) is None:
        return np.zeros(lams.size, dtype=bool)
    return roots_stable(c.den, c.num, lams)


def is_internally_stable(h: TransferFunctionSISO, c: TransferFunctionSISO,
                         lam: float) -> bool:
    """Whether the (h, lam, c) error loop has no persistent modes; see loop_stable."""
    return bool(loop_stable(h, c, [lam])[0])


def _h2_table(loops: np.ndarray, sp: np.ndarray, jw: float) -> tuple:
    """jw**2 + ||sp[i] / loops[i]||_2^2 per row, by the Astrom-Jury table.

    loops: (N, q + 1) monic ascending denominators; sp: (N, k <= q)
    ascending numerators.  The recursion of Astrom, Jury and Agniel (IEEE
    TAC 15(4), 1970) reduces both polynomials, written descending, one
    degree per step, q vector steps for the whole stack.  A loop is stable
    exactly when every leading coefficient of the table stays positive;
    ok is false where one does not, and that row's value is meaningless.
    Returns (values, ok).

    Every H2 cost of the program passes through here.  A value is accurate
    to about 2e3 eps kappa (kappa its componentwise condition number), and
    as the largest pole modulus rho nears 1 the error grows as eps / (1 - rho)^2.
    """
    n, q = loops.shape[0], loops.shape[1] - 1
    a = loops[:, ::-1].copy()
    b = np.zeros((n, q + 1))
    b[:, q + 1 - sp.shape[1]:] = sp[:, ::-1]
    total = np.zeros(n)
    ok = np.ones(n, dtype=bool)
    # a row that fails the sign test may divide by zero or overflow later on
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(q, 0, -1):
            a0 = a[:, 0]
            alpha = a[:, k] / a0
            beta = b[:, k] / a0
            total += a0 * beta * beta
            rev = a[:, k:0:-1]
            b[:, :k] -= beta[:, None] * rev
            a[:, :k] -= alpha[:, None] * rev
            ok &= a[:, 0] > 0.0
        val = jw ** 2 + total + b[:, 0] ** 2 / a[:, 0]
    return val, ok


def h2_norm_sq_exact(w: TransferFunctionSISO) -> float:
    """Squared H2 norm by the Astrom-Jury table.

    Returns +inf when any pole has modulus >= 1 - control_math.STABILITY_MARGIN.
    For w = j_w + strictly proper part, the value is `_h2_table` of that
    part.  Raises NotConverged where the table finds the denominator not
    stable to working precision.
    """
    if w.is_zero:
        return 0.0
    deg = w.degree
    if deg == 0:
        return float(w.num[0] ** 2)
    poles = polynomial_roots(w.den)
    if np.max(np.abs(poles)) >= 1.0 - STABILITY_MARGIN:
        return float("inf")
    jw = w.num[deg] if w.num.size == deg + 1 else 0.0
    sp_num = _trim(npoly.polysub(w.num, jw * w.den))
    if TransferFunctionSISO._is_zero_poly(sp_num):
        return float(jw ** 2)
    val, ok = _h2_table(w.den[None], sp_num[None], jw)
    if not ok[0]:
        raise NotConverged("H2 table: denominator not stable to working precision")
    return float(val[0])


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


def _golden_max(f, lo, hi):
    """Golden-section maximization of a unimodal bracket."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(fc, fd)


def hinf_norm(w: TransferFunctionSISO) -> float:
    """Peak gain sup |w(e^{i theta})| over the unit circle.

    Search on the 4096 `CIRCLE_POINTS`, then golden-section refinement around
    the grid argmax, accurate to a relative 1e-6.  Returns +inf when any
    pole has modulus >= 1 - control_math.STABILITY_MARGIN.
    """
    if w.is_zero:
        return 0.0
    if w.degree > 0:
        poles = polynomial_roots(w.den)
        if np.max(np.abs(poles)) >= 1.0 - STABILITY_MARGIN:
            return float("inf")
    mags = np.abs(w(CIRCLE_POINTS))
    k = int(np.argmax(mags))
    step = 2.0 * np.pi / CIRCLE_ANGLES.size
    f = lambda t: float(np.abs(w(np.exp(1j * t))))
    refined = _golden_max(f, CIRCLE_ANGLES[k] - step, CIRCLE_ANGLES[k] + step)
    return max(float(mags[k]), refined)


def loop_h2_stack(h: TransferFunctionSISO, den: np.ndarray, nums, lams) -> np.ndarray:
    """Squared H2 norms of the error loops of the controllers nums[i] / den.

    Returns a (controllers x curvatures) array.  Row i belongs to
    c_i = TransferFunctionSISO(nums[i], den, cancel=False).  One
    `roots_stable` call factors every loop for the row flags: where
    `loop_stable` fails at any curvature the whole row reads +inf, the
    rule of a summed tracking cost.  One `_h2_table` call scores the
    `_error_row` of every other cell; where `_error_row` finds no internal
    model every row reads +inf.  Raises NotConverged where the table finds
    a cell not stable to working precision, and AlgebraicLoop unless the
    controllers are strictly proper.
    """
    den = np.asarray(den, dtype=float)
    nums = np.atleast_2d(np.asarray(nums, dtype=float))
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    cs = [TransferFunctionSISO(num, den, cancel=False) for num in nums]
    if not all(c.is_strictly_proper for c in cs):
        raise AlgebraicLoop("controller must be strictly proper")
    h2_sq = np.full((len(cs), lams.size), np.inf)
    c_den, q = cs[0].den, cs[0].degree
    row = _error_row(h, c_den)
    if row is None:
        return h2_sq
    padded = np.zeros((len(cs), q))
    for i, c in enumerate(cs):
        if not c.is_zero:
            padded[i, : c.num.size] = c.num
    stable = np.flatnonzero(roots_stable(c_den, padded, lams).all(axis=1))
    rows = np.repeat(stable, lams.size)
    if rows.size == 0:
        return h2_sq
    cols = np.tile(np.arange(lams.size), len(stable))
    w_num, s = row
    dens = np.tile(c_den, (rows.size, 1))
    dens[:, :q] -= lams[cols, None] * padded[rows]
    if s.size > 1:
        dens = np.array([npoly.polymul(s, loop) for loop in dens])
    deg = dens.shape[1] - 1
    # strictly proper part: w - j_w, whose top coefficient is an exact zero
    jw, size = (w_num[deg], deg) if w_num.size == deg + 1 else (0.0, w_num.size)
    sp = (w_num - jw * dens[:, : w_num.size])[:, :size]
    vals, ok = _h2_table(dens, sp, jw)
    if not ok.all():
        raise NotConverged("H2 table: an error loop is not stable to working precision")
    h2_sq[rows, cols] = vals
    return h2_sq


def loop_peaks(h: TransferFunctionSISO, c: TransferFunctionSISO, lams) -> np.ndarray:
    """Peak gain of the error loop -h / (1 - lam c), one per lam.

    `hinf_norm` of the `_error_row` of each loop where `loop_stable`
    holds, +inf where it does not.  Raises AlgebraicLoop unless c is
    strictly proper.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    stable = loop_stable(h, c, lams)
    peaks = np.full(lams.size, np.inf)
    if stable.any():
        w_num, s = _error_row(h, c.den)
        for k in np.flatnonzero(stable):
            den = npoly.polymul(s, _loop_char(c, float(lams[k])))
            peaks[k] = hinf_norm(TransferFunctionSISO(w_num, den, cancel=False))
    return peaks
