"""Scalar discrete-time LTI machinery.

Transfer functions are ratios of real polynomials in z, stored ascending
(``num[k]`` multiplies ``z**k``) with a monic denominator.  State-space
models are single-input single-output quadruples (F, G, H, j).  The unit
circle is the stability boundary; a margin of 1e-9 separates "stable"
from "not" everywhere in this module.

`loop_stable` and `loop_norms` answer "is the error loop stable, and what
are its norms?" for a whole batch of curvatures at once; every cost in
the package goes through them.  The scalar routines they call
(`closed_loop_error_tf`, `h2_norm_sq_exact`, `hinf_norm`) stay public as
the per-curvature building blocks and test references.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .control_math import polynomial_roots, solve_discrete_lyapunov
from .errors import AlgebraicLoop, DimensionMismatch

__all__ = [
    "TransferFunctionSISO",
    "StateSpaceSISO",
    "FrequencyGrid",
    "observable_canonical",
    "ss_to_tf",
    "tf_to_ss",
    "closed_loop_error_tf",
    "h2_norm_sq_exact",
    "h2_norm_sq_freq",
    "hinf_norm",
    "is_internally_stable",
    "loop_stable",
    "loop_norms",
]

STABILITY_MARGIN = 1e-9
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
        return cls(np.asarray(d["num"], dtype=float), np.asarray(d["den"], dtype=float))

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


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform unit-circle grid theta_k = -pi + 2 pi k / n, k = 0..n-1."""

    n: int = 4096

    def __post_init__(self):
        if self.n < 64 or (self.n & (self.n - 1)) != 0:
            raise ValueError("grid size must be a power of two, at least 64")

    def angles(self) -> np.ndarray:
        return -np.pi + 2.0 * np.pi * np.arange(self.n) / self.n

    def points(self) -> np.ndarray:
        return np.exp(1j * self.angles())


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
    """Controllable-canonical realization of a strictly proper function."""
    if not tf.is_strictly_proper:
        raise ValueError("realization requires a strictly proper transfer function")
    q = tf.degree
    if q < 1:
        raise ValueError("cannot realize a constant")
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
    den_scale = float(np.max(np.abs(h.den)))
    if c.den.size == h.den.size and np.allclose(c.den, h.den, rtol=0.0, atol=1e-12 * den_scale):
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


def roots_stable(den: np.ndarray, num: np.ndarray, lams) -> np.ndarray:
    """Per lam, whether every root of den(z) - lam * num(z) is inside the circle.

    den is monic with degree strictly above deg(num), so each family
    member is monic of fixed degree; the companion matrices are stacked
    and factored in one batched eigenvalue call.
    """
    lams = np.asarray(lams, dtype=float)
    q = den.size - 1
    if q == 0:
        return np.ones(lams.size, dtype=bool)
    coeffs = np.tile(den[:q], (lams.size, 1))
    coeffs[:, : num.size] -= np.outer(lams, num)
    comp = np.zeros((lams.size, q, q))
    comp[:, 1:, :-1] = np.eye(q - 1)
    comp[:, :, -1] = -coeffs
    ev = np.linalg.eigvals(comp)
    return np.max(np.abs(ev), axis=-1) < 1.0 - STABILITY_MARGIN


def _carries_internal_model(h: TransferFunctionSISO, c: TransferFunctionSISO) -> bool:
    """Whether every non-decaying pole of h is matched by a root of n_h d_c."""
    bad = [r for r in np.atleast_1d(h.poles()) if abs(r) >= 1.0 - STABILITY_MARGIN]
    if not bad:
        return True
    candidates = list(np.atleast_1d(h.zeros())) + list(np.atleast_1d(c.poles()))
    _, matched_bad = _match_roots(candidates, bad, CANCEL_TOL)
    return len(matched_bad) == len(bad)


def loop_stable(h: TransferFunctionSISO, c: TransferFunctionSISO, lams) -> np.ndarray:
    """Internal stability of the (h, lam, c) error loop, one flag per lam.

    Two conditions, both on the assembly before any cancellation:
    every root of the loop characteristic polynomial d_c - lam n_c lies
    strictly inside the unit circle, and every non-decaying pole of the
    signal model is cancelled (within 1e-9) by a matching root of
    n_h d_c, i.e. the controller carries an internal model of the
    persistent signal dynamics.  Exogenous stable signal poles are
    allowed to remain: they shape the noise but decay on their own.
    The second condition does not depend on lam, so it is tested once.

    Raises AlgebraicLoop unless c is strictly proper.
    """
    if not c.is_strictly_proper:
        raise AlgebraicLoop("controller must be strictly proper")
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not _carries_internal_model(h, c):
        return np.zeros(lams.size, dtype=bool)
    return roots_stable(c.den, c.num, lams)


def is_internally_stable(h: TransferFunctionSISO, c: TransferFunctionSISO,
                         lam: float) -> bool:
    """Whether the (h, lam, c) error loop has no persistent modes; see loop_stable."""
    return bool(loop_stable(h, c, [lam])[0])


def h2_norm_sq_exact(w: TransferFunctionSISO) -> float:
    """Squared H2 norm via the controllability Gramian.

    Returns the +inf flag when any pole has modulus >= 1 - 1e-9.
    For w = j_w + strictly proper part realized as (F, G, H), the value
    is j_w**2 + H Sigma H^T with Sigma the Gramian from the discrete
    Lyapunov equation.
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
    sp = TransferFunctionSISO(sp_num, w.den, cancel=False)
    ss = tf_to_ss(sp)
    sigma = solve_discrete_lyapunov(ss.F, np.outer(ss.G, ss.G))
    val = float(jw ** 2 + ss.H @ sigma @ ss.H)
    return max(val, 0.0)


def h2_norm_sq_freq(w: TransferFunctionSISO, grid: FrequencyGrid) -> float:
    """Riemann-sum squared H2 norm: mean of |w|^2 over the grid.

    Returns +inf when a pole sits within 1e-6 of the unit circle, where
    the uniform sum cannot resolve the integrand.
    """
    if not w.is_zero and w.degree > 0:
        poles = polynomial_roots(w.den)
        if np.max(np.abs(poles)) >= 1.0 - 1e-6:
            return float("inf")
    vals = w(grid.points())
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


def hinf_norm(w: TransferFunctionSISO, grid: FrequencyGrid | None = None) -> float:
    """Peak gain sup |w(e^{i theta})| over the unit circle.

    Coarse grid search (4096 points by default) followed by golden-section
    refinement around the grid argmax; the refined peak is accurate to a
    relative 1e-6.  Returns +inf when any pole has modulus >= 1 - 1e-9.
    """
    if w.is_zero:
        return 0.0
    if w.degree > 0:
        poles = polynomial_roots(w.den)
        if np.max(np.abs(poles)) >= 1.0 - STABILITY_MARGIN:
            return float("inf")
    if grid is None:
        grid = FrequencyGrid(4096)
    theta = grid.angles()
    mags = np.abs(w(np.exp(1j * theta)))
    k = int(np.argmax(mags))
    step = 2.0 * np.pi / grid.n
    f = lambda t: float(np.abs(w(np.exp(1j * t))))
    refined = _golden_max(f, theta[k] - step, theta[k] + step)
    return max(float(mags[k]), refined)


def loop_norms(h: TransferFunctionSISO, c: TransferFunctionSISO, lams,
               peak: bool = False) -> tuple:
    """Squared H2 norm and, with `peak`, the peak gain of the error loop per lam.

    Returns (h2_sq, hinf), arrays aligned with lams that read +inf
    wherever `loop_stable` is false; hinf is None unless `peak`.  At
    stable points the values are those of `h2_norm_sq_exact` and
    `hinf_norm` on `closed_loop_error_tf`.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    h2_sq = np.full(lams.size, np.inf)
    hinf = np.full(lams.size, np.inf) if peak else None
    for i in np.flatnonzero(loop_stable(h, c, lams)):
        w = closed_loop_error_tf(h, c, float(lams[i]))
        h2_sq[i] = h2_norm_sq_exact(w)
        if peak:
            hinf[i] = hinf_norm(w)
    return h2_sq, hinf
