"""Shared numerical kernels: matrix equations, polynomial roots, seeded RNG streams.

All routines work on plain float64 numpy arrays.  Polynomials are 1-D
coefficient arrays in ascending powers, `p[k]` multiplying ``z**k``.
"""

import numpy as np

from .errors import DimensionMismatch, NotConverged, SingularInnovation

__all__ = [
    "STABILITY_MARGIN",
    "RngStream",
    "solve_discrete_lyapunov",
    "solve_dare",
    "spectral_radius",
    "polynomial_roots",
    "root_centroids",
    "random_orthogonal",
    "chebyshev_grid",
]

# A pole, or a spectral radius, counts as stable only below 1 - STABILITY_MARGIN;
# every stability decision in the package compares against this one value.
STABILITY_MARGIN = 1e-9

_MASK64 = (1 << 64) - 1


class RngStream:
    """Counter-based random stream with explicit splitting.

    Wraps a Philox-4x64 bit generator keyed by ``(seed, index)``, so a
    stream is fully determined by the pair: identical pairs replay the
    same draws, distinct indices give statistically independent streams.
    Callers that need several independent sources derive them by index
    offset (see :meth:`split`); no hidden global state is involved.
    """

    def __init__(self, seed: int, index: int = 0):
        self.seed = int(seed) & _MASK64
        self.index = int(index) & _MASK64
        key = np.array([self.seed, self.index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, offset: int) -> "RngStream":
        """Fresh stream with the same seed and index shifted by `offset`."""
        return RngStream(self.seed, self.index + int(offset))

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, index={self.index})"


def _square(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    a = _square(a, "a")
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"eigenvalue iteration failed: {exc}") from exc
    return float(np.max(np.abs(ev))) if ev.size else 0.0


def solve_discrete_lyapunov(a, q) -> np.ndarray:
    """Solve ``A P A^T + Q - P = 0`` for symmetric P.

    The direct method: one `np.linalg.solve` of the Kronecker system
    (I - a (x) a) vec(P) = vec(Q), then symmetrization.

    Parameters
    ----------
    a : (m, m) array, spectral radius below 1 - STABILITY_MARGIN.
    q : (m, m) array, symmetric.

    Returns
    -------
    P : (m, m) symmetric array with relative residual at most 1e-10.

    Raises
    ------
    NotConverged
        If the spectral radius is not below the margin, or the solve fails
        or leaves a residual above 1e-10.
    """
    a = _square(a, "a")
    q = _square(q, "q")
    if a.shape != q.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {q.shape}")
    if spectral_radius(a) >= 1.0 - STABILITY_MARGIN:
        raise NotConverged("spectral radius not below the margin")
    m = a.shape[0]
    try:
        x = np.linalg.solve(np.eye(m * m) - np.kron(a, a), q.reshape(m * m))
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"lyapunov solve failed: {exc}") from exc
    x = x.reshape(m, m)
    x = 0.5 * (x + x.T)
    res = np.linalg.norm(a @ x @ a.T + q - x, "fro")
    scale = max(1.0, np.linalg.norm(x, "fro"), np.linalg.norm(q, "fro"))
    if not np.isfinite(res) or res > 1e-10 * scale:
        raise NotConverged(f"lyapunov residual {res:.3e} above tolerance")
    return x


def _dare_rhs(p, f, g, h, j, sigma2):
    """One Riccati difference-equation step for the filtering DARE."""
    innov = float(h @ p @ h) + sigma2 * j * j
    if innov <= 1e-14:
        raise SingularInnovation(f"innovation variance {innov:.3e} <= 1e-14")
    gain = (f @ p @ h + sigma2 * g * j) / innov
    p_next = f @ p @ f.T + sigma2 * np.outer(g, g) - innov * np.outer(gain, gain)
    return 0.5 * (p_next + p_next.T)


def _transmission_zeros(f, g, h, j) -> np.ndarray:
    """Finite zeros of ``h (zI - f)^-1 g + j``.

    With j != 0 they are the eigenvalues of f - g h / j.  With j = 0 they
    are the roots of the numerator det(zI - f + g h) - det(zI - f); its
    leading coefficient cancels exactly, and `np.roots` strips such exact
    leading zeros.  Zeros beyond modulus 1e8 are indistinguishable from
    infinite ones at working precision and are treated as such.
    """
    if j != 0.0:
        # a j so small that g h / j overflows leaves inf entries, which
        # eigvals refuses with LinAlgError; the DARE then iterates instead
        with np.errstate(over="ignore"):
            w = np.linalg.eigvals(f - np.outer(g, h) / j)
    else:
        w = np.roots(np.poly(f - np.outer(g, h)) - np.poly(f))
    w = w[np.isfinite(w)]
    return w[np.abs(w) <= 1e8]


def _output_injection_gain(f, h, poles) -> np.ndarray:
    """Gain k with eig(f - k h) = poles, for an observable pair (h, f).

    Ackermann's formula in observer form: k = q(F) O^-1 e_m with q the
    desired characteristic polynomial and O the observability matrix.
    """
    m = f.shape[0]
    q = np.poly(poles)
    if np.iscomplexobj(q):
        if np.max(np.abs(q.imag)) > 1e-8 * max(1.0, float(np.max(np.abs(q.real)))):
            raise NotConverged("target pole set is not conjugate-symmetric")
        q = q.real
    obs = np.empty((m, m))
    row = h.copy()
    for i in range(m):
        obs[i] = row
        row = row @ f
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    x = np.linalg.solve(obs, rhs)
    eye = np.eye(m)
    qf = q[0] * eye
    for c in q[1:]:
        qf = qf @ f + c * eye
    return qf @ x


def _dare_spectral_candidate(f, g, h, j, sigma2):
    """Closed-form DARE solution via spectral factorization, or None.

    The steady-state predictor's closed-loop poles are the model's
    transmission zeros reflected into the open unit disk, with any
    deficit filled at the origin; the unique gain placing them there
    determines P through a discrete Lyapunov equation.  Returns None
    when the construction does not apply (zeros on the unit circle with
    surviving noise, unobservable pair, failed verification); callers
    then fall back to the difference-equation iteration.
    """
    m = f.shape[0]
    try:
        zeros = _transmission_zeros(f, g, h, j)
        if zeros.size > m:
            return None
        refl = zeros.copy()
        outside = np.abs(refl) > 1.0
        refl[outside] = 1.0 / np.conj(refl[outside])
        poles = np.concatenate([refl, np.zeros(m - refl.size)])
        k = _output_injection_gain(f, h, poles)
    except (np.linalg.LinAlgError, NotConverged):
        return None
    a_cl = f - np.outer(k, h)
    q_noise = sigma2 * np.outer(g - j * k, g - j * k)
    if spectral_radius(a_cl) < 1.0 - STABILITY_MARGIN:
        try:
            p = solve_discrete_lyapunov(a_cl, q_noise)
        except NotConverged:
            return None
    elif np.linalg.norm(q_noise, "fro") <= 1e-12 * sigma2 * max(1.0, float(g @ g) + j * j):
        # circle zeros with fully cancelled noise: the weak solution is zero
        p = np.zeros((m, m))
    else:
        return None
    try:
        res = np.linalg.norm(_dare_rhs(p, f, g, h, j, sigma2) - p, "fro")
    except SingularInnovation:
        return None
    if not np.isfinite(res) or res > 1e-10 * max(1.0, np.linalg.norm(p, "fro")):
        return None
    return p


# Iteration cap of the fallback Riccati recursion.
_DARE_MAX_ITER = 100_000


def _dare_iterate(f, g, h, j, sigma2) -> np.ndarray:
    """Riccati difference recursion from P0 = s2 G G^T.

    Sublinear on degenerate inputs (circle zeros) and non-convergent when
    the stabilizing solution has higher rank than P0, so this only backs
    up the spectral construction; the caller verifies the residual.
    """
    p = sigma2 * np.outer(g, g)
    for _ in range(_DARE_MAX_ITER):
        p_next = _dare_rhs(p, f, g, h, j, sigma2)
        delta = np.linalg.norm(p_next - p, "fro")
        p = p_next
        if delta <= 1e-10 * max(1.0, np.linalg.norm(p, "fro")):
            break
    return p


def solve_dare(f, g, h, j, sigma2) -> np.ndarray:
    """Steady-state filtering Riccati equation with shared process/output noise.

    Solves ``P = F P F^T + s2 G G^T - (F P H^T + s2 G j)(H P H^T + s2 j^2)^-1
    (F P H^T + s2 G j)^T`` for the stabilizing P.  With one noise source
    driving both state and output, the decorrelated process noise
    ``Q - S R^-1 S^T`` vanishes identically, so the plain difference
    recursion preserves the rank of its starting matrix and cannot reach
    the solution whenever the model has zeros outside the unit circle
    (where P has full rank).  The solver therefore works through the
    spectral factorization: closed-loop predictor poles are the
    transmission zeros reflected into the unit disk (deficit filled at
    the origin), the gain placing them comes from Ackermann's formula,
    and P follows from a discrete Lyapunov equation.  Inputs outside
    that construction's reach fall back to the difference recursion,
    which converges sublinearly to the weak solution when one exists.
    Either way the fixed-point residual is verified before returning.

    Parameters
    ----------
    f : (m, m) state matrix; (h, f) must be detectable.
    g : (m,) input vector.
    h : (m,) output vector.
    j : direct feedthrough scalar.
    sigma2 : noise variance, positive.

    Returns
    -------
    P : (m, m) symmetric PSD solution with relative residual at most 1e-10.

    Raises
    ------
    SingularInnovation
        If the innovation variance H P H^T + s2 j^2 falls to 1e-14 or below.
    NotConverged
        If no candidate meets the residual tolerance.
    """
    f = _square(f, "f")
    m = f.shape[0]
    g = np.asarray(g, dtype=float).reshape(m)
    h = np.asarray(h, dtype=float).reshape(m)
    sigma2 = float(sigma2)
    j = float(j)
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")

    p = _dare_spectral_candidate(f, g, h, j, sigma2)
    if p is None:
        p = _dare_iterate(f, g, h, j, sigma2)

    res = np.linalg.norm(_dare_rhs(p, f, g, h, j, sigma2) - p, "fro")
    scale = max(1.0, np.linalg.norm(p, "fro"))
    if not np.isfinite(res) or res > 1e-10 * scale:
        raise NotConverged(f"riccati residual {res:.3e} above tolerance")
    return p


def polynomial_roots(coeffs) -> np.ndarray:
    """Roots of a real polynomial given in ascending coefficient order.

    Uses the companion-matrix eigenvalues of the monic normalization.
    The input must have degree at least one after trimming trailing
    (highest-power) zero coefficients.
    """
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.ndim != 1:
        raise DimensionMismatch("coefficients must be a 1-D array")
    # trim exact-zero leading coefficients
    nz = np.nonzero(c)[0]
    if nz.size == 0 or nz[-1] == 0:
        raise ValueError("polynomial must have degree >= 1")
    c = c[: nz[-1] + 1]
    try:
        return np.polynomial.polynomial.polyroots(c)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"companion eigenvalue iteration failed: {exc}") from exc


def root_centroids(roots) -> np.ndarray:
    """Each root replaced by the centroid of its cluster.

    Computed roots within 1e-5 of one another, chained, form a cluster: a
    k-fold root comes out about eps^(1/k) off (2.7e-4 for (z - 1)^4), but
    the mean of its cluster is accurate to roundoff, so the centroid's
    modulus classifies a multiple root where the roots' own moduli cannot.
    """
    roots = np.asarray(roots, dtype=complex)
    near = np.abs(roots[:, None] - roots[None, :]) <= 1e-5
    for _ in range(roots.size.bit_length()):  # squaring doubles the chains' reach
        near = near @ near
    return (near @ roots) / near.sum(axis=1)


def chebyshev_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n Chebyshev-spaced points on [lo, hi], endpoints included, ascending.

    Clusters toward the interval ends, where worst cases of smooth
    families tend to sit.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return np.array([0.5 * (lo + hi)])
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid - half * np.cos(np.pi * np.arange(n) / (n - 1))


def random_orthogonal(n: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed orthogonal matrix from a QR factorization.

    The R-diagonal sign fix makes the distribution exactly Haar rather
    than QR-convention-dependent.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    z = rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.sign(np.diag(r))
    d[d == 0.0] = 1.0
    return q * d
