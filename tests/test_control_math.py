"""Numerical kernel tests: RNG streams, matrix equations, roots, grids."""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from quadtrack.control_math import (
    RngStream,
    chebyshev_grid,
    polynomial_roots,
    random_orthogonal,
    root_centroids,
    solve_dare,
    solve_discrete_lyapunov,
    spectral_radius,
)
from quadtrack.control_math import _dare_spectral_candidate, _transmission_zeros
from quadtrack.errors import DimensionMismatch, NotConverged


def companion(coeffs):
    """Companion matrix of an ascending monic polynomial."""
    a = np.asarray(coeffs, dtype=float)
    m = a.size - 1
    f = np.zeros((m, m))
    f[0, :] = -a[-2::-1] / a[-1]
    f[1:, :-1] = np.eye(m - 1)
    return f


def dare_rhs(p, f, g, h, j, s2):
    """Independent one-step Riccati map, written from the defining equation."""
    ry = float(h @ p @ h) + s2 * j * j
    k = (f @ p @ h + s2 * g * j) / ry
    return f @ p @ f.T + s2 * np.outer(g, g) - ry * np.outer(k, k)


def dare_gain(p, f, g, h, j, s2):
    ry = float(h @ p @ h) + s2 * j * j
    return (f @ p @ h + s2 * g * j) / ry


# ---------------------------------------------------------------- RngStream


def test_rng_stream_replays_identically():
    a = RngStream(42, 3).standard_normal(100)
    b = RngStream(42, 3).standard_normal(100)
    assert np.array_equal(a, b)


def test_rng_stream_distinct_indices_differ():
    a = RngStream(42, 0).standard_normal(100)
    b = RngStream(42, 1).standard_normal(100)
    assert not np.array_equal(a, b)


def test_rng_stream_split_is_index_offset():
    base = RngStream(7, 10)
    assert base.split(5).index == 15
    direct = RngStream(7, 15).standard_normal(8)
    assert np.array_equal(base.split(5).standard_normal(8), direct)


def test_rng_stream_uniform_respects_bounds():
    u = RngStream(0, 0).uniform(2.0, 5.0, 1000)
    assert np.all(u >= 2.0) and np.all(u < 5.0)


# ------------------------------------------------------------------ basics


def test_spectral_radius_diagonal():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9, abs=1e-9)


def test_spectral_radius_double_root_companion():
    f = companion(np.polynomial.polynomial.polyfromroots([0.975, 0.975]))
    assert spectral_radius(f) == pytest.approx(0.975, abs=1e-9)


def test_spectral_radius_circle_resonance():
    f = companion([1.0, -2.0 * np.cos(np.pi / 12.0), 1.0])
    assert spectral_radius(f) == pytest.approx(1.0, abs=1e-9)


def test_spectral_radius_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        spectral_radius(np.ones((2, 3)))


# ---------------------------------------------------------------- Lyapunov


def test_lyapunov_one_step():
    p = solve_discrete_lyapunov(np.array([[0.0]]), np.array([[1.0]]))
    assert p == pytest.approx(np.array([[1.0]]))


def test_lyapunov_geometric_series():
    p = solve_discrete_lyapunov(np.array([[0.5]]), np.array([[1.0]]))
    assert p[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_lyapunov_rejects_marginally_stable():
    with pytest.raises(NotConverged):
        solve_discrete_lyapunov(np.array([[1.0]]), np.array([[1.0]]))


def test_lyapunov_rejects_an_unstable_matrix():
    # I - a (x) a is regular here and P = -1/3 has a zero residual, but it
    # is no Gramian
    with pytest.raises(NotConverged):
        solve_discrete_lyapunov(np.array([[2.0]]), np.array([[1.0]]))


def test_lyapunov_random_stable_models():
    """Residual, symmetry, and PSD checks against a fixed-point oracle."""
    for seed in range(8):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        a *= 0.8 / spectral_radius(a)
        m = rng.standard_normal((4, 4))
        q = m @ m.T
        p = solve_discrete_lyapunov(a, q)

        res = np.linalg.norm(a @ p @ a.T + q - p, "fro")
        assert res <= 1e-10 * max(1.0, np.linalg.norm(q, "fro"), np.linalg.norm(p, "fro"))
        assert np.linalg.norm(p - p.T, "fro") <= 1e-12 * max(1.0, np.linalg.norm(p))
        assert np.min(np.linalg.eigvalsh(p)) >= -1e-10

        # plain iteration run to stagnation, no shared code with the solver
        it = np.zeros_like(q)
        for _ in range(20000):
            nxt = a @ it @ a.T + q
            if np.linalg.norm(nxt - it, "fro") <= 1e-13 * max(1.0, np.linalg.norm(nxt)):
                it = nxt
                break
            it = nxt
        assert np.allclose(p, it, rtol=1e-8, atol=1e-8)


def test_lyapunov_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_discrete_lyapunov(np.eye(2) * 0.5, np.eye(3))


def test_lyapunov_matches_scipys_direct_solve():
    # scipy's direct method, symmetrized, as a test-only reference.  Both
    # solve I - a (x) a, whose condition grows as 1 / (1 - rho); two LU
    # solves of it agree to about eps / (1 - rho), and the worst of these
    # 144 draws is 2.3e-16 / (1 - rho)
    rng = np.random.default_rng(17)
    for m in range(1, 7):
        for radius in (0.1, 0.5, 0.9, 0.99, 0.999, 0.9999):
            for _ in range(4):
                a = rng.standard_normal((m, m))
                a *= radius / spectral_radius(a)
                s = rng.standard_normal((m, m))
                q = s + s.T
                p = scipy.linalg.solve_discrete_lyapunov(a, q, method="direct")
                p = 0.5 * (p + p.T)
                err = np.linalg.norm(solve_discrete_lyapunov(a, q) - p, "fro")
                assert err <= 1e-14 / (1.0 - radius) * np.linalg.norm(p, "fro")


# Denominator, ascending, of a degree-9 function (poles up to 0.946) whose
# companion Lyapunov system is ill-conditioned: sigma_min(I - a (x) a) = 3.2e-13.
ILL_DEN = [-0.002767663855218701, -0.007383451045211173, 0.12590081827345556,
           0.0385353501602457, -2.493135087781646, 8.461436150767556, -13.464883687392291,
           11.64363833402563, -5.30133829943819, 1.0]


def test_lyapunov_error_on_an_ill_conditioned_companion_stays_within_its_residual():
    # the answer passes the 1e-10 residual check but is off by 1.1e-4
    # relative; the error must still be within what the residual certifies,
    # ||P - P*|| <= ||(I - a (x) a)^-1|| ||residual||, against the Kronecker
    # system solved in 40 digits
    a = companion(ILL_DEN)
    m = a.shape[0]
    drive = np.zeros((m, m))
    drive[0, 0] = 1.0
    p = solve_discrete_lyapunov(a, drive)
    with mpmath.workdps(40):
        lhs = mpmath.eye(m * m) - mpmath.matrix(np.kron(a, a).tolist())
        exact = mpmath.lu_solve(lhs, mpmath.matrix(drive.reshape(-1).tolist()))
        exact = np.array([float(v) for v in exact]).reshape(m, m)
    residual = np.linalg.norm(a @ p @ a.T + drive - p, "fro")
    sigma_min = np.linalg.svd(np.eye(m * m) - np.kron(a, a), compute_uv=False)[-1]
    assert np.linalg.norm(p - exact, "fro") <= residual / sigma_min


# ------------------------------------------------------- transmission zeros


def pencil_zeros(f, g, h, j):
    """Finite generalized eigenvalues of the system pencil ([[F, G], [H, j]],
    diag(I, 0)), up to modulus 1e8: the zeros by a route the package does
    not take."""
    m = f.shape[0]
    a = np.block([[f, g[:, None]], [h[None, :], np.array([[j]])]])
    b = np.eye(m + 1)
    b[m, m] = 0.0
    w = scipy.linalg.eigvals(a, b)
    w = w[np.isfinite(w)]
    return w[np.abs(w) <= 1e8]


@st.composite
def zero_models(draw):
    """(f, g, h, j): a random state-space model, with j zero, of order one,
    or tiny, and h g possibly tiny; a tiny j or h g puts zeros beyond 1e8."""
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    f = rng.standard_normal((m, m))
    g = rng.standard_normal(m)
    h = rng.standard_normal(m)
    j = draw(st.sampled_from([0.0, 0.0, 1.0, -0.3, 1e-11]))
    if j == 0.0 and draw(st.booleans()):
        g -= (h @ g - 1e-11) / (h @ h) * h  # h g = 1e-11: one zero near 1e11
    return f, g, h, j


def match_zeros(got, ref):
    """Distances of a greedy pairing of two zero sets, and the paired moduli."""
    free = list(ref)
    dist, size = [], []
    for z in got:
        k = int(np.argmin([abs(z - r) for r in free]))
        dist.append(abs(z - free.pop(k)))
        size.append(max(1.0, abs(z)))
    return np.array(dist), np.array(size)


@example((np.array([[0.5]]), np.array([1.0]), np.array([1.0]), 1e-11))
@given(zero_models())
def test_transmission_zeros_match_the_system_pencil(model):
    # both routes drop the zeros beyond 1e8 and agree on the rest.  The
    # numpy route works on F - g h / j, or on the numerator scaled by its
    # leading coefficient h g, so its zeros carry a relative error of about
    # eps |g| |h| / |j| (or / |h g|); the pencil's do not.  A zero between
    # 1e6 and the cut may fall on either side of it in one route only
    f, g, h, j = model
    got, ref = _transmission_zeros(f, g, h, j), pencil_zeros(f, g, h, j)
    assume(np.all(np.abs(np.concatenate([got, ref])) <= 1e6))
    assert got.size == ref.size
    scale = np.linalg.norm(g) * np.linalg.norm(h) / abs(j if j != 0.0 else h @ g)
    dist, size = match_zeros(got, ref)
    assert np.all(dist <= (1e-8 + 1e-13 * scale) * size)


# -------------------------------------------------------------------- DARE


def test_dare_falls_back_to_the_recursion_at_a_zero_on_the_circle():
    # observable companion form of d = z^2 - 1.95 z + 0.950625; G = [1, -1]
    # puts the transmission zero at z = 1, where the spectral construction
    # does not apply
    f = np.array([[1.95, 1.0], [-0.950625, 0.0]])
    g = np.array([1.0, -1.0])
    h = np.array([1.0, 0.0])
    for s2 in (0.5, 1.0, 2.0):
        assert _dare_spectral_candidate(f, g, h, 0.0, s2) is None
        p = solve_dare(f, g, h, 0.0, s2)
        assert np.allclose(p, s2 * np.outer(g, g), rtol=0.0, atol=1e-14 * s2)
        assert np.linalg.norm(dare_rhs(p, f, g, h, 0.0, s2) - p, "fro") <= 1e-14 * s2
    k = dare_gain(solve_dare(f, g, h, 0.0, 1.0), f, g, h, 0.0, 1.0)
    assert k == pytest.approx([0.95, -0.950625], rel=1e-14)
    # the circle zero reflected onto itself, the deficit at the origin
    ev = np.sort(np.abs(np.linalg.eigvals(f - np.outer(k, h))))
    assert ev == pytest.approx([0.0, 1.0], abs=1e-12)


def test_dare_collapses_with_full_feedthrough():
    # F = 0 and j = 1 make the output carry the noise exactly
    p = solve_dare(np.array([[0.0]]), [1.0], [1.0], 1.0, 1.0)
    assert p == pytest.approx(np.array([[0.0]]), abs=1e-12)


def test_dare_pure_state_noise():
    for a in (0.0, 0.3, -0.9, 0.975):
        p = solve_dare(np.array([[a]]), [1.0], [1.0], 0.0, 1.0)
        assert p[0, 0] == pytest.approx(1.0, rel=1e-10)


def test_dare_stable_benchmark_model():
    """The double-pole model with feedthrough 0.2 that the presets use."""
    char = np.polynomial.polynomial.polyfromroots([0.975, 0.975])
    f = companion(char)
    g = np.ones(2)
    h = np.array([1.0, 0.0])
    p = solve_dare(f, g, h, 0.2, 1.0)

    res = np.linalg.norm(dare_rhs(p, f, g, h, 0.2, 1.0) - p, "fro")
    assert res <= 1e-10 * max(1.0, np.linalg.norm(p, "fro"))
    assert np.min(np.linalg.eigvalsh(0.5 * (p + p.T))) >= -1e-10
    k = dare_gain(p, f, g, h, 0.2, 1.0)
    assert spectral_radius(f - np.outer(k, h)) < 1.0


def test_dare_matches_scipy_dual():
    """Cross-check against the dual control-form Riccati solver."""
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(20):
        m = int(rng.integers(1, 5))
        f = rng.standard_normal((m, m))
        f *= rng.uniform(0.3, 0.9) / max(spectral_radius(f), 1e-12)
        g = rng.standard_normal(m)
        h = rng.standard_normal(m)
        j = float(rng.uniform(0.3, 2.0))
        s2 = float(rng.uniform(0.5, 2.0))
        p = solve_dare(f, g, h, j, s2)
        ref = scipy.linalg.solve_discrete_are(
            f.T, h.reshape(m, 1), s2 * np.outer(g, g), np.array([[s2 * j * j]]),
            s=(s2 * j * g).reshape(m, 1))
        assert np.allclose(p, ref, rtol=1e-8, atol=1e-8)
        checked += 1
    assert checked == 20


def test_dare_random_models_are_stabilizing():
    """Residual, PSD, and closed-loop stability over seeded random draws.

    Includes unstable F (poles on and outside the circle are what the
    benchmark's persistent-signal models look like).
    """
    rng = np.random.default_rng(5)
    for trial in range(25):
        m = int(rng.integers(1, 5))
        f = rng.standard_normal((m, m))
        if trial % 3 == 0:
            f *= rng.uniform(1.0, 1.3) / max(spectral_radius(f), 1e-12)
        else:
            f *= rng.uniform(0.3, 0.95) / max(spectral_radius(f), 1e-12)
        g = rng.standard_normal(m)
        h = rng.standard_normal(m)
        j = float(rng.uniform(0.2, 2.5))
        s2 = float(rng.uniform(0.5, 2.0))
        p = solve_dare(f, g, h, j, s2)

        res = np.linalg.norm(dare_rhs(p, f, g, h, j, s2) - p, "fro")
        assert res <= 1e-10 * max(1.0, np.linalg.norm(p, "fro"))
        assert np.min(np.linalg.eigvalsh(0.5 * (p + p.T))) >= -1e-10
        k = dare_gain(p, f, g, h, j, s2)
        assert spectral_radius(f - np.outer(k, h)) < 1.0


def test_dare_innovation_variance_matches_spectral_factor():
    """H P H^T + s2 j^2 equals s2 j^2 times the squared product of the
    model zeros outside the unit circle (the one-step prediction-error
    variance of the output process)."""
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(40):
        m = int(rng.integers(1, 5))
        f = rng.standard_normal((m, m))
        f *= rng.uniform(0.3, 0.9) / max(spectral_radius(f), 1e-12)
        g = rng.standard_normal(m)
        h = rng.standard_normal(m)
        j = float(rng.uniform(0.3, 2.0))
        s2 = float(rng.uniform(0.5, 2.0))
        # numerator of H (zI - F)^-1 G + j via the determinant identity
        num_desc = np.poly(f - np.outer(g, h)) - np.poly(f) + j * np.poly(f)
        zeros = np.roots(num_desc)
        if zeros.size and np.min(np.abs(np.abs(zeros) - 1.0)) < 1e-3:
            continue  # circle zeros make the factorization degenerate
        p = solve_dare(f, g, h, j, s2)
        innov = float(h @ p @ h) + s2 * j * j
        expected = s2 * j * j * np.prod(np.maximum(np.abs(zeros), 1.0) ** 2)
        assert innov == pytest.approx(float(expected), rel=1e-6)
        checked += 1
    assert checked >= 30


def test_dare_rejects_nonpositive_noise():
    with pytest.raises(ValueError):
        solve_dare(np.array([[0.5]]), [1.0], [1.0], 1.0, 0.0)


# ------------------------------------------------------------------- roots


def test_polynomial_roots_double_pole():
    r = polynomial_roots(np.polynomial.polynomial.polyfromroots([0.975, 0.975]))
    assert np.allclose(np.sort(r.real), [0.975, 0.975], atol=1e-7)
    assert np.allclose(r.imag, 0.0, atol=1e-7)


def test_polynomial_roots_unit_circle_pair():
    r = polynomial_roots([1.0, -2.0 * np.cos(np.pi / 12.0), 1.0])
    r = r[np.argsort(r.imag)]
    expected = np.array([np.exp(-1j * np.pi / 12.0), np.exp(1j * np.pi / 12.0)])
    assert np.allclose(r, expected, atol=1e-10)


def test_polynomial_roots_difference_of_squares():
    r = np.sort(polynomial_roots([-1.0, 0.0, 1.0]).real)
    assert np.allclose(r, [-1.0, 1.0], atol=1e-12)


def test_polynomial_roots_trims_trailing_zeros():
    r = polynomial_roots([1.0, 2.0, 0.0])
    assert r.shape == (1,)
    assert r[0] == pytest.approx(-0.5)


def test_polynomial_roots_rejects_constants():
    with pytest.raises(ValueError):
        polynomial_roots([3.0])
    with pytest.raises(ValueError):
        polynomial_roots([0.0])


def test_polynomial_roots_reconstruction():
    """Monic product of the returned roots rebuilds the input coefficients."""
    rng = np.random.default_rng(17)
    for _ in range(30):
        deg = int(rng.integers(1, 7))
        c = rng.standard_normal(deg + 1)
        c[-1] = np.sign(c[-1]) * (abs(c[-1]) + 0.5)
        roots = polynomial_roots(c)
        assert roots.size == deg
        rebuilt = c[-1] * np.polynomial.polynomial.polyfromroots(roots)
        assert np.allclose(rebuilt.real, c, rtol=1e-8, atol=1e-8 * np.max(np.abs(c)))
        assert np.max(np.abs(rebuilt.imag)) <= 1e-8 * np.max(np.abs(c))


# ------------------------------------------------------------------- grids


def test_root_centroids_read_a_multiple_root_to_roundoff():
    # each copy of the squared resonance at pi/12 is about 1e-8 off the
    # circle; their mean is not
    resonance = [1.0, -2.0 * np.cos(np.pi / 12.0), 1.0]
    roots = polynomial_roots(npoly.polymul(resonance, resonance))
    assert np.max(np.abs(np.abs(roots) - 1.0)) > 1e-9
    assert np.allclose(np.abs(root_centroids(roots)), 1.0, rtol=0.0, atol=1e-14)
    # chained clusters share one centroid; distinct roots keep their own
    chain = np.array([0.0, 0.8e-5, 1.6e-5, 0.5])
    assert np.allclose(root_centroids(chain), [0.8e-5, 0.8e-5, 0.8e-5, 0.5], rtol=0.0, atol=1e-20)
    assert root_centroids(np.zeros(0)).size == 0


def test_chebyshev_grid_endpoints_and_order():
    g = chebyshev_grid(1.0, 3.3, 33)
    assert g.shape == (33,)
    assert g[0] == pytest.approx(1.0)
    assert g[-1] == pytest.approx(3.3)
    assert np.all(np.diff(g) > 0)


def test_chebyshev_grid_clusters_at_ends():
    g = chebyshev_grid(0.0, 1.0, 9)
    gaps = np.diff(g)
    assert gaps[0] < gaps[len(gaps) // 2]
    assert gaps[-1] < gaps[len(gaps) // 2]


def test_chebyshev_grid_single_point_is_midpoint():
    assert chebyshev_grid(2.0, 4.0, 1) == pytest.approx([3.0])


def test_chebyshev_grid_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        chebyshev_grid(0.0, 1.0, 0)


# -------------------------------------------------------------- orthogonal


def test_random_orthogonal_residual_and_determinant():
    v = random_orthogonal(10, RngStream(123, 0))
    assert np.linalg.norm(v.T @ v - np.eye(10), "fro") <= 1e-12
    assert abs(abs(np.linalg.det(v)) - 1.0) <= 1e-9


def test_random_orthogonal_scalar_is_signed_unit():
    seen = set()
    for seed in range(20):
        v = random_orthogonal(1, RngStream(seed, 0))
        assert v.shape == (1, 1)
        assert abs(v[0, 0]) == pytest.approx(1.0, abs=1e-12)
        seen.add(np.sign(v[0, 0]))
    assert seen == {1.0, -1.0}


def test_random_orthogonal_is_reproducible():
    a = random_orthogonal(6, RngStream(9, 4))
    b = random_orthogonal(6, RngStream(9, 4))
    assert np.array_equal(a, b)


def test_random_orthogonal_rejects_zero_size():
    with pytest.raises(ValueError):
        random_orthogonal(0, RngStream(0, 0))
