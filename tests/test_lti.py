"""Transfer-function and state-space machinery tests."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from quadtrack.control_math import polynomial_roots
from quadtrack.errors import AlgebraicLoop, DimensionMismatch, NotConverged
from quadtrack.lti import (
    CIRCLE_ANGLES,
    CIRCLE_POINTS,
    STABILITY_MARGIN,
    StateSpaceSISO,
    TransferFunctionSISO,
    circle_angles,
    closed_loop_error_tf,
    h2_norm_sq_exact,
    h2_norm_sq_freq,
    hinf_norm,
    is_internally_stable,
    loop_h2_stack,
    loop_peaks,
    loop_stable,
    observable_canonical,
    roots_stable,
    ss_to_tf,
    tf_to_ss,
)
from quadtrack.lti import _cells, _h2_table, _loops, _trim


def _loop_char(c, lam):
    """Characteristic polynomial d_c - lam n_c of the feedback loop, one lam at a
    time: the per-curvature oracle of the stacked cells of `lti._cells`."""
    return _trim(npoly.polysub(c.den, lam * c.num))


def random_stable_tf(rng, max_deg=6, max_radius=0.95):
    """Strictly proper transfer function with poles inside `max_radius`."""
    deg = int(rng.integers(1, max_deg + 1))
    poles = []
    for _ in range(deg // 2):
        r = rng.uniform(0.05, max_radius)
        th = rng.uniform(0.1, np.pi - 0.1)
        poles.extend([r * np.exp(1j * th), r * np.exp(-1j * th)])
    if deg % 2:
        poles.append(complex(rng.uniform(-max_radius, max_radius)))
    den = npoly.polyfromroots(np.asarray(poles, dtype=complex)).real
    num = rng.standard_normal(deg)
    return TransferFunctionSISO(num, den)


# ------------------------------------------------------------ construction


def test_tf_normalizes_denominator_to_monic():
    tf = TransferFunctionSISO([2.0], [4.0, 2.0])
    assert np.allclose(tf.den, [2.0, 1.0])
    assert np.allclose(tf.num, [1.0])


def test_tf_keeps_shared_roots():
    # a function is what it says: the common factor z - 0.5 stays in both
    shared = [-0.5, 1.0]
    num = npoly.polymul(shared, [2.0, 1.0])
    den = npoly.polymul(shared, [-0.2, 1.0])
    tf = TransferFunctionSISO(num, den)
    assert tf.degree == 2
    assert tf.den[-1] == 1.0
    assert tf.num.tolist() == num.tolist()
    assert tf.den.tolist() == den.tolist()


def test_tf_rejects_improper():
    with pytest.raises(ValueError):
        TransferFunctionSISO([1.0, 0.0, 1.0], [1.0, 1.0])


def test_tf_rejects_zero_denominator():
    with pytest.raises(ValueError):
        TransferFunctionSISO([1.0], [0.0])


def test_tf_zero_numerator():
    tf = TransferFunctionSISO([0.0], [0.5, 1.0])
    assert tf.is_zero
    assert tf.is_strictly_proper
    assert tf(1.0 + 0.0j) == 0.0


def test_tf_evaluates_pointwise():
    tf = TransferFunctionSISO([1.0], [-0.5, 1.0])
    assert tf(2.0) == pytest.approx(1.0 / 1.5)


def test_tf_dict_roundtrip():
    tf = TransferFunctionSISO([0.3, 1.2], [0.1, -0.4, 1.0])
    back = TransferFunctionSISO.from_dict(tf.to_dict())
    assert np.allclose(back.num, tf.num)
    assert np.allclose(back.den, tf.den)


def test_observable_canonical_characteristic_polynomial():
    char = npoly.polyfromroots([0.3, -0.7, 0.1])
    f, h = observable_canonical(char)
    assert np.allclose(np.poly(f)[::-1], char, atol=1e-12)
    assert np.allclose(h, [1.0, 0.0, 0.0])


def test_observable_canonical_rejects_non_monic():
    with pytest.raises(ValueError):
        observable_canonical([1.0, 2.0])


def test_ss_tf_roundtrip_frequency_response():
    rng = np.random.default_rng(2)
    z = np.exp(1j * circle_angles(64))
    for _ in range(15):
        tf = random_stable_tf(rng)
        back = ss_to_tf(tf_to_ss(tf))
        assert np.allclose(back(z), tf(z), rtol=1e-10, atol=1e-10)


def test_ss_to_tf_with_feedthrough_matches_resolvent():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((3, 3)) * 0.3
    g = rng.standard_normal(3)
    h = rng.standard_normal(3)
    ss = StateSpaceSISO(f, g, h, 0.7)
    tf = ss_to_tf(ss)
    for z in (1.0 + 0.5j, -0.3 + 1.1j, 2.0 + 0.0j):
        direct = h @ np.linalg.solve(z * np.eye(3) - f, g) + 0.7
        assert tf(z) == pytest.approx(direct, rel=1e-10)


def test_tf_to_ss_rejects_feedthrough():
    with pytest.raises(ValueError):
        tf_to_ss(TransferFunctionSISO([1.0, 1.0], [0.5, 1.0]))


def test_tf_to_ss_realizes_the_zero_constant_only():
    ss = tf_to_ss(TransferFunctionSISO([0.0], [1.0]))
    assert (ss.F.tolist(), ss.G.tolist(), ss.H.tolist(), ss.j) == ([[0.0]], [0.0], [0.0], 0.0)
    with pytest.raises(ValueError):
        tf_to_ss(TransferFunctionSISO([2.0], [1.0]))


# ------------------------------------------------------------- closed loop


def test_error_tf_matches_direct_formula():
    rng = np.random.default_rng(7)
    z = np.exp(1j * np.linspace(0.1, 3.0, 12))
    for _ in range(10):
        h = random_stable_tf(rng, max_deg=4)
        c = random_stable_tf(rng, max_deg=3)
        lam = float(rng.uniform(0.3, 3.0))
        w = closed_loop_error_tf(h, c, lam)
        direct = -h(z) / (1.0 - lam * c(z))
        assert np.allclose(w(z), direct, rtol=1e-9, atol=1e-9)


def test_error_tf_shared_denominator_stays_exact():
    # controller reusing the model denominator: its row is -n_h / loop, so
    # the error denominator IS the loop polynomial
    den = npoly.polyfromroots([0.975, 0.975])
    h = TransferFunctionSISO([1.0, 1.0], den)
    c = TransferFunctionSISO([0.2, -0.1], den)
    lam = 1.7
    w = closed_loop_error_tf(h, c, lam)
    loop = npoly.polysub(den, lam * np.array([0.2, -0.1, 0.0]))
    assert np.allclose(w.den, loop / loop[-1], atol=1e-12)
    assert np.allclose(w.num, -np.array([1.0, 1.0]) / loop[-1], atol=1e-12)


def test_error_tf_requires_strictly_proper_controller():
    h = TransferFunctionSISO([1.0], [-0.5, 1.0])
    c = TransferFunctionSISO([1.0, 0.5], [0.2, 1.0])  # proper, not strictly
    with pytest.raises(AlgebraicLoop):
        closed_loop_error_tf(h, c, 1.0)
    with pytest.raises(AlgebraicLoop):
        is_internally_stable(h, c, 1.0)


def test_internal_stability_matches_matrix_assembly():
    """The polynomial route agrees with eigenvalues of F_c + lam G_c H_c.

    For a stable model the check reduces to the loop roots, and those are
    the eigenvalues of the controller realization closed through the
    constant-gain feedback.
    """
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(40):
        h = random_stable_tf(rng, max_deg=4)
        c = random_stable_tf(rng, max_deg=3, max_radius=1.2)
        lam = float(rng.uniform(0.2, 4.0))
        ss = tf_to_ss(c)
        ev = np.linalg.eigvals(ss.F + lam * np.outer(ss.G, ss.H))
        rho = float(np.max(np.abs(ev)))
        if abs(rho - 1.0) < 1e-6:
            continue  # on the margin either route could tip
        assert is_internally_stable(h, c, lam) == (rho < 1.0), (
            f"polynomial and matrix routes disagree at rho={rho}")
        checked += 1
    assert checked >= 30


def test_internal_stability_requires_persistent_pole_model():
    h = TransferFunctionSISO([1.0], [-1.0, 1.0])  # integrator signal
    good = TransferFunctionSISO([-0.5], [-1.0, 1.0])  # carries the pole at 1
    bad = TransferFunctionSISO([-0.5], [-0.5, 1.0])  # stable loop, no model
    assert is_internally_stable(h, good, 1.0)
    assert not is_internally_stable(h, bad, 1.0)


def test_internal_stability_flags_unstable_loop():
    h = TransferFunctionSISO([1.0], [-0.5, 1.0])
    c = TransferFunctionSISO([0.5], [-1.0, 1.0])
    # loop root 1 + lam * 0.5 sits outside for positive feedback
    assert not is_internally_stable(h, c, 1.0)


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


def reference_stable(h, c, lam):
    """Per-curvature internal stability, written out one lam at a time: the
    loop's roots inside the margin, and each persistent pole of h matched by
    a controller pole within 1e-9, an independent root-matching oracle of
    `_error_row`'s division."""
    loop = _loop_char(c, lam)
    if loop.size > 1 and np.max(np.abs(polynomial_roots(loop))) >= 1.0 - STABILITY_MARGIN:
        return False
    bad = [r for r in np.atleast_1d(h.poles()) if abs(r) >= 1.0 - STABILITY_MARGIN]
    return len(_match_roots(list(np.atleast_1d(c.poles())), bad, 1e-9)[1]) == len(bad)


@st.composite
def loops(draw):
    """(h, c, lams): a stable or persistent signal model, a strictly proper
    controller that may carry the persistent factor, and a curvature batch."""
    def char_poly(rmax):
        roots = [draw(st.floats(-rmax, rmax))]
        if draw(st.booleans()):
            r = draw(st.floats(0.05, rmax))
            th = draw(st.floats(0.1, np.pi - 0.1))
            roots += [r * np.exp(1j * th), r * np.exp(-1j * th)]
        return npoly.polyfromroots(np.asarray(roots, dtype=complex)).real

    def coeffs(size):
        return np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size)))

    d_u = np.ones(1)
    if draw(st.booleans()):
        th = draw(st.sampled_from([0.0, np.pi / 12.0, np.pi / 3.0, 2.0]))
        d_u = np.array([-1.0, 1.0]) if th == 0.0 else np.array([1.0, -2.0 * np.cos(th), 1.0])
    h_den = npoly.polymul(d_u, char_poly(0.95))
    h = TransferFunctionSISO(coeffs(h_den.size), h_den)
    c_den = char_poly(1.1)
    if draw(st.booleans()):
        c_den = npoly.polymul(d_u, c_den)
    c = TransferFunctionSISO(0.5 * coeffs(c_den.size - 1), c_den)
    lams = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=6)))
    return h, c, lams


@given(loops())
def test_loop_stable_matches_per_lambda_reference(case):
    h, c, lams = case
    flags = loop_stable(h, c, lams)
    assert flags.tolist() == [reference_stable(h, c, float(lam)) for lam in lams]


@given(loops())
def test_loop_h2_stack_matches_frequency_integral(case):
    """Finite squared H2 norms agree with the Riemann sum on a fine grid; a
    controller unstable at some curvature reads +inf throughout."""
    h, c, lams = case
    h2_sq = loop_h2_stack(h, c.den, c.num, lams)[0]
    if not loop_stable(h, c, lams).all():
        assert np.all(np.isinf(h2_sq))
        return
    for lam, value in zip(lams, h2_sq):
        w = closed_loop_error_tf(h, c, float(lam))
        if not np.isfinite(value) or near_circle(w):
            continue  # the uniform sum cannot resolve poles this close to the circle
        assert value == pytest.approx(h2_norm_sq_freq(w, 2 ** 14), rel=1e-6, abs=1e-12)


def reference_row(h, c, lams):
    """One row of `loop_h2_stack`, from the scalar routines alone: +inf
    throughout unless the loop is stable at every curvature."""
    if not all(loop_stable(h, c, [lam])[0] for lam in lams):
        return [float("inf")] * len(lams)
    return [h2_norm_sq_exact(closed_loop_error_tf(h, c, float(lam))) for lam in lams]


def near_circle(w):
    """Whether w has a pole beyond 0.998: there the table and the scalar route
    agree only loosely, and the uniform sum cannot resolve w."""
    return w.degree > 0 and np.max(np.abs(w.poles())) > 0.998


# How far the scalar route may sit from a stable row: both read the same
# row, so only the order of the arithmetic differs.
ORACLE_RTOL = 1e-12


@given(loops())
def test_loop_h2_stack_replays_the_scalar_routines_for_any_controller(case):
    """Each cell of a stable row is the scalar route's value to ORACLE_RTOL
    wherever the error function's poles clear 0.998; an unstable row reads
    +inf."""
    h, c, lams = case
    row = loop_h2_stack(h, c.den, c.num, lams)[0]
    if not loop_stable(h, c, lams).all():
        assert np.all(np.isinf(row))
        return
    for lam, value in zip(lams, row):
        w = closed_loop_error_tf(h, c, float(lam))
        if not near_circle(w):
            assert value == pytest.approx(h2_norm_sq_exact(w), rel=ORACLE_RTOL)


# the loop root -0.9375 + 6.25e-10 lies 6.25e-10 from the controller's pole;
# the error function keeps that pair, so dropping it would read a peak 1e-8 high
@example((TransferFunctionSISO([0.0, 1.0], [0.5, 1.0]), TransferFunctionSISO([5e-9], [0.9375, 1.0]),
          np.array([0.125])))
@given(loops())
def test_loop_peaks_are_the_peak_gains_of_the_scalar_route(case):
    """+inf where the loop is unstable; elsewhere the scalar route's peak gain
    to ORACLE_RTOL wherever the error function's poles clear 0.998."""
    h, c, lams = case
    peaks = loop_peaks(h, c, lams)
    for lam, peak, stable in zip(lams, peaks, loop_stable(h, c, lams)):
        if not stable:
            assert peak == float("inf")
            continue
        w = closed_loop_error_tf(h, c, float(lam))
        if not near_circle(w):
            assert peak == pytest.approx(hinf_norm(w), rel=ORACLE_RTOL)


@given(loops())
def test_every_cost_of_a_cell_reads_the_one_cell_polynomial(case):
    """Each stable cell's error function is the `_error_row` row over the
    `_cells` polynomial, coefficient for coefficient, and its `loop_peaks`
    value is `hinf_norm` of that function, bit for bit."""
    h, c, lams = case
    row, c_den, padded, flags = _loops(h, c.den, c.num, lams)
    cols = np.flatnonzero(flags[0])
    assume(cols.size)
    peaks = loop_peaks(h, c, lams)
    for k, cell in zip(cols, _cells(row, c_den, padded, lams, 0, cols)):
        w = closed_loop_error_tf(h, c, float(lams[k]))
        assert w.den.tolist() == cell.tolist()
        assert peaks[k] == hinf_norm(w)


@settings(max_examples=40)
@given(loops())
def test_error_tf_is_the_direct_formula_pointwise(case):
    """w = -h / (1 - lam c) at every curvature of the draw, on |z| = 1.25,
    which clears every pole of h and of c."""
    h, c, lams = case
    z = 1.25 * np.exp(1j * circle_angles(16))
    for lam in lams:
        direct = -h(z) / (1.0 - lam * c(z))
        w = closed_loop_error_tf(h, c, float(lam))
        assert np.allclose(w(z), direct, rtol=0.0, atol=1e-8 * np.max(np.abs(direct)))


@st.composite
def shared_loops(draw):
    """(h, den, nums, lams): a `loops()` signal model and curvature batch,
    with a stack of strictly proper controller numerators over d_h, the
    filter tracker's case; den and nums carry one common nonzero scale,
    which the controllers normalize away."""
    h, _, lams = draw(loops())
    q = h.degree
    rows = draw(st.integers(1, 3))
    nums = np.array([draw(st.lists(st.floats(-2.0, 2.0), min_size=q, max_size=q))
                     for _ in range(rows)])
    # a trimmed numerator, or the zero one, must be padded in the stack
    nums[-1, draw(st.integers(0, q)):] = 0.0
    scale = draw(st.sampled_from([1.0, 2.0, -0.5, 3.7]))
    return h, scale * h.den, scale * 0.5 * nums, lams


RADIUS = 1.0 - STABILITY_MARGIN


@st.composite
def margin_loops(draw):
    """(den, nums, lams): a monic den of degree 1 to 7 from drawn roots, at
    most one of them (or one conjugate pair) within 1e-3 of the margin
    radius, on either side, and a stack of one or two numerators at a scale
    from 0 to 1, so the loops den - lam num have roots of any modulus, and
    at scale 0 roots 1.5e-9 from the margin radius, just outside the band
    where either flag is accepted."""
    q = draw(st.integers(1, 7))
    near = draw(st.sampled_from([None, -1e-3, -1e-8, -2e-9, -1.5e-9, 1.5e-9, 2e-9, 1e-8, 1e-3]))
    roots = []
    while len(roots) < q:
        if near is not None:
            r, near = RADIUS * (1.0 + near), None
        else:
            r = draw(st.one_of(st.floats(0.0, RADIUS * (1.0 - 1e-3)),
                               st.floats(RADIUS * (1.0 + 1e-3), 1.3)))
        if len(roots) + 2 <= q and draw(st.booleans()):
            th = draw(st.floats(0.1, np.pi - 0.1))
            roots += [r * np.exp(1j * th), r * np.exp(-1j * th)]
        else:
            roots.append(complex(r * draw(st.sampled_from([1.0, -1.0]))))
    den = npoly.polyfromroots(np.asarray(roots)).real
    width = draw(st.integers(0, q))
    scale = draw(st.sampled_from([0.0, 1e-6, 0.1, 1.0]))
    rows = draw(st.integers(1, 2))
    nums = scale * np.array([draw(st.lists(st.floats(-2.0, 2.0), min_size=width, max_size=width))
                             for _ in range(rows)]).reshape(rows, width)
    lams = np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=3)))
    return den, nums, lams


def mp_roots(coeffs):
    """The roots of the ascending mpf coefficients at the working precision.
    Exact roots at 0 come off first: mpmath's iteration does not converge
    on z^q for q >= 5."""
    zeros = next(k for k, c in enumerate(coeffs) if c != 0)
    return [mpmath.mpf(0)] * zeros + list(
        mpmath.polyroots(coeffs[zeros:][::-1], maxsteps=400, extraprec=200))


# (z - 1)(z - c): a near-double root, whose companion eigenvalues both
# come out inside the margin radius
@example((np.array([0.999999997335387, -1.999999997335387, 1.0]), np.zeros((1, 0)),
          np.array([1.0])))
@settings(max_examples=60)
@given(margin_loops())
def test_roots_stable_matches_the_60_digit_roots(case):
    """Schur-Cohn flags against the roots of each loop at 60 digits: every
    root inside the margin radius, wherever every root is more than 1e-9
    from it; inside that band either answer is accepted.  The den alone is
    the call that tests a single polynomial: the lam = 0 loop with a zero
    numerator."""
    den, nums, lams = case
    flags = roots_stable(den, nums, lams)
    assert flags.shape == (nums.shape[0], lams.size)
    cells = [(num, lam, flag) for num, row in zip(nums, flags) for lam, flag in zip(lams, row)]
    cells.append((np.zeros(1), 0.0, roots_stable(den, np.zeros(1), [0.0])[0]))
    with mpmath.workdps(60):
        radius = mpmath.mpf(RADIUS)
        for num, lam, flag in cells:
            loop = [mpmath.mpf(float(c)) for c in den]
            for k, c in enumerate(num):
                loop[k] -= mpmath.mpf(float(lam)) * mpmath.mpf(float(c))
            moduli = [abs(r) for r in mp_roots(loop)]
            if all(abs(m - radius) > 1e-9 for m in moduli):
                assert flag == all(m < radius for m in moduli)


def reduced_row(h, c, lams):
    """One row of `loop_h2_stack` for a controller over d_h, from the scalar
    routine alone: `h2_norm_sq_exact` of the reduced filter row -n_h / loop,
    +inf throughout unless the loop is stable at every curvature."""
    if not loop_stable(h, c, lams).all():
        return [float("inf")] * len(lams)
    return [h2_norm_sq_exact(TransferFunctionSISO(-h.num, _loop_char(c, float(lam))))
            for lam in lams]


D_98 = npoly.polyfromroots([0.9, 0.8])


# a numerator whose top coefficient is 0 and the zero numerator are stacked
# cells like any other: the controllers' own coefficients need no `_trim`
@example((TransferFunctionSISO([1.0, 0.5], D_98), D_98, np.array([[-0.1, 0.0], [0.0, 0.0]]),
          np.array([0.5, 1.0, 1.5])))
# w = -h has the direct term -1e-14; its strictly proper part keeps a z
# coefficient of -2.7e-15, below 1e-14 of its largest, which the table must score
@example((TransferFunctionSISO([0.5, 0.0, 1e-14], [0.0625, -0.2701511529340699, 1.0]),
          np.array([0.0625, -0.2701511529340699, 1.0]), np.array([[0.0, 0.0]]), np.array([1.0])))
@given(shared_loops())
def test_loop_h2_stack_replays_the_scalar_routines_bit_for_bit(case):
    h, den, nums, lams = case
    cs = [TransferFunctionSISO(num, den) for num in nums]
    try:
        expected = np.array([reduced_row(h, c, lams) for c in cs])
    except NotConverged:
        with pytest.raises(NotConverged):
            loop_h2_stack(h, den, nums, lams)
        return
    assert np.array_equal(loop_h2_stack(h, den, nums, lams), expected)


def test_loop_h2_stack_scores_a_cancelling_root_pair_in_the_table():
    # at lam = 1 the loop d_h - n_c is (z - 0.5)(z - 0.2), whose root 0.5
    # is the zero of h; the error function keeps that pair, so it has degree
    # 2 at every lam, and the kernel's cell is the scalar route's value
    h = TransferFunctionSISO(npoly.polyfromroots([0.5]), D_98)
    c = TransferFunctionSISO(npoly.polysub(D_98, npoly.polyfromroots([0.5, 0.2]))[:2], h.den)
    lams = np.array([0.5, 1.0, 1.5])
    assert [closed_loop_error_tf(h, c, lam).degree for lam in lams] == [2, 2, 2]
    row = loop_h2_stack(h, h.den, c.num, lams)[0]
    assert row.tolist() == reduced_row(h, c, lams)
    assert row.tolist() == reference_row(h, c, lams)


def test_loop_h2_stack_takes_any_strictly_proper_controller():
    h = TransferFunctionSISO([1.0], [-0.5, 1.0])
    lams = [1.0, 1.5]
    for c in (TransferFunctionSISO([0.3], [-0.4, 1.0]), TransferFunctionSISO([0.0], [1.0])):
        h2_sq = loop_h2_stack(h, c.den, c.num, lams)[0]
        assert np.all(np.isfinite(h2_sq))
        assert h2_sq.tolist() == reference_row(h, c, lams)
    with pytest.raises(AlgebraicLoop):
        loop_h2_stack(h, h.den, [0.3, 1.0], [1.0])


# ------------------------------------------------------------------- norms


def test_h2_first_order_closed_form():
    for a in (0.0, 0.5, -0.9, 0.975):
        w = TransferFunctionSISO([1.0], [-a, 1.0])
        assert h2_norm_sq_exact(w) == pytest.approx(1.0 / (1.0 - a * a), rel=1e-12)


def test_h2_with_feedthrough_closed_form():
    # z / (z - a) = 1 + a / (z - a), so the squared norm is 1/(1-a^2) too
    for a in (0.4, -0.7):
        w = TransferFunctionSISO([0.0, 1.0], [-a, 1.0])
        assert h2_norm_sq_exact(w) == pytest.approx(1.0 / (1.0 - a * a), rel=1e-12)


def test_h2_constant_and_zero():
    assert h2_norm_sq_exact(TransferFunctionSISO([3.0], [1.0])) == pytest.approx(9.0)
    assert h2_norm_sq_exact(TransferFunctionSISO([0.0], [-0.5, 1.0])) == 0.0


def test_h2_unstable_is_infinite():
    assert h2_norm_sq_exact(TransferFunctionSISO([1.0], [-1.0, 1.0])) == float("inf")
    resonant = TransferFunctionSISO([1.0], [1.0, -2.0 * np.cos(np.pi / 12.0), 1.0])
    assert h2_norm_sq_exact(resonant) == float("inf")
    assert h2_norm_sq_freq(resonant, 4096) == float("inf")
    assert hinf_norm(resonant) == float("inf")


def mp_h2_table(den, num):
    """The Astrom-Jury table in mpmath at the working precision: den and
    num descending lists of mpf, den[0] > 0, len(num) == len(den); None
    where the table finds den unstable."""
    q = len(den) - 1
    jw = num[0] / den[0]
    a, b = list(den), [bi - jw * ai for bi, ai in zip(num, den)]
    total = jw ** 2 * den[0]
    for k in range(q, 0, -1):
        alpha, beta = a[k] / a[0], b[k] / a[0]
        total += a[0] * beta ** 2
        old = list(a)
        for i in range(k):
            a[i] -= alpha * old[k - i]
            b[i] -= beta * old[k - i]
        if a[0] <= 0:
            return None
    return (total + b[0] ** 2 / a[0]) / den[0]


def h2_reference(w):
    """(exact, kappa) for w: its squared H2 norm in 60 digits on the exact
    binary values of its coefficients (None where unstable), and the
    componentwise relative condition number of that value, the sum over
    coefficients c of |c dJ/dc| / J.  A rounding of every coefficient moves
    J by about eps * kappa relative, so no float routine does much better."""
    with mpmath.workdps(60):
        den = [mpmath.mpf(float(c)) for c in w.den[::-1]]
        num = [mpmath.mpf(0)] * (w.den.size - w.num.size) + [
            mpmath.mpf(float(c)) for c in w.num[::-1]]
        exact = mp_h2_table(den, num)
        if not exact:
            return exact, 0.0
        step, kappa = mpmath.mpf("1e-30"), mpmath.mpf(0)
        for coeffs in (den, num):
            for i, c in enumerate(coeffs):
                coeffs[i] = c * (1 + step)
                kappa += abs(mp_h2_table(den, num) - exact)
                coeffs[i] = c
        return float(exact), float(kappa / (step * exact))


@st.composite
def stable_tfs(draw, near_margin=False):
    """Proper w of degree 1 to 10, poles inside 0.999; with near_margin, a
    real pole or a pole pair at 1 - 10**-u, u in [3, 10], joins them."""
    poles = []
    degree = draw(st.integers(0, 8) if near_margin else st.integers(1, 10))
    while len(poles) < degree:
        if len(poles) == degree - 1 or draw(st.booleans()):
            poles.append(complex(draw(st.floats(-0.999, 0.999))))
        else:
            r, th = draw(st.floats(0.05, 0.999)), draw(st.floats(0.0, np.pi))
            poles += [r * np.exp(1j * th), r * np.exp(-1j * th)]
    if near_margin:
        r = 1.0 - 10.0 ** -draw(st.floats(3.0, 10.0))
        th = draw(st.sampled_from([0.0, np.pi, draw(st.floats(0.01, np.pi - 0.01))]))
        poles += [r * np.exp(1j * th), r * np.exp(-1j * th)] if 0.0 < th < np.pi else [
            r * np.cos(th)]
    den = npoly.polyfromroots(np.asarray(poles, dtype=complex)).real
    size = draw(st.integers(1, den.size))
    num = draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size))
    assume(max(map(abs, num)) > 1e-6)  # no underflow in J
    return TransferFunctionSISO(num, den)


def assert_within_condition(value, w):
    # the table is right to within a fixed multiple of what rounding the
    # coefficients does.  Over 8000 random draws of the two strategies the
    # error reached 2.1e3 eps * kappa (clustered poles near the circle,
    # kappa up to 7e10), and 1e-12 relative where kappa is small
    exact, kappa = h2_reference(w)
    assert exact is not None
    assert abs(value - exact) <= (1e-12 + 1e4 * 2.0 ** -52 * kappa) * exact


def margin_backward_error(den):
    """A relative change of den's coefficients that puts a root on the
    margin radius R, by den's roots at 60 digits: 0 where a root already
    lies on or outside R, else the least over the roots r of
    |den(z)| / sum |c_k| |z|^k at z = R r / |r|, the point of that circle
    nearest r (a change of each c_k by at most that fraction makes z a root)."""
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(float(c)) for c in den]
        radius = mpmath.mpf(RADIUS)
        roots = mp_roots(coeffs)
        if max(abs(r) for r in roots) >= radius:
            return 0.0
        scale = sum(abs(c) * radius ** k for k, c in enumerate(coeffs))
        return float(min(abs(mpmath.polyval(coeffs[::-1], radius * r / abs(r) if r else radius))
                         for r in roots) / scale)


@given(stable_tfs())
def test_h2_exact_matches_the_60_digit_table(w):
    assume(np.max(np.abs(polynomial_roots(w.den))) < 1.0 - STABILITY_MARGIN)
    assert_within_condition(h2_norm_sq_exact(w), w)


@given(stable_tfs(near_margin=True))
def test_h2_exact_near_the_margin_is_right_or_refuses(w):
    # +inf for a pole within the margin, a refusal, or the right value.  A
    # +inf on a den whose roots all lie inside the margin radius is right
    # only where rounding den's coefficients can move a root onto it: over
    # 24 000 random draws (2 276 of them +inf) the change needed reached
    # 26 eps, and among those dens are clusters near 0.999 beside a pole
    # that the companion eigenvalues put up to 2.2e-7 inside the radius
    try:
        value = h2_norm_sq_exact(w)
    except NotConverged:
        return
    if value == float("inf"):
        assert margin_backward_error(w.den) <= 1e3 * 2.0 ** -52
        return
    assert_within_condition(value, w)


def test_h2_table_refuses_a_loop_that_is_not_stable():
    # (z - 1)(z - c), c = 1 - 2.66e-9, whose coefficients are exact in
    # binary: the companion eigenvalues put both roots inside the margin,
    # but the root at 1 makes a leading coefficient of the table vanish, so
    # the value is refused rather than made up; the Schur-Cohn test that
    # both norms run first reads the root at 1, so both are +inf, with no
    # division by the zero of w's denominator at theta = 0
    c = 0.999999997335387
    w = TransferFunctionSISO([1.0], [c, -1.0 - c, 1.0])
    assert np.max(np.abs(polynomial_roots(w.den))) < 1.0 - STABILITY_MARGIN
    assert h2_reference(w)[0] is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert h2_norm_sq_exact(w) == float("inf")
        assert hinf_norm(w) == float("inf")
    # the stacked table flags that row, and an unstable one, on their own
    loops = np.array([w.den, [-0.25, 0.0, 1.0], [0.5, -1.5, 1.0]])
    vals, ok = _h2_table(loops, np.ones((3, 1)), 0.0)
    assert ok.tolist() == [False, True, False]
    assert vals[1] == pytest.approx(1.0 / (1.0 - 0.25 ** 2), rel=1e-15)


def test_h2_exact_is_right_or_refuses_on_an_ill_conditioned_tf():
    # poles up to 0.946; a 2^20-point circle mean gives 139719925612.5 and a
    # 200 000-term impulse sum 139719925617.1
    w = TransferFunctionSISO(
        [8.247249180657024, 2.8926074371279773, -5.508343738511932, -0.41187945012180954,
         2.66441618555109, -6.3751517036118, -2.6887107657985942, -5.059782738965728],
        [-0.002767663855218701, -0.007383451045211173, 0.12590081827345556, 0.0385353501602457,
         -2.493135087781646, 8.461436150767556, -13.464883687392291, 11.64363833402563,
         -5.30133829943819, 1.0])
    try:
        value = h2_norm_sq_exact(w)
    except NotConverged:
        return
    assert value == pytest.approx(139719925612.5, rel=1e-8)


def test_h2_exact_matches_frequency_grid():
    rng = np.random.default_rng(23)
    for _ in range(10):
        w = random_stable_tf(rng)
        exact = h2_norm_sq_exact(w)
        approx = h2_norm_sq_freq(w, 2 ** 14)
        assert abs(exact - approx) <= 1e-6 * exact


def test_h2_exact_matches_impulse_response_sum():
    """Second independent oracle: run the realization forward and sum squares."""
    rng = np.random.default_rng(29)
    for _ in range(5):
        w = random_stable_tf(rng, max_deg=4, max_radius=0.9)
        ss = tf_to_ss(w)
        xi = ss.G.copy()
        total = 0.0
        for _ in range(4000):
            total += float(ss.H @ xi) ** 2
            xi = ss.F @ xi
        assert h2_norm_sq_exact(w) == pytest.approx(total, rel=1e-8)


def test_hinf_first_order_closed_form():
    for a in (0.5, -0.8):
        w = TransferFunctionSISO([1.0], [-a, 1.0])
        assert hinf_norm(w) == pytest.approx(1.0 / (1.0 - abs(a)), rel=1e-6)


def test_hinf_constant():
    assert hinf_norm(TransferFunctionSISO([-2.5], [1.0])) == pytest.approx(2.5)
    assert hinf_norm(TransferFunctionSISO([0.0], [1.0])) == 0.0


def test_hinf_norm_is_at_least_every_sample_of_a_fine_grid():
    # two resonant pole pairs within 5e-3 of the circle; at the largest radii
    # a lobe is narrower than the 4096-point step, and refining the largest
    # sample alone read 8 of the 300 draws low, draw 52 (r = 0.99925) by
    # 14.8%: 442.6 against about 520
    rng = np.random.default_rng(0)
    fine = np.exp(1j * circle_angles(2 ** 16))
    low = []
    for i in range(300):
        r = rng.uniform(0.995, 0.9995)
        th1, th2 = rng.uniform(0.2, 1.4), rng.uniform(1.6, 2.9)
        roots = r * np.exp(1j * np.array([th1, -th1, th2, -th2]))
        w = TransferFunctionSISO([1.0], npoly.polyfromroots(roots).real)
        sampled = float(np.max(np.abs(w(fine))))
        if hinf_norm(w) < sampled * (1.0 - 1e-9):
            low.append(i)
    assert low == []


@st.composite
def resonances(draw):
    """2 to 4 resonators g_k / ((z - p_k)(z - conj p_k)), p_k = r_k e^{i theta_k},
    summed: one lobe per pair, each in its own sector of the upper half
    circle, with 1 - r_k in [5e-4, 1e-2] and the gain g_k = 2 (1 - r_k)
    sin(theta_k) (1 + eps_k), eps_k in [0, 1e-3], so that the peaks, about
    1 + eps_k each, are near-equal and fall between the 4096 samples."""
    dens, gains = [], []
    for k in range(draw(st.integers(2, 4))):
        theta = 0.15 + 0.7 * k + draw(st.floats(0.0, 0.5))
        r = 1.0 - 10.0 ** draw(st.floats(-3.3, -2.0))
        dens.append(np.array([r * r, -2.0 * r * np.cos(theta), 1.0]))
        gains.append(2.0 * (1.0 - r) * np.sin(theta) * (1.0 + draw(st.floats(0.0, 1e-3))))
    den = np.ones(1)
    for d in dens:
        den = npoly.polymul(den, d)
    num = np.zeros(den.size - 1)
    for k, g in enumerate(gains):
        rest = np.ones(1)
        for d in dens[:k] + dens[k + 1:]:
            rest = npoly.polymul(rest, d)
        num[: rest.size] += g * rest
    return TransferFunctionSISO(num, den)


@given(resonances())
def test_hinf_norm_finds_the_highest_of_near_equal_peaks(w):
    # which lobe holds the largest of the 4096 samples is an accident of
    # where the grid falls; the peak gain must be at least every sample of a
    # 16 times finer grid whatever lobe that is
    fine = np.max(np.abs(w(np.exp(1j * circle_angles(2 ** 16)))))
    assert hinf_norm(w) >= fine * (1.0 - 1e-9)


def test_hinf_dominates_rms():
    rng = np.random.default_rng(31)
    for _ in range(10):
        w = random_stable_tf(rng)
        assert h2_norm_sq_exact(w) <= hinf_norm(w) ** 2 * (1.0 + 1e-9)


# -------------------------------------------------------------------- grid


def test_circle_grid_is_uniform_and_read_only():
    theta = circle_angles(64)
    assert theta[0] == -np.pi
    assert np.allclose(np.diff(theta), 2.0 * np.pi / 64, rtol=0.0, atol=1e-15)
    assert theta[-1] < np.pi
    # the shared grid of the peak-gain searches is that grid at 4096 points
    assert np.array_equal(CIRCLE_ANGLES, circle_angles(4096))
    assert np.array_equal(CIRCLE_POINTS, np.exp(1j * circle_angles(4096)))
    for shared in (CIRCLE_ANGLES, CIRCLE_POINTS):
        with pytest.raises(ValueError):
            shared[0] = 0.0
