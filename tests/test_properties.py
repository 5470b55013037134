"""Property tests, over inputs drawn by hypothesis: the screen of solve's
stopping test against the phase-aligned distance it screens, that
distance's invariances, and the projection onto {w : |a^* w| = y}."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from kaczmarz_pr import dist_phase_aligned  # noqa: E402
from kaczmarz_pr.solver import SolverConfig, _aligned2_rows, project_magnitude  # noqa: E402

EPS = np.finfo(float).eps

entries = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def vector_pairs(draw, max_n=8, max_distance=10.0):
    """(x, z): z with ||z|| >= 1e-3, x up to max_distance * ||z|| from a
    random global phase of z, with the distance drawn on a log scale so that
    near-solutions are drawn as often as far ones."""
    n = draw(st.integers(1, max_n))
    z = draw(arrays(complex, n, elements=entries))
    e = draw(arrays(complex, n, elements=entries))
    nz, ne = np.linalg.norm(z), np.linalg.norm(e)
    assume(nz >= 1e-3 and ne >= 1e-3)
    phase = np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    scale = 10.0 ** draw(st.floats(-12.0, math.log10(max_distance)))
    return phase * z + (scale * nz / ne) * e, z


@st.composite
def blocks(draw, max_n=8, max_rows=8):
    """(X, z): up to max_rows iterates of one z.  A row is either up to
    10 ||z|| from a random global phase of z, with the distance drawn on a
    log scale down to 1e-17 ||z|| as in vector_pairs, or supported where z
    is zero, so that z^* x = 0 exactly (x = 0 when z has no zero entry)."""
    n = draw(st.integers(1, max_n))
    support = draw(arrays(bool, n))
    z = draw(arrays(complex, n, elements=entries)) * support
    nz = np.linalg.norm(z)
    assume(nz >= 1e-3)
    X = []
    for _ in range(draw(st.integers(1, max_rows))):
        e = draw(arrays(complex, n, elements=entries))
        if draw(st.booleans()):
            X.append(e * ~support)
            continue
        ne = np.linalg.norm(e)
        assume(ne >= 1e-3)
        phase = np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        scale = 10.0 ** draw(st.floats(-17.0, 1.0))
        X.append(phase * z + (scale * nz / ne) * e)
    return np.array(X), z


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_screen_rows_match_exact_aligned_distance(block):
    """solve's screen differs from the exact test by rounding only: for
    each row the two forms of ||x - g z|| round g and the sums apart, by at
    most (n + 3) eps (||x|| + ||z||); solve's limit adds 4 times that."""
    X, z = block
    n, nz = len(z), np.linalg.norm(z)
    screened = np.sqrt(_aligned2_rows(X, z))
    for x, value in zip(X, screened):
        exact = dist_phase_aligned(x, z).aligned
        assert abs(value - exact) <= (n + 3) * EPS * (np.linalg.norm(x) + nz)


@settings(max_examples=300, deadline=None)
@given(vector_pairs(), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi))
def test_aligned_distance_ignores_global_phases(pair, tx, tz):
    x, z = pair
    d = dist_phase_aligned(x, z).aligned
    # the optimal rotation is rounded, so the value moves by rounding only
    slack = 4.0 * (len(z) + 2) * EPS * (np.linalg.norm(x) + np.linalg.norm(z))
    assert abs(dist_phase_aligned(np.exp(1j * tx) * x, z).aligned - d) <= slack
    assert abs(dist_phase_aligned(x, np.exp(1j * tz) * z).aligned - d) <= slack


@settings(max_examples=300, deadline=None)
@given(vector_pairs())
def test_aligned_distance_is_at_most_raw(pair):
    x, z = pair
    d = dist_phase_aligned(x, z)
    slack = 4.0 * (len(z) + 2) * EPS * np.linalg.norm(z)  # the rounded rotation
    assert d.aligned <= d.raw + slack


# parts of magnitude 0 or 1e-50 to 10: no product in a projection
# underflows, so its rounding is relative to the vectors' norms
parts = st.one_of(st.just(0.0), st.floats(1e-50, 10.0), st.floats(-10.0, -1e-50))
no_underflow_entries = st.builds(complex, parts, parts)


@st.composite
def projections(draw, max_n=8):
    """(x, a, y): a point, a row with ||a|| >= 1e-3 and a magnitude y."""
    n = draw(st.integers(1, max_n))
    x = draw(arrays(complex, n, elements=no_underflow_entries))
    a = draw(arrays(complex, n, elements=no_underflow_entries))
    assume(np.linalg.norm(a) >= 1e-3)
    return x, a, draw(st.floats(0.0, 100.0))


def projection_slack(x, a, y, *points):
    """Rounding of a^* w and of the projection's coefficient: a few ulps,
    n-fold in the inner products, of ||x|| + ||w|| + y / ||a||."""
    na = np.linalg.norm(a)
    return 8.0 * (len(a) + 2) * EPS * (sum(np.linalg.norm(p) for p in (x, *points)) + y / na)


@settings(max_examples=300, deadline=None)
@given(projections())
def test_projection_is_feasible(case):
    x, a, y = case
    w = project_magnitude(x, a, y)
    assert abs(abs(np.vdot(a, w)) - y) <= np.linalg.norm(a) * projection_slack(x, a, y, w)


@settings(max_examples=300, deadline=None)
@given(projections())
def test_projection_is_the_nearest_point(case):
    # the set's points nearest to x are x + (y e^{it} - a^* x) a / ||a||^2,
    # at distance |y e^{it} - a^* x| / ||a||: the projection is at least as
    # near as every point of a phase grid, and the grid's best is within
    # half a grid step of it
    x, a, y = case
    s, na = np.vdot(a, x), np.linalg.norm(a)
    assume(abs(s) >= SolverConfig.zero_threshold)
    w = project_magnitude(x, a, y)
    moved = np.linalg.norm(w - x)
    grid = np.exp(2j * np.pi * np.arange(720) / 720)
    nearest = np.abs(y * grid - s).min() / na
    slack = projection_slack(x, a, y, w)
    assert moved <= nearest + slack
    assert nearest <= moved + y * (np.pi / 720) / na + slack


@settings(max_examples=300, deadline=None)
@given(projections(), st.floats(0.0, 2.0 * math.pi))
def test_projection_is_phase_equivariant(case, t):
    # P(e^{it} x) = e^{it} P(x) where the phase of a^* x is defined; twice
    # the threshold keeps the rotated product on the same side of it
    x, a, y = case
    assume(abs(np.vdot(a, x)) >= 2.0 * SolverConfig.zero_threshold)
    rot = np.exp(1j * t)
    w = project_magnitude(x, a, y)
    diff = np.linalg.norm(project_magnitude(rot * x, a, y) - rot * w)
    assert diff <= projection_slack(x, a, y, w)


@settings(max_examples=300, deadline=None)
@given(projections())
def test_projection_is_idempotent(case):
    x, a, y = case
    w = project_magnitude(x, a, y)
    assert np.linalg.norm(project_magnitude(w, a, y) - w) <= projection_slack(x, a, y, w)
