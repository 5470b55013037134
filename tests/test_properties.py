"""Property tests: the screened stopping test's recurrence and the
phase-aligned distance it estimates, over inputs drawn by hypothesis."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from kaczmarz_pr import dist_phase_aligned  # noqa: E402
from kaczmarz_pr.solver import (  # noqa: E402
    SolverConfig,
    _coefficient,
    _screen_block,
    _screen_start,
)

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


@settings(max_examples=300, deadline=None)
@given(vector_pairs(max_distance=0.5), st.data())
def test_recurrence_tracks_exact_aligned_distance(pair, data):
    """The screen's estimates of aligned^2 after each of up to 30 steps on
    consistent data (y = |a^* z|), while x stays within ||z|| / 2 of g z:
    the regime of the stopping test, where Re(conj(g) w) >= ||z||^2 / 2, so
    the estimate's denominator is bounded away from zero, so it must be
    finite."""
    x, z = pair
    n, nz = len(z), np.linalg.norm(z)
    rows = data.draw(st.lists(arrays(complex, n, elements=entries), min_size=1, max_size=30))
    assume(all(np.linalg.norm(a) >= 1e-3 for a in rows))
    rows = [a / np.linalg.norm(a) for a in rows]
    w, g, d2 = _screen_start(x, z, dist_phase_aligned(x, z).aligned)
    tau = SolverConfig.zero_threshold
    worst_e, worst_x = np.linalg.norm(x - g * z), np.linalg.norm(x)
    iterates, steps = [], []
    for a in rows:
        u = complex(np.vdot(a, z))
        s = np.vdot(a, x)
        na2 = np.vdot(a, a).real
        c = _coefficient(s, na2, abs(u), tau)
        x = x - c * a
        iterates.append(x)
        steps.append((c, s, u, na2))
    c, s, u, na2 = (np.array(v) for v in zip(*steps))
    estimates = _screen_block(w, d2, g, c, s, u, na2)
    for k, (x, est) in enumerate(zip(iterates, estimates), start=1):
        worst_e = max(worst_e, np.linalg.norm(x - g * z))
        worst_x = max(worst_x, np.linalg.norm(x))
        if worst_e > nz / 2:
            break
        exact = dist_phase_aligned(x, z).aligned
        # every tracked term is the error ||x - g z|| (known only to within
        # an ulp of the vectors) times a vector norm; a few ulps per term and
        # step, n-fold in the inner products, add up at most linearly
        scale = worst_x + nz
        bound = 16.0 * k * (n + 2) * EPS * (worst_e + EPS * scale) * (worst_e + scale)
        assert abs(est - exact * exact) <= bound


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
