"""Local-regularity diagnostics for the magnitude least-squares objective.

The objective over a measurement set is

    f(x) = (1/m) sum_i (|a_i^* x| - y_i)^2 ,

whose local behavior around the true signal governs the expected per-step
contraction of the row-projection solver.  f itself is
``sensing.objective_f``; this module provides its first and second
directional derivatives, the row "wedge" sets and the terms of the
regularity constant, the minimum of term1 - term2 - term3 over the
phase-aligned unit sphere, which ``search.estimate_L`` brackets.  The
Monte-Carlo checks of the lemma constants behind the analysis live in
``verify``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import check_vector
from .sensing import _freeze, row_products

__all__ = [
    "dir_deriv_f",
    "second_dir_deriv_fi",
    "second_dir_deriv_at_signal",
    "wedge",
    "regularity_terms",
]


def dir_deriv_f(ensemble, y, x, v) -> float:
    """One-sided directional derivative of f at x along v.

    Valid only where every |a_i^* x| > 0; the closed form is

        (1/m) sum_i (1 - y_i / |a_i^* x|) * 2 Re((a_i^* v) conj(a_i^* x)).

    Rows with a_i^* x == 0 make the formula meaningless (the derivative
    still exists one-sidedly) and raise instead of being regularized.
    """
    values = y.of(ensemble)
    s = row_products(ensemble, x)
    sa = np.abs(s)
    if np.any(sa == 0.0):
        raise ValueError("formula requires |a_i^* x| > 0 for every row")
    t = row_products(ensemble, v)
    return float(np.mean((1.0 - values / sa) * 2.0 * np.real(t * np.conj(s))))


def second_dir_deriv_fi(a, z, x, v) -> float:
    """Second directional derivative along v of the single-row residual
    f_i(x) = (|a^* z| - |a^* x|)^2 at x, with |a^* x| > 0:

        2|a^* v|^2 - y 2|a^* v|^2 / |a^* x|
                   + y (2 Re((a^* v) conj(a^* x)))^2 / (2 |a^* x|^3),

    where y = |a^* z|.
    """
    a = np.asarray(a, dtype=complex)
    s = np.vdot(a, np.asarray(x, dtype=complex))
    sa = abs(s)
    if sa == 0.0:
        raise ValueError("formula requires |a^* x| > 0")
    t = np.vdot(a, np.asarray(v, dtype=complex))
    yv = abs(np.vdot(a, np.asarray(z, dtype=complex)))
    ta2 = abs(t) ** 2
    cross = 2.0 * (t * np.conj(s)).real
    return float(2.0 * ta2 - yv * 2.0 * ta2 / sa + yv * cross * cross / (2.0 * sa**3))


def _signal_products(ensemble, z):
    """(conj(u), |u|) with u = a_i^* z for every row; the curvature at the
    signal needs every |u_i| > 0."""
    u = row_products(ensemble, z)
    ua = np.abs(u)
    if np.any(ua == 0.0):
        raise ValueError("requires |a_i^* z| > 0 for every row")
    return np.conj(u), ua


def _curvature(t, uc, ua):
    """(2 Re(t conj(u)))^2 / (2 |u|^2) elementwise, from conj(u) and |u|.

    Each u_i enters scaled by 2^-e_i, the power of two that puts |u_i| in
    [1/2, 1) (``frexp``), so neither square overflows or underflows at any
    scale of the signal; the numerator is linear in u, so it is scaled
    after the product.  The scaling is exact and cancels, so the bits are
    those of the unscaled formula wherever |u_i|^2 is a normal float.
    """
    ua, e = np.frexp(ua)
    np.negative(e, out=e)
    cross = 2.0 * np.real(t * uc)
    np.ldexp(cross, e, out=cross)
    cross *= cross
    cross *= 1.0 / (2.0 * ua * ua)
    return cross


def second_dir_deriv_at_signal(ensemble, z, v) -> np.ndarray:
    """Per-row curvature at the signal, (2 Re(t_i conj(u_i)))^2 / (2 |u_i|^2)
    with u = a_i^* z and t = a_i^* v; each value lies in [0, 2 |t_i|^2].

    At x = z the first two terms of the general second derivative cancel
    and only this nonnegative part remains.  Note it vanishes identically
    when v is a purely imaginary multiple of z (the flat global-phase
    direction of f).
    """
    uc, ua = _signal_products(ensemble, z)
    return _curvature(row_products(ensemble, v), uc, ua)


# ---------------------------------------------------------------------------
# wedge sets


def wedge(ensemble, z, v, beta: float) -> np.ndarray:
    """Rows {i : beta |a_i^* v| >= |a_i^* z|}, exact float comparison, as a
    read-only sorted array of 0-based indices."""
    inside = beta * np.abs(row_products(ensemble, v)) >= np.abs(row_products(ensemble, z))
    return _freeze(np.flatnonzero(inside))


# ---------------------------------------------------------------------------
# the regularity constant's terms


def _term_coefficients(alpha: float, m: int):
    """(6/(alpha-1), 2+4 alpha), the weights of term2 and term3; raises
    where term2 + term3 could overflow at m unit rows."""
    c_mid = 6.0 / (alpha - 1.0)
    c_wedge = 2.0 + 4.0 * alpha
    if not math.isfinite((c_mid + c_wedge) * m):
        raise ValueError(f"alpha={alpha:g} is too large for m={m}: the terms overflow")
    return c_mid, c_wedge


def regularity_terms(ensemble, z, v, c0: float, alpha: float):
    """(term1, term2, term3, bracket) at a single unit direction v:

    term1 = 1/2 sum_i curvature_i(v)
    term2 = 6/(alpha-1) sum_i |a_i^* v|^2
    term3 = (2+4 alpha) sum over the wedge S(v, c0 alpha) of |a_i^* v|^2

    and bracket = term1 - term2 - term3.  z and v must be finite (n,)
    vectors.
    """
    z, v = check_vector("z", z, ensemble.n), check_vector("v", v, ensemble.n)
    uc, ua = _signal_products(ensemble, z)
    c_mid, c_wedge = _term_coefficients(alpha, ensemble.m)
    t = row_products(ensemble, v)
    ta = np.abs(t)
    p2 = ta * ta
    term1 = 0.5 * float(_curvature(t, uc, ua).sum())
    term2 = c_mid * float(p2.sum())
    ta *= c0 * alpha
    p2 *= ta >= ua  # p2 >= 0, so rows outside the wedge give +0
    term3 = c_wedge * float(p2.sum())
    return term1, term2, term3, term1 - term2 - term3
