"""The bracket's minimum over a Fibonacci grid of the phase-aligned unit
sphere at n = 2, for the tests that check how close ``estimate_L`` comes
to the minimum it bounds.

At n = 2 the phase-aligned unit sphere {v : ||v|| = 1, Im(z^* v) = 0} is
a 2-sphere: v_R = (Re v, Im v) = B c with c on the unit sphere of R^3 and
B an orthonormal basis of the complement of (i z)_R in R^4.  B is taken
from a QR factorization here, not from ``estimate_L``'s eigenframe, and
the bracket is summed from its three terms directly, not through the
search's scorer.
"""

from __future__ import annotations

import numpy as np

_POINTS_PER_BLOCK = 4096


def fibonacci_sphere(count: int) -> np.ndarray:
    """(count, 3) points of the Fibonacci lattice on the unit sphere of
    R^3, spaced about sqrt(4 pi / count) apart."""
    i = np.arange(count) + 0.5
    height = 1.0 - 2.0 * i / count
    radius = np.sqrt(1.0 - height * height)
    angle = np.pi * (3.0 - np.sqrt(5.0)) * i
    return np.column_stack((radius * np.cos(angle), radius * np.sin(angle), height))


def grid_minimum(ens, z, c0: float, alpha: float, count: int):
    """(L, v): the least (n/m) (term1 - term2 - term3) over ``count`` grid
    directions of the phase-aligned unit sphere, and its direction."""
    n, m = ens.n, ens.m
    assert n == 2, "the grid covers the 2-sphere of n = 2 only"
    u = ens.vectors.conj() @ z
    u2 = u.real**2 + u.imag**2
    c_mid, c_wedge, beta = 6.0 / (alpha - 1.0), 2.0 + 4.0 * alpha, c0 * alpha
    iz_r = np.concatenate((-z.imag, z.real))
    basis = np.linalg.qr(iz_r[:, np.newaxis], mode="complete")[0][:, 1:]
    grid = fibonacci_sphere(count) @ basis.T
    V = grid[:, :n] + 1j * grid[:, n:]
    best, best_v = np.inf, None
    for lo in range(0, count, _POINTS_PER_BLOCK):
        T = V[lo : lo + _POINTS_PER_BLOCK] @ ens.vectors.conj().T  # t_i = a_i^* v
        t2 = T.real**2 + T.imag**2
        cross = 2.0 * (T * u.conj()).real
        term1 = 0.5 * (cross * cross / (2.0 * u2)).sum(axis=1)
        term2 = c_mid * t2.sum(axis=1)
        term3 = c_wedge * (t2 * (beta * beta * t2 >= u2)).sum(axis=1)
        bracket = term1 - term2 - term3
        j = int(np.argmin(bracket))
        if bracket[j] < best:
            best, best_v = float(bracket[j]), V[lo + j]
    return (n / m) * best, best_v
