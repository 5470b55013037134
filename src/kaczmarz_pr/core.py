"""Complex vector primitives shared by every other module.

Vectors are plain 1-D numpy arrays of complex128. The inner product is
conjugate-linear in its FIRST argument, ``inner(a, b) == a^* b``, so row
measurement expressions like ``a_i^* x`` read off directly.  The
phase-aligned distance, the solver's error metric, is computed only here,
by ``aligned2_rows``; ``dist_phase_aligned`` is its one-row form.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "inner",
    "PhaseAlignedDistance",
    "aligned2_rows",
    "dist_phase_aligned",
    "check_vector",
    "phase_diff_bound_check",
]


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def check_vector(name: str, x, n: int) -> np.ndarray:
    """x as a complex array; raises ValueError unless its shape is (n,) and
    every entry is finite."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must have finite entries")
    return x


def inner(a, b) -> complex:
    """Inner product a^* b, conjugate-linear in the first argument."""
    a = np.asarray(a)
    b = np.asarray(b)
    _check_same_dim(a, b)
    return complex(np.vdot(a, b))


class PhaseAlignedDistance(NamedTuple):
    """Raw distance ||x - z|| and its minimum over global phases of z."""

    raw: float
    aligned: float


def aligned2_rows(X, z) -> np.ndarray:
    """min_t ||x - e^{it} z||^2 for each row x of the (..., n) array X,
    against signals z of a shape that broadcasts against X: one signal
    (n,), or one per row.

    Magnitudes determine a signal only up to a global phase, so this
    aligned distance is the natural error metric.  It is summed as
    ||x - g z||^2 with the optimal phase g = z^* x / |z^* x| (1 where
    z^* x = 0, as all phases then cost the same): the closed form
    ||x||^2 + ||z||^2 - 2|z^* x| loses half the significant digits to
    cancellation once the distance drops below ~1e-8 * ||x||.

    Every product is an ``einsum`` without ``optimize``, so a row's bits do
    not depend on the other rows of X, nor on how z is broadcast; a BLAS
    product, or numpy's vectorized complex multiply at n = 1, would change
    them with the row count.
    """
    w = np.einsum("...j,...j->...", X, np.conj(z))
    aw = np.abs(w)
    g = np.divide(w, aw, out=np.ones_like(w), where=aw > 0.0)
    d = (X - np.einsum("...,...j->...j", g, z)).view(float)
    return np.einsum("...j,...j->...", d, d)


def dist_phase_aligned(x, z) -> PhaseAlignedDistance:
    """Raw distance ||x - z|| and the aligned distance
    sqrt(``aligned2_rows``) on the one row x."""
    x = np.asarray(x, dtype=complex)
    z = np.asarray(z, dtype=complex)
    _check_same_dim(x, z)
    aligned = float(np.sqrt(aligned2_rows(x[None, :], z)[0]))
    return PhaseAlignedDistance(raw=float(np.linalg.norm(x - z)), aligned=aligned)


def phase_diff_bound_check(x, z):
    """Check |x/|x| - z/|z|| <= 2 min(|x - z| / |z|, 1), elementwise.

    Self-test utility for the bound relating the phase difference of two
    nonzero complex numbers to their relative distance.  Accepts scalars
    or arrays; comparison is exact (no tolerance slack).
    """
    x = np.asarray(x, dtype=complex)
    z = np.asarray(z, dtype=complex)
    ax = np.abs(x)
    az = np.abs(z)
    if np.any(ax == 0.0) or np.any(az == 0.0):
        raise ValueError("phase is undefined at zero input")
    lhs = np.abs(x / ax - z / az)
    rhs = 2.0 * np.minimum(np.abs(x - z) / az, 1.0)
    ok = lhs <= rhs
    return bool(ok) if np.ndim(ok) == 0 else ok
