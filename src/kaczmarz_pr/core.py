"""Complex vector primitives shared by every other module.

Vectors are plain 1-D numpy arrays of complex128. The inner product is
conjugate-linear in its FIRST argument, ``inner(a, b) == a^* b``, so row
measurement expressions like ``a_i^* x`` read off directly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "inner",
    "PhaseAlignedDistance",
    "dist_phase_aligned",
    "phase_diff_bound_check",
]


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


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


def dist_phase_aligned(x, z) -> PhaseAlignedDistance:
    """Distance pair between x and z.

    aligned^2 = ||x||^2 + ||z||^2 - 2|<x, z>|, the closed form of
    min_t ||x - e^{it} z||^2.  Magnitude-only measurements determine a
    signal only up to a global phase, so the aligned distance is the
    natural error metric; the raw distance is kept alongside it.

    Evaluated as ||x - e^{it*} z|| with the optimal phase applied
    explicitly: the closed form as written loses half the significant
    digits to cancellation once the distance drops below ~1e-8 * ||x||,
    while the rotated difference does not.
    """
    x = np.asarray(x)
    z = np.asarray(z)
    _check_same_dim(x, z)
    w = np.vdot(x, z)  # x^* z; optimal rotation is conj(w)/|w|
    aw = abs(w)
    if aw == 0.0:
        aligned = float(np.linalg.norm(x - z))  # all phases cost the same
    else:
        aligned = float(np.linalg.norm(x - (np.conj(w) / aw) * z))
    raw = float(np.linalg.norm(x - z))
    return PhaseAlignedDistance(raw=raw, aligned=aligned)


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
