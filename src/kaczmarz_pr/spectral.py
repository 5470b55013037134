"""Truncated spectral initialization.

Builds the weighted covariance of the sensing vectors, with weights y_i^2
and rows truncated at 3x the root-mean-square measurement level, and
returns its leading eigenvector scaled to sqrt(n) times that level, an
estimate of ||z||.  Isotropic sensing models concentrate this matrix
around a rank-one spike along the signal, so the start lands inside the
solver's contraction basin once m/n is moderately large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blas import one_thread
from .sensing import _block_rows, sample_unit_vector
from .seeding import check_int, check_real

__all__ = ["SpectralConfig", "truncated_covariance", "spectral_init"]


@dataclass(frozen=True)
class SpectralConfig:
    truncation_multiplier: float = 3.0
    power_iters_max: int = 1000
    power_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        check_real("truncation_multiplier", self.truncation_multiplier, 0.0, strict=True)
        check_real("power_tol", self.power_tol, 0.0, strict=True)
        check_int("power_iters_max", self.power_iters_max, 1)
        check_int("seed", self.seed, 0)


def truncated_covariance(ensemble, y, multiplier: float = SpectralConfig.truncation_multiplier):
    """Hermitian PSD matrix (1/m) sum y_i^2 a_i a_i^* over rows with
    y_i <= multiplier * lam0, where lam0 = sqrt(mean y^2).

    Returns (Y, lam0).  Y is (1/m) B^T conj(B) for the rows B_i = y_i a_i,
    with y_i set to 0 on dropped rows: the sum of the real Gram products of
    B's float view over blocks of ``sensing._block_rows(n)`` rows, each
    symmetric by construction, assembled into a Y that is exactly
    Hermitian.  The products run on one BLAS thread (``blas.one_thread``),
    so Y has the same bits at any ``OPENBLAS_NUM_THREADS``.  A row is
    dropped only if y_i^2 exceeds multiplier^2 times the mean, which
    cannot hold for all rows at once when multiplier >= 1;
    a smaller multiplier that drops every row raises, as do all-zero
    measurements, an RMS level below 2^-511 (lam0^2, the scale of Y, would
    be subnormal), an RMS level of at least 2^511 / sqrt(max(m, n))
    (||y||^2 = m lam0^2, the scale of the sums over rows here and in the
    residual, and n lam0^2, the squared norm of the start, must stay a
    factor 4 below overflow) and measurements of another ensemble
    (``MeasurementSet.of``).  The mean square is formed from
    y 2^-e, with 2^-e the power of two that puts max y in [1/2, 1)
    (``frexp``), so it cannot overflow; the scaling is exact and cancels,
    so lam0 has the bits of the unscaled formula wherever no y_i^2, scaled
    or not, is subnormal.
    """
    vals = y.of(ensemble)
    if not vals.any():
        raise ValueError("all measurements are zero; initialization undefined")
    e = math.frexp(float(vals.max()))[1]
    scaled = np.ldexp(vals, -e)
    lam0 = math.ldexp(float(np.sqrt(np.mean(scaled * scaled))), e)
    if lam0 < 2.0**-511:
        raise ValueError(f"measurement RMS level {lam0:.6g} is below 2**-511: its square is subnormal")
    bound = 2.0**511 / math.sqrt(max(ensemble.m, ensemble.n))
    if lam0 >= bound:
        raise ValueError(f"measurement RMS level {lam0:.6g} is at least 2**511/sqrt(max(m, n)) = "
                         f"{bound:.6g}: a run's sums of squares would overflow")
    mask = vals <= multiplier * lam0
    if not mask.any():
        raise ValueError(f"no measurement is within truncation_multiplier {multiplier} times the RMS level")
    weights = np.where(mask, vals, 0.0)
    rows = _block_rows(ensemble.n)
    G = np.zeros((2 * ensemble.n, 2 * ensemble.n))
    with one_thread():
        for start in range(0, ensemble.m, rows):
            B = ensemble.vectors[start : start + rows] * weights[start : start + rows, None]
            Bf = B.view(float)  # columns Re b_1, Im b_1, Re b_2, ...
            G += Bf.T @ Bf  # a product with its own transpose, exactly symmetric
    Y = np.empty((ensemble.n, ensemble.n), dtype=complex)
    Y.real = G[0::2, 0::2] + G[1::2, 1::2]
    Y.imag = G[1::2, 0::2] - G[0::2, 1::2]
    Y /= ensemble.m
    return Y, lam0


def spectral_init(ensemble, y, cfg: SpectralConfig) -> np.ndarray:
    """Estimate of the signal z: sqrt(n) lam0 times the unit leading
    eigenvector of the truncated covariance Y.  With unit-norm rows
    E y^2 = ||z||^2 / n, and n mean y^2 = ||z||^2 for the unitary model.

    Power iteration from a seeded random start; terminates when the
    residual ||Y v - mu v|| drops below power_tol * mu and raises if the
    budget runs out first.  Y = 0 (every kept row has a zero measurement)
    raises at once; for any other Y every iterate after the start lies in
    range(Y), where Y v is not zero.  The phase is fixed by making the
    largest-modulus entry real and positive, so runs are reproducible.
    """
    Y, lam0 = truncated_covariance(ensemble, y, cfg.truncation_multiplier)
    if not Y.any():
        raise ValueError(f"truncated covariance is zero: every row kept at truncation_multiplier "
                         f"{cfg.truncation_multiplier} has a zero measurement")
    # Y scales as lam0^2: an exact power-of-two rescaling to order one keeps
    # the iterates' squared norms clear of overflow and underflow at every
    # ||z|| whose measurements are normal floats
    Y *= 2.0 ** (-2 * math.frexp(lam0)[1])
    v = sample_unit_vector(ensemble.n, np.random.default_rng(int(cfg.seed)))
    for _ in range(cfg.power_iters_max):
        w = Y @ v
        mu = float(np.vdot(v, w).real)  # Rayleigh quotient, real for Hermitian Y
        if mu > 0.0 and float(np.linalg.norm(w - mu * v)) <= cfg.power_tol * mu:
            break
        v = w / float(np.linalg.norm(w))
    else:
        raise RuntimeError(
            f"power iteration did not reach tol {cfg.power_tol} "
            f"within {cfg.power_iters_max} iterations"
        )

    j = int(np.argmax(np.abs(v)))
    v = v * (np.conj(v[j]) / abs(v[j]))
    return (math.sqrt(ensemble.n) * lam0) * v
