"""Truncated spectral initialization.

Builds the weighted covariance of the sensing vectors, with weights y_i^2
and rows truncated at 3x the root-mean-square measurement level, and
returns that level times the leading eigenvector.  Isotropic sensing
models concentrate this matrix around a rank-one spike along the signal,
so the leading eigenvector lands inside the solver's contraction basin
once m/n is moderately large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sensing import sample_unit_vector

__all__ = ["SpectralConfig", "truncated_covariance", "spectral_init"]


@dataclass(frozen=True)
class SpectralConfig:
    truncation_multiplier: float = 3.0
    power_iters_max: int = 1000
    power_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.truncation_multiplier <= 0.0:
            raise ValueError("truncation_multiplier must be positive")
        if self.power_tol <= 0.0:
            raise ValueError("power_tol must be positive")
        if self.power_iters_max < 1:
            raise ValueError("power_iters_max must be >= 1")


def truncated_covariance(ensemble, y, multiplier: float = SpectralConfig.truncation_multiplier):
    """Hermitian PSD matrix (1/m) sum y_i^2 a_i a_i^* over rows with
    y_i <= multiplier * lam0, where lam0 = sqrt(mean y^2).

    Returns (Y, lam0).  A row is dropped only if y_i^2 exceeds
    multiplier^2 times the mean, which cannot hold for all rows at once when
    multiplier >= 1; a smaller multiplier that drops every row raises.
    """
    if y.ensemble_ref != ensemble.ident:
        raise ValueError("measurement set does not belong to this ensemble")
    vals = y.values
    lam0 = float(np.sqrt(np.mean(vals * vals)))
    if lam0 == 0.0:
        raise ValueError("all measurements are zero; initialization undefined")
    mask = vals <= multiplier * lam0
    if not mask.any():
        raise ValueError(f"no measurement is within truncation_multiplier {multiplier} times the RMS level")
    aw = ensemble.vectors[mask]
    w = vals[mask] ** 2
    Y = (aw.T * w) @ aw.conj() / ensemble.m
    return Y, lam0


def spectral_init(ensemble, y, cfg: SpectralConfig) -> np.ndarray:
    """Estimate of the signal: lam0 times the unit leading eigenvector of
    the truncated covariance.

    Power iteration from a seeded random start; terminates when the
    residual ||Y v - mu v|| drops below power_tol * mu and raises if the
    budget runs out first.  The eigenvector phase is fixed by making its
    largest-modulus entry real and positive, so runs are reproducible.
    """
    Y, lam0 = truncated_covariance(ensemble, y, cfg.truncation_multiplier)
    n = ensemble.n
    rng = np.random.default_rng(int(cfg.seed))
    v = sample_unit_vector(n, rng)

    converged = False
    for _ in range(cfg.power_iters_max):
        w = Y @ v
        mu = float(np.vdot(v, w).real)  # Rayleigh quotient, real for Hermitian Y
        if mu > 0.0 and float(np.linalg.norm(w - mu * v)) <= cfg.power_tol * mu:
            converged = True
            break
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            # v fell exactly in the kernel; restart from the stream
            v = sample_unit_vector(n, rng)
            continue
        v = w / nw
    if not converged:
        raise RuntimeError(
            f"power iteration did not reach tol {cfg.power_tol} "
            f"within {cfg.power_iters_max} iterations"
        )

    j = int(np.argmax(np.abs(v)))
    v = v * (np.conj(v[j]) / abs(v[j]))
    return lam0 * v
