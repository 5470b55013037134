"""Sensing-vector ensembles and magnitude-only measurements.

Two models, both with unit-norm rows:

* ``sphere``  -- m i.i.d. vectors uniform on the unit sphere of C^n;
* ``unitary`` -- K independent Haar unitary n x n matrices, their columns
  laid out block by block, so m = K * n.

An ensemble stores its rows as an (m, n) complex array with row i = a_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MODEL_SPHERE",
    "MODEL_UNITARY",
    "SensingEnsemble",
    "MeasurementSet",
    "sample_sphere",
    "sample_block_unitary",
    "sample_unit_vector",
    "haar_unitary",
    "row_products",
    "row_magnitudes",
    "measure",
    "objective_f",
]

MODEL_SPHERE = "sphere"
MODEL_UNITARY = "unitary"


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # real block first, then imaginary block: fixed draw order for replay
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return re + 1j * im


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SensingEnsemble:
    """m unit-norm sensing vectors in C^n, rows of ``vectors``."""

    vectors: np.ndarray  # (m, n) complex128, read-only
    model: str
    seed: int
    n: int
    m: int

    @property
    def ident(self) -> str:
        return f"{self.model}:n={self.n}:m={self.m}:seed={self.seed}"


@dataclass(frozen=True)
class MeasurementSet:
    """Nonnegative magnitudes y_i = |a_i^* z| tied to their ensemble."""

    values: np.ndarray  # (m,) float64
    ensemble_ref: str


def sample_sphere(n: int, m: int, seed: int) -> SensingEnsemble:
    """m i.i.d. vectors uniform on the unit sphere in C^n.

    Each vector draws 2n standard normal reals (real/imag parts) and is
    normalized; deterministic given (n, m, seed).
    """
    if n < 1 or m < 1:
        raise ValueError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(int(seed))
    g = _complex_normal(rng, (m, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return SensingEnsemble(
        vectors=_freeze(g), model=MODEL_SPHERE, seed=int(seed), n=int(n), m=int(m)
    )


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via QR of a complex Ginibre matrix.

    The raw QR factor is not Haar; rescaling column j by the phase of
    R_jj (equivalently forcing a positive R diagonal) restores it.
    """
    g = _complex_normal(rng, (n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[np.newaxis, :]


def sample_block_unitary(n: int, K: int, seed: int) -> SensingEnsemble:
    """K independent Haar unitaries; ensemble rows are their columns in block order."""
    if n < 1 or K < 1:
        raise ValueError(f"need n >= 1 and K >= 1, got n={n}, K={K}")
    rng = np.random.default_rng(int(seed))
    blocks = [haar_unitary(n, rng).T for _ in range(K)]  # row j of U.T is column j of U
    vectors = np.ascontiguousarray(np.vstack(blocks))
    return SensingEnsemble(
        vectors=_freeze(vectors),
        model=MODEL_UNITARY,
        seed=int(seed),
        n=int(n),
        m=int(K * n),
    )


def sample_unit_vector(n: int, seed) -> np.ndarray:
    """One vector uniform on the unit sphere of C^n (seed int or Generator)."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(int(seed))
    v = _complex_normal(rng, (n,))
    return v / np.linalg.norm(v)


def row_products(ensemble: SensingEnsemble, v) -> np.ndarray:
    """a_i^* v for every row, as an (m,) array: conj(A conj(v)), so that no
    conjugate copy of the (m, n) rows is made."""
    return np.conj(ensemble.vectors @ np.conj(np.asarray(v, dtype=complex)))


def row_magnitudes(ensemble: SensingEnsemble, v) -> np.ndarray:
    """|a_i^* v| for every row, as an (m,) array: |A conj(v)|, which skips
    ``row_products``' outer conjugate, since |conj(t)| = |t| exactly."""
    return np.abs(ensemble.vectors @ np.conj(np.asarray(v, dtype=complex)))


def measure(ensemble: SensingEnsemble, z) -> MeasurementSet:
    """Magnitudes y_i = |a_i^* z| for every row of the ensemble."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (ensemble.n,):
        raise ValueError(f"signal dimension {z.shape} does not match n={ensemble.n}")
    y = row_magnitudes(ensemble, z)
    return MeasurementSet(values=_freeze(y), ensemble_ref=ensemble.ident)


def objective_f(ensemble: SensingEnsemble, y: MeasurementSet, x) -> float:
    """Mean squared magnitude residual (1/m) sum_i (|a_i^* x| - y_i)^2."""
    r = row_magnitudes(ensemble, x)
    r -= y.values
    r *= r
    return float(np.mean(r))

