"""Sensing-vector ensembles and magnitude-only measurements.

Two models, both with unit-norm rows:

* ``sphere``  -- m i.i.d. vectors uniform on the unit sphere of C^n;
* ``unitary`` -- K independent Haar unitary n x n matrices, their columns
  laid out block by block, so m = K * n.

An ensemble is its rows, an (m, n) complex array with row i = a_i, and a
measurement set holds the ensemble it measured.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import check_vector
from .seeding import check_int

__all__ = [
    "MODEL_SPHERE",
    "MODEL_UNITARY",
    "SensingEnsemble",
    "MeasurementSet",
    "sample_sphere",
    "sample_block_unitary",
    "sample_unit_vector",
    "draw_ahead",
    "row_products",
    "measure",
    "objective_f",
    "objective_rows",
]

MODEL_SPHERE = "sphere"
MODEL_UNITARY = "unitary"

# bytes of rows, iterates or (rows, iterates) products that one block of
# work holds: ``objective_rows``' chunks, and the blocks of ``_block_rows``
_BLOCK_BYTES = 256 * 1024


def _block_rows(n: int) -> int:
    """Rows of length n in a complex block of ``_BLOCK_BYTES``: the blocks
    of ``_normalize_rows``, of ``solver.solve`` and of the verify checks'
    draws."""
    return max(1, _BLOCK_BYTES // (16 * n))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    # real block first, then imaginary block: fixed draw order for replay;
    # written into one complex array, with the bits of re + 1j * im
    g = np.empty(shape, dtype=complex)
    g.real = rng.standard_normal(shape)
    g.imag = rng.standard_normal(shape)
    return g


def _fill_normal(rng: np.random.Generator, g: np.ndarray, segment: int, buf: np.ndarray) -> None:
    """Fill the complex (rows, n) array g with ``_complex_normal``'s draws
    on each of its consecutive segments of ``segment`` rows in turn: a
    segment's real block, then its imaginary block.  The draws pass through
    the contiguous real (rows, n) buffer buf, ``len(buf)`` rows at a time,
    and no array is allocated.  numpy's normal stream does not depend on
    how a draw is split, so g gets the bits of the one-shot draws."""
    step = len(buf)
    for lo in range(0, len(g), segment):
        seg = g[lo : lo + segment]
        for part in (seg.real, seg.imag):
            for start in range(0, len(part), step):
                target = part[start : start + step]
                out = buf[: len(target)]
                rng.standard_normal(out=out)
                target[...] = out


def _segment_rows(model: str, n: int, m: int) -> int:
    """Rows per ``_fill_normal`` segment: the sphere model draws its m rows
    at once, the unitary model one n x n Ginibre matrix at a time."""
    return n if model == MODEL_UNITARY else m


def draw_ahead(model: str, n: int, m: int, seeds):
    """Yield (seed, fill) for each of ``seeds`` in turn, where fill holds
    the normal draws that ``_sample`` builds ensemble (model, n, m, seed)
    from, with the bits of its own draw.  The caller holds the generator
    and each fill; one drawer thread draws the next fill while the caller
    works on the current one.  Each step allocates the next array on the
    caller's thread, and the first one the one buffer, so the drawer
    allocates nothing (a thread that allocates grows a malloc arena of its
    own).  A fill that numpy refuses or cannot allocate is None, and
    ``_sample`` allocates it.  Closing the generator waits for the drawer."""
    segment, buf = _segment_rows(model, n, m), []
    with ThreadPoolExecutor(max_workers=1) as drawer:

        def queue(seed):
            try:
                g = np.empty((m, n), dtype=complex)
                if not buf:
                    buf.append(np.empty((_block_rows(n), n)))
            except (ValueError, MemoryError):  # _sample's own allocation raises it
                return seed, None, None
            return seed, g, drawer.submit(_fill_normal, np.random.default_rng(int(seed)), g, segment, buf[0])

        queued = map(queue, seeds)
        ahead = next(queued, None)
        while ahead:
            seed, g, fill = ahead  # lets go of the last fill before the next is allocated
            ahead = next(queued, None)
            if fill is not None:
                fill.result()
            yield seed, g


def _normalize_rows(g: np.ndarray) -> np.ndarray:
    """Scale the rows of the complex (rows, n) array g to unit norm in
    place, ``_BLOCK_BYTES`` of rows at a time; returns g.  A row's bits are
    those of row / ||row||: numpy divides a complex by a real as a product
    with its reciprocal."""
    rows = _block_rows(g.shape[1])
    for start in range(0, len(g), rows):
        block = g[start : start + rows]
        block *= 1.0 / np.linalg.norm(block, axis=1, keepdims=True)
    return g


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# np.einsum without optimize, minus the 1.3 us its dispatch layer adds to
# each call; the same function, so the same bits
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy < 2
    _einsum = np.einsum


def _prepared(rows):
    """(conjugates, ||a||^2) of the (..., n) rows, as the step rule takes
    them: each ||a||^2 an einsum row reduction, with the bits it has
    alone."""
    conj = np.conj(rows)
    return conj, _einsum("...j,...j->...", conj, rows).real


@dataclass(frozen=True, eq=False)
class SensingEnsemble:
    """m sensing vectors in C^n: an ensemble is the rows of ``vectors``,
    and m and n are read from their shape.  It keeps a read-only complex
    copy of the rows, and raises ``ValueError``, naming the first bad row,
    unless they form a nonempty (m, n) array whose every ||a_i||^2
    (``_prepared``) is finite and > 0.  The samplers' unit-norm rows skip
    the check (``_of``)."""

    vectors: np.ndarray  # (m, n) complex128, read-only

    def __post_init__(self):
        rows = np.array(self.vectors, dtype=complex)
        if rows.ndim != 2 or not rows.size:
            raise ValueError(f"sensing vectors must be a nonempty (m, n) array, got shape {rows.shape}")
        with np.errstate(all="ignore"):  # an overflow is refused below
            norms2 = _prepared(rows)[1]
        bad = np.flatnonzero(~((norms2 > 0.0) & np.isfinite(norms2)))
        if bad.size:
            raise ValueError(f"sensing vector {bad[0]} has squared norm {norms2[bad[0]]}; it must be finite and > 0")
        object.__setattr__(self, "vectors", _freeze(rows))

    @classmethod
    def _of(cls, rows: np.ndarray) -> SensingEnsemble:
        """The ensemble of a sampler's read-only rows, unchecked and uncopied."""
        ensemble = object.__new__(cls)
        object.__setattr__(ensemble, "vectors", rows)
        return ensemble

    @property
    def m(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Nonnegative magnitudes y_i = |a_i^* z| of the rows of ``ensemble``;
    every function of (ensemble, y) reads them through ``of``.  It keeps a
    read-only float copy, and raises ``ValueError``, naming the first bad
    value, unless each is finite and >= 0."""

    values: np.ndarray  # (m,) float64, read-only
    ensemble: SensingEnsemble

    def __post_init__(self):
        if np.iscomplexobj(self.values):  # a cast to float would drop the imaginary parts
            raise ValueError("measurements must be real")
        values = np.array(self.values, dtype=float)
        if values.shape != (self.ensemble.m,):
            raise ValueError("measurement count does not match ensemble")
        bad = np.flatnonzero(~((values >= 0.0) & np.isfinite(values)))
        if bad.size:
            raise ValueError(f"measurement {bad[0]} is {values[bad[0]]}; it must be finite and >= 0")
        object.__setattr__(self, "values", _freeze(values))

    def of(self, ensemble: SensingEnsemble) -> np.ndarray:
        """``values``, once ``ensemble`` is the very ensemble they measure."""
        if self.ensemble is not ensemble:
            raise ValueError("measurement set does not belong to this ensemble")
        return self.values


def _sample(model: str, n: int, m: int, seed: int, g: np.ndarray | None = None) -> SensingEnsemble:
    """The (m, n) ensemble of ``model`` at ``seed``: its normal fill, g if
    the caller drew it (``draw_ahead``), then its rows normalized (sphere)
    or its Ginibre blocks turned into the columns of Haar unitaries."""
    if g is None:
        g = np.empty((m, n), dtype=complex)
        _fill_normal(np.random.default_rng(int(seed)), g, _segment_rows(model, n, m), np.empty((_block_rows(n), n)))
    if model == MODEL_UNITARY:
        # the raw QR factor of a Ginibre block is not Haar; rescaling its
        # column j by the phase of R_jj (a positive R diagonal) restores it
        for start in range(0, m, n):
            block = g[start : start + n]
            q, r = np.linalg.qr(block)
            d = np.diagonal(r)
            block[...] = (q * (d / np.abs(d))[np.newaxis, :]).T  # row j of U.T is column j of U
    else:
        _normalize_rows(g)
    return SensingEnsemble._of(_freeze(g))


def sample_sphere(n: int, m: int, seed: int) -> SensingEnsemble:
    """m i.i.d. vectors uniform on the unit sphere in C^n.

    Each vector draws 2n standard normal reals (real/imag parts) and is
    normalized; deterministic given (n, m, seed).
    """
    check_int("n", n, 1)
    check_int("m", m, 1)
    check_int("seed", seed, 0)
    return _sample(MODEL_SPHERE, n, m, seed)


def sample_block_unitary(n: int, K: int, seed: int) -> SensingEnsemble:
    """K independent Haar unitaries; ensemble rows are their columns in block order."""
    check_int("n", n, 1)
    check_int("K", K, 1)
    check_int("seed", seed, 0)
    return _sample(MODEL_UNITARY, n, K * n, seed)


def sample_unit_vector(n: int, seed) -> np.ndarray:
    """One vector uniform on the unit sphere of C^n (seed int >= 0 or Generator)."""
    check_int("n", n, 1)
    rng = seed
    if not isinstance(seed, np.random.Generator):
        check_int("seed", seed, 0)
        rng = np.random.default_rng(int(seed))
    v = _complex_normal(rng, (n,))
    return v / np.linalg.norm(v)


def row_products(ensemble: SensingEnsemble, v) -> np.ndarray:
    """a_i^* v for every row, as an (m,) array: conj(A conj(v)), so that no
    conjugate copy of the (m, n) rows is made, with the outer conjugate
    taken in place."""
    t = ensemble.vectors @ np.conj(np.asarray(v, dtype=complex))
    return np.conj(t, out=t)


def measure(ensemble: SensingEnsemble, z) -> MeasurementSet:
    """Magnitudes y_i = |a_i^* z| for every row of the ensemble, of a finite
    (n,) vector z."""
    y = np.abs(row_products(ensemble, check_vector("z", z, ensemble.n)))
    return MeasurementSet(values=y, ensemble=ensemble)


def objective_f(ensemble: SensingEnsemble, y: MeasurementSet, x) -> float:
    """Mean squared magnitude residual (1/m) sum_i (|a_i^* x| - y_i)^2:
    ``objective_rows`` on the one row x, whose bits are those of
    ``np.mean`` of (|A conj(x)| - y)^2."""
    return float(objective_rows(ensemble, y, np.asarray(x, dtype=complex)[None, :])[0])


def objective_rows(ensemble: SensingEnsemble, y: MeasurementSet, X) -> np.ndarray:
    """``objective_f`` for every row x of the (h, n) array X, as an (h,) array.

    The ensemble is streamed in chunks of rows, each one (chunk, h) product
    |A_chunk conj(X)^T| holding at most max(``_BLOCK_BYTES``, 16 m) bytes,
    so h = 1 is one chunk: one GEMV and one pairwise sum, the bits of
    ``np.mean``.  For h >= 2 the product is a GEMM and each column is summed
    row by row, so a row's value depends on h in its last bits: the GEMM
    rounds |a_i^* x| apart from the GEMV by about eps y_i near the signal,
    which moves f by about 2 eps sqrt(f) rms(y) (Cauchy-Schwarz).  That
    term stays in the result where |a_i^* x| - y_i cancels.
    """
    values = y.of(ensemble)
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[1] != ensemble.n:
        raise ValueError(f"X shape {X.shape} is not (rows, n={ensemble.n})")
    m, h = ensemble.m, X.shape[0]
    Xc = np.conj(X).T
    chunk = max(1, max(_BLOCK_BYTES, 16 * m) // (16 * max(h, 1)))
    total = np.zeros(h)
    for start in range(0, m, chunk):
        r = np.abs(ensemble.vectors[start : start + chunk] @ Xc)
        r -= values[start : start + chunk, None]
        r *= r
        total += r.sum(axis=0)
    return total / m

