"""Randomized row-action solver for magnitude measurements.

Each step picks one row a_i and replaces the iterate with its nearest
point on the nonconvex set {w : |a_i^* w| = y_i}, which has a closed-form
nearest-point map.  With unit-norm rows and step size 1 this coincides
with stochastic gradient descent on the mean squared magnitude residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import dist_phase_aligned
from .sensing import objective_f

__all__ = [
    "SolverConfig",
    "SolverState",
    "project_magnitude",
    "step",
    "solve",
]

# solve's screen runs the exact stopping test once its vector-form value of
# the aligned error is within this factor of the tolerance (plus rounding)
_SCREEN_MARGIN = 1.5
# solve's blocks hold at most this many bytes of iterates, so a large
# history_stride does not allocate stride * n
_BLOCK_BYTES = 256 * 1024


@dataclass
class SolverConfig:
    """Iteration budget and stopping rule; ``row_rule`` must be "uniform".

    Exactly one of the tolerances must be set: ``tol_aligned_rel`` stops on
    phase-aligned error relative to ||z|| (needs the true signal; experiment
    mode), ``tol_residual`` stops on the objective value (blind mode,
    checked at history samples).  ``history_stride`` defaults to one epoch
    (n iterations) when None.
    """

    max_iters: int
    tol_aligned_rel: float | None = None
    tol_residual: float | None = None
    row_rule: str = "uniform"  # rows are drawn uniformly, as in the analysis
    zero_threshold: float = 1e-14
    seed: int = 0
    history_stride: int | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.zero_threshold <= 0.0:
            raise ValueError("zero_threshold must be positive")
        if self.row_rule != "uniform":
            raise ValueError(f"unknown row rule {self.row_rule!r}; only 'uniform' is supported")
        if (self.tol_aligned_rel is None) == (self.tol_residual is None):
            raise ValueError("exactly one of tol_aligned_rel / tol_residual must be set")
        tol = self.tol_residual if self.tol_aligned_rel is None else self.tol_aligned_rel
        if not tol >= 0.0:
            raise ValueError("tolerances must be >= 0")
        if self.history_stride is not None and self.history_stride < 1:
            raise ValueError("history_stride must be >= 1")

    def converged(self, aligned, residual, z_norm):
        """The stopping test, the only tolerance comparison; plain
        comparisons, so it also applies elementwise to arrays."""
        if self.tol_aligned_rel is not None:
            return aligned <= self.tol_aligned_rel * z_norm
        return residual <= self.tol_residual


@dataclass
class SolverState:
    """Single-owner iteration state; ``step`` mutates it in place.

    ``history`` holds (k, raw_error, aligned_error, residual) tuples with
    strictly increasing k; error entries are NaN when no reference signal
    is available.  After ``solve``, ``rng`` is past the last row it used:
    rows are drawn a block at a time and the unused rest of the last block
    is dropped.
    """

    x: np.ndarray
    k: int = 0
    rng: np.random.Generator = field(kw_only=True)
    history: list = field(default_factory=list)


def project_magnitude(x, a, y: float, tau: float = SolverConfig.zero_threshold) -> np.ndarray:
    """Nearest point to x on {w : |a^* w| = y}.

    With s = a^* x, the nearest point keeps the phase of s:

        w = x - (1 - y / |s|) * s * a / ||a||^2

    and satisfies |a^* w| = y.  When |s| < tau the phase of s is
    meaningless; the offset phase is then pinned to 1, so that
    w = x + (y - s) * a / ||a||^2 and a^* w = y.  This is a deterministic
    choice (the event has probability zero under the sampling models used
    here, and determinism beats a random tie-break for replay).
    """
    x = np.asarray(x, dtype=complex)
    a = np.asarray(a, dtype=complex)
    if x.shape != a.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {a.shape}")
    return x - _coefficient(np.vdot(a, x), _norm2(a), y, tau) * a


def _norm2(a):
    """||a||^2 as ``np.vdot`` gives it; a zero row has no projection."""
    na2 = np.vdot(a, a).real
    if na2 == 0.0:
        raise ValueError("sensing vector must be nonzero")
    return na2


def _coefficient(s, na2, y, tau):
    """The c with x - c a = ``project_magnitude(x, a, y, tau)``, given
    s = a^* x and na2 = ||a||^2: both branches of the projection."""
    sa = abs(s)
    if sa >= tau:
        return (1.0 - y / sa) * s / na2
    return (s - y) / na2


def _aligned2_rows(X, z):
    """aligned^2 of each row x of X: ``dist_phase_aligned``'s ||x - g z||^2
    with g = z^* x / |z^* x| (1 where z^* x = 0), in vector form, so it
    differs from ``dist_phase_aligned(x, z).aligned ** 2`` by rounding only."""
    w = X @ np.conj(z)
    aw = np.abs(w)
    d = (X - np.divide(w, aw, out=np.ones_like(w), where=aw > 0.0)[:, None] * z).view(float)
    return np.einsum("ij,ij->i", d, d)


def step(state: SolverState, ensemble, y, cfg: SolverConfig) -> SolverState:
    """One randomized projection step on a uniformly drawn row; mutates and
    returns ``state``."""
    i = int(state.rng.integers(ensemble.m))
    state.x = project_magnitude(
        state.x, ensemble.vectors[i], float(y.values[i]), cfg.zero_threshold
    )
    state.k += 1
    return state


def solve(ensemble, y, x0, cfg: SolverConfig, z=None) -> SolverState:
    """Iterate ``step`` until ``cfg.converged`` holds or max_iters is reached.

    The residual is evaluated at history samples (O(mn)): every stride and
    at the last iteration, so the final state is the last history entry.
    Rows are drawn a block at a time, which gives the same indices as one
    ``rng.integers(m)`` per step, so the iterates are those of ``step``.  A
    block never crosses a stride boundary and holds at most ``_BLOCK_BYTES``
    of iterates.  ||a_i||^2 is computed at a row's first draw and cached.

    The step loop writes each iterate into the block's (block, n) buffer.
    In aligned-error mode ``_aligned2_rows`` then screens all of the block's
    rows at once, in O(n) per step.  The exact ``dist_phase_aligned`` runs,
    on the stored row (the forward iterate bit for bit), only where the
    screen is not finite or is at or below

        (_SCREEN_MARGIN tol ||z|| + 4 (n + 3) eps (2 + tol) ||z||)^2,

    whose second term covers the rounding gap between the row form and the
    per-vector form (at most (n + 3) eps (||x|| + ||z||), and ||x|| is at
    most (1 + tol) ||z|| within the tolerance).  The exact value alone
    decides every stop, so the stopping k is the one an exact test on every
    iteration gives.
    """
    if y.ensemble_ref != ensemble.ident:
        raise ValueError("measurement set does not belong to this ensemble")
    if len(y.values) != ensemble.m:
        raise ValueError("measurement count does not match ensemble")
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (ensemble.n,):
        raise ValueError(f"x0 dimension {x0.shape} does not match n={ensemble.n}")
    experiment = cfg.tol_aligned_rel is not None
    if experiment and z is None:
        raise ValueError("aligned-error stopping requires the true signal z")

    stride = cfg.history_stride if cfg.history_stride is not None else ensemble.n
    state = SolverState(
        x=np.array(x0, dtype=complex),
        rng=np.random.default_rng(int(cfg.seed)),
    )
    nz = float(np.linalg.norm(z)) if z is not None else math.nan

    def sample():
        if z is not None:
            d = dist_phase_aligned(state.x, z)
            raw, aligned = d.raw, d.aligned
        else:
            raw, aligned = math.nan, math.nan
        res = objective_f(ensemble, y, state.x)
        state.history.append((state.k, raw, aligned, res))
        return aligned, res

    rows, tau, n = ensemble.vectors, cfg.zero_threshold, ensemble.n
    norms = {}  # row index -> ||a_i||^2, computed at the row's first draw
    if experiment:
        tol = cfg.tol_aligned_rel
        eps = np.finfo(float).eps
        limit = ((_SCREEN_MARGIN * tol + 4.0 * (n + 3) * eps * (2.0 + tol)) * nz) ** 2
        if not tol * nz > 0.0:  # tol * ||z|| = 0: test exactly at every step
            limit = math.inf
    x, k = state.x, 0
    aligned, res = sample()
    while not cfg.converged(aligned, res, nz) and k < cfg.max_iters:
        size = min(stride - k % stride, max(1, _BLOCK_BYTES // (16 * n)), cfg.max_iters - k)
        block = state.rng.integers(ensemble.m, size=size)
        X = np.empty((size, n), dtype=complex)
        for i, yi, out in zip(block.tolist(), y.values[block].tolist(), X):
            a = rows[i]
            na2 = norms.get(i)
            if na2 is None:
                na2 = norms[i] = _norm2(a)
            x = np.subtract(x, _coefficient(np.vdot(a, x), na2, yi, tau) * a, out)
        k0, k = k, k + size
        if experiment:
            # a block that ends on a sample leaves its last step to the sample
            d2 = _aligned2_rows(X[: size - (k % stride == 0)], z)
            for j in np.flatnonzero(~((d2 > limit) & (d2 < math.inf))).tolist():
                aligned = dist_phase_aligned(X[j], z).aligned
                if cfg.converged(aligned, res, nz):
                    x, k = X[j], k0 + j + 1
                    break
        state.x, state.k = x, k
        if k % stride == 0:
            aligned, res = sample()
    if state.history[-1][0] != state.k:
        sample()
    return state
