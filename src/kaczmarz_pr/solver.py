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

from .core import aligned2_rows
from .sensing import _block_rows, objective_rows

__all__ = [
    "SolverConfig",
    "SolverState",
    "project_magnitude",
    "step",
    "solve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and stopping rule; ``row_rule`` must be "uniform".

    Exactly one of the tolerances must be set: ``tol_aligned_rel`` stops on
    phase-aligned error relative to ||z|| (needs the true signal; experiment
    mode), ``tol_residual`` stops on the objective value (blind mode,
    checked at history samples).  ``history_stride`` defaults to one epoch
    (n iterations) when None.  ``zero_threshold`` is relative to y_i: a
    step takes the phase-pinned branch of ``project_magnitude`` when
    |a_i^* x| <= zero_threshold * y_i.
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
        if not (math.isfinite(self.zero_threshold) and self.zero_threshold > 0.0):
            raise ValueError("zero_threshold must be positive and finite")
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

    and satisfies |a^* w| = y.  When |s| <= tau y the phase of s is
    meaningless at the scale of y; the offset phase is then pinned to 1,
    so that w = x + (y - s) * a / ||a||^2 and a^* w = y.  The threshold is
    relative to y, so the projection commutes with scaling x and y
    together, and s = 0 with y = 0 gives w = x.  This is a deterministic
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
    if sa > tau * y:
        return (1.0 - y / sa) * s / na2
    return (s - y) / na2


def step(state: SolverState, ensemble, y, cfg: SolverConfig) -> SolverState:
    """One randomized projection step on a uniformly drawn row; mutates and
    returns ``state``."""
    values = y.of(ensemble)
    i = int(state.rng.integers(ensemble.m))
    state.x = project_magnitude(state.x, ensemble.vectors[i], float(values[i]), cfg.zero_threshold)
    state.k += 1
    return state


def solve(ensemble, y, x0, cfg: SolverConfig, z=None) -> SolverState:
    """Iterate ``step`` until ``cfg.converged`` holds or max_iters is reached.

    History samples are taken every stride and at the last iteration, so
    the final state is the last history entry.  Rows are drawn a block at a
    time, which gives the same indices as one ``rng.integers(m)`` per step,
    so the iterates are those of ``step``.  A block never crosses a stride
    boundary and holds at most ``_block_rows(n)`` iterates.  ||a_i||^2 is
    computed at a row's first draw and cached.

    The step loop writes each iterate into the block's (block, n) buffer,
    and ``aligned2_rows`` gives the aligned errors of its rows at once (NaN
    without z), each with the bits ``dist_phase_aligned`` gives for that
    iterate alone.  In aligned-error mode every row is tested and the
    first that passes ``cfg.converged`` is the stop, the exact k; in
    residual mode a run stops only at a sample, which ends its block, so
    only the last row is computed.  A sample takes its aligned error from
    its block (at k = 0, from x0) and copies its iterate into a pending
    buffer, whose residuals one ``objective_rows`` call computes when it
    is full and at the end.  It holds ``_block_rows(n)`` rows, or one
    when f decides the stop, which gives ``objective_f``'s bits; a shared
    call moves a residual's last bits (see ``objective_rows``).
    Measurements of another ensemble raise ``ValueError``
    (``MeasurementSet.of``).
    """
    values = y.of(ensemble)
    x0 = np.asarray(x0, dtype=complex)
    if x0.shape != (ensemble.n,):
        raise ValueError(f"x0 dimension {x0.shape} does not match n={ensemble.n}")
    experiment = cfg.tol_aligned_rel is not None
    if experiment and z is None:
        raise ValueError("aligned-error stopping requires the true signal z")
    if z is not None and np.shape(z) != x0.shape:
        raise ValueError(f"z dimension {np.shape(z)} does not match n={ensemble.n}")

    stride = cfg.history_stride if cfg.history_stride is not None else ensemble.n
    state = SolverState(
        x=np.array(x0, dtype=complex),
        rng=np.random.default_rng(int(cfg.seed)),
    )
    nz = float(np.linalg.norm(z)) if z is not None else math.nan
    rows, tau, n = ensemble.vectors, cfg.zero_threshold, ensemble.n
    cap = _block_rows(n)  # rows of a block, and of the pending buffer
    # when f decides the stop, each sample's f is needed at once
    pending = np.empty((cap if experiment else 1, n), dtype=complex)
    marks = []  # (k, raw, aligned) of pending's rows

    def errors(X):
        """The aligned errors of X's rows; NaN without a signal."""
        return np.sqrt(aligned2_rows(X, z)) if z is not None else np.full(len(X), math.nan)

    def flush():
        res = objective_rows(ensemble, y, pending[: len(marks)])
        state.history.extend((*mark, float(r)) for mark, r in zip(marks, res))
        marks.clear()
        return float(res[-1])

    def sample(aligned):
        """Record the history entry at state.k, given its aligned error;
        returns its residual, NaN while it waits in ``pending``."""
        raw = float(np.linalg.norm(state.x - z)) if z is not None else math.nan
        pending[len(marks)] = state.x
        marks.append((state.k, raw, aligned))
        return flush() if len(marks) == len(pending) else math.nan

    norms = {}  # row index -> ||a_i||^2, computed at the row's first draw
    x, k = state.x, 0
    aligned = float(errors(x[None])[0])
    res = sample(aligned)
    while not cfg.converged(aligned, res, nz) and k < cfg.max_iters:
        size = min(stride - k % stride, cap, cfg.max_iters - k)
        block = state.rng.integers(ensemble.m, size=size)
        X = np.empty((size, n), dtype=complex)
        for i, yi, out in zip(block.tolist(), values[block].tolist(), X):
            a = rows[i]
            na2 = norms.get(i)
            if na2 is None:
                na2 = norms[i] = _norm2(a)
            x = np.subtract(x, _coefficient(np.vdot(a, x), na2, yi, tau) * a, out)
        # in residual mode only the last row is tested, against the last
        # sample's f, which failed the test, so the block runs to its end
        first = 0 if experiment else size - 1
        tested = errors(X[first:])
        stops = np.flatnonzero(cfg.converged(tested, res, nz))
        j = first + (int(stops[0]) if stops.size else len(tested) - 1)
        x, k, aligned = X[j], k + j + 1, float(tested[j - first])
        state.x, state.k = x, k
        if k % stride == 0:
            res = sample(aligned)
    if state.k % stride:
        sample(aligned)
    if marks:
        flush()
    return state
