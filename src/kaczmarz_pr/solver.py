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
from .sensing import objective_f, row_products

__all__ = [
    "SolverConfig",
    "SolverState",
    "project_magnitude",
    "step",
    "solve",
]

# solve's screen runs the exact stopping test once its O(1) estimate of the
# aligned error is within this factor of the tolerance
_SCREEN_MARGIN = 1.5


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
    rows are drawn a stride at a time and the unused rest of the last block
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


def _screen_start(x, z, aligned):
    """(w, g, d2) at a history sample: w = z^* x, g = w / |w| (1 when
    w = 0) and d2 = ||x - g z||^2, which is aligned^2."""
    w = complex(np.vdot(z, x))
    return w, (w / abs(w) if w else 1.0), aligned * aligned


def _screen_block(w, d2, g, c, s, u, na2):
    """Estimates of aligned^2 after each step x -> x - c_j a_j of a block
    that starts at the resync (w, g, d2), from the arrays c, s (a_j^* x
    before the step), u (a_j^* z) and na2 (||a_j||^2); see ``solve``.

    The running sums are sequential (``cumsum``), so each entry is the
    step-by-step recurrence.  An estimate is NaN where its denominator is
    not positive.
    """
    dw = -c * u.conj()
    dw[0] += w
    w = np.cumsum(dw)
    dd = (c.real * c.real + c.imag * c.imag) * na2 - 2.0 * (c.conj() * (s - g * u)).real
    dd[0] += d2
    d2 = np.cumsum(dd)
    gw = g.conjugate() * w
    den = np.abs(w) + gw.real
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        est = d2 - 2.0 * gw.imag * gw.imag / den
    est[~(den > 0.0)] = math.nan
    return est


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
    Rows are drawn a stride at a time, which gives the same indices as one
    ``rng.integers(m)`` per step, so the iterates are those of ``step``.
    ||a_i||^2 is computed at a row's first draw and cached for the solve.

    In aligned-error mode the stopping test is screened in O(1) per step,
    for a whole block at once after its steps (``_screen_block``).  With
    u_i = a_i^* z, the screen tracks w = z^* x and d2 = ||x - g z||^2, for
    the phase g fixed at the last history sample, which resyncs both
    exactly.  A step x -> x - c a_i with s = a_i^* x updates them as

        w -> w - c conj(u_i),  d2 -> d2 - 2 Re(conj(c) (s - g u_i)) + |c|^2 ||a_i||^2,

    and aligned^2 = d2 - 2 (|w| - Re(conj(g) w)), evaluated as
    d2 - 2 Im(conj(g) w)^2 / (|w| + Re(conj(g) w)) to avoid cancellation.
    The exact ``dist_phase_aligned`` runs only when this estimate is at or
    below (_SCREEN_MARGIN * tol * ||z||)^2 or is not finite, on that step's
    iterate, rebuilt from the block's start by the same updates (so bitwise
    the forward one); the exact value alone decides every stop, so the
    stopping k is the one an exact test on every iteration gives.
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

    rows, tau = ensemble.vectors, cfg.zero_threshold
    norms = {}  # row index -> ||a_i||^2, computed at the row's first draw
    if experiment:
        u = row_products(ensemble, z)
        limit = (_SCREEN_MARGIN * cfg.tol_aligned_rel * nz) ** 2
        if not limit > 0.0:  # tol * ||z|| = 0: test exactly at every step
            limit = math.inf
    x, k = state.x, 0
    aligned, res = sample()
    while not cfg.converged(aligned, res, nz) and k < cfg.max_iters:
        block = state.rng.integers(ensemble.m, size=min(stride, cfg.max_iters - k))
        idx = block.tolist()
        if experiment:
            w, g, d2 = _screen_start(x, z, aligned)
            x_start = x.copy()
        cs, ss, ns = [], [], []
        for i, yi in zip(idx, y.values[block].tolist()):
            a = rows[i]
            s = np.vdot(a, x)
            na2 = norms.get(i)
            if na2 is None:
                na2 = norms[i] = _norm2(a)
            c = _coefficient(s, na2, yi, tau)
            x -= c * a
            cs.append(c)
            ss.append(s)
            ns.append(na2)
        k0, k = k, k + len(idx)
        if experiment:
            # the sample after the block tests its last step; any other step
            # the screen cannot clear is rebuilt from x_start by the same
            # updates, so bitwise, and tested exactly
            est = _screen_block(w, d2, g, np.array(cs), np.array(ss), u[block], np.array(ns))[:-1]
            done = 0
            for j in np.flatnonzero(~((est > limit) & (est < math.inf))).tolist():
                for t in range(done, j + 1):
                    x_start -= cs[t] * rows[idx[t]]
                done = j + 1
                aligned = dist_phase_aligned(x_start, z).aligned
                if cfg.converged(aligned, res, nz):
                    state.x, k = x_start, k0 + j + 1
                    break
        state.k = k
        if k % stride == 0:
            aligned, res = sample()
    if state.history[-1][0] != state.k:
        sample()
    return state
