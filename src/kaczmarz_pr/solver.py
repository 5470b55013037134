"""Randomized row-action solver for magnitude measurements.

Each step picks one row a_i and replaces the iterate with its nearest
point on the nonconvex set {w : |a_i^* w| = y_i}, which has a closed-form
nearest-point map.  With unit-norm rows and step size 1 this coincides
with stochastic gradient descent on the mean squared magnitude residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import _check_same_dim, aligned2_rows, check_vector
from .sensing import _block_rows, _einsum, _prepared, objective_rows
from .seeding import check_int, check_real

__all__ = [
    "SolverConfig",
    "SolverState",
    "project_magnitude",
    "step",
    "solve",
    "solve_group",
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
        check_int("max_iters", self.max_iters, 1)
        check_int("seed", self.seed, 0)
        check_real("zero_threshold", self.zero_threshold, 0.0, strict=True)
        if self.row_rule != "uniform":
            raise ValueError(f"unknown row rule {self.row_rule!r}; only 'uniform' is supported")
        if (self.tol_aligned_rel is None) == (self.tol_residual is None):
            raise ValueError("exactly one of tol_aligned_rel / tol_residual must be set")
        tol = "tol_residual" if self.tol_aligned_rel is None else "tol_aligned_rel"
        check_real(tol, getattr(self, tol), 0.0)
        if self.history_stride is not None:
            check_int("history_stride", self.history_stride, 1)

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
    is available.  After ``solve``, ``rng`` is where k ``step`` calls
    leave it.
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

    This is the oracle of the step rule, ``_steps`` on one row: every step
    of ``solve`` and ``solve_group`` gives its bits.
    """
    x = np.asarray(x, dtype=complex)
    a = np.asarray(a, dtype=complex)
    _check_same_dim(x, a)
    rows = a[None]
    conj, na2 = _prepared(rows)
    if not na2.all():  # a zero row has no projection
        raise ValueError("sensing vector must be nonzero")
    out = np.empty_like(rows)
    _steps(x, rows, conj, na2, np.array([y], dtype=float), tau, out)
    return out[0]


def step(state: SolverState, ensemble, y, cfg: SolverConfig) -> SolverState:
    """One randomized projection step on a uniformly drawn row; mutates and
    returns ``state``."""
    values = y.of(ensemble)
    i = int(state.rng.integers(ensemble.m))
    state.x = project_magnitude(state.x, ensemble.vectors[i], float(values[i]), cfg.zero_threshold)
    state.k += 1
    return state


def _steps(x, rows, conj, na2, y, tau, X):
    """The step rule, one row at a time: step j projects x onto
    {w : |a^* w| = y[j]}, a = rows[j], and writes the iterate to X[j].

    With s = a^* x, the iterate is x - c a, where c = ((1 - y / |s|) /
    ||a||^2) s, or c = (1 / ||a||^2)(s - y) where |s| <= tau y.  s is the
    einsum row reduction, which gives a row the bits it has in any stack of
    rows (``np.vdot``'s differ); |s| is the C library's hypot, which
    builtin ``abs`` and ``np.hypot`` call (the ``np.abs`` ufunc rounds
    differently); and c is a real times s, since numpy's scalar and array
    forms of complex / real round differently.  ``_steps_stacked`` is the
    same rule on a stack of iterates.
    """
    for a, ca, n2, yj, out in zip(rows, conj, na2.tolist(), y.tolist(), X):
        s = complex(_einsum("j,j->", ca, x))
        sa = abs(s)
        c = ((1.0 - yj / sa) / n2) * s if sa > tau * yj else (1.0 / n2) * (s - yj)
        x = np.subtract(x, c * a, out)


def _steps_stacked(x, rows, conj, na2, y, tau, X):
    """``_steps`` on each row t of the (T, n) x at once: step j projects
    it onto its own constraint (rows[j, t], y[j, t]) and writes the
    iterates to X[j].  The rule is written in ufuncs over the stack, so
    each row gets the bits ``_steps`` gives it alone."""
    for a, ca, n2, yj, ty, out in zip(rows, conj, na2, y, tau * y, X):
        s = _einsum("ij,ij->i", ca, x)
        sa = np.hypot(s.real, s.imag)
        keep = sa > ty
        if np.count_nonzero(keep) == len(keep):
            c = ((1.0 - yj / sa) / n2) * s
        else:  # a pinned row divides by |s| <= tau y, maybe 0, in the branch it drops
            with np.errstate(all="ignore"):
                c = np.where(keep, ((1.0 - yj / sa) / n2) * s, (1.0 / n2) * (s - yj))
        np.multiply(c[:, None], a, out=out)
        x = np.subtract(x, out, out=out)


# a block of at least this many problems steps them as one (T, n) stack;
# below it, the one-row body is faster, each problem on its own
_STACK_MIN = 4
# a block of ``solve_group`` takes as many rows as its (rows, T, n)
# complex stack holds in this many bytes, and at least enough to reach the
# next history sample (``_block_size``)
_STACK_BYTES = 64 * 1024


def _block_size(k, stride, n, max_iters, width) -> int:
    """The rows of the block that starts at iteration k with ``width``
    problems: as many as a ``_STACK_BYTES`` stack holds, and at least those
    up to the next stride boundary or ``_block_rows(n)`` rows, whichever
    is fewer; never past max_iters."""
    room = _STACK_BYTES // (16 * n * width)
    return min(max(room, min(stride - k % stride, _block_rows(n))), max_iters - k)


class _Run:
    """One problem of ``solve_group``: its ``SolverState``, rows, signal
    and the history samples that wait for their residual."""

    def __init__(self, ensemble, y, x0, cfg: SolverConfig, z):
        self.values = y.of(ensemble)
        x0 = check_vector("x0", x0, ensemble.n)
        if cfg.tol_aligned_rel is not None and z is None:
            raise ValueError("aligned-error stopping requires the true signal z")
        self.ensemble, self.y, self.cfg = ensemble, y, cfg
        self.z = None if z is None else check_vector("z", z, ensemble.n)
        self.nz = float(np.linalg.norm(z)) if z is not None else math.nan
        self.state = SolverState(x=np.array(x0, dtype=complex), rng=np.random.default_rng(int(cfg.seed)))
        self.draws = np.random.default_rng(int(cfg.seed))  # the blocks' rows, past the stop too
        # when f decides the stop, each sample's f is needed at once
        held = _block_rows(ensemble.n) if cfg.tol_aligned_rel is not None else 1
        self.pending = np.empty((held, ensemble.n), dtype=complex)
        self.marks = []  # (k, raw, aligned) of pending's rows
        self.aligned = self.res = math.nan  # of the current iterate; res NaN while pending

    def flush(self):
        res = objective_rows(self.ensemble, self.y, self.pending[: len(self.marks)])
        self.state.history.extend((*mark, float(r)) for mark, r in zip(self.marks, res))
        self.marks.clear()
        return float(res[-1])

    def sample(self):
        """Record the history entry at state.k; its residual is NaN while
        it waits in ``pending``."""
        x, z = self.state.x, self.z
        raw = float(np.linalg.norm(x - z)) if z is not None else math.nan
        self.pending[len(self.marks)] = x
        self.marks.append((self.state.k, raw, self.aligned))
        self.res = self.flush() if len(self.marks) == len(self.pending) else math.nan

    def running(self) -> bool:
        """Whether the run goes on past its current iterate."""
        return not self.cfg.converged(self.aligned, self.res, self.nz)


def solve(ensemble, y, x0, cfg: SolverConfig, z=None) -> SolverState:
    """Iterate ``step`` until ``cfg.converged`` holds or max_iters is
    reached: ``solve_group`` (see there) on this one problem.  x0, and z
    where given, must be finite (n,) vectors."""
    (state,) = solve_group([(ensemble, y, x0, cfg, z)])
    return state


def solve_group(problems) -> list:
    """``solve`` on each (ensemble, y, x0, cfg, z) of ``problems`` in
    lockstep.  The problems share n, every ``SolverConfig`` setting but
    the seed, and whether z is given; each gets the state ``solve`` gives
    it alone, bit for bit.

    History samples are taken every stride and at the last iteration, so
    the final state is the last history entry.  Each problem draws its
    rows from a generator of its own seed, which gives the same indices as
    one ``rng.integers(m)`` per step, so the iterates are those of
    ``step``.  ``_block_size`` sizes each block; every running problem is
    at the same k at a block's start, so the blocks are the same for all.
    A problem draws a block's rows with one ``integers`` call, also those
    past its stop; when the group ends, its ``SolverState.rng``, untouched
    until then, draws its k rows, so it is where k ``step`` calls leave
    it.  A block gathers its rows, conjugates and ||a_i||^2 once;
    ``SensingEnsemble`` has refused a row where that is 0 or not finite.
    Each step of the block follows the step rule of ``_steps``: one (T, n)
    stacked step for all running problems (``_steps_stacked``), or for
    fewer than ``_STACK_MIN`` of them the one-row body per problem
    (``_steps``).

    The steps write each iterate into the block's (block, T, n) buffer,
    and one ``aligned2_rows`` call gives the aligned errors of its rows,
    each against its own problem's z (NaN without z), each with the bits
    ``dist_phase_aligned`` gives for that iterate alone: every row in
    aligned-error mode, the samples and the last row in residual mode.  A
    problem's first row whose aligned error passes ``cfg.converged`` is its
    stop, the exact k, where it leaves the group; else its first sample
    whose f passes.  Each problem takes, in order, the block's samples, the
    rows that fall on a stride, up to its stop.  A sample takes its
    aligned error from its block (at k = 0, from x0) and copies its
    iterate into the problem's pending buffer, whose residuals one
    ``objective_rows`` call computes when it is full and at the end.  It
    holds ``_block_rows(n)`` rows, or one when f decides the stop, which
    gives ``objective_f``'s bits; a shared call moves a residual's last
    bits (see ``objective_rows``).  Measurements of another ensemble raise
    ``ValueError`` (``MeasurementSet.of``).
    """
    runs = [_Run(*problem) for problem in problems]
    if not runs:
        return []
    cfg, n, signal = runs[0].cfg, runs[0].ensemble.n, runs[0].z is not None
    for run in runs:
        if (replace(run.cfg, seed=cfg.seed), run.ensemble.n, run.z is not None) != (cfg, n, signal):
            raise ValueError("a group's problems must share n, every setting but the seed, "
                             "and whether z is given")
    stride = cfg.history_stride if cfg.history_stride is not None else n

    def errors(X, group):
        """The aligned errors of the (rows, T, n) X's iterates, each
        against its problem's signal; NaN without a signal."""
        if not signal:
            return np.full(X.shape[:2], math.nan)
        return np.sqrt(aligned2_rows(X, np.stack([run.z for run in group]))).reshape(X.shape[:2])

    for run, aligned in zip(runs, errors(np.stack([run.state.x for run in runs])[None], runs)[0]):
        run.aligned = float(aligned)
        run.sample()
    active, k = [run for run in runs if run.running()], 0
    while active and k < cfg.max_iters:
        size = _block_size(k, stride, n, cfg.max_iters, len(active))
        blocks = [run.draws.integers(run.ensemble.m, size=size) for run in active]
        rows = np.empty((size, len(active), n), dtype=complex)
        for t, (run, block) in enumerate(zip(active, blocks)):
            rows[:, t] = run.ensemble.vectors[block]
        conj, na2 = _prepared(rows)
        y = np.stack([run.values[block] for run, block in zip(active, blocks)], axis=1)
        X = np.empty_like(rows)
        if len(active) >= _STACK_MIN:
            x = np.stack([run.state.x for run in active])
            _steps_stacked(x, rows, conj, na2, y, cfg.zero_threshold, X)
        else:
            for t, run in enumerate(active):
                column = (rows[:, t], conj[:, t], na2[:, t], y[:, t])
                _steps(run.state.x, *column, cfg.zero_threshold, X[:, t])
        samples = range(stride - 1 - k % stride, size, stride)
        # residual mode stops only at a sample: it tests those and the last row
        picked = slice(None) if cfg.tol_aligned_rel is not None else sorted({*samples, size - 1})
        tested = np.full((size, len(active)), math.nan)
        tested[picked] = errors(X[picked], active)
        for t, run in enumerate(active):
            # f is unknown at a block row, so only the aligned error stops here
            hits = np.flatnonzero(cfg.converged(tested[:, t], math.nan, run.nz))
            stop = int(hits[0]) if hits.size else size - 1
            for j in samples:
                if j > stop:
                    break
                run.state.x, run.state.k, run.aligned = X[j, t], k + j + 1, float(tested[j, t])
                run.sample()
                if not run.running():
                    stop = j
                    break
            # a copy: a problem that stops must not keep the block alive
            run.state.x, run.state.k = X[stop, t].copy(), k + stop + 1
            run.aligned = float(tested[stop, t])
        active, k = [run for run in active if run.running()], k + size
    for run in runs:
        if run.state.k % stride:
            run.sample()
        if run.marks:
            run.flush()
        # the k draws of a ``step`` loop, a bounded block at a time
        for start in range(0, run.state.k, _block_rows(1)):
            run.state.rng.integers(run.ensemble.m, size=min(_block_rows(1), run.state.k - start))
    return [run.state for run in runs]
