"""Local-regularity diagnostics for the magnitude least-squares objective.

The objective over a measurement set is

    f(x) = (1/m) sum_i (|a_i^* x| - y_i)^2 ,

whose local behavior around the true signal governs the expected per-step
contraction of the row-projection solver.  f itself is
``sensing.objective_f``; this module provides its first and second
directional derivatives, the row "wedge" sets, a direction-search
estimator for the regularity constant, and seeded Monte-Carlo validators
of the closed-form constants that appear in the analysis of these
quantities.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .sensing import row_products, sample_unit_vector

__all__ = [
    "dir_deriv_f",
    "second_dir_deriv_fi",
    "second_dir_deriv_at_signal",
    "wedge",
    "RegularityParams",
    "RegularityReport",
    "regularity_terms",
    "estimate_L",
    "wedge_fraction_mc",
    "span_projection_mass_mc",
    "plane_curvature_expectation_mc",
]

_MC_CHUNK = 100_000
_DIR_CHUNK = 256
_REFINE_POOL = 64


def dir_deriv_f(ensemble, y, x, v) -> float:
    """One-sided directional derivative of f at x along v.

    Valid only where every |a_i^* x| > 0; the closed form is

        (1/m) sum_i (1 - y_i / |a_i^* x|) * 2 Re((a_i^* v) conj(a_i^* x)).

    Rows with a_i^* x == 0 make the formula meaningless (the derivative
    still exists one-sidedly) and raise instead of being regularized.
    """
    s = row_products(ensemble, x)
    sa = np.abs(s)
    if np.any(sa == 0.0):
        raise ValueError("formula requires |a_i^* x| > 0 for every row")
    t = row_products(ensemble, v)
    return float(np.mean((1.0 - y.values / sa) * 2.0 * np.real(t * np.conj(s))))


def second_dir_deriv_fi(a, z, x, v) -> float:
    """Second directional derivative along v of the single-row residual
    f_i(x) = (|a^* z| - |a^* x|)^2 at x, with |a^* x| > 0:

        2|a^* v|^2 - y 2|a^* v|^2 / |a^* x|
                   + y (2 Re((a^* v) conj(a^* x)))^2 / (2 |a^* x|^3),

    where y = |a^* z|.
    """
    a = np.asarray(a, dtype=complex)
    s = np.vdot(a, np.asarray(x, dtype=complex))
    sa = abs(s)
    if sa == 0.0:
        raise ValueError("formula requires |a^* x| > 0")
    t = np.vdot(a, np.asarray(v, dtype=complex))
    yv = abs(np.vdot(a, np.asarray(z, dtype=complex)))
    ta2 = abs(t) ** 2
    cross = 2.0 * (t * np.conj(s)).real
    return float(2.0 * ta2 - yv * 2.0 * ta2 / sa + yv * cross * cross / (2.0 * sa**3))


def _signal_products(ensemble, z):
    """(conj(u), |u|) with u = a_i^* z for every row; the curvature at the
    signal needs every |u_i| > 0."""
    u = row_products(ensemble, z)
    ua = np.abs(u)
    if np.any(ua == 0.0):
        raise ValueError("requires |a_i^* z| > 0 for every row")
    return np.conj(u), ua


def _curvature(t, uc, inv2u2):
    """(2 Re(t conj(u)))^2 / (2 |u|^2) elementwise, from conj(u) and
    1 / (2 |u|^2) computed once per signal."""
    cross = 2.0 * np.real(t * uc)
    return cross * cross * inv2u2


def second_dir_deriv_at_signal(ensemble, z, v) -> np.ndarray:
    """Per-row curvature at the signal, (2 Re(t_i conj(u_i)))^2 / (2 |u_i|^2)
    with u = a_i^* z and t = a_i^* v; each value lies in [0, 2 |t_i|^2].

    At x = z the first two terms of the general second derivative cancel
    and only this nonnegative part remains.  Note it vanishes identically
    when v is a purely imaginary multiple of z (the flat global-phase
    direction of f).
    """
    uc, ua = _signal_products(ensemble, z)
    return _curvature(row_products(ensemble, v), uc, 1.0 / (2.0 * ua * ua))


# ---------------------------------------------------------------------------
# wedge sets


def wedge(ensemble, z, v, beta: float) -> np.ndarray:
    """Rows {i : beta |a_i^* v| >= |a_i^* z|}, exact float comparison, as a
    read-only sorted array of 0-based indices."""
    t = row_products(ensemble, v)
    u = row_products(ensemble, z)
    idx = np.flatnonzero(beta * np.abs(t) >= np.abs(u))
    idx.setflags(write=False)
    return idx


# ---------------------------------------------------------------------------
# regularity constant estimator


@dataclass(frozen=True)
class RegularityParams:
    """Search parameters: basin radius c0, slack factor alpha > 1, direction
    budget, and seed for the random search mode."""

    c0: float
    alpha: float
    net_or_samples: int = 2048
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 1.0):
            raise ValueError("alpha must be finite and exceed 1")
        if not (math.isfinite(self.c0) and self.c0 > 0.0):
            raise ValueError("c0 must be finite and positive")
        if self.net_or_samples < 1:
            raise ValueError("net_or_samples must be >= 1")


@dataclass(frozen=True)
class RegularityReport:
    """Result of the direction search.

    L_estimate = (n/m) * (term1 - term2 - term3) at the reported direction,
    a unit vector with Im(z^* v) = 0.  The search visits finitely many
    directions of the phase-aligned unit sphere {v : ||v|| = 1,
    Im(z^* v) = 0}, so L_estimate is an UPPER bound on the true minimum
    over that set; ``upper_bound_on_sphere_min`` (JSON key of the same
    name) records this and is always True.  ``evaluations`` counts the
    directions actually evaluated.  Both orientations of the 2 c0 alpha
    vs 1 constraint are recorded rather than enforced.
    """

    L_estimate: float
    argmin_direction: np.ndarray
    term1: float
    term2: float
    term3: float
    params: RegularityParams
    search_mode: str
    n: int
    m: int
    evaluations: int
    constraint_2c0alpha_lt_1: bool
    constraint_2c0alpha_gt_1: bool
    upper_bound_on_sphere_min: bool = True

    def to_dict(self) -> dict:
        """Every field, with ``params`` flattened into its four values and
        the direction split into real and imaginary lists."""
        out = asdict(self)
        v = out.pop("argmin_direction")
        out.update(out.pop("params"))
        out["argmin_direction_re"] = v.real.tolist()
        out["argmin_direction_im"] = v.imag.tolist()
        return out


def _terms_evaluator(ensemble, z, c0: float, alpha: float):
    """Batch evaluator: V (d, n) unit rows -> (term1, term2, term3) arrays.

    term1 = 1/2 sum_i curvature_i(v)
    term2 = 6/(alpha-1) sum_i |a_i^* v|^2
    term3 = (2+4 alpha) sum over the wedge S(v, c0 alpha) of |a_i^* v|^2
    """
    uc, ua = _signal_products(ensemble, z)
    a_ct = np.ascontiguousarray(ensemble.vectors.conj().T)  # (n, m)
    uc = uc[np.newaxis, :]
    inv2u2 = (1.0 / (2.0 * ua * ua))[np.newaxis, :]
    ua_row = ua[np.newaxis, :]
    wedge_beta = c0 * alpha
    c_mid = 6.0 / (alpha - 1.0)
    c_wedge = 2.0 + 4.0 * alpha

    def terms(V: np.ndarray):
        T = V @ a_ct
        Ta = np.abs(T)
        term1 = 0.5 * _curvature(T, uc, inv2u2).sum(axis=1)
        p2 = Ta * Ta
        term2 = c_mid * p2.sum(axis=1)
        term3 = c_wedge * np.where(wedge_beta * Ta >= ua_row, p2, 0.0).sum(axis=1)
        return term1, term2, term3

    return terms


def regularity_terms(ensemble, z, v, c0: float, alpha: float):
    """(term1, term2, term3, bracket) at a single unit direction v."""
    terms = _terms_evaluator(ensemble, z, c0, alpha)
    t1, t2, t3 = terms(np.asarray(v, dtype=complex)[np.newaxis, :])
    return float(t1[0]), float(t2[0]), float(t3[0]), float(t1[0] - t2[0] - t3[0])


def _hypersphere_grid(n: int, budget: int) -> np.ndarray:
    """Product grid on the unit sphere of C^n: n entry phases x (n-1)
    magnitude angles.  Resolution r ~ budget^(1/(2n-1)); doubling r nests
    the grid, so larger budgets only add directions."""
    r = int(round(budget ** (1.0 / (2 * n - 1))))
    r = min(max(r, 2), 128)
    phase = 2.0 * np.pi * np.arange(r) / r
    if n == 1:
        return np.exp(1j * phase)[:, np.newaxis]
    angle = np.linspace(0.0, np.pi / 2.0, r + 1)
    axes = [phase] * n + [angle] * (n - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [g.reshape(-1) for g in mesh]
    psi = np.stack(flat[:n], axis=1)
    theta = np.stack(flat[n:], axis=1)
    mags = np.empty((psi.shape[0], n))
    running = np.ones(psi.shape[0])
    for j in range(n - 1):
        mags[:, j] = running * np.cos(theta[:, j])
        running = running * np.sin(theta[:, j])
    mags[:, n - 1] = running
    V = mags * np.exp(1j * psi)
    return V / np.linalg.norm(V, axis=1, keepdims=True)


def _phase_aligned(V: np.ndarray, zn: np.ndarray):
    """Map each row v of V onto the phase-aligned unit sphere
    {v : ||v|| = 1, Im(z^* v) = 0}, where zn = z / ||z||: remove the
    component along i zn and renormalize.  Returns (rows, kept): rows that
    lie on +-i zn (at most 1e-8 of their norm left after the removal) have
    nothing to map and are marked not kept.  The map is applied twice, so
    that rounding left by a near-cancelling first pass is removed too
    (|Im(z^* v)| stays at rounding level for every kept row)."""
    zc = zn.conj()
    norm_in = np.linalg.norm(V, axis=1)
    V = V - 1j * np.imag(V @ zc)[:, np.newaxis] * zn
    r = np.linalg.norm(V, axis=1)
    kept = r > 1e-8 * norm_in
    V /= np.where(kept, r, 1.0)[:, np.newaxis]
    V -= 1j * np.imag(V @ zc)[:, np.newaxis] * zn
    V /= np.where(kept, np.linalg.norm(V, axis=1), 1.0)[:, np.newaxis]
    return V, kept


def _coordinate_refine(evaluate, v0: np.ndarray, f0: float, n: int,
                       step0: float = 0.25, min_step: float = 1e-3,
                       max_sweeps: int = 200):
    """Deterministic local descent over the 2n real coordinates; each move
    is mapped back by ``evaluate`` (rows -> (mapped rows, values, count
    evaluated)).  Halves the step on failed sweeps."""
    v = v0.copy()
    fbest = float(f0)
    step = step0
    sweeps = 0
    evals = 0
    while step > min_step and sweeps < max_sweeps:
        sweeps += 1
        C = np.tile(v, (4 * n, 1))
        for j in range(n):
            C[4 * j + 0, j] += step
            C[4 * j + 1, j] -= step
            C[4 * j + 2, j] += 1j * step
            C[4 * j + 3, j] -= 1j * step
        C, f, count = evaluate(C)
        evals += count
        j = int(np.argmin(f))
        if f[j] < fbest:
            v = C[j]
            fbest = float(f[j])
        else:
            step *= 0.5
    return v, fbest, evals


def estimate_L(ensemble, z, params: RegularityParams) -> RegularityReport:
    """Search the phase-aligned unit sphere {v : ||v|| = 1, Im(z^* v) = 0}
    for the minimum of

        term1(v) - term2(v) - term3(v)

    and report (n/m) times the smallest value found.

    The solver's error is measured up to a global phase: after alignment
    the error h = x - e^{it} z satisfies Im((e^{it} z)^* h) = 0, so the
    flat direction i z (where term1 vanishes and term2 does not) is left
    out.  Every candidate is mapped onto that set before it is evaluated:
    v <- v - i Im(z^* v) z / ||z||^2, renormalized; candidates on +-i z are
    dropped and not counted in ``evaluations``.

    For n <= 3 a dense product grid over phases and angles is used; above
    that, seeded uniform random directions plus local coordinate descent.
    The candidate stream is prefix-stable in the budget and the descent is
    anchored to the first min(budget, 64) candidates; the map acts point
    by point, so enlarging the budget can only add directions and never
    raises the reported minimum.  The result is an upper bound on the
    minimum over the phase-aligned sphere.
    """
    n, m = ensemble.n, ensemble.m
    terms = _terms_evaluator(ensemble, z, params.c0, params.alpha)
    zn = np.asarray(z, dtype=complex)
    zn = zn / np.linalg.norm(zn)

    def evaluate(V):
        V, kept = _phase_aligned(V, zn)
        f = np.full(len(V), math.inf)
        t1, t2, t3 = terms(V[kept])
        f[kept] = t1 - t2 - t3
        return V, f, int(np.count_nonzero(kept))

    best_v = None
    best_f = math.inf
    evaluations = 0

    if n <= 3:
        mode = "dense_net"
        grid = _hypersphere_grid(n, params.net_or_samples)
        for lo in range(0, len(grid), 1024):
            V, f, count = evaluate(grid[lo : lo + 1024])
            evaluations += count
            j = int(np.argmin(f))
            if f[j] < best_f:
                best_f = float(f[j])
                best_v = V[j].copy()
    else:
        mode = "random_refine"
        rng = np.random.default_rng(int(params.seed))
        pool_v = None
        pool_f = math.inf
        seen = 0
        remaining = params.net_or_samples
        while remaining > 0:
            take = min(_DIR_CHUNK, remaining)
            # always draw a full chunk so the stream position is independent
            # of the requested budget (prefix stability)
            g = rng.standard_normal((_DIR_CHUNK, 2 * n))
            V, f, count = evaluate(g[:take, :n] + 1j * g[:take, n:])
            j = int(np.argmin(f))
            if f[j] < best_f:
                best_f = float(f[j])
                best_v = V[j].copy()
            if seen < _REFINE_POOL:
                upto = min(take, _REFINE_POOL - seen)
                jj = int(np.argmin(f[:upto]))
                if f[jj] < pool_f:
                    pool_f = float(f[jj])
                    pool_v = V[jj].copy()
            seen += take
            remaining -= take
            evaluations += count
        rv, rf, revals = _coordinate_refine(evaluate, pool_v, pool_f, n)
        evaluations += revals
        if rf < best_f:
            best_f = rf
            best_v = rv

    t1, t2, t3 = terms(best_v[np.newaxis, :])
    term1, term2, term3 = float(t1[0]), float(t2[0]), float(t3[0])
    flag = 2.0 * params.c0 * params.alpha
    return RegularityReport(
        L_estimate=(n / m) * (term1 - term2 - term3),
        argmin_direction=best_v,
        term1=term1,
        term2=term2,
        term3=term3,
        params=params,
        search_mode=mode,
        n=n,
        m=m,
        evaluations=evaluations,
        constraint_2c0alpha_lt_1=flag < 1.0,
        constraint_2c0alpha_gt_1=flag > 1.0,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo estimators for closed-form constants


def _orthonormal_pair(n: int, rng: np.random.Generator):
    z = sample_unit_vector(n, rng)
    while True:
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w -= z * np.vdot(z, w)
        nw = np.linalg.norm(w)
        if nw > 1e-6:
            return z, w / nw


def wedge_fraction_mc(beta: float, trials: int, seed: int, n: int = 2) -> float:
    """Empirical Pr(beta |a^* v| >= |a^* z|) for a uniform on the sphere of
    C^n and a fixed orthonormal pair (z, v).  The closed form is
    beta^2 / (1 + beta^2), independent of n.  The indicator is invariant
    under scaling of a, so the Gaussian draws are used unnormalized.
    """
    if n < 2:
        raise ValueError("needs n >= 2 for an orthonormal pair")
    rng = np.random.default_rng(int(seed))
    z, v = _orthonormal_pair(n, rng)
    zc, vc = np.conj(z), np.conj(v)
    hits = 0
    done = 0
    while done < trials:
        take = min(_MC_CHUNK, trials - done)
        A = rng.standard_normal((take, n)) + 1j * rng.standard_normal((take, n))
        hits += int(np.count_nonzero(beta * np.abs(A @ vc) >= np.abs(A @ zc)))
        done += take
    return hits / trials


def span_projection_mass_mc(n: int, trials: int, seed: int, c: float = 0.8) -> float:
    """Empirical Pr(||P a||^2 >= c / n) where P projects onto the span of a
    fixed orthonormal pair and a is uniform on the unit sphere of C^n."""
    if n < 2:
        raise ValueError("needs n >= 2")
    rng = np.random.default_rng(int(seed))
    z, v = _orthonormal_pair(n, rng)
    zc, vc = np.conj(z), np.conj(v)
    hits = 0
    done = 0
    while done < trials:
        take = min(_MC_CHUNK, trials - done)
        A = rng.standard_normal((take, n)) + 1j * rng.standard_normal((take, n))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        mass = np.abs(A @ zc) ** 2 + np.abs(A @ vc) ** 2
        hits += int(np.count_nonzero(mass >= c / n))
        done += take
    return hits / trials


def plane_curvature_expectation_mc(theta: float, trials: int, seed: int) -> float:
    """Empirical E[(Re(b^* zh  vh^* b))^2 / |b^* zh|^2] for b uniform on the
    unit sphere of C^2, zh = e1, vh = [cos theta, sin theta].

    Closed form: cos^2(theta)/2 + sin^2(theta)/4.  The doubled variant
    (2 Re(.))^2 / (2 |.|^2) equals exactly twice this quantity pointwise,
    so its expectation is 2x the value returned here.
    """
    rng = np.random.default_rng(int(seed))
    ct, st = math.cos(theta), math.sin(theta)
    total = 0.0
    done = 0
    while done < trials:
        take = min(_MC_CHUNK, trials - done)
        B = rng.standard_normal((take, 2)) + 1j * rng.standard_normal((take, 2))
        B /= np.linalg.norm(B, axis=1, keepdims=True)
        b1, b2 = B[:, 0], B[:, 1]
        x = np.conj(b1) * (ct * b1 + st * b2)
        total += float(np.sum(x.real**2 / np.abs(b1) ** 2))
        done += take
    return total / trials
