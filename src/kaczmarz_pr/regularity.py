"""Local-regularity diagnostics for the magnitude least-squares objective.

The objective over a measurement set is

    f(x) = (1/m) sum_i (|a_i^* x| - y_i)^2 ,

whose local behavior around the true signal governs the expected per-step
contraction of the row-projection solver.  f itself is
``sensing.objective_f``; this module provides its first and second
directional derivatives, the row "wedge" sets and an estimator of the
regularity constant.  The Monte-Carlo checks of the lemma constants behind
the analysis live in ``verify``.

The regularity constant is the minimum of term1 - term2 - term3 over the
phase-aligned unit sphere.  ``estimate_L`` brackets it: one eigenproblem
of a real quadratic form gives a lower bound, which is the constant
itself where the wedge is empty, and a direction search in the form's
eigenframe gives an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .sensing import row_magnitudes, row_products

__all__ = [
    "dir_deriv_f",
    "second_dir_deriv_fi",
    "second_dir_deriv_at_signal",
    "wedge",
    "RegularityParams",
    "RegularityReport",
    "regularity_terms",
    "estimate_L",
]

_EVAL_BYTES = 512 * 1024  # complex products held at once by _terms_evaluator
# rows held at once by _bracket_form: a constant of its own, so that its
# sums, and with them the whole report, do not depend on _EVAL_BYTES
_FORM_BYTES = _EVAL_BYTES
_DIR_CHUNK = 256
_STEP0, _MIN_STEP, _MAX_SWEEPS = 0.25, 1e-3, 200  # _coordinate_refine's schedule


def dir_deriv_f(ensemble, y, x, v) -> float:
    """One-sided directional derivative of f at x along v.

    Valid only where every |a_i^* x| > 0; the closed form is

        (1/m) sum_i (1 - y_i / |a_i^* x|) * 2 Re((a_i^* v) conj(a_i^* x)).

    Rows with a_i^* x == 0 make the formula meaningless (the derivative
    still exists one-sidedly) and raise instead of being regularized.
    """
    values = y.of(ensemble)
    s = row_products(ensemble, x)
    sa = np.abs(s)
    if np.any(sa == 0.0):
        raise ValueError("formula requires |a_i^* x| > 0 for every row")
    t = row_products(ensemble, v)
    return float(np.mean((1.0 - values / sa) * 2.0 * np.real(t * np.conj(s))))


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
    cross *= cross
    cross *= inv2u2
    return cross


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
    idx = np.flatnonzero(beta * row_magnitudes(ensemble, v) >= row_magnitudes(ensemble, z))
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
    """Result of the direction search, bracketed from below.

    L_estimate = (n/m) * (term1 - term2 - term3) at the reported direction,
    a unit vector with Im(z^* v) = 0.  The search visits finitely many
    directions of the phase-aligned unit sphere {v : ||v|| = 1,
    Im(z^* v) = 0}, so L_estimate is an UPPER bound on the true minimum
    over that set (``upper_bound_on_sphere_min`` is always True).
    L_lower = (n/m) lam[0] of ``_bracket_form`` is a LOWER bound on that
    minimum, so L_lower <= L_estimate up to rounding; ``lower_is_exact``:
    it is attained at the form's eigenvector (always so where the wedge is
    empty), and the two agree up to rounding, either one the larger.
    ``evaluations`` counts the directions evaluated, 1 + budget +
    2 (2n-1) per descent sweep; ``search_mode`` is always "random_refine".
    Both orientations of the 2 c0 alpha vs 1 constraint are recorded
    rather than enforced.
    """

    L_estimate: float
    L_lower: float
    lower_is_exact: bool
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


def _term_coefficients(alpha: float, m: int):
    """(6/(alpha-1), 2+4 alpha), the weights of term2 and term3; raises
    where term2 + term3 could overflow at m unit rows."""
    c_mid = 6.0 / (alpha - 1.0)
    c_wedge = 2.0 + 4.0 * alpha
    if not math.isfinite((c_mid + c_wedge) * m):
        raise ValueError(f"alpha={alpha:g} is too large for m={m}: the terms overflow")
    return c_mid, c_wedge


def _terms_evaluator(ensemble, z, c0: float, alpha: float):
    """Batch evaluator: V (d, n) unit rows -> (term1, term2, term3) arrays.

    term1 = 1/2 sum_i curvature_i(v)
    term2 = 6/(alpha-1) sum_i |a_i^* v|^2
    term3 = (2+4 alpha) sum over the wedge S(v, c0 alpha) of |a_i^* v|^2

    Directions are evaluated in blocks of at most ``_EVAL_BYTES`` of complex
    products (at least one direction), so the temporaries stay small at
    any batch size.  From n = 8 on, a row's last bits can depend on its
    block; reported terms are recomputed on one row, as in
    ``regularity_terms``, so they equal it bit for bit.
    """
    uc, ua = _signal_products(ensemble, z)
    c_mid, c_wedge = _term_coefficients(alpha, ensemble.m)
    a_ct = np.ascontiguousarray(ensemble.vectors.conj().T)  # (n, m)
    uc = uc[np.newaxis, :]
    inv2u2 = (1.0 / (2.0 * ua * ua))[np.newaxis, :]
    ua_row = ua[np.newaxis, :]
    wedge_beta = c0 * alpha
    block = max(1, _EVAL_BYTES // (16 * ensemble.m))

    def terms(V: np.ndarray):
        term1, term2, term3 = (np.empty(len(V)) for _ in range(3))
        for lo in range(0, len(V), block):
            T = V[lo : lo + block] @ a_ct
            Ta = np.abs(T)
            term1[lo : lo + block] = 0.5 * _curvature(T, uc, inv2u2).sum(axis=1)
            p2 = Ta * Ta
            term2[lo : lo + block] = c_mid * p2.sum(axis=1)
            Ta *= wedge_beta
            p2 *= Ta >= ua_row  # p2 >= 0, so rows outside the wedge give +0
            term3[lo : lo + block] = c_wedge * p2.sum(axis=1)
        return term1, term2, term3

    return terms


def regularity_terms(ensemble, z, v, c0: float, alpha: float):
    """(term1, term2, term3, bracket) at a single unit direction v."""
    terms = _terms_evaluator(ensemble, z, c0, alpha)
    t1, t2, t3 = terms(np.asarray(v, dtype=complex)[np.newaxis, :])
    return float(t1[0]), float(t2[0]), float(t3[0]), float(t1[0] - t2[0] - t3[0])


def _bracket_form(ensemble, z, c0: float, alpha: float):
    """(lam, frame, W): the eigenvalues, ascending, and eigenframe of a real
    quadratic form that bounds term1 - term2 - term3 from below on the
    phase-aligned unit sphere, and the rows W defined below.

    In v_R = (Re v, Im v), term1 = ||G v_R||^2 with rows g_i = (Re b_i,
    -Im b_i), b_i = conj(u_i) conj(a_i) / |u_i| and u_i = a_i^* z.  Every
    wedge S(v, c0 alpha) of a unit v lies in W = {i : |u_i| <= c0 alpha
    ||a_i||}, so term3 <= (2+4 alpha) sum_{i in W} |a_i^* v|^2 and the form

        term1 - 6/(alpha-1) sum_i |a_i^* v|^2 - (2+4 alpha) sum_{i in W} |a_i^* v|^2

    is at most the bracket, with equality at v if S(v, c0 alpha) = W (at
    every v if W is empty).  ``frame`` is a real (2n, 2n-1) array whose
    orthonormal columns span the complement of (i z)_R and diagonalize the
    form there: a unit c in R^{2n-1} gives a unit, phase-aligned v by
    v_R = frame c, at which the form is sum_j lam_j c_j^2.  G^T G and the
    Hermitian part are summed over blocks of ``_FORM_BYTES`` rows.
    """
    n = ensemble.n
    z = np.asarray(z, dtype=complex)
    uc, ua = _signal_products(ensemble, z)
    c_mid, c_wedge = _term_coefficients(alpha, ensemble.m)
    gram = np.zeros((2 * n, 2 * n))
    herm = np.zeros((n, n), dtype=complex)
    w_rows = []
    block = max(1, _FORM_BYTES // (16 * n))
    for lo in range(0, ensemble.m, block):
        a = ensemble.vectors[lo : lo + block]
        b = a.conj() * (uc[lo : lo + block] / ua[lo : lo + block])[:, np.newaxis]
        g = np.concatenate((b.real, -b.imag), axis=1)
        gram += g.T @ g
        in_w = ua[lo : lo + block] <= c0 * alpha * np.sqrt(np.sum(a.real**2 + a.imag**2, axis=1))
        w_rows.append(lo + np.flatnonzero(in_w))
        herm += (a * (c_mid + c_wedge * in_w)[:, np.newaxis]).T @ a.conj()
    form = gram - np.block([[herm.real, -herm.imag], [herm.imag, herm.real]])
    iz_r = np.concatenate((-z.imag, z.real))
    basis = np.linalg.qr(iz_r[:, np.newaxis], mode="complete")[0][:, 1:]
    lam, y = np.linalg.eigh(basis.T @ form @ basis)
    return lam, basis @ y, np.concatenate(w_rows)


def _coordinate_refine(offer, c: np.ndarray, f: float) -> None:
    """Deterministic descent from frame coordinates c (value f): each sweep
    offers the moves +-step along each frame axis to ``offer`` (rows ->
    (unit rows, values)) and moves to the lowest if it beats f, else halves
    the step (``_STEP0`` down to ``_MIN_STEP``, at most ``_MAX_SWEEPS``
    sweeps); ``offer`` keeps the best direction."""
    moves = np.kron(np.eye(len(c)), [[1.0], [-1.0]])
    step = _STEP0
    for _ in range(_MAX_SWEEPS):
        if step <= _MIN_STEP:
            break
        C, fc = offer(c + step * moves)
        j = int(np.argmin(fc))
        if fc[j] < f:
            c, f = C[j], float(fc[j])
        else:
            step *= 0.5


def estimate_L(ensemble, z, params: RegularityParams) -> RegularityReport:
    """Search the phase-aligned unit sphere {v : ||v|| = 1, Im(z^* v) = 0}
    for the minimum of

        term1(v) - term2(v) - term3(v)

    and report (n/m) times the smallest value found, with (n/m) times the
    lower bound of ``_bracket_form``.

    The solver's error is measured up to a global phase: after alignment
    the error h = x - e^{it} z satisfies Im((e^{it} z)^* h) = 0, so the
    flat direction i z (where term1 vanishes and term2 does not) is left
    out.  A candidate is a nonzero c in R^{2n-1}; normalized, it gives
    v_R = frame c in ``_bracket_form``'s eigenframe, and every unit v of
    the set is some such c.  Candidate 0 is e_0, the form's minimizer;
    seeded standard normal coordinates follow, uniform on the set once
    normalized, then ``_coordinate_refine`` descends from e_0 along the
    frame axes.  ``offer`` normalizes, evaluates and counts every
    candidate and keeps the first lowest, so ``evaluations`` is exactly
    1 + budget + 2 (2n-1) times the sweeps run.  The stream draws only the
    rows the budget asks for, in order, so it is prefix-stable in the
    budget; the anchor and its descent do not depend on it, so a larger
    budget only adds directions and, up to rounding, never raises the
    minimum found.  Where the eigenvector's wedge is all of W, always so
    where the wedge is empty for every unit v (c0 alpha ||a_i|| <
    |a_i^* z| for every row), the eigenvector is the minimizer and both
    values are the constant.
    """
    n, m = ensemble.n, ensemble.m
    lam, frame, w_rows = _bracket_form(ensemble, z, params.c0, params.alpha)
    terms = _terms_evaluator(ensemble, z, params.c0, params.alpha)
    evaluations, best_v, best_f = 0, None, math.inf

    def offer(C):
        nonlocal evaluations, best_v, best_f
        C = C / np.linalg.norm(C, axis=1, keepdims=True)
        V = C @ frame.T
        V = V[:, :n] + 1j * V[:, n:]
        t1, t2, t3 = terms(V)
        f = t1 - t2 - t3
        evaluations += len(C)
        j = int(np.argmin(f))
        if f[j] < best_f:
            best_v, best_f = V[j].copy(), float(f[j])
        return C, f

    anchor = np.eye(2 * n - 1)[:1]
    anchor_f = float(offer(anchor)[1][0])
    attained = np.array_equal(wedge(ensemble, z, best_v, params.c0 * params.alpha), w_rows)
    rng = np.random.default_rng(int(params.seed))
    for done in range(0, params.net_or_samples, _DIR_CHUNK):
        offer(rng.standard_normal((min(_DIR_CHUNK, params.net_or_samples - done), 2 * n - 1)))
    _coordinate_refine(offer, anchor[0], anchor_f)

    t1, t2, t3 = terms(best_v[np.newaxis, :])
    term1, term2, term3 = float(t1[0]), float(t2[0]), float(t3[0])
    flag = 2.0 * params.c0 * params.alpha
    return RegularityReport(
        L_estimate=(n / m) * (term1 - term2 - term3),
        L_lower=(n / m) * float(lam[0]),
        lower_is_exact=attained,
        argmin_direction=best_v,
        term1=term1,
        term2=term2,
        term3=term3,
        params=params,
        search_mode="random_refine",
        n=n,
        m=m,
        evaluations=evaluations,
        constraint_2c0alpha_lt_1=flag < 1.0,
        constraint_2c0alpha_gt_1=flag > 1.0,
    )
