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
from dataclasses import dataclass

import numpy as np

from .blas import one_thread
from .sensing import row_magnitudes, row_products
from .seeding import check_int, check_seed

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

_EVAL_BYTES = 512 * 1024  # bytes held by each temporary of the search's scores
# rows held at once by _bracket_form and by the scorer's frame products: a
# constant of its own, so that the form and the products do not depend on
# _EVAL_BYTES
_FORM_BYTES = _EVAL_BYTES
_DIR_CHUNK = 256
# W rows over which the random stage sums a score's gap at once.  A tile of
# _EVAL_BYTES then holds 64 candidates.  One OpenBLAS thread on a Xeon (k =
# 99) ran the tile's float64 GEMM at 37 GFLOPS with 64 rows of C, 43 with
# 128, and one large GEMM at 61
_SPAN_ROWS = 512
_SCREEN_ETA = 2.0**-10  # the float32 screen's relative error term; see _screen_constants
_STEP0, _MIN_STEP, _MAX_SWEEPS = 0.25, 1e-3, 200  # estimate_L's descent schedule


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


def _curvature(t, uc, ua):
    """(2 Re(t conj(u)))^2 / (2 |u|^2) elementwise, from conj(u) and |u|.

    Each u_i enters scaled by 2^-e_i, the power of two that puts |u_i| in
    [1/2, 1) (``frexp``), so neither square overflows or underflows at any
    scale of the signal; the numerator is linear in u, so it is scaled
    after the product.  The scaling is exact and cancels, so the bits are
    those of the unscaled formula wherever |u_i|^2 is a normal float.
    """
    ua, e = np.frexp(ua)
    np.negative(e, out=e)
    cross = 2.0 * np.real(t * uc)
    np.ldexp(cross, e, out=cross)
    cross *= cross
    cross *= 1.0 / (2.0 * ua * ua)
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
    return _curvature(row_products(ensemble, v), uc, ua)


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
        check_int("net_or_samples", self.net_or_samples, 1)
        check_seed(self.seed)


@dataclass(frozen=True)
class RegularityReport:
    """Result of the direction search, bracketed from below.

    L_estimate = (n/m) * (term1 - term2 - term3) at the reported direction,
    a unit vector with Im(z^* v) = 0.  The search visits finitely many
    directions of the phase-aligned unit sphere {v : ||v|| = 1,
    Im(z^* v) = 0}, so L_estimate is an UPPER bound on the true minimum
    over that set.  L_lower = (n/m) lam[0] of ``_bracket_form`` is a LOWER
    bound on that minimum, so L_lower <= L_estimate up to rounding;
    ``lower_is_exact``: it is attained at the form's eigenvector (always so
    where the wedge is empty), and the two agree up to rounding, either one
    the larger.
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


def _vector(name: str, x, n: int) -> np.ndarray:
    """x as a complex array; raises ValueError unless its shape is (n,) and
    every entry is finite."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must have finite entries")
    return x


def _term_coefficients(alpha: float, m: int):
    """(6/(alpha-1), 2+4 alpha), the weights of term2 and term3; raises
    where term2 + term3 could overflow at m unit rows."""
    c_mid = 6.0 / (alpha - 1.0)
    c_wedge = 2.0 + 4.0 * alpha
    if not math.isfinite((c_mid + c_wedge) * m):
        raise ValueError(f"alpha={alpha:g} is too large for m={m}: the terms overflow")
    return c_mid, c_wedge


def regularity_terms(ensemble, z, v, c0: float, alpha: float):
    """(term1, term2, term3, bracket) at a single unit direction v:

    term1 = 1/2 sum_i curvature_i(v)
    term2 = 6/(alpha-1) sum_i |a_i^* v|^2
    term3 = (2+4 alpha) sum over the wedge S(v, c0 alpha) of |a_i^* v|^2

    and bracket = term1 - term2 - term3.  z and v must be finite (n,)
    vectors.
    """
    z, v = _vector("z", z, ensemble.n), _vector("v", v, ensemble.n)
    uc, ua = _signal_products(ensemble, z)
    c_mid, c_wedge = _term_coefficients(alpha, ensemble.m)
    t = row_products(ensemble, v)
    ta = np.abs(t)
    p2 = ta * ta
    term1 = 0.5 * float(_curvature(t, uc, ua).sum())
    term2 = c_mid * float(p2.sum())
    ta *= c0 * alpha
    p2 *= ta >= ua  # p2 >= 0, so rows outside the wedge give +0
    term3 = c_wedge * float(p2.sum())
    return term1, term2, term3, term1 - term2 - term3


def _bracket_form(ensemble, z, uc, ua, beta: float, c_mid: float, c_wedge: float):
    """(lam, frame, W): the eigenvalues, ascending, and eigenframe of a real
    quadratic form that bounds term1 - term2 - term3 from below on the
    phase-aligned unit sphere, and the rows W defined below, from the
    (conj(u), |u|) of ``_signal_products``, beta = c0 alpha and the weights.

    In v_R = (Re v, Im v), term1 = ||G v_R||^2 with rows g_i = (Re b_i,
    -Im b_i), b_i = conj(u_i) conj(a_i) / |u_i| and u_i = a_i^* z.  Every
    wedge S(v, beta) of a unit v lies in W = {i : |u_i| <= beta ||a_i||},
    so term3 <= (2+4 alpha) sum_{i in W} |a_i^* v|^2 and the form

        term1 - 6/(alpha-1) sum_i |a_i^* v|^2 - (2+4 alpha) sum_{i in W} |a_i^* v|^2

    is at most the bracket, with equality at v if S(v, beta) = W (at every
    v if W is empty).  ``frame`` is a real (2n, 2n-1) array whose
    orthonormal columns span the complement of (i z)_R and diagonalize the
    form there: a unit c in R^{2n-1} gives a unit, phase-aligned v by
    v_R = frame c, at which the form is sum_j lam_j c_j^2.  G^T G and the
    Hermitian part are summed over blocks of ``_FORM_BYTES`` rows.
    """
    n = ensemble.n
    gram = np.zeros((2 * n, 2 * n))
    herm = np.zeros((n, n), dtype=complex)
    w_rows = []
    block = max(1, _FORM_BYTES // (16 * n))
    for lo in range(0, ensemble.m, block):
        a = ensemble.vectors[lo : lo + block]
        b = a.conj() * (uc[lo : lo + block] / ua[lo : lo + block])[:, np.newaxis]
        g = np.concatenate((b.real, -b.imag), axis=1)
        gram += g.T @ g
        in_w = ua[lo : lo + block] <= beta * np.sqrt(np.sum(a.real**2 + a.imag**2, axis=1))
        w_rows.append(lo + np.flatnonzero(in_w))
        herm += (a * (c_mid + c_wedge * in_w)[:, np.newaxis]).T @ a.conj()
    form = gram - np.block([[herm.real, -herm.imag], [herm.imag, herm.real]])
    iz_r = np.concatenate((-z.imag, z.real))
    basis = np.linalg.qr(iz_r[:, np.newaxis], mode="complete")[0][:, 1:]
    lam, y = np.linalg.eigh(basis.T @ form @ basis)
    return lam, basis @ y, np.concatenate(w_rows)


def _move_candidates(t2, reach, lim, step, norms2):
    """(near, inside): the rows of W that some move c +- step e_j can put
    in its wedge, as indices into W, and a mask over ``near`` of the rows
    that every move puts in its wedge; from |t_c|^2, the rows' reach
    max_j |P_j,i|, their limits (|u_i| / beta)^2 and the moves' squared
    norms.

    |t_c| - step reach <= |t_c +- step P_j| <= |t_c| + step reach.  So a
    row with (|t_c| + step reach)^2 below lim times the smallest squared
    norm lies outside every move's wedge, and one with
    (|t_c| - step reach)_+^2 at least lim times the largest lies inside
    every move's wedge.  The slacks, 1e-9 of lim and 1e-9 of
    (|t_c| + step reach)^2, exceed the rounding of both sides and of a
    move's |t|^2 formed elementwise, so rounding can only add rows to those
    that are neither.
    """
    ta = np.sqrt(t2)
    hi = ta + step * reach
    hi *= hi
    near = np.flatnonzero(hi >= lim * (norms2.min() * (1.0 - 1e-9)))
    lo = ta[near] - step * reach[near]
    np.maximum(lo, 0.0, out=lo)
    lo *= lo
    lo -= 1e-9 * hi[near]
    return near, lo >= lim[near] * (norms2.max() * (1.0 + 1e-9))


def _screen_constants(norms, lim, k: int, span: int, c_wedge: float):
    """(scale, theta, slope, offset, mu): the constants of the float32
    screen of ``_search_scorer``, from the norms ||P_i|| and the limits of
    W's rows; None where the largest norm lies outside [2^-400, 2^400].

    The screen takes x_i + i y_i = t_i from float32 GEMMs of c and
    scale P, with scale the power of two that puts the largest ||P_i|| in
    [1/2, 1), and forms p_i = x_i^2 + y_i^2 in float32; ``rows`` forms
    q_i from float64 GEMMs.  With u = 2^-24, rounding c and P, the float32
    GEMM (gamma_k |c| |P_i|, Cauchy-Schwarz with ||c|| = 1) and the float64
    one put each part within kappa times its row norm of its float64
    value, so D_i = kappa^2 ||P_i||^2 bounds both errors' squares summed.
    With 2 |t| delta <= eta t^2 + delta^2 / eta for each part,

        (1 - eta) (x^2 + y^2) - D_i / eta <= q_i <= (1 + eta) (x^2 + y^2) + (1 + 1/eta) D_i,

    and the float32 squares and sum, and q_i's float64 ones, move these by
    factors (1 +- u)^2 and (1 +- 2^-53)^2.  theta_i is the float32 value at
    or below the p at which the right-hand side reaches lim_i, so where
    p_i < theta_i ``rows`` counts row i too, with at least
    (1 - eta) p_i - D_i / eta less those factors.  A row the screen does
    not count adds at least +0 to ``rows``' gap.  So slope times the
    float32 sums of the counted p_i, less offset, is at most the gap
    times c_wedge: slope also takes off gamma_{span-1} for each float32
    sum and the float64 sum over spans, and offset the per-row constants
    and mu times the largest gap, c_wedge sum lim, that ``rows``' float64
    sums can round (mu per unit of |score| as well).  Every underflow, at
    these scales, adds less than k 2^-121 to a product or a square, which
    the constants hold too.  ``_SCREEN_ETA`` sets eta: the relative term
    and the per-row constant trade against each other through it.
    """
    e = int(np.frexp(norms.max())[1])
    if abs(e) > 400:
        return None
    scale, u, u64, up = math.ldexp(1.0, -e), 2.0**-24, 2.0**-53, 1.0 + 2.0**-30

    def gamma(j, unit):
        return j * unit / (1.0 - j * unit)

    eta, tiny = _SCREEN_ETA, k * 2.0**-121
    kappa = (gamma(k, u) * (1.0 + u) ** 2 + 2.0 * u + u * u + gamma(k, u64)) * (1.0 + 2.0**-20)
    D = (kappa * scale * norms + tiny) ** 2 * up
    grow = (1.0 + u64) ** 2 * (1.0 + eta) / (1.0 - u) ** 2 * up
    theta = lim * (scale * scale) - (grow * tiny + (1.0 + u64) ** 2 * (1.0 + 1.0 / eta) * D) * up
    theta /= grow
    theta -= 4.0 * u64 * np.abs(theta)  # the rounding of the two lines above
    theta32 = theta.astype(np.float32)
    over = theta32 > theta
    theta32[over] = np.nextafter(theta32[over], np.float32(-np.inf))
    spans = -(-len(norms) // span)
    shrink = (1.0 - u64) ** 2 * (1.0 - eta) / (1.0 + u) ** 2 / (1.0 + gamma(span - 1, u)) / (1.0 + gamma(spans, u64))
    weight = c_wedge / (scale * scale)
    slope = shrink / up * weight
    offset = float(np.sum(tiny + D / eta)) * up * weight
    mu = 2.0 * (span + spans + 8) * u64
    offset += mu * (2.0 * c_wedge * float(np.sum(lim)) + offset) * up
    return scale, theta32, slope, offset, mu


def _search_scorer(ensemble, lam, frame, w_rows, lim, c_wedge: float):
    """(rows, bounds, t_0, moves): the direction search's scores of frame
    coordinates and lower bounds on them, as pure functions, and the
    products of the anchor e_0; the caller holds the point and its
    products.

    At a unit c, with v_R = frame c, t_i = a_i^* v, u_i = a_i^* z and
    beta = c0 alpha, every wedge row lies in W, so the bracket is the form
    of ``_bracket_form`` plus its gap over the rows of W outside the wedge:

        score(c) = sum_j lam_j c_j^2 + (2+4 alpha) sum_{i in W, beta |t_i| < |u_i|} |t_i|^2

    (tested as |t_i|^2 < lim_i, W's limits (|u_i| / beta)^2, with
    c_wedge = 2+4 alpha).  Products are linear in c,
    t = sum_j c_j P_j, with P_j the products of W's rows with frame axis j,
    built once and held once as two row-major (|W|, 2n-1) arrays, the
    real and the imaginary parts, so that row i's products with every
    axis are two contiguous reads.
    ``rows(C)`` scores unit rows C through P, O(n |W|) each, in tiles: a
    span of ``_SPAN_ROWS`` rows of W (all of W where it is shorter)
    against a block of C's rows, two GEMMs each (real and imaginary
    parts), whose products hold ``_EVAL_BYTES`` together; so a block has
    64 rows, or more where W is shorter than a span, wherever C has them.
    It runs every block of C through one span before the next, so a span
    of P is read from memory once per call rather than once per block,
    and sums a gap span by span.  The span is fixed, so the order in
    which a gap is summed does not depend on ``_EVAL_BYTES``.
    ``rows(C, wanted)`` scores only the blocks that hold a row of the mask
    ``wanted``, with the same operands, so with the same bits, and gives
    +inf for the others.  ``bounds(C)`` screens C: the form's values, with
    rows' bits, plus a lower bound on the gap from float32 GEMMs over the
    same spans, at most each row's score as ``rows`` rounds it (proof at
    ``_screen_constants``), the form alone where W is empty, and -inf
    where P's scale leaves float32's range.  It converts one span of P at
    a time to float32 and holds that copy, 8 (2n-1) ``_SPAN_ROWS`` bytes,
    besides temporaries of ``_EVAL_BYTES``, two blocks of float32 products
    of twice as many rows of C as a block of ``rows``.
    t_0 = P_0 is the anchor's products.  ``moves(c, t_c, step)`` scores
    the moves c +- step e_j of a unit c, in the order +e_0, -e_0, +e_1,
    ..., and returns (f, move, carry): their scores; ``move(j)``, move j
    normalized, (c +- step e_j) / ||c +- step e_j||, O(n), with the bits
    of row j of the whole normalized move matrix; and ``carry(j)``, its
    products, (t_c +- step P_j) / ||c +- step e_j||, O(|W|).  No move is
    built to be scored: with s = step,

        ||c +- s e_j||^2 = ||c||^2 + s^2 +- 2 s c_j,
        form value = (sum_l lam_l c_l^2 + s^2 lam_j +- 2 s lam_j c_j) / ||c +- s e_j||^2,
        |t|^2 ||c +- s e_j||^2 = |t_c|^2 + s^2 |P_j|^2 +- 2 s Re(conj(t_c) P_j).

    ``_move_candidates`` splits W three ways.  Its near rows that are not
    inside every wedge, the edge rows, are formed and masked elementwise,
    O(n) each; the inside rows give +0 to every gap and are skipped; every
    other (far) row counts whole, so its part of each gap is the three sums
    of the last right-hand side over the far rows.  Those are the sums
    over W less one small product over the near rows: sum |t_c|^2, the
    axes' sums of |P_j|^2 (kept from the build) and M c, with
    M_jl = sum_i Re(conj(P_j,i) P_l,i) built once, (2n-1)^2.  Near rows
    are gathered from P in blocks of ``_EVAL_BYTES``.  So a sweep costs
    O(|W|) elementwise plus O(n) per move and per near row, and it holds
    at most two temporaries of ``_EVAL_BYTES`` (a block of near rows, one
    row at least, and their moves' squared products) at once besides
    vectors over W; where W is empty a score is the form alone, O(n).  P
    is built over row blocks of ``_FORM_BYTES``, and every temporary of
    ``rows`` holds at most ``_EVAL_BYTES`` (one row of a span, or one
    axis, at least).
    """
    n, k, w = ensemble.n, 2 * ensemble.n - 1, len(w_rows)
    axes_conj = frame[:n] - 1j * frame[n:]
    P = np.empty((2, w, k))  # P[:, i, j] = (Re, Im) of a_i^* f_j
    reach, norms = np.empty(w), np.empty(w)  # max_j |P_j,i|; ||P_i||
    q_sums = np.zeros(k)  # sum_i |P_j,i|^2
    form_block = max(1, _FORM_BYTES // (16 * n))
    for lo in range(0, w, form_block):
        q = ensemble.vectors[w_rows[lo : lo + form_block]] @ axes_conj  # conj(a_i^* f_j)
        P[0, lo : lo + form_block] = q.real
        P[1, lo : lo + form_block] = -q.imag
        q2 = q.real**2 + q.imag**2
        reach[lo : lo + form_block] = np.sqrt(q2.max(axis=1))
        norms[lo : lo + form_block] = np.sqrt(q2.sum(axis=1))
        q_sums += q2.sum(axis=0)
    flat = P.reshape(2 * w, k)
    gram = flat.T @ flat  # M, so (M c)_j = sum_i Re(conj(t_c,i) P_j,i)
    span = max(1, min(w, _SPAN_ROWS))
    block = max(1, _EVAL_BYTES // (16 * span))  # rows of C
    gather = max(1, _EVAL_BYTES // (16 * k))  # rows of W
    screen = _screen_constants(norms, lim, k, span, c_wedge) if w else None

    def axis(j):
        """P_j, the products of W's rows with frame axis j, as a complex (|W|,) array."""
        p = np.empty(w, dtype=complex)
        p.real, p.imag = P[0, :, j], P[1, :, j]
        return p

    def rows(C, wanted=None):
        f = (C * C) @ lam
        tiles = range(0, len(C), block)
        if wanted is not None:
            kept = np.logical_or.reduceat(wanted, tiles)  # the blocks that hold a wanted row
            f[~np.repeat(kept, block)[: len(C)]] = math.inf
            tiles = [lo for lo, keep in zip(tiles, kept) if keep]
        for lo_w in range(0, w, span):
            re, im = P[0, lo_w : lo_w + span].T, P[1, lo_w : lo_w + span].T
            for lo in tiles:
                p2 = C[lo : lo + block] @ re
                p2 *= p2
                T = C[lo : lo + block] @ im
                T *= T
                p2 += T
                p2 *= p2 < lim[lo_w : lo_w + span]  # p2 >= 0, so wedge rows give +0
                f[lo : lo + len(p2)] += c_wedge * p2.sum(axis=1)
        return f

    def bounds(C):
        f = (C * C) @ lam
        if not w:  # the score is the form alone
            return f
        if screen is None:
            return np.full(len(C), -math.inf)
        scale, theta, slope, offset, mu = screen
        C32, gap = C.astype(np.float32), np.zeros(len(C))
        part = np.empty((2, span, k), dtype=np.float32)
        block32 = max(1, _EVAL_BYTES // (8 * span))
        for lo_w in range(0, w, span):
            re, im = part[:, : min(span, w - lo_w)]
            np.multiply(P[:, lo_w : lo_w + span], scale, out=part[:, : len(re)], casting="same_kind")
            for lo in range(0, len(C), block32):
                p2 = C32[lo : lo + block32] @ re.T
                p2 *= p2
                T = C32[lo : lo + block32] @ im.T
                T *= T
                p2 += T
                p2 *= p2 < theta[lo_w : lo_w + span]  # rows that rows counts as well
                gap[lo : lo + len(p2)] += p2.sum(axis=1)
        gap *= slope
        gap -= offset
        gap += f
        gap -= mu * np.abs(f)
        return gap

    def near_sums(at, t):
        """(sum_i Re(conj(t_i) P_j,i), sum_i |P_j,i|^2) over rows ``at`` of W."""
        G = np.take(P, at, axis=1)  # (Re/Im, row, axis), each row one contiguous read
        G = G.reshape(2 * len(at), k)
        t = t[at]
        return np.concatenate((t.real, t.imag)) @ G, np.einsum("ij,ij->j", G, G)

    def edge_gaps(at, t, t2, step, norms2):
        """The (sign, axis) moves' gaps over rows ``at`` of W, formed and
        masked elementwise."""
        G, t_cross = np.take(P, at, axis=1), 2.0 * step * t[at]
        p2 = np.empty((2, len(at), k))  # (sign, row, axis)
        plus, minus = p2
        np.multiply(G[0], G[0], out=plus)
        np.multiply(G[1], G[1], out=minus)
        plus += minus
        plus *= step * step
        plus += t2[at, np.newaxis]
        G[0] *= t_cross.real[:, np.newaxis]
        G[1] *= t_cross.imag[:, np.newaxis]
        cross = G[0]
        cross += G[1]
        np.subtract(plus, cross, out=minus)
        plus += cross
        p2 /= norms2[:, np.newaxis]
        p2 *= p2 < lim[at, np.newaxis]  # p2 >= 0, so wedge rows give +0
        return p2.sum(axis=1)

    def moves(c, t, step):
        s2, lin = step * step, 2.0 * step * c
        norms2 = c @ c + s2 + np.stack((lin, -lin))  # (sign, axis): ||c +- step e_j||^2
        t2 = t.real * t.real + t.imag * t.imag
        near, inside = _move_candidates(t2, reach, lim, step, norms2)
        near_cross, near_q, edge_gap = np.zeros(k), np.zeros(k), np.zeros((2, k))
        for lo in range(0, len(near), gather):
            at = near[lo : lo + gather]
            # the near rows' sums, subtracted from W's below to leave the far rows'
            cross, q = near_sums(at, t)
            near_cross += cross
            near_q += q
            at = at[~inside[lo : lo + gather]]  # the edge rows
            if len(at):
                edge_gap += edge_gaps(at, t, t2, step, norms2)
        # each move's form value and far rows' gap (W's sums less the near
        # rows') times ||c +- step e_j||^2: a part common to both signs and
        # a part that changes sign with the move's
        common = s2 * (q_sums - near_q) + (t2.sum() - t2[near].sum())
        signed = 2.0 * step * (gram @ c - near_cross)
        common = (c * c) @ lam + s2 * lam + c_wedge * common
        signed = lin * lam + c_wedge * signed
        f = np.stack((common + signed, common - signed))
        f /= norms2
        f += c_wedge * edge_gap
        f = f.T.reshape(2 * k)

        def moved(j):
            """(c +- step e_j, its norm), + for even j; the norm is taken
            over the row as over each row of a matrix, so that move j has
            the bits of its row in the whole normalized move matrix."""
            unit = np.zeros(k)
            unit[j // 2] = 1.0
            r = c + step * (unit if j % 2 == 0 else -unit)
            return r, np.linalg.norm(r[np.newaxis], axis=1)[0]

        def move(j):
            r, norm = moved(j)
            return r / norm

        def carry(j):
            p = axis(j // 2)
            p *= (-1) ** j * step
            p += t
            p /= moved(j)[1]
            return p

        return f, move, carry

    return rows, bounds, axis(0), moves


@one_thread()  # a fresh hold per call
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
    normalized; then a deterministic descent from e_0 scores the moves
    c +- step e_j along every frame axis, moves to the lowest where it is
    strictly below c's value and is not c itself (from +-e_j, the moves
    along axis j normalize back to c), and else halves the step
    (``_STEP0`` down to ``_MIN_STEP``, at most ``_MAX_SWEEPS`` sweeps).
    The descent holds its point c, c's products t_c (from the scorer's t_0
    at e_0) and c's score f; of a sweep's moves it builds only the lowest,
    and takes an accepted move's products from its sweep.
    The report is the first lowest score in the order e_0, the random
    rows, the descent's moves, which is not the order of the work: e_0
    and the descent do not read the stream, so they run first, and the
    descent's first lowest is known when the random stage starts.
    ``_search_scorer`` screens each chunk of random rows (``bounds``) and
    scores a block of ``rows`` only where one of its bounds is at or
    below the lowest score so far, of e_0, the earlier chunks and the
    descent.  Every other candidate scores above a score that comes
    before it or above the descent's lowest, so it is not the first
    lowest and skipping it changes no bit of the report.  ``offer``
    counts every candidate, scored or screened, and keeps the first
    lowest, so ``evaluations`` is exactly 1 + budget + 2 (2n-1) times the
    sweeps run; the report is ``regularity_terms`` at the lowest, its only
    call.  The stream draws
    only the rows the budget asks for, in order, so it is prefix-stable in
    the budget; the anchor and its descent do not depend on it, so a
    larger budget only adds directions and, up to rounding, never raises
    the minimum found.  Where the wedge is empty for every unit v
    (c0 alpha ||a_i|| < |a_i^* z| for every row), e_0 and its moves +-e_0
    all score lam_0, so the descent makes no move and only halves its
    step, 8 sweeps.  Where the eigenvector's wedge is all of W, always so
    where the wedge is empty, the eigenvector is the minimizer and both
    values are the constant.  The call holds OpenBLAS at one thread
    (``blas.one_thread``), so the report's bits do not depend on its
    thread count.
    """
    n, m = ensemble.n, ensemble.m
    z = _vector("z", z, n)
    c0, alpha = params.c0, params.alpha
    uc, ua = _signal_products(ensemble, z)
    c_mid, c_wedge = _term_coefficients(alpha, m)
    beta = c0 * alpha
    lam, frame, w_rows = _bracket_form(ensemble, z, uc, ua, beta, c_mid, c_wedge)
    rows, bounds, t, moves = _search_scorer(ensemble, lam, frame, w_rows, (ua[w_rows] / beta) ** 2, c_wedge)
    v0 = frame[:n, 0] + 1j * frame[n:, 0]
    attained = np.array_equal(wedge(ensemble, z, v0, beta), w_rows)
    evaluations = 0

    def offer(f, candidate, best):
        """Count f's candidates; return the index of f's lowest and best, a
        (score, candidate) pair, replaced by f's first lowest, built by
        candidate(j), where that is strictly lower."""
        nonlocal evaluations
        evaluations += len(f)
        j = int(np.argmin(f))
        if f[j] < best[0]:
            best = float(f[j]), candidate(j)
        return j, best

    anchor = np.eye(1, 2 * n - 1)
    scores = rows(anchor)
    _, best = offer(scores, anchor.__getitem__, (math.inf, None))
    c, f, descended = anchor[0], float(scores[0]), (math.inf, None)
    step = _STEP0
    for _ in range(_MAX_SWEEPS):
        if step <= _MIN_STEP:
            break
        f_moves, move, carry = moves(c, t, step)
        j, descended = offer(f_moves, move, descended)
        if f_moves[j] < f and not np.array_equal(c_j := move(j), c):
            c, t, f = c_j, carry(j), float(f_moves[j])
        else:
            step *= 0.5
    rng = np.random.default_rng(int(params.seed))
    for done in range(0, params.net_or_samples, _DIR_CHUNK):
        C = rng.standard_normal((min(_DIR_CHUNK, params.net_or_samples - done), 2 * n - 1))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        # the rows that could be the first lowest (and any NaN bound)
        wanted = ~(bounds(C) > min(best[0], descended[0]))
        _, best = offer(rows(C, wanted), C.__getitem__, best)
    best_c = (descended if descended[0] < best[0] else best)[1]

    best_v = frame @ best_c
    best_v = best_v[:n] + 1j * best_v[n:]
    term1, term2, term3, bracket = regularity_terms(ensemble, z, best_v, c0, alpha)
    flag = 2.0 * c0 * alpha
    return RegularityReport(
        L_estimate=(n / m) * bracket,
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
