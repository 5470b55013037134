"""The regularity constant's bracket: ``estimate_L`` and its direction search.

The constant is the minimum of term1 - term2 - term3 (``regularity``'s
``regularity_terms``) over the phase-aligned unit sphere.  ``estimate_L``
brackets it: one eigenproblem of a real quadratic form gives a lower bound,
which is the constant itself where the wedge is empty, and a direction
search in the form's eigenframe gives an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blas import one_thread
from .core import check_vector
from .regularity import _signal_products, _term_coefficients, regularity_terms, wedge
from .seeding import check_int, check_real

__all__ = ["RegularityParams", "RegularityReport", "estimate_L"]

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


@dataclass(frozen=True)
class RegularityParams:
    """Search parameters: basin radius c0, slack factor alpha > 1, the
    budget of random directions, and the seed of their stream."""

    c0: float
    alpha: float
    net_or_samples: int = 2048
    seed: int = 0

    def __post_init__(self):
        check_real("alpha", self.alpha, 1.0, strict=True)
        check_real("c0", self.c0, 0.0, strict=True)
        check_int("net_or_samples", self.net_or_samples, 1)
        check_int("seed", self.seed, 0)


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
    ``evaluations`` counts the directions evaluated (``estimate_L`` gives
    the count); ``search_mode`` is always "random_refine".
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
    """(scale, theta, slope, offset, mu): the constants of ``_Scorer``'s
    float32 screen, from the norms ||P_i|| and the limits of W's rows;
    None where the largest norm lies outside [2^-400, 2^400].

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


class _Scorer:
    """The direction search's scores of frame coordinates, and lower bounds
    on them, from the bracket form's eigenvalues ``lam`` and eigenframe
    ``frame``, W's rows ``w_rows`` and their limits ``lim``, and
    c_wedge = 2+4 alpha; ``t0`` = P_0 is the anchor e_0's products.  The
    caller holds the point and its products.

    At a unit c, with v_R = frame c, t_i = a_i^* v, u_i = a_i^* z and
    beta = c0 alpha, every wedge row lies in W, so the bracket is the form
    of ``_bracket_form`` plus its gap over the rows of W outside the wedge:

        score(c) = sum_j lam_j c_j^2 + (2+4 alpha) sum_{i in W, beta |t_i| < |u_i|} |t_i|^2

    (tested as |t_i|^2 < lim_i, W's limits (|u_i| / beta)^2).  Products
    are linear in c, t = sum_j c_j P_j, with P_j the products of W's rows
    with frame axis j, built once over row blocks of ``_FORM_BYTES`` and
    held once as two row-major (|W|, 2n-1) arrays, the real and the
    imaginary parts, so that row i's products with every axis are two
    contiguous reads.
    """

    def __init__(self, ensemble, lam, frame, w_rows, lim, c_wedge: float):
        n, k, w = ensemble.n, 2 * ensemble.n - 1, len(w_rows)
        self.lam, self.frame, self.w_rows, self.lim, self.c_wedge = lam, frame, w_rows, lim, c_wedge
        axes_conj = frame[:n] - 1j * frame[n:]
        self._P = P = np.empty((2, w, k))  # P[:, i, j] = (Re, Im) of a_i^* f_j
        self._reach, norms = np.empty(w), np.empty(w)  # max_j |P_j,i|; ||P_i||
        self._q_sums = np.zeros(k)  # sum_i |P_j,i|^2
        form_block = max(1, _FORM_BYTES // (16 * n))
        for lo in range(0, w, form_block):
            q = ensemble.vectors[w_rows[lo : lo + form_block]] @ axes_conj  # conj(a_i^* f_j)
            P[0, lo : lo + form_block] = q.real
            P[1, lo : lo + form_block] = -q.imag
            q2 = q.real**2 + q.imag**2
            self._reach[lo : lo + form_block] = np.sqrt(q2.max(axis=1))
            norms[lo : lo + form_block] = np.sqrt(q2.sum(axis=1))
            self._q_sums += q2.sum(axis=0)
        flat = P.reshape(2 * w, k)
        self._gram = flat.T @ flat  # M, so (M c)_j = sum_i Re(conj(t_c,i) P_j,i)
        self._span = span = max(1, min(w, _SPAN_ROWS))
        self._gather = max(1, _EVAL_BYTES // (16 * k))  # rows of W
        self._screen = _screen_constants(norms, lim, k, span, c_wedge) if w else None
        self.t0 = self._axis(0)

    @classmethod
    def build(cls, ensemble, z, c0: float, alpha: float) -> _Scorer:
        """The search's scorer at a checked signal z, set up from z's row
        products, the term weights, beta = c0 alpha, the bracket form and
        W's limits (|u_i| / beta)^2."""
        uc, ua = _signal_products(ensemble, z)
        c_mid, c_wedge = _term_coefficients(alpha, ensemble.m)
        beta = c0 * alpha
        lam, frame, w_rows = _bracket_form(ensemble, z, uc, ua, beta, c_mid, c_wedge)
        return cls(ensemble, lam, frame, w_rows, (ua[w_rows] / beta) ** 2, c_wedge)

    def _axis(self, j):
        """P_j, the products of W's rows with frame axis j, as a complex (|W|,) array."""
        p = np.empty(len(self.w_rows), dtype=complex)
        p.real, p.imag = self._P[0, :, j], self._P[1, :, j]
        return p

    def _add_gaps(self, out, weight, C, limits, span_parts):
        """Adds weight times the gap of each unit row of C into ``out``, in
        tiles: a span of ``_SPAN_ROWS`` rows of W (all of W where it is
        shorter), with parts (Re, Im) ``span_parts(lo)``, against a block of
        C's rows, two GEMMs each, whose products hold ``_EVAL_BYTES``
        together.  Every block of C runs through one span before the next,
        so a span is read from memory once per call rather than once per
        block, and the order in which a gap is summed, span by span, does
        not depend on ``_EVAL_BYTES``."""
        span = self._span
        block = max(1, _EVAL_BYTES // (2 * C.itemsize * span))
        for lo_w in range(0, len(self.w_rows), span):
            re, im = span_parts(lo_w)
            for lo in range(0, len(C), block):
                p2 = C[lo : lo + block] @ re.T
                p2 *= p2
                T = C[lo : lo + block] @ im.T
                T *= T
                p2 += T
                p2 *= p2 < limits[lo_w : lo_w + span]  # p2 >= 0, so wedge rows give +0
                out[lo : lo + len(p2)] += weight * p2.sum(axis=1)

    def rows(self, C):
        """The scores of unit rows C, O(n |W|) each; a block of C has 64
        rows, or more where W is shorter than a span, wherever C has them.
        Every temporary holds at most ``_EVAL_BYTES`` (one row of a span at
        least)."""
        f = (C * C) @ self.lam
        span = self._span
        self._add_gaps(f, self.c_wedge, C, self.lim, lambda lo: self._P[:, lo : lo + span])
        return f

    def bounds(self, C):
        """Lower bounds on the scores of unit rows C: the form's values,
        with ``rows``' bits, plus a lower bound on the gap from float32
        tiles, at most each row's score as ``rows`` rounds it (proof at
        ``_screen_constants``); the form alone where W is empty, and -inf
        where P's scale leaves float32's range.  It holds a float32 copy of
        one span of P at a time, 8 (2n-1) ``_SPAN_ROWS`` bytes, besides
        temporaries of ``_EVAL_BYTES``, whose blocks have twice as many
        rows of C as those of ``rows``."""
        f = (C * C) @ self.lam
        if not len(self.w_rows):  # the score is the form alone
            return f
        if self._screen is None:
            return np.full(len(C), -math.inf)
        scale, theta, slope, offset, mu = self._screen
        span, w = self._span, len(self.w_rows)
        part = np.empty((2, span, self._P.shape[2]), dtype=np.float32)

        def scaled(lo_w):
            out = part[:, : min(span, w - lo_w)]
            np.multiply(self._P[:, lo_w : lo_w + span], scale, out=out, casting="same_kind")
            return out

        gap = np.zeros(len(C))
        self._add_gaps(gap, 1.0, C.astype(np.float32), theta, scaled)
        gap *= slope
        gap -= offset
        gap += f
        gap -= mu * np.abs(f)
        return gap

    def _near_sums(self, at, t):
        """(sum_i Re(conj(t_i) P_j,i), sum_i |P_j,i|^2) over rows ``at`` of W."""
        G = np.take(self._P, at, axis=1)  # (Re/Im, row, axis), each row one contiguous read
        G = G.reshape(2 * len(at), G.shape[2])
        t = t[at]
        return np.concatenate((t.real, t.imag)) @ G, np.einsum("ij,ij->j", G, G)

    def _edge_gaps(self, at, t, t2, step, norms2):
        """The (sign, axis) moves' gaps over rows ``at`` of W, formed and
        masked elementwise."""
        G, t_cross = np.take(self._P, at, axis=1), 2.0 * step * t[at]
        p2 = np.empty((2, len(at), G.shape[2]))  # (sign, row, axis)
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
        p2 *= p2 < self.lim[at, np.newaxis]  # p2 >= 0, so wedge rows give +0
        return p2.sum(axis=1)

    def moves(self, c, t, step):
        """The scores of the moves c +- step e_j of a unit c with products
        t, in the order +e_0, -e_0, +e_1, ....  No move is built to be
        scored: with s = step,

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
        vectors over W; where W is empty a score is the form alone, O(n).
        """
        k, lam, c_wedge, gather = len(c), self.lam, self.c_wedge, self._gather
        s2, lin = step * step, 2.0 * step * c
        norms2 = c @ c + s2 + np.stack((lin, -lin))  # (sign, axis): ||c +- step e_j||^2
        t2 = t.real * t.real + t.imag * t.imag
        near, inside = _move_candidates(t2, self._reach, self.lim, step, norms2)
        near_cross, near_q, edge_gap = np.zeros(k), np.zeros(k), np.zeros((2, k))
        for lo in range(0, len(near), gather):
            at = near[lo : lo + gather]
            # the near rows' sums, subtracted from W's below to leave the far rows'
            cross, q = self._near_sums(at, t)
            near_cross += cross
            near_q += q
            at = at[~inside[lo : lo + gather]]  # the edge rows
            if len(at):
                edge_gap += self._edge_gaps(at, t, t2, step, norms2)
        # each move's form value and far rows' gap (W's sums less the near
        # rows') times ||c +- step e_j||^2: a part common to both signs and
        # a part that changes sign with the move's
        common = s2 * (self._q_sums - near_q) + (t2.sum() - t2[near].sum())
        signed = 2.0 * step * (self._gram @ c - near_cross)
        common = (c * c) @ lam + s2 * lam + c_wedge * common
        signed = lin * lam + c_wedge * signed
        f = np.stack((common + signed, common - signed))
        f /= norms2
        f += c_wedge * edge_gap
        return f.T.reshape(2 * k)

    def move(self, c, t, step, j):
        """(move j of ``moves(c, t, step)`` normalized, its products):
        (c +- step e_j) / ||c +- step e_j||, + for even j, O(n), with the
        bits of row j of the whole normalized move matrix (the norm is taken
        over the row as over each row of a matrix), and
        (t +- step P_j) / ||c +- step e_j||, O(|W|)."""
        unit = np.zeros(len(c))
        unit[j // 2] = 1.0
        r = c + step * (unit if j % 2 == 0 else -unit)
        norm = np.linalg.norm(r[np.newaxis], axis=1)[0]
        p = self._axis(j // 2)
        p *= (-1) ** j * step
        p += t
        p /= norm
        return r / norm, p


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
    the set is some such c.  The search holds one point c, its score f
    and, in the descent, its products t_c (from the scorer's t0).  It
    starts at e_0, the form's minimizer.  A deterministic descent scores
    the moves c +- step e_j along every frame axis, moves to the lowest
    where it is strictly below f and is not c itself (from +-e_j, the moves
    along axis j normalize back to c), and else halves the step
    (``_STEP0`` down to ``_MIN_STEP``, at most ``_MAX_SWEEPS`` sweeps); it
    builds only the lowest move, and takes an accepted move's products
    from its sweep.  Then seeded standard normal coordinates, uniform on
    the set once normalized, come in chunks; ``bounds`` screens each
    chunk, ``rows`` scores the whole chunk unless every bound is above f,
    and the chunk's lowest replaces c where it is strictly below f.  So the
    report is the lowest score, the earliest of equal ones in that order,
    and skipping a screened chunk changes no bit of it; the report is
    ``regularity_terms`` at c, its only call.  ``evaluations`` counts
    every candidate, scored or screened: 1 + budget + 2 (2n-1) per sweep
    run.  The stream draws only the rows the budget asks for, in order, so
    it is prefix-stable in the budget; the anchor and its descent do not
    depend on it, so a larger budget only adds directions and, up to
    rounding, never raises the minimum found.  Where the wedge is empty
    for every unit v (c0 alpha ||a_i|| < |a_i^* z| for every row), e_0 and
    its moves +-e_0 all score lam_0, so the descent makes no move and only
    halves its step, 8 sweeps.  Where the eigenvector's wedge is all of W,
    always so where the wedge is empty, the eigenvector is the minimizer
    and both values are the constant.  The call holds OpenBLAS at one thread
    (``blas.one_thread``), so the report's bits do not depend on its
    thread count.
    """
    n, m = ensemble.n, ensemble.m
    z = check_vector("z", z, n)
    c0, alpha = params.c0, params.alpha
    scorer = _Scorer.build(ensemble, z, c0, alpha)
    frame = scorer.frame
    v0 = frame[:n, 0] + 1j * frame[n:, 0]
    attained = np.array_equal(wedge(ensemble, z, v0, c0 * alpha), scorer.w_rows)
    anchor = np.eye(1, 2 * n - 1)
    c, t, f, evaluations = anchor[0], scorer.t0, float(scorer.rows(anchor)[0]), 1
    step = _STEP0
    for _ in range(_MAX_SWEEPS):
        if step <= _MIN_STEP:
            break
        f_moves = scorer.moves(c, t, step)
        evaluations += len(f_moves)
        j = int(np.argmin(f_moves))
        if f_moves[j] < f and not np.array_equal((moved := scorer.move(c, t, step, j))[0], c):
            (c, t), f = moved, float(f_moves[j])
        else:
            step *= 0.5
    rng = np.random.default_rng(int(params.seed))
    for done in range(0, params.net_or_samples, _DIR_CHUNK):
        C = rng.standard_normal((min(_DIR_CHUNK, params.net_or_samples - done), 2 * n - 1))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        evaluations += len(C)
        if (scorer.bounds(C) > f).all():  # no row can be lower (a NaN bound could)
            continue
        scores = scorer.rows(C)
        j = int(np.argmin(scores))
        if scores[j] < f:
            c, f = C[j], float(scores[j])

    best_v = frame @ c
    best_v = best_v[:n] + 1j * best_v[n:]
    term1, term2, term3, bracket = regularity_terms(ensemble, z, best_v, c0, alpha)
    flag = 2.0 * c0 * alpha
    return RegularityReport(
        L_estimate=(n / m) * bracket,
        L_lower=(n / m) * float(scorer.lam[0]),
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
