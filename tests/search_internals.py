"""estimate_L's private search pieces, built as ``estimate_L`` builds them,
for the tests that check them directly.

Every test that calls ``regularity._bracket_form`` or
``regularity._search_scorer``, or records the scorer's calls, goes
through this module, so a change to their private signatures is ported
here alone.
"""

from __future__ import annotations

from kaczmarz_pr import regularity
from kaczmarz_pr.sensing import row_products


def _inputs(ens, z, c0, alpha):
    """(z, uc, ua, beta, c_mid, c_wedge): the checked signal, its products
    (conj(u), |u|), beta = c0 alpha and the term weights."""
    z = regularity._vector("z", z, ens.n)
    uc, ua = regularity._signal_products(ens, z)
    return (z, uc, ua, c0 * alpha, *regularity._term_coefficients(alpha, ens.m))


def bracket_form(ens, z, c0, alpha):
    """``_bracket_form``'s (lam, frame, w_rows) at (z, c0, alpha)."""
    return regularity._bracket_form(ens, *_inputs(ens, z, c0, alpha))


def _scorer(ens, z, c0, alpha, lim=None):
    """(lam, frame, w_rows, (rows, bounds, t0, moves)): the bracket form
    and ``_search_scorer``'s functions, with W's limits lim in place of
    (|u_i| / beta)^2 where given."""
    z, uc, ua, beta, c_mid, c_wedge = _inputs(ens, z, c0, alpha)
    lam, frame, w_rows = regularity._bracket_form(ens, z, uc, ua, beta, c_mid, c_wedge)
    lim = (ua[w_rows] / beta) ** 2 if lim is None else lim
    return lam, frame, w_rows, regularity._search_scorer(ens, lam, frame, w_rows, lim, c_wedge)


def search_scorer(ens, z, c0, alpha):
    """(lam, frame, w_rows, rows, t0, moves): the bracket form and
    ``_search_scorer``'s scores, with t0 the anchor e_0's products."""
    lam, frame, w_rows, (rows, _, t0, moves) = _scorer(ens, z, c0, alpha)
    return lam, frame, w_rows, rows, t0, moves


def screen(ens, z, c0, alpha, lim=None):
    """(frame, w_rows, rows, bounds): ``_search_scorer``'s exact scores and
    float32 lower bounds, with W's limits lim where given."""
    _, frame, w_rows, (rows, bounds, _, _) = _scorer(ens, z, c0, alpha, lim)
    return frame, w_rows, rows, bounds


def products(ens, frame, w_rows, c):
    """t_c, W's products a_i^* v at v_R = frame c, formed by
    ``row_products`` rather than from the scorer's P."""
    v = frame @ c
    return row_products(ens, v[: ens.n] + 1j * v[ens.n :])[w_rows]


def record_scores(monkeypatch):
    """(scored, sweeps, screened): lists that fill as ``estimate_L`` runs,
    with (C, f) for every ``rows(C, wanted)`` call, f +inf on the tiles it
    did not score, (c, step, f, move) for every ``moves(c, t, step)`` call
    and (C, lower) for every ``bounds(C)`` call; C and c are copies, and
    move(j) builds move j of that sweep."""
    scored, sweeps, screened = [], [], []
    make = regularity._search_scorer

    def recording_scorer(*args):
        rows, bounds, t0, moves = make(*args)

        def scored_rows(C, wanted=None):
            f = rows(C, wanted)
            scored.append((C.copy(), f))
            return f

        def screened_rows(C):
            lower = bounds(C)
            screened.append((C.copy(), lower))
            return lower

        def scored_moves(c, t, step):
            f, move, carry = moves(c, t, step)
            sweeps.append((c.copy(), step, f, move))
            return f, move, carry

        return scored_rows, screened_rows, t0, scored_moves

    monkeypatch.setattr(regularity, "_search_scorer", recording_scorer)
    return scored, sweeps, screened
