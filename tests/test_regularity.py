import json
import math
import re
import tracemalloc
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from kaczmarz_pr import (
    MeasurementSet,
    RegularityParams,
    RegularityReport,
    SensingEnsemble,
    dir_deriv_f,
    estimate_L,
    measure,
    objective_f,
    sample_block_unitary,
    sample_sphere,
    sample_unit_vector,
    second_dir_deriv_at_signal,
    second_dir_deriv_fi,
    wedge,
)
from kaczmarz_pr import search
from kaczmarz_pr.harness import render_json
from kaczmarz_pr.regularity import regularity_terms
from kaczmarz_pr.seeding import derive_seed
from kaczmarz_pr.sensing import row_products
from kaczmarz_pr.verify import (
    check_directional_derivatives,
    check_plane_curvature,
    check_projection_mass,
    check_wedge_fraction,
)
from bracket_grid import grid_minimum


class TestObjective:
    def test_zero_at_signal_and_phase_rotations(self):
        ens = sample_sphere(4, 30, 0)
        z = sample_unit_vector(4, 1)
        y = measure(ens, z)
        assert objective_f(ens, y, z) == 0.0
        assert objective_f(ens, y, np.exp(1.1j) * z) <= 1e-30

    def test_single_measurement_value(self):
        vecs = np.array([[1.0, 0.0]], dtype=complex)
        ens = SensingEnsemble(vectors=vecs)
        y = MeasurementSet(values=np.array([1.0]), ensemble=ens)
        x = np.array([2.0, 0.0], dtype=complex)
        assert objective_f(ens, y, x) == 1.0


class TestFirstDerivative:
    def test_zero_at_signal(self):
        ens = sample_sphere(5, 40, 2)
        z = sample_unit_vector(5, 3)
        y = measure(ens, z)
        rng = np.random.default_rng(4)
        for _ in range(5):
            assert dir_deriv_f(ens, y, z, sample_unit_vector(5, rng)) == 0.0

    def test_matches_finite_differences(self):
        # f' against a forward difference (n = 4, m = 20) and f''_i against
        # a central difference (n = 3), 30 draws each
        result = check_directional_derivatives((5,), (5,), reps=30, bound_reps=0)
        assert result.passed, result.detail

    def test_phase_direction_is_flat(self):
        ens = sample_sphere(6, 50, 6)
        z = sample_unit_vector(6, 7)
        y = measure(ens, z)
        rng = np.random.default_rng(8)
        x = z + 0.3 * sample_unit_vector(6, rng)
        assert abs(dir_deriv_f(ens, y, x, 1j * x)) <= 1e-16

    def test_positive_homogeneity(self):
        ens = sample_sphere(4, 25, 9)
        z = sample_unit_vector(4, 10)
        y = measure(ens, z)
        rng = np.random.default_rng(11)
        x = z + 0.4 * sample_unit_vector(4, rng)
        v = sample_unit_vector(4, rng)
        d1 = dir_deriv_f(ens, y, x, v)
        d3 = dir_deriv_f(ens, y, x, 3.0 * v)
        assert abs(d3 - 3.0 * d1) <= 1e-12 * max(1.0, abs(d1))

    def test_zero_row_product_rejected(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        ens = SensingEnsemble(vectors=vecs)
        y = MeasurementSet(values=np.array([1.0, 1.0]), ensemble=ens)
        x = np.array([1.0, 0.0], dtype=complex)  # orthogonal to row 2
        with pytest.raises(ValueError):
            dir_deriv_f(ens, y, x, x)


class TestSecondDerivative:
    def test_reduces_to_curvature_at_signal(self):
        rng = np.random.default_rng(12)
        ens = sample_sphere(5, 30, 13)
        z = sample_unit_vector(5, rng)
        v = sample_unit_vector(5, rng)
        w1 = second_dir_deriv_at_signal(ens, z, v)
        for i in range(ens.m):
            d2 = second_dir_deriv_fi(ens.vectors[i], z, z, v)
            assert abs(d2 - w1[i]) <= 1e-12 * max(1.0, abs(w1[i]))

    @pytest.mark.parametrize("k", [-530, 530])
    def test_curvature_does_not_depend_on_the_signal_scale(self, k):
        # at 2^k z, |u|^2 overflows (k = 530) or underflows (k = -530): the
        # curvature, the terms and the search stay those at z
        ens = sample_sphere(6, 80, 15)
        z = sample_unit_vector(6, 16)
        v = sample_unit_vector(6, 17)
        scaled = np.ldexp(z.real, k) + 1j * np.ldexp(z.imag, k)
        assert np.array_equal(second_dir_deriv_at_signal(ens, scaled, v), second_dir_deriv_at_signal(ens, z, v))
        assert regularity_terms(ens, scaled, v, 1 / 80, 20.0)[0] == regularity_terms(ens, z, v, 1 / 80, 20.0)[0]
        params = RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=64, seed=18)
        for size in (1e160, 1e-160):
            rep = estimate_L(ens, size * z, params)
            assert math.isfinite(rep.term1) and math.isfinite(rep.L_estimate)
            assert_lower_bound(rep)

    def test_bounded_by_twice_projection(self):
        # 0 <= f''_i(z) <= 2|a_i^* v|^2 on 200 random ensembles, 2 <= n <= 6
        result = check_directional_derivatives((14,), (14,), reps=0, bound_reps=200)
        assert result.passed, result.detail

    def test_zero_inner_product_rejected(self):
        a = np.array([1.0, 0.0], dtype=complex)
        x = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(ValueError):
            second_dir_deriv_fi(a, a, x, a)


class TestWedge:
    def test_signal_direction_includes_everything(self):
        ens = sample_sphere(4, 60, 16)
        z = sample_unit_vector(4, 17)
        w = wedge(ens, z, z, 1.0)
        assert w.tolist() == list(range(60))

    def test_vanishing_beta_empties_the_set(self):
        ens = sample_sphere(4, 60, 18)
        z = sample_unit_vector(4, 19)
        v = sample_unit_vector(4, 20)
        assert wedge(ens, z, v, 1e-300).size == 0

    def test_monotone_in_beta(self):
        ens = sample_sphere(5, 200, 21)
        z = sample_unit_vector(5, 22)
        v = sample_unit_vector(5, 23)
        previous = set()
        for beta in (0.05, 0.2, 0.7, 1.0, 3.0, 10.0):
            current = set(wedge(ens, z, v, beta).tolist())
            assert previous <= current
            previous = current

    def test_orthogonal_fraction_closed_form(self):
        # beta^2 / (1 + beta^2) within 0.005 at beta in {1/2, 1, 2}
        result = check_wedge_fraction((24,), 200_000, tol=0.005)
        assert result.passed, result.detail


def assert_phase_aligned(rep, z):
    v = rep.argmin_direction
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    assert abs(np.vdot(z, v).imag) <= 1e-12


def assert_lower_bound(rep):
    """L_lower <= L_estimate up to rounding, and the two agree where the bound
    is attained."""
    slack = 1e-10 * max(1.0, abs(rep.L_estimate))
    assert rep.L_lower <= rep.L_estimate + slack
    if rep.lower_is_exact:
        assert rep.L_estimate <= rep.L_lower + slack


def products(ens, scorer, c):
    """t_c, W's products a_i^* v at v_R = frame c, formed by
    ``row_products`` rather than from the scorer's P."""
    v = scorer.frame @ c
    return row_products(ens, v[: ens.n] + 1j * v[ens.n :])[scorer.w_rows]


def record_scores(monkeypatch):
    """(scored, sweeps, screened): lists that fill as ``estimate_L`` runs,
    with (C, f) for the anchor's ``rows(C)`` call and for every chunk
    ``bounds(C)`` screens, f +inf where ``rows`` did not score the chunk,
    (c, step, f, move) for every ``moves(c, t, step)`` call and (C, lower)
    for every ``bounds(C)`` call; C and c are copies, and move(j) is that
    sweep's ``move(c, t, step, j)``."""
    scored, sweeps, screened = [], [], []
    rows, bounds, moves = search._Scorer.rows, search._Scorer.bounds, search._Scorer.moves

    def scored_rows(self, C):
        f = rows(self, C)
        if scored and np.array_equal(scored[-1][0], C):  # the chunk just screened
            scored[-1] = (scored[-1][0], f)
        else:
            scored.append((C.copy(), f))
        return f

    def screened_rows(self, C):
        lower = bounds(self, C)
        screened.append((C.copy(), lower))
        scored.append((C.copy(), np.full(len(C), np.inf)))
        return lower

    def scored_moves(self, c, t, step):
        f = moves(self, c, t, step)
        sweeps.append((c.copy(), step, f, partial(self.move, c.copy(), t.copy(), step)))
        return f

    monkeypatch.setattr(search._Scorer, "rows", scored_rows)
    monkeypatch.setattr(search._Scorer, "bounds", screened_rows)
    monkeypatch.setattr(search._Scorer, "moves", scored_moves)
    return scored, sweeps, screened


class TestEstimateL:
    def test_report_consistency(self):
        ens = sample_sphere(2, 100, 25)
        z = sample_unit_vector(2, 26)
        params = RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=500, seed=27)
        rep = estimate_L(ens, z, params)
        assert rep.search_mode == "random_refine"
        assert_lower_bound(rep)
        assert_phase_aligned(rep, z)
        recomputed = (rep.n / rep.m) * (rep.term1 - rep.term2 - rep.term3)
        assert abs(rep.L_estimate - recomputed) <= 1e-12 * max(1.0, abs(rep.L_estimate))
        t1, t2, t3, br = regularity_terms(ens, z, rep.argmin_direction, 1 / 80, 20.0)
        assert abs(br - (rep.term1 - rep.term2 - rep.term3)) <= 1e-9
        assert rep.constraint_2c0alpha_lt_1 and not rep.constraint_2c0alpha_gt_1

    def test_degenerate_repeated_row_is_nonpositive(self):
        # every row identical: any direction orthogonal to it zeroes all
        # three sums, so the search minimum cannot be positive
        row = sample_unit_vector(2, 28)
        vecs = np.tile(row, (40, 1))
        ens = SensingEnsemble(vectors=vecs)
        rep = estimate_L(ens, row, RegularityParams(c0=0.01, alpha=5.0, net_or_samples=400, seed=29))
        assert rep.L_estimate <= 0.0

    def test_phase_direction_forces_nonpositive_minimum(self):
        # term1 vanishes at v = i z while term2 does not: the flat
        # global-phase direction is why the search leaves i z out
        ens = sample_sphere(2, 200, 30)
        z = sample_unit_vector(2, 31)
        t1, t2, t3, br = regularity_terms(ens, z, 1j * z, 0.01, 5.0)
        assert t1 <= 1e-12
        assert t3 == 0.0
        assert br < 0.0
        # at alpha = 5, 6/(alpha-1) = 1.5 exceeds the curvature's maximum of
        # 1 per |a^* v|^2, so the bracket is negative on the phase-aligned
        # sphere too
        rep = estimate_L(ens, z, RegularityParams(c0=0.01, alpha=5.0, net_or_samples=3000, seed=32))
        assert rep.L_estimate < 0.0
        assert_phase_aligned(rep, z)

    def test_budget_monotonicity_dense(self):
        # n = 2 with rows in W (c0 alpha = 0.16): budgets of nested grid
        # sizes r^3, each a prefix of the next one's candidates
        ens = sample_sphere(2, 150, 33)
        z = sample_unit_vector(2, 34)
        previous = np.inf
        for r in (6, 12, 24):
            rep = estimate_L(ens, z, RegularityParams(c0=0.02, alpha=8.0, net_or_samples=r**3, seed=0))
            assert rep.search_mode == "random_refine"
            assert_phase_aligned(rep, z)
            assert rep.L_estimate <= previous + 1e-12
            previous = rep.L_estimate

    def test_budget_monotonicity_random(self):
        # n = 8 with W empty
        ens = sample_sphere(8, 160, 35)
        z = sample_unit_vector(8, 36)
        previous = np.inf
        for budget in (64, 256, 1024):
            rep = estimate_L(
                ens, z, RegularityParams(c0=1e-6, alpha=600.0, net_or_samples=budget, seed=37)
            )
            assert rep.search_mode == "random_refine"
            assert_phase_aligned(rep, z)
            assert rep.L_estimate <= previous + 1e-12
            previous = rep.L_estimate

    @pytest.mark.parametrize("n", [1, 2, 8, 50])
    def test_direction_stream_is_prefix_stable(self, n):
        # estimate_L draws only the rows its budget asks for, a chunk at a
        # time: the rows of any budget must be the first rows of one draw
        chunk = search._DIR_CHUNK
        whole = np.random.default_rng(n).standard_normal((3 * chunk, 2 * n - 1))
        for budget in (1, chunk, chunk + 44, 3 * chunk):
            rng = np.random.default_rng(n)
            drawn = [
                rng.standard_normal((min(chunk, budget - done), 2 * n - 1))
                for done in range(0, budget, chunk)
            ]
            assert np.array_equal(np.concatenate(drawn), whole[:budget])

    def test_search_is_anchored_at_the_eigenvector(self, monkeypatch):
        # candidate 0, scored like every other, and the descent's start are
        # e_0 of the bracket form's eigenframe, whose direction is frame
        # column 0; each sweep scores 2 (2n-1) moves, and every evaluated
        # direction is counted once; here random candidates beat
        # the eigenvector, so the best candidate is not where the descent
        # starts
        n = 5
        ens = sample_sphere(n, 120, 57)
        z = sample_unit_vector(n, 58)
        frame = search._Scorer.build(ens, z, 1 / 80, 20.0).frame
        scored, sweeps, _ = record_scores(monkeypatch)
        rep = estimate_L(ens, z, RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=300, seed=57))
        (anchor, (f0,)), *_ = scored
        e0 = np.eye(2 * n - 1)[0]
        assert anchor.tolist() == [e0.tolist()]
        assert sweeps[0][0].tolist() == e0.tolist()
        assert {len(f) for _, _, f, _ in sweeps} == {2 * (2 * n - 1)}
        v0 = frame[:n, 0] + 1j * frame[n:, 0]
        assert f0 == pytest.approx(regularity_terms(ens, z, v0, 1 / 80, 20.0)[3], rel=1e-12)
        assert rep.L_estimate < (n / 120) * f0
        assert rep.evaluations == 1 + 300 + 2 * (2 * n - 1) * len(sweeps)

    def test_reports_the_lowest_candidate_evaluated(self, monkeypatch):
        # the anchor, the random chunks and the descent's sweeps are all
        # scored by the search's scorer; every candidate is counted once,
        # and regularity_terms runs once, on the lowest.  Every random
        # candidate is screened, and one whose chunk was left unscored has
        # a bound above the reported bracket
        ens = sample_sphere(5, 120, 61)
        z = sample_unit_vector(5, 62)
        brackets, terms = [], search.regularity_terms

        def recording_terms(*args):
            out = terms(*args)
            brackets.append(out[3])
            return out

        scored, sweeps, screened = record_scores(monkeypatch)
        monkeypatch.setattr(search, "regularity_terms", recording_terms)
        rep = estimate_L(ens, z, RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=300, seed=63))
        reported, = brackets
        scores = [f for _, f in scored] + [f for _, _, f, _ in sweeps]
        assert sum(map(len, scores)) == rep.evaluations
        lowest = min(f.min() for f in scores)
        assert reported == pytest.approx(lowest, rel=1e-12)
        assert rep.L_estimate == (5 / 120) * reported
        assert len(screened) == len(scored) - 1 == 2
        for (C, lower), (C_scored, f) in zip(screened, scored[1:]):
            assert np.array_equal(C, C_scored)
            assert np.all(lower[np.isinf(f)] > max(reported, lowest))
        assert sum(np.isinf(f).sum() for _, f in scored) > 0

    @pytest.mark.parametrize("n", [1, 2, 8, 50])
    @pytest.mark.parametrize(
        "c0, w_case", [(1e-6, "empty"), (1e-3, "few"), (1 / 80, "partial"), (0.1, "all"), (0.1, "spans")]
    )
    def test_descent_scores_equal_random_stage_scores(self, n, c0, w_case):
        # a sweep scores c +- step e_j from the products of c and of the
        # frame axes, the random stage the same normalized coordinates by one
        # product each: the two agree, and both are the bracket of
        # regularity_terms; W is empty, a few rows (none below n = 50),
        # partial (empty at n = 1, where |a_i^* z| = ||a_i||) or every row
        # (c0 alpha >= 1), and in "spans" every row of m = 1200, more than
        # one _SPAN_ROWS
        m, alpha = (1200 if w_case == "spans" else 4 * n + 100), 20.0
        ens = sample_sphere(n, m, 70 + n)
        z = sample_unit_vector(n, 71 + n)
        scorer = search._Scorer.build(ens, z, c0, alpha)
        w_rows = scorer.w_rows
        if w_case == "few" and n == 50:
            assert 0 < len(w_rows) < 0.05 * m
        elif w_case == "partial" and n > 1:
            assert 0 < len(w_rows) < m
        else:
            assert len(w_rows) == (m if w_case in ("all", "spans") else 0)
        if w_case == "spans":
            assert len(w_rows) > search._SPAN_ROWS
        k = 2 * n - 1
        c = np.random.default_rng(n).standard_normal(k)
        c /= np.linalg.norm(c)
        for start, t in ((np.eye(k)[0], scorer.t0), (c, products(ens, scorer, c))):
            for step in (0.25, 0.01, 1e-3):
                f = scorer.moves(start, t, step)
                R = start + step * np.kron(np.eye(k), [[1.0], [-1.0]])
                C = R / np.linalg.norm(R, axis=1, keepdims=True)
                assert np.array_equal([scorer.move(start, t, step, j)[0] for j in range(2 * k)], C)
                np.testing.assert_allclose(f, scorer.rows(C), rtol=1e-12, atol=0)
                V = C @ scorer.frame.T
                brackets = [regularity_terms(ens, z, v, c0, alpha)[3] for v in V[:, :n] + 1j * V[:, n:]]
                np.testing.assert_allclose(f, brackets, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n, c0", [(2, 1 / 80), (8, 1 / 80), (8, 0.1), (50, 1e-3), (50, 1 / 80), (50, 0.1)])
    def test_carried_products_score_like_fresh_ones(self, n, c0):
        # a walk of moves carries each accepted move's products from its
        # sweep, (t +- step P_j) / ||c +- step e_j||; along it the sweeps'
        # scores stay those of the random stage, which forms every product
        # afresh
        m, alpha = 4 * n + 100, 20.0
        ens = sample_sphere(n, m, 80 + n)
        z = sample_unit_vector(n, 81 + n)
        scorer = search._Scorer.build(ens, z, c0, alpha)
        c = np.random.default_rng(n).standard_normal(2 * n - 1)
        c /= np.linalg.norm(c)
        t = products(ens, scorer, c)
        for i in range(40):
            step = 0.25 / 2 ** (i // 8)
            f = scorer.moves(c, t, step)
            C = np.array([scorer.move(c, t, step, j)[0] for j in range(len(f))])
            np.testing.assert_allclose(f, scorer.rows(C), rtol=1e-12, atol=0)
            if i % 3:  # some walk, some repeat
                c, t = scorer.move(c, t, step, (7 * i) % len(C))
                np.testing.assert_allclose(t, products(ens, scorer, c), rtol=0, atol=1e-12 * max(1.0, np.abs(t).max(initial=0.0)))

    @pytest.mark.parametrize(
        "n, m, c0, w_case",
        [
            (1, 104, 1 / 80, "empty"),
            (1, 104, 0.1, "all"),
            (8, 132, 2e-3, "few"),
            (8, 132, 1 / 80, "partial"),
            (8, 132, 0.1, "all"),
            (50, 2000, 1e-3, "few"),
            (50, 2000, 1 / 80, "partial"),
            (50, 2000, 0.1, "all"),
        ],
    )
    def test_rows_left_out_of_a_sweep_are_outside_every_wedge(self, monkeypatch, n, m, c0, w_case):
        # a sweep forms and masks only _move_candidates' near rows that are
        # not inside, skips the inside ones and sums the rest of W in full:
        # every other row must lie outside the wedge of all 2 (2n-1) moves,
        # and every inside row inside it, with |t|^2 formed elementwise from
        # c's and the axes' products
        alpha, k = 20.0, 2 * n - 1
        ens = sample_sphere(n, m, derive_seed(n, m, 1))
        z = sample_unit_vector(n, derive_seed(n, m, 2))
        scorer = search._Scorer.build(ens, z, c0, alpha)
        frame, w_rows = scorer.frame, scorer.w_rows
        w = len(w_rows)
        assert {"empty": w == 0, "few": 0 < w < 0.05 * m, "partial": 0 < w < m, "all": w == m}[w_case]
        picked = []
        pick = search._move_candidates

        def recording_pick(*args):
            picked.append(pick(*args))
            return picked[-1]

        monkeypatch.setattr(search, "_move_candidates", recording_pick)
        a_w = ens.vectors[w_rows].conj()
        P = a_w @ (frame[:n] + 1j * frame[n:])  # (row, axis): a_i^* f_j
        lim = (np.abs(a_w @ z) / (c0 * alpha)) ** 2
        rng = np.random.default_rng(derive_seed(n, m, 3))
        skips = 0
        for _ in range(3):
            c = rng.standard_normal(k)
            c /= np.linalg.norm(c)
            for step in (0.25, 0.01, 1e-3):
                scorer.moves(c, products(ens, scorer, c), step)
                near, inside = picked.pop()
                out = np.setdiff1d(np.arange(w), near)
                skipped = near[inside]
                R = c + step * np.kron(np.eye(k), [[1.0], [-1.0]])
                for part, outside in ((out, True), (skipped, False)):
                    t = (P @ c)[part, np.newaxis]
                    base = np.abs(t) ** 2 + step**2 * np.abs(P[part]) ** 2
                    cross = 2.0 * step * np.real(np.conj(t) * P[part])
                    p2 = np.stack((base + cross, base - cross), axis=2).reshape(len(part), 2 * k)
                    p2 /= np.sum(R * R, axis=1)
                    assert np.all((p2 < lim[part, np.newaxis]) == outside)
                skips += len(skipped)
        assert picked == []
        if w_case in ("partial", "all") and n > 1:
            assert skips > 0

    def test_bench_shaped_search_is_pinned(self):
        # the benchmark's estimate_l instance at master seed 3000, with a
        # smaller budget: n = 50 puts most rows in W, where the descent's
        # sweeps do nearly all the work
        ens = sample_sphere(50, 2000, derive_seed(3000, 1))
        z = sample_unit_vector(50, derive_seed(3000, 2))
        rep = estimate_L(ens, z, RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=256, seed=3000))
        assert rep.evaluations == 27779
        assert rep.L_estimate == pytest.approx(-22.44770756246052, rel=1e-12)

    def test_sweep_memory_is_bounded_by_eval_blocks(self):
        # README: each temporary of a score holds at most _EVAL_BYTES, and
        # a sweep, with its kept move and carried products, at most two at
        # once (a gather of W's rows and their moves' squared products)
        # besides vectors over W.  At n = 128, m = 5120 (c0 = 1/80 puts
        # every row in W) the 2 (2n-1) moves as one matrix would hold
        # 1016 KiB alone
        n, m, c0, alpha = 128, 5120, 1 / 80, 20.0
        ens = sample_sphere(n, m, derive_seed(n, m, 1))
        z = sample_unit_vector(n, derive_seed(n, m, 2))
        scorer = search._Scorer.build(ens, z, c0, alpha)
        w, k = len(scorer.w_rows), 2 * n - 1
        assert w > 0.99 * m
        c = np.random.default_rng(5).standard_normal(k)
        c /= np.linalg.norm(c)
        bound = 2 * search._EVAL_BYTES + 16 * 8 * w
        for start, t in ((np.eye(k)[0], scorer.t0), (c, products(ens, scorer, c))):
            for step in (0.25, 0.01):
                tracemalloc.start()
                try:
                    f = scorer.moves(start, t, step)
                    scorer.move(start, t, step, int(np.argmin(f)))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= bound, (step, peak, bound)

    @pytest.mark.parametrize("e", [-450, -60, 60, 450])
    def test_search_does_not_depend_on_the_ensemble_scale(self, e):
        # the screen scales P by a power of two into float32's range, and
        # past 2^+-400 it scores every chunk: either way the search evaluates
        # the same directions, and L scales by 4^e
        ens = sample_sphere(3, 60, 1)
        z = sample_unit_vector(3, 2)
        params = RegularityParams(c0=0.1, alpha=20.0, net_or_samples=300, seed=3)
        scaled = SensingEnsemble(vectors=ens.vectors * 2.0**e)
        want, rep = estimate_L(ens, z, params), estimate_L(scaled, z, params)
        assert rep.evaluations == want.evaluations
        assert rep.L_estimate == pytest.approx(want.L_estimate * 4.0**e, rel=1e-12)
        scorer = search._Scorer.build(scaled, z, 0.1, 20.0)
        C = np.random.default_rng(7).standard_normal((300, 5))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        lower = scorer.bounds(C)
        assert np.all(lower <= scorer.rows(C))
        assert np.all(np.isinf(lower)) == (abs(e) > 400)

    def test_screen_holds_one_float32_span(self):
        # the screen converts one span of P to float32 at a time: besides
        # that copy, 8 (2n-1) _SPAN_ROWS bytes, it holds its two blocks of
        # float32 products (_EVAL_BYTES together) and vectors and copies of
        # C.  A float32 copy of all of P would hold 10 MiB more here
        n, m = 128, 5120
        ens = sample_sphere(n, m, derive_seed(n, m, 1))
        z = sample_unit_vector(n, derive_seed(n, m, 2))
        scorer = search._Scorer.build(ens, z, 1 / 80, 20.0)
        k = 2 * n - 1
        assert len(scorer.w_rows) > 8 * search._SPAN_ROWS
        C = np.random.default_rng(5).standard_normal((search._DIR_CHUNK, k))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            scorer.bounds(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * k * search._SPAN_ROWS + 2 * search._EVAL_BYTES + C.nbytes, peak

    @pytest.mark.parametrize("model", ["sphere", "unitary"])
    @pytest.mark.parametrize("c0", [1e-3, 1 / 80, 0.1])
    def test_close_to_the_grid_minimum_at_n2(self, model, c0):
        # at n = 2 the phase-aligned unit sphere is a 2-sphere, and a
        # Fibonacci grid of 20000 directions gives the bracket's minimum to
        # within the grid's resolution.  L_lower is below the grid's
        # minimum, and L_estimate, with the default budget, within 0.5% of
        # it at every seed here: at the commit that added this test the
        # largest gap was 0.44% (sphere, c0 = 0.1, seed 904); the descent
        # alone (budget 1) left gaps up to 16%, over 0.5% on 7 of the 36
        alpha = 20.0
        for seed in range(900, 906):
            if model == "sphere":
                ens = sample_sphere(2, 80, derive_seed(seed, 1))
            else:
                ens = sample_block_unitary(2, 40, derive_seed(seed, 1))
            z = sample_unit_vector(2, derive_seed(seed, 2))
            rep = estimate_L(ens, z, RegularityParams(c0=c0, alpha=alpha, net_or_samples=2048, seed=seed))
            L_grid, v = grid_minimum(ens, z, c0, alpha, 20000)
            assert (2 / 80) * regularity_terms(ens, z, v, c0, alpha)[3] == pytest.approx(L_grid, rel=1e-9)
            assert rep.L_lower <= L_grid + 1e-12 * abs(L_grid)
            assert (rep.L_estimate - L_grid) / abs(L_grid) <= 5e-3, seed

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_exact_where_the_wedge_is_empty(self, n):
        # c0 alpha < min_i |a_i^* z| empties every wedge: the eigenvector of
        # the bracket form is the minimizer and the search cannot beat it
        m = 40 * n
        ens = sample_sphere(n, m, 43)
        z = sample_unit_vector(n, 44)
        c0, alpha = 1e-6, 20.0
        assert c0 * alpha < np.min(np.abs(ens.vectors.conj() @ z))
        rep = estimate_L(ens, z, RegularityParams(c0=c0, alpha=alpha, net_or_samples=512, seed=45))
        assert rep.lower_is_exact
        assert rep.term3 == 0.0
        assert_lower_bound(rep)
        assert_phase_aligned(rep, z)
        # e_0 and its moves +-e_0 all score lam_0, so the descent never
        # moves and runs the schedule's 8 halvings
        assert rep.evaluations == 1 + 512 + 16 * (2 * n - 1)

    def test_descent_does_not_move_onto_the_anchor(self):
        # with W empty the anchor and its moves +-e_0 are scored alike, so
        # no sweep is spent moving from e_0 onto e_0
        n = 8
        ens = sample_sphere(n, 320, derive_seed(702, 1))
        z = sample_unit_vector(n, derive_seed(702, 2))
        c0, alpha = 1e-6, 20.0
        assert c0 * alpha < np.min(np.abs(ens.vectors.conj() @ z))
        rep = estimate_L(ens, z, RegularityParams(c0=c0, alpha=alpha, net_or_samples=64, seed=2))
        assert rep.evaluations == 1 + 64 + 16 * (2 * n - 1) == 305

    def test_a_move_onto_its_own_point_is_no_move(self, monkeypatch):
        # sphere n = 2, m = 60: from e_0 the move -e_0 normalizes back to
        # e_0 and scores an ulp below the anchor; a move whose coordinates
        # equal c's is no move, so the step halves and no sweep is spent
        # moving c onto itself
        n, seed = 2, 61
        ens = sample_sphere(n, 60, derive_seed(seed, 1))
        z = sample_unit_vector(n, derive_seed(seed, 2))
        scored, sweeps, _ = record_scores(monkeypatch)
        rep = estimate_L(ens, z, RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=64, seed=seed))
        c, step, f, move = sweeps[0]
        j = int(np.argmin(f))
        assert np.array_equal(move(j)[0], c) and f[j] < scored[0][1][0]
        assert sweeps[1][1] == step / 2
        for (c, step, _, _), (c_next, step_next, _, _) in zip(sweeps, sweeps[1:]):
            if step_next == step:  # a move was accepted
                assert not np.array_equal(c_next, c)
        assert rep.evaluations == 1 + 64 + 2 * (2 * n - 1) * len(sweeps) == 275

    @pytest.mark.parametrize("n, m, c0", [(2, 100, 1 / 80), (8, 160, 1 / 80), (8, 160, 0.1), (50, 2000, 1 / 80)])
    def test_report_does_not_depend_on_skipping_inside_rows(self, monkeypatch, n, m, c0):
        # a sweep skips the near rows inside every move's wedge: forming and
        # masking them as well must give the same report, bit for bit
        ens = sample_sphere(n, m, 38)
        z = sample_unit_vector(n, 39)
        params = RegularityParams(c0=c0, alpha=20.0, net_or_samples=64, seed=40)
        want = render_json(estimate_L(ens, z, params))
        pick, skipped = search._move_candidates, []

        def skip_nothing(*args):
            near, inside = pick(*args)
            skipped.append(inside.sum())
            return near, np.zeros_like(inside)

        monkeypatch.setattr(search, "_move_candidates", skip_nothing)
        assert render_json(estimate_L(ens, z, params)) == want
        assert sum(skipped) > 0

    @pytest.mark.parametrize(
        "model, n, m, c0, budget, seed",
        [
            ("sphere", 50, 2000, 1 / 80, 256, 3000),  # the bench shape: no chunk scored
            ("unitary", 4, 40, 0.1, 512, 1),  # one chunk scored, one not
            ("sphere", 2, 80, 0.1, 2048, 900),
            ("sphere", 8, 160, 1e-6, 256, 3),  # W empty
        ],
    )
    def test_report_does_not_depend_on_the_screen(self, monkeypatch, model, n, m, c0, budget, seed):
        # the random stage scores only the chunks that hold a bound at or
        # below the lowest score so far: scoring every chunk must give the
        # same report, bit for bit
        if model == "sphere":
            ens = sample_sphere(n, m, derive_seed(seed, 1))
        else:
            ens = sample_block_unitary(n, m, derive_seed(seed, 1))
        z = sample_unit_vector(n, derive_seed(seed, 2))
        params = RegularityParams(c0=c0, alpha=20.0, net_or_samples=budget, seed=seed)
        scored, _, _ = record_scores(monkeypatch)
        want = render_json(estimate_L(ens, z, params))
        skipped = sum(int(np.isinf(f).sum()) for _, f in scored)
        monkeypatch.setattr(search._Scorer, "bounds", lambda self, C: np.full(len(C), -np.inf))
        scored.clear()
        assert render_json(estimate_L(ens, z, params)) == want
        assert sum(int(np.isinf(f).sum()) for _, f in scored) == 0
        assert skipped > 0
        assert skipped < budget or model == "sphere"

    @pytest.mark.parametrize("c0", [1e-6, 1 / 80])
    def test_bracket_form_does_not_depend_on_row_blocks(self, monkeypatch, c0):
        # one row per block and 7 rows per block (m = 100 is not a multiple)
        # give the eigenvalues and minimizer of one block up to rounding
        ens = sample_sphere(4, 100, 53)
        z = sample_unit_vector(4, 54)
        want = search._Scorer.build(ens, z, c0, 20.0)
        lam = want.lam
        assert (want.w_rows.size == 0) == (c0 == 1e-6)
        for rows in (1, 7):
            monkeypatch.setattr(search, "_FORM_BYTES", 16 * 4 * rows)
            got = search._Scorer.build(ens, z, c0, 20.0)
            assert abs(got.lam[0] - lam[0]) <= 1e-12 * max(1.0, abs(lam[0]))
            assert np.max(np.abs(got.lam - lam)) <= 1e-12 * max(1.0, np.max(np.abs(lam)))
            assert abs(abs(want.frame[:, 0] @ got.frame[:, 0]) - 1.0) <= 1e-9
            assert got.w_rows.tolist() == want.w_rows.tolist()

    @pytest.mark.parametrize("n, m", [(2, 100), (5, 120), (8, 400)])
    def test_lower_bound_is_certified(self, n, m):
        # at c0 = 1/80 the wedges are not empty: L_lower is below the search
        # and below the bracket at every phase-aligned unit direction
        c0, alpha = 1 / 80, 20.0
        ens = sample_sphere(n, m, 46)
        z = sample_unit_vector(n, 47)
        scorer = search._Scorer.build(ens, z, c0, alpha)
        assert scorer.w_rows.size > 0
        rep = estimate_L(ens, z, RegularityParams(c0=c0, alpha=alpha, net_or_samples=256, seed=48))
        assert_lower_bound(rep)
        frame = scorer.frame
        C = np.random.default_rng(49).standard_normal((200, 2 * n - 1))
        V = (C / np.linalg.norm(C, axis=1, keepdims=True)) @ frame.T
        for v in V[:, :n] + 1j * V[:, n:]:
            bracket = regularity_terms(ens, z, v, c0, alpha)[3]
            assert rep.L_lower <= (n / m) * bracket

    @pytest.mark.parametrize("m", [10, 14])
    def test_lower_bound_nonpositive_below_2n_minus_1_rows(self, m):
        # m < 2n - 1 rows leave term1 a null direction on the (2n-1)-
        # dimensional phase-aligned space, where the bracket is -term2 - term3
        n = 8
        ens = sample_sphere(n, m, 50)
        z = sample_unit_vector(n, 51)
        for c0 in (1e-6, 1 / 80):
            rep = estimate_L(ens, z, RegularityParams(c0=c0, alpha=20.0, net_or_samples=64, seed=52))
            assert rep.L_lower <= 0.0
            assert_lower_bound(rep)

    @pytest.mark.parametrize("n, m", [(2, 100), (8, 160)])
    def test_report_does_not_depend_on_evaluation_blocks(self, monkeypatch, n, m):
        # directions are evaluated in blocks of at most _EVAL_BYTES of
        # products: one direction per block and every candidate batch in one
        # block must give the report of the default blocks, bit for bit
        ens = sample_sphere(n, m, 38)
        z = sample_unit_vector(n, 39)
        params = RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=600, seed=40)
        reports = []
        for eval_bytes in (search._EVAL_BYTES, 1, 16 * m * 4096):
            monkeypatch.setattr(search, "_EVAL_BYTES", eval_bytes)
            rep = estimate_L(ens, z, params)
            reports.append(render_json(rep))
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @pytest.mark.parametrize("span", [1, 7, 32])
    def test_random_stage_sums_w_in_spans(self, monkeypatch, span):
        # the random stage sums a score's gap over _SPAN_ROWS rows of W at a
        # time: spans shorter than W give the one-span scores up to rounding,
        # and the report does not depend on the evaluation blocks, bit for bit
        n, m, c0, alpha = 8, 160, 1 / 80, 20.0
        ens = sample_sphere(n, m, 38)
        z = sample_unit_vector(n, 39)
        scorer = search._Scorer.build(ens, z, c0, alpha)
        assert len(scorer.w_rows) > 32
        C = np.random.default_rng(span).standard_normal((300, 2 * n - 1))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        want = scorer.rows(C)
        monkeypatch.setattr(search, "_SPAN_ROWS", span)
        got = search._Scorer.build(ens, z, c0, alpha).rows(C)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        params = RegularityParams(c0=c0, alpha=alpha, net_or_samples=600, seed=40)
        reports = []
        for eval_bytes in (search._EVAL_BYTES, 1, 16 * m * 4096):
            monkeypatch.setattr(search, "_EVAL_BYTES", eval_bytes)
            reports.append(render_json(estimate_L(ens, z, params)))
        assert reports[1] == reports[0] and reports[2] == reports[0]

    @pytest.mark.parametrize(
        "n, m, c0, w_case",
        [
            (1, 40, 0.1, "all"),
            (8, 160, 1e-6, "empty"),
            (8, 1200, 0.1, "spans"),
            (50, 400, 1 / 80, "partial"),
            (128, 600, 1 / 80, "all"),
        ],
    )
    def test_screen_bounds_every_score_from_below(self, n, m, c0, w_case):
        # the random stage leaves a chunk unscored only where every one of
        # its float32 bounds is above a score already found, so each bound
        # must be at or below rows' float64 score: with W's own limits; with
        # every limit within 1e-9 to 1e-6 relative of its row's |t|^2, all
        # below it, then all above, where the products' relative error
        # decides; and at rows where |t_i| is about 1e-5 ||P_i||, limits
        # 1e-6 relative from |t_i|^2 and every other row's limit 0, where
        # their absolute error decides
        alpha, k = 20.0, 2 * n - 1
        ens = sample_sphere(n, m, derive_seed(n, m, 4))
        z = sample_unit_vector(n, derive_seed(n, m, 5))
        scorer = search._Scorer.build(ens, z, c0, alpha)
        frame, w_rows = scorer.frame, scorer.w_rows
        w = len(w_rows)
        assert {"empty": w == 0, "all": w == m, "spans": w == m > search._SPAN_ROWS, "partial": 0 < w < m}[w_case]
        rng = np.random.default_rng(derive_seed(n, m, 6))

        def unit(C):
            return C / np.linalg.norm(C, axis=-1, keepdims=True)

        C = unit(rng.standard_normal((300, k)))
        assert np.all(scorer.bounds(C) <= scorer.rows(C))
        if w == 0:
            return
        t2 = np.abs(products(ens, scorer, C[0])) ** 2
        near = 10.0 ** rng.uniform(-9, -6, w)
        C = unit(C[0] + 1e-10 * rng.standard_normal((300, k)))
        for side in (-1.0, 1.0):  # every row outside, then inside, the wedge
            limited = search._Scorer(ens, scorer.lam, frame, w_rows, t2 * (1.0 + side * near), scorer.c_wedge)
            assert np.all(limited.bounds(C) <= limited.rows(C))
        if k < 3:  # no unit c is orthogonal to a row's two parts
            return
        P = ens.vectors[w_rows].conj() @ (frame[:n] + 1j * frame[n:])  # (row, axis): a_i^* f_j
        picked = rng.choice(w, min(w, 24), replace=False)
        C = []
        for i in picked:
            q = np.linalg.qr(np.stack((P[i].real, P[i].imag), axis=1))[0]
            c = rng.standard_normal(k)
            c = unit(c - q @ (q.T @ c))
            C.append(unit(c + 1e-5 * q[:, 0]))
        C = np.array(C)
        t2 = np.abs(np.einsum("ij,ij->i", C, P[picked])) ** 2
        assert np.all(t2 < 1e-8 * np.sum(np.abs(P[picked]) ** 2, axis=1))
        for side in (-1.0, 1.0):
            lim = np.zeros(w)
            lim[picked] = t2 * (1.0 + side * 1e-6)
            limited = search._Scorer(ens, scorer.lam, frame, w_rows, lim, scorer.c_wedge)
            assert np.all(limited.bounds(C) <= limited.rows(C))

    def test_rejects_alpha_whose_terms_overflow(self):
        # 2 + 4 alpha overflows, so term3 and L would be infinite
        ens = sample_sphere(2, 4, 41)
        z = sample_unit_vector(2, 42)
        with pytest.raises(ValueError, match="alpha"):
            regularity_terms(ens, z, z, 0.1, 1e308)
        with pytest.raises(ValueError, match="alpha"):
            estimate_L(ens, z, RegularityParams(c0=0.1, alpha=1e308, net_or_samples=10))

    def test_rejects_vectors_that_are_not_finite_n_vectors(self):
        # a NaN z ended in LinAlgError, a wrong shape in numpy's matmul
        # error, and a NaN v gave four NaN terms
        ens = sample_sphere(4, 40, 41)
        z = sample_unit_vector(4, 42)
        params = RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=16)
        nan = z.copy()
        nan[1] = complex(0.0, math.nan)
        for bad, message in (
            (nan, "must have finite entries"),
            (np.full(4, math.inf), "must have finite entries"),
            (z[:3], r"must have shape \(4,\), got \(3,\)"),
            (np.stack((z, z)), r"must have shape \(4,\), got \(2, 4\)"),
        ):
            with pytest.raises(ValueError, match="z " + message):
                estimate_L(ens, bad, params)
            with pytest.raises(ValueError, match="z " + message):
                regularity_terms(ens, bad, z, 1 / 80, 20.0)
            with pytest.raises(ValueError, match="v " + message):
                regularity_terms(ens, z, bad, 1 / 80, 20.0)

    def test_rejects_singular_signal(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        ens = SensingEnsemble(vectors=vecs)
        z = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            estimate_L(ens, z, RegularityParams(c0=0.01, alpha=5.0, net_or_samples=100, seed=0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RegularityParams(c0=0.0, alpha=5.0)
        with pytest.raises(ValueError):
            RegularityParams(c0=0.1, alpha=1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("alpha", 1.0, "alpha must be > 1"),
            ("c0", 0.0, "c0 must be > 0"),
            ("c0", True, "c0 must be a finite real number, got True"),  # ran as c0 = 1
            ("alpha", True, "alpha must be a finite real number, got True"),
            ("alpha", "20", "alpha must be a finite real number, got '20'"),  # a bare TypeError
            ("c0", "0.1", "c0 must be a finite real number, got '0.1'"),
            ("c0", math.inf, "c0 must be a finite real number, got inf"),
        ],
    )
    def test_rejects_a_setting_that_is_not_a_real_in_range(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RegularityParams(**{"c0": 0.1, "alpha": 20.0, field: value})
        assert RegularityParams(c0=np.float32(0.1), alpha=np.int64(20)).alpha == 20

    @pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), np.int64(-3), "4"])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        # -1 would fail only after the bracket form is built; 1.5 would run as 1
        with pytest.raises(ValueError, match="seed"):
            RegularityParams(c0=0.1, alpha=5.0, seed=seed)
        for ok in (0, 7, np.int64(5), np.uint32(3)):
            assert RegularityParams(c0=0.1, alpha=5.0, seed=ok).seed == ok

    @pytest.mark.parametrize("budget", [2.5, np.float64(64.0), "64"])
    def test_rejects_a_budget_that_is_not_an_integer(self, budget):
        # 2.5 would end in a numpy TypeError once the random stage draws
        with pytest.raises(ValueError, match="net_or_samples must be an integer"):
            RegularityParams(c0=0.1, alpha=5.0, net_or_samples=budget)
        assert RegularityParams(c0=0.1, alpha=5.0, net_or_samples=np.int64(64)).net_or_samples == 64

    def test_report_json_layout(self):
        # the direction is one signal-file object, params one nested object,
        # and a non-finite value is written as null
        ens = sample_sphere(3, 40, 43)
        z = sample_unit_vector(3, 44)
        params = RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=16, seed=45)
        rep = replace(estimate_L(ens, z, params), term1=math.nan, L_lower=-math.inf)

        def reject(name):
            raise ValueError(f"invalid JSON constant {name}")

        payload = json.loads(render_json(rep), parse_constant=reject)
        assert sorted(payload) == sorted(f.name for f in fields(RegularityReport))
        assert payload["term1"] is None and payload["L_lower"] is None
        assert payload["params"] == {"c0": 1 / 80, "alpha": 20.0, "net_or_samples": 16, "seed": 45}
        v = rep.argmin_direction
        assert payload["argmin_direction"] == {"re": v.real.tolist(), "im": v.imag.tolist()}

    def test_readme_lists_exactly_the_report_keys(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text().split("`estimate-l`'s `--n`", 1)[1]
        listed = re.search(r"The report has the\s+keys ([^.]*)\.", section).group(1)
        assert re.findall(r"`(\w+)`", listed) == [f.name for f in fields(RegularityReport)]


class TestLemmaValidators:
    def test_projection_mass_levels(self):
        result = check_projection_mass((38,), 150_000)
        assert result.passed, result.detail

    def test_plane_curvature_closed_form(self):
        result = check_plane_curvature((39,), 150_000)
        assert result.passed, result.detail

    def test_full_report(self):
        # the three lemma checks at the verify CLI's streams and sizes
        results = [
            check_wedge_fraction((40, 113), 100_000, tol=0.002, sigmas=4.5),
            check_plane_curvature((40, 114), 100_000),
            check_projection_mass((40, 115), 100_000),
        ]
        assert all(r.passed for r in results), results
        # the literal doubled form is reported alongside, one value per angle
        detail = results[1].detail
        doubled = detail.split("literal doubled form [")[1].rstrip("]").split()
        assert len(doubled) == 3
