import json

import numpy as np
import pytest

from kaczmarz_pr import (
    MeasurementSet,
    SensingEnsemble,
    dir_deriv_f,
    estimate_L,
    measure,
    objective_f,
    sample_sphere,
    sample_unit_vector,
    second_dir_deriv_at_signal,
    second_dir_deriv_fi,
    wedge,
)
from kaczmarz_pr import regularity
from kaczmarz_pr.regularity import RegularityParams, regularity_terms
from kaczmarz_pr.verify import (
    CHECKS,
    MIN_TRIALS,
    check_directional_derivatives,
    check_plane_curvature,
    check_projection_mass,
    check_wedge_fraction,
)


class TestObjective:
    def test_zero_at_signal_and_phase_rotations(self):
        ens = sample_sphere(4, 30, 0)
        z = sample_unit_vector(4, 1)
        y = measure(ens, z)
        assert objective_f(ens, y, z) == 0.0
        assert objective_f(ens, y, np.exp(1.1j) * z) <= 1e-30

    def test_single_measurement_value(self):
        vecs = np.array([[1.0, 0.0]], dtype=complex)
        ens = SensingEnsemble(vectors=vecs, model="custom", seed=0, n=2, m=1)
        y = MeasurementSet(values=np.array([1.0]), ensemble_ref=ens.ident)
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
        ens = SensingEnsemble(vectors=vecs, model="custom", seed=0, n=2, m=2)
        y = MeasurementSet(values=np.array([1.0, 1.0]), ensemble_ref=ens.ident)
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


class TestEstimateL:
    def test_report_consistency(self):
        ens = sample_sphere(2, 100, 25)
        z = sample_unit_vector(2, 26)
        params = RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=500, seed=27)
        rep = estimate_L(ens, z, params)
        assert rep.search_mode == "dense_net"
        assert_phase_aligned(rep, z)
        recomputed = (rep.n / rep.m) * (rep.term1 - rep.term2 - rep.term3)
        assert abs(rep.L_estimate - recomputed) <= 1e-12 * max(1.0, abs(rep.L_estimate))
        t1, t2, t3, br = regularity_terms(ens, z, rep.argmin_direction, 1 / 80, 20.0)
        assert abs(br - (rep.term1 - rep.term2 - rep.term3)) <= 1e-9
        assert rep.upper_bound_on_sphere_min
        assert rep.constraint_2c0alpha_lt_1 and not rep.constraint_2c0alpha_gt_1

    def test_degenerate_repeated_row_is_nonpositive(self):
        # every row identical: any direction orthogonal to it zeroes all
        # three sums, so the search minimum cannot be positive
        row = sample_unit_vector(2, 28)
        vecs = np.tile(row, (40, 1))
        ens = SensingEnsemble(vectors=vecs, model="custom", seed=0, n=2, m=40)
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

    def test_dense_net_drops_phase_direction(self):
        # z = e1 lies on the grid: budget 500 gives resolution r = 8, so
        # 8 * 8 * 9 = 576 grid points, of which the 2 * 8 at phase +-pi/2
        # and angle 0 equal +-i z and are not evaluated
        ens = sample_sphere(2, 100, 25)
        z = np.array([1.0, 0.0], dtype=complex)
        rep = estimate_L(ens, z, RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=500, seed=27))
        assert rep.evaluations == 576 - 16
        assert_phase_aligned(rep, z)

    def test_budget_monotonicity_dense(self):
        ens = sample_sphere(2, 150, 33)
        z = sample_unit_vector(2, 34)
        previous = np.inf
        for r in (6, 12, 24):  # nested grids: resolution doubles
            rep = estimate_L(ens, z, RegularityParams(c0=0.02, alpha=8.0, net_or_samples=r**3, seed=0))
            assert rep.L_estimate <= previous + 1e-12
            previous = rep.L_estimate

    def test_budget_monotonicity_random(self):
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

    @pytest.mark.parametrize("n, m", [(2, 100), (8, 160)])
    def test_report_does_not_depend_on_evaluation_blocks(self, monkeypatch, n, m):
        # directions are evaluated in blocks of at most _EVAL_BYTES of
        # products: one direction per block and every candidate batch in one
        # block must give the report of the default blocks, bit for bit
        ens = sample_sphere(n, m, 38)
        z = sample_unit_vector(n, 39)
        params = RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=600, seed=40)
        reports = []
        for eval_bytes in (regularity._EVAL_BYTES, 1, 16 * m * 4096):
            monkeypatch.setattr(regularity, "_EVAL_BYTES", eval_bytes)
            rep = estimate_L(ens, z, params)
            reports.append(json.dumps(rep.to_dict(), sort_keys=True, allow_nan=False))
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_rejects_alpha_whose_terms_overflow(self):
        # 2 + 4 alpha overflows, so term3 and L would be infinite
        ens = sample_sphere(2, 4, 41)
        z = sample_unit_vector(2, 42)
        with pytest.raises(ValueError, match="alpha"):
            regularity_terms(ens, z, z, 0.1, 1e308)
        with pytest.raises(ValueError, match="alpha"):
            estimate_L(ens, z, RegularityParams(c0=0.1, alpha=1e308, net_or_samples=10))

    def test_rejects_singular_signal(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        ens = SensingEnsemble(vectors=vecs, model="custom", seed=0, n=2, m=2)
        z = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            estimate_L(ens, z, RegularityParams(c0=0.01, alpha=5.0, net_or_samples=100, seed=0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RegularityParams(c0=0.0, alpha=5.0)
        with pytest.raises(ValueError):
            RegularityParams(c0=0.1, alpha=1.0)


class TestLemmaValidators:
    def test_projection_mass_levels(self):
        result = check_projection_mass((38,), 150_000)
        assert result.passed, result.detail

    def test_plane_curvature_closed_form(self):
        result = check_plane_curvature((39,), 150_000)
        assert result.passed, result.detail

    LEMMAS = ("wedge_fraction", "plane_curvature", "projection_mass")

    def lemma_checks(self):
        checks = {c.name: c for c in CHECKS}
        return [checks[name] for name in self.LEMMAS]

    def test_full_report(self):
        results = {c.name: c.run(40, 100_000) for c in self.lemma_checks()}
        assert all(r.passed for r in results.values()), results
        # the literal doubled form is reported alongside, one value per angle
        detail = results["plane_curvature"].detail
        doubled = detail.split("literal doubled form [")[1].rstrip("]").split()
        assert len(doubled) == 3

    def test_minimum_trials_enforced(self):
        for check in self.lemma_checks():
            assert check.sampled
        check = self.lemma_checks()[-1]
        assert check.run(0, 10_000) == check.run(0, MIN_TRIALS)
