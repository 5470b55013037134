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
from kaczmarz_pr.regularity import (
    RegularityParams,
    plane_curvature_expectation_mc,
    regularity_terms,
    span_projection_mass_mc,
    wedge_fraction_mc,
)
from kaczmarz_pr.seeding import derive_seed
from kaczmarz_pr.verify import CHECKS, MIN_TRIALS


def unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


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
            assert dir_deriv_f(ens, y, z, unit(rng, 5)) == 0.0

    def test_matches_forward_difference(self):
        rng = np.random.default_rng(5)
        n, m = 4, 20
        for rep in range(30):
            ens = sample_sphere(n, m, derive_seed(5, rep))
            z = sample_unit_vector(n, rng)
            y = measure(ens, z)
            while True:
                x = z + 0.5 * unit(rng, n)
                v = unit(rng, n)
                if np.abs(ens.vectors.conj() @ x).min() < 1e-3:
                    continue
                d = dir_deriv_f(ens, y, x, v)
                if abs(d) >= 5e-2:  # slope must dominate the O(t) truncation term
                    break
            t = 1e-6
            fd = (objective_f(ens, y, x + t * v) - objective_f(ens, y, x)) / t
            assert abs(fd - d) / abs(d) <= 1e-4

    def test_phase_direction_is_flat(self):
        ens = sample_sphere(6, 50, 6)
        z = sample_unit_vector(6, 7)
        y = measure(ens, z)
        rng = np.random.default_rng(8)
        x = z + 0.3 * unit(rng, 6)
        assert abs(dir_deriv_f(ens, y, x, 1j * x)) <= 1e-16

    def test_positive_homogeneity(self):
        ens = sample_sphere(4, 25, 9)
        z = sample_unit_vector(4, 10)
        y = measure(ens, z)
        rng = np.random.default_rng(11)
        x = z + 0.4 * unit(rng, 4)
        v = unit(rng, 4)
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
        v = unit(rng, 5)
        w1 = second_dir_deriv_at_signal(ens, z, v)
        for i in range(ens.m):
            d2 = second_dir_deriv_fi(ens.vectors[i], z, z, v)
            assert abs(d2 - w1[i]) <= 1e-12 * max(1.0, abs(w1[i]))

    def test_bounded_by_twice_projection(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            ens = sample_sphere(n, 20, int(rng.integers(1 << 30)))
            z = sample_unit_vector(n, rng)
            v = unit(rng, n)
            w1 = second_dir_deriv_at_signal(ens, z, v)
            cap = 2.0 * np.abs(ens.vectors.conj() @ v) ** 2
            assert np.all(w1 >= 0.0)
            assert np.all(w1 <= cap * (1.0 + 1e-12))

    def test_matches_central_difference(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            a = unit(rng, 3)
            z = unit(rng, 3)
            while True:
                x = 1.2 * unit(rng, 3)
                v = unit(rng, 3)
                if abs(np.vdot(a, x)) < 0.1:
                    continue
                d2 = second_dir_deriv_fi(a, z, x, v)
                if abs(d2) >= 1e-3:
                    break
            t = 1e-4
            yv = abs(np.vdot(a, z))

            def fi(pt):
                return (yv - abs(np.vdot(a, pt))) ** 2

            fd2 = (fi(x + t * v) - 2.0 * fi(x) + fi(x - t * v)) / (t * t)
            assert abs(fd2 - d2) / abs(d2) <= 1e-3

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
        assert w.indices.tolist() == list(range(60))

    def test_vanishing_beta_empties_the_set(self):
        ens = sample_sphere(4, 60, 18)
        z = sample_unit_vector(4, 19)
        v = sample_unit_vector(4, 20)
        assert wedge(ens, z, v, 1e-300).indices.size == 0

    def test_monotone_in_beta(self):
        ens = sample_sphere(5, 200, 21)
        z = sample_unit_vector(5, 22)
        v = sample_unit_vector(5, 23)
        previous = set()
        for beta in (0.05, 0.2, 0.7, 1.0, 3.0, 10.0):
            current = set(wedge(ens, z, v, beta).indices.tolist())
            assert previous <= current
            previous = current

    def test_orthogonal_fraction_closed_form(self):
        for beta in (0.5, 1.0, 2.0):
            est = wedge_fraction_mc(beta, 200_000, derive_seed(24, int(beta * 10)))
            target = beta**2 / (1 + beta**2)
            assert abs(est - target) <= 0.005


class TestEstimateL:
    def test_report_consistency(self):
        ens = sample_sphere(2, 100, 25)
        z = sample_unit_vector(2, 26)
        params = RegularityParams(c0=1 / 80, alpha=20.0, net_or_samples=500, seed=27)
        rep = estimate_L(ens, z, params)
        assert rep.search_mode == "dense_net"
        assert abs(np.linalg.norm(rep.argmin_direction) - 1.0) <= 1e-12
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
        # term1 vanishes at v = i z while term2 does not, so a search that
        # sees that direction reports a negative value
        ens = sample_sphere(2, 200, 30)
        z = sample_unit_vector(2, 31)
        t1, t2, t3, br = regularity_terms(ens, z, 1j * z, 0.01, 5.0)
        assert t1 <= 1e-12
        assert t3 == 0.0
        assert br < 0.0
        rep = estimate_L(ens, z, RegularityParams(c0=0.01, alpha=5.0, net_or_samples=3000, seed=32))
        assert rep.L_estimate < 0.0

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
            assert rep.L_estimate <= previous + 1e-12
            previous = rep.L_estimate

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
        for n in (4, 16):
            est = span_projection_mass_mc(n, 150_000, derive_seed(38, n))
            assert est >= 0.74

    def test_plane_curvature_closed_form(self):
        for k, (theta, target) in enumerate(((0.0, 0.5), (np.pi / 4, 0.375), (np.pi / 2, 0.25))):
            est = plane_curvature_expectation_mc(theta, 150_000, derive_seed(39, k))
            assert abs(est - target) <= 0.01

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
