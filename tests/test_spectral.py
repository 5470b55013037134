import numpy as np
import pytest

from kaczmarz_pr import (
    MeasurementSet,
    SpectralConfig,
    dist_phase_aligned,
    measure,
    sample_sphere,
    sample_unit_vector,
    spectral_init,
    truncated_covariance,
)
from kaczmarz_pr.seeding import derive_seed


class TestTruncatedCovariance:
    def test_hermitian_psd(self):
        ens = sample_sphere(6, 300, 0)
        y = measure(ens, sample_unit_vector(6, 1))
        Y, lam0 = truncated_covariance(ens, y)
        assert np.abs(Y - Y.conj().T).max() <= 1e-12
        assert np.linalg.eigvalsh(Y).min() >= -1e-12
        assert lam0 > 0.0

    def test_truncation_drops_outlier_rows(self):
        ens = sample_sphere(4, 50, 2)
        y = measure(ens, sample_unit_vector(4, 3))
        vals = y.values.copy()
        vals[7] = 100.0  # way above 3 * lam0
        y_out = MeasurementSet(values=vals, ensemble_ref=ens.ident)
        Y, lam0 = truncated_covariance(ens, y_out)
        assert vals[7] > 3.0 * lam0
        mask = vals <= 3.0 * lam0
        aw = ens.vectors[mask]
        manual = (aw.T * vals[mask] ** 2) @ aw.conj() / ens.m
        assert np.abs(Y - manual).max() == 0.0

    def test_all_zero_measurements_rejected(self):
        ens = sample_sphere(3, 10, 4)
        y = measure(ens, np.zeros(3, dtype=complex))
        with pytest.raises(ValueError):
            truncated_covariance(ens, y)

    def test_empty_truncation_mask_rejected(self):
        # a multiplier below 1 can drop every row: with m = 1 the one
        # measurement is the RMS level itself, above 0.5 times it
        ens = sample_sphere(2, 1, 10)
        y = measure(ens, sample_unit_vector(2, 11))
        with pytest.raises(ValueError, match="truncation_multiplier 0.5"):
            truncated_covariance(ens, y, 0.5)


class TestSpectralInit:
    def test_one_dimensional_case(self):
        # unit-modulus rows make every y_i = |c|; output modulus is |c|
        ens = sample_sphere(1, 20, 5)
        c = 0.8 - 0.6j
        y = measure(ens, np.array([c]))
        x0 = spectral_init(ens, y, SpectralConfig(seed=6))
        assert abs(abs(x0[0]) - abs(c)) <= 1e-12

    def test_output_norm_is_scale_estimate(self):
        ens = sample_sphere(8, 400, 7)
        y = measure(ens, sample_unit_vector(8, 8))
        x0 = spectral_init(ens, y, SpectralConfig(seed=9))
        lam0 = float(np.sqrt(np.mean(y.values**2)))
        assert abs(np.linalg.norm(x0) - lam0) <= 1e-10

    def test_leading_eigenpair_residual(self):
        ens = sample_sphere(8, 400, 10)
        y = measure(ens, sample_unit_vector(8, 11))
        cfg = SpectralConfig(seed=12)
        x0 = spectral_init(ens, y, cfg)
        v = x0 / np.linalg.norm(x0)
        Y, _ = truncated_covariance(ens, y)
        mu = float(np.vdot(v, Y @ v).real)
        assert np.linalg.norm(Y @ v - mu * v) <= cfg.power_tol * mu

    def test_phase_normalization_is_deterministic(self):
        ens = sample_sphere(5, 200, 13)
        y = measure(ens, sample_unit_vector(5, 14))
        a = spectral_init(ens, y, SpectralConfig(seed=15))
        b = spectral_init(ens, y, SpectralConfig(seed=15))
        assert np.array_equal(a, b)
        j = int(np.argmax(np.abs(a)))
        assert a[j].imag <= 1e-12 * abs(a[j])
        assert a[j].real > 0.0

    def test_global_phase_equivariance(self):
        ens = sample_sphere(6, 300, 16)
        z = sample_unit_vector(6, 17)
        cfg = SpectralConfig(seed=18)
        a = spectral_init(ens, measure(ens, z), cfg)
        b = spectral_init(ens, measure(ens, np.exp(0.9j) * z), cfg)
        assert np.linalg.norm(a - b) <= 1e-10

    def test_scale_estimate_concentrates(self):
        # unit-sphere rows give E y^2 = ||z||^2 / n, so lam0 ~ 1/sqrt(n)
        n = 8
        ens = sample_sphere(n, 100_000, 19)
        y = measure(ens, sample_unit_vector(n, 20))
        lam0 = float(np.sqrt(np.mean(y.values**2)))
        assert abs(lam0 * np.sqrt(n) - 1.0) <= 0.02

    def test_initialization_quality(self):
        # The scaled output has norm lam0 ~ 1/sqrt(n) under unit-norm rows,
        # which keeps its aligned distance near 1 - 1/sqrt(n); the basin
        # check therefore uses the unit-normalized direction estimate.
        n, m = 16, 3200
        good = 0
        for s in range(20):
            ens = sample_sphere(n, m, derive_seed(100, n, s))
            z = sample_unit_vector(n, derive_seed(101, n, s))
            y = measure(ens, z)
            x0 = spectral_init(ens, y, SpectralConfig(seed=derive_seed(102, n, s)))
            scaled = dist_phase_aligned(x0, z).aligned
            expected_scaled = 1.0 - np.linalg.norm(x0)
            assert abs(scaled - expected_scaled) <= 0.1
            direction = x0 / np.linalg.norm(x0)
            good += dist_phase_aligned(direction, z).aligned <= 0.4
        assert good >= 19

    def test_mismatched_measurements_rejected(self):
        ens = sample_sphere(3, 12, 21)
        other = sample_sphere(3, 12, 22)
        y = measure(other, sample_unit_vector(3, 23))
        with pytest.raises(ValueError):
            spectral_init(ens, y, SpectralConfig(seed=24))
