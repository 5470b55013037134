import numpy as np
import pytest

from kaczmarz_pr import (
    MeasurementSet,
    SensingEnsemble,
    SpectralConfig,
    dist_phase_aligned,
    measure,
    sample_block_unitary,
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
        Y, lam0 = truncated_covariance(ens, MeasurementSet(values=vals, ensemble=ens))
        assert vals[7] > 3.0 * lam0
        # the dropped row takes no part, bit for bit: another vector in its
        # place leaves Y unchanged
        vectors = np.array(ens.vectors)
        vectors[7] = sample_unit_vector(4, 4)
        other = SensingEnsemble(vectors=vectors)
        assert np.array_equal(truncated_covariance(other, MeasurementSet(values=vals, ensemble=other))[0], Y)
        # Y is the Gram formula on the kept rows alone
        mask = vals <= 3.0 * lam0
        B = (ens.vectors[mask] * vals[mask][:, None]).view(float)
        G = B.T @ B
        manual = (G[0::2, 0::2] + G[1::2, 1::2] + 1j * (G[1::2, 0::2] - G[0::2, 1::2])) / ens.m
        assert np.array_equal(Y, manual)
        aw = ens.vectors[mask]
        assert np.abs(Y - (aw.T * vals[mask] ** 2) @ aw.conj() / ens.m).max() <= 1e-16

    @pytest.mark.parametrize("shape", [(1, 7), (5, 300), (16, 5000)])
    def test_exactly_hermitian(self, shape):
        n, m = shape
        for ens in (sample_sphere(n, m, 20), sample_block_unitary(n, max(1, m // n), 21)):
            Y, _ = truncated_covariance(ens, measure(ens, sample_unit_vector(n, 22)))
            assert np.array_equal(Y, Y.conj().T)

    @pytest.mark.parametrize("k", [-520, -530])
    def test_subnormal_rms_level_rejected(self, k):
        # lam0 < 2^-511 makes lam0^2, the scale of Y, subnormal
        ens = sample_sphere(8, 160, 5)
        y = measure(ens, 2.0**k * (np.linspace(0.1, 0.8, 8) + 0.3j))
        assert 0.0 < np.sqrt(np.mean(y.values**2)) < 2.0**-511
        with pytest.raises(ValueError, match=r"measurement RMS level \S+ is below 2\*\*-511"):
            truncated_covariance(ens, y)

    @pytest.mark.parametrize("scale", [2.0**510, 1e300], ids=["2^510", "1e300"])
    def test_rms_level_near_overflow_rejected(self, scale):
        # lam0 >= 2^511 / sqrt(max(m, n)) puts m lam0^2, the scale of the
        # sums of squares over the rows, within a factor 4 of overflow
        ens = sample_sphere(8, 160, 5)
        z = np.linspace(0.1, 0.8, 8) + 0.3j
        y = measure(ens, scale * z)
        assert np.sqrt(np.mean(measure(ens, z).values ** 2)) * scale >= 2.0**511 / np.sqrt(160)
        with pytest.raises(ValueError, match=r"measurement RMS level \S+ is at least 2\*\*511/sqrt\(max\(m, n\)\) = \S+"):
            truncated_covariance(ens, y)

    @pytest.mark.parametrize("k", [-500, -43, 0, 60, 507])
    def test_rms_level_has_the_bits_of_the_unscaled_mean(self, k):
        # the mean square is formed from y scaled by a power of two, which is
        # exact wherever every y_i^2 is a normal float
        ens = sample_sphere(8, 160, 5)
        y = measure(ens, 2.0**k * (np.linspace(0.1, 0.8, 8) + 0.3j))
        assert truncated_covariance(ens, y)[1] == float(np.sqrt(np.mean(y.values * y.values)))

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
        assert abs(np.linalg.norm(x0) - np.sqrt(8) * lam0) <= 1e-10

    def test_unitary_output_norm_is_signal_norm(self):
        # Parseval in each block makes n mean y^2 = ||z||^2 exactly
        ens = sample_block_unitary(6, 8, 26)
        z = 2.5 * sample_unit_vector(6, 27)
        x0 = spectral_init(ens, measure(ens, z), SpectralConfig(seed=28))
        assert abs(np.linalg.norm(x0) / 2.5 - 1.0) <= 1e-12

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
        # unit-sphere rows give E y^2 = ||z||^2 / n, so ||x0|| ~ ||z||
        n = 8
        ens = sample_sphere(n, 100_000, 19)
        z = sample_unit_vector(n, 20)
        x0 = spectral_init(ens, measure(ens, z), SpectralConfig(seed=21))
        assert abs(np.linalg.norm(x0) / np.linalg.norm(z) - 1.0) <= 0.02

    def test_initialization_quality(self):
        # the output estimates z itself, scale included, so the basin check
        # is on x0 as the solver receives it
        n, m = 16, 3200
        good = 0
        for s in range(20):
            ens = sample_sphere(n, m, derive_seed(100, n, s))
            z = sample_unit_vector(n, derive_seed(101, n, s))
            y = measure(ens, z)
            x0 = spectral_init(ens, y, SpectralConfig(seed=derive_seed(102, n, s)))
            assert abs(np.linalg.norm(x0) - 1.0) <= 0.05
            good += dist_phase_aligned(x0, z).aligned <= 0.4
        assert good >= 19

    def test_zero_truncated_covariance_rejected_at_once(self):
        # the one row kept at multiplier 0.5 measures 0, so Y = 0 and has no
        # leading eigenvector: no start of the power iteration can help
        vecs = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        ens = SensingEnsemble(vectors=vecs)
        y = measure(ens, np.array([1.0, 0.0], dtype=complex))
        Y, _ = truncated_covariance(ens, y, 0.5)
        assert not Y.any()
        cfg = SpectralConfig(truncation_multiplier=0.5, seed=25)
        with pytest.raises(ValueError, match="truncated covariance is zero"):
            spectral_init(ens, y, cfg)

    def test_power_iteration_stops_at_its_budget(self):
        ens = sample_sphere(8, 160, 26)
        y = measure(ens, sample_unit_vector(8, 27))
        cfg = SpectralConfig(power_iters_max=1, seed=28)
        with pytest.raises(RuntimeError) as info:
            spectral_init(ens, y, cfg)
        assert str(info.value) == "power iteration did not reach tol 1e-08 within 1 iterations"

    def test_mismatched_measurements_rejected(self):
        ens = sample_sphere(3, 12, 21)
        other = sample_sphere(3, 12, 22)
        y = measure(other, sample_unit_vector(3, 23))
        with pytest.raises(ValueError):
            spectral_init(ens, y, SpectralConfig(seed=24))


@pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), np.int64(-3), "4"])
def test_spectral_config_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="seed"):
        SpectralConfig(seed=seed)
    for ok in (0, 7, np.int64(5), np.uint32(3)):
        assert SpectralConfig(seed=ok).seed == ok

