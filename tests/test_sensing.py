import numpy as np
import pytest

from kaczmarz_pr import (
    measure,
    sample_block_unitary,
    sample_sphere,
    sample_unit_vector,
)
from kaczmarz_pr.sensing import objective_f, row_products


class TestSphereSampler:
    def test_unit_norms_and_shape(self):
        ens = sample_sphere(3, 5, 123)
        assert ens.vectors.shape == (5, 3)
        assert np.abs(np.linalg.norm(ens.vectors, axis=1) - 1.0).max() <= 1e-12

    def test_deterministic(self):
        a = sample_sphere(4, 100, 7)
        b = sample_sphere(4, 100, 7)
        assert np.array_equal(a.vectors, b.vectors)
        assert not np.array_equal(a.vectors, sample_sphere(4, 100, 8).vectors)

    def test_entry_symmetry(self):
        # uniform sphere measure in C^2 puts mean 1/2 on each |entry|^2
        ens = sample_sphere(2, 1_000_000, 11)
        mean_sq = float(np.mean(np.abs(ens.vectors[:, 0]) ** 2))
        assert abs(mean_sq - 0.5) <= 0.005

    def test_mean_square_projection(self):
        n, m = 8, 100_000
        ens = sample_sphere(n, m, 13)
        w = sample_unit_vector(n, 14)
        mean_sq = float(np.mean(np.abs(ens.vectors.conj() @ w) ** 2))
        assert abs(mean_sq - 1.0 / n) <= 0.05 / n

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            sample_sphere(0, 5, 0)
        with pytest.raises(ValueError):
            sample_sphere(5, 0, 0)


class TestBlockUnitarySampler:
    def test_blocks_are_unitary(self):
        n, K = 4, 3
        ens = sample_block_unitary(n, K, 21)
        assert ens.m == 12
        for k in range(K):
            block = ens.vectors[k * n : (k + 1) * n].T  # columns = sensing vectors
            dev = np.abs(block.conj().T @ block - np.eye(n)).max()
            assert dev <= 1e-12

    def test_one_dimensional_blocks(self):
        ens = sample_block_unitary(1, 2, 5)
        assert ens.m == 2
        assert np.abs(np.abs(ens.vectors[:, 0]) - 1.0).max() <= 1e-12

    def test_parseval_per_block(self):
        n, K = 6, 10
        ens = sample_block_unitary(n, K, 3)
        w = sample_unit_vector(n, 4) * 1.7
        t = np.abs(ens.vectors.conj() @ w) ** 2
        for k in range(K):
            assert abs(t[k * n : (k + 1) * n].sum() - np.linalg.norm(w) ** 2) <= 1e-10

    def test_block_average_projection(self):
        # per-block orthonormality forces the exact average 1/n
        n, K = 3, 10_000
        ens = sample_block_unitary(n, K, 9)
        w = sample_unit_vector(n, 10)
        mean_sq = float(np.mean(np.abs(ens.vectors.conj() @ w) ** 2))
        assert abs(mean_sq - 1.0 / 3.0) <= 0.01

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            sample_block_unitary(0, 2, 0)
        with pytest.raises(ValueError):
            sample_block_unitary(2, 0, 0)


class TestMeasure:
    def test_basis_case(self):
        from kaczmarz_pr import SensingEnsemble

        vecs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        ens = SensingEnsemble(vectors=vecs, model="custom", seed=0, n=2, m=2)
        y = measure(ens, np.array([1.0, 0.0], dtype=complex))
        assert y.values[0] == 1.0
        assert y.values[1] == 0.0

    def test_zero_signal(self):
        ens = sample_sphere(3, 7, 1)
        y = measure(ens, np.zeros(3, dtype=complex))
        assert np.all(y.values == 0.0)

    def test_global_phase_invariance(self):
        ens = sample_sphere(5, 40, 2)
        z = sample_unit_vector(5, 3)
        y1 = measure(ens, z)
        y2 = measure(ens, np.exp(1.234j) * z)
        assert np.abs(y1.values - y2.values).max() <= 1e-14

    def test_dimension_mismatch(self):
        ens = sample_sphere(3, 4, 0)
        with pytest.raises(ValueError):
            measure(ens, np.ones(2, dtype=complex))

    def test_reference_identifies_ensemble(self):
        ens = sample_sphere(3, 4, 5)
        y = measure(ens, sample_unit_vector(3, 6))
        assert y.ensemble_ref == ens.ident
        assert y.ensemble_ref != sample_sphere(3, 4, 7).ident


class TestRowMagnitudes:
    @pytest.mark.parametrize("n, m, seed", [(1, 5, 0), (7, 60, 1), (50, 2000, 2)])
    def test_measure_and_objective_keep_their_bits(self, n, m, seed):
        # |A conj(v)| skips row_products' outer conjugate; |conj(t)| = |t|
        # exactly, so both must equal the row_products expressions bitwise
        ens = sample_sphere(n, m, seed)
        z, x = sample_unit_vector(n, seed + 10), sample_unit_vector(n, seed + 20)
        y = measure(ens, z)
        np.testing.assert_array_equal(y.values, np.abs(row_products(ens, z)))
        r = np.abs(row_products(ens, x)) - y.values
        assert objective_f(ens, y, x) == float(np.mean(r * r))
