import tracemalloc

import numpy as np
import pytest

from kaczmarz_pr import dist_phase_aligned, inner, phase_diff_bound_check, sample_unit_vector
from kaczmarz_pr.core import aligned2_rows
from kaczmarz_pr.verify import check_aligned_distance, check_phase_diff_bound, check_projection_mass


def e(k, n):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


def grid_aligned(x, z, points):
    # independent oracle: direct minimization over a phase grid
    thetas = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    diffs = x[None, :] - np.exp(1j * thetas)[:, None] * z[None, :]
    return float(np.sqrt((np.abs(diffs) ** 2).sum(axis=1)).min())


class TestInner:
    def test_identity_cases(self):
        n = 3
        assert inner(e(0, n), e(0, n)) == 1.0 + 0.0j
        assert inner(e(0, n), e(1, n)) == 0.0 + 0.0j
        assert inner(1j * e(0, n), e(0, n)) == -1j  # conjugation of first argument

    def test_conjugate_symmetry_and_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            a = sample_unit_vector(n, rng) * rng.uniform(0.5, 2.0)
            b = sample_unit_vector(n, rng)
            assert abs(inner(a, b) - np.conj(inner(b, a))) <= 1e-12
            ip = inner(a, a)
            assert abs(ip.real - np.linalg.norm(a) ** 2) <= 1e-12
            assert abs(ip.imag) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner(np.ones(2, dtype=complex), np.ones(3, dtype=complex))


class TestPhaseAlignedDistance:
    def test_equal_vectors(self):
        z = sample_unit_vector(5, 1)
        d = dist_phase_aligned(z, z)
        assert d.raw == 0.0
        assert d.aligned == 0.0

    def test_pure_phase_rotation(self):
        z = sample_unit_vector(4, 2)
        x = np.exp(1j * np.pi / 3) * z
        d = dist_phase_aligned(x, z)
        assert d.aligned <= 1e-12
        assert abs(d.raw - abs(1 - np.exp(1j * np.pi / 3))) <= 1e-12  # = 1

    def test_matches_phase_grid(self):
        rng = np.random.default_rng(3)
        x = sample_unit_vector(4, rng) * 1.3
        z = sample_unit_vector(4, rng)
        d = dist_phase_aligned(x, z)
        assert abs(d.aligned - grid_aligned(x, z, 1_000_000)) <= 1e-8

    def test_closed_form_fine_grid(self):
        rng = np.random.default_rng(4)
        x = sample_unit_vector(6, rng) * 0.9
        z = sample_unit_vector(6, rng)
        d = dist_phase_aligned(x, z)
        closed = np.sqrt(np.linalg.norm(x) ** 2 + np.linalg.norm(z) ** 2 - 2 * abs(inner(x, z)))
        assert abs(d.aligned - closed) <= 1e-12
        assert abs(d.aligned - grid_aligned(x, z, 10_000_000)) <= 1e-10

    def test_phase_invariance_and_ordering(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            x = sample_unit_vector(n, rng) * rng.uniform(0.5, 1.5)
            z = sample_unit_vector(n, rng)
            d = dist_phase_aligned(x, z)
            rotated = dist_phase_aligned(np.exp(1j * rng.uniform(0, 2 * np.pi)) * x, z)
            assert abs(rotated.aligned - d.aligned) <= 1e-10
            assert d.aligned <= d.raw + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dist_phase_aligned(np.ones(2, dtype=complex), np.ones(3, dtype=complex))

    def test_rows_match_one_row_and_vector_forms_bit_for_bit(self):
        # solve stops on the rows of a block: each row's value must be the
        # one it has alone and the one dist_phase_aligned gives, at every n
        # (n = 1 too) and block size, and where z^* x = 0 exactly
        rng = np.random.default_rng(7)
        for n in [1, 1, 2, 3] + rng.integers(1, 81, 56).tolist():
            rows = int(rng.integers(1, 301))
            z = sample_unit_vector(n, rng)
            z[1:] *= rng.random(n - 1) < 0.7
            X = z * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (rows, 1)))
            X += 10.0 ** rng.uniform(-17.0, 1.0, (rows, 1)) * (
                rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
            )
            X[rng.random(rows) < 0.1] *= z == 0  # z^* x = 0 exactly, x = 0 at n = 1
            values = aligned2_rows(X, z)
            for j, x in enumerate(X):
                assert values[j] == aligned2_rows(X[j : j + 1], z)[0]
                assert np.sqrt(values[j]) == dist_phase_aligned(x, z).aligned


class TestPhaseDiffBound:
    def test_trivial_cases(self):
        assert phase_diff_bound_check(1.0 + 0j, 1.0 + 0j)
        assert phase_diff_bound_check(-1.0 + 0j, 1.0 + 0j)  # bound tight at 2

    def test_million_random_pairs(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)
        z = rng.standard_normal(1_000_000) + 1j * rng.standard_normal(1_000_000)
        assert bool(np.all(phase_diff_bound_check(x, z)))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            phase_diff_bound_check(0.0 + 0j, 1.0 + 0j)
        with pytest.raises(ValueError):
            phase_diff_bound_check(1.0 + 0j, 0.0 + 0j)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestVerifyOracleMemory:
    def test_phase_diff_bound_streams_its_draws(self):
        # whole x and z arrays would take about 76 B per trial, 229 MB here
        result, peak = _traced_peak(lambda: check_phase_diff_bound((7, 103), 3_000_000))
        assert result.passed and result.detail == "0 violations in 3000000"
        assert peak < 32e6

    def test_aligned_distance_grid_is_summed_by_entry(self):
        # a (1e6, n) complex grid would take 16n MB for each of its temporaries
        result, peak = _traced_peak(lambda: check_aligned_distance((7, 102)))
        assert result.passed and result.detail == "worst dev 1.86e-12"
        assert peak < 100e6

    def test_projection_mass_normalizes_rows_in_blocks(self):
        # norms of the whole n=64 draw added two real blocks of half its
        # 20.5 MB (42 MB peak)
        result, peak = _traced_peak(lambda: check_projection_mass((7, 115), 20_000))
        assert result.passed and result.detail == "min estimate 0.8141"
        assert peak < 39e6

    def test_projection_mass_draws_in_blocks_of_bytes(self):
        # blocks of 100000 rows held 102 MB of n=64 draws (181 MB peak);
        # blocks of sensing._block_rows(64) rows hold 256 KiB
        result, peak = _traced_peak(lambda: check_projection_mass((7, 115), 100_000))
        assert result.passed and result.detail == "min estimate 0.8156"
        assert peak < 8e6
