import re
import threading
import tracemalloc
from contextlib import closing

import numpy as np
import pytest

from kaczmarz_pr import (
    MeasurementSet,
    SensingEnsemble,
    measure,
    sample_block_unitary,
    sample_sphere,
    sample_unit_vector,
    sensing,
)
from kaczmarz_pr.sensing import _BLOCK_BYTES, objective_f, objective_rows, row_products


class TestNormalFill:
    def test_block_fill_has_the_bits_of_one_shot_draws(self):
        # n = 16, m = 5000: the 1024-row blocks of _block_rows(16) split the
        # real and the imaginary draw into 5 draws each, the last one short
        n, m = 16, 5000
        g = np.empty((m, n), dtype=complex)
        sensing._fill_normal(np.random.default_rng(4), g, m, np.empty((sensing._block_rows(n), n)))
        rng = np.random.default_rng(4)
        assert g.real.tobytes() == rng.standard_normal((m, n)).tobytes()
        assert g.imag.tobytes() == rng.standard_normal((m, n)).tobytes()

    def test_segments_have_the_bits_of_ginibre_draws(self):
        # unitary segments of n = 200 rows, each drawn in 81-row blocks
        n, K = 200, 3
        g = np.empty((K * n, n), dtype=complex)
        sensing._fill_normal(np.random.default_rng(5), g, n, np.empty((sensing._block_rows(n), n)))
        rng = np.random.default_rng(5)
        want = np.vstack([sensing._complex_normal(rng, (n, n)) for _ in range(K)])
        assert g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model", ["sphere", "unitary"])
    def test_draw_ahead_fills_planned_ensembles_off_thread_with_their_bits(self, monkeypatch, model):
        n, m = 16, 3200
        sample = sample_sphere if model == "sphere" else lambda n, m, s: sample_block_unitary(n, m // n, s)
        want = {s: sample(n, m, s).vectors.tobytes() for s in (5, 6, 7)}
        fill, threads = sensing._fill_normal, {}

        def traced_fill(rng, g, segment, buf):
            threads.setdefault(threading.get_ident(), []).append(len(g))
            fill(rng, g, segment, buf)

        monkeypatch.setattr(sensing, "_fill_normal", traced_fill)
        with closing(sensing.draw_ahead(model, n, m, [5, 6, 7])) as fills:
            got = {s: sensing._sample(model, n, m, s, g).vectors.tobytes() for s, g in fills}
        assert got == want
        # 5, 6 and 7 were drawn ahead, all on one drawer thread
        assert threading.get_ident() not in threads
        assert list(threads.values()) == [[m, m, m]]

    def test_draw_ahead_leaves_a_refused_fill_to_sample(self):
        # numpy refuses a (2^62, 4) complex array: the drawer yields no fill,
        # and _sample's own allocation raises numpy's error in the trial
        with closing(sensing.draw_ahead("sphere", 4, 2**62, [5, 6])) as fills:
            assert list(fills) == [(5, None), (6, None)]
        with pytest.raises(ValueError, match="array is too big"):
            sensing._sample("sphere", 4, 2**62, 5, None)


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

    @pytest.mark.parametrize("n", [1, 2, 16, 50])
    def test_bytes_of_the_two_block_formula(self, n):
        # the normal blocks go straight into one complex array and are
        # scaled by the reciprocal norm, a block of rows at a time (3000
        # rows span 3 blocks at n=16 and 10 at n=50); the bytes are those of
        # re + 1j*im divided by its row norms
        for seed in range(3):
            rng = np.random.default_rng(seed)
            re, im = rng.standard_normal((3000, n)), rng.standard_normal((3000, n))
            g = re + 1j * im
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            assert sample_sphere(n, 3000, seed).vectors.tobytes() == g.tobytes()

    def test_norm_temporaries_stay_in_blocks(self):
        # the draw holds the rows and one 128 KiB real buffer of normals
        # (a one-shot real draw held 1.5 times the rows' bytes); norms of
        # the whole array added two (m, n) more
        tracemalloc.start()
        try:
            ens = sample_sphere(16, 50_000, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * ens.vectors.nbytes

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            sample_sphere(0, 5, 0)
        with pytest.raises(ValueError):
            sample_sphere(5, 0, 0)

    @pytest.mark.parametrize("n, m, name", [(4, 40.5, "m"), (4.0, 40, "n"), (True, 40, "n"), (4, np.float64(40.0), "m")])
    def test_sizes_that_are_not_integers_are_refused(self, n, m, name):
        # a float or a bool would end in numpy's TypeError, or run as 1
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sample_sphere(n, m, 1)
        assert sample_sphere(np.int64(4), np.int32(40), 1).vectors.shape == (40, 4)


class TestUnitVector:
    @pytest.mark.parametrize(
        "n, message", [(4.0, "n must be an integer"), (True, "n must be an integer"), (0, "n must be >= 1")]
    )
    def test_invalid_dimensions(self, n, message):
        # a float ended in numpy's TypeError, and n = 0 gave an empty array
        with pytest.raises(ValueError, match=message):
            sample_unit_vector(n, 1)
        assert sample_unit_vector(np.int64(3), 1).shape == (3,)


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

    @pytest.mark.parametrize("n, K, name", [(4, 2.5, "K"), (4.0, 2, "n"), (4, True, "K")])
    def test_sizes_that_are_not_integers_are_refused(self, n, K, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sample_block_unitary(n, K, 1)


@pytest.mark.parametrize(
    "seed, message",
    [(2.7, "must be an integer"), (True, "must be an integer"), ("3", "must be an integer"), (-1, "must be >= 0")],
    ids=["float", "bool", "string", "negative"],
)
@pytest.mark.parametrize(
    "sample",
    [lambda s: sample_sphere(4, 10, s), lambda s: sample_block_unitary(4, 2, s), lambda s: sample_unit_vector(4, s)],
    ids=["sphere", "unitary", "unit_vector"],
)
def test_samplers_refuse_a_seed_that_is_not_a_nonnegative_integer(sample, seed, message):
    # 2.7 ran as seed 2, a bool as 0 or 1, and "3" as 3
    with pytest.raises(ValueError, match=f"^seed {message}"):
        sample(seed)
    sample(np.int64(3))


class TestOutsideArrays:
    """An ensemble or a measurement set built from the caller's arrays is
    checked once, when it is built, and keeps a read-only copy."""

    @pytest.mark.parametrize(
        "case, message",
        [
            ("nan", "sensing vector 3 has squared norm nan"),
            ("inf", "sensing vector 3 has squared norm inf"),
            ("zero", "sensing vector 3 has squared norm 0.0"),
            ("1e200", "sensing vector 3 has squared norm inf"),
            ("1e-200", "sensing vector 3 has squared norm 0.0"),
            ("1-D", r"nonempty \(m, n\) array, got shape \(4,\)"),
            ("empty", r"nonempty \(m, n\) array, got shape \(0, 4\)"),
        ],
    )
    def test_ensemble_refuses_a_bad_row(self, case, message):
        # the first bad row is named: row 7 is zero in every row case
        vectors = np.array(sample_sphere(4, 40, 1).vectors)
        if case == "1-D":
            vectors = vectors[0]
        elif case == "empty":
            vectors = vectors[:0]
        else:
            vectors[7] = 0.0
            if case in ("nan", "inf"):
                vectors[3, 1] = float(case)
            else:
                vectors[3] *= {"zero": 0.0, "1e200": 1e200, "1e-200": 1e-200}[case]
        with pytest.raises(ValueError, match=message):
            SensingEnsemble(vectors=vectors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-300])
    def test_measurements_must_be_finite_and_nonnegative(self, bad):
        ens = sample_sphere(4, 40, 1)
        values = measure(ens, sample_unit_vector(4, 2)).values.copy()
        values[[5, 9]] = bad
        with pytest.raises(ValueError, match=re.escape(f"measurement 5 is {bad}")):
            MeasurementSet(values=values, ensemble=ens)
        with pytest.raises(ValueError, match="measurements must be real"):
            MeasurementSet(values=values + 0j, ensemble=ens)

    def test_the_callers_arrays_are_copied(self):
        vectors = np.array(sample_sphere(4, 40, 1).vectors)
        ens = SensingEnsemble(vectors=vectors)
        values = measure(ens, sample_unit_vector(4, 2)).values.copy()
        y = MeasurementSet(values=values, ensemble=ens)
        rows, magnitudes = ens.vectors.copy(), y.values.copy()
        vectors[3] = 0.0
        values[5] = -1.0
        assert np.array_equal(ens.vectors, rows) and np.array_equal(y.values, magnitudes)
        assert not ens.vectors.flags.writeable and not y.values.flags.writeable
        assert SensingEnsemble(vectors=[[1, 0], [0, 1]]).vectors.dtype == complex


class TestMeasure:
    def test_basis_case(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        ens = SensingEnsemble(vectors=vecs)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf * 1j])
    def test_signal_must_be_finite(self, bad):
        # NaN magnitudes would reach spectral_init as a misleading
        # truncation error
        ens = sample_sphere(3, 4, 0)
        with pytest.raises(ValueError, match="z must have finite entries"):
            measure(ens, np.array([1.0, bad, 0.0]))

    def test_reference_identifies_ensemble(self):
        ens = sample_sphere(3, 4, 5)
        y = measure(ens, sample_unit_vector(3, 6))
        assert y.ensemble is ens
        assert (ens.m, ens.n) == ens.vectors.shape
        with pytest.raises(ValueError, match="does not belong"):
            y.of(sample_sphere(3, 4, 7))

    def test_equality_and_hash_are_identity(self):
        # membership is identity (``MeasurementSet.of``), so == and hash
        # agree with it rather than comparing the arrays
        ens, twin = sample_sphere(3, 4, 0), sample_sphere(3, 4, 0)
        z = sample_unit_vector(3, 1)
        y, y_twin = measure(ens, z), measure(twin, z)
        assert ens == ens and ens != twin
        assert y == y and y != y_twin
        assert len({ens, twin, ens}) == 2 and len({y, y_twin, y}) == 2


class TestBitsOfRowProducts:
    @pytest.mark.parametrize("n, m, seed", [(1, 5, 0), (7, 60, 1), (50, 2000, 2)])
    def test_measure_and_objective_keep_their_bits(self, n, m, seed):
        # measure is |row_products|; objective_rows takes |A conj(X)^T|,
        # without row_products' outer conjugate, and |conj(t)| = |t|
        # exactly, so both equal the row_products expressions bitwise
        ens = sample_sphere(n, m, seed)
        z, x = sample_unit_vector(n, seed + 10), sample_unit_vector(n, seed + 20)
        y = measure(ens, z)
        np.testing.assert_array_equal(y.values, np.abs(row_products(ens, z)))
        r = np.abs(row_products(ens, x)) - y.values
        assert objective_f(ens, y, x) == float(np.mean(r * r))


def assert_within_rounding(rows, f, values):
    """|row value - f| <= 4 eps sqrt(f) rms(y), the rounding a GEMM owes
    near the signal (see ``objective_rows``); the largest ratio to
    eps sqrt(f) rms(y) measured was 0.82."""
    bound = 4 * np.finfo(float).eps * np.sqrt(f) * np.sqrt(np.mean(values**2))
    assert np.all(np.abs(rows - f) <= bound)


class TestObjectiveRows:
    @pytest.mark.parametrize("m", [2000, 50_000])
    def test_one_row_is_objective_f(self, m):
        # 16 m bytes below and above _BLOCK_BYTES: one row is one chunk
        # either way, so objective_f's bits are those of this one row
        assert 16 * 2000 < _BLOCK_BYTES < 16 * 50_000
        ens = sample_sphere(16, m, 31)
        z = sample_unit_vector(16, 32)
        y = measure(ens, z)
        for t in range(4):
            x = z + 10.0 ** (-5 * t) * sample_unit_vector(16, 33 + t)
            assert objective_f(ens, y, x) == objective_rows(ens, y, x[None])[0]

    @pytest.mark.parametrize(
        "shape", [("sphere", 12, 150), ("unitary", 12, 144), ("sphere", 16, 50_000)]
    )
    @pytest.mark.parametrize("h", [1, 7, 200])
    def test_rows_match_objective_f(self, shape, h):
        # iterates at distances 1e-16 to 0.5 from the signal's phase orbit;
        # at h = 200 and m = 50,000 the ensemble is streamed in 250-row chunks
        model, n, m = shape
        ens = sample_sphere(n, m, 41) if model == "sphere" else sample_block_unitary(n, m // n, 41)
        z = sample_unit_vector(n, 42)
        y = measure(ens, z)
        rng = np.random.default_rng(43)
        X = np.array([
            z * np.exp(1j * rng.uniform(0, 2 * np.pi)) + d * sample_unit_vector(n, rng)
            for d in 10.0 ** rng.uniform(-16, np.log10(0.5), h)
        ])
        f = np.array([objective_f(ens, y, x) for x in X])
        rows = objective_rows(ens, y, X)
        assert rows.shape == (h,)
        assert_within_rounding(rows, f, y.values)
        if h == 1:
            assert rows[0] == f[0]

    def test_shape_must_match_ensemble(self):
        ens = sample_sphere(3, 10, 0)
        y = measure(ens, sample_unit_vector(3, 1))
        assert objective_rows(ens, y, np.zeros((0, 3))).shape == (0,)
        for X in (np.zeros(3), np.zeros((2, 4))):
            with pytest.raises(ValueError, match="not \\(rows, n=3\\)"):
                objective_rows(ens, y, X)
