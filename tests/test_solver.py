import math

import numpy as np
import pytest

from kaczmarz_pr import (
    SensingEnsemble,
    SolverConfig,
    SolverState,
    SpectralConfig,
    dist_phase_aligned,
    measure,
    sample_block_unitary,
    sample_sphere,
    sample_unit_vector,
    solve,
    spectral_init,
    step,
)
from kaczmarz_pr import solver
from kaczmarz_pr.harness import ExperimentConfig, run_experiment
from kaczmarz_pr.regularity import dir_deriv_f
from kaczmarz_pr.sensing import objective_f
from kaczmarz_pr.solver import project_magnitude
from kaczmarz_pr.verify import check_contraction_identity


def phase_grid_oracle(x, a, y, points=1_000_000):
    """Nearest point on {w : |a^* w| = y} by scanning the offset phase:
    w(t) = x + (y e^{it} - a^* x) a / ||a||^2."""
    thetas = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    s = np.vdot(a, x)
    na2 = np.vdot(a, a).real
    d2 = y * y + abs(s) ** 2 - 2.0 * y * (np.cos(thetas) * s.real + np.sin(thetas) * s.imag)
    j = int(np.argmin(d2))
    w = x + ((y * np.exp(1j * thetas[j]) - s) / na2) * a
    return w, float(np.sqrt(max(d2[j], 0.0) / na2))


class TestProjectMagnitude:
    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        x, a = sample_unit_vector(4, rng), sample_unit_vector(4, rng)
        y = abs(np.vdot(a, x))
        assert np.array_equal(project_magnitude(x, a, y), x)

    def test_zero_target_is_hyperplane_projection(self):
        rng = np.random.default_rng(1)
        x, a = sample_unit_vector(5, rng) * 2.0, sample_unit_vector(5, rng) * 1.5
        w = project_magnitude(x, a, 0.0)
        expected = x - (np.vdot(a, x) / np.vdot(a, a).real) * a
        assert np.linalg.norm(w - expected) <= 1e-14
        assert abs(np.vdot(a, w)) <= 1e-14

    def test_matches_phase_grid_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = abs(rng.standard_normal())
            w = project_magnitude(x, a, y)
            w_oracle, d_oracle = phase_grid_oracle(x, a, y)
            assert abs(np.linalg.norm(w - x) - d_oracle) <= 1e-8
            # never farther from the nearest feasible point than x is
            assert np.linalg.norm(w - w_oracle) <= np.linalg.norm(x - w_oracle) + 1e-10

    def test_feasibility(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = abs(rng.standard_normal()) + 0.05
            w = project_magnitude(x, a, y)
            assert abs(abs(np.vdot(a, w)) - y) / y <= 1e-10

    def test_degenerate_inner_product_pins_phase(self):
        a = np.array([1.0, 0.0], dtype=complex)
        x = np.array([0.0, 2.0], dtype=complex)  # a^* x = 0 exactly
        w = project_magnitude(x, a, 0.7)
        assert w[0] == 0.7 + 0.0j  # offset phase fixed at 1
        assert w[1] == 2.0 + 0.0j

    def test_degenerate_branch_meets_constraint(self):
        # |a^* x| = 5e-15 is below tau but not zero: the step must remove
        # it, so that |a^* w| = y rather than |a^* x| + y
        a = np.array([1.0, 0.0], dtype=complex)
        x = np.array([5e-15, 2.0], dtype=complex)
        w = project_magnitude(x, a, 1e-14)
        assert abs(abs(np.vdot(a, w)) - 1e-14) <= 1e-12 * 1e-14
        assert w[1] == 2.0 + 0.0j

    def test_zero_sensing_vector_rejected(self):
        with pytest.raises(ValueError):
            project_magnitude(np.ones(2, dtype=complex), np.zeros(2, dtype=complex), 1.0)


class TestStep:
    def test_solution_is_fixed(self):
        # y_i and |a_i^* z| agree to rounding only (matrix product vs vdot),
        # so "unchanged" holds at float precision rather than bitwise
        ens = sample_sphere(4, 30, 10)
        z = sample_unit_vector(4, 11)
        y = measure(ens, z)
        cfg = SolverConfig(max_iters=50, tol_residual=0.0, seed=12)
        state = SolverState(x=np.array(z), rng=np.random.default_rng(12))
        for _ in range(50):
            step(state, ens, y, cfg)
        assert np.linalg.norm(state.x - z) <= 1e-13
        assert state.k == 50

    def test_selected_constraint_satisfied(self):
        ens = sample_sphere(6, 40, 20)
        z = sample_unit_vector(6, 21)
        y = measure(ens, z)
        cfg = SolverConfig(max_iters=1, tol_residual=0.0, seed=0)
        state = SolverState(x=sample_unit_vector(6, 22), rng=np.random.default_rng(23))
        for _ in range(100):
            replay = np.random.default_rng()
            replay.bit_generator.state = state.rng.bit_generator.state
            i = int(replay.integers(ens.m))
            step(state, ens, y, cfg)
            assert abs(abs(np.vdot(ens.vectors[i], state.x)) - y.values[i]) / y.values[i] <= 1e-10

    def test_trajectory_deterministic(self):
        ens = sample_sphere(5, 25, 30)
        z = sample_unit_vector(5, 31)
        y = measure(ens, z)
        x0 = sample_unit_vector(5, 32)
        cfg = SolverConfig(max_iters=200, tol_aligned_rel=1e-13, seed=33)
        s1 = solve(ens, y, x0, cfg, z=z)
        s2 = solve(ens, y, x0, cfg, z=z)
        assert np.array_equal(s1.x, s2.x)
        assert s1.history == s2.history

    def test_rows_are_drawn_uniformly_only(self):
        assert SolverConfig(max_iters=1, tol_residual=0.0).row_rule == "uniform"
        with pytest.raises(ValueError, match="uniform"):
            SolverConfig(max_iters=1, tol_residual=0.0, row_rule="inverse_norm")


class TestSolve:
    def test_start_at_solution_stops_immediately(self):
        ens = sample_sphere(4, 16, 50)
        z = sample_unit_vector(4, 51)
        y = measure(ens, z)
        cfg = SolverConfig(max_iters=100, tol_aligned_rel=1e-10, seed=52)
        state = solve(ens, y, z, cfg, z=z)
        assert state.k == 0
        assert state.history[0][2] == 0.0  # aligned error

    def test_single_row_blind_mode(self):
        ens = sample_sphere(3, 1, 60)
        z = sample_unit_vector(3, 61)
        y = measure(ens, z)
        cfg = SolverConfig(max_iters=50, tol_residual=1e-20, seed=62, history_stride=1)
        state = solve(ens, y, sample_unit_vector(3, 63), cfg, z=z)
        # a single constraint is met after one projection
        assert state.k == 1
        assert state.history[-1][3] <= 1e-20

    def test_requires_signal_in_aligned_mode(self):
        ens = sample_sphere(3, 9, 70)
        y = measure(ens, sample_unit_vector(3, 71))
        cfg = SolverConfig(max_iters=10, tol_aligned_rel=1e-8)
        with pytest.raises(ValueError):
            solve(ens, y, sample_unit_vector(3, 72), cfg)

    @pytest.mark.parametrize("aligned_mode", [True, False])
    def test_zero_row_rejected_like_step(self, aligned_mode):
        # the row-norm cache must refuse a zero row as project_magnitude does,
        # not divide by it and run on with NaNs
        vectors = np.array(sample_sphere(3, 4, 84).vectors)
        vectors[2] = 0.0
        ens = SensingEnsemble(vectors=vectors, model="custom", seed=0, n=3, m=4)
        z = sample_unit_vector(3, 85)
        y = measure(ens, z)
        x0 = sample_unit_vector(3, 86)
        if aligned_mode:
            cfg = SolverConfig(max_iters=200, tol_aligned_rel=1e-8, seed=87)
        else:
            cfg = SolverConfig(max_iters=200, tol_residual=1e-20, seed=87)
        with pytest.raises(ValueError, match="sensing vector must be nonzero"):
            solve(ens, y, x0, cfg, z=z if aligned_mode else None)
        with pytest.raises(ValueError, match="sensing vector must be nonzero"):
            state = SolverState(x=x0.copy(), rng=np.random.default_rng(87))
            for _ in range(200):
                step(state, ens, y, cfg)

    def test_measurements_must_match_ensemble(self):
        ens = sample_sphere(3, 9, 80)
        other = sample_sphere(3, 9, 81)
        y = measure(other, sample_unit_vector(3, 82))
        cfg = SolverConfig(max_iters=10, tol_residual=1e-8)
        with pytest.raises(ValueError):
            solve(ens, y, sample_unit_vector(3, 83), cfg)

    def test_exactly_one_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=10)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=10, tol_aligned_rel=1e-8, tol_residual=1e-8)

    def test_history_strictly_increasing(self):
        ens = sample_sphere(5, 50, 90)
        z = sample_unit_vector(5, 91)
        y = measure(ens, z)
        cfg = SolverConfig(max_iters=137, tol_aligned_rel=1e-14, seed=92)
        state = solve(ens, y, sample_unit_vector(5, 93), cfg, z=z)
        ks = [h[0] for h in state.history]
        assert ks == sorted(set(ks))
        assert ks[-1] == state.k

    def test_small_instance_converges_with_spectral_init(self):
        cfg = ExperimentConfig(n=20, model="sphere", m=400, num_trials=20, master_seed=11)
        records = run_experiment(cfg, workers=1)
        converged = sum(r.converged for r in records)
        assert converged >= 18
        assert max(r.iterations_run for r in records) <= 200 * 20


class TestStoppingRule:
    """solve stops on one test and samples every history_stride iterations
    and at the last one."""

    def instance(self):
        ens = sample_sphere(5, 60, 100)
        z = sample_unit_vector(5, 101)
        x0 = z + 0.3 * sample_unit_vector(5, 102)
        return ens, measure(ens, z), x0, z

    def test_aligned_mode_stops_at_first_iterate_within_tolerance(self):
        ens, y, x0, z = self.instance()
        cfg = SolverConfig(max_iters=5000, tol_aligned_rel=1e-6, seed=103, history_stride=7)
        state = solve(ens, y, x0, cfg, z=z)
        replay = SolverState(x=x0.copy(), rng=np.random.default_rng(103))
        while dist_phase_aligned(replay.x, z).aligned > 1e-6 * np.linalg.norm(z):
            step(replay, ens, y, cfg)
        assert 0 < state.k == replay.k < cfg.max_iters
        assert np.array_equal(state.x, replay.x)
        ks = [h[0] for h in state.history]
        assert ks == list(range(0, state.k, 7)) + [state.k]

    def test_residual_mode_stops_at_first_stride_sample_within_tolerance(self):
        ens, y, x0, _ = self.instance()
        cfg = SolverConfig(max_iters=5000, tol_residual=1e-12, seed=104, history_stride=7)
        state = solve(ens, y, x0, cfg)
        ks = [h[0] for h in state.history]
        residuals = [h[3] for h in state.history]
        assert 0 < state.k < cfg.max_iters
        assert ks == list(range(0, state.k + 1, 7))
        assert residuals[-1] <= 1e-12 and all(r > 1e-12 for r in residuals[:-1])
        assert residuals[-1] == objective_f(ens, y, state.x)

    def test_max_iters_cut_off_ends_with_a_sample(self):
        ens, y, x0, z = self.instance()
        cfg = SolverConfig(max_iters=30, tol_aligned_rel=1e-14, seed=105, history_stride=7)
        state = solve(ens, y, x0, cfg, z=z)
        assert [h[0] for h in state.history] == [0, 7, 14, 21, 28, 30]
        assert state.history[-1][2] == dist_phase_aligned(state.x, z).aligned


def exact_replay(ens, y, x0, cfg, z=None):
    """solve as a plain loop: ``step`` and, in aligned-error mode, the exact
    stopping test on every iteration; a history sample every stride and at
    the last iteration."""
    stride = cfg.history_stride if cfg.history_stride is not None else ens.n
    state = SolverState(x=np.array(x0, dtype=complex), rng=np.random.default_rng(cfg.seed))
    nz = float(np.linalg.norm(z)) if z is not None else math.nan

    def sample():
        d = dist_phase_aligned(state.x, z) if z is not None else None
        raw, aligned = (d.raw, d.aligned) if d is not None else (math.nan, math.nan)
        res = objective_f(ens, y, state.x)
        state.history.append((state.k, raw, aligned, res))
        return aligned, res

    aligned, res = sample()
    while not cfg.converged(aligned, res, nz) and state.k < cfg.max_iters:
        step(state, ens, y, cfg)
        if cfg.tol_aligned_rel is not None:
            aligned = dist_phase_aligned(state.x, z).aligned
        if state.k % stride == 0:
            aligned, res = sample()
    if state.history[-1][0] != state.k:
        sample()
    return state


class TestScreenedStoppingTest:
    """solve screens the aligned-error test in O(1) and draws its rows a
    stride at a time; neither may change k, x or the history."""

    def instance(self, model, seed, m=150):
        if model == "sphere":
            ens = sample_sphere(12, m, seed)
        else:
            ens = sample_block_unitary(12, 12, seed)
        z = sample_unit_vector(12, seed + 1)
        x0 = z * np.exp(0.7j) + 0.5 * sample_unit_vector(12, seed + 2)
        return ens, measure(ens, z), x0, z

    def assert_same_run(self, state, replay):
        assert state.k == replay.k
        assert np.array_equal(state.x, replay.x)
        np.testing.assert_array_equal(np.array(state.history), np.array(replay.history))

    @pytest.mark.parametrize("model", ["sphere", "unitary"])
    @pytest.mark.parametrize("stride", [1, 7, None])
    @pytest.mark.parametrize("tol", [1e-8, 1e-13, 1e-15, 1e-16])
    def test_aligned_mode_matches_exact_replay(self, model, stride, tol):
        # at 1e-13 the aligned error crosses the tolerance within a few
        # hundred ulps of ||z||, at 1e-15 within the screen's rounding term;
        # 1e-16 is below the rounding floor at n = 12, so those runs end at
        # max_iters, with the steps near the floor tested exactly
        floor = tol < 1e-15
        for seed in range(0, 50, 10):
            ens, y, x0, z = self.instance(model, 200 + seed)
            cfg = SolverConfig(
                max_iters=2500 if floor else 20_000, tol_aligned_rel=tol, seed=seed,
                history_stride=stride,
            )
            state = solve(ens, y, x0, cfg, z=z)
            if not floor:
                assert state.k < cfg.max_iters
            self.assert_same_run(state, exact_replay(ens, y, x0, cfg, z))

    @pytest.mark.parametrize("tol", [1e-14, 1e-15])
    def test_screen_margin_covers_the_rounding_bound(self, monkeypatch, tol):
        # a screen that reads every row high by the whole rounding bound of
        # tests/test_properties.py, (n + 3) eps (||x|| + ||z||), must still
        # send each step within the tolerance to the exact test
        screen = solver._aligned2_rows

        def high(X, z):
            bound = (X.shape[1] + 3) * np.finfo(float).eps * (
                np.linalg.norm(X, axis=1) + np.linalg.norm(z)
            )
            return (np.sqrt(screen(X, z)) + bound) ** 2

        monkeypatch.setattr(solver, "_aligned2_rows", high)
        for seed in range(0, 50, 10):
            ens, y, x0, z = self.instance("sphere", 200 + seed)
            cfg = SolverConfig(max_iters=20_000, tol_aligned_rel=tol, seed=seed, history_stride=7)
            state = solve(ens, y, x0, cfg, z=z)
            assert state.k < cfg.max_iters
            self.assert_same_run(state, exact_replay(ens, y, x0, cfg, z))

    def test_long_stride_matches_exact_replay(self):
        # a stride of 9000 at n = 4 puts thousands of steps in a block, and
        # the stop deep inside the first one: the screen of each step must
        # not depend on how far it is from the block's start
        for seed in range(6):
            ens, z = sample_sphere(4, 60, seed), sample_unit_vector(4, seed + 100)
            x0 = z * np.exp(0.3j) + 0.3 * sample_unit_vector(4, seed + 200)
            cfg = SolverConfig(
                max_iters=20_000, tol_aligned_rel=1e-13, seed=seed, history_stride=9000
            )
            y = measure(ens, z)
            state = solve(ens, y, x0, cfg, z=z)
            assert state.k < 9000
            self.assert_same_run(state, exact_replay(ens, y, x0, cfg, z))

    @pytest.mark.parametrize("rows_held", [1, 3])
    @pytest.mark.parametrize("stride", [7, None])
    @pytest.mark.parametrize("tol", [1e-8, 1e-13, 0.0])
    def test_split_blocks_match_exact_replay(self, monkeypatch, rows_held, stride, tol):
        # a byte budget of 1 or 3 iterates at n = 12 ends blocks inside a
        # stride of 7 or 12, where no sample follows and the screen also
        # tests the block's last step
        monkeypatch.setattr(solver, "_BLOCK_BYTES", rows_held * 16 * 12)
        for seed in range(3):
            ens, y, x0, z = self.instance("sphere", 500 + seed)
            cfg = SolverConfig(
                max_iters=2000, tol_aligned_rel=tol, seed=seed, history_stride=stride
            )
            state = solve(ens, y, x0, cfg, z=z)
            assert (state.k < cfg.max_iters) == (tol > 0.0)
            self.assert_same_run(state, exact_replay(ens, y, x0, cfg, z))

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("stride", [1, 7, None])
    @pytest.mark.parametrize("tol", [0.0, 0.45, 1e-8])
    def test_repeated_rows_match_exact_replay(self, m, stride, tol):
        # blocks of 7 or 12 steps over m <= 3 rows repeat rows, so most
        # norms come from the cache; m rows cannot pin down z, so the error
        # stays near 0.45 ||z||: tol 0 tests exactly on every step, 0.45
        # stops some runs mid-block and others at max_iters, and the screen
        # clears every step at 1e-8
        for seed in range(5):
            ens, y, x0, z = self.instance("sphere", 200 + seed, m=m)
            cfg = SolverConfig(
                max_iters=200, tol_aligned_rel=tol, seed=seed, history_stride=stride
            )
            state = solve(ens, y, x0, cfg, z=z)
            self.assert_same_run(state, exact_replay(ens, y, x0, cfg, z))

    @pytest.mark.parametrize("stride", [1, 7, None])
    def test_max_iters_cut_off_matches_exact_replay(self, stride):
        for seed in range(5):
            ens, y, x0, z = self.instance("sphere", 300 + seed)
            cfg = SolverConfig(
                max_iters=45, tol_aligned_rel=1e-13, seed=seed, history_stride=stride
            )
            state = solve(ens, y, x0, cfg, z=z)
            assert state.k == 45
            self.assert_same_run(state, exact_replay(ens, y, x0, cfg, z))

    @pytest.mark.parametrize("model", ["sphere", "unitary"])
    @pytest.mark.parametrize("stride", [1, 7, None])
    def test_residual_mode_matches_exact_replay(self, model, stride):
        for seed in range(5):
            ens, y, x0, z = self.instance(model, 400 + seed)
            signal = z if seed % 2 else None  # errors are recorded only with a signal
            cfg = SolverConfig(
                max_iters=20_000, tol_residual=1e-24, seed=seed, history_stride=stride
            )
            state = solve(ens, y, x0, cfg, z=signal)
            assert state.k < cfg.max_iters
            self.assert_same_run(state, exact_replay(ens, y, x0, cfg, signal))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_screen_value_goes_to_the_exact_test(self, monkeypatch, value):
        # a NaN row screens as NaN; the screen clears only finite values
        # above its limit, so with every value NaN or inf each step that no
        # sample tests is tested exactly, and the run is unchanged
        ens, y, x0, z = self.instance("sphere", 250)
        X = np.ones((3, 12), dtype=complex)
        X[1, 4] = math.nan
        assert np.isnan(solver._aligned2_rows(X, z)).tolist() == [False, True, False]
        cfg = SolverConfig(max_iters=20_000, tol_aligned_rel=1e-8, seed=5, history_stride=7)
        replay = exact_replay(ens, y, x0, cfg, z)
        calls = []

        def counted(x, signal):
            calls.append(1)
            return dist_phase_aligned(x, signal)

        monkeypatch.setattr(solver, "_aligned2_rows", lambda X, z: np.full(len(X), value))
        monkeypatch.setattr(solver, "dist_phase_aligned", counted)
        state = solve(ens, y, x0, cfg, z=z)
        self.assert_same_run(state, replay)
        assert len(calls) - len(state.history) == state.k - state.k // 7

    def test_block_row_draws_equal_scalar_draws(self):
        # solve's rows are rng.integers(m, size=...) blocks; step draws
        # rng.integers(m) one at a time: the two must give one sequence
        for m in (1, 7, 150, 2000, 50_000):
            blocks, scalars = np.random.default_rng(m), np.random.default_rng(m)
            sizes = (1, 50, 7, 300, 16)
            drawn = [i for size in sizes for i in blocks.integers(m, size=size).tolist()]
            assert drawn == [int(scalars.integers(m)) for _ in drawn]
            assert blocks.bit_generator.state == scalars.bit_generator.state

    def test_exact_distance_runs_on_few_iterations(self, monkeypatch):
        ens = sample_sphere(50, 2000, 500)
        z = sample_unit_vector(50, 501)
        y = measure(ens, z)
        x0 = spectral_init(ens, y, SpectralConfig(seed=502))
        cfg = SolverConfig(max_iters=200 * 50, tol_aligned_rel=1e-8, seed=503)
        replay = exact_replay(ens, y, x0, cfg, z)
        calls = []

        def counted(x, signal):
            calls.append(1)
            return dist_phase_aligned(x, signal)

        monkeypatch.setattr(solver, "dist_phase_aligned", counted)
        state = solve(ens, y, x0, cfg, z=z)
        assert state.k == replay.k < cfg.max_iters
        # one exact call per history sample; the screen makes the rest
        screened = len(calls) - len(state.history)
        assert 0 < screened < 0.05 * state.k


class TestContractionIdentity:
    def test_mean_squared_projection_identity(self):
        # exact algebra: (1/m) sum_i ||P_i x - z||^2
        #   = f(x) + f'_{z-x}(x) + ||x - z||^2, at n = 8, m = 64
        result = check_contraction_identity((7,), reps=20)
        assert result.passed, result.detail

    def test_post_step_error_matches_identity_in_expectation(self):
        # sanity: one-step expected squared error strictly below current
        ens = sample_sphere(6, 120, 2000)
        z = sample_unit_vector(6, 2001)
        y = measure(ens, z)
        rng = np.random.default_rng(2002)
        x = z + 0.2 * sample_unit_vector(6, rng)
        rhs = (
            objective_f(ens, y, x)
            + dir_deriv_f(ens, y, x, z - x)
            + np.linalg.norm(z - x) ** 2
        )
        assert rhs < np.linalg.norm(z - x) ** 2
