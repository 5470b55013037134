import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from kaczmarz_pr import (
    MeasurementSet,
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
    truncated_covariance,
)
from kaczmarz_pr import core, sensing, solver
from kaczmarz_pr.core import aligned2_rows
from kaczmarz_pr.harness import ExperimentConfig, run_experiment
from kaczmarz_pr.regularity import dir_deriv_f
from kaczmarz_pr.sensing import objective_f, objective_rows
from kaczmarz_pr.solver import _prepared, _steps, _steps_stacked, project_magnitude, solve_group
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
        # |a^* x| = 5e-15 is below tau y but not zero: the step must remove
        # it, so that |a^* w| = y rather than |a^* x| + y
        a = np.array([1.0, 0.0], dtype=complex)
        x = np.array([5e-15, 2.0], dtype=complex)
        w = project_magnitude(x, a, 1.0)
        assert abs(abs(np.vdot(a, w)) - 1.0) <= 1e-12 * 1.0
        assert w[1] == 2.0 + 0.0j

    def test_threshold_is_relative_to_y(self):
        # the same point and row, scaled together with y: the branch and the
        # projection scale with them, down to y = 0 and s = 0
        a = np.array([1.0, 0.0], dtype=complex)
        x = np.array([5e-15 + 1e-15j, 2.0], dtype=complex)
        w = project_magnitude(x, a, 1.0)
        for scale in (2.0**-900, 2.0**-60, 2.0**60):
            assert np.array_equal(project_magnitude(scale * x, a, scale * 1.0), scale * w)
        assert np.array_equal(project_magnitude(np.zeros(2, complex), a, 0.0), np.zeros(2))

    def test_zero_sensing_vector_rejected(self):
        with pytest.raises(ValueError):
            project_magnitude(np.ones(2, dtype=complex), np.zeros(2, dtype=complex), 1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            project_magnitude(np.ones(3, dtype=complex), np.ones(2, dtype=complex), 1.0)


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

    @pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), np.int64(-3), "4"])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        # -1 would fail only later, inside numpy; 1.5 would run as 1
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(max_iters=1, tol_residual=0.0, seed=seed)
        for ok in (0, 7, np.int64(5), np.uint32(3)):
            assert SolverConfig(max_iters=1, tol_residual=0.0, seed=ok).seed == ok

    @pytest.mark.parametrize("field, value", [("max_iters", 2.5), ("max_iters", "3"), ("history_stride", 2.5)])
    def test_rejects_counts_that_are_not_integers(self, field, value):
        # each would end in a numpy TypeError once the solve starts
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{"max_iters": 5, "tol_residual": 0.0, field: value})
        ok = SolverConfig(**{"max_iters": 5, "tol_residual": 0.0, field: np.int64(3)})
        assert getattr(ok, field) == 3


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

    @pytest.mark.parametrize("exact_zero", [True, False])
    def test_zero_row_rejected_like_step(self, exact_zero):
        # an ensemble refuses the rows that project_magnitude refuses, a
        # zero row and one whose ||a||^2 underflows to 0, so no step of
        # solve or step can divide by one
        vectors = np.array(sample_sphere(3, 4, 84).vectors)
        vectors[2] *= 0.0 if exact_zero else 1e-200
        with pytest.raises(ValueError, match="sensing vector 2 has squared norm 0.0"):
            SensingEnsemble(vectors=vectors)
        with pytest.raises(ValueError, match="sensing vector must be nonzero"):
            project_magnitude(sample_unit_vector(3, 86), vectors[2], 1.0)

    def test_measurement_count_and_start_must_match_ensemble(self):
        ens = sample_sphere(3, 9, 84)
        y = measure(ens, sample_unit_vector(3, 85))
        cfg = SolverConfig(max_iters=10, tol_residual=1e-8)
        with pytest.raises(ValueError, match="measurement count"):
            MeasurementSet(values=y.values[:-1], ensemble=ens)
        with pytest.raises(ValueError, match=r"x0 must have shape \(3,\), got \(4,\)"):
            solve(ens, y, sample_unit_vector(4, 86), cfg)
        # in either mode; a one-entry z would broadcast against a block's rows
        for run_cfg in (cfg, SolverConfig(max_iters=10, tol_aligned_rel=1e-8)):
            for z in (sample_unit_vector(1, 86), sample_unit_vector(4, 86)):
                with pytest.raises(ValueError, match=r"z must have shape \(3,\), got"):
                    solve(ens, y, sample_unit_vector(3, 87), run_cfg, z=z)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_start_and_signal_must_be_finite(self, bad):
        # a non-finite x0 or z raises, naming it, before any step; it would
        # otherwise run every iteration to a NaN history
        ens = sample_sphere(4, 40, 88)
        z = sample_unit_vector(4, 89)
        y = measure(ens, z)
        broken = z.copy()
        broken[2] = bad
        for cfg in (SolverConfig(max_iters=50, tol_residual=1e-8), SolverConfig(max_iters=50, tol_aligned_rel=1e-8)):
            with pytest.raises(ValueError, match="x0 must have finite entries"):
                solve(ens, y, broken, cfg, z=z)
            with pytest.raises(ValueError, match="z must have finite entries"):
                solve(ens, y, z, cfg, z=broken)
            with pytest.raises(ValueError, match="x0 must have finite entries"):
                solve_group([(ens, y, z, cfg, z), (ens, y, broken, cfg, z)])

    def test_measurements_must_match_ensemble(self):
        ens = sample_sphere(3, 9, 80)
        other = sample_sphere(3, 9, 81)
        y = measure(other, sample_unit_vector(3, 82))
        cfg = SolverConfig(max_iters=10, tol_residual=1e-8)
        with pytest.raises(ValueError):
            solve(ens, y, sample_unit_vector(3, 83), cfg)
        # two hand-built ensembles of one shape: every function of
        # (ensemble, y) refuses the other one's measurements
        first, second = (
            SensingEnsemble(vectors=np.array(sample_sphere(3, 30, s).vectors)) for s in (84, 85)
        )
        z, x = sample_unit_vector(3, 86), sample_unit_vector(3, 87)
        y = measure(first, z)
        calls = [
            lambda: solve(second, y, x, SolverConfig(max_iters=3000, tol_aligned_rel=1e-8), z=z),
            lambda: step(SolverState(x=x.copy(), rng=np.random.default_rng(0)), second, y, cfg),
            lambda: truncated_covariance(second, y),
            lambda: spectral_init(second, y, SpectralConfig()),
            lambda: objective_f(second, y, x),
            lambda: dir_deriv_f(second, y, x, z - x),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="does not belong"):
                call()

    def test_exactly_one_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=10)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=10, tol_aligned_rel=1e-8, tol_residual=1e-8)

    def test_config_is_frozen(self):
        # an assignment would get past the checks made when it was built
        cfg = SolverConfig(max_iters=10, tol_aligned_rel=1e-8)
        with pytest.raises(FrozenInstanceError):
            cfg.tol_residual = 1e-8

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
    the last iteration.  A residual-mode sample computes its residual with
    ``objective_f``.  In aligned-error mode the residual column is
    ``objective_rows`` over the sampled iterates, in groups of
    ``solver._block_rows(n)`` rows, as solve's pending buffer groups them: a
    residual's last bits depend on how many rows share its product."""
    stride = cfg.history_stride if cfg.history_stride is not None else ens.n
    state = SolverState(x=np.array(x0, dtype=complex), rng=np.random.default_rng(cfg.seed))
    nz = float(np.linalg.norm(z)) if z is not None else math.nan
    experiment = cfg.tol_aligned_rel is not None
    sampled = []

    def sample():
        d = dist_phase_aligned(state.x, z) if z is not None else None
        raw, aligned = (d.raw, d.aligned) if d is not None else (math.nan, math.nan)
        res = math.nan if experiment else objective_f(ens, y, state.x)
        state.history.append((state.k, raw, aligned, res))
        sampled.append(state.x)
        return aligned, res

    aligned, res = sample()
    while not cfg.converged(aligned, res, nz) and state.k < cfg.max_iters:
        step(state, ens, y, cfg)
        if experiment:
            aligned = dist_phase_aligned(state.x, z).aligned
        if state.k % stride == 0:
            aligned, res = sample()
    if state.history[-1][0] != state.k:
        sample()
    if experiment:
        group = solver._block_rows(ens.n)
        res = np.concatenate(
            [objective_rows(ens, y, sampled[i : i + group]) for i in range(0, len(sampled), group)]
        )
        state.history = [(*h[:3], float(r)) for h, r in zip(state.history, res)]
    return state


def iterates_at(ens, y, x0, cfg, ks):
    """The ``step`` iterates at the increasing iteration counts ks."""
    state = SolverState(x=np.array(x0, dtype=complex), rng=np.random.default_rng(cfg.seed))
    iterates = []
    for k in ks:
        while state.k < k:
            step(state, ens, y, cfg)
        iterates.append(state.x)
    return iterates


def assert_within_rounding(residuals, f, values):
    """|residual - f| <= 4 eps sqrt(f) rms(y).  A GEMM rounds |a_i^* x|
    apart from a GEMV by about eps y_i near the signal, which moves f by
    about 2 eps sqrt(f) rms(y) (Cauchy-Schwarz); the sum's rounding is
    smaller there.  The largest ratio to eps sqrt(f) rms(y) measured was
    0.82, on iterates within 0.5 ||z|| of the signal's phase orbit."""
    bound = 4 * np.finfo(float).eps * np.sqrt(f) * np.sqrt(np.mean(values**2))
    assert np.all(np.abs(np.asarray(residuals) - f) <= bound)


class TestScreenedStoppingTest:
    """solve tests the aligned error on a block's rows at once and draws
    its rows a block at a time; neither may change k, x or the history."""

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
        assert state.rng.bit_generator.state == replay.rng.bit_generator.state

    @pytest.mark.parametrize("model", ["sphere", "unitary"])
    @pytest.mark.parametrize("stride", [1, 7, None])
    @pytest.mark.parametrize("tol", [1e-8, 1e-13, 1e-15, 1e-16])
    def test_aligned_mode_matches_exact_replay(self, model, stride, tol):
        # at 1e-13 the aligned error crosses the tolerance within a few
        # hundred ulps of ||z||, at 1e-15 within a few ulps, where only the
        # one-row bits give the exact stop; 1e-16 is below the rounding
        # floor at n = 12, so those runs end at max_iters, with the steps
        # near the floor tested exactly
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

    def test_long_stride_matches_exact_replay(self):
        # a stride of 9000 at n = 4 puts thousands of steps in a block, and
        # the stop deep inside the first one: the test of each step must
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
        # blocks of 1 or 3 iterates at n = 12 end inside a stride of 7 or
        # 12, where no sample follows and the block's own values also test
        # its last step
        monkeypatch.setattr(solver, "_block_rows", lambda n: rows_held)
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
        # stops some runs mid-block and others at max_iters, and no step
        # passes at 1e-8
        for seed in range(5):
            ens, y, x0, z = self.instance("sphere", 200 + seed, m=m)
            cfg = SolverConfig(
                max_iters=200, tol_aligned_rel=tol, seed=seed, history_stride=stride
            )
            state = solve(ens, y, x0, cfg, z=z)
            self.assert_same_run(state, exact_replay(ens, y, x0, cfg, z))

    @pytest.mark.parametrize("stride", [1, 7, None])
    def test_max_iters_cut_off_matches_exact_replay(self, stride):
        # 45 steps ends a stride of 7 or 12 early, in aligned-error mode and
        # in residual mode with and without a signal
        modes = [({"tol_aligned_rel": 1e-13}, True), ({"tol_residual": 1e-24}, True),
                 ({"tol_residual": 1e-24}, False)]
        for seed in range(5):
            ens, y, x0, z = self.instance("sphere", 300 + seed)
            for tol, with_signal in modes:
                signal = z if with_signal else None
                cfg = SolverConfig(max_iters=45, seed=seed, history_stride=stride, **tol)
                state = solve(ens, y, x0, cfg, z=signal)
                assert state.k == 45
                self.assert_same_run(state, exact_replay(ens, y, x0, cfg, signal))

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
    def test_non_finite_error_never_stops_a_run(self, monkeypatch, value):
        # a NaN entry gives its row a NaN error, and neither NaN nor inf is
        # within a tolerance: with every block's errors replaced by one of
        # them, and every sample, k = 0 too, taking its error from
        # aligned2_rows, the run ends at max_iters, past the step where the
        # exact test stops it
        ens, y, x0, z = self.instance("sphere", 250)
        X = np.ones((3, 12), dtype=complex)
        X[1, 4] = math.nan
        assert np.isnan(aligned2_rows(X, z)).tolist() == [False, True, False]
        cfg = SolverConfig(max_iters=20_000, tol_aligned_rel=1e-8, seed=5, history_stride=7)
        assert not cfg.converged(np.array([math.nan, math.inf]), math.nan, 1.0).any()
        stepped = SolverState(x=np.array(x0, dtype=complex), rng=np.random.default_rng(cfg.seed))
        for _ in range(cfg.max_iters):
            step(stepped, ens, y, cfg)
        monkeypatch.setattr(solver, "aligned2_rows", lambda X, z: np.full(len(X), value))
        state = solve(ens, y, x0, cfg, z=z)
        assert exact_replay(ens, y, x0, cfg, z).k < state.k == cfg.max_iters
        assert np.array_equal(state.x, stepped.x)
        ks = [h[0] for h in state.history]
        assert ks == list(range(0, cfg.max_iters, 7)) + [cfg.max_iters]
        np.testing.assert_array_equal([h[2] for h in state.history], value)

    @pytest.mark.parametrize("model", ["sphere", "unitary"])
    @pytest.mark.parametrize("stride", [1, 7, None])
    @pytest.mark.parametrize("tol", [1e-8, 1e-15])
    def test_aligned_mode_residuals_match_objective_f(self, model, stride, tol):
        # an aligned-mode residual comes from one objective_rows call over a
        # group of samples; it must be objective_f of its own iterate up to
        # the GEMM's rounding, also at converged samples, where
        # |a_i^* x| - y_i cancels
        for seed in range(0, 50, 10):
            ens, y, x0, z = self.instance(model, 200 + seed)
            cfg = SolverConfig(
                max_iters=20_000, tol_aligned_rel=tol, seed=seed, history_stride=stride
            )
            state = solve(ens, y, x0, cfg, z=z)
            assert state.k < cfg.max_iters
            ks = [h[0] for h in state.history]
            f = np.array([objective_f(ens, y, x) for x in iterates_at(ens, y, x0, cfg, ks)])
            assert_within_rounding([h[3] for h in state.history], f, y.values)

    @pytest.mark.parametrize("rows_held", [1, 3, 100])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_split_flushes_match_one_flush(self, monkeypatch, rows_held, stride):
        # a pending buffer of 1, 3 or 100 iterates at n = 12 computes the
        # residuals in groups of that many samples (1 is objective_f's own
        # GEMV); that moves their last bits, not what else is recorded
        runs = [self.instance("sphere", 600 + seed) for seed in range(3)]
        cfgs = [
            SolverConfig(max_iters=1200, tol_aligned_rel=1e-13, seed=seed, history_stride=stride)
            for seed in range(3)
        ]
        whole = [solve(ens, y, x0, cfg, z=z) for (ens, y, x0, z), cfg in zip(runs, cfgs)]
        held = solver._block_rows(12)
        monkeypatch.setattr(solver, "_block_rows", lambda n: rows_held)
        for (ens, y, x0, z), cfg, one in zip(runs, cfgs, whole):
            split = solve(ens, y, x0, cfg, z=z)
            assert len(one.history) <= held  # one flush
            assert split.k == one.k and np.array_equal(split.x, one.x)
            H, W = np.array(split.history), np.array(one.history)
            np.testing.assert_array_equal(H[:, :3], W[:, :3])
            assert_within_rounding(H[:, 3], W[:, 3], y.values)

    def test_block_row_draws_equal_scalar_draws(self):
        # solve's rows are rng.integers(m, size=...) blocks; step draws
        # rng.integers(m) one at a time: the two must give one sequence
        for m in (1, 7, 150, 2000, 50_000):
            blocks, scalars = np.random.default_rng(m), np.random.default_rng(m)
            sizes = (1, 50, 7, 300, 16, solver._block_rows(1))
            drawn = [i for size in sizes for i in blocks.integers(m, size=size).tolist()]
            assert drawn == [int(scalars.integers(m)) for _ in drawn]
            assert blocks.bit_generator.state == scalars.bit_generator.state

    @pytest.mark.parametrize("mode", ["aligned", "residual", "blind"])
    def test_no_dist_phase_aligned_or_objective_f_calls(self, monkeypatch, mode):
        ens = sample_sphere(50, 2000, 500)
        z = sample_unit_vector(50, 501)
        y = measure(ens, z)
        x0 = spectral_init(ens, y, SpectralConfig(seed=502))
        tol = {"tol_aligned_rel": 1e-8} if mode == "aligned" else {"tol_residual": 1e-20}
        cfg = SolverConfig(max_iters=200 * 50, seed=503, history_stride=1, **tol)
        signal = None if mode == "blind" else z
        replay = exact_replay(ens, y, x0, cfg, signal)
        products = []

        def counted_rows(ensemble, y, X):
            products.append(len(X))
            return objective_rows(ensemble, y, X)

        # a call of either one-row helper, by any import, raises TypeError
        for module, name in ((core, "dist_phase_aligned"), (sensing, "objective_f")):
            monkeypatch.setattr(module, name, None)
            monkeypatch.setattr(solver, name, None, raising=False)
        monkeypatch.setattr(solver, "objective_rows", counted_rows)
        state = solve(ens, y, x0, cfg, z=signal)
        assert state.k == replay.k < cfg.max_iters
        # every sample takes its aligned error from aligned2_rows and its
        # residual from objective_rows: aligned-error mode computes them in
        # ceil(h / _block_rows(n)) products, residual mode in one one-row
        # product per sample, which has objective_f's bits
        h, held = len(state.history), solver._block_rows(50)
        if mode == "aligned":
            assert h > held
            assert products == [held] * (h // held) + [h % held] * (h % held > 0)
        else:
            assert products == [1] * h
        self.assert_same_run(state, replay)


class TestStepRule:
    """The one-row body, the stacked body and project_magnitude take every
    step with the same bits."""

    def rows(self, rng, shape, scale=1.0):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    @pytest.mark.parametrize("n", [1, 2, 12, 50])
    @pytest.mark.parametrize("scale", [2.0**-500, 1.0, 2.0**500])
    def test_stacked_rows_match_one_row_steps(self, n, scale):
        rng = np.random.default_rng(n)
        size, T = 40, 7
        rows = self.rows(rng, (size, T, n))
        x = self.rows(rng, (T, n), scale)
        y = scale * np.abs(rng.standard_normal((size, T)))
        y[3] = 0.0  # y = 0: a plain hyperplane projection
        rows[0, 2] = np.eye(n)[0]  # with x[2] orthogonal to it, s = 0
        x[2, 0] = 0.0
        y[9, 4] = 1e15 * scale  # |s| <= tau y: the pinned branch
        conj, na2 = _prepared(rows)
        tau = SolverConfig.zero_threshold
        stacked = np.empty((size, T, n), dtype=complex)
        _steps_stacked(x, rows, conj, na2, y, tau, stacked)
        for t in range(T):
            one = np.empty((size, n), dtype=complex)
            _steps(x[t], rows[:, t], conj[:, t], na2[:, t], y[:, t], tau, one)
            assert np.array_equal(stacked[:, t], one)
            w = x[t]
            for j in range(size):
                w = project_magnitude(w, rows[j, t], y[j, t], tau)
            assert np.array_equal(w, one[-1])
        assert stacked[0, 2, 0] == y[0, 2]  # pinned at s = 0


def group_problems(model, n, m, count, seed, **settings):
    """``count`` seeded problems of one shape, spectrally started."""
    problems = []
    for t in range(count):
        if model == "sphere":
            ens = sample_sphere(n, m, seed + t)
        else:
            ens = sample_block_unitary(n, m // n, seed + t)
        z = sample_unit_vector(n, seed + 100 + t)
        y = measure(ens, z)
        x0 = spectral_init(ens, y, SpectralConfig(seed=seed + 200 + t))
        problems.append((ens, y, x0, SolverConfig(seed=seed + 300 + t, **settings), z))
    return problems


class TestSolveGroup:
    def assert_same_state(self, got, want):
        assert got.k == want.k
        assert np.array_equal(got.x, want.x)
        np.testing.assert_array_equal(np.array(got.history), np.array(want.history))
        assert got.rng.bit_generator.state == want.rng.bit_generator.state

    @pytest.mark.parametrize("stack_min", [1, 4, 100])
    @pytest.mark.parametrize(
        "case",
        [
            ("sphere", 12, 150, dict(max_iters=20_000, tol_aligned_rel=1e-13)),
            ("unitary", 12, 144, dict(max_iters=20_000, tol_aligned_rel=1e-13, history_stride=7)),
            ("sphere", 12, 150, dict(max_iters=45, tol_aligned_rel=1e-13)),
            ("sphere", 2, 40, dict(max_iters=20_000, tol_aligned_rel=1e-13)),
            ("sphere", 12, 150, dict(max_iters=20_000, tol_residual=1e-24, history_stride=7)),
            ("sphere", 12, 150, dict(max_iters=800, tol_aligned_rel=0.0)),
        ],
        ids=["sphere", "unitary-stride7", "max-iters", "n2", "residual", "no-stop"],
    )
    def test_each_problem_gets_its_solve(self, monkeypatch, case, stack_min):
        # 1 steps every block stacked, 100 every block one row at a time,
        # and 4 switches to one row as the problems stop one by one
        model, n, m, settings = case
        problems = group_problems(model, n, m, 6, 40, **settings)
        alone = [solve(*problem) for problem in problems]
        monkeypatch.setattr(solver, "_STACK_MIN", stack_min)
        for got, want in zip(solve_group(problems), alone):
            self.assert_same_state(got, want)
        assert len({state.k for state in alone}) > 1 or settings["max_iters"] <= 800

    def test_blind_problems(self):
        problems = [(e, y, x0, cfg, None) for e, y, x0, cfg, _ in
                    group_problems("sphere", 12, 150, 5, 60, max_iters=20_000, tol_residual=1e-24)]
        for got, problem in zip(solve_group(problems), problems):
            self.assert_same_state(got, solve(*problem))

    @pytest.mark.parametrize("count", [1, 6])
    @pytest.mark.parametrize("schedule", ["stride1", "stride7", "epoch", "long-stride", "max-iters"])
    @pytest.mark.parametrize("mode", ["aligned", "residual", "blind"])
    def test_block_size_changes_no_bit(self, monkeypatch, count, schedule, mode):
        # blocks of one stride or _block_rows(n) rows (a stack size of 0),
        # the default, and one block for the whole run give every problem
        # the same state, generator included.  "long-stride" has blocks of
        # 5 rows in a stride of 12 at a stack size of 0, so blocks end
        # inside a stride; "max-iters" ends the run inside a block, after
        # 45 steps in a stride of 7
        settings = {
            "aligned": dict(tol_aligned_rel=1e-13), "residual": dict(tol_residual=1e-24),
            "blind": dict(tol_residual=1e-24),
        }[mode]
        settings.update({
            "stride1": dict(history_stride=1), "stride7": dict(history_stride=7), "epoch": {},
            "long-stride": {}, "max-iters": dict(history_stride=7, max_iters=45),
        }[schedule])
        settings.setdefault("max_iters", 20_000)
        stride = settings.get("history_stride", 12)
        if schedule == "long-stride":
            monkeypatch.setattr(solver, "_block_rows", lambda n: 5)
        problems = group_problems("sphere", 12, 150, count, 110, **settings)
        if mode == "blind":
            problems = [(*problem[:4], None) for problem in problems]
        default = solver._STACK_BYTES
        monkeypatch.setattr(solver, "_STACK_BYTES", 0)
        narrow = solve_group(problems)
        whole = 16 * 12 * count * (max(state.k for state in narrow) + 12)
        for stack_bytes in (whole, default):
            monkeypatch.setattr(solver, "_STACK_BYTES", stack_bytes)
            # the first block crosses stride boundaries
            assert solver._block_size(0, stride, 12, settings["max_iters"], count) > stride
            for got, want in zip(solve_group(problems), narrow):
                self.assert_same_state(got, want)
        if schedule != "max-iters":
            assert all(state.k < settings["max_iters"] for state in narrow)

    def test_problems_must_share_settings(self):
        problems = group_problems("sphere", 6, 60, 2, 80, max_iters=100, tol_aligned_rel=1e-8)
        ens, y, x0, cfg, z = problems[1]
        for changed in (
            (ens, y, x0, replace(cfg, max_iters=101), z),
            (ens, y, x0, replace(cfg, tol_aligned_rel=None, tol_residual=1e-8), None),
            group_problems("sphere", 7, 60, 1, 80, max_iters=100, tol_aligned_rel=1e-8)[0],
        ):
            with pytest.raises(ValueError, match="share n"):
                solve_group([problems[0], changed])
        assert solve_group([]) == []


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
