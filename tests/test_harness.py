import json
import math
import re
import tracemalloc
from contextlib import closing
from dataclasses import FrozenInstanceError, dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest

import golden
from kaczmarz_pr import dist_phase_aligned, harness, measure, sensing, spectral_init
from kaczmarz_pr.harness import (
    ConfigError,
    ExperimentConfig,
    TrialRecord,
    apply_settings,
    fit_rate,
    parse_config_file,
    render_csv,
    render_json,
    run_experiment,
    run_trial,
    setting_fields,
    summary_dict,
    write_text,
)
from kaczmarz_pr.seeding import ENSEMBLE_STREAM, SOLVER_STREAM, SPECTRAL_STREAM, derive_seed
from kaczmarz_pr.solver import SolverConfig
from kaczmarz_pr.spectral import SpectralConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def make_record(errors):
    rec = TrialRecord(trial_id=0, seed=0, n=4, m=8, model="sphere")
    rec.epochs = list(range(len(errors)))
    rec.aligned_errors = list(errors)
    rec.raw_errors = list(errors)
    rec.residuals = [e * e for e in errors]
    return rec


class TestFitRate:
    def test_exact_geometric_decay(self):
        rec = make_record([0.5**k for k in range(12)])
        assert abs(fit_rate(rec) - 0.5) <= 1e-6

    def test_constant_sequence(self):
        rec = make_record([0.3] * 8)
        assert abs(fit_rate(rec) - 1.0) <= 1e-12

    def test_too_few_usable_samples(self):
        assert fit_rate(make_record([0.5, 0.25])) is None
        assert fit_rate(make_record([0.5, 1e-15, 1e-16, 1e-17])) is None
        assert fit_rate(make_record([math.nan] * 4)) is None

    def test_floor_is_relative_to_the_largest_error(self):
        # every sample lies below 1e-14, and none below 1e-14 of the first
        rec = make_record([2.0**-60 * 0.5**k for k in range(12)])
        assert abs(fit_rate(rec) - 0.5) <= 1e-6


class TestSeeding:
    def test_derivation_is_stable_and_injective_enough(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(3, 7)
        assert derive_seed(7, 3, 0) != derive_seed(7, 3, 1)


class TestRunExperiment:
    def test_repeat_runs_are_byte_identical(self):
        cfg = ExperimentConfig(n=10, model="sphere", m=200, num_trials=4, master_seed=5)
        a = render_csv(run_experiment(cfg, workers=1))
        b = render_csv(run_experiment(cfg, workers=1))
        assert a == b

    def test_parallel_matches_serial(self):
        cfg = ExperimentConfig(n=10, model="sphere", m=200, num_trials=4, master_seed=6)
        serial = render_csv(run_experiment(cfg, workers=1))
        parallel = render_csv(run_experiment(cfg, workers=3))
        assert serial == parallel

    def test_an_exhausted_power_iteration_fails_every_trial(self):
        cfg = ExperimentConfig(n=8, m=160, num_trials=3, master_seed=5, power_iters_max=1)
        recs = run_experiment(cfg, workers=1)
        assert [(rec.failed, rec.error) for rec in recs] == [
            (True, "RuntimeError: power iteration did not reach tol 1e-08 within 1 iterations")
        ] * 3

    @pytest.mark.parametrize("k", [-480, -200, -43, 100, 200, 260, 480])
    @pytest.mark.parametrize(
        "shape", [dict(m=160), dict(model="unitary", K=20)], ids=["sphere", "unitary"]
    )
    def test_runs_are_scale_equivariant(self, shape, k):
        # scaling z by 2^k scales y and every iterate by 2^k exactly, so a
        # run's errors scale exactly, its stops do not move, and its rate
        # moves only by the rounding of log(2^k e)
        z = np.linspace(0.1, 0.8, 8) + 0.3j
        cfg = ExperimentConfig(n=8, num_trials=4, master_seed=5, signal=z, **shape)
        scaled = run_experiment(replace(cfg, signal=2.0**k * z), workers=1)
        for ref, rec in zip(run_experiment(cfg, workers=1), scaled):
            assert ref.converged and not rec.failed, rec.error
            assert rec.aligned_errors == [2.0**k * e for e in ref.aligned_errors]
            assert (rec.iterations_run, rec.converged) == (ref.iterations_run, ref.converged)
            assert abs(rec.rho_hat - ref.rho_hat) <= 1e-14 * ref.rho_hat

    @pytest.mark.parametrize("k", [-520, -530])
    def test_subnormal_rms_level_fails_every_trial_with_its_cause(self, k):
        # lam0^2 is subnormal below 2^-511: every trial fails in
        # truncated_covariance with a message that names the level
        z = np.linspace(0.1, 0.8, 8) + 0.3j
        for shape in (dict(m=160), dict(model="unitary", K=20)):
            cfg = ExperimentConfig(n=8, num_trials=4, master_seed=5, signal=2.0**k * z, **shape)
            for rec in run_experiment(cfg, workers=1):
                assert rec.failed
                assert re.fullmatch(r"ValueError: measurement RMS level \S+ is below 2\*\*-511: "
                                    r"its square is subnormal", rec.error)

    @pytest.mark.parametrize("scale", [2.0**510, 1e300], ids=["2^510", "1e300"])
    def test_rms_level_near_overflow_fails_every_trial_with_its_cause(self, scale):
        # at lam0 >= 2^511 / sqrt(max(m, n)) a run's sums of squares would
        # overflow: every trial fails in truncated_covariance with a message
        # that names the bound, and no RuntimeWarning escapes before it
        z = np.linspace(0.1, 0.8, 8) + 0.3j
        for shape in (dict(m=160), dict(model="unitary", K=20)):
            cfg = ExperimentConfig(n=8, num_trials=4, master_seed=5, signal=scale * z, **shape)
            for rec in run_experiment(cfg, workers=1):
                assert rec.failed
                assert re.fullmatch(r"ValueError: measurement RMS level \S+ is at least 2\*\*511/sqrt\(max\(m, n\)\) = "
                                    r"\S+: a run's sums of squares would overflow", rec.error)

    def test_largest_scale_below_the_bound_still_scales_exactly(self):
        # 2^508 z keeps lam0 under 2^511 / sqrt(160): the run converges, and
        # its errors are the unscaled run's times 2^508
        z = np.linspace(0.1, 0.8, 8) + 0.3j
        for shape in (dict(m=160), dict(model="unitary", K=20)):
            cfg = ExperimentConfig(n=8, num_trials=4, master_seed=5, signal=z, **shape)
            scaled = run_experiment(replace(cfg, signal=2.0**508 * z), workers=1)
            for ref, rec in zip(run_experiment(cfg, workers=1), scaled):
                assert rec.converged and not rec.failed, rec.error
                assert rec.aligned_errors == [2.0**508 * e for e in ref.aligned_errors]

    @pytest.mark.parametrize(
        "shape",
        [dict(n=256, m=10240, max_iters=40 * 256), dict(n=16, m=50000), dict(n=50, m=2000)],
        ids=["n256", "m50000", "m2000"],
    )
    def test_parallel_matches_serial_at_large_shapes(self, shape):
        # at n = 256 a covariance product on several BLAS threads moves its
        # last bits; every process that computes trials runs that product on
        # one thread (blas.one_thread), so the bytes match at any count
        cfg = ExperimentConfig(model="sphere", num_trials=2, master_seed=11, **shape)
        assert render_csv(run_experiment(cfg, workers=1)) == render_csv(run_experiment(cfg, workers=2))

    def test_worker_count_from_environment(self, monkeypatch):
        cfg = ExperimentConfig(n=6, model="sphere", m=60, num_trials=2, master_seed=8)
        monkeypatch.setenv("PR_KACZMARZ_THREADS", "2")
        via_env = render_csv(run_experiment(cfg))
        monkeypatch.delenv("PR_KACZMARZ_THREADS")
        assert via_env == render_csv(run_experiment(cfg))
        for bad in ("not-a-number", "-4"):
            monkeypatch.setenv("PR_KACZMARZ_THREADS", bad)
            with pytest.raises(ConfigError):
                run_experiment(cfg)

    def test_worker_count_is_checked_like_every_count(self, monkeypatch):
        # a bool or a float is refused, not read as 1 or passed on to the
        # pool, before any pool starts or any trial runs
        def started(*args, **kwargs):
            raise AssertionError("work started before the check")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", started)
        monkeypatch.setattr(harness, "_run_group", started)
        cfg = ExperimentConfig(n=6, model="sphere", m=60, num_trials=2, master_seed=8)
        for bad in (True, 0.5, 1.5, 2.0, "2", -1):
            with pytest.raises(ConfigError, match="^workers must be"):
                run_experiment(cfg, workers=bad)

    @pytest.mark.parametrize("n, m", [(4, 2**62), (2**62, 4)])
    def test_a_size_numpy_refuses_fails_each_trial_alike(self, n, m):
        # numpy refuses the ensemble (or, at n = 2^62, also the signal)
        # before it allocates: serially the drawer hands the allocation's
        # ValueError to its trial, so serial, pooled and run_trial records
        # are the same failed trials, byte for byte
        cfg = ExperimentConfig(n=n, m=m, num_trials=3, master_seed=7)
        want = render_csv([run_trial(cfg, t) for t in range(3)])
        assert want.count(",nan,nan,nan") == 3
        for workers in (1, 2):
            records = run_experiment(cfg, workers=workers)
            assert all(rec.failed and rec.error.startswith("ValueError: array is too big") for rec in records)
            assert render_csv(records) == want

    def test_zero_workers_means_the_usable_cores(self, monkeypatch):
        # 0 (argument or environment) counts the cores the process may run
        # on, not every core of the machine; the count alone, no process
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        assert harness._worker_count(0) == 3
        monkeypatch.setenv("PR_KACZMARZ_THREADS", "0")
        assert harness._worker_count(None) == 3
        assert harness._worker_count(2) == 2
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        assert harness._worker_count(0) == 64
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._worker_count(0) == 1

    def test_one_dimensional_signal_converges_immediately(self):
        cfg = ExperimentConfig(n=1, model="sphere", m=5, num_trials=1, master_seed=0)
        rec = run_experiment(cfg, workers=1)[0]
        assert rec.converged and not rec.failed
        assert rec.iterations_run <= 2

    def test_unitary_model_runs(self):
        cfg = ExperimentConfig(n=8, model="unitary", K=12, num_trials=2, master_seed=1)
        recs = run_experiment(cfg, workers=1)
        assert all(r.m == 96 for r in recs)
        assert all(r.converged for r in recs)

    def test_failed_trial_is_recorded(self):
        cfg = ExperimentConfig(
            n=3,
            model="sphere",
            m=9,
            num_trials=2,
            master_seed=2,
            signal=np.zeros(3, dtype=complex),
        )
        recs = run_experiment(cfg, workers=1)
        assert len(recs) == 2
        assert all(r.failed for r in recs)
        assert all("zero" in r.error for r in recs)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("bug")

        monkeypatch.setattr(harness, "spectral_init", broken)
        cfg = ExperimentConfig(n=3, model="sphere", m=9)
        with pytest.raises(TypeError, match="bug"):
            run_trial(cfg, 0)

    def test_first_sample_is_the_spectral_start(self):
        cfg = ExperimentConfig(n=12, model="sphere", m=600, num_trials=1, master_seed=3)
        rec = run_experiment(cfg, workers=1)[0]
        z = harness._signal_for_trial(cfg, 0)
        ens = cfg.sample_ensemble(derive_seed(3, 0, ENSEMBLE_STREAM))
        x0 = spectral_init(ens, measure(ens, z), cfg.spectral_config(derive_seed(3, 0, SPECTRAL_STREAM)))
        assert rec.epochs[0] == 0.0
        assert rec.aligned_errors[0] == dist_phase_aligned(x0, z).aligned  # bit for bit
        assert 0.0 < rec.aligned_errors[0] < 1.0


def texts(cfg, records):
    """(CSV, JSON) of a run's records."""
    return render_csv(records), render_json(summary_dict(cfg, records))


# the golden batches, and one at n = 1
GROUPED = {**golden.BATCHES, "n1": replace(golden.BATCHES["sphere_aligned"], n=1, m=10)}


class TestGroups:
    """run_experiment solves a batch in groups of trials; the bytes are
    those of run_trial on each trial, at any group size and pool size."""

    def group_sizes(self, monkeypatch, cfg, trials_per_group):
        monkeypatch.setattr(harness, "_GROUP_BYTES", trials_per_group * 16 * cfg.effective_m * cfg.n)
        return [len(group) for group in harness._trial_groups(cfg)]

    @pytest.mark.parametrize("name", GROUPED)
    def test_bytes_do_not_depend_on_grouping(self, monkeypatch, name):
        cfg = GROUPED[name]
        want = texts(cfg, [run_trial(cfg, t) for t in range(cfg.num_trials)])
        for per_group, sizes in ((1, [1, 1, 1]), (2, [1, 2]), (3, [3])):
            assert self.group_sizes(monkeypatch, cfg, per_group) == sizes
            assert texts(cfg, run_experiment(cfg, workers=1)) == want
            assert texts(cfg, run_experiment(cfg, workers=2)) == want

    @pytest.mark.parametrize("shape", [dict(n=16, m=3000), dict(n=12, model="unitary", K=12)],
                             ids=["sphere", "unitary"])
    def test_serial_run_draws_ahead_with_run_trial_bytes(self, monkeypatch, shape):
        # in groups of one, every ensemble after the first is drawn while
        # the trial before it runs, across each group boundary
        cfg = ExperimentConfig(num_trials=4, master_seed=21, **shape)
        want = texts(cfg, [run_trial(cfg, t) for t in range(cfg.num_trials)])
        assert self.group_sizes(monkeypatch, cfg, 1) == [1, 1, 1, 1]
        assert texts(cfg, run_experiment(cfg, workers=1)) == want

    def test_groups_are_balanced_and_bounded_by_memory(self, monkeypatch):
        sphere = ExperimentConfig(n=50, m=2000, num_trials=20)
        assert [len(g) for g in harness._trial_groups(sphere)] == [10, 10]
        assert [len(g) for g in harness._trial_groups(replace(sphere, num_trials=21))] == [7, 7, 7]
        tall = ExperimentConfig(n=16, m=50000, num_trials=12)
        assert [len(g) for g in harness._trial_groups(tall)] == [1] * 12
        assert self.group_sizes(monkeypatch, replace(sphere, num_trials=7), 3) == [2, 2, 3]
        groups = harness._trial_groups(replace(sphere, num_trials=7))
        assert [t for g in groups for t in g] == list(range(7))

    def test_zero_row_trial_fails_alone(self, monkeypatch):
        # trial 1's ensemble gets a zero row where its 30th step draws:
        # in every group building it fails the trial, naming the row, and
        # the other trials' bytes are those of their runs without it
        cfg = GROUPED["sphere_aligned"]
        clean = [run_trial(cfg, t) for t in range(cfg.num_trials)]
        ens_seed = derive_seed(cfg.master_seed, 1, ENSEMBLE_STREAM)
        draws = np.random.default_rng(derive_seed(cfg.master_seed, 1, SOLVER_STREAM)).integers(cfg.m, size=30)
        row = int(draws[-1])
        sample = ExperimentConfig.sample_ensemble

        def with_zero_row(self, seed, fill=None):
            ens = sample(self, seed, fill)
            if seed != ens_seed:
                return ens
            vectors = np.array(ens.vectors)
            vectors[row] = 0.0
            return sensing.SensingEnsemble(vectors=vectors)

        monkeypatch.setattr(ExperimentConfig, "sample_ensemble", with_zero_row)
        alone = [run_trial(cfg, t) for t in range(cfg.num_trials)]
        assert alone[1].failed
        assert alone[1].error == f"ValueError: sensing vector {row} has squared norm 0.0; it must be finite and > 0"
        assert texts(cfg, alone[::2]) == texts(cfg, clean[::2])
        for per_group in (1, 2, 3):
            self.group_sizes(monkeypatch, cfg, per_group)
            assert texts(cfg, run_experiment(cfg, workers=1)) == texts(cfg, alone)

    def test_a_fill_of_another_seed_raises(self):
        # a group takes each trial's fill in turn from the generator it is
        # passed; a fill drawn for another trial's seed is a bug, not a
        # failed trial
        cfg = ExperimentConfig(n=4, m=40, num_trials=2, master_seed=3)
        seeds = [derive_seed(3, t, ENSEMBLE_STREAM) for t in (1, 0)]
        with closing(sensing.draw_ahead(cfg.model, cfg.n, cfg.m, seeds)) as fills:
            with pytest.raises(LookupError, match="trial 0"):
                harness._run_group(cfg, range(2), fills)

    def test_a_batch_holds_one_group_of_ensembles(self):
        # sphere n = 50, m = 2000, 20 trials: two groups of 10, whose
        # ensembles hold 10 * 1.6 MB; the rest of the traced peak measured
        # 5.6 MiB.  All 20 ensembles at once would hold 32 MB.
        cfg = ExperimentConfig(n=50, m=2000, num_trials=20, master_seed=3000)
        group = 10 * 16 * cfg.m * cfg.n
        tracemalloc.start()
        try:
            records = run_experiment(cfg, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(rec.converged for rec in records)
        assert group < peak < group + 8 * 2**20

    def test_a_narrow_group_holds_no_rows_that_grow_with_m(self):
        # sphere n = 16, m = 20000, 3 trials: groups of one, stepped in
        # blocks of at most solver._STACK_BYTES per buffer.  Run first in its process, the traced peak measured
        # 17.30 MiB with one-unit blocks of 16 rows and 17.49 MiB with
        # 256-row blocks; most of it is the ensembles of the trial solved
        # and of the one drawn ahead (4.9 MiB each).  A block of rows that
        # grew with m, as one that crossed stride boundaries did, would add
        # MiBs.
        cfg = ExperimentConfig(n=16, m=20000, num_trials=3, master_seed=3000)
        tracemalloc.start()
        try:
            records = run_experiment(cfg, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(rec.converged for rec in records)
        assert peak < 17.8 * 2**20


class TestCsvOutput:
    def test_schema_and_summary_row(self, tmp_path):
        cfg = ExperimentConfig(n=6, model="sphere", m=90, num_trials=2, master_seed=9)
        recs = run_experiment(cfg, workers=1)
        path = tmp_path / "out.csv"
        write_text(path, render_csv(recs))
        lines = path.read_text().splitlines()
        assert lines[0] == "trial_id,seed,n,m,model,epoch,aligned_error,raw_error,residual"
        expected_rows = sum(len(r.epochs) + 1 for r in recs)
        assert len(lines) == 1 + expected_rows
        # last row of each trial block repeats the final state
        last = lines[-1].split(",")
        assert last[0] == "1"
        assert float(last[6]) == recs[1].aligned_errors[-1]

    @pytest.mark.parametrize(
        "settings, converged",
        [
            ({}, True),  # aligned stop
            ({"max_iters": 999, "tol_aligned_rel": 0.0}, False),  # max_iters cut
            ({"tol_aligned_rel": None, "tol_residual": 1e-20}, True),  # residual mode
            ({"history_stride": 7}, True),
            ({"model": "unitary", "m": None, "K": 20, "n": 12, "history_stride": 7}, True),
        ],
        ids=["aligned", "max_iters", "residual", "stride", "unitary"],
    )
    def test_summary_row_repeats_the_last_sample_row(self, settings, converged):
        base = ExperimentConfig(n=6, model="sphere", m=90, num_trials=3, master_seed=9)
        recs = run_experiment(replace(base, **settings), workers=1)
        lines = render_csv(recs).splitlines()[1:]
        for rec in recs:
            block, lines = lines[: len(rec.epochs) + 1], lines[len(rec.epochs) + 1 :]
            assert not rec.failed and rec.converged == converged
            assert block[-1] == block[-2]  # byte for byte
            assert rec.epochs[-1] == rec.iterations_run / rec.n
        assert lines == []

    def test_epochs_do_not_depend_on_history_stride(self):
        for seed in (3, 4, 5):
            recs = {}
            for stride in (None, 5):
                cfg = ExperimentConfig(
                    n=20, model="sphere", m=400, num_trials=1, master_seed=seed,
                    history_stride=stride,
                )
                recs[stride] = run_experiment(cfg, workers=1)[0]
                rows = render_csv([recs[stride]]).splitlines()
                # the last sample row and the summary row share the epoch column
                assert rows[-2].split(",")[5] == rows[-1].split(",")[5]
            assert abs(recs[5].rho_hat - recs[None].rho_hat) <= 1e-3

    def test_non_finite_and_signed_zero_bytes(self):
        rec = make_record([math.nan, math.inf, -math.inf, -0.0, 1 / 3])
        rows = [line.split(",")[6] for line in render_csv([rec]).splitlines()[1:]]
        assert rows == ["nan", "inf", "-inf", "-0", "0.33333333333333331", "0.33333333333333331"]

    def test_nan_rendering_for_failed_trial(self):
        rec = TrialRecord(trial_id=0, seed=0, n=2, m=4, model="sphere", failed=True)
        text = render_csv([rec])
        assert text.splitlines()[1].endswith("nan,nan,nan")


class TestSummaryJson:
    def test_mirrors_records_and_flags_side_condition(self, tmp_path):
        cfg = ExperimentConfig(n=50, model="unitary", K=40, num_trials=1, master_seed=4)
        recs = run_experiment(cfg, workers=1)
        payload = summary_dict(cfg, recs)
        # sqrt(50) ~ 7.07 < log(2000)^2 ~ 57.8
        assert payload["unitary_side_condition_sqrt_n_gt_log_sq_m"] is False
        assert payload["trials"][0]["rho_hat"] == recs[0].rho_hat
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_text(p1, render_json(summary_dict(cfg, recs)))
        write_text(p2, render_json(summary_dict(cfg, recs)))
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())  # well-formed

    def test_failed_render_leaves_no_file(self, tmp_path):
        cfg = ExperimentConfig(n=3, m=30)
        rec = TrialRecord(trial_id=object(), seed=0, n=3, m=30, model="sphere")
        path = tmp_path / "summary.json"
        with pytest.raises(TypeError):  # an object has no JSON form
            write_text(path, render_json(summary_dict(cfg, [rec])))
        assert not path.exists()

    def test_numpy_scalar_settings_are_written_as_python_scalars(self, tmp_path):
        cfg = ExperimentConfig(
            n=np.int64(3), m=np.int64(30), num_trials=np.int32(1), tol_aligned_rel=np.float64(1e-8)
        )
        records = run_experiment(cfg, workers=1)
        path = tmp_path / "summary.json"
        write_text(path, render_json(summary_dict(cfg, records)))
        summary = json.loads(path.read_text())
        assert summary["config"]["n"] == 3 and summary["config"]["m"] == 30
        assert summary["trials"][0]["n"] == 3

    def test_failed_trial_writes_null_not_nan(self, tmp_path):
        cfg = ExperimentConfig(n=2, model="sphere", m=4, num_trials=1, master_seed=0)
        rec = TrialRecord(trial_id=0, seed=0, n=2, m=4, model="sphere", failed=True, error="x")
        path = tmp_path / "failed.json"
        write_text(path, render_json(summary_dict(cfg, [rec])))

        def reject(name):
            raise ValueError(f"invalid JSON constant {name}")

        trial = json.loads(path.read_text(), parse_constant=reject)["trials"][0]
        assert trial["rho_hat"] is None and trial["aligned_errors"] == []
        assert trial["failed"] is True
        nan_rec = replace(rec, residuals=[math.nan], rho_hat=math.inf)
        trial = json.loads(render_json(nan_rec), parse_constant=reject)
        assert trial["residuals"] == [None] and trial["rho_hat"] is None

    def test_config_block_reproduces_the_run(self, tmp_path):
        sig = tmp_path / "z.json"
        sig.write_text(json.dumps({"re": [0.6, 0.0, -0.3], "im": [0.2, 0.5, 0.0]}))
        cfg = apply_settings(
            None,
            {"n": "3", "m": "45", "trials": "2", "master_seed": "4", "history_stride": "5",
             "power_tol": "1e-9", "signal_path": str(sig)},
        )
        records = run_experiment(cfg, workers=1)
        block = json.loads(json.dumps(summary_dict(cfg, records)))["config"]
        signal = tmp_path / "z_again.json"
        signal.write_text(json.dumps(block.pop("signal")))
        assert block.pop("signal_mode") == "provided"
        rebuilt = ExperimentConfig(**block, signal=harness.load_signal(signal))
        assert render_csv(run_experiment(rebuilt, workers=1)) == render_csv(records)

    def test_sphere_has_no_side_condition(self):
        cfg = ExperimentConfig(n=4, model="sphere", m=8, num_trials=1, master_seed=0)
        recs = run_experiment(cfg, workers=1)
        assert summary_dict(cfg, recs)["unitary_side_condition_sqrt_n_gt_log_sq_m"] is None


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            "# demo config\n"
            "model = sphere\n"
            "n = 16\n"
            "m = 320\n"
            "trials = 3\n"
            "master_seed = 11\n"
            "tol_aligned_rel = 1e-8\n"
            "out = results.csv\n"
            "format = csv\n",
        )
        cfg = parse_config_file(path)
        assert (cfg.n, cfg.m, cfg.num_trials, cfg.master_seed) == (16, 320, 3, 11)
        assert cfg.output_path == "results.csv"

    def test_residual_mode_switch(self, tmp_path):
        path = self.write(
            tmp_path, "model = sphere\nn = 4\nm = 20\ntol_residual = 1e-10\n"
        )
        cfg = parse_config_file(path)
        assert cfg.tol_aligned_rel is None
        assert cfg.tol_residual == 1e-10

    def test_provided_signal(self, tmp_path):
        sig = tmp_path / "z.json"
        sig.write_text(json.dumps({"re": [1.0, 0.0], "im": [0.0, 0.5]}))
        path = self.write(
            tmp_path, f"model = sphere\nn = 2\nm = 10\nsignal_path = {sig}\n"
        )
        cfg = parse_config_file(path)
        assert np.array_equal(cfg.signal, np.array([1.0, 0.5j]))
        assert summary_dict(cfg, [])["config"]["signal_mode"] == "provided"

    @pytest.mark.parametrize(
        "text",
        [
            "model = sphere\nm = 10\n",  # missing n
            "model = sphere\nn = 4\nm = 10\nwhat = 1\n",  # unknown key
            "model = sphere\nn = four\nm = 10\n",  # bad int
            "model = sphere\nn = 4\nm = 10\nn = 5\n",  # duplicate
            "model = sphere\nn = 4\nm = 10\njust a line\n",  # not key = value
            "model = unitary\nn = 4\n",  # missing K
            "model = sphere\nn = 4\nm = 10\nrow_rule = inverse_norm\n",  # uniform only
            "model = sphere\nn = 4\nm = 10\npower_tol = none\n",  # not optional
            "model = sphere\nn = 4\nm = 10\nmaster_seed = -1\n",  # seeds are >= 0
            "model = sphere\nn = 4\nm = 10\ntol_aligned_rel = nan\nformat = json\n",  # finite
            "model = sphere\nn = 4\nm = 10\ntol_aligned_rel = -1\n",  # tolerances are >= 0
        ],
    )
    def test_malformed_configs(self, tmp_path, text):
        with pytest.raises(ConfigError):
            parse_config_file(self.write(tmp_path, text))

    def test_non_finite_signal_rejected(self, tmp_path):
        sig = tmp_path / "z.json"
        sig.write_text('{"re": [NaN, 0.5], "im": [0.0, 0.1]}')
        with pytest.raises(ConfigError, match="finite"):
            parse_config_file(self.write(tmp_path, f"n = 2\nm = 10\nsignal_path = {sig}\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.cfg")

    def test_override_validation(self):
        cfg = ExperimentConfig(n=4, model="sphere", m=16)
        out = apply_settings(cfg, {"trials": "5", "master_seed": "9"})
        assert (out.num_trials, out.master_seed) == (5, 9)
        assert cfg.num_trials == 1  # applied to a copy
        with pytest.raises(ConfigError):
            apply_settings(cfg, {"trials": "0"})

    def test_config_is_checked_when_built_and_is_frozen(self):
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            ExperimentConfig(n=4, model="sphere", m=16, num_trials=0)
        cfg = ExperimentConfig(n=4, model="sphere", m=16)
        with pytest.raises(FrozenInstanceError):
            cfg.num_trials = 0
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            replace(cfg, num_trials=0)

    @pytest.mark.parametrize(
        "field, value",
        [("master_seed", 1.5), ("m", 40.5), ("K", 2.5), ("max_iters", 2.5), ("history_stride", 2.5),
         ("n", 4.0), ("n", True), ("num_trials", 2.5), ("power_iters_max", 2.5)],
    )
    def test_integer_fields_refuse_other_numbers(self, field, value):
        # master seed 1.5 would run as master seed 1, and each of the others
        # would end in a numpy TypeError at run time
        shape = dict(model="unitary", K=4) if field == "K" else dict(m=40)
        with pytest.raises(ConfigError, match="must be an integer"):
            ExperimentConfig(**{"n": 4, **shape, field: value})
        cfg = ExperimentConfig(**{"n": 4, **shape, field: np.int64(3)})
        assert getattr(cfg, field) == 3

    def test_config_keeps_a_read_only_copy_of_the_signal(self):
        # the caller's array cannot change the signal the config checked
        z = np.array([0.6, -0.3, 0.2])
        cfg = ExperimentConfig(n=3, m=30, signal=z)
        z[0] = np.nan
        assert np.array_equal(cfg.signal, [0.6, -0.3, 0.2]) and cfg.signal.dtype == complex
        with pytest.raises(ValueError):
            cfg.signal[0] = 1.0

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize(
        "name", ["zero_threshold", "truncation_multiplier", "power_tol", "tol_aligned_rel", "tol_residual"]
    )
    def test_non_finite_setting_built_in_code_rejected(self, name, value):
        # config files refuse these when read; a config built in code
        # reaches the solver and initializer settings' own checks (an
        # infinite tolerance ran no iteration and reported convergence)
        other = {"tol_aligned_rel": None} if name == "tol_residual" else {}
        with pytest.raises(ConfigError, match=f"{name} must be a finite real number"):
            ExperimentConfig(n=4, model="sphere", m=16, **other, **{name: value})

    @pytest.mark.parametrize("value", [True, "0.5"])
    @pytest.mark.parametrize(
        "name", ["zero_threshold", "truncation_multiplier", "power_tol", "tol_aligned_rel", "tol_residual"]
    )
    def test_real_settings_refuse_bools_and_strings(self, name, value):
        # True ran as 1.0, and a string ended in a bare TypeError
        other = {"tol_aligned_rel": None} if name == "tol_residual" else {}
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be a finite real number, got {value!r}")):
            ExperimentConfig(n=4, m=16, **other, **{name: value})
        for ok in (1, np.float32(0.5), np.int64(2)):
            assert getattr(ExperimentConfig(n=4, m=16, **other, **{name: ok}), name) == ok

    def test_solver_and_initializer_settings_are_config_fields(self):
        # solver_config and spectral_config hand every setting on by name,
        # all but the effective max_iters and the seed
        own = {f.name for f in fields(ExperimentConfig)}
        for cls in (SolverConfig, SpectralConfig):
            assert {f.name for f in fields(cls)} - {"max_iters", "seed"} <= own
        cfg = ExperimentConfig(n=4, m=16, zero_threshold=1e-9, history_stride=3, power_tol=1e-6)
        assert cfg.solver_config(5) == SolverConfig(
            max_iters=800, tol_aligned_rel=1e-8, zero_threshold=1e-9, seed=5, history_stride=3
        )
        assert cfg.spectral_config(6) == SpectralConfig(power_tol=1e-6, seed=6)

    def test_none_unsets_optional_keys(self):
        cfg = ExperimentConfig(n=4, model="sphere", m=16, max_iters=50, history_stride=2)
        out = apply_settings(cfg, {"max_iters": "none", "history_stride": "None"})
        assert out.max_iters is None and out.history_stride is None
        with pytest.raises(ConfigError):
            apply_settings(cfg, {"n": "none"})

    def test_new_field_is_a_config_key(self):
        @dataclass(frozen=True)
        class Extended(ExperimentConfig):
            sweep_width: float | None = 0.5

        assert setting_fields(Extended)["sweep_width"] == ("sweep_width", float, True)
        out = apply_settings(Extended(n=4, m=16), {"sweep_width": "0.25", "m": "20"})
        assert (out.sweep_width, out.m) == (0.25, 20)
        assert apply_settings(out, {"sweep_width": "none"}).sweep_width is None

    def test_readme_lists_exactly_the_trial_keys(self):
        section = README.read_text().split("### JSON summary", 1)[1]
        listed = re.search(r"Each trial has the\s+keys ([^.]*)\.", section).group(1)
        assert re.findall(r"`(\w+)`", listed) == [f.name for f in fields(TrialRecord)]

    def test_readme_lists_exactly_the_config_keys(self):
        section = README.read_text().split("### Config file format", 1)[1]
        block = section.split("```", 2)[1]
        keys = re.findall(r"^(\w+) =", block, flags=re.MULTILINE)
        assert sorted(keys) == sorted(setting_fields())
        listed = re.search(r"every optional\s+key \(([^)]*)\)", section).group(1)
        optional = [key for key, (_, _, accepts_none) in setting_fields().items() if accepts_none]
        assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(optional)
