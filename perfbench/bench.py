"""Workloads, correctness gate and metrics of the kaczmarz-pr benchmark.

``run.py`` imports this module only after it has started the set-up clock,
so importing numpy and the package counts as set-up.  Every input comes
from the workload seed: batch ``rep`` of a run uses master seed
``seed * 1000 + rep``.  The benchmark calls only public functions of the
package and never sets a BLAS or worker-count environment variable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from kaczmarz_pr import (
    ExperimentConfig,
    RegularityParams,
    SolverConfig,
    SolverState,
    SpectralConfig,
    TrialRecord,
    dist_phase_aligned,
    estimate_L,
    fit_rate,
    measure,
    objective_f,
    run_experiment,
    run_trial,
    sample_block_unitary,
    sample_sphere,
    sample_unit_vector,
    solve,
    spectral_init,
    step,
    truncated_covariance,
)
from kaczmarz_pr.harness import THREADS_ENV, render_csv
from kaczmarz_pr.regularity import regularity_terms
from kaczmarz_pr.sensing import MODEL_UNITARY
from kaczmarz_pr.seeding import (
    ENSEMBLE_STREAM,
    SIGNAL_STREAM,
    SOLVER_STREAM,
    SPECTRAL_STREAM,
    derive_seed,
)
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# estimate_L parameters: alpha = 20 with the estimate-l CLI default c0 = 1/(4 alpha)
ALPHA = 20.0
C0 = 1.0 / (4.0 * ALPHA)
BUDGET = 2048
TINY_BUDGET = 64
MIN_CONVERGED_FRAC = 0.9  # 18 of 20 trials
# The traced run also sends each batch through a pool of this many worker
# processes (nproc on the reference machine).  Pooled wall times are too
# unsteady for an end-to-end bound while OpenBLAS threads oversubscribe the
# cores, so the pool is measured per layer only.
POOL_WORKERS = 2
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", THREADS_ENV)


@dataclass(frozen=True)
class Workload:
    """``kind`` is the task an untraced run times: "batch" (a seeded trial
    batch run serially through run_experiment) or "estimate" (estimate_L on
    one seeded instance).  ``batch`` and ``instance`` hold ExperimentConfig
    fields: the batch, and the shape of the estimate_L instance.  A traced
    run uses both, so that every layer is measured on every workload."""

    kind: str
    batch: dict
    instance: dict


SPHERE = dict(model="sphere", n=50, m=2000)
TALL = dict(model="sphere", n=16, m=50000)
WORKLOADS = {
    "sphere_serial": Workload("batch", dict(SPHERE, num_trials=20), SPHERE),
    "tall_sphere": Workload("batch", dict(TALL, num_trials=12), TALL),
    # its traced batch is unitary (m = K n = 2000), the only place the
    # Haar/QR sampling path is measured
    "estimate_l": Workload("estimate", dict(model="unitary", n=50, K=40, num_trials=2), SPHERE),
}
# the same workloads at warm-up and smoke-test size
TINY = {
    "sphere_serial": Workload("batch", dict(model="sphere", n=8, m=160, num_trials=4), dict(model="sphere", n=8, m=160)),
    "tall_sphere": Workload("batch", dict(model="sphere", n=4, m=2000, num_trials=2), dict(model="sphere", n=4, m=2000)),
    "estimate_l": Workload("estimate", dict(model="unitary", n=8, K=20, num_trials=2), dict(model="sphere", n=4, m=100)),
}


def config(shape: dict, master_seed: int) -> ExperimentConfig:
    return ExperimentConfig(**shape, master_seed=master_seed)


# ---------------------------------------------------------------------------
# tasks and their correctness checks


def run_batch(cfg: ExperimentConfig, workers: int):
    """One batch as a user runs it: all trials, then the CSV.  Returns
    (wall seconds, records, csv text)."""
    t = time.perf_counter()
    records = run_experiment(cfg, workers=workers)
    csv = render_csv(records)
    return time.perf_counter() - t, records, csv


def batch_problems(cfg: ExperimentConfig, records) -> list[str]:
    tag = f"batch master_seed={cfg.master_seed}"
    problems = []
    failed = [r.trial_id for r in records if r.failed]
    if failed:
        problems.append(f"{tag}: trials {failed} failed")
    converged = sum(r.converged and r.iterations_run <= cfg.effective_max_iters for r in records)
    if converged < math.ceil(MIN_CONVERGED_FRAC * len(records)):
        problems.append(f"{tag}: only {converged}/{len(records)} trials converged")
    slow = [r.trial_id for r in records if not r.failed and not (r.rho_hat is not None and r.rho_hat < 1.0)]
    if slow:
        problems.append(f"{tag}: trials {slow} have no rho_hat < 1")
    return problems


def solved_trials(records) -> int:
    return sum(r.converged and not r.failed for r in records)


def instance(cfg: ExperimentConfig):
    """(ensemble, signal) for estimate_L, seeded as the estimate-l CLI seeds them."""
    s = cfg.master_seed
    if cfg.model == MODEL_UNITARY:
        ens = sample_block_unitary(cfg.n, cfg.K, derive_seed(s, 1))
    else:
        ens = sample_sphere(cfg.n, cfg.m, derive_seed(s, 1))
    return ens, sample_unit_vector(cfg.n, derive_seed(s, 2))


def run_estimate(cfg: ExperimentConfig, budget: int, tracer: Tracer | None = None):
    """One estimate_L call on the instance of ``cfg``.  Returns (wall seconds,
    report or None, problems); only the call itself is timed."""
    ens, z = instance(cfg)
    params = RegularityParams(c0=C0, alpha=ALPHA, net_or_samples=budget, seed=cfg.master_seed)
    t = time.perf_counter()
    try:
        with tracer.span("estimate_L") if tracer is not None else nullcontext():
            report = estimate_L(ens, z, params)
    except Exception as exc:  # noqa: BLE001 - a raising report counts as unsolved
        return time.perf_counter() - t, None, [f"estimate_L master_seed={cfg.master_seed} raised {exc!r}"]
    wall = time.perf_counter() - t
    return wall, report, report_problems(cfg, report, ens, z)


def report_problems(cfg, report, ens, z) -> list[str]:
    """The reported terms must be those of regularity_terms at the reported
    argmin, and L_estimate must be (n/m) times their bracket."""
    tag = f"estimate_L master_seed={cfg.master_seed}"
    t1, t2, t3, _ = regularity_terms(ens, z, report.argmin_direction, C0, ALPHA)
    problems = []
    if (report.term1, report.term2, report.term3) != (t1, t2, t3):
        problems.append(f"{tag}: reported terms differ from regularity_terms at the argmin")
    if report.L_estimate != (report.n / report.m) * (t1 - t2 - t3):
        problems.append(f"{tag}: L_estimate is not (n/m)(term1 - term2 - term3)")
    if report.search_mode != "random_refine" or not math.isfinite(report.L_estimate):
        problems.append(f"{tag}: mode {report.search_mode}, L_estimate {report.L_estimate}")
    return problems


def warm_up(name: str, kind: str) -> None:
    """A task of ``kind`` once at tiny size: pays first-call costs (BLAS
    start-up, the first spectral_init) before anything is timed."""
    tiny = TINY[name]
    if kind == "batch":
        run_batch(config(tiny.batch, 0), 1)
    else:
        run_estimate(config(tiny.instance, 0), TINY_BUDGET)


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


class Reference:
    """A fixed computation that calls no package code and no multi-threaded
    BLAS: a Python loop of small complex vector updates, like the solver's,
    and elementwise products and row sums over a 2000 x 50 and a 50000 x 16
    complex array.  It takes about 0.07 s on the reference machine.

    The reference machine's speed drifts by up to 30% over minutes.  Timed
    next to each task, this computation turns task times into multiples of
    its own time, which the drift moves far less than seconds."""

    def __init__(self):
        rng = np.random.default_rng(20200507)
        self.rows = rng.standard_normal((2000, 50)) + 1j * rng.standard_normal((2000, 50))
        self.tall = rng.standard_normal((50000, 16)) + 1j * rng.standard_normal((50000, 16))
        self.x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        self.xt = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        self.time_s()  # first touch of the arrays

    def time_s(self) -> float:
        t = time.perf_counter()
        v = self.x.copy()
        for i in range(6000):
            a = self.rows[i % 2000]
            v = v - (0.5 * np.vdot(a, v) / 50.0) * a
        for _ in range(10):
            np.abs((self.tall * self.xt).sum(axis=1)).sum()
            np.abs((self.rows * v).sum(axis=1)).sum()
        return time.perf_counter() - t


def measured_run(w: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    """Tasks back to back until the next one would end after ``seconds``;
    at least one.  The reference computation runs before the first task
    and after each one; a task's time in reference units is its wall time
    over the mean of the two references around it.  The checks run between
    tasks, outside their timing.  Every time metric is a median over the
    tasks, so one slow task does not move it."""
    budget = TINY_BUDGET if smoke else BUDGET
    reference = Reference()
    walls, refs, works, problems = [], [], [], []
    solved = attempted = 0
    first_csv = None
    ref_before = reference.time_s()
    start = time.perf_counter()
    rep = 0
    while True:
        if w.kind == "batch":
            cfg = config(w.batch, seed * 1000 + rep)
            wall, records, csv = run_batch(cfg, 1)
            works.append(sum(r.iterations_run for r in records))
            solved += solved_trials(records)
            attempted += len(records)
            problems += batch_problems(cfg, records)
            if first_csv is None:
                first_csv = csv
        else:
            wall, report, probs = run_estimate(config(w.instance, seed * 1000 + rep), budget)
            works.append(report.evaluations if report is not None else 0)
            solved += not probs
            attempted += 1
            problems += probs
        ref_after = reference.time_s()
        walls.append(wall)
        refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        rep += 1
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break

    wall_ref = statistics.median(wl / r for wl, r in zip(walls, refs))
    info = {"task_walls_s": walls, "task_references_s": refs, "task_work": works,
            "wall_s": statistics.median(walls)}
    if first_csv is not None:
        info["first_csv_sha256"] = hashlib.sha256(first_csv.encode()).hexdigest()
    metrics = {
        "wall_ref": wall_ref,
        "ref_per_solution": wall_ref * len(walls) / max(solved, 1),
        "work_per_ref": statistics.median(k * r / wl for k, r, wl in zip(works, refs, walls)),
        "solved_frac": solved / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    return dict(metrics=metrics, attempted=attempted, failed=attempted - solved, problems=problems, info=info)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its finished
    children (set-up probes, pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


@dataclass
class Replay:
    record: TrialRecord
    ensemble: object
    y: object
    x0: np.ndarray
    z: np.ndarray
    solver_cfg: SolverConfig
    state: SolverState
    solve_span: dict
    rows_dropped: int


def replay_trial(cfg: ExperimentConfig, tid: int, tracer: Tracer) -> Replay:
    """run_trial's steps as separate public calls, each in a span.  The
    batch CSV rendered from these records must equal run_experiment's, which
    checks that the replay does the same work.  truncated_covariance is
    called once more than run_trial does, to time it apart from
    spectral_init."""
    ms = cfg.master_seed
    with tracer.span("trial", tid):
        rng = np.random.default_rng(derive_seed(ms, tid, SIGNAL_STREAM))
        with tracer.span("sample_unit_vector", tid):
            z = sample_unit_vector(cfg.n, rng)
        ens_seed = derive_seed(ms, tid, ENSEMBLE_STREAM)
        if cfg.model == MODEL_UNITARY:
            with tracer.span("sample_block_unitary", tid):
                ens = sample_block_unitary(cfg.n, cfg.K, ens_seed)
        else:
            with tracer.span("sample_sphere", tid):
                ens = sample_sphere(cfg.n, cfg.m, ens_seed)
        with tracer.span("measure", tid):
            y = measure(ens, z)
        with tracer.span("truncated_covariance", tid):
            _, lam0 = truncated_covariance(ens, y, cfg.truncation_multiplier)
        spec_cfg = SpectralConfig(
            truncation_multiplier=cfg.truncation_multiplier,
            power_iters_max=cfg.power_iters_max,
            power_tol=cfg.power_tol,
            seed=derive_seed(ms, tid, SPECTRAL_STREAM),
        )
        with tracer.span("spectral_init", tid):
            x0 = spectral_init(ens, y, spec_cfg)
        sol_cfg = SolverConfig(
            max_iters=cfg.effective_max_iters,
            tol_aligned_rel=cfg.tol_aligned_rel,
            tol_residual=cfg.tol_residual,
            row_rule=cfg.row_rule,
            zero_threshold=cfg.zero_threshold,
            seed=derive_seed(ms, tid, SOLVER_STREAM),
            history_stride=cfg.history_stride,
        )
        with tracer.span("solve", tid) as solve_span:
            state = solve(ens, y, x0, sol_cfg, z=z)
        rec = TrialRecord(trial_id=tid, seed=derive_seed(ms, tid), n=cfg.n, m=cfg.effective_m, model=cfg.model)
        stride = sol_cfg.history_stride or ens.n
        for k, raw, aligned, res in state.history:
            rec.epochs.append(k / stride)
            rec.raw_errors.append(raw)
            rec.aligned_errors.append(aligned)
            rec.residuals.append(res)
        rec.iterations_run = state.k
        _, rec.final_raw_error, rec.final_aligned_error, rec.final_residual = state.history[-1]
        rec.converged = rec.final_aligned_error <= cfg.tol_aligned_rel * float(np.linalg.norm(z))
        with tracer.span("fit_rate", tid):
            rec.rho_hat = fit_rate(rec)
    dropped = int(np.count_nonzero(y.values > cfg.truncation_multiplier * lam0))
    return Replay(rec, ens, y, x0, z, sol_cfg, state, solve_span, dropped)


def per_call_s(fn, block_s: float = 0.02, blocks: int = 7) -> float:
    """Median over ``blocks`` timed blocks of the time of one call; a block
    repeats the call until it lasts at least ``block_s``."""
    reps = 1
    while True:
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t >= block_s:
            break
        reps *= 2
    times = []
    for _ in range(blocks):
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t) / reps)
    return statistics.median(times)


def split_solves(replays: list[Replay], tracer: Tracer) -> tuple[float, float, float]:
    """Time step, dist_phase_aligned and objective_f on the first trial's
    instance, then give every solve span replayed children: per-call time
    times the exact call count.  In aligned-error mode solve calls step and
    the stopping test once per iteration, plus dist_phase_aligned and
    objective_f once per history sample.  Returns the three per-call
    times in seconds."""
    r0 = replays[0]
    state = SolverState(x=r0.x0.copy(), rng=np.random.default_rng(r0.solver_cfg.seed))
    step_s = per_call_s(lambda: step(state, r0.ensemble, r0.y, r0.solver_cfg))
    dist_s = per_call_s(lambda: dist_phase_aligned(r0.x0, r0.z))
    f_s = per_call_s(lambda: objective_f(r0.ensemble, r0.y, r0.x0))
    for r in replays:
        k, h = r.state.k, len(r.state.history)
        t = r.solve_span["start"]
        for name, dur in (("step", k * step_s), ("dist_phase_aligned", (k + h) * dist_s), ("objective_f", h * f_s)):
            tracer.add(name, t, t + dur, r.solve_span["id"], r.record.trial_id, replayed=True)
            t += dur
    return step_s, dist_s, f_s


def traced_batch(cfg: ExperimentConfig, tracer: Tracer) -> dict:
    """The batch three times: untraced through the process pool (pool
    wall), untraced trial by trial (trial times), traced replay (spans).
    All three must render the same CSV bytes."""
    pool_wall, records, csv = run_batch(cfg, POOL_WORKERS)
    trial_s, serial = [], []
    for tid in range(cfg.num_trials):
        t = time.perf_counter()
        serial.append(run_trial(cfg, tid))
        trial_s.append(time.perf_counter() - t)
    t = time.perf_counter()
    serial_csv = render_csv(serial)
    untraced_wall = sum(trial_s) + time.perf_counter() - t

    t = time.perf_counter()
    replays = [replay_trial(cfg, tid, tracer) for tid in range(cfg.num_trials)]
    with tracer.span("render_csv"):
        replay_csv = render_csv([r.record for r in replays])
    traced_wall = time.perf_counter() - t

    problems = batch_problems(cfg, records)
    if serial_csv != csv:
        problems.append(f"batch master_seed={cfg.master_seed}: pooled CSV differs from a serial run")
    if replay_csv != csv:
        problems.append(f"batch master_seed={cfg.master_seed}: traced replay does not reproduce the batch CSV")
    step_s, dist_s, f_s = split_solves(replays, tracer)

    iterations = sum(r.state.k for r in replays)
    metrics = {
        "solver.step_us": step_s * 1e6,
        "core.dist_phase_aligned_us": dist_s * 1e6,
        "regularity.objective_f_us": f_s * 1e6,
        "solver.iterations": iterations,
        "solver.history_samples": sum(len(r.state.history) for r in replays),
        "solver.us_per_iter": tracer.total("solve") / iterations * 1e6,
        "sensing.sample_s": sum(tracer.total(s) for s in ("sample_unit_vector", "sample_sphere", "sample_block_unitary")),
        "sensing.measure_s": tracer.total("measure"),
        "spectral.truncated_covariance_s": tracer.total("truncated_covariance"),
        "spectral.init_s": tracer.total("spectral_init"),
        "spectral.rows_dropped": sum(r.rows_dropped for r in replays),
        "harness.trial_s_p50": float(np.percentile(trial_s, 50)),
        "harness.trial_s_p90": float(np.percentile(trial_s, 90)),
        "harness.pool_overhead_s": pool_wall - sum(trial_s) / POOL_WORKERS,
        "harness.render_csv_s": tracer.total("render_csv"),
        "harness.csv_bytes": len(csv.encode()),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    info = {
        "trial_s": trial_s,
        "pool_wall_s": pool_wall,
        "untraced_serial_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "csv_sha256": hashlib.sha256(csv.encode()).hexdigest(),
    }
    attempted = len(records)
    return dict(metrics=metrics, attempted=attempted, failed=attempted - solved_trials(records),
                problems=problems, info=info)


def traced_run(w: Workload, seed: int, smoke: bool) -> dict:
    """Fixed work, so counts repeat exactly for a seed: the workload's first
    batch, and estimate_L on its first instance (the first three on an
    estimate workload)."""
    budget = TINY_BUDGET if smoke else BUDGET
    tracer = Tracer()
    out = traced_batch(config(w.batch, seed * 1000), tracer)

    calls = 3 if w.kind == "estimate" else 1
    evaluations = 0
    for rep in range(calls):
        _, report, probs = run_estimate(config(w.instance, seed * 1000 + rep), budget, tracer)
        evaluations += report.evaluations if report is not None else 0
        out["problems"] += probs
        if w.kind == "estimate":
            out["attempted"] += 1
            out["failed"] += bool(probs)
    shape = config(w.instance, 0)
    m, n = shape.effective_m, shape.n
    est_s = tracer.total("estimate_L")
    out["metrics"].update({
        "regularity.estimate_L_s": est_s,
        "regularity.evaluations": evaluations,
        "regularity.us_per_eval": est_s / max(evaluations, 1) * 1e6,
        # computed, not counted: one complex multiply-add per (row, entry) in
        # A^* v, and the complex128 bytes of v in and the m products out
        "regularity.flops": 8 * m * n * evaluations,
        "regularity.bytes": 16 * (m + n) * evaluations,
    })
    out["info"]["self_times"] = tracer.self_times()
    out["info"]["spans"] = tracer.spans
    return out


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "platform": platform.platform(),
        "env": {k: os.environ.get(k) for k in ENV_VARS},
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool, setup_probes_s: list[float]) -> dict:
    """Run one workload; returns the result line (correct, attempted,
    failed, metrics) and writes the full record under .perfbench_out/."""
    w = (TINY if smoke else WORKLOADS)[name]
    warm_up(name, w.kind)
    if trace:
        warm_up(name, "estimate" if w.kind == "batch" else "batch")
    out = traced_run(w, seed, smoke) if trace else measured_run(w, seed, seconds, smoke)
    values = out["metrics"]
    if not trace:
        values["setup_s"] = statistics.median(setup_probes_s)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    env = environment()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
              "environment": env, "problems": out["problems"], "metrics": metrics, "setup_probes_s": setup_probes_s,
              **out["info"]}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    for problem in out["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if trace:
        for span_name, row in sorted(out["info"]["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {span_name:22s} n={row['count']:6d} total={row['total_s']:9.4f}s self={row['self_s']:9.4f}s",
                  file=sys.stderr)
    print(f"record written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return {"correct": not out["problems"], "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics}
