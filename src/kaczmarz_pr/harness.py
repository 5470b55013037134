"""Experiment driver: seeded trial batches, rate fitting, CSV/JSON output.

Every trial is a pure function of (master_seed, trial_id), so batches can
run serially or on a process pool, in groups of any size, and produce
byte-identical output either way.  CSV carries the per-epoch error
curves; the JSON summary mirrors the full trial records.  ``render_json``
is the package's one JSON encoder.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import closing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from itertools import repeat
from typing import get_args, get_type_hints

import numpy as np

from . import blas, sensing
from .core import check_vector
from .seeding import (
    ENSEMBLE_STREAM,
    SIGNAL_STREAM,
    SOLVER_STREAM,
    SPECTRAL_STREAM,
    check_int,
    derive_seed,
)
from .solver import SolverConfig, solve_group
from .spectral import SpectralConfig, spectral_init

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TrialRecord",
    "run_trial",
    "run_experiment",
    "fit_rate",
    "render_csv",
    "render_json",
    "summary_dict",
    "write_text",
    "setting_fields",
    "apply_settings",
    "parse_config_file",
    "load_signal",
    "THREADS_ENV",
]

THREADS_ENV = "PR_KACZMARZ_THREADS"

# bytes of ensembles that one group of trials holds at once: the groups
# that ``run_experiment`` solves in lockstep
_GROUP_BYTES = 16 * 1024 * 1024

_RATE_FLOOR = 1e-14


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment batch, checked at construction (``ConfigError``).
    Each field is a config-file key (see ``apply_settings``); the solver
    and initializer settings are handed to ``SolverConfig`` and
    ``SpectralConfig`` by name, and default to theirs."""

    n: int
    model: str = sensing.MODEL_SPHERE
    m: int | None = None  # sphere model
    K: int | None = None  # unitary model (m = K * n)
    num_trials: int = 1
    master_seed: int = 0
    max_iters: int | None = None  # None -> 200 * n
    tol_aligned_rel: float | None = 1e-8
    tol_residual: float | None = None
    row_rule: str = SolverConfig.row_rule
    zero_threshold: float = SolverConfig.zero_threshold
    history_stride: int | None = None
    truncation_multiplier: float = SpectralConfig.truncation_multiplier
    power_iters_max: int = SpectralConfig.power_iters_max
    power_tol: float = SpectralConfig.power_tol
    signal: np.ndarray | None = None  # None -> a random unit signal per trial
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        if self.model not in (sensing.MODEL_SPHERE, sensing.MODEL_UNITARY):
            raise ConfigError(f"unknown model {self.model!r}")
        size = "K" if self.model == sensing.MODEL_UNITARY else "m"
        if getattr(self, size) is None:
            raise ConfigError(f"{self.model} model needs {size} >= 1")
        try:
            for key, value, low in (("n", self.n, 1), ("trials", self.num_trials, 1),
                                    ("master_seed", self.master_seed, 0), (size, getattr(self, size), 1)):
                check_int(key, value, low)
            self.solver_config(0)
            self.spectral_config(0)
            if self.signal is not None:  # a read-only copy, which the caller's array cannot change
                signal = np.array(check_vector("signal", self.signal, self.n))
                object.__setattr__(self, "signal", sensing._freeze(signal))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.output_format!r}")

    def solver_config(self, seed: int) -> SolverConfig:
        return self._settings_of(SolverConfig, max_iters=self.effective_max_iters, seed=seed)

    def spectral_config(self, seed: int) -> SpectralConfig:
        return self._settings_of(SpectralConfig, seed=seed)

    def _settings_of(self, cls, **given):
        """A ``cls`` built from ``given`` and, for each of its other fields,
        this config's field of the same name."""
        names = {f.name for f in fields(cls)} - given.keys()
        return cls(**{name: getattr(self, name) for name in names}, **given)

    def sample_ensemble(self, seed: int, fill: np.ndarray | None = None):
        """The sensing ensemble of this config's model at ``seed``, built
        from its normal fill where the caller drew it (``sensing.draw_ahead``)."""
        return sensing._sample(self.model, self.n, self.effective_m, seed, fill)

    @property
    def effective_m(self) -> int:
        if self.model == sensing.MODEL_UNITARY:
            return self.K * self.n
        return self.m

    @property
    def effective_max_iters(self) -> int:
        return self.max_iters if self.max_iters is not None else 200 * self.n


@dataclass
class TrialRecord:
    trial_id: int
    seed: int
    n: int
    m: int
    model: str
    failed: bool = False
    error: str = ""
    iterations_run: int = 0
    converged: bool = False
    epochs: list = field(default_factory=list)
    aligned_errors: list = field(default_factory=list)
    raw_errors: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    rho_hat: float | None = None


def fit_rate(record: TrialRecord) -> float | None:
    """Per-epoch contraction ratio: exp of the least-squares slope of
    log(aligned error) against epoch index, using the samples above 1e-14
    times the record's largest finite aligned error, so that the fit does
    not depend on the scale of the signal.  None (and rho_hat stays unset)
    when fewer than 3 samples qualify."""
    epochs = np.asarray(record.epochs, dtype=float)
    errs = np.asarray(record.aligned_errors, dtype=float)
    finite = np.isfinite(errs)
    usable = finite & (errs > _RATE_FLOOR * np.max(errs, where=finite, initial=0.0))
    if int(np.count_nonzero(usable)) < 3:
        return None
    slope = np.polyfit(epochs[usable], np.log(errs[usable]), 1)[0]
    return float(np.exp(slope))


def _signal_for_trial(cfg: ExperimentConfig, trial_id: int) -> np.ndarray:
    if cfg.signal is not None:
        return cfg.signal
    rng = np.random.default_rng(derive_seed(cfg.master_seed, trial_id, SIGNAL_STREAM))
    return sensing.sample_unit_vector(cfg.n, rng)


def run_trial(cfg: ExperimentConfig, trial_id: int) -> TrialRecord:
    """One seeded trial: sample signal and ensemble, measure, initialize
    spectrally, solve, fit the rate.  A numerical failure (ValueError,
    RuntimeError, ArithmeticError) is captured in the record, never
    dropped; any other exception is a bug and propagates.  The group of
    one: ``run_experiment`` gives the same record in any group."""
    return _run_group(cfg, [trial_id])[0]


_FAILURES = (ValueError, RuntimeError, ArithmeticError)


@blas.one_thread()
def _run_group(cfg: ExperimentConfig, trial_ids, fills=None) -> list[TrialRecord]:
    """``run_trial`` for each id, with the solves in lockstep
    (``solve_group``); a trial that fails leaves the others' records
    unchanged.  ``fills``, where given, yields each trial's (ensemble seed,
    normal fill) in turn (``sensing.draw_ahead``); a fill of another seed
    raises LookupError, and ``sample_ensemble`` draws a None fill itself.
    It holds OpenBLAS at one thread (``blas.one_thread``), so ``run_trial``
    and a pool worker do, however the worker was started."""
    records, problems, started = [], [], []
    for trial_id in trial_ids:
        seed = derive_seed(cfg.master_seed, trial_id)
        rec = TrialRecord(trial_id=trial_id, seed=seed, n=cfg.n, m=cfg.effective_m, model=cfg.model)
        records.append(rec)
        ens_seed = derive_seed(cfg.master_seed, trial_id, ENSEMBLE_STREAM)
        fill_seed, fill = (ens_seed, None) if fills is None else next(fills)
        if fill_seed != ens_seed:
            raise LookupError(f"trial {trial_id} has ensemble seed {ens_seed}, not the fill's {fill_seed}")
        try:
            z = _signal_for_trial(cfg, trial_id)
            ensemble = cfg.sample_ensemble(ens_seed, fill)
            y = sensing.measure(ensemble, z)
            spec_cfg = cfg.spectral_config(derive_seed(cfg.master_seed, trial_id, SPECTRAL_STREAM))
            x0 = spectral_init(ensemble, y, spec_cfg)
            sol_cfg = cfg.solver_config(derive_seed(cfg.master_seed, trial_id, SOLVER_STREAM))
        except _FAILURES as exc:
            _fail(rec, exc)
            continue
        problems.append((ensemble, y, x0, sol_cfg, z))
        started.append(rec)
    for rec, (_, _, _, sol_cfg, z), state in zip(started, problems, solve_group(problems)):
        for k, raw, aligned, res in state.history:
            rec.epochs.append(k / cfg.n)
            rec.raw_errors.append(raw)
            rec.aligned_errors.append(aligned)
            rec.residuals.append(res)
        rec.iterations_run = state.k
        nz = float(np.linalg.norm(z))
        rec.converged = sol_cfg.converged(rec.aligned_errors[-1], rec.residuals[-1], nz)
        try:
            rec.rho_hat = fit_rate(rec)
        except _FAILURES as exc:
            _fail(rec, exc)
    return records


def _fail(rec: TrialRecord, exc: Exception) -> None:
    rec.failed = True
    rec.error = f"{type(exc).__name__}: {exc}"


def _trial_groups(cfg: ExperimentConfig) -> list[range]:
    """The batch's trial ids in consecutive groups of balanced sizes, as
    many trials in each as have ensembles of ``_GROUP_BYTES`` in all, and
    at least one."""
    per_group = max(1, _GROUP_BYTES // (16 * cfg.effective_m * cfg.n))
    count = -(-cfg.num_trials // per_group)
    cuts = [cfg.num_trials * g // count for g in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _worker_count(workers: int | None) -> int:
    source = "workers"
    if workers is None:
        source = THREADS_ENV
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    try:
        check_int(source, workers, 0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if workers:
        return workers
    if hasattr(os, "sched_getaffinity"):  # the cores this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> list[TrialRecord]:
    """Run all trials, one group of ``_trial_groups`` at a time, each
    solved in lockstep; ``workers`` falls back to the PR_KACZMARZ_THREADS
    environment variable (unset -> serial, 0 -> all cores, negative ->
    ConfigError), and a pool maps the same groups.  Both maps return the
    records in trial order, each equal to ``run_trial``'s, so their content
    is independent of the grouping and of the worker count.  The whole run
    holds OpenBLAS at one thread (``blas.one_thread``), and so does each
    group, in this process or a worker's.  A serial run holds the
    ``sensing.draw_ahead`` generator of every trial's ensemble and passes
    it to each group, so the next trial's normal draws are made on a
    thread of their own."""
    nworkers = _worker_count(workers)
    groups = _trial_groups(cfg)
    with blas.one_thread():
        if nworkers == 1 or len(groups) == 1:
            seeds = [derive_seed(cfg.master_seed, t, ENSEMBLE_STREAM) for t in range(cfg.num_trials)]
            with closing(sensing.draw_ahead(cfg.model, cfg.n, cfg.effective_m, seeds)) as fills:
                return [rec for group in groups for rec in _run_group(cfg, group, fills)]
        from concurrent.futures import ProcessPoolExecutor  # only pooled runs load multiprocessing

        with ProcessPoolExecutor(max_workers=min(nworkers, len(groups))) as pool:
            return [rec for group in pool.map(_run_group, repeat(cfg), groups) for rec in group]


# ---------------------------------------------------------------------------
# output


_CSV_COLUMNS = (
    "trial_id",
    "seed",
    "n",
    "m",
    "model",
    "epoch",
    "aligned_error",
    "raw_error",
    "residual",
)


def render_csv(records: list[TrialRecord]) -> str:
    """Fixed-schema CSV: one row per (trial, epoch sample), then one summary
    row per trial that repeats its last sample row, the final state; a
    trial without samples (a failed one) gets iterations_run / n and NaN
    errors.  Deterministic byte-for-byte given the records."""
    lines = [",".join(_CSV_COLUMNS)]
    for rec in records:
        prefix = f"{rec.trial_id},{rec.seed},{rec.n},{rec.m},{rec.model}"
        rows = [
            f"{prefix},{ep:.17g},{al:.17g},{raw:.17g},{res:.17g}"
            for ep, al, raw, res in zip(
                rec.epochs, rec.aligned_errors, rec.raw_errors, rec.residuals
            )
        ]
        lines += rows + (rows[-1:] or [f"{prefix},{rec.iterations_run / rec.n:.17g},nan,nan,nan"])
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    """The one writer of output files.  Callers render the whole text
    first, so a failed render leaves no file behind."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def summary_dict(cfg: ExperimentConfig, records: list[TrialRecord]) -> dict:
    """The run summary in the form ``render_json`` writes: the config
    block, the unitary side condition and every trial record."""
    side_condition = None
    if cfg.model == sensing.MODEL_UNITARY:
        side_condition = math.sqrt(cfg.n) > math.log(cfg.effective_m) ** 2
    # every field but where the output goes, so the block reproduces the run
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    del config["output_path"], config["output_format"]
    config.update(
        m=cfg.effective_m,
        max_iters=cfg.effective_max_iters,
        signal_mode="random" if cfg.signal is None else "provided",
    )
    payload = {"config": config, "trials": records}
    payload["unitary_side_condition_sqrt_n_gt_log_sq_m"] = side_condition
    return _plain(payload)


def _plain(value):
    """``value`` as JSON types: a dataclass becomes its fields, a numpy
    scalar a Python one, an array the signal-file object {"re", "im"} that
    ``load_signal`` reads, and a non-finite float None, since JSON has no
    NaN."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return {"re": _plain(value.real.tolist()), "im": _plain(value.imag.tolist())}
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def render_json(payload) -> str:
    """The package's one JSON encoder: ``payload`` walked into JSON
    types (see ``_plain``), written with indent 2, sorted keys and a
    trailing newline."""
    return json.dumps(_plain(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# settings: config-file "key = value" lines and `run` flags


# fields whose config-file key is not their own name
_FIELD_KEYS = {
    "num_trials": "trials",
    "output_path": "out",
    "output_format": "format",
    "signal": "signal_path",
}


def load_signal(path) -> np.ndarray:
    """Signal file: JSON object with 're' and 'im' lists."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"signal file {path} needs 're' and 'im' lists") from exc
    if re.shape != im.shape or re.ndim != 1:
        raise ConfigError(f"signal file {path} has mismatched re/im lists")
    return re + 1j * im


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


# how a value of each field type is read from its text; a signal is read
# from the file the text names
_READERS = {int: int, float: _finite_float, str: str, np.ndarray: load_signal}


def setting_fields(cls=ExperimentConfig) -> dict[str, tuple[str, type, bool]]:
    """{config key: (field name, value type, accepts none)} for every field
    of ``cls``, from its type annotations."""
    out = {}
    for name, hint in get_type_hints(cls).items():
        args = get_args(hint)
        optional = type(None) in args
        typ = next(a for a in args if a is not type(None)) if optional else hint
        out[_FIELD_KEYS.get(name, name)] = (name, typ, optional)
    return out


def apply_settings(cfg: ExperimentConfig | None, settings: dict[str, str]) -> ExperimentConfig:
    """A copy of ``cfg`` with each {config key: text} setting applied,
    checked as it is built; ``cfg=None`` starts from the field defaults.

    Each text is read as its field's type, and ``none`` unsets an optional
    field.  Setting tol_residual without tol_aligned_rel switches the stop
    rule to the residual, since exactly one tolerance may be set.
    """
    known = setting_fields(ExperimentConfig if cfg is None else type(cfg))
    updates = {}
    for key, text in settings.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        name, typ, optional = known[key]
        if optional and text.lower() == "none":
            updates[name] = None
            continue
        try:
            updates[name] = _READERS[typ](text)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from exc
    if "tol_residual" in updates and "tol_aligned_rel" not in updates:
        updates["tol_aligned_rel"] = None
    if cfg is not None:
        return replace(cfg, **updates)
    required = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]
    missing = [name for name in required if name not in updates]
    if missing:
        raise ConfigError(f"config must set {', '.join(missing)}")
    return ExperimentConfig(**updates)


def parse_config_file(path) -> ExperimentConfig:
    """Parse the key = value experiment format (see README for the keys)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return apply_settings(None, raw)
