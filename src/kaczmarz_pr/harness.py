"""Experiment driver: seeded trial batches, rate fitting, CSV/JSON output.

Every trial is a pure function of (master_seed, trial_id), so batches can
run serially or on a process pool and produce byte-identical output either
way.  CSV carries the per-epoch error curves; the JSON summary mirrors the
full trial records.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from . import sensing
from .core import dist_phase_aligned
from .seeding import (
    ENSEMBLE_STREAM,
    SIGNAL_STREAM,
    SOLVER_STREAM,
    SPECTRAL_STREAM,
    derive_seed,
)
from .solver import SolverConfig, solve
from .spectral import SpectralConfig, spectral_init

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TrialRecord",
    "run_trial",
    "run_experiment",
    "fit_rate",
    "write_csv",
    "render_csv",
    "summary_dict",
    "write_summary_json",
    "write_text",
    "setting_fields",
    "apply_settings",
    "parse_config_file",
    "load_signal",
    "THREADS_ENV",
]

THREADS_ENV = "PR_KACZMARZ_THREADS"

_RATE_FLOOR = 1e-14


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass
class ExperimentConfig:
    """One experiment batch.  Each field is a config-file key (see
    ``apply_settings``); the solver and initializer settings default to
    those of ``SolverConfig`` and ``SpectralConfig``."""

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

    def validate(self) -> None:
        # numpy scalars built in code become Python ones, which JSON accepts
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.generic):
                setattr(self, f.name, value.item())
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.num_trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        if self.model == sensing.MODEL_SPHERE:
            if self.m is None or self.m < 1:
                raise ConfigError("sphere model needs m >= 1")
        elif self.model == sensing.MODEL_UNITARY:
            if self.K is None or self.K < 1:
                raise ConfigError("unitary model needs K >= 1")
        else:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.signal is not None and np.asarray(self.signal).shape != (self.n,):
            raise ConfigError("provided signal has wrong dimension")
        if self.signal is not None and not np.all(np.isfinite(self.signal)):
            raise ConfigError("provided signal must be finite")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.output_format!r}")
        try:
            self.solver_config(0)
            self.spectral_config(0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def solver_config(self, seed: int) -> SolverConfig:
        return SolverConfig(
            max_iters=self.effective_max_iters,
            tol_aligned_rel=self.tol_aligned_rel,
            tol_residual=self.tol_residual,
            row_rule=self.row_rule,
            zero_threshold=self.zero_threshold,
            seed=seed,
            history_stride=self.history_stride,
        )

    def spectral_config(self, seed: int) -> SpectralConfig:
        return SpectralConfig(
            truncation_multiplier=self.truncation_multiplier,
            power_iters_max=self.power_iters_max,
            power_tol=self.power_tol,
            seed=seed,
        )

    def sample_ensemble(self, seed: int):
        """The sensing ensemble of this config's model, drawn from ``seed``."""
        if self.model == sensing.MODEL_UNITARY:
            return sensing.sample_block_unitary(self.n, self.K, seed)
        return sensing.sample_sphere(self.n, self.m, seed)

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
    init_aligned_error: float = math.nan
    init_aligned_error_normalized: float = math.nan
    iterations_run: int = 0
    converged: bool = False
    final_aligned_error: float = math.nan
    final_raw_error: float = math.nan
    final_residual: float = math.nan
    epochs: list = field(default_factory=list)
    aligned_errors: list = field(default_factory=list)
    raw_errors: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    rho_hat: float | None = None

    def to_dict(self) -> dict:
        """Every field; non-finite floats (the unset errors of a failed
        trial) become None, since JSON has no NaN."""
        return {key: _json_value(value) for key, value in asdict(self).items()}


def _json_value(value):
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def fit_rate(record: TrialRecord) -> float | None:
    """Per-epoch contraction ratio: exp of the least-squares slope of
    log(aligned error) against epoch index, using samples above 1e-14.
    None (and rho_hat stays unset) when fewer than 3 samples qualify."""
    epochs = np.asarray(record.epochs, dtype=float)
    errs = np.asarray(record.aligned_errors, dtype=float)
    usable = np.isfinite(errs) & (errs > _RATE_FLOOR)
    if int(np.count_nonzero(usable)) < 3:
        return None
    slope = np.polyfit(epochs[usable], np.log(errs[usable]), 1)[0]
    return float(np.exp(slope))


def _signal_for_trial(cfg: ExperimentConfig, trial_id: int) -> np.ndarray:
    if cfg.signal is not None:
        return np.asarray(cfg.signal, dtype=complex)
    rng = np.random.default_rng(derive_seed(cfg.master_seed, trial_id, SIGNAL_STREAM))
    return sensing.sample_unit_vector(cfg.n, rng)


def run_trial(cfg: ExperimentConfig, trial_id: int) -> TrialRecord:
    """One seeded trial: sample signal and ensemble, measure, initialize
    spectrally, solve, fit the rate.  A numerical failure (ValueError,
    RuntimeError, ArithmeticError) is captured in the record, never
    dropped; any other exception is a bug and propagates."""
    seed = derive_seed(cfg.master_seed, trial_id)
    rec = TrialRecord(
        trial_id=trial_id,
        seed=seed,
        n=cfg.n,
        m=cfg.effective_m,
        model=cfg.model,
    )
    try:
        z = _signal_for_trial(cfg, trial_id)
        ensemble = cfg.sample_ensemble(derive_seed(cfg.master_seed, trial_id, ENSEMBLE_STREAM))
        y = sensing.measure(ensemble, z)
        spec_cfg = cfg.spectral_config(derive_seed(cfg.master_seed, trial_id, SPECTRAL_STREAM))
        x0 = spectral_init(ensemble, y, spec_cfg)

        nz = float(np.linalg.norm(z))
        rec.init_aligned_error = dist_phase_aligned(x0, z).aligned
        x0_normalized = x0 * (nz / float(np.linalg.norm(x0)))
        rec.init_aligned_error_normalized = dist_phase_aligned(x0_normalized, z).aligned

        sol_cfg = cfg.solver_config(derive_seed(cfg.master_seed, trial_id, SOLVER_STREAM))
        state = solve(ensemble, y, x0, sol_cfg, z=z)

        for k, raw, aligned, res in state.history:
            rec.epochs.append(k / ensemble.n)
            rec.raw_errors.append(raw)
            rec.aligned_errors.append(aligned)
            rec.residuals.append(res)
        rec.iterations_run = state.k
        _, raw, aligned, res = state.history[-1]
        rec.final_raw_error = raw
        rec.final_aligned_error = aligned
        rec.final_residual = res
        rec.converged = sol_cfg.converged(aligned, res, nz)
        rec.rho_hat = fit_rate(rec)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        rec.failed = True
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def _trial_worker(args) -> TrialRecord:
    cfg, trial_id = args
    return run_trial(cfg, trial_id)


def _worker_count(workers: int | None) -> int:
    source = "workers"
    if workers is None:
        source = THREADS_ENV
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if workers < 0:
        raise ConfigError(f"{source} must be >= 0, got {workers}")
    return workers or os.cpu_count() or 1


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> list[TrialRecord]:
    """Run all trials; ``workers`` falls back to the PR_KACZMARZ_THREADS
    environment variable (unset -> serial, 0 -> all cores, negative ->
    ConfigError).  Output order and content are independent of the worker
    count."""
    cfg.validate()
    nworkers = _worker_count(workers)
    ids = list(range(cfg.num_trials))
    if nworkers == 1 or cfg.num_trials == 1:
        records = [run_trial(cfg, tid) for tid in ids]
    else:
        with ProcessPoolExecutor(max_workers=min(nworkers, cfg.num_trials)) as pool:
            records = list(pool.map(_trial_worker, [(cfg, tid) for tid in ids]))
    records.sort(key=lambda r: r.trial_id)
    return records


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


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def render_csv(records: list[TrialRecord]) -> str:
    """Fixed-schema CSV: one row per (trial, epoch sample), then one summary
    row per trial repeating the final state (always the last row of the
    trial's block).  Deterministic byte-for-byte given the records."""
    lines = [",".join(_CSV_COLUMNS)]
    for rec in records:
        prefix = f"{rec.trial_id},{rec.seed},{rec.n},{rec.m},{rec.model}"
        for ep, al, raw, res in zip(
            rec.epochs, rec.aligned_errors, rec.raw_errors, rec.residuals
        ):
            lines.append(f"{prefix},{_fmt(ep)},{_fmt(al)},{_fmt(raw)},{_fmt(res)}")
        n = max(rec.n, 1)
        summary_epoch = rec.iterations_run / n
        lines.append(
            f"{prefix},{_fmt(summary_epoch)},{_fmt(rec.final_aligned_error)},"
            f"{_fmt(rec.final_raw_error)},{_fmt(rec.final_residual)}"
        )
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    """The one writer of output files.  Callers render the whole text
    first, so a failed render leaves no file behind."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_csv(records: list[TrialRecord], path) -> None:
    write_text(path, render_csv(records))


def summary_dict(cfg: ExperimentConfig, records: list[TrialRecord]) -> dict:
    side_condition = None
    if cfg.model == sensing.MODEL_UNITARY:
        m = cfg.effective_m
        side_condition = bool(math.sqrt(cfg.n) > math.log(m) ** 2)
    # every field but where the output goes, so the block reproduces the run;
    # a signal is written the way load_signal reads it
    config = asdict(cfg)
    del config["output_path"], config["output_format"]
    if cfg.signal is not None:
        config["signal"] = {"re": np.real(cfg.signal).tolist(), "im": np.imag(cfg.signal).tolist()}
    config.update(
        m=cfg.effective_m,
        max_iters=cfg.effective_max_iters,
        signal_mode="random" if cfg.signal is None else "provided",
    )
    return {
        "config": config,
        "unitary_side_condition_sqrt_n_gt_log_sq_m": side_condition,
        "trials": [r.to_dict() for r in records],
    }


def write_summary_json(cfg: ExperimentConfig, records: list[TrialRecord], path) -> None:
    text = json.dumps(summary_dict(cfg, records), indent=2, sort_keys=True, allow_nan=False)
    write_text(path, text + "\n")


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
    """A validated copy of ``cfg`` with each {config key: text} setting
    applied; ``cfg=None`` starts from the field defaults.

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
        out = replace(cfg, **updates)
    else:
        required = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]
        missing = [name for name in required if name not in updates]
        if missing:
            raise ConfigError(f"config must set {', '.join(missing)}")
        out = ExperimentConfig(**updates)
    out.validate()
    return out


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
