"""Command-line interface.

Subcommands:
  run         run a seeded experiment batch from a config file
  verify      run the invariant + Monte-Carlo verification suite
  estimate-l  lower and upper bounds on the regularity constant

Exit codes: 0 success, 1 failed verification or a failed trial in ``run``,
2 malformed config/arguments or a size that cannot be allocated.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .harness import (
    ConfigError,
    apply_settings,
    parse_config_file,
    render_csv,
    render_json,
    run_experiment,
    summary_dict,
    write_text,
)
from .regularity import RegularityParams, estimate_L
from .sensing import sample_unit_vector
from .seeding import derive_seed
from .verify import run_verification

# config keys that `run` and `estimate-l` take as flags, read like the
# config file's values: --max-iters sets max_iters, --seed sets master_seed
_RUN_FLAG_KEYS = ("n", "m", "K", "model", "trials", "master_seed", "max_iters", "out", "format")
_ESTIMATE_FLAG_KEYS = ("n", "m", "K", "model", "master_seed", "out")


def _add_setting_flags(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        flag = "--seed" if key == "master_seed" else "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, help=f"sets config key {key}")


def _settings(args, keys) -> dict[str, str]:
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _check_output_path(path: str) -> None:
    """Refuse an output path that cannot be written, before any work runs."""
    directory = os.path.dirname(path) or "."
    if not path or os.path.isdir(path):
        raise ConfigError(f"output path {path!r} is not a file name")
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory!r} does not exist")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaczmarz-pr",
        description="Phase retrieval by randomized row projections: experiments and diagnostics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment batch from a config file")
    run_p.add_argument("--config", required=True, help="key = value config file")
    _add_setting_flags(run_p, _RUN_FLAG_KEYS)

    ver_p = sub.add_parser("verify", help="run the verification suite")
    ver_p.add_argument("--trials", type=int, default=100_000)
    ver_p.add_argument("--seed", type=int, default=0)

    est_p = sub.add_parser("estimate-l", help="regularity-constant report")
    _add_setting_flags(est_p, _ESTIMATE_FLAG_KEYS)
    est_p.add_argument("--alpha", type=float, required=True)
    est_p.add_argument("--c0", type=float, default=None, help="default 1/(4 alpha)")
    est_p.add_argument(
        "--budget", type=int, default=RegularityParams.net_or_samples, help="direction-search budget"
    )
    return parser


def _cmd_run(args) -> int:
    cfg = apply_settings(parse_config_file(args.config), _settings(args, _RUN_FLAG_KEYS))
    if cfg.output_path is None:
        raise ConfigError("no output path: set out= in the config or pass --out")
    _check_output_path(cfg.output_path)
    records = run_experiment(cfg)
    if cfg.output_format == "json":
        text = render_json(summary_dict(cfg, records))
    else:
        text = render_csv(records)
    write_text(cfg.output_path, text)
    converged = sum(1 for r in records if r.converged)
    failed = sum(1 for r in records if r.failed)
    print(
        f"{len(records)} trials: {converged} converged, {failed} failed; "
        f"wrote {cfg.output_path}"
    )
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
    if args.trials < 1:
        raise ConfigError("trials must be >= 1")
    results, ok = run_verification(args.trials, args.seed)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


def _cmd_estimate_l(args) -> int:
    cfg = apply_settings(None, _settings(args, _ESTIMATE_FLAG_KEYS))
    if cfg.output_path:
        _check_output_path(cfg.output_path)
    if args.budget < 1:  # RegularityParams would name it net_or_samples
        raise ConfigError("--budget must be >= 1")
    # c0 defaults to 1/(4 alpha); RegularityParams rejects an alpha <= 1 first
    c0 = args.c0 if args.c0 is not None else 1.0 / (4.0 * max(args.alpha, 1.0))
    try:
        params = RegularityParams(
            c0=c0, alpha=args.alpha, net_or_samples=args.budget, seed=cfg.master_seed
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        ensemble = cfg.sample_ensemble(derive_seed(cfg.master_seed, 1))
        z = sample_unit_vector(cfg.n, derive_seed(cfg.master_seed, 2))
        report = estimate_L(ensemble, z, params)
    except ValueError as exc:  # a size numpy refuses, or an alpha whose terms overflow at this m
        raise ConfigError(str(exc)) from exc
    text = render_json(report)
    if cfg.output_path:
        write_text(cfg.output_path, text)
        print(f"wrote {cfg.output_path}")
    else:
        print(text, end="")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"run": _cmd_run, "verify": _cmd_verify, "estimate-l": _cmd_estimate_l}[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size numpy accepts but cannot allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
