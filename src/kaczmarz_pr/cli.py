"""Command-line interface.

Subcommands:
  run         run a seeded experiment batch from a config file
  verify      run the invariant + Monte-Carlo verification suite
  estimate-l  direction-search report for the regularity constant

Exit codes: 0 success, 1 failed verification or a failed trial in ``run``,
2 malformed config/arguments.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .harness import (
    ConfigError,
    apply_settings,
    parse_config_file,
    run_experiment,
    write_csv,
    write_summary_json,
)
from .regularity import RegularityParams, estimate_L
from .sensing import MODEL_SPHERE, MODEL_UNITARY, sample_block_unitary, sample_sphere, sample_unit_vector
from .seeding import derive_seed
from .verify import run_verification

# config keys that `run` takes as flags, applied after the config file's
# values: --max-iters sets max_iters, --seed sets master_seed
_RUN_FLAG_KEYS = ("n", "m", "K", "model", "trials", "master_seed", "max_iters", "out", "format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaczmarz-pr",
        description="Phase retrieval by randomized row projections: experiments and diagnostics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment batch from a config file")
    run_p.add_argument("--config", required=True, help="key = value config file")
    for key in _RUN_FLAG_KEYS:
        flag = "--seed" if key == "master_seed" else "--" + key.replace("_", "-")
        run_p.add_argument(flag, dest=key, help=f"sets config key {key}")

    ver_p = sub.add_parser("verify", help="run the verification suite")
    ver_p.add_argument("--trials", type=int, default=100_000)
    ver_p.add_argument("--seed", type=int, default=0)

    est_p = sub.add_parser("estimate-l", help="regularity-constant report")
    est_p.add_argument("--n", type=int, required=True)
    est_p.add_argument("--m", type=int, default=None, help="rows (sphere model)")
    est_p.add_argument("--K", type=int, default=None, help="blocks (unitary model)")
    est_p.add_argument("--model", choices=(MODEL_SPHERE, MODEL_UNITARY), default=MODEL_SPHERE)
    est_p.add_argument("--alpha", type=float, required=True)
    est_p.add_argument("--c0", type=float, default=None, help="default 1/(4 alpha)")
    est_p.add_argument("--budget", type=int, default=2048, help="direction-search budget")
    est_p.add_argument("--seed", type=int, default=0)
    est_p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    return parser


def _cmd_run(args) -> int:
    flags = {key: getattr(args, key) for key in _RUN_FLAG_KEYS if getattr(args, key) is not None}
    try:
        cfg = apply_settings(parse_config_file(args.config), flags)
        if cfg.output_path is None:
            raise ConfigError("no output path: set out= in the config or pass --out")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = run_experiment(cfg)
    if cfg.output_format == "json":
        write_summary_json(cfg, records, cfg.output_path)
    else:
        write_csv(records, cfg.output_path)
    converged = sum(1 for r in records if r.converged)
    failed = sum(1 for r in records if r.failed)
    print(
        f"{len(records)} trials: {converged} converged, {failed} failed; "
        f"wrote {cfg.output_path}"
    )
    return 1 if failed else 0


def _cmd_verify(args) -> int:
    results, ok = run_verification(args.trials, args.seed)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


def _cmd_estimate_l(args) -> int:
    c0 = args.c0 if args.c0 is not None else 1.0 / (4.0 * args.alpha)
    try:
        params = RegularityParams(c0=c0, alpha=args.alpha, net_or_samples=args.budget, seed=args.seed)
        if args.model == MODEL_UNITARY:
            if args.K is None:
                raise ConfigError("unitary model needs --K")
            ensemble = sample_block_unitary(args.n, args.K, derive_seed(args.seed, 1))
        else:
            if args.m is None:
                raise ConfigError("sphere model needs --m")
            ensemble = sample_sphere(args.n, args.m, derive_seed(args.seed, 1))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    z = sample_unit_vector(args.n, derive_seed(args.seed, 2))
    report = estimate_L(ensemble, z, params)
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_estimate_l(args)


if __name__ == "__main__":
    sys.exit(main())
