"""Benchmark of the kaczmarz-pr package, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` (no
install step).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``.  A full record of the run (environment, samples, spans) is
written under ``.perfbench_out/``.  See perfbench/README.md.

This file imports only the standard library, so that a fresh interpreter
running it with ``--setup-probe`` can time the import of numpy and the
package as part of set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0, help="measured time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny problem sizes, for the smoke test")
    p.add_argument("--setup-probe", action="store_true",
                   help="time import plus one warm-up call in this fresh process, print seconds")
    return p


def setup_probes(workload: str) -> list[float]:
    """Seconds of import plus one warm-up call, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kaczmarz_pr", "__init__.py")):
        print(f"error: package source not found under {os.path.relpath(SRC)}/kaczmarz_pr; "
              "run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    if args.setup_probe:
        t0 = time.perf_counter()
        import bench

        bench.warm_up(args.workload, bench.WORKLOADS[args.workload].kind)
        print(time.perf_counter() - t0)
        return 0

    setup_s = [] if args.trace else setup_probes(args.workload)
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, setup_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
