"""The golden byte manifest: the sha256 of every output that the byte
contract covers, at small fixed shapes.

``test_golden.py`` recomputes the run and estimate-l digests, and
``test_cli.py`` the verify digest, against ``golden_manifest.json``.  Output bytes depend on the numpy and BLAS builds,
so the manifest records both and the tests fail on another build.  A change
that moves output bytes regenerates the manifest and records its diff once;
the tool prints one ``name: old → new`` line (8 hex digits each) for every
digest it changes:

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from kaczmarz_pr.cli import main
from kaczmarz_pr.harness import ExperimentConfig, render_csv, render_json, run_experiment, summary_dict

MANIFEST = Path(__file__).with_name("golden_manifest.json")

_BASE = ExperimentConfig(n=8, m=120, num_trials=3, master_seed=17)

# each batch runs serially and with workers=2, and both give these bytes
BATCHES = {
    "sphere_aligned": _BASE,
    "unitary_stride7": replace(_BASE, model="unitary", m=None, K=12, history_stride=7),
    "residual": replace(_BASE, tol_aligned_rel=None, tol_residual=1e-20),
    "max_iters_cut": replace(_BASE, max_iters=50),
    "failed_zero_signal": replace(_BASE, signal=np.zeros(8, dtype=complex)),
    "provided_signal": replace(_BASE, signal=np.linspace(0.1, 0.8, 8) + 0.3j),
}

ESTIMATE_L = {
    "estimate-l sphere": ["estimate-l", "--n", "8", "--m", "160", "--alpha", "20", "--seed", "1"],
    "estimate-l unitary": ["estimate-l", "--model", "unitary", "--n", "4", "--K", "10", "--alpha", "600"],
    # 1,221 rows in W: the random stage sums each gap over three spans
    "estimate-l sphere spans": ["estimate-l", "--n", "16", "--m", "2000", "--alpha", "20", "--seed", "2", "--budget", "256"],
    # W is empty (criterion 10's regime): P has no columns, 8 sweeps
    "estimate-l sphere empty W": ["estimate-l", "--n", "8", "--m", "160", "--alpha", "20", "--c0", "1e-6", "--seed", "1"],
    # n = 1: one frame axis, one move pair per sweep
    "estimate-l n1": ["estimate-l", "--n", "1", "--m", "40", "--alpha", "20", "--seed", "3", "--budget", "64"],
    # the benchmark's instance at master seed 3000: every random candidate's
    # float32 bound is above the descent's best, so no tile is scored exactly
    "estimate-l bench shape": ["estimate-l", "--n", "50", "--m", "2000", "--alpha", "20", "--seed", "3000", "--budget", "256"],
    # 204 of the 512 random candidates, in tiles of 204, are scored exactly
    "estimate-l unitary screened": [
        "estimate-l", "--model", "unitary", "--n", "4", "--K", "40", "--alpha", "20", "--c0", "0.1", "--seed", "1", "--budget", "512",
    ],
}

VERIFY = "verify --trials 100000 --seed 7"


def versions() -> dict:
    """The numpy version and the BLAS build it links."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def batch_texts(cfg: ExperimentConfig, workers: int) -> dict:
    """{"csv": ..., "json": ...}: the two renderings of one run of ``cfg``."""
    records = run_experiment(cfg, workers=workers)
    return {"csv": render_csv(records), "json": render_json(summary_dict(cfg, records))}


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"kaczmarz-pr {' '.join(argv)} exited {code}")
    return out.getvalue()


def expected() -> dict:
    """The manifest's {name: sha256}, once its recorded builds are this
    process's; on another build the bytes are not comparable, and this
    says so."""
    manifest = json.loads(MANIFEST.read_text())
    here = versions()
    if manifest["versions"] != here:
        raise AssertionError(
            f"{MANIFEST.name} was recorded with {manifest['versions']}, but this "
            f"environment has {here}; output bytes depend on both builds, so the "
            f"digests cannot be compared here"
        )
    return manifest["sha256"]


def compute() -> dict:
    """Every digest of the manifest, from the serial runs; raises if a
    ``workers=2`` run differs."""
    sha = {}
    for name, cfg in BATCHES.items():
        serial = batch_texts(cfg, 1)
        if batch_texts(cfg, 2) != serial:
            raise RuntimeError(f"batch {name}: workers=2 bytes differ from serial")
        for fmt, text in serial.items():
            sha[f"run {name} {fmt}"] = digest(text)
    for name, argv in ESTIMATE_L.items():
        sha[name] = digest(cli_stdout(argv))
    sha[VERIFY] = digest(cli_stdout(VERIFY.split()))
    return sha


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text())["sha256"] if MANIFEST.exists() else {}
    new = compute()
    MANIFEST.write_text(json.dumps({"versions": versions(), "sha256": new}, indent=2, sort_keys=True) + "\n")
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print(f"{name}: {(old.get(name) or 'none')[:8]} → {(new.get(name) or 'none')[:8]}")
    print(f"wrote {MANIFEST}")
