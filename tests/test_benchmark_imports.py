"""The benchmark under perfbench/ imports names from the package; tier-1 does
not run it, so these tests read its imports and check that each resolves,
check the parts of the estimate_L report that its gate reads, and run its
traced replay of a batch, which its gate compares with the batch CSV."""

import ast
import importlib
import sys
from pathlib import Path

from kaczmarz_pr import run_experiment, sample_sphere, sample_unit_vector
from kaczmarz_pr.harness import render_csv
from kaczmarz_pr.regularity import RegularityParams, estimate_L, regularity_terms

BENCH = Path(__file__).resolve().parent.parent / "perfbench" / "bench.py"


def _package_imports(path):
    """(module, name) for every `from kaczmarz_pr[.sub] import name` in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "kaczmarz_pr" or node.module.startswith("kaczmarz_pr.")
        ):
            for alias in node.names:
                yield node.module, alias.name


def test_every_benchmark_import_resolves():
    imports = list(_package_imports(BENCH))
    assert imports, f"no kaczmarz_pr imports found in {BENCH}"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_estimate_l_report_keeps_the_benchmark_contract():
    # the estimate_l workload at its tiny shape: bench.py builds these
    # params by keyword, reads these report fields and gates on the terms
    # being regularity_terms' at the argmin, bit for bit
    c0, alpha = 1 / 80, 20.0
    ens = sample_sphere(4, 100, 1)
    z = sample_unit_vector(4, 2)
    params = RegularityParams(c0=c0, alpha=alpha, net_or_samples=64, seed=0)
    report = estimate_L(ens, z, params)
    for field in ("argmin_direction", "term1", "term2", "term3", "L_estimate", "n", "m", "evaluations"):
        assert hasattr(report, field), field
    assert report.search_mode == "random_refine"
    assert (report.n, report.m) == (4, 100) and report.evaluations > 64
    t1, t2, t3, _ = regularity_terms(ens, z, report.argmin_direction, c0, alpha)
    assert (report.term1, report.term2, report.term3) == (t1, t2, t3)
    assert report.L_estimate == (report.n / report.m) * (t1 - t2 - t3)


def test_traced_replay_reproduces_the_batch_csv(monkeypatch):
    # the gate "traced replay reproduces the batch CSV" at every workload's
    # tiny batch shape, with the traced run's master seed for seed 3; no
    # bytecode is written under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH.parent))
    bench = importlib.import_module("bench")
    tracing = importlib.import_module("tracing")
    for name, tiny in bench.TINY.items():
        cfg = bench.config(tiny.batch, 3000)
        replays = [bench.replay_trial(cfg, tid, tracing.Tracer()) for tid in range(cfg.num_trials)]
        csv = render_csv(run_experiment(cfg, workers=1))
        assert render_csv([r.record for r in replays]) == csv, name
