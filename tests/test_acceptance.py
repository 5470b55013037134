"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 9 and 10 call ``estimate_L``, which searches the phase-aligned
unit sphere {v : ||v|| = 1, Im(z^* v) = 0} (the flat global-phase direction
i z is left out, since the solver's error is measured up to a global
phase); its ``L_estimate`` is an upper bound on the minimum over that set
and its ``L_lower`` a certified lower bound.  Both run where the wedge is
empty at desk scale (c0 alpha << 1), the regime of a good initialization,
where ``L_lower`` is the minimum itself; criterion 10 asserts that
precondition on every instance and tests the exact value.

Criteria 1-6 call the checks in ``kaczmarz_pr.verify`` at the seeds and
budgets below; ``kaczmarz-pr verify`` runs the same checks at smaller sizes.
"""

import time

import numpy as np

from kaczmarz_pr import RegularityParams, estimate_L, sample_sphere, sample_unit_vector
from kaczmarz_pr.harness import ExperimentConfig, render_csv, run_experiment
from kaczmarz_pr.seeding import derive_seed
from kaczmarz_pr.verify import (
    check_contraction_identity,
    check_directional_derivatives,
    check_plane_curvature,
    check_projection_mass,
    check_projection_vs_phase_grid,
    check_unitary_sampler,
    check_wedge_fraction,
)

MASTER = 20240817


def report(num, name, ok, detail):
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def timed(check, *args, **sizes):
    start = time.monotonic()
    res = check(*args, **sizes)
    return res, time.monotonic() - start


def test_criterion_01_projection_oracle_equivalence():
    res, elapsed = timed(check_projection_vs_phase_grid, (MASTER, 1), draws=333)
    assert report(1, "projection vs 1e6-point phase grid", res.passed and elapsed < 30.0,
                  f"{res.detail}, {elapsed:.1f}s")


def test_criterion_02_contraction_identity():
    res, elapsed = timed(check_contraction_identity, (MASTER, 2), reps=100)
    assert report(2, "one-step expected-contraction identity", res.passed and elapsed < 5.0,
                  f"{res.detail}, {elapsed:.1f}s")


def test_criterion_03_wedge_probability():
    res, elapsed = timed(check_wedge_fraction, (MASTER, 3), trials=1_000_000, tol=0.002)
    assert report(3, "wedge fraction vs beta^2/(1+beta^2)", res.passed and elapsed < 60.0,
                  f"{res.detail}, {elapsed:.1f}s")


def test_criterion_04_plane_expectation_identity():
    res = check_plane_curvature((MASTER, 4), trials=1_000_000)
    assert report(4, "two-dimensional curvature expectation", res.passed, res.detail)


def test_criterion_05_projection_mass_constant():
    res = check_projection_mass((MASTER, 5), trials=1_000_000)
    assert report(5, "projection mass Pr(||Pa||^2 >= 0.8/n)", res.passed, res.detail)


def test_criterion_06_derivative_correctness():
    res = check_directional_derivatives((MASTER, 6), (MASTER, 66), reps=200, bound_reps=1000)
    assert report(6, "derivative finite-difference agreement", res.passed, res.detail)


def _convergence_run(model, **kwargs):
    cfg = ExperimentConfig(n=50, model=model, num_trials=20, master_seed=MASTER, **kwargs)
    start = time.monotonic()
    records = run_experiment(cfg, workers=1)
    elapsed = time.monotonic() - start
    converged = [r for r in records if r.converged]
    within = [r for r in converged if r.iterations_run <= 200 * 50]
    rho_ok = all(r.rho_hat is not None and r.rho_hat < 1.0 for r in converged)
    return records, len(within), rho_ok, elapsed


def test_criterion_07_linear_convergence_sphere():
    records, within, rho_ok, elapsed = _convergence_run("sphere", m=2000)
    ok = within >= 18 and rho_ok and elapsed < 120.0 and not any(r.failed for r in records)
    assert report(7, "desk-scale convergence, sphere model", ok,
                  f"{within}/20 converged within 200n, rho<1 {rho_ok}, {elapsed:.1f}s")


def test_criterion_08_linear_convergence_unitary():
    # spot-check block unitarity of sampled ensembles
    sampler = check_unitary_sampler((MASTER, 8), n=50, K=40, ensembles=3)
    records, within, rho_ok, elapsed = _convergence_run("unitary", K=40)
    ok = (
        within >= 18
        and rho_ok
        and sampler.passed
        and elapsed < 120.0
        and not any(r.failed for r in records)
    )
    assert report(8, "desk-scale convergence, unitary model", ok,
                  f"{within}/20 converged, {sampler.detail}, {elapsed:.1f}s")


def test_criterion_09_operator_norm_at_argmin():
    # parameters chosen in the regime where the wedge is empty at desk scale
    # (alpha large, c0 alpha << 1) and m = 100 n >= 10 n; see README notes
    n, m = 8, 800
    worst = 0.0
    for s in range(20):
        ens = sample_sphere(n, m, derive_seed(MASTER, 9, s))
        z = sample_unit_vector(n, derive_seed(MASTER, 99, s))
        params = RegularityParams(
            c0=1e-6, alpha=600.0, net_or_samples=2048, seed=derive_seed(MASTER, 999, s)
        )
        rep = estimate_L(ens, z, params)
        quotient = float(np.mean(np.abs(ens.vectors.conj() @ rep.argmin_direction) ** 2))
        worst = max(worst, quotient)
    ok = worst <= 1.1 / n
    assert report(9, "mean squared row product at argmin", ok,
                  f"worst {worst:.5f} vs bound {1.1 / n:.5f}")


def test_criterion_10_regularity_positivity():
    # c0 alpha < min_i |a_i^* z| empties the wedge S(v, c0 alpha) for every
    # unit v (rows are unit-norm), so the curvature must beat alpha's slack
    # term alone on the phase-aligned sphere; there L_lower is the exact
    # minimum, one eigenvalue of the bracket form
    positives = 0
    values = []
    c0, alpha = 1e-6, 20.0
    for s in range(20):
        ens = sample_sphere(2, 500, derive_seed(MASTER, 10, s))
        z = sample_unit_vector(2, derive_seed(MASTER, 100, s))
        assert c0 * alpha < np.min(np.abs(ens.vectors.conj() @ z))
        params = RegularityParams(
            c0=c0, alpha=alpha, net_or_samples=2000, seed=derive_seed(MASTER, 1000, s)
        )
        rep = estimate_L(ens, z, params)
        assert rep.lower_is_exact
        assert rep.term3 == 0.0
        # the search, anchored at the minimizer, agrees with it
        assert abs(rep.L_estimate - rep.L_lower) <= 1e-10 * max(1.0, abs(rep.L_lower))
        values.append(rep.L_lower)
        positives += rep.L_lower > 0.0
    ok = positives >= 18
    assert report(
        10,
        "regularity-constant positivity (n=2, m=500, alpha=20, c0=1e-6)",
        ok,
        f"{positives}/20 positive, min {min(values):.3f}, median {np.median(values):.3f}",
    )


def test_criterion_11_determinism():
    cfg = ExperimentConfig(n=12, model="sphere", m=240, num_trials=6, master_seed=MASTER)
    first = render_csv(run_experiment(cfg, workers=1))
    second = render_csv(run_experiment(cfg, workers=1))
    parallel = render_csv(run_experiment(cfg, workers=3))
    ok = first == second and first == parallel
    assert report(11, "byte-identical CSV, repeat and serial-vs-parallel", ok,
                  f"repeat {first == second}, parallel {first == parallel}")
