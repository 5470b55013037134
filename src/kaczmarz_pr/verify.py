"""Every invariant and lemma check, each written once.

A check is a function of its seed parts and sample sizes that returns a
``CheckResult``; a check that draws from several streams takes one tuple
of seed parts per stream.  The acceptance suite calls these functions at
its own seeds and budgets, and ``run_verification`` is the suite that the
``verify`` CLI subcommand runs at smaller sizes.

Sampled checks never run below ``MIN_TRIALS`` samples.  At that budget the
wedge-fraction and sphere-sampler tolerances widen to 4.5 standard errors,
so a correct build passes deterministically at any budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sensing
from .blas import one_thread
from .core import dist_phase_aligned, inner, phase_diff_bound_check
from .regularity import dir_deriv_f, second_dir_deriv_at_signal, second_dir_deriv_fi, wedge
from .seeding import derive_seed
from .solver import SolverConfig, SolverState, project_magnitude, solve, step
from .spectral import SpectralConfig, spectral_init, truncated_covariance

__all__ = [
    "MIN_TRIALS",
    "CheckResult",
    "run_verification",
    "check_inner_product_identities",
    "check_aligned_distance",
    "check_phase_diff_bound",
    "check_sphere_sampler",
    "check_unitary_sampler",
    "check_projection_vs_phase_grid",
    "check_contraction_identity",
    "check_directional_derivatives",
    "check_wedge_monotonicity",
    "check_spectral_init",
    "check_solver_determinism_and_constraint",
    "check_wedge_fraction",
    "check_plane_curvature",
    "check_projection_mass",
]

MIN_TRIALS = 100_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_inner_product_identities(seed):
    rng = np.random.default_rng(derive_seed(*seed))
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 12))
        a = 2.0 * sensing.sample_unit_vector(n, rng)
        b = sensing.sample_unit_vector(n, rng)
        sym = abs(inner(a, b) - np.conj(inner(b, a)))
        self_ip = inner(a, a)
        norm_gap = abs(self_ip.real - np.linalg.norm(a) ** 2)
        worst = max(worst, sym, norm_gap, abs(self_ip.imag))
    return CheckResult("inner_product_identities", worst <= 1e-12, f"worst dev {worst:.2e}")


def check_aligned_distance(seed):
    rng = np.random.default_rng(derive_seed(*seed))
    rot = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False))
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 8))
        x = 1.3 * sensing.sample_unit_vector(n, rng)
        z = sensing.sample_unit_vector(n, rng)
        d = dist_phase_aligned(x, z)
        # independent oracle: explicit minimization over the phase grid,
        # summed one entry at a time so no (grid, n) array is built
        d2 = np.zeros(len(rot))
        for xj, zj in zip(x, z):
            d2 += np.abs(xj - rot * zj) ** 2
        grid = np.sqrt(d2.min())
        worst = max(worst, abs(d.aligned - grid))
        phase_inv = abs(
            dist_phase_aligned(np.exp(1j * rng.uniform(0, 2 * np.pi)) * x, z).aligned
            - d.aligned
        )
        worst = max(worst, phase_inv)
        if d.aligned > d.raw + 1e-12:
            return CheckResult("aligned_distance", False, "aligned exceeded raw")
    return CheckResult("aligned_distance", worst <= 1e-8, f"worst dev {worst:.2e}")


def check_phase_diff_bound(seed, trials):
    """The phase-difference bound at ``trials`` (x, z) pairs, the two
    columns of each block of complex normal draws."""
    rng = np.random.default_rng(derive_seed(*seed))
    bad = 0
    for XZ in _normal_blocks(rng, trials, 2):
        bad += int(len(XZ) - np.count_nonzero(phase_diff_bound_check(XZ[:, 0], XZ[:, 1])))
    return CheckResult("phase_diff_bound", bad == 0, f"{bad} violations in {trials}")


def check_sphere_sampler(seed, trials):
    s = derive_seed(*seed)
    m = max(10_000, min(trials, 200_000))
    ens = sensing.sample_sphere(4, m, s)
    norm_dev = float(np.abs(np.linalg.norm(ens.vectors, axis=1) - 1.0).max())
    again = sensing.sample_sphere(4, m, s)
    identical = bool(np.array_equal(ens.vectors, again.vectors))
    w = sensing.sample_unit_vector(4, s + 1)
    mean_sq = float(np.mean(np.abs(sensing.row_products(ens, w)) ** 2))
    tol = max(0.05 / 4, 4.5 * math.sqrt(2.0 / m) / 4)
    ok = norm_dev <= 1e-12 and identical and abs(mean_sq - 0.25) <= tol
    return CheckResult(
        "sphere_sampler",
        ok,
        f"norm dev {norm_dev:.2e}, reproducible {identical}, mean|a^*w|^2 {mean_sq:.5f}",
    )


def check_unitary_sampler(seed, n, K, ensembles):
    """Every n x n block of ``ensembles`` sampled block-unitary ensembles is
    unitary and keeps the squared norm of a random unit vector."""
    rng = np.random.default_rng(derive_seed(*seed))
    eye = np.eye(n)
    worst_u = 0.0
    worst_p = 0.0
    for rep in range(ensembles):
        ens = sensing.sample_block_unitary(n, K, derive_seed(*seed, rep))
        w = sensing.sample_unit_vector(n, rng)
        for k in range(K):
            block = ens.vectors[k * n : (k + 1) * n].T  # columns are the sensing vectors
            worst_u = max(worst_u, float(np.abs(block.conj().T @ block - eye).max()))
            mass = float(np.sum(np.abs(block.conj().T @ w) ** 2))
            worst_p = max(worst_p, abs(mass - 1.0))
    ok = worst_u <= 1e-12 and worst_p <= 1e-10
    return CheckResult(
        "unitary_sampler", ok, f"block-unitarity dev {worst_u:.1e}, Parseval dev {worst_p:.1e}"
    )


def check_projection_vs_phase_grid(seed, draws):
    """Projection distance against a 1e6-point phase-grid oracle, for
    ``draws`` random instances at each of n = 2, 3, 8."""
    rng = np.random.default_rng(derive_seed(*seed))
    thetas = np.linspace(0.0, 2.0 * np.pi, 1_000_000, endpoint=False)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    worst = 0.0
    for n in (2, 3, 8):
        for _ in range(draws):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            y = abs(rng.standard_normal())
            w = project_magnitude(x, a, y)
            s = np.vdot(a, x)
            na = np.linalg.norm(a)
            d2 = y * y + abs(s) ** 2 - 2.0 * y * (cos_t * s.real + sin_t * s.imag)
            oracle = math.sqrt(max(float(d2.min()), 0.0)) / na
            worst = max(worst, abs(float(np.linalg.norm(w - x)) - oracle))
    return CheckResult(
        "projection_vs_phase_grid", worst <= 1e-8, f"worst distance gap {worst:.2e}"
    )


def check_contraction_identity(seed, reps):
    """The one-step expected-contraction identity
    E||P_i(x) - z||^2 = f(x) + f'(x; z - x) + ||z - x||^2, exact over rows."""
    rng = np.random.default_rng(derive_seed(*seed))
    n, m = 8, 64
    worst = 0.0
    for rep in range(reps):
        ens = sensing.sample_sphere(n, m, derive_seed(*seed, rep))
        z = sensing.sample_unit_vector(n, rng)
        y = sensing.measure(ens, z)
        values = y.of(ens)
        while True:
            x = z + 0.4 * sensing.sample_unit_vector(n, rng)
            if np.abs(sensing.row_products(ens, x)).min() > 1e-6:
                break
        lhs = np.mean(
            [
                np.linalg.norm(project_magnitude(x, ens.vectors[i], values[i]) - z) ** 2
                for i in range(m)
            ]
        )
        rhs = (
            sensing.objective_f(ens, y, x)
            + dir_deriv_f(ens, y, x, z - x)
            + np.linalg.norm(z - x) ** 2
        )
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return CheckResult("contraction_identity", worst <= 1e-10, f"worst rel dev {worst:.2e}")


def check_directional_derivatives(seed, bound_seed, reps, bound_reps):
    """Three parts on one rng stream: f' against a forward difference and
    f''_i against a central difference (``reps`` each), then the curvature
    bound 0 <= f''_i(z) <= 2|a_i^* v|^2 on ``bound_reps`` ensembles."""
    rng = np.random.default_rng(derive_seed(*seed))
    n, m = 4, 20
    worst1 = 0.0
    for rep in range(reps):
        ens = sensing.sample_sphere(n, m, derive_seed(*seed, rep))
        z = sensing.sample_unit_vector(n, rng)
        y = sensing.measure(ens, z)
        while True:
            x = z + 0.5 * sensing.sample_unit_vector(n, rng)
            v = sensing.sample_unit_vector(n, rng)
            if np.abs(sensing.row_products(ens, x)).min() < 1e-3:
                continue
            d = dir_deriv_f(ens, y, x, v)
            # the slope must dominate the O(t) truncation term of the
            # forward difference for the 1e-4 relative check to resolve
            if abs(d) >= 5e-2:
                break
        t = 1e-6
        fd = (sensing.objective_f(ens, y, x + t * v) - sensing.objective_f(ens, y, x)) / t
        worst1 = max(worst1, abs(fd - d) / abs(d))

    worst2 = 0.0
    for _ in range(reps):
        a = sensing.sample_unit_vector(3, rng)
        z = sensing.sample_unit_vector(3, rng)
        while True:
            x = 1.2 * sensing.sample_unit_vector(3, rng)
            v = sensing.sample_unit_vector(3, rng)
            if abs(np.vdot(a, x)) < 0.1:
                continue
            d2 = second_dir_deriv_fi(a, z, x, v)
            if abs(d2) >= 1e-3:
                break
        t = 1e-4
        yv = abs(np.vdot(a, z))

        def fi(pt):
            return (yv - abs(np.vdot(a, pt))) ** 2

        fd2 = (fi(x + t * v) - 2.0 * fi(x) + fi(x - t * v)) / (t * t)
        worst2 = max(worst2, abs(fd2 - d2) / abs(d2))

    bound_ok = True
    for rep in range(bound_reps):
        nn = int(rng.integers(2, 7))
        ens = sensing.sample_sphere(nn, 15, derive_seed(*bound_seed, rep))
        z = sensing.sample_unit_vector(nn, rng)
        v = sensing.sample_unit_vector(nn, rng)
        w1 = second_dir_deriv_at_signal(ens, z, v)
        cap = 2.0 * np.abs(sensing.row_products(ens, v)) ** 2
        bound_ok = bound_ok and bool(np.all(w1 >= 0.0) and np.all(w1 <= cap * (1 + 1e-12)))

    return CheckResult(
        "directional_derivatives",
        worst1 <= 1e-4 and worst2 <= 1e-3 and bound_ok,
        f"f' rel {worst1:.2e}, f'' rel {worst2:.2e}, bound held {bound_ok}",
    )


def check_wedge_monotonicity(seed):
    s = derive_seed(*seed)
    rng = np.random.default_rng(s)
    ens = sensing.sample_sphere(5, 200, s)
    z = sensing.sample_unit_vector(5, rng)
    v = sensing.sample_unit_vector(5, rng)
    betas = [0.1, 0.5, 1.0, 2.0, 5.0]
    sets = [set(wedge(ens, z, v, b).tolist()) for b in betas]
    ok = all(sets[i] <= sets[i + 1] for i in range(len(sets) - 1))
    full = set(wedge(ens, z, z, 1.0).tolist()) == set(range(200))
    return CheckResult("wedge_monotonicity", ok and full, f"sizes {[len(s) for s in sets]}")


def check_spectral_init(seed):
    s = derive_seed(*seed)
    ens = sensing.sample_sphere(12, 600, s)
    z = sensing.sample_unit_vector(12, s + 1)
    y = sensing.measure(ens, z)
    cfg = SpectralConfig(seed=s + 2)
    Y, lam0 = truncated_covariance(ens, y, cfg.truncation_multiplier)
    herm = float(np.abs(Y - Y.conj().T).max())
    x0 = spectral_init(ens, y, cfg)
    norm_dev = abs(float(np.linalg.norm(x0)) - np.sqrt(ens.n) * lam0)
    y2 = sensing.measure(ens, np.exp(0.7j) * z)
    x0b = spectral_init(ens, y2, cfg)
    equiv = float(np.linalg.norm(x0 - x0b))
    ok = herm <= 1e-12 and norm_dev <= 1e-10 and equiv <= 1e-10
    return CheckResult(
        "spectral_init",
        ok,
        f"hermitian dev {herm:.2e}, norm dev {norm_dev:.2e}, phase equivariance {equiv:.2e}",
    )


def check_solver_determinism_and_constraint(seed):
    s = derive_seed(*seed)
    ens = sensing.sample_sphere(6, 60, s)
    z = sensing.sample_unit_vector(6, s + 1)
    y = sensing.measure(ens, z)
    values = y.of(ens)
    cfg = SolverConfig(max_iters=300, tol_aligned_rel=1e-12, seed=s + 2)
    x0 = sensing.sample_unit_vector(6, s + 3)
    s1 = solve(ens, y, x0, cfg, z=z)
    s2 = solve(ens, y, x0, cfg, z=z)
    identical = bool(np.array_equal(s1.x, s2.x)) and s1.history == s2.history
    state = SolverState(x=np.array(x0), rng=np.random.default_rng(s + 4))
    step_cfg = SolverConfig(max_iters=1, tol_residual=1.0, seed=0)
    worst = 0.0
    for _ in range(50):
        replay = np.random.default_rng()
        replay.bit_generator.state = state.rng.bit_generator.state
        i = int(replay.integers(ens.m))  # the row the next step will draw
        step(state, ens, y, step_cfg)
        worst = max(
            worst,
            abs(abs(np.vdot(ens.vectors[i], state.x)) - values[i]) / values[i],
        )
    ok = identical and worst <= 1e-10
    return CheckResult(
        "solver_determinism_and_constraint",
        ok,
        f"reproducible {identical}, worst post-step constraint dev {worst:.2e}",
    )


def _normal_blocks(rng: np.random.Generator, trials: int, n: int):
    """``trials`` standard complex normal rows of length n, drawn in blocks
    of at most ``sensing._block_rows(n)`` rows."""
    rows = sensing._block_rows(n)
    for done in range(0, trials, rows):
        yield sensing._complex_normal(rng, (min(rows, trials - done), n))


def _orthonormal_pair(n: int, rng: np.random.Generator):
    """conj(z), conj(v) for a random orthonormal pair (z, v) in C^n."""
    z = sensing.sample_unit_vector(n, rng)
    while True:
        w = sensing._complex_normal(rng, n)
        w -= z * np.vdot(z, w)
        nw = np.linalg.norm(w)
        if nw > 1e-6:
            return np.conj(z), np.conj(w / nw)


def check_wedge_fraction(seed, trials, tol, sigmas=0.0):
    """Pr(beta |a^* v| >= |a^* z|) = beta^2/(1+beta^2) for a uniform on the
    sphere of C^2, (z, v) orthonormal and beta in {1/2, 1, 2}; the target
    does not depend on the dimension.  The indicator is invariant under
    scaling of a, so the Gaussian draws are used unnormalized.  Each
    estimate must lie within max(tol, sigmas standard errors) of its
    target; the default sigmas=0 keeps the tolerance flat."""
    worst = 0.0
    passed = True
    for beta in (0.5, 1.0, 2.0):
        target = beta * beta / (1.0 + beta * beta)
        rng = np.random.default_rng(derive_seed(*seed, int(beta * 2)))
        zc, vc = _orthonormal_pair(2, rng)
        hits = 0
        for A in _normal_blocks(rng, trials, 2):
            hits += int(np.count_nonzero(beta * np.abs(A @ vc) >= np.abs(A @ zc)))
        dev = abs(hits / trials - target)
        se = math.sqrt(target * (1.0 - target) / trials)
        passed = passed and dev <= max(tol, sigmas * se)
        worst = max(worst, dev)
    return CheckResult("wedge_fraction", passed, f"worst dev {worst:.4f}")


def check_plane_curvature(seed, trials):
    """E[(Re(b^* zh  vh^* b))^2 / |b^* zh|^2] for b uniform on the unit
    sphere of C^2, zh = e1 and vh = [cos theta, sin theta] equals
    cos^2(theta)/2 + sin^2(theta)/4 within 0.01 at theta in {0, pi/4, pi/2}.
    The literal (2 Re(.))^2/(2|.|^2) form is pointwise exactly twice that
    quantity; its average is reported alongside."""
    worst = 0.0
    doubled = []
    for k, theta in enumerate((0.0, math.pi / 4.0, math.pi / 2.0)):
        ct, st = math.cos(theta), math.sin(theta)
        target = 0.5 * ct**2 + 0.25 * st**2
        rng = np.random.default_rng(derive_seed(*seed, k))
        total = 0.0
        for B in _normal_blocks(rng, trials, 2):
            sensing._normalize_rows(B)
            b1, b2 = B[:, 0], B[:, 1]
            x = np.conj(b1) * (ct * b1 + st * b2)
            total += float(np.sum(x.real**2 / np.abs(b1) ** 2))
        est = total / trials
        worst = max(worst, abs(est - target))
        doubled.append(2.0 * est)
    return CheckResult(
        "plane_curvature",
        worst <= 0.01,
        f"worst dev {worst:.4f}; literal doubled form {np.round(doubled, 4)}",
    )


def check_projection_mass(seed, trials):
    """Pr(||P a||^2 >= 0.8/n) >= 0.74 at n in {4, 16, 64}, where P projects
    onto the span of an orthonormal pair (z, v) and a is uniform on the
    unit sphere of C^n."""
    worst = 1.0
    for n in (4, 16, 64):
        rng = np.random.default_rng(derive_seed(*seed, n))
        zc, vc = _orthonormal_pair(n, rng)
        hits = 0
        for A in _normal_blocks(rng, trials, n):
            sensing._normalize_rows(A)
            mass = np.abs(A @ zc) ** 2 + np.abs(A @ vc) ** 2
            hits += int(np.count_nonzero(mass >= 0.8 / n))
        worst = min(worst, hits / trials)
    return CheckResult("projection_mass", worst >= 0.74, f"min estimate {worst:.4f}")


def run_verification(trials: int, seed: int) -> tuple[list[CheckResult], bool]:
    """The verify suite: every check once, each on its own seed stream
    (seed, 101...115), with the sampled checks at ``max(trials,
    MIN_TRIALS)`` samples, on one BLAS thread (``blas.one_thread``: its
    many small products run slower on several threads, more so on a busy
    machine); returns (results, all_passed)."""
    samples = max(int(trials), MIN_TRIALS)
    with one_thread():
        results = [
            check_inner_product_identities((seed, 101)),
            check_aligned_distance((seed, 102)),
            check_phase_diff_bound((seed, 103), samples),
            check_sphere_sampler((seed, 104), samples),
            check_unitary_sampler((seed, 105), n=8, K=16, ensembles=1),
            check_projection_vs_phase_grid((seed, 106), draws=33),
            check_contraction_identity((seed, 107), reps=100),
            check_directional_derivatives((seed, 108), (seed, 109), reps=50, bound_reps=200),
            check_wedge_monotonicity((seed, 110)),
            check_spectral_init((seed, 111)),
            check_solver_determinism_and_constraint((seed, 112)),
            check_wedge_fraction((seed, 113), samples, tol=0.002, sigmas=4.5),
            check_plane_curvature((seed, 114), samples),
            check_projection_mass((seed, 115), samples),
        ]
    return results, all(r.passed for r in results)
