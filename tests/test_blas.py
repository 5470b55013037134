import functools
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from kaczmarz_pr import blas, harness, measure, sample_sphere, sample_unit_vector, truncated_covariance
from kaczmarz_pr.harness import ExperimentConfig, render_csv, run_experiment, run_trial

SRC = Path(__file__).resolve().parent.parent / "src"

needs_openblas = pytest.mark.skipif(blas._openblas() is None, reason="numpy bundles no scipy-openblas")

# the acceptance batch, printed as the sha256 of its CSV
ACCEPTANCE_DIGEST = (
    "import hashlib\n"
    "from kaczmarz_pr.harness import ExperimentConfig, render_csv, run_experiment\n"
    "cfg = ExperimentConfig(n=50, m=2000, num_trials=20, master_seed=3000)\n"
    "print(hashlib.sha256(render_csv(run_experiment(cfg, workers=1)).encode()).hexdigest())\n"
)


@pytest.fixture
def openblas_threads():
    """A setter of OpenBLAS's thread count; the count is restored after the test."""
    get, set_ = blas._openblas()
    old = get()
    yield set_
    set_(old)


@needs_openblas
def test_one_thread_holds_one_and_restores_the_count(openblas_threads):
    get, _ = blas._openblas()
    openblas_threads(2)
    before = get()
    with blas.one_thread():
        assert get() == 1
        with blas.one_thread():
            assert get() == 1
        assert get() == 1
    assert get() == before


@needs_openblas
def test_concurrent_blocks_hold_one_thread_until_the_last_leaves(openblas_threads):
    get, _ = blas._openblas()
    openblas_threads(2)
    before = get()
    seen = []

    def hold():
        for _ in range(200):
            with blas.one_thread():
                seen.append(get())

    threads = [threading.Thread(target=hold) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1] * 1600
    assert get() == before


@needs_openblas
def test_run_trial_and_a_bare_group_solve_at_one_thread(openblas_threads, monkeypatch):
    # a pool worker started by spawn or forkserver runs _run_group outside
    # run_experiment's hold, as run_trial does
    get, _ = blas._openblas()
    seen = []

    def probe(problems):
        seen.append(get())
        return solve_group(problems)

    solve_group = harness.solve_group
    monkeypatch.setattr(harness, "solve_group", probe)
    openblas_threads(2)
    cfg = ExperimentConfig(n=6, m=90, num_trials=2, master_seed=9)
    run_trial(cfg, 0)
    assert get() == 2
    harness._run_group(cfg, range(2))
    assert seen == [1, 1] and get() == 2


@needs_openblas
def test_covariance_bits_do_not_depend_on_the_thread_count(openblas_threads):
    # at n = 50, m = 2000 a Gram product of all the weighted rows at once
    # moved Y's last bits (up to 4.1e-15 relative) between 1 and 2 threads
    ens = sample_sphere(50, 2000, 3)
    y = measure(ens, sample_unit_vector(50, 4))
    bits = []
    for threads in (1, 2):
        openblas_threads(threads)
        bits.append(truncated_covariance(ens, y)[0].tobytes())
    assert bits[0] == bits[1]


def test_run_bytes_do_not_depend_on_openblas_num_threads():
    # the digests differed (8fefb81e... at 1 thread, dfabc3be... at 2) while
    # the covariance product ran on every thread OpenBLAS started
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env.pop("PR_KACZMARZ_THREADS", None)
        proc = subprocess.run([sys.executable, "-c", ACCEPTANCE_DIGEST], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("shape", [["--m", "2000"], ["--model", "unitary", "--K", "40"]])
def test_estimate_l_bytes_do_not_depend_on_openblas_num_threads(shape):
    # the digests differed (740e61af... at 1 thread, 9bff24a3... at 2 for
    # --m 2000; 3aea8270... and b5068de2... for --K 40), L_lower among the
    # values that moved, while estimate_L ran on every thread OpenBLAS started
    args = ["-m", "kaczmarz_pr.cli", "estimate-l", "--n", "50", *shape, "--alpha", "20", "--seed", "3000"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                              timeout=600, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_pin_is_a_no_op_where_the_symbols_are_missing(monkeypatch):
    cfg = ExperimentConfig(n=8, m=120, num_trials=3, master_seed=17)
    want = render_csv(run_experiment(cfg, workers=1))

    class NoSymbols:
        pass

    monkeypatch.setattr(blas.ctypes, "CDLL", lambda path: NoSymbols())
    monkeypatch.setattr(blas, "_openblas", functools.cache(blas._openblas.__wrapped__))
    assert blas._openblas() is None
    with blas.one_thread():
        records = run_experiment(cfg, workers=1)
    assert render_csv(records) == want
    assert all(rec.converged for rec in records)
