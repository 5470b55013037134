import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden
from kaczmarz_pr import cli, harness
from kaczmarz_pr.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

GOOD_CONFIG = (
    "model = sphere\n"
    "n = 8\n"
    "m = 120\n"
    "trials = 3\n"
    "master_seed = 17\n"
)


def test_run_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "none.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("model = sphere\nn = 4\nm = 10\nmystery = 3\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "mystery" in capsys.readouterr().err


def test_run_config_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"n = 4\nm = 40\n# caf\xe9\nout = o.csv\n")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {path}:")
    assert "Traceback" not in err


def test_run_without_output_path_exits_2(tmp_path, capsys):
    path = tmp_path / "no_out.cfg"
    path.write_text(GOOD_CONFIG)
    assert main(["run", "--config", str(path)]) == 2
    assert "output path" in capsys.readouterr().err


def test_run_writes_deterministic_csv(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("trial_id,seed,n,m,model,epoch")
    capsys.readouterr()


def test_run_json_format(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG)
    out = tmp_path / "summary.json"
    assert main(["run", "--config", str(path), "--out", str(out), "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["trials"]) == 3
    capsys.readouterr()


def test_run_flag_overrides(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG)
    out = tmp_path / "c.csv"
    assert main(["run", "--config", str(path), "--out", str(out), "--trials", "1"]) == 0
    rows = out.read_text().splitlines()
    assert all(row.split(",")[0] == "0" for row in rows[1:])
    capsys.readouterr()


def test_run_flag_bad_value_exits_2(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG)
    out = tmp_path / "d.csv"
    assert main(["run", "--config", str(path), "--out", str(out), "--trials", "three"]) == 2
    assert "trials" in capsys.readouterr().err
    assert main(["run", "--config", str(path), "--out", str(out), "--model", "cube"]) == 2
    assert "cube" in capsys.readouterr().err
    assert not out.exists()


def test_run_failed_trial_exits_1(tmp_path, capsys):
    signal = tmp_path / "zero.json"
    signal.write_text(json.dumps({"re": [0.0, 0.0], "im": [0.0, 0.0]}))
    path = tmp_path / "exp.cfg"
    path.write_text(f"model = sphere\nn = 2\nm = 10\nsignal_path = {signal}\n")
    out = tmp_path / "e.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "1 trials: 0 converged, 1 failed" in capsys.readouterr().out
    assert out.exists()


def test_estimate_l_stdout_report(capsys):
    code = main([
        "estimate-l", "--n", "2", "--m", "200", "--alpha", "20",
        "--budget", "300", "--seed", "1",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "L_estimate" in payload
    assert payload["search_mode"] == "random_refine"
    # the bound is attained here, so the two agree up to rounding
    assert payload["lower_is_exact"] is True
    assert payload["L_lower"] <= payload["L_estimate"] + 1e-10 * abs(payload["L_estimate"])


def test_estimate_l_search_is_pinned(capsys):
    # the default c0 = 1/(4 alpha) puts rows in the wedge, so the search,
    # not the closed form, sets L_estimate: a change to the search shows
    # up here
    code = main(["estimate-l", "--n", "8", "--m", "160", "--alpha", "20", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["evaluations"] == 3309
    assert payload["L_estimate"] == pytest.approx(-22.493141199211088, rel=1e-9)


def test_estimate_l_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    flags = [
        "estimate-l", "--n", "8", "--m", "160", "--alpha", "600",
        "--c0", "1e-6", "--budget", "256", "--seed", "2",
    ]
    assert main(flags + ["--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["search_mode"] == "random_refine"
    capsys.readouterr()
    # stdout carries the same bytes as the file
    assert main(flags) == 0
    assert capsys.readouterr().out == out.read_text()


def test_estimate_l_argmin_runs_as_a_signal(tmp_path, capsys):
    # the report writes its direction as a signal file, which a run reads
    report = tmp_path / "report.json"
    argv = ["estimate-l", "--n", "4", "--m", "60", "--alpha", "20", "--budget", "32"]
    assert main(argv + ["--out", str(report)]) == 0
    signal = tmp_path / "argmin.json"
    signal.write_text(json.dumps(json.loads(report.read_text())["argmin_direction"]))
    path = tmp_path / "exp.cfg"
    path.write_text(f"n = 4\nm = 60\nsignal_path = {signal}\n")
    out = tmp_path / "summary.json"
    assert main(["run", "--config", str(path), "--out", str(out), "--format", "json"]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["signal_mode"] == "provided"
    assert config["signal"] == json.loads(report.read_text())["argmin_direction"]
    capsys.readouterr()


def _must_not_run(*args, **kwargs):
    raise AssertionError("work ran before the output path was checked")


@pytest.mark.parametrize(
    "out, message",
    [("missing_dir/x.csv", "does not exist"), (".", "not a file name"), ("", "not a file name")],
)
def test_run_unwritable_out_exits_2_before_work(tmp_path, capsys, monkeypatch, out, message):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG)
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(path), "--out", out]) == 2
    assert message in capsys.readouterr().err


def test_run_checks_only_the_final_output_path(tmp_path, capsys):
    # a config-file out that --out replaces is never written, so never checked
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG + f"out = {tmp_path / 'missing_dir' / 'x.csv'}\n")
    out = tmp_path / "x.csv"
    assert main(["run", "--config", str(path), "--out", str(out), "--trials", "1"]) == 0
    assert out.exists()
    capsys.readouterr()


def test_estimate_l_out_in_missing_directory_exits_2_before_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "estimate_L", _must_not_run)
    out = tmp_path / "missing_dir" / "x.json"
    code = main(["estimate-l", "--n", "2", "--m", "20", "--alpha", "20", "--out", str(out)])
    assert code == 2
    assert "missing_dir" in capsys.readouterr().err


def test_estimate_l_missing_m_exits_2(capsys):
    assert main(["estimate-l", "--n", "4", "--alpha", "10"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--alpha", "nan"], "alpha"),
        (["--alpha", "0"], "alpha"),
        (["--alpha", "20", "--c0", "inf"], "c0"),
        (["--alpha", "20", "--seed", "-1"], "master_seed"),
        # 2 + 4 alpha overflows: the terms would be infinite
        (["--m", "4", "--alpha", "1e308", "--c0", "0.1"], "alpha"),
        (["--n", "5", "--m", "40", "--alpha", "1e308", "--c0", "1e-300"], "alpha"),
        (["--alpha", "20", "--budget", "0"], "--budget must be >= 1"),
    ],
)
def test_estimate_l_bad_numbers_exit_2(tmp_path, capsys, flags, message):
    out = tmp_path / "report.json"
    code = main(["estimate-l", "--n", "2", "--m", "20", "--out", str(out), *flags])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_estimate_l_size_numpy_refuses_exits_2(capsys):
    # numpy refuses a (2^62, 4) complex ensemble before it allocates
    assert main(["estimate-l", "--n", "4", "--m", str(2**62), "--alpha", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: array is too big; `arr.size * arr.dtype.itemsize` is larger than the maximum possible size.\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 64.0 TiB for an array with shape (1099511627776, 4)")


@pytest.mark.parametrize("command", ["run", "estimate-l"])
def test_memory_error_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, command):
    # the sampler raises, as numpy does for a size it accepts but cannot
    # allocate; no array that size is asked for
    monkeypatch.setattr(harness.ExperimentConfig, "sample_ensemble", _out_of_memory)
    out = tmp_path / "out.csv"
    if command == "run":
        path = tmp_path / "good.cfg"
        path.write_text(GOOD_CONFIG)
        argv = ["run", "--config", str(path), "--out", str(out)]
    else:
        argv = ["estimate-l", "--n", "4", "--m", "40", "--alpha", "20", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 64.0 TiB for an array with shape (1099511627776, 4)\n"
    assert not out.exists()


_SIGNALS = {
    "short.json": {"re": [1.0, 0.0], "im": [0.0, 0.0]},
    "unnamed.json": {"real": [1.0] * 8},
    "ragged.json": {"re": [1.0] * 8, "im": [0.0] * 7},
}


@pytest.mark.parametrize(
    "line, message",
    [
        ("signal_path = {dir}/short.json", "signal must have shape (8,), got (2,)"),
        ("signal_path = {dir}/unnamed.json", "needs 're' and 'im' lists"),
        ("signal_path = {dir}/ragged.json", "has mismatched re/im lists"),
        ("format = xml", "unknown format 'xml'"),
        ("max_iters = 0", "max_iters must be >= 1"),
        ("zero_threshold = 0", "zero_threshold must be > 0"),
        ("history_stride = 0", "history_stride must be >= 1"),
        ("truncation_multiplier = 0", "truncation_multiplier must be > 0"),
        ("power_iters_max = 0", "power_iters_max must be >= 1"),
    ],
)
def test_run_rejected_setting_exits_2(tmp_path, capsys, monkeypatch, line, message):
    # one `error:` line, and no trial runs
    for name, payload in _SIGNALS.items():
        (tmp_path / name).write_text(json.dumps(payload))
    path = tmp_path / "exp.cfg"
    out = tmp_path / "o.csv"
    path.write_text(GOOD_CONFIG + f"out = {out}\n" + line.format(dir=tmp_path) + "\n")
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_importing_the_cli_leaves_the_verify_suite_unloaded():
    # `run` and `estimate-l` do not compile verify.py; only `verify` imports it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = "import sys, kaczmarz_pr.cli; print('kaczmarz_pr.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout == "False\n"


def test_verify_negative_seed_exits_2(capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_trials_below_one_exits_2(trials, capsys):
    assert main(["verify", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: trials must be >= 1\n" and captured.out == ""


VERIFY_CHECKS = [
    "inner_product_identities",
    "aligned_distance",
    "phase_diff_bound",
    "sphere_sampler",
    "unitary_sampler",
    "projection_vs_phase_grid",
    "contraction_identity",
    "directional_derivatives",
    "wedge_monotonicity",
    "spectral_init",
    "solver_determinism_and_constraint",
    "wedge_fraction",
    "plane_curvature",
    "projection_mass",
]


def test_verify_small_budget_passes(capsys):
    # the documented contract: a correct build exits 0
    assert main(["verify", "--trials", "100000", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    # one line per check, in list order, each check exactly once
    printed = [line.split("] ", 1)[1].split(":", 1)[0] for line in out.splitlines()[:-1]]
    assert printed == VERIFY_CHECKS
    assert out.splitlines()[-1] == "14/14 checks passed"
    # the Monte-Carlo checks' numbers at this seed and budget: a change to
    # their draws or their order shows here
    for line in (
        "[PASS] wedge_fraction: worst dev 0.0020",
        "[PASS] plane_curvature: worst dev 0.0019; literal doubled form [1.0002 0.7505 0.5039]",
        "[PASS] projection_mass: min estimate 0.8156",
    ):
        assert line in out.splitlines()
    # every line's bytes, against the golden manifest (see golden.py)
    assert golden.digest(out) == golden.expected()[golden.VERIFY], "verify stdout changed"


def test_verify_samples_at_least_min_trials(capsys):
    # --trials 1 runs the sampled checks at MIN_TRIALS samples: the same
    # bytes as --trials 100000
    assert main(["verify", "--trials", "1", "--seed", "7"]) == 0
    assert golden.digest(capsys.readouterr().out) == golden.expected()[golden.VERIFY]
