"""Property tests, over inputs drawn by hypothesis: the row form of the
phase-aligned distance, on which solve stops, against its one-row form and
``dist_phase_aligned`` bit for bit, that distance's invariances, the
projection onto {w : |a^* w| = y}, the regularity bracket form against
the bracket off its minimizer, malformed ``run --config`` files, and the
CSV/JSON round trip of run records."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from kaczmarz_pr import (  # noqa: E402
    ExperimentConfig,
    dist_phase_aligned,
    run_experiment,
    sample_block_unitary,
    sample_sphere,
    sample_unit_vector,
    wedge,
)
from kaczmarz_pr.cli import main  # noqa: E402
from kaczmarz_pr.core import aligned2_rows  # noqa: E402
from kaczmarz_pr.harness import (  # noqa: E402
    render_csv,
    render_json,
    setting_fields,
    summary_dict,
    write_text,
)
from kaczmarz_pr.regularity import regularity_terms  # noqa: E402
from kaczmarz_pr.search import _Scorer  # noqa: E402
from kaczmarz_pr.solver import SolverConfig, project_magnitude  # noqa: E402

EPS = np.finfo(float).eps

entries = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def vector_pairs(draw, max_n=8, max_distance=10.0):
    """(x, z): z with ||z|| >= 1e-3, x up to max_distance * ||z|| from a
    random global phase of z, with the distance drawn on a log scale so that
    near-solutions are drawn as often as far ones."""
    n = draw(st.integers(1, max_n))
    z = draw(arrays(complex, n, elements=entries))
    e = draw(arrays(complex, n, elements=entries))
    nz, ne = np.linalg.norm(z), np.linalg.norm(e)
    assume(nz >= 1e-3 and ne >= 1e-3)
    phase = np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    scale = 10.0 ** draw(st.floats(-12.0, math.log10(max_distance)))
    return phase * z + (scale * nz / ne) * e, z


@st.composite
def blocks(draw, max_n=8, max_rows=8):
    """(X, z): up to max_rows iterates of one z.  A row is either up to
    10 ||z|| from a random global phase of z, with the distance drawn on a
    log scale down to 1e-17 ||z|| as in vector_pairs, or supported where z
    is zero, so that z^* x = 0 exactly (x = 0 when z has no zero entry)."""
    n = draw(st.integers(1, max_n))
    support = draw(arrays(bool, n))
    z = draw(arrays(complex, n, elements=entries)) * support
    nz = np.linalg.norm(z)
    assume(nz >= 1e-3)
    X = []
    for _ in range(draw(st.integers(1, max_rows))):
        e = draw(arrays(complex, n, elements=entries))
        if draw(st.booleans()):
            X.append(e * ~support)
            continue
        ne = np.linalg.norm(e)
        assume(ne >= 1e-3)
        phase = np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        scale = 10.0 ** draw(st.floats(-17.0, 1.0))
        X.append(phase * z + (scale * nz / ne) * e)
    return np.array(X), z


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_aligned_rows_match_one_row_form_bit_for_bit(block):
    """solve stops on the row form: each row's value is the one the row
    has alone, and its square root is ``dist_phase_aligned``'s."""
    X, z = block
    values = aligned2_rows(X, z)
    for j, x in enumerate(X):
        assert values[j] == aligned2_rows(X[j : j + 1], z)[0]
        assert np.sqrt(values[j]) == dist_phase_aligned(x, z).aligned


@settings(max_examples=300, deadline=None)
@given(vector_pairs(), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi))
def test_aligned_distance_ignores_global_phases(pair, tx, tz):
    x, z = pair
    d = dist_phase_aligned(x, z).aligned
    # the optimal rotation is rounded, so the value moves by rounding only
    slack = 4.0 * (len(z) + 2) * EPS * (np.linalg.norm(x) + np.linalg.norm(z))
    assert abs(dist_phase_aligned(np.exp(1j * tx) * x, z).aligned - d) <= slack
    assert abs(dist_phase_aligned(x, np.exp(1j * tz) * z).aligned - d) <= slack


@settings(max_examples=300, deadline=None)
@given(vector_pairs())
def test_aligned_distance_is_at_most_raw(pair):
    x, z = pair
    d = dist_phase_aligned(x, z)
    slack = 4.0 * (len(z) + 2) * EPS * np.linalg.norm(z)  # the rounded rotation
    assert d.aligned <= d.raw + slack


@st.composite
def frame_directions(draw, max_n=6):
    """(ensemble, z, c0, c): a sphere or block-unitary ensemble, a unit
    signal, c0 from the empty-wedge regime (1e-6) or one with wedge rows,
    and a unit c in R^{2n-1}, the coordinates of a direction in the bracket
    form's eigenframe."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        ens = sample_sphere(n, draw(st.integers(1, 16 * n)), seed)
    else:
        ens = sample_block_unitary(n, draw(st.integers(1, 16)), seed)
    c = draw(arrays(float, 2 * n - 1, elements=st.floats(-1.0, 1.0)))
    assume(np.linalg.norm(c) >= 1e-3)
    c0 = draw(st.sampled_from([1e-6, 1 / 80, 0.02]))
    return ens, sample_unit_vector(n, seed + 1), c0, c / np.linalg.norm(c)


@settings(max_examples=300, deadline=None)
@given(frame_directions())
def test_bracket_form_bounds_the_bracket(case):
    """At v_R = frame c the form is sum_j lam_j c_j^2: at most the bracket,
    and equal to it where the wedge of v is all of W (always where W is
    empty, as at c0 = 1e-6)."""
    ens, z, c0, c = case
    n, alpha = ens.n, 20.0
    scorer = _Scorer.build(ens, z, c0, alpha)
    lam, frame, w_rows = scorer.lam, scorer.frame, scorer.w_rows
    v_r = frame @ c
    v = v_r[:n] + 1j * v_r[n:]
    assert abs(np.linalg.norm(v) - 1.0) <= 8 * n * EPS
    assert abs(np.vdot(z, v).imag) <= 8 * n * EPS
    t1, t2, t3, bracket = regularity_terms(ens, z, v, c0, alpha)
    form = float(lam @ (c * c))
    # eigh and the sums round relative to the form's scale
    slack = 16 * (2 * n) * EPS * (t1 + t2 + t3 + np.max(np.abs(lam)))
    assert bracket >= form - slack
    if c0 == 1e-6:
        assert w_rows.size == 0
    if np.array_equal(wedge(ens, z, v, c0 * alpha), w_rows):
        assert abs(bracket - form) <= slack


# parts of magnitude 0 or 1e-50 to 10, and magnitudes y of 0 or 1e-50 to
# 100: no product or quotient in a projection underflows, so its rounding
# is relative to the vectors' norms (a y near the smallest normal double
# puts y / ||a||^2 among the subnormals, whose rounding is absolute)
parts = st.one_of(st.just(0.0), st.floats(1e-50, 10.0), st.floats(-10.0, -1e-50))
no_underflow_entries = st.builds(complex, parts, parts)
no_underflow_magnitudes = st.one_of(st.just(0.0), st.floats(1e-50, 100.0))


@st.composite
def projections(draw, max_n=8):
    """(x, a, y): a point, a row with ||a|| >= 1e-3 and a magnitude y."""
    n = draw(st.integers(1, max_n))
    x = draw(arrays(complex, n, elements=no_underflow_entries))
    a = draw(arrays(complex, n, elements=no_underflow_entries))
    assume(np.linalg.norm(a) >= 1e-3)
    return x, a, draw(no_underflow_magnitudes)


def projection_slack(x, a, y, *points):
    """Rounding of a^* w and of the projection's coefficient: a few ulps,
    n-fold in the inner products, of ||x|| + ||w|| + y / ||a||."""
    na = np.linalg.norm(a)
    return 8.0 * (len(a) + 2) * EPS * (sum(np.linalg.norm(p) for p in (x, *points)) + y / na)


@settings(max_examples=300, deadline=None)
@given(projections())
def test_projection_is_feasible(case):
    x, a, y = case
    w = project_magnitude(x, a, y)
    assert abs(abs(np.vdot(a, w)) - y) <= np.linalg.norm(a) * projection_slack(x, a, y, w)


@settings(max_examples=300, deadline=None)
@given(projections())
def test_projection_is_the_nearest_point(case):
    # the set's points nearest to x are x + (y e^{it} - a^* x) a / ||a||^2,
    # at distance |y e^{it} - a^* x| / ||a||: the projection is at least as
    # near as every point of a phase grid, and the grid's best is within
    # half a grid step of it
    x, a, y = case
    s, na = np.vdot(a, x), np.linalg.norm(a)
    assume(abs(s) > SolverConfig.zero_threshold * y)
    w = project_magnitude(x, a, y)
    moved = np.linalg.norm(w - x)
    grid = np.exp(2j * np.pi * np.arange(720) / 720)
    nearest = np.abs(y * grid - s).min() / na
    slack = projection_slack(x, a, y, w)
    assert moved <= nearest + slack
    assert nearest <= moved + y * (np.pi / 720) / na + slack


@settings(max_examples=300, deadline=None)
@given(projections(), st.floats(0.0, 2.0 * math.pi))
def test_projection_is_phase_equivariant(case, t):
    # P(e^{it} x) = e^{it} P(x) where the phase of a^* x is defined; twice
    # the threshold keeps the rotated product on the same side of it
    x, a, y = case
    assume(abs(np.vdot(a, x)) > 2.0 * SolverConfig.zero_threshold * y)
    rot = np.exp(1j * t)
    w = project_magnitude(x, a, y)
    diff = np.linalg.norm(project_magnitude(rot * x, a, y) - rot * w)
    assert diff <= projection_slack(x, a, y, w)


@settings(max_examples=300, deadline=None)
@given(projections())
def test_projection_is_idempotent(case):
    x, a, y = case
    w = project_magnitude(x, a, y)
    assert np.linalg.norm(project_magnitude(w, a, y) - w) <= projection_slack(x, a, y, w)


# signal files a config may name, written into the test's directory;
# "missing.json" is never written
SIGNAL_FILES = {
    "good.json": {"re": [1.0, 0.0, 0.5], "im": [0.0, 1.0, 0.5]},
    "short.json": {"re": [1.0], "im": [0.0, 1.0]},
    "no_im.json": {"re": [1.0, 2.0]},
    "zero.json": {"re": [0.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0]},
    "not_json.json": None,
}
# integers small enough that every valid config runs in milliseconds
values = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["none", "None", "nan", "inf", "-inf", "", "sphere", "unitary", "json"]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
)
# paths stay inside the test's directory: a signal path is only read, but
# an output path is written
path_values = {
    "signal_path": st.sampled_from(["none", "", ".", "missing.json", *SIGNAL_FILES]),
    "out": st.sampled_from(["none", "", ".", "out.csv", "out.json", "missing/out.csv"]),
}
keys = st.sampled_from(sorted(setting_fields()) + ["bogus", "N", "seed", "num_trials"])


@st.composite
def config_files(draw):
    """Lines of a `key = value` config file: random settings over none or
    over a valid config, whose signal is random, good or zero (a failed
    trial), and sometimes one line repeated."""
    signal = draw(st.sampled_from([None, "none", "good.json", "zero.json"]))
    chosen = {}
    if signal is not None:
        chosen = {"n": "3", "m": "20", "trials": "2", "out": "out.csv", "signal_path": signal}
    for key in draw(st.lists(keys, max_size=3)):
        chosen[key] = draw(path_values.get(key, values))
    lines = [f"{key} = {value}" for key, value in chosen.items()]
    if lines and draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.sampled_from(lines)))
    return lines


@settings(max_examples=150, deadline=None)
@given(config_files())
def test_malformed_config_exits_cleanly(lines):
    # `run --config` exits 0, 1 or 2 and never raises; an exit 2 prints one
    # `error:` line.  Warnings are shown, not raised, as on the command line
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in SIGNAL_FILES.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write("{re: 1" if payload is None else json.dumps(payload))
        with open(os.path.join(tmp, "exp.cfg"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        cwd, err = os.getcwd(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                with warnings.catch_warnings(record=True) as shown:
                    warnings.simplefilter("always")
                    code = main(["run", "--config", "exp.cfg"])
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    if code == 2:
        assert not shown
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")


@st.composite
def experiments(draw):
    """Small seeded batches; in half of them a zero signal, a truncation
    multiplier of 0.5 (which can leave no row) or a power iteration of one
    step fails some or all trials."""
    n = draw(st.integers(1, 5))
    unitary = draw(st.booleans())
    failure = None
    if draw(st.booleans()):
        failure = draw(st.sampled_from(["zero signal", "no rows", "one step"]))
    return ExperimentConfig(
        n=n,
        model="unitary" if unitary else "sphere",
        m=None if unitary else draw(st.integers(1, 40)),
        K=draw(st.integers(1, 6)) if unitary else None,
        num_trials=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**32)),
        max_iters=draw(st.sampled_from([None, 1, 7, 50])),
        tol_aligned_rel=draw(st.sampled_from([1e-8, 1e-13, 0.3])),
        history_stride=draw(st.sampled_from([None, 1, 3])),
        truncation_multiplier=0.5 if failure == "no rows" else 3.0,
        power_iters_max=1 if failure == "one step" else 1000,
        signal=np.zeros(n, dtype=complex) if failure == "zero signal" else None,
    )


def _floats_back(text):
    return math.nan if text == "nan" else float(text)


@settings(max_examples=40, deadline=None)
@given(experiments())
def test_csv_and_json_round_trip(cfg):
    records = run_experiment(cfg, workers=1)
    rows = [line.split(",") for line in render_csv(records).splitlines()]
    assert rows[0] == [
        "trial_id", "seed", "n", "m", "model", "epoch", "aligned_error", "raw_error", "residual"
    ]
    rows = iter(rows[1:])
    for rec in records:
        expected = list(zip(rec.epochs, rec.aligned_errors, rec.raw_errors, rec.residuals))
        # the summary row: the last sample, or NaN errors without samples
        expected += expected[-1:] or [(rec.iterations_run / rec.n, math.nan, math.nan, math.nan)]
        for values_out in expected:
            row = next(rows)
            assert row[:5] == [str(rec.trial_id), str(rec.seed), str(rec.n), str(rec.m), rec.model]
            back = [_floats_back(text) for text in row[5:]]
            # .17g gives every float back exactly, and nan where it is unset
            assert np.array_equal(back, values_out, equal_nan=True)
    assert next(rows, None) is None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "summary.json")
        write_text(path, render_json(summary_dict(cfg, records)))
        with open(path) as fh:
            loaded = json.load(fh)
    # non-finite values are written as null, so the two compare equal
    assert loaded == summary_dict(cfg, records)
    for rec, trial in zip(records, loaded["trials"]):
        for key, value in vars(rec).items():
            if isinstance(value, float) and not math.isfinite(value):
                assert trial[key] is None
