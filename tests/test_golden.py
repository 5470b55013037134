"""Output bytes against the golden manifest (see golden.py).  A change to
any run or estimate-l output fails here until the manifest is regenerated
with ``PYTHONPATH=src python tests/golden.py`` and its diff recorded."""

import pytest

import golden


@pytest.mark.parametrize("name", golden.BATCHES)
def test_run_bytes_match_the_manifest(name):
    sha = golden.expected()
    serial = golden.batch_texts(golden.BATCHES[name], 1)
    assert golden.batch_texts(golden.BATCHES[name], 2) == serial
    for fmt, text in serial.items():
        assert golden.digest(text) == sha[f"run {name} {fmt}"], f"{name} {fmt} bytes changed"


@pytest.mark.parametrize("name", golden.ESTIMATE_L)
def test_estimate_l_bytes_match_the_manifest(name):
    sha = golden.expected()
    assert golden.digest(golden.cli_stdout(golden.ESTIMATE_L[name])) == sha[name], f"{name} bytes changed"


def test_manifest_names_every_golden_output():
    runs = {f"run {name} {fmt}" for name in golden.BATCHES for fmt in ("csv", "json")}
    assert set(golden.expected()) == runs | set(golden.ESTIMATE_L) | {golden.VERIFY}
