"""The committed model results reproduce byte for byte.

``results/model-validation``, ``results/grid`` and ``results/coalescing``
are pure functions of the cost model (no wall clock), so rerunning their
experiments at the default arguments through the harness's own writers
(``python -m repro.harness <name> --out DIR``) must rewrite the committed
``.txt`` and ``.json`` files exactly.  A pricing change that moves any
number in them fails here instead of drifting them silently.
"""

from pathlib import Path

import pytest

from repro.harness.__main__ import main

RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.mark.parametrize(
    "experiment,stem",
    [("model", "model-validation"), ("grid", "grid"), ("coalescing", "coalescing")],
)
def test_rerun_matches_committed_files(experiment, stem, tmp_path, capsys):
    assert main([experiment, "--out", str(tmp_path)]) == 0
    for suffix in (".txt", ".json"):
        fresh = (tmp_path / f"{stem}{suffix}").read_bytes()
        committed = (RESULTS / f"{stem}{suffix}").read_bytes()
        assert fresh == committed, f"{stem}{suffix} drifted from results/"
