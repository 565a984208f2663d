"""The demos run to completion against the public API."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# Demo 04 is left out: it takes about 20 s and repeats the conditioning runs
# of acceptance criterion 7.
@pytest.mark.parametrize(
    "name",
    [
        "01_operators_and_duality",
        "02_dal_solver",
        "03_stopping_certificate",
        "05_problem_files_and_bench",
    ],
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
