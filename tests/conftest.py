"""Make ``src/`` importable for child processes the tests start.

``pythonpath`` in ``pyproject.toml`` puts ``src/`` on this process's
``sys.path`` only; a test that runs ``python -m dalsparse.cli`` in a
subprocess needs it in ``PYTHONPATH`` as well.
"""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def src_on_child_pythonpath():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield
