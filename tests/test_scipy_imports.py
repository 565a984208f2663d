"""The solver imports nothing from scipy but ``scipy.linalg.solve_triangular``.

scipy's LAPACK runs on an OpenBLAS of its own, separate from numpy's; its
threaded factorizations (``cho_factor``, ``lu_factor``, ...) leave a worker
spinning that slows the numpy products that follow.  The level-2 triangular
solve wakes no such thread.
"""

import ast
from pathlib import Path

import dalsparse

ALLOWED = {("scipy.linalg", "solve_triangular")}


def scipy_imports(path):
    """(module, name) for every scipy import in one source file; a plain
    ``import scipy...`` gives name None."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "scipy"
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "scipy":
                found += [(node.module, alias.name) for alias in node.names]
    return found


def test_only_solve_triangular_is_imported_from_scipy():
    sources = sorted(Path(dalsparse.__file__).parent.glob("*.py"))
    assert sources
    disallowed = [
        (path.name, module, name)
        for path in sources
        for module, name in scipy_imports(path)
        if (module, name) not in ALLOWED
    ]
    assert not disallowed


def test_guard_sees_lapack_factorizations(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "import scipy.linalg\n"
        "from scipy.linalg import cho_factor, solve_triangular\n"
        "from scipy import linalg\n"
    )
    assert set(scipy_imports(source)) - ALLOWED == {
        ("scipy.linalg", None),
        ("scipy.linalg", "cho_factor"),
        ("scipy", "linalg"),
    }
