"""Source-level guards on the package.

Runtime invariants raise typed errors: an ``assert`` statement vanishes under
``python -O``, so none may appear in the source. The kernels are numpy only,
so no module imports numba and no environment variable selects a backend.
Every name the package exports resolves.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tinydes

ROOT = Path(tinydes.__file__).resolve().parent


def package_trees():
    sources = sorted(ROOT.rglob("*.py"))
    assert sources
    return [(path.relative_to(ROOT), ast.parse(path.read_text(encoding="utf-8"),
                                               filename=str(path)))
            for path in sources]


def test_no_assert_statements_in_package():
    found = [f"{rel}:{node.lineno}" for rel, tree in package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], "assert statements in tinydes: " + ", ".join(found)


def test_no_numba_imports_in_package():
    found = []
    for rel, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{rel}:{node.lineno}" for name in names
                      if name.split(".")[0] == "numba"]
    assert found == [], "numba imports in tinydes: " + ", ".join(found)


def test_every_public_name_resolves():
    # ``import tinydes`` succeeds with a stale name in __all__; only a star
    # import would fail on it
    missing = [name for name in tinydes.__all__ if not hasattr(tinydes, name)]
    assert missing == [], "names in tinydes.__all__ that do not resolve: " + ", ".join(missing)


def test_backend_variable_is_ignored():
    # a leftover TINYDES_BACKEND=numba must neither fail the import nor
    # switch kernels
    env = dict(os.environ, TINYDES_BACKEND="numba")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", "import tinydes; print(tinydes.BACKEND)"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"
