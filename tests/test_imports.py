"""Every import in a library module is used by that module, and the
library pulls in no scipy module that it does not use.

__init__.py is exempt from the first: it imports names to re-export them.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liyau"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    source = ("import os\nimport scipy.fft\nfrom x import a as b, c\n"
              "scipy.fft.rfft(c)\n")
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []


# scipy subpackages that the library does not use; each costs memory on
# import (scipy.interpolate about 19 MB, with optimize, sparse and spatial)
UNUSED_SCIPY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize",
                "scipy.sparse", "scipy.spatial")


def test_library_does_not_import_scipy_integrate():
    # a fresh interpreter: the test session itself imports these
    code = ("import sys, liyau; print(sorted(m for m in %r if m in sys.modules))"
            % (UNUSED_SCIPY,))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
