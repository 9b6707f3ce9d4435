"""The PHY and uplink packages stay free of ``linalg`` (LAPACK/BLAS) calls.

The combiner was the last kernel whose numbers depended on which OpenBLAS
kernel the host CPU selects; :func:`repro.phy.equalizer.mmse_combiner` is
written in element-wise ufuncs instead, and LAPACK survives only in the
tests, as the oracle. This guard keeps the dependence from coming back
unnoticed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SOURCES = sorted(p for pkg in ("phy", "uplink") for p in (SRC / pkg).rglob("*.py"))


def _linalg_uses(tree: ast.AST) -> list[int]:
    """Line numbers of ``<x>.linalg`` attributes and ``linalg`` imports."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any("linalg" in alias.name.split(".") for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if "linalg" in module or any(a.name == "linalg" for a in node.names):
                lines.append(node.lineno)
    return lines


def test_no_linalg_in_phy_or_uplink():
    names = {p.relative_to(SRC).as_posix() for p in SOURCES}
    assert {"phy/equalizer.py", "phy/batched.py", "uplink/vectorized.py"} <= names
    offenders = {
        path.relative_to(SRC).as_posix(): uses
        for path in SOURCES
        if (uses := _linalg_uses(ast.parse(path.read_text(), filename=str(path))))
    }
    assert not offenders, f"linalg used (file: lines): {offenders}"


def test_detector_sees_every_spelling():
    for snippet in (
        "import numpy as np\nnp.linalg.solve(a, b)",
        "import numpy.linalg",
        "from numpy import linalg",
        "from numpy.linalg import solve",
        "from scipy import linalg as la",
    ):
        assert _linalg_uses(ast.parse(snippet)), snippet
    assert not _linalg_uses(ast.parse('"""np.linalg.solve in a docstring"""'))
