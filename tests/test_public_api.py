"""The package's public surface: every exported name resolves; its module layering."""

import ast
from pathlib import Path

import qgalois


def test_all_names_resolve():
    missing = [name for name in qgalois.__all__ if not hasattr(qgalois, name)]
    assert not missing
    assert len(set(qgalois.__all__)) == len(qgalois.__all__)


def test_star_import():
    namespace = {}
    exec("from qgalois import *", namespace)
    assert set(qgalois.__all__) <= namespace.keys()


def _imported_modules(node) -> set[str]:
    """The dotted names an import statement of a qgalois module may load."""
    if isinstance(node, ast.Import):
        return {a.name for a in node.names}
    base = node.module or ""
    if node.level:
        base = f"qgalois.{base}" if base else "qgalois"
    return {base} | {f"{base}.{a.name}" for a in node.names}


def test_galois_imports_qplane_only_for_type_checking():
    """qplane imports galois at run time, so a run-time import back would be a cycle."""
    tree = ast.parse((Path(qgalois.__file__).parent / "galois.py").read_text())
    guarded = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        # `if TYPE_CHECKING:` or `if typing.TYPE_CHECKING:`
        and getattr(node.test, "id", getattr(node.test, "attr", None)) == "TYPE_CHECKING"
        for stmt in node.body
        for inner in ast.walk(stmt)
    }
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    loose = [
        ast.unparse(n)
        for n in imports
        if "qgalois.qplane" in _imported_modules(n) and id(n) not in guarded
    ]
    assert not loose
