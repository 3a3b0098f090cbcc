"""Source hygiene of the package, read with the standard library's ``ast``
alone: every name a module imports is used in it, and every private
module-level function is referenced somewhere in the package or its tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "scgroups").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# an import kept on purpose carries this marker on its line
KEEP = "# noqa: F401"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree: ast.Module) -> set[str]:
    """Every name the module reads: bare names, attribute names, and the
    names inside string constants that parse as expressions (quoted
    annotations such as "list[dict] | RowTable", and the strings of
    ``__all__`` and of ``monkeypatch.setattr``)."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            out |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return out


def _unused_imports(path: Path) -> list[str]:
    tree, lines = _tree(path), path.read_text().splitlines()
    used = _names(tree)
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and KEEP not in lines[node.lineno - 1] and KEEP not in lines[alias.lineno - 1]:
                out.append(f"{path.name}:{alias.lineno} {name}")
    return out


def test_every_imported_name_is_used():
    assert [u for path in PACKAGE for u in _unused_imports(path)] == []


def test_every_private_function_is_referenced():
    referenced = set().union(*(_names(_tree(path)) for path in PACKAGE + TESTS))
    private = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in PACKAGE
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_")
    ]
    assert [p for p in private if p.split()[1] not in referenced] == []


def test_the_checks_see_an_unused_import_and_a_kept_one(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import math\nimport os  # noqa: F401\nfrom typing import (\n    Optional,\n    Callable,\n)\n"
        'x: "Optional[int]" = math.pi\n'
    )
    assert _unused_imports(path) == ["module.py:5 Callable"]
