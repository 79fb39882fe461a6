"""Every import in the package's modules is used by that module.

`__init__.py` is skipped: its imports are re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tollroute"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert modules
    found = {}
    for path in modules:
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[path.name] = unused
    assert found == {}
