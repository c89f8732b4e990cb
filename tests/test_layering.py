"""flagdyn modules import no private (underscore) names from one another."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flagdyn"


def _private_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "flagdyn":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                yield f"{path.name}:{node.lineno}: {alias.name} from {'.' * node.level}{module}"


def test_no_private_names_imported_across_modules():
    assert len(list(SRC.glob("*.py"))) > 10
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _private_imports(path)]
    assert found == []
