"""flagdyn modules import no private (underscore) names from one another,
import one another only at module level, import no name they never use,
never call eval or exec, catch no exception more broadly than by its
own type, and leave the raw config JSON to config.py; every public
function and class, and every public method and property of a public
class, has a caller outside the tests, but for the listed exceptions."""

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


def _is_flagdyn_import(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "flagdyn"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "flagdyn" for alias in node.names)
    return False


def _function_local_imports(path):
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if _is_flagdyn_import(node):
                yield f"{path.name}:{node.lineno}: import inside {fn.name}()"


def test_no_private_names_imported_across_modules():
    assert len(list(SRC.glob("*.py"))) > 10
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _private_imports(path)]
    assert found == []


def test_no_function_local_flagdyn_imports():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _function_local_imports(path)]
    assert found == []


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                # "import a.b" binds a; "from m import a as b" binds b
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield f"{path.name}:{node.lineno}: {alias.name} unused"


def test_no_unused_imports():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _unused_imports(path)]
    assert found == []


_BROAD = {"Exception", "BaseException"}


def _unsafe_nodes(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("eval", "exec")):
            yield f"{path.name}:{node.lineno}: {node.func.id}()"
        elif isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(c, ast.Name) and c.id in _BROAD
                                        for c in caught):
                yield f"{path.name}:{node.lineno}: broad except"


def test_no_eval_exec_or_broad_except():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _unsafe_nodes(path)]
    assert found == []


def _raw_reads(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "raw":
            yield f"{path.name}:{node.lineno}: .raw"


def test_only_config_reads_the_raw_config():
    # the config schema lives in config.py: other modules read parsed sections
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "config.py"
             for hit in _raw_reads(path)]
    assert found == []


ROOT = SRC.parents[1]

# Public names no program file calls: paper checks that only the acceptance
# suite runs, each kept for its criterion until a ROADMAP direction reads it.
PAPER_CHECKS = {
    "cross_ratio": "criterion 1",
    "contraction_factor": "criterion 3; direction 3",
    "rp1_contraction_lambda": "criterion 3; direction 3",
    "local_to_global_check": "criterion 6; direction 9",
    "equivariance_check": "criterion 9",
}


# Public methods and properties no program file names, matched by attribute
# name, each kept for its reason.
UNCALLED_METHODS = {
    "distance": "ConedGraph's public metric",
    "geodesic": "ConedGraph's public metric",
    "intersects": "Arc's edge rule, the reference tests/test_synth.py checks edges against",
}


def _public_definitions(path):
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name


def _public_methods(path):
    """Public methods and properties of the public classes of a file."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name


def _names_outside_definitions(node, owners=frozenset()):
    """Names (``ast.Name`` ids and ``ast.Attribute`` attrs) used under an
    AST node, each with the names of the definitions it sits in."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        owners = owners | {node.name}
    if isinstance(node, ast.Name):
        yield node.id, owners
    elif isinstance(node, ast.Attribute):
        yield node.attr, owners
    for child in ast.iter_child_nodes(node):
        yield from _names_outside_definitions(child, owners)


def test_every_public_name_has_a_caller():
    # named somewhere outside its own definition, in the package, bench/ or
    # scripts/: code only tests reach is deleted, not kept
    defined = {name for path in SRC.glob("*.py") for name in _public_definitions(path)}
    methods = {name for path in SRC.glob("*.py") for name in _public_methods(path)}
    files = [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    named = {name for path in files
             for name, owners in _names_outside_definitions(ast.parse(path.read_text()))
             if name not in owners}
    assert sorted(defined - named) == sorted(PAPER_CHECKS)
    assert sorted(methods - named) == sorted(UNCALLED_METHODS)
