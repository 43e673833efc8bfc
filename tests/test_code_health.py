"""Static checks on the package source, read with ``ast``: no module imports
a name it never uses or a package beyond the standard library and numpy,
and the option count that ROADMAP aim 2 tracks."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "parkroute"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")

# defaulted parameters of public functions and methods, plus the CLI's flags
OPTIONS = 47


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that no expression reads.  The
    package's ``__init__`` re-exports what it imports, so it is not checked."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def foreign_imports(tree: ast.Module) -> list[str]:
    """Top-level packages the module imports beyond the standard library,
    numpy and parkroute itself, the runtime dependencies ``pyproject.toml``
    declares; a relative import is the package's own."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - set(sys.stdlib_module_names) - {"numpy", "parkroute"})


def defaulted_parameters(tree: ast.Module) -> dict[str, int]:
    """Defaulted parameters of each public function and of each public method
    of a public class, keyed by qualified name; those without one are left out."""
    out = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                args = node.args
                count = len(args.defaults) + sum(d is not None for d in args.kw_defaults)
                if count:
                    out[prefix + node.name] = count
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                visit(node.body, prefix + node.name + ".")

    visit(tree.body, "")
    return out


def parser_flags(tree: ast.Module) -> list[str]:
    """The option strings that ``build_parser`` passes to ``add_argument``,
    first spelling of each; positional arguments are not options."""
    (build,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "build_parser"]
    return [
        node.args[0].value
        for node in ast.walk(build)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument" and node.args
        and isinstance(node.args[0], ast.Constant) and node.args[0].value.startswith("-")
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_unused_imports(path):
    assert unused_imports(_tree(path)) == []


def test_unused_import_check_sees_an_unused_name():
    tree = ast.parse("from x import a, b\nimport c.d\nimport e as f\nprint(a, c.d)\n")
    assert unused_imports(tree) == ["b (line 1)", "f (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_runtime_imports_are_the_standard_library_and_numpy(path):
    assert foreign_imports(_tree(path)) == []


def test_foreign_import_check_sees_scipy():
    tree = ast.parse("import numpy as np\nfrom . import tsp\nimport json\n"
                     "def solve():\n    from scipy.optimize import milp\n    import scipy.sparse\n")
    assert foreign_imports(tree) == ["scipy"]


def test_option_count():
    defaulted = {}
    for path in MODULES:
        defaulted.update({f"{path.stem}.{name}": n for name, n in defaulted_parameters(_tree(path)).items()})
    flags = parser_flags(_tree(SRC / "cli.py"))
    assert sum(defaulted.values()) + len(flags) == OPTIONS, (defaulted, flags)
