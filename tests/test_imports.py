"""The three decision routes stay independent: the algebraic product
(algebra, encoding), the sign-pattern cover (geometry) and DPLL (oracle).
Their agreement is the correctness argument, so no route may import
another's code.  The orthogonal-group layer (ortho) is no route: its
discrete cover is the cover route's predicate, so it reads it from the
cover search (geometry), and it shares no code with the other two routes.
The truth table and the exact matrix backend that the tests compare the
routes against (tests/oracle_reference.py, with the basis terms of
tests/algebra_reference.py it builds on) keep the rule of oracle."""

import ast
from pathlib import Path

import wittsat

PACKAGE = Path(wittsat.__file__).parent
TESTS = Path(__file__).parent

FORBIDDEN = {
    PACKAGE / "geometry.py": {"oracle", "algebra", "encoding"},
    PACKAGE / "oracle.py": {"algebra", "encoding", "geometry"},
    PACKAGE / "algebra.py": {"geometry", "oracle"},
    PACKAGE / "encoding.py": {"geometry", "oracle"},
    PACKAGE / "ortho.py": {"oracle", "algebra", "encoding"},
    TESTS / "oracle_reference.py": {"encoding", "geometry"},
    TESTS / "algebra_reference.py": {"encoding", "geometry"},
}


def package_imports(path: Path) -> set[str]:
    """The wittsat modules that a source file imports, in any form."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("wittsat."):
                found.add(node.module.split(".")[1])
            elif node.module == "wittsat":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("wittsat."):
                    found.add(alias.name.split(".")[1])
    return found


def test_package_imports_reads_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .algebra import x\nfrom . import cnf\n"
        "from wittsat.oracle import y\nfrom wittsat import ortho\n"
        "import wittsat.geometry\nimport numpy\n"
    )
    assert package_imports(probe) == {
        "algebra", "cnf", "oracle", "ortho", "geometry"
    }


def test_routes_do_not_import_each_other():
    for path, forbidden in FORBIDDEN.items():
        shared = package_imports(path) & forbidden
        assert not shared, f"{path.name} imports {sorted(shared)}"


# cli loads these on first use (its module __getattr__), so that the search
# commands start without numpy; an import of them at load time would undo it
CLI_LAZY = {"numpy", "encoding", "algebra", "ortho"}


def _short(module: str) -> str:
    parts = module.split(".")
    return parts[1] if parts[0] == "wittsat" and len(parts) > 1 else parts[0]


def load_time_imports(path: Path) -> set[str]:
    """The modules a source file imports while it loads: every import
    outside a function body, as ``numpy`` or, for the package's own
    modules, as ``encoding``."""
    found = set()
    pending = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(_short(alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module in (None, "wittsat"):
                found.update(alias.name for alias in node.names)
            else:
                found.add(_short(node.module))
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_load_time_imports_skips_function_bodies(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\nfrom . import cnf\nfrom .oracle import dpll\n"
        "from wittsat.geometry import x\nimport wittsat.ortho\n"
        "try:\n    import json\nexcept ImportError:\n    pass\n"
        "class C:\n    from .algebra import y\n"
        "def f():\n    from .encoding import z\n    import os\n"
    )
    assert load_time_imports(probe) == {
        "numpy", "cnf", "oracle", "geometry", "ortho", "json", "algebra"
    }


def test_cli_loads_the_numpy_layers_only_on_use():
    eager = load_time_imports(PACKAGE / "cli.py") & CLI_LAZY
    assert not eager, f"cli.py imports {sorted(eager)} at load time"


def test_no_module_imports_dataclasses():
    # Assignment and CnfFormula derive from cnf.Frozen: dataclasses would load
    # inspect, ast and dis into every fresh process
    for path in sorted(PACKAGE.glob("*.py")):
        assert "dataclasses" not in load_time_imports(path), path.name


def test_cli_imports_traceback_only_to_print_a_defect():
    assert "traceback" not in load_time_imports(PACKAGE / "cli.py")
