import ast
from pathlib import Path

import esnkit


def test_public_names_resolve():
    missing = [name for name in esnkit.__all__ if not hasattr(esnkit, name)]
    assert missing == []


def test_every_module_is_imported_by_the_package():
    # a module the package never imports is dead surface: no public name
    # reaches it (the private _linalg helpers are imported by the modules)
    package = Path(esnkit.__file__).parent
    tree = ast.parse((package / "__init__.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    modules = {path.stem for path in package.glob("*.py")}
    assert modules - imported - {"__init__", "_linalg"} == set()
