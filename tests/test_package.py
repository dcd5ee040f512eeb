import ast
import inspect
import re
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


def _bound_imports(tree):
    """Names the import statements of a module bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_a_name_it_never_uses():
    # a name counts as used when the module reads it or re-exports it in
    # __all__; annotations are parsed like any other expression
    package = Path(esnkit.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        unused += [f"{path.stem}.{name}" for name in _bound_imports(tree)
                   if name not in used]
    assert unused == []


def test_every_public_function_is_called_by_a_test():
    tests = "\n".join(path.read_text()
                      for path in Path(__file__).parent.glob("*.py"))
    uncalled = [name for name in esnkit.__all__
                if inspect.isfunction(getattr(esnkit, name))
                and not re.search(rf"\b{name}\(", tests)]
    assert uncalled == []
