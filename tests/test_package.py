import ast
import inspect
import re
import subprocess
import sys
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


def _private_constants(tree):
    """Names of the module-level ``_UPPER_CASE`` assignments of a module."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if (isinstance(target, ast.Name)
                    and re.fullmatch(r"_[A-Z][A-Z0-9_]*", target.id)):
                yield target.id


def test_every_private_constant_is_read():
    # a module-level _UPPER_CASE constant that no module of the package
    # reads is a leftover of deleted code
    package = Path(esnkit.__file__).parent
    trees = [ast.parse(path.read_text()) for path in package.glob("*.py")]
    constants = {name for tree in trees for name in _private_constants(tree)}
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert constants
    assert sorted(constants - read) == []


def test_every_public_function_is_called_by_a_test():
    tests = "\n".join(path.read_text()
                      for path in Path(__file__).parent.glob("*.py"))
    uncalled = [name for name in esnkit.__all__
                if inspect.isfunction(getattr(esnkit, name))
                and not re.search(rf"\b{name}\(", tests)]
    assert uncalled == []


def _logged_events():
    """``(module, event)`` for every ``logger.debug`` / ``logger.warning``
    call in the package; the event is the first word of the message, or
    None when the message is not a string literal."""
    package = Path(esnkit.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("debug", "warning")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "logger"):
                message = node.args[0] if node.args else None
                literal = (isinstance(message, ast.Constant)
                           and isinstance(message.value, str))
                yield path.stem, message.value.split()[0] if literal else None


def test_every_logged_event_is_named_in_a_test():
    # event names are a stable interface: each one must keep a test that
    # reads it, and a name built at run time could not be checked
    tests = "\n".join(path.read_text()
                      for path in Path(__file__).parent.glob("*.py"))
    events = list(_logged_events())
    assert events
    untested = [f"{module}: {event}" for module, event in events
                if event is None
                or not re.search(rf"(?<![\w.]){re.escape(event)}(?![\w.])",
                                 tests)]
    assert untested == []


def test_import_loads_no_scipy_subpackage_but_linalg():
    # every scipy subpackage imported at start-up costs set-up time in every
    # process; only scipy.linalg is used, besides scipy's private modules
    # (a leading underscore, the build config and the version)
    script = ("import sys, esnkit; print(sorted({name.split('.')[1] for name "
              "in sys.modules if name.startswith('scipy.')}))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True,
                          cwd=Path(esnkit.__file__).parent.parent)
    loaded = ast.literal_eval(done.stdout.strip())
    assert "linalg" in loaded
    assert [name for name in loaded
            if name not in ("linalg", "version", "__config__")
            and not name.startswith("_")] == []
