import ast
import dataclasses
import inspect
import re
import subprocess
import sys
from pathlib import Path
from types import FunctionType

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


def _attribute_reads(paths):
    """``(name, owner)`` for every ``obj.name`` read in the files, where
    ``owner`` is the class whose ``__post_init__`` holds the read, or None."""
    for path in paths:
        tree = ast.parse(path.read_text())
        inside = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name == "__post_init__"):
                        inside.update((id(n), cls.name) for n in ast.walk(item))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                yield node.attr, inside.get(id(node))


def _public_members(cls):
    """Fields, properties and public methods a class defines itself."""
    if dataclasses.is_dataclass(cls):
        yield from (field.name for field in dataclasses.fields(cls))
    yield from getattr(cls, "_fields", ())        # NamedTuple
    for name, value in vars(cls).items():
        if not name.startswith("_") and isinstance(
                value, (property, classmethod, staticmethod, FunctionType)):
            yield name


def test_every_public_member_is_read():
    # a field, property or method that no code or test reads is surface
    # that does nothing; a read in the class's own __post_init__ (its
    # validation) does not count
    package = Path(esnkit.__file__).parent
    root = Path(__file__).parent.parent
    paths = [*package.glob("*.py"), *Path(__file__).parent.glob("*.py"),
             *(root / "bench").glob("*.py")]
    reads = set(_attribute_reads(paths))
    unread = [f"{name}.{member}" for name in esnkit.__all__
              if inspect.isclass(cls := getattr(esnkit, name))
              for member in dict.fromkeys(_public_members(cls))
              if not any(attr == member and owner != name
                         for attr, owner in reads)]
    assert unread == []


def _is_argument_check(node):
    """``if ...: raise``, or an assignment from ``as_float_array`` or
    ``check_psd``."""
    if isinstance(node, ast.If):
        return not node.orelse and all(isinstance(item, ast.Raise)
                                       for item in node.body)
    return (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and _callee(node.value) in ("as_float_array", "check_psd"))


def _callee(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_no_public_function_only_forwards():
    # a public function whose body is argument checks and one return of a
    # call (or of an index of one) to another public function or method is
    # a second entry to the same job
    package = Path(esnkit.__file__).parent
    modules = [ast.parse(path.read_text())
               for path in sorted(package.glob("*.py"))]
    functions, public = [], set()
    for tree in modules:
        exported = _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                functions.append(node)
                public.add(node.name)
            elif isinstance(node, ast.ClassDef) and node.name in exported:
                public |= {item.name for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_")}
    forwards = []
    for node in functions:
        body = node.body[1:] if ast.get_docstring(node) else node.body
        last = body[-1]
        value = getattr(last, "value", None)
        if isinstance(value, ast.Subscript):
            value = value.value
        if (isinstance(last, ast.Return) and isinstance(value, ast.Call)
                and _callee(value) in public - {node.name}
                and all(map(_is_argument_check, body[:-1]))):
            forwards.append(f"{node.name} -> {_callee(value)}")
    assert functions
    assert forwards == []


# parameters that nothing reads but that bench/workloads.py still passes
# positionally; they go with the next revision of the benchmark
UNREAD_KEPT = {"rts_smoother.noise", "lifted_rollout_error.params"}


def _functions(tree, prefix=""):
    """``(qualified name, node)`` for every function, method and nested
    function a module defines; a method is ``Class.name``, a nested
    function ``outer.name``."""
    for node in ast.iter_child_nodes(tree):
        function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if function:
            yield prefix + node.name, node
        scope = function or isinstance(node, ast.ClassDef)
        yield from _functions(node, f"{prefix}{node.name}." if scope else prefix)


def _unread_parameters(paths):
    """``function.parameter`` for every parameter that its function's body
    never reads."""
    for path in paths:
        for name, node in _functions(ast.parse(path.read_text())):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *filter(None, (args.vararg, args.kwarg))]
            read = {n.id for statement in node.body
                    for n in ast.walk(statement)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            yield from (f"{name}.{param.arg}" for param in params
                        if param.arg not in read)


def test_every_public_parameter_is_read():
    # a parameter that the body of a function, method or nested function of
    # the package (public or not) never reads is an option or an argument
    # that does nothing
    package = Path(esnkit.__file__).parent
    unread = set(_unread_parameters(sorted(package.glob("*.py"))))
    assert sorted(unread - UNREAD_KEPT) == []


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


def test_no_module_calls_a_scipy_lyapunov_solver():
    # every Lyapunov solve goes through _linalg.solve_discrete_lyapunov, in
    # a real Schur form that its caller can share
    solvers = {"solve_discrete_lyapunov", "solve_continuous_lyapunov",
               "solve_lyapunov"}
    package = Path(esnkit.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in solvers:
                found.append(f"{path.stem}: {ast.unparse(node)}")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("scipy")):
                found += [f"{path.stem}: from {node.module} import {alias.name}"
                          for alias in node.names if alias.name in solvers]
    assert found == []


def test_only_linalg_calls_scipy_schur_and_none_asks_for_the_complex_form():
    # every Lyapunov solve and every H(z) shares the one real Schur form of
    # _linalg.real_schur
    package = Path(esnkit.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "schur"
                    and path.stem != "_linalg"):
                found.append(f"{path.stem}: {ast.unparse(node)}")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("scipy")):
                found += [f"{path.stem}: from {node.module} import {alias.name}"
                          for alias in node.names if alias.name == "schur"]
            elif isinstance(node, ast.Call):
                found += [f"{path.stem}: {ast.unparse(node)}"
                          for kw in node.keywords if kw.arg == "output"
                          and isinstance(kw.value, ast.Constant)
                          and kw.value.value == "complex"]
    assert found == []


def test_only_the_model_and_the_a_plus_certificate_decompose():
    # freq decomposes a model's A once and keeps the form on the model, so
    # every analysis of a model reads freq._schur; the one other form is that
    # of A+ in certify_weighted.  _linalg, which defines real_schur, also
    # calls it when solve_discrete_lyapunov is given a matrix instead of a
    # form
    package = Path(esnkit.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        for name, node in _functions(ast.parse(path.read_text())):
            callers |= {f"{path.stem}.{name}" for call in ast.walk(node)
                        if isinstance(call, ast.Call)
                        and "real_schur" in (getattr(call.func, "id", None),
                                             getattr(call.func, "attr", None))}
    assert callers == {"freq._schur", "stability.certify_weighted",
                       "_linalg.solve_discrete_lyapunov"}


def test_one_function_defines_the_cholesky_slack():
    # the slack tau of the vertex test is formed in one place, so the test
    # and the rates widened by tau / lambda_min(P) agree on it
    package = Path(esnkit.__file__).parent
    readers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                readers |= {f"{path.stem}.{node.name}"
                            for name in ast.walk(node)
                            if isinstance(name, ast.Name)
                            and name.id == "_VERTEX_SLACK"}
    assert len(readers) == 1


def test_core_alone_defines_sigma():
    # tanh, its slope and the piecewise-linear slope table are written once,
    # in the in-place writer core._sigma_into: it is core's one private
    # function of an activation, no other module calls numpy's or math's
    # tanh, and none imports another such helper from core
    package = Path(esnkit.__file__).parent
    helpers = {node.name for node in ast.parse((package / "core.py").read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and any(getattr(arg.annotation, "id", None) == "Activation"
                       for arg in node.args.args)}
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "tanh"
                    and getattr(node.value, "id", None) in ("np", "numpy", "math")):
                found.append(f"{path.stem}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{path.stem}: from {node.module} import {alias.name}"
                          for alias in node.names if alias.name == "tanh"
                          or node.module == "core"
                          and alias.name in helpers - {"_sigma_into"}]
    assert found == []
    assert helpers == {"_sigma_into"}


def test_only_the_nearest_feasible_point_makes_a_structured_theta():
    # every (lam, alpha) estimate is the exact minimiser over the feasible
    # triangle, so no other identify function builds one
    tree = ast.parse(Path(esnkit.identify.__file__).read_text())
    makers = {name for name, node in _functions(tree)
              for call in ast.walk(node) if isinstance(call, ast.Call)
              and _callee(call) == "StructuredTheta"}
    assert makers == {"_nearest_feasible"}


def test_only_linalg_reads_an_array_rank():
    # every array argument's rank and sizes are checked by one shape spec,
    # _linalg.as_float_array(a, name, shape), not by hand
    package = Path(esnkit.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "_linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "ndim":
                found.append(f"{path.stem}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{path.stem}: from {node.module} import ndim"
                          for alias in node.names if alias.name == "ndim"]
    assert found == []


def test_only_the_posterior_tells_frozen_covs_from_an_array():
    # every covariance field of a SmoothedPosterior is a FrozenCovs: its
    # __post_init__ wraps an array once, as one block per step, and no
    # other code branches on the type
    package = Path(esnkit.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for name, function in _functions(tree)
                   if f"{path.stem}.{name}"
                   == "identify.SmoothedPosterior.__post_init__"
                   for node in ast.walk(function)}
        found += [f"{path.stem}: {ast.unparse(call)}"
                  for call in ast.walk(tree)
                  if isinstance(call, ast.Call)
                  and getattr(call.func, "id", None) == "isinstance"
                  and len(call.args) == 2
                  and "FrozenCovs" in ast.unparse(call.args[1])
                  and id(call) not in allowed]
    assert found == []


def test_no_module_calls_np_block():
    # np.block copies every block into a new array; Grams, right-hand sides
    # and Hankel matrices are filled by slices or built by block indexing
    package = Path(esnkit.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "block"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                found.append(f"{path.stem}: {ast.unparse(node)}")
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("numpy")):
                found += [f"{path.stem}: from {node.module} import block"
                          for alias in node.names if alias.name == "block"]
    assert found == []


# int parameters that are no counts, with the check each gets instead
COUNT_EXEMPT = {
    "seed": "a seed goes to rng_from_seed, whose int(seed) is its only use",
    "stability.certify_weighted.vertex_budget":
        "a budget, not a count: NaN must stay a ValueError "
        "(test_discretize.py::test_rejects_nonfinite_scalars)",
}


def _unchecked_counts(paths):
    """``module.function.parameter`` for every parameter annotated ``int``
    or ``Optional[int]`` of a public module-level function that its body
    does not pass to ``check_count``."""
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            checked = {call.args[0].id for call in ast.walk(node)
                       if isinstance(call, ast.Call)
                       and getattr(call.func, "id", None) == "check_count"
                       and isinstance(call.args[0], ast.Name)}
            yield from (f"{path.stem}.{node.name}.{param.arg}"
                        for param in [*args.posonlyargs, *args.args, *args.kwonlyargs]
                        if param.annotation is not None
                        and ast.unparse(param.annotation) in ("int", "Optional[int]")
                        and param.arg not in checked)


def test_every_public_count_is_checked_as_one():
    # a float or a bool given for a count reads as numpy's or Python's own
    # error from deep inside, or silently as 1: check_count names it
    package = Path(esnkit.__file__).parent
    paths = [path for path in sorted(package.glob("*.py")) if path.stem != "_linalg"]
    unchecked = [name for name in _unchecked_counts(paths)
                 if name not in COUNT_EXEMPT and name.split(".")[-1] not in COUNT_EXEMPT]
    assert unchecked == []


def test_only_the_lyapunov_weight_solves_in_stability():
    # certify_weighted and the decay envelope take every P, with its
    # eigenvalue bounds, from the one routine
    tree = ast.parse(Path(esnkit.stability.__file__).read_text())
    callers = {name for name, node in _functions(tree)
               for call in ast.walk(node) if isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "solve_discrete_lyapunov"}
    assert callers == {"_lyapunov_weight"}
