import ast
import importlib
import re
import subprocess
import symtable
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_package_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.1 s of import time and 12 MiB of memory;
    # the package's own root finding does not need it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import singell, singell.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_only_operators_imports_sparse_linalg():
    # sparse matrices and linear solves, and so the one harmonic lift, live
    # in one module: no other module imports scipy.sparse, scipy.linalg or
    # any of their submodules
    importers = set()
    for path in (SRC / "singell").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == package or name.startswith(package + ".")
                   for name in names for package in ("scipy.sparse", "scipy.linalg")):
                importers.add(path.stem)
    assert importers == {"operators"}


def _scoped(node, scope=()):
    """(dotted scope, node) for every node under `node`, the scope being the
    classes and functions that enclose it."""
    for child in ast.iter_child_nodes(node):
        yield ".".join(scope), child
        inner = (scope + (child.name,)
                 if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope)
        yield from _scoped(child, inner)


def _package_nodes():
    """(module.scope, node) for every node of every module of the package."""
    for path in (SRC / "singell").glob("*.py"):
        for scope, node in _scoped(ast.parse(path.read_text())):
            yield f"{path.stem}.{scope}", node


def test_only_the_coefficient_field_assembles():
    # A is assembled in one place, `CoefficientField.operator`; every other
    # reader of A reads that property
    callers = {scope for scope, node in _package_nodes() if isinstance(node, ast.Call)
               and "assemble" in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))}
    assert callers == {"grids.CoefficientField.operator"}


def _raisers(pattern):
    """The scope of every `raise` whose message text matches `pattern`."""
    return {scope for scope, node in _package_nodes() if isinstance(node, ast.Raise)
            and any(isinstance(part, ast.Constant) and isinstance(part.value, str)
                    and re.search(pattern, part.value) for part in ast.walk(node))}


def test_one_datum_rule_and_one_exponent_rule():
    # f is checked once, on the sampled values, and n once, by analytic's rule
    assert _raisers(r"datum must be") == {"grids.ProblemSpec.__post_init__"}
    assert _raisers(r"exponents? .*must be") == {"analytic.check_n"}


def test_ellipticity_is_read_off_the_field():
    # `CoefficientField.ellipticity` is the one certificate: no module
    # defines a function that wraps it
    assert not [scope for scope, node in _package_nodes()
                if isinstance(node, ast.FunctionDef) and node.name == "check_ellipticity"]


def _traced_functions():
    """perfbench's tracer list: the (module, name) pairs it wraps by name."""
    tracing = ROOT / "perfbench" / "tracing.py"
    (pairs,) = [ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["FUNCTIONS"]]
    return pairs


def test_traced_functions_resolve():
    # perfbench wraps these (module, name) pairs by name; a missing one
    # crashes every traced run
    pairs = _traced_functions()
    assert pairs
    for module, name in pairs:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


def _dotted(node):
    """'a.b.c' for the attribute chain a.b.c on a name; None otherwise."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(names)]) if isinstance(node, ast.Name) else None


def test_benchmark_reads_resolve():
    # perfbench's workloads import singell modules and read `singell.<name>...`
    # attributes at call time; an API change must fail here, not in a run
    workloads = ROOT / "perfbench" / "workloads.py"
    tree = ast.parse(workloads.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("singell"):
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("singell"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
    chains = {chain for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              for chain in [_dotted(node)] if chain and chain.startswith("singell.")}
    assert "singell.cli.main" in chains
    for chain in chains:
        target = importlib.import_module("singell")
        for name in chain.split(".")[1:]:
            assert hasattr(target, name), chain
            target = getattr(target, name)


_SCOPE_NAMES = {ast.Lambda: "lambda", ast.ListComp: "listcomp", ast.SetComp: "setcomp",
                ast.DictComp: "dictcomp", ast.GeneratorExp: "genexpr"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _in_scopes(node, tables, top="", used=None):
    """(symbol tables from the module's inward, enclosing module-level
    definition, node) for every node under `node`.  Each def, class, lambda
    and comprehension enters its own `symtable` scope, matched by kind and
    line."""
    used = set() if used is None else used
    for child in ast.iter_child_nodes(node):
        yield tables, top, child
        inner, inner_top = tables, top
        if isinstance(child, _DEFS) or type(child) in _SCOPE_NAMES:
            name = child.name if isinstance(child, _DEFS) else _SCOPE_NAMES[type(child)]
            table = next(t for t in tables[-1].get_children() if t.get_id() not in used
                         and (t.get_name(), t.get_lineno()) == (name, child.lineno))
            used.add(table.get_id())
            inner, inner_top = tables + (table,), top or name
        yield from _in_scopes(child, inner, inner_top, used)


def _is_singell_module(value):
    return isinstance(value, types.ModuleType) and value.__name__.split(".")[0] == "singell"


def _imported(node):
    """{bound name: object} for what an import statement binds to singell or
    to a name read from a singell module (relative imports are singell's)."""
    if isinstance(node, ast.Import):
        return {alias.asname or "singell": importlib.import_module(
                    alias.name if alias.asname else "singell")
                for alias in node.names if alias.name.split(".")[0] == "singell"}
    if not node.level and (node.module or "").split(".")[0] != "singell":
        return {}
    source = importlib.import_module("." * node.level + (node.module or ""), "singell")
    return {alias.asname or alias.name: getattr(source, alias.name, None)
            for alias in node.names}


def _singell_reads(source, package=None):
    """(enclosing module-level definition, object) for every ast.Name or
    ast.Attribute load in `source` that resolves to a singell binding: a
    name bound by an import from singell (or, in the package module
    `package`, by a module-level def or class), read where no nearer scope
    rebinds it; or an attribute read on a singell module.  Other loads
    resolve to None."""
    scoped = list(_in_scopes(ast.parse(source), (symtable.symtable(source, "<source>", "exec"),)))
    bound = {}    # symtable id -> {name: object}
    for tables, _, node in scoped:
        names = bound.setdefault(tables[-1].get_id(), {})
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_imported(node))
        elif package and len(tables) == 1 and isinstance(node, _DEFS):
            names[node.name] = getattr(importlib.import_module(package), node.name)

    def resolve(node, tables):
        if isinstance(node, ast.Attribute):
            base = resolve(node.value, tables)
            return getattr(base, node.attr, None) if _is_singell_module(base) else None
        if not isinstance(node, ast.Name):
            return None
        for depth, table in enumerate(reversed(tables)):
            # a class body's names are not seen by the scopes nested in it
            if (depth and table.get_type() == "class"
                    or node.id not in table.get_identifiers()):
                continue
            symbol = table.lookup(node.id)
            if not symbol.is_free():
                scope = tables[0] if symbol.is_global() else table
                return bound.get(scope.get_id(), {}).get(node.id)
        return None

    for tables, top, node in scoped:
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            yield top, resolve(node, tables)


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public name is read by the package outside its own definition and
    # its re-export, by a demo, by the README's library example or by what
    # perfbench runs; a name that only tests call is a second route to a
    # formula, and it goes.  A read counts only where it resolves to the
    # public binding: a local or an attribute of another object that shares
    # its spelling does not
    import singell
    public = {id(getattr(singell, name)): name for name in singell.__all__}
    readme = (ROOT / "README.md").read_text()
    sources = [(path.read_text(), None) for path in sorted((ROOT / "demos").glob("*.py"))]
    sources += [(block, None) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    sources.append(((ROOT / "perfbench" / "workloads.py").read_text(), None))
    sources += [(path.read_text(), f"singell.{path.stem}")
                for path in sorted((SRC / "singell").glob("*.py")) if path.stem != "__init__"]
    read = {public.get(id(getattr(importlib.import_module(module), name)))
            for module, name in _traced_functions()}
    for source, package in sources:
        for top, value in _singell_reads(source, package):
            name = public.get(id(value))
            if name and (package, top) != (getattr(singell, name).__module__, name):
                read.add(name)
    unread = sorted(set(singell.__all__) - read)
    assert not unread, f"public names that only tests call: {unread}"
