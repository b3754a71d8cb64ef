import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_traced_functions_resolve():
    # perfbench wraps these (module, name) pairs by name; a missing one
    # crashes every traced run
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    (pairs,) = [ast.literal_eval(node.value) for node in ast.parse(tracing.read_text()).body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["FUNCTIONS"]]
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
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
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
