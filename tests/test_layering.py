"""Module layering of the package: imports inside csoslab point down one
order, and every intra-package import sits at the top of its module; the
package names the benchmark harness calls exist."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import csoslab

# lowest first; a module may import only the modules before it
ORDER = ("elliptic", "lattice", "bethe", "scalar", "matel", "thermo",
         "contract", "cli")
SRC = Path(csoslab.__file__).resolve().parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _package_imports(tree):
    """(node, imported module) for every import of a csoslab module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module != "csoslab" \
                    and not (node.module or "").startswith("csoslab."):
                continue
            base = (node.module or "").removeprefix("csoslab").lstrip(".")
            if base:
                yield node, base.split(".")[0]
            else:   # from . import a, b
                for alias in node.names:
                    yield node, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("csoslab."):
                    yield node, alias.name.split(".")[1]


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(), filename=name)


def test_every_module_has_a_layer():
    assert set(MODULES) - {"__init__"} == set(ORDER)


@pytest.mark.parametrize("name", ORDER)
def test_imports_point_down(name):
    up = sorted({target for _, target in _package_imports(_tree(name))
                 if ORDER.index(target) >= ORDER.index(name)})
    assert not up, f"{name} imports {up}, which are not below it"


@pytest.mark.parametrize("name", MODULES)
def test_package_imports_at_module_top(name):
    tree = _tree(name)
    nested = sorted({node.lineno for node, _ in _package_imports(tree)
                     if node not in tree.body})
    assert not nested, f"{name}.py imports csoslab modules at lines {nested}"


# the one router of pair elements: in production (every module but the
# contract and the CLI, which check and report) only matel._pair_table
# calls the dense table, and only matel._det_table the determinant kernel
# of a table; mpme_bruteforce, the dense table's 1 x 1 case, has no
# production caller
ROUTE_CALLS = {("matel", "_pair_table", "_dense_table"),
               ("matel", "mpme_bruteforce", "_dense_table"),
               ("matel", "_det_table", "_table_kernel")}
WATCHED = ("mpme_bruteforce", "_dense_table", "_table_kernel")


def _route_calls(name):
    """(module, top-level definition, callee) for every call of a WATCHED
    function in the module."""
    for top in _tree(name).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                if callee in WATCHED:
                    yield name, getattr(top, "name", "<module>"), callee


def test_one_router_of_pair_elements():
    calls = {call for name in ORDER if name not in ("contract", "cli")
             for call in _route_calls(name)}
    assert calls == ROUTE_CALLS
    # the contract and the CLI reach the determinant kernel through
    # _det_table only, as production does
    kernel = {call for name in ORDER for call in _route_calls(name)
              if call[2] == "_table_kernel"}
    assert kernel == {("matel", "_det_table", "_table_kernel")}


def _memo_stores(tree):
    """Line numbers of the assignments into `<x>.memo[...]`."""
    for node in ast.walk(tree):
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, (ast.AugAssign,
                                                      ast.AnnAssign))
                   else [])
        for sub in (sub for target in targets for sub in ast.walk(target)):
            if isinstance(sub, ast.Subscript) and isinstance(
                    sub.value, ast.Attribute) and sub.value.attr == "memo":
                yield sub.lineno


@pytest.mark.parametrize("name", MODULES)
def test_only_bethe_writes_root_set_memos(name):
    # what depends on a root set alone is measured in one place,
    # bethe._measure; every other module reads it
    stores = sorted(set(_memo_stores(_tree(name))))
    if name == "bethe":
        assert stores, "bethe no longer stores a root set's measures"
    else:
        assert not stores, f"{name}.py stores into a memo at lines {stores}"


def test_one_acceptance_rule_for_root_sets():
    # a root set is refused in one place, cached or solved: inside bethe a
    # SolverError is built only by the Newton loop, the acceptance gate
    # and bethe_residual, its read-only reader
    builders = {getattr(top, "name", "<module>") for top in _tree("bethe").body
                for node in ast.walk(top) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "SolverError"}
    assert builders == {"_newton", "_accept", "bethe_residual"}


# the benchmark harness, read here and never changed
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_functions_exist():
    # every function the tracer wraps is in the package
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod, attrs, _ in spans.LAYER_FUNCTIONS.values():
        home = importlib.import_module(f"csoslab.{mod}")
        for attr in (attrs,) if isinstance(attrs, str) else attrs:
            assert callable(getattr(home, attr, None)), f"{mod}.{attr}"


def test_workload_calls_fit_signatures():
    # every call the workloads make of a csoslab function binds to its
    # signature: the function exists and takes the keywords given
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module or "").startswith("csoslab"):
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    importlib.import_module(f"csoslab.{alias.name}")
                    if node.module == "csoslab" else
                    getattr(importlib.import_module(node.module), alias.name))
    keywords = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                           ast.Name):
            owner = names.get(func.value.id)
            if not inspect.ismodule(owner):
                continue
            target = getattr(owner, func.attr, None)
            where = f"{func.value.id}.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in names:
            target, where = names[func.id], func.id
        else:
            continue
        assert callable(target), f"workloads.py:{node.lineno} {where}"
        given = [kw.arg for kw in node.keywords]
        keywords.update(given)
        inspect.signature(target).bind(*node.args,
                                       **dict.fromkeys(given))
    assert {"mode", "method", "cache_dir", "side",
            "resolution"} <= keywords
