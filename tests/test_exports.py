"""The package's hand-kept export list, and the imports of each module."""

import ast
import importlib.util
import types
from pathlib import Path

import pytest

import trustless_mech

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = sorted(
    path for path in Path(trustless_mech.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def test_all_is_sorted_unique_and_names_every_public_binding():
    exported = trustless_mech.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    public = {
        name
        for name, value in vars(trustless_mech).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside string annotations."""
    nodes = list(ast.walk(tree))
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                nodes.extend(ast.walk(ast.parse(node.value, mode="eval")))
    return {node.id for node in nodes if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    assert sorted(imported - _used_names(tree)) == []


@pytest.mark.parametrize("name", ["chain", "commitments", "contract"])
def test_the_commit_reveal_layer_imports_no_mechanism(name):
    # payloads stay opaque bytes until settlement, so these modules import
    # nothing from the package but each other and errors
    path = Path(trustless_mech.__file__).parent / f"{name}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level
            names = [node.module] if node.module else [alias.name for alias in node.names]
            imported.update(prefix + name for name in names)
    package = {module for module in imported if module.startswith((".", "trustless_mech"))}
    assert package <= {".chain", ".commitments", ".contract", ".errors"}


# Standard-library sources of values a seed does not fix: entropy, clocks, ids.
UNSEEDED_MODULES = {"secrets", "random", "time", "datetime", "uuid"}
ENTROPY_READS = {"urandom", "getrandom"}


@pytest.mark.parametrize(
    "path", [*MODULES, Path(trustless_mech.__file__)], ids=[*(p.stem for p in MODULES), "__init__"]
)
def test_no_module_draws_randomness_outside_the_seeded_stream(path):
    # every random value comes from beacon.HashStream; the package's own
    # imports are read, since the standard library loads `random` and `time`
    unseeded = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            unseeded += [a.name for a in node.names if a.name.split(".")[0] in UNSEEDED_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in UNSEEDED_MODULES:
                unseeded.append(node.module)
            elif node.module == "os":
                unseeded += [f"os.{a.name}" for a in node.names if a.name in ENTROPY_READS]
        elif isinstance(node, ast.Attribute) and node.attr in ENTROPY_READS:
            unseeded.append(f"{ast.unparse(node.value)}.{node.attr}")
    assert unseeded == []


def _bench_package_imports():
    """``(file, module, name)`` for every ``from trustless_mech... import name``
    in the benchmark's scripts."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "trustless_mech":
                    yield from ((path.name, node.module, alias.name) for alias in node.names)


def test_every_package_name_the_benchmark_imports_resolves():
    # the benchmark runs only on demand, so a change that removes a name it
    # imports fails here first
    found = list(_bench_package_imports())
    assert found
    missing = [
        (file, module, name)
        for file, module, name in found
        if not hasattr(importlib.import_module(module), name)
        and importlib.util.find_spec(f"{module}.{name}") is None
    ]
    assert missing == []
