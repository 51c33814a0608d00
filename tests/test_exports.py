"""The package's export table, and the imports of each module."""

import ast
import hashlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import trustless_mech
from trustless_mech import settlement
from trustless_mech.settlement import MechanismTag

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = sorted(
    path for path in Path(trustless_mech.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def test_all_is_sorted_unique_and_names_every_public_binding():
    exported = trustless_mech.__all__
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    assert exported == sorted(trustless_mech._EXPORTS)
    # each name resolves, on first access, to the object its module defines
    for name, module in trustless_mech._EXPORTS.items():
        defining = importlib.import_module(f"trustless_mech.{module}")
        assert getattr(trustless_mech, name) is getattr(defining, name), name
    # once resolved, the namespace binds exactly the exported names
    public = {
        name
        for name, value in vars(trustless_mech).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public
    assert set(exported) <= set(dir(trustless_mech))
    with pytest.raises(AttributeError, match="no_such_export"):
        trustless_mech.no_such_export
    star: dict = {}
    exec("from trustless_mech import *", star)
    assert sorted(star.keys() - {"__builtins__"}) == exported
    assert len(exported) == 64


# Runs in a fresh interpreter and prints, after each step, the package
# modules loaded so far; `dir` lists the exports before any is resolved.
IMPORT_FOOTPRINT = """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "trustless_mech")

import trustless_mech
assert set(trustless_mech.__all__) <= set(dir(trustless_mech))
print(loaded(), file=sys.stderr)
from trustless_mech import cli
cli.main(["beacon-uniformity", "--trials", "1025", "--seed", "7"])
print(loaded(), file=sys.stderr)
"""


def test_beacon_uniformity_imports_only_the_beacon():
    # a bare import loads no submodule, and the beacon check loads only what
    # it runs, so a stray module-level import fails here rather than showing
    # only as a slower start-up
    src = Path(trustless_mech.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT],
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    bare, beacon = done.stderr.splitlines()
    assert bare == str(["trustless_mech"])
    assert beacon == str(
        ["trustless_mech", "trustless_mech.beacon", "trustless_mech.cli", "trustless_mech.errors"]
    )
    # the output the installed-package CI job pins for these arguments
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "4b0c9d06c76e00f5ba349b2e993a679ae2276ec5399d51193db8c57b2321e282"
    )


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


CHAIN_STATE = {"nonempty_blocks", "mempool", "included_with_heights"}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem not in ("chain", "contract")],
    ids=[p.stem for p in MODULES if p.stem not in ("chain", "contract")],
)
def test_only_the_contract_reads_the_chain(path):
    # `ContractState.follow` is the one reader of the ledger, so every view of it,
    # the operator's sealed view included, is a contract's own record
    reads = [
        f"{path.name}:{node.lineno}: {node.attr}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in CHAIN_STATE
    ]
    assert reads == []


@pytest.mark.parametrize("name", ["auctions", "beacon", "school_choice"])
def test_the_mechanism_modules_hold_no_wire_code(name):
    # settlement writes and reads every byte of a reveal, so a wire rule
    # changes in one module; the mechanisms see plain values only
    path = Path(trustless_mech.__file__).parent / f"{name}.py"
    wire = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        # a name read, an attribute, or an imported alias
        if "WireFormatError" in {getattr(node, key, None) for key in ("id", "attr", "name")}:
            wire.append(f"{path.name}:{node.lineno}: WireFormatError")
        if isinstance(node, ast.FunctionDef) and node.name.startswith(("encode_", "decode_")):
            wire.append(f"{path.name}:{node.lineno}: def {node.name}")
    assert wire == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "settlement"],
    ids=[p.stem for p in MODULES if p.stem != "settlement"],
)
def test_only_settlement_compares_against_a_mechanism_tag(path):
    # a new mechanism then edits settlement alone; naming a tag as data, as
    # the strategy rules do, is no branch on it
    tree = ast.parse(path.read_text(encoding="utf-8"))
    tag_tuples = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "settlement"
        for alias in node.names
        if _is_tag_tuple(getattr(settlement, alias.name))
    }

    def names_a_tag(operand: ast.expr) -> bool:
        if isinstance(operand, ast.Name):
            return operand.id in tag_tuples
        return (
            isinstance(operand, ast.Attribute)
            and isinstance(operand.value, ast.Name)
            and operand.value.id == "MechanismTag"
            and operand.attr in MechanismTag.__members__
        )

    branches = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(map(names_a_tag, [node.left, *node.comparators]))
    ]
    assert branches == []


def _is_tag_tuple(value) -> bool:
    return isinstance(value, tuple) and bool(value) and all(
        isinstance(tag, MechanismTag) for tag in value
    )


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
