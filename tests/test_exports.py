"""Every exported name exists: ``__all__`` lists and the package's own imports."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gselc
from gselc import encoding

MODULES = [f"gselc.{m.name}" for m in pkgutil.iter_modules(gselc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _package_imports():
    """(module, name) for every ``from .module import name`` in ``gselc/__init__.py``."""
    tree = ast.parse(Path(gselc.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_imports_exist_and_are_exported():
    imported = _package_imports()
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(f"gselc.{module_name}")
        assert hasattr(module, name) and hasattr(gselc, name), f"{module_name}.{name}"
        assert name in getattr(module, "__all__", [name]), f"{name} not in {module_name}.__all__"


# the public surface: adding a name (say, a second build wrapper) or dropping
# one takes an edit here
PACKAGE_NAMES = {
    "graph": {
        "Graph",
        "cycle",
        "disjoint_union",
        "edge_local_complement",
        "elc_via_lcs",
        "from_edges",
        "from_json",
        "local_complement",
        "new_empty",
        "path",
        "star",
        "to_dot",
        "to_json",
        "toggle_edge",
    },
    "report": {"Report"},
    "statevector": {
        "DEFAULT_MAX_QUBITS",
        "Gate",
        "GateKind",
        "StateVector",
        "equal_exact",
        "equal_up_to_global_phase",
        "graph_state",
        "plus_state",
        "scan_theorem1_shared_neighbors",
        "verify_stabilizers",
        "verify_theorem1",
        "verify_vertex_lc",
    },
    "encoding": {
        "CircuitLog",
        "build_logical_cluster",
        "verify_chain_elc_steps",
    },
}
ENCODING_ALL = {
    "IDENTITY_H",
    "block",
    "CircuitLog",
    "record_ghz",
    "record_pentagon",
    "record_logical_cz",
    "counts_match",
    "verify_chain_elc_steps",
    "build_logical_cluster",
}


def test_public_surface_is_pinned():
    imported = {}
    for module_name, name in _package_imports():
        imported.setdefault(module_name, set()).add(name)
    assert imported == PACKAGE_NAMES
    assert set(encoding.__all__) == ENCODING_ALL
    assert len(encoding.__all__) == len(ENCODING_ALL)  # no name listed twice


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# uses the scan below cannot see: run.py's set-up program is a string, and
# the workloads and tracer read these off Graph instances
PERFBENCH_UNSEEN = ("gselc.cli.build_parser", "gselc.graph.Graph.degree", "gselc.graph.Graph.edge_count")


def _perfbench_api_uses():
    """(file, dotted name) for every gselc name the benchmark scripts reach.

    Aliases come from each file's ``import gselc`` and ``from gselc... import``
    statements, wherever they sit. Every name such an import pulls in is a
    use, and so is every attribute chain rooted at an alias (with its prefixes).
    """
    uses = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update((a.asname or "gselc", a.name) for a in node.names if a.name == "gselc")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gselc":
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    uses.add((path.name, f"{node.module}.{alias.name}"))
        for node in ast.walk(tree):
            chain, root = [], node
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if chain and isinstance(root, ast.Name) and root.id in aliases:
                uses.add((path.name, ".".join([aliases[root.id], *reversed(chain)])))
    return uses


def _resolve(dotted):
    """The object a dotted name reaches, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(".".join(parts[:i]))
    return obj


def test_perfbench_uses_only_names_that_exist():
    uses = _perfbench_api_uses() | {("(unseen)", name) for name in PERFBENCH_UNSEEN}
    names = {name for _, name in uses}
    # the scan sees the calls of the gated workloads and the tracer's hook
    for expected in (
        "gselc.cli.main",
        "gselc.statevector.apply_gates",
        "gselc.statevector.equal_exact",
        "gselc.graph.elc_via_lcs",
        "gselc.verify_theorem1",
        "gselc.encoding.CircuitLog.append",
    ):
        assert expected in names, expected
    missing = []
    for filename, name in sorted(uses):
        try:
            _resolve(name)
        except ImportError:
            missing.append(f"{filename}: {name}")
    assert not missing, f"names the benchmark uses are gone: {missing}"
