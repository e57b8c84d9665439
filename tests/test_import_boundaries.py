"""The reference kernel stays behind the page-pool table, and telemetry
takes one path.

The runtime reaches the reference kernel (:mod:`repro.kernel.oracle`)
only as the pool ``MachineConfig(kernel="scalar")`` selects: the pool
table in ``kernel/machine.py`` and the package's exports in
``kernel/__init__.py`` are its only importers.  Above the kernel a memcg
is the handle :class:`repro.kernel.memcg.MemCg`, so no module outside
``repro/kernel/`` names the reference memcg class.

Telemetry travels from a machine to the store only in blocks
(:class:`~repro.model.trace.TelemetryBlock`): no module of the layers
that produce and carry it (agent, engine, faults, cluster) names
``TraceEntry``, and no module defines an entry or batch ingest method or
a switch between delivery paths.  Every rule is read from the source
with :mod:`ast`.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ORACLE = "repro.kernel.oracle"
REFERENCE_MEMCG = "ReferenceMemCg"
#: Packages that produce or carry telemetry and never see an entry.
BLOCK_ONLY = ("agent/", "engine/", "faults/", "cluster/")
#: Names of the retired entry/batch ingest and delivery-path switches.
RETIRED = {"add_batch", "append_batch", "prefer_blocks", "ship_blocks"}


def _modules():
    """``(path relative to the package, package of the module, tree)``."""
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        package = ".".join(("repro",) + relative.parent.parts)
        yield relative.as_posix(), package, ast.parse(
            path.read_text(), str(path))


def _imported(package, tree):
    """Every module ``tree`` imports, relative imports resolved, with
    ``from module import name`` also counted as ``module.name``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")[: len(package.split("."))
                                           - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def test_only_the_pool_table_imports_the_reference_kernel():
    importers = sorted(
        path for path, package, tree in _modules()
        if any(name == ORACLE or name.startswith(ORACLE + ".")
               for name in _imported(package, tree))
    )
    assert importers == ["kernel/__init__.py", "kernel/machine.py"]


def _names(node):
    """The names a node reads or imports."""
    return (
        [node.id] if isinstance(node, ast.Name)
        else [node.attr] if isinstance(node, ast.Attribute)
        else [alias.name for alias in node.names]
        if isinstance(node, (ast.Import, ast.ImportFrom))
        else []
    )


def _naming(name, skip=lambda path: False):
    """Modules (not skipped) that read or import ``name``."""
    return sorted({
        path for path, _package, tree in _modules() if not skip(path)
        for node in ast.walk(tree)
        if any(found.split(".")[-1] == name for found in _names(node))
    })


def test_reference_memcg_is_named_only_inside_the_kernel():
    naming = _naming(REFERENCE_MEMCG, lambda path: path.startswith("kernel/"))
    assert naming == []
    # The class exists under that name, so the rule is not vacuous.
    assert any(
        isinstance(node, ast.ClassDef) and node.name == REFERENCE_MEMCG
        for path, _package, tree in _modules() if path == "kernel/oracle.py"
        for node in ast.walk(tree)
    )


def test_telemetry_carriers_never_name_trace_entries():
    naming = _naming("TraceEntry",
                     lambda path: not path.startswith(BLOCK_ONLY))
    assert naming == []
    # The rule sees the modules it guards.
    assert "agent/telemetry.py" in _naming(
        "TelemetryBlock", lambda path: not path.startswith(BLOCK_ONLY))


def _defined(tree):
    """Every name ``tree`` defines: functions, classes, parameters,
    keyword arguments and assignment targets (plain or attribute)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, (ast.Name, ast.Attribute)):
                        yield _names(leaf)[0]


def test_one_ingest_path_and_no_delivery_switch():
    defining = sorted(
        (path, name) for path, _package, tree in _modules()
        for name in set(_defined(tree)) & RETIRED
    )
    assert defining == []
    # The rule sees definitions: the one ingest method is found.
    assert any("append_columns" in set(_defined(tree))
               for path, _package, tree in _modules()
               if path == "tracestore/store.py")
