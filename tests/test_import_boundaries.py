"""The reference kernel stays behind the page-pool table.

The runtime reaches the reference kernel (:mod:`repro.kernel.oracle`)
only as the pool ``MachineConfig(kernel="scalar")`` selects: the pool
table in ``kernel/machine.py`` and the package's exports in
``kernel/__init__.py`` are its only importers.  Above the kernel a memcg
is the handle :class:`repro.kernel.memcg.MemCg`, so no module outside
``repro/kernel/`` names the reference memcg class.  Both rules are read
from the source with :mod:`ast`.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ORACLE = "repro.kernel.oracle"
REFERENCE_MEMCG = "ReferenceMemCg"


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


def test_reference_memcg_is_named_only_inside_the_kernel():
    naming = []
    for path, _package, tree in _modules():
        if path.startswith("kernel/"):
            continue
        for node in ast.walk(tree):
            names = (
                [node.id] if isinstance(node, ast.Name)
                else [node.attr] if isinstance(node, ast.Attribute)
                else [alias.name for alias in node.names]
                if isinstance(node, (ast.Import, ast.ImportFrom))
                else []
            )
            if any(name.split(".")[-1] == REFERENCE_MEMCG for name in names):
                naming.append(path)
    assert naming == []
    # The class exists under that name, so the rule is not vacuous.
    assert any(
        isinstance(node, ast.ClassDef) and node.name == REFERENCE_MEMCG
        for path, _package, tree in _modules() if path == "kernel/oracle.py"
        for node in ast.walk(tree)
    )
