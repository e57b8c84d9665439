"""Static column-contract verification (CON001 / CON002).

The columnar kernel (:mod:`repro.kernel.columnar`) and the compiled
model tensors (:mod:`repro.model.trace`) promise fixed dtypes and ranks
for every pooled/compiled array — the whole-pool sweeps and suffix-sum
lookups silently produce wrong answers (or silently upcast and slow
down) if an assignment drifts.  Owning modules declare the promise in a
module-level ``COLUMN_CONTRACTS`` literal::

    COLUMN_CONTRACTS = {
        "MachinePagePool.age_scans": {"dtype": "uint8", "ndim": 1},
        ...
    }

This pass reads that literal straight from the AST (no import, so it
works on fixtures and broken trees alike) and checks, inside each
contract-owning class:

* **CON001** — an assignment (or constructor keyword) whose value is a
  recognizable array constructor — ``np.zeros``/``np.ones``/
  ``np.empty``/``np.full``/``np.arange``/``np.asarray`` with a literal
  ``dtype=``, or ``.astype(...)`` — with a dtype or rank that
  contradicts the declared contract.  One-step local propagation is
  applied: ``fresh = np.zeros(n, dtype=np.int64); self.col = fresh`` is
  checked too.
* **CON002** — ``self.<name> = <array constructor>`` for a *public*
  ``name`` with no declared contract: a new column snuck into a pooled
  class without declaring its dtype/shape promise.

The runtime half lives in :mod:`repro.checks.contracts` and verifies
the same table against live arrays behind ``REPRO_CHECKS=1``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.checks.core import Finding

__all__ = ["check_module_contracts", "parse_contract_table"]

#: The module-level literal the pass looks for.
TABLE_NAME = "COLUMN_CONTRACTS"

#: Array constructors whose first argument is the shape.
_SHAPE_CTORS = frozenset(
    {"numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full"}
)

#: dtype spellings -> canonical dtype string.
_DTYPE_NAMES = {
    "bool": "bool", "bool_": "bool",
    "int8": "int8", "int16": "int16", "int32": "int32", "int64": "int64",
    "uint8": "uint8", "uint16": "uint16", "uint32": "uint32",
    "uint64": "uint64",
    "float32": "float32", "float64": "float64", "float": "float64",
    "int": "int64",
}


def parse_contract_table(tree: ast.Module) -> Optional[Dict[str, Dict[str, object]]]:
    """The ``COLUMN_CONTRACTS`` literal of a module, or None.

    Only pure literals are accepted — the table is shared with the
    runtime checker, so anything dynamic would make the static and
    runtime views diverge.
    """
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == TABLE_NAME
        ):
            try:
                table = ast.literal_eval(stmt.value)
            except ValueError:
                return None
            if isinstance(table, dict):
                return table
    return None


def _dtype_string(node: ast.AST) -> Optional[str]:
    """Canonical dtype for a literal dtype expression, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _DTYPE_NAMES.get(node.value, node.value)
    if isinstance(node, ast.Attribute):
        return _DTYPE_NAMES.get(node.attr)
    if isinstance(node, ast.Name):
        return _DTYPE_NAMES.get(node.id)
    return None


def _ctor_facts(
    node: ast.AST, dotted
) -> Optional[Tuple[Optional[str], Optional[int], str]]:
    """(dtype, ndim, description) when ``node`` is a recognizable array
    constructor; dtype/ndim are None when not statically determined."""
    if not isinstance(node, ast.Call):
        return None
    # .astype(X) — dtype known, rank preserved (unknown here).
    if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
        dtype = _dtype_string(node.args[0]) if node.args else None
        for kw in node.keywords:
            if kw.arg == "dtype":
                dtype = _dtype_string(kw.value)
        if dtype is not None:
            return dtype, None, f".astype({dtype})"
        return None
    name = dotted(node.func)
    if name is None:
        return None
    dtype: Optional[str] = None
    for kw in node.keywords:
        if kw.arg == "dtype":
            dtype = _dtype_string(kw.value)
    if name in _SHAPE_CTORS:
        ndim: Optional[int] = None
        shape_pos = 0
        if node.args:
            shape = node.args[shape_pos]
            if isinstance(shape, ast.Tuple):
                ndim = len(shape.elts)
            else:
                ndim = 1
        if dtype is None:
            return None
        return dtype, ndim, f"{name.rsplit('.', 1)[-1]}(dtype={dtype})"
    if name in ("numpy.arange",):
        if dtype is None:
            return None
        return dtype, 1, f"arange(dtype={dtype})"
    if name in ("numpy.asarray", "numpy.array", "numpy.asanyarray"):
        if dtype is None:
            return None
        return dtype, None, f"{name.rsplit('.', 1)[-1]}(dtype={dtype})"
    return None


class _ContractVisitor(ast.NodeVisitor):
    """Walks one contract-owning class, checking assignments + ctor kwargs."""

    def __init__(
        self,
        rel_path: str,
        class_name: str,
        contracts: Dict[str, Dict[str, object]],
        dotted,
    ):
        self.rel_path = rel_path
        self.class_name = class_name
        self.contracts = contracts
        self.dotted = dotted
        self.findings: List[Finding] = []
        #: local name -> ctor facts (one-step propagation).
        self._locals: Dict[str, Tuple[Optional[str], Optional[int], str]] = {}
        #: class names that own at least one contract entry.
        self._owners = {key.split(".", 1)[0] for key in contracts}

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.rel_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule,
                message=message,
            )
        )

    def _check_value(
        self, attr: str, value: ast.AST, node: ast.AST
    ) -> None:
        facts = _ctor_facts(value, self.dotted)
        if facts is None and isinstance(value, ast.Name):
            facts = self._locals.get(value.id)
        key = f"{self.class_name}.{attr}"
        contract = self.contracts.get(key)
        if contract is None:
            if facts is not None and not attr.startswith("_"):
                self._report(
                    "CON002",
                    node,
                    f"undeclared column `{key}`: array assignment with no "
                    f"COLUMN_CONTRACTS entry — declare its dtype/ndim "
                    f"promise",
                )
            return
        if facts is None:
            return  # not statically determinable; the runtime check covers it
        dtype, ndim, described = facts
        want_dtype = contract.get("dtype")
        want_ndim = contract.get("ndim")
        if dtype is not None and want_dtype is not None and dtype != want_dtype:
            self._report(
                "CON001",
                node,
                f"column `{key}` declared dtype={want_dtype} but assigned "
                f"{described} (dtype={dtype})",
            )
        if (
            ndim is not None
            and isinstance(want_ndim, int)
            and ndim != want_ndim
        ):
            self._report(
                "CON001",
                node,
                f"column `{key}` declared ndim={want_ndim} but assigned a "
                f"rank-{ndim} constructor ({described})",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        # Track locals for one-step propagation.
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            facts = _ctor_facts(node.value, self.dotted)
            if facts is not None:
                self._locals[node.targets[0].id] = facts
            else:
                self._locals.pop(node.targets[0].id, None)
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self._check_value(target.attr, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            node.value is not None
            and isinstance(node.target, ast.Attribute)
            and isinstance(node.target.value, ast.Name)
            and node.target.value.id == "self"
        ):
            self._check_value(node.target.attr, node.value, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # Constructor keywords: cls(col=local) / ClassName(col=np.zeros(...)).
        callee: Optional[str] = None
        if isinstance(node.func, ast.Name):
            if node.func.id == "cls":
                callee = self.class_name
            elif node.func.id in self._owners:
                callee = node.func.id
        elif isinstance(node.func, ast.Attribute):
            leaf = node.func.attr
            if leaf in self._owners:
                callee = leaf
        if callee is not None:
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                saved = self.class_name
                self.class_name = callee
                self._check_value(kw.arg, kw.value, node)
                self.class_name = saved
        self.generic_visit(node)


def check_module_contracts(tree: ast.Module, summary) -> List[Finding]:
    """Run CON001/CON002 over one module (no-op without a contract table).

    Args:
        tree: the module's parsed AST.
        summary: the module's :class:`~repro.checks.flow.callgraph.ModuleSummary`
            (for rel_path; suppressions are applied later by the runner).
    """
    contracts = parse_contract_table(tree)
    if not contracts:
        return []
    owners = {key.split(".", 1)[0] for key in contracts}
    # A tiny alias resolver good enough for dtype/ctor dotted names.
    module_aliases: Dict[str, str] = {}
    symbol_aliases: Dict[str, str] = {}
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    module_aliases[alias.asname] = alias.name
                else:
                    module_aliases[alias.name.split(".")[0]] = alias.name
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            for alias in stmt.names:
                symbol_aliases[alias.asname or alias.name] = (
                    f"{stmt.module}.{alias.name}"
                )

    def dotted(node: ast.AST) -> Optional[str]:
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        resolved = module_aliases.get(root) or symbol_aliases.get(root) or root
        parts.append(resolved)
        return ".".join(reversed(parts))

    findings: List[Finding] = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name in owners:
            visitor = _ContractVisitor(
                summary.rel_path, stmt.name, contracts, dotted
            )
            visitor.visit(stmt)
            findings.extend(visitor.findings)
    return sorted(findings)
