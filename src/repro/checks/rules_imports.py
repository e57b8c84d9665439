"""IMP001: unused imports, found from the AST alone.

ruff's F401 finds these too, but ruff is optional and ``repro lint --ci``
skips it when it is not installed; this rule runs wherever the engine
does.  An import is *used* when the name it binds is read anywhere in
the module (code, annotations, quoted annotations included) or listed in
a literal ``__all__``.  Like F401 it exempts ``from __future__`` imports,
star imports, explicit re-exports (``import x as x``,
``from m import y as y``) and statements marked ``# noqa: F401`` (the
same intent, spelled for ruff): a side-effect import, such as one that
registers rules, says so with that marker.

The check is name-based, not scope-based: a name read anywhere counts as
a use of every import binding it.  It can miss an unused import whose
name is reused elsewhere, and never reports a used one.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set

from repro.checks.core import FileContext, Finding, Rule, register

__all__ = ["UnusedImportRule"]

#: ``# noqa`` (every code) or ``# noqa: F401, E402`` (the listed codes).
_NOQA_RE = re.compile(r"#\s*noqa\b(?::(?P<codes>[\sA-Z0-9,]*))?")
_CODE_RE = re.compile(r"[A-Z]+[0-9]+")


def _noqa_f401(lines: List[str], node: ast.stmt) -> bool:
    """Whether a ruff-style ``noqa`` on any line of ``node`` covers F401."""
    for line in lines[node.lineno - 1 : node.end_lineno or node.lineno]:
        for match in _NOQA_RE.finditer(line):
            codes = _CODE_RE.findall(match.group("codes") or "")
            if not codes or "F401" in codes:
                return True
    return False


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    """Every annotation expression in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    """Names the module reads, quoted annotations and ``__all__`` included."""
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    name.id for name in ast.walk(quoted)
                    if isinstance(name, ast.Name)
                )
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            continue
        targets = getattr(node, "targets", None) or [node.target]
        exported = any(isinstance(t, ast.Name) and t.id == "__all__"
                       for t in targets)
        if exported and isinstance(node.value, (ast.List, ast.Tuple)):
            used.update(
                element.value for element in node.value.elts
                if isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            )
    return used


@register
class UnusedImportRule(Rule):
    """IMP001: an imported name the module never uses."""

    id = "IMP001"
    title = "unused import"

    def check(self, ctx: FileContext) -> List[Finding]:
        used = _used_names(ctx.tree)
        lines = ctx.source.splitlines()
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                prefix = "." * node.level + (node.module or "")
                bindings = [
                    (alias, alias.asname or alias.name,
                     f"{prefix}.{alias.name}" if node.module else
                     f"{prefix}{alias.name}")
                    for alias in node.names if alias.name != "*"
                ]
            elif isinstance(node, ast.Import):
                bindings = [
                    (alias, alias.asname or alias.name.split(".")[0],
                     alias.name)
                    for alias in node.names
                ]
            else:
                continue
            unused = [
                shown for alias, bound, shown in bindings
                if alias.asname != alias.name and bound not in used
            ]
            if not unused or _noqa_f401(lines, node):
                continue
            for shown in unused:
                findings.append(Finding(
                    path=ctx.rel_path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule=self.id,
                    message=(
                        f"{shown!r} imported but unused; delete it, or mark "
                        f"a side-effect import with '# noqa: F401'"
                    ),
                ))
        return findings
