"""repro.checks.flow: whole-program determinism & contract analysis.

The local rules in :mod:`repro.checks` see one file at a time.  This
package adds the interprocedural layer the serial≡parallel /
scalar≡columnar proof obligations actually rest on:

* :mod:`~repro.checks.flow.callgraph` — AST-based package call graph
  (imports, re-exports, method resolution via class scan, a conservative
  *unknown callee* lattice element);
* :mod:`~repro.checks.flow.taint` — **FLOW001** nondeterminism-taint
  fixpoint from sources (wall clock, unseeded RNG, ``os.environ``,
  ``id()``, unordered-set iteration) to tick-path sinks, and **FLOW002**
  fork-boundary closure (everything reachable from the parallel engine's
  worker entry points must be pickle-safe);
* :mod:`~repro.checks.flow.contracts` — **CON001/CON002** static
  column-contract checks against ``COLUMN_CONTRACTS`` tables;
* :mod:`~repro.checks.flow.cache` — the ``.repro-cache/`` warm path.

:func:`run_flow` is the entry point the lint runner and CLI use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.checks.core import Finding, Rule, register
from repro.checks.flow.cache import CacheStats, load_summaries
from repro.checks.flow.callgraph import (
    CallGraph,
    ModuleSummary,
    extract_module,
    find_package_root,
)
from repro.checks.flow.taint import run_fork_closure, run_taint

__all__ = [
    "FLOW_RULE_IDS",
    "FlowResult",
    "CallGraph",
    "ModuleSummary",
    "extract_module",
    "find_package_root",
    "run_flow",
]

#: Rule ids produced by the flow passes (registered below so reporters
#: can render titles and ``--rule`` can select them).
FLOW_RULE_IDS = ("FLOW001", "FLOW002", "CON001", "CON002")


class _FlowRule(Rule):
    """Registry placeholder: computed by :func:`run_flow`, not per-file."""

    #: Marks the rule as whole-program; the per-file engine skips it.
    flow_only = True

    def applies_to(self, rel_path: str) -> bool:
        return False

    def check(self, ctx) -> List[Finding]:  # pragma: no cover - never runs
        return []


@register
class TaintReachesTickPath(_FlowRule):
    id = "FLOW001"
    title = "nondeterminism reaches the tick path via a call chain"


@register
class ForkClosureUnpicklable(_FlowRule):
    id = "FLOW002"
    title = "unpicklable class reachable from a fork worker entry point"


@register
class ColumnContractMismatch(_FlowRule):
    id = "CON001"
    title = "column assignment contradicts its declared dtype/ndim contract"


@register
class UndeclaredColumn(_FlowRule):
    id = "CON002"
    title = "array column with no COLUMN_CONTRACTS declaration"


@dataclass
class FlowResult:
    """Outcome of one whole-program flow analysis."""

    findings: List[Finding]
    graphs: Dict[str, CallGraph] = field(default_factory=dict)
    cache_stats: List[CacheStats] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


def _package_roots(paths: Sequence[Path]) -> List[Path]:
    roots: List[Path] = []
    for path in paths:
        root = find_package_root(Path(path))
        if root not in roots:
            roots.append(root)
    return roots


def run_flow(
    paths: Sequence[Path],
    cache_dir: Optional[Path] = None,
    rules: Optional[Sequence[str]] = None,
) -> FlowResult:
    """Run every flow pass over the package(s) containing ``paths``.

    Flow analysis is whole-program: each given path selects its entire
    package (the topmost ``__init__.py`` ancestor), not just the files
    listed.  Findings suppressed with ``# repro: noqa[RULE]`` on their
    anchor (sink) line are dropped here, exactly like the local engine.

    Args:
        paths: files/directories inside the package(s) to analyze.
        cache_dir: ``.repro-cache`` directory (None = no caching).
        rules: restrict to these flow rule ids (default: all four).

    Raises:
        LintError: when a path is not inside a python package.
    """
    selected = set(rules) if rules is not None else set(FLOW_RULE_IDS)
    result = FlowResult(findings=[])
    for root in _package_roots(paths):
        summaries, stats = load_summaries(root, cache_dir=cache_dir)
        result.cache_stats.append(stats)
        for rel, error in sorted(stats.errors.items()):
            result.findings.append(
                Finding(path=rel, line=1, col=1, rule="PARSE", message=error)
            )
        graph = CallGraph(summaries)
        result.graphs[root.name] = graph
        findings: List[Finding] = []
        if "FLOW001" in selected:
            findings.extend(run_taint(graph))
        if "FLOW002" in selected:
            findings.extend(run_fork_closure(graph))
        if "CON001" in selected or "CON002" in selected:
            for summary in summaries:
                for document in summary.con_findings:
                    chain = tuple(document.get("chain", ()))
                    finding = Finding(
                        path=str(document["path"]),
                        line=int(document["line"]),
                        col=int(document["col"]),
                        rule=str(document["rule"]),
                        message=str(document["message"]),
                        chain=chain,
                    )
                    if finding.rule in selected:
                        findings.append(finding)
        # Sink-line suppression: a noqa on the anchor line covers the
        # whole multi-line diagnostic, chain and all.
        result.findings.extend(
            f
            for f in findings
            if not graph.suppressed_at(f.path, f.line, f.rule)
        )
    result.findings.sort()
    return result
