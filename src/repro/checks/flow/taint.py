"""Interprocedural passes: FLOW001 taint, FLOW002 fork closure.

**FLOW001 — nondeterminism reaches the tick path.**  The local rules
(DET001/DET002/DET003) flag a wall-clock read or an unseeded RNG *where
it happens*; they cannot see that a kernel sweep calls a helper that
calls a helper that reads ``time.time()``.  This pass propagates a
taint fact — "calling this function can observe nondeterminism" — from
every source function to fixpoint over the call graph (reverse BFS, so
chains are shortest), then reports each **sink** function (anything
defined under ``kernel/``, ``engine/`` or ``model/``) whose taint
arrives *through a call*.  The finding anchors at the call site inside
the sink — the line a ``# repro: noqa[FLOW001]`` suppression must sit
on — and carries the full source→sink chain in
:attr:`~repro.checks.core.Finding.chain`.

Only the innermost sink is reported: if kernel ``f`` calls kernel ``g``
calls a tainted helper, the finding lands on ``g`` (where
nondeterminism *enters* the tick path), not on every transitive caller.
A sink that contains a source directly is reported with a one-hop
chain — that is how hazards no local rule covers (``id()``,
``os.environ``) surface inside the tick path itself.

The **unknown callee** lattice element is deliberately non-tainting:
an unresolvable call contributes nothing, so every FLOW001 report is a
*proof* (a concrete chain), never a guess.

**FLOW002 — fork-boundary closure.**  FORK001 checks each class
locally; this pass generalizes it to reachability: starting from the
parallel-engine worker entry points (functions under ``engine/`` whose
name contains ``worker``), everything transitively reachable must be
pickle-safe.  A reachable constructor call to a class whose ``__init__``
stores an unpicklable attribute (and that declares no pickle hooks) is
reported at the hazard line, with the entry→constructor chain attached.

Source-side allowlist: functions in ``obs/`` (measures wall time by
design), ``checks/`` (the invariant gate reads ``REPRO_CHECKS`` from
the environment) and ``common/rng.py`` (the one sanctioned generator
factory) are never treated as taint sources — mirroring the local
rules' allowlists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.checks.core import Finding
from repro.checks.flow.callgraph import CallGraph, FunctionInfo, SourceInfo

__all__ = [
    "SOURCE_ALLOWLIST_FRAGMENTS",
    "SINK_PATH_FRAGMENTS",
    "find_worker_entry_points",
    "run_fork_closure",
    "run_taint",
]

#: Rel-path fragments whose functions never *originate* taint.
SOURCE_ALLOWLIST_FRAGMENTS: Tuple[str, ...] = (
    "obs/",
    "checks/",
    "common/rng.py",
)

#: Rel-path fragments that make a function a tick-path sink.
SINK_PATH_FRAGMENTS: Tuple[str, ...] = ("kernel/", "engine/", "model/")


@dataclass
class _Taint:
    """Why one function is tainted (enough to rebuild the chain)."""

    source: SourceInfo
    #: (callee qualname, call line) the taint arrived through, or None
    #: when the function contains the source directly.
    via: Optional[Tuple[str, int]] = None


def _source_exempt(fn: FunctionInfo) -> bool:
    return any(fragment in fn.rel_path
               for fragment in SOURCE_ALLOWLIST_FRAGMENTS)


def _is_sink(fn: FunctionInfo) -> bool:
    return any(fragment in fn.rel_path for fragment in SINK_PATH_FRAGMENTS)


def _propagate(graph: CallGraph) -> Dict[str, _Taint]:
    """Reverse-BFS taint to fixpoint; first (shortest) taint wins.

    BFS from the source layer guarantees termination on cycles — a
    function is tainted at most once — and yields shortest chains, so
    diagnostics stay readable.
    """
    taints: Dict[str, _Taint] = {}
    frontier: List[str] = []
    for qualname, fn in graph.functions.items():
        if fn.sources and not _source_exempt(fn):
            taints[qualname] = _Taint(source=fn.sources[0])
            frontier.append(qualname)
    frontier.sort()  # deterministic report order
    while frontier:
        next_frontier: List[str] = []
        for callee in frontier:
            taint = taints[callee]
            for caller, line in sorted(graph.callers.get(callee, ())):
                if caller not in taints:
                    taints[caller] = _Taint(
                        source=taint.source, via=(callee, line)
                    )
                    next_frontier.append(caller)
        frontier = sorted(next_frontier)
    return taints


def _chain_lines(
    graph: CallGraph, qualname: str, taints: Dict[str, _Taint]
) -> List[str]:
    """Render the qualname→source hop list for a finding's chain."""
    lines: List[str] = []
    current: Optional[str] = qualname
    guard = 0
    while current is not None and guard < 64:
        guard += 1
        fn = graph.functions[current]
        taint = taints[current]
        if taint.via is None:
            lines.append(
                f"{current} ({fn.rel_path}:{taint.source.line}): "
                f"{taint.source.detail}"
            )
            current = None
        else:
            callee, line = taint.via
            lines.append(f"{current} ({fn.rel_path}:{line}) calls")
            current = callee
    return lines


def run_taint(graph: CallGraph) -> List[Finding]:
    """FLOW001 over a linked call graph."""
    taints = _propagate(graph)
    findings: List[Finding] = []
    for qualname in sorted(taints):
        fn = graph.functions[qualname]
        if not _is_sink(fn):
            continue
        taint = taints[qualname]
        if taint.via is not None:
            callee_fn = graph.functions[taint.via[0]]
            if _is_sink(callee_fn):
                # Taint entered the tick path deeper in; report there.
                continue
            anchor_line = taint.via[1]
            route = f"via `{taint.via[0]}`"
        else:
            anchor_line = taint.source.line
            route = "directly"
        findings.append(
            Finding(
                path=fn.rel_path,
                line=anchor_line,
                col=1,
                rule="FLOW001",
                message=(
                    f"nondeterminism ({taint.source.detail}) reaches "
                    f"tick-path function `{qualname}` {route}"
                ),
                chain=tuple(_chain_lines(graph, qualname, taints)),
            )
        )
    return sorted(findings)


def find_worker_entry_points(graph: CallGraph) -> List[str]:
    """Fork-boundary entry points: ``engine/`` functions named ``*worker*``.

    In the shipped tree this is ``repro.engine.parallel._worker_main`` —
    the loop every forked shard process runs.  The name-based convention
    (leading-underscore-stripped name starts with ``worker``) keeps
    fixtures and future engines (ROADMAP item 2's broker workers)
    covered without a hardcoded list, while helpers that merely mention
    workers (``default_worker_count``) stay out.
    """
    return sorted(
        qualname
        for qualname, fn in graph.functions.items()
        if "engine/" in fn.rel_path
        and fn.name.lower().lstrip("_").startswith("worker")
        and fn.class_name is None
    )


def run_fork_closure(graph: CallGraph) -> List[Finding]:
    """FLOW002 over a linked call graph."""
    entries = find_worker_entry_points(graph)
    if not entries:
        return []
    reached = graph.reachable_from(entries)
    findings: List[Finding] = []
    for qualname in sorted(reached):
        fn = graph.functions[qualname]
        if fn.name != "__init__" or fn.class_name is None:
            continue
        cls = graph.classes.get(fn.class_name)
        if cls is None or cls.has_pickle_hooks or not cls.hazards:
            continue
        # Rebuild the entry -> constructor chain from BFS parents.
        chain: List[str] = []
        current = qualname
        guard = 0
        while guard < 64:
            guard += 1
            parent, line = reached[current]
            if parent == current:
                chain.append(f"{current} (fork worker entry point)")
                break
            parent_fn = graph.functions[parent]
            chain.append(
                f"{current} reached from {parent} ({parent_fn.rel_path}:{line})"
            )
            current = parent
        for hazard_line, hazard in cls.hazards:
            findings.append(
                Finding(
                    path=cls.rel_path,
                    line=hazard_line,
                    col=1,
                    rule="FLOW002",
                    message=(
                        f"`{cls.qualname}` stores an unpicklable attribute "
                        f"({hazard}) on self and is reachable from the fork "
                        f"worker entry point(s); it cannot cross the "
                        f"fork/pickle boundary"
                    ),
                    chain=tuple(chain),
                )
            )
    return sorted(findings)
