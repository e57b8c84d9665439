"""Determinism rules: wall clocks, unseeded RNG, unordered iteration.

The simulator's replayability rests on three pillars (PR 2's
serial ≡ parallel bit-equivalence contract makes all three load-bearing):

* **DET001** — simulation logic must read :class:`repro.common.simtime`
  clocks, never the wall clock.  Wall time is allowed only in the
  observability layer (``obs/``, which *measures* wall time by design)
  and the throughput harnesses (``engine/bench.py``,
  ``model/bench.py``).
* **DET002** — all randomness must flow through
  :class:`repro.common.rng.SeedSequenceFactory` (or an explicitly seeded
  ``np.random.Generator``); the stdlib ``random`` module and numpy's
  legacy global RNG are process-global mutable state that any import can
  perturb.
* **DET003** — in the ``engine/`` and ``kernel/`` hot paths, iterating a
  dict/set view into an *ordered* accumulator is a shard-merge hazard:
  the parallel engine rebuilds those containers per worker, so insertion
  order (and hence the accumulated order) can differ from a serial run.
  Wrap the view in ``sorted(...)`` or accumulate order-insensitively.
* **DET004** — the columnar kernel's whole point is that per-page work
  runs as whole-array sweeps; a Python ``for`` over the page axis
  (a pool column, a mask over one, or a ``range`` sized by one) quietly
  reintroduces the per-page interpreter cost the backend exists to
  remove.  Loops over the *row/memcg* axis (``per_row`` bincounts, the
  memcg list) are the intended granularity and are not flagged.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.checks.core import Rule, RuleVisitor, register

__all__ = [
    "PerPageLoopRule",
    "UnorderedIterationRule",
    "UnseededRandomnessRule",
    "WallClockRule",
]


#: Wall-clock reads that make a run irreproducible.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: numpy legacy global-RNG entry points (np.random.<fn> without a
#: Generator): every one reads/mutates hidden process-global state.
_NP_LEGACY_FNS = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "bytes",
        "normal", "uniform", "poisson", "exponential", "beta", "gamma",
        "binomial", "standard_normal", "get_state", "set_state",
    }
)


class _WallClockVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        name = self.dotted_name(node.func)
        if name in _WALL_CLOCK_CALLS:
            self.report(
                node,
                f"wall-clock read `{name}()` outside the allowlist; "
                f"simulation code must use repro.common.simtime",
            )
        self.generic_visit(node)


@register
class WallClockRule(Rule):
    """DET001: no wall-clock reads outside obs/ and engine/bench.py."""

    id = "DET001"
    title = "wall-clock read in simulation code"
    allowlist = ("repro/obs/", "repro/engine/bench.py", "repro/model/bench.py")
    visitor_class = _WallClockVisitor


class _UnseededRandomnessVisitor(RuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        name = self.dotted_name(node.func)
        if name is not None:
            self._check(node, name)
        self.generic_visit(node)

    def _check(self, node: ast.Call, name: str) -> None:
        # stdlib random: both random.random() and `from random import x`.
        if name.startswith("random.") and name.count(".") == 1:
            self.report(
                node,
                f"stdlib RNG `{name}()` draws from process-global state; "
                f"route randomness through repro.common.rng",
            )
            return
        # numpy legacy global RNG: np.random.<fn>().
        if name.startswith("numpy.random."):
            fn = name.rsplit(".", 1)[1]
            if fn in _NP_LEGACY_FNS:
                self.report(
                    node,
                    f"legacy numpy global RNG `{name}()`; use "
                    f"repro.common.rng streams or a seeded "
                    f"np.random.Generator",
                )
            elif fn == "default_rng" and not node.args and not node.keywords:
                self.report(
                    node,
                    "`np.random.default_rng()` without a seed is entropy-"
                    "seeded; pass a seed (or use repro.common.rng)",
                )


@register
class UnseededRandomnessRule(Rule):
    """DET002: no unseeded / process-global randomness anywhere."""

    id = "DET002"
    title = "unseeded or process-global randomness"
    #: common/rng.py is the one place allowed to build generators.
    allowlist = ("repro/common/rng.py",)
    visitor_class = _UnseededRandomnessVisitor


_VIEW_METHODS = frozenset({"keys", "values", "items"})
#: List mutations that make accumulation order-sensitive.
_ORDERED_SINKS = frozenset({"append", "extend", "insert"})


def _unordered_iterable(node: ast.AST) -> Optional[str]:
    """Describe ``node`` if it is a dict view / set expression, else None."""
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _VIEW_METHODS
            and not node.args
        ):
            return f"dict .{func.attr}() view"
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}()"
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    return None


class _UnorderedIterationVisitor(RuleVisitor):
    def visit_For(self, node: ast.For) -> None:
        described = _unordered_iterable(node.iter)
        if described is not None and self._accumulates(node.body):
            self.report(
                node,
                f"iteration over {described} feeds an ordered accumulator; "
                f"wrap the iterable in sorted(...) so shard-merge order "
                f"cannot leak into results",
            )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        for gen in node.generators:
            described = _unordered_iterable(gen.iter)
            if described is not None:
                self.report(
                    node,
                    f"list built from {described}; wrap the iterable in "
                    f"sorted(...) so shard-merge order cannot leak into "
                    f"results",
                )
                break
        self.generic_visit(node)

    def _accumulates(self, body: List[ast.stmt]) -> bool:
        for stmt in body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _ORDERED_SINKS
                ):
                    return True
                if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                    return True
        return False


@register
class UnorderedIterationRule(Rule):
    """DET003: dict/set iteration -> ordered accumulation in hot paths."""

    id = "DET003"
    title = "order-sensitive accumulation from unordered iteration"
    path_fragments = ("repro/engine/", "repro/kernel/", "fixtures/lint/")
    visitor_class = _UnorderedIterationVisitor


#: The pooled per-page columns of ``repro.kernel.columnar`` (plus the
#: page-count attributes that size them).  An expression touching one of
#: these carries the *page axis*: machine-length, one element per page.
_PAGE_AXIS_ATTRS = frozenset(
    {
        "resident", "age_scans", "accessed", "state", "incompressible",
        "dirtied", "unevictable", "payload_bytes", "lru_active",
        "huge_group", "owner_row",
        "used", "capacity_pages",
    }
)

#: Calls whose result keeps the page axis of their array argument.
#: Anything else (``np.bincount``, ``np.unique``, reductions, ``list``,
#: ``zip``...) collapses or re-partitions the axis, so its result is
#: *not* treated as per-page — that is what keeps the row-axis
#: ``np.flatnonzero(per_row)`` loop and the per-memcg loops clean.
_PAGE_AXIS_PRESERVING = frozenset(
    {
        "range",
        "numpy.flatnonzero",
        "numpy.nonzero",
        "numpy.where",
        "numpy.sort",
        "numpy.minimum",
        "numpy.maximum",
        "numpy.clip",
        "numpy.abs",
        "numpy.asarray",
        "numpy.copy",
        "numpy.ascontiguousarray",
    }
)


class _PerPageLoopVisitor(RuleVisitor):
    """Flags ``for``/comprehension iteration over page-axis expressions.

    Page-axis-ness is tracked through simple local assignments
    (``res = self.resident[:u]`` makes ``res`` page-axis; a later
    rebinding to a non-page expression clears it), through subscripts,
    boolean/arithmetic combinations, and the axis-preserving numpy
    calls above.  Tuples and lists are never page-axis: iterating a
    tuple *of* arrays visits the arrays, not the pages.
    """

    def __init__(self, rule: Rule, ctx) -> None:
        super().__init__(rule, ctx)
        self._page_names: Set[str] = set()

    def _is_page_axis(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._page_names
        if isinstance(node, ast.Attribute):
            return node.attr in _PAGE_AXIS_ATTRS
        if isinstance(node, ast.Subscript):
            return self._is_page_axis(node.value)
        if isinstance(node, ast.BinOp):
            return self._is_page_axis(node.left) or self._is_page_axis(
                node.right
            )
        if isinstance(node, ast.UnaryOp):
            return self._is_page_axis(node.operand)
        if isinstance(node, ast.BoolOp):
            return any(self._is_page_axis(v) for v in node.values)
        if isinstance(node, ast.Compare):
            return self._is_page_axis(node.left) or any(
                self._is_page_axis(c) for c in node.comparators
            )
        if isinstance(node, ast.Call):
            name = self.dotted_name(node.func)
            if name in _PAGE_AXIS_PRESERVING:
                return any(self._is_page_axis(arg) for arg in node.args)
            return False
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if self._is_page_axis(node.value):
                self._page_names.add(name)
            else:
                self._page_names.discard(name)
        self.generic_visit(node)

    def _report_loop(self, node: ast.AST, iterable: ast.AST) -> None:
        described = ast.unparse(iterable)
        if len(described) > 48:
            described = described[:45] + "..."
        self.report(
            node,
            f"Python loop over the page axis (`{described}`); the "
            f"columnar kernel must sweep per-page state with whole-"
            f"array ops (see MachinePagePool.scan_all)",
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_page_axis(node.iter):
            self._report_loop(node, node.iter)
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        for gen in node.generators:
            if self._is_page_axis(gen.iter):
                self._report_loop(node, gen.iter)
                break
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension
    visit_DictComp = _check_comprehension


@register
class PerPageLoopRule(Rule):
    """DET004: per-page Python loops in the columnar kernel."""

    id = "DET004"
    title = "per-page Python loop in the columnar kernel"
    path_fragments = ("repro/kernel/columnar.py", "fixtures/lint/kernel/")
    visitor_class = _PerPageLoopVisitor
