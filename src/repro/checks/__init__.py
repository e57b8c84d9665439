"""repro.checks: determinism & invariant analysis for the simulator.

Three layers:

* **Local static rules** — an AST lint engine (``repro lint``) with
  simulator-specific per-file rules: DET001 wall-clock reads, DET002
  unseeded randomness, DET003 order-sensitive accumulation from
  unordered iteration, DET004 per-page Python loops in the columnar
  kernel, FORK001 pickle-safety at the fork boundary, ACC001 float
  equality in accounting code, OBS001 metric/event name drift, IMP001
  unused imports.
* **Flow passes** — :mod:`repro.checks.flow` (``repro lint --flow``),
  whole-program analyses over an AST call graph: FLOW001 interprocedural
  nondeterminism taint into the tick path, FLOW002 fork-boundary
  pickle-safety closure, CON001/CON002 static column contracts.
* **Runtime** — :mod:`repro.checks.invariants` accounting identities and
  :mod:`repro.checks.contracts` column-contract verification, asserted
  inside the hot paths when ``REPRO_CHECKS=1``.

See ``docs/static_analysis.md`` for the rule catalogue and the
``# repro: noqa[RULE]`` / baseline workflows.
"""

from repro.checks.core import (
    Finding,
    LintEngine,
    LintError,
    RULES,
    Rule,
    RuleVisitor,
    iter_python_files,
    register,
)
from repro.checks.invariants import (
    InvariantViolation,
    check_machine_accounting,
    check_memcg_histogram,
    check_merge_delta,
    invariants_enabled,
    set_invariants_enabled,
)

# Rule modules self-register on import (flow registers FLOW*/CON*).
from repro.checks import (  # noqa: F401  (imported for registration)
    flow,
    rules_accounting,
    rules_determinism,
    rules_fork,
    rules_imports,
    rules_obs,
)

from repro.checks.contracts import verify_column_contracts
from repro.checks.flow import FLOW_RULE_IDS, FlowResult, run_flow
from repro.checks.reporters import (
    filter_baseline,
    load_baseline,
    render_json,
    render_sarif,
    render_text,
    save_baseline,
)
from repro.checks.runner import (
    LintResult,
    check_docs_drift,
    default_flow_cache_dir,
    default_lint_paths,
    run_external_tools,
    run_lint,
)

__all__ = [
    "FLOW_RULE_IDS",
    "Finding",
    "FlowResult",
    "InvariantViolation",
    "LintEngine",
    "LintError",
    "LintResult",
    "RULES",
    "Rule",
    "RuleVisitor",
    "check_docs_drift",
    "check_machine_accounting",
    "check_memcg_histogram",
    "check_merge_delta",
    "default_flow_cache_dir",
    "default_lint_paths",
    "filter_baseline",
    "invariants_enabled",
    "iter_python_files",
    "load_baseline",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "run_external_tools",
    "run_flow",
    "run_lint",
    "save_baseline",
    "set_invariants_enabled",
    "verify_column_contracts",
]
