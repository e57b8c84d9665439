"""High-level lint entry points used by the CLI and the tier-1 test.

``run_lint`` is the library face of ``repro lint``: resolve paths, run
the per-file engine (and, with ``flow=True``, the whole-program flow
passes from :mod:`repro.checks.flow`), apply an optional baseline, and
return findings plus the rendered report.  ``run_external_tools``
drives the optional ruff/mypy pass for ``repro lint --ci`` — both tools
are *gated on availability* (they may not be installed), so CI degrades
gracefully to reprolint alone; the unused-import rule (IMP001) covers
ruff's F401 either way, over :func:`checkout_import_paths` too.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

# Importing the rule modules populates the registry.
from repro.checks import (  # noqa: F401  (imported for registration)
    rules_accounting,
    rules_determinism,
    rules_fork,
    rules_imports,
    rules_obs,
)
from repro.checks.core import Finding, LintEngine
from repro.checks.flow import FLOW_RULE_IDS, run_flow
from repro.checks.reporters import (
    filter_baseline,
    load_baseline,
    render_json,
    render_sarif,
    render_text,
    save_baseline,
)
from repro.obs.metrics import KNOWN_METRIC_NAMES

__all__ = [
    "LintResult",
    "check_docs_drift",
    "checkout_import_paths",
    "default_flow_cache_dir",
    "default_lint_paths",
    "run_external_tools",
    "run_lint",
]

#: A metric token never ends in "_" — that is the docs' glob shorthand
#: ("repro_fleet_*" in prose), not a series name.
_METRIC_TOKEN_RE = re.compile(r"\brepro_[a-z0-9_]*[a-z0-9]\b")


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    #: findings before baseline filtering (== findings when no baseline).
    raw_findings: List[Finding]
    report: str
    #: 0 clean, 1 findings (the CLI exit code contract).
    exit_code: int = 0
    notes: List[str] = field(default_factory=list)


def default_lint_paths() -> List[Path]:
    """The shipped package tree (works from a checkout *and* an install)."""
    return [Path(__file__).resolve().parent.parent]


def repo_root() -> Optional[Path]:
    """The checkout root (parent of ``src/``), when running from one."""
    package = Path(__file__).resolve().parent.parent
    candidate = package.parent.parent
    return candidate if (candidate / "pyproject.toml").exists() else None


def checkout_import_paths() -> List[Path]:
    """The checkout's code outside the package that ``repro lint --ci``
    checks for unused imports (IMP001): the tests (not the lint fixtures,
    which are broken on purpose), benchmarks, examples and perfbench.
    Empty when running from an installed tree."""
    checkout = repo_root()
    if checkout is None:
        return []
    paths = sorted((checkout / "tests").glob("*.py"))
    paths += [checkout / name
              for name in ("benchmarks", "examples", "perfbench")
              if (checkout / name).is_dir()]
    return paths


def check_docs_drift(docs_path: Path) -> List[Finding]:
    """Flag ``repro_*`` metric tokens in docs that no registered metric
    matches — the documentation flavour of OBS001 name drift."""
    if not docs_path.exists():
        return []
    findings: List[Finding] = []
    for lineno, line in enumerate(
        docs_path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for match in _METRIC_TOKEN_RE.finditer(line):
            token = match.group(0)
            if token not in KNOWN_METRIC_NAMES:
                findings.append(
                    Finding(
                        path=docs_path.name,
                        line=lineno,
                        col=match.start() + 1,
                        rule="OBS001",
                        message=(
                            f"documented metric {token!r} is not in "
                            f"repro.obs.metrics.MetricName (doc drift)"
                        ),
                    )
                )
    return findings


def default_flow_cache_dir() -> Optional[Path]:
    """``<checkout>/.repro-cache`` when running from a checkout, else None
    (installed trees run the flow passes uncached)."""
    checkout = repo_root()
    return checkout / ".repro-cache" if checkout is not None else None


def run_lint(
    paths: Optional[Sequence[Path]] = None,
    *,
    rules: Optional[Sequence[str]] = None,
    output_format: str = "text",
    baseline: Optional[Path] = None,
    update_baseline: Optional[Path] = None,
    root: Optional[Path] = None,
    docs: bool = True,
    flow: bool = False,
    flow_cache: Optional[Path] = None,
) -> LintResult:
    """Run reprolint and render a report.

    Args:
        paths: files/directories to lint (default: the installed package).
        rules: restrict to these rule ids.
        output_format: ``"text"``, ``"json"`` or ``"sarif"``.
        baseline: only report findings absent from this baseline file.
        update_baseline: write current findings to this baseline and
            report clean (the adoption workflow).
        root: findings are reported relative to this directory.
        docs: also run the docs/observability.md drift check when the
            docs tree is reachable (checkout runs; skipped from an
            installed wheel, and skipped when ``rules`` excludes OBS001).
        flow: also run the whole-program flow passes (FLOW001/FLOW002/
            CON001/CON002) over the package(s) containing ``paths``.
            Flow findings join the local ones before baseline filtering,
            so the baseline/suppression workflow covers both uniformly.
        flow_cache: call-graph cache directory for the flow passes
            (default: ``<checkout>/.repro-cache``; None there means no
            checkout was found and the flow run is simply uncached).
    """
    lint_paths = list(paths) if paths else default_lint_paths()
    if root is None:
        root = repo_root() or Path.cwd()
    engine = LintEngine(root=root, rules=rules)
    findings = engine.run(lint_paths)
    notes: List[str] = []

    if flow:
        flow_rules = (
            [r for r in rules if r in FLOW_RULE_IDS]
            if rules is not None
            else None
        )
        if flow_rules is None or flow_rules:
            flow_result = run_flow(
                lint_paths,
                cache_dir=(
                    flow_cache if flow_cache is not None
                    else default_flow_cache_dir()
                ),
                rules=flow_rules,
            )
            findings = sorted(findings + flow_result.findings)
            notes.extend(flow_result.notes)
            for stats in flow_result.cache_stats:
                notes.append(
                    f"flow: {stats.files} file(s), {stats.hits} cached, "
                    f"{stats.extracted} extracted"
                )

    if docs and any(rule.id == "OBS001" for rule in engine.rules):
        checkout = repo_root()
        if checkout is not None:
            findings = sorted(
                findings + check_docs_drift(checkout / "docs" / "observability.md")
            )
        else:
            notes.append("docs drift check skipped (no checkout docs/ tree)")

    raw = list(findings)
    if update_baseline is not None:
        save_baseline(findings, update_baseline)
        notes.append(
            f"baseline updated: {len(findings)} finding(s) recorded in "
            f"{update_baseline}"
        )
        findings = []
    elif baseline is not None:
        findings = filter_baseline(findings, load_baseline(baseline))

    renderers = {"json": render_json, "sarif": render_sarif}
    report = renderers.get(output_format, render_text)(findings)
    return LintResult(
        findings=findings,
        raw_findings=raw,
        report=report,
        exit_code=1 if findings else 0,
        notes=notes,
    )


def run_external_tools(paths: Sequence[Path]) -> List[str]:
    """Run ruff and mypy over ``paths`` when installed; report each step.

    Returns human-readable status lines; raises nothing — a missing tool
    is a skip, a failing tool surfaces its output in the line.  The
    caller decides whether failures are fatal (``repro lint --ci`` does).
    """
    lines: List[str] = []
    str_paths = [str(p) for p in paths]
    for tool, argv in (
        ("ruff", ["ruff", "check", *str_paths]),
        ("mypy", ["mypy", *str_paths]),
    ):
        if shutil.which(tool) is None:
            lines.append(f"{tool}: skipped (not installed)")
            continue
        proc = subprocess.run(  # noqa: S603 - fixed argv, no shell
            argv, capture_output=True, text=True
        )
        if proc.returncode == 0:
            lines.append(f"{tool}: ok")
        else:
            output = (proc.stdout + proc.stderr).strip()
            lines.append(f"{tool}: FAILED (exit {proc.returncode})\n{output}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:  # pragma: no cover
    """``python -m repro.checks.runner`` convenience entry point."""
    from repro.cli import main as cli_main

    return cli_main(["lint", *(argv or sys.argv[1:])])
