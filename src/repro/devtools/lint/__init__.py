"""``repro.devtools.lint`` — determinism/invariant static analysis.

An AST-based analyzer that machine-checks the invariants the run store's
bit-identical-replay promise rests on: seed discipline, wall-clock and
entropy hygiene, canonical JSON, canonicalizable fingerprint dataclasses,
the ``ReproError`` contract, and the import-layering contract declared in
pyproject.toml.

Run it as ``python -m repro lint [paths]``; see ``--list-rules`` for the
catalog and ``--explain RPRnnn`` for any rule's full rationale.  Findings
are suppressed per line with ``# repro-lint: disable=RPRnnn -- rationale``.
"""

from repro.devtools.lint.config import LintConfig, discover_config, load_config
from repro.devtools.lint.diagnostics import Diagnostic, LintReport
from repro.devtools.lint.registry import RULES, Rule, get_rule
from repro.devtools.lint.runner import lint_paths

__all__ = [
    "Diagnostic",
    "LintConfig",
    "LintReport",
    "RULES",
    "Rule",
    "discover_config",
    "get_rule",
    "lint_paths",
    "load_config",
]
