"""R007 — banned APIs: names removed after deprecation stay removed.

A deprecation cycle only ends when the old spelling cannot quietly
reappear.  ``shield_sources`` (the PR 2 name for
:func:`repro.reliability.shield`) warned for two releases and was
deleted in 1.5.0.  ``config_from_kwargs`` (the loose-kwarg run
surface) and the ``DataSource`` adapter layer (``ReliableSource`` and
the three ``*Source`` adapters) followed once ``RunConfig`` became the
only way to configure ``MevInspector.run`` and the ``Reliable*``
facades called their sources directly.  This rule flags any
definition, import, or use of a banned identifier so a rebase or
copy-paste cannot resurrect it.  The banned list is configuration
(``[tool.repro-lint.rules.R007] banned``), so future removals get the
same guard by adding one string.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

DEFAULT_BANNED = ("shield_sources", "config_from_kwargs", "ReliableSource",
                  "ArchiveNodeSource", "MempoolObserverSource",
                  "FlashbotsApiSource")


@register
class BannedApiRule(Rule):
    rule_id = "R007"
    title = "banned-api"
    rationale = ("Identifiers removed after their deprecation cycle "
                 "must not be redefined, imported, or referenced.")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_package("repro.lint"):
            # the linter's own default list names the banned
            # identifiers, which is not a use of them
            return
        banned = set(self.option_str_list("banned", DEFAULT_BANNED))
        if not banned:
            return
        for node in ast.walk(ctx.tree):
            name = _referenced_name(node, banned)
            if name is not None:
                yield ctx.finding(
                    node, self.rule_id,
                    f"'{name}' was removed after its deprecation "
                    f"cycle and must not come back; use its "
                    f"documented replacement")


def _referenced_name(node: ast.AST,
                     banned: Set[str]) -> Optional[str]:
    """The banned identifier this node defines/imports/uses, if any."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)) and node.name in banned:
        return node.name
    if isinstance(node, ast.Name) and node.id in banned:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in banned:
        return node.attr
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        for alias in node.names:
            if alias.name in banned or \
                    (alias.asname or "") in banned:
                return alias.name
    if isinstance(node, ast.Constant) and \
            isinstance(node.value, str) and node.value in banned:
        # catches __all__ entries and getattr-by-string smuggling
        return node.value
    return None
