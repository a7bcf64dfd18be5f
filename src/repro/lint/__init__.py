"""reprolint — AST-based contract checker for the repro codebase.

The simulator's headline guarantees (bit-identical replay, merged==eager
arrival order, serial==parallel grids, pure-observation hooks) are
enforced dynamically by the auditor and the differential battery; this
package enforces them *statically*, at the offending line, before a
violation turns into an hours-later flaky bit-identity failure.

Three checker families:

``determinism``
    No wall-clock reads, unseeded randomness, ``id()``-keyed
    containers, ``hash()``-driven ordering, or raw ``set`` iteration
    feeding ordered output inside the simulation-critical packages.

``hooks``
    Functions installed on the engine's ``on_event`` observation hook
    may only *read* engine state — no attribute writes into the
    engine/cluster, no calls to mutating methods, checked one call
    level deep.

``pools``
    Objects that cross the ``--jobs`` process-pool boundary must stay
    picklable: no lambdas, local closures, open handles, locks, or
    generators in instance state.

Run it as ``repro lint`` or ``python -m repro.lint``.  Findings are
``file:line rule message`` lines; a finding can be silenced with::

    something_flagged()  # reprolint: disable=rule-name -- why it is OK

where the ``-- why it is OK`` justification is mandatory — an
undocumented disable is itself a finding.
"""

from __future__ import annotations

from .core import Diagnostic, FileContext, Linter, lint_paths
from .registry import Rule, all_rules, families, get_rule

# Importing the rule modules registers their rules.
from . import determinism as _determinism  # noqa: F401
from . import hooks as _hooks  # noqa: F401
from . import pools as _pools  # noqa: F401

__all__ = [
    "Diagnostic",
    "FileContext",
    "Linter",
    "Rule",
    "all_rules",
    "families",
    "get_rule",
    "lint_paths",
    "main",
]


def main(argv: list[str] | None = None) -> int:
    from .cli import main as _main

    return _main(argv)
