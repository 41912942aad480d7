"""Registry discipline: engines are looked up by name, never constructed ad hoc.

``RunSpec`` fields, CLI flags and plan documents all select implementations
through the :mod:`repro.api.registry` registries; ``cross_check`` and the
equivalence suites assume *every* dispatch goes through the same door.  A
module that constructs :class:`CompiledSimulator` or calls a removal-engine
function directly bypasses that door: third-party registrations stop
applying, engine defaults fork, and a future engine swap misses the call
site.

Allowed homes: the ``perf/`` package (where the engines live), the
provider modules that register the built-ins, and anything under
``tests/``.  A deliberate direct use elsewhere carries an inline
``# noc-lint: disable=registry-discipline`` with its justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List

from repro.lint.base import FileContext, LintRule, lint_rules
from repro.lint.findings import Finding


@lint_rules.register("registry-discipline")
class RegistryDisciplineRule(LintRule):
    """Direct engine construction outside the engine/provider modules."""

    rule_id = "registry-discipline"
    description = (
        "construct engines via registry lookup by name, not directly — "
        "direct construction bypasses RunSpec/CLI dispatch and cross_check"
    )

    #: Engine entry points -> the registry that owns them.
    ENGINE_CALLABLES: Dict[str, str] = {
        "CompiledSimulator": "simulation_engines",
        "Simulator": "simulation_engines",
        "IndexedRouter": "routing_engines",
        "_context_engine": "removal_engines",
        "_rebuild_engine": "removal_engines",
    }

    #: Path components any one of which whitelists a file.
    ALLOWED_PARTS = frozenset({"perf", "tests"})

    #: Modules allowed to touch engines directly: the providers that
    #: define/register the built-ins, and the registry itself.
    ALLOWED_MODULES = frozenset(
        {
            "repro.api.registry",
            "repro.core.removal",
            "repro.routing.shortest_path",
            "repro.simulation.simulator",
            "repro.simulation.scenarios",
        }
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if any(part in self.ALLOWED_PARTS for part in ctx.parts):
            return ()
        if ctx.module in self.ALLOWED_MODULES or (
            ctx.module or ""
        ).startswith("repro.perf"):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name in self.ENGINE_CALLABLES:
                registry = self.ENGINE_CALLABLES[name]
                findings.append(
                    ctx.finding(
                        node,
                        self.rule_id,
                        f"direct construction of engine '{name}' bypasses the "
                        f"'{registry}' registry; resolve the implementation "
                        "by name so RunSpec/CLI dispatch and cross_check see "
                        "every call",
                    )
                )
        return findings
