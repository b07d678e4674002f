"""Verification-coverage reporting.

The paper closes its PMD discussion by counting what *did* verify:
"Given that the remaining 167 calls to the next() method were correctly
verified by PLURAL, the resulting specifications are still quite useful
to programmers."  This module computes that view: per protocol method,
how many call sites exist, how many are flagged, and the verified
percentage — the number a practically-motivated programmer cares about.
"""

from dataclasses import dataclass, field
from typing import Dict

from repro.analysis.callgraph import build_call_graph
from repro.permissions.spec import SpecEnvironment


@dataclass
class MethodCoverage:
    """Verification coverage for one protocol method."""

    qualified_name: str = ""
    call_sites: int = 0
    warned_sites: int = 0

    @property
    def verified_sites(self):
        return self.call_sites - self.warned_sites

    @property
    def verified_fraction(self):
        if self.call_sites == 0:
            return 1.0
        return self.verified_sites / self.call_sites


@dataclass
class CoverageReport:
    """Whole-program verification coverage."""

    methods: Dict[str, MethodCoverage] = field(default_factory=dict)
    total_warnings: int = 0

    def method(self, qualified_name):
        return self.methods.get(qualified_name)

    def overall(self):
        sites = sum(m.call_sites for m in self.methods.values())
        warned = sum(m.warned_sites for m in self.methods.values())
        return MethodCoverage("<all>", sites, warned)

    def render(self):
        lines = ["Verification coverage (protocol call sites):"]
        for name in sorted(self.methods):
            cov = self.methods[name]
            lines.append(
                "  %-24s %4d sites, %4d verified (%.0f%%)"
                % (
                    name,
                    cov.call_sites,
                    cov.verified_sites,
                    100.0 * cov.verified_fraction,
                )
            )
        overall = self.overall()
        lines.append(
            "  %-24s %4d sites, %4d verified (%.0f%%)"
            % (
                "TOTAL",
                overall.call_sites,
                overall.verified_sites,
                100.0 * overall.verified_fraction,
            )
        )
        return "\n".join(lines)


def coverage_report(program, warnings, protocol_methods=None):
    """Compute coverage of protocol call sites against checker warnings.

    ``protocol_methods`` restricts the report to specific qualified
    names (default: every program method that carries a ``requires``
    clause, directly or inherited).
    """
    spec_env = SpecEnvironment(program)
    graph = build_call_graph(program)
    report = CoverageReport(total_warnings=len(warnings))
    warned_sites = {(w.method, w.line) for w in warnings}
    for site in graph.sites:
        callee = site.callee
        name = callee.qualified_name
        if protocol_methods is not None:
            if name not in protocol_methods:
                continue
        else:
            spec = spec_env.spec_of(callee)
            if not spec.requires:
                continue
        coverage = report.methods.setdefault(name, MethodCoverage(name))
        coverage.call_sites += 1
        if (site.caller.qualified_name, site.line) in warned_sites:
            coverage.warned_sites += 1
    return report
