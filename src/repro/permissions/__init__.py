"""Access permissions: kinds, abstract states, specifications.

Implements the PLURAL permission methodology the paper builds on:

* ``kinds``     — the five permission kinds of Figure 4 and their ordering
* ``states``    — abstract state hierarchies (Figure 1)
* ``spec``      — the ``@Perm(requires=..., ensures=...)`` spec language
* ``splitting`` — sound permission splitting (paper L1)
"""

from repro.permissions.kinds import (
    ALL_KINDS,
    FULL,
    IMMUTABLE,
    PURE,
    SHARE,
    UNIQUE,
    KindInfo,
    kind_info,
    satisfies,
    split_targets,
)
from repro.permissions.spec import (
    MethodSpec,
    PermClause,
    SpecParseError,
    format_clauses,
    parse_perm_clauses,
    spec_of_method,
)
from repro.permissions.states import ALIVE, StateSpace, state_space_of_class

__all__ = [
    "UNIQUE",
    "FULL",
    "SHARE",
    "IMMUTABLE",
    "PURE",
    "ALL_KINDS",
    "KindInfo",
    "kind_info",
    "satisfies",
    "split_targets",
    "ALIVE",
    "StateSpace",
    "state_space_of_class",
    "PermClause",
    "MethodSpec",
    "SpecParseError",
    "parse_perm_clauses",
    "format_clauses",
    "spec_of_method",
]
