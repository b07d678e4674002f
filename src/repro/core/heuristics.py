"""Tunable configuration for ANEK's constraints (paper §3.3).

Every constraint generation rule is parametrized by a probability
``h ∈ [0, 1]`` representing "high probability"; the paper tunes these on
its small-benchmark training suite.  Heuristics can be individually
disabled, which powers the ablation benchmarks and the "Anek Logical"
baseline (all heuristics off, logical constraints hard).

The paper stresses that ANEK's architecture made it "quite easy to add
new constraints" as design iterations revealed gaps.
:class:`CustomHeuristic` exposes that extension point: a selector picks
PFG nodes, a predicate over kinds scores them, and the constraint is
emitted with the usual soft strength.
"""

from dataclasses import dataclass


class CustomHeuristic:
    """A user-defined heuristic constraint.

    * ``name`` — label used in factor names and constraint statistics;
    * ``selector(pfg, node)`` — True for PFG nodes the heuristic targets;
    * ``kind_predicate(kind)`` — True for the permission kinds the
      heuristic considers likely at those nodes;
    * ``strength`` — the constraint's "high probability" h.

    Example — "``copyOf*`` methods likely return unique"::

        CustomHeuristic(
            "H-copyOf",
            lambda pfg, node: (
                node is pfg.result_node
                and pfg.method_ref.method_decl.name.startswith("copyOf")
            ),
            lambda kind: kind == "unique",
            0.8,
        )
    """

    def __init__(self, name, selector, kind_predicate, strength=0.8):
        if not 0.0 < strength <= 1.0:
            raise ValueError("strength must be in (0, 1]")
        self.name = name
        self.selector = selector
        self.kind_predicate = kind_predicate
        self.strength = strength

    def __repr__(self):
        return "CustomHeuristic(%s, h=%.2f)" % (self.name, self.strength)


@dataclass
class HeuristicConfig:
    """Probabilities and switches for L1–L3 and H1–H5."""

    # Logical constraint confidences (paper: h1, h2, h3 per rule).
    h_outgoing: float = 0.95  # L1 — node vs outgoing edges
    h_split: float = 0.95  # L1 — sound splitting at split nodes
    h_incoming: float = 0.9  # L2 — node equals one incoming edge
    h_field_write: float = 0.9  # L3 — store receivers can write

    # Heuristic constraint confidences.
    h_constructor_unique: float = 0.8  # H1
    h_pre_post_same: float = 0.75  # H2
    h_create_unique: float = 0.8  # H3
    h_setter_writes: float = 0.8  # H4
    h_sync_shared: float = 0.75  # H5

    # Spec-derived prior strength (paper §3.2: B(0.9) / B(0.1)).
    spec_prior: float = 0.9
    # Strength cap for cross-method summary evidence.
    summary_confidence: float = 0.85

    # L2 mode: the paper states merges equal *one of* their inputs; the
    # default here applies a soft equality per input instead, which
    # propagates demand backward through loop headers much better under
    # BP (the one-of form is kept for the ablation benchmark).
    l2_one_of: bool = False

    # Switches (ablations / Anek Logical).
    enable_h1: bool = True
    enable_h2: bool = True
    enable_h3: bool = True
    enable_h4: bool = True
    enable_h5: bool = True

    # Method-name prefixes that trigger H3/H4.
    create_prefixes: tuple = ("create",)
    setter_prefixes: tuple = ("set",)

    # User-defined heuristic constraints (see CustomHeuristic).
    custom: tuple = ()

    @classmethod
    def logical_only(cls):
        """All heuristics off, logical constraints (near-)hard — the
        configuration of the paper's "Anek Logical" experiment."""
        return cls(
            h_outgoing=0.999999,
            h_split=0.999999,
            h_incoming=0.999999,
            h_field_write=0.999999,
            enable_h1=False,
            enable_h2=False,
            enable_h3=False,
            enable_h4=False,
            enable_h5=False,
        )

    def matches_create(self, method_name):
        return any(method_name.startswith(p) for p in self.create_prefixes)

    def matches_setter(self, method_name):
        return any(method_name.startswith(p) for p in self.setter_prefixes)
