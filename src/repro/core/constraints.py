"""Constraint generation: logical rules L1–L3, heuristics H1–H5 (§3.3).

Each rule emits soft factors (paper Eq. 6) over the kind/state variables
of PFG nodes.  Edge variables are collapsed: a factor between adjacent
nodes is equivalent to the paper's node–edge–node chain with the edge
variable marginalized, and halves the model size.

L1 at split nodes uses the sound-splitting predicate extended with the
``none`` value: no permission splits to no permission, and a ``none``
piece means nothing moved along that edge.
"""

from repro.core.pfg import PFGNodeKind
from repro.factorgraph.compile import add_soft_one_of
from repro.factorgraph.factors import (
    conditional_predicate_factor,
    predicate_factor,
    soft_equality,
)
from repro.permissions import kinds
from repro.permissions.splitting import legal_edge_pair


def split_predicate(node_kind, given, retained):
    """Sound splitting over the kind domain including ``none``."""
    if node_kind == "none":
        return given == "none" and retained == "none"
    if given == "none":
        return retained == node_kind
    if retained == "none":
        return kinds.satisfies(node_kind, given)
    return legal_edge_pair(node_kind, given, retained)


def transfer_predicate(node_kind, given):
    """A split with no retained flow: the whole permission may weaken."""
    if node_kind == "none":
        return given == "none"
    if given == "none":
        return True
    return kinds.satisfies(node_kind, given)


def retain_predicate(retained, node_kind, given):
    """Retention side of a split, conditioned on (node, given)."""
    return split_predicate(node_kind, given, retained)


def writing_kind(kind):
    return kind in kinds.WRITING_KINDS


def unique_kind(kind):
    return kind == kinds.UNIQUE


def not_read_only_kind(kind):
    return kind not in kinds.READ_ONLY_KINDS and kind != "none"


def thread_shared_kind(kind):
    return kind in kinds.THREAD_SHARED_KINDS


def recombine(kind_a, kind_b):
    """The kind held after recombining a retained piece with a returned
    piece (fraction merging collapsed onto kinds): ``none`` is the
    identity, and a piece implied by the other is absorbed into it."""
    if kind_a == "none":
        return kind_b
    if kind_b == "none":
        return kind_a
    if kinds.satisfies(kind_a, kind_b):
        return kind_a
    if kinds.satisfies(kind_b, kind_a):
        return kind_b
    return kinds.weakest([kind_a, kind_b])


def recombine_predicate(node_kind, retained, returned):
    """Call-site merge: node holds the recombination of its two inputs."""
    return node_kind == recombine(retained, returned)


class ConstraintGenerator:
    """Emits the paper's constraints into a factor graph for one method."""

    def __init__(self, graph, pfg, config, var_namer):
        self.graph = graph
        self.pfg = pfg
        self.config = config
        self.vars = var_namer  # NodeVariables instance from model.py
        self.counts = {}

    def _count(self, rule):
        self.counts[rule] = self.counts.get(rule, 0) + 1

    # -- logical constraints -------------------------------------------------------

    def add_logical(self):
        self.add_l1_outgoing()
        self.add_l2_incoming()
        self.add_l3_field_writes()

    def add_l1_outgoing(self):
        """L1: node vs outgoing flow — equality at branches, sound
        splitting at split nodes."""
        for node in self.pfg.nodes:
            if not node.out_edges:
                continue
            if node.kind == PFGNodeKind.SPLIT:
                self._add_split_constraints(node)
            else:
                for edge in node.out_edges:
                    self._add_edge_equality(node, edge.dst, self.config.h_outgoing)

    def _add_split_constraints(self, node):
        given_targets = [e.dst for e in node.out_edges if e.role == "given"]
        retained_targets = [e.dst for e in node.out_edges if e.role != "given"]
        node_kind = self.vars.kind(node)
        for given in given_targets:
            given_kind = self.vars.kind(given)
            # Ability: the node can supply the given piece.  A plain
            # likelihood factor — a demand for `pure` constrains the node
            # only to "not none" (any kind can give pure), a demand for
            # `full` constrains it to {unique, full}, and so on.
            self.graph.add_factor(
                predicate_factor(
                    "L1give/%d>%d" % (node.node_id, given.node_id),
                    [node_kind, given_kind],
                    transfer_predicate,
                    self.config.h_split,
                )
            )
            self._count("L1-split")
            for retained in retained_targets:
                # Retention: what the splitter keeps, conditioned on the
                # (node, given) pair so it adds no bias of its own.
                retained_kind = self.vars.kind(retained)
                self.graph.add_factor(
                    conditional_predicate_factor(
                        "L1retain/%d>%d+%d"
                        % (node.node_id, given.node_id, retained.node_id),
                        [retained_kind, node_kind, given_kind],
                        retain_predicate,
                        self.config.h_split,
                        condition_axes=(1, 2),
                    )
                )
                self._count("L1-split")
        # States flow unchanged through splits — but not into call
        # merges, whose state is set by what the callee returns (the
        # retained piece's state at split time is the *pre*-call state;
        # equating it with the post-call merge would leak states across
        # state-changing calls).
        for target in given_targets:
            self._add_state_equality(node, target, self.config.h_split)
        for target in retained_targets:
            if "call-merge" not in target.hints:
                self._add_state_equality(node, target, self.config.h_split)

    def _add_edge_equality(self, src, dst, strength):
        # Skip the source-side constraint into multi-input merges: the
        # merge's own L2 one-of covers those edges (edge-variable collapse).
        if dst.kind in (PFGNodeKind.MERGE, PFGNodeKind.RETURN) and len(
            dst.in_edges
        ) > 1:
            return
        src_kind = self.vars.kind(src)
        dst_kind = self.vars.kind(dst)
        self.graph.add_factor(
            soft_equality(
                "L1eq/%d>%d" % (src.node_id, dst.node_id),
                src_kind,
                dst_kind,
                strength,
            )
        )
        self._count("L1-eq")
        self._add_state_equality(src, dst, strength)

    def _add_state_equality(self, src, dst, strength):
        src_state = self.vars.state(src)
        dst_state = self.vars.state(dst)
        if src_state is None or dst_state is None:
            return
        if src_state.domain != dst_state.domain:
            return
        self.graph.add_factor(
            soft_equality(
                "L1state/%d>%d" % (src.node_id, dst.node_id),
                src_state,
                dst_state,
                strength,
            )
        )
        self._count("L1-state")

    def add_l2_incoming(self):
        """L2: a merge/return node equals one of its incoming sources.

        Call-site merges are special-cased: they *recombine* the retained
        piece with the piece the callee returned (fraction re-merging),
        rather than selecting one path's permission.
        """
        for node in self.pfg.nodes:
            if node.kind not in (PFGNodeKind.MERGE, PFGNodeKind.RETURN):
                continue
            sources = [edge.src for edge in node.in_edges]
            if len(sources) < 2:
                continue
            if "call-merge" in node.hints and len(sources) == 2:
                self._add_call_merge(node, sources)
                continue
            node_kind = self.vars.kind(node)
            source_kinds = [self.vars.kind(src) for src in sources]
            node_state = self.vars.state(node)
            source_states = [
                self.vars.state(src)
                for src in sources
                if self.vars.state(src) is not None
                and node_state is not None
                and self.vars.state(src).domain == node_state.domain
            ]
            if self.config.l2_one_of:
                add_soft_one_of(
                    self.graph,
                    "L2/%d" % node.node_id,
                    node_kind,
                    source_kinds,
                    self.config.h_incoming,
                )
                self._count("L2")
                if source_states:
                    add_soft_one_of(
                        self.graph,
                        "L2state/%d" % node.node_id,
                        node_state,
                        source_states,
                        self.config.h_incoming,
                    )
                    self._count("L2-state")
            else:
                for position, source_kind in enumerate(source_kinds):
                    self.graph.add_factor(
                        soft_equality(
                            "L2/%d/%d" % (node.node_id, position),
                            node_kind,
                            source_kind,
                            self.config.h_incoming,
                        )
                    )
                    self._count("L2")
                for position, source_state in enumerate(source_states):
                    self.graph.add_factor(
                        soft_equality(
                            "L2state/%d/%d" % (node.node_id, position),
                            node_state,
                            source_state,
                            self.config.h_incoming,
                        )
                    )
                    self._count("L2-state")

    def _add_call_merge(self, node, sources):
        node_kind = self.vars.kind(node)
        retained_kind = self.vars.kind(sources[0])
        returned_kind = self.vars.kind(sources[1])
        # Condition on both inputs: given what was kept and what came
        # back, the merged kind is (softly) determined.
        self.graph.add_factor(
            conditional_predicate_factor(
                "L2merge/%d" % node.node_id,
                [node_kind, retained_kind, returned_kind],
                recombine_predicate,
                self.config.h_incoming,
                condition_axes=(1, 2),
            )
        )
        self._count("L2-call-merge")
        # State: after a call the object's state is whatever the callee
        # left it in — follow the returned (post) side when it carries
        # state, else the retained side.
        node_state = self.vars.state(node)
        if node_state is not None:
            for source in (sources[1], sources[0]):
                source_state = self.vars.state(source)
                if (
                    source_state is not None
                    and source_state.domain == node_state.domain
                ):
                    self.graph.add_factor(
                        soft_equality(
                            "L2mergestate/%d" % node.node_id,
                            node_state,
                            source_state,
                            self.config.h_incoming,
                        )
                    )
                    self._count("L2-call-merge-state")
                    break

    def add_l3_field_writes(self):
        """L3: field-store receivers hold a writing permission."""
        for store, receiver in self.pfg.field_store_receivers:
            receiver_kind = self.vars.kind(receiver)
            self.graph.add_factor(
                predicate_factor(
                    "L3/%d" % store.node_id,
                    [receiver_kind],
                    writing_kind,
                    self.config.h_field_write,
                )
            )
            self._count("L3")

    # -- heuristic constraints ---------------------------------------------------------

    def add_heuristics(self):
        config = self.config
        if config.enable_h1:
            self.add_h1_constructors()
        if config.enable_h2:
            self.add_h2_pre_post()
        if config.enable_h3:
            self.add_h3_factories()
        if config.enable_h4:
            self.add_h4_setters()
        if config.enable_h5:
            self.add_h5_thread_shared()
        for heuristic in config.custom:
            self.add_custom(heuristic)

    def add_custom(self, heuristic):
        """Emit a user-defined heuristic over the nodes it selects."""
        for node in self.pfg.nodes:
            if not heuristic.selector(self.pfg, node):
                continue
            self.graph.add_factor(
                predicate_factor(
                    "%s/%d" % (heuristic.name, node.node_id),
                    [self.vars.kind(node)],
                    heuristic.kind_predicate,
                    heuristic.strength,
                )
            )
            self._count(heuristic.name)

    def add_h1_constructors(self):
        """H1: permission created by a constructor is likely unique."""
        for node in self.pfg.nodes:
            if node.kind == PFGNodeKind.NEW:
                self.graph.add_factor(
                    predicate_factor(
                        "H1/%d" % node.node_id,
                        [self.vars.kind(node)],
                        unique_kind,
                        self.config.h_constructor_unique,
                    )
                )
                self._count("H1")

    def add_h2_pre_post(self):
        """H2: a parameter's pre and post kinds likely agree."""
        for name, pre in self.pfg.param_pre.items():
            post = self.pfg.param_post.get(name)
            if post is None:
                continue
            self.graph.add_factor(
                soft_equality(
                    "H2/%s" % name,
                    self.vars.kind(pre),
                    self.vars.kind(post),
                    self.config.h_pre_post_same,
                )
            )
            self._count("H2")

    def add_h3_factories(self):
        """H3: ``create*`` methods likely return unique permission."""
        method_name = self.pfg.method_ref.method_decl.name
        if not self.config.matches_create(method_name):
            return
        if self.pfg.result_node is None:
            return
        self.graph.add_factor(
            predicate_factor(
                "H3/result",
                [self.vars.kind(self.pfg.result_node)],
                unique_kind,
                self.config.h_create_unique,
            )
        )
        self._count("H3")

    def add_h4_setters(self):
        """H4: ``set*`` methods likely need a writing receiver."""
        method_name = self.pfg.method_ref.method_decl.name
        if not self.config.matches_setter(method_name):
            return
        for node in (
            self.pfg.param_pre.get("this"),
            self.pfg.param_post.get("this"),
        ):
            if node is None:
                continue
            self.graph.add_factor(
                predicate_factor(
                    "H4/%d" % node.node_id,
                    [self.vars.kind(node)],
                    not_read_only_kind,
                    self.config.h_setter_writes,
                )
            )
            self._count("H4")

    def add_h5_thread_shared(self):
        """H5: synchronized-block targets are full/share/pure."""
        for node in self.pfg.nodes:
            if "sync-target" in node.hints:
                self.graph.add_factor(
                    predicate_factor(
                        "H5/%d" % node.node_id,
                        [self.vars.kind(node)],
                        thread_shared_kind,
                        self.config.h_sync_shared,
                    )
                )
                self._count("H5")
