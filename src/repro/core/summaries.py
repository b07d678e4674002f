"""Probabilistic method summaries (paper §3.4).

A summary holds, for each boundary target of a method (``this`` and each
parameter, pre and post, plus ``result``), the current marginal
distribution of its kind and state variables.  Summaries are the *only*
channel of information between per-method models, which is what makes
ANEK-INFER modular:

* ``APPLYSUMMARY`` — a callee's summary becomes priors on the call-site
  boundary nodes inside the caller's model;
* callers in turn deposit *evidence* (their marginals for those call-site
  nodes) into the callee's summary store, so demand flows back — this is
  how the paper's createColIter example aggregates the 167 ALIVE votes
  against the 3 HASNEXT votes.
"""

import numpy as np


def _as_dict(domain, vector):
    return {value: float(p) for value, p in zip(domain, vector)}


def _max_delta(old, new):
    if old is None:
        return 1.0
    keys = set(old) | set(new)
    return max(abs(old.get(key, 0.0) - new.get(key, 0.0)) for key in keys)


class TargetMarginal:
    """Marginals for one boundary node: kind and (optional) state."""

    __slots__ = ("kind", "state")

    def __init__(self, kind=None, state=None):
        self.kind = kind  # dict value -> prob, or None
        self.state = state  # dict value -> prob, or None

    def to_payload(self):
        """A plain, picklable ``(kind, state)`` pair of dicts."""
        kind = dict(self.kind) if self.kind is not None else None
        state = dict(self.state) if self.state is not None else None
        return (kind, state)

    @classmethod
    def from_payload(cls, payload):
        kind, state = payload
        return cls(kind=kind, state=state)

    def delta(self, other):
        if other is None:
            return 1.0
        deltas = []
        if self.kind is not None or other.kind is not None:
            deltas.append(_max_delta(other.kind, self.kind or {}))
        if self.state is not None or other.state is not None:
            deltas.append(_max_delta(other.state, self.state or {}))
        return max(deltas) if deltas else 0.0


class MethodSummary:
    """The probabilistic summary of one method."""

    def __init__(self, method_ref):
        self.method_ref = method_ref
        self.pre = {}  # target -> TargetMarginal
        self.post = {}  # target -> TargetMarginal
        self.result = None  # TargetMarginal or None

    def get(self, slot, target):
        if slot == "pre":
            return self.pre.get(target)
        if slot == "post":
            return self.post.get(target)
        if slot == "result":
            return self.result
        raise ValueError("unknown summary slot %r" % slot)

    def set(self, slot, target, marginal):
        """Store a marginal; returns the change magnitude."""
        old = self.get(slot, target)
        delta = marginal.delta(old)
        if slot == "pre":
            self.pre[target] = marginal
        elif slot == "post":
            self.post[target] = marginal
        else:
            self.result = marginal
        return delta


class SummaryStore:
    """All summaries plus cross-method caller evidence.

    Each summary's token and each evidence bucket's token is kept until
    the bits under it change, so an unchanged input hands every visit
    the same token object (a persistent cache digests each once)."""

    def __init__(self, change_threshold=1e-3):
        self.change_threshold = change_threshold
        self._summaries = {}
        # (callee, slot, target) -> {site_key: TargetMarginal}
        self._evidence = {}
        self._summary_tokens = {}
        self._evidence_tokens = {}

    def summary_of(self, method_ref):
        if method_ref not in self._summaries:
            self._summaries[method_ref] = MethodSummary(method_ref)
        return self._summaries[method_ref]

    def update(self, method_ref, slot, target, marginal):
        """UPDATESUMMARY: store and report whether it changed materially."""
        summary = self.summary_of(method_ref)
        if not _same_bits(summary.get(slot, target), marginal):
            self._summary_tokens.pop(method_ref, None)
        delta = summary.set(slot, target, marginal)
        return delta > self.change_threshold

    def deposit_evidence(self, callee, slot, target, site_key, marginal):
        """Record a caller's marginal for one of the callee's boundary
        nodes; returns True when it changed materially."""
        bucket_key = (callee, slot, target)
        bucket = self._evidence.setdefault(bucket_key, {})
        old = bucket.get(site_key)
        if not _same_bits(old, marginal):
            self._evidence_tokens.pop(bucket_key, None)
        delta = marginal.delta(old)
        bucket[site_key] = marginal
        return delta > self.change_threshold

    def evidence_for(self, callee, slot, target):
        """All deposited caller marginals for one boundary node."""
        return list(self._evidence.get((callee, slot, target), {}).values())

    # -- fingerprint tokens (incremental model reuse) --------------------------

    def summary_token(self, method_ref):
        """An equality token of one method's current summary content.

        Exact floats, emitted in the store's deterministic insertion
        order; an empty or missing summary tokenizes to ``()`` (creating
        an empty summary must not look like a change).
        """
        token = self._summary_tokens.get(method_ref)
        if token is not None:
            return token
        summary = self._summaries.get(method_ref)
        if summary is None:
            return ()
        parts = []
        for target, marginal in summary.pre.items():
            parts.append(("pre", target, _marginal_token(marginal)))
        for target, marginal in summary.post.items():
            parts.append(("post", target, _marginal_token(marginal)))
        if summary.result is not None:
            parts.append(("result", "result", _marginal_token(summary.result)))
        token = self._summary_tokens[method_ref] = tuple(parts)
        return token

    def evidence_token(self, callee, slot, target):
        """An equality token of one boundary node's evidence bucket,
        including the per-site breakdown (vote order matters to the
        geometric-mean aggregation)."""
        bucket_key = (callee, slot, target)
        token = self._evidence_tokens.get(bucket_key)
        if token is not None:
            return token
        bucket = self._evidence.get(bucket_key)
        if not bucket:
            return ()
        token = self._evidence_tokens[bucket_key] = tuple(
            (site_key, _marginal_token(marginal))
            for site_key, marginal in bucket.items()
        )
        return token

    def evidence_count(self):
        return sum(len(bucket) for bucket in self._evidence.values())


def _dist_token(dist):
    if dist is None:
        return None
    return tuple(dist.items())


def _marginal_token(marginal):
    if marginal is None:
        return None
    return (_dist_token(marginal.kind), _dist_token(marginal.state))


def _same_bits(old, new):
    """Whether ``new`` holds exactly ``old``'s floats in ``old``'s order.
    ``==`` cannot tell 0.0 from -0.0, so a zero counts as a change."""
    if old is None:
        return False
    for before, after in ((old.kind, new.kind), (old.state, new.state)):
        if before is None or after is None:
            if before is not after:
                return False
        elif tuple(before.items()) != tuple(after.items()) or (
            0.0 in after.values()
        ):
            return False
    return True


def method_input_fingerprint(store, spec_env, pfg):
    """Token of everything the store feeds into one method's model.

    Covers the two mutable inputs of a built model — the summaries of
    *unannotated* callees at each call site (APPLYSUMMARY priors) and
    the evidence buckets on the method's own boundary nodes.  Annotated
    callees and the method's own spec contribute static priors and are
    deliberately excluded.  Equal fingerprints ⇒ a refresh would rewrite
    nothing ⇒ the previous solve result is still exact, so the worklist
    visit can skip the solve entirely.  ``pfg`` is a PFG or its
    :class:`repro.core.pfg.PFGInterface`: only the call-site callees and
    the boundary slots are read.
    """
    sites = tuple(
        None
        if callee is None or spec_env.is_annotated(callee)
        else store.summary_token(callee)
        for callee in pfg.site_callees
    )
    method_ref = pfg.method_ref
    evidence = tuple(
        (slot, target, store.evidence_token(method_ref, slot, target))
        for slot, target in pfg.boundary_slots
    )
    return (sites, evidence)


def marginal_from_result(result, kind_var, state_var):
    """Build a TargetMarginal from a BP result's variable marginals."""
    kind = None
    state = None
    if kind_var is not None:
        kind = _as_dict(kind_var.domain, result.marginals[kind_var.name])
    if state_var is not None:
        state = _as_dict(state_var.domain, result.marginals[state_var.name])
    return TargetMarginal(kind=kind, state=state)


def satisfaction_evidence(marginal):
    """Transform a caller's supply marginal into precondition evidence.

    A caller holding kind ``s`` can discharge any required kind ``k``
    with ``s ⊒ k``, and has no objection at all to requiring nothing.
    The evidence for the callee's pre-node value ``k`` is therefore the
    probability that the caller's supply satisfies ``k``:

        f(k)    = Σ_{s satisfies k} m(s)        f(none) = 1

    This keeps demand inference driven by the callee's *body* (the paper's
    logical constraints) while callers only veto requirements they could
    not meet — and prevents the weak-kind echo that raw supply marginals
    would feed back.  State evidence stays raw: state votes are the
    ALIVE-vs-HASNEXT counting of the paper's introduction.
    """
    from repro.permissions import kinds as kind_rules

    if marginal.kind is None:
        return marginal
    supply = marginal.kind
    evidence = {}
    for required in kind_rules.ALL_KINDS:
        evidence[required] = sum(
            supply.get(held, 0.0)
            for held in kind_rules.ALL_KINDS
            if kind_rules.satisfies(held, required)
        )
    evidence["none"] = 1.0
    total = sum(evidence.values())
    evidence = {key: value / total for key, value in evidence.items()}
    return TargetMarginal(kind=evidence, state=marginal.state)


def clip_marginal(marginal, confidence):
    """Cap a marginal's certainty (paper-style B(0.9) discipline).

    Prevents runaway feedback when summaries echo between caller and
    callee models across worklist iterations.  The result is numpy's
    ``clip`` then divide-by-sum, bit for bit: below 8 entries numpy sums
    left to right from 0.0, as the loop here does (``sum`` may not:
    Python 3.12 compensates), and from 8 entries on it sums pairwise, so
    numpy does the work.
    """
    low = 1.0 - confidence

    def clip(dist):
        if dist is None:
            return None
        if len(dist) >= 8:
            values = np.array(list(dist.values()))
            values = np.clip(values, low, confidence)
            values = values / values.sum()
            return {key: float(v) for key, v in zip(dist.keys(), values)}
        clipped = []
        total = 0.0
        for value in dist.values():
            # np.clip's order: max with the floor, then min with the
            # ceiling; a tie takes the bound and a NaN stays.
            if not value > low and value == value:
                value = low
            if not value < confidence and value == value:
                value = confidence
            clipped.append(value)
            total += value
        return {key: value / total for key, value in zip(dist, clipped)}

    return TargetMarginal(kind=clip(marginal.kind), state=clip(marginal.state))
