"""Compiled flat-array belief propagation.

``CompiledGraph`` lowers a :class:`repro.factorgraph.graph.FactorGraph`
once into contiguous numpy storage and then runs whole BP sweeps as a
handful of vectorized array operations, replacing the per-message Python
loop of :mod:`repro.factorgraph.sumproduct` on the hot path:

* **variables** — one row per variable in a padded ``(V, D)`` prior
  matrix, where ``D`` is the largest domain cardinality; columns past a
  variable's cardinality hold zeros so row reductions ignore them;
* **edges** — every (factor, variable) incidence becomes one padded
  message row.  The factor→variable rows are interleaved with prior rows
  in one flat ``(V_active + E, D)`` belief buffer laid out in CSR
  segments ``[prior, msg, msg, …]`` per variable, so a single
  ``np.multiply.reduceat`` reproduces the reference engine's
  ``((prior · m₁) · m₂) · …`` product **in the exact same association
  order** — compiled marginals match the loopy engine bit-for-bit, not
  just within tolerance;
* **factor tables** — stacked into one dense block per *shape group*
  (factors sharing the same tuple of axis cardinalities), so a group's
  raw factor→variable messages toward one axis are a single broadcasted
  multiply-and-reduce over a ``(G, d0, …, dk−1)`` block.

A sweep is two Jacobi phases (writes never feed back within a phase),
which is what makes the vectorization exact.  The variable phase is one
pass over all edges.  The factor phase writes each (group, target
axis)'s raw messages into one edge-ordered ``(E, D)`` buffer; message
normalization, the damping blend and its renormalization, the
convergence delta and the write-back then run once over all edges.
Unary factors (the reserved evidence slots among them) send their table
unchanged, so their raw rows are written once per ``run()``.  Every
element sees the reference engine's operations in its association
order.  Row totals are exact-cardinality sums: numpy adds fewer than 8
elements sequentially, so when ``D < 8`` a zero-padded row sums exactly
like its cardinality slice; at ``D ≥ 8`` pairwise summation would let
the pads re-associate the real entries, so each row is summed over its
own slice (DESIGN §16).

Compile time precomputes every index a sweep needs: the segment starts,
the edge→variable gather, each axis's broadcast gather of incoming
messages, each target's reduce axes and the flat cells every write
lands in.  For incremental reuse the kernel exposes ``set_prior`` and
``set_table``: a cached method model rewrites just the prior rows and
evidence-table slots that changed since the last worklist visit and
re-sweeps, with no Python-side graph reconstruction.  Between runs the
kernel holds only its priors, tables, uniform fallback rows and integer
plans (every message buffer is allocated by ``run()``), all plain numpy
arrays and builtin containers, so a compiled kernel pickles cleanly
across process-pool boundaries.
"""

import numpy as np

from repro.factorgraph.factors import table_signature
from repro.factorgraph.sumproduct import SumProductResult

#: numpy's float sum is sequential below this many elements and pairwise
#: from it on (DESIGN §16).
_PAIRWISE_MIN = 8


def _card_groups(cards, width):
    """Row indices grouped by cardinality, ``[(card, indices), …]``, for
    exact-cardinality row totals; ``None`` when ``width`` is below
    :data:`_PAIRWISE_MIN`, where a padded row total is already exact."""
    if width < _PAIRWISE_MIN:
        return None
    cards = np.asarray(cards, dtype=np.intp)
    return [
        (int(card), np.flatnonzero(cards == card))
        for card in np.unique(cards)
    ]


def _exact_row_totals(rows, card_groups):
    """``(n, 1)`` row sums, each bitwise equal to the reference engine's
    1-D ``vector.sum()`` over the row's true cardinality slice.

    With ``card_groups`` None (every row narrower than 8) the padded rows
    sum sequentially and ``+ 0.0`` is exact; otherwise each row is
    reduced over its own slice, with the same pairwise schedule as the
    reference engine's sum of the same length.
    """
    if card_groups is None:
        return np.add.reduce(rows, axis=1, keepdims=True)
    totals = np.zeros((rows.shape[0], 1))
    for card, indices in card_groups:
        totals[indices, 0] = rows[indices, :card].sum(axis=1)
    return totals


def _normalize_rows(rows, uniform, totals):
    """Row-normalize with the reference engine's degenerate fallback: a
    row whose total is non-positive or non-finite becomes uniform.  The
    quotients of such rows are discarded, so their divide and invalid
    warnings are silenced by :meth:`CompiledGraph.run`'s errstate."""
    healthy = (totals > 0) & (totals < np.inf)
    return np.where(healthy, rows / totals, uniform)


class CompiledGraph:
    """One factor graph, lowered to flat arrays ready for BP sweeps."""

    def __init__(self, graph):
        names = list(graph.variables)
        self.names = names
        self.index_of = {name: position for position, name in enumerate(names)}
        cards = np.array(
            [graph.variables[name].cardinality for name in names], dtype=np.intp
        )
        self.cards = cards
        count = len(names)
        width = int(cards.max()) if count else 1
        self.width = width

        # Priors: padded (V, D); pad columns stay 0 so row sums are exact
        # (x + 0.0 == x bitwise, so padding never perturbs a reduction).
        self.priors = np.zeros((count, width))
        for position, name in enumerate(names):
            self.priors[position, : cards[position]] = graph.variables[name].prior

        # Edges: one per (factor, axis), sorted by (variable, factor) so a
        # variable's incident edges mirror the reference engine's
        # adjacency order (factors in insertion order).
        incidences = []  # (var index, factor index, axis)
        for factor_index, factor in enumerate(graph.factors):
            seen = set()
            for axis, variable in enumerate(factor.variables):
                if variable.name in seen:
                    raise ValueError(
                        "factor %r repeats variable %r; compiled BP requires "
                        "distinct variables per factor"
                        % (factor.name, variable.name)
                    )
                seen.add(variable.name)
                incidences.append(
                    (self.index_of[variable.name], factor_index, axis)
                )
        incidences.sort(key=lambda item: (item[0], item[1]))
        edge_count = len(incidences)
        self.edge_count = edge_count
        self.edge_var = np.array(
            [item[0] for item in incidences], dtype=np.intp
        )
        edge_of = {
            (factor_index, axis): position
            for position, (_, factor_index, axis) in enumerate(incidences)
        }

        degrees = np.zeros(count, dtype=np.intp)
        for var_index, _, _ in incidences:
            degrees[var_index] += 1
        self.degrees = degrees
        #: Variables that touch at least one factor (the rest keep their
        #: prior as marginal, exactly like the reference engine).
        self._active = np.flatnonzero(degrees > 0)
        active_degrees = degrees[self._active]
        #: Edge -> rank of its variable in ``_active`` (edges are sorted
        #: by variable), gathering each edge's belief product.
        self._edge_rank = np.repeat(
            np.arange(len(self._active), dtype=np.intp), active_degrees
        )

        # The flat belief buffer: per active variable one prior row
        # followed by its factor→variable message rows, so reduceat over
        # segment starts reproduces ((prior·m1)·m2)… left-to-right.
        self._flat_starts = np.zeros(len(self._active), dtype=np.intp)
        np.cumsum(active_degrees[:-1] + 1, out=self._flat_starts[1:])
        msg_rows = np.delete(
            np.arange(len(self._active) + edge_count, dtype=np.intp),
            self._flat_starts,
        )
        #: Flat-buffer cells of every message row, in edge order.
        self._msg_cells = _cells(msg_rows, width, width)

        # Per-row uniform fallbacks (pad columns 0) and row-total plans.
        edge_cards = cards[self.edge_var]
        self._edge_card_groups = _card_groups(edge_cards, width)
        self._var_card_groups = _card_groups(cards, width)
        columns = np.arange(width)
        with np.errstate(divide="ignore"):
            self._edge_uniform = np.where(
                columns[np.newaxis, :] >= edge_cards[:, np.newaxis],
                0.0,
                1.0 / edge_cards[:, np.newaxis],
            ) if edge_count else np.zeros((0, width))
            self._var_uniform = np.where(
                columns[np.newaxis, :] >= cards[:, np.newaxis],
                0.0,
                1.0 / cards[:, np.newaxis],
            ) if count else np.zeros((0, width))

        # Factor groups: stack same-shape tables into one dense block.
        grouped = {}
        self._slot_of = {}  # factor index -> (shape, position in group)
        for factor_index, factor in enumerate(graph.factors):
            shape = table_signature(factor)
            group = grouped.setdefault(
                shape, {"factors": [], "edges": [[] for _ in shape]}
            )
            self._slot_of[factor_index] = (shape, len(group["factors"]))
            group["factors"].append(factor_index)
            for axis in range(len(shape)):
                group["edges"][axis].append(edge_of[(factor_index, axis)])
        self.groups = []
        for shape, group in grouped.items():
            edge_ids = [np.array(ids, dtype=np.intp) for ids in group["edges"]]
            self.groups.append(
                {
                    "shape": shape,
                    "tables": np.stack(
                        [graph.factors[index].table for index in group["factors"]]
                    ),
                    "incoming": _incoming_plan(shape, edge_ids, width),
                    "targets": _target_plan(shape, edge_ids, width),
                }
            )
        #: Groups of two or more axes, the ones a sweep recomputes.
        self._swept = [
            group for group in self.groups if len(group["shape"]) > 1
        ]
        self._group_index = {
            group["shape"]: position for position, group in enumerate(self.groups)
        }

    # -- incremental slot updates -------------------------------------------------

    def set_prior(self, name, vector):
        """Rewrite one variable's prior row (incremental model reuse)."""
        position = self.index_of[name]
        card = self.cards[position]
        self.priors[position, :card] = vector
        self.priors[position, card:] = 0.0

    def set_table(self, factor_index, table):
        """Rewrite one factor's table slot (evidence updates)."""
        shape, position = self._slot_of[factor_index]
        self.groups[self._group_index[shape]]["tables"][position] = table

    # -- queries ------------------------------------------------------------------

    @property
    def variable_count(self):
        return len(self.names)

    def describe(self):
        return "CompiledGraph(%d vars, %d edges, %d shape groups)" % (
            len(self.names),
            self.edge_count,
            len(self.groups),
        )

    # -- the sweeps ---------------------------------------------------------------

    def _segment_products(self, flat):
        """Per-active-variable belief products prior·m1·m2·… — bitwise
        identical to the reference engine's sequential accumulation."""
        return np.multiply.reduceat(flat, self._flat_starts, axis=0)

    def _variable_sweep(self, flat, messages):
        """All variable→factor messages in one pass, as an ``(E, D)``
        array; ``messages`` are the factor→variable rows of ``flat``."""
        per_edge = self._segment_products(flat).take(self._edge_rank, axis=0)
        outgoing = np.where(messages > 0, per_edge / messages, 0.0)
        return _normalize_rows(
            outgoing,
            self._edge_uniform,
            _exact_row_totals(outgoing, self._edge_card_groups),
        )

    def _factor_sweep(self, flat, raw, messages, to_factor, damping, reduce):
        """All factor→variable messages; returns them with the largest
        message delta (the convergence signal).

        Each multi-axis (group, target) writes its raw messages into
        ``raw``; unary rows there were written once by :meth:`run`.
        Normalization, damping, the delta and the write-back into
        ``flat`` then run over all edges at once, elementwise as the
        reference engine does per message.
        """
        for group in self._swept:
            tables = group["tables"]
            incoming = [to_factor.take(cells) for cells in group["incoming"]]
            for cells, others, reduce_axes in group["targets"]:
                weighted = tables
                for axis in others:
                    weighted = weighted * incoming[axis]
                raw.put(cells, reduce(weighted, axis=reduce_axes))
        updated = _normalize_rows(
            raw,
            self._edge_uniform,
            _exact_row_totals(raw, self._edge_card_groups),
        )
        if damping > 0.0:
            blended = damping * messages + (1.0 - damping) * updated
            updated = _normalize_rows(
                blended,
                self._edge_uniform,
                _exact_row_totals(blended, self._edge_card_groups),
            )
        flat.put(self._msg_cells, updated)
        return updated, float(np.abs(updated - messages).max())

    def _marginals(self, flat):
        """(marginals dict, finite flag) — finiteness is checked before
        normalization, which would mask NaN/inf rows as uniform."""
        beliefs = self.priors.copy()
        if len(self._active):
            beliefs[self._active] = self._segment_products(flat)
        finite = bool(np.isfinite(beliefs).all())
        beliefs = _normalize_rows(
            beliefs,
            self._var_uniform,
            _exact_row_totals(beliefs, self._var_card_groups),
        )
        return {
            name: beliefs[position, : self.cards[position]].copy()
            for position, name in enumerate(self.names)
        }, finite

    def _initial_buffers(self):
        """(flat, raw) for a fresh run: prior rows from the (possibly
        updated) prior matrix, message rows uniform, and the raw
        factor→variable buffer holding every unary factor's table."""
        flat = np.empty((len(self._flat_starts) + self.edge_count, self.width))
        flat[self._flat_starts] = self.priors[self._active]
        flat.put(self._msg_cells, self._edge_uniform)
        raw = np.zeros((self.edge_count, self.width))
        for group in self.groups:
            if len(group["shape"]) == 1:
                (cells, _, _), = group["targets"]
                raw.put(cells, group["tables"])
        return flat, raw

    def run(self, max_iters=50, tolerance=1e-6, damping=0.0, semiring="sum"):
        """Run BP sweeps; returns a :class:`SumProductResult`."""
        flat, raw = self._initial_buffers()
        messages = self._edge_uniform
        reduce = np.maximum.reduce if semiring == "max" else np.add.reduce
        iterations = 0
        max_delta = np.inf
        converged = False
        with np.errstate(divide="ignore", invalid="ignore"):
            for iterations in range(1, max_iters + 1):
                max_delta = 0.0
                if self.edge_count:
                    to_factor = self._variable_sweep(flat, messages)
                    messages, max_delta = self._factor_sweep(
                        flat, raw, messages, to_factor, damping, reduce
                    )
                if max_delta < tolerance:
                    converged = True
                    break
            marginals, finite = self._marginals(flat)
        diverged = not finite or not np.isfinite(max_delta)
        return SumProductResult(
            marginals, iterations, converged, max_delta, diverged=diverged
        )


def _cells(rows, card, width):
    """Flat cell indices ``(len(rows), card)`` of the first ``card``
    columns of ``rows`` in a width-``width`` C-ordered matrix."""
    return rows[:, np.newaxis] * width + np.arange(card, dtype=np.intp)


def _incoming_plan(shape, edge_ids, width):
    """Per axis, the cells whose ``take`` gathers the group's incoming
    variable→factor messages straight into that axis's broadcast view
    ``(G, 1, …, d_axis, …, 1)``; empty for a unary group, whose message
    reads no incoming message."""
    arity = len(shape)
    if arity < 2:
        return ()
    return tuple(
        _cells(edge_ids[axis], card, width).reshape(
            (-1,)
            + tuple(card if other == axis else 1 for other in range(arity))
        )
        for axis, card in enumerate(shape)
    )


def _target_plan(shape, edge_ids, width):
    """Per target axis: the raw-buffer cells its ``(G, d_target)``
    messages fill, the other axes multiplied in (in the reference
    engine's order) and the block axes reduced."""
    plan = []
    for target, card in enumerate(shape):
        others = tuple(axis for axis in range(len(shape)) if axis != target)
        plan.append(
            (
                _cells(edge_ids[target], card, width),
                others,
                tuple(1 + axis for axis in others),
            )
        )
    return tuple(plan)


def compile_graph(graph):
    """Lower ``graph`` into a :class:`CompiledGraph` (one-time cost)."""
    return CompiledGraph(graph)


def run_compiled(graph, max_iters=50, tolerance=1e-6, damping=0.0,
                 semiring="sum"):
    """One-shot convenience: compile then run (matches ``run_sum_product``)."""
    return compile_graph(graph).run(
        max_iters=max_iters,
        tolerance=tolerance,
        damping=damping,
        semiring=semiring,
    )
