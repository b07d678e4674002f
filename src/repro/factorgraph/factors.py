"""Factors: non-negative functions over small sets of variables.

A probabilistic constraint ``φ |h`` from the paper becomes a table factor
whose value is ``h`` on assignments satisfying ``φ`` and ``1 − h``
otherwise (Equation 6).  Tables are dense numpy arrays with one axis per
variable, which lets sum-product messages be computed by tensor
contraction.
"""

import itertools

import numpy as np


class Factor:
    """A dense table factor over an ordered list of variables."""

    __slots__ = ("name", "variables", "table")

    def __init__(self, name, variables, table):
        self.name = name
        self.variables = list(variables)
        table = np.asarray(table, dtype=float)
        expected = tuple(var.cardinality for var in self.variables)
        if table.shape != expected:
            raise ValueError(
                "factor %r table shape %s does not match domains %s"
                % (name, table.shape, expected)
            )
        if (table < 0).any():
            raise ValueError("factor %r has negative entries" % name)
        self.table = table

    @property
    def arity(self):
        return len(self.variables)

    def value(self, assignment):
        """Evaluate on a mapping var-name -> value."""
        indices = tuple(
            var.index_of(assignment[var.name]) for var in self.variables
        )
        return self.table[indices]

    def message_to(self, target, incoming, reduce="sum"):
        """Sum-product (or max-product) message to ``target``.

        ``incoming`` maps each *other* variable's name to its message (a
        numpy vector over that variable's domain).  Computes
        ``reduce_{others} table * prod(incoming)`` marginalized onto the
        target's axis; ``reduce`` is ``"sum"`` or ``"max"``.
        """
        result = self.table
        target_axis = None
        # Multiply incoming messages onto their axes, then sum them out.
        for axis, var in enumerate(self.variables):
            if var is target or var.name == target.name:
                target_axis = axis
        if target_axis is None:
            raise ValueError(
                "variable %r not in factor %r" % (target.name, self.name)
            )
        # Build the weighted table lazily: use einsum-style broadcasting.
        weighted = self.table
        for axis, var in enumerate(self.variables):
            if axis == target_axis:
                continue
            message = incoming[var.name]
            shape = [1] * weighted.ndim
            shape[axis] = var.cardinality
            weighted = weighted * message.reshape(shape)
        axes = tuple(
            axis for axis in range(weighted.ndim) if axis != target_axis
        )
        if axes:
            if reduce == "max":
                return weighted.max(axis=axes)
            return weighted.sum(axis=axes)
        return weighted.copy()

    def __repr__(self):
        return "Factor(%s, vars=[%s])" % (
            self.name,
            ", ".join(var.name for var in self.variables),
        )


def table_signature(factor):
    """The factor's domain shape — the grouping key of the compiled
    engine, which stacks all same-shape tables into one dense block so a
    whole group's messages are computed by a single tensor contraction."""
    return tuple(var.cardinality for var in factor.variables)


#: Cache of predicate tables keyed by (predicate id, domains, h, axes).
#: The same constraint shape recurs at every PFG edge of every method, so
#: memoizing the table build is a large constant-factor win.
_TABLE_CACHE = {}


def _build_table(domains, predicate, high_probability):
    low = 1.0 - high_probability
    if low == 0.0:
        low = 1e-9  # keep the table strictly positive for BP stability
    shape = tuple(len(domain) for domain in domains)
    table = np.empty(shape)
    for combo in itertools.product(*(range(card) for card in shape)):
        values = tuple(
            domains[axis][position] for axis, position in enumerate(combo)
        )
        table[combo] = high_probability if predicate(*values) else low
    return table


def _cached_table(variables, predicate, high_probability, condition_axes=None):
    domains = tuple(var.domain for var in variables)
    key = (id(predicate), domains, high_probability, condition_axes)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = _build_table(domains, predicate, high_probability)
        if condition_axes is not None:
            axes = tuple(
                axis for axis in range(table.ndim) if axis not in condition_axes
            )
            totals = table.sum(axis=axes, keepdims=True)
            totals[totals == 0] = 1.0
            table = table / totals
        _TABLE_CACHE[key] = table
    return table


def predicate_factor(name, variables, predicate, high_probability):
    """Compile a soft constraint ``φ |h`` into a table factor (Eq. 6).

    ``predicate`` receives one value per variable (in order) and returns
    truthiness; satisfied assignments score ``h`` and violations ``1−h``.
    Tables are cached by (predicate, domains, h): pass a *named function*
    rather than a fresh lambda wherever the constraint recurs, so the
    cache can hit.
    """
    if not 0.0 < high_probability <= 1.0:
        raise ValueError("high probability must be in (0, 1]")
    table = _cached_table(variables, predicate, high_probability)
    return Factor(name, variables, table)


def conditional_predicate_factor(name, variables, predicate, high_probability,
                                 condition_axes=(0,)):
    """A predicate factor normalized per joint value of the condition axes.

    Each slice over the *non*-condition axes is scaled to sum to 1,
    making the factor a conditional distribution p(rest | conditions).
    This keeps the constraint's compatibility content while removing the
    counting bias a raw table would exert on the condition variables
    (values with more satisfying completions would otherwise be favored),
    and sends unbiased (unit) messages toward the condition variables
    when the dependent side is uninformative.
    """
    if isinstance(condition_axes, int):
        condition_axes = (condition_axes,)
    if not 0.0 < high_probability <= 1.0:
        raise ValueError("high probability must be in (0, 1]")
    table = _cached_table(
        variables, predicate, high_probability, tuple(condition_axes)
    )
    return Factor(name, variables, table)


def _equal_values(a, b):
    return a == b


def soft_equality(name, var_a, var_b, high_probability):
    """Soft constraint that two same-domain variables are equal (L1/L2)."""
    if var_a.domain != var_b.domain:
        raise ValueError(
            "soft_equality requires matching domains (%s vs %s)"
            % (var_a.domain, var_b.domain)
        )
    return predicate_factor(
        name, [var_a, var_b], _equal_values, high_probability
    )


def evidence_factor(name, variable, value, confidence):
    """A unary factor concentrating mass on one value with ``confidence``."""
    remaining = (1.0 - confidence) / (variable.cardinality - 1)
    table = np.full(variable.cardinality, remaining)
    table[variable.index_of(value)] = confidence
    return Factor(name, [variable], table)
