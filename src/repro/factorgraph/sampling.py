"""Gibbs sampling — an alternative marginal estimator.

The paper (§3.4): "the specifications for the program can be easily
derived from the marginal functions of Φ_P via *sampling*."  This module
provides that route: a Gibbs sampler over the factor graph whose sample
frequencies estimate the same marginals sum-product computes.  It is a
second, independent implementation of SOLVE that the test suite uses to
cross-validate BP; no inference path calls it (the solve guard's ladder
ends at prior-only marginals, DESIGN §10).

The chain resamples one variable at a time from its full conditional
(the product of its prior and the adjacent factors' rows), which is
cheap because every factor touches only a few variables.
"""

import numpy as np


class GibbsResult:
    """Estimated marginals plus sampling metadata."""

    def __init__(self, marginals, samples, burn_in):
        self.marginals = marginals
        self.samples = samples
        self.burn_in = burn_in

    def marginal(self, variable_name):
        return self.marginals[variable_name]

    def probability(self, variable, value):
        return float(self.marginals[variable.name][variable.index_of(value)])

    def most_likely(self, variable):
        vector = self.marginals[variable.name]
        position = int(np.argmax(vector))
        return variable.domain[position], float(vector[position])


def _conditional(graph, variable, assignment, factors_of):
    """Unnormalized full conditional of ``variable`` given the rest."""
    weights = variable.prior.copy()
    original = assignment[variable.name]
    for factor in factors_of:
        for position, value in enumerate(variable.domain):
            assignment[variable.name] = value
            weights[position] *= factor.value(assignment)
    assignment[variable.name] = original
    total = weights.sum()
    if total <= 0:
        return np.full(len(weights), 1.0 / len(weights))
    return weights / total


def run_gibbs(graph, samples=2000, burn_in=200, seed=0, initial=None):
    """Run Gibbs sampling; returns a :class:`GibbsResult`.

    ``seed`` makes runs reproducible.  ``initial`` optionally maps
    variable names to starting values (default: prior-weighted draw).
    """
    rng = np.random.default_rng(seed)
    variables = list(graph.variables.values())
    factors_of = {
        variable.name: graph.factors_of(variable.name)
        for variable in variables
    }
    assignment = {}
    for variable in variables:
        if initial is not None and variable.name in initial:
            assignment[variable.name] = initial[variable.name]
        else:
            position = rng.choice(variable.cardinality, p=variable.prior)
            assignment[variable.name] = variable.domain[position]
    counts = {
        variable.name: np.zeros(variable.cardinality)
        for variable in variables
    }
    for step in range(burn_in + samples):
        for variable in variables:
            conditional = _conditional(
                graph, variable, assignment, factors_of[variable.name]
            )
            position = rng.choice(variable.cardinality, p=conditional)
            assignment[variable.name] = variable.domain[position]
        if step >= burn_in:
            for variable in variables:
                counts[variable.name][
                    variable.index_of(assignment[variable.name])
                ] += 1
    marginals = {
        name: vector / vector.sum() for name, vector in counts.items()
    }
    return GibbsResult(marginals, samples, burn_in)
