"""Finite-domain random variables.

The paper models each PFG node with five Bernoulli permission variables
and one Bernoulli per abstract state.  We use the equivalent categorical
encoding — one variable per node whose domain is the permission kinds
(plus ``none``), and one whose domain is the abstract states — which keeps
factor tables small while exposing the same per-value marginals
(``P(X_kind = k)`` equals the Bernoulli mean of the paper's ``X^n_k``).
"""

import numpy as np


class Variable:
    """A random variable over a finite, ordered domain."""

    __slots__ = ("name", "domain", "_index", "prior")

    def __init__(self, name, domain, prior=None):
        if len(domain) < 2:
            raise ValueError("variable %r needs a domain of size >= 2" % name)
        self.name = name
        self.domain = tuple(domain)
        self._index = {value: position for position, value in enumerate(self.domain)}
        if prior is None:
            prior = np.full(len(self.domain), 1.0 / len(self.domain))
        else:
            prior = np.asarray(prior, dtype=float)
            if prior.shape != (len(self.domain),):
                raise ValueError(
                    "prior for %r has wrong shape %s" % (name, prior.shape)
                )
            total = prior.sum()
            if total <= 0:
                raise ValueError("prior for %r must have positive mass" % name)
            prior = prior / total
        self.prior = prior

    def index_of(self, value):
        return self._index[value]

    @property
    def cardinality(self):
        return len(self.domain)

    def uniform(self):
        return np.full(self.cardinality, 1.0 / self.cardinality)

    def __repr__(self):
        return "Variable(%s, |domain|=%d)" % (self.name, len(self.domain))


def make_prior(domain, weights):
    """Build a normalized prior vector from a value->weight mapping.

    Unmentioned values get weight 0; useful for "B(0.9) on full and 0.1 on
    the rest"-style priors from the paper §3.2.
    """
    vector = np.zeros(len(domain))
    index = {value: position for position, value in enumerate(domain)}
    for value, weight in weights.items():
        vector[index[value]] = weight
    total = vector.sum()
    if total <= 0:
        raise ValueError("prior weights must have positive mass")
    return vector / total
