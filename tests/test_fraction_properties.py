"""Property-based tests for permission splitting (paper L1, Eq. 2).

The checker and the constraint generator carry permission kinds only,
with no fraction, so the properties are those of the kind-level split
rules they use.  Uses ``hypothesis`` when available; otherwise a tiny
seeded-random fallback shim drives the same properties with 200
deterministic samples per test, so the suite runs (and stays
reproducible) in minimal environments.

Properties locked in: ``legal_edge_pair`` is symmetric in its pieces,
never admits two exclusive pieces or a unique piece beside another, and
``best_retained`` returns the strongest legal retained kind.
"""

import random

from repro.permissions import kinds
from repro.permissions.splitting import best_retained, legal_edge_pair

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - exercised only without hypothesis

    class _Strategy:
        def __init__(self, draw):
            self.draw = draw

    class st:  # noqa: N801 - mimics the hypothesis module surface
        @staticmethod
        def sampled_from(values):
            values = list(values)
            return _Strategy(lambda rng: values[rng.randrange(len(values))])

    def given(*strategies):
        def decorate(test):
            def runner(self, *args, **kwargs):
                rng = random.Random(0x5EED)
                for _ in range(200):
                    drawn = tuple(s.draw(rng) for s in strategies)
                    test(self, *(args + drawn), **kwargs)

            runner.__name__ = test.__name__
            runner.__doc__ = test.__doc__
            return runner

        return decorate

    def settings(**_kwargs):
        return lambda test: test


kind_strategy = st.sampled_from(kinds.ALL_KINDS)


class TestSplittingLegality:
    @given(kind_strategy, kind_strategy, kind_strategy)
    @settings(max_examples=200)
    def test_legal_edge_pair_is_symmetric(self, held, given_k, retained_k):
        assert legal_edge_pair(held, given_k, retained_k) == legal_edge_pair(
            held, retained_k, given_k
        )

    @given(kind_strategy, kind_strategy, kind_strategy)
    @settings(max_examples=200)
    def test_no_two_exclusive_pieces(self, held, given_k, retained_k):
        if (
            given_k in kinds.EXCLUSIVE_KINDS
            and retained_k in kinds.EXCLUSIVE_KINDS
        ):
            assert not legal_edge_pair(held, given_k, retained_k)

    @given(kind_strategy, kind_strategy)
    @settings(max_examples=200)
    def test_unique_piece_never_coexists(self, held, other):
        assert not legal_edge_pair(held, kinds.UNIQUE, other)
        assert not legal_edge_pair(held, other, kinds.UNIQUE)

    @given(kind_strategy, kind_strategy)
    @settings(max_examples=200)
    def test_best_retained_is_legal_and_strongest(self, held, given_k):
        retained = best_retained(held, given_k)
        legal = [
            candidate
            for candidate in kinds.ALL_KINDS
            if legal_edge_pair(held, given_k, candidate)
        ]
        if retained is None:
            assert not legal
        else:
            assert retained in legal
            assert retained == kinds.strongest(legal)
