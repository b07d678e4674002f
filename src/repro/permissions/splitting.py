"""Sound permission splitting (paper constraint L1, Eq. 2).

This module centralizes the *legality* relation used by both the PLURAL
checker (when it actually performs splits) and ANEK's constraint
generator (when it asserts that a split node's outgoing edges carry a
sound division of the incoming permission).

``legal_edge_pair(held, given, retained)`` answers: may a permission of
kind ``held`` be divided so that one reference gets ``given`` and the
original keeps ``retained``?
"""

from repro.permissions import kinds


def legal_edge_pair(held, given, retained):
    """Legality of a binary split of ``held`` into (given, retained).

    Encodes Equation 2 of the paper:

    * each piece must be a reachable split target of ``held``;
    * at most one piece may carry an exclusive claim (unique/full);
    * a unique piece asserts no other references, so its co-piece must
      also be... impossible — unique can only appear as a piece when the
      whole permission moves (we model that as ``retained is None``).
    """
    if retained is None:
        # Whole permission transferred; the piece may weaken arbitrarily.
        return kinds.satisfies(held, given)
    targets = kinds.split_targets(held)
    if given not in targets or retained not in targets:
        return False
    if given in kinds.EXCLUSIVE_KINDS and retained in kinds.EXCLUSIVE_KINDS:
        return False
    if given == kinds.UNIQUE or retained == kinds.UNIQUE:
        # unique pieces cannot coexist with any other piece.
        return False
    # A full piece asserts no *other* writers: the co-piece must be
    # read-only.
    if given == kinds.FULL and retained in kinds.WRITING_KINDS:
        return False
    if retained == kinds.FULL and given in kinds.WRITING_KINDS:
        return False
    # An immutable piece asserts no writers at all: co-piece read-only.
    if given == kinds.IMMUTABLE and retained in kinds.WRITING_KINDS:
        return False
    if retained == kinds.IMMUTABLE and given in kinds.WRITING_KINDS:
        return False
    return True


def best_retained(held, given):
    """Strongest kind the splitter can keep after giving ``given`` away.

    Returns ``None`` when nothing can be retained (e.g. giving unique).
    """
    candidates = [
        retained
        for retained in kinds.ALL_KINDS
        if legal_edge_pair(held, given, retained)
    ]
    if not candidates:
        return None
    return kinds.strongest(candidates)
