"""Fractional permissions (Boyland 2003, used by PLURAL).

A :class:`FractionalPermission` is a permission kind plus a rational
fraction of the underlying object.  Fractions make splitting and merging
sound and reversible: a ``unique`` permission with fraction 1 can be split
into two ``share`` halves, and merging the halves restores ``unique``.

The tables here drive both the PLURAL checker's split/merge steps and its
local Gaussian-elimination inference (``repro.plural.local_inference``).
"""

from fractions import Fraction

from repro.permissions import kinds


class FractionalPermission:
    """An immutable (kind, fraction, state) triple."""

    __slots__ = ("kind", "fraction", "state")

    def __init__(self, kind, fraction=Fraction(1), state="ALIVE"):
        if kind not in kinds.ALL_KINDS:
            raise ValueError("unknown permission kind %r" % kind)
        fraction = Fraction(fraction)
        if fraction <= 0 or fraction > 1:
            raise ValueError("fraction must be in (0, 1], got %s" % fraction)
        self.kind = kind
        self.fraction = fraction
        self.state = state

    def __eq__(self, other):
        return (
            isinstance(other, FractionalPermission)
            and self.kind == other.kind
            and self.fraction == other.fraction
            and self.state == other.state
        )

    def __hash__(self):
        return hash((self.kind, self.fraction, self.state))

    def __repr__(self):
        return "%s(%s, %s)" % (self.kind, self.fraction, self.state)


def split_for_requirement(held, required_kind):
    """Split ``held`` so one piece satisfies ``required_kind``.

    Returns ``(given, retained)`` where ``given`` has the required kind, or
    ``None`` when the held permission cannot satisfy the requirement.
    ``retained`` may be ``None`` when the whole permission is consumed
    (e.g. unique required from unique held).

    The fraction bookkeeping follows PLURAL: an exclusive piece keeps the
    whole fraction (exclusivity is what matters), a shared piece takes
    half, leaving half behind.
    """
    if not kinds.satisfies(held.kind, required_kind):
        return None
    if required_kind in (kinds.UNIQUE,):
        # The entire permission is handed over.
        return (FractionalPermission(kinds.UNIQUE, held.fraction, held.state), None)
    if required_kind == kinds.FULL:
        # Exclusive write piece; a read-only pure residue may stay behind.
        given = FractionalPermission(kinds.FULL, held.fraction / 2, held.state)
        retained = FractionalPermission(kinds.PURE, held.fraction / 2, held.state)
        return (given, retained)
    # Symmetric (share/immutable/pure) pieces: give half, keep half.
    given = FractionalPermission(required_kind, held.fraction / 2, held.state)
    retained_kind = _retained_kind(held.kind, required_kind)
    retained = FractionalPermission(retained_kind, held.fraction / 2, held.state)
    return (given, retained)


def _retained_kind(held_kind, given_kind):
    """Kind kept by the splitter after giving away ``given_kind``."""
    if given_kind == kinds.SHARE:
        # Another writer now exists; the residue can write but must assume
        # other writers: share.
        return kinds.SHARE
    if given_kind == kinds.IMMUTABLE:
        # Other readers assume no writers; residue must drop write: immutable.
        return kinds.IMMUTABLE
    if given_kind == kinds.PURE:
        # A pure alias assumes writers may exist; the holder keeps its kind.
        return held_kind
    return held_kind


def merge(piece_a, piece_b):
    """Merge two permissions to the same object; returns the combined one.

    Merging follows the fraction laws: same-kind pieces add fractions, and
    a piece re-absorbed into the permission it was split from restores the
    original kind once the whole fraction is reassembled.
    """
    total = piece_a.fraction + piece_b.fraction
    if total > 1:
        raise ValueError("merged fraction exceeds 1: %s" % total)
    state = piece_a.state if piece_a.state == piece_b.state else "ALIVE"
    if piece_a.kind == piece_b.kind:
        kind = piece_a.kind
        if total == 1 and kind in (kinds.SHARE, kinds.IMMUTABLE, kinds.PURE):
            # Whole object reassembled from symmetric pieces: unique again.
            return FractionalPermission(kinds.UNIQUE, Fraction(1), state)
        return FractionalPermission(kind, total, state)
    pair = frozenset([piece_a.kind, piece_b.kind])
    if pair == frozenset([kinds.FULL, kinds.PURE]):
        # full + its pure residue: restores the stronger claim.
        kind = kinds.FULL if total < 1 else kinds.UNIQUE
        return FractionalPermission(kind, total, state)
    # Mixed merge falls back to the weaker kind.
    weaker = kinds.weakest([piece_a.kind, piece_b.kind])
    return FractionalPermission(weaker, total, state)


def initial_unique(state="ALIVE"):
    """The permission held right after ``new``: unique, fraction 1."""
    return FractionalPermission(kinds.UNIQUE, Fraction(1), state)
