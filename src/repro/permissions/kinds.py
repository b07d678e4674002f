"""The five access-permission kinds (paper Figure 4).

Each kind pairs a privilege for *this* reference with an assumption about
what *other* aliases may do:

============  ==============  =================
kind          this reference  other references
============  ==============  =================
unique        read/write      none exist
full          read/write      read-only
share         read/write      read/write
immutable     read-only       read-only
pure          read-only       read/write
============  ==============  =================

``satisfies`` encodes the weakening order (a held kind can stand in for a
required kind); ``split_targets`` encodes which kinds a permission can be
split into when a new alias is introduced (the legality core of the
paper's L1 constraint).
"""

from collections import namedtuple

UNIQUE = "unique"
FULL = "full"
SHARE = "share"
IMMUTABLE = "immutable"
PURE = "pure"

#: Canonical order used everywhere (strongest first).
ALL_KINDS = (UNIQUE, FULL, SHARE, IMMUTABLE, PURE)

#: Kinds that permit writing through this reference.
WRITING_KINDS = frozenset([UNIQUE, FULL, SHARE])

#: Kinds that are read-only through this reference.
READ_ONLY_KINDS = frozenset([IMMUTABLE, PURE])

#: Kinds compatible with concurrent access from other threads (paper H5).
THREAD_SHARED_KINDS = frozenset([FULL, SHARE, PURE])


KindInfo = namedtuple(
    "KindInfo", ["name", "this_writes", "others_exist", "others_write"]
)

_KIND_TABLE = {
    UNIQUE: KindInfo(UNIQUE, this_writes=True, others_exist=False, others_write=False),
    FULL: KindInfo(FULL, this_writes=True, others_exist=True, others_write=False),
    SHARE: KindInfo(SHARE, this_writes=True, others_exist=True, others_write=True),
    IMMUTABLE: KindInfo(
        IMMUTABLE, this_writes=False, others_exist=True, others_write=False
    ),
    PURE: KindInfo(PURE, this_writes=False, others_exist=True, others_write=True),
}

# A held kind satisfies a required kind when every guarantee of the
# requirement is implied by the held kind (weakening).
_SATISFIES = {
    UNIQUE: frozenset([UNIQUE, FULL, SHARE, IMMUTABLE, PURE]),
    FULL: frozenset([FULL, SHARE, IMMUTABLE, PURE]),
    SHARE: frozenset([SHARE, PURE]),
    IMMUTABLE: frozenset([IMMUTABLE, PURE]),
    PURE: frozenset([PURE]),
}

# One-step split legality: from a held kind, the set of kinds each piece
# may take when the permission is divided between two references.  Derived
# from the paper's Equation 2: unique may split into anything (with at
# most one unique/full piece), full into {full, immutable, share, pure},
# immutable into {immutable, pure}, share into {share, pure}, pure into
# {pure}.
_SPLIT_TARGETS = {
    UNIQUE: frozenset([UNIQUE, FULL, SHARE, IMMUTABLE, PURE]),
    FULL: frozenset([FULL, SHARE, IMMUTABLE, PURE]),
    SHARE: frozenset([SHARE, PURE]),
    IMMUTABLE: frozenset([IMMUTABLE, PURE]),
    PURE: frozenset([PURE]),
}

# Kinds carrying an exclusive claim: at most one piece of a split may be
# exclusive (the paper's ¬(unique ∨ full) side condition on co-pieces).
EXCLUSIVE_KINDS = frozenset([UNIQUE, FULL])


def kind_info(kind):
    """Return the :class:`KindInfo` row of Figure 4 for ``kind``."""
    return _KIND_TABLE[kind]


def satisfies(held, required):
    """True if holding ``held`` satisfies a requirement of ``required``."""
    return required in _SATISFIES[held]


def satisfying_common(kind_a, kind_b):
    """Kinds that both ``kind_a`` and ``kind_b`` can stand in for.

    Used by lattice joins: after a path merge, the context may only claim
    a permission that is implied by what was held on *every* path.
    """
    return frozenset(
        required
        for required in ALL_KINDS
        if satisfies(kind_a, required) and satisfies(kind_b, required)
    )


def split_targets(held):
    """Kinds each piece may take when splitting a held permission."""
    return _SPLIT_TARGETS[held]


def strength_rank(kind):
    """Smaller is stronger; useful for choosing the best inferred spec."""
    return ALL_KINDS.index(kind)


def strongest(kinds):
    """Return the strongest kind in a non-empty iterable."""
    return min(kinds, key=strength_rank)


def weakest(kinds):
    """Return the weakest kind in a non-empty iterable."""
    return max(kinds, key=strength_rank)


def figure4_rows():
    """The Figure 4 table as printable rows (used by the figure bench)."""
    rows = []
    for kind in ALL_KINDS:
        info = _KIND_TABLE[kind]
        this_access = "read/write" if info.this_writes else "read-only"
        if not info.others_exist:
            other_access = "none"
        elif info.others_write:
            other_access = "read/write"
        else:
            other_access = "read-only"
        rows.append((kind, this_access, other_access))
    return rows
