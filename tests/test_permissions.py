"""Tests for permission kinds, splitting, states, and the spec language."""

import pytest

from repro.permissions import kinds
from repro.permissions.spec import (
    MethodSpec,
    PermClause,
    SpecParseError,
    format_clauses,
    parse_perm_clauses,
    spec_of_method,
)
from repro.permissions.splitting import best_retained, legal_edge_pair
from repro.permissions.states import ALIVE, StateSpace, iterator_state_space


class TestKinds:
    def test_figure4_unique_row(self):
        info = kinds.kind_info(kinds.UNIQUE)
        assert info.this_writes and not info.others_exist

    def test_figure4_full_row(self):
        info = kinds.kind_info(kinds.FULL)
        assert info.this_writes and info.others_exist and not info.others_write

    def test_figure4_share_row(self):
        info = kinds.kind_info(kinds.SHARE)
        assert info.this_writes and info.others_write

    def test_figure4_immutable_row(self):
        info = kinds.kind_info(kinds.IMMUTABLE)
        assert not info.this_writes and not info.others_write

    def test_figure4_pure_row(self):
        info = kinds.kind_info(kinds.PURE)
        assert not info.this_writes and info.others_write

    def test_unique_satisfies_everything(self):
        for required in kinds.ALL_KINDS:
            assert kinds.satisfies(kinds.UNIQUE, required)

    def test_pure_satisfies_only_pure(self):
        assert kinds.satisfies(kinds.PURE, kinds.PURE)
        for required in (kinds.UNIQUE, kinds.FULL, kinds.SHARE, kinds.IMMUTABLE):
            assert not kinds.satisfies(kinds.PURE, required)

    def test_satisfies_is_reflexive(self):
        for kind in kinds.ALL_KINDS:
            assert kinds.satisfies(kind, kind)

    def test_satisfies_is_transitive(self):
        for a in kinds.ALL_KINDS:
            for b in kinds.ALL_KINDS:
                for c in kinds.ALL_KINDS:
                    if kinds.satisfies(a, b) and kinds.satisfies(b, c):
                        assert kinds.satisfies(a, c)

    def test_share_does_not_satisfy_immutable(self):
        assert not kinds.satisfies(kinds.SHARE, kinds.IMMUTABLE)
        assert not kinds.satisfies(kinds.IMMUTABLE, kinds.SHARE)

    def test_strongest_weakest(self):
        assert kinds.strongest([kinds.PURE, kinds.FULL]) == kinds.FULL
        assert kinds.weakest([kinds.UNIQUE, kinds.SHARE]) == kinds.SHARE

    def test_satisfying_common_join(self):
        common = kinds.satisfying_common(kinds.FULL, kinds.SHARE)
        assert kinds.strongest(common) == kinds.SHARE

    def test_satisfying_common_incomparable(self):
        common = kinds.satisfying_common(kinds.SHARE, kinds.IMMUTABLE)
        assert kinds.strongest(common) == kinds.PURE

    def test_figure4_rows_cover_all_kinds(self):
        rows = kinds.figure4_rows()
        assert [row[0] for row in rows] == list(kinds.ALL_KINDS)


class TestSplitting:
    def test_unique_splits_to_share_share(self):
        assert legal_edge_pair(kinds.UNIQUE, kinds.SHARE, kinds.SHARE)

    def test_unique_splits_to_full_pure(self):
        assert legal_edge_pair(kinds.UNIQUE, kinds.FULL, kinds.PURE)

    def test_unique_cannot_split_to_two_fulls(self):
        assert not legal_edge_pair(kinds.UNIQUE, kinds.FULL, kinds.FULL)

    def test_unique_cannot_split_to_two_uniques(self):
        assert not legal_edge_pair(kinds.UNIQUE, kinds.UNIQUE, kinds.UNIQUE)

    def test_full_piece_needs_readonly_co_piece(self):
        assert not legal_edge_pair(kinds.UNIQUE, kinds.FULL, kinds.SHARE)
        assert legal_edge_pair(kinds.UNIQUE, kinds.FULL, kinds.PURE)

    def test_immutable_piece_excludes_writers(self):
        assert not legal_edge_pair(kinds.UNIQUE, kinds.IMMUTABLE, kinds.SHARE)
        assert legal_edge_pair(kinds.UNIQUE, kinds.IMMUTABLE, kinds.IMMUTABLE)

    def test_share_cannot_produce_immutable(self):
        assert not legal_edge_pair(kinds.SHARE, kinds.IMMUTABLE, kinds.PURE)

    def test_whole_transfer_weakens(self):
        assert legal_edge_pair(kinds.FULL, kinds.SHARE, None)
        assert not legal_edge_pair(kinds.PURE, kinds.FULL, None)

    def test_pure_only_splits_to_pure(self):
        assert all(
            given == kinds.PURE and retained == kinds.PURE
            for given in kinds.ALL_KINDS
            for retained in kinds.ALL_KINDS
            if legal_edge_pair(kinds.PURE, given, retained)
        )

    def test_best_retained_after_lending_pure(self):
        assert best_retained(kinds.UNIQUE, kinds.PURE) == kinds.FULL

    def test_best_retained_after_lending_full(self):
        retained = best_retained(kinds.UNIQUE, kinds.FULL)
        assert retained in kinds.READ_ONLY_KINDS

    def test_every_legal_split_is_sound(self):
        # Two writing-exclusive pieces must never coexist.
        for held in kinds.ALL_KINDS:
            for given in kinds.ALL_KINDS:
                for retained in kinds.ALL_KINDS:
                    if legal_edge_pair(held, given, retained):
                        assert not (
                            given in kinds.EXCLUSIVE_KINDS
                            and retained in kinds.EXCLUSIVE_KINDS
                        )


class TestStates:
    def test_iterator_space(self):
        space = iterator_state_space()
        assert set(space.states) == {"ALIVE", "HASNEXT", "END"}
        assert space.parent("HASNEXT") == ALIVE

    def test_parse_nested_hierarchy(self):
        space = StateSpace.parse("Stream", "OPEN:READING|EOF, CLOSED")
        assert space.parent("READING") == "OPEN"
        assert space.parent("OPEN") == ALIVE
        assert space.is_substate("EOF", "OPEN")
        assert not space.is_substate("CLOSED", "OPEN")

    def test_substate_satisfies_superstate(self):
        space = iterator_state_space()
        assert space.satisfies("HASNEXT", ALIVE)
        assert not space.satisfies(ALIVE, "HASNEXT")

    def test_meet_picks_deeper(self):
        space = iterator_state_space()
        assert space.meet("HASNEXT", ALIVE) == "HASNEXT"
        assert space.meet("HASNEXT", "END") is None

    def test_join_is_least_common_ancestor(self):
        space = StateSpace.parse("S", "OPEN:READING|EOF, CLOSED")
        assert space.join("READING", "EOF") == "OPEN"
        assert space.join("READING", "CLOSED") == ALIVE

    def test_unknown_state_treated_as_child_of_alive(self):
        space = iterator_state_space()
        assert space.satisfies("MYSTERY", ALIVE)
        assert not space.satisfies(ALIVE, "MYSTERY")

    def test_leaves(self):
        space = StateSpace.parse("S", "OPEN:READING|EOF, CLOSED")
        assert space.leaves() == ["CLOSED", "EOF", "READING"]

    def test_to_dot(self):
        dot = iterator_state_space().to_dot()
        assert "ALIVE -> HASNEXT" in dot
        assert "ALIVE -> END" in dot


class TestSpecLanguage:
    def test_parse_single_clause(self):
        clauses = parse_perm_clauses("full(this) in HASNEXT")
        assert clauses == [PermClause("full", "this", "HASNEXT")]

    def test_parse_defaults_to_alive(self):
        clauses = parse_perm_clauses("pure(this)")
        assert clauses[0].state == ALIVE

    def test_parse_multiple_clauses(self):
        clauses = parse_perm_clauses("unique(result) in ALIVE, pure(x)")
        assert len(clauses) == 2
        assert clauses[1].target == "x"

    def test_parse_empty_is_empty(self):
        assert parse_perm_clauses("") == []
        assert parse_perm_clauses(None) == []

    def test_malformed_clause_raises(self):
        with pytest.raises(SpecParseError):
            parse_perm_clauses("grant(this)")
        with pytest.raises(SpecParseError):
            parse_perm_clauses("full this")

    def test_format_round_trip(self):
        text = "full(this) in HASNEXT, unique(result)"
        assert format_clauses(parse_perm_clauses(text)) == text

    def test_spec_of_method_reads_annotations(self, api_program):
        iterator = api_program.lookup_class("Iterator")
        next_method = iterator.find_method("next")[0]
        spec = spec_of_method(next_method)
        assert spec.requires == [PermClause("full", "this", "HASNEXT")]
        assert spec.ensures == [PermClause("full", "this", "ALIVE")]

    def test_spec_of_state_test_method(self, api_program):
        iterator = api_program.lookup_class("Iterator")
        has_next = iterator.find_method("hasNext")[0]
        spec = spec_of_method(has_next)
        assert spec.true_indicates == "HASNEXT"
        assert spec.false_indicates == "END"
        assert spec.is_state_test

    def test_empty_spec_detection(self):
        assert MethodSpec().is_empty
        assert not MethodSpec(requires=[PermClause("pure", "this")]).is_empty

    def test_to_annotations_round_trip(self):
        spec = MethodSpec(
            requires=[PermClause("full", "this", "HASNEXT")],
            ensures=[PermClause("full", "this", "ALIVE")],
            true_indicates="HASNEXT",
        )
        rendered = dict(spec.to_annotations())
        assert rendered["Perm"]["requires"] == "full(this) in HASNEXT"
        assert rendered["TrueIndicates"]["value"] == "HASNEXT"
