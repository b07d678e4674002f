"""Tests for the PLURAL modular typestate checker."""

from repro.plural.checker import check_program
from repro.plural.context import Context, NO_PERM, Perm, StateTest, kind_join
from repro.plural.warnings import WarningKind, dedupe, summarize
from tests.conftest import build_program


def warnings_for(*client_sources):
    program = build_program(*client_sources)
    return check_program(program)


def kinds_of(warnings):
    return sorted(w.kind for w in warnings)


class TestContext:
    def test_fresh_binding(self):
        ctx = Context().bind_fresh("x", Perm("unique", "ALIVE", "Iterator"))
        assert ctx.perm_of_var("x").kind == "unique"

    def test_alias_shares_cell(self):
        ctx = Context().bind_fresh("x", Perm("unique", "ALIVE", "Iterator"))
        ctx = ctx.bind_alias("y", "x")
        assert ctx.cell_of("x") == ctx.cell_of("y")

    def test_updating_cell_affects_all_aliases(self):
        ctx = Context().bind_fresh("x", Perm("unique", "ALIVE", "Iterator"))
        ctx = ctx.bind_alias("y", "x")
        ctx = ctx.set_perm(ctx.cell_of("y"), Perm("full", "ALIVE", "Iterator"))
        assert ctx.perm_of_var("x").kind == "full"

    def test_missing_var_has_no_perm(self):
        assert Context().perm_of_var("ghost") is NO_PERM

    def test_join_keeps_agreement(self):
        base = Context().bind_fresh("x", Perm("full", "ALIVE", "Iterator"))
        joined = base.join(base)
        assert joined.perm_of_var("x").kind == "full"

    def test_join_weakens_disagreeing_kinds(self):
        left = Context().bind_fresh("x", Perm("unique", "ALIVE", "Iterator"))
        right = Context().bind_fresh("x", Perm("share", "ALIVE", "Iterator"))
        joined = left.join(right)
        assert joined.perm_of_var("x").kind == "share"

    def test_join_drops_one_sided_bindings(self):
        left = Context().bind_fresh("x", Perm("full", "ALIVE", "Iterator"))
        right = Context()
        joined = left.join(right)
        assert joined.cell_of("x") is None

    def test_kind_join_none_absorbs(self):
        assert kind_join(None, "full") is None
        assert kind_join("full", None) is None

    def test_kind_join_incomparable(self):
        assert kind_join("share", "immutable") == "pure"

    def test_equality_up_to_cell_renaming(self):
        a = Context().bind_fresh("x", Perm("full", "ALIVE", "Iterator"))
        b = Context().bind_fresh("x", Perm("full", "ALIVE", "Iterator"))
        assert a == b

    def test_state_test_negation(self):
        test = StateTest(("cell", 1), "HASNEXT", "END")
        flipped = test.negated()
        assert flipped.true_state == "END"
        assert flipped.false_state == "HASNEXT"


class TestGuardedUse:
    def test_guarded_loop_is_clean(self):
        warnings = warnings_for(
            """
            class G {
                void scan(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    while (it.hasNext()) { Integer x = it.next(); }
                }
            }
            """
        )
        assert warnings == []

    def test_guarded_if_is_clean(self):
        warnings = warnings_for(
            """
            class G {
                void peek(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    if (it.hasNext()) { Integer x = it.next(); }
                }
            }
            """
        )
        assert warnings == []

    def test_negated_guard_refines_else_branch(self):
        warnings = warnings_for(
            """
            class G {
                void peek(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    boolean done = !it.hasNext();
                    if (done) { } else { Integer x = it.next(); }
                }
            }
            """
        )
        assert warnings == []

    def test_guard_through_local_copy(self):
        warnings = warnings_for(
            """
            class G {
                void peek(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    boolean more = it.hasNext();
                    if (more) { Integer x = it.next(); }
                }
            }
            """
        )
        assert warnings == []

    def test_conjunction_guard_refines(self):
        warnings = warnings_for(
            """
            class G {
                void peek(Collection<Integer> c, boolean go) {
                    Iterator<Integer> it = c.iterator();
                    if (it.hasNext() && go) { Integer x = it.next(); }
                }
            }
            """
        )
        assert warnings == []

    def test_disjunction_guard_refines_false_branch(self):
        warnings = warnings_for(
            """
            class G {
                void peek(Collection<Integer> c, boolean stop) {
                    Iterator<Integer> it = c.iterator();
                    boolean done = !it.hasNext() || stop;
                    if (done) { } else { Integer x = it.next(); }
                }
            }
            """
        )
        assert warnings == []

    def test_conjunction_false_branch_implies_nothing(self):
        # (hasNext && go) false does NOT mean END: next() in the else
        # branch must still warn.
        warnings = warnings_for(
            """
            class G {
                void peek(Collection<Integer> c, boolean go) {
                    Iterator<Integer> it = c.iterator();
                    if (it.hasNext() && go) { } else { Integer x = it.next(); }
                }
            }
            """
        )
        assert kinds_of(warnings) == [WarningKind.WRONG_STATE]

    def test_two_tests_conjoined_refine_both_cells(self):
        warnings = warnings_for(
            """
            class G {
                void both(Collection<Integer> a, Collection<Integer> b) {
                    Iterator<Integer> x = a.iterator();
                    Iterator<Integer> y = b.iterator();
                    if (x.hasNext() && y.hasNext()) {
                        Integer p = x.next();
                        Integer q = y.next();
                    }
                }
            }
            """
        )
        assert warnings == []

    def test_foreach_is_clean(self):
        warnings = warnings_for(
            """
            class G {
                void each(Collection<Integer> c) {
                    for (Integer x : c) { int y = x; }
                }
            }
            """
        )
        assert warnings == []


class TestViolations:
    def test_unguarded_next_is_wrong_state(self):
        warnings = warnings_for(
            """
            class B {
                void grab(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    Integer x = it.next();
                }
            }
            """
        )
        assert kinds_of(warnings) == [WarningKind.WRONG_STATE]

    def test_next_after_loop_is_wrong_state(self):
        warnings = warnings_for(
            """
            class B {
                void overrun(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    while (it.hasNext()) { Integer x = it.next(); }
                    Integer y = it.next();
                }
            }
            """
        )
        assert WarningKind.WRONG_STATE in kinds_of(warnings)

    def test_unannotated_wrapper_result_has_no_permission(self):
        warnings = warnings_for(
            """
            class W {
                @Perm("share")
                Collection<Integer> items;
                Iterator<Integer> wrap() { return items.iterator(); }
                void use() {
                    Iterator<Integer> it = wrap();
                    while (it.hasNext()) { Integer x = it.next(); }
                }
            }
            """
        )
        assert kinds_of(warnings) == [
            WarningKind.MISSING_PERMISSION,
            WarningKind.MISSING_PERMISSION,
        ]

    def test_annotated_wrapper_is_clean(self):
        warnings = warnings_for(
            """
            class W {
                @Perm("share")
                Collection<Integer> items;
                @Perm(ensures="unique(result) in ALIVE")
                Iterator<Integer> wrap() { return items.iterator(); }
                void use() {
                    Iterator<Integer> it = wrap();
                    while (it.hasNext()) { Integer x = it.next(); }
                }
            }
            """
        )
        assert warnings == []

    def test_return_promise_violation(self):
        warnings = warnings_for(
            """
            class R {
                @Perm(ensures="unique(result) in ALIVE")
                Iterator<Integer> broken(Iterator<Integer> it) {
                    return it;
                }
            }
            """
        )
        assert WarningKind.RETURN_MISMATCH in kinds_of(warnings)

    def test_postcondition_violation(self):
        warnings = warnings_for(
            """
            class P {
                @Perm(requires="unique(it)", ensures="unique(it)")
                void consume(Iterator<Integer> it, Collection<Integer> sink) {
                    sink.add(null);
                    this.stash = it;
                }
                @Perm("share")
                Iterator<Integer> stash;
            }
            """
        )
        assert WarningKind.POST_MISMATCH in kinds_of(warnings)

    def test_param_requirement_checked_at_call(self):
        warnings = warnings_for(
            """
            class Q {
                @Perm(requires="full(it) in ALIVE", ensures="full(it)")
                void eat(Iterator<Integer> it) { }
                void caller(Iterator<Integer> raw) {
                    eat(raw);
                }
            }
            """
        )
        assert WarningKind.MISSING_PERMISSION in kinds_of(warnings)

    def test_insufficient_kind_at_call(self):
        warnings = warnings_for(
            """
            class Q {
                @Perm(requires="unique(it)", ensures="unique(it)")
                void eatAll(Iterator<Integer> it) { }
                @Perm(requires="pure(weak)", ensures="pure(weak)")
                void caller(Iterator<Integer> weak) {
                    eatAll(weak);
                }
            }
            """
        )
        assert WarningKind.INSUFFICIENT_PERMISSION in kinds_of(warnings)


class TestBorrowsAndState:
    def test_read_only_borrow_preserves_holder_kind(self):
        # hasNext (pure borrow) must not weaken the unique iterator.
        warnings = warnings_for(
            """
            class H {
                void twice(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    if (it.hasNext()) { Integer x = it.next(); }
                    if (it.hasNext()) { Integer y = it.next(); }
                }
            }
            """
        )
        assert warnings == []

    def test_writing_call_resets_state(self):
        warnings = warnings_for(
            """
            class H {
                void stale(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    if (it.hasNext()) {
                        Integer x = it.next();
                        Integer y = it.next();
                    }
                }
            }
            """
        )
        assert WarningKind.WRONG_STATE in kinds_of(warnings)

    def test_supertype_spec_applies_to_override(self):
        # CheckedIterator inherits Iterator's spec; checking its body
        # against the inherited requires must pass.
        warnings = warnings_for(
            """
            @States("HASNEXT, END")
            class CheckedIterator implements Iterator<Integer> {
                int cursor;
                Integer next() { cursor = cursor + 1; return null; }
                boolean hasNext() { return cursor < 10; }
            }
            """
        )
        assert warnings == []

    def test_field_write_through_pure_receiver_warns(self):
        warnings = warnings_for(
            """
            class F {
                int counter;
                @Perm(requires="pure(this)", ensures="pure(this)")
                void sneak() { counter = 1; }
            }
            """
        )
        assert WarningKind.READONLY_FIELD_WRITE in kinds_of(warnings)

    def test_field_write_through_full_receiver_ok(self):
        warnings = warnings_for(
            """
            class F {
                int counter;
                @Perm(requires="full(this)", ensures="full(this)")
                void bump() { counter = counter + 1; }
            }
            """
        )
        assert warnings == []


class TestConstructorSpecs:
    def test_constructor_argument_requirement_checked(self):
        warnings = warnings_for(
            """
            class Wrap {
                Iterator<Integer> inner;
                @Perm(requires="unique(it)")
                Wrap(Iterator<Integer> it) { this.inner = it; }
                void build(Iterator<Integer> weak) {
                    Wrap w = new Wrap(weak);
                }
            }
            """
        )
        assert WarningKind.MISSING_PERMISSION in kinds_of(warnings)

    def test_constructor_argument_satisfied_by_fresh_iterator(self):
        warnings = warnings_for(
            """
            class Wrap {
                @Perm("share")
                Iterator<Integer> inner;
                @Perm(requires="unique(it)")
                Wrap(Iterator<Integer> it) { this.inner = it; }
                void build(Collection<Integer> c) {
                    Wrap w = new Wrap(c.iterator());
                }
            }
            """
        )
        assert warnings == []

    def test_unspecified_constructor_unchecked(self):
        warnings = warnings_for(
            """
            class Box {
                Box(Iterator<Integer> it) { }
                void build(Iterator<Integer> weak) {
                    Box b = new Box(weak);
                }
            }
            """
        )
        assert warnings == []


class TestWarningPlumbing:
    def test_dedupe_by_site(self):
        from repro.plural.warnings import Warning

        w1 = Warning(WarningKind.WRONG_STATE, "A.m", 3, "msg")
        w2 = Warning(WarningKind.WRONG_STATE, "A.m", 3, "msg")
        w3 = Warning(WarningKind.WRONG_STATE, "A.m", 4, "msg")
        assert len(dedupe([w1, w2, w3])) == 2

    def test_summarize_counts_by_kind(self):
        from repro.plural.warnings import Warning

        warnings = [
            Warning(WarningKind.WRONG_STATE, "A.m", 1, "x"),
            Warning(WarningKind.MISSING_PERMISSION, "A.m", 2, "y"),
            Warning(WarningKind.WRONG_STATE, "B.m", 3, "z"),
        ]
        counts = summarize(warnings)
        assert counts[WarningKind.WRONG_STATE] == 2

    def test_fixpoint_termination_on_nested_loops(self):
        warnings = warnings_for(
            """
            class L {
                void nest(Collection<Integer> c) {
                    Iterator<Integer> a = c.iterator();
                    while (a.hasNext()) {
                        Integer x = a.next();
                        Iterator<Integer> b = c.iterator();
                        while (b.hasNext()) { Integer y = b.next(); }
                    }
                }
            }
            """
        )
        assert warnings == []
