"""Edge-case robustness: tricky programs must not crash any stage."""

from repro.core import infer_and_check
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.plural.checker import check_program
from tests.conftest import build_program


def run_all_stages(source):
    """Parse + check + infer + apply + re-check; returns the result."""
    return infer_and_check([ITERATOR_API_SOURCE, source])


class TestRecursion:
    def test_direct_recursion(self):
        result = run_all_stages(
            """
            class R {
                int count(Iterator<Integer> it, int acc) {
                    if (it.hasNext()) {
                        Integer v = it.next();
                        return count(it, acc + 1);
                    }
                    return acc;
                }
            }
            """
        )
        assert result.specs  # completed without divergence

    def test_mutual_recursion(self):
        result = run_all_stages(
            """
            class M {
                int ping(Iterator<Integer> it) {
                    if (it.hasNext()) { Integer v = it.next(); return pong(it); }
                    return 0;
                }
                int pong(Iterator<Integer> it) {
                    if (it.hasNext()) { Integer v = it.next(); return ping(it); }
                    return 1;
                }
            }
            """
        )
        assert result.specs

    def test_self_returning_method(self):
        result = run_all_stages(
            """
            class S {
                S chain() { return this; }
                S twice() { return chain().chain(); }
            }
            """
        )
        assert result.specs


class TestUnusualShapes:
    def test_empty_class(self):
        result = run_all_stages("class Empty { }")
        assert result.warnings == []

    def test_method_with_empty_body(self):
        result = run_all_stages("class E { void nop() { } }")
        assert result.warnings == []

    def test_static_method(self):
        result = run_all_stages(
            """
            class St {
                static int add(int a, int b) { return a + b; }
                int use() { return add(1, 2); }
            }
            """
        )
        assert result.warnings == []

    def test_unused_iterator(self):
        result = run_all_stages(
            """
            class U {
                void waste(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                }
            }
            """
        )
        assert result.warnings == []

    def test_same_object_passed_twice(self):
        result = run_all_stages(
            """
            class Twice {
                void both(Iterator<Integer> a, Iterator<Integer> b) { }
                void call(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    both(it, it);
                }
            }
            """
        )
        assert result.specs  # aliased arguments must not crash

    def test_iterator_stored_in_field(self):
        result = run_all_stages(
            """
            class Holder {
                @Perm("share")
                Iterator<Integer> held;
                void stash(Collection<Integer> c) {
                    held = c.iterator();
                }
                boolean probe() {
                    return held.hasNext();
                }
            }
            """
        )
        assert result.specs

    def test_deeply_nested_control_flow(self):
        body = "int acc = 0;"
        for depth in range(6):
            body += "if (acc > %d) { " % depth
        body += "acc = acc + 1;"
        body += "}" * 6
        body += "return acc;"
        result = run_all_stages(
            "class Deep { int run(int seed) { %s } }" % body
        )
        assert result.warnings == []

    def test_loop_with_break_and_continue(self):
        result = run_all_stages(
            """
            class BC {
                int scan(Collection<Integer> c) {
                    int acc = 0;
                    Iterator<Integer> it = c.iterator();
                    while (it.hasNext()) {
                        Integer v = it.next();
                        if (v > 10) { break; }
                        if (v < 0) { continue; }
                        acc = acc + v;
                    }
                    return acc;
                }
            }
            """
        )
        assert result.warnings == []

    def test_conditional_expression_iterator(self):
        result = run_all_stages(
            """
            class Cond {
                int pick(Collection<Integer> a, Collection<Integer> b, boolean flag) {
                    Iterator<Integer> it = flag ? a.iterator() : b.iterator();
                    int acc = 0;
                    while (it.hasNext()) { acc = acc + it.next(); }
                    return acc;
                }
            }
            """
        )
        assert result.warnings == []

    def test_do_while_iterator(self):
        # do-while calls next before the first hasNext: a genuine
        # protocol violation the checker must flag, not crash on.
        result = run_all_stages(
            """
            class DW {
                int risky(Collection<Integer> c) {
                    int acc = 0;
                    Iterator<Integer> it = c.iterator();
                    do { acc = acc + it.next(); } while (it.hasNext());
                    return acc;
                }
            }
            """
        )
        assert any(w.kind == "wrong-state" for w in result.warnings)

    def test_calls_to_unknown_library_methods(self):
        result = run_all_stages(
            """
            class Lib {
                int use(String s) {
                    return s.length();
                }
            }
            """
        )
        assert result.warnings == []

    def test_foreach_over_wrapper_result(self):
        result = run_all_stages(
            """
            class FE {
                @Perm("share")
                Collection<Integer> items;
                Collection<Integer> getItems() { return items; }
                int sum() {
                    int acc = 0;
                    for (Integer v : getItems()) { acc = acc + v; }
                    return acc;
                }
            }
            """
        )
        assert result.specs


class TestCheckerRobustness:
    def test_shadowed_variable_in_branches(self):
        program = build_program(
            """
            class Sh {
                void twice(Collection<Integer> c, boolean flag) {
                    Iterator<Integer> it = c.iterator();
                    if (flag) {
                        it = c.iterator();
                    }
                    if (it.hasNext()) { Integer v = it.next(); }
                }
            }
            """
        )
        assert check_program(program) == []

    def test_while_true_loop_terminates_analysis(self):
        program = build_program(
            """
            class WT {
                int spin(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    while (true) {
                        if (!it.hasNext()) { return 0; }
                        Integer v = it.next();
                    }
                }
            }
            """
        )
        # Must reach a fixpoint; the guarded access verifies.
        assert check_program(program) == []

    def test_for_loop_iterator_idiom(self):
        program = build_program(
            """
            class FL {
                int scan(Collection<Integer> c) {
                    int acc = 0;
                    for (Iterator<Integer> it = c.iterator(); it.hasNext();) {
                        acc = acc + it.next();
                    }
                    return acc;
                }
            }
            """
        )
        assert check_program(program) == []

    def test_assert_on_iterator_state(self):
        program = build_program(
            """
            class As {
                void probe(Collection<Integer> c) {
                    Iterator<Integer> it = c.iterator();
                    assert it.hasNext();
                }
            }
            """
        )
        assert check_program(program) == []
