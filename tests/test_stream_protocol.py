"""End-to-end tests on the hierarchical stream protocol."""

from repro.core import infer_and_check
from repro.corpus.stream_api import (
    STREAM_CLIENT_BAD,
    STREAM_CLIENT_GOOD,
    stream_sources,
)
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program
from repro.plural.checker import check_program
from repro.plural.warnings import WarningKind


def program_for(*clients):
    return resolve_program(
        [parse_compilation_unit(s) for s in stream_sources(*clients)]
    )


class TestStreamChecking:
    def test_api_itself_verifies(self):
        assert check_program(program_for()) == []

    def test_good_client_verifies(self):
        assert check_program(program_for(STREAM_CLIENT_GOOD)) == []

    def test_unguarded_read_is_wrong_state(self):
        warnings = check_program(
            program_for(
                """
                class G {
                    int grab(FileSystem fs) {
                        Stream s = fs.open("x");
                        return s.read();
                    }
                }
                """
            )
        )
        assert [w.kind for w in warnings] == [WarningKind.WRONG_STATE]

    def test_use_after_close_is_wrong_state(self):
        warnings = check_program(
            program_for(
                """
                class U {
                    int late(FileSystem fs) {
                        Stream s = fs.open("x");
                        s.close();
                        return s.position();
                    }
                }
                """
            )
        )
        assert [w.kind for w in warnings] == [WarningKind.WRONG_STATE]

    def test_double_close_is_wrong_state(self):
        warnings = check_program(
            program_for(
                """
                class D {
                    void twice(FileSystem fs) {
                        Stream s = fs.open("x");
                        s.close();
                        s.close();
                    }
                }
                """
            )
        )
        assert [w.kind for w in warnings] == [WarningKind.WRONG_STATE]

    def test_bad_client_warning_count(self):
        warnings = check_program(program_for(STREAM_CLIENT_BAD))
        assert len(warnings) == 3
        assert all(w.kind == WarningKind.WRONG_STATE for w in warnings)

    def test_ready_refines_to_nested_substate(self):
        # READY ⊑ OPEN: a read after the test also satisfies OPEN calls.
        warnings = check_program(
            program_for(
                """
                class N {
                    int peek(FileSystem fs) {
                        Stream s = fs.open("x");
                        if (s.ready()) {
                            int v = s.read();
                            int where = s.position();
                            s.close();
                            return v + where;
                        }
                        s.close();
                        return 0;
                    }
                }
                """
            )
        )
        assert warnings == []

    def test_close_requires_unique_not_satisfied_by_shared(self):
        warnings = check_program(
            program_for(
                """
                class Sh {
                    @Perm(requires="share(s) in OPEN", ensures="share(s)")
                    void tryClose(Stream s) {
                        s.close();
                    }
                }
                """
            )
        )
        assert WarningKind.INSUFFICIENT_PERMISSION in [w.kind for w in warnings]


class TestStreamInference:
    def test_wrapper_inference_on_second_protocol(self):
        result = infer_and_check(
            stream_sources(
                """
                class LogManager {
                    @Perm("share")
                    FileSystem fs;
                    Stream createLogStream() {
                        return fs.open("app.log");
                    }
                    int tail() {
                        int total = 0;
                        Stream s = createLogStream();
                        while (s.ready()) { total = total + s.read(); }
                        s.close();
                        return total;
                    }
                }
                """
            )
        )
        assert result.warnings == []
        wrapper = [
            spec
            for ref, spec in result.specs.items()
            if ref.qualified_name == "LogManager.createLogStream"
        ][0]
        result_clauses = [c for c in wrapper.ensures if c.target == "result"]
        assert result_clauses
        assert result_clauses[0].kind == "unique"
        # The returned stream is OPEN (or a substate); never CLOSED.
        assert result_clauses[0].state in ("OPEN", "READY", "ALIVE")

    def test_param_inference_demands_open_state(self):
        result = infer_and_check(
            stream_sources(
                """
                class Drainer {
                    int drain(Stream s) {
                        int total = 0;
                        while (s.ready()) { total = total + s.read(); }
                        return total;
                    }
                }
                """
            )
        )
        drain = [
            spec
            for ref, spec in result.specs.items()
            if ref.qualified_name == "Drainer.drain"
        ][0]
        requires = [c for c in drain.requires if c.target == "s"]
        assert requires
        assert requires[0].kind == "full"

    def test_state_domain_is_the_nested_hierarchy(self):
        from repro.permissions.states import state_space_of_class

        program = program_for()
        stream = program.lookup_class("Stream")
        space = state_space_of_class(stream)
        assert space.parent("READY") == "OPEN"
        assert space.parent("CLOSED") == "ALIVE"
        assert space.satisfies("READY", "OPEN")
        assert not space.satisfies("CLOSED", "OPEN")
