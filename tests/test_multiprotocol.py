"""Programs mixing two protocols (Iterator + Stream) in one model."""

from repro.core import infer_and_check
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.corpus.stream_api import STREAM_API_SOURCE
from repro.plural.checker import check_program
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program

MIXED_CLIENT = """
class Exporter {
    int export(Collection<Integer> data, FileSystem fs, String path) {
        Stream out = fs.open(path);
        Iterator<Integer> it = data.iterator();
        int moved = 0;
        while (it.hasNext()) {
            Integer v = it.next();
            if (out.ready()) {
                moved = moved + out.read();
            }
            moved = moved + v;
        }
        out.close();
        return moved;
    }
}
"""

BUGGY_MIXED_CLIENT = """
class Sloppy {
    int export(Collection<Integer> data, FileSystem fs, String path) {
        Stream out = fs.open(path);
        Iterator<Integer> it = data.iterator();
        int moved = it.next();
        moved = moved + out.read();
        out.close();
        return moved;
    }
}
"""


def mixed_program(client):
    return resolve_program(
        [
            parse_compilation_unit(ITERATOR_API_SOURCE),
            parse_compilation_unit(STREAM_API_SOURCE),
            parse_compilation_unit(client),
        ]
    )


class TestMixedProtocols:
    def test_well_behaved_client_verifies(self):
        assert check_program(mixed_program(MIXED_CLIENT)) == []

    def test_each_protocol_violation_flagged_separately(self):
        warnings = check_program(mixed_program(BUGGY_MIXED_CLIENT))
        methods_and_lines = {(w.kind) for w in warnings}
        assert len(warnings) == 2
        assert all(w.kind == "wrong-state" for w in warnings)
        messages = " ".join(w.message for w in warnings)
        assert "HASNEXT" in messages  # iterator violation
        assert "READY" in messages  # stream violation

    def test_inference_handles_two_state_domains_in_one_model(self):
        result = infer_and_check(
            [
                ITERATOR_API_SOURCE,
                STREAM_API_SOURCE,
                """
                class Pump {
                    int pump(Iterator<Integer> it, Stream out) {
                        int moved = 0;
                        while (it.hasNext()) {
                            Integer v = it.next();
                            if (out.ready()) { moved = moved + out.read(); }
                        }
                        return moved;
                    }
                }
                """,
            ]
        )
        assert result.warnings == []
        pump = [
            spec
            for ref, spec in result.specs.items()
            if ref.qualified_name == "Pump.pump"
        ][0]
        targets = {clause.target: clause for clause in pump.requires}
        assert "it" in targets
        assert "out" in targets
        # Demands inferred independently per protocol: the iterator needs
        # full (next is called), the stream needs at least pure (ready).
        assert targets["it"].kind == "full"
        assert targets["out"].kind in ("full", "share", "pure")
