"""CLI table/figure subcommands and the Table renderer internals."""

import io

import pytest

from repro.cli import main as cli_main
from repro.reporting.tables import render_table


def run_cli(argv):
    out = io.StringIO()
    code = cli_main(argv, out=out)
    return code, out.getvalue()


class TestCliTables:
    def test_table_1(self):
        code, output = run_cli(["table", "1", "--scale", "0.05"])
        assert code == 0
        assert "Lines of Source" in output

    def test_table_3_small(self):
        code, output = run_cli(["table", "3", "--methods", "3"])
        assert code == 0
        assert "Plural Local Inference" in output

    def test_table_5_compares_the_two_schedules(self):
        from repro.corpus import CorpusSpec
        from repro.reporting.experiments import table5_parallel

        result = table5_parallel(corpus_spec=CorpusSpec().scaled(0.03))
        worklist, serial = result.rows
        assert (worklist.executor, serial.executor) == ("worklist", "serial")
        assert "Lanes" not in result.table.headers
        assert serial.solves <= worklist.solves
        assert serial.annotations == worklist.annotations

    def test_figure_1(self):
        code, output = run_cli(["figure", "1"])
        assert code == 0
        assert "HASNEXT" in output

    def test_figure_6(self):
        code, output = run_cli(["figure", "6"])
        assert code == 0
        assert "PFG for Row.copy" in output
        assert "digraph" in output

    def test_figure_10(self):
        code, output = run_cli(["figure", "10"])
        assert code == 0
        assert "anek-infer" in output

    def test_bad_subcommand_exits(self):
        with pytest.raises(SystemExit):
            run_cli(["bogus"])

    def test_bad_figure_number_exits(self):
        with pytest.raises(SystemExit):
            run_cli(["figure", "2"])


class TestRenderTable:
    def test_column_widths_fit_content(self):
        text = render_table("T", ["col", "x"], [["longvalue", "1"]])
        lines = text.splitlines()
        # All box lines share one width.
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_title_on_first_line(self):
        text = render_table("My Title", ["a"], [["1"]])
        assert text.splitlines()[0] == "My Title"

    def test_empty_rows_ok(self):
        text = render_table("T", ["a", "b"], [])
        assert "| a | b |" in text
