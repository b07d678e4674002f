"""The paper's small-benchmark regression suite (§4.2) as a bench.

"During the experiments we would run ANEK on the test suite, and ensure
that correct annotations were inferred, and that after inference PLURAL
would report no warnings."
"""

from repro.corpus.regression import run_suite


def test_bench_regression_suite(benchmark):
    outcomes = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    print()
    for outcome in outcomes:
        status = "ok" if outcome.passed else "FAIL"
        print("  %-28s [%-6s] %s" % (outcome.case.name, outcome.case.rule, status))
        for failure in outcome.failures:
            print("      " + failure)
    assert all(outcome.passed for outcome in outcomes)
    rules = {outcome.case.rule for outcome in outcomes}
    assert {"L1", "L2", "L3", "H1", "H2", "H3", "H4", "H5"} <= rules
