"""Shared helpers for the serving test suites.

The serving determinism bar is *bit-identity*: a served response's
``result`` must equal the canonical payload of a cold, in-process
pipeline run of the same request.  Both suites (differential + stress)
compare through :func:`canonical_json`, the exact encoding the daemon
ships over the wire.
"""

import json
from contextlib import contextmanager

from repro.cache import AnalysisCache
from repro.core import AnekPipeline, InferenceSettings
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.serve import AnekServer

#: A small client exercising the Iterator protocol end to end.
LEDGER_CLIENT = """
class Ledger {
    @Perm("share")
    Collection<Integer> amounts;

    Ledger() {
        this.amounts = new ArrayList<Integer>();
    }

    Iterator<Integer> createAmountIter() {
        return amounts.iterator();
    }

    int total() {
        int sum = 0;
        Iterator<Integer> it = createAmountIter();
        while (it.hasNext()) {
            sum = sum + it.next();
        }
        return sum;
    }
}
"""

#: A second, distinct program (different specs than LEDGER_CLIENT).
SCANNER_CLIENT = """
class Scanner {
    int consume(Iterator it) {
        int n = 0;
        while (it.hasNext()) {
            it.next();
            n = n + 1;
        }
        return n;
    }
}
"""

#: A third program with a protocol violation (a PLURAL warning).
BROKEN_CLIENT = """
class Broken {
    void skip(Iterator it) {
        it.next();
    }
}
"""


@contextmanager
def running_server(tmp_path, **kwargs):
    """Boot an in-process daemon on an ephemeral TCP port; always drain."""
    kwargs.setdefault("port", 0)
    kwargs.setdefault("cache_dir", str(tmp_path / "serve-cache"))
    kwargs.setdefault("workers", 4)
    server = AnekServer(**kwargs)
    server.start()
    try:
        yield server
    finally:
        server.initiate_shutdown()
        server.wait()


def cold_result(
    sources,
    api=True,
    threshold=0.5,
    max_iters=0,
    engine="compiled",
    executor="worklist",
    cache_dir=None,
):
    """One cold in-process pipeline run with the CLI's settings."""
    settings = InferenceSettings(
        threshold=threshold,
        max_worklist_iters=max_iters,
        executor=executor,
        engine=engine,
    )
    cache = AnalysisCache(cache_dir=cache_dir) if cache_dir else None
    pipeline = AnekPipeline(settings=settings, cache=cache)
    full = list(sources)
    if api:
        full.insert(0, ITERATOR_API_SOURCE)
    return pipeline.run_on_sources(full)


def canonical_json(payload):
    """The daemon's exact canonical encoding of a result payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
