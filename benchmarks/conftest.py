"""Shared benchmark configuration: the one size knob.

Every benchmark defaults to quick sizes, so the suite runs in minutes.
Set ``REPRO_FULL_SCALE=1`` for full size: the paper's tables at full
PMD scale (463 classes / 3,120 methods / 38,483 lines), and the larger
programs, loop counts and request counts of the bp, check, incremental,
scale and serve benches.
"""

import os

import pytest

from repro.corpus import CorpusSpec

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") == "1"

#: Scale used when not running at full PMD size.
DEFAULT_SCALE = 0.1


def corpus_spec():
    spec = CorpusSpec()
    if FULL_SCALE:
        return spec
    return spec.scaled(DEFAULT_SCALE)


@pytest.fixture(scope="session")
def bench_corpus_spec():
    return corpus_spec()
