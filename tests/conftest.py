"""Shared fixtures: the annotated Iterator API and common programs."""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the files under tests/golden/ from the current output",
    )


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")

from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import MethodRef, resolve_program


def build_program(*client_sources, include_api=True):
    """Parse client sources (plus the Iterator API) into a Program."""
    sources = []
    if include_api:
        sources.append(ITERATOR_API_SOURCE)
    sources.extend(client_sources)
    return resolve_program(
        [parse_compilation_unit(source) for source in sources]
    )


def method_ref(program, class_name, method_name):
    """Look up a MethodRef by names."""
    decl = program.lookup_class(class_name)
    assert decl is not None, "no class %s" % class_name
    methods = decl.find_method(method_name)
    assert methods, "no method %s.%s" % (class_name, method_name)
    return MethodRef(decl, methods[0])


@pytest.fixture
def api_program():
    return build_program()


@pytest.fixture
def figure3_program():
    from repro.corpus.examples import FIGURE3_CLIENT

    return build_program(FIGURE3_CLIENT)
