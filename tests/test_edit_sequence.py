"""A seeded edit sequence against one warm cache answers as cold runs do.

Each step edits one method of a project shaped like the edit-warm
benchmark's, alternating two kinds of edit:

* ``filler`` rewrites a filler method's constant, which changes no spec,
  warning or marginal;
* ``protocol`` toggles an unguarded ``it.next()`` before the closing
  return of an iterator-using method.  That adds or removes a warning
  (in ``consumeFirst`` also changes its spec), and the inserted line
  moves the warnings of every later method in the unit, whose
  fingerprints stay as they were.

After every step the cached ``auto`` run must equal a cold run without
the cache, and the full checker on that run's program: warnings, the
canonical answer with marginals, the annotated sources and the tier
split.  Replayed tier-1 verdicts are position-free, and warnings come
only from the tier-2 residue, which is checked again on every run.
"""

import os
import random
import re

import pytest

from repro.cache import AnalysisCache
from repro.core.pipeline import AnekPipeline
from repro.corpus.generator import CorpusSpec, generate_pmd_corpus
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.plural.checker import run_check

FULL_SCALE = os.environ.get("REPRO_FULL_SCALE", "") == "1"
SEEDS = (0, 1) if FULL_SCALE else (0,)
EDITS = 120 if FULL_SCALE else 40

FILLER_SITE = re.compile(r"(int a = x \+ )(\d+);")
PROTOCOL_SITE = re.compile(
    r"(?m)^(?P<indent> +)(?:(?:acc|v) = (?:acc|v) \+ "
    r"(?P<call>it\.next\(\) \+ )?\d+;\n(?P=indent))?return (?P<var>acc|v);$"
)
CLASS_HEADER = re.compile(r"(?m)^(?:@\w+\(.*\)\n)?class (\w+)")
METHOD_HEADER = re.compile(r"(?m)^    [\w<>]+ (\w+)\(.*\) \{$")


def project(seed):
    spec = CorpusSpec(seed=seed, filler_call_density=0.12).scaled(0.015)
    return [ITERATOR_API_SOURCE] + list(generate_pmd_corpus(spec).sources)


def apply_edit(sources, rng, value, kind):
    """Edit one seeded site of ``kind`` in place; ``value`` is new to
    every edit, so no edit recreates an earlier source text.  Returns
    the qualified name of the edited method."""
    pattern = FILLER_SITE if kind == "filler" else PROTOCOL_SITE
    unit = rng.choice(
        [index for index, text in enumerate(sources) if pattern.search(text)]
    )
    text = sources[unit]
    site = rng.choice(list(pattern.finditer(text)))
    if kind == "filler":
        edited = site.group(1) + "%d;" % value
    else:
        indent, var = site.group("indent"), site.group("var")
        call = "" if site.group("call") else "it.next() + "
        edited = "%s%s = %s + %s%d;\n%sreturn %s;" % (
            indent, var, var, call, value, indent, var
        )
    sources[unit] = text[: site.start()] + edited + text[site.end():]
    (class_name,) = CLASS_HEADER.findall(text)
    method_name = METHOD_HEADER.findall(text[: site.start()])[-1]
    return "%s.%s" % (class_name, method_name)


def split(check):
    return (
        check.tier,
        check.tier1_methods,
        check.tier2_methods,
        check.tier1_sites,
        check.tier2_sites,
        check.residue_reasons,
    )


def warning_lines(result):
    """{(method, kind, message): [line, ...]} of a run's warnings."""
    lines = {}
    for warning in result.warnings:
        key = (warning.method, warning.kind, warning.message)
        lines.setdefault(key, []).append(warning.line)
    return lines


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_edits_answer_as_cold_runs(tmp_path, seed):
    sources = project(seed)
    cache_dir = tmp_path / "cache"
    previous = AnekPipeline(cache=AnalysisCache(cache_dir)).run_on_sources(
        sources
    )
    rng = random.Random(seed)
    moved_unchanged = 0
    planned = 0
    for index in range(EDITS):
        kind = ("filler", "protocol")[index % 2]
        edited = apply_edit(sources, rng, 1000 + index, kind)
        cached = AnekPipeline(cache=AnalysisCache(cache_dir)).run_on_sources(
            sources
        )
        cold = AnekPipeline().run_on_sources(sources)
        full = run_check(cold.program, tier="full")
        step = (index, kind)
        assert not cached.failures.records, step
        assert [w.format() for w in cached.warnings] == [
            w.format() for w in full.warnings
        ], step
        assert cached.canonical_json(include_marginals=True) == (
            cold.canonical_json(include_marginals=True)
        ), step
        assert cached.annotated_sources == cold.annotated_sources, step
        assert split(cached.check) == split(cold.check), step
        moved = cached.cache_stats
        assert moved.verdict_hits + moved.verdict_misses == (
            cold.inference_stats.methods
        ), step
        planned += moved.verdict_misses
        # A warning of a method the edit did not touch that only moved:
        # same method and message, new line.
        before, after = warning_lines(previous), warning_lines(cached)
        moved_unchanged += sum(
            1
            for key, lines in after.items()
            if key[0] != edited and key in before and before[key] != lines
        )
        previous = cached
    # The sequence moved warnings of methods it did not edit, and a
    # warm edit plans a few methods, never the whole project.
    assert moved_unchanged > 0
    assert planned < 4 * EDITS
