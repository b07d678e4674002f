"""Cache keys must be stable across processes and hash seeds.

The persistent cache is only sound if the same logical content always
maps to the same key: a fingerprint that depended on dict/set iteration
order (which varies with ``PYTHONHASHSEED``) or on object identity would
silently miss — or worse, collide.  These tests mirror the hash-seed
subprocess harness from ``test_determinism.py`` at the fingerprint
layer, plus unit tests for the canonical byte encoding itself.
"""

import os
import subprocess
import sys

import pytest

from repro.cache.fingerprints import (
    canonical_bytes,
    config_digest,
    digest,
    environment_digest,
    method_digest,
    program_digest,
    source_digest,
    unit_digest,
)
from repro.core.heuristics import HeuristicConfig
from repro.core.infer import InferenceSettings
from repro.corpus.examples import figure3_sources
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_canonical_bytes_dict_order_independent():
    assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes(
        {"b": 2, "a": 1}
    )


def test_canonical_bytes_set_order_independent():
    left = set(["x", "y", "z"])
    right = set(["z", "x", "y"])
    assert canonical_bytes(left) == canonical_bytes(right)


def test_canonical_bytes_distinguishes_types():
    # 1 vs 1.0 vs "1" vs True must all encode differently: a cache key
    # collision between them would replay the wrong artifact.
    encodings = {
        canonical_bytes(1),
        canonical_bytes(1.0),
        canonical_bytes("1"),
        canonical_bytes(True),
        canonical_bytes(b"1"),
    }
    assert len(encodings) == 5


def test_canonical_bytes_list_order_is_semantic():
    # Lists and tuples keep their order (evidence bucket order matters).
    assert canonical_bytes([1, 2]) != canonical_bytes([2, 1])


def test_canonical_bytes_nested_structures():
    value = {"outer": [{"b": 2, "a": 1}, set(["q", "p"])], "n": None}
    flipped = {"n": None, "outer": [{"a": 1, "b": 2}, set(["p", "q"])]}
    assert canonical_bytes(value) == canonical_bytes(flipped)


def test_canonical_bytes_rejects_unknown_types():
    class Opaque:
        pass

    with pytest.raises(TypeError):
        canonical_bytes(Opaque())


def test_digest_is_hex_sha256():
    value = digest(("layer", {"k": [1, 2, 3]}))
    assert len(value) == 64
    int(value, 16)  # hex-parsable


def test_config_digest_ignores_schedule_settings(monkeypatch):
    """Only knobs that change the marginals key the cache.  The executor
    changes *how* methods are scheduled, never the visit step; the
    engines give bit-identical marginals; the threshold is read only by
    extraction.  The fixed BP constants are hashed, so editing one
    re-keys the cache."""
    from repro.cache import fingerprints

    config = HeuristicConfig()
    base = config_digest(config, InferenceSettings())
    for settings in (
        InferenceSettings(executor="serial"),
        InferenceSettings(threshold=0.75),
        InferenceSettings(engine="loopy"),
    ):
        assert base == config_digest(config, settings)
    assert base != config_digest(
        config, InferenceSettings(max_worklist_iters=5)
    )
    monkeypatch.setattr(fingerprints, "BP_DAMPING", 0.3)
    assert base != config_digest(config, InferenceSettings())


def test_config_digest_refuses_custom_heuristics():
    config = HeuristicConfig(custom=(("nonsense", None),))
    assert config_digest(config, InferenceSettings()) is None


def test_method_digest_sees_body_edits_only():
    before = resolve_program(
        [parse_compilation_unit("class A { int f() { return 1; } }")]
    )
    after = resolve_program(
        [parse_compilation_unit("class A { int f() { return 2; } }")]
    )
    ref_before = next(iter(before.methods_with_bodies()))
    ref_after = next(iter(after.methods_with_bodies()))
    assert method_digest(ref_before) != method_digest(ref_after)
    # The interface environment ignores bodies entirely.
    assert environment_digest(before) == environment_digest(after)


def test_environment_digest_sees_signature_edits():
    before = resolve_program(
        [parse_compilation_unit("class A { int f() { return 1; } }")]
    )
    after = resolve_program(
        [parse_compilation_unit("class A { int f(int x) { return 1; } }")]
    )
    assert environment_digest(before) != environment_digest(after)


_FINGERPRINT_SCRIPT = """
import sys
from repro.cache.fingerprints import (
    config_digest, environment_digest, method_digest, program_digest,
    source_digest, unit_digest,
)
from repro.core.heuristics import HeuristicConfig
from repro.core.infer import InferenceSettings
from repro.corpus.examples import figure3_sources
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program

sources = figure3_sources()
units = [parse_compilation_unit(source) for source in sources]
program = resolve_program(units)
for source in sources:
    sys.stdout.write("source " + source_digest(source) + "\\n")
for unit in units:
    sys.stdout.write("unit " + unit_digest(unit) + "\\n")
sys.stdout.write("program " + program_digest(program) + "\\n")
sys.stdout.write("environment " + environment_digest(program) + "\\n")
for ref in program.methods_with_bodies():
    sys.stdout.write(
        "method %s %s\\n" % (ref.qualified_name, method_digest(ref))
    )
sys.stdout.write(
    "config %s\\n"
    % config_digest(HeuristicConfig(), InferenceSettings())
)
"""


def _fingerprints_with_hash_seed(seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    completed = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
        check=True,
    )
    return completed.stdout


def test_fingerprints_are_hash_seed_independent():
    """Fresh interpreters with different string-hash seeds must agree on
    every cache fingerprint, or caches shared between runs (and between
    pool workers) would never hit."""
    first = _fingerprints_with_hash_seed(1)
    second = _fingerprints_with_hash_seed(2)
    assert first == second
    assert "program " in first and "config " in first


def test_fingerprints_stable_within_process():
    sources = figure3_sources()
    units = [parse_compilation_unit(source) for source in sources]
    program_a = resolve_program(units)
    program_b = resolve_program(
        [parse_compilation_unit(source) for source in sources]
    )
    assert program_digest(program_a) == program_digest(program_b)
    assert environment_digest(program_a) == environment_digest(program_b)
    digests_a = sorted(
        method_digest(ref) for ref in program_a.methods_with_bodies()
    )
    digests_b = sorted(
        method_digest(ref) for ref in program_b.methods_with_bodies()
    )
    assert digests_a == digests_b
