"""Differential harness for the process executor's lanes.

The process executor runs one lane (a one-worker process pool) per job
and pins every method to one lane with the deterministic
:func:`repro.core.shardplan.plan_shards` partition.  Because every solve
within a level reads only the level-start store snapshot, and outcomes
are reassembled in canonical sorted-key order before any summary merge,
the lane plan can only change *which worker* computes an outcome —
never the outcome itself.  And because a lane re-solves the same
methods every round, it builds, reuses and skips exactly what the
serial executor does.  This suite locks both in: every executor × job
count × engine combination must reproduce the serial run's marginals
bit for bit and its work counters exactly, including across a SIGKILL
mid-level followed by ``--resume`` under a *different* job count.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.core.infer import AnekInference, InferenceSettings
from repro.core.shardplan import plan_shards
from repro.corpus import CorpusSpec, generate_pmd_corpus
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import method_key, resolve_program
from repro.resilience.faults import ENV_VAR, FaultPlan, FaultSpec

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

JOB_COUNTS = [1, 2, 4]
EXECUTORS = ["serial", "process"]


def corpus_sources():
    return generate_pmd_corpus(CorpusSpec().scaled(0.05)).all_sources()


def fresh_program(sources):
    return resolve_program(
        [parse_compilation_unit(source) for source in sources]
    )


def snap(results):
    return {
        method_key(ref): {
            str(slot_target): marginal.to_payload()
            for slot_target, marginal in sorted(
                boundary.items(), key=lambda kv: str(kv[0])
            )
        }
        for ref, boundary in results.items()
    }


def run_lanes(sources, executor, jobs, engine="compiled"):
    inference = AnekInference(
        fresh_program(sources),
        settings=InferenceSettings(
            executor=executor, engine=engine, jobs=jobs
        ),
    )
    return {"marginals": snap(inference.run()), "stats": inference.stats}


@pytest.fixture(scope="module")
def sources():
    return corpus_sources()


@pytest.fixture(scope="module")
def reference(sources):
    """The serial run every combination must reproduce."""
    return run_lanes(sources, "serial", 1)


@pytest.mark.parametrize("jobs", JOB_COUNTS)
@pytest.mark.parametrize("executor", EXECUTORS)
class TestShardEquivalence:
    def test_bit_identical_marginals(
        self, sources, reference, executor, jobs
    ):
        run = run_lanes(sources, executor, jobs)
        assert run["marginals"] == reference["marginals"]
        assert run["stats"].executor == executor
        # Work counters, not only outputs: a lane builds each of its
        # methods once and reuses it in later rounds, as serial does.
        assert (
            run["stats"].work_counters()
            == reference["stats"].work_counters()
        )

    def test_schedule_carries_per_shard_trace(
        self, sources, reference, executor, jobs
    ):
        run = run_lanes(sources, executor, jobs)
        for entry, ref_entry in zip(
            run["stats"].schedule, reference["stats"].schedule
        ):
            assert entry["methods"] == ref_entry["methods"]
            if executor == "serial":
                assert "lanes" not in entry
            else:
                trace = entry["lanes"]
                # Every populated level splits its methods exactly
                # across the lanes that worked it.
                assert sum(t["methods"] for t in trace) == entry["methods"]
                assert all(0 <= t["lane"] < jobs for t in trace)


class TestLoopyEngineSharded:
    def test_loopy_matches_compiled_under_shards(self, sources, reference):
        run = run_lanes(sources, "process", 2, engine="loopy")
        assert run["marginals"] == reference["marginals"]


class TestShardPlanning:
    def test_plan_is_deterministic_and_balanced(self):
        levels = [["m%02d" % i for i in range(start, start + size)]
                  for start, size in ((0, 7), (7, 5), (12, 1))]
        key_of = {ref: ref for level in levels for ref in level}
        first = plan_shards(levels, 3, key_of)
        second = plan_shards(levels, 3, key_of)
        assert first == second
        assert set(first) == set(key_of)
        loads = [0, 0, 0]
        for shard in first.values():
            loads[shard] += 1
        assert max(loads) - min(loads) <= 1

    def test_single_shard_plan_is_all_zero(self):
        levels = [["a", "b"], ["c"]]
        key_of = {"a": "a", "b": "b", "c": "c"}
        plan = plan_shards(levels, 1, key_of)
        assert plan == {"a": 0, "b": 0, "c": 0}

    def test_shards_setting_is_gone(self):
        # The job count is the lane count; there is no separate knob.
        with pytest.raises(TypeError):
            InferenceSettings(shards=2)


# ---------------------------------------------------------------------------
# CLI chaos: SIGKILL mid-level, then --resume under a different job count
# ---------------------------------------------------------------------------


def _write_corpus(directory, sources):
    paths = []
    for index, source in enumerate(sources):
        path = os.path.join(str(directory), "Source%03d.java" % index)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(source)
        paths.append(path)
    return paths


def _cli_env(extra=None):
    env = dict(os.environ)
    env.pop(ENV_VAR, None)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    if extra:
        env.update(extra)
    return env


def _run_cli(args, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "infer", "--no-cache",
         "--no-api"] + args,
        capture_output=True,
        text=True,
        env=env or _cli_env(),
        cwd=REPO_ROOT,
        timeout=timeout,
    )


def _run_cli_expecting_kill(args, env, timeout=300):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "infer", "--no-cache",
         "--no-api"] + args,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=REPO_ROOT,
        start_new_session=True,
    )
    try:
        return proc.wait(timeout=timeout)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def _spec_section(stdout):
    start = stdout.index("Inferred specifications:")
    end = stdout.index("\n", stdout.index("PLURAL warnings:"))
    return stdout[start:end]


class TestCliShardedSigkill:
    def test_sigkill_mid_shard_resumes_under_other_shard_count(
        self, tmp_path, sources
    ):
        """Kill a 2-lane process run between level barriers, resume with
        4 lanes: the level checkpoints are lane-count-agnostic, so the
        resumed run completes and prints the same specs as a serial
        run."""
        files = _write_corpus(tmp_path, sources)
        run_dir = str(tmp_path / "run")
        two_lanes = ["--executor", "process", "--jobs", "2"]
        plan = FaultPlan(
            [FaultSpec(stage="checkpoint", key="round", kind="killproc",
                       skip=2)]
        )
        returncode = _run_cli_expecting_kill(
            two_lanes + ["--run-dir", run_dir] + files,
            env=_cli_env(plan.env()),
        )
        assert returncode == -signal.SIGKILL
        resumed = _run_cli(
            ["--executor", "process", "--jobs", "4",
             "--resume", run_dir] + files,
            env=_cli_env(),
        )
        assert resumed.returncode == 0, (resumed.stdout, resumed.stderr)
        assert ", resumed" in resumed.stdout
        serial = _run_cli(["--executor", "serial"] + files)
        assert serial.returncode == 0, serial.stderr
        assert _spec_section(resumed.stdout) == _spec_section(serial.stdout)
