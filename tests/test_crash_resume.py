"""The crash/resume chaos harness.

The durable-run tentpole's contract, locked in end to end:

* a ``SIGKILL`` at *any* point of a run with a run directory — during
  pass 1 of the worklist, between two SCC level barriers, halfway
  through a journal record, or during the final persist — leaves a
  directory from which ``--resume`` reproduces the uninterrupted run
  **bit-identically**;
* the journal is a valid-prefix format: truncating or corrupting its
  tail at any byte never breaks recovery (the snapshot drives resume,
  the journal only narrates);
* a corrupt newest snapshot falls back to its predecessor and the
  resume still converges to the same marginals;
* SIGTERM/SIGINT drain the in-flight unit of work, write a final
  checkpoint, and exit with the resumable code 5;
* ``ENOSPC`` on the run directory degrades to a no-persist run (counted,
  reported, not fatal);
* a soft RSS budget stops the run at a checkpoint exactly like SIGTERM
  (exit 5), and resuming until the run completes reproduces the
  unbudgeted marginals bit-identically.
"""

import errno
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.cache.store import ArtifactStore
from repro.core.infer import AnekInference, InferenceSettings
from repro.corpus.examples import FIGURE3_CLIENT
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import method_key, resolve_program
from repro.resilience import checkpoint
from repro.resilience.checkpoint import (
    JOURNAL_NAME,
    CheckpointManager,
    ResumeError,
    RunInterrupted,
    latest_valid_snapshot,
    read_snapshot,
    write_snapshot,
)
from repro.resilience.faults import (
    ENV_VAR,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    clear_fault_plan,
    install_fault_plan,
)
from repro.resilience.journal import MAGIC, Journal, read_journal

SOURCES = [ITERATOR_API_SOURCE, FIGURE3_CLIENT]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear_fault_plan()
    checkpoint.clear_shutdown()
    yield
    clear_fault_plan()
    checkpoint.clear_shutdown()


def fresh_program(sources=None):
    return resolve_program(
        [parse_compilation_unit(source) for source in (sources or SOURCES)]
    )


def snap(results):
    """Boundary marginals as plain comparable data, keyed by method key."""
    return {
        method_key(ref): {
            str(slot_target): marginal.to_payload()
            for slot_target, marginal in sorted(
                boundary.items(), key=lambda kv: str(kv[0])
            )
        }
        for ref, boundary in results.items()
    }


def make_settings(executor="worklist", engine="compiled", **kwargs):
    return InferenceSettings(executor=executor, engine=engine, **kwargs)


_REFS = {}


def clean_snap(executor="worklist", engine="compiled"):
    """Memoized fault-free reference marginals per configuration."""
    key = (executor, engine)
    if key not in _REFS:
        inference = AnekInference(
            fresh_program(), settings=make_settings(executor, engine)
        )
        _REFS[key] = snap(inference.run())
    return _REFS[key]


def crash_run(run_dir, faults, executor="worklist", engine="compiled",
              **kwargs):
    """Run with an installed fault plan until it raises InjectedFault."""
    install_fault_plan(faults)
    inference = AnekInference(
        fresh_program(),
        settings=make_settings(
            executor, engine, run_dir=str(run_dir), **kwargs
        ),
    )
    with pytest.raises(InjectedFault):
        inference.run()
    clear_fault_plan()
    return inference


def resume_run(run_dir, executor="worklist", engine="compiled",
               sources=None, **kwargs):
    inference = AnekInference(
        fresh_program(sources),
        settings=make_settings(
            executor, engine, run_dir=str(run_dir), resume=True, **kwargs
        ),
    )
    return inference, snap(inference.run())


# ---------------------------------------------------------------------------
# The journal format: valid-prefix reads under arbitrary tail damage
# ---------------------------------------------------------------------------


class TestJournal:
    def _write(self, path, count=5):
        journal = Journal.create(path)
        for index in range(count):
            journal.append("event", {"index": index, "pad": "x" * 50})
        journal.close()

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.bin")
        self._write(path, count=5)
        records, valid_bytes, total_bytes = read_journal(path)
        assert [data["index"] for _, data in records] == list(range(5))
        assert valid_bytes == total_bytes == os.path.getsize(path)

    def test_missing_file(self, tmp_path):
        assert read_journal(str(tmp_path / "absent.bin")) == ([], 0, 0)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "journal.bin")
        with open(path, "wb") as handle:
            handle.write(b"NOTJRNL!" + b"\x00" * 32)
        records, valid_bytes, total_bytes = read_journal(path)
        assert records == [] and valid_bytes == 0
        assert total_bytes == os.path.getsize(path)

    def test_truncation_fuzz_every_boundary(self, tmp_path):
        """A journal cut at *any* byte parses as a valid prefix."""
        path = str(tmp_path / "journal.bin")
        self._write(path, count=4)
        full_records, full_valid, _ = read_journal(path)
        size = os.path.getsize(path)
        data = open(path, "rb").read()
        cut_path = str(tmp_path / "cut.bin")
        for cut in range(len(MAGIC), size + 1, 7):
            with open(cut_path, "wb") as handle:
                handle.write(data[:cut])
            records, valid_bytes, total = read_journal(cut_path)
            assert total == cut
            assert valid_bytes <= cut
            assert len(records) <= len(full_records)
            # The prefix property: what parses agrees with the full log.
            assert records == full_records[: len(records)]

    def test_corrupt_tail_excluded(self, tmp_path):
        path = str(tmp_path / "journal.bin")
        self._write(path, count=4)
        records, valid_bytes, _ = read_journal(path)
        data = bytearray(open(path, "rb").read())
        data[-10] ^= 0xFF  # flip a byte inside the last record's payload
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        damaged, damaged_valid, _ = read_journal(path)
        assert damaged == records[:-1]
        assert damaged_valid < valid_bytes

    def test_append_to_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "journal.bin")
        self._write(path, count=3)
        _, valid_bytes, _ = read_journal(path)
        with open(path, "ab") as handle:
            handle.write(b"R\xff\xff")  # a torn header
        journal = Journal.append_to(path, valid_bytes, index=3)
        journal.append("resumed", {})
        journal.close()
        records, new_valid, total = read_journal(path)
        assert [kind for kind, _ in records] == ["event"] * 3 + ["resumed"]
        assert new_valid == total == os.path.getsize(path)


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "snapshot-000001.bin")
        write_snapshot(path, {"hello": [1, 2, 3]})
        assert read_snapshot(path) == {"hello": [1, 2, 3]}

    def test_corruption_detected(self, tmp_path):
        path = str(tmp_path / "snapshot-000001.bin")
        write_snapshot(path, {"hello": "world"})
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        with pytest.raises(ValueError):
            read_snapshot(path)

    def test_latest_valid_skips_corrupt_newest(self, tmp_path):
        write_snapshot(str(tmp_path / "snapshot-000001.bin"), {"gen": 1})
        write_snapshot(str(tmp_path / "snapshot-000002.bin"), {"gen": 2})
        with open(str(tmp_path / "snapshot-000002.bin"), "r+b") as handle:
            handle.truncate(10)
        name, state = latest_valid_snapshot(str(tmp_path))
        assert name == "snapshot-000001.bin"
        assert state == {"gen": 1}

    def test_empty_dir(self, tmp_path):
        assert latest_valid_snapshot(str(tmp_path)) == (None, None)


# ---------------------------------------------------------------------------
# In-process crash/resume: bit-identity across schedules and engines
# ---------------------------------------------------------------------------


class TestCrashResumeMatrix:
    """A crash at a checkpoint barrier (the moment a SIGKILL would land)
    followed by ``--resume`` must be bit-identical to a clean run, for
    every schedule x engine combination."""

    @pytest.mark.parametrize("engine", ["compiled", "loopy"])
    @pytest.mark.parametrize("executor", ["worklist", "serial"])
    def test_bit_identity(self, tmp_path, executor, engine):
        skip = 7 if executor == "worklist" else 3
        crash_run(
            tmp_path,
            [FaultSpec(stage="checkpoint", key="", kind="raise", skip=skip)],
            executor=executor,
            engine=engine,
        )
        resumed, results = resume_run(
            tmp_path, executor=executor, engine=engine
        )
        assert results == clean_snap(executor, engine)
        assert resumed.stats.resumed
        assert not resumed.stats.interrupted
        assert resumed.failures.resumed_from == str(tmp_path)

    @pytest.mark.parametrize("skip", [0, 1, 20, 41])
    def test_worklist_depth_sweep(self, tmp_path, skip):
        """Kills at the first barrier (before any snapshot — resume is a
        fresh run), early, mid pass 2, and at the second-to-last visit."""
        run_dir = tmp_path / ("depth-%d" % skip)
        crash_run(
            run_dir,
            [FaultSpec(stage="checkpoint", key="", kind="raise", skip=skip)],
        )
        _, results = resume_run(run_dir)
        assert results == clean_snap()

    def test_crash_mid_journal_record(self, tmp_path):
        """The journal fault site sits between a record's header and
        payload writes: the crash leaves a torn tail on disk, which the
        resume truncates before appending."""
        crash_run(
            tmp_path,
            [FaultSpec(stage="journal", key="", kind="raise", skip=6)],
        )
        journal_path = str(tmp_path / JOURNAL_NAME)
        _, valid_bytes, total_bytes = read_journal(journal_path)
        assert valid_bytes < total_bytes  # the tail really is torn
        _, results = resume_run(tmp_path)
        assert results == clean_snap()
        _, valid_bytes, total_bytes = read_journal(journal_path)
        assert valid_bytes == total_bytes  # ...and was repaired

    def test_crash_during_final_persist(self, tmp_path):
        crash_run(
            tmp_path,
            [FaultSpec(stage="checkpoint", key="final", kind="raise")],
        )
        _, results = resume_run(tmp_path)
        assert results == clean_snap()

    def test_resume_of_completed_run(self, tmp_path):
        """Resuming a finalized directory restores the terminal state
        without re-solving anything."""
        inference = AnekInference(
            fresh_program(), settings=make_settings(run_dir=str(tmp_path))
        )
        reference = snap(inference.run())
        resumed, results = resume_run(tmp_path)
        assert results == reference
        assert resumed.stats.resumed

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        """KEEP_SNAPSHOTS=2: trashing the newest image lands recovery on
        its predecessor, and the longer re-executed tail still converges
        to the same marginals."""
        crash_run(
            tmp_path,
            [FaultSpec(stage="checkpoint", key="", kind="raise", skip=10)],
        )
        names = sorted(
            name
            for name in os.listdir(str(tmp_path))
            if name.startswith("snapshot-")
        )
        assert len(names) == 2
        with open(str(tmp_path / names[-1]), "r+b") as handle:
            handle.seek(12)
            handle.write(b"\xde\xad\xbe\xef")
        _, results = resume_run(tmp_path)
        assert results == clean_snap()

    def test_journal_fuzz_never_breaks_resume(self, tmp_path):
        """Truncate the journal of a crashed run at assorted byte offsets
        — resume must succeed and stay bit-identical every time (the
        journal narrates; snapshots carry the state)."""
        origin = tmp_path / "origin"
        crash_run(
            origin,
            [FaultSpec(stage="checkpoint", key="", kind="raise", skip=12)],
        )
        journal_size = os.path.getsize(str(origin / JOURNAL_NAME))
        cuts = sorted({len(MAGIC), journal_size // 3, journal_size // 2,
                       journal_size - 3, journal_size})
        for cut in cuts:
            replica = tmp_path / ("cut-%d" % cut)
            shutil.copytree(str(origin), str(replica))
            with open(str(replica / JOURNAL_NAME), "r+b") as handle:
                handle.truncate(cut)
            _, results = resume_run(replica)
            assert results == clean_snap(), "resume broke at cut %d" % cut

    def test_checkpoint_every_coarser_cadence(self, tmp_path):
        """checkpoint_every=5 snapshots less often; a crash then replays
        a longer (but still deterministic) tail."""
        crash_run(
            tmp_path,
            [FaultSpec(stage="checkpoint", key="", kind="raise", skip=17)],
            checkpoint_every=5,
        )
        resumed, results = resume_run(tmp_path, checkpoint_every=5)
        assert results == clean_snap()
        assert resumed.stats.resumed


# ---------------------------------------------------------------------------
# Graceful shutdown (in-process) and ledger continuity
# ---------------------------------------------------------------------------


class TestGracefulShutdown:
    def _interrupt_after(self, monkeypatch, barriers):
        calls = {"count": 0}

        def fake():
            calls["count"] += 1
            return calls["count"] > barriers

        monkeypatch.setattr(checkpoint, "shutdown_requested", fake)

    def test_interrupt_then_resume_bit_identical(self, tmp_path, monkeypatch):
        self._interrupt_after(monkeypatch, 5)
        inference = AnekInference(
            fresh_program(), settings=make_settings(run_dir=str(tmp_path))
        )
        with pytest.raises(RunInterrupted) as excinfo:
            inference.run()
        assert excinfo.value.run_dir == str(tmp_path)
        assert inference.stats.interrupted
        assert inference.failures.interrupted
        (record,) = [
            r
            for r in inference.failures
            if r.disposition == "run-interrupted"
        ]
        assert record.stage == "checkpoint"
        monkeypatch.setattr(checkpoint, "shutdown_requested", lambda: False)
        resumed, results = resume_run(tmp_path)
        assert results == clean_snap()
        assert not resumed.stats.interrupted

    def test_ledger_contiguous_across_resume(self, tmp_path, monkeypatch):
        """The resumed run's ledger starts with the pre-interrupt records
        (restored, not re-recorded) and carries ``resumed_from``."""
        self._interrupt_after(monkeypatch, 5)
        inference = AnekInference(
            fresh_program(), settings=make_settings(run_dir=str(tmp_path))
        )
        with pytest.raises(RunInterrupted):
            inference.run()
        before = [
            (r.stage, r.key, r.disposition) for r in inference.failures
        ]
        monkeypatch.setattr(checkpoint, "shutdown_requested", lambda: False)
        resumed, _ = resume_run(tmp_path)
        after = [(r.stage, r.key, r.disposition) for r in resumed.failures]
        assert after[: len(before)] == before
        assert resumed.failures.resumed_from == str(tmp_path)
        payload = json.loads(resumed.failures.to_json())
        assert payload["resumed_from"] == str(tmp_path)
        assert payload["interrupted"] is False
        # The interrupt is operational, not a result defect.
        assert not resumed.failures.has_degradation

    def test_second_run_dir_use_wipes_stale_state(self, tmp_path,
                                                  monkeypatch):
        self._interrupt_after(monkeypatch, 3)
        inference = AnekInference(
            fresh_program(), settings=make_settings(run_dir=str(tmp_path))
        )
        with pytest.raises(RunInterrupted):
            inference.run()
        monkeypatch.setattr(checkpoint, "shutdown_requested", lambda: False)
        # A fresh (non-resume) run over the same directory starts over.
        fresh = AnekInference(
            fresh_program(), settings=make_settings(run_dir=str(tmp_path))
        )
        assert snap(fresh.run()) == clean_snap()
        assert not fresh.stats.resumed


# ---------------------------------------------------------------------------
# Resume validation
# ---------------------------------------------------------------------------


class TestResumeValidation:
    def test_settings_validation(self):
        with pytest.raises(ValueError):
            InferenceSettings(checkpoint_every=0)
        with pytest.raises(ValueError):
            InferenceSettings(max_rss_mb=-1)
        with pytest.raises(ValueError):
            InferenceSettings(resume=True)  # resume requires run_dir
        with pytest.raises(ValueError, match="max_rss_mb requires a run_dir"):
            InferenceSettings(max_rss_mb=1)
        InferenceSettings(max_rss_mb=1, run_dir="runs/n1")
        with pytest.raises(
            ValueError, match="checkpoint_every requires a run_dir"
        ):
            InferenceSettings(checkpoint_every=5)
        InferenceSettings(checkpoint_every=5, run_dir="runs/n1")

    def test_resume_missing_directory(self, tmp_path):
        inference = AnekInference(
            fresh_program(),
            settings=make_settings(
                run_dir=str(tmp_path / "absent"), resume=True
            ),
        )
        with pytest.raises(ResumeError):
            inference.run()

    def test_resume_different_program_rejected(self, tmp_path):
        crash_run(
            tmp_path,
            [FaultSpec(stage="checkpoint", key="", kind="raise", skip=5)],
        )
        inference = AnekInference(
            fresh_program([ITERATOR_API_SOURCE]),
            settings=make_settings(run_dir=str(tmp_path), resume=True),
        )
        with pytest.raises(ResumeError) as excinfo:
            inference.run()
        assert "program" in str(excinfo.value)

    def test_resume_under_other_engine_bit_identical(self, tmp_path):
        """Neither the engine nor the threshold is part of a run's
        identity: a run crashed under compiled at t = 0.5 resumes under
        loopy at t = 0.75 and ends where a clean run ends."""
        crash_run(
            tmp_path,
            [FaultSpec(stage="checkpoint", key="", kind="raise", skip=5)],
            engine="compiled",
        )
        resumed, results = resume_run(
            tmp_path, engine="loopy", threshold=0.75
        )
        assert results == clean_snap()
        assert resumed.stats.resumed
        assert resumed.stats.engine == "loopy"

    def test_resume_different_schedule_rejected(self, tmp_path):
        crash_run(
            tmp_path,
            [FaultSpec(stage="checkpoint", key="", kind="raise", skip=3)],
            executor="serial",
        )
        inference = AnekInference(
            fresh_program(),
            settings=make_settings(
                executor="worklist", run_dir=str(tmp_path), resume=True
            ),
        )
        with pytest.raises(ResumeError):
            inference.run()


# ---------------------------------------------------------------------------
# Resource governance and persistence degradation
# ---------------------------------------------------------------------------


class TestMemoryBudget:
    @pytest.mark.parametrize("executor", ["worklist", "serial"])
    def test_stop_and_resume_loop_is_bit_identical(self, tmp_path,
                                                   executor):
        """Every barrier finds the process over a 1 MiB budget, so each
        run stops after one unit of work; resuming under the same budget
        takes one resume per barrier of an unbudgeted run and ends with
        its marginals."""
        reference_dir = str(tmp_path / "unbudgeted")
        unbudgeted = AnekInference(
            fresh_program(),
            settings=make_settings(executor, run_dir=reference_dir),
        )
        reference = snap(unbudgeted.run())
        assert reference == clean_snap(executor)
        records, _, _ = read_journal(
            os.path.join(reference_dir, JOURNAL_NAME)
        )
        barriers = [kind for kind, _ in records].count("barrier")
        assert barriers > 1

        run_dir = str(tmp_path / "budgeted")
        inference = AnekInference(
            fresh_program(),
            settings=make_settings(executor, run_dir=run_dir, max_rss_mb=1),
        )
        with pytest.raises(RunInterrupted) as excinfo:
            inference.run()
        assert excinfo.value.run_dir == run_dir
        assert inference.stats.interrupted
        (record,) = inference.failures
        assert (record.stage, record.error, record.disposition) == (
            "resource",
            "SoftMemoryBudget",
            "run-interrupted",
        )
        assert "over the 1 MiB budget" in record.message
        records, _, _ = read_journal(os.path.join(run_dir, JOURNAL_NAME))
        kinds = [kind for kind, _ in records]
        assert kinds.count("barrier") == 1
        assert [
            data["reason"] for kind, data in records if kind == "snapshot"
        ] == ["memory"]
        assert kinds[-1] == "interrupt"

        for resumes in itertools.count(1):
            assert resumes <= barriers, "the budget never let the run end"
            resumed = AnekInference(
                fresh_program(),
                settings=make_settings(
                    executor, run_dir=run_dir, resume=True, max_rss_mb=1
                ),
            )
            try:
                results = snap(resumed.run())
            except RunInterrupted:
                continue
            break
        assert resumes == barriers
        assert results == reference
        assert [r.error for r in resumed.failures] == (
            ["SoftMemoryBudget"] * barriers
        )
        assert not resumed.failures.has_degradation


class TestPersistenceDegradation:
    def test_enospc_at_start_degrades_to_no_persist(self, tmp_path,
                                                    monkeypatch):
        def no_space(path, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(checkpoint, "_atomic_write", no_space)
        with pytest.warns(RuntimeWarning, match="not writable"):
            inference = AnekInference(
                fresh_program(),
                settings=make_settings(run_dir=str(tmp_path)),
            )
            results = snap(inference.run())
        assert results == clean_snap()
        assert inference.stats.persist_errors >= 1
        assert any(
            r.disposition == "persistence-disabled"
            for r in inference.failures
        )
        assert not inference.failures.has_degradation

    def test_disk_fills_mid_run(self, tmp_path, monkeypatch):
        """Persistence that dies after a few snapshots disables itself
        and the analysis still completes with identical results."""
        real = checkpoint._atomic_write
        calls = {"count": 0}

        def flaky(path, data):
            calls["count"] += 1
            if calls["count"] > 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(path, data)

        monkeypatch.setattr(checkpoint, "_atomic_write", flaky)
        with pytest.warns(RuntimeWarning, match="not writable"):
            inference = AnekInference(
                fresh_program(),
                settings=make_settings(run_dir=str(tmp_path)),
            )
            results = snap(inference.run())
        assert results == clean_snap()
        assert inference.stats.persist_errors >= 1
        assert inference.stats.checkpoints < 40  # persistence stopped early

    def test_cache_store_errors_are_counted(self, tmp_path, monkeypatch):
        """Satellite: the analysis cache's write failures surface as a
        counted ``store_errors`` stat instead of warn-and-forget."""
        from repro.cache import AnalysisCache

        def no_space(source, destination):
            raise OSError(errno.ENOSPC, "No space left on device")

        cache = AnalysisCache(cache_dir=str(tmp_path / "cache"))
        monkeypatch.setattr("repro.cache.store.os.replace", no_space)
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.parse(FIGURE3_CLIENT)
        assert cache.store.store_errors == 1
        assert cache.stats.store_errors == 1
        assert "write error" in cache.stats.describe()

    def test_store_error_counter_on_raw_store(self, tmp_path, monkeypatch):
        store = ArtifactStore(str(tmp_path / "store"))

        def no_space(source, destination):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("repro.cache.store.os.replace", no_space)
        with pytest.warns(RuntimeWarning, match="not writable"):
            store.save("ab" * 20, {"payload": 1})
        assert store.store_errors == 1
        # Disabled writes stop counting (one incident, one counter bump).
        store.save("cd" * 20, {"payload": 2})
        assert store.store_errors == 1


# ---------------------------------------------------------------------------
# CLI chaos: real SIGKILLs at the five required points, then --resume
# ---------------------------------------------------------------------------


def _write_corpus(directory):
    paths = []
    for index, source in enumerate(SOURCES):
        path = os.path.join(str(directory), "Source%d.java" % index)
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
    """Launch the CLI and wait for it to die by SIGKILL.

    Output goes to DEVNULL and the process group is killed afterwards,
    so nothing the killed run left behind can hold a pipe open or
    outlive the test.
    """
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
    """The 'Inferred specifications:' block through the PLURAL warnings —
    the user-visible result, shared verbatim by clean and resumed runs."""
    start = stdout.index("Inferred specifications:")
    end = stdout.index("\n", stdout.index("PLURAL warnings:"))
    return stdout[start:end]


_CLI_REFS = {}


def _cli_reference(files, *flags):
    key = flags
    if key not in _CLI_REFS:
        completed = _run_cli(list(flags) + files)
        assert completed.returncode == 0, completed.stderr
        _CLI_REFS[key] = _spec_section(completed.stdout)
    return _CLI_REFS[key]


# The kill points, as (id, extra CLI flags, fault specs).
KILL_POINTS = [
    (
        "pass1-worklist",
        [],
        [{"stage": "checkpoint", "key": "visit", "kind": "killproc",
          "skip": 5}],
    ),
    (
        "between-scc-barriers",
        ["--executor", "serial"],
        [{"stage": "checkpoint", "key": "round", "kind": "killproc",
          "skip": 2}],
    ),
    (
        "mid-journal-write",
        [],
        [{"stage": "journal", "key": "", "kind": "killproc", "skip": 6}],
    ),
    (
        "during-final-persist",
        [],
        [{"stage": "checkpoint", "key": "final", "kind": "killproc"}],
    ),
]


class TestCliSigkillChaos:
    @pytest.mark.parametrize(
        "flags,specs",
        [(flags, specs) for _, flags, specs in KILL_POINTS],
        ids=[point_id for point_id, _, _ in KILL_POINTS],
    )
    def test_sigkill_then_resume(self, tmp_path, flags, specs):
        files = _write_corpus(tmp_path)
        run_dir = str(tmp_path / "run")
        plan = FaultPlan([FaultSpec(**spec) for spec in specs])
        returncode = _run_cli_expecting_kill(
            flags + ["--run-dir", run_dir] + files,
            env=_cli_env(plan.env()),
        )
        assert returncode == -signal.SIGKILL
        # The resume runs in a clean environment — no fault plan re-arms.
        resumed = _run_cli(
            flags + ["--resume", run_dir] + files, env=_cli_env()
        )
        assert resumed.returncode == 0, (resumed.stdout, resumed.stderr)
        assert ", resumed" in resumed.stdout
        assert _spec_section(resumed.stdout) == _cli_reference(
            files, *flags
        )

    def test_resume_nonexistent_dir_is_usage_error(self, tmp_path):
        files = _write_corpus(tmp_path)
        completed = _run_cli(
            ["--resume", str(tmp_path / "absent")] + files
        )
        assert completed.returncode == 3
        assert "not a run directory" in completed.stderr


class TestCliMemoryBudget:
    def test_budget_exits_five_and_resumes_without_it(self, tmp_path):
        files = _write_corpus(tmp_path)
        run_dir = str(tmp_path / "run")
        stopped = _run_cli(["--run-dir", run_dir, "--max-rss-mb", "1"] + files)
        assert stopped.returncode == 5, (stopped.stdout, stopped.stderr)
        assert "interrupted: resumable checkpoint" in stopped.stdout
        assert "--resume %s" % run_dir in stopped.stdout
        assert "SoftMemoryBudget" in stopped.stdout
        resumed = _run_cli(["--resume", run_dir] + files)
        assert resumed.returncode == 0, (resumed.stdout, resumed.stderr)
        assert ", resumed" in resumed.stdout
        assert _spec_section(resumed.stdout) == _cli_reference(files)


class TestCliSigterm:
    def test_sigterm_drains_checkpoints_and_reaps_workers(self, tmp_path):
        """SIGTERM mid-run: the process finishes its in-flight unit,
        writes a resumable checkpoint, leaves nothing running in its
        session, and exits 5; --resume then completes bit-identically."""
        files = _write_corpus(tmp_path)
        run_dir = str(tmp_path / "run")
        flags = ["--executor", "serial"]
        # Slow every barrier down so the signal reliably lands mid-run.
        plan = FaultPlan(
            [FaultSpec(stage="checkpoint", key="", kind="delay", count=-1,
                       seconds=0.4)]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "infer", "--no-cache",
             "--no-api"]
            + flags
            + ["--run-dir", run_dir, "--fail-report", "-"]
            + files,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_cli_env(plan.env()),
            cwd=REPO_ROOT,
            start_new_session=True,
        )
        journal = os.path.join(run_dir, JOURNAL_NAME)
        deadline = time.monotonic() + 120
        while not os.path.exists(journal):
            if time.monotonic() > deadline or proc.poll() is not None:
                stdout, stderr = proc.communicate()
                pytest.fail("run never started: %s %s" % (stdout, stderr))
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 5, (stdout, stderr)
        assert "interrupted: resumable checkpoint" in stdout
        assert "--resume" in stdout
        assert '"interrupted": true' in stdout  # the --fail-report payload
        snapshots = [
            name
            for name in os.listdir(run_dir)
            if name.startswith("snapshot-")
        ]
        assert snapshots, "no checkpoint written on SIGTERM"
        # Orphan reap: the whole session is gone.
        deadline = time.monotonic() + 30
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                pytest.fail("process group still alive after exit")
            time.sleep(0.1)
        resumed = _run_cli(
            flags + ["--resume", run_dir] + files, env=_cli_env()
        )
        assert resumed.returncode == 0, (resumed.stdout, resumed.stderr)
        assert _spec_section(resumed.stdout) == _cli_reference(
            files, *flags
        )
