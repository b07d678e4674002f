"""Kill and rerun: the analysis cache is how a stopped run continues.

Every visit of a cached run is a pure function of its fingerprinted
inputs, and its outcome is in the content-addressed store as soon as it
is solved (DESIGN §11).  So, end to end:

* a cached run that dies after N solves and is started again replays
  exactly N visits and ends bit-identical — marginals included — to a
  clean run with no cache, under both schedules and both engines;
* SIGTERM/SIGINT (or a stop request) and an RSS reading over
  ``max_rss_mb`` stop a cached run between two visits (exit code 5),
  and rerunning the same command finishes it;
* a budget the run is already over before its first visit is refused
  once (exit 3), and a stop-and-rerun loop under a budget always ends,
  because every rerun solves at least one visit more than the last;
* a full disk degrades the cache to no-persist; the run still completes
  with the same answer.
"""

import errno
import io
import itertools
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import cli
from repro.cache import AnalysisCache
from repro.cache.manager import BoundCache
from repro.cache.store import ArtifactStore
from repro.core import AnekPipeline
from repro.core import infer as infer_module
from repro.core.infer import AnekInference, InferenceSettings
from repro.corpus.examples import FIGURE3_CLIENT
from repro.corpus.iterator_api import ITERATOR_API_SOURCE
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program
from repro.resilience import guard, shutdown
from repro.resilience.faults import (
    ENV_VAR,
    FaultPlan,
    FaultSpec,
    clear_fault_plan,
)
from repro.resilience.limits import MemoryBudgetError
from repro.resilience.shutdown import RunInterrupted

SOURCES = [ITERATOR_API_SOURCE, FIGURE3_CLIENT]

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear_fault_plan()
    shutdown.clear_shutdown()
    yield
    clear_fault_plan()
    shutdown.clear_shutdown()


class Killed(BaseException):
    """SIGKILL, in process: nothing after it runs, and no ``except
    Exception`` on its way out catches it."""


def run(cache_dir=None, executor="worklist", engine="compiled", **knobs):
    """One pipeline run over :data:`SOURCES`, cached when ``cache_dir``."""
    cache = None if cache_dir is None else AnalysisCache(str(cache_dir))
    settings = InferenceSettings(executor=executor, engine=engine, **knobs)
    return AnekPipeline(settings=settings, cache=cache).run_on_sources(
        SOURCES
    )


def answer(result):
    return result.canonical_json(include_marginals=True)


_CLEAN = {}


def clean(executor="worklist", engine="compiled"):
    """Memoized clean no-cache run per configuration."""
    key = (executor, engine)
    if key not in _CLEAN:
        _CLEAN[key] = run(None, executor, engine)
    return _CLEAN[key]


def kernel_solves(stats):
    return stats.builds + stats.reuses


def die_after(patch, solves):
    """Kill the run as it starts solve ``solves + 1``."""
    real = guard.guarded_solve
    done = {"solves": 0}

    def dying(*args, **kwargs):
        if done["solves"] == solves:
            raise Killed()
        done["solves"] += 1
        return real(*args, **kwargs)

    patch.setattr(guard, "guarded_solve", dying)


def killed_run(monkeypatch, cache_dir, solves, executor="worklist",
               engine="compiled"):
    with monkeypatch.context() as patch:
        die_after(patch, solves)
        with pytest.raises(Killed):
            run(cache_dir, executor, engine)


# ---------------------------------------------------------------------------
# In-process kill and rerun: bit-identity across schedules and engines
# ---------------------------------------------------------------------------


class TestCrashResumeMatrix:
    """A cached run killed after N solves, then started again, replays N
    visits and ends where a clean run with no cache ends."""

    @pytest.mark.parametrize("engine", ["compiled", "loopy"])
    @pytest.mark.parametrize("executor", ["worklist", "serial"])
    def test_bit_identity(self, tmp_path, monkeypatch, executor, engine):
        total = kernel_solves(clean(executor, engine).inference_stats)
        for solves in (1, total // 2, total - 1):
            cache_dir = tmp_path / ("killed-%d" % solves)
            killed_run(monkeypatch, cache_dir, solves, executor, engine)
            rerun = run(cache_dir, executor, engine)
            stats = rerun.inference_stats
            assert stats.replays == solves
            assert kernel_solves(stats) == total - solves
            assert answer(rerun) == answer(clean(executor, engine))

    @pytest.mark.parametrize("depth", [0, 1, 20, 41])
    def test_worklist_depth_sweep(self, tmp_path, monkeypatch, depth):
        """Kills between two worklist visits: before the first (only the
        front end is cached), early, mid pass 2, and before the last of
        the clean run's 42 visits."""
        assert clean().inference_stats.solves == 42
        real = AnekInference._visit
        seen = {"visits": 0, "solves": 0}

        def visit(inference, method_ref):
            if seen["visits"] == depth:
                raise Killed()
            seen["visits"] += 1
            outcome = real(inference, method_ref)
            seen["solves"] += not (outcome.skipped or outcome.replayed)
            return outcome

        with monkeypatch.context() as patch:
            patch.setattr(AnekInference, "_visit", visit)
            with pytest.raises(Killed):
                run(tmp_path)
        rerun = run(tmp_path)
        assert rerun.inference_stats.replays == seen["solves"]
        assert answer(rerun) == answer(clean())

    def test_resume_of_completed_run(self, tmp_path):
        """Rerunning a finished run is the same replay as continuing a
        killed one, with nothing left to solve: every solved visit
        replays, every skip repeats, no model is built."""
        for executor in ("worklist", "serial"):
            cache_dir = tmp_path / executor
            first = run(cache_dir, executor)
            rerun = run(cache_dir, executor)
            stats = rerun.inference_stats
            assert kernel_solves(stats) == 0
            assert stats.replays == kernel_solves(first.inference_stats)
            assert stats.replays + stats.skips == stats.solves
            assert answer(first) == answer(rerun) == answer(clean(executor))

    def test_corrupt_newest_entry_is_a_miss(self, tmp_path, monkeypatch):
        """A torn store entry (the store's write is atomic but not
        fsync'd, so power loss can leave one) is a miss, never a wrong
        answer: the rerun re-solves that visit and still matches."""
        written = []
        real_store = BoundCache.store_solve

        def recording(bound, key, boundary, deposits):
            written.append(key)
            return real_store(bound, key, boundary, deposits)

        with monkeypatch.context() as patch:
            patch.setattr(BoundCache, "store_solve", recording)
            killed_run(patch, tmp_path, 10)
        assert len(written) == 10
        store = ArtifactStore(str(tmp_path))
        with open(store._path(written[-1]), "r+b") as handle:
            handle.truncate(7)
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            rerun = run(tmp_path)
        assert rerun.inference_stats.replays == 9
        assert rerun.cache_stats.corrupt_entries == 1
        assert answer(rerun) == answer(clean())


# ---------------------------------------------------------------------------
# Stop requests (in process)
# ---------------------------------------------------------------------------


class TestGracefulShutdown:
    def _stop_after(self, patch, visits):
        calls = {"count": 0}

        def fake():
            calls["count"] += 1
            return calls["count"] > visits

        patch.setattr(infer_module, "shutdown_requested", fake)

    def test_interrupt_then_resume_bit_identical(self, tmp_path, monkeypatch):
        with monkeypatch.context() as patch:
            self._stop_after(patch, 5)
            pipeline = AnekPipeline(
                settings=InferenceSettings(),
                cache=AnalysisCache(str(tmp_path)),
            )
            with pytest.raises(RunInterrupted) as excinfo:
                pipeline.run_on_sources(SOURCES)
        failures = excinfo.value.failures
        assert failures.interrupted
        (record,) = [
            r for r in failures if r.disposition == "run-interrupted"
        ]
        assert (record.stage, record.error) == ("solve", "Interrupted")
        assert not failures.has_degradation
        rerun = run(tmp_path)
        # The stop came after the sixth visit; the worklist's first pass
        # builds and solves every method once, so all six were cached.
        assert rerun.inference_stats.replays == 6
        assert answer(rerun) == answer(clean())

    def test_stop_request_ignored_without_cache(self):
        """Without a cache a stop could not be continued, so the run
        never checks for one."""
        shutdown.request_shutdown()
        assert answer(run(None)) == answer(clean())


# ---------------------------------------------------------------------------
# Settings and engine identity
# ---------------------------------------------------------------------------


class TestResumeValidation:
    def test_settings_validation(self, tmp_path):
        for value in (-1, True, 2.5, "5"):
            with pytest.raises(ValueError, match="max_rss_mb must be"):
                InferenceSettings(max_rss_mb=value)
        settings = InferenceSettings(max_rss_mb=4096)
        program = resolve_program(
            [parse_compilation_unit(source) for source in SOURCES]
        )
        with pytest.raises(ValueError, match="needs a bound analysis cache"):
            AnekInference(program, settings=settings)
        AnekInference(
            program, settings=settings, cache=AnalysisCache(str(tmp_path))
        )
        for gone in ("run_dir", "resume", "checkpoint_every"):
            with pytest.raises(TypeError):
                InferenceSettings(**{gone: 1})

    def test_resume_under_other_engine_bit_identical(self, tmp_path,
                                                     monkeypatch):
        """Neither the engine nor the threshold is part of a visit's
        identity: a run killed under compiled at t = 0.5 is continued
        under loopy at t = 0.75 and ends with the clean marginals."""
        killed_run(monkeypatch, tmp_path, 12, engine="compiled")
        rerun = run(tmp_path, engine="loopy", threshold=0.75)
        assert rerun.inference_stats.replays == 12
        assert rerun.inference_stats.engine == "loopy"
        marginals = rerun.canonical_payload(include_marginals=True)
        assert marginals["marginals"] == clean().canonical_payload(
            include_marginals=True
        )["marginals"]


# ---------------------------------------------------------------------------
# The RSS budget
# ---------------------------------------------------------------------------


def fake_rss(patch, budget, new_solves):
    """RSS that starts under ``budget`` and goes over it once a run has
    cached ``new_solves`` new visits, each reading counting as one.
    Returns a function that restarts the count for the next run."""
    readings = {"count": 0}

    def current():
        # Reading 1 is the floor check; reading k + 1 follows the k-th
        # newly cached visit, and is over the budget from k = new_solves.
        readings["count"] += 1
        return budget - new_solves + readings["count"] - 0.5

    patch.setattr(infer_module, "current_rss_mb", current)
    return lambda: readings.update(count=0)


class TestMemoryBudget:
    @pytest.mark.parametrize("executor", ["worklist", "serial"])
    def test_stop_and_resume_loop_is_bit_identical(self, tmp_path,
                                                   monkeypatch, executor):
        """Each run stops after three newly cached visits (exit 5 at the
        CLI).  Each rerun replays strictly more than the last, so the
        loop ends, and it ends with the clean answer."""
        budget = 1000
        total = kernel_solves(clean(executor).inference_stats)
        replays = []
        real_run = AnekInference.run

        def counting(inference):
            try:
                return real_run(inference)
            finally:
                replays.append(inference.stats.replays)

        with monkeypatch.context() as patch:
            restart = fake_rss(patch, budget, new_solves=3)
            patch.setattr(AnekInference, "run", counting)
            for stops in itertools.count():
                assert stops <= total, "the budget never let the run end"
                restart()
                try:
                    result = run(tmp_path, executor, max_rss_mb=budget)
                except RunInterrupted as exc:
                    (record,) = exc.failures
                    assert (record.stage, record.error) == (
                        "resource",
                        "SoftMemoryBudget",
                    )
                    assert "over the %d MiB budget" % budget in str(exc)
                    continue
                break
        assert stops == total // 3
        assert replays == [3 * index for index in range(stops + 1)]
        assert answer(result) == answer(clean(executor))

    def test_budget_below_floor_runs_no_visit(self, tmp_path, monkeypatch):
        """Over the budget right after setup: refused once, before any
        visit; the parse and PFG artifacts stay cached."""
        with monkeypatch.context() as patch:
            patch.setattr(infer_module, "current_rss_mb", lambda: 50.0)
            cache = AnalysisCache(str(tmp_path))
            pipeline = AnekPipeline(
                settings=InferenceSettings(max_rss_mb=10), cache=cache
            )
            with pytest.raises(MemoryBudgetError) as excinfo:
                pipeline.run_on_sources(SOURCES)
        assert "50 MiB > 10 MiB" in str(excinfo.value)
        assert cache.stats.solve_hits + cache.stats.solve_misses == 0
        assert cache.stats.pfg_misses == 14
        rerun = run(tmp_path)
        assert rerun.cache_stats.pfg_hits == 14
        assert rerun.cache_stats.parse_hits == 2
        assert answer(rerun) == answer(clean())


# ---------------------------------------------------------------------------
# Persistence degradation: a full disk costs durability, not the answer
# ---------------------------------------------------------------------------


def _no_space(source, destination):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestPersistenceDegradation:
    def test_enospc_at_start_degrades_to_no_persist(self, tmp_path,
                                                    monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr("repro.cache.store.os.replace", _no_space)
            with pytest.warns(RuntimeWarning, match="not writable"):
                result = run(tmp_path)
        assert result.cache_stats.store_errors == 1
        assert answer(result) == answer(clean())
        rerun = run(tmp_path)
        assert rerun.inference_stats.replays == 0
        assert rerun.cache_stats.parse_hits == 0

    def test_disk_fills_mid_run(self, tmp_path, monkeypatch):
        """The store stops persisting after 20 writes (2 units, 14 PFGs,
        4 solves); the run completes unchanged, and a rerun replays the
        four solves that made it to disk."""
        real = os.replace
        writes = {"count": 0}

        def flaky(source, destination):
            writes["count"] += 1
            if writes["count"] > 20:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(source, destination)

        with monkeypatch.context() as patch:
            patch.setattr("repro.cache.store.os.replace", flaky)
            with pytest.warns(RuntimeWarning, match="not writable"):
                result = run(tmp_path)
        assert result.cache_stats.store_errors == 1
        assert answer(result) == answer(clean())
        rerun = run(tmp_path)
        assert rerun.inference_stats.replays == 4
        assert answer(rerun) == answer(clean())

    def test_cache_store_errors_are_counted(self, tmp_path, monkeypatch):
        """The analysis cache's write failures surface as a counted
        ``store_errors`` stat instead of warn-and-forget."""
        cache = AnalysisCache(cache_dir=str(tmp_path / "cache"))
        monkeypatch.setattr("repro.cache.store.os.replace", _no_space)
        with pytest.warns(RuntimeWarning, match="not writable"):
            cache.parse(FIGURE3_CLIENT)
        assert cache.store.store_errors == 1
        assert cache.stats.store_errors == 1
        assert "write error" in cache.stats.describe()

    def test_store_error_counter_on_raw_store(self, tmp_path, monkeypatch):
        store = ArtifactStore(str(tmp_path / "store"))
        monkeypatch.setattr("repro.cache.store.os.replace", _no_space)
        with pytest.warns(RuntimeWarning, match="not writable"):
            assert not store.save("ab" * 20, {"payload": 1})
        assert store.store_errors == 1
        # Disabled writes stop counting (one incident, one counter bump).
        assert not store.save("cd" * 20, {"payload": 2})
        assert store.store_errors == 1


# ---------------------------------------------------------------------------
# The CLI: real SIGKILL and SIGTERM, then the same command again
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


def _cli_argv(args):
    return [sys.executable, "-m", "repro.cli", "infer", "--no-api"] + args


def _run_cli(args, env=None, timeout=300):
    return subprocess.run(
        _cli_argv(args),
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
        _cli_argv(args),
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
    the user-visible result, shared verbatim by clean and rerun runs."""
    start = stdout.index("Inferred specifications:")
    end = stdout.index("\n", stdout.index("PLURAL warnings:"))
    return stdout[start:end]


_CLI_REFS = {}


def _cli_reference(files, *flags):
    if flags not in _CLI_REFS:
        completed = _run_cli(["--no-cache"] + list(flags) + files)
        assert completed.returncode == 0, completed.stderr
        _CLI_REFS[flags] = _spec_section(completed.stdout)
    return _CLI_REFS[flags]


# The kill points, as (id, extra CLI flags, solves before the kill).
KILL_POINTS = [
    ("pass1-worklist", [], 5),
    ("between-scc-barriers", ["--executor", "serial"], 20),
]


class TestCliSigkillChaos:
    @pytest.mark.parametrize(
        "flags,solves",
        [(flags, solves) for _, flags, solves in KILL_POINTS],
        ids=[point_id for point_id, _, _ in KILL_POINTS],
    )
    def test_sigkill_then_resume(self, tmp_path, flags, solves):
        files = _write_corpus(tmp_path)
        args = flags + ["--cache-dir", str(tmp_path / "cache")] + files
        plan = FaultPlan(
            [FaultSpec(stage="solve", key="", kind="killproc", skip=solves)]
        )
        returncode = _run_cli_expecting_kill(args, env=_cli_env(plan.env()))
        assert returncode == -signal.SIGKILL
        # The rerun runs in a clean environment — no fault plan re-arms.
        rerun = _run_cli(args)
        assert rerun.returncode == 0, (rerun.stdout, rerun.stderr)
        assert "%d replayed" % solves in rerun.stdout
        assert _spec_section(rerun.stdout) == _cli_reference(files, *flags)

    def test_resume_nonexistent_dir_is_usage_error(self, tmp_path):
        files = _write_corpus(tmp_path)
        completed = _run_cli(["--resume", str(tmp_path / "absent")] + files)
        assert completed.returncode == 3
        assert "unrecognized arguments: --resume" in completed.stderr


class TestCliMemoryBudget:
    def test_budget_exits_five_and_resumes_without_it(self, tmp_path,
                                                      monkeypatch):
        files = _write_corpus(tmp_path)
        argv = ["infer", "--no-api", "--cache-dir", str(tmp_path / "cache")]
        out = io.StringIO()
        with monkeypatch.context() as patch:
            fake_rss(patch, 1000, new_solves=4)
            code = cli.main(argv + ["--max-rss-mb", "1000"] + files, out)
        assert code == 5, out.getvalue()
        assert "rerun the same command to continue" in out.getvalue()
        assert "SoftMemoryBudget" in out.getvalue()
        assert "Inferred specifications:" not in out.getvalue()
        out = io.StringIO()
        assert cli.main(argv + files, out) == 0
        assert "4 replayed" in out.getvalue()
        assert _spec_section(out.getvalue()) == _cli_reference(files)

    def test_budget_below_floor_exits_three(self, tmp_path, capsys):
        files = _write_corpus(tmp_path)
        code = cli.main(
            ["infer", "--no-api", "--cache-dir", str(tmp_path / "cache"),
             "--max-rss-mb", "1"] + files,
            io.StringIO(),
        )
        assert code == 3
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("repro infer: error: max-rss-mb limit")
        assert "MiB > 1 MiB (RSS after setup, before the first visit)" in line


def _start_cli_after(args, plan, marker):
    """Start ``repro infer`` under a fault plan and return once the
    plan's marker file exists, i.e. once the run reached that fault."""
    proc = subprocess.Popen(
        _cli_argv(args),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_cli_env(plan.env()),
        cwd=REPO_ROOT,
        start_new_session=True,
    )
    deadline = time.monotonic() + 120
    while not marker.exists():
        if time.monotonic() > deadline or proc.poll() is not None:
            stdout, stderr = proc.communicate()
            pytest.fail("run never reached the fault: %s %s"
                        % (stdout, stderr))
        time.sleep(0.05)
    return proc


class TestCliSigterm:
    def test_sigterm_stops_between_visits_then_rerun_finishes(self,
                                                              tmp_path):
        """SIGTERM mid-run: the process finishes the visit in flight,
        exits 5 with the rerun hint, and leaves nothing running in its
        session; the same command then completes with the clean specs."""
        files = _write_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        args = ["--executor", "serial", "--cache-dir", str(cache_dir)] + files
        # Slow every solve down so the signal reliably lands mid-run; the
        # first solve's marker says the visit loop is running.
        marker = tmp_path / "first-solve"
        plan = FaultPlan(
            [
                FaultSpec(stage="solve", key="", kind="delay", count=1,
                          seconds=0.4, marker=str(marker)),
                FaultSpec(stage="solve", key="", kind="delay", count=-1,
                          seconds=0.4),
            ]
        )
        proc = _start_cli_after(args + ["--fail-report", "-"], plan, marker)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 5, (stdout, stderr)
        assert "rerun the same command to continue" in stdout
        assert '"interrupted": true' in stdout  # the --fail-report payload
        deadline = time.monotonic() + 30
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                pytest.fail("process group still alive after exit")
            time.sleep(0.1)
        rerun = _run_cli(args)
        assert rerun.returncode == 0, (rerun.stdout, rerun.stderr)
        assert _spec_section(rerun.stdout) == _cli_reference(
            files, "--executor", "serial"
        )

    def test_sigterm_after_the_visit_loop_acts_at_once(self, tmp_path):
        """Only the visit loop waits for a signal: SIGTERM while the
        checker runs ends the process by SIGTERM, as without a cache,
        instead of letting the run finish and exit 0."""
        files = _write_corpus(tmp_path)
        args = ["--cache-dir", str(tmp_path / "cache")] + files
        marker = tmp_path / "check"
        plan = FaultPlan(
            [FaultSpec(stage="check", key="", kind="delay", count=1,
                       seconds=3.0, marker=str(marker))]
        )
        proc = _start_cli_after(args, plan, marker)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == -signal.SIGTERM, (stdout, stderr)
        assert "Inferred specifications:" not in stdout
