"""Tests for the deterministic experiment fan-out: ``fanout`` itself, the
byte-identity of parallel vs serial runs at every level (run_all, figure
sweeps, random-baseline trials, multi-seed stats), fault tolerance
(retries, worker crashes, hangs, checkpoint/resume), and the CLI flags."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.random_baseline import solve_random_baseline
from repro.exceptions import TaskError, TaskTimeoutError, ValidationError
from repro.experiments.parallel import fanout, fanout_report, resolve_jobs
from repro.experiments.runner import run_all, run_all_timed, run_experiment
from repro.util.resilience import RetryPolicy
from repro.util.serialization import TaskJournal

#: Fast schedule for fault-tolerance tests (jitter off for speed).
FAST_RETRY = RetryPolicy(
    attempts=3, base_delay=0.01, factor=1.0, max_delay=0.01, jitter=0.0
)


def _square(x):
    return x * x


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd: {x}")
    return x


class TestFanout:
    def test_serial_map(self):
        assert fanout(_square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_parallel_preserves_order(self):
        assert fanout(_square, list(range(10)), jobs=3) == [
            x * x for x in range(10)
        ]

    def test_empty_tasks(self):
        assert fanout(_square, [], jobs=4) == []

    def test_single_task_stays_in_process(self):
        assert fanout(_square, [7], jobs=4) == [49]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValidationError):
            fanout(_square, [1], jobs=0)
        with pytest.raises(ValidationError):
            resolve_jobs(-2)

    def test_worker_errors_propagate_as_task_error(self):
        """A raising worker surfaces as a TaskError naming the task, not an
        anonymous pool exception."""
        with pytest.raises(TaskError) as excinfo:
            fanout(_fail_on_odd, [2, 3], jobs=2)
        error = excinfo.value
        assert error.task == 3
        assert error.attempts == 1
        assert "odd: 3" in (error.cause_traceback or "")

    def test_serial_worker_errors_also_wrapped(self):
        with pytest.raises(TaskError) as excinfo:
            fanout(_fail_on_odd, [2, 3], jobs=1)
        assert excinfo.value.task == 3


def _flaky_until_marked(task):
    """Fails until its sentinel file exists — i.e. exactly once per task."""
    sentinel, value = task
    path = Path(sentinel)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError(f"transient failure for {value}")
    return value * 10


def _crash_until_marked(task):
    """Kills the worker process outright on the first attempt."""
    sentinel, value = task
    path = Path(sentinel)
    if not path.exists():
        path.write_text("attempted")
        os._exit(17)  # hard crash: no exception, no cleanup
    return value * 10


def _hang_on_negative(value):
    if value < 0:
        time.sleep(60)
    return value * 10


def _double(value):
    return value * 2


class TestFanoutFaultTolerance:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failure_retried_to_success(self, tmp_path, jobs):
        tasks = [(str(tmp_path / f"s{i}"), i) for i in range(4)]
        report = fanout_report(
            _flaky_until_marked, tasks, jobs=jobs, policy=FAST_RETRY
        )
        assert report.ok
        assert report.results == [0, 10, 20, 30]
        assert report.retried == 4  # each task failed exactly once

    def test_exhausted_budget_collected_per_task(self):
        report = fanout_report(
            _fail_on_odd, [1, 2, 3, 4], jobs=2,
            policy=RetryPolicy(attempts=2, base_delay=0.0, jitter=0.0),
        )
        assert not report.ok
        assert report.results == [None, 2, None, 4]  # completed work kept
        assert [e.task for e in report.failures] == [1, 3]
        assert all(e.attempts == 2 for e in report.failures)
        with pytest.raises(TaskError):
            report.raise_on_failure()

    def test_worker_crash_retried_on_fresh_pool(self, tmp_path):
        """os._exit kills the worker (BrokenProcessPool); the task must be
        retried on a rebuilt pool and succeed, not abort the campaign."""
        tasks = [(str(tmp_path / f"c{i}"), i) for i in range(3)]
        report = fanout_report(
            _crash_until_marked, tasks, jobs=2, policy=FAST_RETRY
        )
        assert report.ok
        assert report.results == [0, 10, 20]

    def test_hung_worker_times_out_and_fails_cleanly(self):
        report = fanout_report(
            _hang_on_negative, [1, -1, 2, 3], jobs=2,
            policy=RetryPolicy(attempts=1),
            task_timeout=1.0,
        )
        assert [e.task for e in report.failures] == [-1]
        assert isinstance(report.failures[0], TaskTimeoutError)
        # Innocent siblings sharing the pool still completed.
        assert report.results == [10, None, 20, 30]

    def test_serial_timeout(self):
        report = fanout_report(
            _hang_on_negative, [-1, 5], jobs=1,
            policy=RetryPolicy(attempts=1),
            task_timeout=0.2,
        )
        assert isinstance(report.failures[0], TaskTimeoutError)
        assert report.results == [None, 50]

    def test_journal_requires_key_fn(self, tmp_path):
        with pytest.raises(ValidationError):
            fanout_report(
                _double, [1], journal=TaskJournal(tmp_path)
            )


#: A campaign run under the start method named by its first argument:
#: ``square`` prints a small fan-out's results, ``park`` runs two tasks
#: that record their worker pid in the given files and then park.
_CAMPAIGN = """
import multiprocessing, os, sys, time
from repro.experiments.parallel import fanout

def square(x):
    return x * x

def park(path):
    with open(path + ".tmp", "w") as handle:
        handle.write(str(os.getpid()))
    os.replace(path + ".tmp", path)
    time.sleep(60)

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    if sys.argv[2] == "square":
        print(fanout(square, list(range(6)), jobs=2))
    else:
        fanout(park, sys.argv[3:], jobs=2)
"""

START_METHODS = multiprocessing.get_all_start_methods()


def _campaign(tmp_path, *args, **kwargs):
    """Start :data:`_CAMPAIGN` in a fresh interpreter with *args*."""
    script = tmp_path / "campaign.py"
    script.write_text(_CAMPAIGN)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[2] / "src"
    ) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, str(script), *args], env=env, **kwargs
    )


def _alive(pid):
    """Whether *pid* is a live process (a zombie counts as exited)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.parametrize("method", START_METHODS)
class TestStartMethods:
    def test_fanout_completes(self, tmp_path, method):
        """Pool workers must keep running under every start method: under
        ``forkserver`` their parent is the fork server, not the process
        that made the pool, and that must not read as a dead parent."""
        campaign = _campaign(
            tmp_path, method, "square",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        out, err = campaign.communicate(timeout=120)
        assert campaign.returncode == 0, err
        assert out.strip() == str([x * x for x in range(6)])

    @pytest.mark.skipif(os.name != "posix", reason="needs SIGKILL")
    def test_workers_exit_when_parent_is_killed(self, tmp_path, method):
        """A SIGKILLed parent never closes its pool's task queue; the
        workers must notice on their own and exit, not linger forever."""
        pid_files = [tmp_path / "a.pid", tmp_path / "b.pid"]
        parent = _campaign(
            tmp_path, method, "park", *map(str, pid_files),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not all(path.exists() for path in pid_files):
                assert parent.poll() is None, "campaign exited early"
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.02)
            workers = [int(path.read_text()) for path in pid_files]
            parent.send_signal(signal.SIGKILL)
            parent.wait(timeout=60)
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait()
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and any(map(_alive, workers)):
                time.sleep(0.05)
            assert not any(map(_alive, workers))
        finally:
            for pid in filter(_alive, workers):
                os.kill(pid, signal.SIGKILL)


class TestFanoutJournal:
    def test_results_checkpointed_as_they_complete(self, tmp_path):
        journal = TaskJournal(tmp_path)
        report = fanout_report(
            _double, [1, 2, 3], jobs=1, journal=journal,
            key_fn=lambda t: ("double", t),
        )
        assert report.results == [2, 4, 6]
        assert len(journal) == 3
        assert journal.load(("double", 2)) == 4

    def test_journaled_tasks_restored_not_rerun(self, tmp_path):
        journal = TaskJournal(tmp_path / "ckpt")
        journal.put(("id", 2), "precomputed")
        report = fanout_report(
            _double, [1, 2, 3], jobs=1, journal=journal,
            key_fn=lambda t: ("id", t),
        )
        # Task 2 came from the journal verbatim; the others ran.
        assert report.results == [2, "precomputed", 6]
        assert report.restored == 1

    def test_failed_run_keeps_completed_checkpoints_for_resume(
        self, tmp_path
    ):
        journal = TaskJournal(tmp_path)
        first = fanout_report(
            _fail_on_odd, [2, 3, 4], jobs=1,
            journal=journal, key_fn=lambda t: t,
        )
        assert [e.task for e in first.failures] == [3]
        assert len(journal) == 2  # 2 and 4 checkpointed despite the failure
        # Resume with a fixed worker: only the failed task runs.
        second = fanout_report(
            _double, [2, 3, 4], jobs=1,
            journal=journal, key_fn=lambda t: t,
        )
        assert second.ok
        assert second.restored == 2
        assert second.results == [2, 6, 4]  # restored values untouched

    def test_encode_decode_round_trip(self, tmp_path):
        journal = TaskJournal(tmp_path)
        kwargs = dict(
            journal=journal,
            key_fn=lambda t: t,
            encode=lambda result: {"wrapped": result},
            decode=lambda payload: payload["wrapped"],
        )
        fanout_report(_double, [5], jobs=1, **kwargs)
        resumed = fanout_report(_double, [5], jobs=1, **kwargs)
        assert resumed.restored == 1
        assert resumed.results == [10]


def _result_bytes(results):
    return json.dumps([r.to_json() for r in results], sort_keys=True)


class TestByteIdenticalRuns:
    # A small but representative subset keeps this fast: a ratio table
    # (per-p_t columns), fig1 (random-baseline trials) and fig2 (per-cell
    # sweep with workload rebuild in workers).
    NAMES = ["table1", "fig1", "fig2"]

    def test_run_all_jobs_matches_serial(self):
        serial = run_all(scale="quick", seed=3, names=self.NAMES, jobs=1)
        parallel = run_all(scale="quick", seed=3, names=self.NAMES, jobs=2)
        assert _result_bytes(serial) == _result_bytes(parallel)

    def test_inner_jobs_match_serial(self):
        """Per-experiment fan-out (sweep cells / trials) is also inert."""
        for name in self.NAMES:
            a = run_experiment(name, scale="quick", seed=5, jobs=1)
            b = run_experiment(name, scale="quick", seed=5, jobs=2)
            assert _result_bytes([a]) == _result_bytes([b])

    def test_run_all_timed_reports_durations(self):
        timed = run_all_timed(scale="quick", seed=1, names=["table1"])
        assert len(timed) == 1
        result, elapsed = timed[0]
        assert result.name == "table1"
        assert elapsed > 0


class TestRandomBaselineJobs:
    def test_jobs_identical_to_serial(self, tiny_instance):
        serial = solve_random_baseline(tiny_instance, seed=9, trials=40)
        parallel = solve_random_baseline(
            tiny_instance, seed=9, trials=40, jobs=2
        )
        assert serial.edges == parallel.edges
        assert serial.sigma == parallel.sigma
        assert serial.trace == parallel.trace

    def test_trial_prefix_property(self, tiny_instance):
        """Per-trial seed spawning: a longer run replays the shorter run's
        trials exactly, then continues."""
        short = solve_random_baseline(tiny_instance, seed=11, trials=10)
        long = solve_random_baseline(tiny_instance, seed=11, trials=25)
        assert long.trace[:10] == short.trace

    def test_custom_sigma_falls_back_to_serial(self, tiny_instance):
        from repro.core.evaluator import SigmaEvaluator

        sigma = SigmaEvaluator(tiny_instance)
        result = solve_random_baseline(
            tiny_instance, seed=13, trials=10, sigma=sigma, jobs=4
        )
        reference = solve_random_baseline(
            tiny_instance, seed=13, trials=10
        )
        assert result.sigma == reference.sigma
        assert result.edges == reference.edges


class TestRunWithSeedsJobs:
    def test_jobs_identical_aggregate(self):
        from repro.experiments.stats import run_with_seeds

        serial = run_with_seeds("table1", seeds=[1, 2], scale="quick")
        parallel = run_with_seeds(
            "table1", seeds=[1, 2], scale="quick", jobs=2
        )
        assert _result_bytes([serial]) == _result_bytes([parallel])


class TestCliJobs:
    def test_run_all_with_jobs_prints_speedup_summary(self, capsys):
        code = main(
            [
                "run",
                "table1",
                "fig1",
                "--scale",
                "quick",
                "--jobs",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "finished in" in out
        assert "serial-equivalent" in out and "speedup" in out

    def test_single_experiment_with_jobs(self, capsys):
        code = main(
            ["run", "table1", "--scale", "quick", "--jobs", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[table1 finished in" in out
