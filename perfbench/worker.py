"""One fresh benchmark process: set up a workload, and optionally run it.

    python3 perfbench/worker.py setup --workload W --seed N
    python3 perfbench/worker.py pass  --workload W --seed N --workdir DIR
                                      [--trace] [--deadline S]

``setup`` imports ``redpair`` from the checkout's ``src/`` and builds the
job list and its inputs, then reports how long that took.  ``pass``
does the same set-up, writes the config files under DIR, runs every job
once on this one thread, checks every answer, and prints one JSON line
with the timings and failures.
With ``--trace`` the jobs run under the span tracer and the per-layer
metrics come back too.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports redpair from src/)

# A job that runs longer than this is stopped and counted as failed.  The
# longest job of any workload takes about 2 s on a 2-CPU machine.
JOB_BUDGET_S = 20.0


class JobOverrun(BaseException):
    """Raised inside a job by the budget alarm.  A BaseException, so that
    no handler inside the library can swallow it."""


def _alarm(signum, frame):
    raise JobOverrun()


def set_up(workload: str, seed: int):
    """The job list and its inputs, and the time this process took to get
    them.  Writing the config files is left out: it times the disk."""
    jobs = workloads.generate(workload, seed)
    runner = workloads.Runner(jobs)
    return jobs, runner, time.perf_counter() - _START


def run_jobs(jobs, runner, deadline: float, tracer=None):
    """Run every job once, timing each; the pass stops starting jobs at
    the deadline.  Returns (wall time, per-job seconds, raw results)."""
    times, results = [], []
    signal.signal(signal.SIGALRM, _alarm)
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for job in jobs:
            if time.perf_counter() - start > deadline:
                results.append((None, "not started: the pass ran out of time"))
                continue
            signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
            began = time.perf_counter()
            try:
                results.append((runner.run(job), None))
            except JobOverrun:
                results.append((None, f"stopped at the {JOB_BUDGET_S} s job budget"))
            except Exception as exc:  # a job that raises is a failed job
                results.append((None, f"raised {type(exc).__name__}: {exc}"))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                times.append(time.perf_counter() - began)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, times, results


def check(workload: str, jobs, runner, results) -> tuple[list[str], str]:
    """Failure reasons, one per failed job, and a digest of all answers."""
    reference = workloads.load_reference(workload)
    checker = workloads.Checker()
    failures, answers = [], []
    for job, (result, error) in zip(jobs, results):
        answer = "-"
        if error is None:
            try:
                error = checker.invariant_failure(job, result)
                answer = workloads.digest(runner.answer_text(job, result))
            except (LookupError, TypeError, ValueError) as exc:
                error = f"answer could not be read: {type(exc).__name__}: {exc}"
        if error is None:
            expected = reference.get(job.key)
            if expected is None:
                error = "no reference answer for this job"
            elif answer != expected:
                error = "answer differs from the reference"
        if error is not None:
            failures.append(f"{job.key}: {error}")
        answers.append(answer)
    return failures, workloads.digest(" ".join(answers))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", help="where a pass writes its config files")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--deadline", type=float, default=120.0)
    args = parser.parse_args(argv)
    if args.mode == "pass" and args.workdir is None:
        parser.error("a pass needs --workdir")

    jobs, runner, setup_s = set_up(args.workload, args.seed)
    out = {"setup_s": setup_s}
    if args.mode == "pass":
        jobdir = tempfile.mkdtemp(prefix="pass-", dir=args.workdir)
        try:
            runner.write_configs(jobdir)
            tracer = None
            if args.trace:
                from tracer import Tracer
                tracer = Tracer()
            wall, times, results = run_jobs(jobs, runner, args.deadline, tracer)
        finally:
            shutil.rmtree(jobdir, ignore_errors=True)
        failures, answers = check(args.workload, jobs, runner, results)
        out.update(
            answers=answers,
            wall_s=wall,
            job_s=times,
            attempted=len(jobs),
            failed=len(failures),
            failures=failures[:5],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer is not None:
            out.update(layers=tracer.metrics(), absent=tracer.absent)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
