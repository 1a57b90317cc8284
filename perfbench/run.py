"""The redpair benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The job list of workload W is made
from seed N (see workloads.py and README.md).  Every pass runs the whole
list once in a fresh single-threaded process, so nothing cached by one
pass helps the next; passes repeat while another one still ends within
S seconds.  Set-up (importing ``redpair`` and building the job list) is
timed in every pass process and in two more fresh processes before each
pass.

With ``--trace 0`` the end-to-end metrics are reported: ``wall_s`` (each
job's median time over the passes, summed over the job list),
``job_s.p50`` and ``job_s.p90`` (over every job of every pass),
``setup_s`` (the median set-up), ``peak_rss_mb`` (the median pass) and
``fail_ratio``.  With ``--trace 1`` untraced and traced passes alternate
(one to three pairs, as S allows), and the per-layer metrics of the
traced passes (medians) are reported with ``trace_overhead``.

Every answer is checked.  The last line of the output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES_PER_PASS = 2  # set-up processes started before each pass
MAX_TRACE_PAIRS = 3    # untraced and traced passes of a traced run
RUN_LIMIT_S = 165.0    # the whole run ends by then, whatever the program does
PASS_MARGIN_S = 30.0   # a pass starts no job later than this before the limit:
                       # room for one job's 20 s budget, set-up and checks

END_TO_END_UNITS = {"wall_s": "s", "job_s.p50": "s", "job_s.p90": "s",
                    "setup_s": "s", "peak_rss_mb": "MiB"}

LAYER_UNITS = {"calls": "count", "elements": "count", "self_s": "s"}
LAYER_RATIO = {"fundseries.candidate_hit_ratio", "trace_overhead"}


class RunFailed(Exception):
    """A child process failed; the run reports no result."""


def _child(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              capture_output=True, text=True, timeout=timeout,
                              env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"a {args[0]} process ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"a {args[0]} process exited with {proc.returncode}:\n"
                        + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _unit(name: str) -> str:
    if name in LAYER_RATIO:
        return "ratio"
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def measure(args, rundir: str) -> tuple[dict, list[str]]:
    started = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def one_pass(trace: bool) -> dict:
        deadline = remaining() - PASS_MARGIN_S
        flags = ["--trace"] if trace else []
        began = time.perf_counter()
        result = _child(["pass", *common, "--workdir", rundir,
                         "--deadline", f"{deadline:.1f}", *flags], remaining())
        result["span_s"] = time.perf_counter() - began
        return result

    passes, traced, setups = [], [], []
    _child(["setup", *common], remaining())     # warm-up: compiles the .pyc files
    measuring = time.perf_counter()

    def room_for(n: int) -> bool:
        """Whether n more passes, as long as the slowest so far, still end
        within --seconds of the start of measuring."""
        slowest = max(p["span_s"] for p in passes + traced)
        left = args.seconds - (time.perf_counter() - measuring)
        return left > n * slowest and remaining() > 2 * PASS_MARGIN_S

    if args.trace:
        # alternate, so that a slow spell of the machine hits both sides
        while not traced or (len(traced) < MAX_TRACE_PAIRS and room_for(2)):
            passes.append(one_pass(False))
            traced.append(one_pass(True))
    else:
        # set-up probes between the passes, so that both sample the whole run
        while not passes or room_for(1):
            setups += [_child(["setup", *common], remaining())["setup_s"]
                       for _ in range(SETUP_PROBES_PER_PASS)]
            passes.append(one_pass(False))
        setups += [p["setup_s"] for p in passes]

    attempted = sum(p["attempted"] for p in passes + traced)
    failed = sum(p["failed"] for p in passes + traced)
    lines = [f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
             f"of {passes[0]['attempted']} jobs"
             + (f", and {len(traced)} traced" if traced else "")]
    for p in passes + traced:
        lines += [f"  FAILED {reason}" for reason in p["failures"]]
    if args.trace:
        metrics = {name: statistics.median_low(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["trace_overhead"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(p["wall_s"] for p in passes) - 1)
        if traced[0]["absent"]:
            lines.append("  absent spans (reported as 0): " + ", ".join(traced[0]["absent"]))
        result = {name: {"value": value, "unit": _unit(name)}
                  for name, value in metrics.items()}
    else:
        job_s = [t for p in passes for t in p["job_s"]]
        values = {
            # each job's median over the passes, summed: a slow spell that
            # hits part of one pass does not move it
            "wall_s": sum(statistics.median(times)
                          for times in zip(*(p["job_s"] for p in passes))),
            "job_s.p50": statistics.median(job_s),
            "job_s.p90": statistics.quantiles(job_s, n=10, method="inclusive")[8],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        result = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                  for name, value in values.items()}
        notes = {"wall_s": f"sum of per-job medians over {len(passes)} passes",
                 "job_s.p50": f"{len(job_s)} samples",
                 "job_s.p90": f"{len(job_s)} samples, "
                              f"{sum(t > values['job_s.p90'] for t in job_s)} above",
                 "setup_s": f"median of {len(setups)} fresh processes",
                 "peak_rss_mb": f"median of {len(passes)} passes"}
        for name, value in values.items():
            lines.append(f"  {name:<12} {value:12.6f} {END_TO_END_UNITS[name]:<5} "
                         f"({notes[name]})")
        lines.append(f"  {'fail_ratio':<12} {failed / attempted:12.6f} ratio "
                     f"({failed} of {attempted} jobs)")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": result}
    return summary, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="redpair benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "redpair", "__init__.py")):
        print("no redpair sources under src/: run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        summary, lines = measure(args, rundir)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass    # another run is using it
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
