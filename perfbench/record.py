"""Record the reference answers of every catalogue job.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each job that any seed can draw, checks it against the
seed-independent checks, and writes ``reference/<workload>.json``: the
job key mapped to a SHA-256 digest of the canonical answer (exit code
plus the machine JSON for a CLI job, the exact value for a library
call).  Run it only on a commit whose answers are known to be right;
the benchmark compares every later commit against these files.
"""

import json
import os
import sys
import tempfile

import worker
import workloads


def record(workload: str) -> int:
    jobs = workloads.catalogue(workload)
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as workdir:
        runner = workloads.Runner(jobs)
        runner.write_configs(workdir)
        checker = workloads.Checker()
        answers, bad = {}, 0
        for job in jobs:
            result = runner.run(job)
            problem = checker.invariant_failure(job, result)
            if problem is not None:
                print(f"{job.key}: {problem}", file=sys.stderr)
                bad += 1
                continue
            answers[job.key] = workloads.digest(runner.answer_text(job, result))
    if bad:
        print(f"{workload}: {bad} jobs failed their checks; nothing written",
              file=sys.stderr)
        return 1
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    path = os.path.join(workloads.REFERENCE_DIR, f"{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(answers)} answers -> {path}")
    return 0


if __name__ == "__main__":
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    sys.exit(max(record(name) for name in names))
