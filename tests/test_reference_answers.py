"""Every catalogue job of the four benchmark workloads, run through
perfbench/workloads.py, against the reference digests recorded in
perfbench/reference/.  A CLI job's digest covers its exit code and its
whole machine output, so any byte that changes fails here.  The test only
reads perfbench/; it writes nothing there."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
# import without leaving a bytecode cache under perfbench/
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402
sys.dont_write_bytecode = _write_bytecode


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_catalogue_matches_reference_digests(workload, tmp_path):
    jobs = workloads.catalogue(workload)
    reference = workloads.load_reference(workload)
    runner = workloads.Runner(jobs)
    runner.write_configs(str(tmp_path))
    mismatched = [job.key for job in jobs
                  if workloads.digest(runner.answer_text(job, runner.run(job)))
                  != reference[job.key]]
    assert mismatched == []
    assert len(jobs) == len(reference)
