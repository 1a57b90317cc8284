"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_benchmark.py

The traced determinism test starts two traced passes per workload and
takes about a minute on a 2-CPU machine.
"""

import json
import os
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on the path)
import workloads  # noqa: E402

COUNTS = ("calls", "elements", "witness_size", "candidate_hit_ratio")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_job_list(workload):
    first = workloads.generate(workload, 3)
    assert first == workloads.generate(workload, 3)
    assert first != workloads.generate(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_catalogue_job_has_a_reference(workload):
    keys = {job.key for job in workloads.catalogue(workload)}
    assert keys == set(workloads.load_reference(workload))


def _traced_pass(workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as workdir:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "pass", "--trace",
             "--workload", workload, "--seed", str(seed), "--workdir", workdir],
            capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_repeat_answers_and_counts(workload):
    first, second = _traced_pass(workload, 5), _traced_pass(workload, 5)
    assert first["failed"] == 0, first["failures"]
    assert first["answers"] == second["answers"]
    counts = {name for name in first["layers"] if name.endswith(COUNTS)}
    assert {n: first["layers"][n] for n in counts} == \
        {n: second["layers"][n] for n in counts}
    assert first["absent"] == []


def test_a_removed_name_is_reported_absent():
    targets = tracer.TARGETS + (
        tracer.Target("fundseries.gone", "fundseries", "no_such_function"),
        tracer.Target("genericity.gone", "genericity", "NoSuchClass.method"),
    )
    t = tracer.Tracer(targets)
    t.install()
    t.uninstall()
    assert t.absent == ["fundseries.gone", "genericity.gone"]


def test_uninstall_restores_every_binding():
    import redpair
    from redpair import cli, fundseries, reductive

    before = (cli.ktype_table, fundseries.ktype_table, redpair.ktype_table,
              vars(reductive.ReductivePair)["t_pair"])
    t = tracer.Tracer()
    t.install()
    assert cli.ktype_table is not before[0]
    assert cli.ktype_table is fundseries.ktype_table is redpair.ktype_table
    t.uninstall()
    assert (cli.ktype_table, fundseries.ktype_table, redpair.ktype_table,
            vars(reductive.ReductivePair)["t_pair"]) == before


def test_checks_catch_wrong_answers():
    checker = workloads.Checker()
    jobs = {job.key: job for job in workloads.catalogue("genericity-sweep")}
    job = next(j for j in jobs.values() if j.meta[1] == "B4")
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as workdir:
        runner = workloads.Runner([job])
        runner.write_configs(workdir)
        code, stdout = runner.run(job)
    assert checker.invariant_failure(job, (code, stdout)) is None
    doc = json.loads(stdout)
    doc["genericity"]["holds"] = not doc["genericity"]["holds"]
    assert checker.invariant_failure(job, (code, json.dumps(doc))) is not None
    assert checker.invariant_failure(job, (3, "")) is not None

    a2 = next(j for j in workloads.catalogue("point-queries")
              if j.meta[0][:2] == ("cartan", "A2"))
    x = a2.meta[1]
    assert checker.invariant_failure(a2, min(x) + 1) is None
    assert checker.invariant_failure(a2, min(x) + 2) is not None
