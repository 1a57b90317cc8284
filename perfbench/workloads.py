"""Seeded job lists for the four benchmark workloads, and the checks of
their answers.

Each workload is a fixed list of *slots*.  A slot holds a few
alternative jobs that do the same kind and amount of work: mark vectors
with the same multiset of restricted root values, inducing weights that
translate a partition count, diagram-automorphic images, or inducing
weights whose tables cost about the same.  A seed picks one alternative
per slot and shuffles the job order, so every seed runs different inputs
while the work per run stays close to constant; that is what lets runs
on different seeds be compared against one bound.  The union of all alternatives is the
*catalogue*; ``record.py`` stores a reference answer for every catalogue
job, so the answers of any seed are checked exactly.

Only public names of ``redpair`` that the roadmap keeps are used here.
Levi chambers are resolved only through CLI configs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import redpair
from redpair import cli

WORKLOADS = ("series-tables", "point-queries", "genericity-sweep", "structure")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


@dataclass(frozen=True)
class Job:
    """One CLI invocation (``kind == "cli"``) or one library call.

    ``key`` names the job's inputs canonically; it indexes the reference
    answers.  ``meta`` carries what the seed-independent checks need.
    """

    key: str
    kind: str                  # "cli" | "euler" | "weyl"
    config: str = ""           # CLI config text
    expect: int = 0            # expected CLI exit code
    meta: tuple = ()


def _cli_job(lines: list[str], expect: int = 0, meta: tuple = ()) -> Job:
    config = "".join(line + "\n" for line in lines)
    return Job(key="cli|" + "|".join(lines), kind="cli", config=config,
               expect=expect, meta=meta)


def _vec(values) -> str:
    return "[" + ", ".join(str(v) for v in values) + "]"


# ---------------------------------------------------------------------------
# series-tables: CLI fundseries/verify jobs.  Each alternative is
# (nu, cutoff) with cutoff = minimal shifted norm + the slot's offset;
# the minimal norms were read off this library's own tables.  Only
# inducing weights whose verify flags all hold are offered, so a verify
# job is checked by its flags on any seed.

_A2P = {  # A2 principal, nu -> minimal shifted norm
    -3: Fraction(25, 8), -2: Fraction(9, 2), -1: Fraction(49, 8), 0: Fraction(8),
    1: Fraction(81, 8), 2: Fraction(25, 2), 3: Fraction(121, 8), 4: Fraction(18),
}
_B2P = {
    -6: Fraction(16, 5), -5: Fraction(81, 20), -4: Fraction(5), -3: Fraction(121, 20),
    -2: Fraction(36, 5), -1: Fraction(169, 20), 0: Fraction(49, 5), 1: Fraction(45, 4),
    2: Fraction(64, 5), 3: Fraction(289, 20), 4: Fraction(81, 5),
}
_A3P = {
    -8: Fraction(36, 5), -7: Fraction(169, 20), -6: Fraction(49, 5), -5: Fraction(45, 4),
    -4: Fraction(64, 5), -3: Fraction(289, 20), -2: Fraction(81, 5), -1: Fraction(361, 20),
    0: Fraction(20), 1: Fraction(441, 20), 2: Fraction(121, 5), 3: Fraction(529, 20),
    4: Fraction(144, 5),
}
_A3S = {  # A3 with marks [1, 0, 1]
    -2: Fraction(8), -1: Fraction(25, 2), 0: Fraction(18), 1: Fraction(49, 2),
    2: Fraction(32), 3: Fraction(81, 2), 4: Fraction(50),
}
_A2L1 = {  # A2 Levi {1}, nu in fundamental coordinates
    (0, 0): Fraction(8), (0, 1): Fraction(38, 3), (0, 2): Fraction(56, 3),
    (1, 0): Fraction(38, 3), (1, 1): Fraction(18), (1, 2): Fraction(74, 3),
    (2, 0): Fraction(56, 3), (2, 1): Fraction(74, 3), (2, 2): Fraction(32),
}
_B2L1 = {(0, 0): Fraction(10), (0, 1): Fraction(29, 2), (0, 2): Fraction(20)}
_B2L2 = {(0, 0): Fraction(10), (0, 1): Fraction(29, 2), (1, 1): Fraction(45, 2)}


def _series_sl2(lie: str, marks, minimum: dict, offset: int, command: str,
                nus=None) -> list[Job]:
    jobs = []
    for nu in (nus if nus is not None else sorted(minimum)):
        cutoff = minimum[nu] + offset
        lines = [f"lie_type = {lie}", "k = sl2", f"labels = {_vec(marks)}",
                 f"command = {command}", f"nu = {nu}", f"cutoff = {cutoff}"]
        meta = ("a2-table", cutoff) if (lie, tuple(marks), nu) == ("A2", (2, 2), -3) else ()
        jobs.append(_cli_job(lines, meta=(command,) + meta))
    return jobs


def _series_levi(lie: str, nodes, minimum: dict, offset: int, command: str,
                 nus=None) -> list[Job]:
    jobs = []
    for nu in (nus if nus is not None else sorted(minimum)):
        lines = [f"lie_type = {lie}", "k = levi", f"nodes = {_vec(nodes)}",
                 f"command = {command}", "nu_basis = fundamental",
                 f"nu = {_vec(nu)}", f"cutoff = {minimum[nu] + offset}"]
        jobs.append(_cli_job(lines, meta=(command,)))
    return jobs


def _series_slots() -> list[list[Job]]:
    """Cost groups, cheapest first.  The median job lies in the middle of
    a block of 24 near-equal jobs (16-19 ms on a 2-CPU machine) and the
    90th percentile inside a block of 8 (84-94 ms), so neither sits on
    the edge between two kinds of job; the inducing weights offered in a
    slot cost within a few per cent of each other."""
    fund, verify = "fundseries", "verify"
    slots = [
        # the README table, fixed: its entries are the A2 check below
        [_cli_job(["lie_type = A2", "k = sl2", "labels = [2, 2]",
                   "command = fundseries", "nu = -3", "cutoff = 169/8"],
                  meta=("fundseries", "a2-table", Fraction(169, 8)))],
    ]
    # 14 jobs of about 6-13 ms: rank-one tables of A2 and A3 with marks [1, 0, 1]
    for offset, command in ((10, fund), (20, verify), (30, fund), (40, verify),
                            (20, fund), (30, verify)):
        slots.append(_series_sl2("A2", (2, 2), _A2P, offset, command))
    for offset, command in ((10, fund), (20, verify), (30, fund), (10, verify),
                            (20, fund), (30, verify), (10, fund)):
        slots.append(_series_sl2("A3", (1, 0, 1), _A3S, offset, command))
    # the median block, 24 jobs
    for command in (fund, verify) * 8:
        slots.append(_series_sl2("B2", (2, 2), _B2P, 10, command, nus=(-6, -5, -4)))
    for _ in range(8):
        slots.append(_series_levi("A2", (1,), _A2L1, 10, fund, nus=((0, 0), (0, 1))))
    # 4 jobs of about 25-60 ms between the blocks
    slots.append(_series_sl2("A3", (2, 2, 2), _A3P, 10, fund, nus=(-8, -7, -6)))
    slots.append(_series_sl2("A3", (2, 2, 2), _A3P, 20, verify, nus=(-2, -1)))
    slots.append(_series_sl2("B2", (2, 2), _B2P, 20, fund, nus=(1, 2)))
    slots.append(_series_levi("B2", (2,), _B2L2, 10, verify, nus=((0, 0),)))
    # the 90th-percentile block, 8 rank-two Levi tables
    for command in (fund, verify) * 3:
        slots.append(_series_levi("B2", (1,), _B2L1, 10, command, nus=((0, 0), (0, 1))))
    for command in (fund, verify):
        slots.append(_series_levi("B2", (2,), _B2L2, 10, command, nus=((0, 1),)))
    # 0.5-1 s each, fixed: the candidate walk dominates these tables
    slots.append(_series_sl2("G2", (2, 2), {-7: Fraction(625, 56)}, 10, fund))
    slots.append(_series_levi("A3", (1, 3), {(0, 0, 0): Fraction(20)}, 10, verify))
    slots.append(_series_levi("G2", (1,), {(0, -1): Fraction(26, 3)}, 10, fund))
    return slots


# ---------------------------------------------------------------------------
# point-queries: euler_multiplicity at far-away delta, no shared counter.

# The inducing weights a query may use.  For a Cartan pair the Euler
# multiplicity at delta is the partition count of x = delta - mu, and for
# a principal rank-one pair the count at delta - mu = 2 j, whatever nu
# is: moving nu moves delta with it and leaves the work unchanged.
_CARTAN_NU = (0, 4, 9, 15)
_SL2_NU = (-3, -1, 1, 3)
# types whose diagram automorphism reverses the simple roots; it keeps the
# partition count and the size of its recursion
_FLIPPED = {"A2", "A3"}


def _cartan_slots(lie: str, shapes: list[tuple[int, ...]]) -> list[list[Job]]:
    """One slot per target x of the partition count; the seed picks the
    inducing weight nu (a multiple of the all-ones vector) and, where the
    diagram has one, the automorphic image of x."""
    slots = []
    for x0 in shapes:
        images = {x0, x0[::-1]} if lie in _FLIPPED else {x0}
        slots.append([Job(key=f"euler|cartan|{lie}|nu={n}|{_vec(x)}", kind="euler",
                          meta=(("cartan", lie, n), x))
                      for x in sorted(images) for n in _CARTAN_NU])
    return slots


def _sl2_query_slots(lie: str, steps: list[int]) -> list[list[Job]]:
    """delta = mu + 2 j for the principal rank-one pair, nu = lift(c)."""
    return [[Job(key=f"euler|sl2|{lie}|nu={c}|{j}", kind="euler", meta=(("sl2", lie, c), j))
             for c in _SL2_NU] for j in steps]


def _query_slots() -> list[list[Job]]:
    slots = []
    slots += _cartan_slots("A2", [(4, 16), (8, 12), (10, 10), (13, 9), (16, 5),
                                  (7, 21), (14, 14), (20, 9)])
    slots += _cartan_slots("B2", [(3, 12), (5, 10), (8, 8), (10, 5), (12, 4),
                                  (4, 8), (6, 6), (9, 4)])
    slots += _cartan_slots("G2", [(2, 10), (4, 8), (6, 6), (8, 4), (10, 2),
                                  (3, 6), (5, 5), (7, 3)])
    slots += _cartan_slots("A3", [(3, 4, 3), (2, 5, 3), (4, 2, 4), (5, 3, 2),
                                  (2, 3, 5), (3, 3, 3)])
    slots += _cartan_slots("B3", [(2, 3, 3), (3, 3, 2), (4, 2, 2), (2, 2, 4),
                                  (3, 2, 3)])
    slots += _sl2_query_slots("A2", [80, 90, 100, 110])
    slots += _sl2_query_slots("B2", [50, 60, 70, 80])
    return slots


def _query_pair(kind: str, lie: str):
    """Rank, pair and parabolic of a point-query pair."""
    g = redpair.build_root_system(lie)
    if kind == "cartan":
        p = redpair.make_cartan_pair(g)
        return g.rank, p, redpair.compatible_parabolic(p, g.rho_tilde)
    # the README tour: principal sl2 and the chamber of lam = 5
    p = redpair.make_sl2_pair(g, [2] * g.rank)
    return g.rank, p, redpair.compatible_parabolic(p, redpair.vec(5))


def _query_module(rank: int, p, parab, kind: str, n: int):
    """The inducing module of a point query with inducing weight n."""
    if kind == "cartan":
        return redpair.inducing_module(p, parab, tuple(Fraction(n) for _ in range(rank)))
    return redpair.inducing_module(p, parab, p.lift_weight(redpair.vec(n)))


# ---------------------------------------------------------------------------
# genericity-sweep: CLI generic-check over sl2 mark vectors in {0,1,2}^4.

_SWEEP_TYPES = ("A4", "B4", "C4", "D4")
# the witness of a non-generic job is (almost) the whole of ch_t n, and
# minimal_witness scans every submultiset size, so the non-generic slots
# keep to mark vectors with at most this many roots of nonzero value
_WITNESS_ROOTS = 14


def _sweep_slots() -> list[list[Job]]:
    slots = []
    for lie in _SWEEP_TYPES:
        g = redpair.build_root_system(lie)
        roots = [tuple(int(c) for c in root) for root in g.positive_roots]
        classes: dict[tuple, list[tuple[int, ...]]] = {}
        for marks in itertools.product((0, 1, 2), repeat=g.rank):
            if not any(marks):
                continue
            values = tuple(sorted(sum(c * m for c, m in zip(root, marks))
                                  for root in roots))
            classes.setdefault(values, []).append(marks)
        # mark vectors with equal restricted values give the same search
        for values, members in sorted(classes.items()):
            threshold = sum(values) // 2
            slots.append(_generic_jobs(lie, members, threshold, (-1, 0)))
            if sum(1 for v in values if v) <= _WITNESS_ROOTS:
                slots.append(_generic_jobs(lie, members, threshold, (-3, -2)))
    return slots


def _generic_jobs(lie: str, members, threshold: int, offsets) -> list[Job]:
    jobs = []
    for marks in members:
        for off in offsets:
            m = max(threshold + off, 0)
            lines = [f"lie_type = {lie}", "k = sl2", f"labels = {_vec(marks)}",
                     "command = generic-check", f"mu = {m}"]
            jobs.append(_cli_job(lines, meta=("generic-check", lie, marks, m)))
    return list({job.key: job for job in jobs}.values())


# ---------------------------------------------------------------------------
# structure: construction, Weyl enumeration and serialization only.

_STRUCTURE_TYPES = ("A2", "A4", "A6", "A8", "B3", "B5", "C4", "C6", "D4", "D6",
                    "E6", "F4", "G2")
_WEYL_TYPES = {"B4": 384, "F4": 1152}
_CAP = 10


def _mark_choices(rank: int) -> list[tuple[int, ...]]:
    return [tuple([2] * rank), tuple([1] * rank), (2,) + (0,) * (rank - 1),
            (0,) * (rank - 1) + (2,), (1,) + (0,) * (rank - 2) + (2,)]


def _node_choices(rank: int) -> list[tuple[int, ...]]:
    return [(i,) for i in range(1, rank + 1)] + \
        [(i, i + 1) for i in range(1, rank)]


def _cap_choices(lie: str, rank: int) -> list[tuple[int, ...]]:
    """Node sets whose Weyl group exceeds the cap: three consecutive
    nodes of a chain (order at least 24), or both nodes of G2 (order 12).
    E types number their chain 1, 3, 4, 5, ..."""
    if lie[0] == "E":
        return [(1, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7)][:int(lie[1:]) - 3]
    if rank == 2:
        return [(1, 2)]
    return [(i, i + 1, i + 2) for i in range(1, rank - 1)]


def _explicit_jobs(lie: str, rank: int) -> list[Job]:
    """Levi pairs re-entered as raw embedding data: identity restriction,
    the chosen simple roots, and their coroots as Cartan-matrix columns."""
    cartan = redpair.build_root_system(lie).cartan
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    jobs = []
    for nodes in _node_choices(rank):
        simple = [identity[i - 1] for i in nodes]
        coroots = [[cartan[j][i - 1] for j in range(rank)] for i in nodes]
        jobs.append(_cli_job([
            f"lie_type = {lie}", "k = explicit",
            "restriction = " + _vec(_vec(row) for row in identity),
            "k_simple_roots = " + _vec(_vec(row) for row in simple),
            "k_coroots = " + _vec(_vec(row) for row in coroots),
            "command = pair-info"], meta=("pair-info",)))
    return jobs


def _sl2_slot(lie: str, rank: int, verb: str) -> list[Job]:
    jobs = []
    for marks in _mark_choices(rank):
        lines = [f"lie_type = {lie}", "k = sl2", f"labels = {_vec(marks)}",
                 f"command = {verb}"]
        if verb == "parabolic":
            lines.append("mu = 1")
        jobs.append(_cli_job(lines, meta=(verb,)))
    return jobs


def _levi_slot(lie: str, rank: int, verb: str, node_sets=None) -> list[Job]:
    jobs = []
    for nodes in node_sets or _node_choices(rank):
        lines = [f"lie_type = {lie}", "k = levi", f"nodes = {_vec(nodes)}",
                 f"command = {verb}"]
        if verb == "parabolic":
            lines.append(f"mu = {_vec([0] * rank)}")
        jobs.append(_cli_job(lines, meta=(verb,)))
    return jobs


def _cap_slot(lie: str, rank: int) -> list[Job]:
    return [_cli_job([f"lie_type = {lie}", "k = levi", f"nodes = {_vec(nodes)}",
                      "command = pair-info", f"max_weyl = {_CAP}"], expect=4, meta=("cap",))
            for nodes in _cap_choices(lie, rank)]


def _structure_slots() -> list[list[Job]]:
    slots = [[Job(key=f"weyl|{lie}", kind="weyl", meta=(lie, order))]
             for lie, order in _WEYL_TYPES.items()]
    for n, lie in enumerate(_STRUCTURE_TYPES):
        rank = int(lie[1:])
        slots.append(_sl2_slot(lie, rank, ("pair-info", "sl2-threshold", "parabolic")[n % 3]))
        slots.append(_levi_slot(lie, rank, ("pair-info", "parabolic")[n % 2]))
        if n % 3 == 0:
            slots.append(_explicit_jobs(lie, rank))
        if n % 2 == 0 and lie != "A2":   # |W(A2)| = 6 is under the cap
            slots.append(_cap_slot(lie, rank))
    # two blocks of near-equal jobs, so that the median job and the
    # 90th-percentile job fall inside a block rather than between two
    # types: eight C6 thresholds (about 17-22 ms on a 2-CPU machine) and,
    # for the 90th percentile, eight E8 thresholds (65-85 ms); the E7 caps
    # (45-55 ms) lie below that block
    for _ in range(8):
        slots.append(_sl2_slot("C6", 6, "sl2-threshold"))
    for _ in range(8):
        slots.append(_sl2_slot("E8", 8, "sl2-threshold"))
    for _ in range(4):
        slots.append(_cap_slot("E7", 7))
    slots.append(_sl2_slot("E7", 7, "pair-info"))
    slots.append(_levi_slot("E7", 7, "pair-info", [(i,) for i in range(1, 8)]))
    slots.append(_levi_slot("E8", 8, "pair-info", [(1,), (2,), (8,)]))
    return slots


# ---------------------------------------------------------------------------

_SLOTS = {
    "series-tables": _series_slots,
    "point-queries": _query_slots,
    "genericity-sweep": _sweep_slots,
    "structure": _structure_slots,
}


def catalogue(workload: str) -> list[Job]:
    """Every job any seed can draw for the workload."""
    jobs = {job.key: job for slot in _SLOTS[workload]() for job in slot}
    return [jobs[key] for key in sorted(jobs)]


def generate(workload: str, seed: int) -> list[Job]:
    """One alternative per slot, chosen and ordered by the seed."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = [rng.choice(slot) for slot in _SLOTS[workload]()]
    rng.shuffle(jobs)
    return jobs


class Runner:
    """Inputs built at set-up, and the call that runs one job.

    CLI jobs go through ``redpair.cli.main`` in-process with
    ``--emit machine``; ``write_configs`` puts their config files on disk.
    """

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.paths: dict[str, str] = {}
        self.inputs: dict = {}
        # one pair per type, whichever inducing weights the seed picked, so
        # that set-up does the same work on every seed
        pairs: dict = {}
        for job in jobs:
            if job.kind == "euler" and job.meta[0] not in self.inputs:
                kind, lie, n = job.meta[0]
                if (kind, lie) not in pairs:
                    pairs[kind, lie] = _query_pair(kind, lie)
                rank, p, parab = pairs[kind, lie]
                self.inputs[job.meta[0]] = (p, parab, _query_module(rank, p, parab, kind, n))
            elif job.kind == "weyl" and job.meta[0] not in self.inputs:
                self.inputs[job.meta[0]] = redpair.build_root_system(job.meta[0])

    def write_configs(self, workdir: str) -> None:
        for n, job in enumerate(self.jobs):
            if job.kind == "cli" and job.key not in self.paths:
                path = os.path.join(workdir, f"job{n}.cfg")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(job.config)
                self.paths[job.key] = path

    def run(self, job: Job):
        """The job's raw result: (exit code, stdout) for a CLI job, the
        library's return value otherwise."""
        if job.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["--config", self.paths[job.key], "--emit", "machine"])
            return code, out.getvalue()
        if job.kind == "euler":
            spec, x = job.meta
            p, parab, e = self.inputs[spec]
            if spec[0] == "cartan":
                delta = tuple(m + c for m, c in zip(e.mu, x))
            else:
                delta = (e.mu[0] + 2 * x,)
            return redpair.euler_multiplicity(p, parab, e, delta)
        return redpair.weyl_group(self.inputs[job.meta[0]])

    def answer_text(self, job: Job, result) -> str:
        """Canonical text of a result, compared against the reference."""
        if job.kind == "cli":
            code, stdout = result
            return f"{code}\n{stdout}"
        if job.kind == "euler":
            return str(result)
        rho = self.inputs[job.meta[0]].rho_tilde
        orbit = sorted((w.length, tuple(str(c) for c in w.apply(rho))) for w in result)
        return json.dumps(orbit)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def load_reference(workload: str) -> dict[str, str]:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# The A2 principal table at nu = -3, by delta (the acceptance suite's values).
_A2_TABLE = {3: 1, 5: 1, 7: 2, 9: 2, 11: 3}


class Checker:
    """Checks that hold on any seed, independent of the stored answers."""

    def __init__(self):
        self._thresholds: dict = {}

    def _threshold(self, lie: str, marks) -> int:
        key = (lie, marks)
        if key not in self._thresholds:
            p = redpair.make_sl2_pair(redpair.build_root_system(lie), list(marks))
            self._thresholds[key] = redpair.sl2_threshold(p)
        return self._thresholds[key]

    def invariant_failure(self, job: Job, result) -> str | None:
        if job.kind == "weyl":
            if len(result) != job.meta[1]:
                return f"{len(result)} Weyl elements, expected {job.meta[1]}"
            return None
        if job.kind == "euler":
            (kind, lie, _), x = job.meta
            if (kind, lie) == ("cartan", "A2") and result != min(x) + 1:
                return f"P({x}) = {result}, expected {min(x) + 1}"
            return None
        code, stdout = result
        if code != job.expect:
            return f"exit code {code}, expected {job.expect}"
        if code != 0:
            return None
        doc = json.loads(stdout)
        command = job.meta[0] if job.meta else None
        if command == "generic-check":
            _, lie, marks, m = job.meta
            expected = m + 1 >= self._threshold(lie, marks)
            if doc["genericity"]["holds"] != expected:
                return f"generic-check says {doc['genericity']['holds']} at m = {m}"
        if command == "verify":
            bad = [k for k, v in doc["verify"].items() if v is not True]
            if bad:
                return f"verify flags not true: {bad}"
        if len(job.meta) > 1 and job.meta[1] == "a2-table":
            cutoff = job.meta[2]
            got = {int(entry["delta"][0]): entry["mult"] for entry in doc["table"]["entries"]}
            for delta, mult in _A2_TABLE.items():
                inside = Fraction((delta + 2) ** 2, 8) <= cutoff
                if inside and got.get(delta) != mult:
                    return f"A2 table entry at {delta} is {got.get(delta)}, expected {mult}"
        return None
