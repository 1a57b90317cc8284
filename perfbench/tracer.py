"""Spans around the public functions of each ``redpair`` module, installed
from outside the package.

A span times one call of a wrapped function; its self time is its
duration minus the part covered by wrapped calls made inside it.  The
``Fraction`` kernel under every layer is counted, not timed: wrapping
``ReductivePair.t_pair`` with a timer would cost more than the method.

A wrapped name is looked up when the tracer is installed.  Every module
namespace of the package that binds the same function object is patched
(``cli`` imports ``ktype_table`` and ``is_generic`` by name, the package
re-exports everything), and methods are patched on their class.  A name
that no longer exists is reported as absent, not as an error, so the
benchmark keeps running after a refactor removes it.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "redpair"


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module.attr`` or ``module.Class.method``."""

    span: str                 # metric prefix, e.g. "fundseries.ktype_table"
    module: str
    attr: str
    timed: bool = True        # False: count calls only
    extra: str = ""           # result-derived counter, see _EXTRAS


TARGETS = (
    Target("cli.parse_config", "cli", "parse_config"),
    Target("cli.run_job", "cli", "run_job"),
    Target("cli.emit", "cli", "emit"),
    Target("rootsystem.build_root_system", "rootsystem", "build_root_system"),
    Target("rootsystem.weyl_group", "rootsystem", "weyl_group"),
    Target("rootsystem.enumerate_reflection_group", "rootsystem",
           "enumerate_reflection_group", extra="elements"),
    Target("reductive.make_pair", "reductive", "make_sl2_pair"),
    Target("reductive.make_pair", "reductive", "make_cartan_pair"),
    Target("reductive.make_pair", "reductive", "make_levi_pair"),
    Target("reductive.make_pair", "reductive", "make_explicit_pair"),
    Target("reductive.k_weyl_group", "reductive", "ReductivePair.k_weyl_group",
           extra="elements"),
    Target("reductive.t_pair", "reductive", "ReductivePair.t_pair", timed=False),
    Target("parabolic.split_roots", "parabolic", "split_roots"),
    Target("parabolic.compatible_parabolic", "parabolic", "compatible_parabolic"),
    Target("genericity.is_generic", "genericity", "is_generic"),
    Target("genericity.condition2_search", "genericity",
           "_Condition2Search.find_violation"),
    Target("genericity.witness_search", "genericity",
           "_Condition2Search.minimal_witness", extra="witness_size"),
    Target("genericity.sl2_threshold", "genericity", "sl2_threshold"),
    Target("fundseries.inducing_module", "fundseries", "inducing_module"),
    Target("fundseries.ktype_table", "fundseries", "ktype_table", extra="entries"),
    Target("fundseries.euler_multiplicity", "fundseries", "euler_multiplicity"),
    Target("fundseries.kostant_weights", "fundseries", "kostant_weights"),
    Target("fundseries.partition_count", "fundseries", "PartitionCounter.count"),
)


def _elements(result) -> int:
    return len(result)


def _witness_size(result) -> int:
    return result[0].size()


def _entries(result) -> int:
    return len(result.entries)


_EXTRAS = {"elements": _elements, "witness_size": _witness_size, "entries": _entries}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    extra: int = 0
    inner_calls: dict = field(default_factory=dict)   # parent span -> calls made inside it


class Tracer:
    """Aggregated spans of one traced pass.

    ``install`` patches the package; ``uninstall`` restores every binding
    it replaced.  Only one span stack exists: the benchmark runs its jobs
    on one thread.
    """

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []        # [span name, child time]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        resolved = set()
        for target in self.targets:
            self.stats.setdefault(target.span, SpanStats())
            owner, name, original = self._resolve(target)
            if original is None:
                continue
            resolved.add(target.span)
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or not (module_name == PACKAGE
                                          or module_name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        self.absent = [span for span in self.stats if span not in resolved]

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    @staticmethod
    def _resolve(target: Target):
        try:
            owner = importlib.import_module(f"{PACKAGE}.{target.module}")
        except ImportError:
            return None, None, None
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        original = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
        if not callable(original):
            return None, None, None
        return owner, name, original

    # -- spans ------------------------------------------------------------

    def _wrap(self, target: Target, original):
        stats = self.stats[target.span]
        span = target.span
        if not target.timed:
            def counted(*args, **kwargs):
                stats.calls += 1
                return original(*args, **kwargs)
            return counted

        extra = _EXTRAS.get(target.extra)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1][0]
                stats.inner_calls[parent] = stats.inner_calls.get(parent, 0) + 1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if extra is not None:
                try:
                    stats.extra += extra(result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass    # the result changed shape: the counter stays as it is
            return result

        return traced

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics by name; absent spans read 0."""
        s = self.stats
        out: dict[str, float] = {}
        for name in ("fundseries.ktype_table", "fundseries.inducing_module",
                     "parabolic.compatible_parabolic", "parabolic.split_roots",
                     "genericity.witness_search", "genericity.condition2_search",
                     "genericity.sl2_threshold", "rootsystem.build_root_system",
                     "cli.parse_config", "cli.run_job", "cli.emit"):
            out[f"{name}.self_s"] = s[name].self_s
        for name in ("fundseries.euler_multiplicity", "fundseries.kostant_weights",
                     "fundseries.partition_count", "reductive.k_weyl_group",
                     "rootsystem.enumerate_reflection_group", "rootsystem.weyl_group",
                     "reductive.make_pair", "genericity.is_generic"):
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.self_s"] = s[name].self_s
        out["reductive.t_pair.calls"] = s["reductive.t_pair"].calls
        out["reductive.k_weyl_group.elements"] = s["reductive.k_weyl_group"].extra
        out["rootsystem.enumerate_reflection_group.elements"] = \
            s["rootsystem.enumerate_reflection_group"].extra
        out["genericity.witness_size"] = s["genericity.witness_search"].extra
        # nonzero table entries per Euler multiplicity evaluated by ktype_table
        evaluated = s["fundseries.euler_multiplicity"].inner_calls.get(
            "fundseries.ktype_table", 0)
        entries = s["fundseries.ktype_table"].extra
        out["fundseries.candidate_hit_ratio"] = entries / evaluated if evaluated else 0.0
        return out
