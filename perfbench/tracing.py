"""Spans and counters around the calls into each layer, installed at run time.

`Tracer.installed()` replaces the public functions each layer is called
through, in the modules that call them, by wrappers that record a span
(name, start, end, parent) per call and a few counters taken from the
results.  Leaving the block restores the originals, so the traced program
is the same code the untraced passes run.  Spans stay in memory until the
run ends.

Per-module self time comes from `cProfile` in the same traced passes.  Time
spent in code outside the package (builtins, the standard library, the
methods dataclasses generate) is charged to the package module that called
it, in proportion to the calls made from each caller.
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import pstats
import time
from pathlib import Path

from wfnet import cli, nets, reduction, soundness, subnets

MODULES = ("cli", "fileio", "reduction", "subnets", "classes", "nets", "marking", "soundness")
ROOT_SPAN = "cli.main"

# (module whose global is replaced, attribute, span name)
_PATCHES = (
    (reduction, "find_contractible", "reduction.scan"),
    (cli, "reduce_net", "reduction.reduce_net"),
    (reduction, "contract", "subnets.contract"),
    (reduction, "subnet_view", "subnets.subnet_view"),
    (subnets, "subnet_view", "subnets.subnet_view"),
    (reduction, "is_well_nested", "subnets.is_well_nested"),
    (reduction, "classify", "classes.classify"),
    (cli, "classify", "classes.classify"),
    (soundness, "explore_reachable", "soundness.explore"),
    (soundness.ReachabilityGraph, "can_reach", "soundness.can_reach"),
    (cli, "parse_net", "fileio.parse_net"),
    (cli, "serialize_net", "fileio.serialize_net"),
    (cli, "serialize_forest", "fileio.serialize_forest"),
)


class Tracer:
    """Collects spans, result counters and a profile over traced operations."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self._open: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(
            ("nets.net_builds", "reduction.scan.hits", "reduction.contractions",
             "soundness.states", "soundness.bound_hits", "fileio.tree_bytes"),
            0,
        )
        self.profile = cProfile.Profile()

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in _PATCHES]
        saved.append((nets.Net, "__init__", nets.Net.__init__))
        try:
            for owner, attr, name in _PATCHES:
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
            setattr(nets.Net, "__init__", self._count_builds(nets.Net.__init__))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def operation(self):
        """One CLI call: the root span, profiled."""
        index = self._begin(ROOT_SPAN)
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()
            self._end(index)

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            self._note(name, result)
            return result

        return traced

    def _count_builds(self, init):
        @functools.wraps(init)
        def counted(*args, **kwargs):
            self.counts["nets.net_builds"] += 1
            return init(*args, **kwargs)

        return counted

    def _note(self, name: str, result) -> None:
        counts = self.counts
        if name == "reduction.scan":
            counts["reduction.scan.hits"] += result is not None
        elif name == "reduction.reduce_net":
            counts["reduction.contractions"] += result.contractions
        elif name == "soundness.explore":
            counts["soundness.states"] += result.states
            counts["soundness.bound_hits"] += result.bound_hit is not None
        elif name == "fileio.serialize_forest":
            counts["fileio.tree_bytes"] += len(result.encode("utf-8"))

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """Calls and summed duration per span name."""
        totals: dict[str, tuple[int, float]] = {}
        for name, start, end, _ in self.spans:
            calls, seconds = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, seconds + end - start)
        return totals

    def root_self_seconds(self) -> float:
        """Summed root span time not covered by its direct child spans."""
        total = 0.0
        for name, start, end, _ in self.spans:
            if name == ROOT_SPAN:
                total += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == ROOT_SPAN:
                total -= end - start
        return total

    def module_self_seconds(self) -> dict[str, float]:
        """cProfile self time per package module."""
        stats = pstats.Stats(self.profile).stats
        package = Path(reduction.__file__).parent
        here = Path(__file__).parent
        owners: dict[tuple, dict[str, float]] = {}

        def owner(func: tuple, active: frozenset) -> dict[str, float]:
            if func in owners:
                return owners[func]
            path = Path(func[0])
            if path.parent == package and path.stem in MODULES:
                share = {path.stem: 1.0}
            elif path.parent == here:
                share = {}  # the tracer's own wrappers
            else:
                share = {}
                callers = {c: v[2] for c, v in stats[func][4].items() if c not in active and c in stats}
                weight = sum(callers.values()) or 1.0
                for caller, seconds in callers.items():
                    for module, part in owner(caller, active | {func}).items():
                        share[module] = share.get(module, 0.0) + part * seconds / weight
            if not active:
                owners[func] = share
            return share

        selves = dict.fromkeys(MODULES, 0.0)
        for func, (_, _, tottime, _, _) in stats.items():
            for module, part in owner(func, frozenset()).items():
                selves[module] += tottime * part
        return selves
