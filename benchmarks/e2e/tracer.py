"""Span tracer for the benchmark's traced pass.

Wraps the public functions at each layer boundary of ``repro`` from the
outside; nothing in ``src/`` is instrumented. Each span name aggregates
calls, inclusive time and self time (inclusive minus the time its child
spans cover) on a parent stack, and a few counters are read at the same
boundaries so ratios are measured where the work happens. Spans are kept
in memory; ``report()`` returns them when the round ends.

Where each wrapper is installed matters:

* ``MatchEngine`` ops are wrapped on the class: the reject-streak replayer
  shadows them with instance attributes during a capture and deletes those
  afterwards, which would delete instance-level wrappers too.
* ``MemoryHierarchy.access_lines``/``access_run``/``touch_shared_tx`` are
  bound per instance, per cache kernel, in ``__init__``, so they are
  wrapped on each instance right after construction.
* ``open_loop_blocks`` is patched where the driver looks it up,
  ``repro.traffic.driver``.
* ``NullPort`` and ``items_match`` are left alone: Table 1 calls them tens
  of millions of times, and wrapping them would swamp the trace.

Self time of a span that recurses into itself (a queue wrapping a queue)
is exact; its inclusive time counts the nested call again.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Aggregated spans and counters for one traced round."""

    def __init__(self) -> None:
        #: name -> [calls, inclusive seconds, self seconds]
        self.spans = {}
        self.counts = Counter()
        # Child-time accumulators of the open spans; slot 0 is the root.
        self._stack = [0.0]
        self.wall_s = 0.0
        self.root_self_s = 0.0

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """*fn* timed as span *name*.

        ``before(args)`` returns a token handed to ``after(args, result,
        token)``; both run inside the span, so their cost is the span's.
        """
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result, token)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child

        return traced

    def wrap_iter(self, name, fn):
        """A generator function whose every ``next()`` is timed as *name*."""
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - child
                yield item

        return traced

    def _patch(self, owner, attr, name, **hooks):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Patch every traced layer boundary (once per process)."""
        import repro.bench.osu
        import repro.decomp.bench
        import repro.matching  # noqa: F401  (registers every queue class)
        import repro.traffic.driver
        from repro.analysis.stats import QuantileReservoir
        from repro.exp import Runner
        from repro.hotcache.heater import Heater
        from repro.matching.base import MatchQueue
        from repro.matching.engine import MatchEngine
        from repro.mem.hierarchy import MemoryHierarchy
        from repro.mpi.process import MpiProcess
        from repro.scenarios import ScenarioSpec
        from repro.traffic.fastpath import RejectReplayer

        counts = self.counts
        patch = self._patch

        # traffic: schedule blocks, the event loop, reject-streak replay.
        driver = repro.traffic.driver
        driver.open_loop_blocks = self.wrap_iter("traffic.blocks", driver.open_loop_blocks)
        patch(driver.TrafficDriver, "run_open", "traffic.run_open")

        def replay_after(args, result, armed):
            if armed:
                counts["traffic.replay.events"] += result

        patch(RejectReplayer, "consume", "traffic.replay",
              before=lambda args: args[0].armed, after=replay_after)
        patch(QuantileReservoir, "add", "analysis.reservoir.add")

        # mpi and queue layer.
        patch(MpiProcess, "handle_arrival", "mpi.handle_arrival")
        patch(MpiProcess, "post_recv", "mpi.post_recv")

        def search_after(args, result, probes_before):
            counts["matching.searches"] += 1
            counts["matching.probes"] += args[0].stats.probes - probes_before

        classes = [MatchQueue]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if cls is MatchQueue:
                continue
            if "match_remove" in cls.__dict__:
                patch(cls, "match_remove", "matching.match_remove",
                      before=lambda args: args[0].stats.probes, after=search_after)
            if "post" in cls.__dict__:
                patch(cls, "post", "matching.post")

        # match engine.
        def run_after(args, result, fast_before):
            counts["matching.engine.runs"] += 1
            counts["matching.engine.fast_runs"] += args[0].fast_runs - fast_before

        patch(MatchEngine, "load", "matching.engine.load")
        patch(MatchEngine, "load_run", "matching.engine.load_run",
              before=lambda args: args[0].fast_runs, after=run_after)

        # memory hierarchy: per-instance kernel bindings.
        def lines_after(args, tx, _token):
            counts["mem.lines"] += tx.lines
            counts["mem.l1_hits"] += tx.l1_hits
            counts["mem.dram_fills"] += tx.dram_fills

        def run_lines_after(args, served, _token):
            if served:  # an all-L1-hit run: every visit is an L1 hit
                counts["mem.lines"] += args[3]
                counts["mem.l1_hits"] += args[3]

        wrap = self.wrap
        hier_init = MemoryHierarchy.__init__

        @functools.wraps(hier_init)
        def traced_init(hier, *args, **kwargs):
            hier_init(hier, *args, **kwargs)
            hier.access_lines = wrap("mem.access_lines", hier.access_lines, after=lines_after)
            hier.access_run = wrap("mem.access_run", hier.access_run, after=run_lines_after)
            hier.touch_shared_tx = wrap("mem.touch_shared_tx", hier.touch_shared_tx)

        MemoryHierarchy.__init__ = traced_init
        patch(MemoryHierarchy, "flush", "mem.flush")

        # heater: force_pass runs catch_up, so each counts only its own passes.
        def passes_before(args):
            return args[0].passes, counts["hotcache.passes"]

        def passes_after(args, result, token):
            passes0, counted0 = token
            nested = counts["hotcache.passes"] - counted0
            counts["hotcache.passes"] += args[0].passes - passes0 - nested

        patch(Heater, "catch_up", "hotcache.catch_up", before=passes_before, after=passes_after)
        patch(Heater, "force_pass", "hotcache.force_pass", before=passes_before, after=passes_after)

        # application-level drivers and the sweep machinery.
        patch(repro.decomp.bench, "run_decomposition", "decomp.run_decomposition")
        patch(repro.bench.osu, "osu_bandwidth", "bench.osu_bandwidth")
        patch(Runner, "run_sweep", "exp.run_sweep")
        patch(ScenarioSpec, "expand", "scenarios.expand")

        # The harness collects garbage between ops, for the OSU sweep from
        # inside the runner's progress callback; its own span keeps that
        # out of the runner's self time. The package never calls it.
        patch(gc, "collect", "harness.gc")

    # -- rounds ------------------------------------------------------------------

    @contextmanager
    def root(self):
        """The root span of one round: its self time is everything untraced."""
        stack = self._stack
        stack[0] = 0.0
        t0 = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - t0
            self.wall_s += wall
            self.root_self_s += wall - stack[0]

    def report(self) -> dict:
        """Spans and counters as plain JSON-able data."""
        return {
            "wall_s": self.wall_s,
            "root_self_s": self.root_self_s,
            "spans": {
                name: {"calls": calls, "incl_s": incl, "self_s": self_s}
                for name, (calls, incl, self_s) in sorted(self.spans.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }
