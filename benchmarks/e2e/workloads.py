"""One workload of the end-to-end benchmark, run in its own process.

``run.py`` starts this script once per measurement with a clean
environment (no ``REPRO_*`` mode knobs, ``PYTHONPATH`` set to the checkout's
``src``)::

    python3 workloads.py --workload NAME --seed N --mode run --seconds S
    python3 workloads.py --workload NAME --seed N --mode setup
    python3 workloads.py --workload NAME --seed N --mode trace

``setup`` imports and builds the workload's inputs, then exits: ``run.py``
starts several such processes to take the median set-up time. ``run``
executes closed-loop rounds of the workload until ``--seconds`` have passed
(at least one round; a round starts only if it is expected to finish in
time). ``trace`` runs one round under the span tracer of ``tracer.py``.
Every round of a run executes the same inputs, so each round must reproduce
the first round's digests exactly.

The last line of stdout is one JSON object; ``run.py`` turns it into
metrics and checks it against ``golden.json``.
"""

from __future__ import annotations

import time

# Set-up time is measured from here: before repro (and numpy) are imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[2] / "src"

#: Sections of ``repro validate --quick``, in the order the CLI runs them.
SECTIONS = ("table1", "fig1", "spatial", "temporal", "heater_micro", "apps")


class Meter:
    """Host time and user-space instructions retired by this process.

    Instructions come from the hardware counter (Linux perf events).
    Unlike time, the count does not move when other tenants of the machine
    slow the core down, so it separates a change to the code from a change
    to the machine.
    """

    _SYSCALL = {"x86_64": 298, "aarch64": 241}

    def __init__(self) -> None:
        import ctypes
        import platform

        # perf_event_attr, first version (64 bytes): PERF_TYPE_HARDWARE,
        # PERF_COUNT_HW_INSTRUCTIONS, read_format TOTAL_TIME_ENABLED |
        # TOTAL_TIME_RUNNING, flags exclude_kernel | exclude_hv.
        attr = bytearray(64)
        struct.pack_into("IIQ", attr, 0, 0, 64, 1)
        struct.pack_into("Q", attr, 32, 1 | 2)
        struct.pack_into("Q", attr, 40, (1 << 5) | (1 << 6))
        number = self._SYSCALL.get(platform.machine())
        libc = ctypes.CDLL(None, use_errno=True)
        buf = (ctypes.c_char * len(attr)).from_buffer(attr)
        fd = -1 if number is None else libc.syscall(number, buf, 0, -1, -1, 0)
        if fd < 0:
            err = ctypes.get_errno()
            raise OSError(err, "no hardware instruction counter (perf_event_open: "
                          f"{os.strerror(err) if err else platform.machine()})")
        self._fd = fd

    def mark(self):
        """(seconds, instructions) now."""
        value, enabled, running = struct.unpack("qqq", os.read(self._fd, 24))
        if not running:
            raise OSError("the instruction counter never ran")
        # Scaled when the kernel had to share the counter between events.
        count = value if running == enabled else round(value * enabled / running)
        return time.perf_counter(), count


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stats_repr(mem_stats) -> str:
    # LevelStats.__repr__ rounds; the snapshot keeps every counter exact.
    return repr(sorted(mem_stats.snapshot().items())) if mem_stats is not None else "None"


class Op:
    """Outcome of one op: its span, what golden.json compares, what went wrong.

    *start* and *end* are :meth:`Meter.mark` readings.
    """

    __slots__ = ("label", "start", "seconds", "instructions", "check", "problems", "events")

    def __init__(self, label, start, end, check=None, problems=(), events=0):
        self.label = label
        self.start = start[0]
        self.seconds = end[0] - start[0]
        self.instructions = end[1] - start[1]
        self.check = check
        self.problems = list(problems)
        self.events = events

    def as_dict(self, round_start):
        return {
            "op": self.label,
            "start_s": self.start - round_start,
            "s": self.seconds,
            "instructions": self.instructions,
            "check": self.check,
            "problems": self.problems,
            "events": self.events,
        }


def _timed(meter, label, fn):
    """Run one op in the closed loop; an exception fails the op, not the run.

    Garbage is collected before the op, outside its measurement: an op's
    sessions hold reference cycles, and leaving them to the collector's
    thresholds makes peak RSS depend on how many dead sessions happen to
    overlap, which varies with the seed.
    """
    gc.collect()
    start = meter.mark()
    try:
        check, problems, events = fn()
    except Exception as exc:  # the benchmark must keep measuring
        return Op(label, start, meter.mark(), problems=[f"{type(exc).__name__}: {exc}"])
    return Op(label, start, meter.mark(), check, problems, events)


# -- workloads ---------------------------------------------------------------------


class ValidateQuick:
    """``repro validate --quick``, one section per op.

    Its inputs are the paper's fixed configurations, so the seed does not
    apply and the golden observed strings are checked at every seed.
    """

    seeded = False

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.validation import run_validation

        # The sections import these lazily; set-up pays for them instead
        # of the first op.
        import repro.apps  # noqa: F401
        import repro.bench.heater_micro  # noqa: F401
        import repro.bench.osu  # noqa: F401
        import repro.decomp.bench  # noqa: F401
        import repro.motifs  # noqa: F401

        self._run = run_validation
        self.sections = ("fig1", "spatial") if smoke else SECTIONS

    def size(self):
        return {"sections": list(self.sections), "quick": True}

    def round(self, record, meter) -> None:
        for name in self.sections:
            record(_timed(meter, name, lambda name=name: self._section(name)))

    def _section(self, name):
        report = self._run(quick=True, sections=[name])
        problems = [
            f"{c.experiment} '{c.claim}': observed {c.observed}, expected {c.expected}"
            for c in report.criteria
            if not c.passed
        ]
        if not report.criteria:
            problems.append(f"section {name} checked no criteria")
        return [c.observed for c in report.criteria], problems, 0


def _traffic_op(cfg):
    """One open-loop run: digest of the full result, conservation per phase."""
    from repro.traffic import run_traffic

    result = run_traffic(cfg)
    problems = []
    for phase in (result.warmup, result.measured):
        if phase.fast_matches + phase.unexpected + phase.rejected != phase.events:
            problems.append(
                f"{phase.phase}: fast_matches + unexpected + rejected "
                f"= {phase.fast_matches + phase.unexpected + phase.rejected} "
                f"!= events {phase.events}"
            )
    events = result.warmup.events + result.measured.events
    return _sha(repr(result) + _stats_repr(result.mem_stats)), problems, events


class TrafficSaturated:
    """Deep drop-tail overload: most arrivals bounce off a full UMQ.

    The shape of the million-event smoke in ``benchmarks/bench_traffic.py``
    (16 tags, 8 decoys, UMQ capped at 32, 4-receive window) at 8 arrivals
    per us. At 32/us the host cost is dominated by rare catch-up episodes
    whose count varies several-fold between seeds; at 8/us they are
    frequent enough to average out, while ~89% of arrivals are still
    rejected and ~66% are replayed as reject streaks.
    """

    seeded = True
    RATE = 8.0
    # Host work per run still varies ~5% between seeds; twelve runs per
    # round average that down.
    RUNS = 12
    EVENTS = 50_000

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.arch import SANDY_BRIDGE
        from repro.traffic import TrafficConfig, TrafficDriver

        runs, events = (1, 20_000) if smoke else (self.RUNS, self.EVENTS)
        self.configs = [
            TrafficConfig(
                arch=SANDY_BRIDGE,
                arrival_rate=self.RATE,
                zipf_alpha=1.0,
                n_tags=16,
                msg_bytes=512,
                search_depth=8,
                queue_capacity=32,
                recv_window=4,
                n_warmup=1000,
                n_measured=events - 1000,
                # Disjoint sub-seeds per benchmark seed.
                seed=seed * 16 + i,
            )
            for i in range(runs)
        ]
        # First driver/session build (hierarchy slabs, lazy imports).
        TrafficDriver.open_loop(self.configs[0])

    def size(self):
        cfg = self.configs[0]
        return {
            "runs": len(self.configs),
            "events_per_run": cfg.n_warmup + cfg.n_measured,
            "arrival_rate_per_us": cfg.arrival_rate,
            "queue_capacity": cfg.queue_capacity,
            "seeds": [c.seed for c in self.configs],
        }

    def round(self, record, meter) -> None:
        for cfg in self.configs:
            record(_timed(meter, f"seed {cfg.seed}", lambda cfg=cfg: _traffic_op(cfg)))


class TrafficHeatedFlush:
    """The ``traffic-overload`` scenario's base with the heater on.

    Flushes every 32 arrivals, 128 decoys, UMQ capacity 256: the heater
    keeps the reject-streak replayer from arming, so flushes, heater
    catch-up and cold memory misses carry the host time.
    """

    seeded = True
    VARIANTS = (("HC", "baseline"), ("HC+LLA-8", "lla-8"))
    RATES = (0.6, 1.2)
    # Three sub-seeds per (variant, rate): host work varies ~6% between seeds.
    SEEDS = 3

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.arch import SANDY_BRIDGE
        from repro.traffic import TrafficConfig, TrafficDriver

        grid = [("HC", "baseline", 1.2, seed * 16)] if smoke else [
            (label, family, rate, seed * 16 + i)
            for label, family in self.VARIANTS
            for rate in self.RATES
            for i in range(self.SEEDS)
        ]
        measured = 1000 if smoke else 5000
        self.ops = [
            (
                f"{label}@{rate:g} seed {sub}",
                TrafficConfig(
                    arch=SANDY_BRIDGE,
                    queue_family=family,
                    heated=True,
                    arrival_rate=rate,
                    zipf_alpha=1.0,
                    n_tags=64,
                    msg_bytes=1024,
                    search_depth=128,
                    flush_every=32,
                    queue_capacity=256,
                    recv_window=64,
                    n_warmup=200,
                    n_measured=measured,
                    seed=sub,
                ),
            )
            for label, family, rate, sub in grid
        ]
        TrafficDriver.open_loop(self.ops[0][1])

    def size(self):
        cfg = self.ops[0][1]
        return {
            "runs": [label for label, _ in self.ops],
            "events_per_run": cfg.n_warmup + cfg.n_measured,
            "flush_every": cfg.flush_every,
            "search_depth": cfg.search_depth,
            "queue_capacity": cfg.queue_capacity,
        }

    def round(self, record, meter) -> None:
        for label, cfg in self.ops:
            record(_timed(meter, label, lambda cfg=cfg: _traffic_op(cfg)))


def _point_check(result):
    """Digest and invariants of one sweep point."""
    import math

    problems = []
    if not (math.isfinite(result.y) and result.y > 0):
        problems.append(f"bandwidth {result.y!r} is not a positive number")
    stats = result.mem_stats
    if stats is not None:
        served = stats.netcache_hits + stats.l1_hits + stats.l2_hits + stats.l3_hits + stats.dram_fills
        if served != stats.lines:
            problems.append(f"levels served {served} lines of {stats.lines}")
    text = repr((result.y, result.yerr, sorted(result.extras.items()))) + _stats_repr(stats)
    return _sha(text), problems


class OsuSearchLength:
    """Figures 4-7: the full spatial and temporal search-length sweeps.

    Each point is one op, timed from consecutive ``Runner`` progress
    callbacks (the latency a user watching the sweep sees).
    """

    seeded = True
    SCENARIOS = ("spatial-search-length", "temporal-search-length")

    def __init__(self, seed: int, smoke: bool) -> None:
        from repro.exp import Runner
        from repro.scenarios import get_scenario

        self._runner_cls = Runner
        specs = [get_scenario(name).with_overrides(seed=seed) for name in self.SCENARIOS]
        if smoke:
            specs = [
                specs[1].with_overrides(
                    base={"iterations": 3}, matrix={"search_depth": [64, 512]}
                )
            ]
        self.specs = specs
        self.points = sum(len(spec.expand().points) for spec in specs)

    def size(self):
        return {"scenarios": [s.name for s in self.specs], "points": self.points}

    def round(self, record, meter) -> None:
        for spec in self.specs:
            plan = spec.expand()
            last = [meter.mark()]

            def progress(done, total, point, result, cached, name=spec.name):
                now = meter.mark()
                if result is not None:  # failed points are recorded below
                    check, problems = _point_check(result)
                    label = f"{name}:{point.series}@{point.x:g}"
                    record(Op(label, last[0], now, check, problems))
                gc.collect()  # between ops, as _timed does
                last[0] = meter.mark()

            runner = self._runner_cls(jobs=1, progress=progress, on_error="collect")
            runner.run_sweep(plan)
            for failure in runner.last_report.failures:
                record(Op(f"{spec.name}:{failure.series}@{failure.x:g}", last[0], last[0],
                          problems=[f"{failure.error_type}: {failure.message}"]))


WORKLOADS = {
    "validate-quick": ValidateQuick,
    "traffic-saturated": TrafficSaturated,
    "traffic-heated-flush": TrafficHeatedFlush,
    "osu-search-length": OsuSearchLength,
}


# -- environment -----------------------------------------------------------------


def resolved_modes():
    """The mode knobs as the package resolves them with no override.

    Looked up by name so the benchmark keeps running when a knob is
    removed from the package (its entry then reads None).
    """
    import importlib

    modes = {}
    for label, module, fn in (
        ("mem_kernel", "repro.mem.kernel", "resolve_kernel"),
        ("scan_batch", "repro.matching.port", "resolve_scan_batch"),
        ("traffic_batch", "repro.traffic.mode", "resolve_traffic_batch"),
    ):
        try:
            modes[label] = getattr(importlib.import_module(module), fn)()
        except (ImportError, AttributeError):
            modes[label] = None
    return modes


def _check_source() -> None:
    """Refuse to measure a ``repro`` that is not this checkout's."""
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"imported repro from {repro.__file__}, not from {SRC}")


# -- main --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    _check_source()
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    out = {"workload": args.workload, "seed": args.seed, "setup_s": time.perf_counter() - _T0}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0
    tracer = None
    if args.mode == "trace":
        # Installed after set-up: every op builds its own sessions, so the
        # instance-level wrappers reach everything a round touches.
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    meter = Meter()
    rounds = []
    start = time.perf_counter()
    while True:
        ops = []
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.root():
                workload.round(ops.append, meter)
        else:
            workload.round(ops.append, meter)
        wall = time.perf_counter() - t0
        rounds.append({"wall_s": wall, "ops": [op.as_dict(t0) for op in ops]})
        if tracer is not None or time.perf_counter() - start + wall > args.seconds:
            break

    import numpy

    out.update(
        rounds=rounds,
        size=workload.size(),
        seeded=workload.seeded,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        modes=resolved_modes(),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    if tracer is not None:
        out["trace"] = tracer.report()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
