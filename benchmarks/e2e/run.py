"""The repository's end-to-end benchmark.

One workload, as the command in BENCHMARK.json runs it (the last stdout
line is the JSON result)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, with a table per workload and optional JSON::

    python3 benchmarks/e2e/run.py [--seed 7] [--runs 5] [--trace] [--out r.json]

Compare two such JSON files, one row per (metric, workload); exits 1 on a
regression::

    python3 benchmarks/e2e/run.py --compare BASE.json HEAD.json

Re-record the committed golden outputs at the default seed::

    python3 benchmarks/e2e/run.py --record-golden

Each measurement runs ``workloads.py`` in a fresh process with every
``REPRO_*`` variable removed, so only the package defaults are measured.
See README.md for the workloads, the metrics and how to read a trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = HERE / "golden.json"
TRACE_PATH = ROOT / ".bench_e2e" / "trace.json"

#: Seed of the golden outputs and of the default full run.
DEFAULT_SEED = 7

#: Set-up-only processes started per measurement; with the measuring
#: process itself, setup_s is the median of this many plus one.
SETUP_PROBES = 4

#: A one-workload run must end within this many seconds.
RUN_DEADLINE_S = 170.0

#: Which end-to-end metric each group of layer metrics should move, on
#: which workload, and where it should stay flat (README.md explains).
LAYER_MAP = [
    {"layers": ["traffic.blocks.*", "traffic.run_open.*"],
     "moves": ["wall_s"], "on": ["traffic-saturated"],
     "flat_on": ["osu-search-length", "validate-quick"]},
    {"layers": ["traffic.replay.*"],
     "moves": ["wall_s"], "on": ["traffic-saturated"],
     "flat_on": ["traffic-heated-flush"]},
    {"layers": ["analysis.reservoir.add.*", "mpi.handle_arrival.*", "mpi.post_recv.*"],
     "moves": ["wall_s"], "on": ["traffic-saturated", "traffic-heated-flush"],
     "flat_on": []},
    {"layers": ["matching.match_remove.*", "matching.post.*", "matching.probes_per_search"],
     "moves": ["wall_s", "op_p90_ms"], "on": ["validate-quick", "osu-search-length"],
     "flat_on": ["traffic-saturated"]},
    {"layers": ["matching.engine.*"],
     "moves": ["op_p50_ms", "op_p90_ms"], "on": ["osu-search-length"],
     "flat_on": ["validate-quick"]},
    {"layers": ["mem.access_lines.*", "mem.access_run.*", "mem.flush.*", "mem.lines",
                "mem.l1_hit_ratio", "mem.dram_fill_ratio"],
     "moves": ["op_p90_ms", "wall_s"], "on": ["osu-search-length", "traffic-heated-flush"],
     "flat_on": ["traffic-saturated"]},
    {"layers": ["hotcache.*", "mem.touch_shared_tx.*"],
     "moves": ["wall_s"], "on": ["validate-quick", "traffic-heated-flush"],
     "flat_on": ["traffic-saturated"]},
    {"layers": ["decomp.run_decomposition.*", "validation.*.frac"],
     "moves": ["wall_s"], "on": ["validate-quick"],
     "flat_on": ["traffic-saturated", "traffic-heated-flush", "osu-search-length"]},
    {"layers": ["exp.run_sweep.*", "bench.osu_bandwidth.*", "scenarios.expand.*"],
     "moves": ["op_p50_ms", "setup_s"], "on": ["osu-search-length"],
     "flat_on": ["traffic-saturated", "traffic-heated-flush"]},
]


class BenchError(RuntimeError):
    """A measurement could not be taken (as opposed to a wrong output)."""


# -- inputs --------------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def load_golden() -> dict:
    if not GOLDEN_PATH.is_file():
        return {"seed": DEFAULT_SEED, "workloads": {}}
    return json.loads(GOLDEN_PATH.read_text())


def require_package() -> None:
    """The benchmark measures the package next to it, or nothing."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"no repro package under {ROOT / 'src'}: nothing to measure")


# -- processes -----------------------------------------------------------------------


def child(workload, seed, mode, *, seconds=0.0, smoke=False, timeout=600.0) -> dict:
    """Run workloads.py once in a clean process; returns its JSON result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # The load is one thread: keep numpy's BLAS pools from adding more.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--seconds", repr(float(seconds)),
    ]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ({mode}) did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload} ({mode}) exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


# -- checks --------------------------------------------------------------------------


def golden_for(workload, seed, result, smoke):
    """The golden checks that apply to this run, or None."""
    if smoke:
        return None
    golden = load_golden()
    if result["seeded"] and seed != golden["seed"]:
        return None
    return golden["workloads"].get(workload)


def check(workload, seed, result, smoke) -> list:
    """Every failed op of a run, as one line each.

    An op fails when it raised, broke an invariant (reported by the
    workload), differs from the same op in the run's first round, or
    differs from its golden output.
    """
    expected = golden_for(workload, seed, result, smoke)
    first = {op["op"]: op["check"] for op in result["rounds"][0]["ops"]}
    failures = []
    for i, rnd in enumerate(result["rounds"]):
        for op in rnd["ops"]:
            problems = list(op["problems"])
            if op["check"] != first.get(op["op"]):
                problems.append("output differs from round 0")
            if expected is not None and op["check"] != expected.get(op["op"]):
                problems.append(f"golden mismatch: got {op['check']!r}")
            if problems:
                failures.append(f"round {i} {op['op']}: " + "; ".join(problems))
    return failures


# -- statistics ----------------------------------------------------------------------


def p90(values):
    """90th percentile, interpolated within the sample's range."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- one workload run ----------------------------------------------------------------


def _budget(deadline) -> float:
    """Seconds a child process may take."""
    return 600.0 if deadline is None else deadline - time.monotonic()


def measure(workload, seed, seconds, *, smoke=False, deadline=None) -> dict:
    """Untraced run: every end-to-end metric."""
    setups = [
        child(workload, seed, "setup", smoke=smoke, timeout=_budget(deadline))["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    result = child(workload, seed, "run", seconds=seconds, smoke=smoke,
                   timeout=_budget(deadline))
    setups.append(result["setup_s"])
    rounds = result["rounds"]
    ops = [op for rnd in rounds for op in rnd["ops"]]
    times = [op["s"] for op in ops]
    failures = check(workload, seed, result, smoke)
    events = sum(op["events"] for op in ops)
    return {
        "seed": seed,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        # Both sum the round's ops, so the harness's garbage collection
        # between ops is not counted.
        "metrics": {
            "wall_s": statistics.median(sum(op["s"] for op in rnd["ops"]) for rnd in rounds),
            # The first round only: later rounds run on a grown heap.
            "host_ginstr": sum(op["instructions"] for op in rounds[0]["ops"]) / 1e9,
            "op_p50_ms": 1000.0 * statistics.median(times),
            "op_p90_ms": 1000.0 * p90(times),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        },
        "rounds": len(rounds),
        "ops_per_round": len(rounds[0]["ops"]),
        "events_per_s": events / sum(times) if events else None,
        "size": result["size"],
        "env": {k: result[k] for k in ("modes", "python", "numpy")},
    }


def trace(workload, seed, per_layer, *, smoke=False, deadline=None) -> dict:
    """One untraced and one traced round: every per-layer metric.

    The traced round must reproduce the untraced round's outputs exactly,
    which shows tracing does not perturb the simulation.
    """
    base = child(workload, seed, "run", smoke=smoke, timeout=_budget(deadline))
    traced = child(workload, seed, "trace", smoke=smoke, timeout=_budget(deadline))
    failures = check(workload, seed, base, smoke) + check(workload, seed, traced, smoke)
    base_ops = base["rounds"][0]["ops"]
    traced_ops = traced["rounds"][0]["ops"]
    if [(o["op"], o["check"]) for o in base_ops] != [(o["op"], o["check"]) for o in traced_ops]:
        failures.append("traced round's outputs differ from the untraced round's")

    spans = traced["trace"]
    wall = spans["wall_s"]
    base_wall = base["rounds"][0]["wall_s"]
    counts = Counter(spans["counts"])
    values = {}
    for name, span in spans["spans"].items():
        values[f"{name}.calls"] = span["calls"]
        values[f"{name}.self_frac"] = span["self_s"] / wall

    def ratio(num, den):
        return num / den if den else 0.0

    events = sum(op["events"] for op in traced_ops)
    values.update({
        "traffic.events": events,
        "traffic.replay.events": counts["traffic.replay.events"],
        "traffic.replay.event_ratio": ratio(counts["traffic.replay.events"], events),
        "matching.searches": counts["matching.searches"],
        "matching.probes_per_search": ratio(counts["matching.probes"], counts["matching.searches"]),
        "matching.engine.runs": counts["matching.engine.runs"],
        "matching.engine.fast_run_ratio": ratio(
            counts["matching.engine.fast_runs"], counts["matching.engine.runs"]),
        "mem.lines": counts["mem.lines"],
        "mem.l1_hit_ratio": ratio(counts["mem.l1_hits"], counts["mem.lines"]),
        "mem.dram_fill_ratio": ratio(counts["mem.dram_fills"], counts["mem.lines"]),
        "hotcache.passes": counts["hotcache.passes"],
        "trace.wall_s": wall,
        "trace.root.self_frac": spans["root_self_s"] / wall,
        "trace.overhead_ratio": wall / base_wall,
    })
    if workload == "validate-quick":
        for op in base_ops:
            values[f"validation.{op['op']}.frac"] = op["s"] / base_wall
    return {
        "seed": seed,
        "attempted": len(base_ops) + len(traced_ops),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {name: values.get(name, 0) for name in per_layer},
        "untraced_wall_s": base_wall,
        "wall_s": wall,
        "root_self_s": spans["root_self_s"],
        "spans": spans["spans"],
        "counts": counts,
        "ops": [{"op": o["op"], "start_s": o["start_s"], "s": o["s"]} for o in traced_ops],
    }


def write_trace(traces: dict) -> None:
    """Raw spans of the traced rounds' top-level ops, plus the aggregates."""
    TRACE_PATH.parent.mkdir(exist_ok=True)
    TRACE_PATH.write_text(json.dumps(traces, indent=1) + "\n")


def single_run(args, spec) -> int:
    """--workload mode: one run, result JSON on the last stdout line."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        metrics = {m["name"]: m for m in spec["per_layer"]}
        run = trace(args.workload, args.seed, list(metrics), smoke=args.smoke, deadline=deadline)
        write_trace({args.workload: run})
    else:
        metrics = {m["name"]: m for m in spec["end_to_end"]}
        run = measure(args.workload, args.seed, args.seconds, smoke=args.smoke, deadline=deadline)
    for line in run["failures"]:
        print(f"FAILED {line}")
    for name, value in run["metrics"].items():
        print(f"{name:40s} {value:14.6g} {metrics[name]['unit']}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": metrics[name]["unit"]}
            for name, value in run["metrics"].items()
        },
    }))
    return 0


# -- full runs -----------------------------------------------------------------------


def environment(runs) -> dict:
    """Where and how a set of runs was measured."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    env = {
        "commit": commit,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }
    if runs:
        env.update(runs[0]["env"])
    return env


def summarize(runs, spec) -> dict:
    """Median and quartiles of every end-to-end metric, plus error_rate."""
    out = {}
    for metric in spec["end_to_end"]:
        q1, med, q3 = quartiles([r["metrics"][metric["name"]] for r in runs])
        out[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "unit": metric["unit"]}
    attempted = sum(r["attempted"] for r in runs)
    out["error_rate"] = {
        "median": sum(r["failed"] for r in runs) / attempted if attempted else 1.0,
        "unit": "fraction",
    }
    return out


def full_run(args, spec) -> int:
    names = [w["name"] for w in spec["workloads"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    doc = {
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
        "layer_map": LAYER_MAP,
    }
    traces = {}
    all_runs = []
    status = 0
    for name in names:
        runs = [
            measure(name, args.seed + i, args.seconds, smoke=args.smoke) for i in range(args.runs)
        ]
        all_runs.extend(runs)
        entry = {
            "size": runs[0]["size"],
            "ops_per_round": runs[0]["ops_per_round"],
            "summary": summarize(runs, spec),
            "runs": runs,
        }
        print(f"\n== {name}: {args.runs} run(s), seeds {args.seed}..{args.seed + args.runs - 1}, "
              f"{runs[0]['ops_per_round']} ops per round, size {json.dumps(runs[0]['size'])}")
        for metric, s in entry["summary"].items():
            if "q1" in s:
                print(f"  {metric:14s} {s['median']:12.6g} {s['unit']:9s} "
                      f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]")
            else:
                print(f"  {metric:14s} {s['median']:12.6g} {s['unit']}")
        eps = [r["events_per_s"] for r in runs if r["events_per_s"]]
        if eps:
            print(f"  {'events_per_s':14s} {statistics.median(eps):12.6g} events/s (simulated "
                  "arrivals per host second of op time)")
        if args.trace:
            traced = trace(name, args.seed, per_layer, smoke=args.smoke)
            entry["layers"] = traced["metrics"]
            entry["trace"] = {k: traced[k] for k in (
                "untraced_wall_s", "wall_s", "root_self_s", "spans", "counts", "failures")}
            traces[name] = traced
            print(f"  traced round {traced['wall_s']:.3f} s vs untraced "
                  f"{traced['untraced_wall_s']:.3f} s; spans by self time:")
            for span, s in sorted(traced["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
                if s["calls"]:
                    print(f"    {span:28s} {s['calls']:>10d} calls  self {s['self_s']:8.3f} s  "
                          f"incl {s['incl_s']:8.3f} s")
            print(f"    {'(root)':28s} {'':>10s}        self {traced['root_self_s']:8.3f} s")
            for failure in traced["failures"]:
                print(f"  FAILED (traced) {failure}")
                status = 1
        for run in runs:
            for failure in run["failures"]:
                print(f"  FAILED seed {run['seed']} {failure}")
                status = 1
        doc["workloads"][name] = entry
    doc["env"] = environment(all_runs)
    if traces:
        write_trace(traces)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return status


# -- comparison ----------------------------------------------------------------------


def verdict(base, head, bound, lower_is_better):
    """Verdict for one (metric, workload), with its relative change.

    Worse when the head median is worse than the base median by more than
    the bound; unresolved when the base runs spread wider than the bound;
    better when the head wins nine pairs in ten and the medians differ by
    more than the base interquartile range; unchanged otherwise.
    """
    sign = 1.0 if lower_is_better else -1.0
    q1, mb, q3 = quartiles(base)
    mh = statistics.median(head)
    change = sign * (mh - mb) / mb  # > 0 is worse
    if change > bound:
        return "worse", change
    every_better = all(sign * (h - b) < 0 for h in head for b in base)
    if (q3 - q1) / mb > bound and not every_better:
        return "unresolved", change
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(mh - mb) > q3 - q1:
        return "better", change
    return "unchanged", change


def compare(base_path, head_path, spec) -> int:
    base = json.loads(Path(base_path).read_text())
    head = json.loads(Path(head_path).read_text())
    worse = 0
    print(f"{'metric':12s} {'workload':22s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s} {'change':>8s} {'bound':>6s}  verdict")
    for metric in spec["end_to_end"] + [{"name": "error_rate"}]:
        name = metric["name"]
        for workload, b in base["workloads"].items():
            h = head["workloads"].get(workload)
            if h is None:
                continue
            if name == "error_rate":
                rb = b["summary"]["error_rate"]["median"]
                rh = h["summary"]["error_rate"]["median"]
                result = "worse" if rh > rb else "unchanged"
                worse += result == "worse"
                print(f"{name:12s} {workload:22s} {rb:>32.4g} {rh:>32.4g} {'':>8s} {0:>6g}  {result}")
                continue
            bv = [r["metrics"][name] for r in b["runs"]]
            hv = [r["metrics"][name] for r in h["runs"]]
            result, change = verdict(bv, hv, metric["bound"], metric["better"] == "lower")
            worse += result == "worse"
            bq1, bm, bq3 = quartiles(bv)
            hq1, hm, hq3 = quartiles(hv)
            print(f"{name:12s} {workload:22s} "
                  f"{f'{bm:.4g} [{bq1:.4g}, {bq3:.4g}]':>32s} "
                  f"{f'{hm:.4g} [{hq1:.4g}, {hq3:.4g}]':>32s} "
                  f"{100 * change:>+7.1f}% {metric['bound']:>6g}  {result}")
    return 1 if worse else 0


# -- golden --------------------------------------------------------------------------


def record_golden(spec) -> int:
    golden = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in spec["workloads"]:
        result = child(w["name"], DEFAULT_SEED, "run")
        problems = [f"{op['op']}: {p}" for op in result["rounds"][0]["ops"] for p in op["problems"]]
        if problems:
            print("\n".join(problems))
            return 1
        golden["workloads"][w["name"]] = {
            op["op"]: op["check"] for op in result["rounds"][0]["ops"]
        }
        print(f"{w['name']}: {len(result['rounds'][0]['ops'])} ops recorded")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


# -- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro package (see README.md)."
    )
    parser.add_argument("--workload", help="run one workload (the command in BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measuring time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer metrics from a traced round")
    parser.add_argument("--runs", type=int, default=1, help="full run: runs per workload")
    parser.add_argument("--out", help="full run: write the results as JSON")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    if not SPEC_PATH.is_file():
        sys.exit(f"missing {SPEC_PATH}")
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    require_package()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    try:
        if args.record_golden:
            return record_golden(spec)
        if args.workload:
            return single_run(args, spec)
        return full_run(args, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # A terminated run unwinds like an interrupted one: subprocess.run then
    # kills and reaps the workload process it is waiting on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
