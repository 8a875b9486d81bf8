"""Harness tests for the end-to-end benchmark (``pytest benchmarks/e2e``).

Not part of the tier-1 suite: these start benchmark processes. Every
workload runs at ``--smoke`` scale (tiny inputs), in under 30 s in total.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_one(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def results():
    """One-workload result lines of every workload in both modes, and the
    trace file each traced run wrote."""
    lines, traces = {}, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_one(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            if trace:
                traces[workload] = json.loads(run.TRACE_PATH.read_text())[workload]
    return lines, traces


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(results, workload, trace, kind):
    line = results[0][workload, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_accounts_for_the_traced_wall(results, workload):
    # The traced round reproduced the untraced outputs (else failed > 0),
    # and span self times plus the root's cover the traced wall.
    trace = results[1][workload]
    covered = trace["root_self_s"] + sum(s["self_s"] for s in trace["spans"].values())
    assert covered == pytest.approx(trace["wall_s"], rel=0.05)
    assert trace["ops"] and all(op["s"] >= 0 for op in trace["ops"])


def test_replay_engages_only_where_predicted(results):
    layers = {w: results[0][w, 1]["metrics"] for w in WORKLOADS}
    assert layers["traffic-saturated"]["traffic.replay.event_ratio"]["value"] > 0
    assert layers["traffic-heated-flush"]["traffic.replay.event_ratio"]["value"] == 0
    assert layers["traffic-heated-flush"]["hotcache.passes"]["value"] > 0
    for workload in WORKLOADS:
        assert layers[workload]["trace.overhead_ratio"]["value"] > 0


def test_golden_mismatch_fails_the_op():
    result = {
        "seeded": False,
        "rounds": [{"ops": [{"op": "table1", "check": ["wrong"], "problems": []}]}],
    }
    failures = run.check("validate-quick", 7, result, smoke=False)
    assert len(failures) == 1 and "golden mismatch" in failures[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_one("traffic-saturated", 0, cwd=tmp_path,
                    script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _set(path, scale=None, failed=0):
    """A synthetic full-run file: ten runs with a 1% spread per metric."""
    scale = scale or {}
    runs = [
        {"metrics": {m["name"]: (1.0 + 0.001 * i) * scale.get(m["name"], 1.0)
                     for m in SPEC["end_to_end"]}}
        for i in range(10)
    ]
    doc = {"workloads": {"traffic-saturated": {
        "summary": {"error_rate": {"median": failed / 100}}, "runs": runs,
    }}}
    path.write_text(json.dumps(doc))
    return str(path)


def _verdicts(out):
    return {row.split()[0]: row.split()[-1] for row in out.splitlines()[1:]}


def test_compare_passes_identical_runs(tmp_path, capsys):
    base = _set(tmp_path / "base.json")
    assert run.main(["--compare", base, _set(tmp_path / "same.json")]) == 0
    assert set(_verdicts(capsys.readouterr().out).values()) == {"unchanged"}


@pytest.mark.parametrize("metric", ["host_ginstr", "wall_s"])
def test_compare_flags_a_slowdown_past_the_bound(tmp_path, capsys, metric):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == metric)
    base = _set(tmp_path / "base.json")
    slow = _set(tmp_path / "slow.json", {metric: 1.0 + max(0.2, bound + 0.05)})
    assert run.main(["--compare", base, slow]) == 1
    verdicts = _verdicts(capsys.readouterr().out)
    assert verdicts.pop(metric) == "worse"
    assert set(verdicts.values()) == {"unchanged"}


def test_compare_flags_a_rise_in_error_rate(tmp_path, capsys):
    base = _set(tmp_path / "base.json")
    assert run.main(["--compare", base, _set(tmp_path / "err.json", failed=1)]) == 1
    assert _verdicts(capsys.readouterr().out)["error_rate"] == "worse"
