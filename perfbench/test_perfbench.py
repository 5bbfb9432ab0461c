"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

SEED = 3
SMOKE_SECONDS = 1


def _cli(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    # serve-mixed runs and is checked here, but is not gated (see README).
    assert [w["name"] for w in spec["workloads"]] == [w for w in run.WORKLOADS if w != "serve-mixed"]
    for section, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert declared == catalogue
    assert spec["run_seconds"] == run.REFERENCE_SECONDS


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_each_workload_runs_and_prints_every_metric(workload):
    completed = _cli(workload, trace=1)
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    lines = completed.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("metric ")}
    for name, (unit, _) in {**run.END_TO_END, **run.TAIL, **run.PER_LAYER}.items():
        assert printed[name] == unit
    assert "failed_ratio" in printed
    # Traced self times of one process never exceed its traced wall time:
    # campaigns run on one thread, the daemon on one per connection.
    info = {
        line.split()[1]: json.loads(line.split(" = ", 1)[1])
        for line in lines
        if line.startswith("info ")
    }
    threads = 2 if workload.startswith("serve") else 1
    self_total = sum(result["metrics"][f"{layer}.self_s"]["value"] for layer in (
        "serve", "controllers", "bounds", "pomdp", "sim", "io", "linalg"))
    assert 0 < self_total <= threads * info["traced.measured_s"] + result["metrics"]["io.checkpoint_s"]["value"]


def test_corrupted_pin_fails_the_run(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUPS", 1)
    size = run.scaled_size("campaign-d2", SMOKE_SECONDS)
    corrupted = {"campaign-d2": {"seed": SEED, "size": size, "fingerprint": "0" * 64}}
    monkeypatch.setattr(run, "load_pins", lambda: corrupted)
    code = run.main(["--workload", "campaign-d2", "--seed", str(SEED), "--seconds", str(SMOKE_SECONDS)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def _inject(monkeypatch, fault: str):
    """Patch the load generator so ``fault`` strikes at its 20th decision."""
    import serve_load

    if fault == "kill":
        return 20
    decided = itertools.count(1)
    if fault == "malformed":
        original = serve_load.ServiceClient.request

        def request(self, op, **fields):
            response = original(self, op, **fields)
            if op == "decide" and next(decided) >= 20:
                response.pop("value", None)
            return response

        monkeypatch.setattr(serve_load.ServiceClient, "request", request)
    else:
        original = serve_load._decision_record

        def record(decision):
            if next(decided) == 20:
                raise KeyError("value")
            return original(decision)

        monkeypatch.setattr(serve_load, "_decision_record", record)
    return None


@pytest.mark.parametrize("fault", ["kill", "malformed", "load-error"])
def test_lost_work_counts_as_failed(monkeypatch, fault):
    """A killed daemon, a malformed reply and an error inside a load thread
    are each counted in ``failed_ratio``, never silently dropped."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUPS", 1)
    kill_after_decides = _inject(monkeypatch, fault)
    run.pin_blas_threads()
    workdir = Path(".perfbench") / f"test-{fault}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run.run_workload(
            "serve-mixed", SEED, 2, False, ROOT, workdir, pins={}, kill_after_decides=kill_after_decides
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert not outcome.correct
    assert outcome.failed < outcome.attempted
    errors = outcome.info.get("errors", [])
    if fault == "kill":
        # The decide in flight, the sessions the stream never ran, and the
        # checks a dead daemon cannot pass are all counted.
        assert outcome.ops_failed >= 2
        assert any(not passed and "exit code" in message for passed, message in outcome.checks)
    elif fault == "malformed":
        assert any("malformed decide response" in error for error in errors)
        assert any(not passed and "daemon counted" in message for passed, message in outcome.checks)
    else:
        # The stopped stream's own failure plus every session it never began.
        size = run.scaled_size("serve-mixed", 2)
        assert any("stream stopped: KeyError" in error for error in errors)
        assert outcome.ops_failed >= 2 and outcome.ops_attempted >= 2 * size


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-d1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
