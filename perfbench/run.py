"""The repository benchmark: seeded workloads driven from outside the program.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-mixed --seed 2006 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``serve-mixed`` — the policy daemon on the 62-state tiered model, one
  refining and one read-only connection (runs and is checked, but is not
  listed in ``BENCHMARK.json``: see the README);
* ``serve-300k`` — the daemon on the 300,002-state tiered model, two
  read-only connections;
* ``campaign-d1`` / ``campaign-d2`` — the Table 1 EMN zombie campaign with
  the bounded controller at lookahead depth 1 / 2, serial.

Work is sized from ``--seconds``: at :data:`REFERENCE_SECONDS` each workload
runs its reference size (``campaign-d1`` then runs the 1,000-injection
campaign of the repository's pinned contract fingerprint) and other values
scale it linearly.  With ``--trace 0`` the last line reports the end-to-end
metrics; with ``--trace 1`` the workload runs once untraced and once with
the layer tracer, and the last line reports the per-layer metrics plus the
tracing overhead.  Every response and output is checked; the exit code is
1 when any check fails and 2 when the working directory is not a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import DEFAULT_SEED, digest, load_pins, machine_state, pin_blas_threads

REFERENCE_SECONDS = 15

#: Cold starts per run; ``setup_s`` is their median.
SETUPS = 3

END_TO_END = {
    "setup_s": ("s", "lower"),
    "decide_ms.p50": ("ms", "lower"),
    "decisions_per_s": ("1/s", "higher"),
    "episodes_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Printed by every run but not gated: on this shared 2-CPU host the tail
#: percentiles of one run moved by up to a factor of two with host load
#: (serve-mixed p95 13-38 ms over one hour), far beyond any usable bound.
TAIL = {"decide_ms.p95": ("ms", "lower"), "decide_ms.p99": ("ms", "lower")}

PER_LAYER = {
    "serve.wire_ms.p50": ("ms", "lower"),
    "serve.lock_wait_ms.p95": ("ms", "lower"),
    "serve.observe_ms.p50": ("ms", "lower"),
    "serve.requests": ("count", "higher"),
    "serve.errors": ("count", "lower"),
    "controllers.decide_ms.p50": ("ms", "lower"),
    "controllers.self_ms.p50": ("ms", "lower"),
    "controllers.bootstrap_s": ("s", "lower"),
    "bounds.refine_ms.p50": ("ms", "lower"),
    "bounds.refine.busy_s": ("s", "lower"),
    "bounds.refine.calls": ("count", "lower"),
    "bounds.refine.added_ratio": ("ratio", "higher"),
    "bounds.value_batch.calls": ("count", "lower"),
    "bounds.value_batch.rows": ("count", "lower"),
    "bounds.value_batch.busy_s": ("s", "lower"),
    "bounds.set_size": ("count", "lower"),
    "bounds.ra_bound_s": ("s", "lower"),
    "pomdp.expand_ms.p50": ("ms", "lower"),
    "pomdp.expand.busy_s": ("s", "lower"),
    "pomdp.tree.nodes": ("count", "lower"),
    "pomdp.tree.leaf_evaluations": ("count", "lower"),
    "pomdp.update_belief_ms.p50": ("ms", "lower"),
    "pomdp.update_belief.failures": ("count", "lower"),
    "sim.episode_ms.p50": ("ms", "lower"),
    "sim.execute.busy_s": ("s", "lower"),
    "sim.self.busy_s": ("s", "lower"),
    "io.load_model_s": ("s", "lower"),
    "io.checkpoint_s": ("s", "lower"),
    "linalg.ops.calls_per_decision": ("count", "lower"),
    "linalg.ops.busy_s": ("s", "lower"),
    **{
        f"{layer}.self_s": ("s", "lower")
        for layer in ("serve", "controllers", "bounds", "pomdp", "sim", "io", "linalg")
    },
    "trace.spans": ("count", "lower"),
    "trace.decide_ms.p50.traced": ("ms", "lower"),
    "trace.decide_ms.p50.untraced": ("ms", "lower"),
    "trace.episodes_per_s.traced": ("1/s", "higher"),
    "trace.episodes_per_s.untraced": ("1/s", "higher"),
}

#: Workload -> (kind, parameters, reference size at REFERENCE_SECONDS).
WORKLOADS = {
    "serve-mixed": ("serve", {"replicas": 10, "mixed": True}, 60),
    "serve-300k": ("serve", {"replicas": 50_000, "mixed": False}, 50),
    "campaign-d1": ("campaign", {"controller": "bounded (depth 1)"}, 1000),
    "campaign-d2": ("campaign", {"controller": "bounded (depth 2)"}, 18),
}


def scaled_size(workload: str, seconds: int) -> int:
    reference = WORKLOADS[workload][2]
    return max(1, round(reference * seconds / REFERENCE_SECONDS))


@dataclass
class Outcome:
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # (passed, message)
    ops_attempted: int = 0
    ops_failed: int = 0
    info: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.ops_attempted + len(self.checks)

    @property
    def failed(self) -> int:
        return self.ops_failed + sum(1 for passed, _ in self.checks if not passed)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _pin_checks(pins: dict, workload: str, seed: int, size: int, key: str, observed) -> list:
    """A check against the pinned value, when one is pinned for ``(seed, size)``."""
    entry = pins.get(workload)
    if not entry or entry.get("seed") != seed or entry.get("size") != size:
        return []
    expected = entry[key]
    return [(observed == expected, f"{workload} {key} {observed!r}, pinned {expected!r}")]


def _overhead(outcome: Outcome, traced: dict) -> None:
    """Tracing overhead: the traced pass's figures beside the untraced ones."""
    for name in ("decide_ms.p50", "episodes_per_s"):
        outcome.per_layer[f"trace.{name}.traced"] = traced[name]
        outcome.per_layer[f"trace.{name}.untraced"] = outcome.end_to_end[name]


def _serve(workload: str, seed: int, size: int, trace: bool, root: Path, workdir: Path, pins: dict, kill_after_decides: int | None) -> Outcome:
    import serve_load

    params = WORKLOADS[workload][1]
    spec = serve_load.ServeSpec(params["replicas"], params["mixed"], size)
    outcome = Outcome()
    inputs = serve_load.prepare_inputs(spec, root, workdir, seed)
    passes = [("untraced", False, SETUPS)] + ([("traced", True, 1)] if trace else [])
    for label, traced, setups in passes:
        try:
            run = serve_load.serve_pass(
                spec, root, workdir, seed, setups, traced, inputs,
                kill_after_decides=None if traced else kill_after_decides,
            )
        except serve_load.DaemonFailed as error:
            outcome.checks.append((False, f"{label} pass: {error}"))
            return outcome
        outcome.checks.extend((passed, f"{label}: {message}") for passed, message in run.checks)
        for stream in run.load.streams:
            outcome.ops_attempted += stream.attempted
            outcome.ops_failed += stream.failed
            outcome.info.setdefault("errors", []).extend(stream.errors)
        streams = run.load.streams
        if spec.mixed:
            observed = digest(streams[0].records)
            outcome.checks += _pin_checks(pins, workload, seed, size, "refining_digest", observed)
            outcome.info[f"{label}.refining_digest"] = observed
        else:
            observed = [digest(stream.records) for stream in streams]
            outcome.checks += _pin_checks(pins, workload, seed, size, "readonly_digests", observed)
            outcome.info[f"{label}.readonly_digests"] = observed
        e2e = serve_load.end_to_end(run)
        latencies = run.load.latencies_ms
        outcome.info[f"{label}.decides"] = len(latencies)
        outcome.info[f"{label}.sessions"] = run.load.sessions_done
        outcome.info[f"{label}.measured_s"] = run.load.wall_s
        outcome.info[f"{label}.stream_busy_s"] = [stream.busy_s for stream in streams]
        outcome.info[f"{label}.daemon_cpu_s"] = run.daemon_cpu_s
        outcome.info[f"{label}.setup_samples_s"] = run.setup_s
        if not traced:
            outcome.end_to_end = e2e
        else:
            outcome.per_layer = serve_load.layer_metrics(run)
            _overhead(outcome, e2e)
            outcome.spans.append(run.spans_path)
    return outcome


def _campaign(workload: str, seed: int, size: int, trace: bool, root: Path, workdir: Path, pins: dict) -> Outcome:
    import campaigns
    from tracing import SpanTable, load_spans

    spec = campaigns.CampaignSpec(WORKLOADS[workload][1]["controller"], size)
    outcome = Outcome()
    passes = [("untraced", False, SETUPS)] + ([("traced", True, 1)] if trace else [])
    for label, traced, setups in passes:
        run = campaigns.campaign_pass(spec, root, workdir, seed, setups, traced)
        outcome.checks.extend((passed, f"{label}: {message}") for passed, message in campaigns.checks(spec, run))
        if run.result is None:
            return outcome
        result = run.result
        outcome.ops_attempted += result["episodes"]
        outcome.ops_failed += result["step_cap_hits"]
        outcome.checks += _pin_checks(pins, workload, seed, size, "fingerprint", result["fingerprint"])
        outcome.info[f"{label}.fingerprint"] = result["fingerprint"]
        outcome.info[f"{label}.decisions"] = result["decisions"]
        outcome.info[f"{label}.recovered"] = result["recovered"]
        outcome.info[f"{label}.measured_s"] = result["wall_s"]
        outcome.info[f"{label}.setup_samples_s"] = result["setup_s"]
        if not traced:
            outcome.end_to_end = campaigns.end_to_end(run, result["decide_s"])
        else:
            table = SpanTable(load_spans(run.spans_path))
            outcome.per_layer = campaigns.layer_metrics(run, table)
            _overhead(outcome, campaigns.end_to_end(run, campaigns.traced_decide_s(table)))
            outcome.spans.append(run.spans_path)
    return outcome


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: Path, workdir: Path, pins: dict | None = None, kill_after_decides: int | None = None) -> Outcome:
    """Run one workload; the Python entry point the benchmark's tests use."""
    pins = load_pins() if pins is None else pins
    size = scaled_size(workload, seconds)
    if WORKLOADS[workload][0] == "serve":
        outcome = _serve(workload, seed, size, trace, root, workdir, pins, kill_after_decides)
    else:
        outcome = _campaign(workload, seed, size, trace, root, workdir, pins)
    outcome.info["size"] = size
    return outcome


def _metrics(values: dict, catalogue: dict) -> dict:
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, (unit, _) in catalogue.items()}


def report(outcome: Outcome, trace: bool) -> dict:
    """The result object of the last output line; every metric is a number."""
    metrics = _metrics(outcome.per_layer, PER_LAYER) if trace else _metrics(outcome.end_to_end, END_TO_END)
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} is not a checkout of the repository (no src/repro)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(root / "src"))
    caller_blas_threads = pin_blas_threads()

    # Relative to the checkout root, the working directory of every process
    # the benchmark starts: unix-socket paths must stay under ~107 bytes.
    state = Path(".perfbench")
    workdir = state / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    machine = machine_state(root, caller_blas_threads)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root, workdir)
        kept = []
        for spans in outcome.spans:
            target = state / "traces" / f"{args.workload}-seed{args.seed}-{spans.name}"
            target.parent.mkdir(exist_ok=True)
            shutil.move(str(spans), target)
            kept.append(str(target))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["loadavg_after"] = list(os.getloadavg())

    result = report(outcome, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "checks": outcome.checks,
        "info": outcome.info,
        "traces": kept,
        "result": result,
    }
    results = state / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"machine {json.dumps(machine, sort_keys=True)}")
    for passed, message in outcome.checks:
        print(f"check {'ok  ' if passed else 'FAIL'} {message}")
    for key, value in sorted(outcome.info.items()):
        print(f"info {key} = {json.dumps(value)}")
    printed = _metrics(outcome.end_to_end, {**END_TO_END, **TAIL})
    if args.trace:
        printed.update(result["metrics"])
    for name, entry in printed.items():
        print(f"metric {name} = {entry['value']} {entry['unit']}")
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"metric failed_ratio = {ratio} ratio ({outcome.failed} of {outcome.attempted})")
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
