"""Table 1 campaign workloads: set-up, one serial campaign, and their checks.

Each pass runs :mod:`campaign_child` in its own process, so the peak RSS
reported is the campaign process's and the tracer, when on, wraps only
that process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from common import median, program_env, windowed_percentile

#: Serial campaigns stay under the per-run limit with room for set-up.
CHILD_TIMEOUT = 170.0


@dataclass
class CampaignSpec:
    controller: str
    injections: int


@dataclass
class CampaignPass:
    result: dict | None
    spans_path: Path | None
    error: str | None


def campaign_pass(spec: CampaignSpec, root: Path, workdir: Path, seed: int, setups: int, traced: bool) -> CampaignPass:
    spans_path = workdir / "campaign-spans.json.gz" if traced else None
    command = [
        sys.executable, str(Path(__file__).resolve().parent / "campaign_child.py"),
        "--controller", spec.controller, "--injections", str(spec.injections),
        "--seed", str(seed), "--setups", str(setups),
        "--bounds-out", str(workdir / f"campaign-bounds-{'traced' if traced else 'untraced'}.npz"),
    ]
    if spans_path is not None:
        command += ["--spans-out", str(spans_path)]
    try:
        completed = subprocess.run(
            command, cwd=root, env=program_env(root), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return CampaignPass(None, None, f"campaign process exceeded {CHILD_TIMEOUT} s")
    if completed.returncode != 0:
        tail = completed.stderr.strip().splitlines()[-5:]
        return CampaignPass(None, None, f"campaign process exited {completed.returncode}: {tail}")
    return CampaignPass(json.loads(completed.stdout.strip().splitlines()[-1]), spans_path, None)


def checks(spec: CampaignSpec, run: CampaignPass) -> list:
    """``(passed, message)`` for every correctness check of one pass."""
    if run.result is None:
        return [(False, run.error)]
    result = run.result
    found = [
        (result["episodes"] == spec.injections, f"{result['episodes']} of {spec.injections} episodes ran"),
        (result["step_cap_hits"] == 0, f"{result['step_cap_hits']} episodes hit the step cap"),
        tuple(result["recertified"]),
    ]
    if run.spans_path is None:
        found.append((
            len(result["decide_s"]) == result["decisions"],
            f"{len(result['decide_s'])} timed decisions, {result['decisions']} counted by episodes",
        ))
    return found


def end_to_end(run: CampaignPass, decide_s: list) -> dict:
    result = run.result
    latencies_ms = [1000.0 * seconds for seconds in decide_s]
    return {
        "setup_s": median(result["setup_s"]),
        "decide_ms.p50": windowed_percentile(latencies_ms, 50.0),
        "decide_ms.p95": windowed_percentile(latencies_ms, 95.0),
        "decide_ms.p99": windowed_percentile(latencies_ms, 99.0),
        "decisions_per_s": result["decisions"] / result["wall_s"],
        "episodes_per_s": result["episodes"] / result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def traced_decide_s(table) -> list:
    return [span.seconds for span in table.named("controllers.session_decide")]


def layer_metrics(run: CampaignPass, table) -> dict:
    result = run.result
    engine_s = sum(
        span.seconds
        for name in ("controllers.session_decide", "controllers.session_observe")
        for span in table.named(name)
    )
    metrics = table.program_metrics(result["decisions"])
    metrics.update({
        "serve.wire_ms.p50": 0.0,
        "serve.lock_wait_ms.p95": 0.0,
        "serve.observe_ms.p50": 0.0,
        "serve.requests": 0,
        "serve.errors": 0,
        "bounds.set_size": result["bound_set_size"],
        "sim.episode_ms.p50": table.p50_ms("sim.episode"),
        "sim.execute.busy_s": table.busy_s("sim.execute"),
        "sim.self.busy_s": table.busy_s("sim.campaign") - engine_s,
        "trace.spans": len(table.spans),
    })
    return metrics
