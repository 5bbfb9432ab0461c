"""Closed-loop load against the policy daemon over its unix socket.

One load-generator process drives at most two connections, one thread
each.  Every recovery agent waits for a decision before it acts, as
Section 4's controller is driven: open a session, hand it the
detection-time monitor outputs, then decide, execute the action on the
simulated system, observe, and decide again until the decision terminates.

* ``serve-mixed`` (62-state model): one connection runs a fixed number of
  refining sessions; the other runs as many read-only (``refine=false``)
  sessions.  The refining stream's decisions are deterministic for a seed,
  because only it writes the bound set.
* ``serve-300k`` (300,002-state model): both connections run a fixed
  script of read-only one-decision sessions, so both streams are
  deterministic.  The model is built by a separate process and never held
  by the load generator.

Set-up is timed from spawning the daemon until its ``ready`` op answers
true, over several cold starts; the last daemon serves the load.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import cpu_seconds, median, peak_rss_mb, program_env, recertify, windowed_percentile
from inputs import environment, fault_schedule, passive_action, tiered_system
from repro.exceptions import ServeError
from repro.serve.client import ServiceClient

#: Latency charged to a failed or refused decision: it misses every limit.
FAILED_LATENCY_MS = 120_000.0

#: Decisions one serve-mixed session may take before it counts as stuck.
MAX_SESSION_DECIDES = 50

#: Seconds a daemon gets to become ready, and to drain and exit.
READY_TIMEOUT = 150.0
EXIT_TIMEOUT = 60.0

#: Per-request socket timeout of the load generator's clients.
REQUEST_TIMEOUT = 120.0


class StreamBroken(Exception):
    """The connection failed; the stream cannot continue."""


class DaemonFailed(Exception):
    """The daemon exited or never became ready."""


@dataclass
class ServeSpec:
    replicas: int
    mixed: bool
    sessions: int  # per connection


class Daemon:
    """One policy-daemon process, started cold and timed until ready."""

    def __init__(self, root: Path, workdir: Path, archive: Path, tag: str, spans_out: Path | None):
        self.socket = str(workdir / f"{tag}.sock")
        self.bounds = workdir / f"{tag}-bounds.npz"
        serve_args = [
            "--model", str(archive),
            "--socket", self.socket,
            "--bounds", str(self.bounds),
            "--checkpoint-interval", "0",
            "--drain-timeout", "30",
        ]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.serve", *serve_args]
        else:
            launcher = str(Path(__file__).resolve().parent / "launcher.py")
            command = [sys.executable, launcher, "--spans-out", str(spans_out), "--", *serve_args]
        self._log = open(workdir / f"{tag}.log", "w", encoding="utf-8")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=program_env(root), stdout=self._log, stderr=subprocess.STDOUT
        )
        try:
            self.setup_s = self._wait_ready(started)
        except DaemonFailed:
            self._log.close()
            raise

    def client(self):
        return ServiceClient(self.socket, timeout=REQUEST_TIMEOUT)

    def _wait_ready(self, started: float) -> float:
        deadline = started + READY_TIMEOUT
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise DaemonFailed(f"daemon exited with {self.process.returncode} during start")
            try:
                with ServiceClient(self.socket, timeout=5.0) as client:
                    if client.ready():
                        return time.perf_counter() - started
            except (OSError, ServeError, ValueError):
                pass
            time.sleep(0.002)
        self.kill()
        raise DaemonFailed("daemon not ready in time")

    def stop(self) -> int | None:
        """Graceful shutdown; returns the exit code (None if it had to be killed)."""
        if self.process.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
            except (OSError, ServeError, ValueError):
                pass
        try:
            code = self.process.wait(timeout=EXIT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        self._log.close()
        return code

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


@dataclass
class Stream:
    """One connection's closed-loop traffic and what it observed."""

    name: str
    refine: bool
    attempted: int = 0
    failed: int = 0
    sessions_begun: int = 0
    sessions_done: int = 0
    decides_ok: int = 0
    latencies_ms: list = field(default_factory=list)  # [completed at, ms] per decide
    rtts: dict = field(default_factory=dict)  # session id -> decide round trips (s)
    records: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    busy_s: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{self.name}: {message}")


def _request(client, stream: Stream, op: str, **fields):
    """One request; ``(response, seconds)`` when ok, ``None`` when refused."""
    stream.attempted += 1
    started = time.perf_counter()
    try:
        response = client.request(op, **fields)
    except (OSError, ValueError, ServeError) as error:  # socket error, timeout, bad frame
        stream.fail(f"{op} raised {type(error).__name__}: {error}")
        raise StreamBroken from error
    seconds = time.perf_counter() - started
    if not isinstance(response, dict) or response.get("ok") is not True:
        stream.fail(f"{op} refused: {response}")
        return None
    return response, seconds


def _well_formed(decision: dict, n_actions: int) -> bool:
    action = decision.get("action")
    value = decision.get("value")
    return (
        isinstance(action, int)
        and 0 <= action < n_actions
        and isinstance(decision.get("terminate"), bool)
        and decision.get("done") == decision.get("terminate")
        and isinstance(decision.get("steps"), int)
        and "value" in decision
        and (value is None or isinstance(value, float))
    )


def _decide(client, stream: Stream, sid: str, n_actions: int):
    try:
        answered = _request(client, stream, "decide", session=sid)
    except StreamBroken:
        stream.latencies_ms.append([time.perf_counter(), FAILED_LATENCY_MS])
        raise
    if answered is None:
        stream.latencies_ms.append([time.perf_counter(), FAILED_LATENCY_MS])
        return None
    decision, seconds = answered
    if not _well_formed(decision, n_actions):
        stream.fail(f"malformed decide response {decision}")
        stream.latencies_ms.append([time.perf_counter(), FAILED_LATENCY_MS])
        return None
    stream.decides_ok += 1
    stream.latencies_ms.append([time.perf_counter(), 1000.0 * seconds])
    stream.rtts.setdefault(sid, []).append(seconds)
    return decision


def _decision_record(decision: dict) -> list:
    value = decision["value"]
    return [decision["action"], decision["terminate"], None if value is None else round(value, 6)]


def _open(client, stream: Stream, refine: bool) -> str | None:
    answered = _request(client, stream, "open", refine=refine)
    if answered is None:
        return None
    return str(answered[0]["session"])


def _closed_loop_session(client, stream: Stream, model, fault: int, seed: int, stream_id: int, index: int, passive: int, on_decide) -> None:
    stream.sessions_begun += 1
    env = environment(model, fault, seed, stream_id, index)
    sid = _open(client, stream, stream.refine)
    if sid is None:
        return
    decisions = []
    if _request(client, stream, "observe", session=sid, action=passive, observation=int(env.initial_observation())):
        for _ in range(MAX_SESSION_DECIDES):
            decision = _decide(client, stream, sid, model.pomdp.n_actions)
            if decision is None:
                break
            on_decide()
            decisions.append(_decision_record(decision))
            if decision["terminate"]:
                stream.sessions_done += 1
                break
            result = env.execute(decision["action"])
            if not _request(client, stream, "observe", session=sid, action=decision["action"], observation=int(result.observation)):
                break
        else:
            stream.fail(f"session {sid} did not terminate in {MAX_SESSION_DECIDES} decisions")
    stream.records.append([index, fault, decisions])
    _request(client, stream, "close", session=sid)


def _one_step_session(client, stream: Stream, fault: int, observation: int, index: int, passive: int, n_actions: int) -> None:
    stream.sessions_begun += 1
    sid = _open(client, stream, False)
    if sid is None:
        return
    decisions = []
    if _request(client, stream, "observe", session=sid, action=passive, observation=observation):
        decision = _decide(client, stream, sid, n_actions)
        if decision is not None:
            decisions.append(_decision_record(decision))
            stream.sessions_done += 1
    stream.records.append([index, fault, decisions])
    _request(client, stream, "close", session=sid)


def _run_stream(daemon: Daemon, stream: Stream, body, planned: int, started: float) -> None:
    """Run ``body(client)`` on a fresh connection; count what a failure drops.

    A broken connection has already counted its failed request.  Any other
    error (a failed connect, or a fault in the load generator itself) counts
    as one more failed operation.  Either way every planned session the
    stream never began counts as attempted and failed.
    """
    try:
        with daemon.client() as client:
            body(client)
    except StreamBroken:
        pass
    except Exception as error:  # noqa: BLE001 - a stopped stream is a failure, never silent
        stream.attempted += 1
        stream.fail(f"stream stopped: {type(error).__name__}: {error}")
    finally:
        missed = planned - stream.sessions_begun
        stream.attempted += missed
        stream.failed += missed
        stream.busy_s = time.perf_counter() - started


@dataclass
class LoadResult:
    streams: list
    wall_s: float

    @property
    def latencies_ms(self) -> list:
        """Decide round trips of both connections, in completion order."""
        stamped = sorted(entry for stream in self.streams for entry in stream.latencies_ms)
        return [latency for _, latency in stamped]

    @property
    def decides_ok(self) -> int:
        return sum(stream.decides_ok for stream in self.streams)

    @property
    def sessions_done(self) -> int:
        return sum(stream.sessions_done for stream in self.streams)


def drive(spec: ServeSpec, daemon: Daemon, seed: int, system=None, script=None, kill_after_decides: int | None = None) -> LoadResult:
    """Run both connections to completion against ``daemon``."""
    decided = [0]
    lock = threading.Lock()

    def on_decide() -> None:
        if kill_after_decides is None:
            return
        with lock:
            decided[0] += 1
            if decided[0] == kill_after_decides:
                os.kill(daemon.process.pid, signal.SIGKILL)

    if spec.mixed:
        model = system.model
        passive = passive_action(model)
        refining = Stream("refining", refine=True)
        readonly = Stream("read-only", refine=False)

        plans = []
        for stream_id, stream in enumerate((refining, readonly)):
            schedule = fault_schedule(system, seed, stream_id, spec.sessions)

            def body(client, stream=stream, stream_id=stream_id, schedule=schedule) -> None:
                for index, fault in enumerate(schedule):
                    _closed_loop_session(client, stream, model, fault, seed, stream_id, index, passive, on_decide)

            plans.append((stream, body, spec.sessions))
    else:
        passive = script["passive_action"]
        n_actions = script["n_actions"]
        plans = []
        for stream_id, sessions in enumerate(script["streams"]):
            stream = Stream(f"read-only-{stream_id}", refine=False)

            def body(client, stream=stream, sessions=sessions) -> None:
                for index, (fault, observation) in enumerate(sessions):
                    _one_step_session(client, stream, fault, observation, index, passive, n_actions)

            plans.append((stream, body, len(sessions)))

    started = time.perf_counter()
    threads = [
        threading.Thread(target=_run_stream, args=(daemon, stream, body, planned, started), name=stream.name)
        for stream, body, planned in plans
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    return LoadResult(streams=[stream for stream, _, _ in plans], wall_s=wall)


def prepare_inputs(spec: ServeSpec, root: Path, workdir: Path, seed: int):
    """Write the model archive; return ``(archive, system or None, script or None)``."""
    archive = workdir / "model.npz"
    if spec.mixed:
        from repro.io import save_recovery_model

        system = tiered_system(spec.replicas)
        save_recovery_model(archive, system.model)
        return archive, system, None
    script_path = workdir / "sessions.json"
    subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve().parent / "inputs.py"),
            "--replicas", str(spec.replicas), "--seed", str(seed),
            "--sessions", str(spec.sessions), "--archive", str(archive),
            "--script", str(script_path),
        ],
        cwd=root, env=program_env(root), check=True, timeout=170,
    )
    with open(script_path, encoding="utf-8") as handle:
        return archive, None, json.load(handle)


@dataclass
class ServePass:
    """One daemon serving one load, with everything measured around it."""

    setup_s: list
    load: LoadResult
    peak_rss_mb: float
    bound_vectors: int
    daemon_cpu_s: float  # CPU time the daemon used while serving the load
    checks: list  # (passed, message)
    spans_path: Path | None


def serve_pass(spec: ServeSpec, root: Path, workdir: Path, seed: int, setups: int, traced: bool, inputs, kill_after_decides: int | None = None) -> ServePass:
    """Cold-start ``setups`` daemons (set-up time each), serve load on the last."""
    archive, system, script = inputs
    tag = "traced" if traced else "untraced"
    setup_s = []
    for index in range(setups - 1):
        daemon = Daemon(root, workdir, archive, f"{tag}-setup{index}", None)
        setup_s.append(daemon.setup_s)
        daemon.stop()
    spans_path = workdir / "daemon-spans.json.gz" if traced else None
    daemon = Daemon(root, workdir, archive, f"{tag}-serve", spans_path)
    setup_s.append(daemon.setup_s)
    checks = []
    try:
        cpu_before = cpu_seconds(daemon.process.pid)
        load = drive(spec, daemon, seed, system=system, script=script, kill_after_decides=kill_after_decides)
        rss = 0.0
        vectors = 0
        cpu = 0.0
        try:
            cpu = cpu_seconds(daemon.process.pid) - cpu_before
            rss = peak_rss_mb(daemon.process.pid)
            with daemon.client() as client:
                stats = client.stats()
            vectors = int(stats["bound_vectors"])
            checks.append((
                stats["decisions"] == load.decides_ok,
                f"daemon counted {stats['decisions']} decisions, clients got {load.decides_ok}",
            ))
        except Exception as error:  # noqa: BLE001 - any failure here is a failed check
            checks.append((False, f"daemon stats unavailable: {type(error).__name__}: {error}"))
    finally:
        code = daemon.stop()
    checks.append((code == 0, f"daemon exit code {code}"))
    if spec.mixed and code == 0:
        checks.append(recertify(daemon.bounds, system.model))
    return ServePass(setup_s, load, rss, vectors, cpu, checks, spans_path)


def end_to_end(run: ServePass) -> dict:
    load = run.load
    latencies = load.latencies_ms
    return {
        "setup_s": median(run.setup_s),
        "decide_ms.p50": windowed_percentile(latencies, 50.0),
        "decide_ms.p95": windowed_percentile(latencies, 95.0),
        "decide_ms.p99": windowed_percentile(latencies, 99.0),
        "decisions_per_s": load.decides_ok / load.wall_s,
        "episodes_per_s": load.sessions_done / load.wall_s,
        "peak_rss_mb": run.peak_rss_mb,
    }


def layer_metrics(run: ServePass) -> dict:
    """Per-layer metrics from the traced daemon's spans and the client clocks."""
    from tracing import SpanTable, load_spans

    table = SpanTable(load_spans(run.spans_path))
    decides = table.named("serve.decide")
    by_session: dict = {}
    for span in sorted(decides, key=lambda span: span.start):
        by_session.setdefault(span.session, []).append(span.seconds)
    wire = []
    for stream in run.load.streams:
        for sid, rtts in stream.rtts.items():
            wire.extend(rtt - inner for rtt, inner in zip(rtts, by_session.get(sid, ())))
    requests = table.named("serve.request")
    metrics = table.program_metrics(len(decides))
    metrics.update({
        "serve.wire_ms.p50": 1000.0 * median(wire),
        "serve.lock_wait_ms.p95": table.self_p_ms("serve.decide", 95.0),
        "serve.observe_ms.p50": table.p50_ms("serve.observe"),
        "serve.requests": len(requests),
        "serve.errors": sum(1 for span in requests if span.error or not span.info),
        "bounds.set_size": run.bound_vectors,
        "sim.episode_ms.p50": 0.0,
        "sim.execute.busy_s": 0.0,
        "sim.self.busy_s": 0.0,
        "trace.spans": len(table.spans),
    })
    return metrics
