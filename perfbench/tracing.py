"""Span tracing of the program's layers from the benchmark's own files.

The program has no tracing of its own that this benchmark relies on.
Instead, :meth:`Tracer.install` replaces the public entry points of each
layer with wrappers that record one span per call: name, start, end, parent
span, the session it served, the run phase, and a little per-call detail
(tree sizes, rows evaluated, whether a refinement was kept).  Callers import
functions by name (``from repro.bounds.incremental import refine_at``), so a
function is rebound in every loaded ``repro`` module that holds it, not only
where it is defined; methods are replaced on their class.

Spans stay in memory and are written out once, when the run ends.  A layer's
self time is the duration of its spans minus the part covered by their
child spans, so the self times of one thread sum to its traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from common import median, percentile

LAYERS = ("serve", "controllers", "bounds", "pomdp", "sim", "io", "linalg")

#: Eq. 7 accessors of ``repro.linalg.ops`` counted as linalg work.
LINALG_OPS = ("predict", "transition_matvec", "observation_matrix_dense", "reward_row")


def _session_arg(args, kwargs):
    return kwargs.get("session_id", args[1] if len(args) > 1 else None)


_episode_ids = itertools.count()


def _new_episode(args, kwargs):
    return f"episode-{next(_episode_ids)}"


def _tree_info(args, result):
    return [result.nodes, result.leaf_evaluations]


def _refine_info(args, result):
    return bool(result.added)


def _rows_info(args, result):
    shape = getattr(args[1], "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _ok_info(args, result):
    return bool(result.get("ok"))


@dataclass(frozen=True)
class Target:
    """One layer entry point: span name, defining module, attribute path."""

    span: str
    module: str
    attribute: str
    session_of: object = None
    info_of: object = None


TARGETS = (
    Target("serve.request", "repro.serve.protocol", "handle_line", info_of=_ok_info),
    Target("serve.open", "repro.serve.service", "PolicyService.open_session"),
    Target("serve.observe", "repro.serve.service", "PolicyService.observe", _session_arg),
    Target("serve.decide", "repro.serve.service", "PolicyService.decide", _session_arg),
    Target("serve.close", "repro.serve.service", "PolicyService.close_session", _session_arg),
    Target("io.load_model", "repro.io", "load_recovery_model"),
    Target("io.checkpoint", "repro.serve.service", "PolicyService.checkpoint"),
    Target("controllers.session_decide", "repro.controllers.engine", "RecoverySession.decide"),
    Target("controllers.session_observe", "repro.controllers.engine", "RecoverySession.observe"),
    Target("controllers.engine_decide", "repro.controllers.bounded", "BoundedPolicyEngine.decide"),
    Target("controllers.bootstrap", "repro.controllers.bootstrap", "bootstrap_bounds"),
    Target("bounds.refine", "repro.bounds.incremental", "refine_at", info_of=_refine_info),
    Target("bounds.value_batch", "repro.bounds.vector_set", "BoundVectorSet.value_batch", info_of=_rows_info),
    Target("bounds.ra_bound", "repro.bounds.ra_bound", "ra_bound_vector"),
    Target("pomdp.expand", "repro.pomdp.tree", "expand_tree", info_of=_tree_info),
    Target("pomdp.update_belief", "repro.pomdp.belief", "update_belief"),
    Target("sim.campaign", "repro.sim.campaign", "run_campaign"),
    Target("sim.episode", "repro.sim.campaign", "run_episode", _new_episode),
    Target("sim.execute", "repro.sim.environment", "RecoveryEnvironment.execute"),
    *(Target(f"linalg.{op}", "repro.linalg.ops", op) for op in LINALG_OPS),
)

#: Modules whose by-name imports must be loaded before rebinding.
CALLER_MODULES = (
    "repro.serve.__main__",
    "repro.serve.daemon",
    "repro.experiments.table1",
    "repro.sim.parallel",
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, function, target: Target):
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        tracer = self
        name = target.span
        session_of = target.session_of
        info_of = target.info_of

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent, session = stack[-1] if stack else (-1, None)
            if session_of is not None:
                session = session_of(args, kwargs) or session
            span_id = next(ids)
            stack.append((span_id, session))
            result = error = None
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                info = None
                if info_of is not None and error is None:
                    info = info_of(args, result)
                spans.append(
                    (span_id, parent, name, start, end, session, tracer.phase, info, error)
                )

        return traced

    def install(self) -> None:
        """Wrap every target, rebinding functions wherever they were imported."""
        for module_name in CALLER_MODULES:
            importlib.import_module(module_name)
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attribute = target.attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attribute, self.wrap(owner.__dict__[attribute], target))
                continue
            original = getattr(module, attribute)
            traced = self.wrap(original, target)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                if getattr(loaded, attribute, None) is original:
                    setattr(loaded, attribute, traced)

    def enter_phase_on(self, owner, attribute: str, phase: str) -> None:
        """Switch :attr:`phase` when ``owner.attribute`` is first called."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def switching(*args, **kwargs):
            tracer.phase = phase
            return original(*args, **kwargs)

        setattr(owner, attribute, switching)

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle, separators=(",", ":"))


def load_spans(path) -> list[tuple]:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)["spans"]]


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int
    name: str
    start: float
    end: float
    session: str | None
    phase: str
    info: object
    error: str | None
    self_seconds: float

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanTable:
    """Spans of one process with self times, indexed by name."""

    def __init__(self, raw: list[tuple]):
        covered: dict[int, float] = defaultdict(float)
        for span_id, parent, _, start, end, *_ in raw:
            if parent >= 0:
                covered[parent] += end - start
        self.spans = [
            Span(*fields, self_seconds=(fields[4] - fields[3]) - covered[fields[0]])
            for fields in raw
        ]
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            self.by_name[span.name].append(span)

    def named(self, name: str) -> list[Span]:
        """Spans of ``name`` recorded while the workload was measured."""
        return [span for span in self.by_name.get(name, ()) if span.phase == "measure"]

    def busy_s(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def p50_ms(self, name: str) -> float:
        return 1000.0 * median([span.seconds for span in self.named(name)])

    def self_p_ms(self, name: str, q: float) -> float:
        return 1000.0 * percentile([span.self_seconds for span in self.named(name)], q)

    def median_any_phase_s(self, name: str) -> float:
        """Median duration in any phase: set-up work repeats once per cold start."""
        return median([span.seconds for span in self.by_name.get(name, ())])

    def layer_self_s(self) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            if span.phase == "measure":
                totals[span.layer] += span.self_seconds
        return totals

    def program_metrics(self, decisions: int) -> dict[str, float]:
        """The per-layer metrics every workload computes the same way."""
        refines = self.named("bounds.refine")
        expands = self.named("pomdp.expand")
        updates = self.named("pomdp.update_belief")
        linalg = [span for op in LINALG_OPS for span in self.named(f"linalg.{op}")]
        metrics = {
            "controllers.decide_ms.p50": self.p50_ms("controllers.engine_decide"),
            "controllers.self_ms.p50": self.self_p_ms("controllers.engine_decide", 50.0),
            "controllers.bootstrap_s": self.median_any_phase_s("controllers.bootstrap"),
            "bounds.refine_ms.p50": self.p50_ms("bounds.refine"),
            "bounds.refine.busy_s": self.busy_s("bounds.refine"),
            "bounds.refine.calls": len(refines),
            "bounds.refine.added_ratio": (
                sum(1 for span in refines if span.info) / len(refines) if refines else 0.0
            ),
            "bounds.value_batch.calls": len(self.named("bounds.value_batch")),
            "bounds.value_batch.rows": sum(
                span.info or 0 for span in self.named("bounds.value_batch")
            ),
            "bounds.value_batch.busy_s": self.busy_s("bounds.value_batch"),
            "bounds.ra_bound_s": self.median_any_phase_s("bounds.ra_bound"),
            "pomdp.expand_ms.p50": self.p50_ms("pomdp.expand"),
            "pomdp.expand.busy_s": self.busy_s("pomdp.expand"),
            "pomdp.tree.nodes": sum(span.info[0] for span in expands if span.info),
            "pomdp.tree.leaf_evaluations": sum(
                span.info[1] for span in expands if span.info
            ),
            "pomdp.update_belief_ms.p50": self.p50_ms("pomdp.update_belief"),
            "pomdp.update_belief.failures": sum(
                1 for span in updates if span.error == "BeliefError"
            ),
            "io.load_model_s": self.median_any_phase_s("io.load_model"),
            "io.checkpoint_s": self.median_any_phase_s("io.checkpoint"),
            "linalg.ops.calls_per_decision": len(linalg) / decisions if decisions else 0.0,
            "linalg.ops.busy_s": sum(span.seconds for span in linalg),
        }
        for layer, seconds in self.layer_self_s().items():
            metrics[f"{layer}.self_s"] = seconds
        return metrics
