"""Canonical benchmark snapshots and fingerprint-drift comparison.

Performance is measured by the repository benchmark in ``perfbench/``
(see ``perfbench/README.md``): repeated runs against a named baseline
commit, reported as median and spread.  This module covers the other
half of a benchmark trajectory: whether *behaviour* drifted.  A snapshot
records deterministic fingerprints as ``exact`` metrics, and comparing
two snapshots fails on any difference between them.

**Canonical schema** (``repro-bench/v1``)::

    {
      "schema": "repro-bench/v1",
      "generated_by": "...",
      "machine": {"cpu_count": ..., "platform": ..., "python": ...},
      "seed": 2006,
      "source_schemas": ["repro-grid/v1"],
      "metrics": {
        "<dotted.name>": {"value": ..., "unit": "...", "direction": "..."}
      }
    }

Every metric is self-describing: ``direction`` is ``"exact"``
(fingerprints and parity flags — any change is a failure) or ``"info"``
(recorded but never compared, e.g. wall time or a cell's cost).  The
producer is ``python -m repro.obs bench store DIR --snapshot OUT.json``,
which exports a campaign-grid results store (:func:`store_snapshot`).

Exit codes follow the ``repro.analysis`` CLI convention: 0 — no
drift; 1 — at least one exact-metric mismatch; 2 — usage or I/O error
(unreadable file, unknown schema, malformed metrics).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.util.tables import render_table

#: The canonical snapshot schema tag.
BENCH_SCHEMA = "repro-bench/v1"

#: Valid ``direction`` values of a canonical metric.
DIRECTIONS = frozenset({"exact", "info"})


class BenchFormatError(ValueError):
    """A snapshot file is unreadable or not a known benchmark schema."""


@dataclass(frozen=True)
class Metric:
    """One canonical benchmark measurement."""

    value: Any
    unit: str
    direction: str


@dataclass(frozen=True)
class Snapshot:
    """A benchmark snapshot normalised to canonical metrics."""

    schema: str
    metrics: dict[str, Metric]
    machine: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None


def _metrics_canonical(document: dict[str, Any]) -> dict[str, Metric]:
    entries = document.get("metrics", {})
    if not isinstance(entries, dict):
        raise BenchFormatError("'metrics' must be an object of named metrics")
    metrics: dict[str, Metric] = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict) or "value" not in entry:
            raise BenchFormatError(
                f"metric {name!r} must be an object with a 'value' field"
            )
        direction = entry.get("direction", "info")
        if direction not in DIRECTIONS:
            raise BenchFormatError(
                f"metric {name!r} has unknown direction {direction!r}"
            )
        metrics[name] = Metric(
            entry["value"], entry.get("unit", ""), direction
        )
    return metrics


def normalize(document: dict[str, Any]) -> Snapshot:
    """Normalise a decoded benchmark document into canonical metrics."""
    schema = document.get("schema")
    if schema != BENCH_SCHEMA:
        raise BenchFormatError(
            f"unknown benchmark schema {schema!r} (known: {BENCH_SCHEMA!r})"
        )
    return Snapshot(
        schema=BENCH_SCHEMA,
        metrics=_metrics_canonical(document),
        machine=document.get("machine", {}),
        seed=document.get("seed"),
    )


def load_snapshot(path: str | Path) -> Snapshot:
    """Read and normalise a benchmark snapshot file."""
    try:
        with open(path, encoding="utf-8") as stream:
            document = json.load(stream)
    except OSError as error:
        raise BenchFormatError(f"cannot read {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise BenchFormatError(f"{path} is not JSON: {error}") from error
    if not isinstance(document, dict):
        raise BenchFormatError(f"{path}: snapshot must be a JSON object")
    return normalize(document)


def canonical_document(
    metrics: dict[str, Metric],
    machine: dict[str, Any] | None = None,
    seed: int | None = None,
    generated_by: str = "python -m repro.obs bench store",
    source_schemas: list[str] | None = None,
) -> dict[str, Any]:
    """Assemble a canonical ``repro-bench/v1`` document for serialisation."""
    return {
        "schema": BENCH_SCHEMA,
        "generated_by": generated_by,
        "machine": machine or {},
        "seed": seed,
        "source_schemas": source_schemas or [],
        "metrics": {
            name: {
                "value": metric.value,
                "unit": metric.unit,
                "direction": metric.direction,
            }
            for name, metric in sorted(metrics.items())
        },
    }


def store_snapshot(root) -> Snapshot:
    """Normalise a grid results store into a comparable :class:`Snapshot`.

    Every completed cell contributes its deterministic fingerprint as an
    ``exact`` metric named ``grid.<cell id with dots>.fingerprint`` — so
    ``compare(store_snapshot(a), store_snapshot(b))`` fails on any drift
    between two sweeps of the same spec — plus its scalar metrics and wall
    time as ``info`` metrics (recorded in exports, never gated: a code
    change may legitimately move them, and the fingerprint already catches
    unintentional moves bit-exactly).

    Accepts a store directory path or a ``ResultsStore``.  This is how a
    sweep becomes a queryable trajectory: sweep into a store, export with
    ``python -m repro.obs bench store DIR --snapshot OUT.json``, and gate
    future sweeps against the export with ``bench compare``.
    """
    from repro.experiments.store import ResultsStore

    store = root if isinstance(root, ResultsStore) else ResultsStore(root)
    metrics: dict[str, Metric] = {}
    completed = store.completed()
    for cell_id in sorted(completed):
        record = completed[cell_id]
        prefix = "grid." + str(cell_id).replace("/", ".")
        metrics[f"{prefix}.fingerprint"] = Metric(
            record["fingerprint"], "sha256", "exact"
        )
        cell_metrics = record.get("metrics", {})
        for name in sorted(cell_metrics):
            metrics[f"{prefix}.{name}"] = Metric(cell_metrics[name], "", "info")
        if "wall_seconds" in record:
            metrics[f"{prefix}.wall_seconds"] = Metric(
                record["wall_seconds"], "s", "info"
            )
    return Snapshot(schema=BENCH_SCHEMA, metrics=metrics)


def format_store(root) -> str:
    """Render a results store's full record history as a table.

    Unlike :func:`store_snapshot` (latest record per cell) this shows the
    *trajectory*: every append, including re-runs of the same cell, in
    append order.
    """
    from repro.experiments.store import ResultsStore

    store = root if isinstance(root, ResultsStore) else ResultsStore(root)
    records = store.records()
    if not records:
        return f"{store.root}: no completed cells\n"
    rows = []
    for record in records:
        metrics = record.get("metrics", {})
        rows.append(
            [
                record["cell_id"],
                record["fingerprint"][:12],
                "" if "cost" not in metrics else f"{metrics['cost']:.4g}",
                f"{record.get('wall_seconds', 0.0):.2f}",
                record.get("artifact") or "",
            ]
        )
    skipped = getattr(store, "skipped_lines", 0)
    footer = (
        f"\n({skipped} torn/foreign line(s) skipped)\n" if skipped else "\n"
    )
    table = render_table(
        ["cell", "fingerprint", "cost", "wall (s)", "artifact"],
        rows,
        title=(
            f"{store.root}: {len(records)} record(s), "
            f"{len({r['cell_id'] for r in records})} distinct cell(s)"
        ),
    )
    return table + footer


@dataclass(frozen=True)
class MetricComparison:
    """Verdict for one metric present in both snapshots."""

    name: str
    old: Any
    new: Any
    unit: str
    direction: str
    regressed: bool


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of comparing two snapshots metric by metric."""

    rows: list[MetricComparison]

    @property
    def regressions(self) -> list[MetricComparison]:
        return [row for row in self.rows if row.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare(old: Snapshot, new: Snapshot) -> ComparisonResult:
    """Compare the metrics present in both snapshots.

    ``exact`` metrics (fingerprints, parity flags) fail on *any*
    difference; ``info`` metrics are reported but never fail.  Metrics
    present in only one snapshot are skipped — two sweeps of different
    specs legitimately record different cells.
    """
    rows: list[MetricComparison] = []
    for name in sorted(old.metrics.keys() & new.metrics.keys()):
        before, after = old.metrics[name], new.metrics[name]
        direction = after.direction if before.direction == "info" else before.direction
        rows.append(
            MetricComparison(
                name=name,
                old=before.value,
                new=after.value,
                unit=before.unit,
                direction=direction,
                regressed=direction == "exact" and before.value != after.value,
            )
        )
    return ComparisonResult(rows=rows)


def format_comparison(result: ComparisonResult) -> str:
    """Render a comparison as a table plus a one-line verdict."""
    if not result.rows:
        return "no overlapping metrics to compare\n"

    def cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        if isinstance(value, str) and len(value) > 16:
            return value[:13] + "..."
        return str(value)

    rows = [
        [
            row.name,
            cell(row.old),
            cell(row.new),
            row.direction,
            "REGRESSED" if row.regressed else "ok",
        ]
        for row in result.rows
    ]
    table = render_table(
        ["metric", "old", "new", "direction", "status"],
        rows,
        title="benchmark comparison (exact metrics must match)",
    )
    count = len(result.regressions)
    verdict = (
        f"{count} regression(s) out of {len(result.rows)} compared metrics"
        if count
        else f"no regressions across {len(result.rows)} compared metrics"
    )
    return f"{table}\n\n{verdict}\n"
