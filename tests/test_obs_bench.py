"""Canonical benchmark snapshots and fingerprint-drift comparison."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.__main__ import main
from repro.obs.bench import (
    BENCH_SCHEMA,
    BenchFormatError,
    Metric,
    Snapshot,
    canonical_document,
    compare,
    format_comparison,
    load_snapshot,
    normalize,
)

METRICS = {
    "campaign.bounded.fingerprint": Metric("abc", "sha256", "exact"),
    "campaign.bounded.wall_seconds": Metric(1.5, "s", "info"),
}


def _write(path: Path, document: dict) -> Path:
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


class TestNormalize:
    def test_canonical_round_trip(self):
        snapshot = normalize(canonical_document(METRICS))
        assert snapshot.schema == BENCH_SCHEMA
        assert snapshot.metrics == METRICS

    def test_unknown_schema_rejected(self):
        with pytest.raises(BenchFormatError, match="unknown benchmark schema"):
            normalize({"schema": "bench-pr99/v1"})

    def test_bad_direction_rejected(self):
        document = canonical_document({})
        document["metrics"]["x"] = {"value": 1, "direction": "sideways"}
        with pytest.raises(BenchFormatError, match="unknown direction"):
            normalize(document)

    def test_missing_file_raises_format_error(self, tmp_path):
        with pytest.raises(BenchFormatError, match="cannot read"):
            load_snapshot(tmp_path / "missing.json")

    def test_non_json_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(BenchFormatError, match="not JSON"):
            load_snapshot(path)


class TestCompare:
    def _snapshot(self, **values) -> Snapshot:
        metrics = {
            "fingerprint": Metric(values.get("fingerprint", "abc"), "sha256", "exact"),
            "footprint": Metric(values.get("footprint", 1000), "bytes", "info"),
        }
        return Snapshot(schema=BENCH_SCHEMA, metrics=metrics)

    def test_identical_snapshots_are_clean(self):
        result = compare(self._snapshot(), self._snapshot())
        assert result.ok
        assert len(result.rows) == 2

    def test_fingerprint_mismatch_fails_at_any_threshold(self):
        result = compare(self._snapshot(), self._snapshot(fingerprint="zzz"))
        assert not result.ok
        assert result.regressions[0].name == "fingerprint"

    def test_info_metrics_never_fail(self):
        result = compare(self._snapshot(), self._snapshot(footprint=10**9))
        assert result.ok

    def test_disjoint_metrics_are_skipped(self):
        old = Snapshot(BENCH_SCHEMA, {"a": Metric("x", "sha256", "exact")})
        new = Snapshot(BENCH_SCHEMA, {"b": Metric("x", "sha256", "exact")})
        result = compare(old, new)
        assert result.rows == []
        assert result.ok

    def test_format_mentions_regression(self):
        result = compare(self._snapshot(), self._snapshot(fingerprint="zzz"))
        text = format_comparison(result)
        assert "REGRESSED" in text
        assert "1 regression(s)" in text


class TestCli:
    """Acceptance criteria: a self-compare exits 0; a fingerprint flip
    exits 1; an unreadable or malformed snapshot exits 2."""

    @pytest.fixture()
    def baseline(self, tmp_path) -> Path:
        return _write(tmp_path / "old.json", canonical_document(METRICS))

    def test_self_compare_exits_zero(self, baseline, capsys):
        assert main(["bench", "compare", str(baseline), str(baseline)]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_fingerprint_mismatch_exits_one(self, baseline, tmp_path, capsys):
        tampered = canonical_document(
            {
                **METRICS,
                "campaign.bounded.fingerprint": Metric("0" * 64, "sha256", "exact"),
            }
        )
        new = _write(tmp_path / "new.json", tampered)
        assert main(["bench", "compare", str(baseline), str(new)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_unknown_schema_exits_two(self, baseline, tmp_path, capsys):
        bad_documents = [
            ({"schema": "bench-pr99/v1"}, "unknown benchmark schema"),
            (
                {"schema": "bench-pr2/v1", "campaign": [], "tree": {}},
                "unknown benchmark schema",
            ),
            ({"schema": BENCH_SCHEMA, "metrics": [1, 2]}, "must be an object"),
            ({"schema": BENCH_SCHEMA, "metrics": {"x": 1}}, "must be an object"),
            (
                {
                    "schema": BENCH_SCHEMA,
                    "metrics": {"x": {"value": 1.0, "direction": "lower"}},
                },
                "unknown direction",
            ),
        ]
        for document, message in bad_documents:
            bad = _write(tmp_path / "bad.json", document)
            assert main(["bench", "compare", str(baseline), str(bad)]) == 2
            assert message in capsys.readouterr().out

    def test_missing_file_exits_two(self, baseline, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["bench", "compare", str(baseline), str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().out


class TestStoreView:
    """The grid results store as a benchmark trajectory."""

    def _store(self, tmp_path):
        from repro.experiments.store import GRID_SCHEMA, ResultsStore

        store = ResultsStore(tmp_path / "store")
        store.append(
            {
                "schema": GRID_SCHEMA,
                "cell_id": "table1/oracle/seed7/dense/n3",
                "fingerprint": "a" * 64,
                "metrics": {"cost": 84.4},
                "wall_seconds": 0.5,
                "artifact": None,
            }
        )
        store.append(
            {
                "schema": GRID_SCHEMA,
                "cell_id": "fig5/random/seed7/dense/n2",
                "fingerprint": "b" * 64,
                "metrics": {"final_upper_bound": 497.8},
                "wall_seconds": 0.1,
                "artifact": "artifacts/fig5__random__seed7__dense__n2.npz",
            }
        )
        return store

    def test_store_snapshot_marks_fingerprints_exact(self, tmp_path):
        from repro.obs.bench import store_snapshot

        snapshot = store_snapshot(self._store(tmp_path))
        fingerprint = snapshot.metrics[
            "grid.table1.oracle.seed7.dense.n3.fingerprint"
        ]
        assert fingerprint.direction == "exact"
        assert fingerprint.value == "a" * 64
        cost = snapshot.metrics["grid.table1.oracle.seed7.dense.n3.cost"]
        assert cost.direction == "info"

    def test_fingerprint_drift_between_sweeps_regresses(self, tmp_path):
        from repro.obs.bench import store_snapshot

        old = store_snapshot(self._store(tmp_path))
        drifted = self._store(tmp_path)  # same dir: appends duplicates
        drifted.append(
            {
                "schema": "repro-grid/v1",
                "cell_id": "fig5/random/seed7/dense/n2",
                "fingerprint": "c" * 64,
                "metrics": {},
            }
        )
        result = compare(old, store_snapshot(drifted))
        assert [row.name for row in result.regressions] == [
            "grid.fig5.random.seed7.dense.n2.fingerprint"
        ]

    def test_cli_store_renders_and_exports(self, tmp_path, capsys):
        store = self._store(tmp_path)
        out = tmp_path / "snapshot.json"
        code = main(["bench", "store", str(store.root), "--snapshot", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "2 record(s), 2 distinct cell(s)" in text
        document = json.loads(out.read_text())
        assert document["schema"] == BENCH_SCHEMA
        assert main(["bench", "compare", str(out), str(out)]) == 0

    def test_cli_store_rejects_non_directory(self, tmp_path, capsys):
        assert main(["bench", "store", str(tmp_path / "missing")]) == 2
        assert "not a results-store" in capsys.readouterr().out
