"""The CI regression gate: recording refusals and chaos-smoke assertions.

``benchmarks/check_regression.py`` is a script, not a package module, so
it is loaded here by file path.  These tests pin the two behaviors the
gate exists for: refusing unusable recordings with a one-line actionable
message (instead of a KeyError deep in compare()), and failing the chaos
smoke when the fault-injected session did not actually self-heal.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"
)


def _load_script():
    spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_regression = _load_script()

RECALL_FLOORS = dict(
    min_positive_recall=0.999,
    min_corner_recall=0.95,
    min_join_positive_recall=0.95,
)

GOOD_RECALL = {
    "recall": {"positive_recall": 1.0, "corner_negative_recall": 1.0},
    "join_recall": {"positive_recall": 1.0, "corner_negative_recall": 1.0},
}


def _healthy_chaos() -> dict:
    return {
        "completed": True,
        "degraded": False,
        "n_shards": 3,
        "injected_faults": 2,
        "retries": 2,
        "resumable_shards": [0, 1, 2],
        **json.loads(json.dumps(GOOD_RECALL)),
    }


class TestLoadRecording:
    def test_missing_file_refused_with_regenerate_command(self, tmp_path):
        refusal = check_regression._load_recording(
            tmp_path / "BENCH_gone.json", "baseline"
        )
        assert isinstance(refusal, str)
        assert "baseline" in refusal
        assert "does not exist" in refusal
        assert "record_timings.py" in refusal
        assert "--chaos 3" in refusal

    def test_truncated_json_names_the_line(self, tmp_path):
        path = tmp_path / "BENCH_truncated.json"
        path.write_text('{"schema": 6, "build_stages": {"corpus": 0.')
        refusal = check_regression._load_recording(path, "current")
        assert isinstance(refusal, str)
        assert "not valid JSON" in refusal
        assert "line" in refusal
        assert "record_timings.py" in refusal

    def test_non_object_payload_refused(self, tmp_path):
        path = tmp_path / "BENCH_list.json"
        path.write_text("[1, 2, 3]")
        refusal = check_regression._load_recording(path, "current")
        assert isinstance(refusal, str)
        assert "not an object" in refusal

    def test_pre_schema_recording_refused(self, tmp_path):
        path = tmp_path / "BENCH_ancient.json"
        path.write_text(json.dumps({"build_stages": {"corpus": 1.0}}))
        refusal = check_regression._load_recording(path, "baseline")
        assert isinstance(refusal, str)
        assert "no schema marker" in refusal

    def test_old_schema_names_both_versions(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({"schema": 5, "build_stages": {}}))
        refusal = check_regression._load_recording(path, "baseline")
        assert isinstance(refusal, str)
        assert "schema 5" in refusal
        assert str(check_regression.MIN_SCHEMA) in refusal

    def test_current_schema_loads(self, tmp_path):
        path = tmp_path / "BENCH_ok.json"
        payload = {"schema": check_regression.MIN_SCHEMA, "build_stages": {}}
        path.write_text(json.dumps(payload))
        assert check_regression._load_recording(path, "current") == payload


class TestChaosFailures:
    def test_missing_section_is_a_failure(self):
        failures = check_regression._chaos_failures(
            None, recall_floors=RECALL_FLOORS
        )
        assert failures == [
            "chaos: missing from the current recording "
            "(run record_timings.py --chaos N)"
        ]

    def test_incomplete_session_reports_the_recorded_error(self):
        failures = check_regression._chaos_failures(
            {"completed": False, "error": "ShardRetriesExhaustedError: ..."},
            recall_floors=RECALL_FLOORS,
        )
        assert len(failures) == 1
        assert "did not complete" in failures[0]
        assert "ShardRetriesExhaustedError" in failures[0]

    def test_insufficient_retries_fail(self):
        section = _healthy_chaos()
        section["retries"] = 1
        failures = check_regression._chaos_failures(
            section, recall_floors=RECALL_FLOORS
        )
        assert any("did not retry every fault" in line for line in failures)

    def test_degraded_completion_fails(self):
        section = _healthy_chaos()
        section["degraded"] = True
        failures = check_regression._chaos_failures(
            section, recall_floors=RECALL_FLOORS
        )
        assert any("degraded" in line for line in failures)

    def test_unverified_shard_store_fails(self):
        section = _healthy_chaos()
        section["resumable_shards"] = [0, 2]
        failures = check_regression._chaos_failures(
            section, recall_floors=RECALL_FLOORS
        )
        assert failures == [
            "chaos: shards [0, 2] of 3 verify as checkpoints — the "
            "recovered session cannot be resumed"
        ]

    def test_recall_floors_apply_to_the_chaos_session(self):
        section = _healthy_chaos()
        section["join_recall"]["corner_negative_recall"] = 0.5
        failures = check_regression._chaos_failures(
            section, recall_floors=RECALL_FLOORS
        )
        assert any(
            line.startswith("chaos:") and "corner-negative" in line
            for line in failures
        )

    def test_healthy_chaos_session_passes(self):
        failures = check_regression._chaos_failures(
            _healthy_chaos(), recall_floors=RECALL_FLOORS
        )
        assert failures == []


class TestCompareChaosGate:
    def _recording(self, chaos=None) -> dict:
        record = {
            "schema": check_regression.MIN_SCHEMA,
            "build_stages": {"corpus": 1.0},
        }
        if chaos is not None:
            record["chaos"] = chaos
        return record

    def test_chaos_gated_only_when_baseline_has_the_section(self):
        baseline = self._recording()
        current = self._recording()
        current["build_stages"] = {"corpus": 1.1}
        assert (
            check_regression.compare(
                baseline, current, tolerance=2.5, floor=0.05
            )
            == []
        )

    def test_baseline_chaos_requires_current_chaos(self):
        baseline = self._recording(chaos=_healthy_chaos())
        current = self._recording()
        current["build_stages"] = {"corpus": 1.1}
        failures = check_regression.compare(
            baseline, current, tolerance=2.5, floor=0.05
        )
        assert any(line.startswith("chaos: missing") for line in failures)


def _healthy_store() -> dict:
    return {
        "n_shards": 8,
        "scale": "default",
        "sqlite": {
            "degraded": False,
            "peak_rss_kb": 400_000,
            "phases": {"build": 100, "sweep": 100, "merge": 100},
            "candidates": 1000,
            "join_candidates": 2000,
            "positives": 150,
        },
    }


class TestStoreFailures:
    def test_missing_section_is_a_failure(self):
        failures = check_regression._store_failures(None, _healthy_store())
        assert failures
        assert "--store-rss" in failures[0] or "store-rss" in failures[0]

    def test_healthy_probe_passes(self):
        assert (
            check_regression._store_failures(
                _healthy_store(), _healthy_store()
            )
            == []
        )

    def test_store_peak_above_the_baseline_fails(self):
        section = _healthy_store()
        section["sqlite"]["peak_rss_kb"] += 1
        failures = check_regression._store_failures(section, _healthy_store())
        assert any("above the baseline" in line for line in failures)
        # The bound is inclusive: the baseline's own peak passes.
        section["sqlite"]["peak_rss_kb"] -= 1
        assert check_regression._store_failures(section, _healthy_store()) == []

    def test_candidate_counts_must_match(self):
        for count in ("candidates", "join_candidates", "positives"):
            section = _healthy_store()
            section["sqlite"][count] -= 1
            failures = check_regression._store_failures(
                section, _healthy_store()
            )
            assert any(f"{count} differ" in line for line in failures)

    def test_degraded_probe_session_fails(self):
        section = _healthy_store()
        section["sqlite"]["degraded"] = True
        failures = check_regression._store_failures(section, _healthy_store())
        assert any("degraded" in line for line in failures)

    def test_missing_modes_fail(self):
        failures = check_regression._store_failures(
            {"n_shards": 8}, _healthy_store()
        )
        assert any("probe is missing" in line for line in failures)


class TestCompareStoreGate:
    def _recording(self, store=None) -> dict:
        record = {
            "schema": check_regression.MIN_SCHEMA,
            "build_stages": {"corpus": 1.0},
        }
        if store is not None:
            record["store"] = store
        return record

    def test_store_gated_only_when_baseline_has_the_section(self):
        failures = check_regression.compare(
            self._recording(), self._recording(), tolerance=2.5, floor=0.05
        )
        assert failures == []

    def test_baseline_store_requires_current_store(self):
        baseline = self._recording(store=_healthy_store())
        failures = check_regression.compare(
            baseline, self._recording(), tolerance=2.5, floor=0.05
        )
        assert any(line.startswith("store: missing") for line in failures)

    def test_healthy_store_passes_compare(self):
        baseline = self._recording(store=_healthy_store())
        current = self._recording(store=_healthy_store())
        assert (
            check_regression.compare(
                baseline, current, tolerance=2.5, floor=0.05
            )
            == []
        )


def _healthy_serve() -> dict:
    return {
        "n_ops": 400,
        "completed_queries": 350,
        "shed": 0,
        "deadline_expired": 0,
        "qps": 1300.0,
        "p50_ms": 19.0,
        "p99_ms": 30.0,
        "overload_burst": {"attempted": 64, "shed": 62},
        "parity": {"clusters_equal": True, "scores_equal": True},
    }


class TestServeFailures:
    def _gate(self, section, baseline=None, tolerance=2.5):
        return check_regression._serve_failures(
            section, baseline or _healthy_serve(), tolerance=tolerance
        )

    def test_missing_section_is_a_failure(self):
        failures = self._gate(None)
        assert failures
        assert "--serve" in failures[0]

    def test_healthy_section_passes(self):
        assert self._gate(_healthy_serve()) == []

    def test_broken_parity_fails(self):
        section = _healthy_serve()
        section["parity"]["clusters_equal"] = False
        failures = self._gate(section)
        assert any("parity" in line and "clusters_equal" in line
                   for line in failures)

    def test_sustained_shed_fails(self):
        section = _healthy_serve()
        section["shed"] = 3
        assert any("shed" in line for line in self._gate(section))

    def test_burst_that_never_sheds_fails(self):
        section = _healthy_serve()
        section["overload_burst"]["shed"] = 0
        failures = self._gate(section)
        assert any("backpressure" in line for line in failures)

    def test_p99_gated_with_floor(self):
        # baseline p99 is below the 50ms floor, so 2.5 x 50ms = 125ms
        # is the budget — 100ms passes, 200ms fails.
        fast, slow = _healthy_serve(), _healthy_serve()
        fast["p99_ms"], slow["p99_ms"] = 100.0, 200.0
        assert self._gate(fast) == []
        assert any("p99" in line for line in self._gate(slow))

    def test_qps_floor_gated(self):
        section = _healthy_serve()
        section["qps"] = 100.0  # 100 * 2.5 < 1300 baseline
        assert any("QPS" in line for line in self._gate(section))

    def test_zero_completed_queries_fails(self):
        section = _healthy_serve()
        section["completed_queries"] = 0
        assert any("no queries" in line for line in self._gate(section))


class TestCompareServeGate:
    def _recording(self, serve=None) -> dict:
        record = {
            "schema": check_regression.MIN_SCHEMA,
            "build_stages": {"corpus": 1.0},
        }
        if serve is not None:
            record["serve"] = serve
        return record

    def test_serve_gated_only_when_baseline_has_the_section(self):
        failures = check_regression.compare(
            self._recording(), self._recording(), tolerance=2.5, floor=0.05
        )
        assert failures == []

    def test_baseline_serve_requires_current_serve(self):
        baseline = self._recording(serve=_healthy_serve())
        failures = check_regression.compare(
            baseline, self._recording(), tolerance=2.5, floor=0.05
        )
        assert any(line.startswith("serve: missing") for line in failures)

    def test_healthy_serve_passes_compare(self):
        baseline = self._recording(serve=_healthy_serve())
        current = self._recording(serve=_healthy_serve())
        assert (
            check_regression.compare(
                baseline, current, tolerance=2.5, floor=0.05
            )
            == []
        )
