"""CLI telemetry commands: watch, profile --json, trace export, warmup checks."""

from __future__ import annotations

import json

from repro.experiments.cli import main
from repro.obs import EventSink, TraceContext, emit_span


class TestWatchCommand:
    def test_renders_sparklines_and_warmup_footer(self, capsys):
        assert (
            main(
                [
                    "watch",
                    "--order",
                    "4",
                    "--vcs",
                    "5",
                    "--quality",
                    "smoke",
                    "--replications",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "in_flight" in out and "throughput" in out and "backlog" in out
        assert "▁" in out or "█" in out  # sparkline glyphs rendered
        assert "warmup:" in out
        assert "cycle" in out  # the sample table header

    def test_out_writes_meta_plus_samples_jsonl(self, tmp_path, capsys):
        out_file = tmp_path / "probes.jsonl"
        assert (
            main(
                [
                    "watch",
                    "--order",
                    "4",
                    "--vcs",
                    "5",
                    "--quality",
                    "smoke",
                    "--replications",
                    "2",
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        assert "probes:" in capsys.readouterr().out
        lines = [json.loads(line) for line in out_file.read_text().splitlines()]
        meta, samples = lines[0], lines[1:]
        assert meta["type"] == "meta"
        assert "warmup_adequacy" in meta
        assert meta["warmup_adequacy"]["series"] == "in_flight"
        assert samples and all(s["type"] == "sample" for s in samples)
        assert all(
            {"cycle", "in_flight", "completed", "throughput", "backlog"} <= set(s)
            for s in samples
        )
        cycles = [s["cycle"] for s in samples]
        assert cycles == sorted(cycles)


class TestProfileJson:
    def test_json_flag_round_trips(self, capsys):
        assert main(["profile", "--order", "4", "--quality", "smoke", "--json"]) == 0
        out = capsys.readouterr().out
        record = json.loads(out)  # exactly one JSON document on stdout
        assert record["command"] == "profile"
        assert record["topology"] == "star" and record["order"] == 4
        assert set(record["phases"]) == {
            "generation",
            "activation",
            "route",
            "complete",
            "other",
        }
        assert record["total_ns"] >= sum(record["phases"].values()) > 0
        assert record["cycles"] > 0

    def test_json_reports_resident_returns(self, capsys):
        assert main(["profile", "--order", "4", "--quality", "smoke", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record["returns"]) == {"stop", "punt", "sample", "error"}
        assert record["returns"]["stop"] >= 0 and record["returns"]["error"] == 0
        assert 0 <= record["py_cycles"] <= record["cycles"]

    def test_table_mode_is_not_json(self, capsys):
        assert main(["profile", "--order", "4", "--quality", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out  # human table, not a JSON document
        assert "resident-loop returns:" in out


class TestTraceExport:
    def _events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        root = TraceContext.root()
        with EventSink(path) as sink:
            emit_span(sink, "service.query", root, 1_000, 9_000, tier="cold")
            emit_span(sink, "refine.unit", root.child(), 2_000, 5_000)
        return path

    def test_export_defaults_next_to_the_events_file(self, tmp_path, capsys):
        events = self._events(tmp_path)
        assert main(["trace", "export", str(events)]) == 0
        out = capsys.readouterr().out
        assert "trace export: 2 spans, 1 trace(s), 1 root span(s)" in out
        doc = json.loads(events.with_name("events.trace.json").read_text())
        assert [e["name"] for e in doc["traceEvents"]] == [
            "service.query",
            "refine.unit",
        ]

    def test_export_to_explicit_out(self, tmp_path):
        events = self._events(tmp_path)
        out = tmp_path / "my.trace.json"
        assert main(["trace", "export", str(events), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["displayTimeUnit"] == "ms"

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["trace", "export", str(tmp_path / "nope.jsonl")]) == 2
        assert "no event file" in capsys.readouterr().err


class TestValidateWarmupCheck:
    _BASE = [
        "validate",
        "--workload",
        "uniform",
        "--fractions",
        "0.4",
        "--engine",
        "array",
        "--order",
        "4",
        "--vcs",
        "5",
        "--quality",
        "smoke",
        "--replications",
        "2",
    ]

    def test_default_window_is_silent(self, capsys):
        assert main(self._BASE) == 0
        assert "warmup check: WARNING" not in capsys.readouterr().out

    def test_short_warmup_warns_without_failing(self, capsys):
        assert main(self._BASE + ["--warmup", "50"]) == 0
        out = capsys.readouterr().out
        assert "warmup check: WARNING" in out
        assert "warmup_cycles=50" in out
        assert "consider warmup >=" in out

    def test_no_warmup_check_suppresses_the_warning(self, capsys):
        assert main(self._BASE + ["--warmup", "50", "--no-warmup-check"]) == 0
        assert "warmup check" not in capsys.readouterr().out
