"""Tests for the scoring module, figure rendering and the CLI."""

import pytest

from repro.core.analysis.scoring import (
    DetectionScore,
    ground_truth_pinned,
    score_apps,
    score_destinations,
)
from repro.reporting.figures import bar_chart, heatmap_row, stacked_bar


class TestDetectionScore:
    def test_metrics(self):
        score = DetectionScore(true_positives=8, false_positives=2, false_negatives=2)
        assert score.precision == 0.8
        assert score.recall == 0.8
        assert score.f1 == pytest.approx(0.8)

    def test_empty_is_perfect(self):
        score = DetectionScore()
        assert score.precision == 1.0
        assert score.recall == 1.0

    def test_add(self):
        score = DetectionScore()
        score.add({"a", "b"}, {"b", "c"})
        assert score.true_positives == 1
        assert score.false_positives == 1
        assert score.false_negatives == 1


class TestScoringAgainstStudy:
    def test_differential_detector_perfect(self, small_corpus, study_results):
        for key, results in study_results.dynamic_results.items():
            score = score_destinations(small_corpus, results)
            assert score.precision == 1.0, key
            assert score.recall == 1.0, key
            app_score = score_apps(small_corpus, results)
            assert app_score.precision == 1.0
            assert app_score.recall == 1.0

    def test_ground_truth_respects_window(self, small_corpus):
        packaged = next(
            p for p in small_corpus.all_apps() if p.app.pins_at_runtime()
        )
        wide = ground_truth_pinned(small_corpus, packaged.app.app_id, 3600)
        narrow = ground_truth_pinned(small_corpus, packaged.app.app_id, 30)
        assert narrow <= wide


class TestFigureRendering:
    def test_bar_chart(self):
        text = bar_chart([("a", 10.0), ("bb", 5.0)], title="T", unit="%")
        assert "T" in text
        assert text.count("#") > 0
        a_line = next(l for l in text.splitlines() if l.startswith("a "))
        bb_line = next(l for l in text.splitlines() if l.startswith("bb"))
        assert a_line.count("#") > bb_line.count("#")

    def test_bar_chart_empty(self):
        assert "(no data)" in bar_chart([], title="x")

    def test_stacked_bar(self):
        text = stacked_bar("app", [("pinned", 2), ("unpinned", 6)], width=40)
        assert "pinned(2)" in text

    def test_stacked_bar_empty(self):
        assert "(empty)" in stacked_bar("app", [("a", 0)])

    def test_heatmap_row_clamps(self):
        text = heatmap_row("r", [0.0, 0.5, 1.0, 2.0])
        assert text.startswith("r ")
        assert "█" in text


class TestCLI:
    def test_corpus_command(self, capsys):
        from repro.cli import main

        assert main(["--scale", "0.01", "corpus"]) == 0
        out = capsys.readouterr().out
        assert "unique apps" in out

    def test_table_command(self, capsys):
        from repro.cli import main

        assert main(["--scale", "0.02", "table", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Dynamic analysis" in out

    def test_table_honours_fault_rate(self, capsys):
        import re

        from repro.cli import main

        assert main(["--scale", "0.02", "--fault-rate", "0.3", "table", "table3"]) == 0
        err = capsys.readouterr().err
        ledger = re.search(r"^# error ledger: (\d+) failed unit\(s\)$", err, re.M)
        assert ledger and int(ledger.group(1)) > 0, err

    def test_table_csv(self, capsys):
        from repro.cli import main

        assert main(["--scale", "0.02", "table", "table3", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("Dataset,")

    def test_table_figure4_tuple(self, capsys):
        from repro.cli import main

        assert main(["--scale", "0.02", "table", "figure4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4a" in out and "Figure 4b" in out

    def test_score_command(self, capsys):
        from repro.cli import main

        assert main(["--scale", "0.02", "score"]) == 0
        out = capsys.readouterr().out
        assert "destination P=" in out
        # The differential detector scores perfectly on every dataset.
        assert "P=1.000" in out

    def test_study_command(self, capsys):
        from repro.cli import main

        assert main(["--scale", "0.02", "study"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "circumvention android" in out

    def test_study_telemetry_outputs(self, capsys, tmp_path):
        import json

        from repro.cli import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "--scale", "0.02", "study",
                    "--trace-out", str(trace),
                    "--metrics-out", str(metrics),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "Table 3" in captured.out  # tables unchanged by telemetry
        assert "Telemetry summary" in captured.err
        trace_doc = json.loads(trace.read_text())
        assert trace_doc["otherData"]["schema"] == "repro-telemetry-v1"
        names = {event["name"] for event in trace_doc["traceEvents"]}
        assert "phase.static_dynamic" in names
        assert "dynamic.app" in names
        metrics_doc = json.loads(metrics.read_text())
        assert metrics_doc["counters"]["exec.units.completed"] > 0
        assert metrics_doc["counters"]["cache.validate_chain.hit"] > 0

    def test_study_without_telemetry_flags_writes_nothing(self, capsys):
        from repro.cli import main

        assert main(["--scale", "0.02", "study"]) == 0
        assert "Telemetry summary" not in capsys.readouterr().err
