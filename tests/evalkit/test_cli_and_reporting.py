"""CLI and report-bundle tests (tiny runs)."""

import pytest

from repro.cli import EXPERIMENTS, main
from repro.evalkit.reporting import (
    CSV_EXPORTS,
    SECTIONS,
    ReportBundle,
    _fig5_csv,
    _fig6_csv,
    _fig7_csv,
)
from repro.evalkit.experiments import fig5, fig6, fig7


class TestCli:
    def test_single_experiment_runs(self, capsys):
        assert main(["appsizes"]) == 0
        out = capsys.readouterr().out
        assert "application" in out

    def test_quick_flag_accepted(self, capsys):
        assert main(["reexec", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "at most 3" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["flux-capacitor"])

    def test_every_experiment_is_wired(self):
        assert set(EXPERIMENTS) == {
            "fig5",
            "fig6",
            "fig7",
            "recovery",
            "reexec",
            "responsiveness",
            "specreport",
            "appsizes",
            "scaling",
            "durability",
            "zoo",
        }
        # The report bundles every experiment but the zoo, which writes
        # its own BENCH_workloads.json.
        assert set(SECTIONS) == set(EXPERIMENTS) - {"zoo"}
        assert set(CSV_EXPORTS) <= set(SECTIONS)

    def test_report_command_writes_files(self, tmp_path, capsys, monkeypatch):
        # Shrink the bundle generator so the test stays fast.
        import repro.evalkit.reporting as reporting

        def tiny_report(quick=True):
            bundle = ReportBundle()
            bundle.sections.append(("Tiny", "body"))
            bundle.csv_series["series"] = "a,b\n1,2\n"
            return bundle

        monkeypatch.setattr(reporting, "generate_report", tiny_report)
        output = tmp_path / "RESULTS.md"
        assert main(["report", "--output", str(output)]) == 0
        assert output.exists()
        assert (tmp_path / "series.csv").read_text() == "a,b\n1,2\n"


class TestCsvExports:
    def test_fig5_csv(self):
        result = fig5.run(duration=120.0, inject_faults=False)
        csv_text = _fig5_csv(result)
        assert csv_text.startswith("bucket,count")
        assert csv_text.count("\n") == len(result.histogram.rows()) + 1

    def test_fig6_csv(self):
        result = fig6.run(user_counts=[2, 3], duration=30.0)
        csv_text = _fig6_csv(result)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "users,active_ms,idle_ms"
        assert len(lines) == 3

    def test_fig7_csv(self):
        result = fig7.run(start_users=2, max_users=3, rounds_per_window=20)
        csv_text = _fig7_csv(result)
        assert csv_text.startswith("users,conflicts,ops_issued")


class TestBundleMarkdown:
    def test_markdown_structure(self):
        bundle = ReportBundle()
        bundle.sections.append(("Section A", "line1\nline2"))
        bundle.wall_seconds = 3.0
        text = bundle.to_markdown()
        assert "## Section A" in text
        assert "```" in text
        assert "line2" in text
