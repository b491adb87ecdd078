"""glint CLI: exit codes, formats, baseline workflow, lint passthrough."""

import json
import subprocess
from pathlib import Path

from repro.analysis.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    main as glint_main,
)
from repro.cli import main as bench_main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "gl005_bad.py")
CLEAN = str(FIXTURES / "gl005_clean.py")


class TestExitCodes:
    def test_clean_exits_zero(self, capsys):
        assert glint_main([CLEAN]) == EXIT_CLEAN
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert glint_main([BAD, "--rules", "GL005"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "GL005" in out
        assert "gl005_bad.py:" in out

    def test_no_paths_is_usage_error(self, capsys):
        assert glint_main([]) == EXIT_USAGE
        assert "no paths given" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert glint_main(["does/not/exist.py"]) == EXIT_USAGE
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, capsys):
        assert glint_main([CLEAN, "--rules", "GL999"]) == EXIT_USAGE
        assert "unknown rule" in capsys.readouterr().err

    def test_syntax_error_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        assert glint_main([str(bad)]) == EXIT_USAGE
        assert "cannot parse" in capsys.readouterr().err


class TestOutput:
    def test_json_format_is_parseable(self, capsys):
        glint_main([BAD, "--rules", "GL005", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1
        assert data["counts"]["GL005"] == len(data["findings"])
        first = data["findings"][0]
        assert set(first) == {"rule", "path", "line", "col", "symbol", "message"}

    def test_output_file_mirrors_stdout(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        glint_main(
            [BAD, "--rules", "GL005", "--format", "json", "--output", str(target)]
        )
        assert json.loads(target.read_text()) == json.loads(
            capsys.readouterr().out
        )

    def test_list_rules_names_all_five(self, capsys):
        assert glint_main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("GL001", "GL002", "GL003", "GL004", "GL005"):
            assert rule_id in out


class TestBaselineWorkflow:
    def test_write_then_apply_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            glint_main([BAD, "--write-baseline", str(baseline)]) == EXIT_CLEAN
        )
        assert baseline.exists()
        capsys.readouterr()
        # With the baseline applied the same findings no longer fail.
        assert glint_main([BAD, "--baseline", str(baseline)]) == EXIT_CLEAN
        assert "baselined" in capsys.readouterr().out

    def test_corrupt_baseline_is_usage_error(self, tmp_path, capsys):
        baseline = tmp_path / "corrupt.json"
        baseline.write_text("{nope")
        assert glint_main([CLEAN, "--baseline", str(baseline)]) == EXIT_USAGE
        assert "corrupt baseline" in capsys.readouterr().err


class TestChangedMode:
    @staticmethod
    def _git(cwd, *args):
        subprocess.run(
            [
                "git",
                "-c", "user.email=test@example.invalid",
                "-c", "user.name=test",
                *args,
            ],
            cwd=cwd,
            check=True,
            capture_output=True,
        )

    def _seeded_repo(self, tmp_path):
        """A repo where steady.py is committed-and-untouched (bad code
        that --changed must NOT lint), touched.py is modified to be
        bad, and fresh.py is untracked bad code."""
        bad = Path(BAD).read_text()
        clean = Path(CLEAN).read_text()
        self._git(tmp_path, "init", "-q")
        (tmp_path / "steady.py").write_text(bad)
        (tmp_path / "touched.py").write_text(clean)
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        (tmp_path / "touched.py").write_text(bad)
        (tmp_path / "fresh.py").write_text(bad)
        return tmp_path

    def test_lints_only_modified_and_untracked(
        self, tmp_path, monkeypatch, capsys
    ):
        repo = self._seeded_repo(tmp_path)
        monkeypatch.chdir(repo)
        assert (
            glint_main(["--changed", "--rules", "GL005", "--format", "json"])
            == EXIT_FINDINGS
        )
        payload = json.loads(capsys.readouterr().out)
        files = {finding["path"] for finding in payload["findings"]}
        assert files == {"touched.py", "fresh.py"}
        assert payload["files_analyzed"] == 2

    def test_path_arguments_restrict_the_changed_set(
        self, tmp_path, monkeypatch, capsys
    ):
        repo = self._seeded_repo(tmp_path)
        monkeypatch.chdir(repo)
        assert (
            glint_main(
                ["fresh.py", "--changed", "--rules", "GL005", "--format", "json"]
            )
            == EXIT_FINDINGS
        )
        payload = json.loads(capsys.readouterr().out)
        assert {f["path"] for f in payload["findings"]} == {"fresh.py"}

    def test_clean_when_nothing_changed(self, tmp_path, monkeypatch, capsys):
        bad = Path(BAD).read_text()
        self._git(tmp_path, "init", "-q")
        (tmp_path / "steady.py").write_text(bad)
        self._git(tmp_path, "add", ".")
        self._git(tmp_path, "commit", "-q", "-m", "seed")
        monkeypatch.chdir(tmp_path)
        assert glint_main(["--changed"]) == EXIT_CLEAN
        assert "no python files changed" in capsys.readouterr().out

    def test_outside_a_repo_is_usage_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert glint_main(["--changed"]) == EXIT_USAGE
        assert "git checkout" in capsys.readouterr().err

    def test_path_eaten_as_ref_gets_a_helpful_error(
        self, tmp_path, monkeypatch, capsys
    ):
        # `glint --changed src/` parses src/ as the REF; the error must
        # point at the fix, not dump git's stderr.
        repo = self._seeded_repo(tmp_path)
        monkeypatch.chdir(repo)
        assert glint_main(["--changed", "fresh.py"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "not a git revision" in err
        assert "paths go before the flag" in err


class TestLintPassthrough:
    def test_bench_cli_forwards_lint(self, capsys):
        assert bench_main(["lint", CLEAN]) == EXIT_CLEAN
        assert "0 finding(s)" in capsys.readouterr().out

    def test_bench_cli_forwards_exit_codes(self, capsys):
        assert bench_main(["lint", BAD, "--rules", "GL005"]) == EXIT_FINDINGS
        capsys.readouterr()
        assert bench_main(["lint"]) == EXIT_USAGE
