"""CLI contract: exit codes and the JSON schema."""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.analysis.diagnostics import JSON_SCHEMA

FIXTURES = str(Path(__file__).parent / "fixtures")
CLEAN_FILE = str(Path("src/repro/geo/units.py"))


class TestExitCodes:
    def test_clean_scan_exits_zero(self, capsys):
        assert main([CLEAN_FILE]) == EXIT_CLEAN
        assert "no issues found" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main([FIXTURES]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "issues found" in out

    def test_unknown_option_exits_two(self, capsys):
        # Every run applies every rule: there is no option to choose them.
        for option in ("--select=RPR001", "--ignore=RPR004", "--list-rules"):
            with pytest.raises(SystemExit) as exit_info:
                main([option, CLEAN_FILE])
            assert exit_info.value.code == EXIT_USAGE
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["no/such/dir"]) == EXIT_USAGE
        assert "no such path" in capsys.readouterr().err


class TestJsonOutput:
    def test_schema_and_shape(self, capsys):
        assert main(["--format", "json", FIXTURES]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == JSON_SCHEMA
        assert set(payload) == {"schema", "diagnostics", "stats"}
        first = payload["diagnostics"][0]
        assert set(first) == {"path", "line", "col", "rule", "message"}
        stats = payload["stats"]
        assert stats["diagnostics"] == len(payload["diagnostics"])
        assert stats["files"] > 0
        assert "rule_seconds" in stats

    def test_diagnostics_sorted_by_location(self, capsys):
        main(["--format", "json", FIXTURES])
        payload = json.loads(capsys.readouterr().out)
        keys = [
            (d["path"], d["line"], d["col"]) for d in payload["diagnostics"]
        ]
        assert keys == sorted(keys)

    def test_clean_json_still_has_stats(self, capsys):
        assert main(["--format", "json", CLEAN_FILE]) == EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"] == []
        assert payload["stats"]["files"] == 1

