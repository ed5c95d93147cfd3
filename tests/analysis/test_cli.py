"""CLI contract: exit codes, JSON schema, --select/--ignore, --list-rules."""

import json
from pathlib import Path

from repro.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.analysis.diagnostics import JSON_SCHEMA
from repro.analysis.registry import rule_codes

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

    def test_unknown_rule_code_exits_two(self, capsys):
        assert main(["--select", "RPR999", CLEAN_FILE]) == EXIT_USAGE
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["no/such/dir"]) == EXIT_USAGE
        assert "no such path" in capsys.readouterr().err


class TestSelectIgnore:
    def test_select_restricts_rules(self, capsys):
        assert main(["--select", "RPR001", FIXTURES]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "RPR004" not in out

    def test_ignore_removes_rules(self, capsys):
        code = main(
            ["--ignore", "RPR001,RPR002,RPR003,RPR004", FIXTURES]
        )
        assert code == EXIT_CLEAN
        capsys.readouterr()

    def test_repeatable_and_comma_separated(self, capsys):
        assert main(
            ["--select", "RPR004", "--select", "RPR002", FIXTURES]
        ) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RPR004" in out and "RPR002" in out and "RPR001" not in out


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


class TestListRules:
    def test_catalog_lists_every_code(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for code in rule_codes():
            assert code in out
