"""Engine plumbing: module naming, discovery, suppression, self-metrics."""

from pathlib import Path

import pytest

from repro import obs
from repro.analysis import module_name_for, run_analysis
from repro.analysis.engine import PARSE_ERROR_CODE, discover_files
from repro.analysis.suppressions import suppressed_lines

FIXTURES = Path(__file__).parent / "fixtures"


class TestModuleNameInference:
    def test_src_layout_anchors_at_repro(self):
        assert module_name_for(
            Path("src/repro/geo/units.py")
        ) == "repro.geo.units"

    def test_fixture_trees_masquerade_as_repro(self):
        path = Path("tests/analysis/fixtures/repro/tracking/bad.py")
        assert module_name_for(path) == "repro.tracking.bad"

    def test_init_maps_to_package(self):
        assert module_name_for(Path("src/repro/obs/__init__.py")) == "repro.obs"

    def test_unanchored_path_falls_back_to_stem(self):
        assert module_name_for(Path("scripts/tool.py")) == "tool"

    def test_last_anchor_wins(self):
        path = Path("tests/analysis/fixtures/repro/tracking/bad_wallclock.py")
        assert module_name_for(path) == "repro.tracking.bad_wallclock"


class TestDiscovery:
    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            discover_files(["does/not/exist"])

    def test_fixture_dirs_pruned_below_a_root(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "real.py").write_text("x = 1\n")
        nested = tmp_path / "pkg" / "fixtures"
        nested.mkdir()
        (nested / "bad.py").write_text("x = 2\n")
        found = discover_files([tmp_path])
        assert [p.name for p in found] == ["real.py"]

    def test_fixture_root_itself_is_scanned(self):
        found = discover_files([FIXTURES])
        assert any(p.name == "bad_wallclock.py" for p in found)

    def test_explicit_file_always_scanned(self):
        target = FIXTURES / "repro" / "tracking" / "bad_wallclock.py"
        assert discover_files([target]) == [target]

    def test_pycache_pruned(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("x = 1\n")
        assert discover_files([tmp_path]) == []


class TestSuppressionComments:
    def test_single_code(self):
        allowed = suppressed_lines("x = 1  # repro: allow[RPR003]\n")
        assert allowed == {1: {"RPR003"}}

    def test_comma_separated_codes(self):
        allowed = suppressed_lines("x = 1  # repro: allow[RPR001, RPR004]\n")
        assert allowed == {1: {"RPR001", "RPR004"}}

    def test_line_scoped_only(self):
        source = "# repro: allow[RPR003]\nx = 1\n"
        allowed = suppressed_lines(source)
        assert 1 in allowed and 2 not in allowed

    def test_suppression_reduces_findings_and_is_counted(self):
        target = FIXTURES / "repro" / "tracking" / "suppressed.py"
        result = run_analysis([target])
        assert result.suppressed == 1
        assert [(d.rule, d.line) for d in result.diagnostics] == [("RPR001", 11)]


class TestParseErrors:
    def test_syntax_error_becomes_rpr000(self, tmp_path):
        bad = tmp_path / "repro"
        bad.mkdir()
        target = bad / "broken.py"
        target.write_text("def broken(:\n")
        result = run_analysis([target])
        assert result.parse_errors == 1
        assert result.diagnostics[0].rule == PARSE_ERROR_CODE


class TestSelfMetrics:
    def test_run_records_obs_counters(self):
        with obs.activate(obs.MetricsRegistry()) as registry:
            result = run_analysis([FIXTURES])
            files = registry.counter("analysis.files").value
            diags = registry.counter("analysis.diagnostics").value
            run_seconds = registry._histograms["analysis.run_seconds"]
        assert files == result.files > 0
        assert diags == len(result.diagnostics) > 0
        assert run_seconds.count == 1
        assert result.elapsed_seconds > 0
        assert result.files_per_sec > 0
        for code, seconds in result.rule_seconds.items():
            assert seconds >= 0.0, code

    def test_stats_layout(self):
        result = run_analysis([FIXTURES])
        stats = result.stats()
        assert set(stats) == {
            "files", "diagnostics", "suppressed", "parse_errors",
            "elapsed_seconds", "files_per_sec", "rule_seconds",
        }
        assert list(stats["rule_seconds"]) == [
            "RPR001", "RPR002", "RPR003", "RPR004",
        ]
