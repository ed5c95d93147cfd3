"""Per-rule behavior on the fixture tree and on targeted snippets."""

from pathlib import Path

from repro.analysis import run_analysis

FIXTURES = Path(__file__).parent / "fixtures"


def findings(paths, code):
    return [d for d in run_analysis(paths).diagnostics if d.rule == code]


class TestRPR001Wallclock:
    def test_flags_aliased_time_datetime_and_global_random(self):
        target = FIXTURES / "repro" / "tracking" / "bad_wallclock.py"
        lines = [d.line for d in findings([target], "RPR001")]
        assert lines == [14, 18, 22]

    def test_perf_counter_and_seeded_random_allowed(self):
        # allowed_paths() (lines 25-29) uses perf_counter and a seeded
        # Random — neither may produce a finding.
        target = FIXTURES / "repro" / "tracking" / "bad_wallclock.py"
        assert all(d.line < 25 for d in findings([target], "RPR001"))

    def test_out_of_scope_module_ignored(self, tmp_path):
        # Same code under repro.simulator (wall-clock is fine there).
        pkg = tmp_path / "repro" / "simulator"
        pkg.mkdir(parents=True)
        target = pkg / "clocky.py"
        target.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert findings([target], "RPR001") == []


class TestRPR002AsyncBlocking:
    def test_flags_blocking_calls_in_async_defs_only(self):
        target = FIXTURES / "repro" / "service" / "bad_async.py"
        results = findings([target], "RPR002")
        assert [d.line for d in results] == [8, 12, 17]
        names = " ".join(d.message for d in results)
        assert "sync_helper" not in names  # sync function is fine

    def test_scope_is_repro_service(self, tmp_path):
        pkg = tmp_path / "repro" / "tracking"
        pkg.mkdir(parents=True)
        target = pkg / "async_elsewhere.py"
        target.write_text(
            "import time\n\nasync def f():\n    time.sleep(1)\n"
        )
        assert findings([target], "RPR002") == []


class TestRPR003FaultSites:
    def test_unknown_and_orphan_sites_reported(self):
        results = findings([FIXTURES], "RPR003")
        messages = [d.message for d in results]
        assert len(results) == 2
        assert any("demo.unknown" in m for m in messages)
        assert any("demo.orphan" in m for m in messages)

    def test_directions_skipped_without_registry_module(self):
        # Scanning only the call-site file: the registry was never seen,
        # so the unknown-site direction must be skipped, not guessed.
        target = FIXTURES / "repro" / "service" / "bad_faults.py"
        assert findings([target], "RPR003") == []

    def test_unseeded_entry_must_name_a_declared_site(self, tmp_path):
        # An UNSEEDED_SITES exclusion for a site nobody declared filters
        # nothing — usually a typo or a renamed site left behind.
        pkg = tmp_path / "repro" / "resilience"
        pkg.mkdir(parents=True)
        target = pkg / "faults.py"
        target.write_text(
            'SITES = {"demo.site": ("error",)}\n'
            'UNSEEDED_SITES = frozenset({"demo.site", "demo.gone"})\n'
            "\n"
            "def fault_point(site):\n"
            "    return None\n"
            "\n"
            "def used():\n"
            '    return fault_point("demo.site")\n'
        )
        results = findings([target], "RPR003")
        messages = [d.message for d in results]
        assert len(results) == 1
        assert "demo.gone" in messages[0]
        assert "filters nothing" in messages[0]

    def test_real_tree_is_consistent(self):
        assert findings(["src"], "RPR003") == []


class TestRPR004SilentDrop:
    def test_flags_sheds_and_uncounted_get_nowait(self):
        target = FIXTURES / "repro" / "service" / "bad_drop.py"
        results = findings([target], "RPR004")
        assert [d.line for d in results] == [8, 12]
        assert "evict_counted" not in " ".join(d.message for d in results)

    def test_tracking_package_out_of_scope(self, tmp_path):
        pkg = tmp_path / "repro" / "tracking"
        pkg.mkdir(parents=True)
        target = pkg / "window.py"
        target.write_text("def evict_expired(w):\n    w.pop()\n")
        assert findings([target], "RPR004") == []


class TestWholeTree:
    def test_src_is_clean(self):
        result = run_analysis(["src"])
        assert result.diagnostics == []

    def test_tests_are_clean(self):
        result = run_analysis(["tests"])
        assert result.diagnostics == []
