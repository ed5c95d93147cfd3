"""Golden test: the fixture tree triggers every rule, exactly as recorded.

The fixture files under ``fixtures/repro`` are adversarial samples, one
per rule; this test pins the complete (rule, file, line) finding set so
any rule regression — a check that stops firing, fires twice, or moves —
shows up as a diff against the golden list, not as silent drift.
"""

from pathlib import Path

from repro.analysis import run_analysis
from repro.analysis.rules import RULES

FIXTURES = Path(__file__).parent / "fixtures"

#: The complete expected finding set: (rule, path-relative-to-fixtures, line).
GOLDEN = [
    ("RPR001", "repro/tracking/bad_wallclock.py", 14),
    ("RPR001", "repro/tracking/bad_wallclock.py", 18),
    ("RPR001", "repro/tracking/bad_wallclock.py", 22),
    ("RPR002", "repro/service/bad_async.py", 8),
    ("RPR002", "repro/service/bad_async.py", 12),
    ("RPR002", "repro/service/bad_async.py", 17),
    ("RPR003", "repro/resilience/faults.py", 10),
    ("RPR003", "repro/service/bad_faults.py", 7),
    ("RPR004", "repro/service/bad_drop.py", 8),
    ("RPR001", "repro/tracking/suppressed.py", 11),
    ("RPR004", "repro/service/bad_drop.py", 12),
]


def _relative(diagnostic):
    return str(Path(diagnostic.path).relative_to(FIXTURES))


class TestGoldenFindings:
    def test_fixture_tree_matches_golden_list(self):
        result = run_analysis([FIXTURES])
        actual = sorted(
            (d.rule, _relative(d), d.line) for d in result.diagnostics
        )
        assert actual == sorted(GOLDEN)

    def test_every_rule_fires_at_least_once(self):
        fired = {rule for rule, _, _ in GOLDEN}
        assert fired == {rule.code for rule in RULES}

    def test_one_suppressed_finding(self):
        result = run_analysis([FIXTURES])
        assert result.suppressed == 1
