"""Tests for the system configuration."""

from repro.pipeline import SystemConfig
from repro.tracking import WindowSpec


class TestSystemConfig:
    def test_defaults(self):
        config = SystemConfig()
        assert config.window.range_seconds == 3600
        assert config.window.slide_seconds == 600
        assert config.reconstruct_each_slide
        assert config.database_path == ":memory:"

    def test_recognition_window_defaults_to_tracking_range(self):
        config = SystemConfig(window=WindowSpec.of_hours(2, 1))
        assert config.effective_recognition_window == 7200

    def test_recognition_window_override(self):
        config = SystemConfig(
            window=WindowSpec.of_hours(2, 1), recognition_window_seconds=9 * 3600
        )
        assert config.effective_recognition_window == 9 * 3600
