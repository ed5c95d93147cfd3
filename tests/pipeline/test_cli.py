"""Tests for the ``python -m repro`` CLI demo."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.vessels == 50
        assert args.hours == 6.0
        assert not args.pairwise

    def test_custom_arguments(self):
        args = build_parser().parse_args(
            ["--vessels", "10", "--hours", "2", "--pairwise"]
        )
        assert args.vessels == 10
        assert args.hours == 2.0
        assert args.pairwise

    @pytest.mark.parametrize("path", ["", "no-such-directory/metrics.json"])
    def test_unwritable_metrics_json_is_a_usage_error(
        self, path, capsys, tmp_path, monkeypatch
    ):
        """Rejected while parsing — before anything is simulated."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--metrics-json", path])
        assert exit_info.value.code == 2
        assert "--metrics-json" in capsys.readouterr().err


class TestMain:
    def test_small_run(self, capsys, tmp_path):
        kml_path = tmp_path / "out.kml"
        exit_code = main(
            [
                "--vessels", "6",
                "--hours", "1",
                "--slide-minutes", "15",
                "--window-hours", "1",
                "--kml", str(kml_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "compression:" in output
        assert "Number of trips between ports" in output
        assert kml_path.exists()
        assert "<kml" in kml_path.read_text()

    def test_metrics_json_run(self, capsys, tmp_path):
        import json

        from repro import obs

        metrics_path = tmp_path / "metrics.json"
        exit_code = main(
            [
                "--vessels", "6",
                "--hours", "1",
                "--slide-minutes", "15",
                "--window-hours", "1",
                "--metrics-json", str(metrics_path),
            ]
        )
        assert exit_code == 0
        assert "metrics report written" in capsys.readouterr().out
        report = json.loads(metrics_path.read_text())
        assert report["schema"] == "repro.obs/pipeline-v1"
        assert report["config"]["vessels"] == 6
        assert "tracking" in report["phases"]
        assert report["throughput"]["events_per_sec"] > 0
        # The scoped registry must not leak into the global one.
        assert not obs.is_enabled()
