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

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("mod.wrte:error@1", "known: gateway.link, "),
            ("mod.write:drop@1", "'mod.write' interprets error, not 'drop'"),
        ],
    )
    def test_chaos_outside_the_site_table_is_a_usage_error(
        self, spec, named, capsys, monkeypatch
    ):
        """A site ``SITES`` lacks, or a kind its site ignores, would arm
        nothing: rejected while parsing, before any fleet is simulated."""
        monkeypatch.setattr(
            "repro.__main__._build_pipeline_inputs",
            lambda args: pytest.fail("a fleet was simulated"),
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["--serve", "--chaos", spec])
        assert exit_info.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--chaos", "mod.write:error@1"],
            ["--chaos-seed", "0"],
            ["--wal-dir", "wal"],
        ],
    )
    def test_a_serve_only_flag_without_serve_is_a_usage_error(
        self, flags, capsys, monkeypatch
    ):
        """A batch run would ignore it: rejected before any fleet is
        simulated, naming the flag."""
        monkeypatch.setattr(
            "repro.__main__._build_pipeline_inputs",
            lambda args: pytest.fail("a fleet was simulated"),
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["--vessels", "5", "--hours", "1", *flags])
        assert exit_info.value.code == 2
        assert f"{flags[0]} needs --serve" in capsys.readouterr().err

    def test_chaos_parses_into_its_plan(self):
        args = build_parser().parse_args(
            ["--chaos", "mod.write:error@3,service.slide:delay@2:0.5"]
        )
        assert args.chaos.to_spec() == "mod.write:error@3,service.slide:delay@2:0.5"


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
