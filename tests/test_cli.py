"""Tests for the ``python -m repro`` command-line interface."""

import json
import re

import pytest

from repro.cli import main
from repro.lab.hein import build_hein_deck


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "hein.json"
    path.write_text(json.dumps(build_hein_deck().config))
    return path


class TestValidate:
    def test_valid_config_exits_zero(self, config_file, capsys):
        assert main(["validate", str(config_file)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        config = build_hein_deck().config
        config["devices"][0]["type"] = "teleporter"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["validate", str(path)]) == 1
        assert "unknown device type" in capsys.readouterr().out

    def test_syntax_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"devices": [,]}')
        assert main(["validate", str(path)]) == 1
        assert "JSON syntax error" in capsys.readouterr().out

    def test_missing_file_exits_two(self, capsys):
        assert main(["validate", "/nonexistent/lab.json"]) == 2


class TestScenarios:
    def test_subset_of_rules(self, capsys):
        assert main(["scenarios", "--rules", "G1,G11"]) == 0
        out = capsys.readouterr().out
        assert "G1" in out and "G11" in out and "detected" in out
        assert "G5" not in out


class TestCalibration:
    def test_prints_residual(self, capsys):
        assert main(["calibration"]) == 0
        assert "mean residual" in capsys.readouterr().out


class TestLatency:
    def test_prints_overheads(self, capsys):
        assert main(["latency"]) == 0
        out = capsys.readouterr().out
        assert "rabit+es" in out and "overhead" in out


class TestMine:
    def test_mines_and_writes_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "traces.jsonl"
        code = main(
            ["mine", "--hein", "3", "--berlinguette", "3", "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "door of" in out  # mined door invariant
        assert "classified rules total" in out


class TestCampaign:
    def test_single_config_campaign(self, capsys):
        # Run only the initial configuration to keep the CLI test fast.
        assert main(["campaign", "--configs", "initial"]) == 0
        out = capsys.readouterr().out
        assert "8/16" in out and "50 %" in out
        assert "match the paper" in out


class TestMonteCarlo:
    def test_small_sweep_with_jsonl_export(self, tmp_path, capsys):
        # Two mutants keep the CLI test fast (each is two full runs);
        # seed 30's first two are a Bug-C-class miss and a caught spill.
        jsonl = tmp_path / "mutants.jsonl"
        code = main(
            ["montecarlo", "--samples", "2", "--seed", "30",
             "--jsonl", str(jsonl)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Monte Carlo bug study" in out
        assert "sampled mutants" in out and "false alarms" in out
        assert "Missed mutants:" in out and "delete pick_grid" in out

        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert [r["index"] for r in rows] == [0, 1]
        assert rows[0]["description"] == "delete pick_grid"
        assert rows[0]["classification"] == "false_negative"
        assert rows[1]["classification"] == "true_positive"
        assert all(
            set(r) == {"index", "description", "harmful", "detected",
                       "damage_kinds", "classification"}
            for r in rows
        )


class TestMetrics:
    def test_solubility_workload_exports_trace_and_prometheus(self, tmp_path, capsys):
        from repro.obs import OBS

        trace_out = tmp_path / "trace.jsonl"
        prom_out = tmp_path / "metrics.prom"
        json_out = tmp_path / "metrics.json"
        code = main(
            [
                "metrics",
                "--workload", "solubility",
                "--trace-out", str(trace_out),
                "--prom-out", str(prom_out),
                "--json-out", str(json_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Observability summary" in out
        assert "commands intercepted" in out
        assert "Hottest spans" in out

        # The JSONL trace parses and contains nested guard spans.
        docs = [json.loads(line) for line in trace_out.read_text().splitlines()]
        assert docs, "empty span trace"
        names = {d["name"] for d in docs}
        assert {"intercept.command", "rabit.guard", "es.validate_trajectory"} <= names
        assert all("start_wall" in d and "attributes" in d for d in docs)
        # Virtual-clock stamps arrive once the workload binds its clock.
        assert any(d["start_virtual"] is not None for d in docs)

        # The Prometheus dump covers interceptor, rule cache, and sweeps.
        prom = prom_out.read_text()
        for needle in (
            "# TYPE rabit_commands_intercepted_total counter",
            "rabit_rule_cache_lookups_total{",
            "geometry_pair_checks_total",
            "rabit_guard_wall_seconds_bucket",
            "# TYPE kinematics_ik_solves_total counter",
        ):
            assert needle in prom, needle
        assert re.search(
            r'^kinematics_ik_solves_total\{outcome="converged"\} [1-9]', prom, re.M
        ), prom
        assert re.search(r"^es_trajectory_checks_total [1-9]", prom, re.M), prom

        snapshot = json.loads(json_out.read_text())
        assert "rabit_commands_intercepted_total" in snapshot["counters"]

        # The CLI leaves the global runtime off and empty.
        assert not OBS.enabled
        assert OBS.collector.recorded == 0

    def test_scenarios_workload(self, tmp_path, capsys):
        code = main(
            [
                "metrics",
                "--workload", "scenarios",
                "--trace-out", str(tmp_path / "t.jsonl"),
                "--prom-out", str(tmp_path / "m.prom"),
            ]
        )
        assert code == 0
        prom = (tmp_path / "m.prom").read_text()
        assert "rabit_alerts_total{" in prom  # violations fired alerts
        out = capsys.readouterr().out
        assert "scenarios (15 units)" in out


class TestRender:
    def test_renders_each_lab(self, capsys):
        for lab in ("hein", "testbed", "berlinguette"):
            assert main(["render", "--lab", lab]) == 0
        out = capsys.readouterr().out
        assert "top-down" in out and "dosing_device" in out

    def test_testbed_renders_both_frames(self, capsys):
        assert main(["render", "--lab", "testbed"]) == 0
        out = capsys.readouterr().out
        assert "frame 'viperx'" in out and "frame 'ned2'" in out
