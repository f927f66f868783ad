"""Tests for the experiment configuration and the CLI."""

import json

import pytest

from repro.cli import main
from repro.config import ExperimentConfig
from repro.errors import ConfigurationError


class TestExperimentConfig:
    def test_defaults_build_a_scenario(self):
        config = ExperimentConfig()
        spec = config.to_scenario()
        assert spec.environment == "virtualized"
        assert spec.mix.name == "browsing"

    def test_round_trip_through_json(self):
        config = ExperimentConfig(
            environment="bare-metal",
            composition="bidding",
            duration_s=60.0,
            seed=9,
            clients=100,
            metadata={"note": "smoke"},
        )
        clone = ExperimentConfig.from_json(config.to_json())
        assert clone == config

    def test_unknown_environment_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(environment="kubernetes")

    def test_unknown_composition_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(composition="doomscrolling")

    def test_invalid_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(duration_s=0.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"environment": "virtualized",
                                        "gpu": True})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_json("not json")
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_json(json.dumps([1, 2, 3]))

    def test_clients_override_propagates(self):
        config = ExperimentConfig(clients=42, duration_s=30.0)
        assert config.to_scenario().mix.clients == 42

    def test_effective_duration_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_DURATION", raising=False)
        assert ExperimentConfig().effective_duration_s == 240.0
        assert ExperimentConfig(duration_s=33.0).effective_duration_s == 33.0

    def test_open_loop_traffic_round_trip(self):
        config = ExperimentConfig(
            traffic="poisson", rate_rps=120.0, session_budget=500
        )
        clone = ExperimentConfig.from_json(config.to_json())
        assert clone == config
        spec = config.to_scenario()
        assert spec.open_loop
        assert spec.traffic.rate_rps == 120.0
        assert spec.traffic.session_budget == 500

    def test_open_loop_knobs_rejected_on_closed_loop(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(rate_rps=100.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(traffic="closed", session_budget=10)

    def test_scale_multiplies_clients_and_duration(self):
        config = ExperimentConfig(duration_s=30.0, clients=100, scale=2.0)
        spec = config.to_scenario()
        assert spec.duration_s == 60.0
        assert spec.mix.clients == 200

    def test_servers_and_placement_round_trip(self):
        config = ExperimentConfig(
            duration_s=40.0, servers=2, placement="priority",
        )
        clone = ExperimentConfig.from_json(config.to_json())
        assert clone == config
        spec = config.to_scenario()
        assert spec.servers == 2
        assert spec.placement == "priority"
        assert spec.name.endswith("/s2")

    def test_single_server_keeps_plain_name(self):
        spec = ExperimentConfig(duration_s=40.0).to_scenario()
        assert spec.servers == 1
        assert "/s" not in spec.name

    def test_multi_server_requires_virtualized(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(environment="bare-metal", servers=2)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(placement="tetris")

    def test_unknown_traffic_token_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(traffic="chaos")

    def test_faults_round_trip(self):
        config = ExperimentConfig(
            duration_s=40.0, servers=2, faults="crash@60+bot_flood@90:15",
        )
        clone = ExperimentConfig.from_json(config.to_json())
        assert clone == config
        spec = config.to_scenario()
        assert spec.faulted
        assert spec.faults.kinds() == ("crash", "bot_flood")
        assert spec.name.endswith("!crash@60+bot_flood@90:15")

    def test_faults_none_token_runs_fault_free(self):
        spec = ExperimentConfig(duration_s=40.0, faults="none").to_scenario()
        assert not spec.faulted
        assert "!" not in spec.name

    def test_bad_fault_token_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(faults="meteor@60")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(faults="crash")

    def test_faults_require_virtualized(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(environment="bare-metal", faults="crash@60")

    @pytest.mark.parametrize("kwargs", [
        {"clients": 0},
        {"scale": -1.0},
        {"traffic": "poisson", "rate_rps": -5.0},
        {"engine": "warp"},
        {"trace_sample": -0.1},
        {"trace_sample": 1.5},
        {"servers": 0},
        {"servers": 1, "fleet": {}},
        {"environment": "bare-metal", "controller": "pid"},
        {"environment": "bare-metal", "tenants": [{"name": "batch"}]},
    ])
    def test_scenario_checks_fail_at_construction(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(duration_s=40.0, **kwargs)


class TestCli:
    def test_run_prints_summary_and_report(self, capsys):
        code = main(
            [
                "run",
                "--duration", "30",
                "--clients", "100",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "completed" in captured.out
        assert "Workload characterization" in captured.out

    def test_run_no_report(self, capsys):
        code = main(
            ["run", "--duration", "30", "--clients", "100", "--no-report"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Workload characterization" not in captured.out

    def test_run_exports_csv(self, tmp_path, capsys):
        out = tmp_path / "traces.csv"
        code = main(
            [
                "run",
                "--duration", "30",
                "--clients", "100",
                "--no-report",
                "--export-csv", str(out),
            ]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("time_s,")

    def test_run_open_loop_traffic_reports_shedding_counters(self, capsys):
        code = main(
            [
                "run",
                "--duration", "30",
                "--clients", "100",
                "--no-report",
                "--traffic", "poisson",
                "--rate", "60",
                "--session-budget", "400",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "open-loop traffic:" in captured.out
        assert "shed" in captured.out
        assert "sha256" in captured.out

    def test_run_columnar_exports_npz(self, tmp_path, capsys):
        out = tmp_path / "cols.npz"
        code = main(
            [
                "run",
                "--duration", "10",
                "--clients", "50",
                "--no-report",
                "--columnar",
                "--export-columnar", str(out),
            ]
        )
        assert code == 0
        from repro.monitoring.export import read_columnar_npz

        table = read_columnar_npz(str(out))
        assert len(table) == 5
        assert "time_s" in table.columns

    def test_export_columnar_requires_columnar(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(
                [
                    "run",
                    "--duration", "10",
                    "--no-report",
                    "--export-columnar", "/tmp/x.csv",
                ]
            )

    def test_run_list_prints_scenario_names(self, capsys):
        code = main(["run", "--list"])
        captured = capsys.readouterr()
        assert code == 0
        assert "virtualized/browsing" in captured.out
        assert "consolidated_web_batch" in captured.out
        assert "migration_rebalance" in captured.out
        assert "fleet_consolidation" in captured.out

    def test_run_multi_server_prints_bill_and_placement(self, capsys):
        code = main([
            "run", "--servers", "2", "--placement", "balance",
            "--duration", "20", "--clients", "80", "--no-report",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "2 servers (balance placement)" in captured.err
        assert "capacity bill:" in captured.out

    def test_run_scenario_rejects_servers_flag(self):
        with pytest.raises(ConfigurationError, match="--servers"):
            main([
                "run", "--scenario", "migration_rebalance",
                "--servers", "3", "--duration", "10",
            ])

    def test_run_unknown_scenario_names_the_list_flag(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="--list"):
            main(["run", "--scenario", "doomscrolling", "--duration", "10"])

    def test_run_named_consolidated_scenario(self, capsys):
        code = main(
            [
                "run",
                "--scenario", "consolidated_web_batch",
                "--duration", "20",
                "--no-report",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "tenant batch:" in captured.out
        assert "CPU ready time" in captured.out

    def test_sweep_quick_grid_single_worker(self, capsys):
        code = main(
            ["sweep", "--grid", "quick", "--duration", "20", "--workers", "1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "virtualized/browsing" in captured.out
        assert "merged sha256" in captured.out

    def test_sweep_writes_json_report(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        code = main(
            [
                "sweep",
                "--compositions", "browsing",
                "--duration", "20",
                "--clients", "80",
                "--json", str(out),
            ]
        )
        assert code == 0
        import json as json_module

        report = json_module.loads(out.read_text())
        assert "runs" in report and "merged_sha256" in report
        assert "virtualized/browsing" in report["runs"]

    def test_sweep_rejects_unknown_tenant_mix(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["sweep", "--tenant-mixes", "gpu-farm", "--duration", "10"])

    def test_run_faults_prints_schedule_report(self, capsys):
        code = main([
            "run", "--faults", "cap_theft@10:10:0.2/web-vm",
            "--controller", "threshold",
            "--duration", "30", "--clients", "80", "--no-report",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "+ faults cap_theft@10:10:0.2/web-vm" in captured.err
        assert "faults [faults]: 1 injected, 1 cleared" in captured.out

    def test_run_scenario_rejects_faults_flag(self):
        with pytest.raises(ConfigurationError, match="--faults"):
            main([
                "run", "--scenario", "detect_and_evacuate",
                "--faults", "crash@60", "--duration", "10",
            ])

    def test_sweep_faults_axis_shares_seeds(self, capsys):
        code = main([
            "sweep", "--faults", "none,crash@15",
            "--duration", "20", "--clients", "60",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "virtualized/browsing/!crash@15" in captured.out

    def test_sweep_preset_rejects_faults_flag(self):
        with pytest.raises(ConfigurationError, match="--faults"):
            main(["sweep", "--grid", "quick", "--faults", "crash@15"])

    def test_table1_prints_catalogue(self, capsys):
        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "518" in captured.out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["teleport"])
