"""Command-line surface: exit codes, outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from evcsmarket import model as md
from evcsmarket.cli import main
from conftest import one_bus_scenario


@pytest.fixture()
def toy_path(tmp_path):
    path = tmp_path / "toy.json"
    md.save_scenario(one_bus_scenario(budget=40), path)
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestValidate:
    def test_ok_exit_zero(self, toy_path, capsys):
        assert run_cli("validate", toy_path) == 0
        assert "scenario OK" in capsys.readouterr().out

    def test_invariant_violation_exit_one(self, tmp_path, capsys):
        scenario = one_bus_scenario()
        doc = md.scenario_to_json(scenario)
        doc["network"]["buses"][0]["reference"] = True
        doc["network"]["buses"].append(dict(doc["network"]["buses"][0], id="b2"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", path) == 1
        assert "multiple reference buses" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path):
        assert run_cli("validate", tmp_path / "nope.json") == 2

    def test_malformed_json_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("validate", path) == 2

    def test_unusable_document_exit_two(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert run_cli("validate", path) == 2


class TestRun:
    def test_writes_outputs_and_passes(self, toy_path, tmp_path, capsys):
        out = tmp_path / "results"
        assert run_cli("run", toy_path, "--out", out) == 0
        for name in (
            "outcome.json",
            "certificate.json",
            "metrics.csv",
            "hourly_profile.csv",
            "bus_lmp_charged.csv",
        ):
            assert (out / name).exists(), name
        text = capsys.readouterr().out
        assert "certificate: PASS" in text
        header = (out / "hourly_profile.csv").read_text().splitlines()[0]
        assert header == "hour,avg_offer_c_kwh,retail_price_c_kwh,avg_wtp_usd_mwh,charged_mw"
        header = (out / "bus_lmp_charged.csv").read_text().splitlines()[0]
        assert header == "bus,hour,lmp_usd_mwh,charged_mw"

    def test_budget_one_still_certified(self, toy_path, tmp_path):
        assert run_cli("run", toy_path, "--budget", 1, "--out", tmp_path / "b1") == 0

    def test_deterministic_artifacts(self, toy_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("run", toy_path, "--seed", 7, "--out", out1) == 0
        assert run_cli("run", toy_path, "--seed", 7, "--out", out2) == 0
        for name in ("outcome.json", "metrics.csv", "hourly_profile.csv", "bus_lmp_charged.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_certify_cached_outcome(self, toy_path, tmp_path):
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        assert run_cli("run", toy_path, "--out", out, "--certify") == 0

    def test_certify_corrupted_cache_exit_three(self, toy_path, tmp_path):
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        bus = next(iter(doc["dam"]["lmp"]))
        doc["dam"]["lmp"][bus][0] += 4.0
        (out / "outcome.json").write_text(json.dumps(doc))
        assert run_cli("run", toy_path, "--out", out, "--certify") == 3

    def test_certify_unmeetable_driving_exit_three(self, toy_path, tmp_path, capsys):
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        doc["scenario"]["fleets"][0]["driving"] = [0.0, 500.0]
        (out / "outcome.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", toy_path, "--out", out, "--certify") == 3
        assert "fleet_strong_duality: inf at fleet f1" in capsys.readouterr().out

    def test_certify_nan_in_cache_exit_three(self, toy_path, tmp_path, capsys):
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        doc["schedule"]["total"]["f1"][0] = float("nan")
        (out / "outcome.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", toy_path, "--out", out, "--certify") == 3
        assert "dam_feasibility: inf" in capsys.readouterr().out

    def test_certify_truncated_series_in_cache_exit_three(self, toy_path, tmp_path, capsys):
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        doc["schedule"]["home"]["f1"] = doc["schedule"]["home"]["f1"][:1]
        (out / "outcome.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", toy_path, "--out", out, "--certify") == 3
        assert "fleet_feasibility: inf at fleet f1" in capsys.readouterr().out

    def test_certify_missing_key_in_cache_exit_three(self, toy_path, tmp_path, capsys):
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        doc["schedule"]["home"] = {}
        (out / "outcome.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", toy_path, "--out", out, "--certify") == 3
        assert "fleet_feasibility: inf at fleet f1" in capsys.readouterr().out

    def test_certify_without_cache_exit_two(self, toy_path, tmp_path):
        assert run_cli("run", toy_path, "--out", tmp_path / "fresh", "--certify") == 2

    def test_invalid_scenario_exit_one(self, tmp_path):
        doc = md.scenario_to_json(one_bus_scenario())
        doc["network"]["buses"][0]["reference"] = False
        path = tmp_path / "noref.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", path, "--out", tmp_path / "o") == 1

    def test_budget_below_one_is_a_usage_error(self, toy_path, tmp_path, capsys):
        assert run_cli("run", toy_path, "--budget", 0, "--out", tmp_path / "o") == 2
        assert "error: argument --budget: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_setting_exit_one_names_the_field(self, tmp_path, capsys):
        doc = md.scenario_to_json(one_bus_scenario())
        doc["settings"]["block_width"] = 0
        path = tmp_path / "bad_settings.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", path, "--out", tmp_path / "o") == 1
        assert "settings.block_width" in capsys.readouterr().err

    def test_default_out_dir_from_env(self, toy_path, tmp_path, monkeypatch):
        monkeypatch.setenv("EVCSMARKET_OUT", str(tmp_path / "envout"))
        assert run_cli("run", toy_path, "--budget", 1) == 0
        assert (tmp_path / "envout" / "outcome.json").exists()


class TestSweep:
    def test_pv_axis(self, toy_path, tmp_path, capsys):
        out = tmp_path / "sw"
        code = run_cli("sweep", toy_path, "--pv", "0,1", "--budget", 20, "--out", out)
        assert code == 0
        text = capsys.readouterr().out
        assert "trend verdicts" in text
        assert "context only, not asserted" in text
        lines = (out / "sweep_pv.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("pv_multiplier,revenue_usd")

    def test_penetration_axis(self, toy_path, tmp_path):
        out = tmp_path / "sw"
        code = run_cli(
            "sweep", toy_path, "--penetration", "0.05,0.1", "--budget", 20, "--out", out
        )
        assert code == 0
        assert (out / "sweep_penetration.csv").exists()

    def test_both_axes_usage_error(self, toy_path, tmp_path):
        assert run_cli("sweep", toy_path, "--pv", "1", "--penetration", "0.1") == 2

    def test_no_axis_usage_error(self, toy_path):
        assert run_cli("sweep", toy_path) == 2

    def test_unparseable_levels(self, toy_path):
        assert run_cli("sweep", toy_path, "--pv", "a,b") == 2

    def test_budget_below_one_is_a_usage_error(self, toy_path, tmp_path, capsys):
        code = run_cli("sweep", toy_path, "--pv", "0,1", "--budget", 0, "--out", tmp_path / "sw")
        assert code == 2
        assert "error: argument --budget: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_sweep_determinism(self, toy_path, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli("sweep", toy_path, "--pv", "0,1", "--budget", 20, "--seed", 5, "--out", out1)
        run_cli("sweep", toy_path, "--pv", "0,1", "--budget", 20, "--seed", 5, "--out", out2)
        assert (out1 / "sweep_pv.csv").read_bytes() == (out2 / "sweep_pv.csv").read_bytes()

    def test_failed_level_reported_exit_three(self, toy_path, tmp_path, capsys):
        code = run_cli(
            "sweep", toy_path, "--penetration", "0.05,0.95", "--budget", 10,
            "--out", tmp_path / "sw",
        )
        assert code == 3
        assert "ERROR" in capsys.readouterr().out


def test_unknown_command_exit_two():
    assert main(["frobnicate"]) == 2


def test_python_dash_m_entry_point():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "evcsmarket", "validate", "data/desk_5bus.json"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "scenario OK" in proc.stdout
