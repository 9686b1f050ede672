"""Command-line surface: exit codes, outputs, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from evcsmarket import bilevel as bl
from evcsmarket import model as md
from evcsmarket.cli import main
from conftest import one_bus_scenario

DESK = Path(__file__).parent.parent / "data" / "desk_5bus.json"


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

    @pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()],
                             ids=["missing", "unreadable"])
    def test_unreadable_series_file_is_named_with_its_field(self, tmp_path, capsys, make):
        make(tmp_path / "nope.csv")
        doc = md.scenario_to_json(one_bus_scenario())
        doc["network"]["demands"][0]["load"] = {"csv": "nope.csv", "id": "d1"}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", path) == 2
        err = capsys.readouterr().err
        assert f"network.demands[0].load: cannot read series file {tmp_path / 'nope.csv'}" in err
        assert "cannot read scenario file" not in err

    def test_directory_exit_two(self, tmp_path, capsys):
        assert run_cli("validate", tmp_path) == 2
        assert f"error: cannot read scenario file: {tmp_path}" in capsys.readouterr().err

    def test_malformed_json_exit_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("validate", path) == 2

    def test_unusable_document_exit_two(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert run_cli("validate", path) == 2

    def test_unknown_parameterization_exit_two(self, tmp_path, capsys):
        doc = md.scenario_to_json(one_bus_scenario())
        doc["settings"]["parameterization"] = "hourly"
        path = tmp_path / "hourly.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", path) == 2
        assert "error: settings.parameterization: must be one of (" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, code",
        [
            ("feas_tol", "x", 2),
            ("feas_tol", 1e-6, 2),
            ("duality_tol", 1e-5, 2),
            ("multistarts", "x", 2),
            ("budget", 2.5, 2),
            ("seed", True, 2),
            ("multistarts", 0, 1),
            ("seed", -3, 1),
        ],
    )
    def test_bad_setting_names_the_field(self, tmp_path, capsys, field, value, code):
        # a non-number cannot be read (2); a number out of range is an
        # invariant violation (1)
        doc = md.scenario_to_json(one_bus_scenario())
        doc["settings"][field] = value
        path = tmp_path / "bad_settings.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", path) == code
        assert f"settings.{field}" in "".join(capsys.readouterr())
        assert run_cli("run", path, "--out", tmp_path / "o") == code
        assert f"settings.{field}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "path, name",
        [(("fleets", 0, "energy_max"), "fleets[0].energy_max"), (("settings", "feas_tol"), "settings.feas_tol")],
    )
    def test_integer_too_large_for_a_float_exit_two(self, tmp_path, capsys, path, name):
        doc = md.scenario_to_json(one_bus_scenario())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = int("9" * 401)
        scenario_path = tmp_path / "huge.json"
        scenario_path.write_text(json.dumps(doc))
        assert run_cli("validate", scenario_path) == 2
        assert f"{name}: int too large" in capsys.readouterr().err
        assert run_cli("run", scenario_path, "--out", tmp_path / "o") == 2
        assert f"{name}: int too large" in capsys.readouterr().err

    def test_huge_seed_does_not_take_the_name_of_a_float_field(self, tmp_path, capsys):
        # settings written first: the seed, read with int(), precedes the
        # float field that overflows
        doc = md.scenario_to_json(one_bus_scenario())
        doc = {"settings": doc.pop("settings"), **doc}
        doc["settings"]["seed"] = int("9" * 401)
        doc["fleets"][0]["energy_max"] = int("9" * 401)
        scenario_path = tmp_path / "huge.json"
        scenario_path.write_text(json.dumps(doc))
        assert run_cli("validate", scenario_path) == 2
        err = capsys.readouterr().err
        assert "fleets[0].energy_max: int too large" in err
        assert "seed" not in err

    @pytest.mark.parametrize(
        "keys, value, name",
        [
            (("network", "horizon"), 24.7, "network.horizon: expected an integer"),
            (("network", "buses", 0, "reference"), "false", "network.buses[0].reference: expected"),
        ],
    )
    def test_value_of_the_wrong_kind_exit_two(self, tmp_path, capsys, keys, value, name):
        doc = md.scenario_to_json(one_bus_scenario())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        scenario_path = tmp_path / "wrong_kind.json"
        scenario_path.write_text(json.dumps(doc))
        assert run_cli("validate", scenario_path) == 2
        assert name in capsys.readouterr().err

    def test_misspelled_key_exit_two(self, tmp_path, capsys):
        doc = md.scenario_to_json(one_bus_scenario())
        doc["fleets"][0]["home_capp"] = 10.0
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", path) == 2
        assert "error: fleets[0]: unknown keys ['home_capp']" in capsys.readouterr().err
        assert run_cli("run", path, "--out", tmp_path / "o") == 2
        assert "error: fleets[0]: unknown keys ['home_capp']" in capsys.readouterr().err
        assert not (tmp_path / "o" / "outcome.json").exists()


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

    def test_certify_nan_in_cache_exit_three(self, toy_path, tmp_path, capsys):
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        doc["schedule"]["total"]["f1"][0] = float("nan")
        (out / "outcome.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", toy_path, "--out", out, "--certify") == 3
        assert "dam_feasibility: inf" in capsys.readouterr().out

    @pytest.mark.parametrize("name, value", [("feas_tol", 1e-6), ("duality_tol", 1e-5)])
    def test_certify_other_solver_tolerance_in_cache_exit_two(
        self, toy_path, tmp_path, capsys, name, value
    ):
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        doc["scenario"]["settings"][name] = value
        (out / "outcome.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", toy_path, "--out", out, "--certify") == 2
        assert f"cached outcome unreadable: settings.{name}: must be" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "path",
        [
            ("scenario", "settings", "feas_tol"),
            ("schedule", "home", "f1", 0),
            ("dam", "lmp", "b1", 1),
            ("offers", "c1", 0),
            ("schedule", "fleet_costs", "f1"),
            ("schedule", "home"),
            ("profit",),
            ("schedule", "cost"),
        ],
    )
    @pytest.mark.parametrize("bad", ["x", None, "1.0", True])
    def test_certify_non_number_in_cache_exit_two(self, toy_path, tmp_path, capsys, path, bad):
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        (out / "outcome.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", toy_path, "--out", out, "--certify") == 2
        assert "error: --certify: cached outcome unreadable" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, name",
        [
            # the embedded scenario's reader names paths within the scenario
            (("scenario", "fleets", 0, "energy_max"), "fleets[0].energy_max"),
            (("scenario", "settings", "feas_tol"), "settings.feas_tol"),
            (("schedule", "home", "f1", 0), "schedule.home.f1[0]"),
            (("dam", "lmp", "b1", 1), "dam.lmp.b1[1]"),
            (("profit",), "profit"),
            (("strategy", "values", 0), "strategy.values[0]"),
        ],
    )
    def test_certify_integer_too_large_in_cache_exit_two(self, toy_path, tmp_path, capsys, path, name):
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = int("9" * 401)
        (out / "outcome.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", toy_path, "--out", out, "--certify") == 2
        assert f"cached outcome unreadable: {name}: int too large" in capsys.readouterr().err

    def test_certify_huge_integer_field_is_not_named_in_cache(self, toy_path, tmp_path, capsys):
        # scenario.settings.seed and a parameter's t_start are read with
        # int() and come before the schedule entry whose float() overflows
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        doc["scenario"]["settings"]["seed"] = int("9" * 401)
        doc["strategy"]["parameters"][0]["t_start"] = int("9" * 401)
        doc["schedule"]["home"]["f1"][0] = int("9" * 401)
        (out / "outcome.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", toy_path, "--out", out, "--certify") == 2
        err = capsys.readouterr().err
        assert "cached outcome unreadable: schedule.home.f1[0]: int too large" in err

    @pytest.mark.parametrize(
        "change, report",
        [
            (
                lambda doc: doc["fleets"][0].update(tou=doc["fleets"][0]["tou"][:-1]),
                "fleets[0].tou: series length 1 != horizon 2",
            ),
            (
                lambda doc: doc["fleets"][0].update(
                    home_connectivity=doc["fleets"][0]["home_connectivity"][:-1]
                ),
                "fleets[0].home_connectivity: series length 1",
            ),
            (
                lambda doc: doc["fleets"][0].update(bus="ghost"),
                "fleets[0]: bus 'ghost' not in network",
            ),
            (
                lambda doc: doc["fleets"][0].update(driving=[0.0, 500.0]),
                "fleets[0]: driving discharge cannot be recovered",
            ),
            (
                lambda doc: doc["network"]["lines"].append(
                    {"id": "l9", "from_bus": "b1", "to_bus": "ghost", "reactance": 0.1,
                     "flow_max": 10.0}
                ),
                "network.lines[0]: endpoint missing: b1-ghost",
            ),
            (
                lambda doc: doc["network"]["buses"][0].update(reference=False),
                "network.buses: no reference bus flagged",
            ),
        ],
        ids=[
            "short_tou", "short_home_connectivity", "unknown_bus", "unmeetable_driving",
            "unknown_line_endpoint", "no_reference_bus",
        ],
    )
    def test_certify_cached_scenario_failing_validate_exit_one(
        self, toy_path, tmp_path, capsys, change, report
    ):
        # one answer whether or not `certify` could still build its LPs
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        change(doc["scenario"])
        (out / "outcome.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", toy_path, "--out", out, "--certify") == 1
        captured = capsys.readouterr()
        assert report in captured.err and "certificate" not in captured.out

    @pytest.mark.parametrize(
        "keys", [("scenario", "fleets", 0, "home_capp"), ("schedule", "totl")]
    )
    def test_certify_misspelled_key_in_cache_exit_two(self, toy_path, tmp_path, capsys, keys):
        out = tmp_path / "cache"
        assert run_cli("run", toy_path, "--out", out) == 0
        doc = json.loads((out / "outcome.json").read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = 1.0
        (out / "outcome.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("run", toy_path, "--out", out, "--certify") == 2
        err = capsys.readouterr().err
        assert "cached outcome unreadable: " in err and f"unknown keys ['{keys[-1]}']" in err

    def test_failing_certificate_exit_three(self, toy_path, tmp_path, capsys, monkeypatch):
        def failing(outcome):
            return bl.Certificate({"offer_bounds": 1.0}, tolerance=1e-6, feas_tolerance=1e-7)

        monkeypatch.setattr(bl, "certify", failing)
        assert run_cli("run", toy_path, "--out", tmp_path / "o") == 3
        captured = capsys.readouterr()
        assert "certificate: FAIL" in captured.out
        assert "certification FAILED: {'offer_bounds': 1.0}" in captured.err

    def test_home_charging_only_scenario(self, tmp_path, capsys):
        # no station: nothing to search, and owners pay what they pay at home
        doc = md.scenario_to_json(one_bus_scenario())
        doc["stations"] = []
        for fleet in doc["fleets"]:
            fleet["station_caps"] = fleet["station_connectivity"] = {}
        path, out = tmp_path / "home_only.json", tmp_path / "home_only"
        path.write_text(json.dumps(doc))
        assert run_cli("validate", path) == 0
        capsys.readouterr()
        assert run_cli("run", path, "--out", out) == 0
        text = capsys.readouterr().out
        assert json.loads((out / "outcome.json").read_text())["profit"] == 0.0
        assert json.loads((out / "certificate.json").read_text())["passed"] is True
        paid = re.search(r"owner payment \$(\S+) with stations, \$(\S+) without", text)
        assert paid.group(1) == paid.group(2)

    def test_certify_without_cache_exit_two(self, toy_path, tmp_path):
        assert run_cli("run", toy_path, "--out", tmp_path / "fresh", "--certify") == 2

    def test_certify_cache_that_is_a_directory_exit_two(self, toy_path, tmp_path, capsys):
        (tmp_path / "cache" / "outcome.json").mkdir(parents=True)
        assert run_cli("run", toy_path, "--out", tmp_path / "cache", "--certify") == 2
        assert "error: --certify: cached outcome unreadable: " in capsys.readouterr().err

    def test_out_that_is_a_file_exit_two(self, toy_path, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli("run", toy_path, "--out", out) == 2
        assert f"error: cannot use output directory {out}: " in capsys.readouterr().err
        assert out.read_text() == ""

    def test_invalid_scenario_exit_one(self, tmp_path):
        doc = md.scenario_to_json(one_bus_scenario())
        doc["network"]["buses"][0]["reference"] = False
        path = tmp_path / "noref.json"
        path.write_text(json.dumps(doc))
        assert run_cli("run", path, "--out", tmp_path / "o") == 1

    @pytest.mark.parametrize(
        "keys, path",
        [
            (("network", "solar_units", 0, "available", 0), "network.solar_units[0].available[0]"),
            (("fleets", 0, "tou", 0), "fleets[0].tou[0]"),
        ],
    )
    def test_nan_in_scenario_exit_one_with_the_report(self, tmp_path, capsys, keys, path):
        doc = json.loads(DESK.read_text())
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = float("nan")
        scenario = tmp_path / "nan.json"
        scenario.write_text(json.dumps(doc))
        assert run_cli("validate", scenario) == 1
        assert f"{path}: not a number" in capsys.readouterr().out
        assert run_cli("run", scenario, "--out", tmp_path / "o") == 1
        assert f"{path}: not a number" in capsys.readouterr().err

    def test_budget_below_one_is_a_usage_error(self, toy_path, tmp_path, capsys):
        assert run_cli("run", toy_path, "--budget", 0, "--out", tmp_path / "o") == 2
        assert "error: argument --budget: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_is_a_usage_error(self, toy_path, tmp_path, capsys):
        assert run_cli("run", toy_path, "--seed", -1, "--out", tmp_path / "o") == 2
        assert "error: argument --seed: must be >= 0" in capsys.readouterr().err
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

    @pytest.mark.parametrize("flag, text", [("--pv", ","), ("--penetration", "")])
    def test_empty_level_list_names_the_flag(self, toy_path, tmp_path, capsys, flag, text):
        assert run_cli("sweep", toy_path, flag, text, "--out", tmp_path / "sw") == 2
        assert f"error: {flag}: no levels given" in capsys.readouterr().err

    def test_budget_below_one_is_a_usage_error(self, toy_path, tmp_path, capsys):
        code = run_cli("sweep", toy_path, "--pv", "0,1", "--budget", 0, "--out", tmp_path / "sw")
        assert code == 2
        assert "error: argument --budget: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_negative_seed_is_a_usage_error(self, toy_path, tmp_path, capsys):
        code = run_cli("sweep", toy_path, "--pv", "0,1", "--seed", -1, "--out", tmp_path / "sw")
        assert code == 2
        assert "error: argument --seed: must be >= 0" in capsys.readouterr().err
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
