"""Domain model: validation paths, penetration scaling, serialization."""

import dataclasses
import json
import math

import pytest

from evcsmarket import dam, fleet, model as md
from conftest import one_bus_scenario, two_period_fleet


def minimal_network(horizon=2, two_refs=False):
    return md.Network(
        buses=(
            md.Bus("b1", -1.0, 1.0, reference=True),
            md.Bus("b2", -1.0, 1.0, reference=two_refs),
        ),
        lines=(md.Line("l1", "b1", "b2", 0.1, -50.0, 50.0),),
        generators=(
            md.Generator("g1", "b1", 0.0, 100.0, (md.CostSegment(0.0, 100.0, 12.0),)),
        ),
        solar_units=(),
        demands=(md.Demand("d1", "b2", (30.0,) * horizon),),
        horizon=horizon,
    )


def scenario_with(network=None, fleets=None, stations=None):
    f, c = two_period_fleet()
    return md.Scenario(
        "t",
        network if network is not None else minimal_network(),
        fleets if fleets is not None else (f,),
        stations if stations is not None else (c,),
    )


class TestValidate:
    def test_well_formed_is_empty(self):
        report = md.validate(scenario_with())
        assert report.ok
        assert str(report) == "scenario OK"

    def test_two_reference_buses(self):
        report = md.validate(scenario_with(network=minimal_network(two_refs=True)))
        assert not report.ok
        assert any("multiple reference buses" in str(i) for i in report.issues)

    def test_no_reference_bus(self):
        net = minimal_network()
        net = dataclasses.replace(
            net, buses=tuple(dataclasses.replace(b, reference=False) for b in net.buses)
        )
        report = md.validate(scenario_with(network=net))
        assert any("no reference bus" in str(i) for i in report.issues)

    def test_initial_energy_above_ceiling(self):
        f, c = two_period_fleet()
        f = dataclasses.replace(f, initial_energy=25.0)  # energy_max is 20
        report = md.validate(scenario_with(fleets=(f,)))
        assert any("initial_energy" in i.path for i in report.issues)

    def test_missing_line_endpoint(self):
        net = minimal_network()
        net = dataclasses.replace(
            net, lines=(md.Line("l1", "b1", "nowhere", 0.1, -50.0, 50.0),)
        )
        report = md.validate(scenario_with(network=net))
        assert any("endpoint missing" in i.message for i in report.issues)

    def test_nonpositive_reactance(self):
        net = minimal_network()
        net = dataclasses.replace(net, lines=(md.Line("l1", "b1", "b2", 0.0, -50.0, 50.0),))
        report = md.validate(scenario_with(network=net))
        assert any("reactance" in i.path for i in report.issues)

    def test_decreasing_segment_costs(self):
        net = minimal_network()
        gen = md.Generator(
            "g1", "b1", 0.0, 100.0,
            (md.CostSegment(0.0, 50.0, 20.0), md.CostSegment(0.0, 50.0, 10.0)),
        )
        net = dataclasses.replace(net, generators=(gen,))
        report = md.validate(scenario_with(network=net))
        assert any("non-decreasing" in i.message for i in report.issues)

    def test_segments_must_cover_dispatch_range(self):
        net = minimal_network()
        gen = md.Generator("g1", "b1", 0.0, 100.0, (md.CostSegment(0.0, 40.0, 20.0),))
        net = dataclasses.replace(net, generators=(gen,))
        report = md.validate(scenario_with(network=net))
        assert any("cover the dispatch range" in i.message for i in report.issues)

    def test_station_width_must_cover_cap(self):
        f, c = two_period_fleet()
        c = dataclasses.replace(c, segments=(md.WtpSegment(4.0, (0.0, 0.0), (50.0, 50.0)),))
        report = md.validate(scenario_with(fleets=(f,), stations=(c,)))
        assert any("cover the station charging cap" in i.message for i in report.issues)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("budget", 0),
            ("budget", "400"),
            ("step_min", 0.0),
            ("block_width", 0),
            ("feas_tol", math.inf),
            ("duality_tol", -1e-6),
        ],
    )
    def test_bad_setting_is_named_by_its_path(self, field, value):
        scenario = dataclasses.replace(
            scenario_with(), settings=md.SolverSettings(**{field: value})
        )
        report = md.validate(scenario)
        assert [i.path for i in report.issues] == [f"settings.{field}"]

    def test_unknown_station_reference(self):
        f, c = two_period_fleet()
        f = dataclasses.replace(
            f, station_caps={"ghost": 5.0}, station_connectivity={"ghost": (1.0, 1.0)}
        )
        report = md.validate(scenario_with(fleets=(f,), stations=(c,)))
        assert any("unknown station id" in i.message for i in report.issues)

    def test_unrecoverable_driving_is_flagged_with_period(self):
        f, c = two_period_fleet(driving=(0.0, 50.0))  # caps allow at most 20 MWh charge
        report = md.validate(scenario_with(fleets=(f,)))
        assert any("energy floor violated at period 1" in i.message for i in report.issues)

    def test_series_length_mismatch(self):
        f, c = two_period_fleet()
        f = dataclasses.replace(f, tou=(20.0,))
        report = md.validate(scenario_with(fleets=(f,)))
        assert any("series length" in i.message for i in report.issues)

    def test_valid_scenario_builders_do_not_raise(self):
        scenario = one_bus_scenario()
        assert md.validate(scenario).ok
        finput = fleet.fleet_input(scenario, {"c1": (20.0, 20.0)})
        fleet.build_fleet(finput)
        schedule = fleet.solve_fleet(finput)
        from evcsmarket.bilevel import dam_input_for

        dam.build_dam(dam_input_for(scenario, schedule))


class TestPenetrationScaling:
    def scenario(self, ev_mwh, non_ev_mwh):
        # one period, efficiencies 1, so driving == EV grid demand
        net = md.Network(
            buses=(md.Bus("b1", -1.0, 1.0, True),),
            lines=(),
            generators=(
                md.Generator("g1", "b1", 0.0, 4000.0, (md.CostSegment(0.0, 4000.0, 10.0),)),
            ),
            solar_units=(),
            demands=(md.Demand("d1", "b1", (non_ev_mwh,)),),
            horizon=1,
        )
        f = md.EVFleet(
            id="f1", bus="b1", max_charge=1000.0, home_cap=1000.0,
            home_connectivity=(1.0,),
            station_caps={"c1": 1000.0}, station_connectivity={"c1": (1.0,)},
            energy_min=0.0, energy_max=2000.0, initial_energy=1000.0,
            charge_efficiency=1.0, discharge_efficiency=1.0,
            driving=(ev_mwh,), tou=(200.0,),
        )
        c = md.ChargingStation(
            "c1", "f1", (50.0,), (150.0,),
            (md.WtpSegment(1000.0, (0.0,), (100.0,)),),
        )
        return md.Scenario("scale", net, (f,), (c,))

    def test_identity_at_base_level(self):
        s = self.scenario(100.0, 900.0)
        assert md.penetration_level(s) == pytest.approx(0.10)
        scaled = md.scale_penetration(s, 0.10)
        assert scaled.fleets[0].driving[0] == pytest.approx(100.0)
        assert scaled.fleets[0].max_charge == pytest.approx(1000.0)

    def test_request_20_percent_gives_225(self):
        # solve x/(900+x)=0.2 by hand: x = 225
        scaled = md.scale_penetration(self.scenario(100.0, 900.0), 0.20)
        assert md.ev_charge_demand(scaled) == pytest.approx(225.0, rel=1e-12)
        assert md.penetration_level(scaled) == pytest.approx(0.20, rel=1e-12)

    def test_request_25_percent_gives_300(self):
        # x/(900+x)=0.25: x = 300
        scaled = md.scale_penetration(self.scenario(100.0, 900.0), 0.25)
        assert md.ev_charge_demand(scaled) == pytest.approx(300.0, rel=1e-12)

    def test_monotone_in_level(self):
        s = self.scenario(100.0, 900.0)
        demands = [md.ev_charge_demand(md.scale_penetration(s, lv)) for lv in (0.1, 0.2, 0.3, 0.5)]
        assert all(b > a for a, b in zip(demands, demands[1:]))

    def test_bounds_and_widths_scale_together(self):
        s = self.scenario(100.0, 900.0)
        scaled = md.scale_penetration(s, 0.20)
        f = scaled.fleets[0]
        assert f.station_caps[0][1] == pytest.approx(2250.0)
        assert scaled.stations[0].segments[0].width == pytest.approx(2250.0)
        assert f.energy_max - f.energy_min == pytest.approx(2.25 * 2000.0)
        assert md.validate(scaled).ok

    def test_level_out_of_range(self):
        s = self.scenario(100.0, 900.0)
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                md.scale_penetration(s, bad)

    def test_zero_ev_demand_rejected(self):
        s = self.scenario(0.0, 900.0)
        with pytest.raises(ValueError, match="no EV charge demand"):
            md.scale_penetration(s, 0.2)

    def test_scale_solar(self):
        s = one_bus_scenario()
        net = dataclasses.replace(
            s.network, solar_units=(md.SolarUnit("s1", "b1", (5.0, 7.0)),)
        )
        s = dataclasses.replace(s, network=net)
        doubled = md.scale_solar(s, 2.0)
        assert doubled.network.solar_units[0].available == (10.0, 14.0)
        with pytest.raises(ValueError):
            md.scale_solar(s, -1.0)


class TestSerialization:
    def test_round_trip(self, desk):
        doc = md.scenario_to_json(desk)
        again = md.scenario_from_json(doc)
        assert md.scenario_to_json(again) == doc

    def test_cents_conversion(self):
        scenario = one_bus_scenario()
        doc = md.scenario_to_json(scenario)
        f = doc["fleets"][0]
        del f["tou"]
        f["tou_cents_per_kwh"] = 2.5
        loaded = md.scenario_from_json(doc)
        assert loaded.fleets[0].tou == (25.0, 25.0)

    def test_scalar_broadcast(self):
        doc = md.scenario_to_json(one_bus_scenario())
        doc["fleets"][0]["tou"] = 42.0
        loaded = md.scenario_from_json(doc)
        assert loaded.fleets[0].tou == (42.0, 42.0)

    def test_csv_series_reference(self, tmp_path):
        (tmp_path / "series.csv").write_text("id,t0,t1\nd1,11,13\n")
        doc = md.scenario_to_json(one_bus_scenario())
        doc["network"]["demands"][0]["load"] = {"csv": "series.csv", "id": "d1"}
        loaded = md.scenario_from_json(doc, base_dir=tmp_path)
        assert loaded.network.demands[0].load == (11.0, 13.0)

    def test_csv_reference_unknown_id(self, tmp_path):
        (tmp_path / "series.csv").write_text("id,t0,t1\nother,1,2\n")
        doc = md.scenario_to_json(one_bus_scenario())
        doc["network"]["demands"][0]["load"] = {"csv": "series.csv", "id": "d1"}
        with pytest.raises(md.ScenarioFormatError, match="not in"):
            md.scenario_from_json(doc, base_dir=tmp_path)

    def test_read_series_csv_requires_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nope,1,2\n")
        with pytest.raises(md.ScenarioFormatError, match="header"):
            md.read_series_csv(p)

    def test_unknown_settings_rejected(self):
        doc = md.scenario_to_json(one_bus_scenario())
        doc["settings"]["typo_key"] = 1
        with pytest.raises(md.ScenarioFormatError, match="unknown keys"):
            md.scenario_from_json(doc)

    def test_legacy_workers_key_dropped(self):
        doc = md.scenario_to_json(one_bus_scenario())
        assert "workers" not in doc["settings"]
        legacy = {**doc, "settings": {**doc["settings"], "workers": 4}}
        loaded = md.scenario_from_json(legacy)
        assert loaded == md.scenario_from_json(doc)
        assert md.scenario_to_json(loaded) == doc

    def test_unsupported_schema_version(self):
        doc = md.scenario_to_json(one_bus_scenario())
        doc["schema_version"] = 99
        with pytest.raises(md.ScenarioFormatError, match="schema_version"):
            md.scenario_from_json(doc)

    def test_missing_required_field(self):
        doc = md.scenario_to_json(one_bus_scenario())
        del doc["fleets"][0]["energy_min"]
        with pytest.raises(md.ScenarioFormatError, match="malformed"):
            md.scenario_from_json(doc)

    def test_load_save_files(self, tmp_path, desk):
        path = tmp_path / "scenario.json"
        md.save_scenario(desk, path)
        loaded = md.load_scenario(path)
        assert md.scenario_to_json(loaded) == md.scenario_to_json(desk)
        # the file itself is deterministic
        md.save_scenario(loaded, tmp_path / "again.json")
        assert path.read_text() == (tmp_path / "again.json").read_text()
