"""Domain model: validation paths, penetration scaling, serialization."""

import dataclasses
import json
import math
import sys

import pytest

from evcsmarket import dam, fleet, model as md
from evcsmarket import scenarios as sc
from conftest import (
    assert_each_number_is_read_under_its_path,
    dotted,
    load_perfbench,
    one_bus_scenario,
    random_bilevel,
    two_period_fleet,
)


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


def edited(obj, keys, **changes):
    """`obj` with `changes` made to the dataclass at `keys` (field names and
    tuple indices) inside it."""
    if not keys:
        return dataclasses.replace(obj, **changes)
    key, *rest = keys
    if isinstance(key, int):
        return (*obj[:key], edited(obj[key], rest, **changes), *obj[key + 1:])
    return dataclasses.replace(obj, **{key: edited(getattr(obj, key), rest, **changes)})


# one scenario edit per `validate` rule: (scenario, dataclass at, changes, path, message)
_RULE_CASES = [
    ("one_bus", ("network",), {"horizon": 0},
     "network.horizon", "horizon must be >= 1, got 0"),
    ("one_bus", ("network",), {"demands": (md.Demand("d1", "b1", (1.0, 1.0)),) * 2},
     "network.demands[1].id", "duplicate id 'd1'"),
    ("desk", ("network", "buses", 1), {"angle_min": 0.6, "angle_max": 0.4},
     "network.buses[1]", "angle_min exceeds angle_max"),
    ("one_bus", ("network", "buses", 0), {"angle_min": 0.1},
     "network.buses[0]", "reference bus angle bounds must contain 0"),
    ("desk", ("network", "lines", 0), {"flow_min": 1e4},
     "network.lines[0]", "flow_min exceeds flow_max"),
    ("one_bus", ("network", "generators", 0), {"bus": "nowhere"},
     "network.generators[0]", "bus 'nowhere' not in network"),
    ("one_bus", ("network", "generators", 0), {"p_min": 300.0},
     "network.generators[0]", "p_min exceeds p_max"),
    ("one_bus", ("network", "generators", 0, "segments", 0), {"p_min": -1.0},
     "network.generators[0].segments[0]", "segment width must be non-negative"),
    ("one_bus", ("network", "generators", 0), {"segments": ()},
     "network.generators[0]", "generator needs at least one cost segment"),
    ("one_bus", ("network",), {"solar_units": (md.SolarUnit("s1", "nowhere", (1.0, 1.0)),)},
     "network.solar_units[0]", "bus 'nowhere' not in network"),
    ("one_bus", ("network",), {"solar_units": (md.SolarUnit("s1", "b1", (-1.0, 1.0)),)},
     "network.solar_units[0].available", "negative availability"),
    ("one_bus", ("network", "demands", 0), {"bus": "nowhere"},
     "network.demands[0]", "bus 'nowhere' not in network"),
    ("one_bus", ("fleets", 0), {"home_connectivity": (1.5, 1.0)},
     "fleets[0].home_connectivity", "ratios must lie in [0, 1]"),
    ("one_bus", ("fleets", 0), {"driving": (-1.0, 10.0)},
     "fleets[0].driving", "negative driving discharge"),
    ("one_bus", ("fleets", 0), {"charge_efficiency": 1.5},
     "fleets[0].charge_efficiency", "must lie in (0, 1]"),
    ("one_bus", ("fleets", 0), {"discharge_efficiency": 0.0},
     "fleets[0].discharge_efficiency", "must lie in (0, 1]"),
    ("one_bus", ("fleets", 0), {"home_cap": -1.0},
     "fleets[0]", "charge caps must be non-negative"),
    ("one_bus", ("fleets", 0), {"final_energy_min": 25.0},
     "fleets[0].final_energy_min", "outside the battery energy window"),
    ("one_bus", ("fleets", 0), {"station_caps": {"c1": -1.0}},
     "fleets[0].station_caps[c1]", "negative cap"),
    ("one_bus", ("fleets", 0), {"station_connectivity": {}},
     "fleets[0].station_connectivity", "missing series for station 'c1'"),
    ("one_bus", ("fleets", 0), {"station_connectivity": {"c1": (1.0, 2.0)}},
     "fleets[0].station_connectivity[c1]", "ratios must lie in [0, 1]"),
    ("one_bus", ("fleets", 0),
     {"station_connectivity": {"c1": (1.0, 1.0), "c2": (1.0, 1.0)}},
     "fleets[0].station_connectivity[c2]", "series without a matching cap"),
    ("one_bus", ("stations", 0), {"fleet_id": "nowhere"},
     "stations[0]", "fleet 'nowhere' not in scenario"),
    ("one_bus", ("stations", 0), {"offer_min": (50.0, 10.0)},
     "stations[0]", "offer_min exceeds offer_max"),
    ("one_bus", ("stations", 0, "segments", 0), {"width": -1.0},
     "stations[0].wtp_segments[0].width", "negative width"),
    ("one_bus", ("stations", 0, "segments", 0), {"wtp_min": (60.0, 0.0)},
     "stations[0].wtp_segments[0]", "wtp_min exceeds wtp_max"),
]


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
            ("multistarts", "x"),
            ("multistarts", 0),
            ("seed", -3),
            ("seed", 1.5),
            ("step_min", 0.0),
            ("block_width", 0),
        ],
    )
    def test_bad_setting_is_named_by_its_path(self, field, value):
        scenario = dataclasses.replace(
            scenario_with(), settings=md.SolverSettings(**{field: value})
        )
        report = md.validate(scenario)
        assert [i.path for i in report.issues] == [f"settings.{field}"]

    def test_unknown_parameterization_is_named(self):
        # the document reader refuses it; a scenario built in Python reaches validate
        scenario = dataclasses.replace(
            sc.desk_scenario(), settings=md.SolverSettings(parameterization="hourly")
        )
        report = md.validate(scenario)
        assert [(i.path, i.message) for i in report.issues] == [(
            "settings.parameterization",
            "must be one of ('full', 'per_station_period', 'station_blocks'), got 'hourly'",
        )]

    @pytest.mark.parametrize(
        "base, keys, changes, path, message",
        _RULE_CASES,
        # "_conn" keeps the three station-connectivity ids apart within 100 characters
        ids=[
            f"{path}: {message}".replace("_connectivity", "_conn")
            for *_, path, message in _RULE_CASES
        ],
    )
    def test_each_rule_is_named_by_its_path(self, base, keys, changes, path, message):
        scenario = one_bus_scenario() if base == "one_bus" else sc.desk_scenario()
        assert md.validate(scenario).ok
        report = md.validate(edited(scenario, keys, **changes))
        assert [i.message for i in report.issues if i.path == path] == [message], str(report)

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

    @pytest.mark.parametrize(
        "keys, value, path, message",
        [
            (("network", "solar_units", 0, "available", 10), math.nan,
             "network.solar_units[0].available[10]", "not a number"),
            (("fleets", 0, "tou", 3), math.nan, "fleets[0].tou[3]", "not a number"),
            (("fleets", 0, "station_caps", "c4"), math.nan,
             "fleets[0].station_caps.c4", "not a number"),
            (("fleets", 1, "tou", 0), math.inf, "fleets[1].tou[0]", "must be finite"),
            (("network", "demands", 0, "load", 5), -math.inf,
             "network.demands[0].load[5]", "must be finite"),
            (("stations", 0, "offer_max", 9), math.inf, "stations[0].offer_max[9]", "must be finite"),
            (("network", "generators", 2, "segments", 1, "cost"), math.inf,
             "network.generators[2].segments[1].cost", "must be finite"),
            (("fleets", 0, "home_cap"), math.inf, "fleets[0].home_cap", "must be finite"),
            (("fleets", 1, "station_caps", "c5"), math.inf,
             "fleets[1].station_caps.c5", "must be finite"),
            (("stations", 0, "wtp_segments", 0, "wtp_max", 3), math.nan,
             "stations[0].wtp_segments[0].wtp_max[3]", "not a number"),
        ],
    )
    def test_non_finite_value_is_named_by_its_path(self, keys, value, path, message):
        doc = md.scenario_to_json(sc.desk_scenario())
        assert md.validate(md.scenario_from_json(doc)).ok
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
        report = md.validate(md.scenario_from_json(doc))
        named = [i.message for i in report.issues if i.path == path]
        assert len(named) == 1 and named[0].startswith(message), str(report)

    def test_non_finite_entry_of_a_list_series_is_named(self):
        # a scenario built in Python may pass a list where the readers make a tuple
        desk = sc.desk_scenario()
        tou = [*desk.fleets[0].tou]
        tou[3] = math.nan
        fleets = (dataclasses.replace(desk.fleets[0], tou=tou), *desk.fleets[1:])
        report = md.validate(dataclasses.replace(desk, fleets=fleets))
        assert [(i.path, i.message) for i in report.issues] == [("fleets[0].tou[3]", "not a number")]

    def test_bid_segment_is_named_as_the_document_names_it(self):
        desk = sc.desk_scenario()
        st = desk.stations[0]
        seg = dataclasses.replace(st.segments[0], wtp_max=st.segments[0].wtp_max[:-1])
        stations = (dataclasses.replace(st, segments=(seg, *st.segments[1:])), *desk.stations[1:])
        report = md.validate(dataclasses.replace(desk, stations=stations))
        assert [i.path for i in report.issues] == ["stations[0].wtp_segments[0].wtp_max"]

    def test_infinite_bound_is_not_named(self):
        # an infinite upper bound is a valid LP bound; only NaN is named there
        doc = md.scenario_to_json(sc.desk_scenario())
        doc["network"]["lines"][0]["flow_max"] = math.inf
        assert md.validate(md.scenario_from_json(doc)).ok

    def test_series_length_mismatch(self):
        f, c = two_period_fleet()
        f = dataclasses.replace(f, tou=(20.0,))
        report = md.validate(scenario_with(fleets=(f,)))
        assert any("series length" in i.message for i in report.issues)

    def test_valid_scenario_builders_do_not_raise(self):
        scenario = one_bus_scenario()
        assert md.validate(scenario).ok
        finput = fleet.fleet_input(scenario, {"c1": (20.0, 20.0)})
        for f in scenario.fleets:
            fleet.build_fleet(finput, f)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_scale_solar_refuses_a_non_finite_multiplier(self, bad):
        # 0 * inf would make a NaN bound for every unit idle at some hour
        with pytest.raises(ValueError, match="solar multiplier must be finite and >= 0"):
            md.scale_solar(sc.desk_scenario(), bad)


class TestSerialization:
    def test_round_trip(self, desk):
        doc = md.scenario_to_json(desk)
        again = md.scenario_from_json(doc)
        assert md.scenario_to_json(again) == doc

    def test_written_scenario_reads_back_equal(self, desk, monkeypatch):
        """Desk, the benchmark ladder's rungs and the criterion-5 instances
        come back from their written JSON text as equal scenarios."""
        # the benchmark's workloads import their sibling module as `generators`
        generators = load_perfbench("generators")
        monkeypatch.setitem(sys.modules, "generators", generators)
        ladder = load_perfbench("workloads").LADDER
        scenarios = [
            desk,
            *(generators.synthetic(b, f, seed=k) for k, (b, f) in enumerate(ladder)),
            *(random_bilevel(seed) for seed in range(900, 920)),
        ]
        assert len(scenarios) == 25
        for scenario in scenarios:
            text = json.dumps(md.scenario_to_json(scenario))
            assert md.scenario_from_json(json.loads(text)) == scenario, scenario.name

    @pytest.mark.parametrize(
        "at, key",
        [
            (("network", "generators", 0, "segments", 0), "cost"),
            (("fleets", 0), "tou"),
            (("stations", 0), "offer_min"),
            (("stations", 0), "offer_max"),
            (("stations", 0, "wtp_segments", 0), "wtp_min"),
            (("stations", 0, "wtp_segments", 0), "wtp_max"),
        ],
        ids=["cost", "tou", "offer_min", "offer_max", "wtp_min", "wtp_max"],
    )
    def test_cents_conversion(self, at, key):
        doc = md.scenario_to_json(one_bus_scenario())
        node = doc
        for k in at:
            node = node[k]
        del node[key]
        node[f"{key}_cents_per_kwh"] = 2.5
        node = md.scenario_to_json(md.scenario_from_json(doc))
        for k in at:
            node = node[k]
        assert node[key] == (25.0 if key == "cost" else [25.0, 25.0])

    def test_absent_optional_keys_read_as_their_defaults(self):
        bare = md.scenario_from_json({"network": {"horizon": 2}})
        assert bare == md.Scenario(
            "scenario", md.Network((), (), (), (), (), 2), (), (), md.SolverSettings()
        )
        doc = {
            "network": {
                "horizon": 2,
                "buses": [{"id": "b1"}],
                "lines": [
                    {"id": "l1", "from_bus": "b1", "to_bus": "b1", "reactance": 0.1,
                     "flow_max": 7.0}
                ],
                "generators": [
                    {"id": "g1", "bus": "b1", "p_max": 9.0,
                     "segments": [{"p_max": 9.0, "cost": 5.0}]}
                ],
            },
            "fleets": [
                {"id": "f1", "bus": "b1", "max_charge": 3.0, "energy_min": 0.0,
                 "energy_max": 4.0, "initial_energy": 1.0, "tou": 30.0}
            ],
            "stations": [{"id": "c1", "fleet": "f1", "offer_min": 1.0, "offer_max": 2.0}],
        }
        scenario = md.scenario_from_json(doc)
        net = scenario.network
        assert net.buses == (md.Bus("b1", -0.5, 0.5, False),)
        assert net.lines == (md.Line("l1", "b1", "b1", 0.1, -7.0, 7.0),)
        segment = md.CostSegment(0.0, 9.0, 5.0)
        assert net.generators == (md.Generator("g1", "b1", 0.0, 9.0, (segment,)),)
        assert scenario.fleets == (
            md.EVFleet(
                id="f1", bus="b1", max_charge=3.0, home_cap=0.0, home_connectivity=(0.0, 0.0),
                station_caps={}, station_connectivity={},
                energy_min=0.0, energy_max=4.0, initial_energy=1.0,
                charge_efficiency=1.0, discharge_efficiency=1.0,
                driving=(0.0, 0.0), tou=(30.0, 30.0), final_energy_min=None,
            ),
        )
        assert scenario.stations == (md.ChargingStation("c1", "f1", (1.0, 1.0), (2.0, 2.0), ()),)

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

    def test_csv_cell_that_is_not_a_number_is_named(self, tmp_path):
        (tmp_path / "series.csv").write_text("id,t0,t1\nd1,11,x\n")
        doc = md.scenario_to_json(one_bus_scenario())
        doc["network"]["demands"][0]["load"] = {"csv": "series.csv", "id": "d1"}
        with pytest.raises(md.ScenarioFormatError, match=r"series\.csv: row 'd1', column t1: .*'x'"):
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

    def test_solver_tolerances_are_written_at_their_fixed_values(self):
        doc = md.scenario_to_json(one_bus_scenario())
        assert (doc["settings"]["feas_tol"], doc["settings"]["duality_tol"]) == (1e-8, 1e-6)
        settings = {k: v for k, v in doc["settings"].items() if not k.endswith("_tol")}
        assert md.scenario_from_json({**doc, "settings": settings}) == md.scenario_from_json(doc)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("feas_tol", 1e-6),
            ("feas_tol", float("nan")),
            ("duality_tol", 1e-8),
            ("duality_tol", 0),
        ],
    )
    def test_other_solver_tolerance_is_named(self, name, value):
        doc = md.scenario_to_json(one_bus_scenario())
        doc["settings"][name] = value
        with pytest.raises(md.ScenarioFormatError, match=rf"^settings\.{name}: must be"):
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

    @pytest.mark.parametrize(
        "path, name",
        [
            (("fleets", 0, "energy_max"), r"fleets\[0\]\.energy_max"),
            (("settings", "feas_tol"), r"settings\.feas_tol"),
            (("network", "generators", 1, "segments", 0, "cost"), r"network\.generators\[1\]\.segments\[0\]\.cost"),
        ],
    )
    def test_integer_too_large_for_a_float_is_named(self, desk, path, name):
        # a 401-digit integer literal: json reads it as an int no float holds
        doc = json.loads(json.dumps(md.scenario_to_json(desk)))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = int("9" * 401)
        with pytest.raises(md.ScenarioFormatError, match=f"^{name}: int too large"):
            md.scenario_from_json(doc)

    @pytest.mark.parametrize("int_field", ["seed", "budget"])
    def test_huge_integer_setting_is_not_named_for_a_float_field(self, desk, int_field):
        # settings first, so the huge integer setting, which int() reads
        # without overflow, comes before the float field that overflows
        doc = json.loads(json.dumps(md.scenario_to_json(desk)))
        doc = {"settings": doc.pop("settings"), **doc}
        doc["settings"][int_field] = int("9" * 401)
        assert getattr(md.scenario_from_json(doc).settings, int_field) == int("9" * 401)
        doc["fleets"][0]["energy_max"] = int("9" * 401)
        name = r"^fleets\[0\]\.energy_max: int too large"
        with pytest.raises(md.ScenarioFormatError, match=name):
            md.scenario_from_json(doc)

    def test_every_number_is_read_under_its_path(self, desk):
        assert_each_number_is_read_under_its_path(md.scenario_to_json(desk), md.scenario_from_json)

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("network", "horizon"), 2.5),
            (("network", "horizon"), "2"),
            (("network", "buses", 0, "reference"), "false"),
            (("network", "buses", 0, "reference"), 1),
            (("fleets", 0, "energy_max"), "20"),
            (("fleets", 0, "energy_max"), True),
            (("fleets", 0, "tou"), False),
            (("fleets", 0, "station_caps", "c1"), None),
            (("fleets", 0, "station_connectivity", "c1", 1), "1"),
            (("network", "demands", 0, "load"), "50"),
            (("stations", 0, "wtp_segments", 0, "wtp_max"), {"c1": 1.0}),
            (("schema_version",), 1.5),
        ],
    )
    def test_value_of_the_wrong_kind_is_named(self, keys, value):
        doc = md.scenario_to_json(one_bus_scenario())
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
        with pytest.raises(md.ScenarioFormatError) as info:
            md.scenario_from_json(doc)
        assert str(info.value).startswith(f"{dotted(keys)}: ")

    def test_unknown_parameterization_is_refused_with_its_path(self):
        doc = md.scenario_to_json(one_bus_scenario())
        doc["settings"]["parameterization"] = "hourly"
        with pytest.raises(md.ScenarioFormatError) as info:
            md.scenario_from_json(doc)
        assert str(info.value) == (
            f"settings.parameterization: must be one of {md._PARAM_MODES}, got 'hourly'"
        )

    @pytest.mark.parametrize(
        "keys, message",
        [
            (("fleets", 0, "home_capp"), "fleets[0]: unknown keys ['home_capp']"),
            (
                ("stations", 0, "wtp_segments", 0, "wtp_mx"),
                "stations[0].wtp_segments[0]: unknown keys ['wtp_mx']",
            ),
            (("settings", "budgett"), "settings: unknown keys ['budgett']"),
            (("network", "buses", 0, "ref"), "network.buses[0]: unknown keys ['ref']"),
            (("network", "horizons"), "network: unknown keys ['horizons']"),
            (("fleets", 0, "tou_cents"), "fleets[0]: unknown keys ['tou_cents']"),
            (
                ("fleets", 0, "energy_max_cents_per_kwh"),
                "fleets[0]: unknown keys ['energy_max_cents_per_kwh']",
            ),
            (("sweep",), "top level: unknown keys ['sweep']"),
        ],
        ids=[
            "fleet", "bid_segment", "settings", "bus", "network", "price_alias", "cents_of_no_price",
            "top_level",
        ],
    )
    def test_misspelled_key_is_refused_with_its_path(self, keys, message):
        doc = md.scenario_to_json(one_bus_scenario())
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = 10.0
        with pytest.raises(md.ScenarioFormatError) as info:
            md.scenario_from_json(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("sweeps", [5, {"penetration_levels": [0.1, "x"]}, None])
    def test_older_sweeps_section_is_read_and_dropped(self, sweeps):
        doc = md.scenario_to_json(one_bus_scenario())
        assert "sweeps" not in doc
        assert md.scenario_from_json({**doc, "sweeps": sweeps}) == md.scenario_from_json(doc)

    def test_integral_float_is_an_integer(self):
        doc = md.scenario_to_json(one_bus_scenario())
        doc["network"]["horizon"] = 2.0
        doc["settings"]["seed"] = 3.0
        loaded = md.scenario_from_json(doc)
        assert loaded.network.horizon == 2 and isinstance(loaded.network.horizon, int)
        assert loaded.settings.seed == 3 and isinstance(loaded.settings.seed, int)

    def test_load_save_files(self, tmp_path, desk):
        path = tmp_path / "scenario.json"
        md.save_scenario(desk, path)
        loaded = md.load_scenario(path)
        assert md.scenario_to_json(loaded) == md.scenario_to_json(desk)
        # the file itself is deterministic
        md.save_scenario(loaded, tmp_path / "again.json")
        assert path.read_text() == (tmp_path / "again.json").read_text()
