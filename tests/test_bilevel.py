"""Upper-level search, profit accounting, and the outcome certificate."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evcsmarket import bilevel as bl
from evcsmarket import dam
from evcsmarket import fleet as fl
from evcsmarket import lpcore
from evcsmarket import model as md
from evcsmarket import scenarios as sc
from conftest import (
    assert_each_number_is_read_under_its_path,
    load_perfbench,
    one_bus_scenario,
    random_bilevel,
    spy_fleet_lps,
    with_settings,
)


def params_of(scenario):
    return bl.offer_parameters(scenario)


def toy_outcome():
    scenario = one_bus_scenario()
    return bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)


def on_first_series(tree, fn):
    """`tree` (a dict or tuple nest of series) with its first series
    replaced by `fn(series)`."""
    if isinstance(tree, dict):
        key = next(iter(tree))
        return {**tree, key: on_first_series(tree[key], fn)}
    if isinstance(tree[0], tuple):
        return (on_first_series(tree[0], fn),) + tuple(tree[1:])
    return fn(tuple(tree))


def corrupt_first(tree, fn):
    """`tree` with `fn` applied to its first number."""
    return on_first_series(tree, lambda series: (fn(series[0]),) + series[1:])


def nan_first(tree):
    return corrupt_first(tree, lambda x: math.nan)


def truncate_first(tree):
    """`tree` with its first series cut to one period (the toy has two)."""
    return on_first_series(tree, lambda series: series[:1])


def drop_first_key(tree):
    """`tree` (a dict keyed by entity id) without its first entity."""
    return dict(list(tree.items())[1:])


class TestEvaluate:
    def test_toy_profit_decomposition(self):
        scenario = one_bus_scenario()  # LMP 10, retail 30
        out = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        assert out.revenue == pytest.approx(200.0, abs=1e-6)
        assert out.cost == pytest.approx(100.0, abs=1e-6)
        assert out.profit == pytest.approx(100.0, abs=1e-6)

    def test_offers_above_retail_kill_station_sales(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(params_of(scenario), (40.0, 40.0)), scenario)
        assert out.schedule.station_energy() == pytest.approx(0.0, abs=1e-9)
        assert out.revenue == pytest.approx(0.0, abs=1e-9)
        assert out.profit == pytest.approx(0.0, abs=1e-9)

    def test_expansion_clips_into_bounds(self):
        scenario = one_bus_scenario(offer_lo=10.0, offer_hi=40.0)
        strat = bl.Strategy(params_of(scenario), (-100.0, 500.0))
        offers = strat.offers(scenario)
        assert offers["c1"] == (10.0, 40.0)

    def test_published_aggregate_arithmetic(self):
        # profit and margin recomputed from the reference study's reported
        # revenue/cost aggregates; arithmetic only, no simulation
        revenue, cost = 60_596.0, 4_974.0
        profit = revenue - cost
        assert profit == pytest.approx(55_622.0)
        margin = profit / cost
        assert margin == pytest.approx(11.18, abs=0.005)
        row = sc.MetricsRow(
            revenue=revenue,
            cost=cost,
            profit=profit,
            profit_pct=100.0 * profit / cost,
            retail_price_c_kwh=None,
            purchased_price=None,
            lmp_max=0.0,
            lmp_min=0.0,
            solar_used=0.0,
            solar_available=0.0,
            curtailment_pct=0.0,
            owner_payment=0.0,
            charged_energy=0.0,
            station_energy=0.0,
        )
        assert row.profit_pct == pytest.approx(1118.2, abs=0.1)

    def test_owner_savings_arithmetic(self):
        # reference study totals: home-only payments minus with-station payments
        assert 88_030.0 - 81_697.0 == pytest.approx(6_333.0)


class TestOptimize:
    def test_budget_one_returns_midpoint(self):
        scenario = one_bus_scenario(budget=1)
        out = bl.optimize(scenario)
        assert out.strategy.values == (25.0, 25.0)
        assert out.search.evaluations == 1

    def test_never_below_reference_points(self):
        scenario = one_bus_scenario()
        params = params_of(scenario)
        lo = bl.evaluate(bl.Strategy(params, (10.0, 10.0)), scenario).profit
        hi = bl.evaluate(bl.Strategy(params, (40.0, 40.0)), scenario).profit
        mid = bl.evaluate(bl.Strategy(params, (25.0, 25.0)), scenario).profit
        out = bl.optimize(with_settings(scenario, budget=50))
        assert out.profit >= max(lo, hi, mid) - 1e-9

    def test_lands_near_retail_rate_edge(self):
        # profit rises in tau until the retail rate, then collapses: the
        # optimizer must stop within one 0.5 grid step of the edge
        scenario = one_bus_scenario(tou=30.0, offer_lo=10.0, offer_hi=40.0, budget=300)
        out = bl.optimize(scenario)
        grid = np.arange(10.0, 40.0 + 1e-9, 0.5)
        best_grid = None
        best_profit = -np.inf
        params = params_of(scenario)
        for tau in grid:
            p = bl.evaluate(bl.Strategy(params, (tau, tau)), scenario).profit
            if p > best_profit:
                best_profit, best_grid = p, tau
        assert best_grid == pytest.approx(30.0)  # unique maximiser at the edge
        charging_hours = [
            t for t in range(2) if out.schedule.total["f1"][t] > 1e-6
        ]
        for t in charging_hours:
            assert abs(out.offers["c1"][t] - 30.0) <= 0.5
        # the exact edge (an offer tie) is a grid point; the search approaches
        # it from below and must attain at least 99% of the grid optimum
        assert out.profit >= 0.99 * best_profit

    def test_selling_below_cost_settles_on_boundary(self):
        # offer band entirely below the market price: profit <= 0 and the
        # search settles on the least-loss boundary
        scenario = one_bus_scenario(gen_cost=50.0, offer_lo=5.0, offer_hi=8.0, tou=30.0, budget=60)
        out = bl.optimize(scenario)
        assert out.profit <= 1e-9
        for v, p in zip(out.strategy.values, params_of(scenario)):
            assert v == pytest.approx(p.upper, abs=1e-9) or v == pytest.approx(
                p.lower, abs=1e-9
            )

    def test_deterministic_given_seed(self):
        scenario = one_bus_scenario(budget=80, seed=3)
        a = bl.optimize(scenario)
        b = bl.optimize(scenario)
        assert a.strategy.values == b.strategy.values
        assert a.profit == b.profit

    def test_point_band_parameter_is_never_moved(self, monkeypatch):
        scenario = one_bus_scenario(budget=60)
        band = dataclasses.replace(
            scenario.stations[0], offer_min=(10.0, 25.0), offer_max=(40.0, 25.0)
        )
        scenario = dataclasses.replace(scenario, stations=(band,))
        out, path = searched_path(scenario, monkeypatch)
        assert len(path) > 1 and {values[1] for values in path} == {25.0}
        assert out.offers["c1"][1] == 25.0

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            bl.optimize(one_bus_scenario(budget=0))

    @pytest.mark.parametrize("step_min", [0.0, -1.0])
    def test_nonpositive_step_min_raises_before_evaluating(self, step_min, monkeypatch):
        scenario = with_settings(one_bus_scenario(budget=100000), step_min=step_min)
        evaluated = []
        monkeypatch.setattr(bl, "evaluate", lambda *args, **kwargs: evaluated.append(args))
        with pytest.raises(ValueError, match="step_min"):
            bl.optimize(scenario)
        assert evaluated == []


def searched_path(scenario, monkeypatch, **kwargs):
    """`optimize`'s outcome, at `scenario`'s settings with `kwargs` set in
    them, and the strategy values it evaluated, in order."""
    path = []
    evaluate = bl.evaluate

    def recorded(strategy, scenario, **kw):
        path.append(strategy.values)
        return evaluate(strategy, scenario, **kw)

    monkeypatch.setattr(bl, "evaluate", recorded)
    return bl.optimize(with_settings(scenario, **kwargs)), path


class TestSearchPath:
    """The order and values of every evaluation, and what the search
    reports, at budgets spent in the first sweep, after several starts and
    mid-sweep of a later start.  The digest is the sha256 of the repr of
    (evaluated values in order, returned strategy values)."""

    # (evaluations, starts) of `SearchInfo`
    @pytest.mark.parametrize(
        "case, kwargs, info, digest",
        [
            pytest.param(
                "one_bus", {"budget": 1}, (1, 1),
                "8de45592ca926ca63b978033b69adab564304ff7446621568c32bc37d308e347",
                id="one_bus-1",
            ),
            pytest.param(
                "one_bus", {"budget": 2}, (2, 1),
                "eb5bc77918a19cef84087a79468cd3f2012f39c03c04d3a03d20e3ca8b7560a5",
                id="one_bus-2",
            ),
            pytest.param(
                "one_bus", {"budget": 7}, (7, 1),
                "cfeb340f1943061a865f813bee045fda057443f8ff454ba3db54d86e0968b34e",
                id="one_bus-7",
            ),
            pytest.param(
                "one_bus", {"budget": 25}, (25, 1),
                "d5ae4c8bb12817ce88777c4c52d572686fbaafcc2a56bce10430bddebbd674ca",
                id="one_bus-25",
            ),
            pytest.param(
                "one_bus", {}, (120, 4),
                "44973bc67c6d923107316b439b6214d1e6122af755744306baccb9bc6a9e708d",
                id="one_bus-120",
            ),
            pytest.param(
                "desk", {"budget": 25, "seed": 11}, (25, 3),
                "ac3e27e8f26098746357227a9f181bf33132176ca4933706b8568677b500761b",
                id="desk-25-seed11",
            ),
            pytest.param(
                "rand3", {}, (400, 6),
                "7bf0517d56b24e2fe9ecd70f76c0899eb8e2ff30047e71fa9f3e7f45deab1d0b",
                id="rand3-400",
            ),
            pytest.param(
                "rand4", {}, (400, 6),
                "5209b16eb228a8dc4f63c30a6b4cb3736c60fa757f9ed908a5e52dcdb871a051",
                id="rand4-400",
            ),
        ],
    )
    def test_evaluations_and_search_info_are_pinned(self, case, kwargs, info, digest, monkeypatch):
        scenario = {
            "one_bus": one_bus_scenario,
            "desk": sc.desk_scenario,
            "rand3": lambda: random_bilevel(3),
            "rand4": lambda: random_bilevel(4),
        }[case]()
        out, path = searched_path(scenario, monkeypatch, **kwargs)
        assert dataclasses.astuple(out.search) == info
        assert len(path) == info[0]  # each distinct strategy is evaluated once
        got = hashlib.sha256(repr((path, out.strategy.values)).encode()).hexdigest()
        assert got == digest


class TestBruteForce:
    def test_grid_size_and_argmax(self):
        scenario = one_bus_scenario()
        out = bl.brute_force(scenario, levels=5)
        assert out.search.evaluations == 25
        assert out.profit == pytest.approx(150.0, abs=1e-6)  # grid point 25.0

    def test_optimize_dominates_contained_grid(self):
        # the 5-level grid sits on quarter-points of the band, which the
        # pattern search visits from the midpoint start
        scenario = one_bus_scenario()
        grid = bl.brute_force(scenario, levels=5)
        searched = bl.optimize(with_settings(scenario, budget=200))
        assert searched.profit >= grid.profit - 1e-6

    def test_degenerate_band_single_evaluation(self):
        scenario = one_bus_scenario(offer_lo=20.0, offer_hi=20.0)
        out = bl.brute_force(scenario, levels=7)
        assert out.search.evaluations == 1
        direct = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        assert out.profit == pytest.approx(direct.profit, abs=0.0)

    def test_cap_guard(self):
        scenario = one_bus_scenario()
        with pytest.raises(ValueError, match="cap"):
            bl.brute_force(scenario, levels=2000)

    def test_point_band_grid_runs_its_one_point_at_any_levels(self):
        scenario = one_bus_scenario(offer_lo=20.0, offer_hi=20.0)
        out = bl.brute_force(scenario, levels=2000)
        assert out.search.evaluations == 1
        assert out.strategy.values == (20.0, 20.0)

    def test_levels_below_one_refused(self):
        with pytest.raises(ValueError, match=r"^levels must be >= 1$"):
            bl.brute_force(one_bus_scenario(), levels=0)

    def test_cap_counts_the_grid_that_would_run(self):
        # period 0's band is a point, so the grid has one point on that axis
        scenario = one_bus_scenario()
        station = dataclasses.replace(
            scenario.stations[0], offer_min=(20.0, 10.0), offer_max=(20.0, 40.0)
        )
        scenario = dataclasses.replace(scenario, stations=(station,))
        with pytest.raises(ValueError, match=r"^grid of 1000001 evaluations exceeds cap"):
            bl.brute_force(scenario, levels=1_000_001)


def five_period_scenario(parameterization):
    """Two stations with five-period offer bands, under `parameterization`
    with block width 2; read only by `offer_parameters`."""
    base = one_bus_scenario()
    bands = {
        "c1": ((10.0, 12.0, 9.0, 11.0, 15.0), (40.0, 38.0, 41.0, 39.0, 30.0)),
        "c2": ((5.0, 6.0, 7.0, 8.0, 9.0), (20.0, 21.0, 22.0, 23.0, 24.0)),
    }
    stations = tuple(
        dataclasses.replace(base.stations[0], id=sid, offer_min=lo, offer_max=hi)
        for sid, (lo, hi) in bands.items()
    )
    return dataclasses.replace(
        base,
        network=dataclasses.replace(base.network, horizon=5),
        stations=stations,
        settings=dataclasses.replace(
            base.settings, parameterization=parameterization, block_width=2
        ),
    )


class TestOfferParameters:
    def test_strategy_needs_one_value_per_parameter(self):
        params = params_of(one_bus_scenario())
        with pytest.raises(ValueError, match=r"^strategy needs one value per parameter$"):
            bl.Strategy(params, (20.0,))

    def test_station_blocks_end_in_an_uneven_block(self):
        params = bl.offer_parameters(five_period_scenario(md.PARAM_STATION_BLOCKS))
        assert [(p.station_id, p.t_start, p.t_end, p.lower, p.upper) for p in params] == [
            ("c1", 0, 2, 10.0, 40.0),
            ("c1", 2, 4, 9.0, 41.0),
            ("c1", 4, 5, 15.0, 30.0),
            ("c2", 0, 2, 5.0, 21.0),
            ("c2", 2, 4, 7.0, 23.0),
            ("c2", 4, 5, 9.0, 24.0),
        ]

    def test_full_is_per_station_period(self):
        full = bl.offer_parameters(five_period_scenario(md.PARAM_FULL))
        per_period = bl.offer_parameters(five_period_scenario(md.PARAM_PER_STATION_PERIOD))
        assert full == per_period
        assert [(p.station_id, p.t_start, p.t_end) for p in full] == [
            (sid, t, t + 1) for sid in ("c1", "c2") for t in range(5)
        ]
        assert [(p.lower, p.upper) for p in full[:5]] == [
            (10.0, 40.0), (12.0, 38.0), (9.0, 41.0), (11.0, 39.0), (15.0, 30.0)
        ]

    def test_unknown_parameterization_raises(self):
        with pytest.raises(ValueError, match=re.escape(
            "settings.parameterization: must be one of "
            "('full', 'per_station_period', 'station_blocks'), got 'hourly'"
        )):
            bl.offer_parameters(five_period_scenario("hourly"))

    @pytest.mark.parametrize("width", [0, -3])
    def test_station_blocks_refuse_a_width_below_one(self, width):
        scenario = five_period_scenario(md.PARAM_STATION_BLOCKS)
        scenario = dataclasses.replace(
            scenario, settings=dataclasses.replace(scenario.settings, block_width=width)
        )
        message = rf"^settings\.block_width: must be an integer >= 1, got {width}$"
        with pytest.raises(ValueError, match=message):
            bl.offer_parameters(scenario)
        with pytest.raises(ValueError, match=message):
            bl.optimize(scenario)


class TestCertify:
    def test_evaluate_output_passes(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        cert = bl.certify(out)
        assert cert.passed
        assert cert.max_violation <= 1e-6

    def test_corrupted_lmp_fails_with_named_residual(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        bad_dam = dataclasses.replace(out.dam, lmp={"b1": (10.0 + 0.5, 10.0)})
        bad = dataclasses.replace(out, dam=bad_dam)
        cert = bl.certify(bad)
        assert not cert.passed
        assert "dam_strong_duality" in cert.failing()
        assert cert.failing()["dam_strong_duality"] > 0.0

    def test_corrupted_schedule_fails_feasibility(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        sched = out.schedule
        bad_total = dict(sched.total)
        bad_total["f1"] = (sched.total["f1"][0] + 3.0, sched.total["f1"][1])
        bad = dataclasses.replace(out, schedule=dataclasses.replace(sched, total=bad_total))
        cert = bl.certify(bad)
        assert not cert.passed
        assert "fleet_feasibility" in cert.failing()

    def test_corrupted_bid_price_fails_with_named_residual(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        seg = scenario.station("c1").segments[0]
        quantities = out.schedule.segments["f1"]["c1"][0]
        t = next(t for t, q in enumerate(quantities) if q > 1e-6)
        assert out.dam.wtp["c1"][0][t] == seg.wtp_max[t]

        def with_price(price):
            row = list(out.dam.wtp["c1"][0])
            row[t] = price
            bad_dam = dataclasses.replace(out.dam, wtp={"c1": (tuple(row),)})
            return bl.certify(dataclasses.replace(out, dam=bad_dam))

        lowered = with_price(seg.wtp_min[t])
        assert not lowered.passed
        assert "dam_strong_duality" in lowered.failing()
        outside = with_price(seg.wtp_max[t] + 10.0)
        assert not outside.passed
        assert "dam_feasibility" in outside.failing()

    def test_shifted_schedule_cost_fails_fleet_duality(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        sched = dataclasses.replace(out.schedule, cost=out.schedule.cost * 1.01)
        cert = bl.certify(dataclasses.replace(out, schedule=sched))
        assert set(cert.failing()) == {"fleet_strong_duality"}

    def test_unmeetable_driving_fails_without_raising(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        fleet = dataclasses.replace(scenario.fleets[0], driving=(0.0, 500.0))
        bad = dataclasses.replace(out, scenario=dataclasses.replace(scenario, fleets=(fleet,)))
        cert = bl.certify(bad)
        assert cert.residuals["fleet_strong_duality"] == float("inf")
        assert cert.worst["fleet_strong_duality"] == "f1"
        assert not cert.passed

    @pytest.mark.parametrize(
        "break_network",
        [
            lambda net: dataclasses.replace(
                net, lines=(md.Line("l9", "b1", "ghost", 0.1, -10.0, 10.0),)
            ),
            lambda net: dataclasses.replace(
                net, buses=(dataclasses.replace(net.buses[0], reference=False),)
            ),
            lambda net: dataclasses.replace(
                net, lines=(md.Line("l9", "b1", "b1", 0.0, -10.0, 10.0),)
            ),
            lambda net: dataclasses.replace(net, solar_units=(md.SolarUnit("s1", "b1", (1.0,)),)),
        ],
        ids=["unknown_line_endpoint", "no_reference_bus", "zero_reactance", "short_solar_series"],
    )
    def test_network_the_market_cannot_build_fails_without_raising(self, break_network):
        # `validate` refuses such a scenario first on the command line;
        # `certify` itself reports the market it cannot build
        out = toy_outcome()
        scenario = dataclasses.replace(out.scenario, network=break_network(out.scenario.network))
        cert = bl.certify(dataclasses.replace(out, scenario=scenario))
        assert cert.residuals["dam_feasibility"] == math.inf
        assert cert.residuals["dam_strong_duality"] == math.inf
        assert not cert.passed

    @pytest.mark.parametrize(
        "change",
        [{"tou": (30.0,)}, {"home_connectivity": (1.0,)}, {"station_connectivity": {}}],
        ids=["tou", "home_connectivity", "station_connectivity"],
    )
    def test_fleet_whose_lp_cannot_be_built_fails_without_raising(self, change):
        # `certify` reports a fleet that `fleet.build_fleet` refuses
        out = toy_outcome()
        fleets = (dataclasses.replace(out.scenario.fleets[0], **change),)
        scenario = dataclasses.replace(out.scenario, fleets=fleets)
        cert = bl.certify(dataclasses.replace(out, scenario=scenario))
        assert cert.residuals["fleet_feasibility"] == math.inf
        assert cert.residuals["fleet_strong_duality"] == math.inf
        assert cert.worst["fleet_feasibility"] == "f1"
        assert not cert.passed

    @pytest.mark.parametrize(
        "part, change, family, worst",
        [
            ("stations", {"offer_min": (10.0,)}, "offer_bounds", 1),
            ("stations", {"fleet_id": "zz"}, "profit_identity", None),
            ("fleets", {"bus": "ghost"}, "profit_identity", None),
        ],
        ids=["short_offer_band", "station_fleet", "fleet_bus"],
    )
    def test_refused_station_or_fleet_fails_without_raising(self, part, change, family, worst):
        # a band shorter than the horizon bounds nothing at the periods it
        # lacks, and a station bought at no known bus has no price
        out = toy_outcome()
        edited = (dataclasses.replace(getattr(out.scenario, part)[0], **change),)
        scenario = dataclasses.replace(out.scenario, **{part: edited})
        cert = bl.certify(dataclasses.replace(out, scenario=scenario))
        assert cert.residuals[family] == math.inf
        assert cert.worst.get(family) == worst
        assert not cert.passed

    def test_segment_above_width_fails_without_raising(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        sched = out.schedule
        segments = {"f1": {"c1": ((sched.segments["f1"]["c1"][0][0], 99.0),)}}
        cert = bl.certify(dataclasses.replace(out, schedule=dataclasses.replace(sched, segments=segments)))
        assert {"fleet_feasibility", "dam_feasibility", "dam_strong_duality"} <= set(cert.failing())
        assert cert.residuals["dam_strong_duality"] == float("inf")

    def test_worst_names_the_period(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        bad_dam = dataclasses.replace(out.dam, lmp={"b1": (10.0, 10.0 + 0.5)})
        cert = bl.certify(dataclasses.replace(out, dam=bad_dam, offers={"c1": (20.0, 90.0)}))
        assert {"offer_bounds", "fleet_strong_duality", "dam_strong_duality"} <= set(cert.failing())
        assert cert.worst["offer_bounds"] == 1
        assert cert.worst["dam_strong_duality"] == 1
        assert "dam_strong_duality: " in cert.summary() and " at period 1" in cert.summary()

    @pytest.mark.parametrize("field", ["total", "home", "station", "segments", "energy"])
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda tree: corrupt_first(tree, lambda x: x + 1.0),
            nan_first,
            truncate_first,
            drop_first_key,
        ],
        ids=["shift", "nan", "cut", "no_key"],
    )
    def test_corrupted_schedule_entry_fails_fleet_feasibility(self, field, corrupt):
        out = toy_outcome()
        bad = corrupt(getattr(out.schedule, field))
        sched = dataclasses.replace(out.schedule, **{field: bad})
        cert = bl.certify(dataclasses.replace(out, schedule=sched))
        assert "fleet_feasibility" in cert.failing()
        assert cert.worst["fleet_feasibility"] == "f1"

    def test_missing_fleet_cost_does_not_raise(self):
        # the stored total cost is what fleet_strong_duality checks
        out = toy_outcome()
        sched = dataclasses.replace(out.schedule, fleet_costs={})
        cert = bl.certify(dataclasses.replace(out, schedule=sched))
        assert cert.passed
        assert cert.worst["fleet_strong_duality"] == "f1"

    def test_nan_withdrawal_fails_market_families_without_raising(self):
        out = toy_outcome()
        total = nan_first(out.schedule.total)
        sched = dataclasses.replace(out.schedule, total=total)
        cert = bl.certify(dataclasses.replace(out, schedule=sched))
        assert cert.residuals["dam_feasibility"] == math.inf
        assert cert.residuals["dam_strong_duality"] == math.inf
        assert not cert.passed

    def test_nan_dispatch_fails_dam_feasibility(self):
        # a NaN in period 0, or a series cut before period 1
        out = toy_outcome()
        for corrupt, period in ((nan_first, 0), (truncate_first, 1)):
            bad_dam = dataclasses.replace(out.dam, gen=corrupt(out.dam.gen))
            cert = bl.certify(dataclasses.replace(out, dam=bad_dam))
            assert cert.residuals["dam_feasibility"] == math.inf
            assert cert.worst["dam_feasibility"] == period

    @pytest.mark.parametrize(
        "where, family, corrupt, period",
        [
            pytest.param(where, family, corrupt, period, id=f"{where}{suffix}-{family}")
            for corrupt, period, suffix in (
                (nan_first, 0, ""),
                (truncate_first, 1, "-truncate"),
                (drop_first_key, 0, "-missing-key"),
            )
            for where, family in (
                ("offers", "offer_bounds"),
                ("wtp", "dam_feasibility"),
                ("lmp", "dam_strong_duality"),
            )
        ],
    )
    def test_nan_price_fails_its_family_without_raising(self, where, family, corrupt, period):
        # a NaN in period 0, a series cut before period 1, or no series at all
        out = toy_outcome()
        if where == "offers":
            bad = dataclasses.replace(out, offers=corrupt(out.offers))
        else:
            prices = corrupt(getattr(out.dam, where))
            bad = dataclasses.replace(out, dam=dataclasses.replace(out.dam, **{where: prices}))
        cert = bl.certify(bad)
        assert cert.residuals[family] == math.inf
        assert cert.worst[family] == period

    def test_offers_outside_band_fail_only_offer_families(self):
        # period 1 buys nothing at the station, so the profit identity holds;
        # the schedule is checked against the LP at the band floors
        out = toy_outcome()
        assert out.schedule.station["f1"]["c1"][1] == 0.0
        cert = bl.certify(dataclasses.replace(out, offers={"c1": (20.0, 90.0)}))
        assert set(cert.failing()) == {"offer_bounds", "fleet_strong_duality"}

    def test_refuses_missing_outcome(self):
        with pytest.raises(ValueError, match="no outcome"):
            bl.certify(None)

    def test_certificate_json_shape(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        doc = bl.certificate_to_json(bl.certify(out))
        assert doc["passed"] is True
        assert set(doc["residuals"]) == {
            "dam_feasibility",
            "dam_strong_duality",
            "fleet_feasibility",
            "fleet_strong_duality",
            "offer_bounds",
            "profit_identity",
        }
        assert doc["worst"] == {
            "dam_feasibility": 0,
            "dam_strong_duality": 0,
            "fleet_feasibility": "f1",
            "fleet_strong_duality": "f1",
            "offer_bounds": 0,
        }


def _cold_fleet_bound(outcome):
    """The fleet optimum as the sum of cold solves of each fleet's dualized
    LP."""
    finput = fl.fleet_input(outcome.scenario, outcome.offers)
    return sum(
        lpcore.require_optimal(lpcore.dualize(fl.build_fleet(finput, f)[0])).objective
        for f in outcome.scenario.fleets
    )


def _cold_welfare_bound(lp, ix, outcome, t):
    """Optimum of the dual of `lp` with the balance duals pinned at the
    outcome's prices: the restricted dual solved cold."""
    dual = lpcore.dualize(lp)
    prices = [-outcome.dam.lmp[b.id][t] for b in outcome.scenario.network.buses]
    lower, upper = dual.lower.copy(), dual.upper.copy()
    # the dual of row i is column i of `dualize`
    lower[ix.balance] = upper[ix.balance] = prices
    restricted = dataclasses.replace(dual, lower=lower, upper=upper)
    return lpcore.require_optimal(restricted).objective


def published_prices(ix, outcome, t):
    """The balance rows of the period-t market LP placed as `ix` says, each
    with its multiplier at the outcome's price (negated, see `dam`)."""
    buses = outcome.scenario.network.buses
    return [(row, -outcome.dam.lmp[b.id][t]) for row, b in zip(ix.balance, buses)]


def _assert_bounds_match_cold_path(outcome):
    fleet_bound = sum(bound for _, bound in bl._fleet_checks(outcome).values())
    cold = _cold_fleet_bound(outcome)
    assert abs(fleet_bound - cold) <= 1e-9 * max(1.0, abs(cold))
    dinput = bl.dam_input_for(outcome.scenario, outcome.schedule)
    periods, index = dam.build_dam(dinput)
    for t, lp in enumerate(periods):
        bound = bl._bound(lp, published_prices(index, outcome, t), outcome.dam.duals[t])
        cold = _cold_welfare_bound(lp, index, outcome, t)
        assert abs(bound - cold) <= 1e-9 * max(1.0, abs(cold)), t


class TestCertifyMatchesColdDuals:
    """The certificate's bounds (re-solved fleet duals and the market
    solve's own duals, checked by arithmetic) equal the optima of the
    dualized LPs they replace."""

    def test_desk_outcome(self, desk_baseline):
        _assert_bounds_match_cold_path(desk_baseline.outcome)

    def test_criterion_5_instances(self, bilevel_instances):
        for _, _, grid, searched in bilevel_instances:
            _assert_bounds_match_cold_path(grid)
            _assert_bounds_match_cold_path(searched)


def with_duals(outcome, duals):
    """`outcome` with `duals` as its market witness."""
    return dataclasses.replace(outcome, dam=dataclasses.replace(outcome.dam, duals=duals))


def _certify_both(outcome):
    """The certificates of `outcome` with its market witness and without it
    (every market period bounded from a re-solve)."""
    return bl.certify(outcome), bl.certify(with_duals(outcome, None))


def _assert_witness_changes_nothing(outcome):
    """`certify` gives the same certificate with the outcome's market
    witness and without it, compared as the JSON text `evcsmarket run`
    writes, so bit for bit; returns that certificate."""
    cert, bare = _certify_both(outcome)
    texts = [json.dumps(bl.certificate_to_json(c), sort_keys=True) for c in (cert, bare)]
    assert texts[0] == texts[1], outcome.scenario.name
    return cert


def _two_segment_toy():
    """The one-bus toy with its generator split into a 10 $/MWh and a
    20 $/MWh segment; at offers (15, 25) the fleet charges 10 MWh at the
    station in period 0 and the cheap segment serves all 60 MW."""
    scenario = one_bus_scenario()
    gen = md.Generator(
        "g1", "b1", 0.0, 200.0, (md.CostSegment(0.0, 100.0, 10.0), md.CostSegment(0.0, 100.0, 20.0))
    )
    scenario = dataclasses.replace(
        scenario, network=dataclasses.replace(scenario.network, generators=(gen,))
    )
    out = bl.evaluate(bl.Strategy(params_of(scenario), (15.0, 25.0)), scenario)
    assert out.dam.gen_segments["g1"] == ((60.0, 50.0), (0.0, 0.0))
    assert out.schedule.station["f1"]["c1"] == (10.0, 0.0)
    return out


class TestCertifyWitness:
    """`certify` bounds each market period at the market solve's own duals
    (`DamOutcome.duals`).  The certificate must not depend on that: with
    and without the witness it is the same bit for bit, a suboptimal
    outcome still fails, and a witness that is malformed or proves nothing
    gives the certificate without one, never an exception.  A witness
    proves only its own LP's bound: once a corrupted schedule moves the
    market LP, the certificates may differ, but both fail."""

    def test_desk_outcome(self, desk_baseline):
        assert _assert_witness_changes_nothing(desk_baseline.outcome).passed

    def test_criterion_5_instances(self, bilevel_instances):
        for _, _, grid, searched in bilevel_instances:
            for outcome in (grid, searched):
                assert _assert_witness_changes_nothing(outcome).passed

    def test_ladder_rungs(self, tmp_path, monkeypatch):
        # the benchmark's synthetic_ladder rungs and strategies at seed 0
        monkeypatch.setitem(sys.modules, "generators", load_perfbench("generators"))
        workloads = load_perfbench("workloads")
        rungs = workloads.SyntheticLadder(tmp_path, tmp_path).setup(0)
        assert len(rungs) == 4
        for scenario, strategy in rungs:
            assert _assert_witness_changes_nothing(bl.evaluate(strategy, scenario)).passed

    def test_outcome_carries_one_dual_per_row_and_period(self, desk_baseline):
        out = desk_baseline.outcome
        periods, _ = dam.build_dam(bl.dam_input_for(out.scenario, out.schedule))
        assert [len(y) for y in out.dam.duals] == [len(lp.constraints) for lp in periods]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda duals: duals[:-1],
            nan_first,
            lambda duals: (duals[0][:-1],) + duals[1:],
            lambda duals: (duals[0] + (0.0,),) + duals[1:],
            lambda duals: tuple(tuple(2.0 * y for y in period) for period in duals),
        ],
        ids=["short", "nan", "row_short", "row_long", "doubled"],
    )
    @pytest.mark.parametrize("where", ["toy", "desk"])
    def test_bad_witness_changes_nothing(self, where, corrupt, request):
        # a witness one period short, with a NaN, one row short or long,
        # or doubled (well formed, but its bound is not tight)
        if where == "toy":
            out = _two_segment_toy()
        else:
            out = request.getfixturevalue("desk_baseline").outcome
        assert _assert_witness_changes_nothing(with_duals(out, corrupt(out.dam.duals))).passed

    @pytest.mark.parametrize("moved", [60.0, 30.0], ids=["vertex", "between_vertices"])
    def test_dispatch_on_the_dearer_segment_fails_dam_duality(self, moved):
        out = _two_segment_toy()
        segments = ((60.0 - moved, 50.0), (moved, 0.0))
        bad = dataclasses.replace(out, dam=dataclasses.replace(out.dam, gen_segments={"g1": segments}))
        cert = _assert_witness_changes_nothing(bad)
        assert set(cert.failing()) == {"dam_strong_duality"}
        assert cert.worst["dam_strong_duality"] == 0

    def test_station_energy_in_the_dearer_period_fails_fleet_duality(self):
        out = _two_segment_toy()
        shifted = (0.0, 10.0)
        sched = dataclasses.replace(
            out.schedule,
            total={"f1": shifted},
            station={"f1": {"c1": shifted}},
            segments={"f1": {"c1": (shifted,)}},
            energy={"f1": (0.0, 0.0)},
            fleet_costs={"f1": 250.0},
            cost=250.0,
        )
        cert = bl.certify(dataclasses.replace(out, schedule=sched))
        assert "fleet_strong_duality" in cert.failing()
        assert cert.residuals["fleet_strong_duality"] == pytest.approx(100.0 / 250.0)

    def test_non_unique_price_passes(self):
        # in period 1 the 50 MW load fills g1's only segment exactly and
        # leaves g2 at zero, so any price in [10, 20] clears it; the market
        # solve publishes 20, and its own duals of the other rows complete
        # that price, so the bound at the witness is tight
        scenario = one_bus_scenario()
        gens = (
            md.Generator("g1", "b1", 0.0, 50.0, (md.CostSegment(0.0, 50.0, 10.0),)),
            md.Generator(
                "g2",
                "b1",
                0.0,
                200.0,
                (md.CostSegment(0.0, 100.0, 20.0), md.CostSegment(0.0, 100.0, 30.0)),
            ),
        )
        scenario = dataclasses.replace(
            scenario, network=dataclasses.replace(scenario.network, generators=gens)
        )
        out = bl.evaluate(bl.Strategy(params_of(scenario), (15.0, 25.0)), scenario)
        assert out.dam.gen_segments["g1"] == ((50.0, 50.0),)
        assert out.dam.gen_segments["g2"] == ((10.0, 0.0), (0.0, 0.0))
        assert out.dam.lmp["b1"][1] == 20.0
        dinput = bl.dam_input_for(scenario, out.schedule)
        periods, index = dam.build_dam(dinput)
        prices = published_prices(index, out, 1)
        bound = bl._bound(periods[1], prices, out.dam.duals[1])
        assert bound == pytest.approx(out.dam.period_welfare[1], rel=1e-12)
        assert bound == bl._bound(periods[1], prices)
        cert = _assert_witness_changes_nothing(out)
        assert cert.passed
        assert cert.residuals["dam_strong_duality"] == 0.0

    @pytest.mark.parametrize(
        "corrupt",
        [nan_first, truncate_first, lambda tree: corrupt_first(tree, lambda x: x + 100.0)],
        ids=["nan", "truncate", "infeasible"],
    )
    @pytest.mark.parametrize("field", ["gen", "gen_segments", "angle", "total", "segments", "energy"])
    def test_corrupt_point_fails_both_ways(self, field, corrupt):
        out = _two_segment_toy()
        if field in ("total", "segments", "energy"):
            # the market LP moves away from the one the witness solved, so
            # the two certificates may differ, but both must fail
            sched = dataclasses.replace(out.schedule, **{field: corrupt(getattr(out.schedule, field))})
            cert, bare = _certify_both(dataclasses.replace(out, schedule=sched))
            assert not cert.passed and not bare.passed
        else:
            bad_dam = dataclasses.replace(out.dam, **{field: corrupt(getattr(out.dam, field))})
            assert not _assert_witness_changes_nothing(dataclasses.replace(out, dam=bad_dam)).passed


def _certified_outcomes(bilevel_instances, desk_baseline):
    """Desk's search outcome, then each criterion-5 grid and search outcome."""
    return [
        desk_baseline.outcome,
        *(o for _, _, grid, searched in bilevel_instances for o in (grid, searched)),
    ]


@settings(max_examples=60)
@given(data=st.data())
def test_property_a_corrupted_price_fails_at_its_period(bilevel_instances, desk_baseline, data):
    """Moving one bus's published price in one period by at least 1 $/MWh
    fails `dam_strong_duality`, and the family peaks at that period."""
    outcomes = _certified_outcomes(bilevel_instances, desk_baseline)
    out = data.draw(st.sampled_from(outcomes))
    bus = data.draw(st.sampled_from(sorted(out.dam.lmp)))
    t = data.draw(st.integers(0, out.scenario.network.horizon - 1))
    step = data.draw(st.floats(1.0, 50.0)) * data.draw(st.sampled_from((1.0, -1.0)))
    series = out.dam.lmp[bus]
    lmp = {**out.dam.lmp, bus: series[:t] + (series[t] + step,) + series[t + 1 :]}
    cert = bl.certify(dataclasses.replace(out, dam=dataclasses.replace(out.dam, lmp=lmp)))
    assert "dam_strong_duality" in cert.failing()
    assert cert.worst["dam_strong_duality"] == t


@settings(max_examples=60)
@given(data=st.data())
def test_property_a_corrupted_segment_dispatch_fails(bilevel_instances, desk_baseline, data):
    """Moving one generator segment's dispatch in one period by at least
    0.5 MW fails a market family."""
    outcomes = _certified_outcomes(bilevel_instances, desk_baseline)
    out = data.draw(st.sampled_from(outcomes))
    gen = data.draw(st.sampled_from(sorted(out.dam.gen_segments)))
    k = data.draw(st.integers(0, len(out.dam.gen_segments[gen]) - 1))
    t = data.draw(st.integers(0, out.scenario.network.horizon - 1))
    step = data.draw(st.floats(0.5, 50.0)) * data.draw(st.sampled_from((1.0, -1.0)))
    rows = list(out.dam.gen_segments[gen])
    rows[k] = rows[k][:t] + (rows[k][t] + step,) + rows[k][t + 1 :]
    segments = {**out.dam.gen_segments, gen: tuple(rows)}
    bad = dataclasses.replace(out, dam=dataclasses.replace(out.dam, gen_segments=segments))
    cert = bl.certify(bad)
    assert any(family.startswith("dam_") for family in cert.failing())


def _assert_layout_round_trip(outcome):
    """Each builder's index and its reader agree: the outcome's dispatch,
    placed by `dam.period_values`, is the period LP's primal array bit for
    bit, and the schedule placed by `fleet.schedule_values` holds the fleet
    LP's home and segment columns bit for bit (total, station and energy are
    recomputed from those)."""
    scenario = outcome.scenario
    dinput = bl.dam_input_for(scenario, outcome.schedule)
    periods, index = dam.build_dam(dinput)
    for t, lp in enumerate(periods):
        sol = lpcore.require_optimal(lp)
        values = dam.period_values(dinput, outcome.dam, t, lp, index)
        assert values.tobytes() == sol.primal.tobytes(), t
    finput = fl.fleet_input(scenario, outcome.offers)
    for f in scenario.fleets:
        lp, cols = fl.build_fleet(finput, f, home_price_bump=fl.TIE_BREAK_EPS)
        sol = lpcore.require_optimal(lp)
        values = fl.schedule_values(outcome.schedule, f, lp, cols)
        read = [cols.home] + [m_cols for seg_cols in cols.segment for m_cols in seg_cols]
        for c in read:
            assert values[c].tobytes() == sol.primal[c].tobytes(), f.id


class TestLayoutRoundTrip:
    def test_desk_outcome(self, desk_baseline):
        _assert_layout_round_trip(desk_baseline.outcome)

    def test_criterion_5_instances(self, bilevel_instances):
        for _, _, grid, searched in bilevel_instances:
            _assert_layout_round_trip(grid)
            _assert_layout_round_trip(searched)


def _assert_memo_matches_cold(scenario, strategies):
    """`evaluate` with one memo shared across `strategies` (each visited
    twice, so the second visit is all hits) gives the document of a cold
    `evaluate`."""
    memo = bl.Memo()
    for strategy in strategies + strategies:
        cold = bl.outcome_to_json(bl.evaluate(strategy, scenario))
        assert bl.outcome_to_json(bl.evaluate(strategy, scenario, memo=memo)) == cold
    assert memo.fleets and memo.markets


class TestMemoMatchesColdPath:
    def test_criterion_5_instances(self, bilevel_instances):
        for scenario, _, grid, searched in bilevel_instances:
            _assert_memo_matches_cold(scenario, [grid.strategy, searched.strategy])
            # brute_force and optimize evaluate through their own memos
            for outcome in (grid, searched):
                cold = bl.evaluate(outcome.strategy, scenario)
                expected = bl.outcome_to_json(dataclasses.replace(cold, search=outcome.search))
                assert bl.outcome_to_json(outcome) == expected

    def test_desk_search_offers(self, desk, desk_baseline):
        # two fleets: the search moves one station at a time
        outcome = desk_baseline.outcome
        params = outcome.strategy.parameters
        strategies = [
            outcome.strategy,
            bl.midpoint_strategy(desk, params),
            bl.Strategy(params, (outcome.strategy.values[0],) + tuple(p.lower for p in params[1:])),
        ]
        _assert_memo_matches_cold(desk, strategies)


def two_fleet_scenario():
    """The one-bus toy with a copy of its fleet, f2, buying at station c2."""
    scenario = one_bus_scenario()
    (f1,), (c1,) = scenario.fleets, scenario.stations
    f2 = dataclasses.replace(
        f1, id="f2", station_caps={"c2": 10.0}, station_connectivity={"c2": (1.0, 1.0)}
    )
    c2 = dataclasses.replace(c1, id="c2", fleet_id="f2")
    return dataclasses.replace(scenario, fleets=(f1, f2), stations=(c1, c2))


def counting_market_clearings(monkeypatch):
    """Record the input of every `dam.solve_dam` call from now on; returns
    the list it appends to."""
    real_solve_dam = dam.solve_dam
    calls = []

    def counted(inp, **kwargs):
        calls.append(inp)
        return real_solve_dam(inp, **kwargs)

    monkeypatch.setattr(dam, "solve_dam", counted)
    return calls


class TestResponseMemo:
    def test_response_hit_clears_no_market(self, monkeypatch):
        scenario = one_bus_scenario()
        params = params_of(scenario)
        memo = bl.Memo()
        first = bl.evaluate(bl.Strategy(params, (20.0, 15.0)), scenario, memo=memo)
        cleared = counting_market_clearings(monkeypatch)
        # other offers, and station hour 1 is still cheapest: the same response
        strategy = bl.Strategy(params, (25.0, 12.0))
        hit = bl.evaluate(strategy, scenario, memo=memo)
        assert cleared == []
        assert hit.schedule.total == first.schedule.total
        assert hit.schedule.segments == first.schedule.segments
        assert hit.dam is first.dam
        assert len(memo.markets) == 1
        cold = bl.evaluate(strategy, scenario)
        assert len(cleared) == 1
        assert bl.outcome_to_json(hit) == bl.outcome_to_json(cold)
        assert hit.profit != first.profit

    def test_memo_less_evaluate_keeps_no_fleet_lp(self, monkeypatch):
        scenario = two_fleet_scenario()
        refs, alive, alive_at_answer = spy_fleet_lps(monkeypatch)
        at_clearing = []
        real_solve_dam = dam.solve_dam

        def clearing(inp):
            at_clearing.append(alive())
            return real_solve_dam(inp)

        monkeypatch.setattr(dam, "solve_dam", clearing)
        bl.evaluate(bl.midpoint_strategy(scenario), scenario)
        assert alive_at_answer == [0, 0] and at_clearing == [0] and alive() == 0
        memo = bl.Memo()
        bl.evaluate(bl.midpoint_strategy(scenario), scenario, memo=memo)
        assert alive_at_answer[2:] == [0, 1] and at_clearing[1:] == [2]
        assert [r() for r in refs[2:]] == [memo.fleets["f1"], memo.fleets["f2"]]

    def test_failed_clearing_stores_nothing(self, monkeypatch):
        scenario = one_bus_scenario()
        strategy = bl.Strategy(params_of(scenario), (20.0, 15.0))
        real_solve_dam = dam.solve_dam

        def failing(inp, **kwargs):
            raise dam.DamNumericalError("period 0: injected")

        monkeypatch.setattr(dam, "solve_dam", failing)
        memo = bl.Memo()
        with pytest.raises(dam.DamNumericalError, match="injected"):
            bl.evaluate(strategy, scenario, memo=memo)
        assert memo.markets == {}
        monkeypatch.setattr(dam, "solve_dam", real_solve_dam)
        cleared = counting_market_clearings(monkeypatch)
        again = bl.evaluate(strategy, scenario, memo=memo)
        assert len(cleared) == 1 and len(memo.markets) == 1
        assert bl.outcome_to_json(again) == bl.outcome_to_json(bl.evaluate(strategy, scenario))

    @pytest.mark.parametrize("stored_sign", [1.0, -1.0], ids=["plus_first", "minus_first"])
    def test_negative_zero_response_gives_the_cold_outcome(self, monkeypatch, stored_sign):
        # station hour 1 carries the whole charge: the totals and segment
        # quantities of hour 0 are zeros, whose sign the key cannot see
        scenario = one_bus_scenario()
        strategy = bl.Strategy(params_of(scenario), (20.0, 15.0))
        schedule = bl.evaluate(strategy, scenario).schedule
        assert schedule.total["f1"][0] == 0.0 and schedule.segments["f1"]["c1"][0][0] == 0.0

        def signed(sign):
            def zero(v):
                return math.copysign(0.0, sign) if v == 0.0 else v

            return dataclasses.replace(
                schedule,
                total={"f1": tuple(map(zero, schedule.total["f1"]))},
                segments={"f1": {"c1": (tuple(map(zero, schedule.segments["f1"]["c1"][0])),)}},
            )

        memo = bl.Memo()
        for sign in (stored_sign, -stored_sign):
            response = signed(sign)
            monkeypatch.setattr(fl, "solve_fleet", lambda inp, **kw: response)
            out = bl.evaluate(strategy, scenario, memo=memo)
            cold = dam.solve_dam(bl.dam_input_for(scenario, response))
            assert repr(out.dam) == repr(cold)
        assert len(memo.markets) == 1
        assert math.copysign(1.0, signed(-1.0).total["f1"][0]) == -1.0


def offer_values(scenario):
    """Offers for each parameter: the band edges, the retail rate and a
    hair above it (ties and their tie-break), and any value in the band."""
    tou = scenario.fleets[0].tou[0]
    special = (tou, tou + fl.TIE_BREAK_EPS, tou - 1.0)
    return st.tuples(*(
        st.one_of(st.sampled_from((p.lower, p.upper) + special), st.floats(p.lower, p.upper))
        for p in params_of(scenario)
    ))


TWO_FLEET = two_fleet_scenario()
CRITERION_5 = random_bilevel(902)


@settings(max_examples=25)
@given(data=st.data())
def test_property_memoized_evaluate_matches_cold(data):
    """Random strategy sequences with one memo each, on the two-fleet toy and
    on a criterion-5 instance: every memoized `evaluate` writes the
    document of a cold one."""
    for scenario in (TWO_FLEET, CRITERION_5):
        params = params_of(scenario)
        values = data.draw(st.lists(offer_values(scenario), min_size=2, max_size=6))
        memo = bl.Memo()
        for v in values + values[:1]:
            strategy = bl.Strategy(params, v)
            cold = bl.outcome_to_json(bl.evaluate(strategy, scenario))
            assert bl.outcome_to_json(bl.evaluate(strategy, scenario, memo=memo)) == cold


class TestOutcomeRoundTrip:
    def test_json_round_trip_recertifies(self):
        scenario = one_bus_scenario(budget=40)
        out = bl.optimize(scenario)
        doc = bl.outcome_to_json(out)
        assert out.dam.duals is not None and "duals" not in doc["dam"]
        text = json.dumps(doc, sort_keys=True)
        again = bl.outcome_from_json(json.loads(text))
        assert again.dam.duals is None
        assert again.profit == out.profit
        assert again.offers == out.offers
        assert again.schedule.cost == out.schedule.cost
        assert bl.certify(again).passed

    def test_written_outcome_reads_back_equal(self, desk_baseline, bilevel_instances, monkeypatch):
        """The desk search outcome, a midpoint `evaluate` of each benchmark
        ladder rung and the criterion-5 outcomes come back from their
        written JSON text as equal outcomes."""
        # the benchmark's workloads import their sibling module as `generators`
        generators = load_perfbench("generators")
        monkeypatch.setitem(sys.modules, "generators", generators)
        ladder = load_perfbench("workloads").LADDER
        rungs = [generators.synthetic(b, f, seed=k) for k, (b, f) in enumerate(ladder)]
        outcomes = [
            desk_baseline.outcome,
            *(bl.evaluate(bl.midpoint_strategy(s), s) for s in rungs),
            *(o for _, _, grid, searched in bilevel_instances for o in (grid, searched)),
        ]
        assert len(outcomes) == 45
        for outcome in outcomes:
            text = json.dumps(bl.outcome_to_json(outcome))
            assert bl.outcome_from_json(json.loads(text)) == outcome, outcome.scenario.name

    def test_older_cache_format_reads_and_certifies(self):
        # earlier outcome.json files also carry `schedule.tie_break_applied`,
        # `scenario.settings.workers`, `scenario.sweeps` and `search.budget`
        # and `search.seed`, keys that are no longer written
        out = dataclasses.replace(toy_outcome(), search=bl.SearchInfo(evaluations=1, starts=1))
        current = bl.outcome_to_json(out)
        older = json.loads(json.dumps(current))
        older["search"].update(budget=1, seed=0)
        older["schedule"]["tie_break_applied"] = True
        older["scenario"]["settings"]["workers"] = 1
        older["scenario"]["sweeps"] = {"penetration_levels": [0.1], "pv_multipliers": []}
        again = bl.outcome_from_json(older)
        assert bl.certify(again).passed
        assert again.schedule == out.schedule
        assert bl.outcome_to_json(again) == current

    def test_every_number_is_read_under_its_path(self):
        # the embedded scenario's numbers are named within that scenario
        doc = json.loads(json.dumps(bl.outcome_to_json(toy_outcome())))
        assert_each_number_is_read_under_its_path(doc, bl.outcome_from_json, ("scenario",))

    @pytest.mark.parametrize(
        "keys, value, name",
        [
            (("profit",), "14584.7", "profit"),
            (("schedule", "cost"), True, "schedule.cost"),
            (("strategy", "parameters", 0, "t_end"), 1.5, "strategy.parameters[0].t_end"),
            (("search",), {"evaluations": "3", "starts": 1, "seed": 0, "budget": 1}, "search.evaluations"),
            (("dam", "wtp", "c1", 0), 2.0, "dam.wtp.c1[0]"),
            (("schedule", "segments", "f1"), [], "schedule.segments.f1"),
        ],
    )
    def test_value_of_the_wrong_kind_is_named(self, keys, value, name):
        doc = json.loads(json.dumps(bl.outcome_to_json(toy_outcome())))
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
        with pytest.raises(md.ScenarioFormatError) as info:
            bl.outcome_from_json(doc)
        assert str(info.value).startswith(f"{name}: ")

    @pytest.mark.parametrize(
        "keys, message",
        [
            (("schedule", "tie_breaks"), "schedule: unknown keys ['tie_breaks']"),
            (("search", "evals"), "search: unknown keys ['evals']"),
            (("dam", "lmps"), "dam: unknown keys ['lmps']"),
            (("strategy", "parameters", 0, "t_stop"), "strategy.parameters[0]: unknown keys ['t_stop']"),
            (("profits",), "top level: unknown keys ['profits']"),
            # the embedded scenario's keys are named within that scenario
            (("scenario", "fleets", 0, "home_capp"), "fleets[0]: unknown keys ['home_capp']"),
            (("scenario", "settings", "budgett"), "settings: unknown keys ['budgett']"),
        ],
        ids=["schedule", "search", "dam", "parameter", "top_level", "fleet", "settings"],
    )
    def test_misspelled_key_is_refused_with_its_path(self, keys, message):
        doc = json.loads(json.dumps(bl.outcome_to_json(toy_outcome())))
        doc["search"] = {"evaluations": 1, "starts": 1, "seed": 0, "budget": 1}
        bl.outcome_from_json(doc)
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = 1
        with pytest.raises(md.ScenarioFormatError) as info:
            bl.outcome_from_json(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("dam", "horizon"), "T"),
            (("schedule", "horizon"), "T"),
            (("dam", "duals"), "witness"),
            (("dam", "duals"), "junk"),
        ],
        ids=["dam_horizon", "schedule_horizon", "duals", "duals_junk"],
    )
    def test_a_key_no_document_carries_is_refused(self, keys, value):
        # the network carries the horizon, and the market duals are
        # transient: neither is ever written, so neither is read, at any value
        out = toy_outcome()
        doc = json.loads(json.dumps(bl.outcome_to_json(out)))
        given = {"T": out.scenario.network.horizon, "witness": [list(y) for y in out.dam.duals]}
        doc[keys[0]][keys[1]] = given.get(value, value)
        with pytest.raises(md.ScenarioFormatError) as info:
            bl.outcome_from_json(doc)
        assert str(info.value) == f"{keys[0]}: unknown keys ['{keys[1]}']"

    @pytest.mark.parametrize(
        "version, message",
        [
            (2, "schema_version: unsupported version 2"),
            (int("9" * 401), "schema_version: unsupported version 999"),
            ("1", "schema_version: expected an integer"),
        ],
        ids=["other", "401 digits", "string"],
    )
    def test_own_schema_version_is_read(self, version, message):
        doc = json.loads(json.dumps(bl.outcome_to_json(toy_outcome())))
        doc["schema_version"] = version
        with pytest.raises(md.ScenarioFormatError) as info:
            bl.outcome_from_json(doc)
        assert str(info.value).startswith(message)

    def test_absent_schema_version_reads_as_1(self):
        out = toy_outcome()
        doc = json.loads(json.dumps(bl.outcome_to_json(out)))
        del doc["schema_version"]
        assert bl.outcome_from_json(doc).schedule == out.schedule

    @pytest.mark.parametrize("drop", ["scenario", "strategy", "dam", "profit"])
    def test_missing_key_is_a_format_error(self, drop):
        doc = json.loads(json.dumps(bl.outcome_to_json(toy_outcome())))
        del doc[drop]
        with pytest.raises(md.ScenarioFormatError, match=f"malformed outcome document: '{drop}'"):
            bl.outcome_from_json(doc)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# evaluate and certify the 40-bus rung of perfbench's `synthetic_ladder` at
# seed 0, and print the outcome and certificate JSON; argv: src, perfbench
LADDER_RUNG_PROBE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import evcsmarket  # before numpy, as a caller of the package does
import generators
import numpy as np
from evcsmarket import bilevel
scenario = generators.synthetic(40, 5, seed=3)
params = bilevel.offer_parameters(scenario)
rng = np.random.default_rng([0, 3])
values = tuple(float(rng.uniform(p.lower, p.upper)) for p in params)
outcome = bilevel.evaluate(bilevel.Strategy(params, values), scenario)
certificate = bilevel.certify(outcome)
assert certificate.passed, certificate.failing()
docs = [bilevel.outcome_to_json(outcome), bilevel.certificate_to_json(certificate)]
json.dump(docs, sys.stdout, sort_keys=True)
"""


def test_outputs_do_not_depend_on_the_blas_thread_count():
    """The package runs numpy's BLAS on one thread unless told otherwise,
    so a process with the BLAS thread variables unset writes the same bits
    as one with OPENBLAS_NUM_THREADS=1 (on two or more CPUs, BLAS would
    otherwise split the 40-bus rung's products across threads)."""
    root = Path(__file__).resolve().parents[1]
    written = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
        proc = subprocess.run(
            [sys.executable, "-c", LADDER_RUNG_PROBE, str(root / "src"), str(root / "perfbench")],
            env={**env, **threads}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        written.append(proc.stdout)
    assert written[0] == written[1]
