"""Upper-level search, profit accounting, and the outcome certificate."""

import dataclasses
import json
import math

import numpy as np
import pytest

from evcsmarket import bilevel as bl
from evcsmarket import dam
from evcsmarket import fleet as fl
from evcsmarket import lpcore
from evcsmarket import model as md
from evcsmarket import scenarios as sc
from conftest import assert_each_number_is_read_under_its_path, one_bus_scenario


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
        scenario = one_bus_scenario()
        out = bl.optimize(scenario, budget=1)
        assert out.strategy.values == (25.0, 25.0)
        assert out.search.evaluations == 1

    def test_never_below_reference_points(self):
        scenario = one_bus_scenario()
        params = params_of(scenario)
        lo = bl.evaluate(bl.Strategy(params, (10.0, 10.0)), scenario).profit
        hi = bl.evaluate(bl.Strategy(params, (40.0, 40.0)), scenario).profit
        mid = bl.evaluate(bl.Strategy(params, (25.0, 25.0)), scenario).profit
        out = bl.optimize(scenario, budget=50)
        assert out.profit >= max(lo, hi, mid) - 1e-9

    def test_lands_near_retail_rate_edge(self):
        # profit rises in tau until the retail rate, then collapses: the
        # optimizer must stop within one 0.5 grid step of the edge
        scenario = one_bus_scenario(tou=30.0, offer_lo=10.0, offer_hi=40.0)
        out = bl.optimize(scenario, budget=300)
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
        scenario = one_bus_scenario(gen_cost=50.0, offer_lo=5.0, offer_hi=8.0, tou=30.0)
        out = bl.optimize(scenario, budget=60)
        assert out.profit <= 1e-9
        for v, p in zip(out.strategy.values, params_of(scenario)):
            assert v == pytest.approx(p.upper, abs=1e-9) or v == pytest.approx(
                p.lower, abs=1e-9
            )

    def test_deterministic_given_seed(self):
        scenario = one_bus_scenario()
        a = bl.optimize(scenario, budget=80, seed=3)
        b = bl.optimize(scenario, budget=80, seed=3)
        assert a.strategy.values == b.strategy.values
        assert a.profit == b.profit

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            bl.optimize(one_bus_scenario(), budget=0)

    @pytest.mark.parametrize("step_min", [0.0, -1.0])
    def test_nonpositive_step_min_raises_before_evaluating(self, step_min, monkeypatch):
        scenario = one_bus_scenario()
        scenario = dataclasses.replace(
            scenario, settings=dataclasses.replace(scenario.settings, step_min=step_min)
        )
        evaluated = []
        monkeypatch.setattr(bl, "evaluate", lambda *args, **kwargs: evaluated.append(args))
        with pytest.raises(ValueError, match="step_min"):
            bl.optimize(scenario, budget=100000)
        assert evaluated == []


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
        searched = bl.optimize(scenario, budget=200)
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


class TestCertify:
    def test_evaluate_output_passes(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(params_of(scenario), (20.0, 20.0)), scenario)
        cert = bl.certify(out, tol=1e-6)
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
        ids=["shift_1mw", "nan", "truncate", "missing_key"],
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
            pytest.param(where, family, corrupt, period, id=f"{where}-{family}{suffix}")
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


def _assert_bounds_match_cold_path(outcome):
    fleet_bound = sum(bound for _, bound in bl._fleet_checks(outcome).values())
    cold = _cold_fleet_bound(outcome)
    assert abs(fleet_bound - cold) <= 1e-9 * max(1.0, abs(cold))
    dinput = bl.dam_input_for(outcome.scenario, outcome.schedule)
    for t in range(outcome.scenario.network.horizon):
        lp, index = dam.build_dam(dinput, t)
        values = dam.period_values(dinput, outcome.dam, t, lp, index)
        bound = bl._welfare_bound(lp, index, outcome, t, values)
        cold = _cold_welfare_bound(lp, index, outcome, t)
        assert abs(bound - cold) <= 1e-9 * max(1.0, abs(cold)), t


class TestCertifyMatchesColdDuals:
    """The certificate's bounds (re-solved primal duals, checked by
    arithmetic) equal the optima of the dualized LPs they replace."""

    def test_desk_outcome(self, desk_baseline):
        _assert_bounds_match_cold_path(desk_baseline.outcome)

    def test_criterion_5_instances(self, bilevel_instances):
        for _, _, grid, searched in bilevel_instances:
            _assert_bounds_match_cold_path(grid)
            _assert_bounds_match_cold_path(searched)


def _certify_both(outcome, monkeypatch):
    """`certify` as it runs (each re-solve started at the outcome's point)
    and with every re-solve started from the crash basis."""
    started = bl.certify(outcome)
    real = lpcore.solve

    def crash_started(lp, *, feas_tol=lpcore.FEAS_TOL, start=None):
        return real(lp, feas_tol=feas_tol)

    with monkeypatch.context() as patch:
        patch.setattr(lpcore, "solve", crash_started)
        crashed = bl.certify(outcome)
    return started, crashed


def _assert_same_certificate(outcome, monkeypatch):
    started, crashed = _certify_both(outcome, monkeypatch)
    assert started.passed == crashed.passed
    assert started.failing().keys() == crashed.failing().keys()
    for family, value in crashed.residuals.items():
        other = started.residuals[family]
        assert other == value or abs(other - value) <= 1e-12, (family, other, value)
    return started


def _kept_starts(monkeypatch):
    """A list that records, for each tableau built with a start point,
    whether the start was kept (True) or the crash ran instead."""
    kept = []
    real = lpcore._Tableau._start_at

    def spy(self, start, feas_tol):
        kept.append(real(self, start, feas_tol))
        return kept[-1]

    monkeypatch.setattr(lpcore._Tableau, "_start_at", spy)
    return kept


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


class TestCertifyPointStart:
    """`certify` starts each re-solve at the outcome's own point.  The
    certificate must not depend on that: a feasible but suboptimal point
    still fails, and a point that cannot start a solve gives the
    crash-started certificate without raising."""

    def test_desk_outcome(self, desk_baseline, monkeypatch):
        assert _assert_same_certificate(desk_baseline.outcome, monkeypatch).passed

    def test_criterion_5_instances(self, bilevel_instances, monkeypatch):
        for _, _, grid, searched in bilevel_instances:
            for outcome in (grid, searched):
                assert _assert_same_certificate(outcome, monkeypatch).passed

    @pytest.mark.parametrize("moved", [60.0, 30.0], ids=["vertex", "between_vertices"])
    def test_dispatch_on_the_dearer_segment_fails_dam_duality(self, moved, monkeypatch):
        out = _two_segment_toy()
        segments = ((60.0 - moved, 50.0), (moved, 0.0))
        bad = dataclasses.replace(out, dam=dataclasses.replace(out.dam, gen_segments={"g1": segments}))
        kept = _kept_starts(monkeypatch)
        cert = _assert_same_certificate(bad, monkeypatch)
        # fleet, period 0, period 1; a point between vertices has three
        # interior columns on two rows and starts from the crash
        assert kept[:3] == [True, moved == 60.0, True]
        assert set(cert.failing()) == {"dam_strong_duality"}
        assert cert.worst["dam_strong_duality"] == 0

    def test_station_energy_in_the_dearer_period_fails_fleet_duality(self, monkeypatch):
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
        kept = _kept_starts(monkeypatch)
        cert = _assert_same_certificate(dataclasses.replace(out, schedule=sched), monkeypatch)
        assert kept[0] is True
        assert "fleet_strong_duality" in cert.failing()
        assert cert.residuals["fleet_strong_duality"] == pytest.approx(100.0 / 250.0)

    def test_non_unique_price_passes(self, monkeypatch):
        # in period 1 the 50 MW load fills g1's only segment exactly and
        # leaves g2 at zero, so any price in [10, 20] clears it; the market
        # solve publishes 20, the re-solve started at the dispatch ends in
        # another basis whose gen_split duals do not complete that price,
        # and only the crash-started bound is tight
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
        lp, index = dam.build_dam(dinput, 1)
        values = dam.period_values(dinput, out.dam, 1, lp, index)
        started = bl._welfare_bound(lp, index, out, 1, values)
        crashed = bl._welfare_bound(lp, index, out, 1)
        assert crashed == pytest.approx(out.dam.period_welfare[1], rel=1e-12)
        assert started > crashed + 100.0
        cert = _assert_same_certificate(out, monkeypatch)
        assert cert.passed
        assert cert.residuals["dam_strong_duality"] == 0.0

    @pytest.mark.parametrize(
        "corrupt",
        [nan_first, truncate_first, lambda tree: corrupt_first(tree, lambda x: x + 100.0)],
        ids=["nan", "truncate", "infeasible"],
    )
    @pytest.mark.parametrize("field", ["gen", "gen_segments", "angle", "total", "segments", "energy"])
    def test_unusable_point_gives_the_crash_certificate(self, field, corrupt, monkeypatch):
        out = _two_segment_toy()
        if field in ("total", "segments", "energy"):
            sched = dataclasses.replace(out.schedule, **{field: corrupt(getattr(out.schedule, field))})
            bad = dataclasses.replace(out, schedule=sched)
        else:
            bad_dam = dataclasses.replace(out.dam, **{field: corrupt(getattr(out.dam, field))})
            bad = dataclasses.replace(out, dam=bad_dam)
        assert not _assert_same_certificate(bad, monkeypatch).passed


def _assert_layout_round_trip(outcome):
    """Each builder's index and its reader agree: the outcome's dispatch,
    placed by `dam.period_values`, is the period LP's primal array bit for
    bit, and the schedule placed by `fleet.schedule_values` holds the fleet
    LP's home and segment columns bit for bit (total, station and energy are
    recomputed from those)."""
    scenario = outcome.scenario
    dinput = bl.dam_input_for(scenario, outcome.schedule)
    for t in range(scenario.network.horizon):
        lp, index = dam.build_dam(dinput, t)
        sol = lpcore.require_optimal(lp, feas_tol=scenario.settings.feas_tol)
        values = dam.period_values(dinput, outcome.dam, t, lp, index)
        assert values.tobytes() == sol.primal.tobytes(), t
    finput = fl.fleet_input(scenario, outcome.offers)
    for f in scenario.fleets:
        lp, cols = fl.build_fleet(finput, f, home_price_bump=fl.TIE_BREAK_EPS)
        sol = lpcore.require_optimal(lp, feas_tol=scenario.settings.feas_tol)
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
    memo = {}
    for strategy in strategies + strategies:
        cold = bl.outcome_to_json(bl.evaluate(strategy, scenario))
        assert bl.outcome_to_json(bl.evaluate(strategy, scenario, memo=memo)) == cold
    assert memo


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


class TestOutcomeRoundTrip:
    def test_json_round_trip_recertifies(self):
        scenario = one_bus_scenario()
        out = bl.optimize(scenario, budget=40)
        doc = bl.outcome_to_json(out)
        text = json.dumps(doc, sort_keys=True)
        again = bl.outcome_from_json(json.loads(text))
        assert again.profit == out.profit
        assert again.offers == out.offers
        assert again.schedule.cost == out.schedule.cost
        assert bl.certify(again).passed

    def test_older_cache_format_reads_and_certifies(self):
        # earlier outcome.json files also carry `schedule.tie_break_applied`
        # and `scenario.settings.workers`, keys that are no longer written
        out = toy_outcome()
        current = bl.outcome_to_json(out)
        older = json.loads(json.dumps(current))
        older["schedule"]["tie_break_applied"] = True
        older["scenario"]["settings"]["workers"] = 1
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
