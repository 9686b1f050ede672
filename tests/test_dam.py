"""Market clearing: builder, prices, closed-form bid prices, explicit dual,
invariants."""

import dataclasses

import numpy as np
import pytest

from evcsmarket import dam, lpcore
from evcsmarket import model as md
from oracles import vertex_enumerate


def single_bus(demand=50.0, cap=100.0, cost=10.0, horizon=1):
    net = md.Network(
        buses=(md.Bus("b1", -1.0, 1.0, True),),
        lines=(),
        generators=(md.Generator("g1", "b1", 0.0, cap, (md.CostSegment(0.0, cap, cost),)),),
        solar_units=(),
        demands=(md.Demand("d1", "b1", (demand,) * horizon),),
        horizon=horizon,
    )
    return dam.DamInput(net, (), ())


def two_bus(line_cap=10.0, demand=20.0):
    net = md.Network(
        buses=(md.Bus("b1", -3.0, 3.0, True), md.Bus("b2", -3.0, 3.0)),
        lines=(md.Line("l1", "b1", "b2", 0.1, -line_cap, line_cap),),
        generators=(
            md.Generator("g1", "b1", 0.0, 100.0, (md.CostSegment(0.0, 100.0, 10.0),)),
            md.Generator("g2", "b2", 0.0, 100.0, (md.CostSegment(0.0, 100.0, 30.0),)),
        ),
        solar_units=(),
        demands=(md.Demand("d1", "b2", (demand,)),),
        horizon=1,
    )
    return dam.DamInput(net, (), ())


def random_dam_input(rng):
    """Small random network with withdrawals and station bids; draws are
    rerolled until the clearing problem is feasible (low reactance keeps
    angle limits from starving remote buses, but corner cases remain)."""
    while True:
        n_bus = int(rng.integers(1, 4))
        T = int(rng.integers(1, 3))
        buses = tuple(md.Bus(f"b{i}", -2.0, 2.0, reference=i == 0) for i in range(n_bus))
        lines = tuple(
            md.Line(f"l{i}", f"b{i}", f"b{i+1}", float(rng.uniform(0.02, 0.08)),
                    -float(rng.uniform(40, 70)), float(rng.uniform(40, 70)))
            for i in range(n_bus - 1)
        )
        gens = []
        for i in range(n_bus):
            if i == 0 or rng.random() < 0.6:
                segs = []
                cost = float(rng.uniform(5, 20))
                for _ in range(int(rng.integers(1, 3))):
                    segs.append(md.CostSegment(0.0, float(rng.uniform(30, 80)), cost))
                    cost += float(rng.uniform(0, 25))
                cap = sum(s.p_max for s in segs)
                gens.append(md.Generator(f"g{i}", f"b{i}", 0.0, cap, tuple(segs)))
        solar = tuple(
            md.SolarUnit(f"s{i}", f"b{i}", tuple(float(rng.uniform(0, 15)) for _ in range(T)))
            for i in range(n_bus)
            if rng.random() < 0.4
        )
        demands = tuple(
            md.Demand(f"d{i}", f"b{i}", tuple(float(rng.uniform(0, 15)) for _ in range(T)))
            for i in range(n_bus)
            if rng.random() < 0.8
        )
        net = md.Network(buses, lines, gens, solar, demands, T)

        withdrawals = []
        bids = []
        if rng.random() < 0.7:
            bus = f"b{int(rng.integers(0, n_bus))}"
            power = tuple(float(rng.uniform(0, 5)) for _ in range(T))
            withdrawals.append(dam.FleetWithdrawal("f0", bus, power))
            widths = (8.0, 8.0)
            quantities = tuple(
                tuple(min(power[t] * 0.5, widths[m]) for t in range(T)) for m in range(2)
            )
            bids.append(
                dam.StationDamBid(
                    station_id="c0",
                    quantities=quantities,
                    wtp_min=((15.0,) * T, (12.0,) * T),
                    wtp_max=((60.0,) * T, (55.0,) * T),
                    widths=widths,
                )
            )
        inp = dam.DamInput(net, tuple(withdrawals), tuple(bids))
        if lpcore.solve(dam.build_dam(inp)[0]).is_optimal:
            return inp


class TestBuildAndSolve:
    def test_single_bus_dispatch_and_welfare(self):
        out = dam.solve_dam(single_bus())
        assert out.gen["g1"][0] == pytest.approx(50.0, abs=1e-9)
        assert out.welfare == pytest.approx(-500.0, abs=1e-9)
        assert out.lmp["b1"][0] == pytest.approx(10.0, abs=1e-9)

    def test_single_bus_against_vertex_enumeration(self):
        lp, _ = dam.build_dam(single_bus(), period=0)
        ref_val, _ = vertex_enumerate(lp)
        assert ref_val == pytest.approx(-500.0, abs=1e-9)

    def test_demand_above_capacity_infeasible(self):
        with pytest.raises(dam.DamInfeasibleError) as err:
            dam.solve_dam(single_bus(demand=150.0))
        assert err.value.period == 0

    def test_post_check_names_the_period(self, monkeypatch):
        real_solve = lpcore.solve

        def off_balance(lp, **kwargs):
            sol = real_solve(lp, **kwargs)
            if lp.name == "dam[t=1]":
                sol.primal[lp.variables.index("gen[g1,1]")] += 1.0
            return sol

        monkeypatch.setattr(lpcore, "solve", off_balance)
        with pytest.raises(dam.DamNumericalError, match="period 1: solution violates"):
            dam.solve_dam(single_bus(horizon=2))

    def test_fixed_quantity_pushes_bid_to_ceiling(self):
        inp = single_bus()
        st = md.ChargingStation(
            "c1", "f1", (20.0,), (40.0,), (md.WtpSegment(10.0, (20.0,), (40.0,)),)
        )
        for quantity, price in ((5.0, 40.0), (0.0, 20.0)):
            bid = dam.station_bid_from_quantities(st, ((quantity,),))
            wd = dam.FleetWithdrawal("f1", "b1", (quantity,))
            out = dam.solve_dam(dam.DamInput(inp.network, (wd,), (bid,)))
            assert out.wtp["c1"][0][0] == pytest.approx(price, abs=1e-9)

    def test_congested_two_bus_prices(self):
        out = dam.solve_dam(two_bus(line_cap=10.0))
        assert out.flow["l1"][0] == pytest.approx(10.0, abs=1e-9)
        assert out.lmp["b1"][0] == pytest.approx(10.0, abs=1e-9)
        assert out.lmp["b2"][0] == pytest.approx(30.0, abs=1e-9)

    def test_uncongested_two_bus_equal_prices(self):
        out = dam.solve_dam(two_bus(line_cap=100.0))
        assert out.lmp["b1"][0] == pytest.approx(out.lmp["b2"][0], abs=1e-9)
        assert out.lmp["b1"][0] == pytest.approx(10.0, abs=1e-9)

    def test_zero_demand_zero_dispatch(self):
        out = dam.solve_dam(single_bus(demand=0.0))
        assert out.gen["g1"][0] == pytest.approx(0.0, abs=1e-12)
        assert out.welfare == pytest.approx(0.0, abs=1e-12)
        assert -1e-9 <= out.lmp["b1"][0] <= 10.0 + 1e-9

    def test_structural_error_bad_bus(self):
        inp = single_bus()
        wd = dam.FleetWithdrawal("f1", "ghost", (1.0,))
        with pytest.raises(dam.DamStructureError, match="ghost"):
            dam.solve_dam(dam.DamInput(inp.network, (wd,), ()))

    def test_quantity_outside_width_rejected(self):
        inp = single_bus()
        bid = dam.StationDamBid("c1", ((12.0,),), ((0.0,),), ((50.0,),), (10.0,))
        with pytest.raises(dam.DamStructureError, match="outside segment width"):
            dam.build_dam(dam.DamInput(inp.network, (), (bid,)))

    def test_line_to_unknown_bus_rejected(self):
        net = two_bus().network
        net = dataclasses.replace(net, lines=(md.Line("l1", "b1", "nowhere", 0.1, -10.0, 10.0),))
        with pytest.raises(dam.DamStructureError, match="endpoint"):
            dam.build_dam(dam.DamInput(net, (), ()))

    def test_block_lp_equals_per_period(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            inp = random_dam_input(rng)
            out = dam.solve_dam(inp)
            block = lpcore.require_optimal(dam.build_dam(inp)[0])
            bid_value = sum(
                q[t] * out.wtp[bid.station_id][m][t]
                for bid in inp.station_bids
                for m, q in enumerate(bid.quantities)
                for t in range(inp.network.horizon)
            )
            assert block.objective + bid_value == pytest.approx(
                out.welfare, rel=1e-9, abs=1e-9
            )


class TestMemo:
    def test_hit_recomputes_bid_prices_and_welfare(self, monkeypatch):
        # equal withdrawals, so both inputs share every period LP; the bid
        # quantities differ, and with them the cleared bid prices
        net = single_bus(horizon=2).network
        st = md.ChargingStation(
            "c1", "f1", (20.0,) * 2, (40.0,) * 2, (md.WtpSegment(10.0, (20.0,) * 2, (40.0,) * 2),)
        )
        wd = dam.FleetWithdrawal("f1", "b1", (5.0, 5.0))

        def dam_input(quantities):
            return dam.DamInput(net, (wd,), (dam.station_bid_from_quantities(st, (quantities,)),))

        memo = {}
        first = dam.solve_dam(dam_input((5.0, 5.0)), memo=memo)
        real_solve = lpcore.solve
        calls = []

        def counted(lp, **kwargs):
            calls.append(lp.name)
            return real_solve(lp, **kwargs)

        monkeypatch.setattr(lpcore, "solve", counted)
        second = dam.solve_dam(dam_input((0.0, 5.0)), memo=memo)
        assert calls == []
        cold = dam.solve_dam(dam_input((0.0, 5.0)))
        assert len(calls) == 2
        assert second.wtp == cold.wtp
        assert second.period_welfare == cold.period_welfare
        assert second.welfare == cold.welfare
        assert second == cold
        assert second.wtp != first.wtp and second.welfare != first.welfare

    def test_failed_post_check_stores_nothing(self, monkeypatch):
        real_solve = lpcore.solve

        def off_balance(lp, **kwargs):
            sol = real_solve(lp, **kwargs)
            if lp.name == "dam[t=1]":
                sol.primal[lp.variables.index("gen[g1,1]")] += 1.0
            return sol

        monkeypatch.setattr(lpcore, "solve", off_balance)
        memo = {}
        with pytest.raises(dam.DamNumericalError, match="period 1"):
            dam.solve_dam(single_bus(horizon=2), memo=memo)
        assert list(memo) == [("period", 0, ())]


class TestInvariants:
    def test_energy_conservation(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            inp = random_dam_input(rng)
            out = dam.solve_dam(inp)
            for t in range(inp.network.horizon):
                supply = sum(series[t] for series in out.gen.values())
                supply += sum(series[t] for series in out.solar.values())
                demand = sum(d.load[t] for d in inp.network.demands)
                demand += sum(w.power[t] for w in inp.withdrawals)
                assert supply == pytest.approx(demand, abs=1e-7)

    def test_uncongested_periods_have_uniform_prices(self):
        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(20):
            inp = random_dam_input(rng)
            out = dam.solve_dam(inp)
            for t in range(inp.network.horizon):
                congested = False
                for ln in inp.network.lines:
                    flow = out.flow[ln.id][t]
                    if flow >= ln.flow_max - 1e-7 or flow <= ln.flow_min + 1e-7:
                        congested = True
                for b in inp.network.buses:
                    ang = out.angle[b.id][t]
                    if not (b.angle_min + 1e-7 <= ang <= b.angle_max - 1e-7) and b.id != inp.network.reference_bus():
                        congested = True
                if congested:
                    continue
                prices = [out.lmp[b.id][t] for b in inp.network.buses]
                assert max(prices) - min(prices) <= 1e-6
                checked += 1
        assert checked >= 5

    def test_lmp_monotone_in_local_demand(self):
        # radial 2-bus re-solve comparison: more load at a bus never lowers
        # its price
        for cap in (10.0, 100.0):
            lmps = []
            for demand in (5.0, 15.0, 25.0, 60.0):
                out = dam.solve_dam(two_bus(line_cap=cap, demand=demand))
                lmps.append(out.lmp["b2"][0])
            assert all(b >= a - 1e-9 for a, b in zip(lmps, lmps[1:]))


class TestExplicitDual:
    def test_single_bus_value(self):
        inp = single_bus()
        sol = lpcore.require_optimal(dam.build_dam_paper_dual(inp))
        assert sol.objective == pytest.approx(-500.0, abs=1e-9)

    def test_congested_two_bus_value(self):
        inp = two_bus(line_cap=10.0)
        primal = lpcore.require_optimal(dam.build_dam(inp)[0])
        explicit = lpcore.require_optimal(dam.build_dam_paper_dual(inp))
        assert explicit.objective == pytest.approx(primal.objective, rel=1e-9, abs=1e-9)

    def test_structural_diff_empty(self):
        rng = np.random.default_rng(5)
        assert dam.paper_dual_structural_diff(single_bus()) == []
        assert dam.paper_dual_structural_diff(two_bus()) == []
        for _ in range(5):
            assert dam.paper_dual_structural_diff(random_dam_input(rng)) == []

    def test_randomized_value_equality(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            inp = random_dam_input(rng)
            primal = lpcore.require_optimal(dam.build_dam(inp)[0])
            explicit = lpcore.require_optimal(dam.build_dam_paper_dual(inp))
            assert explicit.objective == pytest.approx(
                primal.objective, rel=1e-7, abs=1e-7
            )
