"""Market clearing: builder, prices, closed-form bid prices, explicit dual,
invariants."""

import dataclasses
import re

import numpy as np
import pytest

from evcsmarket import bilevel as bl
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


def column(lp, label):
    return lp.variables.index(label)


def row(lp, label):
    return lp.constraints.index(label)


def with_entry(lp, attr, index, value):
    """`lp` with one entry of its array `attr` set to `value`."""
    array = getattr(lp, attr).astype(object)  # a relation may be longer than the ones held
    array[index] = value
    return dataclasses.replace(lp, **{attr: array})


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
        if all(lpcore.solve(lp).is_optimal for lp in dam.build_dam(inp)[0]):
            return inp


@pytest.fixture(scope="module")
def desk_market(desk):
    """The desk scenario's market input at its midpoint offers: 24 periods,
    solar, three generators."""
    outcome = bl.evaluate(bl.midpoint_strategy(desk), desk)
    return bl.dam_input_for(desk, outcome.schedule)


class TestBuildAndSolve:
    def test_single_bus_dispatch_and_welfare(self):
        out = dam.solve_dam(single_bus())
        assert out.gen["g1"][0] == pytest.approx(50.0, abs=1e-9)
        assert out.welfare == pytest.approx(-500.0, abs=1e-9)
        assert out.lmp["b1"][0] == pytest.approx(10.0, abs=1e-9)

    def test_single_bus_against_vertex_enumeration(self):
        lp = dam.build_dam(single_bus())[0][0]
        ref_val, _ = vertex_enumerate(lp)
        assert ref_val == pytest.approx(-500.0, abs=1e-9)

    def test_demand_above_capacity_infeasible(self):
        with pytest.raises(dam.DamInfeasibleError) as err:
            dam.solve_dam(single_bus(demand=150.0))
        assert err.value.period == 0

    def test_post_check_names_the_period(self, monkeypatch):
        real_solve = lpcore.solve
        solved = []

        def off_balance(lp, **kwargs):
            sol = real_solve(lp, **kwargs)
            solved.append(lp)
            if len(solved) == 2:  # periods are solved in order
                sol.primal[lp.variables.index("gen[g1]")] += 1.0
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

    @pytest.mark.parametrize(
        "field, make, match",
        [
            ("generators", lambda net: (dataclasses.replace(net.generators[0], bus="ghost"),),
             re.escape("network.generators[0]: bus 'ghost' not in network")),
            ("solar_units", lambda net: (md.SolarUnit("s1", "ghost", (1.0,)),),
             re.escape("network.solar_units[0]: bus 'ghost' not in network")),
            ("demands", lambda net: (md.Demand("d2", "ghost", (1.0,)),),
             re.escape("network.demands[0]: bus 'ghost' not in network")),
            ("demands", lambda net: (md.Demand("d2", "b1", (1.0, 2.0)),),
             re.escape("network.demands[0].load: series length 2 != horizon 1")),
        ],
        ids=["generator_bus", "solar_bus", "demand_bus", "demand_length"],
    )
    def test_network_entry_that_does_not_fit_is_rejected(self, field, make, match):
        net = single_bus().network
        net = dataclasses.replace(net, **{field: make(net)})
        with pytest.raises(dam.DamStructureError, match=match):
            dam.solve_dam(dam.DamInput(net, (), ()))

    @pytest.mark.parametrize(
        "withdrawals, bids, message",
        [
            ((dam.FleetWithdrawal("f1", "b1", (1.0, 2.0)),), (),
             "withdrawal f1: series length != horizon"),
            ((), (dam.StationDamBid("c1", ((1.0,),), ((0.0,),), ((50.0,),), (10.0, 5.0)),),
             "station c1: segment count mismatch"),
            ((), (dam.StationDamBid("c1", ((1.0,),), ((0.0, 0.0),), ((50.0,),), (10.0,)),),
             "station c1: bid series length != horizon"),
        ],
        ids=["withdrawal_length", "segment_count", "bid_length"],
    )
    def test_market_input_that_does_not_fit_is_rejected(self, withdrawals, bids, message):
        inp = dam.DamInput(single_bus().network, withdrawals, bids)
        with pytest.raises(dam.DamStructureError, match=f"^{re.escape(message)}$"):
            dam.solve_dam(inp)

    def test_period_solve_that_is_not_optimal_raises(self, monkeypatch):
        solve = lpcore.solve
        monkeypatch.setattr(
            lpcore,
            "solve",
            lambda lp: dataclasses.replace(solve(lp), status=lpcore.ITERATION_LIMIT),
        )
        with pytest.raises(dam.DamNumericalError, match=r"^period 0: solver status iteration_limit$"):
            dam.solve_dam(single_bus())

    def test_welfare_equals_period_optima(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            inp = random_dam_input(rng)
            out = dam.solve_dam(inp)
            optima = sum(lpcore.require_optimal(lp).objective for lp in dam.build_dam(inp)[0])
            bid_value = sum(
                q[t] * out.wtp[bid.station_id][m][t]
                for bid in inp.station_bids
                for m, q in enumerate(bid.quantities)
                for t in range(inp.network.horizon)
            )
            assert optima + bid_value == pytest.approx(out.welfare, rel=1e-9, abs=1e-9)


class TestPeriodLp:
    """A period LP depends only on its own period and, through the balance
    rhs, on the fleet withdrawals at it, so `build_dam` builds the structure
    once and sets only the rhs and the solar upper bounds per period."""

    def test_periods_share_structure(self, desk_market):
        net = desk_market.network
        assert net.horizon == 24 and net.solar_units and len(net.generators) == 3
        periods, ix = dam.build_dam(desk_market)
        assert len(periods) == net.horizon
        first = periods[0]
        for t, lp in enumerate(periods):
            assert lp.sense == first.sense
            for name in ("objective", "lower", "matrix", "relations", "variables", "constraints"):
                assert getattr(lp, name) is getattr(first, name), (t, name)
            others = np.ones(len(lp.variables), dtype=bool)
            others[ix.solar] = False
            assert np.array_equal(lp.upper[others], first.upper[others]), t
            assert lp.upper[ix.solar].tolist() == [s.available[t] for s in net.solar_units]
            rows = np.ones(len(lp.constraints), dtype=bool)
            rows[ix.balance] = False
            assert not lp.rhs[rows].any(), t
        # each period owns its upper bounds and rhs
        owned = {id(lp.upper) for lp in periods} | {id(lp.rhs) for lp in periods}
        assert len(owned) == 2 * len(periods)

    def test_other_periods_leave_the_lp_unchanged(self, desk_market):
        net = desk_market.network
        for t in range(net.horizon):
            def shifted(series, by):
                return tuple(v if s == t else v + by for s, v in enumerate(series))

            moved = dataclasses.replace(
                net,
                demands=tuple(
                    dataclasses.replace(d, load=shifted(d.load, 3.0)) for d in net.demands
                ),
                solar_units=tuple(
                    dataclasses.replace(u, available=shifted(u.available, 1.5))
                    for u in net.solar_units
                ),
            )
            withdrawals = tuple(
                dataclasses.replace(w, power=shifted(w.power, 2.0))
                for w in desk_market.withdrawals
            )
            perturbed = dam.DamInput(moved, withdrawals, desk_market.station_bids)
            periods, ix = dam.build_dam(desk_market)
            others, other_ix = dam.build_dam(perturbed)
            assert other_ix == ix
            lp, other = periods[t], others[t]
            for name in ("objective", "lower", "upper", "matrix", "relations", "rhs"):
                assert np.array_equal(getattr(other, name), getattr(lp, name)), (t, name)


class TestOneBuildPerCall:
    """`solve_dam` and `certify` each check the market input and build its
    period LPs once per call, not once per period."""

    @staticmethod
    def spy(monkeypatch):
        calls = dict.fromkeys(("build_dam", "_check_input"), 0)
        for name in calls:
            def counted(*args, _real=getattr(dam, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(dam, name, counted)
        return calls

    def test_solve_dam(self, desk_market, monkeypatch):
        calls = self.spy(monkeypatch)
        dam.solve_dam(desk_market)
        assert calls == {"build_dam": 1, "_check_input": 1}

    def test_certify(self, desk, monkeypatch):
        outcome = bl.evaluate(bl.midpoint_strategy(desk), desk)
        calls = self.spy(monkeypatch)
        assert bl.certify(outcome).passed
        assert calls == {"build_dam": 1, "_check_input": 1}


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
        sol = lpcore.require_optimal(dam.build_dam_paper_dual(inp, 0))
        assert sol.objective == pytest.approx(-500.0, abs=1e-9)

    def test_congested_two_bus_value(self):
        inp = two_bus(line_cap=10.0)
        primal = lpcore.require_optimal(dam.build_dam(inp)[0][0])
        explicit = lpcore.require_optimal(dam.build_dam_paper_dual(inp, 0))
        assert explicit.objective == pytest.approx(primal.objective, rel=1e-9, abs=1e-9)

    def test_structural_diff_empty(self, desk_market):
        rng = np.random.default_rng(5)
        inputs = [single_bus(), two_bus()] + [random_dam_input(rng) for _ in range(5)]
        for inp in inputs + [desk_market]:
            for t in range(inp.network.horizon):
                assert dam.paper_dual_structural_diff(inp, t) == [], t

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (
                lambda lp: dataclasses.replace(
                    lp, objective=lp.objective[:-1], lower=lp.lower[:-1], upper=lp.upper[:-1],
                    matrix=lp.matrix[:, :-1], variables=lp.variables[:-1],
                ),
                "missing variable bound_up[flow[l1]]",
            ),
            (
                lambda lp: dataclasses.replace(
                    lp, objective=np.append(lp.objective, 0.0), lower=np.append(lp.lower, 0.0),
                    upper=np.append(lp.upper, 1.0),
                    matrix=np.hstack([lp.matrix, np.zeros((len(lp.constraints), 1))]),
                    variables=(*lp.variables, "price[ghost]"),
                ),
                "extra variable price[ghost]",
            ),
            (
                lambda lp: with_entry(lp, "lower", column(lp, "price[balance[b1]]"), 0.0),
                "price[balance[b1]]: bounds (",
            ),
            (
                lambda lp: with_entry(lp, "objective", column(lp, "price[balance[b2]]"), 21.0),
                "price[balance[b2]]: objective 21.0 != 20.0",
            ),
            (
                lambda lp: with_entry(lp, "relations", row(lp, "col[seg[g1,0]]"), lpcore.LE),
                "col[seg[g1,0]]: relation/rhs mismatch",
            ),
            (
                lambda lp: with_entry(lp, "rhs", row(lp, "col[seg[g1,0]]"), -11.0),
                "col[seg[g1,0]]: relation/rhs mismatch",
            ),
            (
                lambda lp: with_entry(
                    lp, "matrix", (row(lp, "col[gen[g1]]"), column(lp, "price[gen_split[g2]]")), 1.0
                ),
                "col[gen[g1]]: different variable support",
            ),
            (
                lambda lp: with_entry(
                    lp, "matrix", (row(lp, "col[angle[b1]]"), column(lp, "price[dc_flow[l1]]")), -11.0
                ),
                "col[angle[b1]]: coefficient on price[dc_flow[l1]] differs",
            ),
            (
                lambda lp: dataclasses.replace(
                    lp, matrix=lp.matrix[:-1], relations=lp.relations[:-1], rhs=lp.rhs[:-1],
                    constraints=lp.constraints[:-1],
                ),
                "missing constraint col[flow[l1]]",
            ),
            (
                lambda lp: dataclasses.replace(
                    lp, matrix=np.vstack([lp.matrix, np.eye(1, len(lp.variables))]),
                    relations=np.append(lp.relations, lpcore.EQ), rhs=np.append(lp.rhs, 0.0),
                    constraints=(*lp.constraints, "col[ghost]"),
                ),
                "extra constraint col[ghost]",
            ),
            (
                lambda lp: dataclasses.replace(lp, sense=lpcore.MAX),
                f"sense mismatch: {lpcore.MIN} != {lpcore.MAX}",
            ),
        ],
        ids=[
            "dropped_column", "extra_column", "bound", "objective", "relation", "rhs", "support",
            "coefficient", "dropped_row", "extra_row", "sense",
        ],
    )
    def test_structural_diff_names_each_difference(self, monkeypatch, mutate, message):
        inp = two_bus()
        explicit = dam.build_dam_paper_dual(inp, 0)
        monkeypatch.setattr(dam, "build_dam_paper_dual", lambda inp, t: mutate(explicit))
        # a dropped or extra column also changes the support of its rows
        diffs = dam.paper_dual_structural_diff(inp, 0)
        assert diffs and diffs[0].startswith(message), diffs

    def test_randomized_value_equality(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            inp = random_dam_input(rng)
            for t, lp in enumerate(dam.build_dam(inp)[0]):
                primal = lpcore.require_optimal(lp)
                explicit = lpcore.require_optimal(dam.build_dam_paper_dual(inp, t))
                assert explicit.objective == pytest.approx(
                    primal.objective, rel=1e-7, abs=1e-7
                )
