"""Fleet scheduling: cost optimum, tie-breaks, identities, dual report."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from evcsmarket import fleet as fl
from evcsmarket import lpcore
from evcsmarket import model as md
from conftest import assert_shared_phase1_matches_cold, spy_fleet_lps, two_period_fleet
from oracles import scipy_reference


def toy_input(tau, tou=20.0, driving=(0.0, 10.0), e_init=0.0):
    fleet, station = two_period_fleet(tou=tou, driving=driving, e_init=e_init)
    return fl.FleetInput((fleet,), (station,), 2, {"c1": tuple(tau)})


def random_fleet_input(rng):
    T = int(rng.integers(2, 5))
    eta_ch = float(rng.uniform(0.85, 1.0))
    eta_dc = float(rng.uniform(0.85, 1.0))
    driving = tuple(float(rng.uniform(0, 4)) for _ in range(T))
    need = sum(driving) / eta_dc
    e_max = need + float(rng.uniform(5, 20))
    fleet = md.EVFleet(
        id="f1",
        bus="b1",
        max_charge=float(rng.uniform(6, 12)),
        home_cap=float(rng.uniform(4, 8)),
        home_connectivity=tuple(float(rng.integers(0, 2)) for _ in range(T)),
        station_caps={"c1": float(rng.uniform(4, 9))},
        station_connectivity={"c1": tuple(float(rng.integers(0, 2)) for _ in range(T))},
        energy_min=0.0,
        energy_max=e_max,
        initial_energy=float(rng.uniform(need, e_max)),
        charge_efficiency=eta_ch,
        discharge_efficiency=eta_dc,
        driving=driving,
        tou=tuple(float(rng.uniform(15, 45)) for _ in range(T)),
    )
    station = md.ChargingStation(
        "c1",
        "f1",
        (0.0,) * T,
        (60.0,) * T,
        (md.WtpSegment(5.0, (0.0,) * T, (50.0,) * T), md.WtpSegment(5.0, (0.0,) * T, (45.0,) * T)),
    )
    offers = {"c1": tuple(float(rng.uniform(5, 55)) for _ in range(T))}
    return fl.FleetInput((fleet,), (station,), T, offers)


class TestSolve:
    def test_cheapest_station_hour_wins(self):
        # strategies: station hour 0 costs 300, home costs 200, station hour 1 costs 100
        sched = fl.solve_fleet(toy_input((30.0, 10.0)))
        assert sched.cost == pytest.approx(100.0, abs=1e-6)
        assert sched.station["f1"]["c1"] == pytest.approx((0.0, 10.0), abs=1e-9)
        assert sched.home["f1"] == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_price_rise_flips_to_home(self):
        sched = fl.solve_fleet(toy_input((30.0, 50.0)))
        assert sched.cost == pytest.approx(200.0, abs=1e-6)
        assert sched.station_energy() == pytest.approx(0.0, abs=1e-9)
        assert sum(sched.home["f1"]) == pytest.approx(10.0, abs=1e-9)

    def test_no_station_access_forces_home(self):
        fleet, station = two_period_fleet()
        fleet = dataclasses.replace(fleet, station_connectivity={"c1": (0.0, 0.0)})
        inp = fl.FleetInput((fleet,), (station,), 2, {"c1": (5.0, 5.0)})
        sched = fl.solve_fleet(inp)
        assert sched.station_energy() == pytest.approx(0.0, abs=1e-12)
        assert sched.cost == pytest.approx(sum(sched.home["f1"]) * 20.0, abs=1e-9)

    def test_tie_prefers_station(self):
        sched = fl.solve_fleet(toy_input((20.0, 20.0)))  # offer == retail rate
        assert sched.cost == pytest.approx(200.0, abs=1e-6)
        assert sched.station_energy() == pytest.approx(10.0, abs=1e-6)
        assert sum(sched.home["f1"]) == pytest.approx(0.0, abs=1e-6)

    def test_tie_break_disabled_keeps_cost(self):
        inp = toy_input((20.0, 20.0))
        untied = lpcore.require_optimal(fl.build_fleet(inp, inp.fleets[0])[0]).objective
        assert untied == pytest.approx(200.0, abs=1e-6)
        assert fl.solve_fleet(inp).cost == pytest.approx(untied, abs=1e-6)

    def test_nothing_needed_zero_schedule(self):
        fleet, station = two_period_fleet(driving=(0.0, 0.0))
        fleet = dataclasses.replace(fleet, energy_max=0.0, initial_energy=0.0)
        inp = fl.FleetInput((fleet,), (station,), 2, {"c1": (30.0, 10.0)})
        sched = fl.solve_fleet(inp)
        assert sched.cost == pytest.approx(0.0, abs=1e-12)
        assert sched.total["f1"] == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_infeasible_names_first_period(self):
        inp = toy_input((30.0, 10.0), driving=(0.0, 50.0))
        with pytest.raises(fl.FleetInfeasibleError) as err:
            fl.solve_fleet(inp)
        assert err.value.period == 1
        assert err.value.fleet_id == "f1"

    def test_final_energy_requirement_forces_charging(self):
        fleet, station = two_period_fleet(driving=(0.0, 0.0), e_init=5.0)
        fleet = dataclasses.replace(fleet, final_energy_min=12.0)
        inp = fl.FleetInput((fleet,), (station,), 2, {"c1": (10.0, 12.0)})
        sched = fl.solve_fleet(inp)
        assert sched.energy["f1"][-1] >= 12.0 - 1e-9
        assert sched.cost == pytest.approx(70.0, abs=1e-6)  # 7 MWh at the cheap hour

    def test_post_check_rejects_a_schedule_off_its_lp(self, monkeypatch):
        above_width(monkeypatch)
        with pytest.raises(fl.FleetStructureError, match="fleet f1: schedule violates"):
            fl.solve_fleet(toy_input((10.0, 30.0)))


def two_fleet_input(tau1, tau2):
    """The toy fleet f1 at station c1 and a copy of it, f2, at station c2."""
    f1, c1 = two_period_fleet()
    f2 = dataclasses.replace(
        f1, id="f2", station_caps={"c2": 10.0}, station_connectivity={"c2": (1.0, 1.0)}
    )
    c2 = dataclasses.replace(c1, id="c2", fleet_id="f2")
    return fl.FleetInput((f1, f2), (c1, c2), 2, {"c1": tuple(tau1), "c2": tuple(tau2)})


def counting_solves(monkeypatch):
    """Record the first column label of every LP `lpcore.require_optimal`
    solves from now on; returns the list it appends to."""
    real_require_optimal = lpcore.require_optimal
    solved = []

    def counted(lp, **kwargs):
        solved.append(lp.variables[0])
        return real_require_optimal(lp, **kwargs)

    monkeypatch.setattr(lpcore, "require_optimal", counted)
    return solved


def above_width(monkeypatch):
    """Make every solve return a point 100 MWh above segment 0's width at
    period 0, which the post-check must reject."""
    real_require_optimal = lpcore.require_optimal

    def shifted(lp, **kwargs):
        sol = real_require_optimal(lp, **kwargs)
        sol.primal[lp.variables.index("segment[f1,c1,0,0]")] += 100.0
        return sol

    monkeypatch.setattr(lpcore, "require_optimal", shifted)


class TestMemo:
    def test_unchanged_fleet_hits(self, monkeypatch):
        memo = {}
        fl.solve_fleet(two_fleet_input((30.0, 10.0), (30.0, 10.0)), memo=memo)
        solved = counting_solves(monkeypatch)
        inp = two_fleet_input((30.0, 50.0), (30.0, 10.0))  # only f1's offers move
        hit = fl.solve_fleet(inp, memo=memo)
        assert solved == ["total[f1,0]"]  # home is cheaper now: a new basis
        cold = fl.solve_fleet(inp)
        assert hit == cold
        assert hit.station["f2"] == cold.station["f2"] and hit.home["f2"] == cold.home["f2"]
        assert set(memo) == {"f1", "f2"}
        assert set(memo["f1"].results) == {((30.0, 10.0),), ((30.0, 50.0),)}
        assert set(memo["f2"].results) == {((30.0, 10.0),)}
        assert len(memo["f1"].bases) == 2 and len(memo["f2"].bases) == 1
        solved.clear()
        assert fl.solve_fleet(inp, memo=memo) == cold
        assert solved == []

    def test_failed_post_check_stores_nothing(self, monkeypatch):
        above_width(monkeypatch)
        memo = {}
        with pytest.raises(fl.FleetStructureError, match="fleet f1"):
            fl.solve_fleet(toy_input((10.0, 30.0)), memo=memo)
        assert memo == {}

    def test_failed_post_check_stores_no_schedule_and_no_basis(self, monkeypatch):
        memo = {}
        fl.solve_fleet(toy_input((30.0, 10.0)), memo=memo)
        fleet_lp = memo["f1"]
        results, series = dict(fleet_lp.results), dict(fleet_lp.series)
        bases = list(fleet_lp.bases)
        above_width(monkeypatch)
        with pytest.raises(fl.FleetStructureError, match="fleet f1"):
            fl.solve_fleet(toy_input((10.0, 30.0)), memo=memo)  # outside the stored region
        assert memo == {"f1": fleet_lp}
        assert fleet_lp.results == results and fleet_lp.series == series
        assert fleet_lp.bases == bases

    def test_strictly_optimal_basis_answers_without_a_solve(self, monkeypatch):
        memo = {}
        fl.solve_fleet(toy_input((30.0, 10.0)), memo=memo)
        (basis,) = memo["f1"].bases
        calls = []
        real_solve = lpcore.solve
        monkeypatch.setattr(
            lpcore, "solve", lambda lp, **kw: calls.append(lp) or real_solve(lp, **kw)
        )
        inp = toy_input((31.5, 12.25))  # station hour 1 is still strictly cheapest
        hit = fl.solve_fleet(inp, memo=memo)
        assert calls == []
        assert memo["f1"].bases == [basis]
        monkeypatch.setattr(lpcore, "solve", real_solve)
        assert hit == fl.solve_fleet(inp)

    def test_region_answer_reuses_the_stored_series(self, monkeypatch):
        memo = {}
        first = fl.solve_fleet(toy_input((30.0, 10.0)), memo=memo)
        fleet_lp = memo["f1"]
        (basis,) = fleet_lp.bases
        assert fleet_lp.series == {basis.key: (
            first.total["f1"], first.home["f1"], first.station["f1"],
            first.segments["f1"], first.energy["f1"],
        )}
        solved = counting_solves(monkeypatch)
        inp = toy_input((31.5, 12.25))
        hit = fl.solve_fleet(inp, memo=memo)
        assert solved == []
        stored = fleet_lp.series[basis.key]
        assert hit.total["f1"] is stored[0] and hit.segments["f1"] is stored[3]
        # only the cost moves with the offers
        monkeypatch.undo()
        assert repr(hit) == repr(fl.solve_fleet(inp))
        assert hit.fleet_costs["f1"] != first.fleet_costs["f1"]

    def test_infeasibility_is_diagnosed_once_per_fleet(self, monkeypatch):
        diagnosed = []
        real = fl.fleet_infeasibility_period

        def counted(fleet, horizon):
            diagnosed.append(fleet.id)
            return real(fleet, horizon)

        monkeypatch.setattr(fl, "fleet_infeasibility_period", counted)
        memo = {}
        for tau in ((30.0, 10.0), (30.0, 50.0), (10.0, 30.0)):
            fl.solve_fleet(two_fleet_input(tau, (30.0, 10.0)), memo=memo)
        assert diagnosed == ["f1", "f2"]
        fl.solve_fleet(two_fleet_input((30.0, 10.0), (30.0, 10.0)))
        assert diagnosed == ["f1", "f2", "f1", "f2"]  # no memo: every call

    def test_memo_less_call_keeps_no_answered_fleet_lp(self, monkeypatch):
        refs, alive, alive_at_answer = spy_fleet_lps(monkeypatch)
        fl.solve_fleet(two_fleet_input((30.0, 10.0), (30.0, 10.0)))
        assert alive_at_answer == [0, 0] and alive() == 0
        memo = {}  # a memo keeps each fleet it answered
        fl.solve_fleet(two_fleet_input((30.0, 10.0), (30.0, 10.0)), memo=memo)
        assert alive_at_answer == [0, 0, 0, 1]
        assert [r() for r in refs[2:]] == [memo["f1"], memo["f2"]]

    def test_recosted_lp_shares_the_built_arrays(self):
        inp = toy_input((30.0, 10.0))
        fleet_lp = fl._FleetLp(*fl.build_fleet(inp, inp.fleets[0]))
        lp = fleet_lp.costed(np.array([31.0, 12.0]))
        assert lp is not fleet_lp.lp
        for attr in ("lower", "upper", "matrix", "relations", "rhs"):
            assert getattr(lp, attr) is getattr(fleet_lp.lp, attr), attr
        assert lp.objective[fleet_lp.station_columns].tolist() == [31.0, 12.0]

    def test_tie_is_solved_cold(self, monkeypatch):
        memo = {}
        fl.solve_fleet(toy_input((30.0, 10.0)), memo=memo)
        solved = counting_solves(monkeypatch)
        inp = toy_input((30.0, 20.0 + fl.TIE_BREAK_EPS))  # station hour 1 ties with home
        assert fl.solve_fleet(inp, memo=memo) == fl.solve_fleet(inp)
        assert solved == ["total[f1,0]", "total[f1,0]"]


def assert_region_answers_match_cold(inputs) -> int:
    """Solve `inputs`, FleetInputs of one fleet set at varying offers, in
    turn with one memo.  Each fleet's series and cost must equal, bit for
    bit, `_series_from_solution` and `_cost` of a cold solve of its LP at
    those offers.  Returns how many fleets a stored basis answered without
    a solve."""
    memo = {}
    answered = 0
    for inp in inputs:
        fresh = [
            f for f in inp.fleets
            if f.id not in memo
            or tuple(inp.offers[s.id] for s in fl._fleet_stations(inp, f))
            not in memo[f.id].results
        ]
        with pytest.MonkeyPatch.context() as mp:
            solved = counting_solves(mp)
            sched = fl.solve_fleet(inp, memo=memo)
        answered += len(fresh) - len(solved)
        for f in inp.fleets:
            lp, cols = fl.build_fleet(inp, f, home_price_bump=fl.TIE_BREAK_EPS)
            series = fl._series_from_solution(inp, f, lpcore.require_optimal(lp).primal, cols)
            cold = (*series, fl._cost(inp, f, series, cols))
            got = (
                sched.total[f.id], sched.home[f.id], sched.station[f.id],
                sched.segments[f.id], sched.energy[f.id], sched.fleet_costs[f.id],
            )
            assert repr(got) == repr(cold), (f.id, inp.offers)
    return answered


def nudged(inp, deltas):
    """`inp` at its offers plus each delta in turn, clipped into the bands."""
    out = [inp]
    for delta in deltas:
        offers = {
            s.id: tuple(
                min(max(tau + delta, s.offer_min[t]), s.offer_max[t])
                for t, tau in enumerate(inp.offers[s.id])
            )
            for s in inp.stations
        }
        out.append(dataclasses.replace(inp, offers=offers))
    return out


class TestRegionAnswersMatchColdPath:
    def test_criterion_5_instances(self, bilevel_instances):
        answered = 0
        for scenario, _, grid, searched in bilevel_instances:
            grid_inp = fl.fleet_input(scenario, grid.offers)
            searched_inp = fl.fleet_input(scenario, searched.offers)
            inputs = nudged(grid_inp, (0.5, -0.5)) + nudged(searched_inp, (0.25, -0.25))
            answered += assert_region_answers_match_cold(inputs)
        assert answered >= 25  # 31 of the 80 fleets not found under their offers

    def test_criterion_4_fleet_inputs(self):
        # two zero-cost bid segments share each station column, so these
        # optima leave the segment split free (dual-degenerate): they test
        # that no stored basis answers where the optimum is not unique
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(30):
            inp = random_fleet_input(rng)
            if md.fleet_infeasibility_period(inp.fleets[0], inp.horizon) is not None:
                continue
            assert_region_answers_match_cold(nudged(inp, (1.0, -1.0, 0.5, -2.0)))
            checked += 1
        assert checked >= 20

    def test_desk(self, desk, desk_baseline):
        # every desk optimum is dual-degenerate (home hours tie), so no
        # stored basis may answer: each input is solved cold
        inp = fl.fleet_input(desk, desk_baseline.outcome.offers)
        assert assert_region_answers_match_cold(nudged(inp, (1.0, -1.0))) == 0


@settings(max_examples=30)
@given(
    offers=st.lists(
        st.tuples(*[st.one_of(st.sampled_from((10.0, 20.0, 30.0)), st.floats(0.0, 60.0))] * 4),
        min_size=2,
        max_size=6,
    )
)
def test_property_region_answers_match_cold(offers):
    inputs = [two_fleet_input((a, b), (c, d)) for a, b, c, d in offers]
    assert_region_answers_match_cold(inputs)


def recosted_fleet_lps(inputs):
    """Per fleet, its tie-break LP built once from the first of `inputs`
    and re-costed at the offers of each input, as `solve_fleet` re-costs
    it within one search."""
    first = inputs[0]
    for f in first.fleets:
        fleet_lp = fl._FleetLp(*fl.build_fleet(first, f, home_price_bump=fl.TIE_BREAK_EPS))
        stations = fleet_lp.cols.stations
        yield [
            fleet_lp.costed(np.array([tau for cid in stations for tau in inp.offers[cid]]))
            for inp in inputs
        ]


def assert_shared_fleet_phase1_matches_cold(inputs) -> int:
    return sum(assert_shared_phase1_matches_cold(lps) for lps in recosted_fleet_lps(inputs))


class TestSharedPhase1MatchesColdPath:
    def test_criterion_5_instances(self, bilevel_instances):
        saved = 0
        for scenario, _, grid, searched in bilevel_instances:
            inputs = nudged(fl.fleet_input(scenario, grid.offers), (0.5, -0.5)) + nudged(
                fl.fleet_input(scenario, searched.offers), (0.25, -0.25)
            )
            saved += assert_shared_fleet_phase1_matches_cold(inputs)
        assert saved > 0

    def test_criterion_4_fleet_inputs(self):
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(30):
            inp = random_fleet_input(rng)
            if md.fleet_infeasibility_period(inp.fleets[0], inp.horizon) is not None:
                continue
            assert_shared_fleet_phase1_matches_cold(nudged(inp, (1.0, -1.0, 0.5, -2.0)))
            checked += 1
        assert checked >= 20

    def test_desk(self, desk, desk_baseline):
        inp = fl.fleet_input(desk, desk_baseline.outcome.offers)
        assert assert_shared_fleet_phase1_matches_cold(nudged(inp, (1.0, -1.0))) > 0

    def test_search_solves_share_phase_1(self, monkeypatch):
        # three offers that each need a solve: only the first runs phase 1
        phases = []
        real_solve = lpcore.solve

        def recorded(lp, **kwargs):
            sol = real_solve(lp, **kwargs)
            phases.append((kwargs.get("phase1") is not None, sol.phase1_iterations))
            return sol

        monkeypatch.setattr(lpcore, "solve", recorded)
        memo = {}
        for tau in ((30.0, 10.0), (30.0, 20.0 + fl.TIE_BREAK_EPS), (10.0, 30.0)):
            fl.solve_fleet(toy_input(tau), memo=memo)
        assert phases[0][0] and phases[0][1] > 0
        assert phases[1:] == [(True, 0), (True, 0)]
        first = phases[0]
        phases.clear()
        fl.solve_fleet(toy_input((10.0, 30.0)))
        assert phases == [first]  # no memo: an empty one, whose state phase 1 fills


@settings(max_examples=30)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    costs=st.lists(
        st.lists(st.floats(0.0, 60.0), min_size=4, max_size=4), min_size=2, max_size=5
    ),
)
def test_property_shared_phase1_matches_cold(seed, costs):
    """One fleet LP re-costed at random station costs."""
    inp = random_fleet_input(np.random.default_rng(seed))
    assume(md.fleet_infeasibility_period(inp.fleets[0], inp.horizon) is None)
    fleet_lp = fl._FleetLp(*fl.build_fleet(inp, inp.fleets[0], home_price_bump=fl.TIE_BREAK_EPS))
    lps = [fleet_lp.costed(np.array(c[: inp.horizon])) for c in costs]
    assert_shared_phase1_matches_cold(lps)


def assert_one_solve_matches_cold_path(inp):
    """`solve_fleet` solves each fleet LP once, with the tie-break
    surcharge.  Against a cold solve of the unsurcharged LP of each fleet:
    the cost is within 1e-7 relative of its optimum and within 1e-6 of
    HiGHS on it, and the surcharge never adds home charging."""
    sched = fl.solve_fleet(inp)
    for f in inp.fleets:
        lp, cols = fl.build_fleet(inp, f)
        cold = lpcore.require_optimal(lp)
        cost = sched.fleet_costs[f.id]
        assert abs(cost - cold.objective) <= 1e-7 * max(1.0, abs(cold.objective))
        status, ref = scipy_reference(lp)
        assert status == "optimal"
        assert abs(cost - ref) <= 1e-6 * max(1.0, abs(ref))
        cold_home = sum(cold.primal[cols.home].tolist())
        assert sum(sched.home[f.id]) <= cold_home + 1e-6


class TestOneSolveMatchesColdPath:
    def test_offer_ties(self):
        for tau in ((20.0, 20.0), (20.0, 10.0), (30.0, 20.0)):
            assert_one_solve_matches_cold_path(toy_input(tau))

    def test_criterion_5_instances(self, bilevel_instances):
        for scenario, _, grid, searched in bilevel_instances:
            for outcome in (grid, searched):
                assert_one_solve_matches_cold_path(fl.fleet_input(scenario, outcome.offers))


@settings(max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_one_solve_matches_cold_path(seed):
    inp = random_fleet_input(np.random.default_rng(seed))
    assume(md.fleet_infeasibility_period(inp.fleets[0], inp.horizon) is None)
    assert_one_solve_matches_cold_path(inp)


class TestStructure:
    def test_offers_must_stay_in_band(self):
        fleet, station = two_period_fleet(tau_bounds=(10.0, 40.0))
        inp = fl.FleetInput((fleet,), (station,), 2, {"c1": (45.0, 20.0)})
        with pytest.raises(fl.FleetStructureError, match="outside"):
            fl.build_fleet(inp, fleet)

    def test_offer_series_must_be_a_tuple(self):
        fleet, station = two_period_fleet()
        inp = fl.FleetInput((fleet,), (station,), 2, {"c1": [30.0, 10.0]})
        with pytest.raises(fl.FleetStructureError, match="station c1: offer series must be a tuple"):
            fl.solve_fleet(inp)
        with pytest.raises(fl.FleetStructureError, match="station c1: offer series must be a tuple"):
            fl.build_fleet(inp, fleet)

    def test_missing_offer_rejected(self):
        fleet, station = two_period_fleet()
        with pytest.raises(fl.FleetStructureError, match="no offer price"):
            fl.build_fleet(fl.FleetInput((fleet,), (station,), 2, {}), fleet)

    @pytest.mark.parametrize(
        "change, offer, message",
        [
            (lambda f, s: (dataclasses.replace(f, station_caps={"ghost": 5.0}), s), (30.0, 10.0),
             "fleets[0].station_caps[ghost]: unknown station id"),
            (lambda f, s: (dataclasses.replace(f, tou=(20.0,)), s), (30.0, 10.0),
             "fleets[0].tou: series length 1 != horizon 2"),
            (lambda f, s: (f, dataclasses.replace(s, offer_min=(0.0,))), (30.0, 10.0),
             "stations[0].offer_min: series length 1 != horizon 2"),
            (lambda f, s: (f, s), (30.0,), "station c1: offer series length != horizon"),
        ],
        ids=["unknown_station", "series_length", "offer_bound_length", "offer_length"],
    )
    def test_input_that_does_not_fit_is_rejected(self, change, offer, message):
        fleet, station = change(*two_period_fleet())
        inp = fl.FleetInput((fleet,), (station,), 2, {"c1": offer})
        for solve in (lambda: fl.build_fleet(inp, fleet), lambda: fl.solve_fleet(inp)):
            with pytest.raises(fl.FleetStructureError, match=f"^{re.escape(message)}$"):
                solve()

    def test_identities_hold_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            inp = random_fleet_input(rng)
            try:
                sched = fl.solve_fleet(inp)
            except fl.FleetInfeasibleError:
                continue
            f = inp.fleets[0]
            for t in range(inp.horizon):
                st_sum = sum(sched.station["f1"][c][t] for c in sched.station["f1"])
                assert sched.total["f1"][t] == st_sum + sched.home["f1"][t]
                seg_sum = sum(row[t] for row in sched.segments["f1"]["c1"])
                assert sched.station["f1"]["c1"][t] == pytest.approx(seg_sum, abs=0.0)
                assert (
                    f.energy_min - 1e-6 <= sched.energy["f1"][t] <= f.energy_max + 1e-6
                )
            # recursion replayed from scratch
            e = f.initial_energy
            for t in range(inp.horizon):
                e = e - f.driving[t] / f.discharge_efficiency
                e = e + sched.total["f1"][t] * f.charge_efficiency
                assert e == sched.energy["f1"][t]

    def test_price_response_monotone(self):
        # raising one offer price never increases total station charging
        base = (22.0, 18.0)
        station_totals = []
        for tau1 in (10.0, 15.0, 20.0, 25.0, 30.0):
            sched = fl.solve_fleet(toy_input((base[0], tau1)))
            station_totals.append(sched.station_energy())
        assert all(b <= a + 1e-9 for a, b in zip(station_totals, station_totals[1:]))

    def test_cost_non_increasing_when_price_drops(self):
        hi = fl.solve_fleet(toy_input((30.0, 25.0)))
        lo = fl.solve_fleet(toy_input((30.0, 12.0)))
        assert lo.cost <= hi.cost + 1e-9


class TestDualForms:
    def test_auto_dual_matches_primal_randomized(self):
        rng = np.random.default_rng(9)
        count = 0
        for _ in range(25):
            inp = random_fleet_input(rng)
            try:
                primal = lpcore.require_optimal(fl.build_fleet(inp, inp.fleets[0])[0])
            except lpcore.LpSolveError:
                continue
            dual = lpcore.require_optimal(lpcore.dualize(fl.build_fleet(inp, inp.fleets[0])[0]))
            assert dual.objective == pytest.approx(primal.objective, rel=1e-6, abs=1e-6)
            count += 1
        assert count >= 15

    def test_literal_transcription_unbounded_with_positive_widths(self):
        inp = toy_input((30.0, 10.0))
        sol = lpcore.solve(fl.build_fleet_paper_dual(inp, inp.fleets[0], {"c1": ((50.0, 50.0),)}))
        assert sol.status == lpcore.UNBOUNDED

    def test_sign_corrected_matches_segment_billing_when_e0_zero(self):
        inp = toy_input((30.0, 10.0), e_init=0.0)
        report = fl.dual_form_report(inp, inp.fleets[0], {"c1": ((30.0, 10.0),)})
        assert report.literal_dual is None
        assert report.corrected_matches_segment
        assert not report.literal_matches_offer

    def test_report_quantifies_initial_energy_gap(self):
        inp = toy_input((30.0, 10.0), e_init=5.0)
        report = fl.dual_form_report(inp, inp.fleets[0], {"c1": ((30.0, 10.0),)})
        # transcription omits the initial-energy value: 5 MWh at the cheap
        # 10 $/MWh marginal hour
        assert report.segment_primal == pytest.approx(50.0, abs=1e-6)
        assert report.corrected_sign_dual == pytest.approx(100.0, abs=1e-6)
        assert not report.corrected_matches_segment

    def test_zero_demand_no_station_literal_dual_zero(self):
        fleet = md.EVFleet(
            id="f1", bus="b1", max_charge=5.0, home_cap=5.0,
            home_connectivity=(1.0, 1.0), station_caps={}, station_connectivity={},
            energy_min=0.0, energy_max=10.0, initial_energy=5.0,
            charge_efficiency=1.0, discharge_efficiency=1.0,
            driving=(0.0, 0.0), tou=(20.0, 20.0),
        )
        inp = fl.FleetInput((fleet,), (), 2, {})
        sol = lpcore.solve(fl.build_fleet_paper_dual(inp, fleet, {}))
        assert sol.is_optimal
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert lpcore.require_optimal(fl.build_fleet(inp, fleet)[0]).objective == pytest.approx(0.0)
