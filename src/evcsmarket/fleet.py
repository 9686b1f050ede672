"""EV fleet charging: cost-minimizing schedule against station offer prices
and the regulated retail rate, plus an explicit hand-written dual program.

The fleet problem decomposes per fleet (nothing couples two fleets once the
offer prices are data), so `solve_fleet` clears each fleet separately and
merges results by fleet id.

Tie-breaking: when a station offer equals the retail rate the cost optimum
is not unique.  Station charging is preferred: each fleet LP is solved once
with a TIE_BREAK_EPS $/MWh surcharge on home charging, and costs are
reported at the true prices.  For any true-cost optimum x*, the surcharged
optimum x_b has home(x_b) <= home(x*) and true(x_b) <= true(x*) + 1e-6 *
(home(x*) - home(x_b)): at most 1e-6 $ per MWh moved from home to a station
(Mangasarian & Meyer, SIAM J. Control Optim. 17(6), 1979).  The
certificate's `fleet_strong_duality` re-solves the true LP and is the judge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import lpcore
from .lpcore import EQ, LinearProgram, LpBuilder
from .model import ChargingStation, EVFleet, Scenario, fleet_infeasibility_period

TIE_BREAK_EPS = 1e-6
# cleared bid price by station id, bid segment and period: prices[c][m][t]
SegmentPrices = Mapping[str, Sequence[Sequence[float]]]


class FleetStructureError(ValueError):
    pass


class FleetInfeasibleError(RuntimeError):
    def __init__(self, fleet_id, period):
        super().__init__(
            f"fleet {fleet_id}: cumulative driving discharge exceeds charging "
            f"capability at period {period}"
        )
        self.fleet_id = fleet_id
        self.period = period


@dataclass(frozen=True)
class FleetInput:
    """Fleets plus the station offer prices they face.

    `offers[c]` is the per-period offer price of station c in $/MWh, a
    float tuple (as `bilevel.Strategy.offers` makes it); station energy is
    billed at it.  Like the model types, the input is stored as given;
    `solve_fleet` and `build_fleet` refuse an offer series that is not a
    tuple.
    """

    fleets: tuple[EVFleet, ...]
    stations: tuple[ChargingStation, ...]
    horizon: int
    offers: dict[str, tuple[float, ...]]

    def __post_init__(self):
        by_id: dict[str, ChargingStation] = {}
        for s in self.stations:
            by_id.setdefault(s.id, s)  # the first of a repeated id, as a scan finds
        object.__setattr__(self, "_by_id", by_id)

    def station(self, station_id: str) -> ChargingStation:
        return self._by_id[station_id]


def fleet_input(scenario: Scenario, offers) -> FleetInput:
    return FleetInput(
        fleets=scenario.fleets,
        stations=scenario.stations,
        horizon=scenario.network.horizon,
        offers=dict(offers),
    )


@dataclass(frozen=True)
class FleetSchedule:
    """Cleared charging schedule: per-fleet series plus cost bookkeeping.

    Identities hold exactly in the stored numbers: total = home + station
    sum, station = segment sum, and the energy series follows the recursion
    from the scenario's initial energy.
    """

    total: dict[str, tuple[float, ...]]
    home: dict[str, tuple[float, ...]]
    station: dict[str, dict[str, tuple[float, ...]]]
    segments: dict[str, dict[str, tuple[tuple[float, ...], ...]]]
    energy: dict[str, tuple[float, ...]]
    fleet_costs: dict[str, float]
    cost: float

    def station_energy(self, fleet_id: str | None = None) -> float:
        fleets = [fleet_id] if fleet_id else list(self.station)
        return float(
            sum(sum(series) for f in fleets for series in self.station[f].values())
        )


def _check_fleet(inp: FleetInput, f: EVFleet) -> None:
    """The checks of fleet `f`'s input that read no offer: each station it
    has a cap at exists, and its series and the offer bounds of its stations
    span the horizon."""
    for cid, _ in f.station_caps:
        if cid not in inp._by_id:
            raise FleetStructureError(f"fleet {f.id}: unknown station {cid!r}")
    if len(f.tou) != inp.horizon or len(f.driving) != inp.horizon:
        raise FleetStructureError(f"fleet {f.id}: series length != horizon")
    for s in _fleet_stations(inp, f):
        if len(s.offer_min) != inp.horizon or len(s.offer_max) != inp.horizon:
            raise FleetStructureError(f"station {s.id}: offer bound series length != horizon")


def _check_offers(inp: FleetInput, stations) -> None:
    """The checks an offer can fail, for each of `stations`: it has an
    offer, a tuple over the horizon, within its band at every period."""
    for s in stations:
        tau = inp.offers.get(s.id)
        if tau is None:
            raise FleetStructureError(f"station {s.id}: no offer price provided")
        if not isinstance(tau, tuple):
            raise FleetStructureError(f"station {s.id}: offer series must be a tuple, got {tau!r}")
        if len(tau) != inp.horizon:
            raise FleetStructureError(f"station {s.id}: offer series length != horizon")
        for t, (lo, x, up) in enumerate(zip(s.offer_min, tau, s.offer_max)):
            if not (lo - 1e-9 <= x <= up + 1e-9):
                raise FleetStructureError(
                    f"station {s.id}: offer {x} outside [{lo}, {up}] at period {t}"
                )


def _fleet_stations(inp: FleetInput, fleet: EVFleet) -> list[ChargingStation]:
    """The stations of `fleet` it has a cap at, in cap order."""
    stations = (inp.station(cid) for cid, _ in fleet.station_caps)
    return [s for s in stations if s.fleet_id == fleet.id]


@dataclass(frozen=True)
class FleetColumns:
    """Where `build_fleet` placed its fleet's columns, each list indexed by
    period: `station[k]` and `segment[k][m]` belong to the fleet's k-th
    station (in `_fleet_stations` order), whose id is `stations[k]`, and
    that station's m-th bid segment."""

    total: list[int]
    home: list[int]
    station: tuple[list[int], ...]
    segment: tuple[tuple[list[int], ...], ...]
    energy: list[int]
    stations: tuple[str, ...]


def build_fleet(
    inp: FleetInput, fleet: EVFleet, *, home_price_bump: float = 0.0
) -> tuple[LinearProgram, FleetColumns]:
    """Cost-minimization LP of one fleet over {total, home, station,
    segment, energy}, and the `FleetColumns` of its columns.

    Home energy is priced at the retail rate plus `home_price_bump`, the
    tie-break surcharge (builders for certificates use 0); station energy
    at the offer price; bid segments carry no cost.  Only the input this
    LP reads is checked: `fleet` and the offers of its stations.
    """
    _check_fleet(inp, fleet)
    lp = LpBuilder(lpcore.MIN, name="fleet")
    T = inp.horizon
    f = fleet
    stations = _fleet_stations(inp, f)
    _check_offers(inp, stations)
    total, home, energy = [], [], []
    station = [[] for _ in stations]
    segment = [[[] for _ in s.segments] for s in stations]
    for t in range(T):
        total.append(lp.add_variable(f"total[{f.id},{t}]", 0.0, f.max_charge))
        home.append(lp.add_variable(
            f"home[{f.id},{t}]",
            0.0,
            f.home_connectivity[t] * f.home_cap,
            objective=f.tou[t] + home_price_bump,
        ))
        for k, s in enumerate(stations):
            station[k].append(lp.add_variable(
                f"station[{f.id},{s.id},{t}]",
                0.0,
                f.station_conn(s.id)[t] * f.station_cap(s.id),
                objective=inp.offers[s.id][t],
            ))
            for m, seg in enumerate(s.segments):
                segment[k][m].append(
                    lp.add_variable(f"segment[{f.id},{s.id},{m},{t}]", 0.0, seg.width)
                )
        final_floor = f.energy_min
        if t == T - 1 and f.final_energy_min is not None:
            final_floor = max(f.energy_min, f.final_energy_min)
        energy.append(lp.add_variable(f"energy[{f.id},{t}]", final_floor, f.energy_max))

    for t in range(T):
        coeffs = {total[t]: 1.0, home[t]: -1.0}
        for cols in station:
            coeffs[cols[t]] = -1.0
        lp.add_constraint(f"split[{f.id},{t}]", coeffs, EQ, 0.0)
        for s, cols, seg_cols in zip(stations, station, segment):
            scoeffs = {cols[t]: 1.0}
            for m_cols in seg_cols:
                scoeffs[m_cols[t]] = -1.0
            lp.add_constraint(f"station_split[{f.id},{s.id},{t}]", scoeffs, EQ, 0.0)
        coeffs = {energy[t]: 1.0, total[t]: -f.charge_efficiency}
        rhs = -f.driving[t] / f.discharge_efficiency
        if t > 0:
            coeffs[energy[t - 1]] = -1.0
        else:
            rhs += f.initial_energy
        lp.add_constraint(f"energy_balance[{f.id},{t}]", coeffs, EQ, rhs)

    return lp.build(), FleetColumns(
        total, home, tuple(station), tuple(map(tuple, segment)), energy,
        tuple(s.id for s in stations),
    )


def _series_from_solution(inp: FleetInput, f: EVFleet, values, cols: FleetColumns):
    """One fleet's series (total, home, station, segments, energy) from the
    primal values of its LP at `cols`; no offer enters them."""
    T = inp.horizon
    home = tuple(values[cols.home].tolist())
    station = {}
    segments = {}
    for cid, seg_cols in zip(cols.stations, cols.segment):
        segments[cid] = tuple(tuple(values[m_cols].tolist()) for m_cols in seg_cols)
        station[cid] = tuple(
            sum(segments[cid][m][t] for m in range(len(seg_cols))) for t in range(T)
        )
    total = tuple(home[t] + sum(station[cid][t] for cid in cols.stations) for t in range(T))
    e = f.initial_energy
    energy = []
    for t in range(T):
        e = e - f.driving[t] / f.discharge_efficiency + total[t] * f.charge_efficiency
        energy.append(e)
    return total, home, station, segments, tuple(energy)


def _cost(inp: FleetInput, f: EVFleet, series, cols: FleetColumns) -> float:
    """A fleet's cost at the true prices of `inp` for its `series` (as
    `_series_from_solution` returns them): home energy, then each station's."""
    T = inp.horizon
    _, home, station, _, _ = series
    cost = sum(home[t] * f.tou[t] for t in range(T))
    for cid in cols.stations:
        cost += sum(station[cid][t] * inp.offers[cid][t] for t in range(T))
    return float(cost)


@dataclass
class _FleetLp:
    """One fleet's LP within one search, built once, and what its answers
    left: `results`, its series and cost by the offers of its stations (in
    `_fleet_stations` order) it was answered at; `bases`, the distinct
    optimal bases its solves have ended in, most recent hit first;
    `series`, the schedule series at each basis's point by basis key; and
    `phase1`, the state its first solve's phase 1 left, which every later
    solve starts phase 2 from.  `station_columns` are its station energy
    columns, station by station and period by period."""

    lp: LinearProgram
    cols: FleetColumns
    results: dict[tuple, tuple] = field(default_factory=dict)
    bases: list[lpcore.BasisRegion] = field(default_factory=list)
    series: dict[tuple, tuple] = field(default_factory=dict)
    phase1: lpcore.Phase1State = field(default_factory=lpcore.Phase1State)
    station_columns: np.ndarray = field(init=False)

    def __post_init__(self):
        self.station_columns = np.array([j for c in self.cols.station for j in c], dtype=int)

    def costed(self, costs: np.ndarray) -> LinearProgram:
        """The LP with its station columns billed at `costs`; offers move
        no row or bound, so every other array is shared."""
        if np.array_equal(self.lp.objective[self.station_columns], costs):
            return self.lp
        objective = self.lp.objective.copy()
        objective[self.station_columns] = costs
        return self.lp.with_arrays(objective=objective)

    def stored_optimum(self, costs: np.ndarray) -> lpcore.BasisRegion | None:
        """The first stored basis whose point is the unique optimum at
        `costs`, or None."""
        return next((b for b in self.bases if b.point_at(costs) is not None), None)

    def basis_of(self, lp: LinearProgram, sol: lpcore.LpSolution) -> lpcore.BasisRegion | None:
        """The stored basis `sol` ended in, or a new one made ready for
        re-pricing (None if it never can be a unique optimum)."""
        key = lpcore.basis_key(sol)
        stored = next((b for b in self.bases if b.key == key), None)
        return stored or lpcore.basis_region(lp, sol, self.station_columns)

    def answer(self, inp: FleetInput, f: EVFleet) -> tuple:
        """Fleet `f`'s series (as `_series_from_solution` returns them) and
        cost at the offers of `inp`, kept in `results`; see `solve_fleet`.
        Raises FleetStructureError, keeping nothing, when a solve's schedule
        fails the post-check."""
        offers = tuple(inp.offers[cid] for cid in self.cols.stations)
        result = self.results.get(offers)
        if result is not None:
            return result
        costs = np.array([tau for series in offers for tau in series])
        basis = self.stored_optimum(costs)
        if basis is not None:
            series = self.series[basis.key]
        else:
            lp = self.costed(costs)
            sol = lpcore.require_optimal(lp, phase1=self.phase1)
            series = _series_from_solution(inp, f, sol.primal, self.cols)
            violation = lpcore.max_violation(lp, _column_values(lp, self.cols, series))
            if violation > lpcore.FEAS_TOL * 100.0:
                raise FleetStructureError(
                    f"fleet {f.id}: schedule violates its LP by {violation:.3e}"
                )
            basis = self.basis_of(lp, sol)
            if basis is not None:
                self.series.setdefault(basis.key, series)
        if basis is not None:
            self.bases[:] = [basis] + [b for b in self.bases if b is not basis]
        result = self.results[offers] = (*series, _cost(inp, f, series, self.cols))
        return result


def solve_fleet(inp: FleetInput, *, memo: dict | None = None) -> FleetSchedule:
    """Clear every fleet; returns the merged schedule.

    Infeasible fleets are diagnosed before solving (first period whose
    cumulative driving cannot be recovered).  Each fleet's LP is solved
    once, with the surcharge that breaks ties toward station charging (see
    the module docstring); reported costs are at the true prices.  Each
    fleet's schedule is checked against that LP (`lpcore.max_violation`;
    the surcharge moves no row or bound), raising FleetStructureError above
    100 * FEAS_TOL.

    `memo` maps fleet id to the fleet's `_FleetLp` and belongs to one
    scenario (one search).  A fleet's offers, the only inputs of its LP
    that change within one scenario, key its results there, and a result
    found under its offers is reused as it is.  Otherwise each stored basis
    is re-priced at the new offers (`lpcore.BasisRegion.point_at`), most
    recent hit first.  The first whose point is the LP's unique optimum
    answers, with no solve: a solve would end at that point, and since
    offers move no row or bound, the point passed the post-check when its
    basis was stored.  Its schedule series, kept with it, are reused, and
    only the cost is computed at the new offers.  Only when no stored basis
    qualifies (at ties, or at offers no basis covers yet) is the stored LP
    re-costed and solved, and its basis kept unless an equal one is.  These
    solves share the `_FleetLp`'s `lpcore.Phase1State`: the first one runs
    phase 1, which reads no offer, and every later one starts phase 2 where
    it ended, so each returns the cold solve's bits.  A fleet is solved,
    post-checked and stored in one step: results and bases are written only
    after its post-check, and a new `_FleetLp` enters the memo only then
    (the phase-1 state depends on no offer, so a solve keeps it whatever
    the post-check finds).  A fleet in the memo passed the checks that read
    no offer (`_check_fleet`) and the infeasibility diagnosis, and neither
    runs for it again; every call checks the offers (`_check_offers`).

    Without a memo every fleet takes the same steps on a new `_FleetLp`,
    which is dropped once the fleet is answered: a one-shot call keeps no
    LP, phase-1 state or basis.
    """
    known = {} if memo is None else memo
    _check_offers(inp, inp.stations)
    for f in inp.fleets:
        if f.id not in known:
            _check_fleet(inp, f)
            t_bad = fleet_infeasibility_period(f, inp.horizon)
            if t_bad is not None:
                raise FleetInfeasibleError(f.id, t_bad)

    results = {}
    for f in sorted(inp.fleets, key=lambda f: f.id):
        fleet_lp = known.get(f.id) or _FleetLp(*build_fleet(inp, f, home_price_bump=TIE_BREAK_EPS))
        results[f.id] = fleet_lp.answer(inp, f)
        if memo is not None:
            memo[f.id] = fleet_lp
    total, home, station, segments, energy, fleet_costs = (
        {fid: result[k] for fid, result in results.items()} for k in range(6)
    )
    return FleetSchedule(
        total=total,
        home=home,
        station=station,
        segments=segments,
        energy=energy,
        fleet_costs=fleet_costs,
        cost=float(sum(fleet_costs.values())),
    )


def schedule_values(
    sched: FleetSchedule, fleet: EVFleet, lp: LinearProgram, cols: FleetColumns
) -> np.ndarray:
    """A schedule's series for one fleet as one value per column of `lp`,
    the LP that `build_fleet(inp, fleet)` returned with `cols`."""
    fid = fleet.id
    series = (sched.total, sched.home, sched.station, sched.segments, sched.energy)
    return _column_values(lp, cols, tuple(family[fid] for family in series))


def _column_values(lp: LinearProgram, cols: FleetColumns, series) -> np.ndarray:
    """One fleet's `series` (total, home, station, segments, energy, as
    `_series_from_solution` returns them) as one value per column of `lp`,
    placed by `cols`."""
    total, home, station, segments, energy = series
    values = [0.0] * len(lp.variables)
    placed = [(cols.total, total), (cols.home, home)]
    for cid, s_cols, seg_cols in zip(cols.stations, cols.station, cols.segment):
        placed.append((s_cols, station[cid]))
        placed.extend(zip(seg_cols, segments[cid]))
    placed.append((cols.energy, energy))
    for series_cols, values_of in placed:
        for j, v in zip(series_cols, values_of):
            values[j] = v
    return np.array(values)


# ---------------------------------------------------------------------------
# explicit dual (literal transcription, known-imperfect; see dual_form_report)
# ---------------------------------------------------------------------------


def build_fleet_paper_dual(
    inp: FleetInput,
    fleet: EVFleet,
    segment_prices: SegmentPrices,
    *,
    corrected_segment_sign: bool = False,
) -> LinearProgram:
    """Literal transcription of the published dual of one fleet's program.

    Kept exactly as printed, including its quirks: the segment stationarity
    row carries the cleared bid price on the rhs even though the primal
    objective has no such term, the segment-cap term enters the objective
    with a positive sign (which makes the program unbounded whenever any
    segment has positive width: the paired segment bound prices can grow
    together), and the initial-energy constant is absent.  Its optimal value
    therefore need not equal the primal optimum; see `dual_form_report`,
    which quantifies the gaps next to the automatic dual.

    `segment_prices[c][m][t]` supplies the cleared bid prices entering the
    segment stationarity rows, for every station c of the fleet.  With
    `corrected_segment_sign` the one sign that breaks boundedness is
    repaired and everything else stays as printed.
    """
    _check_fleet(inp, fleet)
    _check_offers(inp, _fleet_stations(inp, fleet))
    name = "fleet_dual_corrected_sign" if corrected_segment_sign else "fleet_dual_literal"
    lp = LpBuilder(lpcore.MAX, name=name)
    T = inp.horizon
    POS = (0.0, lpcore.INF)
    FREE = (-lpcore.INF, lpcore.INF)
    seg_sign = -1.0 if corrected_segment_sign else 1.0

    f = fleet
    stations = _fleet_stations(inp, f)
    col = {}  # (family, *indices) -> column labelled family[fleet,*indices]

    def var(family, *key, objective=0.0, bounds=POS):
        label = ",".join(map(str, (f.id, *key)))
        col[(family, *key)] = lp.add_variable(f"{family}[{label}]", *bounds, objective=objective)

    for t in range(T):
        var("rate_lo", t)
        var("rate_up", t, objective=-f.max_charge)
        var("home_lo", t)
        var("home_up", t, objective=-f.home_connectivity[t] * f.home_cap)
        for s in stations:
            var("st_lo", s.id, t)
            var("st_up", s.id, t, objective=-f.station_conn(s.id)[t] * f.station_cap(s.id))
            for m, seg in enumerate(s.segments):
                var("seg_lo", s.id, m, t)
                # positive sign as printed; the exact dual carries -width
                var("seg_up", s.id, m, t, objective=seg_sign * seg.width)
        var("en_lo", t, objective=f.energy_min)
        var("en_up", t, objective=-f.energy_max)
        var("price_split", t, bounds=FREE)
        for s in stations:
            var("price_station", s.id, t, bounds=FREE)
        var("price_energy", t, objective=-f.driving[t] / f.discharge_efficiency, bounds=FREE)

    for t in range(T):
        lp.add_constraint(
            f"col[total[{f.id},{t}]]",
            {
                col["rate_lo", t]: 1.0,
                col["rate_up", t]: -1.0,
                col["price_split", t]: 1.0,
                col["price_energy", t]: -f.charge_efficiency,
            },
            EQ,
            0.0,
        )
        for s in stations:
            lp.add_constraint(
                f"col[station[{f.id},{s.id},{t}]]",
                {
                    col["st_lo", s.id, t]: 1.0,
                    col["st_up", s.id, t]: -1.0,
                    col["price_station", s.id, t]: 1.0,
                    col["price_split", t]: -1.0,
                },
                EQ,
                0.0,  # rhs 0 as printed; the primal's offer-price cost belongs here
            )
            for m in range(len(s.segments)):
                lp.add_constraint(
                    f"col[segment[{f.id},{s.id},{m},{t}]]",
                    {
                        col["seg_lo", s.id, m, t]: 1.0,
                        col["seg_up", s.id, m, t]: -1.0,
                        col["price_station", s.id, t]: -1.0,
                    },
                    EQ,
                    segment_prices[s.id][m][t],
                )
        lp.add_constraint(
            f"col[home[{f.id},{t}]]",
            {col["home_lo", t]: 1.0, col["home_up", t]: -1.0, col["price_split", t]: -1.0},
            EQ,
            f.tou[t],
        )
        coeffs = {col["en_lo", t]: 1.0, col["en_up", t]: -1.0, col["price_energy", t]: 1.0}
        if t < T - 1:
            coeffs[col["price_energy", t + 1]] = -1.0
        lp.add_constraint(f"col[energy[{f.id},{t}]]", coeffs, EQ, 0.0)

    return lp.build()


@dataclass(frozen=True)
class FleetDualReport:
    """Which dual/primal pairings close the strong-duality gap, for one
    fleet.

    `offer_primal` is the optimum of the fleet's cost program
    (`build_fleet`); `segment_primal` that of the same LP re-priced to bill
    station energy per bid segment at the cleared bid prices.
    `literal_dual` is the optimum of the transcribed published dual, solved
    as printed, and `corrected_sign_dual` that of its sign-corrected
    version; each is None when its solve is not optimal.
    """

    offer_primal: float
    segment_primal: float
    literal_dual: float | None
    corrected_sign_dual: float | None

    @staticmethod
    def _matches(value, target) -> bool:
        limit = lpcore.DUALITY_TOL * max(1.0, abs(target))
        return value is not None and abs(value - target) <= limit

    @property
    def literal_matches_offer(self) -> bool:
        return self._matches(self.literal_dual, self.offer_primal)

    @property
    def literal_matches_segment(self) -> bool:
        return self._matches(self.literal_dual, self.segment_primal)

    @property
    def corrected_matches_segment(self) -> bool:
        return self._matches(self.corrected_sign_dual, self.segment_primal)


def dual_form_report(
    inp: FleetInput, fleet: EVFleet, segment_prices: SegmentPrices
) -> FleetDualReport:
    """Solve both primal variants of `fleet`'s program and the transcribed
    dual (as printed, and with its boundedness-breaking sign repaired), and
    report which equalities hold.

    The segment-billed variant is the offer LP with each station column's
    cost set to 0 and each bid-segment column's cost to its
    `segment_prices[c][m][t]`; nothing else differs."""
    offer_lp, cols = build_fleet(inp, fleet)
    objective = offer_lp.objective.copy()
    for cid, s_cols, seg_cols in zip(cols.stations, cols.station, cols.segment):
        objective[s_cols] = 0.0
        for m_cols, prices in zip(seg_cols, segment_prices[cid]):
            objective[m_cols] = prices

    def optimum(lp):
        sol = lpcore.solve(lp)
        return sol.objective if sol.is_optimal else None

    return FleetDualReport(
        offer_primal=lpcore.require_optimal(offer_lp).objective,
        segment_primal=lpcore.require_optimal(offer_lp.with_arrays(objective=objective)).objective,
        literal_dual=optimum(build_fleet_paper_dual(inp, fleet, segment_prices)),
        corrected_sign_dual=optimum(
            build_fleet_paper_dual(inp, fleet, segment_prices, corrected_segment_sign=True)
        ),
    )
