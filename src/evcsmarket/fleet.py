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

from dataclasses import dataclass, replace

from . import lpcore
from .lpcore import EQ, LinearProgram, LpBuilder
from .model import ChargingStation, EVFleet, Scenario, fleet_infeasibility_period

TIE_BREAK_EPS = 1e-6

BILLING_OFFER = "offer"
BILLING_WTP_SEGMENTS = "wtp_segments"


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

    `offers[c]` is the per-period offer price of station c in $/MWh.
    `segment_prices[c][m]` optionally carries cleared per-segment bid prices;
    they are ignored by the default offer-based billing and price the station
    energy under the segment-based billing variant.
    """

    fleets: tuple[EVFleet, ...]
    stations: tuple[ChargingStation, ...]
    horizon: int
    offers: dict[str, tuple[float, ...]]
    segment_prices: dict[str, tuple[tuple[float, ...], ...]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "fleets", tuple(self.fleets))
        object.__setattr__(self, "stations", tuple(self.stations))
        object.__setattr__(
            self, "offers", {k: tuple(map(float, v)) for k, v in self.offers.items()}
        )
        if self.segment_prices is not None:
            object.__setattr__(
                self,
                "segment_prices",
                {
                    k: tuple(tuple(map(float, row)) for row in v)
                    for k, v in self.segment_prices.items()
                },
            )

    def station(self, station_id: str) -> ChargingStation:
        for s in self.stations:
            if s.id == station_id:
                return s
        raise KeyError(station_id)


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

    horizon: int
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


def _check_input(inp: FleetInput) -> None:
    station_fleets = {}
    for s in inp.stations:
        station_fleets[s.id] = s.fleet_id
        if len(s.offer_min) != inp.horizon or len(s.offer_max) != inp.horizon:
            raise FleetStructureError(f"station {s.id}: offer bound series length != horizon")
        tau = inp.offers.get(s.id)
        if tau is None:
            raise FleetStructureError(f"station {s.id}: no offer price provided")
        if len(tau) != inp.horizon:
            raise FleetStructureError(f"station {s.id}: offer series length != horizon")
        for t in range(inp.horizon):
            if not (s.offer_min[t] - 1e-9 <= tau[t] <= s.offer_max[t] + 1e-9):
                raise FleetStructureError(
                    f"station {s.id}: offer {tau[t]} outside "
                    f"[{s.offer_min[t]}, {s.offer_max[t]}] at period {t}"
                )
    for f in inp.fleets:
        for cid, _ in f.station_caps:
            if cid not in station_fleets:
                raise FleetStructureError(f"fleet {f.id}: unknown station {cid!r}")
        if len(f.tou) != inp.horizon or len(f.driving) != inp.horizon:
            raise FleetStructureError(f"fleet {f.id}: series length != horizon")


def _fleet_stations(inp: FleetInput, fleet: EVFleet) -> list[ChargingStation]:
    return [inp.station(cid) for cid, _ in fleet.station_caps if inp.station(cid).fleet_id == fleet.id]


def build_fleet(
    inp: FleetInput,
    *,
    billing: str = BILLING_OFFER,
    home_price_bump: float = 0.0,
    fleet_ids=None,
) -> LinearProgram:
    """Cost-minimization LP over {total, home, station, segment, energy}.

    Station energy is priced at the offer price under the default billing;
    the `wtp_segments` variant prices each bid segment at its cleared bid
    price instead (requires `segment_prices`).  `home_price_bump` is the
    tie-break surcharge; builders for certificates use 0.
    """
    _check_input(inp)
    if billing not in (BILLING_OFFER, BILLING_WTP_SEGMENTS):
        raise FleetStructureError(f"unknown billing mode {billing!r}")
    if billing == BILLING_WTP_SEGMENTS and inp.segment_prices is None:
        raise FleetStructureError("segment billing requires segment_prices")

    lp = LpBuilder(lpcore.MIN, name="fleet")
    T = inp.horizon
    fleets = [f for f in inp.fleets if fleet_ids is None or f.id in fleet_ids]

    for f in fleets:
        stations = _fleet_stations(inp, f)
        for t in range(T):
            lp.add_variable(f"total[{f.id},{t}]", 0.0, f.max_charge)
            lp.add_variable(
                f"home[{f.id},{t}]",
                0.0,
                f.home_connectivity[t] * f.home_cap,
                objective=f.tou[t] + home_price_bump,
            )
            for s in stations:
                tau = inp.offers[s.id][t]
                lp.add_variable(
                    f"station[{f.id},{s.id},{t}]",
                    0.0,
                    f.station_conn(s.id)[t] * f.station_cap(s.id),
                    objective=tau if billing == BILLING_OFFER else 0.0,
                )
                for m, seg in enumerate(s.segments):
                    price = 0.0
                    if billing == BILLING_WTP_SEGMENTS:
                        price = inp.segment_prices[s.id][m][t]
                    lp.add_variable(
                        f"segment[{f.id},{s.id},{m},{t}]", 0.0, seg.width, objective=price
                    )
            final_floor = f.energy_min
            if t == T - 1 and f.final_energy_min is not None:
                final_floor = max(f.energy_min, f.final_energy_min)
            lp.add_variable(f"energy[{f.id},{t}]", final_floor, f.energy_max)

        for t in range(T):
            coeffs = {f"total[{f.id},{t}]": 1.0, f"home[{f.id},{t}]": -1.0}
            for s in stations:
                coeffs[f"station[{f.id},{s.id},{t}]"] = -1.0
            lp.add_constraint(f"split[{f.id},{t}]", coeffs, EQ, 0.0)
            for s in stations:
                scoeffs = {f"station[{f.id},{s.id},{t}]": 1.0}
                for m in range(len(s.segments)):
                    scoeffs[f"segment[{f.id},{s.id},{m},{t}]"] = -1.0
                lp.add_constraint(f"station_split[{f.id},{s.id},{t}]", scoeffs, EQ, 0.0)
            coeffs = {
                f"energy[{f.id},{t}]": 1.0,
                f"total[{f.id},{t}]": -f.charge_efficiency,
            }
            rhs = -f.driving[t] / f.discharge_efficiency
            if t > 0:
                coeffs[f"energy[{f.id},{t - 1}]"] = -1.0
            else:
                rhs += f.initial_energy
            lp.add_constraint(f"energy_balance[{f.id},{t}]", coeffs, EQ, rhs)

    return lp.build()


def _schedule_from_solution(inp: FleetInput, f: EVFleet, values):
    """One fleet's series (total, home, station, segments, energy) and its
    cost at the true prices, from the primal values of its LP."""
    T = inp.horizon
    stations = _fleet_stations(inp, f)
    home = tuple(values[f"home[{f.id},{t}]"] for t in range(T))
    station = {}
    segments = {}
    for s in stations:
        segments[s.id] = tuple(
            tuple(values[f"segment[{f.id},{s.id},{m},{t}]"] for t in range(T))
            for m in range(len(s.segments))
        )
        station[s.id] = tuple(
            sum(segments[s.id][m][t] for m in range(len(s.segments))) for t in range(T)
        )
    total = tuple(home[t] + sum(station[s.id][t] for s in stations) for t in range(T))
    e = f.initial_energy
    energy = []
    for t in range(T):
        e = e - f.driving[t] / f.discharge_efficiency + total[t] * f.charge_efficiency
        energy.append(e)
    cost = sum(home[t] * f.tou[t] for t in range(T))
    for s in stations:
        cost += sum(station[s.id][t] * inp.offers[s.id][t] for t in range(T))
    return total, home, station, segments, tuple(energy), float(cost)


def solve_fleet(
    inp: FleetInput, *, feas_tol: float = lpcore.FEAS_TOL, memo: dict | None = None
) -> FleetSchedule:
    """Clear every fleet under offer billing; returns the merged schedule.

    Infeasible fleets are diagnosed before solving (first period whose
    cumulative driving cannot be recovered).  Each fleet's LP is solved
    once, with the surcharge that breaks ties toward station charging (see
    the module docstring); reported costs are at the true prices.  The
    merged schedule is checked against that LP (`lpcore.max_violation`; the
    surcharge moves no row or bound) and raises FleetStructureError above
    100 * feas_tol.

    `memo`, when given, holds each fleet's checked result under
    ("fleet", fleet id, offers of its stations in `_fleet_stations` order),
    the only inputs of its LP that change within one scenario; a fleet
    found there skips the build, the solve and the post-check.  A memo
    belongs to one scenario and is written to only after the post-check.
    """
    _check_input(inp)
    for f in inp.fleets:
        t_bad = fleet_infeasibility_period(f, inp.horizon)
        if t_bad is not None:
            raise FleetInfeasibleError(f.id, t_bad)

    total, home, station, segments, energy, fleet_costs = {}, {}, {}, {}, {}, {}
    solved = {}  # fleet id -> (memo key, LP, result) for the fleets solved here
    for f in sorted(inp.fleets, key=lambda f: f.id):
        key = ("fleet", f.id, tuple(inp.offers[s.id] for s in _fleet_stations(inp, f)))
        result = None if memo is None else memo.get(key)
        if result is None:
            lp = build_fleet(inp, home_price_bump=TIE_BREAK_EPS, fleet_ids={f.id})
            values = lpcore.require_optimal(lp, feas_tol=feas_tol).primal
            result = _schedule_from_solution(inp, f, values)
            solved[f.id] = (key, lp, result)
        (
            total[f.id], home[f.id], station[f.id], segments[f.id], energy[f.id], fleet_costs[f.id]
        ) = result

    schedule = FleetSchedule(
        horizon=inp.horizon,
        total=total,
        home=home,
        station=station,
        segments=segments,
        energy=energy,
        fleet_costs=fleet_costs,
        cost=float(sum(fleet_costs.values())),
    )
    for f in inp.fleets:
        if f.id not in solved:
            continue
        key, lp, result = solved[f.id]
        violation = lpcore.max_violation(lp, schedule_values(inp, schedule, f))
        if violation > feas_tol * 100.0:
            raise FleetStructureError(f"fleet {f.id}: schedule violates its LP by {violation:.3e}")
        if memo is not None:
            memo[key] = result
    return schedule


def schedule_values(inp: FleetInput, sched: FleetSchedule, fleet: EVFleet) -> dict[str, float]:
    """A schedule's series for one fleet keyed by the variable names of
    `build_fleet(inp, fleet_ids={fleet.id})`."""
    fid = fleet.id
    stations = _fleet_stations(inp, fleet)
    values = {}
    for t in range(inp.horizon):
        values[f"total[{fid},{t}]"] = sched.total[fid][t]
        values[f"home[{fid},{t}]"] = sched.home[fid][t]
        for s in stations:
            values[f"station[{fid},{s.id},{t}]"] = sched.station[fid][s.id][t]
            for m in range(len(s.segments)):
                values[f"segment[{fid},{s.id},{m},{t}]"] = sched.segments[fid][s.id][m][t]
        values[f"energy[{fid},{t}]"] = sched.energy[fid][t]
    return values


# ---------------------------------------------------------------------------
# explicit dual (literal transcription, known-imperfect; see dual_form_report)
# ---------------------------------------------------------------------------


def build_fleet_paper_dual(
    inp: FleetInput, segment_prices, *, corrected_segment_sign: bool = False
) -> LinearProgram:
    """Literal transcription of the published dual of the fleet program.

    Kept exactly as printed, including its quirks: the segment stationarity
    row carries the cleared bid price on the rhs even though the primal
    objective has no such term, the segment-cap term enters the objective
    with a positive sign (which makes the program unbounded whenever any
    segment has positive width: the paired segment bound prices can grow
    together), and the initial-energy constant is absent.  Its optimal value
    therefore need not equal the primal optimum; see `dual_form_report`,
    which quantifies the gaps next to the automatic dual.

    `segment_prices[c][m][t]` supplies the cleared bid prices entering the
    segment stationarity rows.  With `corrected_segment_sign` the one
    sign that breaks boundedness is repaired and everything else stays as
    printed.
    """
    _check_input(inp)
    name = "fleet_dual_corrected_sign" if corrected_segment_sign else "fleet_dual_literal"
    lp = LpBuilder(lpcore.MAX, name=name)
    T = inp.horizon
    POS = (0.0, lpcore.INF)
    seg_sign = -1.0 if corrected_segment_sign else 1.0

    for f in inp.fleets:
        stations = _fleet_stations(inp, f)
        for t in range(T):
            lp.add_variable(f"rate_lo[{f.id},{t}]", *POS)
            lp.add_variable(f"rate_up[{f.id},{t}]", *POS, objective=-f.max_charge)
            lp.add_variable(f"home_lo[{f.id},{t}]", *POS)
            lp.add_variable(
                f"home_up[{f.id},{t}]",
                *POS,
                objective=-f.home_connectivity[t] * f.home_cap,
            )
            for s in stations:
                lp.add_variable(f"st_lo[{f.id},{s.id},{t}]", *POS)
                lp.add_variable(
                    f"st_up[{f.id},{s.id},{t}]",
                    *POS,
                    objective=-f.station_conn(s.id)[t] * f.station_cap(s.id),
                )
                for m, seg in enumerate(s.segments):
                    lp.add_variable(f"seg_lo[{f.id},{s.id},{m},{t}]", *POS)
                    # positive sign as printed; the exact dual carries -width
                    lp.add_variable(
                        f"seg_up[{f.id},{s.id},{m},{t}]", *POS, objective=seg_sign * seg.width
                    )
            lp.add_variable(f"en_lo[{f.id},{t}]", *POS, objective=f.energy_min)
            lp.add_variable(f"en_up[{f.id},{t}]", *POS, objective=-f.energy_max)
            lp.add_variable(f"price_split[{f.id},{t}]")
            for s in stations:
                lp.add_variable(f"price_station[{f.id},{s.id},{t}]")
            lp.add_variable(
                f"price_energy[{f.id},{t}]",
                objective=-f.driving[t] / f.discharge_efficiency,
            )

        for t in range(T):
            lp.add_constraint(
                f"col[total[{f.id},{t}]]",
                {
                    f"rate_lo[{f.id},{t}]": 1.0,
                    f"rate_up[{f.id},{t}]": -1.0,
                    f"price_split[{f.id},{t}]": 1.0,
                    f"price_energy[{f.id},{t}]": -f.charge_efficiency,
                },
                EQ,
                0.0,
            )
            for s in stations:
                lp.add_constraint(
                    f"col[station[{f.id},{s.id},{t}]]",
                    {
                        f"st_lo[{f.id},{s.id},{t}]": 1.0,
                        f"st_up[{f.id},{s.id},{t}]": -1.0,
                        f"price_station[{f.id},{s.id},{t}]": 1.0,
                        f"price_split[{f.id},{t}]": -1.0,
                    },
                    EQ,
                    0.0,  # rhs 0 as printed; offer-based billing implies the offer price here
                )
                for m in range(len(s.segments)):
                    lp.add_constraint(
                        f"col[segment[{f.id},{s.id},{m},{t}]]",
                        {
                            f"seg_lo[{f.id},{s.id},{m},{t}]": 1.0,
                            f"seg_up[{f.id},{s.id},{m},{t}]": -1.0,
                            f"price_station[{f.id},{s.id},{t}]": -1.0,
                        },
                        EQ,
                        segment_prices[s.id][m][t],
                    )
            lp.add_constraint(
                f"col[home[{f.id},{t}]]",
                {
                    f"home_lo[{f.id},{t}]": 1.0,
                    f"home_up[{f.id},{t}]": -1.0,
                    f"price_split[{f.id},{t}]": -1.0,
                },
                EQ,
                f.tou[t],
            )
            coeffs = {
                f"en_lo[{f.id},{t}]": 1.0,
                f"en_up[{f.id},{t}]": -1.0,
                f"price_energy[{f.id},{t}]": 1.0,
            }
            if t < T - 1:
                coeffs[f"price_energy[{f.id},{t + 1}]"] = -1.0
            lp.add_constraint(f"col[energy[{f.id},{t}]]", coeffs, EQ, 0.0)

    return lp.build()


@dataclass(frozen=True)
class FleetDualReport:
    """Which dual/primal pairings close the strong-duality gap.

    `offer_primal` is the default cost program; `segment_primal` the
    flag-gated variant that bills station energy per bid segment.  The
    automatic dual of each matches it by LP duality; `literal_dual` is the
    transcribed published dual, solved as printed.
    """

    offer_primal: float
    offer_auto_dual: float
    segment_primal: float | None
    segment_auto_dual: float | None
    literal_dual: float | None
    literal_dual_status: str
    corrected_sign_dual: float | None
    corrected_sign_status: str
    tolerance: float

    def _matches(self, value, target) -> bool:
        return (
            value is not None
            and target is not None
            and abs(value - target) <= self.tolerance * max(1.0, abs(target))
        )

    @property
    def literal_matches_offer(self) -> bool:
        return self._matches(self.literal_dual, self.offer_primal)

    @property
    def literal_matches_segment(self) -> bool:
        return self._matches(self.literal_dual, self.segment_primal)

    @property
    def corrected_matches_offer(self) -> bool:
        return self._matches(self.corrected_sign_dual, self.offer_primal)

    @property
    def corrected_matches_segment(self) -> bool:
        return self._matches(self.corrected_sign_dual, self.segment_primal)

    def summary(self) -> str:
        def fmt(value, status):
            return f"optimum {value:.6f}" if value is not None else status

        lines = [
            f"offer-billed cost program:   optimum {self.offer_primal:.6f}, "
            f"auto dual {self.offer_auto_dual:.6f}",
        ]
        if self.segment_primal is not None:
            lines.append(
                f"segment-billed variant:      optimum {self.segment_primal:.6f}, "
                f"auto dual {self.segment_auto_dual:.6f}"
            )
        lines.append(
            f"literal transcribed dual:    {fmt(self.literal_dual, self.literal_dual_status)}"
        )
        lines.append(
            f"sign-corrected variant:      {fmt(self.corrected_sign_dual, self.corrected_sign_status)}"
        )
        lines.append(
            "literal dual matches offer-billed optimum: "
            + ("yes" if self.literal_matches_offer else "no")
        )
        if self.segment_primal is not None:
            lines.append(
                "literal dual matches segment-billed optimum: "
                + ("yes" if self.literal_matches_segment else "no")
            )
            lines.append(
                "sign-corrected dual matches segment-billed optimum: "
                + ("yes" if self.corrected_matches_segment else "no")
            )
        return "\n".join(lines)


def dual_form_report(
    inp: FleetInput, segment_prices, tol: float = lpcore.DUALITY_TOL
) -> FleetDualReport:
    """Solve both primal variants, their automatic duals, and the transcribed
    dual (as printed, and with its boundedness-breaking sign repaired), and
    report which equalities hold."""
    offer_sol = lpcore.require_optimal(build_fleet(inp))
    offer_dual = lpcore.require_optimal(lpcore.dualize(build_fleet(inp)))

    seg_primal = seg_dual = None
    if segment_prices is not None:
        seg_inp = replace(inp, segment_prices=dict(segment_prices))
        seg_lp = build_fleet(seg_inp, billing=BILLING_WTP_SEGMENTS)
        seg_primal = lpcore.require_optimal(seg_lp).objective
        seg_dual = lpcore.require_optimal(lpcore.dualize(seg_lp)).objective

    literal = lpcore.solve(build_fleet_paper_dual(inp, segment_prices))
    corrected = lpcore.solve(
        build_fleet_paper_dual(inp, segment_prices, corrected_segment_sign=True)
    )
    return FleetDualReport(
        offer_primal=offer_sol.objective,
        offer_auto_dual=offer_dual.objective,
        segment_primal=seg_primal,
        segment_auto_dual=seg_dual,
        literal_dual=literal.objective if literal.is_optimal else None,
        literal_dual_status=literal.status,
        corrected_sign_dual=corrected.objective if corrected.is_optimal else None,
        corrected_sign_status=corrected.status,
        tolerance=tol,
    )
