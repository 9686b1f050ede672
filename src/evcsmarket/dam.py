"""Day-ahead market clearing: welfare-maximizing DC-power-flow dispatch LP
for fixed fleet withdrawals, locational price extraction, and an explicit
hand-written dual program for cross-checking the automatic dualizer.

Prices: the solver reports marginal-value duals (see `lpcore`), so for this
maximization the raw dual of a nodal balance row is the welfare change per
MW of extra load, which is non-positive in normal conditions.  The
locational marginal price published in `DamOutcome` is the *cost of serving
one more MW at the bus*, i.e. the negation of that raw dual.  Under that
orientation an uncongested system prices every bus at the marginal
generation segment cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lpcore
from .lpcore import EQ, LinearProgram, LpBuilder
from .model import ChargingStation, Network


class DamStructureError(ValueError):
    """Inputs do not line up with the network (bad bus, bad series length)."""


class DamInfeasibleError(RuntimeError):
    def __init__(self, period, detail=""):
        super().__init__(f"market clearing infeasible in period {period}{': ' + detail if detail else ''}")
        self.period = period


class DamNumericalError(RuntimeError):
    pass


@dataclass(frozen=True)
class FleetWithdrawal:
    """Fixed total fleet consumption placed on the fleet's bus."""

    fleet_id: str
    bus: str
    power: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "power", tuple(float(v) for v in self.power))


@dataclass(frozen=True)
class StationDamBid:
    """Fixed purchase quantities per bid segment with price-bid bounds.

    Quantities are data here: the station side of the market takes the fleet
    schedule as given.  A bid price then enters welfare only as q * price and
    in no constraint, so it clears in closed form rather than as a market LP
    column: `solve_dam` clears it at `wtp_max` where the segment buys
    (q > 0), at `wtp_min` otherwise.
    """

    station_id: str
    quantities: tuple[tuple[float, ...], ...]
    wtp_min: tuple[tuple[float, ...], ...]
    wtp_max: tuple[tuple[float, ...], ...]
    widths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "quantities", tuple(tuple(map(float, q)) for q in self.quantities))
        object.__setattr__(self, "wtp_min", tuple(tuple(map(float, q)) for q in self.wtp_min))
        object.__setattr__(self, "wtp_max", tuple(tuple(map(float, q)) for q in self.wtp_max))
        object.__setattr__(self, "widths", tuple(float(w) for w in self.widths))


@dataclass(frozen=True)
class DamInput:
    network: Network
    withdrawals: tuple[FleetWithdrawal, ...]
    station_bids: tuple[StationDamBid, ...]

    def __post_init__(self):
        object.__setattr__(self, "withdrawals", tuple(self.withdrawals))
        object.__setattr__(self, "station_bids", tuple(self.station_bids))


@dataclass(frozen=True)
class DamOutcome:
    """Cleared market: dispatch, flows, angles, cleared bids, prices."""

    horizon: int
    gen: dict[str, tuple[float, ...]]
    gen_segments: dict[str, tuple[tuple[float, ...], ...]]
    solar: dict[str, tuple[float, ...]]
    flow: dict[str, tuple[float, ...]]
    angle: dict[str, tuple[float, ...]]
    wtp: dict[str, tuple[tuple[float, ...], ...]]
    lmp: dict[str, tuple[float, ...]]
    welfare: float
    period_welfare: tuple[float, ...]


def station_bid_from_quantities(
    station: ChargingStation, quantities
) -> StationDamBid:
    """Pack a station's scenario bid structure around fixed segment MW."""
    return StationDamBid(
        station_id=station.id,
        quantities=tuple(tuple(q) for q in quantities),
        wtp_min=tuple(seg.wtp_min for seg in station.segments),
        wtp_max=tuple(seg.wtp_max for seg in station.segments),
        widths=tuple(seg.width for seg in station.segments),
    )


def _check_input(inp: DamInput) -> None:
    net = inp.network
    T = net.horizon
    bus_ids = set(net.bus_ids())
    net.reference_bus()
    for w in inp.withdrawals:
        if w.bus not in bus_ids:
            raise DamStructureError(f"withdrawal {w.fleet_id}: bus {w.bus!r} not in network")
        if len(w.power) != T:
            raise DamStructureError(f"withdrawal {w.fleet_id}: series length != horizon")
    for bid in inp.station_bids:
        if len(bid.quantities) != len(bid.widths):
            raise DamStructureError(f"station {bid.station_id}: segment count mismatch")
        for m, series in enumerate(bid.quantities):
            if len(series) != T:
                raise DamStructureError(f"station {bid.station_id}: quantity series length != horizon")
            if len(bid.wtp_min[m]) != T or len(bid.wtp_max[m]) != T:
                raise DamStructureError(f"station {bid.station_id}: bid bound series length != horizon")
            for t, q in enumerate(series):
                if q < -1e-9 or q > bid.widths[m] + 1e-9:
                    raise DamStructureError(
                        f"station {bid.station_id}: quantity {q} outside segment width "
                        f"[0, {bid.widths[m]}] at period {t}"
                    )


def _periods(inp: DamInput, period):
    return range(inp.network.horizon) if period is None else [period]


def _balance_rhs(inp: DamInput, bus: str, t: int) -> float:
    rhs = sum(d.load[t] for d in inp.network.demands if d.bus == bus)
    rhs += sum(w.power[t] for w in inp.withdrawals if w.bus == bus)
    return rhs


def build_dam(inp: DamInput, period: int | None = None) -> LinearProgram:
    """Welfare-maximization LP for all periods (default) or a single one.

    Periods do not couple, so the block LP and the per-period LPs clear
    identically; `solve_dam` uses the per-period form.  Variables:
    gen/seg/solar/angle/flow; rows: gen_split (dispatch equals the sum of
    its cost segments), dc_flow (flow follows angle difference over
    reactance), balance (nodal balance with fixed demand plus fleet
    withdrawals on the rhs).  The reference bus angle is pinned to zero.
    The objective leaves out the bid value sum q * price, a constant once
    bid prices clear in closed form (see `StationDamBid` and `welfare`).
    """
    _check_input(inp)
    net = inp.network
    ref = net.reference_bus()
    lp = LpBuilder(lpcore.MAX, name="dam" if period is None else f"dam[t={period}]")

    for t in _periods(inp, period):
        for g in net.generators:
            lp.add_variable(f"gen[{g.id},{t}]", g.p_min, g.p_max)
            for k, seg in enumerate(g.segments):
                lp.add_variable(f"seg[{g.id},{k},{t}]", seg.p_min, seg.p_max, objective=-seg.cost)
        for s in net.solar_units:
            lp.add_variable(f"solar[{s.id},{t}]", 0.0, s.available[t])
        for b in net.buses:
            if b.id == ref:
                lp.add_variable(f"angle[{b.id},{t}]", 0.0, 0.0)
            else:
                lp.add_variable(f"angle[{b.id},{t}]", b.angle_min, b.angle_max)
        for ln in net.lines:
            lp.add_variable(f"flow[{ln.id},{t}]", ln.flow_min, ln.flow_max)

        for g in net.generators:
            coeffs = {f"gen[{g.id},{t}]": 1.0}
            for k in range(len(g.segments)):
                coeffs[f"seg[{g.id},{k},{t}]"] = -1.0
            lp.add_constraint(f"gen_split[{g.id},{t}]", coeffs, EQ, 0.0)
        for ln in net.lines:
            lp.add_constraint(
                f"dc_flow[{ln.id},{t}]",
                {
                    f"flow[{ln.id},{t}]": 1.0,
                    f"angle[{ln.from_bus},{t}]": -1.0 / ln.reactance,
                    f"angle[{ln.to_bus},{t}]": 1.0 / ln.reactance,
                },
                EQ,
                0.0,
            )
        for b in net.buses:
            coeffs: dict[str, float] = {}
            for g in net.generators:
                if g.bus == b.id:
                    coeffs[f"gen[{g.id},{t}]"] = 1.0
            for s in net.solar_units:
                if s.bus == b.id:
                    coeffs[f"solar[{s.id},{t}]"] = 1.0
            for ln in net.lines:
                if ln.from_bus == b.id:
                    coeffs[f"flow[{ln.id},{t}]"] = coeffs.get(f"flow[{ln.id},{t}]", 0.0) - 1.0
                if ln.to_bus == b.id:
                    coeffs[f"flow[{ln.id},{t}]"] = coeffs.get(f"flow[{ln.id},{t}]", 0.0) + 1.0
            lp.add_constraint(f"balance[{b.id},{t}]", coeffs, EQ, _balance_rhs(inp, b.id, t))

    return lp.build()


def solve_dam(
    inp: DamInput, *, feas_tol: float = lpcore.FEAS_TOL, memo: dict | None = None
) -> DamOutcome:
    """Clear every period and extract locational prices from the nodal
    balance duals.  Raises DamInfeasibleError when a period cannot be
    served, and DamNumericalError naming the period when the solve is not
    optimal or its solution violates the period LP (`lpcore.max_violation`
    above 100 * feas_tol).

    `memo`, when given, holds each period's LP and checked solution under
    ("period", t, withdrawals at t in `inp.withdrawals` order), all that a
    period LP of one scenario depends on; a period found there skips the
    build, the solve and the post-check.  Bid prices and welfare depend on
    the bid quantities, which the key leaves out, so they are computed on
    every call.  A memo belongs to one scenario and is written to only
    after the post-check."""
    _check_input(inp)
    net = inp.network
    T = net.horizon

    gen = {g.id: [] for g in net.generators}
    gseg = {g.id: [[] for _ in g.segments] for g in net.generators}
    solar = {s.id: [] for s in net.solar_units}
    flow = {ln.id: [] for ln in net.lines}
    angle = {b.id: [] for b in net.buses}
    wtp = {bid.station_id: [[] for _ in bid.quantities] for bid in inp.station_bids}
    lmp = {b.id: [] for b in net.buses}
    period_welfare = []

    for t in range(T):
        key = ("period", t, tuple(w.power[t] for w in inp.withdrawals))
        if memo is not None and key in memo:
            lp, sol = memo[key]
        else:
            lp = build_dam(inp, period=t)
            sol = lpcore.solve(lp, feas_tol=feas_tol)
            if sol.status == lpcore.INFEASIBLE:
                raise DamInfeasibleError(
                    t, "supply cannot meet fixed demand plus fleet withdrawals"
                )
            if not sol.is_optimal:
                raise DamNumericalError(f"period {t}: solver status {sol.status}")
            violation = lpcore.max_violation(lp, sol.primal)
            if violation > feas_tol * 100.0:
                raise DamNumericalError(f"period {t}: solution violates its LP by {violation:.3e}")
            if memo is not None:
                memo[key] = (lp, sol)

        for g in net.generators:
            gen[g.id].append(sol.primal[f"gen[{g.id},{t}]"])
            for k in range(len(g.segments)):
                gseg[g.id][k].append(sol.primal[f"seg[{g.id},{k},{t}]"])
        for s in net.solar_units:
            solar[s.id].append(sol.primal[f"solar[{s.id},{t}]"])
        for ln in net.lines:
            flow[ln.id].append(sol.primal[f"flow[{ln.id},{t}]"])
        for b in net.buses:
            angle[b.id].append(sol.primal[f"angle[{b.id},{t}]"])
            lmp[b.id].append(-sol.dual[f"balance[{b.id},{t}]"])
        for bid in inp.station_bids:
            for m, q in enumerate(bid.quantities):
                wtp[bid.station_id][m].append(
                    bid.wtp_max[m][t] if q[t] > 0.0 else bid.wtp_min[m][t]
                )
        period_welfare.append(welfare(inp, lp, sol.primal, wtp, t))

    return DamOutcome(
        horizon=T,
        gen={k: tuple(v) for k, v in gen.items()},
        gen_segments={k: tuple(tuple(s) for s in v) for k, v in gseg.items()},
        solar={k: tuple(v) for k, v in solar.items()},
        flow={k: tuple(v) for k, v in flow.items()},
        angle={k: tuple(v) for k, v in angle.items()},
        wtp={k: tuple(tuple(s) for s in v) for k, v in wtp.items()},
        lmp={k: tuple(v) for k, v in lmp.items()},
        welfare=float(sum(period_welfare)),
        period_welfare=tuple(period_welfare),
    )


def welfare(inp: DamInput, lp: LinearProgram, values, wtp, t: int) -> float:
    """Welfare of period t: the bid value sum q * price over the bid
    segments, then `lp`'s objective terms at `values`, summed in that fixed
    order so the result is reproducible bit for bit."""
    terms = [
        q[t] * wtp[bid.station_id][m][t]
        for bid in inp.station_bids
        for m, q in enumerate(bid.quantities)
    ]
    terms.extend(v.objective * values[v.name] for v in lp.variables)
    return float(sum(terms))


def period_values(inp: DamInput, out: DamOutcome, t: int) -> dict[str, float]:
    """An outcome's period-t dispatch keyed by the variable names of
    `build_dam(inp, period=t)`."""
    net = inp.network
    values = {}
    for g in net.generators:
        values[f"gen[{g.id},{t}]"] = out.gen[g.id][t]
        for k in range(len(g.segments)):
            values[f"seg[{g.id},{k},{t}]"] = out.gen_segments[g.id][k][t]
    for s in net.solar_units:
        values[f"solar[{s.id},{t}]"] = out.solar[s.id][t]
    for b in net.buses:
        values[f"angle[{b.id},{t}]"] = out.angle[b.id][t]
    for ln in net.lines:
        values[f"flow[{ln.id},{t}]"] = out.flow[ln.id][t]
    return values


# ---------------------------------------------------------------------------
# explicit dual (hand-written transposition, kept independent of `dualize`)
# ---------------------------------------------------------------------------


def build_dam_paper_dual(inp: DamInput, period: int | None = None) -> LinearProgram:
    """Explicit minimization dual of `build_dam` written out row by row.

    All bound-price variables (`bound_lo`/`bound_up`) are non-positive and
    the equality-row prices (`price[...]`) are free; the objective carries
    `bound_lo * lower - bound_up * upper` for every primal bound plus the
    balance rhs times its price.  Built independently of lpcore.dualize so
    the two constructions can check each other; see
    `paper_dual_structural_diff`.
    """
    _check_input(inp)
    net = inp.network
    ref = net.reference_bus()
    lp = LpBuilder(lpcore.MIN, name="dam_dual" if period is None else f"dam_dual[t={period}]")

    NEG = (-lpcore.INF, 0.0)

    def add_bound_pair(var, lower, upper):
        lp.add_variable(f"bound_lo[{var}]", *NEG, objective=lower)
        lp.add_variable(f"bound_up[{var}]", *NEG, objective=-upper)

    for t in _periods(inp, period):
        # prices of the equality rows
        for g in net.generators:
            lp.add_variable(f"price[gen_split[{g.id},{t}]]")
        for ln in net.lines:
            lp.add_variable(f"price[dc_flow[{ln.id},{t}]]")
        for b in net.buses:
            lp.add_variable(f"price[balance[{b.id},{t}]]", objective=_balance_rhs(inp, b.id, t))

        # bound prices, mirroring the primal variable set
        for g in net.generators:
            add_bound_pair(f"gen[{g.id},{t}]", g.p_min, g.p_max)
            for k, seg in enumerate(g.segments):
                add_bound_pair(f"seg[{g.id},{k},{t}]", seg.p_min, seg.p_max)
        for s in net.solar_units:
            add_bound_pair(f"solar[{s.id},{t}]", 0.0, s.available[t])
        for b in net.buses:
            if b.id == ref:
                add_bound_pair(f"angle[{b.id},{t}]", 0.0, 0.0)
            else:
                add_bound_pair(f"angle[{b.id},{t}]", b.angle_min, b.angle_max)
        for ln in net.lines:
            add_bound_pair(f"flow[{ln.id},{t}]", ln.flow_min, ln.flow_max)

        def stationarity(var, extra, rhs):
            coeffs = {f"bound_lo[{var}]": 1.0, f"bound_up[{var}]": -1.0}
            coeffs.update(extra)
            lp.add_constraint(f"col[{var}]", coeffs, EQ, rhs)

        for g in net.generators:
            stationarity(
                f"gen[{g.id},{t}]",
                {
                    f"price[gen_split[{g.id},{t}]]": 1.0,
                    f"price[balance[{g.bus},{t}]]": 1.0,
                },
                0.0,
            )
            for k, seg in enumerate(g.segments):
                stationarity(
                    f"seg[{g.id},{k},{t}]",
                    {f"price[gen_split[{g.id},{t}]]": -1.0},
                    -seg.cost,
                )
        for s in net.solar_units:
            stationarity(
                f"solar[{s.id},{t}]", {f"price[balance[{s.bus},{t}]]": 1.0}, 0.0
            )
        for b in net.buses:
            extra: dict[str, float] = {}
            for ln in net.lines:
                if ln.from_bus == b.id:
                    extra[f"price[dc_flow[{ln.id},{t}]]"] = (
                        extra.get(f"price[dc_flow[{ln.id},{t}]]", 0.0) - 1.0 / ln.reactance
                    )
                if ln.to_bus == b.id:
                    extra[f"price[dc_flow[{ln.id},{t}]]"] = (
                        extra.get(f"price[dc_flow[{ln.id},{t}]]", 0.0) + 1.0 / ln.reactance
                    )
            stationarity(f"angle[{b.id},{t}]", extra, 0.0)
        for ln in net.lines:
            stationarity(
                f"flow[{ln.id},{t}]",
                {
                    f"price[dc_flow[{ln.id},{t}]]": 1.0,
                    f"price[balance[{ln.from_bus},{t}]]": -1.0,
                    f"price[balance[{ln.to_bus},{t}]]": 1.0,
                },
                0.0,
            )

    return lp.build()


def paper_dual_structural_diff(inp: DamInput, period: int | None = None) -> list[str]:
    """Structurally compare the hand-written dual with dualize(build_dam).

    The automatic dual names variables dual[row] / rc_lo[v] / rc_up[v] and
    uses a non-negative upper-bound price; the explicit form uses price[row]
    / bound_lo[v] / bound_up[v] with both bound prices non-positive.  After
    renaming and negating the upper-bound price the programs must agree
    exactly; returns human-readable differences (empty when they do).
    """
    auto = lpcore.dualize(build_dam(inp, period=period))
    explicit = build_dam_paper_dual(inp, period=period)
    diffs: list[str] = []

    def explicit_name(auto_name: str) -> str:
        if auto_name.startswith("dual["):
            return "price[" + auto_name[len("dual[") :]
        if auto_name.startswith("rc_lo["):
            return "bound_lo[" + auto_name[len("rc_lo[") :]
        if auto_name.startswith("rc_up["):
            return "bound_up[" + auto_name[len("rc_up[") :]
        return auto_name

    flipped = {v.name for v in auto.variables if v.name.startswith("rc_up[")}
    evars = {v.name: v for v in explicit.variables}
    for v in auto.variables:
        name = explicit_name(v.name)
        ev = evars.pop(name, None)
        if ev is None:
            diffs.append(f"missing variable {name}")
            continue
        flip = -1.0 if v.name in flipped else 1.0
        lo, up = (flip * v.upper, flip * v.lower) if flip < 0 else (v.lower, v.upper)
        if (lo, up) != (ev.lower, ev.upper):
            diffs.append(f"{name}: bounds {ev.lower, ev.upper} != {(lo, up)}")
        if abs(flip * v.objective - ev.objective) > 1e-12 * (1 + abs(ev.objective)):
            diffs.append(f"{name}: objective {ev.objective} != {flip * v.objective}")
    for leftover in evars:
        diffs.append(f"extra variable {leftover}")

    econs = {c.name: c for c in explicit.constraints}
    for con in auto.constraints:
        ec = econs.pop(con.name, None)
        if ec is None:
            diffs.append(f"missing constraint {con.name}")
            continue
        if con.relation != ec.relation or abs(con.rhs - ec.rhs) > 1e-12 * (1 + abs(con.rhs)):
            diffs.append(f"{con.name}: relation/rhs mismatch")
            continue
        mapped = {}
        for var, coef in con.coefficients.items():
            flip = -1.0 if var in flipped else 1.0
            mapped[explicit_name(var)] = flip * coef
        if set(mapped) != set(ec.coefficients):
            diffs.append(f"{con.name}: different variable support")
            continue
        for var, coef in mapped.items():
            if abs(coef - ec.coefficients[var]) > 1e-12 * (1 + abs(coef)):
                diffs.append(f"{con.name}: coefficient on {var} differs")
    for leftover in econs:
        diffs.append(f"extra constraint {leftover}")

    if auto.sense != explicit.sense:
        diffs.append(f"sense mismatch: {auto.sense} != {explicit.sense}")
    return diffs
