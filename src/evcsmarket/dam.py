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

import numpy as np

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
    for ln in net.lines:
        if ln.from_bus not in bus_ids or ln.to_bus not in bus_ids:
            raise DamStructureError(f"line {ln.id}: endpoint not in network")
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


@dataclass(frozen=True)
class PeriodIndex:
    """Where `build_dam` placed one period: the column of each generator,
    solar unit, bus angle and line flow and the balance row of each bus, all
    in network order; `seg[g]` holds the columns of generator g's cost
    segments."""

    gen: list[int]
    seg: tuple[list[int], ...]
    solar: list[int]
    angle: list[int]
    flow: list[int]
    balance: list[int]


def build_dam(
    inp: DamInput, period: int | None = None
) -> tuple[LinearProgram, dict[int, PeriodIndex]]:
    """Welfare-maximization LP for all periods (default) or a single one,
    and the `PeriodIndex` of each period it covers.

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
    index = {}

    for t in _periods(inp, period):
        gen, seg = [], []
        for g in net.generators:
            gen.append(lp.add_variable(f"gen[{g.id},{t}]", g.p_min, g.p_max))
            seg.append([
                lp.add_variable(f"seg[{g.id},{k},{t}]", s.p_min, s.p_max, objective=-s.cost)
                for k, s in enumerate(g.segments)
            ])
        solar = [lp.add_variable(f"solar[{s.id},{t}]", 0.0, s.available[t]) for s in net.solar_units]
        angle = {
            b.id: lp.add_variable(
                f"angle[{b.id},{t}]", *((0.0, 0.0) if b.id == ref else (b.angle_min, b.angle_max))
            )
            for b in net.buses
        }
        flow = [lp.add_variable(f"flow[{ln.id},{t}]", ln.flow_min, ln.flow_max) for ln in net.lines]

        for g, g_col, seg_cols in zip(net.generators, gen, seg):
            lp.add_constraint(
                f"gen_split[{g.id},{t}]", {g_col: 1.0, **dict.fromkeys(seg_cols, -1.0)}, EQ, 0.0
            )
        for ln, f_col in zip(net.lines, flow):
            lp.add_constraint(
                f"dc_flow[{ln.id},{t}]",
                {
                    f_col: 1.0,
                    angle[ln.from_bus]: -1.0 / ln.reactance,
                    angle[ln.to_bus]: 1.0 / ln.reactance,
                },
                EQ,
                0.0,
            )
        balance = []
        for b in net.buses:
            coeffs: dict[int, float] = {}
            for g, g_col in zip(net.generators, gen):
                if g.bus == b.id:
                    coeffs[g_col] = 1.0
            for s, s_col in zip(net.solar_units, solar):
                if s.bus == b.id:
                    coeffs[s_col] = 1.0
            for ln, f_col in zip(net.lines, flow):
                if ln.from_bus == b.id:
                    coeffs[f_col] = coeffs.get(f_col, 0.0) - 1.0
                if ln.to_bus == b.id:
                    coeffs[f_col] = coeffs.get(f_col, 0.0) + 1.0
            balance.append(
                lp.add_constraint(f"balance[{b.id},{t}]", coeffs, EQ, _balance_rhs(inp, b.id, t))
            )
        index[t] = PeriodIndex(gen, tuple(seg), solar, list(angle.values()), flow, balance)

    return lp.build(), index


def solve_dam(
    inp: DamInput, *, feas_tol: float = lpcore.FEAS_TOL, memo: dict | None = None
) -> DamOutcome:
    """Clear every period and extract locational prices from the nodal
    balance duals.  Raises DamInfeasibleError when a period cannot be
    served, and DamNumericalError naming the period when the solve is not
    optimal or its solution violates the period LP (`lpcore.max_violation`
    above 100 * feas_tol).

    `memo`, when given, holds what each period's checked solution gave
    (dispatch, prices and the LP's objective terms) under ("period", t,
    withdrawals at t in `inp.withdrawals` order), all that a period LP of
    one scenario depends on; a period found there skips the build, the
    solve, the post-check and the read.  Bid prices and welfare depend on
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
    # per entity series, in the order of the families `_read` returns
    families = [
        list(gen.values()), *gseg.values(), list(solar.values()), list(flow.values()),
        list(angle.values()), list(lmp.values()),
    ]

    for t in range(T):
        key = ("period", t, tuple(w.power[t] for w in inp.withdrawals))
        period = None if memo is None else memo.get(key)
        if period is None:
            lp, index = build_dam(inp, period=t)
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
            period = _read(lp, index[t], sol)
            if memo is not None:
                memo[key] = period

        *values, objective_terms = period
        for series, family in zip(families, values):
            for s, v in zip(series, family):
                s.append(v)
        for bid in inp.station_bids:
            for m, q in enumerate(bid.quantities):
                wtp[bid.station_id][m].append(
                    bid.wtp_max[m][t] if q[t] > 0.0 else bid.wtp_min[m][t]
                )
        period_welfare.append(welfare(inp, objective_terms, wtp, t))

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


def _read(lp: LinearProgram, ix: PeriodIndex, sol: lpcore.LpSolution) -> tuple[list, ...]:
    """One period's solution by family: generator, segment (generator by
    generator), solar, flow and angle values, the locational prices (the
    negated balance duals, see the module docstring), and `lp`'s objective
    terms (coefficient times value, column by column)."""
    x = sol.primal
    return (
        *(x[cols].tolist() for cols in (ix.gen, *ix.seg, ix.solar, ix.flow, ix.angle)),
        (-sol.dual[ix.balance]).tolist(),
        (lp.objective * x).tolist(),
    )


def welfare(inp: DamInput, objective_terms, wtp, t: int) -> float:
    """Welfare of period t: the bid value sum q * price over the bid
    segments, then the period LP's `objective_terms` (coefficient times
    value, column by column), summed in that fixed order so the result is
    reproducible bit for bit."""
    terms = [
        q[t] * wtp[bid.station_id][m][t]
        for bid in inp.station_bids
        for m, q in enumerate(bid.quantities)
    ]
    return float(sum(terms + objective_terms))


def period_values(
    inp: DamInput, out: DamOutcome, t: int, lp: LinearProgram, ix: PeriodIndex
) -> np.ndarray:
    """An outcome's period-t dispatch as one value per column of `lp`, the
    LP that `build_dam(inp, period=t)` returned with `ix`."""
    net = inp.network
    values = [0.0] * len(lp.variables)
    placed = [
        (ix.gen, [out.gen[g.id][t] for g in net.generators]),
        *((cols, [s[t] for s in out.gen_segments[g.id]]) for g, cols in zip(net.generators, ix.seg)),
        (ix.solar, [out.solar[s.id][t] for s in net.solar_units]),
        (ix.angle, [out.angle[b.id][t] for b in net.buses]),
        (ix.flow, [out.flow[ln.id][t] for ln in net.lines]),
    ]
    for cols, family in placed:
        for j, v in zip(cols, family):
            values[j] = v
    return np.array(values)


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

    for t in _periods(inp, period):
        # prices of the equality rows
        split_price = {g.id: lp.add_variable(f"price[gen_split[{g.id},{t}]]") for g in net.generators}
        flow_price = {ln.id: lp.add_variable(f"price[dc_flow[{ln.id},{t}]]") for ln in net.lines}
        balance_price = {
            b.id: lp.add_variable(f"price[balance[{b.id},{t}]]", objective=_balance_rhs(inp, b.id, t))
            for b in net.buses
        }

        # bound prices, mirroring the primal variable set: (primal label, lo, up)
        def bound_pair(var, lower, upper):
            lo = lp.add_variable(f"bound_lo[{var}]", *NEG, objective=lower)
            return var, lo, lp.add_variable(f"bound_up[{var}]", *NEG, objective=-upper)

        def stationarity(pair, extra, rhs):
            var, lo, up = pair
            lp.add_constraint(f"col[{var}]", {lo: 1.0, up: -1.0, **extra}, EQ, rhs)

        gen_pairs, seg_pairs = [], []
        for g in net.generators:
            gen_pairs.append(bound_pair(f"gen[{g.id},{t}]", g.p_min, g.p_max))
            seg_pairs.append(
                [bound_pair(f"seg[{g.id},{k},{t}]", c.p_min, c.p_max) for k, c in enumerate(g.segments)]
            )
        solar_pairs = [bound_pair(f"solar[{s.id},{t}]", 0.0, s.available[t]) for s in net.solar_units]
        angle_pairs = [
            bound_pair(f"angle[{b.id},{t}]", *(0.0, 0.0) if b.id == ref else (b.angle_min, b.angle_max))
            for b in net.buses
        ]
        flow_pairs = [bound_pair(f"flow[{ln.id},{t}]", ln.flow_min, ln.flow_max) for ln in net.lines]

        for g, gen_pair, pairs in zip(net.generators, gen_pairs, seg_pairs):
            stationarity(gen_pair, {split_price[g.id]: 1.0, balance_price[g.bus]: 1.0}, 0.0)
            for seg, pair in zip(g.segments, pairs):
                stationarity(pair, {split_price[g.id]: -1.0}, -seg.cost)
        for s, pair in zip(net.solar_units, solar_pairs):
            stationarity(pair, {balance_price[s.bus]: 1.0}, 0.0)
        for b, pair in zip(net.buses, angle_pairs):
            extra: dict[int, float] = {}
            for ln in net.lines:
                col = flow_price[ln.id]
                if ln.from_bus == b.id:
                    extra[col] = extra.get(col, 0.0) - 1.0 / ln.reactance
                if ln.to_bus == b.id:
                    extra[col] = extra.get(col, 0.0) + 1.0 / ln.reactance
            stationarity(pair, extra, 0.0)
        for ln, pair in zip(net.lines, flow_pairs):
            stationarity(
                pair,
                {
                    flow_price[ln.id]: 1.0,
                    balance_price[ln.from_bus]: -1.0,
                    balance_price[ln.to_bus]: 1.0,
                },
                0.0,
            )

    return lp.build()


def paper_dual_structural_diff(inp: DamInput, period: int | None = None) -> list[str]:
    """Structurally compare the hand-written dual with dualize(build_dam).

    The automatic dual labels variables dual[row] / rc_lo[v] / rc_up[v] and
    uses a non-negative upper-bound price; the explicit form uses price[row]
    / bound_lo[v] / bound_up[v] with both bound prices non-positive.  After
    relabelling and negating the upper-bound price the programs must agree
    exactly; returns human-readable differences (empty when they do).
    """
    auto = lpcore.dualize(build_dam(inp, period=period)[0])
    explicit = build_dam_paper_dual(inp, period=period)
    diffs: list[str] = []

    renames = {"dual[": "price[", "rc_lo[": "bound_lo[", "rc_up[": "bound_up["}
    names = []
    for label in auto.variables:
        prefix = label[: label.index("[") + 1]
        names.append(renames.get(prefix, prefix) + label[len(prefix) :])
    flip = np.array([-1.0 if label.startswith("rc_up[") else 1.0 for label in auto.variables])
    # the automatic dual in the explicit form's signs
    lower = np.where(flip < 0, -auto.upper, auto.lower)
    upper = np.where(flip < 0, -auto.lower, auto.upper)
    objective = flip * auto.objective
    matrix = flip * auto.matrix

    ecols = {label: j for j, label in enumerate(explicit.variables)}
    for j, name in enumerate(names):
        k = ecols.pop(name, None)
        if k is None:
            diffs.append(f"missing variable {name}")
            continue
        theirs = (explicit.lower[k], explicit.upper[k])
        if (lower[j], upper[j]) != theirs:
            diffs.append(f"{name}: bounds {theirs} != {(lower[j], upper[j])}")
        if abs(objective[j] - explicit.objective[k]) > 1e-12 * (1 + abs(explicit.objective[k])):
            diffs.append(f"{name}: objective {explicit.objective[k]} != {objective[j]}")
    for leftover in ecols:
        diffs.append(f"extra variable {leftover}")

    erows = {label: i for i, label in enumerate(explicit.constraints)}
    for i, label in enumerate(auto.constraints):
        k = erows.pop(label, None)
        if k is None:
            diffs.append(f"missing constraint {label}")
            continue
        rhs, their_rhs = auto.rhs[i], explicit.rhs[k]
        if auto.relations[i] != explicit.relations[k] or abs(rhs - their_rhs) > 1e-12 * (1 + abs(rhs)):
            diffs.append(f"{label}: relation/rhs mismatch")
            continue
        mapped = {names[j]: matrix[i, j] for j in np.flatnonzero(auto.matrix[i])}
        their_row = explicit.matrix[k]
        theirs = {explicit.variables[j]: their_row[j] for j in np.flatnonzero(their_row)}
        if set(mapped) != set(theirs):
            diffs.append(f"{label}: different variable support")
            continue
        for name, coef in mapped.items():
            if abs(coef - theirs[name]) > 1e-12 * (1 + abs(coef)):
                diffs.append(f"{label}: coefficient on {name} differs")
    for leftover in erows:
        diffs.append(f"extra constraint {leftover}")

    if auto.sense != explicit.sense:
        diffs.append(f"sense mismatch: {auto.sense} != {explicit.sense}")
    return diffs
