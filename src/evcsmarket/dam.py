"""Day-ahead market clearing: welfare-maximizing DC-power-flow dispatch LP
for fixed fleet withdrawals, locational price extraction, and an explicit
hand-written dual program for cross-checking the automatic dualizer.

The market clears one LP per period.  The period LPs differ only in their
balance rhs and solar upper bounds, so `build_dam` checks an input and
builds their shared structure once, and each period owns just those two
arrays.

Prices: the solver reports marginal-value duals (see `lpcore`), so for this
maximization the raw dual of a nodal balance row is the welfare change per
MW of extra load, which is non-positive in normal conditions.  The
locational marginal price published in `DamOutcome` is the *cost of serving
one more MW at the bus*, i.e. the negation of that raw dual.  Under that
orientation an uncongested system prices every bus at the marginal
generation segment cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import lpcore
from .lpcore import EQ, LinearProgram, LpBuilder
from .model import ChargingStation, Network
from .model import _network_rules, _raising  # `validate`'s network rules


class DamStructureError(ValueError):
    """The network breaks a rule of `model.validate`, or a withdrawal or bid
    does not line up with it (bad bus, bad series length); see
    `_check_input`."""


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


@dataclass(frozen=True)
class DamInput:
    network: Network
    withdrawals: tuple[FleetWithdrawal, ...]
    station_bids: tuple[StationDamBid, ...]


@dataclass(frozen=True)
class DamOutcome:
    """Cleared market: dispatch, flows, angles, cleared bids, prices.

    `duals` is the market solve's witness of optimality: per period, the
    row duals of its LP in `build_dam`'s row order; None where unknown (an
    outcome read back from its document, which does not carry them).
    `bilevel.certify` bounds each period's welfare at them.  They take no
    part in equality and are no part of the document ("transient")."""

    gen: dict[str, tuple[float, ...]]
    gen_segments: dict[str, tuple[tuple[float, ...], ...]]
    solar: dict[str, tuple[float, ...]]
    flow: dict[str, tuple[float, ...]]
    angle: dict[str, tuple[float, ...]]
    wtp: dict[str, tuple[tuple[float, ...], ...]]
    lmp: dict[str, tuple[float, ...]]
    welfare: float
    period_welfare: tuple[float, ...]
    duals: tuple[tuple[float, ...], ...] | None = field(
        default=None, compare=False, repr=False, metadata={"transient": True}
    )


def station_bid_from_quantities(station: ChargingStation, quantities) -> StationDamBid:
    """Pack a station's scenario bid structure around fixed segment MW."""
    return StationDamBid(
        station_id=station.id,
        quantities=tuple(tuple(q) for q in quantities),
        wtp_min=tuple(seg.wtp_min for seg in station.segments),
        wtp_max=tuple(seg.wtp_max for seg in station.segments),
        widths=tuple(seg.width for seg in station.segments),
    )


def _check_input(inp: DamInput) -> None:
    """Raise DamStructureError with the first issue of `model.validate`'s
    network rules, as `validate` reports it (``path: message``), then with
    the first withdrawal or bid that does not line up with the network: a
    bus it lacks, a series off the horizon, or a quantity outside its
    segment width."""
    _network_rules(inp.network, _raising(DamStructureError))
    T = inp.network.horizon
    bus_ids = set(inp.network.bus_ids())
    for w in inp.withdrawals:
        if w.bus not in bus_ids:
            raise DamStructureError(f"withdrawal {w.fleet_id}: bus {w.bus!r} not in network")
        if len(w.power) != T:
            raise DamStructureError(f"withdrawal {w.fleet_id}: series length != horizon")
    for bid in inp.station_bids:
        if len(bid.quantities) != len(bid.widths):
            raise DamStructureError(f"station {bid.station_id}: segment count mismatch")
        for m, series in enumerate(bid.quantities):
            if {len(series), len(bid.wtp_min[m]), len(bid.wtp_max[m])} != {T}:
                raise DamStructureError(f"station {bid.station_id}: bid series length != horizon")
            for t, q in enumerate(series):
                if q < -1e-9 or q > bid.widths[m] + 1e-9:
                    raise DamStructureError(
                        f"station {bid.station_id}: quantity {q} outside segment width "
                        f"[0, {bid.widths[m]}] at period {t}"
                    )


def _balance_rhs(inp: DamInput) -> np.ndarray:
    """Balance rhs by bus (rows, in network order) and period (columns):
    the fixed demand on the bus plus the fleet withdrawals placed on it.
    Loads and withdrawals are summed apart, each from zero in list order,
    and then added: a fixed order, so every entry is reproducible bit for
    bit."""
    net = inp.network
    row = {b.id: i for i, b in enumerate(net.buses)}
    loads = np.zeros((len(net.buses), net.horizon))
    withdrawn = np.zeros_like(loads)
    for d in net.demands:
        loads[row[d.bus]] += d.load
    for w in inp.withdrawals:
        withdrawn[row[w.bus]] += w.power
    return loads + withdrawn


@dataclass(frozen=True)
class PeriodIndex:
    """Where `build_dam` placed the columns and rows of every period LP:
    the column of each generator, solar unit, bus angle and line flow and
    the balance row of each bus, all in network order; `seg[g]` holds the
    columns of generator g's cost segments."""

    gen: list[int]
    seg: tuple[list[int], ...]
    solar: list[int]
    angle: list[int]
    flow: list[int]
    balance: list[int]


def build_dam(inp: DamInput) -> tuple[tuple[LinearProgram, ...], PeriodIndex]:
    """The welfare-maximization LP of every period, in period order, and the
    `PeriodIndex` of their columns and rows.

    Periods do not couple, so the market clears one period LP at a time.
    Variables: gen/seg/solar/angle/flow; rows: gen_split (dispatch equals
    the sum of its cost segments), dc_flow (flow in MW equals the angle
    difference over the reactance, so reactances are per-unit on a 1 MVA
    base), balance (nodal balance with fixed demand plus fleet withdrawals
    on the rhs).  The reference bus angle is pinned to zero.
    Only the solar upper bounds and the balance rhs depend on the period,
    so the input is checked and the structure built once: the period LPs
    share its matrix, objective, lower bounds, relations and labels (which
    name no period), and each owns only its `upper` and `rhs`.  The
    objective leaves out the bid value sum q * price, a constant once bid
    prices clear in closed form (see `StationDamBid` and `welfare`).
    """
    _check_input(inp)
    net = inp.network
    ref = net.reference_bus()
    lp = LpBuilder(lpcore.MAX, name="dam")

    gen, seg = [], []
    for g in net.generators:
        gen.append(lp.add_variable(f"gen[{g.id}]", g.p_min, g.p_max))
        seg.append([
            lp.add_variable(f"seg[{g.id},{k}]", s.p_min, s.p_max, objective=-s.cost)
            for k, s in enumerate(g.segments)
        ])
    solar = [lp.add_variable(f"solar[{s.id}]", 0.0, 0.0) for s in net.solar_units]
    angle = {
        b.id: lp.add_variable(
            f"angle[{b.id}]", *((0.0, 0.0) if b.id == ref else (b.angle_min, b.angle_max))
        )
        for b in net.buses
    }
    flow = [lp.add_variable(f"flow[{ln.id}]", ln.flow_min, ln.flow_max) for ln in net.lines]

    for g, g_col, seg_cols in zip(net.generators, gen, seg):
        lp.add_constraint(f"gen_split[{g.id}]", {g_col: 1.0, **dict.fromkeys(seg_cols, -1.0)}, EQ, 0.0)
    for ln, f_col in zip(net.lines, flow):
        lp.add_constraint(
            f"dc_flow[{ln.id}]",
            {
                f_col: 1.0,
                angle[ln.from_bus]: -1.0 / ln.reactance,
                angle[ln.to_bus]: 1.0 / ln.reactance,
            },
            EQ,
            0.0,
        )
    coeffs: dict[str, dict[int, float]] = {b.id: {} for b in net.buses}
    for unit, col in (*zip(net.generators, gen), *zip(net.solar_units, solar)):
        coeffs[unit.bus][col] = 1.0
    for ln, f_col in zip(net.lines, flow):
        coeffs[ln.from_bus][f_col] = coeffs[ln.from_bus].get(f_col, 0.0) - 1.0
        coeffs[ln.to_bus][f_col] = coeffs[ln.to_bus].get(f_col, 0.0) + 1.0
    balance = [lp.add_constraint(f"balance[{b.id}]", coeffs[b.id], EQ, 0.0) for b in net.buses]

    structure = lp.build()
    balance_rhs = _balance_rhs(inp)
    periods = []
    for t in range(net.horizon):
        upper, rhs = structure.upper.copy(), structure.rhs.copy()
        upper[solar] = [s.available[t] for s in net.solar_units]
        rhs[balance] = balance_rhs[:, t]
        periods.append(structure.with_arrays(upper=upper, rhs=rhs))
    return tuple(periods), PeriodIndex(gen, tuple(seg), solar, list(angle.values()), flow, balance)


def solve_dam(inp: DamInput) -> DamOutcome:
    """Clear every period, extract locational prices from the nodal
    balance duals, and keep every row dual as the outcome's `duals`.
    Raises DamInfeasibleError when a period cannot be served, and
    DamNumericalError naming the period when the solve is not optimal or
    its solution violates the period LP (`lpcore.max_violation` above
    100 * FEAS_TOL).

    `build_dam` checks the input and builds every period LP once per call,
    and each is solved; a search clears each distinct fleet response once
    (see `bilevel.evaluate`)."""
    periods, index = build_dam(inp)
    net = inp.network
    primal, duals, prices, period_welfare = [], [], [], []
    wtp = {bid.station_id: [[] for _ in bid.quantities] for bid in inp.station_bids}

    for t, lp in enumerate(periods):
        sol = lpcore.solve(lp)
        if sol.status == lpcore.INFEASIBLE:
            raise DamInfeasibleError(t, "supply cannot meet fixed demand plus fleet withdrawals")
        if not sol.is_optimal:
            raise DamNumericalError(f"period {t}: solver status {sol.status}")
        violation = lpcore.max_violation(lp, sol.primal)
        if violation > lpcore.FEAS_TOL * 100.0:
            raise DamNumericalError(f"period {t}: solution violates its LP by {violation:.3e}")

        primal.append(sol.primal.tolist())
        duals.append(tuple(sol.dual.tolist()))
        prices.append((-sol.dual[index.balance]).tolist())  # see the module docstring
        for bid in inp.station_bids:
            for m, q in enumerate(bid.quantities):
                wtp[bid.station_id][m].append(bid.wtp_max[m][t] if q[t] > 0.0 else bid.wtp_min[m][t])
        period_welfare.append(welfare(inp, (lp.objective * sol.primal).tolist(), wtp, t))

    def series(col):  # a column's values by period, or one such series per column
        return tuple(row[col] for row in primal) if isinstance(col, int) else tuple(map(series, col))

    return DamOutcome(
        **{name: dict(zip(ids, map(series, cols))) for name, ids, cols in _placement(net, index)},
        wtp={k: tuple(tuple(s) for s in v) for k, v in wtp.items()},
        lmp={b.id: tuple(row[i] for row in prices) for i, b in enumerate(net.buses)},
        welfare=float(sum(period_welfare)),
        period_welfare=tuple(period_welfare),
        duals=tuple(duals),
    )


def _placement(net: Network, ix: PeriodIndex) -> tuple:
    """(`DamOutcome` field, entity ids, columns) for each dispatch family of
    the period LPs placed as `ix` says: each entity's column, or for
    `gen_segments` the columns of the generator's cost segments."""
    generators = [g.id for g in net.generators]
    return (
        ("gen", generators, ix.gen),
        ("gen_segments", generators, ix.seg),
        ("solar", [s.id for s in net.solar_units], ix.solar),
        ("flow", [ln.id for ln in net.lines], ix.flow),
        ("angle", [b.id for b in net.buses], ix.angle),
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
    period-t LP that `build_dam(inp)` returned with `ix`."""
    values = np.zeros(len(lp.variables))

    def place(col, series):  # one column, or one series per column of a list
        if isinstance(col, int):
            values[col] = series[t]
        else:
            for j, s in zip(col, series):
                place(j, s)

    for name, ids, cols in _placement(inp.network, ix):
        for key, col in zip(ids, cols):
            place(col, getattr(out, name)[key])
    return values


# ---------------------------------------------------------------------------
# explicit dual (hand-written transposition, kept independent of `dualize`)
# ---------------------------------------------------------------------------


def build_dam_paper_dual(inp: DamInput, t: int) -> LinearProgram:
    """Explicit minimization dual of period t's LP from `build_dam(inp)`,
    written out row by row, with the same period-free labels.

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
    lp = LpBuilder(lpcore.MIN, name=f"dam_dual[t={t}]")
    balance_rhs = _balance_rhs(inp)[:, t]

    NEG = (-lpcore.INF, 0.0)

    # prices of the equality rows
    split_price = {g.id: lp.add_variable(f"price[gen_split[{g.id}]]") for g in net.generators}
    flow_price = {ln.id: lp.add_variable(f"price[dc_flow[{ln.id}]]") for ln in net.lines}
    balance_price = {
        b.id: lp.add_variable(f"price[balance[{b.id}]]", objective=rhs)
        for b, rhs in zip(net.buses, balance_rhs)
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
        gen_pairs.append(bound_pair(f"gen[{g.id}]", g.p_min, g.p_max))
        seg_pairs.append(
            [bound_pair(f"seg[{g.id},{k}]", c.p_min, c.p_max) for k, c in enumerate(g.segments)]
        )
    solar_pairs = [bound_pair(f"solar[{s.id}]", 0.0, s.available[t]) for s in net.solar_units]
    angle_pairs = [
        bound_pair(f"angle[{b.id}]", *(0.0, 0.0) if b.id == ref else (b.angle_min, b.angle_max))
        for b in net.buses
    ]
    flow_pairs = [bound_pair(f"flow[{ln.id}]", ln.flow_min, ln.flow_max) for ln in net.lines]

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


def paper_dual_structural_diff(inp: DamInput, t: int) -> list[str]:
    """Structurally compare the hand-written dual of period t with the
    dualize of period t's LP from `build_dam(inp)`.

    The automatic dual labels variables dual[row] / rc_lo[v] / rc_up[v] and
    uses a non-negative upper-bound price; the explicit form uses price[row]
    / bound_lo[v] / bound_up[v] with both bound prices non-positive.  After
    relabelling and negating the upper-bound price the programs must agree
    exactly; returns human-readable differences (empty when they do).
    """
    auto = lpcore.dualize(build_dam(inp)[0][t])
    explicit = build_dam_paper_dual(inp, t)
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
