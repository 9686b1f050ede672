"""Upper-level station strategy: search over offer prices to maximize total
station profit, with the market side and the fleet side answered by exact LP
solves, plus an a-posteriori certificate of lower-level optimality.

Solution structure: for fixed offer prices the fleet program depends only on
those prices and the retail rate, and the market program depends only on the
resulting fleet withdrawals and segment quantities, so one evaluation is
fleet-then-market, each solved exactly.  The upper level is a multi-start
coordinate pattern search over a configurable offer parameterization; a
brute-force grid evaluator serves as the search oracle on small instances.

The lower-level response is piecewise constant in the offers, so within one
search most fleet and market-period LPs repeat or keep their optimum.  Each
`optimize` and `brute_force` call therefore passes one memo (a plain dict)
through every `evaluate` to `fleet.solve_fleet` and `dam.solve_dam`.  Keys
are ("fleet", fleet id, offers of the fleet's stations), mapping to that
fleet's schedule series and cost, and ("period", t, fleet withdrawals at
t), mapping to that period's dispatch, prices and objective terms.  A hit
skips the build, the solve and the post-check, all of which ran once when
the entry was stored; bid prices, period welfare and profit are computed on
every call.  A key holds every input of its LP that can change within one
scenario, and the solver is deterministic, so results match cold solves bit
for bit.  Under ("fleet", fleet id) the memo also keeps the fleet's LP,
built once, and the distinct optimal bases its solves ended in: offers
enter a fleet LP only through its station costs, so a basis that stays the
unique optimum at new offers gives the schedule with no solve, at the point
a solve would return (see `fleet.solve_fleet`).  Ties, and offers no stored
basis covers, are solved; only the first such solve of a fleet runs phase
1, and the others start phase 2 from the state it left
(`lpcore.Phase1State`), which no offer moves, so each returns the cold
solve's bits.  The memo lives only as long as the call; `certify` never
uses one.

When followers are indifferent (offer price equal to the retail rate) the
deterministic fleet tie-break resolves toward station charging, i.e. in the
stations' favor; the search is therefore optimistic with respect to
lower-level ties.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import dam as dam_mod
from . import fleet as fleet_mod
from . import lpcore
from .model import (
    PARAM_FULL,
    PARAM_PER_STATION_PERIOD,
    PARAM_STATION_BLOCKS,
    Scenario,
    ScenarioFormatError,
    scenario_from_json,
    scenario_to_json,
)
from .model import _entries, _integer, _list, _map, _number  # the document readers

BRUTE_FORCE_CAP = 1_000_000
OUTCOME_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class OfferParameter:
    """One searchable degree of freedom: a station's offer over a span of
    periods.  The search range is the envelope of the per-period offer
    bands; expansion clips back into each period's own band."""

    station_id: str
    t_start: int
    t_end: int
    lower: float
    upper: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def offer_parameters(scenario: Scenario) -> tuple[OfferParameter, ...]:
    """Parameter grid for a scenario's strategy space, under its
    `settings.parameterization`.

    `full` and `per_station_period` coincide here because every station
    serves exactly one fleet; `station_blocks` shares one parameter across
    `settings.block_width` consecutive periods.
    """
    mode = scenario.settings.parameterization
    width = scenario.settings.block_width
    T = scenario.network.horizon
    if mode in (PARAM_FULL, PARAM_PER_STATION_PERIOD):
        spans = [(t, t + 1) for t in range(T)]
    elif mode == PARAM_STATION_BLOCKS:
        spans = [(t, min(t + width, T)) for t in range(0, T, width)]
    else:
        raise ValueError(f"unknown parameterization {mode!r}")
    params = []
    for st in scenario.stations:
        for t0, t1 in spans:
            params.append(
                OfferParameter(
                    station_id=st.id,
                    t_start=t0,
                    t_end=t1,
                    lower=min(st.offer_min[t] for t in range(t0, t1)),
                    upper=max(st.offer_max[t] for t in range(t0, t1)),
                )
            )
    return tuple(params)


@dataclass(frozen=True)
class Strategy:
    """A point in the offer-parameter space; expands to per-period offers."""

    parameters: tuple[OfferParameter, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "parameters", tuple(self.parameters))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.parameters) != len(self.values):
            raise ValueError("strategy needs one value per parameter")

    def offers(self, scenario: Scenario) -> dict[str, tuple[float, ...]]:
        """Expand to a per-station offer series, clipped into each period's
        admissible band so the result always satisfies the offer bounds."""
        T = scenario.network.horizon
        series = {st.id: [None] * T for st in scenario.stations}
        for p, v in zip(self.parameters, self.values):
            st = scenario.station(p.station_id)
            for t in range(p.t_start, p.t_end):
                series[st.id][t] = min(max(v, st.offer_min[t]), st.offer_max[t])
        for st in scenario.stations:
            for t in range(T):
                if series[st.id][t] is None:
                    series[st.id][t] = st.offer_min[t]
        return {k: tuple(v) for k, v in series.items()}


def midpoint_strategy(scenario: Scenario, params=None) -> Strategy:
    params = params or offer_parameters(scenario)
    return Strategy(params, tuple(p.midpoint for p in params))


@dataclass(frozen=True)
class SearchInfo:
    evaluations: int
    starts: int
    seed: int
    budget: int


@dataclass(frozen=True)
class EquilibriumOutcome:
    """One full lower-level response to a strategy, with profit breakdown.

    `revenue` is station energy times offer price; `cost` is station energy
    times the locational price at the buying fleet's bus; `profit` is their
    difference, stored exactly as computed from the contained schedule and
    prices.
    """

    scenario: Scenario
    strategy: Strategy
    offers: dict[str, tuple[float, ...]]
    schedule: fleet_mod.FleetSchedule
    dam: dam_mod.DamOutcome
    revenue: float
    cost: float
    profit: float
    search: SearchInfo | None = None


def dam_input_for(scenario: Scenario, schedule: fleet_mod.FleetSchedule) -> dam_mod.DamInput:
    """Assemble the market input from a cleared fleet schedule."""
    withdrawals = tuple(
        dam_mod.FleetWithdrawal(f.id, f.bus, schedule.total[f.id]) for f in scenario.fleets
    )
    bids = []
    for st in scenario.stations:
        quantities = schedule.segments[st.fleet_id][st.id]
        bids.append(dam_mod.station_bid_from_quantities(st, quantities))
    return dam_mod.DamInput(scenario.network, withdrawals, tuple(bids))


def evaluate(
    strategy: Strategy, scenario: Scenario, *, memo: dict | None = None
) -> EquilibriumOutcome:
    """Fleet response to the offers, market clearing of the response, and the
    resulting station profit.

    `memo` is the lower-level memo of one search over `scenario` (see the
    module docstring): `solve_fleet` and `solve_dam` read it and add what
    they solve to it.  It must never be shared across scenarios.  Without
    it every fleet LP and market-period LP is built and solved afresh."""
    offers = strategy.offers(scenario)
    feas_tol = scenario.settings.feas_tol
    schedule = fleet_mod.solve_fleet(
        fleet_mod.fleet_input(scenario, offers), feas_tol=feas_tol, memo=memo
    )
    dam_out = dam_mod.solve_dam(dam_input_for(scenario, schedule), feas_tol=feas_tol, memo=memo)

    revenue = 0.0
    cost = 0.0
    for st in scenario.stations:
        fleet = scenario.fleet(st.fleet_id)
        series = schedule.station[st.fleet_id][st.id]
        tau = offers[st.id]
        lmp = dam_out.lmp[fleet.bus]
        for t in range(scenario.network.horizon):
            revenue += series[t] * tau[t]
            cost += series[t] * lmp[t]
    return EquilibriumOutcome(
        scenario=scenario,
        strategy=strategy,
        offers=offers,
        schedule=schedule,
        dam=dam_out,
        revenue=float(revenue),
        cost=float(cost),
        profit=float(revenue - cost),
    )


class _Evaluator:
    """Memoizing wrapper; the budget counts distinct strategy evaluations.

    `cache` maps rounded strategy values to outcomes; `memo` is the
    lower-level memo that every evaluation of this search shares, so each
    distinct fleet LP and market-period LP is solved once per search."""

    def __init__(self, scenario, params, budget):
        self.scenario = scenario
        self.params = params
        self.budget = budget
        self.used = 0
        self.cache: dict[tuple, EquilibriumOutcome] = {}
        self.memo: dict = {}

    def key(self, values):
        return tuple(round(v, 9) for v in values)

    def __call__(self, values):
        key = self.key(values)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        if self.used >= self.budget:
            return None
        self.used += 1
        outcome = evaluate(Strategy(self.params, values), self.scenario, memo=self.memo)
        self.cache[key] = outcome
        return outcome


def _better(candidate: EquilibriumOutcome, incumbent: EquilibriumOutcome | None) -> bool:
    """Deterministic preference: higher profit, then lexicographically
    smaller expanded offer values."""
    if incumbent is None:
        return True
    if candidate.profit > incumbent.profit + 1e-12:
        return True
    if candidate.profit < incumbent.profit - 1e-12:
        return False
    return candidate.strategy.values < incumbent.strategy.values


def optimize(
    scenario: Scenario,
    budget: int | None = None,
    seed: int | None = None,
) -> EquilibriumOutcome:
    """Multi-start coordinate pattern search over the offer parameters.

    Starts at the band midpoint, both band edges, and seeded random points;
    sweeps each coordinate up and down by the current step (initially a
    quarter of the band, halving down to the configured minimum step).
    Deterministic given the seed; never produces offers outside the
    per-period bands (expansion clips).  The budget caps the number of
    distinct strategies evaluated.  Raises ValueError, before evaluating
    anything, on a budget below 1 or a `step_min` that is not positive (the
    step would never fall below it).
    """
    settings = scenario.settings
    budget = settings.budget if budget is None else budget
    seed = settings.seed if seed is None else seed
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if settings.step_min <= 0:
        raise ValueError("settings.step_min must be > 0")
    params = offer_parameters(scenario)
    ev = _Evaluator(scenario, params, budget)
    rng = np.random.default_rng(seed)

    lo = np.array([p.lower for p in params])
    hi = np.array([p.upper for p in params])
    span = hi - lo

    starts = [0.5 * (lo + hi), lo.copy(), hi.copy()]
    while len(starts) < max(settings.multistarts, 1):
        starts.append(lo + rng.uniform(0.0, 1.0, len(params)) * span)

    best: EquilibriumOutcome | None = None
    n_started = 0
    for start in starts:
        if ev.used >= budget and ev.key(tuple(start)) not in ev.cache:
            break
        n_started += 1
        current = ev(tuple(start))
        if current is None:
            break
        if _better(current, best):
            best = current
        x = np.array(current.strategy.values)
        frac = 0.25
        exhausted = False
        while not exhausted and float(np.max(frac * span)) >= settings.step_min:
            improved = None
            for d in range(len(params)):
                step = frac * span[d]
                if step <= 0.0:
                    continue
                for sgn in (1.0, -1.0):
                    cand = x.copy()
                    cand[d] = min(max(cand[d] + sgn * step, lo[d]), hi[d])
                    if cand[d] == x[d]:
                        continue
                    outcome = ev(tuple(cand))
                    if outcome is None:
                        exhausted = True
                        break
                    if outcome.profit > current.profit + 1e-12 and (
                        improved is None or _better(outcome, improved)
                    ):
                        improved = outcome
                if exhausted:
                    break
            if improved is not None:
                current = improved
                x = np.array(current.strategy.values)
                if _better(current, best):
                    best = current
            elif not exhausted:
                frac *= 0.5
        if _better(current, best):
            best = current

    assert best is not None
    info = SearchInfo(evaluations=ev.used, starts=n_started, seed=seed, budget=budget)
    return replace(best, search=info)


def brute_force(scenario: Scenario, levels: int) -> EquilibriumOutcome:
    """Exhaustive grid over the offer parameters, `levels` points per
    dimension; exact argmax over the grid with the same deterministic
    tie-break as `optimize`.  Refuses grids above BRUTE_FORCE_CAP points."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    params = offer_parameters(scenario)
    total = levels ** len(params)
    if total > BRUTE_FORCE_CAP:
        raise ValueError(f"grid of {total} evaluations exceeds cap {BRUTE_FORCE_CAP}")
    axes = []
    for p in params:
        if levels == 1 or p.upper == p.lower:
            axes.append([0.5 * (p.lower + p.upper)] if p.upper == p.lower else [p.lower])
        else:
            axes.append(list(np.linspace(p.lower, p.upper, levels)))
    best: EquilibriumOutcome | None = None
    count = 0
    memo: dict = {}
    for combo in itertools.product(*axes):
        outcome = evaluate(Strategy(params, combo), scenario, memo=memo)
        count += 1
        if _better(outcome, best):
            best = outcome
    assert best is not None
    return replace(best, search=SearchInfo(evaluations=count, starts=0, seed=-1, budget=count))


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Itemized a-posteriori check of one equilibrium outcome.

    Residuals are relative (scaled by the magnitude of what they compare).
    Feasibility families are checked against `feas_tolerance`, the two
    strong-duality families and the profit identity against `tolerance`.
    `worst` says where each family's residual peaks (the first place on
    ties): a period for `offer_bounds` and the market families, a fleet id
    for the fleet families.  `profit_identity` is one sum over the whole
    outcome and has no entry.
    """

    residuals: dict[str, float]
    tolerance: float
    feas_tolerance: float
    worst: dict[str, int | str | None] = field(default_factory=dict)

    _DUALITY_FAMILIES = ("dam_strong_duality", "fleet_strong_duality", "profit_identity")

    @property
    def max_violation(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    @property
    def passed(self) -> bool:
        for family, value in self.residuals.items():
            limit = self.tolerance if family in self._DUALITY_FAMILIES else self.feas_tolerance
            if not (value <= limit):
                return False
        return True

    def failing(self) -> dict[str, float]:
        out = {}
        for family, value in self.residuals.items():
            limit = self.tolerance if family in self._DUALITY_FAMILIES else self.feas_tolerance
            if not (value <= limit):
                out[family] = value
        return out

    def summary(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        lines = [f"certificate: {mark} (duality tol {self.tolerance:g}, feasibility tol {self.feas_tolerance:g})"]
        for family in sorted(self.residuals):
            line = f"  {family}: {self.residuals[family]:.3e}"
            if self.worst.get(family) is not None:
                kind = "fleet" if family.startswith("fleet_") else "period"
                line += f" at {kind} {self.worst[family]}"
            lines.append(line)
        return "\n".join(lines)


def certify(outcome: EquilibriumOutcome | None, tol: float | None = None) -> Certificate:
    """Check every constraint family of the bidding structure on an outcome:
    offer bounds, fleet-side feasibility and cost optimality, market-side
    feasibility and welfare optimality at the outcome's locational prices,
    and the profit identity.  Refuses when there is no outcome.

    Feasibility is checked against the LP the solver built: the schedule of
    each fleet against `fleet.build_fleet` for that fleet, the dispatch of
    each period against `dam.build_dam` for that period, both with
    `lpcore.max_violation`, whose scaling the solvers' own post-checks share
    at a looser limit.  A value that is not finite fails its family.

    Optimality is proved by weak duality (`lpcore.lagrangian_bound`): each
    fleet LP and each market-period LP is re-solved, and the bound of a dual
    vector is compared with the outcome's cost or welfare.  Any multipliers
    give a sound bound, so the check does not trust the simplex: on the
    fleet side the multipliers are the re-solve's duals, on the market side
    the re-solve's duals with the balance rows replaced by the published
    prices.  Each re-solve starts at the outcome's own schedule or dispatch
    (`lpcore.solve(..., start=...)`), so an optimal outcome costs few
    pivots; a suboptimal one still fails, because the re-solve goes on to
    the optimum, and a point that cannot start a solve (NaN, infeasible)
    falls back to the crash start.  A market period whose gap the
    point-started bound leaves above `tol` is bounded again from the crash
    (see `_dam_residuals`).  A re-solve that is not optimal makes its
    residual infinite, so a bad outcome fails the certificate instead of
    raising; so does a series shorter than the horizon (see `_padded`)."""
    if outcome is None:
        raise ValueError("no outcome to certify")
    outcome = _padded(outcome)
    scenario = outcome.scenario
    tol = scenario.settings.duality_tol if tol is None else tol
    feas_tol = max(scenario.settings.feas_tol * 10.0, 1e-12)
    T = scenario.network.horizon
    residuals: dict[str, float] = {}
    worst: dict[str, int | str | None] = {}

    # offer bounds (upper-level constraint on the strategy)
    per_period = []
    for t in range(T):
        viol = 0.0
        for st in scenario.stations:
            tau = outcome.offers[st.id][t]
            viol = max(viol, _band_violation(tau, st.offer_min[t], st.offer_max[t]))
        per_period.append((t, viol))
    residuals["offer_bounds"], worst["offer_bounds"] = _peak(per_period)

    # fleet side: the stored schedule against each fleet's LP, and the
    # schedule cost vs the sum of per-fleet bounds
    fleet_checks = _fleet_checks(outcome)
    residuals["fleet_feasibility"], worst["fleet_feasibility"] = _peak(
        (fid, feas) for fid, (feas, _) in fleet_checks.items()
    )
    residuals["fleet_strong_duality"] = _rel_gap(
        outcome.schedule.cost, sum(bound for _, bound in fleet_checks.values())
    )
    worst["fleet_strong_duality"] = _peak(
        (fid, _rel_gap(outcome.schedule.fleet_costs[fid], bound))
        for fid, (_, bound) in fleet_checks.items()
    )[1]

    # market-side checks per period
    dinput = dam_input_for(scenario, outcome.schedule)
    try:
        dam_feas, dam_gap = _dam_residuals(dinput, outcome, tol)
    except (dam_mod.DamStructureError, lpcore.LpDefinitionError):
        # segment quantities outside their widths, or a withdrawal that is
        # not finite; fleet_feasibility names them
        dam_feas = dam_gap = (math.inf, None)
    residuals["dam_feasibility"], worst["dam_feasibility"] = dam_feas
    residuals["dam_strong_duality"], worst["dam_strong_duality"] = dam_gap

    # profit decomposition recomputed from raw outputs
    recomputed = 0.0
    for st in scenario.stations:
        fleet = scenario.fleet(st.fleet_id)
        series = outcome.schedule.station[st.fleet_id][st.id]
        for t in range(T):
            recomputed += series[t] * (outcome.offers[st.id][t] - outcome.dam.lmp[fleet.bus][t])
    residuals["profit_identity"] = _rel_gap(recomputed, outcome.profit)

    return Certificate(residuals=residuals, tolerance=tol, feas_tolerance=feas_tol, worst=worst)


def _padded(outcome: EquilibriumOutcome) -> EquilibriumOutcome:
    """The outcome with every series that `certify` reads present and filled
    up to the horizon with NaN, so that a missing entity or period fails the
    family reading it, as a NaN there does, instead of raising KeyError or
    IndexError.  The entity keys (buses, generators, lines, solar units,
    fleets, stations, segments) come from the scenario; a fleet without a
    cost gets a NaN one."""
    scenario = outcome.scenario
    net = scenario.network
    T = net.horizon

    def pad(tree, shape):
        # shape: None for a series, a row count for a tuple of series, or a
        # dict of shapes by entity id; a missing tree (None) is empty
        if shape is None:
            series = tuple(tree or ())
            return series + (math.nan,) * (T - len(series))
        if isinstance(shape, int):
            rows = tuple(pad(row, None) for row in tree or ())
            return rows + (pad(None, None),) * (shape - len(rows))
        tree = tree or {}
        return {**tree, **{k: pad(tree.get(k), sub) for k, sub in shape.items()}}

    def with_padded(obj, **shapes):
        return replace(obj, **{name: pad(getattr(obj, name), s) for name, s in shapes.items()})

    def ids(items):
        return dict.fromkeys(x.id for x in items)

    segments = {f.id: {} for f in scenario.fleets}
    for st in scenario.stations:
        segments.setdefault(st.fleet_id, {})[st.id] = len(st.segments)
    station = {fid: dict.fromkeys(rows) for fid, rows in segments.items()}
    fleets = ids(scenario.fleets)
    schedule = with_padded(
        outcome.schedule,
        total=fleets,
        home=fleets,
        energy=fleets,
        station=station,
        segments=segments,
    )
    schedule = replace(
        schedule, fleet_costs={**dict.fromkeys(fleets, math.nan), **schedule.fleet_costs}
    )
    dam = with_padded(
        outcome.dam,
        gen=ids(net.generators),
        gen_segments={g.id: len(g.segments) for g in net.generators},
        solar=ids(net.solar_units),
        flow=ids(net.lines),
        angle=ids(net.buses),
        lmp=ids(net.buses),
        wtp={st.id: len(st.segments) for st in scenario.stations},
    )
    return with_padded(replace(outcome, schedule=schedule, dam=dam), offers=ids(scenario.stations))


def _peak(items) -> tuple[float, int | str | None]:
    """Largest value among (key, value) pairs and the first key attaining
    it; (0.0, None) when there are none."""
    best, where = 0.0, None
    for key, value in items:
        if where is None or value > best:
            best, where = value, key
    return best, where


def _band_violation(x: float, lo: float, up: float) -> float:
    """How far x lies outside [lo, up], scaled as `lpcore.max_violation`
    scales a bound; inf when x is not finite."""
    if not math.isfinite(x):
        return math.inf
    scale = 1.0 + max(abs(lo), abs(up))
    return max((lo - x) / scale, (x - up) / scale)


def _rel_gap(a: float, b: float) -> float:
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _fleet_checks(outcome: EquilibriumOutcome) -> dict[str, tuple[float, float]]:
    """Per fleet id, the stored schedule's `lpcore.max_violation` of the
    fleet's LP and a lower bound on the fleet's least charging cost at the
    outcome's offers: `lpcore.lagrangian_bound` of that LP at the duals of a
    re-solve started at the stored schedule (`fleet.schedule_values`).  The
    bound is -inf when the re-solve is not optimal, or when
    the offers leave their bands (which `offer_bounds` reports); the
    schedule is then checked against the LP at the band floors, since no
    price enters a fleet constraint."""
    scenario = outcome.scenario
    finput = fleet_mod.fleet_input(scenario, outcome.offers)
    checks = {}
    for f in scenario.fleets:
        try:
            lp, cols = fleet_mod.build_fleet(finput, f)
            priced = True
        except fleet_mod.FleetStructureError:
            floors = {st.id: st.offer_min for st in scenario.stations}
            lp, cols = fleet_mod.build_fleet(fleet_mod.fleet_input(scenario, floors), f)
            priced = False
        values = fleet_mod.schedule_values(outcome.schedule, f, lp, cols)
        bound = -math.inf
        if priced:
            sol = lpcore.solve(lp, feas_tol=scenario.settings.feas_tol, start=values)
            if sol.is_optimal:
                bound = lpcore.lagrangian_bound(lp, sol.dual)
        checks[f.id] = (lpcore.max_violation(lp, values), bound)
    return checks


def _dam_residuals(dinput, outcome, tol):
    """Per-period feasibility of the stored dispatch and bid prices, and the
    welfare gap to a weak-duality bound; returns two (peak residual, period)
    pairs.

    Each period's LP is re-solved from the stored dispatch
    (`dam.period_values`, see `_welfare_bound`), and its balance-row
    multipliers are replaced by the outcome's prices (negated, see `dam`).
    The Lagrangian bound of those multipliers is an upper bound on the
    period's welfare whatever the prices are, and it meets the stored welfare only when they
    are dual optimal, so a corrupted price leaves a gap.  When the prices
    are not unique (a generator exactly at a segment breakpoint, a line
    exactly at its limit), the re-solve started at the dispatch may end in
    another optimal basis than the market solve's, whose other duals need
    not complete the published prices.  So a period whose gap exceeds `tol`
    is bounded again from a crash-started re-solve, which repeats the
    market solve's basis, and keeps the smaller of the two bounds (both are
    sound).  At prices from this solver the bound is then tight; at prices
    taken from another solver's degenerate optimum the check is
    conservative.

    Bid prices are not market LP columns (see `dam.StationDamBid`): their
    value q * price joins the welfare, and the dual value of the bound pair
    a column would carry, max(q * wtp_min, q * wtp_max), joins the bound."""
    net = dinput.network
    feas = []
    gaps = []

    for t in range(net.horizon):
        lp, index = dam_mod.build_dam(dinput, t)
        values = dam_mod.period_values(dinput, outcome.dam, t, lp, index)
        worst_feas = lpcore.max_violation(lp, values)
        bid_dual = 0.0
        for bid in dinput.station_bids:
            for m, q in enumerate(bid.quantities):
                lo, up = bid.wtp_min[m][t], bid.wtp_max[m][t]
                price = outcome.dam.wtp[bid.station_id][m][t]
                worst_feas = max(worst_feas, _band_violation(price, lo, up))
                bid_dual += max(q[t] * lo, q[t] * up)
        feas.append((t, worst_feas))

        welfare = dam_mod.welfare(dinput, (lp.objective * values).tolist(), outcome.dam.wtp, t)
        bound = _welfare_bound(lp, index, outcome, t, values)
        if not _rel_gap(welfare, bound + bid_dual) <= tol:
            bound = min(bound, _welfare_bound(lp, index, outcome, t))
        gaps.append((t, _rel_gap(welfare, bound + bid_dual)))

    return _peak(feas), _peak(gaps)


def _welfare_bound(
    lp: lpcore.LinearProgram,
    ix: dam_mod.PeriodIndex,
    outcome: EquilibriumOutcome,
    t: int,
    values: np.ndarray | None = None,
) -> float:
    """Upper bound on the optimum of `lp`, the period-t market LP placed as
    `ix` says: the Lagrangian bound at the duals of a re-solve started at
    the outcome's dispatch `values` (`dam.period_values`), or from the
    crash when `values` is None, with the balance rows at the outcome's
    prices.  inf when the re-solve is not optimal."""
    sol = lpcore.solve(lp, feas_tol=outcome.scenario.settings.feas_tol, start=values)
    if not sol.is_optimal:
        return math.inf
    y = sol.dual.tolist()
    for row, b in zip(ix.balance, outcome.scenario.network.buses):
        y[row] = -outcome.dam.lmp[b.id][t]
    return lpcore.lagrangian_bound(lp, y)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def outcome_to_json(outcome: EquilibriumOutcome) -> dict:
    return {
        "schema_version": OUTCOME_SCHEMA_VERSION,
        "scenario": scenario_to_json(outcome.scenario),
        "offers": {k: list(v) for k, v in sorted(outcome.offers.items())},
        "strategy": {
            "values": list(outcome.strategy.values),
            "parameters": [
                {
                    "station": p.station_id,
                    "t_start": p.t_start,
                    "t_end": p.t_end,
                    "lower": p.lower,
                    "upper": p.upper,
                }
                for p in outcome.strategy.parameters
            ],
        },
        "revenue": outcome.revenue,
        "cost": outcome.cost,
        "profit": outcome.profit,
        "schedule": {
            "total": {k: list(v) for k, v in sorted(outcome.schedule.total.items())},
            "home": {k: list(v) for k, v in sorted(outcome.schedule.home.items())},
            "station": {
                f: {s: list(v) for s, v in sorted(stations.items())}
                for f, stations in sorted(outcome.schedule.station.items())
            },
            "segments": {
                f: {s: [list(row) for row in v] for s, v in sorted(stations.items())}
                for f, stations in sorted(outcome.schedule.segments.items())
            },
            "energy": {k: list(v) for k, v in sorted(outcome.schedule.energy.items())},
            "fleet_costs": dict(sorted(outcome.schedule.fleet_costs.items())),
            "cost": outcome.schedule.cost,
        },
        "dam": {
            "lmp": {k: list(v) for k, v in sorted(outcome.dam.lmp.items())},
            "gen": {k: list(v) for k, v in sorted(outcome.dam.gen.items())},
            "gen_segments": {
                k: [list(row) for row in v] for k, v in sorted(outcome.dam.gen_segments.items())
            },
            "solar": {k: list(v) for k, v in sorted(outcome.dam.solar.items())},
            "flow": {k: list(v) for k, v in sorted(outcome.dam.flow.items())},
            "angle": {k: list(v) for k, v in sorted(outcome.dam.angle.items())},
            "wtp": {k: [list(row) for row in v] for k, v in sorted(outcome.dam.wtp.items())},
            "welfare": outcome.dam.welfare,
            "period_welfare": list(outcome.dam.period_welfare),
        },
        "search": None
        if outcome.search is None
        else {
            "evaluations": outcome.search.evaluations,
            "starts": outcome.search.starts,
            "seed": outcome.search.seed,
            "budget": outcome.search.budget,
        },
    }


def outcome_from_json(data: dict) -> EquilibriumOutcome:
    """Rebuild a full outcome (including the embedded scenario) from the
    document written by `outcome_to_json`; used to re-certify cached runs.
    `schema_version` (1 when absent), period bounds and search counts are
    integers and every other number a number, by the rules of
    `scenario_from_json`.  Any other value, or a version other than
    OUTCOME_SCHEMA_VERSION, raises ScenarioFormatError naming its path
    (``schedule.home.f1[0]``; within the embedded scenario,
    ``fleets[0].energy_max``), as does a missing key."""
    series = partial(_map, read=_list)  # {id: [number, ...]}
    rows = partial(_list, read=_list)  # [[number, ...], ...]
    try:
        version = _integer(data.get("schema_version", OUTCOME_SCHEMA_VERSION), (), "schema_version")
        if version != OUTCOME_SCHEMA_VERSION:
            raise ScenarioFormatError(f"schema_version: unsupported version {version}")
        scenario = scenario_from_json(data["scenario"])
        params = tuple(
            OfferParameter(
                p["station"],
                _integer(p["t_start"], at, "t_start"),
                _integer(p["t_end"], at, "t_end"),
                _number(p["lower"], at, "lower"),
                _number(p["upper"], at, "upper"),
            )
            for at, p in _entries(data["strategy"]["parameters"], ("strategy",), "parameters")
        )
        strategy = Strategy(params, _list(data["strategy"]["values"], ("strategy",), "values"))
        sched, at = data["schedule"], ("schedule",)
        schedule = fleet_mod.FleetSchedule(
            horizon=scenario.network.horizon,
            total=series(sched["total"], at, "total"),
            home=series(sched["home"], at, "home"),
            station=_map(sched["station"], at, "station", series),
            segments=_map(sched["segments"], at, "segments", partial(_map, read=rows)),
            energy=series(sched["energy"], at, "energy"),
            fleet_costs=_map(sched["fleet_costs"], at, "fleet_costs"),
            cost=_number(sched["cost"], at, "cost"),
        )
        dam_data, at = data["dam"], ("dam",)
        dam_out = dam_mod.DamOutcome(
            horizon=scenario.network.horizon,
            gen=series(dam_data["gen"], at, "gen"),
            gen_segments=_map(dam_data["gen_segments"], at, "gen_segments", rows),
            solar=series(dam_data["solar"], at, "solar"),
            flow=series(dam_data["flow"], at, "flow"),
            angle=series(dam_data["angle"], at, "angle"),
            wtp=_map(dam_data["wtp"], at, "wtp", rows),
            lmp=series(dam_data["lmp"], at, "lmp"),
            welfare=_number(dam_data["welfare"], at, "welfare"),
            period_welfare=_list(dam_data["period_welfare"], at, "period_welfare"),
        )
        s = data.get("search")
        search = SearchInfo(**_map(s, (), "search", _integer)) if s else None
        return EquilibriumOutcome(
            scenario=scenario,
            strategy=strategy,
            offers=series(data["offers"], (), "offers"),
            schedule=schedule,
            dam=dam_out,
            revenue=_number(data["revenue"], (), "revenue"),
            cost=_number(data["cost"], (), "cost"),
            profit=_number(data["profit"], (), "profit"),
            search=search,
        )
    except ScenarioFormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ScenarioFormatError(f"malformed outcome document: {exc}") from exc


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "passed": cert.passed,
        "tolerance": cert.tolerance,
        "feas_tolerance": cert.feas_tolerance,
        "max_violation": cert.max_violation,
        "residuals": dict(sorted(cert.residuals.items())),
        "worst": dict(sorted(cert.worst.items())),
        "failing": cert.failing(),
    }


def dump_outcome(outcome: EquilibriumOutcome, fh) -> None:
    json.dump(outcome_to_json(outcome), fh, indent=2, sort_keys=True)
    fh.write("\n")
