"""Upper-level station strategy: search over offer prices to maximize total
station profit, with the market side and the fleet side answered by exact LP
solves, plus an a-posteriori certificate of lower-level optimality that
bounds each market period at the market solve's own duals
(`dam.DamOutcome.duals`) and each fleet at a re-solve's.

Solution structure: for fixed offer prices the fleet program depends only on
those prices and the retail rate, and the market program depends only on the
resulting fleet withdrawals and segment quantities, so one evaluation is
fleet-then-market, each solved exactly.  The upper level is a multi-start
coordinate pattern search over a configurable offer parameterization; a
brute-force grid evaluator serves as the search oracle on small instances.

The lower-level response is piecewise constant in the offers, so within one
search most fleet LPs keep their optimum and most fleet responses repeat.
Each `optimize` and `brute_force` call therefore passes one `Memo` through
every `evaluate`, one part per lower level.  `Memo.fleets` is handed to
`fleet.solve_fleet`, which keeps there, by fleet id, the fleet's LP, built
once, its schedule series and cost at each offer vector it was answered
at, and the distinct optimal bases its solves ended in, each with the
schedule series at its point.  Offers enter a fleet LP only through its
station costs, so a basis that stays the unique optimum at new offers
gives the schedule with no solve, at the point a solve would return, and
only the cost is computed at the new offers (see `fleet.solve_fleet`).
Ties, and offers no stored basis covers, are solved; only the first such
solve of a fleet runs phase 1, and the others start phase 2 from the state
it left (`lpcore.Phase1State`), which no offer moves, so each returns the
cold solve's bits.  `Memo.markets` maps a fleet response (fleet totals,
station segment quantities: all that the market input reads of it) to its
cleared market; bid prices and welfare depend on nothing else, so a
response already cleared skips the market input, every period LP and
their post-checks, and only profit is computed on every call.  A key holds
every input that can change within one scenario, and the solver is
deterministic, so results match cold solves bit for bit.  An `evaluate`
given no memo takes the same steps and keeps nothing after it: each
fleet's LP is dropped once the fleet is answered.  A memo lives only as
long as the search; `certify` never uses one.

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
from .model import _document, _integer, _list, _object  # the document I/O

BRUTE_FORCE_CAP = 1_000_000
OUTCOME_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class OfferParameter:
    """One searchable degree of freedom: a station's offer over a span of
    periods.  The search range is the envelope of the per-period offer
    bands; expansion clips back into each period's own band."""

    station_id: str = field(metadata={"key": "station"})
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
    `settings.block_width` consecutive periods, and raises ValueError when
    that width is below 1.
    """
    mode = scenario.settings.parameterization
    if mode not in (PARAM_FULL, PARAM_PER_STATION_PERIOD, PARAM_STATION_BLOCKS):
        raise ValueError(f"unknown parameterization {mode!r}")
    width = scenario.settings.block_width if mode == PARAM_STATION_BLOCKS else 1
    if width < 1:
        raise ValueError("settings.block_width must be >= 1")
    T = scenario.network.horizon
    spans = [(t, min(t + width, T)) for t in range(0, T, width)]
    return tuple(
        OfferParameter(
            st.id,
            t0,
            t1,
            min(st.offer_min[t] for t in range(t0, t1)),
            max(st.offer_max[t] for t in range(t0, t1)),
        )
        for st in scenario.stations
        for t0, t1 in spans
    )


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
        stations = {st.id: st for st in scenario.stations}
        series = {sid: list(st.offer_min) for sid, st in stations.items()}
        for p, v in zip(self.parameters, self.values):
            st = stations[p.station_id]
            for t in range(p.t_start, p.t_end):
                series[st.id][t] = min(max(v, st.offer_min[t]), st.offer_max[t])
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


@dataclass
class Memo:
    """The lower-level memo of one search over one scenario (see the module
    docstring): `fleets` is `fleet.solve_fleet`'s memo, `markets` maps a
    fleet response (fleet totals in scenario order, station segment
    quantities in scenario order) to its cleared `DamOutcome`."""

    fleets: dict = field(default_factory=dict)
    markets: dict = field(default_factory=dict)


def evaluate(
    strategy: Strategy, scenario: Scenario, *, memo: Memo | None = None
) -> EquilibriumOutcome:
    """Fleet response to the offers, market clearing of the response, and the
    resulting station profit.

    `memo` is the lower-level memo of one search over `scenario`.
    `solve_fleet` reads `memo.fleets` and adds what it solves, and the
    market is cleared once per distinct fleet response, stored in
    `memo.markets` only after `solve_dam` returns.  Without a memo the call
    takes the same steps, gives `solve_fleet` no memo (so each fleet's LP
    is dropped once the fleet is answered) and clears the market into an
    empty store.  A memo must never be shared across scenarios."""
    fleets = None if memo is None else memo.fleets
    markets = {} if memo is None else memo.markets
    offers = strategy.offers(scenario)
    schedule = fleet_mod.solve_fleet(fleet_mod.fleet_input(scenario, offers), memo=fleets)
    response = (
        tuple(schedule.total[f.id] for f in scenario.fleets),
        tuple(schedule.segments[st.fleet_id][st.id] for st in scenario.stations),
    )
    dam_out = markets.get(response)
    if dam_out is None:
        dam_out = markets[response] = dam_mod.solve_dam(dam_input_for(scenario, schedule))

    revenue = 0.0
    cost = 0.0
    buses = {f.id: f.bus for f in scenario.fleets}
    for st in scenario.stations:
        series = schedule.station[st.fleet_id][st.id]
        tau = offers[st.id]
        lmp = dam_out.lmp[buses[st.fleet_id]]
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
    lower-level `Memo` that every evaluation of this search shares, so each
    distinct fleet response is cleared once per search."""

    def __init__(self, scenario, params, budget):
        self.scenario = scenario
        self.params = params
        self.budget = budget
        self.used = 0
        self.cache: dict[tuple, EquilibriumOutcome] = {}
        self.memo = Memo()

    def __call__(self, values):
        """The outcome of the strategy at `values`: its cached outcome when
        it was evaluated before, else a new evaluation while the budget
        lasts, else None.  This is the search's one budget rule."""
        key = tuple(round(v, 9) for v in values)
        if key not in self.cache:
            if self.used >= self.budget:
                return None
            self.used += 1
            self.cache[key] = evaluate(Strategy(self.params, values), self.scenario, memo=self.memo)
        return self.cache[key]


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

    Starts at the band midpoint, both band edges, and seeded random points
    up to `settings.multistarts` starts (the three fixed ones always run).
    From each start it sweeps each coordinate up and down by the current
    step (initially a quarter of the band, halving down to the configured
    minimum step) and moves to the best improving point of the sweep.
    Deterministic given the seed; never produces offers outside the
    per-period bands (expansion clips).

    The budget caps the number of distinct strategies evaluated, and
    `_Evaluator` alone applies it: a strategy evaluated before costs
    nothing.  Once the budget is spent, the sweep under way keeps the best
    move it found and its start ends.  After that, a start is taken only if
    it was already evaluated, and its sweep stops at the first move that
    was not.  Raises ValueError, before evaluating anything, on a budget
    below 1, a `step_min` that is not positive (the step would never fall
    below it) or a parameter grid `offer_parameters` refuses.
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
        current = outcome = ev(tuple(start))
        if current is None:
            break
        n_started += 1
        if _better(current, best):
            best = current
        x = np.array(current.strategy.values)
        frac = 0.25
        # a None from the evaluator (budget spent) ends this start's sweeps
        while outcome is not None and float(np.max(frac * span, initial=0.0)) >= settings.step_min:
            improved = None
            for d, sgn in itertools.product(range(len(params)), (1.0, -1.0)):
                step = frac * span[d]
                if step <= 0.0:
                    continue
                cand = x.copy()
                cand[d] = min(max(cand[d] + sgn * step, lo[d]), hi[d])
                if cand[d] == x[d]:
                    continue
                outcome = ev(tuple(cand))
                if outcome is None:
                    break
                if outcome.profit > current.profit + 1e-12 and (
                    improved is None or _better(outcome, improved)
                ):
                    improved = outcome
            if improved is None:
                frac *= 0.5
            else:
                current = improved
                x = np.array(current.strategy.values)
                if _better(current, best):
                    best = current

    assert best is not None
    info = SearchInfo(evaluations=ev.used, starts=n_started, seed=seed, budget=budget)
    return replace(best, search=info)


def brute_force(scenario: Scenario, levels: int) -> EquilibriumOutcome:
    """Exhaustive grid over the offer parameters, `levels` points per
    dimension (one, the band, where the band is a point); exact argmax over
    the grid with the same deterministic tie-break as `optimize`.  Refuses,
    before building any axis, a grid of more than BRUTE_FORCE_CAP points."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    params = offer_parameters(scenario)
    sizes = [1 if p.upper == p.lower else levels for p in params]
    total = math.prod(sizes)
    if total > BRUTE_FORCE_CAP:
        raise ValueError(f"grid of {total} evaluations exceeds cap {BRUTE_FORCE_CAP}")
    axes = [
        [p.lower] if n == 1 else np.linspace(p.lower, p.upper, n) for p, n in zip(params, sizes)
    ]
    best: EquilibriumOutcome | None = None
    count = 0
    memo = Memo()
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
        return not self.failing()

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


def certify(outcome: EquilibriumOutcome | None) -> Certificate:
    """Check every constraint family of the bidding structure on an outcome:
    offer bounds, fleet-side feasibility and cost optimality, market-side
    feasibility and welfare optimality at the outcome's locational prices,
    and the profit identity.  Refuses when there is no outcome.

    Feasibility is checked against the LP the solver built: the schedule of
    each fleet against `fleet.build_fleet` for that fleet, the dispatch of
    each period against its LP from `dam.build_dam`, both with
    `lpcore.max_violation`, whose scaling the solvers' own post-checks share
    at a looser limit.  A value that is not finite fails its family.

    Optimality is proved by weak duality (`lpcore.lagrangian_bound`): the
    bound of a dual vector is compared with the outcome's cost or welfare.
    Any multipliers give a sound bound (McConnell, Mehlhorn, Naher &
    Schweitzer, "Certifying algorithms", 2011), so the check may take them
    from the solver it checks.  Each fleet is bounded at the duals of a
    re-solve of its LP.  Each market period is bounded at the market
    solve's own row duals (`dam.DamOutcome.duals`), with the balance rows
    set to the published prices, and only a period whose witness is
    missing or malformed, or leaves a gap above DUALITY_TOL, is re-solved
    (see `_dam_residuals`).  A re-solve that is not optimal makes its
    residual infinite, so a bad outcome fails the certificate instead of
    raising; so does a series shorter than the horizon (see `_padded`)."""
    if outcome is None:
        raise ValueError("no outcome to certify")
    outcome = _padded(outcome)
    scenario = outcome.scenario
    feas_tolerance = lpcore.FEAS_TOL * 10.0
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
        dam_feas, dam_gap = _dam_residuals(dinput, outcome)
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

    return Certificate(
        residuals, tolerance=lpcore.DUALITY_TOL, feas_tolerance=feas_tolerance, worst=worst
    )


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
    re-solve (see `_bound`).  The bound is -inf when the re-solve is not
    optimal, or when the offers leave their bands (which `offer_bounds`
    reports); the schedule is then checked against the LP at the band
    floors, since no price enters a fleet constraint."""
    scenario = outcome.scenario
    finput = fleet_mod.fleet_input(scenario, outcome.offers)
    try:
        fleet_mod._check_offers(finput, scenario.stations)
        priced = True
    except fleet_mod.FleetStructureError:
        floors = {st.id: st.offer_min for st in scenario.stations}
        finput = fleet_mod.fleet_input(scenario, floors)
        priced = False
    checks = {}
    for f in scenario.fleets:
        lp, cols = fleet_mod.build_fleet(finput, f)
        values = fleet_mod.schedule_values(outcome.schedule, f, lp, cols)
        bound = _bound(lp) if priced else -math.inf
        checks[f.id] = (lpcore.max_violation(lp, values), bound)
    return checks


def _dam_residuals(dinput, outcome):
    """Per-period feasibility of the stored dispatch and bid prices, and the
    welfare gap to a weak-duality bound; returns two (peak residual, period)
    pairs.

    Each period is bounded at the outcome's witness, the market solve's row
    duals (`DamOutcome.duals`), with the balance-row multipliers replaced
    by the outcome's prices (negated, see `dam`).  The Lagrangian bound of
    any multipliers is an upper bound on the period's welfare, and it meets
    the stored welfare only when they are dual optimal, so a corrupted
    price leaves a gap.  When the prices are not unique (a generator
    exactly at a segment breakpoint, a line exactly at its limit), only
    the other duals of the basis that published them complete them.  A
    period whose witness is not one finite value per row, or whose gap at
    it exceeds DUALITY_TOL, is bounded again from a crash re-solve and
    keeps the smaller of the two bounds (both are sound).  The market
    solve was that same crash solve and the solver is deterministic, so on
    an outcome `solve_dam` cleared the witness changes no bit of the
    result, and at prices from this solver the bound is tight; at prices
    taken from another solver's degenerate optimum the check is
    conservative.

    Bid prices are not market LP columns (see `dam.StationDamBid`): their
    value q * price joins the welfare, and the dual value of the bound pair
    a column would carry, max(q * wtp_min, q * wtp_max), joins the bound."""
    periods, index = dam_mod.build_dam(dinput)
    buses = outcome.scenario.network.buses
    feas, gaps = [], []

    for t, lp in enumerate(periods):
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
        prices = [(row, -outcome.dam.lmp[b.id][t]) for row, b in zip(index.balance, buses)]
        witness = _witness(outcome.dam.duals, t, len(lp.constraints))
        bound = math.inf if witness is None else _bound(lp, prices, witness)
        if not _rel_gap(welfare, bound + bid_dual) <= lpcore.DUALITY_TOL:
            bound = min(bound, _bound(lp, prices))
        gaps.append((t, _rel_gap(welfare, bound + bid_dual)))

    return _peak(feas), _peak(gaps)


def _witness(duals, t: int, rows: int) -> list[float] | None:
    """Period t's entry of a `DamOutcome.duals` witness as a list, or None
    unless there is one and it holds one finite number per row."""
    try:
        y = [float(v) for v in duals[t]]
    except (TypeError, LookupError, ValueError):
        return None
    return y if len(y) == rows and all(map(math.isfinite, y)) else None


def _bound(lp: lpcore.LinearProgram, fixed=(), duals=None) -> float:
    """Weak-duality bound on the optimum of `lp` (a lower bound when it
    minimizes, an upper one when it maximizes): `lpcore.lagrangian_bound` at
    the row multipliers `duals`, or at the duals of a re-solve of `lp` when
    `duals` is None, with the multiplier of each `(row, multiplier)` in
    `fixed` set to that multiplier.  Infinite, on the side that bounds
    nothing, when the re-solve is not optimal."""
    if duals is None:
        sol = lpcore.solve(lp)
        if not sol.is_optimal:
            return -math.inf if lp.sense == lpcore.MIN else math.inf
        duals = sol.dual.tolist()
    y = list(duals)
    for row, multiplier in fixed:
        y[row] = multiplier
    return lpcore.lagrangian_bound(lp, y)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def outcome_to_json(outcome: EquilibriumOutcome) -> dict:
    """The document `outcome_from_json` reads: every field under its
    document key and the scenario as `scenario_to_json` writes it.  It has
    no `duals` key: the market duals are not part of the document
    (`DamOutcome.duals` is transient), so an outcome reads back without
    them and `certify` re-solves each market period."""
    doc = _document(replace(outcome, scenario=None))
    doc["scenario"] = scenario_to_json(outcome.scenario)
    return {"schema_version": OUTCOME_SCHEMA_VERSION, **doc}


def outcome_from_json(data: dict) -> EquilibriumOutcome:
    """Rebuild a full outcome (including the embedded scenario) from the
    document written by `outcome_to_json`; used to re-certify cached runs.
    `schema_version` (1 when absent), period bounds and search counts are
    integers and every other number a number, by the rules of
    `scenario_from_json`.  Any other value, or a version other than
    OUTCOME_SCHEMA_VERSION, raises ScenarioFormatError naming its path
    (``schedule.home.f1[0]``; within the embedded scenario,
    ``fleets[0].energy_max``), and a missing key one naming the key."""
    try:
        version = _integer(data.get("schema_version", OUTCOME_SCHEMA_VERSION), (), "schema_version")
        if version != OUTCOME_SCHEMA_VERSION:
            raise ScenarioFormatError(f"schema_version: unsupported version {version}")
        scenario = scenario_from_json(data["scenario"])
        return _object(EquilibriumOutcome, data, (), _list, scenario=scenario)
    except ScenarioFormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ScenarioFormatError(f"malformed outcome document: {exc}") from exc


def certificate_to_json(cert: Certificate) -> dict:
    return {
        **_document(cert),
        "passed": cert.passed,
        "max_violation": cert.max_violation,
        "failing": cert.failing(),
    }


def dump_outcome(outcome: EquilibriumOutcome, fh) -> None:
    json.dump(outcome_to_json(outcome), fh, indent=2, sort_keys=True)
    fh.write("\n")
