"""Domain model: transmission network, EV fleets, charging stations, and
scenario containers, with validation, penetration scaling, and JSON/CSV I/O.

Units are fixed package-wide: MW for power, MWh for energy, $/MWh for all
prices held in memory, radians for angles, hourly periods (so MW and MWh
interconvert 1:1).  Retail-style cents/kWh values are accepted at the I/O
boundary and converted on load (1 cent/kWh = 10 $/MWh).

All types are frozen dataclasses with tuple-valued series; instances are
immutable after construction.  Numbers are stored as given, converted by no
constructor: the document readers return floats and float tuples, and a
scenario built in Python passes them too.  The two station maps of
`EVFleet` are read-only mappings in station-id order.

A document is written by one walk over the fields (`_document`) and read
by its mirror (`_object`); `bilevel` uses both for outcomes, and the first
for certificates.  Both, and `validate`'s walk for NaN and infinity, read
one plan per class (`_plan`), which is the whole format.  Each field is
under its name, or under the key its metadata names (`fleet`,
`wtp_segments`, `station`), and the reader reads it by its type hint; a
mapping is written as an object.  The rest of the format is field
metadata too: "price" marks a field that also takes
`<key>_cents_per_kwh`, "default" the document value an absent key stands
for (where the constructor has no default of its own), and "transient" a
field that is no part of the document at all.  An object may carry only
those keys and its class's document-only keys (`_DOCUMENT_ONLY`); any
other key is refused.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache, partial
from operator import gt
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, get_args, get_origin, get_type_hints

from .lpcore import DUALITY_TOL, FEAS_TOL

CENTS_PER_KWH_TO_USD_PER_MWH = 10.0

SCHEMA_VERSION = 1

PARAM_FULL = "full"
PARAM_PER_STATION_PERIOD = "per_station_period"
PARAM_STATION_BLOCKS = "station_blocks"
_PARAM_MODES = (PARAM_FULL, PARAM_PER_STATION_PERIOD, PARAM_STATION_BLOCKS)


class ScenarioFormatError(ValueError):
    """Raised when a scenario document cannot be interpreted at all.

    Invariant violations in an interpretable scenario are reported through
    `validate`, not through exceptions.
    """


# the mappings the document walkers write as objects and walk by key
_MAPS = (dict, MappingProxyType)


def _frozen_map(mapping):
    """A dict or (key, value) pairs as a read-only mapping in key order."""
    return MappingProxyType(dict(sorted((str(k), v) for k, v in dict(mapping).items())))


@dataclass(frozen=True)
class Bus:
    id: str
    angle_min: float = -0.5
    angle_max: float = 0.5
    reference: bool = False


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    reactance: float
    flow_min: float = field(
        metadata={"default": lambda line, at: -_number(line["flow_max"], at, "flow_max")}
    )
    flow_max: float


@dataclass(frozen=True)
class CostSegment:
    """One step of a piecewise-linear generation cost curve."""

    p_min: float = field(metadata={"default": 0.0})
    p_max: float
    cost: float = field(metadata={"price": True})


@dataclass(frozen=True)
class Generator:
    id: str
    bus: str
    p_min: float = field(metadata={"default": 0.0})
    p_max: float
    segments: tuple[CostSegment, ...] = field(metadata={"default": ()})

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))


@dataclass(frozen=True)
class SolarUnit:
    id: str
    bus: str
    available: tuple[float, ...]


@dataclass(frozen=True)
class Demand:
    id: str
    bus: str
    load: tuple[float, ...]


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...] = field(metadata={"default": ()})
    lines: tuple[Line, ...] = field(metadata={"default": ()})
    generators: tuple[Generator, ...] = field(metadata={"default": ()})
    solar_units: tuple[SolarUnit, ...] = field(metadata={"default": ()})
    demands: tuple[Demand, ...] = field(metadata={"default": ()})
    horizon: int

    def __post_init__(self):
        for name in ("buses", "lines", "generators", "solar_units", "demands"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def bus_ids(self) -> tuple[str, ...]:
        return tuple(b.id for b in self.buses)

    def reference_bus(self) -> str:
        for b in self.buses:
            if b.reference:
                return b.id
        raise ScenarioFormatError("network has no reference bus")


@dataclass(frozen=True)
class EVFleet:
    """Aggregated EV fleet: charging resources, battery window, exogenous
    driving consumption, and the regulated retail rate it can fall back to.

    `station_caps[c]` and `station_connectivity[c]` describe access to
    charging station `c`; both are read-only mappings in station-id order
    (the order of the fleet's LP columns), built from a dict or pairs.
    `driving` is battery-side discharge in MW and is a parameter, not a
    decision.  `final_energy_min` is optional: the horizon ends with free
    terminal energy when it is None.
    """

    id: str
    bus: str
    max_charge: float
    home_cap: float = field(metadata={"default": 0.0})
    home_connectivity: tuple[float, ...] = field(metadata={"default": 0.0})
    station_caps: Mapping[str, float] = field(metadata={"default": {}})
    station_connectivity: Mapping[str, tuple[float, ...]] = field(metadata={"default": {}})
    energy_min: float
    energy_max: float
    initial_energy: float
    charge_efficiency: float = field(metadata={"default": 1.0})
    discharge_efficiency: float = field(metadata={"default": 1.0})
    driving: tuple[float, ...] = field(metadata={"default": 0.0})
    tou: tuple[float, ...] = field(metadata={"price": True})
    final_energy_min: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "station_caps", _frozen_map(self.station_caps))
        object.__setattr__(self, "station_connectivity", _frozen_map(self.station_connectivity))


@dataclass(frozen=True)
class WtpSegment:
    """One block of a station's piecewise willingness-to-pay bid."""

    width: float
    wtp_min: tuple[float, ...] = field(metadata={"price": True})
    wtp_max: tuple[float, ...] = field(metadata={"price": True})


@dataclass(frozen=True)
class ChargingStation:
    """EV charging station: which fleet it serves, the admissible offer-price
    band it may quote to that fleet, and its wholesale bid structure."""

    id: str
    fleet_id: str = field(metadata={"key": "fleet"})
    offer_min: tuple[float, ...] = field(metadata={"price": True})
    offer_max: tuple[float, ...] = field(metadata={"price": True})
    segments: tuple[WtpSegment, ...] = field(metadata={"key": "wtp_segments", "default": ()})

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))


@dataclass(frozen=True)
class SolverSettings:
    """Search settings.  The solver's tolerances are not settings: they are
    fixed (`lpcore.FEAS_TOL`, `lpcore.DUALITY_TOL`)."""

    budget: int = 400
    multistarts: int = 8
    step_min: float = 0.01
    parameterization: str = PARAM_PER_STATION_PERIOD
    block_width: int = 6
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    name: str = field(metadata={"default": "scenario"})
    network: Network
    fleets: tuple[EVFleet, ...] = field(metadata={"default": ()})
    stations: tuple[ChargingStation, ...] = field(metadata={"default": ()})
    settings: SolverSettings = SolverSettings()

    def __post_init__(self):
        object.__setattr__(self, "fleets", tuple(self.fleets))
        object.__setattr__(self, "stations", tuple(self.stations))

    def fleet(self, fleet_id: str) -> EVFleet:
        for f in self.fleets:
            if f.id == fleet_id:
                return f
        raise KeyError(fleet_id)

    def station(self, station_id: str) -> ChargingStation:
        for s in self.stations:
            if s.id == station_id:
                return s
        raise KeyError(station_id)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationIssue:
    path: str
    message: str

    def __str__(self):
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self):
        if self.ok:
            return "scenario OK"
        return "\n".join(str(i) for i in self.issues)


def max_charge_rate(fleet: EVFleet, t: int) -> float:
    """Connectivity-limited total charge rate available to a fleet at t."""
    cap = fleet.home_connectivity[t] * fleet.home_cap
    for cid, ccap in fleet.station_caps.items():
        series = fleet.station_connectivity.get(cid)
        if series is not None:
            cap += series[t] * ccap
    return min(fleet.max_charge, cap)


def fleet_infeasibility_period(fleet: EVFleet, horizon: int) -> int | None:
    """First period whose cumulative driving discharge cannot be covered even
    by charging at the maximum connectivity-limited rate everywhere; None if
    the fleet's scheduling problem has a feasible point.

    Exact for this recursion: the charge-at-maximum trajectory (clipped at
    the battery ceiling) dominates every feasible trajectory pointwise.
    """
    e = fleet.initial_energy
    for t in range(horizon):
        e = e - fleet.driving[t] / fleet.discharge_efficiency
        e = min(e + max_charge_rate(fleet, t) * fleet.charge_efficiency, fleet.energy_max)
        if e < fleet.energy_min - 1e-9:
            return t
    if fleet.final_energy_min is not None and e < fleet.final_energy_min - 1e-9:
        return horizon - 1
    return None


# fields whose numbers enter an LP objective (costs, retail rates, offers)
# or a row's rhs (loads, driving, initial energy), and the charging caps,
# which a connectivity ratio of 0 turns into a NaN bound (0 * inf)
_FINITE = frozenset({
    "cost", "load", "tou", "driving", "initial_energy", "offer_min", "offer_max",
    "home_cap", "station_caps",
})


def _non_finite(value, at, name=None):
    """(path, field name, number) for each NaN or infinity inside `value`, a
    model dataclass, a station map or a tuple or list at the path parts
    `at`, named down to the entry as the document readers name it
    (``fleets[0].tou[3]``, ``fleets[0].station_caps.c4``)."""
    if hasattr(value, "__dataclass_fields__"):
        # fields are read by name: vars() would give the object a __dict__,
        # and CPython reads every attribute of such an object slower then
        steps = _plan(type(value))[0]
        entries = ((key, attr, getattr(value, attr)) for attr, key, *_ in steps)
    elif isinstance(value, _MAPS):
        entries = ((key, name, entry) for key, entry in value.items())
    else:
        entries = ((i, name, entry) for i, entry in enumerate(value))
    for key, field_name, entry in entries:
        if isinstance(entry, float):
            if not math.isfinite(entry):
                yield _path(at, key), field_name, entry
        elif isinstance(entry, (tuple, list)):
            # a series whose sum is finite holds no NaN and no infinity
            if not (entry and isinstance(entry[0], float) and math.isfinite(sum(entry))):
                yield from _non_finite(entry, (*at, key), field_name)
        elif isinstance(entry, _MAPS) or hasattr(entry, "__dataclass_fields__"):
            yield from _non_finite(entry, (*at, key), field_name)


def validate(scenario: Scenario) -> ValidationReport:
    """Collect every invariant violation with a dotted path.  Every NaN is
    named down to its entry, and so is every infinity that would enter an
    LP objective or rhs or make a NaN bound (`_FINITE`).

    The rules of one part are stated once, below, and each layer that
    reads a part raises the first issue of that part's rules as its own
    error, with the path and message this report gives it:
    `dam.build_dam` the network's (`DamStructureError`), `fleet.build_fleet`
    and `fleet.solve_fleet` a fleet's and those of the stations that serve
    it, and `solve_fleet` each station's fleet (`FleetStructureError`),
    `bilevel.offer_parameters` and `bilevel.optimize` the settings' and,
    with `bilevel.Strategy.offers`, each station's offer band (ValueError).
    The rules that span parts are checked here only: numbers that are not
    finite, duplicate ids, the horizon, a fleet's bus, and whether a fleet
    can recover its driving discharge."""
    issues: list[ValidationIssue] = []

    def bad(path, message):
        issues.append(ValidationIssue(path, message))

    for path, name, value in _non_finite(scenario, ()):
        if math.isnan(value):
            bad(path, "not a number")
        elif name in _FINITE:
            bad(path, f"must be finite, got {value}")

    net = scenario.network
    T = net.horizon
    if T < 1:
        bad("network.horizon", f"horizon must be >= 1, got {T}")

    def check_ids(objs, path):
        seen = set()
        for i, o in enumerate(objs):
            if o.id in seen:
                bad(f"{path}[{i}].id", f"duplicate id {o.id!r}")
            seen.add(o.id)

    check_ids(net.buses, "network.buses")
    check_ids(net.lines, "network.lines")
    check_ids(net.generators, "network.generators")
    check_ids(net.solar_units, "network.solar_units")
    check_ids(net.demands, "network.demands")
    check_ids(scenario.fleets, "fleets")
    check_ids(scenario.stations, "stations")

    _network_rules(net, bad)

    bus_ids = set(net.bus_ids())
    station_ids = {s.id for s in scenario.stations}
    for i, f in enumerate(scenario.fleets):
        path = f"fleets[{i}]"
        if f.bus not in bus_ids:
            bad(path, f"bus {f.bus!r} not in network")
        _fleet_rules(f, path, T, station_ids, bad)
        series_ok = (
            len(f.home_connectivity) == T
            and len(f.driving) == T
            and len(f.tou) == T
            and all(len(v) == T for v in f.station_connectivity.values())
            and f.station_connectivity.keys() == f.station_caps.keys()
        )
        if series_ok and f.discharge_efficiency > 0.0:  # the recursion divides by it
            t_bad = fleet_infeasibility_period(f, T)
            if t_bad is not None:
                bad(
                    f"{path}",
                    f"driving discharge cannot be recovered: energy floor violated at period {t_bad}",
                )

    known_fleets = {f.id for f in scenario.fleets}
    for i, s in enumerate(scenario.stations):
        path = f"stations[{i}]"
        _station_fleet_rule(s, path, known_fleets, bad)
        if s.fleet_id in known_fleets:
            _station_rules(s, path, T, scenario.fleet(s.fleet_id), bad)

    _settings_rules(scenario.settings, bad)
    return ValidationReport(tuple(issues))


# The rules of one part each: `rules(part, ..., bad)` calls `bad(path,
# message)` for each issue of that part, in `validate`'s order.  `validate`
# collects them; a layer passes `_raising(its error)` and stops at the first.


def _raising(error):
    """A `bad` that raises `error` with the issue as `validate` reports it."""

    def bad(path, message):
        raise error(str(ValidationIssue(path, message)))

    return bad


def _series_rule(series, path, T, bad):
    if len(series) != T:
        bad(path, f"series length {len(series)} != horizon {T}")


def _network_rules(net: Network, bad) -> None:
    """The reference bus, bus angle bounds, line endpoints, reactances and
    flow bounds, and the bus, bounds, cost segments and series of each
    generator, solar unit and demand."""
    T = net.horizon
    bus_ids = set(net.bus_ids())
    refs = [b.id for b in net.buses if b.reference]
    if len(refs) == 0:
        bad("network.buses", "no reference bus flagged")
    elif len(refs) > 1:
        bad("network.buses", f"multiple reference buses: {refs}")
    for i, b in enumerate(net.buses):
        if b.angle_min > b.angle_max:
            bad(f"network.buses[{i}]", "angle_min exceeds angle_max")
        if b.reference and not (b.angle_min <= 0.0 <= b.angle_max):
            bad(f"network.buses[{i}]", "reference bus angle bounds must contain 0")

    for i, ln in enumerate(net.lines):
        if ln.from_bus not in bus_ids or ln.to_bus not in bus_ids:
            bad(f"network.lines[{i}]", f"endpoint missing: {ln.from_bus}-{ln.to_bus}")
        if not ln.reactance > 0.0:
            bad(f"network.lines[{i}].reactance", f"must be > 0, got {ln.reactance}")
        if ln.flow_min > ln.flow_max:
            bad(f"network.lines[{i}]", "flow_min exceeds flow_max")

    for i, g in enumerate(net.generators):
        path = f"network.generators[{i}]"
        if g.bus not in bus_ids:
            bad(path, f"bus {g.bus!r} not in network")
        if g.p_min > g.p_max:
            bad(path, "p_min exceeds p_max")
        width_total = 0.0
        prev_cost = -math.inf
        for k, seg in enumerate(g.segments):
            if seg.p_min > seg.p_max or seg.p_min < 0.0:
                bad(f"{path}.segments[{k}]", "segment width must be non-negative")
            if seg.cost < prev_cost:
                bad(f"{path}.segments[{k}]", "segment costs must be non-decreasing")
            prev_cost = seg.cost
            width_total += seg.p_max
        if g.segments and width_total < g.p_max - g.p_min - 1e-9:
            bad(path, "cost segments do not cover the dispatch range")
        if not g.segments:
            bad(path, "generator needs at least one cost segment")

    for i, s in enumerate(net.solar_units):
        if s.bus not in bus_ids:
            bad(f"network.solar_units[{i}]", f"bus {s.bus!r} not in network")
        _series_rule(s.available, f"network.solar_units[{i}].available", T, bad)
        if any(v < 0 for v in s.available):
            bad(f"network.solar_units[{i}].available", "negative availability")

    for i, d in enumerate(net.demands):
        if d.bus not in bus_ids:
            bad(f"network.demands[{i}]", f"bus {d.bus!r} not in network")
        _series_rule(d.load, f"network.demands[{i}].load", T, bad)
        if any(v < 0 for v in d.load):
            bad(f"network.demands[{i}].load", "negative load")


def _fleet_rules(f: EVFleet, path: str, T: int, station_ids, bad) -> None:
    """Fleet `f`'s series lengths, ratios, efficiencies, caps and energy
    window, and its station caps (each at a station in `station_ids`) and
    connectivity series."""
    _series_rule(f.home_connectivity, f"{path}.home_connectivity", T, bad)
    _series_rule(f.driving, f"{path}.driving", T, bad)
    _series_rule(f.tou, f"{path}.tou", T, bad)
    if any(not (0.0 <= v <= 1.0) for v in f.home_connectivity):
        bad(f"{path}.home_connectivity", "ratios must lie in [0, 1]")
    if any(v < 0 for v in f.driving):
        bad(f"{path}.driving", "negative driving discharge")
    if not (0.0 < f.charge_efficiency <= 1.0):
        bad(f"{path}.charge_efficiency", "must lie in (0, 1]")
    if not (0.0 < f.discharge_efficiency <= 1.0):
        bad(f"{path}.discharge_efficiency", "must lie in (0, 1]")
    if f.max_charge < 0 or f.home_cap < 0:
        bad(path, "charge caps must be non-negative")
    if not (f.energy_min <= f.initial_energy <= f.energy_max):
        bad(
            f"{path}.initial_energy",
            f"initial energy {f.initial_energy} outside [{f.energy_min}, {f.energy_max}]",
        )
    if f.final_energy_min is not None and not (
        f.energy_min <= f.final_energy_min <= f.energy_max
    ):
        bad(f"{path}.final_energy_min", "outside the battery energy window")
    conn = f.station_connectivity
    for cid, cap in f.station_caps.items():
        if cid not in station_ids:
            bad(f"{path}.station_caps[{cid}]", "unknown station id")
        if cap < 0:
            bad(f"{path}.station_caps[{cid}]", "negative cap")
        if cid not in conn:
            bad(f"{path}.station_connectivity", f"missing series for station {cid!r}")
        else:
            _series_rule(conn[cid], f"{path}.station_connectivity[{cid}]", T, bad)
            if any(not (0.0 <= v <= 1.0) for v in conn[cid]):
                bad(f"{path}.station_connectivity[{cid}]", "ratios must lie in [0, 1]")
    for cid in conn:
        if cid not in f.station_caps:
            bad(f"{path}.station_connectivity[{cid}]", "series without a matching cap")


def _station_fleet_rule(s: ChargingStation, path: str, fleet_ids, bad) -> None:
    """Station `s` serves a fleet in `fleet_ids`."""
    if s.fleet_id not in fleet_ids:
        bad(path, f"fleet {s.fleet_id!r} not in scenario")


def _offer_band_rules(s: ChargingStation, path: str, T: int, bad) -> None:
    """Station `s`'s offer band: a floor and a ceiling over the horizon,
    the floor nowhere above the ceiling."""
    _series_rule(s.offer_min, f"{path}.offer_min", T, bad)
    _series_rule(s.offer_max, f"{path}.offer_max", T, bad)
    if any(map(gt, s.offer_min, s.offer_max)):
        bad(path, "offer_min exceeds offer_max")


def _station_rules(s: ChargingStation, path: str, T: int, fleet: EVFleet, bad) -> None:
    """Station `s`'s offer band (`_offer_band_rules`) and bid segments, and
    its access entry and charging cap at `fleet`, the fleet it serves."""
    _offer_band_rules(s, path, T, bad)
    width_total = 0.0
    for m, seg in enumerate(s.segments):
        if seg.width < 0:
            bad(f"{path}.wtp_segments[{m}].width", "negative width")
        _series_rule(seg.wtp_min, f"{path}.wtp_segments[{m}].wtp_min", T, bad)
        _series_rule(seg.wtp_max, f"{path}.wtp_segments[{m}].wtp_max", T, bad)
        if any(lo > hi for lo, hi in zip(seg.wtp_min, seg.wtp_max)):
            bad(f"{path}.wtp_segments[{m}]", "wtp_min exceeds wtp_max")
        width_total += seg.width
    if s.id not in fleet.station_caps:
        bad(path, f"fleet {fleet.id!r} has no access entry for this station")
    elif width_total < fleet.station_caps[s.id] - 1e-9:
        bad(path, "bid segment widths do not cover the station charging cap")


def _settings_rules(settings: SolverSettings, bad) -> None:
    """The search settings: integer counts, a positive step floor and a
    known parameterization (`_parameterization_rule`)."""

    def number(value, kinds=(int, float)):
        return isinstance(value, kinds) and not isinstance(value, bool)

    for name, least in (("budget", 1), ("multistarts", 1), ("block_width", 1), ("seed", 0)):
        value = getattr(settings, name)
        if not (number(value, int) and value >= least):
            bad(f"settings.{name}", f"must be an integer >= {least}, got {value!r}")
    if not (number(settings.step_min) and settings.step_min > 0):
        bad("settings.step_min", f"must be > 0, got {settings.step_min!r}")
    _parameterization_rule(settings, bad)


def _parameterization_rule(settings: SolverSettings, bad) -> None:
    """The one settings rule a document reader enforces itself."""
    if settings.parameterization not in _PARAM_MODES:
        bad(
            "settings.parameterization",
            f"must be one of {_PARAM_MODES}, got {settings.parameterization!r}",
        )


# ---------------------------------------------------------------------------
# penetration scaling
# ---------------------------------------------------------------------------


def ev_charge_demand(scenario: Scenario) -> float:
    """Grid-side MWh needed to replace all driving discharge over the horizon."""
    total = 0.0
    for f in scenario.fleets:
        total += sum(f.driving) / (f.discharge_efficiency * f.charge_efficiency)
    return total


def system_demand(scenario: Scenario) -> float:
    return float(sum(sum(d.load) for d in scenario.network.demands))


def penetration_level(scenario: Scenario) -> float:
    ev = ev_charge_demand(scenario)
    return ev / (system_demand(scenario) + ev)


def scale_penetration(scenario: Scenario, level: float) -> Scenario:
    """Scale all fleets so EV charge demand / (system + EV demand) == level.

    Non-EV demand stays fixed; each fleet's extensive quantities (driving
    profile, charge-rate caps, battery window, initial/terminal energy) are
    multiplied by the closed-form factor
        level / (1 - level) * base_non_ev_demand / base_ev_demand,
    i.e. the fleet is treated as `factor` times as many identical vehicles.
    Station bid-segment widths scale with the same factor so segment
    coverage of the scaled station caps is preserved.
    """
    if not (0.0 < level < 1.0):
        raise ValueError(f"penetration level must lie in (0, 1), got {level}")
    base_ev = ev_charge_demand(scenario)
    if base_ev <= 0.0:
        raise ValueError("scenario has no EV charge demand to scale")
    factor = level / (1.0 - level) * system_demand(scenario) / base_ev

    fleets = tuple(
        replace(
            f,
            max_charge=f.max_charge * factor,
            home_cap=f.home_cap * factor,
            station_caps={cid: cap * factor for cid, cap in f.station_caps.items()},
            energy_min=f.energy_min * factor,
            energy_max=f.energy_max * factor,
            initial_energy=f.initial_energy * factor,
            final_energy_min=None if f.final_energy_min is None else f.final_energy_min * factor,
            driving=tuple(v * factor for v in f.driving),
        )
        for f in scenario.fleets
    )
    stations = tuple(
        replace(
            s,
            segments=tuple(replace(seg, width=seg.width * factor) for seg in s.segments),
        )
        for s in scenario.stations
    )
    return replace(scenario, fleets=fleets, stations=stations)


def scale_solar(scenario: Scenario, multiplier: float) -> Scenario:
    """Multiply every solar availability profile by a finite non-negative
    factor (0 * inf would make a NaN bound)."""
    if not 0.0 <= multiplier < math.inf:
        raise ValueError(f"solar multiplier must be finite and >= 0, got {multiplier}")
    units = tuple(
        replace(s, available=tuple(v * multiplier for v in s.available))
        for s in scenario.network.solar_units
    )
    return replace(scenario, network=replace(scenario.network, solar_units=units))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _path(at, key) -> str:
    """`key` inside `at` (keys and list indices) as `validate` names fields.
    The readers below raise ScenarioFormatError with the path of a value
    they cannot read, built only then; range checks stay with `validate`."""
    text = ""
    for part in (*at, key):
        text += f"[{part}]" if isinstance(part, int) else f".{part}" if text else part
    return text


def _number(value, at, key) -> float:
    """A JSON int or float, not a boolean, as a float; NaN and inf are kept."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError as exc:  # an integer literal past the float range
            raise ScenarioFormatError(f"{_path(at, key)}: {exc}") from exc
    raise ScenarioFormatError(f"{_path(at, key)}: expected a number, got {value!r}")


def _integer(value, at, key) -> int:
    """A JSON int, or a float with no fraction; not a boolean."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ScenarioFormatError(f"{_path(at, key)}: expected an integer, got {value!r}")


def _boolean(value, at, key) -> bool:
    if isinstance(value, bool):
        return value
    raise ScenarioFormatError(f"{_path(at, key)}: expected true or false, got {value!r}")


def _list(value, at, key, read=_number) -> tuple:
    """A JSON list as a tuple, each entry read by `read` (numbers by default)."""
    if not isinstance(value, (list, tuple)):
        raise ScenarioFormatError(f"{_path(at, key)}: expected a list, got {value!r}")
    at = (*at, key)
    return tuple(read(entry, at, i) for i, entry in enumerate(value))


def _map(value, at, key, read=_number) -> dict:
    """A JSON object as a dict, each value read by `read` (numbers by default)."""
    if not isinstance(value, Mapping):
        raise ScenarioFormatError(f"{_path(at, key)}: expected an object, got {value!r}")
    at = (*at, key)
    return {k: read(v, at, k) for k, v in value.items()}


def _resolve_series(T, base_dir, value, at, key):
    """Accept a list of length T, a number broadcast to T, or a CSV reference
    of the form {"csv": filename, "id": row_id}; a CSV file that cannot be
    read raises ScenarioFormatError naming the field and the file."""
    if isinstance(value, dict):
        if "csv" not in value or "id" not in value:
            raise ScenarioFormatError(f"{_path(at, key)}: csv reference needs 'csv' and 'id'")
        csv_path = Path(value["csv"])
        if base_dir is not None and not csv_path.is_absolute():
            csv_path = Path(base_dir) / csv_path
        try:
            table = read_series_csv(csv_path)
        except OSError as exc:
            raise ScenarioFormatError(
                f"{_path(at, key)}: cannot read series file {csv_path}"
            ) from exc
        if value["id"] not in table:
            raise ScenarioFormatError(f"{_path(at, key)}: id {value['id']!r} not in {csv_path}")
        return table[value["id"]]
    if isinstance(value, (list, tuple)):
        return _list(value, at, key)
    return (_number(value, at, key),) * T


# keys a document may carry that name no field, by the class of the object
# holding them: the value the key must have (the solver's fixed
# tolerances), or None for a key read elsewhere (`schema_version`) or one
# older files carry, which is read and dropped
_DOCUMENT_ONLY = {
    "Scenario": {"schema_version": None, "sweeps": None},
    "SolverSettings": {"feas_tol": FEAS_TOL, "duality_tol": DUALITY_TOL, "workers": None},
    "FleetSchedule": {"tie_break_applied": None},
    "SearchInfo": {"budget": None, "seed": None},
    "EquilibriumOutcome": {"schema_version": None},
}
_OWN = object()  # an absent key stands for the constructor's own default
_LEAVES = {float: _number, int: _integer, bool: _boolean, str: lambda value, at, key: str(value)}


def _reader(hint):
    """`read(value, at, key, series)` for a document value of type `hint`:
    a dataclass by `_object`, `X | None` as None or an X, a tuple of floats
    by `series`, any other tuple or dict entry by entry, and a number,
    integer, boolean or string by its leaf reader."""
    args = get_args(hint)
    if is_dataclass(hint):
        return lambda value, at, key, series: _object(hint, value, (*at, key), series)
    if type(None) in args:
        read = _reader(args[0])
        return lambda value, *rest: None if value is None else read(value, *rest)
    if args == (float, ...):
        return lambda value, at, key, series: series(value, at, key)
    if args:
        many = _list if get_origin(hint) is tuple else _map
        read = _reader(args[0] if many is _list else args[1])
        return lambda value, at, key, series: many(
            value, at, key, lambda entry, at, k: read(entry, at, k, series)
        )
    leaf = _LEAVES[hint]
    return lambda value, at, key, series: leaf(value, at, key)


@cache
def _plan(cls) -> tuple[tuple, frozenset]:
    """The document format of a dataclass, its type hints resolved once:
    (field name, document key, reader, is a price, default) for each
    field, and every key its object may carry (the fields' keys,
    `<key>_cents_per_kwh` for a price, and its document-only keys).
    `default` is the field's "default" metadata, `_OWN` when the
    constructor has a default, and MISSING when the key is required.  A
    "transient" field has no step: it is neither written nor read, and its
    key is refused like any other unknown key."""
    hints = get_type_hints(cls)
    steps = tuple(
        (
            f.name,
            f.metadata.get("key", f.name),
            _reader(hints[f.name]),
            f.metadata.get("price", False),
            f.metadata.get("default", MISSING if f.default is MISSING else _OWN),
        )
        for f in fields(cls)
        if not f.metadata.get("transient", False)
    )
    keys = {key for _, key, *_ in steps}
    keys |= {f"{key}_cents_per_kwh" for _, key, _, price, _ in steps if price}
    return steps, frozenset(keys | _DOCUMENT_ONLY.get(cls.__name__, {}).keys())


def _object(cls, obj, at, series, **given):
    """A `cls` read from the JSON object `obj` at the path parts `at`, each
    field but those `given` from its document key by its type hint, with
    `series` reading the per-period series.  A price field reads
    `<key>_cents_per_kwh` instead, in cents/kWh, when that key is there.
    An absent key reads as its default (a callable one is given `obj` and
    `at`); an absent required key raises KeyError.  A key the plan does not
    name, or a document-only key at another value than its fixed one,
    raises ScenarioFormatError."""
    steps, keys = _plan(cls)
    unknown = obj.keys() - keys
    if unknown:
        where = _path(at[:-1], at[-1]) if at else "top level"
        raise ScenarioFormatError(f"{where}: unknown keys {sorted(unknown)}")
    for key, fixed in _DOCUMENT_ONLY.get(cls.__name__, {}).items():
        if fixed is not None and key in obj and (value := _number(obj[key], at, key)) != fixed:
            raise ScenarioFormatError(f"{_path(at, key)}: must be {fixed!r}, got {value!r}")
    values = {}
    for name, key, read, price, default in steps:
        if name in given:
            continue
        if price and (alt := f"{key}_cents_per_kwh") in obj:
            raw, scale = read(obj[alt], at, alt, series), CENTS_PER_KWH_TO_USD_PER_MWH
            values[name] = raw * scale if isinstance(raw, float) else tuple(v * scale for v in raw)
            continue
        value = obj[key] if default is MISSING else obj.get(key, default)
        if value is not _OWN:
            values[name] = read(value(obj, at) if callable(value) else value, at, key, series)
    return cls(**values, **given)


def read_series_csv(path) -> dict[str, tuple[float, ...]]:
    """Read per-period series from a CSV with header `id,t0,t1,...`; a cell
    that is not a number raises ScenarioFormatError naming the file, the
    row id and the column."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "id":
        raise ScenarioFormatError(f"{path}: expected header starting with 'id'")
    header, out = rows[0], {}
    for row in rows[1:]:
        if not row:
            continue
        cells = []
        for k, text in enumerate(row[1:], 1):
            try:
                cells.append(float(text))
            except ValueError as exc:
                column = header[k] if k < len(header) else f"#{k}"
                raise ScenarioFormatError(f"{path}: row {row[0]!r}, column {column}: {exc}") from exc
        out[row[0]] = tuple(cells)
    return out


def scenario_from_json(data: Mapping[str, Any], base_dir=None) -> Scenario:
    """Read the document `scenario_to_json` writes.  A number is a JSON int
    or float, not a boolean (NaN and inf are kept); `schema_version`,
    `network.horizon` and the integer settings take an int or a float with
    no fraction, `reference` true or false.  An absent optional key reads
    as its field's default.  `settings.feas_tol` and `settings.duality_tol`,
    when present, must equal the solver's fixed tolerances, and an object
    may carry no key its class's plan does not name (`_plan`).  Anything
    else raises ScenarioFormatError naming its path (``fleets[0].energy_max:
    ...``), or, for a missing required key, naming the key."""
    try:
        version = _integer(data.get("schema_version", SCHEMA_VERSION), (), "schema_version")
        if version != SCHEMA_VERSION:
            raise ScenarioFormatError(f"schema_version: unsupported version {version}")
        T = _integer(data["network"]["horizon"], ("network",), "horizon")
        scenario = _object(Scenario, data, (), partial(_resolve_series, T, base_dir))
        _parameterization_rule(scenario.settings, _raising(ScenarioFormatError))
        return scenario
    except ScenarioFormatError:
        raise
    # OverflowError: a horizon too large to broadcast a number over
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ScenarioFormatError(f"malformed scenario document: {exc}") from exc


def _document(value):
    """`value` as JSON data: a dataclass as an object of its fields under
    their document keys, a mapping as an object and a tuple or list as a
    list; anything else as it is."""
    if hasattr(value, "__dataclass_fields__"):
        return {key: _document(getattr(value, name)) for name, key, *_ in _plan(type(value))[0]}
    if isinstance(value, _MAPS):
        return {k: _document(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        if value and isinstance(value[0], float):  # a series of numbers
            return list(value)
        return [_document(v) for v in value]
    return value


def scenario_to_json(scenario: Scenario) -> dict:
    """The document `scenario_from_json` reads: every field under its
    document key, and the solver's fixed tolerances in `settings`."""
    doc = _document(scenario)
    fixed = {k: v for k, v in _DOCUMENT_ONLY["SolverSettings"].items() if v is not None}
    doc["settings"] = {**fixed, **doc["settings"]}
    return {"schema_version": SCHEMA_VERSION, **doc}


def load_scenario(path) -> Scenario:
    path = Path(path)
    with open(path) as fh:
        data = json.load(fh)
    return scenario_from_json(data, base_dir=path.parent)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_json(scenario), fh, indent=2)
        fh.write("\n")
