"""Domain model: transmission network, EV fleets, charging stations, and
scenario containers, with validation, penetration scaling, and JSON/CSV I/O.

Units are fixed package-wide: MW for power, MWh for energy, $/MWh for all
prices held in memory, radians for angles, hourly periods (so MW and MWh
interconvert 1:1).  Retail-style cents/kWh values are accepted at the I/O
boundary and converted on load (1 cent/kWh = 10 $/MWh).

All types are frozen dataclasses with tuple-valued series; instances are
immutable after construction and safe to share across worker threads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

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


def _series(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _freeze_mapping(mapping, convert):
    return tuple(sorted((str(k), convert(v)) for k, v in dict(mapping).items()))


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
    flow_min: float
    flow_max: float


@dataclass(frozen=True)
class CostSegment:
    """One step of a piecewise-linear generation cost curve."""

    p_min: float
    p_max: float
    cost: float


@dataclass(frozen=True)
class Generator:
    id: str
    bus: str
    p_min: float
    p_max: float
    segments: tuple[CostSegment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))


@dataclass(frozen=True)
class SolarUnit:
    id: str
    bus: str
    available: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "available", _series(self.available))


@dataclass(frozen=True)
class Demand:
    id: str
    bus: str
    load: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "load", _series(self.load))


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    solar_units: tuple[SolarUnit, ...]
    demands: tuple[Demand, ...]
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
    charging station `c`; `driving` is battery-side discharge in MW and is a
    parameter, not a decision.  `final_energy_min` is optional: the horizon
    ends with free terminal energy when it is None.
    """

    id: str
    bus: str
    max_charge: float
    home_cap: float
    home_connectivity: tuple[float, ...]
    station_caps: Any
    station_connectivity: Any
    energy_min: float
    energy_max: float
    initial_energy: float
    charge_efficiency: float
    discharge_efficiency: float
    driving: tuple[float, ...]
    tou: tuple[float, ...]
    final_energy_min: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "home_connectivity", _series(self.home_connectivity))
        object.__setattr__(self, "driving", _series(self.driving))
        object.__setattr__(self, "tou", _series(self.tou))
        object.__setattr__(self, "station_caps", _freeze_mapping(self.station_caps, float))
        object.__setattr__(
            self, "station_connectivity", _freeze_mapping(self.station_connectivity, _series)
        )

    def station_ids(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.station_caps)

    def station_cap(self, station_id: str) -> float:
        return dict(self.station_caps)[station_id]

    def station_conn(self, station_id: str) -> tuple[float, ...]:
        return dict(self.station_connectivity)[station_id]


@dataclass(frozen=True)
class WtpSegment:
    """One block of a station's piecewise willingness-to-pay bid."""

    width: float
    wtp_min: tuple[float, ...]
    wtp_max: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "wtp_min", _series(self.wtp_min))
        object.__setattr__(self, "wtp_max", _series(self.wtp_max))


@dataclass(frozen=True)
class ChargingStation:
    """EV charging station: which fleet it serves, the admissible offer-price
    band it may quote to that fleet, and its wholesale bid structure."""

    id: str
    fleet_id: str
    offer_min: tuple[float, ...]
    offer_max: tuple[float, ...]
    segments: tuple[WtpSegment, ...]

    def __post_init__(self):
        object.__setattr__(self, "offer_min", _series(self.offer_min))
        object.__setattr__(self, "offer_max", _series(self.offer_max))
        object.__setattr__(self, "segments", tuple(self.segments))


@dataclass(frozen=True)
class SolverSettings:
    """Search and solver settings."""

    feas_tol: float = 1e-8
    duality_tol: float = 1e-6
    budget: int = 400
    multistarts: int = 8
    step_min: float = 0.01
    parameterization: str = PARAM_PER_STATION_PERIOD
    block_width: int = 6
    seed: int = 0


@dataclass(frozen=True)
class SweepDefaults:
    penetration_levels: tuple[float, ...] = ()
    pv_multipliers: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "penetration_levels", _series(self.penetration_levels))
        object.__setattr__(self, "pv_multipliers", _series(self.pv_multipliers))


@dataclass(frozen=True)
class Scenario:
    name: str
    network: Network
    fleets: tuple[EVFleet, ...]
    stations: tuple[ChargingStation, ...]
    settings: SolverSettings = SolverSettings()
    sweeps: SweepDefaults = SweepDefaults()

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

    def stations_of(self, fleet_id: str) -> tuple[ChargingStation, ...]:
        return tuple(s for s in self.stations if s.fleet_id == fleet_id)


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
    conn = dict(fleet.station_connectivity)
    for cid, ccap in fleet.station_caps:
        series = conn.get(cid)
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


def validate(scenario: Scenario) -> ValidationReport:
    """Collect every invariant violation with a dotted path; an empty report
    means the DAM and fleet LP builders cannot hit structural errors."""
    issues: list[ValidationIssue] = []

    def bad(path, message):
        issues.append(ValidationIssue(path, message))

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

    def check_series(series, path):
        if len(series) != T:
            bad(path, f"series length {len(series)} != horizon {T}")

    for i, s in enumerate(net.solar_units):
        if s.bus not in bus_ids:
            bad(f"network.solar_units[{i}]", f"bus {s.bus!r} not in network")
        check_series(s.available, f"network.solar_units[{i}].available")
        if any(v < 0 for v in s.available):
            bad(f"network.solar_units[{i}].available", "negative availability")

    for i, d in enumerate(net.demands):
        if d.bus not in bus_ids:
            bad(f"network.demands[{i}]", f"bus {d.bus!r} not in network")
        check_series(d.load, f"network.demands[{i}].load")
        if any(v < 0 for v in d.load):
            bad(f"network.demands[{i}].load", "negative load")

    station_ids = {s.id for s in scenario.stations}
    fleet_ids = {f.id for f in scenario.fleets}

    for i, f in enumerate(scenario.fleets):
        path = f"fleets[{i}]"
        series_ok = (
            len(f.home_connectivity) == T
            and len(f.driving) == T
            and len(f.tou) == T
            and all(len(v) == T for _, v in f.station_connectivity)
            and set(dict(f.station_connectivity)) == set(dict(f.station_caps))
        )
        if f.bus not in bus_ids:
            bad(path, f"bus {f.bus!r} not in network")
        check_series(f.home_connectivity, f"{path}.home_connectivity")
        check_series(f.driving, f"{path}.driving")
        check_series(f.tou, f"{path}.tou")
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
        conn = dict(f.station_connectivity)
        for cid, cap in f.station_caps:
            if cid not in station_ids:
                bad(f"{path}.station_caps[{cid}]", "unknown station id")
            if cap < 0:
                bad(f"{path}.station_caps[{cid}]", "negative cap")
            if cid not in conn:
                bad(f"{path}.station_connectivity", f"missing series for station {cid!r}")
            else:
                check_series(conn[cid], f"{path}.station_connectivity[{cid}]")
                if any(not (0.0 <= v <= 1.0) for v in conn[cid]):
                    bad(f"{path}.station_connectivity[{cid}]", "ratios must lie in [0, 1]")
        for cid in conn:
            if cid not in dict(f.station_caps):
                bad(f"{path}.station_connectivity[{cid}]", "series without a matching cap")
        if series_ok:
            t_bad = fleet_infeasibility_period(f, T)
            if t_bad is not None:
                bad(
                    f"{path}",
                    f"driving discharge cannot be recovered: energy floor violated at period {t_bad}",
                )

    for i, s in enumerate(scenario.stations):
        path = f"stations[{i}]"
        if s.fleet_id not in fleet_ids:
            bad(path, f"fleet {s.fleet_id!r} not in scenario")
            continue
        fleet = scenario.fleet(s.fleet_id)
        check_series(s.offer_min, f"{path}.offer_min")
        check_series(s.offer_max, f"{path}.offer_max")
        if any(lo > hi for lo, hi in zip(s.offer_min, s.offer_max)):
            bad(f"{path}", "offer_min exceeds offer_max")
        width_total = 0.0
        for m, seg in enumerate(s.segments):
            if seg.width < 0:
                bad(f"{path}.segments[{m}].width", "negative width")
            check_series(seg.wtp_min, f"{path}.segments[{m}].wtp_min")
            check_series(seg.wtp_max, f"{path}.segments[{m}].wtp_max")
            if any(lo > hi for lo, hi in zip(seg.wtp_min, seg.wtp_max)):
                bad(f"{path}.segments[{m}]", "wtp_min exceeds wtp_max")
            width_total += seg.width
        if s.id not in dict(fleet.station_caps):
            bad(path, f"fleet {fleet.id!r} has no access entry for this station")
        elif width_total < fleet.station_cap(s.id) - 1e-9:
            bad(path, "bid segment widths do not cover the station charging cap")

    def number(value, kinds=(int, float)):
        return isinstance(value, kinds) and not isinstance(value, bool)

    settings = scenario.settings
    for name in ("budget", "block_width"):
        value = getattr(settings, name)
        if not (number(value, int) and value >= 1):
            bad(f"settings.{name}", f"must be an integer >= 1, got {value!r}")
    if not (number(settings.step_min) and settings.step_min > 0):
        bad("settings.step_min", f"must be > 0, got {settings.step_min!r}")
    for name in ("feas_tol", "duality_tol"):
        value = getattr(settings, name)
        if not (number(value) and math.isfinite(value) and value > 0):
            bad(f"settings.{name}", f"must be finite and > 0, got {value!r}")

    return ValidationReport(tuple(issues))


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
            station_caps={cid: cap * factor for cid, cap in f.station_caps},
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
    """Multiply every solar availability profile by a non-negative factor."""
    if multiplier < 0.0:
        raise ValueError(f"solar multiplier must be >= 0, got {multiplier}")
    units = tuple(
        replace(s, available=tuple(v * multiplier for v in s.available))
        for s in scenario.network.solar_units
    )
    return replace(scenario, network=replace(scenario.network, solar_units=units))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


_PRICE_FIELDS = {"tou", "offer_min", "offer_max", "wtp_min", "wtp_max", "cost"}


def _resolve_series(value, T, base_dir, path):
    """Accept a list of length T, a scalar broadcast to T, or a CSV reference
    of the form {"csv": filename, "id": row_id}."""
    if isinstance(value, dict):
        if "csv" not in value or "id" not in value:
            raise ScenarioFormatError(f"{path}: csv reference needs 'csv' and 'id'")
        csv_path = Path(value["csv"])
        if base_dir is not None and not csv_path.is_absolute():
            csv_path = Path(base_dir) / csv_path
        table = read_series_csv(csv_path)
        if value["id"] not in table:
            raise ScenarioFormatError(f"{path}: id {value['id']!r} not in {csv_path}")
        return table[value["id"]]
    if isinstance(value, (int, float)):
        return (float(value),) * T
    return _series(value)


def _price(obj: Mapping[str, Any], key: str, T, base_dir, path, series=True):
    """Fetch a price field in either $/MWh (plain key) or cents/kWh."""
    alt = f"{key}_cents_per_kwh"
    if alt in obj:
        raw = _resolve_series(obj[alt], T, base_dir, path) if series else float(obj[alt])
        if series:
            return tuple(v * CENTS_PER_KWH_TO_USD_PER_MWH for v in raw)
        return raw * CENTS_PER_KWH_TO_USD_PER_MWH
    if key not in obj:
        raise ScenarioFormatError(f"{path}: missing {key!r}")
    if series:
        return _resolve_series(obj[key], T, base_dir, path)
    return float(obj[key])


def read_series_csv(path) -> dict[str, tuple[float, ...]]:
    """Read per-period series from a CSV with header `id,t0,t1,...`."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "id":
        raise ScenarioFormatError(f"{path}: expected header starting with 'id'")
    out = {}
    for row in rows[1:]:
        if not row:
            continue
        out[row[0]] = tuple(float(v) for v in row[1:])
    return out


def scenario_from_json(data: Mapping[str, Any], base_dir=None) -> Scenario:
    try:
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ScenarioFormatError(f"unsupported schema_version {version}")
        net = data["network"]
        T = int(net["horizon"])

        buses = tuple(
            Bus(
                id=str(b["id"]),
                angle_min=float(b.get("angle_min", -0.5)),
                angle_max=float(b.get("angle_max", 0.5)),
                reference=bool(b.get("reference", False)),
            )
            for b in net.get("buses", [])
        )
        lines = tuple(
            Line(
                id=str(ln["id"]),
                from_bus=str(ln["from_bus"]),
                to_bus=str(ln["to_bus"]),
                reactance=float(ln["reactance"]),
                flow_min=float(ln.get("flow_min", -float(ln["flow_max"]))),
                flow_max=float(ln["flow_max"]),
            )
            for ln in net.get("lines", [])
        )
        generators = tuple(
            Generator(
                id=str(g["id"]),
                bus=str(g["bus"]),
                p_min=float(g.get("p_min", 0.0)),
                p_max=float(g["p_max"]),
                segments=tuple(
                    CostSegment(
                        p_min=float(s.get("p_min", 0.0)),
                        p_max=float(s["p_max"]),
                        cost=_price(s, "cost", T, base_dir, f"generator {g['id']}", series=False),
                    )
                    for s in g.get("segments", [])
                ),
            )
            for g in net.get("generators", [])
        )
        solar = tuple(
            SolarUnit(
                id=str(s["id"]),
                bus=str(s["bus"]),
                available=_resolve_series(s["available"], T, base_dir, f"solar {s['id']}"),
            )
            for s in net.get("solar_units", [])
        )
        demands = tuple(
            Demand(
                id=str(d["id"]),
                bus=str(d["bus"]),
                load=_resolve_series(d["load"], T, base_dir, f"demand {d['id']}"),
            )
            for d in net.get("demands", [])
        )
        network = Network(buses, lines, generators, solar, demands, T)

        fleets = tuple(
            EVFleet(
                id=str(f["id"]),
                bus=str(f["bus"]),
                max_charge=float(f["max_charge"]),
                home_cap=float(f.get("home_cap", 0.0)),
                home_connectivity=_resolve_series(
                    f.get("home_connectivity", 0.0), T, base_dir, f"fleet {f['id']}"
                ),
                station_caps={str(k): float(v) for k, v in f.get("station_caps", {}).items()},
                station_connectivity={
                    str(k): _resolve_series(v, T, base_dir, f"fleet {f['id']}")
                    for k, v in f.get("station_connectivity", {}).items()
                },
                energy_min=float(f["energy_min"]),
                energy_max=float(f["energy_max"]),
                initial_energy=float(f["initial_energy"]),
                final_energy_min=(
                    None if f.get("final_energy_min") is None else float(f["final_energy_min"])
                ),
                charge_efficiency=float(f.get("charge_efficiency", 1.0)),
                discharge_efficiency=float(f.get("discharge_efficiency", 1.0)),
                driving=_resolve_series(f.get("driving", 0.0), T, base_dir, f"fleet {f['id']}"),
                tou=_price(f, "tou", T, base_dir, f"fleet {f['id']}"),
            )
            for f in data.get("fleets", [])
        )
        stations = tuple(
            ChargingStation(
                id=str(s["id"]),
                fleet_id=str(s["fleet"]),
                offer_min=_price(s, "offer_min", T, base_dir, f"station {s['id']}"),
                offer_max=_price(s, "offer_max", T, base_dir, f"station {s['id']}"),
                segments=tuple(
                    WtpSegment(
                        width=float(seg["width"]),
                        wtp_min=_price(seg, "wtp_min", T, base_dir, f"station {s['id']}"),
                        wtp_max=_price(seg, "wtp_max", T, base_dir, f"station {s['id']}"),
                    )
                    for seg in s.get("wtp_segments", [])
                ),
            )
            for s in data.get("stations", [])
        )

        raw_settings = dict(data.get("settings", {}))
        raw_settings.pop("workers", None)  # older files carry it; nothing reads it
        known = {f.name for f in fields(SolverSettings)}
        unknown = set(raw_settings) - known
        if unknown:
            raise ScenarioFormatError(f"settings: unknown keys {sorted(unknown)}")
        settings = SolverSettings(**raw_settings)
        if settings.parameterization not in _PARAM_MODES:
            raise ScenarioFormatError(
                f"settings.parameterization must be one of {_PARAM_MODES}"
            )
        sweeps = SweepDefaults(
            penetration_levels=data.get("sweeps", {}).get("penetration_levels", ()),
            pv_multipliers=data.get("sweeps", {}).get("pv_multipliers", ()),
        )
        return Scenario(
            name=str(data.get("name", "scenario")),
            network=network,
            fleets=fleets,
            stations=stations,
            settings=settings,
            sweeps=sweeps,
        )
    except ScenarioFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"malformed scenario document: {exc}") from exc


def scenario_to_json(scenario: Scenario) -> dict:
    net = scenario.network
    return {
        "schema_version": SCHEMA_VERSION,
        "name": scenario.name,
        "network": {
            "horizon": net.horizon,
            "buses": [
                {
                    "id": b.id,
                    "angle_min": b.angle_min,
                    "angle_max": b.angle_max,
                    "reference": b.reference,
                }
                for b in net.buses
            ],
            "lines": [
                {
                    "id": ln.id,
                    "from_bus": ln.from_bus,
                    "to_bus": ln.to_bus,
                    "reactance": ln.reactance,
                    "flow_min": ln.flow_min,
                    "flow_max": ln.flow_max,
                }
                for ln in net.lines
            ],
            "generators": [
                {
                    "id": g.id,
                    "bus": g.bus,
                    "p_min": g.p_min,
                    "p_max": g.p_max,
                    "segments": [
                        {"p_min": s.p_min, "p_max": s.p_max, "cost": s.cost} for s in g.segments
                    ],
                }
                for g in net.generators
            ],
            "solar_units": [
                {"id": s.id, "bus": s.bus, "available": list(s.available)} for s in net.solar_units
            ],
            "demands": [{"id": d.id, "bus": d.bus, "load": list(d.load)} for d in net.demands],
        },
        "fleets": [
            {
                "id": f.id,
                "bus": f.bus,
                "max_charge": f.max_charge,
                "home_cap": f.home_cap,
                "home_connectivity": list(f.home_connectivity),
                "station_caps": {k: v for k, v in f.station_caps},
                "station_connectivity": {k: list(v) for k, v in f.station_connectivity},
                "energy_min": f.energy_min,
                "energy_max": f.energy_max,
                "initial_energy": f.initial_energy,
                "final_energy_min": f.final_energy_min,
                "charge_efficiency": f.charge_efficiency,
                "discharge_efficiency": f.discharge_efficiency,
                "driving": list(f.driving),
                "tou": list(f.tou),
            }
            for f in scenario.fleets
        ],
        "stations": [
            {
                "id": s.id,
                "fleet": s.fleet_id,
                "offer_min": list(s.offer_min),
                "offer_max": list(s.offer_max),
                "wtp_segments": [
                    {"width": seg.width, "wtp_min": list(seg.wtp_min), "wtp_max": list(seg.wtp_max)}
                    for seg in s.segments
                ],
            }
            for s in scenario.stations
        ],
        "settings": {
            "feas_tol": scenario.settings.feas_tol,
            "duality_tol": scenario.settings.duality_tol,
            "budget": scenario.settings.budget,
            "multistarts": scenario.settings.multistarts,
            "step_min": scenario.settings.step_min,
            "parameterization": scenario.settings.parameterization,
            "block_width": scenario.settings.block_width,
            "seed": scenario.settings.seed,
        },
        "sweeps": {
            "penetration_levels": list(scenario.sweeps.penetration_levels),
            "pv_multipliers": list(scenario.sweeps.pv_multipliers),
        },
    }


def load_scenario(path) -> Scenario:
    path = Path(path)
    with open(path) as fh:
        data = json.load(fh)
    return scenario_from_json(data, base_dir=path.parent)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_json(scenario), fh, indent=2)
        fh.write("\n")
