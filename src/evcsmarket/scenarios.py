"""Study harnesses: per-run economic metrics, the with/without-stations
baseline comparison, and penetration / solar-capacity sweeps with trend
verdicts.

The desk scenario (`desk_scenario`) is stated once, in `data/desk_5bus.json`;
the package ships that file as `desk_5bus.json` next to this module and
loads it from there.

Dollar figures from the published 30-bus reference study depend on a dataset
that is not part of this package; sweeps here assert *directions* at desk
scale and can print the reference rows alongside for context only (clearly
non-binding, see REFERENCE_CASE_TABLE).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path

from . import bilevel
from .bilevel import Certificate, EquilibriumOutcome
from . import fleet as fleet_mod
from .model import (
    CENTS_PER_KWH_TO_USD_PER_MWH,
    Scenario,
    load_scenario,
    scale_penetration,
    scale_solar,
)

_IDENTITY_RTOL = 1e-9


@dataclass(frozen=True)
class MetricsRow:
    """One row of study metrics; every derived field is recomputed and
    verified against its definition at construction time."""

    revenue: float
    cost: float
    profit: float
    profit_pct: float | None
    retail_price_c_kwh: float | None
    purchased_price: float | None
    lmp_max: float
    lmp_min: float
    solar_used: float
    solar_available: float
    curtailment_pct: float
    owner_payment: float
    charged_energy: float
    station_energy: float

    def __post_init__(self):
        def close(a, b):
            return abs(a - b) <= _IDENTITY_RTOL * max(1.0, abs(a), abs(b))

        if not close(self.profit, self.revenue - self.cost):
            raise ValueError("profit must equal revenue - cost")
        if self.charged_energy > 0 and self.retail_price_c_kwh is not None:
            paid = self.retail_price_c_kwh * CENTS_PER_KWH_TO_USD_PER_MWH * self.charged_energy
            if not close(paid, self.owner_payment):
                raise ValueError("retail price must equal payments over charged energy")
        if self.solar_available > 0:
            if not close(
                self.curtailment_pct, 100.0 * (1.0 - self.solar_used / self.solar_available)
            ):
                raise ValueError("curtailment must match utilized/available")
        elif self.curtailment_pct != 0.0:
            raise ValueError("curtailment is 0 by convention when nothing is available")


def metrics_row(outcome: EquilibriumOutcome) -> MetricsRow:
    scenario = outcome.scenario
    T = scenario.network.horizon
    sched = outcome.schedule

    charged = sum(sum(series) for series in sched.total.values())
    station_energy = sched.station_energy()
    owner_payment = sched.cost

    solar_used = sum(sum(series) for series in outcome.dam.solar.values())
    solar_available = sum(sum(s.available) for s in scenario.network.solar_units)
    curtail = 0.0
    if solar_available > 0:
        curtail = 100.0 * (1.0 - solar_used / solar_available)

    lmps = [v for series in outcome.dam.lmp.values() for v in series]
    return MetricsRow(
        revenue=outcome.revenue,
        cost=outcome.cost,
        profit=outcome.profit,
        profit_pct=None if abs(outcome.cost) < 1e-12 else 100.0 * outcome.profit / outcome.cost,
        retail_price_c_kwh=(
            None if charged <= 0 else owner_payment / charged / CENTS_PER_KWH_TO_USD_PER_MWH
        ),
        purchased_price=None if station_energy <= 0 else outcome.cost / station_energy,
        lmp_max=max(lmps),
        lmp_min=min(lmps),
        solar_used=solar_used,
        solar_available=solar_available,
        curtailment_pct=curtail,
        owner_payment=owner_payment,
        charged_energy=charged,
        station_energy=station_energy,
    )


@dataclass(frozen=True)
class BaselineResult:
    """Optimized run plus the no-station counterfactual payment."""

    row: MetricsRow
    outcome: EquilibriumOutcome
    certificate: Certificate
    owner_payment_no_stations: float

    @property
    def owner_payment(self) -> float:
        return self.row.owner_payment

    @property
    def owner_savings(self) -> float:
        return self.owner_payment_no_stations - self.owner_payment


def no_station_payment(scenario: Scenario, offers) -> float:
    """Total owner payment when station access is removed (all station
    connectivity forced to zero): home charging at the retail rate only."""
    fleets = tuple(
        replace(
            f,
            station_connectivity={cid: (0.0,) * scenario.network.horizon for cid in f.station_caps},
        )
        for f in scenario.fleets
    )
    counterfactual = replace(scenario, fleets=fleets)
    return fleet_mod.solve_fleet(fleet_mod.fleet_input(counterfactual, offers)).cost


def run_baseline(scenario: Scenario) -> BaselineResult:
    """Optimize offers at the scenario's settings, certify the outcome,
    compute metrics, and price the no-station counterfactual with the same
    offer vector."""
    outcome = bilevel.optimize(scenario)
    return BaselineResult(
        outcome=outcome,
        certificate=bilevel.certify(outcome),
        row=metrics_row(outcome),
        owner_payment_no_stations=no_station_payment(scenario, outcome.offers),
    )


@dataclass(frozen=True)
class SweepEntry:
    axis: str
    value: float
    result: BaselineResult | None
    error: str | None

    @property
    def row(self) -> MetricsRow | None:
        return None if self.result is None else self.result.row


def _run_sweep(scenario, axis, values, scale_fn) -> list[SweepEntry]:
    """Run each level's independent pipeline in input order.  A failing
    level is recorded, not fatal."""

    def run_one(value) -> SweepEntry:
        try:
            result = run_baseline(scale_fn(scenario, value))
            return SweepEntry(axis, float(value), result, None)
        except Exception as exc:  # noqa: BLE001 - per-level isolation is the contract
            return SweepEntry(axis, float(value), None, str(exc))

    return [run_one(v) for v in values]


def sweep_penetration(scenario: Scenario, levels) -> list[SweepEntry]:
    """Re-run the baseline study at each EV penetration level (fraction of
    total demand, EV included)."""
    return _run_sweep(scenario, "penetration_level", levels, scale_penetration)


def sweep_pv(scenario: Scenario, multipliers) -> list[SweepEntry]:
    """Re-run the baseline study with solar availability scaled by each
    multiplier (0 removes solar entirely)."""
    return _run_sweep(scenario, "pv_multiplier", multipliers, scale_solar)


# ---------------------------------------------------------------------------
# trends and export
# ---------------------------------------------------------------------------


def _direction(values) -> str:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return "n/a"
    non_inc = all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    non_dec = all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    if non_inc and non_dec:
        return "constant"
    if non_inc:
        return "non-increasing"
    if non_dec:
        return "non-decreasing"
    return "mixed"


TREND_FIELDS = (
    "revenue",
    "cost",
    "profit",
    "profit_pct",
    "purchased_price",
    "retail_price_c_kwh",
)


def trend_verdicts(entries) -> dict[str, str]:
    verdicts = {}
    rows = [e.row for e in entries if e.row is not None]
    for field_name in TREND_FIELDS:
        verdicts[field_name] = _direction([getattr(r, field_name) for r in rows])
    return verdicts


# Published 30-bus reference rows, context only; this package's sweeps assert
# directions at desk scale, never these dollar figures.
REFERENCE_CASE_TABLE = {
    "penetration": {
        "levels_pct": (10, 15, 20, 25),
        "revenue_kusd": (60.6, 93.1, 132.6, 171.4),
        "profit_pct": (1135, 1022, 821, 81),
        "purchased_price_usd_mwh": (16.7, 18.4, 22.5, 122.2),
    },
    "pv": {
        "installed_mw": (0, 160, 320),
        "profit_kusd": (53.7, 55.6, 56.7),
        "purchased_price_usd_mwh": (19.8, 16.7, 11.5),
        "curtailment_pct": (0, 0.4, 32.1),
    },
}

METRICS_FIELDS = (
    ("revenue_usd", lambda r: _money(r.revenue)),
    ("cost_usd", lambda r: _money(r.cost)),
    ("profit_usd", lambda r: _money(r.profit)),
    ("profit_pct", lambda r: "" if r.profit_pct is None else f"{r.profit_pct:.1f}"),
    (
        "retail_price_c_kwh",
        lambda r: "" if r.retail_price_c_kwh is None else f"{r.retail_price_c_kwh:.1f}",
    ),
    (
        "purchased_price_usd_mwh",
        lambda r: "" if r.purchased_price is None else f"{r.purchased_price:.2f}",
    ),
    ("lmp_max_usd_mwh", lambda r: f"{r.lmp_max:.2f}"),
    ("lmp_min_usd_mwh", lambda r: f"{r.lmp_min:.2f}"),
    ("solar_used_mwh", lambda r: f"{r.solar_used:.2f}"),
    ("curtailment_pct", lambda r: f"{r.curtailment_pct:.2f}"),
    ("owner_payment_usd", lambda r: _money(r.owner_payment)),
)


def _money(value: float) -> str:
    return f"{value:.2f}"


def metrics_csv(entries) -> str:
    """Fixed-layout sweep export: axis column, metric columns, counterfactual
    payment columns, and an error column for levels that failed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    axis = entries[0].axis if entries else "axis"
    writer.writerow(
        [axis]
        + [name for name, _ in METRICS_FIELDS]
        + ["owner_payment_no_stations_usd", "owner_savings_usd", "error"]
    )
    for e in entries:
        if e.result is None:
            writer.writerow([f"{e.value:g}"] + [""] * (len(METRICS_FIELDS) + 2) + [e.error])
        else:
            writer.writerow(
                [f"{e.value:g}"]
                + [fmt(e.row) for _, fmt in METRICS_FIELDS]
                + [
                    _money(e.result.owner_payment_no_stations),
                    _money(e.result.owner_savings),
                    "",
                ]
            )
    return buf.getvalue()


def baseline_csv(result: BaselineResult) -> str:
    entry = SweepEntry("run", 0.0, result, None)
    return metrics_csv([entry])


# ---------------------------------------------------------------------------
# desk-scale scenario
# ---------------------------------------------------------------------------


def desk_scenario() -> Scenario:
    """Five-bus day-long scenario small enough for exhaustive testing.

    Geography: bus n1 holds the cheap system generator, n2/n3 carry most of
    the fixed load, n4 is the EV hub (big fleet, solar, an expensive local
    peaker behind limited corridors), n5 a smaller EV pocket.  Station access
    is a daytime window matching the solar plateau; home charging is a
    night window at the flat retail rate.  Offer caps sit below the retail
    rate, so station charging wins wherever connected, and rising EV load
    pushes the hub's marginal price up through the peaker's cost steps.
    """
    return load_scenario(Path(__file__).with_name("desk_5bus.json"))
