"""Seeded scenario generators for the benchmark, built only on the public
`evcsmarket.model` API.

`synthetic` draws a ring-plus-chords network of any size with stepped
generator costs, solar and commuter fleets (one station each).  Every bus
carries a local generator able to cover its own peak load plus the peak
charge of the fleets sitting there, so a zero-flow dispatch is always
feasible and market clearing never fails, while the cost spread across buses
and the tight chord limits still produce congestion and distinct locational
prices.

`random_bilevel` is the benchmark's own copy of the single-station random
instance family used by the search-vs-grid acceptance criterion (offer band
straddling the retail rate, 2 or 3 periods).
"""

from __future__ import annotations

import numpy as np

from evcsmarket import model as md

_COMMUTE_OUT = (7, 8, 9)
_COMMUTE_BACK = (17, 18, 19)


def synthetic(buses: int, fleets: int, seed: int, horizon: int = 24) -> md.Scenario:
    """Ring of `buses` plus about buses/4 chords, one commuter fleet with one
    station on each of `fleets` distinct non-reference buses; offers are
    searched per station and hour."""
    if buses < 3 or not 1 <= fleets < buses:
        raise ValueError("need at least 3 buses and 1 <= fleets < buses")
    rng = np.random.default_rng(seed)
    T = horizon
    ids = [f"b{i}" for i in range(buses)]

    def hours(lo, hi, value=1.0):
        return tuple(value if lo <= t % 24 <= hi else 0.0 for t in range(T))

    bus_objs = tuple(md.Bus(b, -1.5, 1.5, reference=(i == 0)) for i, b in enumerate(ids))

    pairs = [(i, (i + 1) % buses) for i in range(buses)]
    seen = {frozenset(p) for p in pairs}
    while len(pairs) < buses + buses // 4:
        i, j = (int(v) for v in rng.choice(buses, size=2, replace=False))
        if frozenset((i, j)) not in seen:
            seen.add(frozenset((i, j)))
            pairs.append((i, j))
    lines = []
    for k, (i, j) in enumerate(pairs):
        limit = float(rng.uniform(20.0, 60.0) if k >= buses else rng.uniform(60.0, 160.0))
        lines.append(
            md.Line(f"l{k}", ids[i], ids[j], float(rng.uniform(0.05, 0.2)), -limit, limit)
        )

    fleet_buses = [int(v) for v in rng.choice(np.arange(1, buses), size=fleets, replace=False)]
    fleet_scale = [float(rng.uniform(0.4, 1.2)) for _ in range(fleets)]

    demands = []
    peak = []
    for i, b in enumerate(ids):
        base = float(rng.uniform(8.0, 30.0))
        evening = base * float(rng.uniform(1.2, 1.6))
        load = tuple(evening if t % 24 in range(17, 22) else base for t in range(T))
        demands.append(md.Demand(f"d{i}", b, load))
        peak.append(evening)

    generators = []
    for i, b in enumerate(ids):
        need = peak[i] + sum(40.0 * s for fb, s in zip(fleet_buses, fleet_scale) if fb == i)
        capacity = need * float(rng.uniform(1.2, 1.6))
        cheap = bool(rng.uniform() < 0.3)
        cost = float(rng.uniform(12.0, 25.0) if cheap else rng.uniform(30.0, 60.0))
        widths = np.diff(np.sort(rng.uniform(0.0, capacity, size=2)), prepend=0.0, append=capacity)
        segments = []
        for w in widths:
            segments.append(md.CostSegment(0.0, float(w), cost))
            cost += float(rng.uniform(5.0, 40.0))
        generators.append(md.Generator(f"g{i}", b, 0.0, capacity, tuple(segments)))

    solar = []
    for i in sorted(int(v) for v in rng.choice(buses, size=max(1, buses // 4), replace=False)):
        solar.append(md.SolarUnit(f"s{i}", ids[i], hours(9, 16, float(rng.uniform(5.0, 30.0)))))

    fleet_objs = []
    stations = []
    for k, (i, scale) in enumerate(zip(fleet_buses, fleet_scale)):
        fid, cid = f"f{k}", f"c{k}"
        drive = 20.0 * scale
        tou = float(rng.uniform(150.0, 220.0))
        fleet_objs.append(
            md.EVFleet(
                id=fid,
                bus=ids[i],
                max_charge=40.0 * scale,
                home_cap=20.0 * scale,
                home_connectivity=tuple(
                    1.0 if t % 24 <= 6 or t % 24 >= 20 else 0.0 for t in range(T)
                ),
                station_caps={cid: 18.0 * scale},
                station_connectivity={cid: hours(9, 16)},
                energy_min=40.0 * scale,
                energy_max=400.0 * scale,
                initial_energy=150.0 * scale,
                final_energy_min=150.0 * scale,
                charge_efficiency=0.95,
                discharge_efficiency=0.95,
                driving=tuple(
                    drive if t % 24 in _COMMUTE_OUT + _COMMUTE_BACK else 0.0 for t in range(T)
                ),
                tou=(tou,) * T,
            )
        )
        width = 9.0 * scale
        stations.append(
            md.ChargingStation(
                id=cid,
                fleet_id=fid,
                offer_min=(60.0,) * T,
                offer_max=(tou - 10.0,) * T,
                segments=(
                    md.WtpSegment(width, (150.0,) * T, (250.0,) * T),
                    md.WtpSegment(width, (120.0,) * T, (220.0,) * T),
                ),
            )
        )

    network = md.Network(
        bus_objs, tuple(lines), tuple(generators), tuple(solar), tuple(demands), T
    )
    settings = md.SolverSettings(parameterization=md.PARAM_PER_STATION_PERIOD, seed=seed)
    return md.Scenario(
        f"synthetic_{buses}b_{fleets}f_s{seed}",
        network,
        tuple(fleet_objs),
        tuple(stations),
        settings,
    )


def random_bilevel(seed: int) -> md.Scenario:
    """One station, short horizon, ample capacity: the offer band straddles
    the retail rate so the profit landscape has its knife edge inside."""
    rng = np.random.default_rng(seed)
    T = 2 if seed % 5 < 3 else 3
    gen_cost = float(rng.uniform(5.0, 15.0))
    second_cost = gen_cost + float(rng.uniform(5.0, 20.0))
    tou = float(rng.uniform(25.0, 45.0))
    lo = float(rng.uniform(5.0, 12.0))
    hi = tou + float(rng.uniform(2.0, 12.0))
    demand = float(rng.uniform(10.0, 40.0))
    drive = float(rng.uniform(4.0, 9.0))

    net = md.Network(
        buses=(md.Bus("b1", -1.0, 1.0, True),),
        lines=(),
        generators=(
            md.Generator(
                "g1",
                "b1",
                0.0,
                260.0,
                (
                    md.CostSegment(0.0, demand + 8.0, gen_cost),
                    md.CostSegment(0.0, 252.0 - demand, second_cost),
                ),
            ),
        ),
        solar_units=(),
        demands=(md.Demand("d1", "b1", (demand,) * T),),
        horizon=T,
    )
    driving = [0.0] * T
    driving[-1] = drive
    fleet = md.EVFleet(
        id="f1",
        bus="b1",
        max_charge=12.0,
        home_cap=12.0,
        home_connectivity=(1.0,) * T,
        station_caps={"c1": 12.0},
        station_connectivity={"c1": (1.0,) * T},
        energy_min=0.0,
        energy_max=30.0,
        initial_energy=0.0,
        charge_efficiency=1.0,
        discharge_efficiency=1.0,
        driving=tuple(driving),
        tou=(tou,) * T,
    )
    station = md.ChargingStation(
        "c1",
        "f1",
        (lo,) * T,
        (hi,) * T,
        (md.WtpSegment(12.0, (0.0,) * T, (60.0,) * T),),
    )
    return md.Scenario(f"rand{seed}", net, (fleet,), (station,), md.SolverSettings(seed=seed))


def grid_levels(scenario: md.Scenario, index: int) -> int:
    """Grid resolution the acceptance criterion pairs with an instance."""
    return (5, 7, 9)[index % 3] if scenario.network.horizon == 2 else 5
