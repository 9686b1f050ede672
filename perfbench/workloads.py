"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in `setup` (import,
load or generate, validate) and then runs identical passes over them; a pass
is what a user does with one scenario on the command line: validate, solve,
certify, price the no-station counterfactual and write the outcome files.
Correctness gates are recorded on a `Gates` object rather than raised, so a
failing check is counted instead of ending the run.

desk_run          `evcsmarket run data/desk_5bus.json` at the file's own
                  settings; the seed does not change the input.
oracle_small      five random single-station instances (seeds 5*seed ..
                  5*seed+4, so always three of 2 periods with grids of 5, 7
                  and 9 levels and two of 3 periods with 5 levels): grid
                  oracle, optimize + certify + counterfactual.
synthetic_ladder  four ring-plus-chords scenarios from 10 buses/2 fleets to
                  40 buses/5 fleets: one evaluate at a seeded random hourly
                  strategy, certify, counterfactual.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import generators
from evcsmarket import bilevel, cli, model, scenarios

GRID_ATTAINMENT = 0.99  # search vs grid optimum, as in acceptance criterion 5
LADDER = ((10, 2), (20, 3), (30, 4), (40, 5))
ORACLE_INSTANCES = 5


class Gates:
    """Counts correctness checks; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


@dataclass
class PassResult:
    profit: float = 0.0
    outputs: dict[str, bytes] = field(default_factory=dict)
    grid_attainment: float | None = None


def write_outputs(directory: Path, outcome, certificate) -> bytes:
    """Serialize outcome and certificate the way `evcsmarket run` does;
    returns the outcome.json bytes."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "outcome.json", "w") as fh:
        bilevel.dump_outcome(outcome, fh)
    with open(directory / "certificate.json", "w") as fh:
        json.dump(bilevel.certificate_to_json(certificate), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (directory / "outcome.json").read_bytes()


def warm_up() -> None:
    """Evaluate and certify the desk scenario's midpoint offers once, untimed:
    the first threaded BLAS work of a process can stall for about a second,
    and that one-time start-up should not land in a timed pass."""
    scenario = scenarios.desk_scenario()
    bilevel.certify(bilevel.evaluate(bilevel.midpoint_strategy(scenario), scenario))


def _require_valid(scenario) -> None:
    report = model.validate(scenario)
    if not report.ok:
        raise ValueError(f"{scenario.name} fails validate: {report}")


class DeskRun:
    name = "desk_run"

    def __init__(self, root: Path, out: Path):
        self.path = root / "data" / "desk_5bus.json"
        self.out = out / self.name

    def setup(self, seed: int):
        _require_valid(model.load_scenario(self.path))
        return None

    def run_pass(self, state, gates: Gates) -> PassResult:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(["run", str(self.path), "--out", str(self.out)])
        result = PassResult()
        if not gates.check(rc == 0, f"desk_run: cli exit code {rc}: {sink.getvalue()[-300:]}"):
            return result
        raw = (self.out / "outcome.json").read_bytes()
        cert = json.loads((self.out / "certificate.json").read_text())
        gates.check(cert["passed"], f"desk_run: certificate failing {cert['failing']}")
        result.profit = json.loads(raw)["profit"]
        result.outputs["desk_5bus"] = raw
        return result


class OracleSmall:
    name = "oracle_small"

    def __init__(self, root: Path, out: Path):
        self.out = out / self.name

    def setup(self, seed: int):
        instances = []
        for k in range(ORACLE_INSTANCES):
            s = ORACLE_INSTANCES * seed + k
            scenario = generators.random_bilevel(s)
            _require_valid(scenario)
            instances.append((scenario, generators.grid_levels(scenario, k)))
        return instances

    def run_pass(self, instances, gates: Gates) -> PassResult:
        result = PassResult()
        ratios = []
        for scenario, levels in instances:
            gates.check(model.validate(scenario).ok, f"{scenario.name}: validate")
            grid = bilevel.brute_force(scenario, levels=levels)
            base = scenarios.run_baseline(scenario)
            searched = base.outcome
            gates.check(
                base.certificate.passed,
                f"{scenario.name}: certificate failing {base.certificate.failing()}",
            )
            if grid.profit > 0:
                ok = searched.profit >= GRID_ATTAINMENT * grid.profit - 1e-12
            else:
                ok = searched.profit >= grid.profit - 1e-6
            gates.check(ok, f"{scenario.name}: search {searched.profit} vs grid {grid.profit}")
            if grid.profit > 1e-9:
                ratios.append(searched.profit / grid.profit)
            result.profit += searched.profit
            result.outputs[scenario.name] = write_outputs(
                self.out / scenario.name, searched, base.certificate
            )
        result.grid_attainment = min(ratios) if ratios else 1.0
        return result


class SyntheticLadder:
    name = "synthetic_ladder"

    def __init__(self, root: Path, out: Path):
        self.out = out / self.name

    def setup(self, seed: int):
        rungs = []
        for k, (buses, fleets) in enumerate(LADDER):
            scenario = generators.synthetic(buses, fleets, seed=1000 * seed + k)
            _require_valid(scenario)
            params = bilevel.offer_parameters(scenario)
            rng = np.random.default_rng([seed, k])
            values = tuple(float(rng.uniform(p.lower, p.upper)) for p in params)
            rungs.append((scenario, bilevel.Strategy(params, values)))
        return rungs

    def run_pass(self, rungs, gates: Gates) -> PassResult:
        result = PassResult()
        for scenario, strategy in rungs:
            gates.check(model.validate(scenario).ok, f"{scenario.name}: validate")
            outcome = bilevel.evaluate(strategy, scenario)
            cert = bilevel.certify(outcome)
            gates.check(cert.passed, f"{scenario.name}: certificate failing {cert.failing()}")
            # offers sit below every retail rate, so owners never pay more with stations
            with_stations = scenarios.metrics_row(outcome).owner_payment
            without = scenarios.no_station_payment(scenario, outcome.offers)
            gates.check(
                with_stations <= without + 1e-6 * max(1.0, abs(without)),
                f"{scenario.name}: owners pay {with_stations} with stations, {without} without",
            )
            result.profit += outcome.profit
            result.outputs[scenario.name] = write_outputs(self.out / scenario.name, outcome, cert)
        return result


WORKLOADS = {w.name: w for w in (DeskRun, OracleSmall, SyntheticLadder)}
