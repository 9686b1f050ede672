"""Command-line front end: scenario validation, optimized runs with
certification and plot-data emission, and penetration / solar sweeps.

Exit codes: 0 success, 1 scenario invariants violated, 2 unusable input or
bad usage, 3 certification failure.  `run --certify` re-certifies a cached
outcome.json by the same codes: 2 when it is missing or unreadable (a key
its format does not name included), 1 with `validate`'s report when its
scenario fails validation, 3 when its certificate fails; it creates no
directory.  `--budget` and `--seed` set the scenario's `settings` before it
is validated, so outcome.json embeds the settings the search used.
Identical scenario and settings give byte-identical output files.  The
default output directory comes from EVCSMARKET_OUT (falling back to ./out).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import bilevel, scenarios
from .model import CENTS_PER_KWH_TO_USD_PER_MWH, ScenarioFormatError, load_scenario, validate


def _load(path: str):
    try:
        return load_scenario(path)
    except OSError:
        raise _UsageError(f"cannot read scenario file: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _UsageError(f"scenario file is not valid JSON: {exc}")
    except ScenarioFormatError as exc:
        raise _UsageError(str(exc))


def _load_run(args):
    """The scenario file of a run or sweep, with `--budget` and `--seed`,
    where given, set in its settings."""
    scenario = _load(args.scenario)
    given = {k: getattr(args, k) for k in ("budget", "seed") if getattr(args, k) is not None}
    return replace(scenario, settings=replace(scenario.settings, **given))


class _UsageError(Exception):
    pass


def _out_path(arg: str | None) -> Path:
    return Path(arg or os.environ.get("EVCSMARKET_OUT", "out"))


def _out_dir(arg: str | None) -> Path:
    """The output directory of a run or sweep that writes, created if
    missing."""
    out = _out_path(arg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _UsageError(f"cannot use output directory {out}: {exc}")
    return out


def _refused(scenario) -> bool:
    """Whether `scenario` fails `validate`; prints the report to stderr if so."""
    report = validate(scenario)
    if not report.ok:
        print(report, file=sys.stderr)
    return not report.ok


def cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    report = validate(scenario)
    print(report)
    return 0 if report.ok else 1


def hourly_profile_csv(outcome: bilevel.EquilibriumOutcome) -> str:
    """Per-hour price and charging trends: average station offer and the
    cleared retail price in cents/kWh, quantity-weighted average cleared bid
    price in $/MWh, and total charged power in MW."""
    scenario = outcome.scenario
    T = scenario.network.horizon
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["hour", "avg_offer_c_kwh", "retail_price_c_kwh", "avg_wtp_usd_mwh", "charged_mw"]
    )
    for t in range(T):
        offers = [outcome.offers[st.id][t] for st in scenario.stations]
        avg_offer = sum(offers) / len(offers) / CENTS_PER_KWH_TO_USD_PER_MWH if offers else 0.0

        paid = 0.0
        charged = 0.0
        for f in scenario.fleets:
            paid += outcome.schedule.home[f.id][t] * f.tou[t]
            charged += outcome.schedule.total[f.id][t]
        for st in scenario.stations:
            paid += outcome.schedule.station[st.fleet_id][st.id][t] * outcome.offers[st.id][t]
        retail = "" if charged <= 0 else f"{paid / charged / CENTS_PER_KWH_TO_USD_PER_MWH:.1f}"

        wtp_num = 0.0
        wtp_den = 0.0
        flat = []
        for st in scenario.stations:
            for m in range(len(st.segments)):
                q = outcome.schedule.segments[st.fleet_id][st.id][m][t]
                pi = outcome.dam.wtp[st.id][m][t]
                wtp_num += q * pi
                wtp_den += q
                flat.append(pi)
        if wtp_den > 0:
            avg_wtp = wtp_num / wtp_den
        else:
            avg_wtp = sum(flat) / len(flat) if flat else 0.0

        writer.writerow([t, f"{avg_offer:.1f}", retail, f"{avg_wtp:.2f}", f"{charged:.3f}"])
    return buf.getvalue()


def bus_lmp_csv(outcome: bilevel.EquilibriumOutcome) -> str:
    """Locational price next to fleet charging, per bus and hour."""
    scenario = outcome.scenario
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bus", "hour", "lmp_usd_mwh", "charged_mw"])
    for b in scenario.network.buses:
        for t in range(scenario.network.horizon):
            charged = sum(
                outcome.schedule.total[f.id][t] for f in scenario.fleets if f.bus == b.id
            )
            writer.writerow([b.id, t, f"{outcome.dam.lmp[b.id][t]:.4f}", f"{charged:.3f}"])
    return buf.getvalue()


def _write(path: Path, content: str) -> None:
    with open(path, "w") as fh:
        fh.write(content)


def cmd_run(args) -> int:
    if args.certify:
        outcome_path = _out_path(args.out) / "outcome.json"
        if not outcome_path.exists():
            raise _UsageError(f"--certify: no cached outcome at {outcome_path}")
        try:
            with open(outcome_path) as fh:
                outcome = bilevel.outcome_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError, ScenarioFormatError) as exc:
            raise _UsageError(f"--certify: cached outcome unreadable: {exc}")
        if _refused(outcome.scenario):
            return 1
        cert = bilevel.certify(outcome)
        print(cert.summary())
        return 0 if cert.passed else 3

    scenario = _load_run(args)
    if _refused(scenario):
        return 1
    out = _out_dir(args.out)

    result = scenarios.run_baseline(scenario)

    with open(out / "outcome.json", "w") as fh:
        bilevel.dump_outcome(result.outcome, fh)
    with open(out / "certificate.json", "w") as fh:
        json.dump(bilevel.certificate_to_json(result.certificate), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write(out / "metrics.csv", scenarios.baseline_csv(result))
    _write(out / "hourly_profile.csv", hourly_profile_csv(result.outcome))
    _write(out / "bus_lmp_charged.csv", bus_lmp_csv(result.outcome))

    r = result.row
    print(f"profit ${r.profit:.2f} (revenue ${r.revenue:.2f}, cost ${r.cost:.2f})")
    if r.retail_price_c_kwh is not None:
        print(f"retail price {r.retail_price_c_kwh:.1f} c/kWh over {r.charged_energy:.1f} MWh charged")
    print(
        f"owner payment ${result.owner_payment:.2f} with stations, "
        f"${result.owner_payment_no_stations:.2f} without (saving ${result.owner_savings:.2f})"
    )
    print(result.certificate.summary())
    print(f"outputs written to {out}")
    if not result.certificate.passed:
        print("certification FAILED:", result.certificate.failing(), file=sys.stderr)
        return 3
    return 0


def _parse_levels(text: str, what: str) -> list[float]:
    try:
        levels = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise _UsageError(f"cannot parse {what} list: {text!r}")
    if not levels:
        raise _UsageError(f"{what}: no levels given in {text!r}")
    return levels


def cmd_sweep(args) -> int:
    scenario = _load_run(args)
    if _refused(scenario):
        return 1
    out = _out_dir(args.out)

    axis = "pv" if args.penetration is None else "penetration"  # the parser requires one
    sweep = {"pv": scenarios.sweep_pv, "penetration": scenarios.sweep_penetration}[axis]
    levels = _parse_levels(getattr(args, axis), f"--{axis}")
    entries = sweep(scenario, levels)
    csv_name = f"sweep_{axis}.csv"
    context = scenarios.REFERENCE_CASE_TABLE[axis]

    _write(out / csv_name, scenarios.metrics_csv(entries))

    print(f"sweep over {entries[0].axis}: {', '.join(f'{e.value:g}' for e in entries)}")
    for e in entries:
        if e.error is not None:
            print(f"  {e.value:g}: ERROR {e.error}")
        else:
            r = e.row
            ppct = "" if r.profit_pct is None else f", profit {r.profit_pct:.1f}%"
            buy = "" if r.purchased_price is None else f", buys at {r.purchased_price:.2f} $/MWh"
            print(f"  {e.value:g}: profit ${r.profit:.2f}{ppct}{buy}")
    print("trend verdicts:")
    for field, verdict in sorted(scenarios.trend_verdicts(entries).items()):
        print(f"  {field}: {verdict}")
    print("published 30-bus reference rows (context only, not asserted):")
    for key, values in context.items():
        print(f"  {key}: {values}")
    print(f"CSV written to {out / csv_name}")

    failed = [e for e in entries if e.error is not None or not e.result.certificate.passed]
    return 3 if failed else 0


def _int_at_least(text: str, least: int) -> int:
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def _budget(text: str) -> int:
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    return _int_at_least(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evcsmarket",
        description="Charging-station offer optimization against a day-ahead market",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file's invariants")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="optimize offers, certify, write reports")
    p.add_argument("scenario")
    p.add_argument("--budget", type=_budget, default=None, help="sets settings.budget")
    p.add_argument("--seed", type=_seed, default=None, help="sets settings.seed")
    p.add_argument("--out", default=None, help="output directory (default $EVCSMARKET_OUT or ./out)")
    p.add_argument(
        "--certify",
        action="store_true",
        help="re-certify the cached outcome.json in the output directory instead of running",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="re-run the study over one sweep axis")
    p.add_argument("scenario")
    axis = p.add_mutually_exclusive_group(required=True)
    axis.add_argument("--penetration", help="comma-separated EV penetration levels in (0,1)")
    axis.add_argument("--pv", help="comma-separated solar capacity multipliers >= 0")
    p.add_argument("--budget", type=_budget, default=None, help="sets settings.budget")
    p.add_argument("--seed", type=_seed, default=None, help="sets settings.seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
