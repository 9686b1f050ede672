"""Metrics, baseline/counterfactual comparison, sweeps, desk scenario."""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from evcsmarket import bilevel as bl
from evcsmarket import dam
from evcsmarket import model as md
from evcsmarket import scenarios as sc
from conftest import DESK_PENETRATION_LEVELS, one_bus_scenario, two_period_fleet

ROOT = Path(__file__).parent.parent
DESK_FILE = ROOT / "data" / "desk_5bus.json"


class TestMetricsRow:
    def test_identities_on_real_run(self):
        scenario = one_bus_scenario()
        out = bl.evaluate(bl.Strategy(bl.offer_parameters(scenario), (20.0, 20.0)), scenario)
        row = sc.metrics_row(out)
        assert row.profit == pytest.approx(row.revenue - row.cost, rel=1e-12)
        assert row.retail_price_c_kwh * 10.0 * row.charged_energy == pytest.approx(
            row.owner_payment, rel=1e-12
        )
        assert row.purchased_price == pytest.approx(row.cost / row.station_energy, rel=1e-12)
        assert row.curtailment_pct == 0.0  # no solar in the toy

    def test_identity_violation_rejected(self):
        with pytest.raises(ValueError, match="revenue - cost"):
            sc.MetricsRow(
                revenue=10.0, cost=5.0, profit=4.0, profit_pct=None,
                retail_price_c_kwh=None, purchased_price=None,
                lmp_max=0.0, lmp_min=0.0, solar_used=0.0, solar_available=0.0,
                curtailment_pct=0.0, owner_payment=0.0, charged_energy=0.0,
                station_energy=0.0,
            )

    def test_curtailment_zero_when_no_availability(self):
        with pytest.raises(ValueError, match="convention"):
            sc.MetricsRow(
                revenue=0.0, cost=0.0, profit=0.0, profit_pct=None,
                retail_price_c_kwh=None, purchased_price=None,
                lmp_max=0.0, lmp_min=0.0, solar_used=0.0, solar_available=0.0,
                curtailment_pct=5.0, owner_payment=0.0, charged_energy=0.0,
                station_energy=0.0,
            )


class TestBaseline:
    def test_station_access_saves_owners_money(self):
        # offers capped strictly below the retail rate with ample access:
        # the with-station payment must be strictly cheaper
        scenario = one_bus_scenario(tou=30.0, offer_lo=10.0, offer_hi=25.0, budget=60)
        result = sc.run_baseline(scenario)
        assert result.outcome.schedule.station_energy() > 1e-6
        assert result.owner_payment < result.owner_payment_no_stations - 1e-6
        assert result.certificate.passed

    def test_no_access_payments_coincide(self):
        fleet, station = two_period_fleet(tou=30.0)
        fleet = dataclasses.replace(fleet, station_connectivity={"c1": (0.0, 0.0)})
        scenario = one_bus_scenario(budget=20)
        scenario = dataclasses.replace(scenario, fleets=(fleet,))
        result = sc.run_baseline(scenario)
        assert result.owner_payment == pytest.approx(
            result.owner_payment_no_stations, rel=1e-12
        )
        assert result.owner_savings == pytest.approx(0.0, abs=1e-9)

    def test_counterfactual_matches_direct_fleet_solve(self):
        scenario = one_bus_scenario(tou=30.0, budget=40)
        result = sc.run_baseline(scenario)
        # home-only cost: 10 MWh at the retail rate
        assert result.owner_payment_no_stations == pytest.approx(300.0, abs=1e-6)


class TestSweeps:
    def test_failed_level_is_isolated(self):
        scenario = one_bus_scenario(budget=20)
        # 0.95 blows the fleet far past the single generator's capability
        entries = sc.sweep_penetration(scenario, [0.05, 0.95])
        assert entries[0].error is None and entries[0].row is not None
        assert entries[1].error is not None and entries[1].row is None

    def test_rows_keyed_by_level_in_input_order(self, desk_penetration_sweep):
        values = [e.value for e in desk_penetration_sweep]
        assert values == list(DESK_PENETRATION_LEVELS)

    def test_pv_zero_multiplier_conventions(self, desk_pv_sweep):
        row0 = desk_pv_sweep[0].row
        assert desk_pv_sweep[0].value == 0.0
        assert row0.solar_used == pytest.approx(0.0, abs=1e-9)
        assert row0.solar_available == pytest.approx(0.0, abs=1e-9)
        assert row0.curtailment_pct == 0.0

    def test_all_desk_levels_certified(self, desk_penetration_sweep, desk_pv_sweep):
        for e in desk_penetration_sweep + desk_pv_sweep:
            assert e.error is None
            assert e.result.certificate.passed

    def test_doubling_pv_weakly_lowers_prices_uncongested(self):
        # uncongested toy where solar displaces the marginal unit
        net = md.Network(
            buses=(md.Bus("b1", -1.0, 1.0, True),),
            lines=(),
            generators=(
                md.Generator(
                    "g1", "b1", 0.0, 100.0,
                    (md.CostSegment(0.0, 40.0, 10.0), md.CostSegment(0.0, 60.0, 25.0)),
                ),
            ),
            solar_units=(md.SolarUnit("s1", "b1", (20.0, 20.0)),),
            demands=(md.Demand("d1", "b1", (55.0, 45.0)),),
            horizon=2,
        )
        base = dam.solve_dam(dam.DamInput(net, (), ()))
        doubled_net = md.scale_solar(
            md.Scenario("x", net, (), ()), 2.0
        ).network
        doubled = dam.solve_dam(dam.DamInput(doubled_net, (), ()))
        for t in range(2):
            assert doubled.lmp["b1"][t] <= base.lmp["b1"][t] + 1e-9

    def test_trend_verdict_classifier(self):
        entries = []
        assert sc.trend_verdicts(entries) == {
            f: "n/a" for f in sc.TREND_FIELDS
        }
        columns = {
            "revenue": (3.0, 2.0, 2.0),
            "cost": (1.0, 3.0, 2.0),
            "profit": (2.0, 2.0, 2.0),
            "profit_pct": (1.0, 2.0, 3.0),
            "purchased_price": (None, 5.0, None),
            "retail_price_c_kwh": (5.0, 4.0, 6.0),
        }
        rows = [SimpleNamespace(**{f: v[k] for f, v in columns.items()}) for k in range(3)]
        entries = [SimpleNamespace(row=r) for r in (rows[0], None, *rows[1:])]
        assert sc.trend_verdicts(entries) == {
            "revenue": "non-increasing",
            "cost": "mixed",
            "profit": "constant",
            "profit_pct": "non-decreasing",
            "purchased_price": "n/a",
            "retail_price_c_kwh": "mixed",
        }

    def test_metrics_csv_layout(self, desk_pv_sweep):
        text = sc.metrics_csv(desk_pv_sweep)
        lines = text.splitlines()
        assert lines[0] == (
            "pv_multiplier,revenue_usd,cost_usd,profit_usd,profit_pct,"
            "retail_price_c_kwh,purchased_price_usd_mwh,lmp_max_usd_mwh,"
            "lmp_min_usd_mwh,solar_used_mwh,curtailment_pct,owner_payment_usd,"
            "owner_payment_no_stations_usd,owner_savings_usd,error"
        )
        assert len(lines) == 1 + len(desk_pv_sweep)


class TestDeskScenario:
    def test_validates_clean(self, desk):
        assert md.validate(desk).ok

    def test_base_penetration_near_ten_percent(self, desk):
        assert md.penetration_level(desk) == pytest.approx(0.10, abs=0.02)

    def test_offer_caps_below_retail_rate(self, desk):
        for st in desk.stations:
            fleet = desk.fleet(st.fleet_id)
            assert all(hi <= k for hi, k in zip(st.offer_max, fleet.tou))

    def test_baseline_profitable_and_certified(self, desk_baseline):
        assert desk_baseline.row.profit > 0
        assert desk_baseline.certificate.passed
        assert desk_baseline.row.station_energy > 0

    def test_loads_the_one_checked_in_file(self, monkeypatch):
        read = []

        def load(path):
            read.append(path)
            return md.load_scenario(path)

        monkeypatch.setattr(sc, "load_scenario", load)
        assert sc.desk_scenario() == md.load_scenario(DESK_FILE)
        assert [Path(p).resolve() for p in read] == [DESK_FILE.resolve()]

    def test_a_built_package_ships_the_file(self, tmp_path):
        # a copy of the checkout, so that the build's egg-info lands there
        checkout = tmp_path / "checkout"
        for name in ("src", "data"):
            shutil.copytree(ROOT / name, checkout / name, symlinks=True)
        shutil.copy(ROOT / "pyproject.toml", checkout)
        build = tmp_path / "build"
        subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "build_py", "--build-lib", str(build)],
            cwd=checkout, check=True, capture_output=True, timeout=120,
        )
        shipped = build / "evcsmarket" / "desk_5bus.json"
        assert shipped.is_file() and not shipped.is_symlink()
        assert shipped.read_bytes() == DESK_FILE.read_bytes()
