"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion
pass/fail lines; each test also prints a one-line summary.
"""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest

from evcsmarket import bilevel as bl
from evcsmarket import dam
from evcsmarket import fleet as fl
from evcsmarket import lpcore
from evcsmarket import model as md
from evcsmarket import scenarios as sc
from evcsmarket.cli import main as cli_main
from conftest import two_period_fleet
from oracles import random_feasible_bounded_lp, vertex_enumerate

from test_dam import random_dam_input, two_bus
from test_fleet import random_fleet_input


def test_criterion_1_lp_duality_suite():
    """>=200 random feasible bounded LPs: duality gap and complementary
    slackness both <= 1e-6, in under 60 s."""
    rng = np.random.default_rng(20240801)
    start = time.perf_counter()
    for k in range(200):
        lp = random_feasible_bounded_lp(rng, max_vars=12, max_cons=12)
        sol = lpcore.solve(lp)
        assert sol.is_optimal, f"instance {k}: {sol.status}"
        report = lpcore.check_solution_pair(lp, sol)
        assert report.relative_gap <= 1e-6, f"instance {k}: gap {report.relative_gap}"
        assert (
            report.max_complementarity <= 1e-6
        ), f"instance {k}: CS {report.max_complementarity}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: 200 LPs, worst-case tolerances met in {elapsed:.1f}s")


def test_criterion_2_dam_pricing_oracle():
    """2-bus congestion prices exactly 10/30; uncongested variant equal;
    both the optimum and the prices verified by vertex enumeration."""
    congested = two_bus(line_cap=10.0)
    out = dam.solve_dam(congested)
    assert out.lmp["b1"][0] == pytest.approx(10.0, abs=1e-6)
    assert out.lmp["b2"][0] == pytest.approx(30.0, abs=1e-6)

    lp, _ = dam.build_dam(congested, period=0)
    ref_val, _ = vertex_enumerate(lp)
    assert out.period_welfare[0] == pytest.approx(ref_val, abs=1e-6)

    # independent price check: the vertex-enumerated welfare drop per extra
    # MW of load at a bus is that bus's price
    h = 0.01
    for bus, expected in (("b1", 10.0), ("b2", 30.0)):
        net = congested.network
        demands = tuple(net.demands) + (md.Demand(f"probe_{bus}", bus, (h,)),)
        perturbed = dam.DamInput(
            dataclasses.replace(net, demands=demands), (), ()
        )
        val_h, _ = vertex_enumerate(dam.build_dam(perturbed, period=0)[0])
        assert -(val_h - ref_val) / h == pytest.approx(expected, abs=1e-6)

    uncongested = two_bus(line_cap=100.0)
    out_u = dam.solve_dam(uncongested)
    assert out_u.lmp["b1"][0] == pytest.approx(out_u.lmp["b2"][0], abs=1e-6)
    print("\nACCEPTANCE 2 PASS: congested prices 10/30, uncongested equal, "
          "vertex enumeration agrees")


def test_criterion_3_fleet_response_oracle():
    """T=2 toy: $100 all-station at the cheap hour; raising that hour's
    offer to 50 flips the plan to home charging at $200."""
    fleet, station = two_period_fleet()
    inp = fl.FleetInput((fleet,), (station,), 2, {"c1": (30.0, 10.0)})
    sched = fl.solve_fleet(inp)
    assert sched.cost == pytest.approx(100.0, abs=1e-6)
    assert sched.station["f1"]["c1"][1] == pytest.approx(10.0, abs=1e-6)
    assert sched.station["f1"]["c1"][0] == pytest.approx(0.0, abs=1e-6)
    assert sum(sched.home["f1"]) == pytest.approx(0.0, abs=1e-6)

    flipped = fl.solve_fleet(fl.FleetInput((fleet,), (station,), 2, {"c1": (30.0, 50.0)}))
    assert flipped.cost == pytest.approx(200.0, abs=1e-6)
    assert flipped.station_energy() == pytest.approx(0.0, abs=1e-6)
    assert sum(flipped.home["f1"]) == pytest.approx(10.0, abs=1e-6)
    print("\nACCEPTANCE 3 PASS: $100 station plan, $200 home plan after the price rise")


def test_criterion_4_explicit_dual_cross_check(capsys):
    """>=50 random market instances: the explicit transposed dual's optimum
    equals the primal optimum at 1e-6.  Fleet side: the automatic dual
    always matches; the literal transcribed dual is reported."""
    rng = np.random.default_rng(42)
    for k in range(50):
        inp = random_dam_input(rng)
        primal = lpcore.require_optimal(dam.build_dam(inp)[0])
        explicit = lpcore.require_optimal(dam.build_dam_paper_dual(inp))
        gap = abs(primal.objective - explicit.objective)
        scale = max(1.0, abs(primal.objective))
        assert gap / scale <= 1e-6, f"instance {k}: gap {gap}"

    rng = np.random.default_rng(43)
    literal_matches = 0
    literal_total = 0
    checked = 0
    for _ in range(30):
        finp = random_fleet_input(rng)
        try:
            primal = lpcore.require_optimal(fl.build_fleet(finp)[0])
        except lpcore.LpSolveError:
            continue
        auto = lpcore.require_optimal(lpcore.dualize(fl.build_fleet(finp)[0]))
        assert auto.objective == pytest.approx(primal.objective, rel=1e-6, abs=1e-6)
        checked += 1
        segment_prices = {
            "c1": tuple(seg.wtp_max for seg in finp.stations[0].segments)
        }
        report = fl.dual_form_report(finp, segment_prices)
        literal_total += 1
        if report.literal_matches_offer:
            literal_matches += 1
    assert checked >= 20
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 4 PASS: 50 market instances' explicit dual exact; "
            f"fleet auto-dual exact on {checked}; literal transcribed fleet dual "
            f"matched {literal_matches}/{literal_total} (transcription defects: "
            f"unbounded segment-cap sign, bid-price rhs, missing initial-energy term)"
        )


def test_criterion_5_search_matches_grid_oracle(bilevel_instances):
    """optimize at the default budget reaches >=99% of the exhaustive grid
    optimum (or matches within $1e-6 when the optimum is non-positive), on
    20 randomized single-station instances, in under 5 minutes total."""
    start = time.perf_counter()
    for scenario, levels, grid, searched in bilevel_instances:
        if grid.profit > 0:
            assert searched.profit >= 0.99 * grid.profit - 1e-12, (
                f"{scenario.name}: search {searched.profit} vs grid({levels}) {grid.profit}"
            )
        else:
            assert searched.profit >= grid.profit - 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    ratios = [
        searched.profit / grid.profit
        for _, _, grid, searched in bilevel_instances
        if grid.profit > 1e-9
    ]
    print(
        f"\nACCEPTANCE 5 PASS: 20 instances, search/grid profit ratio "
        f"min {min(ratios):.4f} (checks in {elapsed:.2f}s; instance solves precomputed)"
    )


def test_criterion_6_certificate_soundness(bilevel_instances, desk_baseline):
    """Every search outcome certifies at 1e-6 (both strong-duality
    equalities, each against a Lagrangian bound at the duals of a primal
    re-solve); a corrupted outcome fails with a named nonzero residual."""
    for scenario, _, _, searched in bilevel_instances[:8]:
        cert = bl.certify(searched, tol=1e-6)
        assert cert.passed, f"{scenario.name}: {cert.failing()}"
        assert cert.residuals["dam_strong_duality"] <= 1e-6
        assert cert.residuals["fleet_strong_duality"] <= 1e-6
    assert desk_baseline.certificate.passed

    scenario, _, _, searched = bilevel_instances[0]
    bus = scenario.fleets[0].bus
    bad_lmp = dict(searched.dam.lmp)
    bad_lmp[bus] = tuple(v + 2.5 for v in bad_lmp[bus])
    corrupted = dataclasses.replace(
        searched, dam=dataclasses.replace(searched.dam, lmp=bad_lmp)
    )
    cert = bl.certify(corrupted)
    assert not cert.passed
    failing = cert.failing()
    assert "dam_strong_duality" in failing and failing["dam_strong_duality"] > 0.0
    print(
        "\nACCEPTANCE 6 PASS: search outcomes certify at 1e-6; corrupted prices "
        f"fail with dam_strong_duality residual {failing['dam_strong_duality']:.3e}"
    )


def test_criterion_7_owners_never_pay_more_with_stations(desk, desk_baseline):
    """Desk scenario has offer caps at or below the retail rate, so total
    owner payment with stations available cannot exceed the home-only
    counterfactual; a tie is only allowed if no station charging occurred."""
    for st in desk.stations:
        fleet = desk.fleet(st.fleet_id)
        assert all(hi <= k for hi, k in zip(st.offer_max, fleet.tou))
    result = desk_baseline
    assert result.owner_payment <= result.owner_payment_no_stations + 1e-9
    if result.row.station_energy > 1e-9:
        assert result.owner_payment < result.owner_payment_no_stations - 1e-9
    print(
        f"\nACCEPTANCE 7 PASS: owners pay {result.owner_payment:.2f} with stations vs "
        f"{result.owner_payment_no_stations:.2f} without (saving {result.owner_savings:.2f})"
    )


def test_criterion_8_sweep_trends(desk_penetration_sweep, desk_pv_sweep):
    """Penetration sweep: profit percentage non-increasing and purchased
    price non-decreasing.  Solar sweep: purchased price non-increasing and
    profit non-decreasing."""
    pen_rows = [e.row for e in desk_penetration_sweep]
    assert all(r is not None for r in pen_rows)
    pcts = [r.profit_pct for r in pen_rows]
    buys = [r.purchased_price for r in pen_rows]
    assert all(b <= a + 1e-9 for a, b in zip(pcts, pcts[1:])), pcts
    assert all(b >= a - 1e-9 for a, b in zip(buys, buys[1:])), buys

    pv_rows = [e.row for e in desk_pv_sweep]
    assert all(r is not None for r in pv_rows)
    pv_buys = [r.purchased_price for r in pv_rows]
    pv_profit = [r.profit for r in pv_rows]
    assert all(b <= a + 1e-9 for a, b in zip(pv_buys, pv_buys[1:])), pv_buys
    assert all(b >= a - 1e-9 for a, b in zip(pv_profit, pv_profit[1:])), pv_profit
    print(
        "\nACCEPTANCE 8 PASS: penetration profit% "
        + " -> ".join(f"{v:.1f}" for v in pcts)
        + "; purchased "
        + " -> ".join(f"{v:.2f}" for v in buys)
        + " | pv purchased "
        + " -> ".join(f"{v:.2f}" for v in pv_buys)
        + "; profit "
        + " -> ".join(f"{v:.0f}" for v in pv_profit)
    )


CRITERION_9_SHA256 = {
    "outcome.json": "c1bc6f669fe11cae4da223f832e1ebaac13d6b82c99085347d1b7194c8cb300a",
    "certificate.json": "3bc3ed09ad67e35ee2c2755193c205fc5c74a87235c5a1360c76ab2568590284",
    "metrics.csv": "925f7d2a1f590ae7c4cef294ae38b1680421773572cec20b3a69344161097000",
    "hourly_profile.csv": "64c464eaad054ceb581a6fff98829ba1756f468084df17d01c6e3480f45b84b1",
    "bus_lmp_charged.csv": "63ba2e9bb8173c580818b137e9773f96098c684f4a638bb8ac64b0d016a345db",
}


def test_criterion_9_byte_identical_reruns(tmp_path):
    """Same scenario file and seed: outcome JSON and every CSV byte-equal,
    and equal to the pinned sha256 digests (desk scenario, budget 25, seed
    11)."""
    scenario_path = tmp_path / "desk.json"
    md.save_scenario(sc.desk_scenario(), scenario_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(
            ["run", str(scenario_path), "--budget", "25", "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    files = [
        "outcome.json",
        "certificate.json",
        "metrics.csv",
        "hourly_profile.csv",
        "bus_lmp_charged.csv",
    ]
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    # Pinned outputs: a change that alters any of them must update the
    # digest here and say why.
    for name, digest in CRITERION_9_SHA256.items():
        assert hashlib.sha256((outs[0] / name).read_bytes()).hexdigest() == digest, name
    print(
        f"\nACCEPTANCE 9 PASS: {len(files)} artifacts byte-identical across reruns "
        "and equal to the pinned digests"
    )
