"""LP layer: solver statuses, dual extraction, dualizer, duality checks."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evcsmarket import bilevel as bl
from evcsmarket import dam
from evcsmarket import fleet as fl
from evcsmarket import lpcore as lc
from conftest import assert_shared_phase1_matches_cold
from oracles import random_feasible_bounded_lp, scipy_reference, vertex_enumerate


def build(sense, variables, constraints):
    """An LP from (label, lower, upper, objective) columns and (label,
    {column label: coefficient}, relation, rhs) rows."""
    b = lc.LpBuilder(sense)
    cols = {args[0]: b.add_variable(*args) for args in variables}
    for label, coeffs, relation, rhs in constraints:
        b.add_constraint(label, {cols[v]: c for v, c in coeffs.items()}, relation, rhs)
    return b.build()


def criterion_1_lps():
    """The 200 random LPs of acceptance criterion 1."""
    rng = np.random.default_rng(20240801)
    return [random_feasible_bounded_lp(rng, max_vars=12, max_cons=12) for _ in range(200)]


class TestSolveBasics:
    def test_min_with_floor_constraint(self):
        lp = build(lc.MIN, [("x", -lc.INF, lc.INF, 1.0)], [("floor", {"x": 1.0}, lc.GE, 3.0)])
        sol = lc.solve(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert sol.primal[0] == pytest.approx(3.0, abs=1e-9)
        # marginal value: raising the floor by 1 raises the minimum by 1
        assert sol.dual[0] == pytest.approx(1.0, abs=1e-9)

    def test_max_two_variable_vertex(self):
        lp = build(
            lc.MAX,
            [("x", 0.0, lc.INF, 2.0), ("y", 0.0, lc.INF, 3.0)],
            [("cap", {"x": 1.0, "y": 1.0}, lc.LE, 4.0)],
        )
        sol = lc.solve(lp)
        ref_val, ref_x = vertex_enumerate(lp)
        assert ref_val == pytest.approx(12.0)
        assert ref_x.tolist() == [0.0, 4.0]
        assert sol.objective == pytest.approx(12.0, abs=1e-9)
        assert sol.primal == pytest.approx(np.array([0.0, 4.0]), abs=1e-9)
        assert sol.dual[0] == pytest.approx(3.0, abs=1e-9)

    def test_infeasible(self):
        lp = build(lc.MIN, [("x", 0.0, lc.INF, 0.0)], [("bad", {"x": 1.0}, lc.LE, -1.0)])
        sol = lc.solve(lp)
        assert sol.status == lc.INFEASIBLE

    def test_unbounded(self):
        lp = build(lc.MAX, [("x", 0.0, lc.INF, 1.0)], [])
        sol = lc.solve(lp)
        assert sol.status == lc.UNBOUNDED

    def test_degenerate_ties_terminate(self):
        b = lc.LpBuilder(lc.MIN)
        coeffs = {}
        for t in range(30):
            coeffs[b.add_variable(f"s{t}", 0.0, 10.0, 20.0)] = 1.0
            coeffs[b.add_variable(f"h{t}", 0.0, 10.0, 20.0)] = 1.0
        b.add_constraint("need", coeffs, lc.GE, 150.0)
        sol = lc.solve(b.build())
        assert sol.is_optimal
        assert sol.objective == pytest.approx(3000.0, abs=1e-6)

    def test_fixed_variable(self):
        lp = build(lc.MIN, [("x", 2.0, 2.0, 5.0)], [])
        sol = lc.solve(lp)
        assert sol.objective == pytest.approx(10.0)

    def test_require_optimal_raises(self):
        lp = build(lc.MAX, [("x", 0.0, lc.INF, 1.0)], [])
        with pytest.raises(lc.LpSolveError):
            lc.require_optimal(lp)

    @pytest.mark.parametrize("sense", [lc.MIN, lc.MAX])
    def test_empty_lp_is_optimal_at_zero(self, sense):
        sol = lc.solve(lc.LpBuilder(sense).build())
        assert sol.is_optimal
        assert sol.objective == 0.0
        assert sol.primal.size == sol.dual.size == sol.reduced_cost.size == 0
        assert sol.variable_status.size == 0

    def test_dual_infeasible_basis_is_not_reported_optimal(self):
        # min -x - 2y over x + y <= 1 in the unit box: the crash basis is
        # primal feasible (no artificial left), but y can still enter, so
        # the final check turns it down; with zero costs it is optimal
        lp = build(
            lc.MIN,
            [("x", 0.0, 1.0, -1.0), ("y", 0.0, 1.0, -2.0)],
            [("cap", {"x": 1.0, "y": 1.0}, lc.LE, 1.0)],
        )
        tab = lc._Tableau(lp)
        assert not np.any(tab.x[tab.nreal :])
        assert lc._extract_solution(lp, tab, lc.FEAS_TOL, 0) is None
        tab.c[:] = 0.0
        assert lc._extract_solution(lp, tab, lc.FEAS_TOL, 0).is_optimal
        assert lc.solve(lp).objective == pytest.approx(-2.0, abs=1e-9)


class TestDefinitionErrors:
    def test_duplicate_variable(self):
        with pytest.raises(lc.LpDefinitionError):
            build(lc.MIN, [("x", 0, 1, 0.0), ("x", 0, 1, 0.0)], [])

    def test_unknown_variable_in_constraint(self):
        # a row may only reference a column the builder placed
        for column in (1, -1, "x", 0.0):
            b = lc.LpBuilder(lc.MIN)
            b.add_variable("x", 0, 1, 0.0)
            b.add_constraint("c", {column: 1.0}, lc.LE, 1.0)
            with pytest.raises(lc.LpDefinitionError):
                b.build()

    def test_crossed_bounds(self):
        with pytest.raises(lc.LpDefinitionError):
            build(lc.MIN, [("x", 2.0, 1.0)], [])

    def test_empty_bound_interval(self):
        with pytest.raises(lc.LpDefinitionError):
            build(lc.MIN, [("x", -lc.INF, -lc.INF)], [])

    def test_nonfinite_coefficient(self):
        with pytest.raises(lc.LpDefinitionError):
            build(lc.MIN, [("x",)], [("c", {"x": math.inf}, lc.LE, 1.0)])

    def test_bad_relation(self):
        with pytest.raises(lc.LpDefinitionError):
            build(lc.MIN, [("x",)], [("c", {"x": 1.0}, "<", 1.0)])


class TestDualize:
    def test_textbook_pair(self):
        # max c.x, Ax <= b, x >= 0  ->  min b.y, A'y >= c, y >= 0
        lp = build(
            lc.MAX,
            [("x1", 0.0, lc.INF, 3.0), ("x2", 0.0, lc.INF, 5.0)],
            [
                ("r1", {"x1": 1.0}, lc.LE, 4.0),
                ("r2", {"x2": 2.0}, lc.LE, 12.0),
                ("r3", {"x1": 3.0, "x2": 2.0}, lc.LE, 18.0),
            ],
        )
        dual = lc.dualize(lp)
        assert dual.sense == lc.MIN
        dvars = {label: j for j, label in enumerate(dual.variables)}
        for row, rhs in (("r1", 4.0), ("r2", 12.0), ("r3", 18.0)):
            j = dvars[f"dual[{row}]"]
            assert (dual.lower[j], dual.upper[j]) == (0.0, lc.INF)
            assert dual.objective[j] == rhs
        # stationarity per primal variable, rc of x>=0 bound is <= ... sign
        i = dual.constraints.index("col[x1]")
        assert dual.relations[i] == lc.EQ and dual.rhs[i] == 3.0
        assert dual.upper[dvars["rc_lo[x1]"]] == 0.0  # so A'y = c - rc_lo >= c
        psol = lc.solve(lp)
        dsol = lc.solve(dual)
        assert psol.objective == pytest.approx(36.0)
        assert dsol.objective == pytest.approx(36.0)

    def test_equality_yields_free_dual(self):
        lp = build(lc.MIN, [("x", 0.0, 10.0, 1.0)], [("fix", {"x": 1.0}, lc.EQ, 4.0)])
        dual = lc.dualize(lp)
        j = dual.variables.index("dual[fix]")
        assert dual.lower[j] == -lc.INF and dual.upper[j] == lc.INF

    @pytest.mark.parametrize("seed", range(8))
    def test_double_dual_preserves_value(self, seed):
        rng = np.random.default_rng(100 + seed)
        lp = random_feasible_bounded_lp(rng, max_vars=6, max_cons=6)
        ref = lc.solve(lp).objective
        once = lc.solve(lc.dualize(lp)).objective
        twice = lc.solve(lc.dualize(lc.dualize(lp))).objective
        assert once == pytest.approx(ref, rel=1e-6, abs=1e-6)
        assert twice == pytest.approx(ref, rel=1e-6, abs=1e-6)


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(40))
    def test_objective_matches_highs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        lp = random_feasible_bounded_lp(rng)
        sol = lc.solve(lp)
        status, ref = scipy_reference(lp)
        assert status == "optimal"
        assert sol.is_optimal
        assert sol.objective == pytest.approx(ref, rel=1e-7, abs=1e-7)

    def test_reduced_cost_zero_strictly_inside(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            lp = random_feasible_bounded_lp(rng, max_vars=8, max_cons=8)
            sol = lc.solve(lp)
            assert sol.is_optimal
            for j, label in enumerate(lp.variables):
                x = sol.primal[j]
                margin = 1e-7 * (1.0 + abs(x))
                if lp.lower[j] + margin < x < lp.upper[j] - margin:
                    assert abs(sol.reduced_cost[j]) <= 1e-6 * (
                        1.0 + abs(lp.objective[j])
                    ), f"{label} interior but rc={sol.reduced_cost[j]}"


def test_bland_rule_reaches_the_highs_optimum(monkeypatch):
    """Degenerate LPs terminate through the Bland fallback, which no model
    LP reaches in practice: with it from the second pivot on
    (`_BLAND_AFTER` = -1), Bland pricing and Bland's leaving row solve every
    criterion-1 LP optimal at the HiGHS objective."""
    bland_pricing = []
    entering = lc._Tableau._entering

    def counting(self, d, dtol, bland, varying):
        bland_pricing.append(bland)
        return entering(self, d, dtol, bland, varying)

    monkeypatch.setattr(lc, "_BLAND_AFTER", -1)
    monkeypatch.setattr(lc._Tableau, "_entering", counting)
    for k, lp in enumerate(criterion_1_lps()):
        sol = lc.solve(lp)
        status, ref = scipy_reference(lp)
        assert status == "optimal" and sol.is_optimal, k
        assert sol.objective == pytest.approx(ref, rel=1e-7, abs=1e-7), k
    assert sum(bland_pricing) > 1000


class TestDualityChecks:
    def test_pair_report_passes(self):
        rng = np.random.default_rng(5)
        lp = random_feasible_bounded_lp(rng)
        sol = lc.solve(lp)
        report = lc.check_solution_pair(lp, sol)
        assert report.passed
        assert report.relative_gap <= 1e-6

    def test_hand_built_lp_gap_zero(self):
        lp = build(
            lc.MAX,
            [("x", 0.0, lc.INF, 2.0), ("y", 0.0, lc.INF, 3.0)],
            [("cap", {"x": 1.0, "y": 1.0}, lc.LE, 4.0)],
        )
        psol = lc.solve(lp)
        dsol = lc.solve(lc.dualize(lp))
        report = lc.check_strong_duality(lp, psol, dsol)
        assert psol.objective == pytest.approx(12.0)
        assert dsol.objective == pytest.approx(12.0)
        assert report.objective_gap == pytest.approx(0.0, abs=1e-9)
        assert report.max_complementarity == pytest.approx(0.0, abs=1e-9)
        assert report.passed

    def test_perturbed_dual_fails_with_violation(self):
        # inactive cap: x* sits on its upper bound, slack on "cap" is 6
        lp = build(lc.MAX, [("x", 0.0, 4.0, 1.0)], [("cap", {"x": 1.0}, lc.LE, 10.0)])
        psol = lc.solve(lp)
        dual = lc.dualize(lp)
        dsol = lc.solve(dual)
        slack = 10.0 - psol.primal[0]
        dsol.primal[dual.variables.index("dual[cap]")] += 0.1
        dsol.objective += 0.1 * 10.0
        report = lc.check_strong_duality(lp, psol, dsol)
        assert not report.passed
        worst = dict(report.worst_items)
        assert worst["cap"] >= 0.1 * slack - 1e-12

    def test_requires_optimal_solutions(self):
        lp = build(lc.MIN, [("x", 0.0, 1.0, 1.0)], [])
        bad = lc.LpSolution(status=lc.INFEASIBLE)
        with pytest.raises(lc.LpSolveError):
            lc.check_strong_duality(lp, bad, bad)


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_strong_duality_random(seed):
    """For random feasible bounded LPs the returned pair closes the duality
    gap and satisfies complementary slackness at 1e-6."""
    rng = np.random.default_rng(seed)
    lp = random_feasible_bounded_lp(rng, max_vars=9, max_cons=9)
    sol = lc.solve(lp)
    assert sol.is_optimal
    report = lc.check_solution_pair(lp, sol)
    assert report.relative_gap <= 1e-6
    assert report.max_complementarity <= 1e-6


def test_write_lp_text_layout():
    lp = build(
        lc.MIN,
        [("x", 0.0, 2.5, 1.0), ("y", -lc.INF, lc.INF, 0.0)],
        [("c0", {"x": 1.0, "y": -2.0}, lc.GE, 1.0)],
    )
    text = lc.write_lp_text(lp)
    assert text == (
        "min lp\n"
        "obj: 1.0*x\n"
        "subject to\n"
        "  c0: 1.0*x + -2.0*y >= 1.0\n"
        "bounds\n"
        "  0.0 <= x <= 2.5\n"
        "  -inf <= y <= inf\n"
        "end\n"
    )


class TestLagrangianBound:
    def test_tight_at_solver_duals(self):
        for k, lp in enumerate(criterion_1_lps()):
            sol = lc.solve(lp)
            assert sol.is_optimal, f"instance {k}: {sol.status}"
            bound = lc.lagrangian_bound(lp, sol.dual)
            assert abs(bound - sol.objective) <= 1e-9 * max(1.0, abs(sol.objective)), k

    def test_bounds_optimum_at_any_multipliers(self):
        rng = np.random.default_rng(31)
        for k in range(100):
            lp = random_feasible_bounded_lp(rng, max_vars=10, max_cons=10)
            opt = lc.solve(lp).objective
            y = np.array([float(rng.normal(0.0, 5.0)) for _ in lp.constraints])
            bound = lc.lagrangian_bound(lp, y)
            slack = 1e-9 * max(1.0, abs(opt))
            if lp.sense == lc.MIN:
                assert bound <= opt + slack, k
            else:
                assert bound >= opt - slack, k

    def test_wrong_sign_multiplier_is_clipped(self):
        # min x on [0, 10] with x <= 5: optimum 0; "<=" rows of a
        # minimization take multipliers <= 0, so +1 counts as 0
        lp = build(lc.MIN, [("x", 0.0, 10.0, 1.0)], [("cap", {"x": 1.0}, lc.LE, 5.0)])
        assert lc.lagrangian_bound(lp, [1.0]) == 0.0

    @pytest.mark.parametrize("sense, infinite", [(lc.MIN, -lc.INF), (lc.MAX, lc.INF)])
    def test_free_variable_reduced_cost(self, sense, infinite):
        # min x or max -x over a free x >= 3: the optimum is 3 or -3
        sign = 1.0 if sense == lc.MIN else -1.0
        lp = build(sense, [("x", -lc.INF, lc.INF, sign)], [("floor", {"x": 1.0}, lc.GE, 3.0)])
        assert lc.lagrangian_bound(lp, [0.5 * sign]) == infinite
        assert lc.lagrangian_bound(lp, [sign]) == 3.0 * sign


class TestMaxViolation:
    def test_small_at_solver_primal(self):
        for k, lp in enumerate(criterion_1_lps()):
            sol = lc.solve(lp)
            assert sol.is_optimal, f"instance {k}: {sol.status}"
            assert lc.max_violation(lp, sol.primal) <= 100 * lc.FEAS_TOL, k

    @pytest.mark.parametrize(
        "relation, value, expected",
        [
            (lc.LE, 2.0, 0.0),
            (lc.LE, 7.0, 1.0),
            (lc.GE, 7.0, 0.0),
            (lc.GE, 2.0, 0.25),
            (lc.EQ, 2.0, 0.25),
            (lc.EQ, 7.0, 1.0),
        ],
    )
    def test_only_the_violated_side_of_a_row_counts(self, relation, value, expected):
        # x + y against rhs 3 with y = 0: a violation is scaled by 1 + |rhs|
        lp = build(
            lc.MIN,
            [("x", -lc.INF, lc.INF, 0.0), ("y", -lc.INF, lc.INF, 0.0)],
            [("row", {"x": 1.0, "y": 1.0}, relation, 3.0)],
        )
        assert lc.max_violation(lp, [value, 0.0]) == expected

    def test_bound_violation_scaling(self):
        # [2, 4] scales by 1 + 4; an infinite side scales by 1
        lp = build(lc.MIN, [("x", 2.0, 4.0, 0.0), ("y", 2.0, lc.INF, 0.0)], [])
        assert lc.max_violation(lp, [5.0, 3.0]) == 0.2
        assert lc.max_violation(lp, [3.0, 0.0]) == 2.0
        assert lc.max_violation(lp, [3.0, 1e9]) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_infinite(self, bad):
        lp = build(lc.MIN, [("x", -lc.INF, lc.INF, 0.0)], [])
        assert lc.max_violation(lp, [bad]) == math.inf


# ---------------------------------------------------------------------------
# crash start basis
# ---------------------------------------------------------------------------


def model_lps(outcome):
    """Every fleet LP and market-period LP behind an evaluated outcome: each
    fleet's LP as `solve_fleet` solves it (tie-break surcharge) and as
    `certify` re-solves it (true costs), and each period's market LP."""
    scenario = outcome.scenario
    inp = fl.fleet_input(scenario, outcome.offers)
    lps = [
        fl.build_fleet(inp, f, home_price_bump=bump)[0]
        for f in scenario.fleets
        for bump in (fl.TIE_BREAK_EPS, 0.0)
    ]
    market = bl.dam_input_for(scenario, outcome.schedule)
    lps.extend(dam.build_dam(market)[0])
    return lps


def lp_artificial(lp, row):
    """Tableau column of a row's phase-1 artificial."""
    return len(lp.variables) + len(lp.constraints) + row


def solve_all_artificial(lp, monkeypatch):
    """Solve from the all-artificial start: a crash that takes no column."""
    with monkeypatch.context() as patch:
        patch.setattr(lc, "_crash", lambda *args: {})
        return lc.solve(lp)


def assert_crash_matches_all_artificial(lps, monkeypatch):
    for k, lp in enumerate(lps):
        crashed = lc.solve(lp)
        cold = solve_all_artificial(lp, monkeypatch)
        assert crashed.status == cold.status == lc.OPTIMAL, (k, lp.name)
        scale = max(1.0, abs(cold.objective))
        assert abs(crashed.objective - cold.objective) <= 1e-9 * scale, (k, lp.name)
        status, ref = scipy_reference(lp)
        assert status == "optimal", (k, lp.name)
        assert abs(crashed.objective - ref) <= 1e-6 * max(1.0, abs(ref)), (k, lp.name)


class TestCrashStart:
    def test_every_row_crashed_needs_no_phase_1(self, monkeypatch):
        # x free covers the floor, y in [0, 10] the cap: both rows crash
        lp = build(
            lc.MIN,
            [("x", -lc.INF, lc.INF, 1.0), ("y", 0.0, 10.0, -1.0)],
            [("floor", {"x": 1.0}, lc.GE, 3.0), ("cap", {"x": 1.0, "y": 1.0}, lc.LE, 8.0)],
        )
        sol = lc.solve(lp)
        assert sol.phase1_iterations == 0
        assert sol.objective == pytest.approx(-2.0, abs=1e-9)
        assert solve_all_artificial(lp, monkeypatch).phase1_iterations > 0

    def test_column_outside_its_bounds_is_not_taken(self):
        # x in [0, 1] cannot reach x = 5, so the row keeps its artificial
        lp = build(
            lc.MIN,
            [("x", 0.0, 1.0, 0.0), ("y", 0.0, 10.0, 1.0)],
            [("row", {"x": 1.0, "y": 1.0}, lc.EQ, 5.0)],
        )
        tab = lc._Tableau(lp)
        assert tab.basis[0] == 1 and tab.x[1] == 5.0 and tab.x[0] == 0.0
        lp = build(lc.MIN, [("x", 0.0, 1.0, 0.0)], [("row", {"x": 1.0}, lc.EQ, 5.0)])
        assert lc._Tableau(lp).basis[0] == lp_artificial(lp, 0)
        assert lc.solve(lp).status == lc.INFEASIBLE

    def test_criterion_1_lps(self, monkeypatch):
        assert_crash_matches_all_artificial(criterion_1_lps(), monkeypatch)

    def test_criterion_5_instances(self, bilevel_instances, monkeypatch):
        for _, _, grid, searched in bilevel_instances:
            for outcome in (grid, searched):
                assert_crash_matches_all_artificial(model_lps(outcome), monkeypatch)

    def test_desk(self, desk_baseline, monkeypatch):
        assert_crash_matches_all_artificial(model_lps(desk_baseline.outcome), monkeypatch)


BOX_ROW = build(
    lc.MIN,
    [("x", 0.0, 10.0, 1.0), ("y", 0.0, 10.0, 2.0)],
    [("need", {"x": 1.0, "y": 1.0}, lc.EQ, 5.0)],
)


def random_lp_with_infinite_bounds(rng):
    """A criterion-1 style LP with some bounds relaxed to infinity: still
    feasible, possibly unbounded, and with free columns."""
    lp = random_feasible_bounded_lp(rng, max_vars=8, max_cons=8)
    lower, upper = lp.lower.copy(), lp.upper.copy()
    for j in range(len(lp.variables)):
        if rng.random() < 0.3:
            lower[j] = -lc.INF
        if rng.random() < 0.3:
            upper[j] = lc.INF
    return dataclasses.replace(lp, lower=lower, upper=upper)


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_crash_basis(seed):
    """The crash gives an invertible basis whose basics start within their
    bounds, with each crashed row's artificial at 0, the same every time."""
    rng = np.random.default_rng(seed)
    lp = random_lp_with_infinite_bounds(rng) if seed % 2 else random_feasible_bounded_lp(rng)
    tab = lc._Tableau(lp)
    basis = tab.basis
    assert np.all(np.isfinite(tab.binv))
    assert np.allclose(tab.binv @ tab.A[:, basis], np.eye(tab.m), atol=1e-9)
    assert np.all(tab.lo[basis] <= tab.x[basis]) and np.all(tab.x[basis] <= tab.up[basis])
    for i in range(tab.m):
        if basis[i] != lp_artificial(lp, i):
            assert basis[i] < tab.nreal
            assert tab.x[lp_artificial(lp, i)] == 0.0
    # the start point solves the slack- and artificial-augmented rows
    scale = 1.0 + np.max(np.abs(tab.b), initial=0.0) + np.max(np.abs(tab.x), initial=0.0)
    assert np.max(np.abs(tab.A @ tab.x - tab.b), initial=0.0) <= 1e-12 * scale
    again = lc._Tableau(lp)
    assert np.array_equal(again.basis, basis)
    assert np.array_equal(again.x, tab.x)
    assert np.array_equal(again.binv, tab.binv)


def test_phase_counts_sum_to_iterations(monkeypatch):
    """`phase1_iterations` is the pivots of the first `run`, and the rest of
    `iterations` those of the second, on the 200 criterion-1 LPs and on an
    infeasible LP (phase 1 only)."""
    runs = []
    original = lc._Tableau.run

    def counted(self, *args, **kwargs):
        before = self.iterations
        status = original(self, *args, **kwargs)
        runs.append(self.iterations - before)
        return status

    monkeypatch.setattr(lc._Tableau, "run", counted)
    for k, lp in enumerate(criterion_1_lps()):
        runs.clear()
        sol = lc.solve(lp)
        assert sol.is_optimal, k
        phase1, phase2 = runs
        assert sol.phase1_iterations == phase1, k
        assert sol.iterations - sol.phase1_iterations == phase2, k

    runs.clear()
    lp = build(lc.MIN, [("x", 0.0, lc.INF, 0.0)], [("bad", {"x": 1.0}, lc.LE, -1.0)])
    sol = lc.solve(lp)
    assert sol.status == lc.INFEASIBLE
    assert sol.phase1_iterations == sol.iterations == runs[0]


# ---------------------------------------------------------------------------
# phase 1 shared across objectives
# ---------------------------------------------------------------------------


def recosted(lp, rng, count):
    """`lp` and `count` copies under random objectives, half of them with
    the other sense: phase 1 reads neither."""
    out = [lp]
    for k in range(count):
        objective = rng.uniform(-5.0, 5.0, len(lp.variables))
        sense = (lc.MIN, lc.MAX)[(k + (lp.sense == lc.MAX)) % 2]
        out.append(dataclasses.replace(lp, objective=objective, sense=sense))
    return out


class TestSharedPhase1:
    def test_criterion_1_lps(self):
        rng = np.random.default_rng(13)
        saved = sum(
            assert_shared_phase1_matches_cold(recosted(lp, rng, 3)) for lp in criterion_1_lps()
        )
        assert saved > 0

    def test_unbounded_objective_gives_the_cold_status(self):
        # neither x nor y alone meets `need`, so phase 1 has a pivot to do
        lp = build(
            lc.MIN,
            [("x", 0.0, 1.0, 1.0), ("y", 0.0, 1.0, 1.0), ("z", 0.0, lc.INF, 1.0)],
            [
                ("need", {"x": 1.0, "y": 1.0}, lc.EQ, 1.5),
                ("cap", {"z": 1.0, "x": -1.0}, lc.GE, 0.0),
            ],
        )
        unbounded = dataclasses.replace(lp, objective=np.array([0.0, 0.0, -1.0]))
        assert assert_shared_phase1_matches_cold([lp, unbounded, lp]) > 0
        assert lc.solve(unbounded).status == lc.UNBOUNDED

    def test_phase_2_starts_from_the_cold_state(self, monkeypatch):
        # everything phase 2 reads, as a cold solve and a shared-state solve
        # of the same LP hand it over, refactorization cadence included
        fields = (
            "A", "b", "c", "lo", "up", "sign", "x", "pos", "basis", "in_basis", "binv",
            "iterations", "pivots_since_refactor", "max_iterations",
        )
        handed = []
        phase2 = lc._phase2

        def recorded(lp, tab, inherited):
            handed.append([np.asarray(getattr(tab, attr)).tobytes() for attr in fields])
            return phase2(lp, tab, inherited)

        monkeypatch.setattr(lc, "_phase2", recorded)
        rng = np.random.default_rng(17)
        for lp in criterion_1_lps()[:50]:
            state = lc.Phase1State()
            for other in recosted(lp, rng, 2):
                handed.clear()
                lc.solve(other)
                lc.solve(other, phase1=state)
                cold, shared = handed
                assert [f for f, a, b in zip(fields, cold, shared) if a != b] == []


class TestSharedPhase1Refusals:
    def filled(self, lp=BOX_ROW):
        state = lc.Phase1State()
        assert lc.solve(lp, phase1=state).is_optimal
        assert not state.empty
        return state

    @pytest.mark.parametrize(
        "change",
        [
            {"rhs": np.array([6.0])},
            {"matrix": np.array([[1.0, 2.0]])},
            {"relations": np.array([lc.GE])},
            {"lower": np.array([1.0, 0.0])},
            {"upper": np.array([10.0, 9.0])},
            {"lower": np.array([-0.0, 0.0])},
        ],
        ids=["rhs", "matrix", "relations", "lower", "upper", "negative_zero"],
    )
    def test_another_lps_rows_or_bounds(self, change):
        state = self.filled()
        with pytest.raises(ValueError, match="other rows or bounds"):
            lc.solve(dataclasses.replace(BOX_ROW, **change), phase1=state)

    def test_another_lps_shape(self):
        state = self.filled()
        wider = build(
            lc.MIN,
            [("x", 0.0, 10.0, 1.0), ("y", 0.0, 10.0, 2.0), ("z", 0.0, 1.0, 0.0)],
            [("need", {"x": 1.0, "y": 1.0}, lc.EQ, 5.0)],
        )
        with pytest.raises(ValueError, match="other rows or bounds"):
            lc.solve(wider, phase1=state)

    def test_infeasible_phase_1_keeps_no_state(self):
        lp = build(lc.MIN, [("x", 0.0, 1.0, 0.0)], [("row", {"x": 1.0}, lc.EQ, 5.0)])
        state = lc.Phase1State()
        for _ in range(2):
            sol = lc.solve(lp, phase1=state)
            assert sol.status == lc.INFEASIBLE and sol.phase1_iterations > 0
            assert state.empty
        assert_shared_phase1_matches_cold([lp, lp])


class TestWithObjective:
    """`LinearProgram.with_arrays` swapping the objective."""

    def test_shares_every_other_array(self):
        objective = np.array([3.0, -1.0])
        lp = BOX_ROW.with_arrays(objective=objective)
        assert lp.objective.tolist() == [3.0, -1.0] and lp.objective is not objective
        for attr in ("lower", "upper", "matrix", "relations", "rhs", "variables", "constraints"):
            assert getattr(lp, attr) is getattr(BOX_ROW, attr), attr
        assert (lp.sense, lp.name) == (BOX_ROW.sense, BOX_ROW.name)
        assert BOX_ROW.objective.tolist() == [1.0, 2.0]
        objective[0] = 7.0  # the LP holds its own copy
        assert lp.objective.tolist() == [3.0, -1.0]

    def test_solves_as_a_rebuilt_lp(self):
        rng = np.random.default_rng(19)
        for lp in criterion_1_lps()[:50]:
            objective = rng.uniform(-5.0, 5.0, len(lp.variables))
            shared = lc.solve(lp.with_arrays(objective=objective))
            rebuilt = lc.solve(dataclasses.replace(lp, objective=objective))
            assert shared.status == rebuilt.status
            assert shared.primal.tobytes() == rebuilt.primal.tobytes()
            assert shared.dual.tobytes() == rebuilt.dual.tobytes()

    @pytest.mark.parametrize(
        "objective, match",
        [
            ([1.0], "shape"),
            ([1.0, 2.0, 3.0], "shape"),
            ([[1.0, 2.0]], "shape"),
            ([math.nan, 1.0], "x: objective nan"),
            ([1.0, math.inf], "y: objective inf"),
            ([1.0, -math.inf], "y: objective -inf"),
        ],
        ids=["short", "long", "matrix", "nan", "inf", "minus_inf"],
    )
    def test_refuses_a_bad_objective(self, objective, match):
        with pytest.raises(lc.LpDefinitionError, match=match):
            BOX_ROW.with_arrays(objective=objective)

    def test_phase1_state_takes_the_shared_arrays(self):
        state = lc.Phase1State()
        assert lc.solve(BOX_ROW, phase1=state).is_optimal
        for objective in ([2.0, 1.0], [-1.0, 0.0], [1.0, 2.0]):
            lp = BOX_ROW.with_arrays(objective=objective)
            shared, cold = lc.solve(lp, phase1=state), lc.solve(lp)
            assert shared.status == cold.status == lc.OPTIMAL
            assert shared.primal.tobytes() == cold.primal.tobytes()
        # a re-costed LP with other rows is still refused
        other = BOX_ROW.with_arrays(objective=[2.0, 1.0], rhs=[6.0])
        with pytest.raises(ValueError, match="other rows or bounds"):
            lc.solve(other, phase1=state)


class TestWithUpperAndRhs:
    """`LinearProgram.with_arrays` swapping the upper bounds and the rhs,
    as the market's period LPs do."""

    def test_shares_every_other_array(self):
        upper, rhs = np.array([4.0, 6.0]), np.array([3.0])
        lp = BOX_ROW.with_arrays(upper=upper, rhs=rhs)
        assert lp.upper.tolist() == [4.0, 6.0] and lp.rhs.tolist() == [3.0]
        assert lp.upper is not upper and lp.rhs is not rhs
        for attr in ("objective", "lower", "matrix", "relations", "variables", "constraints"):
            assert getattr(lp, attr) is getattr(BOX_ROW, attr), attr
        assert (BOX_ROW.upper.tolist(), BOX_ROW.rhs.tolist()) == ([10.0, 10.0], [5.0])
        upper[0] = rhs[0] = 9.0  # the LP holds its own copies
        assert (lp.upper.tolist(), lp.rhs.tolist()) == ([4.0, 6.0], [3.0])

    def test_solves_as_a_rebuilt_lp(self):
        rng = np.random.default_rng(23)
        for lp in criterion_1_lps()[:50]:
            upper = np.maximum(lp.upper * rng.uniform(0.5, 1.5, len(lp.upper)), lp.lower)
            rhs = lp.rhs * rng.uniform(0.5, 1.5, len(lp.rhs))
            shared = lc.solve(lp.with_arrays(upper=upper, rhs=rhs))
            rebuilt = lc.solve(dataclasses.replace(lp, upper=upper, rhs=rhs))
            assert shared.status == rebuilt.status
            assert shared.primal.tobytes() == rebuilt.primal.tobytes()
            assert shared.dual.tobytes() == rebuilt.dual.tobytes()

    @pytest.mark.parametrize(
        "arrays, match",
        [
            ({"upper": [10.0]}, "upper has shape"),
            ({"rhs": [1.0, 2.0]}, "rhs has shape"),
            ({"upper": [-1.0, 10.0]}, "x: upper -1.0 invalid"),
            ({"upper": [10.0, math.nan]}, "y: upper nan invalid"),
            ({"upper": [10.0, -math.inf]}, "y: upper -inf invalid"),
            ({"rhs": [math.nan]}, "need: rhs nan invalid"),
            ({"rhs": [math.inf]}, "need: rhs inf invalid"),
        ],
        ids=[
            "short_upper", "long_rhs", "below_lower", "nan_upper", "minus_inf_upper", "nan_rhs",
            "inf_rhs",
        ],
    )
    def test_refuses_a_bad_array(self, arrays, match):
        with pytest.raises(lc.LpDefinitionError, match=match):
            BOX_ROW.with_arrays(**arrays)

    def test_an_infinite_upper_bound_is_kept(self):
        lp = BOX_ROW.with_arrays(upper=[math.inf, 10.0])
        assert lp.upper[0] == math.inf and lc.solve(lp).is_optimal


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_shared_phase1_matches_cold(seed):
    """On random LPs, feasible and bounded or with infinite bounds (so some
    objectives are unbounded), under random objectives and senses."""
    rng = np.random.default_rng(seed)
    lp = random_lp_with_infinite_bounds(rng) if seed % 2 else random_feasible_bounded_lp(rng)
    assert_shared_phase1_matches_cold(recosted(lp, rng, 4))


# the solves of `test_pivot_path_is_pinned`, hashed; a rewrite of the
# simplex that keeps every pivot and every bit keeps this digest
PIVOT_PATH_DIGEST = "400e6c1084aaa212e3361f68d69474be048bccc18eac714f0d49e94a91320cef"


def test_pivot_path_is_pinned(monkeypatch):
    """Status, pivot counts by phase, basis, primal and dual bytes of every
    solve below hash to one pinned digest, so a rewrite of a pricing or
    ratio-test rule that moves one pivot or one bit fails here.  The LPs
    reach what the desk's all-equality rows do not: "<=" and ">=" rows,
    infinite bounds and free columns, bound flips, unbounded, infeasible
    and iteration-limited solves, and Bland's rules.
      - the 200 criterion-1 LPs;
      - 200 `random_lp_with_infinite_bounds` LPs (seeds 0-199), each under
        its own objective and one recosted to the other sense;
      - those 400 again with every rhs negated and shifted by -1 (most of
        them infeasible);
      - the criterion-1 LPs with Bland's rules from the first pivot;
      - the first 50 criterion-1 LPs stopped after 4 iterations."""
    digest = hashlib.sha256()
    statuses = []

    def add(lp):
        sol = lc.solve(lp)
        statuses.append(sol.status)
        digest.update(repr((sol.status, sol.iterations, sol.phase1_iterations)).encode())
        for array in (sol.basis, sol.primal, sol.dual):
            digest.update(array.tobytes())

    def infinite_bound_lps():
        for seed in range(200):
            rng = np.random.default_rng(seed)
            yield from recosted(random_lp_with_infinite_bounds(rng), rng, 1)

    lps = criterion_1_lps()
    for lp in lps:
        add(lp)
    for lp in infinite_bound_lps():
        add(lp)
    for lp in infinite_bound_lps():
        add(lp.with_arrays(rhs=-lp.rhs - 1.0))
    with monkeypatch.context() as patch:
        patch.setattr(lc, "_BLAND_AFTER", -1)
        for lp in lps:
            add(lp)
    init = lc._Tableau.__init__

    def stopping_early(self, lp):
        init(self, lp)
        self.max_iterations = 4

    monkeypatch.setattr(lc._Tableau, "__init__", stopping_early)
    for lp in lps[:50]:
        add(lp)
    assert {status: statuses.count(status) for status in set(statuses)} == {
        lc.OPTIMAL: 797, lc.INFEASIBLE: 270, lc.UNBOUNDED: 148, lc.ITERATION_LIMIT: 35,
    }
    assert digest.hexdigest() == PIVOT_PATH_DIGEST


class TestBasisRegion:
    def test_answers_only_inside_its_region(self):
        # x + y >= 1 is met by the cheaper column; y's cost varies
        for sense, sign in ((lc.MIN, 1.0), (lc.MAX, -1.0)):
            lp = build(
                sense,
                [("x", 0.0, 10.0, sign * 1.0), ("y", 0.0, 10.0, sign * 2.0)],
                [("c", {"x": 1.0, "y": 1.0}, lc.GE, 1.0)],
            )
            sol = lc.solve(lp)
            region = lc.basis_region(lp, sol, [1])
            assert region.key == lc.basis_key(sol)
            assert region.point_at([sign * 1.5]) is sol.primal
            assert region.point_at([sign * 1.0]) is None  # a tie: not unique
            assert region.point_at([sign * 0.5]) is None  # y is cheaper

    def test_column_at_its_upper_bound(self):
        # x rests at 10 while it is cheaper than y, which fills the row
        lp = build(
            lc.MIN,
            [("x", 0.0, 10.0, -2.0), ("y", 0.0, 10.0, -1.0)],
            [("c", {"x": 1.0, "y": 1.0}, lc.LE, 15.0)],
        )
        sol = lc.solve(lp)
        assert sol.variable_status.tolist() == [lc.AT_UPPER, lc.BASIC]
        region = lc.basis_region(lp, sol, [0])
        np.testing.assert_array_equal(region.point_at([-3.0]), [10.0, 5.0])
        assert region.point_at([-1.0]) is None
        assert region.point_at([-0.5]) is None

    def test_no_region_for_a_free_nonbasic_column(self):
        lp = build(lc.MIN, [("x", 0.0, 1.0, 1.0), ("z", -lc.INF, lc.INF, 0.0)], [])
        sol = lc.solve(lp)
        assert sol.variable_status[1] == lc.NONBASIC_FREE
        assert lc.basis_region(lp, sol, [0]) is None


@settings(max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_region_point_is_the_cold_optimum(seed):
    """Wherever a stored basis answers new costs on some columns, a cold
    solve at those costs ends at its point."""
    rng = np.random.default_rng(seed)
    lp = random_feasible_bounded_lp(rng, max_vars=9, max_cons=9)
    sol = lc.solve(lp)
    n = len(lp.variables)
    columns = np.flatnonzero(rng.random(n) < 0.5)
    region = lc.basis_region(lp, sol, columns)
    assert region is not None  # every bound is finite, and there is no artificial
    for scale in (0.1, 1.0, 5.0):
        costs = lp.objective[columns] + rng.uniform(-scale, scale, columns.size)
        point = region.point_at(costs)
        if point is None:
            continue
        objective = lp.objective.copy()
        objective[columns] = costs
        cold = lc.solve(dataclasses.replace(lp, objective=objective))
        assert cold.is_optimal
        atol = 1e-7 * (1.0 + np.abs(point).max())
        np.testing.assert_allclose(cold.primal, point, rtol=0.0, atol=atol)
