"""LP layer: solver statuses, dual extraction, dualizer, duality checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evcsmarket import bilevel as bl
from evcsmarket import dam
from evcsmarket import fleet as fl
from evcsmarket import lpcore as lc
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
        assert np.any(sol.infeasibility_certificate)

    def test_unbounded(self):
        lp = build(lc.MAX, [("x", 0.0, lc.INF, 1.0)], [])
        sol = lc.solve(lp)
        assert sol.status == lc.UNBOUNDED
        assert np.any(sol.unbounded_ray)

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


@settings(max_examples=50, deadline=None, derandomize=True)
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
        fl.build_fleet(inp, home_price_bump=bump, fleet_ids={f.id})[0]
        for f in scenario.fleets
        for bump in (fl.TIE_BREAK_EPS, 0.0)
    ]
    market = bl.dam_input_for(scenario, outcome.schedule)
    lps.extend(dam.build_dam(market, period=t)[0] for t in range(scenario.network.horizon))
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


@settings(max_examples=40, deadline=None, derandomize=True)
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
