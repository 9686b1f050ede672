"""Generic linear programming layer: model container, bounded-variable
revised simplex solver with dual extraction, automatic dualizer,
strong-duality / complementary-slackness checkers, and a weak-duality
(Lagrangian) bound that any row multipliers give.

Every solve starts from a lower-triangular crash basis: walking the
structural columns, then the slacks, a column becomes basic on a row when it
can zero that row's residual within its bounds and touches no row taken
before it.  Only the rows left over start on a phase-1 artificial.  The
start basis depends on the LP alone, so a solve never depends on what was
solved before it.

Sign conventions (fixed once, used everywhere in this package):

* Constraint duals are *marginal values*: ``dual[c] = d(optimal objective) /
  d(rhs of c)``.  Consequences at an optimum:
    - minimize:  ">=" rows have dual >= 0, "<=" rows have dual <= 0.
    - maximize:  ">=" rows have dual <= 0, "<=" rows have dual >= 0.
    - "=" rows are free in both senses.
* Reduced costs are marginal values of the *active variable bound*:
  ``reduced_cost[v] = d(optimal objective) / d(bound v sits at)``.
    - minimize: at lower bound => rc >= 0, at upper bound => rc <= 0.
    - maximize: the opposite.

Textbook formulations that attach the opposite sign to duals of a
maximization problem are related to this convention by a single global
negation; helpers in `dam` and `fleet` document the mapping where it
matters (e.g. locational prices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

MIN = "min"
MAX = "max"

LE = "<="
EQ = "="
GE = ">="

INF = math.inf

# Solver defaults. Market LPs with ties (offer price equal to a retail rate)
# are routinely degenerate, so termination relies on a Bland fallback rather
# than on luck with Dantzig pricing.
FEAS_TOL = 1e-8
OPT_TOL = 1e-9
DUALITY_TOL = 1e-6
_PIVOT_TOL = 1e-10
_REFACTOR_EVERY = 64
_BLAND_AFTER = 40


class LpError(Exception):
    """Base class for LP-layer failures."""


class LpDefinitionError(LpError):
    """The LP container is malformed (bad bounds, unknown variable, ...)."""


class LpSolveError(LpError):
    """A caller required an optimal solution and did not get one."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float = -INF
    upper: float = INF
    objective: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise LpDefinitionError("variable needs a non-empty name")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise LpDefinitionError(f"{self.name}: NaN bound")
        if self.lower == INF or self.upper == -INF:
            raise LpDefinitionError(f"{self.name}: bound interval is empty")
        if not math.isfinite(self.objective):
            raise LpDefinitionError(f"{self.name}: objective coefficient must be finite")
        if self.lower > self.upper:
            raise LpDefinitionError(
                f"{self.name}: lower bound {self.lower} exceeds upper bound {self.upper}"
            )


@dataclass(frozen=True)
class Constraint:
    name: str
    coefficients: Mapping[str, float]
    relation: str
    rhs: float

    def __post_init__(self):
        if not self.name:
            raise LpDefinitionError("constraint needs a non-empty name")
        if self.relation not in (LE, EQ, GE):
            raise LpDefinitionError(f"{self.name}: unknown relation {self.relation!r}")
        if not math.isfinite(self.rhs):
            raise LpDefinitionError(f"{self.name}: rhs must be finite")
        for var, coef in self.coefficients.items():
            if not math.isfinite(coef):
                raise LpDefinitionError(f"{self.name}: non-finite coefficient on {var}")
        object.__setattr__(self, "coefficients", dict(self.coefficients))


@dataclass(frozen=True)
class LinearProgram:
    """Immutable LP: named variables with bounds, named relational rows."""

    sense: str
    variables: tuple[Variable, ...]
    constraints: tuple[Constraint, ...]
    name: str = "lp"

    def __post_init__(self):
        if self.sense not in (MIN, MAX):
            raise LpDefinitionError(f"sense must be {MIN!r} or {MAX!r}")
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise LpDefinitionError("duplicate variable names")
        cnames = [c.name for c in self.constraints]
        if len(set(cnames)) != len(cnames):
            raise LpDefinitionError("duplicate constraint names")
        declared = set(names)
        for con in self.constraints:
            unknown = set(con.coefficients) - declared
            if unknown:
                raise LpDefinitionError(
                    f"{con.name}: references undeclared variables {sorted(unknown)}"
                )

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def constraint_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.constraints)

    def objective_value(self, values: Mapping[str, float]) -> float:
        return float(sum(v.objective * values[v.name] for v in self.variables))


class LpBuilder:
    """Incremental construction helper for LinearProgram."""

    def __init__(self, sense: str, name: str = "lp"):
        self.sense = sense
        self.name = name
        self._variables: list[Variable] = []
        self._constraints: list[Constraint] = []

    def add_variable(self, name, lower=-INF, upper=INF, objective=0.0) -> str:
        self._variables.append(Variable(name, lower, upper, objective))
        return name

    def add_constraint(self, name, coefficients, relation, rhs) -> str:
        self._constraints.append(Constraint(name, coefficients, relation, rhs))
        return name

    def build(self) -> LinearProgram:
        return LinearProgram(
            self.sense, tuple(self._variables), tuple(self._constraints), self.name
        )


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL = "numerical_failure"
ITERATION_LIMIT = "iteration_limit"

BASIC = "basic"
AT_LOWER = "at_lower"
AT_UPPER = "at_upper"
NONBASIC_FREE = "nonbasic_free"


@dataclass
class LpSolution:
    """Result of `solve`.

    `dual` and `reduced_cost` follow the marginal-value convention in the
    module docstring.  `infeasibility_certificate` (row multipliers proving
    no feasible point exists) and `unbounded_ray` (an improving feasible
    direction) are diagnostic payloads kept for callers that want to turn a
    failure into an actionable message.  `iterations` counts every simplex
    pivot and bound flip; `phase1_iterations` is the part of it spent
    reaching feasibility, so phase 2 took the difference.
    """

    status: str
    objective: float = math.nan
    primal: dict[str, float] = field(default_factory=dict)
    dual: dict[str, float] = field(default_factory=dict)
    reduced_cost: dict[str, float] = field(default_factory=dict)
    variable_status: dict[str, str] = field(default_factory=dict)
    iterations: int = 0
    phase1_iterations: int = 0
    infeasibility_certificate: dict[str, float] | None = None
    unbounded_ray: dict[str, float] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


@dataclass
class DualityReport:
    """Outcome of a strong-duality / complementary-slackness check."""

    objective_gap: float
    relative_gap: float
    max_complementarity: float
    worst_items: tuple[tuple[str, float], ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.relative_gap <= self.tolerance and (
            self.max_complementarity <= self.tolerance
        )


# ---------------------------------------------------------------------------
# simplex internals
# ---------------------------------------------------------------------------


_POS_LOWER = 0
_POS_UPPER = 1
_POS_FREE = 2


def _crash(columns, lo, up, x, resid) -> dict[int, int]:
    """Lower-triangular crash basis (Bixby 1992; Maros 2003, ch. 9).

    Walks the non-fixed real columns in order.  A column is taken if it is
    zero on every row taken so far; its row is the untaken row where its
    coefficient is largest in magnitude (the first on ties), and it is
    accepted only if the value that zeroes that row's residual lies within
    its bounds.  An accepted column moves to that value, updating `x` and
    `resid` in place.  Returns {row: column}.

    In the order they were taken, the chosen columns form a lower-triangular
    block whose diagonal entries are their columns' largest, so with unit
    artificials on the other rows the basis is nonsingular, and every basic
    starts within its bounds.
    """
    taken: dict[int, int] = {}
    for j, entries in enumerate(columns):
        if not entries or lo[j] == up[j]:
            continue
        i, a = entries[0]
        for k, coef in entries:
            if k in taken:
                break
            if abs(coef) > abs(a):
                i, a = k, coef
        else:  # no entry on a taken row
            step = resid[i] / a
            if lo[j] <= x[j] + step <= up[j]:
                x[j] += step
                for k, coef in entries:
                    resid[k] -= coef * step
                resid[i] = 0.0
                taken[i] = j
    return taken


class _Tableau:
    """Dense bounded-variable simplex state over columns = structural vars,
    slacks, then phase-1 artificials.

    Every row i reads A_i x + s_i + art_sign_i * art_i = b_i.  The start
    basis is a lower-triangular crash (`_crash`): each row some real column
    can satisfy within its bounds gets that column as its basic variable,
    and every other row keeps its artificial, basic at the row's residual.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = len(lp.variables)
        m = len(lp.constraints)
        self.n = n
        self.m = m
        self.var_index = {v.name: j for j, v in enumerate(lp.variables)}

        sign = -1.0 if lp.sense == MAX else 1.0
        ncols = n + m
        self.A = np.zeros((m, ncols + m))
        self.c = np.zeros(ncols + m)
        self.lo = np.full(ncols + m, -INF)
        self.up = np.full(ncols + m, INF)
        self.b = np.zeros(m)

        # the nonzeros of each real column as (row, coefficient), rows ascending
        columns: list[list[tuple[int, float]]] = [[] for _ in range(ncols)]
        for j, v in enumerate(lp.variables):
            self.c[j] = sign * v.objective
            self.lo[j] = v.lower
            self.up[j] = v.upper
        for i, con in enumerate(lp.constraints):
            for var, coef in con.coefficients.items():
                j = self.var_index[var]
                self.A[i, j] = coef
                if coef != 0.0:
                    columns[j].append((i, coef))
            self.b[i] = con.rhs
            s = n + i
            self.A[i, s] = 1.0
            columns[s].append((i, 1.0))
            if con.relation == LE:
                self.lo[s], self.up[s] = 0.0, INF
            elif con.relation == GE:
                self.lo[s], self.up[s] = -INF, 0.0
            else:
                self.lo[s], self.up[s] = 0.0, 0.0
        self.nreal = ncols
        self.ncols = ncols + m
        self.sign = sign

        # nonbasic rest position for every column
        self.x = np.zeros(self.ncols)
        self.pos = np.full(self.ncols, _POS_FREE, dtype=np.int8)
        for j in range(self.nreal):
            if math.isfinite(self.lo[j]):
                self.x[j] = self.lo[j]
                self.pos[j] = _POS_LOWER
            elif math.isfinite(self.up[j]):
                self.x[j] = self.up[j]
                self.pos[j] = _POS_UPPER

        resid = self.b - self.A[:, : self.nreal] @ self.x[: self.nreal]
        crashed = _crash(columns, self.lo, self.up, self.x, resid)
        self.art_sign = np.where(resid >= 0.0, 1.0, -1.0)
        for i in range(m):
            j = self.nreal + i
            self.A[i, j] = self.art_sign[i]
            self.lo[j], self.up[j] = 0.0, INF
            self.pos[j] = _POS_LOWER
        self.x[self.nreal :] = np.abs(resid)
        self.basis = np.arange(self.nreal, self.ncols)
        for i, j in crashed.items():
            self.basis[i] = j
        self.in_basis = np.zeros(self.ncols, dtype=bool)
        self.in_basis[self.basis] = True
        self.binv = np.linalg.inv(self.A[:, self.basis])
        self.iterations = 0
        self.pivots_since_refactor = 0

    # -- basis maintenance ---------------------------------------------------

    def refactor(self) -> bool:
        B = self.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        self.pivots_since_refactor = 0
        return self.recompute_basics()

    def recompute_basics(self) -> bool:
        nb = ~self.in_basis
        rhs = self.b - self.A[:, nb] @ self.x[nb]
        xb = self.binv @ rhs
        if not np.all(np.isfinite(xb)):
            return False
        self.x[self.basis] = xb
        return True

    def duals(self, costs: np.ndarray) -> np.ndarray:
        return costs[self.basis] @ self.binv

    def reduced_costs(self, costs: np.ndarray, y: np.ndarray) -> np.ndarray:
        return costs - y @ self.A

    # -- core iteration loop ---------------------------------------------------

    def run(self, costs, *, opt_tol, max_iterations, allow_unbounded):
        """Minimize costs over the current basis; returns a status string."""
        cost_scale = float(np.max(np.abs(costs))) if costs.size else 0.0
        dtol = opt_tol * (1.0 + cost_scale)
        bland = False
        stall = 0
        while True:
            if self.iterations >= max_iterations:
                return ITERATION_LIMIT
            if self.pivots_since_refactor >= _REFACTOR_EVERY:
                if not self.refactor():
                    return NUMERICAL
            y = self.duals(costs)
            d = self.reduced_costs(costs, y)

            q = self._entering(d, dtol, bland)
            if q is None:
                return OPTIMAL
            sigma = self._direction(q, d)
            w = self.binv @ self.A[:, q]
            step, leave_pos, hits_upper = self._ratio_test(q, sigma, w, bland)
            if step is None:
                if not allow_unbounded:
                    return NUMERICAL
                self._ray = (q, sigma, w)
                return UNBOUNDED

            self.iterations += 1
            stall = stall + 1 if step <= 1e-12 else 0
            if stall > _BLAND_AFTER:
                bland = True

            if leave_pos is None:
                # bound flip: entering moves across its own range, basis unchanged
                self.x[self.basis] -= sigma * step * w
                self.pos[q] = _POS_UPPER if self.pos[q] == _POS_LOWER else _POS_LOWER
                self.x[q] = self.up[q] if self.pos[q] == _POS_UPPER else self.lo[q]
                continue

            leave_col = self.basis[leave_pos]
            self.x[self.basis] -= sigma * step * w
            self.x[q] += sigma * step
            self.x[leave_col] = self.up[leave_col] if hits_upper else self.lo[leave_col]
            self.pos[leave_col] = _POS_UPPER if hits_upper else _POS_LOWER

            pivot = w[leave_pos]
            if abs(pivot) < _PIVOT_TOL:
                if not self.refactor():
                    return NUMERICAL
                continue
            self.basis[leave_pos] = q
            self.in_basis[q] = True
            self.in_basis[leave_col] = False
            # product-form inverse update
            row = self.binv[leave_pos].copy() / pivot
            self.binv -= np.outer(w, row)
            self.binv[leave_pos] = row
            self.pivots_since_refactor += 1

    def _entering(self, d, dtol, bland):
        eligible = ~self.in_basis & (self.lo != self.up)
        score = np.where(
            self.pos == _POS_LOWER, -d, np.where(self.pos == _POS_UPPER, d, np.abs(d))
        )
        score = np.where(eligible, score, -INF)
        if bland:
            hits = np.nonzero(score > dtol)[0]
            return int(hits[0]) if hits.size else None
        q = int(np.argmax(score))
        return q if score[q] > dtol else None

    def _direction(self, q, d) -> float:
        if self.pos[q] == _POS_LOWER:
            return 1.0
        if self.pos[q] == _POS_UPPER:
            return -1.0
        return -math.copysign(1.0, d[q])

    def _ratio_test(self, q, sigma, w, bland):
        """Largest step t >= 0 moving x_q by sigma*t keeping all basics in
        their bounds. Returns (step, leaving position or None for a bound
        flip, True if the leaver stops at its upper bound)."""
        cols = self.basis
        delta = -sigma * w
        xb = self.x[cols]
        # only rows that move towards a bound are divided; a NaN (inf - inf
        # in a non-finite basic) counts as no limit
        with np.errstate(invalid="ignore"):
            t_lo = np.divide(
                xb - self.lo[cols], -delta, out=np.full(self.m, INF), where=delta < -_PIVOT_TOL
            )
            t_up = np.divide(
                self.up[cols] - xb, delta, out=np.full(self.m, INF), where=delta > _PIVOT_TOL
            )
        t_lo[np.isnan(t_lo)] = INF
        t_up[np.isnan(t_up)] = INF
        t_all = np.maximum(np.minimum(t_lo, t_up), 0.0)

        best_t = float(t_all.min()) if self.m else INF
        flip = self.up[q] - self.lo[q]
        if math.isfinite(flip) and flip < best_t - 1e-12:
            return flip, None, False
        if not math.isfinite(best_t):
            if math.isfinite(flip):
                return flip, None, False
            return None, None, False

        tied = np.nonzero(t_all <= best_t + 1e-12)[0]
        if bland:
            leave_pos = int(tied[np.argmin(cols[tied])])
        else:
            leave_pos = int(tied[np.argmax(np.abs(w[tied]))])
        hits_upper = bool(t_up[leave_pos] <= t_lo[leave_pos])
        return best_t, leave_pos, hits_upper


def _extract_solution(lp: LinearProgram, tab: _Tableau, feas_tol, opt_tol, phase1_iterations):
    """Final verification and packaging; returns None if the claimed optimum
    does not survive an exact refactorization."""
    if not tab.refactor():
        return None
    y_int = tab.duals(tab.c)
    d_int = tab.reduced_costs(tab.c, y_int)

    # primal residuals over the equality (slack-augmented) system
    resid = tab.A[:, : tab.nreal] @ tab.x[: tab.nreal] - tab.b
    art = tab.x[tab.nreal :]
    scale_b = 1.0 + float(np.max(np.abs(tab.b))) if tab.m else 1.0
    if tab.m and (
        float(np.max(np.abs(resid))) > feas_tol * scale_b * 10.0
        or float(np.max(np.abs(art))) > feas_tol * scale_b * 10.0
    ):
        return None
    lo_viol = np.maximum(tab.lo[: tab.nreal] - tab.x[: tab.nreal], 0.0)
    up_viol = np.maximum(tab.x[: tab.nreal] - tab.up[: tab.nreal], 0.0)
    bound_scale = 1.0 + float(np.max(np.abs(tab.x[: tab.nreal]))) if tab.nreal else 1.0
    if tab.nreal and float(max(lo_viol.max(), up_viol.max())) > feas_tol * bound_scale * 10.0:
        return None

    # dual feasibility of the final basis
    dtol = opt_tol * (1.0 + float(np.max(np.abs(tab.c)))) * 100.0
    for j in range(tab.nreal):
        if tab.in_basis[j] or tab.lo[j] == tab.up[j]:
            continue
        if tab.pos[j] == _POS_LOWER:
            if d_int[j] < -dtol:
                return None
        elif tab.pos[j] == _POS_UPPER:
            if d_int[j] > dtol:
                return None
        elif abs(d_int[j]) > dtol:
            return None

    sign = tab.sign
    primal = {v.name: float(tab.x[j]) for j, v in enumerate(lp.variables)}
    objective = lp.objective_value(primal)
    dual = {
        con.name: float(sign * y_int[i]) for i, con in enumerate(lp.constraints)
    }
    reduced = {
        v.name: float(sign * d_int[j]) for j, v in enumerate(lp.variables)
    }
    status = {}
    for j, v in enumerate(lp.variables):
        if tab.in_basis[j]:
            status[v.name] = BASIC
        elif tab.pos[j] == _POS_LOWER:
            status[v.name] = AT_LOWER
        elif tab.pos[j] == _POS_UPPER:
            status[v.name] = AT_UPPER
        else:
            status[v.name] = NONBASIC_FREE
    return LpSolution(
        status=OPTIMAL,
        objective=float(objective),
        primal=primal,
        dual=dual,
        reduced_cost=reduced,
        variable_status=status,
        iterations=tab.iterations,
        phase1_iterations=phase1_iterations,
    )


def solve(
    lp: LinearProgram,
    *,
    feas_tol: float = FEAS_TOL,
    opt_tol: float = OPT_TOL,
    max_iterations: int | None = None,
) -> LpSolution:
    """Solve an LP to proven optimality, or report infeasible/unbounded.

    The returned primal/dual pair satisfies strong duality within
    DUALITY_TOL whenever status is "optimal"; a failed internal
    verification is reported as "numerical_failure", never as a wrong
    optimum.
    """
    if max_iterations is None:
        max_iterations = 2000 + 200 * (len(lp.variables) + len(lp.constraints))

    tab = _Tableau(lp)
    m = tab.m

    # phase 1: minimize total artificial mass
    phase1_costs = np.zeros(tab.ncols)
    phase1_costs[tab.nreal :] = 1.0
    status = tab.run(
        phase1_costs,
        opt_tol=opt_tol,
        max_iterations=max_iterations,
        allow_unbounded=False,
    )
    phase1 = tab.iterations

    def stopped(status, **payload):
        return LpSolution(
            status=status, iterations=tab.iterations, phase1_iterations=phase1, **payload
        )

    if status in (ITERATION_LIMIT, NUMERICAL):
        return stopped(status)

    scale_b = 1.0 + float(np.max(np.abs(tab.b))) if m else 1.0
    infeas_mass = float(np.sum(tab.x[tab.nreal :]))
    if infeas_mass > feas_tol * scale_b * 10.0:
        y = tab.duals(phase1_costs)
        certificate = {
            con.name: float(y[i]) for i, con in enumerate(lp.constraints) if abs(y[i]) > 1e-12
        }
        return stopped(INFEASIBLE, infeasibility_certificate=certificate)

    # pin artificials at zero and pivot basic ones out where possible
    for i in range(m):
        j = tab.nreal + i
        tab.lo[j] = tab.up[j] = 0.0
        tab.x[j] = 0.0
    for pos in range(m):
        col = tab.basis[pos]
        if col < tab.nreal:
            continue
        row = tab.binv[pos] @ tab.A[:, : tab.nreal]
        candidates = [
            j
            for j in range(tab.nreal)
            if not tab.in_basis[j] and abs(row[j]) > 1e-7
        ]
        if not candidates:
            continue  # redundant row; artificial stays basic at level 0
        q = candidates[0]
        w = tab.binv @ tab.A[:, q]
        pivot = w[pos]
        tab.basis[pos] = q
        tab.in_basis[q] = True
        tab.in_basis[col] = False
        r = tab.binv[pos].copy() / pivot
        tab.binv -= np.outer(w, r)
        tab.binv[pos] = r
        tab.pivots_since_refactor += 1

    # phase 2: real objective
    status = tab.run(
        tab.c,
        opt_tol=opt_tol,
        max_iterations=max_iterations,
        allow_unbounded=True,
    )
    if status in (ITERATION_LIMIT, NUMERICAL):
        return stopped(status)
    if status == UNBOUNDED:
        q, sigma, w = tab._ray
        ray = {lp.variables[q].name: sigma} if q < tab.n else {}
        for pos in range(m):
            col = tab.basis[pos]
            if col < tab.n and abs(w[pos]) > 1e-12:
                ray[lp.variables[col].name] = float(-sigma * w[pos])
        return stopped(UNBOUNDED, unbounded_ray=ray)

    solution = _extract_solution(lp, tab, feas_tol, opt_tol, phase1)
    return solution if solution is not None else stopped(NUMERICAL)


def require_optimal(lp: LinearProgram, **kwargs) -> LpSolution:
    """solve() and raise LpSolveError unless an optimum was certified."""
    sol = solve(lp, **kwargs)
    if not sol.is_optimal:
        raise LpSolveError(f"{lp.name}: solver returned status {sol.status}", sol)
    return sol


# ---------------------------------------------------------------------------
# dualization
# ---------------------------------------------------------------------------


def dual_variable_name(constraint_name: str) -> str:
    return f"dual[{constraint_name}]"


def lower_rc_name(variable_name: str) -> str:
    return f"rc_lo[{variable_name}]"


def upper_rc_name(variable_name: str) -> str:
    return f"rc_up[{variable_name}]"


def dualize(lp: LinearProgram) -> LinearProgram:
    """Exact LP dual under the marginal-value sign convention.

    One dual variable per row (named dual[row]), one per finite variable
    bound (rc_lo[var] / rc_up[var]), and one stationarity equality per primal
    variable (named col[var]): sum_i a_ij dual_i + rc_lo_j + rc_up_j = c_j.
    The dual objective is rhs . dual + lower . rc_lo + upper . rc_up with the
    opposite optimization sense; optimal values coincide for feasible bounded
    problems, and dualize(dualize(lp)) has the same optimal value as lp.
    """
    minimizing = lp.sense == MIN
    dual = LpBuilder(MAX if minimizing else MIN, name=f"dual({lp.name})")

    for con in lp.constraints:
        if con.relation == EQ:
            lo, up = -INF, INF
        elif (con.relation == GE) == minimizing:
            lo, up = 0.0, INF
        else:
            lo, up = -INF, 0.0
        dual.add_variable(dual_variable_name(con.name), lo, up, objective=con.rhs)

    for v in lp.variables:
        if math.isfinite(v.lower):
            lo, up = (0.0, INF) if minimizing else (-INF, 0.0)
            dual.add_variable(lower_rc_name(v.name), lo, up, objective=v.lower)
        if math.isfinite(v.upper):
            lo, up = (-INF, 0.0) if minimizing else (0.0, INF)
            dual.add_variable(upper_rc_name(v.name), lo, up, objective=v.upper)

    columns: dict[str, dict[str, float]] = {v.name: {} for v in lp.variables}
    for con in lp.constraints:
        dname = dual_variable_name(con.name)
        for var, coef in con.coefficients.items():
            if coef != 0.0:
                columns[var][dname] = coef
    for v in lp.variables:
        coeffs = columns[v.name]
        if math.isfinite(v.lower):
            coeffs[lower_rc_name(v.name)] = 1.0
        if math.isfinite(v.upper):
            coeffs[upper_rc_name(v.name)] = 1.0
        dual.add_constraint(f"col[{v.name}]", coeffs, EQ, v.objective)

    return dual.build()


def dual_objective_value(lp: LinearProgram, sol: LpSolution) -> float:
    """Dual objective implied by a solution's own duals and reduced costs."""
    total = 0.0
    for con in lp.constraints:
        total += con.rhs * sol.dual[con.name]
    for v in lp.variables:
        rc = sol.reduced_cost[v.name]
        status = sol.variable_status.get(v.name)
        if status == AT_LOWER:
            total += rc * v.lower
        elif status == AT_UPPER:
            total += rc * v.upper
    return float(total)


def lagrangian_bound(lp: LinearProgram, y: Mapping[str, float]) -> float:
    """Weak-duality bound on the optimum of `lp` from any row multipliers.

    Returns rhs . y + sum_j best(d_j * x_j over [lower_j, upper_j]) with
    reduced costs d = c - A'y, where "best" is the minimum when minimizing
    and the maximum when maximizing.  Inequality multipliers are first
    clipped to their feasible sign under the marginal-value convention;
    rows missing from `y` count as 0.  The result is a lower bound on the
    minimum (an upper bound on the maximum) whatever `y` is, and equals the
    optimum at an optimal dual vector; it is -inf (+inf when maximizing)
    when a nonzero reduced cost meets an infinite bound.
    """
    minimizing = lp.sense == MIN
    reduced = {v.name: v.objective for v in lp.variables}
    total = 0.0
    for con in lp.constraints:
        yi = float(y.get(con.name, 0.0))
        if con.relation != EQ:
            yi = max(yi, 0.0) if (con.relation == GE) == minimizing else min(yi, 0.0)
        if yi == 0.0:
            continue
        total += con.rhs * yi
        for var, coef in con.coefficients.items():
            reduced[var] -= coef * yi
    for v in lp.variables:
        d = reduced[v.name]
        if d == 0.0:
            continue
        at = v.lower if (d > 0.0) == minimizing else v.upper
        if not math.isfinite(at):
            return -INF if minimizing else INF
        total += d * at
    return float(total)


def max_violation(lp: LinearProgram, values: Mapping[str, float]) -> float:
    """Largest scaled violation of `lp`'s bounds and rows at `values`; 0.0
    when every one holds.

    A bound violation is divided by 1 + max(|lower|, |upper|) when both
    bounds are finite and by 1 otherwise; a row violation by 1 + |rhs|.
    "<=" and ">=" rows count only their violated side.  A value that is not
    finite gives inf, so NaN cannot slip through a comparison."""
    worst = 0.0
    for v in lp.variables:
        x = values[v.name]
        if not math.isfinite(x):
            return INF
        finite = math.isfinite(v.lower) and math.isfinite(v.upper)
        scale = 1.0 + max(abs(v.lower), abs(v.upper)) if finite else 1.0
        worst = max(worst, (v.lower - x) / scale, (x - v.upper) / scale)
    for con in lp.constraints:
        excess = _constraint_activity(con, values) - con.rhs
        if con.relation == EQ:
            excess = abs(excess)
        elif con.relation == GE:
            excess = -excess
        worst = max(worst, excess / (1.0 + abs(con.rhs)))
    return float(worst)


def _constraint_activity(con: Constraint, values: Mapping[str, float]) -> float:
    return float(sum(coef * values[var] for var, coef in con.coefficients.items()))


def check_strong_duality(
    primal: LinearProgram,
    psol: LpSolution,
    dsol: LpSolution,
    tol: float = DUALITY_TOL,
) -> DualityReport:
    """Compare an optimal primal solution against an optimal solution of
    dualize(primal): objective gap plus complementary slackness.

    Duals of degenerate optima are basis dependent, so this checks gaps and
    products only, never specific dual values.
    """
    if not psol.is_optimal or not dsol.is_optimal:
        raise LpSolveError("check_strong_duality needs two optimal solutions")

    gap = abs(psol.objective - dsol.objective)
    denom = max(1.0, abs(psol.objective), abs(dsol.objective))
    items: list[tuple[str, float]] = []

    for con in primal.constraints:
        if con.relation == EQ:
            continue
        slack = con.rhs - _constraint_activity(con, psol.primal)
        y = dsol.primal[dual_variable_name(con.name)]
        items.append((con.name, abs(y * slack)))
    for v in primal.variables:
        x = psol.primal[v.name]
        if math.isfinite(v.lower):
            zl = dsol.primal[lower_rc_name(v.name)]
            items.append((f"{v.name}.lower", abs(zl * (x - v.lower))))
        if math.isfinite(v.upper):
            zu = dsol.primal[upper_rc_name(v.name)]
            items.append((f"{v.name}.upper", abs(zu * (v.upper - x))))

    items.sort(key=lambda kv: -kv[1])
    max_cs = items[0][1] if items else 0.0
    scale = max(1.0, max(abs(x) for x in psol.primal.values()) if psol.primal else 1.0)
    return DualityReport(
        objective_gap=gap,
        relative_gap=gap / denom,
        max_complementarity=max_cs / scale,
        worst_items=tuple(items[:5]),
        tolerance=tol,
    )


def check_solution_pair(lp: LinearProgram, sol: LpSolution, tol: float = DUALITY_TOL) -> DualityReport:
    """Self-check of one solve(): its primal against its own duals."""
    if not sol.is_optimal:
        raise LpSolveError("check_solution_pair needs an optimal solution")
    dual_obj = dual_objective_value(lp, sol)
    gap = abs(sol.objective - dual_obj)
    denom = max(1.0, abs(sol.objective), abs(dual_obj))

    items: list[tuple[str, float]] = []
    for con in lp.constraints:
        if con.relation == EQ:
            continue
        slack = con.rhs - _constraint_activity(con, sol.primal)
        items.append((con.name, abs(sol.dual[con.name] * slack)))
    for v in lp.variables:
        x = sol.primal[v.name]
        rc = sol.reduced_cost[v.name]
        status = sol.variable_status.get(v.name)
        if status == AT_LOWER:
            items.append((f"{v.name}.lower", abs(rc * (x - v.lower))))
        elif status == AT_UPPER:
            items.append((f"{v.name}.upper", abs(rc * (v.upper - x))))
    items.sort(key=lambda kv: -kv[1])
    max_cs = items[0][1] if items else 0.0
    scale = max(1.0, max(abs(x) for x in sol.primal.values()) if sol.primal else 1.0)
    return DualityReport(
        objective_gap=gap,
        relative_gap=gap / denom,
        max_complementarity=max_cs / scale,
        worst_items=tuple(items[:5]),
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# debug export
# ---------------------------------------------------------------------------


def write_lp_text(lp: LinearProgram) -> str:
    """Render an LP in the package's fixed debugging layout.

    Layout (documented for byte-exact comparisons): one header line with the
    sense and name; `obj:` line listing every nonzero objective term in
    declaration order as `coef*name`; `subject to` block with one line per
    constraint `name: term [+ term ...] rel rhs`; `bounds` block with one
    line per variable `lower <= name <= upper` using `-inf`/`inf`; final
    `end` line.  Numbers use repr(float).
    """
    out = [f"{lp.sense} {lp.name}"]
    terms = [f"{v.objective!r}*{v.name}" for v in lp.variables if v.objective != 0.0]
    out.append("obj: " + (" + ".join(terms) if terms else "0"))
    out.append("subject to")
    for con in lp.constraints:
        parts = " + ".join(f"{coef!r}*{var}" for var, coef in con.coefficients.items())
        out.append(f"  {con.name}: {parts if parts else '0'} {con.relation} {con.rhs!r}")
    out.append("bounds")
    for v in lp.variables:
        lo = "-inf" if v.lower == -INF else repr(v.lower)
        up = "inf" if v.upper == INF else repr(v.upper)
        out.append(f"  {lo} <= {v.name} <= {up}")
    out.append("end")
    return "\n".join(out) + "\n"
