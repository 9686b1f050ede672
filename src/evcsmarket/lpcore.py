"""Generic linear programming layer: an array-backed model container, a
bounded-variable revised simplex solver with dual extraction, automatic
dualizer, strong-duality / complementary-slackness checkers, and a
weak-duality (Lagrangian) bound that any row multipliers give.

An LP is arrays: per column an objective coefficient and two bounds, a
dense constraint matrix, and per row a relation and a right-hand side.
`LpBuilder` places columns and rows and returns their indices, and a
solution comes back as arrays in that same order, so a caller keeps the
indices it was given and reads results by them.  Column and row labels ride
along only for `write_lp_text`, `dualize` and structural comparisons.

A solve starts from a lower-triangular crash basis: walking the structural
columns, then the slacks, a column becomes basic on a row when it can zero
that row's residual within its bounds and touches no row taken before it.
Only the rows left over start on a phase-1 artificial.  The start depends
only on the LP, so a solve never depends on what was solved before it, and
the solver is deterministic: one LP solved twice gives the same bits.

Phase 1 and the pivot-out of the artificials read no objective, so solves
of one LP under several objectives can share them: `solve(lp,
phase1=state)` with a `Phase1State` keeps the tableau the first solve
reaches there, and every later solve starts its phase 2 from a copy of it.
Its result is the cold solve's, bit for bit; only its pivot count leaves
out the phase-1 pivots it did not make.

Sign conventions (fixed once, used everywhere in this package):

* Constraint duals are *marginal values*: ``dual[i] = d(optimal objective) /
  d(rhs of row i)``.  Consequences at an optimum:
    - minimize:  ">=" rows have dual >= 0, "<=" rows have dual <= 0.
    - maximize:  ">=" rows have dual <= 0, "<=" rows have dual >= 0.
    - "=" rows are free in both senses.
* Reduced costs are marginal values of the *active variable bound*:
  ``reduced_cost[j] = d(optimal objective) / d(bound column j sits at)``.
    - minimize: at lower bound => rc >= 0, at upper bound => rc <= 0.
    - maximize: the opposite.

Textbook formulations that attach the opposite sign to duals of a
maximization problem are related to this convention by a single global
negation; helpers in `dam` and `fleet` document the mapping where it
matters (e.g. locational prices).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

MIN = "min"
MAX = "max"

LE = "<="
EQ = "="
GE = ">="

INF = math.inf

# Solver tolerances, fixed for every LP and check in the package: FEAS_TOL
# scales the phase-1 infeasibility test and the final verification,
# DUALITY_TOL the strong-duality and complementarity checks.
# Market LPs with ties (offer price equal to a retail rate) are routinely
# degenerate, so termination relies on a Bland fallback rather than on luck
# with Dantzig pricing.
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


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """LP over columns 0..n-1 and rows 0..m-1, held as arrays: `objective`,
    `lower` and `upper` per column, the dense m x n `matrix`, and
    `relations` and `rhs` per row.  `variables` and `constraints` are the
    column and row labels; the solver never reads them.  Construction
    copies and checks the arrays (`with_arrays` copies and checks only the
    arrays it swaps and shares the rest, so LPs that differ only in their
    objective, upper bounds or rhs hold one matrix); nothing in the package
    writes to them afterwards, and callers must not either."""

    sense: str
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    matrix: np.ndarray
    relations: np.ndarray
    rhs: np.ndarray
    variables: tuple[str, ...]
    constraints: tuple[str, ...]
    name: str = "lp"

    def __post_init__(self):
        if self.sense not in (MIN, MAX):
            raise LpDefinitionError(f"sense must be {MIN!r} or {MAX!r}")
        variables, constraints = tuple(self.variables), tuple(self.constraints)
        for labels in (variables, constraints):
            if not all(labels) or len(set(labels)) != len(labels):
                raise LpDefinitionError(f"{self.name}: labels must be distinct and non-empty")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "constraints", constraints)
        for attr in ("objective", "lower", "upper", "relations", "rhs"):  # lower before upper
            object.__setattr__(self, attr, self._checked(attr, getattr(self, attr)))
        matrix = np.array(self.matrix, dtype=float)
        if matrix.shape != (len(constraints), len(variables)):
            raise LpDefinitionError(
                f"{self.name}: matrix has shape {matrix.shape}, not {(len(constraints), len(variables))}"
            )
        if not np.isfinite(matrix).all():
            i = int(np.argmin(np.isfinite(matrix).all(axis=1)))
            raise LpDefinitionError(f"{constraints[i]}: non-finite coefficient")
        object.__setattr__(self, "matrix", matrix)

    def _checked(self, attr, values) -> np.ndarray:
        """`values` as this LP's array `attr`, one per column or row, after
        checking it: LpDefinitionError naming the column or row for a wrong
        shape, a lower bound at +inf, an upper bound below its lower bound
        or at -inf, a relation other than LE, EQ and GE, or an objective or
        rhs that is not finite (NaN fails every check)."""
        array = np.array(values, dtype=str if attr == "relations" else float)
        labels = self.constraints if attr in ("relations", "rhs") else self.variables
        if array.shape != (len(labels),):
            raise LpDefinitionError(f"{self.name}: {attr} has shape {array.shape}, not {(len(labels),)}")
        if attr == "lower":
            valid = array < INF
        elif attr == "upper":
            valid = (self.lower <= array) & (array > -INF)
        elif attr == "relations":
            valid = (array == LE) | (array == EQ) | (array == GE)
        else:
            valid = np.isfinite(array)
        if not valid.all():
            j = int(np.argmin(valid))
            raise LpDefinitionError(f"{labels[j]}: {attr} {array[j]} invalid")
        return array

    def objective_value(self, values: np.ndarray) -> float:
        """Objective at `values`, summed in column order."""
        return float(sum((self.objective * values).tolist()))

    def with_arrays(self, *, objective=None, upper=None, rhs=None) -> LinearProgram:
        """This LP with any of its objective, upper bounds and rhs swapped,
        one value per column or row.  Every other array is shared, not
        copied, so only the swapped ones are checked: LpDefinitionError
        naming the column or row for a wrong shape, a bound below its
        lower bound or at -inf, or an objective or rhs that is not finite."""
        swapped = {
            attr: self._checked(attr, values)
            for attr, values in (("objective", objective), ("upper", upper), ("rhs", rhs))
            if values is not None
        }
        lp = object.__new__(LinearProgram)
        lp.__dict__.update(self.__dict__, **swapped)
        return lp


class LpBuilder:
    """Incremental construction helper for LinearProgram.  `add_variable`
    and `add_constraint` return the index of the column or row they place;
    a row's coefficients are keyed by column index."""

    def __init__(self, sense: str, name: str = "lp"):
        self.sense = sense
        self.name = name
        self._columns: list[tuple[str, float, float, float]] = []
        self._rows: list[tuple[str, Mapping[int, float], str, float]] = []

    def add_variable(self, label, lower=-INF, upper=INF, objective=0.0) -> int:
        self._columns.append((label, lower, upper, objective))
        return len(self._columns) - 1

    def add_constraint(self, label, coefficients: Mapping[int, float], relation, rhs) -> int:
        self._rows.append((label, coefficients, relation, rhs))
        return len(self._rows) - 1

    def build(self) -> LinearProgram:
        n, m = len(self._columns), len(self._rows)
        variables, lower, upper, objective = zip(*self._columns) if n else ((),) * 4
        constraints, coefficients, relations, rhs = zip(*self._rows) if m else ((),) * 4
        matrix = np.zeros((m, n))
        for i, (label, row) in enumerate(zip(constraints, coefficients)):
            for j, coef in row.items():
                if not (isinstance(j, (int, np.integer)) and 0 <= j < n):
                    raise LpDefinitionError(f"{label}: column {j!r} out of range")
                matrix[i, j] = coef
        return LinearProgram(
            self.sense, objective, lower, upper, matrix, relations, rhs,
            variables, constraints, self.name,
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


def _empty():
    return np.zeros(0)


@dataclass(eq=False)
class LpSolution:
    """Result of `solve`, as arrays in the LP's order: `primal`,
    `reduced_cost` and `variable_status` (BASIC, AT_LOWER, AT_UPPER or
    NONBASIC_FREE) per column, `dual` per row, and `basis`, the final
    basis's basic column per row (a structural j < n, or n + i for the
    slack of row i; an artificial n + m + i stays only on a redundant row);
    empty unless optimal.

    `dual` and `reduced_cost` follow the marginal-value convention in the
    module docstring.  `infeasibility_certificate` (row multipliers proving
    no feasible point exists) and `unbounded_ray` (an improving feasible
    direction over the columns) are diagnostic payloads kept for callers
    that want to turn a failure into an actionable message.  `iterations`
    counts every simplex pivot and bound flip; `phase1_iterations` is the
    part of it spent reaching feasibility, so phase 2 took the difference.
    """

    status: str
    objective: float = math.nan
    primal: np.ndarray = field(default_factory=_empty)
    dual: np.ndarray = field(default_factory=_empty)
    reduced_cost: np.ndarray = field(default_factory=_empty)
    variable_status: np.ndarray = field(default_factory=_empty)
    basis: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    iterations: int = 0
    phase1_iterations: int = 0
    infeasibility_certificate: np.ndarray | None = None
    unbounded_ray: np.ndarray | None = None

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
_BASIC = 3
# `variable_status` names, indexed by rest position or _BASIC
_STATUS_NAMES = np.array([AT_LOWER, AT_UPPER, NONBASIC_FREE, BASIC])


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
        m, n = lp.matrix.shape
        self.n = n
        self.m = m
        self.nreal = n + m
        self.ncols = self.nreal + m
        diagonal = self.ncols + 1  # flat stride from A[i, j] to A[i + 1, j + 1]

        self.A = np.zeros((m, self.ncols))
        self.A[:, :n] = lp.matrix
        self.A.flat[n : n + m * diagonal : diagonal] = 1.0
        self.b = lp.rhs.copy()
        self.set_costs(lp)
        self.max_iterations = 2000 + 200 * (n + m)
        # column bounds: structurals; slacks of "<=" rows [0, inf), of ">="
        # rows (-inf, 0], of "=" rows [0, 0]; artificials [0, inf)
        relations = lp.relations.tolist()
        lo = lp.lower.tolist() + [-INF if r == GE else 0.0 for r in relations] + [0.0] * m
        up = lp.upper.tolist() + [INF if r == LE else 0.0 for r in relations] + [INF] * m
        self.lo = np.array(lo)
        self.up = np.array(up)
        self.iterations = 0
        self.pivots_since_refactor = 0
        self._crash_start()

    def set_costs(self, lp: LinearProgram) -> None:
        """Take `lp`'s sense and objective as the phase-2 costs; nothing
        before phase 2 reads them."""
        self.sign = -1.0 if lp.sense == MAX else 1.0
        self.c = np.zeros(self.ncols)
        self.c[: self.n] = self.sign * lp.objective

    def copy(self) -> _Tableau:
        """A copy that owns every array a pivot or a refactorization writes
        and shares the rest (A, b and the bounds, fixed once phase 1 has
        pinned the artificials)."""
        tab = copy.copy(self)
        for attr in ("x", "pos", "basis", "in_basis", "binv"):
            setattr(tab, attr, getattr(self, attr).copy())
        return tab

    def _crash_start(self) -> None:
        ncols, m = self.nreal, self.m
        lo, up = self.lo.tolist(), self.up.tolist()
        # nonbasic rest position for every real column: its finite lower
        # bound, else its finite upper bound, else 0 (free); artificials
        # start at their lower bound
        pos = [
            _POS_LOWER if lower > -INF else _POS_UPPER if upper < INF else _POS_FREE
            for lower, upper in zip(lo[:ncols], up[:ncols])
        ]
        self.x = np.array([(lo[j], up[j], 0.0)[p] for j, p in enumerate(pos)] + [0.0] * m)
        self.pos = np.array(pos + [_POS_LOWER] * m, dtype=np.int8)

        # the nonzeros of each real column as (row, coefficient), rows ascending
        columns: list[list[tuple[int, float]]] = [[] for _ in range(ncols)]
        nz_cols, nz_rows = np.nonzero(self.A[:, :ncols].T)
        for j, i, coef in zip(nz_cols.tolist(), nz_rows.tolist(), self.A[nz_rows, nz_cols].tolist()):
            columns[j].append((i, coef))

        resid = self.b - self.A[:, :ncols] @ self.x[:ncols]
        crashed = _crash(columns, self.lo, self.up, self.x, resid)
        basis = np.arange(ncols, self.ncols)
        for i, j in crashed.items():
            basis[i] = j
        diagonal = self.ncols + 1  # artificial i's coefficient is its row's residual sign
        self.A.flat[ncols : ncols + m * diagonal : diagonal] = np.where(resid >= 0.0, 1.0, -1.0)
        self.basis = basis
        self.in_basis = np.zeros(self.ncols, dtype=bool)
        self.in_basis[basis] = True
        self.x[ncols:] = np.abs(resid)
        self.binv = np.linalg.inv(self.A[:, basis])

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

    def run(self, costs, *, max_iterations, allow_unbounded):
        """Minimize costs over the current basis; returns a status string."""
        cost_scale = float(np.max(np.abs(costs))) if costs.size else 0.0
        dtol = OPT_TOL * (1.0 + cost_scale)
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

            if abs(w[leave_pos]) < _PIVOT_TOL:
                if not self.refactor():
                    return NUMERICAL
                continue
            self.exchange(leave_pos, q, w)

    def exchange(self, pos, q, w) -> None:
        """Make column q basic at position `pos` in place of the column there,
        given w = binv @ A[:, q], by the product-form inverse update."""
        leave = self.basis[pos]
        self.basis[pos] = q
        self.in_basis[q] = True
        self.in_basis[leave] = False
        row = self.binv[pos].copy() / w[pos]
        self.binv -= np.outer(w, row)
        self.binv[pos] = row
        self.pivots_since_refactor += 1

    def _entering(self, d, dtol, bland):
        if not self.ncols:
            return None
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


def _extract_solution(lp: LinearProgram, tab: _Tableau, phase1_iterations, inherited=0):
    """Final verification and packaging; returns None if the claimed optimum
    does not survive an exact refactorization.  The solution counts the
    iterations past the `inherited` ones (see `_phase2`)."""
    if not tab.refactor():
        return None
    y_int = tab.duals(tab.c)
    d_int = tab.reduced_costs(tab.c, y_int)

    # primal residuals over the equality (slack-augmented) system
    resid = tab.A[:, : tab.nreal] @ tab.x[: tab.nreal] - tab.b
    art = tab.x[tab.nreal :]
    scale_b = 1.0 + float(np.max(np.abs(tab.b))) if tab.m else 1.0
    if tab.m and (
        float(np.max(np.abs(resid))) > FEAS_TOL * scale_b * 10.0
        or float(np.max(np.abs(art))) > FEAS_TOL * scale_b * 10.0
    ):
        return None
    lo_viol = np.maximum(tab.lo[: tab.nreal] - tab.x[: tab.nreal], 0.0)
    up_viol = np.maximum(tab.x[: tab.nreal] - tab.up[: tab.nreal], 0.0)
    bound_scale = 1.0 + float(np.max(np.abs(tab.x[: tab.nreal]))) if tab.nreal else 1.0
    if tab.nreal and float(max(lo_viol.max(), up_viol.max())) > FEAS_TOL * bound_scale * 10.0:
        return None

    # dual feasibility of the final basis: no column may enter
    dtol = OPT_TOL * (1.0 + float(np.max(np.abs(tab.c), initial=0.0))) * 100.0
    if tab._entering(d_int, dtol, bland=False) is not None:
        return None

    n = tab.n
    primal = tab.x[:n].copy()
    status = _STATUS_NAMES[np.where(tab.in_basis[:n], _BASIC, tab.pos[:n])]
    return LpSolution(
        status=OPTIMAL,
        objective=lp.objective_value(primal),
        primal=primal,
        dual=tab.sign * y_int,
        reduced_cost=tab.sign * d_int[:n],
        variable_status=status,
        basis=tab.basis.copy(),
        iterations=tab.iterations - inherited,
        phase1_iterations=phase1_iterations,
    )


class Phase1State:
    """What phase 1 and the artificial pivot-out leave of one LP's tableau,
    kept for solves of that LP under other objectives (`solve(lp,
    phase1=state)`).  Neither step reads the objective (the two-phase
    method; Bertsimas & Tsitsiklis, Introduction to Linear Optimization,
    section 3.5), so phase 2 from a copy of this state takes the pivots,
    and returns the bits, of a cold solve.

    Made empty.  The first solve given it runs cold, from the crash basis,
    and fills it when its phase 1 ends feasible; from then on it belongs to
    that LP's matrix, rhs, relations and bounds, and `solve` raises
    ValueError if it is given with any other."""

    def __init__(self):
        self._tab: _Tableau | None = None
        self._arrays: tuple[np.ndarray, ...] = ()

    @property
    def empty(self) -> bool:
        return self._tab is None

    @staticmethod
    def _arrays_of(lp: LinearProgram) -> tuple[np.ndarray, ...]:
        return lp.matrix, lp.rhs, lp.relations, lp.lower, lp.upper

    def _keep(self, lp: LinearProgram, tab: _Tableau) -> None:
        self._tab = tab.copy()
        self._arrays = self._arrays_of(lp)

    def _restore(self, lp: LinearProgram) -> _Tableau | None:
        """A copy of the kept tableau, costed by `lp`; None while empty.
        Arrays that are the kept ones themselves (`LinearProgram.with_arrays`
        shares them) are accepted as they are; others are compared bit for
        bit, so a -0.0 bound is another LP."""
        if self._tab is None:
            return None
        pairs = zip(self._arrays, self._arrays_of(lp))
        if any(
            a is not b and (a.shape != b.shape or a.tobytes() != b.tobytes()) for a, b in pairs
        ):
            raise ValueError(f"{lp.name}: phase-1 state belongs to an LP with other rows or bounds")
        tab = self._tab.copy()
        tab.set_costs(lp)
        return tab


def solve(lp: LinearProgram, *, phase1: Phase1State | None = None) -> LpSolution:
    """Solve an LP to proven optimality, or report infeasible/unbounded.

    FEAS_TOL scales the phase-1 infeasibility test and the final
    verification; reduced costs are tested against OPT_TOL.  After
    2000 + 200 * (columns + rows) simplex iterations over both phases the
    solve stops with status "iteration_limit".  The returned primal/dual
    pair satisfies strong duality within DUALITY_TOL whenever status is
    "optimal"; a failed internal verification is reported as
    "numerical_failure", never as a wrong optimum.  Every solve starts from
    the crash basis (see `_Tableau`), so one LP solved twice gives the same
    status, basis, primal and duals bit for bit.

    `phase1`, a `Phase1State`, shares phase 1 among solves of one LP that
    differ only in their objective (and sense).  An empty state makes the
    solve cold, and it keeps the tableau phase 1 and the artificial
    pivot-out leave when phase 1 ends feasible.  A filled one starts phase
    2 from a copy of that tableau, its iteration count and refactorization
    cadence included, so the result equals a cold solve's bit for bit,
    status, basis and phase-2 pivots too; only `iterations` differs: it
    counts the solve's own pivots, and `phase1_iterations` is 0.
    """
    if phase1 is not None:
        tab = phase1._restore(lp)
        if tab is not None:
            return _phase2(lp, tab, inherited=tab.iterations)
    tab = _Tableau(lp)
    stopped = _phase1(tab)
    if stopped is not None:
        return stopped
    if phase1 is not None:
        phase1._keep(lp, tab)
    return _phase2(lp, tab, inherited=0)


def _phase1(tab: _Tableau) -> LpSolution | None:
    """Minimize the artificial mass from the crash basis, then pin the
    artificials at zero and pivot the basic ones out where possible.  Reads
    no cost of the LP.  Returns the solution when the solve ends here."""
    m, real = tab.m, tab.nreal
    phase1_costs = np.zeros(tab.ncols)
    phase1_costs[real:] = 1.0
    status = tab.run(phase1_costs, max_iterations=tab.max_iterations, allow_unbounded=False)
    pivots = tab.iterations
    if status in (ITERATION_LIMIT, NUMERICAL):
        return LpSolution(status=status, iterations=pivots, phase1_iterations=pivots)

    scale_b = 1.0 + float(np.max(np.abs(tab.b))) if m else 1.0
    infeas_mass = float(np.sum(tab.x[real:]))
    if infeas_mass > FEAS_TOL * scale_b * 10.0:
        return LpSolution(
            status=INFEASIBLE,
            iterations=pivots,
            phase1_iterations=pivots,
            infeasibility_certificate=tab.duals(phase1_costs),
        )

    tab.lo[real:] = tab.up[real:] = tab.x[real:] = 0.0
    # an exchange at one position moves no other, so the artificials' basic
    # positions are found once
    for pos in np.flatnonzero(tab.basis >= real).tolist():
        row = tab.binv[pos] @ tab.A[:, :real]
        candidates = np.flatnonzero(~tab.in_basis[:real] & (np.abs(row) > 1e-7))
        if not candidates.size:
            continue  # redundant row; artificial stays basic at level 0
        q = int(candidates[0])
        tab.exchange(pos, q, tab.binv @ tab.A[:, q])
    return None


def _phase2(lp: LinearProgram, tab: _Tableau, inherited: int) -> LpSolution:
    """Phase 2 on `tab`'s costs and verification.  `inherited` of
    `tab.iterations` were spent by an earlier solve whose phase-1 state this
    one starts from; the solution counts only the rest."""
    phase1 = tab.iterations - inherited

    def stopped(status, **payload):
        return LpSolution(
            status=status,
            iterations=tab.iterations - inherited,
            phase1_iterations=phase1,
            **payload,
        )

    status = tab.run(tab.c, max_iterations=tab.max_iterations, allow_unbounded=True)
    if status in (ITERATION_LIMIT, NUMERICAL):
        return stopped(status)
    if status == UNBOUNDED:
        q, sigma, w = tab._ray
        ray = np.zeros(tab.n)
        if q < tab.n:
            ray[q] = sigma
        moves = (tab.basis < tab.n) & (np.abs(w) > 1e-12)
        ray[tab.basis[moves]] = -sigma * w[moves]
        return stopped(UNBOUNDED, unbounded_ray=ray)

    solution = _extract_solution(lp, tab, phase1, inherited)
    return solution if solution is not None else stopped(NUMERICAL)


def require_optimal(lp: LinearProgram, **kwargs) -> LpSolution:
    """solve() and raise LpSolveError unless an optimum was certified."""
    sol = solve(lp, **kwargs)
    if not sol.is_optimal:
        raise LpSolveError(f"{lp.name}: solver returned status {sol.status}", sol)
    return sol


@dataclass(frozen=True, eq=False)
class BasisRegion:
    """An optimal basis of an LP whose costs change only on `columns`, held
    so that a new cost vector is priced by one small product
    (`point_at`); see `basis_region`.

    `key` names the basis (`basis_key`).  `point` is its primal point,
    which no cost moves.  `margin` holds the reduced costs of its non-fixed
    nonbasic columns at zero cost on `columns`, each oriented so that
    positive is the optimal side; `slope[r]` is how they move per unit cost
    on `columns[r]`.  `scale` is the largest |cost| outside `columns`."""

    key: tuple
    point: np.ndarray
    margin: np.ndarray
    slope: np.ndarray
    scale: float

    def point_at(self, costs) -> np.ndarray | None:
        """`point` when, with `costs` on `columns`, every non-fixed
        nonbasic column's reduced cost is strictly on its optimal side (by
        more than the solver's own optimality tolerance), so that `point` is
        the LP's unique optimum; None otherwise."""
        costs = np.asarray(costs, dtype=float)
        margin = self.margin + costs @ self.slope
        scale = max(self.scale, float(np.abs(costs).max(initial=0.0)))
        return self.point if margin.min(initial=INF) > OPT_TOL * (1.0 + scale) else None


def basis_key(sol: LpSolution) -> tuple:
    """The final basis of an optimal `sol`: its basic columns, sorted, and
    the structural columns resting at their upper bound."""
    at_upper = np.flatnonzero(sol.variable_status == AT_UPPER)
    return tuple(sorted(sol.basis.tolist())), tuple(at_upper.tolist())


def basis_region(lp: LinearProgram, sol: LpSolution, columns) -> BasisRegion | None:
    """The final basis of `sol`, an optimal solution of `lp`, made ready to
    be re-priced for new costs on `columns` (Gal, Postoptimal Analyses,
    1995): B^-1 A is applied once to the non-fixed nonbasic columns, so a
    reduced cost is an affine function of those costs.  The basis stays
    primal feasible whatever the costs, since they move no row or bound.
    None when the basis keeps an artificial or a free nonbasic column (it
    can never be a unique optimum) or cannot be inverted."""
    m, n = lp.matrix.shape
    columns = np.asarray(columns, dtype=int)
    basis, status = sol.basis, sol.variable_status
    if not sol.is_optimal or np.any(basis >= n + m) or np.any(status == NONBASIC_FREE):
        return None
    # slacks of "<=" rows rest at 0 from above their lower bound, of ">="
    # rows at 0 from below their upper bound, of "=" rows are fixed
    fixed = np.concatenate([lp.lower == lp.upper, lp.relations == EQ])
    at_upper = np.concatenate([status == AT_UPPER, lp.relations == GE])
    nonbasic = np.ones(n + m, dtype=bool)
    nonbasic[basis] = False
    free_nonbasic = np.flatnonzero(nonbasic & ~fixed)
    A = np.hstack([lp.matrix, np.eye(m)])
    try:
        W = np.linalg.solve(A[:, basis], A[:, free_nonbasic])
    except np.linalg.LinAlgError:
        return None
    sign = -1.0 if lp.sense == MAX else 1.0
    costs = np.zeros(n + m)
    costs[:n] = sign * lp.objective
    costs[columns] = 0.0
    orient = np.where(at_upper[free_nonbasic], -1.0, 1.0)
    # d = c_N - c_B B^-1 A_N, in the solver's minimizing costs: a unit cost
    # on a nonbasic column adds to its own reduced cost, one on a basic
    # column takes off its row of B^-1 A_N
    slope = (columns[:, None] == free_nonbasic[None, :]).astype(float)
    row = np.full(n + m, -1)
    row[basis] = np.arange(m)
    basic = row[columns] >= 0
    slope[basic] -= W[row[columns][basic]]
    return BasisRegion(
        key=basis_key(sol),
        point=sol.primal,
        margin=orient * (costs[free_nonbasic] - costs[basis] @ W),
        slope=slope * (sign * orient),
        scale=float(np.max(np.abs(costs), initial=0.0)),
    )


# ---------------------------------------------------------------------------
# dualization
# ---------------------------------------------------------------------------


def dualize(lp: LinearProgram) -> LinearProgram:
    """Exact LP dual under the marginal-value sign convention.

    Columns: one dual variable per row (labelled dual[row], in row order),
    then one per finite variable bound (rc_lo[var] before rc_up[var], in
    column order).  Rows: one stationarity equality per primal variable
    (labelled col[var]): sum_i a_ij dual_i + rc_lo_j + rc_up_j = c_j.  The
    dual objective is rhs . dual + lower . rc_lo + upper . rc_up with the
    opposite optimization sense; optimal values coincide for feasible bounded
    problems, and dualize(dualize(lp)) has the same optimal value as lp.
    """
    minimizing = lp.sense == MIN
    m, n = lp.matrix.shape
    free = lp.relations == EQ
    nonneg = (lp.relations == GE) == minimizing
    # one bound column per finite bound, lower before upper: (column, side)
    finite = np.stack([np.isfinite(lp.lower), np.isfinite(lp.upper)], axis=1)
    var_of, side = np.nonzero(finite)
    # rc_lo >= 0 and rc_up <= 0 when minimizing, the opposite when maximizing
    nonpos = (side == 1) == minimizing

    matrix = np.zeros((n, m + var_of.size))
    matrix[:, :m] = lp.matrix.T + 0.0  # + 0.0 turns a -0.0 coefficient into 0.0
    matrix[var_of, m + np.arange(var_of.size)] = 1.0
    rc = ("rc_lo", "rc_up")
    return LinearProgram(
        MAX if minimizing else MIN,
        objective=np.concatenate([lp.rhs, np.stack([lp.lower, lp.upper], axis=1)[finite]]),
        lower=np.concatenate([np.where(free | ~nonneg, -INF, 0.0), np.where(nonpos, -INF, 0.0)]),
        upper=np.concatenate([np.where(free | nonneg, INF, 0.0), np.where(nonpos, 0.0, INF)]),
        matrix=matrix,
        relations=np.full(n, EQ),
        rhs=lp.objective,
        variables=tuple(f"dual[{label}]" for label in lp.constraints)
        + tuple(f"{rc[k]}[{lp.variables[j]}]" for j, k in zip(var_of.tolist(), side.tolist())),
        constraints=tuple(f"col[{label}]" for label in lp.variables),
        name=f"dual({lp.name})",
    )


def dual_objective_value(lp: LinearProgram, sol: LpSolution) -> float:
    """Dual objective implied by a solution's own duals and reduced costs,
    summed over the rows, then over the columns at a bound."""
    at_lower = sol.variable_status == AT_LOWER
    at_bound = at_lower | (sol.variable_status == AT_UPPER)
    bound = np.where(at_lower, lp.lower, lp.upper)[at_bound]
    terms = (lp.rhs * sol.dual).tolist() + (sol.reduced_cost[at_bound] * bound).tolist()
    return float(sum(terms))


def lagrangian_bound(lp: LinearProgram, y) -> float:
    """Weak-duality bound on the optimum of `lp` from any row multipliers
    `y` (an array or a list), one per row.

    Returns rhs . y + sum_j best(d_j * x_j over [lower_j, upper_j]) with
    reduced costs d = c - A'y, where "best" is the minimum when minimizing
    and the maximum when maximizing.  Inequality multipliers are first
    clipped to their feasible sign under the marginal-value convention.  The
    result is a lower bound on the minimum (an upper bound on the maximum)
    whatever `y` is, and equals the optimum at an optimal dual vector; it is
    -inf (+inf when maximizing) when a nonzero reduced cost meets an
    infinite bound, and NaN when a multiplier is not finite.  A'y is taken
    row by row and both sums run in row, then column order, so the result
    does not depend on how the matrix product would be blocked.
    """
    minimizing = lp.sense == MIN
    # multipliers of ">=" rows are >= 0 when minimizing, of "<=" rows when
    # maximizing; the other inequality takes multipliers <= 0
    nonneg, nonpos = (GE, LE) if minimizing else (LE, GE)
    reduced = lp.objective.copy()
    terms = []
    rows = zip(y.tolist() if isinstance(y, np.ndarray) else y, lp.relations.tolist(), lp.rhs.tolist())
    for i, (yi, relation, rhs) in enumerate(rows):
        if not math.isfinite(yi):
            return math.nan
        if relation == nonneg:
            yi = max(yi, 0.0)
        elif relation == nonpos:
            yi = min(yi, 0.0)
        if yi == 0.0:
            continue
        terms.append(rhs * yi)
        reduced -= lp.matrix[i] * yi
    for d, lower, upper in zip(reduced.tolist(), lp.lower.tolist(), lp.upper.tolist()):
        if d == 0.0:
            continue
        at = lower if (d > 0.0) == minimizing else upper
        if not math.isfinite(at):
            return -INF if minimizing else INF
        terms.append(d * at)
    return float(sum(terms))


def max_violation(lp: LinearProgram, values: np.ndarray) -> float:
    """Largest scaled violation of `lp`'s bounds and rows at `values` (one
    per column); 0.0 when every one holds.

    A bound violation is divided by 1 + max(|lower|, |upper|) when both
    bounds are finite and by 1 otherwise; a row violation by 1 + |rhs|.
    "<=" and ">=" rows count only their violated side.  A value that is not
    finite gives inf, so NaN cannot slip through a comparison."""
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        return INF
    worst = 0.0
    for value, lower, upper in zip(x.tolist(), lp.lower.tolist(), lp.upper.tolist()):
        gap = max(lower - value, value - upper)
        if gap > 0.0:
            finite = math.isfinite(lower) and math.isfinite(upper)
            worst = max(worst, gap / (1.0 + max(abs(lower), abs(upper)) if finite else 1.0))
    excess = (lp.matrix @ x - lp.rhs).tolist()
    for e, relation, rhs in zip(excess, lp.relations.tolist(), lp.rhs.tolist()):
        if relation == EQ:
            e = abs(e)
        elif relation == GE:
            e = -e
        worst = max(worst, e / (1.0 + abs(rhs)))
    return float(worst)


def _duality_report(lp, x, objective, dual_objective, row_prices, bound_prices, at_bound):
    """Objective gap plus complementary slackness at the primal point `x`:
    each inequality row's price times its slack, and each bound price times
    the distance of x_j from that bound.  `bound_prices` and `at_bound` are
    n x 2 (lower, upper); only bounds where `at_bound` is set count."""
    gap = abs(objective - dual_objective)
    denom = max(1.0, abs(objective), abs(dual_objective))
    ineq = np.flatnonzero(lp.relations != EQ)
    slack = lp.rhs[ineq] - lp.matrix[ineq] @ x
    distance = np.stack([x - lp.lower, lp.upper - x], axis=1)
    products = np.concatenate(
        [np.abs(row_prices[ineq] * slack), np.abs(bound_prices[at_bound] * distance[at_bound])]
    )
    labels = [lp.constraints[i] for i in ineq.tolist()] + [
        f"{lp.variables[j]}.{('lower', 'upper')[k]}" for j, k in zip(*np.nonzero(at_bound))
    ]
    worst = np.argsort(-products, kind="stable")[:5].tolist()
    scale = max(1.0, float(np.max(np.abs(x), initial=0.0)))
    return DualityReport(
        objective_gap=gap,
        relative_gap=gap / denom,
        max_complementarity=float(np.max(products, initial=0.0)) / scale,
        worst_items=tuple((labels[k], float(products[k])) for k in worst),
        tolerance=DUALITY_TOL,
    )


def check_strong_duality(
    primal: LinearProgram, psol: LpSolution, dsol: LpSolution
) -> DualityReport:
    """Compare an optimal primal solution against an optimal solution of
    dualize(primal): objective gap plus complementary slackness.

    Duals of degenerate optima are basis dependent, so this checks gaps and
    products only, never specific dual values.
    """
    if not psol.is_optimal or not dsol.is_optimal:
        raise LpSolveError("check_strong_duality needs two optimal solutions")
    m = len(primal.constraints)
    finite = np.stack([np.isfinite(primal.lower), np.isfinite(primal.upper)], axis=1)
    bound_prices = np.zeros(finite.shape)
    bound_prices[finite] = dsol.primal[m:]  # the bound columns of `dualize`, in order
    return _duality_report(
        primal, psol.primal, psol.objective, dsol.objective,
        dsol.primal[:m], bound_prices, finite,
    )


def check_solution_pair(lp: LinearProgram, sol: LpSolution) -> DualityReport:
    """Self-check of one solve(): its primal against its own duals."""
    if not sol.is_optimal:
        raise LpSolveError("check_solution_pair needs an optimal solution")
    status = sol.variable_status
    return _duality_report(
        lp, sol.primal, sol.objective, dual_objective_value(lp, sol), sol.dual,
        np.stack([sol.reduced_cost, sol.reduced_cost], axis=1),
        np.stack([status == AT_LOWER, status == AT_UPPER], axis=1),
    )


# ---------------------------------------------------------------------------
# debug export
# ---------------------------------------------------------------------------


def write_lp_text(lp: LinearProgram) -> str:
    """Render an LP in the package's fixed debugging layout.

    Layout (documented for byte-exact comparisons): one header line with the
    sense and name; `obj:` line listing every nonzero objective term in
    column order as `coef*label`; `subject to` block with one line per row
    `label: term [+ term ...] rel rhs`, its nonzero terms in column order;
    `bounds` block with one line per column `lower <= label <= upper` using
    `-inf`/`inf`; final `end` line.  Numbers use repr(float).
    """

    def terms(coefficients):
        return " + ".join(
            f"{coef!r}*{label}" for label, coef in zip(lp.variables, coefficients) if coef != 0.0
        ) or "0"

    out = [f"{lp.sense} {lp.name}", "obj: " + terms(lp.objective.tolist()), "subject to"]
    for label, row, relation, rhs in zip(
        lp.constraints, lp.matrix.tolist(), lp.relations.tolist(), lp.rhs.tolist()
    ):
        out.append(f"  {label}: {terms(row)} {relation} {rhs!r}")
    out.append("bounds")
    for label, lower, upper in zip(lp.variables, lp.lower.tolist(), lp.upper.tolist()):
        lo = "-inf" if lower == -INF else repr(lower)
        up = "inf" if upper == INF else repr(upper)
        out.append(f"  {lo} <= {label} <= {up}")
    out.append("end")
    return "\n".join(out) + "\n"
