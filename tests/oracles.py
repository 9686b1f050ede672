"""Independent reference computations used as test oracles.

Nothing here goes through the package's simplex path: both oracles read
an LP's arrays (objective, bounds, matrix, relations, rhs) and nothing
else.  Vertex enumeration solves small LPs by brute-force active-set
enumeration, and the scipy reference uses HiGHS.  Keeping these separate
from the code under test is the point; do not "simplify" them to call the
package solver.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

from evcsmarket import lpcore


def vertex_enumerate(lp: lpcore.LinearProgram, tol: float = 1e-9):
    """Optimal value and point (an array over the columns) of a small LP by
    enumerating basic solutions.

    Every combination of n active constraints (equality rows forced, the
    rest drawn from inequality rows and finite bounds) yields a candidate
    vertex; feasible candidates are ranked by objective.  Exponential: keep
    n below ~10.
    """
    n = len(lp.variables)
    c = lp.objective

    rows = []  # (normal, rhs, kind) with kind in {"eq", "le", "ge"}
    for normal, rhs, relation in zip(lp.matrix, lp.rhs, lp.relations):
        kind = {"=": "eq", "<=": "le", ">=": "ge"}[relation]
        rows.append((normal, rhs, kind))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if math.isfinite(lp.lower[j]):
            rows.append((e, lp.lower[j], "ge"))
        if math.isfinite(lp.upper[j]):
            rows.append((e, lp.upper[j], "le"))

    forced = [i for i, r in enumerate(rows) if r[2] == "eq"]
    optional = [i for i, r in enumerate(rows) if r[2] != "eq"]
    need = n - len(forced)
    if need < 0:
        raise ValueError("more equalities than variables")

    best_val = None
    best_x = None
    sense = 1.0 if lp.sense == lpcore.MIN else -1.0
    for combo in itertools.combinations(optional, need):
        active = forced + list(combo)
        A = np.array([rows[i][0] for i in active])
        b = np.array([rows[i][1] for i in active])
        if np.linalg.matrix_rank(A, tol=1e-9) < n:
            continue
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        feasible = True
        for normal, rhs, kind in rows:
            act = normal @ x
            if kind == "eq" and abs(act - rhs) > tol * (1 + abs(rhs)):
                feasible = False
            elif kind == "le" and act > rhs + tol * (1 + abs(rhs)):
                feasible = False
            elif kind == "ge" and act < rhs - tol * (1 + abs(rhs)):
                feasible = False
            if not feasible:
                break
        if not feasible:
            continue
        val = float(c @ x)
        if best_val is None or sense * val < sense * best_val - 1e-12:
            best_val = val
            best_x = x
    if best_val is None:
        raise ValueError("no feasible vertex found")
    return best_val, best_x


def scipy_reference(lp: lpcore.LinearProgram):
    """(status, objective) via HiGHS; status in {optimal, infeasible,
    unbounded, other}."""
    sign = 1.0 if lp.sense == lpcore.MIN else -1.0
    c = sign * lp.objective
    eq = lp.relations == lpcore.EQ
    ge = lp.relations == lpcore.GE
    A_ub = np.where(ge[:, None], -lp.matrix, lp.matrix)[~eq]
    b_ub = np.where(ge, -lp.rhs, lp.rhs)[~eq]
    A_eq, b_eq = lp.matrix[eq], lp.rhs[eq]
    bounds = [
        (None if lo == -math.inf else lo, None if up == math.inf else up)
        for lo, up in zip(lp.lower.tolist(), lp.upper.tolist())
    ]
    res = linprog(
        c,
        A_ub=A_ub if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=A_eq if b_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "other")
    return status, (sign * res.fun if res.status == 0 else math.nan)


def random_feasible_bounded_lp(rng, max_vars: int = 12, max_cons: int = 12):
    """Random LP that is feasible (built around an interior point) and
    bounded (every variable has finite bounds)."""
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_cons + 1))
    sense = lpcore.MIN if rng.random() < 0.5 else lpcore.MAX
    builder = lpcore.LpBuilder(sense, name="random")
    lo = rng.uniform(-5.0, 5.0, n)
    width = rng.uniform(0.0, 10.0, n)
    up = lo + width
    x0 = lo + rng.uniform(0.0, 1.0, n) * width
    for j in range(n):
        if rng.random() < 0.05:
            up[j] = lo[j]
            x0[j] = lo[j]
        builder.add_variable(f"x{j}", float(lo[j]), float(up[j]), float(rng.uniform(-10, 10)))
    A = rng.uniform(-3.0, 3.0, (m, n)) * (rng.random((m, n)) < 0.7)
    for i in range(m):
        coeffs = {j: float(A[i, j]) for j in range(n) if A[i, j] != 0.0}
        act = float(A[i] @ x0)
        r = rng.random()
        if r < 0.25:
            builder.add_constraint(f"c{i}", coeffs, lpcore.EQ, act)
        elif r < 0.65:
            builder.add_constraint(f"c{i}", coeffs, lpcore.LE, act + float(rng.uniform(0, 4)))
        else:
            builder.add_constraint(f"c{i}", coeffs, lpcore.GE, act - float(rng.uniform(0, 4)))
    return builder.build()
