"""Strategic offer-price optimization for EV charging stations that buy in a
day-ahead electricity market and resell against a regulated retail rate.

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where they are unset, before numpy loads, so that the
solver's linear algebra runs on one BLAS thread and its outputs do not
depend on the thread count.  A caller that set a count, or imported numpy
first, keeps its own.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .model import (
    Bus,
    ChargingStation,
    CostSegment,
    Demand,
    EVFleet,
    Generator,
    Line,
    Network,
    Scenario,
    SolarUnit,
    SolverSettings,
    WtpSegment,
    load_scenario,
    save_scenario,
    scale_penetration,
    scale_solar,
    validate,
)
from .lpcore import LinearProgram, LpBuilder, LpSolution, check_strong_duality, dualize, solve
from .dam import DamInput, DamOutcome, build_dam, build_dam_paper_dual, solve_dam
from .fleet import FleetInput, FleetSchedule, build_fleet, build_fleet_paper_dual, solve_fleet
from .bilevel import (
    Certificate,
    EquilibriumOutcome,
    Strategy,
    brute_force,
    certify,
    evaluate,
    optimize,
)
from .scenarios import (
    BaselineResult,
    MetricsRow,
    desk_scenario,
    metrics_row,
    run_baseline,
    sweep_penetration,
    sweep_pv,
)

__version__ = "0.1.0"

__all__ = [
    "Bus",
    "ChargingStation",
    "CostSegment",
    "Demand",
    "EVFleet",
    "Generator",
    "Line",
    "Network",
    "Scenario",
    "SolarUnit",
    "SolverSettings",
    "WtpSegment",
    "load_scenario",
    "save_scenario",
    "scale_penetration",
    "scale_solar",
    "validate",
    "LinearProgram",
    "LpBuilder",
    "LpSolution",
    "check_strong_duality",
    "dualize",
    "solve",
    "DamInput",
    "DamOutcome",
    "build_dam",
    "build_dam_paper_dual",
    "solve_dam",
    "FleetInput",
    "FleetSchedule",
    "build_fleet",
    "build_fleet_paper_dual",
    "solve_fleet",
    "Certificate",
    "EquilibriumOutcome",
    "Strategy",
    "brute_force",
    "certify",
    "evaluate",
    "optimize",
    "BaselineResult",
    "MetricsRow",
    "desk_scenario",
    "metrics_row",
    "run_baseline",
    "sweep_penetration",
    "sweep_pv",
    "__version__",
]
