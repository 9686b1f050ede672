import dataclasses
import importlib.util
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import settings

# every property runs derandomized (the same examples on every run) and
# without a per-example deadline; each test sets its own max_examples
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")

sys.path.insert(0, str(Path(__file__).parent))

from evcsmarket import bilevel as bl
from evcsmarket import fleet as fl
from evcsmarket import lpcore
from evcsmarket import model as md
from evcsmarket import scenarios as sc


def two_period_fleet(tau_bounds=(0.0, 60.0), tou=20.0, driving=(0.0, 10.0), e_init=0.0):
    """T=2 single-fleet single-station toy; at the default arguments the
    cheapest plan charges 10 MWh and the three pure strategies price at
    station-hour-0, home, station-hour-1."""
    fleet = md.EVFleet(
        id="f1",
        bus="b1",
        max_charge=10.0,
        home_cap=10.0,
        home_connectivity=(1.0, 1.0),
        station_caps={"c1": 10.0},
        station_connectivity={"c1": (1.0, 1.0)},
        energy_min=0.0,
        energy_max=20.0,
        initial_energy=e_init,
        charge_efficiency=1.0,
        discharge_efficiency=1.0,
        driving=driving,
        tou=(tou, tou),
    )
    station = md.ChargingStation(
        "c1",
        "f1",
        (tau_bounds[0],) * 2,
        (tau_bounds[1],) * 2,
        (md.WtpSegment(10.0, (0.0, 0.0), (50.0, 50.0)),),
    )
    return fleet, station


def one_bus_scenario(
    tou=30.0,
    offer_lo=10.0,
    offer_hi=40.0,
    gen_cost=10.0,
    demand=50.0,
    budget=120,
    seed=0,
):
    """One bus, one generator, the two-period toy fleet: the market side
    prices every hour at gen_cost, so profit is transparent."""
    net = md.Network(
        buses=(md.Bus("b1", -1.0, 1.0, True),),
        lines=(),
        generators=(
            md.Generator("g1", "b1", 0.0, 200.0, (md.CostSegment(0.0, 200.0, gen_cost),)),
        ),
        solar_units=(),
        demands=(md.Demand("d1", "b1", (demand, demand)),),
        horizon=2,
    )
    fleet, station = two_period_fleet(tau_bounds=(offer_lo, offer_hi), tou=tou)
    settings = md.SolverSettings(budget=budget, multistarts=4, seed=seed)
    return md.Scenario("one_bus_toy", net, (fleet,), (station,), settings)


def with_settings(scenario, **changes):
    """`scenario` with the given `SolverSettings` fields changed."""
    return dataclasses.replace(scenario, settings=dataclasses.replace(scenario.settings, **changes))


def assert_shared_phase1_matches_cold(lps) -> int:
    """Solve `lps`, one LP under several objectives, in turn through one
    `lpcore.Phase1State`, and each cold.  Every shared-state result equals
    the cold one bit for bit (status, objective, primal, dual, reduced
    costs, variable statuses and basis; a solve that is not optimal carries
    nothing more) and takes the same phase-2 pivots; once the state is
    filled, no solve reports phase-1 pivots.  Returns the phase-1 pivots
    the state saved."""
    state = lpcore.Phase1State()
    saved = 0
    for k, lp in enumerate(lps):
        filled = not state.empty
        cold = lpcore.solve(lp)
        shared = lpcore.solve(lp, phase1=state)
        assert shared.status == cold.status, k
        assert repr(shared.objective) == repr(cold.objective), k
        for attr in ("primal", "dual", "reduced_cost", "variable_status", "basis"):
            assert getattr(shared, attr).tobytes() == getattr(cold, attr).tobytes(), (k, attr)
        phase2 = cold.iterations - cold.phase1_iterations
        assert shared.iterations - shared.phase1_iterations == phase2, k
        assert shared.phase1_iterations == (0 if filled else cold.phase1_iterations), k
        saved += cold.phase1_iterations - shared.phase1_iterations
    return saved


def spy_fleet_lps(monkeypatch):
    """Spy on `fleet._FleetLp.answer` from now on.  Returns `refs`, a weak
    reference to each `_FleetLp` in the order of its answers; `alive()`,
    how many of them are still referenced; and `alive_at_answer`, what
    `alive()` was at each answer, before the answering `_FleetLp` joined
    `refs`."""
    refs, alive_at_answer = [], []
    real_answer = fl._FleetLp.answer

    def alive():
        return sum(r() is not None for r in refs)

    def spied(self, inp, f):
        alive_at_answer.append(alive())
        refs.append(weakref.ref(self))
        return real_answer(self, inp, f)

    monkeypatch.setattr(fl._FleetLp, "answer", spied)
    return refs, alive, alive_at_answer


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """The benchmark's module `name`, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class body runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


# the instance family of acceptance criterion 5: one station, a short
# horizon, and an offer band that straddles the retail rate
random_bilevel = load_perfbench("generators").random_bilevel


def numeric_leaves(tree, keys=()):
    """The key path (a tuple of keys and list indices) of every number in a
    JSON tree; booleans are not numbers here."""
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from numeric_leaves(v, (*keys, k))
    elif isinstance(tree, list):
        for i, v in enumerate(tree):
            yield from numeric_leaves(v, (*keys, i))
    elif isinstance(tree, (int, float)) and not isinstance(tree, bool):
        yield keys


def dotted(keys):
    """A key path written as the document readers name it: fleets[0].tou[3]."""
    text = ""
    for k in keys:
        text += f"[{k}]" if isinstance(k, int) else f".{k}" if text else k
    return text


def assert_each_number_is_read_under_its_path(doc, read, relative_to=()):
    """Replace each number of `doc` in turn by an integer no float holds:
    `read(doc)` must either take it (an integer field) or raise
    ScenarioFormatError naming its path, taken relative to `relative_to`
    for the numbers under it."""
    huge = int("9" * 401)
    named = 0
    for keys in list(numeric_leaves(doc)):
        node = doc
        for k in keys[:-1]:
            node = node[k]
        value, node[keys[-1]] = node[keys[-1]], huge
        try:
            read(doc)
        except md.ScenarioFormatError as exc:
            within = keys[len(relative_to):] if keys[: len(relative_to)] == relative_to else keys
            assert str(exc).startswith(f"{dotted(within)}: "), (keys, str(exc)[:120])
            named += 1
        finally:
            node[keys[-1]] = value
    assert named > 0


_COLLECTED_IDS = pytest.StashKey[tuple]()


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(config, items):
    """Keep the id of every collected test, before `-k` or `--deselect`
    narrows the run."""
    config.stash[_COLLECTED_IDS] = tuple(item.nodeid for item in items)


@pytest.fixture
def collected_ids(request):
    """The ids of every test collected in this session."""
    return request.config.stash[_COLLECTED_IDS]


@pytest.fixture(scope="session")
def desk():
    return sc.desk_scenario()


@pytest.fixture(scope="session")
def desk_baseline(desk):
    return sc.run_baseline(desk)


# the desk study's sweep levels, as the README's example command runs them
DESK_PENETRATION_LEVELS = (0.10, 0.15, 0.20, 0.25)
DESK_PV_MULTIPLIERS = (0.0, 1.0, 2.0)


@pytest.fixture(scope="session")
def desk_penetration_sweep(desk):
    return sc.sweep_penetration(desk, DESK_PENETRATION_LEVELS)


@pytest.fixture(scope="session")
def desk_pv_sweep(desk):
    return sc.sweep_pv(desk, DESK_PV_MULTIPLIERS)


@pytest.fixture(scope="session")
def bilevel_instances():
    """The 20 instances of acceptance criterion 5, each with its grid
    optimum and its search outcome: (scenario, levels, grid, searched)."""
    results = []
    for i in range(20):
        scenario = random_bilevel(900 + i)
        levels = (5, 7, 9)[i % 3] if scenario.network.horizon == 2 else 5
        grid = bl.brute_force(scenario, levels=levels)
        searched = bl.optimize(scenario)
        results.append((scenario, levels, grid, searched))
    return results
