"""The benchmark runs against the package API: every function the traced
benchmark wraps by name must still exist, or `perfbench/run.py --trace 1`
breaks, and its workloads must still set up through the API.  Its gates
also need the lower-level memo to live for one search only: the counts of
two traced searches must repeat exactly."""

import importlib
import sys

import pytest

from evcsmarket import bilevel, fleet, lpcore
from conftest import PERFBENCH, load_perfbench, random_bilevel

tracing = load_perfbench("tracing")


@pytest.mark.parametrize(
    "module, function",
    sorted(set(tracing.LAYER_TARGETS) | set(tracing.STAGE_TARGETS)),
    ids=lambda x: x,
)
def test_traced_target_exists(module, function):
    target = importlib.import_module(f"evcsmarket.{module}")
    assert callable(getattr(target, function, None)), f"evcsmarket.{module}.{function}"


def _traced_desk_optimize(desk):
    """Spans of one traced desk `optimize` at the scenario's own settings,
    the number of distinct (fleet id, station offers) inputs it gave the
    fleet layer, and the number of distinct fleet responses (fleet totals
    and station segment quantities) that layer returned."""
    inputs = set()
    responses = set()
    solve_fleet = fleet.solve_fleet

    def recording(inp, **kwargs):
        for f in inp.fleets:
            offers = tuple((s.id, inp.offers[s.id]) for s in inp.stations if s.fleet_id == f.id)
            inputs.add((f.id, offers))
        schedule = solve_fleet(inp, **kwargs)
        responses.add((
            tuple(sorted(schedule.total.items())),
            tuple((s.id, schedule.segments[s.fleet_id][s.id]) for s in inp.stations),
        ))
        return schedule

    for module, _ in tracing.LAYER_TARGETS:  # the tracer patches loaded modules
        importlib.import_module(f"evcsmarket.{module}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fleet, "solve_fleet", recording)
        with tracing.Tracer() as tracer:
            bilevel.optimize(desk)
    return tracer.spans, len(inputs), len(responses)


def test_traced_desk_search_solves_each_distinct_input_once(desk):
    """One market clearing per distinct fleet response, one LP per period
    and per distinct fleet input, the same counts on every run."""
    runs = [_traced_desk_optimize(desk) for _ in range(2)]
    counts = [tracing.counts(spans) for spans, _, _ in runs]
    for spans, _, _ in runs:
        assert tracing.check(spans) == []
    assert counts[0] == counts[1]
    assert runs[0][1:] == runs[1][1:]
    c = counts[0]
    _, fleet_inputs, responses = runs[0]
    assert c["dam.solve_dam.calls"] == responses
    assert c["lpcore.dam.solves"] == c["dam.period_solves"] == c["dam.period_distinct"] == 24
    assert c["lpcore.fleet.solves"] == fleet_inputs


def test_traced_search_answers_fleets_from_stored_bases():
    """On a criterion-5 instance a search answers most fleet LPs from
    optimal bases it already holds: fewer fleet solves than fleet calls,
    and the counts of two traced searches repeat exactly."""
    scenario = random_bilevel(900)
    for module, _ in tracing.LAYER_TARGETS:
        importlib.import_module(f"evcsmarket.{module}")
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            bilevel.optimize(scenario)
        assert tracing.check(tracer.spans) == []
        counts.append(tracing.counts(tracer.spans))
    assert counts[0] == counts[1]
    assert counts[0]["lpcore.fleet.solves"] < counts[0]["fleet.solve_fleet.calls"]


def test_desk_certify_solves_only_the_fleet_lps(desk_baseline):
    """`certify` bounds each market period at the market solve's own duals:
    on the desk outcome it solves the two fleet LPs and no market-period
    LP."""
    solved = []
    solve = lpcore.solve

    def recording(lp, **kwargs):
        solved.append(lp.name)
        return solve(lp, **kwargs)

    for module, _ in tracing.LAYER_TARGETS:
        importlib.import_module(f"evcsmarket.{module}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpcore, "solve", recording)
        with tracing.Tracer() as tracer:
            assert bilevel.certify(desk_baseline.outcome).passed
    assert solved == ["fleet", "fleet"]
    assert tracing.counts(tracer.spans)["lpcore.certify.solves"] == 2


def test_benchmark_workloads_set_up_through_the_package(tmp_path, monkeypatch):
    """The benchmark's warm-up (an `evaluate` and a `certify`) and the
    set-up of every workload at seed 0 (load or generate scenarios through
    the model API, validate, build strategies) still run, so an API change
    that breaks the benchmark fails here first."""
    # workloads.py imports its sibling module as a top-level `generators`
    monkeypatch.setitem(sys.modules, "generators", load_perfbench("generators"))
    workloads = load_perfbench("workloads")
    workloads.warm_up()
    for name, workload in workloads.WORKLOADS.items():
        workload(PERFBENCH.parent, tmp_path).setup(0)

