"""evcsmarket benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload desk_run --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
With `--trace 0` the benchmark times set-up in fresh processes, then repeats
untraced passes over the workload for `--seconds` (stopping before a pass
that would end later; at least one pass) and reports the end-to-end metrics
(medians over passes).  With `--trace 1` it makes one
untraced pass and two traced passes, reports the per-layer metrics of the
traced passes, checks the trace for consistency and writes it to
`perfbench/out/<workload>-seed<seed>-trace.json`.  Every pass is checked for
correctness; failed checks are counted, not raised.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
TRACED_PASSES = 2
WORKLOAD_NAMES = ("desk_run", "oracle_small", "synthetic_ladder")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="time import + input construction + validate once and print seconds",
    )
    return p.parse_args(argv)


def import_package():
    """Put the checkout's `src/` first on the path and import from there,
    never from an installed copy."""
    src = ROOT / "src"
    if not (src / "evcsmarket" / "__init__.py").is_file():
        raise SystemExit(f"error: no evcsmarket sources under {src}")
    sys.path.insert(0, str(src))
    import evcsmarket

    if Path(evcsmarket.__file__).resolve().parent != (src / "evcsmarket").resolve():
        raise SystemExit(f"error: evcsmarket imported from {evcsmarket.__file__}, not {src}")
    import workloads

    return workloads


def setup_probe(args) -> None:
    start = time.perf_counter()
    workloads = import_package()
    workloads.WORKLOADS[args.workload](ROOT, OUT).setup(args.seed)
    print(repr(time.perf_counter() - start))


def measure_setup(args) -> list[float]:
    """Set-up time (import, load or generate, validate) in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr[-2000:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_desc = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_desc,
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "loop": "closed, one caller, passes run back to back in one process",
    }


def run_pass(workload, state, gates, tracer):
    """One pass under `tracer`; returns (wall seconds, PassResult)."""
    start = time.perf_counter()
    with tracer:
        try:
            result = workload.run_pass(state, gates)
        except Exception as exc:  # noqa: BLE001 - a failing pass is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            gates.check(False, f"{workload.name}: pass raised {exc!r}")
            result = None
    return time.perf_counter() - start, result


def stage_figures(spans) -> dict:
    """certify time, search time and distinct evaluations from the top-level
    stage spans of one pass."""
    certify = tracing.top_level(spans, {"bilevel.certify"})
    search = tracing.top_level(
        spans, {"bilevel.evaluate", "bilevel.optimize", "bilevel.brute_force"}
    )
    return {
        "certify_s": sum(s.duration for s in certify),
        "search_s": sum(s.duration for s in search),
        "evaluations": sum(s.attrs.get("evaluations", 0) for s in search),
    }


def layer_metrics(spans) -> dict:
    c = tracing.counts(spans)
    total = tracing.total_times(spans)
    own = tracing.self_times(spans)
    solves = [s for s in spans if s.name == "lpcore.solve"]
    calls = c.get("lpcore.solve.calls", 0)
    m = {
        "lpcore.solve.calls": (calls, "count"),
        "lpcore.pivots": (c["lpcore.pivots"], "count"),
        "lpcore.pivots_per_solve": (c["lpcore.pivots"] / calls if calls else 0.0, "pivots/solve"),
        "lpcore.solve.nonoptimal": (c["lpcore.solve.nonoptimal"], "count"),
        "lpcore.solve.s": (total.get("lpcore.solve", 0.0), "s"),
        "lpcore.dualize.s": (total.get("lpcore.dualize", 0.0), "s"),
    }
    for ctx in ("fleet", "dam", "certify"):
        m[f"lpcore.{ctx}.solves"] = (c[f"lpcore.{ctx}.solves"], "count")
        m[f"lpcore.{ctx}.pivots"] = (c[f"lpcore.{ctx}.pivots"], "count")
        m[f"lpcore.{ctx}.s"] = (sum(s.duration for s in solves if s.context == ctx), "s")
    m["lpcore.certify.rows_max"] = (c["lpcore.certify.rows_max"], "rows")
    fleets = c["fleet.fleets_solved"]
    m.update({
        "fleet.solve_fleet.calls": (c.get("fleet.solve_fleet.calls", 0), "count"),
        "fleet.solve_fleet.self_s": (own.get("fleet.solve_fleet", 0.0), "s"),
        "fleet.build_fleet.s": (total.get("fleet.build_fleet", 0.0), "s"),
        "fleet.lp_solves_per_fleet": (
            c["lpcore.fleet.solves"] / fleets if fleets else 0.0, "solves/fleet"),
        "dam.solve_dam.self_s": (own.get("dam.solve_dam", 0.0), "s"),
        "dam.build_dam.s": (total.get("dam.build_dam", 0.0), "s"),
        "dam.period_solves": (c["dam.period_solves"], "count"),
        "dam.period_distinct": (c["dam.period_distinct"], "count"),
        "dam.period_repeat_share": (
            1.0 - c["dam.period_distinct"] / c["dam.period_solves"]
            if c["dam.period_solves"] else 0.0, "share"),
        "bilevel.evaluate.calls": (c.get("bilevel.evaluate.calls", 0), "count"),
        "bilevel.evaluate.self_s": (own.get("bilevel.evaluate", 0.0), "s"),
        "bilevel.certify.self_s": (own.get("bilevel.certify", 0.0), "s"),
        "bilevel.optimize.self_s": (own.get("bilevel.optimize", 0.0), "s"),
        "scenarios.no_station_payment.s": (total.get("scenarios.no_station_payment", 0.0), "s"),
        "cli.outputs_s": (total.get("cli.outputs", 0.0) + own.get("cli.cmd_run", 0.0), "s"),
        "model.validate.s": (total.get("model.validate", 0.0), "s"),
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")

    setup_samples = measure_setup(args) if args.trace == 0 else []
    workloads = import_package()

    env = environment(args)
    workload = workloads.WORKLOADS[args.workload](ROOT, OUT)
    state = workload.setup(args.seed)
    gates = workloads.Gates()
    workloads.warm_up()

    # untraced passes until the next one would end after --seconds (at least one)
    untraced = []  # (seconds, PassResult, stage figures)
    traced = []  # (seconds, PassResult, spans)
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer(tracing.STAGE_TARGETS)
        seconds, result = run_pass(workload, state, gates, tracer)
        untraced.append((seconds, result, stage_figures(tracer.spans)))
        typical = statistics.median(p[0] for p in untraced)
        if args.trace == 1 or time.perf_counter() - start + typical > args.seconds:
            break
    if args.trace == 1:
        for _ in range(TRACED_PASSES):
            tracer = tracing.Tracer(
                tracing.LAYER_TARGETS, extra=((workloads, "write_outputs", "cli.outputs"),)
            )
            seconds, result = run_pass(workload, state, gates, tracer)
            traced.append((seconds, result, tracer.spans))

    passes = untraced + traced
    results = [p[1] for p in passes]
    if all(r is not None for r in results):
        first = results[0]
        for r in results[1:]:
            for key, raw in first.outputs.items():
                gates.check(r.outputs.get(key) == raw, f"{key}: outcome.json differs between passes")

    print(f"# workload {args.workload}  seed {args.seed}  passes {len(passes)}")
    for key, value in env.items():
        print(f"# env.{key} = {value}")

    if args.trace == 0:
        figures = [p[2] for p in untraced]
        evals_per_s = [f["evaluations"] / f["search_s"] for f in figures if f["search_s"] > 0]
        metrics = {
            "run_s": (statistics.median(p[0] for p in untraced), "s"),
            "certify_s": (statistics.median(f["certify_s"] for f in figures), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup_samples), "s"),
        }
        # reported, but outside the gated set: see perfbench/README.md
        report = dict(metrics)
        report["evals_per_s"] = (statistics.median(evals_per_s) if evals_per_s else 0.0, "1/s")
        ok_results = [r for r in results if r is not None]
        if ok_results:
            report["profit_usd"] = (ok_results[0].profit, "USD")
            if ok_results[0].grid_attainment is not None:
                report["grid_attainment_min"] = (
                    min(r.grid_attainment for r in ok_results), "ratio")
        report["failed_share"] = (gates.failed / max(gates.attempted, 1), "share")
        print("# pass run_s:", " ".join(f"{p[0]:.4f}" for p in untraced))
        print("# pass certify_s:", " ".join(f"{f['certify_s']:.4f}" for f in figures))
        print("# pass evals_per_s:", " ".join(f"{v:.4f}" for v in evals_per_s))
    else:
        spans_per_pass = [p[2] for p in traced]
        per_pass = [layer_metrics(spans) for spans in spans_per_pass]
        # counts repeat exactly across traced passes (checked below); times
        # are medians over the traced passes
        metrics = {}
        for k, (first, unit) in per_pass[0].items():
            values = [pm[k][0] for pm in per_pass]
            metrics[k] = (first if len(set(values)) == 1 else statistics.median(values), unit)
        traced_s = statistics.median(p[0] for p in traced)
        metrics["trace.overhead_share"] = ((traced_s - untraced[0][0]) / untraced[0][0], "share")
        for i, spans in enumerate(spans_per_pass):
            problems = tracing.check(spans)
            gates.check(not problems, f"trace pass {i}: {problems[:3]}")
        first_counts = tracing.counts(spans_per_pass[0])
        for i, spans in enumerate(spans_per_pass[1:], start=1):
            again = tracing.counts(spans)
            diff = {k: (v, again.get(k)) for k, v in first_counts.items() if again.get(k) != v}
            gates.check(not diff, f"trace pass {i}: counts differ from pass 0: {diff}")
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"{args.workload}-seed{args.seed}-trace.json"
        with open(trace_path, "w") as fh:
            json.dump(
                {
                    "env": env,
                    "passes": [
                        {"seconds": p[0], "spans": [s.to_json() for s in p[2]]} for p in traced
                    ],
                },
                fh,
            )
        print(f"# trace written to {trace_path.relative_to(ROOT)}")
        report = metrics

    for name, (value, unit) in report.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    for message in gates.messages:
        print(f"FAILED: {message}")

    print(json.dumps({
        "correct": gates.failed == 0,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
