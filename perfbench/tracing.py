"""Span tracing of the evcsmarket layers from outside the package.

`Tracer` replaces public functions by wrappers on every `evcsmarket` module
that binds them, so calls the package makes through module attributes (and
through names it imported from another module, such as the CLI's
`load_scenario`) are recorded too; `uninstall` restores the originals.  Each
call becomes a span: name, start, end, parent span and calling context
(`fleet`, `dam` or `certify`, from the nearest enclosing `solve_fleet`,
`solve_dam` or `certify`).  Counts taken at the same boundaries (simplex
pivots, LP rows, fleets per solve, exact market-period inputs) ride on the
span as attributes.  Spans stay in memory and are written once the run ends.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs wrapped by a full trace; the span is "module.function"
LAYER_TARGETS = (
    ("lpcore", "solve"),
    ("lpcore", "dualize"),
    ("fleet", "solve_fleet"),
    ("fleet", "build_fleet"),
    ("dam", "solve_dam"),
    ("dam", "build_dam"),
    ("bilevel", "evaluate"),
    ("bilevel", "optimize"),
    ("bilevel", "brute_force"),
    ("bilevel", "certify"),
    ("scenarios", "run_baseline"),
    ("scenarios", "no_station_payment"),
    ("model", "load_scenario"),
    ("model", "validate"),
    ("cli", "cmd_run"),
)

# the top-level stages timed during untraced (end-to-end) passes
STAGE_TARGETS = (
    ("bilevel", "evaluate"),
    ("bilevel", "optimize"),
    ("bilevel", "brute_force"),
    ("bilevel", "certify"),
)

CONTEXTS = {"fleet.solve_fleet": "fleet", "dam.solve_dam": "dam", "bilevel.certify": "certify"}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    context: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "context": self.context,
            "start": self.start,
            "end": self.end,
            "attrs": {k: v for k, v in self.attrs.items() if k != "period_keys"},
        }


def _lp_solve_attrs(span, args, kwargs, result):
    lp = args[0] if args else kwargs["lp"]
    span.attrs["pivots"] = result.iterations
    span.attrs["rows"] = len(lp.constraints)
    span.attrs["optimal"] = result.is_optimal


def _solve_fleet_attrs(span, args, kwargs, result):
    inp = args[0] if args else kwargs["inp"]
    span.attrs["fleets"] = len(inp.fleets)


class _PeriodKeys:
    """Exact per-period market input: everything `build_dam(inp, period=t)`
    reads, with the network identified by object (kept alive here so an id
    is never reused within a run)."""

    def __init__(self):
        self._networks = {}

    def __call__(self, span, args, kwargs, result):
        inp = args[0] if args else kwargs["inp"]
        net = inp.network
        self._networks.setdefault(id(net), net)
        keys = []
        for t in range(net.horizon):
            withdrawals = tuple((w.bus, w.power[t]) for w in inp.withdrawals)
            bids = tuple(
                (
                    b.station_id,
                    tuple(q[t] for q in b.quantities),
                    tuple(v[t] for v in b.wtp_min),
                    tuple(v[t] for v in b.wtp_max),
                )
                for b in inp.station_bids
            )
            keys.append((id(net), t, withdrawals, bids))
        span.attrs["period_keys"] = keys


def _evaluations_attrs(span, args, kwargs, result):
    """Distinct evaluations: one for `evaluate`, the search count otherwise."""
    span.attrs["evaluations"] = 1 if result.search is None else result.search.evaluations


class Tracer:
    """Wraps `targets` on install; records one Span per call.

    `extra` holds (module, attribute, span name) triples for functions
    outside the package, such as the benchmark's own output step."""

    def __init__(self, targets=LAYER_TARGETS, extra=()):
        self.targets = targets
        self.extra = extra
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "lpcore.solve": _lp_solve_attrs,
            "fleet.solve_fleet": _solve_fleet_attrs,
            "dam.solve_dam": _PeriodKeys(),
            "bilevel.evaluate": _evaluations_attrs,
            "bilevel.optimize": _evaluations_attrs,
            "bilevel.brute_force": _evaluations_attrs,
        }

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            context = CONTEXTS.get(name) or (parent.context if parent else None)
            span = Span(len(spans), name, parent.id if parent else None, context, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "evcsmarket" or n.startswith("evcsmarket.")
        ]
        for module_name, attr in self.targets:
            original = getattr(sys.modules[f"evcsmarket.{module_name}"], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod, attr, name in self.extra:
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))
        return self

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# summaries of one traced pass
# ---------------------------------------------------------------------------


def self_times(spans) -> dict[str, float]:
    """Per name: sum of span durations minus the time their child spans
    cover (children of one span run one after another, never overlapping)."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration - child_time.get(s.id, 0.0)
    return out


def total_times(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def top_level(spans, names) -> list[Span]:
    """Spans of the given names with no enclosing span of those names."""
    by_id = {s.id: s for s in spans}
    picked = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            picked.append(s)
    return picked


def counts(spans) -> dict[str, float]:
    """Deterministic counts of one pass: calls per span name, pivots and
    solves per calling context, market-period inputs.  A call that raised
    carries no boundary counts and adds zero to them."""
    out: dict[str, float] = {}
    for s in spans:
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
    solves = [s for s in spans if s.name == "lpcore.solve"]
    out["lpcore.pivots"] = sum(s.attrs.get("pivots", 0) for s in solves)
    out["lpcore.solve.nonoptimal"] = sum(1 for s in solves if not s.attrs.get("optimal", False))
    for ctx in ("fleet", "dam", "certify"):
        mine = [s for s in solves if s.context == ctx]
        out[f"lpcore.{ctx}.solves"] = len(mine)
        out[f"lpcore.{ctx}.pivots"] = sum(s.attrs.get("pivots", 0) for s in mine)
    out["lpcore.certify.rows_max"] = max(
        (s.attrs.get("rows", 0) for s in solves if s.context == "certify"), default=0
    )
    out["fleet.fleets_solved"] = sum(
        s.attrs.get("fleets", 0) for s in spans if s.name == "fleet.solve_fleet"
    )
    keys = [k for s in spans if s.name == "dam.solve_dam" for k in s.attrs.get("period_keys", ())]
    out["dam.period_solves"] = len(keys)
    out["dam.period_distinct"] = len(set(keys))
    return out


def check(spans) -> list[str]:
    """Internal consistency of one traced pass; returns the problems found."""
    problems = []
    c = counts(spans)
    by_context = sum(c[f"lpcore.{ctx}.solves"] for ctx in ("fleet", "dam", "certify"))
    if by_context != c.get("lpcore.solve.calls", 0):
        problems.append(
            f"per-caller lpcore solves sum to {by_context}, "
            f"not lpcore.solve.calls={c.get('lpcore.solve.calls', 0)}"
        )
    by_id = {s.id: s for s in spans}
    children: dict[int, float] = {}
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is None:
            continue
        parent = by_id[s.parent]
        if s.start < parent.start or s.end > parent.end:
            problems.append(f"span {s.id} {s.name} lies outside its parent {parent.name}")
        children[s.parent] = children.get(s.parent, 0.0) + s.duration
    for pid, covered in children.items():
        if covered > by_id[pid].duration:
            problems.append(f"children of span {pid} {by_id[pid].name} exceed its duration")
    return problems
