"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install()` rebinds every public anelor function listed in `SPANS` and
`LEAVES` at each module attribute that holds it (for example
`anelor.lorenz.coefficients`, `anelor.spectral.leading_growth_rate`,
`anelor.cli.critical_rayleigh`), so a call from the benchmark, from another
anelor module or from the CLI lands in a wrapper.

A `SPANS` wrapper records one span: task id, span id, parent span id, name,
start, end, and for a few functions a tag (truncation size, coefficient
route, convergence check) or a count (the integrator's RHS evaluations).
Nested calls therefore give parent/child spans. `LEAVES` are the hot,
cache-backed helpers called thousands of times per task; they are counted
and timed into a per-name total and into their parent span's `leaf` time
instead of being stored one by one. A span's self time is its duration minus
its direct child spans and its leaf time.

Spans stay in memory until the run dumps them at its end. The wrappers
assume one thread; the benchmark never traces a threaded run.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time

# home module -> traced public functions; "Class.method" patches the class
SPANS = {
    "projection": ("oracle_coefficients", "closed_form_coefficients", "discrepancy_report"),
    "lorenz": ("critical_rayleigh", "minimize_over_length", "scale_to_lorenz"),
    "spectral": ("assemble_pencil", "leading_growth_rate", "critical_rayleigh_spectral"),
    "dynamics": ("integrate_reduced", "integrate_lorenz", "map_trajectory", "largest_lyapunov"),
    "cli": ("main",),
}
LEAVES = {"basis": ("ModeGrid.partial", "QuadratureRule.__init__")}

# modules whose attributes are rebound when they hold a traced function
BINDING_MODULES = ("anelor", "anelor.projection", "anelor.lorenz", "anelor.spectral",
                   "anelor.dynamics", "anelor.cli")

TASK, ID, PARENT, NAME, START, END, TAG, COUNT, LEAF = range(9)


def _tag_check(arguments, result):
    return ("check" if arguments["check_convergence"] else "plain"), None


def _tag_source(arguments, result):
    return arguments["source"], None


def _tag_modes(arguments, result):
    return f"n{arguments['n_modes']}", None


def _tag_nfev(arguments, result):
    return None, result.nfev


TAGGERS = {
    "projection.oracle_coefficients": _tag_check,
    "lorenz.critical_rayleigh": _tag_source,
    "spectral.assemble_pencil": _tag_modes,
    "spectral.critical_rayleigh_spectral": _tag_modes,
    "dynamics.integrate_reduced": _tag_nfev,
    "dynamics.integrate_lorenz": _tag_nfev,
}


def _span_name(home: str, qualified: str) -> str:
    return f"{home}.{qualified.removesuffix('.__init__')}"


class Tracer:
    """Collects spans of the traced anelor functions while installed."""

    def __init__(self):
        self.task = None
        self.spans = []
        self.leaves = {}  # name -> [calls, busy seconds]
        self._stack = []
        self._restore = []

    def install(self) -> None:
        replacements = {}
        for table, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
            for home, names in table.items():
                module = importlib.import_module(f"anelor.{home}")
                for qualified in names:
                    owner, _, attr = qualified.rpartition(".")
                    target = getattr(module, owner) if owner else module
                    original = getattr(target, attr)
                    wrapper = make(original, _span_name(home, qualified))
                    if owner:
                        self._rebind(target, attr, wrapper)
                    else:
                        replacements[id(original)] = (original, wrapper)
        for name in BINDING_MODULES:
            module = importlib.import_module(name)
            for attr, value in list(vars(module).items()):
                found = replacements.get(id(value))
                if found is not None and found[0] is value:
                    self._rebind(module, attr, found[1])

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def _rebind(self, target, attr, wrapper) -> None:
        self._restore.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)

    def _span_wrapper(self, function, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tagger = TAGGERS.get(name)
        signature = inspect.signature(function) if tagger else None

        def wrapper(*args, **kwargs):
            record = [self.task, len(spans), stack[-1][ID] if stack else None, name,
                      0.0, 0.0, None, None, 0.0]
            spans.append(record)
            stack.append(record)
            record[START] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if tagger is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[TAG], record[COUNT] = tagger(bound.arguments, result)
            return result

        return wrapper

    def _leaf_wrapper(self, function, name):
        stack, clock = self._stack, time.perf_counter
        total = self.leaves.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                total[0] += 1
                total[1] += elapsed
                if stack:
                    stack[-1][LEAF] += elapsed

        return wrapper

    def dump(self) -> dict:
        return {"leaves": self.leaves, "spans": self.spans}


def merge(into: dict, other: dict) -> None:
    """Append another trace dump, shifting its span ids to stay unique."""
    offset = len(into["spans"])
    for span in other["spans"]:
        span = list(span)
        span[ID] += offset
        if span[PARENT] is not None:
            span[PARENT] += offset
        into["spans"].append(span)
    for name, (calls, busy) in other["leaves"].items():
        total = into["leaves"].setdefault(name, [0, 0.0])
        total[0] += calls
        total[1] += busy


class SpanStats:
    """Calls, busy time, self time, counts and durations per span name."""

    def __init__(self, dump: dict):
        child_time = {}
        for span in dump["spans"]:
            if span[PARENT] is not None:
                child_time[span[PARENT]] = (child_time.get(span[PARENT], 0.0)
                                            + span[END] - span[START])
        self.calls = {name: calls for name, (calls, _) in dump["leaves"].items()}
        self.busy = {name: busy for name, (_, busy) in dump["leaves"].items()}
        self.self_time, self.count, self.durations = {}, {}, {}
        for span in dump["spans"]:
            name, duration = span[NAME], span[END] - span[START]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.busy[name] = self.busy.get(name, 0.0) + duration
            self.self_time[name] = (self.self_time.get(name, 0.0) + duration
                                    - child_time.get(span[ID], 0.0) - span[LEAF])
            if span[COUNT] is not None:
                self.count[name] = self.count.get(name, 0) + span[COUNT]
            self.durations.setdefault(name, []).append(duration)
            self.durations.setdefault((name, span[TAG]), []).append(duration)

    def p50_ms(self, name: str, tag: str | None = None) -> float:
        values = self.durations.get(name if tag is None else (name, tag), [])
        return 1e3 * statistics.median(values) if values else 0.0
