"""Per-layer self time and work counters, measured from outside the program.

Tracer.install() replaces every public function of the ghk modules with a
timing wrapper, in every ghk.* namespace that binds it by name (cli
imports ordinary_power and rational_json, invariants imports the
counters, and so on), so a call is seen whichever binding it goes
through.  uninstall() puts the originals back.  A layer is a module, with
fmt folded into cli.  A layer's self time is the time inside its
functions minus the time inside wrapped functions they call; the
bookkeeping done for counters is charged to none of them.

Counters are read from arguments and results at the layer boundary.  A
metric whose source function no longer exists is left out of the
report, so a refactor that renames or removes a function degrades the
trace instead of breaking it.  Methods and private helpers are not
wrapped: their time counts toward the public function that calls them.
"""

import functools
import inspect
import sys
from collections import defaultdict
from collections.abc import Sized
from time import perf_counter

LAYERS = {
    "ghk.geometry": "geometry",
    "ghk.ideals": "ideals",
    "ghk.invariants": "invariants",
    "ghk.checks": "checks",
    "ghk.cli": "cli",
    "ghk.fmt": "cli",
    "ghk.svgplot": "svgplot",
    "ghk.reptype": "reptype",
    "ghk.families": "families",
}
# a two-multiplication helper called once per lattice point: wrapping it
# would time the wrapper, not the work
UNWRAPPED = {"geometry.dot"}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_complement(t, args, kwargs, result):
    threshold, stair = _arg(args, kwargs, 1, "threshold"), _arg(args, kwargs, 2, "stair")
    t.add("geometry.count_calls", 1)
    t.add("geometry.count_width", stair.max_s - threshold.s)
    t.add("geometry.count_corners", len(stair.corners))
    t.add("geometry.points_counted", result)


def _count_band(t, args, kwargs, result):
    threshold = _arg(args, kwargs, 1, "threshold")
    fine, coarse = _arg(args, kwargs, 2, "fine"), _arg(args, kwargs, 3, "coarse")
    t.add("geometry.count_calls", 1)
    t.add("geometry.count_width", coarse.max_s - threshold.s)
    t.add("geometry.count_corners", len(fine.corners) + len(coarse.corners))
    t.add("geometry.points_counted", result)


def _pareto(t, args, kwargs, result):
    t.add("geometry.pareto_in", len(_arg(args, kwargs, 0, "corners")))
    t.add("geometry.pareto_out", len(result.corners))


def _ordinary_power(t, args, kwargs, result):
    key = (_arg(args, kwargs, 0, "ideal"), _arg(args, kwargs, 1, "n"))
    t.add("ideals.ordinary_power_calls", 1)
    t.add("ideals.power_exponent_sum", key[1])
    t.add("ideals.power_gens_out", len(result.gens))
    t.add("ideals.power_repeats", key in t.request_powers)
    t.request_powers.add(key)


def _new_ideal(t, args, kwargs, result):
    t.add("ideals.new_ideal_calls", 1)
    t.add("ideals.new_ideal_points_in", len(_arg(args, kwargs, 1, "gens")))


def _sequence(t, args, kwargs, result):
    t.add("invariants.seq_entries", len(result))


# function key -> (counter, index and name of an argument to materialize)
COUNTERS = {
    "geometry.count_lattice_complement": (_count_complement, None),
    "geometry.count_lattice_band": (_count_band, None),
    "geometry.pareto_minimal": (_pareto, (0, "corners")),
    "ideals.ordinary_power": (_ordinary_power, None),
    "ideals.new_ideal": (_new_ideal, (1, "gens")),
    "invariants.h0_powers": (_sequence, None),
    "invariants.ghk_function": (_sequence, None),
    "invariants.fit_quasi_polynomial": (lambda t, a, k, r: t.add("invariants.fit_calls", 1), None),
    "checks.run_instance_checks": (lambda t, a, k, r: t.add("checks.suites_run", len(r)), None),
    "checks.lattice_points_in_corner_box": (
        lambda t, a, k, r: t.add("checks.box_points", len(r)), None),
    "fmt.rational_json": (lambda t, a, k, r: t.add("cli.rationals", 1), None),
    "svgplot.render_region_svg": (lambda t, a, k, r: t.add("svgplot.svg_bytes", len(r)), None),
}

# per-layer metric -> (unit, numerator count, denominator count or None for
# a per-request mean, function keys the counts come from)
_GEOM_COUNT = ("geometry.count_lattice_complement", "geometry.count_lattice_band")
METRICS = {
    "geometry.count_calls": ("count", "geometry.count_calls", None, _GEOM_COUNT),
    "geometry.count_width": ("count", "geometry.count_width", None, _GEOM_COUNT),
    "geometry.count_corners": ("count", "geometry.count_corners", None, _GEOM_COUNT),
    "geometry.points_counted": ("count", "geometry.points_counted", None, _GEOM_COUNT),
    "geometry.pareto_in": ("count", "geometry.pareto_in", None, ("geometry.pareto_minimal",)),
    "geometry.pareto_out": ("count", "geometry.pareto_out", None, ("geometry.pareto_minimal",)),
    "geometry.pareto_keep_ratio": (
        "ratio", "geometry.pareto_out", "geometry.pareto_in", ("geometry.pareto_minimal",)),
    "ideals.ordinary_power_calls": (
        "count", "ideals.ordinary_power_calls", None, ("ideals.ordinary_power",)),
    "ideals.power_exponent_sum": (
        "count", "ideals.power_exponent_sum", None, ("ideals.ordinary_power",)),
    "ideals.power_gens_out": ("count", "ideals.power_gens_out", None, ("ideals.ordinary_power",)),
    "ideals.power_repeat_ratio": (
        "ratio", "ideals.power_repeats", "ideals.ordinary_power_calls", ("ideals.ordinary_power",)),
    "ideals.new_ideal_calls": ("count", "ideals.new_ideal_calls", None, ("ideals.new_ideal",)),
    "ideals.new_ideal_points_in": (
        "count", "ideals.new_ideal_points_in", None, ("ideals.new_ideal",)),
    "invariants.seq_entries": (
        "count", "invariants.seq_entries", None, ("invariants.h0_powers", "invariants.ghk_function")),
    "invariants.fit_calls": (
        "count", "invariants.fit_calls", None, ("invariants.fit_quasi_polynomial",)),
    "checks.suites_run": ("count", "checks.suites_run", None, ("checks.run_instance_checks",)),
    "checks.box_points": (
        "count", "checks.box_points", None, ("checks.lattice_points_in_corner_box",)),
    "cli.report_bytes": ("bytes", "cli.report_bytes", None, ()),
    "cli.rationals": ("count", "cli.rationals", None, ("fmt.rational_json",)),
    "svgplot.svg_bytes": ("bytes", "svgplot.svg_bytes", None, ("svgplot.render_region_svg",)),
}


def _ghk_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "ghk" or name.startswith("ghk."))}


def patched_bindings() -> list[str]:
    """Names in ghk namespaces that still hold a tracer wrapper."""
    return [f"{name}.{attr}" for name, mod in _ghk_modules().items()
            for attr, obj in vars(mod).items() if hasattr(obj, "__bench_wrapped__")]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.root_s = 0.0
        self.overhead_s = 0.0
        self.requests = 0
        self.request_powers: set = set()
        self.wrapped: set[str] = set()
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []

    def add(self, name: str, k) -> None:
        self.counts[name] += k

    def begin_request(self) -> None:
        self.requests += 1
        self.request_powers.clear()

    def install(self) -> None:
        modules = _ghk_modules()
        for modname, layer in LAYERS.items():
            mod = modules.get(modname)
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                key = f"{modname[4:]}.{attr}"
                if (attr.startswith("_") or key in UNWRAPPED or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                wrapper = self._wrap(layer, key, fn)
                self.wrapped.add(key)
                for ns in modules.values():
                    for name, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._patches.append((ns, name, fn))
                            setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            ns, name, fn = self._patches.pop()
            setattr(ns, name, fn)

    def _wrap(self, layer: str, key: str, fn):
        counter, materialize = COUNTERS.get(key, (None, None))
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialize is not None:
                i, name = materialize
                if len(args) > i and not isinstance(args[i], Sized):
                    args = args[:i] + (list(args[i]),) + args[i + 1:]
                elif name in kwargs and not isinstance(kwargs[name], Sized):
                    kwargs[name] = list(kwargs[name])
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._leave(layer, frame, start, perf_counter())
                raise
            end = perf_counter()
            if counter is not None:
                counter(self, args, kwargs, result)
            self._leave(layer, frame, start, end)
            return result

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def _leave(self, layer: str, frame: list, start: float, end: float) -> None:
        """Close a span: its self time goes to its layer, counter time to overhead."""
        self._stack.pop()
        done = perf_counter()
        self.self_s[layer] += end - start - frame[0]
        self.overhead_s += done - end
        if self._stack:
            self._stack[-1][0] += done - start
        else:
            self.root_s += done - start

    def metrics(self) -> dict:
        """Per-request means and ratios, with units, for every available metric."""
        n = max(self.requests, 1)
        out = {}
        for modname, layer in LAYERS.items():
            if any(k.startswith(modname[4:] + ".") for k in self.wrapped):
                out[f"{layer}.self_ms"] = {"value": 1000 * self.self_s[layer] / n, "unit": "ms"}
        for name, (unit, num, den, sources) in METRICS.items():
            if not all(s in self.wrapped for s in sources):
                continue
            if den is None:
                value = self.counts[num] / n
            else:
                value = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
            out[name] = {"value": value, "unit": unit}
        return out
