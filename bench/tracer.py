"""Per-layer tracing by patching lgmet's public functions from outside.

Each layer is a set of public lgmet functions.  Installing the tracer
replaces every binding of those functions in every loaded ``lgmet`` module
namespace (``lgmet.correlations.correlation`` and ``lgmet.estimation.correlation``
are separate bindings of one function), so calls made between modules are
seen too.  A wrapper records a span: its duration, and the time covered by
spans it caused; self time is the difference.  Spans are aggregated in
memory per layer and per (caller layer, layer) edge.

The layer names are the stage names shared with the program's own timing
output, so the two can be compared directly.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from collections import defaultdict

LAYERS = {
    "spin.make_spin_system": ["lgmet.spin:make_spin_system"],
    "measurement.build_measurement": ["lgmet.measurement:build_measurement"],
    "measurement.prepare_states": ["lgmet.measurement:prepare_states"],
    "correlations.correlation": ["lgmet.correlations:correlation"],
    "correlations.correlation_derivatives": ["lgmet.correlations:correlation_derivatives"],
    "correlations.klg_equal_interval": ["lgmet.correlations:klg_equal_interval"],
    "correlations.max_violation": ["lgmet.correlations:max_violation"],
    "estimation.qfi": ["lgmet.estimation:qfi"],
    "estimation.fisher_from_correlation": ["lgmet.estimation:fisher_from_correlation"],
    "estimation.estimation_report": ["lgmet.estimation:estimation_report"],
    "scan.sweep": ["lgmet.scan:scan_theta", "lgmet.scan:scan_b", "lgmet.scan:phase_map"],
    "scan.violation_threshold_b": ["lgmet.scan:violation_threshold_b"],
    "scan.serialize": ["lgmet.scan:table_to_csv", "lgmet.scan:table_to_json"],
    "scan.render_svg": ["lgmet.scan:render_svg_lineplot"],
    "cli.main": ["lgmet.cli:main"],
}

# Counters beyond calls and self time: (metric suffix, unit, better).
EXTRA_METRICS = {
    "estimation.qfi.useful_frac": ("frac", "higher"),
    "spin.make_spin_system.useful_frac": ("frac", "higher"),
    "correlations.kernel_builds": ("count", "lower"),
    "correlations.kernel_reuse": ("evals/build", "higher"),
    "scan.serialize.bytes": ("bytes", "lower"),
    "scan.render_svg.bytes": ("bytes", "lower"),
}


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    specs = []
    for layer in LAYERS:
        specs.append({"name": layer + ".calls", "unit": "count", "better": "lower"})
        specs.append({"name": layer + ".self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in EXTRA_METRICS.items():
        specs.append({"name": name, "unit": unit, "better": better})
    return specs


class _Stat:
    """Call count and seconds: self time for a layer, total time for an edge."""

    __slots__ = ("calls", "seconds")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0


class Tracer:
    """Layer spans and counters for one process; install() patches, uninstall() restores."""

    def __init__(self):
        self._stack: list[list] = []   # [layer, time covered by child spans]
        self._bindings: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.stats = defaultdict(_Stat)
        self.edges = defaultdict(_Stat)   # (caller layer or None, layer)
        self._qfi_keys: set = set()
        self._spin_keys: set = set()
        self._kernel_pairs = weakref.WeakKeyDictionary()   # meas -> WeakSet of sys
        self.kernel_builds = 0
        self.serialize_bytes = 0
        self.svg_bytes = 0

    # -- counters recorded at the layer boundaries --------------------------

    def _on_kernel_use(self, args, kwargs, result):
        sys_, meas = args[0], args[1]
        seen = self._kernel_pairs.setdefault(meas, weakref.WeakSet())
        if sys_ not in seen:
            seen.add(sys_)
            self.kernel_builds += 1

    def _on_qfi(self, args, kwargs, result):
        sys_, meas = args[0], args[1]
        self._qfi_keys.add((sys_.two_j, meas.b, meas.partition))

    def _on_spin(self, args, kwargs, result):
        self._spin_keys.add(int(args[0] if args else kwargs["two_j"]))

    def _on_serialize(self, args, kwargs, result):
        self.serialize_bytes += len(result)

    def _on_svg(self, args, kwargs, result):
        path = args[3] if len(args) > 3 else kwargs["path"]
        self.svg_bytes += os.path.getsize(path)

    _HOOKS = {
        "lgmet.correlations:correlation": _on_kernel_use,
        "lgmet.correlations:correlation_derivatives": _on_kernel_use,
        "lgmet.estimation:qfi": _on_qfi,
        "lgmet.spin:make_spin_system": _on_spin,
        "lgmet.scan:table_to_csv": _on_serialize,
        "lgmet.scan:table_to_json": _on_serialize,
        "lgmet.scan:render_svg_lineplot": _on_svg,
    }

    # -- patching -----------------------------------------------------------

    def _wrap(self, layer: str, fn, hook):
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stat = tracer.stats[layer]
                stat.calls += 1
                stat.seconds += dt - frame[1]
                edge = tracer.edges[(stack[-1][0] if stack else None, layer)]
                edge.calls += 1
                edge.seconds += dt
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Patch every lgmet binding of every traced function; return the bindings."""
        import importlib

        self.missing = []
        wrappers = {}
        for layer, targets in LAYERS.items():
            for target in targets:
                modname, attr = target.split(":")
                fn = getattr(importlib.import_module(modname), attr, None)
                if fn is None:
                    self.missing.append(target)
                    continue
                wrappers[id(fn)] = (fn, self._wrap(layer, fn, self._HOOKS.get(target)))
        patched = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "lgmet" or modname.startswith("lgmet.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._bindings.append((module, attr, value))
                    patched.append("%s.%s" % (modname, attr))
        return sorted(patched)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def unpatched_bindings(self) -> list[str]:
        """Bindings of a traced original left in any lgmet namespace (should be none)."""
        originals = {id(orig) for _, _, orig in self._bindings}
        left = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "lgmet" or modname.startswith("lgmet.")):
                continue
            for attr, value in vars(module).items():
                if id(value) in originals:
                    left.append("%s.%s" % (modname, attr))
        return left

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer metrics accumulated since the last reset."""
        out = {}
        for layer in LAYERS:
            stat = self.stats.get(layer, _Stat())
            out[layer + ".calls"] = stat.calls
            out[layer + ".self_s"] = stat.seconds
        qfi_calls = out["estimation.qfi.calls"]
        spin_calls = out["spin.make_spin_system.calls"]
        evals = out["correlations.correlation.calls"] + out["correlations.correlation_derivatives.calls"]
        out["estimation.qfi.useful_frac"] = len(self._qfi_keys) / qfi_calls if qfi_calls else 0.0
        out["spin.make_spin_system.useful_frac"] = (len(self._spin_keys) / spin_calls
                                                    if spin_calls else 0.0)
        out["correlations.kernel_builds"] = self.kernel_builds
        out["correlations.kernel_reuse"] = evals / self.kernel_builds if self.kernel_builds else 0.0
        out["scan.serialize.bytes"] = self.serialize_bytes
        out["scan.render_svg.bytes"] = self.svg_bytes
        return out

    def edge_summary(self) -> list[dict]:
        return [{"caller": caller, "layer": layer, "calls": s.calls, "total_s": s.seconds}
                for (caller, layer), s in sorted(self.edges.items(), key=lambda kv: -kv[1].seconds)]
