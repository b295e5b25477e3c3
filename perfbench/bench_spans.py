"""Span tracing of qdsim's public functions, installed from outside.

Every public function of the layer modules, and every public method (plus
``__init__``) of their public classes, is replaced by a wrapper that records
one span per call: name, parent span, start and end. Modules that bound a
function with ``from ... import`` hold their own reference to it, so the
wrapper is installed under every name in every ``qdsim`` module that refers
to the original, not only in the defining module. Spans stay in memory until
``write`` is called; ``layer_metrics`` derives the per-layer figures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "cli",
    "scenario",
    "run",
    "output",
    "dynamics",
    "qubit",
    "states",
    "kraus",
    "linalg",
    "rootfind",
    "models.jaynes_cummings",
    "models.dirac",
    "models.neutrino",
)


def _steps(t_end, step) -> int:
    return int(round(t_end / step))


def _count_evolve(counts, bound, result):
    cfg = bound["cfg"]
    counts["dynamics.evolve.steps"] += _steps(cfg.t_end, cfg.step)


def _count_neutrino(counts, bound, result):
    counts["models.neutrino.neutrino_evolve.steps"] += _steps(bound["L_end"], bound["step"])


def _count_bmt(counts, bound, result):
    counts["models.dirac.bmt_evolve.steps"] += _steps(bound["tau_end"], bound["step"])
    counts["models.dirac.bmt_evolve.samples"] += len(result)


def _count_csv(counts, bound, result):
    counts["output.emit_csv.bytes"] += os.path.getsize(bound["path"])


def _count_svg(counts, bound, result):
    counts["output.emit_svg.bytes"] += os.path.getsize(bound["path"])


# counts taken from call arguments or results, keyed by span name
_COUNTERS = {
    "dynamics.evolve": _count_evolve,
    "models.neutrino.neutrino_evolve": _count_neutrino,
    "models.dirac.bmt_evolve": _count_bmt,
    "output.emit_csv": _count_csv,
    "output.emit_svg": _count_svg,
}


class Tracer:
    """Records spans of qdsim calls between ``install`` and ``uninstall``."""

    def __init__(self) -> None:
        self.names = []            # span name per name index
        self._name_index = {}
        self.spans = []            # (name index, parent span or -1, start, end, outermost)
        self._stack = []
        self._active = []          # per name index: how many spans of it are open
        self.counts = defaultdict(int)
        self._patches = []         # (owner, attribute, original value)

    def _name(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._name_index[name]

    def _wrap(self, name: str, fn):
        idx = self._name(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            depth = active[idx]
            active[idx] = depth + 1
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[idx] = depth
                spans[me] = (idx, parent, start, end, depth == 0)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        idx = self._name(name)
        me = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(me)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[me] = (idx, parent, start, end, True)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("qdsim." + layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        # rebind every module-level reference, including `from x import f`
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qdsim" or modname.startswith("qdsim.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One span per line: id, parent, root operation, name, start, end."""
        root = []
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for i, (idx, parent, start, end, _) in enumerate(self.spans):
                root.append(i if parent < 0 else root[parent])
                fh.write(f"{i}\t{parent}\t{root[i]}\t{self.names[idx]}\t{start!r}\t{end!r}\n")

    def layer_metrics(self, overhead_s: float) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
        if any(s is None for s in self.spans):
            raise RuntimeError("spans still open")
        n = len(self.spans)
        name_of = np.fromiter((s[0] for s in self.spans), dtype=np.int64, count=n)
        parent = np.fromiter((s[1] for s in self.spans), dtype=np.int64, count=n)
        dur = np.fromiter((s[3] - s[2] for s in self.spans), dtype=float, count=n)
        outer = np.fromiter((s[4] for s in self.spans), dtype=bool, count=n)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        calls, total, own = {}, {}, {}
        for idx, name in enumerate(self.names):
            mask = name_of == idx
            calls[name] = int(mask.sum())
            total[name] = float(dur[mask & outer].sum())  # nested same-name spans once
            own[name] = float(self_time[mask].sum())

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return total.get(name, 0.0)

        out = {}
        for name in (
            "dynamics.gksl_rhs", "dynamics.closed_form_propagate",
            "linalg.matrix_exponential", "kraus.KrausFamily.apply_normalized",
            "dynamics.finite_difference_generator_check",
            "qubit.bloch_trajectory_general", "qubit.bloch_trajectory_case",
            "qubit.single_lindblad_trajectory", "qubit.sl2c_coefficients", "qubit.asymptote",
            "states.bloch_to_density", "states.density_to_bloch", "states.purity",
            "states.von_neumann_entropy", "states.density_matrix",
            "output.emit_csv", "output.emit_svg",
            "models.jaynes_cummings.jc_evolve", "models.jaynes_cummings.jc_mean_energy",
            "scenario.parse_scenario", "rootfind.find_crossing",
        ):
            out[f"{name}.calls"] = (c(name), "count")
            out[f"{name}.s"] = (s(name), "s")
        steps = self.counts["dynamics.evolve.steps"]
        out["dynamics.evolve.calls"] = (c("dynamics.evolve"), "count")
        out["dynamics.evolve.steps"] = (steps, "count")
        out["dynamics.evolve.self_s"] = (own.get("dynamics.evolve", 0.0), "s")
        out["dynamics.evolve.us_per_step"] = (
            1e6 * s("dynamics.evolve") / steps if steps else 0.0, "us")
        out["dynamics.Generator.builds"] = (c("dynamics.Generator.__init__"), "count")
        out["dynamics.Generator.s"] = (s("dynamics.Generator.__init__"), "s")
        out["run.run.calls"] = (c("run.run"), "count")
        out["run.run.self_s"] = (own.get("run.run", 0.0), "s")
        for kind in ("emit_csv", "emit_svg"):
            out[f"output.{kind}.bytes"] = (self.counts[f"output.{kind}.bytes"], "bytes")
        nu_steps = self.counts["models.neutrino.neutrino_evolve.steps"]
        out["models.neutrino.neutrino_evolve.s"] = (s("models.neutrino.neutrino_evolve"), "s")
        out["models.neutrino.neutrino_evolve.steps"] = (nu_steps, "count")
        out["models.neutrino.neutrino_evolve.us_per_step"] = (
            1e6 * s("models.neutrino.neutrino_evolve") / nu_steps if nu_steps else 0.0, "us")
        out["models.dirac.bmt_evolve.s"] = (s("models.dirac.bmt_evolve"), "s")
        out["models.dirac.bmt_evolve.steps"] = (self.counts["models.dirac.bmt_evolve.steps"], "count")
        out["models.dirac.bmt_evolve.samples"] = (
            self.counts["models.dirac.bmt_evolve.samples"], "count")
        out["cli.main.self_s"] = (own.get("cli.main", 0.0), "s")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

