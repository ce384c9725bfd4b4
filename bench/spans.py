"""Span tracing of delayopt's layers from outside the package.

Tracer.install() replaces each public function of the package's modules,
wherever a module binds it by name (hjb binds sdde.mc_cost, operators binds
core.lifted_inner, the package binds everything it re-exports), with a
wrapper that records a span (name, start, end, parent). A few methods are
wrapped on their classes, and the spec callbacks, which are closures held
by a frozen ProblemSpec, are wrapped on every spec that load_spec_file
returns. uninstall() restores every binding, so untraced calls in the same
process run the original code.

A span's self time is its duration minus the time its child spans cover.
Self time is summed per metric key: a span whose name is in KEYS uses that
key, any other span inherits its parent's key when the parent is in the
same layer, and otherwise counts as "<layer>.other".
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("core", "models", "sdde", "lift", "hjb", "operators", "output", "cli")
METHODS = (("hjb", "PolicyField", "index_at"), ("sdde", "BrownianDriver", "increments"))
CALLBACKS = ("drift", "noise", "cost")

_FORMS = ("dissipativity_form", "generator_inverse_form", "apply_generator",
          "apply_generator_inverse", "apply_shift_semigroup", "minus_one_norm",
          "lifted_norm_sq", "random_smooth_state")
KEYS = {
    "cli.main": "cli",
    "hjb.value_iteration": "hjb.solve",
    "hjb.PolicyField.index_at": "hjb.policy_lookup",
    "hjb.extract_feedback": "hjb.feedback",
    "sdde.mc_cost": "sdde.mc",
    "sdde.simulate_sdde": "sdde.simulate",
    "sdde.BrownianDriver.increments": "sdde.increments",
    "sdde.batch_increments": "sdde.increments",
    "models.load_spec_file": "models.load",
    "operators.assemble_gram_operator": "operators.assemble",
    "operators.spectral_decomposition": "operators.spectral",
    "operators.g_operator_norm": "operators.g_norm",
    "core.lifted_inner": "core.lifted_inner",
    "lift.equivalence_report": "lift.report",
    "lift.simulate_mild": "lift.mild",
    "output.write_csv": "output.write",
    "output.write_manifest": "output.write",
    "output.write_svg_lines": "output.write",
    **{f"models.{cb}": "models.coeff" for cb in CALLBACKS},
    **{f"operators.{f}": "operators.forms" for f in _FORMS},
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counters, args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- installation ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        wrapped = {}                        # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self.wrap(name, obj, _OBSERVERS.get(name))
        load = mods["models"].load_spec_file
        wrapped[id(load)] = self.wrap("models.load_spec_file",
                                      self._wrap_callbacks_of(load))
        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        for short, cls, meth in METHODS:
            owner = getattr(mods[short], cls)
            name = f"{short}.{cls}.{meth}"
            self._set(owner, meth, self.wrap(name, getattr(owner, meth),
                                             _OBSERVERS.get(name)))

    def _wrap_callbacks_of(self, load):
        def load_spec_file(path):
            spec = load(path)
            return dataclasses.replace(spec, **{
                cb: self.wrap(f"models.{cb}", getattr(spec, cb)) for cb in CALLBACKS})
        return load_spec_file

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------

    def summarize(self) -> tuple[dict, dict, dict]:
        """Self seconds and call counts per key, and inclusive seconds per span name."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        keys: list[str] = []
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        inclusive: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            key = KEYS.get(name)
            if key is not None:
                calls[key] += 1
            elif parent >= 0 and _layer(spans[parent][0]) == _layer(name):
                key = keys[parent]
            else:
                key = f"{_layer(name)}.other"
            keys.append(key)
            self_s[key] += end - start - child[i]
            inclusive[name] += end - start
        return self_s, calls, inclusive

    def write(self, path: Path) -> None:
        """CSV of every span: name, start and end (s, from the first span), parent row."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


# -- counters read at the layer boundaries ------------------------------


def _observe_solve(counters, args, kwargs, result):
    counters["hjb.sweeps"] += result.iterations
    counters["hjb.clamp_rate"] = result.clamp_rate


def _observe_lookup(counters, args, kwargs, result):
    counters["hjb.policy_lookups"] += len(result)


_MC_ARGS = ("spec", "x", "ctrl", "T", "delta", "n_paths")


def _observe_mc(counters, args, kwargs, result):
    bound = dict(zip(_MC_ARGS, args), **kwargs)
    counters["sdde.path_steps"] += bound["n_paths"] * round(bound["T"] / bound["delta"])


def _observe_gram(counters, args, kwargs, result):
    counters["operators.gram_dim"] = result.matrix.shape[0]


def _observe_csv(counters, args, kwargs, result):
    counters["output.csv_rows"] += len(args[2] if len(args) > 2 else kwargs["rows"])
    counters["output.csv_bytes"] += Path(result).stat().st_size


_OBSERVERS = {
    "hjb.value_iteration": _observe_solve,
    "hjb.PolicyField.index_at": _observe_lookup,
    "sdde.mc_cost": _observe_mc,
    "operators.assemble_gram_operator": _observe_gram,
    "output.write_csv": _observe_csv,
}
