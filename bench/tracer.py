"""Span tracer that times tawq from outside the package.

`Tracer.install` replaces tawq's public functions and layer methods with
wrappers that record one span per call: name, start, end and the index of
the enclosing span.  A function is replaced in every tawq module that holds
it, so a name that `layers` imported from `quantizer`, or `checkpoint` from
`runtime`, is traced where it is called.  Spans stay in memory; `dump`
writes them out once the run is over.  A span's self time is its duration
minus the durations of its direct children (calls are synchronous, so the
children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# Public entry points per module, traced as "<module>.<name>".
FUNCTIONS = {
    "data": ("build_dataset", "gen_rate_patterns"),
    "runconfig": ("build_network",),
    "quantizer": ("normalize_stimulus", "normalize_backward", "tawq_forward",
                  "tawq_backward", "compute_scaling_all"),
    "trainer": ("train", "evaluate", "softmax_cross_entropy", "collect_gradients",
                "clip_and_step", "mean_weight_entropy"),
    "runtime": ("pack_ternary", "unpack_ternary", "ac_only_matmul",
                "fold_parameters", "fold_network", "folded_forward"),
    "checkpoint": ("checkpoint_from_network", "save_checkpoint", "load_checkpoint",
                   "network_from_checkpoint"),
    "analysis": ("weight_entropy", "entropy_report", "count_sops", "energy_total",
                 "energy_hardware", "firing_rate_stats"),
}

# Layer methods, traced as "layers.<Class>.<method>".
METHODS = {
    "Linear": ("forward", "backward"),
    "QuantLinear": ("forward", "backward", "materialize"),
    "Conv2d": ("forward", "backward"),
    "QuantConv2d": ("forward", "backward", "materialize"),
    "BatchNorm": ("forward", "backward"),
    "LIF": ("forward", "backward"),
    "AvgPool2d": ("forward", "backward"),
    "Flatten": ("forward", "backward"),
    "Network": ("forward", "backward"),
}

MODULES = (*FUNCTIONS, "layers")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index, rep]
        self.counters: dict[tuple[bool, str], float] = {}
        self.rep = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._last_stimulus: dict[int, tuple[object, object]] = {}
        self.originals: dict[str, object] = {}

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter of the current scope (set-up or reps)."""
        key = (self.rep >= 0, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.rep]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a phase of the benchmark itself."""
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def _wrap(self, name: str, fn, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            span = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
        return traced

    def _note_materialize(self, layer) -> None:
        # The optimizer replaces params["stimulus"] on every step, so an
        # identical array object means the weights being regenerated are
        # the ones the layer already holds.
        stimulus = layer.params["stimulus"]
        last = self._last_stimulus.get(id(layer))
        self.count("materialize.calls")
        if last is None or last[1] is not stimulus:
            self.count("materialize.changed")
        self._last_stimulus[id(layer)] = (layer, stimulus)

    def install(self) -> None:
        """Replace every traced entry point; `uninstall` restores them."""
        import tawq.layers

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tawq" or n.startswith("tawq."))]
        for mod_name, names in FUNCTIONS.items():
            home = sys.modules[f"tawq.{mod_name}"]
            for fname in names:
                original = getattr(home, fname)
                self.originals[f"{mod_name}.{fname}"] = original
                wrapped = self._wrap(f"{mod_name}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, value))
                            setattr(module, attr, wrapped)
        for cls_name, methods in METHODS.items():
            cls = getattr(tawq.layers, cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                before = self._note_materialize if meth == "materialize" else None
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"layers.{cls_name}.{meth}",
                                              original, before))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, list]:
        """Per span name: [self s in set-ups, calls in set-ups, self s in
        reps, calls in reps].  Set-up spans carry rep -1."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (name, start, end, _, rep) in enumerate(self.spans):
            entry = out.setdefault(name, [0.0, 0, 0.0, 0])
            k = 2 if rep >= 0 else 0
            entry[k] += (end - start) - child[i]
            entry[k + 1] += 1
        return out

    def duration(self, name: str) -> float:
        """Total inclusive duration of the `name` spans in reps."""
        return sum(end - start for n, start, end, _, rep in self.spans
                   if n == name and rep >= 0)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of `name` made (directly or not) inside an `ancestor` span."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def dump(self, path: str, extra: dict) -> None:
        """Write the header record, then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(extra, sort_keys=True) + "\n")
            for i, (name, start, end, parent, rep) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "rep": rep})
                         + "\n")
