"""In-memory span and counter tracing of demostab's layers, from outside.

The tracer replaces public functions (and a few methods) with wrappers that
record a span (name, start, end, parent) per call and bump counters.  A
function is rebound in every ``demostab`` module namespace that holds the same
object, so calls through ``cli``, ``certify`` or ``multi`` are seen as well as
direct ones.  Nothing inside ``src/`` is edited.  Spans stay in memory until
``dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path


def _steps(traj, args) -> int:
    return len(traj.times) - 1


def _batch_steps(result, args) -> int:
    times, states, _ = result
    return (len(times) - 1) * states.shape[2]


def _saved_bytes(result, args) -> int:
    return os.path.getsize(args[1])  # save_demo_set / save_demo_csv(obj, path)


# (module, attribute, span name, counter fed from the call, how to measure it).
# Counters without a measure count calls.  Methods are given as "Class.method".
FUNCTIONS = [
    ("sim", "simulate_closed_loop", "sim.record", "sim.record_steps", _steps),
    ("demos", "to_zv", "demos.to_zv", None, None),
    ("demos", "validate_affine_independence", "demos.validate", None, None),
    ("demos", "save_demo_set", "demos.io", "demos.io_bytes", _saved_bytes),
    ("demos", "save_demo_csv", "demos.io", "demos.io_bytes", _saved_bytes),
    ("demos", "load_demo_set", "demos.io", None, None),
    ("embed", "transform_demos", "embed.transform", None, None),
    ("embed", "simulate_embedded_closed_loop", "embed.closed_loop",
     "embed.closed_loop_steps", _steps),
    ("learner", "build_basis", "learner.build_basis", "learner.build_basis_calls", None),
    ("learner", "simulate_chain_batch", "learner.chain_sim", "learner.chain_steps",
     _batch_steps),
    ("learner", "save_controller", "learner.io", None, None),
    ("learner", "load_controller", "learner.io", None, None),
    ("certify", "certificate", "certify.certificate", None, None),
    ("certify", "find_T_tilde", "certify.find_T_tilde", None, None),
    ("certify", "contraction_check", "certify.contraction", None, None),
    ("geometry", "delaunay", "geometry.delaunay", None, None),
    ("geometry", "locate", "geometry.locate", "geometry.locate_calls", None),
    ("geometry", "project_to_hull", "geometry.project", "geometry.project_calls", None),
    ("multi", "MultiController.__init__", "multi.build", None, None),
    ("multi", "MultiController._select_simplex", "multi.select", "multi.select_calls", None),
    ("systems", "flat_quad_demo_set", "systems.quad_demos", None, None),
    ("systems", "simulate_tracking", "systems.tracking", None, None),
    ("cli", "cmd_demos", "cli.stage", None, None),
    ("cli", "cmd_learn", "cli.stage", None, None),
    ("cli", "cmd_simulate", "cli.stage", None, None),
    ("cli", "cmd_track", "cli.stage", None, None),
]

# Called hundreds of thousands of times per run: counted, never timed.
COUNTED_METHODS = [
    ("learner", "LearnedController.eval_in_interval", "learner.ctrl_evals"),
    ("multi", "MultiController.eval_in_interval", "learner.ctrl_evals"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def _wrap_span(self, fn, name, counter, measure):
        spans, counts, open_ = self.spans, self.counts, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                open_.pop()
            if counter is not None:
                counts[counter] += 1 if measure is None else measure(result, args)
            return result

        return wrapper

    def _wrap_count(self, fn, counter):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, module, attr, make):
        """Swap ``module.attr`` for ``make(original)`` wherever demostab binds it."""
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth]))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "demostab" or mod_name.startswith("demostab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for mod_name, attr, name, counter, measure in FUNCTIONS:
            module = importlib.import_module(f"demostab.{mod_name}")
            self._rebind(module, attr,
                         lambda fn, n=name, c=counter, m=measure: self._wrap_span(fn, n, c, m))
        for mod_name, attr, counter in COUNTED_METHODS:
            module = importlib.import_module(f"demostab.{mod_name}")
            self._rebind(module, attr, lambda fn, c=counter: self._wrap_count(fn, c))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return dict(out)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts)}))
