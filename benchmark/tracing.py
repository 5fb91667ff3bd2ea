"""Span tracing around the public functions of the potscape modules.

The tracer patches functions from outside the package: every module attribute
that is bound to a traced function is replaced, because several modules bind
functions by name at import (``landscape`` and ``training`` import
``tables_loss``; ``cli`` imports ``run_ensemble``; ``model`` imports
``basis_values``).  Methods are patched on their class.  Spans are kept in
memory as ``(id, parent, name, start, end)`` and reduced to per-function
statistics; ``self`` time is a span's duration minus the union of its child
spans, so overlapping children from a worker pool are not counted twice.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

# (module, attribute path, reported name).  NeuralPotential.energy_forces and
# _PairPotential.energy_forces are reported as model.energy_forces and
# potentials.energy_forces.
TRACED = [
    ("data", "generate_reference_dataset", "data.generate_reference_dataset"),
    ("data", "split_by_temperature", "data.split_by_temperature"),
    ("data", "read_extxyz_file", "data.read_extxyz_file"),
    ("data", "write_extxyz_file", "data.write_extxyz_file"),
    ("potentials", "_PairPotential.energy_forces", "potentials.energy_forces"),
    ("potentials", "build_cluster", "potentials.build_cluster"),
    ("geometry", "pair_table", "geometry.pair_table"),
    ("descriptors", "basis_values", "descriptors.basis_values"),
    ("model", "NeuralPotential.energy_forces", "model.energy_forces"),
    ("model", "DatasetTables.__init__", "model.DatasetTables"),
    ("model", "tables_loss", "model.tables_loss"),
    ("model", "tables_loss_grad", "model.tables_loss_grad"),
    ("model", "loss_eval", "model.loss_eval"),
    ("model", "fit_rescale", "model.fit_rescale"),
    ("model", "save_checkpoint", "model.save_checkpoint"),
    ("model", "load_checkpoint", "model.load_checkpoint"),
    ("training", "train", "training.train"),
    ("training", "Adam.step", "training.Adam.step"),
    ("landscape", "landscape_1d", "landscape.landscape_1d"),
    ("landscape", "landscape_2d", "landscape.landscape_2d"),
    ("landscape", "interpolate_models", "landscape.interpolate_models"),
    ("landscape", "write_profile_csv", "landscape.write_profile_csv"),
    ("landscape", "read_profile_csv", "landscape.read_profile_csv"),
    ("landscape", "write_surface_csv", "landscape.write_surface_csv"),
    ("entropy", "entropy_from_profile", "entropy.entropy_from_profile"),
    ("entropy", "write_report_json", "entropy.write_report_json"),
    ("md", "run_ensemble", "md.run_ensemble"),
    ("md", "run_trajectory", "md.run_trajectory"),
    ("md", "md_step", "md.md_step"),
    ("md", "write_ensemble_json", "md.write_ensemble_json"),
    ("md", "write_summary_csv", "md.write_summary_csv"),
    ("analysis", "rmse_by_split", "analysis.rmse_by_split"),
    ("analysis", "write_rmse_csv", "analysis.write_rmse_csv"),
    ("cli", "run_command", "cli.run_command"),
]


def _work_count(name, args):
    """Work done by one call, where the function has a natural unit."""
    if name in ("model.tables_loss", "model.tables_loss_grad"):
        return "pairs", len(args[1].gi)
    if name in ("model.energy_forces", "potentials.energy_forces", "geometry.pair_table"):
        positions = args[1] if name != "geometry.pair_table" else args[0]
        return "atoms", len(positions)
    if name == "analysis.rmse_by_split":
        return "frames", sum(len(d) for d in args[1].values())
    if name == "data.read_extxyz_file":
        return "bytes", os.path.getsize(args[0])
    if name == "data.write_extxyz_file":
        return "bytes", os.path.getsize(args[1])
    return None


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []          # [id, parent, name, start, end]
        self.work = {}           # span id -> (unit, amount)
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()
        self._patches = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool worker's span is caused by the main thread's open span
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span = [len(self.spans), parent, name, time.perf_counter(), None]
            self.spans.append(span)
        stack.append(span[0])
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def stage(self, name):
        """A benchmark stage span (``stage.<name>``); traced calls nest under it."""
        span = self._open(f"stage.{name}")
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            work = _work_count(name, args)
            if work is not None:
                tracer.work[span[0]] = work
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self):
        modules = {m: sys.modules[f"potscape.{m}"] for m, _, _ in TRACED}
        every = [mod for key, mod in sys.modules.items()
                 if mod is not None and (key == "potscape" or key.startswith("potscape."))]
        for mod_name, path, name in TRACED:
            owner = modules[mod_name]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, name))
                continue
            fn = getattr(owner, path)
            wrapper = self._wrap(fn, name)
            for mod in every:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches = []

    # -- reduction ----------------------------------------------------------

    def stats(self):
        """Per-function and per-module calls, seconds and self seconds.

        Function entries are also split by the benchmark stage that caused
        them.  A module's ``s`` counts only spans with no ancestor in the
        same module, so nested calls are not counted twice.
        """
        children = {}
        for span in self.spans:
            if span[1] is not None:
                children.setdefault(span[1], []).append(span)
        by_id = {s[0]: s for s in self.spans}

        def ancestors(span):
            while span[1] is not None:
                span = by_id[span[1]]
                yield span

        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
        functions, modules = {}, {}
        for span in self.spans:
            if span[2].startswith("stage."):
                continue
            dur = span[4] - span[3]
            own = dur - _union_length([(c[3], c[4]) for c in children.get(span[0], ())])
            up = list(ancestors(span))
            if not up or not up[-1][2].startswith("stage."):
                continue   # the benchmark reading results back, not pipeline work
            stage = up[-1][2][len("stage."):]
            entry = functions.setdefault(span[2], {**zero, "by_stage": {}, "work": {}})
            if span[0] in self.work:
                unit, amount = self.work[span[0]]
                entry["work"][unit] = entry["work"].get(unit, 0) + amount
            row = entry["by_stage"].setdefault(stage, dict(zero))
            for target in (entry, row):
                target["calls"] += 1
                target["s"] += dur
                target["self_s"] += own
            module = span[2].split(".")[0]
            agg = modules.setdefault(module, dict(zero))
            agg["calls"] += 1
            agg["self_s"] += own
            if not any(a[2].split(".")[0] == module for a in up):
                agg["s"] += dur
        return {"functions": functions, "modules": modules}

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _union_length(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total
