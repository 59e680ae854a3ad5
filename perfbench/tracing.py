"""Span tracer for the per-layer metrics; installed only around traced requests.

``Tracer.install`` wraps the public matholab functions listed below in every
module namespace that binds them (and methods on their classes), plus
``numpy.linalg.lstsq``. Each call records a span: name, start, end, parent
span and request number, kept in flat in-memory arrays. ``layer_metrics``
turns them into per-request self times and call counts at the end of the
run; ``dump`` writes the raw spans out.

Self time is a span's duration minus the durations of its direct children.
Spans nest strictly (one thread), so children never overlap.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function, span name, layer) for module-level functions
FUNCTIONS = (
    ("matholab.laurent", "evaluate_many", "laurent.evaluate_many", "laurent"),
    ("matholab.laurent", "refit_on_circle", "laurent.refit_on_circle", "laurent"),
    ("matholab.blaschke", "validate", "blaschke.validate", "blaschke"),
    ("matholab.conjugations", "crofoot_map", "conjugations.crofoot_map", "conjugations"),
    ("matholab.conjugations", "tau", "conjugations.maps", "conjugations"),
    ("matholab.conjugations", "jstar", "conjugations.maps", "conjugations"),
    ("matholab.operators", "build_matto", "operators.build", "operators"),
    ("matholab.operators", "build_matho", "operators.build", "operators"),
    ("matholab.operators", "displacement_check", "operators.displacement_check", "operators"),
    ("matholab.operators", "recover_symbol", "operators.recover_symbol", "operators"),
    ("matholab.operators", "kernel_test", "operators.kernel_test", "operators"),
    ("matholab.operators", "verify_transform", "operators.verify_transform", "operators"),
    ("matholab.cli", "parse_scenario", "cli.parse", "cli"),
    ("matholab.cli", "run_command", "cli.run", "cli"),
    ("matholab.cli", "emit_report", "cli.emit", "cli"),
)

# (module, class, method, span name, layer)
METHODS = (
    ("matholab.laurent", "MatrixLaurent", "mul", "laurent.mul", "laurent"),
    ("matholab.blaschke", "BlaschkePotapovProduct", "laurent", "blaschke.laurent", "blaschke"),
    ("matholab.modelspace", "ModelSpace", "coords", "modelspace.coords", "modelspace"),
    ("matholab.modelspace", "ModelSpace", "from_product", "modelspace.from_product", "modelspace"),
    ("matholab.conjugations", "CTheta", "apply", "conjugations.maps", "conjugations"),
)

# counted, not timed: called once per basis function inside coords
COUNTED = (("matholab.laurent", "inner_product", "laurent.inner_product", "laurent"),)

LAYERS = ("laurent", "blaschke", "modelspace", "operators", "conjugations", "cli")
LSTSQ = "numpy.linalg.lstsq"
KEYED = "modelspace.from_product"


def _space_key(signature, args, kwargs):
    """(theta, order) of a from_product call, for the distinct-key ratio."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    theta = bound.arguments["theta"]
    return json.dumps(theta.to_json()), bound.arguments["order"]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.counts = Counter()
        self.errors = Counter()
        self.keys = set()
        self.request = -1
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, fn, name, layer):
        nid = self._name_id(name)
        key_sig = inspect.signature(fn) if name == KEYED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_sig is not None:
                self.keys.add(_space_key(key_sig, args, kwargs))
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_request.append(self.request)
            self.span_end.append(0.0)
            self._stack.append(idx)
            self.span_start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self.span_end[idx] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def _counter(self, fn, name, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new):
        """Rebind ``original`` in every matholab module namespace that binds it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "matholab" and not mod_name.startswith("matholab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, new)

    def install(self):
        for mod_name, func, name, layer in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), func)
            self._patch_everywhere(original, self._span(original, name, layer))
        for mod_name, func, name, layer in COUNTED:
            original = getattr(importlib.import_module(mod_name), func)
            self._patch_everywhere(original, self._counter(original, name, layer))
        for mod_name, cls_name, meth, name, layer in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self._span(raw.__func__, name, layer)))
            else:
                self._patch(cls, meth, self._span(raw, name, layer))
        self._patch(np.linalg, "lstsq", self._span(np.linalg.lstsq, LSTSQ, "numpy"))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def dump(self, path):
        """Write every span as one JSON line: name, request, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps([self.names[self.span_name[i]], self.span_request[i],
                                     self.span_start[i], self.span_end[i],
                                     self.span_parent[i]]) + "\n")

    def layer_metrics(self, n_requests):
        """Per-layer metrics as {name: (value, unit)}; times and calls are per request."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parents >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_time = dur - child
        # spans with an operators.kernel_test ancestor; parents precede children
        kt = self._name_ids.get("operators.kernel_test", -1)
        under_kt = np.zeros(len(dur), dtype=bool)
        for i, p in enumerate(parents.tolist()):
            if p >= 0:
                under_kt[i] = under_kt[p] or names[p] == kt

        def mask(name):
            return names == self._name_ids.get(name, -1)

        per = 1.0 / max(n_requests, 1)
        out = {}

        def calls(name, key=None):
            out[f"{key or name}.calls"] = (int(mask(name).sum()) * per, "1/req")

        def self_s(name, key=None):
            out[f"{key or name}.self_s"] = (float(self_time[mask(name)].sum()) * per, "s/req")

        calls("operators.kernel_test")
        self_s("operators.kernel_test")
        out["operators.kernel_test.lstsq_s"] = (float(dur[mask(LSTSQ) & under_kt].sum()) * per,
                                                "s/req")
        out["operators.kernel_test.mul_calls"] = (int((mask("laurent.mul") & under_kt).sum()) * per,
                                                  "1/req")
        calls("laurent.mul")
        self_s("laurent.mul")
        self_s("laurent.evaluate_many")
        self_s("laurent.refit_on_circle")
        calls("conjugations.crofoot_map")
        self_s("conjugations.crofoot_map")
        out["laurent.inner_product.calls"] = (self.counts["laurent.inner_product"] * per, "1/req")
        calls("modelspace.coords")
        self_s("modelspace.coords")
        calls("modelspace.from_product")
        self_s("modelspace.from_product")
        n_spaces = int(mask("modelspace.from_product").sum())
        out["modelspace.from_product.distinct_ratio"] = (
            len(self.keys) / n_spaces if n_spaces else 0.0, "ratio")
        calls("blaschke.validate")
        self_s("blaschke.validate")
        self_s("blaschke.laurent")
        calls("operators.build")
        self_s("operators.build")
        self_s("operators.displacement_check")
        self_s("operators.recover_symbol")
        self_s("operators.verify_transform")
        self_s("conjugations.maps")
        self_s("cli.parse")
        self_s("cli.run")
        self_s("cli.emit")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        return out
