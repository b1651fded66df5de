"""Span tracing of the trajattack layers, installed from outside the package.

The tracer replaces selected functions and methods of the package with
timing wrappers: a module-level function is replaced under every name any
``trajattack`` module binds it to (``from .x import f`` copies the
binding), a method is replaced on its class.  Each call records one span
(layer, start, end, parent span, request) in memory; ``uninstall`` puts
the originals back.  Targets that do not exist in the package under test
are recorded as absent, so a later version that deletes a function still
traces the rest.

Spans nest: a layer's inclusive time counts only its outermost spans, so a
layer that calls itself (``predict`` calling ``predict_xy``) is not counted
twice.  Self time is a span's duration minus its direct children's.

Only layer boundaries are wrapped, never the per-scalar tape operations or
``step_xy``: those run about 10^5 times per attack and a wrapper there
would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# layer name -> (module, attribute) targets; "Class.method" names a method.
LAYERS = {
    "scenario_io.generate": [("trajattack.scenario_io", "sample_left_turn_params"),
                             ("trajattack.scenario_io", "generate_left_turn"),
                             ("trajattack.scenario_io", "write_scenarios")],
    "scenario_io.ingest": [("trajattack.scenario_io", "ingest_scenarios")],
    "attack.bounds": [("trajattack.attack", "dataset_accel_bounds")],
    "attack.problem_init": [("trajattack.attack", "AttackProblem.__init__")],
    "attack.loss_and_grad": [("trajattack.attack", "AttackProblem.loss_and_grad")],
    "attack.eval_loss": [("trajattack.attack", "AttackProblem.eval_loss")],
    "attack.feasibility": [("trajattack.attack", "AttackProblem.feasibility")],
    "dynamics.rollout": [("trajattack.attack", "AttackProblem._roll_all"),
                         ("trajattack.attack", "AttackProblem.positions"),
                         ("trajattack.dynamics", "rollout"),
                         ("trajattack.dynamics", "rollout_xy"),
                         ("trajattack.dynamics", "joint_rollout")],
    "predictor.forward": [("trajattack.predictor", "KinematicPredictor.predict_xy"),
                          ("trajattack.predictor", "KinematicPredictor.predict")],
    "objectives.forward": [("trajattack.objectives", "ade_xy"),
                           ("trajattack.objectives", "fde_xy"),
                           ("trajattack.objectives", "collision_fp_xy"),
                           ("trajattack.objectives", "collision_fn_xy"),
                           ("trajattack.objectives", "compose_total_loss")],
    "barriers.forward": [("trajattack.barriers", "observed_barrier"),
                         ("trajattack.barriers", "barrier_time"),
                         ("trajattack.barriers", "barrier_traj"),
                         ("trajattack.barriers", "barrier_time_traj")],
    "barriers.distances": [("trajattack.barriers", "constraint_distances")],
    "gradtape.backward": [("trajattack.gradtape", "grad"),
                          ("trajattack.gradtape", "backward")],
    "metrics.rows": [("trajattack.metrics", "compute_attack_row"),
                     ("trajattack.metrics", "compute_baseline_row"),
                     ("trajattack.metrics", "aggregate")],
    "metrics.write": [("trajattack.metrics", "write_rows_jsonl"),
                      ("trajattack.metrics", "write_rows_csv")],
    "cli.report": [("trajattack.cli", "cmd_report")],
}

# Spans the benchmark opens itself around a whole round and a whole attack.
ROUND = "bench.round"
ATTACK = "bench.run_attack"


def resolve(module_name, attr):
    """(owner, name, original) for a target, or None if the package lacks it."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name, vars(owner)[name]


def rebind(original, replacement):
    """Rebind every trajattack module name bound to original.

    Returns the (module, name, original) patches, for undoing.
    """
    patches = []
    for module_name, module in sorted(sys.modules.items()):
        if module_name == "trajattack" or module_name.startswith("trajattack."):
            for key, val in list(vars(module).items()):
                if val is original:
                    setattr(module, key, replacement)
                    patches.append((module, key, original))
    return patches


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.names = []            # layer index -> layer name
        self._index = {}
        self.spans = []            # (layer, start, end, parent, request)
        self.request = -1          # attack index of the current request
        self._stack = []
        self._patches = []         # (owner, name, original)
        self.absent = []           # targets missing from the package
        self.active = False

    def layer_id(self, name):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def begin(self, name):
        """Open a span by hand; returns a token for ``end``."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, self.layer_id(name), parent, perf_counter()

    def end(self, token):
        idx, layer, parent, start = token
        stop = perf_counter()
        self._stack.pop()
        self.spans[idx] = (layer, start, stop, parent, self.request)

    def _wrap(self, fn, layer):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stop = perf_counter()
                stack.pop()
                spans[idx] = (layer, start, stop, parent, self.request)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        if self.active:
            return
        self.absent = []
        for layer_name, targets in LAYERS.items():
            layer = self.layer_id(layer_name)
            for module_name, attr in targets:
                found = resolve(module_name, attr)
                if found is None:
                    self.absent.append(f"{module_name}:{attr}")
                    continue
                owner, name, original = found
                wrapper = self._wrap(original, layer)
                if isinstance(owner, type):
                    self._patches.append((owner, name, original))
                    setattr(owner, name, wrapper)
                else:
                    self._patches += rebind(original, wrapper)
        self.active = True

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []
        self.active = False

    def absent_layers(self):
        """Layers none of whose targets exist in the package under test."""
        missing = set(self.absent)
        return sorted(layer for layer, targets in LAYERS.items()
                      if all(f"{m}:{a}" in missing for m, a in targets))

    def totals(self, request_filter=None):
        """Per layer: (outermost inclusive seconds, outermost count, self seconds).

        request_filter selects spans by their request id (None: all spans).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, start, stop, parent, _ in spans:
            if parent >= 0:
                child[parent] += stop - start
        out = {}
        for i, (layer, start, stop, parent, request) in enumerate(spans):
            if request_filter is not None and not request_filter(request):
                continue
            dur = stop - start
            incl, count, self_s = out.get(layer, (0.0, 0, 0.0))
            self_s += dur - child[i]
            p = parent
            while p >= 0 and spans[p][0] != layer:
                p = spans[p][3]
            if p < 0:
                incl += dur
                count += 1
            out[layer] = (incl, count, self_s)
        return {self.names[k]: v for k, v in out.items()}

    def write(self, path):
        """Write every span as one JSON line (names resolved)."""
        with open(path, "w") as fh:
            for layer, start, stop, parent, request in self.spans:
                fh.write(json.dumps({"name": self.names[layer], "start": start,
                                     "end": stop, "parent": parent,
                                     "request": request}) + "\n")
