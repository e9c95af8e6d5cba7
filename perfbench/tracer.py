"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces module attributes with timing wrappers.  Names
bound by `from .x import f` are separate attributes of each importing
module, so every caller's name is patched (`harness.run` and `hardball.run`
both wrap `simulator.run`).  Spans stay in memory with their parent span
and op index; `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

NS = (2, 3, 4, 5)
BFK_METHODS = ("closed_form", "multistart", "grid_oracle")
CONSTANTS_BY_N = (
    "bounds_report",
    "bfk_constant",
    "capacity_delta",
    "charge_phi",
    "charge_SQ",
    "inscribed_ball",
)


def _walls(obj) -> int:
    return obj.n_walls if hasattr(obj, "n_walls") else np.atleast_2d(obj).shape[0]


def _by_n(args, kwargs, out):
    return {"n": _walls(args[0])}


def _bfk(args, kwargs, out):
    return {"n": _walls(args[0]), "method": out.method.value, "starts": out.starts_used}


def _points(args, kwargs, out):
    return {"points": np.atleast_2d(args[1]).shape[0]}


def _run_batch(args, kwargs, out):
    counts, _, terminals = out
    return {"events": int(counts.sum()), "terminals": [t.name for t in terminals]}


def _run(args, kwargs, out):
    return {"events": out.n_collisions, "terminals": [out.terminal.name]}


def _balls(args, kwargs, out):
    return {"events": out.n_collisions}


def _conjugacy(args, kwargs, out):
    return {"max_time_error": out.max_time_error}


def _targets(cb):
    """(owner, attribute, span name, annotator) for every wrapped name."""
    g, h, c, m, s, b = cb.geometry, cb.harness, cb.constants, cb.minimax, cb.simulator, cb.hardball
    out = [
        (g, "jacobi_eigenvalues", "geometry.jacobi_eigenvalues", None),
        (h, "jacobi_eigenvalues", "geometry.jacobi_eigenvalues", None),
        (h, "random_cone", "harness.random_cone", None),
        (h, "interior_starts", "harness.interior_starts", None),
        (h, "interior_start", "harness.interior_start", None),
        (h, "ensemble_run", "harness.ensemble_run", None),
        (h, "bounds_report", "constants.bounds_report", _by_n),
        (h, "inscribed_ball", "constants.inscribed_ball", _by_n),
        (c, "bfk_constant", "constants.bfk_constant", _bfk),
        (m, "multistart_min_max_face_distance", "minimax.multistart_min_max_face_distance", None),
        (m, "sphere_grid_minimize", "minimax.sphere_grid_minimize", None),
        (m.FaceDistance, "distances_and_feet", "minimax.FaceDistance.distances_and_feet", _points),
        (m, "max_min_margin", "minimax.max_min_margin", None),
        (m, "min_max_abs_margin", "minimax.min_max_abs_margin", None),
        (s, "run_batch", "simulator.run_batch", _run_batch),
        (h, "run", "simulator.run", _run),
        (b, "run", "simulator.run", _run),
        (h, "audit", "simulator.audit", None),
        (b, "simulate_balls", "hardball.simulate_balls", _balls),
        (b, "conjugacy_check", "hardball.conjugacy_check", _conjugacy),
    ]
    out += [(c, f, f"constants.{f}", _by_n) for f in CONSTANTS_BY_N if f != "bfk_constant"]
    return out


class Tracer:
    """Wraps the package's public functions and records one span per call.

    A span is [name, start, end, parent index, op index, attributes].
    """

    def __init__(self, cb):
        self.cb = cb
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def _wrap(self, fn, name, annotate):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None])
            stack.append(idx)
            spans[idx][1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if annotate is not None:
                spans[idx][5] = annotate(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, annotate in _targets(self.cb):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, annotate))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op_span(self, index: int):
        """Open the root span of op `index`; returns its span index."""
        self.op = index
        idx = len(self.spans)
        self.spans.append(["op", perf_counter(), 0.0, -1, index, None])
        self._stack.append(idx)
        return idx

    def close_op(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in microseconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                doc = {
                    "id": i,
                    "parent": parent,
                    "op": op,
                    "name": name,
                    "start_us": round((start - t0) * 1e6, 3),
                    "dur_us": round((end - start) * 1e6, 3),
                }
                if attrs:
                    doc["attrs"] = attrs
                fh.write(json.dumps(doc) + "\n")


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer metrics from the spans of `n_ops` traced ops.

    `.calls`, `.points`, method and terminal counts are per op; `.ms`,
    `.self_ms` and `.events` are per call; `.ms.nK` is per call at n = K;
    shares and rates are over all spans.  A function never called reads 0.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    events = defaultdict(int)
    calls_n = defaultdict(int)
    incl_n = defaultdict(float)
    counts = defaultdict(int)
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    max_time_error = 0.0
    for i, (name, start, end, _, _, attrs) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        incl[name] += dur
        self_s[name] += dur - child[i]
        if not attrs:
            continue
        if "n" in attrs:
            calls_n[name, attrs["n"]] += 1
            incl_n[name, attrs["n"]] += dur
        if "method" in attrs:
            counts["method." + attrs["method"]] += 1
            counts["starts"] += attrs["starts"]
        events[name] += attrs.get("events", 0)
        counts["points"] += attrs.get("points", 0)
        for t in attrs.get("terminals", ()):
            counts["terminal." + t] += 1
        max_time_error = max(max_time_error, attrs.get("max_time_error", 0.0))

    def per_op(x):
        return x / n_ops

    def ms(name, total=incl):
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "geometry.jacobi_eigenvalues.calls": per_op(calls["geometry.jacobi_eigenvalues"]),
        "geometry.jacobi_eigenvalues.ms": ms("geometry.jacobi_eigenvalues"),
        "harness.random_cone.ms": ms("harness.random_cone"),
        "harness.interior_starts.ms": ms("harness.interior_starts"),
        "harness.interior_start.calls": per_op(calls["harness.interior_start"]),
        "harness.ensemble_run.self_ms": ms("harness.ensemble_run", self_s),
    }
    for f in CONSTANTS_BY_N:
        for n in NS:
            key = (f"constants.{f}", n)
            out[f"constants.{f}.ms.n{n}"] = 1e3 * ratio(incl_n[key], calls_n[key])
    out["constants.bfk_share"] = ratio(incl["constants.bfk_constant"], incl["constants.bounds_report"])
    for method in BFK_METHODS:
        out[f"constants.bfk_constant.method.{method}"] = per_op(counts["method." + method])
    out["constants.bfk_constant.starts_used"] = ratio(counts["starts"], calls["constants.bfk_constant"])
    out.update(
        {
            "minimax.multistart_min_max_face_distance.ms": ms("minimax.multistart_min_max_face_distance"),
            "minimax.multistart_min_max_face_distance.calls": per_op(
                calls["minimax.multistart_min_max_face_distance"]
            ),
            "minimax.sphere_grid_minimize.ms": ms("minimax.sphere_grid_minimize"),
            "minimax.FaceDistance.distances_and_feet.calls": per_op(
                calls["minimax.FaceDistance.distances_and_feet"]
            ),
            "minimax.FaceDistance.distances_and_feet.points": per_op(counts["points"]),
            "minimax.max_min_margin.calls": per_op(calls["minimax.max_min_margin"]),
            "minimax.max_min_margin.ms": ms("minimax.max_min_margin"),
            "minimax.min_max_abs_margin.ms": ms("minimax.min_max_abs_margin"),
            "simulator.run_batch.ms": ms("simulator.run_batch"),
            "simulator.run_batch.events": ratio(events["simulator.run_batch"], calls["simulator.run_batch"]),
            "simulator.run_batch.events_per_s": ratio(events["simulator.run_batch"], incl["simulator.run_batch"]),
            "simulator.run_batch.share": ratio(incl["simulator.run_batch"], incl["op"]),
            "simulator.run.calls": per_op(calls["simulator.run"]),
            "simulator.run.events": ratio(events["simulator.run"], calls["simulator.run"]),
            "simulator.run.events_per_s": ratio(events["simulator.run"], incl["simulator.run"]),
            "simulator.audit.us_per_call": 1e3 * ms("simulator.audit"),
            "simulator.terminal.escaped": per_op(counts["terminal.ESCAPED"]),
            "simulator.terminal.corner_hit": per_op(counts["terminal.CORNER_HIT"]),
            "simulator.terminal.step_limit": per_op(counts["terminal.STEP_LIMIT"]),
            "hardball.simulate_balls.ms": ms("hardball.simulate_balls"),
            "hardball.simulate_balls.events": ratio(
                events["hardball.simulate_balls"], calls["hardball.simulate_balls"]
            ),
            "hardball.conjugacy_check.self_ms": ms("hardball.conjugacy_check", self_s),
            "hardball.conjugacy_check.max_time_error": max_time_error,
        }
    )
    return out
