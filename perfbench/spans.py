"""In-memory spans around the calls into each nsfarfield layer.

A span is recorded by replacing a function with a wrapper under the name its
caller looks it up by: ``verify`` imports ``farfield_velocity`` by name, so the
far-field span wraps ``verify.farfield_velocity``; wrapping
``solver.farfield_velocity`` would record nothing.  Spans are kept in a list and
written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

import numpy as np


def _points(x, d):
    return int(np.asarray(x).size) // d


def _grad_work(args, kwargs, result):
    z, s = args[0], args[3] if len(args) > 3 else kwargs["s"]
    return {"pairs": _points(z, z.shape[-1]),
            "bytes": int(z.nbytes + getattr(s, "nbytes", 0) + result.nbytes)}


def _farfield_work(args, kwargs, result):
    traj, x = args[0], args[3] if len(args) > 3 else kwargs["x"]
    return {"points": _points(x, traj.grid.d)}


def _batch_work(args, kwargs, result):
    flow, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    return {"points": _points(x, flow.d)}


def _snapshot_bytes(traj):
    return int(sum(s.nbytes for s in traj.snapshots))


def _save_work(args, kwargs, result):
    return {"bytes": _snapshot_bytes(args[0])}


def _loaded_work(args, kwargs, result):
    return {"bytes": _snapshot_bytes(result)}


def _solve_work(args, kwargs, result):
    return {"sweeps": len(result.iteration_log), "bytes": _snapshot_bytes(result)}


def instrument(tracer):
    """Wrap the public entry points of every layer."""
    from nsfarfield import cli, kernels, solver, verify

    targets = [
        (cli, "parse_config", "config.parse", None),
        (cli, "build_scenario", "cli.build_scenario", None),
        (cli, "validate_assumptions", "forcing.validate_assumptions", None),
        (solver, "validate_assumptions", "forcing.validate_assumptions", None),
        (cli, "picard_solve", "solver.picard_solve", _solve_work),
        (solver.Trajectory, "save", "solver.trajectory_save", _save_work),
        (cli, "load_trajectory", "solver.load_trajectory", _loaded_work),
        (cli._ThreadedFlow, "velocity", "solver.farfield_batch", _batch_work),
        (verify, "farfield_velocity", "solver.farfield_velocity", _farfield_work),
        (kernels, "oseen_grad_contract", "kernels.oseen_grad_contract", _grad_work),
        (kernels, "projected_gaussian", "kernels.projected_gaussian", None),
        (verify, "restrict_annulus_norm", "grid.restrict_annulus_norm", None),
    ]
    for fn in ("remainder_extract", "pointwise_window_check", "weighted_norm_sweep",
               "divergence_detect", "lemlog_check"):
        targets.append((verify, fn, f"verify.{fn}", None))
    for owner, attr, name, work in targets:
        tracer.wrap(owner, attr, name, work)


class Tracer:
    """Records (id, parent, name, thread, start, end, work) per call.

    The parent of a span is the innermost open span of its thread.  A span
    opened by a worker thread with nothing open in that thread takes the
    innermost open span of the main thread as its parent: the far-field
    thread pool runs while the main thread waits inside a batch span.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, work=None):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            tracer.spans.append((sid, parent, name, threading.get_ident(), start, end,
                                 work(args, kwargs, result) if work else None))
            return result

        setattr(owner, attr, traced)
