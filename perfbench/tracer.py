"""Outside-in layer tracing: call counts and self time per layer function.

The tracer swaps each traced function for a timing wrapper wherever a
``phaselens`` module (or a class in one) holds the original object, so calls
through any import path are caught: ``inner_product`` is bound in
``vectors``, ``metrics`` and ``topology``, and function-local imports resolve
through the patched module attributes.  Self time is a span's duration minus
the time its child spans cover.  A traced name the package no longer defines
is reported absent rather than treated as a failure.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = (
    "certify.certify_phase_retrieval",
    "certify.complement_property",
    "certify._subset_rank",
    "certify._sign_collision_search",
    "certify._null_vector",
    "metrics.realize_from_magnitudes",
    "metrics.d_phi",
    "metrics.frak_distance",
    "metrics.inequality_report",
    "topology.finite_dim_coincidence_suite",
    "topology.converge_tau_phi",
    "topology.converge_tau_w",
    "topology.converge_d_phi",
    "vectors.inner_product",
    "frames.analysis_magnitudes",
    "frames.frame_bounds",
    "frames.PairwiseSumFrame.entries",
    "io.load_frame",
    "io.frame_fingerprint",
    "cli.main",
    "cli._emit",
    "repro.run_scenario",
)


class Tracer:
    """Holds the span stack and per-layer totals of one traced phase."""

    def __init__(self):
        self.calls = {name: 0 for name in LAYERS}
        self.self_ns = {name: 0 for name in LAYERS}
        self.absent = []
        self._stack = []  # [start_ns, child_ns] per open span
        self._undo = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                calls[name] += 1
                self_ns[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self):
        owners = [m for key, m in sys.modules.items() if key == "phaselens" or key.startswith("phaselens.")]
        for name in LAYERS:
            module, _, attr = name.rpartition(".")
            owner = sys.modules.get(f"phaselens.{module.split('.')[0]}")
            for part in module.split(".")[1:]:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
