"""Timing spans around rarhmm's layer entry points, kept in memory.

A span wraps a function at the module attribute its caller looks it up
through, so the library itself is unchanged and the untraced run executes
exactly the library's code. Each span name accumulates its call count, its
total time and its self time (total minus the time covered by spans opened
while it ran). A tally hook records one value per call, taken from the
arguments and the result, e.g. whether the transition M-step returned its
input unchanged.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    tallies: list = field(default_factory=list)


# (module, attribute, span name, tally(args, kwargs, result) or None).
# The attribute is where the caller looks the function up: local_quantities
# finds log_local_evidence through rarhmm.inference, _mstep_all finds the
# M-steps through rarhmm.learning, rollout finds act through rarhmm.policy.
# The benchmark calls fit_em, evaluate, rollout and load_dataset through their
# module attributes too, so their spans cover its own calls.
LAYER_SPANS = (
    ("envs", "simulate", "envs.simulate", lambda a, k, out: out.T),
    ("envs", "load_dataset", "envs.load_dataset", None),
    ("learning", "fit_em", "learning.fit_em", None),
    ("learning", "_run_em", "learning.em", lambda a, k, out: out[1].seconds),
    ("learning", "initialize", "learning.initialize", None),
    ("learning", "_estep_stats", "inference.forward_backward", None),
    ("inference", "log_local_evidence", "model.log_local_evidence", None),
    ("inference", "transition_matrices", "transition.transition_matrices", None),
    ("evaluation", "transition_matrices", "transition.transition_matrices", None),
    ("learning", "mstep_initial", "learning.mstep_initial", None),
    ("learning", "mstep_dynamics", "learning.mstep_dynamics", None),
    ("learning", "mstep_controller", "learning.mstep_controller", None),
    ("learning", "mstep_transitions", "learning.mstep_transitions",
     lambda a, k, out: out is a[2]),
    ("evaluation", "evaluate", "evaluation.evaluate", None),
    ("evaluation", "filter_all", "evaluation.filter", None),
    ("evaluation", "_forecast_batch", "evaluation.forecast", None),
    ("policy", "rollout", "policy.rollout", lambda a, k, out: out.trajectory.T),
    ("policy", "act", "policy.act", None),
    ("policy", "observe", "envs.observe", None),
    ("policy", "step_env", "envs.step_env", None),
)


class Tracer:
    """Collects SpanStats per span name while its patches are installed."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self._child_time: list[float] = []

    def _wrap(self, fn, name, tally):
        stats = self.stats
        stack = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                st = stats[name]
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - child
            if tally is not None:
                st.tallies.append(tally(args, kwargs, out))
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, spans=LAYER_SPANS):
        """Install a timing wrapper at every (module, attribute) in spans and
        restore the originals on exit. An attribute that no longer exists
        gets no wrapper, so its span records no calls."""
        saved = []
        try:
            for mod_name, attr, name, tally in spans:
                module = importlib.import_module(f"rarhmm.{mod_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, tally))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
