"""Tracing of fkclt from outside the package.

`Tracer.installed()` replaces each traced public function with a wrapper
that records a span (name, start, end, parent), in every module namespace
that bound the function: `from .engine import run` binds `run` in
`harness` and `cli` as well as in `engine`.  Two class methods are wrapped
to count work: `RngStream.uniforms` (uniforms drawn) and
`ProbMeasure.__post_init__` (measures built).  Leaving the context restores
every binding.

Process-pool workers are forked with the wrappers in place.  Each chunk of
replicates a worker runs returns its spans and counts with its records;
unpickling them in the parent merges them into the parent's tracer, and
harness receives the plain list of records it would receive untraced.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter

# Traced public functions, by module.  A span is named "<module>.<function>".
TRACED = {
    "engine": ("init_particles", "step", "run"),
    "harness": ("replicate_experiment", "lognormal_check", "fixed_n_clt_check"),
    "oracle": ("propagate", "v_n", "oracle_report", "spectral_pair", "sigma2_homogeneous",
               "eigen_h_zeta", "fixed_point_eta_inf", "contraction_profile", "qbar_p_inf"),
    "core": ("phi_step", "cov_operator"),
    "randenv": ("sample_env_path", "env_model", "eta_inf_env", "h_env", "c_of_y", "sigma2_env"),
    "models": ("absorption_build", "survival_mc_oracle", "yaglom_check", "hmm_generate",
               "hmm_build", "forward_likelihood"),
    "cli": ("main",),
}
# Work counted at a span: span name -> (counter, amount from the arguments).
WORK = {"engine.step": ("engine.particle_steps", lambda system, *rest: system.N)}
MODULES = ("core", "oracle", "randenv", "engine", "harness", "models", "cli")

# The tracer whose context is open in this process; worker chunks merge into
# it when they are unpickled.
_active = None


class _WorkerChunk(list):
    """A worker's replicate records, carrying the worker's trace."""

    def __reduce__(self):
        return (_merge_worker_chunk, (list(self), self.trace))


def _merge_worker_chunk(records, trace):
    _active.merge(*trace)
    return records


class Tracer:
    """Spans and counts of one traced pass, held in memory.

    A span is a tuple (name, start, end, parent index, pid); times are
    `time.perf_counter()` values, which share one clock across processes.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._anchor = None  # in a worker: the parent's span that forked it
        self._restore = []

    # -- recording -------------------------------------------------------

    def _span(self, fn, name):
        """Wrap ``fn`` to record a span; ``name`` is a string or a function
        of the call's arguments."""
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                self.counts[work[0]] += work[1](*args)
            spans, stack = self.spans, self._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name if isinstance(name, str) else name(*args, **kwargs)
                spans[index] = (label, start, end, parent, self.pid)

        return wrapper

    def _worker_chunk(self, fn):
        """Wrap the pool's task function so a worker ships its trace home."""

        @functools.wraps(fn)
        def wrapper(payload):
            if os.getpid() == self.pid:
                return fn(payload)
            if self._anchor is None:  # first chunk in a freshly forked worker
                self._anchor = self._stack[-1] if self._stack else -1
            self.spans, self._stack, self.counts = [], [], Counter()
            chunk = _WorkerChunk(fn(payload))
            chunk.trace = (self._anchor, self.spans, dict(self.counts), os.getpid())
            return chunk

        return wrapper

    def merge(self, anchor, spans, counts, pid):
        """Append a worker's spans; its root spans become children of ``anchor``."""
        base = len(self.spans)
        self.spans.extend(
            (name, start, end, anchor if parent < 0 else base + parent, pid)
            for name, start, end, parent, _ in spans
        )
        self.counts.update(counts)

    # -- installing ------------------------------------------------------

    def _rebind(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _patch_method(self, cls, attr, wrapper):
        self._restore.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    @contextlib.contextmanager
    def installed(self, fkclt):
        """Trace ``fkclt`` (the imported package) inside the context."""
        global _active
        mods = [fkclt] + [getattr(fkclt, m) for m in MODULES]
        for module_name, names in TRACED.items():
            module = getattr(fkclt, module_name)
            for fn_name in names:
                original = getattr(module, fn_name)
                self._rebind(mods, original, self._span(original, f"{module_name}.{fn_name}"))
        cli = fkclt.cli
        self._rebind(mods, cli.command_dispatch,
                     self._span(cli.command_dispatch, lambda cfg: f"cli.{cfg.subcommand}"))
        harness = fkclt.harness
        self._rebind(mods, harness._run_replicates, self._worker_chunk(harness._run_replicates))

        # Workers swap in a fresh counter, so look self.counts up per call.
        uniforms = fkclt.engine.RngStream.uniforms

        def counted_uniforms(stream, k):
            self.counts["engine.uniforms_drawn"] += k
            return uniforms(stream, k)

        post_init = fkclt.core.ProbMeasure.__post_init__

        def counted_post_init(measure):
            self.counts["core.prob_measures_built"] += 1
            post_init(measure)

        self._patch_method(fkclt.engine.RngStream, "uniforms", counted_uniforms)
        self._patch_method(fkclt.core.ProbMeasure, "__post_init__", counted_post_init)
        _active = self
        try:
            yield self
        finally:
            _active = None
            for owner, attr, original in reversed(self._restore):
                setattr(owner, attr, original)
            self._restore.clear()


# -- analysis --------------------------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_of(name: str) -> str:
    # The killed-chain simulation runs inline in cli.cmd_qsd; its time is
    # the models layer's work.
    return "models" if name == "cli.qsd" else name.split(".", 1)[0]


def summarize(spans, main_pid) -> dict:
    """Per span name: calls, inclusive seconds and self seconds; per layer:
    the share of the main process's wall time spent in it.

    Self time is a span's duration minus the part its children cover.  In
    the main process the layer shares partition the time inside root spans;
    where pool workers ran, the time they cover is given to their layer.
    """
    children = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    by_name = {}
    layers = Counter()
    for i, (name, start, end, _, pid) in enumerate(spans):
        kids = [spans[k] for k in children.get(i, ())]
        own = (end - start) - _covered([(s, e) for _, s, e, _, _ in kids], start, end)
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own
        if pid != main_pid:
            continue
        layers[layer_of(name)] += own
        workers = [k for k in kids if k[4] != main_pid]
        if workers:
            main_kids = [(s, e) for _, s, e, _, p in kids if p == main_pid]
            worker_only = _covered(main_kids + [(s, e) for _, s, e, _, _ in workers], start, end) \
                - _covered(main_kids, start, end)
            layers[layer_of(workers[0][0])] += worker_only
    return {"names": by_name, "layers": dict(layers)}
