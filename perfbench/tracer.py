"""Outside-in tracer: spans around the public calls between gpextremes layers.

The package's modules import each other's functions by name, so a hook
replaces the name in the *consumer's* namespace (``conjunction.sample_vector``,
``constants.ewv_batch``, ...) and, for methods and module-private helpers,
the attribute on the owning class or module.  Nothing in the source tree is
edited; leaving the ``Tracer`` context restores every original.

A span records (id, name, start, end, parent, thread) and the CPU time its
thread spent inside it, which tells work from waiting for the interpreter lock.  Spans are kept in
memory and written out by the caller.  The layer of a span is the part of
its name before the first dot, and a span's self time is its duration minus
the part of it that its children's intervals cover.
"""
from __future__ import annotations

import functools
import logging
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import gpextremes.conjunction as conjunction
import gpextremes.constants as constants
import gpextremes.experiments as experiments
import gpextremes.orthants as orthants
import gpextremes.rng as rng
import gpextremes.sampling as sampling


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    cpu: float = 0.0
    workers: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nodes_of_draw(tracer, result):
    tracer.count("sampling.nodes", result.size)


def _clouds(tracer, result):
    tracer.count("orthants.clouds", len(result))


def _pareto_kept(tracer, result):
    tracer.count("orthants.pareto_in", len(result))
    tracer.count("orthants.pareto_kept", int(result.sum()))


# (owner, attribute, span name, observer).  The owner is the namespace the
# caller looks the name up in, which is not always the defining module.
HOOKS = (
    (experiments, "estimate_window_constant", "constants.estimate_window_constant", None),
    (experiments, "estimate_pickands", "constants.estimate_pickands", None),
    (experiments, "estimate_conjunction_prob", "conjunction.estimate_conjunction_prob", None),
    (experiments, "write_results", "experiments.write_results", None),
    (constants, "estimate_window_constant", "constants.estimate_window_constant", None),
    (constants, "ewv_batch", "orthants.ewv_batch", _clouds),
    (conjunction, "sample_vector", "sampling.sample_vector", None),
    (conjunction, "ensure_valid", "processes.ensure_valid", None),
    (sampling, "ensure_valid", "processes.ensure_valid", None),
    (sampling.FgnSampler, "increments", "sampling.FgnSampler.increments", _nodes_of_draw),
    (sampling.StationarySampler, "sample", "sampling.StationarySampler.sample", _nodes_of_draw),
    (sampling, "_embedding_eigenvalues", "sampling._embedding_eigenvalues", None),
    (sampling, "_circulant_draw", "sampling._circulant_draw", None),
    (orthants, "_pareto_mask", "orthants._pareto_mask", _pareto_kept),
    (rng.RngStream, "generator", "rng.RngStream.generator", None),
)
BLOCK_HOOKS = ((constants, "constants"), (conjunction, "conjunction"))


class _ClampCounter(logging.Handler):
    """Counts the eigenvalues that circulant embedding clamps to zero."""

    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if str(record.msg).startswith("clamped") and record.args:
            self.tracer.count("sampling.clamped_eigs", int(record.args[0]))


def _owner_name(owner) -> str:
    return getattr(owner, "__qualname__", None) or owner.__name__


class Tracer:
    """Install the hooks on enter, restore the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = defaultdict(int)
        self.missing: list[str] = []
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        self._handler = _ClampCounter(self)

    # -- recording -------------------------------------------------------

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] += amount

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, parent=None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].id
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, parent, threading.get_ident())
        span.cpu = time.thread_time()  # start reading; end() turns it into a duration
        stack.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stack().pop()
        self.spans.append(span)

    # -- hooks -------------------------------------------------------------

    def _wrap(self, owner, attr, name, observe):
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{_owner_name(owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if observe is not None:
                observe(tracer, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def _wrap_map_blocks(self, owner, layer):
        original = owner.__dict__.get("map_blocks")
        if original is None:
            self.missing.append(f"{owner.__name__}.map_blocks")
            return
        tracer = self

        def traced(fn, n_blocks, *args, **kwargs):
            outer = tracer.begin("parallel.map_blocks")
            outer.workers = max(1, int(kwargs.get("workers", args[0] if args else 1)))

            def block(b):
                span = tracer.begin(f"{layer}.block", parent=outer.id)
                try:
                    return fn(b)
                finally:
                    tracer.end(span)

            try:
                return original(block, n_blocks, *args, **kwargs)
            finally:
                tracer.end(outer)

        setattr(owner, "map_blocks", traced)
        self._undo.append((owner, "map_blocks", original))

    def __enter__(self):
        for owner, attr, name, observe in HOOKS:
            self._wrap(owner, attr, name, observe)
        for owner, layer in BLOCK_HOOKS:
            self._wrap_map_blocks(owner, layer)
        logging.getLogger("gpextremes.sampling").addHandler(self._handler)
        return self

    def __exit__(self, *exc):
        logging.getLogger("gpextremes.sampling").removeHandler(self._handler)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict:
        """{span id: duration minus the union of its children's intervals}."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(span.id, ())):
                start = max(start, cursor)
                end = min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            out[span.id] = span.duration - covered
        return out

    def by_name(self) -> dict:
        """{span name: (calls, total duration, total self time)}."""
        selfs = self.self_times()
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            row = out[span.name]
            row[0] += 1
            row[1] += span.duration
            row[2] += selfs[span.id]
        return {k: tuple(v) for k, v in out.items()}

    def export(self) -> list:
        return [asdict(s) for s in self.spans]
