"""Per-layer host-time tracing from outside the program.

:func:`install` wraps each layer's entry points at class level, before
a deployment is constructed (bound methods captured at construction,
such as timer callbacks and network handlers, then pick up the
wrappers). Every wrapped call becomes a span with its name, start, end,
parent span and, when an argument carries one, the entry id. Spans stay
in memory and are written out by :meth:`LayerTracer.write_spans` after
the run.

A layer's self time is the time inside its spans minus the time inside
their child spans. ``Simulator.run`` is the root span. Every event
callback runs inside an ``Event.dispatch`` span (the wrapped queue pushes
route callbacks through it), so the event core's self time, the run
minus its top-level children, is the heap loop alone; dispatch self time
is callback code outside every layer's entry points and counts as
unattributed. A span's own bookkeeping is charged to no one, so wall
time minus all self time is the tracing cost.

Counts (calls per entry point, messages, events, chunks) are
snapshotted when the deployment resets its traffic counters at the end
of warmup, so per-commit ratios use the same window as the committed
count.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer names, in report order.
LAYERS = (
    "sim",
    "network",
    "pbft",
    "replication",
    "erasure",
    "global_phase",
    "ordering",
    "execution",
    "load",
    "metrics",
)
#: Pseudo-layer of event-callback code that no layer's entry point covers.
UNATTRIBUTED = "unattributed"

_GLOBAL_PHASE_METHODS = (
    "on_entry_batched",
    "on_local_entry_committed",
    "on_entry_available",
    "on_gr_propose",
    "on_accept_certified",
    "on_gr_accept",
    "on_commit_certified",
    "on_gr_commit",
    "on_gr_ts_replicate",
    "on_gr_ts_ack",
    "on_gr_entry_push",
    "flush_ts_outbox",
    "check_instance_liveness",
)

#: (module, class, method, layer, kind). ``span`` times the call;
#: ``factory`` times the callable the call returns; ``push`` routes the
#: pushed event's callback through the dispatch span and tracks the
#: queue's peak length; ``warmup`` snapshots the counters.
HOOKS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("repro.sim.core", "Simulator", "run", "sim", "span"),
    ("repro.sim.events", "EventQueue", "push", "sim", "push"),
    ("repro.sim.events", "EventQueue", "push_volatile", "sim", "push"),
    ("repro.sim.network", "Network", "reset_traffic_accounting", "network", "warmup"),
    ("repro.sim.network", "Network", "send", "network", "span"),
    ("repro.sim.network", "Network", "broadcast_group", "network", "span"),
    ("repro.sim.network", "Network", "send_fanout", "network", "span"),
    ("repro.sim.node", "SimNode", "deliver", "network", "span"),
    ("repro.sim.node", "SimNode", "consume_cpu", "network", "span"),
    ("repro.consensus.pbft", "ModeledPbftGroup", "propose", "pbft", "span"),
    ("repro.consensus.pbft", "ModeledPbftGroup", "_deliver_commit", "pbft", "span"),
    ("repro.protocols.runtime.dissemination", "DisseminationStage", "replicate", "replication", "span"),
    ("repro.protocols.runtime.dissemination", "DisseminationStage", "on_entry_available", "replication", "span"),
    ("repro.core.replication", "EncodedBijectiveTransport", "replicate", "replication", "span"),
    ("repro.core.replication", "EncodedBijectiveTransport", "_make_send_share", "replication", "factory"),
    ("repro.core.replication", "EncodedBijectiveTransport", "_ingest", "replication", "span"),
    ("repro.core.replication", "EncodedBijectiveTransport", "_finish", "replication", "span"),
    ("repro.core.rebuild", "OptimisticRebuilder", "add_chunk", "replication", "span"),
    ("repro.erasure.reed_solomon", "ReedSolomonCodec", "encode", "erasure", "span"),
    ("repro.erasure.reed_solomon", "ReedSolomonCodec", "decode", "erasure", "span"),
    ("repro.crypto.merkle", "MerkleTree", "__init__", "erasure", "span"),
    ("repro.crypto.merkle", "MerkleTree", "proof", "erasure", "span"),
    ("repro.crypto.merkle", "MerkleProof", "verify", "erasure", "span"),
    *(
        ("repro.protocols.runtime.global_phase", "RaftGlobalPhase", method, "global_phase", "span")
        for method in _GLOBAL_PHASE_METHODS
    ),
    ("repro.protocols.runtime.node", "GeoNode", "_on_local_ts", "global_phase", "span"),
    ("repro.protocols.runtime.node", "GeoNode", "_on_local_commit", "global_phase", "span"),
    ("repro.protocols.runtime.node", "GeoNode", "apply_ts_assignments", "ordering", "span"),
    ("repro.core.ordering", "DeterministicOrderer", "on_timestamp", "ordering", "span"),
    ("repro.core.ordering", "DeterministicOrderer", "mark_available", "ordering", "span"),
    ("repro.ledger.execution", "ExecutionPipeline", "execute_entry", "execution", "span"),
    ("repro.ledger.ledger", "GlobalLedger", "append", "execution", "span"),
    ("repro.protocols.runtime.group", "GroupRuntime", "on_batch_timer", "load", "span"),
    ("repro.protocols.runtime.load", "ClientLoad", "take", "load", "span"),
    ("repro.protocols.runtime.load", "LoadStage", "_make_entry", "load", "span"),
    ("repro.protocols.runtime.events", "EventBus", "publish", "metrics", "span"),
    ("repro.bench.metrics", "RunMetrics", "record_commits", "metrics", "span"),
)


def _entry_code(args: Sequence[object], entry_type: type) -> int:
    """The first entry id an argument carries, packed as gid << 32 | seq."""
    for arg in args:
        if type(arg) is entry_type:
            eid = arg
        else:
            eid = getattr(arg, "entry_id", None)
            if eid is None:
                eid = getattr(getattr(arg, "payload", None), "entry_id", None)
        if type(eid) is entry_type:
            return (eid.gid << 32) | eid.seq
    return -1


class LayerTracer:
    """Spans, per-layer self time and call counts for one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self.calls: List[int] = []
        self.self_time: Dict[str, float] = {
            layer: 0.0 for layer in LAYERS + (UNATTRIBUTED,)
        }
        self.queue_peak = 0
        #: Frames of open spans: [time in children, span index].
        self._stack: List[list] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_entry = array("q")
        #: Set by the caller once the deployment exists (the warmup
        #: snapshot and :meth:`counters` read it).
        self.deployment = None
        #: Counter snapshot taken at the end of warmup.
        self.at_warmup: Optional[Dict[str, object]] = None
        self.missing: List[str] = []
        self._dispatch_span: Optional[Callable] = None

    # -- wiring ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook's method on its class (importing the modules)."""
        from repro.core.entry import EntryId

        entry_of = functools.partial(_entry_code, entry_type=EntryId)
        for module_name, class_name, method, layer, kind in HOOKS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = getattr(cls, method, None)
            if original is None:
                # A renamed entry point loses its spans; its time then
                # shows up in the caller's layer.
                self.missing.append(f"{class_name}.{method}")
                continue
            if kind == "span":
                name_id = self._register(f"{class_name}.{method}", layer)
                wrapper = self._span(original, name_id, layer, entry_of)
            elif kind == "factory":
                name_id = self._register(f"{class_name}.{method}", layer)
                wrapper = self._factory(original, name_id, layer, entry_of)
            elif kind == "push":
                wrapper = self._push(original, self._dispatch(entry_of))
            else:
                wrapper = self._warmup(original)
            setattr(cls, method, functools.wraps(original)(wrapper))

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layer.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    # -- wrappers --------------------------------------------------------

    def _span(self, fn: Callable, name_id: int, layer: str, entry_of: Callable):
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_time = self.self_time
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, entries = self.span_parent, self.span_entry

        def wrapper(*args, **kwargs):
            outer = clock()
            calls[name_id] += 1
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1][1] if stack else -1)
            entries.append(entry_of(args))
            starts.append(0.0)
            ends.append(0.0)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self_time[layer] += end - start - frame[0]
                starts[index] = start
                ends[index] = end
                if stack:
                    # The parent loses this span's bookkeeping too, so
                    # tracing cost lands in no layer's self time.
                    stack[-1][0] += clock() - outer

        return wrapper

    def _factory(self, fn: Callable, name_id: int, layer: str, entry_of: Callable):
        span = self._span

        def wrapper(*args, **kwargs):
            made = fn(*args, **kwargs)
            # The returned callable takes no arguments, so its span
            # carries the entry id of the factory call.
            code = entry_of(args)
            return span(made, name_id, layer, lambda _args: code)

        return wrapper

    def _dispatch(self, entry_of: Callable) -> Callable:
        """The span every event callback runs in (created once)."""
        if self._dispatch_span is None:
            name_id = self._register("Event.dispatch", UNATTRIBUTED)

            def dispatch(callback, *args):
                callback(*args)

            self._dispatch_span = self._span(dispatch, name_id, UNATTRIBUTED, entry_of)
        return self._dispatch_span

    def _push(self, fn: Callable, dispatch: Callable):
        tracer = self

        def wrapper(queue, at, callback, args=()):
            event = fn(queue, at, dispatch, (callback,) + tuple(args))
            depth = len(queue._heap)
            if depth > tracer.queue_peak:
                tracer.queue_peak = depth
            return event

        return wrapper

    def _warmup(self, fn: Callable):
        tracer = self

        def wrapper(network, *args, **kwargs):
            tracer.at_warmup = tracer.counters(network)
            return fn(network, *args, **kwargs)

        return wrapper

    # -- reporting -------------------------------------------------------

    def counters(self, network=None) -> Dict[str, object]:
        """Monotonic counters: calls per entry point plus program state."""
        deployment = self.deployment
        network = network or deployment.network
        executors = [
            node.pipeline.executor
            for node in deployment.nodes.values()
            if getattr(node, "pipeline", None) is not None
        ]
        return {
            "calls": list(self.calls),
            "messages": network._next_msg_id - 1,
            "events": network.sim.events_processed,
            "transport": dict(getattr(deployment.transport, "monitor_counters", {})),
            "exec_committed": sum(e.total_committed for e in executors),
            "exec_aborted": sum(e.total_aborted for e in executors),
        }

    def calls_by_layer(self, calls: Sequence[int]) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS + (UNATTRIBUTED,)}
        for name_id, count in enumerate(calls):
            out[self.name_layer[name_id]] += count
        return out

    def write_spans(self, path) -> int:
        """Write the spans as an ``.npz`` file; returns the span count."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            entry=np.frombuffer(self.span_entry, dtype=np.int64),
        )
        return len(self.span_name)

