"""Per-layer tracing from outside the program.

:class:`Tracer` replaces the public functions of each layer with thin
wrappers that time every call on a span stack: a span's *self time* is its
duration minus the time of the spans it encloses, so the self times of all
layers add up to the wall time the spans cover.  The wrappers only observe —
they pass arguments and results through untouched — so a traced run must
produce the same ``History.digest()`` as an untraced one, which the runner
checks.  Spans are aggregated in memory per (layer, operation); the raw
counts the program already keeps (events fired, messages, batch sizes,
detector and session counters) are read after the run.

Layers are named after the modules that own them (``runtime.events`` is
``repro/runtime/events.py``); ``core.certification`` covers the
certification scheme, its conflict indexes and the leaders' vote cache.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# Layer -> (module, class or None for module level, attribute names).
# Classes also get every ``on_*`` message handler they define wrapped, one
# operation per message type.
_TARGETS: List[Tuple[str, str, Optional[str], Tuple[str, ...]]] = [
    ("runtime.events", "repro.runtime.events", "Scheduler",
     ("schedule", "schedule_at", "schedule_weak", "schedule_weak_at", "step",
      "run", "run_until", "call_at_instant_end")),
    ("runtime.network", "repro.runtime.network", "Network",
     ("send", "send_many", "_deliver", "_deliver_batch")),
    ("runtime.wire", "repro.runtime.network", None, ("wire_size",)),
    ("runtime.process", "repro.runtime.process", "Process",
     ("deliver", "handle", "send", "send_all", "set_timer")),
    ("runtime.rdma", "repro.runtime.rdma", "RdmaManager",
     ("send", "open", "close", "multiclose", "flush", "intercept", "_on_write",
      "_poll_one", "_on_remote_ack")),
    ("core.coordinator", "repro.core.coordinator", "CoordinatorMixin",
     ("certify", "retry")),
    ("core.replica", "repro.core.replica", "ShardReplica",
     ("emit_heartbeats", "tick_detector", "request_read_lease")),
    ("rdma.replica", "repro.rdma.replica", "RdmaShardReplica",
     ("certify", "retry", "emit_heartbeats", "tick_detector", "request_read_lease",
      "reconfigure")),
    ("core.certification", "repro.core.votecache", "LeaderVoteCache",
     ("vote", "note_prepared", "note_decided", "invalidate")),
    ("core.certification", "repro.core.serializability", "_SerializabilityConflictIndex",
     ("register", "retire")),
    ("core.certification", "repro.core.serializability", "_SerializabilityVoteIndex",
     ("vote",)),
    ("core.certification", "repro.core.serializability", "_ReadWriteVoteIndex",
     ("add_committed", "add_prepared", "remove_prepared")),
    ("core.batching", "repro.core.batching", "MessageBatcher", ("add", "add_all", "flush")),
    ("core.reads", "repro.core.reads", "ReplicaReadEngine",
     ("serve", "note_prepared", "_on_slot_decided", "rebuild", "note_lease", "seed")),
    ("core.failuredetector", "repro.core.failuredetector", "FailureDetector",
     ("watch", "record", "tick", "score")),
    ("core.failuredetector", "repro.core.failuredetector", "HeartbeatPump", ("_tick",)),
    ("configservice", "repro.configservice.service", "ConfigurationService",
     ("install_initial",)),
    ("configservice", "repro.configservice.service", "GlobalConfigurationService",
     ("install_initial",)),
    ("core.reconfig", "repro.core.reconfig", "ReconfigMixin", ("suspect", "reconfigure")),
    ("client", "repro.client", "Client",
     ("submit", "submit_read", "resubmit", "refresh_configurations")),
    ("client", "repro.client", "ClientSession",
     ("submit", "_on_timeout", "_on_config_push", "_on_decided")),
    ("client", "repro.client", "CoordinatorRouter", ("pick", "note_config_change")),
    ("spec.history", "repro.spec.history", "History",
     ("record_certify", "record_decide", "digest")),
    ("spec.incremental", "repro.spec.incremental", "IncrementalTCSChecker",
     ("_on_certify", "_on_decide", "observe_certify", "observe_decide", "collect",
      "result")),
    ("spec.invariants", "repro.spec.invariants", "InvariantMonitor",
     ("_on_decide", "_on_contradiction")),
    ("spec.invariants", "repro.scenarios.runner", None, ("check_invariants",)),
    ("store", "repro.store.executor", "TransactionalStore",
     ("execute", "submit_async", "submit_read_async", "run_batch", "_on_history_decide")),
    ("store", "repro.store.kv", "VersionedKVStore",
     ("read", "read_at", "install", "install_payload", "apply_payload")),
    ("store", "repro.cluster", "Cluster", ("submit", "submit_read")),
    ("workload", "repro.workload.generators", "ReadWriteWorkload", ("batch",)),
]

#: Every layer the tracer reports, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in _TARGETS))


class Tracer:
    """Wraps the layers' functions; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        # stack[-1] accumulates the time of the spans enclosed by the span
        # currently open; stack[0] is the root, i.e. the covered time.
        self.stack: List[float] = [0.0]
        # (layer, operation) -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        self.commit_votes = 0
        # Batching: per (batcher, destination) the virtual times messages
        # were queued, and the virtual queue waits measured at flush.
        self._queued: Dict[Tuple[int, str], List[float]] = defaultdict(list)
        self.batch_waits: List[float] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        # Innermost first: the batch-wait stamps run inside the batching
        # layer's spans, so their cost is charged to that layer.
        self._install_batch_waits()
        hooks = self._hooks()
        for layer, module_name, class_name, names in _TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            wanted = list(names)
            if class_name is not None:
                wanted += sorted(
                    name for name, value in vars(owner).items()
                    if name.startswith("on_") and name != "on_attach" and callable(value)
                )
            for name in wanted:
                op = name if name.startswith("on_") or class_name is None else f"{class_name}.{name}"
                self._wrap(owner, name, layer, op, hooks.get((layer, op)))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, owner: Any, name: str, layer: str, op: str,
              after: Optional[Callable[[tuple, Any], None]]) -> None:
        original = vars(owner)[name]
        record = self.spans.setdefault((layer, op), [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            stack.append(0.0)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                enclosed = stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - enclosed
                stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        setattr(owner, name, span)
        self._undo.append((owner, name, original))

    def _hooks(self) -> Dict[Tuple[str, str], Callable[[tuple, Any], None]]:
        """Counters that need a call's arguments or result."""
        from repro.core.types import Decision

        def on_vote(args: tuple, result: Any) -> None:
            if result is Decision.COMMIT:
                self.commit_votes += 1

        return {("core.certification", "LeaderVoteCache.vote"): on_vote}

    def _install_batch_waits(self) -> None:
        """Measure the virtual time each message waits in a batcher: the
        queue time is stamped on ``add`` and read back on ``flush``."""
        from repro.core.batching import MessageBatcher

        add, flush = MessageBatcher.add, MessageBatcher.flush
        queued, waits = self._queued, self.batch_waits

        def timed_add(batcher: Any, dst: str, message: Any) -> None:
            queued[(id(batcher), dst)].append(batcher.process.scheduler.now)
            add(batcher, dst, message)

        def timed_flush(batcher: Any, dst: Optional[str] = None) -> None:
            if dst is not None:
                stamps = queued.pop((id(batcher), dst), ())
                now = batcher.process.scheduler.now
                waits.extend(now - stamp for stamp in stamps)
            flush(batcher, dst)

        MessageBatcher.add, MessageBatcher.flush = timed_add, timed_flush
        self._undo.append((MessageBatcher, "add", add))
        self._undo.append((MessageBatcher, "flush", flush))

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def covered(self) -> float:
        """Wall seconds spent inside any span since the last reset."""
        return self.stack[0]

    def reset_cover(self) -> None:
        self.stack[0] = 0.0

    def calls(self, layer: str, op: Optional[str] = None, prefix: str = "") -> int:
        """Calls into ``layer`` (one operation, or those starting with
        ``prefix``)."""
        return int(sum(
            record[0] for (each, name), record in self.spans.items()
            if each == layer and (op is None or name == op) and name.startswith(prefix)
        ))

    def self_time(self, layer: str) -> float:
        return sum(record[2] for (each, _), record in self.spans.items() if each == layer)

    def inclusive(self, layer: str, op: str) -> float:
        record = self.spans.get((layer, op))
        return record[1] if record else 0.0

    def handler_calls(self) -> Dict[str, Dict[str, int]]:
        """Per layer, calls of each ``on_*`` handler (message type)."""
        table: Dict[str, Dict[str, int]] = {}
        for (layer, name), record in sorted(self.spans.items()):
            if name.startswith("on_") and record[0]:
                table.setdefault(layer, {})[name[3:]] = int(record[0])
        return table
