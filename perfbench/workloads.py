"""The benchmark's workloads: one scenario spec and one load driver each.

Every workload runs on the serial engine from one process with no threads,
drives its load through :class:`repro.scenarios.runner.ScenarioRunner` and is
judged by the runner's own safety verdict (online TCS checker plus replica
invariants).  Inputs are generated from the ``--seed`` argument only, before
the first submission, so set-up time and run time are measured apart.

* ``steady-mp`` — the paper's common case: message-passing, 4 shards x 2
  replicas (f=1), uniform keys, closed-loop waves of 50, uniform 0.5-1.5
  delay links, no batching, no link model.
* ``skew-rdma-link`` — the layers ``steady-mp`` leaves alone: the RDMA
  stack, Zipf-skewed conflicting certification, adaptive batching and the
  bandwidth/queueing link model (wire sizing).
* ``failover-reads`` — the reconfiguration path: open-loop arrivals in
  virtual time, 50% single-key snapshot reads, client retry sessions, the
  heartbeat detector and four leader crashes while load is still arriving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.core.types import Decision
from repro.scenarios.runner import ScenarioResult, ScenarioRunner
from repro.scenarios.spec import (
    BatchSpec,
    DetectorSpec,
    FaultStep,
    LatencySpec,
    NetworkSpec,
    ReadSpec,
    RetrySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.spec.history import History
from repro.workload.generators import (
    ReadWriteWorkload,
    TransactionSpec,
    UniformKeyGenerator,
    ZipfianKeyGenerator,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the scenario it runs and how load arrives."""

    name: str
    spec: ScenarioSpec
    # Open-loop arrival rate in transactions per virtual delay; 0 selects
    # closed-loop waves of ``spec.workload.batch`` transactions.
    rate: float = 0.0


def _steady_mp(seed: int, txns: int) -> Workload:
    return Workload(
        name="steady-mp",
        spec=ScenarioSpec(
            name="steady-mp",
            protocol="message-passing",
            num_shards=4,
            replicas_per_shard=2,
            seed=seed,
            workload=WorkloadSpec(
                kind="uniform", txns=txns, batch=50, num_keys=4096,
                reads_per_txn=2, writes_per_txn=1,
            ),
            latency=LatencySpec(model="uniform", low=0.5, high=1.5),
        ),
    )


def _skew_rdma_link(seed: int, txns: int) -> Workload:
    return Workload(
        name="skew-rdma-link",
        spec=ScenarioSpec(
            name="skew-rdma-link",
            protocol="rdma",
            num_shards=4,
            replicas_per_shard=2,
            seed=seed,
            workload=WorkloadSpec(
                kind="zipfian", txns=txns, batch=50, num_keys=4096, theta=0.6,
                reads_per_txn=3, writes_per_txn=2,
            ),
            batch=BatchSpec(size=32),
            network=NetworkSpec(bandwidth=1000.0, overhead=0.4),
        ),
    )


# failover-reads: arrivals span txns / rate virtual delays; the four leader
# crashes fall at fixed fractions of that window, on rotating shards, so
# every outage happens while load is still arriving.
_FAILOVER_RATE = 4.0
_FAILOVER_CRASH_FRACTIONS = (0.2, 0.4, 0.6, 0.8)


def _failover_reads(seed: int, txns: int) -> Workload:
    window = txns / _FAILOVER_RATE
    crashes = tuple(
        FaultStep(
            at=math.floor(window * fraction) + 0.5,
            action="crash-leader",
            shard=f"shard-{index % 3}",
        )
        for index, fraction in enumerate(_FAILOVER_CRASH_FRACTIONS)
    )
    return Workload(
        name="failover-reads",
        spec=ScenarioSpec(
            name="failover-reads",
            protocol="message-passing",
            num_shards=3,
            replicas_per_shard=2,
            seed=seed,
            workload=WorkloadSpec(
                kind="uniform", txns=txns, num_keys=2048,
                reads_per_txn=2, writes_per_txn=1, read_ratio=0.5,
            ),
            read=ReadSpec(mode="snapshot"),
            retry=RetrySpec(timeout=30.0),
            detector=DetectorSpec(interval=2.0, threshold=3),
            faults=crashes,
        ),
        rate=_FAILOVER_RATE,
    )


WORKLOADS = {
    "steady-mp": _steady_mp,
    "skew-rdma-link": _skew_rdma_link,
    "failover-reads": _failover_reads,
}

#: Transactions per simulated input.
TXNS = 10_000


def make_workload(name: str, seed: int, txns: int = TXNS) -> Workload:
    """The named workload with ``txns`` transactions generated from ``seed``."""
    return WORKLOADS[name](seed, txns)


class BenchRunner(ScenarioRunner):
    """A :class:`ScenarioRunner` whose inputs are generated in :meth:`prepare`
    (set-up) instead of inside :meth:`run`, and whose driver is either the
    runner's closed-loop waves or an open-loop arrival chain on the
    simulation clock."""

    def __init__(self, workload: Workload) -> None:
        super().__init__(workload.spec)
        self.workload = workload
        self.inputs: List[TransactionSpec] = []
        self.initial: Dict[str, Any] = {}
        # Open loop: txn id -> the virtual time its arrival was due.
        self.due: Dict[str, float] = {}
        self.generator_lag = 0.0

    def prepare(self) -> "BenchRunner":
        """Build the cluster and generate every transaction from the seed."""
        spec = self.spec
        load = spec.workload
        if load.kind == "zipfian":
            keys = ZipfianKeyGenerator(num_keys=load.num_keys, theta=load.theta, seed=spec.seed)
        else:
            keys = UniformKeyGenerator(num_keys=load.num_keys, seed=spec.seed)
        generator = ReadWriteWorkload(
            keys,
            reads_per_txn=load.reads_per_txn,
            writes_per_txn=load.writes_per_txn,
            seed=spec.seed,
            read_ratio=load.read_ratio,
        )
        self.inputs = generator.batch(load.txns)
        self.initial = {f"key-{i}": 0 for i in range(load.num_keys)}
        self.build()
        return self

    def _drive_store(self) -> None:
        from repro.store.executor import TransactionalStore

        self.store = TransactionalStore(self.cluster, initial=self.initial)
        self.cluster.seed_read_stores(self.initial)
        if self.workload.rate:
            self._drive_open_loop()
            return
        batch = self.spec.workload.batch
        for offset in range(0, len(self.inputs), batch):
            self.store.run_batch([txn.body() for txn in self.inputs[offset : offset + batch]])

    def _drive_open_loop(self) -> None:
        """One arrival chained on the scheduler at a fixed rate: each arrival
        submits its transaction at its due time and schedules the next, so
        requests falling due during an outage are still submitted."""
        scheduler = self.cluster.scheduler
        interval = 1.0 / self.workload.rate
        start = scheduler.now

        def arrive(index: int) -> None:
            due = start + index * interval
            self.generator_lag = max(self.generator_lag, scheduler.now - due)
            txn_spec = self.inputs[index]
            if txn_spec.writes:
                txn = self.store.submit_async(txn_spec.body())
            else:
                txn = self.store.submit_read_async(txn_spec.reads)
            self.due[txn] = due
            if index + 1 < len(self.inputs):
                scheduler.schedule_at(start + (index + 1) * interval, arrive, index + 1)

        scheduler.schedule_at(start, arrive, 0)
        self.cluster.run(max_events=self.spec.max_events)


@dataclass
class Outcome:
    """What one run decided, read back from the clients and the history."""

    submitted: int
    committed: int
    aborted: int
    undecided: int
    undecided_reads: int
    commit_latencies: List[float]  # certified (non-snapshot) commits
    read_latencies: List[float]  # snapshot reads, fast path or fallback
    generator_lag: float  # open loop: how late the latest arrival was submitted
    commit_span: float  # first submission -> last commit, in virtual time
    unavailable: List[float]  # per crash: crash -> first later commit on its shard


def outcome_of(runner: BenchRunner, result: ScenarioResult) -> Outcome:
    """Classify every submitted transaction of a finished run."""
    from repro.core.serializability import SnapshotRead

    cluster = runner.cluster
    history: History = cluster.history
    decided = history.decided()
    submit_times: Dict[str, float] = {}
    decide_times: Dict[str, float] = {}
    for client in cluster.clients:
        submit_times.update(client.submit_times)
        decide_times.update(client.decide_times)
    commit_latencies: List[float] = []
    read_latencies: List[float] = []
    undecided_reads = 0
    sharding = cluster.scheme.sharding
    commits_by_shard: Dict[str, List[tuple]] = {}
    for txn in history.certified():
        payload = history.payload_of(txn)
        is_read = isinstance(payload, SnapshotRead)
        decision = decided.get(txn)
        if decision is None:
            undecided_reads += is_read
            continue
        if txn not in decide_times:
            continue
        latency = decide_times[txn] - runner.due.get(txn, submit_times[txn])
        if is_read:
            read_latencies.append(latency)
            objects = payload.objects
        else:
            if decision is Decision.COMMIT:
                commit_latencies.append(latency)
            objects = payload.read_objects | payload.written_objects
        if decision is Decision.COMMIT:
            for shard in {sharding.shard_of(obj) for obj in objects}:
                commits_by_shard.setdefault(shard, []).append(
                    (submit_times[txn], decide_times[txn])
                )
    commit_times = [decided_at for times in commits_by_shard.values() for _, decided_at in times]
    first_submit = min(submit_times.values())
    unavailable: List[float] = []
    for crashed_at, shard in runner._crash_times:
        first = min(
            (decided_at for submitted_at, decided_at in commits_by_shard.get(shard, ())
             if submitted_at >= crashed_at),
            default=None,
        )
        # A shard that never committed again is out of service until the
        # run ends (at least).
        unavailable.append((runner.cluster.scheduler.now if first is None else first) - crashed_at)
    return Outcome(
        submitted=result.txns_submitted,
        committed=result.committed,
        aborted=result.aborted,
        undecided=result.undecided,
        undecided_reads=undecided_reads,
        commit_latencies=commit_latencies,
        read_latencies=read_latencies,
        generator_lag=runner.generator_lag,
        commit_span=max(commit_times, default=first_submit) - first_submit,
        unavailable=unavailable,
    )
