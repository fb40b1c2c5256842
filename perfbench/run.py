"""End-to-end and per-layer benchmark of the reconfigurable TCS simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steady-mp --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with every layer wrapped by
:mod:`tracer` and prints every per-layer metric, after checking that the
traced run digests the same history as an untraced run made in a child
process under another ``PYTHONHASHSEED``.  Each metric is printed on its own
line as ``name = value unit``; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``attempted`` counts the simulations run and ``failed`` those that failed a
gate.

Every run is gated: the online TCS checker and the replica invariants must
pass, the history must hold no contradictory decision, committed + aborted +
undecided must equal the transactions generated (counted from the clients
and from the history separately), and repeated simulations of one input must
digest identically.  A failed gate prints ``"correct": false`` and exits 1;
bad arguments or a checkout without the program exit 2 with no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import heapq
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up (fresh import of the program, cluster build, input generation) is
# timed this many times before each untraced replay, so the samples spread
# over the whole run; the median of all of them is reported.
SETUPS_PER_REPLAY = 2
# An untraced run simulates this many distinct inputs drawn from its seed
# (then replays them in turn until its time is up); the virtual-time metrics
# pool all of them, which keeps their seed-to-seed spread small.
INPUTS_PER_RUN = 3
# Transactions of the small runs that prove the seed reaches the generators.
SEED_CHECK_TXNS = 300
CHILD_TIMEOUT_S = 170.0


class GateFailure(Exception):
    """A correctness gate failed: the run is wrong, not just slow."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def mid_quantile(values: List[float], share: float) -> float:
    """The mid-quantile of ``values`` at ``share`` (Ma, Genton & Parzen,
    2011): the inverse of the mid-distribution F(x) - P(X = x)/2,
    interpolated linearly between distinct values.  On untied samples it is
    the usual interpolated quantile; on tied samples — unit-latency runs put
    most commits at a whole number of delays — it moves with the share of
    samples at each value instead of jumping from one whole value to the
    next."""
    count = len(values)
    points: List[Tuple[float, float]] = []  # (mid-distribution, value)
    below = 0
    for value, group in itertools.groupby(sorted(values)):
        ties = sum(1 for _ in group)
        points.append(((below + ties / 2.0) / count, value))
        below += ties
    if share <= points[0][0]:
        return points[0][1]
    for (low_f, low_v), (high_f, high_v) in zip(points, points[1:]):
        if share <= high_f:
            return low_v + (high_v - low_v) * (share - low_f) / (high_f - low_f)
    return points[-1][1]


def top_mean(values: List[float], share: float) -> float:
    """Mean of the slowest ``share`` of ``values`` (the expected shortfall):
    a tail figure that averages many samples, so it stays steady where a
    percentile sits on the edge between two modes of the distribution —
    as on failover-reads, where most commits take about 6 delays, about one
    in seven waits out a 30-delay retry timeout and about one in a hundred
    waits out two or more."""
    return statistics.fmean(heapq.nlargest(max(1, math.ceil(share * len(values))), values))


def beyond(values: List[float], share: float) -> int:
    """How many samples lie above the nearest-rank quantile at ``share``."""
    return len(values) - math.ceil(share * len(values))


# ----------------------------------------------------------------------
# one simulation
# ----------------------------------------------------------------------
def load_program():
    """Import the program and the workload module (a fresh import when the
    caller has purged them), returning the workload module."""
    import workloads

    return workloads


def purge_program() -> None:
    for name in list(sys.modules):
        if name == "repro" or name.startswith("repro.") or name in ("workloads", "tracer"):
            del sys.modules[name]


def prepare(workload: str, seed: int, index: int = 0, txns: Optional[int] = None) -> Any:
    """Set up input ``index`` of ``seed``: its own generator seed, so the
    inputs of one run differ and no two (seed, index) pairs share one."""
    module = load_program()
    spec = module.make_workload(workload, seed * INPUTS_PER_RUN + index, txns or module.TXNS)
    return module.BenchRunner(spec).prepare()


def simulate(runner: Any, observe: Any = None) -> Dict[str, Any]:
    """Drive one prepared runner to its verdict, gate the result and keep
    what the metrics need as plain data; ``observe(runner, result, run)``
    adds the per-layer values of a traced run.  Nothing of the program is
    kept, so a replay never simulates next to the previous replay's cluster
    and a purged import of the program can be freed."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = runner.run()
    except Exception as error:  # the program failed: report it as a wrong run
        raise GateFailure("the simulation raised:\n" + traceback.format_exc()) from error
    wall = time.perf_counter() - start
    outcome = load_program().outcome_of(runner, result)
    gate(runner, result, outcome)
    run = {"wall": wall, "fingerprint": fingerprint(result, outcome),
           "outcome": SimpleNamespace(**dataclasses.asdict(outcome))}
    if observe is not None:
        run["layers"], run["detail"] = observe(runner, result, run)
    return run


def gate(runner: Any, result: Any, outcome: Any) -> None:
    """The correctness gates every run must pass."""
    from repro.core.types import Decision

    if result.check_mode != "online":
        raise GateFailure(f"checker mode is {result.check_mode!r}, not online")
    if not result.check_ok:
        raise GateFailure(f"online TCS checker: {result.check_reason}")
    if result.invariant_violations:
        raise GateFailure(f"{result.invariant_violations} replica invariant violation(s)")
    if result.contradictions:
        raise GateFailure(f"{result.contradictions} contradictory decision(s) recorded")
    generated = len(runner.inputs)
    if result.txns_submitted != generated:
        raise GateFailure(f"{result.txns_submitted} submitted of {generated} generated")
    committed = aborted = 0
    for client in runner.cluster.clients:
        for decision in client.outcomes.values():
            committed += decision is Decision.COMMIT
            aborted += decision is Decision.ABORT
    undecided = generated - committed - aborted
    if (committed, aborted, undecided) != (result.committed, result.aborted, result.undecided):
        raise GateFailure(
            f"clients saw {committed} committed / {aborted} aborted / {undecided} "
            f"undecided of {generated} generated; the history has "
            f"{result.committed} / {result.aborted} / {result.undecided} "
            f"of {result.txns_submitted} submitted"
        )


def fingerprint(result: Any, outcome: Any) -> Dict[str, Any]:
    """Everything a run computes in virtual time: the digest, the program's
    own counters and the virtual-time metrics.  Must not depend on
    ``PYTHONHASHSEED``, on tracing or on how often the input was replayed."""
    return {
        "digest": result.history_digest,
        "committed": result.committed,
        "aborted": result.aborted,
        "undecided": result.undecided,
        "undecided_reads": outcome.undecided_reads,
        "events_fired": result.events_fired,
        "messages_sent": result.messages_sent,
        "messages_delivered": result.messages_delivered,
        "bytes_sent": result.bytes_sent,
        "batches": result.batches,
        "retries": result.retries,
        "pushed_failovers": result.pushed_failovers,
        "orphaned": result.orphaned,
        "suspicions": result.suspicions,
        "view_changes": result.view_changes,
        "reads_served": result.reads_served,
        "recovery_times": list(result.recovery_times),
        "duration": result.duration,
        "virtual": virtual_metrics([outcome]),
    }


def virtual_metrics(outcomes: List[Any]) -> Dict[str, float]:
    """The end-to-end metrics measured in virtual time, pooled over the
    given inputs' outcomes."""
    latencies = [value for outcome in outcomes for value in outcome.commit_latencies]
    committed = sum(outcome.committed for outcome in outcomes)
    failed = sum(outcome.aborted + outcome.undecided for outcome in outcomes)
    span = sum(outcome.commit_span for outcome in outcomes)
    return {
        "commit_p50_delays": mid_quantile(latencies, 0.5),
        "commit_top1pct_mean_delays": top_mean(latencies, 0.01),
        "vt_commits_per_kdelay": committed / span * 1000.0,
        "failed_frac": failed / sum(outcome.submitted for outcome in outcomes),
    }


# ----------------------------------------------------------------------
# the two modes
# ----------------------------------------------------------------------
class SetupTimer:
    """Sets up each untraced replay, timing ``SETUPS_PER_REPLAY`` set-ups
    that each import the program afresh, build the cluster and generate the
    inputs; the last one is simulated."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.samples: List[float] = []

    def __call__(self, index: int) -> Any:
        runner = None
        for _ in range(SETUPS_PER_REPLAY):
            runner = None
            purge_program()
            gc.collect()
            start = time.perf_counter()
            runner = prepare(self.workload, self.seed, index)
            self.samples.append(time.perf_counter() - start)
        return runner


def replay(seconds: float, fresh: Any, inputs: int = 1,
           observe: Any = None) -> List[Dict[str, Any]]:
    """Simulate ``inputs`` inputs in turn, each on a runner ``fresh(index)``
    sets up, until every input ran once and ``seconds`` have passed; every
    replay of an input must digest like its first run."""
    runs: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < inputs or time.perf_counter() < deadline:
        index = len(runs) % inputs
        runs.append(simulate(fresh(index), observe))
        if runs[-1]["fingerprint"]["digest"] != runs[index]["fingerprint"]["digest"]:
            raise GateFailure("replaying the same input changed the history digest")
    return runs


def end_to_end(runs: List[Dict[str, Any]], setup_s: float) -> Dict[str, float]:
    rates = [
        (run["outcome"].committed + run["outcome"].aborted) / run["wall"] for run in runs
    ]
    metrics = {
        "sim_txns_per_s": statistics.median(rates),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(virtual_metrics([run["outcome"] for run in runs[:INPUTS_PER_RUN]]))
    return metrics


def run_child(workload: str, seed: int) -> Dict[str, Any]:
    """One untraced simulation in a child process whose ``PYTHONHASHSEED``
    differs from ours; returns its fingerprint and wall time."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--child"]
    try:
        completed = subprocess.run(
            command, env=env, cwd=str(ROOT), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        raise GateFailure(f"untraced child run exceeded {CHILD_TIMEOUT_S:g} s") from None
    if completed.returncode != 0:
        raise GateFailure(f"untraced child run failed:\n{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def child_main(workload: str, seed: int) -> int:
    run = simulate(prepare(workload, seed))
    print(json.dumps({"fingerprint": run["fingerprint"], "wall": run["wall"]}))
    return 0


class TracedReplays:
    """Set-ups and observers for traced replays: each replay gets a fresh
    :class:`tracer.Tracer`, installed before its set-up so input generation
    is traced too, and removed once its per-layer values are read."""

    def __init__(self, workload: str, seed: int, child: Dict[str, Any]) -> None:
        self.workload, self.seed, self.child = workload, seed, child
        self.tracer: Any = None

    def fresh(self, index: int) -> Any:
        from tracer import Tracer

        self.tracer = Tracer().install()
        try:
            runner = prepare(self.workload, self.seed)
        except BaseException:
            self.close()
            raise
        self.tracer.reset_cover()
        return runner

    def observe(self, runner: Any, result: Any,
                run: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, Any]]:
        self.close()
        return layer_values(runner, result, run, self.tracer, self.child)

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()


def per_layer(runs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics: the median over traced replays of each value."""
    return {
        name: statistics.median(run["layers"][name] for run in runs)
        for name in runs[0]["layers"]
    }


def layer_values(runner: Any, result: Any, run: Dict[str, Any], tracer: Any,
                 child: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    from tracer import LAYERS

    outcome = run["outcome"]
    cluster = runner.cluster
    commits = max(outcome.committed, 1)
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = tracer.calls(layer)
        values[f"{layer}.self_s"] = tracer.self_time(layer)
    stats = cluster.network.stats
    link = cluster.network
    waits = link.queue_wait_samples
    votes = tracer.calls("core.certification", "LeaderVoteCache.vote")
    served, fallbacks = result.reads_served, result.read_fallbacks
    reads = outcome.read_latencies
    service = cluster.config_service
    checker = runner.checker.stats
    values.update({
        "runtime.events.fired_per_commit": result.events_fired / commits,
        "runtime.events.heap_pushes_per_commit":
            tracer.calls("runtime.events", "Scheduler.schedule_at") / commits,
        "runtime.events.events_per_s": result.events_fired / child["wall"],
        "runtime.process.dispatches_per_commit":
            tracer.calls("runtime.process", "Process.deliver") / commits,
        "runtime.network.sent_per_commit": stats.total_sent / commits,
        "runtime.network.delivered_per_commit": stats.total_delivered / commits,
        "runtime.network.bytes_per_commit": stats.bytes_sent / commits,
        "runtime.network.queue_wait_mean_delays": statistics.fmean(waits) if waits else 0.0,
        "runtime.network.queue_wait_max_delays": max(waits, default=0.0),
        "runtime.network.busy_delays": link.link_busy_time,
        "core.coordinator.handler_calls": tracer.calls("core.coordinator", prefix="on_"),
        "core.replica.handler_calls": tracer.calls("core.replica", prefix="on_"),
        "rdma.replica.handler_calls": tracer.calls("rdma.replica", prefix="on_"),
        "core.certification.votes": votes,
        "core.certification.commit_vote_ratio": tracer.commit_votes / votes if votes else 0.0,
        "core.certification.conflict_registers": tracer.calls(
            "core.certification", "_SerializabilityConflictIndex.register"),
        "core.certification.conflict_retires": tracer.calls(
            "core.certification", "_SerializabilityConflictIndex.retire"),
        "core.batching.batches": result.batches,
        "core.batching.mean_batch_size": result.mean_batch_size,
        "core.batching.queue_wait_mean_delays":
            statistics.fmean(tracer.batch_waits) if tracer.batch_waits else 0.0,
        "core.reads.served": served,
        "core.reads.fallbacks": fallbacks,
        "core.reads.served_ratio": served / (served + fallbacks) if served + fallbacks else 0.0,
        "core.reads.read_p50_delays": mid_quantile(reads, 0.5) if reads else 0.0,
        "core.reads.read_p99_delays": mid_quantile(reads, 0.99) if reads else 0.0,
        "core.failuredetector.suspicions": result.suspicions,
        "core.failuredetector.false_suspicions": result.false_suspicions,
        "configservice.view_changes": result.view_changes,
        "configservice.installs": sum(1 for at, *_ in service.install_log if at > 0),
        "core.reconfig.unsolicited_reconfigurations": result.unsolicited_reconfigurations,
        "core.reconfig.crash_to_install_max_delays": max(result.recovery_times, default=0.0),
        "core.reconfig.crash_to_commit_max_delays": max(outcome.unavailable, default=0.0),
        "client.retries": result.retries,
        "client.failovers": result.failovers,
        "client.pushed_failovers": result.pushed_failovers,
        "client.orphaned": result.orphaned,
        "client.duplicates": result.duplicate_requests,
        "client.undecided_reads": outcome.undecided_reads,
        "spec.history.records": tracer.calls("spec.history", prefix="History.record_"),
        "spec.history.digest_s": tracer.inclusive("spec.history", "History.digest"),
        "spec.incremental.graph_nodes": checker["nodes"],
        "spec.incremental.graph_edges": checker["edges"],
        "store.execute_s": tracer.inclusive("store", "TransactionalStore.execute"),
        "store.submit_s": tracer.inclusive("store", "Cluster.submit")
            + tracer.inclusive("store", "Cluster.submit_read"),
        "workload.generation_s": tracer.inclusive("workload", "ReadWriteWorkload.batch"),
        "trace.overhead_ratio": run["wall"] / child["wall"],
        "trace.uncovered_share": max(0.0, 1.0 - tracer.covered / run["wall"]),
        "trace.traced_wall_s": run["wall"],
        "trace.untraced_wall_s": child["wall"],
    })
    detail = {
        "messages_sent_by_type": dict(sorted(stats.sent_by_type.items())),
        "handler_calls_by_type": tracer.handler_calls(),
        "read_fallback_reasons": dict(sorted(result.read_fallback_reasons.items())),
        "recovery_times": list(result.recovery_times),
        "crash_to_commit": outcome.unavailable,
    }
    return values, detail


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_metrics() -> Dict[str, List[Dict[str, Any]]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def report(metrics: Dict[str, float], declared: List[Dict[str, Any]]) -> Dict[str, Any]:
    missing = [item["name"] for item in declared if item["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    out = {}
    for item in declared:
        value = float(metrics[item["name"]])
        print(f"{item['name']} = {value!r} {item['unit']}")
        out[item["name"]] = {"value": value, "unit": item["unit"]}
    return out


def main(argv: List[str]) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args.workload, args.seed)
    declared = declared_metrics()
    correct = True
    try:
        if args.trace:
            child = run_child(args.workload, args.seed)
            replays = TracedReplays(args.workload, args.seed, child)
            try:
                runs = replay(args.seconds, replays.fresh, observe=replays.observe)
            finally:
                replays.close()
            if runs[0]["fingerprint"] != child["fingerprint"]:
                raise GateFailure(
                    "the traced run and the untraced run under another "
                    f"PYTHONHASHSEED differ:\n{runs[0]['fingerprint']}\n"
                    f"{child['fingerprint']}"
                )
            seed_digests = {
                simulate(prepare(args.workload, seed, txns=SEED_CHECK_TXNS))["fingerprint"]["digest"]
                for seed in (args.seed, args.seed + 1)
            }
            if len(seed_digests) != 2:
                raise GateFailure("a different seed produced the same history digest")
            metrics = per_layer(runs)
            print("detail = " + json.dumps(runs[0]["detail"], sort_keys=True))
            section = declared["per_layer"]
        else:
            setups = SetupTimer(args.workload, args.seed)
            runs = replay(args.seconds, setups, INPUTS_PER_RUN)
            metrics = end_to_end(runs, statistics.median(setups.samples))
            section = declared["end_to_end"]
        inputs = runs[:1] if args.trace else runs[:INPUTS_PER_RUN]
        latencies = [value for run in inputs for value in run["outcome"].commit_latencies]
        print(f"replays = {len(runs)} of {len(inputs)} input(s); commit latency samples = "
              f"{len(latencies)}; p99 = {mid_quantile(latencies, 0.99)!r} delays with "
              f"{beyond(latencies, 0.99)} beyond; p99.9 = "
              f"{mid_quantile(latencies, 0.999)!r} delays with "
              f"{beyond(latencies, 0.999)} beyond; undecided reads = "
              f"{sum(run['outcome'].undecided_reads for run in inputs)}; generator lag = "
              f"{max(run['outcome'].generator_lag for run in inputs)!r} delays; digests = "
              f"{' '.join(run['fingerprint']['digest'][:16] for run in inputs)}")
        # One operation is one simulation driven to its safety verdict; every
        # simulation passed its gates, or GateFailure was raised above.
        # Aborted and undecided transactions are outcomes the metrics count
        # (failed_frac, undecided reads), not failures of the benchmark.
        attempted, failed = len(runs), 0
        payload = report(metrics, section)
    except GateFailure as failure:
        print(f"correctness gate failed: {failure}", file=sys.stderr)
        correct = False
        attempted, failed, payload = 1, 1, {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": payload}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
