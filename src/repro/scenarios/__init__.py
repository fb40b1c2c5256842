"""Declarative scenario engine: one driving loop for every consumer.

``repro.scenarios`` turns "build a cluster, inject faults, run a workload,
collect metrics" into data: a :class:`ScenarioSpec` describes the
experiment, :class:`ScenarioRunner` executes it deterministically, and a
:class:`ScenarioResult` carries throughput, latency, abort-rate, message
and safety metrics.  The examples, the benchmark harness, the tests and
the ``python -m repro.scenarios`` CLI all run on this engine.
"""

from repro.scenarios.library import (
    SCENARIOS,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.latency import compile_latency_model, parse_latency
from repro.scenarios.runner import (
    ScenarioResult,
    ScenarioRunner,
    run_scenario,
    run_sweep,
)
from repro.scenarios.executor import (
    run_repetitions,
    run_scenarios,
)
from repro.scenarios.spec import (
    CHECK_MODES,
    FAULT_ACTIONS,
    LATENCY_MODELS,
    PROTOCOL_BASELINE,
    WORKLOAD_KINDS,
    BatchSpec,
    FaultStep,
    LatencySpec,
    NetworkSpec,
    RetrySpec,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.scenarios.sweep import (
    DEFAULT_BANDWIDTH_GRID,
    DEFAULT_BATCH_GRID,
    DEFAULT_GRID,
    BandwidthSweepResult,
    BatchSweepResult,
    LatencySweepResult,
    parse_bandwidth,
    parse_bandwidth_grid,
    parse_batch,
    parse_batch_grid,
    parse_grid,
    run_bandwidth_sweep,
    run_batch_sweep,
    run_latency_sweep,
    sort_bandwidth_grid,
    sort_batch_grid,
    sort_latency_grid,
)

__all__ = [
    "CHECK_MODES",
    "DEFAULT_BANDWIDTH_GRID",
    "DEFAULT_BATCH_GRID",
    "DEFAULT_GRID",
    "SCENARIOS",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
    "run_scenarios",
    "run_repetitions",
    "run_sweep",
    "run_bandwidth_sweep",
    "run_batch_sweep",
    "run_latency_sweep",
    "compile_latency_model",
    "parse_latency",
    "parse_bandwidth",
    "parse_bandwidth_grid",
    "parse_batch",
    "parse_batch_grid",
    "parse_grid",
    "sort_bandwidth_grid",
    "sort_batch_grid",
    "sort_latency_grid",
    "FAULT_ACTIONS",
    "LATENCY_MODELS",
    "PROTOCOL_BASELINE",
    "WORKLOAD_KINDS",
    "BandwidthSweepResult",
    "BatchSpec",
    "BatchSweepResult",
    "FaultStep",
    "LatencySpec",
    "LatencySweepResult",
    "NetworkSpec",
    "RetrySpec",
    "ScenarioError",
    "ScenarioSpec",
    "WorkloadSpec",
]
