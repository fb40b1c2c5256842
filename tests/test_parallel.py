"""Tests for multi-core run fan-out (``repro.runtime.parallel``).

Seed derivation, deterministic result ordering, worker-crash surfacing,
byte-identity of runs and sweeps across ``jobs`` counts, and the property
the process pool relies on: fresh interpreters with different
``PYTHONHASHSEED`` values produce byte-identical results.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.runtime.parallel import (
    ParallelExecutor,
    WorkerError,
    derive_seed,
    resolve_jobs,
)
from repro.scenarios import (
    BatchSpec,
    LatencySpec,
    ScenarioSpec,
    get_scenario,
    run_latency_sweep,
    run_repetitions,
    run_scenarios,
    sort_batch_grid,
    sort_latency_grid,
)
from repro.scenarios.sweep import DEFAULT_BATCH_GRID, DEFAULT_GRID


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _small(name: str, txns: int = 30, **overrides) -> ScenarioSpec:
    spec = get_scenario(name)
    return spec.with_overrides(
        workload=replace(spec.workload, txns=txns), **overrides
    )


def _dumps(result) -> str:
    return json.dumps(result.as_dict(), sort_keys=True)


def _pool_env(monkeypatch) -> None:
    """Make this test module importable from spawn pool workers (the pool
    pickles functions by qualified name; workers must import tests/)."""
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    monkeypatch.setenv(
        "PYTHONPATH",
        os.pathsep.join(
            filter(None, (src_dir, tests_dir, os.environ.get("PYTHONPATH")))
        ),
    )


def _square(value: int) -> int:
    return value * value


def _explode(value: int) -> int:
    raise ValueError(f"worker boom on {value}")


# ----------------------------------------------------------------------
# seeds, executor, crash surfacing
# ----------------------------------------------------------------------

def test_derive_seed_is_deterministic_and_scattered():
    seeds = [derive_seed(7, i) for i in range(100)]
    assert seeds == [derive_seed(7, i) for i in range(100)]
    assert len(set(seeds)) == 100
    assert all(0 <= s < 2**31 for s in seeds)
    with pytest.raises(ValueError):
        derive_seed(7, -1)


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def test_executor_inline_path_preserves_order_and_exceptions():
    executor = ParallelExecutor(jobs=1)
    assert executor.map(_square, [3, 1, 2]) == [9, 1, 4]
    assert executor.map(_square, []) == []
    with pytest.raises(ValueError, match="worker boom"):
        executor.map(_explode, [5])


def test_executor_pool_returns_results_in_input_order(monkeypatch):
    _pool_env(monkeypatch)
    assert ParallelExecutor(jobs=2).map(_square, [4, 3, 2, 1]) == [16, 9, 4, 1]


def test_worker_crash_surfaces_child_traceback(monkeypatch):
    _pool_env(monkeypatch)
    with pytest.raises(WorkerError) as exc_info:
        ParallelExecutor(jobs=2).map(_explode, [10, 20])
    error = exc_info.value
    assert error.index == 0
    # The child's formatted traceback rides along, so the failure is
    # debuggable from the parent's log alone.
    assert "ValueError: worker boom on 10" in str(error)
    assert "Traceback" in error.child_traceback


def test_run_scenarios_identical_across_jobs(monkeypatch):
    _pool_env(monkeypatch)
    specs = [_small("steady-state"), _small("bank-transfers")]
    serial = run_scenarios(specs, jobs=1)
    parallel = run_scenarios(specs, jobs=2)
    assert [_dumps(r) for r in serial] == [_dumps(r) for r in parallel]


def test_run_repetitions_seed_schedule_is_jobs_invariant(monkeypatch):
    _pool_env(monkeypatch)
    spec = _small("steady-state")
    serial = run_repetitions(spec, 3, jobs=1)
    parallel = run_repetitions(spec, 3, jobs=2)
    assert [r.seed for r in serial] == [derive_seed(spec.seed, i) for i in range(3)]
    assert [_dumps(r) for r in serial] == [_dumps(r) for r in parallel]
    with pytest.raises(ValueError):
        run_repetitions(spec, 0)


def test_latency_sweep_identical_across_jobs(monkeypatch):
    _pool_env(monkeypatch)
    spec = _small("steady-state")
    serial = run_latency_sweep(spec, jobs=1)
    parallel = run_latency_sweep(spec, jobs=2)
    assert json.dumps(serial.as_dict(), sort_keys=True) == json.dumps(
        parallel.as_dict(), sort_keys=True
    )


# ----------------------------------------------------------------------
# canonical grid ordering
# ----------------------------------------------------------------------

def test_default_grids_are_already_canonical():
    assert sort_latency_grid(DEFAULT_GRID) == DEFAULT_GRID
    assert sort_batch_grid(DEFAULT_BATCH_GRID) == DEFAULT_BATCH_GRID


def test_sweep_output_independent_of_grid_input_order():
    spec = _small("steady-state")
    shuffled = (DEFAULT_GRID[2], DEFAULT_GRID[0], DEFAULT_GRID[3], DEFAULT_GRID[1])
    assert json.dumps(run_latency_sweep(spec, shuffled).as_dict()) == json.dumps(
        run_latency_sweep(spec, DEFAULT_GRID).as_dict()
    )


def test_sort_latency_grid_orders_by_model_rank_then_params():
    grid = (
        LatencySpec(model="exponential", mean=2.0),
        LatencySpec(model="unit"),
        LatencySpec(model="uniform", low=0.5, high=1.5),
        LatencySpec(model="exponential", mean=1.0),
    )
    assert [p.describe() for p in sort_latency_grid(grid)] == [
        "unit",
        "uniform(low=0.5,high=1.5)",
        "exponential(mean=1)",
        "exponential(mean=2)",
    ]


def test_sort_batch_grid_orders_by_size_then_linger():
    grid = (
        BatchSpec(size=8, linger=2.0, adaptive=False),
        BatchSpec(),
        BatchSpec(size=8),
        BatchSpec(size=4),
    )
    assert [p.size for p in sort_batch_grid(grid)] == [0, 4, 8, 8]
    assert [p.linger for p in sort_batch_grid(grid)] == [0.0, 0.0, 0.0, 2.0]


# ----------------------------------------------------------------------
# cross-process determinism (PYTHONHASHSEED)
# ----------------------------------------------------------------------

_SUBPROCESS_CASES = (
    "steady-state",
    "wan-steady-state",  # regions + jitter: exercises the network RNG
    "batch-saturation",
    "read-heavy-steady-state",
    "detector-leader-crash",
    "saturated-link",
    "rdma-steady-state",
    "baseline-steady-state",
)


@pytest.mark.parametrize("scenario", _SUBPROCESS_CASES)
def test_serial_run_identical_across_interpreter_hash_seeds(scenario):
    """Fresh interpreters with different hash seeds must produce
    byte-identical results — pool workers and the parent never share a
    hash seed, so any hash-order leak in a protocol stack, the network or
    the result collection shows up here as a diff."""
    script = (
        "import json;"
        "from dataclasses import replace;"
        "from repro.scenarios import ScenarioRunner, get_scenario;"
        f"s = get_scenario('{scenario}');"
        "s = s.with_overrides(workload=replace(s.workload, txns=40));"
        "print(json.dumps(ScenarioRunner(s).run().as_dict(), sort_keys=True))"
    )
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for hash_seed in ("1", "99"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src_dir, env.get("PYTHONPATH")))
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0]["history_digest"]  # digest actually recorded


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

def test_cli_run_accepts_multiple_scenarios(capsys):
    from repro.scenarios.__main__ import main

    code = main(["run", "steady-state", "bank-transfers", "--txns", "20", "--json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert set(document) == {"steady-state", "bank-transfers"}
