"""Coordinator bookkeeping: phase timing and worker cleanup.

``FleetResult.phases_s`` must be coordinator wall time — consecutive
intervals that fit inside ``wall_clock_s`` — not a sum over pods whose
intervals overlap.  And a shard worker that fails to start must
surface its own error, with every worker that did start reaped.
"""

import multiprocessing.context

import pytest

from repro.config import ExperimentConfig
from repro.shard import FleetScenario, PodSpec, run_fleet


def _fleet() -> FleetScenario:
    config = ExperimentConfig(
        environment="virtualized", composition="browsing", seed=7,
        clients=40,
    )
    return FleetScenario(
        name="pair",
        pods=(PodSpec("p1", config), PodSpec("p2", config)),
        duration_s=20.0,
        window_s=10.0,
        seed=11,
    )


@pytest.mark.parametrize(
    "shards, first_phase", [(1, "build"), (2, "spawn")]
)
def test_phases_are_wall_intervals_within_the_run(shards, first_phase):
    result = run_fleet(_fleet(), shards=shards)
    assert list(result.phases_s) == [first_phase, "simulate", "collect"]
    assert all(seconds >= 0 for seconds in result.phases_s.values())
    assert sum(result.phases_s.values()) <= result.wall_clock_s


def test_failed_worker_start_propagates_and_reaps_started_workers(
    monkeypatch,
):
    real_start = multiprocessing.context.SpawnProcess.start
    attempted = []

    def start(process):
        attempted.append(process)
        if len(attempted) == 2:
            raise RuntimeError("spawn refused")
        real_start(process)

    monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", start)
    with pytest.raises(RuntimeError, match="spawn refused"):
        run_fleet(_fleet(), shards=2)
    first, second = attempted
    assert not first.is_alive()
    assert first.exitcode is not None
    assert second.exitcode is None
