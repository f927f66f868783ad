"""A pod's window signals stay live on long runs.

``SessionStats.response_times_s`` is a reservoir that stops growing at
``MAX_SAMPLES``.  A pod whose window p95 read a cursor into it went
blind once a run passed that count: every later window reported
``p95_ms == 0`` and the fleet optimizer saw a healthy pod.
"""

import numpy as np
import pytest

from repro.config import ExperimentConfig
from repro.rubis.client import SessionStats
from repro.shard import FleetScenario, PodSpec
from repro.shard.pod import Pod


def _pod() -> Pod:
    config = ExperimentConfig(
        environment="virtualized", composition="browsing", seed=7,
        clients=40,
    )
    fleet = FleetScenario(
        name="pair",
        pods=(PodSpec("p1", config), PodSpec("p2", config)),
        duration_s=20.0,
        window_s=10.0,
        seed=11,
    )
    return Pod(fleet.pods[0], fleet)


def test_window_p95_survives_the_reservoir_cap():
    pod = _pod()
    pod.start()
    stats = pod.testbed.web.stats
    stats.response_times_s = [0.001] * SessionStats.MAX_SAMPLES
    own: list = []
    stats.add_window_sink(own)

    pod.advance_to(10.0)
    pod.signals()
    own.clear()
    pod.advance_to(20.0)
    second = pod.signals()

    assert len(stats.response_times_s) == SessionStats.MAX_SAMPLES
    assert own, "the second window completed no requests"
    assert second["p95_ms"] == pytest.approx(
        float(np.percentile(np.asarray(own), 95.0)) * 1000.0
    )
