"""Both request engines keep the same open-loop ledger.

The classic ``OpenLoopDriver`` and the batched ``BatchedOpenDriver``
share one ledger (``OpenLoopBase``): the same report keys, the same
conservation invariants under shedding, with and without retries, and
the same session-budget actuator checks.
"""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import open_loop_scenario
from repro.traffic.spec import TrafficSpec

REPORT_KEYS = {
    "offered",
    "admitted",
    "shed",
    "shed_fraction",
    "retried",
    "abandoned",
    "abandonment_fraction",
    "sessions_completed",
    "in_flight",
    "session_budget",
    "requests_per_session",
    "nominal_rate_rps",
}


def _run(engine: str, retry_max: int):
    # Five-request sessions at 7 s think time stay ~30 s in flight, so
    # 10 arrivals/s against a budget of 20 sheds most of the offer.
    traffic = TrafficSpec(
        kind="poisson",
        rate_rps=10.0,
        session_budget=20,
        requests_per_session=5,
        retry_max=retry_max,
        retry_backoff_s=1.0,
    )
    spec = open_loop_scenario(
        "virtualized", "browsing", duration_s=30.0, seed=3, traffic=traffic
    )
    return run_scenario(replace(spec, engine=engine))


@pytest.mark.parametrize("engine", ["classic", "batched"])
@pytest.mark.parametrize("retry_max", [0, 2])
def test_open_loop_ledger_invariants(engine, retry_max):
    result = _run(engine, retry_max)
    report = result.traffic_report
    assert set(report) == REPORT_KEYS
    assert report["shed"] > 0
    if retry_max == 0:
        assert report["offered"] == report["admitted"] + report["shed"]
        assert report["retried"] == 0
    else:
        assert report["retried"] > 0
    assert report["abandoned"] <= report["shed"]
    assert report["admitted"] == (
        report["sessions_completed"] + report["in_flight"]
    )
    with pytest.raises(ConfigurationError):
        result.population.set_session_budget(0)
