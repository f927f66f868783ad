"""P1 — engine + telemetry throughput on a full-registry scenario.

The tentpole performance benchmark: runs the paper's virtualized
browsing scenario with the complete 518-metric registry sampled every
2 s and reports end-to-end throughput — simulated seconds and completed
requests per wall-second on either engine, plus events/s through the
classic DES engine and metrics/s through the telemetry pipeline — into
``extra_info`` so the BENCH trajectory tracks regressions.

Two supporting microbenchmarks isolate the layers: a pure event-loop
run (periodic processes only, no application logic) and a
cancellation-heavy run that exercises the lazy-deletion + compaction
path of the event queue.

Quick mode: set ``REPRO_BENCH_QUICK=1`` to shrink the horizons so the
whole file runs in a few seconds (the CI smoke configuration).
"""

import os
import time
from dataclasses import replace

from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import scenario
from repro.monitoring.registry import build_registry
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess

QUICK = os.environ.get("REPRO_BENCH_QUICK", "").strip() in ("1", "true", "yes")

#: Scenario horizon (seconds of simulated time).
HORIZON_S = 30.0 if QUICK else 240.0
#: Pure event-loop horizon.
LOOP_HORIZON_S = 5.0 if QUICK else 50.0


def _record_engine_neutral(benchmark, result, horizon_s, elapsed):
    """Record the units both engines share; return them as a phrase.

    The batched engine fires only drain ticks, so DES events/s do not
    compare across engines; simulated seconds and completed requests
    per wall-second do.
    """
    sim_rate = horizon_s / elapsed
    request_rate = result.requests_completed / elapsed
    benchmark.extra_info["sim_s_per_wall_s"] = round(sim_rate, 2)
    benchmark.extra_info["requests_per_wall_s"] = round(request_rate)
    return f"{sim_rate:,.1f} sim-s/s, {request_rate:,.0f} requests/s"


def test_full_registry_scenario_throughput(benchmark):
    """End-to-end: DES + 518-metric telemetry, columnar storage."""
    registry = build_registry()
    sc = scenario("virtualized", "browsing", duration_s=HORIZON_S, seed=7)
    # Warm the calibration cache so the measurement covers the run loop,
    # not one-time setup.
    run_scenario(scenario("virtualized", "browsing", duration_s=4.0, seed=1))

    def run():
        start = time.perf_counter()
        result = run_scenario(
            sc,
            collect_full_registry=True,
            registry=registry,
            columnar_rows=True,
        )
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    events = result.deployment.sim.events_fired
    samples = len(result.columnar)
    metric_columns = len(result.columnar.columns) - 1  # minus time_s
    benchmark.extra_info["engine"] = "classic"
    benchmark.extra_info["horizon_s"] = HORIZON_S
    benchmark.extra_info["events_fired"] = events
    benchmark.extra_info["events_per_s"] = round(events / elapsed)
    benchmark.extra_info["samples"] = samples
    benchmark.extra_info["metric_columns"] = metric_columns
    benchmark.extra_info["metrics_per_s"] = round(
        samples * metric_columns / elapsed
    )
    rates = _record_engine_neutral(benchmark, result, HORIZON_S, elapsed)
    print(
        f"\n{events} events, {samples} x {metric_columns} metric samples "
        f"in {elapsed:.3f}s -> {events / elapsed:,.0f} events/s, "
        f"{samples * metric_columns / elapsed:,.0f} metrics/s, {rates}"
    )
    assert samples == int(HORIZON_S // 2)
    assert metric_columns == 3 * (182 + 154)


def test_million_event_scenario_throughput(benchmark):
    """The acceptance configuration: >1M events, full 518-metric registry.

    5000 clients over the 240 s horizon drive ~1.12M events.  This is
    the scale where the tuple-keyed heap pays off most: the seed
    implementation's per-event Python comparisons grow with the log of
    the pending-event count (one think timer per client), while the
    C-level tuple compares do not.  Measured speedup vs. the seed is
    recorded in PERFORMANCE.md (≥3x, bit-identical traces).
    """
    clients = 1_000 if QUICK else 5_000
    horizon = 30.0 if QUICK else 240.0
    registry = build_registry()
    sc = scenario(
        "virtualized", "browsing", duration_s=horizon, seed=7,
        clients=clients,
    )
    run_scenario(scenario("virtualized", "browsing", duration_s=4.0, seed=1))

    def run():
        start = time.perf_counter()
        result = run_scenario(
            sc,
            collect_full_registry=True,
            registry=registry,
            columnar_rows=True,
        )
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    events = result.deployment.sim.events_fired
    samples = len(result.columnar)
    metric_columns = len(result.columnar.columns) - 1
    benchmark.extra_info["engine"] = "classic"
    benchmark.extra_info["clients"] = clients
    benchmark.extra_info["events_fired"] = events
    benchmark.extra_info["events_per_s"] = round(events / elapsed)
    benchmark.extra_info["metrics_per_s"] = round(
        samples * metric_columns / elapsed
    )
    rates = _record_engine_neutral(benchmark, result, horizon, elapsed)
    print(
        f"\n{clients} clients: {events:,} events in {elapsed:.2f}s "
        f"-> {events / elapsed:,.0f} events/s, {rates}"
    )
    if not QUICK:
        assert events > 1_000_000


def test_full_registry_scenario_throughput_batched(benchmark):
    """The full-registry scenario under ``engine="batched"``.

    Same simulated work as the classic bench above, reported in the
    engine-neutral units (simulated seconds and completed requests per
    wall-second), so the two rows compare directly.
    """
    registry = build_registry()
    base = scenario("virtualized", "browsing", duration_s=HORIZON_S, seed=7)
    sc = replace(base, name=f"{base.name}%batched", engine="batched")
    run_scenario(scenario("virtualized", "browsing", duration_s=4.0, seed=1))

    def run():
        start = time.perf_counter()
        result = run_scenario(
            sc,
            collect_full_registry=True,
            registry=registry,
            columnar_rows=True,
        )
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    samples = len(result.columnar)
    metric_columns = len(result.columnar.columns) - 1
    benchmark.extra_info["engine"] = "batched"
    benchmark.extra_info["horizon_s"] = HORIZON_S
    benchmark.extra_info["metrics_per_s"] = round(
        samples * metric_columns / elapsed
    )
    rates = _record_engine_neutral(benchmark, result, HORIZON_S, elapsed)
    print(f"\nbatched: {HORIZON_S:g} sim-s in {elapsed:.3f}s -> {rates}")
    assert samples == int(HORIZON_S // 2)
    assert result.requests_completed > 0


def test_million_event_scenario_throughput_batched(benchmark):
    """The million-event acceptance configuration under the batched engine.

    The engine-neutral rates on the exact configuration PERFORMANCE.md
    tracks (5000 clients, 240 s, full registry, columnar).
    """
    clients = 1_000 if QUICK else 5_000
    horizon = 30.0 if QUICK else 240.0
    registry = build_registry()
    base = scenario(
        "virtualized", "browsing", duration_s=horizon, seed=7,
        clients=clients,
    )
    sc = replace(base, name=f"{base.name}%batched", engine="batched")
    run_scenario(scenario("virtualized", "browsing", duration_s=4.0, seed=1))

    def run():
        start = time.perf_counter()
        result = run_scenario(
            sc,
            collect_full_registry=True,
            registry=registry,
            columnar_rows=True,
        )
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["engine"] = "batched"
    benchmark.extra_info["clients"] = clients
    rates = _record_engine_neutral(benchmark, result, horizon, elapsed)
    print(
        f"\nbatched, {clients} clients: {horizon:g} sim-s in "
        f"{elapsed:.2f}s -> {rates}"
    )
    assert result.requests_completed > 0


def test_pure_event_loop_throughput(benchmark):
    """Engine-only: periodic callbacks, no application or telemetry."""

    def run():
        sim = Simulator()
        for k in range(200):
            PeriodicProcess(
                sim, 0.01 + k * 1e-5, lambda t: None, name=f"p{k}"
            ).start()
        start = time.perf_counter()
        sim.run_until(LOOP_HORIZON_S)
        return sim.events_fired, time.perf_counter() - start

    events, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["events_fired"] = events
    benchmark.extra_info["events_per_s"] = round(events / elapsed)
    print(f"\npure loop: {events / elapsed:,.0f} events/s")
    assert events > 0


def test_cancellation_heavy_throughput(benchmark):
    """Timer-wheel style load: most scheduled events are cancelled.

    Mimics burst waves re-arming think timers; exercises lazy deletion
    and heap compaction, which keep pop cost bounded.
    """
    rounds = 2_000 if QUICK else 50_000

    def run():
        sim = Simulator()
        fired = []
        start = time.perf_counter()
        pending = []
        for i in range(rounds):
            # Schedule a far-future timeout, then cancel it and re-arm —
            # the pattern that litters the heap with dead entries.
            event = sim.schedule(1e6 + i, fired.append, i)
            pending.append(event)
            if len(pending) >= 16:
                for stale in pending:
                    sim.cancel(stale)
                pending.clear()
            sim.schedule(0.001 * i, lambda: None)
        sim.run_until(0.001 * rounds + 1.0)
        return time.perf_counter() - start, sim

    elapsed, sim = benchmark.pedantic(run, rounds=1, iterations=1)
    queue = sim._queue
    benchmark.extra_info["scheduled"] = 2 * rounds
    benchmark.extra_info["ops_per_s"] = round(2 * rounds / elapsed)
    benchmark.extra_info["compactions"] = queue.compactions
    print(
        f"\ncancellation-heavy: {2 * rounds / elapsed:,.0f} ops/s, "
        f"{queue.compactions} compactions, "
        f"{queue.dead_entries} dead entries left"
    )
    assert queue.compactions > 0
