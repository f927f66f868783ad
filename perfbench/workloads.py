"""The benchmark's three workloads, built from a seed.

Each workload runs the simulator through its public API only:
``repro.experiments.runner.run_scenario``/``prepare_run`` for the paper
matrix cell and ``repro.shard.run_fleet`` for the datacenter fleet.
Every workload is closed loop (a fixed client population that waits
for each reply) and stays inside the engine-validated set, so no seed
can turn a run into a ``ConfigurationError``.

Why these three (see ``perfbench/NOTES.md`` for the layer mapping):

* ``paper-batched`` exercises the two batched optimizations (the
  array drain and the columnar 518-metric registry tick); it is the
  million-event acceptance configuration on the engine the next
  performance work targets.
* ``paper-classic`` is the same configuration on the classic event
  path, which bypasses both optimizations; it is also the fidelity
  reference the batched engine is compared against.
* ``datacenter-fleet`` is the only workload that loads the credit
  scheduler epoch (100 hypervisors, MapReduce tenants writing to disk
  beside the web tier) and the only one that spawns shard workers and
  exchanges lockstep windows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from repro.experiments.baseline import ks_statistic, result_fingerprint
from repro.experiments.runner import prepare_run, run_scenario
from repro.experiments.scenarios import scenario
from repro.shard import datacenter_fleet, run_fleet
from repro.units import SAMPLE_PERIOD_S

from layers import Tracer

#: The paper cell: the ROADMAP million-event acceptance configuration.
PAPER_ENVIRONMENT = "virtualized"
PAPER_COMPOSITION = "browsing"
PAPER_HORIZON_S = 240.0
PAPER_CLIENTS = 5000
#: Shard workers of the measured fleet run (the container's core count).
FLEET_SHARDS = 2


@dataclass
class Outcome:
    """What one run of a workload produced, reduced to what is checked."""

    wall_s: float
    sim_s: float
    requests: int
    events: int
    fingerprint: str
    #: Failed output checks, one line each (empty when the run is good).
    problems: List[str] = field(default_factory=list)
    #: Response-time samples (paper cells only; the fidelity input).
    response_times: Optional[np.ndarray] = field(default=None, repr=False)


def check_result(result, horizon_s: float) -> List[str]:
    """Output checks shared by paper runs and fleet pods.

    The sample count equals horizon/2, every sampled value (and every
    columnar registry value) is finite, and the completed requests are
    positive and no more than were sent.
    """
    problems = []
    expected = int(round(horizon_s / SAMPLE_PERIOD_S))
    name = result.scenario.name
    for key in result.traces.keys():
        series = result.traces.get(*key)
        if len(series.values) != expected:
            problems.append(
                f"{name}: series {key} has {len(series.values)} samples, "
                f"expected {expected}"
            )
            break
        if not np.isfinite(np.asarray(series.values, dtype=float)).all():
            problems.append(f"{name}: series {key} has a non-finite value")
            break
    if result.columnar is not None:
        if len(result.columnar) != expected:
            problems.append(
                f"{name}: {len(result.columnar)} registry rows, "
                f"expected {expected}"
            )
        if not np.isfinite(result.columnar.matrix()).all():
            problems.append(f"{name}: a registry value is not finite")
    sent = result.client_stats.requests_sent
    done = result.requests_completed
    if not 0 < done <= sent:
        problems.append(
            f"{name}: {done} requests completed of {sent} sent"
        )
    return problems


def run_traced(workload, seed: int, tracer: Tracer) -> Outcome:
    """One in-process run under ``tracer``, checking every result it saw.

    Adds to the outcome's problems the output checks of every collected
    result (each fleet pod) and the span accounting: the layer self
    times must sum to no more than the traced wall.
    """
    with tracer.installed():
        outcome = workload.run_inline(seed)
    for result in tracer.collected:
        outcome.problems.extend(check_result(result, outcome.sim_s))
    if tracer.layer_self_sum() > outcome.wall_s:
        outcome.problems.append(
            f"layer self times {tracer.layer_self_sum():.4f} s exceed "
            f"the traced wall {outcome.wall_s:.4f} s"
        )
    return outcome


class PaperWorkload:
    """virtualized/browsing, 5000 clients, 240 s, full columnar registry."""

    def __init__(self, name: str, engine: str, reference_engine: str):
        self.name = name
        self.engine = engine
        #: The other engine at the same config and seed: the fidelity
        #: comparison (two-sample KS on response times is symmetric).
        self.reference_engine = reference_engine

    def describe(self) -> dict:
        return {
            "environment": PAPER_ENVIRONMENT,
            "composition": PAPER_COMPOSITION,
            "horizon_s": PAPER_HORIZON_S,
            "clients": PAPER_CLIENTS,
            "engine": self.engine,
            "registry": "full, columnar",
            "loop": "closed",
        }

    def scenario(self, seed: int, engine: Optional[str] = None):
        engine = engine or self.engine
        base = scenario(
            PAPER_ENVIRONMENT,
            PAPER_COMPOSITION,
            duration_s=PAPER_HORIZON_S,
            seed=seed,
            clients=PAPER_CLIENTS,
        )
        if engine == "classic":
            return base
        return replace(base, name=f"{base.name}%{engine}", engine=engine)

    def setup(self, seed: int) -> None:
        """Everything before the first simulated event (cold in a probe)."""
        prepared = prepare_run(
            self.scenario(seed), collect_full_registry=True,
            columnar_rows=True,
        )
        prepared.start()

    def run(self, seed: int, engine: Optional[str] = None) -> Outcome:
        spec = self.scenario(seed, engine)
        started = time.perf_counter()
        result = run_scenario(
            spec, collect_full_registry=True, columnar_rows=True
        )
        wall = time.perf_counter() - started
        return Outcome(
            wall_s=wall,
            sim_s=spec.duration_s,
            requests=result.requests_completed,
            events=result.events_fired,
            fingerprint=result_fingerprint(result),
            problems=check_result(result, spec.duration_s),
            response_times=np.asarray(
                result.client_stats.response_times_s, dtype=float
            ),
        )

    def run_inline(self, seed: int) -> Outcome:
        """The in-process run the traced measurement wraps."""
        return self.run(seed)

    def reference(self, seed: int, measured: Outcome) -> dict:
        """Fidelity: 1 - KS between the two engines at this seed."""
        other = self.run(seed, self.reference_engine)
        ks = ks_statistic(measured.response_times, other.response_times)
        return {
            "problems": other.problems,
            "resp_ks_vs_other_engine": ks,
            "resp_agreement": 1.0 - ks,
            "reference_engine": self.reference_engine,
            "reference_fingerprint": other.fingerprint,
            "reference_wall_s": other.wall_s,
        }


class FleetWorkload:
    """``datacenter_fleet()``: 25 pods x 4 servers x 40 VMs, 2 shards."""

    name = "datacenter-fleet"

    def describe(self) -> dict:
        fleet = datacenter_fleet()
        return {
            "fleet": fleet.name,
            "pods": len(fleet.pods),
            "servers": 4 * len(fleet.pods),
            "vms": 40 * len(fleet.pods),
            "horizon_s": fleet.duration_s,
            "window_s": fleet.window_s,
            "shards": FLEET_SHARDS,
            "engine": "classic",
            "loop": "closed",
        }

    def setup(self, seed: int) -> None:
        """The fleet's set-up ends where ``run_fleet`` is called."""
        datacenter_fleet(seed=seed)

    def run(self, seed: int, shards: int = FLEET_SHARDS) -> Outcome:
        fleet = datacenter_fleet(seed=seed)
        started = time.perf_counter()
        result = run_fleet(fleet, shards=shards)
        wall = time.perf_counter() - started
        problems = [
            f"{name}: no request completed"
            for name, pod in sorted(result.pods.items())
            if pod["requests_completed"] <= 0
        ]
        return Outcome(
            wall_s=wall,
            sim_s=fleet.duration_s,
            requests=result.requests_completed,
            events=result.events_fired,
            fingerprint=result.merged_sha256,
            problems=problems,
        )

    def run_inline(self, seed: int) -> Outcome:
        """The ``shards=1`` path: identical pod operations, in process."""
        return self.run(seed, shards=1)

    def reference(self, seed: int, measured: Outcome) -> dict:
        """Sharding must not move the physics: inline sha == sharded sha.

        Runs traced so the per-pod results can be checked too (the
        sample count, finiteness and request conservation of every pod).
        The fleet runs a single engine, so its engine agreement is 1 by
        definition; the sha equality is the stronger statement.
        """
        tracer = Tracer()
        inline = run_traced(self, seed, tracer)
        problems = list(inline.problems)
        if len(tracer.collected) != len(datacenter_fleet(seed=seed).pods):
            problems.append(
                f"{len(tracer.collected)} pod results collected inline"
            )
        if inline.fingerprint != measured.fingerprint:
            problems.append(
                f"merged sha256 at shards={FLEET_SHARDS} "
                f"{measured.fingerprint[:16]} != inline "
                f"{inline.fingerprint[:16]}"
            )
        return {
            "problems": problems,
            "resp_agreement": 1.0,
            "reference_fingerprint": inline.fingerprint,
            "reference_wall_s": inline.wall_s,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        PaperWorkload("paper-batched", "batched", "classic"),
        PaperWorkload("paper-classic", "classic", "batched"),
        FleetWorkload(),
    )
}
