"""Declarative experiment configuration.

:class:`ExperimentConfig` is the serializable description of one run —
what the CLI and batch scripts consume, and what gets stored next to
exported traces so a result is always reproducible from its sidecar.
Round-trips through plain dicts (and therefore JSON).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Tuple

from repro.control.spec import CONTROLLER_KINDS, ControllerSpec
from repro.errors import ConfigurationError
from repro.faults.spec import FaultSchedule
from repro.experiments.scenarios import (
    Scenario,
    default_duration_s,
    open_loop_scenario,
    scenario,
)
from repro.placement.spec import FleetSpec
from repro.traffic.spec import TrafficSpec
from repro.workloads.base import TenantSpec


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run, fully described by plain data."""

    environment: str = "virtualized"
    composition: str = "browsing"
    duration_s: Optional[float] = None
    seed: int = 42
    clients: Optional[int] = None
    #: Stress multiplier on horizon and clients (see ``scenario(scale=)``).
    scale: float = 1.0
    #: Traffic driver token: "closed" (default), "poisson", "mmpp",
    #: "bmodel" or "trace:<path>" — the CLI ``--traffic`` syntax.
    traffic: Optional[str] = None
    #: Base offered rate for open-loop traffic (req/s; default: matched
    #: to the closed-loop long-run rate).
    rate_rps: Optional[float] = None
    #: Concurrent-session cap for open-loop traffic (overload shedding).
    session_budget: Optional[int] = None
    #: Co-resident tenant VMs (consolidation); each entry is a
    #: :class:`~repro.workloads.base.TenantSpec` (or its dict form).
    tenants: Tuple[TenantSpec, ...] = ()
    #: Elastic-controller policy token: None/"none" (no controller) or
    #: "static"/"threshold"/"pid"/"predictive" — the CLI
    #: ``--controller`` syntax, expanded to a default-band
    #: :class:`~repro.control.spec.ControllerSpec`.
    controller: Optional[str] = None
    #: Physical servers in the fleet (>1 builds the multi-server
    #: testbed through the placement engine).
    servers: int = 1
    #: Placement policy token (``firstfit``/``bestfit``/``balance``/
    #: ``priority``); None keeps the scenario default (first-fit).
    placement: Optional[str] = None
    #: Fleet-controller spec (:class:`~repro.placement.spec.FleetSpec`
    #: or its dict form); requires ``servers > 1``.  None (the
    #: default) runs without a fleet controller.
    fleet: Optional[FleetSpec] = None
    #: Fault-schedule token: ``"+"``-joined
    #: ``kind@at[:duration[:magnitude]][/target]`` entries (the CLI
    #: ``--faults`` syntax, see :mod:`repro.faults.spec`); None or
    #: ``"none"`` runs fault-free.
    faults: Optional[str] = None
    #: Request-engine selector: ``"classic"`` (event-per-hop, the
    #: bit-stable default) or ``"batched"`` (array-native cohort
    #: engine; equivalent in distribution, not bitwise — see
    #: PERFORMANCE.md "Epoch 2").
    engine: str = "classic"
    #: Request-trace sampling rate in [0, 1]; 0 disables tracing (and
    #: keeps bit-identical traces — see :mod:`repro.obs.tracing`).
    trace_sample: float = 0.0
    collect_full_registry: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Deserialized tenants and fleet specs arrive as plain dicts;
        # normalize them so equality and round-trips hold.
        coerced = tuple(
            entry if isinstance(entry, TenantSpec) else TenantSpec.from_dict(entry)
            for entry in self.tenants
        )
        object.__setattr__(self, "tenants", coerced)
        if self.fleet is not None and not isinstance(self.fleet, FleetSpec):
            object.__setattr__(self, "fleet", FleetSpec.from_dict(self.fleet))
        # Only the CLI tokens are checked here; Scenario and its factory
        # check every value they hold.  Building the scenario now makes a
        # bad configuration fail at construction, not at run time.
        if self.controller not in (None, "none") + CONTROLLER_KINDS:
            raise ConfigurationError(
                f"unknown controller {self.controller!r}; choose from "
                f"{('none',) + CONTROLLER_KINDS}"
            )
        traffic = self.traffic_spec()
        if traffic is None and (
            self.rate_rps is not None or self.session_budget is not None
        ):
            # Closed loop: reject open-loop-only knobs instead of
            # silently running at a different offered load.
            raise ConfigurationError(
                "rate_rps and session_budget require an open-loop "
                "--traffic kind (poisson, mmpp, bmodel or trace:<path>)"
            )
        shape = dict(
            duration_s=self.duration_s,
            seed=self.seed,
            clients=self.clients,
            scale=self.scale,
        )
        if traffic is None:
            base = scenario(self.environment, self.composition, **shape)
        else:
            base = open_loop_scenario(
                self.environment, self.composition, traffic=traffic, **shape
            )
        object.__setattr__(self, "_scenario", self.overlay(base))

    # -- scenario construction ------------------------------------------

    def fault_schedule(self):
        """The parsed :class:`~repro.faults.spec.FaultSchedule`, or None."""
        if self.faults is None or self.faults == "none":
            return None
        return FaultSchedule.from_cli_string(self.faults)

    def traffic_spec(self) -> Optional[TrafficSpec]:
        """The parsed traffic spec, or None for the closed loop."""
        if self.traffic is None:
            return None
        spec = TrafficSpec.from_cli_string(
            self.traffic,
            rate_rps=self.rate_rps,
            session_budget=self.session_budget,
        )
        return spec if spec.open_loop else None

    def to_scenario(self) -> Scenario:
        """The runnable scenario this configuration describes."""
        return self._scenario

    def overlay(self, base: Scenario) -> Scenario:
        """``base`` with this configuration's overrides applied.

        :meth:`to_scenario` overlays the environment x composition
        cell; ``repro run --scenario`` overlays a catalogue entry.
        Overrides that change the physics suffix the name (``+tenants``,
        ``@controller``, ``/sN``, ``!faults``, ``%engine``); the fleet
        spec and the trace rate leave it unsuffixed, but the cache key
        covers them.
        """
        spec = base
        if self.tenants:
            names = "+".join(t.name for t in self.tenants)
            spec = replace(
                spec, name=f"{spec.name}+{names}", tenants=self.tenants
            )
        if self.controller not in (None, "none"):
            if spec.controller is not None:
                # Swap the policy but keep the base's capacity bands and
                # thresholds, and rename the run to match, following the
                # factories' convention, so a PID run never reports
                # under a "_static" label.
                name = spec.name.removesuffix("_static")
                if self.controller == "static":
                    name += "_static"
                controller = replace(spec.controller, kind=self.controller)
            else:
                name = f"{spec.name}@{self.controller}"
                controller = ControllerSpec.from_kind(self.controller)
            spec = replace(spec, name=name, controller=controller)
        # ``!= 1`` and ``!= 0.0`` rather than ``>``: an out-of-range
        # value must reach Scenario's check instead of being skipped.
        if self.servers != 1:
            spec = replace(
                spec,
                name=f"{spec.name}/s{self.servers}",
                servers=self.servers,
                placement=self.placement or spec.placement,
            )
        elif self.placement is not None:
            spec = replace(spec, placement=self.placement)
        if self.fleet is not None:
            spec = replace(spec, fleet=self.fleet)
        schedule = self.fault_schedule()
        if schedule is not None:
            spec = replace(
                spec,
                name=f"{spec.name}!{schedule.as_cli_string()}",
                faults=schedule,
            )
        if self.engine != "classic":
            spec = replace(
                spec, name=f"{spec.name}%{self.engine}", engine=self.engine
            )
        if self.trace_sample != 0.0:
            spec = replace(spec, trace_sample=self.trace_sample)
        return spec

    @property
    def effective_duration_s(self) -> float:
        if self.duration_s is not None:
            return self.duration_s
        return default_duration_s()

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(
                f"unknown configuration keys: {sorted(unknown)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("configuration JSON must be an object")
        return cls.from_dict(data)
